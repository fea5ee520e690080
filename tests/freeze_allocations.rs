//! Every step between a trained network and its running solver holds one
//! copy of the weights at a time:
//! - `ModelBundle::from_network` encodes straight from the network into
//!   the blob;
//! - a clone of the bundle shares that blob;
//! - `ModelBundle::load` keeps the file's buffer as the blob;
//! - `ModelBundle::freeze` (and so `Engine::with_model_1d`) decodes each
//!   parameter tensor once and moves it into its frozen layer, building no
//!   trainable network, no gradient buffer and no second decoded copy.
//!
//! A counting global allocator measures each call. It counts only on the
//! thread that turns it on, and its counters are global, so the cases run
//! one after another in this binary's only test, each from zeroed
//! counters.

use dlpic_repro::core::{ArchSpec, BinningShape, ModelBundle, NormStats, PhaseGridSpec};
use dlpic_repro::engine::Engine;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};

struct Counting;

/// Bytes requested while counting.
static TOTAL: AtomicUsize = AtomicUsize::new(0);
/// Bytes allocated minus bytes freed while counting, and its maximum.
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn counting() -> bool {
    COUNTING.try_with(Cell::get).unwrap_or(false)
}

// SAFETY: every call is forwarded unchanged to `System`, which meets the
// `GlobalAlloc` contract; the counting beside it touches only atomics and
// a const-initialised thread local, so it never allocates or unwinds.
// `realloc` keeps its default, which goes through `alloc` and `dealloc`
// and so is counted as a fresh allocation.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller's `layout` goes to `System` unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting() {
            TOTAL.fetch_add(layout.size(), Ordering::Relaxed);
            let live = LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
            PEAK.fetch_max(live + layout.size() as isize, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    // SAFETY: `ptr` came from `alloc` above, that is from `System`, with
    // this `layout`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if counting() {
            LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        }
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Slack for everything that is not a weight: the layer table, the
/// tensor list, the `Arc`, the bundle's metadata and the engine's tables.
const SLACK: usize = 64 << 10;

/// What one call allocated: bytes requested in total and the most held at
/// once.
struct Usage {
    total: usize,
    peak: usize,
}

/// Runs `f` from zeroed counters and reports what it allocated. The
/// result is returned, so dropping it is not counted.
fn measure<T>(f: impl FnOnce() -> T) -> (T, Usage) {
    TOTAL.store(0, Ordering::Relaxed);
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let value = f();
    COUNTING.with(|c| c.set(false));
    let usage = Usage {
        total: TOTAL.load(Ordering::Relaxed),
        peak: PEAK.load(Ordering::Relaxed) as usize,
    };
    (value, usage)
}

#[test]
fn freeze_allocates_one_copy_of_the_weights() {
    // 1024 → 512 → 512 → 64: 820 288 parameters, 3.3 MB at f32.
    let spec = PhaseGridSpec::new(32, 32, -1.0, 1.0);
    let arch = ArchSpec::Mlp {
        input: spec.cells(),
        hidden: vec![512, 512],
        output: 64,
    };
    let mut net = arch.build(5);
    let weights = 4 * arch.param_count();

    let (bundle, captured) = measure(|| {
        ModelBundle::from_network(
            &mut net,
            arch.clone(),
            spec,
            BinningShape::Ngp,
            NormStats::identity(),
        )
    });
    drop(net);
    let blob = bundle.params.len();
    assert!(
        captured.total <= blob + SLACK,
        "from_network allocated {} B in total for a {blob} B blob",
        captured.total
    );

    let (copy, cloned) = measure(|| bundle.clone());
    drop(copy);
    assert!(
        cloned.total < 1 << 10,
        "a bundle clone allocated {} B for a {blob} B blob",
        cloned.total
    );

    let (frozen, froze) = measure(|| bundle.freeze().expect("an MLP freezes"));
    assert_eq!(frozen.weight_bytes(), weights);
    assert!(
        froze.total <= blob + SLACK,
        "freeze allocated {} B in total for {weights} B of weights \
         ({blob} B of parameter bytes)",
        froze.total
    );
    assert!(
        froze.peak <= weights + SLACK,
        "freeze held {} B at its peak for {weights} B of weights",
        froze.peak
    );
    drop(frozen);

    let (engine, engined) = measure(|| Engine::new().with_model_1d(bundle.clone()));
    drop(engine);
    assert!(
        engined.total <= weights + SLACK,
        "with_model_1d(bundle.clone()) allocated {} B in total for {weights} B of weights",
        engined.total
    );

    let path = std::env::temp_dir().join(format!("dlpic-alloc-{}.dlpb", std::process::id()));
    bundle.save(&path).expect("bundle written");
    let file = std::fs::metadata(&path).expect("bundle file").len() as usize;
    let (loaded, read) = measure(|| ModelBundle::load(&path));
    std::fs::remove_file(&path).ok();
    assert_eq!(loaded.expect("bundle loads").params, bundle.params);
    assert!(
        read.total <= file + SLACK,
        "load allocated {} B in total for a {file} B file",
        read.total
    );
}
