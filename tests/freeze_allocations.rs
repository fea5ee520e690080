//! Loading a model bundle into its frozen form holds one copy of the
//! weights: `ModelBundle::freeze` decodes each parameter tensor once and
//! moves it into its frozen layer, building no trainable network, no
//! gradient buffer and no second decoded copy on the way.
//!
//! A counting global allocator measures the call. It counts only on the
//! thread that turns it on, and this is the binary's only test, so it
//! sees nothing but the freeze.

use dlpic_repro::core::{ArchSpec, BinningShape, ModelBundle, NormStats, PhaseGridSpec};
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
/// tensor list, the `Arc` and the bundle's metadata.
const SLACK: usize = 64 << 10;

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
    let bundle = ModelBundle::from_network(
        &mut net,
        arch,
        spec,
        BinningShape::Ngp,
        NormStats::identity(),
    );
    drop(net);

    COUNTING.with(|c| c.set(true));
    let frozen = bundle.freeze().expect("an MLP freezes");
    COUNTING.with(|c| c.set(false));

    let weights = frozen.weight_bytes();
    assert_eq!(weights, 4 * bundle.arch.param_count());
    let total = TOTAL.load(Ordering::Relaxed);
    let peak = PEAK.load(Ordering::Relaxed) as usize;
    assert!(
        total <= bundle.params.len() + SLACK,
        "freeze allocated {total} B in total for {weights} B of weights \
         ({} B of parameter bytes)",
        bundle.params.len()
    );
    assert!(
        peak <= weights + SLACK,
        "freeze held {peak} B at its peak for {weights} B of weights"
    );
}
