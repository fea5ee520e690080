//! Shared-weight fleet contracts (the Arc-frozen-model perf story):
//!
//! * every DL session in a fleet reports the **same** weight-storage id —
//!   one allocation serves N sessions, and `Ensemble::weight_footprint`
//!   charges it once;
//! * a fleet running a quick-trained bundle is bit-identical to solo runs
//!   at 1 and 3 worker threads, and survives checkpoint/resume;
//! * checkpoints serialize solver *state*, never weights — resuming a
//!   16-run fleet must not inflate into 16 private weight copies on disk;
//! * the model registry trains once per (scenario, scale, seed) in either
//!   dimension, shares one `Arc` across engines, pins exactly the bytes a
//!   session reports (half of them at bf16), rejects arch-mismatched hits
//!   with a structured error naming both shapes, LRU-evicts by bytes and
//!   releases everything on `prune`;
//! * an explicit 2-D model runs bit-identical to the registry session it
//!   came from and is rejected, by scenario name, on a grid it does not fit;
//! * `WeightProfiler::profile` — the serve tier's admission key — names
//!   one allocation per explicit model, per registry entry and per
//!   untrained architecture, and none for model-free runs;
//! * an engine given a model with no frozen form refuses every 1-D DL
//!   session with a structured error naming the layer, and runs every
//!   other backend;
//! * bf16 weight storage is an accuracy contract, not a bit-identity one:
//!   the two-stream growth rate stays within tolerance of f32 and the
//!   bf16 run itself is bit-exactly deterministic across repeats.

use std::sync::{Arc, Mutex, OnceLock};

use dlpic_repro::analytics::fit::{fit_growth_rate, GrowthFitOptions};
use dlpic_repro::core::{BundleError, ModelBundle, Scale};
use dlpic_repro::engine::{
    self, dl, Backend, DomainSpec, EnergyHistory, Engine, EngineError, ModelRegistry, ScenarioSpec,
};
use dlpic_repro::nn::{FreezeError, Precision};
use dlpic_repro::pic::Grid1D;
use dlpic_repro::pic::Grid2D;

/// One quick-trained smoke bundle shared by every test in this file:
/// training dominates debug-mode runtime, so pay for it once.
fn trained_smoke_bundle() -> &'static ModelBundle {
    static BUNDLE: OnceLock<ModelBundle> = OnceLock::new();
    // Seed 42 matches the ensemble bench's bf16 physics check — a smoke
    // model known to resolve the two-stream growth phase.
    BUNDLE.get_or_init(|| dl::quick_train_1d(Scale::Smoke, 42))
}

/// A smoke two-stream fan with per-run seeds and a short step budget.
fn fan(scenario: &str, n_steps: usize, seeds: &[u64]) -> Vec<engine::ScenarioSpec> {
    seeds
        .iter()
        .map(|&seed| {
            let mut spec = engine::scenario(scenario, Scale::Smoke).expect("registry");
            spec.n_steps = n_steps;
            spec.seed = seed;
            spec.name = format!("{scenario}[seed={seed}]");
            spec
        })
        .collect()
}

/// The DL backends with the registry scenario each runs.
const DL_CASES: [(&str, Backend); 2] = [
    ("two_stream", Backend::Dl1D),
    ("two_stream_2d", Backend::Dl2D),
];

/// `spec` on half as many field cells (along `x`).
fn halved(spec: &ScenarioSpec) -> ScenarioSpec {
    let mut resized = spec.clone();
    match &mut resized.domain {
        DomainSpec::OneD { ncells, .. } => *ncells /= 2,
        DomainSpec::TwoD { nx, .. } => *nx /= 2,
    }
    resized
}

/// Mode-1 growth rate of a smoke two-stream run under `bundle`. The
/// smoke model's field-noise floor keeps the amplitude within one
/// decade, so fit the full rise up to the peak instead of the default
/// 2%..50% window (identically for both precisions).
fn two_stream_growth(bundle: ModelBundle) -> f64 {
    let mut spec = engine::scenario("two_stream", Scale::Smoke).expect("registry");
    spec.ppc = 200;
    spec.n_steps = 150;
    let summary = Engine::new()
        .with_model_1d(bundle)
        .run(&spec, Backend::Dl1D)
        .expect("two-stream smoke run");
    let s = summary.history.mode_series(1).expect("mode 1 tracked");
    let opts = GrowthFitOptions {
        lo_frac: 0.0,
        hi_frac: 1.0,
        min_points: 5,
    };
    fit_growth_rate(&s.times, &s.values, opts)
        .expect("mode-1 growth fit")
        .gamma
}

#[test]
fn fleet_sessions_share_one_weight_allocation() {
    // Untrained shared path, both DL dimensions: every session in the
    // fleet must point at the same frozen allocation (equal storage ids),
    // and the ensemble's deduped footprint must equal one copy.
    for (scenario, backend) in DL_CASES {
        let specs = fan(scenario, 4, &[1, 2, 3, 4]);
        let engine = Engine::new();
        let ensemble = engine
            .start_ensemble(&specs, backend)
            .expect("start ensemble");

        let storages: Vec<(usize, usize)> = ensemble
            .sessions()
            .iter()
            .map(|s| s.weight_storage().expect("DL session reports weights"))
            .collect();
        let (id0, bytes0) = storages[0];
        assert!(bytes0 > 0, "{scenario}: weight bytes");
        for (i, &(id, bytes)) in storages.iter().enumerate() {
            assert_eq!(
                id, id0,
                "{scenario}: session {i} owns a private weight copy"
            );
            assert_eq!(bytes, bytes0, "{scenario}: session {i} weight bytes differ");
        }

        let (distinct, deduped) = ensemble.weight_footprint();
        assert_eq!(distinct, 1, "{scenario}: fleet should hold one model");
        assert_eq!(
            deduped, bytes0,
            "{scenario}: deduped footprint must be exactly one copy"
        );
    }
}

#[test]
fn trained_fleet_is_bit_identical_to_solo_and_shares_weights() {
    let bundle = trained_smoke_bundle();
    let specs = fan("two_stream", 12, &[11, 12, 13]);

    let solo: Vec<EnergyHistory> = specs
        .iter()
        .map(|spec| {
            Engine::new()
                .with_model_1d(bundle.clone())
                .run(spec, Backend::Dl1D)
                .expect("solo run")
                .history
        })
        .collect();

    for threads in [1usize, 2, 3] {
        let engine = Engine::new().with_model_1d(bundle.clone());
        let mut ensemble = engine
            .start_ensemble(&specs, Backend::Dl1D)
            .expect("start ensemble");

        // Sharing first: one allocation across the trained fleet too.
        let (distinct, deduped) = ensemble.weight_footprint();
        assert_eq!(distinct, 1, "trained fleet should hold one model");
        let frozen = bundle.freeze().expect("freeze");
        assert_eq!(deduped, frozen.weight_bytes());

        ensemble.run_to_end(threads);
        assert!(ensemble.is_complete());
        let histories: Vec<EnergyHistory> =
            ensemble.finish().into_iter().map(|s| s.history).collect();
        assert_eq!(histories.len(), solo.len());
        for (i, (got, want)) in histories.iter().zip(&solo).enumerate() {
            // EnergyHistory PartialEq compares every f64 series exactly.
            assert_eq!(got, want, "threads={threads}: run {i} differs from solo");
        }
    }
}

#[test]
fn checkpoints_carry_no_weights_and_resume_bit_identical() {
    let bundle = trained_smoke_bundle();
    let mut spec = engine::scenario("two_stream", Scale::Smoke).expect("registry");
    spec.ppc = 8; // small particle state so JSON size reflects state, not weights
    spec.n_steps = 10;

    let engine = Engine::new().with_model_1d(bundle.clone());
    let mut full = engine.start(&spec, Backend::Dl1D).expect("start");
    full.run_to_end();
    let want = full.history().clone();

    let mut half = engine.start(&spec, Backend::Dl1D).expect("start");
    for _ in 0..5 {
        half.step();
    }
    let ckpt = half.checkpoint();
    let json = ckpt.to_json();

    // The weight contract: a checkpoint rebuilds the solver stack from
    // (spec, backend) and restores mutable state — the network itself is
    // never serialized. N fleet checkpoints must not become N weight
    // copies on disk.
    assert!(!json.contains("\"params\""), "checkpoint serializes params");
    assert!(
        !json.contains("\"weights\""),
        "checkpoint serializes weights"
    );
    let frozen = bundle.freeze().expect("freeze");
    assert!(
        json.len() < frozen.weight_bytes(),
        "checkpoint JSON ({} bytes) is as large as the weights ({} bytes)",
        json.len(),
        frozen.weight_bytes()
    );

    let restored = engine::Checkpoint::from_json(&json).expect("parse checkpoint");
    let mut resumed = engine.resume(&restored).expect("resume");
    resumed.run_to_end();
    assert_eq!(
        resumed.history(),
        &want,
        "resumed run differs from uninterrupted run"
    );
}

#[test]
fn registry_trains_once_and_shares_one_arc_across_engines() {
    for (scenario, backend) in DL_CASES {
        let reg = engine::shared_registry(1 << 30);
        let spec = engine::scenario(scenario, Scale::Smoke).expect("registry");

        let e1 = Engine::new().with_registry(Arc::clone(&reg));
        let s1 = e1.start(&spec, backend).expect("first session");
        let s2 = e1.start(&spec, backend).expect("second session");
        let e2 = Engine::new().with_registry(Arc::clone(&reg));
        let s3 = e2.start(&spec, backend).expect("session on second engine");

        let stats = reg.lock().unwrap().stats();
        assert_eq!(stats.misses, 1, "{scenario}: same key must train once");
        assert_eq!(stats.hits, 2, "{scenario}: later sessions must be hits");
        assert_eq!(stats.entries, 1);

        let (id1, bytes1) = s1.weight_storage().expect("weights");
        for (name, s) in [("same-engine", &s2), ("cross-engine", &s3)] {
            let (id, bytes) = s.weight_storage().expect("weights");
            assert_eq!(id, id1, "{scenario}: {name} session owns a private copy");
            assert_eq!(bytes, bytes1);
        }
        // The registry pins the frozen weights once — not a serialized
        // copy beside them.
        assert_eq!(stats.bytes, bytes1, "{scenario}: resident bytes");

        // Arch-mismatch rejection through the engine path: same registry
        // key, resized domain. The cached model serves the full grid;
        // asking for half of it must fail with a structured error naming
        // both shapes, and without touching the counters.
        let cells = spec.domain.cells();
        let err = match e1.start(&halved(&spec), backend) {
            Ok(_) => panic!("{scenario}: mismatched domain must be rejected"),
            Err(e) => e,
        };
        let EngineError::Incompatible { why, .. } = &err else {
            panic!("expected Incompatible, got: {err}");
        };
        assert!(
            why.contains(&cells.to_string()) && why.contains(&(cells / 2).to_string()),
            "{scenario}: error must name both shapes: {why}"
        );
        assert_eq!(reg.lock().unwrap().stats(), stats);
    }
}

#[test]
fn registry_at_bf16_pins_about_half_the_f32_bytes() {
    let spec = engine::scenario("two_stream", Scale::Smoke).expect("registry");
    let resident = |precision| {
        let reg = Arc::new(Mutex::new(
            ModelRegistry::new(1 << 30).with_precision(precision),
        ));
        let engine = Engine::new().with_registry(Arc::clone(&reg));
        let session = engine.start(&spec, Backend::Dl1D).expect("session");
        let (_, bytes) = session.weight_storage().expect("weights");
        let stats = reg.lock().unwrap().stats();
        assert_eq!(stats.bytes, bytes, "{precision:?}: resident bytes");
        bytes
    };
    let (f32_bytes, bf16_bytes) = (resident(Precision::F32), resident(Precision::Bf16));
    // Weights halve; the f32 biases do not.
    assert!(
        bf16_bytes > f32_bytes / 2 && bf16_bytes < f32_bytes * 11 / 20,
        "bf16 entry {bf16_bytes} B against f32 {f32_bytes} B"
    );
}

#[test]
fn explicit_2d_model_matches_its_registry_session_and_rejects_other_grids() {
    let mut spec = engine::scenario("two_stream_2d", Scale::Smoke).expect("registry");
    spec.n_steps = 12;
    let reg = engine::shared_registry(1 << 30);
    let via_registry = Engine::new()
        .with_registry(Arc::clone(&reg))
        .run(&spec, Backend::Dl2D)
        .expect("registry run");

    // The same model, brought back through the explicit tier.
    let frozen = reg.lock().unwrap().model::<Grid2D>(&spec).expect("hit");
    let mut engine = Engine::new().with_model_2d(frozen.clone());
    let explicit = engine.run(&spec, Backend::Dl2D).expect("explicit run");
    assert_eq!(explicit.history, via_registry.history);
    let session = engine.start(&spec, Backend::Dl2D).expect("session");
    assert!(
        session.checkpoint().to_json().contains("\"dl-2d-mlp\""),
        "a trained model, not the untrained fallback"
    );
    assert_eq!(
        session.weight_storage(),
        Some((Arc::as_ptr(frozen.model()) as usize, frozen.weight_bytes())),
        "explicit sessions read the registry's allocation"
    );

    // A grid the model does not fit: a structured error naming the
    // scenario, not a panic in the first solve.
    let resized = halved(&spec);
    match engine.start(&resized, Backend::Dl2D) {
        Err(EngineError::Incompatible {
            scenario, backend, ..
        }) => {
            assert_eq!(scenario, resized.name);
            assert_eq!(backend, Backend::Dl2D.name());
        }
        Err(e) => panic!("expected Incompatible, got: {e}"),
        Ok(_) => panic!("a 16×32 domain must not run on a 32×32 model"),
    }
}

#[test]
fn weight_profiler_keys_name_what_sessions_share() {
    let spec_1d = engine::scenario("two_stream", Scale::Smoke).expect("registry");
    let spec_2d = engine::scenario("two_stream_2d", Scale::Smoke).expect("registry");
    let reseeded = |spec: &ScenarioSpec| {
        let mut other = spec.clone();
        other.seed += 1;
        other
    };
    let rescaled = |name: &str| engine::scenario(name, Scale::Scaled).expect("registry");

    // Explicit freezable 1-D model: one key, the frozen bytes.
    let bundle = trained_smoke_bundle();
    let frozen = bundle.freeze().expect("freeze");
    let explicit = Engine::new()
        .with_model_1d(bundle.clone())
        .weight_profiler();
    let (key, bytes) = explicit.profile(&spec_1d, Backend::Dl1D).expect("shared");
    assert_eq!(bytes, frozen.weight_bytes());
    assert_eq!(
        explicit.profile(&reseeded(&spec_1d), Backend::Dl1D),
        Some((key, bytes))
    );

    // Explicit CNN: no frozen form, so no DL session starts — one or a
    // fleet — and the refusal names the layer. Other backends still run.
    let arch = Scale::Smoke.cnn_arch();
    let mut net = arch.build(1);
    let cnn = ModelBundle::from_network(
        &mut net,
        arch,
        Scale::Smoke.phase_spec(),
        bundle.binning,
        bundle.norm,
    );
    let refusing = Engine::new().with_model_1d(cnn);
    let fleet = [spec_1d.clone(), reseeded(&spec_1d)];
    for refused in [
        refusing.start(&spec_1d, Backend::Dl1D).err(),
        refusing.start_ensemble(&fleet, Backend::Dl1D).err(),
    ] {
        match refused {
            Some(EngineError::Bundle(BundleError::Freeze(e))) => assert_eq!(
                e,
                FreezeError {
                    layer_index: 0,
                    layer_name: "conv2d"
                }
            ),
            other => panic!("expected the conv2d freeze refusal, got {other:?}"),
        }
    }
    assert!(refusing.start(&spec_1d, Backend::Traditional1D).is_ok());

    // Explicit 2-D model: one key, its actual bytes.
    let frozen_2d = dl::quick_train_2d(&spec_2d, 3, Precision::F32).expect("train 2-D");
    let explicit_2d = Engine::new()
        .with_model_2d(frozen_2d.clone())
        .weight_profiler();
    let (key_2d, bytes_2d) = explicit_2d
        .profile(&spec_2d, Backend::Dl2D)
        .expect("shared");
    assert_eq!(bytes_2d, frozen_2d.weight_bytes());
    assert_eq!(
        explicit_2d.profile(&reseeded(&spec_2d), Backend::Dl2D),
        Some((key_2d, bytes_2d))
    );

    // Registry attached: one model per seed and per dimension.
    let with_registry = Engine::new()
        .with_registry(engine::shared_registry(1 << 20))
        .weight_profiler();
    let key_of = |profiler: &engine::WeightProfiler, spec: &ScenarioSpec, backend| {
        profiler.profile(spec, backend).expect("shared").0
    };
    let reg_1d = key_of(&with_registry, &spec_1d, Backend::Dl1D);
    assert_eq!(reg_1d, key_of(&with_registry, &spec_1d, Backend::Dl1D));
    assert_ne!(
        reg_1d,
        key_of(&with_registry, &reseeded(&spec_1d), Backend::Dl1D)
    );
    assert_ne!(reg_1d, key_of(&with_registry, &spec_2d, Backend::Dl2D));

    // Untrained: the weights are a function of the architecture alone.
    let bare = Engine::new().weight_profiler();
    for (spec, backend) in [(&spec_1d, Backend::Dl1D), (&spec_2d, Backend::Dl2D)] {
        let (key, bytes) = bare.profile(spec, backend).expect("shared");
        let session = Engine::new().start(spec, backend).expect("session");
        assert_eq!(session.weight_storage().expect("weights").1, bytes);
        assert_eq!(key, key_of(&bare, &reseeded(spec), backend));
        assert_ne!(key, key_of(&bare, &rescaled(&spec.name), backend));
        assert_ne!(key, reg_1d);
    }
    assert_ne!(
        key_of(&bare, &spec_2d, Backend::Dl2D),
        key_of(&bare, &halved(&spec_2d), Backend::Dl2D),
        "2-D untrained weights are sized per grid"
    );

    // Model-free backends have nothing to share.
    for profiler in [&bare, &with_registry, &explicit] {
        assert_eq!(profiler.profile(&spec_1d, Backend::Traditional1D), None);
        assert_eq!(profiler.profile(&spec_1d, Backend::Vlasov), None);
        assert_eq!(profiler.profile(&spec_2d, Backend::Traditional2D), None);
    }
}

#[test]
fn registry_lru_evicts_by_bytes_and_prune_releases_everything() {
    // Capacity of one byte: any entry is over budget, but the freshest is
    // never evicted — inserting a second key must drop the first.
    let mut reg = ModelRegistry::new(1);
    let mut spec_a = engine::scenario("two_stream", Scale::Smoke).expect("registry");
    spec_a.seed = 1;
    let mut spec_b = spec_a.clone();
    spec_b.seed = 2;

    let frozen_a = reg.model::<Grid1D>(&spec_a).expect("train a");
    let stats = reg.stats();
    assert_eq!((stats.misses, stats.entries, stats.evictions), (1, 1, 0));
    assert!(
        stats.bytes > stats.capacity_bytes,
        "a lone over-budget entry stays resident rather than thrashing"
    );

    // Same key again: a hit, same Arc, no retraining.
    let frozen_a2 = reg.model::<Grid1D>(&spec_a).expect("hit a");
    assert!(Arc::ptr_eq(frozen_a.model(), frozen_a2.model()));
    assert_eq!(reg.stats().hits, 1);

    // New key: trains, then LRU pressure evicts the older entry.
    let frozen_b = reg.model::<Grid1D>(&spec_b).expect("train b");
    assert!(!Arc::ptr_eq(frozen_a.model(), frozen_b.model()));
    let stats = reg.stats();
    assert_eq!((stats.misses, stats.entries, stats.evictions), (2, 1, 1));

    // Eviction released the registry's pin, not the caller's handle.
    assert!(Arc::strong_count(frozen_a.model()) >= 1);

    let released = reg.prune();
    assert_eq!(released, 1);
    let stats = reg.stats();
    assert_eq!((stats.entries, stats.bytes), (0, 0));
    assert_eq!(stats.evictions, 2);
}

#[test]
fn bf16_growth_rate_within_tolerance_and_deterministic() {
    let bundle = trained_smoke_bundle();

    // Physics tolerance: bf16 weight storage may perturb bits, not the
    // instability: README's precision contract, 5 % of the f32 rate.
    let g_f32 = two_stream_growth(bundle.clone());
    let g_bf16 = two_stream_growth(bundle.clone().with_precision(Precision::Bf16));
    assert!(g_f32 > 0.0, "f32 run must show growth (gamma = {g_f32})");
    let rel = ((g_bf16 - g_f32) / g_f32).abs();
    assert!(
        rel < 0.05,
        "bf16 growth rate deviates {:.2}% from f32 ({g_bf16} vs {g_f32})",
        rel * 100.0
    );

    // Reduced precision is still deterministic: repeat runs bit-identical.
    let mut spec = engine::scenario("two_stream", Scale::Smoke).expect("registry");
    spec.n_steps = 40;
    let run = || {
        Engine::new()
            .with_model_1d(bundle.clone().with_precision(Precision::Bf16))
            .run(&spec, Backend::Dl1D)
            .expect("bf16 run")
            .history
    };
    assert_eq!(run(), run(), "bf16 inference must be run-to-run bit-exact");
}
