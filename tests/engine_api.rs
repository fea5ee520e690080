//! Facade integration tests: every registry scenario round-trips through
//! JSON, and every scenario×compatible-backend pairing runs at
//! `Scale::Smoke` with finite energies and (where the method promises it)
//! conserved momentum.

use dlpic_repro::core::Scale;
use dlpic_repro::engine::{self, Backend, Observer, RunSummary, Sample, ScenarioSpec};

#[test]
fn every_registry_spec_round_trips_through_json() {
    for scale in [Scale::Smoke, Scale::Scaled, Scale::Paper] {
        for name in engine::names() {
            let spec = engine::scenario(name, scale).unwrap();
            let json = spec.to_json();
            let round = ScenarioSpec::from_json(&json).unwrap();
            assert_eq!(round, spec, "{name} at {scale:?} mutated in JSON transit");
        }
    }
}

#[test]
fn every_compatible_pairing_runs_at_smoke_scale() {
    for name in engine::names() {
        let spec = engine::scenario(name, Scale::Smoke).unwrap();
        let backends: Vec<Backend> = Backend::all()
            .into_iter()
            .filter(|b| b.supports(&spec).is_ok())
            .collect();
        assert!(!backends.is_empty(), "{name} has no compatible backend");
        for backend in backends {
            let summary =
                engine::run(&spec, backend).unwrap_or_else(|e| panic!("{name} on {backend}: {e}"));
            assert_eq!(
                summary.history.len(),
                spec.n_steps + 1,
                "{name} on {backend}: wrong sample count"
            );
            assert!(
                summary.all_finite(),
                "{name} on {backend}: non-finite diagnostics"
            );
            // Mode amplitudes recorded for every tracked mode.
            for &m in &spec.tracked_modes {
                assert!(
                    summary.history.mode_series(m).is_some(),
                    "{name} on {backend}: mode {m} missing"
                );
            }
            if !matches!(backend, Backend::Dl1D | Backend::Dl2D) {
                // Matched-shape deposit/gather (and the continuum solver)
                // conserve total momentum; normalize by a momentum scale so
                // the bound is meaningful for symmetric (p ≈ 0) loads too.
                let p = &summary.history.momentum;
                let scale_p = summary
                    .history
                    .kinetic
                    .iter()
                    .fold(0.0f64, |m, &v| m.max(v.abs()))
                    .max(1e-12);
                let drift = summary.momentum_drift() / scale_p;
                assert!(
                    drift < 1e-6,
                    "{name} on {backend}: momentum drift {drift:.3e} (p0 = {})",
                    p[0]
                );
            }
        }
    }
}

#[test]
fn traditional_and_dl_swap_is_one_enum_value() {
    // The acceptance test of the facade: same spec, two backends,
    // nothing else changes.
    let spec = engine::scenario("two_stream", Scale::Smoke).unwrap();
    let trad = engine::run(&spec, Backend::Traditional1D).unwrap();
    let dl = engine::run(&spec, Backend::Dl1D).unwrap();
    assert_eq!(trad.history.len(), dl.history.len());
    assert!(trad.all_finite() && dl.all_finite());
    assert_eq!(trad.backend, "traditional-1d");
    assert_eq!(dl.backend, "dl-1d");
}

#[test]
fn incompatible_pairings_error_cleanly() {
    let spec_2d = engine::scenario("two_stream_2d", Scale::Smoke).unwrap();
    assert!(engine::run(&spec_2d, Backend::Traditional1D).is_err());
    let bot = engine::scenario("bump_on_tail", Scale::Smoke).unwrap();
    assert!(engine::run(&bot, Backend::Vlasov).is_err());
    assert!(engine::run(&bot, Backend::Ddecomp { n_ranks: 4 }).is_err());
    assert!(engine::scenario("no_such_thing", Scale::Smoke).is_err());
}

#[test]
fn spectral_poisson_on_a_non_power_of_two_grid_is_incompatible() {
    use dlpic_repro::engine::{DomainSpec, Engine, EngineError, Numerics1D};
    use dlpic_repro::pic::solver::PoissonKind;

    let incompatible = |engine: Engine, spec: &ScenarioSpec, backend: Backend| {
        spec.validate().unwrap();
        backend.supports(spec).unwrap();
        match engine.start(spec, backend) {
            Err(EngineError::Incompatible { why, .. }) => {
                assert!(why.contains("power-of-two"), "{backend}: {why}")
            }
            Err(e) => panic!("{backend}: expected Incompatible, got {e}"),
            Ok(_) => panic!("{backend}: a {:?} grid started", spec.domain),
        }
    };

    // 2-D: the traditional solve is spectral.
    let mut spec = engine::scenario("two_stream_2d", Scale::Smoke).unwrap();
    let DomainSpec::TwoD { nx, ny, .. } = &mut spec.domain else {
        panic!("two_stream_2d is 2-D");
    };
    (*nx, *ny) = (24, 24);
    incompatible(Engine::new(), &spec, Backend::Traditional2D);

    // 1-D: a spectral numerics override on 48 cells.
    let mut spec = engine::scenario("two_stream", Scale::Smoke).unwrap();
    let DomainSpec::OneD { ncells, .. } = &mut spec.domain else {
        panic!("two_stream is 1-D");
    };
    *ncells = 48;
    let spectral = Numerics1D {
        poisson: PoissonKind::Spectral,
        ..Numerics1D::default()
    };
    incompatible(
        Engine::new().with_numerics_1d(spectral),
        &spec,
        Backend::Traditional1D,
    );
}

/// Asserts an `InvalidSpec` error.
fn assert_invalid_spec<T: std::fmt::Debug>(
    result: Result<T, dlpic_repro::engine::EngineError>,
    what: &str,
) {
    use dlpic_repro::engine::EngineError;
    match result {
        Err(EngineError::InvalidSpec { .. }) => {}
        other => panic!("{what}: expected InvalidSpec, got {other:?}"),
    }
}

/// Asserts that `spec` fails validation and that `engine::start` refuses
/// it with `InvalidSpec` instead of building (or panicking in) anything.
fn assert_unstartable(spec: &ScenarioSpec, backend: Backend) {
    assert_invalid_spec(spec.validate(), "validate");
    assert_invalid_spec(engine::start(spec, backend).map(drop), "start");
}

#[test]
fn infinite_box_lengths_are_invalid_specs() {
    use dlpic_repro::engine::DomainSpec;
    // JSON has no infinity, but `1e999` parses to one.
    let parse_with_infinite = |spec: &ScenarioSpec, length: f64| {
        let (text, from) = (spec.to_json(), format!(": {length}"));
        assert!(text.contains(&from), "{text} does not carry {from}");
        ScenarioSpec::from_json(&text.replacen(&from, ": 1e999", 1))
    };

    let mut spec = engine::scenario("two_stream", Scale::Smoke).unwrap();
    let DomainSpec::OneD { length, .. } = spec.domain else {
        panic!("two_stream is 1-D");
    };
    assert_invalid_spec(parse_with_infinite(&spec, length), "1-D from_json");
    spec.domain = DomainSpec::OneD {
        ncells: spec.domain.cells(),
        length: f64::INFINITY,
    };
    assert_unstartable(&spec, Backend::Traditional1D);

    let base = engine::scenario("two_stream_2d", Scale::Smoke).unwrap();
    let DomainSpec::TwoD { nx, ny, .. } = base.domain else {
        panic!("two_stream_2d is 2-D");
    };
    for (lx, ly) in [(f64::INFINITY, 1.5), (1.5, f64::INFINITY)] {
        let mut spec = base.clone();
        spec.domain = DomainSpec::TwoD {
            nx,
            ny,
            lx: 1.5,
            ly: 1.5,
        };
        assert_invalid_spec(parse_with_infinite(&spec, 1.5), "2-D from_json");
        spec.domain = DomainSpec::TwoD { nx, ny, lx, ly };
        assert_unstartable(&spec, Backend::Traditional2D);
    }
}

#[test]
fn a_particle_count_that_overflows_is_an_invalid_spec() {
    use dlpic_repro::engine::DomainSpec;
    // (2^58 + 1) × 64 cells wraps to 64 particles in a release build.
    let mut spec = engine::scenario("two_stream", Scale::Smoke).unwrap();
    assert_eq!(spec.domain.cells(), 64);
    spec.ppc = (1 << 58) + 1;
    assert_unstartable(&spec, Backend::Traditional1D);

    // JSON integers stay below 2^53, so through JSON it takes a larger
    // grid: (2^52 + 1) × 4096 cells wraps to 4096 particles.
    spec.ppc = (1 << 52) + 1;
    spec.domain = DomainSpec::OneD {
        ncells: 4096,
        length: 2.0,
    };
    let json = spec.to_json();
    assert!(json.contains(&spec.ppc.to_string()), "{json}");
    assert_invalid_spec(ScenarioSpec::from_json(&json), "from_json");
}

#[test]
fn ddecomp_matches_single_process_traditional() {
    // Same spec, same seed: the distributed backend must reproduce the
    // single-process physics (identical load, equivalent field solve).
    let mut spec = engine::scenario("two_stream", Scale::Smoke).unwrap();
    spec.n_steps = 10;
    let single = engine::run(&spec, Backend::Traditional1D).unwrap();
    let dist = engine::run(&spec, Backend::Ddecomp { n_ranks: 4 }).unwrap();
    assert_eq!(single.history.len(), dist.history.len());
    for (a, b) in single.history.total.iter().zip(&dist.history.total) {
        assert!(
            (a - b).abs() / a.abs().max(1e-12) < 1e-8,
            "energy diverged: {a} vs {b}"
        );
    }
    assert!(dist.extra("comm_bytes").unwrap() > 0.0);
    assert!(dist.extra("ranks").unwrap() == 4.0);
}

#[test]
fn observers_stream_every_sample() {
    struct Counter {
        started: usize,
        samples: Vec<usize>,
        finished: usize,
    }
    impl Observer for Counter {
        fn on_start(&mut self, _spec: &ScenarioSpec, _backend: &Backend) {
            self.started += 1;
        }
        fn on_sample(&mut self, sample: &Sample) {
            self.samples.push(sample.step);
        }
        fn on_finish(&mut self, summary: &RunSummary) {
            self.finished += 1;
            assert_eq!(summary.history.len(), self.samples.len());
        }
    }
    // Observers are boxed into the engine; inspect via a shared handle
    // (Arc<Mutex<…>> — observers are Send, sessions can cross threads).
    use std::sync::{Arc, Mutex};
    struct Shared(Arc<Mutex<Counter>>);
    impl Observer for Shared {
        fn on_start(&mut self, spec: &ScenarioSpec, backend: &Backend) {
            self.0.lock().unwrap().on_start(spec, backend);
        }
        fn on_sample(&mut self, sample: &Sample) {
            self.0.lock().unwrap().on_sample(sample);
        }
        fn on_finish(&mut self, summary: &RunSummary) {
            self.0.lock().unwrap().on_finish(summary);
        }
    }
    let state = Arc::new(Mutex::new(Counter {
        started: 0,
        samples: Vec::new(),
        finished: 0,
    }));
    let mut spec = engine::scenario("thermal_noise", Scale::Smoke).unwrap();
    spec.n_steps = 7;
    let mut session = engine::start(&spec, Backend::Traditional1D).unwrap();
    session.attach_observers(vec![Box::new(Shared(state.clone()))]);
    session.run_to_end();
    session.finish();
    let counter = state.lock().unwrap();
    assert_eq!(counter.started, 1);
    assert_eq!(counter.finished, 1);
    assert_eq!(counter.samples, (0..=7).collect::<Vec<_>>());
}

#[test]
fn two_stream_grows_on_the_traditional_backend() {
    // Physics through the facade: the instability must develop and the
    // growth-rate fit must surface through the engine's Result API.
    let mut spec = engine::scenario("two_stream", Scale::Smoke).unwrap();
    spec.n_steps = 120;
    let summary = engine::run(&spec, Backend::Traditional1D).unwrap();
    let e1 = summary.history.mode_series(1).unwrap();
    let start = e1.values[0].max(1e-12);
    let peak = e1.values.iter().copied().fold(0.0f64, f64::max);
    assert!(peak / start > 5.0, "no growth: {start} -> {peak}");
    // The fit either succeeds or reports a typed reason — never panics.
    match summary.growth_rate(1) {
        Ok(fit) => assert!(fit.gamma > 0.0),
        Err(e) => panic!("expected a growth fit, got: {e}"),
    }
}

/// A model made in memory with non-finite weights never reached the
/// file door's check; its freeze makes the same one, so every `Dl1D`
/// start refuses it by name. Other backends still run.
#[test]
fn a_non_finite_model_is_refused_at_dl_start() {
    use dlpic_repro::core::{BinningShape, BundleError, ModelBundle, NormStats};
    use dlpic_repro::engine::{Engine, EngineError};
    let arch = Scale::Smoke.mlp_arch();
    let mut net = arch.build(1);
    let mut first = true;
    net.visit_params(&mut |w, _| {
        if std::mem::take(&mut first) {
            w[0] = f32::NAN;
            w[1] = f32::INFINITY;
        }
    });
    let bundle = ModelBundle::from_network(
        &mut net,
        arch,
        Scale::Smoke.phase_spec(),
        BinningShape::Cic,
        NormStats::identity(),
    );
    let spec = engine::scenario("two_stream", Scale::Smoke).unwrap();
    let engine = Engine::new().with_model_1d(bundle);
    match engine.start(&spec, Backend::Dl1D).err() {
        Some(EngineError::Bundle(BundleError::Malformed("non-finite parameter"))) => {}
        other => panic!("expected the non-finite parameter refusal, got {other:?}"),
    }
    assert!(engine.start(&spec, Backend::Traditional1D).is_ok());
}
