//! Quarantine whoever drives the run: an injected panic or NaN must
//! quarantine exactly the sick run — with the same fault, step count and
//! partial history — whether it steps alone (`Engine::start` +
//! `run_to_end`) or as a member of a fleet, where its neighbours
//! reproduce their solo runs bit for bit. The backends whose solve does
//! not split (`Traditional1D`, `Vlasov`) step through `Session::step` in
//! the fleet too; `Dl1D` steps there through the phase-split path.

use dlpic_repro::core::Scale;
use dlpic_repro::engine::{
    scenario, Backend, EnergyHistory, Engine, EngineError, FaultKind, FaultPlan, SessionFault,
    SweepSpec,
};

fn sweep() -> SweepSpec {
    SweepSpec::grid("two_stream", Scale::Smoke).axis("v0", [0.10, 0.14, 0.18])
}

fn solo_histories(backend: Backend) -> Vec<EnergyHistory> {
    sweep()
        .specs()
        .unwrap()
        .iter()
        .map(|spec| Engine::new().run(spec, backend).unwrap().history)
        .collect()
}

/// Who steps the sick run.
#[derive(Debug, Clone, Copy)]
enum Driver {
    /// A member of a three-run ensemble.
    Fleet,
    /// On its own: `Engine::start` and `Session::run_to_end`.
    Solo,
}

/// What a quarantined run is left with.
#[derive(Debug)]
struct Sick {
    fault: SessionFault,
    steps_done: usize,
    history: EnergyHistory,
}

/// Runs the sweep's `v0=0.14` member on `backend` with `kind@at_step`
/// injected, driven by `driver`; asserts that run alone faults and
/// returns what it is left with. `solo` are the sweep's healthy runs.
fn sick_run(
    backend: Backend,
    kind: FaultKind,
    at_step: usize,
    driver: Driver,
    solo: &[EnergyHistory],
) -> Sick {
    let engine = Engine::new().with_faults(FaultPlan::new().rule("v0=0.14", kind, at_step));
    let specs = sweep().specs().unwrap();
    match driver {
        Driver::Fleet => {
            let mut fleet = engine.start_ensemble(&specs, backend).unwrap();
            assert_eq!(
                fleet.session_mut(1).batched_infer_shape().is_some(),
                backend == Backend::Dl1D,
                "{backend}: only DL steps through the phase-split path"
            );
            fleet.run_to_end(1);
            assert!(fleet.is_complete(), "faulted fleet must still terminate");
            let faults = fleet.faults();
            assert_eq!(
                faults.len(),
                1,
                "{backend}: exactly the injected run faults"
            );
            assert_eq!(faults[0].0, 1, "{backend}");
            let fault = faults[0].1.clone();
            let steps_done = fleet.sessions()[1].steps_done();
            let mut summaries = fleet.finish();
            // The healthy neighbours are bit-identical to solo execution.
            assert_eq!(summaries[0].history, solo[0], "{backend}: run 0");
            assert_eq!(summaries[2].history, solo[2], "{backend}: run 2");
            Sick {
                fault,
                steps_done,
                history: summaries.swap_remove(1).history,
            }
        }
        Driver::Solo => {
            let mut session = engine.start(&specs[1], backend).unwrap();
            session.run_to_end();
            let fault = session
                .fault()
                .cloned()
                .expect("the sick run is quarantined");
            let steps_done = session.steps_done();
            // A quarantined session never steps again.
            assert!(session.step().is_none(), "{backend}");
            assert_eq!(session.steps_done(), steps_done, "{backend}");
            Sick {
                fault,
                steps_done,
                history: session.finish().history,
            }
        }
    }
}

/// The sick run under both drivers; asserts they leave it in the same
/// state and returns it with the length of its healthy history.
fn sick_under_both_drivers(backend: Backend, kind: FaultKind, at_step: usize) -> (Sick, usize) {
    let solo = solo_histories(backend);
    let fleet = sick_run(backend, kind, at_step, Driver::Fleet, &solo);
    let alone = sick_run(backend, kind, at_step, Driver::Solo, &solo);
    assert_eq!(alone.fault, fleet.fault, "{backend}");
    assert_eq!(alone.steps_done, fleet.steps_done, "{backend}");
    assert_eq!(alone.history, fleet.history, "{backend}");
    (fleet, solo[1].len())
}

fn check_panic(backend: Backend) {
    let (sick, healthy_len) = sick_under_both_drivers(backend, FaultKind::Panic, 5);
    assert!(
        matches!(sick.fault, SessionFault::Panicked { .. }),
        "{backend}: {:?}",
        sick.fault
    );
    // The panic fires before step 5 advances: the run keeps the rows of
    // the five steps before it.
    assert_eq!(sick.steps_done, 5, "{backend}");
    assert_eq!(sick.history.len(), 5, "{backend}");
    assert!(sick.history.len() < healthy_len);
}

fn check_nan(backend: Backend) {
    let (sick, healthy_len) = sick_under_both_drivers(backend, FaultKind::NanField, 10);
    let SessionFault::Diverged { step, diagnostic } = &sick.fault else {
        panic!("{backend}: expected divergence, got {}", sick.fault);
    };
    assert_eq!(*step, 10, "{backend}");
    assert!(diagnostic.contains("field energy"), "{diagnostic}");
    // Quarantine freezes the run just before the first bad row: step 10
    // completed, its row was dropped.
    assert_eq!(sick.steps_done, 11, "{backend}");
    assert_eq!(sick.history.len(), *step);
    assert!(sick.history.len() < healthy_len);
    for (i, v) in sick.history.field.iter().enumerate() {
        assert!(
            v.is_finite(),
            "{backend}: preserved row {i} must stay clean"
        );
    }
    // The one-shot driver reports the quarantine instead of a summary.
    let spec = &sweep().specs().unwrap()[1];
    let plan = FaultPlan::new().rule("v0=0.14", FaultKind::NanField, 10);
    match Engine::new().with_faults(plan).run(spec, backend) {
        Err(err @ EngineError::Quarantined(SessionFault::Diverged { step: 10, .. })) => {
            assert!(err.to_string().contains("step 10"), "{err}");
        }
        Err(other) => panic!("{backend}: expected the quarantine, got {other}"),
        Ok(_) => panic!("{backend}: a diverged run returned a summary"),
    }
}

#[test]
fn traditional_1d_panic_is_quarantined_on_the_monolithic_path() {
    check_panic(Backend::Traditional1D);
}

#[test]
fn traditional_1d_nan_is_quarantined_on_the_monolithic_path() {
    check_nan(Backend::Traditional1D);
}

#[test]
fn vlasov_panic_is_quarantined_on_the_monolithic_path() {
    check_panic(Backend::Vlasov);
}

#[test]
fn vlasov_nan_is_quarantined_on_the_monolithic_path() {
    check_nan(Backend::Vlasov);
}

#[test]
fn dl_1d_panic_is_quarantined_alone_and_in_a_fleet() {
    check_panic(Backend::Dl1D);
}

#[test]
fn dl_1d_nan_is_quarantined_alone_and_in_a_fleet() {
    check_nan(Backend::Dl1D);
}

/// A diverged run's checkpoint holds one row fewer than its completed
/// steps (the bad row is discarded); resuming it would shift every later
/// row by one step, so resume must refuse it.
#[test]
fn quarantined_checkpoint_does_not_resume_as_a_healthy_run() {
    let specs = SweepSpec::grid("two_stream", Scale::Smoke)
        .axis("v0", [0.10, 0.14])
        .specs()
        .unwrap();
    let plan = FaultPlan::new().rule("v0=0.14", FaultKind::NanField, 5);
    let mut fleet = Engine::new()
        .with_faults(plan)
        .start_ensemble(&specs, Backend::Traditional1D)
        .unwrap();
    fleet.run_to_end(1);
    assert_eq!(fleet.faults().len(), 1);
    let checkpoints = fleet.checkpoints();
    let sick = &checkpoints[1];
    assert_eq!(sick.history.len(), 5);
    assert_eq!(sick.steps_done, 6);
    let engine = Engine::new();
    match engine.resume(sick) {
        Err(EngineError::Checkpoint { what }) => {
            assert!(what.contains("5 history rows"), "{what}");
            assert!(what.contains("6 steps"), "{what}");
        }
        Err(other) => panic!("expected a checkpoint error, got {other}"),
        Ok(_) => panic!("a quarantined run's checkpoint resumed"),
    }
    // The healthy neighbour's checkpoint still resumes and finishes whole.
    let mut healthy = engine.resume(&checkpoints[0]).unwrap();
    healthy.run_to_end();
    assert_eq!(healthy.finish().history.len(), specs[0].n_steps + 1);
}

/// A run quarantined at its first step keeps no row at all; its summary's
/// conservation figures read `NaN` instead of panicking on the empty
/// history.
#[test]
fn a_run_quarantined_at_its_first_row_summarizes_to_nan() {
    let spec = scenario("two_stream", Scale::Smoke).unwrap();
    let plan = FaultPlan::new().rule("two_stream", FaultKind::NanField, 0);
    let mut fleet = Engine::new()
        .with_faults(plan)
        .start_ensemble(&[spec], Backend::Traditional1D)
        .unwrap();
    fleet.run_to_end(1);
    let faults = fleet.faults();
    assert!(
        matches!(faults[..], [(0, SessionFault::Diverged { step: 0, .. })]),
        "{faults:?}"
    );
    let summary = &fleet.finish()[0];
    assert!(summary.history.is_empty());
    assert!(summary.energy_variation().is_nan());
    assert!(summary.momentum_drift().is_nan());
}

/// The restored rows pass the same check as a step's: a checkpoint that
/// holds a non-finite row resumes quarantined at that row, and never
/// steps.
#[test]
fn a_checkpoint_with_a_non_finite_row_resumes_quarantined() {
    let spec = scenario("two_stream", Scale::Smoke).unwrap();
    let engine = Engine::new();
    let mut session = engine.start(&spec, Backend::Traditional1D).unwrap();
    for _ in 0..6 {
        session.step().expect("healthy step");
    }
    let mut checkpoint = session.checkpoint();
    checkpoint.history.kinetic[3] = f64::INFINITY;
    let mut resumed = engine.resume(&checkpoint).unwrap();
    let Some(SessionFault::Diverged { step, diagnostic }) = resumed.fault().cloned() else {
        panic!("expected divergence, got {:?}", resumed.fault());
    };
    assert_eq!(step, 3);
    assert!(diagnostic.contains("kinetic energy is inf"), "{diagnostic}");
    assert_eq!(resumed.history().len(), 3);
    assert!(resumed.step().is_none());
    assert_eq!(resumed.steps_done(), 6);
}
