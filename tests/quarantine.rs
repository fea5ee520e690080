//! Quarantine on the monolithic step path: backends whose solve does not
//! split (`Traditional1D`, `Vlasov`) step through `Session::step` alone,
//! so an injected panic or NaN must quarantine exactly the sick run there
//! too — with the same fault kinds and history lengths as the phase-split
//! `Dl1D` path — while its neighbours reproduce their solo runs bit for
//! bit.

use dlpic_repro::core::Scale;
use dlpic_repro::engine::{
    scenario, Backend, EnergyHistory, Engine, EngineError, FaultKind, FaultPlan, RunSummary,
    SessionFault, SweepSpec,
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

/// Runs the sweep on `backend` with `kind@at_step` injected into the
/// `v0=0.14` member; asserts that member alone faults and returns the
/// fault, the summaries and the solo histories.
fn faulted_fleet(
    backend: Backend,
    kind: FaultKind,
    at_step: usize,
) -> (SessionFault, Vec<RunSummary>, Vec<EnergyHistory>) {
    let solo = solo_histories(backend);
    let plan = FaultPlan::new().rule("v0=0.14", kind, at_step);
    let mut fleet = Engine::new()
        .with_faults(plan)
        .start_ensemble(&sweep().specs().unwrap(), backend)
        .unwrap();
    assert!(
        fleet.session_mut(1).batched_infer_shape().is_none(),
        "{backend} must step through Session::step"
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
    let summaries = fleet.finish();
    // The healthy neighbours are bit-identical to solo execution.
    assert_eq!(summaries[0].history, solo[0], "{backend}: run 0");
    assert_eq!(summaries[2].history, solo[2], "{backend}: run 2");
    (fault, summaries, solo)
}

fn check_panic(backend: Backend) {
    let (fault, summaries, solo) = faulted_fleet(backend, FaultKind::Panic, 5);
    assert!(
        matches!(fault, SessionFault::Panicked { .. }),
        "{backend}: {fault:?}"
    );
    // The sick run keeps the rows of the five steps before the panic.
    let sick = &summaries[1].history;
    assert!(!sick.is_empty());
    assert!(sick.len() < solo[1].len());
    assert_eq!(sick.len(), 5, "{backend}");
}

fn check_nan(backend: Backend) {
    let (fault, summaries, solo) = faulted_fleet(backend, FaultKind::NanField, 10);
    let SessionFault::Diverged { step, diagnostic } = &fault else {
        panic!("{backend}: expected divergence, got {fault}");
    };
    assert_eq!(*step, 10, "{backend}");
    assert!(diagnostic.contains("field energy"), "{diagnostic}");
    // Quarantine freezes the run just before the first bad row.
    let sick = &summaries[1].history;
    assert_eq!(sick.len(), *step);
    assert!(sick.len() < solo[1].len());
    for (i, v) in sick.field.iter().enumerate() {
        assert!(
            v.is_finite(),
            "{backend}: preserved row {i} must stay clean"
        );
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
