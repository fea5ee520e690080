//! The ensemble execution layer's contracts:
//!
//! * an N-run ensemble's per-run histories are **bit-identical** to N
//!   solo `Session` runs, for every backend family, at 1, 2 and 3 worker
//!   threads (batched DL inference and the worker team under the wave —
//!   a cohort cut into panels, each prepared, inferred and applied by one
//!   member — must not perturb any run's arithmetic);
//! * ensemble checkpoint/resume round-trips through the existing
//!   per-session `Checkpoint` JSON format, also when the team that
//!   resumes is not the size of the team that checkpointed;
//! * a member that panics on a helper thread, or takes the shared
//!   inference down, is quarantined alone;
//! * `SweepSpec` expands cartesian grids, explicit points and seed fans
//!   against the registry's sweepable-parameter metadata.

use dlpic_repro::core::{pool, ArchSpec, BinningShape, ModelBundle, NormStats, Scale};
use dlpic_repro::engine::{
    self, Backend, Checkpoint, EnergyHistory, Engine, FaultKind, FaultPlan, Observer, Sample,
    SessionFault, SweepSpec,
};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// A small registry scenario with a short step budget and a seed fan.
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

/// Histories of solo `Engine::run` calls over the same specs.
fn solo_histories(specs: &[engine::ScenarioSpec], backend: Backend) -> Vec<EnergyHistory> {
    specs
        .iter()
        .map(|spec| Engine::new().run(spec, backend).expect("solo run").history)
        .collect()
}

fn assert_histories_equal(context: &str, got: &[EnergyHistory], want: &[EnergyHistory]) {
    assert_eq!(got.len(), want.len(), "{context}: run count");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        // EnergyHistory PartialEq compares every f64 series exactly —
        // the bit-identity contract (finite values; -0.0 == 0.0 cannot
        // mask a sign flip in energies, which are sums of squares).
        assert_eq!(g, w, "{context}: run {i} history differs from solo");
    }
}

#[test]
fn ensemble_bit_identical_to_solo_for_every_backend_family() {
    // (scenario, backend, runs): DL 1-D gets 9 runs so the batched GEMM
    // crosses the 8-row tile boundary (one full zmm tile + a one-row
    // remainder tile); warm_two_stream has the thermal spread the
    // continuum backend needs.
    let cases: Vec<(&str, Backend, Vec<u64>)> = vec![
        ("two_stream", Backend::Traditional1D, vec![1, 2, 3]),
        ("two_stream", Backend::Dl1D, vec![1, 2, 3, 4, 5, 6, 7, 8, 9]),
        ("two_stream_2d", Backend::Traditional2D, vec![1, 2, 3]),
        ("two_stream_2d", Backend::Dl2D, vec![1, 2, 3]),
        ("warm_two_stream", Backend::Vlasov, vec![1, 2, 3]),
        ("two_stream", Backend::Ddecomp { n_ranks: 4 }, vec![1, 2, 3]),
    ];
    for (scenario, backend, seeds) in cases {
        let steps = if matches!(backend, Backend::Traditional2D | Backend::Dl2D) {
            4
        } else {
            6
        };
        let specs = fan(scenario, steps, &seeds);
        let solo = solo_histories(&specs, backend);

        for threads in [1usize, 2, 3] {
            let engine = Engine::new();
            let mut ensemble = engine
                .start_ensemble(&specs, backend)
                .expect("start ensemble");
            ensemble.run_to_end(threads);
            assert!(ensemble.is_complete());
            let summaries = ensemble.finish();
            let histories: Vec<EnergyHistory> =
                summaries.iter().map(|s| s.history.clone()).collect();
            assert_histories_equal(
                &format!("{scenario}/{backend} @ {threads} threads"),
                &histories,
                &solo,
            );
            // Phase space too, where the backend has one.
            for (i, (summary, spec)) in summaries.iter().zip(&specs).enumerate() {
                if let Some(ps) = &summary.phase_space {
                    let solo_summary = Engine::new().run(spec, backend).unwrap();
                    let solo_ps = solo_summary.phase_space.expect("solo phase space");
                    assert_eq!(ps.x, solo_ps.x, "{scenario} run {i} x");
                    assert_eq!(ps.v, solo_ps.v, "{scenario} run {i} v");
                }
            }
        }
    }
}

/// An untrained 1-D model on the smoke phase grid that is big enough
/// (≈ 0.9 M weights, 3.6 MB) for its cohorts to be cut into panels on the
/// worker team — the registry's smoke model is a few thousand weights and
/// its waves always stay on the calling thread. Garbage physics, exact
/// arithmetic: all these tests compare bits.
fn wide_bundle() -> ModelBundle {
    let spec = Scale::Smoke.phase_spec();
    let arch = ArchSpec::Mlp {
        input: spec.cells(),
        hidden: vec![1024, 600],
        output: 64,
    };
    let mut net = arch.build(7);
    ModelBundle::from_network(
        &mut net,
        arch,
        spec,
        BinningShape::Ngp,
        NormStats::identity(),
    )
}

fn wide_solo_histories(specs: &[engine::ScenarioSpec]) -> Vec<EnergyHistory> {
    let engine = Engine::new().with_model_1d(wide_bundle());
    specs
        .iter()
        .map(|spec| {
            let mut session = engine.start(spec, Backend::Dl1D).expect("start");
            session.run_to_end();
            session.finish().history
        })
        .collect()
}

/// The team under the wave, with a model big enough to be worth it: nine
/// runs (under sixteen rows: one panel, whatever the team), seventeen
/// (panels of eight and nine) and twenty-five (three panels where there
/// are three members), each at 1, 2 and 3 threads, against solo runs.
#[test]
fn fleets_through_the_team_are_bit_identical_to_solo_runs() {
    for runs in [9u64, 17, 25] {
        let seeds: Vec<u64> = (1..=runs).collect();
        let specs = fan("two_stream", 4, &seeds);
        let solo = wide_solo_histories(&specs);
        for threads in [1usize, 2, 3] {
            let engine = Engine::new().with_model_1d(wide_bundle());
            let mut ensemble = engine.start_ensemble(&specs, Backend::Dl1D).unwrap();
            ensemble.run_to_end(threads);
            assert!(ensemble.faults().is_empty());
            let got: Vec<EnergyHistory> =
                ensemble.finish().into_iter().map(|s| s.history).collect();
            assert_histories_equal(&format!("{runs} runs @ {threads} threads"), &got, &solo);
        }
    }
}

/// The kernel reads only the weight rows for which some member of a row
/// tile has a nonzero activation, so what a member's tile-mates keep live
/// must not reach its result: seventeen members whose beams sit in
/// different velocity bins (`v0` from 0.05 to 0.37 over bins 0.1 wide),
/// on one thread and on two, against their solo runs.
#[test]
fn members_with_different_occupied_bins_stay_bit_identical_to_solo_runs() {
    let v0s = (0..17).map(|i| 0.05 + 0.02 * i as f64);
    let mut specs = SweepSpec::grid("two_stream", Scale::Smoke)
        .axis("v0", v0s)
        .specs()
        .unwrap();
    for spec in &mut specs {
        spec.n_steps = 4;
    }
    let solo = wide_solo_histories(&specs);
    assert!(solo.windows(2).all(|w| w[0] != w[1]), "members must differ");
    for threads in [1usize, 2] {
        let engine = Engine::new().with_model_1d(wide_bundle());
        let mut ensemble = engine.start_ensemble(&specs, Backend::Dl1D).unwrap();
        ensemble.run_to_end(threads);
        assert!(ensemble.faults().is_empty());
        let got: Vec<EnergyHistory> = ensemble.finish().into_iter().map(|s| s.history).collect();
        assert_histories_equal(&format!("v0 fan @ {threads} threads"), &got, &solo);
    }
}

/// A checkpoint records no trace of the team that took it: waves stepped
/// on one thread resume on the whole team, and the other way round, to
/// the uninterrupted histories.
#[test]
fn checkpoints_resume_bit_identically_under_another_team_size() {
    let seeds: Vec<u64> = (1..=17).collect();
    let specs = fan("two_stream", 6, &seeds);
    let want = wide_solo_histories(&specs);
    let engine = Engine::new().with_model_1d(wide_bundle());
    for (before, after) in [(1usize, 3usize), (3, 1)] {
        let mut ensemble = engine.start_ensemble(&specs, Backend::Dl1D).unwrap();
        pool::with_limit(before, || {
            for _ in 0..3 {
                assert_eq!(ensemble.step_wave(), specs.len());
            }
        });
        let checkpoints: Vec<Checkpoint> = ensemble
            .checkpoints()
            .iter()
            .map(|c| Checkpoint::from_json(&c.to_json()).expect("checkpoint JSON round-trip"))
            .collect();
        drop(ensemble);
        let mut resumed = engine.resume_ensemble(&checkpoints).unwrap();
        resumed.run_to_end(after);
        let got: Vec<EnergyHistory> = resumed.finish().into_iter().map(|s| s.history).collect();
        assert_histories_equal(&format!("{before} → {after} threads"), &got, &want);
    }
}

/// Set by the panic hook below once the prepare-phase fault has fired.
static PREPARE_FAULT_SEEN: AtomicBool = AtomicBool::new(false);
/// How many of those fired on a team helper thread.
static PREPARE_FAULTS_ON_HELPERS: AtomicUsize = AtomicUsize::new(0);
const PREPARE_FAULT_STEP: usize = 3;

/// Holds the dispatching thread inside its panel's first prepare of the
/// faulty wave until the fault has fired — so the other panel, the faulty
/// member's, is a helper's.
struct StallDispatcher {
    dispatcher: std::thread::ThreadId,
}

impl Observer for StallDispatcher {
    fn on_sample(&mut self, sample: &Sample) {
        if sample.step == PREPARE_FAULT_STEP && std::thread::current().id() == self.dispatcher {
            let waiting = Instant::now();
            while !PREPARE_FAULT_SEEN.load(Ordering::SeqCst)
                && waiting.elapsed() < Duration::from_secs(2)
            {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }
}

/// An injected panic that lands on a *helper* during its panel's prepare
/// quarantines that one member; the survivors — of both panels — finish
/// bit-identical to their solo runs. Which member takes which panel is
/// the claiming race's to decide: the dispatcher, stalled in the first
/// panel, all but settles it, yet a dispatcher that is descheduled right
/// after publishing the wave finds the sick member's panel the only one
/// left — so the scenario is replayed until a helper has taken it; every
/// replay must contain the fault the same way wherever it fell.
#[test]
fn a_panic_on_a_helper_during_prepare_quarantines_one_member() {
    if pool::available_threads() < 2 {
        eprintln!("skipping: one core, no helper to panic on");
        return;
    }
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let message = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .unwrap_or_default();
        if message == format!("injected fault: panic at step {PREPARE_FAULT_STEP}") {
            let on_helper = std::thread::current()
                .name()
                .is_some_and(|name| name.starts_with("dlpic-team"));
            PREPARE_FAULTS_ON_HELPERS.fetch_add(usize::from(on_helper), Ordering::SeqCst);
            PREPARE_FAULT_SEEN.store(true, Ordering::SeqCst);
        }
        previous(info);
    }));

    // Seventeen runs on two members: panels of eight and nine. The sick
    // member is the last of the second panel; the first panel's leader
    // stalls the dispatcher if that is who prepares it.
    let seeds: Vec<u64> = (1..=17).collect();
    let specs = fan("two_stream", 6, &seeds);
    let solo = wide_solo_histories(&specs);
    let plan = FaultPlan::new().rule("seed=17]", FaultKind::Panic, PREPARE_FAULT_STEP);
    let engine = Engine::new().with_model_1d(wide_bundle()).with_faults(plan);
    for _attempt in 0..20 {
        PREPARE_FAULT_SEEN.store(false, Ordering::SeqCst);
        let mut fleet = engine.start_ensemble(&specs, Backend::Dl1D).unwrap();
        fleet
            .session_mut(0)
            .attach_observer(Box::new(StallDispatcher {
                dispatcher: std::thread::current().id(),
            }));
        fleet.run_to_end(2);
        assert!(fleet.is_complete());
        let faults = fleet.faults();
        assert_eq!(faults.len(), 1, "exactly the injected run faults");
        assert_eq!(faults[0].0, 16);
        assert!(matches!(faults[0].1, SessionFault::Panicked { .. }));
        let summaries = fleet.finish();
        assert_eq!(summaries[16].history.len(), PREPARE_FAULT_STEP);
        for i in 0..16 {
            assert_eq!(summaries[i].history, solo[i], "survivor {i}");
        }
        if PREPARE_FAULTS_ON_HELPERS.load(Ordering::SeqCst) > 0 {
            return;
        }
    }
    panic!("twenty replays and the injected panic never landed on a helper thread");
}

/// The shared inference of a panel (the first eight of seventeen runs)
/// goes down with its leader: that panel degrades to per-member 1-row
/// inference, the leader alone is quarantined, and the sixteen survivors
/// — now a cohort of exactly two panels — finish bit-identical to solo.
#[test]
fn a_panic_in_the_shared_inference_quarantines_its_leader_only() {
    let seeds: Vec<u64> = (1..=17).collect();
    let specs = fan("two_stream", 5, &seeds);
    let solo = wide_solo_histories(&specs);
    let plan = FaultPlan::new().rule("seed=1]", FaultKind::InferPanic, 2);
    let engine = Engine::new().with_model_1d(wide_bundle()).with_faults(plan);
    let mut fleet = engine.start_ensemble(&specs, Backend::Dl1D).unwrap();
    fleet.run_to_end(pool::available_threads());
    assert!(fleet.is_complete());
    let faults = fleet.faults();
    assert_eq!(faults.len(), 1, "exactly the leader faults");
    assert_eq!(faults[0].0, 0);
    assert!(
        matches!(faults[0].1, SessionFault::Panicked { message } if message.contains("inference panic"))
    );
    let summaries = fleet.finish();
    // Prepared (and recorded) step 2, never applied it.
    assert_eq!(summaries[0].history.len(), 3);
    for i in 1..specs.len() {
        assert_eq!(summaries[i].history, solo[i], "survivor {i}");
    }
}

#[test]
fn step_wave_batches_dl_sessions_and_counts_progress() {
    let specs = fan("two_stream", 5, &[1, 2, 3, 4]);
    let engine = Engine::new();
    let mut ensemble = engine.start_ensemble(&specs, Backend::Dl1D).unwrap();
    // Every wave advances all four unfinished runs by one step.
    for wave in 0..5 {
        assert!(!ensemble.is_complete(), "wave {wave}");
        assert_eq!(ensemble.step_wave(), 4, "wave {wave}");
    }
    assert!(ensemble.is_complete());
    assert_eq!(ensemble.step_wave(), 0);
    for (i, session) in ensemble.sessions().iter().enumerate() {
        assert_eq!(session.steps_done(), 5, "run {i}");
        // One history row per wave (the final snapshot comes at finish).
        assert_eq!(session.history().len(), 5, "run {i}");
    }
    let summaries = ensemble.finish();
    assert!(summaries.iter().all(|s| s.history.len() == 6));
    assert!(summaries.iter().all(|s| s.all_finite()));
}

#[test]
fn ensemble_checkpoints_round_trip_through_session_format() {
    let specs = fan("two_stream", 8, &[11, 12, 13]);
    let engine = Engine::new();

    // Uninterrupted reference.
    let mut straight = engine.start_ensemble(&specs, Backend::Dl1D).unwrap();
    straight.run_to_end(1);
    let want: Vec<EnergyHistory> = straight.finish().into_iter().map(|s| s.history).collect();

    // Interrupted: three waves, checkpoint, serialize through the
    // *standard per-session JSON*, resume, finish on two threads.
    let mut ensemble = engine.start_ensemble(&specs, Backend::Dl1D).unwrap();
    for _ in 0..3 {
        ensemble.step_wave();
    }
    let round_tripped: Vec<Checkpoint> = ensemble
        .checkpoints()
        .iter()
        .map(|c| Checkpoint::from_json(&c.to_json()).expect("checkpoint JSON round-trip"))
        .collect();
    drop(ensemble);
    let mut resumed = engine.resume_ensemble(&round_tripped).unwrap();
    assert!(resumed.sessions().iter().all(|s| s.steps_done() == 3));
    resumed.run_to_end(2);
    let got: Vec<EnergyHistory> = resumed.finish().into_iter().map(|s| s.history).collect();
    assert_histories_equal("dl-1d checkpoint/resume", &got, &want);
}

#[test]
fn ddecomp_ensemble_checkpoint_preserves_comm_phase_breakdown() {
    let specs = fan("two_stream", 8, &[5]);
    let backend = Backend::Ddecomp { n_ranks: 4 };
    let engine = Engine::new();

    let mut straight = engine.start_ensemble(&specs, backend).unwrap();
    straight.run_to_end(1);
    let want = straight.finish();

    let mut ensemble = engine.start_ensemble(&specs, backend).unwrap();
    for _ in 0..4 {
        ensemble.step_wave();
    }
    let checkpoints: Vec<Checkpoint> = ensemble
        .checkpoints()
        .iter()
        .map(|c| Checkpoint::from_json(&c.to_json()).unwrap())
        .collect();
    let mut resumed = engine.resume_ensemble(&checkpoints).unwrap();
    resumed.run_to_end(1);
    let got = resumed.finish();

    assert_eq!(got[0].history, want[0].history);
    // The comm totals — and with them the per-phase breakdown persisted
    // in the checkpoint (PR 4's known wart) — continue across resume.
    for key in ["comm_messages", "comm_bytes", "migrated_particles"] {
        assert_eq!(got[0].extra(key), want[0].extra(key), "{key}");
    }
    assert!(got[0].extra("comm_bytes").unwrap() > 0.0);
}

#[test]
fn ddecomp_checkpoints_without_comm_phases_still_resume() {
    // Checkpoints written before the per-phase breakdown was persisted
    // are still valid v1 documents: a missing `comm_phases` restores as
    // an empty breakdown (the old behavior), it does not reject.
    use dlpic_repro::engine::json::Json;
    let specs = fan("two_stream", 6, &[5]);
    let backend = Backend::Ddecomp { n_ranks: 4 };
    let engine = Engine::new();
    let mut ensemble = engine.start_ensemble(&specs, backend).unwrap();
    for _ in 0..2 {
        ensemble.step_wave();
    }
    let text = ensemble.checkpoints()[0].to_json();
    let mut doc = Json::parse(&text).unwrap();
    if let Json::Obj(fields) = &mut doc {
        for (key, value) in fields.iter_mut() {
            if key == "state" {
                if let Json::Obj(state_fields) = value {
                    state_fields.retain(|(k, _)| k != "comm_phases");
                }
            }
        }
    }
    let stripped = Checkpoint::from_json(&doc.to_pretty()).expect("legacy checkpoint parses");
    let mut resumed = engine.resume(&stripped).expect("legacy checkpoint resumes");
    assert_eq!(resumed.steps_done(), 2);
    resumed.run_to_end();
    let summary = resumed.finish();
    assert!(summary.all_finite());
    // Aggregate traffic still continues across the legacy resume.
    assert!(summary.extra("comm_bytes").unwrap() > 0.0);
}

#[test]
fn mixed_backend_ensembles_resume_and_schedule_together() {
    // Checkpoints from different backends resume into ONE ensemble: the
    // wave scheduler batches the DL cohort and solo-steps the rest.
    let engine = Engine::new();
    let dl_specs = fan("two_stream", 6, &[21, 22]);
    let trad_specs = fan("two_stream", 6, &[23]);

    let dl = engine.start_ensemble(&dl_specs, Backend::Dl1D).unwrap();
    let trad = engine
        .start_ensemble(&trad_specs, Backend::Traditional1D)
        .unwrap();
    let mut checkpoints = dl.checkpoints();
    checkpoints.extend(trad.checkpoints());
    drop((dl, trad));

    let mut mixed = engine.resume_ensemble(&checkpoints).unwrap();
    assert_eq!(mixed.len(), 3);
    assert_eq!(
        mixed.backends(),
        vec![Backend::Dl1D, Backend::Dl1D, Backend::Traditional1D]
    );
    mixed.run_to_end(2);
    let got: Vec<EnergyHistory> = mixed.finish().into_iter().map(|s| s.history).collect();

    let mut want = solo_histories(&dl_specs, Backend::Dl1D);
    want.extend(solo_histories(&trad_specs, Backend::Traditional1D));
    assert_histories_equal("mixed ensemble", &got, &want);
}

#[test]
fn sweep_spec_expands_grids_seed_fans_and_rejects_unknown_params() {
    // Cartesian: 3 × 2 points × 2 seeds = 12 specs, first axis slowest.
    let sweep = SweepSpec::grid("two_stream", Scale::Smoke)
        .axis("v0", [0.12, 0.16, 0.20])
        .axis("vth", [0.0, 0.01])
        .seeds([7, 8]);
    assert_eq!(sweep.len(), 12);
    let specs = sweep.specs().unwrap();
    assert_eq!(specs.len(), 12);
    assert_eq!(specs[0].name, "two_stream[v0=0.12, vth=0, seed=7]");
    assert_eq!(specs[1].seed, 8);
    assert_eq!(specs[11].name, "two_stream[v0=0.2, vth=0.01, seed=8]");
    for spec in &specs {
        spec.validate().unwrap();
        assert_eq!(spec.scale, Scale::Smoke);
    }

    // Explicit points.
    let explicit = SweepSpec::explicit(
        "bump_on_tail",
        Scale::Smoke,
        vec![
            vec![("beam_v".into(), 0.25)],
            vec![("beam_v".into(), 0.35), ("beam_fraction".into(), 0.2)],
        ],
    );
    assert_eq!(explicit.len(), 2);
    let specs = explicit.specs().unwrap();
    assert!(specs[1].name.contains("beam_fraction=0.2"));

    // Unknown parameters are rejected with the known list.
    let bad = SweepSpec::grid("two_stream", Scale::Smoke).axis("warp_factor", [9.0]);
    let err = bad.specs().unwrap_err();
    assert!(
        err.to_string().contains("not a sweepable parameter"),
        "{err}"
    );

    // Sweepable-parameter metadata is exposed per scenario.
    let params = engine::sweep_params("ion_acoustic").unwrap();
    let names: Vec<&str> = params.iter().map(|p| p.name).collect();
    assert!(names.contains(&"drift") && names.contains(&"amplitude"));
}

#[test]
fn sweep_drives_an_ensemble_end_to_end() {
    let sweep = SweepSpec::grid("two_stream", Scale::Smoke).axis("v0", [0.15, 0.2]);
    let engine = Engine::new();
    let mut ensemble = engine.start_sweep(&sweep, Backend::Traditional1D).unwrap();
    // Trim the step budget for test speed.
    assert_eq!(ensemble.len(), 2);
    ensemble.run_to_end(2);
    let summaries = ensemble.finish();
    assert!(summaries.iter().all(|s| s.all_finite()));
    assert_eq!(summaries[0].scenario, "two_stream[v0=0.15]");
    assert_eq!(summaries[1].scenario, "two_stream[v0=0.2]");
}

#[test]
fn sweep_spec_round_trips_through_json() {
    let grid = SweepSpec::grid("two_stream", Scale::Smoke)
        .axis("v0", [0.12, 0.16, 0.20])
        .axis("vth", [0.0, 0.01])
        .seeds([7, 8]);
    let back = SweepSpec::from_json_value(&grid.to_json_value()).expect("grid parses back");
    // The JSON form is the wire/spool format — expansion must be
    // unchanged by a round trip, spec for spec.
    assert_eq!(back.specs().unwrap(), grid.specs().unwrap());

    let explicit = SweepSpec::explicit(
        "bump_on_tail",
        Scale::Smoke,
        vec![
            vec![("beam_v".into(), 0.25)],
            vec![("beam_v".into(), 0.35), ("beam_fraction".into(), 0.2)],
        ],
    );
    let back = SweepSpec::from_json_value(&explicit.to_json_value()).expect("points parse back");
    assert_eq!(back.specs().unwrap(), explicit.specs().unwrap());

    // A document with neither axes nor points is rejected.
    let err = SweepSpec::from_json_value(
        &dlpic_repro::engine::json::Json::parse(r#"{"scenario":"two_stream","scale":"smoke"}"#)
            .unwrap(),
    )
    .unwrap_err();
    assert!(err.to_string().contains("axes"), "{err}");
}
