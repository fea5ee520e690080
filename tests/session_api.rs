//! Session-API integration tests: step-wise runs reproduce `Engine::run`
//! exactly, checkpoint/resume round-trips continue every backend's
//! trajectory, lockstep comparison preserves each backend's physics, and
//! the early-stop controller truncates consistently.

use dlpic_repro::core::Scale;
use dlpic_repro::engine::{
    self, compare, Backend, Checkpoint, EnergyHistory, Engine, EngineError, Observer, Sample,
    ScenarioSpec,
};

/// Largest |a − b| over paired series, normalized by the peak |a|.
fn max_rel_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "series lengths differ");
    let peak = a.iter().fold(0.0f64, |m, v| m.max(v.abs())).max(1e-300);
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0f64, f64::max)
        / peak
}

/// Asserts two histories describe the same physics. `tol == 0.0` demands
/// f64 equality (the deterministic-solver case); otherwise residuals are
/// bounded by `tol` of each series' peak.
fn assert_histories_match(a: &EnergyHistory, b: &EnergyHistory, tol: f64, what: &str) {
    if tol == 0.0 {
        assert_eq!(a, b, "{what}: histories differ");
        return;
    }
    assert_eq!(a.times, b.times, "{what}: time grids differ");
    for (name, x, y) in [
        ("kinetic", &a.kinetic, &b.kinetic),
        ("field", &a.field, &b.field),
        ("total", &a.total, &b.total),
        ("momentum", &a.momentum, &b.momentum),
    ] {
        let diff = max_rel_diff(x, y);
        assert!(diff <= tol, "{what}: {name} residual {diff:.3e} > {tol:e}");
    }
    for (slot, (x, y)) in a.mode_amps.iter().zip(&b.mode_amps).enumerate() {
        let diff = max_rel_diff(x, y);
        assert!(
            diff <= tol,
            "{what}: mode slot {slot} residual {diff:.3e} > {tol:e}"
        );
    }
}

fn small_spec(name: &str, n_steps: usize) -> ScenarioSpec {
    let mut spec = engine::scenario(name, Scale::Smoke).unwrap();
    spec.n_steps = n_steps;
    spec
}

#[test]
fn stepwise_session_reproduces_engine_run_exactly() {
    let spec = small_spec("two_stream", 20);
    let via_run = engine::run(&spec, Backend::Traditional1D).unwrap();

    let mut session = engine::start(&spec, Backend::Traditional1D).unwrap();
    assert_eq!(session.steps_done(), 0);
    assert_eq!(session.remaining(), 20);
    let mut steps_seen = Vec::new();
    while !session.is_complete() {
        steps_seen.push(session.step().expect("healthy step").step);
    }
    assert_eq!(steps_seen, (0..20).collect::<Vec<_>>());
    let via_session = session.finish();

    assert_eq!(via_run.history, via_session.history);
    assert_eq!(via_run.steps, via_session.steps);
    assert_eq!(via_run.t_end, via_session.t_end);
    let (pa, pb) = (
        via_run.phase_space.as_ref().unwrap(),
        via_session.phase_space.as_ref().unwrap(),
    );
    assert_eq!(pa.x, pb.x);
    assert_eq!(pa.v, pb.v);
}

#[test]
fn session_sample_peeks_the_final_row() {
    // Every backend family, and the tracked-mode amplitudes too: the row
    // `sample()` peeks is the row `finish()` records, bit for bit.
    let mut spec_2d = small_spec("two_stream_2d", 4);
    spec_2d.ppc = 4;
    let cases = [
        (small_spec("two_stream", 6), Backend::Traditional1D),
        (small_spec("bump_on_tail", 6), Backend::Traditional1D),
        (small_spec("two_stream", 6), Backend::Dl1D),
        (spec_2d.clone(), Backend::Traditional2D),
        (spec_2d, Backend::Dl2D),
        (small_spec("two_stream", 6), Backend::Vlasov),
        (small_spec("two_stream", 6), Backend::Ddecomp { n_ranks: 4 }),
    ];
    for (spec, backend) in cases {
        let what = format!("{} on {backend}", spec.name);
        let mut session = engine::start(&spec, backend).unwrap();
        session.run_to_end();
        let peek = session.sample();
        let summary = session.finish();
        let h = &summary.history;
        assert!(!spec.tracked_modes.is_empty(), "{what}");
        assert_eq!(peek.step, spec.n_steps, "{what}");
        assert_eq!(h.len(), spec.n_steps + 1, "{what}");
        let last = h.len() - 1;
        let bits = |v: f64| v.to_bits();
        assert_eq!(bits(peek.time), bits(h.times[last]), "{what}: time");
        assert_eq!(bits(peek.kinetic), bits(h.kinetic[last]), "{what}: kinetic");
        assert_eq!(bits(peek.field), bits(h.field[last]), "{what}: field");
        assert_eq!(
            bits(peek.momentum),
            bits(h.momentum[last]),
            "{what}: momentum"
        );
        assert_eq!(bits(peek.total()), bits(h.total[last]), "{what}: total");
        let amps: Vec<u64> = h.mode_amps.iter().map(|s| bits(s[last])).collect();
        let peeked: Vec<u64> = peek.mode_amps.iter().map(|&a| bits(a)).collect();
        assert_eq!(peeked, amps, "{what}: mode amplitudes");
    }
}

/// The checkpoint/resume contract, exercised for one backend: run
/// straight to `n`; run `k` steps, checkpoint through the JSON text form,
/// resume in a fresh engine, continue to `n`; the two histories (and
/// final phase spaces) must agree to `tol` (0 = identical f64s).
fn check_roundtrip(spec: &ScenarioSpec, backend: Backend, k: usize, tol: f64) {
    let engine = Engine::new();

    let mut straight = engine.start(spec, backend).unwrap();
    straight.run_to_end();
    let straight = straight.finish();

    let mut first_leg = engine.start(spec, backend).unwrap();
    for _ in 0..k {
        first_leg.step();
    }
    let text = first_leg.checkpoint().to_json();
    drop(first_leg); // the resumed leg must not depend on the original

    let checkpoint = Checkpoint::from_json(&text).unwrap();
    assert_eq!(checkpoint.steps_done, k);
    assert_eq!(checkpoint.backend, backend);
    assert_eq!(&checkpoint.spec, spec);
    let mut resumed = engine.resume(&checkpoint).unwrap();
    assert_eq!(resumed.steps_done(), k);
    assert_eq!(resumed.history().len(), k);
    resumed.run_to_end();
    let resumed = resumed.finish();

    let what = format!("{} on {backend} resumed at {k}", spec.name);
    assert_eq!(straight.history.len(), spec.n_steps + 1, "{what}");
    assert_histories_match(&straight.history, &resumed.history, tol, &what);
    match (&straight.phase_space, &resumed.phase_space) {
        (Some(a), Some(b)) if tol == 0.0 => {
            assert_eq!(a.x, b.x, "{what}: positions diverged");
            assert_eq!(a.v, b.v, "{what}: velocities diverged");
        }
        _ => {}
    }
    for (key, val) in &straight.extras {
        assert_eq!(
            Some(*val),
            resumed.extra(key),
            "{what}: extra `{key}` diverged"
        );
    }
}

// Every backend steps deterministically and the JSON layer round-trips
// finite f64 state bit-exactly, so resumed runs are *identical*, not just
// close — asserted with tol = 0.0 throughout.

#[test]
fn checkpoint_roundtrip_traditional_1d() {
    check_roundtrip(
        &small_spec("two_stream", 16),
        Backend::Traditional1D,
        7,
        0.0,
    );
}

#[test]
fn checkpoint_roundtrip_dl_1d() {
    check_roundtrip(&small_spec("two_stream", 12), Backend::Dl1D, 5, 0.0);
}

#[test]
fn checkpoint_roundtrip_bump_on_tail_needs_no_placeholder_init() {
    // The load `TwoStreamInit` cannot express: the multi-beam path.
    check_roundtrip(
        &small_spec("bump_on_tail", 12),
        Backend::Traditional1D,
        6,
        0.0,
    );
}

#[test]
fn checkpoint_roundtrip_traditional_2d() {
    let mut spec = small_spec("two_stream_2d", 8);
    spec.ppc = 4;
    check_roundtrip(&spec, Backend::Traditional2D, 3, 0.0);
}

#[test]
fn checkpoint_roundtrip_dl_2d() {
    let mut spec = small_spec("two_stream_2d", 6);
    spec.ppc = 4;
    check_roundtrip(&spec, Backend::Dl2D, 2, 0.0);
}

#[test]
fn checkpoint_roundtrip_vlasov() {
    check_roundtrip(&small_spec("two_stream", 14), Backend::Vlasov, 6, 0.0);
}

#[test]
fn checkpoint_roundtrip_ddecomp() {
    check_roundtrip(
        &small_spec("two_stream", 16),
        Backend::Ddecomp { n_ranks: 4 },
        9,
        0.0,
    );
}

/// Cuts the last element off the JSON array keyed `key` in a pretty
/// checkpoint document (one element per line, as `to_json` writes them).
fn truncate_array(text: &str, key: &str) -> String {
    let open = text
        .find(&format!("\"{key}\": ["))
        .unwrap_or_else(|| panic!("no `{key}` array in the state"));
    let close = open + text[open..].find(']').unwrap();
    let last_comma = text[..close].rfind(',').unwrap();
    assert!(last_comma > open, "`{key}` holds fewer than two values");
    format!("{}{}", &text[..last_comma], &text[close..])
}

/// `text` with the first value of its `key` array replaced by `value`.
fn set_first(text: &str, key: &str, value: &str) -> String {
    let pattern = format!("\"{key}\": [");
    assert_eq!(
        text.matches(&pattern).count(),
        1,
        "`{key}` is not one array"
    );
    let start = text.find(&pattern).unwrap() + pattern.len();
    let end = start + text[start..].find([',', ']']).unwrap();
    format!("{}{value}{}", &text[..start], &text[end..])
}

fn expect_checkpoint_error(result: Result<engine::Session, EngineError>, case: &str) {
    match result {
        Err(EngineError::Checkpoint { .. }) => {}
        Err(other) => panic!("{case}: expected a checkpoint error, got {other}"),
        Ok(_) => panic!("{case}: mismatched checkpoint was accepted"),
    }
}

#[test]
fn checkpoint_rejects_state_spec_mismatches() {
    // The same mismatches in both dimensions: `(spec, backend, solver
    // name, last field component)`. Every one must be a typed
    // `EngineError::Checkpoint`, never a panic in `restore_state`.
    let mut spec_2d = small_spec("two_stream_2d", 8);
    spec_2d.ppc = 4;
    let cases = [
        (
            small_spec("two_stream", 8),
            Backend::Traditional1D,
            "traditional",
            "e",
            &["x"][..],
        ),
        (
            spec_2d,
            Backend::Traditional2D,
            "traditional-2d",
            "ey",
            &["x", "y"][..],
        ),
    ];
    for (spec, backend, solver, field, positions) in cases {
        let mut session = engine::start(&spec, backend).unwrap();
        session.step();
        let mut checkpoint = session.checkpoint();

        // A different particle count than the state was taken from.
        checkpoint.spec.ppc += 2;
        expect_checkpoint_error(
            Engine::new().resume(&checkpoint),
            &format!("{backend}: particle count"),
        );

        // A field array shorter than the grid.
        let text = session.checkpoint().to_json();
        let short = Checkpoint::from_json(&truncate_array(&text, field)).unwrap();
        expect_checkpoint_error(
            Engine::new().resume(&short),
            &format!("{backend}: truncated `{field}`"),
        );

        // A corrupted header clock that disagrees with the state is refused.
        let mut skewed = session.checkpoint();
        skewed.time += 0.5;
        expect_checkpoint_error(
            Engine::new().resume(&skewed),
            &format!("{backend}: skewed clock"),
        );

        // A checkpoint taken with a different field solver is refused — a DL
        // run resumed in an engine without its model would otherwise
        // silently continue on the untrained fallback.
        let tampered = text.replace(
            &format!("\"solver\": \"{solver}\""),
            "\"solver\": \"dl-mlp\"",
        );
        assert_ne!(text, tampered, "solver fingerprint missing from the state");
        let foreign = Checkpoint::from_json(&tampered).unwrap();
        match Engine::new().resume(&foreign) {
            Err(EngineError::Checkpoint { what }) => {
                assert!(what.contains("dl-mlp"), "unhelpful message: {what}")
            }
            Err(other) => panic!("expected a checkpoint error, got {other}"),
            Ok(_) => panic!("foreign-solver checkpoint was accepted"),
        }

        // A particle outside the box, on either side or far out, is
        // refused by name and index (the particle kernels' fast path
        // assumes `0 ≤ x < L`).
        for column in positions {
            for value in ["-5.0", "1e300", "-1e300", "123456.0"] {
                let moved = Checkpoint::from_json(&set_first(&text, column, value)).unwrap();
                match Engine::new().resume(&moved) {
                    Err(EngineError::Checkpoint { what }) => assert!(
                        what.contains(&format!("`{column}`")) && what.contains("index 0"),
                        "{backend}: unhelpful message: {what}"
                    ),
                    Err(other) => panic!("{backend}: expected a checkpoint error, got {other}"),
                    Ok(_) => panic!("{backend}: {column}[0] = {value} was accepted"),
                }
            }
        }
    }

    // Garbage text and wrong formats are typed errors, not panics.
    assert!(Checkpoint::from_json("not json").is_err());
    assert!(Checkpoint::from_json("{\"format\": \"other\"}").is_err());
}

/// The span of the first value of rank `rank`'s `x` array in a pretty
/// Ddecomp checkpoint document.
fn rank_first_x(text: &str, rank: usize) -> std::ops::Range<usize> {
    let pattern = "\"x\": [";
    let (at, _) = text
        .match_indices(pattern)
        .nth(rank)
        .unwrap_or_else(|| panic!("no `x` array for rank {rank}"));
    let start = at + pattern.len();
    start..start + text[start..].find([',', ']']).unwrap()
}

#[test]
fn ddecomp_checkpoint_rejects_out_of_slab_particles() {
    // Each rank's slab kernels index only its own cells, so a particle
    // outside the box, or inside the other rank's slab, must be refused
    // by rank and index instead of panicking on the first step.
    let spec = small_spec("two_stream", 8);
    let mut session = engine::start(&spec, Backend::Ddecomp { n_ranks: 2 }).unwrap();
    session.step();
    let text = session.checkpoint().to_json();
    let first = rank_first_x(&text, 0);
    let neighbour = text[rank_first_x(&text, 1)].trim().to_string();
    for value in ["-5.0", "1e300", "-1e300", "123456.0", neighbour.as_str()] {
        let moved = format!("{}{value}{}", &text[..first.start], &text[first.end..]);
        match Engine::new().resume(&Checkpoint::from_json(&moved).unwrap()) {
            Err(EngineError::Checkpoint { what }) => assert!(
                what.contains("rank 0") && what.contains("index 0"),
                "unhelpful message: {what}"
            ),
            Err(other) => panic!("expected a checkpoint error, got {other}"),
            Ok(_) => panic!("rank 0's x[0] = {value} was accepted"),
        }
    }
}

#[test]
fn lockstep_comparison_preserves_each_backends_physics() {
    let spec = small_spec("two_stream", 15);
    let report = compare::lockstep(&spec, &[Backend::Traditional1D, Backend::Dl1D]).unwrap();

    assert_eq!(report.scenario, "two_stream");
    assert_eq!(report.reference, "traditional-1d");
    assert_eq!(report.times.len(), spec.n_steps + 1);
    assert_eq!(report.summaries.len(), 2);
    assert_eq!(report.diffs.len(), 1);

    // Lockstep must not perturb either backend: each summary is
    // bit-identical to running that backend alone.
    let solo_trad = engine::run(&spec, Backend::Traditional1D).unwrap();
    let solo_dl = engine::run(&spec, Backend::Dl1D).unwrap();
    assert_eq!(
        report.summary("traditional-1d").unwrap().history,
        solo_trad.history
    );
    assert_eq!(report.summary("dl-1d").unwrap().history, solo_dl.history);

    // Residuals cover every recorded row and are finite; the residuals
    // recompute from the two histories.
    let diff = report.diff("dl-1d").unwrap();
    assert_eq!(diff.total_energy_rel.len(), spec.n_steps + 1);
    assert!(diff.total_energy_rel.iter().all(|v| v.is_finite()));
    for (i, (a, b)) in solo_trad
        .history
        .momentum
        .iter()
        .zip(&solo_dl.history.momentum)
        .enumerate()
    {
        assert_eq!(diff.momentum_abs[i], (a - b).abs(), "row {i}");
    }
    assert!(diff.max_total_energy_rel().is_finite());
    assert!(diff.max_mode_amp_abs(0).is_some());
    assert!(diff.max_mode_amp_abs(99).is_none());

    // Growth rates are queryable per backend (Table 1's comparison).
    assert_eq!(report.growth_rates(1).len(), 2);
}

#[test]
fn lockstep_rejects_degenerate_inputs() {
    let spec = small_spec("two_stream", 5);
    assert!(compare::lockstep(&spec, &[]).is_err());
    assert!(compare::lockstep(&spec, &[Backend::Traditional1D]).is_err());
    // Incompatible pairings surface the backend's own error.
    let spec_2d = small_spec("two_stream_2d", 5);
    assert!(compare::lockstep(&spec_2d, &[Backend::Traditional2D, Backend::Vlasov]).is_err());
}

#[test]
fn run_until_stops_early_and_summarizes_consistently() {
    let mut spec = small_spec("two_stream", 120);
    spec.seed = 20210705;
    let mut session = engine::start(&spec, Backend::Traditional1D).unwrap();
    // Smoke-scale shot noise puts the E1 floor within ~a decade of
    // saturation (peak/floor ≈ 14 for this seed), so stop at 8× — far
    // above noise wiggle, comfortably below the run's peak.
    let e1_floor = session.sample().mode_amps[0];
    let stopped = session.run_until(|sample| sample.mode_amps[0] > 8.0 * e1_floor);
    assert!(stopped, "two-stream growth never crossed the threshold");
    let steps = session.steps_done();
    assert!(
        (1..spec.n_steps).contains(&steps),
        "expected an early stop, ran {steps}"
    );
    let summary = session.finish();
    assert_eq!(summary.steps, steps);
    assert_eq!(summary.history.len(), steps + 1);
    assert!(summary.all_finite());

    // A predicate that never fires runs to the configured end.
    let mut session = engine::start(&small_spec("two_stream", 9), Backend::Traditional1D).unwrap();
    assert!(!session.run_until(|_| false));
    assert_eq!(session.steps_done(), 9);
}

#[test]
fn sessions_stream_to_attached_observers() {
    // Arc<Mutex<…>>: observers are Send (sessions can cross threads).
    use std::sync::{Arc, Mutex};

    #[derive(Default)]
    struct Log {
        started: usize,
        steps: Vec<usize>,
        finished: usize,
    }
    struct Shared(Arc<Mutex<Log>>);
    impl Observer for Shared {
        fn on_start(&mut self, _spec: &ScenarioSpec, _backend: &Backend) {
            self.0.lock().unwrap().started += 1;
        }
        fn on_sample(&mut self, sample: &Sample) {
            self.0.lock().unwrap().steps.push(sample.step);
        }
        fn on_finish(&mut self, _summary: &dlpic_repro::engine::RunSummary) {
            self.0.lock().unwrap().finished += 1;
        }
    }

    let log = Arc::new(Mutex::new(Log::default()));
    let spec = small_spec("thermal_noise", 5);
    let mut session = engine::start(&spec, Backend::Traditional1D).unwrap();
    session.attach_observers(vec![Box::new(Shared(log.clone()))]);
    session.run_to_end();
    session.finish();
    let log = log.lock().unwrap();
    assert_eq!(log.started, 1);
    assert_eq!(log.finished, 1);
    assert_eq!(log.steps, (0..=5).collect::<Vec<_>>());
}

#[test]
fn registry_names_are_enumerable_for_callers() {
    let names = engine::names();
    assert!(names.contains(&"two_stream"));
    // The unknown-scenario error carries the same list as suggestions.
    match engine::scenario("tokamak", Scale::Smoke) {
        Err(EngineError::UnknownScenario { known, .. }) => assert_eq!(known, names.to_vec()),
        other => panic!("unexpected: {other:?}"),
    }
}

/// `Checkpoint::write_file` / `read_file` carry the atomic tmp+rename
/// persistence discipline the serve spool and the saturation example
/// rely on: a resumed run from the on-disk file is bit-identical, and no
/// `.tmp` sibling outlives the write.
#[test]
fn checkpoint_file_roundtrip_is_atomic_and_exact() {
    let engine = Engine::new();
    let spec = small_spec("two_stream", 12);

    let mut straight = engine.start(&spec, Backend::Dl1D).unwrap();
    straight.run_to_end();
    let straight = straight.finish();

    let mut session = engine.start(&spec, Backend::Dl1D).unwrap();
    for _ in 0..5 {
        session.step();
    }
    let dir = std::env::temp_dir();
    let path = dir.join(format!("dlpic-ckpt-{}.json", std::process::id()));
    session.checkpoint().write_file(&path).unwrap();
    drop(session);

    let mut tmp = path.clone().into_os_string();
    tmp.push(".tmp");
    assert!(
        !std::path::Path::new(&tmp).exists(),
        "temp file must be renamed away"
    );

    let checkpoint = Checkpoint::read_file(&path).unwrap();
    assert_eq!(checkpoint.steps_done, 5);
    assert_eq!(&checkpoint.spec, &spec);
    let mut resumed = engine.resume(&checkpoint).unwrap();
    resumed.run_to_end();
    let resumed = resumed.finish();
    assert_histories_match(
        &straight.history,
        &resumed.history,
        0.0,
        "file-resumed dl-1d run",
    );
    std::fs::remove_file(&path).unwrap();

    // A missing file surfaces as an error, not a panic.
    assert!(Checkpoint::read_file(dir.join("dlpic-no-such-checkpoint.json")).is_err());
}

/// Every series of a history as bit patterns, so `-0.0` and `+0.0` (or
/// two NaNs) cannot compare equal by value.
fn history_bits(h: &EnergyHistory) -> Vec<u64> {
    [&h.times, &h.kinetic, &h.field, &h.total, &h.momentum]
        .into_iter()
        .chain(&h.mode_amps)
        .flatten()
        .map(|v| v.to_bits())
        .collect()
}

/// A paper-scale DL session (64 000 particles, the 25 MB MLP; the
/// untrained fallback is enough) splits its fused push and its NGP
/// phase-space binning into two parts each and every one-row pass of its
/// large layers into column windows, one per team member: its history is
/// the same bits with one member, two or three allowed, and through the
/// phase-split path.
#[test]
fn paper_scale_dl_history_is_the_same_at_any_team_size() {
    use dlpic_repro::core::pool;
    let mut spec = engine::scenario("two_stream", Scale::Paper).expect("registry");
    spec.n_steps = 3;
    let mut engine = Engine::new();
    let mut run = |limit| {
        pool::with_limit(limit, || {
            engine
                .run(&spec, Backend::Dl1D)
                .expect("paper-scale DL run")
                .history
        })
    };
    let one = history_bits(&run(1));
    for limit in [2, 3] {
        assert_eq!(history_bits(&run(limit)), one, "limit {limit}");
    }

    let mut split = engine.start(&spec, Backend::Dl1D).expect("start");
    let (in_w, out_w) = split.batched_infer_shape().expect("phase-split");
    let (mut input, mut output) = (vec![0.0f32; in_w], vec![0.0f32; out_w]);
    while !split.is_complete() {
        split.step_prepare(&mut input);
        split.infer_batch(&input, 1, &mut output);
        split.step_apply(&output);
    }
    assert_eq!(history_bits(&split.finish().history), one, "phase split");
}

/// A paper-scale 1-D traditional run (64 000 particles, CIC on 64 nodes)
/// and a scaled 2-D one (65 536 particles on 32×32 nodes) split their
/// fused push and charge deposit over the worker team while
/// `Engine::run` holds it: the later push part continues the first
/// part's diagnostic sums, and each deposit part adds the terms of one
/// node parity. Their histories are the same bits with one member, two
/// or three allowed.
#[test]
fn paper_scale_traditional_history_is_the_same_at_any_team_size() {
    use dlpic_repro::core::pool;
    let one_d = engine::scenario("two_stream", Scale::Paper).expect("registry");
    let mut two_d = engine::scenario("two_stream_2d", Scale::Scaled).expect("registry");
    two_d.n_steps = 40;
    let mut engine = Engine::new();
    for (spec, backend) in [
        (one_d, Backend::Traditional1D),
        (two_d, Backend::Traditional2D),
    ] {
        let mut run = |limit| {
            pool::with_limit(limit, || {
                engine
                    .run(&spec, backend)
                    .expect("large traditional run")
                    .history
            })
        };
        let one = history_bits(&run(1));
        for limit in [2, 3] {
            assert_eq!(history_bits(&run(limit)), one, "{backend}, limit {limit}");
        }
    }
}
