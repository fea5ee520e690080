//! Checkpoint back-compat: version-1 session checkpoints committed under
//! `tests/fixtures/`, one per backend, must keep resuming — and a fresh
//! session must keep *writing* the same document — whatever happens to the
//! code that produces and consumes them. A round-trip test cannot see a
//! writer and a reader that drift together; a committed file can.
//!
//! Each fixture is a Smoke registry spec at `ppc = 4`, checkpointed at step
//! `k` of a short run. The 2-D domain shrinks to 8 × 8 and the Vlasov and
//! ddecomp domains to 16 cells so the files stay small; the 1-D DL model
//! predicts 64 cells, so both 1-D PIC rows keep the paper's grid. The DL
//! backends run on the engine's seeded untrained fallback: no training,
//! same weights every time. The Vlasov and ddecomp rows pin those two
//! backends' own session-state encodings.
//!
//! The fixtures were recorded on x86-64 Linux; the particle loaders call
//! `sin`/`ln`, so another platform's libm may differ in the last place
//! (the same caveat as `tests/golden_histories.rs`).
//!
//! To re-record after an *intended* format change (bump
//! `CHECKPOINT_VERSION` and keep the old fixtures readable):
//! `cargo test --release --test checkpoint_compat -- --ignored regenerate`.

use dlpic_repro::core::Scale;
use dlpic_repro::engine::{self, Backend, Checkpoint, DomainSpec, Engine, ScenarioSpec};
use std::path::PathBuf;

/// One fixture: file stem, scenario, backend, the step `k` it was taken
/// at, and the run length.
type Case = (&'static str, &'static str, Backend, usize, usize);

const CASES: [Case; 6] = [
    (
        "traditional_1d",
        "two_stream",
        Backend::Traditional1D,
        5,
        12,
    ),
    ("dl_1d", "two_stream", Backend::Dl1D, 4, 10),
    (
        "traditional_2d",
        "two_stream_2d",
        Backend::Traditional2D,
        3,
        8,
    ),
    ("dl_2d", "two_stream_2d", Backend::Dl2D, 2, 6),
    ("vlasov", "two_stream", Backend::Vlasov, 3, 8),
    (
        "ddecomp",
        "two_stream",
        Backend::Ddecomp { n_ranks: 2 },
        3,
        8,
    ),
];

/// `wall_seconds` is the one field of a checkpoint that is not a function
/// of the spec; the recorder pins it and the re-encode check copies it.
const RECORDED_WALL_SECONDS: f64 = 0.125;

fn spec(scenario: &str, backend: Backend, n_steps: usize) -> ScenarioSpec {
    let mut spec = engine::scenario(scenario, Scale::Smoke).unwrap();
    spec.ppc = 4;
    spec.n_steps = n_steps;
    match &mut spec.domain {
        DomainSpec::TwoD { nx, ny, .. } => (*nx, *ny) = (8, 8),
        DomainSpec::OneD { ncells, .. }
            if matches!(backend, Backend::Vlasov | Backend::Ddecomp { .. }) =>
        {
            *ncells = 16
        }
        DomainSpec::OneD { .. } => {}
    }
    spec
}

fn fixture_path(stem: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(format!("checkpoint_v1_{stem}.json"))
}

fn read_fixture(stem: &str) -> String {
    let path = fixture_path(stem);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// A fresh session stepped to `k`, as a checkpoint.
fn checkpoint_at(spec: &ScenarioSpec, backend: Backend, k: usize) -> Checkpoint {
    let mut session = Engine::new().start(spec, backend).unwrap();
    for _ in 0..k {
        session.step();
    }
    session.checkpoint()
}

#[test]
fn committed_checkpoints_resume_bit_identically() {
    for &(stem, scenario, backend, k, n_steps) in &CASES {
        let spec = spec(scenario, backend, n_steps);
        let mut straight = Engine::new().start(&spec, backend).unwrap();
        straight.run_to_end();
        let straight = straight.finish();

        let checkpoint = Checkpoint::from_json(&read_fixture(stem)).unwrap();
        assert_eq!(checkpoint.steps_done, k, "{stem}");
        assert_eq!(checkpoint.backend, backend, "{stem}");
        assert_eq!(checkpoint.spec, spec, "{stem}");
        let mut resumed = Engine::new().resume(&checkpoint).unwrap();
        assert_eq!(resumed.steps_done(), k, "{stem}");
        resumed.run_to_end();
        let resumed = resumed.finish();

        assert_eq!(straight.history.len(), n_steps + 1, "{stem}");
        assert_eq!(straight.history, resumed.history, "{stem}: histories");
        // The continuum backend reports no particle phase space.
        assert_eq!(
            straight.phase_space.is_some(),
            resumed.phase_space.is_some(),
            "{stem}"
        );
        if let (Some(a), Some(b)) = (&straight.phase_space, &resumed.phase_space) {
            assert_eq!(a.x, b.x, "{stem}: positions");
            assert_eq!(a.v, b.v, "{stem}: velocities");
        }
    }
}

#[test]
fn fresh_sessions_reencode_the_committed_bytes() {
    for &(stem, scenario, backend, k, n_steps) in &CASES {
        let text = read_fixture(stem);
        let recorded = Checkpoint::from_json(&text).unwrap();
        let mut fresh = checkpoint_at(&spec(scenario, backend, n_steps), backend, k);
        fresh.wall_seconds = recorded.wall_seconds;
        let encoded = fresh.to_json();
        if let Some((line, (want, got))) = text
            .lines()
            .zip(encoded.lines())
            .enumerate()
            .find(|(_, (want, got))| want != got)
        {
            panic!(
                "{stem}: line {} differs\n  fixture: {want}\n  encoded: {got}",
                line + 1
            );
        }
        assert_eq!(text, encoded, "{stem}: documents differ in length");
    }
}

#[test]
#[ignore = "rewrites tests/fixtures/; run by hand after an intended format change"]
fn regenerate() {
    for &(stem, scenario, backend, k, n_steps) in &CASES {
        let mut checkpoint = checkpoint_at(&spec(scenario, backend, n_steps), backend, k);
        checkpoint.wall_seconds = RECORDED_WALL_SECONDS;
        std::fs::write(fixture_path(stem), checkpoint.to_json()).unwrap();
    }
}
