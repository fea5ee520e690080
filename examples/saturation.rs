//! Early stopping with the session API: run the two-stream instability
//! only until its growth saturates, then checkpoint, resume and finish —
//! the full incremental workflow in one example.
//!
//! A fixed-length run has to guess how many steps saturation needs; the
//! session's [`run_until`](dlpic_repro::engine::Session::run_until)
//! controller instead watches the live `E1` diagnostic and stops when the
//! growth stalls, and a JSON checkpoint proves the run can be cut and
//! continued anywhere without changing the physics.
//!
//! ```sh
//! cargo run --release --example saturation
//! DLPIC_SCALE=scaled cargo run --release --example saturation
//! ```

use dlpic_repro::core::Scale;
use dlpic_repro::engine::{self, Backend, Checkpoint, Engine, EngineError};

fn main() -> Result<(), EngineError> {
    let scale = Scale::from_env_or(Scale::Smoke);
    let mut spec = engine::scenario("two_stream", scale)?;
    // Give the controller headroom: saturation needs ~100 steps at this
    // box, and the point of early stopping is a generous budget.
    spec.n_steps = spec.n_steps.max(200);
    println!(
        "two_stream at {scale:?}: budget {} steps, stopping at E1 saturation\n",
        spec.n_steps
    );

    // --- Early stop: grow until E1 stalls against its running peak. ----
    let mut session = engine::start(&spec, Backend::Traditional1D)?;
    let floor = session.sample().mode_amps[0];
    let mut peak = floor;
    let mut stalled = 0usize;
    let saturated = session.run_until(|sample| {
        let e1 = sample.mode_amps[0];
        // Saturation: a decade above the noise floor and no new peak for
        // 15 consecutive steps (the nonlinear trapping plateau).
        if e1 > peak {
            peak = e1;
            stalled = 0;
        } else {
            stalled += 1;
        }
        peak > 10.0 * floor && stalled >= 15
    });
    let used = session.steps_done();

    // --- Checkpoint to disk, resume in a fresh engine, finish. ---------
    // `write_file` is atomic (tmp + rename), the same discipline the
    // dlpic-serve spool uses — a crash never leaves a half checkpoint.
    let path =
        std::env::temp_dir().join(format!("dlpic-saturation-{}.ckpt.json", std::process::id()));
    session.checkpoint().write_file(&path)?;
    drop(session);
    println!(
        "checkpointed at step {used} ({:.1} kB on disk)",
        std::fs::metadata(&path).map_or(0.0, |m| m.len() as f64) / 1024.0
    );
    let checkpoint = Checkpoint::read_file(&path)?;
    let _ = std::fs::remove_file(&path);
    let mut resumed = Engine::new().resume(&checkpoint)?;
    let summary = {
        // A short grace run past saturation shows the plateau.
        for _ in 0..10.min(resumed.remaining()) {
            resumed.step();
        }
        resumed.finish()
    };

    println!(
        "saturation {}: E1 {floor:.2e} -> {peak:.2e} in {used} steps",
        if saturated { "detected" } else { "not reached" },
    );
    println!(
        "steps saved vs fixed budget: {} of {} ({:.0}%)",
        spec.n_steps.saturating_sub(summary.steps),
        spec.n_steps,
        100.0 * spec.n_steps.saturating_sub(summary.steps) as f64 / spec.n_steps as f64
    );
    println!(
        "summary: {} samples to t = {:.1}, energy variation {:.2}%",
        summary.history.len(),
        summary.t_end,
        summary.energy_variation() * 100.0
    );
    Ok(())
}
