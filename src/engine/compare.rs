//! Lockstep backend comparison — the paper's figure methodology as an
//! API.
//!
//! The paper's core experiments (Figs. 4–6, Table 1) run the traditional
//! and DL field solvers on *identical initial conditions* and compare the
//! evolutions. [`lockstep`] does exactly that: it starts one
//! [`Session`] per backend on the same spec, advances them side by side,
//! and records per-step diagnostic residuals against the first backend
//! (the reference) while each run's full [`RunSummary`] is collected as
//! usual. Because every backend is driven through the same session
//! primitive, a lockstep run is bit-identical to running each backend
//! alone.

use super::error::EngineError;
use super::observer::{RunSummary, Sample};
use super::runner::Engine;
use super::session::Session;
use super::spec::ScenarioSpec;
use super::Backend;

/// Per-step residuals of one backend against the reference backend.
#[derive(Debug, Clone)]
pub struct LockstepDiff {
    /// Display name of the compared backend.
    pub backend: String,
    /// `|ΔE_total| / max(|E_total_ref|, ε)` per step — the headline
    /// conservation comparison of the paper's Fig. 5.
    pub total_energy_rel: Vec<f64>,
    /// `|ΔE_field|` per step (absolute: field energy starts near zero).
    pub field_energy_abs: Vec<f64>,
    /// `|Δp|` per step.
    pub momentum_abs: Vec<f64>,
    /// `|Δamp|` per tracked mode per step (`[mode slot][step]`).
    pub mode_amp_abs: Vec<Vec<f64>>,
}

impl LockstepDiff {
    fn new(backend: String, modes: usize) -> Self {
        Self {
            backend,
            total_energy_rel: Vec::new(),
            field_energy_abs: Vec::new(),
            momentum_abs: Vec::new(),
            mode_amp_abs: vec![Vec::new(); modes],
        }
    }

    fn push(&mut self, reference: &Sample, other: &Sample) {
        let scale = reference.total().abs().max(1e-300);
        self.total_energy_rel
            .push((other.total() - reference.total()).abs() / scale);
        self.field_energy_abs
            .push((other.field - reference.field).abs());
        self.momentum_abs
            .push((other.momentum - reference.momentum).abs());
        for (slot, (a, b)) in self
            .mode_amp_abs
            .iter_mut()
            .zip(reference.mode_amps.iter().zip(&other.mode_amps))
        {
            slot.push((b - a).abs());
        }
    }

    /// Largest relative total-energy residual over the run.
    pub fn max_total_energy_rel(&self) -> f64 {
        self.total_energy_rel.iter().copied().fold(0.0, f64::max)
    }

    /// Largest absolute mode-amplitude residual of tracked-mode slot `i`.
    pub fn max_mode_amp_abs(&self, slot: usize) -> Option<f64> {
        self.mode_amp_abs
            .get(slot)
            .map(|s| s.iter().copied().fold(0.0, f64::max))
    }
}

/// The result of a lockstep comparison: per-step residuals of every
/// non-reference backend plus the full per-backend run summaries.
#[derive(Debug, Clone)]
pub struct ComparisonReport {
    /// Scenario name.
    pub scenario: String,
    /// Display name of the reference backend (the first one passed).
    pub reference: String,
    /// Sample times (shared by construction — all backends run the same
    /// spec in lockstep).
    pub times: Vec<f64>,
    /// Residual series per non-reference backend, in input order.
    pub diffs: Vec<LockstepDiff>,
    /// Full summaries of every backend (reference first), directly
    /// comparable to individual [`Engine::run`] output.
    pub summaries: Vec<RunSummary>,
}

impl ComparisonReport {
    /// The residuals of a backend, looked up by display name.
    pub fn diff(&self, backend: &str) -> Option<&LockstepDiff> {
        self.diffs.iter().find(|d| d.backend == backend)
    }

    /// The full summary of a backend, looked up by display name.
    pub fn summary(&self, backend: &str) -> Option<&RunSummary> {
        self.summaries.iter().find(|s| s.backend == backend)
    }

    /// Growth rate of tracked mode `m` per backend, in summary order —
    /// the Table 1 comparison (`γ_DL` vs `γ_traditional` vs theory).
    pub fn growth_rates(&self, mode: usize) -> Vec<(String, Result<f64, EngineError>)> {
        self.summaries
            .iter()
            .map(|s| (s.backend.clone(), s.growth_rate(mode).map(|fit| fit.gamma)))
            .collect()
    }
}

/// Runs `spec` on every backend in lockstep (no trained models — DL
/// backends use the untrained fallback). The first backend is the
/// reference the residuals are measured against.
pub fn lockstep(
    spec: &ScenarioSpec,
    backends: &[Backend],
) -> Result<ComparisonReport, EngineError> {
    let engine = Engine::new();
    let sessions = backends
        .iter()
        .map(|&b| engine.start(spec, b))
        .collect::<Result<Vec<_>, _>>()?;
    lockstep_sessions(sessions)
}

/// The core lockstep driver over pre-built sessions (they must share one
/// scenario; the first is the reference). Steps every session through the
/// spec's `n_steps` side by side, accumulating per-step residuals, then
/// finishes each into its summary. A member quarantined on the way ends
/// the comparison with [`EngineError::Quarantined`].
fn lockstep_sessions(mut sessions: Vec<Session>) -> Result<ComparisonReport, EngineError> {
    let invalid = |what: String| EngineError::InvalidSpec {
        scenario: sessions
            .first()
            .map(|s| s.spec().name.clone())
            .unwrap_or_default(),
        what,
    };
    if sessions.len() < 2 {
        return Err(invalid(format!(
            "a lockstep comparison needs at least two backends (got {})",
            sessions.len()
        )));
    }
    let spec = sessions[0].spec().clone();
    for s in &sessions[1..] {
        if *s.spec() != spec {
            return Err(invalid(format!(
                "lockstep sessions must share one spec (`{}` vs `{}`)",
                spec.name,
                s.spec().name
            )));
        }
    }
    if sessions.iter().any(|s| s.steps_done() != 0) {
        return Err(invalid(
            "lockstep sessions must start from step 0 (one was already advanced)".into(),
        ));
    }

    let modes = spec.tracked_modes.len();
    let mut times = Vec::with_capacity(spec.n_steps + 1);
    let mut diffs: Vec<LockstepDiff> = sessions[1..]
        .iter()
        .map(|s| LockstepDiff::new(s.backend().to_string(), modes))
        .collect();

    let record = |samples: &[Sample], times: &mut Vec<f64>, diffs: &mut Vec<LockstepDiff>| {
        times.push(samples[0].time);
        for (diff, other) in diffs.iter_mut().zip(&samples[1..]) {
            diff.push(&samples[0], other);
        }
    };
    for _ in 0..spec.n_steps {
        let mut samples = Vec::with_capacity(sessions.len());
        for session in &mut sessions {
            let sample = session.step();
            session.ensure_healthy()?;
            samples.extend(sample);
        }
        record(&samples, &mut times, &mut diffs);
    }
    let reference = sessions[0].backend().to_string();
    let mut summaries = Vec::with_capacity(sessions.len());
    let mut final_samples = Vec::with_capacity(sessions.len());
    for session in sessions {
        let summary = session.finish();
        final_samples.push(Sample {
            step: summary.steps,
            time: summary.t_end,
            kinetic: *summary.history.kinetic.last().expect("n+1 samples"),
            field: *summary.history.field.last().expect("n+1 samples"),
            momentum: *summary.history.momentum.last().expect("n+1 samples"),
            mode_amps: summary
                .history
                .mode_amps
                .iter()
                .map(|s| *s.last().expect("n+1 samples"))
                .collect(),
        });
        summaries.push(summary);
    }
    record(&final_samples, &mut times, &mut diffs);

    Ok(ComparisonReport {
        scenario: spec.name,
        reference,
        times,
        diffs,
        summaries,
    })
}
