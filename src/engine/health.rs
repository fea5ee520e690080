//! Run supervision: divergence detection over recorded diagnostics, and
//! the fault state a quarantined session carries.
//!
//! The DL field solve can silently leave the physical regime the moment
//! its inputs drift off the training distribution — the first observable
//! symptom is a non-finite diagnostics row (field energy, kinetic energy
//! or a tracked mode amplitude). [`RunHealth`] scans each new history row
//! incrementally (the same consume-new-rows pattern as the server's
//! stop-policy evaluator), so a wave scheduler can quarantine the run at
//! the first bad row instead of letting NaNs poison a cohort batch or a
//! downstream fit. A quarantined run keeps its partial history; the
//! fault itself is a [`SessionFault`].

use super::observer::EnergyHistory;

/// Why a session was quarantined mid-run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionFault {
    /// The solver stack panicked inside a step; the session's solver
    /// state is mid-step and must not be advanced or sampled again.
    Panicked {
        /// The panic payload, when it was a string.
        message: String,
    },
    /// A diagnostics row went non-finite (see [`RunHealth`]).
    Diverged {
        /// Index of the first non-finite row.
        step: usize,
        /// Which quantity went non-finite, and how.
        diagnostic: String,
    },
}

impl std::fmt::Display for SessionFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Panicked { message } => write!(f, "solver panicked: {message}"),
            Self::Diverged { step, diagnostic } => {
                write!(f, "run diverged at step {step}: {diagnostic}")
            }
        }
    }
}

/// Incremental divergence guard over a run's [`EnergyHistory`]: feed it
/// the history after each wave; it scans only the rows recorded since the
/// last call and reports the first non-finite kinetic energy, field
/// energy, momentum or tracked-mode amplitude.
#[derive(Debug, Clone, Default)]
pub struct RunHealth {
    rows_checked: usize,
}

impl RunHealth {
    /// A guard that has seen no rows yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forgets all scanned rows (after a checkpoint restore replaces the
    /// history, the restored rows are re-validated on the next check).
    pub fn reset(&mut self) {
        self.rows_checked = 0;
    }

    /// Consumes rows recorded since the last call; on the first
    /// non-finite value returns `(row index, diagnostic)`.
    pub fn check(&mut self, history: &EnergyHistory) -> Option<(usize, String)> {
        while self.rows_checked < history.len() {
            let i = self.rows_checked;
            self.rows_checked += 1;
            let scalars = [
                ("kinetic energy", history.kinetic[i]),
                ("field energy", history.field[i]),
                ("momentum", history.momentum[i]),
            ];
            for (what, v) in scalars {
                if !v.is_finite() {
                    return Some((i, format!("{what} is {v}")));
                }
            }
            for (slot, series) in history.mode_amps.iter().enumerate() {
                if let Some(&a) = series.get(i) {
                    if !a.is_finite() {
                        let mode = history.tracked_modes.get(slot).copied().unwrap_or(slot);
                        return Some((i, format!("mode {mode} amplitude is {a}")));
                    }
                }
            }
        }
        None
    }
}
