//! Run supervision: panic containment, divergence detection over
//! recorded diagnostics, and the fault state a quarantined session
//! carries.
//!
//! The DL field solve can silently leave the physical regime the moment
//! its inputs drift off the training distribution — the first observable
//! symptom is a non-finite diagnostics row (field energy, kinetic energy
//! or a tracked mode amplitude). [`Session::check_health`] scans each new
//! history row incrementally (the same consume-new-rows pattern as the
//! server's stop-policy evaluator), so a wave scheduler can quarantine
//! the run at the first bad row instead of letting NaNs poison a cohort
//! batch or a downstream fit; [`contained`] turns a panicking step into
//! the same quarantine. A quarantined run keeps its partial history; the
//! fault itself is a [`SessionFault`].
//!
//! [`Session::check_health`]: super::Session::check_health

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
    /// A diagnostics row went non-finite (see
    /// [`Session::check_health`](super::Session::check_health)).
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

/// Extracts a printable message from a caught panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

/// Runs `f` with unwinding contained: a panic becomes `Err(message)`
/// instead of tearing down the caller (a wave, and with it every
/// co-scheduled session, or the server's scheduler thread).
/// `AssertUnwindSafe` is sound because every caller discards what `f`
/// touched on `Err`: the ensemble quarantines the session, whose
/// possibly-inconsistent solver state is never stepped or sampled again,
/// and the server fails the run whose build panicked.
pub fn contained<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(panic_message)
}

/// Incremental divergence guard over a run's [`EnergyHistory`]: fed the
/// history after each step, it scans only the rows recorded since the
/// last call and reports the first non-finite kinetic energy, field
/// energy, momentum or tracked-mode amplitude.
#[derive(Debug, Clone, Default)]
pub(crate) struct RunHealth {
    rows_checked: usize,
}

impl RunHealth {
    /// Forgets all scanned rows (after a checkpoint restore replaces the
    /// history, the restored rows are re-validated on the next check).
    pub(crate) fn reset(&mut self) {
        self.rows_checked = 0;
    }

    /// Consumes rows recorded since the last call; on the first
    /// non-finite value returns `(row index, diagnostic)`.
    pub(crate) fn check(&mut self, history: &EnergyHistory) -> Option<(usize, String)> {
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
