//! Run supervision: the fault a quarantined session carries, the panic
//! containment that produces one, and the divergence check over recorded
//! diagnostics rows.
//!
//! The DL field solve can silently leave the physical regime the moment
//! its inputs drift off the training distribution — the first observable
//! symptom is a non-finite diagnostics row (field energy, kinetic energy,
//! momentum or a tracked mode amplitude). [`Session`] applies both checks
//! to every step, whoever drives it (see [`super::session`]); a
//! quarantined run keeps its partial history, and the fault itself is a
//! [`SessionFault`].
//!
//! [`Session`]: super::Session

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
    /// A completed step's diagnostics row went non-finite; the row is
    /// dropped, so the history holds the `step` rows before it.
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
/// touched on `Err`: a session (or the ensemble, for a cohort's shared
/// inference) quarantines itself, and its possibly-inconsistent solver
/// state is never stepped or sampled again; the server fails the run
/// whose build panicked.
pub fn contained<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(panic_message)
}

/// The first non-finite kinetic energy, field energy, momentum or
/// tracked-mode amplitude among `history`'s rows `from..`, as
/// `(row index, diagnostic)`.
pub(crate) fn first_non_finite(history: &EnergyHistory, from: usize) -> Option<(usize, String)> {
    (from..history.len()).find_map(|i| row_fault(history, i).map(|diagnostic| (i, diagnostic)))
}

/// What in row `i` of `history` is non-finite, and how.
fn row_fault(history: &EnergyHistory, i: usize) -> Option<String> {
    let scalars = [
        ("kinetic energy", history.kinetic[i]),
        ("field energy", history.field[i]),
        ("momentum", history.momentum[i]),
    ];
    for (what, v) in scalars {
        if !v.is_finite() {
            return Some(format!("{what} is {v}"));
        }
    }
    for (slot, series) in history.mode_amps.iter().enumerate() {
        if let Some(&a) = series.get(i) {
            if !a.is_finite() {
                let mode = history.tracked_modes.get(slot).copied().unwrap_or(slot);
                return Some(format!("mode {mode} amplitude is {a}"));
            }
        }
    }
    None
}
