//! The engine's error type: every failure mode of the facade — invalid
//! scenario specifications, incompatible scenario×backend pairings,
//! (de)serialization problems, a run quarantined before it completed and
//! the analytics/model/dataset errors of the underlying crates — surfaces
//! as one [`EngineError`].

use super::health::SessionFault;
use super::json::JsonError;
use crate::analytics::fit::FitError;
use crate::core::bundle::BundleError;
use crate::dataset::store::StoreError;

/// Any failure raised by the `dlpic_repro::engine` API.
#[derive(Debug)]
pub enum EngineError {
    /// The scenario specification fails validation.
    InvalidSpec {
        /// Scenario name (may be empty if that is what is invalid).
        scenario: String,
        /// What is wrong.
        what: String,
    },
    /// The scenario cannot run on the requested backend.
    Incompatible {
        /// Scenario name.
        scenario: String,
        /// Backend name.
        backend: &'static str,
        /// Why the pairing is impossible.
        why: String,
    },
    /// No registry entry under this name.
    UnknownScenario {
        /// The requested name.
        name: String,
        /// Valid names, for the error message.
        known: Vec<&'static str>,
    },
    /// A session checkpoint is malformed or does not fit the spec it
    /// claims to continue.
    Checkpoint {
        /// What is wrong.
        what: String,
    },
    /// A run was quarantined before it completed: its solver panicked, or
    /// its diagnostics went non-finite — the solver left the physical
    /// regime (for DL backends: the surrogate was driven off its training
    /// distribution).
    Quarantined(SessionFault),
    /// Spec (de)serialization failed.
    Json(JsonError),
    /// A growth-rate/line fit failed.
    Fit(FitError),
    /// Model-bundle persistence failed.
    Bundle(BundleError),
    /// Dataset persistence failed.
    Store(StoreError),
    /// Filesystem error.
    Io(std::io::Error),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::InvalidSpec { scenario, what } => {
                write!(f, "invalid scenario `{scenario}`: {what}")
            }
            Self::Incompatible {
                scenario,
                backend,
                why,
            } => {
                write!(
                    f,
                    "scenario `{scenario}` cannot run on backend `{backend}`: {why}"
                )
            }
            Self::UnknownScenario { name, known } => {
                write!(f, "unknown scenario `{name}`; known: {}", known.join(", "))
            }
            Self::Checkpoint { what } => write!(f, "checkpoint: {what}"),
            Self::Quarantined(fault) => fault.fmt(f),
            Self::Json(e) => write!(f, "scenario spec: {e}"),
            Self::Fit(e) => write!(f, "fit: {e}"),
            Self::Bundle(e) => write!(f, "model bundle: {e}"),
            Self::Store(e) => write!(f, "dataset store: {e}"),
            Self::Io(e) => write!(f, "i/o: {e}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Json(e) => Some(e),
            Self::Fit(e) => Some(e),
            Self::Bundle(e) => Some(e),
            Self::Store(e) => Some(e),
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<JsonError> for EngineError {
    fn from(e: JsonError) -> Self {
        Self::Json(e)
    }
}

impl From<FitError> for EngineError {
    fn from(e: FitError) -> Self {
        Self::Fit(e)
    }
}

impl From<BundleError> for EngineError {
    fn from(e: BundleError) -> Self {
        Self::Bundle(e)
    }
}

impl From<StoreError> for EngineError {
    fn from(e: StoreError) -> Self {
        Self::Store(e)
    }
}

impl From<std::io::Error> for EngineError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}
