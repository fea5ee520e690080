//! # The engine facade: one Scenario/Backend/Observer API for every solver
//!
//! The paper's central design point is that the DL field solver is a
//! *drop-in replacement* inside an otherwise unchanged PIC cycle. This
//! module makes that a first-class API instead of a per-crate convention:
//!
//! * [`ScenarioSpec`] — a declarative, dimension-tagged, JSON-serializable
//!   description of the physics (domain, species, loading, scale, dt,
//!   steps, tracked modes) with validation. The [`registry`] ships the
//!   classic experiments pre-configured (`two_stream`, `two_stream_2d`,
//!   `landau_damping`, `cold_beam`, `bump_on_tail`, `thermal_noise`).
//! * [`Backend`] — which solver runs it: `Traditional1D`, `Dl1D`,
//!   `Traditional2D`, `Dl2D`, `Vlasov` or `Ddecomp`. Any compatible
//!   pairing is one enum value away.
//! * [`Observer`] + [`RunSummary`]/[`EnergyHistory`] — one diagnostics
//!   shape for all backends, adapting `pic::History<M>` (1-D and 2-D)
//!   and the Vlasov/distributed diagnostics, directly consumable by
//!   [`crate::analytics`].
//! * [`Session`] — the incremental primitive underneath
//!   [`Engine::run`]: [`Engine::start`] hands back a steppable run that
//!   can stop early ([`Session::run_until`]), checkpoint to JSON and
//!   resume ([`Session::checkpoint`] / [`Engine::resume`]), or advance in
//!   lockstep with other backends ([`compare::lockstep`]).
//!
//! ```no_run
//! use dlpic_repro::engine::{self, Backend};
//! use dlpic_repro::core::Scale;
//!
//! // The paper's validation run on the traditional method…
//! let spec = engine::scenario("two_stream", Scale::Scaled)?;
//! let trad = engine::run(&spec, Backend::Traditional1D)?;
//! // …and on the DL method: change one value.
//! let dl = engine::run(&spec, Backend::Dl1D)?;
//! println!("ΔE: {:.2}% vs {:.2}%", trad.energy_variation() * 100.0,
//!          dl.energy_variation() * 100.0);
//!
//! // Incrementally: step, watch, stop early, summarize.
//! let mut session = engine::start(&spec, Backend::Traditional1D)?;
//! session.run_until(|sample| sample.field > 0.5 * sample.kinetic);
//! let summary = session.finish();
//! # let _ = summary;
//! # Ok::<(), dlpic_repro::engine::EngineError>(())
//! ```
//!
//! The old per-crate entry points (`pic::PicConfig<G>` for either
//! dimension, `vlasov::VlasovConfig`, `ddecomp::DistConfig`) remain available but are
//! implementation detail; new code should target this module. See the
//! README for a migration table.

pub mod backend;
pub mod compare;
pub mod dl;
pub mod ensemble;
pub mod error;
pub mod fault;
pub mod health;
pub mod json;
pub mod observer;
pub mod registry;
pub mod resources;
pub mod runner;
pub mod session;
pub mod spec;

pub use backend::Backend;
pub use compare::{lockstep, ComparisonReport, LockstepDiff};
pub use dl::{shared_registry, ModelRegistry, RegistryStats, SharedModelRegistry};
pub use ensemble::{Ensemble, SweepSpec, WaveBatch};
pub use error::EngineError;
pub use fault::{FaultKind, FaultPlan};
pub use health::{RunHealth, SessionFault};
pub use observer::{EnergyHistory, Observer, PhaseSpace, RunSummary, Sample};
pub use registry::{apply_sweep_param, names, scenario, sweepable_params, SweepParam};
pub use resources::{estimate_session, ResourceEstimate};
pub use runner::{run, start, Engine, Numerics1D, WeightProfiler};
pub use session::{BackendSession, Checkpoint, Session};
pub use spec::{Dim, DomainSpec, LoadingSpec, ScenarioSpec, SpeciesSpec};
