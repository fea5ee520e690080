//! # dlpic-repro
//!
//! Reproduction of Aguilar & Markidis, *"A Deep Learning-Based
//! Particle-in-Cell Method for Plasma Simulations"* (IEEE CLUSTER 2021),
//! behind one unified API.
//!
//! ## Start here: the [`engine`]
//!
//! The [`engine`] module is the front door. It expresses the paper's
//! drop-in-replacement design as an API: a declarative, serializable
//! [`engine::ScenarioSpec`] describes the *physics*, an
//! [`engine::Backend`] picks the *solver* (traditional or DL, 1-D or 2-D,
//! continuum Vlasov, or distributed), and every pairing reports through
//! the same [`engine::RunSummary`]/[`engine::EnergyHistory`] diagnostics:
//!
//! ```no_run
//! use dlpic_repro::engine::{self, Backend};
//! use dlpic_repro::core::Scale;
//!
//! let spec = engine::scenario("two_stream", Scale::Smoke)?;
//! let summary = engine::run(&spec, Backend::Traditional1D)?;
//! let gamma = summary.growth_rate(1)?.gamma;   // fitted E1 growth rate
//! # Ok::<(), dlpic_repro::engine::EngineError>(())
//! ```
//!
//! Swap `Backend::Traditional1D` for `Backend::Dl1D` and nothing else
//! changes — exactly the grey-box swap of the paper's Fig. 2. The named
//! scenario registry ships `two_stream`, `two_stream_2d`,
//! `landau_damping`, `cold_beam`, `bump_on_tail` and `thermal_noise`; see
//! `examples/quickstart.rs` for the five-minute tour.
//!
//! Underneath `run` sits the incremental [`engine::Session`] primitive
//! ([`engine::Engine::start`]): step-at-a-time advancement, early
//! stopping ([`engine::Session::run_until`]), JSON checkpoint/resume
//! ([`engine::Session::checkpoint`] / [`engine::Engine::resume`]) and
//! lockstep multi-backend comparison ([`engine::compare::lockstep`] —
//! the paper's figure methodology as an API). See
//! `examples/saturation.rs` and `examples/lockstep_compare.rs`.
//!
//! ## The solver crates underneath
//!
//! The engine drives the workspace members, re-exported here for direct
//! (lower-level) use:
//!
//! * [`pic`] — the traditional explicit electrostatic PIC method: the
//!   1-D kernels, and the one driver (`Simulation<G>`, `FieldSolver<G>`,
//!   `History<M>`) written over [`pic::Geometry`].
//! * [`pic2d`] — the 2-D kernels and `impl Geometry for Grid2D` (paper
//!   §VII's "two-dimensional systems" extension); its cycle is
//!   `pic::Simulation<Grid2D>`.
//! * [`nn`] — the from-scratch neural-network library (MLP/CNN + Adam).
//! * [`core`] — the DL-based PIC method (phase-space binning + DL field
//!   solver), the paper's contribution; the solver is generic over the
//!   geometry and `core::twod` supplies its 2-D input binning and
//!   training pipeline.
//! * [`dataset`] — the training-data pipeline.
//! * [`analytics`] — FFT, dispersion relation, growth-rate fits, plots.
//! * [`vlasov`] — a continuum Vlasov–Poisson solver (the paper's §VII
//!   noise-free-training-data path).
//! * [`ddecomp`] — domain-decomposed PIC with exact communication
//!   accounting (paper §VII's distributed-memory discussion, made
//!   measurable).
//!
//! Their per-crate config structs (`pic::PicConfig<G>` — one for both
//! dimensions — `vlasov::VlasovConfig`, `ddecomp::sim::DistConfig`) are implementation
//! detail behind [`engine::ScenarioSpec`]; the README carries the
//! migration table.

#![warn(missing_docs)]

pub mod engine;

pub use dlpic_analytics as analytics;
pub use dlpic_core as core;
pub use dlpic_dataset as dataset;
pub use dlpic_ddecomp as ddecomp;
pub use dlpic_nn as nn;
pub use dlpic_pic as pic;
pub use dlpic_pic2d as pic2d;
pub use dlpic_vlasov as vlasov;
