//! # dlpic-core
//!
//! The paper's contribution: the **DL-based Particle-in-Cell method** of
//! Aguilar & Markidis (CLUSTER 2021).
//!
//! The DL-based PIC keeps the traditional gather + leap-frog mover and
//! replaces the deposition + Poisson field solve (the grey boxes of the
//! paper's Fig. 2) with:
//!
//! 1. [`phase_space`] — binning of the electron `(x, v)` phase space into
//!    a 2-D histogram;
//! 2. [`normalize`] — the dataset min–max transform of paper Eq. 5;
//! 3. [`field_solver::DlFieldSolver`] — a neural-network inference that
//!    maps the histogram to the 64-cell electric field. It implements
//!    `dlpic_pic::solver::FieldSolver`, so the *same* simulation loop runs
//!    both methods. The solver is generic over the geometry; its one
//!    per-dimension piece is [`field_solver::InputBinning`], and [`twod`]
//!    supplies the 2-D instantiation's binning and training. Its shareable
//!    form, [`FrozenBundle`], is what fleets run on in either dimension.
//!
//! [`builder`] constructs the paper's §IV.A architectures (MLP: 3×1024
//! ReLU hidden + 64 linear out; CNN: two blocks of conv→conv→pool + 3 FC), plus the
//! residual MLP suggested in §VII. [`bundle`] persists trained 1-D solvers;
//! [`presets`] defines the smoke/scaled/paper experiment scales.

#![warn(missing_docs)]

pub mod builder;
pub mod bundle;
pub mod field_solver;
pub mod normalize;
pub mod phase_space;
pub mod pool;
pub mod presets;
pub mod twod;

pub use builder::{ArchSpec, InputKind};
pub use bundle::{BundleError, ModelBundle};
pub use field_solver::{DlFieldSolver, FrozenBundle, InputBinning};
pub use normalize::NormStats;
pub use phase_space::{bin_phase_space, BinningShape, PhaseGridSpec};
pub use presets::Scale;
pub use twod::DensityBinning;
