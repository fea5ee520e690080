//! # dlpic-pic
//!
//! A traditional explicit electrostatic one-dimensional Particle-in-Cell
//! (PIC) method, following Birdsall & Langdon — the baseline method of
//! Aguilar & Markidis, *"A Deep Learning-Based Particle-in-Cell Method for
//! Plasma Simulations"* (CLUSTER 2021), and the generator of all its
//! training data.
//!
//! The computational cycle (paper Fig. 1):
//!
//! 1. **Gather** — interpolate the grid electric field to particle
//!    positions ([`gather`]).
//! 2. **Push** — advance velocities and positions with the leap-frog
//!    scheme, paper Eqs. (1)–(2) ([`mover`]).
//! 3. **Deposit** — interpolate particle charge to the grid
//!    ([`deposit`]).
//! 4. **Field solve** — solve the Poisson equation for Φ and take
//!    E = −∇Φ ([`poisson`], [`efield`]).
//!
//! Steps 3–4 are abstracted behind the [`solver::FieldSolver`] trait so the
//! DL-based method (crate `dlpic-core`) can replace them — exactly the grey
//! boxes of the paper's Fig. 2 — while sharing the same mover, gather and
//! diagnostics.
//!
//! The cycle itself ([`simulation::Simulation`], its config and
//! [`history::History`], both solver traits) is written once over the
//! [`geometry::Geometry`] of a grid and defaults to this crate's
//! [`Grid1D`]; `dlpic-pic2d` supplies the 2-D grid and kernels and reuses
//! the driver.
//!
//! ## Units
//!
//! Everything is dimensionless with electron plasma frequency `ω_p = 1`,
//! vacuum permittivity `ε₀ = 1` and electron charge-to-mass `|q|/m = 1`
//! (paper §III). See [`constants`] for the paper's standard configuration:
//! box `L = 2π/3.06`, 64 cells, 1000 electrons/cell, `Δt = 0.2`.

#![warn(missing_docs)]

pub mod constants;
pub mod deposit;
pub mod diagnostics;
pub mod efield;
pub mod fused;
pub mod gather;
pub mod geometry;
pub mod grid;
pub mod history;
pub mod init;
pub mod mover;
pub mod particles;
pub mod poisson;
pub mod presets;
pub mod shape;
pub mod simulation;
pub mod solver;

pub use fused::{fused_gather_push_move, StepMoments};
pub use geometry::Geometry;
pub use grid::Grid1D;
pub use history::{History, SampleRow};
pub use init::{BeamSpec, Loading, MultiBeamInit, TwoStreamInit};
pub use particles::Particles;
pub use poisson::{FdPoisson, PoissonSolver, SpectralPoisson};
pub use shape::Shape;
pub use simulation::{PicConfig, Simulation};
pub use solver::{FieldSolver, TraditionalSolver};
