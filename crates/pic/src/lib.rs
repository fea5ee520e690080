//! # dlpic-pic
//!
//! A traditional explicit electrostatic Particle-in-Cell (PIC) method,
//! following Birdsall & Langdon — the one-dimensional baseline method of
//! Aguilar & Markidis, *"A Deep Learning-Based Particle-in-Cell Method for
//! Plasma Simulations"* (CLUSTER 2021), the generator of all its training
//! data, and the two-dimensional extension its §VII names as future work.
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
//! [`history::History`], both solver traits and the
//! [`TraditionalSolver`]) is written once over the
//! [`geometry::Geometry`] of a grid and defaults to [`Grid1D`]. The
//! kernels stay specialised per dimension: the 1-D ones above, and their
//! 2-D counterparts over [`Grid2D`] in the `*2d` modules ([`gather2d`],
//! [`mover2d`], [`deposit2d`], [`poisson2d`], [`efield2d`], [`fused2d`]),
//! which [`geometry2d`] plugs into the same driver. 2-D node arrays are
//! row-major with `x` fastest, `a[iy * nx + ix]`, and the 2-D field is
//! `[Ex | Ey]` stacked in one flat buffer.
//!
//! A two-stream configuration that is uniform in `y` must reproduce the
//! 1-D physics exactly: the `(kx, ky) = (k₁, 0)` mode grows at the 1-D
//! two-stream rate `γ = 1/(2√2)` and nothing grows in `ky`. The
//! integration tests enforce both.
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
pub mod deposit2d;
pub mod diagnostics;
pub mod diagnostics2d;
pub mod efield;
pub mod efield2d;
pub mod fused;
pub mod fused2d;
pub mod gather;
pub mod gather2d;
pub mod geometry;
pub mod geometry2d;
pub mod grid;
pub mod grid2d;
pub mod history;
pub mod init;
pub mod init2d;
pub mod mover;
pub mod mover2d;
pub mod particles;
pub mod particles2d;
pub mod poisson;
pub mod poisson2d;
pub mod presets;
pub mod shape;
pub mod simulation;
pub mod solver;

pub use fused::{fused_gather_push_move, StepMoments};
pub use geometry::Geometry;
pub use grid::Grid1D;
pub use grid2d::Grid2D;
pub use history::{History, SampleRow};
pub use init::{BeamSpec, Loading, MultiBeamInit, TwoStreamInit};
pub use init2d::TwoStream2DInit;
pub use particles::Particles;
pub use poisson::{FdPoisson, PoissonSolver, SpectralPoisson};
pub use shape::Shape;
pub use simulation::{PicConfig, Simulation};
pub use solver::{FieldSolver, TraditionalSolver};
