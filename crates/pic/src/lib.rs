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
//! [`geometry::Geometry`] of a grid and defaults to [`Grid1D`].
//! Dimension is data below it: one [`Grid<D>`](Grid) whose cells,
//! lengths and spacing are `[_; D]`, and one [`Particles<D>`](Particles)
//! whose positions and velocities are `[Vec<f64>; D]` ([`Grid1D`],
//! [`Grid2D`] and [`Particles2D`] are aliases). The reference gather, the
//! mover, `E = −∇Φ`, the field energy and the instantaneous report are
//! each written once over `D`, on stacked component buffers: the field is
//! `[E]` in 1-D and `[Ex | Ey]` in 2-D. Where dimension is real the
//! kernels stay per dimension: loading ([`init`], [`init2d`]), deposit
//! ([`deposit`], [`deposit2d`]), the fused push ([`fused`], [`fused2d`])
//! and Poisson ([`poisson`], [`poisson2d`]); [`geometry2d`] plugs the 2-D
//! ones into the same driver. 2-D node arrays are row-major with `x`
//! fastest, `a[iy * nx + ix]`.
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
pub mod efield;
pub mod fused;
pub mod fused2d;
pub mod gather;
pub mod geometry;
pub mod geometry2d;
pub mod grid;
pub mod history;
pub mod init;
pub mod init2d;
pub mod lanes;
pub mod mover;
pub mod particles;
pub mod poisson;
pub mod poisson2d;
pub mod presets;
pub mod shape;
pub mod simulation;
pub mod solver;
mod split;

// The 2-D unit tests of the dimension-generic modules. One module per
// 2-D case keeps each test's path (`grid2d::tests::…`) stable.
#[cfg(test)]
#[path = "tests2d/diagnostics2d.rs"]
mod diagnostics2d;
#[cfg(test)]
#[path = "tests2d/efield2d.rs"]
mod efield2d;
#[cfg(test)]
#[path = "tests2d/gather2d.rs"]
mod gather2d;
#[cfg(test)]
#[path = "tests2d/grid2d.rs"]
mod grid2d;
#[cfg(test)]
#[path = "tests2d/mover2d.rs"]
mod mover2d;
#[cfg(test)]
#[path = "tests2d/particles2d.rs"]
mod particles2d;

pub use fused::{fused_gather_push_move, StepMoments};
pub use geometry::Geometry;
pub use grid::{Grid, Grid1D, Grid2D};
pub use history::{History, Sample};
pub use init::{BeamSpec, Loading, MultiBeamInit, TwoStreamInit};
pub use init2d::TwoStream2DInit;
pub use particles::{Particles, Particles2D};
pub use poisson::{FdPoisson, PoissonSolver, SpectralPoisson};
pub use shape::Shape;
pub use simulation::{PicConfig, Simulation};
pub use solver::{FieldSolver, TraditionalSolver};
pub use split::{split, split_scratch_bytes, Split, SPLIT_PARTICLES};
