//! # dlpic-pic2d
//!
//! A two-dimensional electrostatic Particle-in-Cell method — the
//! "two-dimensional systems" extension that Aguilar & Markidis name as
//! future work in §VII of *"A Deep Learning-Based Particle-in-Cell Method
//! for Plasma Simulations"* (CLUSTER 2021).
//!
//! The computational cycle is the 2-D version of the paper's Fig. 1:
//!
//! 1. **Gather** — interpolate `(Ex, Ey)` from grid nodes to particle
//!    positions ([`gather2d`]).
//! 2. **Push** — leap-frog update of `(vx, vy)` and `(x, y)`
//!    ([`mover2d`]).
//! 3. **Deposit** — tensor-product shape-function charge deposition
//!    ([`deposit2d`]).
//! 4. **Field solve** — periodic 2-D Poisson solve (spectral or SOR) and
//!    `E = −∇Φ` by central differences ([`poisson2d`], [`efield2d`]).
//!
//! This crate holds the 2-D kernels and no driver of its own:
//! [`geometry2d`] implements `dlpic_pic`'s [`Geometry`](dlpic_pic::Geometry)
//! for [`Grid2D`], so the cycle is `dlpic_pic::Simulation<Grid2D>` and
//! steps 3–4 hide behind `dyn FieldSolver<Grid2D>` — the same seam, written
//! once, that lets the DL-based field solver of `dlpic-core` replace them
//! in either dimension. The node field is `[Ex | Ey]` stacked in one flat
//! buffer.
//!
//! ## Units and layout
//!
//! Same dimensionless units as the 1-D crate (`ω_p = 1`, `ε₀ = 1`,
//! electron `|q|/m = 1`). All node arrays are row-major with `x` fastest:
//! `a[iy * nx + ix]`.
//!
//! ## Validation strategy
//!
//! A two-stream configuration that is uniform in `y` must reproduce the
//! 1-D physics exactly: the `(kx, ky) = (k₁, 0)` mode grows at the 1-D
//! two-stream rate `γ = 1/(2√2)` and nothing grows in `ky`. The
//! integration tests enforce both.

#![warn(missing_docs)]

pub mod constants2d;
pub mod deposit2d;
pub mod diagnostics2d;
pub mod efield2d;
pub mod fused2d;
pub mod gather2d;
pub mod geometry2d;
pub mod grid2d;
pub mod init2d;
pub mod mover2d;
pub mod particles2d;
pub mod poisson2d;
pub mod solver2d;

pub use fused2d::fused_gather_push_move;
pub use grid2d::Grid2D;
pub use init2d::TwoStream2DInit;
pub use particles2d::Particles2D;
pub use poisson2d::Poisson2DSolver;
pub use solver2d::TraditionalSolver2D;
