//! What the PIC cycle needs from a dimension.
//!
//! [`Simulation`](crate::simulation::Simulation), its config and history,
//! the [`FieldSolver`](crate::solver::FieldSolver) seam with its
//! [`TraditionalSolver`](crate::solver::TraditionalSolver), the DL solver
//! in `dlpic-core` and the engine's PIC session are each written once over
//! [`Geometry`]. Dimension is data below it: one
//! [`Grid<D>`](crate::grid::Grid) and one
//! [`Particles<D>`](crate::particles::Particles), and the per-axis
//! kernels (reference gather, leap-frog mover, `E = −∇Φ`, field energy,
//! instantaneous report) are each written once over `D`. Loading,
//! deposit, fused push and Poisson stay per dimension. [`Grid1D`]
//! implements the trait here, [`Grid2D`](crate::grid::Grid2D) in
//! [`geometry2d`](crate::geometry2d); each method is one call. Dispatch is
//! static: the generic cycle monomorphises to the same kernel calls a
//! hand-written one makes.
//!
//! The node field is one flat buffer of `FIELD_NAMES.len()` components
//! stacked back to back, each [`Geometry::nodes`] long — `[E]` in 1-D,
//! `[Ex | Ey]` in 2-D — so solve, checkpoint and restore keep one
//! signature in every dimension.

use crate::deposit::deposit_charge;
use crate::diagnostics::{field_mode_amplitude, instantaneous_report, EnergyReport};
use crate::efield::{efield_from_phi, field_energy};
use crate::fused::{fused_gather_push_move, StepMoments};
use crate::gather::gather_field;
use crate::grid::{Grid, Grid1D};
use crate::init::TwoStreamInit;
use crate::mover::half_step_back;
use crate::particles::Particles;
use crate::poisson::{FdPoisson, PoissonSolver, SpectralPoisson};
use crate::shape::Shape;
use crate::solver::PoissonKind;
use std::fmt;

/// A periodic field grid together with the per-dimension kernels of the
/// PIC cycle.
pub trait Geometry: Clone + fmt::Debug + Send + 'static {
    /// The particle store.
    type Particles: Send;
    /// Key of one tracked field mode (`m` in 1-D, `(mx, my)` in 2-D).
    type Mode: Copy + PartialEq + fmt::Debug + Send;
    /// The initial condition a `PicConfig` may carry.
    type Init: Clone + fmt::Debug + Send;

    /// Names of the field components, in the order they are stacked in
    /// the flat node field (and keyed in checkpoints).
    const FIELD_NAMES: &'static [&'static str];

    /// The [`FieldSolver::name`](crate::solver::FieldSolver::name) of the
    /// traditional solver on this grid (checkpoints record it).
    const TRADITIONAL_NAME: &'static str;

    /// Nodes per field component.
    fn nodes(&self) -> usize;

    /// Loads `init` on this grid.
    fn load(&self, init: &Self::Init) -> Self::Particles;

    /// Sets up the leap-frog stagger: gathers `e` and rewinds velocities
    /// by half a step, `v⁰ → v^{-1/2}`.
    fn half_step_back(&self, particles: &mut Self::Particles, shape: Shape, e: &[f64], dt: f64);

    /// The fused gather → velocity push → position push over all
    /// particles, with the step's diagnostics moments.
    fn fused_push(
        &self,
        particles: &mut Self::Particles,
        shape: Shape,
        e: &[f64],
        dt: f64,
    ) -> StepMoments;

    /// Deposits the particles' charge density onto `rho` (one component,
    /// [`Geometry::nodes`] long), accumulating into it.
    fn deposit(&self, particles: &Self::Particles, shape: Shape, rho: &mut [f64]);

    /// The periodic Poisson solver `kind` on this grid.
    fn poisson(kind: PoissonKind) -> Box<dyn PoissonSolver<Self>>;

    /// Writes `E = −∇Φ` of the potential `phi` into the stacked field `e`.
    fn gradient(&self, phi: &[f64], e: &mut [f64]);

    /// Electrostatic energy of the stacked field.
    fn field_energy(&self, e: &[f64]) -> f64;

    /// Amplitude of one field mode (of the first component).
    fn mode_amplitude(&self, e: &[f64], mode: Self::Mode) -> f64;

    /// Instantaneous (not time-centred) diagnostics of the current state.
    fn instantaneous_report(&self, particles: &Self::Particles, e: &[f64]) -> EnergyReport;

    /// The particle state as named `f64` columns in checkpoint order:
    /// positions first, then velocities, axis by axis (`x, v` in 1-D;
    /// `x, y, vx, vy` in 2-D).
    fn columns(particles: &Self::Particles) -> Vec<(&'static str, &[f64])>;

    /// The same columns, writable, in the same order.
    fn columns_mut(particles: &mut Self::Particles) -> Vec<&mut [f64]>;
}

/// [`Geometry::half_step_back`] in every dimension. The per-particle
/// buffer lives only for this set-up gather; the stepping loop is fused
/// and needs none.
pub(crate) fn gather_and_rewind<const D: usize>(
    grid: &Grid<D>,
    particles: &mut Particles<D>,
    shape: Shape,
    e: &[f64],
    dt: f64,
) {
    let mut e_part = vec![0.0; D * particles.len()];
    gather_field(particles, grid, shape, e, &mut e_part);
    half_step_back(particles, &e_part, dt);
}

impl Geometry for Grid1D {
    type Particles = Particles;
    type Mode = usize;
    type Init = TwoStreamInit;

    const FIELD_NAMES: &'static [&'static str] = &["e"];
    const TRADITIONAL_NAME: &'static str = "traditional";

    fn nodes(&self) -> usize {
        Grid::nodes(self)
    }

    fn load(&self, init: &TwoStreamInit) -> Particles {
        init.build(self)
    }

    fn half_step_back(&self, particles: &mut Particles, shape: Shape, e: &[f64], dt: f64) {
        gather_and_rewind(self, particles, shape, e, dt);
    }

    fn fused_push(
        &self,
        particles: &mut Particles,
        shape: Shape,
        e: &[f64],
        dt: f64,
    ) -> StepMoments {
        fused_gather_push_move(particles, self, shape, e, dt)
    }

    fn deposit(&self, particles: &Particles, shape: Shape, rho: &mut [f64]) {
        deposit_charge(particles, self, shape, rho);
    }

    fn poisson(kind: PoissonKind) -> Box<dyn PoissonSolver> {
        match kind {
            PoissonKind::FiniteDifference => Box::new(FdPoisson::new()),
            PoissonKind::Spectral => Box::new(SpectralPoisson::new()),
        }
    }

    fn gradient(&self, phi: &[f64], e: &mut [f64]) {
        efield_from_phi(self, phi, e);
    }

    fn field_energy(&self, e: &[f64]) -> f64 {
        field_energy(self, e)
    }

    fn mode_amplitude(&self, e: &[f64], mode: usize) -> f64 {
        field_mode_amplitude(e, mode)
    }

    fn instantaneous_report(&self, particles: &Particles, e: &[f64]) -> EnergyReport {
        instantaneous_report(particles, self, e)
    }

    fn columns(particles: &Particles) -> Vec<(&'static str, &[f64])> {
        ["x", "v"].into_iter().zip(particles.components()).collect()
    }

    fn columns_mut(particles: &mut Particles) -> Vec<&mut [f64]> {
        particles.components_mut()
    }
}
