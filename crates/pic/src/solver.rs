//! The field-solver abstraction — the seam where the DL method plugs in.
//!
//! The paper's Fig. 2 keeps the interpolation and particle mover of the
//! traditional method and swaps the deposition + Poisson stages (grey
//! boxes) for phase-space binning + neural network inference. We model that
//! seam as the [`FieldSolver`] trait: given the particles and the grid,
//! produce the electric field on the nodes. [`TraditionalSolver`] is the
//! deposit→Poisson→gradient pipeline; the DL solver lives in `dlpic-core`
//! and implements the same trait.
//!
//! Both traits are written once over a [`Geometry`] that defaults to
//! [`Grid1D`]: `dyn FieldSolver` is the 1-D seam, `dyn FieldSolver<Grid2D>`
//! the 2-D one (`dlpic-pic2d`), with the field one flat buffer of stacked
//! components in either.

use crate::deposit::{add_uniform_background, deposit_charge};
use crate::efield::efield_from_phi;
use crate::geometry::Geometry;
use crate::grid::Grid1D;
use crate::particles::Particles;
use crate::poisson::{FdPoisson, PoissonSolver, SpectralPoisson};
use crate::shape::Shape;

/// Computes the node electric field from the particle state.
pub trait FieldSolver<G: Geometry = Grid1D>: Send {
    /// Fills `e` (the geometry's stacked field components, each of grid
    /// nodes length) from the current particle state.
    fn solve(&mut self, particles: &G::Particles, grid: &G, e: &mut [f64]);

    /// Human-readable name for logs/benchmarks.
    fn name(&self) -> &'static str;

    /// The phase-split view of this solver, when its `solve` decomposes
    /// into prepare-input / infer / apply-output stages an external
    /// driver can batch across many simulations (the DL solvers).
    /// `None` (the default) for monolithic solvers like the traditional
    /// deposit→Poisson pipeline.
    fn phased(&mut self) -> Option<&mut dyn PhasedFieldSolver<G>> {
        None
    }

    /// Identity and size of this solver's model-weight allocation, when
    /// it has one: `(id, bytes)`. Two live solvers report the same `id`
    /// iff they read the same underlying weight storage (an `Arc`-shared
    /// frozen model), so fleet memory accounting can charge each distinct
    /// allocation once. The `id` is only meaningful while the solver is
    /// alive and unmoved (boxed solvers qualify). `None` (the default)
    /// for solvers without model weights.
    fn weight_storage(&self) -> Option<(usize, usize)> {
        None
    }
}

/// A field solver whose solve splits into three phases so that an
/// external scheduler can gather the inference inputs of many concurrent
/// simulations, run them as **one batched inference**, and scatter the
/// results back — the ensemble execution path.
///
/// The contract mirrors [`FieldSolver::solve`] exactly: for any particle
/// state,
///
/// ```text
/// prepare_input(p, grid, &mut row);
/// infer_batch(&row, 1, &mut out);
/// apply_output(&out, e);
/// ```
///
/// must be *bit-identical* to `solve(p, grid, e)` (the DL solvers route
/// their own `solve` through these phases), and row `i` of an `m`-row
/// `infer_batch` must be bit-identical to a 1-row `infer_batch` of that
/// row (guaranteed by the row-stable GEMM kernels underneath).
///
/// Batching across solver instances is only meaningful when the
/// instances hold identical network parameters; the engine's ensemble
/// guarantees that by construction (one engine configures at most one
/// model per dimension) and runs the whole batch through one instance.
pub trait PhasedFieldSolver<G: Geometry = Grid1D> {
    /// Width of one inference input row.
    fn input_len(&self) -> usize;

    /// Width of one inference output row (the stacked field components).
    fn output_len(&self) -> usize;

    /// Phase 1: bins/normalizes the particle state into `dst`
    /// (`input_len` values) — everything `solve` does before the network.
    ///
    /// # Panics
    /// Panics if `dst.len() != self.input_len()`.
    fn prepare_input(&mut self, particles: &G::Particles, grid: &G, dst: &mut [f32]);

    /// Phase 2: one inference over `rows` stacked input rows
    /// (`rows × input_len` values) into `rows × output_len` outputs.
    ///
    /// # Panics
    /// Panics if the slice lengths disagree with `rows` and the widths.
    fn infer_batch(&mut self, input: &[f32], rows: usize, output: &mut [f32]);

    /// Phase 3: writes one output row onto the grid field — everything
    /// `solve` does after the network.
    ///
    /// # Panics
    /// Panics if `row.len() != self.output_len()` or the field width
    /// disagrees with the solver's output.
    fn apply_output(&mut self, row: &[f32], e: &mut [f64]);
}

/// Which Poisson backend a [`TraditionalSolver`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PoissonKind {
    /// Finite-difference + Thomas (the paper's "linear system" route).
    #[default]
    FiniteDifference,
    /// FFT-based exact modal inversion.
    Spectral,
}

/// The traditional field solver: deposit ρ, add the neutralizing ion
/// background, solve Poisson for Φ, take E = −∇Φ.
pub struct TraditionalSolver {
    shape: Shape,
    poisson: Box<dyn PoissonSolver>,
    background: f64,
    rho: Vec<f64>,
    phi: Vec<f64>,
}

impl TraditionalSolver {
    /// Creates a solver with the given deposition shape and Poisson backend.
    /// `background` is the uniform ion charge density (+1 in the paper's
    /// normalized setup).
    pub fn new(shape: Shape, kind: PoissonKind, background: f64) -> Self {
        let poisson: Box<dyn PoissonSolver> = match kind {
            PoissonKind::FiniteDifference => Box::new(FdPoisson::new()),
            PoissonKind::Spectral => Box::new(SpectralPoisson::new()),
        };
        Self {
            shape,
            poisson,
            background,
            rho: Vec::new(),
            phi: Vec::new(),
        }
    }

    /// The paper's defaults: CIC deposition, FD Poisson, unit ion
    /// background.
    pub fn paper_default() -> Self {
        Self::new(Shape::Cic, PoissonKind::FiniteDifference, 1.0)
    }

    /// The "basic NGP scheme" of the paper's §II. This is the variant that
    /// exhibits the cold-beam numerical instability of Fig. 6 most
    /// clearly (NGP has the strongest aliasing/grid-heating of the shape
    /// hierarchy); the figure binaries use it as the traditional baseline.
    pub fn basic_ngp() -> Self {
        Self::new(Shape::Ngp, PoissonKind::FiniteDifference, 1.0)
    }

    /// Most recent charge density (diagnostics; valid after a `solve`).
    pub fn rho(&self) -> &[f64] {
        &self.rho
    }

    /// Most recent potential (diagnostics; valid after a `solve`).
    pub fn phi(&self) -> &[f64] {
        &self.phi
    }

    /// The deposition/gather shape this solver uses.
    pub fn shape(&self) -> Shape {
        self.shape
    }
}

impl FieldSolver for TraditionalSolver {
    fn solve(&mut self, particles: &Particles, grid: &Grid1D, e: &mut [f64]) {
        let n = grid.ncells();
        assert_eq!(e.len(), n, "e length mismatch");
        self.rho.clear();
        self.rho.resize(n, 0.0);
        self.phi.clear();
        self.phi.resize(n, 0.0);
        deposit_charge(particles, grid, self.shape, &mut self.rho);
        add_uniform_background(&mut self.rho, self.background);
        self.poisson.solve(grid, &self.rho, &mut self.phi);
        efield_from_phi(grid, &self.phi, e);
    }

    fn name(&self) -> &'static str {
        "traditional"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sinusoidally displaced (quiet) electron population produces a
    /// first-harmonic E field with the amplitude linear theory predicts:
    /// for displacement ξ = A sin(kx), δρ = -ρ₀·dξ/dx and E = ρ... with
    /// ρ₀ = -1 (electrons): E(x) = -A·sin(k x)·(ρ₀/1)·... Full derivation:
    /// Gauss: dE/dx = ρ_total = -ρ₀·A·k·cos(kx) → E = -ρ₀·A·sin(kx)
    ///       = A·sin(kx) for ρ₀ = -1.
    #[test]
    fn displaced_beam_field_matches_gauss_law() {
        let grid = Grid1D::paper();
        let n_p = 256_000;
        let amp = 1e-3; // displacement amplitude in box units
        let l = grid.length();
        let k = grid.mode_wavenumber(1);
        let xs: Vec<f64> = (0..n_p)
            .map(|i| {
                let x0 = (i as f64 + 0.5) / n_p as f64 * l;
                grid.wrap_position(x0 + amp * l * (k * x0).sin())
            })
            .collect();
        let p = Particles::electrons_normalized(xs, vec![0.0; n_p], l);
        let mut solver = TraditionalSolver::paper_default();
        let mut e = grid.zeros();
        solver.solve(&p, &grid, &mut e);

        let expect_amp = amp * l; // ρ₀ = -1 electrons, ε₀ = 1
        let measured = dlpic_analytics::dft::mode_amplitude(&e, 1);
        assert!(
            (measured - expect_amp).abs() / expect_amp < 0.02,
            "E1 = {measured}, expected ≈ {expect_amp}"
        );
    }

    #[test]
    fn uniform_plasma_has_no_field() {
        let grid = Grid1D::paper();
        let n_p = 64_000;
        let xs: Vec<f64> = (0..n_p)
            .map(|i| (i as f64 + 0.5) / n_p as f64 * grid.length())
            .collect();
        let p = Particles::electrons_normalized(xs, vec![0.0; n_p], grid.length());
        for kind in [PoissonKind::FiniteDifference, PoissonKind::Spectral] {
            let mut solver = TraditionalSolver::new(Shape::Cic, kind, 1.0);
            let mut e = grid.zeros();
            solver.solve(&p, &grid, &mut e);
            let peak = e.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            assert!(peak < 1e-9, "{kind:?}: residual field {peak}");
        }
    }

    #[test]
    fn solver_exposes_rho_and_phi() {
        let grid = Grid1D::paper();
        // 100 particles/cell: a whole multiple of the cell count, so the
        // equispaced load cancels the background exactly under CIC.
        let n = 6_400;
        let p = Particles::electrons_normalized(
            (0..n)
                .map(|i| (i as f64 + 0.5) / n as f64 * grid.length())
                .collect(),
            vec![0.0; n],
            grid.length(),
        );
        let mut solver = TraditionalSolver::paper_default();
        let mut e = grid.zeros();
        solver.solve(&p, &grid, &mut e);
        assert_eq!(solver.rho().len(), 64);
        assert_eq!(solver.phi().len(), 64);
        // Neutralized: rho ≈ 0 everywhere for the uniform load.
        assert!(solver.rho().iter().all(|r| r.abs() < 1e-6));
    }

    #[test]
    fn spectral_and_fd_solvers_give_close_fields() {
        let grid = Grid1D::paper();
        // Mildly non-uniform plasma.
        let n_p = 64_000;
        let l = grid.length();
        let k = grid.mode_wavenumber(1);
        let xs: Vec<f64> = (0..n_p)
            .map(|i| {
                let x0 = (i as f64 + 0.5) / n_p as f64 * l;
                grid.wrap_position(x0 + 2e-3 * l * (k * x0).sin())
            })
            .collect();
        let p = Particles::electrons_normalized(xs, vec![0.0; n_p], l);
        let mut e_fd = grid.zeros();
        let mut e_sp = grid.zeros();
        TraditionalSolver::new(Shape::Cic, PoissonKind::FiniteDifference, 1.0)
            .solve(&p, &grid, &mut e_fd);
        TraditionalSolver::new(Shape::Cic, PoissonKind::Spectral, 1.0).solve(&p, &grid, &mut e_sp);
        let scale = e_sp.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for (a, b) in e_fd.iter().zip(&e_sp) {
            assert!((a - b).abs() < 0.01 * scale + 1e-12);
        }
    }
}
