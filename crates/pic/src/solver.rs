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
//! Both traits and [`TraditionalSolver`] are written once over a
//! [`Geometry`] that defaults to [`Grid1D`]: `dyn FieldSolver` is the 1-D
//! seam, `dyn FieldSolver<Grid2D>` the 2-D one, with the field one flat
//! buffer of stacked components in either.

use crate::deposit::add_uniform_background;
use crate::geometry::Geometry;
use crate::grid::Grid1D;
use crate::grid::Grid2D;
use crate::poisson::PoissonSolver;
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

/// Which Poisson backend a [`TraditionalSolver`] uses; each
/// [`Geometry`] builds its own ([`Geometry::poisson`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PoissonKind {
    /// The paper's "linear system" route: finite differences + Thomas in
    /// 1-D, red–black SOR on the 5-point stencil in 2-D.
    #[default]
    FiniteDifference,
    /// FFT-based exact modal inversion (power-of-two grids only).
    Spectral,
}

/// The traditional field solver: deposit ρ, add the neutralizing ion
/// background, solve Poisson for Φ, take E = −∇Φ.
pub struct TraditionalSolver<G: Geometry = Grid1D> {
    shape: Shape,
    poisson: Box<dyn PoissonSolver<G>>,
    background: f64,
    rho: Vec<f64>,
    phi: Vec<f64>,
}

impl<G: Geometry> TraditionalSolver<G> {
    /// Creates a solver with the given deposition shape and Poisson backend.
    /// `background` is the uniform ion charge density (+1 in the paper's
    /// normalized setup).
    pub fn new(shape: Shape, kind: PoissonKind, background: f64) -> Self {
        Self {
            shape,
            poisson: G::poisson(kind),
            background,
            rho: Vec::new(),
            phi: Vec::new(),
        }
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

impl TraditionalSolver {
    /// The paper's defaults: CIC deposition, FD Poisson, unit ion
    /// background.
    pub fn paper_default() -> Self {
        Self::new(Shape::Cic, PoissonKind::FiniteDifference, 1.0)
    }
}

impl TraditionalSolver<Grid2D> {
    /// The 2-D extension default: CIC deposition, spectral Poisson, unit
    /// ion background.
    pub fn default_config() -> Self {
        Self::new(Shape::Cic, PoissonKind::Spectral, 1.0)
    }
}

impl<G: Geometry> FieldSolver<G> for TraditionalSolver<G> {
    fn solve(&mut self, particles: &G::Particles, grid: &G, e: &mut [f64]) {
        let n = grid.nodes();
        assert_eq!(
            e.len(),
            G::FIELD_NAMES.len() * n,
            "stacked field length mismatch"
        );
        self.rho.clear();
        self.rho.resize(n, 0.0);
        self.phi.clear();
        self.phi.resize(n, 0.0);
        grid.deposit(particles, self.shape, &mut self.rho);
        add_uniform_background(&mut self.rho, self.background);
        self.poisson.solve(grid, &self.rho, &mut self.phi);
        grid.gradient(&self.phi, e);
    }

    fn name(&self) -> &'static str {
        G::TRADITIONAL_NAME
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::particles::Particles;
    use crate::particles::Particles2D;

    /// An equispaced (quiet) 1-D electron load of `n` particles, displaced
    /// by `amp·L·sin(k₁x)`.
    fn beam(grid: &Grid1D, n: usize, amp: f64) -> Particles {
        let l = grid.lx();
        let k = grid.mode_wavenumber(1);
        let xs = (0..n)
            .map(|i| {
                let x0 = (i as f64 + 0.5) / n as f64 * l;
                grid.wrap_x(x0 + amp * l * (k * x0).sin())
            })
            .collect();
        Particles::electrons_normalized([xs], [vec![0.0; n]], l)
    }

    /// A quiet 2-D electron lattice of `per_axis²` particles, displaced
    /// along `x` by `amp·lx·sin(kx·x)` and uniform in `y`.
    fn lattice(grid: &Grid2D, per_axis: usize, amp: f64) -> Particles2D {
        let k = grid.mode_wavenumber(1);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for j in 0..per_axis {
            for i in 0..per_axis {
                let x0 = (i as f64 + 0.5) / per_axis as f64 * grid.lx();
                xs.push(grid.wrap_x(x0 + amp * grid.lx() * (k * x0).sin()));
                ys.push((j as f64 + 0.5) / per_axis as f64 * grid.ly());
            }
        }
        let n = xs.len();
        Particles2D::electrons_normalized([xs, ys], [vec![0.0; n], vec![0.0; n]], grid.volume())
    }

    /// One solve into a fresh stacked field.
    fn solve<G: Geometry>(
        mut solver: TraditionalSolver<G>,
        p: &G::Particles,
        grid: &G,
    ) -> Vec<f64> {
        let mut e = vec![0.0; G::FIELD_NAMES.len() * grid.nodes()];
        solver.solve(p, grid, &mut e);
        e
    }

    fn peak(v: &[f64]) -> f64 {
        v.iter().fold(0.0f64, |m, x| m.max(x.abs()))
    }

    /// A sinusoidally displaced (quiet) electron population produces a
    /// first-harmonic E field with the amplitude linear theory predicts:
    /// for displacement ξ = A sin(kx), δρ = -ρ₀·dξ/dx and E = ρ... with
    /// ρ₀ = -1 (electrons): E(x) = -A·sin(k x)·(ρ₀/1)·... Full derivation:
    /// Gauss: dE/dx = ρ_total = -ρ₀·A·k·cos(kx) → E = -ρ₀·A·sin(kx)
    ///       = A·sin(kx) for ρ₀ = -1.
    #[test]
    fn displaced_beam_field_matches_gauss_law() {
        let grid = Grid1D::paper();
        let amp = 1e-3; // displacement amplitude in box units
        let p = beam(&grid, 256_000, amp);
        let e = solve(TraditionalSolver::paper_default(), &p, &grid);

        let expect_amp = amp * grid.lx(); // ρ₀ = -1 electrons, ε₀ = 1
        let measured = dlpic_analytics::dft::mode_amplitude(&e, 1);
        assert!(
            (measured - expect_amp).abs() / expect_amp < 0.02,
            "E1 = {measured}, expected ≈ {expect_amp}"
        );
    }

    /// The 2-D analogue: a lattice displaced along `x` produces the
    /// Gauss-law field `Ex = A·lx·sin(kx·x)`, independent of `y`.
    #[test]
    fn displaced_lattice_field_matches_gauss_law() {
        let grid = Grid2D::new(32, 32, 2.0532, 2.0532);
        let amp = 1e-3;
        let p = lattice(&grid, 192, amp);
        let e = solve(TraditionalSolver::default_config(), &p, &grid);
        let ey = &e[grid.nodes()..];

        let expect = amp * grid.lx();
        let measured = grid.mode_amplitude(&e, (1, 0));
        assert!(
            (measured - expect).abs() / expect < 0.02,
            "Ex(1,0) = {measured}, expected ≈ {expect}"
        );
        // No y-dynamics: Ey stays at noise level.
        assert!(peak(ey) < 0.05 * expect, "Ey peak {}", peak(ey));
    }

    /// No field from a uniform load, whichever Poisson backend solves.
    fn uniform_plasma_has_no_field_on<G: Geometry>(p: &G::Particles, grid: &G) {
        for kind in [PoissonKind::FiniteDifference, PoissonKind::Spectral] {
            let e = solve(TraditionalSolver::new(Shape::Cic, kind, 1.0), p, grid);
            assert!(peak(&e) < 1e-9, "{kind:?}: residual field {}", peak(&e));
        }
    }

    #[test]
    fn uniform_plasma_has_no_field() {
        let grid = Grid1D::paper();
        uniform_plasma_has_no_field_on(&beam(&grid, 64_000, 0.0), &grid);
    }

    #[test]
    fn uniform_plasma_has_no_field_2d() {
        let grid = Grid2D::new(16, 16, 2.0, 2.0);
        uniform_plasma_has_no_field_on(&lattice(&grid, 64, 0.0), &grid);
    }

    /// After a solve of a load that cancels the background to within
    /// `tol`, ρ and Φ are exposed at the grid's 64 nodes.
    fn solver_exposes_rho_and_phi_on<G: Geometry>(
        mut solver: TraditionalSolver<G>,
        p: &G::Particles,
        grid: &G,
        tol: f64,
    ) {
        solver.solve(p, grid, &mut vec![0.0; G::FIELD_NAMES.len() * grid.nodes()]);
        assert_eq!(solver.rho().len(), 64);
        assert_eq!(solver.phi().len(), 64);
        // Neutralized: rho ≈ 0 everywhere for the uniform load.
        assert!(solver.rho().iter().all(|r| r.abs() < tol));
    }

    #[test]
    fn solver_exposes_rho_and_phi() {
        let grid = Grid1D::paper();
        // 100 particles/cell: a whole multiple of the cell count, so the
        // equispaced load cancels the background exactly under CIC.
        let p = beam(&grid, 6_400, 0.0);
        solver_exposes_rho_and_phi_on(TraditionalSolver::paper_default(), &p, &grid, 1e-6);
    }

    #[test]
    fn solver_exposes_rho_and_phi_2d() {
        let grid = Grid2D::new(8, 8, 2.0, 2.0);
        let p = lattice(&grid, 32, 0.0);
        solver_exposes_rho_and_phi_on(TraditionalSolver::default_config(), &p, &grid, 1e-9);
    }

    /// The first field component of the finite-difference and spectral
    /// backends agrees to `rel` of its peak on a mildly non-uniform plasma.
    fn fd_and_spectral_fields_agree<G: Geometry>(p: &G::Particles, grid: &G, rel: f64) {
        let fd = TraditionalSolver::new(Shape::Cic, PoissonKind::FiniteDifference, 1.0);
        let sp = TraditionalSolver::new(Shape::Cic, PoissonKind::Spectral, 1.0);
        let (fd, sp) = (solve(fd, p, grid), solve(sp, p, grid));
        let (fd, sp) = (&fd[..grid.nodes()], &sp[..grid.nodes()]);
        let scale = peak(sp);
        for (a, b) in fd.iter().zip(sp) {
            assert!((a - b).abs() < rel * scale + 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn spectral_and_fd_solvers_give_close_fields() {
        let grid = Grid1D::paper();
        fd_and_spectral_fields_agree(&beam(&grid, 64_000, 2e-3), &grid, 0.01);
    }

    /// In 2-D the finite-difference backend is red–black SOR.
    #[test]
    fn spectral_and_sor_fields_agree() {
        let grid = Grid2D::new(16, 16, 2.0, 2.0);
        fd_and_spectral_fields_agree(&lattice(&grid, 64, 2e-3), &grid, 0.02);
    }
}
