//! The 2-D field-solver abstraction — the seam where a DL 2-D field
//! solver plugs in, mirroring the 1-D `FieldSolver` trait.

use crate::deposit2d::{add_uniform_background, deposit_charge};
use crate::efield2d::efield_from_phi;
use crate::grid2d::Grid2D;
use crate::particles2d::Particles2D;
use crate::poisson2d::{make_solver, Poisson2DKind, Poisson2DSolver};
use dlpic_pic::shape::Shape;

/// Computes the node electric field from the 2-D particle state.
pub trait FieldSolver2D: Send {
    /// Fills `ex`/`ey` (length = grid nodes) from the particle state.
    fn solve(&mut self, particles: &Particles2D, grid: &Grid2D, ex: &mut [f64], ey: &mut [f64]);

    /// Human-readable name for logs/benchmarks.
    fn name(&self) -> &'static str;

    /// The phase-split view of this solver, when its `solve` decomposes
    /// into prepare-input / infer / apply-output stages an external
    /// driver can batch across many simulations (the DL solver). `None`
    /// (the default) for monolithic solvers.
    fn phased(&mut self) -> Option<&mut dyn PhasedFieldSolver2D> {
        None
    }

    /// Identity and size of this solver's model-weight allocation, when
    /// it has one: `(id, bytes)`, with the same contract as
    /// `dlpic_pic::solver::FieldSolver::weight_storage` — equal ids mean
    /// one shared allocation, and fleet accounting charges each distinct
    /// id once. `None` (the default) for solvers without model weights.
    fn weight_storage(&self) -> Option<(usize, usize)> {
        None
    }
}

/// The 2-D analogue of `dlpic_pic::solver::PhasedFieldSolver`: a field
/// solve split into prepare / batched-infer / apply phases, with the same
/// bit-identity contract (prepare + 1-row infer + apply ≡ `solve`; row
/// `i` of an `m`-row infer ≡ a 1-row infer of that row).
pub trait PhasedFieldSolver2D {
    /// Width of one inference input row.
    fn input_len(&self) -> usize;

    /// Width of one inference output row (`[Ex | Ey]` stacked).
    fn output_len(&self) -> usize;

    /// Phase 1: bins/normalizes the particle state into `dst`.
    fn prepare_input(&mut self, particles: &Particles2D, grid: &Grid2D, dst: &mut [f32]);

    /// Phase 2: one inference over `rows` stacked input rows.
    fn infer_batch(&mut self, input: &[f32], rows: usize, output: &mut [f32]);

    /// Phase 3: writes one stacked `[Ex | Ey]` output row onto the grid.
    fn apply_output(&mut self, row: &[f32], ex: &mut [f64], ey: &mut [f64]);
}

/// The traditional 2-D field solver: deposit ρ, add the neutralizing ion
/// background, solve Poisson for Φ, take `E = −∇Φ`.
pub struct TraditionalSolver2D {
    shape: Shape,
    poisson: Box<dyn Poisson2DSolver>,
    background: f64,
    rho: Vec<f64>,
    phi: Vec<f64>,
}

impl TraditionalSolver2D {
    /// Creates a solver with the given deposition shape and Poisson
    /// backend; `background` is the uniform ion charge density.
    pub fn new(shape: Shape, kind: Poisson2DKind, background: f64) -> Self {
        Self {
            shape,
            poisson: make_solver(kind),
            background,
            rho: Vec::new(),
            phi: Vec::new(),
        }
    }

    /// The extension default: CIC deposition, spectral Poisson, unit ion
    /// background.
    pub fn default_config() -> Self {
        Self::new(Shape::Cic, Poisson2DKind::Spectral, 1.0)
    }

    /// Most recent charge density (valid after a `solve`).
    pub fn rho(&self) -> &[f64] {
        &self.rho
    }

    /// Most recent potential (valid after a `solve`).
    pub fn phi(&self) -> &[f64] {
        &self.phi
    }

    /// The deposition shape this solver uses.
    pub fn shape(&self) -> Shape {
        self.shape
    }
}

impl FieldSolver2D for TraditionalSolver2D {
    fn solve(&mut self, particles: &Particles2D, grid: &Grid2D, ex: &mut [f64], ey: &mut [f64]) {
        let n = grid.nodes();
        assert_eq!(ex.len(), n, "ex length mismatch");
        assert_eq!(ey.len(), n, "ey length mismatch");
        self.rho.clear();
        self.rho.resize(n, 0.0);
        self.phi.clear();
        self.phi.resize(n, 0.0);
        deposit_charge(particles, grid, self.shape, &mut self.rho);
        add_uniform_background(&mut self.rho, self.background);
        self.poisson.solve(grid, &self.rho, &mut self.phi);
        efield_from_phi(grid, &self.phi, ex, ey);
    }

    fn name(&self) -> &'static str {
        "traditional-2d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A quiet electron lattice displaced sinusoidally along `x` produces
    /// the Gauss-law field `Ex = A·lx·sin(kx·x)`, independent of `y`
    /// (same derivation as the 1-D crate's test, per unit ρ₀ = −1).
    #[test]
    fn displaced_lattice_field_matches_gauss_law() {
        let grid = Grid2D::new(32, 32, 2.0532, 2.0532);
        let per_axis = 192;
        let amp = 1e-3;
        let k = grid.mode_wavenumber_x(1);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for j in 0..per_axis {
            for i in 0..per_axis {
                let x0 = (i as f64 + 0.5) / per_axis as f64 * grid.lx();
                let y0 = (j as f64 + 0.5) / per_axis as f64 * grid.ly();
                xs.push(grid.wrap_x(x0 + amp * grid.lx() * (k * x0).sin()));
                ys.push(y0);
            }
        }
        let n = xs.len();
        let p = Particles2D::electrons_normalized(xs, ys, vec![0.0; n], vec![0.0; n], grid.area());
        let mut solver = TraditionalSolver2D::default_config();
        let mut ex = grid.zeros();
        let mut ey = grid.zeros();
        solver.solve(&p, &grid, &mut ex, &mut ey);

        let expect = amp * grid.lx();
        let measured = crate::diagnostics2d::field_mode_amplitude(&ex, &grid, 1, 0);
        assert!(
            (measured - expect).abs() / expect < 0.02,
            "Ex(1,0) = {measured}, expected ≈ {expect}"
        );
        // No y-dynamics: Ey stays at noise level.
        let ey_peak = ey.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        assert!(ey_peak < 0.05 * expect, "Ey peak {ey_peak}");
    }

    #[test]
    fn uniform_plasma_has_no_field() {
        let grid = Grid2D::new(16, 16, 2.0, 2.0);
        let per_axis = 64;
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for j in 0..per_axis {
            for i in 0..per_axis {
                xs.push((i as f64 + 0.5) / per_axis as f64 * grid.lx());
                ys.push((j as f64 + 0.5) / per_axis as f64 * grid.ly());
            }
        }
        let n = xs.len();
        let p = Particles2D::electrons_normalized(xs, ys, vec![0.0; n], vec![0.0; n], grid.area());
        for kind in [Poisson2DKind::Spectral, Poisson2DKind::Sor] {
            let mut solver = TraditionalSolver2D::new(Shape::Cic, kind, 1.0);
            let mut ex = grid.zeros();
            let mut ey = grid.zeros();
            solver.solve(&p, &grid, &mut ex, &mut ey);
            let peak = ex
                .iter()
                .chain(ey.iter())
                .fold(0.0f64, |m, v| m.max(v.abs()));
            assert!(peak < 1e-9, "{kind:?}: residual field {peak}");
        }
    }

    #[test]
    fn solver_exposes_rho_and_phi() {
        let grid = Grid2D::new(8, 8, 2.0, 2.0);
        let n = 1024;
        let per_axis = 32;
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for j in 0..per_axis {
            for i in 0..per_axis {
                xs.push((i as f64 + 0.5) / per_axis as f64 * grid.lx());
                ys.push((j as f64 + 0.5) / per_axis as f64 * grid.ly());
            }
        }
        let p = Particles2D::electrons_normalized(xs, ys, vec![0.0; n], vec![0.0; n], grid.area());
        let mut solver = TraditionalSolver2D::default_config();
        let mut ex = grid.zeros();
        let mut ey = grid.zeros();
        solver.solve(&p, &grid, &mut ex, &mut ey);
        assert_eq!(solver.rho().len(), 64);
        assert_eq!(solver.phi().len(), 64);
        assert!(solver.rho().iter().all(|r| r.abs() < 1e-9));
    }

    #[test]
    fn spectral_and_sor_fields_agree() {
        let grid = Grid2D::new(16, 16, 2.0, 2.0);
        // Mildly perturbed lattice.
        let per_axis = 64;
        let k = grid.mode_wavenumber_x(1);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for j in 0..per_axis {
            for i in 0..per_axis {
                let x0 = (i as f64 + 0.5) / per_axis as f64 * grid.lx();
                xs.push(grid.wrap_x(x0 + 2e-3 * grid.lx() * (k * x0).sin()));
                ys.push((j as f64 + 0.5) / per_axis as f64 * grid.ly());
            }
        }
        let n = xs.len();
        let p = Particles2D::electrons_normalized(xs, ys, vec![0.0; n], vec![0.0; n], grid.area());
        let mut ex_s = grid.zeros();
        let mut ey_s = grid.zeros();
        let mut ex_f = grid.zeros();
        let mut ey_f = grid.zeros();
        TraditionalSolver2D::new(Shape::Cic, Poisson2DKind::Spectral, 1.0)
            .solve(&p, &grid, &mut ex_s, &mut ey_s);
        TraditionalSolver2D::new(Shape::Cic, Poisson2DKind::Sor, 1.0)
            .solve(&p, &grid, &mut ex_f, &mut ey_f);
        let scale = ex_s.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for (a, b) in ex_s.iter().zip(&ex_f) {
            assert!((a - b).abs() < 0.02 * scale + 1e-12);
        }
    }
}
