//! The traditional 2-D field solver behind the shared
//! [`FieldSolver`] seam (`FieldSolver<Grid2D>`; the DL 2-D solver in
//! `dlpic-core` implements the same instantiation).

use crate::deposit2d::{add_uniform_background, deposit_charge};
use crate::efield2d::efield_from_phi;
use crate::grid2d::Grid2D;
use crate::particles2d::Particles2D;
use crate::poisson2d::{make_solver, Poisson2DKind, Poisson2DSolver};
use dlpic_pic::shape::Shape;
use dlpic_pic::solver::FieldSolver;

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

impl FieldSolver<Grid2D> for TraditionalSolver2D {
    fn solve(&mut self, particles: &Particles2D, grid: &Grid2D, e: &mut [f64]) {
        let n = grid.nodes();
        assert_eq!(e.len(), 2 * n, "stacked field length mismatch");
        let (ex, ey) = e.split_at_mut(n);
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

    /// One solve into a stacked field, handed back as `(Ex, Ey)`.
    fn solve(
        mut solver: TraditionalSolver2D,
        p: &Particles2D,
        grid: &Grid2D,
    ) -> (Vec<f64>, Vec<f64>) {
        let mut ex = vec![0.0; 2 * grid.nodes()];
        solver.solve(p, grid, &mut ex);
        let ey = ex.split_off(grid.nodes());
        (ex, ey)
    }

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
        let (ex, ey) = solve(TraditionalSolver2D::default_config(), &p, &grid);

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
            let (ex, ey) = solve(TraditionalSolver2D::new(Shape::Cic, kind, 1.0), &p, &grid);
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
        solver.solve(&p, &grid, &mut vec![0.0; 2 * grid.nodes()]);
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
        let spectral = TraditionalSolver2D::new(Shape::Cic, Poisson2DKind::Spectral, 1.0);
        let sor = TraditionalSolver2D::new(Shape::Cic, Poisson2DKind::Sor, 1.0);
        let (ex_s, _) = solve(spectral, &p, &grid);
        let (ex_f, _) = solve(sor, &p, &grid);
        let scale = ex_s.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for (a, b) in ex_s.iter().zip(&ex_f) {
            assert!((a - b).abs() < 0.02 * scale + 1e-12);
        }
    }
}
