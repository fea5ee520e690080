//! Periodic 2-D Poisson solvers: `∇²Φ = −ρ/ε₀` with `ε₀ = 1`.
//!
//! Two backends, mirroring the 1-D crate's FD/spectral pair:
//!
//! * `SpectralPoisson2D` — exact modal inversion
//!   `Φ̂(k) = ρ̂(k)/|k|²` via the separable 2-D FFT. Requires power-of-two
//!   grid dimensions.
//! * `SorPoisson2D` — red–black successive over-relaxation on the
//!   5-point Laplacian; works for any grid size and is the "linear system"
//!   route the paper's §II describes, generalized to 2-D.
//!
//! Both gauge Φ to zero mean and require a compatible (zero-mean) charge
//! density, which the neutralizing ion background guarantees.

use crate::grid2d::Grid2D;
use dlpic_analytics::complex::Complex64;
use dlpic_analytics::dft::is_power_of_two;
use dlpic_analytics::dft2::{fft2_in_place_scratch, ifft2_in_place_scratch};

/// Common interface of the 2-D Poisson backends.
pub trait Poisson2DSolver: Send {
    /// Solves `∇²Φ = −ρ` on the grid, writing the zero-mean potential into
    /// `phi`.
    fn solve(&mut self, grid: &Grid2D, rho: &[f64], phi: &mut [f64]);

    /// Backend name for logs and benches.
    fn name(&self) -> &'static str;
}

/// Which 2-D Poisson backend a solver should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Poisson2DKind {
    /// FFT-based exact modal inversion.
    #[default]
    Spectral,
    /// Red–black SOR iteration on the 5-point stencil.
    Sor,
}

/// FFT-based periodic Poisson solver.
#[derive(Debug, Default)]
struct SpectralPoisson2D {
    scratch: Vec<Complex64>,
    col: Vec<Complex64>,
}

impl SpectralPoisson2D {
    /// Creates a solver (scratch buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

impl Poisson2DSolver for SpectralPoisson2D {
    fn solve(&mut self, grid: &Grid2D, rho: &[f64], phi: &mut [f64]) {
        let (nx, ny) = (grid.nx(), grid.ny());
        assert_eq!(rho.len(), grid.nodes(), "rho length mismatch");
        assert_eq!(phi.len(), grid.nodes(), "phi length mismatch");
        assert!(
            is_power_of_two(nx) && is_power_of_two(ny),
            "spectral solver needs power-of-two dimensions, got {nx}×{ny}"
        );

        self.scratch.clear();
        self.scratch
            .extend(rho.iter().map(|&r| Complex64::new(r, 0.0)));
        fft2_in_place_scratch(&mut self.scratch, nx, ny, &mut self.col);

        // ∇²Φ = −ρ ⇒ Φ̂ = ρ̂ / |k|²; the mean (k = 0) mode is gauged away.
        for my in 0..ny {
            let ky = signed_wavenumber(my, ny, grid.ly());
            for mx in 0..nx {
                let idx = my * nx + mx;
                if mx == 0 && my == 0 {
                    self.scratch[idx] = Complex64::ZERO;
                    continue;
                }
                let kx = signed_wavenumber(mx, nx, grid.lx());
                let k2 = kx * kx + ky * ky;
                self.scratch[idx] = self.scratch[idx].scale(1.0 / k2);
            }
        }

        ifft2_in_place_scratch(&mut self.scratch, nx, ny, &mut self.col);
        for (out, c) in phi.iter_mut().zip(&self.scratch) {
            *out = c.re;
        }
    }

    fn name(&self) -> &'static str {
        "spectral-2d"
    }
}

/// Signed physical wavenumber of FFT bin `m` (bins above `n/2` are
/// negative frequencies).
fn signed_wavenumber(m: usize, n: usize, length: f64) -> f64 {
    let m_signed = if m <= n / 2 {
        m as f64
    } else {
        m as f64 - n as f64
    };
    2.0 * std::f64::consts::PI * m_signed / length
}

/// Red–black SOR solver for the 5-point periodic Laplacian.
#[derive(Debug, Clone)]
struct SorPoisson2D {
    /// Convergence threshold on the max-norm residual of `∇²Φ + ρ`
    /// relative to the max-norm of `ρ`.
    pub tolerance: f64,
    /// Hard iteration cap.
    pub max_iters: usize,
    /// Over-relaxation factor; `None` picks the optimal value for the
    /// grid (`2/(1 + sin(π·h))` with `h = min(dx, dy)/max(lx, ly)`-style
    /// estimate from the smallest resolved mode).
    pub omega: Option<f64>,
}

impl Default for SorPoisson2D {
    fn default() -> Self {
        Self {
            tolerance: 1e-10,
            max_iters: 20_000,
            omega: None,
        }
    }
}

impl SorPoisson2D {
    /// Creates a solver with default tolerance (1e-10) and iteration cap.
    pub fn new() -> Self {
        Self::default()
    }

    fn effective_omega(&self, grid: &Grid2D) -> f64 {
        self.omega.unwrap_or_else(|| {
            // Classic optimal SOR estimate from the Jacobi spectral
            // radius of the periodic 5-point stencil: the slowest mode is
            // the fundamental, ρ_J ≈ (cos(2π/nx) + cos(2π/ny))/2 for a
            // square-cell grid; use the general weighted form.
            let (dx2, dy2) = (grid.dx() * grid.dx(), grid.dy() * grid.dy());
            let denom = 2.0 * (1.0 / dx2 + 1.0 / dy2);
            let cx = (2.0 * std::f64::consts::PI / grid.nx() as f64).cos();
            let cy = (2.0 * std::f64::consts::PI / grid.ny() as f64).cos();
            let rho_j = (2.0 / dx2 * cx + 2.0 / dy2 * cy) / denom;
            2.0 / (1.0 + (1.0 - rho_j * rho_j).max(0.0).sqrt())
        })
    }
}

impl Poisson2DSolver for SorPoisson2D {
    fn solve(&mut self, grid: &Grid2D, rho: &[f64], phi: &mut [f64]) {
        let (nx, ny) = (grid.nx(), grid.ny());
        assert_eq!(rho.len(), grid.nodes(), "rho length mismatch");
        assert_eq!(phi.len(), grid.nodes(), "phi length mismatch");

        // Enforce compatibility: subtract the mean charge (the physical
        // setup is neutral; any residual mean is deposition round-off).
        let mean_rho = rho.iter().sum::<f64>() / rho.len() as f64;
        let rho_scale = rho
            .iter()
            .map(|r| (r - mean_rho).abs())
            .fold(0.0f64, f64::max)
            .max(1e-300);

        phi.fill(0.0);
        let (dx2, dy2) = (grid.dx() * grid.dx(), grid.dy() * grid.dy());
        let diag = 2.0 * (1.0 / dx2 + 1.0 / dy2);
        let omega = self.effective_omega(grid);

        for _iter in 0..self.max_iters {
            // Red–black ordering keeps the sweep a proper SOR iteration
            // under periodic wrap.
            for color in 0..2 {
                for iy in 0..ny {
                    let up = grid.wrap_iy(iy as i64 + 1) * nx;
                    let down = grid.wrap_iy(iy as i64 - 1) * nx;
                    let row = iy * nx;
                    for ix in ((iy + color) % 2..nx).step_by(2) {
                        let left = grid.wrap_ix(ix as i64 - 1);
                        let right = grid.wrap_ix(ix as i64 + 1);
                        let nb = (phi[row + left] + phi[row + right]) / dx2
                            + (phi[down + ix] + phi[up + ix]) / dy2;
                        // ∇²Φ = −ρ ⇒ diag·Φ = nb + ρ (ρ already has the
                        // sign convention folded in).
                        let gs = (nb + (rho[row + ix] - mean_rho)) / diag;
                        let idx = row + ix;
                        phi[idx] += omega * (gs - phi[idx]);
                    }
                }
            }

            // Convergence check on the residual (cheap relative to the
            // sweeps at these grid sizes; checked every iteration to keep
            // the solve deterministic in accuracy, not iteration count).
            let mut max_res = 0.0f64;
            for iy in 0..ny {
                let up = grid.wrap_iy(iy as i64 + 1) * nx;
                let down = grid.wrap_iy(iy as i64 - 1) * nx;
                let row = iy * nx;
                for ix in 0..nx {
                    let left = grid.wrap_ix(ix as i64 - 1);
                    let right = grid.wrap_ix(ix as i64 + 1);
                    let lap = (phi[row + left] - 2.0 * phi[row + ix] + phi[row + right]) / dx2
                        + (phi[down + ix] - 2.0 * phi[row + ix] + phi[up + ix]) / dy2;
                    let res = lap + (rho[row + ix] - mean_rho);
                    max_res = max_res.max(res.abs());
                }
            }
            if max_res <= self.tolerance * rho_scale {
                break;
            }
        }

        // Zero-mean gauge, matching the spectral backend.
        let mean_phi = phi.iter().sum::<f64>() / phi.len() as f64;
        for p in phi.iter_mut() {
            *p -= mean_phi;
        }
    }

    fn name(&self) -> &'static str {
        "sor-2d"
    }
}

/// Constructs the requested backend.
pub fn make_solver(kind: Poisson2DKind) -> Box<dyn Poisson2DSolver> {
    match kind {
        Poisson2DKind::Spectral => Box::new(SpectralPoisson2D::new()),
        Poisson2DKind::Sor => Box::new(SorPoisson2D::new()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    /// Builds ρ = (kx² + ky²)·cos(kx·x)·cos(ky·y), whose exact solution is
    /// Φ = cos(kx·x)·cos(ky·y).
    fn manufactured(grid: &Grid2D, mx: usize, my: usize) -> (Vec<f64>, Vec<f64>) {
        let kx = grid.mode_wavenumber_x(mx);
        let ky = grid.mode_wavenumber_y(my);
        let k2 = kx * kx + ky * ky;
        let mut rho = grid.zeros();
        let mut exact = grid.zeros();
        for iy in 0..grid.ny() {
            let y = iy as f64 * grid.dy();
            for ix in 0..grid.nx() {
                let x = ix as f64 * grid.dx();
                let phi = (kx * x).cos() * (ky * y).cos();
                exact[grid.index(ix, iy)] = phi;
                rho[grid.index(ix, iy)] = k2 * phi;
            }
        }
        (rho, exact)
    }

    #[test]
    fn spectral_reproduces_manufactured_solution() {
        let grid = Grid2D::new(32, 32, 2.0, 3.0);
        let (rho, exact) = manufactured(&grid, 2, 1);
        let mut phi = grid.zeros();
        SpectralPoisson2D::new().solve(&grid, &rho, &mut phi);
        for (p, e) in phi.iter().zip(&exact) {
            assert!((p - e).abs() < 1e-10, "{p} vs {e}");
        }
    }

    #[test]
    fn sor_converges_to_discrete_solution() {
        let grid = Grid2D::new(16, 16, 2.0, 2.0);
        let (rho, _) = manufactured(&grid, 1, 1);
        let mut phi = grid.zeros();
        SorPoisson2D::new().solve(&grid, &rho, &mut phi);
        // Verify against the *discrete* operator: the 5-point Laplacian of
        // the answer must equal −ρ to the solver tolerance.
        let (dx2, dy2) = (grid.dx() * grid.dx(), grid.dy() * grid.dy());
        for iy in 0..grid.ny() {
            for ix in 0..grid.nx() {
                let l = grid.index(grid.wrap_ix(ix as i64 - 1), iy);
                let r = grid.index(grid.wrap_ix(ix as i64 + 1), iy);
                let d = grid.index(ix, grid.wrap_iy(iy as i64 - 1));
                let u = grid.index(ix, grid.wrap_iy(iy as i64 + 1));
                let c = grid.index(ix, iy);
                let lap =
                    (phi[l] - 2.0 * phi[c] + phi[r]) / dx2 + (phi[d] - 2.0 * phi[c] + phi[u]) / dy2;
                assert!(
                    (lap + rho[c]).abs() < 1e-7,
                    "node ({ix},{iy}): residual {}",
                    lap + rho[c]
                );
            }
        }
    }

    #[test]
    fn backends_agree_on_smooth_input() {
        // On a smooth low-mode field the FD discretization error is small,
        // so both backends should produce close potentials.
        let grid = Grid2D::new(64, 64, 2.0, 2.0);
        let (rho, _) = manufactured(&grid, 1, 1);
        let mut phi_s = grid.zeros();
        let mut phi_f = grid.zeros();
        SpectralPoisson2D::new().solve(&grid, &rho, &mut phi_s);
        SorPoisson2D::new().solve(&grid, &rho, &mut phi_f);
        let scale = phi_s.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for (a, b) in phi_s.iter().zip(&phi_f) {
            assert!((a - b).abs() < 0.01 * scale, "{a} vs {b}");
        }
    }

    #[test]
    fn zero_charge_gives_zero_potential() {
        let grid = Grid2D::new(16, 8, 1.0, 1.0);
        let rho = grid.zeros();
        for kind in [Poisson2DKind::Spectral, Poisson2DKind::Sor] {
            let mut phi = vec![1.0; grid.nodes()];
            make_solver(kind).solve(&grid, &rho, &mut phi);
            assert!(phi.iter().all(|p| p.abs() < 1e-12), "{kind:?}");
        }
    }

    #[test]
    fn solutions_are_zero_mean() {
        let grid = Grid2D::new(16, 16, 2.0, 2.0);
        let mut rho = grid.zeros();
        // A dipole-ish compatible charge.
        for iy in 0..16 {
            for ix in 0..16 {
                rho[grid.index(ix, iy)] =
                    (2.0 * PI * ix as f64 / 16.0).sin() + (2.0 * PI * iy as f64 / 16.0).cos();
            }
        }
        for kind in [Poisson2DKind::Spectral, Poisson2DKind::Sor] {
            let mut phi = grid.zeros();
            make_solver(kind).solve(&grid, &rho, &mut phi);
            let mean = phi.iter().sum::<f64>() / phi.len() as f64;
            assert!(mean.abs() < 1e-10, "{kind:?}: mean {mean}");
        }
    }

    #[test]
    fn sor_handles_incompatible_mean_gracefully() {
        // A net-charge input (mean ≠ 0) has no periodic solution; the
        // solver subtracts the mean and solves the compatible part.
        let grid = Grid2D::new(8, 8, 1.0, 1.0);
        let (mut rho, _) = manufactured(&grid, 1, 0);
        for r in rho.iter_mut() {
            *r += 5.0;
        }
        let mut phi = grid.zeros();
        SorPoisson2D::new().solve(&grid, &rho, &mut phi);
        assert!(phi.iter().all(|p| p.is_finite()));
        let peak = phi.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        assert!(peak > 1e-6, "compatible part was solved, peak {peak}");
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn spectral_rejects_odd_grids() {
        let grid = Grid2D::new(12, 8, 1.0, 1.0);
        let rho = grid.zeros();
        let mut phi = grid.zeros();
        SpectralPoisson2D::new().solve(&grid, &rho, &mut phi);
    }
}
