//! Periodic Poisson solvers: `∇²Φ = −ρ/ε₀` (paper Eq. 3, ε₀ = 1).
//!
//! Two interchangeable solvers:
//!
//! * [`FdPoisson`] — the "finite difference numerical scheme that requires
//!   the solution of a linear system" of the paper's §II: second-order
//!   central differences, solved by the Thomas algorithm after gauge
//!   pinning (the periodic Laplacian is singular; we fix Φ₀ = 0, solve the
//!   remaining tridiagonal system, and re-center Φ to zero mean). The
//!   dropped equation is satisfied automatically because the mean-free
//!   right-hand side makes the system compatible.
//! * [`SpectralPoisson`] — exact inversion mode-by-mode via FFT,
//!   `Φ_k = ρ_k/k²`; used as a cross-check and as the fast path in
//!   benchmarks.
//!
//! Both produce a zero-mean potential. Charge neutrality (mean-free ρ) is
//! enforced by subtracting the mean — physically this is the neutralizing
//! ion background, numerically it is the solvability condition.

use crate::grid::Grid1D;
use dlpic_analytics::complex::Complex64;
use dlpic_analytics::dft;

/// A periodic Poisson solver on grid `G`: fills `phi` from `rho` with the
/// convention `∇²Φ = −ρ` and zero-mean gauge. [`FdPoisson`] and
/// [`SpectralPoisson`] solve on [`Grid1D`]; the 2-D pair is in
/// [`poisson2d`](crate::poisson2d).
pub trait PoissonSolver<G = Grid1D>: Send {
    /// Solves for the potential.
    ///
    /// # Panics
    /// Implementations panic if array lengths disagree with the grid.
    fn solve(&mut self, grid: &G, rho: &[f64], phi: &mut [f64]);
}

/// Finite-difference solver (Thomas algorithm with gauge pinning).
#[derive(Debug, Default)]
pub struct FdPoisson {
    // Scratch buffers reused across solves (hot-loop allocation avoidance).
    diag: Vec<f64>,
    rhs: Vec<f64>,
}

impl FdPoisson {
    /// Creates a solver (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

impl PoissonSolver for FdPoisson {
    fn solve(&mut self, grid: &Grid1D, rho: &[f64], phi: &mut [f64]) {
        let n = grid.nx();
        assert_eq!(rho.len(), n, "rho length mismatch");
        assert_eq!(phi.len(), n, "phi length mismatch");
        assert!(n >= 3, "FD Poisson needs at least 3 nodes");
        let dx2 = grid.dx() * grid.dx();

        // Compatibility: remove the mean (ion background / solvability).
        let mean = rho.iter().sum::<f64>() / n as f64;

        // Unknowns φ_1..φ_{n-1} with φ_0 pinned to 0. The system is
        //   φ_{j-1} - 2 φ_j + φ_{j+1} = -ρ_j dx², j = 1..n-1,
        // where φ_0 = φ_n = 0 enters rows 1 and n-1 as a known.
        let m = n - 1;
        self.diag.clear();
        self.diag.resize(m, -2.0);
        self.rhs.clear();
        self.rhs.extend(rho[1..].iter().map(|r| -(r - mean) * dx2));

        // Thomas forward sweep (off-diagonals are all 1).
        for i in 1..m {
            let w = 1.0 / self.diag[i - 1];
            self.diag[i] -= w;
            let prev = self.rhs[i - 1];
            self.rhs[i] -= w * prev;
        }
        // Back substitution into phi[1..].
        phi[0] = 0.0;
        phi[m] = self.rhs[m - 1] / self.diag[m - 1];
        for i in (0..m - 1).rev() {
            phi[i + 1] = (self.rhs[i] - phi[i + 2]) / self.diag[i];
        }

        // Zero-mean gauge.
        let pmean = phi.iter().sum::<f64>() / n as f64;
        for p in phi.iter_mut() {
            *p -= pmean;
        }
    }
}

/// Spectral solver: `Φ_k = ρ_k / k²` (exact continuous inverse).
#[derive(Debug, Default)]
pub struct SpectralPoisson {
    spectrum: Vec<Complex64>,
}

impl SpectralPoisson {
    /// Creates a solver (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

impl PoissonSolver for SpectralPoisson {
    fn solve(&mut self, grid: &Grid1D, rho: &[f64], phi: &mut [f64]) {
        let n = grid.nx();
        assert_eq!(rho.len(), n, "rho length mismatch");
        assert_eq!(phi.len(), n, "phi length mismatch");
        assert!(
            dft::is_power_of_two(n),
            "spectral solver requires a power-of-two grid, got {n}"
        );

        self.spectrum.clear();
        self.spectrum
            .extend(rho.iter().map(|&r| Complex64::from_real(r)));
        dft::fft_in_place(&mut self.spectrum);

        // Divide by k² mode by mode; k=0 (the mean) is gauged away.
        self.spectrum[0] = Complex64::ZERO;
        let two_pi_over_l = 2.0 * std::f64::consts::PI / grid.lx();
        for m in 1..n {
            // Signed mode number: m > n/2 represents negative frequencies.
            let mode = if m <= n / 2 {
                m as f64
            } else {
                m as f64 - n as f64
            };
            let k = two_pi_over_l * mode;
            self.spectrum[m] = self.spectrum[m] / (k * k);
        }

        dft::ifft_in_place(&mut self.spectrum);
        for (p, z) in phi.iter_mut().zip(&self.spectrum) {
            *p = z.re;
        }
    }
}

/// Discrete residual of the FD Poisson equation
/// `max_j |(φ_{j-1} − 2φ_j + φ_{j+1})/dx² + (ρ_j − ρ̄)|` — a direct check
/// that a solution satisfies the linear system it came from.
// analyze:allow(pub-reach): reference oracle of the FD Poisson kernels, called by tests/solver_cross_checks.rs
pub fn fd_residual(grid: &Grid1D, rho: &[f64], phi: &[f64]) -> f64 {
    let n = grid.nx();
    let dx2 = grid.dx() * grid.dx();
    let mean = rho.iter().sum::<f64>() / n as f64;
    let mut worst = 0.0f64;
    for j in 0..n {
        let jm = if j == 0 { n - 1 } else { j - 1 };
        let jp = if j + 1 == n { 0 } else { j + 1 };
        let lap = (phi[jm] - 2.0 * phi[j] + phi[jp]) / dx2;
        worst = worst.max((lap + (rho[j] - mean)).abs());
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// ρ(x) = A·cos(k_m x) has the analytic solution Φ = A·cos(k_m x)/k_m².
    fn cosine_rho(grid: &Grid1D, mode: usize, amp: f64) -> (Vec<f64>, Vec<f64>) {
        let k = grid.mode_wavenumber(mode);
        let n = grid.nx();
        let rho: Vec<f64> = (0..n)
            .map(|j| amp * (k * grid.node_position(j)).cos())
            .collect();
        let phi: Vec<f64> = (0..n)
            .map(|j| amp * (k * grid.node_position(j)).cos() / (k * k))
            .collect();
        (rho, phi)
    }

    #[test]
    fn spectral_solves_single_mode_exactly() {
        let grid = Grid1D::paper();
        let (rho, expect) = cosine_rho(&grid, 3, 0.8);
        let mut phi = grid.zeros();
        SpectralPoisson::new().solve(&grid, &rho, &mut phi);
        for (a, b) in phi.iter().zip(&expect) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn fd_matches_analytic_with_second_order_error() {
        // FD eigenvalue: (2 - 2cos(k dx))/dx² vs k²; the discrete solution
        // matches the discrete operator exactly, so check the residual and
        // the O(dx²) closeness to the analytic solution.
        let grid = Grid1D::paper();
        let (rho, expect) = cosine_rho(&grid, 1, 1.0);
        let mut phi = grid.zeros();
        FdPoisson::new().solve(&grid, &rho, &mut phi);
        assert!(fd_residual(&grid, &rho, &phi) < 1e-10, "residual");
        let k = grid.mode_wavenumber(1);
        let expected_rel_err = (k * grid.dx()).powi(2) / 12.0; // leading term
        for (a, b) in phi.iter().zip(&expect) {
            let tol = expected_rel_err * b.abs().max(0.1) * 3.0 + 1e-9;
            assert!((a - b).abs() < tol, "{a} vs {b} (tol {tol})");
        }
    }

    #[test]
    fn fd_residual_is_machine_small_for_random_rho() {
        let grid = Grid1D::new(64, 2.0532);
        let rho: Vec<f64> = (0..64)
            .map(|j| ((j * 37 % 19) as f64 - 9.0) / 10.0)
            .collect();
        let mut phi = grid.zeros();
        FdPoisson::new().solve(&grid, &rho, &mut phi);
        assert!(fd_residual(&grid, &rho, &phi) < 1e-9);
    }

    #[test]
    fn both_solvers_produce_zero_mean_phi() {
        let grid = Grid1D::paper();
        let rho: Vec<f64> = (0..64).map(|j| (j as f64 * 0.3).sin() + 0.5).collect();
        let mut fd = grid.zeros();
        let mut sp = grid.zeros();
        FdPoisson::new().solve(&grid, &rho, &mut fd);
        SpectralPoisson::new().solve(&grid, &rho, &mut sp);
        assert!(fd.iter().sum::<f64>().abs() / 64.0 < 1e-12);
        assert!(sp.iter().sum::<f64>().abs() / 64.0 < 1e-12);
    }

    #[test]
    fn uniform_rho_gives_zero_potential() {
        // A uniform charge has no self-consistent periodic field — the
        // neutralizing background exactly cancels it.
        let grid = Grid1D::paper();
        let rho = vec![0.7; 64];
        for solver in [
            &mut FdPoisson::new() as &mut dyn PoissonSolver,
            &mut SpectralPoisson::new() as &mut dyn PoissonSolver,
        ] {
            let mut phi = vec![1.0; 64];
            solver.solve(&grid, &rho, &mut phi);
            for p in &phi {
                assert!(p.abs() < 1e-12, "phi = {p}");
            }
        }
    }

    #[test]
    fn spectral_rejects_non_power_of_two() {
        let grid = Grid1D::new(12, 1.0);
        let rho = vec![0.0; 12];
        let mut phi = vec![0.0; 12];
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            SpectralPoisson::new().solve(&grid, &rho, &mut phi);
        }));
        assert!(result.is_err());
    }

    #[test]
    fn fd_works_on_any_grid_size() {
        let grid = Grid1D::new(13, 1.3);
        let (rho, _) = cosine_rho(&grid, 1, 1.0);
        let mut phi = grid.zeros();
        FdPoisson::new().solve(&grid, &rho, &mut phi);
        assert!(fd_residual(&grid, &rho, &phi) < 1e-9);
    }

    #[test]
    fn solver_buffers_are_reusable() {
        // Two consecutive solves with different data must not interfere.
        let grid = Grid1D::paper();
        let (rho1, _) = cosine_rho(&grid, 1, 1.0);
        let (rho2, expect2) = cosine_rho(&grid, 2, 0.5);
        let mut solver = SpectralPoisson::new();
        let mut phi = grid.zeros();
        solver.solve(&grid, &rho1, &mut phi);
        solver.solve(&grid, &rho2, &mut phi);
        for (a, b) in phi.iter().zip(&expect2) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// FD and spectral solvers agree up to the O(k²dx²) difference of
        /// their operators for smooth (low-mode) charge distributions.
        #[test]
        fn solvers_agree_on_smooth_densities(
            a1 in -1.0f64..1.0, a2 in -1.0f64..1.0, a3 in -1.0f64..1.0,
        ) {
            let grid = Grid1D::new(128, 2.0532);
            let n = grid.nx();
            let rho: Vec<f64> = (0..n)
                .map(|j| {
                    let x = grid.node_position(j);
                    a1 * (grid.mode_wavenumber(1) * x).cos()
                        + a2 * (grid.mode_wavenumber(2) * x).sin()
                        + a3 * (grid.mode_wavenumber(3) * x).cos()
                })
                .collect();
            let mut fd = grid.zeros();
            let mut sp = grid.zeros();
            FdPoisson::new().solve(&grid, &rho, &mut fd);
            SpectralPoisson::new().solve(&grid, &rho, &mut sp);
            let scale = sp.iter().fold(0.0f64, |m, v| m.max(v.abs())).max(1e-9);
            // k3·dx = 3·3.06·0.016 ≈ 0.147 → relative gap ≲ 0.2%.
            for (x, y) in fd.iter().zip(&sp) {
                prop_assert!((x - y).abs() / scale < 5e-3, "{x} vs {y}");
            }
        }

        #[test]
        fn linearity_of_fd_solver(
            rho_a in proptest::collection::vec(-1.0f64..1.0, 32),
            rho_b in proptest::collection::vec(-1.0f64..1.0, 32),
            alpha in -2.0f64..2.0,
        ) {
            let grid = Grid1D::new(32, 1.0);
            let combo: Vec<f64> = rho_a.iter().zip(&rho_b).map(|(a, b)| alpha * a + b).collect();
            let mut solver = FdPoisson::new();
            let mut pa = grid.zeros();
            let mut pb = grid.zeros();
            let mut pc = grid.zeros();
            solver.solve(&grid, &rho_a, &mut pa);
            solver.solve(&grid, &rho_b, &mut pb);
            solver.solve(&grid, &combo, &mut pc);
            for j in 0..32 {
                let expect = alpha * pa[j] + pb[j];
                prop_assert!((pc[j] - expect).abs() < 1e-9);
            }
        }
    }
}
