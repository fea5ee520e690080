//! Per-step diagnostics for the 2-D extension: energies, momentum
//! components and 2-D field-mode amplitudes.

use crate::diagnostics::EnergyReport;
use crate::efield2d::field_energy;
use crate::grid2d::Grid2D;
use crate::particles2d::Particles2D;
use dlpic_analytics::dft2;

/// Computes an instantaneous report from the current state (used at
/// `t = 0`; later steps use the mover's time-centred kinetic energy).
pub fn instantaneous_report(
    particles: &Particles2D,
    grid: &Grid2D,
    ex: &[f64],
    ey: &[f64],
) -> EnergyReport {
    let (px, py) = particles.total_momentum();
    EnergyReport {
        kinetic: particles.kinetic_energy(),
        field: field_energy(grid, ex, ey),
        momentum: px,
        momentum_y: Some(py),
    }
}

/// Amplitude of field mode `(mx, my)` — the 2-D analogue of the paper's
/// `E1` diagnostic; the two-stream mode of the extension runs is `(1, 0)`.
///
/// # Panics
/// Panics if the field length mismatches the grid.
pub fn field_mode_amplitude(field: &[f64], grid: &Grid2D, mx: usize, my: usize) -> f64 {
    assert_eq!(field.len(), grid.nodes(), "field length mismatch");
    dft2::mode_amplitude2(field, grid.nx(), grid.ny(), mx, my)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_totals_add_up() {
        let grid = Grid2D::new(8, 8, 2.0, 2.0);
        let p = Particles2D::new(
            vec![0.0, 1.0],
            vec![0.0, 1.0],
            vec![1.0, -1.0],
            vec![0.5, 0.5],
            -1.0,
            2.0,
        );
        let ex = vec![0.5; grid.nodes()];
        let ey = vec![0.0; grid.nodes()];
        let r = instantaneous_report(&p, &grid, &ex, &ey);
        // KE = ½·2·(1+0.25 + 1+0.25) = 2.5
        assert!((r.kinetic - 2.5).abs() < 1e-12);
        assert!((r.field - 0.5 * 0.25 * grid.area()).abs() < 1e-12);
        assert!((r.total() - r.kinetic - r.field).abs() < 1e-15);
        assert!(r.momentum.abs() < 1e-15);
        assert!((r.momentum_y.unwrap() - 2.0).abs() < 1e-15);
    }

    #[test]
    fn mode_amplitude_extracts_planted_wave() {
        let grid = Grid2D::new(32, 16, 2.0, 1.0);
        let kx = grid.mode_wavenumber_x(1);
        let mut ex = grid.zeros();
        for iy in 0..grid.ny() {
            for ix in 0..grid.nx() {
                ex[grid.index(ix, iy)] = 0.04 * (kx * ix as f64 * grid.dx()).sin();
            }
        }
        assert!((field_mode_amplitude(&ex, &grid, 1, 0) - 0.04).abs() < 1e-12);
        assert!(field_mode_amplitude(&ex, &grid, 0, 1) < 1e-12);
        assert!(field_mode_amplitude(&ex, &grid, 2, 0) < 1e-12);
    }
}
