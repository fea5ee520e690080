//! Per-step diagnostics: the quantities plotted in the paper's Figs. 4–6.

use crate::efield::field_energy;
use crate::grid::Grid1D;
use crate::particles::Particles;
use dlpic_analytics::dft;

/// One snapshot of the conserved-quantity diagnostics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyReport {
    /// Kinetic energy (time-centred when produced by the mover).
    pub kinetic: f64,
    /// Electrostatic field energy.
    pub field: f64,
    /// Total momentum `m·Σv` (the `x` component in 2-D).
    pub momentum: f64,
    /// The `y` momentum component; `None` in 1-D.
    pub momentum_y: Option<f64>,
}

impl EnergyReport {
    /// Total energy.
    pub fn total(&self) -> f64 {
        self.kinetic + self.field
    }
}

/// Computes an instantaneous report from the current state (used at `t = 0`
/// before the leap-frog stagger exists; later steps use the mover's
/// time-centred kinetic energy instead).
pub fn instantaneous_report(particles: &Particles, grid: &Grid1D, e: &[f64]) -> EnergyReport {
    EnergyReport {
        kinetic: particles.kinetic_energy(),
        field: field_energy(grid, e),
        momentum: particles.total_momentum(),
        momentum_y: None,
    }
}

/// Amplitude of grid mode `m` of the electric field — `E1` (m = 1) is the
/// quantity on the y-axis of the paper's Fig. 4 bottom panel.
pub fn field_mode_amplitude(e: &[f64], mode: usize) -> f64 {
    dft::mode_amplitude(e, mode)
}

/// Amplitudes of the first `count` modes (index 0 = mean).
#[cfg(test)]
fn field_mode_spectrum(e: &[f64], count: usize) -> Vec<f64> {
    let amps = dft::mode_amplitudes(e);
    amps.into_iter().take(count).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_totals_add_up() {
        let grid = Grid1D::new(8, 2.0);
        let p = Particles::new(vec![0.0, 1.0], vec![1.0, -1.0], -1.0, 2.0);
        let e = vec![0.5; 8];
        let r = instantaneous_report(&p, &grid, &e);
        assert!((r.kinetic - 2.0).abs() < 1e-15);
        assert!((r.field - 0.5 * 0.25 * 2.0).abs() < 1e-12);
        assert!((r.total() - r.kinetic - r.field).abs() < 1e-15);
        assert!(r.momentum.abs() < 1e-15);
    }

    #[test]
    fn mode_amplitude_extracts_planted_mode() {
        let n = 64;
        let e: Vec<f64> = (0..n)
            .map(|j| 0.05 * (2.0 * std::f64::consts::PI * 1.0 * j as f64 / n as f64).sin())
            .collect();
        assert!((field_mode_amplitude(&e, 1) - 0.05).abs() < 1e-12);
        assert!(field_mode_amplitude(&e, 2) < 1e-12);
    }

    #[test]
    fn spectrum_truncates_to_requested_count() {
        let e = vec![0.0; 64];
        assert_eq!(field_mode_spectrum(&e, 5).len(), 5);
    }
}
