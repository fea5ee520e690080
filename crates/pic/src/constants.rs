//! The paper's standard configuration (§III).
//!
//! > "We also fix the box size (L) equal to 2π/3.06. This size is chosen to
//! > accommodate the most (un)stable mode for two beams drifting at average
//! > velocity v0 = ±0.2. We also fix the number of cells in the PIC
//! > simulation to 64, the number of electrons to 1,000 per cell and the
//! > simulation time step to 0.2."

/// Fundamental wavenumber of the paper's periodic box: `k₁ = 3.06`, which
/// puts mode 1 at `k·v0 = 0.612 ≈ √(3/8)` — the fastest-growing two-stream
/// wavenumber — when `v0 = 0.2`.
pub const PAPER_K1: f64 = 3.06;

/// Number of grid cells in the paper's PIC configuration.
pub const PAPER_NCELLS: usize = 64;

/// Electrons per cell in the paper's PIC configuration.
pub const PAPER_PARTICLES_PER_CELL: usize = 1000;

/// Simulation time step.
pub const PAPER_DT: f64 = 0.2;

/// Number of steps per run: 200 steps × Δt 0.2 = t_end 40, "after 200 time
/// steps the two-stream instability is fully developed" (paper §IV.A.1).
pub const PAPER_NSTEPS: usize = 200;

/// Beam speed of the validation run (paper §V, Figs. 4–5).
pub const PAPER_VALIDATION_V0: f64 = 0.2;

/// Thermal speed of the validation run (paper §V, Figs. 4–5).
pub const PAPER_VALIDATION_VTH: f64 = 0.025;

/// Beam speed of the cold-beam stress test (paper §V, Fig. 6).
pub const PAPER_COLD_BEAM_V0: f64 = 0.4;

/// Cells along each axis of the 2-D extension's default grid (§VII).
///
/// The extension keeps the paper's box along `x` — the streaming
/// direction — and uses a square box of [`paper_box_length`], so the
/// `(1, 0)` mode carries the same physics as the paper's 1-D mode 1 and
/// the 1-D linear theory applies unchanged. A faithful 2-D equivalent of
/// the paper's 64 cells × 1000/cell would be 4.1 M particles, sized for
/// the paper's 24-core node; 32² cells at 128/cell keeps every
/// qualitative feature (growth, saturation, conservation behaviour) and is
/// what the 2-D tests and benches use by default.
pub const EXTENSION_2D_NCELLS: usize = 32;

/// Box length `L = 2π/3.06 ≈ 2.0532`.
pub fn paper_box_length() -> f64 {
    2.0 * std::f64::consts::PI / PAPER_K1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn box_puts_mode_one_at_fastest_growing_wavenumber() {
        let l = paper_box_length();
        let k1 = 2.0 * std::f64::consts::PI / l;
        assert!((k1 - PAPER_K1).abs() < 1e-12);
        // k1 * v0 should be within a hair of sqrt(3/8).
        let kv = k1 * PAPER_VALIDATION_V0;
        assert!((kv - (3.0f64 / 8.0).sqrt()).abs() < 1e-3);
    }

    #[test]
    fn expected_initial_energy_matches_figure_axes() {
        // Total kinetic energy of two cold beams: ½·L·v0² in these units.
        let l = paper_box_length();
        let e_02 = 0.5 * l * 0.2 * 0.2; // Fig. 5 axis starts near 0.041
        let e_04 = 0.5 * l * 0.4 * 0.4; // Fig. 6 axis starts near 0.164
        assert!((e_02 - 0.0411).abs() < 2e-4, "{e_02}");
        assert!((e_04 - 0.1643).abs() < 5e-4, "{e_04}");
    }
}
