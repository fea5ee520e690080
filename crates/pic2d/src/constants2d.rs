//! Default configuration of the 2-D extension runs.
//!
//! The paper fixes its 1-D box at `L = 2π/3.06` so that grid mode 1 is the
//! fastest-growing two-stream mode at `v0 = 0.2` (§III). The 2-D extension
//! keeps that box along `x` — the streaming direction — and uses a square
//! box, so the `(1, 0)` mode carries the same physics as the paper's 1-D
//! mode 1 and the 1-D linear theory applies unchanged.
//!
//! Cell counts and particle counts are reduced relative to the paper's 1-D
//! numbers (64 cells × 1000/cell): a faithful 2-D equivalent would be
//! 64² cells × 1000/cell = 4.1 M particles, which is sized for the paper's
//! 24-core node, not this container. 32² cells at 128/cell keeps every
//! qualitative feature (growth, saturation, conservation behaviour) and is
//! what the 2-D tests and benches use by default; the paper-scale values
//! remain reachable through [`crate::grid2d::Grid2D::new`].

/// Fundamental wavenumber along the streaming direction, as in the paper.
pub const K1: f64 = dlpic_pic::constants::PAPER_K1;

/// Default cells along `x`.
pub const DEFAULT_NX: usize = 32;

/// Default cells along `y`.
pub const DEFAULT_NY: usize = 32;

/// Box length along the streaming direction: `Lx = 2π/3.06`.
pub fn box_length_x() -> f64 {
    dlpic_pic::constants::paper_box_length()
}

/// Box length along `y` (square box).
pub fn box_length_y() -> f64 {
    box_length_x()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_one_matches_paper_wavenumber() {
        let k1 = 2.0 * std::f64::consts::PI / box_length_x();
        assert!((k1 - K1).abs() < 1e-12);
    }

    #[test]
    fn default_grid_is_square() {
        assert_eq!(DEFAULT_NX, DEFAULT_NY);
        assert!((box_length_x() - box_length_y()).abs() < 1e-15);
    }
}
