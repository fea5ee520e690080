//! The periodic one-dimensional field grid.

use crate::constants;

/// A uniform periodic grid on `[0, length)` with `ncells` cells.
///
/// Field quantities (ρ, Φ, E) live on the *nodes* `x_j = j·dx`,
/// `j = 0..ncells`; node `ncells` is identified with node 0 by periodicity,
/// so arrays have `ncells` entries.
#[derive(Debug, Clone, PartialEq)]
pub struct Grid1D {
    ncells: usize,
    length: f64,
    dx: f64,
}

impl Grid1D {
    /// Creates a grid with `ncells` cells over `[0, length)`.
    ///
    /// # Panics
    /// Panics for zero cells or a non-positive length.
    pub fn new(ncells: usize, length: f64) -> Self {
        assert!(ncells > 0, "grid needs at least one cell");
        assert!(
            length.is_finite() && length > 0.0,
            "invalid box length {length}"
        );
        Self {
            ncells,
            length,
            dx: length / ncells as f64,
        }
    }

    /// The paper's grid: 64 cells over `L = 2π/3.06`.
    pub fn paper() -> Self {
        Self::new(constants::PAPER_NCELLS, constants::paper_box_length())
    }

    /// Number of cells (== number of stored nodes).
    #[inline]
    pub fn ncells(&self) -> usize {
        self.ncells
    }

    /// Box length.
    #[inline]
    pub fn length(&self) -> f64 {
        self.length
    }

    /// Cell size.
    #[inline]
    pub fn dx(&self) -> f64 {
        self.dx
    }

    /// Position of node `j` (`j` may exceed `ncells`; it wraps).
    #[inline]
    pub fn node_position(&self, j: usize) -> f64 {
        (j % self.ncells) as f64 * self.dx
    }

    /// Wavenumber of periodic mode `m`: `k_m = 2π·m/L`.
    #[inline]
    pub fn mode_wavenumber(&self, m: usize) -> f64 {
        2.0 * std::f64::consts::PI * m as f64 / self.length
    }

    /// Wraps a (possibly negative or out-of-range) node index into
    /// `[0, ncells)`.
    #[inline]
    pub fn wrap_index(&self, j: i64) -> usize {
        j.rem_euclid(self.ncells as i64) as usize
    }

    /// Wraps a position into `[0, length)`.
    #[inline]
    pub fn wrap_position(&self, x: f64) -> f64 {
        wrap_periodic(x, self.length)
    }

    /// Allocates a zeroed node-array.
    pub fn zeros(&self) -> Vec<f64> {
        vec![0.0; self.ncells]
    }
}

/// Wraps a position into `[0, length)` — every grid axis's periodic
/// wrap.
#[inline]
pub(crate) fn wrap_periodic(x: f64, length: f64) -> f64 {
    let wrapped = x.rem_euclid(length);
    // rem_euclid can return `length` itself when x is a tiny negative
    // number; fold that back to 0.
    if wrapped >= length {
        0.0
    } else {
        wrapped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_grid_dimensions() {
        let g = Grid1D::paper();
        assert_eq!(g.ncells(), 64);
        assert!((g.length() - 2.0532).abs() < 1e-3);
        assert!((g.dx() * 64.0 - g.length()).abs() < 1e-12);
    }

    #[test]
    fn node_positions_cover_box() {
        let g = Grid1D::new(8, 4.0);
        assert_eq!(g.node_position(0), 0.0);
        assert!((g.node_position(7) - 3.5).abs() < 1e-12);
        assert_eq!(g.node_position(8), 0.0); // wraps
    }

    #[test]
    fn wrap_index_handles_negatives() {
        let g = Grid1D::new(8, 1.0);
        assert_eq!(g.wrap_index(-1), 7);
        assert_eq!(g.wrap_index(8), 0);
        assert_eq!(g.wrap_index(17), 1);
        assert_eq!(g.wrap_index(-9), 7);
    }

    #[test]
    fn mode_wavenumber_of_paper_grid() {
        let g = Grid1D::paper();
        assert!((g.mode_wavenumber(1) - 3.06).abs() < 1e-12);
        assert!((g.mode_wavenumber(2) - 6.12).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one cell")]
    fn zero_cells_rejected() {
        let _ = Grid1D::new(0, 1.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn wrap_position_lands_in_box(x in -100.0f64..100.0) {
            let g = Grid1D::new(16, 2.0532);
            let w = g.wrap_position(x);
            prop_assert!((0.0..g.length()).contains(&w), "wrapped {x} -> {w}");
        }

        #[test]
        fn wrap_position_is_periodic(x in 0.0f64..2.0, shift in -5i32..5) {
            let g = Grid1D::new(16, 2.0);
            let w = g.wrap_position(x + shift as f64 * g.length());
            prop_assert!((w - x).abs() < 1e-9 * (1.0 + shift.abs() as f64)
                || (g.length() - (w - x).abs()) < 1e-9);
        }
    }
}
