//! The periodic two-dimensional field grid.

use crate::grid::wrap_periodic;

/// A uniform periodic grid on `[0, lx) × [0, ly)` with `nx × ny` cells.
///
/// Field quantities (ρ, Φ, Ex, Ey) live on the nodes
/// `(x_i, y_j) = (i·dx, j·dy)`; periodicity identifies node `nx` with node
/// 0 (same in `y`), so arrays hold `nx·ny` entries in row-major order with
/// `x` fastest: `a[iy * nx + ix]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Grid2D {
    nx: usize,
    ny: usize,
    lx: f64,
    ly: f64,
    dx: f64,
    dy: f64,
}

impl Grid2D {
    /// Creates a grid with `nx × ny` cells over `[0, lx) × [0, ly)`.
    ///
    /// # Panics
    /// Panics for zero cells or non-positive lengths.
    pub fn new(nx: usize, ny: usize, lx: f64, ly: f64) -> Self {
        assert!(
            nx > 0 && ny > 0,
            "grid needs at least one cell per dimension"
        );
        assert!(lx.is_finite() && lx > 0.0, "invalid box length lx = {lx}");
        assert!(ly.is_finite() && ly > 0.0, "invalid box length ly = {ly}");
        Self {
            nx,
            ny,
            lx,
            ly,
            dx: lx / nx as f64,
            dy: ly / ny as f64,
        }
    }

    /// The default extension grid: 32×32 cells over the paper's box length
    /// in both directions (see [`crate::constants`]).
    #[cfg(test)]
    pub(crate) fn default_square() -> Self {
        use crate::constants::{paper_box_length, EXTENSION_2D_NCELLS};
        let l = paper_box_length();
        Self::new(EXTENSION_2D_NCELLS, EXTENSION_2D_NCELLS, l, l)
    }

    /// Cells along `x`.
    #[inline]
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Cells along `y`.
    #[inline]
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Total node count `nx·ny`.
    #[inline]
    pub fn nodes(&self) -> usize {
        self.nx * self.ny
    }

    /// Box length along `x`.
    #[inline]
    pub fn lx(&self) -> f64 {
        self.lx
    }

    /// Box length along `y`.
    #[inline]
    pub fn ly(&self) -> f64 {
        self.ly
    }

    /// Cell size along `x`.
    #[inline]
    pub fn dx(&self) -> f64 {
        self.dx
    }

    /// Cell size along `y`.
    #[inline]
    pub fn dy(&self) -> f64 {
        self.dy
    }

    /// Cell area `dx·dy`.
    #[inline]
    pub fn cell_area(&self) -> f64 {
        self.dx * self.dy
    }

    /// Box area `lx·ly`.
    #[inline]
    pub fn area(&self) -> f64 {
        self.lx * self.ly
    }

    /// Flat index of node `(ix, iy)` (both must already be in range).
    #[inline]
    pub fn index(&self, ix: usize, iy: usize) -> usize {
        debug_assert!(ix < self.nx && iy < self.ny);
        iy * self.nx + ix
    }

    /// Wavenumber of periodic mode `m` along `x`: `kx_m = 2π·m/lx`.
    #[inline]
    pub fn mode_wavenumber_x(&self, m: usize) -> f64 {
        2.0 * std::f64::consts::PI * m as f64 / self.lx
    }

    /// Wavenumber of periodic mode `m` along `y`: `ky_m = 2π·m/ly`.
    #[inline]
    #[cfg(test)]
    pub(crate) fn mode_wavenumber_y(&self, m: usize) -> f64 {
        2.0 * std::f64::consts::PI * m as f64 / self.ly
    }

    /// Wraps a (possibly negative) node index into `[0, nx)`.
    #[inline]
    pub fn wrap_ix(&self, i: i64) -> usize {
        i.rem_euclid(self.nx as i64) as usize
    }

    /// Wraps a (possibly negative) node index into `[0, ny)`.
    #[inline]
    pub fn wrap_iy(&self, j: i64) -> usize {
        j.rem_euclid(self.ny as i64) as usize
    }

    /// Wraps a position into `[0, lx)`.
    #[inline]
    pub fn wrap_x(&self, x: f64) -> f64 {
        wrap_periodic(x, self.lx)
    }

    /// Wraps a position into `[0, ly)`.
    #[inline]
    #[cfg(test)]
    fn wrap_y(&self, y: f64) -> f64 {
        wrap_periodic(y, self.ly)
    }

    /// Allocates a zeroed node array.
    pub fn zeros(&self) -> Vec<f64> {
        vec![0.0; self.nodes()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn default_grid_dimensions() {
        let g = Grid2D::default_square();
        assert_eq!(g.nx(), 32);
        assert_eq!(g.ny(), 32);
        assert!((g.lx() - 2.0532).abs() < 1e-3);
        assert!((g.dx() * 32.0 - g.lx()).abs() < 1e-12);
        assert_eq!(g.nodes(), 1024);
    }

    #[test]
    fn mode_one_matches_paper_wavenumber() {
        let g = Grid2D::default_square();
        let k1 = 2.0 * std::f64::consts::PI / g.lx();
        assert!((k1 - crate::constants::PAPER_K1).abs() < 1e-12);
    }

    #[test]
    fn default_grid_is_square() {
        let g = Grid2D::default_square();
        assert_eq!(g.nx(), g.ny());
        assert!((g.lx() - g.ly()).abs() < 1e-15);
    }

    #[test]
    fn index_is_row_major_x_fastest() {
        let g = Grid2D::new(4, 3, 1.0, 1.0);
        assert_eq!(g.index(0, 0), 0);
        assert_eq!(g.index(3, 0), 3);
        assert_eq!(g.index(0, 1), 4);
        assert_eq!(g.index(3, 2), 11);
    }

    #[test]
    fn wrap_indices_handle_negatives() {
        let g = Grid2D::new(8, 4, 1.0, 1.0);
        assert_eq!(g.wrap_ix(-1), 7);
        assert_eq!(g.wrap_ix(8), 0);
        assert_eq!(g.wrap_iy(-1), 3);
        assert_eq!(g.wrap_iy(9), 1);
    }

    #[test]
    fn mode_wavenumbers_match_box() {
        let g = Grid2D::default_square();
        assert!((g.mode_wavenumber_x(1) - 3.06).abs() < 1e-12);
        assert!((g.mode_wavenumber_y(2) - 6.12).abs() < 1e-12);
    }

    #[test]
    fn cell_area_times_count_is_box_area() {
        let g = Grid2D::new(16, 8, 2.0, 1.0);
        assert!((g.cell_area() * g.nodes() as f64 - g.area()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one cell")]
    fn zero_cells_rejected() {
        let _ = Grid2D::new(0, 4, 1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "invalid box length")]
    fn negative_length_rejected() {
        let _ = Grid2D::new(4, 4, -1.0, 1.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn wrap_positions_land_in_box(x in -50.0f64..50.0, y in -50.0f64..50.0) {
            let g = Grid2D::new(8, 8, 2.0532, 1.7);
            prop_assert!((0.0..g.lx()).contains(&g.wrap_x(x)));
            prop_assert!((0.0..g.ly()).contains(&g.wrap_y(y)));
        }

        #[test]
        fn wrap_is_periodic(x in 0.0f64..2.0, shift in -4i32..4) {
            let g = Grid2D::new(8, 8, 2.0, 2.0);
            let w = g.wrap_x(x + shift as f64 * g.lx());
            let diff = (w - x).abs();
            prop_assert!(diff < 1e-9 || (g.lx() - diff) < 1e-9);
        }
    }
}
