//! The periodic field grid, one type for every dimension.

use crate::constants;

/// A uniform periodic grid of `D` axes; axis `k` has `cells[k]` cells
/// over `[0, lengths[k])`.
///
/// Field quantities (ρ, Φ, E) live on the nodes, `x_j = j·dx` along each
/// axis; periodicity identifies node `cells[k]` with node 0, so a node
/// array holds [`Grid::nodes`] entries, row-major with `x` fastest
/// (`a[iy * nx + ix]` in 2-D).
#[derive(Debug, Clone, PartialEq)]
pub struct Grid<const D: usize> {
    cells: [usize; D],
    lengths: [f64; D],
    spacing: [f64; D],
}

/// The paper's one-dimensional grid.
pub type Grid1D = Grid<1>;

/// The two-dimensional grid of the §VII extension.
pub type Grid2D = Grid<2>;

impl<const D: usize> Grid<D> {
    /// The one validation body behind every dimension's `new`.
    ///
    /// # Panics
    /// Panics for an axis with zero cells or a non-finite or
    /// non-positive length.
    fn from_axes(cells: [usize; D], lengths: [f64; D]) -> Self {
        assert!(
            cells.iter().all(|&n| n > 0),
            "grid needs at least one cell per axis, got {cells:?}"
        );
        for length in lengths {
            assert!(
                length.is_finite() && length > 0.0,
                "invalid box length {length}"
            );
        }
        Self {
            cells,
            lengths,
            spacing: std::array::from_fn(|k| lengths[k] / cells[k] as f64),
        }
    }

    /// Cells along each axis.
    #[inline]
    pub(crate) fn cells(&self) -> [usize; D] {
        self.cells
    }

    /// Box length along each axis.
    #[inline]
    pub(crate) fn lengths(&self) -> [f64; D] {
        self.lengths
    }

    /// Cell size along each axis.
    #[inline]
    pub(crate) fn spacing(&self) -> [f64; D] {
        self.spacing
    }

    /// Cells along `x`.
    #[inline]
    pub fn nx(&self) -> usize {
        self.cells[0]
    }

    /// Box length along `x`.
    #[inline]
    pub fn lx(&self) -> f64 {
        self.lengths[0]
    }

    /// Cell size along `x`.
    #[inline]
    pub fn dx(&self) -> f64 {
        self.spacing[0]
    }

    /// Node count of one field component: the product of the cell counts.
    #[inline]
    pub fn nodes(&self) -> usize {
        self.cells.iter().product()
    }

    /// Cell volume `dx·dy·…` (`dx` in 1-D, the cell area in 2-D).
    #[inline]
    pub fn cell_volume(&self) -> f64 {
        self.spacing.iter().fold(1.0, |v, h| v * h)
    }

    /// Box volume `lx·ly·…` (the box length in 1-D, its area in 2-D).
    #[inline]
    pub fn volume(&self) -> f64 {
        self.lengths.iter().fold(1.0, |v, l| v * l)
    }

    /// Position of node `j` along `x` (`j` may exceed `nx`; it wraps).
    #[inline]
    pub fn node_position(&self, j: usize) -> f64 {
        (j % self.nx()) as f64 * self.dx()
    }

    /// Wavenumber of periodic mode `m` along `x`: `k_m = 2π·m/lx`.
    #[inline]
    pub fn mode_wavenumber(&self, m: usize) -> f64 {
        2.0 * std::f64::consts::PI * m as f64 / self.lx()
    }

    /// Wraps a (possibly negative or out-of-range) node index into
    /// `[0, nx)`.
    #[inline]
    pub fn wrap_ix(&self, j: i64) -> usize {
        j.rem_euclid(self.nx() as i64) as usize
    }

    /// Wraps a position into `[0, lx)`.
    #[inline]
    pub fn wrap_x(&self, x: f64) -> f64 {
        wrap_periodic(x, self.lx())
    }

    /// Allocates a zeroed node array.
    pub fn zeros(&self) -> Vec<f64> {
        vec![0.0; self.nodes()]
    }
}

impl Grid<1> {
    /// Creates a grid with `ncells` cells over `[0, length)`.
    ///
    /// # Panics
    /// Panics for zero cells or a non-finite or non-positive length.
    pub fn new(ncells: usize, length: f64) -> Self {
        Self::from_axes([ncells], [length])
    }

    /// The paper's grid: 64 cells over `L = 2π/3.06`.
    pub fn paper() -> Self {
        Self::new(constants::PAPER_NCELLS, constants::paper_box_length())
    }
}

impl Grid<2> {
    /// Creates a grid with `nx × ny` cells over `[0, lx) × [0, ly)`.
    ///
    /// # Panics
    /// Panics for zero cells or a non-finite or non-positive length.
    pub fn new(nx: usize, ny: usize, lx: f64, ly: f64) -> Self {
        Self::from_axes([nx, ny], [lx, ly])
    }

    /// The default extension grid: 32×32 cells over the paper's box length
    /// in both directions (see [`crate::constants`]).
    #[cfg(test)]
    pub(crate) fn default_square() -> Self {
        use crate::constants::{paper_box_length, EXTENSION_2D_NCELLS};
        let l = paper_box_length();
        Self::new(EXTENSION_2D_NCELLS, EXTENSION_2D_NCELLS, l, l)
    }

    /// Cells along `y`.
    #[inline]
    pub fn ny(&self) -> usize {
        self.cells[1]
    }

    /// Box length along `y`.
    #[inline]
    pub fn ly(&self) -> f64 {
        self.lengths[1]
    }

    /// Cell size along `y`.
    #[inline]
    pub fn dy(&self) -> f64 {
        self.spacing[1]
    }

    /// Flat index of node `(ix, iy)` (both must already be in range).
    #[inline]
    pub fn index(&self, ix: usize, iy: usize) -> usize {
        debug_assert!(ix < self.nx() && iy < self.ny());
        iy * self.nx() + ix
    }

    /// Wavenumber of periodic mode `m` along `y`: `ky_m = 2π·m/ly`.
    #[cfg(test)]
    pub(crate) fn mode_wavenumber_y(&self, m: usize) -> f64 {
        2.0 * std::f64::consts::PI * m as f64 / self.ly()
    }

    /// Wraps a (possibly negative) node index into `[0, ny)`.
    #[inline]
    pub fn wrap_iy(&self, j: i64) -> usize {
        j.rem_euclid(self.ny() as i64) as usize
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
        assert_eq!(g.nx(), 64);
        assert!((g.lx() - 2.0532).abs() < 1e-3);
        assert!((g.dx() * 64.0 - g.lx()).abs() < 1e-12);
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
        assert_eq!(g.wrap_ix(-1), 7);
        assert_eq!(g.wrap_ix(8), 0);
        assert_eq!(g.wrap_ix(17), 1);
        assert_eq!(g.wrap_ix(-9), 7);
    }

    #[test]
    fn mode_wavenumber_of_paper_grid() {
        let g = Grid1D::paper();
        assert!((g.mode_wavenumber(1) - 3.06).abs() < 1e-12);
        assert!((g.mode_wavenumber(2) - 6.12).abs() < 1e-12);
    }

    /// `1.0·dx` and `1.0·lx` are exact, so the 1-D volumes are the
    /// spacing and the length bit for bit.
    #[test]
    fn one_d_volumes_are_the_spacing_and_length_exactly() {
        let g = Grid1D::new(7, 2.0532);
        assert_eq!(g.cell_volume().to_bits(), g.dx().to_bits());
        assert_eq!(g.volume().to_bits(), g.lx().to_bits());
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
            let w = g.wrap_x(x);
            prop_assert!((0.0..g.lx()).contains(&w), "wrapped {x} -> {w}");
        }

        #[test]
        fn wrap_position_is_periodic(x in 0.0f64..2.0, shift in -5i32..5) {
            let g = Grid1D::new(16, 2.0);
            let w = g.wrap_x(x + shift as f64 * g.lx());
            prop_assert!((w - x).abs() < 1e-9 * (1.0 + shift.abs() as f64)
                || (g.lx() - (w - x).abs()) < 1e-9);
        }
    }
}
