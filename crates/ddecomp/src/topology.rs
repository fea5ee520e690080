//! Rank topology: the partition of the periodic 1-D grid into contiguous
//! cell slabs.

use dlpic_pic::grid::Grid1D;

/// A 1-D slab decomposition of `ncells` grid cells over `n_ranks` ranks.
///
/// Rank `r` owns nodes `[r·c, (r+1)·c)` with `c = ncells / n_ranks`, and
/// the particles whose positions fall in the matching interval of the box.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    n_ranks: usize,
    ncells: usize,
}

impl Topology {
    /// Creates a slab decomposition.
    ///
    /// # Panics
    /// Panics when `n_ranks` is zero or does not divide `ncells`.
    pub fn new(n_ranks: usize, ncells: usize) -> Self {
        assert!(n_ranks > 0, "need at least one rank");
        assert!(
            ncells.is_multiple_of(n_ranks),
            "ranks ({n_ranks}) must divide the cell count ({ncells})"
        );
        Self { n_ranks, ncells }
    }

    /// Number of ranks.
    #[inline]
    pub fn n_ranks(&self) -> usize {
        self.n_ranks
    }

    /// Global cell count.
    #[inline]
    pub fn ncells(&self) -> usize {
        self.ncells
    }

    /// Cells (== owned nodes) per rank.
    #[inline]
    pub fn cells_per_rank(&self) -> usize {
        self.ncells / self.n_ranks
    }

    /// First owned node of `rank`.
    #[inline]
    pub fn slab_start(&self, rank: usize) -> usize {
        debug_assert!(rank < self.n_ranks);
        rank * self.cells_per_rank()
    }

    /// One-past-the-last owned node of `rank`.
    #[inline]
    #[cfg(test)]
    fn slab_end(&self, rank: usize) -> usize {
        self.slab_start(rank) + self.cells_per_rank()
    }

    /// The rank owning global node `cell`.
    #[inline]
    fn rank_of_cell(&self, cell: usize) -> usize {
        debug_assert!(cell < self.ncells);
        cell / self.cells_per_rank()
    }

    /// The rank owning a particle at position `x` on `grid`.
    ///
    /// Ownership is by *cell* (`floor(x/dx)`), so positions exactly on a
    /// slab boundary belong to the right slab, and `x` just below `L`
    /// belongs to the last rank.
    #[inline]
    pub fn rank_of_position(&self, x: f64, grid: &Grid1D) -> usize {
        let cell = ((x / grid.dx()) as usize).min(self.ncells - 1);
        self.rank_of_cell(cell)
    }

    /// Left (periodic) neighbour of `rank`.
    #[inline]
    pub fn left(&self, rank: usize) -> usize {
        (rank + self.n_ranks - 1) % self.n_ranks
    }

    /// Right (periodic) neighbour of `rank`.
    #[inline]
    pub fn right(&self, rank: usize) -> usize {
        (rank + 1) % self.n_ranks
    }

    /// Iterator over all rank ids.
    pub fn ranks(&self) -> std::ops::Range<usize> {
        0..self.n_ranks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slabs_tile_the_grid() {
        let topo = Topology::new(4, 64);
        assert_eq!(topo.cells_per_rank(), 16);
        let mut covered = [false; 64];
        for r in topo.ranks() {
            #[allow(clippy::needless_range_loop)]
            for c in topo.slab_start(r)..topo.slab_end(r) {
                assert!(!covered[c], "cell {c} covered twice");
                covered[c] = true;
                assert_eq!(topo.rank_of_cell(c), r);
            }
        }
        assert!(covered.iter().all(|&c| c));
    }

    #[test]
    fn neighbours_wrap_periodically() {
        let topo = Topology::new(4, 64);
        assert_eq!(topo.left(0), 3);
        assert_eq!(topo.right(3), 0);
        assert_eq!(topo.left(2), 1);
        assert_eq!(topo.right(1), 2);
    }

    #[test]
    fn single_rank_owns_everything() {
        let topo = Topology::new(1, 64);
        assert_eq!(topo.cells_per_rank(), 64);
        assert_eq!(topo.left(0), 0);
        assert_eq!(topo.right(0), 0);
        for c in 0..64 {
            assert_eq!(topo.rank_of_cell(c), 0);
        }
    }

    #[test]
    fn position_ownership_follows_cells() {
        let grid = Grid1D::new(64, 2.0532);
        let topo = Topology::new(4, 64);
        assert_eq!(topo.rank_of_position(0.0, &grid), 0);
        // Just below the box end: last rank.
        assert_eq!(topo.rank_of_position(grid.length() - 1e-12, &grid), 3);
        // A slab boundary belongs to the right slab.
        let boundary = grid.dx() * 16.0;
        assert_eq!(topo.rank_of_position(boundary, &grid), 1);
        assert_eq!(topo.rank_of_position(boundary - 1e-12, &grid), 0);
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn indivisible_rank_count_rejected() {
        let _ = Topology::new(3, 64);
    }
}
