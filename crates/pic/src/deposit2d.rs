//! Charge deposition in two dimensions.
//!
//! Two-dimensional shape functions factorize into products of the 1-D
//! assignment functions, so the deposition weight of particle `p` on node
//! `(i, j)` is `Wx_i(x_p/dx) · Wy_j(y_p/dy)` with the [`Shape`] hierarchy
//! (NGP/CIC/TSC) of the 1-D kernels reused per axis.
//!
//! The kernel body is written once over the shape's support `S` (a const
//! generic) and picked by one `match` per call, so each shape's `S×S`
//! stencil is straight-line code. `axis_stencil` and `next_node` are
//! the per-axis half it shares with the fused push
//! ([`fused2d`](crate::fused2d)).

use crate::fused::wrap_cell;
use crate::grid::Grid2D;
use crate::particles::Particles2D;
use crate::shape::Shape;

/// One axis of the tensor-product stencil of the shape whose support is
/// `S` (1, 2, 3 for NGP, CIC, TSC) at normalized position `xdx = x/dx`:
/// the first supporting node, wrapped into `[0, n)` by [`wrap_cell`], and
/// the `S` weights in node order — [`Shape::assign`]'s arithmetic, with
/// the shape fixed at compile time.
#[inline(always)]
pub(crate) fn axis_stencil<const S: usize>(xdx: f64, n: i64) -> (usize, [f64; S]) {
    let shape = match S {
        1 => Shape::Ngp,
        2 => Shape::Cic,
        _ => Shape::Tsc,
    };
    let a = shape.assign(xdx);
    (wrap_cell(a.leftmost, n), std::array::from_fn(|k| a.w[k]))
}

/// The node after `j` on a periodic axis of `n` nodes: the stencil's
/// later nodes wrap by one compare, not one [`wrap_cell`] each.
#[inline(always)]
pub(crate) fn next_node(j: usize, n: usize) -> usize {
    if j + 1 == n {
        0
    } else {
        j + 1
    }
}

/// Deposits macro-particle charge onto the node array `rho`
/// (units: charge / area — node density), sequentially in particle order.
///
/// `rho` is accumulated into. Every stencil term is added, the zero
/// weights of a particle sitting on a node included: such a term is
/// `±0.0`, which leaves any sum but `-0.0` unchanged, and a sum started
/// from `+0.0` never becomes `-0.0` (`a + b` is `-0.0` only when both
/// are).
///
/// # Panics
/// Panics if `rho` length differs from the grid node count.
pub fn deposit_charge(particles: &Particles2D, grid: &Grid2D, shape: Shape, rho: &mut [f64]) {
    assert_eq!(rho.len(), grid.nodes(), "rho length mismatch");
    match shape {
        Shape::Ngp => deposit::<1>(particles, grid, rho),
        Shape::Cic => deposit::<2>(particles, grid, rho),
        Shape::Tsc => deposit::<3>(particles, grid, rho),
    }
}

/// [`deposit_charge`]'s body for the shape of support `S`: `y` rows
/// outer, `x` nodes inner, each term `q_over_area * wx * wy`.
fn deposit<const S: usize>(particles: &Particles2D, grid: &Grid2D, rho: &mut [f64]) {
    let q_over_area = particles.charge() / grid.cell_volume();
    let inv_dx = 1.0 / grid.dx();
    let inv_dy = 1.0 / grid.dy();
    let (nx, ny) = (grid.nx(), grid.ny());
    let (nxi, nyi) = (nx as i64, ny as i64);

    let [x, y] = &particles.pos;
    for (&x, &y) in x.iter().zip(y) {
        let (ix0, wxs) = axis_stencil::<S>(x * inv_dx, nxi);
        let (mut iy, wys) = axis_stencil::<S>(y * inv_dy, nyi);
        for wy in wys {
            let row = iy * nx;
            let mut ix = ix0;
            for wx in wxs {
                rho[row + ix] += q_over_area * wx * wy;
                ix = next_node(ix, nx);
            }
            iy = next_node(iy, ny);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deposit::add_uniform_background;
    use proptest::prelude::*;

    fn single_particle(x: f64, y: f64, q: f64) -> Particles2D {
        Particles2D::new([vec![x], vec![y]], [vec![0.0], vec![0.0]], q, 1.0)
    }

    /// The deposit as it was before the const-generic body: a runtime
    /// `support` loop that skips zero weights and wraps every node.
    fn generic_deposit(particles: &Particles2D, grid: &Grid2D, shape: Shape, rho: &mut [f64]) {
        let q_over_area = particles.charge() / grid.cell_volume();
        let (inv_dx, inv_dy) = (1.0 / grid.dx(), 1.0 / grid.dy());
        let (nxi, nyi) = (grid.nx() as i64, grid.ny() as i64);
        let [x, y] = &particles.pos;
        for (&x, &y) in x.iter().zip(y) {
            let ax = shape.assign(x * inv_dx);
            let ay = shape.assign(y * inv_dy);
            for jy in 0..shape.support() {
                let wy = ay.w[jy];
                if wy == 0.0 {
                    continue;
                }
                let row = wrap_cell(ay.leftmost + jy as i64, nyi) * grid.nx();
                for jx in 0..shape.support() {
                    let wx = ax.w[jx];
                    if wx == 0.0 {
                        continue;
                    }
                    let ix = wrap_cell(ax.leftmost + jx as i64, nxi);
                    rho[row + ix] += q_over_area * wx * wy;
                }
            }
        }
    }

    #[test]
    fn every_shape_matches_the_generic_loop_bit_for_bit() {
        // Power-of-two cell sizes (dx = 1/8, dy = 1/4) put `k·dx` exactly
        // on node `k` after the `x * inv_dx` scaling.
        let grid = Grid2D::new(16, 8, 2.0, 2.0);
        let (dx, dy, lx, ly) = (grid.dx(), grid.dy(), grid.lx(), grid.ly());
        let below = |l: f64| l - l * f64::EPSILON;
        // On nodes (zero weights), half a cell off them (the other zero
        // weights of TSC), the origin, and just below the far edges
        // (wrap), then a scatter of interior points.
        let mut pts = vec![
            (0.0, 0.0),
            (3.0 * dx, 5.0 * dy),
            (15.0 * dx, 7.0 * dy),
            (2.5 * dx, 0.5 * dy),
            (below(lx), 0.0),
            (0.0, below(ly)),
            (below(lx), below(ly)),
            (below(lx), 4.0 * dy),
            (15.5 * dx, 7.5 * dy),
        ];
        pts.extend((0..200).map(|i| {
            let t = i as f64;
            (
                (t * 0.618_033_988_75).fract() * lx,
                (t * 0.414_213_562_37).fract() * ly,
            )
        }));
        let (xs, ys): (Vec<f64>, Vec<f64>) = pts.into_iter().unzip();
        let n = xs.len();
        let p = Particles2D::electrons_normalized(
            [xs, ys],
            [vec![0.0; n], vec![0.0; n]],
            grid.volume(),
        );
        for shape in [Shape::Ngp, Shape::Cic, Shape::Tsc] {
            let (mut got, mut want) = (grid.zeros(), grid.zeros());
            deposit_charge(&p, &grid, shape, &mut got);
            generic_deposit(&p, &grid, shape, &mut want);
            let bits = |r: &[f64]| r.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "{shape:?}");
        }
    }

    #[test]
    fn particle_on_node_deposits_all_charge_there_cic() {
        let grid = Grid2D::new(8, 8, 2.0, 2.0);
        let mut rho = grid.zeros();
        let p = single_particle(2.0 * grid.dx(), 3.0 * grid.dy(), -1.0);
        deposit_charge(&p, &grid, Shape::Cic, &mut rho);
        let expected = -1.0 / grid.cell_volume();
        assert!((rho[grid.index(2, 3)] - expected).abs() < 1e-12);
        let total: f64 = rho.iter().sum();
        assert!((total * grid.cell_volume() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn cell_center_cic_splits_four_ways() {
        let grid = Grid2D::new(8, 8, 2.0, 2.0);
        let mut rho = grid.zeros();
        let p = single_particle(1.5 * grid.dx(), 2.5 * grid.dy(), -1.0);
        deposit_charge(&p, &grid, Shape::Cic, &mut rho);
        let quarter = -0.25 / grid.cell_volume();
        for (ix, iy) in [(1, 2), (2, 2), (1, 3), (2, 3)] {
            assert!((rho[grid.index(ix, iy)] - quarter).abs() < 1e-12);
        }
    }

    #[test]
    fn deposition_wraps_at_corners() {
        let grid = Grid2D::new(8, 8, 2.0, 2.0);
        let mut rho = grid.zeros();
        // Just inside the far corner: CIC support wraps in both axes.
        let eps = 0.25;
        let p = single_particle(
            grid.lx() - eps * grid.dx(),
            grid.ly() - eps * grid.dy(),
            -1.0,
        );
        deposit_charge(&p, &grid, Shape::Cic, &mut rho);
        // The particle sits eps·dx short of the wrapped node in each axis,
        // so CIC puts weight (1−eps)² there.
        let expect = -(1.0 - eps) * (1.0 - eps) / grid.cell_volume();
        assert!((rho[grid.index(0, 0)] - expect).abs() < 1e-12);
        let total: f64 = rho.iter().sum::<f64>() * grid.cell_volume();
        assert!((total + 1.0).abs() < 1e-12);
    }

    #[test]
    fn uniform_lattice_with_background_is_neutral() {
        let grid = Grid2D::new(8, 8, 2.0, 2.0);
        // 4 particles per cell on a regular sub-lattice.
        let per_axis = 16;
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for j in 0..per_axis {
            for i in 0..per_axis {
                xs.push((i as f64 + 0.5) / per_axis as f64 * grid.lx());
                ys.push((j as f64 + 0.5) / per_axis as f64 * grid.ly());
            }
        }
        let n = xs.len();
        let p = Particles2D::electrons_normalized(
            [xs, ys],
            [vec![0.0; n], vec![0.0; n]],
            grid.volume(),
        );
        let mut rho = grid.zeros();
        deposit_charge(&p, &grid, Shape::Cic, &mut rho);
        add_uniform_background(&mut rho, 1.0);
        for (i, r) in rho.iter().enumerate() {
            assert!(r.abs() < 1e-12, "node {i}: residual {r}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn total_charge_conserved_all_shapes(
            xs in proptest::collection::vec(0.0f64..2.0, 1..40),
            ys in proptest::collection::vec(0.0f64..2.0, 1..40),
        ) {
            let n = xs.len().min(ys.len());
            let xs = xs[..n].to_vec();
            let ys = ys[..n].to_vec();
            let grid = Grid2D::new(8, 16, 2.0, 2.0);
            let p = Particles2D::electrons_normalized([xs, ys], [vec![0.0; n], vec![0.0; n]], grid.volume());
            for shape in [Shape::Ngp, Shape::Cic, Shape::Tsc] {
                let mut rho = grid.zeros();
                deposit_charge(&p, &grid, shape, &mut rho);
                let total: f64 = rho.iter().sum::<f64>() * grid.cell_volume();
                prop_assert!((total - p.total_charge()).abs() < 1e-9,
                    "{shape:?}: deposited {total} vs {}", p.total_charge());
            }
        }

        #[test]
        fn deposition_never_negative_for_positive_charge(
            x in 0.0f64..2.0, y in 0.0f64..2.0,
        ) {
            let grid = Grid2D::new(8, 8, 2.0, 2.0);
            let p = single_particle(x, y, 1.0);
            for shape in [Shape::Ngp, Shape::Cic, Shape::Tsc] {
                let mut rho = grid.zeros();
                deposit_charge(&p, &grid, shape, &mut rho);
                for (i, r) in rho.iter().enumerate() {
                    prop_assert!(*r >= -1e-12, "{shape:?} node {i}: {r}");
                }
            }
        }
    }
}
