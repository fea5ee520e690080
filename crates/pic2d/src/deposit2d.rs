//! Charge deposition in two dimensions.
//!
//! Two-dimensional shape functions factorize into products of the 1-D
//! assignment functions, so the deposition weight of particle `p` on node
//! `(i, j)` is `Wx_i(x_p/dx) · Wy_j(y_p/dy)` with the [`Shape`] hierarchy
//! (NGP/CIC/TSC) of the 1-D crate reused per axis.

use crate::grid2d::Grid2D;
use crate::particles2d::Particles2D;
use dlpic_pic::fused::wrap_cell;
use dlpic_pic::shape::Shape;

/// Deposits macro-particle charge onto the node array `rho`
/// (units: charge / area — node density), sequentially in particle order.
/// Node indices wrap by compare-and-fold ([`wrap_cell`]) — the same values
/// `wrap_ix`/`wrap_iy` produce, without the per-node integer division.
///
/// # Panics
/// Panics if `rho` length differs from the grid node count.
pub fn deposit_charge(particles: &Particles2D, grid: &Grid2D, shape: Shape, rho: &mut [f64]) {
    assert_eq!(rho.len(), grid.nodes(), "rho length mismatch");
    let q_over_area = particles.charge() / grid.cell_area();
    let inv_dx = 1.0 / grid.dx();
    let inv_dy = 1.0 / grid.dy();
    let nx = grid.nx();
    let nxi = nx as i64;
    let nyi = grid.ny() as i64;
    let support = shape.support();

    for (&x, &y) in particles.x.iter().zip(&particles.y) {
        let ax = shape.assign(x * inv_dx);
        let ay = shape.assign(y * inv_dy);
        for jy in 0..support {
            let wy = ay.w[jy];
            if wy == 0.0 {
                continue;
            }
            let row = wrap_cell(ay.leftmost + jy as i64, nyi) * nx;
            for jx in 0..support {
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

/// Adds the uniform neutralizing ion background (+1 in the paper's
/// normalized units) to every node.
pub fn add_uniform_background(rho: &mut [f64], background: f64) {
    for r in rho.iter_mut() {
        *r += background;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn single_particle(x: f64, y: f64, q: f64) -> Particles2D {
        Particles2D::new(vec![x], vec![y], vec![0.0], vec![0.0], q, 1.0)
    }

    #[test]
    fn particle_on_node_deposits_all_charge_there_cic() {
        let grid = Grid2D::new(8, 8, 2.0, 2.0);
        let mut rho = grid.zeros();
        let p = single_particle(2.0 * grid.dx(), 3.0 * grid.dy(), -1.0);
        deposit_charge(&p, &grid, Shape::Cic, &mut rho);
        let expected = -1.0 / grid.cell_area();
        assert!((rho[grid.index(2, 3)] - expected).abs() < 1e-12);
        let total: f64 = rho.iter().sum();
        assert!((total * grid.cell_area() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn cell_center_cic_splits_four_ways() {
        let grid = Grid2D::new(8, 8, 2.0, 2.0);
        let mut rho = grid.zeros();
        let p = single_particle(1.5 * grid.dx(), 2.5 * grid.dy(), -1.0);
        deposit_charge(&p, &grid, Shape::Cic, &mut rho);
        let quarter = -0.25 / grid.cell_area();
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
        let expect = -(1.0 - eps) * (1.0 - eps) / grid.cell_area();
        assert!((rho[grid.index(0, 0)] - expect).abs() < 1e-12);
        let total: f64 = rho.iter().sum::<f64>() * grid.cell_area();
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
        let p = Particles2D::electrons_normalized(xs, ys, vec![0.0; n], vec![0.0; n], grid.area());
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
            let p = Particles2D::electrons_normalized(
                xs, ys, vec![0.0; n], vec![0.0; n], grid.area());
            for shape in [Shape::Ngp, Shape::Cic, Shape::Tsc] {
                let mut rho = grid.zeros();
                deposit_charge(&p, &grid, shape, &mut rho);
                let total: f64 = rho.iter().sum::<f64>() * grid.cell_area();
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
