//! 2-D unit tests of the reference gather ([`crate::gather`]).

#[cfg(test)]
use crate::{gather::gather_field, grid::Grid2D, particles::Particles2D, shape::Shape};

/// The gather of the stacked field `[ex | ey]`, split back into
/// `(gx, gy)`.
#[cfg(test)]
fn gather(
    p: &Particles2D,
    grid: &Grid2D,
    shape: Shape,
    ex: &[f64],
    ey: &[f64],
) -> (Vec<f64>, Vec<f64>) {
    let mut gx = vec![0.0; 2 * p.len()];
    gather_field(p, grid, shape, &[ex, ey].concat(), &mut gx);
    let gy = gx.split_off(p.len());
    (gx, gy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn particle_at(x: f64, y: f64) -> Particles2D {
        Particles2D::new([vec![x], vec![y]], [vec![0.0], vec![0.0]], -1.0, 1.0)
    }

    #[test]
    fn uniform_field_gathers_exactly() {
        let grid = Grid2D::new(8, 8, 2.0, 2.0);
        let ex = vec![0.7; grid.nodes()];
        let ey = vec![-0.3; grid.nodes()];
        for shape in [Shape::Ngp, Shape::Cic, Shape::Tsc] {
            let p = particle_at(0.37, 1.91);
            let (gx, gy) = gather(&p, &grid, shape, &ex, &ey);
            assert!((gx[0] - 0.7).abs() < 1e-12, "{shape:?}: {gx:?}");
            assert!((gy[0] + 0.3).abs() < 1e-12, "{shape:?}: {gy:?}");
        }
    }

    #[test]
    fn particle_on_node_reads_node_value_cic() {
        let grid = Grid2D::new(8, 8, 2.0, 2.0);
        let mut ex = grid.zeros();
        let mut ey = grid.zeros();
        ex[grid.index(3, 5)] = 2.0;
        ey[grid.index(3, 5)] = -1.0;
        let p = particle_at(3.0 * grid.dx(), 5.0 * grid.dy());
        let (gx, gy) = gather(&p, &grid, Shape::Cic, &ex, &ey);
        assert!((gx[0] - 2.0).abs() < 1e-12);
        assert!((gy[0] + 1.0).abs() < 1e-12);
    }

    #[test]
    fn linear_field_interpolated_exactly_by_cic() {
        // CIC reproduces linear functions exactly (between nodes).
        let grid = Grid2D::new(16, 16, 2.0, 2.0);
        let (a, b) = (0.4, -0.2);
        let mut ex = grid.zeros();
        for iy in 0..grid.ny() {
            for ix in 0..grid.nx() {
                // Avoid the periodic seam by keeping the test particle
                // away from the boundary.
                ex[grid.index(ix, iy)] = a * ix as f64 * grid.dx() + b * iy as f64 * grid.dy();
            }
        }
        let ey = grid.zeros();
        let (x, y) = (0.613, 0.471);
        let p = particle_at(x, y);
        let (gx, _) = gather(&p, &grid, Shape::Cic, &ex, &ey);
        assert!((gx[0] - (a * x + b * y)).abs() < 1e-12);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn gather_is_convex_combination(
            x in 0.0f64..2.0, y in 0.0f64..2.0, seed in 0u64..1000,
        ) {
            // Gathered value lies within [min, max] of the field for all
            // shapes (weights are a partition of unity and non-negative).
            let grid = Grid2D::new(8, 8, 2.0, 2.0);
            let field: Vec<f64> = (0..grid.nodes())
                .map(|i| (((i as u64 + 1) * (seed + 7)) % 101) as f64 / 50.5 - 1.0)
                .collect();
            let lo = field.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = field.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let zero = grid.zeros();
            for shape in [Shape::Ngp, Shape::Cic, Shape::Tsc] {
                let p = particle_at(x, y);
                let (gx, _) = gather(&p, &grid, shape, &field, &zero);
                prop_assert!(gx[0] >= lo - 1e-12 && gx[0] <= hi + 1e-12,
                    "{shape:?}: {} outside [{lo}, {hi}]", gx[0]);
            }
        }

        #[test]
        fn no_self_force_after_deposit_gather_round_trip(
            x in 0.05f64..1.95, y in 0.05f64..1.95,
        ) {
            // A single particle's own deposited charge, pushed through the
            // Poisson solve and gathered back with the same shape, exerts
            // no net force on the particle (momentum conservation of the
            // scheme). Verified through the full traditional pipeline.
            use crate::solver::{FieldSolver, PoissonKind, TraditionalSolver};
            let grid = Grid2D::new(8, 8, 2.0, 2.0);
            let p = Particles2D::new([vec![x], vec![y]], [vec![0.0], vec![0.0]], -0.05, 0.05);
            let mut solver = TraditionalSolver::<Grid2D>::new(
                Shape::Cic, PoissonKind::Spectral, 0.0125);
            let mut e = vec![0.0; 2 * grid.nodes()];
            solver.solve(&p, &grid, &mut e);
            let (ex, ey) = e.split_at(grid.nodes());
            let (gx, gy) = gather(&p, &grid, Shape::Cic, ex, ey);
            prop_assert!(gx[0].abs() < 1e-10, "self-force Ex = {}", gx[0]);
            prop_assert!(gy[0].abs() < 1e-10, "self-force Ey = {}", gy[0]);
        }
    }
}

#[cfg(test)]
mod adjointness_tests {
    use super::*;
    use crate::deposit2d::deposit_charge;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The total-force identity behind momentum conservation: with
        /// matched deposit/gather weights,
        /// `Σ_p q·E(x_p) == ΔA·Σ_j ρ_j·E_j` for *any* field and any
        /// particle set — deposit and gather are adjoint operators.
        #[test]
        fn deposit_and_gather_are_adjoint(
            seed in 0u64..500,
            n in 1usize..60,
        ) {
            let grid = Grid2D::new(8, 8, 2.0, 2.0);
            // Deterministic scrambled particles and field from the seed.
            let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            let mut next = || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 11) as f64 / (1u64 << 53) as f64
            };
            let xs: Vec<f64> = (0..n).map(|_| next() * grid.lx()).collect();
            let ys: Vec<f64> = (0..n).map(|_| next() * grid.ly()).collect();
            let ex: Vec<f64> = (0..grid.nodes()).map(|_| next() * 2.0 - 1.0).collect();
            let ey: Vec<f64> = (0..grid.nodes()).map(|_| next() * 2.0 - 1.0).collect();
            let p = Particles2D::new([xs, ys], [vec![0.0; n], vec![0.0; n]], -0.37, 0.37);

            for shape in [Shape::Ngp, Shape::Cic, Shape::Tsc] {
                let mut rho = grid.zeros();
                deposit_charge(&p, &grid, shape, &mut rho);
                let (gx, gy) = gather(&p, &grid, shape, &ex, &ey);

                let force_particles: f64 =
                    p.charge() * (gx.iter().sum::<f64>() + gy.iter().sum::<f64>());
                let force_grid: f64 = grid.cell_volume()
                    * rho.iter().zip(ex.iter().zip(&ey))
                        .map(|(r, (fx, fy))| r * (fx + fy))
                        .sum::<f64>();
                prop_assert!(
                    (force_particles - force_grid).abs()
                        < 1e-10 * (1.0 + force_grid.abs()),
                    "{shape:?}: particle force {force_particles} vs grid {force_grid}"
                );
            }
        }
    }
}
