//! Field interpolation (grid → particles), paper Fig. 1 first phase.
//!
//! Uses the same shape function as the deposition — the combination that
//! makes the explicit scheme momentum-conserving (no self-force; see the
//! property tests at the bottom, which verify `Σ_p q·E(x_p) = 0` exactly
//! for charge distributions deposited with the *same* shape). In `D`
//! dimensions the weights are the tensor product of the per-axis
//! [`Shape`] weights.
//!
//! This is the reference gather: the stepping loop runs the fused kernels
//! ([`crate::fused`], [`crate::fused2d`]), and `tests/fused_equivalence.rs`
//! holds them to this function bit for bit.

use crate::grid::Grid;
use crate::particles::Particles;
use crate::shape::{Assignment, Shape};

/// Interpolates the stacked grid field `e` (`[E]` in 1-D, `[Ex | Ey]` in
/// 2-D, each component [`Grid::nodes`] long) to every particle position,
/// writing the stacked per-particle components into `e_part` (each
/// `particles.len()` long; reused across steps to avoid per-step
/// allocation).
///
/// Each component adds every stencil term `w * e[node]` from `+0.0`, `x`
/// fastest, with `w` the product of the axis weights in axis order. A
/// zero-weight term is `±0.0` added to a sum that is never `-0.0`, so it
/// changes no bit for a finite field.
///
/// # Panics
/// Panics if buffer sizes disagree with the particle count / grid.
pub fn gather_field<const D: usize>(
    particles: &Particles<D>,
    grid: &Grid<D>,
    shape: Shape,
    e: &[f64],
    e_part: &mut [f64],
) {
    let (nodes, n) = (grid.nodes(), particles.len());
    assert_eq!(e.len(), D * nodes, "field length mismatch");
    assert_eq!(e_part.len(), D * n, "per-particle buffer mismatch");
    let cells = grid.cells();
    let spacing = grid.spacing();
    let inv_h: [f64; D] = std::array::from_fn(|k| 1.0 / spacing[k]);
    let support = shape.support();
    let stencil = support.pow(D as u32);

    for i in 0..n {
        let a: [Assignment; D] =
            std::array::from_fn(|k| shape.assign(particles.pos[k][i] * inv_h[k]));
        let mut acc = [0.0; D];
        for s in 0..stencil {
            let (mut w, mut node, mut stride, mut rest) = (1.0, 0, 1, s);
            for k in 0..D {
                let o = rest % support;
                rest /= support;
                w *= a[k].w[o];
                node += (a[k].leftmost + o as i64).rem_euclid(cells[k] as i64) as usize * stride;
                stride *= cells[k];
            }
            for (c, acc) in acc.iter_mut().enumerate() {
                *acc += w * e[c * nodes + node];
            }
        }
        for (c, acc) in acc.into_iter().enumerate() {
            e_part[c * n + i] = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deposit::deposit_charge;
    use crate::grid::Grid1D;
    use proptest::prelude::*;

    fn particles_at(xs: Vec<f64>, grid: &Grid1D) -> Particles {
        let n = xs.len();
        Particles::electrons_normalized([xs], [vec![0.0; n]], grid.lx())
    }

    #[test]
    fn gather_on_node_returns_node_value() {
        let grid = Grid1D::new(8, 8.0);
        let e: Vec<f64> = (0..8).map(|j| j as f64).collect();
        let p = particles_at(vec![5.0], &grid);
        let mut ep = vec![0.0; 1];
        for shape in [Shape::Ngp, Shape::Cic] {
            gather_field(&p, &grid, shape, &e, &mut ep);
            assert!((ep[0] - 5.0).abs() < 1e-15, "{shape:?}");
        }
    }

    #[test]
    fn cic_interpolates_linearly_between_nodes() {
        let grid = Grid1D::new(8, 8.0);
        let e: Vec<f64> = (0..8).map(|j| 2.0 * j as f64).collect();
        let p = particles_at(vec![2.25], &grid);
        let mut ep = vec![0.0; 1];
        gather_field(&p, &grid, Shape::Cic, &e, &mut ep);
        assert!((ep[0] - 4.5).abs() < 1e-15);
    }

    #[test]
    fn constant_field_gathers_exactly_for_all_shapes() {
        let grid = Grid1D::new(16, 2.0532);
        let e = vec![0.321; 16];
        let xs: Vec<f64> = (0..100).map(|i| i as f64 / 100.0 * grid.lx()).collect();
        let p = particles_at(xs, &grid);
        let mut ep = vec![0.0; p.len()];
        for shape in [Shape::Ngp, Shape::Cic, Shape::Tsc] {
            gather_field(&p, &grid, shape, &e, &mut ep);
            for &v in &ep {
                assert!((v - 0.321).abs() < 1e-14, "{shape:?}");
            }
        }
    }

    #[test]
    fn wrap_at_box_edge() {
        let grid = Grid1D::new(4, 4.0);
        let e = vec![1.0, 0.0, 0.0, 3.0];
        // Particle at x = 3.5: CIC weights 0.5 on node 3, 0.5 on node 0.
        let p = particles_at(vec![3.5], &grid);
        let mut ep = vec![0.0; 1];
        gather_field(&p, &grid, Shape::Cic, &e, &mut ep);
        assert!((ep[0] - 2.0).abs() < 1e-15);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Momentum conservation identity: the total electric force on the
        /// particles, with E derived from a *symmetric* field solve of their
        /// own charge, vanishes when gather and deposit share the shape.
        /// Here we test the core algebraic part: Σ_p q·E(x_p) equals the
        /// grid sum Σ_j E_j·ρ_j·dx for any field E.
        #[test]
        fn gather_is_adjoint_of_deposit(
            xs in proptest::collection::vec(0.0f64..2.0, 1..128),
            e in proptest::collection::vec(-1.0f64..1.0, 8),
        ) {
            let grid = Grid1D::new(8, 2.0);
            let p = particles_at(xs, &grid);
            for shape in [Shape::Ngp, Shape::Cic, Shape::Tsc] {
                let mut ep = vec![0.0; p.len()];
                gather_field(&p, &grid, shape, &e, &mut ep);
                let force_particles: f64 = ep.iter().sum::<f64>() * p.charge();

                let mut rho = grid.zeros();
                deposit_charge(&p, &grid, shape, &mut rho);
                let force_grid: f64 = rho
                    .iter()
                    .zip(&e)
                    .map(|(r, f)| r * f)
                    .sum::<f64>() * grid.dx();

                prop_assert!((force_particles - force_grid).abs() < 1e-9,
                    "{shape:?}: {force_particles} vs {force_grid}");
            }
        }

        #[test]
        fn gather_bounded_by_field_extrema(
            xs in proptest::collection::vec(0.0f64..2.0, 1..64),
            e in proptest::collection::vec(-5.0f64..5.0, 8),
        ) {
            let grid = Grid1D::new(8, 2.0);
            let p = particles_at(xs, &grid);
            let lo = e.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = e.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            for shape in [Shape::Ngp, Shape::Cic, Shape::Tsc] {
                let mut ep = vec![0.0; p.len()];
                gather_field(&p, &grid, shape, &e, &mut ep);
                for &v in &ep {
                    prop_assert!(v >= lo - 1e-12 && v <= hi + 1e-12,
                        "{shape:?}: {v} outside [{lo}, {hi}]");
                }
            }
        }
    }
}
