//! Electric field from the potential: `E = −∇Φ` (paper Eq. 4), discretized
//! with periodic second-order central differences, plus the field-energy
//! diagnostic — both written once over the grid's axes.

use crate::grid::Grid;

/// Computes `E = −∇Φ` into the stacked field `e` (`[E]` in 1-D,
/// `[Ex | Ey]` in 2-D): along axis `k`,
/// `E_k[j] = −(Φ[j+1] − Φ[j−1]) / (2·h_k)` with periodic wrap.
///
/// # Panics
/// Panics if array lengths disagree with the grid or an axis has fewer
/// than two nodes.
pub fn efield_from_phi<const D: usize>(grid: &Grid<D>, phi: &[f64], e: &mut [f64]) {
    let nodes = grid.nodes();
    assert_eq!(phi.len(), nodes, "phi length mismatch");
    assert_eq!(e.len(), D * nodes, "e length mismatch");
    let (cells, spacing) = (grid.cells(), grid.spacing());
    assert!(
        cells.iter().all(|&n| n >= 2),
        "need at least two nodes per axis"
    );
    // Axis `k` of a node array is blocks of `n` slabs of `stride` nodes.
    let mut stride = 1;
    for (k, e_axis) in e.chunks_exact_mut(nodes).enumerate() {
        let n = cells[k];
        let inv_2h = 1.0 / (2.0 * spacing[k]);
        let block = n * stride;
        for (e_block, phi_block) in e_axis.chunks_exact_mut(block).zip(phi.chunks_exact(block)) {
            for (j, e_slab) in e_block.chunks_exact_mut(stride).enumerate() {
                let up = &phi_block[if j + 1 == n { 0 } else { j + 1 } * stride..][..stride];
                let down = &phi_block[if j == 0 { n - 1 } else { j - 1 } * stride..][..stride];
                for ((e, u), d) in e_slab.iter_mut().zip(up).zip(down) {
                    *e = -(u - d) * inv_2h;
                }
            }
        }
        stride = block;
    }
}

/// Field energy `½·ε₀·Σ |E|²·dV` (ε₀ = 1, `dV` the cell volume) of the
/// stacked field — the electrostatic half of the paper's "Total Energy"
/// plots (Figs. 5–6). Each node's `|E|²` adds its components in axis
/// order.
pub fn field_energy<const D: usize>(grid: &Grid<D>, e: &[f64]) -> f64 {
    let nodes = grid.nodes();
    assert_eq!(e.len(), D * nodes, "e length mismatch");
    let sum: f64 = (0..nodes)
        .map(|i| {
            let mut e2 = e[i] * e[i];
            for c in 1..D {
                let v = e[c * nodes + i];
                e2 += v * v;
            }
            e2
        })
        .sum();
    0.5 * grid.cell_volume() * sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Grid1D;
    use proptest::prelude::*;

    #[test]
    fn gradient_of_cosine_potential() {
        let grid = Grid1D::paper();
        let k = grid.mode_wavenumber(1);
        let n = grid.nx();
        let phi: Vec<f64> = (0..n).map(|j| (k * grid.node_position(j)).cos()).collect();
        let mut e = grid.zeros();
        efield_from_phi(&grid, &phi, &mut e);
        // E = -dΦ/dx = k sin(kx); central difference has sin(k dx)/(k dx)
        // attenuation.
        let attenuation = (k * grid.dx()).sin() / (k * grid.dx());
        #[allow(clippy::needless_range_loop)]
        for j in 0..n {
            let expect = k * (k * grid.node_position(j)).sin() * attenuation;
            assert!(
                (e[j] - expect).abs() < 1e-10,
                "node {j}: {} vs {expect}",
                e[j]
            );
        }
    }

    #[test]
    fn constant_potential_gives_zero_field() {
        let grid = Grid1D::new(16, 2.0);
        let phi = vec![3.3; 16];
        let mut e = vec![1.0; 16];
        efield_from_phi(&grid, &phi, &mut e);
        assert!(e.iter().all(|v| v.abs() < 1e-14));
    }

    #[test]
    fn field_energy_of_unit_field() {
        let grid = Grid1D::new(10, 5.0); // dx = 0.5
        let e = vec![1.0; 10];
        assert!((field_energy(&grid, &e) - 0.5 * 5.0).abs() < 1e-12);
    }

    #[test]
    fn wrap_rows_match_interior_for_periodic_signal() {
        let grid = Grid1D::new(64, 2.0532);
        let k = grid.mode_wavenumber(2);
        let phi: Vec<f64> = (0..64).map(|j| (k * grid.node_position(j)).sin()).collect();
        let mut e = grid.zeros();
        efield_from_phi(&grid, &phi, &mut e);
        // The analytic gradient is periodic: check edge nodes against the
        // same formula as interior nodes.
        let attenuation = (k * grid.dx()).sin() / (k * grid.dx());
        for j in [0usize, 63] {
            let expect = -k * (k * grid.node_position(j)).cos() * attenuation;
            assert!((e[j] - expect).abs() < 1e-10);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Central differences of any periodic signal sum to zero — the
        /// discrete statement that a periodic E from a potential carries no
        /// net force (momentum conservation of the field solve).
        #[test]
        fn gradient_sums_to_zero(phi in proptest::collection::vec(-10.0f64..10.0, 32)) {
            let grid = Grid1D::new(32, 2.0);
            let mut e = grid.zeros();
            efield_from_phi(&grid, &phi, &mut e);
            let total: f64 = e.iter().sum();
            prop_assert!(total.abs() < 1e-9, "ΣE = {total}");
        }

        #[test]
        fn field_energy_nonnegative_and_scales_quadratically(
            e in proptest::collection::vec(-5.0f64..5.0, 16),
            s in 0.1f64..3.0,
        ) {
            let grid = Grid1D::new(16, 1.6);
            let fe = field_energy(&grid, &e);
            prop_assert!(fe >= 0.0);
            let scaled: Vec<f64> = e.iter().map(|v| v * s).collect();
            prop_assert!((field_energy(&grid, &scaled) - s * s * fe).abs() < 1e-9 * (1.0 + fe));
        }
    }
}
