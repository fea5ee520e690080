//! Charge deposition (particles → grid), paper Fig. 1 third phase.
//!
//! One sequential scatter in particle order. A deposit is a
//! read-modify-write of shared grid nodes, so the order of the additions
//! is part of the result: checkpoint/resume bit-identity and the
//! distributed backend's equivalence with the single-process run rest on
//! it being the particle order.

use crate::fused::wrap_cell;
use crate::grid::Grid1D;
use crate::particles::Particles;
use crate::shape::Shape;

/// Deposits particle charge density onto grid nodes: `ρ_j += Σ_p q·W/dx`.
///
/// `rho` is *accumulated into* (callers zero it or pre-fill with the ion
/// background). Node indices are wrapped with the compare-and-fold of
/// [`wrap_cell`] — the same values `Grid1D::wrap_index` produces, without
/// the per-particle integer division.
///
/// # Panics
/// Panics if `rho` length differs from the grid node count.
pub fn deposit_charge(particles: &Particles, grid: &Grid1D, shape: Shape, rho: &mut [f64]) {
    assert_eq!(rho.len(), grid.ncells(), "rho length mismatch");
    let scale = particles.charge() / grid.dx();
    let inv_dx = 1.0 / grid.dx();
    let n = grid.ncells();
    let ni = n as i64;
    match shape {
        Shape::Ngp => {
            for &x in &particles.x {
                let a = shape.assign(x * inv_dx);
                rho[wrap_cell(a.leftmost, ni)] += scale;
            }
        }
        Shape::Cic => {
            for &x in &particles.x {
                let a = shape.assign(x * inv_dx);
                let j = wrap_cell(a.leftmost, ni);
                let j1 = if j + 1 == n { 0 } else { j + 1 };
                rho[j] += scale * a.w[0];
                rho[j1] += scale * a.w[1];
            }
        }
        Shape::Tsc => {
            for &x in &particles.x {
                let a = shape.assign(x * inv_dx);
                for (o, w) in a.w.iter().enumerate() {
                    rho[wrap_cell(a.leftmost + o as i64, ni)] += scale * w;
                }
            }
        }
    }
}

// The two names below are pinned by `benchmark/src/bin/trace/probes.rs`
// (`pic.deposit_us`), which a product change may not edit; nothing in this
// workspace calls them. They go once the probe calls `deposit_charge`.

/// Carries nothing: the argument type of [`deposit_charge_with_scratch`].
#[doc(hidden)]
#[derive(Debug, Default)]
pub struct DepositScratch;

impl DepositScratch {
    /// The only value.
    pub fn new() -> Self {
        Self
    }
}

/// Forwards to [`deposit_charge`].
#[doc(hidden)]
pub fn deposit_charge_with_scratch(
    particles: &Particles,
    grid: &Grid1D,
    shape: Shape,
    rho: &mut [f64],
    _scratch: &mut DepositScratch,
) {
    deposit_charge(particles, grid, shape, rho);
}

/// Adds the uniform neutralizing ion background (+1 in normalized units for
/// the paper's setup) to a charge-density array.
pub fn add_uniform_background(rho: &mut [f64], density: f64) {
    for r in rho.iter_mut() {
        *r += density;
    }
}

/// Net charge ∫ρ dx of a density array — zero for a neutralized plasma.
#[cfg(test)]
fn net_charge(rho: &[f64], grid: &Grid1D) -> f64 {
    rho.iter().sum::<f64>() * grid.dx()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn electrons_at(xs: Vec<f64>, grid: &Grid1D) -> Particles {
        let n = xs.len();
        Particles::electrons_normalized(xs, vec![0.0; n], grid.length())
    }

    #[test]
    fn particle_on_node_deposits_fully_there() {
        let grid = Grid1D::new(8, 8.0); // dx = 1
        for shape in [Shape::Ngp, Shape::Cic] {
            let p = electrons_at(vec![3.0], &grid);
            let mut rho = grid.zeros();
            deposit_charge(&p, &grid, shape, &mut rho);
            assert!((rho[3] - p.charge() / grid.dx()).abs() < 1e-15, "{shape:?}");
            let off: f64 = rho
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != 3)
                .map(|(_, r)| r.abs())
                .sum();
            assert!(off < 1e-15, "{shape:?} leaked charge {off}");
        }
    }

    #[test]
    fn cic_splits_between_adjacent_nodes() {
        let grid = Grid1D::new(8, 8.0);
        let p = electrons_at(vec![3.25], &grid);
        let mut rho = grid.zeros();
        deposit_charge(&p, &grid, Shape::Cic, &mut rho);
        let q_dx = p.charge() / grid.dx();
        assert!((rho[3] - 0.75 * q_dx).abs() < 1e-15);
        assert!((rho[4] - 0.25 * q_dx).abs() < 1e-15);
    }

    #[test]
    fn periodic_wrap_at_right_edge() {
        let grid = Grid1D::new(8, 8.0);
        // Particle between the last node and the (periodic) first node.
        let p = electrons_at(vec![7.5], &grid);
        let mut rho = grid.zeros();
        deposit_charge(&p, &grid, Shape::Cic, &mut rho);
        let q_dx = p.charge() / grid.dx();
        assert!((rho[7] - 0.5 * q_dx).abs() < 1e-15);
        assert!((rho[0] - 0.5 * q_dx).abs() < 1e-15);
    }

    #[test]
    fn scratch_variant_matches_plain_deposit() {
        let grid = Grid1D::new(16, 2.0532);
        let xs: Vec<f64> = (0..40_000)
            .map(|i| (i as f64 * 0.618_033_988_749_894_9).fract() * grid.length())
            .collect();
        let p = electrons_at(xs, &grid);
        let mut scratch = DepositScratch::new();
        for shape in [Shape::Ngp, Shape::Cic, Shape::Tsc] {
            let mut plain = grid.zeros();
            let mut with_scratch = grid.zeros();
            deposit_charge(&p, &grid, shape, &mut plain);
            deposit_charge_with_scratch(&p, &grid, shape, &mut with_scratch, &mut scratch);
            assert_eq!(plain, with_scratch, "{shape:?}");
        }
    }

    #[test]
    fn uniform_background_neutralizes_uniform_plasma() {
        let grid = Grid1D::paper();
        let n = 64_000;
        // Exactly uniform particle positions.
        let xs: Vec<f64> = (0..n)
            .map(|i| (i as f64 + 0.5) / n as f64 * grid.length())
            .collect();
        let p = electrons_at(xs, &grid);
        let mut rho = grid.zeros();
        deposit_charge(&p, &grid, Shape::Cic, &mut rho);
        add_uniform_background(&mut rho, 1.0);
        for (j, r) in rho.iter().enumerate() {
            assert!(r.abs() < 1e-9, "node {j}: residual {r}");
        }
    }

    #[test]
    fn net_charge_of_neutralized_system_is_zero() {
        let grid = Grid1D::paper();
        let p = TwoStreamInitHelper::build(4_000, &grid);
        let mut rho = grid.zeros();
        deposit_charge(&p, &grid, Shape::Tsc, &mut rho);
        add_uniform_background(&mut rho, 1.0);
        assert!(net_charge(&rho, &grid).abs() < 1e-10);
    }

    /// Local helper: random-ish particle placement without pulling init.rs
    /// into these unit tests.
    struct TwoStreamInitHelper;
    impl TwoStreamInitHelper {
        fn build(n: usize, grid: &Grid1D) -> Particles {
            let xs: Vec<f64> = (0..n)
                .map(|i| {
                    let golden = 0.618_033_988_749_894_9_f64;
                    (i as f64 * golden).fract() * grid.length()
                })
                .collect();
            electrons_at(xs, grid)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn total_charge_conserved_for_all_shapes(
            xs in proptest::collection::vec(0.0f64..2.05, 1..200),
        ) {
            let grid = Grid1D::new(16, 2.0532);
            let xs: Vec<f64> = xs.into_iter().map(|x| grid.wrap_position(x)).collect();
            let p = electrons_at(xs, &grid);
            for shape in [Shape::Ngp, Shape::Cic, Shape::Tsc] {
                let mut rho = grid.zeros();
                deposit_charge(&p, &grid, shape, &mut rho);
                let total = net_charge(&rho, &grid);
                prop_assert!((total - p.total_charge()).abs() < 1e-9 * p.len() as f64,
                    "{shape:?}: {total} vs {}", p.total_charge());
            }
        }

        #[test]
        fn deposition_is_permutation_invariant(
            xs in proptest::collection::vec(0.0f64..2.0, 2..64),
        ) {
            let grid = Grid1D::new(8, 2.0);
            let p1 = electrons_at(xs.clone(), &grid);
            let mut reversed = xs;
            reversed.reverse();
            let p2 = electrons_at(reversed, &grid);
            let mut r1 = grid.zeros();
            let mut r2 = grid.zeros();
            deposit_charge(&p1, &grid, Shape::Cic, &mut r1);
            deposit_charge(&p2, &grid, Shape::Cic, &mut r2);
            for (a, b) in r1.iter().zip(&r2) {
                prop_assert!((a - b).abs() < 1e-12);
            }
        }
    }
}
