//! Charge deposition (particles → grid), paper Fig. 1 third phase.
//!
//! A scatter in particle order. A deposit is a read-modify-write of
//! shared grid nodes, so the order of the additions is part of the
//! result: checkpoint/resume bit-identity and the distributed backend's
//! equivalence with the single-process run rest on every node's terms
//! being added in particle order. The AVX-512 body ([`crate::lanes`])
//! computes eight particles' nodes and terms at once and still adds them
//! one particle after the other. A large CIC deposit on an even node
//! count, while a caller holds the worker team, runs as two parts that
//! each own the nodes of one parity (`split`): every node still gets its
//! terms in particle order, from the one part that owns it.

// analyze:hot — the deposit loop runs once per step over every particle;
// loop bodies here must stay allocation-free.

use crate::deposit2d::{axis_stencil, next_node};
use crate::grid::Grid1D;
use crate::lanes::{self, Body};
use crate::particles::Particles;
use crate::shape::Shape;
use crate::split;
use dlpic_team::Team;

/// Deposits particle charge density onto grid nodes: `ρ_j += Σ_p q·W/dx`.
///
/// `rho` is *accumulated into* (callers zero it or pre-fill with the ion
/// background). Node indices are wrapped with the compare-and-fold of
/// `fused::wrap_cell` — the same values `Grid::wrap_ix` produces, without
/// the per-particle integer division.
///
/// # Panics
/// Panics if `rho` length differs from the grid node count.
pub fn deposit_charge(particles: &Particles, grid: &Grid1D, shape: Shape, rho: &mut [f64]) {
    let team =
        split::team(particles.len()).filter(|_| split::deposit_splits(shape.support(), grid.nx()));
    deposit(Body::detect(), team, particles, grid, shape, rho);
}

/// [`deposit_charge`] on `body`, split over `team` by node parity if one
/// is given ([`crate::split`]), whatever the stencil.
pub(crate) fn deposit(
    body: Body,
    team: Option<&Team>,
    particles: &Particles,
    grid: &Grid1D,
    shape: Shape,
    rho: &mut [f64],
) {
    assert_eq!(rho.len(), grid.nx(), "rho length mismatch");
    let k = Deposit {
        scale: particles.charge() / grid.dx(),
        inv_dx: 1.0 / grid.dx(),
        n: grid.nx(),
        length: grid.lx(),
    };
    let [x] = &particles.pos;
    match shape {
        Shape::Ngp => k.drive::<1>(body, team, x, rho),
        Shape::Cic => k.drive::<2>(body, team, x, rho),
        Shape::Tsc => k.drive::<3>(body, team, x, rho),
    }
}

/// The per-call constants of the 1-D deposit.
struct Deposit {
    scale: f64,
    inv_dx: f64,
    n: usize,
    length: f64,
}

impl Deposit {
    /// The deposit of every particle for the shape of support `S`, on
    /// `body`: split over `team` by node parity, or serial without one.
    fn drive<const S: usize>(&self, body: Body, team: Option<&Team>, x: &[f64], rho: &mut [f64]) {
        match team {
            Some(team) => split::deposit(team, rho, |owner, acc| {
                self.run_owned::<S>(body, x, owner, acc);
            }),
            None => self.run::<S>(body, x, rho),
        }
    }

    /// The deposit of every particle for the shape of support `S`, on
    /// `body`.
    fn run<const S: usize>(&self, body: Body, x: &[f64], rho: &mut [f64]) {
        match body {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `avx512f` and `avx512dq` were detected.
            Body::Avx512 if lanes::avx512() => unsafe { self.lanes::<S>(x, rho) },
            _ => {
                for &x in x {
                    self.one::<S>(x, rho);
                }
            }
        }
    }

    /// The scalar body: one particle's `S` terms `scale * w`, in node
    /// order.
    #[inline(always)]
    fn one<const S: usize>(&self, x: f64, rho: &mut [f64]) {
        let (mut j, w) = axis_stencil::<S>(x * self.inv_dx, self.n as i64);
        for w in w {
            rho[j] += self.scale * w;
            j = next_node(j, self.n);
        }
    }

    /// The terms of every particle that land on nodes of parity `owner`,
    /// added to `acc` in the order [`Self::run`] adds them: one part of a
    /// split deposit.
    fn run_owned<const S: usize>(&self, body: Body, x: &[f64], owner: usize, acc: &mut [f64]) {
        match body {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `avx512f` and `avx512dq` were detected.
            Body::Avx512 if lanes::avx512() => unsafe { self.lanes_owned::<S>(x, owner, acc) },
            _ => {
                for &x in x {
                    self.one_owned::<S>(x, owner, acc);
                }
            }
        }
    }

    /// [`Deposit::one`]'s terms that land on nodes of parity `owner`. On a
    /// CIC stencil over an even node count that is exactly one of the two,
    /// picked without a branch.
    #[inline(always)]
    fn one_owned<const S: usize>(&self, x: f64, owner: usize, acc: &mut [f64]) {
        let (mut j, w) = axis_stencil::<S>(x * self.inv_dx, self.n as i64);
        if split::deposit_splits(S, self.n) {
            let next = next_node(j, self.n);
            let (node, w) = if j % 2 == owner {
                (j, w[0])
            } else {
                (next, w[S - 1])
            };
            acc[node] += self.scale * w;
            return;
        }
        for w in w {
            if j % 2 == owner {
                acc[j] += self.scale * w;
            }
            j = next_node(j, self.n);
        }
    }

    /// [`Deposit::one`] on eight particles per chunk: the lanes compute
    /// the nodes and terms, one scalar loop adds them in particle order.
    /// A chunk with a lane off the fast path runs [`Deposit::one`]
    /// instead.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn lanes<const S: usize>(&self, x: &[f64], mut rho: &mut [f64]) {
        use crate::lanes::x86::*;
        use std::arch::x86_64::*;
        let n = _mm512_set1_epi64(self.n as i64);
        let inv_dx = _mm512_set1_pd(self.inv_dx);
        let length = _mm512_set1_pd(self.length);
        let scale = _mm512_set1_pd(self.scale);
        let lanes = |rho: &mut &mut [f64], i: usize| {
            // SAFETY: `i + 8 <= x.len()`.
            let x0 = unsafe { load(x.as_ptr().add(i)) };
            let a = axis::<S>(_mm512_mul_pd(x0, inv_dx), n);
            if a.ok & in_box(x0, length) != ALL {
                return false;
            }
            let mut nodes = [[0usize; 8]; S];
            let mut terms = [[0.0; 8]; S];
            let mut j = a.node;
            for k in 0..S {
                nodes[k] = to_indices(j);
                terms[k] = to_array(_mm512_mul_pd(scale, a.w[k]));
                j = next_node(j, n);
            }
            for p in 0..8 {
                for k in 0..S {
                    rho[nodes[k][p]] += terms[k][p];
                }
            }
            true
        };
        lanes::chunks(&mut rho, x.len(), lanes, |rho, p| self.one::<S>(x[p], rho));
    }

    /// [`Deposit::one_owned`] on eight particles per chunk, as
    /// [`Deposit::lanes`] is [`Deposit::one`]: the lanes compute the nodes
    /// and terms (on a split CIC stencil, the one owned of each particle),
    /// one scalar loop adds those of parity `owner` in particle order.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn lanes_owned<const S: usize>(&self, x: &[f64], owner: usize, mut acc: &mut [f64]) {
        use crate::lanes::x86::*;
        use std::arch::x86_64::*;
        let n = _mm512_set1_epi64(self.n as i64);
        let inv_dx = _mm512_set1_pd(self.inv_dx);
        let length = _mm512_set1_pd(self.length);
        let scale = _mm512_set1_pd(self.scale);
        let one = _mm512_set1_epi64(1);
        let parity = _mm512_set1_epi64(owner as i64);
        let pick = split::deposit_splits(S, self.n);
        let lanes = |acc: &mut &mut [f64], i: usize| {
            // SAFETY: `i + 8 <= x.len()`.
            let x0 = unsafe { load(x.as_ptr().add(i)) };
            let a = axis::<S>(_mm512_mul_pd(x0, inv_dx), n);
            if a.ok & in_box(x0, length) != ALL {
                return false;
            }
            if pick {
                // The first node where it has the owner's parity, else the
                // next one — which then has it.
                let first = _mm512_cmpeq_epi64_mask(_mm512_and_si512(a.node, one), parity);
                let node = _mm512_mask_blend_epi64(first, next_node(a.node, n), a.node);
                let w = _mm512_mask_blend_pd(first, a.w[S - 1], a.w[0]);
                let nodes = to_indices(node);
                let terms = to_array(_mm512_mul_pd(scale, w));
                for p in 0..8 {
                    acc[nodes[p]] += terms[p];
                }
                return true;
            }
            let mut nodes = [[0usize; 8]; S];
            let mut terms = [[0.0; 8]; S];
            let mut j = a.node;
            for k in 0..S {
                nodes[k] = to_indices(j);
                terms[k] = to_array(_mm512_mul_pd(scale, a.w[k]));
                j = next_node(j, n);
            }
            for p in 0..8 {
                for k in 0..S {
                    if nodes[k][p] % 2 == owner {
                        acc[nodes[k][p]] += terms[k][p];
                    }
                }
            }
            true
        };
        lanes::chunks(&mut acc, x.len(), lanes, |acc, p| {
            self.one_owned::<S>(x[p], owner, acc)
        });
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
        Particles::electrons_normalized([xs], [vec![0.0; n]], grid.lx())
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
            .map(|i| (i as f64 * 0.618_033_988_749_894_9).fract() * grid.lx())
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
            .map(|i| (i as f64 + 0.5) / n as f64 * grid.lx())
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
                    (i as f64 * golden).fract() * grid.lx()
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
            let xs: Vec<f64> = xs.into_iter().map(|x| grid.wrap_x(x)).collect();
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
