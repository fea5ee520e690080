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
//! the per-axis half every particle kernel shares (the 1-D and 2-D
//! deposits and fused pushes); [`crate::lanes`] holds their AVX-512
//! twins, on which the 8-particle body of each kernel is built.
//!
//! A large CIC deposit on an even row length splits over a held worker
//! team as the 1-D one does (`split`): each part owns the nodes of one
//! flat-index parity — one column parity — and adds their terms in
//! particle order.

// analyze:hot — the deposit loop runs once per step over every particle;
// loop bodies here must stay allocation-free.

use crate::fused::wrap_cell;
use crate::grid::Grid2D;
use crate::lanes::{self, Body};
use crate::particles::Particles2D;
use crate::shape::Shape;
use crate::split;
use dlpic_team::Team;

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
    let team =
        split::team(particles.len()).filter(|_| split::deposit_splits(shape.support(), grid.nx()));
    deposit(Body::detect(), team, particles, grid, shape, rho);
}

/// [`deposit_charge`] on `body`, split over `team` by node parity if one
/// is given ([`crate::split`]), whatever the stencil.
pub(crate) fn deposit(
    body: Body,
    team: Option<&Team>,
    particles: &Particles2D,
    grid: &Grid2D,
    shape: Shape,
    rho: &mut [f64],
) {
    assert_eq!(rho.len(), grid.nodes(), "rho length mismatch");
    let k = Deposit {
        q_over_area: particles.charge() / grid.cell_volume(),
        inv_dx: 1.0 / grid.dx(),
        inv_dy: 1.0 / grid.dy(),
        nx: grid.nx(),
        ny: grid.ny(),
        lx: grid.lx(),
        ly: grid.ly(),
    };
    let [x, y] = &particles.pos;
    match shape {
        Shape::Ngp => k.drive::<1>(body, team, x, y, rho),
        Shape::Cic => k.drive::<2>(body, team, x, y, rho),
        Shape::Tsc => k.drive::<3>(body, team, x, y, rho),
    }
}

/// The per-call constants of the 2-D deposit.
struct Deposit {
    q_over_area: f64,
    inv_dx: f64,
    inv_dy: f64,
    nx: usize,
    ny: usize,
    lx: f64,
    ly: f64,
}

impl Deposit {
    /// The deposit of every particle for the shape of support `S`, on
    /// `body`: split over `team` by the parity of the flat node index, or
    /// serial without one.
    fn drive<const S: usize>(
        &self,
        body: Body,
        team: Option<&Team>,
        x: &[f64],
        y: &[f64],
        rho: &mut [f64],
    ) {
        match team {
            Some(team) => split::deposit(team, rho, |owner, acc| {
                self.run_owned::<S>(body, x, y, owner, acc);
            }),
            None => self.run::<S>(body, x, y, rho),
        }
    }

    /// The deposit of every particle for the shape of support `S`, on
    /// `body`.
    fn run<const S: usize>(&self, body: Body, x: &[f64], y: &[f64], rho: &mut [f64]) {
        match body {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `avx512f` and `avx512dq` were detected.
            Body::Avx512 if lanes::avx512() => unsafe { self.lanes::<S>(x, y, rho) },
            _ => {
                for (&x, &y) in x.iter().zip(y) {
                    self.one::<S>(x, y, rho);
                }
            }
        }
    }

    /// The scalar body: one particle's `S×S` terms
    /// `q_over_area * wx * wy`, `y` rows outer, `x` nodes inner.
    #[inline(always)]
    fn one<const S: usize>(&self, x: f64, y: f64, rho: &mut [f64]) {
        let (nx, ny) = (self.nx, self.ny);
        let (ix0, wxs) = axis_stencil::<S>(x * self.inv_dx, nx as i64);
        let (mut iy, wys) = axis_stencil::<S>(y * self.inv_dy, ny as i64);
        for wy in wys {
            let row = iy * nx;
            let mut ix = ix0;
            for wx in wxs {
                rho[row + ix] += self.q_over_area * wx * wy;
                ix = next_node(ix, nx);
            }
            iy = next_node(iy, ny);
        }
    }

    /// The terms of every particle that land on nodes of flat-index parity
    /// `owner`, added to `acc` in the order [`Self::run`] adds them: one
    /// part of a split deposit.
    fn run_owned<const S: usize>(
        &self,
        body: Body,
        x: &[f64],
        y: &[f64],
        owner: usize,
        acc: &mut [f64],
    ) {
        match body {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `avx512f` and `avx512dq` were detected.
            Body::Avx512 if lanes::avx512() => unsafe { self.lanes_owned::<S>(x, y, owner, acc) },
            _ => {
                for (&x, &y) in x.iter().zip(y) {
                    self.one_owned::<S>(x, y, owner, acc);
                }
            }
        }
    }

    /// [`Deposit::one`]'s terms that land on nodes of parity `owner`. With
    /// an even row length a node's parity is its column's, so on a CIC
    /// stencil each row has exactly one owned term: the same column in
    /// both, picked without a branch.
    #[inline(always)]
    fn one_owned<const S: usize>(&self, x: f64, y: f64, owner: usize, acc: &mut [f64]) {
        let (nx, ny) = (self.nx, self.ny);
        let (ix0, wxs) = axis_stencil::<S>(x * self.inv_dx, nx as i64);
        let (mut iy, wys) = axis_stencil::<S>(y * self.inv_dy, ny as i64);
        if split::deposit_splits(S, nx) {
            let next = next_node(ix0, nx);
            let (ix, wx) = if ix0 % 2 == owner {
                (ix0, wxs[0])
            } else {
                (next, wxs[S - 1])
            };
            for wy in wys {
                acc[iy * nx + ix] += self.q_over_area * wx * wy;
                iy = next_node(iy, ny);
            }
            return;
        }
        for wy in wys {
            let row = iy * nx;
            let mut ix = ix0;
            for wx in wxs {
                if (row + ix) % 2 == owner {
                    acc[row + ix] += self.q_over_area * wx * wy;
                }
                ix = next_node(ix, nx);
            }
            iy = next_node(iy, ny);
        }
    }

    /// [`Deposit::one`] on eight particles per chunk: the lanes compute
    /// the nodes and terms, one scalar loop adds them in particle order.
    /// A chunk with a lane off the fast path runs [`Deposit::one`]
    /// instead.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn lanes<const S: usize>(&self, x: &[f64], y: &[f64], mut rho: &mut [f64]) {
        use crate::lanes::x86::*;
        use std::arch::x86_64::*;
        assert_eq!(x.len(), y.len(), "particle column lengths differ");
        let (nx, ny) = (
            _mm512_set1_epi64(self.nx as i64),
            _mm512_set1_epi64(self.ny as i64),
        );
        let (inv_dx, inv_dy) = (_mm512_set1_pd(self.inv_dx), _mm512_set1_pd(self.inv_dy));
        let (lx, ly) = (_mm512_set1_pd(self.lx), _mm512_set1_pd(self.ly));
        let q_over_area = _mm512_set1_pd(self.q_over_area);
        let lanes = |rho: &mut &mut [f64], i: usize| {
            // SAFETY: `i + 8 <= x.len()`, and `y` is as long (asserted
            // above).
            let (x0, y0) = unsafe { (load(x.as_ptr().add(i)), load(y.as_ptr().add(i))) };
            let ax = axis::<S>(_mm512_mul_pd(x0, inv_dx), nx);
            let ay = axis::<S>(_mm512_mul_pd(y0, inv_dy), ny);
            if ax.ok & ay.ok & in_box(x0, lx) & in_box(y0, ly) != ALL {
                return false;
            }
            let mut nodes = [[[0usize; 8]; S]; S];
            let mut terms = [[[0.0; 8]; S]; S];
            let mut iy = ay.node;
            for (wy, (nodes, terms)) in ay.w.into_iter().zip(nodes.iter_mut().zip(&mut terms)) {
                let row = _mm512_mullo_epi64(iy, nx);
                let mut ix = ax.node;
                for (wx, (node, term)) in ax.w.into_iter().zip(nodes.iter_mut().zip(terms)) {
                    *node = to_indices(_mm512_add_epi64(row, ix));
                    *term = to_array(_mm512_mul_pd(_mm512_mul_pd(q_over_area, wx), wy));
                    ix = next_node(ix, nx);
                }
                iy = next_node(iy, ny);
            }
            for p in 0..8 {
                for (nodes, terms) in nodes.iter().zip(&terms) {
                    for (node, term) in nodes.iter().zip(terms) {
                        rho[node[p]] += term[p];
                    }
                }
            }
            true
        };
        lanes::chunks(&mut rho, x.len(), lanes, |rho, p| {
            self.one::<S>(x[p], y[p], rho)
        });
    }

    /// [`Deposit::one_owned`] on eight particles per chunk, as
    /// [`Deposit::lanes`] is [`Deposit::one`]: the lanes compute the nodes
    /// and terms (on a split CIC stencil, the owned column's two), one
    /// scalar loop adds those of parity `owner` in particle order.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn lanes_owned<const S: usize>(&self, x: &[f64], y: &[f64], owner: usize, mut acc: &mut [f64]) {
        use crate::lanes::x86::*;
        use std::arch::x86_64::*;
        assert_eq!(x.len(), y.len(), "particle column lengths differ");
        let (nx, ny) = (
            _mm512_set1_epi64(self.nx as i64),
            _mm512_set1_epi64(self.ny as i64),
        );
        let (inv_dx, inv_dy) = (_mm512_set1_pd(self.inv_dx), _mm512_set1_pd(self.inv_dy));
        let (lx, ly) = (_mm512_set1_pd(self.lx), _mm512_set1_pd(self.ly));
        let q_over_area = _mm512_set1_pd(self.q_over_area);
        let one = _mm512_set1_epi64(1);
        let parity = _mm512_set1_epi64(owner as i64);
        let pick = split::deposit_splits(S, self.nx);
        let lanes = |acc: &mut &mut [f64], i: usize| {
            // SAFETY: `i + 8 <= x.len()`, and `y` is as long (asserted
            // above).
            let (x0, y0) = unsafe { (load(x.as_ptr().add(i)), load(y.as_ptr().add(i))) };
            let ax = axis::<S>(_mm512_mul_pd(x0, inv_dx), nx);
            let ay = axis::<S>(_mm512_mul_pd(y0, inv_dy), ny);
            if ax.ok & ay.ok & in_box(x0, lx) & in_box(y0, ly) != ALL {
                return false;
            }
            if pick {
                // The first column where it has the owner's parity, else
                // the next one — which then has it.
                let first = _mm512_cmpeq_epi64_mask(_mm512_and_si512(ax.node, one), parity);
                let ix = _mm512_mask_blend_epi64(first, next_node(ax.node, nx), ax.node);
                let wx = _mm512_mask_blend_pd(first, ax.w[S - 1], ax.w[0]);
                let mut nodes = [[0usize; 8]; S];
                let mut terms = [[0.0; 8]; S];
                let mut iy = ay.node;
                for (wy, (node, term)) in ay.w.into_iter().zip(nodes.iter_mut().zip(&mut terms)) {
                    *node = to_indices(_mm512_add_epi64(_mm512_mullo_epi64(iy, nx), ix));
                    *term = to_array(_mm512_mul_pd(_mm512_mul_pd(q_over_area, wx), wy));
                    iy = next_node(iy, ny);
                }
                for p in 0..8 {
                    for (node, term) in nodes.iter().zip(&terms) {
                        acc[node[p]] += term[p];
                    }
                }
                return true;
            }
            let mut nodes = [[[0usize; 8]; S]; S];
            let mut terms = [[[0.0; 8]; S]; S];
            let mut iy = ay.node;
            for (wy, (nodes, terms)) in ay.w.into_iter().zip(nodes.iter_mut().zip(&mut terms)) {
                let row = _mm512_mullo_epi64(iy, nx);
                let mut ix = ax.node;
                for (wx, (node, term)) in ax.w.into_iter().zip(nodes.iter_mut().zip(terms)) {
                    *node = to_indices(_mm512_add_epi64(row, ix));
                    *term = to_array(_mm512_mul_pd(_mm512_mul_pd(q_over_area, wx), wy));
                    ix = next_node(ix, nx);
                }
                iy = next_node(iy, ny);
            }
            for p in 0..8 {
                for (nodes, terms) in nodes.iter().zip(&terms) {
                    for (node, term) in nodes.iter().zip(terms) {
                        if node[p] % 2 == owner {
                            acc[node[p]] += term[p];
                        }
                    }
                }
            }
            true
        };
        lanes::chunks(&mut acc, x.len(), lanes, |acc, p| {
            self.one_owned::<S>(x[p], y[p], owner, acc)
        });
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
