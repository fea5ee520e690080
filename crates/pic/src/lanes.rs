//! Lane-parallel particle kernels: the AVX-512 primitives the explicit-SIMD
//! particle bodies are built on, written once.
//!
//! Each hot particle kernel ([`fused`](crate::fused),
//! [`fused2d`](crate::fused2d), [`deposit`](crate::deposit),
//! [`deposit2d`](crate::deposit2d) and `dlpic-core`'s NGP phase-space
//! binning) has two bodies. The portable body is its scalar per-particle
//! code; the AVX-512 body runs the same code on eight particles at a time,
//! one particle per `f64` lane (the particle store is structure-of-arrays,
//! so a chunk is one load per component). [`Body`] picks between them once
//! per call.
//!
//! The two bodies agree bit for bit by construction:
//! - Every per-particle operation is the same IEEE operation, lane-wise
//!   and in the scalar order: multiply, add, `floor` (a `roundscale`
//!   toward −∞), the truncating cast and the wrap compares. Neither body
//!   fuses a multiply-add.
//! - What is not per-particle stays scalar and in particle order: the
//!   lanes write a chunk's diagnostic terms, or its deposit indices and
//!   weights, to 8-slot buffers, and one scalar loop consumes them.
//! - A lane the fast path does not cover sends its whole chunk to the
//!   scalar body: a position outside `[0, L)`, a first node the one-fold
//!   wrap leaves outside `[0, n)`, or a push that leaves the one-fold
//!   range. [`chunks`] is the driver that keeps the particle order.

// analyze:hot — the chunk driver and the lane primitives run inside every
// particle kernel's loop; loop bodies here must stay allocation-free.

/// Particles per chunk: one `f64` per lane of a 512-bit register.
pub(crate) const LANES: usize = 8;

/// Which body a kernel call runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Body {
    /// The scalar per-particle loop.
    Portable,
    /// Eight particles per AVX-512 chunk; runs the portable body instead
    /// on a machine without `avx512f` and `avx512dq`.
    Avx512,
}

impl Body {
    /// The fastest body this machine runs.
    pub fn detect() -> Self {
        if avx512() {
            Body::Avx512
        } else {
            Body::Portable
        }
    }
}

/// True when the AVX-512 bodies can run here: `avx512f` and `avx512dq`
/// are both detected (always false off x86-64). `std` caches the `cpuid`.
#[inline]
pub fn avx512() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The 8-particle chunk driver: `lanes(state, i)` on every full chunk
/// `i..i + 8` in order, and `scalar(state, p)` on each particle of a chunk
/// whose lanes decline it (return `false`, having written nothing) and on
/// the `len % 8` remainder. Every particle is handled once, in particle
/// order.
#[inline(always)]
pub fn chunks<T>(
    state: &mut T,
    len: usize,
    mut lanes: impl FnMut(&mut T, usize) -> bool,
    mut scalar: impl FnMut(&mut T, usize),
) {
    let full = len - len % LANES;
    let mut i = 0;
    while i < full {
        if !lanes(state, i) {
            for p in i..i + LANES {
                scalar(state, p);
            }
        }
        i += LANES;
    }
    for p in full..len {
        scalar(state, p);
    }
}

/// The AVX-512 primitives. Each is the lane-wise twin of a scalar
/// expression named in its doc, bit for bit.
#[cfg(target_arch = "x86_64")]
pub mod x86 {
    use std::arch::x86_64::*;

    /// All eight lanes.
    pub(crate) const ALL: __mmask8 = 0xff;

    /// `f64::floor`: `roundscale` toward −∞, exceptions suppressed.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn floor(a: __m512d) -> __m512d {
        _mm512_roundscale_pd::<{ _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC }>(a)
    }

    /// Lanes with `0 ≤ x < length` (false for a NaN, as `<` is).
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub(crate) fn in_box(x: __m512d, length: __m512d) -> __mmask8 {
        _mm512_cmp_pd_mask::<_CMP_GE_OQ>(x, _mm512_setzero_pd())
            & _mm512_cmp_pd_mask::<_CMP_LT_OQ>(x, length)
    }

    /// One axis of eight particles' stencils of support `S` (1, 2, 3 for
    /// NGP, CIC, TSC): `deposit2d::axis_stencil::<S>` lane-wise.
    pub(crate) struct Axis<const S: usize> {
        /// The first supporting node, folded once into `[0, n)`.
        pub(crate) node: __m512i,
        /// The `S` weights in node order.
        pub(crate) w: [__m512d; S],
        /// Lanes whose folded node lies in `[0, n)`: the only lanes whose
        /// `node` may index a field or a density.
        pub(crate) ok: __mmask8,
    }

    /// The per-axis stencil of eight normalized positions `xdx = x/dx` on
    /// an axis of `n` nodes: [`Shape::assign`](crate::shape::Shape::assign)'s
    /// arithmetic with the shape fixed by `S`, then `fused::wrap_cell`'s
    /// compare-and-fold. The cast truncates, which is exact on a floored
    /// value in `i64` range; any other lane folds outside `[0, n)` and is
    /// not `ok`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    pub(crate) fn axis<const S: usize>(xdx: __m512d, n: __m512i) -> Axis<S> {
        let half = _mm512_set1_pd(0.5);
        let j = if S == 2 {
            floor(xdx)
        } else {
            floor(_mm512_add_pd(xdx, half))
        };
        let f = _mm512_sub_pd(xdx, j);
        let mut node = _mm512_cvttpd_epi64(j);
        if S == 3 {
            node = _mm512_sub_epi64(node, _mm512_set1_epi64(1));
        }
        let one = _mm512_set1_pd(1.0);
        let w = std::array::from_fn(|k| match (S, k) {
            (1, _) => one,
            (2, 0) => _mm512_sub_pd(one, f),
            (2, _) => f,
            (_, 0) => {
                let a = _mm512_sub_pd(half, f);
                _mm512_mul_pd(_mm512_mul_pd(half, a), a)
            }
            (_, 1) => _mm512_sub_pd(_mm512_set1_pd(0.75), _mm512_mul_pd(f, f)),
            _ => {
                let a = _mm512_add_pd(half, f);
                _mm512_mul_pd(_mm512_mul_pd(half, a), a)
            }
        });
        let high = _mm512_cmpge_epi64_mask(node, n);
        let low = _mm512_cmplt_epi64_mask(node, _mm512_setzero_si512());
        node = _mm512_mask_sub_epi64(node, high, node, n);
        node = _mm512_mask_add_epi64(node, low, node, n);
        Axis {
            node,
            w,
            ok: _mm512_cmplt_epu64_mask(node, n),
        }
    }

    /// `deposit2d::next_node`: the node after `j` on a periodic axis of
    /// `n` nodes.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub(crate) fn next_node(j: __m512i, n: __m512i) -> __m512i {
        let j1 = _mm512_add_epi64(j, _mm512_set1_epi64(1));
        _mm512_maskz_mov_epi64(_mm512_cmpneq_epi64_mask(j1, n), j1)
    }

    /// `fused::advance_position` on eight lanes, for the lanes whose push
    /// stays within one period of the box: the new positions, and the
    /// lanes that left that range (they need the scalar path's
    /// `rem_euclid`; their returned value is meaningless).
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub(crate) fn advance(
        x: __m512d,
        v: __m512d,
        dt: __m512d,
        length: __m512d,
    ) -> (__m512d, __mmask8) {
        let zero = _mm512_setzero_pd();
        let nx = _mm512_add_pd(x, _mm512_mul_pd(v, dt));
        let high = _mm512_cmp_pd_mask::<_CMP_GE_OQ>(nx, length);
        let low = _mm512_cmp_pd_mask::<_CMP_LT_OQ>(nx, zero);
        let down = _mm512_sub_pd(nx, length);
        let up = _mm512_add_pd(nx, length);
        let far = (high & !_mm512_cmp_pd_mask::<_CMP_LT_OQ>(down, length))
            | (low & !_mm512_cmp_pd_mask::<_CMP_GE_OQ>(up, zero));
        let folded = _mm512_mask_mov_pd(_mm512_mask_mov_pd(nx, high, down), low, up);
        // A tiny negative position folds up to `length` itself: the scalar
        // code's `if nx >= length { nx = 0.0 }`. No other lane reaches it.
        let edge = _mm512_cmp_pd_mask::<_CMP_GE_OQ>(folded, length);
        (_mm512_mask_mov_pd(folded, edge, zero), far)
    }

    /// `(a.max(0.0) as usize).min(max)` lane-wise: the saturating cast
    /// (NaN and negatives to 0, anything past `u64` to its maximum) as
    /// `max(·, 0)`, an unsigned truncating cast and an unsigned `min`.
    /// `maxpd` returns its second operand for a NaN and for `-0.0`, so a
    /// NaN lane becomes 0 as `f64::max` makes it.
    ///
    /// # Safety
    /// Safe to call where `avx512f` and `avx512dq` are enabled; elsewhere
    /// only once [`avx512`](super::avx512) has detected them.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    pub fn clamped_index(a: __m512d, max: __m512i) -> __m512i {
        let a = _mm512_max_pd(a, _mm512_setzero_pd());
        _mm512_min_epu64(_mm512_cvttpd_epu64(a), max)
    }

    /// Eight `f64` from `p`.
    ///
    /// # Safety
    /// `p..p + 8` must be readable, and `avx512f` available.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub unsafe fn load(p: *const f64) -> __m512d {
        // SAFETY: the caller guarantees eight readable elements.
        unsafe { _mm512_loadu_pd(p) }
    }

    /// Stores eight `f64` at `p`.
    ///
    /// # Safety
    /// `p..p + 8` must be writable, and `avx512f` available.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub(crate) unsafe fn store(p: *mut f64, a: __m512d) {
        // SAFETY: the caller guarantees eight writable elements.
        unsafe { _mm512_storeu_pd(p, a) }
    }

    /// The eight lanes as an array.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub(crate) fn to_array(a: __m512d) -> [f64; 8] {
        let mut out = [0.0; 8];
        // SAFETY: `out` holds eight `f64`.
        unsafe { _mm512_storeu_pd(out.as_mut_ptr(), a) };
        out
    }

    /// The eight index lanes as an array (each is a node index, so the
    /// `usize` reading is the `i64` one).
    ///
    /// # Safety
    /// Safe to call where `avx512f` is enabled; elsewhere only once
    /// [`avx512`](super::avx512) has detected it.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub fn to_indices(a: __m512i) -> [usize; 8] {
        let mut out = [0usize; 8];
        // SAFETY: `out` holds eight 64-bit lanes; x86-64's `usize` is 64
        // bits wide.
        unsafe { _mm512_storeu_epi64(out.as_mut_ptr().cast(), a) };
        out
    }

    /// `table[idx]` lane by lane.
    ///
    /// # Safety
    /// Every lane of `idx` must be an index into `table`, and `avx512f`
    /// available.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub(crate) unsafe fn gather(table: &[f64], idx: __m512i) -> __m512d {
        // SAFETY: the caller guarantees every lane indexes `table`.
        unsafe { _mm512_i64gather_pd::<8>(idx, table.as_ptr()) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fused::StepMoments;
    use crate::gather::gather_field;
    use crate::grid::{Grid, Grid1D, Grid2D};
    use crate::mover::{push_positions, push_velocities};
    use crate::particles::Particles;
    use crate::shape::Shape;
    use crate::{deposit, deposit2d, fused, fused2d};

    const SHAPES: [Shape; 3] = [Shape::Ngp, Shape::Cic, Shape::Tsc];
    const DT: f64 = 0.2;

    /// One dimension's push and deposit, on a chosen body.
    struct Kernels<const D: usize> {
        push: fn(Body, &mut Particles<D>, &Grid<D>, Shape, &[f64], f64) -> StepMoments,
        deposit: fn(Body, &Particles<D>, &Grid<D>, Shape, &mut [f64]),
    }

    const KERNELS_1D: Kernels<1> = Kernels {
        push: fused::push,
        deposit: deposit::deposit,
    };
    const KERNELS_2D: Kernels<2> = Kernels {
        push: fused2d::push,
        deposit: deposit2d::deposit,
    };

    /// A grid whose nodes `k·dx` are exact doubles, and one whose box
    /// lengths are not dyadic (the largest double below `L` may then
    /// scale to `n` itself).
    fn grids_1d() -> [Grid1D; 2] {
        [Grid1D::new(16, 2.0), Grid1D::paper()]
    }

    fn grids_2d() -> [Grid2D; 2] {
        [
            Grid2D::new(16, 8, 2.0, 1.0),
            Grid2D::new(16, 16, 2.0532, 2.0532),
        ]
    }

    /// `len` particles on `grid`. Along each axis particle `p` sits, by
    /// `p % 5`, at `0.0`, on node 3, at the largest double below `L`, on
    /// the last node, or anywhere; particles 12 and 13 move 3.5 and −2.5
    /// periods per step (the scalar fallback's `rem_euclid`).
    fn load<const D: usize>(grid: &Grid<D>, len: usize) -> Particles<D> {
        let (cells, lengths, spacing) = (grid.cells(), grid.lengths(), grid.spacing());
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut uniform = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut pos: [Vec<f64>; D] = std::array::from_fn(|_| Vec::new());
        let mut vel: [Vec<f64>; D] = std::array::from_fn(|_| Vec::new());
        for p in 0..len {
            for k in 0..D {
                let x = match p % 5 {
                    0 => 0.0,
                    1 => 3.0 * spacing[k],
                    2 => f64::from_bits(lengths[k].to_bits() - 1),
                    3 => (cells[k] - 1) as f64 * spacing[k],
                    _ => uniform() * lengths[k],
                };
                let v = match p {
                    12 => 3.5 * lengths[k] / DT,
                    13 => -2.5 * lengths[k] / DT,
                    _ => uniform() * 0.8 - 0.4,
                };
                pos[k].push(x);
                vel[k].push(v);
            }
        }
        Particles::electrons_normalized(pos, vel, grid.volume())
    }

    /// A smooth stacked field, with a NaN at node 2 of the first
    /// component when `nan`.
    fn field<const D: usize>(grid: &Grid<D>, nan: bool) -> Vec<f64> {
        let mut e: Vec<f64> = (0..D * grid.nodes())
            .map(|i| 0.1 * (i as f64 * 0.37).sin())
            .collect();
        if nan {
            e[2] = f64::NAN;
        }
        e
    }

    /// Every case: the shapes, both grids, counts 1 to 17 (a partial
    /// chunk, one chunk, a chunk and a remainder, two chunks and one
    /// more), with and without a NaN in the field.
    fn for_each_case<const D: usize>(
        grids: &[Grid<D>],
        mut check: impl FnMut(String, &Grid<D>, Shape, usize, &[f64]),
    ) {
        for grid in grids {
            for shape in SHAPES {
                for len in 1..=17 {
                    for nan in [false, true] {
                        let label =
                            format!("{D}-D {shape:?}, {len} particles, nan {nan}, {grid:?}");
                        check(label, grid, shape, len, &field(grid, nan));
                    }
                }
            }
        }
    }

    /// Three pushes then a deposit of `len` particles on `body`: the bits
    /// of every moment, coordinate and density they produce.
    fn run<const D: usize>(
        kernels: &Kernels<D>,
        body: Body,
        grid: &Grid<D>,
        shape: Shape,
        len: usize,
        e: &[f64],
    ) -> Vec<u64> {
        let mut p = load(grid, len);
        let mut out = Vec::new();
        for _ in 0..3 {
            let m = (kernels.push)(body, &mut p, grid, shape, e, DT);
            let y = m.momentum_y.unwrap_or(0.0);
            out.extend([m.centred_kinetic, m.momentum, y].map(f64::to_bits));
        }
        let mut rho = grid.zeros();
        (kernels.deposit)(body, &p, grid, shape, &mut rho);
        let columns = p.pos.iter().chain(&p.vel).flatten();
        out.extend(columns.chain(&rho).map(|v| v.to_bits()));
        out
    }

    fn lanes_match_portable<const D: usize>(kernels: &Kernels<D>, grids: &[Grid<D>]) {
        for_each_case(grids, |label, grid, shape, len, e| {
            let lanes = run(kernels, Body::Avx512, grid, shape, len, e);
            let portable = run(kernels, Body::Portable, grid, shape, len, e);
            assert_eq!(lanes, portable, "{label}");
        });
    }

    #[test]
    fn avx512_bodies_match_portable() {
        if !avx512() {
            eprintln!("skipping: no avx512f + avx512dq on this machine");
            return;
        }
        lanes_match_portable(&KERNELS_1D, &grids_1d());
        lanes_match_portable(&KERNELS_2D, &grids_2d());
    }

    /// The deposit as the reference gather weighs a particle: every
    /// stencil term, `x` fastest, the charge density times the axis
    /// weights in axis order, each node wrapped by `rem_euclid`.
    fn reference_deposit<const D: usize>(
        p: &Particles<D>,
        grid: &Grid<D>,
        shape: Shape,
    ) -> Vec<f64> {
        let (cells, spacing) = (grid.cells(), grid.spacing());
        let density = p.charge() / grid.cell_volume();
        let support = shape.support();
        let mut rho = grid.zeros();
        for i in 0..p.len() {
            let a: [_; D] = std::array::from_fn(|k| shape.assign(p.pos[k][i] * (1.0 / spacing[k])));
            for s in 0..support.pow(D as u32) {
                let (mut term, mut node, mut stride, mut rest) = (density, 0, 1, s);
                for k in 0..D {
                    let o = rest % support;
                    rest /= support;
                    term *= a[k].w[o];
                    node +=
                        (a[k].leftmost + o as i64).rem_euclid(cells[k] as i64) as usize * stride;
                    stride *= cells[k];
                }
                rho[node] += term;
            }
        }
        rho
    }

    fn bits(a: &[f64]) -> Vec<u64> {
        a.iter().map(|v| v.to_bits()).collect()
    }

    fn portable_matches_oracle<const D: usize>(kernels: &Kernels<D>, grids: &[Grid<D>]) {
        for_each_case(grids, |label, grid, shape, len, e| {
            let mut fused = load(grid, len);
            let mut unfused = fused.clone();
            let mut e_part = vec![0.0; D * len];
            for step in 0..3 {
                let m = (kernels.push)(Body::Portable, &mut fused, grid, shape, e, DT);
                gather_field(&unfused, grid, shape, e, &mut e_part);
                let ke = push_velocities(&mut unfused, &e_part, DT);
                let momentum = unfused.total_momentum();
                push_positions(&mut unfused, grid, DT);
                let label = format!("{label}, step {step}");
                for k in 0..D {
                    assert_eq!(
                        bits(&fused.pos[k]),
                        bits(&unfused.pos[k]),
                        "{label}: pos[{k}]"
                    );
                    assert_eq!(
                        bits(&fused.vel[k]),
                        bits(&unfused.vel[k]),
                        "{label}: vel[{k}]"
                    );
                }
                let got = [Some(m.momentum), m.momentum_y];
                for k in 0..D {
                    assert_eq!(
                        got[k].map(f64::to_bits),
                        Some(momentum[k].to_bits()),
                        "{label}: momentum {k}"
                    );
                }
                // In 2-D the fused sum interleaves the axes per particle.
                let close = (m.centred_kinetic - ke).abs() <= 1e-14 * (1.0 + ke.abs());
                assert!(
                    close || m.centred_kinetic.is_nan() && ke.is_nan(),
                    "{label}: kinetic"
                );
            }
            let mut rho = grid.zeros();
            (kernels.deposit)(Body::Portable, &fused, grid, shape, &mut rho);
            assert_eq!(
                bits(&rho),
                bits(&reference_deposit(&fused, grid, shape)),
                "{label}: rho"
            );
        });
    }

    #[test]
    fn portable_bodies_match_the_unfused_oracle() {
        portable_matches_oracle(&KERNELS_1D, &grids_1d());
        portable_matches_oracle(&KERNELS_2D, &grids_2d());
    }

    /// `advance` and `axis` against `fused::advance_position` and
    /// `deposit2d::axis_stencil` on the inputs no particle load reaches
    /// reliably: a tiny negative push that folds up to `L` itself, `-0.0`,
    /// infinities, NaN, and positions scaling to `n` or past it. (An
    /// infinite position is left out: the scalar TSC stencil's
    /// `i64::MIN - 1` overflows, and no push produces one.)
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx512_primitives_match_their_scalar_twins() {
        use crate::deposit2d::axis_stencil;
        use crate::fused::advance_position;
        use std::arch::x86_64::*;
        if !avx512() {
            eprintln!("skipping: no avx512f + avx512dq on this machine");
            return;
        }
        let l = 2.0532f64;
        let below = f64::from_bits(l.to_bits() - 1);
        let moves = [
            (0.0, -1e-300),
            (-0.0, -0.0),
            (-0.0, 0.0),
            (below, 1e-300),
            (below, 0.01),
            (1.0, 3.5 * l),
            (1.0, -2.5 * l),
            (1.0, f64::INFINITY),
            (1.0, f64::NAN),
            (0.5, -0.6 / 0.2),
            (0.1, 0.3),
            (2.0, 0.4),
        ];
        for chunk in moves.chunks(8) {
            let (mut x, mut v) = ([0.0; 8], [0.0; 8]);
            for (k, &(xk, vk)) in chunk.iter().enumerate() {
                (x[k], v[k]) = (xk, vk);
            }
            // SAFETY: avx512f was detected; `x` and `v` hold eight `f64`.
            let (got, far) = unsafe {
                let (x1, far) = x86::advance(
                    x86::load(x.as_ptr()),
                    x86::load(v.as_ptr()),
                    _mm512_set1_pd(0.2),
                    _mm512_set1_pd(l),
                );
                (x86::to_array(x1), far)
            };
            for k in 0..8 {
                let want = advance_position(x[k], v[k], 0.2, l);
                // The scalar path's `rem_euclid` cases: more than one period
                // out on either side.
                let moved = x[k] + v[k] * 0.2;
                let far_out = (moved >= l && moved - l >= l) || (moved < 0.0 && moved + l < 0.0);
                assert_eq!(
                    far >> k & 1 == 1,
                    far_out,
                    "far flag of x {} v {}",
                    x[k],
                    v[k]
                );
                if !far_out {
                    assert_eq!(got[k].to_bits(), want.to_bits(), "x {} v {}", x[k], v[k]);
                }
            }
        }

        let n = 16;
        let xdx = [
            0.0,
            -0.0,
            3.0,
            15.5,
            16.0,
            15.999_999_999_999_998,
            -0.25,
            16.25,
            1e300,
            f64::NAN,
            -1e18,
            7.3,
            0.5,
            -1.5,
            17.5,
            2.499_999_999_999_999_6,
        ];
        fn check<const S: usize>(xdx: &[f64], n: usize) {
            for chunk in xdx.chunks(8) {
                let mut a = [0.0; 8];
                a[..chunk.len()].copy_from_slice(chunk);
                // SAFETY: avx512f and avx512dq were detected; `a` holds
                // eight `f64`.
                let (node, w, ok) = unsafe {
                    let axis = x86::axis::<S>(x86::load(a.as_ptr()), _mm512_set1_epi64(n as i64));
                    let w: [[f64; 8]; S] = std::array::from_fn(|k| x86::to_array(axis.w[k]));
                    (x86::to_indices(axis.node), w, axis.ok)
                };
                for k in 0..8 {
                    let (want_node, want_w) = axis_stencil::<S>(a[k], n as i64);
                    // One fold reaches a first node in `[-n, 2n)`.
                    let first = match S {
                        2 => a[k].floor(),
                        1 => (a[k] + 0.5).floor(),
                        _ => (a[k] + 0.5).floor() - 1.0,
                    };
                    let fits = first >= -(n as f64) && first < (2 * n) as f64;
                    assert_eq!(ok >> k & 1 == 1, fits, "S {S}: ok flag of {}", a[k]);
                    if fits {
                        assert_eq!(node[k], want_node, "S {S}: node of {}", a[k]);
                    }
                    for (s, want) in want_w.iter().enumerate() {
                        assert_eq!(w[s][k].to_bits(), want.to_bits(), "S {S}: w{s} of {}", a[k]);
                    }
                }
            }
        }
        check::<1>(&xdx, n);
        check::<2>(&xdx, n);
        check::<3>(&xdx, n);
    }

    #[test]
    fn chunks_visits_every_particle_once_in_order() {
        for len in 0..=17 {
            let mut seen = Vec::new();
            // Decline every other chunk: its particles come back one by one.
            chunks(
                &mut seen,
                len,
                |seen, i| {
                    if (i / LANES) % 2 == 1 {
                        return false;
                    }
                    seen.extend(i..i + LANES);
                    true
                },
                |seen, p| seen.push(p),
            );
            assert_eq!(seen, (0..len).collect::<Vec<_>>(), "len {len}");
        }
    }
}
