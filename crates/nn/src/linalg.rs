//! Single-precision matrix kernels.
//!
//! Three GEMM variants cover everything dense layers need:
//!
//! * [`matmul_nn`] — `C = A·B` (forward pass),
//! * [`matmul_tn`] — `C = Aᵀ·B` (weight gradients `dW = Xᵀ·dY`),
//! * [`matmul_nt`] — `C = A·Bᵀ` (input gradients `dX = dY·Wᵀ`),
//!
//! plus two *implicit-im2col* convolution kernels that run the same
//! register tiles directly over a zero-padded image, with the patch
//! matrix described by per-row base offsets instead of being packed:
//!
//! * [`conv_gemm`] — forward / input-gradient convolution as a GEMM whose
//!   B rows are windows of the padded planes,
//! * [`conv_dw_accum`] — the weight-gradient correlation `dW += dY·colsᵀ`
//!   against the same virtual patch matrix.
//!
//! The `nn`/`tn`/conv kernels each have a **portable** form (4×16 tiles
//! of scalar accumulators, vectorized by LLVM at whatever width the
//! target offers) and an **AVX-512** form (x86-64, runtime-detected via
//! `avx512f`) in explicit zmm tiles — LLVM stops at 256-bit ymm even on
//! AVX-512 hardware, leaving half the FMA width unused.
//!
//! # The `nn` kernel: stream the live weights once
//!
//! In every dense layer B is the weight matrix — 16 MB at the paper's
//! 4096×1024 first layer, 4 KiB per row — and `m` is the cohort size, 1
//! to a few dozen rows. [`matmul_nn`] therefore runs one loop order for
//! every `m`, in both forms: `k` in blocks of [`KB`] = 16 rows
//! **outermost**, then row tiles (8 rows of zmm accumulators, or the
//! `m % 8` remainder as one narrower tile of the same code), then column
//! tiles, the accumulators round-tripping through `C` between blocks. A
//! `KB`-row slab of B is read from memory once per call, contiguously,
//! and is cache-resident for every later row tile; `C` (`m×n`) stays in
//! L1/L2. `m = 1` is the one-row tile of the same kernel. The weight
//! load is a type parameter (`Weight`): `f32` as stored, or bf16 decoded
//! on the fly ([`crate::bf16`]) through the same tiles.
//!
//! A weight row is only *live* for a row tile if some row of the tile has
//! a nonzero activation in that column ([`live_mask`], 16 bits per row
//! tile and `k`-block). A tile walks the set bits of its mask and nothing
//! else, and a tile whose mask is empty does not touch `C` at all. There
//! is no second kernel and no density switch: a dense input is the same
//! code with a full mask. The inputs of the DL field solvers are far from
//! dense — the phase-space histogram is a thin band of occupied bins
//! (76 % exact zeros over a paper-scale two-stream run) and a ReLU layer
//! hands on 55–60 % zeros — so the cost of an inference is a property of
//! its input: cheap in the linear phase, dearer once the beams have mixed.
//!
//! Where that leaves the paper MLP (25.4 MB of weights, 12.7 MFLOP per
//! row) on the Sapphire Rapids dev machine (one core: ≈ 22–26 GB/s of
//! read bandwidth over those 25 MB, ≈ 180 GFLOP/s of FMA peak): batch-1
//! is bandwidth-bound, and the bound is the *live* bytes ÷ bandwidth —
//! 7.6 of the 25.4 MB on a two-stream run, ≈ 0.3 ms instead of the
//! ≈ 1.05 ms a dense input costs; an 8-row tile keeps 8.9 MB live (a row
//! is live if any member needs it), and a 16-row cohort needs as long
//! for its FMAs as for its weight pass, the two not yet overlapped —
//! README's roofline table has the measured numbers, before and after.
//!
//! # Numerics
//!
//! Every C element is one sequential product-sum over ascending `k`
//! starting from `+0.0`; storing a partial sum to `C` and reloading it
//! changes no bits. The AVX-512 form fuses each step (`fmadd`), the
//! portable form rounds after the multiply, so the two agree to normal
//! f32 tolerance but not bitwise. `nt` keeps eight 8-wide lane
//! accumulators per 2×4 output tile so the dot-product reduction
//! vectorizes without `-ffast-math`.
//!
//! Leaving out the steps whose activation is `±0.0` changes no bit of
//! that chain, on one premise: **the weights are finite**. The product
//! `±0·w` is then `±0`, and adding `±0` to a partial sum `s` returns `s`
//! unless `s` is `-0.0` — which a chain that starts at `+0.0` never is
//! (`+0.0 + -0.0` is `+0.0` under round-to-nearest, an exact cancellation
//! gives `+0.0`, and only a product below 1e-45 in magnitude could round
//! to `-0.0`). With an infinite or NaN weight `0·w` is NaN and the
//! elision would hide it, so `ModelBundle::decode` refuses non-finite
//! parameters at the file door; biases are added outside this kernel,
//! unconditionally. A tile computes the steps its *mask* keeps, so a row
//! whose own activation is zero in a live column still adds its `±0` —
//! equally without effect. A subnormal activation is nonzero and live.
//!
//! [`matmul_tn`], the weight gradient `dW = Xᵀ·dY`, follows the same
//! live/dead rule per output row tile: a tile of `dW` rows whose input
//! features are `±0.0` in every sample of the batch ([`live_mask`] over
//! the tile's columns of `X`, `±0.0` dead, a subnormal live) writes `+0.0`
//! and does no FMA. Each chain it skips is `±0·dY` steps from `+0.0`,
//! which stays `+0.0` on the mirror premise: **`dY` is finite** (a
//! non-finite loss gradient has spoiled the step anyway). The first layer
//! of the paper MLP reads the phase-space histogram, where 58 % of the
//! 8-row tiles of a 64-sample batch are dead; a row of `W` whose bin is
//! empty in every training sample thus gets an exact `+0.0` gradient in
//! every step and keeps its initial value through Adam.
//!
//! Accumulation order is deterministic for a given shape and machine.
//! Stronger, [`matmul_nn`] is **row-stable**: row `i` of an `m`-row
//! product is bitwise identical for every `m` (on a given machine),
//! because the chain above does not depend on which tile a row lands
//! in, nor on which weight rows its tile-mates keep live. The ensemble
//! scheduler relies on this: batching `m` concurrent DL field solves into
//! one GEMM must reproduce each solo solve bit-for-bit.

// analyze:hot — GEMM/conv micro-kernels are the inference hot path; loop
// bodies here must stay allocation-free (workspaces are caller-provided).

/// Rows per register tile of the `nn`/`tn` micro-kernels.
const MR: usize = 4;
/// Columns per register tile of the `nn`/`tn` micro-kernels.
const NR: usize = 16;
/// f32 lanes per accumulator vector of the `nt` micro-kernel.
const LANES: usize = 8;

/// True when the AVX-512 kernels can run on this machine (always false
/// off x86-64). The first call pays a `cpuid`; the result is cached by
/// `std`.
#[inline]
pub(crate) fn avx512_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx512f")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The kernel path the dispatcher picks on this machine — recorded by the
/// throughput benches so regression gates can tell kernel-path changes
/// from real regressions.
pub fn simd_level() -> &'static str {
    if avx512_available() {
        "avx512f"
    } else {
        "portable"
    }
}

/// Rows of B per `k`-block of the `nn` kernels: 16 rows of the paper's
/// 1024-wide layers are a 64 KiB slab, L1/L2-resident across row tiles,
/// and amortize each tile's `C` round trip over 16 FMA steps.
pub const KB: usize = 16;

/// Which of the `kb` ≤ 16 weight rows of the `k`-block at `k0` a row tile
/// has to read: bit `kk` is set iff any of the tile's `rows` rows of `a`
/// (row-major, `k` wide, starting at the tile's first row) has a nonzero
/// activation in column `k0 + kk`. `±0.0` is dead, a subnormal is live.
/// This is the one definition of "live": both kernel forms walk exactly
/// these bits (the AVX-512 one computes them with a vector compare per
/// row, pinned to this function by a test), and the bench rows that
/// report a live fraction count them.
#[inline]
pub fn live_mask(a: &[f32], rows: usize, k: usize, k0: usize, kb: usize) -> u32 {
    debug_assert!(kb <= KB);
    let mut live = 0u32;
    for r in 0..rows {
        for (kk, &av) in a[r * k + k0..r * k + k0 + kb].iter().enumerate() {
            live |= u32::from(av != 0.0) << kk;
        }
    }
    live
}

/// The set bits of a [`live_mask`], ascending: the `kk` a tile visits.
#[inline]
fn set_bits(mut mask: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let kk = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            kk
        })
    })
}

/// A weight-matrix element the `nn` kernels can stream as the B operand:
/// `f32` as stored, or bf16 (`u16`, see [`crate::bf16`]) decoded on the
/// fly. Both forms of the kernel are written once over this trait.
pub(crate) trait Weight: Copy + Default {
    /// The element as f32 (exact).
    fn to_f32(self) -> f32;

    /// Sixteen consecutive elements at `p` as packed f32.
    ///
    /// # Safety
    /// `avx512f` must be available and `p..p + 16` must be readable.
    #[cfg(target_arch = "x86_64")]
    unsafe fn load16(p: *const Self) -> std::arch::x86_64::__m512;
}

impl Weight for f32 {
    #[inline]
    fn to_f32(self) -> f32 {
        self
    }

    /// # Safety
    /// As [`Weight::load16`].
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn load16(p: *const f32) -> std::arch::x86_64::__m512 {
        std::arch::x86_64::_mm512_loadu_ps(p)
    }
}

/// `C = A·B` where A is `m×k`, B is `k×n`, C is `m×n`. C is overwritten.
///
/// Row-stable (see the module docs): row `i` is bitwise identical for
/// every `m` on a given machine.
///
/// # Panics
/// Panics if slice lengths disagree with the dimensions.
pub fn matmul_nn(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    nn(a, b, c, m, k, n);
}

/// [`matmul_nn`] over either weight type: the AVX-512 kernel when the
/// machine has it, the portable one otherwise.
pub(crate) fn nn<W: Weight>(a: &[f32], b: &[W], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "A size");
    assert_eq!(b.len(), k * n, "B size");
    assert_eq!(c.len(), m * n, "C size");
    #[cfg(target_arch = "x86_64")]
    if avx512_available() {
        // SAFETY: avx512f was detected and the slice sizes were asserted.
        unsafe { avx512::nn(a, b, c, m, k, n) };
        return;
    }
    nn_portable(a, b, c, m, k, n);
}

/// The portable form of [`matmul_nn`] — public so equivalence tests can
/// pin the AVX-512 form against it.
///
/// # Panics
/// Panics if slice lengths disagree with the dimensions.
#[cfg(test)]
fn matmul_nn_portable(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    nn_portable(a, b, c, m, k, n);
}

/// The portable `nn` kernel in the module docs' loop order: full 4×16
/// tiles hold their accumulators in scalars LLVM vectorizes; edge rows
/// and columns update `C` in place in the axpy form, the same chain.
/// Both walk the tile's [`live_mask`] and nothing else.
pub(crate) fn nn_portable<W: Weight>(
    a: &[f32],
    b: &[W],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    assert_eq!(a.len(), m * k, "A size");
    assert_eq!(b.len(), k * n, "B size");
    assert_eq!(c.len(), m * n, "C size");
    if n == 0 || m == 0 {
        return;
    }
    c.fill(0.0);
    for k0 in (0..k).step_by(KB) {
        let kb = KB.min(k - k0);
        for (tile, c_rows) in c.chunks_mut(MR * n).enumerate() {
            let (i0, rows) = (tile * MR, c_rows.len() / n);
            let live = live_mask(&a[i0 * k..], rows, k, k0, kb);
            if live == 0 {
                continue;
            }
            let mut j0 = 0;
            while rows == MR && j0 + NR <= n {
                let mut acc = [[0.0f32; NR]; MR];
                for (r, acc_row) in acc.iter_mut().enumerate() {
                    acc_row.copy_from_slice(&c_rows[r * n + j0..r * n + j0 + NR]);
                }
                for kk in set_bits(live).map(|kk| k0 + kk) {
                    let braw: &[W; NR] = b[kk * n + j0..kk * n + j0 + NR].try_into().unwrap();
                    let bb = braw.map(W::to_f32);
                    for (r, acc_row) in acc.iter_mut().enumerate() {
                        let av = a[(i0 + r) * k + kk];
                        for (ac, &bv) in acc_row.iter_mut().zip(&bb) {
                            *ac += av * bv;
                        }
                    }
                }
                for (r, acc_row) in acc.iter().enumerate() {
                    c_rows[r * n + j0..r * n + j0 + NR].copy_from_slice(acc_row);
                }
                j0 += NR;
            }
            for (r, c_row) in c_rows.chunks_mut(n).enumerate() {
                for kk in set_bits(live).map(|kk| k0 + kk) {
                    let av = a[(i0 + r) * k + kk];
                    for (cv, &bv) in c_row[j0..].iter_mut().zip(&b[kk * n + j0..(kk + 1) * n]) {
                        *cv += av * bv.to_f32();
                    }
                }
            }
        }
    }
}

/// `C = Aᵀ·B` where A is `k×m`, B is `k×n`, C is `m×n`. C is overwritten.
///
/// This is the weight-gradient kernel: `dW[in, out] = Xᵀ[in, batch]·dY[batch, out]`.
/// A row tile of C (8 rows in the AVX-512 form, 4 in the portable one)
/// whose A entries are all `±0.0` — input features that are zero in every
/// sample of the batch — writes `+0.0` without a multiply; edge rows skip
/// per element. Bit-exact while B is finite (see the module docs).
///
/// # Panics
/// Panics if slice lengths disagree with the dimensions.
pub fn matmul_tn(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), k * m, "A size");
    assert_eq!(b.len(), k * n, "B size");
    assert_eq!(c.len(), m * n, "C size");
    if n == 0 || m == 0 {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if m >= 8 && n >= 16 && avx512_available() {
        // SAFETY: avx512f was detected and the slice sizes were asserted.
        unsafe { avx512::tn_main(a, b, c, m, k, n) };
        let (m8, n16) = (m - m % 8, n - n % 16);
        if n16 < n {
            for i in 0..m8 {
                axpy_rows_tn(a, b, &mut c[i * n..(i + 1) * n], i, 1, m, k, n, n16);
            }
        }
        if m8 < m {
            axpy_rows_tn(a, b, &mut c[m8 * n..], m8, m - m8, m, k, n, 0);
        }
        return;
    }
    matmul_tn_portable(a, b, c, m, k, n);
}

/// The portable register-tiled path of [`matmul_tn`] — public so
/// equivalence tests can pin the AVX-512 path against it.
///
/// # Panics
/// Panics if slice lengths disagree with the dimensions.
fn matmul_tn_portable(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), k * m, "A size");
    assert_eq!(b.len(), k * n, "B size");
    assert_eq!(c.len(), m * n, "C size");
    if n == 0 || m == 0 {
        return;
    }
    let main_n = n - n % NR;
    let mut i0 = 0;
    for c_block in c.chunks_mut(MR * n) {
        let rows = c_block.len() / n;
        // A's tile rows over all of `k`, as `k` rows of `MR`, `m` apart.
        if rows == MR && live_mask(&a[i0..], k, m, 0, MR) == 0 {
            c_block.fill(0.0);
        } else if rows == MR {
            // A's tile rows are contiguous: a[kk·m + i0 .. + MR].
            let mut j0 = 0;
            while j0 < main_n {
                let mut acc = [[0.0f32; NR]; MR];
                for kk in 0..k {
                    let aa: &[f32; MR] = a[kk * m + i0..kk * m + i0 + MR].try_into().unwrap();
                    let bb: &[f32; NR] = b[kk * n + j0..kk * n + j0 + NR].try_into().unwrap();
                    for r in 0..MR {
                        let av = aa[r];
                        for (ac, &bv) in acc[r].iter_mut().zip(bb) {
                            *ac += av * bv;
                        }
                    }
                }
                for (r, acc_row) in acc.iter().enumerate() {
                    c_block[r * n + j0..r * n + j0 + NR].copy_from_slice(acc_row);
                }
                j0 += NR;
            }
            if main_n < n {
                axpy_rows_tn(a, b, c_block, i0, rows, m, k, n, main_n);
            }
        } else {
            axpy_rows_tn(a, b, c_block, i0, rows, m, k, n, 0);
        }
        i0 += rows;
    }
}

/// Edge-row/edge-column axpy form of [`matmul_tn`] (A accessed as
/// `a[kk·m + i]`), restricted to columns `j_start..n`.
#[allow(clippy::too_many_arguments)]
fn axpy_rows_tn(
    a: &[f32],
    b: &[f32],
    c_block: &mut [f32],
    i0: usize,
    rows: usize,
    m: usize,
    k: usize,
    n: usize,
    j_start: usize,
) {
    for r in 0..rows {
        c_block[r * n + j_start..r * n + n].fill(0.0);
    }
    for kk in 0..k {
        let b_row = &b[kk * n + j_start..kk * n + n];
        for r in 0..rows {
            let aik = a[kk * m + i0 + r];
            if aik == 0.0 {
                continue;
            }
            let c_row = &mut c_block[r * n + j_start..r * n + n];
            for (cv, &bv) in c_row.iter_mut().zip(b_row) {
                *cv += aik * bv;
            }
        }
    }
}

/// `C = A·Bᵀ` where A is `m×k`, B is `n×k`, C is `m×n`. C is overwritten.
///
/// This is the input-gradient kernel: `dX[batch, in] = dY[batch, out]·Wᵀ`
/// with `W` stored `[in, out]` passed via its transpose-free rows.
///
/// # Panics
/// Panics if slice lengths disagree with the dimensions.
pub fn matmul_nt(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "A size");
    assert_eq!(b.len(), n * k, "B size");
    assert_eq!(c.len(), m * n, "C size");
    if n == 0 || m == 0 {
        return;
    }
    const DR: usize = 2; // output rows per tile
    const DC: usize = 4; // output cols per tile
    let main_n = n - n % DC;
    let main_k = k - k % LANES;
    let mut i0 = 0;
    for c_block in c.chunks_mut(DR * n) {
        let rows = c_block.len() / n;
        if rows == DR {
            let a0 = &a[i0 * k..(i0 + 1) * k];
            let a1 = &a[(i0 + 1) * k..(i0 + 2) * k];
            let mut j0 = 0;
            while j0 < main_n {
                // Eight 8-lane accumulators: the reduction over k stays
                // vectorized without reassociation flags.
                let mut acc = [[[0.0f32; LANES]; DC]; DR];
                let [acc0, acc1] = &mut acc;
                let mut kb = 0;
                while kb < main_k {
                    let av0: &[f32; LANES] = a0[kb..kb + LANES].try_into().unwrap();
                    let av1: &[f32; LANES] = a1[kb..kb + LANES].try_into().unwrap();
                    for (cdx, (c0, c1)) in acc0.iter_mut().zip(acc1.iter_mut()).enumerate() {
                        let p = (j0 + cdx) * k + kb;
                        let bv: &[f32; LANES] = b[p..p + LANES].try_into().unwrap();
                        for l in 0..LANES {
                            c0[l] += av0[l] * bv[l];
                            c1[l] += av1[l] * bv[l];
                        }
                    }
                    kb += LANES;
                }
                for kk in main_k..k {
                    for (cdx, (c0, c1)) in acc0.iter_mut().zip(acc1.iter_mut()).enumerate() {
                        let bv = b[(j0 + cdx) * k + kk];
                        c0[0] += a0[kk] * bv;
                        c1[0] += a1[kk] * bv;
                    }
                }
                for (r, acc_row) in acc.iter().enumerate() {
                    for (cdx, lanes) in acc_row.iter().enumerate() {
                        c_block[r * n + j0 + cdx] = lanes.iter().sum();
                    }
                }
                j0 += DC;
            }
            for j in main_n..n {
                let b_row = &b[j * k..(j + 1) * k];
                c_block[j] = dot(a0, b_row);
                c_block[n + j] = dot(a1, b_row);
            }
        } else {
            for r in 0..rows {
                let a_row = &a[(i0 + r) * k..(i0 + r + 1) * k];
                for (j, cv) in c_block[r * n..(r + 1) * n].iter_mut().enumerate() {
                    *cv = dot(a_row, &b[j * k..(j + 1) * k]);
                }
            }
        }
        i0 += rows;
    }
}

/// Lane-accumulated dot product (vectorizes without fast-math) — the edge
/// path of [`matmul_nt`].
fn dot(a: &[f32], b: &[f32]) -> f32 {
    let mut lanes = [0.0f32; LANES];
    let a_chunks = a.chunks_exact(LANES);
    let b_chunks = b.chunks_exact(LANES);
    let a_rem = a_chunks.remainder();
    let b_rem = b_chunks.remainder();
    for (x, y) in a_chunks.zip(b_chunks) {
        for l in 0..LANES {
            lanes[l] += x[l] * y[l];
        }
    }
    let mut s: f32 = lanes.iter().sum();
    for (x, y) in a_rem.iter().zip(b_rem) {
        s += x * y;
    }
    s
}

/// Adds a bias row to every row of a `m×n` matrix.
///
/// # Panics
/// Panics if sizes disagree.
pub fn add_bias(c: &mut [f32], bias: &[f32], m: usize, n: usize) {
    assert_eq!(c.len(), m * n, "C size");
    assert_eq!(bias.len(), n, "bias size");
    for row in c.chunks_mut(n) {
        for (cv, &bv) in row.iter_mut().zip(bias) {
            *cv += bv;
        }
    }
}

/// Column sums of a `m×n` matrix, accumulated into `out` (bias gradients).
///
/// # Panics
/// Panics if sizes disagree.
pub fn col_sums_into(c: &[f32], out: &mut [f32], m: usize, n: usize) {
    assert_eq!(c.len(), m * n, "C size");
    assert_eq!(out.len(), n, "out size");
    for row in c.chunks(n) {
        for (o, &v) in out.iter_mut().zip(row) {
            *o += v;
        }
    }
}

/// Implicit-im2col convolution GEMM over one zero-padded sample.
///
/// Computes, for every output channel `i < m`, output row `oy < h` and
/// output column `ox < w`:
///
/// ```text
/// out[i·h·w + oy·w + ox] = Σ_kk  a[i·k + kk] · pad[boff[kk] + oy·pw + ox]
/// ```
///
/// which is exactly `C = A·cols` with the patch-column matrix `cols`
/// *described* by the `boff` base offsets into the padded image instead
/// of being packed: row `kk` of `cols` restricted to output row `oy` is
/// the contiguous window `pad[boff[kk] + oy·pw ..][..w]`. For a
/// same-padded k×k convolution the caller sets
/// `boff[(c·k + ky)·k + kx] = (c·ph + ky)·pw + kx` over a
/// `[channels, ph, pw]` padded buffer. Accumulation order over `kk`
/// matches a packed im2col GEMM.
///
/// `out` is overwritten; with `bias` given, output channel `i` starts
/// from `bias[i]` instead of zero (the forward pass fused, saving one
/// full pass over the output). Runs the AVX-512 tiles when available,
/// the portable 4×16 tiles otherwise.
///
/// # Panics
/// Panics if slice lengths disagree with the dimensions or an offset
/// window would fall outside `pad`.
// The eight arguments are the convolution geometry; a struct would only
// rename the same numbers in the hot loop.
#[allow(clippy::too_many_arguments)]
pub fn conv_gemm(
    a: &[f32],
    pad: &[f32],
    boff: &[usize],
    out: &mut [f32],
    m: usize,
    k: usize,
    h: usize,
    w: usize,
    pw: usize,
    bias: Option<&[f32]>,
) {
    assert_eq!(a.len(), m * k, "A size");
    assert_eq!(boff.len(), k, "offset count");
    assert_eq!(out.len(), m * h * w, "out size");
    assert!(pw >= w, "padded row narrower than output row");
    if let Some(b) = bias {
        assert_eq!(b.len(), m, "bias size");
    }
    if h == 0 || w == 0 || m == 0 {
        return;
    }
    if let Some(&max_off) = boff.iter().max() {
        assert!(
            max_off + (h - 1) * pw + w <= pad.len(),
            "offset window outside padded buffer"
        );
    }
    #[cfg(target_arch = "x86_64")]
    if w >= 16 && avx512_available() {
        // SAFETY: avx512f was detected and the window bounds were asserted.
        unsafe { avx512::conv_main(a, pad, boff, out, m, k, h, w, pw, bias) };
        let w16 = w - w % 16;
        if w16 < w {
            conv_rows_axpy(a, pad, boff, out, 0, m, k, h, w, pw, w16, bias);
        }
        return;
    }
    conv_gemm_portable(a, pad, boff, out, m, k, h, w, pw, bias);
}

/// Portable 4×16-tile path of [`conv_gemm`].
#[allow(clippy::too_many_arguments)]
fn conv_gemm_portable(
    a: &[f32],
    pad: &[f32],
    boff: &[usize],
    out: &mut [f32],
    m: usize,
    k: usize,
    h: usize,
    w: usize,
    pw: usize,
    bias: Option<&[f32]>,
) {
    let hw = h * w;
    let (m4, w16) = (m - m % MR, w - w % NR);
    for oy in 0..h {
        let bsh = oy * pw;
        let mut i0 = 0;
        while i0 < m4 {
            let mut j0 = 0;
            while j0 < w16 {
                let mut acc = [[0.0f32; NR]; MR];
                if let Some(b) = bias {
                    for (r, row) in acc.iter_mut().enumerate() {
                        row.fill(b[i0 + r]);
                    }
                }
                for (kk, &off) in boff.iter().enumerate() {
                    let bb: &[f32; NR] =
                        pad[off + bsh + j0..off + bsh + j0 + NR].try_into().unwrap();
                    for r in 0..MR {
                        let av = a[(i0 + r) * k + kk];
                        for (ac, &bv) in acc[r].iter_mut().zip(bb) {
                            *ac += av * bv;
                        }
                    }
                }
                for (r, acc_row) in acc.iter().enumerate() {
                    let at = (i0 + r) * hw + oy * w + j0;
                    out[at..at + NR].copy_from_slice(acc_row);
                }
                j0 += NR;
            }
            i0 += MR;
        }
    }
    if w16 < w {
        conv_rows_axpy(a, pad, boff, out, 0, m4, k, h, w, pw, w16, bias);
    }
    if m4 < m {
        conv_rows_axpy(a, pad, boff, out, m4, m, k, h, w, pw, 0, bias);
    }
}

/// Edge path of [`conv_gemm`]: axpy form over output rows `i0..i1`,
/// columns `j_start..w`.
#[allow(clippy::too_many_arguments)]
fn conv_rows_axpy(
    a: &[f32],
    pad: &[f32],
    boff: &[usize],
    out: &mut [f32],
    i0: usize,
    i1: usize,
    k: usize,
    h: usize,
    w: usize,
    pw: usize,
    j_start: usize,
    bias: Option<&[f32]>,
) {
    let hw = h * w;
    for i in i0..i1 {
        let init = bias.map_or(0.0, |b| b[i]);
        for oy in 0..h {
            let at = i * hw + oy * w;
            let (lo, hi) = (at + j_start, at + w);
            out[lo..hi].fill(init);
            for (kk, &off) in boff.iter().enumerate() {
                let aik = a[i * k + kk];
                if aik == 0.0 {
                    continue;
                }
                let b_row = &pad[off + oy * pw + j_start..off + oy * pw + w];
                for (cv, &bv) in out[lo..hi].iter_mut().zip(b_row) {
                    *cv += aik * bv;
                }
            }
        }
    }
}

/// Weight-gradient correlation against the same virtual patch matrix as
/// [`conv_gemm`]: accumulates (`+=`), for every output channel `i < m`
/// and patch row `kk < k`:
///
/// ```text
/// dw[i·k + kk] += Σ_oy Σ_ox  dy[i·h·w + oy·w + ox] · pad[boff[kk] + oy·pw + ox]
/// ```
///
/// i.e. `dW += dY·colsᵀ` without packing `cols`. Lane-accumulated so the
/// reduction vectorizes without `-ffast-math`; the lane sums are reduced
/// per (i, kk) pair, so the result matches a packed `matmul_nt` to f32
/// tolerance (not bitwise).
///
/// # Panics
/// Panics if slice lengths disagree with the dimensions or an offset
/// window would fall outside `pad`.
#[allow(clippy::too_many_arguments)]
pub fn conv_dw_accum(
    dy: &[f32],
    pad: &[f32],
    boff: &[usize],
    dw: &mut [f32],
    m: usize,
    k: usize,
    h: usize,
    w: usize,
    pw: usize,
) {
    assert_eq!(boff.len(), k, "offset count");
    assert_eq!(dy.len(), m * h * w, "dY size");
    assert_eq!(dw.len(), m * k, "dW size");
    assert!(pw >= w, "padded row narrower than output row");
    if h == 0 || w == 0 || m == 0 {
        return;
    }
    if let Some(&max_off) = boff.iter().max() {
        assert!(
            max_off + (h - 1) * pw + w <= pad.len(),
            "offset window outside padded buffer"
        );
    }
    #[cfg(target_arch = "x86_64")]
    if avx512_available() {
        // SAFETY: avx512f was detected and the window bounds were asserted.
        unsafe { avx512::dw_main(dy, pad, boff, dw, m, k, h, w, pw) };
        return;
    }
    let hw = h * w;
    for i in 0..m {
        for (kk, &off) in boff.iter().enumerate() {
            let mut lanes = [0.0f32; LANES];
            let mut tail = 0.0f32;
            for oy in 0..h {
                let a_row = &dy[i * hw + oy * w..i * hw + oy * w + w];
                let b_row = &pad[off + oy * pw..off + oy * pw + w];
                let a_chunks = a_row.chunks_exact(LANES);
                let b_chunks = b_row.chunks_exact(LANES);
                // analyze:allow(no-alloc-in-hot-loop): ChunksExact::clone copies a two-pointer iterator, no heap allocation — the originals are kept for .remainder() below
                for (x, y) in a_chunks.clone().zip(b_chunks.clone()) {
                    for l in 0..LANES {
                        lanes[l] += x[l] * y[l];
                    }
                }
                for (x, y) in a_chunks.remainder().iter().zip(b_chunks.remainder()) {
                    tail += x * y;
                }
            }
            dw[i * k + kk] += lanes.iter().sum::<f32>() + tail;
        }
    }
}

/// The explicit AVX-512 micro-kernels (runtime-dispatched; see the module
/// docs for why auto-vectorization is not enough on this hardware). Every
/// kernel computes each output element as one sequential FMA chain over
/// `k` in the same order as the portable path — the only numerical
/// difference is FMA contraction.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{set_bits, Weight, KB};
    use std::arch::x86_64::*;

    /// [`super::matmul_nn`], all of it, in the module docs' loop order:
    /// `k`-blocks outermost, then row tiles of 8 (the `m % 8` remainder
    /// as one narrower tile), then column tiles.
    ///
    /// # Safety
    /// `avx512f` must be available and the slices must satisfy the
    /// [`super::matmul_nn`] size contract.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn nn<W: Weight>(a: &[f32], b: &[W], c: &mut [f32], m: usize, k: usize, n: usize) {
        c.fill(0.0);
        let (ap, bp, cp) = (a.as_ptr(), b.as_ptr(), c.as_mut_ptr());
        let mut k0 = 0;
        while k0 < k {
            let kb = KB.min(k - k0);
            let mut i0 = 0;
            while i0 < m {
                let rows = (m - i0).min(8);
                let (at, bt, ct) = (ap.add(i0 * k + k0), bp.add(k0 * n), cp.add(i0 * n));
                let live = live_mask(at, rows, k, kb);
                match rows {
                    _ if live == 0 => {}
                    1 => nn_rows::<W, 1>(at, bt, ct, live, k, n),
                    2 => nn_rows::<W, 2>(at, bt, ct, live, k, n),
                    3 => nn_rows::<W, 3>(at, bt, ct, live, k, n),
                    4 => nn_rows::<W, 4>(at, bt, ct, live, k, n),
                    5 => nn_rows::<W, 5>(at, bt, ct, live, k, n),
                    6 => nn_rows::<W, 6>(at, bt, ct, live, k, n),
                    7 => nn_rows::<W, 7>(at, bt, ct, live, k, n),
                    _ => nn_rows::<W, 8>(at, bt, ct, live, k, n),
                }
                i0 += 8;
            }
            k0 += kb;
        }
    }

    /// [`super::live_mask`] of the `rows × kb` activations at `a`, one
    /// vector compare per row (the scalar form costs a dense 8-row tile
    /// 3 % of its time); `NEQ_UQ` is Rust's `!=`, true for a NaN.
    ///
    /// # Safety
    /// `avx512f` must be available and `rows` rows of `kb` ≤ 16 elements,
    /// `k` apart, must be readable at `a`.
    #[target_feature(enable = "avx512f")]
    #[inline]
    pub(super) unsafe fn live_mask(a: *const f32, rows: usize, k: usize, kb: usize) -> u32 {
        let in_block = ((1u32 << kb) - 1) as __mmask16;
        let mut live = 0;
        for r in 0..rows {
            let av = _mm512_maskz_loadu_ps(in_block, a.add(r * k));
            live |= _mm512_cmp_ps_mask::<_CMP_NEQ_UQ>(av, _mm512_setzero_ps());
        }
        u32::from(live)
    }

    /// One R-row panel of [`nn`] over the `live` rows of one `k`-block
    /// (a nonempty [`live_mask`] of the panel), in tiles as wide as
    /// sixteen accumulator registers allow (`R·V ≤ 16`: 128 columns for
    /// one or two rows, 64 up to four, 32 up to eight — the fewer the
    /// rows, the longer each visit to a weight row, which is what lets
    /// the bandwidth-bound small-`m` passes stream), then narrower tiles
    /// for what is left and one masked tile for the `n % 16` columns.
    ///
    /// # Safety
    /// As [`nn`]; `a`, `b`, `c` point at the panel's first A element,
    /// the block's first B row and the panel's first C row, with
    /// `R` rows and every block row that has a bit in `live` in bounds.
    #[target_feature(enable = "avx512f")]
    unsafe fn nn_rows<W: Weight, const R: usize>(
        a: *const f32,
        b: *const W,
        c: *mut f32,
        live: u32,
        k: usize,
        n: usize,
    ) {
        let mut j0 = 0;
        macro_rules! tiles {
            ($v:literal) => {
                if R * $v <= 16 {
                    while j0 + 16 * $v <= n {
                        nn_tile::<W, R, $v, false>(a, b.add(j0), c.add(j0), live, k, n, 16);
                        j0 += 16 * $v;
                    }
                }
            };
        }
        tiles!(8);
        tiles!(4);
        tiles!(2);
        tiles!(1);
        if j0 < n {
            nn_tile::<W, R, 1, true>(a, b.add(j0), c.add(j0), live, k, n, n - j0);
        }
    }

    /// One R×(16·V) register tile (R·V ≤ 16 accumulator registers plus
    /// V B vectors): loads the partial sums from `C`, runs one FMA step
    /// per set bit of `live`, ascending, stores them back. With `TAIL`
    /// the last vector covers only `last` < 16 columns: `C` is accessed
    /// under a mask and the B lanes past the row end read as zero.
    ///
    /// # Safety
    /// As [`nn_rows`], with the tile's columns in bounds.
    #[target_feature(enable = "avx512f")]
    #[inline]
    #[allow(clippy::too_many_arguments)]
    unsafe fn nn_tile<W: Weight, const R: usize, const V: usize, const TAIL: bool>(
        a: *const f32,
        b: *const W,
        c: *mut f32,
        live: u32,
        k: usize,
        n: usize,
        last: usize,
    ) {
        let mask: __mmask16 = if TAIL { (1u16 << last) - 1 } else { !0 };
        let mut acc = [[_mm512_setzero_ps(); V]; R];
        for (r, row) in acc.iter_mut().enumerate() {
            for (v, ac) in row.iter_mut().enumerate() {
                let p = c.add(r * n + 16 * v);
                *ac = if TAIL {
                    _mm512_maskz_loadu_ps(mask, p)
                } else {
                    _mm512_loadu_ps(p)
                };
            }
        }
        for kk in set_bits(live) {
            let mut bv = [_mm512_setzero_ps(); V];
            for (v, bx) in bv.iter_mut().enumerate() {
                let p = b.add(kk * n + 16 * v);
                *bx = if TAIL {
                    let mut lanes = [W::default(); 16];
                    std::ptr::copy_nonoverlapping(p, lanes.as_mut_ptr(), last);
                    W::load16(lanes.as_ptr())
                } else {
                    W::load16(p)
                };
            }
            for (r, row) in acc.iter_mut().enumerate() {
                let av = _mm512_set1_ps(*a.add(r * k + kk));
                for (ac, &bx) in row.iter_mut().zip(&bv) {
                    *ac = _mm512_fmadd_ps(av, bx, *ac);
                }
            }
        }
        for (r, row) in acc.iter().enumerate() {
            for (v, &ac) in row.iter().enumerate() {
                let p = c.add(r * n + 16 * v);
                if TAIL {
                    _mm512_mask_storeu_ps(p, mask, ac);
                } else {
                    _mm512_storeu_ps(p, ac);
                }
            }
        }
    }

    /// `C = Aᵀ·B` main region (A stored `k×m`): rows `0..m - m%8`,
    /// columns `0..n - n%16`, in 8×32 (and one trailing 8×16) zmm tiles
    /// with `k` innermost. An 8-row tile whose A entries are `±0.0` for
    /// every `k` ([`super::live_mask`] over the tile's `k` rows of 8 is
    /// empty) writes `+0.0` and runs no FMA.
    ///
    /// # Safety
    /// `avx512f` must be available and the slices must satisfy the
    /// [`super::matmul_tn`] size contract.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn tn_main(
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        let (ap, bp, cp) = (a.as_ptr(), b.as_ptr(), c.as_mut_ptr());
        let (m8, n16, n32) = (m - m % 8, n - n % 16, n - n % 32);
        let mut i0 = 0;
        while i0 < m8 {
            // In bounds: `i0 + 8 <= m`, so the tile's `k` rows of 8 at
            // `a + kk·m + i0` lie in A and its C rows' first `n16` in C.
            if live_mask(ap.add(i0), k, m, 8) == 0 {
                for r in 0..8 {
                    std::ptr::write_bytes(cp.add((i0 + r) * n), 0, n16);
                }
                i0 += 8;
                continue;
            }
            let mut j0 = 0;
            while j0 < n32 {
                let mut acc0 = [_mm512_setzero_ps(); 8];
                let mut acc1 = [_mm512_setzero_ps(); 8];
                for kk in 0..k {
                    let b0 = _mm512_loadu_ps(bp.add(kk * n + j0));
                    let b1 = _mm512_loadu_ps(bp.add(kk * n + j0 + 16));
                    for r in 0..8 {
                        let av = _mm512_set1_ps(*ap.add(kk * m + i0 + r));
                        acc0[r] = _mm512_fmadd_ps(av, b0, acc0[r]);
                        acc1[r] = _mm512_fmadd_ps(av, b1, acc1[r]);
                    }
                }
                for r in 0..8 {
                    _mm512_storeu_ps(cp.add((i0 + r) * n + j0), acc0[r]);
                    _mm512_storeu_ps(cp.add((i0 + r) * n + j0 + 16), acc1[r]);
                }
                j0 += 32;
            }
            if j0 < n16 {
                let mut acc = [_mm512_setzero_ps(); 8];
                for kk in 0..k {
                    let b0 = _mm512_loadu_ps(bp.add(kk * n + j0));
                    for (r, ac) in acc.iter_mut().enumerate() {
                        let av = _mm512_set1_ps(*ap.add(kk * m + i0 + r));
                        *ac = _mm512_fmadd_ps(av, b0, *ac);
                    }
                }
                for (r, ac) in acc.iter().enumerate() {
                    _mm512_storeu_ps(cp.add((i0 + r) * n + j0), *ac);
                }
            }
            i0 += 8;
        }
    }

    /// [`super::conv_gemm`] main region: every output row, columns
    /// `0..w - w%16`, in R×32/R×16 zmm tiles loading B directly from the
    /// padded planes. Full 8-row blocks first, then one 1–7-row tail
    /// block (monomorphized per row count so the accumulators stay in
    /// registers — the `dX` pass of a 1-input-channel conv is an m = 1
    /// GEMM).
    ///
    /// # Safety
    /// `avx512f` must be available and the offset windows must lie inside
    /// `pad` (asserted by the dispatching wrapper).
    #[target_feature(enable = "avx512f")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn conv_main(
        a: &[f32],
        pad: &[f32],
        boff: &[usize],
        out: &mut [f32],
        m: usize,
        k: usize,
        h: usize,
        w: usize,
        pw: usize,
        bias: Option<&[f32]>,
    ) {
        let m8 = m - m % 8;
        let mut i0 = 0;
        while i0 < m8 {
            conv_row_tile::<8>(a, pad, boff, out, i0, k, h, w, pw, bias);
            i0 += 8;
        }
        match m - m8 {
            1 => conv_row_tile::<1>(a, pad, boff, out, i0, k, h, w, pw, bias),
            2 => conv_row_tile::<2>(a, pad, boff, out, i0, k, h, w, pw, bias),
            3 => conv_row_tile::<3>(a, pad, boff, out, i0, k, h, w, pw, bias),
            4 => conv_row_tile::<4>(a, pad, boff, out, i0, k, h, w, pw, bias),
            5 => conv_row_tile::<5>(a, pad, boff, out, i0, k, h, w, pw, bias),
            6 => conv_row_tile::<6>(a, pad, boff, out, i0, k, h, w, pw, bias),
            7 => conv_row_tile::<7>(a, pad, boff, out, i0, k, h, w, pw, bias),
            _ => {}
        }
    }

    /// One R-row block of [`conv_main`] (R ≤ 8: at most 16 accumulator
    /// registers plus two B vectors).
    ///
    /// # Safety
    /// As [`conv_main`], with `i0 + R <= m`.
    #[target_feature(enable = "avx512f")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn conv_row_tile<const R: usize>(
        a: &[f32],
        pad: &[f32],
        boff: &[usize],
        out: &mut [f32],
        i0: usize,
        k: usize,
        h: usize,
        w: usize,
        pw: usize,
        bias: Option<&[f32]>,
    ) {
        let (ap, pp, op) = (a.as_ptr(), pad.as_ptr(), out.as_mut_ptr());
        let hw = h * w;
        let (w16, w32) = (w - w % 16, w - w % 32);
        let mut init = [_mm512_setzero_ps(); R];
        if let Some(b) = bias {
            for (r, iv) in init.iter_mut().enumerate() {
                *iv = _mm512_set1_ps(b[i0 + r]);
            }
        }
        for oy in 0..h {
            let bsh = oy * pw;
            let mut j0 = 0;
            while j0 < w32 {
                let mut acc0 = init;
                let mut acc1 = init;
                for (kk, &off) in boff.iter().enumerate() {
                    let b0 = _mm512_loadu_ps(pp.add(off + bsh + j0));
                    let b1 = _mm512_loadu_ps(pp.add(off + bsh + j0 + 16));
                    for r in 0..R {
                        let av = _mm512_set1_ps(*ap.add((i0 + r) * k + kk));
                        acc0[r] = _mm512_fmadd_ps(av, b0, acc0[r]);
                        acc1[r] = _mm512_fmadd_ps(av, b1, acc1[r]);
                    }
                }
                for r in 0..R {
                    let at = (i0 + r) * hw + oy * w + j0;
                    _mm512_storeu_ps(op.add(at), acc0[r]);
                    _mm512_storeu_ps(op.add(at + 16), acc1[r]);
                }
                j0 += 32;
            }
            if j0 < w16 {
                let mut acc = init;
                for (kk, &off) in boff.iter().enumerate() {
                    let b0 = _mm512_loadu_ps(pp.add(off + bsh + j0));
                    for (r, ac) in acc.iter_mut().enumerate() {
                        let av = _mm512_set1_ps(*ap.add((i0 + r) * k + kk));
                        *ac = _mm512_fmadd_ps(av, b0, *ac);
                    }
                }
                for (r, ac) in acc.iter().enumerate() {
                    _mm512_storeu_ps(op.add((i0 + r) * hw + oy * w + j0), *ac);
                }
            }
        }
    }

    /// [`super::conv_dw_accum`], all of it: 4×4 (channel × patch-row)
    /// tiles of zmm lane accumulators over 16-wide image chunks (16 FMAs
    /// per 8 loads), masked loads for the row tails, reduced once per
    /// output element.
    ///
    /// # Safety
    /// `avx512f` must be available and the offset windows must lie inside
    /// `pad` (asserted by the dispatching wrapper).
    #[target_feature(enable = "avx512f")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn dw_main(
        dy: &[f32],
        pad: &[f32],
        boff: &[usize],
        dw: &mut [f32],
        m: usize,
        k: usize,
        h: usize,
        w: usize,
        pw: usize,
    ) {
        let mut i0 = 0;
        while i0 < m {
            match m - i0 {
                1 => dw_rows::<1>(dy, pad, boff, dw, i0, k, h, w, pw),
                2 => dw_rows::<2>(dy, pad, boff, dw, i0, k, h, w, pw),
                3 => dw_rows::<3>(dy, pad, boff, dw, i0, k, h, w, pw),
                _ => dw_rows::<4>(dy, pad, boff, dw, i0, k, h, w, pw),
            }
            i0 += (m - i0).min(4);
        }
    }

    /// NI dY-channels of [`dw_main`], tiled NI×4 / NI×2 / NI×1 over the
    /// patch rows (const bounds so every accumulator register-allocates).
    ///
    /// # Safety
    /// As [`dw_main`], with `i0 + NI <= m`.
    #[target_feature(enable = "avx512f")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn dw_rows<const NI: usize>(
        dy: &[f32],
        pad: &[f32],
        boff: &[usize],
        dw: &mut [f32],
        i0: usize,
        k: usize,
        h: usize,
        w: usize,
        pw: usize,
    ) {
        let mut k0 = 0;
        while k0 + 4 <= k {
            dw_tile::<NI, 4>(dy, pad, boff, dw, i0, k0, k, h, w, pw);
            k0 += 4;
        }
        if k0 + 2 <= k {
            dw_tile::<NI, 2>(dy, pad, boff, dw, i0, k0, k, h, w, pw);
            k0 += 2;
        }
        if k0 < k {
            dw_tile::<NI, 1>(dy, pad, boff, dw, i0, k0, k, h, w, pw);
        }
    }

    /// One NI×NK accumulator tile of [`dw_main`].
    ///
    /// # Safety
    /// As [`dw_main`], with `i0 + NI <= m` and `k0 + NK <= k`.
    #[target_feature(enable = "avx512f")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn dw_tile<const NI: usize, const NK: usize>(
        dy: &[f32],
        pad: &[f32],
        boff: &[usize],
        dw: &mut [f32],
        i0: usize,
        k0: usize,
        k: usize,
        h: usize,
        w: usize,
        pw: usize,
    ) {
        let (yp, pp) = (dy.as_ptr(), pad.as_ptr());
        let hw = h * w;
        let w16 = w - w % 16;
        let tail_mask: __mmask16 = (1u16 << (w % 16)).wrapping_sub(1);
        let mut acc = [[_mm512_setzero_ps(); NK]; NI];
        for oy in 0..h {
            let a_base = oy * w;
            let mut j = 0;
            while j < w16 {
                let mut av = [_mm512_setzero_ps(); NI];
                for (r, v) in av.iter_mut().enumerate() {
                    *v = _mm512_loadu_ps(yp.add((i0 + r) * hw + a_base + j));
                }
                for q in 0..NK {
                    let bv = _mm512_loadu_ps(pp.add(boff[k0 + q] + oy * pw + j));
                    for r in 0..NI {
                        acc[r][q] = _mm512_fmadd_ps(av[r], bv, acc[r][q]);
                    }
                }
                j += 16;
            }
            if tail_mask != 0 {
                let mut av = [_mm512_setzero_ps(); NI];
                for (r, v) in av.iter_mut().enumerate() {
                    *v = _mm512_maskz_loadu_ps(tail_mask, yp.add((i0 + r) * hw + a_base + j));
                }
                for q in 0..NK {
                    let bv = _mm512_maskz_loadu_ps(tail_mask, pp.add(boff[k0 + q] + oy * pw + j));
                    for r in 0..NI {
                        acc[r][q] = _mm512_fmadd_ps(av[r], bv, acc[r][q]);
                    }
                }
            }
        }
        for r in 0..NI {
            for q in 0..NK {
                dw[(i0 + r) * k + k0 + q] += _mm512_reduce_add_ps(acc[r][q]);
            }
        }
    }
}

/// Reference O(mnk) naive matmul — the oracle for property tests.
pub fn matmul_naive(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut c = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f64; // higher-precision accumulation for the oracle
            for kk in 0..k {
                acc += a[i * k + kk] as f64 * b[kk * n + j] as f64;
            }
            c[i * n + j] = acc as f32;
        }
    }
    c
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    fn assert_close(a: &[f32], b: &[f32], tol: f32) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())),
                "elem {i}: {x} vs {y}"
            );
        }
    }

    pub(crate) fn gen(len: usize, s: u64) -> Vec<f32> {
        (0..len)
            .map(|i| (((i as u64 + s) * 2654435761 % 1000) as f32 / 500.0) - 1.0)
            .collect()
    }

    #[test]
    fn identity_multiplication() {
        let a = vec![1.0, 2.0, 3.0, 4.0]; // 2x2
        let eye = vec![1.0, 0.0, 0.0, 1.0];
        let mut c = vec![0.0; 4];
        matmul_nn(&a, &eye, &mut c, 2, 2, 2);
        assert_eq!(c, a);
    }

    #[test]
    fn known_product() {
        // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
        let a = vec![1.0, 2.0, 3.0, 4.0];
        let b = vec![5.0, 6.0, 7.0, 8.0];
        let mut c = vec![0.0; 4];
        matmul_nn(&a, &b, &mut c, 2, 2, 2);
        assert_eq!(c, vec![19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn tn_matches_explicit_transpose() {
        // A is k×m = 3×2; Aᵀ·B with B k×n = 3×2.
        let a = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]; // 3x2
        let b = vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0]; // 3x2
        let at = vec![1.0, 3.0, 5.0, 2.0, 4.0, 6.0]; // 2x3 explicit transpose
        let mut c1 = vec![0.0; 4];
        let mut c2 = vec![0.0; 4];
        matmul_tn(&a, &b, &mut c1, 2, 3, 2);
        matmul_nn(&at, &b, &mut c2, 2, 3, 2);
        assert_close(&c1, &c2, 1e-6);
    }

    #[test]
    fn nt_matches_explicit_transpose() {
        let a = vec![1.0, 2.0, 3.0, 4.0]; // 2x2
        let b = vec![5.0, 6.0, 7.0, 8.0]; // 2x2, use Bᵀ
        let bt = vec![5.0, 7.0, 6.0, 8.0];
        let mut c1 = vec![0.0; 4];
        let mut c2 = vec![0.0; 4];
        matmul_nt(&a, &b, &mut c1, 2, 2, 2);
        matmul_nn(&a, &bt, &mut c2, 2, 2, 2);
        assert_close(&c1, &c2, 1e-6);
    }

    #[test]
    fn bias_and_col_sums_round_trip() {
        let mut c = vec![0.0; 6];
        add_bias(&mut c, &[1.0, 2.0, 3.0], 2, 3);
        assert_eq!(c, vec![1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);
        let mut sums = vec![0.0; 3];
        col_sums_into(&c, &mut sums, 2, 3);
        assert_eq!(sums, vec![2.0, 4.0, 6.0]);
    }

    #[test]
    fn tile_multiple_shape_matches_oracle() {
        // 128 is a multiple of every tile dimension: the pure micro-kernel
        // path with no edge handling.
        let m = 128;
        let a = gen(m * m, 3);
        let b = gen(m * m, 11);
        let mut c = vec![0.0; m * m];
        matmul_nn(&a, &b, &mut c, m, m, m);
        let oracle = matmul_naive(&a, &b, m, m, m);
        assert_close(&c, &oracle, 1e-4);
    }

    #[test]
    fn awkward_shapes_match_oracle_all_kernels() {
        // Shapes straddling every tile boundary: rows % 4, cols % 16,
        // k % 8 all nonzero, plus degenerate 1-row/1-col cases.
        let shapes = [
            (1, 1, 1),
            (1, 7, 1),
            (3, 5, 2),
            (4, 16, 16),
            (5, 17, 18),
            (6, 9, 31),
            (7, 33, 15),
            (9, 8, 17),
            (13, 21, 19),
            (16, 24, 33),
            (1, 100, 37),
        ];
        for &(m, k, n) in &shapes {
            let a = gen(m * k, 5);
            let b = gen(k * n, 9);
            let mut c = vec![0.0; m * n];
            matmul_nn(&a, &b, &mut c, m, k, n);
            assert_close(&c, &matmul_naive(&a, &b, m, k, n), 1e-4);

            // tn: A stored k×m; oracle via explicit transpose.
            let a_km = gen(k * m, 21);
            let mut at = vec![0.0f32; m * k];
            for kk in 0..k {
                for i in 0..m {
                    at[i * k + kk] = a_km[kk * m + i];
                }
            }
            let mut c_tn = vec![0.0; m * n];
            matmul_tn(&a_km, &b, &mut c_tn, m, k, n);
            assert_close(&c_tn, &matmul_naive(&at, &b, m, k, n), 1e-4);

            // nt: B stored n×k; oracle via explicit transpose.
            let b_nk = gen(n * k, 33);
            let mut bt = vec![0.0f32; k * n];
            for j in 0..n {
                for kk in 0..k {
                    bt[kk * n + j] = b_nk[j * k + kk];
                }
            }
            let mut c_nt = vec![0.0; m * n];
            matmul_nt(&a, &b_nk, &mut c_nt, m, k, n);
            assert_close(&c_nt, &matmul_naive(&a, &bt, m, k, n), 1e-4);
        }
    }

    /// Packs the virtual patch matrix that `conv_gemm`/`conv_dw_accum`
    /// read through `boff` into an explicit `[k, h·w]` matrix.
    fn pack_cols(pad: &[f32], boff: &[usize], h: usize, w: usize, pw: usize) -> Vec<f32> {
        let mut cols = vec![0.0f32; boff.len() * h * w];
        for (kk, &off) in boff.iter().enumerate() {
            for oy in 0..h {
                cols[kk * h * w + oy * w..kk * h * w + oy * w + w]
                    .copy_from_slice(&pad[off + oy * pw..off + oy * pw + w]);
            }
        }
        cols
    }

    /// Same-padding conv offsets for a `[c, ph, pw]` padded buffer.
    fn conv_offsets(c: usize, kside: usize, ph: usize, pw: usize) -> Vec<usize> {
        let mut boff = Vec::with_capacity(c * kside * kside);
        for ci in 0..c {
            for ky in 0..kside {
                for kx in 0..kside {
                    boff.push((ci * ph + ky) * pw + kx);
                }
            }
        }
        boff
    }

    #[test]
    fn gemv_matches_oracle() {
        // Shapes straddling the 32/16-wide column tiles and the masked
        // tail, and the DL-solver inference shapes (k = phase cells,
        // n = hidden width).
        for &(k, n) in &[
            (1usize, 1usize),
            (7, 5),
            (20, 16),
            (33, 31),
            (48, 64),
            (37, 50),
            (64, 100),
            (1024, 256),
            (4096, 512),
        ] {
            let a = gen(k, 5);
            let b = gen(k * n, 9);
            let mut c = vec![0.0f32; n];
            matmul_nn(&a, &b, &mut c, 1, k, n);
            assert_close(&c, &matmul_naive(&a, &b, 1, k, n), 1e-4);
        }
    }

    fn assert_bits_eq(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (i, (x, y)) in got.iter().zip(want).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what} elem {i}: {x} != {y}");
        }
    }

    /// Shapes for the bitwise kernel tests: `k` below, at and past a
    /// multiple of the block, `k = 0`, every tile width at once (240 =
    /// 128 + 64 + 32 + 16), `n % 32 == 16`, an `n % 16` tail and `n < 16`.
    pub(crate) const BITWISE_SHAPES: [(usize, usize); 10] = [
        (0, 32),
        (1, 16),
        (KB - 1, 48),
        (KB, 64),
        (KB + 1, 240),
        (3 * KB + 5, 50),
        (37, 7),
        (20, 1),
        (100, 33),
        (2 * KB, 15),
    ];
    /// The paper MLP's first and last layers: the liveness cases only
    /// (a dense 17-row sweep over them is minutes in a debug build).
    pub(crate) const PAPER_SHAPES: [(usize, usize); 2] = [(4096, 1024), (1024, 64)];
    pub(crate) const M_MAX: usize = 17;

    /// The `M_MAX × k` activation matrices of the bitwise tests, by name.
    /// `dense` has no zero worth the name. `relu` is what a ReLU layer or
    /// the phase-space histogram hands the kernel: ≈ 70 % exact zeros in
    /// a different pattern per row, some of them `-0.0`; rows 2 and 10
    /// all zero inside their live tiles; the second `KB`-block dead in
    /// every row and the first dead in the second row tile only; row 5
    /// zero but for one subnormal, which must count as live. `zero` is
    /// all `±0.0`: every tile skips and `C` must still come back `+0.0`.
    pub(crate) fn activation_cases(k: usize, dense: bool) -> Vec<(&'static str, Vec<f32>)> {
        let mut relu = gen(M_MAX * k, 3);
        for (i, row) in relu.chunks_mut(k.max(1)).enumerate() {
            for (kk, av) in row.iter_mut().enumerate() {
                let h = ((i * 1_000_003 + kk) as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 60;
                let dead_block = kk / KB == 1 || (kk / KB == 0 && (8..16).contains(&i));
                match h {
                    _ if dead_block || [2, 5, 10].contains(&i) => *av = 0.0,
                    0..=9 => *av = 0.0,
                    10 => *av = -0.0,
                    _ => {}
                }
            }
            if i == 5 {
                row[0] = f32::from_bits(0x0040_0000);
            }
        }
        let zero = (0..M_MAX * k)
            .map(|i| if i % 3 == 0 { -0.0 } else { 0.0 })
            .collect();
        let mut cases = vec![("relu", relu), ("zero", zero)];
        if dense {
            cases.push(("dense", gen(M_MAX * k, 3)));
        }
        cases
    }

    /// Every (shape, activation case) of the bitwise tests.
    pub(crate) fn bitwise_cases() -> impl Iterator<Item = (usize, usize, &'static str, Vec<f32>)> {
        let shapes = BITWISE_SHAPES.iter().map(|&s| (s, true));
        let paper = PAPER_SHAPES.iter().map(|&s| (s, false));
        shapes.chain(paper).flat_map(|((k, n), dense)| {
            activation_cases(k, dense)
                .into_iter()
                .map(move |(name, a)| (k, n, name, a))
        })
    }

    /// The AVX-512 kernel against the definition of its result, written
    /// without any tiling and without any skipping: each element is one
    /// chain of fused multiply-adds from `+0.0` over *every* ascending
    /// `k` — eliding the dead weight rows must be invisible to it.
    #[test]
    fn avx512_nn_is_the_scalar_fma_chain_bit_for_bit() {
        if !avx512_available() {
            eprintln!("skipping: no avx512f on this machine");
            return;
        }
        for (k, n, case, a) in bitwise_cases() {
            let b = gen(k * n, 7);
            let mut chain = vec![0.0f32; M_MAX * n];
            for (i, row) in chain.chunks_mut(n).enumerate() {
                for (j, out) in row.iter_mut().enumerate() {
                    *out = (0..k).fold(0.0f32, |acc, kk| a[i * k + kk].mul_add(b[kk * n + j], acc));
                }
            }
            for m in 1..=M_MAX {
                // A poisoned C shows any element the kernel fails to write.
                let mut c = vec![f32::NAN; m * n];
                matmul_nn(&a[..m * k], &b, &mut c, m, k, n);
                assert_bits_eq(&c, &chain[..m * n], &format!("{case} k={k} n={n} m={m}"));
            }
        }
    }

    /// The contract the ensemble's batched DL inference stands on: row
    /// `i` of an `m`-row product is *bitwise* identical for every `m` —
    /// batching `m` concurrent field solves into one GEMM reproduces each
    /// solo (m = 1) solve exactly, whichever row tile a row lands in and
    /// whichever weight rows its tile-mates keep live.
    /// Held by the dispatched kernel and by the portable one.
    #[test]
    fn rows_bit_identical_across_batch_sizes() {
        type Kernel = fn(&[f32], &[f32], &mut [f32], usize, usize, usize);
        for (name, kernel) in [
            ("dispatched", matmul_nn as Kernel),
            ("portable", matmul_nn_portable as Kernel),
        ] {
            for (k, n, case, a) in bitwise_cases() {
                let b = gen(k * n, 7);
                // Reference: every row computed as its own m = 1 product.
                let mut solo = vec![f32::NAN; M_MAX * n];
                for (i, row) in solo.chunks_mut(n).enumerate() {
                    kernel(&a[i * k..(i + 1) * k], &b, row, 1, k, n);
                }
                if case == "zero" {
                    assert_bits_eq(&solo, &vec![0.0; M_MAX * n], &format!("{name} zero k={k}"));
                }
                for m in 1..=M_MAX {
                    let mut c = vec![f32::NAN; m * n];
                    kernel(&a[..m * k], &b, &mut c, m, k, n);
                    let what = format!("{name} {case} k={k} n={n} m={m}");
                    assert_bits_eq(&c, &solo[..m * n], &what);
                }
            }
        }
    }

    /// `matmul_tn`'s dead-tile rule against the chains it stands in for.
    /// Column `i` of A (row `i` of C) follows a pattern that, at both tile
    /// heights, holds tiles dead in their first row only (columns 0 and
    /// 4), a dead tile with `-0.0`s (8..16), a tile whose one nonzero is a
    /// subnormal off its first row (21 in 16..24), an all-`+0.0` tile
    /// (24..32) and a dense edge (32). Each form must equal the scalar
    /// chain over every `k` from `+0.0` — fused where the AVX-512 tiles
    /// run, multiply-then-add in the portable form and in the AVX-512
    /// form's edge rows and columns — and every all-zero row reads `+0.0`.
    #[test]
    fn tn_dead_tiles_are_the_scalar_chain_bit_for_bit() {
        type Kernel = fn(&[f32], &[f32], &mut [f32], usize, usize, usize);
        let subnormal = f32::from_bits(0x0040_0000);
        let entry = |kk: usize, i: usize, k: usize, dense: f32| match i {
            0 | 4 => 0.0,
            1..=7 => dense,
            8..=15 if (kk + i).is_multiple_of(3) => -0.0,
            21 if kk == k - 1 => subnormal,
            8..=31 => 0.0,
            _ => dense,
        };
        for m in (1..=17).chain([33]) {
            for k in [1usize, 7, 64] {
                let dense = gen(k * m, 5);
                let a: Vec<f32> = (0..k * m)
                    .map(|at| entry(at / m, at % m, k, dense[at]))
                    .collect();
                for n in [16usize, 33, 64, 1024] {
                    let b = gen(k * n, 7);
                    let tiled = avx512_available() && m >= 8 && n >= 16;
                    let (m8, n16) = (m - m % 8, n - n % 16);
                    for (form, kernel, fused_tiles) in [
                        ("dispatched", matmul_tn as Kernel, tiled),
                        ("portable", matmul_tn_portable as Kernel, false),
                    ] {
                        let mut c = vec![f32::NAN; m * n];
                        kernel(&a, &b, &mut c, m, k, n);
                        for (i, row) in c.chunks(n).enumerate() {
                            for (j, &got) in row.iter().enumerate() {
                                let fused = fused_tiles && i < m8 && j < n16;
                                let want = (0..k).fold(0.0f32, |acc, kk| {
                                    let (x, y) = (a[kk * m + i], b[kk * n + j]);
                                    if fused {
                                        x.mul_add(y, acc)
                                    } else {
                                        acc + x * y
                                    }
                                });
                                assert_eq!(
                                    got.to_bits(),
                                    want.to_bits(),
                                    "{form} m={m} k={k} n={n} C[{i}][{j}]: {got} != {want}"
                                );
                            }
                            if (0..k).all(|kk| a[kk * m + i] == 0.0) {
                                assert!(row.iter().all(|v| v.to_bits() == 0), "{form} row {i}");
                            }
                        }
                    }
                }
            }
        }
    }

    /// `live_mask` is the any-row rule, `±0.0` dead and subnormals live.
    #[test]
    fn live_mask_is_any_row_nonzero() {
        let k = KB + 3;
        let mut a = vec![0.0f32; 3 * k];
        a[1] = -0.0;
        a[2] = f32::from_bits(1);
        a[k + 5] = 1.0;
        a[2 * k + KB + 2] = -2.0;
        assert_eq!(live_mask(&a, 1, k, 0, KB), 0b100);
        assert_eq!(live_mask(&a, 3, k, 0, KB), 0b10_0100);
        assert_eq!(live_mask(&a[k..], 1, k, KB, 3), 0);
        assert_eq!(live_mask(&a, 3, k, KB, 3), 0b100);
    }

    /// The AVX-512 kernel's vector compare is the same rule, bit for bit:
    /// over the ReLU-like and all-zero matrices (with their `-0.0`s and
    /// subnormal), a NaN and an infinity, every tile height, a whole block
    /// and a short one.
    #[test]
    #[cfg(target_arch = "x86_64")]
    fn avx512_live_mask_is_live_mask() {
        if !avx512_available() {
            eprintln!("skipping: no avx512f on this machine");
            return;
        }
        let k = 3 * KB + 5;
        for (case, mut a) in activation_cases(k, true) {
            a[7] = f32::NAN;
            a[k + 9] = f32::NEG_INFINITY;
            for i0 in 0..M_MAX {
                for rows in 1..=8.min(M_MAX - i0) {
                    for k0 in (0..k).step_by(KB) {
                        let kb = KB.min(k - k0);
                        let want = live_mask(&a[i0 * k..], rows, k, k0, kb);
                        // SAFETY: avx512f was detected; rows `i0..i0 + rows`
                        // and columns `k0..k0 + kb` lie inside `a`.
                        let got =
                            unsafe { avx512::live_mask(a.as_ptr().add(i0 * k + k0), rows, k, kb) };
                        assert_eq!(got, want, "{case} i0={i0} rows={rows} k0={k0}");
                    }
                }
            }
        }
    }

    #[test]
    fn avx512_paths_match_portable_kernels() {
        if !avx512_available() {
            eprintln!("skipping: no avx512f on this machine");
            return;
        }
        // Shapes exercising the 8x32 tile, the 8x16 trailing tile, the
        // masked column tail and a remainder row tile.
        for &(m, k, n) in &[
            (8, 72, 1024),
            (16, 9, 48),
            (8, 3, 16),
            (9, 17, 35),
            (64, 512, 96),
        ] {
            let a = gen(m * k, 3);
            let b = gen(k * n, 7);
            let mut c_fast = vec![0.0f32; m * n];
            let mut c_ref = vec![0.0f32; m * n];
            matmul_nn(&a, &b, &mut c_fast, m, k, n);
            matmul_nn_portable(&a, &b, &mut c_ref, m, k, n);
            assert_close(&c_fast, &c_ref, 1e-5);

            let a_km = gen(k * m, 11);
            let mut t_fast = vec![0.0f32; m * n];
            let mut t_ref = vec![0.0f32; m * n];
            matmul_tn(&a_km, &b, &mut t_fast, m, k, n);
            matmul_tn_portable(&a_km, &b, &mut t_ref, m, k, n);
            assert_close(&t_fast, &t_ref, 1e-5);
        }
    }

    #[test]
    fn conv_gemm_matches_packed_im2col_gemm() {
        // Awkward geometries: odd widths, width < one tile, 5x5 kernels.
        for &(m, c, kside, h, w) in &[
            (8usize, 3usize, 3usize, 6usize, 32usize),
            (4, 1, 3, 5, 7),
            (16, 8, 3, 16, 16),
            (3, 2, 5, 9, 19),
            (9, 4, 3, 4, 33),
        ] {
            let pad = kside / 2;
            let (ph, pw) = (h + 2 * pad, w + 2 * pad);
            let k = c * kside * kside;
            let a = gen(m * k, 13);
            // A fully random padded buffer (borders included) exercises
            // the kernel as a pure offset-GEMM, not just zero padding.
            let padbuf = gen(c * ph * pw, 17);
            let boff = conv_offsets(c, kside, ph, pw);

            let mut out = vec![0.0f32; m * h * w];
            conv_gemm(&a, &padbuf, &boff, &mut out, m, k, h, w, pw, None);

            let cols = pack_cols(&padbuf, &boff, h, w, pw);
            let mut oracle = vec![0.0f32; m * h * w];
            matmul_nn_portable(&a, &cols, &mut oracle, m, k, h * w);
            assert_close(&out, &oracle, 1e-4);

            // Fused bias: every element of channel i shifts by bias[i].
            let bias = gen(m, 41);
            let mut out_b = vec![0.0f32; m * h * w];
            conv_gemm(&a, &padbuf, &boff, &mut out_b, m, k, h, w, pw, Some(&bias));
            for i in 0..m {
                for (x, y) in out_b[i * h * w..(i + 1) * h * w]
                    .iter()
                    .zip(&out[i * h * w..(i + 1) * h * w])
                {
                    assert!((x - (y + bias[i])).abs() < 1e-4 * (1.0 + y.abs()));
                }
            }
        }
    }

    #[test]
    fn conv_dw_accum_matches_packed_nt_gemm() {
        for &(m, c, kside, h, w) in &[
            (8usize, 3usize, 3usize, 6usize, 32usize),
            (2, 1, 3, 5, 7),
            (16, 8, 3, 16, 16),
            (5, 2, 5, 9, 19),
        ] {
            let pad = kside / 2;
            let (ph, pw) = (h + 2 * pad, w + 2 * pad);
            let k = c * kside * kside;
            let dy = gen(m * h * w, 19);
            let padbuf = gen(c * ph * pw, 23);
            let boff = conv_offsets(c, kside, ph, pw);

            // Accumulate on top of a nonzero start to exercise `+=`.
            let mut dw = gen(m * k, 29);
            let start = dw.clone();
            conv_dw_accum(&dy, &padbuf, &boff, &mut dw, m, k, h, w, pw);

            let cols = pack_cols(&padbuf, &boff, h, w, pw);
            let mut prod = vec![0.0f32; m * k];
            matmul_nt(&dy, &cols, &mut prod, m, h * w, k);
            let oracle: Vec<f32> = start.iter().zip(&prod).map(|(s, p)| s + p).collect();
            assert_close(&dw, &oracle, 1e-4);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn nn_matches_oracle(
            m in 1usize..20, k in 1usize..20, n in 1usize..36,
            seed in 0u64..1000,
        ) {
            let a = gen(m * k, seed);
            let b = gen(k * n, seed + 1);
            let mut c = vec![0.0; m * n];
            matmul_nn(&a, &b, &mut c, m, k, n);
            let oracle = matmul_naive(&a, &b, m, k, n);
            for (x, y) in c.iter().zip(&oracle) {
                prop_assert!((x - y).abs() < 1e-4);
            }
        }

        #[test]
        fn tn_and_nt_consistent_with_nn(
            m in 1usize..10, k in 1usize..12, n in 1usize..20,
            seed in 0u64..1000,
        ) {
            // tn: A (k×m) — build explicit transpose and compare.
            let a_km = gen(k * m, seed);
            let b_kn = gen(k * n, seed + 7);
            let mut at = vec![0.0f32; m * k];
            for kk in 0..k {
                for i in 0..m {
                    at[i * k + kk] = a_km[kk * m + i];
                }
            }
            let mut c_tn = vec![0.0; m * n];
            let mut c_ref = vec![0.0; m * n];
            matmul_tn(&a_km, &b_kn, &mut c_tn, m, k, n);
            matmul_nn(&at, &b_kn, &mut c_ref, m, k, n);
            for (x, y) in c_tn.iter().zip(&c_ref) {
                prop_assert!((x - y).abs() < 1e-4);
            }
            // nt: B (n×k).
            let a_mk = gen(m * k, seed + 13);
            let b_nk = gen(n * k, seed + 19);
            let mut bt = vec![0.0f32; k * n];
            for j in 0..n {
                for kk in 0..k {
                    bt[kk * n + j] = b_nk[j * k + kk];
                }
            }
            let mut c_nt = vec![0.0; m * n];
            let mut c_ref2 = vec![0.0; m * n];
            matmul_nt(&a_mk, &b_nk, &mut c_nt, m, k, n);
            matmul_nn(&a_mk, &bt, &mut c_ref2, m, k, n);
            for (x, y) in c_nt.iter().zip(&c_ref2) {
                prop_assert!((x - y).abs() < 1e-4);
            }
        }
    }
}
