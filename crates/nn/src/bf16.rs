//! bf16 weight storage for the `nn` kernels.
//!
//! bfloat16 keeps f32's 8-bit exponent and truncates the mantissa to
//! 7 bits — a `u16` holding the upper half of the f32 bit pattern. For
//! inference weights that halves storage and, because the `nn` kernel
//! reads each live weight once per call whatever the cohort size, halves the
//! bytes a solve pulls from memory. Activations and accumulation stay
//! f32: only the B operand (the weights) is bf16.
//!
//! There is no bf16 kernel of its own: `u16` implements
//! `linalg::Weight`, so bf16 weights run through [`crate::linalg`]'s
//! `k`-blocked kernel — batched and solo, AVX-512 and portable — with
//! the weight load widened on the fly (`vpmovzxwd` + shift-left 16, the
//! exact decode).
//!
//! Numerics contract: encoding is round-to-nearest-even, decoding is the
//! exact `(u16 as u32) << 16` bit shift (every bf16 value is exactly
//! representable in f32). Results therefore differ from the f32 kernels
//! by the weight quantization — the engine gates the bf16 path on a
//! *physics* tolerance (growth rate / saturation energy), not
//! bit-identity — and equal, bit for bit, [`crate::linalg::matmul_nn`]
//! over the decoded weights. In particular the f32 kernel's
//! **row-stability** carries over: row `i` of an `m`-row product is
//! bitwise identical for every `m` on a given machine, so the ensemble
//! scheduler batches bf16 cohorts under the same contract as f32 ones.

use crate::linalg::Weight;
#[cfg(test)]
use crate::linalg::{nn, nn_portable};

/// Encodes one f32 as bf16 with round-to-nearest-even.
///
/// NaNs are quieted (the mantissa MSB is forced on) so a truncated NaN
/// cannot collapse to infinity.
#[inline]
fn f32_to_bf16(x: f32) -> u16 {
    let bits = x.to_bits();
    if x.is_nan() {
        return ((bits >> 16) as u16) | 0x0040;
    }
    // Round to nearest even on the truncated 16 bits.
    let round = 0x7fff + ((bits >> 16) & 1);
    ((bits + round) >> 16) as u16
}

/// Decodes one bf16 back to f32 (exact).
#[inline]
fn bf16_to_f32(b: u16) -> f32 {
    f32::from_bits((b as u32) << 16)
}

/// Encodes a slice of f32 weights to bf16 (round-to-nearest-even).
pub fn encode_bf16(src: &[f32]) -> Vec<u16> {
    src.iter().map(|&v| f32_to_bf16(v)).collect()
}

/// Decodes a bf16 slice back to f32 (exact).
#[cfg(test)]
fn decode_bf16(src: &[u16]) -> Vec<f32> {
    src.iter().map(|&b| bf16_to_f32(b)).collect()
}

impl Weight for u16 {
    #[inline]
    fn to_f32(self) -> f32 {
        bf16_to_f32(self)
    }

    /// # Safety
    /// As [`Weight::load16`].
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn load16(p: *const u16) -> std::arch::x86_64::__m512 {
        use std::arch::x86_64::*;
        // The decode adds two uops per vector, and with them the
        // out-of-order window no longer reaches far enough down a weight
        // row to keep its cache misses in flight (measured: bf16 passes at
        // 15 GB/s where f32 ones stream at 22). Asking for the row 512
        // bytes ahead restores the overlap — 20 GB/s at batch 1, and
        // every cohort size gains.
        _mm_prefetch::<_MM_HINT_T0>(p.wrapping_add(256) as *const i8);
        let raw = _mm256_loadu_si256(p as *const __m256i);
        _mm512_castsi512_ps(_mm512_slli_epi32(_mm512_cvtepu16_epi32(raw), 16))
    }
}

/// `C = A·B` where A is `m×k` f32, B is `k×n` **bf16**, C is `m×n` f32.
/// C is overwritten. f32 accumulation; B lanes are decoded on the fly.
///
/// Row-stable like [`crate::linalg::matmul_nn`]: row `i` is bitwise
/// identical for every `m` on a given machine (see the module docs).
///
/// # Panics
/// Panics if slice lengths disagree with the dimensions.
#[cfg(test)]
fn matmul_nn_bf16(a: &[f32], b: &[u16], c: &mut [f32], m: usize, k: usize, n: usize) {
    nn(a, b, c, m, k, n);
}

/// The portable form of [`matmul_nn_bf16`] — public so equivalence tests
/// can pin the AVX-512 form against it.
///
/// # Panics
/// Panics if slice lengths disagree with the dimensions.
#[cfg(test)]
fn matmul_nn_bf16_portable(a: &[f32], b: &[u16], c: &mut [f32], m: usize, k: usize, n: usize) {
    nn_portable(a, b, c, m, k, n, 0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::matmul_naive;
    use crate::linalg::tests::{bitwise_cases, gen, M_MAX};

    #[test]
    fn round_trip_is_exact_for_bf16_values() {
        for v in [0.0f32, -0.0, 1.0, -1.0, 0.5, 1.5, f32::INFINITY, 65280.0] {
            assert_eq!(bf16_to_f32(f32_to_bf16(v)).to_bits(), v.to_bits());
        }
    }

    #[test]
    fn encode_rounds_to_nearest_even() {
        // 1.0 + 2^-8 sits exactly between bf16(1.0) and the next value
        // up; nearest-even rounds down to 1.0.
        let half_ulp = f32::from_bits(0x3f80_8000);
        assert_eq!(bf16_to_f32(f32_to_bf16(half_ulp)), 1.0);
        // A hair above the midpoint rounds up.
        let above = f32::from_bits(0x3f80_8001);
        assert_eq!(bf16_to_f32(f32_to_bf16(above)), f32::from_bits(0x3f81_0000));
        // Midpoint with odd low bit rounds up to even.
        let odd_mid = f32::from_bits(0x3f81_8000);
        assert_eq!(
            bf16_to_f32(f32_to_bf16(odd_mid)),
            f32::from_bits(0x3f82_0000)
        );
    }

    #[test]
    fn nan_encoding_stays_nan() {
        assert!(bf16_to_f32(f32_to_bf16(f32::NAN)).is_nan());
        // A signaling-pattern NaN whose payload lives only in the low
        // mantissa bits must not truncate to infinity.
        let low_payload_nan = f32::from_bits(0x7f80_0001);
        assert!(bf16_to_f32(f32_to_bf16(low_payload_nan)).is_nan());
    }

    #[test]
    fn matmul_matches_oracle_on_decoded_weights() {
        // The bf16 product must equal the f32 product of the *decoded*
        // weights (quantization is in the encode, not the kernel).
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (3, 5, 2),
            (5, 17, 18),
            (8, 72, 64),
            (9, 8, 17),
            (13, 21, 19),
            (1, 100, 37),
        ] {
            let a = gen(m * k, 5);
            let b16 = encode_bf16(&gen(k * n, 9));
            let b32 = decode_bf16(&b16);
            let mut c = vec![0.0f32; m * n];
            matmul_nn_bf16(&a, &b16, &mut c, m, k, n);
            let oracle = matmul_naive(&a, &b32, m, k, n);
            for (i, (x, y)) in c.iter().zip(&oracle).enumerate() {
                assert!(
                    (x - y).abs() <= 1e-4 * (1.0 + x.abs().max(y.abs())),
                    "m={m} k={k} n={n} elem {i}: {x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn rows_bit_identical_across_batch_sizes() {
        // The bf16 product is the f32 kernel over the decoded weights,
        // bit for bit, at every cohort size — so it inherits the f32
        // contract (batching m rows reproduces each solo row) and bf16
        // cohorts batch under the ensemble scheduler like f32 ones. The
        // portable form has its own contraction: row stability only.
        // Over every shape and activation case of the f32 bitwise tests
        // (ReLU-like zeros, dead blocks, all-zero input: the weight rows
        // the kernel skips must be as invisible here as there).
        for (k, n, case, a) in bitwise_cases() {
            let b = encode_bf16(&gen(k * n, 7));
            let decoded = decode_bf16(&b);
            let mut solo = vec![0.0f32; M_MAX * n];
            let mut solo_portable = vec![0.0f32; M_MAX * n];
            for i in 0..M_MAX {
                let (a_row, rows) = (&a[i * k..(i + 1) * k], i * n..(i + 1) * n);
                matmul_nn_bf16(a_row, &b, &mut solo[rows.clone()], 1, k, n);
                matmul_nn_bf16_portable(a_row, &b, &mut solo_portable[rows], 1, k, n);
            }
            for m in 1..=M_MAX {
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                let mut c = vec![f32::NAN; m * n];
                matmul_nn_bf16(&a[..m * k], &b, &mut c, m, k, n);
                assert_eq!(bits(&c), bits(&solo[..m * n]), "{case} k={k} n={n} m={m}");
                let mut c32 = vec![f32::NAN; m * n];
                crate::linalg::matmul_nn(&a[..m * k], &decoded, &mut c32, m, k, n);
                assert_eq!(bits(&c), bits(&c32), "decoded {case} k={k} n={n} m={m}");
                let mut cp = vec![f32::NAN; m * n];
                matmul_nn_bf16_portable(&a[..m * k], &b, &mut cp, m, k, n);
                assert_eq!(
                    bits(&cp),
                    bits(&solo_portable[..m * n]),
                    "portable {case} k={k} n={n} m={m}"
                );
            }
        }
    }

    #[test]
    fn avx512_path_matches_portable_kernel() {
        if !crate::linalg::avx512_available() {
            eprintln!("skipping: no avx512f on this machine");
            return;
        }
        for &(m, k, n) in &[(8usize, 72usize, 256usize), (16, 9, 48), (9, 17, 35)] {
            let a = gen(m * k, 3);
            let b = encode_bf16(&gen(k * n, 7));
            let mut fast = vec![0.0f32; m * n];
            let mut portable = vec![0.0f32; m * n];
            matmul_nn_bf16(&a, &b, &mut fast, m, k, n);
            matmul_nn_bf16_portable(&a, &b, &mut portable, m, k, n);
            for (i, (x, y)) in fast.iter().zip(&portable).enumerate() {
                assert!(
                    (x - y).abs() <= 1e-5 * (1.0 + x.abs().max(y.abs())),
                    "elem {i}: {x} vs {y}"
                );
            }
        }
    }
}
