//! Discrete Fourier transforms.
//!
//! Two implementations are provided:
//!
//! * [`fft_in_place`] — an iterative radix-2 Cooley–Tukey FFT for
//!   power-of-two lengths. This is what the hot paths use (the PIC grid has
//!   64 cells, the paper's phase-space grids are powers of two).
//! * `dft_naive` — the O(n²) textbook definition, kept as the oracle for
//!   property tests and as a fallback for non-power-of-two lengths.
//!
//! The convention is the engineering one: forward transform
//! `X_k = Σ_n x_n · exp(-2πi·kn/N)` with no normalization; the inverse
//! carries the `1/N`.
//!
//! [`mode_amplitudes`] converts a real signal into per-mode *physical*
//! amplitudes, i.e. the `a_k` in `x_n = a_0 + Σ_k a_k cos(k·… + φ_k)`; this
//! is the quantity plotted as `E1` in Fig. 4 of the paper.

use crate::complex::Complex64;

/// Returns true if `n` is a power of two (and nonzero).
#[inline]
pub fn is_power_of_two(n: usize) -> bool {
    n != 0 && (n & (n - 1)) == 0
}

/// Naive O(n²) DFT of a complex signal. Oracle for tests; correct for any
/// length.
pub(crate) fn dft_naive(input: &[Complex64]) -> Vec<Complex64> {
    let n = input.len();
    let mut out = vec![Complex64::ZERO; n];
    for (k, out_k) in out.iter_mut().enumerate() {
        let mut acc = Complex64::ZERO;
        for (j, &x) in input.iter().enumerate() {
            let angle = -2.0 * std::f64::consts::PI * (k * j) as f64 / n as f64;
            acc += x * Complex64::from_polar(1.0, angle);
        }
        *out_k = acc;
    }
    out
}

/// In-place iterative radix-2 FFT.
///
/// # Panics
/// Panics if `data.len()` is not a power of two.
pub fn fft_in_place(data: &mut [Complex64]) {
    let n = data.len();
    assert!(
        is_power_of_two(n),
        "FFT length must be a power of two, got {n}"
    );
    if n <= 1 {
        return;
    }

    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> (usize::BITS - bits);
        if i < j {
            data.swap(i, j);
        }
    }

    // Butterflies.
    let mut len = 2;
    while len <= n {
        let ang = -2.0 * std::f64::consts::PI / len as f64;
        let wlen = Complex64::from_polar(1.0, ang);
        let mut i = 0;
        while i < n {
            let mut w = Complex64::ONE;
            for j in 0..len / 2 {
                let u = data[i + j];
                let v = data[i + j + len / 2] * w;
                data[i + j] = u + v;
                data[i + j + len / 2] = u - v;
                w *= wlen;
            }
            i += len;
        }
        len <<= 1;
    }
}

/// In-place inverse FFT (includes the 1/N normalization).
///
/// # Panics
/// Panics if `data.len()` is not a power of two.
pub fn ifft_in_place(data: &mut [Complex64]) {
    let n = data.len() as f64;
    for z in data.iter_mut() {
        *z = z.conj();
    }
    fft_in_place(data);
    for z in data.iter_mut() {
        *z = z.conj() / n;
    }
}

/// Forward transform of a real signal. Uses the FFT when the length is a
/// power of two, the naive DFT otherwise.
fn rdft(signal: &[f64]) -> Vec<Complex64> {
    let data: Vec<Complex64> = signal.iter().map(|&x| Complex64::from_real(x)).collect();
    if is_power_of_two(data.len()) {
        let mut d = data;
        fft_in_place(&mut d);
        d
    } else {
        dft_naive(&data)
    }
}

/// Physical per-mode amplitudes of a real signal.
///
/// Returns `n/2 + 1` values: index 0 is the mean `|X_0|/N`, index `k`
/// (0 < k < N/2) is `2|X_k|/N` — the amplitude of the cosine mode — and the
/// Nyquist mode (k = N/2, when N even) is `|X_{N/2}|/N`.
pub fn mode_amplitudes(signal: &[f64]) -> Vec<f64> {
    let n = signal.len();
    assert!(n > 0, "empty signal");
    let spec = rdft(signal);
    let half = n / 2;
    let mut amps = Vec::with_capacity(half + 1);
    amps.push(spec[0].abs() / n as f64);
    for (k, s) in spec.iter().enumerate().take(half + 1).skip(1) {
        let factor = if n.is_multiple_of(2) && k == half {
            1.0
        } else {
            2.0
        };
        amps.push(factor * s.abs() / n as f64);
    }
    amps
}

/// Single DFT bin `X_k = Σ_j x_j·exp(-2πi·kj/N)` of a real signal,
/// computed with the Goertzel recurrence — O(N), allocation-free. This is
/// the per-step hot path of the mode-amplitude diagnostics: a tracked
/// mode costs one pass over the signal instead of a full transform.
pub fn single_mode_dft(signal: &[f64], k: usize) -> Complex64 {
    let n = signal.len();
    assert!(n > 0, "empty signal");
    let omega = 2.0 * std::f64::consts::PI * k as f64 / n as f64;
    let (sin_w, cos_w) = omega.sin_cos();
    let coeff = 2.0 * cos_w;
    let mut s_prev = 0.0f64;
    let mut s_prev2 = 0.0f64;
    for &x in signal {
        let s = x + coeff * s_prev - s_prev2;
        s_prev2 = s_prev;
        s_prev = s;
    }
    // X_k = e^{iω}·s_{N−1} − s_{N−2} (ω·N is a full turn, so the phase
    // reference lands back on sample 0).
    Complex64::new(s_prev * cos_w - s_prev2, s_prev * sin_w)
}

/// Amplitude of a single mode `k` of a real signal (see [`mode_amplitudes`])
/// via the O(N) Goertzel projection — no transform, no allocation.
pub fn mode_amplitude(signal: &[f64], k: usize) -> f64 {
    let n = signal.len();
    assert!(k <= n / 2, "mode {k} out of range for signal of length {n}");
    let bin = single_mode_dft(signal, k);
    let factor = if k == 0 || (n.is_multiple_of(2) && k == n / 2) {
        1.0
    } else {
        2.0
    };
    factor * bin.abs() / n as f64
}

/// Total spectral power `Σ|X_k|²` — used for Parseval checks and for the
/// spectral error analysis the paper's §VII calls for.
#[cfg(test)]
fn spectral_power(signal: &[f64]) -> f64 {
    rdft(signal).iter().map(|z| z.norm_sqr()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::f64::consts::PI;

    fn assert_close(a: f64, b: f64, tol: f64, what: &str) {
        assert!((a - b).abs() < tol, "{what}: {a} vs {b}");
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut data = vec![Complex64::ZERO; 8];
        data[0] = Complex64::ONE;
        fft_in_place(&mut data);
        for z in &data {
            assert!((z.re - 1.0).abs() < 1e-12 && z.im.abs() < 1e-12);
        }
    }

    #[test]
    fn fft_of_constant_is_impulse() {
        let mut data = vec![Complex64::ONE; 16];
        fft_in_place(&mut data);
        assert!((data[0].re - 16.0).abs() < 1e-12);
        for z in &data[1..] {
            assert!(z.abs() < 1e-10);
        }
    }

    #[test]
    fn single_cosine_lands_on_one_mode() {
        let n = 64;
        let k = 3;
        let amp = 0.25;
        let signal: Vec<f64> = (0..n)
            .map(|j| amp * (2.0 * PI * (k * j) as f64 / n as f64).cos())
            .collect();
        let amps = mode_amplitudes(&signal);
        assert_close(amps[k], amp, 1e-12, "target mode");
        for (m, &a) in amps.iter().enumerate() {
            if m != k {
                assert!(a < 1e-10, "leakage at mode {m}: {a}");
            }
        }
    }

    #[test]
    fn mode_amplitude_with_phase_shift() {
        let n = 64;
        let k = 5;
        let signal: Vec<f64> = (0..n)
            .map(|j| 0.1 * (2.0 * PI * (k * j) as f64 / n as f64 + 1.1).sin())
            .collect();
        assert_close(mode_amplitude(&signal, k), 0.1, 1e-12, "shifted mode");
    }

    #[test]
    fn mean_mode_is_signal_mean() {
        let signal = vec![2.5; 32];
        assert_close(mode_amplitudes(&signal)[0], 2.5, 1e-12, "mean");
    }

    #[test]
    fn nyquist_mode_amplitude() {
        // x_j = (-1)^j = cos(pi j): Nyquist amplitude 1, no factor 2.
        let n = 16;
        let signal: Vec<f64> = (0..n)
            .map(|j| if j % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let amps = mode_amplitudes(&signal);
        assert_close(amps[n / 2], 1.0, 1e-12, "nyquist");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn fft_rejects_non_power_of_two() {
        let mut data = vec![Complex64::ZERO; 12];
        fft_in_place(&mut data);
    }

    #[test]
    fn rdft_handles_non_power_of_two_via_naive_path() {
        let signal: Vec<f64> = (0..12).map(|j| (j as f64 * 0.3).sin()).collect();
        let spec = rdft(&signal);
        let oracle = dft_naive(
            &signal
                .iter()
                .map(|&x| Complex64::from_real(x))
                .collect::<Vec<_>>(),
        );
        for (a, b) in spec.iter().zip(&oracle) {
            assert!((*a - *b).abs() < 1e-9);
        }
    }

    #[test]
    fn goertzel_matches_naive_dft_bins() {
        // Awkward (non-power-of-two) length: the worst case for the old
        // path, exact single-bin agreement expected from Goertzel.
        let signal: Vec<f64> = (0..37).map(|j| (j as f64 * 0.83).sin() - 0.2).collect();
        let input: Vec<Complex64> = signal.iter().map(|&x| Complex64::from_real(x)).collect();
        let oracle = dft_naive(&input);
        for (k, want) in oracle.iter().enumerate().take(signal.len() / 2 + 1) {
            let bin = single_mode_dft(&signal, k);
            assert!((bin - *want).abs() < 1e-9, "bin {k}: {bin:?} vs {want:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn goertzel_amplitude_matches_full_spectrum(
            signal in proptest::collection::vec(-2.0f64..2.0, 1..96),
        ) {
            let amps = mode_amplitudes(&signal);
            for (k, &a) in amps.iter().enumerate() {
                let single = mode_amplitude(&signal, k);
                prop_assert!((single - a).abs() < 1e-9,
                    "mode {k}: {single} vs {a}");
            }
        }

        #[test]
        fn fft_matches_naive_dft(signal in proptest::collection::vec(-1.0f64..1.0, 64)) {
            let input: Vec<Complex64> = signal.iter().map(|&x| Complex64::from_real(x)).collect();
            let oracle = dft_naive(&input);
            let mut fast = input;
            fft_in_place(&mut fast);
            for (a, b) in fast.iter().zip(&oracle) {
                prop_assert!((*a - *b).abs() < 1e-8);
            }
        }

        #[test]
        fn fft_ifft_round_trip(signal in proptest::collection::vec(-10.0f64..10.0, 32)) {
            let input: Vec<Complex64> = signal.iter().map(|&x| Complex64::from_real(x)).collect();
            let mut data = input.clone();
            fft_in_place(&mut data);
            ifft_in_place(&mut data);
            for (a, b) in data.iter().zip(&input) {
                prop_assert!((*a - *b).abs() < 1e-9);
            }
        }

        #[test]
        fn parseval_identity(signal in proptest::collection::vec(-5.0f64..5.0, 128)) {
            let time_energy: f64 = signal.iter().map(|x| x * x).sum();
            let freq_energy = spectral_power(&signal) / signal.len() as f64;
            prop_assert!((time_energy - freq_energy).abs() < 1e-6 * (1.0 + time_energy));
        }

        #[test]
        fn fft_linearity(
            a in proptest::collection::vec(-1.0f64..1.0, 32),
            b in proptest::collection::vec(-1.0f64..1.0, 32),
            alpha in -3.0f64..3.0,
        ) {
            let combo: Vec<f64> = a.iter().zip(&b).map(|(x, y)| alpha * x + y).collect();
            let fa = rdft(&a);
            let fb = rdft(&b);
            let fc = rdft(&combo);
            for k in 0..32 {
                let expect = fa[k] * alpha + fb[k];
                prop_assert!((fc[k] - expect).abs() < 1e-8);
            }
        }
    }
}
