//! Two-dimensional discrete Fourier transforms on row-major grids.
//!
//! Used by the 2-D Poisson solver of `dlpic-pic2d` (the paper's §VII
//! "extend the method to study two- and three-dimensional systems") and by
//! the 2-D field diagnostics. The transform is separable: a radix-2 FFT
//! over every row followed by one over every column.

use crate::complex::Complex64;
use crate::dft::{fft_in_place, ifft_in_place, is_power_of_two};

/// In-place 2-D FFT of a row-major `ny × nx` array (`data[iy * nx + ix]`).
///
/// # Panics
/// Panics when `data.len() != nx * ny` or either dimension is not a power
/// of two.
#[cfg(test)]
fn fft2_in_place(data: &mut [Complex64], nx: usize, ny: usize) {
    let mut col = Vec::new();
    fft2_in_place_scratch(data, nx, ny, &mut col);
}

/// In-place 2-D FFT of a row-major `ny × nx` array (`data[iy * nx + ix]`)
/// with a caller-owned column scratch (grown to `ny` on first use), so
/// repeated transforms perform no allocation — the per-step path of the
/// 2-D spectral Poisson solver.
pub fn fft2_in_place_scratch(
    data: &mut [Complex64],
    nx: usize,
    ny: usize,
    col: &mut Vec<Complex64>,
) {
    check_dims(data.len(), nx, ny);
    // Rows are contiguous.
    for row in data.chunks_exact_mut(nx) {
        fft_in_place(row);
    }
    transform_columns(data, nx, ny, fft_in_place, col);
}

/// In-place inverse 2-D FFT (normalized so that `ifft2(fft2(a)) == a`).
///
/// # Panics
/// Panics on dimension mismatch or non-power-of-two sizes.
#[cfg(test)]
fn ifft2_in_place(data: &mut [Complex64], nx: usize, ny: usize) {
    let mut col = Vec::new();
    ifft2_in_place_scratch(data, nx, ny, &mut col);
}

/// In-place inverse 2-D FFT (normalized so that it inverts
/// [`fft2_in_place_scratch`]), with a caller-owned column scratch.
pub fn ifft2_in_place_scratch(
    data: &mut [Complex64],
    nx: usize,
    ny: usize,
    col: &mut Vec<Complex64>,
) {
    check_dims(data.len(), nx, ny);
    for row in data.chunks_exact_mut(nx) {
        ifft_in_place(row);
    }
    transform_columns(data, nx, ny, ifft_in_place, col);
}

/// Forward 2-D DFT of a real row-major array.
#[cfg(test)]
fn rdft2(signal: &[f64], nx: usize, ny: usize) -> Vec<Complex64> {
    check_dims(signal.len(), nx, ny);
    let mut data: Vec<Complex64> = signal.iter().map(|&v| Complex64::new(v, 0.0)).collect();
    fft2_in_place(&mut data, nx, ny);
    data
}

/// Amplitude of the real-signal mode `(mx, my)`: the coefficient of
/// `exp(i·2π(mx·x/Lx + my·y/Ly))` plus its conjugate partner, i.e.
/// `2·|F[my·nx + mx]| / (nx·ny)` for any mode other than the mean
/// (and Nyquist pairs), `|F|/(nx·ny)` for the mean.
///
/// # Panics
/// Panics on dimension mismatch or out-of-range mode indices.
pub fn mode_amplitude2(signal: &[f64], nx: usize, ny: usize, mx: usize, my: usize) -> f64 {
    assert!(mx < nx, "mx {mx} out of range for nx {nx}");
    assert!(my < ny, "my {my} out of range for ny {ny}");
    let norm = (nx * ny) as f64;
    let coeff = single_mode_dft2(signal, nx, ny, mx, my).abs() / norm;
    // The conjugate of mode (mx,my) of a real signal sits at
    // (nx-mx, ny-my); when the mode is its own conjugate (mean or a
    // Nyquist pairing) the coefficient is already the full amplitude.
    let self_conjugate = (mx == 0 || 2 * mx == nx) && (my == 0 || 2 * my == ny);
    if self_conjugate {
        coeff
    } else {
        2.0 * coeff
    }
}

/// Single 2-D DFT bin `F[my·nx + mx] = Σ_y Σ_x f·exp(-2πi(mx·x/nx + my·y/ny))`
/// of a real row-major array — O(nx·ny), allocation-free. Each row is
/// reduced with the 1-D Goertzel projection, then the per-row bins are
/// combined with the y-phase. This is what the per-step 2-D mode
/// diagnostics use instead of a full transform.
///
/// # Panics
/// Panics when `signal.len() != nx * ny` (any sizes are accepted — no
/// power-of-two requirement).
fn single_mode_dft2(signal: &[f64], nx: usize, ny: usize, mx: usize, my: usize) -> Complex64 {
    assert_eq!(signal.len(), nx * ny, "array length != {nx}×{ny}");
    let omega_y = 2.0 * std::f64::consts::PI * my as f64 / ny as f64;
    let mut acc = Complex64::ZERO;
    for (iy, row) in signal.chunks_exact(nx).enumerate() {
        let row_bin = crate::dft::single_mode_dft(row, mx);
        let (sin_y, cos_y) = (omega_y * iy as f64).sin_cos();
        acc += row_bin * Complex64::new(cos_y, -sin_y);
    }
    acc
}

fn check_dims(len: usize, nx: usize, ny: usize) {
    assert_eq!(len, nx * ny, "array length {len} != {nx}×{ny}");
    assert!(is_power_of_two(nx), "nx = {nx} must be a power of two");
    assert!(is_power_of_two(ny), "ny = {ny} must be a power of two");
}

/// Applies a 1-D in-place transform to every column via the caller's
/// scratch buffer (resized to `ny`; no allocation once warm).
fn transform_columns(
    data: &mut [Complex64],
    nx: usize,
    ny: usize,
    f: fn(&mut [Complex64]),
    col: &mut Vec<Complex64>,
) {
    col.clear();
    col.resize(ny, Complex64::ZERO);
    for ix in 0..nx {
        for iy in 0..ny {
            col[iy] = data[iy * nx + ix];
        }
        f(col);
        for iy in 0..ny {
            data[iy * nx + ix] = col[iy];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::f64::consts::PI;

    #[test]
    fn fft2_of_constant_is_dc_only() {
        let nx = 8;
        let ny = 4;
        let mut data = vec![Complex64::new(3.0, 0.0); nx * ny];
        fft2_in_place(&mut data, nx, ny);
        assert!((data[0].re - 3.0 * (nx * ny) as f64).abs() < 1e-9);
        for (i, v) in data.iter().enumerate().skip(1) {
            assert!(v.abs() < 1e-9, "bin {i}: {v:?}");
        }
    }

    #[test]
    fn round_trip_recovers_signal() {
        let nx = 16;
        let ny = 8;
        let signal: Vec<f64> = (0..nx * ny)
            .map(|i| ((i * 37 + 11) % 101) as f64 / 101.0 - 0.5)
            .collect();
        let mut data: Vec<Complex64> = signal.iter().map(|&v| Complex64::new(v, 0.0)).collect();
        fft2_in_place(&mut data, nx, ny);
        ifft2_in_place(&mut data, nx, ny);
        for (orig, back) in signal.iter().zip(&data) {
            assert!((orig - back.re).abs() < 1e-10);
            assert!(back.im.abs() < 1e-10);
        }
    }

    #[test]
    fn planted_plane_wave_lands_in_single_bin() {
        let nx = 16;
        let ny = 16;
        let (mx, my) = (3, 5);
        let signal: Vec<f64> = (0..nx * ny)
            .map(|i| {
                let (ix, iy) = (i % nx, i / nx);
                (2.0 * PI * (mx * ix) as f64 / nx as f64 + 2.0 * PI * (my * iy) as f64 / ny as f64)
                    .cos()
            })
            .collect();
        let amp = mode_amplitude2(&signal, nx, ny, mx, my);
        assert!((amp - 1.0).abs() < 1e-9, "amplitude {amp}");
        // An untouched mode stays empty.
        assert!(mode_amplitude2(&signal, nx, ny, 1, 0) < 1e-9);
    }

    #[test]
    fn mode_amplitude_of_mean_is_unscaled() {
        let signal = vec![2.5; 8 * 8];
        assert!((mode_amplitude2(&signal, 8, 8, 0, 0) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn separable_modes_in_x_match_1d_result() {
        // A y-independent signal: every row identical. The (m, 0)
        // amplitude must equal the 1-D mode amplitude of one row.
        let nx = 32;
        let ny = 8;
        let row: Vec<f64> = (0..nx)
            .map(|ix| 0.07 * (2.0 * PI * 2.0 * ix as f64 / nx as f64).sin())
            .collect();
        let mut signal = Vec::with_capacity(nx * ny);
        for _ in 0..ny {
            signal.extend_from_slice(&row);
        }
        let amp2 = mode_amplitude2(&signal, nx, ny, 2, 0);
        let amp1 = crate::dft::mode_amplitude(&row, 2);
        assert!((amp2 - amp1).abs() < 1e-12, "{amp2} vs {amp1}");
        assert!((amp2 - 0.07).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let mut data = vec![Complex64::ZERO; 12];
        fft2_in_place(&mut data, 3, 4);
    }

    #[test]
    fn single_bin_matches_full_transform() {
        let (nx, ny) = (16, 8);
        let signal: Vec<f64> = (0..nx * ny)
            .map(|i| ((i * 53 + 17) % 97) as f64 / 97.0 - 0.5)
            .collect();
        let spec = rdft2(&signal, nx, ny);
        for my in 0..ny {
            for mx in 0..nx {
                let bin = single_mode_dft2(&signal, nx, ny, mx, my);
                let full = spec[my * nx + mx];
                assert!(
                    (bin - full).abs() < 1e-9,
                    "({mx},{my}): {bin:?} vs {full:?}"
                );
            }
        }
    }

    #[test]
    fn single_bin_works_on_non_power_of_two_grids() {
        // The projection has no power-of-two requirement, unlike the FFT.
        let (nx, ny) = (12, 6);
        let signal: Vec<f64> = (0..nx * ny).map(|i| (i as f64 * 0.7).cos()).collect();
        let input: Vec<Complex64> = signal.iter().map(|&v| Complex64::new(v, 0.0)).collect();
        // Oracle: naive 2-D DFT assembled from row DFTs.
        let (mx, my) = (5, 2);
        let mut oracle = Complex64::ZERO;
        for iy in 0..ny {
            let row = &input[iy * nx..(iy + 1) * nx];
            let row_dft = crate::dft::dft_naive(row);
            let ang = -2.0 * PI * (my * iy) as f64 / ny as f64;
            oracle += row_dft[mx] * Complex64::from_polar(1.0, ang);
        }
        let bin = single_mode_dft2(&signal, nx, ny, mx, my);
        assert!((bin - oracle).abs() < 1e-9, "{bin:?} vs {oracle:?}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn parseval_holds_in_2d(values in proptest::collection::vec(-1.0f64..1.0, 64)) {
            let (nx, ny) = (8, 8);
            let time_energy: f64 = values.iter().map(|v| v * v).sum();
            let spec = rdft2(&values, nx, ny);
            let freq_energy: f64 =
                spec.iter().map(|c| c.norm_sqr()).sum::<f64>() / (nx * ny) as f64;
            prop_assert!((time_energy - freq_energy).abs() < 1e-8 * (1.0 + time_energy));
        }

        #[test]
        fn linearity(a in proptest::collection::vec(-1.0f64..1.0, 32),
                     b in proptest::collection::vec(-1.0f64..1.0, 32)) {
            let (nx, ny) = (8, 4);
            let sum: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
            let fa = rdft2(&a, nx, ny);
            let fb = rdft2(&b, nx, ny);
            let fs = rdft2(&sum, nx, ny);
            for i in 0..nx * ny {
                let lhs = fs[i];
                let rhs = fa[i] + fb[i];
                prop_assert!((lhs - rhs).abs() < 1e-9);
            }
        }
    }
}
