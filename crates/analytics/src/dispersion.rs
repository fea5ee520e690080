//! Linear theory of the two-stream instability.
//!
//! The paper validates the DL-based PIC against "the growth rate of the most
//! unstable mode in the two-stream instability in the cold-beam `v0 >> vth`
//! approximation" (Fig. 4, solid line). This module computes that growth
//! rate from the kinetic dispersion relation.
//!
//! For two symmetric counter-streaming cold electron beams, each carrying
//! half the density (so each has beam plasma frequency `ω_b² = ω_p²/2`), the
//! electrostatic dispersion relation is
//!
//! ```text
//! 1 = (ω_p²/2) / (ω - k·v0)²  +  (ω_p²/2) / (ω + k·v0)²
//! ```
//!
//! In the normalized units of the reproduction (`ω_p = 1`), substituting
//! `u = ω²`, `s = (k·v0)²` reduces it to a quadratic in `u`:
//!
//! ```text
//! u² - (2s + 1)·u + (s² - s) = 0
//! u± = [(2s + 1) ± sqrt(8s + 1)] / 2
//! ```
//!
//! The minus branch goes negative — i.e. `ω` becomes purely imaginary and
//! the mode grows — exactly when `0 < s < 1`, so the instability condition
//! is `k·v0 < ω_p`. The growth rate is `γ = sqrt(-u₋)`, maximized at
//! `s = 3/8` where `γ_max = ω_p / (2√2) ≈ 0.35355`.
//!
//! The paper's box `L = 2π/3.06` with `v0 = 0.2` puts mode 1 at
//! `k·v0 = 0.612 ≈ sqrt(3/8)` — the fastest-growing wavenumber — and the
//! cold-beam run `v0 = 0.4` at `k·v0 = 1.224 > 1`, which is linearly
//! *stable* (anything growing there is a numerical artifact; paper Fig. 6).
//!
//! The tests cross-check the closed form against a general N-beam solver
//! based on polynomial root finding (Durand–Kerner).

/// Dispersion relation for two symmetric counter-streaming cold beams with
/// total plasma frequency `ω_p = 1`.
#[derive(Debug, Clone, Copy)]
pub struct TwoStreamDispersion {
    /// Beam drift speed (each beam at ±v0).
    pub v0: f64,
}

impl TwoStreamDispersion {
    /// Creates the dispersion relation for beams at ±`v0`.
    ///
    /// # Panics
    /// Panics if `v0` is not finite and strictly positive.
    pub fn new(v0: f64) -> Self {
        assert!(v0.is_finite() && v0 > 0.0, "v0 must be positive, got {v0}");
        Self { v0 }
    }

    /// The `-` branch `u₋ = ω²` of the reduced dispersion relation at
    /// wavenumber `k`; negative values mean instability with
    /// `γ = sqrt(-u₋)`.
    fn u_minus(&self, k: f64) -> f64 {
        let s = (k * self.v0).powi(2);
        (2.0 * s + 1.0 - (8.0 * s + 1.0).sqrt()) / 2.0
    }

    /// Linear growth rate `γ(k)`; zero for stable wavenumbers.
    pub fn growth_rate(&self, k: f64) -> f64 {
        let u = self.u_minus(k);
        if u < 0.0 {
            (-u).sqrt()
        } else {
            0.0
        }
    }

    /// Growth rate of grid mode `m` in a periodic box of length `box_len`
    /// (`k_m = 2π·m/L`). Mode 1 with the paper's box is the headline number.
    pub fn mode_growth_rate(&self, mode: usize, box_len: f64) -> f64 {
        let k = 2.0 * std::f64::consts::PI * mode as f64 / box_len;
        self.growth_rate(k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::Complex64;
    use proptest::prelude::*;

    /// The closed form's other landmarks, checked below against the
    /// growth rate and the general multi-beam solver.
    impl TwoStreamDispersion {
        /// Real oscillation frequency of the stable branch at `k`.
        fn stable_frequency(&self, k: f64) -> f64 {
            let s = (k * self.v0).powi(2);
            ((2.0 * s + 1.0 + (8.0 * s + 1.0).sqrt()) / 2.0).sqrt()
        }

        /// True if wavenumber `k` is linearly unstable (`k·v0 < ω_p`).
        fn is_unstable(&self, k: f64) -> bool {
            let kv = (k * self.v0).abs();
            kv > 0.0 && kv < 1.0
        }

        /// The instability band `(0, k_cutoff)`: modes with `k < 1/v0` grow.
        fn unstable_band(&self) -> (f64, f64) {
            (0.0, 1.0 / self.v0)
        }

        /// The fastest-growing wavenumber and its growth rate:
        /// `k_max = sqrt(3/8)/v0`, `γ_max = 1/(2√2)`.
        fn most_unstable(&self) -> (f64, f64) {
            ((3.0f64 / 8.0).sqrt() / self.v0, 0.125f64.sqrt())
        }
    }

    // General multi-beam dispersion via polynomial root finding: the
    // independent cross-check of the closed form.

    /// A cold beam population: fractional density weight (so that weights sum to
    /// 1 for total `ω_p = 1`) and drift velocity.
    #[derive(Debug, Clone, Copy)]
    struct Beam {
        /// Density fraction (`ω_b² = weight · ω_p²`).
        pub weight: f64,
        /// Drift velocity.
        pub velocity: f64,
    }

    /// Real-coefficient polynomial, ascending order (`coeffs[i]·x^i`).
    #[derive(Debug, Clone, PartialEq)]
    struct Poly(pub Vec<f64>);

    impl Poly {
        /// The constant polynomial `c`.
        fn constant(c: f64) -> Self {
            Poly(vec![c])
        }

        /// The monic linear factor `x - r`.
        fn linear(r: f64) -> Self {
            Poly(vec![-r, 1.0])
        }

        /// Polynomial product.
        pub fn mul(&self, other: &Poly) -> Poly {
            let mut out = vec![0.0; self.0.len() + other.0.len() - 1];
            for (i, &a) in self.0.iter().enumerate() {
                for (j, &b) in other.0.iter().enumerate() {
                    out[i + j] += a * b;
                }
            }
            Poly(out)
        }

        /// Polynomial difference `self - other`.
        pub fn sub(&self, other: &Poly) -> Poly {
            let n = self.0.len().max(other.0.len());
            let mut out = vec![0.0; n];
            for (i, o) in out.iter_mut().enumerate() {
                let a = self.0.get(i).copied().unwrap_or(0.0);
                let b = other.0.get(i).copied().unwrap_or(0.0);
                *o = a - b;
            }
            Poly(out)
        }

        /// Scales all coefficients.
        pub fn scale(&self, s: f64) -> Poly {
            Poly(self.0.iter().map(|c| c * s).collect())
        }

        /// Evaluates at a complex point (Horner).
        pub fn eval(&self, z: Complex64) -> Complex64 {
            let mut acc = Complex64::ZERO;
            for &c in self.0.iter().rev() {
                acc = acc * z + Complex64::from_real(c);
            }
            acc
        }

        /// All complex roots by the Durand–Kerner (Weierstrass) iteration.
        ///
        /// Robust enough for the low-degree, well-scaled polynomials produced by
        /// dispersion relations. Returns `degree` roots.
        ///
        /// # Panics
        /// Panics if the leading coefficient is (numerically) zero.
        fn roots(&self) -> Vec<Complex64> {
            let mut coeffs = self.0.clone();
            while coeffs.len() > 1 && coeffs.last().copied().unwrap_or(0.0).abs() < 1e-300 {
                coeffs.pop();
            }
            let n = coeffs.len() - 1;
            if n == 0 {
                return Vec::new();
            }
            let lead = *coeffs.last().expect("nonempty");
            assert!(lead.abs() > 0.0, "zero polynomial has no roots");
            let monic: Vec<f64> = coeffs.iter().map(|c| c / lead).collect();
            let poly = Poly(monic.clone());

            // Radius bound: 1 + max |a_i| (Cauchy bound for monic polynomials).
            let radius = 1.0 + monic[..n].iter().fold(0.0f64, |acc, c| acc.max(c.abs()));

            // Start from non-real, non-symmetric seeds inside the root bound.
            let seed = Complex64::new(0.4, 0.9);
            let mut roots: Vec<Complex64> = (0..n)
                .map(|i| seed.powi(i as i32 + 1) * radius * 0.5)
                .collect();

            for _ in 0..400 {
                let mut max_step = 0.0f64;
                for i in 0..n {
                    let mut denom = Complex64::ONE;
                    for j in 0..n {
                        if i != j {
                            denom *= roots[i] - roots[j];
                        }
                    }
                    let step = poly.eval(roots[i]) / denom;
                    roots[i] -= step;
                    max_step = max_step.max(step.abs());
                }
                if max_step < 1e-13 {
                    break;
                }
            }
            roots
        }
    }

    /// Builds the dispersion polynomial `Π_b (ω - k·v_b)² - Σ_b w_b·Π_{c≠b}(ω - k·v_c)²`
    /// whose roots are the mode frequencies of an arbitrary set of cold beams.
    fn dispersion_polynomial(beams: &[Beam], k: f64) -> Poly {
        assert!(!beams.is_empty(), "need at least one beam");
        // Π over all beams of (ω - k v_b)².
        let mut full = Poly::constant(1.0);
        for b in beams {
            let lin = Poly::linear(k * b.velocity);
            full = full.mul(&lin).mul(&lin);
        }
        // Σ_b w_b Π_{c≠b} (ω - k v_c)².
        let mut rhs = Poly::constant(0.0);
        for (i, b) in beams.iter().enumerate() {
            let mut partial = Poly::constant(b.weight);
            for (j, c) in beams.iter().enumerate() {
                if i != j {
                    let lin = Poly::linear(k * c.velocity);
                    partial = partial.mul(&lin).mul(&lin);
                }
            }
            rhs = rhs.sub(&partial.scale(-1.0)); // rhs += partial
        }
        full.sub(&rhs)
    }

    /// Growth rate of an arbitrary cold multi-beam system at wavenumber `k`:
    /// the largest imaginary part over all roots of the dispersion polynomial.
    fn multi_beam_growth_rate(beams: &[Beam], k: f64) -> f64 {
        let poly = dispersion_polynomial(beams, k);
        poly.roots()
            .iter()
            .map(|r| r.im)
            .fold(0.0f64, f64::max)
            .max(0.0)
    }

    const GAMMA_MAX: f64 = 0.353_553_390_593_273_8; // 1/(2*sqrt(2))

    #[test]
    fn max_growth_is_gamma_max() {
        let d = TwoStreamDispersion::new(0.2);
        let (k_max, g_max) = d.most_unstable();
        assert!((g_max - GAMMA_MAX).abs() < 1e-12);
        assert!((d.growth_rate(k_max) - GAMMA_MAX).abs() < 1e-12);
        // Nearby wavenumbers grow strictly slower.
        assert!(d.growth_rate(k_max * 1.05) < g_max);
        assert!(d.growth_rate(k_max * 0.95) < g_max);
    }

    #[test]
    fn paper_box_mode_one_is_nearly_fastest_growing() {
        // L = 2π/3.06 so mode 1 has k = 3.06; with v0 = 0.2, k·v0 = 0.612.
        let d = TwoStreamDispersion::new(0.2);
        let box_len = 2.0 * std::f64::consts::PI / 3.06;
        let gamma = d.mode_growth_rate(1, box_len);
        assert!(
            (gamma - GAMMA_MAX).abs() < 1e-4,
            "paper box should sit at the optimum: γ = {gamma}"
        );
    }

    #[test]
    fn cold_beam_configuration_is_linearly_stable() {
        // Fig. 6 premise: v0 = 0.4 puts every grid mode at k·v0 ≥ 1.224 > 1.
        let d = TwoStreamDispersion::new(0.4);
        let box_len = 2.0 * std::f64::consts::PI / 3.06;
        for mode in 1..=32 {
            assert_eq!(d.mode_growth_rate(mode, box_len), 0.0, "mode {mode}");
        }
    }

    #[test]
    fn instability_band_boundary() {
        let d = TwoStreamDispersion::new(0.5);
        let (lo, hi) = d.unstable_band();
        assert_eq!(lo, 0.0);
        assert!((hi - 2.0).abs() < 1e-12);
        assert!(d.is_unstable(1.9));
        assert!(!d.is_unstable(2.0));
        assert!(!d.is_unstable(2.1));
    }

    #[test]
    fn stable_branch_reduces_to_langmuir_at_k_zero() {
        let d = TwoStreamDispersion::new(0.2);
        // k → 0: both beams look like a single plasma: ω = ω_p = 1.
        assert!((d.stable_frequency(1e-9) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn durand_kerner_finds_known_roots() {
        // (x-1)(x+2)(x² + 4) = 0 → roots 1, -2, ±2i.
        let p = Poly::linear(1.0)
            .mul(&Poly::linear(-2.0))
            .mul(&Poly(vec![4.0, 0.0, 1.0]));
        let roots = p.roots();
        assert_eq!(roots.len(), 4);
        let expect = [
            Complex64::new(-2.0, 0.0),
            Complex64::new(0.0, -2.0),
            Complex64::new(0.0, 2.0),
            Complex64::new(1.0, 0.0),
        ];
        // Match as sets: every expected root has exactly one close match.
        for e in &expect {
            let hits = roots.iter().filter(|r| (**r - *e).abs() < 1e-8).count();
            assert_eq!(hits, 1, "expected root {e:?} not found once in {roots:?}");
        }
    }

    #[test]
    fn multi_beam_matches_closed_form_at_paper_point() {
        let beams = [
            Beam {
                weight: 0.5,
                velocity: 0.2,
            },
            Beam {
                weight: 0.5,
                velocity: -0.2,
            },
        ];
        let k = 3.06;
        let general = multi_beam_growth_rate(&beams, k);
        let closed = TwoStreamDispersion::new(0.2).growth_rate(k);
        assert!((general - closed).abs() < 1e-8, "{general} vs {closed}");
    }

    #[test]
    fn single_beam_is_stable_doppler_shifted_langmuir() {
        let beams = [Beam {
            weight: 1.0,
            velocity: 0.3,
        }];
        assert_eq!(multi_beam_growth_rate(&beams, 2.0), 0.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        #[test]
        fn general_solver_matches_closed_form(v0 in 0.05f64..0.5, k in 0.2f64..8.0) {
            let beams = [
                Beam { weight: 0.5, velocity: v0 },
                Beam { weight: 0.5, velocity: -v0 },
            ];
            let general = multi_beam_growth_rate(&beams, k);
            let closed = TwoStreamDispersion::new(v0).growth_rate(k);
            prop_assert!((general - closed).abs() < 1e-6,
                "v0={v0} k={k}: general={general} closed={closed}");
        }

        #[test]
        fn growth_rate_bounded_by_gamma_max(v0 in 0.05f64..0.5, k in 0.0f64..20.0) {
            let g = TwoStreamDispersion::new(v0).growth_rate(k);
            prop_assert!(g <= GAMMA_MAX + 1e-12);
            prop_assert!(g >= 0.0);
        }

        #[test]
        fn roots_satisfy_polynomial(r1 in -3.0f64..3.0, r2 in -3.0f64..3.0, r3 in -3.0f64..3.0) {
            let p = Poly::linear(r1).mul(&Poly::linear(r2)).mul(&Poly::linear(r3));
            for root in p.roots() {
                prop_assert!(p.eval(root).abs() < 1e-6);
            }
        }
    }
}
