//! Growth-rate extraction from simulated mode-amplitude histories.
//!
//! Fig. 4 (bottom) of the paper overlays the measured `E1(t)` of the
//! traditional and DL-based PIC runs on the analytical growth-rate slope.
//! To *quantify* that comparison (rather than eyeball it), this module fits
//! `log E1` against time over the exponential-growth window, which it
//! selects automatically: after the noise floor, before saturation.

/// Why a fit could not be produced.
///
/// The legacy `Option`-returning entry points collapse all of these to
/// `None` (and panicked on length mismatches); the `try_*` variants
/// return the reason so callers — the `dlpic_repro::engine` API in
/// particular — can surface it instead of panicking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FitError {
    /// `xs` and `ys` have different lengths.
    LengthMismatch {
        /// Number of abscissa points.
        xs: usize,
        /// Number of ordinate points.
        ys: usize,
    },
    /// Fewer usable points than the fit requires.
    TooFewPoints {
        /// Points available.
        have: usize,
        /// Points required.
        need: usize,
    },
    /// All abscissa values coincide; the slope is undefined.
    DegenerateAbscissa,
    /// No positive amplitude anywhere — nothing to fit in the log domain.
    NoPositiveAmplitude,
    /// The amplitude never reached the saturation threshold; no credible
    /// growth phase exists (e.g. a stable run at the noise floor).
    NoGrowthPhase,
}

impl std::fmt::Display for FitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::LengthMismatch { xs, ys } => {
                write!(f, "x/y length mismatch: {xs} vs {ys}")
            }
            Self::TooFewPoints { have, need } => {
                write!(f, "too few points for a fit: have {have}, need {need}")
            }
            Self::DegenerateAbscissa => write!(f, "all x values coincide"),
            Self::NoPositiveAmplitude => write!(f, "no positive amplitude to fit"),
            Self::NoGrowthPhase => write!(f, "no growth phase detected"),
        }
    }
}

impl std::error::Error for FitError {}

/// Ordinary least-squares line fit.
#[derive(Debug, Clone, Copy, PartialEq)]
struct LinFit {
    /// Slope of the fitted line.
    pub slope: f64,
    /// Intercept of the fitted line.
    pub intercept: f64,
    /// Coefficient of determination in `[0, 1]`.
    pub r2: f64,
}

/// Fits `y = slope·x + intercept` by least squares.
///
/// Returns `None` on any [`FitError`]; use [`try_linear_fit`] for the
/// reason.
#[cfg(test)]
fn linear_fit(xs: &[f64], ys: &[f64]) -> Option<LinFit> {
    try_linear_fit(xs, ys).ok()
}

/// Fits `y = slope·x + intercept` by least squares, reporting failures.
fn try_linear_fit(xs: &[f64], ys: &[f64]) -> Result<LinFit, FitError> {
    if xs.len() != ys.len() {
        return Err(FitError::LengthMismatch {
            xs: xs.len(),
            ys: ys.len(),
        });
    }
    let n = xs.len();
    if n < 2 {
        return Err(FitError::TooFewPoints { have: n, need: 2 });
    }
    let nf = n as f64;
    let mx = xs.iter().sum::<f64>() / nf;
    let my = ys.iter().sum::<f64>() / nf;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    let mut syy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        sxx += (x - mx) * (x - mx);
        sxy += (x - mx) * (y - my);
        syy += (y - my) * (y - my);
    }
    if sxx == 0.0 {
        return Err(FitError::DegenerateAbscissa);
    }
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    let r2 = if syy == 0.0 {
        1.0
    } else {
        (sxy * sxy) / (sxx * syy)
    };
    Ok(LinFit {
        slope,
        intercept,
        r2,
    })
}

/// Options for the automatic growth-window selection.
#[derive(Debug, Clone, Copy)]
pub struct GrowthFitOptions {
    /// Lower amplitude threshold as a fraction of the peak amplitude; points
    /// below it are considered noise floor.
    pub lo_frac: f64,
    /// Upper amplitude threshold as a fraction of the peak; points above it
    /// are considered saturated.
    pub hi_frac: f64,
    /// Minimum number of points required for a fit.
    pub min_points: usize,
}

impl Default for GrowthFitOptions {
    fn default() -> Self {
        Self {
            lo_frac: 0.02,
            hi_frac: 0.5,
            min_points: 5,
        }
    }
}

/// Result of fitting an exponential-growth phase.
#[derive(Debug, Clone, Copy)]
pub struct GrowthFit {
    /// Fitted growth rate (slope of `log amplitude` vs time).
    pub gamma: f64,
    /// Fitted intercept (`log amplitude` at `t = 0`).
    pub log_intercept: f64,
    /// Goodness of fit on the selected window.
    pub r2: f64,
    /// Start time of the window used.
    pub t_start: f64,
    /// End time of the window used.
    pub t_end: f64,
    /// Number of points in the window.
    pub n_points: usize,
}

impl GrowthFit {
    /// Evaluates the fitted exponential at time `t`.
    #[cfg(test)]
    fn amplitude_at(&self, t: f64) -> f64 {
        (self.log_intercept + self.gamma * t).exp()
    }
}

/// Fits the exponential-growth phase of an amplitude history.
///
/// The window is the contiguous run of samples *ending at the first point
/// that exceeds `hi_frac·peak`* and starting at the last point before it
/// that is below `lo_frac·peak`. Non-positive amplitudes are excluded
/// (log-domain fit).
///
/// Returns `None` when no credible growth phase exists — e.g. a stable run
/// whose amplitude stays at the noise floor. Use [`try_fit_growth_rate`]
/// for the reason.
pub fn fit_growth_rate(times: &[f64], amps: &[f64], opts: GrowthFitOptions) -> Option<GrowthFit> {
    try_fit_growth_rate(times, amps, opts).ok()
}

/// Fits the exponential-growth phase, reporting failures (see
/// [`fit_growth_rate`] for the window-selection procedure).
pub fn try_fit_growth_rate(
    times: &[f64],
    amps: &[f64],
    opts: GrowthFitOptions,
) -> Result<GrowthFit, FitError> {
    if times.len() != amps.len() {
        return Err(FitError::LengthMismatch {
            xs: times.len(),
            ys: amps.len(),
        });
    }
    let peak = amps.iter().copied().fold(f64::MIN, f64::max);
    // NaN-rejecting form: `peak <= 0.0` would accept NaN.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    if !(peak > 0.0) {
        return Err(FitError::NoPositiveAmplitude);
    }
    let lo = peak * opts.lo_frac;
    let hi = peak * opts.hi_frac;

    // First crossing of the saturation threshold.
    let end = amps
        .iter()
        .position(|&a| a >= hi)
        .ok_or(FitError::NoGrowthPhase)?;
    // Walk backwards to the last sub-floor sample before `end`.
    let mut start = 0;
    for i in (0..end).rev() {
        if amps[i] <= lo {
            start = i + 1;
            break;
        }
    }
    // Collect the log-domain points.
    let mut xs = Vec::with_capacity(end - start + 1);
    let mut ys = Vec::with_capacity(end - start + 1);
    for i in start..=end {
        if amps[i] > 0.0 {
            xs.push(times[i]);
            ys.push(amps[i].ln());
        }
    }
    if xs.len() < opts.min_points {
        return Err(FitError::TooFewPoints {
            have: xs.len(),
            need: opts.min_points,
        });
    }
    let fit = try_linear_fit(&xs, &ys)?;
    Ok(GrowthFit {
        gamma: fit.slope,
        log_intercept: fit.intercept,
        r2: fit.r2,
        t_start: *xs.first().expect("nonempty"),
        t_end: *xs.last().expect("nonempty"),
        n_points: xs.len(),
    })
}

/// The envelope of a damped oscillation, as [`fit_damping`] measures it.
#[derive(Debug, Clone, Copy)]
pub struct DampingFit {
    /// Damping rate: the slope of `log` peak amplitude against time
    /// (negative for a damped wave).
    pub gamma: f64,
    /// Angular frequency, `π /` the mean peak spacing (`|E|` peaks twice
    /// per period).
    pub omega: f64,
    /// Envelope peaks the fit used.
    pub n_peaks: usize,
}

/// Envelope peaks [`fit_damping`] skips: the initial perturbation is not a
/// pure eigenmode, and its ballistic transient decays faster than the
/// least-damped root.
const DAMPING_SKIP: usize = 3;
/// Most peaks [`fit_damping`] uses after the skipped ones, so the fit
/// stops before the numerical floor.
const DAMPING_PEAKS: usize = 10;
/// Fewest peaks [`fit_damping`] needs after the skipped ones.
const DAMPING_MIN_PEAKS: usize = 5;

/// Fits the envelope of a damped oscillation `|E|(t) ≈ A·e^{γt}·|cos(ωt)|`
/// (Landau damping's mode-1 history): the local maxima above `1e-12`
/// are the envelope; after the first three, up to ten of them give `γ`
/// as the least-squares slope of their logarithm against time and `ω`
/// from their mean spacing.
///
/// Fewer than eight peaks is [`FitError::TooFewPoints`].
pub fn fit_damping(times: &[f64], amps: &[f64]) -> Result<DampingFit, FitError> {
    if times.len() != amps.len() {
        return Err(FitError::LengthMismatch {
            xs: times.len(),
            ys: amps.len(),
        });
    }
    let peaks: Vec<(f64, f64)> = (1..amps.len().saturating_sub(1))
        .filter(|&i| amps[i] > amps[i - 1] && amps[i] >= amps[i + 1] && amps[i] > 1e-12)
        .map(|i| (times[i], amps[i].ln()))
        .collect();
    let need = DAMPING_SKIP + DAMPING_MIN_PEAKS;
    if peaks.len() < need {
        return Err(FitError::TooFewPoints {
            have: peaks.len(),
            need,
        });
    }
    let used = &peaks[DAMPING_SKIP..peaks.len().min(DAMPING_SKIP + DAMPING_PEAKS)];
    let (ts, logs): (Vec<f64>, Vec<f64>) = used.iter().copied().unzip();
    let line = try_linear_fit(&ts, &logs)?;
    let spacing = (ts[ts.len() - 1] - ts[0]) / (ts.len() - 1) as f64;
    Ok(DampingFit {
        gamma: line.slope,
        omega: std::f64::consts::PI / spacing,
        n_peaks: used.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn exact_line_recovered() {
        let xs: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x - 1.5).collect();
        let f = linear_fit(&xs, &ys).unwrap();
        assert!((f.slope - 3.0).abs() < 1e-12);
        assert!((f.intercept + 1.5).abs() < 1e-12);
        assert!((f.r2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_inputs_rejected() {
        assert!(linear_fit(&[1.0], &[2.0]).is_none());
        assert!(linear_fit(&[2.0, 2.0, 2.0], &[1.0, 2.0, 3.0]).is_none());
        assert!(linear_fit(&[], &[]).is_none());
    }

    #[test]
    fn try_variants_report_the_reason() {
        assert_eq!(
            try_linear_fit(&[1.0], &[1.0, 2.0]),
            Err(FitError::LengthMismatch { xs: 1, ys: 2 })
        );
        assert_eq!(
            try_linear_fit(&[1.0], &[2.0]),
            Err(FitError::TooFewPoints { have: 1, need: 2 })
        );
        assert_eq!(
            try_linear_fit(&[2.0, 2.0, 2.0], &[1.0, 2.0, 3.0]),
            Err(FitError::DegenerateAbscissa)
        );
        let opts = GrowthFitOptions::default();
        assert_eq!(
            try_fit_growth_rate(&[0.0, 1.0], &[0.0, 0.0], opts).err(),
            Some(FitError::NoPositiveAmplitude)
        );
        assert_eq!(
            try_fit_growth_rate(&[0.0], &[1.0, 2.0], opts).err(),
            Some(FitError::LengthMismatch { xs: 1, ys: 2 })
        );
    }

    #[test]
    fn r2_decreases_with_noise() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64 * 0.1).collect();
        let clean: Vec<f64> = xs.iter().map(|x| 2.0 * x).collect();
        // Deterministic pseudo-noise.
        let noisy: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| 2.0 * x + ((i * 2654435761) % 1000) as f64 / 500.0 - 1.0)
            .collect();
        let fc = linear_fit(&xs, &clean).unwrap();
        let fnz = linear_fit(&xs, &noisy).unwrap();
        assert!(fc.r2 > fnz.r2);
        assert!((fnz.slope - 2.0).abs() < 0.3);
    }

    /// Synthetic instability: noise floor, exponential growth, logistic
    /// saturation — the canonical shape of `E1(t)` in a two-stream run.
    fn synthetic_instability(gamma: f64, floor: f64, sat: f64) -> (Vec<f64>, Vec<f64>) {
        let a0 = floor;
        let times: Vec<f64> = (0..200).map(|i| i as f64 * 0.2).collect();
        let amps: Vec<f64> = times
            .iter()
            .map(|&t| {
                let raw = a0 * (gamma * t).exp();
                // Sharp-kneed saturation at `sat` (p = 4 generalized
                // logistic) plus a small constant floor: exponential until
                // very close to the peak, like a real instability trace.
                let r = raw / sat;
                sat * r / (1.0 + r.powi(4)).powf(0.25) + floor * 0.3
            })
            .collect();
        (times, amps)
    }

    #[test]
    fn recovers_growth_rate_from_synthetic_history() {
        let gamma = 0.3536;
        let (t, a) = synthetic_instability(gamma, 1e-4, 0.1);
        let fit = fit_growth_rate(&t, &a, GrowthFitOptions::default()).unwrap();
        assert!(
            (fit.gamma - gamma).abs() / gamma < 0.05,
            "fit {} vs true {gamma}",
            fit.gamma
        );
        assert!(fit.r2 > 0.98);
        assert!(fit.t_end <= t[t.len() - 1]);
    }

    #[test]
    fn stable_history_yields_none_or_tiny_gamma() {
        // Flat noise floor: no saturation crossing beyond floor wiggle.
        let times: Vec<f64> = (0..100).map(|i| i as f64 * 0.2).collect();
        let amps: Vec<f64> = (0..100)
            .map(|i| 1e-4 * (1.0 + 0.2 * ((i * 37 % 17) as f64 / 17.0 - 0.5)))
            .collect();
        match fit_growth_rate(&times, &amps, GrowthFitOptions::default()) {
            None => {}
            Some(f) => assert!(f.gamma.abs() < 0.05, "spurious growth {}", f.gamma),
        }
    }

    #[test]
    fn amplitude_at_matches_fit() {
        let (t, a) = synthetic_instability(0.25, 1e-4, 0.1);
        let fit = fit_growth_rate(&t, &a, GrowthFitOptions::default()).unwrap();
        let mid = (fit.t_start + fit.t_end) / 2.0;
        let idx = t.iter().position(|&x| x >= mid).unwrap();
        let rel = (fit.amplitude_at(t[idx]) - a[idx]).abs() / a[idx];
        assert!(rel < 0.5, "fitted curve should track data, rel err {rel}");
    }

    /// `A·e^{γt}·|cos(ωt)|` sampled at `dt = 0.01` up to `t = 35`.
    fn damped_wave(gamma: f64, omega: f64) -> (Vec<f64>, Vec<f64>) {
        let times: Vec<f64> = (0..3500).map(|i| i as f64 * 0.01).collect();
        let amps = times
            .iter()
            .map(|&t| 1e-3 * (gamma * t).exp() * (omega * t).cos().abs())
            .collect();
        (times, amps)
    }

    #[test]
    fn damping_fit_recovers_gamma_and_omega() {
        for (gamma, omega) in [(-0.1533, 1.4156), (-0.05, 2.0), (0.02, 2.5)] {
            let (t, a) = damped_wave(gamma, omega);
            let fit = fit_damping(&t, &a).unwrap();
            assert_eq!(fit.n_peaks, 10);
            assert!(
                (fit.gamma - gamma).abs() < 0.01 * gamma.abs(),
                "γ = {} vs {gamma}",
                fit.gamma
            );
            assert!(
                (fit.omega - omega).abs() < 0.01 * omega,
                "ω = {} vs {omega}",
                fit.omega
            );
        }
    }

    #[test]
    fn damping_fit_without_enough_peaks_is_an_error() {
        // Seven peaks: the three skipped ones leave four, one short.
        let (t, a) = damped_wave(-0.1533, 1.4156);
        let cut = (7.5 * std::f64::consts::PI / 1.4156 / 0.01) as usize;
        assert_eq!(
            fit_damping(&t[..cut], &a[..cut]).err(),
            Some(FitError::TooFewPoints { have: 7, need: 8 })
        );
        assert_eq!(
            fit_damping(&[], &[]).err(),
            Some(FitError::TooFewPoints { have: 0, need: 8 })
        );
        assert_eq!(
            fit_damping(&t, &a[1..]).err(),
            Some(FitError::LengthMismatch {
                xs: t.len(),
                ys: t.len() - 1
            })
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn recovers_gamma_across_parameter_space(
            gamma in 0.1f64..0.5,
            floor_exp in -6.0f64..-3.0,
        ) {
            let floor = 10f64.powf(floor_exp);
            let (t, a) = synthetic_instability(gamma, floor, 0.1);
            if let Some(fit) = fit_growth_rate(&t, &a, GrowthFitOptions::default()) {
                prop_assert!((fit.gamma - gamma).abs() / gamma < 0.10,
                    "fit {} vs true {gamma}", fit.gamma);
            } else {
                // Acceptable only if growth never cleared the floor.
                let peak = a.iter().copied().fold(f64::MIN, f64::max);
                prop_assert!(peak < floor * 10.0);
            }
        }

        #[test]
        fn fit_is_shift_invariant(
            slope in -2.0f64..2.0,
            intercept in -5.0f64..5.0,
            shift in -10.0f64..10.0,
        ) {
            let xs: Vec<f64> = (0..20).map(|i| i as f64 * 0.5).collect();
            let ys: Vec<f64> = xs.iter().map(|x| slope * x + intercept).collect();
            let shifted: Vec<f64> = ys.iter().map(|y| y + shift).collect();
            let f1 = linear_fit(&xs, &ys).unwrap();
            let f2 = linear_fit(&xs, &shifted).unwrap();
            prop_assert!((f1.slope - f2.slope).abs() < 1e-9);
            prop_assert!((f2.intercept - f1.intercept - shift).abs() < 1e-9);
        }
    }
}
