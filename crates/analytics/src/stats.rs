//! Small statistics helpers used across the reproduction.
//!
//! These are the metrics the paper actually reports: Mean Absolute Error and
//! maximum error for Table I, and relative variation for the conservation
//! plots of Figs. 5–6.

/// Arithmetic mean. Returns 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population variance. Returns 0 for slices with fewer than two elements.
fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Population standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Minimum value. Returns +inf for an empty slice.
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Maximum value. Returns -inf for an empty slice.
pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Mean Absolute Error between two equal-length slices (paper Eq. 6).
///
/// # Panics
/// Panics on length mismatch or empty input.
pub fn mae(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "length mismatch");
    assert!(!a.is_empty(), "empty input");
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum::<f64>() / a.len() as f64
}

/// Maximum absolute difference between two equal-length slices
/// ("Max Error" row of the paper's Table I).
///
/// # Panics
/// Panics on length mismatch.
#[cfg(test)]
fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "length mismatch");
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// Root-mean-square error between two equal-length slices.
///
/// # Panics
/// Panics on length mismatch or empty input.
#[cfg(test)]
fn rmse(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "length mismatch");
    assert!(!a.is_empty(), "empty input");
    (a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>() / a.len() as f64).sqrt()
}

/// Relative peak-to-peak variation of a history, normalized by its first
/// value: `(max - min) / |first|`. This is how "the total energy is not
/// conserved with maximum variation of approximately 2%" (paper §V) is
/// quantified.
///
/// # Panics
/// Panics if the history is empty or starts at zero.
pub fn relative_variation(history: &[f64]) -> f64 {
    assert!(!history.is_empty(), "empty history");
    let first = history[0];
    assert!(
        first != 0.0,
        "history starts at zero; relative variation undefined"
    );
    (max(history) - min(history)) / first.abs()
}

/// Maximum absolute drift of a history from its initial value, as an
/// absolute number (used for momentum, which starts near zero).
pub fn max_drift(history: &[f64]) -> f64 {
    assert!(!history.is_empty(), "empty history");
    let first = history[0];
    history
        .iter()
        .map(|x| (x - first).abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mean_variance_basics() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((mean(&xs) - 2.5).abs() < 1e-12);
        assert!((variance(&xs) - 1.25).abs() < 1e-12);
        assert!((std_dev(&xs) - 1.25f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn empty_and_single_edge_cases() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[]), 0.0);
        assert_eq!(variance(&[5.0]), 0.0);
        assert_eq!(min(&[]), f64::INFINITY);
        assert_eq!(max(&[]), f64::NEG_INFINITY);
    }

    #[test]
    fn mae_and_max_err() {
        let a = [1.0, 2.0, 3.0];
        let b = [1.5, 2.0, 1.0];
        assert!((mae(&a, &b) - (0.5 + 0.0 + 2.0) / 3.0).abs() < 1e-12);
        assert!((max_abs_diff(&a, &b) - 2.0).abs() < 1e-12);
        assert!((rmse(&a, &b) - ((0.25 + 4.0) / 3.0f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn variation_of_two_percent_history() {
        // Energy history drifting from 0.0410 up to 0.04182: 2% variation.
        let h = [0.0410, 0.0412, 0.04182, 0.0411];
        assert!((relative_variation(&h) - 0.02).abs() < 1e-3);
    }

    #[test]
    fn drift_from_zero_start() {
        let h = [0.0, -1e-3, -5e-3, -9e-3];
        assert!((max_drift(&h) - 9e-3).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mae_rejects_mismatch() {
        let _ = mae(&[1.0], &[1.0, 2.0]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn mae_bounded_by_max_error(
            a in proptest::collection::vec(-10.0f64..10.0, 1..64),
            shift in -1.0f64..1.0,
        ) {
            let b: Vec<f64> = a.iter().map(|x| x + shift).collect();
            prop_assert!(mae(&a, &b) <= max_abs_diff(&a, &b) + 1e-12);
            prop_assert!(rmse(&a, &b) >= mae(&a, &b) - 1e-12); // RMS ≥ mean of |e|
        }

        #[test]
        fn mae_identity_and_symmetry(a in proptest::collection::vec(-10.0f64..10.0, 1..32)) {
            prop_assert!(mae(&a, &a) < 1e-15);
            let b: Vec<f64> = a.iter().map(|x| x * 0.9 + 0.1).collect();
            prop_assert!((mae(&a, &b) - mae(&b, &a)).abs() < 1e-12);
        }

        #[test]
        fn variance_is_translation_invariant(
            a in proptest::collection::vec(-5.0f64..5.0, 2..32),
            shift in -100.0f64..100.0,
        ) {
            let b: Vec<f64> = a.iter().map(|x| x + shift).collect();
            prop_assert!((variance(&a) - variance(&b)).abs() < 1e-8);
        }
    }
}
