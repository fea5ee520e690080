//! Order statistics for timing samples.

/// Sorted copy of `values` (timings are finite; NaN would be a bug).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    v
}

/// Median (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Nearest rank of percentile `p` (0..=100) among `n` samples, 1-based.
/// The small slack keeps a product that is a whole number in exact
/// arithmetic (99.9 % of 10 000) from rounding up a rank.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile `p` (0..=100) of `values`.
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "percentile of no samples");
    v[rank(v.len(), p) - 1]
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// The highest percentile of the ladder 50/75/90/95/99/99.9 that still
/// has at least ten of `n` samples beyond it — the tail a sample of this
/// size can support. `None` below 20 samples (not even the median has
/// ten beyond it).
pub fn supported_tail(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= 10)
}

/// Percentile `p` of `values`, for a metric whose name states `p`.
///
/// # Panics
/// Panics when fewer than ten samples lie beyond it: a named tail must
/// be one the sample supports.
pub fn supported_percentile(values: &[f64], p: f64) -> f64 {
    let beyond = samples_beyond(values.len(), p);
    assert!(
        beyond >= 10,
        "p{p} of {} samples has only {beyond} beyond it",
        values.len()
    );
    percentile(values, p)
}

/// `(p, value)` at the highest percentile `values` support; the median,
/// as `p` = 50, when they support none.
pub fn tail(values: &[f64]) -> (f64, f64) {
    match supported_tail(values.len()) {
        Some(p) => (p, percentile(values, p)),
        None => (50.0, median(values)),
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method), so the `--repeat` report computes the spread
/// the driver will.
///
/// # Panics
/// Panics with fewer than two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let n = v.len();
    assert!(n >= 2, "quartiles need two samples");
    [1usize, 2, 3].map(|i| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

/// Distance between the first and third quartile as a share of the
/// median.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    (q3 - q1) / median(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(supported_tail(12), None);
        assert_eq!(supported_tail(19), None);
        assert_eq!(supported_tail(20), Some(50.0));
        assert_eq!(supported_tail(30), Some(50.0));
        assert_eq!(supported_tail(40), Some(75.0));
        assert_eq!(supported_tail(99), Some(75.0));
        assert_eq!(supported_tail(100), Some(90.0));
        assert_eq!(supported_tail(120), Some(90.0));
        assert_eq!(supported_tail(200), Some(95.0));
        assert_eq!(supported_tail(1000), Some(99.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
        assert_eq!(samples_beyond(120, 90.0), 12);

        let v: Vec<f64> = (1..=120).map(f64::from).collect();
        assert_eq!(tail(&v), (90.0, 108.0));
        assert_eq!(supported_percentile(&v, 90.0), 108.0);
        assert_eq!(tail(&v[..8]), (50.0, 4.5));
    }

    #[test]
    #[should_panic(expected = "only 1 beyond")]
    fn a_named_tail_needs_its_samples() {
        let v: Vec<f64> = (1..=120).map(f64::from).collect();
        supported_percentile(&v, 99.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
    }
}
