//! Input normalization — the paper's Eq. 5:
//!
//! ```text
//! y = (x - min) / (max - min)
//! ```
//!
//! where "min and max are the minimum and maximum values in the data set"
//! (dataset-global, not per-sample). The statistics are computed once from
//! the training data and stored with the model so inference inside the
//! DL-PIC loop applies the identical transform.

/// Dataset-global min/max statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NormStats {
    /// Minimum over the dataset.
    pub min: f32,
    /// Maximum over the dataset.
    pub max: f32,
}

impl NormStats {
    /// Identity normalization (min 0, max 1).
    pub fn identity() -> Self {
        Self { min: 0.0, max: 1.0 }
    }

    /// Computes statistics over a data slice.
    ///
    /// # Panics
    /// Panics on empty input.
    pub fn from_data(data: &[f32]) -> Self {
        assert!(!data.is_empty(), "cannot normalize an empty dataset");
        let mut min = f32::INFINITY;
        let mut max = f32::NEG_INFINITY;
        for &v in data {
            min = min.min(v);
            max = max.max(v);
        }
        Self { min, max }
    }

    /// The span `max - min`.
    pub fn span(&self) -> f32 {
        self.max - self.min
    }

    /// Applies Eq. 5 in place. A degenerate span maps everything to 0.
    pub fn apply(&self, data: &mut [f32]) {
        let span = self.span();
        if span <= 0.0 {
            data.fill(0.0);
            return;
        }
        let inv = 1.0 / span;
        for v in data.iter_mut() {
            *v = (*v - self.min) * inv;
        }
    }

    /// Inverts Eq. 5 in place.
    #[cfg(test)]
    fn invert(&self, data: &mut [f32]) {
        let span = self.span();
        for v in data.iter_mut() {
            *v = *v * span + self.min;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn known_normalization() {
        let stats = NormStats::from_data(&[2.0, 4.0, 6.0]);
        assert_eq!(stats.min, 2.0);
        assert_eq!(stats.max, 6.0);
        let mut data = vec![2.0, 4.0, 6.0];
        stats.apply(&mut data);
        assert_eq!(data, vec![0.0, 0.5, 1.0]);
    }

    #[test]
    fn training_range_maps_into_unit_interval() {
        let train: Vec<f32> = (0..100).map(|i| (i as f32 * 0.37).sin() * 50.0).collect();
        let stats = NormStats::from_data(&train);
        let mut data = train;
        stats.apply(&mut data);
        assert!(data.iter().all(|&v| (0.0..=1.0).contains(&v)));
        assert!(data.iter().any(|&v| v < 0.01));
        assert!(data.iter().any(|&v| v > 0.99));
    }

    #[test]
    fn degenerate_span_maps_to_zero() {
        let stats = NormStats::from_data(&[7.0, 7.0]);
        let mut data = vec![7.0, 7.0, 9.0];
        stats.apply(&mut data);
        assert_eq!(data, vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn identity_stats_are_a_noop() {
        let mut data = vec![0.1, 0.9];
        NormStats::identity().apply(&mut data);
        assert_eq!(data, vec![0.1, 0.9]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn apply_invert_round_trip(
            data in proptest::collection::vec(-100.0f32..100.0, 2..64),
        ) {
            let stats = NormStats::from_data(&data);
            prop_assume!(stats.span() > 1e-3);
            let mut work = data.clone();
            stats.apply(&mut work);
            stats.invert(&mut work);
            for (a, b) in work.iter().zip(&data) {
                prop_assert!((a - b).abs() < 1e-3 * (1.0 + b.abs()));
            }
        }

        #[test]
        fn output_bounded_for_in_range_data(
            data in proptest::collection::vec(-10.0f32..10.0, 2..64),
        ) {
            let stats = NormStats::from_data(&data);
            prop_assume!(stats.span() > 1e-6);
            let mut work = data;
            stats.apply(&mut work);
            for &v in &work {
                prop_assert!((-1e-5..=1.0 + 1e-5).contains(&v));
            }
        }
    }
}
