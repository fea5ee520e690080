//! Dataset summaries — the sanity checks the paper describes as
//! "We inspected all the data sets to ensure that no numerical instability
//! or artifacts were present".

use crate::sample::PhaseDataset;
use std::fmt::Write as _;

/// Aggregate statistics of a dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
struct DatasetStats {
    /// Number of samples.
    pub n: usize,
    /// Minimum histogram count.
    pub input_min: f32,
    /// Maximum histogram count.
    pub input_max: f32,
    /// Largest |E| in the targets (paper reference: ≈ 0.1).
    pub max_abs_field: f32,
    /// Mean of |E| over all targets.
    pub mean_abs_field: f64,
    /// True when every value in the dataset is finite.
    pub all_finite: bool,
}

/// Computes aggregate statistics.
fn compute(ds: &PhaseDataset) -> DatasetStats {
    let mut input_min = f32::INFINITY;
    let mut input_max = f32::NEG_INFINITY;
    let mut all_finite = true;
    for &v in ds.inputs() {
        all_finite &= v.is_finite();
        input_min = input_min.min(v);
        input_max = input_max.max(v);
    }
    let mut abs_sum = 0.0f64;
    let mut max_abs = 0.0f32;
    for &v in ds.targets() {
        all_finite &= v.is_finite();
        abs_sum += v.abs() as f64;
        max_abs = max_abs.max(v.abs());
    }
    DatasetStats {
        n: ds.len(),
        input_min,
        input_max,
        max_abs_field: max_abs,
        mean_abs_field: abs_sum / ds.targets().len().max(1) as f64,
        all_finite,
    }
}

/// Renders a human-readable summary block.
pub fn summary(ds: &PhaseDataset) -> String {
    let s = compute(ds);
    let mut out = String::new();
    let _ = writeln!(out, "samples        : {}", s.n);
    let _ = writeln!(
        out,
        "phase grid     : {}x{} over v in [{}, {}]",
        ds.spec.nx, ds.spec.nv, ds.spec.vmin, ds.spec.vmax
    );
    let _ = writeln!(out, "binning        : {:?}", ds.binning);
    let _ = writeln!(out, "input range    : [{}, {}]", s.input_min, s.input_max);
    let _ = writeln!(
        out,
        "max |E|        : {:.4} (paper reference ~0.1)",
        s.max_abs_field
    );
    let _ = writeln!(out, "mean |E|       : {:.6}", s.mean_abs_field);
    let _ = writeln!(out, "all finite     : {}", s.all_finite);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlpic_core::phase_space::{BinningShape, PhaseGridSpec};

    fn tiny() -> PhaseDataset {
        let spec = PhaseGridSpec::new(2, 2, -1.0, 1.0);
        let mut ds = PhaseDataset::new(spec, BinningShape::Ngp, 2);
        ds.push(&[0.0, 1.0, 2.0, 3.0], &[0.05, -0.1]);
        ds.push(&[4.0, 5.0, 6.0, 7.0], &[0.02, 0.01]);
        ds
    }

    #[test]
    fn stats_values() {
        let s = compute(&tiny());
        assert_eq!(s.n, 2);
        assert_eq!(s.input_min, 0.0);
        assert_eq!(s.input_max, 7.0);
        assert!((s.max_abs_field - 0.1).abs() < 1e-7);
        assert!((s.mean_abs_field - (0.05 + 0.1 + 0.02 + 0.01) / 4.0).abs() < 1e-7);
        assert!(s.all_finite);
    }

    #[test]
    fn non_finite_values_flagged() {
        let spec = PhaseGridSpec::new(2, 2, -1.0, 1.0);
        let mut ds = PhaseDataset::new(spec, BinningShape::Ngp, 1);
        ds.push(&[0.0, 0.0, 0.0, 0.0], &[f64::NAN]);
        assert!(!compute(&ds).all_finite);
    }

    #[test]
    fn summary_mentions_key_fields() {
        let text = summary(&tiny());
        assert!(text.contains("samples        : 2"));
        assert!(text.contains("phase grid"));
        assert!(text.contains("max |E|"));
    }
}
