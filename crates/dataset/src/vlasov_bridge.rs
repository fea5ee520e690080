//! Vlasov-generated training data — the paper's §VII path:
//!
//! > "more accurate training data sets can be obtained by running Vlasov
//! > codes that are not affected by the PIC numerical noise"
//!
//! This module runs `dlpic-vlasov` harvests over a sweep and packs the
//! (noise-free) histograms into a [`PhaseDataset`] of exactly the same
//! shape as a PIC harvest, so training and the DL-PIC loop are agnostic to
//! the data source. The `ablation_data` study in `dlpic-bench` compares
//! the two.

use crate::sample::PhaseDataset;
use crate::spec::SweepSpec;
use dlpic_core::phase_space::{BinningShape, PhaseGridSpec};
use dlpic_vlasov::generator::VlasovHarvest;
use dlpic_vlasov::solver::VlasovConfig;

/// Configuration for a Vlasov-sourced dataset.
#[derive(Debug, Clone)]
pub struct VlasovDatasetConfig {
    /// The (v0, vth) sweep; `experiments_per_combo` is ignored (Vlasov is
    /// deterministic — there is nothing to augment over).
    pub sweep: SweepSpec,
    /// Output histogram geometry; the Vlasov run uses a finer grid and is
    /// block-summed down to this.
    pub phase_spec: PhaseGridSpec,
    /// Total histogram mass (the PIC particle count the DL solver sees at
    /// inference, e.g. 64 000).
    pub total_mass: f64,
    /// Internal Vlasov resolution multipliers relative to `phase_spec`
    /// (x, v). The defaults (2, 8) give a 64×256 run for a 32×32 output.
    pub refine: (usize, usize),
    /// Vlasov time step; samples land on the PIC cadence `Δt = 0.2` by
    /// sub-stepping.
    pub dt: f64,
}

impl VlasovDatasetConfig {
    /// Defaults matched to the PIC harvest conventions.
    pub fn new(sweep: SweepSpec, phase_spec: PhaseGridSpec, total_mass: f64) -> Self {
        Self {
            sweep,
            phase_spec,
            total_mass,
            refine: (2, 8),
            dt: 0.05,
        }
    }
}

/// Runs the sweep, one combo after another, and produces the dataset.
///
/// # Panics
/// Panics if the PIC sample cadence (0.2) is not a multiple of `dt`, or
/// if the phase-spec's velocity window is not symmetric (the Vlasov solver
/// assumes `[-vmax, vmax]`).
pub fn generate_vlasov(cfg: &VlasovDatasetConfig) -> PhaseDataset {
    let spec = cfg.phase_spec;
    assert!(
        (spec.vmin + spec.vmax).abs() < 1e-12,
        "Vlasov bridge needs a symmetric velocity window, got [{}, {}]",
        spec.vmin,
        spec.vmax
    );
    let stride_f = 0.2 / cfg.dt;
    let stride = stride_f.round() as usize;
    assert!(
        (stride_f - stride as f64).abs() < 1e-9 && stride >= 1,
        "PIC cadence 0.2 must be a multiple of dt, got dt = {}",
        cfg.dt
    );

    // The Vlasov x-grid must refine BOTH the phase-grid columns (so the
    // histogram block-sums cleanly) and the PIC field grid (so the field
    // restricts by striding): use the least common multiple, scaled by
    // the refinement factor.
    let e_cells = dlpic_pic::constants::PAPER_NCELLS;
    let fine_nx = lcm(spec.nx, e_cells) * cfg.refine.0.max(1);
    let fine_nv = spec.nv * cfg.refine.1.max(1);
    let fx = fine_nx / spec.nx;
    let e_stride = fine_nx / e_cells;

    let parts: Vec<PhaseDataset> = cfg
        .sweep
        .combos
        .iter()
        .map(|combo| {
            // Vlasov needs a smooth f: floor the thermal spread at one
            // fine-grid velocity cell.
            let dv_fine = (spec.vmax - spec.vmin) / fine_nv as f64;
            let vth = combo.vth.max(1.5 * dv_fine);
            let vcfg = VlasovConfig {
                grid: dlpic_pic::grid::Grid1D::new(
                    fine_nx,
                    dlpic_pic::constants::paper_box_length(),
                ),
                nv: fine_nv,
                vmax: spec.vmax,
                dt: cfg.dt,
                v0: combo.v0,
                vth,
                perturbation: 1e-3,
            };
            let mut harvest = VlasovHarvest::new(vcfg, cfg.sweep.steps, cfg.total_mass);
            harvest.stride = stride;

            // Histograms block-sum (mass-preserving); the smooth field
            // restricts by striding. `run_with` lends reused snapshot
            // buffers, and the block-sum/stride scratch below is reused
            // across samples too — the per-sample loop allocates nothing.
            let mut part = PhaseDataset::new(spec, BinningShape::Ngp, e_cells);
            part.reserve(cfg.sweep.steps);
            let mut hist = vec![0.0f32; spec.cells()];
            let mut field = vec![0.0f64; e_cells];
            harvest.run_with(|histogram, efield| {
                hist.fill(0.0);
                for iv_f in 0..fine_nv {
                    let iv = iv_f / cfg.refine.1.max(1);
                    let src = &histogram[iv_f * fine_nx..(iv_f + 1) * fine_nx];
                    let dst = &mut hist[iv * spec.nx..(iv + 1) * spec.nx];
                    for (ix_f, &hv) in src.iter().enumerate() {
                        dst[ix_f / fx] += hv;
                    }
                }
                for (j, f) in field.iter_mut().enumerate() {
                    *f = efield[j * e_stride];
                }
                part.push(&hist, &field);
            });
            part
        })
        .collect();

    let mut merged = PhaseDataset::new(spec, BinningShape::Ngp, dlpic_pic::constants::PAPER_NCELLS);
    for p in &parts {
        merged.extend(p);
    }
    merged
}

/// Greatest common divisor (Euclid).
fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Least common multiple.
fn lcm(a: usize, b: usize) -> usize {
    a / gcd(a, b) * b
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SweepCombo;

    fn tiny_cfg() -> VlasovDatasetConfig {
        let sweep = SweepSpec {
            combos: vec![SweepCombo { v0: 0.2, vth: 0.01 }],
            experiments_per_combo: 1,
            steps: 6,
            base_seed: 0,
        };
        VlasovDatasetConfig::new(sweep, PhaseGridSpec::new(32, 32, -0.8, 0.8), 64_000.0)
    }

    #[test]
    fn produces_pic_shaped_samples() {
        let ds = generate_vlasov(&tiny_cfg());
        assert_eq!(ds.len(), 6);
        assert_eq!(ds.spec.cells(), 32 * 32);
        assert_eq!(ds.e_cells, 64);
        for i in 0..ds.len() {
            let mass: f64 = ds.input_row(i).iter().map(|&h| h as f64).sum();
            assert!(
                (mass - 64_000.0).abs() / 64_000.0 < 1e-3,
                "sample {i} mass {mass}"
            );
        }
    }

    #[test]
    fn fields_are_smooth_and_small_before_growth() {
        let ds = generate_vlasov(&tiny_cfg());
        // Early in the run the field is the seeded perturbation (~1e-3·L
        // scale), far below the saturated ~0.1.
        let e0 = ds.target_row(0);
        let peak = e0.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        assert!(peak > 1e-5 && peak < 5e-2, "initial field peak {peak}");
    }

    #[test]
    #[should_panic(expected = "symmetric velocity window")]
    fn asymmetric_window_rejected() {
        let mut cfg = tiny_cfg();
        cfg.phase_spec = PhaseGridSpec::new(32, 32, -0.5, 0.8);
        let _ = generate_vlasov(&cfg);
    }

    #[test]
    #[should_panic(expected = "multiple of dt")]
    fn incompatible_dt_rejected() {
        let mut cfg = tiny_cfg();
        cfg.dt = 0.07;
        let _ = generate_vlasov(&cfg);
    }
}
