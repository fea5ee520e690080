//! Harvesting training data from traditional PIC runs (paper Fig. 3 left).
//!
//! For every run in a sweep the generator initializes a traditional PIC
//! simulation and, at the start of every step, captures
//!
//! * the phase-space histogram of the *current* particle state, and
//! * the electric field that is self-consistent with that state —
//!
//! exactly the pair the DL solver must map between at inference time
//! inside the DL-PIC cycle.

use crate::sample::PhaseDataset;
use crate::spec::SweepSpec;
use dlpic_core::phase_space::{bin_phase_space, BinningShape, PhaseGridSpec};
use dlpic_pic::presets::reduced_config;
use dlpic_pic::simulation::Simulation;
use dlpic_pic::solver::TraditionalSolver;

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct GeneratorConfig {
    /// The parameter sweep to run.
    pub sweep: SweepSpec,
    /// Histogram geometry.
    pub phase_spec: PhaseGridSpec,
    /// Histogram binning order (paper: NGP).
    pub binning: BinningShape,
    /// Electrons per cell for the harvest runs (paper: 1000).
    pub ppc: usize,
    /// Print one progress line per combination.
    pub verbose: bool,
}

impl GeneratorConfig {
    /// A generator with the paper's PIC settings for the given sweep.
    pub fn new(sweep: SweepSpec, phase_spec: PhaseGridSpec) -> Self {
        Self {
            sweep,
            phase_spec,
            binning: BinningShape::Ngp,
            ppc: 1000,
            verbose: false,
        }
    }
}

/// Runs one harvest simulation and returns its samples.
fn harvest_run(cfg: &GeneratorConfig, combo_idx: usize, experiment: usize) -> PhaseDataset {
    let combo = cfg.sweep.combos[combo_idx];
    let seed = cfg.sweep.run_seed(combo_idx, experiment);
    let pic_cfg = reduced_config(combo.v0, combo.vth, cfg.ppc, cfg.sweep.steps, seed);
    let e_cells = pic_cfg.grid.nx();
    let mut sim = Simulation::new(pic_cfg, Box::new(TraditionalSolver::paper_default()));

    let mut out = PhaseDataset::new(cfg.phase_spec, cfg.binning, e_cells);
    out.reserve(cfg.sweep.steps);
    let mut hist = vec![0.0f32; cfg.phase_spec.cells()];
    for _ in 0..cfg.sweep.steps {
        bin_phase_space(
            sim.particles(),
            sim.grid(),
            &cfg.phase_spec,
            cfg.binning,
            &mut hist,
        );
        out.push(&hist, sim.efield());
        sim.step();
    }
    out
}

/// Generates the full dataset for a sweep: independent runs, one after
/// another, merged in sweep order.
pub fn generate(cfg: &GeneratorConfig) -> PhaseDataset {
    let harvested: Vec<PhaseDataset> = (0..cfg.sweep.combos.len())
        .flat_map(|c| (0..cfg.sweep.experiments_per_combo).map(move |e| (c, e)))
        .map(|(c, e)| {
            let ds = harvest_run(cfg, c, e);
            if cfg.verbose && e == 0 {
                let combo = cfg.sweep.combos[c];
                eprintln!(
                    "harvested combo {:>2}/{}: v0 = ±{:<5} vth = {:<6} ({} samples/run)",
                    c + 1,
                    cfg.sweep.combos.len(),
                    combo.v0,
                    combo.vth,
                    ds.len()
                );
            }
            ds
        })
        .collect();

    let mut merged = PhaseDataset::new(
        cfg.phase_spec,
        cfg.binning,
        harvested.first().map_or(64, |d| d.e_cells),
    );
    for part in &harvested {
        merged.extend(part);
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SweepCombo;

    fn tiny_cfg(steps: usize) -> GeneratorConfig {
        GeneratorConfig {
            sweep: SweepSpec {
                combos: vec![
                    SweepCombo { v0: 0.2, vth: 0.0 },
                    SweepCombo { v0: 0.1, vth: 0.01 },
                ],
                experiments_per_combo: 2,
                steps,
                base_seed: 42,
            },
            phase_spec: PhaseGridSpec::smoke(),
            binning: BinningShape::Ngp,
            ppc: 20,
            verbose: false,
        }
    }

    #[test]
    fn sample_count_matches_sweep() {
        let cfg = tiny_cfg(5);
        let ds = generate(&cfg);
        assert_eq!(ds.len(), cfg.sweep.total_samples());
        assert_eq!(ds.len(), 20);
    }

    #[test]
    fn histograms_conserve_particle_count() {
        let cfg = tiny_cfg(3);
        let ds = generate(&cfg);
        let expected = (cfg.ppc * 64) as f32;
        for i in 0..ds.len() {
            let mass: f32 = ds.input_row(i).iter().sum();
            assert!((mass - expected).abs() < 1e-2, "sample {i}: mass {mass}");
        }
    }

    #[test]
    fn fields_are_finite_and_nontrivial() {
        let cfg = tiny_cfg(10);
        let ds = generate(&cfg);
        assert!(ds.targets().iter().all(|v| v.is_finite()));
        // Shot noise guarantees a nonzero field somewhere.
        assert!(ds.max_abs_field() > 0.0);
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = tiny_cfg(4);
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a.inputs(), b.inputs());
        assert_eq!(a.targets(), b.targets());
    }

    #[test]
    fn different_experiments_differ() {
        // Augmentation means different seeds → different samples.
        let cfg = tiny_cfg(4);
        let ds = generate(&cfg);
        // Runs are [combo0/exp0 (4), combo0/exp1 (4), combo1/exp0, ...].
        assert_ne!(
            ds.input_row(0),
            ds.input_row(4),
            "seeds did not differentiate runs"
        );
    }
}
