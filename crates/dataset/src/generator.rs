//! Harvesting training data from traditional PIC runs (paper Fig. 3
//! left), in either dimension.
//!
//! [`harvest`] is the one loop that steps a traditional simulation to
//! record training rows: each step it bins the particle state into the
//! store's input histogram and records the electric field self-consistent
//! with that state — the pair the DL solver must map between inside the
//! DL-PIC cycle. [`generate`] runs it over the paper's 1-D sweep.

use crate::sample::{InputGrid, PhaseDataset};
use crate::spec::SweepSpec;
use dlpic_core::phase_space::{BinningShape, PhaseGridSpec};
use dlpic_core::InputBinning;
use dlpic_pic::constants::PAPER_NCELLS;
use dlpic_pic::presets::reduced_config;
use dlpic_pic::simulation::{PicConfig, Simulation};
use dlpic_pic::solver::TraditionalSolver;

/// Which state of each step a harvest records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Capture {
    /// The state a step starts from: the loaded particles first, the last
    /// step's push never (the paper's 1-D sweep).
    BeforeStep,
    /// The state a step ends in: the loaded particles never, the last
    /// step's push always.
    AfterStep,
}

/// Runs `cfg` for `cfg.n_steps` steps on `solver` and appends one row per
/// step to `out`: the particles binned onto `out`'s grid, and the field the
/// solver solved from them.
///
/// The loop does not hold the worker team itself, so a large run's push,
/// deposit and binning stay serial unless the caller holds it (the split
/// kernels give the same bits). On a 2-vCPU VM a hold here saved at most
/// 0.05 s of the benchmark's set-up (the harvest is a process's first
/// work, when two threads often ran at half speed), and spawning the
/// team's helper that early cost the later `fleet_dl` waves ≈ 5 % of
/// their throughput.
///
/// # Panics
/// Panics if the binned row or the field is not as wide as `out`'s rows.
pub fn harvest<S: InputGrid>(
    cfg: PicConfig<S::Geometry>,
    solver: TraditionalSolver<S::Geometry>,
    capture: Capture,
    out: &mut PhaseDataset<S>,
) {
    let binner = out.spec.binner(out.binning);
    let steps = cfg.n_steps;
    let mut sim = Simulation::new(cfg, Box::new(solver));
    let mut row = vec![0.0f32; out.row_len()];
    out.reserve(steps);
    for _ in 0..steps {
        if capture == Capture::AfterStep {
            sim.step();
        }
        S::Geometry::bin(&binner, sim.particles(), sim.grid(), &mut row);
        out.push(&row, sim.efield());
        if capture == Capture::BeforeStep {
            sim.step();
        }
    }
}

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

/// Generates the full dataset for a sweep: one [`harvest`] per run of the
/// paper's reduced configuration, binned before each step, in sweep order.
pub fn generate(cfg: &GeneratorConfig) -> PhaseDataset {
    let sweep = &cfg.sweep;
    let mut out = PhaseDataset::new(cfg.phase_spec, cfg.binning, PAPER_NCELLS);
    out.reserve(sweep.total_samples());
    for (c, e) in sweep.runs() {
        let combo = sweep.combos[c];
        let seed = sweep.run_seed(c, e);
        let pic_cfg = reduced_config(combo.v0, combo.vth, cfg.ppc, sweep.steps, seed);
        let solver = TraditionalSolver::paper_default();
        harvest(pic_cfg, solver, Capture::BeforeStep, &mut out);
        if cfg.verbose && e == 0 {
            eprintln!(
                "harvested combo {:>2}/{}: v0 = ±{:<5} vth = {:<6} ({} samples/run)",
                c + 1,
                sweep.combos.len(),
                combo.v0,
                combo.vth,
                sweep.steps
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SweepCombo;
    use dlpic_core::DensityBinning;
    use dlpic_pic::{Grid2D, Shape, TwoStream2DInit};

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

    /// A sweep of runs large enough to split their push, deposit and NGP
    /// binning, generated while a caller holds the team, gives the bits of
    /// the one-member team.
    #[test]
    fn generate_is_the_same_at_any_team_size() {
        let cfg = GeneratorConfig {
            ppc: 300,
            ..tiny_cfg(3)
        };
        assert!(cfg.ppc * PAPER_NCELLS >= dlpic_pic::SPLIT_PARTICLES);
        let bits = |ds: &PhaseDataset| {
            let inputs = ds.inputs().iter().map(|c| c.to_bits());
            let targets = ds.targets().iter().map(|e| e.to_bits());
            (inputs.collect::<Vec<_>>(), targets.collect::<Vec<_>>())
        };
        let one = bits(&dlpic_core::pool::with_limit(1, || generate(&cfg)));
        let _hold = dlpic_core::pool::team().hold();
        assert!(bits(&generate(&cfg)) == one);
    }

    #[test]
    fn harvest_produces_expected_sample_count() {
        // One 2-D run, captured after each of its ten steps.
        let grid = Grid2D::new(8, 8, 2.0532, 2.0532);
        let cfg = PicConfig {
            grid: grid.clone(),
            init: Some(TwoStream2DInit::quiet(0.2, 0.0, 1024, 1e-3, 0)),
            dt: 0.2,
            n_steps: 10,
            gather_shape: Shape::Cic,
            tracked_modes: vec![],
        };
        let mut ds = PhaseDataset::new(grid, DensityBinning::Ngp, 128);
        harvest(
            cfg,
            TraditionalSolver::default_config(),
            Capture::AfterStep,
            &mut ds,
        );
        assert_eq!(ds.len(), 10);
        assert_eq!(ds.inputs().len(), 10 * 64);
        assert!(ds.targets().iter().all(|v| v.is_finite()));
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
