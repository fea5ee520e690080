//! # dlpic-bench
//!
//! The experiment harness: one binary per table/figure of the paper
//! (`src/bin/`).
//!
//! This library holds the shared plumbing: dataset preparation, model
//! training/caching, CLI parsing and output-file management — and, in
//! `ablation/`, the temporal-window solver and physics-informed loss that
//! only the `ablations` binary uses. Binaries:
//!
//! | binary            | reproduces                                        |
//! |-------------------|---------------------------------------------------|
//! | `table1`          | Table I (MLP/CNN MAE + max error, test sets I/II)  |
//! | `fig4`            | Fig. 4 (phase space + E1 growth vs linear theory)  |
//! | `fig5`            | Fig. 5 (energy/momentum, v0 = 0.2, vth = 0.025)    |
//! | `fig6`            | Fig. 6 (cold beams v0 = 0.4: numerical stability)  |
//! | `ablations`       | binning / physics-loss / architecture / grid-size / data source / temporal |
//! | `spectral_error`  | §VII "spectral analysis of errors" follow-up       |
//! | `ext2d`           | §VII extension: 2-D DL-PIC vs traditional 2-D      |
//! | `perf_dist`       | §VII extension: distributed communication volume   |
//!
//! All binaries accept `--scale smoke|scaled|paper` (default: scaled, or
//! the `DLPIC_SCALE` environment variable) and `--retrain` to ignore model
//! caches. Outputs (CSVs, model bundles) land in `./out/`.

#![warn(missing_docs)]

// Grouped on disk beside the study that uses them; the module paths (and
// so the test names) stay as flat as they were in `dlpic_core`.
#[path = "ablation/physics_loss.rs"]
pub mod physics_loss;
#[path = "ablation/temporal.rs"]
pub mod temporal;

use dlpic_core::builder::ArchSpec;
use dlpic_core::bundle::ModelBundle;
use dlpic_core::normalize::NormStats;
use dlpic_core::phase_space::BinningShape;
use dlpic_core::presets::Scale;
use dlpic_dataset::generator::{generate, GeneratorConfig};
use dlpic_dataset::sample::PhaseDataset;
use dlpic_dataset::spec::SweepSpec;
use dlpic_dataset::split::{shuffle_split, SplitSizes};
use dlpic_nn::loss::Loss;
use dlpic_nn::metrics::evaluate;
use dlpic_nn::optimizer::Adam;
use dlpic_nn::trainer::{train, TrainConfig, TrainHistory};
use std::path::PathBuf;

/// Parsed command-line options shared by all experiment binaries.
#[derive(Debug, Clone)]
pub struct Cli {
    /// Experiment scale.
    pub scale: Scale,
    /// Ignore cached model bundles.
    pub retrain: bool,
}

impl Cli {
    /// Parses `std::env::args`, honouring `DLPIC_SCALE` as the default.
    pub fn parse() -> Self {
        let mut scale = Scale::from_env();
        let mut retrain = false;
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--scale" => {
                    i += 1;
                    let value = args.get(i).map(String::as_str).unwrap_or("");
                    match Scale::parse(value) {
                        Some(s) => scale = s,
                        None => {
                            eprintln!("unknown scale `{value}`; use smoke|scaled|paper");
                            std::process::exit(2);
                        }
                    }
                }
                "--retrain" => retrain = true,
                "--help" | "-h" => {
                    eprintln!("options: --scale smoke|scaled|paper   --retrain");
                    std::process::exit(0);
                }
                other => {
                    eprintln!("unknown option `{other}`");
                    std::process::exit(2);
                }
            }
            i += 1;
        }
        Self { scale, retrain }
    }
}

/// The engine scenario a figure binary runs: the named registry entry at
/// full paper physics (1000 electrons/cell, 200 steps) regardless of
/// `scale` — the scale shrinks only the *learning* problem, exactly as the
/// original figure binaries did with `paper_config`. Seeds match the
/// historical figure runs.
pub fn paper_figure_spec(name: &str, scale: Scale) -> dlpic_repro::engine::ScenarioSpec {
    let mut spec = dlpic_repro::engine::scenario(name, scale).expect("registry entry");
    spec.ppc = dlpic_pic::constants::PAPER_PARTICLES_PER_CELL;
    spec.n_steps = dlpic_pic::constants::PAPER_NSTEPS;
    spec.seed = match name {
        "cold_beam" => 20210706,
        _ => 20210705,
    };
    spec
}

/// Output directory (`./out`), created on demand.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from("out");
    std::fs::create_dir_all(&dir).expect("create out/");
    dir
}

/// Model-cache directory (`./out/models`), created on demand.
pub fn models_dir() -> PathBuf {
    let dir = out_dir().join("models");
    std::fs::create_dir_all(&dir).expect("create out/models/");
    dir
}

/// The generated-and-split data of one scale.
pub struct DataBundle {
    /// Training portion (paper: 38,000 of 40,000).
    pub train: PhaseDataset,
    /// Validation portion.
    pub val: PhaseDataset,
    /// Test Set I — same parameters as training.
    pub test1: PhaseDataset,
    /// Test Set II — parameters never seen in training.
    pub test2: PhaseDataset,
    /// Input normalization statistics computed on the training portion.
    pub norm: NormStats,
}

/// Generates the training sweep and Test Set II for a scale, with the
/// paper's shuffle/split procedure.
pub fn prepare_data(scale: Scale, binning: BinningShape, verbose: bool) -> DataBundle {
    let phase = scale.phase_spec();
    let mut cfg = GeneratorConfig::new(SweepSpec::training_for(scale), phase);
    cfg.binning = binning;
    cfg.ppc = scale.dataset_ppc();
    cfg.verbose = verbose;
    let full = generate(&cfg);
    let sizes = SplitSizes::paper_proportions(full.len());
    let (train, val, test1) = shuffle_split(&full, sizes, 0xA11CE);

    let mut cfg2 = GeneratorConfig::new(SweepSpec::test_set_ii_for(scale), phase);
    cfg2.binning = binning;
    cfg2.ppc = scale.dataset_ppc();
    cfg2.verbose = verbose;
    let test2 = generate(&cfg2);

    let norm = train.input_norm_stats();
    DataBundle {
        train,
        val,
        test1,
        test2,
        norm,
    }
}

/// A trained model plus its Table-I row numbers.
pub struct TrainedModel {
    /// Persistable model.
    pub bundle: ModelBundle,
    /// Training curve.
    pub history: TrainHistory,
    /// MAE on Test Set I.
    pub mae1: f32,
    /// Max error on Test Set I.
    pub max1: f32,
    /// MAE on Test Set II.
    pub mae2: f32,
    /// Max error on Test Set II.
    pub max2: f32,
}

/// Trains an architecture on prepared data with the paper's optimizer
/// (Adam, batch 64; lr 1e-4 at paper scale, see `Scale::learning_rate`)
/// and evaluates it on both test sets.
pub fn train_arch(
    arch: &ArchSpec,
    data: &DataBundle,
    loss: &dyn Loss,
    epochs: usize,
    lr: f32,
    seed: u64,
    log_every: usize,
) -> TrainedModel {
    let kind = arch.input_kind();
    let train_set = data.train.to_nn_dataset(&data.norm, kind);
    let val_set = data.val.to_nn_dataset(&data.norm, kind);
    let test1_set = data.test1.to_nn_dataset(&data.norm, kind);
    let test2_set = data.test2.to_nn_dataset(&data.norm, kind);

    let mut net = arch.build(seed);
    let mut opt = Adam::new(lr);
    let cfg = TrainConfig {
        epochs,
        batch_size: 64,
        shuffle_seed: seed,
        log_every,
    };
    let history = train(&mut net, loss, &mut opt, &train_set, Some(&val_set), &cfg);

    let (mae1, max1) = evaluate(&mut net, &test1_set, 64);
    let (mae2, max2) = evaluate(&mut net, &test2_set, 64);
    // A histogram's total mass equals the harvest particle count; record
    // it so the solver can rescale out-of-distribution particle counts.
    let reference_mass: f32 = data.train.input_row(0).iter().sum();
    let bundle = ModelBundle::from_network(
        &mut net,
        arch.clone(),
        data.train.spec,
        data.train.binning,
        data.norm,
    )
    .with_reference_mass(reference_mass);
    TrainedModel {
        bundle,
        history,
        mae1,
        max1,
        mae2,
        max2,
    }
}

/// Loads a cached MLP bundle for the scale, or trains (and caches) one.
/// This is the model the figure binaries (fig4/5/6) run DL-PIC with.
pub fn get_or_train_mlp(scale: Scale, retrain: bool, verbose: bool) -> ModelBundle {
    let path = models_dir().join(format!("mlp-{}.dlpb", scale.name()));
    if !retrain {
        if let Ok(bundle) = ModelBundle::load(&path) {
            if bundle.arch == scale.mlp_arch() {
                if verbose {
                    eprintln!("loaded cached MLP from {}", path.display());
                }
                return bundle;
            }
        }
    }
    if verbose {
        eprintln!(
            "training MLP at {} scale (cache: {})",
            scale.name(),
            path.display()
        );
    }
    let data = prepare_data(scale, BinningShape::Ngp, verbose);
    let arch = scale.mlp_arch();
    let model = train_arch(
        &arch,
        &data,
        &dlpic_nn::loss::Mse,
        scale.mlp_epochs(),
        scale.learning_rate(),
        0xD1,
        if verbose { 5 } else { 0 },
    );
    if verbose {
        eprintln!(
            "trained: test-I MAE {:.5}, test-II MAE {:.5} ({:.1}s)",
            model.mae1, model.mae2, model.history.seconds
        );
    }
    model.bundle.save(&path).expect("save model cache");
    model.bundle
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlpic_nn::loss::Mse;

    #[test]
    fn smoke_scale_end_to_end_training() {
        // The full pipeline at smoke scale: generate → split → train →
        // evaluate. Asserts the learned model beats the trivial
        // zero-predictor on Test Set I.
        let data = prepare_data(Scale::Smoke, BinningShape::Ngp, false);
        assert!(data.train.len() > data.val.len());
        assert!(!data.test2.is_empty());

        let arch = Scale::Smoke.mlp_arch();
        let model = train_arch(&arch, &data, &Mse, 20, 3e-3, 1, 0);
        // Zero predictor MAE = mean |E|.
        let zero_mae = data
            .test1
            .targets()
            .iter()
            .map(|v| v.abs() as f64)
            .sum::<f64>()
            / data.test1.targets().len() as f64;
        assert!(
            (model.mae1 as f64) < zero_mae,
            "model MAE {} not better than zero-predictor {zero_mae}",
            model.mae1
        );
        assert!(model.max1 >= model.mae1);
    }
}

/// Plumbing of the `train_throughput` gate binary: the calibration
/// anchor, timing medians and the minimal JSON scraping of the committed
/// `BENCH_train.json`. Every other throughput figure comes from the
/// benchmark (`benchmark/`, declared in `BENCHMARK.json`).
pub mod gate {
    use dlpic_nn::linalg::matmul_naive;
    use std::time::Instant;

    /// Median of the samples (ties to the upper middle).
    ///
    /// # Panics
    /// Panics on an empty input.
    pub fn median(mut xs: Vec<f64>) -> f64 {
        xs.sort_by(|a, b| a.total_cmp(b));
        xs[xs.len() / 2]
    }

    /// Deterministic pseudo-random fill in [-1, 1).
    pub fn fill(buf: &mut [f32], mut seed: u64) {
        for v in buf.iter_mut() {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *v = ((seed >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0;
        }
    }

    /// Machine-speed anchor: GFLOP/s of the fixed-shape f64
    /// `matmul_naive` oracle. The oracle is the property-test reference
    /// and never part of the optimized kernels, so its throughput tracks
    /// only the machine (CPU + codegen flags), not the repo's
    /// performance work. All gates use this one implementation so their
    /// committed numbers rescale consistently.
    pub fn calibration_gflops(reps: usize) -> f64 {
        let n = 192;
        let mut a = vec![0.0f32; n * n];
        let mut b = vec![0.0f32; n * n];
        fill(&mut a, 3);
        fill(&mut b, 5);
        std::hint::black_box(matmul_naive(&a, &b, n, n, n));
        let flops = 2.0 * (n * n * n) as f64;
        let times: Vec<f64> = (0..reps)
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(matmul_naive(&a, &b, n, n, n));
                t0.elapsed().as_secs_f64()
            })
            .collect();
        flops / median(times) / 1e9
    }

    /// Re-indents a captured measurement JSON by two spaces for
    /// embedding as a `baseline` section.
    pub fn indent_block(block: &str) -> String {
        block
            .lines()
            .enumerate()
            .map(|(i, l)| {
                if i == 0 {
                    l.to_string()
                } else {
                    format!("  {l}")
                }
            })
            .collect::<Vec<_>>()
            .join("\n")
    }
}
