//! `repro` — the paper's checkable claims, one row each: Table I,
//! Figs. 4–6, the §VII follow-ups (spectral error analysis, 2-D systems,
//! distributed-memory communication) and six ablations of the choices
//! the paper leaves open. Every row prints its table, plot and verdict
//! and writes its CSV under `./out/`; a CHECK verdict does not fail the
//! run.
//!
//! Run: `cargo run --release --bin repro -- [--scale smoke|scaled|paper]
//! [--retrain] [--rows ROW,ROW,…]`
//!
//! * `--scale` defaults to `scaled`, or to the `DLPIC_SCALE` environment
//!   variable; an unknown scale exits 2.
//! * `--rows` picks rows by name (all by default); they run in the order
//!   of [`ROWS`] whatever order they are named in. An unknown row exits 2
//!   with a usage message that lists the row names.
//! * `--retrain` ignores the model cache under `./out/models/`.
//!
//! The rows share their common inputs through one [`Ctx`], which builds
//! each at most once per run: the NGP dataset, the paper MLP (seed
//! `0xD1`) and CNN (seed `0xC1`) trained on it — each loaded from
//! `./out/models/` unless `--retrain`, and cached there when trained —
//! and the `two_stream` traditional/DL pair behind Figs. 4 and 5.

#[path = "ablation/physics_loss.rs"]
mod physics_loss;
#[path = "ablation/temporal.rs"]
mod temporal;

mod ablations;
mod ext2d;
mod figures;
mod perf_dist;

use dlpic_core::builder::ArchSpec;
use dlpic_core::bundle::ModelBundle;
use dlpic_core::phase_space::{BinningShape, PhaseGridSpec};
use dlpic_core::presets::Scale;
use dlpic_dataset::generator::{generate, GeneratorConfig};
use dlpic_dataset::sample::PhaseDataset;
use dlpic_dataset::spec::SweepSpec;
use dlpic_dataset::split::{shuffle_split, SplitSizes};
use dlpic_dataset::{fit, stats};
use dlpic_nn::loss::{Loss, Mse};
use dlpic_nn::metrics::evaluate;
use dlpic_nn::network::Sequential;
use dlpic_nn::serialize::params_from_bytes;
use dlpic_nn::trainer::TrainConfig;
use dlpic_repro::engine::{Backend, Engine, Numerics1D, RunSummary};
use std::cell::{OnceCell, RefCell};
use std::path::PathBuf;

/// One paper claim: its name on the command line, what it reproduces,
/// and the function that runs it.
struct Row {
    name: &'static str,
    reproduces: &'static str,
    run: fn(&Ctx),
}

/// Every row, in run order.
static ROWS: [Row; 13] = [
    Row {
        name: "table1",
        reproduces: "Table I: MLP/CNN MAE and max error",
        run: figures::table1,
    },
    Row {
        name: "fig4",
        reproduces: "Fig. 4: E1 growth vs linear theory",
        run: figures::fig4,
    },
    Row {
        name: "fig5",
        reproduces: "Fig. 5: energy and momentum conservation",
        run: figures::fig5,
    },
    Row {
        name: "fig6",
        reproduces: "Fig. 6: cold-beam numerical stability",
        run: figures::fig6,
    },
    Row {
        name: "spectral",
        reproduces: "§VII: spectral analysis of the field errors",
        run: figures::spectral,
    },
    Row {
        name: "ext2d",
        reproduces: "§VII: 2-D DL-PIC vs traditional 2-D PIC",
        run: ext2d::run,
    },
    Row {
        name: "perf-dist",
        reproduces: "§VII: communication volume, 1-8 ranks",
        run: perf_dist::run,
    },
    Row {
        name: "ablation-binning",
        reproduces: "NGP vs CIC phase-space binning",
        run: ablations::binning,
    },
    Row {
        name: "ablation-physics",
        reproduces: "MSE vs physics-informed loss",
        run: ablations::physics,
    },
    Row {
        name: "ablation-arch",
        reproduces: "MLP vs CNN vs residual MLP",
        run: ablations::arch,
    },
    Row {
        name: "ablation-grid",
        reproduces: "phase-grid resolution",
        run: ablations::grid,
    },
    Row {
        name: "ablation-data",
        reproduces: "PIC vs Vlasov training data",
        run: ablations::data,
    },
    Row {
        name: "ablation-temporal",
        reproduces: "single-step vs stacked-history inputs",
        run: ablations::temporal,
    },
];

fn usage() -> String {
    let mut text = String::from(
        "usage: repro [--scale smoke|scaled|paper] [--retrain] [--rows ROW,ROW,...]\n\
         rows (run in this order; all by default):\n",
    );
    for row in &ROWS {
        text.push_str(&format!("  {:<18} {}\n", row.name, row.reproduces));
    }
    text
}

/// The run a command line asks for: the shared context at its scale
/// and `--retrain` setting, and the selected rows in table order.
fn parse_args(args: &[String]) -> Result<(Ctx, Vec<&'static Row>), String> {
    let mut scale = Scale::from_env();
    let mut retrain = false;
    let mut wanted: Option<Vec<&str>> = None;
    let mut args = args.iter().map(String::as_str);
    while let Some(arg) = args.next() {
        match arg {
            "--scale" => {
                let value = args.next().unwrap_or("");
                scale = Scale::parse(value)
                    .ok_or_else(|| format!("unknown scale `{value}`; use smoke|scaled|paper"))?;
            }
            "--retrain" => retrain = true,
            "--rows" => {
                let names: Vec<&str> = args.next().unwrap_or("").split(',').collect();
                if let Some(bad) = names.iter().find(|n| ROWS.iter().all(|r| r.name != **n)) {
                    return Err(format!("unknown row `{bad}`"));
                }
                wanted = Some(names);
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    let rows = ROWS
        .iter()
        .filter(|row| wanted.as_ref().is_none_or(|w| w.contains(&row.name)))
        .collect();
    let ctx = Ctx {
        scale,
        retrain,
        ..Ctx::default()
    };
    Ok((ctx, rows))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprint!("{}", usage());
        return;
    }
    let (ctx, rows) = parse_args(&args).unwrap_or_else(|msg| {
        eprint!("{msg}\n{}", usage());
        std::process::exit(2);
    });
    let names: Vec<&str> = rows.iter().map(|row| row.name).collect();
    eprintln!(
        "repro [{} scale]: rows {}",
        ctx.scale.name(),
        names.join(", ")
    );
    if let Err(e) = std::fs::create_dir_all(models_dir()) {
        eprintln!("cannot create {}: {e}", models_dir().display());
        std::process::exit(1);
    }
    for row in rows {
        (row.run)(&ctx);
        println!();
    }
}

/// The output directory, `./out`.
fn out_dir() -> PathBuf {
    PathBuf::from("out")
}

/// The model cache, `./out/models`.
fn models_dir() -> PathBuf {
    out_dir().join("models")
}

/// The inputs several rows read, each built on first use and at most
/// once per run.
#[derive(Default)]
struct Ctx {
    scale: Scale,
    retrain: bool,
    data: OnceCell<DataBundle>,
    mlp: OnceCell<ModelBundle>,
    cnn: OnceCell<ModelBundle>,
    two_stream: OnceCell<[RunSummary; 2]>,
    /// The ablation rows' CSV sections so far, in row order.
    ablations: RefCell<Vec<String>>,
}

impl Ctx {
    /// The NGP training sweep and its test sets.
    fn data(&self) -> &DataBundle {
        self.data.get_or_init(|| {
            let t0 = std::time::Instant::now();
            eprintln!("generating the NGP dataset (traditional PIC sweep)...");
            let data = prepare_data(self.scale, self.scale.phase_spec(), BinningShape::Ngp, true);
            eprintln!(
                "\ndataset ready in {:.1?}: {} train / {} val / {} test-I / {} test-II\n{}",
                t0.elapsed(),
                data.train.len(),
                data.val.len(),
                data.test1.len(),
                data.test2.len(),
                stats::summary(&data.train)
            );
            data
        })
    }

    /// The paper MLP, the model the DL-PIC rows run.
    fn mlp(&self) -> &ModelBundle {
        let (arch, epochs) = (self.scale.mlp_arch(), self.scale.mlp_epochs());
        self.mlp
            .get_or_init(|| self.model("mlp", arch, epochs, 0xD1, 5))
    }

    /// The paper CNN.
    fn cnn(&self) -> &ModelBundle {
        let (arch, epochs) = (self.scale.cnn_arch(), self.scale.cnn_epochs());
        self.cnn
            .get_or_init(|| self.model("cnn", arch, epochs, 0xC1, 2))
    }

    /// `out/models/{kind}-{scale}.dlpb` when it holds `arch` and
    /// `--retrain` is off; otherwise `arch` trained on the NGP data and
    /// written there.
    fn model(
        &self,
        kind: &str,
        arch: ArchSpec,
        epochs: usize,
        seed: u64,
        log_every: usize,
    ) -> ModelBundle {
        let path = models_dir().join(format!("{kind}-{}.dlpb", self.scale.name()));
        if !self.retrain {
            if let Ok(bundle) = ModelBundle::load(&path) {
                if bundle.arch == arch {
                    eprintln!("loaded cached {kind} from {}", path.display());
                    return bundle;
                }
            }
        }
        eprintln!("training {kind} ({epochs} epochs, seed {seed:#x})...");
        let lr = self.scale.learning_rate();
        let bundle = train_arch(&arch, self.data(), &Mse, epochs, lr, seed, log_every);
        bundle.save(&path).expect("save model cache");
        bundle
    }

    /// Figs. 4 and 5's run: `two_stream` on both backends.
    fn two_stream(&self) -> &[RunSummary; 2] {
        self.two_stream.get_or_init(|| self.pair("two_stream"))
    }

    /// `scenario` on the traditional and the DL backend, the DL one with
    /// [`Self::mlp`], at full paper physics (1000 electrons/cell, 200
    /// steps) whatever the scale — the scale shrinks only the *learning*
    /// problem — and with the historical figure seeds. The paper's
    /// traditional baseline is the "basic NGP scheme" (§II); both methods
    /// share the NGP gather, so the comparison is apples to apples (the DL
    /// method "retains the interpolation step", Fig. 2).
    fn pair(&self, scenario: &str) -> [RunSummary; 2] {
        let mut spec = dlpic_repro::engine::scenario(scenario, self.scale).expect("registry entry");
        spec.ppc = dlpic_pic::constants::PAPER_PARTICLES_PER_CELL;
        spec.n_steps = dlpic_pic::constants::PAPER_NSTEPS;
        spec.seed = match scenario {
            "cold_beam" => 20210706,
            _ => 20210705,
        };
        let mut engine = Engine::new()
            .with_model_1d(self.mlp().clone())
            .with_numerics_1d(Numerics1D::basic_ngp());
        let mut run = |backend: Backend, label: &str| {
            eprintln!("running {scenario}: {label} PIC (200 steps, 64k particles)...");
            engine.run(&spec, backend).expect("engine run")
        };
        let trad = run(Backend::Traditional1D, "traditional");
        [trad, run(Backend::Dl1D, "DL-based")]
    }

    /// Appends an ablation row's CSV section and rewrites
    /// `out/ablations-{scale}.csv` with every section so far.
    fn ablation_csv(&self, section: String) {
        let mut sections = self.ablations.borrow_mut();
        sections.push(section);
        let path = out_dir().join(format!("ablations-{}.csv", self.scale.name()));
        std::fs::write(&path, sections.join("\n")).expect("write CSV");
        println!("wrote {}", path.display());
    }
}

/// The generated-and-split data of one scale.
struct DataBundle {
    /// Training portion (paper: 38,000 of 40,000).
    train: PhaseDataset,
    /// Validation portion.
    val: PhaseDataset,
    /// Test Set I — same parameters as training.
    test1: PhaseDataset,
    /// Test Set II — parameters never seen in training.
    test2: PhaseDataset,
}

/// Generates the training sweep and Test Set II for a scale on the
/// `phase` grid, with the paper's shuffle/split procedure.
fn prepare_data(
    scale: Scale,
    phase: PhaseGridSpec,
    binning: BinningShape,
    verbose: bool,
) -> DataBundle {
    let config = |sweep| {
        let mut cfg = GeneratorConfig::new(sweep, phase);
        cfg.binning = binning;
        cfg.ppc = scale.dataset_ppc();
        cfg.verbose = verbose;
        cfg
    };
    let full = generate(&config(SweepSpec::training_for(scale)));
    let sizes = SplitSizes::paper_proportions(full.len());
    let (train, val, test1) = shuffle_split(&full, sizes, 0xA11CE);
    let test2 = generate(&config(SweepSpec::test_set_ii_for(scale)));
    DataBundle {
        train,
        val,
        test1,
        test2,
    }
}

/// Trains an architecture on prepared data with the paper's optimizer
/// (Adam, batch 64; lr 1e-4 at paper scale, see `Scale::learning_rate`),
/// logging every `log_every` epochs (never at 0).
fn train_arch(
    arch: &ArchSpec,
    data: &DataBundle,
    loss: &dyn Loss,
    epochs: usize,
    lr: f32,
    seed: u64,
    log_every: usize,
) -> ModelBundle {
    let tc = TrainConfig {
        epochs,
        shuffle_seed: seed,
        log_every,
        ..TrainConfig::default()
    };
    let mut trained = fit(arch, &data.train, loss, Some(&data.val), lr, &tc);
    if log_every > 0 {
        eprintln!(
            "trained in {:.1}s (final train loss {:.3e})\n",
            trained.history.seconds,
            trained.history.final_loss().unwrap_or(f64::NAN)
        );
    }
    trained.bundle(arch.clone(), &data.train)
}

/// The trainable network a bundle holds, for the architectures no DL
/// field solver runs (the CNN) and for scoring.
fn network(bundle: &ModelBundle) -> Sequential {
    // Any seed: the restore overwrites every parameter.
    let mut net = bundle.arch.build(0);
    params_from_bytes(&mut net, &bundle.params).expect("bundle -> network");
    net
}

/// Table I's numbers for one model: mean and max absolute error on Test
/// Sets I and II.
struct Scores {
    mae1: f32,
    max1: f32,
    mae2: f32,
    max2: f32,
}

fn score(bundle: &ModelBundle, data: &DataBundle) -> Scores {
    let mut net = network(bundle);
    let kind = bundle.arch.input_kind();
    let mut on =
        |set: &PhaseDataset| evaluate(&mut net, &set.to_nn_dataset(&bundle.norm, kind), 64);
    let (mae1, max1) = on(&data.test1);
    let (mae2, max2) = on(&data.test2);
    Scores {
        mae1,
        max1,
        mae2,
        max2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_scale_end_to_end_training() {
        // The full pipeline at smoke scale: generate → split → train →
        // evaluate. Asserts the learned model beats the trivial
        // zero-predictor on Test Set I.
        let data = prepare_data(
            Scale::Smoke,
            PhaseGridSpec::smoke(),
            BinningShape::Ngp,
            false,
        );
        assert!(data.train.len() > data.val.len());
        assert!(!data.test2.is_empty());

        let arch = Scale::Smoke.mlp_arch();
        let model = score(&train_arch(&arch, &data, &Mse, 20, 3e-3, 1, 0), &data);
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
