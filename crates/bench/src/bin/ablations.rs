//! **Ablation studies** of the design choices the paper leaves open or
//! proposes as future work (§VII):
//!
//! * `binning`  — NGP vs CIC phase-space binning ("higher-order
//!   interpolation functions would likely improve the performance of the
//!   DL electric field solver").
//! * `physics`  — plain MSE vs the physics-informed loss (PINN
//!   suggestion): effect on accuracy *and* on DL-PIC momentum drift.
//! * `arch`     — MLP vs CNN vs residual MLP (ResNet suggestion).
//! * `grid`     — phase-grid resolution sweep.
//! * `data`     — PIC-harvested vs Vlasov-harvested training data ("more
//!   accurate training data sets can be obtained by running Vlasov
//!   codes").
//! * `temporal` — single-step vs stacked-history inputs ("neural networks
//!   fit to encode time sequences … might be a better fit").
//!
//! Run: `cargo run -p dlpic-bench --release --bin ablations -- [--scale ...] [--only NAME]`
//!
//! Each study retrains models, so the full suite at `scaled` takes tens of
//! minutes on one core; `--only` selects a single study and the default
//! scale for this binary is `smoke` unless `--scale`/`DLPIC_SCALE` says
//! otherwise.

use dlpic_analytics::series::Table;
use dlpic_analytics::stats;
use dlpic_bench::physics_loss::PhysicsInformedMse;
use dlpic_bench::temporal::{windowed_pairs, TemporalDlSolver};
use dlpic_bench::{out_dir, prepare_data, train_arch, TrainedModel};
use dlpic_core::builder::ArchSpec;
use dlpic_core::normalize::NormStats;
use dlpic_core::phase_space::{BinningShape, PhaseGridSpec};
use dlpic_core::presets::Scale;
use dlpic_dataset::generator::{generate, harvest, Capture, GeneratorConfig};
use dlpic_dataset::spec::SweepSpec;
use dlpic_dataset::split::{shuffle_split, SplitSizes};
use dlpic_dataset::vlasov_bridge::{generate_vlasov, VlasovDatasetConfig};
use dlpic_dataset::PhaseDataset;
use dlpic_nn::data::Dataset;
use dlpic_nn::loss::Mse;
use dlpic_nn::optimizer::Adam;
use dlpic_nn::tensor::Tensor;
use dlpic_nn::trainer::{train, TrainConfig};
use dlpic_pic::presets::{paper_config, reduced_config};
use dlpic_pic::simulation::Simulation;
use dlpic_pic::solver::TraditionalSolver;

fn parse_args() -> (Scale, Option<String>) {
    let mut scale = Scale::from_env();
    let mut only = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = Scale::parse(args.get(i).map(String::as_str).unwrap_or("")).unwrap_or_else(
                    || {
                        eprintln!("unknown scale; use smoke|scaled|paper");
                        std::process::exit(2);
                    },
                );
            }
            "--only" => {
                i += 1;
                only = args.get(i).cloned();
            }
            other => {
                eprintln!("unknown option `{other}` (use --scale, --only)");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    (scale, only)
}

fn run_dl_pic_momentum_drift(model: &TrainedModel) -> f64 {
    let solver = model.bundle.freeze().expect("an MLP freezes").solver();
    let mut sim = Simulation::new(paper_config(0.2, 0.025, 99), Box::new(solver));
    sim.run();
    stats::max_drift(&sim.history().momentum)
}

fn ablation_binning(scale: Scale, out: &mut Vec<String>) {
    println!("-- ablation: phase-space binning order (NGP vs CIC) --");
    let mut table = Table::new(&["binning", "MAE set I", "MAE set II", "max err I"]);
    for binning in [BinningShape::Ngp, BinningShape::Cic] {
        let data = prepare_data(scale, binning, false);
        let m = train_arch(
            &scale.mlp_arch(),
            &data,
            &Mse,
            scale.mlp_epochs(),
            scale.learning_rate(),
            0xAB1,
            0,
        );
        table.row(&[
            format!("{binning:?}"),
            format!("{:.5}", m.mae1),
            format!("{:.5}", m.mae2),
            format!("{:.5}", m.max1),
        ]);
    }
    println!("{}", table.render());
    out.push(format!("binning:\n{}", table.to_csv()));
}

fn ablation_physics(scale: Scale, out: &mut Vec<String>) {
    println!("-- ablation: MSE vs physics-informed loss (paper §VII PINN path) --");
    let data = prepare_data(scale, BinningShape::Ngp, false);
    let mut table = Table::new(&["loss", "MAE set I", "MAE set II", "DL-PIC momentum drift"]);
    let mse_model = train_arch(
        &scale.mlp_arch(),
        &data,
        &Mse,
        scale.mlp_epochs(),
        scale.learning_rate(),
        0xAB2,
        0,
    );
    let pi = PhysicsInformedMse::new(5.0, 1.0);
    let pi_model = train_arch(
        &scale.mlp_arch(),
        &data,
        &pi,
        scale.mlp_epochs(),
        scale.learning_rate(),
        0xAB2,
        0,
    );
    for (name, m) in [("mse", &mse_model), ("physics-informed", &pi_model)] {
        table.row(&[
            name.into(),
            format!("{:.5}", m.mae1),
            format!("{:.5}", m.mae2),
            format!("{:.4e}", run_dl_pic_momentum_drift(m)),
        ]);
    }
    println!("{}", table.render());
    println!("(the paper predicts the physics-informed variant improves conservation)\n");
    out.push(format!("physics:\n{}", table.to_csv()));
}

fn ablation_arch(scale: Scale, out: &mut Vec<String>) {
    println!("-- ablation: architecture (MLP vs CNN vs residual MLP) --");
    let data = prepare_data(scale, BinningShape::Ngp, false);
    let mut table = Table::new(&["architecture", "params", "MAE set I", "MAE set II"]);
    let arches: [(&str, ArchSpec, usize); 3] = [
        ("mlp", scale.mlp_arch(), scale.mlp_epochs()),
        ("cnn", scale.cnn_arch(), scale.cnn_epochs()),
        ("resmlp", scale.resmlp_arch(), scale.mlp_epochs()),
    ];
    for (name, arch, epochs) in arches {
        let m = train_arch(&arch, &data, &Mse, epochs, scale.learning_rate(), 0xAB3, 0);
        let params = arch.build(0).param_count();
        table.row(&[
            name.into(),
            params.to_string(),
            format!("{:.5}", m.mae1),
            format!("{:.5}", m.mae2),
        ]);
    }
    println!("{}", table.render());
    out.push(format!("arch:\n{}", table.to_csv()));
}

fn ablation_grid(scale: Scale, out: &mut Vec<String>) {
    println!("-- ablation: phase-grid resolution --");
    let mut table = Table::new(&["phase grid", "MAE set I", "MAE set II"]);
    let sizes: &[usize] = match scale {
        Scale::Smoke => &[8, 16],
        _ => &[16, 32, 64],
    };
    for &n in sizes {
        let spec = PhaseGridSpec::new(n, n, -0.8, 0.8);
        let mut cfg = GeneratorConfig::new(SweepSpec::training_for(scale), spec);
        cfg.ppc = scale.dataset_ppc();
        let full = generate(&cfg);
        let sizes_split = SplitSizes::paper_proportions(full.len());
        let (train, val, test1) = shuffle_split(&full, sizes_split, 0xA11CE);
        let mut cfg2 = GeneratorConfig::new(SweepSpec::test_set_ii_for(scale), spec);
        cfg2.ppc = scale.dataset_ppc();
        let test2 = generate(&cfg2);
        let data = dlpic_bench::DataBundle {
            train,
            val,
            test1,
            test2,
        };
        let arch = ArchSpec::Mlp {
            input: spec.cells(),
            hidden: match scale {
                Scale::Smoke => vec![32, 32],
                _ => vec![256, 256, 256],
            },
            output: 64,
        };
        let m = train_arch(
            &arch,
            &data,
            &Mse,
            scale.mlp_epochs(),
            scale.learning_rate(),
            0xAB4,
            0,
        );
        table.row(&[
            format!("{n}x{n}"),
            format!("{:.5}", m.mae1),
            format!("{:.5}", m.mae2),
        ]);
    }
    println!("{}", table.render());
    out.push(format!("grid:\n{}", table.to_csv()));
}

fn ablation_data(scale: Scale, out: &mut Vec<String>) {
    println!("-- ablation: PIC-noise vs Vlasov (noise-free) training data --");
    // Baseline: the normal PIC-harvested data at this scale.
    let pic_data = prepare_data(scale, BinningShape::Ngp, false);

    // Vlasov-sourced training set over the same sweep and geometry, but
    // evaluated on the SAME PIC test sets — inference always sees PIC
    // states, so that is the distribution that matters.
    let total_mass = (scale.dataset_ppc() * 64) as f64;
    let mut sweep = SweepSpec::training_for(scale);
    sweep.experiments_per_combo = 1; // Vlasov is deterministic
    let vcfg = VlasovDatasetConfig::new(sweep, scale.phase_spec(), total_mass);
    let vlasov_data = dlpic_bench::DataBundle {
        train: generate_vlasov(&vcfg),
        val: pic_data.val.clone(),
        test1: pic_data.test1.clone(),
        test2: pic_data.test2.clone(),
    };

    let mut table = Table::new(&[
        "training data",
        "samples",
        "MAE set I",
        "MAE set II",
        "DL-PIC momentum drift",
    ]);
    for (name, data) in [
        ("pic (noisy)", &pic_data),
        ("vlasov (noise-free)", &vlasov_data),
    ] {
        let m = train_arch(
            &scale.mlp_arch(),
            data,
            &Mse,
            scale.mlp_epochs(),
            scale.learning_rate(),
            0xAB5,
            0,
        );
        table.row(&[
            name.into(),
            data.train.len().to_string(),
            format!("{:.5}", m.mae1),
            format!("{:.5}", m.mae2),
            format!("{:.4e}", run_dl_pic_momentum_drift(&m)),
        ]);
    }
    println!("{}", table.render());
    println!("(evaluation is on PIC-generated test sets in both rows — the\n inference-time distribution; paper SVII conjectures the Vlasov route)\n");
    out.push(format!("data:\n{}", table.to_csv()));
}

fn ablation_temporal(scale: Scale, out: &mut Vec<String>) {
    println!("-- ablation: time-sequence inputs (paper SVII ResNet conjecture) --");
    let spec = scale.phase_spec();
    let binning = BinningShape::Ngp;
    let ppc = scale.dataset_ppc();
    let (epochs, hidden) = match scale {
        Scale::Smoke => (20, 64),
        Scale::Scaled => (40, 256),
        Scale::Paper => (80, 1024),
    };

    // Time-ordered runs, one store each, captured after every step: a
    // small sweep for training, one unseen seed held out for evaluation.
    let trace = |v0, seed| {
        let mut run = PhaseDataset::new(spec, binning, 64);
        let cfg = reduced_config(v0, 0.005, ppc, 200, seed);
        harvest(
            cfg,
            TraditionalSolver::paper_default(),
            Capture::AfterStep,
            &mut run,
        );
        run
    };
    let mut train_traces = Vec::new();
    for &v0 in &[0.18, 0.2] {
        for seed in 0..2u64 {
            train_traces.push(trace(v0, seed));
        }
    }
    let test_trace = trace(0.2, 77);

    let mut table = Table::new(&[
        "window k",
        "params",
        "held-out MAE",
        "DL-PIC momentum drift",
    ]);
    for window in [1usize, 2, 3] {
        let (mut inputs, targets, n) = windowed_pairs(&train_traces, window);
        let norm = NormStats::from_data(&inputs);
        norm.apply(&mut inputs);
        let in_len = window * spec.cells();
        let ds = Dataset::new(
            Tensor::new(inputs, &[n, in_len]),
            Tensor::new(targets, &[n, 64]),
        );
        let arch = ArchSpec::Mlp {
            input: in_len,
            hidden: vec![hidden],
            output: 64,
        };
        let mut net = arch.build(0xC0FE);
        let mut opt = Adam::new(scale.learning_rate());
        let tc = TrainConfig {
            epochs,
            batch_size: 64,
            shuffle_seed: 0xC0FE,
            log_every: 0,
        };
        train(&mut net, &Mse, &mut opt, &ds, None, &tc);
        let params = net.param_count();

        // Held-out MAE on the unseen-seed trace.
        let (mut tin, ttar, tn) = windowed_pairs(std::slice::from_ref(&test_trace), window);
        norm.apply(&mut tin);
        let mut err = 0.0f64;
        for i in 0..tn {
            let x = Tensor::new(tin[i * in_len..(i + 1) * in_len].to_vec(), &[1, in_len]);
            let pred = net.predict(&x).into_data();
            for (p, t) in pred.iter().zip(&ttar[i * 64..(i + 1) * 64]) {
                err += (*p as f64 - *t as f64).abs();
            }
        }
        let mae = err / (tn * 64) as f64;

        // In-loop conservation at the validation parameters.
        let solver = TemporalDlSolver::new(net, spec, binning, norm, window);
        let mut sim = Simulation::new(paper_config(0.2, 0.025, 99), Box::new(solver));
        sim.run();
        let drift = stats::max_drift(&sim.history().momentum);

        table.row(&[
            window.to_string(),
            params.to_string(),
            format!("{mae:.5}"),
            format!("{drift:.2e}"),
        ]);
    }
    println!("{}", table.render());
    println!("(k = 1 is the paper's method; larger k feeds the network history)\n");
    out.push(format!("temporal:\n{}", table.to_csv()));
}

fn main() {
    let (scale, only) = parse_args();
    println!("== ablation studies [{} scale] ==\n", scale.name());
    let mut csv_chunks = Vec::new();
    let want = |name: &str| only.as_deref().map(|o| o == name).unwrap_or(true);
    if want("binning") {
        ablation_binning(scale, &mut csv_chunks);
    }
    if want("physics") {
        ablation_physics(scale, &mut csv_chunks);
    }
    if want("arch") {
        ablation_arch(scale, &mut csv_chunks);
    }
    if want("grid") {
        ablation_grid(scale, &mut csv_chunks);
    }
    if want("data") {
        ablation_data(scale, &mut csv_chunks);
    }
    if want("temporal") {
        ablation_temporal(scale, &mut csv_chunks);
    }
    let path = out_dir().join(format!("ablations-{}.csv", scale.name()));
    std::fs::write(&path, csv_chunks.join("\n")).expect("write CSV");
    println!("wrote {}", path.display());
}
