//! Golden histories: every backend's `EnergyHistory`, bit for bit, against
//! files committed under `tests/golden/` — the net under any refactor that
//! promises "same bits out" (the code diet of ROADMAP item 6, the 1-D/2-D
//! merge of item 5).
//!
//! Each run is a short registry spec resized to at least 2¹⁵ particles (per
//! rank, for the distributed backend), so kernels whose behaviour once
//! depended on a particle-count threshold are exercised above it. The DL
//! backends run on the engine's seeded untrained fallback: no training, no
//! cache, same weights every time.
//!
//! Training has its own golden, `trained.txt`: the smoke MLP, ResMlp and
//! CNN, each trained for two epochs of batch 64 on the smoke training
//! sweep, as the length and hash of their `params_to_bytes` (after a line
//! pinning the sweep's own bytes), through `dataset::fit`, the trainer the
//! quick-trains and the bench share. Any kernel on the training path — the
//! `tn`/`nt` GEMMs, the conv kernels, Adam — must leave it untouched.
//! Beside it, `table_i.txt` holds the paper's Table I columns for the same
//! three trained networks on the smoke set — `metrics::evaluate`'s MAE and
//! max error, and `per_output_mae` — so the inference path (dense, relu,
//! conv, max-pool, flatten, residual) is pinned bit for bit too.
//!
//! `dl_2d_trained.txt` pins the 2-D pipeline the same way: the bytes of a
//! tiny 8×8 harvest (CIC density rows captured after each step) and the
//! model trained on it, as its loss curve, reference mass and its output
//! on every harvested row.
//!
//! The files hold IEEE-754 bit patterns as hex, one value per line, so a
//! diff names the first sample that moved. They were recorded on x86-64
//! Linux; the particle loaders call `sin`/`ln`, so another platform's libm
//! may legitimately differ in the last place.
//!
//! To re-record after an *intended* numerical change:
//! `cargo test --release --test golden_histories -- --ignored regenerate`.

use dlpic_repro::core::phase_space::PhaseGridSpec;
use dlpic_repro::core::twod::arch_2d;
use dlpic_repro::core::{ArchSpec, DensityBinning, FrozenBundle, Scale};
use dlpic_repro::dataset::generator::{generate, GeneratorConfig};
use dlpic_repro::dataset::spec::{SweepCombo, SweepSpec};
use dlpic_repro::dataset::store;
use dlpic_repro::dataset::vlasov_bridge::{generate_vlasov, VlasovDatasetConfig};
use dlpic_repro::dataset::{fit, harvest, Capture, PhaseDataset};
use dlpic_repro::engine::{
    self, Backend, DomainSpec, EnergyHistory, Engine, LoadingSpec, Numerics1D,
};
use dlpic_repro::nn::metrics::{evaluate, per_output_mae};
use dlpic_repro::nn::serialize::params_to_bytes;
use dlpic_repro::nn::{Dataset, Mse, Precision, PredictWorkspace, Sequential, TrainConfig};
use dlpic_repro::pic::init::Loading;
use dlpic_repro::pic::simulation::{PicConfig, Simulation};
use dlpic_repro::pic::solver::{PoissonKind, TraditionalSolver};
use dlpic_repro::pic::Shape;
use dlpic_repro::pic::{Grid2D, TwoStream2DInit};
use std::fmt::Write as _;
use std::path::PathBuf;

const STEPS: usize = 20;

/// One golden case: file stem, scenario, particles per cell, numerics,
/// backend. 64 cells × 512 = 2¹⁵ particles in 1-D; 32×32 cells × 32 in
/// 2-D; the two-rank run triples the load so each rank holds well over 2¹⁵.
type Case = (
    &'static str,
    &'static str,
    usize,
    fn() -> Numerics1D,
    Backend,
);

#[rustfmt::skip]
const CASES: [Case; 8] = [
    ("traditional_1d_cic_fd", "two_stream", 512, Numerics1D::default, Backend::Traditional1D),
    ("traditional_1d_ngp_fd", "two_stream", 512, Numerics1D::basic_ngp, Backend::Traditional1D),
    ("traditional_1d_cic_spectral", "two_stream", 512, spectral, Backend::Traditional1D),
    ("traditional_2d", "two_stream_2d", 32, Numerics1D::default, Backend::Traditional2D),
    ("dl_1d_untrained", "two_stream", 512, Numerics1D::default, Backend::Dl1D),
    ("dl_2d_untrained", "two_stream_2d", 32, Numerics1D::default, Backend::Dl2D),
    ("vlasov", "two_stream", 512, Numerics1D::default, Backend::Vlasov),
    ("ddecomp_2ranks", "two_stream", 1536, Numerics1D::default, Backend::Ddecomp { n_ranks: 2 }),
];

/// The engine's 2-D backends deposit and gather with CIC only, so the
/// other two shapes' 2-D kernels are pinned through `Simulation<Grid2D>`
/// directly: the `traditional_2d` spec with `TraditionalSolver<Grid2D>` on the
/// spectral Poisson solve and the matching gather shape.
const SHAPES_2D: [(&str, Shape); 2] = [
    ("traditional_2d_ngp", Shape::Ngp),
    ("traditional_2d_tsc", Shape::Tsc),
];

fn spectral() -> Numerics1D {
    Numerics1D {
        poisson: PoissonKind::Spectral,
        ..Numerics1D::default()
    }
}

fn run(&(stem, scenario, ppc, numerics, backend): &Case) -> EnergyHistory {
    let mut spec = engine::scenario(scenario, Scale::Smoke).unwrap();
    spec.ppc = ppc;
    spec.n_steps = STEPS;
    assert!(spec.n_particles() >= 1 << 15);
    Engine::new()
        .with_numerics_1d(numerics())
        .run(&spec, backend)
        .unwrap_or_else(|e| panic!("{stem}: {e}"))
        .history
}

/// The `traditional_2d` run at `shape`, as the engine would record it:
/// `Simulation::run`'s steps plus final snapshot, the `(m, 0)` modes
/// reported as mode `m`.
fn run_2d(shape: Shape) -> EnergyHistory {
    let mut spec = engine::scenario("two_stream_2d", Scale::Smoke).unwrap();
    spec.ppc = 32;
    spec.n_steps = STEPS;
    let DomainSpec::TwoD { nx, ny, lx, ly } = spec.domain else {
        unreachable!("two_stream_2d is 2-D")
    };
    let (v0, vth) = spec.species.as_two_stream().unwrap();
    let loading = match spec.loading {
        LoadingSpec::Random => Loading::Random,
        LoadingSpec::Quiet { mode, amplitude } => Loading::Quiet { mode, amplitude },
    };
    let cfg = PicConfig {
        grid: Grid2D::new(nx, ny, lx, ly),
        init: Some(TwoStream2DInit {
            v0,
            vth,
            n_particles: spec.n_particles(),
            loading,
            seed: spec.seed,
        }),
        dt: spec.dt,
        n_steps: spec.n_steps,
        gather_shape: shape,
        tracked_modes: spec.tracked_modes.iter().map(|&m| (m, 0)).collect(),
    };
    let solver = TraditionalSolver::<Grid2D>::new(shape, PoissonKind::Spectral, 1.0);
    let mut sim = Simulation::new(cfg, Box::new(solver));
    sim.run();
    let h = sim.history();
    EnergyHistory {
        times: h.times.clone(),
        kinetic: h.kinetic.clone(),
        field: h.field.clone(),
        total: h.total.clone(),
        momentum: h.momentum.clone(),
        tracked_modes: spec.tracked_modes.clone(),
        mode_amps: h.mode_amps.clone(),
    }
}

/// The history as text: a `# series` header per column, then one 16-digit
/// hex bit pattern per sample.
fn render(history: &EnergyHistory) -> String {
    let mut out = String::new();
    let mut series = |name: &str, values: &[f64]| {
        writeln!(out, "# {name}").unwrap();
        for v in values {
            writeln!(out, "{:016x}", v.to_bits()).unwrap();
        }
    };
    series("times", &history.times);
    series("kinetic", &history.kinetic);
    series("field", &history.field);
    series("total", &history.total);
    series("momentum", &history.momentum);
    for (mode, amps) in history.tracked_modes.iter().zip(&history.mode_amps) {
        series(&format!("mode {mode}"), amps);
    }
    out
}

/// FNV-1a over a byte string: the datasets are tens of kilobytes, so their
/// golden is a length and a hash rather than the bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `dataset::generate` and `generate_vlasov` on a two-combo sweep, as the
/// length and hash of their `store::encode` bytes.
fn render_datasets() -> String {
    let sweep = SweepSpec {
        combos: vec![
            SweepCombo { v0: 0.2, vth: 0.0 },
            SweepCombo {
                v0: 0.15,
                vth: 0.01,
            },
        ],
        experiments_per_combo: 2,
        steps: 6,
        base_seed: 7,
    };
    let mut pic_cfg = GeneratorConfig::new(sweep.clone(), PhaseGridSpec::smoke());
    pic_cfg.ppc = 512;
    let pic = store::encode(&generate(&pic_cfg));
    let vlasov_cfg =
        VlasovDatasetConfig::new(sweep, PhaseGridSpec::new(32, 32, -0.8, 0.8), 64_000.0);
    let vlasov = store::encode(&generate_vlasov(&vlasov_cfg));
    format!(
        "generate {} {:016x}\ngenerate_vlasov {} {:016x}\n",
        pic.len(),
        fnv1a(&pic),
        vlasov.len(),
        fnv1a(&vlasov)
    )
}

/// Seed of every trained golden network's initialisation and shuffles.
const TRAIN_SEED: u64 = 3;

/// The smoke training sweep, as `quick_train_1d` harvests it at
/// `Scale::Smoke`: 320 samples on the 16×16 phase grid.
fn smoke_training_set() -> PhaseDataset {
    let scale = Scale::Smoke;
    let mut cfg = GeneratorConfig::new(SweepSpec::training_for(scale), scale.phase_spec());
    cfg.ppc = scale.dataset_ppc();
    generate(&cfg)
}

/// `data` normalised as the engine normalises it, in `arch`'s input layout.
fn smoke_nn_set(arch: &ArchSpec, data: &PhaseDataset) -> Dataset {
    data.to_nn_dataset(&data.input_norm_stats(), arch.input_kind())
}

/// `arch` at `TRAIN_SEED`, trained for two epochs of batch-64 Adam on
/// `data` by the trainer every quick-train runs.
fn train_smoke(arch: &ArchSpec, data: &PhaseDataset) -> Sequential {
    let cfg = TrainConfig {
        epochs: 2,
        batch_size: 64,
        shuffle_seed: TRAIN_SEED,
        log_every: 0,
    };
    fit(arch, data, &Mse, None, Scale::Smoke.learning_rate(), &cfg).net
}

/// The smoke sweep's bytes, then each smoke architecture's trained
/// parameters, as lengths and hashes.
fn render_trained() -> String {
    let data = smoke_training_set();
    let bytes = store::encode(&data);
    let mut out = format!("dataset {} {:016x}\n", bytes.len(), fnv1a(&bytes));
    let scale = Scale::Smoke;
    for arch in [scale.mlp_arch(), scale.resmlp_arch(), scale.cnn_arch()] {
        let params = params_to_bytes(&mut train_smoke(&arch, &data));
        writeln!(
            out,
            "{} {} {:016x}",
            arch.kind_name(),
            params.len(),
            fnv1a(&params)
        )
        .unwrap();
    }
    out
}

/// The paper's Table I columns for each trained smoke architecture on the
/// smoke set: `evaluate`'s MAE and max error as f32 bit patterns, then
/// `per_output_mae`, one f64 bit pattern per output cell. Batches of 100
/// leave a short last batch (320 = 3·100 + 20).
fn render_table_i() -> String {
    let data = smoke_training_set();
    let scale = Scale::Smoke;
    let mut out = String::new();
    for arch in [scale.mlp_arch(), scale.resmlp_arch(), scale.cnn_arch()] {
        let mut net = train_smoke(&arch, &data);
        let set = smoke_nn_set(&arch, &data);
        let (mae, max) = evaluate(&mut net, &set, 100);
        writeln!(
            out,
            "# {} mae {:08x} max {:08x}",
            arch.kind_name(),
            mae.to_bits(),
            max.to_bits()
        )
        .unwrap();
        for v in per_output_mae(&mut net, &set, 100) {
            writeln!(out, "{:016x}", v.to_bits()).unwrap();
        }
    }
    out
}

/// The 2-D pipeline at test size: two seeded 12-step runs of an 8×8
/// two-stream, harvested as CIC density rows after each step, then a
/// 64→16→128 MLP trained on them for three epochs. Lines: the harvest's
/// bytes (every input row, then every `[Ex | Ey]` row, as f32 LE — the
/// sample store's layout), the loss curve's f64 bits, the reference mass,
/// and the frozen model's output on every harvested row (the frozen form
/// does not expose its weights; at f32 it predicts the trained network's
/// bits, so these pin them).
fn render_dl_2d_trained() -> String {
    let grid = Grid2D::new(8, 8, 2.0532, 2.0532);
    let config = |seed| PicConfig {
        grid: grid.clone(),
        init: Some(TwoStream2DInit::quiet(0.2, 0.0, 2048, 1e-2, seed)),
        dt: 0.2,
        n_steps: 12,
        gather_shape: Shape::Cic,
        tracked_modes: vec![],
    };
    let mut data = PhaseDataset::new(grid.clone(), DensityBinning::Cic, 2 * grid.nodes());
    for seed in [1, 2] {
        let solver = TraditionalSolver::default_config();
        harvest(config(seed), solver, Capture::AfterStep, &mut data);
    }
    let le = |values: &[f32]| -> Vec<u8> { values.iter().flat_map(|v| v.to_le_bytes()).collect() };
    let harvest = [le(data.inputs()), le(data.targets())].concat();

    let tc = TrainConfig {
        epochs: 3,
        batch_size: 8,
        shuffle_seed: 5,
        log_every: 0,
    };
    let arch = arch_2d(grid.nodes(), vec![16]);
    let trained = fit(&arch, &data, &Mse, None, 1e-3, &tc);
    let frozen: FrozenBundle<Grid2D> = trained
        .freeze(DensityBinning::Cic, "dl-2d-mlp", Precision::F32)
        .expect("a finite MLP freezes");
    let history = &trained.history;
    let loss: Vec<u8> = history
        .train_loss
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    let mass = frozen.solver().reference_mass();

    let x = data.to_nn_dataset(&trained.norm, arch.input_kind()).x;
    let mut workspace = PredictWorkspace::new();
    let predicted = le(frozen.model().predict_into(&x, &mut workspace).data());
    format!(
        "harvest {} {:016x}\nloss {} {:016x}\nreference_mass {:08x}\npredict {} {:016x}\n",
        harvest.len(),
        fnv1a(&harvest),
        history.train_loss.len(),
        fnv1a(&loss),
        mass.to_bits(),
        predicted.len(),
        fnv1a(&predicted)
    )
}

fn golden_path(stem: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{stem}.txt"))
}

fn assert_matches_golden(stem: &str, actual: &str) {
    let path = golden_path(stem);
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e} (see the module doc to record it)", path.display()));
    if golden == actual {
        return;
    }
    let line = golden
        .lines()
        .zip(actual.lines())
        .position(|(g, a)| g != a)
        .unwrap_or_else(|| golden.lines().count().min(actual.lines().count()))
        + 1;
    panic!(
        "{stem}: differs from {} first at line {line}",
        path.display()
    );
}

#[test]
fn every_backend_reproduces_its_golden_history() {
    for case in &CASES {
        assert_matches_golden(case.0, &render(&run(case)));
    }
}

#[test]
fn every_2d_shape_reproduces_its_golden_history() {
    for (stem, shape) in SHAPES_2D {
        assert_matches_golden(stem, &render(&run_2d(shape)));
    }
}

#[test]
fn dataset_generators_reproduce_their_golden_bytes() {
    assert_matches_golden("datasets", &render_datasets());
}

#[test]
fn training_reproduces_its_golden_parameters() {
    assert_matches_golden("trained", &render_trained());
}

#[test]
fn dl_2d_training_reproduces_its_golden_bits() {
    assert_matches_golden("dl_2d_trained", &render_dl_2d_trained());
}

#[test]
fn evaluation_reproduces_its_golden_table_i() {
    assert_matches_golden("table_i", &render_table_i());
}

/// ROADMAP item 4's premise, pinned: an input bin that is empty in every
/// training sample normalises to exactly `0.0`, so the first-layer weight
/// row it multiplies gets a `+0.0` gradient in every batch, and Adam (no
/// weight decay) leaves it where the initialisation put it — bit for bit.
#[test]
fn never_occupied_bins_keep_their_initial_first_layer_rows() {
    let data = smoke_training_set();
    let arch = Scale::Smoke.mlp_arch();
    let train_set = smoke_nn_set(&arch, &data);
    let cells = arch.input_len();
    let never: Vec<usize> = (0..cells)
        .filter(|&i| (0..train_set.len()).all(|r| train_set.x.row(r)[i] == 0.0))
        .collect();
    assert!(!never.is_empty(), "the smoke sweep occupies every bin");
    assert!(never.len() < cells, "the smoke sweep occupies no bin");

    // The first visited parameter is the first layer's `[in, out]` weights.
    let first_weights = |net: &mut Sequential| {
        let mut w = None;
        net.visit_params(&mut |p, _| {
            w.get_or_insert_with(|| p.to_vec());
        });
        w.expect("the MLP has parameters")
    };
    let initial = first_weights(&mut arch.build(TRAIN_SEED));
    let trained = first_weights(&mut train_smoke(&arch, &data));
    let width = initial.len() / cells;
    let row = |w: &[f32], i: usize| {
        w[i * width..(i + 1) * width]
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>()
    };
    for &i in &never {
        assert_eq!(
            row(&trained, i),
            row(&initial, i),
            "never-occupied bin {i} moved"
        );
    }
    // And training did move the others.
    assert!((0..cells).any(|i| row(&trained, i) != row(&initial, i)));
}

#[test]
#[ignore = "rewrites tests/golden/; run by hand after an intended numerical change"]
fn regenerate() {
    for case in &CASES {
        std::fs::write(golden_path(case.0), render(&run(case))).unwrap();
    }
    for (stem, shape) in SHAPES_2D {
        std::fs::write(golden_path(stem), render(&run_2d(shape))).unwrap();
    }
    std::fs::write(golden_path("datasets"), render_datasets()).unwrap();
    std::fs::write(golden_path("trained"), render_trained()).unwrap();
    std::fs::write(golden_path("table_i"), render_table_i()).unwrap();
    std::fs::write(golden_path("dl_2d_trained"), render_dl_2d_trained()).unwrap();
}
