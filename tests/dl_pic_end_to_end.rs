//! Integration test: the complete DL-PIC loop — generate data, train a
//! small MLP, bundle it, and run the DL-based simulation (the paper's
//! Fig. 2 cycle) — verifying stability and qualitative agreement with the
//! traditional method.

use dlpic_repro::core::phase_space::BinningShape;
use dlpic_repro::core::{ModelBundle, Scale};
use dlpic_repro::dataset::generator::{generate, GeneratorConfig};
use dlpic_repro::dataset::spec::SweepSpec;
use dlpic_repro::nn::trainer::{train, TrainConfig};
use dlpic_repro::nn::{Adam, Mse};
use dlpic_repro::pic::presets::reduced_config;
use dlpic_repro::pic::simulation::Simulation;
use dlpic_repro::pic::solver::TraditionalSolver;

/// Trains a quick smoke-scale MLP and returns its bundle.
fn train_smoke_bundle() -> ModelBundle {
    let scale = Scale::Smoke;
    let mut cfg = GeneratorConfig::new(SweepSpec::training_for(scale), scale.phase_spec());
    cfg.ppc = scale.dataset_ppc();
    let data = generate(&cfg);
    let norm = data.input_norm_stats();
    let arch = scale.mlp_arch();
    let mut net = arch.build(11);
    let mut opt = Adam::new(scale.learning_rate());
    let tc = TrainConfig {
        epochs: 25,
        batch_size: 64,
        shuffle_seed: 2,
        log_every: 0,
    };
    let kind = arch.input_kind();
    train(
        &mut net,
        &Mse,
        &mut opt,
        &data.to_nn_dataset(&norm, kind),
        None,
        &tc,
    );
    let reference_mass: f32 = data.input_row(0).iter().sum();
    ModelBundle::from_network(&mut net, arch, scale.phase_spec(), BinningShape::Ngp, norm)
        .with_reference_mass(reference_mass)
}

#[test]
fn dl_pic_runs_stably_and_tracks_the_instability() {
    let bundle = train_smoke_bundle();

    // Serialize → deserialize → freeze → solver: the full deployment path.
    let decoded = ModelBundle::decode(&bundle.encode()).expect("bundle round trip");
    let dl_solver = decoded.freeze().expect("bundle -> frozen").solver();

    let seed = 77;
    let (ppc, steps) = (200, 150);
    let mut dl = Simulation::new(
        reduced_config(0.2, 0.01, ppc, steps, seed),
        Box::new(dl_solver),
    );
    let mut trad = Simulation::new(
        reduced_config(0.2, 0.01, ppc, steps, seed),
        Box::new(TraditionalSolver::paper_default()),
    );
    dl.run();
    trad.run();

    // 1. Stability: everything finite, particles in the box, velocities
    //    physically bounded (a broken solver slingshots particles).
    assert!(
        dl.efield().iter().all(|v| v.is_finite()),
        "non-finite field"
    );
    let (x, v) = dl.phase_space();
    let l = dl.grid().lx();
    assert!(
        x.iter().all(|&xi| (0.0..l).contains(&xi)),
        "particle escaped"
    );
    let vmax = v.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    assert!(vmax < 2.0, "runaway velocities: {vmax}");

    // 2. Energy stays of the right magnitude. The smoke-quality model's
    //    field noise heats the plasma measurably, so the band is loose —
    //    this check is about catching divergence (orders of magnitude),
    //    which a broken solver produces within a handful of steps.
    let te = &dl.history().total;
    let band = (te[0] * 0.3, te[0] * 4.0);
    assert!(
        te.iter().all(|&e| e > band.0 && e < band.1),
        "energy left [{:.4}, {:.4}]",
        band.0,
        band.1
    );

    // 3. The DL run develops the same instability as the traditional run:
    //    E1 grows well above its floor in both.
    for (name, sim) in [("traditional", &trad), ("dl", &dl)] {
        let e1 = sim.history().mode_series(1).unwrap();
        let floor = e1.values[..5]
            .iter()
            .copied()
            .fold(f64::MIN, f64::max)
            .max(1e-9);
        let peak = e1.values.iter().copied().fold(f64::MIN, f64::max);
        assert!(
            peak > 3.0 * floor,
            "{name}: no growth (floor {floor}, peak {peak})"
        );
    }
}

#[test]
fn dl_solver_predictions_are_deterministic() {
    let bundle = train_smoke_bundle();
    let mut s1 = bundle.freeze().unwrap().solver();
    let mut s2 = bundle.freeze().unwrap().solver();
    use dlpic_repro::pic::solver::FieldSolver as _;
    let grid = dlpic_repro::pic::Grid1D::paper();
    let p = dlpic_repro::pic::TwoStreamInit::random(0.2, 0.0, 2_000, 3).build(&grid);
    let mut e1 = grid.zeros();
    let mut e2 = grid.zeros();
    s1.solve(&p, &grid, &mut e1);
    s2.solve(&p, &grid, &mut e2);
    assert_eq!(e1, e2);
}

#[test]
fn dl_and_traditional_share_the_simulation_harness() {
    // The same PicConfig must drive both solvers (the paper's Fig. 2:
    // only the field solver changes). Histories must be structurally
    // identical.
    let bundle = train_smoke_bundle();
    let cfg = reduced_config(0.15, 0.005, 100, 20, 5);
    let mut dl = Simulation::new(cfg.clone(), Box::new(bundle.freeze().unwrap().solver()));
    let mut trad = Simulation::new(cfg, Box::new(TraditionalSolver::paper_default()));
    dl.run();
    trad.run();
    assert_eq!(dl.history().len(), trad.history().len());
    assert_eq!(dl.history().times, trad.history().times);
    assert_eq!(dl.solver_name(), "dl-mlp");
    assert_eq!(trad.solver_name(), "traditional");
}
