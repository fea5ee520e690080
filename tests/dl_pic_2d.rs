//! End-to-end test of the 2-D extension: harvest training data from
//! traditional 2-D PIC runs, train the 2-D DL field solver, drop it into
//! the shared 2-D simulation loop and verify it reproduces the physics —
//! the 2-D version of the paper's whole pipeline (Figs. 2–4).

use dlpic_repro::analytics::dispersion::TwoStreamDispersion;
use dlpic_repro::analytics::fit::{fit_growth_rate, GrowthFitOptions};
use dlpic_repro::core::twod::arch_2d;
use dlpic_repro::core::{DensityBinning, FrozenBundle};
use dlpic_repro::dataset::{fit, harvest, Capture, PhaseDataset, Trained};
use dlpic_repro::nn::{Mse, Precision, TrainConfig};
use dlpic_repro::pic::init2d::TwoStream2DInit;
use dlpic_repro::pic::shape::Shape;
use dlpic_repro::pic::simulation::{PicConfig, Simulation};
use dlpic_repro::pic::solver::FieldSolver;
use dlpic_repro::pic::solver::TraditionalSolver;
use dlpic_repro::pic::Grid2D;

fn grid() -> Grid2D {
    Grid2D::new(16, 16, 2.0532, 2.0532)
}

/// Harvests the `config(0.2, 0.0, n_steps, seed)` run of each seed (CIC
/// density rows after each step), then trains a 256→128→512 MLP on them
/// with Adam at 1e-3, batch 32, for `epochs` epochs seeded by `train_seed`.
fn train_2d(seeds: &[u64], n_steps: usize, epochs: usize, train_seed: u64) -> Trained {
    let g = grid();
    let mut data = PhaseDataset::new(g.clone(), DensityBinning::Cic, 2 * g.nodes());
    for &seed in seeds {
        let solver = TraditionalSolver::default_config();
        harvest(
            config(0.2, 0.0, n_steps, seed),
            solver,
            Capture::AfterStep,
            &mut data,
        );
    }
    let tc = TrainConfig {
        epochs,
        batch_size: 32,
        shuffle_seed: train_seed,
        ..TrainConfig::default()
    };
    fit(&arch_2d(g.nodes(), vec![128]), &data, &Mse, None, 1e-3, &tc)
}

fn freeze(trained: &Trained) -> FrozenBundle<Grid2D> {
    trained
        .freeze(DensityBinning::Cic, "dl-2d-mlp", Precision::F32)
        .expect("a finite MLP freezes")
}

fn config(v0: f64, vth: f64, n_steps: usize, seed: u64) -> PicConfig<Grid2D> {
    PicConfig {
        grid: grid(),
        init: Some(TwoStream2DInit::quiet(v0, vth, 16_384, 1e-3, seed)),
        dt: 0.2,
        n_steps,
        gather_shape: Shape::Cic,
        tracked_modes: vec![(1, 0)],
    }
}

#[test]
fn trained_2d_solver_reproduces_two_stream_growth() {
    // Training data: three seeds of the validation configuration (the
    // same augmentation-by-seed idea as the paper's §IV.A.1 sweep,
    // shrunk to test size).
    let trained = train_2d(&[1, 2, 3], 160, 60, 7);
    let final_loss = trained.history.final_loss().unwrap();
    assert!(final_loss.is_finite() && final_loss > 0.0);

    // Evaluate in the loop on an unseen seed.
    let mut dl = Simulation::new(
        config(0.2, 0.0, 160, 99),
        Box::new(freeze(&trained).solver()),
    );
    dl.run();
    let h = dl.history();
    assert!(
        h.total.iter().all(|e| e.is_finite()),
        "energy stayed finite"
    );

    let theory = TwoStreamDispersion::new(0.2).growth_rate(3.06);
    let e10 = h.mode_series((1, 0)).unwrap();
    let fit = fit_growth_rate(&e10.times, &e10.values, GrowthFitOptions::default())
        .expect("growth phase detected in DL-PIC 2D");
    let rel = (fit.gamma - theory).abs() / theory;
    assert!(
        rel < 0.35,
        "DL-PIC 2D γ = {} vs theory {theory} ({:.0}% off, r² = {})",
        fit.gamma,
        rel * 100.0,
        fit.r2
    );
    // The γ bound alone passes fits that barely track an exponential.
    assert!(fit.r2 >= 0.9, "DL-PIC 2D growth fit r² = {}", fit.r2);
}

#[test]
fn dl_2d_field_error_is_small_against_traditional() {
    // Train on two seeds, compare predicted vs Poisson fields along a
    // trajectory from a third seed — the 2-D analogue of Table I's MAE.
    let g = grid();
    let mut solver = freeze(&train_2d(&[5, 6], 120, 50, 3)).solver();

    // Drive a traditional run and query both solvers on the same states.
    let mut sim = Simulation::new(
        config(0.2, 0.0, 120, 42),
        Box::new(TraditionalSolver::<Grid2D>::default_config()),
    );
    let mut abs_err_sum = 0.0f64;
    let mut count = 0usize;
    let mut field_scale = 0.0f64;
    for step in 0..120 {
        sim.step();
        if step % 10 != 0 {
            continue;
        }
        // Both fields are `[Ex | Ey]` stacked.
        let mut e_dl = vec![0.0; 2 * g.nodes()];
        solver.solve(sim.particles(), &g, &mut e_dl);
        for (a, b) in e_dl.iter().zip(sim.efield()) {
            abs_err_sum += (a - b).abs();
            field_scale = field_scale.max(b.abs());
            count += 1;
        }
    }
    let mae = abs_err_sum / count as f64;
    // Paper Table I: MAE ≈ 2% of the max field. The shrunken 2-D model is
    // given more headroom; the point is order-of-magnitude fidelity.
    assert!(
        mae < 0.15 * field_scale,
        "2-D DL MAE {mae} too large vs field scale {field_scale}"
    );
}
