//! **Extension: 2-D systems** — the paper's §VII names "two- and
//! three-dimensional systems" as the next step for the DL-PIC method.
//! This binary runs the full pipeline in 2-D: harvest training data from
//! traditional 2-D PIC runs across a small (v0, seed) sweep, train the
//! 2-D DL field solver (density histogram → `[Ex | Ey]`), and compare the
//! DL-based and traditional 2-D PIC on the two-stream validation run —
//! the 2-D analogue of the paper's Figs. 4–5.
//!
//! Run: `cargo run -p dlpic-bench --release --bin ext2d [--scale ...]`

use dlpic_analytics::dispersion::TwoStreamDispersion;
use dlpic_analytics::fit::{fit_growth_rate, GrowthFitOptions};
use dlpic_analytics::plot::{line_plot, PlotOptions};
use dlpic_analytics::series::{write_csv, Table, TimeSeries};
use dlpic_analytics::stats;
use dlpic_bench::{out_dir, Cli};
use dlpic_core::presets::Scale;
use dlpic_core::twod::{arch_2d, DensityBinning};
use dlpic_dataset::{fit, harvest, Capture, PhaseDataset};
use dlpic_nn::frozen::Precision;
use dlpic_nn::loss::Mse;
use dlpic_nn::trainer::TrainConfig;
use dlpic_pic::init2d::TwoStream2DInit;
use dlpic_pic::shape::Shape;
use dlpic_pic::simulation::{PicConfig, Simulation};
use dlpic_pic::solver::TraditionalSolver;
use dlpic_pic::Grid2D;

/// Experiment sizes per scale: (cells per axis, particles, train seeds,
/// hidden width, epochs).
fn sizing(scale: Scale) -> (usize, usize, usize, usize, usize) {
    match scale {
        Scale::Smoke => (16, 8_192, 2, 96, 40),
        Scale::Scaled => (32, 65_536, 3, 256, 60),
        Scale::Paper => (64, 1 << 20, 6, 1024, 100),
    }
}

fn config(grid: &Grid2D, n_part: usize, v0: f64, vth: f64, seed: u64) -> PicConfig<Grid2D> {
    // Seed amplitude 3e-3: large enough that the instability signal rises
    // above the DL model's prediction floor early (the paper's own Fig. 4
    // shows the DL curve riding a higher floor for the same reason).
    PicConfig {
        grid: grid.clone(),
        init: Some(TwoStream2DInit::quiet(v0, vth, n_part, 3e-3, seed)),
        dt: 0.2,
        n_steps: 200,
        gather_shape: Shape::Cic,
        tracked_modes: vec![(1, 0), (0, 1)],
    }
}

fn main() {
    let cli = Cli::parse();
    let (n_axis, n_part, n_seeds, hidden, epochs) = sizing(cli.scale);
    let grid = Grid2D::new(n_axis, n_axis, 2.0532, 2.0532);
    println!(
        "== Extension: 2-D DL-PIC [{} scale: {n_axis}²(cells) {n_part} particles] ==\n",
        cli.scale.name()
    );

    // 1. Harvest training data: a small sweep over v0 × seeds (the same
    //    augmentation-by-seed procedure as the paper's 1-D dataset).
    eprintln!(
        "harvesting 2-D training data ({n_seeds} seeds × 2 drift speeds × 2 thermal spreads)..."
    );
    let mut data = PhaseDataset::new(grid.clone(), DensityBinning::Cic, 2 * grid.nodes());
    for &v0 in &[0.18, 0.2] {
        for &vth in &[0.0, 0.01] {
            for seed in 0..n_seeds as u64 {
                let cfg = config(&grid, n_part, v0, vth, seed);
                let solver = TraditionalSolver::default_config();
                harvest(cfg, solver, Capture::AfterStep, &mut data);
            }
        }
    }
    eprintln!("  {} samples harvested", data.len());

    // 2. Train.
    eprintln!("training 2-D MLP ({hidden} hidden, {epochs} epochs)...");
    let tc = TrainConfig {
        epochs,
        batch_size: 32,
        shuffle_seed: 7,
        ..TrainConfig::default()
    };
    let arch = arch_2d(grid.nodes(), vec![hidden]);
    let trained = fit(&arch, &data, &Mse, None, 1e-3, &tc);
    let history = &trained.history;
    let frozen = trained.freeze(DensityBinning::Cic, "dl-2d-mlp", Precision::F32);
    let mut solver = frozen.solver();
    eprintln!(
        "  final MSE {:.3e} ({:.1}s)",
        history.final_loss().unwrap_or(f64::NAN),
        history.seconds
    );

    // 3. Validation run on an unseen seed, traditional vs DL.
    let seed = 20210705;
    let (v0, vth) = (0.2, 0.0125);

    // Held-out field accuracy (the 2-D analogue of Table I's MAE): drive a
    // traditional run at the evaluation parameters and compare the DL
    // prediction against the Poisson field on the same states.
    let (field_mae, field_scale) = {
        use dlpic_pic::solver::FieldSolver;
        let mut probe = Simulation::new(
            config(&grid, n_part, v0, vth, seed + 1),
            Box::new(TraditionalSolver::default_config()),
        );
        let mut err_sum = 0.0f64;
        let mut count = 0usize;
        let mut scale = 0.0f64;
        let mut e_dl = vec![0.0; 2 * grid.nodes()];
        for step in 0..200 {
            probe.step();
            if step % 10 != 0 {
                continue;
            }
            solver.solve(probe.particles(), &grid, &mut e_dl);
            // Both fields are `[Ex | Ey]` stacked.
            for (a, b) in e_dl.iter().zip(probe.efield()) {
                err_sum += (a - b).abs();
                scale = scale.max(b.abs());
                count += 1;
            }
        }
        (err_sum / count as f64, scale)
    };
    eprintln!("held-out field MAE {field_mae:.2e} (max |E| = {field_scale:.3})");
    eprintln!("running traditional 2-D PIC (v0 = {v0}, vth = {vth})...");
    let mut trad = Simulation::new(
        config(&grid, n_part, v0, vth, seed),
        Box::new(TraditionalSolver::default_config()),
    );
    trad.run();
    eprintln!("running DL-based 2-D PIC...");
    let mut dl = Simulation::new(config(&grid, n_part, v0, vth, seed), Box::new(solver));
    dl.run();

    // 4. Report: growth of the streaming (1,0) mode vs 1-D linear theory.
    let theory = TwoStreamDispersion::new(v0).growth_rate(3.06);
    let series = |sim: &Simulation<Grid2D>, name: &str| -> TimeSeries {
        let mut series = sim.history().mode_series((1, 0)).expect("mode tracked");
        series.name = name.into();
        series
    };
    let e_trad = series(&trad, "E10-traditional");
    let e_dl = series(&dl, "E10-dl");
    let fit_of = |s: &TimeSeries| fit_growth_rate(&s.times, &s.values, GrowthFitOptions::default());

    println!(
        "{}",
        line_plot(
            &[('*', &e_trad), ('o', &e_dl)],
            &PlotOptions::titled(format!(
                "E(1,0) amplitude - 2D two-stream, v0 = {v0}, vth = {vth}"
            ))
            .log_y(true),
        )
    );

    let mut table = Table::new(&["quantity", "linear theory", "traditional 2D", "DL-based 2D"]);
    let (g_trad, r2_trad) = fit_of(&e_trad)
        .map(|f| (f.gamma, f.r2))
        .unwrap_or((f64::NAN, f64::NAN));
    let (g_dl, r2_dl) = fit_of(&e_dl)
        .map(|f| (f.gamma, f.r2))
        .unwrap_or((f64::NAN, f64::NAN));
    table.row(&[
        "growth rate γ".into(),
        format!("{theory:.4}"),
        format!("{g_trad:.4} (r²={r2_trad:.3})"),
        format!("{g_dl:.4} (r²={r2_dl:.3})"),
    ]);

    let energy_var = |sim: &Simulation<Grid2D>| -> f64 {
        let tot = &sim.history().total;
        stats::relative_variation(tot)
    };
    table.row(&[
        "total-energy variation".into(),
        "0 (exact)".into(),
        format!("{:.2}%", 100.0 * energy_var(&trad)),
        format!("{:.2}%", 100.0 * energy_var(&dl)),
    ]);
    let mom_drift = |sim: &Simulation<Grid2D>| -> f64 {
        let px = &sim.history().momentum;
        px.iter().fold(0.0f64, |m, p| m.max((p - px[0]).abs()))
    };
    table.row(&[
        "max |Δpx|".into(),
        "0 (exact)".into(),
        format!("{:.2e}", mom_drift(&trad)),
        format!("{:.2e}", mom_drift(&dl)),
    ]);
    table.row(&[
        "held-out field MAE".into(),
        "-".into(),
        "(reference)".into(),
        format!(
            "{field_mae:.2e} ({:.1}% of max |E| = {field_scale:.3})",
            100.0 * field_mae / field_scale
        ),
    ]);
    println!("{}", table.render());

    let path = out_dir().join(format!("ext2d-{}.csv", cli.scale.name()));
    let tot_trad = TimeSeries::from_data(
        "energy-traditional",
        trad.history().times.clone(),
        trad.history().total.clone(),
    );
    let tot_dl = TimeSeries::from_data(
        "energy-dl",
        dl.history().times.clone(),
        dl.history().total.clone(),
    );
    write_csv(&path, &[&e_trad, &e_dl, &tot_trad, &tot_dl]).expect("write csv");
    println!("series written to {}", path.display());
}
