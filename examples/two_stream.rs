//! Traditional vs DL-based PIC on the two-stream instability — the
//! paper's headline validation (Figs. 4–5), on the engine facade.
//!
//! Both methods run the *same* [`ScenarioSpec`] from the registry; only
//! the [`Backend`] value differs. The DL model comes from the bundle
//! written by `train_field_solver` when available, else a quick one is
//! trained on the spot.
//!
//! ```sh
//! cargo run --release --example train_field_solver   # once (optional)
//! cargo run --release --example two_stream
//! ```

use dlpic_repro::analytics::dispersion::TwoStreamDispersion;
use dlpic_repro::analytics::plot::{line_plot, scatter_density, PlotOptions};
use dlpic_repro::core::{ModelBundle, Scale};
use dlpic_repro::engine::{self, Backend, Engine, EngineError};

/// Loads a cached example bundle, else trains a quick smoke-scale one.
fn load_bundle() -> ModelBundle {
    for name in [
        "out/models/example-mlp-scaled.dlpb",
        "out/models/mlp-scaled.dlpb",
        "out/models/example-mlp-smoke.dlpb",
        "out/models/mlp-smoke.dlpb",
    ] {
        if let Ok(b) = ModelBundle::load(name) {
            println!("using model {name}");
            return b;
        }
    }
    println!("no cached model found; training a quick smoke-scale one...");
    engine::dl::quick_train_1d(Scale::Smoke, 1)
}

fn main() -> Result<(), EngineError> {
    println!("== two-stream instability: traditional vs DL-based PIC ==\n");

    // The registry scenario, sized up for a physical comparison: 500
    // particles/cell keeps the example under a few seconds.
    let mut spec = engine::scenario("two_stream", Scale::Smoke)?;
    spec.ppc = 500;
    spec.n_steps = 200;
    spec.seed = 7;

    let mut eng = Engine::new().with_model_1d(load_bundle());
    let trad = eng.run(&spec, Backend::Traditional1D)?;
    let dl = eng.run(&spec, Backend::Dl1D)?;

    // Phase space at t = 40 (the paper's Fig. 4 top panels).
    let l = dlpic_repro::pic::constants::paper_box_length();
    for summary in [&trad, &dl] {
        if let Some(ps) = &summary.phase_space {
            println!(
                "{}",
                scatter_density(
                    &ps.x,
                    &ps.v,
                    (0.0, l),
                    (-0.4, 0.4),
                    64,
                    14,
                    &format!("{} (t = 40)", summary.backend),
                )
            );
        }
    }

    // E1 growth (Fig. 4 bottom).
    let mut e1t = trad.history.mode_series(1).expect("mode 1 tracked");
    e1t.name = "traditional".into();
    let mut e1d = dl.history.mode_series(1).expect("mode 1 tracked");
    e1d.name = "dl-based".into();
    println!(
        "{}",
        line_plot(
            &[('*', &e1t), ('o', &e1d)],
            &PlotOptions::titled("E1 amplitude (log)").log_y(true)
        )
    );

    let gamma = TwoStreamDispersion::new(0.2).mode_growth_rate(1, l);
    println!("growth rates (theory γ = {gamma:.4}):");
    for summary in [&trad, &dl] {
        match summary.growth_rate(1) {
            Ok(f) => println!(
                "  {:<14}: γ = {:.4} ({:+.1}% vs theory)",
                summary.backend,
                f.gamma,
                (f.gamma - gamma) / gamma * 100.0
            ),
            Err(e) => println!("  {:<14}: no growth fit ({e})", summary.backend),
        }
    }

    println!("\nconservation:");
    println!(
        "  energy variation : traditional {:.2}%, dl-based {:.2}%",
        trad.energy_variation() * 100.0,
        dl.energy_variation() * 100.0
    );
    println!(
        "  momentum drift   : traditional {:.2e}, dl-based {:.2e}",
        trad.momentum_drift(),
        dl.momentum_drift()
    );
    println!("\n(the paper's full-scale version of this comparison: `cargo run --release --bin repro -- --rows fig4`)");
    Ok(())
}
