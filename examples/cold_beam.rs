//! The cold-beam numerical instability (paper Fig. 6), on the engine
//! facade.
//!
//! The registry's `cold_beam` scenario — two cold beams at `v0 = ±0.4` —
//! is *linearly stable*: physically nothing should happen. The explicit
//! momentum-conserving PIC nevertheless heats (aliasing between beam
//! modes and the grid, Birdsall & Langdon ch. 8). This example
//! demonstrates and quantifies it; when a trained model is cached it also
//! shows the DL-based PIC gliding through unaffected, as the paper
//! reports.
//!
//! ```sh
//! cargo run --release --example cold_beam
//! ```

use dlpic_repro::analytics::dispersion::TwoStreamDispersion;
use dlpic_repro::analytics::plot::{line_plot, scatter_density, PlotOptions};
use dlpic_repro::analytics::stats;
use dlpic_repro::core::{ModelBundle, Scale};
use dlpic_repro::engine::{self, Backend, Engine, EngineError};

fn beam_spread(vs: &[f64]) -> f64 {
    let beam: Vec<f64> = vs.iter().copied().filter(|v| *v > 0.0).collect();
    stats::std_dev(&beam)
}

fn main() -> Result<(), EngineError> {
    println!("== cold-beam numerical instability, v0 = ±0.4, vth = 0 ==\n");

    // Linear theory says: stable.
    let disp = TwoStreamDispersion::new(0.4);
    let l = dlpic_repro::pic::constants::paper_box_length();
    println!("linear growth rates of the first grid modes (all should be 0):");
    for m in 1..=4 {
        println!("  mode {m}: γ = {}", disp.mode_growth_rate(m, l));
    }

    let mut spec = engine::scenario("cold_beam", Scale::Smoke)?;
    spec.ppc = 1000;
    spec.n_steps = 200;
    spec.seed = 13;

    let trad = engine::run(&spec, Backend::Traditional1D)?;
    let ps = trad.phase_space.as_ref().expect("particle backend");
    println!(
        "\n{}",
        scatter_density(
            &ps.x,
            &ps.v,
            (0.0, l),
            (-0.6, 0.6),
            64,
            14,
            "Traditional PIC at t = 40: ripples = numerical instability"
        )
    );

    let te = trad.history.total_energy_series("traditional");
    println!(
        "{}",
        line_plot(
            &[('*', &te)],
            &PlotOptions::titled("Total energy (should be flat!)")
        )
    );
    let spread = beam_spread(&ps.v);
    println!(
        "energy variation  : {:.2}% (paper Fig. 6: visible rise)",
        trad.energy_variation() * 100.0
    );
    println!("beam velocity spread at t = 40: {spread:.4} (started at exactly 0)");

    // DL comparison when a trained model is on disk.
    let model = [
        "out/models/mlp-scaled.dlpb",
        "out/models/example-mlp-scaled.dlpb",
    ]
    .iter()
    .find_map(|p| ModelBundle::load(p).ok());
    match model {
        Some(bundle) => {
            let mut eng = Engine::new().with_model_1d(bundle);
            let dl = eng.run(&spec, Backend::Dl1D)?;
            let dps = dl.phase_space.as_ref().expect("particle backend");
            println!(
                "{}",
                scatter_density(
                    &dps.x,
                    &dps.v,
                    (0.0, l),
                    (-0.6, 0.6),
                    64,
                    14,
                    "DL-based PIC at t = 40: stable against the cold-beam instability"
                )
            );
            println!(
                "DL beam velocity spread: {:.4} vs traditional {spread:.4}",
                beam_spread(&dps.v)
            );
            println!(
                "DL momentum drift      : {:.2e} (the price the paper reports)",
                dl.momentum_drift()
            );
        }
        None => {
            println!("\n(no trained model found — run `--example train_field_solver` or");
            println!(" `cargo run --release --bin repro -- --rows fig6` for the DL comparison)");
        }
    }
    Ok(())
}
