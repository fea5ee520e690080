//! The 2-D extension in action: the registry's `two_stream_2d` scenario
//! (paper §VII's "two-dimensional systems" future-work item) on the
//! engine facade.
//!
//! Two counter-streaming electron beams along `x`, uniform in `y`: the
//! `(kx, ky) = (1, 0)` mode must grow at the 1-D linear-theory rate — the
//! cleanest way to validate a 2-D PIC against closed-form theory. (The
//! transverse-quiescence check — nothing grows in `ky` — lives in the
//! physics verification table, `tests/physics.rs`.)
//!
//! ```sh
//! cargo run --release --example two_stream_2d
//! ```

use dlpic_repro::analytics::dispersion::TwoStreamDispersion;
use dlpic_repro::analytics::plot::{line_plot, PlotOptions};
use dlpic_repro::core::Scale;
use dlpic_repro::engine::{self, Backend, EngineError, LoadingSpec};

fn main() -> Result<(), EngineError> {
    println!("== 2-D extension: two-stream instability in a 2-D box ==\n");

    let mut spec = engine::scenario("two_stream_2d", Scale::Scaled)?;
    spec.ppc = 128; // 131 072 electrons on the 32×32 grid
    spec.n_steps = 200;
    spec.loading = LoadingSpec::Quiet {
        mode: 1,
        amplitude: 1e-4,
    };
    spec.seed = 20210705;
    println!(
        "domain {:?}, {} electrons, backend {}",
        spec.domain,
        spec.n_particles(),
        Backend::Traditional2D
    );

    let start = std::time::Instant::now();
    let summary = engine::run(&spec, Backend::Traditional2D)?;
    println!(
        "ran {} steps to t = {} in {:.2?}\n",
        summary.steps,
        summary.t_end,
        start.elapsed()
    );

    // Growth of the streaming mode vs 1-D theory. In 2-D the engine maps
    // tracked mode m to the (m, 0) mode of Ex — the 1-D physics family.
    let theory = TwoStreamDispersion::new(0.2).growth_rate(dlpic_repro::pic::constants::PAPER_K1);
    let streaming = summary.history.mode_series(1).expect("mode (1,0) tracked");
    let second = summary.history.mode_series(2).expect("mode (2,0) tracked");

    match summary.growth_rate(1) {
        Ok(fit) => {
            println!("streaming mode (1, 0):");
            println!("  1-D linear theory : γ = {theory:.4}");
            println!(
                "  measured (2-D)    : γ = {:.4}  (r² = {:.4})",
                fit.gamma, fit.r2
            );
            println!(
                "  relative error    : {:.1}%\n",
                (fit.gamma - theory).abs() / theory * 100.0
            );
            let energy_var = summary.energy_variation();
            println!(
                "{}",
                line_plot(
                    &[('*', &streaming), ('.', &second)],
                    &PlotOptions::titled("2-D two-stream: (1,0) and (2,0) modes (log)").log_y(true),
                )
            );
            println!("total-energy variation: {:.2}%", 100.0 * energy_var);
            println!("momentum drift (x)    : {:.2e}", summary.momentum_drift());
            let ok = (fit.gamma - theory).abs() / theory < 0.2 && energy_var < 0.05;
            println!(
                "\nverdict: {}",
                if ok {
                    "PASS — 2-D PIC reproduces the 1-D dispersion"
                } else {
                    "CHECK — outside expected bands"
                }
            );
        }
        Err(e) => println!("no growth fit: {e}"),
    }
    Ok(())
}
