//! Lockstep backend comparison: the paper's figure methodology as one
//! call. Runs the two-stream scenario on the traditional 1-D solver (the
//! reference), the DL solver and the continuum Vlasov solver on identical
//! specs, stepping all three side by side, and prints the per-step
//! residuals and per-backend growth rates.
//!
//! ```sh
//! cargo run --release --example lockstep_compare
//! DLPIC_SCALE=scaled cargo run --release --example lockstep_compare
//! ```

use dlpic_repro::analytics::dispersion::TwoStreamDispersion;
use dlpic_repro::core::Scale;
use dlpic_repro::engine::{self, compare, Backend, EngineError, SpeciesSpec};

fn main() -> Result<(), EngineError> {
    let spec = engine::scenario("two_stream", Scale::from_env_or(Scale::Smoke))?;
    let backends = [Backend::Traditional1D, Backend::Dl1D, Backend::Vlasov];
    println!(
        "lockstep `{}`: {} steps on {:?}\n",
        spec.name, spec.n_steps, backends
    );

    let report = compare::lockstep(&spec, &backends)?;

    println!("per-step residuals vs {}:", report.reference);
    for diff in &report.diffs {
        println!(
            "  {:<14} max |ΔE_tot|/E = {:.3e}   max |ΔE1| = {:.3e}",
            diff.backend,
            diff.max_total_energy_rel(),
            diff.max_mode_amp_abs(0).unwrap_or(0.0),
        );
    }

    let theory = match spec.species {
        SpeciesSpec::TwoStream { v0, .. } => Some(
            TwoStreamDispersion::new(v0).mode_growth_rate(1, 2.0 * std::f64::consts::PI / 3.06),
        ),
        _ => None,
    };
    println!("\nE1 growth rates (Table 1's comparison):");
    for (backend, gamma) in report.growth_rates(1) {
        match gamma {
            Ok(g) => {
                print!("  {backend:<14} γ = {g:.4}");
                if let Some(th) = theory {
                    print!("   [theory {th:.4}, {:+.1}%]", (g - th) / th * 100.0);
                }
                println!();
            }
            Err(e) => println!("  {backend:<14} no fit ({e})"),
        }
    }

    println!("\nwall time per backend:");
    for s in &report.summaries {
        println!("  {:<14} {:.3}s", s.backend, s.wall_seconds);
    }
    Ok(())
}
