//! Landau damping — the second classic kinetic benchmark, via the
//! registry's `landau_damping` scenario on the continuum Vlasov backend.
//!
//! The scenario is a single Maxwellian with `k·λ_D = 0.5` and a quiet
//! mode-1 density perturbation. Linear theory gives the textbook root
//! `ω ≈ 1.4156`, `γ ≈ −0.1533`: the field oscillates at the Langmuir
//! frequency while its envelope decays by collisionless phase mixing —
//! physics no fluid model captures. The same spec runs on the PIC
//! backends too (`Backend::Traditional1D`), where the damping drowns in
//! shot noise — which is exactly the paper §VII's argument for Vlasov
//! training data.
//!
//! ```sh
//! cargo run --release --example landau_damping
//! ```

use dlpic_repro::analytics::fit::fit_damping;
use dlpic_repro::core::Scale;
use dlpic_repro::engine::{self, Backend, EngineError};

/// Textbook least-damped root of the electrostatic dispersion relation at
/// `k·λ_D = 0.5` (e.g. Chen, *Introduction to Plasma Physics*): ω ± iγ.
const OMEGA_THEORY: f64 = 1.4156;
const GAMMA_THEORY: f64 = -0.1533;

fn main() -> Result<(), EngineError> {
    println!("== Landau damping at k·λ_D = 0.5 (Vlasov backend) ==\n");

    // The registry entry at scaled size: dt = 0.1, 350 steps (t = 35,
    // ~5 damping times), 64×256 phase grid.
    let spec = engine::scenario("landau_damping", Scale::Scaled)?;
    println!(
        "spec: Maxwellian vth = {:.4}, quiet mode-1 seed, dt = {}, {} steps",
        match spec.species {
            engine::SpeciesSpec::Maxwellian { vth } => vth,
            _ => unreachable!(),
        },
        spec.dt,
        spec.n_steps
    );

    let start = std::time::Instant::now();
    let summary = engine::run(&spec, Backend::Vlasov)?;
    println!(
        "ran {} Vlasov steps in {:.2?}\n",
        summary.steps,
        start.elapsed()
    );

    // The envelope: local maxima of |E1|(t). |E| peaks twice per wave
    // period, so ω = π / (peak spacing); γ is the slope of ln(peaks).
    let e1 = summary.history.mode_series(1).expect("mode 1 tracked");
    let fit = fit_damping(&e1.times, &e1.values)?;
    let (gamma, omega) = (fit.gamma, fit.omega);

    println!("measured from the E1 envelope ({} peaks):", fit.n_peaks);
    println!(
        "  damping rate γ = {gamma:.4}   (theory {GAMMA_THEORY:.4}, {:+.1}%)",
        100.0 * (gamma - GAMMA_THEORY) / GAMMA_THEORY.abs()
    );
    println!(
        "  frequency    ω = {omega:.4}   (theory {OMEGA_THEORY:.4}, {:+.1}%)\n",
        100.0 * (omega - OMEGA_THEORY) / OMEGA_THEORY
    );

    println!("conservation over the damped phase:");
    println!(
        "  energy variation : {:.3}%",
        summary.energy_variation() * 100.0
    );
    println!("  momentum drift   : {:.2e}", summary.momentum_drift());

    let gamma_ok = (gamma - GAMMA_THEORY).abs() / GAMMA_THEORY.abs() < 0.15;
    let omega_ok = (omega - OMEGA_THEORY).abs() / OMEGA_THEORY < 0.05;
    println!(
        "\nverdict: {}",
        if gamma_ok && omega_ok {
            "PASS — collisionless damping at the textbook rate"
        } else {
            "CHECK — outside expected bands"
        }
    );
    Ok(())
}
