//! Integration test: the traditional PIC reproduces two-stream linear
//! theory at full paper scale (the physics backbone of the paper's Fig. 4)
//! and stays quiescent where theory says stable (the premise of Fig. 6).

use dlpic_repro::analytics::dispersion::TwoStreamDispersion;
use dlpic_repro::analytics::fit::{fit_growth_rate, GrowthFitOptions};
use dlpic_repro::pic::presets::paper_config;
use dlpic_repro::pic::simulation::Simulation;
use dlpic_repro::pic::solver::TraditionalSolver;

#[test]
fn two_stream_growth_rate_matches_linear_theory() {
    // Full paper scale: 64 cells, 64 000 particles, Δt = 0.2, t ≤ 40.
    let mut sim = Simulation::new(
        paper_config(0.2, 0.025, 123),
        Box::new(TraditionalSolver::paper_default()),
    );
    sim.run();

    let theory = TwoStreamDispersion::new(0.2).mode_growth_rate(1, sim.grid().lx());
    assert!((theory - 0.3536).abs() < 1e-3, "theory value sanity");

    let e1 = sim.history().mode_series(1).expect("mode 1 tracked");
    let fit = fit_growth_rate(&e1.times, &e1.values, GrowthFitOptions::default())
        .expect("growth phase detected");
    let rel_err = (fit.gamma - theory).abs() / theory;
    assert!(
        rel_err < 0.2,
        "measured γ = {} vs theory {theory} ({:.1}% off)",
        fit.gamma,
        rel_err * 100.0
    );
    assert!(fit.r2 > 0.9, "poor exponential fit: r² = {}", fit.r2);
}

#[test]
fn growth_rate_scales_with_wavenumber_prediction() {
    // At v0 = 0.15, mode 1 has k·v0 = 0.459 — off the optimum, slower
    // growth than the v0 = 0.2 case. The measured ordering must match.
    // Quiet start: a deterministic mode-1 displacement excites exactly the
    // mode being fitted, so the measured slope is the linear rate rather
    // than whatever transient a particular shot-noise realization seeds.
    let run = |v0: f64| -> f64 {
        use dlpic_repro::pic::init::TwoStreamInit;
        use dlpic_repro::pic::simulation::two_stream_config;
        let init = TwoStreamInit::quiet(v0, 0.0, 25_600, 1e-4, 7);
        let mut sim = Simulation::new(
            two_stream_config(init, 200),
            Box::new(TraditionalSolver::paper_default()),
        );
        sim.run();
        let e1 = sim.history().mode_series(1).unwrap();
        fit_growth_rate(&e1.times, &e1.values, GrowthFitOptions::default())
            .map(|f| f.gamma)
            .unwrap_or(0.0)
    };
    let gamma_020 = run(0.2);
    let gamma_015 = run(0.15);
    let th_020 = TwoStreamDispersion::new(0.2).growth_rate(3.06);
    let th_015 = TwoStreamDispersion::new(0.15).growth_rate(3.06);
    assert!(th_015 < th_020, "theory ordering sanity");
    assert!(
        gamma_015 < gamma_020,
        "measured ordering: γ(0.15) = {gamma_015} should be < γ(0.2) = {gamma_020}"
    );
}

#[test]
fn cold_beam_configuration_shows_no_physical_growth() {
    // v0 = 0.4: k1·v0 = 1.224 > 1, linearly stable. E1 must stay at the
    // noise floor (no exponential growth to saturation).
    let mut sim = Simulation::new(
        paper_config(0.4, 0.0, 321),
        Box::new(TraditionalSolver::paper_default()),
    );
    sim.run();
    let e1 = sim.history().mode_series(1).unwrap();
    let start = e1.values[..10].iter().copied().fold(f64::MIN, f64::max);
    let peak = e1.values.iter().copied().fold(f64::MIN, f64::max);
    assert!(
        peak < start * 20.0,
        "stable configuration grew: floor {start}, peak {peak}"
    );
}
