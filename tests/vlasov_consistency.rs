//! Integration test: the continuum Vlasov solver and the particle PIC
//! solver are independent discretizations of the same physics — their
//! agreement (with each other and with analytic theory) is the strongest
//! correctness evidence either can get.

use dlpic_repro::analytics::dispersion::TwoStreamDispersion;
use dlpic_repro::analytics::fit::{fit_growth_rate, GrowthFitOptions};
use dlpic_repro::pic::presets::paper_config;
use dlpic_repro::pic::simulation::Simulation;
use dlpic_repro::pic::solver::TraditionalSolver;
use dlpic_repro::vlasov::{VlasovConfig, VlasovSolver};

#[test]
fn vlasov_initial_field_matches_gauss_law_exactly() {
    // f = (1 + ε·cos(k₁x))·g(v) ⇒ ρ = −ε·cos(k₁x) ⇒ |E₁| = ε/k₁.
    let eps = 1e-3;
    let mut cfg = VlasovConfig::two_stream(0.2, 0.02);
    cfg.perturbation = eps;
    let solver = VlasovSolver::new(cfg);
    let k1 = 3.06;
    let expect = eps / k1;
    let measured = solver.field_mode(1);
    assert!(
        (measured - expect).abs() / expect < 0.01,
        "E1 = {measured}, Gauss law says {expect}"
    );
}

#[test]
fn both_solvers_measure_the_same_growth_rate() {
    let (v0, vth) = (0.2, 0.02);
    let theory = TwoStreamDispersion::new(v0).growth_rate(3.06);

    // Continuum run.
    let mut vlasov = VlasovSolver::new(VlasovConfig::two_stream(v0, vth));
    let mut vt = Vec::new();
    let mut va = Vec::new();
    for _ in 0..600 {
        vt.push(vlasov.time());
        va.push(vlasov.field_mode(1));
        vlasov.step();
    }
    let vfit = fit_growth_rate(&vt, &va, GrowthFitOptions::default()).expect("vlasov growth");

    // Particle run, same physics.
    let mut pic = Simulation::new(
        paper_config(v0, vth, 2024),
        Box::new(TraditionalSolver::paper_default()),
    );
    pic.run();
    let e1 = pic.history().mode_series(1).unwrap();
    let pfit =
        fit_growth_rate(&e1.times, &e1.values, GrowthFitOptions::default()).expect("pic growth");

    // Each within 20% of theory, and within 15% of each other.
    for (name, fit) in [("vlasov", &vfit), ("pic", &pfit)] {
        let rel = (fit.gamma - theory).abs() / theory;
        assert!(rel < 0.2, "{name}: γ = {} vs theory {theory}", fit.gamma);
    }
    let cross = (vfit.gamma - pfit.gamma).abs() / theory;
    assert!(
        cross < 0.15,
        "solvers disagree: vlasov {} vs pic {}",
        vfit.gamma,
        pfit.gamma
    );
    // The continuum run must fit more cleanly (no shot noise).
    assert!(vfit.r2 >= pfit.r2 - 0.01, "vlasov fit unexpectedly noisy");
}

#[test]
fn both_solvers_agree_the_cold_beam_case_is_stable() {
    // v0 = 0.4: physically stable. The continuum solver has no particle
    // noise, so *nothing* should grow; the PIC may heat numerically (its
    // Fig. 6 artifact) but mode 1 stays at the noise floor in both.
    let mut vlasov = VlasovSolver::new(VlasovConfig::two_stream(0.4, 0.02));
    let e0 = vlasov.field_mode(1);
    vlasov.run(400);
    assert!(vlasov.field_mode(1) < 5.0 * e0, "vlasov cold beams grew");

    let mut pic = Simulation::new(
        paper_config(0.4, 0.0, 11),
        Box::new(TraditionalSolver::paper_default()),
    );
    pic.run();
    let e1 = pic.history().mode_series(1).unwrap();
    let floor = e1.values[..10].iter().copied().fold(f64::MIN, f64::max);
    let peak = e1.values.iter().copied().fold(f64::MIN, f64::max);
    assert!(
        peak < 20.0 * floor,
        "pic cold beams grew: {floor} -> {peak}"
    );
}

#[test]
fn vlasov_conserves_what_pic_conserves() {
    let mut s = VlasovSolver::new(VlasovConfig::two_stream(0.2, 0.02));
    let m0 = s.mass();
    let p0 = s.momentum();
    let e0 = s.kinetic_energy() + s.field_energy();
    s.run(400); // through saturation
    assert!(
        (s.mass() - m0).abs() / m0 < 1e-4,
        "mass: {m0} -> {}",
        s.mass()
    );
    assert!(
        (s.momentum() - p0).abs() < 1e-6,
        "momentum: {p0} -> {}",
        s.momentum()
    );
    // Semi-Lagrangian advection is slightly diffusive; energy drifts by a
    // few percent through saturation, like the PIC does.
    let rel = (s.kinetic_energy() + s.field_energy() - e0).abs() / e0;
    assert!(rel < 0.08, "energy drift {rel}");
}
