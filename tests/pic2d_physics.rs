//! Integration tests of the 2-D extension (paper §VII): a two-stream
//! configuration uniform in `y` must carry exactly the 1-D physics on its
//! `(kx, 0)` modes — growth at the 1-D rate, nothing growing in `ky`, and
//! the same conservation behaviour as the 1-D scheme.

use dlpic_repro::analytics::dispersion::TwoStreamDispersion;
use dlpic_repro::analytics::fit::{fit_growth_rate, GrowthFitOptions};
use dlpic_repro::pic::init2d::TwoStream2DInit;
use dlpic_repro::pic::shape::Shape;
use dlpic_repro::pic::simulation::{PicConfig, Simulation};
use dlpic_repro::pic::solver::TraditionalSolver;
use dlpic_repro::pic::Grid2D;

fn two_stream_2d(v0: f64, vth: f64, n_steps: usize, seed: u64) -> Simulation<Grid2D> {
    let grid = Grid2D::new(32, 32, 2.0532, 2.0532);
    let cfg = PicConfig {
        grid,
        init: Some(TwoStream2DInit::quiet(v0, vth, 65_536, 1e-4, seed)),
        dt: 0.2,
        n_steps,
        gather_shape: Shape::Cic,
        tracked_modes: vec![(1, 0), (2, 0), (0, 1)],
    };
    Simulation::new(cfg, Box::new(TraditionalSolver::<Grid2D>::default_config()))
}

#[test]
fn two_stream_growth_rate_matches_1d_linear_theory() {
    let mut sim = two_stream_2d(0.2, 0.0, 200, 11);
    sim.run();

    // The (1, 0) mode of the y-uniform configuration obeys the 1-D
    // dispersion relation at kx = 3.06.
    let theory = TwoStreamDispersion::new(0.2).growth_rate(3.06);
    assert!((theory - 0.3536).abs() < 1e-3, "theory sanity");

    let e10 = sim.history().mode_series((1, 0)).expect("mode tracked");
    let fit = fit_growth_rate(&e10.times, &e10.values, GrowthFitOptions::default())
        .expect("growth phase detected");
    let rel_err = (fit.gamma - theory).abs() / theory;
    assert!(
        rel_err < 0.2,
        "measured γ = {} vs theory {theory} ({:.1}% off, r² = {})",
        fit.gamma,
        rel_err * 100.0,
        fit.r2
    );
    assert!(fit.r2 > 0.9, "poor exponential fit: r² = {}", fit.r2);
}

#[test]
fn transverse_modes_stay_quiet() {
    // Nothing in the initial state couples to ky ≠ 0; the (0, 1) mode must
    // stay at shot-noise level while (1, 0) grows by orders of magnitude.
    let mut sim = two_stream_2d(0.2, 0.0, 150, 13);
    sim.run();
    let h = sim.history();
    let streaming = h.mode_series((1, 0)).unwrap().values;
    let transverse = h.mode_series((0, 1)).unwrap().values;
    let growth = streaming.last().unwrap() / streaming.first().unwrap().max(1e-300);
    assert!(growth > 50.0, "two-stream mode barely grew: ×{growth}");
    let max_transverse = transverse.iter().cloned().fold(0.0f64, f64::max);
    let max_streaming = streaming.iter().cloned().fold(0.0f64, f64::max);
    assert!(
        max_transverse < 0.05 * max_streaming,
        "transverse mode grew: {max_transverse} vs streaming {max_streaming}"
    );
}

#[test]
fn energy_bounded_and_momentum_conserved_through_saturation() {
    let mut sim = two_stream_2d(0.2, 0.025, 200, 17);
    sim.run();
    let h = sim.history();
    let e0 = h.total[0];
    for (i, e) in h.total.iter().enumerate() {
        assert!(e.is_finite(), "step {i}: energy not finite");
        assert!(
            (e - e0).abs() / e0 < 0.05,
            "step {i}: total energy drifted {e} vs {e0}"
        );
    }
    // Momentum-conserving scheme: with vth > 0 the finite thermal sample
    // starts at a small nonzero momentum, which must then stay *constant*
    // to round-off.
    let p_scale = 65_536.0 * sim.particles().mass() * 0.2;
    let (px0, py0) = (h.momentum[0], h.momentum_y[0]);
    for (px, py) in h.momentum.iter().zip(&h.momentum_y) {
        assert!(
            (px - px0).abs() < 1e-8 * p_scale.max(1.0),
            "Δpx = {}",
            px - px0
        );
        assert!(
            (py - py0).abs() < 1e-8 * p_scale.max(1.0),
            "Δpy = {}",
            py - py0
        );
    }
}

#[test]
fn stable_beams_do_not_grow() {
    // v0 = 0.4 puts kx·v0 = 1.224 > 1: linearly stable, same as the 1-D
    // cold-beam premise of the paper's Fig. 6.
    let mut sim = two_stream_2d(0.4, 0.0, 100, 19);
    sim.run();
    let amps = sim.history().mode_series((1, 0)).unwrap().values;
    let start = amps[..10].iter().cloned().fold(0.0f64, f64::max);
    let end = amps[amps.len() - 10..]
        .iter()
        .cloned()
        .fold(0.0f64, f64::max);
    // CIC + spectral solve keeps the numerical cold-beam heating small at
    // this resolution; physical growth would be ×e⁷ over this window.
    assert!(
        end < 20.0 * start.max(1e-12),
        "stable configuration grew: {start} → {end}"
    );
}
