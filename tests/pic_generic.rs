//! Contracts of the geometry-generic PIC driver, each written once over
//! `G: Geometry` and instantiated at both dimensions: a restored
//! simulation resumes bit-identically, and the split step
//! (pre-solve → external solve → post-solve) is exactly `step`. Momentum
//! conservation per shape is a physics claim: `tests/physics.rs`.

use dlpic_repro::pic::simulation::{two_stream_config, PicConfig, Simulation};
use dlpic_repro::pic::{Geometry, Shape, TraditionalSolver, TwoStreamInit};
use dlpic_repro::pic::{Grid2D, TwoStream2DInit};

const STEPS: usize = 20;

fn sim_1d() -> Simulation {
    let init = TwoStreamInit::random(0.2, 0.01, 6_400, 42);
    Simulation::new(
        two_stream_config(init, STEPS),
        Box::new(TraditionalSolver::paper_default()),
    )
}

fn sim_2d() -> Simulation<Grid2D> {
    let cfg = PicConfig {
        grid: Grid2D::new(16, 16, 2.0532, 2.0532),
        init: Some(TwoStream2DInit::quiet(0.2, 0.01, 4_096, 1e-3, 1)),
        dt: 0.2,
        n_steps: STEPS,
        gather_shape: Shape::Cic,
        tracked_modes: vec![(1, 0), (0, 1)],
    };
    Simulation::new(cfg, Box::new(TraditionalSolver::<Grid2D>::default_config()))
}

/// The particle columns, owned.
fn columns<G: Geometry>(sim: &Simulation<G>) -> Vec<Vec<f64>> {
    G::columns(sim.particles())
        .into_iter()
        .map(|(_, column)| column.to_vec())
        .collect()
}

fn assert_same_state<G: Geometry>(a: &Simulation<G>, b: &Simulation<G>) {
    assert_eq!(columns(a), columns(b));
    assert_eq!(a.efield(), b.efield());
    assert_eq!(a.time(), b.time());
    assert_eq!(a.steps_done(), b.steps_done());
}

fn restore_state_resumes_bit_identically<G: Geometry>(make: fn() -> Simulation<G>) {
    let mut straight = make();
    for _ in 0..8 {
        straight.step();
    }
    let e = straight.efield().to_vec();
    let mut resumed = make();
    resumed.restore_state(
        &columns(&straight),
        &e,
        straight.time(),
        straight.steps_done(),
    );
    assert_eq!(resumed.steps_done(), 8);
    for _ in 0..12 {
        straight.step();
        resumed.step();
    }
    assert_same_state(&straight, &resumed);
}

fn split_step_is_exactly_step<G: Geometry>(make: fn() -> Simulation<G>) {
    let mut whole = make();
    let mut split = make();
    for _ in 0..STEPS {
        whole.step();
        split.step_pre_solve();
        let (solver, particles, grid, e) = split.split_for_solve();
        solver.solve(particles, grid, e);
        split.step_post_solve();
    }
    whole.finish();
    split.finish();
    assert_same_state(&whole, &split);
    let (a, b) = (whole.history(), split.history());
    assert_eq!(a.len(), STEPS + 1);
    assert_eq!(a.times, b.times);
    assert_eq!(a.kinetic, b.kinetic);
    assert_eq!(a.field, b.field);
    assert_eq!(a.momentum, b.momentum);
    assert_eq!(a.momentum_y, b.momentum_y);
    assert_eq!(a.mode_amps, b.mode_amps);
}

#[test]
fn restore_state_resumes_bit_identically_1d() {
    restore_state_resumes_bit_identically(sim_1d);
}

#[test]
fn restore_state_resumes_bit_identically_2d() {
    restore_state_resumes_bit_identically(sim_2d);
}

#[test]
fn split_step_is_exactly_step_1d() {
    split_step_is_exactly_step(sim_1d);
}

#[test]
fn split_step_is_exactly_step_2d() {
    split_step_is_exactly_step(sim_2d);
}

#[test]
fn momentum_y_rides_only_in_2d() {
    let (mut one, mut two) = (sim_1d(), sim_2d());
    one.run();
    two.run();
    assert!(one.history().momentum_y.is_empty());
    assert_eq!(two.history().momentum_y.len(), STEPS + 1);
}
