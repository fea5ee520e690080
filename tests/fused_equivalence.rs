//! The fused-pipeline acceptance tests: a full `Simulation` run at
//! `Grid1D` and at `Grid2D` (which steps through the fused
//! gather→accelerate→move kernel) must reproduce the trajectories of the
//! unfused three-pass pipeline — `gather_field` → `push_velocities` →
//! `push_positions` → field solve, the pre-fusion step structure kept as
//! the oracle — over several steps, for NGP, CIC and TSC in 1-D and 2-D.
//! The oracle functions are written once over the dimension and the
//! kernels use identical per-particle expressions in the same order, so
//! the match is exact: every check asserts equal bit patterns.

use dlpic_repro::pic::gather::gather_field;
use dlpic_repro::pic::mover::{half_step_back, push_positions, push_velocities};
use dlpic_repro::pic::simulation::{PicConfig, Simulation};
use dlpic_repro::pic::solver::{FieldSolver, PoissonKind, TraditionalSolver};
use dlpic_repro::pic::{Grid1D, Shape, TwoStreamInit};
use dlpic_repro::pic::{Grid2D, TwoStream2DInit};

/// Asserts equal IEEE-754 bit patterns, element by element.
fn assert_bits(label: &str, got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len(), "{label} length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{label}[{i}]: fused {g} vs unfused {w}"
        );
    }
}

/// Particle counts of the 1-D load: a multiple of the kernels' 8-particle
/// chunk, and the nearest count the (even-only) loader accepts that
/// leaves a partial chunk for the remainder loop.
const COUNTS_1D: [usize; 2] = [4_000, 4_002];

/// The same for the 2-D load.
const COUNTS_2D: [usize; 2] = [4_096, 4_094];

/// 1-D: `Simulation` (fused stepping) against a manual unfused driver
/// built from the oracle functions, both started from the identical
/// load of `n_particles` and solver configuration.
fn check_1d(shape: Shape, n_particles: usize, n_steps: usize) {
    let grid = Grid1D::paper();
    let init = TwoStreamInit::random(0.2, 0.01, n_particles, 7);
    let cfg = PicConfig {
        grid: grid.clone(),
        init: Some(init.clone()),
        dt: 0.2,
        n_steps,
        gather_shape: shape,
        tracked_modes: vec![1],
    };
    let mut solver = TraditionalSolver::new(shape, PoissonKind::FiniteDifference, 1.0);
    let mut sim = Simulation::new(
        cfg,
        Box::new(TraditionalSolver::new(
            shape,
            PoissonKind::FiniteDifference,
            1.0,
        )),
    );

    // Unfused reference: replicate the constructor's set-up...
    let mut particles = init.build(&grid);
    let mut e = grid.zeros();
    let mut e_part = vec![0.0; particles.len()];
    solver.solve(&particles, &grid, &mut e);
    gather_field(&particles, &grid, shape, &e, &mut e_part);
    half_step_back(&mut particles, &e_part, 0.2);

    // ...then the original three-pass step loop.
    let mut kinetic = Vec::new();
    let mut momentum = Vec::new();
    for _ in 0..n_steps {
        sim.step();
        gather_field(&particles, &grid, shape, &e, &mut e_part);
        kinetic.push(push_velocities(&mut particles, &e_part, 0.2));
        momentum.push(particles.total_momentum()[0]);
        push_positions(&mut particles, &grid, 0.2);
        solver.solve(&particles, &grid, &mut e);
    }

    let (x, v) = sim.phase_space();
    assert_bits("x", x, &particles.pos[0]);
    assert_bits("v", v, &particles.vel[0]);
    assert_bits("E", sim.efield(), &e);
    assert_bits("kinetic", &sim.history().kinetic[..n_steps], &kinetic);
    assert_bits("momentum", &sim.history().momentum[..n_steps], &momentum);
}

/// 2-D: `Simulation<Grid2D>` (fused stepping) against the manual unfused
/// driver, bit for bit. Both gathers add every stencil term from `+0.0`;
/// the per-particle fields are stacked `[Ex | Ey]`.
fn check_2d(shape: Shape, n_particles: usize, n_steps: usize) {
    let grid = Grid2D::new(16, 16, 2.0532, 2.0532);
    let init = TwoStream2DInit::quiet(0.2, 0.0, n_particles, 1e-3, 3);
    let cfg = PicConfig {
        grid: grid.clone(),
        init: Some(init.clone()),
        dt: 0.2,
        n_steps,
        gather_shape: shape,
        tracked_modes: vec![(1, 0)],
    };
    let solver_for = || TraditionalSolver::<Grid2D>::new(shape, PoissonKind::Spectral, 1.0);
    let mut sim = Simulation::new(cfg, Box::new(solver_for()));

    let mut solver = solver_for();
    let mut particles = init.build(&grid);
    // The solver seam's field: `[Ex | Ey]` stacked.
    let mut e = vec![0.0; 2 * grid.nodes()];
    let mut e_part = vec![0.0; 2 * particles.len()];
    solver.solve(&particles, &grid, &mut e);
    gather_field(&particles, &grid, shape, &e, &mut e_part);
    half_step_back(&mut particles, &e_part, 0.2);

    let mut momentum_x = Vec::new();
    let mut momentum_y = Vec::new();
    for _ in 0..n_steps {
        sim.step();
        gather_field(&particles, &grid, shape, &e, &mut e_part);
        push_velocities(&mut particles, &e_part, 0.2);
        let [px, py] = particles.total_momentum();
        momentum_x.push(px);
        momentum_y.push(py);
        push_positions(&mut particles, &grid, 0.2);
        solver.solve(&particles, &grid, &mut e);
    }

    let p = sim.particles();
    assert_bits("x", &p.pos[0], &particles.pos[0]);
    assert_bits("y", &p.pos[1], &particles.pos[1]);
    assert_bits("vx", &p.vel[0], &particles.vel[0]);
    assert_bits("vy", &p.vel[1], &particles.vel[1]);
    let (ex, ey) = e.split_at(grid.nodes());
    assert_bits("Ex", &sim.efield()[..grid.nodes()], ex);
    assert_bits("Ey", &sim.efield()[grid.nodes()..], ey);
    assert_bits(
        "momentum_x",
        &sim.history().momentum[..n_steps],
        &momentum_x,
    );
    assert_bits(
        "momentum_y",
        &sim.history().momentum_y[..n_steps],
        &momentum_y,
    );
}

#[test]
fn fused_step_matches_unfused_1d_ngp() {
    for n in COUNTS_1D {
        check_1d(Shape::Ngp, n, 25);
    }
}

#[test]
fn fused_step_matches_unfused_1d_cic() {
    for n in COUNTS_1D {
        check_1d(Shape::Cic, n, 25);
    }
}

#[test]
fn fused_step_matches_unfused_1d_tsc() {
    // Beyond the issue's NGP/CIC floor: the higher-order shape too.
    for n in COUNTS_1D {
        check_1d(Shape::Tsc, n, 15);
    }
}

#[test]
fn fused_step_matches_unfused_2d_ngp() {
    for n in COUNTS_2D {
        check_2d(Shape::Ngp, n, 15);
    }
}

#[test]
fn fused_step_matches_unfused_2d_cic() {
    for n in COUNTS_2D {
        check_2d(Shape::Cic, n, 15);
    }
}

#[test]
fn fused_step_matches_unfused_2d_tsc() {
    for n in COUNTS_2D {
        check_2d(Shape::Tsc, n, 15);
    }
}
