//! Integration test: cross-validation of the numerical substrates against
//! each other and against analytic solutions — the checks that make the
//! physics results trustworthy.

use dlpic_repro::analytics::dft;
use dlpic_repro::pic::deposit::{add_uniform_background, deposit_charge};
use dlpic_repro::pic::gather::gather_field;
use dlpic_repro::pic::poisson::{fd_residual, FdPoisson, PoissonSolver, SpectralPoisson};
use dlpic_repro::pic::shape::Shape;
use dlpic_repro::pic::solver::{FieldSolver as _, PoissonKind, TraditionalSolver};
use dlpic_repro::pic::{Grid1D, Particles, TwoStreamInit};

/// A sinusoidally displaced equispaced electron population: the textbook
/// configuration with a closed-form field, `E(x) = A·L·sin(kx)` for
/// displacement `ξ = A·L·sin(kx)` (ρ₀ = −1, ε₀ = 1).
fn displaced_plasma(grid: &Grid1D, n: usize, amp: f64, mode: usize) -> Particles {
    let l = grid.length();
    let k = grid.mode_wavenumber(mode);
    let xs: Vec<f64> = (0..n)
        .map(|i| {
            let x0 = (i as f64 + 0.5) / n as f64 * l;
            grid.wrap_position(x0 + amp * l * (k * x0).sin())
        })
        .collect();
    Particles::electrons_normalized(xs, vec![0.0; n], l)
}

#[test]
fn full_solver_chain_reproduces_gauss_law_for_all_shapes() {
    let grid = Grid1D::paper();
    let p = displaced_plasma(&grid, 128_000, 2e-3, 1);
    let expect_e1 = 2e-3 * grid.length();
    for shape in [Shape::Ngp, Shape::Cic, Shape::Tsc] {
        for kind in [PoissonKind::FiniteDifference, PoissonKind::Spectral] {
            let mut solver = TraditionalSolver::new(shape, kind, 1.0);
            let mut e = grid.zeros();
            solver.solve(&p, &grid, &mut e);
            let e1 = dft::mode_amplitude(&e, 1);
            let tol = match shape {
                Shape::Ngp => 0.08, // NGP binning noise on a smooth mode
                _ => 0.03,
            };
            assert!(
                (e1 - expect_e1).abs() / expect_e1 < tol,
                "{shape:?}/{kind:?}: E1 = {e1} vs {expect_e1}"
            );
        }
    }
}

#[test]
fn poisson_solvers_agree_on_pic_generated_density() {
    // Not synthetic smooth data: an actual noisy PIC charge density.
    let grid = Grid1D::paper();
    let p = TwoStreamInit::random(0.2, 0.01, 64_000, 9).build(&grid);
    let mut rho = grid.zeros();
    deposit_charge(&p, &grid, Shape::Cic, &mut rho);
    add_uniform_background(&mut rho, 1.0);
    let net_charge = rho.iter().sum::<f64>() * grid.dx();
    assert!(net_charge.abs() < 1e-9, "not neutral");

    let mut phi_fd = grid.zeros();
    let mut phi_sp = grid.zeros();
    FdPoisson::new().solve(&grid, &rho, &mut phi_fd);
    SpectralPoisson::new().solve(&grid, &rho, &mut phi_sp);
    assert!(fd_residual(&grid, &rho, &phi_fd) < 1e-9, "FD residual");

    // The dominant (low-k) structure must agree; high-k differs by the
    // operators' O(k²dx²) discrepancy.
    for mode in 1..=4 {
        let a = dft::mode_amplitude(&phi_fd, mode);
        let b = dft::mode_amplitude(&phi_sp, mode);
        let scale = a.abs().max(b.abs()).max(1e-12);
        assert!((a - b).abs() / scale < 0.05, "mode {mode}: {a} vs {b}");
    }
}

#[test]
fn no_self_force_on_isolated_particle() {
    // A single particle must not accelerate itself (momentum-conserving
    // scheme property) — for every matched shape pair and both solvers.
    let grid = Grid1D::paper();
    for shape in [Shape::Ngp, Shape::Cic, Shape::Tsc] {
        for kind in [PoissonKind::FiniteDifference, PoissonKind::Spectral] {
            // Position chosen off-node and off-midpoint.
            let p = Particles::electrons_normalized(vec![0.7234], vec![0.0], grid.length());
            let mut solver = TraditionalSolver::new(shape, kind, 0.0);
            let mut e = grid.zeros();
            solver.solve(&p, &grid, &mut e);
            let mut ep = vec![0.0];
            gather_field(&p, &grid, shape, &e, &mut ep);
            assert!(
                ep[0].abs() < 1e-10,
                "{shape:?}/{kind:?}: self-force {}",
                ep[0]
            );
        }
    }
}

#[test]
fn langmuir_oscillation_frequency_is_unity() {
    // The most fundamental validation of the unit system: a displaced
    // plasma slab oscillates at ω_p = 1. Track E1(t) over a few periods
    // and measure the period by zero crossings of dE1... simpler: fit
    // the oscillation count over a fixed window.
    use dlpic_repro::pic::simulation::{PicConfig, Simulation};
    let grid = Grid1D::paper();
    let n = 64_000;
    let cfg = PicConfig {
        grid: grid.clone(),
        init: Some(TwoStreamInit {
            v0: 0.0,
            vth: 0.0,
            n_particles: n,
            loading: dlpic_repro::pic::Loading::Quiet {
                mode: 1,
                amplitude: 1e-3,
            },
            seed: 0,
        }),
        dt: 0.05,
        n_steps: 500, // t = 25 ≈ 3.98 plasma periods
        gather_shape: Shape::Cic,
        tracked_modes: vec![1],
    };
    let mut sim = Simulation::new(cfg, Box::new(TraditionalSolver::paper_default()));
    sim.run();

    // E1 oscillates as |cos(ω t)|-ish; count minima (each ≈ half period).
    let e1 = sim.history().mode_series(1).unwrap();
    let v = &e1.values;
    let mut minima = 0;
    for i in 1..v.len() - 1 {
        if v[i] < v[i - 1] && v[i] < v[i + 1] && v[i] < 0.3 * v[0] {
            minima += 1;
        }
    }
    // ω = 1 → period 2π ≈ 6.283; over t = 25 that is ~3.98 periods and
    // E1 = |E₀ cos t| has 2 minima per period → expect ≈ 8.
    assert!(
        (7..=9).contains(&minima),
        "expected ~8 field minima for ω_p = 1, found {minima}"
    );
}

#[test]
fn tsc_deposit_is_smoother_than_ngp() {
    // Higher-order shapes reduce deposition noise: the high-k spectral
    // content of ρ from a random uniform load must be smaller for TSC.
    let grid = Grid1D::paper();
    let p = TwoStreamInit::random(0.0, 0.05, 64_000, 31).build(&grid);
    let high_k_power = |shape: Shape| -> f64 {
        let mut rho = grid.zeros();
        deposit_charge(&p, &grid, shape, &mut rho);
        add_uniform_background(&mut rho, 1.0);
        let amps = dft::mode_amplitudes(&rho);
        amps[16..].iter().map(|a| a * a).sum()
    };
    let ngp = high_k_power(Shape::Ngp);
    let tsc = high_k_power(Shape::Tsc);
    assert!(
        tsc < ngp * 0.5,
        "TSC high-k power {tsc} not meaningfully below NGP {ngp}"
    );
}
