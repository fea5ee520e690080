//! Integration tests of the domain-decomposed PIC: the distributed run is
//! the *same algorithm* as the single-process baseline (identical physics,
//! different data layout), and the communication volumes behave as the
//! paper's §VII discussion predicts — the DL strategy's field solve needs
//! a fixed-size histogram all-reduce and nothing else.

use dlpic_repro::core::builder::ArchSpec;
use dlpic_repro::core::field_solver::{DlFieldSolver, FrozenBundle};
use dlpic_repro::core::normalize::NormStats;
use dlpic_repro::core::phase_space::{BinningShape, PhaseGridSpec};
use dlpic_repro::ddecomp::sim::{DistConfig, DistSimulation};
use dlpic_repro::ddecomp::strategy::{GatherScatter, ReplicatedDl};
use dlpic_repro::nn::Precision;
use dlpic_repro::pic::grid::Grid1D;
use dlpic_repro::pic::init::TwoStreamInit;
use dlpic_repro::pic::shape::Shape;
use dlpic_repro::pic::simulation::{PicConfig, Simulation};
use dlpic_repro::pic::solver::{PoissonKind, TraditionalSolver};

fn dist_config(n_ranks: usize, n_steps: usize) -> DistConfig {
    DistConfig {
        grid: Grid1D::paper(),
        init: TwoStreamInit::quiet(0.2, 0.0, 16_000, 1e-3, 5),
        dt: 0.2,
        n_steps,
        gather_shape: Shape::Cic,
        n_ranks,
        tracked_modes: vec![1],
    }
}

fn single_process_reference(n_steps: usize) -> Simulation {
    let cfg = PicConfig {
        grid: Grid1D::paper(),
        init: Some(TwoStreamInit::quiet(0.2, 0.0, 16_000, 1e-3, 5)),
        dt: 0.2,
        n_steps,
        gather_shape: Shape::Cic,
        tracked_modes: vec![1],
    };
    Simulation::new(
        cfg,
        Box::new(TraditionalSolver::new(
            Shape::Cic,
            PoissonKind::FiniteDifference,
            1.0,
        )),
    )
}

#[test]
fn distributed_matches_single_process_over_short_horizon() {
    // Identical algorithm, different summation order: series must agree
    // to tight tolerance over a horizon where round-off has not yet been
    // amplified by the instability.
    let n_steps = 30;
    let mut reference = single_process_reference(n_steps);
    reference.run();
    let ref_e1 = &reference.history().mode_amps[0];
    let ref_total = &reference.history().total;

    for n_ranks in [1, 2, 4, 8] {
        let mut dist = DistSimulation::new(
            dist_config(n_ranks, n_steps),
            Box::new(GatherScatter::new(Shape::Cic, 1.0)),
        );
        dist.run();
        let d_e1 = &dist.history().mode_amps[0];
        let d_total = &dist.history().total;
        assert_eq!(d_e1.len(), ref_e1.len());
        for (i, (a, b)) in d_e1.iter().zip(ref_e1).enumerate() {
            assert!(
                (a - b).abs() < 1e-9 + 1e-6 * b.abs(),
                "R={n_ranks} step {i}: E1 {a} vs {b}"
            );
        }
        for (i, (a, b)) in d_total.iter().zip(ref_total).enumerate() {
            assert!(
                (a - b).abs() < 1e-9 * b.abs().max(1.0),
                "R={n_ranks} step {i}: energy {a} vs {b}"
            );
        }
    }
}

#[test]
fn distributed_run_reproduces_growth_at_full_length() {
    use dlpic_repro::analytics::dispersion::TwoStreamDispersion;
    use dlpic_repro::analytics::fit::{fit_growth_rate, GrowthFitOptions};

    let mut dist = DistSimulation::new(
        dist_config(4, 200),
        Box::new(GatherScatter::new(Shape::Cic, 1.0)),
    );
    dist.run();
    let h = dist.history();
    let theory = TwoStreamDispersion::new(0.2).growth_rate(3.06);
    let fit = fit_growth_rate(&h.times, &h.mode_amps[0], GrowthFitOptions::default())
        .expect("growth detected");
    assert!(
        (fit.gamma - theory).abs() / theory < 0.2,
        "distributed γ = {} vs theory {theory}",
        fit.gamma
    );
    // Momentum still conserved across rank boundaries.
    for p in &h.momentum {
        assert!(p.abs() < 1e-8, "momentum {p}");
    }
}

fn tiny_dl_solver() -> DlFieldSolver {
    let spec = PhaseGridSpec::smoke();
    let arch = ArchSpec::Mlp {
        input: spec.cells(),
        hidden: vec![8],
        output: 64,
    };
    FrozenBundle::from_network(
        &arch.build(0),
        (spec, BinningShape::Ngp),
        NormStats::identity(),
        "dl-mlp",
        Precision::F32,
    )
    .unwrap()
    .solver()
}

#[test]
fn dl_strategy_traffic_is_particle_count_independent() {
    // Double the particles: migration bytes grow, but the DL field-solve
    // traffic (histogram all-reduce) must not change by a single byte.
    let field_bytes = |n_particles: usize| -> u64 {
        let mut cfg = dist_config(4, 10);
        cfg.init = TwoStreamInit::quiet(0.2, 0.0, n_particles, 1e-3, 5);
        let mut dist = DistSimulation::new(cfg, Box::new(ReplicatedDl::new(tiny_dl_solver())));
        dist.run();
        let phases = dist.comm_phases();
        phases
            .iter()
            .filter(|(p, _)| *p == "hist-reduce" || *p == "hist-bcast")
            .map(|(_, s)| s.bytes)
            .sum()
    };
    assert_eq!(field_bytes(8_000), field_bytes(16_000));
}

#[test]
fn traditional_strategy_traffic_scales_with_grid() {
    // Twice the cells → roughly twice the gather/scatter bytes per step.
    let field_bytes = |ncells: usize| -> u64 {
        let cfg = DistConfig {
            grid: Grid1D::new(ncells, 2.0532),
            init: TwoStreamInit::quiet(0.2, 0.0, 8_000, 1e-3, 5),
            dt: 0.2,
            n_steps: 10,
            gather_shape: Shape::Cic,
            n_ranks: 4,
            tracked_modes: vec![],
        };
        let mut dist = DistSimulation::new(cfg, Box::new(GatherScatter::new(Shape::Cic, 1.0)));
        dist.run();
        dist.comm_phases()
            .iter()
            .filter(|(p, _)| *p == "rho-gather" || *p == "e-scatter")
            .map(|(_, s)| s.bytes)
            .sum()
    };
    let b64 = field_bytes(64);
    let b128 = field_bytes(128);
    let ratio = b128 as f64 / b64 as f64;
    assert!(
        (1.7..2.3).contains(&ratio),
        "expected ≈2× scaling, got {b64} → {b128} (×{ratio:.2})"
    );
}

#[test]
fn migration_volume_matches_ballistic_estimate() {
    // During the linear phase the fields are tiny, so the beams stream
    // ballistically: per step, the fraction of each rank's particles that
    // crosses a slab boundary is v0·Δt / slab_width. With 16 000
    // particles on 4 ranks (slab width 16·dx ≈ 0.513) at v0·Δt = 0.04,
    // that predicts ≈ 16 000 · 0.078 ≈ 1 250 migrations per step.
    let n_steps = 20;
    let mut dist = DistSimulation::new(
        dist_config(4, n_steps),
        Box::new(GatherScatter::new(Shape::Cic, 1.0)),
    );
    dist.run();
    let grid = Grid1D::paper();
    let slab_width = grid.dx() * 16.0;
    let predicted = 16_000.0 * (0.2 * 0.2 / slab_width) * n_steps as f64;
    let measured = dist.migrated_total() as f64;
    let rel = (measured - predicted).abs() / predicted;
    assert!(
        rel < 0.1,
        "migration {measured} vs ballistic estimate {predicted} ({:.0}% off)",
        rel * 100.0
    );
    // The DL strategy migrates too (its per-step volume depends on the
    // model's fields, so only existence is asserted here).
    let mut dl = DistSimulation::new(
        dist_config(4, n_steps),
        Box::new(ReplicatedDl::new(tiny_dl_solver())),
    );
    dl.run();
    assert!(dl.migrated_total() > 0);
}

#[test]
fn load_stays_balanced_for_streaming_beams() {
    let mut dist = DistSimulation::new(
        dist_config(8, 50),
        Box::new(GatherScatter::new(Shape::Cic, 1.0)),
    );
    dist.run();
    let per_rank = dist.particles_per_rank();
    let expect = 16_000 / 8;
    for (rank, n) in per_rank.iter().enumerate() {
        let dev = (*n as f64 - expect as f64).abs() / expect as f64;
        assert!(dev < 0.2, "rank {rank} holds {n} (expected ≈{expect})");
    }
}
