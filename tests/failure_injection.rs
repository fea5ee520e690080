//! Failure-injection tests: corrupted artifacts, degenerate inputs and
//! hostile edge cases must fail *loudly and typed* — never panic deep in
//! a solver, never silently produce garbage.

use dlpic_repro::core::builder::ArchSpec;
use dlpic_repro::core::bundle::{BundleError, ModelBundle};
use dlpic_repro::core::normalize::NormStats;
use dlpic_repro::core::phase_space::{bin_phase_space, BinningShape, PhaseGridSpec};
use dlpic_repro::dataset::store;
use dlpic_repro::pic::grid::Grid1D;
use dlpic_repro::pic::particles::Particles;

// ---------------------------------------------------------------------
// Model bundles (the on-disk artifact users ship between machines).
// ---------------------------------------------------------------------

fn valid_bundle_bytes() -> Vec<u8> {
    let arch = ArchSpec::Mlp {
        input: 16,
        hidden: vec![4],
        output: 64,
    };
    let mut net = arch.build(0);
    let bundle = ModelBundle::from_network(
        &mut net,
        arch,
        PhaseGridSpec::new(4, 4, -0.8, 0.8),
        BinningShape::Ngp,
        NormStats::identity(),
    );
    bundle.encode()
}

#[test]
fn bundle_rejects_garbage() {
    let err = ModelBundle::decode(b"not a bundle at all").unwrap_err();
    assert!(matches!(err, BundleError::Malformed(_)), "{err:?}");
}

#[test]
fn bundle_rejects_empty_input() {
    assert!(ModelBundle::decode(&[]).is_err());
}

#[test]
fn bundle_rejects_every_truncation_point() {
    let bytes = valid_bundle_bytes();
    // Every strict prefix must decode to an error, not a panic and not a
    // silently short model.
    for cut in 0..bytes.len() {
        let result = ModelBundle::decode(&bytes[..cut]);
        assert!(
            result.is_err(),
            "prefix of {cut} bytes decoded successfully"
        );
    }
}

#[test]
fn bundle_rejects_bit_flips_in_header() {
    let bytes = valid_bundle_bytes();
    // Flip each of the first 16 header bytes; decode must never panic,
    // and magic/version corruption must be rejected.
    for i in 0..16.min(bytes.len()) {
        let mut corrupt = bytes.clone();
        corrupt[i] ^= 0xFF;
        let _ = ModelBundle::decode(&corrupt); // must not panic
    }
    let mut wrong_magic = bytes.clone();
    wrong_magic[0] ^= 0xFF;
    assert!(ModelBundle::decode(&wrong_magic).is_err());
}

#[test]
fn bundle_round_trips_unharmed() {
    let bytes = valid_bundle_bytes();
    let decoded = ModelBundle::decode(&bytes).expect("valid bundle decodes");
    assert_eq!(decoded.encode(), bytes, "re-encode is byte-identical");
    assert!(decoded.freeze().is_ok());
}

// ---------------------------------------------------------------------
// Dataset store (the regenerated 5.2 GB-equivalent artifact).
// ---------------------------------------------------------------------

#[test]
fn store_rejects_truncations_and_garbage() {
    use dlpic_repro::dataset::sample::PhaseDataset;
    let mut ds = PhaseDataset::new(PhaseGridSpec::new(4, 4, -0.8, 0.8), BinningShape::Ngp, 8);
    ds.push(&[1.0; 16], &[0.5; 8]);
    ds.push(&[2.0; 16], &[0.25; 8]);
    let bytes = store::encode(&ds);

    assert!(store::decode(b"garbage").is_err());
    for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
        assert!(store::decode(&bytes[..cut]).is_err(), "cut at {cut}");
    }
    let back = store::decode(&bytes).expect("valid store decodes");
    assert_eq!(back.len(), 2);
}

// ---------------------------------------------------------------------
// Degenerate numerical inputs.
// ---------------------------------------------------------------------

#[test]
fn constant_histogram_normalizes_to_zero_not_nan() {
    // A uniform plasma gives a constant histogram; min == max makes
    // Eq. 5 singular. The implementation must map it to zeros.
    let stats = NormStats::from_data(&[3.0, 3.0, 3.0]);
    let mut data = vec![3.0f32; 8];
    stats.apply(&mut data);
    assert!(data.iter().all(|v| v.is_finite()));
    assert!(data.iter().all(|v| *v == 0.0));
}

#[test]
fn binning_empty_particle_buffer_is_all_zero() {
    let grid = Grid1D::paper();
    let p = Particles::new([vec![]], [vec![]], -1.0, 1.0);
    let spec = PhaseGridSpec::smoke();
    let mut hist = vec![7.0f32; spec.cells()];
    bin_phase_space(&p, &grid, &spec, BinningShape::Ngp, &mut hist);
    assert!(hist.iter().all(|v| *v == 0.0));
}

#[test]
fn binning_clamps_outliers_and_conserves_counts() {
    // Velocities way outside the window land in edge bins; the total
    // count must survive exactly (loss here would silently bias Eq. 5).
    let grid = Grid1D::paper();
    let spec = PhaseGridSpec::smoke(); // v window [-0.8, 0.8]
    let xs = vec![0.1, 0.5, 1.0, 1.5];
    let vs = vec![-100.0, 100.0, f64::MAX / 1e10, -5.0];
    let p = Particles::new([xs], [vs], -1.0, 1.0);
    for shape in [BinningShape::Ngp, BinningShape::Cic] {
        let mut hist = vec![0.0f32; spec.cells()];
        bin_phase_space(&p, &grid, &spec, shape, &mut hist);
        let total: f32 = hist.iter().sum();
        assert!(
            (total - 4.0).abs() < 1e-5,
            "{shape:?}: lost particles ({total})"
        );
        assert!(hist.iter().all(|v| v.is_finite()));
    }
}

#[test]
fn solver_with_nan_weights_propagates_not_panics() {
    // A poisoned model must not crash the simulation loop, and must not
    // hide its NaN: the kernel skips a weight row whose activation is zero,
    // so a NaN weight inside a solver could sit behind an empty phase-space
    // bin and never show. The poison propagates to the caller instead, as
    // a typed error naming the layer, at the freeze that would mint the
    // solver. The first element of every tensor is poisoned, biases too.
    use dlpic_repro::core::field_solver::FrozenBundle;
    use dlpic_repro::nn::{FreezeError, Precision};

    let spec = PhaseGridSpec::smoke();
    let arch = ArchSpec::Mlp {
        input: spec.cells(),
        hidden: vec![4],
        output: 64,
    };
    let mut net = arch.build(0);
    net.visit_params(&mut |params, _grads| {
        if let Some(first) = params.first_mut() {
            *first = f32::NAN;
        }
    });
    for precision in [Precision::F32, Precision::Bf16] {
        let frozen = FrozenBundle::<Grid1D>::from_network(
            &net,
            (spec, BinningShape::Ngp),
            NormStats::identity(),
            "poisoned",
            precision,
        );
        assert_eq!(
            frozen.err(),
            Some(FreezeError::NonFinite {
                layer_index: 0,
                layer_name: "dense"
            }),
            "{precision:?}"
        );
    }
}

// ---------------------------------------------------------------------
// 2-D and distributed edge cases.
// ---------------------------------------------------------------------

#[test]
fn pic2d_single_particle_universe_runs() {
    use dlpic_repro::pic::shape::Shape;
    use dlpic_repro::pic::solver::FieldSolver;
    use dlpic_repro::pic::solver::TraditionalSolver;
    use dlpic_repro::pic::Grid2D;
    use dlpic_repro::pic::Particles2D;

    let grid = Grid2D::new(8, 8, 2.0, 2.0);
    let p = Particles2D::new([vec![1.0], vec![1.0]], [vec![0.0], vec![0.0]], -0.1, 0.1);
    let mut solver = TraditionalSolver::<Grid2D>::new(
        Shape::Cic,
        dlpic_repro::pic::solver::PoissonKind::Spectral,
        0.1 / 4.0,
    );
    let mut e = vec![0.0; 2 * grid.nodes()];
    solver.solve(&p, &grid, &mut e);
    assert!(e.iter().all(|v| v.is_finite()));
}

#[test]
fn ddecomp_rejects_indivisible_rank_counts() {
    use dlpic_repro::ddecomp::topology::Topology;
    let result = std::panic::catch_unwind(|| Topology::new(5, 64));
    assert!(result.is_err(), "5 ranks over 64 cells must be rejected");
}

// ---------------------------------------------------------------------
// Run supervision: wave-level fault containment.
//
// One sick run in a cohort-batched fleet must be quarantined — partial
// history preserved, typed fault recorded — while every healthy run
// finishes bit-identical to its solo execution (the row-stable GEMM
// invariant makes dropping a row from the shared inference batch safe).
// ---------------------------------------------------------------------

mod supervision {
    use dlpic_repro::core::Scale;
    use dlpic_repro::engine::{Backend, Engine, FaultKind, FaultPlan, SessionFault, SweepSpec};

    fn sweep() -> SweepSpec {
        SweepSpec::grid("two_stream", Scale::Smoke).axis("v0", [0.10, 0.14, 0.18])
    }

    fn solo_histories() -> Vec<Vec<f64>> {
        sweep()
            .specs()
            .unwrap()
            .iter()
            .map(|spec| {
                Engine::new()
                    .run(spec, Backend::Dl1D)
                    .unwrap()
                    .history
                    .kinetic
            })
            .collect()
    }

    #[test]
    fn panicking_run_is_quarantined_and_healthy_runs_bit_identical() {
        let solo = solo_histories();
        let plan = FaultPlan::new().rule("v0=0.14", FaultKind::Panic, 5);
        let mut fleet = Engine::new()
            .with_faults(plan)
            .start_ensemble(&sweep().specs().unwrap(), Backend::Dl1D)
            .unwrap();
        fleet.run_to_end(1);
        assert!(fleet.is_complete(), "faulted fleet must still terminate");

        let faults = fleet.faults();
        assert_eq!(faults.len(), 1, "exactly the injected run faults");
        assert_eq!(faults[0].0, 1);
        assert!(
            matches!(faults[0].1, SessionFault::Panicked { .. }),
            "{:?}",
            faults[0].1
        );

        let summaries = fleet.finish();
        // The sick run keeps its partial history (steps before the panic).
        assert!(!summaries[1].history.is_empty());
        assert!(summaries[1].history.len() < solo[1].len());
        // The healthy neighbours are bit-identical to solo execution.
        assert_eq!(summaries[0].history.kinetic, solo[0]);
        assert_eq!(summaries[2].history.kinetic, solo[2]);
    }

    #[test]
    fn nan_divergence_is_quarantined_with_typed_error() {
        let solo = solo_histories();
        let plan = FaultPlan::new().rule("v0=0.14", FaultKind::NanField, 10);
        let mut fleet = Engine::new()
            .with_faults(plan)
            .start_ensemble(&sweep().specs().unwrap(), Backend::Dl1D)
            .unwrap();
        fleet.run_to_end(1);
        assert!(fleet.is_complete());

        let faults = fleet.faults();
        assert_eq!(faults.len(), 1);
        let (idx, fault) = (faults[0].0, faults[0].1.clone());
        assert_eq!(idx, 1);
        let SessionFault::Diverged { step, diagnostic } = &fault else {
            panic!("expected divergence, got {fault}");
        };
        assert!(diagnostic.contains("field energy"), "{diagnostic}");

        let summaries = fleet.finish();
        // Quarantine freezes the run just before the first bad row: the
        // preserved partial history is shorter than solo and entirely
        // finite (so it survives a JSON round-trip).
        assert_eq!(summaries[1].history.len(), *step);
        assert!(summaries[1].history.len() < solo[1].len());
        for (i, v) in summaries[1].history.field.iter().enumerate() {
            assert!(v.is_finite(), "preserved row {i} must stay clean");
        }
        assert_eq!(summaries[0].history.kinetic, solo[0]);
        assert_eq!(summaries[2].history.kinetic, solo[2]);
    }

    #[test]
    fn fault_plan_parses_the_inject_syntax() {
        let plan = FaultPlan::parse("v0=0.12=panic@40; v0=0.16=nan@7").unwrap();
        assert!(!plan.is_empty());
        assert!(FaultPlan::parse("").unwrap().is_empty());
        assert!(FaultPlan::parse("nonsense").is_err());
        assert!(FaultPlan::parse("run=explode@3").is_err());
        assert!(FaultPlan::parse("run=panic@soon").is_err());
        assert!(!FaultPlan::parse("seed=1]=infer-panic@2")
            .unwrap()
            .is_empty());
    }

    #[test]
    fn fault_plan_errors_name_the_offending_segment() {
        // The second of three rules is broken: the message must point at
        // segment 2 and quote it, so a typo in a long plan is findable.
        let err = FaultPlan::parse("a=panic@1;b=explode@2;c=nan@3").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("segment 2"), "{msg}");
        assert!(msg.contains("b=explode@2"), "{msg}");

        // Segment numbering counts `;`-separated positions literally, so
        // the index still lines up when empty segments are skipped.
        let err = FaultPlan::parse("a=panic@1;;c=nan@oops").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("segment 3"), "{msg}");
        assert!(msg.contains("`oops` is not a number"), "{msg}");

        // An empty NAME would match no run and inject nothing.
        let err = FaultPlan::parse("a=panic@1;=panic@3").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("segment 2"), "{msg}");
        assert!(msg.contains("=panic@3"), "{msg}");
    }
}

#[test]
fn ddecomp_empty_rank_participates_safely() {
    // All particles crowded into one slab: seven ranks start empty yet
    // must still take part in halos, gather/scatter and migration.
    use dlpic_repro::ddecomp::sim::{DistConfig, DistSimulation};
    use dlpic_repro::ddecomp::strategy::GatherScatter;
    use dlpic_repro::pic::init::{Loading, TwoStreamInit};
    use dlpic_repro::pic::shape::Shape;

    let cfg = DistConfig {
        grid: Grid1D::paper(),
        init: TwoStreamInit {
            v0: 0.0,
            vth: 0.001,
            n_particles: 512,
            loading: Loading::Random,
            seed: 3,
        },
        dt: 0.2,
        n_steps: 10,
        gather_shape: Shape::Cic,
        n_ranks: 8,
        tracked_modes: vec![],
    };
    let mut sim = DistSimulation::new(cfg, Box::new(GatherScatter::new(Shape::Cic, 1.0)));
    sim.run();
    assert_eq!(sim.total_particles(), 512);
    assert!(sim.history().total.iter().all(|e| e.is_finite()));
}
