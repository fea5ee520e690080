//! Integration test: the dataset pipeline end to end — generation from
//! PIC runs, normalization, shuffle/split, storage, and conversion to
//! trainable tensors (paper §IV.A.1).

use dlpic_repro::core::builder::InputKind;
use dlpic_repro::core::phase_space::{BinningShape, PhaseGridSpec};
use dlpic_repro::core::Scale;
use dlpic_repro::dataset::generator::{generate, GeneratorConfig};
use dlpic_repro::dataset::spec::SweepSpec;
use dlpic_repro::dataset::split::{shuffle_split, SplitSizes};
use dlpic_repro::dataset::store;

fn smoke_dataset() -> dlpic_repro::dataset::PhaseDataset {
    let mut cfg = GeneratorConfig::new(
        SweepSpec::training_for(Scale::Smoke),
        PhaseGridSpec::smoke(),
    );
    cfg.ppc = 50;
    generate(&cfg)
}

#[test]
fn generated_dataset_is_clean_and_complete() {
    let ds = smoke_dataset();
    let sweep = SweepSpec::training_for(Scale::Smoke);
    assert_eq!(ds.len(), sweep.total_samples());

    // The paper's inspection step: no numerical artifacts.
    let all_finite = ds
        .inputs()
        .iter()
        .chain(ds.targets())
        .all(|v| v.is_finite());
    assert!(all_finite, "non-finite values in dataset");
    assert!(
        ds.inputs().iter().all(|&v| v >= 0.0),
        "negative histogram count"
    );
    let max_abs_field = ds.targets().iter().fold(0.0f32, |m, v| m.max(v.abs()));
    assert!(
        max_abs_field > 0.0 && max_abs_field < 1.0,
        "field scale implausible: {max_abs_field}"
    );

    // Histogram mass = particle count for every sample.
    let expected_mass = (50 * 64) as f32;
    for i in 0..ds.len() {
        let mass: f32 = ds.input_row(i).iter().sum();
        assert!((mass - expected_mass).abs() < 0.5, "sample {i} mass {mass}");
    }
}

#[test]
fn split_preserves_pairs_and_partitions() {
    let ds = smoke_dataset();
    let sizes = SplitSizes::paper_proportions(ds.len());
    let (train, val, test) = shuffle_split(&ds, sizes, 42);
    assert_eq!(train.len() + val.len() + test.len(), ds.len());
    assert_eq!(val.len(), (ds.len() / 40).max(1));

    // Determinism.
    let (train2, ..) = shuffle_split(&ds, sizes, 42);
    assert_eq!(train.inputs(), train2.inputs());
    assert_eq!(train.targets(), train2.targets());
}

#[test]
fn normalization_from_train_split_bounds_inputs() {
    let ds = smoke_dataset();
    let sizes = SplitSizes::paper_proportions(ds.len());
    let (train, _, test) = shuffle_split(&ds, sizes, 1);
    let norm = train.input_norm_stats();

    let train_nn = train.to_nn_dataset(&norm, InputKind::Flat);
    assert!(train_nn.x.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
    // Test inputs may exceed [0,1] slightly (their min/max was not used),
    // but must stay near it for a same-distribution split.
    let test_nn = test.to_nn_dataset(&norm, InputKind::Flat);
    assert!(test_nn.x.data().iter().all(|&v| (-0.5..=1.5).contains(&v)));
}

#[test]
fn image_tensors_match_phase_grid_geometry() {
    let ds = smoke_dataset();
    let norm = ds.input_norm_stats();
    let img = ds.to_nn_dataset(&norm, InputKind::Image);
    assert_eq!(img.x.shape(), &[ds.len(), 1, 16, 16]);
    assert_eq!(img.y.shape(), &[ds.len(), 64]);
    let flat = ds.to_nn_dataset(&norm, InputKind::Flat);
    // Same data, different shape.
    assert_eq!(img.x.data(), flat.x.data());
}

#[test]
fn store_round_trip_through_filesystem() {
    let ds = smoke_dataset();
    let dir = std::env::temp_dir().join(format!("dlpic-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("pipeline.dlds");
    store::save(&ds, &path).expect("save");
    let loaded = store::load(&path).expect("load");
    assert_eq!(loaded.len(), ds.len());
    assert_eq!(loaded.inputs(), ds.inputs());
    assert_eq!(loaded.targets(), ds.targets());
    assert_eq!(loaded.spec, ds.spec);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn test_set_ii_sweep_is_disjoint_and_generates() {
    let mut cfg = GeneratorConfig::new(
        SweepSpec::test_set_ii_for(Scale::Smoke),
        PhaseGridSpec::smoke(),
    );
    cfg.ppc = 50;
    cfg.binning = BinningShape::Cic;
    let ds = generate(&cfg);
    assert!(!ds.is_empty());
    assert_eq!(ds.binning, BinningShape::Cic);
}
