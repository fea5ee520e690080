//! Model-bundle back-compat: a version-3 and a version-2 `ModelBundle`
//! committed under `tests/fixtures/`, and the field they predict, must keep
//! decoding, re-encoding and solving to the same bits whatever happens to
//! the code between the file and the solver (`decode`, `freeze`,
//! `FrozenBundle::solver`). A round-trip test cannot see a writer and a
//! reader that drift together; a committed file can.
//!
//! The bundle is a seeded MLP `64 → 8 → 64` on an 8 × 8 phase grid with CIC
//! binning, a non-identity normalization and a reference mass (≈ 4.4 KB).
//! `bundle_v2_tiny.dlpb` is the same bundle in the version-2 layout (version
//! word 2, no precision byte). `bundle_tiny_field.txt` is the field either
//! one predicts for one fixed random two-stream load on the paper grid, as
//! hex IEEE-754 bit patterns (the `tests/golden` format).
//!
//! Recorded on x86-64 Linux; the particle loader calls `sin`/`ln`, so
//! another platform's libm may differ in the last place (the same caveat as
//! `tests/golden_histories.rs`).
//!
//! To re-record after an *intended* format change (bump the bundle version
//! and keep the old fixtures decoding):
//! `cargo test --release --test bundle_compat -- --ignored regenerate`.

use dlpic_repro::core::{
    ArchSpec, BinningShape, DlFieldSolver, ModelBundle, NormStats, PhaseGridSpec,
};
use dlpic_repro::nn::Precision;
use dlpic_repro::pic::init::TwoStreamInit;
use dlpic_repro::pic::solver::FieldSolver as _;
use dlpic_repro::pic::Grid1D;
use std::fmt::Write as _;
use std::path::PathBuf;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn read_bundle(name: &str) -> Vec<u8> {
    let path = fixture_path(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The recorded bundle, rebuilt from its seed (only `regenerate` writes it).
fn tiny_bundle() -> ModelBundle {
    let spec = PhaseGridSpec::new(8, 8, -0.8, 0.8);
    let arch = ArchSpec::Mlp {
        input: spec.cells(),
        hidden: vec![8],
        output: 64,
    };
    let mut net = arch.build(0xB0D1E);
    let norm = NormStats {
        min: 0.0,
        max: 37.5,
    };
    ModelBundle::from_network(&mut net, arch, spec, BinningShape::Cic, norm)
        .with_reference_mass(4_096.0)
}

/// The field `solver` predicts for the fixed load, one hex bit pattern per
/// node.
fn field_bits(mut solver: DlFieldSolver) -> String {
    let grid = Grid1D::paper();
    let particles = TwoStreamInit::random(0.2, 0.01, 2_000, 21).build(&grid);
    let mut e = grid.zeros();
    solver.solve(&particles, &grid, &mut e);
    let mut out = String::from("# e\n");
    for v in e {
        writeln!(out, "{:016x}", v.to_bits()).unwrap();
    }
    out
}

#[test]
fn v3_decodes_and_reencodes_byte_for_byte() {
    let bytes = read_bundle("bundle_v3_tiny.dlpb");
    let decoded = ModelBundle::decode(&bytes).unwrap();
    assert_eq!(decoded.precision, Precision::F32);
    assert_eq!(decoded.encode(), bytes);
}

#[test]
fn v2_decodes_to_the_same_parameters_at_f32() {
    let v3 = ModelBundle::decode(&read_bundle("bundle_v3_tiny.dlpb")).unwrap();
    let v2_bytes = read_bundle("bundle_v2_tiny.dlpb");
    assert_eq!(&v2_bytes[4..8], &2u32.to_le_bytes(), "version word");
    let v2 = ModelBundle::decode(&v2_bytes).unwrap();
    assert_eq!(v2.precision, Precision::F32);
    assert_eq!(v2.params, v3.params);
    assert_eq!(v2.arch, v3.arch);
    assert_eq!(v2.spec, v3.spec);
    assert_eq!(v2.binning, v3.binning);
    assert_eq!(v2.norm, v3.norm);
    assert_eq!(v2.reference_mass, v3.reference_mass);
}

#[test]
fn owned_and_frozen_solvers_predict_the_committed_field() {
    let want = std::fs::read_to_string(fixture_path("bundle_tiny_field.txt")).unwrap();
    for name in ["bundle_v3_tiny.dlpb", "bundle_v2_tiny.dlpb"] {
        let decoded = ModelBundle::decode(&read_bundle(name)).unwrap();
        let frozen = decoded.freeze().unwrap();
        assert_eq!(field_bits(frozen.solver()), want, "{name}: frozen");
        assert_eq!(
            field_bits(frozen.clone().solver()),
            want,
            "{name}: second member of the same freeze"
        );
    }
}

#[test]
#[ignore = "rewrites tests/fixtures/; run by hand after an intended format change"]
fn regenerate() {
    let bundle = tiny_bundle();
    let v3 = bundle.encode();
    // The version-2 layout: version word 2, and no precision byte in front
    // of the u64 parameter length.
    let precision_at = v3.len() - bundle.params.len() - 8 - 1;
    let mut v2 = v3.clone();
    v2[4..8].copy_from_slice(&2u32.to_le_bytes());
    v2.remove(precision_at);
    std::fs::write(fixture_path("bundle_v3_tiny.dlpb"), &v3).unwrap();
    std::fs::write(fixture_path("bundle_v2_tiny.dlpb"), &v2).unwrap();
    std::fs::write(
        fixture_path("bundle_tiny_field.txt"),
        field_bits(bundle.freeze().unwrap().solver()),
    )
    .unwrap();
}
