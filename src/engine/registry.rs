//! The named scenario registry: every classic experiment of this
//! reproduction as a ready-made [`ScenarioSpec`], sized by [`Scale`].
//!
//! | name            | physics                                            |
//! |-----------------|----------------------------------------------------|
//! | `two_stream`    | the paper's validation run (Figs. 4–5)             |
//! | `two_stream_2d` | the §VII two-dimensional extension                 |
//! | `landau_damping`| collisionless damping at `k·λ_D = 0.5`             |
//! | `cold_beam`     | the linearly *stable* cold-beam stress (Fig. 6)    |
//! | `bump_on_tail`  | gentle-bump beam–plasma instability                |
//! | `thermal_noise` | quiescent Maxwellian: fluctuation floor, no growth |
//! | `warm_two_stream` | two-stream with thermal spread (Vlasov-friendly) |
//! | `ion_acoustic`  | drifting Maxwellian carrying a seeded density wave |
//!
//! All entries reuse the paper's standard domains
//! ([`DomainSpec::paper_1d`], [`DomainSpec::default_2d`]) and the
//! `pic`/`pic2d` loading machinery underneath.
//!
//! For parameter sweeps, [`sweepable_params`] lists the numeric knobs each
//! scenario exposes and [`apply_sweep_param`] applies one by name —
//! `engine::ensemble::SweepSpec` consumes both to expand grids of specs.

use super::error::EngineError;
use super::spec::{DomainSpec, LoadingSpec, ScenarioSpec, SpeciesSpec};
use crate::core::presets::Scale;
use crate::pic::constants;

/// Names this registry serves, in canonical order.
const SCENARIO_NAMES: [&str; 8] = [
    "two_stream",
    "two_stream_2d",
    "landau_damping",
    "cold_beam",
    "bump_on_tail",
    "thermal_noise",
    "warm_two_stream",
    "ion_acoustic",
];

/// The names this registry serves, as an enumerable slice — use this to
/// iterate the catalogue instead of guessing strings; [`EngineError::UnknownScenario`] carries the same list in its
/// suggestions.
pub fn names() -> &'static [&'static str] {
    &SCENARIO_NAMES
}

/// Particles-per-cell / step-count sizing per scale for 1-D entries.
fn size_1d(scale: Scale) -> (usize, usize) {
    match scale {
        Scale::Smoke => (60, 30),
        Scale::Scaled => (500, constants::PAPER_NSTEPS),
        Scale::Paper => (constants::PAPER_PARTICLES_PER_CELL, constants::PAPER_NSTEPS),
    }
}

/// Particles-per-cell / step-count sizing per scale for 2-D entries.
fn size_2d(scale: Scale) -> (usize, usize) {
    match scale {
        Scale::Smoke => (16, 25),
        Scale::Scaled => (64, 150),
        Scale::Paper => (128, 200),
    }
}

/// Builds the named scenario at the given scale.
pub fn scenario(name: &str, scale: Scale) -> Result<ScenarioSpec, EngineError> {
    let (ppc, n_steps) = size_1d(scale);
    let spec = match name {
        "two_stream" => ScenarioSpec {
            name: name.into(),
            domain: DomainSpec::paper_1d(),
            species: SpeciesSpec::TwoStream {
                v0: constants::PAPER_VALIDATION_V0,
                vth: constants::PAPER_VALIDATION_VTH,
            },
            loading: LoadingSpec::Random,
            scale,
            ppc,
            dt: constants::PAPER_DT,
            n_steps,
            seed: 20210705,
            tracked_modes: vec![1, 2, 3],
        },
        "two_stream_2d" => {
            let (ppc2, steps2) = size_2d(scale);
            ScenarioSpec {
                name: name.into(),
                domain: DomainSpec::default_2d(),
                species: SpeciesSpec::TwoStream { v0: 0.2, vth: 0.0 },
                loading: LoadingSpec::Quiet {
                    mode: 1,
                    amplitude: 1e-3,
                },
                scale,
                ppc: ppc2,
                dt: constants::PAPER_DT,
                n_steps: steps2,
                seed: 11,
                tracked_modes: vec![1, 2],
            }
        }
        "landau_damping" => {
            // k·λ_D = 0.5 at the box's fundamental: vth = 0.5/k₁.
            let vth = 0.5 / constants::PAPER_K1;
            ScenarioSpec {
                name: name.into(),
                domain: DomainSpec::paper_1d(),
                species: SpeciesSpec::Maxwellian { vth },
                loading: LoadingSpec::Quiet {
                    mode: 1,
                    amplitude: 1e-3,
                },
                scale,
                ppc,
                // Resolve the ω ≈ 1.4 Langmuir oscillation.
                dt: 0.1,
                n_steps: match scale {
                    Scale::Smoke => 40,
                    Scale::Scaled => 350,
                    Scale::Paper => 700,
                },
                seed: 42,
                tracked_modes: vec![1, 2],
            }
        }
        "cold_beam" => ScenarioSpec {
            name: name.into(),
            domain: DomainSpec::paper_1d(),
            species: SpeciesSpec::TwoStream {
                v0: constants::PAPER_COLD_BEAM_V0,
                vth: 0.0,
            },
            loading: LoadingSpec::Random,
            scale,
            ppc,
            dt: constants::PAPER_DT,
            n_steps,
            seed: 13,
            tracked_modes: vec![1, 2, 3],
        },
        "bump_on_tail" => ScenarioSpec {
            name: name.into(),
            domain: DomainSpec::paper_1d(),
            // Gentle bump: 10% of the density drifting at 3× the resonant
            // spread of the bulk — unstable to waves resonant with the
            // beam's leading edge.
            species: SpeciesSpec::BumpOnTail {
                bulk_vth: 0.05,
                beam_v: 0.3,
                beam_vth: 0.02,
                beam_fraction: 0.1,
            },
            loading: LoadingSpec::Random,
            scale,
            ppc,
            dt: constants::PAPER_DT,
            n_steps,
            seed: 17,
            tracked_modes: vec![1, 2, 3],
        },
        "thermal_noise" => ScenarioSpec {
            name: name.into(),
            domain: DomainSpec::paper_1d(),
            species: SpeciesSpec::Maxwellian { vth: 0.05 },
            loading: LoadingSpec::Random,
            scale,
            ppc,
            dt: constants::PAPER_DT,
            n_steps,
            seed: 23,
            tracked_modes: vec![1],
        },
        "warm_two_stream" => ScenarioSpec {
            name: name.into(),
            domain: DomainSpec::paper_1d(),
            // The paper's validation drift with a finite thermal spread:
            // the instability still grows (v0 ≫ vth) but f is smooth
            // enough for the continuum backend (vth ≥ its 0.01 floor),
            // so sweeps can include Vlasov cross-checks.
            species: SpeciesSpec::TwoStream {
                v0: constants::PAPER_VALIDATION_V0,
                vth: 0.02,
            },
            loading: LoadingSpec::Random,
            scale,
            ppc,
            dt: constants::PAPER_DT,
            n_steps,
            seed: 29,
            tracked_modes: vec![1, 2, 3],
        },
        "ion_acoustic" => ScenarioSpec {
            name: name.into(),
            domain: DomainSpec::paper_1d(),
            // Electron picture of a current-carrying plasma: one
            // Maxwellian drifting as a whole, with a quietly seeded
            // mode-1 density wave riding on it (ion-acoustic-style
            // propagating structure rather than a two-beam instability).
            species: SpeciesSpec::DriftingMaxwellian {
                drift: 0.15,
                vth: 0.05,
            },
            loading: LoadingSpec::Quiet {
                mode: 1,
                amplitude: 1e-3,
            },
            scale,
            ppc,
            dt: constants::PAPER_DT,
            n_steps,
            seed: 31,
            tracked_modes: vec![1, 2],
        },
        other => {
            return Err(EngineError::UnknownScenario {
                name: other.to_string(),
                known: names().to_vec(),
            })
        }
    };
    spec.validate()?;
    Ok(spec)
}

/// Every registry scenario at the given scale.
#[cfg(test)]
fn all_scenarios(scale: Scale) -> Vec<ScenarioSpec> {
    SCENARIO_NAMES
        .iter()
        .map(|name| scenario(name, scale).expect("registry entries validate"))
        .collect()
}

// ---------------------------------------------------------------------
// Sweepable-parameter metadata (consumed by `ensemble::SweepSpec`).
// ---------------------------------------------------------------------

/// One numeric knob of a scenario that a parameter sweep may vary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepParam {
    /// The name [`apply_sweep_param`] accepts.
    pub name: &'static str,
    /// What the knob controls.
    pub what: &'static str,
}

const fn param(name: &'static str, what: &'static str) -> SweepParam {
    SweepParam { name, what }
}

/// The numeric knobs sweepable on `spec`, derived from its species and
/// loading (so ad-hoc specs get the same metadata as registry entries).
/// Every listed name is accepted by [`apply_sweep_param`].
pub fn sweepable_params(spec: &ScenarioSpec) -> Vec<SweepParam> {
    let mut params = vec![
        param("dt", "time step"),
        param("ppc", "macro-particles per cell (rounded to an integer)"),
    ];
    match spec.species {
        SpeciesSpec::TwoStream { .. } => {
            params.push(param("v0", "beam drift speed"));
            params.push(param("vth", "per-beam thermal spread"));
        }
        SpeciesSpec::Maxwellian { .. } => {
            params.push(param("vth", "thermal spread"));
        }
        SpeciesSpec::BumpOnTail { .. } => {
            params.push(param("bulk_vth", "bulk thermal spread"));
            params.push(param("beam_v", "beam drift speed"));
            params.push(param("beam_vth", "beam thermal spread"));
            params.push(param("beam_fraction", "beam density fraction"));
        }
        SpeciesSpec::DriftingMaxwellian { .. } => {
            params.push(param("drift", "bulk drift speed"));
            params.push(param("vth", "thermal spread"));
        }
    }
    if matches!(spec.loading, LoadingSpec::Quiet { .. }) {
        params.push(param("amplitude", "quiet-loading displacement amplitude"));
    }
    params
}

/// Sets the named knob on `spec` (see [`sweepable_params`]); the caller
/// re-validates the spec afterwards (sweeps validate every expanded
/// point).
// `!(value >= 1.0)` also rejects NaN where `value < 1.0` would accept it
// (same convention as `ScenarioSpec::validate`).
#[allow(clippy::neg_cmp_op_on_partial_ord)]
pub fn apply_sweep_param(
    spec: &mut ScenarioSpec,
    name: &str,
    value: f64,
) -> Result<(), EngineError> {
    let unknown = |spec: &ScenarioSpec| {
        let known: Vec<&str> = sweepable_params(spec).iter().map(|p| p.name).collect();
        Err(EngineError::InvalidSpec {
            scenario: spec.name.clone(),
            what: format!(
                "`{name}` is not a sweepable parameter of this scenario (knows {})",
                known.join(", ")
            ),
        })
    };
    match name {
        "dt" => spec.dt = value,
        "ppc" => {
            if !(value >= 1.0) || value > 1e9 {
                return Err(EngineError::InvalidSpec {
                    scenario: spec.name.clone(),
                    what: format!("ppc = {value} is not a positive particle count"),
                });
            }
            spec.ppc = value.round() as usize;
        }
        "v0" => match &mut spec.species {
            SpeciesSpec::TwoStream { v0, .. } => *v0 = value,
            _ => return unknown(spec),
        },
        "vth" => match &mut spec.species {
            SpeciesSpec::TwoStream { vth, .. }
            | SpeciesSpec::Maxwellian { vth }
            | SpeciesSpec::DriftingMaxwellian { vth, .. } => *vth = value,
            SpeciesSpec::BumpOnTail { .. } => return unknown(spec),
        },
        "drift" => match &mut spec.species {
            SpeciesSpec::DriftingMaxwellian { drift, .. } => *drift = value,
            _ => return unknown(spec),
        },
        "bulk_vth" => match &mut spec.species {
            SpeciesSpec::BumpOnTail { bulk_vth, .. } => *bulk_vth = value,
            _ => return unknown(spec),
        },
        "beam_v" => match &mut spec.species {
            SpeciesSpec::BumpOnTail { beam_v, .. } => *beam_v = value,
            _ => return unknown(spec),
        },
        "beam_vth" => match &mut spec.species {
            SpeciesSpec::BumpOnTail { beam_vth, .. } => *beam_vth = value,
            _ => return unknown(spec),
        },
        "beam_fraction" => match &mut spec.species {
            SpeciesSpec::BumpOnTail { beam_fraction, .. } => *beam_fraction = value,
            _ => return unknown(spec),
        },
        "amplitude" => match &mut spec.loading {
            LoadingSpec::Quiet { amplitude, .. } => *amplitude = value,
            LoadingSpec::Random => return unknown(spec),
        },
        _ => return unknown(spec),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_entry_validates_at_every_scale() {
        for scale in [Scale::Smoke, Scale::Scaled, Scale::Paper] {
            for name in SCENARIO_NAMES {
                let spec = scenario(name, scale).unwrap();
                assert_eq!(spec.name, name);
                assert_eq!(spec.scale, scale);
            }
            assert_eq!(all_scenarios(scale).len(), SCENARIO_NAMES.len());
        }
    }

    #[test]
    fn unknown_names_list_the_registry() {
        match scenario("warp_drive", Scale::Smoke) {
            Err(EngineError::UnknownScenario { name, known }) => {
                assert_eq!(name, "warp_drive");
                assert_eq!(known, names().to_vec());
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn names_enumerates_every_entry() {
        assert_eq!(names(), &SCENARIO_NAMES);
        for name in names() {
            assert!(scenario(name, Scale::Smoke).is_ok(), "{name} missing");
        }
    }

    #[test]
    fn new_presets_have_expected_physics() {
        let warm = scenario("warm_two_stream", Scale::Smoke).unwrap();
        assert!(matches!(
            warm.species,
            SpeciesSpec::TwoStream { vth, .. } if vth >= 0.01
        ));
        // Thermal spread above the continuum floor: Vlasov-compatible.
        assert!(crate::engine::Backend::Vlasov.supports(&warm).is_ok());

        let ion = scenario("ion_acoustic", Scale::Smoke).unwrap();
        assert!(matches!(
            ion.species,
            SpeciesSpec::DriftingMaxwellian { .. }
        ));
        // Asymmetric drift: 1-D particle backends only, like bump-on-tail.
        let names: Vec<&str> = crate::engine::backend::compatible_backends(&ion)
            .iter()
            .map(|b| b.name())
            .collect();
        assert_eq!(names, vec!["traditional-1d", "dl-1d"]);
    }

    #[test]
    fn sweep_metadata_names_are_applicable() {
        for name in SCENARIO_NAMES {
            let params = sweepable_params(&scenario(name, Scale::Smoke).unwrap());
            assert!(params.iter().any(|p| p.name == "dt"), "{name}");
            let mut spec = scenario(name, Scale::Smoke).unwrap();
            for p in &params {
                // Application never validates physics ranges (the sweep
                // validates each expanded spec); 2.0 satisfies the only
                // applied-side check (ppc >= 1).
                apply_sweep_param(&mut spec, p.name, 2.0)
                    .unwrap_or_else(|e| panic!("{name}: listed param {} rejected: {e}", p.name));
            }
            // Unlisted names are rejected with the known list.
            let err = apply_sweep_param(&mut spec, "warp_factor", 9.0).unwrap_err();
            assert!(err.to_string().contains("dt"), "{err}");
        }
    }

    #[test]
    fn paper_scale_two_stream_matches_the_paper() {
        let spec = scenario("two_stream", Scale::Paper).unwrap();
        assert_eq!(spec.n_particles(), 64_000);
        assert_eq!(spec.n_steps, 200);
        assert!((spec.dt - 0.2).abs() < 1e-15);
    }
}
