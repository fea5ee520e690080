//! [`ScenarioSpec`]: the one declarative description of a plasma
//! experiment, independent of which solver runs it.
//!
//! A spec names the *physics* — domain geometry (dimension-tagged),
//! particle species, loading strategy, numerical parameters, tracked
//! diagnostics — and nothing about the solver. Any spec can be paired
//! with any compatible [`Backend`](super::Backend) and serialized to/from
//! JSON ([`ScenarioSpec::to_json`] / [`ScenarioSpec::from_json`]).

use super::error::EngineError;
use super::json::{obj, Json};
use crate::core::presets::Scale;
use crate::pic::init::{BeamSpec, Loading, MultiBeamInit, TwoStreamInit};
use crate::pic::{Grid1D, Grid2D, TwoStream2DInit};

/// Spatial dimensionality of a scenario or backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dim {
    /// One spatial dimension (1D-1V).
    OneD,
    /// Two spatial dimensions (2D-2V).
    TwoD,
}

impl std::fmt::Display for Dim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Self::OneD => "1-D",
            Self::TwoD => "2-D",
        })
    }
}

/// The periodic domain, tagged by dimension.
#[derive(Debug, Clone, PartialEq)]
pub enum DomainSpec {
    /// A 1-D periodic box.
    OneD {
        /// Field-grid cells.
        ncells: usize,
        /// Box length.
        length: f64,
    },
    /// A 2-D periodic box.
    TwoD {
        /// Cells along `x`.
        nx: usize,
        /// Cells along `y`.
        ny: usize,
        /// Box length along `x`.
        lx: f64,
        /// Box length along `y`.
        ly: f64,
    },
}

impl DomainSpec {
    /// The paper's standard 1-D box: 64 cells over `2π/3.06`.
    pub fn paper_1d() -> Self {
        Self::OneD {
            ncells: crate::pic::constants::PAPER_NCELLS,
            length: crate::pic::constants::paper_box_length(),
        }
    }

    /// The 2-D extension's default box: 32×32 cells, one fundamental
    /// wavelength per axis.
    pub fn default_2d() -> Self {
        Self::TwoD {
            nx: crate::pic::constants::EXTENSION_2D_NCELLS,
            ny: crate::pic::constants::EXTENSION_2D_NCELLS,
            lx: crate::pic::constants::paper_box_length(),
            ly: crate::pic::constants::paper_box_length(),
        }
    }

    /// The domain's dimensionality tag.
    pub fn dim(&self) -> Dim {
        match self {
            Self::OneD { .. } => Dim::OneD,
            Self::TwoD { .. } => Dim::TwoD,
        }
    }

    /// Total field cells (1-D: `ncells`; 2-D: `nx·ny`).
    pub fn cells(&self) -> usize {
        match self {
            Self::OneD { ncells, .. } => *ncells,
            Self::TwoD { nx, ny, .. } => nx * ny,
        }
    }
}

/// The particle population(s) of a scenario.
#[derive(Debug, Clone, PartialEq)]
pub enum SpeciesSpec {
    /// Two symmetric counter-streaming electron beams at `±v0` — the
    /// paper's configuration.
    TwoStream {
        /// Beam drift speed.
        v0: f64,
        /// Thermal spread of each beam.
        vth: f64,
    },
    /// A single Maxwellian at rest (Landau damping, thermal plasmas).
    Maxwellian {
        /// Thermal spread.
        vth: f64,
    },
    /// A bulk Maxwellian at rest plus a fast, tenuous beam — the classic
    /// bump-on-tail configuration.
    BumpOnTail {
        /// Bulk thermal spread.
        bulk_vth: f64,
        /// Beam drift speed.
        beam_v: f64,
        /// Beam thermal spread.
        beam_vth: f64,
        /// Fraction of the total density carried by the beam, in `(0, 1)`.
        beam_fraction: f64,
    },
    /// A single Maxwellian drifting as a whole — the electron response of
    /// an ion-acoustic-style current-carrying plasma. Asymmetric, so (like
    /// bump-on-tail) it loads via `MultiBeamInit` and runs on the 1-D
    /// particle backends.
    DriftingMaxwellian {
        /// Bulk drift speed.
        drift: f64,
        /// Thermal spread.
        vth: f64,
    },
}

impl SpeciesSpec {
    /// Symmetric two-stream parameters `(v0, vth)` when this species is
    /// expressible as one (which the 2-D, Vlasov and distributed backends
    /// require).
    pub fn as_two_stream(&self) -> Option<(f64, f64)> {
        match *self {
            Self::TwoStream { v0, vth } => Some((v0, vth)),
            Self::Maxwellian { vth } => Some((0.0, vth)),
            Self::BumpOnTail { .. } | Self::DriftingMaxwellian { .. } => None,
        }
    }
}

/// How the macro-particles are loaded.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoadingSpec {
    /// Positions uniform at random; instability seeded by shot noise (the
    /// paper's loading).
    Random,
    /// Deterministic equispaced positions with a sinusoidal displacement
    /// seeding one grid mode.
    Quiet {
        /// Seeded grid mode (0 disables the perturbation).
        mode: usize,
        /// Displacement amplitude as a fraction of the box length.
        amplitude: f64,
    },
}

/// The complete, solver-independent description of one experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (registry key; free-form for ad-hoc specs).
    pub name: String,
    /// Periodic domain, dimension-tagged.
    pub domain: DomainSpec,
    /// Particle population(s).
    pub species: SpeciesSpec,
    /// Loading strategy.
    pub loading: LoadingSpec,
    /// Experiment scale (sizes DL architectures and phase grids).
    pub scale: Scale,
    /// Macro-particles per field cell.
    pub ppc: usize,
    /// Time step.
    pub dt: f64,
    /// Steps per run (`n + 1` diagnostic samples are recorded).
    pub n_steps: usize,
    /// RNG seed for the loading.
    pub seed: u64,
    /// Field modes whose amplitudes are recorded each step. In 2-D, mode
    /// `m` means the `(m, 0)` mode of `Ex` — the mode family that carries
    /// the 1-D physics.
    pub tracked_modes: Vec<usize>,
}

impl ScenarioSpec {
    /// Total macro-particle count (`ppc ×` field cells).
    pub fn n_particles(&self) -> usize {
        self.ppc * self.domain.cells()
    }

    /// The scenario's dimensionality.
    pub fn dim(&self) -> Dim {
        self.domain.dim()
    }

    /// Checks internal consistency; every [`Engine`](super::Engine) run
    /// validates before building anything.
    // NaN-rejecting comparisons throughout: `!(x > 0.0)` also rejects NaN
    // where `x <= 0.0` would accept it (same convention as the solver
    // crates).
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub fn validate(&self) -> Result<(), EngineError> {
        let fail = |what: &str| {
            Err(EngineError::InvalidSpec {
                scenario: self.name.clone(),
                what: what.into(),
            })
        };
        if self.name.is_empty() {
            return fail("name must not be empty");
        }
        let finite_positive = |l: f64| l > 0.0 && l.is_finite();
        match self.domain {
            DomainSpec::OneD { ncells, length } => {
                if ncells < 2 || !finite_positive(length) {
                    return fail("1-D domain needs ncells >= 2 and a finite length > 0");
                }
            }
            DomainSpec::TwoD { nx, ny, lx, ly } => {
                if nx < 2 || ny < 2 || !finite_positive(lx) || !finite_positive(ly) {
                    return fail("2-D domain needs nx, ny >= 2 and finite lx, ly > 0");
                }
            }
        }
        match self.species {
            SpeciesSpec::TwoStream { v0, vth } => {
                if !v0.is_finite() || !vth.is_finite() || vth < 0.0 {
                    return fail("two-stream needs finite v0 and vth >= 0");
                }
            }
            SpeciesSpec::Maxwellian { vth } => {
                if !(vth > 0.0) {
                    return fail("maxwellian needs vth > 0");
                }
            }
            SpeciesSpec::BumpOnTail {
                bulk_vth,
                beam_v,
                beam_vth,
                beam_fraction,
            } => {
                if !(bulk_vth > 0.0) || !beam_v.is_finite() || beam_vth < 0.0 {
                    return fail("bump-on-tail needs bulk_vth > 0 and finite beam");
                }
                if !(beam_fraction > 0.0 && beam_fraction < 1.0) {
                    return fail("beam_fraction must lie in (0, 1)");
                }
            }
            SpeciesSpec::DriftingMaxwellian { drift, vth } => {
                if !drift.is_finite() || !(vth > 0.0) {
                    return fail("drifting maxwellian needs finite drift and vth > 0");
                }
            }
        }
        if let LoadingSpec::Quiet { amplitude, .. } = self.loading {
            if !amplitude.is_finite() || amplitude.abs() > 0.5 {
                return fail("quiet-loading amplitude must be finite and |a| <= 0.5");
            }
        }
        if self.ppc == 0 {
            return fail("ppc must be positive");
        }
        let cells = match self.domain {
            DomainSpec::OneD { ncells, .. } => Some(ncells),
            DomainSpec::TwoD { nx, ny, .. } => nx.checked_mul(ny),
        };
        if cells.and_then(|c| c.checked_mul(self.ppc)).is_none() {
            return fail("ppc × cells overflows the particle count");
        }
        if matches!(
            self.species,
            SpeciesSpec::TwoStream { .. } | SpeciesSpec::Maxwellian { .. }
        ) && !self.n_particles().is_multiple_of(2)
        {
            return fail("two-beam loadings need an even total particle count");
        }
        if !(self.dt > 0.0) || !self.dt.is_finite() {
            return fail("dt must be positive and finite");
        }
        if self.n_steps == 0 {
            return fail("n_steps must be positive");
        }
        if self.tracked_modes.contains(&0) {
            return fail("tracked modes are 1-based (mode 0 is the DC offset)");
        }
        // Seeds ride through JSON as numbers; bounding them at 2^53 keeps
        // the round-trip exact (f64 represents every integer below that).
        if self.seed >= (1u64 << 53) {
            return fail("seed must be below 2^53 so the JSON round-trip is exact");
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Builders bridging to the per-crate initial conditions. These are the
    // only places the engine touches the crates' init types.
    // ------------------------------------------------------------------

    /// The 1-D grid of this spec.
    ///
    /// # Panics
    /// Panics on a 2-D domain; callers go through [`Self::validate`] and
    /// backend-compatibility checks first.
    pub(crate) fn grid_1d(&self) -> Grid1D {
        match self.domain {
            DomainSpec::OneD { ncells, length } => Grid1D::new(ncells, length),
            DomainSpec::TwoD { .. } => unreachable!("1-D grid from 2-D spec"),
        }
    }

    /// The 2-D grid of this spec.
    pub(crate) fn grid_2d(&self) -> Grid2D {
        match self.domain {
            DomainSpec::TwoD { nx, ny, lx, ly } => Grid2D::new(nx, ny, lx, ly),
            DomainSpec::OneD { .. } => unreachable!("2-D grid from 1-D spec"),
        }
    }

    fn pic_loading(&self) -> Loading {
        match self.loading {
            LoadingSpec::Random => Loading::Random,
            LoadingSpec::Quiet { mode, amplitude } => Loading::Quiet { mode, amplitude },
        }
    }

    /// Two-stream init when the species is symmetric (`None` for
    /// bump-on-tail, which loads via [`MultiBeamInit`]).
    pub(crate) fn two_stream_init(&self) -> Option<TwoStreamInit> {
        let (v0, vth) = self.species.as_two_stream()?;
        Some(TwoStreamInit {
            v0,
            vth,
            n_particles: self.n_particles(),
            loading: self.pic_loading(),
            seed: self.seed,
        })
    }

    /// The general multi-beam init covering every 1-D species.
    pub(crate) fn multi_beam_init(&self) -> MultiBeamInit {
        let beams = match self.species {
            SpeciesSpec::TwoStream { v0, vth } => vec![
                BeamSpec {
                    drift: v0,
                    vth,
                    weight: 0.5,
                },
                BeamSpec {
                    drift: -v0,
                    vth,
                    weight: 0.5,
                },
            ],
            SpeciesSpec::Maxwellian { vth } => {
                vec![BeamSpec {
                    drift: 0.0,
                    vth,
                    weight: 1.0,
                }]
            }
            SpeciesSpec::BumpOnTail {
                bulk_vth,
                beam_v,
                beam_vth,
                beam_fraction,
            } => vec![
                BeamSpec {
                    drift: 0.0,
                    vth: bulk_vth,
                    weight: 1.0 - beam_fraction,
                },
                BeamSpec {
                    drift: beam_v,
                    vth: beam_vth,
                    weight: beam_fraction,
                },
            ],
            SpeciesSpec::DriftingMaxwellian { drift, vth } => vec![BeamSpec {
                drift,
                vth,
                weight: 1.0,
            }],
        };
        MultiBeamInit {
            beams,
            n_particles: self.n_particles(),
            loading: self.pic_loading(),
            seed: self.seed,
        }
    }

    /// The 2-D init (symmetric species only).
    pub(crate) fn init_2d(&self) -> Option<TwoStream2DInit> {
        let (v0, vth) = self.species.as_two_stream()?;
        Some(TwoStream2DInit {
            v0,
            vth,
            n_particles: self.n_particles(),
            loading: self.pic_loading(),
            seed: self.seed,
        })
    }

    // ------------------------------------------------------------------
    // JSON round-trip.
    // ------------------------------------------------------------------

    /// Serializes to a JSON document (serde-compatible shape; see
    /// [`super::json`] for why serde itself is not used).
    pub fn to_json(&self) -> String {
        self.to_json_value().to_pretty()
    }

    /// The spec as a [`Json`] value — the embeddable form used by session
    /// checkpoints, which carry the spec alongside the mutable state.
    pub fn to_json_value(&self) -> Json {
        let domain = match self.domain {
            DomainSpec::OneD { ncells, length } => obj(vec![
                ("dim", Json::Str("1d".into())),
                ("ncells", Json::Num(ncells as f64)),
                ("length", Json::Num(length)),
            ]),
            DomainSpec::TwoD { nx, ny, lx, ly } => obj(vec![
                ("dim", Json::Str("2d".into())),
                ("nx", Json::Num(nx as f64)),
                ("ny", Json::Num(ny as f64)),
                ("lx", Json::Num(lx)),
                ("ly", Json::Num(ly)),
            ]),
        };
        let species = match self.species {
            SpeciesSpec::TwoStream { v0, vth } => obj(vec![
                ("kind", Json::Str("two_stream".into())),
                ("v0", Json::Num(v0)),
                ("vth", Json::Num(vth)),
            ]),
            SpeciesSpec::Maxwellian { vth } => obj(vec![
                ("kind", Json::Str("maxwellian".into())),
                ("vth", Json::Num(vth)),
            ]),
            SpeciesSpec::BumpOnTail {
                bulk_vth,
                beam_v,
                beam_vth,
                beam_fraction,
            } => obj(vec![
                ("kind", Json::Str("bump_on_tail".into())),
                ("bulk_vth", Json::Num(bulk_vth)),
                ("beam_v", Json::Num(beam_v)),
                ("beam_vth", Json::Num(beam_vth)),
                ("beam_fraction", Json::Num(beam_fraction)),
            ]),
            SpeciesSpec::DriftingMaxwellian { drift, vth } => obj(vec![
                ("kind", Json::Str("drifting_maxwellian".into())),
                ("drift", Json::Num(drift)),
                ("vth", Json::Num(vth)),
            ]),
        };
        let loading = match self.loading {
            LoadingSpec::Random => obj(vec![("kind", Json::Str("random".into()))]),
            LoadingSpec::Quiet { mode, amplitude } => obj(vec![
                ("kind", Json::Str("quiet".into())),
                ("mode", Json::Num(mode as f64)),
                ("amplitude", Json::Num(amplitude)),
            ]),
        };
        obj(vec![
            ("name", Json::Str(self.name.clone())),
            ("domain", domain),
            ("species", species),
            ("loading", loading),
            ("scale", Json::Str(self.scale.name().into())),
            ("ppc", Json::Num(self.ppc as f64)),
            ("dt", Json::Num(self.dt)),
            ("n_steps", Json::Num(self.n_steps as f64)),
            ("seed", Json::Num(self.seed as f64)),
            (
                "tracked_modes",
                Json::Arr(
                    self.tracked_modes
                        .iter()
                        .map(|&m| Json::Num(m as f64))
                        .collect(),
                ),
            ),
        ])
    }

    /// Deserializes a document produced by [`Self::to_json`] (or written by
    /// hand / any serde emitter with the same shape), then validates it.
    pub fn from_json(text: &str) -> Result<Self, EngineError> {
        let doc = Json::parse(text)?;
        Self::from_json_value(&doc)
    }

    /// Deserializes from a [`Json`] value (inverse of
    /// [`Self::to_json_value`]), then validates.
    pub fn from_json_value(doc: &Json) -> Result<Self, EngineError> {
        let domain_doc = doc.field("domain")?;
        let domain = match domain_doc.field("dim")?.as_str()? {
            "1d" => DomainSpec::OneD {
                ncells: domain_doc.field("ncells")?.as_usize()?,
                length: domain_doc.field("length")?.as_f64()?,
            },
            "2d" => DomainSpec::TwoD {
                nx: domain_doc.field("nx")?.as_usize()?,
                ny: domain_doc.field("ny")?.as_usize()?,
                lx: domain_doc.field("lx")?.as_f64()?,
                ly: domain_doc.field("ly")?.as_f64()?,
            },
            other => {
                return Err(EngineError::InvalidSpec {
                    scenario: String::new(),
                    what: format!("unknown domain dim `{other}`"),
                })
            }
        };
        let species_doc = doc.field("species")?;
        let species = match species_doc.field("kind")?.as_str()? {
            "two_stream" => SpeciesSpec::TwoStream {
                v0: species_doc.field("v0")?.as_f64()?,
                vth: species_doc.field("vth")?.as_f64()?,
            },
            "maxwellian" => SpeciesSpec::Maxwellian {
                vth: species_doc.field("vth")?.as_f64()?,
            },
            "bump_on_tail" => SpeciesSpec::BumpOnTail {
                bulk_vth: species_doc.field("bulk_vth")?.as_f64()?,
                beam_v: species_doc.field("beam_v")?.as_f64()?,
                beam_vth: species_doc.field("beam_vth")?.as_f64()?,
                beam_fraction: species_doc.field("beam_fraction")?.as_f64()?,
            },
            "drifting_maxwellian" => SpeciesSpec::DriftingMaxwellian {
                drift: species_doc.field("drift")?.as_f64()?,
                vth: species_doc.field("vth")?.as_f64()?,
            },
            other => {
                return Err(EngineError::InvalidSpec {
                    scenario: String::new(),
                    what: format!("unknown species kind `{other}`"),
                })
            }
        };
        let loading_doc = doc.field("loading")?;
        let loading = match loading_doc.field("kind")?.as_str()? {
            "random" => LoadingSpec::Random,
            "quiet" => LoadingSpec::Quiet {
                mode: loading_doc.field("mode")?.as_usize()?,
                amplitude: loading_doc.field("amplitude")?.as_f64()?,
            },
            other => {
                return Err(EngineError::InvalidSpec {
                    scenario: String::new(),
                    what: format!("unknown loading kind `{other}`"),
                })
            }
        };
        let scale_name = doc.field("scale")?.as_str()?;
        let scale = Scale::parse(scale_name).ok_or_else(|| EngineError::InvalidSpec {
            scenario: String::new(),
            what: format!("unknown scale `{scale_name}`"),
        })?;
        let spec = Self {
            name: doc.field("name")?.as_str()?.to_string(),
            domain,
            species,
            loading,
            scale,
            ppc: doc.field("ppc")?.as_usize()?,
            dt: doc.field("dt")?.as_f64()?,
            n_steps: doc.field("n_steps")?.as_usize()?,
            seed: doc.field("seed")?.as_u64()?,
            tracked_modes: doc
                .field("tracked_modes")?
                .as_arr()?
                .iter()
                .map(|m| m.as_usize())
                .collect::<Result<Vec<_>, _>>()?,
        };
        spec.validate()?;
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_spec() -> ScenarioSpec {
        ScenarioSpec {
            name: "test".into(),
            domain: DomainSpec::paper_1d(),
            species: SpeciesSpec::TwoStream {
                v0: 0.2,
                vth: 0.025,
            },
            loading: LoadingSpec::Random,
            scale: Scale::Smoke,
            ppc: 10,
            dt: 0.2,
            n_steps: 5,
            seed: 1,
            tracked_modes: vec![1, 2],
        }
    }

    #[test]
    fn valid_spec_passes() {
        base_spec().validate().unwrap();
    }

    type SpecMutation = (&'static str, Box<dyn Fn(&mut ScenarioSpec)>);

    #[test]
    fn validation_catches_bad_fields() {
        let cases: Vec<SpecMutation> = vec![
            ("empty name", Box::new(|s| s.name.clear())),
            ("zero ppc", Box::new(|s| s.ppc = 0)),
            ("zero steps", Box::new(|s| s.n_steps = 0)),
            ("bad dt", Box::new(|s| s.dt = 0.0)),
            ("nan dt", Box::new(|s| s.dt = f64::NAN)),
            ("mode zero", Box::new(|s| s.tracked_modes = vec![0])),
            (
                "negative vth",
                Box::new(|s| s.species = SpeciesSpec::TwoStream { v0: 0.2, vth: -1.0 }),
            ),
            (
                "bad beam fraction",
                Box::new(|s| {
                    s.species = SpeciesSpec::BumpOnTail {
                        bulk_vth: 0.05,
                        beam_v: 0.3,
                        beam_vth: 0.01,
                        beam_fraction: 1.5,
                    }
                }),
            ),
            (
                "bad domain",
                Box::new(|s| {
                    s.domain = DomainSpec::OneD {
                        ncells: 1,
                        length: 2.0,
                    }
                }),
            ),
        ];
        for (what, mutate) in cases {
            let mut spec = base_spec();
            mutate(&mut spec);
            assert!(spec.validate().is_err(), "accepted: {what}");
        }
    }

    #[test]
    fn odd_totals_rejected_for_beam_pairs() {
        let mut spec = base_spec();
        spec.domain = DomainSpec::OneD {
            ncells: 3,
            length: 2.0,
        };
        spec.ppc = 3; // 9 particles, odd
        assert!(spec.validate().is_err());
        // Bump-on-tail has no ± balancing requirement.
        spec.species = SpeciesSpec::BumpOnTail {
            bulk_vth: 0.05,
            beam_v: 0.3,
            beam_vth: 0.01,
            beam_fraction: 0.2,
        };
        spec.validate().unwrap();
    }

    #[test]
    fn oversized_seeds_rejected_to_keep_json_exact() {
        let mut spec = base_spec();
        spec.seed = (1u64 << 53) - 1;
        spec.validate().unwrap();
        let round = ScenarioSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(round.seed, spec.seed);
        spec.seed = 1u64 << 53;
        assert!(spec.validate().is_err());
    }

    #[test]
    fn json_round_trip_1d() {
        let spec = base_spec();
        let round = ScenarioSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(round, spec);
    }

    #[test]
    fn json_round_trip_2d_and_quiet() {
        let mut spec = base_spec();
        spec.domain = DomainSpec::default_2d();
        spec.loading = LoadingSpec::Quiet {
            mode: 1,
            amplitude: 1e-3,
        };
        spec.ppc = 4;
        let round = ScenarioSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(round, spec);
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(ScenarioSpec::from_json("not json").is_err());
        assert!(ScenarioSpec::from_json("{}").is_err());
        let mut spec = base_spec();
        spec.ppc = 0;
        // Serializes fine, fails validation on the way back in.
        assert!(ScenarioSpec::from_json(&spec.to_json()).is_err());
    }
}
