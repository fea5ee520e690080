//! [`Backend`]: which solver runs a scenario. Any scenario×backend pairing
//! that passes [`Backend::supports`] is one enum value away — the paper's
//! drop-in-replacement design made into an API.

use super::error::EngineError;
use super::spec::{Dim, ScenarioSpec};

/// The solver families the engine can drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Traditional 1-D PIC: deposit → Poisson → gradient (the paper's
    /// baseline).
    Traditional1D,
    /// DL-based 1-D PIC: phase-space binning → network inference (the
    /// paper's contribution).
    Dl1D,
    /// Traditional 2-D PIC (the §VII extension).
    Traditional2D,
    /// DL-based 2-D PIC: density binning → network inference.
    Dl2D,
    /// Continuum Vlasov–Poisson (noise-free kinetic reference).
    Vlasov,
    /// Domain-decomposed 1-D PIC with exact communication accounting.
    Ddecomp {
        /// Number of ranks; must divide the cell count.
        n_ranks: usize,
    },
}

impl Backend {
    /// Every backend family, with defaults for parameterized variants.
    pub fn all() -> Vec<Backend> {
        vec![
            Backend::Traditional1D,
            Backend::Dl1D,
            Backend::Traditional2D,
            Backend::Dl2D,
            Backend::Vlasov,
            Backend::Ddecomp { n_ranks: 4 },
        ]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Backend::Traditional1D => "traditional-1d",
            Backend::Dl1D => "dl-1d",
            Backend::Traditional2D => "traditional-2d",
            Backend::Dl2D => "dl-2d",
            Backend::Vlasov => "vlasov",
            Backend::Ddecomp { .. } => "ddecomp",
        }
    }

    /// Parses a display spelling back into a backend — the inverse of
    /// [`std::fmt::Display`] (`"traditional-1d"`, `"vlasov"`,
    /// `"ddecomp[4]"`; the bare `"ddecomp"` means the default 4 ranks).
    /// Session checkpoints persist backends in this form.
    pub fn parse(text: &str) -> Option<Backend> {
        match text {
            "traditional-1d" => Some(Backend::Traditional1D),
            "dl-1d" => Some(Backend::Dl1D),
            "traditional-2d" => Some(Backend::Traditional2D),
            "dl-2d" => Some(Backend::Dl2D),
            "vlasov" => Some(Backend::Vlasov),
            "ddecomp" => Some(Backend::Ddecomp { n_ranks: 4 }),
            other => {
                let inner = other.strip_prefix("ddecomp[")?.strip_suffix(']')?;
                let n_ranks: usize = inner.parse().ok()?;
                (n_ranks > 0).then_some(Backend::Ddecomp { n_ranks })
            }
        }
    }

    /// The dimensionality this backend simulates.
    pub fn dim(&self) -> Dim {
        match self {
            Backend::Traditional2D | Backend::Dl2D => Dim::TwoD,
            _ => Dim::OneD,
        }
    }

    /// Checks that `spec` can run on this backend.
    pub fn supports(&self, spec: &ScenarioSpec) -> Result<(), EngineError> {
        let incompatible = |why: String| {
            Err(EngineError::Incompatible {
                scenario: spec.name.clone(),
                backend: self.name(),
                why,
            })
        };
        if spec.dim() != self.dim() {
            return incompatible(format!(
                "{} scenario on a {} backend",
                spec.dim(),
                self.dim()
            ));
        }
        match self {
            Backend::Traditional1D | Backend::Dl1D => Ok(()),
            Backend::Traditional2D | Backend::Dl2D | Backend::Vlasov => {
                if spec.species.as_two_stream().is_none() {
                    return incompatible(format!(
                        "species {:?} is not expressible as a symmetric two-beam load",
                        spec.species
                    ));
                }
                if matches!(self, Backend::Vlasov) {
                    // The continuum solver needs a smooth f: a thermal
                    // spread of at least a few velocity cells. Rejecting
                    // here (instead of silently clamping) keeps "same spec,
                    // same physics" true across backends.
                    let (_, vth) = spec.species.as_two_stream().expect("checked above");
                    if vth < super::session::VLASOV_MIN_VTH {
                        return incompatible(format!(
                            "the continuum solver needs vth >= {} for a smooth f (got {vth})",
                            super::session::VLASOV_MIN_VTH
                        ));
                    }
                    // VlasovSolver seeds its density perturbation on grid
                    // mode 1 only; a quiet loading asking for another mode
                    // would run different physics than the PIC backends.
                    if let crate::engine::LoadingSpec::Quiet { mode, .. } = spec.loading {
                        if mode > 1 {
                            return incompatible(format!(
                                "the continuum solver seeds mode 1 only (quiet loading asked for mode {mode})"
                            ));
                        }
                    }
                }
                Ok(())
            }
            Backend::Ddecomp { n_ranks } => {
                if spec.species.as_two_stream().is_none() {
                    return incompatible(
                        "the distributed driver loads via TwoStreamInit".to_string(),
                    );
                }
                let ncells = spec.domain.cells();
                if *n_ranks == 0 || !ncells.is_multiple_of(*n_ranks) {
                    return incompatible(format!("{n_ranks} ranks do not divide {ncells} cells"));
                }
                let halo = crate::ddecomp::halo::HALO;
                if ncells / n_ranks < 2 * halo {
                    return incompatible(format!(
                        "slabs of {} cells are narrower than 2×HALO = {}",
                        ncells / n_ranks,
                        2 * halo
                    ));
                }
                Ok(())
            }
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Backend::Ddecomp { n_ranks } => write!(f, "ddecomp[{n_ranks}]"),
            other => f.write_str(other.name()),
        }
    }
}

/// All backends (from [`Backend::all`]) this scenario can run on.
#[cfg(test)]
pub(crate) fn compatible_backends(spec: &ScenarioSpec) -> Vec<Backend> {
    Backend::all()
        .into_iter()
        .filter(|b| b.supports(spec).is_ok())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::presets::Scale;
    use crate::engine::registry;
    use crate::engine::spec::{DomainSpec, LoadingSpec, SpeciesSpec};

    fn spec_1d() -> ScenarioSpec {
        registry::scenario("two_stream", Scale::Smoke).unwrap()
    }

    #[test]
    fn dimensionality_is_enforced() {
        let spec = spec_1d();
        assert!(Backend::Traditional1D.supports(&spec).is_ok());
        assert!(Backend::Traditional2D.supports(&spec).is_err());
        let spec2d = registry::scenario("two_stream_2d", Scale::Smoke).unwrap();
        assert!(Backend::Traditional2D.supports(&spec2d).is_ok());
        assert!(Backend::Vlasov.supports(&spec2d).is_err());
    }

    #[test]
    fn bump_on_tail_runs_only_on_1d_pic() {
        let spec = registry::scenario("bump_on_tail", Scale::Smoke).unwrap();
        let names: Vec<&str> = compatible_backends(&spec)
            .iter()
            .map(|b| b.name())
            .collect();
        assert_eq!(names, vec!["traditional-1d", "dl-1d"]);
    }

    #[test]
    fn ddecomp_rank_constraints() {
        let mut spec = spec_1d();
        assert!(Backend::Ddecomp { n_ranks: 4 }.supports(&spec).is_ok());
        assert!(Backend::Ddecomp { n_ranks: 5 }.supports(&spec).is_err());
        assert!(Backend::Ddecomp { n_ranks: 0 }.supports(&spec).is_err());
        // Slabs narrower than the halo are rejected.
        spec.domain = DomainSpec::OneD {
            ncells: 8,
            length: 2.0,
        };
        assert!(Backend::Ddecomp { n_ranks: 4 }.supports(&spec).is_err());
    }

    #[test]
    fn vlasov_needs_thermal_spread() {
        let spec = registry::scenario("cold_beam", Scale::Smoke).unwrap();
        assert!(Backend::Vlasov.supports(&spec).is_err());
        let mut warm = spec;
        warm.species = SpeciesSpec::TwoStream { v0: 0.4, vth: 0.02 };
        assert!(Backend::Vlasov.supports(&warm).is_ok());
        // Quiet loading maps to the Vlasov perturbation seed.
        warm.loading = LoadingSpec::Quiet {
            mode: 1,
            amplitude: 1e-3,
        };
        assert!(Backend::Vlasov.supports(&warm).is_ok());
        // Under-resolved thermal spreads are rejected, not silently
        // clamped…
        warm.species = SpeciesSpec::TwoStream {
            v0: 0.4,
            vth: 0.005,
        };
        assert!(Backend::Vlasov.supports(&warm).is_err());
        // …and so are quiet seeds on modes the continuum solver cannot
        // excite.
        warm.species = SpeciesSpec::TwoStream { v0: 0.4, vth: 0.02 };
        warm.loading = LoadingSpec::Quiet {
            mode: 2,
            amplitude: 1e-3,
        };
        assert!(Backend::Vlasov.supports(&warm).is_err());
    }

    #[test]
    fn display_names() {
        assert_eq!(Backend::Dl1D.to_string(), "dl-1d");
        assert_eq!(Backend::Ddecomp { n_ranks: 8 }.to_string(), "ddecomp[8]");
    }

    #[test]
    fn parse_inverts_display() {
        for backend in Backend::all() {
            assert_eq!(Backend::parse(&backend.to_string()), Some(backend));
        }
        assert_eq!(
            Backend::parse("ddecomp[16]"),
            Some(Backend::Ddecomp { n_ranks: 16 })
        );
        for bad in ["", "dl", "ddecomp[]", "ddecomp[0]", "ddecomp[x]"] {
            assert_eq!(Backend::parse(bad), None, "accepted {bad:?}");
        }
    }
}
