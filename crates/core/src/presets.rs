//! Experiment scale presets.
//!
//! Every experiment in this reproduction runs at one of three scales:
//!
//! * [`Scale::Paper`] — full fidelity as published: 64×64 phase grids,
//!   3×1024 MLP, 150/100 training epochs. Sized for the authors' 24-core +
//!   K80 node; runnable here but slow on one CPU core.
//! * [`Scale::Scaled`] — the default for the experiment binaries: 32×32
//!   phase grids, 3×256 MLP, fewer epochs. Preserves every qualitative
//!   result (see EXPERIMENTS.md for side-by-side numbers).
//! * [`Scale::Smoke`] — seconds-fast settings for tests and CI.
//!
//! The *PIC physics* configuration (64 cells, 1000 electrons/cell,
//! Δt = 0.2) is identical at `Paper` and `Scaled`; only the learning
//! problem shrinks.

use crate::builder::ArchSpec;
use crate::phase_space::PhaseGridSpec;

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scale {
    /// Tiny settings for tests.
    Smoke,
    /// 1-core-friendly defaults.
    #[default]
    Scaled,
    /// Full paper fidelity.
    Paper,
}

impl Scale {
    /// Parses "smoke" / "scaled" / "paper" (case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "smoke" => Some(Self::Smoke),
            "scaled" => Some(Self::Scaled),
            "paper" => Some(Self::Paper),
            _ => None,
        }
    }

    /// Reads `DLPIC_SCALE` from the environment, defaulting to `Scaled`.
    pub fn from_env() -> Self {
        Self::from_env_or(Self::default())
    }

    /// Reads `DLPIC_SCALE` from the environment with a caller-chosen
    /// default (examples default to `Smoke` so they finish in seconds).
    /// The default applies only when the variable is unset: an unknown
    /// value exits with status 2, as an unknown `--scale` does.
    pub fn from_env_or(default: Self) -> Self {
        let value = std::env::var_os("DLPIC_SCALE").map(|v| v.to_string_lossy().into_owned());
        Self::from_var(value.as_deref(), default).unwrap_or_else(|msg| {
            eprintln!("{msg}");
            std::process::exit(2);
        })
    }

    /// `DLPIC_SCALE`'s value parsed, or `default` when it is unset.
    fn from_var(value: Option<&str>, default: Self) -> Result<Self, String> {
        match value {
            None => Ok(default),
            Some(v) => Self::parse(v)
                .ok_or_else(|| format!("unknown DLPIC_SCALE `{v}`; use smoke|scaled|paper")),
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Self::Smoke => "smoke",
            Self::Scaled => "scaled",
            Self::Paper => "paper",
        }
    }

    /// Phase-space histogram geometry at this scale.
    pub fn phase_spec(self) -> PhaseGridSpec {
        match self {
            Self::Smoke => PhaseGridSpec::smoke(),
            Self::Scaled => PhaseGridSpec::scaled(),
            Self::Paper => PhaseGridSpec::paper(),
        }
    }

    /// MLP architecture (paper §IV.A at `Paper` scale).
    pub fn mlp_arch(self) -> ArchSpec {
        let input = self.phase_spec().cells();
        let output = dlpic_pic::constants::PAPER_NCELLS;
        match self {
            Self::Smoke => ArchSpec::Mlp {
                input,
                hidden: vec![32, 32],
                output,
            },
            Self::Scaled => ArchSpec::Mlp {
                input,
                hidden: vec![256, 256, 256],
                output,
            },
            Self::Paper => ArchSpec::paper_mlp(input, output),
        }
    }

    /// CNN architecture (paper §IV.A block structure).
    pub fn cnn_arch(self) -> ArchSpec {
        let spec = self.phase_spec();
        let output = dlpic_pic::constants::PAPER_NCELLS;
        match self {
            Self::Smoke => ArchSpec::Cnn {
                nv: spec.nv,
                nx: spec.nx,
                channels: (2, 4),
                kernel: 3,
                hidden: vec![32, 32],
                output,
            },
            Self::Scaled => ArchSpec::Cnn {
                nv: spec.nv,
                nx: spec.nx,
                channels: (8, 16),
                kernel: 3,
                hidden: vec![128, 128, 128],
                output,
            },
            Self::Paper => ArchSpec::paper_cnn(spec.nv, spec.nx, output),
        }
    }

    /// Residual-MLP architecture for the §VII architecture ablation.
    pub fn resmlp_arch(self) -> ArchSpec {
        let input = self.phase_spec().cells();
        let output = dlpic_pic::constants::PAPER_NCELLS;
        match self {
            Self::Smoke => ArchSpec::ResMlp {
                input,
                width: 32,
                blocks: 2,
                output,
            },
            Self::Scaled => ArchSpec::ResMlp {
                input,
                width: 256,
                blocks: 3,
                output,
            },
            Self::Paper => ArchSpec::ResMlp {
                input,
                width: 1024,
                blocks: 3,
                output,
            },
        }
    }

    /// MLP training epochs (paper: 150).
    pub fn mlp_epochs(self) -> usize {
        match self {
            Self::Smoke => 6,
            Self::Scaled => 60,
            Self::Paper => 150,
        }
    }

    /// CNN training epochs (paper: 100).
    pub fn cnn_epochs(self) -> usize {
        match self {
            Self::Smoke => 4,
            Self::Scaled => 14,
            Self::Paper => 100,
        }
    }

    /// Electrons per PIC cell used when generating training data. The
    /// physics runs of the figures always use the paper's 1000.
    pub fn dataset_ppc(self) -> usize {
        match self {
            Self::Smoke => 100,
            Self::Scaled | Self::Paper => 1000,
        }
    }

    /// Adam learning rate. `Paper` uses the published 1e-4; the reduced
    /// scales take ~40× fewer optimizer steps (smaller dataset × fewer
    /// epochs), so they compensate with a proportionally larger rate —
    /// recorded as a substitution in DESIGN.md.
    pub fn learning_rate(self) -> f32 {
        match self {
            Self::Smoke => 3e-3,
            Self::Scaled => 1e-3,
            Self::Paper => 1e-4,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::InputKind;

    #[test]
    fn parse_and_names() {
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("SCALED"), Some(Scale::Scaled));
        assert_eq!(Scale::parse("smoke"), Some(Scale::Smoke));
        assert_eq!(Scale::parse("huge"), None);
        assert_eq!(Scale::Paper.name(), "paper");
    }

    #[test]
    fn env_default_applies_only_when_unset() {
        assert_eq!(Scale::from_var(None, Scale::Smoke), Ok(Scale::Smoke));
        assert_eq!(
            Scale::from_var(Some("Paper"), Scale::Smoke),
            Ok(Scale::Paper)
        );
        let typo = Scale::from_var(Some("papr"), Scale::Smoke).unwrap_err();
        assert!(typo.contains("`papr`"), "{typo}");
        assert!(Scale::from_var(Some(""), Scale::Smoke).is_err());
    }

    #[test]
    fn paper_scale_matches_section_iv() {
        let s = Scale::Paper;
        match s.mlp_arch() {
            ArchSpec::Mlp { hidden, output, .. } => {
                assert_eq!(hidden, vec![1024, 1024, 1024]);
                assert_eq!(output, 64);
            }
            other => panic!("unexpected arch {other:?}"),
        }
        assert_eq!(s.mlp_epochs(), 150);
        assert_eq!(s.cnn_epochs(), 100);
        assert_eq!(s.phase_spec().cells(), 64 * 64);
    }

    #[test]
    fn architectures_are_buildable_at_every_scale() {
        for scale in [Scale::Smoke, Scale::Scaled, Scale::Paper] {
            // Building allocates the parameters; paper MLP is ~6M params
            // (~25 MB) which is fine to touch once here.
            let mlp = scale.mlp_arch().build(0);
            assert!(mlp.param_count() > 0, "{scale:?}");
            if scale != Scale::Paper {
                let cnn = scale.cnn_arch().build(0);
                assert!(cnn.param_count() > 0, "{scale:?}");
                let res = scale.resmlp_arch().build(0);
                assert!(res.param_count() > 0, "{scale:?}");
            }
        }
    }

    #[test]
    fn input_kinds_are_consistent() {
        for scale in [Scale::Smoke, Scale::Scaled] {
            assert_eq!(scale.mlp_arch().input_kind(), InputKind::Flat);
            assert_eq!(scale.cnn_arch().input_kind(), InputKind::Image);
            assert_eq!(scale.mlp_arch().input_len(), scale.phase_spec().cells());
        }
    }
}
