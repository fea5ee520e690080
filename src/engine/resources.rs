//! Per-session resource estimation: how much memory a
//! [`Session`](super::Session) for a given spec × backend will hold
//! while it runs.
//!
//! The estimate is the admission currency of the serving tier
//! (`dlpic-serve --memory-budget`) and of capacity planning for
//! [`Ensemble`](super::Ensemble) fleets: a paper-scale DL session owns
//! ~25 MB of MLP weights alone, so a thousand-session fleet is a
//! ~25 GB commitment that should be rejected up front, not discovered
//! by the OOM killer. Numbers are derived from what the builders
//! themselves read ([`DlGeometry::default_arch`], the Vlasov session's
//! velocity-grid table), so the estimate tracks the real allocation
//! shape — it is a budget figure, accurate to the dominant buffers, not a
//! byte-exact audit of every allocation. Which sessions share one weight
//! allocation is the engine's to say:
//! [`WeightProfiler::profile`](super::WeightProfiler::profile).

use super::backend::Backend;
use super::dl::DlGeometry;
use super::session::vlasov_nv;
use super::spec::{Dim, ScenarioSpec};
use crate::pic::Grid1D;
use crate::pic2d::Grid2D;

/// Bytes per f64 diagnostic/field/particle lane.
const F64: usize = 8;
/// Bytes per f32 network parameter.
const F32: usize = 4;

/// The estimated memory footprint of one session, split by what owns it.
/// All figures are bytes; [`Self::total`] is what admission budgets
/// against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResourceEstimate {
    /// Particle phase-space arrays (positions, velocities, per-particle
    /// field scratch).
    pub particle_bytes: usize,
    /// Grid-resident buffers: density, potential, fields and solver
    /// scratch — for Vlasov, the full phase-space distribution.
    pub grid_bytes: usize,
    /// DL model weights plus inference workspace (zero for traditional
    /// backends).
    pub model_bytes: usize,
    /// The recorded diagnostics history at full length (`n_steps + 1`
    /// rows of energies, momentum and tracked-mode amplitudes).
    pub history_bytes: usize,
    /// The slice of `model_bytes` that is the weight allocation itself
    /// (one f32 parameter copy). Sessions minted from one `Arc`-shared
    /// frozen model all read the same allocation, so cohort-aware
    /// accounting charges this slice **once per distinct model** and
    /// `total() − shared_weight_bytes` per member; the per-session
    /// inference workspace stays private either way.
    pub shared_weight_bytes: usize,
}

impl ResourceEstimate {
    /// Total estimated bytes for a session that owns everything —
    /// the solo admission figure.
    pub fn total(&self) -> usize {
        self.particle_bytes + self.grid_bytes + self.model_bytes + self.history_bytes
    }

    /// Bytes a session costs when its model weights are already resident
    /// (a fleet member joining an existing cohort).
    #[cfg(test)]
    fn without_shared_weights(&self) -> usize {
        self.total() - self.shared_weight_bytes
    }
}

/// Estimates the memory a [`Session`](super::Session) for `spec` on
/// `backend` holds while running. See the module docs for what the
/// figure covers.
pub fn estimate_session(spec: &ScenarioSpec, backend: Backend) -> ResourceEstimate {
    let cells = spec.domain.cells();
    let n_particles = spec.n_particles();

    // Phase-space lanes per particle: position + velocity + gathered
    // field per axis.
    let particle_lanes = match spec.dim() {
        Dim::OneD => 3,
        Dim::TwoD => 6,
    };
    let particle_bytes = match backend {
        // The continuum solver carries no particles.
        Backend::Vlasov => 0,
        _ => n_particles * particle_lanes * F64,
    };

    // Grid buffers: density, potential, field components and solver
    // scratch — about eight cell-sized f64 arrays on the PIC paths.
    let grid_arrays = 8;
    let grid_bytes = match backend {
        // Distribution f(x, v) plus the semi-Lagrangian advection
        // scratch, on top of the field arrays.
        Backend::Vlasov => cells * vlasov_nv(spec.scale) * F64 * 2 + cells * grid_arrays * F64,
        // Every rank owns halo-padded slab copies of the field arrays.
        Backend::Ddecomp { n_ranks } => cells * grid_arrays * F64 * (n_ranks + 1),
        _ => cells * grid_arrays * F64,
    };

    // DL weights (f32) doubled for the inference workspace, plus the
    // phase-space deposit image the 1-D surrogate consumes. One of the
    // two weight-sized slices is the parameter allocation itself — the
    // slice an `Arc`-shared frozen model amortizes across a cohort. Sized
    // by the architecture the engine would build for this spec.
    let shared_weight_bytes = F32
        * match backend {
            Backend::Dl1D => Grid1D::default_arch(spec).param_count(),
            Backend::Dl2D => Grid2D::default_arch(spec).param_count(),
            _ => 0,
        };
    let model_bytes = match backend {
        Backend::Dl1D => {
            let phase = spec.scale.phase_spec();
            shared_weight_bytes * 2 + phase.nx * phase.nv * F64
        }
        Backend::Dl2D => shared_weight_bytes * 2,
        _ => 0,
    };

    // One diagnostics row per step plus the initial sample: time,
    // kinetic, field, momentum and each tracked mode.
    let history_bytes = (spec.n_steps + 1) * (4 + spec.tracked_modes.len()) * F64;

    ResourceEstimate {
        particle_bytes,
        grid_bytes,
        model_bytes,
        history_bytes,
        shared_weight_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::presets::Scale;
    use crate::engine::registry;

    #[test]
    fn paper_dl_session_is_about_25_mb_of_weights() {
        let spec = registry::scenario("two_stream", Scale::Paper).unwrap();
        let est = estimate_session(&spec, Backend::Dl1D);
        // 4096→1024→1024→1024→64 MLP ≈ 6.36 M params ≈ 25.4 MB of f32,
        // doubled for workspace.
        assert!(
            est.model_bytes > 40 << 20 && est.model_bytes < 70 << 20,
            "paper DL model estimate {} outside the expected band",
            est.model_bytes
        );
        assert!(est.total() > est.model_bytes);
    }

    #[test]
    fn shared_weight_slice_is_one_parameter_copy() {
        let spec = registry::scenario("two_stream", Scale::Smoke).unwrap();
        let est = estimate_session(&spec, Backend::Dl1D);
        assert_eq!(
            est.shared_weight_bytes,
            spec.scale.mlp_arch().param_count() * 4
        );
        assert_eq!(
            est.without_shared_weights() + est.shared_weight_bytes,
            est.total()
        );
        assert_eq!(
            estimate_session(&spec, Backend::Traditional1D).shared_weight_bytes,
            0
        );
    }

    #[test]
    fn traditional_backends_carry_no_model() {
        let spec = registry::scenario("two_stream", Scale::Smoke).unwrap();
        let est = estimate_session(&spec, Backend::Traditional1D);
        assert_eq!(est.model_bytes, 0);
        assert_eq!(
            est.particle_bytes,
            spec.n_particles() * 3 * 8,
            "1-D particles are three f64 lanes"
        );
    }

    #[test]
    fn estimate_scales_with_the_knobs_that_matter() {
        let spec = registry::scenario("two_stream", Scale::Smoke).unwrap();
        let base = estimate_session(&spec, Backend::Dl1D);

        let mut heavier = spec.clone();
        heavier.ppc *= 4;
        assert!(
            estimate_session(&heavier, Backend::Dl1D).particle_bytes > base.particle_bytes,
            "more particles must cost more"
        );

        let mut longer = spec.clone();
        longer.n_steps *= 10;
        assert!(
            estimate_session(&longer, Backend::Dl1D).history_bytes > base.history_bytes,
            "longer runs record more history"
        );

        // Vlasov trades particles for a phase-space grid.
        let vlasov = estimate_session(&spec, Backend::Vlasov);
        assert_eq!(vlasov.particle_bytes, 0);
        assert!(vlasov.grid_bytes > base.grid_bytes);

        // More ranks replicate more grid state.
        let d4 = estimate_session(&spec, Backend::Ddecomp { n_ranks: 4 });
        let d8 = estimate_session(&spec, Backend::Ddecomp { n_ranks: 8 });
        assert!(d8.grid_bytes > d4.grid_bytes);
    }
}
