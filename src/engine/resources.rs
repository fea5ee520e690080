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
use crate::pic::{split_scratch_bytes, Grid1D, Grid2D};

/// Bytes per f64 diagnostic/field/particle lane.
const F64: usize = 8;
/// Bytes per f32 network parameter.
const F32: usize = 4;

/// The estimated memory footprint of one session, split by what owns it.
/// All figures are bytes; [`Self::total`] is what admission budgets
/// against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResourceEstimate {
    /// Particle phase-space arrays (positions and velocities) and, for a
    /// run large enough to split its push and deposit over the worker
    /// team, the split's scratch.
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
    /// the solo admission figure. Saturates like every figure here.
    pub fn total(&self) -> usize {
        self.particle_bytes
            .saturating_add(self.grid_bytes)
            .saturating_add(self.model_bytes)
            .saturating_add(self.history_bytes)
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
/// figure covers. Every product and sum saturates: a spec too large to
/// count in bytes (a `ppc` of `2^57` passes validation) reads as
/// `usize::MAX` bytes, which no budget and no host admits.
pub fn estimate_session(spec: &ScenarioSpec, backend: Backend) -> ResourceEstimate {
    let cells = spec.domain.cells();
    let n_particles = spec.n_particles();

    // Phase-space lanes per particle: position + velocity per axis (the
    // fused push gathers the field in registers, into no buffer). A run
    // stepped on the worker team adds its split's scratch, charged to
    // every session as the most its stepping thread then holds.
    let particle_lanes = match spec.dim() {
        Dim::OneD => 2,
        Dim::TwoD => 4,
    };
    let split_scratch = match backend {
        // The decomposed backend steps its ranks with its own kernels.
        Backend::Vlasov | Backend::Ddecomp { .. } => 0,
        _ => split_scratch_bytes(n_particles, cells),
    };
    let particle_bytes = match backend {
        // The continuum solver carries no particles.
        Backend::Vlasov => 0,
        _ => n_particles
            .saturating_mul(particle_lanes * F64)
            .saturating_add(split_scratch),
    };

    // Grid buffers: density, potential, field components and solver
    // scratch — about eight cell-sized f64 arrays on the PIC paths.
    let grid_arrays = 8;
    let grid_bytes = match backend {
        // Distribution f(x, v) plus the semi-Lagrangian advection
        // scratch, on top of the field arrays.
        Backend::Vlasov => cells
            .saturating_mul(vlasov_nv(spec.scale) * F64 * 2)
            .saturating_add(cells.saturating_mul(grid_arrays * F64)),
        // Every rank owns halo-padded slab copies of the field arrays.
        Backend::Ddecomp { n_ranks } => cells
            .saturating_mul(grid_arrays * F64)
            .saturating_mul(n_ranks.saturating_add(1)),
        _ => cells.saturating_mul(grid_arrays * F64),
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
    let history_bytes =
        (spec.n_steps.saturating_add(1)).saturating_mul((4 + spec.tracked_modes.len()) * F64);

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
            spec.n_particles() * 2 * 8,
            "1-D particles are two f64 lanes"
        );
        // Below the particle count at which the push and deposit split.
        let mut twod = registry::scenario("two_stream_2d", Scale::Smoke).unwrap();
        twod.ppc = 8;
        assert_eq!(
            estimate_session(&twod, Backend::Traditional2D).particle_bytes,
            twod.n_particles() * 4 * 8,
            "2-D particles are four f64 lanes"
        );
    }

    /// A paper-scale run splits its push and deposit over the team: the
    /// later push part's record (55 % of the particles, one f64 each, up
    /// to a chunk more) and two padded node-sized accumulators come on top
    /// of its lanes.
    #[test]
    fn a_split_run_is_charged_its_scratch() {
        for (name, backends, lanes) in [
            ("two_stream", [Backend::Traditional1D, Backend::Dl1D], 2),
            ("two_stream_2d", [Backend::Traditional2D, Backend::Dl2D], 4),
        ] {
            let spec = registry::scenario(name, Scale::Paper).unwrap();
            let (n, nodes) = (spec.n_particles(), spec.domain.cells());
            let record = n * 55 / 100 * 8;
            for backend in backends {
                let est = estimate_session(&spec, backend);
                let scratch = est.particle_bytes - n * lanes * 8;
                assert!(
                    scratch >= record && scratch <= record + (8 + 2 * nodes + 80) * 8,
                    "{name} on {backend}: {scratch} bytes of split scratch"
                );
            }
        }
    }

    #[test]
    fn a_spec_too_large_to_count_saturates() {
        let mut huge = registry::scenario("two_stream", Scale::Smoke).unwrap();
        huge.ppc = 1 << 57;
        huge.validate()
            .expect("2^57 particles per cell pass validation");
        for backend in [Backend::Traditional1D, Backend::Dl1D] {
            let est = estimate_session(&huge, backend);
            assert_eq!(est.particle_bytes, usize::MAX, "{backend}");
            assert_eq!(est.total(), usize::MAX, "{backend}");
        }
        let mut endless = registry::scenario("two_stream", Scale::Smoke).unwrap();
        endless.n_steps = usize::MAX;
        let est = estimate_session(&endless, Backend::Traditional1D);
        assert_eq!((est.history_bytes, est.total()), (usize::MAX, usize::MAX));
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
