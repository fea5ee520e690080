//! The [`Engine`]: validates a scenario×backend pairing, builds the
//! matching solver stack and hands it out as an incremental
//! [`Session`] — or drives one to completion via the [`Engine::run`]
//! convenience.
//!
//! Every backend follows the same protocol: build → step `n_steps` times →
//! final snapshot, emitting one [`Sample`](super::Sample) per recorded
//! diagnostics row (so a full run yields `n_steps + 1` samples, matching
//! the solver crates' long-standing convention). The per-backend stepping
//! logic lives in [`super::session`]; this module owns configuration
//! (models, numerics, faults) and solver construction.

use super::backend::Backend;
use super::dl::{self, DlGeometry, ModelTier, SharedModelRegistry};
use super::ensemble::Ensemble;
use super::error::EngineError;
use super::fault::FaultPlan;
use super::observer::RunSummary;
use super::session::{
    BackendSession, Checkpoint, DdecompSession, PicSession, Session, VlasovSession,
};
use super::spec::{DomainSpec, ScenarioSpec};
use crate::core::bundle::BundleError;
use crate::core::{DlFieldSolver, FrozenBundle, ModelBundle};
use crate::pic::solver::{PoissonKind, TraditionalSolver};
use crate::pic::{Grid1D, Grid2D, Shape};
use std::sync::Mutex;

/// The Poisson backend of the traditional 2-D solver.
const POISSON_2D: PoissonKind = PoissonKind::Spectral;

/// Numerical options of the 1-D particle backends that the paper's figure
/// experiments vary; the scenario spec stays purely physical. Defaults
/// match `TraditionalSolver::paper_default()`: CIC deposit and gather,
/// finite-difference Poisson.
#[derive(Debug, Clone, Copy)]
pub struct Numerics1D {
    /// Shape used to gather E to the particles (shared by all backends).
    pub gather_shape: Shape,
    /// Deposition shape of the traditional solver (keep equal to
    /// `gather_shape` for momentum conservation).
    pub deposit_shape: Shape,
    /// Poisson backend of the traditional solver.
    pub poisson: PoissonKind,
}

impl Default for Numerics1D {
    fn default() -> Self {
        Self {
            gather_shape: Shape::Cic,
            deposit_shape: Shape::Cic,
            poisson: PoissonKind::FiniteDifference,
        }
    }
}

impl Numerics1D {
    /// The paper §II "basic NGP scheme" — the traditional baseline of the
    /// figure experiments, which exhibits the cold-beam instability most
    /// clearly.
    pub fn basic_ngp() -> Self {
        Self {
            gather_shape: Shape::Ngp,
            deposit_shape: Shape::Ngp,
            poisson: PoissonKind::FiniteDifference,
        }
    }
}

/// The facade entry point: holds optional DL models, builds
/// [`Session`]s for any compatible scenario×backend pairing, and runs them
/// to completion on request.
///
/// DL sessions built by one engine share weights: every tier of the
/// model ladder ([`dl`]) ends in a [`FrozenBundle`] — one `Arc`-shared
/// allocation — and every session minted from it reads the same memory.
/// An explicit model is shared as given, the untrained fallback per
/// default architecture, and a [`ModelRegistry`](super::ModelRegistry)
/// attached via [`Self::with_registry`] extends sharing to quick-trained
/// models keyed by (scenario, scale, seed).
#[derive(Default)]
pub struct Engine {
    dl_1d: DlSlot<Grid1D>,
    dl_2d: DlSlot<Grid2D>,
    registry: Option<SharedModelRegistry>,
    numerics_1d: Numerics1D,
    faults: FaultPlan,
}

/// The models of one dimension the engine itself holds: the explicit one,
/// if configured — or why it was refused — and the untrained fallbacks
/// minted so far, each under its [`dl::weight_key`].
struct DlSlot<G: DlGeometry> {
    explicit: Option<Result<FrozenBundle<G>, BundleError>>,
    untrained: Mutex<Vec<(String, FrozenBundle<G>)>>,
}

impl<G: DlGeometry> Default for DlSlot<G> {
    fn default() -> Self {
        Self {
            explicit: None,
            untrained: Mutex::new(Vec::new()),
        }
    }
}

impl<G: DlGeometry> DlSlot<G> {
    /// Weight bytes of the explicit model, when one froze.
    fn explicit_bytes(&self) -> Option<usize> {
        match &self.explicit {
            Some(Ok(frozen)) => Some(frozen.weight_bytes()),
            _ => None,
        }
    }

    /// The untrained fallback for `spec`, built once per distinct key.
    fn untrained(&self, spec: &ScenarioSpec) -> FrozenBundle<G> {
        let key = dl::weight_key::<G>(ModelTier::Untrained, spec);
        let mut cache = lock(&self.untrained);
        if let Some((_, frozen)) = cache.iter().find(|(k, _)| *k == key) {
            return frozen.clone();
        }
        let frozen = dl::untrained::<G>(spec);
        cache.push((key, frozen.clone()));
        frozen
    }
}

/// Locks tolerating poisoning: a panicked holder leaves a cache of
/// immutable `Arc`s, which is still safe to read.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

impl Engine {
    /// An engine with no models.
    pub fn new() -> Self {
        Self::default()
    }

    /// Uses this trained 1-D bundle for `Backend::Dl1D` runs. The bundle
    /// is frozen here, once — every session shares the allocation, and
    /// the serialized bundle is dropped. A bundle clone shares its
    /// parameter blob, so passing `bundle.clone()` copies no weights.
    /// A bundle that does not freeze (the CNN) is kept only as its
    /// [`BundleError`]: every `Dl1D` start then returns it, and the other
    /// backends run as before.
    pub fn with_model_1d(mut self, bundle: ModelBundle) -> Self {
        self.dl_1d.explicit = Some(bundle.freeze());
        self
    }

    /// Uses this trained 2-D model for `Backend::Dl2D` runs — e.g.
    /// `dl::quick_train_2d(&spec, seed, Precision::F32)?`, or a
    /// handle from [`ModelRegistry::model`](super::ModelRegistry::model).
    // analyze:allow(pub-reach): tests/shared_weights.rs attaches its 2-D models through it and must stay unchanged
    pub fn with_model_2d(mut self, frozen: FrozenBundle<Grid2D>) -> Self {
        self.dl_2d.explicit = Some(Ok(frozen));
        self
    }

    /// Attaches a model registry: `Dl1D`/`Dl2D` runs without an explicit
    /// model get-or-train through it instead of falling back to untrained
    /// networks, and sessions with equal (scenario, scale, seed) share
    /// one weight allocation.
    // analyze:allow(pub-reach): tests/shared_weights.rs attaches its registry through it and must stay unchanged
    pub fn with_registry(mut self, registry: SharedModelRegistry) -> Self {
        self.registry = Some(registry);
        self
    }

    /// The attached model registry, if any (serve's `prune` hook).
    pub fn registry(&self) -> Option<&SharedModelRegistry> {
        self.registry.as_ref()
    }

    /// Overrides the 1-D numerical options (gather/deposit shapes, Poisson
    /// backend).
    pub fn with_numerics_1d(mut self, numerics: Numerics1D) -> Self {
        self.numerics_1d = numerics;
        self
    }

    /// Injects deterministic faults into matching sessions (supervision
    /// tests and `dlpic-serve --inject`).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Builds the solver stack for `spec` on `backend` and returns it as
    /// a steppable [`Session`] positioned before the first step — the
    /// incremental primitive behind [`Self::run`].
    pub fn start(&self, spec: &ScenarioSpec, backend: Backend) -> Result<Session, EngineError> {
        spec.validate()?;
        backend.supports(spec)?;
        // A spectral Poisson solve needs a power-of-two grid: refuse the
        // pairing here instead of panicking inside the first solve.
        let n = &self.numerics_1d;
        let poisson = match backend {
            Backend::Traditional1D => Some(n.poisson),
            Backend::Traditional2D => Some(POISSON_2D),
            _ => None,
        };
        let power_of_two = match spec.domain {
            DomainSpec::OneD { ncells, .. } => ncells.is_power_of_two(),
            DomainSpec::TwoD { nx, ny, .. } => nx.is_power_of_two() && ny.is_power_of_two(),
        };
        if poisson == Some(PoissonKind::Spectral) && !power_of_two {
            return Err(EngineError::Incompatible {
                scenario: spec.name.clone(),
                backend: backend.name(),
                why: format!(
                    "a spectral Poisson solve needs a power-of-two grid, got {:?}",
                    spec.domain
                ),
            });
        }
        // Clock from before the build: wall_seconds includes solver-stack
        // construction, matching the pre-session Engine::run.
        // analyze:allow(no-wallclock-in-engine): feeds only the wall_seconds diagnostic in RunSummary, never simulation state — checkpoints exclude it
        let started = std::time::Instant::now();
        let inner: Box<dyn BackendSession> = match backend {
            Backend::Traditional1D => Box::new(PicSession::<Grid1D>::new(
                spec,
                Box::new(TraditionalSolver::new(n.deposit_shape, n.poisson, 1.0)),
                n.gather_shape,
            )),
            Backend::Dl1D => Box::new(PicSession::<Grid1D>::new(
                spec,
                Box::new(self.dl_solver(&self.dl_1d, spec)?),
                n.gather_shape,
            )),
            Backend::Traditional2D => Box::new(PicSession::<Grid2D>::new(
                spec,
                Box::new(TraditionalSolver::new(Shape::Cic, POISSON_2D, 1.0)),
            )),
            Backend::Dl2D => Box::new(PicSession::<Grid2D>::new(
                spec,
                Box::new(self.dl_solver(&self.dl_2d, spec)?),
            )),
            Backend::Vlasov => Box::new(VlasovSession::new(spec)),
            Backend::Ddecomp { n_ranks } => {
                Box::new(DdecompSession::new(spec, n_ranks, self.numerics_1d)?)
            }
        };
        let inject = self.faults.rule_for(&spec.name);
        Ok(Session::new(spec.clone(), backend, inner, started, inject))
    }

    /// Rebuilds a session from a [`Checkpoint`] (the solver stack is
    /// reconstructed from the embedded spec, then the mutable state and
    /// recorded history are restored) and returns it ready to continue.
    /// For deterministic solvers the resumed trajectory is bit-identical
    /// to the uninterrupted run.
    pub fn resume(&self, checkpoint: &Checkpoint) -> Result<Session, EngineError> {
        let mut session = self.start(&checkpoint.spec, checkpoint.backend)?;
        session.restore(checkpoint)?;
        Ok(session)
    }

    /// Starts one session per spec and returns them as an [`Ensemble`] —
    /// the fleet primitive: lockstep waves, batched DL inference within
    /// each wave, multi-core [`Ensemble::run_to_end`]. All sessions are
    /// built by this engine, so every DL session of a dimension shares
    /// the engine's (single) model — the invariant cohort batching needs.
    pub fn start_ensemble(
        &self,
        specs: &[ScenarioSpec],
        backend: Backend,
    ) -> Result<Ensemble, EngineError> {
        let sessions = specs
            .iter()
            .map(|spec| self.start(spec, backend))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Ensemble::new(sessions))
    }

    /// Rebuilds a fleet from per-session checkpoints (the inverse of
    /// [`Ensemble::checkpoints`]); each run resumes bit-identically, and
    /// mixed backends are fine.
    // analyze:allow(pub-reach): the fleet checkpoint round trip tests/ensemble_api.rs pins
    pub fn resume_ensemble(&self, checkpoints: &[Checkpoint]) -> Result<Ensemble, EngineError> {
        let sessions = checkpoints
            .iter()
            .map(|c| self.resume(c))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Ensemble::new(sessions))
    }

    /// Runs a scenario on a backend to completion: a thin wrapper that
    /// starts a [`Session`], steps it to `n_steps` and finishes it — or
    /// returns [`EngineError::Quarantined`] when the run panicked or
    /// diverged on the way. Attach observers to a session from
    /// [`Self::start`] instead.
    pub fn run(
        &mut self,
        spec: &ScenarioSpec,
        backend: Backend,
    ) -> Result<RunSummary, EngineError> {
        let mut session = self.start(spec, backend)?;
        session.run_to_end();
        session.ensure_healthy()?;
        Ok(session.finish())
    }

    /// A `Send + Sync` snapshot of the engine's weight-sharing
    /// configuration, answering [`WeightProfiler::profile`] without the
    /// engine — the serve tier's request handlers hold one while the
    /// scheduler thread owns the engine itself. The snapshot is taken at
    /// configuration time and stays valid because models and registry
    /// attachment are builder-time decisions.
    pub fn weight_profiler(&self) -> WeightProfiler {
        WeightProfiler {
            explicit_1d: self.dl_1d.explicit_bytes(),
            explicit_2d: self.dl_2d.explicit_bytes(),
            has_registry: self.registry.is_some(),
        }
    }

    /// The model ladder, once for both dimensions: the explicit model,
    /// else the registry's, else the untrained fallback — each a
    /// [`FrozenBundle`] checked against the domain, from which the session
    /// mints its solver over the shared allocation.
    fn dl_solver<G: DlGeometry>(
        &self,
        slot: &DlSlot<G>,
        spec: &ScenarioSpec,
    ) -> Result<DlFieldSolver<G>, EngineError> {
        let frozen = match (&slot.explicit, &self.registry) {
            (Some(Ok(frozen)), _) => frozen.clone(),
            (Some(Err(refused)), _) => return Err(refused.clone().into()),
            (None, Some(registry)) => lock(registry).model::<G>(spec)?,
            (None, None) => slot.untrained(spec),
        };
        dl::check_cells::<G>(spec, frozen.model().output_len())?;
        Ok(frozen.solver())
    }
}

/// A detached snapshot of an engine's weight-sharing configuration (see
/// [`Engine::weight_profiler`]): answers "which sessions share one weight
/// allocation, and how big is it" for any spec × backend, without holding
/// the engine.
#[derive(Debug, Clone)]
pub struct WeightProfiler {
    /// Weight bytes of the explicit frozen model, per dimension.
    explicit_1d: Option<usize>,
    explicit_2d: Option<usize>,
    has_registry: bool,
}

impl WeightProfiler {
    /// How a DL session for this spec × backend stores its weights under
    /// the engine's configuration: `Some((fingerprint, bytes))` means
    /// sessions with equal fingerprints read **one** `bytes`-sized shared
    /// allocation (charge it once per distinct fingerprint); `None` means
    /// the backend holds no model. Every DL session reads a shared frozen
    /// model, so there is no per-session weight copy to charge. This is
    /// the accounting contract the serve tier's budget admission keys on.
    pub fn profile(&self, spec: &ScenarioSpec, backend: Backend) -> Option<(String, usize)> {
        match backend {
            Backend::Dl1D => Some(self.shared::<Grid1D>(self.explicit_1d, spec)),
            Backend::Dl2D => Some(self.shared::<Grid2D>(self.explicit_2d, spec)),
            _ => None,
        }
    }

    /// The tier [`Engine`]'s ladder would stop at, as a key and a size:
    /// the explicit model's actual bytes, else the default architecture's
    /// f32 footprint.
    fn shared<G: DlGeometry>(
        &self,
        explicit_bytes: Option<usize>,
        spec: &ScenarioSpec,
    ) -> (String, usize) {
        let tier = match explicit_bytes {
            Some(_) => ModelTier::Explicit,
            None if self.has_registry => ModelTier::Registry,
            None => ModelTier::Untrained,
        };
        let bytes = explicit_bytes.unwrap_or_else(|| G::default_arch(spec).param_count() * 4);
        (dl::weight_key::<G>(tier, spec), bytes)
    }
}

/// One-shot convenience: runs `spec` on `backend` with no observers and no
/// trained models (DL backends fall back to untrained networks).
pub fn run(spec: &ScenarioSpec, backend: Backend) -> Result<RunSummary, EngineError> {
    Engine::new().run(spec, backend)
}

/// One-shot convenience: starts a session with no observers and no
/// trained models (the free-function form of [`Engine::start`]).
pub fn start(spec: &ScenarioSpec, backend: Backend) -> Result<Session, EngineError> {
    Engine::new().start(spec, backend)
}
