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
//! (models, numerics, observers) and solver construction.

use super::backend::Backend;
use super::dl::{self, Dl2DModel, SharedModelRegistry};
use super::ensemble::{Ensemble, SweepSpec};
use super::error::EngineError;
use super::fault::FaultPlan;
use super::observer::{Observer, RunSummary};
use super::session::{
    BackendSession, Checkpoint, DdecompSession, PicSession, Session, VlasovSession,
};
use super::spec::ScenarioSpec;
use crate::core::builder::ArchSpec;
use crate::core::presets::Scale;
use crate::core::twod::Frozen2DModel;
use crate::core::{FrozenBundle, ModelBundle};
use crate::nn::frozen::{FrozenModel, Precision};
use crate::pic::solver::{FieldSolver, PoissonKind, TraditionalSolver};
use crate::pic::{Grid1D, Shape};
use crate::pic2d::{Grid2D, TraditionalSolver2D};
use std::sync::{Arc, Mutex};

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

/// The facade entry point: holds optional DL models and observers, builds
/// [`Session`]s for any compatible scenario×backend pairing, and runs them
/// to completion on request.
///
/// DL sessions built by one engine share weights: a configured model is
/// frozen once into an `Arc`-shared allocation and every session minted
/// from it reads the same memory (the f32 path is bit-identical to a
/// per-session copy). The untrained fallback shares per (scale, grid)
/// the same way, and a [`ModelRegistry`](super::ModelRegistry) attached
/// via [`Self::with_registry`] extends sharing to quick-trained models
/// keyed by (scenario, scale, seed).
#[derive(Default)]
pub struct Engine {
    model_1d: Option<ModelBundle>,
    /// Frozen snapshot of `model_1d`, computed once at configuration.
    /// `None` with `model_1d` set means the architecture has no frozen
    /// form (the CNN) and sessions fall back to per-copy owned networks.
    frozen_1d: Option<FrozenBundle>,
    model_2d: Option<Dl2DModel>,
    /// Lazily frozen snapshots of `model_2d`, keyed by grid node count
    /// (one trained parameter set can only ever fit one grid, but the
    /// key keeps lookups honest).
    frozen_2d: Mutex<Vec<(usize, Frozen2DModel)>>,
    /// Shared untrained 1-D weight allocations, keyed by scale.
    untrained_1d: Mutex<FrozenCache<Scale>>,
    /// Shared untrained 2-D weight allocations, keyed by (scale, nodes).
    untrained_2d: Mutex<FrozenCache<(Scale, usize)>>,
    registry: Option<SharedModelRegistry>,
    numerics_1d: Numerics1D,
    observers: Vec<Box<dyn Observer>>,
    faults: FaultPlan,
}

/// A tiny keyed cache of `Arc`-shared frozen weight allocations.
type FrozenCache<K> = Vec<(K, Arc<FrozenModel>)>;

/// Locks tolerating poisoning: a panicked holder leaves a cache of
/// immutable `Arc`s, which is still safe to read.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

impl Engine {
    /// An engine with no models and no observers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Uses this trained 1-D bundle for `Backend::Dl1D` runs. The bundle
    /// is frozen here, once — every session shares the allocation.
    pub fn with_model_1d(mut self, bundle: ModelBundle) -> Self {
        self.frozen_1d = bundle.freeze().ok();
        self.model_1d = Some(bundle);
        self
    }

    /// Uses this trained 2-D model for `Backend::Dl2D` runs.
    pub fn with_model_2d(mut self, model: Dl2DModel) -> Self {
        *lock(&self.frozen_2d) = Vec::new();
        self.model_2d = Some(model);
        self
    }

    /// Attaches a model registry: `Dl1D`/`Dl2D` runs without an explicit
    /// model get-or-train through it instead of falling back to untrained
    /// networks, and sessions with equal (scenario, scale, seed) share
    /// one weight allocation.
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

    /// Registers a run monitor. Engine-held observers follow every
    /// [`Self::run`]/[`Self::run_named`] call; sessions started with
    /// [`Self::start`] attach their own via
    /// [`Session::attach_observer`].
    pub fn with_observer(mut self, observer: Box<dyn Observer>) -> Self {
        self.observers.push(observer);
        self
    }

    /// True when a trained 1-D model is configured.
    pub fn has_model_1d(&self) -> bool {
        self.model_1d.is_some()
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
        // Clock from before the build: wall_seconds includes solver-stack
        // construction, matching the pre-session Engine::run.
        // analyze:allow(no-wallclock-in-engine): feeds only the wall_seconds diagnostic in RunSummary, never simulation state — checkpoints exclude it
        let started = std::time::Instant::now();
        let inner: Box<dyn BackendSession> = match backend {
            Backend::Traditional1D | Backend::Dl1D => Box::new(PicSession::<Grid1D>::new(
                spec,
                self.build_1d_solver(spec, backend)?,
                self.numerics_1d.gather_shape,
            )),
            Backend::Traditional2D | Backend::Dl2D => Box::new(PicSession::<Grid2D>::new(
                spec,
                self.build_2d_solver(spec, backend)?,
            )),
            Backend::Vlasov => Box::new(VlasovSession::new(spec)),
            Backend::Ddecomp { n_ranks } => {
                Box::new(DdecompSession::new(spec, n_ranks, self.numerics_1d)?)
            }
        };
        let inner = self.faults.wrap(&spec.name, inner);
        Ok(Session::new(spec.clone(), backend, inner, started))
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

    /// Expands a [`SweepSpec`] (parameter grid × seed fan) and starts the
    /// resulting fleet — `start_ensemble` over [`SweepSpec::specs`].
    pub fn start_sweep(
        &self,
        sweep: &SweepSpec,
        backend: Backend,
    ) -> Result<Ensemble, EngineError> {
        self.start_ensemble(&sweep.specs()?, backend)
    }

    /// Rebuilds a fleet from per-session checkpoints (the inverse of
    /// [`Ensemble::checkpoints`]); each run resumes bit-identically, and
    /// mixed backends are fine.
    pub fn resume_ensemble(&self, checkpoints: &[Checkpoint]) -> Result<Ensemble, EngineError> {
        let sessions = checkpoints
            .iter()
            .map(|c| self.resume(c))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Ensemble::new(sessions))
    }

    /// Runs a registry scenario by name.
    pub fn run_named(
        &mut self,
        name: &str,
        scale: Scale,
        backend: Backend,
    ) -> Result<RunSummary, EngineError> {
        let spec = super::registry::scenario(name, scale)?;
        self.run(&spec, backend)
    }

    /// Runs a scenario on a backend to completion: a thin wrapper that
    /// starts a [`Session`], lends it the engine's observers, steps it to
    /// `n_steps` and finishes it.
    pub fn run(
        &mut self,
        spec: &ScenarioSpec,
        backend: Backend,
    ) -> Result<RunSummary, EngineError> {
        let mut session = self.start(spec, backend)?;
        session.attach_observers(std::mem::take(&mut self.observers));
        session.run_to_end();
        let (summary, observers) = session.finish_detach();
        self.observers = observers;
        Ok(summary)
    }

    /// How a DL session for this spec × backend stores its weights under
    /// the current configuration: `Some((fingerprint, bytes))` means
    /// sessions with equal fingerprints read **one** `bytes`-sized shared
    /// allocation (charge it once per distinct fingerprint); `None` means
    /// every session owns a private copy (model-free backends, or an
    /// unfreezable explicit model). This is the accounting contract the
    /// serve tier's budget admission keys on.
    pub fn weight_profile(&self, spec: &ScenarioSpec, backend: Backend) -> Option<(String, usize)> {
        self.weight_profiler().profile(spec, backend)
    }

    /// A `Send + Sync` snapshot of the engine's weight-sharing
    /// configuration, answering [`Self::weight_profile`] without the
    /// engine — the serve tier's request handlers hold one while the
    /// scheduler thread owns the engine itself. The snapshot is taken at
    /// configuration time and stays valid because models and registry
    /// attachment are builder-time decisions.
    pub fn weight_profiler(&self) -> WeightProfiler {
        WeightProfiler {
            frozen_1d_bytes: self.frozen_1d.as_ref().map(FrozenBundle::weight_bytes),
            has_model_1d: self.model_1d.is_some(),
            model_2d_hidden: self.model_2d.as_ref().map(|m| m.hidden.clone()),
            has_registry: self.registry.is_some(),
        }
    }

    fn build_1d_solver(
        &self,
        spec: &ScenarioSpec,
        backend: Backend,
    ) -> Result<Box<dyn FieldSolver>, EngineError> {
        let n = &self.numerics_1d;
        match backend {
            Backend::Traditional1D => Ok(Box::new(TraditionalSolver::new(
                n.deposit_shape,
                n.poisson,
                1.0,
            ))),
            Backend::Dl1D => {
                let ncells = spec.domain.cells();
                let output = match &self.model_1d {
                    Some(bundle) => bundle.arch.output_len(),
                    None => spec.scale.mlp_arch().output_len(),
                };
                if output != ncells {
                    return Err(EngineError::Incompatible {
                        scenario: spec.name.clone(),
                        backend: backend.name(),
                        why: format!(
                            "DL solver predicts {output} cells but the domain has {ncells}"
                        ),
                    });
                }
                if let Some(frozen) = &self.frozen_1d {
                    // Explicit model, frozen form: every session shares
                    // the one allocation.
                    return Ok(Box::new(frozen.solver()));
                }
                if let Some(bundle) = &self.model_1d {
                    // Unfreezable (CNN) explicit model: per-session copy.
                    return Ok(Box::new(bundle.solver()?));
                }
                if let Some(registry) = &self.registry {
                    let (bundle, frozen) = lock(registry).model_1d(spec)?;
                    return match frozen {
                        Some(frozen) => Ok(Box::new(frozen.solver())),
                        None => Ok(Box::new(bundle.solver()?)),
                    };
                }
                // Untrained fallback, shared per scale.
                let model = {
                    let mut cache = lock(&self.untrained_1d);
                    match cache.iter().find(|(s, _)| *s == spec.scale) {
                        Some((_, model)) => Arc::clone(model),
                        None => {
                            let model = dl::untrained_frozen_1d(spec.scale);
                            cache.push((spec.scale, Arc::clone(&model)));
                            model
                        }
                    }
                };
                Ok(Box::new(dl::untrained_1d_shared(spec.scale, model)))
            }
            _ => unreachable!("1-D solver for non-1-D backend"),
        }
    }

    fn build_2d_solver(
        &self,
        spec: &ScenarioSpec,
        backend: Backend,
    ) -> Result<Box<dyn FieldSolver<Grid2D>>, EngineError> {
        match backend {
            Backend::Traditional2D => Ok(Box::new(TraditionalSolver2D::default_config())),
            Backend::Dl2D => {
                let nodes = spec.domain.cells();
                if let Some(model) = &self.model_2d {
                    let frozen = {
                        let cache = lock(&self.frozen_2d);
                        cache
                            .iter()
                            .find(|(n, _)| *n == nodes)
                            .map(|(_, f)| f.clone())
                    };
                    let frozen = match frozen {
                        Some(frozen) => Some(frozen),
                        None => {
                            // Freeze once per grid; `into_solver` still
                            // validates the parameter shapes.
                            let solver = model.into_solver(&spec.grid_2d())?;
                            match solver.freeze(Precision::F32) {
                                Ok(frozen) => {
                                    lock(&self.frozen_2d).push((nodes, frozen.clone()));
                                    Some(frozen)
                                }
                                Err(_) => return Ok(Box::new(solver)),
                            }
                        }
                    };
                    return Ok(Box::new(frozen.expect("frozen or early-returned").solver()));
                }
                if let Some(registry) = &self.registry {
                    let (model, frozen) = lock(registry).model_2d(spec)?;
                    return match frozen {
                        Some(frozen) => Ok(Box::new(frozen.solver())),
                        None => Ok(Box::new(model.into_solver(&spec.grid_2d())?)),
                    };
                }
                // Untrained fallback, shared per (scale, grid).
                let model = {
                    let mut cache = lock(&self.untrained_2d);
                    match cache.iter().find(|(k, _)| *k == (spec.scale, nodes)) {
                        Some((_, model)) => Arc::clone(model),
                        None => {
                            let model = dl::untrained_frozen_2d(spec.scale, &spec.grid_2d());
                            cache.push(((spec.scale, nodes), Arc::clone(&model)));
                            model
                        }
                    }
                };
                Ok(Box::new(dl::untrained_2d_shared(model)))
            }
            _ => unreachable!("2-D solver for non-2-D backend"),
        }
    }
}

/// A detached snapshot of an engine's weight-sharing configuration (see
/// [`Engine::weight_profiler`]): answers "which sessions share one weight
/// allocation, and how big is it" for any spec × backend, without holding
/// the engine.
#[derive(Debug, Clone)]
pub struct WeightProfiler {
    frozen_1d_bytes: Option<usize>,
    has_model_1d: bool,
    model_2d_hidden: Option<Vec<usize>>,
    has_registry: bool,
}

impl WeightProfiler {
    /// See [`Engine::weight_profile`] for the `Some((fingerprint,
    /// bytes))` contract.
    pub fn profile(&self, spec: &ScenarioSpec, backend: Backend) -> Option<(String, usize)> {
        match backend {
            Backend::Dl1D => {
                if let Some(bytes) = self.frozen_1d_bytes {
                    Some(("dl1d|model".to_string(), bytes))
                } else if self.has_model_1d {
                    // Unfreezable (CNN) explicit model: per-session copies.
                    None
                } else {
                    let bytes = spec.scale.mlp_arch().param_count() * 4;
                    let key = if self.has_registry {
                        format!("dl1d|reg|{}|{:?}|{}", spec.name, spec.scale, spec.seed)
                    } else {
                        format!("dl1d|untrained|{:?}", spec.scale)
                    };
                    Some((key, bytes))
                }
            }
            Backend::Dl2D => {
                let nodes = spec.domain.cells();
                let hidden = match &self.model_2d_hidden {
                    Some(hidden) => hidden.clone(),
                    None => dl::hidden_2d(spec.scale),
                };
                let bytes = ArchSpec::Mlp {
                    input: nodes,
                    hidden,
                    output: 2 * nodes,
                }
                .param_count()
                    * 4;
                let key = if self.model_2d_hidden.is_some() {
                    "dl2d|model".to_string()
                } else if self.has_registry {
                    format!(
                        "dl2d|reg|{}|{:?}|{}|{}",
                        spec.name, spec.scale, spec.seed, nodes
                    )
                } else {
                    format!("dl2d|untrained|{:?}|{}", spec.scale, nodes)
                };
                Some((key, bytes))
            }
            _ => None,
        }
    }
}

/// One-shot convenience: runs `spec` on `backend` with no observers and no
/// trained models (DL backends fall back to untrained networks).
pub fn run(spec: &ScenarioSpec, backend: Backend) -> Result<RunSummary, EngineError> {
    Engine::new().run(spec, backend)
}

/// One-shot convenience: runs a registry scenario by name.
pub fn run_scenario(name: &str, scale: Scale, backend: Backend) -> Result<RunSummary, EngineError> {
    Engine::new().run_named(name, scale, backend)
}

/// One-shot convenience: starts a session with no observers and no
/// trained models (the free-function form of [`Engine::start`]).
pub fn start(spec: &ScenarioSpec, backend: Backend) -> Result<Session, EngineError> {
    Engine::new().start(spec, backend)
}
