//! DL model plumbing for the engine's `Dl1D`/`Dl2D` backends.
//!
//! Three ways to get a model into an [`Engine`](super::Engine):
//!
//! 1. **Bring a trained bundle** — `engine.with_model_1d(bundle)` with a
//!    [`ModelBundle`] from `dlpic-bench` or [`quick_train_1d`].
//! 2. **Quick-train here** — [`quick_train_1d`]/[`quick_train_2d`] run the
//!    full harvest→train pipeline at the spec's scale (seconds at
//!    `Scale::Smoke`).
//! 3. **Untrained fallback** — with no model configured, the engine builds
//!    an untrained network of the scale's architecture. The produced
//!    fields are physically meaningless (finite, near-zero) but every
//!    plumbing path is exercised; runs report the solver name
//!    `dl-*-untrained` so nobody mistakes them for physics.

use super::backend::Backend;
use super::error::EngineError;
use super::spec::ScenarioSpec;
use crate::core::normalize::NormStats;
use crate::core::phase_space::BinningShape;
use crate::core::presets::Scale;
use crate::core::twod::{
    arch_2d, harvest_2d, train_2d_solver, DensityBinning, Frozen2DModel, Train2DConfig,
};
use crate::core::{DlFieldSolver, FrozenBundle, ModelBundle};
use crate::nn::frozen::{FrozenModel, Precision};
use crate::nn::serialize::{params_from_bytes, params_to_bytes};
use crate::pic::PicConfig;
use crate::pic2d::Grid2D;
use std::sync::{Arc, Mutex};

/// A persisted-in-memory 2-D DL model (the 2-D analogue of
/// [`ModelBundle`]): enough to rebuild a `DlFieldSolver<Grid2D>` any number
/// of times.
#[derive(Debug, Clone)]
pub struct Dl2DModel {
    /// Hidden-layer widths of the MLP.
    pub hidden: Vec<usize>,
    /// Serialized network parameters.
    pub params: Vec<u8>,
    /// Density-binning order used in training.
    pub binning: DensityBinning,
    /// Training-input normalization statistics.
    pub norm: NormStats,
    /// Total mass of the training histograms (0 disables rescaling).
    pub reference_mass: f32,
}

impl Dl2DModel {
    /// Rebuilds the solver for the given grid. Fails if the grid's node
    /// count mismatches the trained parameter shapes.
    pub fn into_solver(&self, grid: &Grid2D) -> Result<DlFieldSolver<Grid2D>, EngineError> {
        let arch = arch_2d(grid, self.hidden.clone());
        let mut net = arch.build(0);
        params_from_bytes(&mut net, &self.params).map_err(|_| EngineError::InvalidSpec {
            scenario: String::new(),
            what: format!(
                "2-D model parameters do not fit a {}×{} grid",
                grid.nx(),
                grid.ny()
            ),
        })?;
        Ok(
            DlFieldSolver::new(net, self.binning, self.norm, "dl-2d-mlp")
                .with_reference_mass(self.reference_mass),
        )
    }
}

/// Hidden widths of the default 2-D architecture at each scale.
pub fn hidden_2d(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Smoke => vec![32, 32],
        Scale::Scaled => vec![256, 256],
        Scale::Paper => vec![512, 512],
    }
}

/// The frozen weight allocation of the untrained 1-D fallback: the scale's
/// MLP architecture at a fixed seed, one `Arc` a whole fleet of untrained
/// sessions shares. The network output width is the paper's 64 cells, so
/// the scenario domain must match (checked by the engine before building).
pub fn untrained_frozen_1d(scale: Scale) -> Arc<FrozenModel> {
    let net = scale.mlp_arch().build(0xD15E);
    Arc::new(
        net.freeze(Precision::F32)
            .expect("the scale MLP architectures have frozen forms"),
    )
}

/// One untrained fleet member over a shared weight allocation from
/// [`untrained_frozen_1d`].
pub fn untrained_1d_shared(scale: Scale, model: Arc<FrozenModel>) -> DlFieldSolver {
    let arch = scale.mlp_arch();
    DlFieldSolver::shared(
        model,
        (scale.phase_spec(), BinningShape::Ngp, arch.input_kind()),
        NormStats::identity(),
        "dl-mlp-untrained",
    )
}

/// The frozen weight allocation of the untrained 2-D fallback, sized for
/// this grid.
pub fn untrained_frozen_2d(scale: Scale, grid: &Grid2D) -> Arc<FrozenModel> {
    let net = arch_2d(grid, hidden_2d(scale)).build(0xD15E);
    Arc::new(
        net.freeze(Precision::F32)
            .expect("the 2-D MLP architecture has a frozen form"),
    )
}

/// One untrained 2-D fleet member over a shared allocation from
/// [`untrained_frozen_2d`].
pub fn untrained_2d_shared(model: Arc<FrozenModel>) -> DlFieldSolver<Grid2D> {
    DlFieldSolver::shared(
        model,
        DensityBinning::Ngp,
        NormStats::identity(),
        "dl-2d-mlp-untrained",
    )
}

/// Trains a 1-D MLP field solver from scratch at the given scale — the
/// full paper pipeline (traditional-PIC harvest → shuffle/split →
/// Adam/MSE training) with the scale's sweep and architecture. Seconds at
/// `Scale::Smoke`; see `dlpic-bench` for cached, full-size training.
pub fn quick_train_1d(scale: Scale, seed: u64) -> ModelBundle {
    use crate::dataset::generator::{generate, GeneratorConfig};
    use crate::dataset::spec::SweepSpec;
    use crate::nn::optimizer::Adam;
    use crate::nn::trainer::{train, TrainConfig};

    let mut cfg = GeneratorConfig::new(SweepSpec::training_for(scale), scale.phase_spec());
    cfg.ppc = scale.dataset_ppc();
    let data = generate(&cfg);
    let norm = data.input_norm_stats();
    let arch = scale.mlp_arch();
    let kind = arch.input_kind();
    let mut net = arch.build(seed);
    let mut opt = Adam::new(scale.learning_rate());
    let tc = TrainConfig {
        epochs: scale.mlp_epochs(),
        batch_size: 64,
        shuffle_seed: seed,
        log_every: 0,
    };
    train(
        &mut net,
        &crate::nn::Mse,
        &mut opt,
        &data.to_nn_dataset(&norm, kind),
        None,
        &tc,
    );
    let reference_mass: f32 = data.input_row(0).iter().sum();
    ModelBundle::from_network(&mut net, arch, data.spec, data.binning, norm)
        .with_reference_mass(reference_mass)
}

/// Trains a 2-D DL field solver by harvesting a traditional 2-D run of the
/// given scenario, then fitting the scale's MLP.
pub fn quick_train_2d(spec: &ScenarioSpec, seed: u64) -> Result<Dl2DModel, EngineError> {
    let grid = match spec.dim() {
        super::spec::Dim::TwoD => spec.grid_2d(),
        super::spec::Dim::OneD => {
            return Err(EngineError::InvalidSpec {
                scenario: spec.name.clone(),
                what: "quick_train_2d needs a 2-D scenario".into(),
            })
        }
    };
    let init = spec.init_2d().ok_or_else(|| EngineError::InvalidSpec {
        scenario: spec.name.clone(),
        what: "2-D training harvest needs a symmetric two-beam species".into(),
    })?;
    let cfg = PicConfig {
        grid: grid.clone(),
        init: Some(init),
        dt: spec.dt,
        n_steps: spec.n_steps,
        gather_shape: crate::pic::Shape::Cic,
        tracked_modes: vec![],
    };
    let binning = DensityBinning::Ngp;
    let samples = harvest_2d(cfg, binning, 1);
    let tc = Train2DConfig {
        hidden: hidden_2d(spec.scale),
        learning_rate: spec.scale.learning_rate().max(1e-3),
        epochs: match spec.scale {
            Scale::Smoke => 10,
            Scale::Scaled => 40,
            Scale::Paper => 80,
        },
        batch_size: 32,
        seed,
    };
    let (mut solver, _history) = train_2d_solver(&grid, &samples, binning, &tc);
    let reference_mass: f32 = samples.first().map(|s| s.hist.iter().sum()).unwrap_or(0.0);
    let params = params_to_bytes(
        solver
            .network_mut()
            .expect("a freshly trained solver owns its network"),
    );
    Ok(Dl2DModel {
        hidden: hidden_2d(spec.scale),
        params,
        binning,
        norm: solver.norm(),
        reference_mass,
    })
}

/// Observable counters of a [`ModelRegistry`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegistryStats {
    /// Lookups served from a cached bundle.
    pub hits: u64,
    /// Lookups that trained a fresh model.
    pub misses: u64,
    /// Entries dropped by LRU pressure or [`ModelRegistry::prune`].
    pub evictions: u64,
    /// Bundles currently resident.
    pub entries: usize,
    /// Bytes currently resident (serialized parameters plus the frozen
    /// inference copy).
    pub bytes: usize,
    /// The configured byte capacity.
    pub capacity_bytes: usize,
}

/// What one registry lookup is keyed by: train once per (scenario, scale,
/// seed) per dimension, share everywhere.
#[derive(Debug, Clone, PartialEq, Eq)]
struct RegistryKey {
    two_d: bool,
    scenario: String,
    scale: Scale,
    seed: u64,
}

enum RegistryPayload {
    OneD {
        bundle: Arc<ModelBundle>,
        frozen: Option<FrozenBundle>,
    },
    TwoD {
        model: Arc<Dl2DModel>,
        frozen: Option<Frozen2DModel>,
        nodes: usize,
    },
}

struct RegistryEntry {
    key: RegistryKey,
    payload: RegistryPayload,
    bytes: usize,
    last_used: u64,
}

/// A get-or-train cache of DL model bundles keyed by
/// `(scenario, scale, seed)`: the first lookup runs the quick-train
/// pipeline, every later lookup for the same key returns the **same**
/// `Arc`-shared bundle plus its frozen inference snapshot, so fleets and
/// serve runs share one weight allocation per distinct model instead of
/// retraining (or re-deserializing) per session.
///
/// The cache is LRU-bounded by bytes ([`ResourceEstimate`]
/// currency): inserting past `capacity_bytes` evicts the
/// least-recently-used entries, never the one just inserted. A cache hit
/// whose trained architecture cannot serve the requesting spec — the
/// domain was resized after the model was trained — is rejected with
/// [`EngineError::Incompatible`] naming both shapes rather than silently
/// returning a mis-sized network.
///
/// [`ResourceEstimate`]: super::resources::ResourceEstimate
pub struct ModelRegistry {
    capacity_bytes: usize,
    precision: Precision,
    clock: u64,
    entries: Vec<RegistryEntry>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// A registry shared across engine handles (and serve schedulers):
/// lookups lock, training happens under the lock so concurrent requests
/// for the same key train once.
pub type SharedModelRegistry = Arc<Mutex<ModelRegistry>>;

/// A fresh [`SharedModelRegistry`] with the given byte capacity.
pub fn shared_registry(capacity_bytes: usize) -> SharedModelRegistry {
    Arc::new(Mutex::new(ModelRegistry::new(capacity_bytes)))
}

impl ModelRegistry {
    /// An empty registry holding at most `capacity_bytes` of cached
    /// models (f32 weight storage).
    pub fn new(capacity_bytes: usize) -> Self {
        Self {
            capacity_bytes,
            precision: Precision::F32,
            clock: 0,
            entries: Vec::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Sets the weight-storage precision newly trained bundles freeze
    /// into. `Bf16` halves resident weight bytes at an accuracy cost
    /// gated by physics tolerance, not bit-identity — see the README's
    /// precision contract.
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// Gets (or trains) the 1-D bundle for this spec. The frozen
    /// snapshot is `None` only for architectures without a frozen form
    /// (the CNN); callers then fall back to per-session owned networks.
    pub fn model_1d(
        &mut self,
        spec: &ScenarioSpec,
    ) -> Result<(Arc<ModelBundle>, Option<FrozenBundle>), EngineError> {
        let key = self.key_for(spec, false);
        self.clock += 1;
        if let Some(idx) = self.entries.iter().position(|e| e.key == key) {
            let (cells, want) = match &self.entries[idx].payload {
                RegistryPayload::OneD { bundle, .. } => {
                    (bundle.arch.output_len(), spec.domain.cells())
                }
                RegistryPayload::TwoD { .. } => unreachable!("1-D key holds a 2-D payload"),
            };
            if cells != want {
                return Err(self.arch_mismatch(spec, Backend::Dl1D, cells, want));
            }
            self.hits += 1;
            self.entries[idx].last_used = self.clock;
            match &self.entries[idx].payload {
                RegistryPayload::OneD { bundle, frozen } => {
                    return Ok((Arc::clone(bundle), frozen.clone()))
                }
                RegistryPayload::TwoD { .. } => unreachable!(),
            }
        }
        self.misses += 1;
        let bundle = quick_train_1d(spec.scale, spec.seed).with_precision(self.precision);
        let frozen = bundle.freeze().ok();
        let bundle = Arc::new(bundle);
        let bytes = bundle.params.len() + frozen.as_ref().map(|f| f.weight_bytes()).unwrap_or(0);
        self.entries.push(RegistryEntry {
            key,
            payload: RegistryPayload::OneD {
                bundle: Arc::clone(&bundle),
                frozen: frozen.clone(),
            },
            bytes,
            last_used: self.clock,
        });
        self.evict_over_capacity();
        Ok((bundle, frozen))
    }

    /// Gets (or trains) the 2-D model for this spec.
    pub fn model_2d(
        &mut self,
        spec: &ScenarioSpec,
    ) -> Result<(Arc<Dl2DModel>, Option<Frozen2DModel>), EngineError> {
        let key = self.key_for(spec, true);
        self.clock += 1;
        if let Some(idx) = self.entries.iter().position(|e| e.key == key) {
            let (nodes, want) = match &self.entries[idx].payload {
                RegistryPayload::TwoD { nodes, .. } => (*nodes, spec.domain.cells()),
                RegistryPayload::OneD { .. } => unreachable!("2-D key holds a 1-D payload"),
            };
            if nodes != want {
                return Err(self.arch_mismatch(spec, Backend::Dl2D, nodes, want));
            }
            self.hits += 1;
            self.entries[idx].last_used = self.clock;
            match &self.entries[idx].payload {
                RegistryPayload::TwoD { model, frozen, .. } => {
                    return Ok((Arc::clone(model), frozen.clone()))
                }
                RegistryPayload::OneD { .. } => unreachable!(),
            }
        }
        self.misses += 1;
        let nodes = spec.domain.cells();
        let model = Arc::new(quick_train_2d(spec, spec.seed)?);
        let frozen = model
            .into_solver(&spec.grid_2d())
            .ok()
            .and_then(|s| s.freeze(self.precision).ok());
        let bytes = model.params.len() + frozen.as_ref().map(|f| f.weight_bytes()).unwrap_or(0);
        self.entries.push(RegistryEntry {
            key,
            payload: RegistryPayload::TwoD {
                model: Arc::clone(&model),
                frozen: frozen.clone(),
                nodes,
            },
            bytes,
            last_used: self.clock,
        });
        self.evict_over_capacity();
        Ok((model, frozen))
    }

    /// Drops every cached entry, returning how many were released.
    /// Sessions already minted keep their `Arc`s alive; the registry just
    /// stops pinning the allocations.
    pub fn prune(&mut self) -> usize {
        let n = self.entries.len();
        self.evictions += n as u64;
        self.entries.clear();
        n
    }

    /// Current counters.
    pub fn stats(&self) -> RegistryStats {
        RegistryStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            entries: self.entries.len(),
            bytes: self.resident_bytes(),
            capacity_bytes: self.capacity_bytes,
        }
    }

    fn key_for(&self, spec: &ScenarioSpec, two_d: bool) -> RegistryKey {
        RegistryKey {
            two_d,
            scenario: spec.name.clone(),
            scale: spec.scale,
            seed: spec.seed,
        }
    }

    fn arch_mismatch(
        &self,
        spec: &ScenarioSpec,
        backend: Backend,
        cached: usize,
        want: usize,
    ) -> EngineError {
        EngineError::Incompatible {
            scenario: spec.name.clone(),
            backend: backend.name(),
            why: format!(
                "registry entry for this (scenario, scale, seed) was trained for {cached} \
                 field cells but the requesting domain has {want}; prune the registry or \
                 match the training grid"
            ),
        }
    }

    fn resident_bytes(&self) -> usize {
        self.entries.iter().map(|e| e.bytes).sum()
    }

    fn evict_over_capacity(&mut self) {
        // Never evict the freshest entry (the one the caller is about to
        // use); a single over-budget model stays resident rather than
        // thrashing the trainer.
        while self.entries.len() > 1 && self.resident_bytes() > self.capacity_bytes {
            let oldest = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
                .expect("entries is non-empty");
            self.entries.remove(oldest);
            self.evictions += 1;
        }
    }
}
