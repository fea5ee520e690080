//! DL model plumbing for the engine's `Dl1D`/`Dl2D` backends.
//!
//! A session runs on one thing in both dimensions: a
//! [`FrozenBundle<G>`](FrozenBundle) — `Arc`-shared frozen weights plus the
//! input binner, normalization, reference mass and solver name — from which
//! every session mints its own `DlFieldSolver<G>` over the one weight
//! allocation. [`DlGeometry`] names what differs per dimension on the way
//! there (the backend, the default architecture and binner for a spec, the
//! quick-train pipeline); everything else — the engine's ladder, the
//! [`ModelRegistry`], the untrained fallback, the grid check and the
//! weight-sharing key — is written once over it.
//!
//! Three ways to get a model into an [`Engine`](super::Engine), tried in
//! this order:
//!
//! 1. **Bring a trained model** — `engine.with_model_1d(bundle)` with a
//!    [`ModelBundle`] from `dlpic-bench` or [`quick_train_1d`];
//!    `engine.with_model_2d(frozen)` with
//!    `quick_train_2d(&spec, seed, Precision::F32)?`. Both quick-trains
//!    are one `dlpic-dataset` pipeline — sweep, harvest, sample store,
//!    trainer — instantiated per dimension.
//! 2. **Get-or-train through a registry** — `engine.with_registry(..)`:
//!    [`ModelRegistry::model`] runs the quick-train pipeline (the full
//!    harvest→train at the spec's scale, seconds at `Scale::Smoke`) once
//!    per (scenario, scale, seed) and dimension. The 1-D model trains on the
//!    scale's fixed sweep; the 2-D one on a run of the scenario seeded
//!    apart from the seed its sessions serve.
//! 3. **Untrained fallback** — with neither, the engine builds an
//!    untrained network of the default architecture. The produced fields
//!    are physically meaningless (finite, near-zero) but every plumbing
//!    path is exercised; runs report the solver name `dl-*-untrained` so
//!    nobody mistakes them for physics.

use super::backend::Backend;
use super::error::EngineError;
use super::spec::ScenarioSpec;
use crate::core::builder::ArchSpec;
use crate::core::normalize::NormStats;
use crate::core::phase_space::BinningShape;
use crate::core::presets::Scale;
use crate::core::twod::{arch_2d, DensityBinning};
use crate::core::{FrozenBundle, InputBinning, ModelBundle};
use crate::dataset::generator::{generate, harvest, Capture, GeneratorConfig};
use crate::dataset::spec::SweepSpec;
use crate::dataset::{fit, PhaseDataset};
use crate::nn::frozen::Precision;
use crate::nn::{Mse, TrainConfig};
use crate::pic::solver::TraditionalSolver;
use crate::pic::{Grid1D, Grid2D, PicConfig, TwoStream2DInit};
use std::any::Any;
use std::sync::{Arc, Mutex};

/// What differs per dimension between a scenario spec and the DL model a
/// session of it runs on. Implemented for [`Grid1D`] and [`Grid2D`];
/// dispatch is static.
pub trait DlGeometry: InputBinning {
    /// The DL backend that runs on this geometry.
    const BACKEND: Backend;

    /// Solver name of the untrained fallback.
    const UNTRAINED_NAME: &'static str;

    /// The architecture the engine builds for `spec` when it is not handed
    /// a model: what the quick-train pipeline trains and what the
    /// untrained fallback leaves at its seeded initialisation.
    fn default_arch(spec: &ScenarioSpec) -> ArchSpec;

    /// The input binner that goes with [`Self::default_arch`].
    fn default_binner(spec: &ScenarioSpec) -> Self::Binner;

    /// Runs the quick-train pipeline for `spec` (seeded by `spec.seed`)
    /// and freezes the result at `precision`.
    fn quick_train(
        spec: &ScenarioSpec,
        precision: Precision,
    ) -> Result<FrozenBundle<Self>, EngineError>;
}

impl DlGeometry for Grid1D {
    const BACKEND: Backend = Backend::Dl1D;
    const UNTRAINED_NAME: &'static str = "dl-mlp-untrained";

    /// The scale's MLP; its output is the paper's 64 cells whatever the
    /// spec's domain says (the engine rejects any other).
    fn default_arch(spec: &ScenarioSpec) -> ArchSpec {
        spec.scale.mlp_arch()
    }

    fn default_binner(spec: &ScenarioSpec) -> Self::Binner {
        (spec.scale.phase_spec(), BinningShape::Ngp)
    }

    fn quick_train(spec: &ScenarioSpec, precision: Precision) -> Result<FrozenBundle, EngineError> {
        let trained = quick_train_1d(spec.scale, spec.seed).with_precision(precision);
        Ok(trained.freeze()?)
    }
}

impl DlGeometry for Grid2D {
    const BACKEND: Backend = Backend::Dl2D;
    const UNTRAINED_NAME: &'static str = "dl-2d-mlp-untrained";

    fn default_arch(spec: &ScenarioSpec) -> ArchSpec {
        arch_2d(spec.domain.cells(), hidden_2d(spec.scale))
    }

    fn default_binner(_spec: &ScenarioSpec) -> DensityBinning {
        DensityBinning::Ngp
    }

    fn quick_train(
        spec: &ScenarioSpec,
        precision: Precision,
    ) -> Result<FrozenBundle<Grid2D>, EngineError> {
        quick_train_2d(spec, spec.seed, precision)
    }
}

/// Hidden widths of the default 2-D architecture at each scale.
fn hidden_2d(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Smoke => vec![32, 32],
        Scale::Scaled => vec![256, 256],
        Scale::Paper => vec![512, 512],
    }
}

/// The untrained fallback for `spec`: the default architecture at a fixed
/// seed, the default binner and the identity normalization, frozen at f32
/// into one allocation a whole fleet of untrained sessions shares.
pub(crate) fn untrained<G: DlGeometry>(spec: &ScenarioSpec) -> FrozenBundle<G> {
    FrozenBundle::from_network(
        &G::default_arch(spec).build(0xD15E),
        G::default_binner(spec),
        NormStats::identity(),
        G::UNTRAINED_NAME,
        Precision::F32,
    )
    .expect("the default MLP architectures have frozen forms")
}

/// Checks that a model whose output row is `output_len` values wide serves
/// `spec`'s domain: one value per field cell and field component. Every
/// tier of the engine's ladder goes through it, in both dimensions, so a
/// mis-sized model is a structured error before the first solve.
pub(crate) fn check_cells<G: DlGeometry>(
    spec: &ScenarioSpec,
    output_len: Option<usize>,
) -> Result<(), EngineError> {
    let components = G::FIELD_NAMES.len();
    let (have, want) = (output_len.unwrap_or(0), spec.domain.cells() * components);
    if have == want {
        return Ok(());
    }
    Err(EngineError::Incompatible {
        scenario: spec.name.clone(),
        backend: G::BACKEND.name(),
        why: format!(
            "the DL model predicts {} field cells ({have} values per solve) but the domain \
             has {} ({want} values); a model serves only the grid it was trained for",
            have / components,
            want / components
        ),
    })
}

/// Where a DL session's model comes from: the tiers of the engine's
/// ladder, in the order it tries them.
#[derive(Clone, Copy)]
pub(crate) enum ModelTier {
    /// `Engine::with_model_1d` / `with_model_2d`.
    Explicit,
    /// Get-or-train through the attached [`ModelRegistry`].
    Registry,
    /// The seeded untrained fallback.
    Untrained,
}

/// The one definition of which DL sessions read one weight allocation:
/// sessions of one engine with equal keys share it. It keys the registry's
/// entries, the engine's untrained cache and the serve tier's budget
/// (`WeightProfiler::profile`). Compared for equality only, never
/// persisted.
pub(crate) fn weight_key<G: DlGeometry>(tier: ModelTier, spec: &ScenarioSpec) -> String {
    let dim = G::BACKEND.name();
    match tier {
        ModelTier::Explicit => format!("{dim}|model"),
        ModelTier::Registry => {
            format!("{dim}|reg|{}|{:?}|{}", spec.name, spec.scale, spec.seed)
        }
        // Exactly what `untrained` builds from.
        ModelTier::Untrained => format!(
            "{dim}|untrained|{:?}|{:?}",
            G::default_arch(spec),
            G::default_binner(spec)
        ),
    }
}

/// Trains a 1-D MLP field solver from scratch at the given scale — the
/// full paper pipeline (traditional-PIC harvest → Adam/MSE training) with
/// the scale's sweep and architecture. Seconds at `Scale::Smoke`; see
/// `dlpic-bench` for cached, full-size training.
pub fn quick_train_1d(scale: Scale, seed: u64) -> ModelBundle {
    let mut cfg = GeneratorConfig::new(SweepSpec::training_for(scale), scale.phase_spec());
    cfg.ppc = scale.dataset_ppc();
    let data = generate(&cfg);
    let arch = scale.mlp_arch();
    let tc = TrainConfig {
        epochs: scale.mlp_epochs(),
        shuffle_seed: seed,
        ..TrainConfig::default()
    };
    fit(&arch, &data, &Mse, None, scale.learning_rate(), &tc).bundle(arch, &data)
}

/// The traditional runs the 2-D quick-train harvests for `spec`: a
/// one-combo [`SweepSpec`] of the scenario's `(v0, vth)` for its `n_steps`,
/// with base seed `seed` and run seeds from [`SweepSpec::run_seed`], so no
/// run carries the seed a session of `spec` serves.
fn training_runs_2d(spec: &ScenarioSpec, seed: u64) -> Result<Vec<PicConfig<Grid2D>>, EngineError> {
    let init = spec.init_2d().ok_or_else(|| EngineError::InvalidSpec {
        scenario: spec.name.clone(),
        what: "2-D training harvest needs a symmetric two-beam species".into(),
    })?;
    let sweep = SweepSpec::cross(&[init.v0], &[init.vth], 1, spec.n_steps, seed);
    let run = |(c, e): (usize, usize)| {
        let combo = sweep.combos[c];
        PicConfig {
            grid: spec.grid_2d(),
            init: Some(TwoStream2DInit {
                v0: combo.v0,
                vth: combo.vth,
                seed: sweep.run_seed(c, e),
                ..init.clone()
            }),
            dt: spec.dt,
            n_steps: sweep.steps,
            gather_shape: crate::pic::Shape::Cic,
            tracked_modes: vec![],
        }
    };
    Ok(sweep.runs().map(run).collect())
}

/// Trains a 2-D DL field solver by harvesting traditional 2-D runs of the
/// given scenario (`training_runs_2d`: never the run the spec serves), then
/// fitting the scale's MLP, frozen at `precision` for
/// [`Engine::with_model_2d`](super::Engine::with_model_2d).
// analyze:allow(pub-reach): tests/shared_weights.rs trains its 2-D models through it and must stay unchanged
pub fn quick_train_2d(
    spec: &ScenarioSpec,
    seed: u64,
    precision: Precision,
) -> Result<FrozenBundle<Grid2D>, EngineError> {
    let grid = match spec.dim() {
        super::spec::Dim::TwoD => spec.grid_2d(),
        super::spec::Dim::OneD => {
            return Err(EngineError::InvalidSpec {
                scenario: spec.name.clone(),
                what: "quick_train_2d needs a 2-D scenario".into(),
            })
        }
    };
    let binning = Grid2D::default_binner(spec);
    let mut data = PhaseDataset::new(grid.clone(), binning, 2 * grid.nodes());
    for cfg in training_runs_2d(spec, seed)? {
        harvest(
            cfg,
            TraditionalSolver::default_config(),
            Capture::AfterStep,
            &mut data,
        );
    }
    let tc = TrainConfig {
        epochs: match spec.scale {
            Scale::Smoke => 10,
            Scale::Scaled => 40,
            Scale::Paper => 80,
        },
        batch_size: 32,
        shuffle_seed: seed,
        ..TrainConfig::default()
    };
    let lr = spec.scale.learning_rate().max(1e-3);
    let trained = fit(&Grid2D::default_arch(spec), &data, &Mse, None, lr, &tc);
    Ok(trained.freeze(binning, "dl-2d-mlp", precision))
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
    /// Bytes currently resident: the frozen weight allocations the
    /// entries pin — each exactly what a session minted from it reports
    /// as its `weight_storage()` bytes.
    pub bytes: usize,
    /// The configured byte capacity.
    pub capacity_bytes: usize,
}

/// One cached model: a `FrozenBundle<G>` behind `Any`, under the
/// [`weight_key`] that names its dimension.
struct RegistryEntry {
    key: String,
    frozen: Box<dyn Any + Send + Sync>,
    bytes: usize,
    last_used: u64,
}

/// A get-or-train cache of DL models keyed by `(scenario, scale, seed)`
/// per dimension: the first lookup runs the quick-train pipeline, every
/// later lookup for the same key returns a handle on the **same**
/// `Arc`-shared frozen weights, so fleets and serve runs share one weight
/// allocation per distinct model instead of retraining per session. An
/// entry holds the [`FrozenBundle`] alone — the serialized training
/// parameters are dropped once frozen.
///
/// The cache is LRU-bounded by bytes ([`ResourceEstimate`]
/// currency): inserting past `capacity_bytes` evicts the
/// least-recently-used entries, never the one just inserted. A lookup the
/// model cannot serve — the domain was resized after the model was
/// trained, or never fitted the default architecture — is rejected with
/// [`EngineError::Incompatible`] naming both shapes before anything is
/// trained, counted or returned.
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
// analyze:allow(pub-reach): tests/shared_weights.rs builds its registry through it and must stay unchanged
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

    /// Gets (or trains) the model for this spec in dimension `G`
    /// (`model::<Grid1D>` / `model::<Grid2D>`).
    pub fn model<G: DlGeometry>(
        &mut self,
        spec: &ScenarioSpec,
    ) -> Result<FrozenBundle<G>, EngineError> {
        let key = weight_key::<G>(ModelTier::Registry, spec);
        self.clock += 1;
        // The key names the dimension, so the downcast is to the type the
        // entry was stored as.
        let cached = self
            .entries
            .iter_mut()
            .find(|e| e.key == key)
            .and_then(|e| {
                let frozen = e.frozen.downcast_ref::<FrozenBundle<G>>()?;
                Some((frozen, &mut e.last_used))
            });
        if let Some((frozen, last_used)) = cached {
            check_cells::<G>(spec, frozen.model().output_len())?;
            self.hits += 1;
            *last_used = self.clock;
            return Ok(frozen.clone());
        }
        // Nothing is trained (or cached) for a domain the default
        // architecture cannot serve.
        check_cells::<G>(spec, Some(G::default_arch(spec).output_len()))?;
        self.misses += 1;
        let frozen = G::quick_train(spec, self.precision)?;
        self.entries.push(RegistryEntry {
            key,
            frozen: Box::new(frozen.clone()),
            bytes: frozen.weight_bytes(),
            last_used: self.clock,
        });
        self.evict_over_capacity();
        Ok(frozen)
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_2d_training_never_runs_the_served_seed() {
        for scale in [Scale::Smoke, Scale::Scaled, Scale::Paper] {
            let spec = crate::engine::scenario("two_stream_2d", scale).unwrap();
            // `DlGeometry::quick_train` seeds the quick-train with the
            // spec's own seed, the one its sessions then serve.
            let runs = training_runs_2d(&spec, spec.seed).unwrap();
            assert_eq!(runs.len(), 1, "{scale:?}: one training run per model");
            for run in runs {
                let init = run.init.unwrap();
                assert_ne!(init.seed, spec.seed, "{scale:?}: trains on the served seed");
                assert_eq!((init.v0, init.vth), spec.species.as_two_stream().unwrap());
                assert_eq!(run.n_steps, spec.n_steps);
            }
        }
    }
}
