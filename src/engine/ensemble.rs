//! Fleet execution: many sessions, batched DL inference, multiple cores.
//!
//! The paper's value proposition is amortization — train a field solver
//! once, then run *many* simulations cheaply. This module turns the
//! [`Session`] primitive into a fleet primitive:
//!
//! * [`SweepSpec`] expands a registry scenario into a grid of
//!   [`ScenarioSpec`]s — cartesian parameter axes, explicit point lists,
//!   and seed fans — using the registry's sweepable-parameter metadata
//!   ([`registry::sweepable_params`]).
//! * [`Ensemble`] owns N sessions and steps them in **lockstep waves**.
//!   Within a wave, sessions whose field solve is phase-split (the DL
//!   backends) are grouped into cohorts: each session prepares its
//!   inference input row, the cohort runs **one batched inference** —
//!   an `[m, in]` GEMM that streams the weights once for the whole
//!   cohort instead of once per session — and each session applies its
//!   output row.
//!   Monolithic backends (traditional, Vlasov, distributed) run whole
//!   steps in the same wave.
//! * Every wave runs on the process-wide worker **team**
//!   ([`core::pool`](crate::core::pool): the calling thread plus parked
//!   helpers, [`pool::available_threads`] members in all). The team sits
//!   *under* the wave, not around it: a cohort of sixteen rows or more
//!   (over a model big enough to be worth it) is cut into **panels** of
//!   at least eight consecutive members, one per team member, and the
//!   wave is one dispatch — whoever claims a panel prepares its rows,
//!   runs their batched inference through the weights every member
//!   shares, and applies them, with no synchronization but the barrier
//!   that ends the wave. Each core streams the weights once for its own
//!   rows and keeps its activations in its own cache. A smaller cohort is
//!   a single panel on the calling thread, a solo [`Session::step`] is a
//!   cohort of one, and a serve scheduler's [`WaveBatch`] gets the same
//!   team with no configuration. [`Ensemble::run_to_end`]`(threads)` caps
//!   the members its waves may use at `threads`; at 1 everything runs on
//!   the calling thread.
//!
//! ## Determinism
//!
//! Per-run results are **bit-identical to solo runs** at any team size,
//! because nothing a session computes depends on who computed it or in
//! what company:
//!
//! * prepare and apply touch only the session's own state and its own
//!   row of its panel's buffers — a member of the team does to a session
//!   exactly what the serial loop did, so the claiming race decides
//!   which core, never which bits;
//! * the batched inference is **row-stable** (row `i` of an `m`-row GEMM
//!   equals the 1-row product bitwise: every output element is one
//!   sequential multiply-add chain over ascending `k` from `+0.0` — see
//!   `nn::linalg`), so neither the cohort's composition nor the way it
//!   is cut into panels can perturb any session's arithmetic.
//!
//! `tests/ensemble_api.rs` asserts this for every backend family at
//! 1, 2 and 3 threads, across a checkpoint taken under one team size and
//! resumed under another, and with a member panicking on a helper.
//!
//! Cohort batching runs every row through **one member's network**. That
//! is sound because an engine configures at most one model per dimension,
//! so all DL sessions an [`Engine`](super::Engine) starts hold identical
//! parameters; cohorts are additionally keyed by backend, scale and
//! phase-grid shape so unrelated sessions never share a batch.
//!
//! ```no_run
//! use dlpic_repro::engine::{Engine, Backend, SweepSpec};
//! use dlpic_repro::core::Scale;
//!
//! let sweep = SweepSpec::grid("two_stream", Scale::Smoke)
//!     .axis("v0", [0.12, 0.16, 0.20])
//!     .seeds([1, 2, 3, 4]);
//! let mut ensemble = Engine::new().start_ensemble(&sweep.specs()?, Backend::Dl1D)?;
//! ensemble.run_to_end(dlpic_repro::core::pool::available_threads());
//! for summary in ensemble.finish() {
//!     println!("{}: γ = {:?}", summary.scenario, summary.growth_rate(1).map(|f| f.gamma));
//! }
//! # Ok::<(), dlpic_repro::engine::EngineError>(())
//! ```

use super::backend::Backend;
use super::error::EngineError;
use super::health::{contained, SessionFault};
use super::json::{obj, Json};
use super::observer::RunSummary;
use super::registry;
use super::session::{Checkpoint, Session};
use super::spec::ScenarioSpec;
use crate::core::pool;
use crate::core::presets::Scale;

// ---------------------------------------------------------------------
// Sweep specification.
// ---------------------------------------------------------------------

/// How a [`SweepSpec`] enumerates its parameter points.
#[derive(Debug, Clone)]
enum SweepKind {
    /// The cartesian product of named axes (first axis varies slowest).
    Cartesian(Vec<(String, Vec<f64>)>),
    /// An explicit list of `(param, value)` assignment sets.
    Explicit(Vec<Vec<(String, f64)>>),
}

/// A declarative description of a run fleet over one registry scenario:
/// a parameter grid (cartesian axes or explicit points) crossed with a
/// seed fan. [`SweepSpec::specs`] expands it into validated
/// [`ScenarioSpec`]s;
/// [`Engine::start_ensemble`](super::Engine::start_ensemble) turns those
/// into a running [`Ensemble`].
///
/// Parameter names come from the registry's sweepable-parameter metadata
/// ([`registry::sweepable_params`]); unknown names are rejected with the
/// known list.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    scenario: String,
    scale: Scale,
    kind: SweepKind,
    seeds: Vec<u64>,
}

impl SweepSpec {
    /// A cartesian sweep over `scenario` at `scale`; add axes with
    /// [`Self::axis`] and a seed fan with [`Self::seeds`]. With no axes
    /// and no seeds it expands to the single base spec.
    pub fn grid(scenario: impl Into<String>, scale: Scale) -> Self {
        Self {
            scenario: scenario.into(),
            scale,
            kind: SweepKind::Cartesian(Vec::new()),
            seeds: Vec::new(),
        }
    }

    /// An explicit sweep: one spec per listed `(param, value)` assignment
    /// set (crossed with the seed fan, if any).
    pub fn explicit(
        scenario: impl Into<String>,
        scale: Scale,
        points: Vec<Vec<(String, f64)>>,
    ) -> Self {
        Self {
            scenario: scenario.into(),
            scale,
            kind: SweepKind::Explicit(points),
            seeds: Vec::new(),
        }
    }

    /// Adds a cartesian axis: one run per value, crossed with every other
    /// axis (earlier axes vary slowest).
    ///
    /// # Panics
    /// Panics on an explicit sweep — axes and explicit points don't mix.
    pub fn axis(mut self, name: impl Into<String>, values: impl IntoIterator<Item = f64>) -> Self {
        match &mut self.kind {
            SweepKind::Cartesian(axes) => axes.push((name.into(), values.into_iter().collect())),
            SweepKind::Explicit(_) => panic!("axis() on an explicit sweep"),
        }
        self
    }

    /// Fans every parameter point over these loading seeds (seed
    /// ensembles). Empty (the default) keeps each point's registry seed.
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds = seeds.into_iter().collect();
        self
    }

    /// The scenario this sweep runs.
    pub fn scenario(&self) -> &str {
        &self.scenario
    }

    /// Number of specs [`Self::specs`] will expand to.
    pub fn len(&self) -> usize {
        let points = match &self.kind {
            SweepKind::Cartesian(axes) => axes.iter().map(|(_, v)| v.len()).product::<usize>(),
            SweepKind::Explicit(points) => points.len(),
        };
        points * self.seeds.len().max(1)
    }

    /// True when the sweep expands to no runs (an empty axis or an empty
    /// explicit list).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expands the sweep into one validated [`ScenarioSpec`] per run.
    /// Each spec's name records its overrides
    /// (`two_stream[v0=0.16, seed=3]`) so summaries stay tellable apart.
    ///
    /// Parameter names are validated up front against the scenario's
    /// sweepable knobs ([`registry::sweepable_params`]) — a typo'd axis
    /// fails here with the known-names list, before any expansion.
    pub fn specs(&self) -> Result<Vec<ScenarioSpec>, EngineError> {
        let base = registry::scenario(&self.scenario, self.scale)?;
        self.validate_names(&base)?;
        let points: Vec<Vec<(String, f64)>> = match &self.kind {
            SweepKind::Explicit(points) => points.clone(),
            SweepKind::Cartesian(axes) => {
                let mut points: Vec<Vec<(String, f64)>> = vec![Vec::new()];
                for (name, values) in axes {
                    let mut next = Vec::with_capacity(points.len() * values.len());
                    for point in &points {
                        for &v in values {
                            let mut p = point.clone();
                            p.push((name.clone(), v));
                            next.push(p);
                        }
                    }
                    points = next;
                }
                points
            }
        };
        let mut specs = Vec::with_capacity(points.len() * self.seeds.len().max(1));
        for point in &points {
            let mut spec = base.clone();
            for (name, value) in point {
                registry::apply_sweep_param(&mut spec, name, *value)?;
            }
            let seeds: &[u64] = if self.seeds.is_empty() {
                std::slice::from_ref(&spec.seed)
            } else {
                &self.seeds
            };
            for &seed in seeds {
                let mut run = spec.clone();
                run.seed = seed;
                let mut tags: Vec<String> = point
                    .iter()
                    .map(|(name, value)| format!("{name}={value}"))
                    .collect();
                if !self.seeds.is_empty() {
                    tags.push(format!("seed={seed}"));
                }
                if !tags.is_empty() {
                    run.name = format!("{}[{}]", base.name, tags.join(", "));
                }
                run.validate()?;
                specs.push(run);
            }
        }
        Ok(specs)
    }

    /// Checks every axis (or explicit-point parameter) name against the
    /// base scenario's sweepable knobs, so a bad name fails fast with the
    /// known list instead of deep inside expansion.
    fn validate_names(&self, base: &ScenarioSpec) -> Result<(), EngineError> {
        let known = registry::sweepable_params(base);
        let names: Vec<&String> = match &self.kind {
            SweepKind::Cartesian(axes) => axes.iter().map(|(name, _)| name).collect(),
            SweepKind::Explicit(points) => points
                .iter()
                .flat_map(|point| point.iter().map(|(name, _)| name))
                .collect(),
        };
        for name in names {
            if !known.iter().any(|p| p.name == name) {
                let list: Vec<&str> = known.iter().map(|p| p.name).collect();
                return Err(EngineError::InvalidSpec {
                    scenario: base.name.clone(),
                    what: format!(
                        "`{name}` is not a sweepable parameter of this scenario (knows {})",
                        list.join(", ")
                    ),
                });
            }
        }
        Ok(())
    }

    /// Serializes the sweep as a JSON value (the wire form `dlpic-serve`
    /// jobs carry); inverse of [`Self::from_json_value`].
    pub fn to_json_value(&self) -> Json {
        let mut fields = vec![
            ("scenario", Json::Str(self.scenario.clone())),
            ("scale", Json::Str(self.scale.name().into())),
        ];
        match &self.kind {
            SweepKind::Cartesian(axes) => fields.push((
                "axes",
                Json::Arr(
                    axes.iter()
                        .map(|(name, values)| {
                            obj(vec![
                                ("name", Json::Str(name.clone())),
                                ("values", Json::num_arr(values)),
                            ])
                        })
                        .collect(),
                ),
            )),
            SweepKind::Explicit(points) => fields.push((
                "points",
                Json::Arr(
                    points
                        .iter()
                        .map(|point| {
                            Json::Arr(
                                point
                                    .iter()
                                    .map(|(name, value)| {
                                        obj(vec![
                                            ("name", Json::Str(name.clone())),
                                            ("value", Json::Num(*value)),
                                        ])
                                    })
                                    .collect(),
                            )
                        })
                        .collect(),
                ),
            )),
        }
        if !self.seeds.is_empty() {
            fields.push((
                "seeds",
                Json::Arr(self.seeds.iter().map(|&s| Json::Num(s as f64)).collect()),
            ));
        }
        obj(fields)
    }

    /// Parses the JSON form produced by [`Self::to_json_value`]. Exactly
    /// one of `axes` (cartesian) or `points` (explicit) must be present;
    /// `seeds` is optional.
    pub fn from_json_value(doc: &Json) -> Result<Self, EngineError> {
        let scenario = doc.field("scenario")?.as_str()?.to_string();
        let scale_name = doc.field("scale")?.as_str()?;
        let scale = Scale::parse(scale_name).ok_or_else(|| EngineError::InvalidSpec {
            scenario: scenario.clone(),
            what: format!("unknown scale `{scale_name}` (knows smoke, scaled, paper)"),
        })?;
        let kind = match (doc.get("axes"), doc.get("points")) {
            (Some(axes), None) => SweepKind::Cartesian(
                axes.as_arr()?
                    .iter()
                    .map(|axis| {
                        Ok((
                            axis.field("name")?.as_str()?.to_string(),
                            axis.field("values")?.as_f64_vec()?,
                        ))
                    })
                    .collect::<Result<_, EngineError>>()?,
            ),
            (None, Some(points)) => SweepKind::Explicit(
                points
                    .as_arr()?
                    .iter()
                    .map(|point| {
                        point
                            .as_arr()?
                            .iter()
                            .map(|assign| {
                                Ok((
                                    assign.field("name")?.as_str()?.to_string(),
                                    assign.field("value")?.as_f64()?,
                                ))
                            })
                            .collect::<Result<Vec<_>, EngineError>>()
                    })
                    .collect::<Result<_, EngineError>>()?,
            ),
            _ => {
                return Err(EngineError::InvalidSpec {
                    scenario,
                    what: "a sweep needs exactly one of `axes` or `points`".into(),
                })
            }
        };
        let seeds = match doc.get("seeds") {
            Some(seeds) => seeds
                .as_arr()?
                .iter()
                .map(Json::as_u64)
                .collect::<Result<_, _>>()?,
            None => Vec::new(),
        };
        Ok(Self {
            scenario,
            scale,
            kind,
            seeds,
        })
    }
}

// ---------------------------------------------------------------------
// The ensemble scheduler.
// ---------------------------------------------------------------------

/// Reusable wave buffers: the wave's work lists and one
/// [`PanelScratch`] per panel. Warm after the first wave, so steady-state
/// stepping performs no heap allocation.
#[derive(Default)]
struct WaveScratch {
    /// `(cohort key, member indices)` work list, reused across waves.
    cohorts: Vec<(CohortKey, Vec<usize>)>,
    solo: Vec<usize>,
    /// One per panel of the widest cohort seen so far.
    panels: Vec<PanelScratch>,
    /// Where in the session list each panel's run starts (and the last
    /// one ends): where the wave cuts the list into the runs it hands to
    /// [`pool::Team::for_each_item`].
    bounds: Vec<usize>,
}

/// One panel's buffers: the stacked inference inputs/outputs of its rows.
#[derive(Default)]
struct PanelScratch {
    input: Vec<f32>,
    output: Vec<f32>,
    /// Panel members whose prepare phase survived this wave (a faulted
    /// member's row slot is reused by the next survivor).
    live: Vec<usize>,
    /// Members that completed the step and stayed healthy.
    stepped: usize,
}

/// Fewest rows worth a panel of their own: one register tile of the GEMM
/// kernels, the height from which a pass over the weights is compute- and
/// no longer bandwidth-bound (paper model: 1.0 ms for one row, 1.7 ms for
/// eight, 2.8 ms for sixteen).
const PANEL_ROWS: usize = 8;

/// Smallest shared model, in bytes of weights, whose cohort is cut into
/// panels at all: below it a whole wave is shorter than the wake-up of a
/// parked helper (the registry's smoke models are a few kilobytes).
const MIN_PANEL_WEIGHT_BYTES: usize = 1 << 20;

/// How many panels a cohort of `m` rows over `weight_bytes` of shared
/// weights is cut into: one per team member the calling thread may use,
/// as long as every panel gets [`PANEL_ROWS`] rows — so a cohort under
/// sixteen rows, and any cohort under a limit of one member, is a single
/// panel on the calling thread.
fn panel_count(m: usize, weight_bytes: usize) -> usize {
    if weight_bytes < MIN_PANEL_WEIGHT_BYTES {
        return 1;
    }
    (m / PANEL_ROWS).clamp(1, pool::team().members())
}

/// What must agree for sessions to share one batched inference: backend
/// family, experiment scale (fixes the phase-grid geometry and
/// architecture an engine builds), and the inference row widths. Within
/// one [`Ensemble`] every DL session of a given dimension also shares
/// the engine's (single) model, so equal keys imply equal networks.
type CohortKey = (&'static str, Scale, (usize, usize));

/// Either owned or borrowed storage of a [`Session`] in a wave slice —
/// lets one `step_wave` drive both [`Ensemble`]'s owned `Vec<Session>`
/// and a scheduler's transient `&mut [&mut Session]` ([`WaveBatch`])
/// without per-wave re-borrowing or allocation.
trait SessionSlot {
    fn session(&mut self) -> &mut Session;
}

impl SessionSlot for Session {
    fn session(&mut self) -> &mut Session {
        self
    }
}

impl SessionSlot for &mut Session {
    fn session(&mut self) -> &mut Session {
        self
    }
}

/// One panel of a cohort's wave, start to finish on whichever team member
/// claimed it. `members` are the panel's session indices (ascending), and
/// `run` is the stretch of the session list that holds them, starting at
/// index `base`.
///
/// Phase 1: every member prepares its row (and records its diagnostics
/// sample, exactly as a monolithic step would); a member whose prepare
/// panics quarantines itself and its row slot is reused by the next
/// survivor. Phase 2: ONE inference for the panel, through its first
/// survivor's solver (identical weights across members by construction;
/// row-stable kernels make each row bit-equal to a solo solve). If that
/// shared inference panics, fall back to per-member 1-row inference —
/// bit-identical rows again — so only the member whose own network panics
/// is lost. Phase 3: scatter the rows back; each member's apply completes
/// its step and checks its row.
fn step_panel<S: SessionSlot>(
    run: &mut [S],
    base: usize,
    members: &[usize],
    (in_w, out_w): (usize, usize),
    panel: &mut PanelScratch,
) {
    let PanelScratch {
        input,
        output,
        live,
        stepped,
    } = panel;
    input.resize(members.len() * in_w, 0.0);
    output.resize(members.len() * out_w, 0.0);
    live.clear();
    *stepped = 0;
    for &i in members {
        let r = live.len();
        let row = &mut input[r * in_w..(r + 1) * in_w];
        if run[i - base].session().step_prepare(row).is_some() {
            live.push(i);
        }
    }
    let m = live.len();
    if m == 0 {
        return;
    }
    let batch_ok = contained(|| {
        run[live[0] - base]
            .session()
            .infer_batch(&input[..m * in_w], m, &mut output[..m * out_w]);
    })
    .is_ok();
    if !batch_ok {
        for (r, &i) in live.iter().enumerate() {
            let session = run[i - base].session();
            if let Err(message) = contained(|| {
                session.infer_batch(
                    &input[r * in_w..(r + 1) * in_w],
                    1,
                    &mut output[r * out_w..(r + 1) * out_w],
                );
            }) {
                session.set_fault(SessionFault::Panicked { message });
            }
        }
    }
    for (r, &i) in live.iter().enumerate() {
        let row = &output[r * out_w..(r + 1) * out_w];
        *stepped += usize::from(run[i - base].session().step_apply(row));
    }
}

/// Steps every unfinished, healthy session in `sessions` once:
/// phase-split sessions in batched cohorts on the worker team, the rest
/// solo on the calling thread. Returns how many sessions completed a step
/// and stayed healthy.
///
/// A cohort is cut into [`panel_count`] panels of consecutive members and
/// the wave is ONE dispatch to the team: each panel is prepared, inferred
/// (one batched inference per panel, through the weights all members
/// share) and applied by the member that claimed it ([`step_panel`]), so
/// the wave's only synchronization is the barrier at its end.
///
/// Fault containment: each session supervises its own prepare, apply and
/// whole step (panics contained, the completed step's row checked; see
/// [`Session::step`]). A faulted session is quarantined — dropped from
/// this and every later wave with its partial history intact — and
/// cannot perturb its cohort: surviving rows compact down (row-stable
/// inference makes every row bit-identical at any batch height). The one
/// decision left to the wave is the cohort's: if a panel's *shared*
/// batched inference panics, that panel degrades to per-member 1-row
/// inference so one poisoned network only takes down its own run.
fn step_wave<S: SessionSlot + Send>(sessions: &mut [S], scratch: &mut WaveScratch) -> usize {
    for (_, members) in &mut scratch.cohorts {
        members.clear();
    }
    scratch.solo.clear();
    for (i, slot) in sessions.iter_mut().enumerate() {
        let session = slot.session();
        if session.is_complete() || session.fault().is_some() {
            continue;
        }
        match session.batched_infer_shape() {
            Some(shape) => {
                let key: CohortKey = (session.backend().name(), session.spec().scale, shape);
                match scratch.cohorts.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, members)) => members.push(i),
                    None => scratch.cohorts.push((key, vec![i])),
                }
            }
            None => scratch.solo.push(i),
        }
    }
    let mut stepped = 0;
    for (key, members) in &scratch.cohorts {
        let m = members.len();
        if m == 0 {
            continue;
        }
        let weight_bytes = sessions[members[0]]
            .session()
            .weight_storage()
            .map_or(0, |(_, bytes)| bytes);
        let parts = panel_count(m, weight_bytes);
        // Panel `p` takes members `p·m/parts .. (p+1)·m/parts`; its run of
        // the session list starts at its first member and ends where the
        // next panel's starts.
        let first = |p: usize| p * m / parts;
        if scratch.panels.len() < parts {
            scratch.panels.resize_with(parts, PanelScratch::default);
        }
        scratch.bounds.clear();
        scratch.bounds.extend((0..parts).map(|p| members[first(p)]));
        scratch.bounds.push(sessions.len());
        let (bounds, panels) = (&scratch.bounds, &mut scratch.panels[..parts]);
        // The runs are consecutive: each is cut off the front of what the
        // runs before it left.
        let mut rest = &mut sessions[bounds[0]..];
        let runs = panels.iter_mut().enumerate().map(move |(p, panel)| {
            let (run, tail) = std::mem::take(&mut rest).split_at_mut(bounds[p + 1] - bounds[p]);
            rest = tail;
            (p, run, panel)
        });
        pool::team().for_each_item(runs, |(p, run, panel)| {
            let mine = &members[first(p)..first(p + 1)];
            step_panel(run, bounds[p], mine, key.2, panel);
        });
        stepped += panels.iter().map(|panel| panel.stepped).sum::<usize>();
    }
    for &i in &scratch.solo {
        stepped += usize::from(sessions[i].session().step().is_some());
    }
    stepped
}

/// Wave stepping over *borrowed* sessions — the scheduler-side sibling of
/// [`Ensemble::step_wave`] for callers that own their sessions elsewhere
/// (e.g. a server multiplexing many independent jobs). Each call batches
/// the slice's phase-split sessions into DL cohorts exactly like an
/// ensemble wave, so co-resident DL runs share one batched inference even
/// though they belong to different owners — and a cohort wide enough to
/// be cut into panels runs on the worker team ([`pool::team`]), with
/// nothing to configure. Scratch buffers are warm after the first wave.
///
/// The same determinism contract applies: each session's results are
/// bit-identical to a solo run regardless of what else shares the wave
/// and of how many cores ran it.
#[derive(Default)]
pub struct WaveBatch {
    scratch: WaveScratch,
}

impl WaveBatch {
    /// A batcher with cold scratch buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Steps every unfinished session once (batched DL cohorts + solo
    /// monolithic steps); returns how many completed a healthy step (0
    /// once every session is complete or quarantined).
    pub fn step_wave(&mut self, sessions: &mut [&mut Session]) -> usize {
        step_wave(sessions, &mut self.scratch)
    }
}

/// A fleet of concurrently advancing sessions — the ensemble execution
/// layer. Create with [`Engine::start_ensemble`](super::Engine::start_ensemble)
/// (a sweep's [`SweepSpec::specs`] or any spec list); drive with
/// [`Self::step_wave`] (incremental) or [`Self::run_to_end`] (to the end,
/// on a chosen number of threads); consume with [`Self::finish`].
///
/// Sessions keep their full [`Session`] capabilities: per-run histories,
/// observers (attach via [`Self::session_mut`]), and checkpointing —
/// [`Self::checkpoints`] snapshots every run in the standard per-session
/// [`Checkpoint`] format that
/// [`Engine::resume_ensemble`](super::Engine::resume_ensemble) (or plain
/// [`Engine::resume`](super::Engine::resume)) accepts.
pub struct Ensemble {
    sessions: Vec<Session>,
    scratch: WaveScratch,
}

impl Ensemble {
    pub(crate) fn new(sessions: Vec<Session>) -> Self {
        Self {
            sessions,
            scratch: WaveScratch::default(),
        }
    }

    /// Number of runs.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// True for an ensemble of no runs.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// The runs, in sweep order.
    pub fn sessions(&self) -> &[Session] {
        &self.sessions
    }

    /// One run, mutably (attach observers, inspect history mid-flight).
    pub fn session_mut(&mut self, index: usize) -> &mut Session {
        &mut self.sessions[index]
    }

    /// True once every run is terminal: completed its configured steps,
    /// or quarantined by a fault (see [`Self::faults`]).
    pub fn is_complete(&self) -> bool {
        self.sessions
            .iter()
            .all(|s| s.is_complete() || s.fault().is_some())
    }

    /// Quarantined runs as `(session index, fault)` pairs. Healthy
    /// fleets return an empty list; a faulted run's partial history
    /// remains readable via [`Self::sessions`] and flows into its
    /// [`Self::finish`] summary.
    pub fn faults(&self) -> Vec<(usize, &SessionFault)> {
        self.sessions
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.fault().map(|f| (i, f)))
            .collect()
    }

    /// Advances every unfinished run by one step — DL cohorts share one
    /// batched inference per wave (per panel, on the worker team, when
    /// the cohort is wide enough to be cut up). Returns how many runs
    /// completed a healthy step (0 once every run is complete or
    /// quarantined). The incremental form of
    /// [`Self::run_to_end`]; between waves the caller may sample
    /// histories, checkpoint, or stop early.
    pub fn step_wave(&mut self) -> usize {
        step_wave(&mut self.sessions, &mut self.scratch)
    }

    /// Runs every session to its configured end on at most `threads`
    /// members of the worker team ([`pool::available_threads`] is the
    /// natural argument; 1 keeps everything on the calling thread).
    /// Phase-split (DL) sessions advance in lockstep waves, the team
    /// under each wave; sessions that do not batch share nothing with
    /// anyone, so each runs to its end ([`Session::run_to_end`], which
    /// stops at a quarantine) as one part of a single dispatch.
    /// Per-run results are bit-identical to solo runs at any thread count
    /// (see the module docs).
    pub fn run_to_end(&mut self, threads: usize) {
        pool::with_limit(threads, || {
            let mut monolithic: Vec<&mut Session> = self
                .sessions
                .iter_mut()
                .filter_map(|s| s.batched_infer_shape().is_none().then_some(s))
                .collect();
            pool::team().for_each_item(monolithic.iter_mut(), |session| session.run_to_end());
            // The waves follow each other without a pause: keep the
            // helpers from parking between one wave and the next.
            let _hold = pool::team().hold();
            while step_wave(&mut self.sessions, &mut self.scratch) > 0 {}
        });
    }

    /// Snapshots every run in the standard per-session [`Checkpoint`]
    /// format (same JSON schema as [`Session::checkpoint`]); feed the
    /// lot to [`Engine::resume_ensemble`](super::Engine::resume_ensemble)
    /// or any subset to [`Engine::resume`](super::Engine::resume).
    pub fn checkpoints(&self) -> Vec<Checkpoint> {
        self.sessions.iter().map(Session::checkpoint).collect()
    }

    /// Finishes every run (final snapshot row, observer `on_finish`) and
    /// returns the summaries in sweep order.
    pub fn finish(self) -> Vec<RunSummary> {
        self.sessions.into_iter().map(Session::finish).collect()
    }

    /// The backends driving the runs (diagnostic convenience).
    pub fn backends(&self) -> Vec<Backend> {
        self.sessions.iter().map(Session::backend).collect()
    }

    /// The fleet's resident weight allocations: `(distinct_models,
    /// weight_bytes)` where `weight_bytes` sums each shared allocation
    /// once (what the whole fleet actually holds in model weights).
    /// Sessions without weight storage contribute nothing.
    // analyze:allow(pub-reach): the weight-sharing contract tests/shared_weights.rs pins, unchanged
    pub fn weight_footprint(&self) -> (usize, usize) {
        let mut seen: Vec<usize> = Vec::new();
        let mut bytes = 0usize;
        for s in &self.sessions {
            if let Some((id, b)) = s.weight_storage() {
                if !seen.contains(&id) {
                    seen.push(id);
                    bytes += b;
                }
            }
        }
        (seen.len(), bytes)
    }
}
