//! Incremental sessions: the engine's stepping primitive.
//!
//! [`Engine::run`](super::Engine::run) is a one-shot convenience; the real
//! primitive is [`Engine::start`](super::Engine::start), which builds the
//! solver stack for a scenario×backend pairing and hands back a
//! [`Session`] that the caller advances one step at a time. Sessions make
//! the paper's comparison methodology an API instead of a script:
//!
//! * **step** — [`Session::step`] advances the solver one `dt` and returns
//!   the diagnostics [`Sample`] recorded for the step's starting time
//!   level (the same `n + 1`-samples convention every solver crate uses).
//! * **stop early** — [`Session::run_until`] steps until a predicate on
//!   the live sample fires (growth saturated, energy drifted, budget
//!   spent); [`Session::finish`] yields a [`RunSummary`] for however many
//!   steps actually ran.
//! * **checkpoint / resume** — [`Session::checkpoint`] serializes the
//!   mutable solver state (particles, fields, distribution function,
//!   per-rank slabs) plus the recorded history through the engine's JSON
//!   layer; [`Engine::resume`](super::Engine::resume) rebuilds the stack
//!   from the embedded spec and continues. Finite `f64` state round-trips
//!   bit-exactly, so a resumed run reproduces the uninterrupted
//!   trajectory.
//! * **lockstep** — two sessions on the same spec advance side by side;
//!   [`super::compare::lockstep`] packages the per-step residuals.
//!
//! Backends plug in through the [`BackendSession`] trait; one
//! implementation per solver family lives in this module. A backend
//! session only advances its solver stack and reports diagnostics rows:
//! [`BackendSession::step`] (or the phase-split
//! [`BackendSession::step_prepare`] → [`BackendSession::infer_batch`] →
//! [`BackendSession::step_apply`]) returns the step's row, and
//! [`BackendSession::sample`] the instantaneous row of the current state.
//! Everything done with a row happens once, in [`Session`]: an injected
//! fault ([`super::fault`]) trips or poisons it, the session's one record
//! function appends it to the [`EnergyHistory`] and streams it to the
//! observers — a step's row and, on [`Session::finish`], the final
//! `sample()` row alike — and the step that completes it checks it.
//!
//! **Supervision.** A session supervises itself, so every driver gets the
//! same quarantine ([`super::health`]): [`Session::step`],
//! [`Session::step_prepare`] and [`Session::step_apply`] each run their
//! phase with panics contained, and a panic quarantines the session as
//! [`SessionFault::Panicked`]. When a step completes (the end of `step`,
//! or of `step_apply`), its recorded row is checked; a non-finite row is
//! dropped and the session quarantined as [`SessionFault::Diverged`], so
//! a diverged run holds one row fewer than its completed steps. Once
//! quarantined, the stepping calls return `None`/`false` without touching
//! the solver, [`Session::run_until`] stops, and [`Engine::run`] and
//! [`super::compare::lockstep`] return [`EngineError::Quarantined`].
//!
//! [`Engine::run`]: super::Engine::run

use super::backend::Backend;
use super::error::EngineError;
use super::fault::FaultKind;
use super::health::{self, contained, SessionFault};
use super::json::{obj, Json};
use super::observer::{EnergyHistory, Observer, PhaseSpace, RunSummary, Sample};
use super::spec::{LoadingSpec, ScenarioSpec};
use crate::core::pool;
use crate::core::presets::Scale;
use crate::ddecomp::sim::{DistConfig, DistSimulation, DistState, RankStateSnapshot};
use crate::ddecomp::strategy::GatherScatter;
use crate::pic::simulation::{PicConfig, Simulation};
use crate::pic::solver::FieldSolver;
use crate::pic::Grid2D;
use crate::pic::{Geometry, Grid1D, Shape};
use crate::vlasov::{VlasovConfig, VlasovSolver};

/// Smallest thermal spread the continuum backend accepts: below this the
/// velocity grid cannot resolve the Maxwellian and the solver would have
/// to silently alter the spec's physics. `Backend::Vlasov::supports`
/// enforces it.
pub(crate) const VLASOV_MIN_VTH: f64 = 0.01;

/// Velocity-space resolution of the continuum backend per scale.
pub(crate) fn vlasov_nv(scale: Scale) -> usize {
    match scale {
        Scale::Smoke => 64,
        Scale::Scaled => 256,
        Scale::Paper => 512,
    }
}

/// One backend's incremental driver: owns the solver stack of a running
/// scenario and advances it step by step. Implementations adapt each
/// solver family's stepping and diagnostics conventions to the engine's
/// unified [`Sample`] shape; [`Session`] wraps one of these with history
/// recording and observer fan-out.
///
/// `Send` because the ensemble scheduler distributes sessions across
/// worker threads (each session is owned by exactly one worker at a
/// time).
pub trait BackendSession: Send {
    /// Advances one step and returns the diagnostics row recorded for the
    /// step's *starting* time level (the solver crates' convention).
    fn step(&mut self) -> Sample;

    /// Instantaneous diagnostics of the current state, without advancing
    /// or recording; [`Session::finish`] records it as the final row,
    /// completing the `n + 1`-samples convention.
    fn sample(&mut self) -> Sample;

    /// Current simulation time.
    fn time(&self) -> f64;

    /// Steps performed so far (including any before a restore).
    fn steps_done(&self) -> usize;

    /// Final `(x, vx)` phase space; `None` for the continuum backend.
    fn phase_space(&self) -> Option<PhaseSpace>;

    /// Serializes the mutable solver state (everything [`Self::restore`]
    /// needs to continue this run in a freshly built stack).
    fn state_checkpoint(&self) -> Json;

    /// Overwrites the mutable solver state with a checkpointed snapshot.
    fn restore(&mut self, state: &Json) -> Result<(), EngineError>;

    /// Backend-specific summary extras (e.g. communication volume).
    fn extras(&self) -> Vec<(String, f64)> {
        Vec::new()
    }

    /// Identity and size of this session's field-solver weight
    /// allocation: `Some((id, bytes))` where equal `id`s mean the *same*
    /// shared allocation (so fleet accounting charges `bytes` once per
    /// distinct id), `None` for model-free backends. The id is only
    /// meaningful while the session is alive and unmoved.
    fn weight_storage(&self) -> Option<(usize, usize)> {
        None
    }

    // -----------------------------------------------------------------
    // Batched-inference phase hooks (the ensemble execution path).
    //
    // A session whose field solve routes through a phase-split solver
    // (`Some` from `infer_shape`) exposes its step as three phases so an
    // external scheduler can gather the inference inputs of many
    // sessions, run ONE batched inference, and scatter the outputs back:
    //
    //   let sample = s.step_prepare(&mut batch[r*in..][..in]);
    //   leader.infer_batch(&batch, rows, &mut out);   // any cohort member
    //   s.step_apply(&out[r*out_w..][..out_w]);
    //
    // prepare → infer(1 row) → apply is bit-identical to `step` (the
    // solvers route their own solve through the same phases), and row
    // `i` of a batched inference is bit-identical to a 1-row inference
    // (row-stable GEMM kernels), so ensemble histories reproduce solo
    // runs exactly. The defaults make every session non-batchable.
    // -----------------------------------------------------------------

    /// `(input, output)` row widths of the batched-inference phases, or
    /// `None` when this session's solve cannot be split (non-DL
    /// backends).
    fn infer_shape(&mut self) -> Option<(usize, usize)> {
        None
    }

    /// Phase 1 of a split step: everything [`Self::step`] does before
    /// the field-solve inference (diagnostics, particle push, history
    /// row), plus the inference-input preparation into `input`. Returns
    /// the step's diagnostics row, exactly as [`Self::step`] would.
    ///
    /// Must be followed by [`Self::step_apply`] before any other
    /// stepping call. Only valid when [`Self::infer_shape`] is `Some`.
    fn step_prepare(&mut self, _input: &mut [f32]) -> Sample {
        unreachable!("step_prepare on a session without batched inference")
    }

    /// Phase 2: one inference over `rows` stacked input rows. Callable on
    /// any cohort member; the ensemble runs the whole batch through one
    /// session's solver (identical network parameters by construction).
    fn infer_batch(&mut self, _input: &[f32], _rows: usize, _output: &mut [f32]) {
        unreachable!("infer_batch on a session without batched inference")
    }

    /// Phase 3: applies this session's inference-output row and
    /// completes the step begun by [`Self::step_prepare`].
    fn step_apply(&mut self, _output: &[f32]) {
        unreachable!("step_apply on a session without batched inference")
    }
}

fn bad_checkpoint(what: impl Into<String>) -> EngineError {
    EngineError::Checkpoint { what: what.into() }
}

/// Guards resume against a different field solver than the one the
/// checkpoint was taken with — most importantly a DL run resumed in an
/// engine with no model configured, which would otherwise *silently*
/// continue on the untrained fallback and change the physics. The check
/// is by solver name (`"traditional"`, `"dl-mlp"`, `"dl-mlp-untrained"`,
/// …); supplying the *same kind* of model with different trained
/// parameters remains the caller's responsibility.
fn check_solver_name(state: &Json, built: &str) -> Result<(), EngineError> {
    let recorded = state.field("solver")?.as_str()?;
    if recorded != built {
        return Err(bad_checkpoint(format!(
            "checkpoint was taken with field solver `{recorded}` but this engine builds \
             `{built}`; configure the engine with the matching model before resuming"
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Particle backends: one session over the geometry-generic PIC driver.
// Traditional and DL share it (only the injected field solver differs),
// and so do 1-D and 2-D (only the constructors differ).
// ---------------------------------------------------------------------

/// Session of the PIC backends: `Traditional1D`/`Dl1D` at [`Grid1D`],
/// `Traditional2D`/`Dl2D` at [`Grid2D`].
pub struct PicSession<G: Geometry> {
    sim: Simulation<G>,
}

impl PicSession<Grid1D> {
    pub(crate) fn new(spec: &ScenarioSpec, solver: Box<dyn FieldSolver>, gather: Shape) -> Self {
        let grid = spec.grid_1d();
        // The general multi-beam loading covers every 1-D species; the
        // dedicated two-stream builder is kept for the species it can
        // express so existing runs reproduce bit-identically.
        let particles = match spec.two_stream_init() {
            Some(init) => init.build(&grid),
            None => spec.multi_beam_init().build(&grid),
        };
        let cfg = PicConfig {
            grid,
            init: None,
            dt: spec.dt,
            n_steps: spec.n_steps,
            gather_shape: gather,
            tracked_modes: spec.tracked_modes.clone(),
        };
        Self {
            sim: Simulation::from_particles(cfg, particles, solver),
        }
    }
}

impl PicSession<Grid2D> {
    /// Tracked mode `m` maps to the `(m, 0)` mode of `Ex` — the family
    /// carrying the 1-D physics.
    pub(crate) fn new(spec: &ScenarioSpec, solver: Box<dyn FieldSolver<Grid2D>>) -> Self {
        let cfg = PicConfig {
            grid: spec.grid_2d(),
            init: Some(spec.init_2d().expect("compatibility checked")),
            dt: spec.dt,
            n_steps: spec.n_steps,
            gather_shape: Shape::Cic,
            tracked_modes: spec.tracked_modes.iter().map(|&m| (m, 0)).collect(),
        };
        Self {
            sim: Simulation::new(cfg, solver),
        }
    }
}

impl<G: Geometry> PicSession<G> {
    fn last_row(&self, step: usize) -> Sample {
        self.sim
            .history()
            .last_sample(step)
            .expect("row just recorded")
    }
}

impl<G: Geometry> BackendSession for PicSession<G> {
    fn step(&mut self) -> Sample {
        self.sim.step();
        self.last_row(self.sim.steps_done() - 1)
    }

    fn sample(&mut self) -> Sample {
        self.sim.sample()
    }

    fn time(&self) -> f64 {
        self.sim.time()
    }

    fn steps_done(&self) -> usize {
        self.sim.steps_done()
    }

    fn phase_space(&self) -> Option<PhaseSpace> {
        let (x, v) = self.sim.phase_space();
        Some(PhaseSpace {
            x: x.to_vec(),
            v: v.to_vec(),
        })
    }

    fn weight_storage(&self) -> Option<(usize, usize)> {
        self.sim.solver().weight_storage()
    }

    fn state_checkpoint(&self) -> Json {
        let mut fields = vec![("solver", Json::Str(self.sim.solver_name().into()))];
        for (name, column) in G::columns(self.sim.particles()) {
            fields.push((name, Json::num_arr(column)));
        }
        let components = self.sim.efield().chunks_exact(self.sim.grid().nodes());
        for (name, component) in G::FIELD_NAMES.iter().zip(components) {
            fields.push((name, Json::num_arr(component)));
        }
        fields.push(("time", Json::Num(self.sim.time())));
        fields.push(("steps_done", Json::Num(self.sim.steps_done() as f64)));
        obj(fields)
    }

    fn infer_shape(&mut self) -> Option<(usize, usize)> {
        let (solver, ..) = self.sim.split_for_solve();
        solver.phased().map(|p| (p.input_len(), p.output_len()))
    }

    fn step_prepare(&mut self, input: &mut [f32]) -> Sample {
        self.sim.step_pre_solve();
        let (solver, particles, grid, _e) = self.sim.split_for_solve();
        solver
            .phased()
            .expect("step_prepare on a non-phased solver")
            .prepare_input(particles, grid, input);
        // step_post_solve has not run yet, so steps_done is still the
        // step index `step` would report as `steps_done() - 1`.
        self.last_row(self.sim.steps_done())
    }

    fn infer_batch(&mut self, input: &[f32], rows: usize, output: &mut [f32]) {
        let (solver, ..) = self.sim.split_for_solve();
        solver
            .phased()
            .expect("infer_batch on a non-phased solver")
            .infer_batch(input, rows, output);
    }

    fn step_apply(&mut self, output: &[f32]) {
        let (solver, _, _, e) = self.sim.split_for_solve();
        solver
            .phased()
            .expect("step_apply on a non-phased solver")
            .apply_output(output, e);
        self.sim.step_post_solve();
    }

    fn restore(&mut self, state: &Json) -> Result<(), EngineError> {
        check_solver_name(state, self.sim.solver_name())?;
        let live = G::columns(self.sim.particles());
        // Positions first, then velocities: one column of each per axis.
        let axes = live.len() / 2;
        let mut columns = Vec::new();
        for (k, (name, live)) in live.into_iter().enumerate() {
            let column = state.field(name)?.as_f64_vec()?;
            if column.len() != live.len() {
                return Err(bad_checkpoint(format!(
                    "state column `{name}` holds {} particles but the spec loads {}",
                    column.len(),
                    live.len()
                )));
            }
            if k < axes {
                let length = self.sim.grid().box_length(k);
                if let Some(i) = column.iter().position(|x| !(0.0..length).contains(x)) {
                    return Err(bad_checkpoint(format!(
                        "state column `{name}` holds {} at index {i}, outside the box [0, {length})",
                        column[i]
                    )));
                }
            }
            columns.push(column);
        }
        let nodes = self.sim.grid().nodes();
        let mut e = Vec::with_capacity(self.sim.efield().len());
        for name in G::FIELD_NAMES {
            let component = state.field(name)?.as_f64_vec()?;
            if component.len() != nodes {
                return Err(bad_checkpoint(format!(
                    "field `{name}` has {} nodes but the grid has {nodes}",
                    component.len()
                )));
            }
            e.extend(component);
        }
        self.sim.restore_state(
            &columns,
            &e,
            state.field("time")?.as_f64()?,
            state.field("steps_done")?.as_usize()?,
        );
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Continuum Vlasov–Poisson backend.
// ---------------------------------------------------------------------

/// Session of the continuum `Vlasov` backend. Diagnostics are recorded at
/// the *start* of each step plus a final snapshot, matching the PIC
/// sampling convention.
pub struct VlasovSession {
    solver: VlasovSolver,
    tracked_modes: Vec<usize>,
    steps_done: usize,
}

impl VlasovSession {
    pub(crate) fn new(spec: &ScenarioSpec) -> Self {
        // `Backend::Vlasov::supports` has already rejected vth below
        // VLASOV_MIN_VTH and quiet loadings on modes other than 1, so the
        // spec's physics runs unmodified.
        let (v0, vth) = spec.species.as_two_stream().expect("compatibility checked");
        // A quiet PIC loading displaces by ξ = A·L·sin(kx), i.e. a relative
        // density perturbation ε = A·L·k = 2π·A on mode 1, which is the
        // mode the continuum solver seeds.
        let perturbation = match spec.loading {
            LoadingSpec::Quiet { mode: 1, amplitude } => {
                (2.0 * std::f64::consts::PI * amplitude).abs().max(1e-9)
            }
            _ => 1e-3,
        };
        let cfg = VlasovConfig {
            grid: spec.grid_1d(),
            nv: vlasov_nv(spec.scale),
            vmax: (v0 + 6.0 * vth).max(0.8),
            dt: spec.dt,
            v0,
            vth,
            perturbation,
        };
        Self {
            solver: VlasovSolver::new(cfg),
            tracked_modes: spec.tracked_modes.clone(),
            steps_done: 0,
        }
    }
}

impl BackendSession for VlasovSession {
    fn step(&mut self) -> Sample {
        let sample = self.sample();
        self.solver.step();
        self.steps_done += 1;
        sample
    }

    fn sample(&mut self) -> Sample {
        Sample {
            step: self.steps_done,
            time: self.solver.time(),
            kinetic: self.solver.kinetic_energy(),
            field: self.solver.field_energy(),
            momentum: self.solver.momentum(),
            mode_amps: self
                .tracked_modes
                .iter()
                .map(|&m| self.solver.field_mode(m))
                .collect(),
        }
    }

    fn time(&self) -> f64 {
        self.solver.time()
    }

    fn steps_done(&self) -> usize {
        self.steps_done
    }

    fn phase_space(&self) -> Option<PhaseSpace> {
        None
    }

    fn state_checkpoint(&self) -> Json {
        obj(vec![
            ("f", Json::num_arr(self.solver.distribution())),
            ("time", Json::Num(self.solver.time())),
            ("steps_done", Json::Num(self.steps_done as f64)),
        ])
    }

    fn restore(&mut self, state: &Json) -> Result<(), EngineError> {
        let f = state.field("f")?.as_f64_vec()?;
        if f.len() != self.solver.distribution().len() {
            return Err(bad_checkpoint(format!(
                "distribution has {} phase cells but the solver grid has {}",
                f.len(),
                self.solver.distribution().len()
            )));
        }
        self.solver
            .restore_state(&f, state.field("time")?.as_f64()?);
        self.steps_done = state.field("steps_done")?.as_usize()?;
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Distributed 1-D backend.
// ---------------------------------------------------------------------

/// Session of the domain-decomposed `Ddecomp` backend. Reports
/// communication volume and migration counts as summary extras.
pub struct DdecompSession {
    sim: DistSimulation,
    n_ranks: usize,
}

impl DdecompSession {
    pub(crate) fn new(
        spec: &ScenarioSpec,
        n_ranks: usize,
        numerics: super::runner::Numerics1D,
    ) -> Result<Self, EngineError> {
        // The distributed gather/scatter strategy solves Poisson with the
        // finite-difference backend only; honouring part of a numerics
        // override while ignoring the rest would produce apples-to-oranges
        // comparisons, so reject instead.
        if numerics.poisson != crate::pic::solver::PoissonKind::FiniteDifference {
            return Err(EngineError::Incompatible {
                scenario: spec.name.clone(),
                backend: "ddecomp",
                why: format!(
                    "the distributed solve supports only finite-difference Poisson (asked for {:?})",
                    numerics.poisson
                ),
            });
        }
        let init = spec.two_stream_init().expect("compatibility checked");
        let cfg = DistConfig {
            grid: spec.grid_1d(),
            init,
            dt: spec.dt,
            n_steps: spec.n_steps,
            gather_shape: numerics.gather_shape,
            n_ranks,
            tracked_modes: spec.tracked_modes.clone(),
        };
        Ok(Self {
            sim: DistSimulation::new(
                cfg,
                Box::new(GatherScatter::new(numerics.deposit_shape, 1.0)),
            ),
            n_ranks,
        })
    }
}

impl BackendSession for DdecompSession {
    fn step(&mut self) -> Sample {
        self.sim.step();
        let step = self.sim.steps_done() - 1;
        self.sim
            .history()
            .last_sample(step)
            .expect("row just recorded")
    }

    fn sample(&mut self) -> Sample {
        self.sim.sample()
    }

    fn time(&self) -> f64 {
        self.sim.time()
    }

    fn steps_done(&self) -> usize {
        self.sim.steps_done()
    }

    fn phase_space(&self) -> Option<PhaseSpace> {
        let (x, v) = self.sim.phase_space();
        Some(PhaseSpace { x, v })
    }

    fn state_checkpoint(&self) -> Json {
        let state = self.sim.export_state();
        obj(vec![
            (
                "ranks",
                Json::Arr(
                    state
                        .ranks
                        .iter()
                        .map(|r| {
                            obj(vec![
                                ("x", Json::num_arr(&r.x)),
                                ("v", Json::num_arr(&r.v)),
                                ("e_ext", Json::num_arr(&r.e_ext)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("time", Json::Num(state.time)),
            ("steps_done", Json::Num(state.steps_done as f64)),
            ("migrated_total", Json::Num(state.migrated_total as f64)),
            ("comm_messages", Json::Num(state.comm.messages as f64)),
            ("comm_bytes", Json::Num(state.comm.bytes as f64)),
            (
                "comm_phases",
                Json::Arr(
                    state
                        .comm_phases
                        .iter()
                        .map(|&(phase, stats)| {
                            obj(vec![
                                ("phase", Json::Str(phase.into())),
                                ("messages", Json::Num(stats.messages as f64)),
                                ("bytes", Json::Num(stats.bytes as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    fn restore(&mut self, state: &Json) -> Result<(), EngineError> {
        let rank_docs = state.field("ranks")?.as_arr()?;
        if rank_docs.len() != self.n_ranks {
            return Err(bad_checkpoint(format!(
                "state holds {} ranks but the backend runs {}",
                rank_docs.len(),
                self.n_ranks
            )));
        }
        let topology = self.sim.topology();
        let grid = self.sim.grid();
        let ext = crate::ddecomp::halo::ext_len(topology);
        let mut total_particles = 0usize;
        let mut ranks = Vec::with_capacity(rank_docs.len());
        for (rank, doc) in rank_docs.iter().enumerate() {
            let snap = RankStateSnapshot {
                x: doc.field("x")?.as_f64_vec()?,
                v: doc.field("v")?.as_f64_vec()?,
                e_ext: doc.field("e_ext")?.as_f64_vec()?,
            };
            if snap.x.len() != snap.v.len() {
                return Err(bad_checkpoint("rank x/v lengths disagree"));
            }
            if snap.e_ext.len() != ext {
                return Err(bad_checkpoint(format!(
                    "rank slab has {} nodes but the topology needs {ext}",
                    snap.e_ext.len()
                )));
            }
            // The slab kernels index the rank's own cells: a particle
            // outside the box, or inside another rank's slab, would gather
            // out of bounds on the first step.
            if let Some(i) = snap.x.iter().position(|&x| {
                !(0.0..grid.lx()).contains(&x) || topology.rank_of_position(x, grid) != rank
            }) {
                return Err(bad_checkpoint(format!(
                    "rank {rank} holds x = {} at index {i}, outside its slab",
                    snap.x[i]
                )));
            }
            total_particles += snap.x.len();
            ranks.push(snap);
        }
        if total_particles != self.sim.total_particles() {
            return Err(bad_checkpoint(format!(
                "state holds {total_particles} particles but the spec loads {}",
                self.sim.total_particles()
            )));
        }
        // Per-phase traffic breakdown: phase names intern against the
        // closed set the strategies emit (an unknown name means a
        // corrupted or foreign checkpoint, not a new phase). Checkpoints
        // written before the breakdown was persisted lack the field —
        // still valid v1 documents, restored with an empty breakdown
        // (exactly the old behavior).
        let mut comm_phases = Vec::new();
        let phase_docs = match state.field("comm_phases") {
            Ok(docs) => docs.as_arr()?,
            Err(_) => &[],
        };
        for doc in phase_docs {
            let name = doc.field("phase")?.as_str()?;
            let phase = crate::ddecomp::comm::intern_phase(name)
                .ok_or_else(|| bad_checkpoint(format!("unknown comm phase `{name}`")))?;
            comm_phases.push((
                phase,
                crate::ddecomp::comm::CommStats {
                    messages: doc.field("messages")?.as_u64()?,
                    bytes: doc.field("bytes")?.as_u64()?,
                },
            ));
        }
        self.sim.restore_state(&DistState {
            ranks,
            time: state.field("time")?.as_f64()?,
            steps_done: state.field("steps_done")?.as_usize()?,
            migrated_total: state.field("migrated_total")?.as_u64()?,
            comm: crate::ddecomp::comm::CommStats {
                messages: state.field("comm_messages")?.as_u64()?,
                bytes: state.field("comm_bytes")?.as_u64()?,
            },
            comm_phases,
        });
        Ok(())
    }

    fn extras(&self) -> Vec<(String, f64)> {
        let stats = self.sim.comm_stats();
        vec![
            ("ranks".into(), self.n_ranks as f64),
            (
                "migrated_particles".into(),
                self.sim.migrated_total() as f64,
            ),
            ("comm_messages".into(), stats.messages as f64),
            ("comm_bytes".into(), stats.bytes as f64),
        ]
    }
}

// ---------------------------------------------------------------------
// The public session driver.
// ---------------------------------------------------------------------

/// A running, steppable engine run: owns the solver stack (via a
/// [`BackendSession`]), the unified [`EnergyHistory`], and any attached
/// [`Observer`]s. Create with [`Engine::start`](super::Engine::start) or
/// [`Engine::resume`](super::Engine::resume); consume with
/// [`Session::finish`].
pub struct Session {
    spec: ScenarioSpec,
    backend: Backend,
    inner: Box<dyn BackendSession>,
    history: EnergyHistory,
    observers: Vec<Box<dyn Observer>>,
    started: std::time::Instant,
    wall_offset: f64,
    fault: Option<SessionFault>,
    /// The injected fault rule `(kind, at_step)` of this run, if any.
    inject: Option<(FaultKind, usize)>,
}

impl Session {
    /// `started` is captured by [`Engine::start`](super::Engine::start)
    /// *before* the solver stack is built, so `wall_seconds` keeps
    /// counting construction (particle loading, initial field solve,
    /// model build) exactly as the pre-session `Engine::run` did.
    /// `inject` is the run's injected fault rule `(kind, at_step)`.
    pub(crate) fn new(
        spec: ScenarioSpec,
        backend: Backend,
        inner: Box<dyn BackendSession>,
        started: std::time::Instant,
        inject: Option<(FaultKind, usize)>,
    ) -> Self {
        let history = EnergyHistory::new(spec.tracked_modes.clone());
        Self {
            spec,
            backend,
            inner,
            history,
            observers: Vec::new(),
            started,
            wall_offset: 0.0,
            fault: None,
            inject,
        }
    }

    /// Attaches run monitors; each one's `on_start` hook fires
    /// immediately.
    // analyze:allow(pub-reach): the session-monitor contract tests/{engine,session,ensemble}_api.rs pin
    pub fn attach_observers(&mut self, observers: Vec<Box<dyn Observer>>) {
        for mut observer in observers {
            observer.on_start(&self.spec, &self.backend);
            self.observers.push(observer);
        }
    }

    /// The scenario this session runs.
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    /// The backend driving it.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Identity and size of this session's shared weight allocation —
    /// `Some((id, bytes))` with equal ids meaning one shared allocation,
    /// `None` when the session owns its model (or has none). See
    /// [`BackendSession::weight_storage`].
    pub fn weight_storage(&self) -> Option<(usize, usize)> {
        self.inner.weight_storage()
    }

    /// Current simulation time.
    pub fn time(&self) -> f64 {
        self.inner.time()
    }

    /// Steps performed so far (including steps before a checkpoint for
    /// resumed sessions).
    pub fn steps_done(&self) -> usize {
        self.inner.steps_done()
    }

    /// Steps left until the spec's configured `n_steps`.
    pub fn remaining(&self) -> usize {
        self.spec.n_steps.saturating_sub(self.steps_done())
    }

    /// True once the spec's configured `n_steps` have run.
    pub fn is_complete(&self) -> bool {
        self.remaining() == 0
    }

    /// The rows recorded so far.
    pub fn history(&self) -> &EnergyHistory {
        &self.history
    }

    /// Why this session was quarantined, when it was (see the module
    /// docs' supervision paragraph); a quarantined session never steps
    /// again.
    pub fn fault(&self) -> Option<&SessionFault> {
        self.fault.as_ref()
    }

    /// Quarantines the session unless it already is (the ensemble records
    /// the panic of a cohort member's own one-row inference this way).
    pub(crate) fn set_fault(&mut self, fault: SessionFault) {
        self.fault.get_or_insert(fault);
    }

    /// `Err` carrying the fault once the session is quarantined: how a
    /// driver that owes its caller a whole run ([`super::Engine::run`],
    /// [`super::compare::lockstep`]) reports it.
    pub(crate) fn ensure_healthy(&self) -> Result<(), EngineError> {
        match &self.fault {
            Some(fault) => Err(EngineError::Quarantined(fault.clone())),
            None => Ok(()),
        }
    }

    /// Runs one stepping phase with panics contained: a panic quarantines
    /// the session as [`SessionFault::Panicked`]. `None` when the session
    /// is quarantined, before the call (the phase does not run) or by it.
    fn contain<R>(&mut self, phase: impl FnOnce(&mut Self) -> R) -> Option<R> {
        if self.fault.is_some() {
            return None;
        }
        match contained(|| phase(self)) {
            Ok(r) => Some(r),
            Err(message) => {
                self.fault = Some(SessionFault::Panicked { message });
                None
            }
        }
    }

    /// The row check, over rows `from..` of the history: at the first
    /// non-finite row, that row and everything after it are dropped and
    /// the session is quarantined as [`SessionFault::Diverged`] — the
    /// preserved partial history is entirely finite, so it survives a
    /// JSON round-trip (non-finite numbers serialize as `null`). Returns
    /// whether the session is healthy.
    fn check_rows(&mut self, from: usize) -> bool {
        if let Some((step, diagnostic)) = health::first_non_finite(&self.history, from) {
            self.history.truncate(step);
            self.set_fault(SessionFault::Diverged { step, diagnostic });
        }
        self.fault.is_none()
    }

    /// The row check over the row of the step just completed.
    fn check_last_row(&mut self) -> bool {
        self.check_rows(self.history.len().saturating_sub(1))
    }

    /// Instantaneous diagnostics of the current state without advancing
    /// or recording — the row [`Self::finish`] would append right now.
    pub fn sample(&mut self) -> Sample {
        self.inner.sample()
    }

    /// Advances one step; records and returns the step's diagnostics row,
    /// streaming it to the attached observers. Stepping past the spec's
    /// `n_steps` is permitted (the summary reports the count that ran).
    /// `None` when the session is quarantined — already, or by this step's
    /// panic or non-finite row (see the module docs).
    pub fn step(&mut self) -> Option<Sample> {
        let sample = self.step_with(|inner| inner.step())?;
        self.check_last_row().then_some(sample)
    }

    /// The injected fault kind due at the current step, if any.
    fn injected(&self) -> Option<FaultKind> {
        self.inject
            .filter(|&(_, at_step)| at_step == self.inner.steps_done())
            .map(|(kind, _)| kind)
    }

    /// One step through `advance` (a whole step or its first phase),
    /// contained: an injected `Panic` due at this step fires before it,
    /// an injected `NanField` poisons the row it returns (the row of step
    /// `at_step`), and the row is recorded — observers included, so a
    /// panicking observer quarantines the session too.
    fn step_with(
        &mut self,
        advance: impl FnOnce(&mut dyn BackendSession) -> Sample,
    ) -> Option<Sample> {
        let injected = self.injected();
        self.contain(|session| {
            if injected == Some(FaultKind::Panic) {
                panic!("injected fault: panic at step {}", session.steps_done());
            }
            let mut sample = advance(session.inner.as_mut());
            if injected == Some(FaultKind::NanField) {
                sample.field = f64::NAN;
            }
            session.record(sample)
        })
    }

    /// The one place a row is recorded: appended to the history and
    /// streamed to the observers.
    fn record(&mut self, sample: Sample) -> Sample {
        self.history.push(&sample);
        for obs in &mut self.observers {
            obs.on_sample(&sample);
        }
        sample
    }

    /// `(input, output)` row widths of this session's batched-inference
    /// phases, or `None` when its field solve cannot be split (non-DL
    /// backends). See [`Self::step_prepare`].
    pub fn batched_infer_shape(&mut self) -> Option<(usize, usize)> {
        self.inner.infer_shape()
    }

    /// Phase 1 of a split step (see
    /// [`BackendSession::step_prepare`]): advances everything up to the
    /// field-solve inference, writes the inference input into `input`,
    /// and records/streams the step's diagnostics row exactly as
    /// [`Self::step`] would. Must be completed with [`Self::step_apply`],
    /// which checks the row; the ensemble scheduler pairs them around one
    /// batched [`Self::infer_batch`] shared by a whole cohort of sessions.
    /// `None` when the session is quarantined, already or by a panic here.
    pub fn step_prepare(&mut self, input: &mut [f32]) -> Option<Sample> {
        self.step_with(|inner| inner.step_prepare(input))
    }

    /// Phase 2 of a split step: one inference over `rows` stacked input
    /// rows through this session's solver. The ensemble calls this on
    /// one cohort member for the whole batch, and contains it itself: a
    /// panic of the shared batch must not blame its leader.
    pub fn infer_batch(&mut self, input: &[f32], rows: usize, output: &mut [f32]) {
        if self.injected() == Some(FaultKind::InferPanic) {
            panic!(
                "injected fault: inference panic at step {}",
                self.inner.steps_done()
            );
        }
        self.inner.infer_batch(input, rows, output);
    }

    /// Phase 3 of a split step: applies this session's output row,
    /// completes the step begun by [`Self::step_prepare`] and checks its
    /// row. `true` when the step completed and the session is healthy;
    /// `false` when it is quarantined, already or by this phase.
    pub fn step_apply(&mut self, output: &[f32]) -> bool {
        self.contain(|session| session.inner.step_apply(output))
            .is_some()
            && self.check_last_row()
    }

    /// Runs until the spec's `n_steps` have completed.
    pub fn run_to_end(&mut self) {
        self.run_until(|_| false);
    }

    /// The early-stop controller: steps until `stop` returns `true` for a
    /// recorded sample, the spec's `n_steps` complete or the session is
    /// quarantined, whichever comes first. Returns whether the predicate
    /// fired.
    ///
    /// The loop holds the worker team ([`pool::Team::hold`]): a DL step
    /// dispatches its inference's column windows, and the hold keeps the
    /// helper polling through the serial binning and push between one
    /// step's inference and the next instead of parking.
    pub fn run_until(&mut self, mut stop: impl FnMut(&Sample) -> bool) -> bool {
        let _hold = pool::team().hold();
        while !self.is_complete() {
            let Some(sample) = self.step() else {
                return false;
            };
            if stop(&sample) {
                return true;
            }
        }
        false
    }

    /// Records the final snapshot row and yields the run summary
    /// (`steps_done + 1` samples — identical to [`super::Engine::run`]'s output
    /// for a full-length run, truncated-but-consistent after an early
    /// stop).
    pub fn finish(mut self) -> RunSummary {
        // A faulted session's solver is never advanced or sampled again:
        // a panicked stack may be mid-step, and a diverged one would only
        // append more garbage. Its summary is built from the rows already
        // recorded — the preserved partial history.
        if self.fault.is_none() {
            let final_sample = self.inner.sample();
            self.record(final_sample);
        }
        let summary = RunSummary {
            scenario: self.spec.name.clone(),
            backend: self.backend.to_string(),
            dim: self.spec.dim(),
            steps: self.inner.steps_done(),
            t_end: self.history.times.last().copied().unwrap_or(0.0),
            phase_space: if self.fault.is_none() {
                self.inner.phase_space()
            } else {
                None
            },
            history: self.history,
            wall_seconds: self.wall_offset + self.started.elapsed().as_secs_f64(),
            extras: self.inner.extras(),
        };
        for obs in &mut self.observers {
            obs.on_finish(&summary);
        }
        summary
    }

    /// Serializes the session — spec, backend, recorded history, wall
    /// clock and the backend's mutable solver state — into a [`Checkpoint`]
    /// that [`Engine::resume`](super::Engine::resume) can continue from.
    /// Finite `f64` state round-trips bit-exactly through the JSON text.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            spec: self.spec.clone(),
            backend: self.backend,
            steps_done: self.inner.steps_done(),
            time: self.inner.time(),
            wall_seconds: self.wall_offset + self.started.elapsed().as_secs_f64(),
            history: self.history.clone(),
            state: self.inner.state_checkpoint(),
        }
    }

    /// Restores a checkpoint into this freshly started session (the
    /// [`Engine::resume`](super::Engine::resume) back half).
    pub(crate) fn restore(&mut self, checkpoint: &Checkpoint) -> Result<(), EngineError> {
        self.inner.restore(&checkpoint.state)?;
        if self.inner.steps_done() != checkpoint.steps_done {
            return Err(bad_checkpoint(format!(
                "state says {} steps but the checkpoint header says {}",
                self.inner.steps_done(),
                checkpoint.steps_done
            )));
        }
        if self.inner.time().to_bits() != checkpoint.time.to_bits() {
            return Err(bad_checkpoint(format!(
                "state says t = {} but the checkpoint header says t = {}",
                self.inner.time(),
                checkpoint.time
            )));
        }
        // One row per completed step: a diverged run's checkpoint lacks
        // its discarded bad row, and would resume one step off.
        if checkpoint.history.len() != checkpoint.steps_done {
            return Err(bad_checkpoint(format!(
                "checkpoint holds {} history rows for {} steps (a quarantined run)",
                checkpoint.history.len(),
                checkpoint.steps_done
            )));
        }
        if checkpoint.history.tracked_modes != self.spec.tracked_modes {
            return Err(bad_checkpoint(
                "checkpoint history tracks different modes than the spec",
            ));
        }
        self.history = checkpoint.history.clone();
        self.wall_offset = checkpoint.wall_seconds;
        // The restored rows pass the same check as a step's: a checkpoint
        // holding a non-finite row resumes quarantined, never silently.
        self.check_rows(0);
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Checkpoints.
// ---------------------------------------------------------------------

const CHECKPOINT_FORMAT: &str = "dlpic-session-checkpoint";
const CHECKPOINT_VERSION: f64 = 1.0;

/// A serialized mid-run session: the spec and backend to rebuild the
/// solver stack, the mutable solver state to restore into it, and the
/// history recorded so far. Produced by [`Session::checkpoint`], consumed
/// by [`Engine::resume`](super::Engine::resume); persists as JSON via
/// [`Checkpoint::to_json`]/[`Checkpoint::from_json`].
#[derive(Clone)]
pub struct Checkpoint {
    /// The scenario of the checkpointed run.
    pub spec: ScenarioSpec,
    /// The backend that was driving it.
    pub backend: Backend,
    /// Steps performed up to the checkpoint.
    pub steps_done: usize,
    /// Simulation time at the checkpoint.
    pub time: f64,
    /// Wall-clock seconds accumulated up to the checkpoint (carried into
    /// the resumed run's summary).
    pub wall_seconds: f64,
    /// Diagnostics rows recorded up to the checkpoint.
    pub history: EnergyHistory,
    state: Json,
}

impl Checkpoint {
    /// Serializes to a JSON document.
    pub fn to_json(&self) -> String {
        obj(vec![
            ("format", Json::Str(CHECKPOINT_FORMAT.into())),
            ("version", Json::Num(CHECKPOINT_VERSION)),
            ("scenario", self.spec.to_json_value()),
            ("backend", Json::Str(self.backend.to_string())),
            ("steps_done", Json::Num(self.steps_done as f64)),
            ("time", Json::Num(self.time)),
            ("wall_seconds", Json::Num(self.wall_seconds)),
            ("history", self.history.to_json_value()),
            ("state", self.state.clone()),
        ])
        .to_pretty()
    }

    /// Writes the checkpoint to `path` atomically: the document goes to a
    /// sibling `<path>.tmp` first and is renamed into place, so readers
    /// (and a crash mid-write) never observe a torn file. The server
    /// spool relies on this; `examples/saturation.rs` shows the
    /// single-run form.
    pub fn write_file(&self, path: impl AsRef<std::path::Path>) -> Result<(), EngineError> {
        let path = path.as_ref();
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        std::fs::write(&tmp, self.to_json())?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Reads a checkpoint written by [`Self::write_file`] (or any
    /// [`Self::to_json`] document on disk).
    pub fn read_file(path: impl AsRef<std::path::Path>) -> Result<Self, EngineError> {
        Self::from_json(&std::fs::read_to_string(path)?)
    }

    /// Parses a document produced by [`Self::to_json`].
    pub fn from_json(text: &str) -> Result<Self, EngineError> {
        let doc = Json::parse(text)?;
        let format = doc.field("format")?.as_str()?;
        if format != CHECKPOINT_FORMAT {
            return Err(bad_checkpoint(format!(
                "not a session checkpoint (format `{format}`)"
            )));
        }
        let version = doc.field("version")?.as_f64()?;
        if version != CHECKPOINT_VERSION {
            return Err(bad_checkpoint(format!(
                "unsupported checkpoint version {version}"
            )));
        }
        let backend_name = doc.field("backend")?.as_str()?;
        let backend = Backend::parse(backend_name)
            .ok_or_else(|| bad_checkpoint(format!("unknown backend `{backend_name}`")))?;
        Ok(Self {
            spec: ScenarioSpec::from_json_value(doc.field("scenario")?)?,
            backend,
            steps_done: doc.field("steps_done")?.as_usize()?,
            time: doc.field("time")?.as_f64()?,
            wall_seconds: doc.field("wall_seconds")?.as_f64()?,
            history: EnergyHistory::from_json_value(doc.field("history")?)?,
            state: doc.field("state")?.clone(),
        })
    }
}
