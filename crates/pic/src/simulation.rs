//! The PIC computational cycle (paper Figs. 1–2).
//!
//! [`Simulation`] owns the particle state, the grid fields and a pluggable
//! [`FieldSolver`]. With a [`crate::solver::TraditionalSolver`] it is the paper's baseline
//! method; with the DL solver from `dlpic-core` it is the paper's DL-based
//! PIC — mover, gather and diagnostics are shared, exactly as in the
//! paper's design where only the grey boxes of Fig. 2 change.
//!
//! The cycle is written once over a [`Geometry`]: `Simulation` (the
//! parameter defaults to [`Grid1D`]) is the paper's 1-D system,
//! `Simulation<Grid2D>` the §VII two-dimensional one, and both run this
//! file's loop over their own dimension's kernels.
//!
//! ## Stepping and diagnostics convention
//!
//! Velocities are staggered half a step behind positions (leap-frog). Each
//! [`Simulation::step`] records diagnostics for the time level `tⁿ` at
//! which it *starts*:
//!
//! * field energy from `Eⁿ`,
//! * kinetic energy from the time-centred product `½m·Σ v^{n-1/2}·v^{n+1/2}`,
//! * momentum right after the velocity push.
//!
//! [`Simulation::run`] appends one final snapshot (instantaneous kinetic
//! energy) at `t_end`, so a 200-step run yields 201 samples.

use crate::diagnostics::EnergyReport;
use crate::geometry::Geometry;
use crate::grid::Grid1D;
use crate::history::{History, SampleRow};
use crate::init::TwoStreamInit;
use crate::shape::Shape;
use crate::solver::FieldSolver;

/// Full configuration of a PIC run.
#[derive(Debug, Clone)]
pub struct PicConfig<G: Geometry = Grid1D> {
    /// The periodic field grid.
    pub grid: G,
    /// Two-stream initial condition. Required by [`Simulation::new`];
    /// `None` for runs that bring their own particle load through
    /// [`Simulation::from_particles`] (e.g. bump-on-tail, which
    /// [`TwoStreamInit`] cannot express).
    pub init: Option<G::Init>,
    /// Time step.
    pub dt: f64,
    /// Number of steps a [`Simulation::run`] performs.
    pub n_steps: usize,
    /// Shape function used to gather E to the particles (the solver has its
    /// own deposition shape; keep them equal for momentum conservation).
    pub gather_shape: Shape,
    /// Field modes whose amplitudes are recorded each step (e.g. `[1, 2]`;
    /// `(mx, my)` modes of `Ex` in 2-D).
    pub tracked_modes: Vec<G::Mode>,
}

/// A running PIC simulation (traditional or DL-based, depending on the
/// injected field solver).
pub struct Simulation<G: Geometry = Grid1D> {
    cfg: PicConfig<G>,
    particles: G::Particles,
    solver: Box<dyn FieldSolver<G>>,
    /// The node field, components stacked (see [`Geometry::FIELD_NAMES`]).
    e: Vec<f64>,
    history: History<G::Mode>,
    amps_scratch: Vec<f64>,
    time: f64,
    steps_done: usize,
}

/// Amplitudes of the tracked modes of `e`, in tracking order.
fn mode_amps<'a, G: Geometry>(
    cfg: &'a PicConfig<G>,
    e: &'a [f64],
) -> impl Iterator<Item = f64> + 'a {
    cfg.tracked_modes
        .iter()
        .map(move |&m| cfg.grid.mode_amplitude(e, m))
}

impl<G: Geometry> Simulation<G> {
    /// Initializes the simulation: loads particles, performs the initial
    /// field solve and sets up the leap-frog stagger.
    ///
    /// # Panics
    /// Panics if `cfg.init` is `None`; bring-your-own-load runs go through
    /// [`Self::from_particles`].
    pub fn new(cfg: PicConfig<G>, solver: Box<dyn FieldSolver<G>>) -> Self {
        let init = cfg
            .init
            .as_ref()
            .expect("PicConfig.init is required by Simulation::new");
        let particles = cfg.grid.load(init);
        Self::from_particles(cfg, particles, solver)
    }

    /// Initializes from an already-built particle load — the
    /// bring-your-own-loading entry point used by `dlpic_repro::engine` for
    /// species (e.g. bump-on-tail) that [`TwoStreamInit`] cannot express.
    /// `cfg.init` is not consulted (and is typically `None`).
    pub fn from_particles(
        cfg: PicConfig<G>,
        particles: G::Particles,
        solver: Box<dyn FieldSolver<G>>,
    ) -> Self {
        let mut history = History::new(cfg.tracked_modes.clone());
        // One sample per step plus the final snapshot: reserving up front
        // keeps the per-step path free of reallocation.
        history.reserve(cfg.n_steps + 1);
        let mut sim = Self {
            e: vec![0.0; G::FIELD_NAMES.len() * cfg.grid.nodes()],
            history,
            amps_scratch: Vec::with_capacity(cfg.tracked_modes.len()),
            particles,
            solver,
            time: 0.0,
            steps_done: 0,
            cfg,
        };
        // E⁰ from the initial particle state.
        sim.solver.solve(&sim.particles, &sim.cfg.grid, &mut sim.e);
        // v⁰ → v^{-1/2}.
        sim.cfg
            .grid
            .half_step_back(&mut sim.particles, sim.cfg.gather_shape, &sim.e, sim.cfg.dt);
        sim
    }

    /// Advances one step and records diagnostics for the starting time
    /// level (see module docs).
    pub fn step(&mut self) {
        self.step_pre_solve();
        self.solver
            .solve(&self.particles, &self.cfg.grid, &mut self.e);
        self.step_post_solve();
    }

    /// The first half of a split step: diagnostics for the starting time
    /// level, the fused particle push, and the history row — everything
    /// [`Self::step`] does *before* the field solve. An external driver
    /// (the engine's ensemble scheduler) then performs the solve itself
    /// through [`Self::split_for_solve`] — possibly batching the DL
    /// inference of many simulations — and completes the step with
    /// [`Self::step_post_solve`]. The
    /// pre-solve → solve → post-solve sequence is exactly [`Self::step`].
    pub fn step_pre_solve(&mut self) {
        let grid = &self.cfg.grid;

        // Diagnostics tied to tⁿ: field energy and mode amplitudes of Eⁿ.
        let fe = grid.field_energy(&self.e);
        self.amps_scratch.clear();
        self.amps_scratch.extend(mode_amps(&self.cfg, &self.e));

        // Fused gather → velocity push → position push: one pass over the
        // particles, arithmetically identical to the unfused pipeline
        // (gather_field + push_velocities + push_positions).
        let moments = grid.fused_push(
            &mut self.particles,
            self.cfg.gather_shape,
            &self.e,
            self.cfg.dt,
        );

        self.history.push(
            self.time,
            EnergyReport {
                kinetic: moments.centred_kinetic,
                field: fe,
                momentum: moments.momentum,
                momentum_y: moments.momentum_y,
            },
            &self.amps_scratch,
        );
    }

    /// The second half of a split step: advances the clock and step
    /// counter. Call only after [`Self::step_pre_solve`] and the external
    /// field solve.
    pub fn step_post_solve(&mut self) {
        self.time += self.cfg.dt;
        self.steps_done += 1;
    }

    /// Disjoint borrows of the pieces an external field solve needs
    /// (between [`Self::step_pre_solve`] and [`Self::step_post_solve`]):
    /// the injected solver, the pushed particle state, the grid, and the
    /// field buffer to fill.
    pub fn split_for_solve(&mut self) -> (&mut dyn FieldSolver<G>, &G::Particles, &G, &mut [f64]) {
        (
            self.solver.as_mut(),
            &self.particles,
            &self.cfg.grid,
            &mut self.e,
        )
    }

    /// Runs the configured number of steps and appends a final snapshot at
    /// `t_end`.
    pub fn run(&mut self) {
        for _ in 0..self.cfg.n_steps {
            self.step();
        }
        self.finish();
    }

    /// Appends the final diagnostics snapshot (instantaneous kinetic
    /// energy) at the current time. [`Self::run`] calls this after its
    /// steps; external drivers that call [`Self::step`] themselves (the
    /// engine facade, benchmarks) call it once at the end to reproduce the
    /// `n + 1`-sample convention.
    pub fn finish(&mut self) {
        let report = self.cfg.grid.instantaneous_report(&self.particles, &self.e);
        self.amps_scratch.clear();
        self.amps_scratch.extend(mode_amps(&self.cfg, &self.e));
        self.history.push(self.time, report, &self.amps_scratch);
    }

    /// Instantaneous diagnostics of the current state — the row
    /// [`Self::finish`] would record right now — without recording it.
    pub fn sample(&self) -> SampleRow {
        let report = self.cfg.grid.instantaneous_report(&self.particles, &self.e);
        SampleRow {
            time: self.time,
            kinetic: report.kinetic,
            field: report.field,
            momentum: report.momentum,
            mode_amps: mode_amps(&self.cfg, &self.e).collect(),
        }
    }

    /// Current simulation time.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Steps taken so far.
    pub fn steps_done(&self) -> usize {
        self.steps_done
    }

    /// The particle state.
    pub fn particles(&self) -> &G::Particles {
        &self.particles
    }

    /// The current node electric field, components stacked (`[E]` in 1-D,
    /// `[Ex | Ey]` in 2-D).
    pub fn efield(&self) -> &[f64] {
        &self.e
    }

    /// The field grid.
    pub fn grid(&self) -> &G {
        &self.cfg.grid
    }

    /// The run configuration.
    pub fn config(&self) -> &PicConfig<G> {
        &self.cfg
    }

    /// Accumulated diagnostics history.
    pub fn history(&self) -> &History<G::Mode> {
        &self.history
    }

    /// Name of the injected field solver ("traditional", "dl-mlp", ...).
    pub fn solver_name(&self) -> &'static str {
        self.solver.name()
    }

    /// The injected field solver.
    pub fn solver(&self) -> &dyn FieldSolver<G> {
        self.solver.as_ref()
    }

    /// Phase-space snapshot `(x, v)` — the scatter data of the paper's
    /// Figs. 4/6 top panels (the `(x, vx)` projection in 2-D).
    pub fn phase_space(&self) -> (&[f64], &[f64]) {
        let columns = G::columns(&self.particles);
        (columns[0].1, columns[columns.len() / 2].1)
    }

    /// Overwrites the mutable state with a checkpointed snapshot: particle
    /// phase space (one slice per [`Geometry::columns`] entry, in that
    /// order; velocities at their staggered `v^{n−1/2}` level — no
    /// leap-frog set-up is re-applied), the stacked grid field, clock and
    /// step counter. The internal diagnostics history is *not* rewound; a
    /// restored simulation records from the restore point onward, and
    /// external drivers (the engine's sessions) keep the authoritative
    /// pre-restore record.
    ///
    /// # Panics
    /// Panics if the buffer lengths do not match the simulation's particle
    /// count or grid.
    pub fn restore_state(&mut self, columns: &[Vec<f64>], e: &[f64], time: f64, steps_done: usize) {
        let mut state = G::columns_mut(&mut self.particles);
        assert_eq!(columns.len(), state.len(), "particle column mismatch");
        assert!(
            columns.iter().zip(&state).all(|(c, s)| c.len() == s.len()),
            "particle count mismatch"
        );
        assert_eq!(e.len(), self.e.len(), "grid size mismatch");
        for (dst, src) in state.iter_mut().zip(columns) {
            dst.copy_from_slice(src);
        }
        self.e.copy_from_slice(e);
        self.time = time;
        self.steps_done = steps_done;
    }
}

/// Convenience: builds a two-stream config with the paper's grid and
/// standard numerical parameters but a custom particle count.
// analyze:allow(pub-reach): the paper-grid config tests/pic_generic.rs and tests/growth_rate.rs pin the 1-D driver with
pub fn two_stream_config(init: TwoStreamInit, n_steps: usize) -> PicConfig {
    PicConfig {
        grid: Grid1D::paper(),
        init: Some(init),
        dt: crate::constants::PAPER_DT,
        n_steps,
        gather_shape: Shape::Cic,
        tracked_modes: vec![1, 2, 3],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::TraditionalSolver;

    fn small_sim(v0: f64, vth: f64, n_steps: usize) -> Simulation {
        let init = TwoStreamInit::random(v0, vth, 6_400, 42);
        let cfg = two_stream_config(init, n_steps);
        Simulation::new(cfg, Box::new(TraditionalSolver::paper_default()))
    }

    #[test]
    fn run_records_expected_sample_count() {
        let mut sim = small_sim(0.2, 0.0, 10);
        sim.run();
        assert_eq!(sim.history().len(), 11);
        assert_eq!(sim.steps_done(), 10);
        assert!((sim.time() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn momentum_conserved_by_traditional_method() {
        let mut sim = small_sim(0.2, 0.0, 50);
        sim.run();
        let p = &sim.history().momentum;
        let drift = dlpic_analytics::stats::max_drift(p);
        // CIC gather+deposit: momentum conserved to rounding noise.
        assert!(drift < 1e-10, "momentum drift {drift}");
    }

    #[test]
    fn energy_bounded_over_short_run() {
        let mut sim = small_sim(0.2, 0.0, 50);
        sim.run();
        let var = dlpic_analytics::stats::relative_variation(&sim.history().total);
        assert!(var < 0.05, "energy variation {var}");
    }

    #[test]
    fn particles_stay_in_box() {
        let mut sim = small_sim(0.3, 0.01, 30);
        sim.run();
        let (x, _) = sim.phase_space();
        let l = sim.grid().length();
        for &xi in x {
            assert!((0.0..l).contains(&xi), "escaped particle at {xi}");
        }
    }

    #[test]
    fn fields_stay_finite() {
        let mut sim = small_sim(0.2, 0.025, 60);
        sim.run();
        assert!(sim.efield().iter().all(|v| v.is_finite()));
        assert!(sim.history().total.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn two_stream_mode_one_grows() {
        // The physics smoke test: E1 must grow by orders of magnitude.
        let mut sim = small_sim(0.2, 0.0, 120);
        sim.run();
        let e1 = sim.history().mode_series(1).unwrap();
        let start = e1.values[0].max(1e-12);
        let peak = e1.values.iter().copied().fold(0.0f64, f64::max);
        // At 6 400 particles the shot-noise floor is ~1e-2, so saturation
        // (~0.15) is roughly a decade above it; paper-scale runs (64 000
        // particles) have far more headroom and are covered by the
        // integration tests.
        assert!(
            peak / start > 8.0,
            "instability did not develop: start {start}, peak {peak}"
        );
    }

    #[test]
    fn tsc_cycle_conserves_momentum_and_stays_stable() {
        // The higher-order path through the full cycle (gather + deposit
        // both TSC).
        let init = TwoStreamInit::random(0.2, 0.01, 6_400, 8);
        let mut cfg = two_stream_config(init, 60);
        cfg.gather_shape = crate::shape::Shape::Tsc;
        let solver = crate::solver::TraditionalSolver::new(
            crate::shape::Shape::Tsc,
            crate::solver::PoissonKind::Spectral,
            1.0,
        );
        let mut sim = Simulation::new(cfg, Box::new(solver));
        sim.run();
        let drift = dlpic_analytics::stats::max_drift(&sim.history().momentum);
        assert!(drift < 1e-10, "TSC momentum drift {drift}");
        let var = dlpic_analytics::stats::relative_variation(&sim.history().total);
        assert!(var < 0.05, "TSC energy variation {var}");
    }

    #[test]
    fn solver_name_is_exposed() {
        let sim = small_sim(0.2, 0.0, 1);
        assert_eq!(sim.solver_name(), "traditional");
    }
}
