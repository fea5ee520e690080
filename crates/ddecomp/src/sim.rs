//! The distributed PIC driver: a bulk-synchronous step loop over all
//! ranks with every inter-rank transfer routed through the [`Fabric`].
//!
//! Physics-wise this is exactly the 1-D `Simulation` of `dlpic-pic` — the
//! same leap-frog stagger, the same diagnostics conventions (an `n`-step
//! run records `n + 1` samples, kinetic energy time-centred) — so its
//! results are directly comparable to the single-process baseline, which
//! the integration tests exploit.

use crate::comm::{CommStats, Fabric};
use crate::halo::{ext_len, HALO};
use crate::migrate::{recv_arrivals, send_leavers};
use crate::strategy::DistFieldStrategy;
use crate::topology::Topology;
use dlpic_analytics::dft;
use dlpic_pic::diagnostics::EnergyReport;
use dlpic_pic::grid::Grid1D;
use dlpic_pic::history::History;
use dlpic_pic::init::TwoStreamInit;
use dlpic_pic::mover::{half_step_back, push_positions, push_velocities};
use dlpic_pic::particles::Particles;
use dlpic_pic::shape::Shape;

/// Per-rank simulation state.
pub struct RankState {
    /// This rank's id.
    pub rank: usize,
    /// The locally owned particles.
    pub particles: Particles,
    /// Extended charge-density slab (owned nodes + [`HALO`] each side).
    pub rho_ext: Vec<f64>,
    /// Extended electric-field slab (owned nodes + [`HALO`] ghosts).
    pub e_ext: Vec<f64>,
    /// Local phase-space histogram scratch (DL strategy).
    pub hist: Vec<f32>,
    /// Per-particle gathered field scratch.
    e_part: Vec<f64>,
}

impl RankState {
    /// Creates the state for `rank` holding `particles`.
    pub fn new(rank: usize, particles: Particles, topo: &Topology) -> Self {
        let len = ext_len(topo);
        Self {
            rank,
            particles,
            rho_ext: vec![0.0; len],
            e_ext: vec![0.0; len],
            hist: Vec::new(),
            e_part: Vec::new(),
        }
    }
}

/// Gathers the extended-slab field at this rank's particle positions
/// (the distributed counterpart of `dlpic_pic::gather::gather_field`).
///
/// # Panics
/// Panics on buffer-size mismatches; debug-asserts slab ownership.
fn gather_local(
    particles: &Particles,
    grid: &Grid1D,
    topo: &Topology,
    rank: usize,
    shape: Shape,
    e_ext: &[f64],
    e_part: &mut [f64],
) {
    assert_eq!(e_ext.len(), ext_len(topo), "extended field length mismatch");
    assert_eq!(
        e_part.len(),
        particles.len(),
        "per-particle buffer mismatch"
    );
    let inv_dx = 1.0 / grid.dx();
    let start = topo.slab_start(rank) as i64;
    let support = shape.support();

    for (i, &x) in particles.x.iter().enumerate() {
        let a = shape.assign(x * inv_dx);
        let local = a.leftmost - start + HALO as i64;
        debug_assert!(
            local >= 0 && local + support as i64 <= e_ext.len() as i64,
            "particle at x = {x} gathers outside rank {rank}'s extended slab"
        );
        let mut acc = 0.0;
        for (k, &w) in a.w[..support].iter().enumerate() {
            acc += w * e_ext[(local + k as i64) as usize];
        }
        e_part[i] = acc;
    }
}

/// Full configuration of a distributed run.
#[derive(Debug, Clone)]
pub struct DistConfig {
    /// The global periodic grid.
    pub grid: Grid1D,
    /// Two-stream initial condition (built globally, scattered by
    /// position).
    pub init: TwoStreamInit,
    /// Time step.
    pub dt: f64,
    /// Number of steps a [`DistSimulation::run`] performs.
    pub n_steps: usize,
    /// Shape used to gather E to the particles.
    pub gather_shape: Shape,
    /// Number of ranks (must divide the cell count).
    pub n_ranks: usize,
    /// Field modes whose amplitudes are recorded each step.
    pub tracked_modes: Vec<usize>,
}

/// A running distributed PIC simulation.
pub struct DistSimulation {
    cfg: DistConfig,
    topo: Topology,
    fabric: Fabric,
    states: Vec<RankState>,
    strategy: Box<dyn DistFieldStrategy>,
    history: History,
    /// Global E reassembled each step for diagnostics (not counted as
    /// traffic: a production code samples diagnostics sparsely and they
    /// are identical for both strategies).
    e_diag: Vec<f64>,
    migrated_total: u64,
    time: f64,
    steps_done: usize,
}

impl DistSimulation {
    /// Initializes the distributed run: builds the global particle load,
    /// scatters it by position, performs the initial field solve and sets
    /// up the leap-frog stagger on every rank.
    ///
    /// # Panics
    /// Panics if the rank count does not divide the cell count, or the
    /// slabs are narrower than the halo.
    pub fn new(cfg: DistConfig, strategy: Box<dyn DistFieldStrategy>) -> Self {
        let topo = Topology::new(cfg.n_ranks, cfg.grid.ncells());
        assert!(
            topo.cells_per_rank() >= 2 * HALO,
            "slabs must be at least {} cells wide",
            2 * HALO
        );
        let fabric = Fabric::new(cfg.n_ranks);

        // Build globally, scatter by position — same load as the
        // single-process baseline.
        let global = cfg.init.build(&cfg.grid);
        let (q, m) = (global.charge(), global.mass());
        let mut xs: Vec<Vec<f64>> = vec![Vec::new(); cfg.n_ranks];
        let mut vs: Vec<Vec<f64>> = vec![Vec::new(); cfg.n_ranks];
        for (&x, &v) in global.x.iter().zip(&global.v) {
            let owner = topo.rank_of_position(x, &cfg.grid);
            xs[owner].push(x);
            vs[owner].push(v);
        }
        let states: Vec<RankState> = xs
            .into_iter()
            .zip(vs)
            .enumerate()
            .map(|(rank, (x, v))| RankState::new(rank, Particles::new(x, v, q, m), &topo))
            .collect();

        let mut sim = Self {
            history: History::new(cfg.tracked_modes.clone()),
            e_diag: cfg.grid.zeros(),
            topo,
            fabric,
            states,
            strategy,
            migrated_total: 0,
            time: 0.0,
            steps_done: 0,
            cfg,
        };

        // E⁰ and the v⁰ → v^{-1/2} stagger.
        sim.strategy
            .solve(&mut sim.states, &sim.cfg.grid, &sim.topo, &mut sim.fabric);
        for state in sim.states.iter_mut() {
            state.e_part.resize(state.particles.len(), 0.0);
            gather_local(
                &state.particles,
                &sim.cfg.grid,
                &sim.topo,
                state.rank,
                sim.cfg.gather_shape,
                &state.e_ext,
                &mut state.e_part,
            );
            half_step_back(&mut state.particles, &state.e_part, sim.cfg.dt);
        }
        sim
    }

    /// Advances one step, recording diagnostics for the starting time
    /// level (identical conventions to the single-process simulation).
    pub fn step(&mut self) {
        let grid = self.cfg.grid.clone();
        let dt = self.cfg.dt;

        // Diagnostics on Eⁿ from the reassembled global field.
        self.assemble_diag_field();
        let fe = dlpic_pic::efield::field_energy(&grid, &self.e_diag);
        let amps: Vec<f64> = self
            .cfg
            .tracked_modes
            .iter()
            .map(|&m| dft::mode_amplitude(&self.e_diag, m))
            .collect();

        // Gather + velocity push on every rank.
        let mut kinetic = 0.0;
        let mut momentum = 0.0;
        for state in self.states.iter_mut() {
            state.e_part.resize(state.particles.len(), 0.0);
            gather_local(
                &state.particles,
                &grid,
                &self.topo,
                state.rank,
                self.cfg.gather_shape,
                &state.e_ext,
                &mut state.e_part,
            );
            kinetic += push_velocities(&mut state.particles, &state.e_part, dt);
            momentum += state.particles.total_momentum();
        }

        self.history.push(
            self.time,
            EnergyReport {
                kinetic,
                field: fe,
                momentum,
                momentum_y: None,
            },
            &amps,
        );

        // Position push + migration.
        for state in self.states.iter_mut() {
            push_positions(&mut state.particles, &grid, dt);
        }
        for state in self.states.iter_mut() {
            self.migrated_total += send_leavers(
                state.rank,
                &mut state.particles,
                &grid,
                &self.topo,
                &mut self.fabric,
            ) as u64;
        }
        for state in self.states.iter_mut() {
            recv_arrivals(state.rank, &mut state.particles, &mut self.fabric);
        }

        // Field solve for E^{n+1}.
        self.strategy
            .solve(&mut self.states, &grid, &self.topo, &mut self.fabric);

        self.time += dt;
        self.steps_done += 1;
    }

    /// Runs the configured number of steps and appends a final snapshot.
    pub fn run(&mut self) {
        for _ in 0..self.cfg.n_steps {
            self.step();
        }
        self.finish();
    }

    /// Appends the final diagnostics snapshot at the current time.
    /// External step-by-step drivers (the engine facade) call this once at
    /// the end to reproduce the `n + 1`-sample convention of [`Self::run`].
    pub fn finish(&mut self) {
        self.assemble_diag_field();
        let kinetic: f64 = self
            .states
            .iter()
            .map(|s| s.particles.kinetic_energy())
            .sum();
        let momentum: f64 = self
            .states
            .iter()
            .map(|s| s.particles.total_momentum())
            .sum();
        let fe = dlpic_pic::efield::field_energy(&self.cfg.grid, &self.e_diag);
        let amps: Vec<f64> = self
            .cfg
            .tracked_modes
            .iter()
            .map(|&m| dft::mode_amplitude(&self.e_diag, m))
            .collect();
        self.history.push(
            self.time,
            EnergyReport {
                kinetic,
                field: fe,
                momentum,
                momentum_y: None,
            },
            &amps,
        );
    }

    /// Reassembles the global E from the owned slab centers (diagnostics
    /// only; not routed through the fabric).
    fn assemble_diag_field(&mut self) {
        let cpr = self.topo.cells_per_rank();
        for state in &self.states {
            let start = self.topo.slab_start(state.rank);
            self.e_diag[start..start + cpr].copy_from_slice(&state.e_ext[HALO..HALO + cpr]);
        }
    }

    /// The recorded history (same layout as the single-process run).
    pub fn history(&self) -> &History {
        &self.history
    }

    /// Aggregate fabric traffic since the start of the run (includes the
    /// initial field solve).
    pub fn comm_stats(&self) -> CommStats {
        self.fabric.stats()
    }

    /// Per-phase traffic breakdown.
    pub fn comm_phases(&self) -> Vec<(&'static str, CommStats)> {
        self.fabric.phases().collect()
    }

    /// Total particles migrated across ranks so far.
    pub fn migrated_total(&self) -> u64 {
        self.migrated_total
    }

    /// Particles currently held per rank.
    // analyze:allow(pub-reach): the load-balance contract tests/ddecomp_equivalence.rs pins
    pub fn particles_per_rank(&self) -> Vec<usize> {
        self.states.iter().map(|s| s.particles.len()).collect()
    }

    /// The global `(x, v)` phase space concatenated across ranks, in rank
    /// order (diagnostics; the engine facade's final snapshot).
    pub fn phase_space(&self) -> (Vec<f64>, Vec<f64>) {
        let n = self.total_particles();
        let mut x = Vec::with_capacity(n);
        let mut v = Vec::with_capacity(n);
        for state in &self.states {
            x.extend_from_slice(&state.particles.x);
            v.extend_from_slice(&state.particles.v);
        }
        (x, v)
    }

    /// Total particle count (conserved across migration).
    pub fn total_particles(&self) -> usize {
        self.states.iter().map(|s| s.particles.len()).sum()
    }

    /// The rank topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The global field grid.
    pub fn grid(&self) -> &Grid1D {
        &self.cfg.grid
    }

    /// Steps performed so far.
    pub fn steps_done(&self) -> usize {
        self.steps_done
    }

    /// Current simulation time.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// The globally reassembled field from the last diagnostics pass.
    pub fn global_efield(&mut self) -> Vec<f64> {
        self.assemble_diag_field();
        self.e_diag.clone()
    }

    /// The strategy name.
    pub fn strategy_name(&self) -> &'static str {
        self.strategy.name()
    }

    /// Instantaneous kinetic energy summed across ranks.
    pub fn kinetic_energy(&self) -> f64 {
        self.states
            .iter()
            .map(|s| s.particles.kinetic_energy())
            .sum()
    }

    /// Instantaneous total momentum summed across ranks.
    pub fn total_momentum(&self) -> f64 {
        self.states
            .iter()
            .map(|s| s.particles.total_momentum())
            .sum()
    }

    /// Snapshot of the mutable distributed state — per-rank particles and
    /// field slabs plus clock, step counter, migration and traffic
    /// totals — sufficient for [`Self::restore_state`] to continue a run
    /// bit-identically.
    pub fn export_state(&self) -> DistState {
        DistState {
            ranks: self
                .states
                .iter()
                .map(|s| RankStateSnapshot {
                    x: s.particles.x.clone(),
                    v: s.particles.v.clone(),
                    e_ext: s.e_ext.clone(),
                })
                .collect(),
            time: self.time,
            steps_done: self.steps_done,
            migrated_total: self.migrated_total,
            comm: self.fabric.stats(),
            comm_phases: self.fabric.phases().collect(),
        }
    }

    /// Overwrites the mutable state with a checkpointed snapshot (the
    /// inverse of [`Self::export_state`]). Per-rank particle *order* is
    /// preserved, so deposition sums re-associate identically and the
    /// resumed trajectory is bit-identical to an uninterrupted run.
    /// Traffic counters are restored in full — the aggregate totals and
    /// the per-phase breakdown both continue across the resume.
    ///
    /// # Panics
    /// Panics if the snapshot's rank count or slab widths do not match
    /// this simulation.
    pub fn restore_state(&mut self, state: &DistState) {
        assert_eq!(state.ranks.len(), self.states.len(), "rank count mismatch");
        for (rank, snap) in self.states.iter_mut().zip(&state.ranks) {
            assert_eq!(snap.x.len(), snap.v.len(), "x/v length mismatch");
            assert_eq!(
                snap.e_ext.len(),
                rank.e_ext.len(),
                "extended slab width mismatch"
            );
            let (q, m) = (rank.particles.charge(), rank.particles.mass());
            rank.particles = Particles::new(snap.x.clone(), snap.v.clone(), q, m);
            rank.e_ext.copy_from_slice(&snap.e_ext);
        }
        self.time = state.time;
        self.steps_done = state.steps_done;
        self.migrated_total = state.migrated_total;
        self.fabric.restore_stats(state.comm, &state.comm_phases);
    }
}

/// One rank's share of a [`DistState`] snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct RankStateSnapshot {
    /// Locally owned particle positions, in storage order.
    pub x: Vec<f64>,
    /// Locally owned particle velocities (staggered half-step level).
    pub v: Vec<f64>,
    /// The extended field slab (owned nodes + halo ghosts).
    pub e_ext: Vec<f64>,
}

/// The mutable state of a [`DistSimulation`] at a step boundary, as
/// exported by [`DistSimulation::export_state`].
#[derive(Debug, Clone, PartialEq)]
pub struct DistState {
    /// Per-rank particle and field state, in rank order.
    pub ranks: Vec<RankStateSnapshot>,
    /// Simulation clock.
    pub time: f64,
    /// Steps performed.
    pub steps_done: usize,
    /// Particles migrated across ranks so far.
    pub migrated_total: u64,
    /// Aggregate fabric traffic so far.
    pub comm: CommStats,
    /// Per-phase traffic breakdown, in the fabric's first-seen order.
    pub comm_phases: Vec<(crate::comm::Phase, CommStats)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::GatherScatter;

    fn config(n_ranks: usize, n_steps: usize) -> DistConfig {
        DistConfig {
            grid: Grid1D::paper(),
            init: TwoStreamInit::quiet(0.2, 0.0, 8_000, 1e-3, 1),
            dt: 0.2,
            n_steps,
            gather_shape: Shape::Cic,
            n_ranks,
            tracked_modes: vec![1],
        }
    }

    #[test]
    fn run_produces_n_plus_one_samples() {
        let mut sim =
            DistSimulation::new(config(4, 10), Box::new(GatherScatter::new(Shape::Cic, 1.0)));
        sim.run();
        assert_eq!(sim.history().len(), 11);
        assert_eq!(sim.steps_done(), 10);
        assert_eq!(sim.total_particles(), 8_000);
    }

    #[test]
    fn particle_count_is_conserved_through_migration() {
        let mut sim =
            DistSimulation::new(config(8, 30), Box::new(GatherScatter::new(Shape::Cic, 1.0)));
        sim.run();
        assert_eq!(sim.total_particles(), 8_000);
        assert!(sim.migrated_total() > 0, "beams must cross slabs");
    }

    #[test]
    fn momentum_conserved_with_matched_shapes() {
        let mut sim =
            DistSimulation::new(config(4, 25), Box::new(GatherScatter::new(Shape::Cic, 1.0)));
        sim.run();
        for (i, p) in sim.history().momentum.iter().enumerate() {
            assert!(p.abs() < 1e-9, "step {i}: momentum {p}");
        }
    }

    #[test]
    fn export_restore_resumes_bit_identically() {
        let strategy = || Box::new(GatherScatter::new(Shape::Cic, 1.0));
        let mut straight = DistSimulation::new(config(4, 30), strategy());
        for _ in 0..12 {
            straight.step();
        }
        let snapshot = straight.export_state();
        let mut resumed = DistSimulation::new(config(4, 30), strategy());
        resumed.restore_state(&snapshot);
        assert_eq!(resumed.steps_done(), 12);
        assert_eq!(resumed.migrated_total(), straight.migrated_total());
        assert_eq!(resumed.comm_stats(), straight.comm_stats());
        for _ in 0..10 {
            straight.step();
            resumed.step();
        }
        assert_eq!(straight.phase_space(), resumed.phase_space());
        assert_eq!(straight.comm_stats(), resumed.comm_stats());
        assert_eq!(straight.migrated_total(), resumed.migrated_total());
        // The per-phase breakdown continues across the resume too (it
        // used to restart from zero — CHANGES.md PR 4 known wart).
        assert_eq!(straight.comm_phases(), resumed.comm_phases());
        assert!(!resumed.comm_phases().is_empty());
    }

    #[test]
    fn gather_local_matches_global_gather() {
        use dlpic_pic::gather::gather_field;
        let grid = Grid1D::paper();
        let topo = Topology::new(4, 64);
        // A known global field.
        let e: Vec<f64> = (0..64)
            .map(|j| (grid.mode_wavenumber(1) * grid.node_position(j)).sin())
            .collect();
        // Particles on rank 2's slab.
        let start = topo.slab_start(2) as f64 * grid.dx();
        let width = topo.cells_per_rank() as f64 * grid.dx();
        let xs: Vec<f64> = (0..100)
            .map(|i| start + (i as f64 + 0.5) / 100.0 * width)
            .collect();
        let p = Particles::new(xs, vec![0.0; 100], -1.0, 1.0);

        let mut reference = vec![0.0; 100];
        gather_field(&p, &grid, Shape::Tsc, &e, &mut reference);

        let mut e_ext = vec![0.0; ext_len(&topo)];
        let s = topo.slab_start(2) as i64;
        for (i, v) in e_ext.iter_mut().enumerate() {
            *v = e[grid.wrap_index(s - HALO as i64 + i as i64)];
        }
        let mut local = vec![0.0; 100];
        gather_local(&p, &grid, &topo, 2, Shape::Tsc, &e_ext, &mut local);
        for (a, b) in local.iter().zip(&reference) {
            assert!((a - b).abs() < 1e-15);
        }
    }
}
