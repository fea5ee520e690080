//! The two distributed field-solve strategies whose communication the
//! paper's §VII compares qualitatively:
//!
//! * [`GatherScatter`] — the traditional route: deposit locally, reduce
//!   halos, gather the global charge density onto rank 0, solve the
//!   Poisson linear system there, scatter each rank its field slab (plus
//!   gather ghosts). Traffic grows with the grid size and rank count.
//! * [`ReplicatedDl`] — the DL route: bin the local phase space, all-reduce
//!   the fixed-size histogram (reduce-to-root + broadcast here), then every
//!   rank runs its replicated network and slices out its slab locally —
//!   *no field communication at all*. Traffic is a constant two histograms
//!   per non-root rank, independent of the particle count.
//!
//! Histogram payloads travel as `f64` words like everything else on the
//! fabric (8 bytes/word), although a production code would ship them as
//! `f32` — the accounting is conservative *against* the DL method, which
//! still wins by orders of magnitude.

use crate::comm::Fabric;
use crate::halo::{self, HALO};
use crate::sim::RankState;
use crate::topology::Topology;
use dlpic_core::field_solver::DlFieldSolver;
use dlpic_core::phase_space::bin_phase_space;
use dlpic_pic::deposit::add_uniform_background;
use dlpic_pic::efield::efield_from_phi;
use dlpic_pic::grid::Grid1D;
use dlpic_pic::poisson::{FdPoisson, PoissonSolver};
use dlpic_pic::shape::Shape;

/// A distributed field solve: fills every rank's extended field buffer
/// (`e_ext`: owned nodes plus [`HALO`] ghosts each side) from the current
/// particle state.
pub trait DistFieldStrategy: Send {
    /// Performs the solve across all ranks via the fabric.
    fn solve(
        &mut self,
        states: &mut [RankState],
        grid: &Grid1D,
        topo: &Topology,
        fabric: &mut Fabric,
    );

    /// Strategy name for logs and tables.
    fn name(&self) -> &'static str;
}

/// Traditional distributed solve: gather ρ to rank 0, solve, scatter E.
pub struct GatherScatter {
    shape: Shape,
    background: f64,
    poisson: FdPoisson,
    rho_global: Vec<f64>,
    phi: Vec<f64>,
    e_global: Vec<f64>,
}

impl GatherScatter {
    /// Creates the strategy with the given deposition shape and uniform
    /// ion background (+1 in the paper's units).
    pub fn new(shape: Shape, background: f64) -> Self {
        Self {
            shape,
            background,
            poisson: FdPoisson::new(),
            rho_global: Vec::new(),
            phi: Vec::new(),
            e_global: Vec::new(),
        }
    }

    /// The deposition shape.
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// The most recent globally assembled E field (valid on "rank 0"
    /// after a solve; diagnostics only).
    #[cfg(test)]
    fn e_global(&self) -> &[f64] {
        &self.e_global
    }
}

impl DistFieldStrategy for GatherScatter {
    fn solve(
        &mut self,
        states: &mut [RankState],
        grid: &Grid1D,
        topo: &Topology,
        fabric: &mut Fabric,
    ) {
        let cpr = topo.cells_per_rank();
        let n = grid.nx();

        // 1. Local deposition + halo reduction.
        for state in states.iter_mut() {
            halo::deposit_local(
                &state.particles,
                grid,
                topo,
                state.rank,
                self.shape,
                &mut state.rho_ext,
            );
        }
        for state in states.iter() {
            halo::send_halo_right(state.rank, topo, fabric, &state.rho_ext);
        }
        for state in states.iter_mut() {
            halo::recv_halo_from_left(state.rank, topo, fabric, &mut state.rho_ext);
        }
        for state in states.iter() {
            halo::send_halo_left(state.rank, topo, fabric, &state.rho_ext);
        }
        for state in states.iter_mut() {
            halo::recv_halo_from_right(state.rank, topo, fabric, &mut state.rho_ext);
        }

        // 2. Gather the owned slabs onto rank 0.
        for state in states.iter() {
            fabric.send(
                state.rank,
                0,
                crate::comm::PHASE_RHO_GATHER,
                state.rho_ext[HALO..HALO + cpr].to_vec(),
            );
        }
        self.rho_global.clear();
        self.rho_global.resize(n, 0.0);
        for rank in topo.ranks() {
            let slab = fabric.recv(0, rank).expect("missing rho slab");
            let start = topo.slab_start(rank);
            self.rho_global[start..start + cpr].copy_from_slice(&slab);
        }
        add_uniform_background(&mut self.rho_global, self.background);

        // 3. Rank 0 solves the global linear system and takes E = −∇Φ.
        self.phi.clear();
        self.phi.resize(n, 0.0);
        self.e_global.clear();
        self.e_global.resize(n, 0.0);
        self.poisson.solve(grid, &self.rho_global, &mut self.phi);
        efield_from_phi(grid, &self.phi, &mut self.e_global);

        // 4. Scatter each rank its slab plus gather ghosts.
        for rank in topo.ranks() {
            let start = topo.slab_start(rank) as i64;
            let payload: Vec<f64> = (0..cpr + 2 * HALO)
                .map(|i| {
                    let j = grid.wrap_ix(start - HALO as i64 + i as i64);
                    self.e_global[j]
                })
                .collect();
            fabric.send(0, rank, crate::comm::PHASE_E_SCATTER, payload);
        }
        for state in states.iter_mut() {
            let slab = fabric.recv(state.rank, 0).expect("missing E slab");
            state.e_ext.copy_from_slice(&slab);
        }
    }

    fn name(&self) -> &'static str {
        "gather-scatter"
    }
}

/// DL distributed solve: all-reduce the phase-space histogram, infer
/// everywhere, no field exchange.
pub struct ReplicatedDl {
    solver: DlFieldSolver,
    hist_global: Vec<f32>,
    e_global: Vec<f64>,
}

impl ReplicatedDl {
    /// Wraps a trained DL field solver; conceptually every rank holds a
    /// replica of its network (the in-process emulation evaluates the one
    /// copy once per rank).
    pub fn new(solver: DlFieldSolver) -> Self {
        Self {
            solver,
            hist_global: Vec::new(),
            e_global: Vec::new(),
        }
    }

    /// The most recent global E prediction (diagnostics only).
    #[cfg(test)]
    fn e_global(&self) -> &[f64] {
        &self.e_global
    }
}

impl DistFieldStrategy for ReplicatedDl {
    fn solve(
        &mut self,
        states: &mut [RankState],
        grid: &Grid1D,
        topo: &Topology,
        fabric: &mut Fabric,
    ) {
        let (spec, binning) = *self.solver.binner();
        let cells = spec.cells();
        let cpr = topo.cells_per_rank();
        let n = grid.nx();

        // 1. Local phase-space binning (particles only — no deposition).
        let total_mass: f64 = states.iter().map(|s| s.particles.len() as f64).sum();
        for state in states.iter_mut() {
            state.hist.resize(cells, 0.0);
            bin_phase_space(&state.particles, grid, &spec, binning, &mut state.hist);
        }

        // 2. Reduce-to-root: non-root ranks ship their histograms.
        for state in states.iter() {
            fabric.send(
                state.rank,
                0,
                crate::comm::PHASE_HIST_REDUCE,
                state.hist.iter().map(|&v| v as f64).collect(),
            );
        }
        self.hist_global.clear();
        self.hist_global.resize(cells, 0.0);
        for rank in topo.ranks() {
            let part = fabric.recv(0, rank).expect("missing histogram");
            for (acc, v) in self.hist_global.iter_mut().zip(&part) {
                *acc += *v as f32;
            }
        }

        // 3. Broadcast the summed histogram back.
        let summed: Vec<f64> = self.hist_global.iter().map(|&v| v as f64).collect();
        for rank in topo.ranks() {
            fabric.send(0, rank, crate::comm::PHASE_HIST_BCAST, summed.clone());
        }

        // 4. Every rank finishes locally: replicated inference, slice out
        //    the owned slab + ghosts. Zero field communication.
        self.e_global.clear();
        self.e_global.resize(n, 0.0);
        for state in states.iter_mut() {
            let global = fabric.recv(state.rank, 0).expect("missing broadcast");
            let hist: Vec<f32> = global.iter().map(|&v| v as f32).collect();
            self.solver
                .solve_from_raw_histogram(&hist, total_mass as f32, &mut self.e_global);
            let start = topo.slab_start(state.rank) as i64;
            for i in 0..cpr + 2 * HALO {
                let j = grid.wrap_ix(start - HALO as i64 + i as i64);
                state.e_ext[i] = self.e_global[j];
            }
        }
    }

    fn name(&self) -> &'static str {
        "replicated-dl"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::RankState;
    use dlpic_core::builder::ArchSpec;
    use dlpic_core::field_solver::FrozenBundle;
    use dlpic_core::normalize::NormStats;
    use dlpic_core::phase_space::{BinningShape, PhaseGridSpec};
    use dlpic_nn::frozen::Precision;

    fn tiny_dl_solver() -> DlFieldSolver {
        let spec = PhaseGridSpec::smoke();
        let arch = ArchSpec::Mlp {
            input: spec.cells(),
            hidden: vec![8],
            output: 64,
        };
        FrozenBundle::from_network(
            &arch.build(0),
            (spec, BinningShape::Ngp),
            NormStats::identity(),
            "dl-mlp",
            Precision::F32,
        )
        .unwrap()
        .solver()
    }

    fn make_states(grid: &Grid1D, topo: &Topology, per_rank: usize) -> Vec<RankState> {
        let w = grid.lx() / (per_rank * topo.n_ranks()) as f64;
        topo.ranks()
            .map(|rank| {
                let start = topo.slab_start(rank) as f64 * grid.dx();
                let width = topo.cells_per_rank() as f64 * grid.dx();
                let xs: Vec<f64> = (0..per_rank)
                    .map(|i| start + (i as f64 + 0.5) / per_rank as f64 * width)
                    .collect();
                let p = dlpic_pic::particles::Particles::new([xs], [vec![0.0; per_rank]], -w, w);
                RankState::new(rank, p, topo)
            })
            .collect()
    }

    #[test]
    fn gather_scatter_matches_single_rank_field() {
        let grid = Grid1D::new(64, 2.0532);
        let mut reference_e = grid.zeros();
        {
            // Single-rank reference through the same strategy.
            let topo1 = Topology::new(1, 64);
            let mut fabric = Fabric::new(1);
            let mut states = make_states(&grid, &topo1, 1024);
            let mut strat = GatherScatter::new(Shape::Cic, 1.0);
            strat.solve(&mut states, &grid, &topo1, &mut fabric);
            reference_e.copy_from_slice(strat.e_global());
        }
        for n_ranks in [2, 4, 8] {
            let topo = Topology::new(n_ranks, 64);
            let mut fabric = Fabric::new(n_ranks);
            let mut states = make_states(&grid, &topo, 1024 / n_ranks);
            let mut strat = GatherScatter::new(Shape::Cic, 1.0);
            strat.solve(&mut states, &grid, &topo, &mut fabric);
            for (j, (a, b)) in strat.e_global().iter().zip(&reference_e).enumerate() {
                assert!((a - b).abs() < 1e-12, "R={n_ranks} node {j}: {a} vs {b}");
            }
            // Each rank's e_ext center matches its slab of the global E.
            for state in &states {
                let start = topo.slab_start(state.rank);
                for k in 0..topo.cells_per_rank() {
                    assert!((state.e_ext[HALO + k] - reference_e[start + k]).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn replicated_dl_needs_no_field_traffic() {
        let grid = Grid1D::new(64, 2.0532);
        let topo = Topology::new(4, 64);
        let mut fabric = Fabric::new(4);
        let mut states = make_states(&grid, &topo, 256);
        let mut strat = ReplicatedDl::new(tiny_dl_solver());
        strat.solve(&mut states, &grid, &topo, &mut fabric);

        let cells = PhaseGridSpec::smoke().cells() as u64;
        let reduce = fabric.phase_stats("hist-reduce");
        let bcast = fabric.phase_stats("hist-bcast");
        // 3 non-root ranks each way, one histogram per message.
        assert_eq!(reduce.messages, 3);
        assert_eq!(bcast.messages, 3);
        assert_eq!(reduce.bytes, 3 * 8 * cells);
        assert_eq!(bcast.bytes, 3 * 8 * cells);
        // No deposition halos, no rho gather, no E scatter.
        assert_eq!(fabric.phase_stats("deposit-halo").messages, 0);
        assert_eq!(fabric.phase_stats("rho-gather").messages, 0);
        assert_eq!(fabric.phase_stats("e-scatter").messages, 0);
    }

    #[test]
    fn replicated_dl_is_rank_count_invariant() {
        // The summed histogram — and therefore the prediction — must not
        // depend on how particles are split across ranks.
        let grid = Grid1D::new(64, 2.0532);
        let mut reference: Option<Vec<f64>> = None;
        for n_ranks in [1, 2, 4] {
            let topo = Topology::new(n_ranks, 64);
            let mut fabric = Fabric::new(n_ranks);
            let mut states = make_states(&grid, &topo, 512 / n_ranks);
            let mut strat = ReplicatedDl::new(tiny_dl_solver());
            strat.solve(&mut states, &grid, &topo, &mut fabric);
            match &reference {
                None => reference = Some(strat.e_global().to_vec()),
                Some(r) => {
                    for (j, (a, b)) in strat.e_global().iter().zip(r).enumerate() {
                        assert!((a - b).abs() < 1e-6, "R={n_ranks} node {j}: {a} vs {b}");
                    }
                }
            }
        }
    }

    #[test]
    fn traffic_scaling_favours_dl_at_scale() {
        // The §VII comparison in numbers: per-step field-solve traffic.
        let grid = Grid1D::new(64, 2.0532);
        for n_ranks in [2, 4, 8] {
            let topo = Topology::new(n_ranks, 64);

            let mut fabric_gs = Fabric::new(n_ranks);
            let mut states = make_states(&grid, &topo, 512 / n_ranks);
            GatherScatter::new(Shape::Cic, 1.0).solve(&mut states, &grid, &topo, &mut fabric_gs);
            let gs_bytes = fabric_gs.stats().bytes;

            let mut fabric_dl = Fabric::new(n_ranks);
            let mut states = make_states(&grid, &topo, 512 / n_ranks);
            ReplicatedDl::new(tiny_dl_solver()).solve(&mut states, &grid, &topo, &mut fabric_dl);
            let dl_bytes = fabric_dl.stats().bytes;

            // With the smoke 16×16 histogram the DL all-reduce is bigger
            // in absolute bytes than a 64-cell grid exchange — the point
            // is the *scaling*: GS grows with grid size, DL stays fixed.
            // Verified quantitatively in the sim-level tests; here, both
            // must at least be nonzero and GS must include halo traffic.
            assert!(gs_bytes > 0 && dl_bytes > 0, "R={n_ranks}");
            assert!(fabric_gs.phase_stats("deposit-halo").bytes > 0);
            assert_eq!(fabric_dl.phase_stats("deposit-halo").bytes, 0);
        }
    }
}
