//! Ready-made configurations for the paper's experiments.

use crate::constants;
use crate::grid::Grid1D;
use crate::init::TwoStreamInit;
use crate::shape::Shape;
use crate::simulation::PicConfig;

/// The paper's full-scale two-stream configuration: 64 cells, 1000
/// electrons/cell (64 000 particles), Δt = 0.2, 200 steps, CIC, random
/// loading (§III–IV).
pub fn paper_config(v0: f64, vth: f64, seed: u64) -> PicConfig {
    let grid = Grid1D::paper();
    let n_particles = constants::PAPER_NCELLS * constants::PAPER_PARTICLES_PER_CELL;
    PicConfig {
        grid,
        init: Some(TwoStreamInit::random(v0, vth, n_particles, seed)),
        dt: constants::PAPER_DT,
        n_steps: constants::PAPER_NSTEPS,
        gather_shape: Shape::Cic,
        tracked_modes: vec![1, 2, 3],
    }
}

/// A reduced configuration for tests and smoke runs: the paper's grid and
/// time step but `ppc` particles per cell and `n_steps` steps.
pub fn reduced_config(v0: f64, vth: f64, ppc: usize, n_steps: usize, seed: u64) -> PicConfig {
    let grid = Grid1D::paper();
    let n = constants::PAPER_NCELLS * ppc.max(1);
    PicConfig {
        grid,
        init: Some(TwoStreamInit::random(v0, vth, n, seed)),
        dt: constants::PAPER_DT,
        n_steps,
        gather_shape: Shape::Cic,
        tracked_modes: vec![1, 2, 3],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulation::Simulation;
    use crate::solver::TraditionalSolver;

    #[test]
    fn paper_config_matches_section_iii() {
        let cfg = paper_config(0.2, 0.025, 0);
        assert_eq!(cfg.grid.nx(), 64);
        assert_eq!(cfg.init.as_ref().unwrap().n_particles, 64_000);
        assert!((cfg.dt - 0.2).abs() < 1e-15);
        assert_eq!(cfg.n_steps, 200);
    }

    #[test]
    fn reduced_config_scales_particles() {
        let cfg = reduced_config(0.2, 0.0, 10, 20, 0);
        assert_eq!(cfg.init.as_ref().unwrap().n_particles, 640);
        assert_eq!(cfg.n_steps, 20);
    }

    #[test]
    fn presets_construct_runnable_simulations() {
        let mut sim = Simulation::new(
            reduced_config(0.2, 0.0, 4, 3, 1),
            Box::new(TraditionalSolver::paper_default()),
        );
        sim.run();
        assert_eq!(sim.history().len(), 4);
    }
}
