//! [`Grid2D`] as a [`Geometry`]: what makes the one PIC driver
//! (`Simulation<Grid2D>`, `PicConfig<Grid2D>`, `History<(usize, usize)>`,
//! `dyn FieldSolver<Grid2D>`, `TraditionalSolver<Grid2D>`) the 2-D cycle
//! over the 2-D kernels.
//!
//! The node field is `[Ex | Ey]` stacked in one buffer; tracked modes are
//! `(mx, my)` modes of `Ex`; `History::momentum` carries the `x` component
//! and `History::momentum_y` the `y` component. Stepping and diagnostics
//! conventions are the 1-D ones (see [`crate::simulation`]).

use crate::deposit2d::deposit_charge;
use crate::diagnostics::{instantaneous_report, EnergyReport};
use crate::efield::{efield_from_phi, field_energy};
use crate::fused::StepMoments;
use crate::fused2d::fused_gather_push_move;
use crate::geometry::{gather_and_rewind, Geometry};
use crate::grid::{Grid, Grid2D};
use crate::init2d::TwoStream2DInit;
use crate::particles::Particles2D;
use crate::poisson::PoissonSolver;
use crate::poisson2d::{SorPoisson2D, SpectralPoisson2D};
use crate::shape::Shape;
use crate::solver::PoissonKind;
use dlpic_analytics::dft2;

impl Geometry for Grid2D {
    type Particles = Particles2D;
    type Mode = (usize, usize);
    type Init = TwoStream2DInit;

    const FIELD_NAMES: &'static [&'static str] = &["ex", "ey"];
    const TRADITIONAL_NAME: &'static str = "traditional-2d";

    fn nodes(&self) -> usize {
        Grid::nodes(self)
    }

    fn load(&self, init: &TwoStream2DInit) -> Particles2D {
        init.build(self)
    }

    fn half_step_back(&self, particles: &mut Particles2D, shape: Shape, e: &[f64], dt: f64) {
        gather_and_rewind(self, particles, shape, e, dt);
    }

    fn fused_push(
        &self,
        particles: &mut Particles2D,
        shape: Shape,
        e: &[f64],
        dt: f64,
    ) -> StepMoments {
        fused_gather_push_move(particles, self, shape, e, dt)
    }

    fn deposit(&self, particles: &Particles2D, shape: Shape, rho: &mut [f64]) {
        deposit_charge(particles, self, shape, rho);
    }

    fn poisson(kind: PoissonKind) -> Box<dyn PoissonSolver<Grid2D>> {
        match kind {
            PoissonKind::FiniteDifference => Box::new(SorPoisson2D),
            PoissonKind::Spectral => Box::new(SpectralPoisson2D::default()),
        }
    }

    fn gradient(&self, phi: &[f64], e: &mut [f64]) {
        efield_from_phi(self, phi, e);
    }

    fn field_energy(&self, e: &[f64]) -> f64 {
        field_energy(self, e)
    }

    fn mode_amplitude(&self, e: &[f64], (mx, my): (usize, usize)) -> f64 {
        dft2::mode_amplitude2(&e[..Grid::nodes(self)], self.nx(), self.ny(), mx, my)
    }

    fn instantaneous_report(&self, particles: &Particles2D, e: &[f64]) -> EnergyReport {
        instantaneous_report(particles, self, e)
    }

    fn columns(p: &Particles2D) -> Vec<(&'static str, &[f64])> {
        ["x", "y", "vx", "vy"]
            .into_iter()
            .zip(p.components())
            .collect()
    }

    fn columns_mut(p: &mut Particles2D) -> Vec<&mut [f64]> {
        p.components_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulation::{PicConfig, Simulation};
    use crate::solver::TraditionalSolver;

    fn small_sim(v0: f64, vth: f64, n_steps: usize) -> Simulation<Grid2D> {
        let cfg = PicConfig {
            grid: Grid2D::new(16, 16, 2.0532, 2.0532),
            init: Some(TwoStream2DInit::quiet(v0, vth, 8_192, 1e-3, 1)),
            dt: 0.2,
            n_steps,
            gather_shape: Shape::Cic,
            tracked_modes: vec![(1, 0), (0, 1)],
        };
        Simulation::new(cfg, Box::new(TraditionalSolver::default_config()))
    }

    #[test]
    fn run_produces_n_plus_one_samples() {
        let mut sim = small_sim(0.2, 0.0, 10);
        sim.run();
        assert_eq!(sim.history().len(), 11);
        assert_eq!(sim.steps_done(), 10);
        assert!((sim.time() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn energy_stays_bounded_over_short_run() {
        let mut sim = small_sim(0.2, 0.0, 25);
        sim.run();
        let h = sim.history();
        let e0 = h.total[0];
        for (i, e) in h.total.iter().enumerate() {
            assert!((e - e0).abs() / e0 < 0.05, "step {i}: {e} vs {e0}");
            assert!(e.is_finite());
        }
    }

    #[test]
    fn momentum_conserved_by_traditional_solver() {
        // Matched deposit/gather shapes ⇒ momentum conservation to
        // round-off, exactly as in 1-D.
        let mut sim = small_sim(0.2, 0.0, 25);
        sim.run();
        let h = sim.history();
        assert_eq!(h.momentum_y.len(), h.momentum.len());
        for (px, py) in h.momentum.iter().zip(&h.momentum_y) {
            assert!(px.abs() < 1e-9, "px = {px}");
            assert!(py.abs() < 1e-9, "py = {py}");
        }
    }

    #[test]
    fn mode_series_lookup() {
        let mut sim = small_sim(0.2, 0.0, 5);
        sim.run();
        assert!(sim.history().mode_series((1, 0)).is_some());
        assert!(sim.history().mode_series((3, 3)).is_none());
        let series = sim.history().mode_series((1, 0)).unwrap();
        assert_eq!(series.times.len(), series.values.len());
    }
}
