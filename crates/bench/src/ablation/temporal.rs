//! Time-sequence inputs for the DL field solver — the paper's §VII
//! observes that "phase space and electric field values at a certain time
//! step are very similar to the values in the previous and next time
//! steps" and conjectures that architectures which "encode time
//! sequences" would fit the problem better.
//!
//! This module tests the cheapest version of that idea: stack the last
//! `k` phase-space histograms as the network input (`k = 1` is exactly
//! the paper's method). The `ablation_temporal` experiment measures
//! whether the extra history improves field accuracy and in-loop
//! conservation.

use dlpic_core::normalize::NormStats;
use dlpic_core::phase_space::{bin_phase_space, BinningShape, PhaseGridSpec};
use dlpic_dataset::PhaseDataset;
use dlpic_nn::network::Sequential;
use dlpic_nn::tensor::Tensor;
use dlpic_pic::grid::Grid1D;
use dlpic_pic::particles::Particles;
use dlpic_pic::solver::FieldSolver;

/// Builds windowed training pairs from runs harvested in step order (one
/// store per run): the input of step `t` is the concatenation
/// `[h_{t-k+1} … h_t]` (oldest first), the target is `E_t`. The first
/// `k − 1` steps of each run are skipped, so windows never straddle two
/// runs. Returns `(inputs, targets, n_samples)`.
///
/// # Panics
/// Panics for `window == 0` or runs with inconsistent geometry.
pub fn windowed_pairs(runs: &[PhaseDataset], window: usize) -> (Vec<f32>, Vec<f32>, usize) {
    assert!(window > 0, "window must be at least 1");
    assert!(!runs.is_empty(), "no runs");
    let mut inputs = Vec::new();
    let mut targets = Vec::new();
    let mut n = 0;
    for run in runs {
        assert_eq!(run.spec, runs[0].spec, "inconsistent histogram geometry");
        assert_eq!(run.e_cells, runs[0].e_cells, "inconsistent field geometry");
        for t in (window - 1)..run.len() {
            for s in (t + 1 - window)..=t {
                inputs.extend_from_slice(run.input_row(s));
            }
            targets.extend_from_slice(run.target_row(t));
            n += 1;
        }
    }
    (inputs, targets, n)
}

/// A DL field solver that feeds the network the last `window` histograms
/// (ring-buffered across calls). With `window = 1` it behaves exactly
/// like [`dlpic_core::field_solver::DlFieldSolver`] with flat input.
pub struct TemporalDlSolver {
    net: Sequential,
    spec: PhaseGridSpec,
    binning: BinningShape,
    norm: NormStats,
    window: usize,
    /// Most recent histograms, oldest first; shorter than `window` until
    /// warmed up.
    history: Vec<Vec<f32>>,
    scratch: Vec<f32>,
}

impl TemporalDlSolver {
    /// Wraps a trained network expecting `window · spec.cells()` inputs.
    ///
    /// # Panics
    /// Panics for a zero window.
    pub fn new(
        net: Sequential,
        spec: PhaseGridSpec,
        binning: BinningShape,
        norm: NormStats,
        window: usize,
    ) -> Self {
        assert!(window > 0, "window must be at least 1");
        Self {
            net,
            spec,
            binning,
            norm,
            window,
            history: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// The window length.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Clears the ring buffer (e.g. between runs).
    pub fn reset(&mut self) {
        self.history.clear();
    }
}

impl FieldSolver for TemporalDlSolver {
    fn solve(&mut self, particles: &Particles, grid: &Grid1D, e: &mut [f64]) {
        let cells = self.spec.cells();
        let mut hist = vec![0.0f32; cells];
        bin_phase_space(particles, grid, &self.spec, self.binning, &mut hist);
        if self.history.len() == self.window {
            self.history.remove(0);
        }
        self.history.push(hist);

        // Until warmed up, pad by repeating the oldest available step —
        // the same convention a deployed solver must adopt at t = 0.
        self.scratch.clear();
        let missing = self.window - self.history.len();
        for _ in 0..missing {
            self.scratch.extend_from_slice(&self.history[0]);
        }
        for h in &self.history {
            self.scratch.extend_from_slice(h);
        }
        self.norm.apply(&mut self.scratch);

        let input = Tensor::new(self.scratch.clone(), &[1, self.window * cells]);
        let pred = self.net.predict(&input).into_data();
        assert_eq!(pred.len(), e.len(), "output width mismatch");
        for (dst, &src) in e.iter_mut().zip(&pred) {
            *dst = src as f64;
        }
    }

    fn name(&self) -> &'static str {
        "dl-temporal"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlpic_core::builder::ArchSpec;
    use dlpic_dataset::{harvest, Capture};
    use dlpic_pic::init::TwoStreamInit;
    use dlpic_pic::shape::Shape;
    use dlpic_pic::simulation::{PicConfig, Simulation};
    use dlpic_pic::solver::TraditionalSolver;

    fn small_cfg(n_steps: usize, seed: u64) -> PicConfig {
        PicConfig {
            grid: Grid1D::paper(),
            init: Some(TwoStreamInit::quiet(0.2, 0.0, 2_000, 1e-3, seed)),
            dt: 0.2,
            n_steps,
            gather_shape: Shape::Cic,
            tracked_modes: vec![],
        }
    }

    /// One run's rows on the smoke phase grid, captured after each step.
    fn trace(n_steps: usize, seed: u64) -> PhaseDataset {
        let mut run = PhaseDataset::new(PhaseGridSpec::smoke(), BinningShape::Ngp, 64);
        let solver = TraditionalSolver::paper_default();
        harvest(
            small_cfg(n_steps, seed),
            solver,
            Capture::AfterStep,
            &mut run,
        );
        run
    }

    #[test]
    fn trace_records_every_step() {
        let trace = trace(12, 1);
        assert_eq!(trace.len(), 12);
        assert_eq!(trace.inputs().len(), 12 * PhaseGridSpec::smoke().cells());
        assert_eq!(trace.targets().len(), 12 * 64);
    }

    #[test]
    fn window_one_reproduces_flat_samples() {
        let trace = trace(8, 2);
        let (inputs, targets, n) = windowed_pairs(std::slice::from_ref(&trace), 1);
        assert_eq!(n, 8);
        assert_eq!(inputs, trace.inputs());
        assert_eq!(targets, trace.targets());
    }

    #[test]
    fn window_k_stacks_consecutive_steps() {
        let cells = PhaseGridSpec::smoke().cells();
        let trace = trace(6, 3);
        let (inputs, targets, n) = windowed_pairs(std::slice::from_ref(&trace), 3);
        assert_eq!(n, 4); // steps 2..=5
        assert_eq!(inputs.len(), 4 * 3 * cells);
        // First window = steps [0, 1, 2]; target = E_2.
        assert_eq!(&inputs[..cells], trace.input_row(0));
        assert_eq!(&inputs[2 * cells..3 * cells], trace.input_row(2));
        assert_eq!(&targets[..64], trace.target_row(2));
    }

    #[test]
    fn windows_do_not_straddle_traces() {
        let (_, _, n) = windowed_pairs(&[trace(5, 4), trace(5, 5)], 3);
        assert_eq!(n, 2 * 3); // (5 − 2) per trace
    }

    #[test]
    fn temporal_solver_runs_in_the_loop() {
        let spec = PhaseGridSpec::smoke();
        let window = 2;
        let arch = ArchSpec::Mlp {
            input: window * spec.cells(),
            hidden: vec![8],
            output: 64,
        };
        let solver = TemporalDlSolver::new(
            arch.build(0),
            spec,
            BinningShape::Ngp,
            NormStats::identity(),
            window,
        );
        let mut sim = Simulation::new(small_cfg(5, 6), Box::new(solver));
        sim.run();
        assert_eq!(sim.history().len(), 6);
        assert!(sim.efield().iter().all(|v| v.is_finite()));
    }

    #[test]
    #[should_panic(expected = "window must be at least 1")]
    fn zero_window_rejected() {
        let spec = PhaseGridSpec::smoke();
        let arch = ArchSpec::Mlp {
            input: spec.cells(),
            hidden: vec![4],
            output: 64,
        };
        let _ = TemporalDlSolver::new(
            arch.build(0),
            spec,
            BinningShape::Ngp,
            NormStats::identity(),
            0,
        );
    }
}
