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
use dlpic_nn::network::Sequential;
use dlpic_nn::tensor::Tensor;
use dlpic_pic::grid::Grid1D;
use dlpic_pic::particles::Particles;
use dlpic_pic::simulation::{PicConfig, Simulation};
use dlpic_pic::solver::{FieldSolver, TraditionalSolver};

/// Harvested time-ordered samples of one traditional run: consecutive
/// (histogram, E-field) pairs, kept in step order so windows can be built.
#[derive(Debug, Clone, Default)]
pub struct TemporalTrace {
    /// Histogram of each step, concatenated (`step * cells ..`).
    pub histograms: Vec<f32>,
    /// E-field of each step, concatenated (`step * ncells ..`).
    pub efields: Vec<f32>,
    /// Bins per histogram.
    pub cells: usize,
    /// Grid cells per field.
    pub ncells: usize,
    /// Number of steps recorded.
    pub steps: usize,
}

/// Runs a traditional simulation and records every step's histogram and
/// field in order.
pub fn harvest_trace(cfg: PicConfig, spec: &PhaseGridSpec, binning: BinningShape) -> TemporalTrace {
    let grid = cfg.grid.clone();
    let n_steps = cfg.n_steps;
    let ncells = grid.nx();
    let mut sim = Simulation::new(cfg, Box::new(TraditionalSolver::paper_default()));
    let mut trace = TemporalTrace {
        cells: spec.cells(),
        ncells,
        ..Default::default()
    };
    let mut hist = vec![0.0f32; spec.cells()];
    for _ in 0..n_steps {
        sim.step();
        bin_phase_space(sim.particles(), &grid, spec, binning, &mut hist);
        trace.histograms.extend_from_slice(&hist);
        trace.efields.extend(sim.efield().iter().map(|&v| v as f32));
        trace.steps += 1;
    }
    trace
}

/// Builds windowed training pairs from traces: the input of step `t` is
/// the concatenation `[h_{t-k+1} … h_t]` (oldest first), the target is
/// `E_t`. The first `k − 1` steps of each trace are skipped, so windows
/// never straddle two runs. Returns `(inputs, targets, n_samples)`.
///
/// # Panics
/// Panics for `window == 0` or traces with inconsistent geometry.
pub fn windowed_pairs(traces: &[TemporalTrace], window: usize) -> (Vec<f32>, Vec<f32>, usize) {
    assert!(window > 0, "window must be at least 1");
    assert!(!traces.is_empty(), "no traces");
    let cells = traces[0].cells;
    let ncells = traces[0].ncells;
    let mut inputs = Vec::new();
    let mut targets = Vec::new();
    let mut n = 0;
    for trace in traces {
        assert_eq!(trace.cells, cells, "inconsistent histogram geometry");
        assert_eq!(trace.ncells, ncells, "inconsistent field geometry");
        for t in (window - 1)..trace.steps {
            for s in (t + 1 - window)..=t {
                inputs.extend_from_slice(&trace.histograms[s * cells..(s + 1) * cells]);
            }
            targets.extend_from_slice(&trace.efields[t * ncells..(t + 1) * ncells]);
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
    use dlpic_pic::init::TwoStreamInit;
    use dlpic_pic::shape::Shape;

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

    #[test]
    fn trace_records_every_step() {
        let spec = PhaseGridSpec::smoke();
        let trace = harvest_trace(small_cfg(12, 1), &spec, BinningShape::Ngp);
        assert_eq!(trace.steps, 12);
        assert_eq!(trace.histograms.len(), 12 * spec.cells());
        assert_eq!(trace.efields.len(), 12 * 64);
    }

    #[test]
    fn window_one_reproduces_flat_samples() {
        let spec = PhaseGridSpec::smoke();
        let trace = harvest_trace(small_cfg(8, 2), &spec, BinningShape::Ngp);
        let (inputs, targets, n) = windowed_pairs(std::slice::from_ref(&trace), 1);
        assert_eq!(n, 8);
        assert_eq!(inputs, trace.histograms);
        assert_eq!(targets, trace.efields);
    }

    #[test]
    fn window_k_stacks_consecutive_steps() {
        let spec = PhaseGridSpec::smoke();
        let cells = spec.cells();
        let trace = harvest_trace(small_cfg(6, 3), &spec, BinningShape::Ngp);
        let (inputs, targets, n) = windowed_pairs(std::slice::from_ref(&trace), 3);
        assert_eq!(n, 4); // steps 2..=5
        assert_eq!(inputs.len(), 4 * 3 * cells);
        // First window = steps [0, 1, 2]; target = E_2.
        assert_eq!(&inputs[..cells], &trace.histograms[..cells]);
        assert_eq!(
            &inputs[2 * cells..3 * cells],
            &trace.histograms[2 * cells..3 * cells]
        );
        assert_eq!(&targets[..64], &trace.efields[2 * 64..3 * 64]);
    }

    #[test]
    fn windows_do_not_straddle_traces() {
        let spec = PhaseGridSpec::smoke();
        let t1 = harvest_trace(small_cfg(5, 4), &spec, BinningShape::Ngp);
        let t2 = harvest_trace(small_cfg(5, 5), &spec, BinningShape::Ngp);
        let (_, _, n) = windowed_pairs(&[t1, t2], 3);
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
