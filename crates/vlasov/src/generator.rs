//! Vlasov-based training samples — noise-free counterparts of the
//! PIC-harvested dataset.
//!
//! A Vlasov snapshot `f(x, v)` *is* the idealized phase-space histogram the
//! DL solver consumes: multiplying by the macro-particle count gives a
//! histogram with the same total mass as a PIC harvest, but without shot
//! noise. Samples produced here are bit-compatible with
//! `dlpic_dataset::PhaseDataset` rows, so the training pipeline and the
//! PIC/Vlasov data ablation need no special cases.

use crate::solver::{VlasovConfig, VlasovSolver};

/// One Vlasov-generated training sample.
#[derive(Debug, Clone)]
pub struct VlasovSample {
    /// Phase-space histogram, row-major `[nv][nx]`, scaled to `total_mass`
    /// "particles".
    pub histogram: Vec<f32>,
    /// The self-consistent electric field on the spatial nodes.
    pub efield: Vec<f64>,
}

/// Harvest configuration.
#[derive(Debug, Clone)]
pub struct VlasovHarvest {
    /// Vlasov run configuration. The solver's own (nx × nv) resolution is
    /// also the histogram resolution.
    pub config: VlasovConfig,
    /// Steps between consecutive samples.
    pub stride: usize,
    /// Number of samples to collect.
    pub samples: usize,
    /// Total histogram mass, e.g. the PIC particle count the DL solver
    /// will see at inference time (64 000 for the paper's setup).
    pub total_mass: f64,
}

impl VlasovHarvest {
    /// A harvest matching the paper's run length: sample every step for
    /// `samples` steps.
    pub fn new(config: VlasovConfig, samples: usize, total_mass: f64) -> Self {
        Self {
            config,
            stride: 1,
            samples,
            total_mass,
        }
    }

    /// Runs the solver, invoking `sink(histogram, efield)` once per
    /// sample with **borrowed** per-sample snapshot buffers that are
    /// reused between samples — the allocation-free path the dataset
    /// generators consume (a harvest used to allocate a fresh histogram
    /// `Vec` and `efield.to_vec()` per sample).
    pub fn run_with(&self, mut sink: impl FnMut(&[f32], &[f64])) {
        let mut solver = VlasovSolver::new(self.config.clone());
        let nx = self.config.grid.nx();
        let nv = self.config.nv;
        let cell_phase_volume = self.config.grid.dx() * solver.dv();
        // f integrates to L over the box; mass-per-histogram-count factor
        // turns the density into "macro-particles per phase cell".
        let scale = self.total_mass / self.config.grid.lx() * cell_phase_volume;
        let mut histogram = vec![0.0f32; nx * nv];
        for _ in 0..self.samples {
            for (h, &f) in histogram.iter_mut().zip(solver.distribution()) {
                *h = (f * scale) as f32;
            }
            sink(&histogram, solver.efield());
            for _ in 0..self.stride {
                solver.step();
            }
        }
    }

    /// Runs the solver and collects owned samples (convenience wrapper
    /// over [`VlasovHarvest::run_with`]).
    pub fn run(&self) -> Vec<VlasovSample> {
        let mut out = Vec::with_capacity(self.samples);
        self.run_with(|histogram, efield| {
            out.push(VlasovSample {
                histogram: histogram.to_vec(),
                efield: efield.to_vec(),
            });
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlpic_pic::grid::Grid1D;

    fn tiny_harvest() -> VlasovHarvest {
        let cfg = VlasovConfig {
            grid: Grid1D::paper(),
            nv: 64,
            vmax: 0.8,
            dt: 0.1,
            v0: 0.2,
            vth: 0.02,
            perturbation: 1e-3,
        };
        VlasovHarvest::new(cfg, 5, 64_000.0)
    }

    #[test]
    fn harvest_yields_requested_samples() {
        let samples = tiny_harvest().run();
        assert_eq!(samples.len(), 5);
        for s in &samples {
            assert_eq!(s.histogram.len(), 64 * 64);
            assert_eq!(s.efield.len(), 64);
            assert!(s.efield.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn histogram_mass_matches_particle_count() {
        let samples = tiny_harvest().run();
        for s in &samples {
            let mass: f64 = s.histogram.iter().map(|&h| h as f64).sum();
            assert!(
                (mass - 64_000.0).abs() / 64_000.0 < 1e-3,
                "histogram mass {mass}"
            );
        }
    }

    #[test]
    fn vlasov_histograms_are_smoother_than_pic() {
        // The whole point of §VII: no shot noise. Compare the row-to-row
        // roughness of a Vlasov histogram against a PIC histogram of the
        // same configuration and mass.
        use dlpic_core_free::roughness;
        let vlasov = tiny_harvest().run().remove(0);
        let rough_v = roughness(&vlasov.histogram, 64);

        // An equivalent PIC histogram.
        let grid = Grid1D::paper();
        let p = dlpic_pic::init::TwoStreamInit::random(0.2, 0.02, 64_000, 3).build(&grid);
        let mut hist = vec![0.0f32; 64 * 64];
        // NGP binning without depending on dlpic-core (avoids a cycle):
        let (vmin, vmax) = (-0.8, 0.8);
        let inv_dx = 64.0 / grid.lx();
        let inv_dv = 64.0 / (vmax - vmin);
        for (&x, &v) in p.pos[0].iter().zip(&p.vel[0]) {
            let ix = ((x * inv_dx) as usize).min(63);
            let iv = (((v - vmin) * inv_dv).max(0.0) as usize).min(63);
            hist[iv * 64 + ix] += 1.0;
        }
        let rough_p = roughness(&hist, 64);
        assert!(
            rough_v < rough_p * 0.2,
            "Vlasov roughness {rough_v} not clearly below PIC {rough_p}"
        );
    }

    /// Mean squared x-difference along occupied rows: a shot-noise probe.
    mod dlpic_core_free {
        pub fn roughness(hist: &[f32], nx: usize) -> f64 {
            let mut acc = 0.0f64;
            let mut count = 0usize;
            for row in hist.chunks(nx) {
                let sum: f32 = row.iter().sum();
                if sum < 1.0 {
                    continue;
                }
                for w in row.windows(2) {
                    let d = (w[1] - w[0]) as f64;
                    acc += d * d;
                    count += 1;
                }
            }
            acc / count.max(1) as f64
        }
    }
}
