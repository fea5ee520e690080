//! Two-stream initialization (paper §II–III).
//!
//! > "We can initialize particle positions uniformly in space and particle
//! > velocities with Gaussian distribution (with mean velocity v0 and
//! > thermal spread vth)."
//!
//! Two loading strategies are provided:
//!
//! * [`Loading::Random`] — the paper's: positions uniform at random,
//!   velocities `±v0 + vth·N(0,1)`, instability seeded by shot noise.
//! * [`Loading::Quiet`] — deterministic equispaced positions with an
//!   optional sinusoidal displacement seed; used by tests that need a
//!   clean, reproducible single-mode excitation.

use crate::grid::Grid1D;
use crate::particles::Particles;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Particle loading strategy, in either dimension (a 2-D quiet start is
/// displaced along `x`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Loading {
    /// Uniform random positions; Gaussian velocities. The paper's choice.
    Random,
    /// Equispaced positions per beam; exact beam velocities plus optional
    /// Gaussian thermal spread; optional sinusoidal displacement of
    /// amplitude `amplitude` in units of the box length on grid mode
    /// `mode` to seed the instability deterministically.
    Quiet {
        /// Seeded grid mode (0 disables the perturbation).
        mode: usize,
        /// Displacement amplitude as a fraction of the box length.
        amplitude: f64,
    },
}

/// Builder for the two counter-streaming electron beams.
#[derive(Debug, Clone)]
pub struct TwoStreamInit {
    /// Beam drift speed; beams move at `+v0` and `−v0`.
    pub v0: f64,
    /// Thermal spread added to each beam.
    pub vth: f64,
    /// Total number of macro-electrons (split evenly between beams).
    pub n_particles: usize,
    /// Loading strategy.
    pub loading: Loading,
    /// RNG seed (used by both loadings when they draw random numbers).
    pub seed: u64,
}

impl TwoStreamInit {
    /// Random loading with the paper's conventions.
    pub fn random(v0: f64, vth: f64, n_particles: usize, seed: u64) -> Self {
        Self {
            v0,
            vth,
            n_particles,
            loading: Loading::Random,
            seed,
        }
    }

    /// Quiet start with a seeded mode-1 perturbation.
    pub fn quiet(v0: f64, vth: f64, n_particles: usize, amplitude: f64, seed: u64) -> Self {
        Self {
            v0,
            vth,
            n_particles,
            loading: Loading::Quiet { mode: 1, amplitude },
            seed,
        }
    }

    /// Builds the particle buffer on the given grid.
    ///
    /// # Panics
    /// Panics if `n_particles` is zero or odd (the beams must be balanced
    /// so total momentum starts at zero).
    pub fn build(&self, grid: &Grid1D) -> Particles {
        assert!(self.n_particles > 0, "need particles");
        assert!(
            self.n_particles.is_multiple_of(2),
            "particle count must be even to balance the two beams"
        );
        let n = self.n_particles;
        let l = grid.lx();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut x = Vec::with_capacity(n);
        let mut v = Vec::with_capacity(n);

        match self.loading {
            Loading::Random => {
                for i in 0..n {
                    x.push(rng.gen::<f64>() * l);
                    let beam = if i % 2 == 0 { self.v0 } else { -self.v0 };
                    v.push(beam + self.vth * gaussian(&mut rng));
                }
            }
            Loading::Quiet { mode, amplitude } => {
                let per_beam = n / 2;
                let k = grid.mode_wavenumber(mode.max(1));
                for b in 0..2 {
                    let sign = if b == 0 { 1.0 } else { -1.0 };
                    for i in 0..per_beam {
                        // Offset the second beam half a spacing to avoid
                        // perfect charge cancellation artifacts.
                        let x0 = (i as f64 + 0.25 + 0.5 * b as f64) / per_beam as f64 * l;
                        let xp = if mode > 0 && amplitude != 0.0 {
                            grid.wrap_x(x0 + amplitude * l * (k * x0).sin())
                        } else {
                            x0
                        };
                        x.push(xp);
                        let vt = if self.vth > 0.0 {
                            self.vth * gaussian(&mut rng)
                        } else {
                            0.0
                        };
                        v.push(sign * self.v0 + vt);
                    }
                }
            }
        }
        Particles::electrons_normalized([x], [v], l)
    }
}

/// One population of a [`MultiBeamInit`] load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BeamSpec {
    /// Mean (drift) velocity of this population.
    pub drift: f64,
    /// Thermal spread of this population.
    pub vth: f64,
    /// Fraction of the total macro-particle count this population
    /// carries; the weights of an init must sum to ≈ 1.
    pub weight: f64,
}

/// Builder for an arbitrary superposition of drifting Maxwellian
/// populations — the general loading behind the engine's scenario registry
/// (bump-on-tail, asymmetric beams, multi-temperature plasmas).
/// [`TwoStreamInit`] is the symmetric two-beam special case.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiBeamInit {
    /// The populations; macro-particles are apportioned by `weight`.
    pub beams: Vec<BeamSpec>,
    /// Total number of macro-electrons across all populations.
    pub n_particles: usize,
    /// Loading strategy (applies to every population).
    pub loading: Loading,
    /// RNG seed.
    pub seed: u64,
}

impl MultiBeamInit {
    /// The bump-on-tail configuration: a bulk Maxwellian at rest plus a
    /// fast tenuous beam carrying `beam_fraction` of the density.
    #[cfg(test)]
    fn bump_on_tail(
        bulk_vth: f64,
        beam_v: f64,
        beam_vth: f64,
        beam_fraction: f64,
        n_particles: usize,
        seed: u64,
    ) -> Self {
        Self {
            beams: vec![
                BeamSpec {
                    drift: 0.0,
                    vth: bulk_vth,
                    weight: 1.0 - beam_fraction,
                },
                BeamSpec {
                    drift: beam_v,
                    vth: beam_vth,
                    weight: beam_fraction,
                },
            ],
            n_particles,
            loading: Loading::Random,
            seed,
        }
    }

    /// Builds the particle buffer on the given grid. Macro-particle counts
    /// per population are `weight·n` rounded, with the largest population
    /// absorbing the rounding remainder, so the total is exactly
    /// `n_particles`.
    ///
    /// # Panics
    /// Panics if there are no beams, no particles, weights are
    /// non-positive, or the weights do not sum to ≈ 1.
    pub fn build(&self, grid: &Grid1D) -> Particles {
        assert!(!self.beams.is_empty(), "need at least one beam");
        assert!(self.n_particles > 0, "need particles");
        assert!(
            self.beams.iter().all(|b| b.weight > 0.0 && b.vth >= 0.0),
            "beam weights must be positive and spreads non-negative"
        );
        let total_w: f64 = self.beams.iter().map(|b| b.weight).sum();
        assert!(
            (total_w - 1.0).abs() < 1e-9,
            "beam weights must sum to 1, got {total_w}"
        );

        // Apportion counts; largest population takes the remainder.
        let mut counts: Vec<usize> = self
            .beams
            .iter()
            .map(|b| (b.weight * self.n_particles as f64).round() as usize)
            .collect();
        let assigned: usize = counts.iter().sum();
        let largest = self
            .beams
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.weight.total_cmp(&b.1.weight))
            .map(|(i, _)| i)
            .expect("nonempty");
        if assigned > self.n_particles {
            let excess = assigned - self.n_particles;
            assert!(
                counts[largest] > excess,
                "weights too skewed for the particle count"
            );
            counts[largest] -= excess;
        } else {
            counts[largest] += self.n_particles - assigned;
        }

        let l = grid.lx();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut x = Vec::with_capacity(self.n_particles);
        let mut v = Vec::with_capacity(self.n_particles);
        for (beam, &count) in self.beams.iter().zip(&counts) {
            match self.loading {
                Loading::Random => {
                    for _ in 0..count {
                        x.push(rng.gen::<f64>() * l);
                        v.push(beam.drift + beam.vth * gaussian(&mut rng));
                    }
                }
                Loading::Quiet { mode, amplitude } => {
                    let k = grid.mode_wavenumber(mode.max(1));
                    for i in 0..count {
                        let x0 = (i as f64 + 0.5) / count as f64 * l;
                        let xp = if mode > 0 && amplitude != 0.0 {
                            grid.wrap_x(x0 + amplitude * l * (k * x0).sin())
                        } else {
                            x0
                        };
                        x.push(xp);
                        let vt = if beam.vth > 0.0 {
                            beam.vth * gaussian(&mut rng)
                        } else {
                            0.0
                        };
                        v.push(beam.drift + vt);
                    }
                }
            }
        }
        Particles::electrons_normalized([x], [v], l)
    }
}

/// Standard normal deviate by Box–Muller (rand 0.8 does not ship Gaussian
/// sampling without `rand_distr`; ten lines beat a dependency).
pub(crate) fn gaussian<R: Rng>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen();
        if u1 > f64::MIN_POSITIVE {
            let u2: f64 = rng.gen();
            return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> Grid1D {
        Grid1D::paper()
    }

    #[test]
    fn random_loading_balances_beams() {
        let p = TwoStreamInit::random(0.2, 0.0, 10_000, 7).build(&grid());
        assert_eq!(p.len(), 10_000);
        let plus = p.vel[0].iter().filter(|v| **v > 0.0).count();
        assert_eq!(plus, 5_000);
        // Cold beams: momentum exactly zero by construction.
        assert!(p.total_momentum()[0].abs() < 1e-12);
    }

    #[test]
    fn positions_inside_box() {
        let g = grid();
        for loading in [
            Loading::Random,
            Loading::Quiet {
                mode: 1,
                amplitude: 1e-3,
            },
        ] {
            let init = TwoStreamInit {
                v0: 0.2,
                vth: 0.01,
                n_particles: 2_000,
                loading,
                seed: 3,
            };
            let p = init.build(&g);
            for &x in &p.pos[0] {
                assert!((0.0..g.lx()).contains(&x), "x = {x}");
            }
        }
    }

    #[test]
    fn thermal_spread_statistics() {
        let vth = 0.01;
        let p = TwoStreamInit::random(0.2, vth, 200_000, 42).build(&grid());
        // Split by beam and check the spread of one beam.
        let beam_plus: Vec<f64> = p.vel[0].iter().copied().filter(|v| *v > 0.0).collect();
        let mean = beam_plus.iter().sum::<f64>() / beam_plus.len() as f64;
        let var = beam_plus
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f64>()
            / beam_plus.len() as f64;
        assert!((mean - 0.2).abs() < 1e-3, "beam mean {mean}");
        assert!(
            (var.sqrt() - vth).abs() < 5e-4,
            "beam spread {}",
            var.sqrt()
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let a = TwoStreamInit::random(0.2, 0.025, 1_000, 11).build(&grid());
        let b = TwoStreamInit::random(0.2, 0.025, 1_000, 11).build(&grid());
        assert_eq!(a, b);
        let c = TwoStreamInit::random(0.2, 0.025, 1_000, 12).build(&grid());
        assert_ne!(a.pos[0], c.pos[0]);
    }

    #[test]
    fn quiet_start_cold_beams_have_exact_velocities() {
        let p = TwoStreamInit::quiet(0.3, 0.0, 1_000, 0.0, 0).build(&grid());
        for &v in &p.vel[0] {
            assert!((v.abs() - 0.3).abs() < 1e-15);
        }
        assert!(p.total_momentum()[0].abs() < 1e-12);
    }

    #[test]
    fn quiet_perturbation_displaces_particles() {
        let g = grid();
        let flat = TwoStreamInit::quiet(0.2, 0.0, 2_000, 0.0, 0).build(&g);
        let pert = TwoStreamInit::quiet(0.2, 0.0, 2_000, 1e-2, 0).build(&g);
        let max_shift = flat.pos[0]
            .iter()
            .zip(&pert.pos[0])
            .map(|(a, b)| {
                let d = (a - b).abs();
                d.min(g.lx() - d)
            })
            .fold(0.0f64, f64::max);
        assert!(max_shift > 1e-3, "perturbation had no effect");
        assert!(
            max_shift < 0.05 * g.lx(),
            "perturbation too large: {max_shift}"
        );
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| gaussian(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "variance {var}");
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_particle_count_rejected() {
        let _ = TwoStreamInit::random(0.2, 0.0, 999, 0).build(&grid());
    }

    #[test]
    fn multi_beam_counts_and_moments() {
        let g = grid();
        let init = MultiBeamInit::bump_on_tail(0.05, 0.3, 0.01, 0.1, 30_000, 9);
        let p = init.build(&g);
        assert_eq!(p.len(), 30_000);
        // ~10% of particles in the fast beam around v = 0.3.
        let beam = p.vel[0].iter().filter(|v| **v > 0.2).count();
        assert!(
            (beam as f64 / 30_000.0 - 0.1).abs() < 0.02,
            "beam fraction {}",
            beam as f64 / 30_000.0
        );
        // Net momentum equals the beam's drift contribution.
        let [p_total] = p.total_momentum();
        let expected = 0.1 * 0.3 * p.mass() * 30_000.0;
        assert!(
            (p_total - expected).abs() / expected.abs() < 0.1,
            "momentum {p_total} vs expected {expected}"
        );
        for &xi in &p.pos[0] {
            assert!((0.0..g.lx()).contains(&xi));
        }
    }

    #[test]
    fn multi_beam_matches_two_stream_structure() {
        // A 50/50 symmetric multi-beam load carries the same first moments
        // as the dedicated two-stream loading.
        let g = grid();
        let init = MultiBeamInit {
            beams: vec![
                BeamSpec {
                    drift: 0.2,
                    vth: 0.0,
                    weight: 0.5,
                },
                BeamSpec {
                    drift: -0.2,
                    vth: 0.0,
                    weight: 0.5,
                },
            ],
            n_particles: 10_000,
            loading: Loading::Random,
            seed: 3,
        };
        let p = init.build(&g);
        assert_eq!(p.len(), 10_000);
        assert!(p.total_momentum()[0].abs() < 1e-12);
        let plus = p.vel[0].iter().filter(|v| **v > 0.0).count();
        assert_eq!(plus, 5_000);
    }

    #[test]
    fn multi_beam_quiet_loading_is_deterministic() {
        let g = grid();
        let init = MultiBeamInit {
            beams: vec![BeamSpec {
                drift: 0.0,
                vth: 0.05,
                weight: 1.0,
            }],
            n_particles: 2_000,
            loading: Loading::Quiet {
                mode: 1,
                amplitude: 1e-3,
            },
            seed: 5,
        };
        assert_eq!(init.build(&g), init.build(&g));
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn multi_beam_bad_weights_rejected() {
        let init = MultiBeamInit {
            beams: vec![BeamSpec {
                drift: 0.0,
                vth: 0.1,
                weight: 0.4,
            }],
            n_particles: 100,
            loading: Loading::Random,
            seed: 0,
        };
        let _ = init.build(&grid());
    }
}
