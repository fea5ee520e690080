//! Weight initialization.
//!
//! He-normal for ReLU layers, Glorot-uniform as the general default — the
//! same defaults Keras would have applied to the paper's models
//! (`Dense(..., activation='relu')` uses Glorot by default in Keras; both
//! are provided and the builders in `dlpic-core` pick He for the
//! ReLU-activated hidden layers, which trains slightly faster and makes no
//! qualitative difference).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// He-normal weights drawn per batch: the uniform pairs of one batch take
/// 2 MiB of scratch.
const DRAW_BATCH: usize = 1 << 17;

/// Weights per run of the Box–Muller transform on the team.
const RUN: usize = 1 << 12;

/// Weight-initialization scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Init {
    /// He normal: `N(0, sqrt(2/fan_in))`.
    HeNormal,
    /// Glorot (Xavier) uniform: `U(±sqrt(6/(fan_in+fan_out)))`.
    GlorotUniform,
    /// All zeros (biases).
    Zeros,
}

impl Init {
    /// Fills a buffer of `len` weights with the scheme, deterministically
    /// from `seed`.
    ///
    /// He-normal weights take their uniforms from the one stream in
    /// order, a batch at a time, and the batch's Box–Muller transforms
    /// (`ln`, `sqrt`, `cos`: most of the cost) then run on the team —
    /// the same bits as one weight at a time on one thread.
    pub fn fill(self, buf: &mut [f32], fan_in: usize, fan_out: usize, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        match self {
            Init::Zeros => buf.fill(0.0),
            Init::HeNormal => {
                let std = (2.0 / fan_in.max(1) as f64).sqrt();
                let team = dlpic_team::global();
                let mut draws = Vec::with_capacity(DRAW_BATCH.min(buf.len()));
                for batch in buf.chunks_mut(DRAW_BATCH) {
                    draws.clear();
                    draws.extend(batch.iter().map(|_| uniform_pair(&mut rng)));
                    let run = team.share(batch.len(), RUN);
                    let runs = batch.chunks_mut(run).zip(draws.chunks(run));
                    team.for_each_item(runs, |(weights, pairs)| {
                        for (w, &(u1, u2)) in weights.iter_mut().zip(pairs) {
                            *w = (std * box_muller(u1, u2)) as f32;
                        }
                    });
                }
            }
            Init::GlorotUniform => {
                let limit = (6.0 / (fan_in + fan_out).max(1) as f64).sqrt();
                for w in buf.iter_mut() {
                    *w = (limit * (2.0 * rng.gen::<f64>() - 1.0)) as f32;
                }
            }
        }
    }
}

/// The two uniforms of one Box–Muller deviate, `u1` redrawn until it is
/// above `f64::MIN_POSITIVE` (`rand` 0.8 has no Gaussian without
/// `rand_distr`).
fn uniform_pair<R: Rng>(rng: &mut R) -> (f64, f64) {
    loop {
        let u1: f64 = rng.gen();
        if u1 > f64::MIN_POSITIVE {
            return (u1, rng.gen());
        }
    }
}

/// The standard normal deviate of a [`uniform_pair`].
fn box_muller(u1: f64, u2: f64) -> f64 {
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn he_normal_variance() {
        let fan_in = 256;
        let mut buf = vec![0.0f32; 100_000];
        Init::HeNormal.fill(&mut buf, fan_in, 64, 1);
        let mean = buf.iter().sum::<f32>() / buf.len() as f32;
        let var = buf.iter().map(|w| (w - mean) * (w - mean)).sum::<f32>() / buf.len() as f32;
        let expect = 2.0 / fan_in as f32;
        // SE of the mean ≈ σ/√n ≈ 2.8e-4; allow 5 SE.
        assert!(mean.abs() < 1.5e-3, "mean {mean}");
        assert!(
            (var - expect).abs() / expect < 0.05,
            "var {var} vs {expect}"
        );
    }

    #[test]
    fn glorot_uniform_bounds() {
        let (fan_in, fan_out) = (100, 50);
        let limit = (6.0 / 150.0f32).sqrt();
        let mut buf = vec![0.0f32; 10_000];
        Init::GlorotUniform.fill(&mut buf, fan_in, fan_out, 2);
        assert!(buf.iter().all(|w| w.abs() <= limit + 1e-6));
        // Spread should actually use the range.
        let max = buf.iter().fold(0.0f32, |m, w| m.max(w.abs()));
        assert!(max > 0.9 * limit);
    }

    #[test]
    fn deterministic_under_seed() {
        let mut a = vec![0.0f32; 64];
        let mut b = vec![0.0f32; 64];
        Init::HeNormal.fill(&mut a, 8, 8, 42);
        Init::HeNormal.fill(&mut b, 8, 8, 42);
        assert_eq!(a, b);
        Init::HeNormal.fill(&mut b, 8, 8, 43);
        assert_ne!(a, b);
    }

    /// He-normal weights drawn a batch at a time and transformed on the
    /// team are the one-at-a-time draw bit for bit: the same stream, the
    /// same `u1` rejection, across a batch boundary.
    #[test]
    fn he_normal_is_the_sequential_draw() {
        let (len, fan_in, seed) = (DRAW_BATCH + 3 * RUN + 5, 300, 11);
        let mut rng = StdRng::seed_from_u64(seed);
        let std = (2.0 / fan_in as f64).sqrt();
        let want: Vec<u32> = (0..len)
            .map(|_| {
                let g = loop {
                    let u1: f64 = rng.gen();
                    if u1 > f64::MIN_POSITIVE {
                        let u2: f64 = rng.gen();
                        break (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                    }
                };
                ((std * g) as f32).to_bits()
            })
            .collect();
        let mut buf = vec![0.0f32; len];
        Init::HeNormal.fill(&mut buf, fan_in, 1, seed);
        assert!(buf.iter().map(|w| w.to_bits()).eq(want));
    }

    #[test]
    fn zeros_is_zeros() {
        let mut buf = vec![1.0f32; 16];
        Init::Zeros.fill(&mut buf, 4, 4, 0);
        assert!(buf.iter().all(|&w| w == 0.0));
    }
}
