//! The Adam optimizer (Kingma & Ba) — the paper trains both networks with
//! "the Adam optimizer with a batch size of 64 samples and a learning rate
//! of 0.0001" (§IV.A).

use crate::network::Sequential;

/// Adam with bias-corrected first/second moment estimates.
pub struct Adam {
    /// Learning rate (paper: 1e-4).
    pub lr: f32,
    /// First-moment decay (default 0.9).
    pub beta1: f32,
    /// Second-moment decay (default 0.999).
    pub beta2: f32,
    /// Numerical floor (default 1e-8).
    pub eps: f32,
    t: u32,
    moments: Vec<(Vec<f32>, Vec<f32>)>,
}

impl Adam {
    /// Creates Adam with the standard β/ε defaults.
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            moments: Vec::new(),
        }
    }

    /// The paper's configuration: `lr = 1e-4`.
    pub fn paper() -> Self {
        Self::new(1e-4)
    }

    /// Steps taken so far.
    pub fn steps(&self) -> u32 {
        self.t
    }

    /// Applies one update from the gradients `net` has accumulated (the
    /// caller zeroes them via the next `compute_gradients`).
    pub fn step(&mut self, net: &mut Sequential) {
        self.t += 1;
        let (b1, b2, eps) = (self.beta1, self.beta2, self.eps);
        // Bias-correction scalars hoisted out of the per-element loop:
        // lr·(m̂) / (√v̂ + ε) with m̂ = m/(1−β₁ᵗ), v̂ = v/(1−β₂ᵗ) becomes
        // one fused step size and one reciprocal, leaving a single
        // division per element.
        let step_size = self.lr / (1.0 - b1.powi(self.t as i32));
        let inv_bc2 = 1.0 / (1.0 - b2.powi(self.t as i32));
        let mut idx = 0;
        let moments = &mut self.moments;
        net.visit_params(&mut |p, g| {
            if moments.len() <= idx {
                moments.push((vec![0.0; p.len()], vec![0.0; p.len()]));
            }
            let (m, v) = &mut moments[idx];
            debug_assert_eq!(m.len(), p.len(), "parameter layout changed between steps");
            for (((pv, &gv), mv), vv) in p
                .iter_mut()
                .zip(g.iter())
                .zip(m.iter_mut())
                .zip(v.iter_mut())
            {
                *mv = b1 * *mv + (1.0 - b1) * gv;
                *vv = b2 * *vv + (1.0 - b2) * gv * gv;
                *pv -= step_size * *mv / ((*vv * inv_bc2).sqrt() + eps);
            }
            idx += 1;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::Init;
    use crate::layers::{Dense, Relu};
    use crate::loss::Mse;
    use crate::tensor::Tensor;

    /// An ill-conditioned two-feature regression: one feature is 100×
    /// larger than the other. Adam's per-parameter scaling shines here.
    fn ill_conditioned() -> (Tensor, Tensor) {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..32 {
            let a = (i as f32 / 16.0) - 1.0;
            let b = 100.0 * (((i * 7) % 13) as f32 / 6.5 - 1.0);
            xs.push(a);
            xs.push(b);
            ys.push(3.0 * a + 0.01 * b);
        }
        (Tensor::new(xs, &[32, 2]), Tensor::new(ys, &[32, 1]))
    }

    #[test]
    fn adam_converges_where_sgd_is_slow() {
        let (x, y) = ill_conditioned();
        let run = |use_adam: bool| -> f32 {
            let mut net = Sequential::new().push(Dense::new(2, 1, Init::Zeros, 0));
            let mut adam = Adam::new(0.05);
            // Plain gradient descent, `p ← p − lr·g`. Its lr is capped by
            // the large feature: 1e-5 is near the stability limit for
            // this data.
            let lr = 1e-5;
            for _ in 0..400 {
                net.compute_gradients(&Mse, &x, &y);
                if use_adam {
                    adam.step(&mut net);
                } else {
                    net.visit_params(&mut |p, g| {
                        for (pv, gv) in p.iter_mut().zip(g.iter()) {
                            *pv -= lr * gv;
                        }
                    });
                }
            }
            net.compute_gradients(&Mse, &x, &y)
        };
        let adam_loss = run(true);
        let sgd_loss = run(false);
        assert!(
            adam_loss < sgd_loss * 0.5,
            "adam {adam_loss} vs sgd {sgd_loss}"
        );
    }

    #[test]
    fn adam_trains_a_small_mlp() {
        // y = sin-ish nonlinear target; just verify a big loss reduction.
        let x = Tensor::new((0..64).map(|i| i as f32 / 32.0 - 1.0).collect(), &[64, 1]);
        let y = x.map(|v| v * v);
        let mut net = Sequential::new()
            .push(Dense::new(1, 16, Init::HeNormal, 1))
            .push(Relu::new())
            .push(Dense::new(16, 1, Init::HeNormal, 2));
        let mut opt = Adam::new(0.01);
        let first = net.compute_gradients(&Mse, &x, &y);
        for _ in 0..500 {
            net.compute_gradients(&Mse, &x, &y);
            opt.step(&mut net);
        }
        let last = net.compute_gradients(&Mse, &x, &y);
        assert!(last < first * 0.02, "{first} -> {last}");
        assert_eq!(opt.steps(), 500);
    }

    #[test]
    fn first_step_size_is_lr_bounded() {
        // With bias correction, the very first Adam step is ≈ lr·sign(g).
        let mut net = Sequential::new().push(Dense::new(1, 1, Init::Zeros, 0));
        let x = Tensor::new(vec![1.0], &[1, 1]);
        let y = Tensor::new(vec![1.0], &[1, 1]);
        let mut opt = Adam::new(0.1);
        net.compute_gradients(&Mse, &x, &y);
        opt.step(&mut net);
        let mut w = 0.0;
        net.visit_params(&mut |p, _| {
            if p.len() == 1 && w == 0.0 {
                w = p[0];
            }
        });
        assert!((w.abs() - 0.1).abs() < 1e-3, "first step {w}");
    }
}
