//! Physics-informed loss — the paper's §VII improvement path.
//!
//! > "To be competitive with other PIC methods in terms of physical
//! > accuracy, a DL-based PIC should explicitly integrate the conservation
//! > laws in the scheme. … The usage of PINN would improve the
//! > conservation of total energy and momentum."
//!
//! [`PhysicsInformedMse`] augments the MSE with two soft constraints on the
//! *predicted field itself* (no extra inputs needed):
//!
//! * **zero-mean penalty** — a periodic neutral plasma has `Σ_j E_j = 0`;
//!   a biased prediction exerts a net force on the plasma and is exactly
//!   what drives the momentum drift of the paper's Fig. 5. Weight
//!   `lambda_mean`.
//! * **Gauss-law-consistency penalty** — matches the discrete derivative
//!   of the prediction to that of the target (`dE/dx = ρ`), damping
//!   high-wavenumber error. Weight `lambda_gauss`.
//!
//! The `ablation_physics_loss` experiment measures the effect on DL-PIC
//! momentum conservation.

use dlpic_nn::loss::Loss;
use dlpic_nn::tensor::Tensor;

/// MSE plus zero-mean and Gauss-law-consistency penalties.
pub struct PhysicsInformedMse {
    /// Weight of the squared-mean penalty.
    pub lambda_mean: f32,
    /// Weight of the derivative-matching penalty.
    pub lambda_gauss: f32,
}

impl PhysicsInformedMse {
    /// Creates the loss with the given penalty weights.
    pub fn new(lambda_mean: f32, lambda_gauss: f32) -> Self {
        Self {
            lambda_mean,
            lambda_gauss,
        }
    }
}

/// Periodic central difference of one row, unit spacing.
fn central_diff(row: &[f32], out: &mut [f32]) {
    let n = row.len();
    // Index form: the periodic wrap needs j−1 and j+1 of each j.
    #[allow(clippy::needless_range_loop)]
    for j in 0..n {
        let jm = if j == 0 { n - 1 } else { j - 1 };
        let jp = if j + 1 == n { 0 } else { j + 1 };
        out[j] = 0.5 * (row[jp] - row[jm]);
    }
}

impl Loss for PhysicsInformedMse {
    fn loss_and_grad(&self, pred: &Tensor, target: &Tensor, grad: &mut Tensor) -> f32 {
        assert_eq!(pred.shape(), target.shape(), "pred/target shape mismatch");
        assert_eq!(pred.shape(), grad.shape(), "grad shape mismatch");
        let batch = pred.batch();
        let n = pred.row_len();
        let total = (batch * n) as f32;

        // Base MSE.
        let mut loss = 0.0f64;
        for ((&p, &t), g) in pred.data().iter().zip(target.data()).zip(grad.data_mut()) {
            let d = p - t;
            loss += (d * d) as f64;
            *g = 2.0 * d / total;
        }
        loss /= total as f64;

        // Zero-mean penalty: λm · (1/B) Σ_b mean_b².
        if self.lambda_mean > 0.0 {
            for b in 0..batch {
                let row = pred.row(b);
                let mean = row.iter().sum::<f32>() / n as f32;
                loss += (self.lambda_mean * mean * mean) as f64 / batch as f64;
                let g_add = self.lambda_mean * 2.0 * mean / (n as f32 * batch as f32);
                for g in &mut grad.data_mut()[b * n..(b + 1) * n] {
                    *g += g_add;
                }
            }
        }

        // Gauss-law consistency: λg · (1/(B·n)) Σ_b ‖D·pred - D·target‖².
        if self.lambda_gauss > 0.0 {
            let mut dp = vec![0.0f32; n];
            let mut dt = vec![0.0f32; n];
            let mut resid = vec![0.0f32; n];
            for b in 0..batch {
                central_diff(pred.row(b), &mut dp);
                central_diff(target.row(b), &mut dt);
                for ((r, &a), &c) in resid.iter_mut().zip(&dp).zip(&dt) {
                    *r = a - c;
                    loss += (self.lambda_gauss * *r * *r) as f64 / total as f64;
                }
                // ∂‖r‖²/∂pred_k = Σ_j 2 r_j ∂(Dp)_j/∂p_k = r_{k-1} - r_{k+1}
                // (each ∂(Dp)_{k∓1}/∂p_k = ±1/2, times 2 r).
                let g_row = &mut grad.data_mut()[b * n..(b + 1) * n];
                // Index form: the periodic wrap needs k−1 and k+1 of each k.
                #[allow(clippy::needless_range_loop)]
                for k in 0..n {
                    let km = if k == 0 { n - 1 } else { k - 1 };
                    let kp = if k + 1 == n { 0 } else { k + 1 };
                    g_row[k] += self.lambda_gauss * (resid[km] - resid[kp]) / total;
                }
            }
        }
        loss as f32
    }

    fn name(&self) -> &'static str {
        "physics-informed-mse"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlpic_nn::loss::Mse;

    fn pseudo(len: usize, seed: u64) -> Vec<f32> {
        (0..len)
            .map(|i| (((i as u64 + seed) * 2654435761 % 997) as f32 / 498.5) - 1.0)
            .collect()
    }

    #[test]
    fn reduces_to_mse_with_zero_lambdas() {
        let pi = PhysicsInformedMse::new(0.0, 0.0);
        let pred = Tensor::new(pseudo(2 * 8, 1), &[2, 8]);
        let target = Tensor::new(pseudo(2 * 8, 2), &[2, 8]);
        let mut g1 = Tensor::zeros(&[2, 8]);
        let mut g2 = Tensor::zeros(&[2, 8]);
        let l1 = pi.loss_and_grad(&pred, &target, &mut g1);
        let l2 = Mse.loss_and_grad(&pred, &target, &mut g2);
        assert!((l1 - l2).abs() < 1e-7);
        assert_eq!(g1.data(), g2.data());
    }

    #[test]
    fn mean_penalty_punishes_biased_predictions() {
        let pi = PhysicsInformedMse::new(10.0, 0.0);
        let target = Tensor::zeros(&[1, 8]);
        // Two predictions with identical MSE: one zero-mean, one biased.
        let balanced = Tensor::new(vec![0.1, -0.1, 0.1, -0.1, 0.1, -0.1, 0.1, -0.1], &[1, 8]);
        let biased = Tensor::new(vec![0.1; 8], &[1, 8]);
        let mut g = Tensor::zeros(&[1, 8]);
        let l_bal = pi.loss_and_grad(&balanced, &target, &mut g);
        let l_bias = pi.loss_and_grad(&biased, &target, &mut g);
        assert!(l_bias > l_bal * 2.0, "biased {l_bias} vs balanced {l_bal}");
    }

    #[test]
    fn gauss_penalty_punishes_derivative_mismatch() {
        let pi = PhysicsInformedMse::new(0.0, 10.0);
        let n = 16;
        let target = Tensor::new(
            (0..n)
                .map(|j| (2.0 * std::f32::consts::PI * j as f32 / n as f32).sin() * 0.1)
                .collect(),
            &[1, n],
        );
        // Same L2 scale of error, different roughness. The wiggle has
        // period 4 — period 2 (Nyquist) is invisible to a central
        // difference, so it would not exercise the penalty.
        let smooth = target.map(|v| v * 0.9);
        let rough = Tensor::new(
            target
                .data()
                .iter()
                .enumerate()
                .map(|(j, &v)| v + if j % 4 < 2 { 0.01 } else { -0.01 })
                .collect(),
            &[1, n],
        );
        let mut g = Tensor::zeros(&[1, n]);
        let l_smooth = pi.loss_and_grad(&smooth, &target, &mut g);
        let l_rough = pi.loss_and_grad(&rough, &target, &mut g);
        assert!(l_rough > l_smooth, "rough {l_rough} vs smooth {l_smooth}");
    }

    #[test]
    fn gradients_verify_against_finite_differences() {
        // Central differences of the loss in each prediction element
        // against the analytic gradient `loss_and_grad` writes.
        let pi = PhysicsInformedMse::new(0.5, 0.8);
        let mut pred = Tensor::new(pseudo(3 * 8, 5), &[3, 8]);
        let target = Tensor::new(pseudo(3 * 8, 7), &[3, 8]);
        let mut grad = Tensor::zeros(&[3, 8]);
        pi.loss_and_grad(&pred, &target, &mut grad);
        let mut scratch = Tensor::zeros(&[3, 8]);
        let eps = 3e-3f32;
        let mut max_rel = 0.0f64;
        for i in 0..pred.len() {
            pred.data_mut()[i] += eps;
            let plus = pi.loss_and_grad(&pred, &target, &mut scratch) as f64;
            pred.data_mut()[i] -= 2.0 * eps;
            let minus = pi.loss_and_grad(&pred, &target, &mut scratch) as f64;
            pred.data_mut()[i] += eps;
            let numeric = (plus - minus) / (2.0 * eps as f64);
            let analytic = grad.data()[i] as f64;
            let rel = (analytic - numeric).abs() / analytic.abs().max(numeric.abs()).max(1e-4);
            max_rel = max_rel.max(rel);
        }
        assert!(max_rel < 5e-2, "max rel err {max_rel}");
    }
}
