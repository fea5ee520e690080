//! Finite-difference gradient verification.
//!
//! The paper's substrate (TensorFlow) comes with battle-tested autodiff;
//! ours is hand-written, so every layer's backward pass is validated
//! against central finite differences. The checker perturbs a sample of
//! parameters (or all of them for small nets), recomputes the loss, and
//! compares against the analytic gradient.

use crate::loss::Loss;
use crate::network::Sequential;
use crate::tensor::Tensor;

/// Result of a gradient check.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GradCheckReport {
    /// Worst relative error across checked parameters.
    pub max_rel_error: f64,
    /// Number of parameters checked.
    pub checked: usize,
}

/// Verifies backprop gradients against central finite differences.
///
/// `stride` controls sampling: every `stride`-th parameter is perturbed
/// (1 = all). Relative error uses `|analytic - numeric| / max(|analytic|,
/// |numeric|, floor)` with a small floor to avoid 0/0.
pub(crate) fn check_gradients(
    net: &mut Sequential,
    loss: &dyn Loss,
    x: &Tensor,
    y: &Tensor,
    eps: f32,
    stride: usize,
) -> GradCheckReport {
    assert!(stride >= 1, "stride must be at least 1");

    // Analytic gradients.
    net.compute_gradients(loss, x, y);
    let mut analytic: Vec<Vec<f32>> = Vec::new();
    net.visit_params(&mut |_, g| analytic.push(g.to_vec()));

    let eval = |net: &mut Sequential| -> f64 {
        let pred = net.predict(x);
        let mut scratch = Tensor::zeros(pred.shape());
        loss.loss_and_grad(&pred, y, &mut scratch) as f64
    };

    let mut max_rel = 0.0f64;
    let mut checked = 0usize;
    let n_tensors = analytic.len();

    #[allow(clippy::needless_range_loop)]
    for t_idx in 0..n_tensors {
        let len = analytic[t_idx].len();
        let mut e_idx = 0;
        while e_idx < len {
            // Perturb +eps.
            poke(net, t_idx, e_idx, eps);
            let plus = eval(net);
            // Perturb -eps (2·eps down from the +eps state).
            poke(net, t_idx, e_idx, -2.0 * eps);
            let minus = eval(net);
            // Restore.
            poke(net, t_idx, e_idx, eps);

            let numeric = (plus - minus) / (2.0 * eps as f64);
            let a = analytic[t_idx][e_idx] as f64;
            let denom = a.abs().max(numeric.abs()).max(1e-4);
            let rel = (a - numeric).abs() / denom;
            max_rel = max_rel.max(rel);
            checked += 1;
            e_idx += stride;
        }
    }
    GradCheckReport {
        max_rel_error: max_rel,
        checked,
    }
}

/// Adds `delta` to parameter `elem` of the `tensor_idx`-th parameter slice.
fn poke(net: &mut Sequential, tensor_idx: usize, elem: usize, delta: f32) {
    let mut i = 0;
    net.visit_params(&mut |p, _| {
        if i == tensor_idx {
            p[elem] += delta;
        }
        i += 1;
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::Init;
    use crate::layers::{Conv2d, Dense, Flatten, MaxPool2, Relu, ResidualDense};
    use crate::loss::Mse;

    /// Deterministic pseudo-random data that avoids ReLU kinks (keeps
    /// finite differences smooth) by being generic in magnitude.
    fn pseudo(len: usize, seed: u64) -> Vec<f32> {
        (0..len)
            .map(|i| (((i as u64 + seed) * 2654435761 % 997) as f32 / 498.5) - 1.0)
            .collect()
    }

    #[test]
    fn dense_network_gradients_check_out() {
        let mut net = Sequential::new()
            .push(Dense::new(6, 10, Init::HeNormal, 1))
            .push(Relu::new())
            .push(Dense::new(10, 3, Init::GlorotUniform, 2));
        let x = Tensor::new(pseudo(4 * 6, 3), &[4, 6]);
        let y = Tensor::new(pseudo(4 * 3, 5), &[4, 3]);
        // eps trades ReLU-kink crossings (too large) against f32 round-off
        // in the loss difference (too small); 3e-3 sits between. A genuine
        // backward bug shows up as O(1) relative error, far above 5%.
        let report = check_gradients(&mut net, &Mse, &x, &y, 3e-3, 1);
        assert!(
            report.max_rel_error < 5e-2,
            "max rel err {}",
            report.max_rel_error
        );
        assert_eq!(report.checked, (6 * 10 + 10) + (10 * 3 + 3));
    }

    #[test]
    fn conv_network_gradients_check_out() {
        let mut net = Sequential::new()
            .push(Conv2d::new(1, 3, 3, Init::HeNormal, 7))
            .push(Relu::new())
            .push(MaxPool2::new())
            .push(Flatten::new())
            .push(Dense::new(3 * 2 * 2, 2, Init::GlorotUniform, 8));
        let x = Tensor::new(pseudo(2 * 16, 11), &[2, 1, 4, 4]);
        let y = Tensor::new(pseudo(2 * 2, 13), &[2, 2]);
        let report = check_gradients(&mut net, &Mse, &x, &y, 1e-2, 1);
        assert!(
            report.max_rel_error < 3e-2,
            "max rel err {}",
            report.max_rel_error
        );
    }

    #[test]
    fn residual_block_gradients_check_out() {
        let mut net = Sequential::new()
            .push(Dense::new(4, 6, Init::HeNormal, 21))
            .push(Relu::new())
            .push(ResidualDense::new(6, Init::HeNormal, 22))
            .push(Dense::new(6, 2, Init::GlorotUniform, 23));
        let x = Tensor::new(pseudo(3 * 4, 31), &[3, 4]);
        let y = Tensor::new(pseudo(3 * 2, 37), &[3, 2]);
        let report = check_gradients(&mut net, &Mse, &x, &y, 1e-2, 1);
        assert!(
            report.max_rel_error < 3e-2,
            "max rel err {}",
            report.max_rel_error
        );
    }

    #[test]
    fn stride_sampling_checks_fewer_params() {
        let mut net = Sequential::new().push(Dense::new(8, 8, Init::HeNormal, 41));
        let x = Tensor::new(pseudo(2 * 8, 43), &[2, 8]);
        let y = Tensor::new(pseudo(2 * 8, 47), &[2, 8]);
        let full = check_gradients(&mut net, &Mse, &x, &y, 1e-2, 1);
        let sampled = check_gradients(&mut net, &Mse, &x, &y, 1e-2, 7);
        assert!(sampled.checked < full.checked);
        assert!(sampled.checked > 0);
    }
}
