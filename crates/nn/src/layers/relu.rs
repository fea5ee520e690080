//! Rectified linear activation.

use crate::frozen::{FrozenLayer, Precision};
use crate::layer::Layer;
use crate::tensor::Tensor;

/// ReLU inference, `out = max(0, input)` element-wise (resized in place):
/// the one implementation that [`Relu`] and a frozen ReLU run.
pub(crate) fn infer(input: &Tensor, out: &mut Tensor) {
    out.resize_in_place(input.shape());
    for (o, &v) in out.data_mut().iter_mut().zip(input.data()) {
        *o = v.max(0.0);
    }
}

/// Element-wise `max(0, x)`; the hidden activation of the paper's MLP and
/// CNN (§IV.A).
#[derive(Default)]
pub struct Relu {
    mask: Vec<bool>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Relu {
    fn infer_into(&mut self, input: &Tensor, out: &mut Tensor) {
        infer(input, out);
    }

    fn train_forward_into(&mut self, input: &Tensor, out: &mut Tensor) {
        self.mask.clear();
        self.mask.extend(input.data().iter().map(|&v| v > 0.0));
        infer(input, out);
    }

    fn backward_into(&mut self, grad_out: &Tensor, grad_in: &mut Tensor) {
        assert_eq!(
            grad_out.len(),
            self.mask.len(),
            "backward before train_forward_into"
        );
        grad_in.resize_in_place(grad_out.shape());
        for ((gi, &g), &m) in grad_in
            .data_mut()
            .iter_mut()
            .zip(grad_out.data())
            .zip(&self.mask)
        {
            *gi = if m { g } else { 0.0 };
        }
    }

    fn freeze(&self, _precision: Precision) -> Option<FrozenLayer> {
        Some(FrozenLayer::Relu)
    }

    fn name(&self) -> &'static str {
        "relu"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::tests::{backward, infer, train_forward};

    #[test]
    fn forward_clamps_negatives() {
        let mut r = Relu::new();
        let x = Tensor::new(vec![-1.0, 0.0, 2.0], &[1, 3]);
        let y = infer(&mut r, &x);
        assert_eq!(y.data(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn backward_masks_gradient() {
        let mut r = Relu::new();
        let x = Tensor::new(vec![-1.0, 0.5, 2.0, -0.1], &[2, 2]);
        let _ = train_forward(&mut r, &x);
        let gy = Tensor::new(vec![1.0, 1.0, 1.0, 1.0], &[2, 2]);
        let gx = backward(&mut r, &gy);
        assert_eq!(gx.data(), &[0.0, 1.0, 1.0, 0.0]);
    }

    #[test]
    fn zero_input_has_zero_gradient() {
        // Subgradient convention: d relu/dx at exactly 0 is 0.
        let mut r = Relu::new();
        let x = Tensor::new(vec![0.0], &[1, 1]);
        let _ = train_forward(&mut r, &x);
        let gx = backward(&mut r, &Tensor::new(vec![5.0], &[1, 1]));
        assert_eq!(gx.data(), &[0.0]);
    }
}
