//! Residual dense block: `y = relu(x + Dense(x))`.
//!
//! The paper's §VII suggests that "the usage of neural networks fit to
//! encode time sequences, such as Residual networks (ResNet), might be a
//! better fit to DL-based PIC methods than MLPs" — this block lets the
//! `ablation_arch` experiment test a residual MLP against the plain one.

use crate::init::Init;
use crate::layer::Layer;
use crate::layers::dense::Dense;
use crate::tensor::Tensor;

/// A width-preserving residual block around one dense layer.
pub struct ResidualDense {
    inner: Dense,
    mask: Vec<bool>,
    // Reusable scratch for the ReLU-masked gradient (backward).
    scratch: Tensor,
}

impl ResidualDense {
    /// Creates a residual block of the given width.
    pub fn new(width: usize, init: Init, seed: u64) -> Self {
        Self {
            inner: Dense::new(width, width, init, seed),
            mask: Vec::new(),
            scratch: Tensor::zeros(&[0]),
        }
    }
}

impl Layer for ResidualDense {
    fn infer_into(&mut self, input: &Tensor, out: &mut Tensor) {
        self.inner.infer_into(input, out);
        for (o, &x) in out.data_mut().iter_mut().zip(input.data()) {
            *o = (*o + x).max(0.0);
        }
    }

    fn train_forward_into(&mut self, input: &Tensor, out: &mut Tensor) {
        self.inner.train_forward_into(input, out);
        self.mask.clear();
        for (o, &x) in out.data_mut().iter_mut().zip(input.data()) {
            let pre = *o + x;
            self.mask.push(pre > 0.0);
            *o = pre.max(0.0);
        }
    }

    fn backward_into(&mut self, grad_out: &Tensor, grad_in: &mut Tensor) {
        assert_eq!(
            grad_out.len(),
            self.mask.len(),
            "backward before train_forward_into"
        );
        // Through the ReLU.
        self.scratch.resize_in_place(grad_out.shape());
        for ((s, &g), &m) in self
            .scratch
            .data_mut()
            .iter_mut()
            .zip(grad_out.data())
            .zip(&self.mask)
        {
            *s = if m { g } else { 0.0 };
        }
        // Through the dense branch, plus the skip connection.
        self.inner.backward_into(&self.scratch, grad_in);
        grad_in.add_assign(&self.scratch);
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        self.inner.visit_params(f);
    }

    fn zero_grads(&mut self) {
        self.inner.zero_grads();
    }

    fn name(&self) -> &'static str {
        "residual-dense"
    }

    fn param_count(&self) -> usize {
        self.inner.param_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::tests::{backward, infer, train_forward};

    #[test]
    fn zero_weights_reduce_to_relu_identity() {
        let mut block = ResidualDense::new(3, Init::Zeros, 0);
        let x = Tensor::new(vec![1.0, -2.0, 0.5], &[1, 3]);
        let y = infer(&mut block, &x);
        assert_eq!(y.data(), &[1.0, 0.0, 0.5]);
    }

    #[test]
    fn skip_connection_carries_gradient() {
        let mut block = ResidualDense::new(2, Init::Zeros, 0);
        let x = Tensor::new(vec![1.0, 2.0], &[1, 2]); // all positive → mask open
        let _ = train_forward(&mut block, &x);
        let gx = backward(&mut block, &Tensor::new(vec![1.0, 1.0], &[1, 2]));
        // Zero weights: gradient flows only through the skip → identity.
        assert_eq!(gx.data(), &[1.0, 1.0]);
    }

    #[test]
    fn parameter_count_matches_inner_dense() {
        let block = ResidualDense::new(8, Init::HeNormal, 1);
        assert_eq!(block.param_count(), 8 * 8 + 8);
    }
}
