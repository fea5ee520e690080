//! Flattening layer: `[batch, ...] → [batch, features]` between the
//! convolutional blocks and the dense head of the paper's CNN.

use crate::frozen::{FrozenLayer, Precision};
use crate::layer::Layer;
use crate::tensor::Tensor;

/// Flatten inference, `[batch, ...] → [batch, features]` copied into `out`
/// (resized in place): the one implementation that [`Flatten`] and a
/// frozen flatten run.
pub(crate) fn infer(input: &Tensor, out: &mut Tensor) {
    out.resize_in_place(&[input.batch(), input.row_len()]);
    out.data_mut().copy_from_slice(input.data());
}

/// Collapses all trailing dimensions into one.
#[derive(Default)]
pub struct Flatten {
    input_shape: Vec<usize>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Flatten {
    fn infer_into(&mut self, input: &Tensor, out: &mut Tensor) {
        infer(input, out);
    }

    fn train_forward_into(&mut self, input: &Tensor, out: &mut Tensor) {
        self.input_shape.clear();
        self.input_shape.extend_from_slice(input.shape());
        infer(input, out);
    }

    fn backward_into(&mut self, grad_out: &Tensor, grad_in: &mut Tensor) {
        assert!(
            !self.input_shape.is_empty(),
            "backward before train_forward_into"
        );
        grad_in.resize_in_place(&self.input_shape);
        grad_in.data_mut().copy_from_slice(grad_out.data());
    }

    fn freeze(&self, _precision: Precision) -> Option<FrozenLayer> {
        Some(FrozenLayer::Flatten)
    }

    fn name(&self) -> &'static str {
        "flatten"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::tests::{backward, train_forward};

    #[test]
    fn round_trip_preserves_shape_and_data() {
        let mut fl = Flatten::new();
        let x = Tensor::new((0..24).map(|i| i as f32).collect(), &[2, 3, 2, 2]);
        let y = train_forward(&mut fl, &x);
        assert_eq!(y.shape(), &[2, 12]);
        assert_eq!(y.data(), x.data());
        let gx = backward(&mut fl, &y);
        assert_eq!(gx.shape(), x.shape());
        assert_eq!(gx.data(), x.data());
    }
}
