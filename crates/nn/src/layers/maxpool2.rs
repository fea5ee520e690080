//! 2×2 max pooling with stride 2 — the "MaxPooling layer" after each
//! convolutional block of the paper's CNN (§IV.A).

use crate::layer::Layer;
use crate::tensor::Tensor;

/// 2×2/stride-2 max pooling on `[batch, ch, h, w]` tensors with even
/// spatial dimensions.
#[derive(Default)]
pub struct MaxPool2 {
    argmax: Vec<usize>,
    input_shape: Vec<usize>,
}

impl MaxPool2 {
    /// Creates a pooling layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl MaxPool2 {
    /// Shared forward: writes the pooled output into `out` (resized in
    /// place), recording argmax indices when `training`.
    fn forward_core(&mut self, input: &Tensor, out: &mut Tensor, training: bool) {
        let shape = input.shape();
        assert_eq!(
            shape.len(),
            4,
            "maxpool expects [batch, ch, h, w], got {shape:?}"
        );
        let (batch, ch, h, w) = (shape[0], shape[1], shape[2], shape[3]);
        assert!(
            h % 2 == 0 && w % 2 == 0,
            "maxpool needs even spatial dims, got {h}x{w}"
        );
        let (oh, ow) = (h / 2, w / 2);
        out.resize_in_place(&[batch, ch, oh, ow]);
        if training {
            self.argmax.clear();
            self.argmax.resize(out.len(), 0);
            self.input_shape.clear();
            self.input_shape.extend_from_slice(shape);
        }
        let data = input.data();
        let out_data = out.data_mut();
        for bc in 0..batch * ch {
            let plane = &data[bc * h * w..(bc + 1) * h * w];
            let out_plane = &mut out_data[bc * oh * ow..(bc + 1) * oh * ow];
            for oy in 0..oh {
                for ox in 0..ow {
                    let base = (2 * oy) * w + 2 * ox;
                    let candidates = [base, base + 1, base + w, base + w + 1];
                    let mut best = candidates[0];
                    let mut best_v = plane[best];
                    for &c in &candidates[1..] {
                        if plane[c] > best_v {
                            best_v = plane[c];
                            best = c;
                        }
                    }
                    out_plane[oy * ow + ox] = best_v;
                    if training {
                        self.argmax[bc * oh * ow + oy * ow + ox] = bc * h * w + best;
                    }
                }
            }
        }
    }
}

impl Layer for MaxPool2 {
    fn infer_into(&mut self, input: &Tensor, out: &mut Tensor) {
        self.forward_core(input, out, false);
    }

    fn train_forward_into(&mut self, input: &Tensor, out: &mut Tensor) {
        self.forward_core(input, out, true);
    }

    fn backward_into(&mut self, grad_out: &Tensor, grad_in: &mut Tensor) {
        assert_eq!(
            grad_out.len(),
            self.argmax.len(),
            "backward before train_forward_into"
        );
        grad_in.resize_in_place(&self.input_shape);
        let gi = grad_in.data_mut();
        gi.fill(0.0);
        for (&g, &src) in grad_out.data().iter().zip(&self.argmax) {
            gi[src] += g;
        }
    }

    fn name(&self) -> &'static str {
        "maxpool2"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::tests::{backward, infer, train_forward};

    #[test]
    fn forward_picks_block_maxima() {
        let mut pool = MaxPool2::new();
        #[rustfmt::skip]
        let x = Tensor::new(vec![
            1.0, 2.0,  3.0, 4.0,
            5.0, 6.0,  7.0, 8.0,

            9.0, 10.0, 11.0, 12.0,
            13.0, 14.0, 15.0, 16.0,
        ], &[1, 1, 4, 4]);
        let y = infer(&mut pool, &x);
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[6.0, 8.0, 14.0, 16.0]);
    }

    #[test]
    fn backward_routes_gradient_to_argmax() {
        let mut pool = MaxPool2::new();
        let x = Tensor::new(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]);
        let _ = train_forward(&mut pool, &x);
        let gx = backward(&mut pool, &Tensor::new(vec![5.0], &[1, 1, 1, 1]));
        assert_eq!(gx.data(), &[0.0, 0.0, 0.0, 5.0]);
    }

    #[test]
    fn ties_route_to_first_maximum() {
        let mut pool = MaxPool2::new();
        let x = Tensor::new(vec![7.0, 7.0, 7.0, 7.0], &[1, 1, 2, 2]);
        let _ = train_forward(&mut pool, &x);
        let gx = backward(&mut pool, &Tensor::new(vec![1.0], &[1, 1, 1, 1]));
        assert_eq!(gx.data(), &[1.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn channels_pool_independently() {
        let mut pool = MaxPool2::new();
        let x = Tensor::new(
            vec![
                1.0, 0.0, 0.0, 0.0, // ch 0
                0.0, 0.0, 0.0, 9.0, // ch 1
            ],
            &[1, 2, 2, 2],
        );
        let y = infer(&mut pool, &x);
        assert_eq!(y.data(), &[1.0, 9.0]);
    }

    #[test]
    #[should_panic(expected = "even spatial dims")]
    fn odd_dims_rejected() {
        let mut pool = MaxPool2::new();
        let _ = infer(&mut pool, &Tensor::zeros(&[1, 1, 3, 4]));
    }
}
