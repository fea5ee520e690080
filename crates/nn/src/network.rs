//! Sequential network container.

use crate::frozen::{ping_pong, FreezeError, FrozenModel, Precision};
use crate::layer::Layer;
use crate::loss::Loss;
use crate::tensor::Tensor;

/// A feed-forward stack of layers — the shape of both architectures in the
/// paper's §IV.A.
#[derive(Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

/// Reusable ping-pong activation buffers for [`Sequential::predict_into`]
/// and [`FrozenModel::predict_into`]: once warm, repeated inference
/// performs no heap allocation.
pub struct PredictWorkspace {
    pub(crate) a: Tensor,
    pub(crate) b: Tensor,
}

impl Default for PredictWorkspace {
    fn default() -> Self {
        Self {
            a: Tensor::zeros(&[0]),
            b: Tensor::zeros(&[0]),
        }
    }
}

impl PredictWorkspace {
    /// An empty workspace; buffers grow to the network's widest
    /// activation on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Reusable buffers for [`Sequential::compute_gradients_into`]: two
/// ping-pong activation slots for the forward pass and a third slot so
/// the backward pass can ping-pong the gradient without touching the
/// loss input. Once warm, a full forward + loss + backward step performs
/// no heap allocation (layers cache activations in their own reused
/// buffers).
pub struct TrainWorkspace {
    bufs: [Tensor; 3],
}

impl Default for TrainWorkspace {
    fn default() -> Self {
        Self {
            bufs: [
                Tensor::zeros(&[0]),
                Tensor::zeros(&[0]),
                Tensor::zeros(&[0]),
            ],
        }
    }
}

impl TrainWorkspace {
    /// An empty workspace; buffers grow to the network's widest
    /// activation on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Disjoint (read, write) access to two of the workspace slots.
fn two_slots(bufs: &mut [Tensor; 3], src: usize, dst: usize) -> (&Tensor, &mut Tensor) {
    assert_ne!(src, dst);
    if src < dst {
        let (lo, hi) = bufs.split_at_mut(dst);
        (&lo[src], &mut hi[0])
    } else {
        let (lo, hi) = bufs.split_at_mut(src);
        (&hi[0], &mut lo[dst])
    }
}

impl Sequential {
    /// Creates an empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a layer (builder style).
    pub fn push(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Appends a boxed layer.
    pub fn push_boxed(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True for a network with no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Total trainable parameter count.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// Inference into a fresh output tensor: [`Sequential::predict_into`]
    /// through a workspace of its own.
    pub fn predict(&mut self, input: &Tensor) -> Tensor {
        self.predict_into(input, &mut PredictWorkspace::new())
            .clone()
    }

    /// Inference into the reusable `workspace`, returning a reference to
    /// the output activation. Layers alternate between the workspace's
    /// two buffers, so a warm workspace makes repeated inference
    /// allocation-free — the per-step path of the DL field solvers. The
    /// layer stack treats rows as independent samples and the kernels are
    /// row-stable, so row `i` of an `m`-row batch (`[m, in]`, or
    /// `[m, c, h, w]` for image inputs) is **bitwise identical** to that
    /// row run alone — what the engine's ensemble scheduler relies on
    /// when it folds `m` concurrent DL field solves into one GEMM.
    pub fn predict_into<'w>(
        &mut self,
        input: &Tensor,
        workspace: &'w mut PredictWorkspace,
    ) -> &'w Tensor {
        ping_pong(&mut self.layers, input, workspace, |layer, src, dst| {
            layer.infer_into(src, dst)
        })
    }

    /// One training step's gradient computation: zeroes gradients, runs
    /// forward + loss + backward. Returns the loss value. The caller then
    /// applies an optimizer step. Allocating convenience form of
    /// [`Sequential::compute_gradients_into`].
    pub fn compute_gradients(&mut self, loss: &dyn Loss, x: &Tensor, y: &Tensor) -> f32 {
        let mut ws = TrainWorkspace::new();
        self.compute_gradients_into(loss, x, y, &mut ws)
    }

    /// One training step's gradient computation through the reusable
    /// `workspace`: activations ping-pong between two workspace slots on
    /// the way up, the gradient ping-pongs through the third on the way
    /// down, so a warm workspace makes the whole step allocation-free —
    /// the per-batch path of [`crate::trainer::train`]. Every parameter
    /// gradient is bit-identical to [`Layer::train_forward_into`] + loss +
    /// [`Layer::backward_into`] through every layer; the first layer's
    /// input gradient is not computed ([`Layer::backward_params`]).
    pub fn compute_gradients_into(
        &mut self,
        loss: &dyn Loss,
        x: &Tensor,
        y: &Tensor,
        workspace: &mut TrainWorkspace,
    ) -> f32 {
        self.zero_grads();
        if self.layers.is_empty() {
            // Degenerate network: prediction is the input itself.
            workspace.bufs[0].copy_from(x);
            let (pred, grad) = two_slots(&mut workspace.bufs, 0, 2);
            grad.resize_in_place(pred.shape());
            return loss.loss_and_grad(pred, y, grad);
        }
        // Forward: x → bufs[1] → bufs[0] → bufs[1] → …
        let mut cur = 0;
        for (i, layer) in self.layers.iter_mut().enumerate() {
            let nxt = 1 - cur;
            let (src, dst) = two_slots(&mut workspace.bufs, cur, nxt);
            layer.train_forward_into(if i == 0 { x } else { src }, dst);
            cur = nxt;
        }
        // Loss gradient into the third slot.
        let (pred, grad) = two_slots(&mut workspace.bufs, cur, 2);
        grad.resize_in_place(pred.shape());
        let value = loss.loss_and_grad(pred, y, grad);
        // Backward: bufs[2] → the freed activation slot → bufs[2] → …
        // The first layer's input gradient has no reader: it only
        // accumulates its parameter gradients.
        let free = 1 - cur;
        let mut g = 2;
        for (i, layer) in self.layers.iter_mut().enumerate().rev() {
            let dst = if g == 2 { free } else { 2 };
            let (src, out) = two_slots(&mut workspace.bufs, g, dst);
            if i == 0 {
                layer.backward_params(src, out);
            } else {
                layer.backward_into(src, out);
            }
            g = dst;
        }
        value
    }

    /// Snapshots the weights into an immutable [`FrozenModel`] at the
    /// given storage precision — the shareable inference form
    /// (`Arc<FrozenModel>`) whose `&self` prediction path is
    /// bit-identical to this network's at [`Precision::F32`]. Training
    /// state (gradients, caches) stays behind; the network is unchanged.
    ///
    /// Fails on the first layer without a frozen form (conv / pooling /
    /// residual blocks), naming it: such a network runs only through
    /// [`Self::predict_into`], never inside a DL field solver. Fails as
    /// well, naming the layer, on a NaN or infinite weight or bias: every
    /// freeze of a trained network (1-D or 2-D) comes through here.
    pub fn freeze(&self, precision: Precision) -> Result<FrozenModel, FreezeError> {
        let mut layers = Vec::with_capacity(self.layers.len());
        for (layer_index, layer) in self.layers.iter().enumerate() {
            let layer_name = layer.name();
            let frozen = layer.freeze(precision).ok_or(FreezeError::NoFrozenForm {
                layer_index,
                layer_name,
            })?;
            if !frozen.is_finite() {
                return Err(FreezeError::NonFinite {
                    layer_index,
                    layer_name,
                });
            }
            layers.push(frozen);
        }
        Ok(FrozenModel::from_layers(layers, precision))
    }

    /// Visits every (parameter, gradient) slice pair in a stable order.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }

    /// Zeros all parameter gradients.
    pub fn zero_grads(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grads();
        }
    }

    /// One line per layer: name and parameter count.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (i, layer) in self.layers.iter().enumerate() {
            let _ = writeln!(
                out,
                "{i:>3}  {:<16} {:>10} params",
                layer.name(),
                layer.param_count()
            );
        }
        let _ = writeln!(out, "     total {:>21} params", self.param_count());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::Init;
    use crate::layers::{Dense, Relu};
    use crate::loss::Mse;

    fn tiny_net() -> Sequential {
        Sequential::new()
            .push(Dense::new(2, 4, Init::HeNormal, 1))
            .push(Relu::new())
            .push(Dense::new(4, 1, Init::HeNormal, 2))
    }

    #[test]
    fn forward_shapes_flow_through() {
        let mut net = tiny_net();
        let x = Tensor::zeros(&[3, 2]);
        let y = net.predict(&x);
        assert_eq!(y.shape(), &[3, 1]);
        assert_eq!(net.len(), 3);
        assert_eq!(net.param_count(), (2 * 4 + 4) + (4 + 1));
    }

    #[test]
    fn gradient_descent_reduces_loss_on_tiny_problem() {
        // Fit y = x0 - x1 with plain gradient descent on the raw grads.
        let mut net = tiny_net();
        let x = Tensor::new(vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.5, -0.5], &[4, 2]);
        let y = Tensor::new(vec![1.0, -1.0, 0.0, 1.0], &[4, 1]);
        let loss = Mse;
        let first = net.compute_gradients(&loss, &x, &y);
        for _ in 0..300 {
            net.compute_gradients(&loss, &x, &y);
            net.visit_params(&mut |p, g| {
                for (pv, gv) in p.iter_mut().zip(g.iter()) {
                    *pv -= 0.05 * gv;
                }
            });
        }
        let last = net.compute_gradients(&loss, &x, &y);
        assert!(last < first * 0.05, "loss {first} -> {last}");
    }

    /// A NaN or infinite weight or bias is refused by name at either
    /// precision, in the layer that holds it; a finite net freezes.
    #[test]
    fn freeze_refuses_a_non_finite_parameter() {
        assert!(tiny_net().freeze(Precision::F32).is_ok());
        // (parameter slice in visit order, index, value, layer index)
        for (slice, at, value, layer_index) in [
            (0, 0, f32::NAN, 0),
            (1, 3, f32::INFINITY, 0),
            (2, 1, f32::NEG_INFINITY, 2),
            (3, 0, f32::NAN, 2),
        ] {
            let mut net = tiny_net();
            let mut seen = 0;
            net.visit_params(&mut |p, _| {
                if seen == slice {
                    p[at] = value;
                }
                seen += 1;
            });
            for precision in [Precision::F32, Precision::Bf16] {
                assert_eq!(
                    net.freeze(precision).err(),
                    Some(FreezeError::NonFinite {
                        layer_index,
                        layer_name: "dense"
                    }),
                    "slice {slice} = {value} at {precision:?}"
                );
            }
        }
        // A finite f32 that rounds to a bf16 infinity is non-finite as
        // stored; at f32 it is kept.
        let mut net = tiny_net();
        net.visit_params(&mut |p, _| p[0] = f32::MAX);
        assert!(net.freeze(Precision::F32).is_ok());
        assert!(matches!(
            net.freeze(Precision::Bf16),
            Err(FreezeError::NonFinite { .. })
        ));
    }

    /// Every (parameter, gradient) pair as bit patterns, in visit order.
    fn param_grad_bits(net: &mut Sequential) -> Vec<(Vec<u32>, Vec<u32>)> {
        let bits = |s: &[f32]| s.iter().map(|v| v.to_bits()).collect();
        let mut out = Vec::new();
        net.visit_params(&mut |p, g| out.push((bits(p), bits(g))));
        out
    }

    /// `compute_gradients_into` skips the first layer's input gradient;
    /// every parameter gradient must still be bit-equal to the reference
    /// path — `train_forward_into` through every layer, `loss_and_grad`,
    /// then `backward_into` through every layer, the first included — and
    /// that path must keep producing the input gradient.
    #[test]
    fn skipping_the_input_gradient_changes_no_parameter_gradient() {
        use crate::layers::{Conv2d, Flatten, MaxPool2, ResidualDense};
        use crate::linalg::matmul_nt;
        use crate::linalg::tests::gen;
        let (batch, out) = (9, 5);
        // Features 0..8 are zero in every sample (a dead 8-row tile of the
        // first weight gradient), and every third entry besides.
        let input = |shape: &[usize]| {
            let width: usize = shape[1..].iter().product();
            let mut data = gen(batch * width, 17);
            for (i, v) in data.iter_mut().enumerate() {
                if i % width < 8 || i % 3 == 0 {
                    *v = 0.0;
                }
            }
            Tensor::new(data, shape)
        };
        let cases = [
            (
                "dense",
                Sequential::new().push(Dense::new(16, out, Init::HeNormal, 1)),
                vec![batch, 16],
            ),
            (
                "mlp",
                Sequential::new()
                    .push(Dense::new(16, 24, Init::HeNormal, 2))
                    .push(Relu::new())
                    .push(Dense::new(24, 24, Init::HeNormal, 3))
                    .push(Relu::new())
                    .push(Dense::new(24, out, Init::GlorotUniform, 4)),
                vec![batch, 16],
            ),
            (
                "resmlp",
                Sequential::new()
                    .push(Dense::new(16, 24, Init::HeNormal, 5))
                    .push(Relu::new())
                    .push(ResidualDense::new(24, Init::HeNormal, 6))
                    .push(ResidualDense::new(24, Init::HeNormal, 7))
                    .push(Dense::new(24, out, Init::GlorotUniform, 8)),
                vec![batch, 16],
            ),
            (
                "cnn",
                Sequential::new()
                    .push(Conv2d::new(1, 3, 3, Init::HeNormal, 9))
                    .push(Relu::new())
                    .push(MaxPool2::new())
                    .push(Flatten::new())
                    .push(Dense::new(3 * 2 * 2, out, Init::GlorotUniform, 10)),
                vec![batch, 1, 4, 4],
            ),
        ];
        let y = Tensor::new(gen(batch * out, 23), &[batch, out]);
        for (name, mut net, shape) in cases {
            let x = input(&shape);
            net.zero_grads();
            let mut pred = x.clone();
            for layer in &mut net.layers {
                let mut out = Tensor::zeros(&[0]);
                layer.train_forward_into(&pred, &mut out);
                pred = out;
            }
            let mut grad = Tensor::zeros(pred.shape());
            let loss = Mse.loss_and_grad(&pred, &y, &mut grad);
            let mut dx = grad.clone();
            for layer in net.layers.iter_mut().rev() {
                let mut grad_in = Tensor::zeros(&[0]);
                layer.backward_into(&dx, &mut grad_in);
                dx = grad_in;
            }
            assert_eq!(dx.shape(), x.shape(), "{name}: input gradient shape");
            assert!(
                dx.data().iter().any(|&v| v != 0.0),
                "{name}: no input gradient"
            );
            let reference = param_grad_bits(&mut net);
            if name == "dense" {
                // The one layer is the first layer: `backward_into` still
                // runs its `dX = dY·Wᵀ`.
                let mut w = Vec::new();
                net.visit_params(&mut |p, _| w.push(p.to_vec()));
                let mut want = vec![f32::NAN; batch * 16];
                matmul_nt(grad.data(), &w[0], &mut want, batch, out, 16);
                assert_eq!(dx.data(), &want[..], "dense: input gradient");
            }
            // Twice through one workspace: cold, then warm.
            let mut ws = TrainWorkspace::new();
            for pass in 0..2 {
                let got = net.compute_gradients_into(&Mse, &x, &y, &mut ws);
                assert_eq!(got.to_bits(), loss.to_bits(), "{name} pass {pass}: loss");
                assert!(
                    param_grad_bits(&mut net) == reference,
                    "{name} pass {pass}: a parameter gradient moved"
                );
            }
        }
    }

    #[test]
    fn predict_into_matches_predict() {
        let mut net = tiny_net();
        let mut ws = PredictWorkspace::new();
        for trial in 0..3 {
            let x = Tensor::new(
                (0..6).map(|i| (i + trial) as f32 * 0.3 - 0.8).collect(),
                &[3, 2],
            );
            let expect = net.predict(&x);
            let got = net.predict_into(&x, &mut ws);
            assert_eq!(got.shape(), expect.shape());
            assert_eq!(got.data(), expect.data());
        }
    }

    #[test]
    fn predict_batch_rows_bit_identical_to_solo_rows() {
        // The ensemble-batching contract at the network level: every row
        // of a batched inference equals the same input run alone,
        // bit for bit (row-stable GEMM kernels + per-row bias/ReLU).
        let mut net = Sequential::new()
            .push(Dense::new(6, 32, Init::HeNormal, 7))
            .push(Relu::new())
            .push(Dense::new(32, 17, Init::HeNormal, 8));
        for m in [1usize, 3, 8, 11] {
            let batch = Tensor::new(
                (0..m * 6).map(|i| (i as f32 * 0.37).sin()).collect(),
                &[m, 6],
            );
            let mut batch_ws = PredictWorkspace::new();
            let out = net.predict_into(&batch, &mut batch_ws).clone();
            assert_eq!(out.shape(), &[m, 17]);
            for r in 0..m {
                let row = Tensor::new(batch.data()[r * 6..(r + 1) * 6].to_vec(), &[1, 6]);
                let mut solo_ws = PredictWorkspace::new();
                let solo = net.predict_into(&row, &mut solo_ws);
                for (j, (x, y)) in out.data()[r * 17..(r + 1) * 17]
                    .iter()
                    .zip(solo.data())
                    .enumerate()
                {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "m={m} row {r} elem {j}: batched {x} != solo {y}"
                    );
                }
            }
        }
    }

    #[test]
    fn predict_into_on_empty_network_copies_input() {
        let mut net = Sequential::new();
        let mut ws = PredictWorkspace::new();
        let x = Tensor::new(vec![1.0, -2.0], &[1, 2]);
        let y = net.predict_into(&x, &mut ws);
        assert_eq!(y.data(), x.data());
        assert_eq!(y.shape(), x.shape());
    }

    #[test]
    fn summary_lists_layers() {
        let net = tiny_net();
        let s = net.summary();
        assert!(s.contains("dense"));
        assert!(s.contains("relu"));
        assert!(s.contains("total"));
    }
}
