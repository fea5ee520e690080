//! The layer abstraction: forward, backward, parameter visitation.

use crate::frozen::{FrozenLayer, Precision};
use crate::tensor::Tensor;

/// A differentiable layer.
///
/// Every pass writes into a caller-owned tensor, resized in place, so a
/// warm buffer makes repeated calls allocation-free. The backward
/// contract: [`Layer::train_forward_into`] caches whatever the backward
/// pass needs; [`Layer::backward_into`] consumes the gradient w.r.t. the
/// layer *output*, accumulates parameter gradients internally (`+=`, so
/// callers zero them between optimizer steps via [`Layer::zero_grads`])
/// and writes the gradient w.r.t. the layer *input*. The first layer of a
/// training step has no one to hand that input gradient to, so the
/// trainer calls [`Layer::backward_params`] there instead: the same
/// parameter gradients, bit for bit, and no input gradient.
pub trait Layer: Send {
    /// Inference into `out`, retaining no activation cache — the per-step
    /// path of the DL field solvers.
    fn infer_into(&mut self, input: &Tensor, out: &mut Tensor);

    /// Training-time forward into `out`: the same output as
    /// [`Layer::infer_into`], with the activation cache for backprop
    /// retained — the per-batch path of `nn::trainer`.
    fn train_forward_into(&mut self, input: &Tensor, out: &mut Tensor);

    /// Backpropagation: accumulates parameter gradients and writes the
    /// input gradient into `grad_in`. Must be preceded by a
    /// [`Layer::train_forward_into`].
    fn backward_into(&mut self, grad_out: &Tensor, grad_in: &mut Tensor);

    /// Backpropagation that only accumulates parameter gradients — what
    /// [`crate::Sequential::compute_gradients_into`] runs on the network's
    /// first layer, whose input gradient nobody reads. The parameter
    /// gradients must be bit-identical to [`Layer::backward_into`]'s;
    /// `scratch` is a workspace slot the layer may use or leave alone.
    /// The default runs [`Layer::backward_into`] into `scratch`; a layer
    /// whose input gradient costs real work (dense) overrides it.
    fn backward_params(&mut self, grad_out: &Tensor, scratch: &mut Tensor) {
        self.backward_into(grad_out, scratch);
    }

    /// Visits each (parameter, gradient) pair in a stable order. Layers
    /// without parameters do nothing (default).
    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut [f32], &mut [f32])) {}

    /// Zeros the accumulated parameter gradients (default: no-op).
    fn zero_grads(&mut self) {}

    /// The immutable inference form of this layer at the given weight
    /// precision, or `None` when the layer has no frozen form (the
    /// default) — then [`crate::Sequential::freeze`] fails, naming the
    /// layer. A frozen layer runs the same inference function as
    /// [`Layer::infer_into`].
    fn freeze(&self, _precision: Precision) -> Option<FrozenLayer> {
        None
    }

    /// Layer name for summaries.
    fn name(&self) -> &'static str;

    /// Total trainable parameter count (default 0).
    fn param_count(&self) -> usize {
        0
    }
}

/// Stores `input` in a layer's activation-cache slot, reusing the slot's
/// existing allocation when warm (the training loop runs the same batch
/// shape for thousands of steps — only the first step allocates).
pub(crate) fn cache_input(slot: &mut Option<Tensor>, input: &Tensor) {
    match slot {
        Some(t) => t.copy_from(input),
        None => *slot = Some(input.clone()),
    }
}

/// One-call wrappers over the `_into` passes for the layer unit tests.
#[cfg(test)]
pub(crate) mod tests {
    use super::Layer;
    use crate::tensor::Tensor;

    /// [`Layer::infer_into`] into a fresh tensor.
    pub(crate) fn infer(layer: &mut dyn Layer, input: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(&[0]);
        layer.infer_into(input, &mut out);
        out
    }

    /// [`Layer::train_forward_into`] into a fresh tensor.
    pub(crate) fn train_forward(layer: &mut dyn Layer, input: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(&[0]);
        layer.train_forward_into(input, &mut out);
        out
    }

    /// [`Layer::backward_into`] into a fresh tensor.
    pub(crate) fn backward(layer: &mut dyn Layer, grad_out: &Tensor) -> Tensor {
        let mut grad_in = Tensor::zeros(&[0]);
        layer.backward_into(grad_out, &mut grad_in);
        grad_in
    }
}
