//! The layer abstraction: forward, backward, parameter visitation.

use crate::frozen::{FrozenLayer, Precision};
use crate::tensor::Tensor;

/// A differentiable layer.
///
/// The backward contract: [`Layer::forward`] with `training = true` caches
/// whatever the backward pass needs; [`Layer::backward`] consumes the
/// gradient w.r.t. the layer *output*, accumulates parameter gradients
/// internally (`+=`, so callers zero them between optimizer steps via
/// [`Layer::zero_grads`]) and returns the gradient w.r.t. the layer
/// *input*. The first layer of a training step has no one to hand that
/// input gradient to, so the trainer calls [`Layer::backward_params`]
/// there instead: the same parameter gradients, bit for bit, and no
/// input gradient.
pub trait Layer: Send {
    /// Computes the layer output. With `training = true` the activation
    /// cache for backprop is retained.
    fn forward(&mut self, input: &Tensor, training: bool) -> Tensor;

    /// Backpropagates: accumulates parameter gradients and returns the
    /// input gradient. Must be preceded by a `forward(.., true)`.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// Inference into a caller-owned output tensor, retaining no
    /// activation cache. Implementations resize `out` in place and reuse
    /// its buffer, so repeated calls perform no heap allocation once the
    /// buffer is warm — the per-step path of the DL field solvers. The
    /// default falls back to the allocating [`Layer::forward`]; layers on
    /// the inference hot path (dense, relu, flatten) override it.
    fn infer_into(&mut self, input: &Tensor, out: &mut Tensor) {
        *out = self.forward(input, false);
    }

    /// Training-time forward into a caller-owned output tensor: same
    /// contract as `forward(.., true)` (the activation cache is
    /// retained), but the output buffer is resized in place and reused,
    /// so repeated calls perform no heap allocation once warm — the
    /// per-batch path of `nn::trainer`. The default falls back to the
    /// allocating [`Layer::forward`]; every built-in layer overrides it.
    fn train_forward_into(&mut self, input: &Tensor, out: &mut Tensor) {
        *out = self.forward(input, true);
    }

    /// Backpropagation into a caller-owned gradient tensor: same
    /// contract as [`Layer::backward`] (parameter gradients accumulate
    /// internally) with the input-gradient buffer resized in place and
    /// reused. The default falls back to the allocating
    /// [`Layer::backward`]; every built-in layer overrides it.
    fn backward_into(&mut self, grad_out: &Tensor, grad_in: &mut Tensor) {
        *grad_in = self.backward(grad_out);
    }

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
    /// default) — then [`crate::Sequential::freeze`] fails and callers
    /// keep an owned network. Frozen inference must match
    /// [`Layer::infer_into`] exactly at [`Precision::F32`].
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
