//! Immutable inference models: weights split from training state.
//!
//! A trained [`Sequential`](crate::Sequential) carries per-layer gradient and optimizer
//! buffers, activation caches and `&mut self` inference entry points —
//! none of which inference needs. [`Sequential::freeze`](crate::Sequential::freeze) snapshots the
//! weights into a [`FrozenModel`]: an immutable, `Send + Sync` layer
//! stack whose [`FrozenModel::predict_into`] takes `&self`, so **many
//! sessions can share one weight allocation behind an `Arc`** instead of
//! each cloning megabytes of identical parameters.
//!
//! A frozen layer and its trainable source run the same code: dense, relu
//! and flatten inference are each one function (in [`crate::layers`]),
//! and [`Sequential::predict_into`](crate::Sequential::predict_into) and
//! [`FrozenModel::predict_into`] are one ping-pong loop over the two
//! buffers of a [`PredictWorkspace`]. Two storage precisions:
//!
//! * [`Precision::F32`] — the dense weights are copied verbatim, so a
//!   frozen f32 model is **bit-identical** to the network it was frozen
//!   from, solo or batched, at any `Arc` sharing degree.
//! * [`Precision::Bf16`] — dense weights are stored bf16
//!   (round-to-nearest-even) and the same dense function streams them
//!   through the `nn` kernel decoded on the fly, with f32 accumulation
//!   ([`crate::bf16`]): half the weight bytes and roughly half the GEMV
//!   memory traffic, accurate to the weight quantization (callers gate on
//!   a task-level tolerance).
//!
//! Only inference-path layers freeze (dense / relu / flatten — the
//! paper's MLP); [`Sequential::freeze`](crate::Sequential::freeze) reports the first unsupported
//! layer by name. A network that does not freeze (the CNN) runs only
//! through `Sequential::predict_into`, outside any DL field solver.

// analyze:hot — the one inference loop every DL field solve runs; its body
// must stay allocation-free (the workspace buffers are caller-owned).

use crate::bf16::encode_bf16;
use crate::layers::{dense, flatten, relu};
use crate::linalg::Weight;
use crate::network::PredictWorkspace;
use crate::tensor::Tensor;

/// Weight storage precision of a [`FrozenModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Precision {
    /// Exact f32 copies of the source weights (bit-identical inference).
    F32,
    /// bf16 weight storage with f32 accumulation (half the bytes;
    /// accurate to the weight quantization).
    Bf16,
}

impl Precision {
    /// Short name for logs and serialized bundles.
    pub fn name(self) -> &'static str {
        match self {
            Self::F32 => "f32",
            Self::Bf16 => "bf16",
        }
    }

    /// Parses [`Self::name`] back.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "f32" => Some(Self::F32),
            "bf16" => Some(Self::Bf16),
            _ => None,
        }
    }
}

/// Dense-layer weight storage in one of the two precisions.
pub enum DenseWeights {
    /// Exact f32 copies.
    F32(Vec<f32>),
    /// Round-to-nearest-even bf16.
    Bf16(Vec<u16>),
}

/// One frozen layer: the immutable inference form of a [`crate::Layer`].
pub enum FrozenLayer {
    /// A dense layer: weights `[in, out]` row-major plus an f32 bias
    /// (bias stays f32 in both precisions — it is the accumulator seed).
    Dense {
        /// Input width.
        in_features: usize,
        /// Output width.
        out_features: usize,
        /// Weight matrix in the model's storage precision.
        w: DenseWeights,
        /// Bias row.
        b: Vec<f32>,
    },
    /// Element-wise `max(0, x)`.
    Relu,
    /// `[batch, ...] → [batch, features]`.
    Flatten,
}

impl FrozenLayer {
    /// True when every stored weight and bias is finite — checked on the
    /// storage the kernels read, so a finite f32 that rounds to a bf16
    /// infinity counts as infinite.
    pub(crate) fn is_finite(&self) -> bool {
        // Folds, not `all`: no early exit, so the scans vectorize.
        fn finite<W: Weight>(v: &[W]) -> bool {
            v.iter().fold(true, |ok, x| ok & x.to_f32().is_finite())
        }
        match self {
            Self::Dense { w, b, .. } => {
                finite(b)
                    && match w {
                        DenseWeights::F32(w) => finite(w),
                        DenseWeights::Bf16(w) => finite(w),
                    }
            }
            Self::Relu | Self::Flatten => true,
        }
    }

    /// A frozen dense layer over its weight/bias buffers: at
    /// [`Precision::F32`] the weights move in as they are, without a copy.
    pub fn dense(
        in_features: usize,
        out_features: usize,
        w: Vec<f32>,
        b: Vec<f32>,
        precision: Precision,
    ) -> Self {
        assert_eq!(w.len(), in_features * out_features, "weight size");
        assert_eq!(b.len(), out_features, "bias size");
        let w = match precision {
            Precision::F32 => DenseWeights::F32(w),
            Precision::Bf16 => DenseWeights::Bf16(encode_bf16(&w)),
        };
        Self::Dense {
            in_features,
            out_features,
            w,
            b,
        }
    }

    /// Bytes of weight/bias storage this layer holds.
    fn weight_bytes(&self) -> usize {
        match self {
            Self::Dense { w, b, .. } => {
                let wb = match w {
                    DenseWeights::F32(v) => v.len() * 4,
                    DenseWeights::Bf16(v) => v.len() * 2,
                };
                wb + b.len() * 4
            }
            Self::Relu | Self::Flatten => 0,
        }
    }

    /// Trainable-parameter count of the source layer.
    fn param_count(&self) -> usize {
        match self {
            Self::Dense { w, b, .. } => {
                let wn = match w {
                    DenseWeights::F32(v) => v.len(),
                    DenseWeights::Bf16(v) => v.len(),
                };
                wn + b.len()
            }
            Self::Relu | Self::Flatten => 0,
        }
    }

    /// Inference for one layer: the function its trainable source's
    /// [`crate::Layer::infer_into`] runs, at the stored precision.
    fn infer_into(&self, input: &Tensor, out: &mut Tensor) {
        match self {
            Self::Dense { w, b, .. } => match w {
                DenseWeights::F32(w) => dense::infer(input, w, b, out),
                DenseWeights::Bf16(w) => dense::infer(input, w, b, out),
            },
            Self::Relu => relu::infer(input, out),
            Self::Flatten => flatten::infer(input, out),
        }
    }
}

/// Why a network cannot be frozen, naming the offending layer by its
/// index in the network and its [`crate::Layer::name`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FreezeError {
    /// The layer has no immutable inference form (conv, pooling,
    /// residual blocks).
    NoFrozenForm {
        /// Index of the layer in the network.
        layer_index: usize,
        /// Its [`crate::Layer::name`].
        layer_name: &'static str,
    },
    /// A weight or bias of the layer is NaN or infinite as stored: the
    /// kernels skip dead weight rows on the premise that every weight is
    /// finite, so such a model could hide its NaN.
    NonFinite {
        /// Index of the layer in the network.
        layer_index: usize,
        /// Its [`crate::Layer::name`].
        layer_name: &'static str,
    },
}

impl std::fmt::Display for FreezeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (Self::NoFrozenForm {
            layer_index,
            layer_name,
        }
        | Self::NonFinite {
            layer_index,
            layer_name,
        }) = self;
        let what = match self {
            Self::NoFrozenForm { .. } => "has no frozen inference form",
            Self::NonFinite { .. } => "has a non-finite parameter",
        };
        write!(f, "layer {layer_index} (`{layer_name}`) {what}")
    }
}

impl std::error::Error for FreezeError {}

/// An immutable inference model: frozen weights plus the layer order,
/// shareable across threads and sessions behind one `Arc`. Built with
/// [`Sequential::freeze`](crate::Sequential::freeze).
pub struct FrozenModel {
    layers: Vec<FrozenLayer>,
    precision: Precision,
}

impl std::fmt::Debug for FrozenModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrozenModel")
            .field("layers", &self.layers.len())
            .field("params", &self.param_count())
            .field("precision", &self.precision)
            .finish()
    }
}

impl FrozenModel {
    /// Assembles a model from already-frozen layers.
    pub fn from_layers(layers: Vec<FrozenLayer>, precision: Precision) -> Self {
        Self { layers, precision }
    }

    /// The storage precision of the dense weights.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True for a model with no layers (inference copies the input).
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Trainable-parameter count of the source network.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(FrozenLayer::param_count).sum()
    }

    /// Actual bytes of weight/bias storage (the figure the fleet memory
    /// accounting charges once per shared model): f32 models hold
    /// `4·params`, bf16 roughly half that.
    pub fn weight_bytes(&self) -> usize {
        self.layers.iter().map(FrozenLayer::weight_bytes).sum()
    }

    /// Width of one output row: the last dense layer's `out_features`
    /// (`None` for a model with no dense layer, whose output is as wide
    /// as its input).
    pub fn output_len(&self) -> Option<usize> {
        self.layers.iter().rev().find_map(|layer| match layer {
            FrozenLayer::Dense { out_features, .. } => Some(*out_features),
            FrozenLayer::Relu | FrozenLayer::Flatten => None,
        })
    }

    /// Inference through the reusable ping-pong `workspace` — the
    /// `&self` twin of [`Sequential::predict_into`](crate::Sequential::predict_into):
    /// the same loop over the same layer functions, so at
    /// [`Precision::F32`] results are bit-identical to the source
    /// network's.
    pub fn predict_into<'w>(
        &self,
        input: &Tensor,
        workspace: &'w mut PredictWorkspace,
    ) -> &'w Tensor {
        ping_pong(&self.layers, input, workspace, FrozenLayer::infer_into)
    }

    /// [`Self::predict_into`] under a second name, for callers that keep
    /// one warm workspace per batch shape; the kernels are row-stable, so
    /// row `i` of an `m`-row batch is bitwise identical to that row alone.
    pub fn predict_batch_into<'w>(
        &self,
        batch: &Tensor,
        workspace: &'w mut PredictWorkspace,
    ) -> &'w Tensor {
        self.predict_into(batch, workspace)
    }
}

/// The one inference loop, shared by [`Sequential::predict_into`](crate::Sequential::predict_into)
/// and [`FrozenModel::predict_into`]: layer 0 reads `input` and writes the
/// workspace's `a`, every later layer reads the buffer its predecessor
/// wrote and writes the other, and the last output is returned (a copy of
/// `input` when there are no layers). Generic over the layer type, so the
/// frozen loop calls [`FrozenLayer`]'s inference with no `dyn` dispatch;
/// once the two buffers are warm it allocates nothing.
pub(crate) fn ping_pong<'w, L>(
    layers: impl IntoIterator<Item = L>,
    input: &Tensor,
    workspace: &'w mut PredictWorkspace,
    mut infer: impl FnMut(L, &Tensor, &mut Tensor),
) -> &'w Tensor {
    let PredictWorkspace { a, b } = workspace;
    let mut layers = layers.into_iter();
    let Some(first) = layers.next() else {
        a.copy_from(input);
        return a;
    };
    infer(first, input, a);
    let mut out_is_a = true;
    for layer in layers {
        if out_is_a {
            infer(layer, a, b);
        } else {
            infer(layer, b, a);
        }
        out_is_a = !out_is_a;
    }
    if out_is_a {
        a
    } else {
        b
    }
}

// Compile-time proof the model is shareable across threads (all fields
// are plain owned data).
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<FrozenModel>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::Init;
    use crate::layers::{Conv2d, Dense, Flatten, Relu};
    use crate::network::Sequential;

    fn mlp(seed: u64) -> Sequential {
        Sequential::new()
            .push(Flatten::new())
            .push(Dense::new(12, 32, Init::HeNormal, seed))
            .push(Relu::new())
            .push(Dense::new(32, 7, Init::HeNormal, seed + 1))
    }

    #[test]
    fn frozen_f32_is_bit_identical_to_source_network() {
        let mut net = mlp(3);
        let frozen = net.freeze(Precision::F32).unwrap();
        assert_eq!(frozen.param_count(), net.param_count());
        assert_eq!(frozen.output_len(), Some(7));
        assert_eq!(frozen.weight_bytes(), net.param_count() * 4);
        for m in [1usize, 3, 8, 11] {
            let x = Tensor::new(
                (0..m * 12).map(|i| (i as f32 * 0.31).sin()).collect(),
                &[m, 12],
            );
            let mut ws_net = PredictWorkspace::new();
            let mut ws_frozen = PredictWorkspace::new();
            let expect = net.predict_into(&x, &mut ws_net).clone();
            let got = frozen.predict_into(&x, &mut ws_frozen);
            assert_eq!(got.shape(), expect.shape());
            for (i, (a, b)) in got.data().iter().zip(expect.data()).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "m={m} elem {i}: {a} != {b}");
            }
        }
    }

    #[test]
    fn frozen_batch_rows_bit_identical_to_solo_rows() {
        let net = mlp(9);
        let frozen = net.freeze(Precision::F32).unwrap();
        let m = 5;
        let batch = Tensor::new(
            (0..m * 12).map(|i| (i as f32 * 0.17).cos()).collect(),
            &[m, 12],
        );
        let mut batch_ws = PredictWorkspace::new();
        let out = frozen.predict_batch_into(&batch, &mut batch_ws).clone();
        for r in 0..m {
            let row = Tensor::new(batch.data()[r * 12..(r + 1) * 12].to_vec(), &[1, 12]);
            let mut solo_ws = PredictWorkspace::new();
            let solo = frozen.predict_into(&row, &mut solo_ws);
            for (a, b) in out.data()[r * 7..(r + 1) * 7].iter().zip(solo.data()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    /// What a fleet wave on the worker team stands on: members of a
    /// [`Team`](crate::team::Team) that each take a run of the batch's
    /// rows through the one shared model, at once and with a workspace of
    /// their own, reproduce the whole-batch inference bit for bit — at
    /// every team size, for every row-tile remainder and a multi-panel
    /// batch, in both precisions.
    #[test]
    fn row_runs_on_a_team_reproduce_the_whole_batch_bit_for_bit() {
        use crate::team::Team;
        let (in_w, out_w) = (12, 7);
        for precision in [Precision::F32, Precision::Bf16] {
            let model = mlp(11).freeze(precision).unwrap();
            for size in [1usize, 2, 3, 5] {
                let team = Team::new(size);
                for m in (1usize..=17).chain([33]) {
                    let batch = Tensor::new(
                        (0..m * in_w).map(|i| (i as f32 * 0.013).sin()).collect(),
                        &[m, in_w],
                    );
                    let mut ws = PredictWorkspace::new();
                    let want = model.predict_into(&batch, &mut ws).clone();
                    let bounds: Vec<usize> = (0..=size).map(|p| p * m / size).collect();
                    let mut rows: Vec<Vec<f32>> =
                        batch.data().chunks(in_w).map(Vec::from).collect();
                    let mut parts: Vec<_> = (0..size).map(|_| PredictWorkspace::new()).collect();
                    team.for_each_run(&mut rows, &bounds, &mut parts, |_, run, ws| {
                        if run.is_empty() {
                            return;
                        }
                        let x = Tensor::new(run.concat(), &[run.len(), in_w]);
                        let y = model.predict_into(&x, ws);
                        for (row, out) in run.iter_mut().zip(y.data().chunks(out_w)) {
                            *row = out.to_vec();
                        }
                    });
                    for (r, (got, want)) in rows.iter().zip(want.data().chunks(out_w)).enumerate() {
                        let same = got
                            .iter()
                            .zip(want)
                            .all(|(a, b)| a.to_bits() == b.to_bits());
                        assert!(same, "{precision:?} T={size} m={m} row {r}");
                    }
                }
            }
        }
    }

    #[test]
    fn bf16_model_halves_dense_weight_bytes() {
        let net = mlp(5);
        let f32_model = net.freeze(Precision::F32).unwrap();
        let bf16_model = net.freeze(Precision::Bf16).unwrap();
        assert_eq!(bf16_model.precision(), Precision::Bf16);
        // Weight matrices halve; the f32 biases stay.
        let bias_bytes = (32 + 7) * 4;
        let f32_w = f32_model.weight_bytes() - bias_bytes;
        assert_eq!(bf16_model.weight_bytes() - bias_bytes, f32_w / 2);
    }

    #[test]
    fn bf16_inference_close_and_deterministic() {
        let mut net = mlp(7);
        let frozen = net.freeze(Precision::Bf16).unwrap();
        let x = Tensor::new((0..12).map(|i| (i as f32 * 0.23).sin()).collect(), &[1, 12]);
        let mut ws = PredictWorkspace::new();
        let first = frozen.predict_into(&x, &mut ws).clone();
        let mut ws_net = PredictWorkspace::new();
        let exact = net.predict_into(&x, &mut ws_net);
        for (a, b) in first.data().iter().zip(exact.data()) {
            // bf16 has ~2-3 decimal digits; hidden widths here are small.
            assert!((a - b).abs() <= 2e-2 * (1.0 + b.abs()), "{a} vs {b}");
        }
        // Deterministic: same bytes in, same bits out.
        let mut ws2 = PredictWorkspace::new();
        let second = frozen.predict_into(&x, &mut ws2);
        for (a, b) in first.data().iter().zip(second.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn conv_layers_refuse_to_freeze_with_a_named_error() {
        let net = Sequential::new()
            .push(Conv2d::new(1, 2, 3, Init::HeNormal, 1))
            .push(Relu::new());
        let err = net.freeze(Precision::F32).unwrap_err();
        assert_eq!(
            err,
            FreezeError::NoFrozenForm {
                layer_index: 0,
                layer_name: "conv2d"
            }
        );
        assert!(err.to_string().contains("conv2d"));
    }

    #[test]
    fn empty_model_copies_input() {
        let net = Sequential::new();
        let frozen = net.freeze(Precision::F32).unwrap();
        assert_eq!(frozen.output_len(), None);
        let x = Tensor::new(vec![1.0, -2.0], &[1, 2]);
        let mut ws = PredictWorkspace::new();
        let y = frozen.predict_into(&x, &mut ws);
        assert_eq!(y.data(), x.data());
        assert_eq!(y.shape(), x.shape());
    }
}
