//! Fully connected layer: `Y = X·W + b`.

use crate::frozen::{FrozenLayer, Precision};
use crate::init::Init;
use crate::layer::{cache_input, Layer};
use crate::linalg::{add_bias, col_sums_into, matmul_nt, nn, nn_cols, tn_rows, Weight, RUN_ROWS};
use crate::tensor::Tensor;

/// Weight bytes from which a one-row pass is cut into column windows, one
/// per team member. The paper MLP's 16 and 4 MB layers are; its 256 KiB
/// output layer, a few microseconds of work, is not.
const SPLIT_BYTES: usize = 1 << 20;

/// Columns a window spans a multiple of: one zmm of outputs.
const WINDOW_COLS: usize = 16;

/// Dense inference, `out = X·W + b` (resized in place) for weights stored
/// `[in, out]` row-major: the one implementation that [`Dense`] and a
/// frozen dense layer run, over f32 weights or bf16 ones (`W = u16`)
/// through the same `nn` kernel.
///
/// A one-row pass over at least [`SPLIT_BYTES`] of weights gives each
/// team member a window of the output columns ([`nn_cols`], bias
/// included): the bits of one call, each element keeping its one chain.
/// One row's windows are disjoint runs of the output row. With one
/// member, or inside another dispatch, the windows run inline in order.
pub(crate) fn infer<W: Weight>(input: &Tensor, w: &[W], b: &[f32], out: &mut Tensor) {
    let (batch, k, n) = size_output(input, w.len(), b.len(), out);
    let x = input.data();
    let team = dlpic_team::global();
    let width = team.share(n, WINDOW_COLS);
    if batch == 1 && width < n && std::mem::size_of_val(w) >= SPLIT_BYTES {
        team.for_each_item(out.data_mut().chunks_mut(width).enumerate(), |(p, c)| {
            let j0 = p * width;
            nn_cols(x, w, c, 1, k, n, j0);
            add_bias(c, &b[j0..j0 + c.len()], 1, c.len());
        });
        return;
    }
    nn(x, w, out.data_mut(), batch, k, n);
    add_bias(out.data_mut(), b, batch, n);
}

/// Checks `input` against a `k×n` layer of `w_len` weights and `n`
/// biases and sizes `out` for it; returns `(batch, k, n)`.
fn size_output(input: &Tensor, w_len: usize, n: usize, out: &mut Tensor) -> (usize, usize, usize) {
    let (batch, k) = (input.batch(), w_len / n);
    assert_eq!(
        input.row_len(),
        k,
        "dense expected {k} features, got {:?}",
        input.shape()
    );
    out.resize_in_place(&[batch, n]);
    (batch, k, n)
}

/// A dense (fully connected) layer with weights stored `[in, out]`
/// row-major.
pub struct Dense {
    in_features: usize,
    out_features: usize,
    w: Vec<f32>,
    b: Vec<f32>,
    dw: Vec<f32>,
    db: Vec<f32>,
    cached_input: Option<Tensor>,
    // Per-step weight-gradient staging buffer, reused across calls.
    dw_step: Vec<f32>,
}

impl Dense {
    /// Creates a dense layer with the given initialization and seed.
    pub fn new(in_features: usize, out_features: usize, init: Init, seed: u64) -> Self {
        assert!(
            in_features > 0 && out_features > 0,
            "degenerate dense layer"
        );
        let mut w = vec![0.0f32; in_features * out_features];
        init.fill(&mut w, in_features, out_features, seed);
        Self {
            in_features,
            out_features,
            w,
            b: vec![0.0; out_features],
            dw: vec![0.0; in_features * out_features],
            db: vec![0.0; out_features],
            cached_input: None,
            dw_step: Vec::new(),
        }
    }

    /// Input width.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output width.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Immutable bias access.
    pub fn bias(&self) -> &[f32] {
        &self.b
    }

    /// Accumulates `dW`/`db` from the cached input and `dY`.
    fn param_grads(&mut self, grad_out: &Tensor) {
        let input = self
            .cached_input
            .as_ref()
            .expect("backward before train_forward_into");
        let batch = input.batch();
        assert_eq!(
            grad_out.shape(),
            &[batch, self.out_features],
            "grad_out shape"
        );

        // dW += Xᵀ·dY (accumulate: stage into the reusable scratch, then
        // sum), on the team: each member takes runs of `dW`'s rows through
        // the ranged kernel and adds its own staged rows. The kernel
        // overwrites every element, so the scratch only needs sizing.
        if self.dw_step.len() != self.w.len() {
            self.dw_step.resize(self.w.len(), 0.0);
        }
        let (m, n) = (self.in_features, self.out_features);
        let (x, dy) = (input.data(), grad_out.data());
        let team = dlpic_team::global();
        let run = team.share(m, RUN_ROWS) * n;
        let runs = self.dw_step.chunks_mut(run).zip(self.dw.chunks_mut(run));
        team.for_each_item(runs.enumerate(), |(p, (stage, dw))| {
            tn_rows(x, dy, stage, m, batch, n, p * run / n);
            for (d, s) in dw.iter_mut().zip(stage.iter()) {
                *d += s;
            }
        });
        // db += column sums of dY.
        col_sums_into(grad_out.data(), &mut self.db, batch, self.out_features);
    }
}

impl Layer for Dense {
    fn infer_into(&mut self, input: &Tensor, out: &mut Tensor) {
        infer(input, &self.w, &self.b, out);
    }

    /// Dense inference on the team, in runs of the batch's rows, one per
    /// member: the bits of one call, the `nn` kernel being row-stable.
    fn train_forward_into(&mut self, input: &Tensor, out: &mut Tensor) {
        let (batch, k, n) = size_output(input, self.w.len(), self.b.len(), out);
        let (x, w, b) = (input.data(), &self.w[..], &self.b[..]);
        let team = dlpic_team::global();
        let run = team.share(batch, RUN_ROWS);
        let runs = out.data_mut().chunks_mut(run * n);
        team.for_each_item(runs.enumerate(), |(p, c)| {
            let (i0, rows) = (p * run, c.len() / n);
            nn(&x[i0 * k..(i0 + rows) * k], w, c, rows, k, n);
            add_bias(c, b, rows, n);
        });
        cache_input(&mut self.cached_input, input);
    }

    fn backward_into(&mut self, grad_out: &Tensor, grad_in: &mut Tensor) {
        self.param_grads(grad_out);
        // dX = dY·Wᵀ on the team, runs of the batch's rows cut at even
        // rows, where `nt`'s 2-row tiles keep every element's chain.
        let batch = grad_out.batch();
        let (k, n) = (self.out_features, self.in_features);
        grad_in.resize_in_place(&[batch, n]);
        let (dy, w) = (grad_out.data(), &self.w[..]);
        let team = dlpic_team::global();
        let run = team.share(batch, RUN_ROWS);
        let runs = grad_in.data_mut().chunks_mut(run * n);
        team.for_each_item(runs.enumerate(), |(p, c)| {
            let (i0, rows) = (p * run, c.len() / n);
            matmul_nt(&dy[i0 * k..(i0 + rows) * k], w, c, rows, k, n);
        });
    }

    /// `dW`/`db` only: no `dX = dY·Wᵀ` — for the paper MLP's first layer
    /// a 537 MFLOP GEMM per batch that nobody reads.
    fn backward_params(&mut self, grad_out: &Tensor, _scratch: &mut Tensor) {
        self.param_grads(grad_out);
    }

    fn freeze(&self, precision: Precision) -> Option<FrozenLayer> {
        Some(FrozenLayer::dense(
            self.in_features,
            self.out_features,
            self.w.clone(),
            self.b.clone(),
            precision,
        ))
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        f(&mut self.w, &mut self.dw);
        f(&mut self.b, &mut self.db);
    }

    fn zero_grads(&mut self) {
        self.dw.fill(0.0);
        self.db.fill(0.0);
    }

    fn name(&self) -> &'static str {
        "dense"
    }

    fn param_count(&self) -> usize {
        self.w.len() + self.b.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::tests::{backward, infer, train_forward};

    fn tiny_dense() -> Dense {
        // 2 -> 3 with hand-set weights.
        let mut d = Dense::new(2, 3, Init::Zeros, 0);
        d.w.copy_from_slice(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]); // [in=2, out=3]
        d.b.copy_from_slice(&[0.1, 0.2, 0.3]);
        d
    }

    #[test]
    fn forward_matches_hand_computation() {
        let mut d = tiny_dense();
        let x = Tensor::new(vec![1.0, -1.0], &[1, 2]);
        let y = infer(&mut d, &x);
        // y = [1*1 + (-1)*4, 1*2 + (-1)*5, 1*3 + (-1)*6] + b
        assert_eq!(y.data(), &[-3.0 + 0.1, -3.0 + 0.2, -3.0 + 0.3]);
    }

    #[test]
    fn backward_computes_expected_gradients() {
        let mut d = tiny_dense();
        let x = Tensor::new(vec![1.0, -1.0], &[1, 2]);
        let _ = train_forward(&mut d, &x);
        let gy = Tensor::new(vec![1.0, 0.0, -1.0], &[1, 3]);
        let gx = backward(&mut d, &gy);
        // dX = gy · Wᵀ: [1*1 + 0*2 + (-1)*3, 1*4 + 0*5 + (-1)*6] = [-2, -2]
        assert_eq!(gx.data(), &[-2.0, -2.0]);
        // dW = Xᵀ·gy: [[1],[−1]]·[1,0,−1] = [[1,0,−1],[−1,0,1]]
        assert_eq!(&d.dw, &[1.0, 0.0, -1.0, -1.0, 0.0, 1.0]);
        assert_eq!(&d.db, &[1.0, 0.0, -1.0]);
    }

    #[test]
    fn gradients_accumulate_until_zeroed() {
        let mut d = tiny_dense();
        let x = Tensor::new(vec![1.0, 0.0], &[1, 2]);
        let gy = Tensor::new(vec![1.0, 1.0, 1.0], &[1, 3]);
        let _ = train_forward(&mut d, &x);
        let _ = backward(&mut d, &gy);
        let _ = train_forward(&mut d, &x);
        let _ = backward(&mut d, &gy);
        assert_eq!(&d.db, &[2.0, 2.0, 2.0]);
        d.zero_grads();
        assert!(d.db.iter().all(|&g| g == 0.0));
        assert!(d.dw.iter().all(|&g| g == 0.0));
    }

    #[test]
    fn batch_forward_shape() {
        let mut d = Dense::new(4, 2, Init::HeNormal, 1);
        let x = Tensor::zeros(&[5, 4]);
        let y = infer(&mut d, &x);
        assert_eq!(y.shape(), &[5, 2]);
        assert_eq!(d.param_count(), 4 * 2 + 2);
    }

    #[test]
    #[should_panic(expected = "expected 2 features")]
    fn wrong_input_width_rejected() {
        let mut d = tiny_dense();
        let x = Tensor::zeros(&[1, 5]);
        let _ = infer(&mut d, &x);
    }
}
