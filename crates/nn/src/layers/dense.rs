//! Fully connected layer: `Y = X·W + b`.

use crate::frozen::{FrozenLayer, Precision};
use crate::init::Init;
use crate::layer::{cache_input, Layer};
use crate::linalg::{add_bias, col_sums_into, matmul_nt, matmul_tn, nn, Weight};
use crate::tensor::Tensor;

/// Dense inference, `out = X·W + b` (resized in place) for weights stored
/// `[in, out]` row-major: the one implementation that [`Dense`] and a
/// frozen dense layer run, over f32 weights or bf16 ones (`W = u16`)
/// through the same `nn` kernel.
pub(crate) fn infer<W: Weight>(input: &Tensor, w: &[W], b: &[f32], out: &mut Tensor) {
    let (batch, n) = (input.batch(), b.len());
    let k = w.len() / n;
    assert_eq!(
        input.row_len(),
        k,
        "dense expected {k} features, got {:?}",
        input.shape()
    );
    out.resize_in_place(&[batch, n]);
    nn(input.data(), w, out.data_mut(), batch, k, n);
    add_bias(out.data_mut(), b, batch, n);
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
        // sum). matmul_tn overwrites every element, so the scratch only
        // needs sizing, not zeroing.
        if self.dw_step.len() != self.w.len() {
            self.dw_step.resize(self.w.len(), 0.0);
        }
        matmul_tn(
            input.data(),
            grad_out.data(),
            &mut self.dw_step,
            self.in_features,
            batch,
            self.out_features,
        );
        for (d, s) in self.dw.iter_mut().zip(&self.dw_step) {
            *d += s;
        }
        // db += column sums of dY.
        col_sums_into(grad_out.data(), &mut self.db, batch, self.out_features);
    }
}

impl Layer for Dense {
    fn infer_into(&mut self, input: &Tensor, out: &mut Tensor) {
        infer(input, &self.w, &self.b, out);
    }

    fn train_forward_into(&mut self, input: &Tensor, out: &mut Tensor) {
        infer(input, &self.w, &self.b, out);
        cache_input(&mut self.cached_input, input);
    }

    fn backward_into(&mut self, grad_out: &Tensor, grad_in: &mut Tensor) {
        self.param_grads(grad_out);
        // dX = dY·Wᵀ.
        let batch = grad_out.batch();
        grad_in.resize_in_place(&[batch, self.in_features]);
        matmul_nt(
            grad_out.data(),
            &self.w,
            grad_in.data_mut(),
            batch,
            self.out_features,
            self.in_features,
        );
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
