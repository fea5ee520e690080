//! 2-D convolution (stride 1, "same" zero padding) via implicit im2col on
//! the blocked GEMM micro-kernels.
//!
//! The paper's CNN (§IV.A) stacks two blocks of
//! `[conv, conv, maxpool]` before the fully connected head. Kernel size and
//! channel counts are not stated in the paper; the `dlpic-core` builders
//! use 3×3 kernels (recorded as an inferred choice in DESIGN.md).
//!
//! Instead of packing an explicit `[C·K·K, H·W]` column matrix per sample
//! (9× the input's memory traffic for a 3×3 kernel, twice per training
//! step), each sample is copied once into a zero-padded `[C, H+2p, W+2p]`
//! scratch plane and the GEMM micro-kernels ([`crate::linalg::conv_gemm`])
//! read the patch columns directly out of it through per-row base
//! offsets — every load is contiguous and in-bounds, so there are no
//! wrap/pad branches in the hot loop. The backward pass reuses the same
//! kernels: `dX` is a same-padded convolution of `dY` with the
//! flipped-and-transposed weights (no `col2im` scatter at all), and `dW`
//! is the patch correlation [`crate::linalg::conv_dw_accum`]. A direct
//! 6-deep loop (`conv_naive`, plus its backward counterpart) remains in
//! the test module as the oracle, mirroring the fused-kernel pattern of
//! the particle pipeline.

use crate::init::Init;
use crate::layer::{cache_input, Layer};
use crate::linalg::{conv_dw_accum, conv_gemm};
use crate::tensor::Tensor;

/// A same-padded stride-1 2-D convolution on `[batch, channels, h, w]`
/// tensors. Weights are stored `[out_ch, in_ch, k, k]` row-major.
pub struct Conv2d {
    in_ch: usize,
    out_ch: usize,
    k: usize,
    w: Vec<f32>,
    b: Vec<f32>,
    dw: Vec<f32>,
    db: Vec<f32>,
    cached_input: Option<Tensor>,
    // Scratch reused across calls (warm after the first batch):
    /// zero-padded input sample `[in_ch, h+2p, w+2p]`,
    pad_in: Vec<f32>,
    /// zero-padded output-gradient sample `[out_ch, h+2p, w+2p]`,
    pad_gy: Vec<f32>,
    /// flipped-and-transposed weights `[in_ch, out_ch·k·k]` for `dX`,
    wt: Vec<f32>,
    /// patch-row base offsets into `pad_in` / `pad_gy`,
    boff_in: Vec<usize>,
    boff_gy: Vec<usize>,
    /// image size the scratch is currently built for.
    ready_hw: (usize, usize),
}

impl Conv2d {
    /// Creates a convolution with an odd kernel size (same padding needs
    /// `k/2` on each side).
    ///
    /// # Panics
    /// Panics for even or zero kernel size.
    pub fn new(in_ch: usize, out_ch: usize, k: usize, init: Init, seed: u64) -> Self {
        assert!(k % 2 == 1 && k > 0, "kernel size must be odd, got {k}");
        assert!(in_ch > 0 && out_ch > 0, "degenerate conv");
        let fan_in = in_ch * k * k;
        let fan_out = out_ch * k * k;
        let mut w = vec![0.0f32; out_ch * in_ch * k * k];
        init.fill(&mut w, fan_in, fan_out, seed);
        Self {
            in_ch,
            out_ch,
            k,
            w,
            b: vec![0.0; out_ch],
            dw: vec![0.0; out_ch * in_ch * k * k],
            db: vec![0.0; out_ch],
            cached_input: None,
            pad_in: Vec::new(),
            pad_gy: Vec::new(),
            wt: Vec::new(),
            boff_in: Vec::new(),
            boff_gy: Vec::new(),
            ready_hw: (0, 0),
        }
    }

    /// Kernel size.
    pub fn kernel(&self) -> usize {
        self.k
    }

    /// (Re)builds the padded scratch planes and offset tables for an
    /// `h × w` image. No-op while the image size is unchanged — the
    /// padded borders stay zero because only the interior is rewritten
    /// per sample.
    fn prepare(&mut self, h: usize, w: usize) {
        if self.ready_hw == (h, w) {
            return;
        }
        let p = self.k / 2;
        let (ph, pw) = (h + 2 * p, w + 2 * p);
        self.pad_in.clear();
        self.pad_in.resize(self.in_ch * ph * pw, 0.0);
        self.pad_gy.clear();
        self.pad_gy.resize(self.out_ch * ph * pw, 0.0);
        self.boff_in = patch_offsets(self.in_ch, self.k, ph, pw);
        self.boff_gy = patch_offsets(self.out_ch, self.k, ph, pw);
        self.ready_hw = (h, w);
    }

    fn dims(&self, input: &Tensor) -> (usize, usize, usize) {
        let shape = input.shape();
        assert_eq!(
            shape.len(),
            4,
            "conv2d expects [batch, ch, h, w], got {shape:?}"
        );
        assert_eq!(
            shape[1], self.in_ch,
            "conv2d expected {} channels, got {}",
            self.in_ch, shape[1]
        );
        (shape[0], shape[2], shape[3])
    }

    /// Shared forward: writes into `out` (resized in place), optionally
    /// retaining the activation cache.
    fn forward_core(&mut self, input: &Tensor, out: &mut Tensor, training: bool) {
        let (batch, h, w) = self.dims(input);
        self.prepare(h, w);
        let hw = h * w;
        let ckk = self.in_ch * self.k * self.k;
        let (p, pw) = (self.k / 2, w + 2 * (self.k / 2));
        out.resize_in_place(&[batch, self.out_ch, h, w]);
        for bi in 0..batch {
            pad_sample(&mut self.pad_in, input.row(bi), self.in_ch, h, w, p);
            let out_b = &mut out.data_mut()[bi * self.out_ch * hw..(bi + 1) * self.out_ch * hw];
            conv_gemm(
                &self.w,
                &self.pad_in,
                &self.boff_in,
                out_b,
                self.out_ch,
                ckk,
                h,
                w,
                pw,
                Some(&self.b),
            );
        }
        if training {
            cache_input(&mut self.cached_input, input);
        }
    }
}

/// Copies a `[ch, h, w]` sample into the interior of a zero-padded
/// `[ch, h+2p, w+2p]` buffer (whose borders are already zero). Rows are
/// copied in fixed 16-element chunks plus a scalar tail: the rows are
/// short (one image line), so `memcpy`'s per-call overhead would
/// dominate a `copy_from_slice` per row.
fn pad_sample(dst: &mut [f32], sample: &[f32], ch: usize, h: usize, w: usize, p: usize) {
    let (ph, pw) = (h + 2 * p, w + 2 * p);
    debug_assert_eq!(dst.len(), ch * ph * pw);
    debug_assert_eq!(sample.len(), ch * h * w);
    let main_w = w - w % 16;
    for c in 0..ch {
        for y in 0..h {
            let at = (c * ph + y + p) * pw + p;
            let src = &sample[(c * h + y) * w..(c * h + y + 1) * w];
            let mut j = 0;
            while j < main_w {
                let chunk: &[f32; 16] = src[j..j + 16].try_into().unwrap();
                dst[at + j..at + j + 16].copy_from_slice(chunk);
                j += 16;
            }
            if j < w {
                dst[at + j..at + w].copy_from_slice(&src[j..]);
            }
        }
    }
}

/// Base offsets of the virtual patch rows: entry `(c·k + ky)·k + kx`
/// points at `pad[c][ky][kx]` of a `[ch, ph, pw]` padded buffer.
fn patch_offsets(ch: usize, k: usize, ph: usize, pw: usize) -> Vec<usize> {
    let mut boff = Vec::with_capacity(ch * k * k);
    for c in 0..ch {
        for ky in 0..k {
            for kx in 0..k {
                boff.push((c * ph + ky) * pw + kx);
            }
        }
    }
    boff
}

impl Layer for Conv2d {
    fn infer_into(&mut self, input: &Tensor, out: &mut Tensor) {
        self.forward_core(input, out, false);
    }

    fn train_forward_into(&mut self, input: &Tensor, out: &mut Tensor) {
        self.forward_core(input, out, true);
    }

    fn backward_into(&mut self, grad_out: &Tensor, grad_in: &mut Tensor) {
        let input = self
            .cached_input
            .take()
            .expect("backward before train_forward_into");
        let (batch, h, w) = self.dims(&input);
        let hw = h * w;
        let kk = self.k * self.k;
        let ckk = self.in_ch * kk;
        assert_eq!(
            grad_out.shape(),
            &[batch, self.out_ch, h, w],
            "grad_out shape"
        );
        self.prepare(h, w);
        let (p, pw) = (self.k / 2, w + 2 * (self.k / 2));

        // dX is a same-padded convolution of dY with the flipped and
        // channel-transposed kernel: wt[c][o·k² + ky·k + kx] =
        // w[o][c][k-1-ky][k-1-kx]. The loop below writes every element,
        // so the buffer only needs sizing, not zeroing.
        if self.wt.len() != self.in_ch * self.out_ch * kk {
            self.wt.resize(self.in_ch * self.out_ch * kk, 0.0);
        }
        for c in 0..self.in_ch {
            for o in 0..self.out_ch {
                for t in 0..kk {
                    self.wt[(c * self.out_ch + o) * kk + t] =
                        self.w[(o * self.in_ch + c) * kk + (kk - 1 - t)];
                }
            }
        }

        grad_in.resize_in_place(input.shape());
        for bi in 0..batch {
            let dy = &grad_out.data()[bi * self.out_ch * hw..(bi + 1) * self.out_ch * hw];
            // dW += dY ⋆ padded(X);  db += per-channel sums of dY.
            pad_sample(&mut self.pad_in, input.row(bi), self.in_ch, h, w, p);
            conv_dw_accum(
                dy,
                &self.pad_in,
                &self.boff_in,
                &mut self.dw,
                self.out_ch,
                ckk,
                h,
                w,
                pw,
            );
            for (o, db) in self.db.iter_mut().enumerate() {
                *db += dy[o * hw..(o + 1) * hw].iter().sum::<f32>();
            }
            // dX = conv(padded(dY), wt).
            pad_sample(&mut self.pad_gy, dy, self.out_ch, h, w, p);
            let ds = &mut grad_in.data_mut()[bi * self.in_ch * hw..(bi + 1) * self.in_ch * hw];
            conv_gemm(
                &self.wt,
                &self.pad_gy,
                &self.boff_gy,
                ds,
                self.in_ch,
                self.out_ch * kk,
                h,
                w,
                pw,
                None,
            );
        }
        self.cached_input = Some(input);
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
        "conv2d"
    }

    fn param_count(&self) -> usize {
        self.w.len() + self.b.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::tests::{backward, infer, train_forward};

    /// Reference direct convolution — the 6-deep-loop oracle.
    // The eight arguments are the convolution geometry; a struct would
    // only rename the same numbers in the hot loop.
    #[allow(clippy::too_many_arguments)]
    fn conv_naive(
        input: &[f32],
        w: &[f32],
        b: &[f32],
        in_ch: usize,
        out_ch: usize,
        k: usize,
        h: usize,
        wid: usize,
    ) -> Vec<f32> {
        let pad = k as isize / 2;
        let hw = h * wid;
        let mut out = vec![0.0f32; out_ch * hw];
        for o in 0..out_ch {
            for oy in 0..h {
                for ox in 0..wid {
                    let mut acc = b[o];
                    for c in 0..in_ch {
                        for ky in 0..k {
                            for kx in 0..k {
                                let iy = oy as isize + ky as isize - pad;
                                let ix = ox as isize + kx as isize - pad;
                                if iy < 0 || ix < 0 || iy >= h as isize || ix >= wid as isize {
                                    continue;
                                }
                                acc += input[c * hw + iy as usize * wid + ix as usize]
                                    * w[((o * in_ch + c) * k + ky) * k + kx];
                            }
                        }
                    }
                    out[o * hw + oy * wid + ox] = acc;
                }
            }
        }
        out
    }

    /// Reference direct backward — accumulates (dw, db, dx) with the same
    /// 6-deep loops, the backward oracle.
    #[allow(clippy::too_many_arguments)]
    fn conv_naive_backward(
        input: &[f32],
        w: &[f32],
        dy: &[f32],
        in_ch: usize,
        out_ch: usize,
        k: usize,
        h: usize,
        wid: usize,
    ) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let pad = k as isize / 2;
        let hw = h * wid;
        let mut dw = vec![0.0f32; out_ch * in_ch * k * k];
        let mut db = vec![0.0f32; out_ch];
        let mut dx = vec![0.0f32; in_ch * hw];
        for o in 0..out_ch {
            for oy in 0..h {
                for ox in 0..wid {
                    let g = dy[o * hw + oy * wid + ox];
                    db[o] += g;
                    for c in 0..in_ch {
                        for ky in 0..k {
                            for kx in 0..k {
                                let iy = oy as isize + ky as isize - pad;
                                let ix = ox as isize + kx as isize - pad;
                                if iy < 0 || ix < 0 || iy >= h as isize || ix >= wid as isize {
                                    continue;
                                }
                                let at = c * hw + iy as usize * wid + ix as usize;
                                dw[((o * in_ch + c) * k + ky) * k + kx] += g * input[at];
                                dx[at] += g * w[((o * in_ch + c) * k + ky) * k + kx];
                            }
                        }
                    }
                }
            }
        }
        (dw, db, dx)
    }

    fn pseudo(len: usize, seed: u64) -> Vec<f32> {
        (0..len)
            .map(|i| (((i as u64 + seed) * 2654435761 % 997) as f32 / 498.5) - 1.0)
            .collect()
    }

    #[test]
    fn identity_kernel_passes_input_through() {
        let mut conv = Conv2d::new(1, 1, 3, Init::Zeros, 0);
        conv.w[4] = 1.0; // center tap
        let x = Tensor::new(pseudo(16, 3), &[1, 1, 4, 4]);
        let y = infer(&mut conv, &x);
        assert_eq!(y.shape(), &[1, 1, 4, 4]);
        for (a, b) in y.data().iter().zip(x.data()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn shift_kernel_moves_image() {
        // Kernel with the tap at (ky=1, kx=0): output(y,x) = input(y, x-1).
        let mut conv = Conv2d::new(1, 1, 3, Init::Zeros, 0);
        conv.w[3] = 1.0; // row 1, col 0 → ix = ox - 1
        let x = Tensor::new((0..16).map(|i| i as f32).collect(), &[1, 1, 4, 4]);
        let y = infer(&mut conv, &x);
        // Column 0 sees padding (zero); column j>0 sees input col j-1.
        for row in 0..4 {
            assert_eq!(y.data()[row * 4], 0.0);
            for col in 1..4 {
                assert_eq!(y.data()[row * 4 + col], x.data()[row * 4 + col - 1]);
            }
        }
    }

    #[test]
    fn forward_matches_naive_conv_multichannel() {
        let (in_ch, out_ch, k, h, w) = (3, 4, 3, 6, 5);
        let mut conv = Conv2d::new(in_ch, out_ch, k, Init::Zeros, 0);
        conv.w.copy_from_slice(&pseudo(out_ch * in_ch * k * k, 11));
        conv.b.copy_from_slice(&pseudo(out_ch, 13));
        let x_data = pseudo(in_ch * h * w, 17);
        let x = Tensor::new(x_data.clone(), &[1, in_ch, h, w]);
        let y = infer(&mut conv, &x);
        let oracle = conv_naive(&x_data, &conv.w, &conv.b, in_ch, out_ch, k, h, w);
        for (i, (a, b)) in y.data().iter().zip(&oracle).enumerate() {
            assert!((a - b).abs() < 1e-4, "elem {i}: {a} vs {b}");
        }
    }

    #[test]
    fn forward_matches_naive_conv_on_awkward_shapes() {
        // Shapes straddling every tile boundary: widths below one tile,
        // 17/33 columns, odd heights, channel counts off the 8-row tile.
        for &(in_ch, out_ch, k, h, w) in &[
            (1usize, 8usize, 3usize, 32usize, 32usize),
            (2, 3, 3, 7, 17),
            (3, 9, 5, 5, 33),
            (4, 16, 3, 16, 16),
            (1, 2, 3, 1, 1),
            (2, 5, 5, 3, 40),
        ] {
            let mut conv = Conv2d::new(in_ch, out_ch, k, Init::Zeros, 0);
            let wlen = out_ch * in_ch * k * k;
            conv.w.copy_from_slice(&pseudo(wlen, 7 + wlen as u64));
            conv.b.copy_from_slice(&pseudo(out_ch, 31));
            let x_data = pseudo(in_ch * h * w, 43);
            let x = Tensor::new(x_data.clone(), &[1, in_ch, h, w]);
            let y = infer(&mut conv, &x);
            let oracle = conv_naive(&x_data, &conv.w, &conv.b, in_ch, out_ch, k, h, w);
            for (i, (a, b)) in y.data().iter().zip(&oracle).enumerate() {
                assert!(
                    (a - b).abs() < 1e-4,
                    "{in_ch}->{out_ch} k{k} {h}x{w} elem {i}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn backward_matches_naive_backward_on_awkward_shapes() {
        for &(in_ch, out_ch, k, h, w) in &[
            (1usize, 8usize, 3usize, 32usize, 32usize),
            (2, 3, 3, 7, 17),
            (3, 5, 5, 5, 33),
            (4, 16, 3, 16, 16),
            (2, 2, 3, 4, 9),
        ] {
            let mut conv = Conv2d::new(in_ch, out_ch, k, Init::Zeros, 0);
            let wlen = out_ch * in_ch * k * k;
            conv.w.copy_from_slice(&pseudo(wlen, 3 + wlen as u64));
            let x_data = pseudo(in_ch * h * w, 47);
            let dy_data = pseudo(out_ch * h * w, 53);
            let x = Tensor::new(x_data.clone(), &[1, in_ch, h, w]);
            let _ = train_forward(&mut conv, &x);
            let gx = backward(&mut conv, &Tensor::new(dy_data.clone(), &[1, out_ch, h, w]));
            let (dw_o, db_o, dx_o) =
                conv_naive_backward(&x_data, &conv.w, &dy_data, in_ch, out_ch, k, h, w);
            let scale = |v: f32| 1.0 + v.abs();
            for (i, (a, b)) in conv.dw.iter().zip(&dw_o).enumerate() {
                assert!(
                    (a - b).abs() < 1e-3 * scale(*b),
                    "dW {in_ch}->{out_ch} k{k} {h}x{w} elem {i}: {a} vs {b}"
                );
            }
            for (i, (a, b)) in conv.db.iter().zip(&db_o).enumerate() {
                assert!((a - b).abs() < 1e-3 * scale(*b), "db elem {i}: {a} vs {b}");
            }
            for (i, (a, b)) in gx.data().iter().zip(&dx_o).enumerate() {
                assert!(
                    (a - b).abs() < 1e-3 * scale(*b),
                    "dX {in_ch}->{out_ch} k{k} {h}x{w} elem {i}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn batch_samples_are_independent() {
        let mut conv = Conv2d::new(1, 2, 3, Init::HeNormal, 5);
        let a = pseudo(9, 1);
        let b = pseudo(9, 2);
        let both = Tensor::new([a.clone(), b.clone()].concat(), &[2, 1, 3, 3]);
        let ya = infer(&mut conv, &Tensor::new(a, &[1, 1, 3, 3]));
        let yb = infer(&mut conv, &Tensor::new(b, &[1, 1, 3, 3]));
        let yab = infer(&mut conv, &both);
        for (i, v) in ya.data().iter().enumerate() {
            assert!((yab.data()[i] - v).abs() < 1e-6);
        }
        for (i, v) in yb.data().iter().enumerate() {
            assert!((yab.data()[ya.len() + i] - v).abs() < 1e-6);
        }
    }

    #[test]
    fn image_size_change_between_calls_is_handled() {
        // The padded scratch must rebuild when the image size changes,
        // including a change that keeps the padded byte count equal.
        let mut conv = Conv2d::new(1, 1, 3, Init::Zeros, 0);
        conv.w[4] = 1.0; // identity kernel
        for &(h, w) in &[(4usize, 4usize), (6, 2), (2, 6), (4, 4)] {
            let x = Tensor::new(pseudo(h * w, (h * 31 + w) as u64), &[1, 1, h, w]);
            let y = infer(&mut conv, &x);
            for (a, b) in y.data().iter().zip(x.data()) {
                assert!((a - b).abs() < 1e-6, "{h}x{w}");
            }
        }
    }

    #[test]
    fn backward_bias_gradient_is_output_sum() {
        let mut conv = Conv2d::new(1, 2, 3, Init::HeNormal, 7);
        let x = Tensor::new(pseudo(2 * 16, 3), &[2, 1, 4, 4]);
        let _ = train_forward(&mut conv, &x);
        let gy = Tensor::full(&[2, 2, 4, 4], 1.0);
        let _ = backward(&mut conv, &gy);
        // Each bias sees 2 samples × 16 pixels of unit gradient.
        assert!((conv.db[0] - 32.0).abs() < 1e-4);
        assert!((conv.db[1] - 32.0).abs() < 1e-4);
    }

    #[test]
    fn five_by_five_kernel_matches_naive_conv() {
        let (in_ch, out_ch, k, h, w) = (2, 3, 5, 8, 6);
        let mut conv = Conv2d::new(in_ch, out_ch, k, Init::Zeros, 0);
        conv.w.copy_from_slice(&pseudo(out_ch * in_ch * k * k, 23));
        conv.b.copy_from_slice(&pseudo(out_ch, 29));
        let x_data = pseudo(in_ch * h * w, 31);
        let x = Tensor::new(x_data.clone(), &[1, in_ch, h, w]);
        let y = infer(&mut conv, &x);
        let oracle = conv_naive(&x_data, &conv.w, &conv.b, in_ch, out_ch, k, h, w);
        for (i, (a, b)) in y.data().iter().zip(&oracle).enumerate() {
            assert!((a - b).abs() < 1e-4, "elem {i}: {a} vs {b}");
        }
    }

    #[test]
    fn backward_weight_gradient_matches_finite_difference_probe() {
        // Poke one weight, verify dL/dw against the accumulated gradient
        // for a quadratic loss L = ½Σy².
        let mut conv = Conv2d::new(1, 1, 3, Init::HeNormal, 41);
        let x = Tensor::new(pseudo(2 * 25, 43), &[2, 1, 5, 5]);
        let y = train_forward(&mut conv, &x);
        let gy = y.clone(); // dL/dy = y for L = ½Σy²
        let _ = backward(&mut conv, &gy);
        let analytic = conv.dw[4];

        let loss = |c: &mut Conv2d| -> f64 {
            let out = infer(c, &x);
            out.data()
                .iter()
                .map(|&v| 0.5 * (v as f64) * (v as f64))
                .sum()
        };
        let eps = 1e-3;
        conv.w[4] += eps;
        let plus = loss(&mut conv);
        conv.w[4] -= 2.0 * eps;
        let minus = loss(&mut conv);
        conv.w[4] += eps;
        let numeric = ((plus - minus) / (2.0 * eps as f64)) as f32;
        assert!(
            (analytic - numeric).abs() / numeric.abs().max(1e-3) < 5e-2,
            "dW: analytic {analytic} vs numeric {numeric}"
        );
    }

    /// The `_into` passes give the same bits into fresh (allocating)
    /// tensors as into warm reused ones.
    #[test]
    fn into_variants_match_allocating_calls() {
        let (in_ch, out_ch, k, h, w) = (2, 4, 3, 8, 8);
        let make = || {
            let mut c = Conv2d::new(in_ch, out_ch, k, Init::HeNormal, 9);
            c.b.copy_from_slice(&pseudo(out_ch, 61));
            c
        };
        let x = Tensor::new(pseudo(3 * in_ch * h * w, 67), &[3, in_ch, h, w]);
        let gy = Tensor::new(pseudo(3 * out_ch * h * w, 71), &[3, out_ch, h, w]);

        let mut a = make();
        let ya = train_forward(&mut a, &x);
        let gxa = backward(&mut a, &gy);

        let mut b = make();
        let mut yb = Tensor::zeros(&[0]);
        let mut gxb = Tensor::zeros(&[0]);
        // Run twice so the second pass reuses warm buffers (gradients
        // accumulate across the two backwards).
        for _ in 0..2 {
            b.train_forward_into(&x, &mut yb);
            b.backward_into(&gy, &mut gxb);
        }
        assert_eq!(ya.shape(), yb.shape());
        assert_eq!(ya.data(), yb.data());
        assert_eq!(gxa.shape(), gxb.shape());
        assert_eq!(gxa.data(), gxb.data());
        // One backward vs two accumulating ones: dW doubles.
        let mut dwa = Vec::new();
        a.visit_params(&mut |p, g| {
            if p.len() > out_ch {
                dwa = g.to_vec();
            }
        });
        let mut dwb = Vec::new();
        b.visit_params(&mut |p, g| {
            if p.len() > out_ch {
                dwb = g.to_vec();
            }
        });
        for (x2, x1) in dwb.iter().zip(&dwa) {
            assert!((x2 - 2.0 * x1).abs() < 1e-3 * (1.0 + x1.abs()));
        }
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn even_kernel_rejected() {
        let _ = Conv2d::new(1, 1, 4, Init::Zeros, 0);
    }
}
