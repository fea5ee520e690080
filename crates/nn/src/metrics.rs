//! Evaluation metrics — the two numbers of the paper's Table I.

use crate::data::Dataset;
use crate::network::{PredictWorkspace, Sequential};
use crate::tensor::Tensor;

/// Mean Absolute Error over all elements (paper Eq. 6).
///
/// # Panics
/// Panics on shape mismatch or empty tensors.
pub fn mae(pred: &Tensor, target: &Tensor) -> f32 {
    assert_eq!(pred.shape(), target.shape(), "shape mismatch");
    assert!(!pred.is_empty(), "empty tensors");
    let sum: f64 = pred
        .data()
        .iter()
        .zip(target.data())
        .map(|(&p, &t)| (p - t).abs() as f64)
        .sum();
    (sum / pred.len() as f64) as f32
}

/// Maximum absolute error over all elements ("Max Error" of Table I).
///
/// # Panics
/// Panics on shape mismatch.
pub fn max_abs_error(pred: &Tensor, target: &Tensor) -> f32 {
    assert_eq!(pred.shape(), target.shape(), "shape mismatch");
    pred.data()
        .iter()
        .zip(target.data())
        .map(|(&p, &t)| (p - t).abs())
        .fold(0.0, f32::max)
}

/// Runs `net` over `data` in consecutive batches, handing each
/// (prediction, target) pair to `f`; the batch and activation buffers are
/// reused from one batch to the next.
///
/// # Panics
/// Panics on an empty dataset.
fn for_each_batch(
    net: &mut Sequential,
    data: &Dataset,
    batch_size: usize,
    mut f: impl FnMut(&Tensor, &Tensor),
) {
    assert!(!data.is_empty(), "empty dataset");
    let rows: Vec<usize> = (0..data.len()).collect();
    let (mut bx, mut by) = (Tensor::zeros(&[0]), Tensor::zeros(&[0]));
    let mut workspace = PredictWorkspace::new();
    for (start, size) in data.batch_ranges(batch_size) {
        data.gather_into(&rows[start..start + size], &mut bx, &mut by);
        f(net.predict_into(&bx, &mut workspace), &by);
    }
}

/// MAE and max error of a network over a dataset, evaluated in batches.
///
/// # Panics
/// Panics on an empty dataset.
pub fn evaluate(net: &mut Sequential, data: &Dataset, batch_size: usize) -> (f32, f32) {
    let mut abs_sum = 0.0f64;
    let mut worst = 0.0f32;
    let mut count = 0usize;
    for_each_batch(net, data, batch_size, |pred, target| {
        for (&p, &t) in pred.data().iter().zip(target.data()) {
            abs_sum += (p - t).abs() as f64;
            worst = worst.max((p - t).abs());
        }
        count += pred.len();
    });
    ((abs_sum / count as f64) as f32, worst)
}

/// Per-output-element mean absolute error (length = output width). Feeding
/// the result to an FFT gives the paper-§VII "spectral analysis of errors".
///
/// # Panics
/// Panics on an empty dataset.
pub fn per_output_mae(net: &mut Sequential, data: &Dataset, batch_size: usize) -> Vec<f64> {
    let mut acc = vec![0.0f64; data.y.row_len()];
    let mut count = 0usize;
    for_each_batch(net, data, batch_size, |pred, target| {
        for r in 0..pred.batch() {
            for (a, (&p, &t)) in acc.iter_mut().zip(pred.row(r).iter().zip(target.row(r))) {
                *a += (p - t).abs() as f64;
            }
        }
        count += pred.batch();
    });
    for a in &mut acc {
        *a /= count as f64;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::Init;
    use crate::layers::Dense;

    #[test]
    fn mae_and_max_of_known_errors() {
        let p = Tensor::new(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let t = Tensor::new(vec![1.5, 2.0, 3.0, 2.0], &[2, 2]);
        assert!((mae(&p, &t) - (0.5 + 2.0) / 4.0).abs() < 1e-6);
        assert!((max_abs_error(&p, &t) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn evaluate_identity_network() {
        // Dense initialized as the identity: predictions equal inputs.
        let mut d = Dense::new(2, 2, Init::Zeros, 0);
        let mut net = Sequential::new();
        {
            use crate::layer::Layer as _;
            d.visit_params(&mut |p, _| {
                if p.len() == 4 {
                    p.copy_from_slice(&[1.0, 0.0, 0.0, 1.0]);
                }
            });
        }
        net.push_boxed(Box::new(d));
        let x = Tensor::new(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]);
        let data = Dataset::new(x.clone(), x);
        let (m, w) = evaluate(&mut net, &data, 2);
        assert!(m < 1e-6 && w < 1e-6);
    }

    #[test]
    fn per_output_mae_localizes_bad_output() {
        // Identity on element 0, constant 0 on element 1.
        let mut d = Dense::new(2, 2, Init::Zeros, 0);
        {
            use crate::layer::Layer as _;
            d.visit_params(&mut |p, _| {
                if p.len() == 4 {
                    p.copy_from_slice(&[1.0, 0.0, 0.0, 0.0]);
                }
            });
        }
        let mut net = Sequential::new();
        net.push_boxed(Box::new(d));
        let x = Tensor::new(vec![1.0, 1.0, 2.0, 2.0], &[2, 2]);
        let data = Dataset::new(x.clone(), x);
        let per = per_output_mae(&mut net, &data, 8);
        assert!(per[0] < 1e-9);
        assert!((per[1] - 1.5).abs() < 1e-6);
    }

    /// An empty dataset has no mean: refused, as `evaluate` refuses it,
    /// instead of a NaN in every slot.
    #[test]
    #[should_panic(expected = "empty dataset")]
    fn per_output_mae_refuses_an_empty_dataset() {
        let mut net = Sequential::new().push(Dense::new(2, 2, Init::Zeros, 0));
        let data = Dataset::new(Tensor::zeros(&[0, 2]), Tensor::zeros(&[0, 2]));
        let _ = per_output_mae(&mut net, &data, 8);
    }
}
