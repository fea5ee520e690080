//! The mini-batch training loop.

use crate::data::{shuffle_permutation, Dataset};
use crate::loss::Loss;
use crate::metrics::evaluate;
use crate::network::{Sequential, TrainWorkspace};
use crate::optimizer::Adam;
use crate::tensor::Tensor;

/// Training-loop configuration (the paper trains with batch 64; 150 epochs
/// for the MLP, 100 for the CNN).
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Base seed for the per-epoch shuffles.
    pub shuffle_seed: u64,
    /// Print a progress line every `n` epochs (0 = silent).
    pub log_every: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 10,
            batch_size: 64,
            shuffle_seed: 0,
            log_every: 0,
        }
    }
}

/// Per-epoch training record.
#[derive(Debug, Clone, Default)]
pub struct TrainHistory {
    /// Mean training loss of each epoch.
    pub train_loss: Vec<f64>,
    /// Validation MAE after each epoch (empty when no validation set).
    pub val_mae: Vec<f64>,
    /// Total wall-clock seconds spent in `train`.
    pub seconds: f64,
}

impl TrainHistory {
    /// Final training loss.
    pub fn final_loss(&self) -> Option<f64> {
        self.train_loss.last().copied()
    }

    /// Best (lowest) validation MAE seen.
    #[cfg(test)]
    fn best_val_mae(&self) -> Option<f64> {
        self.val_mae
            .iter()
            .copied()
            .fold(None, |best, v| match best {
                None => Some(v),
                Some(b) => Some(b.min(v)),
            })
    }
}

/// Trains `net` on `train_set`, optionally tracking MAE on a validation
/// set after each epoch.
///
/// The mini-batch loop is allocation-free after warm-up: epochs shuffle
/// an index permutation instead of copying the dataset, batches gather
/// into two reused tensors, and forward/loss/backward run through a
/// reused [`TrainWorkspace`]. Batch composition is identical to the
/// historical copy-the-dataset implementation.
///
/// The step runs on the global [`dlpic_team`] team: dense layers cut their forward
/// pass, weight gradient and input gradient into runs of output rows and
/// Adam its tensors into runs of parameters, each element computed as on
/// one thread — the trained bits do not depend on the team's size.
pub fn train(
    net: &mut Sequential,
    loss: &dyn Loss,
    opt: &mut Adam,
    train_set: &Dataset,
    validation: Option<&Dataset>,
    cfg: &TrainConfig,
) -> TrainHistory {
    assert!(!train_set.is_empty(), "empty training set");
    assert!(cfg.batch_size > 0, "batch size must be positive");
    // analyze:allow(no-wallclock-in-engine): feeds only TrainHistory's elapsed-seconds diagnostic, never weights or optimizer state
    let start = std::time::Instant::now();
    let mut history = TrainHistory::default();
    let mut perm = Vec::new();
    let mut bx = Tensor::zeros(&[0]);
    let mut by = Tensor::zeros(&[0]);
    let mut workspace = TrainWorkspace::new();
    // The step dispatches to the team back to back: keep its helpers
    // polling between dispatches instead of parking.
    let _hold = dlpic_team::global().hold();

    for epoch in 0..cfg.epochs {
        shuffle_permutation(
            &mut perm,
            train_set.len(),
            cfg.shuffle_seed.wrapping_add(epoch as u64),
        );
        let mut loss_sum = 0.0f64;
        let mut batches = 0usize;
        for (bstart, bsize) in train_set.batch_ranges(cfg.batch_size) {
            train_set.gather_into(&perm[bstart..bstart + bsize], &mut bx, &mut by);
            let l = net.compute_gradients_into(loss, &bx, &by, &mut workspace);
            opt.step(net);
            loss_sum += l as f64;
            batches += 1;
        }
        let epoch_loss = loss_sum / batches.max(1) as f64;
        history.train_loss.push(epoch_loss);

        if let Some(val) = validation {
            let (v_mae, _) = evaluate(net, val, cfg.batch_size);
            history.val_mae.push(v_mae as f64);
        }
        if cfg.log_every > 0 && (epoch + 1) % cfg.log_every == 0 {
            let val_part = history
                .val_mae
                .last()
                .map(|v| format!("  val MAE {v:.5}"))
                .unwrap_or_default();
            eprintln!(
                "epoch {:>4}/{}  loss {epoch_loss:.6}{val_part}",
                epoch + 1,
                cfg.epochs
            );
        }
    }
    history.seconds = start.elapsed().as_secs_f64();
    history
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::Init;
    use crate::layers::{Dense, Relu};
    use crate::loss::Mse;
    use crate::tensor::Tensor;

    /// Regression task: y = 0.5·x0 − 0.25·x1 + 0.1.
    fn linear_task(n: usize) -> Dataset {
        let mut xs = Vec::with_capacity(n * 2);
        let mut ys = Vec::with_capacity(n);
        for i in 0..n {
            let a = ((i * 13 % 29) as f32 / 14.5) - 1.0;
            let b = ((i * 7 % 31) as f32 / 15.5) - 1.0;
            xs.push(a);
            xs.push(b);
            ys.push(0.5 * a - 0.25 * b + 0.1);
        }
        Dataset::new(Tensor::new(xs, &[n, 2]), Tensor::new(ys, &[n, 1]))
    }

    #[test]
    fn training_reduces_loss_monotonically_in_aggregate() {
        let data = linear_task(256);
        let mut net = Sequential::new()
            .push(Dense::new(2, 8, Init::HeNormal, 1))
            .push(Relu::new())
            .push(Dense::new(8, 1, Init::HeNormal, 2));
        let mut opt = Adam::new(0.01);
        let cfg = TrainConfig {
            epochs: 30,
            batch_size: 32,
            ..Default::default()
        };
        let hist = train(&mut net, &Mse, &mut opt, &data, None, &cfg);
        assert_eq!(hist.train_loss.len(), 30);
        assert!(
            hist.final_loss().unwrap() < hist.train_loss[0] * 0.1,
            "{} -> {}",
            hist.train_loss[0],
            hist.final_loss().unwrap()
        );
        assert!(hist.seconds > 0.0);
    }

    #[test]
    fn validation_mae_is_tracked_and_improves() {
        let data = linear_task(300);
        let parts = data.split(&[256, 44]);
        let mut net = Sequential::new().push(Dense::new(2, 1, Init::HeNormal, 3));
        let mut opt = Adam::new(0.02);
        let cfg = TrainConfig {
            epochs: 20,
            batch_size: 32,
            ..Default::default()
        };
        let hist = train(&mut net, &Mse, &mut opt, &parts[0], Some(&parts[1]), &cfg);
        assert_eq!(hist.val_mae.len(), 20);
        assert!(hist.best_val_mae().unwrap() < hist.val_mae[0]);
    }

    #[test]
    fn deterministic_training_under_fixed_seeds() {
        let data = linear_task(128);
        let run = || {
            let mut net = Sequential::new().push(Dense::new(2, 1, Init::GlorotUniform, 9));
            let mut opt = Adam::new(0.01);
            let cfg = TrainConfig {
                epochs: 5,
                batch_size: 16,
                shuffle_seed: 77,
                ..Default::default()
            };
            train(&mut net, &Mse, &mut opt, &data, None, &cfg).train_loss
        };
        assert_eq!(run(), run());
    }

    /// The trained bits do not depend on the team: a net initialised and
    /// trained on this thread alone equals one initialised and trained on
    /// the global team, with layers, batch and Adam tensors big enough to
    /// be cut into runs, an odd batch and inputs zero in whole feature
    /// tiles. (Under the parallel test harness the global team may be
    /// busy and run every part inline; `linalg`'s partition tests are
    /// what prove the cut changes nothing.)
    #[test]
    fn training_on_the_team_is_bit_identical_to_one_thread() {
        use crate::serialize::params_to_bytes;
        let (n, width) = (150, 300);
        let xs = (0..n * width)
            .map(|i| match i % width {
                0..=15 => 0.0,
                f if (i / width + f) % 3 == 0 => 0.0,
                _ => ((i * 37 % 101) as f32 / 50.0) - 1.0,
            })
            .collect();
        let ys = (0..n * 5).map(|i| (i % 7) as f32 / 7.0).collect();
        let data = Dataset::new(Tensor::new(xs, &[n, width]), Tensor::new(ys, &[n, 5]));
        let run = || {
            let mut net = Sequential::new()
                .push(Dense::new(width, 64, Init::HeNormal, 1))
                .push(Relu::new())
                .push(Dense::new(64, 33, Init::HeNormal, 2))
                .push(Relu::new())
                .push(Dense::new(33, 5, Init::GlorotUniform, 3));
            let mut opt = Adam::new(1e-3);
            let cfg = TrainConfig {
                epochs: 2,
                batch_size: 19,
                shuffle_seed: 4,
                log_every: 0,
            };
            train(&mut net, &Mse, &mut opt, &data, None, &cfg);
            params_to_bytes(&mut net)
        };
        let alone = dlpic_team::with_limit(1, run);
        assert!(alone == run(), "team-trained parameters differ");
    }

    #[test]
    #[should_panic(expected = "empty training set")]
    fn empty_training_set_rejected() {
        let empty = Dataset::new(Tensor::zeros(&[0, 2]), Tensor::zeros(&[0, 1]));
        let mut net = Sequential::new().push(Dense::new(2, 1, Init::Zeros, 0));
        let mut opt = Adam::new(0.01);
        let _ = train(
            &mut net,
            &Mse,
            &mut opt,
            &empty,
            None,
            &TrainConfig::default(),
        );
    }
}
