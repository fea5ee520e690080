//! The one trainer: a sample store in, a trained network out, in either
//! dimension (paper §IV.A.2: Adam on the min–max normalised histograms).

use crate::sample::{InputGrid, PhaseDataset};
use dlpic_core::builder::ArchSpec;
use dlpic_core::bundle::ModelBundle;
use dlpic_core::field_solver::{FrozenBundle, InputBinning};
use dlpic_core::normalize::NormStats;
use dlpic_nn::frozen::{FreezeError, Precision};
use dlpic_nn::loss::Loss;
use dlpic_nn::network::Sequential;
use dlpic_nn::optimizer::adam::Adam;
use dlpic_nn::trainer::{train, TrainConfig, TrainHistory};

/// A network trained on a store, with what a model bundle records beside
/// its weights.
pub struct Trained {
    /// The trained network.
    pub net: Sequential,
    /// The training inputs' min–max statistics (paper Eq. 5).
    pub norm: NormStats,
    /// The training curve.
    pub history: TrainHistory,
    /// The first training histogram's total mass, which is its harvest's
    /// particle count.
    pub reference_mass: f32,
}

impl Trained {
    /// The 1-D model file's form: `arch`'s trained parameters with the
    /// phase grid and binning `data` was harvested on.
    pub fn bundle(&mut self, arch: ArchSpec, data: &PhaseDataset) -> ModelBundle {
        ModelBundle::from_network(&mut self.net, arch, data.spec, data.binning, self.norm)
            .with_reference_mass(self.reference_mass)
    }

    /// Freezes the network at `precision` into the bundle a
    /// `DlFieldSolver<G>` runs, binning with `binner`. Errs, naming the
    /// layer, for a network without a frozen form (a CNN or residual MLP)
    /// or with a non-finite parameter (a diverged training), and on a
    /// non-finite normalization bound.
    pub fn freeze<G: InputBinning>(
        &self,
        binner: G::Binner,
        name: &'static str,
        precision: Precision,
    ) -> Result<FrozenBundle<G>, FreezeError> {
        Ok(
            FrozenBundle::from_network(&self.net, binner, self.norm, name, precision)?
                .with_reference_mass(self.reference_mass),
        )
    }
}

/// Builds `arch` seeded by `tc.shuffle_seed` (which also seeds the
/// shuffles), then trains it with Adam at `learning_rate` on `data`
/// normalised by its own statistics, reporting the MAE on `validation`
/// (normalised by the same statistics) per epoch when given one.
///
/// # Panics
/// Panics on an empty store.
pub fn fit<S: InputGrid>(
    arch: &ArchSpec,
    data: &PhaseDataset<S>,
    loss: &dyn Loss,
    validation: Option<&PhaseDataset<S>>,
    learning_rate: f32,
    tc: &TrainConfig,
) -> Trained {
    let norm = data.input_norm_stats();
    let kind = arch.input_kind();
    let train_set = data.to_nn_dataset(&norm, kind);
    let val_set = validation.map(|v| v.to_nn_dataset(&norm, kind));
    let mut net = arch.build(tc.shuffle_seed);
    let mut opt = Adam::new(learning_rate);
    let history = train(&mut net, loss, &mut opt, &train_set, val_set.as_ref(), tc);
    Trained {
        net,
        norm,
        history,
        reference_mass: data.input_row(0).iter().sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{harvest, Capture};
    use dlpic_core::twod::arch_2d;
    use dlpic_core::DensityBinning;
    use dlpic_nn::loss::Mse;
    use dlpic_pic::simulation::PicConfig;
    use dlpic_pic::solver::TraditionalSolver;
    use dlpic_pic::{Grid2D, Shape, TwoStream2DInit};

    #[test]
    fn trained_solver_beats_untrained_on_training_data() {
        // A minimal learning sanity check: after a few epochs the MSE on
        // the training samples must drop well below the untrained level.
        let grid = Grid2D::new(8, 8, 2.0532, 2.0532);
        let cfg = PicConfig {
            grid: grid.clone(),
            init: Some(TwoStream2DInit::quiet(0.2, 0.0, 2048, 1e-2, 0)),
            dt: 0.2,
            n_steps: 30,
            gather_shape: Shape::Cic,
            tracked_modes: vec![],
        };
        let mut data = PhaseDataset::new(grid.clone(), DensityBinning::Ngp, 2 * grid.nodes());
        harvest(
            cfg,
            TraditionalSolver::default_config(),
            Capture::AfterStep,
            &mut data,
        );
        let tc = TrainConfig {
            epochs: 30,
            batch_size: 8,
            shuffle_seed: 1,
            log_every: 0,
        };
        let trained = fit(
            &arch_2d(grid.nodes(), vec![32]),
            &data,
            &Mse,
            None,
            3e-3,
            &tc,
        );
        let first = trained.history.train_loss.first().copied().unwrap();
        let last = trained.history.final_loss().unwrap();
        assert!(
            last < 0.5 * first,
            "training did not reduce loss: {first} → {last}"
        );
        let frozen = trained
            .freeze::<Grid2D>(DensityBinning::Ngp, "dl-2d", Precision::F32)
            .expect("a finite MLP freezes");
        assert_eq!(frozen.model().output_len(), Some(2 * grid.nodes()));
    }
}
