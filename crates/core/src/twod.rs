//! The two-dimensional DL field solver — the "two-dimensional systems"
//! extension named as future work in the paper's §VII.
//!
//! ## Input representation
//!
//! In 1-D the paper feeds the network the `(x, v)` phase-space histogram.
//! The direct 2-D analogue is the four-dimensional `(x, y, vx, vy)` grid,
//! which is intractable as a dense network input (a 32⁴ grid has one
//! million bins). The electrostatic field, however, depends on the
//! particle state *only through the charge density* — in 1-D the
//! phase-space histogram strictly contains ρ(x) as its column sums, which
//! is the part the network needs. The 2-D extension therefore feeds the
//! configuration-space histogram ρ(x, y) (the 2-D column-sum analogue) and
//! predicts both field components stacked as `[Ex | Ey]`. This is recorded
//! as a substitution in DESIGN.md.
//!
//! The rest of the method is unchanged: histograms are min–max normalized
//! with the training-set statistics (paper Eq. 5), the network is an MLP
//! with ReLU hidden layers and a linear output trained with Adam on MSE,
//! and the solver is the one `DlFieldSolver`, instantiated at [`Grid2D`]:
//! this module supplies its input binning (`bin_density` behind
//! [`InputBinning`]) and the harvest/train pipeline, which ends in a
//! `FrozenBundle<Grid2D>`; inference, normalization and the field write
//! are the code the 1-D solver runs.

use crate::builder::ArchSpec;
use crate::field_solver::{FrozenBundle, InputBinning};
use crate::normalize::NormStats;
use dlpic_nn::data::Dataset;
use dlpic_nn::frozen::Precision;
use dlpic_nn::loss::Mse;
use dlpic_nn::optimizer::adam::Adam;
use dlpic_nn::tensor::Tensor;
use dlpic_nn::trainer::{train, TrainConfig, TrainHistory};
use dlpic_pic::simulation::{PicConfig, Simulation};
use dlpic_pic::solver::TraditionalSolver;
use dlpic_pic::{Grid2D, Particles2D};

/// Binning order for the 2-D density histogram (mirrors the 1-D
/// `BinningShape`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DensityBinning {
    /// Count each particle into its nearest cell.
    #[default]
    Ngp,
    /// Bilinear spreading over the four surrounding cells.
    Cic,
}

/// Bins particle positions into a row-major `nx×ny` count histogram
/// (`out[iy * nx + ix]`, `x` fastest). Weights sum to the particle count.
/// `out` is overwritten.
///
/// # Panics
/// Panics if `out` length differs from the grid node count.
fn bin_density(particles: &Particles2D, grid: &Grid2D, shape: DensityBinning, out: &mut [f32]) {
    assert_eq!(out.len(), grid.nodes(), "density buffer size mismatch");
    out.fill(0.0);
    let (nx, ny) = (grid.nx(), grid.ny());
    let inv_dx = 1.0 / grid.dx();
    let inv_dy = 1.0 / grid.dy();
    let [x, y] = &particles.pos;

    match shape {
        DensityBinning::Ngp => {
            for (&x, &y) in x.iter().zip(y) {
                let ix = ((x * inv_dx + 0.5) as usize) % nx;
                let iy = ((y * inv_dy + 0.5) as usize) % ny;
                out[iy * nx + ix] += 1.0;
            }
        }
        DensityBinning::Cic => {
            for (&x, &y) in x.iter().zip(y) {
                let fx = x * inv_dx;
                let ix0 = fx.floor();
                let wx1 = fx - ix0;
                let ix0 = (ix0 as i64).rem_euclid(nx as i64) as usize;
                let ix1 = if ix0 + 1 == nx { 0 } else { ix0 + 1 };
                let fy = y * inv_dy;
                let iy0 = fy.floor();
                let wy1 = fy - iy0;
                let iy0 = (iy0 as i64).rem_euclid(ny as i64) as usize;
                let iy1 = if iy0 + 1 == ny { 0 } else { iy0 + 1 };
                let (wx0, wy0) = (1.0 - wx1, 1.0 - wy1);
                out[iy0 * nx + ix0] += (wy0 * wx0) as f32;
                out[iy0 * nx + ix1] += (wy0 * wx1) as f32;
                out[iy1 * nx + ix0] += (wy1 * wx0) as f32;
                out[iy1 * nx + ix1] += (wy1 * wx1) as f32;
            }
        }
    }
}

/// The 2-D input: the configuration-space density histogram, always flat.
impl InputBinning for Grid2D {
    type Binner = DensityBinning;

    fn input_len(_binning: &DensityBinning, grid: &Grid2D) -> usize {
        grid.nodes()
    }

    fn bin(
        binning: &DensityBinning,
        particles: &Particles2D,
        grid: &Grid2D,
        dst: &mut [f32],
    ) -> usize {
        bin_density(particles, grid, *binning, dst);
        particles.len()
    }
}

/// One training sample of the 2-D extension: a density histogram and the
/// associated field components.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample2D {
    /// Raw (unnormalized) density histogram, `nx·ny` counts.
    pub hist: Vec<f32>,
    /// `Ex` on the nodes.
    pub ex: Vec<f32>,
    /// `Ey` on the nodes.
    pub ey: Vec<f32>,
}

/// Runs a traditional 2-D PIC simulation and harvests one sample every
/// `stride` steps (stride 1 = every step), mirroring the paper's 1-D
/// harvesting procedure.
pub fn harvest_2d(cfg: PicConfig<Grid2D>, binning: DensityBinning, stride: usize) -> Vec<Sample2D> {
    assert!(stride > 0, "stride must be positive");
    let n_steps = cfg.n_steps;
    let grid = cfg.grid.clone();
    let mut sim = Simulation::new(cfg, Box::new(TraditionalSolver::default_config()));
    let mut samples = Vec::with_capacity(n_steps / stride + 1);
    let mut hist = vec![0.0f32; grid.nodes()];
    for step in 0..n_steps {
        sim.step();
        if step % stride != 0 {
            continue;
        }
        bin_density(sim.particles(), &grid, binning, &mut hist);
        let (ex, ey) = sim.efield().split_at(grid.nodes());
        samples.push(Sample2D {
            hist: hist.clone(),
            ex: ex.iter().map(|&v| v as f32).collect(),
            ey: ey.iter().map(|&v| v as f32).collect(),
        });
    }
    samples
}

/// Assembles an [`Dataset`] from samples: inputs are min–max normalized
/// histograms (statistics returned for inference-time reuse), targets are
/// `[Ex | Ey]` stacked per sample.
///
/// # Panics
/// Panics on an empty sample list.
fn build_dataset_2d(samples: &[Sample2D]) -> (Dataset, NormStats) {
    assert!(!samples.is_empty(), "no samples");
    let in_len = samples[0].hist.len();
    let out_len = samples[0].ex.len() + samples[0].ey.len();
    let mut all_inputs: Vec<f32> = Vec::with_capacity(samples.len() * in_len);
    for s in samples {
        all_inputs.extend_from_slice(&s.hist);
    }
    let norm = NormStats::from_data(&all_inputs);
    norm.apply(&mut all_inputs);
    let mut targets: Vec<f32> = Vec::with_capacity(samples.len() * out_len);
    for s in samples {
        targets.extend_from_slice(&s.ex);
        targets.extend_from_slice(&s.ey);
    }
    let x = Tensor::new(all_inputs, &[samples.len(), in_len]);
    let y = Tensor::new(targets, &[samples.len(), out_len]);
    (Dataset::new(x, y), norm)
}

/// The default 2-D architecture: an MLP from `nodes` density bins to
/// `2·nodes` field values, with the same ReLU-hidden / linear-output
/// structure as the paper's 1-D MLP.
pub fn arch_2d(nodes: usize, hidden: Vec<usize>) -> ArchSpec {
    ArchSpec::Mlp {
        input: nodes,
        hidden,
        output: 2 * nodes,
    }
}

/// Configuration for [`train_2d_solver`].
#[derive(Debug, Clone)]
pub struct Train2DConfig {
    /// Hidden-layer widths.
    pub hidden: Vec<usize>,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Weight-init / shuffle seed.
    pub seed: u64,
}

impl Default for Train2DConfig {
    fn default() -> Self {
        Self {
            hidden: vec![256, 256],
            learning_rate: 1e-3,
            epochs: 40,
            batch_size: 32,
            seed: 0,
        }
    }
}

/// Trains a 2-D DL field solver on harvested samples and freezes it at
/// `precision`.
///
/// # Panics
/// Panics on an empty sample list.
pub fn train_2d_solver(
    grid: &Grid2D,
    samples: &[Sample2D],
    binning: DensityBinning,
    cfg: &Train2DConfig,
    precision: Precision,
) -> (FrozenBundle<Grid2D>, TrainHistory) {
    let (dataset, norm) = build_dataset_2d(samples);
    let arch = arch_2d(grid.nodes(), cfg.hidden.clone());
    let mut net = arch.build(cfg.seed);
    let mut opt = Adam::new(cfg.learning_rate);
    let tc = TrainConfig {
        epochs: cfg.epochs,
        batch_size: cfg.batch_size,
        shuffle_seed: cfg.seed,
        log_every: 0,
    };
    let history = train(&mut net, &Mse, &mut opt, &dataset, None, &tc);
    let reference_mass: f32 = samples[0].hist.iter().sum();
    let frozen = FrozenBundle::from_network(&net, binning, norm, "dl-2d-mlp", precision)
        .expect("the 2-D MLP has a frozen form")
        .with_reference_mass(reference_mass);
    (frozen, history)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field_solver::DlFieldSolver;
    use dlpic_nn::network::PredictWorkspace;
    use dlpic_nn::tensor::Tensor;
    use dlpic_pic::init2d::TwoStream2DInit;
    use dlpic_pic::shape::Shape;
    use dlpic_pic::solver::{FieldSolver, PhasedFieldSolver};

    fn tiny_grid() -> Grid2D {
        Grid2D::new(8, 8, 2.0532, 2.0532)
    }

    /// An untrained `tiny_grid` MLP with one hidden layer of 16, frozen at
    /// f32.
    fn tiny_frozen(seed: u64, binning: DensityBinning) -> FrozenBundle<Grid2D> {
        let arch = arch_2d(tiny_grid().nodes(), vec![16]);
        FrozenBundle::from_network(
            &arch.build(seed),
            binning,
            NormStats::identity(),
            "dl-2d",
            Precision::F32,
        )
        .unwrap()
    }

    #[test]
    fn density_binning_conserves_counts() {
        let grid = tiny_grid();
        let p = TwoStream2DInit::random(0.2, 0.01, 500, 3).build(&grid);
        for shape in [DensityBinning::Ngp, DensityBinning::Cic] {
            let mut hist = vec![0.0f32; grid.nodes()];
            bin_density(&p, &grid, shape, &mut hist);
            let total: f32 = hist.iter().sum();
            assert!((total - 500.0).abs() < 1e-3, "{shape:?}: {total}");
        }
    }

    #[test]
    fn cic_density_of_node_centred_particle() {
        let grid = tiny_grid();
        let p = Particles2D::new(
            [vec![2.0 * grid.dx()], vec![3.0 * grid.dy()]],
            [vec![0.0], vec![0.0]],
            -1.0,
            1.0,
        );
        let mut hist = vec![0.0f32; grid.nodes()];
        bin_density(&p, &grid, DensityBinning::Cic, &mut hist);
        assert!((hist[grid.index(2, 3)] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn harvest_produces_expected_sample_count() {
        let cfg = PicConfig {
            grid: tiny_grid(),
            init: Some(TwoStream2DInit::quiet(0.2, 0.0, 1024, 1e-3, 0)),
            dt: 0.2,
            n_steps: 10,
            gather_shape: Shape::Cic,
            tracked_modes: vec![],
        };
        let samples = harvest_2d(cfg, DensityBinning::Ngp, 2);
        assert_eq!(samples.len(), 5);
        assert!(samples.iter().all(|s| s.hist.len() == 64));
        assert!(samples.iter().all(|s| s.ex.len() == 64 && s.ey.len() == 64));
        assert!(samples
            .iter()
            .all(|s| s.ex.iter().chain(&s.ey).all(|v| v.is_finite())));
    }

    #[test]
    fn dataset_shapes_and_normalization() {
        let samples = vec![
            Sample2D {
                hist: vec![0.0, 4.0],
                ex: vec![1.0, -1.0],
                ey: vec![0.5, 0.0],
            },
            Sample2D {
                hist: vec![2.0, 2.0],
                ex: vec![0.0, 0.0],
                ey: vec![0.0, 0.5],
            },
        ];
        let (ds, norm) = build_dataset_2d(&samples);
        assert_eq!(ds.len(), 2);
        // Min 0, max 4 → normalized inputs within [0, 1].
        assert!((norm.span() - 4.0).abs() < 1e-6);
        let (x, y) = (&ds.x, &ds.y);
        assert_eq!(x.shape(), &[2, 2]);
        assert_eq!(y.shape(), &[2, 4]);
        assert!(x.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn untrained_solver_writes_finite_fields() {
        let grid = tiny_grid();
        let mut solver = tiny_frozen(0, DensityBinning::Ngp).solver();
        let p = TwoStream2DInit::random(0.2, 0.0, 512, 1).build(&grid);
        let mut e = vec![0.0; 2 * grid.nodes()];
        solver.solve(&p, &grid, &mut e);
        assert!(e.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn trained_solver_beats_untrained_on_training_data() {
        // A minimal learning sanity check: after a few epochs the MSE on
        // the training samples must drop well below the untrained level.
        let grid = tiny_grid();
        let cfg = PicConfig {
            grid: grid.clone(),
            init: Some(TwoStream2DInit::quiet(0.2, 0.0, 2048, 1e-2, 0)),
            dt: 0.2,
            n_steps: 30,
            gather_shape: Shape::Cic,
            tracked_modes: vec![],
        };
        let samples = harvest_2d(cfg, DensityBinning::Ngp, 1);
        let tc = Train2DConfig {
            hidden: vec![32],
            learning_rate: 3e-3,
            epochs: 30,
            batch_size: 8,
            seed: 1,
        };
        let (_, history) =
            train_2d_solver(&grid, &samples, DensityBinning::Ngp, &tc, Precision::F32);
        let first = history.train_loss.first().copied().unwrap();
        let last = history.final_loss().unwrap();
        assert!(
            last < 0.5 * first,
            "training did not reduce loss: {first} → {last}"
        );
    }

    #[test]
    fn frozen_2d_solver_is_bit_identical_to_owned() {
        let grid = tiny_grid();
        let mut net = arch_2d(grid.nodes(), vec![16]).build(3);
        let frozen = tiny_frozen(3, DensityBinning::Cic).with_reference_mass(512.0);
        let mut m1 = frozen.solver();
        let mut m2 = frozen.solver();
        let p = TwoStream2DInit::random(0.2, 0.01, 512, 5).build(&grid);

        let solve = |s: &mut DlFieldSolver<Grid2D>, grid: &Grid2D| {
            let mut ex = vec![0.0; 2 * grid.nodes()];
            s.solve(&p, grid, &mut ex);
            let ey = ex.split_off(grid.nodes());
            (ex, ey)
        };
        let (ex1, ey1) = solve(&mut m1, &grid);
        let (ex2, ey2) = solve(&mut m2, &grid);
        assert_eq!(ex1, ex2);
        assert_eq!(ey1, ey2);

        // The same bits as the source network on the row the solver saw.
        let mut row = vec![0.0f32; grid.nodes()];
        m1.prepare_input(&p, &grid, &mut row);
        let x = Tensor::new(row, &[1, grid.nodes()]);
        let mut ex0: Vec<f64> = net
            .predict_into(&x, &mut PredictWorkspace::new())
            .data()
            .iter()
            .map(|&v| v as f64)
            .collect();
        let ey0 = ex0.split_off(grid.nodes());
        assert_eq!(ex0, ex1);
        assert_eq!(ey0, ey1);

        // One allocation across sharers.
        let (id1, bytes1) = m1.weight_storage().unwrap();
        let (id2, _) = m2.weight_storage().unwrap();
        assert_eq!(id1, id2);
        assert_eq!(bytes1, frozen.weight_bytes());
        assert_eq!(m1.name(), "dl-2d");
        assert_eq!(m1.reference_mass(), 512.0);
    }

    #[test]
    fn solver_plugs_into_simulation_2d() {
        let grid = tiny_grid();
        let solver = tiny_frozen(0, DensityBinning::Ngp).solver();
        let cfg = PicConfig {
            grid,
            init: Some(TwoStream2DInit::quiet(0.2, 0.0, 1024, 1e-3, 0)),
            dt: 0.2,
            n_steps: 5,
            gather_shape: Shape::Cic,
            tracked_modes: vec![(1, 0)],
        };
        let mut sim = Simulation::new(cfg, Box::new(solver));
        sim.run();
        assert_eq!(sim.history().len(), 6);
        assert!(sim.history().total.iter().all(|e| e.is_finite()));
    }
}
