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
//! and the solver is the one `DlFieldSolver`, instantiated at [`Grid2D`].
//! This module keeps only what is 2-D: the input binning (`bin_density`
//! behind [`InputBinning`]) and the default architecture, [`arch_2d`].
//! Harvest and training are `dlpic-dataset`'s, written once for both
//! dimensions; inference, normalization and the field write are the code
//! the 1-D solver runs.

use crate::builder::ArchSpec;
use crate::field_solver::InputBinning;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field_solver::{DlFieldSolver, FrozenBundle};
    use crate::normalize::NormStats;
    use dlpic_nn::frozen::Precision;
    use dlpic_nn::network::PredictWorkspace;
    use dlpic_nn::tensor::Tensor;
    use dlpic_pic::init2d::TwoStream2DInit;
    use dlpic_pic::shape::Shape;
    use dlpic_pic::simulation::{PicConfig, Simulation};
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
    fn untrained_solver_writes_finite_fields() {
        let grid = tiny_grid();
        let mut solver = tiny_frozen(0, DensityBinning::Ngp).solver();
        let p = TwoStream2DInit::random(0.2, 0.0, 512, 1).build(&grid);
        let mut e = vec![0.0; 2 * grid.nodes()];
        solver.solve(&p, &grid, &mut e);
        assert!(e.iter().all(|v| v.is_finite()));
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
