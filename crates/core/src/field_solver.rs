//! The DL electric-field solver — the second grey box of the paper's
//! Fig. 2.
//!
//! Implements [`dlpic_pic::solver::FieldSolver`], so it drops into the same
//! [`dlpic_pic::simulation::Simulation`] as the traditional solver: the
//! interpolation step and particle mover are untouched, exactly as the
//! paper describes. Each PIC cycle it
//!
//! 1. bins the particle state into the network's input histogram,
//! 2. normalizes it with the *training-set* min/max (paper Eq. 5),
//! 3. runs one network inference,
//! 4. writes the predicted electric field onto the grid nodes.
//!
//! The solver is written once over the geometry: `DlFieldSolver` (the
//! parameter defaults to [`Grid1D`]) bins the `(x, v)` phase space as the
//! paper does, `DlFieldSolver<Grid2D>` the configuration-space density
//! (see [`crate::twod`]). Step 1 — [`InputBinning`] — is the only place
//! the two differ; the predicted field components come back stacked in one
//! output row either way.
//!
//! What a solver runs is a [`FrozenBundle`] — the `Arc`-shared frozen
//! weights plus the binner, normalization, reference mass and name — in
//! both dimensions. [`FrozenBundle::from_network`] freezes one from a
//! trained network, `ModelBundle::freeze` from a model file, and only
//! [`FrozenBundle::solver`] mints a solver: the bundle plus its per-session
//! scratch, reading the one weight allocation.

use crate::normalize::NormStats;
use crate::phase_space::{bin_phase_space, BinningShape, PhaseGridSpec};
use dlpic_nn::frozen::{FreezeError, FrozenModel, Precision};
use dlpic_nn::network::{PredictWorkspace, Sequential};
use dlpic_nn::tensor::Tensor;
use dlpic_pic::geometry::Geometry;
use dlpic_pic::grid::Grid1D;
use dlpic_pic::particles::Particles;
use dlpic_pic::solver::{FieldSolver, PhasedFieldSolver};
use std::sync::Arc;

/// The one per-dimension piece of a DL field solve: how a geometry's
/// particle state becomes the network's input row. Everything after it —
/// mass rescaling, normalization, inference, the field write — is
/// [`DlFieldSolver`]'s and is the same in every dimension.
pub trait InputBinning: Geometry {
    /// What parameterises the binning: the phase grid and binning order in
    /// 1-D; the density-binning order in 2-D. Plain data:
    /// a [`FrozenBundle`] carries one and hands a copy to every member.
    type Binner: Clone + std::fmt::Debug + Send + Sync + 'static;

    /// Width of one input row on `grid`.
    fn input_len(binner: &Self::Binner, grid: &Self) -> usize;

    /// Bins the particles into `dst` (`input_len` raw counts, overwritten)
    /// and returns the particle count — the histogram's total mass.
    fn bin(
        binner: &Self::Binner,
        particles: &Self::Particles,
        grid: &Self,
        dst: &mut [f32],
    ) -> usize;
}

/// The paper's input: the `(x, v)` phase-space histogram, one flat row.
impl InputBinning for Grid1D {
    type Binner = (PhaseGridSpec, BinningShape);

    fn input_len((spec, ..): &Self::Binner, _grid: &Grid1D) -> usize {
        spec.cells()
    }

    fn bin(
        (spec, shape): &Self::Binner,
        particles: &Particles,
        grid: &Grid1D,
        dst: &mut [f32],
    ) -> usize {
        bin_phase_space(particles, grid, spec, *shape, dst);
        particles.len()
    }
}

/// A neural-network-backed electric-field solver: one session's handle on
/// a [`FrozenBundle`] plus the scratch its solves reuse. Only
/// [`FrozenBundle::solver`] makes one, so every solver reads a shared
/// frozen model; none holds weights of its own.
pub struct DlFieldSolver<G: InputBinning = Grid1D> {
    bundle: FrozenBundle<G>,
    scratch: Vec<f32>,
    out_scratch: Vec<f32>,
    input: Tensor,
    workspace: PredictWorkspace,
    /// Input and output row widths, learned at the first solve (0 = not
    /// solved yet). Every simulation performs its initial field solve
    /// during construction, so both are known by the time an external
    /// scheduler asks.
    in_len: usize,
    out_len: usize,
}

impl<G: InputBinning> DlFieldSolver<G> {
    /// What parameterises this solver's input binning (1-D: the phase
    /// grid and binning order).
    pub fn binner(&self) -> &G::Binner {
        &self.bundle.binner
    }

    /// The training histograms' total mass (0 = unknown).
    pub fn reference_mass(&self) -> f32 {
        self.bundle.reference_mass
    }

    /// Rescales a raw histogram of total count `mass` to the training mass
    /// (when one is set) and applies the training-set normalization
    /// (paper Eq. 5).
    fn normalize(&self, mass: f32, histogram: &mut [f32]) {
        let reference_mass = self.bundle.reference_mass;
        if reference_mass > 0.0 && (mass - reference_mass).abs() > 0.5 {
            let factor = reference_mass / mass;
            for v in histogram.iter_mut() {
                *v *= factor;
            }
        }
        self.bundle.norm.apply(histogram);
    }

    /// Inference + field write from the prepared `self.scratch` — phases
    /// 2–3 on the solver's own buffers (the in-process solo path of
    /// [`FieldSolver::solve`] and the distributed raw-histogram entry).
    fn infer_scratch_into(&mut self, e: &mut [f64]) {
        // `take` sidesteps the scratch-vs-self borrows without copying.
        let scratch = std::mem::take(&mut self.scratch);
        let mut out = std::mem::take(&mut self.out_scratch);
        out.resize(e.len(), 0.0);
        self.infer_batch(&scratch, 1, &mut out);
        self.apply_output(&out, e);
        self.scratch = scratch;
        self.out_scratch = out;
    }
}

/// The one thing a DL field solve runs, in either dimension: the
/// immutable, `Arc`-shared model plus the inference-time metadata — input
/// binner, training-set normalization, reference mass and name. Cloning is
/// cheap (one `Arc` bump), and every [`Self::solver`] reads the same
/// weight allocation.
#[derive(Debug, Clone)]
pub struct FrozenBundle<G: InputBinning = Grid1D> {
    pub(crate) model: Arc<FrozenModel>,
    pub(crate) binner: G::Binner,
    pub(crate) norm: NormStats,
    pub(crate) reference_mass: f32,
    pub(crate) name: &'static str,
}

impl<G: InputBinning> FrozenBundle<G> {
    /// Freezes a trained network at `precision`. `norm` must be the
    /// statistics of the network's *training* inputs, and `binner` must
    /// produce the flat input row the network reads. Errs, naming the
    /// layer, on a network without a frozen inference form or with a
    /// non-finite parameter, and with
    /// [`FreezeError::NonFiniteNormalization`] on a NaN or infinite bound
    /// in `norm`.
    pub fn from_network(
        net: &Sequential,
        binner: G::Binner,
        norm: NormStats,
        name: &'static str,
        precision: Precision,
    ) -> Result<Self, FreezeError> {
        if !norm.is_finite() {
            return Err(FreezeError::NonFiniteNormalization);
        }
        Ok(Self {
            model: Arc::new(net.freeze(precision)?),
            binner,
            norm,
            reference_mass: 0.0,
            name,
        })
    }

    /// Sets the total histogram mass (= particle count) of the *training*
    /// histograms. When set (> 0), inference histograms are rescaled to
    /// this mass before normalization, so a model trained at one
    /// macro-particle count stays calibrated at any other — a count
    /// histogram is an extensive quantity, and Eq. 5's min–max statistics
    /// only transfer between runs of equal mass.
    pub fn with_reference_mass(mut self, mass: f32) -> Self {
        self.reference_mass = mass;
        self
    }

    /// Mints one solver over the shared weight allocation: the one way to
    /// make a [`DlFieldSolver`]. At [`Precision::F32`] it predicts the
    /// same bits as the network the bundle was frozen from.
    pub fn solver(&self) -> DlFieldSolver<G> {
        DlFieldSolver {
            bundle: self.clone(),
            scratch: Vec::new(),
            out_scratch: Vec::new(),
            input: Tensor::zeros(&[0]),
            workspace: PredictWorkspace::new(),
            in_len: 0,
            out_len: 0,
        }
    }

    /// The shared frozen model.
    pub fn model(&self) -> &Arc<FrozenModel> {
        &self.model
    }

    /// Bytes of the one shared weight allocation.
    pub fn weight_bytes(&self) -> usize {
        self.model.weight_bytes()
    }
}

impl FrozenBundle {
    /// The phase-grid geometry members bin into.
    pub fn spec(&self) -> &PhaseGridSpec {
        &self.binner.0
    }
}

impl DlFieldSolver {
    /// Completes a solve from a *raw* (unnormalized) histogram binned
    /// elsewhere: rescales it to the training mass, applies the
    /// training-set normalization (paper Eq. 5), runs inference and
    /// writes the field. `total_mass` is the histogram's total count.
    ///
    /// This is the distributed-memory path (crate `dlpic-ddecomp`): each
    /// rank bins its local particles, the summed global histogram arrives
    /// via an all-reduce, and every rank finishes the solve locally with
    /// its replicated network.
    ///
    /// # Panics
    /// Panics if the histogram size mismatches the phase grid or the
    /// network output width mismatches `e`.
    pub fn solve_from_raw_histogram(&mut self, histogram: &[f32], total_mass: f32, e: &mut [f64]) {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        scratch.extend_from_slice(histogram);
        self.normalize(total_mass, &mut scratch);
        self.scratch = scratch;
        self.infer_scratch_into(e);
    }
}

impl<G: InputBinning> FieldSolver<G> for DlFieldSolver<G> {
    fn solve(&mut self, particles: &G::Particles, grid: &G, e: &mut [f64]) {
        // The same three phases the ensemble scheduler drives externally:
        // prepare (bin + mass-rescale + normalize), one m = 1 inference,
        // apply. Allocation-free once the reusable buffers are warm, and
        // bit-identical to a batched solve of the same state (row-stable
        // GEMM kernels).
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.resize(G::input_len(&self.bundle.binner, grid), 0.0);
        self.prepare_input(particles, grid, &mut scratch);
        self.scratch = scratch;
        self.infer_scratch_into(e);
    }

    fn name(&self) -> &'static str {
        self.bundle.name
    }

    fn phased(&mut self) -> Option<&mut dyn PhasedFieldSolver<G>> {
        Some(self)
    }

    fn weight_storage(&self) -> Option<(usize, usize)> {
        let model = &self.bundle.model;
        Some((Arc::as_ptr(model) as usize, model.weight_bytes()))
    }
}

impl<G: InputBinning> PhasedFieldSolver<G> for DlFieldSolver<G> {
    fn input_len(&self) -> usize {
        assert!(
            self.in_len > 0,
            "input width is unknown before the first solve"
        );
        self.in_len
    }

    fn output_len(&self) -> usize {
        assert!(
            self.out_len > 0,
            "output width is unknown before the first inference"
        );
        self.out_len
    }

    fn prepare_input(&mut self, particles: &G::Particles, grid: &G, dst: &mut [f32]) {
        // 1-2. Bin, rescale to the training mass, and normalize (paper
        // Eq. 5) — everything `solve` does before the network.
        let mass = G::bin(&self.bundle.binner, particles, grid, dst) as f32;
        self.normalize(mass, dst);
        self.in_len = dst.len();
    }

    fn infer_batch(&mut self, input: &[f32], rows: usize, output: &mut [f32]) {
        // 3. One batched inference through the reusable input/activation
        // buffers (ping-pong workspace; allocation-free once warm).
        assert_eq!(input.len() % rows, 0, "batch input size");
        self.input.resize_in_place(&[rows, input.len() / rows]);
        self.input.data_mut().copy_from_slice(input);
        let pred = self
            .bundle
            .model
            .predict_into(&self.input, &mut self.workspace);
        assert_eq!(
            pred.len(),
            output.len(),
            "network output width {} does not match the requested {} values ({rows} rows)",
            pred.len(),
            output.len(),
        );
        output.copy_from_slice(pred.data());
        self.out_len = pred.len() / rows;
    }

    fn apply_output(&mut self, row: &[f32], e: &mut [f64]) {
        // 4. Write the predicted field components onto the grid nodes.
        assert_eq!(
            row.len(),
            e.len(),
            "network output width {} does not match the {} field values",
            row.len(),
            e.len()
        );
        for (dst, &src) in e.iter_mut().zip(row) {
            *dst = src as f64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ArchSpec;
    use dlpic_pic::init::TwoStreamInit;
    use dlpic_pic::simulation::{two_stream_config, Simulation};

    /// A smoke-grid MLP with one hidden layer of `hidden` and `output`
    /// outputs, frozen at f32.
    fn tiny_bundle(hidden: usize, output: usize, shape: BinningShape) -> FrozenBundle {
        let spec = PhaseGridSpec::smoke();
        let arch = ArchSpec::Mlp {
            input: spec.cells(),
            hidden: vec![hidden],
            output,
        };
        FrozenBundle::from_network(
            &arch.build(0),
            (spec, shape),
            NormStats::identity(),
            "dl-mlp",
            Precision::F32,
        )
        .unwrap()
    }

    #[test]
    fn solver_writes_finite_field_of_grid_size() {
        let grid = Grid1D::paper();
        let p = TwoStreamInit::random(0.2, 0.0, 2_000, 1).build(&grid);
        let mut solver = tiny_bundle(8, 64, BinningShape::Ngp).solver();
        let mut e = grid.zeros();
        FieldSolver::solve(&mut solver, &p, &grid, &mut e);
        assert_eq!(e.len(), 64);
        assert!(e.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn plugs_into_the_shared_simulation_loop() {
        let init = TwoStreamInit::random(0.2, 0.0, 2_000, 2);
        let cfg = two_stream_config(init, 5);
        let solver = tiny_bundle(8, 64, BinningShape::Ngp).solver();
        let mut sim = Simulation::new(cfg, Box::new(solver));
        sim.run();
        assert_eq!(sim.history().len(), 6);
        assert_eq!(sim.solver_name(), "dl-mlp");
        assert!(sim.efield().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn shared_frozen_solver_is_bit_identical_to_owned() {
        let grid = Grid1D::paper();
        let p = TwoStreamInit::random(0.2, 0.01, 2_000, 9).build(&grid);
        let arch = ArchSpec::Mlp {
            input: PhaseGridSpec::smoke().cells(),
            hidden: vec![8],
            output: 64,
        };
        let mut net = arch.build(4);
        let frozen = FrozenBundle::from_network(
            &net,
            (PhaseGridSpec::smoke(), BinningShape::Cic),
            NormStats::identity(),
            "dl-mlp",
            Precision::F32,
        )
        .unwrap();
        let mut s1 = frozen.solver();
        let mut s2 = frozen.solver();

        let mut e1 = grid.zeros();
        let mut e2 = grid.zeros();
        FieldSolver::solve(&mut s1, &p, &grid, &mut e1);
        FieldSolver::solve(&mut s2, &p, &grid, &mut e2);
        assert_eq!(e1, e2);

        // The same bits as the source network on the row the solver saw.
        let mut row = vec![0.0f32; arch.input_len()];
        s1.prepare_input(&p, &grid, &mut row);
        let x = Tensor::new(row, &[1, arch.input_len()]);
        let mut workspace = PredictWorkspace::new();
        let owned = net.predict_into(&x, &mut workspace);
        let e_owned: Vec<f64> = owned.data().iter().map(|&v| v as f64).collect();
        assert_eq!(e_owned, e1);

        // Sharers report one weight allocation.
        let (id1, b1) = FieldSolver::weight_storage(&s1).unwrap();
        let (id2, b2) = FieldSolver::weight_storage(&s2).unwrap();
        assert_eq!(id1, id2);
        assert_eq!(b1, b2);
        assert_eq!(id1, Arc::as_ptr(frozen.model()) as usize);
    }

    #[test]
    #[should_panic(expected = "network output width")]
    fn output_width_mismatch_detected() {
        let mut solver = tiny_bundle(4, 32, BinningShape::Ngp).solver();
        let grid = Grid1D::paper(); // 64 cells ≠ 32 outputs
        let p = TwoStreamInit::random(0.2, 0.0, 100, 0).build(&grid);
        let mut e = grid.zeros();
        FieldSolver::solve(&mut solver, &p, &grid, &mut e);
    }
}
