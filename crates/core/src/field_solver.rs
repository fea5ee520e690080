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
//! [`FrozenBundle`] is the solver's shareable form — the `Arc`-shared
//! frozen weights plus the binner, normalization, reference mass and name —
//! in both dimensions: [`DlFieldSolver::freeze`] makes one from any solver,
//! `ModelBundle::freeze` from a model file, and every
//! [`FrozenBundle::solver`] reads the one weight allocation.

use crate::builder::InputKind;
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

/// How a DL solver executes its network: an owned, per-solver
/// [`Sequential`] (training output, CNN fallback) or an `Arc`-shared
/// immutable [`FrozenModel`] so whole fleets read one weight allocation.
/// At f32 the two paths run the same row-stable kernels and are
/// bit-identical.
enum NetExec {
    /// A private network copy (mutable; the historical path).
    Owned(Sequential),
    /// A shared frozen snapshot (read-only; `Arc` clones are cheap).
    Shared(Arc<FrozenModel>),
}

impl NetExec {
    fn predict_into<'w>(
        &mut self,
        input: &Tensor,
        workspace: &'w mut PredictWorkspace,
    ) -> &'w Tensor {
        match self {
            Self::Owned(net) => net.predict_into(input, workspace),
            Self::Shared(model) => model.predict_into(input, workspace),
        }
    }

    /// `(id, bytes)` of the weight allocation: shared solvers report the
    /// `Arc` pointer (equal across all sharers) and the frozen model's
    /// actual storage; owned solvers report their own address (never
    /// deduplicated) and the f32 parameter footprint.
    fn weight_storage(&self) -> (usize, usize) {
        match self {
            Self::Owned(net) => (self as *const Self as usize, net.param_count() * 4),
            Self::Shared(model) => (Arc::as_ptr(model) as usize, model.weight_bytes()),
        }
    }
}

/// The one per-dimension piece of a DL field solve: how a geometry's
/// particle state becomes the network's input row. Everything after it —
/// mass rescaling, normalization, inference, the field write — is
/// [`DlFieldSolver`]'s and is the same in every dimension.
pub trait InputBinning: Geometry {
    /// What parameterises the binning: the phase grid, binning order and
    /// input layout in 1-D; the density-binning order in 2-D. Plain data:
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

    /// Shapes the reusable input tensor for `rows` stacked rows of `width`
    /// values each: flat, unless the architecture wants an image.
    fn shape_batch(_binner: &Self::Binner, input: &mut Tensor, rows: usize, width: usize) {
        input.resize_in_place(&[rows, width]);
    }
}

/// The paper's input: the `(x, v)` phase-space histogram, flat for the MLP
/// or as a one-channel image for the CNN.
impl InputBinning for Grid1D {
    type Binner = (PhaseGridSpec, BinningShape, InputKind);

    fn input_len((spec, ..): &Self::Binner, _grid: &Grid1D) -> usize {
        spec.cells()
    }

    fn bin(
        (spec, shape, _): &Self::Binner,
        particles: &Particles,
        grid: &Grid1D,
        dst: &mut [f32],
    ) -> usize {
        bin_phase_space(particles, grid, spec, *shape, dst);
        particles.len()
    }

    fn shape_batch((spec, _, kind): &Self::Binner, input: &mut Tensor, rows: usize, width: usize) {
        assert_eq!(width, spec.cells(), "histogram size mismatch");
        match kind {
            InputKind::Flat => input.resize_in_place(&[rows, width]),
            InputKind::Image => input.resize_in_place(&[rows, 1, spec.nv, spec.nx]),
        }
    }
}

/// A neural-network-backed electric-field solver.
pub struct DlFieldSolver<G: InputBinning = Grid1D> {
    net: NetExec,
    binner: G::Binner,
    norm: NormStats,
    name: &'static str,
    reference_mass: f32,
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
    /// Wraps a trained network.
    ///
    /// `norm` must be the statistics of the network's *training* inputs;
    /// the binner's input layout must match the architecture (flat for
    /// MLP, image for CNN).
    pub fn new(net: Sequential, binner: G::Binner, norm: NormStats, name: &'static str) -> Self {
        Self::with_exec(NetExec::Owned(net), binner, norm, name)
    }

    /// Wraps an `Arc`-shared frozen model: the fleet path, where N
    /// sessions hold N of these solvers over **one** weight allocation.
    /// At [`dlpic_nn::Precision::F32`] this is bit-identical to
    /// [`Self::new`] on the network the model was frozen from.
    pub fn shared(
        model: Arc<FrozenModel>,
        binner: G::Binner,
        norm: NormStats,
        name: &'static str,
    ) -> Self {
        Self::with_exec(NetExec::Shared(model), binner, norm, name)
    }

    fn with_exec(net: NetExec, binner: G::Binner, norm: NormStats, name: &'static str) -> Self {
        Self {
            net,
            binner,
            norm,
            name,
            reference_mass: 0.0,
            scratch: Vec::new(),
            out_scratch: Vec::new(),
            input: Tensor::zeros(&[0]),
            workspace: PredictWorkspace::new(),
            in_len: 0,
            out_len: 0,
        }
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

    /// What parameterises this solver's input binning (1-D: the phase
    /// grid, binning order and input layout).
    pub fn binner(&self) -> &G::Binner {
        &self.binner
    }

    /// The training histograms' total mass (0 = unknown).
    pub fn reference_mass(&self) -> f32 {
        self.reference_mass
    }

    /// Immutable access to the wrapped network, when this solver owns a
    /// private copy (`None` on the `Arc`-shared frozen path).
    pub fn network(&self) -> Option<&Sequential> {
        match &self.net {
            NetExec::Owned(net) => Some(net),
            NetExec::Shared(_) => None,
        }
    }

    /// The shared frozen model, when this solver runs on one (`None` on
    /// the owned path).
    pub fn frozen(&self) -> Option<&Arc<FrozenModel>> {
        match &self.net {
            NetExec::Owned(_) => None,
            NetExec::Shared(model) => Some(model),
        }
    }

    /// Snapshots this solver into a shareable [`FrozenBundle`]: an owned
    /// network is frozen at `precision`, a shared one re-shared as it is
    /// (its stored precision wins — re-quantizing without the f32 source
    /// is impossible).
    pub fn freeze(&self, precision: Precision) -> Result<FrozenBundle<G>, FreezeError> {
        let model = match &self.net {
            NetExec::Owned(net) => Arc::new(net.freeze(precision)?),
            NetExec::Shared(model) => Arc::clone(model),
        };
        Ok(FrozenBundle {
            model,
            binner: self.binner.clone(),
            norm: self.norm,
            reference_mass: self.reference_mass,
            name: self.name,
        })
    }

    /// Runs one inference from an already-binned, already-normalized
    /// histogram (the inner step of [`FieldSolver::solve`], exposed for
    /// benchmarking the pure inference cost); returns the predicted field
    /// components stacked.
    pub fn predict_from_histogram(&mut self, histogram: &[f32]) -> Vec<f32> {
        self.stage_input(histogram, 1);
        self.net
            .predict_into(&self.input, &mut self.workspace)
            .data()
            .to_vec()
    }

    /// Rescales a raw histogram of total count `mass` to the training mass
    /// (when one is set) and applies the training-set normalization
    /// (paper Eq. 5).
    fn normalize(&self, mass: f32, histogram: &mut [f32]) {
        if self.reference_mass > 0.0 && (mass - self.reference_mass).abs() > 0.5 {
            let factor = self.reference_mass / mass;
            for v in histogram.iter_mut() {
                *v *= factor;
            }
        }
        self.norm.apply(histogram);
    }

    /// Copies `rows` prepared histograms into the reusable input tensor
    /// with the architecture's batch shape.
    fn stage_input(&mut self, data: &[f32], rows: usize) {
        assert_eq!(data.len() % rows, 0, "batch input size");
        G::shape_batch(&self.binner, &mut self.input, rows, data.len() / rows);
        self.input.data_mut().copy_from_slice(data);
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

/// A frozen, `Arc`-shareable snapshot of a DL field solver: the immutable
/// model plus the inference-time metadata needed to mint fleet members
/// that all read **one** weight allocation. Cloning is cheap (one `Arc`
/// bump) and every [`Self::solver`] shares the same weights. This is the
/// one thing an engine session runs on, in either dimension.
#[derive(Debug, Clone)]
pub struct FrozenBundle<G: InputBinning = Grid1D> {
    pub(crate) model: Arc<FrozenModel>,
    pub(crate) binner: G::Binner,
    pub(crate) norm: NormStats,
    pub(crate) reference_mass: f32,
    pub(crate) name: &'static str,
}

impl<G: InputBinning> FrozenBundle<G> {
    /// Mints one fleet member over the shared weight allocation. At
    /// [`Precision::F32`] the member is bit-identical to the solver the
    /// bundle was frozen from.
    pub fn solver(&self) -> DlFieldSolver<G> {
        DlFieldSolver::shared(
            Arc::clone(&self.model),
            self.binner.clone(),
            self.norm,
            self.name,
        )
        .with_reference_mass(self.reference_mass)
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
        scratch.resize(G::input_len(&self.binner, grid), 0.0);
        self.prepare_input(particles, grid, &mut scratch);
        self.scratch = scratch;
        self.infer_scratch_into(e);
    }

    fn name(&self) -> &'static str {
        self.name
    }

    fn phased(&mut self) -> Option<&mut dyn PhasedFieldSolver<G>> {
        Some(self)
    }

    fn weight_storage(&self) -> Option<(usize, usize)> {
        Some(self.net.weight_storage())
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
        let mass = G::bin(&self.binner, particles, grid, dst) as f32;
        self.normalize(mass, dst);
        self.in_len = dst.len();
    }

    fn infer_batch(&mut self, input: &[f32], rows: usize, output: &mut [f32]) {
        // 3. One batched inference through the reusable input/activation
        // buffers (ping-pong workspace; allocation-free once warm).
        self.stage_input(input, rows);
        let pred = self.net.predict_into(&self.input, &mut self.workspace);
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

    fn tiny_solver() -> DlFieldSolver {
        let spec = PhaseGridSpec::smoke();
        let arch = ArchSpec::Mlp {
            input: spec.cells(),
            hidden: vec![8],
            output: 64,
        };
        DlFieldSolver::new(
            arch.build(0),
            (spec, BinningShape::Ngp, arch.input_kind()),
            NormStats::identity(),
            "dl-mlp",
        )
    }

    #[test]
    fn solver_writes_finite_field_of_grid_size() {
        let grid = Grid1D::paper();
        let p = TwoStreamInit::random(0.2, 0.0, 2_000, 1).build(&grid);
        let mut solver = tiny_solver();
        let mut e = grid.zeros();
        FieldSolver::solve(&mut solver, &p, &grid, &mut e);
        assert_eq!(e.len(), 64);
        assert!(e.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn plugs_into_the_shared_simulation_loop() {
        let init = TwoStreamInit::random(0.2, 0.0, 2_000, 2);
        let cfg = two_stream_config(init, 5);
        let mut sim = Simulation::new(cfg, Box::new(tiny_solver()));
        sim.run();
        assert_eq!(sim.history().len(), 6);
        assert_eq!(sim.solver_name(), "dl-mlp");
        assert!(sim.efield().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn cnn_input_kind_reshapes_to_image() {
        let spec = PhaseGridSpec::new(16, 16, -0.8, 0.8);
        let arch = ArchSpec::Cnn {
            nv: 16,
            nx: 16,
            channels: (2, 2),
            kernel: 3,
            hidden: vec![16],
            output: 64,
        };
        let mut solver = DlFieldSolver::<Grid1D>::new(
            arch.build(1),
            (spec, BinningShape::Cic, arch.input_kind()),
            NormStats::identity(),
            "dl-cnn",
        );
        let hist = vec![0.5f32; spec.cells()];
        let out = solver.predict_from_histogram(&hist);
        assert_eq!(out.len(), 64);
    }

    #[test]
    fn shared_frozen_solver_is_bit_identical_to_owned() {
        use dlpic_nn::frozen::Precision;
        let grid = Grid1D::paper();
        let p = TwoStreamInit::random(0.2, 0.01, 2_000, 9).build(&grid);
        let arch = ArchSpec::Mlp {
            input: PhaseGridSpec::smoke().cells(),
            hidden: vec![8],
            output: 64,
        };
        let model = Arc::new(arch.build(4).freeze(Precision::F32).unwrap());
        let mk_shared = |m: Arc<dlpic_nn::FrozenModel>| {
            DlFieldSolver::<Grid1D>::shared(
                m,
                (PhaseGridSpec::smoke(), BinningShape::Cic, arch.input_kind()),
                NormStats::identity(),
                "dl-mlp",
            )
        };
        let mut owned = DlFieldSolver::<Grid1D>::new(
            arch.build(4),
            (PhaseGridSpec::smoke(), BinningShape::Cic, arch.input_kind()),
            NormStats::identity(),
            "dl-mlp",
        );
        let mut s1 = mk_shared(Arc::clone(&model));
        let mut s2 = mk_shared(model);

        let mut e_owned = grid.zeros();
        let mut e1 = grid.zeros();
        let mut e2 = grid.zeros();
        FieldSolver::solve(&mut owned, &p, &grid, &mut e_owned);
        FieldSolver::solve(&mut s1, &p, &grid, &mut e1);
        FieldSolver::solve(&mut s2, &p, &grid, &mut e2);
        assert_eq!(e_owned, e1);
        assert_eq!(e1, e2);

        // Sharers report one weight allocation; the owned copy its own.
        let (id1, b1) = FieldSolver::weight_storage(&s1).unwrap();
        let (id2, b2) = FieldSolver::weight_storage(&s2).unwrap();
        let (id0, _) = FieldSolver::weight_storage(&owned).unwrap();
        assert_eq!(id1, id2);
        assert_eq!(b1, b2);
        assert_ne!(id0, id1);
        assert!(owned.network().is_some() && owned.frozen().is_none());
        assert!(s1.network().is_none() && s1.frozen().is_some());
    }

    #[test]
    #[should_panic(expected = "network output width")]
    fn output_width_mismatch_detected() {
        let spec = PhaseGridSpec::smoke();
        let arch = ArchSpec::Mlp {
            input: spec.cells(),
            hidden: vec![4],
            output: 32,
        };
        let mut solver = DlFieldSolver::<Grid1D>::new(
            arch.build(0),
            (spec, BinningShape::Ngp, arch.input_kind()),
            NormStats::identity(),
            "dl-mlp",
        );
        let grid = Grid1D::paper(); // 64 cells ≠ 32 outputs
        let p = TwoStreamInit::random(0.2, 0.0, 100, 0).build(&grid);
        let mut e = grid.zeros();
        FieldSolver::solve(&mut solver, &p, &grid, &mut e);
    }
}
