//! The in-memory sample store: input histograms paired with electric
//! fields, in either dimension.

use dlpic_core::builder::InputKind;
use dlpic_core::normalize::NormStats;
use dlpic_core::phase_space::{BinningShape, PhaseGridSpec};
use dlpic_core::twod::DensityBinning;
use dlpic_core::InputBinning;
use dlpic_nn::data::Dataset;
use dlpic_nn::tensor::Tensor;
use dlpic_pic::{Grid1D, Grid2D};

/// The grid a store's input rows are binned on, and what turns it into the
/// binner its geometry's [`InputBinning::bin`] takes: the `(x, v)` phase
/// grid in 1-D, the configuration grid itself in 2-D.
pub trait InputGrid: Clone + PartialEq + std::fmt::Debug {
    /// The PIC geometry whose particles bin onto this grid.
    type Geometry: InputBinning;
    /// The binning order.
    type Binning: Copy + PartialEq + std::fmt::Debug;

    /// `[rows, columns]` of one input row read as an image (columns
    /// fastest).
    fn image(&self) -> [usize; 2];

    /// The binner that fills this grid's rows with `binning`.
    fn binner(&self, binning: Self::Binning) -> <Self::Geometry as InputBinning>::Binner;
}

impl InputGrid for PhaseGridSpec {
    type Geometry = Grid1D;
    type Binning = BinningShape;

    fn image(&self) -> [usize; 2] {
        [self.nv, self.nx]
    }

    fn binner(&self, binning: BinningShape) -> (PhaseGridSpec, BinningShape) {
        (*self, binning)
    }
}

impl InputGrid for Grid2D {
    type Geometry = Grid2D;
    type Binning = DensityBinning;

    fn image(&self) -> [usize; 2] {
        [self.ny(), self.nx()]
    }

    fn binner(&self, binning: DensityBinning) -> DensityBinning {
        binning
    }
}

/// A flat collection of (input histogram, E-field) sample pairs. The
/// default is the paper's 1-D store of phase-space histograms;
/// `PhaseDataset<Grid2D>` holds 2-D density histograms with the stacked
/// `[Ex | Ey]` field.
#[derive(Debug, Clone)]
pub struct PhaseDataset<S: InputGrid = PhaseGridSpec> {
    /// The grid the histograms are binned on.
    pub spec: S,
    /// Binning order used to build the histograms.
    pub binning: S::Binning,
    /// Field values per sample: grid cells × field components (64 in the
    /// paper).
    pub e_cells: usize,
    inputs: Vec<f32>,
    targets: Vec<f32>,
    n: usize,
}

impl<S: InputGrid> PhaseDataset<S> {
    /// Creates an empty dataset.
    pub fn new(spec: S, binning: S::Binning, e_cells: usize) -> Self {
        assert!(e_cells > 0, "field grid must have cells");
        Self {
            spec,
            binning,
            e_cells,
            inputs: Vec::new(),
            targets: Vec::new(),
            n: 0,
        }
    }

    /// Pre-reserves room for `n` more samples (the generators know their
    /// harvest length up front; this keeps the push loop re-growth-free).
    pub fn reserve(&mut self, n: usize) {
        self.inputs.reserve(n * self.row_len());
        self.targets.reserve(n * self.e_cells);
    }

    /// Appends one sample.
    ///
    /// # Panics
    /// Panics if slice widths disagree with the dataset geometry.
    pub fn push(&mut self, histogram: &[f32], efield: &[f64]) {
        assert_eq!(histogram.len(), self.row_len(), "histogram width mismatch");
        assert_eq!(efield.len(), self.e_cells, "e-field width mismatch");
        self.inputs.extend_from_slice(histogram);
        self.targets.extend(efield.iter().map(|&v| v as f32));
        self.n += 1;
    }

    /// Appends every sample of another dataset with identical geometry.
    ///
    /// # Panics
    /// Panics on geometry mismatch.
    pub fn extend(&mut self, other: &Self) {
        assert_eq!(self.spec, other.spec, "phase-grid mismatch");
        assert_eq!(self.binning, other.binning, "binning mismatch");
        assert_eq!(self.e_cells, other.e_cells, "field width mismatch");
        self.inputs.extend_from_slice(&other.inputs);
        self.targets.extend_from_slice(&other.targets);
        self.n += other.n;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when no samples are stored.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Width of one input row.
    pub fn row_len(&self) -> usize {
        let [rows, columns] = self.spec.image();
        rows * columns
    }

    /// Raw input block (`n × row_len`).
    pub fn inputs(&self) -> &[f32] {
        &self.inputs
    }

    /// Raw target block (`n × e_cells`).
    pub fn targets(&self) -> &[f32] {
        &self.targets
    }

    /// The histogram of sample `i`.
    pub fn input_row(&self, i: usize) -> &[f32] {
        let w = self.row_len();
        &self.inputs[i * w..(i + 1) * w]
    }

    /// The E-field of sample `i`.
    pub fn target_row(&self, i: usize) -> &[f32] {
        &self.targets[i * self.e_cells..(i + 1) * self.e_cells]
    }

    /// Input min/max statistics (paper Eq. 5 is computed on the *training*
    /// portion and then applied everywhere).
    pub fn input_norm_stats(&self) -> NormStats {
        NormStats::from_data(&self.inputs)
    }

    /// Largest |E| in the targets — the paper quotes "approximately 0.1"
    /// as the reference scale for Table I.
    pub fn max_abs_field(&self) -> f32 {
        self.targets.iter().fold(0.0f32, |m, v| m.max(v.abs()))
    }

    /// Builds a new dataset with the rows given by `indices`.
    pub fn select(&self, indices: &[usize]) -> Self {
        let mut out = Self::new(self.spec.clone(), self.binning, self.e_cells);
        for &i in indices {
            assert!(i < self.n, "index {i} out of range {}", self.n);
            out.inputs.extend_from_slice(self.input_row(i));
            out.targets.extend_from_slice(self.target_row(i));
            out.n += 1;
        }
        out
    }

    /// Converts into a trainable `dlpic_nn` dataset, applying the given
    /// normalization to the inputs and shaping them for the architecture
    /// (`Flat` → `[n, row_len]`, `Image` → `[n, 1, rows, columns]`).
    pub fn to_nn_dataset(&self, norm: &NormStats, kind: InputKind) -> Dataset {
        let mut x = self.inputs.clone();
        norm.apply(&mut x);
        let [rows, columns] = self.spec.image();
        let x = match kind {
            InputKind::Flat => Tensor::new(x, &[self.n, rows * columns]),
            InputKind::Image => Tensor::new(x, &[self.n, 1, rows, columns]),
        };
        let y = Tensor::new(self.targets.clone(), &[self.n, self.e_cells]);
        Dataset::new(x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> PhaseDataset {
        let spec = PhaseGridSpec::new(4, 2, -1.0, 1.0);
        let mut ds = PhaseDataset::new(spec, BinningShape::Ngp, 3);
        ds.push(&[1.0; 8], &[0.1, 0.2, 0.3]);
        ds.push(&[2.0; 8], &[-0.1, -0.2, -0.3]);
        ds
    }

    #[test]
    fn push_and_row_access() {
        let ds = tiny();
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.input_row(1), &[2.0; 8]);
        assert_eq!(ds.target_row(0), &[0.1, 0.2, 0.3]);
        assert!((ds.max_abs_field() - 0.3).abs() < 1e-7);
    }

    #[test]
    fn norm_stats_span_inputs() {
        let ds = tiny();
        let stats = ds.input_norm_stats();
        assert_eq!(stats.min, 1.0);
        assert_eq!(stats.max, 2.0);
    }

    #[test]
    fn select_reorders_rows() {
        let ds = tiny();
        let sel = ds.select(&[1, 0, 1]);
        assert_eq!(sel.len(), 3);
        assert_eq!(sel.input_row(0), &[2.0; 8]);
        assert_eq!(sel.target_row(1), &[0.1, 0.2, 0.3]);
    }

    #[test]
    fn to_nn_dataset_shapes() {
        let ds = tiny();
        let norm = ds.input_norm_stats();
        let flat = ds.to_nn_dataset(&norm, InputKind::Flat);
        assert_eq!(flat.x.shape(), &[2, 8]);
        assert_eq!(flat.y.shape(), &[2, 3]);
        // Normalized inputs: row 0 all zeros, row 1 all ones.
        assert!(flat.x.row(0).iter().all(|&v| v == 0.0));
        assert!(flat.x.row(1).iter().all(|&v| v == 1.0));
        let img = ds.to_nn_dataset(&norm, InputKind::Image);
        assert_eq!(img.x.shape(), &[2, 1, 2, 4]);
    }

    #[test]
    fn extend_concatenates() {
        let mut a = tiny();
        let b = tiny();
        a.extend(&b);
        assert_eq!(a.len(), 4);
        assert_eq!(a.input_row(2), b.input_row(0));
    }

    #[test]
    fn dataset_shapes_and_normalization() {
        // A 2-D store: two density bins, `[Ex | Ey]` over two nodes.
        let mut ds = PhaseDataset::new(Grid2D::new(2, 1, 1.0, 1.0), DensityBinning::Ngp, 4);
        ds.push(&[0.0, 4.0], &[1.0, -1.0, 0.5, 0.0]);
        ds.push(&[2.0, 2.0], &[0.0, 0.0, 0.0, 0.5]);
        assert_eq!(ds.len(), 2);
        // Min 0, max 4 → normalized inputs within [0, 1].
        let norm = ds.input_norm_stats();
        assert!((norm.span() - 4.0).abs() < 1e-6);
        let nn = ds.to_nn_dataset(&norm, InputKind::Flat);
        assert_eq!(nn.x.shape(), &[2, 2]);
        assert_eq!(nn.y.shape(), &[2, 4]);
        assert!(nn.x.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    #[should_panic(expected = "histogram width mismatch")]
    fn wrong_width_rejected() {
        let mut ds = tiny();
        ds.push(&[0.0; 5], &[0.0; 3]);
    }
}
