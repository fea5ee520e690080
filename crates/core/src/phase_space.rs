//! Phase-space binning — the first grey box of the paper's Fig. 2.
//!
//! > "We form a phase space grid by discretizing phase space with a
//! > two-dimensional grid and counting how many particles belong to a cell
//! > of the phase space grid." (§III)
//!
//! The position axis is periodic (it is the PIC box); the velocity axis is
//! a fixed window `[vmin, vmax]` chosen wide enough to contain every
//! configuration in the training sweep *and* the saturated instability
//! (particles outside it are clamped into the edge bins so that total
//! counts are conserved — recorded as a design choice in DESIGN.md).
//!
//! Besides the paper's NGP counting, CIC (bilinear) binning is provided:
//! §VII conjectures that "the usage of higher-order interpolation functions
//! would likely improve the performance of the DL electric field solver" —
//! the `ablation_binning` experiment tests exactly that.

use dlpic_pic::grid::Grid1D;
use dlpic_pic::particles::Particles;

/// Geometry of the phase-space histogram.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseGridSpec {
    /// Bins along the position axis.
    pub nx: usize,
    /// Bins along the velocity axis.
    pub nv: usize,
    /// Lower edge of the velocity window.
    pub vmin: f64,
    /// Upper edge of the velocity window.
    pub vmax: f64,
}

impl PhaseGridSpec {
    /// Creates a spec.
    ///
    /// # Panics
    /// Panics for degenerate dimensions or an empty velocity window.
    pub fn new(nx: usize, nv: usize, vmin: f64, vmax: f64) -> Self {
        assert!(nx > 0 && nv > 0, "degenerate phase grid {nx}x{nv}");
        assert!(vmax > vmin, "empty velocity window [{vmin}, {vmax}]");
        Self { nx, nv, vmin, vmax }
    }

    /// Paper-scale grid: 64×64 over v ∈ [−0.8, 0.8] (wide enough for the
    /// ±0.3 training beams after saturation and the ±0.4 cold-beam test).
    pub fn paper() -> Self {
        Self::new(64, 64, -0.8, 0.8)
    }

    /// Reduced grid for the 1-core default experiments: 32×32.
    pub fn scaled() -> Self {
        Self::new(32, 32, -0.8, 0.8)
    }

    /// Tiny grid for smoke tests: 16×16.
    pub fn smoke() -> Self {
        Self::new(16, 16, -0.8, 0.8)
    }

    /// Total number of bins.
    pub fn cells(&self) -> usize {
        self.nx * self.nv
    }

    /// Velocity bin width.
    pub fn dv(&self) -> f64 {
        (self.vmax - self.vmin) / self.nv as f64
    }
}

/// Binning order for the phase-space histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BinningShape {
    /// Count each particle into its nearest bin — "we use the NGP
    /// interpolation scheme for the phase space binning" (paper §VII).
    #[default]
    Ngp,
    /// Bilinear (Cloud-in-Cell) spreading over the 4 surrounding bins —
    /// the higher-order variant §VII proposes.
    Cic,
}

/// Bins particles into a row-major `[nv, nx]` histogram (row 0 = lowest
/// velocity). `out` is overwritten. Weights sum to the particle count.
///
/// # Panics
/// Panics if `out` length differs from `spec.cells()`.
pub fn bin_phase_space(
    particles: &Particles,
    grid: &Grid1D,
    spec: &PhaseGridSpec,
    shape: BinningShape,
    out: &mut [f32],
) {
    assert_eq!(out.len(), spec.cells(), "phase-grid buffer size mismatch");
    out.fill(0.0);
    let inv_dx = spec.nx as f64 / grid.lx();
    let inv_dv = 1.0 / spec.dv();
    let (nx, nv) = (spec.nx, spec.nv);
    let ([x], [v]) = (&particles.pos, &particles.vel);

    match shape {
        BinningShape::Ngp => {
            for (&x, &v) in x.iter().zip(v) {
                let ix = ((x * inv_dx) as usize).min(nx - 1);
                let fv = (v - spec.vmin) * inv_dv;
                let iv = (fv.max(0.0) as usize).min(nv - 1);
                out[iv * nx + ix] += 1.0;
            }
        }
        BinningShape::Cic => {
            for (&x, &v) in x.iter().zip(v) {
                // Position: periodic CIC on bin centers.
                let fx = x * inv_dx - 0.5;
                let ix0 = fx.floor();
                let wx1 = fx - ix0;
                let ix0 = (ix0 as i64).rem_euclid(nx as i64) as usize;
                let ix1 = if ix0 + 1 == nx { 0 } else { ix0 + 1 };
                // Velocity: clamped CIC on bin centers.
                let fv = ((v - spec.vmin) * inv_dv - 0.5).clamp(0.0, (nv - 1) as f64);
                let iv0 = fv.floor() as usize;
                let wv1 = fv - iv0 as f64;
                let iv1 = (iv0 + 1).min(nv - 1);
                let (wx0, wv0) = (1.0 - wx1, 1.0 - wv1);
                out[iv0 * nx + ix0] += (wv0 * wx0) as f32;
                out[iv0 * nx + ix1] += (wv0 * wx1) as f32;
                out[iv1 * nx + ix0] += (wv1 * wx0) as f32;
                out[iv1 * nx + ix1] += (wv1 * wx1) as f32;
            }
        }
    }
}

/// Convenience wrapper returning a fresh histogram.
#[cfg(test)]
fn phase_space_histogram(
    particles: &Particles,
    grid: &Grid1D,
    spec: &PhaseGridSpec,
    shape: BinningShape,
) -> Vec<f32> {
    let mut out = vec![0.0f32; spec.cells()];
    bin_phase_space(particles, grid, spec, shape, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn particles(xv: &[(f64, f64)], grid: &Grid1D) -> Particles {
        let (x, v): (Vec<f64>, Vec<f64>) = xv.iter().copied().unzip();
        Particles::electrons_normalized([x], [v], grid.lx())
    }

    #[test]
    fn single_particle_ngp_lands_in_one_bin() {
        let grid = Grid1D::new(64, 2.0532);
        let spec = PhaseGridSpec::new(8, 8, -0.4, 0.4);
        // x in bin 2 of 8 (x/L = 0.3 → bin 2), v = 0.15 → (0.15+0.4)/0.1 = 5.5 → bin 5.
        let p = particles(&[(0.3 * grid.lx(), 0.15)], &grid);
        let h = phase_space_histogram(&p, &grid, &spec, BinningShape::Ngp);
        assert_eq!(h.iter().filter(|&&c| c > 0.0).count(), 1);
        assert_eq!(h[5 * 8 + 2], 1.0);
    }

    #[test]
    fn out_of_window_velocities_clamp_to_edge_rows() {
        let grid = Grid1D::new(64, 2.0532);
        let spec = PhaseGridSpec::new(4, 4, -0.4, 0.4);
        let p = particles(&[(0.1, 5.0), (0.1, -5.0)], &grid);
        for shape in [BinningShape::Ngp, BinningShape::Cic] {
            let h = phase_space_histogram(&p, &grid, &spec, shape);
            let top_row: f32 = h[3 * 4..].iter().sum();
            let bottom_row: f32 = h[..4].iter().sum();
            assert!((top_row - 1.0).abs() < 1e-6, "{shape:?} top {top_row}");
            assert!(
                (bottom_row - 1.0).abs() < 1e-6,
                "{shape:?} bottom {bottom_row}"
            );
        }
    }

    #[test]
    fn cic_splits_between_bins() {
        let grid = Grid1D::new(64, 2.0);
        let spec = PhaseGridSpec::new(4, 4, -1.0, 1.0);
        // Exactly between x-bin centers 0 and 1 (centers at 0.25, 0.75 in
        // units of L/4 = 0.5): x = 0.5; v exactly on a bin center.
        let p = particles(&[(0.5, -0.75)], &grid); // v bin center 0: -0.75
        let h = phase_space_histogram(&p, &grid, &spec, BinningShape::Cic);
        assert!((h[0] - 0.5).abs() < 1e-6, "{h:?}");
        assert!((h[1] - 0.5).abs() < 1e-6, "{h:?}");
    }

    #[test]
    fn position_axis_wraps_periodically() {
        let grid = Grid1D::new(64, 2.0);
        let spec = PhaseGridSpec::new(4, 2, -1.0, 1.0);
        // x just left of the box end: CIC should wrap into bin 0.
        let p = particles(&[(1.999, 0.0)], &grid);
        let h = phase_space_histogram(&p, &grid, &spec, BinningShape::Cic);
        let col0: f32 = h[0] + h[4];
        let col3: f32 = h[3] + h[7];
        assert!(col0 > 0.2, "wrap weight missing: {h:?}");
        assert!(col3 > 0.2, "home-bin weight missing: {h:?}");
        assert!((col0 + col3 - 1.0).abs() < 1e-6);
    }

    #[test]
    fn two_beams_make_two_rows() {
        let grid = Grid1D::new(64, 2.0532);
        let spec = PhaseGridSpec::scaled();
        let n = 1000;
        let xv: Vec<(f64, f64)> = (0..n)
            .map(|i| {
                let x = (i as f64 + 0.5) / n as f64 * grid.lx();
                (x, if i % 2 == 0 { 0.2 } else { -0.2 })
            })
            .collect();
        let p = particles(&xv, &grid);
        let h = phase_space_histogram(&p, &grid, &spec, BinningShape::Ngp);
        // Count nonempty rows.
        let nonempty_rows = (0..spec.nv)
            .filter(|&r| h[r * spec.nx..(r + 1) * spec.nx].iter().sum::<f32>() > 0.0)
            .count();
        assert_eq!(nonempty_rows, 2, "expected exactly the two beam rows");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Total histogram mass equals the particle count for both shapes,
        /// including out-of-window velocities (clamping, not dropping).
        #[test]
        fn mass_conservation(
            xv in proptest::collection::vec((0.0f64..2.05, -2.0f64..2.0), 1..256),
        ) {
            let grid = Grid1D::new(64, 2.0532);
            let spec = PhaseGridSpec::new(16, 12, -0.5, 0.5);
            let p = particles(&xv, &grid);
            for shape in [BinningShape::Ngp, BinningShape::Cic] {
                let h = phase_space_histogram(&p, &grid, &spec, shape);
                let mass: f32 = h.iter().sum();
                prop_assert!((mass - xv.len() as f32).abs() < 1e-3,
                    "{shape:?}: mass {mass} vs {}", xv.len());
                prop_assert!(h.iter().all(|&c| c >= 0.0));
            }
        }

        /// The x-marginal of the histogram matches an NGP charge-deposition
        /// style count (same bin edges) for NGP binning.
        #[test]
        fn x_marginal_counts_positions(
            xs in proptest::collection::vec(0.0f64..2.0, 1..128),
        ) {
            let grid = Grid1D::new(64, 2.0);
            let spec = PhaseGridSpec::new(8, 6, -1.0, 1.0);
            let xv: Vec<(f64, f64)> = xs.iter().map(|&x| (x, 0.0)).collect();
            let p = particles(&xv, &grid);
            let h = phase_space_histogram(&p, &grid, &spec, BinningShape::Ngp);
            for col in 0..8 {
                let marginal: f32 = (0..6).map(|r| h[r * 8 + col]).sum();
                let direct = xs.iter().filter(|&&x| {
                    ((x / 2.0 * 8.0) as usize).min(7) == col
                }).count() as f32;
                prop_assert!((marginal - direct).abs() < 1e-6);
            }
        }
    }
}
