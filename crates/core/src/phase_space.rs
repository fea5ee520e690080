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
//!
//! NGP counting has an AVX-512 body on `dlpic_pic::lanes`, bit-identical
//! to its scalar twin; CIC binning is scalar.
//!
//! While a caller holds the worker team, NGP counting of a large run
//! splits into two parts on it, cut where `dlpic_pic`'s split push cuts
//! ([`dlpic_pic::split`]), so each member bins the particles it has just
//! pushed. Each part counts its run into its own histogram: the first
//! into the caller's row, the later into a scratch histogram on line
//! pairs of its own. The two are then added bin by bin. Every count is an
//! integer below `2^24`, exact in `f32`, so the sum is the serial
//! kernel's row bit for bit, whoever runs which part. CIC binning (its
//! fractional weights would re-associate), runs below the split
//! threshold or of `2^24` particles and more, and calls while no caller
//! holds the team stay serial.

// analyze:hot — binning runs once per DL step over every particle; loop
// bodies here must stay allocation-free.

use dlpic_pic::grid::Grid1D;
use dlpic_pic::lanes::{self, Body};
use dlpic_pic::particles::Particles;
use dlpic_pic::{Split, SPLIT_PARTICLES};
use dlpic_team::Team;
use std::cell::RefCell;

/// Particles from which NGP binning stays serial whatever the hold: below
/// it every count of a part, and their sum, is an integer under `2^24`,
/// which `f32` holds exactly. The serial kernel saturates a bin at
/// `2^24`; the sum of two parts would not.
const EXACT_COUNTS: usize = 1 << 24;

/// Bytes the L2 spatial prefetcher moves as one unit: an aligned pair of
/// 64-byte cache lines.
const PAIR: usize = 128;

thread_local! {
    /// The later part's histogram of a split NGP binning, reused from call
    /// to call by the dispatching thread and lent to whichever member runs
    /// that part.
    static SECOND: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

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
    let team = match shape {
        BinningShape::Ngp => ngp_split(particles.len()).map(|split| split.team),
        BinningShape::Cic => None,
    };
    bin(Body::detect(), team, particles, grid, spec, shape, out);
}

/// How NGP binning of `particles` particles runs: in two parts where
/// `dlpic_pic`'s push would split ([`dlpic_pic::split`]) and below
/// [`EXACT_COUNTS`], serially (`None`) otherwise.
fn ngp_split(particles: usize) -> Option<Split<'static>> {
    dlpic_pic::split(particles).filter(|_| particles < EXACT_COUNTS)
}

/// Bytes of scratch a split NGP binning of `particles` particles into
/// `spec`'s histogram makes its dispatching thread hold: the later part's
/// padded histogram. Zero for a run that never splits.
pub fn split_scratch_bytes(particles: usize, spec: &PhaseGridSpec) -> usize {
    if !(SPLIT_PARTICLES..EXACT_COUNTS).contains(&particles) {
        return 0;
    }
    padded_len(spec.cells()) * std::mem::size_of::<f32>()
}

/// [`bin_phase_space`] on `body` (NGP has an AVX-512 body; CIC is
/// scalar on either), NGP split over `team` if one is given (module
/// docs), whatever the run's length.
pub(crate) fn bin(
    body: Body,
    team: Option<&Team>,
    particles: &Particles,
    grid: &Grid1D,
    spec: &PhaseGridSpec,
    shape: BinningShape,
    out: &mut [f32],
) {
    assert_eq!(out.len(), spec.cells(), "phase-grid buffer size mismatch");
    let inv_dx = spec.nx as f64 / grid.lx();
    let inv_dv = 1.0 / spec.dv();
    let (nx, nv) = (spec.nx, spec.nv);
    let ([x], [v]) = (&particles.pos, &particles.vel);

    match shape {
        BinningShape::Ngp => {
            let k = Ngp {
                inv_dx,
                inv_dv,
                vmin: spec.vmin,
                nx,
                nv,
            };
            match team {
                Some(team) => k.split(body, Split::new(team, x.len()), x, v, out),
                None => k.run(body, x, v, out),
            }
        }
        BinningShape::Cic => {
            out.fill(0.0);
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

/// The per-call constants of NGP binning.
struct Ngp {
    inv_dx: f64,
    inv_dv: f64,
    vmin: f64,
    nx: usize,
    nv: usize,
}

impl Ngp {
    /// Counts the particles before `split.at` into `out` and the rest into
    /// the later part's histogram, as two parts on `split.team`, then adds
    /// that histogram into `out` bin by bin.
    fn split(&self, body: Body, split: Split<'_>, x: &[f64], v: &[f64], out: &mut [f32]) {
        SECOND.with_borrow_mut(|buffer| {
            let second = padded(buffer, out.len());
            let parts = parts(split.at, x, v, out, second);
            split
                .team
                .for_each_item(parts.into_iter(), |(x, v, hist)| self.run(body, x, v, hist));
            merge(out, second);
        });
    }

    /// Counts every particle into its bin of `out` (overwritten), on
    /// `body`.
    fn run(&self, body: Body, x: &[f64], v: &[f64], out: &mut [f32]) {
        out.fill(0.0);
        match body {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `avx512f` and `avx512dq` were detected.
            Body::Avx512 if lanes::avx512() => unsafe { self.lanes(x, v, out) },
            _ => {
                for (&x, &v) in x.iter().zip(v) {
                    out[self.cell(x, v)] += 1.0;
                }
            }
        }
    }

    /// The scalar body: one particle's bin. The position saturates into
    /// the edge columns (as `as usize` and `min` do), the velocity into
    /// the edge rows.
    #[inline(always)]
    fn cell(&self, x: f64, v: f64) -> usize {
        let ix = ((x * self.inv_dx) as usize).min(self.nx - 1);
        let fv = (v - self.vmin) * self.inv_dv;
        let iv = (fv.max(0.0) as usize).min(self.nv - 1);
        iv * self.nx + ix
    }

    /// [`Ngp::cell`] on eight particles per chunk. Every lane is exact
    /// (the saturating casts are `lanes::x86::clamped_index`), so no
    /// chunk falls back; adding `1.0` is exact up to `2^24` per bin and
    /// order-free beyond, so the scatter's order does not matter either.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn lanes(&self, x: &[f64], v: &[f64], mut out: &mut [f32]) {
        use dlpic_pic::lanes::x86::{clamped_index, load, to_indices};
        use std::arch::x86_64::*;
        assert_eq!(x.len(), v.len(), "particle column lengths differ");
        let inv_dx = _mm512_set1_pd(self.inv_dx);
        let inv_dv = _mm512_set1_pd(self.inv_dv);
        let vmin = _mm512_set1_pd(self.vmin);
        let nx = _mm512_set1_epi64(self.nx as i64);
        let last_x = _mm512_set1_epi64(self.nx as i64 - 1);
        let last_v = _mm512_set1_epi64(self.nv as i64 - 1);
        let lanes = |out: &mut &mut [f32], i: usize| {
            // SAFETY: `i + 8 <= x.len()`, and `v` is as long (asserted
            // above).
            let (x0, v0) = unsafe { (load(x.as_ptr().add(i)), load(v.as_ptr().add(i))) };
            let ix = clamped_index(_mm512_mul_pd(x0, inv_dx), last_x);
            let fv = _mm512_mul_pd(_mm512_sub_pd(v0, vmin), inv_dv);
            let iv = clamped_index(fv, last_v);
            for cell in to_indices(_mm512_add_epi64(_mm512_mullo_epi64(iv, nx), ix)) {
                out[cell] += 1.0;
            }
            true
        };
        lanes::chunks(&mut out, x.len(), lanes, |out, p| {
            out[self.cell(x[p], v[p])] += 1.0
        });
    }
}

/// One part of a split NGP binning: a run of particles (positions,
/// velocities) and the histogram it is counted into.
type Part<'a> = (&'a [f64], &'a [f64], &'a mut [f32]);

/// The two parts of a split NGP binning of `x`, `v` cut at `at`: the
/// earlier run into `out`, the later into `second`.
fn parts<'a>(
    at: usize,
    x: &'a [f64],
    v: &'a [f64],
    out: &'a mut [f32],
    second: &'a mut [f32],
) -> [Part<'a>; 2] {
    let (x, x_rest) = x.split_at(at);
    let (v, v_rest) = v.split_at(at);
    [(x, v, out), (x_rest, v_rest, second)]
}

/// Adds the later part's counts into the earlier part's, bin by bin:
/// integers below `2^24`, so every sum is exact.
fn merge(out: &mut [f32], second: &[f32]) {
    for (count, more) in out.iter_mut().zip(second) {
        *count += *more;
    }
}

/// A histogram of `cells` bins carved from `buffer`, starting on a line
/// pair of its own with a free pair on each side, so the member filling
/// it shares no pair with the caller's row or any other data: the
/// prefetcher would bounce such a pair between the two cores and lose
/// most of the split.
fn padded(buffer: &mut Vec<f32>, cells: usize) -> &mut [f32] {
    let per_pair = PAIR / std::mem::size_of::<f32>();
    buffer.resize(padded_len(cells), 0.0);
    let start = buffer.as_ptr().align_offset(PAIR).min(per_pair) + per_pair;
    &mut buffer[start..start + cells]
}

/// The length of the buffer [`padded`] carves `cells` bins from: the
/// bins in whole line pairs, a pair of slack to align the start, and the
/// free pair on each side.
fn padded_len(cells: usize) -> usize {
    let per_pair = PAIR / std::mem::size_of::<f32>();
    cells.next_multiple_of(per_pair) + 3 * per_pair
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

    /// `len` particles whose coordinates cycle through the edges of both
    /// NGP casts: inside, `0.0`, the largest double below `L`, `L`
    /// itself, negative, huge, infinite and NaN positions; velocities
    /// on a bin edge, inside, below and above the window, infinite and
    /// NaN.
    fn edge_load(grid: &Grid1D, len: usize) -> Particles {
        let l = grid.lx();
        let xs = [
            0.3 * l,
            0.0,
            f64::from_bits(l.to_bits() - 1),
            l,
            -0.1,
            1e300,
            -f64::INFINITY,
            f64::NAN,
        ];
        let vs = [
            -0.4,
            0.15,
            -5.0,
            5.0,
            0.399_999,
            f64::INFINITY,
            -0.4 - 1e-17,
            f64::NAN,
            1e300,
        ];
        let x = (0..len).map(|p| xs[p % xs.len()]).collect();
        let v = (0..len).map(|p| vs[(p / 2) % vs.len()]).collect();
        Particles::new([x], [v], -1.0, 1.0)
    }

    #[test]
    fn avx512_ngp_binning_matches_portable() {
        if !dlpic_pic::lanes::avx512() {
            eprintln!("skipping: no avx512f + avx512dq on this machine");
            return;
        }
        let grid = Grid1D::new(64, 2.0532);
        let spec = PhaseGridSpec::new(16, 12, -0.4, 0.4);
        let bits = |h: &[f32]| h.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
        for len in (1..=17).chain([64_001]) {
            let p = edge_load(&grid, len);
            let mut lanes = vec![0.0; spec.cells()];
            let mut portable = vec![0.0; spec.cells()];
            bin(
                Body::Avx512,
                None,
                &p,
                &grid,
                &spec,
                BinningShape::Ngp,
                &mut lanes,
            );
            bin(
                Body::Portable,
                None,
                &p,
                &grid,
                &spec,
                BinningShape::Ngp,
                &mut portable,
            );
            assert_eq!(bits(&lanes), bits(&portable), "{len} particles");
        }
    }

    fn bodies() -> Vec<Body> {
        if dlpic_pic::lanes::avx512() {
            vec![Body::Portable, Body::Avx512]
        } else {
            eprintln!("no avx512f + avx512dq on this machine: portable body only");
            vec![Body::Portable]
        }
    }

    /// The NGP histogram of `p` on `body`, split over `team` if given, as
    /// bits (written over a NaN-filled row).
    fn ngp_bits(
        body: Body,
        team: Option<&Team>,
        p: &Particles,
        grid: &Grid1D,
        spec: &PhaseGridSpec,
    ) -> Vec<u32> {
        let mut out = vec![f32::NAN; spec.cells()];
        bin(body, team, p, grid, spec, BinningShape::Ngp, &mut out);
        out.iter().map(|c| c.to_bits()).collect()
    }

    /// The split NGP binning against the serial kernel: a split forced at
    /// lengths from none to a few chunks (the first part empty up to 17),
    /// just below, at and above the split threshold and the paper's
    /// 64 000; the edge load (positions at 0 and just below `L`,
    /// velocities beyond the window) and every particle in one bin; both
    /// bodies; teams of one (both parts inline, in order), two and three
    /// members; the later part counted first, then both at once; and the
    /// global team held under `with_limit` 1, 2 and 3, through the
    /// public entry point.
    #[test]
    fn split_ngp_binning_matches_the_serial_one_at_any_team_size() {
        let grid = Grid1D::new(64, 2.0532);
        let spec = PhaseGridSpec::new(16, 12, -0.4, 0.4);
        let teams = [1, 2, 3].map(Team::new);
        for len in [
            0,
            1,
            7,
            9,
            17,
            100,
            SPLIT_PARTICLES - 1,
            SPLIT_PARTICLES,
            SPLIT_PARTICLES + 3,
            64_000,
        ] {
            let one_bin =
                Particles::new([vec![0.3 * grid.lx(); len]], [vec![0.15; len]], -1.0, 1.0);
            for p in [edge_load(&grid, len), one_bin] {
                for body in bodies() {
                    let serial = ngp_bits(body, None, &p, &grid, &spec);
                    for team in &teams {
                        let split = ngp_bits(body, Some(team), &p, &grid, &spec);
                        assert!(
                            split == serial,
                            "{len} particles, {body:?}, team of {}",
                            team.size()
                        );
                    }
                    let later_first = driven(&p, &grid, &spec, |k, [first, rest]| {
                        for (x, v, hist) in [rest, first] {
                            k.run(body, x, v, hist);
                        }
                    });
                    assert!(later_first == serial, "later part first, {len}, {body:?}");
                    let together = driven(&p, &grid, &spec, |k, [first, rest]| {
                        let start = std::sync::Barrier::new(2);
                        std::thread::scope(|scope| {
                            scope.spawn(|| {
                                start.wait();
                                k.run(body, rest.0, rest.1, rest.2);
                            });
                            start.wait();
                            k.run(body, first.0, first.1, first.2);
                        });
                    });
                    assert!(together == serial, "both at once, {len}, {body:?}");
                }
                let serial = ngp_bits(Body::detect(), None, &p, &grid, &spec);
                for limit in [1, 2, 3] {
                    let held = dlpic_team::with_limit(limit, || {
                        let _hold = dlpic_team::global().hold();
                        let mut out = vec![f32::NAN; spec.cells()];
                        bin_phase_space(&p, &grid, &spec, BinningShape::Ngp, &mut out);
                        out.iter().map(|c| c.to_bits()).collect::<Vec<_>>()
                    });
                    assert!(held == serial, "{len} particles held at limit {limit}");
                }
            }
        }
    }

    /// The rule splits NGP binning exactly where the push splits, up to
    /// `2^24` particles, from which the serial kernel's saturation at
    /// `2^24` per bin is the row's; CIC never splits.
    #[test]
    fn ngp_binning_splits_with_the_push_below_exact_counts() {
        let team = dlpic_team::global();
        let _hold = team.hold();
        let on_team = team.held_members() > 1;
        for (len, splits) in [
            (SPLIT_PARTICLES - 1, false),
            (SPLIT_PARTICLES, on_team),
            (EXACT_COUNTS - 1, on_team),
            (EXACT_COUNTS, false),
            (usize::MAX, false),
        ] {
            let rule = ngp_split(len);
            assert_eq!(rule.is_some(), splits, "{len} particles");
            if let Some(rule) = rule {
                assert_eq!(Some(rule.at), dlpic_pic::split(len).map(|push| push.at));
            }
        }
        dlpic_team::with_limit(1, || assert!(ngp_split(SPLIT_PARTICLES).is_none()));
        let cells = PhaseGridSpec::paper();
        assert_eq!(split_scratch_bytes(SPLIT_PARTICLES - 1, &cells), 0);
        assert_eq!(split_scratch_bytes(EXACT_COUNTS, &cells), 0);
        assert!(split_scratch_bytes(EXACT_COUNTS - 1, &cells) >= cells.cells() * 4);
    }

    /// The merged histogram of `p` with the two parts of its split, cut
    /// where the push cuts, run by `drive`.
    fn driven(
        p: &Particles,
        grid: &Grid1D,
        spec: &PhaseGridSpec,
        drive: impl FnOnce(&Ngp, [Part; 2]),
    ) -> Vec<u32> {
        let ([x], [v]) = (&p.pos, &p.vel);
        let k = Ngp {
            inv_dx: spec.nx as f64 / grid.lx(),
            inv_dv: 1.0 / spec.dv(),
            vmin: spec.vmin,
            nx: spec.nx,
            nv: spec.nv,
        };
        let at = Split::new(&Team::new(1), x.len()).at;
        let mut out = vec![f32::NAN; spec.cells()];
        let mut second = vec![f32::NAN; spec.cells()];
        drive(&k, parts(at, x, v, &mut out, &mut second));
        merge(&mut out, &second);
        out.iter().map(|c| c.to_bits()).collect()
    }

    #[test]
    fn the_later_part_has_line_pairs_of_its_own() {
        let mut buffer = Vec::new();
        for cells in [1, 31, 32, 33, 4096] {
            let hist = padded(&mut buffer, cells);
            assert_eq!(hist.len(), cells);
            let start = hist.as_ptr() as usize;
            let end = start + cells * 4;
            let base = buffer.as_ptr() as usize;
            let top = base + buffer.len() * 4;
            assert_eq!(start % PAIR, 0, "{cells} bins");
            assert!(start - base >= PAIR, "{cells} bins: no free pair before");
            assert!(
                top >= end.next_multiple_of(PAIR) + PAIR,
                "{cells} bins: no free pair after"
            );
            assert!(
                split_scratch_bytes(SPLIT_PARTICLES, &PhaseGridSpec::new(cells, 1, 0.0, 1.0))
                    >= buffer.len() * 4
            );
        }
    }

    #[test]
    fn portable_ngp_binning_saturates_into_the_edge_bins() {
        let grid = Grid1D::new(64, 2.0);
        let spec = PhaseGridSpec::new(4, 4, -1.0, 1.0);
        let l = grid.lx();
        // (x, v, column, row): saturating casts put a negative or NaN
        // coordinate into the first bin and anything past the window into
        // the last.
        let cases = [
            (0.0, -1.0, 0, 0),
            (f64::from_bits(l.to_bits() - 1), 0.999, 3, 3),
            (l, 0.0, 3, 2),
            (-0.1, -5.0, 0, 0),
            (1e300, 5.0, 3, 3),
            (f64::NAN, f64::NAN, 0, 0),
            (f64::INFINITY, f64::NEG_INFINITY, 3, 0),
            (0.75, f64::INFINITY, 1, 3),
        ];
        for len in 1..=17 {
            let x = (0..len).map(|p| cases[p % cases.len()].0).collect();
            let v = (0..len).map(|p| cases[p % cases.len()].1).collect();
            let p = Particles::new([x], [v], -1.0, 1.0);
            let mut got = vec![0.0; spec.cells()];
            bin(
                Body::Portable,
                None,
                &p,
                &grid,
                &spec,
                BinningShape::Ngp,
                &mut got,
            );
            let mut want = vec![0.0f32; spec.cells()];
            for &(_, _, ix, iv) in cases.iter().cycle().take(len) {
                want[iv * spec.nx + ix] += 1.0;
            }
            assert_eq!(got, want, "{len} particles");
        }
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
