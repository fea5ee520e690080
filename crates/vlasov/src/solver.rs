//! The split-step semi-Lagrangian Vlasov–Poisson integrator.

use dlpic_analytics::dft;
use dlpic_pic::efield::efield_from_phi;
use dlpic_pic::grid::Grid1D;
use dlpic_pic::poisson::{FdPoisson, PoissonSolver};

/// Configuration of a Vlasov run.
#[derive(Debug, Clone)]
pub struct VlasovConfig {
    /// Spatial grid (shared with the PIC convention: nodes at `j·dx`).
    pub grid: Grid1D,
    /// Velocity-space points.
    pub nv: usize,
    /// Velocity window `[-vmax, vmax]`; `f` is assumed 0 outside.
    pub vmax: f64,
    /// Time step.
    pub dt: f64,
    /// Beam speed of the two-stream initial condition.
    pub v0: f64,
    /// Thermal spread of each beam (must be > 0 for a smooth `f`; a few
    /// velocity cells wide to be resolved).
    pub vth: f64,
    /// Seed perturbation amplitude on grid mode 1 (relative density).
    pub perturbation: f64,
}

/// The running solver: owns `f(x, v)` (row-major `[nv][nx]`) and the
/// self-consistent field.
pub struct VlasovSolver {
    cfg: VlasovConfig,
    f: Vec<f64>,
    scratch: Vec<f64>,
    rho: Vec<f64>,
    phi: Vec<f64>,
    e: Vec<f64>,
    poisson: FdPoisson,
    time: f64,
    /// `advect_x` scratch: one velocity row rotated by the whole-cell
    /// shift, extended by 3 wrapped cells (`nx + 3`).
    row_ext: Vec<f64>,
    /// `advect_v` scratch: per-column Lagrange weights, layout `[4][nx]`.
    wcol: Vec<f64>,
    /// `advect_v` scratch: per-column whole-cell source offset.
    vbase: Vec<i64>,
}

impl VlasovSolver {
    /// Initializes the two-stream distribution
    /// `f = n/2·[G(v−v0) + G(v+v0)]·(1 + ε·cos(k₁x))` with Gaussians of
    /// width `vth`, normalized so `∫f dv = 1` (matching the unit ion
    /// background).
    pub fn new(cfg: VlasovConfig) -> Self {
        assert!(cfg.nv >= 8, "need a resolved velocity grid");
        assert!(
            cfg.vmax > cfg.v0 + 4.0 * cfg.vth,
            "velocity window clips the beams"
        );
        let nx = cfg.grid.nx();
        let nv = cfg.nv;
        let dv = 2.0 * cfg.vmax / nv as f64;
        let k1 = cfg.grid.mode_wavenumber(1);
        let mut f = vec![0.0; nx * nv];
        let norm = 1.0 / (2.0 * (2.0 * std::f64::consts::PI).sqrt() * cfg.vth);
        for iv in 0..nv {
            let v = -cfg.vmax + (iv as f64 + 0.5) * dv;
            let gauss = |mu: f64| (-((v - mu) * (v - mu)) / (2.0 * cfg.vth * cfg.vth)).exp();
            let fv = norm * (gauss(cfg.v0) + gauss(-cfg.v0));
            for ix in 0..nx {
                let x = cfg.grid.node_position(ix);
                f[iv * nx + ix] = fv * (1.0 + cfg.perturbation * (k1 * x).cos());
            }
        }
        let mut solver = Self {
            scratch: vec![0.0; nx * nv],
            rho: vec![0.0; nx],
            phi: vec![0.0; nx],
            e: vec![0.0; nx],
            poisson: FdPoisson::new(),
            f,
            cfg,
            time: 0.0,
            row_ext: vec![0.0; nx + 3],
            wcol: vec![0.0; 4 * nx],
            vbase: vec![0; nx],
        };
        solver.field_solve();
        solver
    }

    /// Velocity-cell width.
    pub fn dv(&self) -> f64 {
        2.0 * self.cfg.vmax / self.cfg.nv as f64
    }

    /// Velocity of cell-centre `iv`.
    pub(crate) fn velocity(&self, iv: usize) -> f64 {
        -self.cfg.vmax + (iv as f64 + 0.5) * self.dv()
    }

    /// Current simulation time.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// The distribution function, row-major `[nv][nx]`.
    pub fn distribution(&self) -> &[f64] {
        &self.f
    }

    /// The configuration.
    pub fn config(&self) -> &VlasovConfig {
        &self.cfg
    }

    /// The current electric field on the spatial nodes.
    pub fn efield(&self) -> &[f64] {
        &self.e
    }

    /// Total particle "mass" `∫∫ f dv dx` (conserved exactly up to the
    /// open v-boundary).
    pub fn mass(&self) -> f64 {
        self.f.iter().sum::<f64>() * self.dv() * self.cfg.grid.dx()
    }

    /// Total momentum `∫∫ v·f dv dx` (electron mass 1 per unit density).
    pub fn momentum(&self) -> f64 {
        let nx = self.cfg.grid.nx();
        let mut acc = 0.0;
        for iv in 0..self.cfg.nv {
            let v = self.velocity(iv);
            let row_sum: f64 = self.f[iv * nx..(iv + 1) * nx].iter().sum();
            acc += v * row_sum;
        }
        acc * self.dv() * self.cfg.grid.dx()
    }

    /// Kinetic energy `½ ∫∫ v²·f dv dx`.
    pub fn kinetic_energy(&self) -> f64 {
        let nx = self.cfg.grid.nx();
        let mut kinetic = 0.0;
        for iv in 0..self.cfg.nv {
            let v = self.velocity(iv);
            let row_sum: f64 = self.f[iv * nx..(iv + 1) * nx].iter().sum();
            kinetic += 0.5 * v * v * row_sum;
        }
        kinetic * self.dv() * self.cfg.grid.dx()
    }

    /// Electrostatic field energy `½ ∫ E² dx`.
    pub fn field_energy(&self) -> f64 {
        0.5 * self.cfg.grid.dx() * self.e.iter().map(|e| e * e).sum::<f64>()
    }

    /// Amplitude of field mode `m` (the `E1` diagnostic).
    pub fn field_mode(&self, m: usize) -> f64 {
        dft::mode_amplitude(&self.e, m)
    }

    /// Overwrites the mutable state with a checkpointed snapshot of the
    /// distribution function and clock, then re-solves the field (the
    /// field is a pure function of `f`, so restoring `f` restores `E`
    /// deterministically).
    ///
    /// # Panics
    /// Panics if `f` does not match the solver's `nx·nv` phase grid.
    pub fn restore_state(&mut self, f: &[f64], time: f64) {
        assert_eq!(f.len(), self.f.len(), "phase-space grid mismatch");
        self.f.copy_from_slice(f);
        self.time = time;
        self.field_solve();
    }

    /// Charge density `ρ = 1 − ∫f dv` and the resulting field.
    fn field_solve(&mut self) {
        let nx = self.cfg.grid.nx();
        let dv = self.dv();
        self.rho.iter_mut().for_each(|r| *r = 1.0);
        for iv in 0..self.cfg.nv {
            for (r, &fv) in self.rho.iter_mut().zip(&self.f[iv * nx..(iv + 1) * nx]) {
                *r -= fv * dv;
            }
        }
        self.poisson.solve(&self.cfg.grid, &self.rho, &mut self.phi);
        efield_from_phi(&self.cfg.grid, &self.phi, &mut self.e);
    }

    /// x-advection by `dt`: `f(x, v) ← f(x − v·dt, v)`, periodic cubic
    /// (4-point Lagrange) interpolation per velocity row — the classic
    /// Cheng–Knorr choice. Linear interpolation is measurably too
    /// diffusive here: its numerical damping of mode 1 is of the same
    /// order as the physical Landau rate at `k·λ_D = 0.5`.
    ///
    /// The shift is constant along a velocity row, so the interpolation
    /// fraction and its four Lagrange weights are hoisted out of the
    /// inner loop (the reference implementation recomputed them — and
    /// four `rem_euclid` index wraps — per cell), and the periodic wrap
    /// is handled by copying the row once into a rotated buffer extended
    /// by 3 cells: the inner loop is then a branch-free 4-tap stencil
    /// over contiguous memory. Per-element arithmetic order is unchanged;
    /// results differ from the reference only because the fraction is
    /// now computed once from `frac(−shift)` instead of per-cell as
    /// `(j − shift) − floor(j − shift)`, whose last-ulp rounding depends
    /// on `j` (see `advect_x_matches_reference_kernel`).
    fn advect_x(&mut self, dt: f64) {
        let nx = self.cfg.grid.nx();
        let dx = self.cfg.grid.dx();
        for iv in 0..self.cfg.nv {
            let v = self.velocity(iv);
            let shift = v * dt / dx; // in cells
                                     // src = j − shift = j + nshift: whole-cell part D plus a
                                     // row-constant fraction s ∈ [0, 1).
            let nshift = -shift;
            let d = nshift.floor();
            let w = lagrange4(nshift - d);
            // Stencil cells for output j: (j + D − 1 .. j + D + 2) mod nx.
            let start = (d as i64 - 1).rem_euclid(nx as i64) as usize;
            let row = &self.f[iv * nx..(iv + 1) * nx];
            let ext = &mut self.row_ext;
            ext[..nx - start].copy_from_slice(&row[start..]);
            ext[nx - start..nx].copy_from_slice(&row[..start]);
            let (head, tail) = ext.split_at_mut(nx);
            tail.copy_from_slice(&head[..3]);
            let out = &mut self.scratch[iv * nx..(iv + 1) * nx];
            for (j, o) in out.iter_mut().enumerate() {
                *o = w[0] * ext[j] + w[1] * ext[j + 1] + w[2] * ext[j + 2] + w[3] * ext[j + 3];
            }
        }
        std::mem::swap(&mut self.f, &mut self.scratch);
    }

    /// v-advection by `dt`: `f(x, v) ← f(x, v − a·dt)` with `a = (q/m)·E =
    /// −E`, cubic (4-point Lagrange) interpolation per spatial column;
    /// inflow from outside the window is zero.
    ///
    /// The shift is constant along a spatial column, so `(j0, w)` are
    /// precomputed once per column, and the column-strided
    /// `f[j·nx + ix]` walk of the reference implementation is
    /// restructured into row-contiguous passes: columns are grouped into
    /// runs of equal whole-cell shift (the field is smooth, so runs are
    /// long), and each output row of a run reads four contiguous source
    /// row segments. Arithmetic order per element is preserved up to the
    /// same row-constant-fraction rounding as `advect_x`.
    fn advect_v(&mut self, dt: f64) {
        let nx = self.cfg.grid.nx();
        let nv = self.cfg.nv as i64;
        let dv = self.dv();
        // Per-column whole-cell offset and interpolation weights
        // (weights stored per tap for contiguous access in the row pass).
        for ix in 0..nx {
            let accel = -self.e[ix]; // q/m = -1
            let shift = accel * dt / dv; // in cells
            let nshift = -shift;
            let d = nshift.floor();
            let w = lagrange4(nshift - d);
            self.vbase[ix] = d as i64 - 1;
            for (t, &wt) in w.iter().enumerate() {
                self.wcol[t * nx + ix] = wt;
            }
        }
        // Row-contiguous sweep over runs of equal whole-cell offset.
        let mut lo = 0;
        while lo < nx {
            let base = self.vbase[lo];
            let mut hi = lo + 1;
            while hi < nx && self.vbase[hi] == base {
                hi += 1;
            }
            for iv in 0..nv {
                let out = &mut self.scratch[iv as usize * nx + lo..iv as usize * nx + hi];
                out.fill(0.0);
                for t in 0..4i64 {
                    let src = iv + base + t;
                    if src < 0 || src >= nv {
                        continue; // zero inflow from outside the window
                    }
                    let frow = &self.f[src as usize * nx + lo..src as usize * nx + hi];
                    let wrow = &self.wcol[t as usize * nx + lo..t as usize * nx + hi];
                    for ((o, &fv), &wv) in out.iter_mut().zip(frow).zip(wrow) {
                        *o += wv * fv;
                    }
                }
            }
            lo = hi;
        }
        std::mem::swap(&mut self.f, &mut self.scratch);
    }

    /// The pre-restructuring `advect_x` (per-cell weights and
    /// `rem_euclid` wraps) — kept as the equivalence oracle.
    #[cfg(test)]
    fn advect_x_reference(&mut self, dt: f64) {
        let nx = self.cfg.grid.nx();
        let dx = self.cfg.grid.dx();
        for iv in 0..self.cfg.nv {
            let v = self.velocity(iv);
            let shift = v * dt / dx; // in cells
            let row = &self.f[iv * nx..(iv + 1) * nx];
            let out = &mut self.scratch[iv * nx..(iv + 1) * nx];
            for (j, o) in out.iter_mut().enumerate() {
                let src = j as f64 - shift;
                let j0 = src.floor();
                let s = src - j0;
                let w = lagrange4(s);
                let base = j0 as i64 - 1;
                let mut acc = 0.0;
                for (k, &wk) in w.iter().enumerate() {
                    let idx = (base + k as i64).rem_euclid(nx as i64) as usize;
                    acc += wk * row[idx];
                }
                *o = acc;
            }
        }
        std::mem::swap(&mut self.f, &mut self.scratch);
    }

    /// The pre-restructuring `advect_v` (column-strided walk) — kept as
    /// the equivalence oracle.
    #[cfg(test)]
    fn advect_v_reference(&mut self, dt: f64) {
        let nx = self.cfg.grid.nx();
        let nv = self.cfg.nv;
        let dv = self.dv();
        for ix in 0..nx {
            let accel = -self.e[ix]; // q/m = -1
            let shift = accel * dt / dv; // in cells
            for iv in 0..nv {
                let src = iv as f64 - shift;
                let j0 = src.floor();
                let s = src - j0;
                let w = lagrange4(s);
                let base = j0 as i64 - 1;
                let sample = |j: i64| -> f64 {
                    if j < 0 || j >= nv as i64 {
                        0.0
                    } else {
                        self.f[j as usize * nx + ix]
                    }
                };
                let mut acc = 0.0;
                for (k, &wk) in w.iter().enumerate() {
                    acc += wk * sample(base + k as i64);
                }
                self.scratch[iv * nx + ix] = acc;
            }
        }
        std::mem::swap(&mut self.f, &mut self.scratch);
    }

    /// One Strang-split step: x(dt/2) → field solve → v(dt) → x(dt/2).
    pub fn step(&mut self) {
        let dt = self.cfg.dt;
        self.advect_x(dt / 2.0);
        self.field_solve();
        self.advect_v(dt);
        self.advect_x(dt / 2.0);
        self.field_solve();
        self.time += dt;
    }

    /// Runs `n` steps.
    pub fn run(&mut self, n: usize) {
        for _ in 0..n {
            self.step();
        }
    }
}

/// Weights of 4-point (cubic) Lagrange interpolation at fraction
/// `s ∈ [0, 1)` between the middle two of four equispaced nodes
/// `{-1, 0, 1, 2}`. Exact for cubics; far less diffusive than linear —
/// the difference is visible directly in the measured Landau damping
/// rate (see `examples/landau_damping.rs`).
#[inline]
fn lagrange4(s: f64) -> [f64; 4] {
    [
        -s * (s - 1.0) * (s - 2.0) / 6.0,
        (s * s - 1.0) * (s - 2.0) / 2.0,
        -s * (s + 1.0) * (s - 2.0) / 2.0,
        s * (s * s - 1.0) / 6.0,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlpic_analytics::dispersion::TwoStreamDispersion;
    use dlpic_analytics::fit::{fit_growth_rate, GrowthFitOptions};

    fn small_cfg(v0: f64, vth: f64) -> VlasovConfig {
        VlasovConfig {
            grid: Grid1D::paper(),
            nv: 128,
            vmax: 0.8,
            dt: 0.1,
            v0,
            vth,
            perturbation: 1e-3,
        }
    }

    #[test]
    fn initial_state_is_neutral_and_normalized() {
        let s = VlasovSolver::new(small_cfg(0.2, 0.02));
        // ∫∫ f = L (density 1 over the box).
        let l = s.cfg.grid.lx();
        assert!((s.mass() - l).abs() / l < 1e-3, "mass {} vs {l}", s.mass());
        // Symmetric beams: zero momentum.
        assert!(s.momentum().abs() < 1e-10, "momentum {}", s.momentum());
        // Seeded perturbation produces a small mode-1 field.
        assert!(s.field_mode(1) > 1e-5);
        assert!(s.field_mode(1) < 1e-2);
    }

    #[test]
    fn mass_is_conserved_through_evolution() {
        let mut s = VlasovSolver::new(small_cfg(0.2, 0.02));
        let m0 = s.mass();
        s.run(100);
        // Linear-interp advection conserves mass up to v-window leakage,
        // which is negligible while f is far from the boundary.
        assert!(
            (s.mass() - m0).abs() / m0 < 1e-6,
            "mass drift {} -> {}",
            m0,
            s.mass()
        );
    }

    #[test]
    fn distribution_undershoot_stays_small() {
        let mut s = VlasovSolver::new(small_cfg(0.2, 0.02));
        s.run(50);
        // Cubic (4-point Lagrange) interpolation is not monotone, so tiny
        // negative excursions are expected near steep gradients — the
        // standard behaviour of Cheng–Knorr solvers. They must stay a
        // small fraction of the peak, not grow into an instability.
        let peak = s.distribution().iter().cloned().fold(0.0f64, f64::max);
        let undershoot = s
            .distribution()
            .iter()
            .cloned()
            .fold(0.0f64, |m, f| m.max(-f));
        assert!(peak > 0.0);
        assert!(
            undershoot < 0.01 * peak,
            "undershoot {undershoot} vs peak {peak}"
        );
    }

    #[test]
    fn two_stream_growth_rate_matches_theory_closely() {
        // The headline: a Vlasov run is noise-free, so the measured growth
        // rate should be tighter to linear theory than PIC manages.
        let mut s = VlasovSolver::new(VlasovConfig {
            dt: 0.05,
            ..small_cfg(0.2, 0.02)
        });
        let theory = TwoStreamDispersion::new(0.2).mode_growth_rate(1, s.cfg.grid.lx());
        let mut times = Vec::new();
        let mut amps = Vec::new();
        for _ in 0..500 {
            times.push(s.time());
            amps.push(s.field_mode(1));
            s.step();
        }
        let fit =
            fit_growth_rate(&times, &amps, GrowthFitOptions::default()).expect("growth detected");
        let rel = (fit.gamma - theory).abs() / theory;
        assert!(
            rel < 0.1,
            "Vlasov γ = {} vs theory {theory} ({:.1}% off)",
            fit.gamma,
            rel * 100.0
        );
        assert!(
            fit.r2 > 0.99,
            "noise-free run should fit cleanly: r² = {}",
            fit.r2
        );
    }

    #[test]
    fn stable_configuration_stays_quiet() {
        // v0 = 0.4: k·v0 > 1 for every mode; the seeded perturbation must
        // oscillate, not grow.
        let mut s = VlasovSolver::new(small_cfg(0.4, 0.02));
        let e0 = s.field_mode(1);
        s.run(200);
        assert!(
            s.field_mode(1) < 5.0 * e0,
            "stable case grew: {} -> {}",
            e0,
            s.field_mode(1)
        );
    }

    #[test]
    fn free_streaming_without_field_is_exact_for_cell_aligned_shifts() {
        // With E = 0 (suppressed by a huge neutralizing... simplest: set
        // perturbation 0 so E stays ~0) a velocity row shifts rigidly; a
        // whole-cell shift must be exact for linear interpolation.
        let mut cfg = small_cfg(0.2, 0.02);
        cfg.perturbation = 0.0;
        let mut s = VlasovSolver::new(cfg);
        let before = s.f.clone();
        // One x-advection of exactly one cell for the row with v·dt = dx:
        // pick dt accordingly for a synthetic check of the kernel.
        let dx = s.cfg.grid.dx();
        let iv = s.cfg.nv / 2 + 10; // some positive velocity
        let v = s.velocity(iv);
        let dt = dx / v;
        s.advect_x(dt);
        let nx = s.cfg.grid.nx();
        for j in 0..nx {
            let shifted = before[iv * nx + (j + nx - 1) % nx];
            let now = s.f[iv * nx + j];
            assert!((now - shifted).abs() < 1e-12, "row not rigidly shifted");
        }
    }

    #[test]
    fn restore_state_resumes_bit_identically() {
        let mut straight = VlasovSolver::new(small_cfg(0.2, 0.02));
        straight.run(10);
        let f = straight.distribution().to_vec();
        let t = straight.time();
        let mut resumed = VlasovSolver::new(small_cfg(0.2, 0.02));
        resumed.run(3); // deliberately desynchronized before the restore
        resumed.restore_state(&f, t);
        assert_eq!(straight.efield(), resumed.efield());
        straight.run(10);
        resumed.run(10);
        assert_eq!(straight.distribution(), resumed.distribution());
        assert_eq!(straight.efield(), resumed.efield());
        assert_eq!(straight.time(), resumed.time());
    }

    #[test]
    #[should_panic(expected = "clips the beams")]
    fn unresolvable_window_rejected() {
        let mut cfg = small_cfg(0.75, 0.05);
        cfg.vmax = 0.8; // 0.75 + 4·0.05 = 0.95 > 0.8
        let _ = VlasovSolver::new(cfg);
    }

    /// Largest |a − b| relative to the distribution peak.
    fn max_rel_diff(a: &[f64], b: &[f64]) -> f64 {
        let peak = a.iter().fold(0.0f64, |m, v| m.max(v.abs())).max(1e-300);
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0f64, f64::max)
            / peak
    }

    #[test]
    fn advect_x_matches_reference_kernel() {
        // Evolve a little first so f is structured, then compare one
        // restructured x-advection against the reference kernel. The
        // interpolation fraction is mathematically row-constant; the
        // reference recomputed it per cell as (j−shift)−floor(j−shift),
        // whose last ulp depends on j, so agreement is to rounding noise
        // (≈1e-15 of the peak), not bitwise.
        let mut a = VlasovSolver::new(small_cfg(0.2, 0.02));
        a.run(20);
        let mut b = VlasovSolver::new(small_cfg(0.2, 0.02));
        b.run(20);
        assert_eq!(a.f, b.f, "identical evolutions must agree bitwise");
        for &dt in &[0.05, 0.1, -0.07, 1.3] {
            a.advect_x(dt);
            b.advect_x_reference(dt);
            let diff = max_rel_diff(&a.f, &b.f);
            assert!(diff < 1e-12, "dt {dt}: relative diff {diff}");
            // Keep the two solvers in lockstep on the same state.
            b.f.copy_from_slice(&a.f);
        }
    }

    #[test]
    fn advect_v_matches_reference_kernel() {
        let mut a = VlasovSolver::new(small_cfg(0.2, 0.02));
        a.run(20); // develop a structured field so shifts vary per column
        let mut b = VlasovSolver::new(small_cfg(0.2, 0.02));
        b.run(20);
        for &dt in &[0.05, 0.1, -0.07, 2.5] {
            a.advect_v(dt);
            b.advect_v_reference(dt);
            let diff = max_rel_diff(&a.f, &b.f);
            assert!(diff < 1e-12, "dt {dt}: relative diff {diff}");
            b.f.copy_from_slice(&a.f);
        }
    }

    #[test]
    fn advect_x_whole_cell_shift_is_exact_rotation() {
        // A shift of exactly one cell must reproduce the rotated row to
        // the last bit (weights degenerate to [0, 1, 0, 0] or
        // [0, 0, 1, 0] exactly).
        let mut s = VlasovSolver::new(small_cfg(0.2, 0.02));
        s.run(5);
        let before = s.f.clone();
        let nx = s.cfg.grid.nx();
        let dx = s.cfg.grid.dx();
        let iv = s.cfg.nv / 2 + 10;
        let v = s.velocity(iv);
        let dt = dx / v;
        s.advect_x(dt);
        // Only rows whose shift v'·dt/dx lands exactly on an integer are
        // exactly rotated; row `iv` is by construction (shift = 1 up to
        // one rounding in v·dt/dx, which floor handles either way).
        let shift = v * dt / dx;
        if shift == 1.0 {
            for j in 0..nx {
                assert_eq!(
                    s.f[iv * nx + j],
                    before[iv * nx + (j + nx - 1) % nx],
                    "cell {j}"
                );
            }
        }
    }
}
