//! The fused 2-D gather→accelerate→move kernel: one pass over the
//! particles per step, mirroring [`crate::fused`] for the 2-D cycle.
//!
//! [`fused_gather_push_move`] interpolates `(Ex, Ey)` with the
//! tensor-product weights, pushes both velocity components and both
//! position components in registers, and accumulates the step's
//! diagnostics moments in the same pass. Per-particle arithmetic is
//! identical to the three-pass pipeline
//! [`gather_field`](crate::gather::gather_field) →
//! [`push_velocities`](crate::mover::push_velocities) →
//! [`push_positions`](crate::mover::push_positions); the grid wraps are
//! computed by compare-and-fold (equal values, no integer division), and
//! both add every stencil term from `+0.0`, so trajectories match the
//! unfused oracle bit for bit. As in
//! [`deposit2d`](crate::deposit2d), the body is written once over the
//! shape's support `S` and picked by one `match` per call, and its
//! AVX-512 twin ([`crate::lanes`]) reproduces it bit for bit. The
//! kinetic-energy *sum* interleaves the x- and y-contributions per
//! particle instead of summing all x-terms first, so that one diagnostic
//! may differ from the unfused value by rounding (≪ 1e-15 relative); the
//! per-component momentum sums keep the unfused order exactly.
//! A large push splits over a held worker team as the 1-D one does
//! (`split`), its three sums still one chain each in particle order.

// analyze:hot — the fused per-particle loop is the 2-D stepping hot path;
// loop bodies here must stay allocation-free (PR 3's single-pass win).

use crate::deposit2d::{axis_stencil, next_node};
use crate::fused::{advance_position, PushRun, StepMoments, Tally};
use crate::grid::Grid2D;
use crate::lanes::{self, Body};
use crate::particles::Particles2D;
use crate::shape::Shape;
use crate::split;
use dlpic_team::Team;

/// One fused step of the 2-D particle pipeline: gather the stacked field
/// `e = [Ex | Ey]` at
/// every particle, push both velocity components, push both position
/// components with periodic wrap — a single pass, no per-particle field
/// buffers. The moments are the time-centred kinetic energy
/// `½·m·Σ(vx⁻·vx⁺ + vy⁻·vy⁺)` and both momentum components `m·Σ v⁺`
/// right after the velocity push.
///
/// # Panics
/// Panics if the field lengths differ from the grid node count.
pub fn fused_gather_push_move(
    particles: &mut Particles2D,
    grid: &Grid2D,
    shape: Shape,
    e: &[f64],
    dt: f64,
) -> StepMoments {
    let team = split::team(particles.len());
    push(Body::detect(), team, particles, grid, shape, e, dt)
}

/// [`fused_gather_push_move`] on `body`, split over `team` if one is
/// given ([`crate::split`]).
pub(crate) fn push(
    body: Body,
    team: Option<&Team>,
    particles: &mut Particles2D,
    grid: &Grid2D,
    shape: Shape,
    e: &[f64],
    dt: f64,
) -> StepMoments {
    assert_eq!(e.len(), 2 * grid.nodes(), "field length mismatch");
    let (ex, ey) = e.split_at(grid.nodes());
    let k = Push {
        ex,
        ey,
        inv_dx: 1.0 / grid.dx(),
        inv_dy: 1.0 / grid.dy(),
        nx: grid.nx(),
        ny: grid.ny(),
        lx: grid.lx(),
        ly: grid.ly(),
        qm_dt: particles.charge_over_mass() * dt,
        dt,
    };
    let mass = particles.mass();
    let ([x, y], [vx, vy]) = (&mut particles.pos, &mut particles.vel);
    let (pos, vel) = ([x.as_mut_slice(), y], [vx.as_mut_slice(), vy]);
    let sums = match shape {
        Shape::Ngp => split::push(team, &Shaped::<1>(&k, body), pos, vel),
        Shape::Cic => split::push(team, &Shaped::<2>(&k, body), pos, vel),
        Shape::Tsc => split::push(team, &Shaped::<3>(&k, body), pos, vel),
    };
    sums.moments(mass)
}

/// The 2-D push for the shape of support `S`, on one body: the unit of
/// a split push.
struct Shaped<'a, const S: usize>(&'a Push<'a>, Body);

impl<const S: usize> PushRun<2> for Shaped<'_, S> {
    fn run<T: Tally<2>>(&self, pos: [&mut [f64]; 2], vel: [&mut [f64]; 2], tally: &mut T) {
        self.0.run::<S, T>(self.1, pos, vel, tally);
    }
}

/// The per-call constants of the 2-D push; `ex` and `ey` are
/// `nx·ny` nodes long.
struct Push<'a> {
    ex: &'a [f64],
    ey: &'a [f64],
    inv_dx: f64,
    inv_dy: f64,
    nx: usize,
    ny: usize,
    lx: f64,
    ly: f64,
    qm_dt: f64,
    dt: f64,
}

impl Push<'_> {
    /// The push over the particles `[x, y]`, `[vx, vy]` for the shape of
    /// support `S`, on `body`, their terms given to `tally`.
    fn run<const S: usize, T: Tally<2>>(
        &self,
        body: Body,
        [x, y]: [&mut [f64]; 2],
        [vx, vy]: [&mut [f64]; 2],
        tally: &mut T,
    ) {
        match body {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `avx512f` and `avx512dq` were detected.
            Body::Avx512 if lanes::avx512() => unsafe { self.lanes::<S, T>([x, y, vx, vy], tally) },
            _ => {
                let iter = x
                    .iter_mut()
                    .zip(y.iter_mut())
                    .zip(vx.iter_mut().zip(vy.iter_mut()));
                for ((x, y), (vx, vy)) in iter {
                    let (ke, v_new) = self.one::<S>([x, y], [vx, vy]);
                    tally.add(ke, v_new);
                }
            }
        }
    }

    /// The scalar body: gather, accelerate and move one particle, with
    /// the same expressions as `gather_field` → `push_velocities` →
    /// `push_positions`. The gather adds all `S×S` terms `w * e[node]`,
    /// `y` rows outer, from `+0.0`: a zero-weight term is `±0.0` added to
    /// a sum that is never `-0.0`, so it changes no bit for a finite
    /// field. Returns the kinetic term `vx⁻·vx⁺ + vy⁻·vy⁺` and `v⁺`.
    #[inline(always)]
    fn one<const S: usize>(
        &self,
        [x, y]: [&mut f64; 2],
        [vx, vy]: [&mut f64; 2],
    ) -> (f64, [f64; 2]) {
        let (nx, ny) = (self.nx, self.ny);
        let (ix0, wxs) = axis_stencil::<S>(*x * self.inv_dx, nx as i64);
        let (mut iy, wys) = axis_stencil::<S>(*y * self.inv_dy, ny as i64);
        let mut ex_acc = 0.0;
        let mut ey_acc = 0.0;
        for wy in wys {
            let row = iy * nx;
            let mut ix = ix0;
            for wx in wxs {
                let w = wx * wy;
                ex_acc += w * self.ex[row + ix];
                ey_acc += w * self.ey[row + ix];
                ix = next_node(ix, nx);
            }
            iy = next_node(iy, ny);
        }
        let vx_old = *vx;
        let vx_new = vx_old + self.qm_dt * ex_acc;
        *vx = vx_new;
        let vy_old = *vy;
        let vy_new = vy_old + self.qm_dt * ey_acc;
        *vy = vy_new;
        *x = advance_position(*x, vx_new, self.dt, self.lx);
        *y = advance_position(*y, vy_new, self.dt, self.ly);
        (vx_old * vx_new + vy_old * vy_new, [vx_new, vy_new])
    }

    /// [`Push::one`] on eight particles per chunk, over the columns
    /// `[x, y, vx, vy]`; a chunk with a lane off the fast path runs
    /// [`Push::one`] instead.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn lanes<const S: usize, T: Tally<2>>(&self, cols: [&mut [f64]; 4], tally: &mut T) {
        use crate::lanes::x86::*;
        use std::arch::x86_64::*;
        let len = cols[0].len();
        assert!(
            cols.iter().all(|c| c.len() == len),
            "particle column lengths differ"
        );
        let nodes = self.nx * self.ny;
        assert!(
            self.ex.len() == nodes && self.ey.len() == nodes,
            "field length mismatch"
        );
        let (nx, ny) = (
            _mm512_set1_epi64(self.nx as i64),
            _mm512_set1_epi64(self.ny as i64),
        );
        let (inv_dx, inv_dy) = (_mm512_set1_pd(self.inv_dx), _mm512_set1_pd(self.inv_dy));
        let (lx, ly) = (_mm512_set1_pd(self.lx), _mm512_set1_pd(self.ly));
        let qm_dt = _mm512_set1_pd(self.qm_dt);
        let dt = _mm512_set1_pd(self.dt);
        let lanes = |(cols, tally): &mut ([&mut [f64]; 4], &mut T), i: usize| {
            let [x0, y0, vx_old, vy_old] = cols.each_ref().map(|c| {
                // SAFETY: `i + 8 <= len`, and all four columns are `len`
                // long (asserted above).
                unsafe { load(c.as_ptr().add(i)) }
            });
            let ax = axis::<S>(_mm512_mul_pd(x0, inv_dx), nx);
            let ay = axis::<S>(_mm512_mul_pd(y0, inv_dy), ny);
            if ax.ok & ay.ok & in_box(x0, lx) & in_box(y0, ly) != ALL {
                return false;
            }
            let mut ex_acc = _mm512_setzero_pd();
            let mut ey_acc = _mm512_setzero_pd();
            let mut iy = ay.node;
            for wy in ay.w {
                let row = _mm512_mullo_epi64(iy, nx);
                let mut ix = ax.node;
                for wx in ax.w {
                    let w = _mm512_mul_pd(wx, wy);
                    let node = _mm512_add_epi64(row, ix);
                    // SAFETY: `ix` and `iy` are in `[0, nx)` and `[0, ny)`
                    // (`ok`, then `next_node`), so `node` indexes `ex` and
                    // `ey` (both `nx·ny` long, asserted above).
                    let (ex, ey) = unsafe { (gather(self.ex, node), gather(self.ey, node)) };
                    ex_acc = _mm512_add_pd(ex_acc, _mm512_mul_pd(w, ex));
                    ey_acc = _mm512_add_pd(ey_acc, _mm512_mul_pd(w, ey));
                    ix = next_node(ix, nx);
                }
                iy = next_node(iy, ny);
            }
            let vx_new = _mm512_add_pd(vx_old, _mm512_mul_pd(qm_dt, ex_acc));
            let vy_new = _mm512_add_pd(vy_old, _mm512_mul_pd(qm_dt, ey_acc));
            let (x1, far_x) = advance(x0, vx_new, dt, lx);
            let (y1, far_y) = advance(y0, vy_new, dt, ly);
            if far_x | far_y != 0 {
                return false;
            }
            for (c, new) in cols.iter_mut().zip([x1, y1, vx_new, vy_new]) {
                // SAFETY: as for the loads.
                unsafe { store(c.as_mut_ptr().add(i), new) };
            }
            let ke = _mm512_add_pd(_mm512_mul_pd(vx_old, vx_new), _mm512_mul_pd(vy_old, vy_new));
            tally.add_chunk(to_array(ke), [to_array(vx_new), to_array(vy_new)]);
            true
        };
        let scalar = |(cols, tally): &mut ([&mut [f64]; 4], &mut T), p: usize| {
            let [x, y, vx, vy] = cols.each_mut().map(|c| &mut c[p]);
            let (ke, v_new) = self.one::<S>([x, y], [vx, vy]);
            tally.add(ke, v_new);
        };
        lanes::chunks(&mut (cols, tally), len, lanes, scalar);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gather::gather_field;
    use crate::mover::{push_positions, push_velocities};

    fn particles(seed: u64, n: usize, lx: f64, ly: f64) -> Particles2D {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let xs: Vec<f64> = (0..n).map(|_| next() * lx).collect();
        let ys: Vec<f64> = (0..n).map(|_| next() * ly).collect();
        let vxs: Vec<f64> = (0..n).map(|_| next() * 0.8 - 0.4).collect();
        let vys: Vec<f64> = (0..n).map(|_| next() * 0.8 - 0.4).collect();
        Particles2D::new([xs, ys], [vxs, vys], -1.0, 1.0)
    }

    #[test]
    fn fused_step_trajectories_bitwise_equal_to_three_passes() {
        let grid = Grid2D::new(16, 8, 2.0532, 1.3);
        // The stacked field `[Ex | Ey]`.
        let e: Vec<f64> = (0..grid.nodes())
            .map(|i| 0.1 * (i as f64 * 0.37).sin())
            .chain((0..grid.nodes()).map(|i| 0.07 * (i as f64 * 0.91).cos()))
            .collect();
        let dt = 0.2;
        for shape in [Shape::Ngp, Shape::Cic, Shape::Tsc] {
            let mut pf = particles(5, 2_000, grid.lx(), grid.ly());
            let mut pu = pf.clone();
            let m = fused_gather_push_move(&mut pf, &grid, shape, &e, dt);

            let mut e_part = vec![0.0; 2 * pu.len()];
            gather_field(&pu, &grid, shape, &e, &mut e_part);
            let ke = push_velocities(&mut pu, &e_part, dt);
            let [px, py] = pu.total_momentum();
            push_positions(&mut pu, &grid, dt);

            assert_eq!(pf.pos, pu.pos, "{shape:?} positions");
            assert_eq!(pf.vel, pu.vel, "{shape:?} velocities");
            assert_eq!(m.momentum, px, "{shape:?} px");
            assert_eq!(m.momentum_y, Some(py), "{shape:?} py");
            // The KE sum interleaves x/y contributions per particle, so it
            // may differ from the unfused order by rounding only.
            let tol = 1e-14 * (1.0 + ke.abs());
            assert!(
                (m.centred_kinetic - ke).abs() <= tol,
                "{shape:?} ke: {} vs {ke}",
                m.centred_kinetic
            );
        }
    }
}
