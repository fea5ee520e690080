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
//! shape's support `S` and picked by one `match` per call. The
//! kinetic-energy *sum* interleaves the x- and y-contributions per
//! particle instead of summing all x-terms first, so that one diagnostic
//! may differ from the unfused value by rounding (≪ 1e-15 relative); the
//! per-component momentum sums keep the unfused order exactly.

// analyze:hot — the fused per-particle loop is the 2-D stepping hot path;
// loop bodies here must stay allocation-free (PR 3's single-pass win).

use crate::deposit2d::{axis_stencil, next_node};
use crate::fused::{advance_position, StepMoments};
use crate::grid::Grid2D;
use crate::particles::Particles2D;
use crate::shape::Shape;

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
    assert_eq!(e.len(), 2 * grid.nodes(), "field length mismatch");
    let (ex, ey) = e.split_at(grid.nodes());
    match shape {
        Shape::Ngp => fused::<1>(particles, grid, ex, ey, dt),
        Shape::Cic => fused::<2>(particles, grid, ex, ey, dt),
        Shape::Tsc => fused::<3>(particles, grid, ex, ey, dt),
    }
}

/// [`fused_gather_push_move`]'s body for the shape of support `S`. The
/// gather adds all `S×S` terms `w * e[node]`, `y` rows outer, from `+0.0`:
/// a zero-weight term is `±0.0` added to a sum that is never `-0.0`, so
/// it changes no bit for a finite field.
fn fused<const S: usize>(
    particles: &mut Particles2D,
    grid: &Grid2D,
    ex: &[f64],
    ey: &[f64],
    dt: f64,
) -> StepMoments {
    let inv_dx = 1.0 / grid.dx();
    let inv_dy = 1.0 / grid.dy();
    let (nx, ny) = (grid.nx(), grid.ny());
    let (nxi, nyi) = (nx as i64, ny as i64);
    let (lx, ly) = (grid.lx(), grid.ly());
    let qm_dt = particles.charge_over_mass() * dt;
    let half_m = 0.5 * particles.mass();
    let mass = particles.mass();

    let mut ke = 0.0f64;
    let mut mom_x = 0.0f64;
    let mut mom_y = 0.0f64;
    let ([x, y], [vx, vy]) = (&mut particles.pos, &mut particles.vel);
    let iter = x
        .iter_mut()
        .zip(y.iter_mut())
        .zip(vx.iter_mut().zip(vy.iter_mut()));
    for ((x, y), (vx, vy)) in iter {
        // Gather (same expressions as `gather_field`).
        let (ix0, wxs) = axis_stencil::<S>(*x * inv_dx, nxi);
        let (mut iy, wys) = axis_stencil::<S>(*y * inv_dy, nyi);
        let mut ex_acc = 0.0;
        let mut ey_acc = 0.0;
        for wy in wys {
            let row = iy * nx;
            let mut ix = ix0;
            for wx in wxs {
                let w = wx * wy;
                ex_acc += w * ex[row + ix];
                ey_acc += w * ey[row + ix];
                ix = next_node(ix, nx);
            }
            iy = next_node(iy, ny);
        }
        // Accelerate (same expressions as `push_velocities`).
        let vx_old = *vx;
        let vx_new = vx_old + qm_dt * ex_acc;
        *vx = vx_new;
        let vy_old = *vy;
        let vy_new = vy_old + qm_dt * ey_acc;
        *vy = vy_new;
        ke += vx_old * vx_new + vy_old * vy_new;
        mom_x += vx_new;
        mom_y += vy_new;
        // Move (same expressions as `push_positions`).
        *x = advance_position(*x, vx_new, dt, lx);
        *y = advance_position(*y, vy_new, dt, ly);
    }
    StepMoments {
        centred_kinetic: half_m * ke,
        momentum: mass * mom_x,
        momentum_y: Some(mass * mom_y),
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
