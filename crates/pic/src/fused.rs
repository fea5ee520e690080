//! The fused gather→accelerate→move kernel: one pass over the particles
//! per step.
//!
//! [`fused_gather_push_move`] interpolates `Eⁿ` at each particle, pushes
//! the velocity and pushes the position entirely in registers, so a step
//! touches `x` and `v` exactly once each and needs no per-particle field
//! buffer (`e_part`) at all. It is arithmetically identical to the
//! three-pass pipeline
//! [`gather_field`](crate::gather::gather_field) →
//! [`push_velocities`](crate::mover::push_velocities) →
//! [`push_positions`](crate::mover::push_positions):
//! the same per-particle expressions in the same order, with the grid
//! wraps computed by compare-and-fold instead of `rem_euclid` (equal
//! values, no integer division). The unfused functions remain the test
//! oracles — see `tests/fused_equivalence.rs` at the workspace root.
//!
//! The kernel also accumulates the step's diagnostics moments (the
//! time-centred kinetic energy and the post-push momentum) in the same
//! pass, in the same per-particle summation order as the unfused code.

// analyze:hot — the fused per-particle loop is the 1-D stepping hot path;
// loop bodies here must stay allocation-free (PR 2's single-pass win).

use crate::grid::Grid1D;
use crate::particles::Particles;
use crate::shape::Shape;

/// Diagnostics moments accumulated by the fused pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepMoments {
    /// Time-centred kinetic energy `½·m·Σ v⁻·v⁺` at the starting time
    /// level (the same estimate [`crate::mover::push_velocities`] returns).
    pub centred_kinetic: f64,
    /// Total momentum `m·Σ v⁺` right after the velocity push (the `x`
    /// component in 2-D).
    pub momentum: f64,
    /// The `y` momentum component; `None` in 1-D.
    pub momentum_y: Option<f64>,
}

/// Folds an unwrapped support index into `[0, n)`.
///
/// Positions in `[0, L)` put the index within one period of the grid, so
/// a single compare-and-fold suffices; anything further out (possible
/// only when the caller violates the position invariant) falls back to
/// the full Euclidean wrap.
#[inline(always)]
pub(crate) fn wrap_cell(j: i64, n: i64) -> usize {
    let folded = if j >= n {
        j - n
    } else if j < 0 {
        j + n
    } else {
        j
    };
    if (0..n).contains(&folded) {
        folded as usize
    } else {
        folded.rem_euclid(n) as usize
    }
}

/// Advances one particle position by `v·dt` with periodic wrap, matching
/// [`crate::mover::push_positions`] bit for bit: a single fold over the
/// box edge is exact (Sterbenz) and equals what `rem_euclid` computes for
/// positions within one period; multi-period overshoots take the full
/// `rem_euclid` path.
#[inline(always)]
pub(crate) fn advance_position(x: f64, v: f64, dt: f64, length: f64) -> f64 {
    let mut nx = x + v * dt;
    if nx < 0.0 || nx >= length {
        if nx >= length && nx - length < length {
            nx -= length;
        } else if nx < 0.0 && nx + length >= 0.0 {
            nx += length;
        } else {
            nx = nx.rem_euclid(length);
        }
        if nx >= length {
            nx = 0.0;
        }
    }
    nx
}

/// One fused step of the particle pipeline: gather `e` at every particle,
/// push velocities by `(q/m)·E·Δt`, push positions by `v·Δt` with
/// periodic wrap — a single pass, no intermediate buffer.
///
/// Returns the time-centred kinetic energy and the post-push momentum
/// (the two diagnostics the unfused pipeline extracts between its
/// passes).
///
/// # Panics
/// Panics if `e` length differs from the grid node count.
pub fn fused_gather_push_move(
    particles: &mut Particles,
    grid: &Grid1D,
    shape: Shape,
    e: &[f64],
    dt: f64,
) -> StepMoments {
    assert_eq!(e.len(), grid.nx(), "field length mismatch");
    let inv_dx = 1.0 / grid.dx();
    let n = grid.nx();
    let ni = n as i64;
    let length = grid.lx();
    let qm_dt = particles.charge_over_mass() * dt;
    let half_m = 0.5 * particles.mass();
    let mass = particles.mass();

    let mut ke = 0.0f64;
    let mut mom = 0.0f64;
    let ([x], [v]) = (&mut particles.pos, &mut particles.vel);
    for (x, v) in x.iter_mut().zip(v.iter_mut()) {
        // Gather (same expressions as `gather_field`).
        let a = shape.assign(*x * inv_dx);
        let ep = match shape {
            Shape::Ngp => e[wrap_cell(a.leftmost, ni)],
            Shape::Cic => {
                let j = wrap_cell(a.leftmost, ni);
                let j1 = if j + 1 == n { 0 } else { j + 1 };
                a.w[0] * e[j] + a.w[1] * e[j1]
            }
            Shape::Tsc => {
                let mut acc = 0.0;
                for (o, w) in a.w.iter().enumerate() {
                    acc += w * e[wrap_cell(a.leftmost + o as i64, ni)];
                }
                acc
            }
        };
        // Accelerate (same expressions as `push_velocities`).
        let v_old = *v;
        let v_new = v_old + qm_dt * ep;
        *v = v_new;
        ke += v_old * v_new;
        mom += v_new;
        // Move (same expressions as `push_positions`).
        *x = advance_position(*x, v_new, dt, length);
    }
    StepMoments {
        centred_kinetic: half_m * ke,
        momentum: mass * mom,
        momentum_y: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gather::gather_field;
    use crate::mover::{push_positions, push_velocities};

    fn particles(seed: u64, n: usize, l: f64) -> Particles {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let xs: Vec<f64> = (0..n).map(|_| next() * l).collect();
        let vs: Vec<f64> = (0..n).map(|_| next() * 0.8 - 0.4).collect();
        Particles::electrons_normalized([xs], [vs], l)
    }

    #[test]
    fn wrap_cell_matches_rem_euclid_everywhere() {
        for n in [1i64, 2, 7, 64] {
            for j in -3 * n..3 * n {
                assert_eq!(wrap_cell(j, n), j.rem_euclid(n) as usize, "j={j}, n={n}");
            }
        }
    }

    #[test]
    fn fused_step_is_bitwise_equal_to_three_passes() {
        let grid = Grid1D::paper();
        let e: Vec<f64> = (0..grid.nx())
            .map(|j| 0.1 * (j as f64 * 0.37).sin())
            .collect();
        let dt = 0.2;
        for shape in [Shape::Ngp, Shape::Cic, Shape::Tsc] {
            let mut pf = particles(3, 4_000, grid.lx());
            let mut pu = pf.clone();
            let moments = fused_gather_push_move(&mut pf, &grid, shape, &e, dt);

            let mut ep = vec![0.0; pu.len()];
            gather_field(&pu, &grid, shape, &e, &mut ep);
            let ke = push_velocities(&mut pu, &ep, dt);
            let [momentum] = pu.total_momentum();
            push_positions(&mut pu, &grid, dt);

            assert_eq!(pf.pos, pu.pos, "{shape:?} positions");
            assert_eq!(pf.vel, pu.vel, "{shape:?} velocities");
            assert_eq!(moments.centred_kinetic, ke, "{shape:?} kinetic");
            assert_eq!(moments.momentum, momentum, "{shape:?} momentum");
        }
    }

    #[test]
    fn moments_match_over_many_steps() {
        // Drive both pipelines through repeated steps with a frozen field
        // (the field solve is outside the kernel under test).
        let grid = Grid1D::new(16, 2.0532);
        let e: Vec<f64> = (0..16).map(|j| 0.05 * (j as f64 * 0.9).cos()).collect();
        let mut pf = particles(17, 512, grid.lx());
        let mut pu = pf.clone();
        let mut ep = vec![0.0; pu.len()];
        for _ in 0..25 {
            let m = fused_gather_push_move(&mut pf, &grid, Shape::Cic, &e, 0.2);
            gather_field(&pu, &grid, Shape::Cic, &e, &mut ep);
            let ke = push_velocities(&mut pu, &ep, 0.2);
            assert_eq!(m.centred_kinetic, ke);
            push_positions(&mut pu, &grid, 0.2);
        }
        assert_eq!(pf.pos, pu.pos);
        assert_eq!(pf.vel, pu.vel);
    }
}
