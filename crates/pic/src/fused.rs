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
//!
//! As in [`deposit2d`](crate::deposit2d), the body is written once over
//! the shape's support `S`, and it has an AVX-512 twin over eight
//! particles per chunk ([`crate::lanes`]) that reproduces it bit for bit.

// analyze:hot — the fused per-particle loop is the 1-D stepping hot path;
// loop bodies here must stay allocation-free (PR 2's single-pass win).

use crate::deposit2d::{axis_stencil, next_node};
use crate::grid::Grid1D;
use crate::lanes::{self, Body};
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

/// The step's diagnostic sums in `D` dimensions, added in particle order
/// whichever body computed the terms.
#[derive(Debug)]
pub(crate) struct Sums<const D: usize> {
    ke: f64,
    mom: [f64; D],
}

impl<const D: usize> Sums<D> {
    /// Nothing added yet.
    pub(crate) fn new() -> Self {
        Self {
            ke: 0.0,
            mom: [0.0; D],
        }
    }

    /// Adds one particle's kinetic term `Σ_k v⁻_k·v⁺_k` and its post-push
    /// velocity.
    #[inline(always)]
    pub(crate) fn add(&mut self, ke: f64, v: [f64; D]) {
        self.ke += ke;
        for (m, v) in self.mom.iter_mut().zip(v) {
            *m += v;
        }
    }

    /// Adds a chunk's eight particles, in particle order.
    #[inline(always)]
    pub(crate) fn add_chunk(&mut self, ke: [f64; 8], v: [[f64; 8]; D]) {
        for p in 0..8 {
            self.add(ke[p], std::array::from_fn(|k| v[k][p]));
        }
    }

    /// The moments of a species of macro-particle mass `mass`.
    pub(crate) fn moments(&self, mass: f64) -> StepMoments {
        StepMoments {
            centred_kinetic: 0.5 * mass * self.ke,
            momentum: mass * self.mom[0],
            momentum_y: self.mom.get(1).map(|m| mass * m),
        }
    }
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
    push(Body::detect(), particles, grid, shape, e, dt)
}

/// [`fused_gather_push_move`] on `body`.
pub(crate) fn push(
    body: Body,
    particles: &mut Particles,
    grid: &Grid1D,
    shape: Shape,
    e: &[f64],
    dt: f64,
) -> StepMoments {
    assert_eq!(e.len(), grid.nx(), "field length mismatch");
    let k = Push {
        e,
        inv_dx: 1.0 / grid.dx(),
        n: grid.nx(),
        length: grid.lx(),
        qm_dt: particles.charge_over_mass() * dt,
        dt,
    };
    let mass = particles.mass();
    let ([x], [v]) = (&mut particles.pos, &mut particles.vel);
    let sums = match shape {
        Shape::Ngp => k.run::<1>(body, x, v),
        Shape::Cic => k.run::<2>(body, x, v),
        Shape::Tsc => k.run::<3>(body, x, v),
    };
    sums.moments(mass)
}

/// The per-call constants of the 1-D push; `e` is `n` nodes long.
struct Push<'a> {
    e: &'a [f64],
    inv_dx: f64,
    n: usize,
    length: f64,
    qm_dt: f64,
    dt: f64,
}

impl Push<'_> {
    /// The push over all particles for the shape of support `S`, on
    /// `body`.
    fn run<const S: usize>(&self, body: Body, x: &mut [f64], v: &mut [f64]) -> Sums<1> {
        let mut sums = Sums::new();
        match body {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `avx512f` and `avx512dq` were detected.
            Body::Avx512 if lanes::avx512() => unsafe { self.lanes::<S>(x, v, &mut sums) },
            _ => {
                for (x, v) in x.iter_mut().zip(v) {
                    let (ke, v_new) = self.one::<S>(x, v);
                    sums.add(ke, [v_new]);
                }
            }
        }
        sums
    }

    /// The scalar body: gather, accelerate and move one particle, with
    /// the same expressions as `gather_field` → `push_velocities` →
    /// `push_positions`. Returns its kinetic term `v⁻·v⁺` and `v⁺`.
    #[inline(always)]
    fn one<const S: usize>(&self, x: &mut f64, v: &mut f64) -> (f64, f64) {
        let (e, n) = (self.e, self.n);
        let (j, w) = axis_stencil::<S>(*x * self.inv_dx, n as i64);
        let ep = match S {
            1 => e[j],
            2 => w[0] * e[j] + w[1] * e[next_node(j, n)],
            _ => {
                let (mut acc, mut j) = (0.0, j);
                for w in w {
                    acc += w * e[j];
                    j = next_node(j, n);
                }
                acc
            }
        };
        let v_old = *v;
        let v_new = v_old + self.qm_dt * ep;
        *v = v_new;
        *x = advance_position(*x, v_new, self.dt, self.length);
        (v_old * v_new, v_new)
    }

    /// [`Push::one`] on eight particles per chunk; a chunk with a lane
    /// off the fast path runs [`Push::one`] instead.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn lanes<const S: usize>(&self, x: &mut [f64], v: &mut [f64], sums: &mut Sums<1>) {
        use crate::lanes::x86::*;
        use std::arch::x86_64::*;
        assert_eq!(x.len(), v.len(), "particle column lengths differ");
        assert_eq!(self.e.len(), self.n, "field length mismatch");
        let n = _mm512_set1_epi64(self.n as i64);
        let inv_dx = _mm512_set1_pd(self.inv_dx);
        let length = _mm512_set1_pd(self.length);
        let qm_dt = _mm512_set1_pd(self.qm_dt);
        let dt = _mm512_set1_pd(self.dt);
        let len = x.len();
        let lanes = |(x, v, sums): &mut (&mut [f64], &mut [f64], &mut Sums<1>), i: usize| {
            // SAFETY: `i + 8 <= len`, and both columns are `len` long
            // (asserted above).
            let (x0, v_old) = unsafe { (load(x.as_ptr().add(i)), load(v.as_ptr().add(i))) };
            let a = axis::<S>(_mm512_mul_pd(x0, inv_dx), n);
            if a.ok & in_box(x0, length) != ALL {
                return false;
            }
            let e = self.e;
            // SAFETY: every lane of `a.node` is in `[0, n)` (`a.ok`), and so
            // is its `next_node`; `e` is `n` long (asserted above).
            let ep = unsafe {
                match S {
                    1 => gather(e, a.node),
                    2 => _mm512_add_pd(
                        _mm512_mul_pd(a.w[0], gather(e, a.node)),
                        _mm512_mul_pd(a.w[1], gather(e, next_node(a.node, n))),
                    ),
                    _ => {
                        let (mut acc, mut j) = (_mm512_setzero_pd(), a.node);
                        for w in a.w {
                            acc = _mm512_add_pd(acc, _mm512_mul_pd(w, gather(e, j)));
                            j = next_node(j, n);
                        }
                        acc
                    }
                }
            };
            let v_new = _mm512_add_pd(v_old, _mm512_mul_pd(qm_dt, ep));
            let (x1, far) = advance(x0, v_new, dt, length);
            if far != 0 {
                return false;
            }
            // SAFETY: as for the loads.
            unsafe {
                store(x.as_mut_ptr().add(i), x1);
                store(v.as_mut_ptr().add(i), v_new);
            }
            sums.add_chunk(to_array(_mm512_mul_pd(v_old, v_new)), [to_array(v_new)]);
            true
        };
        let scalar = |(x, v, sums): &mut (&mut [f64], &mut [f64], &mut Sums<1>), p: usize| {
            let (ke, v_new) = self.one::<S>(&mut x[p], &mut v[p]);
            sums.add(ke, [v_new]);
        };
        lanes::chunks(&mut (x, v, sums), len, lanes, scalar);
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
