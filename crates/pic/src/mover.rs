//! The leap-frog particle mover (paper Eqs. 1–2):
//!
//! ```text
//! v_p^{n+1/2} = v_p^{n-1/2} + (q/m)·E^n(x_p)·Δt
//! x_p^{n+1}   = x_p^n + v_p^{n+1/2}·Δt
//! ```
//!
//! Velocities live at half-integer time levels; [`half_step_back`]
//! initializes the stagger from the `t = 0` state. The velocity push
//! returns the time-centred kinetic energy `½·m·Σ v⁻·v⁺`, the standard
//! leap-frog energy estimate whose sum with the field energy is the
//! conserved "Total Energy" of the paper's Figs. 5–6. With no magnetic
//! field the components decouple, so each function runs the 1-D update
//! axis by axis.

use crate::grid::Grid;
use crate::particles::Particles;

/// Advances velocities by one step: `v += (q/m)·E_p·Δt`, where `e_part`
/// stacks the per-particle field components (`[E]` in 1-D, `[Ex | Ey]`
/// in 2-D, each `particles.len()` long).
///
/// Returns the time-centred kinetic energy `½·m·Σ v_old·v_new`, summed
/// over every particle of the `x` axis, then of the `y` axis.
///
/// # Panics
/// Panics if `e_part` length differs from `D` times the particle count.
pub fn push_velocities<const D: usize>(
    particles: &mut Particles<D>,
    e_part: &[f64],
    dt: f64,
) -> f64 {
    let n = particles.len();
    assert_eq!(e_part.len(), D * n, "per-particle field mismatch");
    let qm_dt = particles.charge_over_mass() * dt;
    let half_m = 0.5 * particles.mass();
    let mut ke_sum = 0.0;
    for (k, vel) in particles.vel.iter_mut().enumerate() {
        for (v, &ep) in vel.iter_mut().zip(&e_part[k * n..][..n]) {
            let v_old = *v;
            let v_new = v_old + qm_dt * ep;
            *v = v_new;
            ke_sum += v_old * v_new;
        }
    }
    half_m * ke_sum
}

/// Advances positions by one step with periodic wrap: `x += v·Δt` on
/// every axis.
pub fn push_positions<const D: usize>(particles: &mut Particles<D>, grid: &Grid<D>, dt: f64) {
    let lengths = grid.lengths();
    for ((pos, vel), length) in particles.pos.iter_mut().zip(&particles.vel).zip(lengths) {
        for (x, &v) in pos.iter_mut().zip(vel) {
            let mut nx = *x + v * dt;
            if nx < 0.0 || nx >= length {
                nx = nx.rem_euclid(length);
                if nx >= length {
                    nx = 0.0;
                }
            }
            *x = nx;
        }
    }
}

/// Rewinds velocities by half a step to set up the leap-frog stagger:
/// `v^{-1/2} = v^0 − (q/m)·E^0(x_p)·Δt/2`, with `e_part` stacked as in
/// [`push_velocities`].
pub fn half_step_back<const D: usize>(particles: &mut Particles<D>, e_part: &[f64], dt: f64) {
    let n = particles.len();
    assert_eq!(e_part.len(), D * n, "per-particle field mismatch");
    let qm_half_dt = particles.charge_over_mass() * 0.5 * dt;
    for (k, vel) in particles.vel.iter_mut().enumerate() {
        for (v, &ep) in vel.iter_mut().zip(&e_part[k * n..][..n]) {
            *v -= qm_half_dt * ep;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Grid1D;
    use proptest::prelude::*;

    fn free_particles(x: Vec<f64>, v: Vec<f64>) -> Particles {
        Particles::new([x], [v], -1.0, 1.0)
    }

    #[test]
    fn free_streaming_advances_linearly() {
        let grid = Grid1D::new(8, 8.0);
        let mut p = free_particles(vec![1.0, 2.0], vec![0.5, -0.25]);
        push_positions(&mut p, &grid, 2.0);
        assert!((p.pos[0][0] - 2.0).abs() < 1e-15);
        assert!((p.pos[0][1] - 1.5).abs() < 1e-15);
    }

    #[test]
    fn positions_wrap_periodically() {
        let grid = Grid1D::new(8, 8.0);
        let mut p = free_particles(vec![7.5, 0.5], vec![1.0, -1.0]);
        push_positions(&mut p, &grid, 1.0);
        assert!((p.pos[0][0] - 0.5).abs() < 1e-12);
        assert!((p.pos[0][1] - 7.5).abs() < 1e-12);
    }

    #[test]
    fn velocity_push_applies_lorentz_force() {
        // q/m = -1: E > 0 decelerates a positive-moving electron.
        let mut p = free_particles(vec![0.0], vec![0.2]);
        let ke = push_velocities(&mut p, &[0.1], 0.2);
        assert!((p.vel[0][0] - (0.2 - 0.1 * 0.2)).abs() < 1e-15);
        // Time-centred KE: ½·m·v_old·v_new.
        assert!((ke - 0.5 * 0.2 * 0.18).abs() < 1e-15);
    }

    #[test]
    fn half_step_back_then_forward_is_identity() {
        let mut p = free_particles(vec![0.0, 1.0], vec![0.3, -0.3]);
        let e = [0.05, -0.02];
        let orig = p.vel[0].clone();
        half_step_back(&mut p, &e, 0.2);
        // A forward half-step with the same field must restore v.
        let qm_half_dt = p.charge_over_mass() * 0.1;
        for (v, &ep) in p.vel[0].iter_mut().zip(&e) {
            *v += qm_half_dt * ep;
        }
        for (a, b) in p.vel[0].iter().zip(&orig) {
            assert!((a - b).abs() < 1e-15);
        }
    }

    #[test]
    fn zero_field_preserves_velocity_and_energy() {
        let mut p = free_particles(vec![0.0; 3], vec![0.1, -0.2, 0.3]);
        let ke0 = p.kinetic_energy();
        let ke = push_velocities(&mut p, &[0.0; 3], 0.2);
        assert!((ke - ke0).abs() < 1e-15);
        assert_eq!(p.vel[0], vec![0.1, -0.2, 0.3]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Leap-frog is time-reversible: push with +dt then flip the sign of
        /// dt and push again — positions return exactly (the velocity push
        /// reverses trivially since E is held fixed here).
        #[test]
        fn leapfrog_time_reversibility(
            xs in proptest::collection::vec(0.0f64..7.9, 1..32),
            vs in proptest::collection::vec(-1.0f64..1.0, 32),
            e in proptest::collection::vec(-0.5f64..0.5, 32),
        ) {
            let grid = Grid1D::new(8, 8.0);
            let n = xs.len();
            let vs = vs[..n].to_vec();
            let e = e[..n].to_vec();
            let mut p = free_particles(xs.clone(), vs.clone());
            let dt = 0.2;
            push_velocities(&mut p, &e, dt);
            push_positions(&mut p, &grid, dt);
            // Reverse.
            push_positions(&mut p, &grid, -dt);
            push_velocities(&mut p, &e, -dt);
            for (a, b) in p.pos[0].iter().zip(&xs) {
                let d = (a - b).abs();
                prop_assert!(d < 1e-10 || (grid.lx() - d) < 1e-10, "{a} vs {b}");
            }
            for (a, b) in p.vel[0].iter().zip(&vs) {
                prop_assert!((a - b).abs() < 1e-12);
            }
        }

        /// Momentum change equals total impulse q·ΣE·dt.
        #[test]
        fn momentum_change_matches_impulse(
            vs in proptest::collection::vec(-1.0f64..1.0, 1..64),
            e_val in -1.0f64..1.0,
        ) {
            let n = vs.len();
            let mut p = free_particles(vec![0.0; n], vs);
            let [p0] = p.total_momentum();
            let e = vec![e_val; n];
            push_velocities(&mut p, &e, 0.2);
            let impulse = p.charge() * e_val * n as f64 * 0.2;
            prop_assert!((p.total_momentum()[0] - p0 - impulse).abs() < 1e-9);
        }

        /// The time-centred KE lies between the old and new instantaneous
        /// KE for a uniform field (Cauchy-Schwarz-ish sanity bound).
        #[test]
        fn centred_ke_is_finite_and_sane(
            vs in proptest::collection::vec(-1.0f64..1.0, 1..32),
            e_val in -0.2f64..0.2,
        ) {
            let n = vs.len();
            let mut p = free_particles(vec![0.0; n], vs);
            let ke_old = p.kinetic_energy();
            let e = vec![e_val; n];
            let ke_mid = push_velocities(&mut p, &e, 0.1);
            let ke_new = p.kinetic_energy();
            let lo = ke_old.min(ke_new) - 1e-9;
            let hi = ke_old.max(ke_new) + 1e-9;
            prop_assert!(ke_mid >= lo - 0.05 * hi && ke_mid <= hi + 0.05 * hi,
                "centred {ke_mid} outside [{lo}, {hi}]");
        }
    }
}
