//! The 2-D leap-frog particle mover — the paper's Eqs. (1)–(2) applied per
//! component (no magnetic field, so the components decouple):
//!
//! ```text
//! v^{n+1/2} = v^{n-1/2} + (q/m)·E^n(x_p)·Δt     (both components)
//! x^{n+1}   = x^n + v^{n+1/2}·Δt                (both components)
//! ```

use crate::grid2d::Grid2D;
use crate::particles2d::Particles2D;

/// Advances both velocity components by one step and returns the
/// time-centred kinetic energy `½·m·Σ(vx⁻·vx⁺ + vy⁻·vy⁺)` — the standard
/// leap-frog energy estimate at the starting time level.
///
/// # Panics
/// Panics if the per-particle field slices mismatch the particle count.
pub fn push_velocities(
    particles: &mut Particles2D,
    ex_part: &[f64],
    ey_part: &[f64],
    dt: f64,
) -> f64 {
    assert_eq!(ex_part.len(), particles.len(), "ex_part length mismatch");
    assert_eq!(ey_part.len(), particles.len(), "ey_part length mismatch");
    let qm_dt = particles.charge_over_mass() * dt;
    let half_m = 0.5 * particles.mass();

    let advance = |v: &mut f64, ep: f64| {
        let v_old = *v;
        let v_new = v_old + qm_dt * ep;
        *v = v_new;
        v_old * v_new
    };

    let mut ke_sum = 0.0;
    for (v, &ep) in particles.vx.iter_mut().zip(ex_part) {
        ke_sum += advance(v, ep);
    }
    for (v, &ep) in particles.vy.iter_mut().zip(ey_part) {
        ke_sum += advance(v, ep);
    }
    half_m * ke_sum
}

/// Advances both position components with periodic wrap.
pub fn push_positions(particles: &mut Particles2D, grid: &Grid2D, dt: f64) {
    let (lx, ly) = (grid.lx(), grid.ly());
    let advance = |pos: &mut f64, v: f64, length: f64| {
        let mut np = *pos + v * dt;
        if np < 0.0 || np >= length {
            np = np.rem_euclid(length);
            if np >= length {
                np = 0.0;
            }
        }
        *pos = np;
    };
    for (x, &v) in particles.x.iter_mut().zip(particles.vx.iter()) {
        advance(x, v, lx);
    }
    for (y, &v) in particles.y.iter_mut().zip(particles.vy.iter()) {
        advance(y, v, ly);
    }
}

/// Rewinds both velocity components by half a step to set up the
/// leap-frog stagger.
///
/// # Panics
/// Panics if the per-particle field slices mismatch the particle count.
pub fn half_step_back(particles: &mut Particles2D, ex_part: &[f64], ey_part: &[f64], dt: f64) {
    assert_eq!(ex_part.len(), particles.len(), "ex_part length mismatch");
    assert_eq!(ey_part.len(), particles.len(), "ey_part length mismatch");
    let qm_half_dt = particles.charge_over_mass() * 0.5 * dt;
    for (v, &ep) in particles.vx.iter_mut().zip(ex_part) {
        *v -= qm_half_dt * ep;
    }
    for (v, &ep) in particles.vy.iter_mut().zip(ey_part) {
        *v -= qm_half_dt * ep;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn free(x: Vec<f64>, y: Vec<f64>, vx: Vec<f64>, vy: Vec<f64>) -> Particles2D {
        Particles2D::new(x, y, vx, vy, -1.0, 1.0)
    }

    #[test]
    fn ballistic_motion_without_field() {
        let grid = Grid2D::new(8, 8, 2.0, 2.0);
        let mut p = free(vec![0.5], vec![0.5], vec![0.1], vec![-0.2]);
        let zero = vec![0.0];
        for _ in 0..10 {
            push_velocities(&mut p, &zero, &zero, 0.1);
            push_positions(&mut p, &grid, 0.1);
        }
        // 10 steps × v·Δt: Δx = 0.1·0.1·10 = 0.1, Δy = −0.2.
        assert!((p.x[0] - 0.6).abs() < 1e-12);
        assert!((p.y[0] - 0.3).abs() < 1e-12);
    }

    #[test]
    fn constant_field_accelerates_linearly() {
        let mut p = free(vec![0.0], vec![0.0], vec![0.0], vec![0.0]);
        let ex = vec![2.0];
        let ey = vec![-1.0];
        push_velocities(&mut p, &ex, &ey, 0.5);
        // q/m = -1: Δvx = -1·2.0·0.5 = -1, Δvy = +0.5.
        assert!((p.vx[0] + 1.0).abs() < 1e-15);
        assert!((p.vy[0] - 0.5).abs() < 1e-15);
    }

    #[test]
    fn time_centred_energy_matches_hand_computation() {
        let mut p = free(vec![0.0], vec![0.0], vec![1.0], vec![2.0]);
        let ke = push_velocities(&mut p, &[1.0], &[1.0], 1.0);
        // v⁻ = (1, 2), v⁺ = (0, 1): KE = ½·(1·0 + 2·1) = 1.
        assert!((ke - 1.0).abs() < 1e-15);
    }

    #[test]
    fn half_step_back_then_forward_is_identity() {
        let mut p = free(vec![0.0], vec![0.0], vec![0.3], vec![-0.4]);
        let ex = vec![0.7];
        let ey = vec![-0.1];
        half_step_back(&mut p, &ex, &ey, 0.2);
        // A forward half-push with the same field undoes the rewind.
        let qm_half_dt = p.charge_over_mass() * 0.1;
        p.vx[0] += qm_half_dt * ex[0];
        p.vy[0] += qm_half_dt * ey[0];
        assert!((p.vx[0] - 0.3).abs() < 1e-15);
        assert!((p.vy[0] + 0.4).abs() < 1e-15);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn leapfrog_is_time_reversible(
            x in 0.0f64..2.0, y in 0.0f64..2.0,
            vx in -0.5f64..0.5, vy in -0.5f64..0.5,
            steps in 1usize..20,
        ) {
            // Drift-only reversibility: run forward, negate velocities,
            // run the same number of steps, arrive back.
            let grid = Grid2D::new(8, 8, 2.0, 2.0);
            let mut p = free(vec![x], vec![y], vec![vx], vec![vy]);
            for _ in 0..steps {
                push_positions(&mut p, &grid, 0.1);
            }
            p.vx[0] = -p.vx[0];
            p.vy[0] = -p.vy[0];
            for _ in 0..steps {
                push_positions(&mut p, &grid, 0.1);
            }
            let dx = (p.x[0] - x).abs();
            let dy = (p.y[0] - y).abs();
            prop_assert!(dx < 1e-9 || (grid.lx() - dx) < 1e-9, "x: {dx}");
            prop_assert!(dy < 1e-9 || (grid.ly() - dy) < 1e-9, "y: {dy}");
        }

        #[test]
        fn positions_stay_in_box(
            vx in -10.0f64..10.0, vy in -10.0f64..10.0, steps in 1usize..50,
        ) {
            let grid = Grid2D::new(8, 8, 2.0, 2.0);
            let mut p = free(vec![1.0], vec![1.0], vec![vx], vec![vy]);
            for _ in 0..steps {
                push_positions(&mut p, &grid, 0.2);
                prop_assert!((0.0..grid.lx()).contains(&p.x[0]));
                prop_assert!((0.0..grid.ly()).contains(&p.y[0]));
            }
        }
    }
}
