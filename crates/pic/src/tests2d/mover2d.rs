//! 2-D unit tests of the leap-frog mover ([`crate::mover`]), with the
//! per-particle field stacked `[Ex | Ey]`.

#[cfg(test)]
mod tests {
    use crate::grid::Grid2D;
    use crate::mover::{half_step_back, push_positions, push_velocities};
    use crate::particles::Particles2D;
    use proptest::prelude::*;

    fn free(x: Vec<f64>, y: Vec<f64>, vx: Vec<f64>, vy: Vec<f64>) -> Particles2D {
        Particles2D::new([x, y], [vx, vy], -1.0, 1.0)
    }

    #[test]
    fn ballistic_motion_without_field() {
        let grid = Grid2D::new(8, 8, 2.0, 2.0);
        let mut p = free(vec![0.5], vec![0.5], vec![0.1], vec![-0.2]);
        let zero = vec![0.0; 2];
        for _ in 0..10 {
            push_velocities(&mut p, &zero, 0.1);
            push_positions(&mut p, &grid, 0.1);
        }
        // 10 steps × v·Δt: Δx = 0.1·0.1·10 = 0.1, Δy = −0.2.
        assert!((p.pos[0][0] - 0.6).abs() < 1e-12);
        assert!((p.pos[1][0] - 0.3).abs() < 1e-12);
    }

    #[test]
    fn constant_field_accelerates_linearly() {
        let mut p = free(vec![0.0], vec![0.0], vec![0.0], vec![0.0]);
        push_velocities(&mut p, &[2.0, -1.0], 0.5);
        // q/m = -1: Δvx = -1·2.0·0.5 = -1, Δvy = +0.5.
        assert!((p.vel[0][0] + 1.0).abs() < 1e-15);
        assert!((p.vel[1][0] - 0.5).abs() < 1e-15);
    }

    #[test]
    fn time_centred_energy_matches_hand_computation() {
        let mut p = free(vec![0.0], vec![0.0], vec![1.0], vec![2.0]);
        let ke = push_velocities(&mut p, &[1.0, 1.0], 1.0);
        // v⁻ = (1, 2), v⁺ = (0, 1): KE = ½·(1·0 + 2·1) = 1.
        assert!((ke - 1.0).abs() < 1e-15);
    }

    #[test]
    fn half_step_back_then_forward_is_identity() {
        let mut p = free(vec![0.0], vec![0.0], vec![0.3], vec![-0.4]);
        let (ex, ey) = ([0.7], [-0.1]);
        half_step_back(&mut p, &[ex[0], ey[0]], 0.2);
        // A forward half-push with the same field undoes the rewind.
        let qm_half_dt = p.charge_over_mass() * 0.1;
        p.vel[0][0] += qm_half_dt * ex[0];
        p.vel[1][0] += qm_half_dt * ey[0];
        assert!((p.vel[0][0] - 0.3).abs() < 1e-15);
        assert!((p.vel[1][0] + 0.4).abs() < 1e-15);
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
            p.vel[0][0] = -p.vel[0][0];
            p.vel[1][0] = -p.vel[1][0];
            for _ in 0..steps {
                push_positions(&mut p, &grid, 0.1);
            }
            let dx = (p.pos[0][0] - x).abs();
            let dy = (p.pos[1][0] - y).abs();
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
                prop_assert!((0.0..grid.lx()).contains(&p.pos[0][0]));
                prop_assert!((0.0..grid.ly()).contains(&p.pos[1][0]));
            }
        }
    }
}
