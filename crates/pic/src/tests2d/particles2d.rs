//! Unit tests of `Particles2D` ([`crate::particles`]).

#[cfg(test)]
mod tests {
    use crate::particles::Particles2D;

    #[test]
    fn normalized_electrons_have_unit_plasma_frequency() {
        let n = 1024;
        let area = 2.0532 * 2.0532;
        let p = Particles2D::electrons_normalized(
            [vec![0.0; n], vec![0.0; n]],
            [vec![0.0; n], vec![0.0; n]],
            area,
        );
        let density = n as f64 / area;
        let omega_p_sq = density * p.charge() * p.charge() / p.mass();
        assert!((omega_p_sq - 1.0).abs() < 1e-12);
        assert!((p.charge_over_mass() + 1.0).abs() < 1e-12);
        assert!((p.total_charge() / area + 1.0).abs() < 1e-12);
    }

    #[test]
    fn momentum_and_energy_on_simple_data() {
        let p = Particles2D::new(
            [vec![0.0, 1.0], vec![0.0, 0.5]],
            [vec![2.0, -1.0], vec![0.0, 3.0]],
            -0.5,
            0.5,
        );
        let [px, py] = p.total_momentum();
        assert!((px - 0.5).abs() < 1e-15);
        assert!((py - 1.5).abs() < 1e-15);
        // ½·0.5·(4 + 1 + 0 + 9) = 3.5
        assert!((p.kinetic_energy() - 3.5).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_rejected() {
        let _ = Particles2D::new([vec![0.0], vec![0.0]], [vec![], vec![0.0]], -1.0, 1.0);
    }

    #[test]
    fn drifting_population_energy() {
        // N particles all drifting at (v0, 0): KE = ½·m·N·v0² = ½·A·v0².
        let n = 100;
        let area = 4.0;
        let v0 = 0.3;
        let p = Particles2D::electrons_normalized(
            [vec![0.0; n], vec![0.0; n]],
            [vec![v0; n], vec![0.0; n]],
            area,
        );
        assert!((p.kinetic_energy() - 0.5 * area * v0 * v0).abs() < 1e-12);
    }
}
