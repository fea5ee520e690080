//! Unit tests of `Grid2D` ([`crate::grid`]).

#[cfg(test)]
mod tests {
    use crate::grid::{wrap_periodic, Grid2D};
    use proptest::prelude::*;

    #[test]
    fn default_grid_dimensions() {
        let g = Grid2D::default_square();
        assert_eq!(g.nx(), 32);
        assert_eq!(g.ny(), 32);
        assert!((g.lx() - 2.0532).abs() < 1e-3);
        assert!((g.dx() * 32.0 - g.lx()).abs() < 1e-12);
        assert_eq!(g.nodes(), 1024);
    }

    #[test]
    fn mode_one_matches_paper_wavenumber() {
        let g = Grid2D::default_square();
        let k1 = 2.0 * std::f64::consts::PI / g.lx();
        assert!((k1 - crate::constants::PAPER_K1).abs() < 1e-12);
    }

    #[test]
    fn default_grid_is_square() {
        let g = Grid2D::default_square();
        assert_eq!(g.nx(), g.ny());
        assert!((g.lx() - g.ly()).abs() < 1e-15);
    }

    #[test]
    fn index_is_row_major_x_fastest() {
        let g = Grid2D::new(4, 3, 1.0, 1.0);
        assert_eq!(g.index(0, 0), 0);
        assert_eq!(g.index(3, 0), 3);
        assert_eq!(g.index(0, 1), 4);
        assert_eq!(g.index(3, 2), 11);
    }

    #[test]
    fn wrap_indices_handle_negatives() {
        let g = Grid2D::new(8, 4, 1.0, 1.0);
        assert_eq!(g.wrap_ix(-1), 7);
        assert_eq!(g.wrap_ix(8), 0);
        assert_eq!(g.wrap_iy(-1), 3);
        assert_eq!(g.wrap_iy(9), 1);
    }

    #[test]
    fn mode_wavenumbers_match_box() {
        let g = Grid2D::default_square();
        assert!((g.mode_wavenumber(1) - 3.06).abs() < 1e-12);
        assert!((g.mode_wavenumber_y(2) - 6.12).abs() < 1e-12);
    }

    #[test]
    fn cell_area_times_count_is_box_area() {
        let g = Grid2D::new(16, 8, 2.0, 1.0);
        assert!((g.cell_volume() * g.nodes() as f64 - g.volume()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one cell")]
    fn zero_cells_rejected() {
        let _ = Grid2D::new(0, 4, 1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "invalid box length")]
    fn negative_length_rejected() {
        let _ = Grid2D::new(4, 4, -1.0, 1.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn wrap_positions_land_in_box(x in -50.0f64..50.0, y in -50.0f64..50.0) {
            let g = Grid2D::new(8, 8, 2.0532, 1.7);
            prop_assert!((0.0..g.lx()).contains(&g.wrap_x(x)));
            prop_assert!((0.0..g.ly()).contains(&wrap_periodic(y, g.ly())));
        }

        #[test]
        fn wrap_is_periodic(x in 0.0f64..2.0, shift in -4i32..4) {
            let g = Grid2D::new(8, 8, 2.0, 2.0);
            let w = g.wrap_x(x + shift as f64 * g.lx());
            let diff = (w - x).abs();
            prop_assert!(diff < 1e-9 || (g.lx() - diff) < 1e-9);
        }
    }
}
