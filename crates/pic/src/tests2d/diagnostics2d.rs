//! 2-D unit tests of the instantaneous report ([`crate::diagnostics`])
//! and of the `(mx, my)` mode amplitude of `Grid2D`'s `Geometry` impl.

#[cfg(test)]
mod tests {
    use crate::diagnostics::instantaneous_report;
    use crate::geometry::Geometry;
    use crate::grid::Grid2D;
    use crate::particles::Particles2D;

    #[test]
    fn report_totals_add_up() {
        let grid = Grid2D::new(8, 8, 2.0, 2.0);
        let p = Particles2D::new(
            [vec![0.0, 1.0], vec![0.0, 1.0]],
            [vec![1.0, -1.0], vec![0.5, 0.5]],
            -1.0,
            2.0,
        );
        let ex = vec![0.5; grid.nodes()];
        let ey = vec![0.0; grid.nodes()];
        let r = instantaneous_report(&p, &grid, &[ex, ey].concat());
        // KE = ½·2·(1+0.25 + 1+0.25) = 2.5
        assert!((r.kinetic - 2.5).abs() < 1e-12);
        assert!((r.field - 0.5 * 0.25 * grid.volume()).abs() < 1e-12);
        assert!((r.total() - r.kinetic - r.field).abs() < 1e-15);
        assert!(r.momentum.abs() < 1e-15);
        assert!((r.momentum_y.unwrap() - 2.0).abs() < 1e-15);
    }

    #[test]
    fn mode_amplitude_extracts_planted_wave() {
        let grid = Grid2D::new(32, 16, 2.0, 1.0);
        let kx = grid.mode_wavenumber(1);
        let mut ex = grid.zeros();
        for iy in 0..grid.ny() {
            for ix in 0..grid.nx() {
                ex[grid.index(ix, iy)] = 0.04 * (kx * ix as f64 * grid.dx()).sin();
            }
        }
        assert!((grid.mode_amplitude(&ex, (1, 0)) - 0.04).abs() < 1e-12);
        assert!(grid.mode_amplitude(&ex, (0, 1)) < 1e-12);
        assert!(grid.mode_amplitude(&ex, (2, 0)) < 1e-12);
    }
}
