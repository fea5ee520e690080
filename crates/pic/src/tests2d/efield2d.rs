//! 2-D unit tests of `E = −∇Φ` and the field energy ([`crate::efield`]),
//! on the stacked field `[Ex | Ey]`.

#[cfg(test)]
mod tests {
    use crate::efield::{efield_from_phi, field_energy};
    use crate::grid::Grid2D;

    #[test]
    fn gradient_of_separable_cosine_potential() {
        let grid = Grid2D::new(32, 32, 2.0, 2.0);
        let kx = grid.mode_wavenumber(1);
        let ky = grid.mode_wavenumber_y(2);
        let mut phi = grid.zeros();
        for iy in 0..grid.ny() {
            for ix in 0..grid.nx() {
                let (x, y) = (ix as f64 * grid.dx(), iy as f64 * grid.dy());
                phi[grid.index(ix, iy)] = (kx * x).cos() * (ky * y).cos();
            }
        }
        let mut e = vec![0.0; 2 * grid.nodes()];
        efield_from_phi(&grid, &phi, &mut e);
        let (ex, ey) = e.split_at(grid.nodes());
        // Central differences attenuate each axis by sin(k·h)/(k·h).
        let ax = (kx * grid.dx()).sin() / (kx * grid.dx());
        let ay = (ky * grid.dy()).sin() / (ky * grid.dy());
        for iy in 0..grid.ny() {
            for ix in 0..grid.nx() {
                let (x, y) = (ix as f64 * grid.dx(), iy as f64 * grid.dy());
                let expect_x = kx * (kx * x).sin() * (ky * y).cos() * ax;
                let expect_y = ky * (kx * x).cos() * (ky * y).sin() * ay;
                let i = grid.index(ix, iy);
                assert!((ex[i] - expect_x).abs() < 1e-10, "Ex at ({ix},{iy})");
                assert!((ey[i] - expect_y).abs() < 1e-10, "Ey at ({ix},{iy})");
            }
        }
    }

    #[test]
    fn constant_potential_gives_zero_field() {
        let grid = Grid2D::new(8, 8, 1.0, 1.0);
        let phi = vec![2.5; grid.nodes()];
        let mut e = vec![1.0; 2 * grid.nodes()];
        efield_from_phi(&grid, &phi, &mut e);
        let (ex, ey) = e.split_at(grid.nodes());
        assert!(ex.iter().all(|v| v.abs() < 1e-14));
        assert!(ey.iter().all(|v| v.abs() < 1e-14));
    }

    #[test]
    fn y_independent_potential_has_no_ey() {
        let grid = Grid2D::new(16, 8, 2.0, 1.0);
        let mut phi = grid.zeros();
        for iy in 0..grid.ny() {
            for ix in 0..grid.nx() {
                phi[grid.index(ix, iy)] = (grid.mode_wavenumber(1) * ix as f64 * grid.dx()).sin();
            }
        }
        let mut e = vec![0.0; 2 * grid.nodes()];
        efield_from_phi(&grid, &phi, &mut e);
        let (ex, ey) = e.split_at(grid.nodes());
        assert!(ey.iter().all(|v| v.abs() < 1e-14));
        assert!(ex.iter().any(|v| v.abs() > 1e-3));
    }

    #[test]
    fn field_energy_of_uniform_field() {
        let grid = Grid2D::new(8, 8, 2.0, 2.0);
        let ex = vec![0.5; grid.nodes()];
        let ey = vec![0.0; grid.nodes()];
        // ½ · 0.25 · area = 0.125 · 4.0
        assert!((field_energy(&grid, &[ex.as_slice(), &ey].concat()) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn field_energy_is_component_symmetric() {
        let grid = Grid2D::new(8, 8, 2.0, 2.0);
        let a = vec![0.3; grid.nodes()];
        let b = vec![0.0; grid.nodes()];
        assert!(
            (field_energy(&grid, &[a.as_slice(), &b].concat())
                - field_energy(&grid, &[b.as_slice(), &a].concat()))
            .abs()
                < 1e-15
        );
    }
}
