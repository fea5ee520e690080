//! Two-stream initialization in two dimensions: counter-streaming beams
//! along `x`, uniform in `y` — the configuration whose `(kx, 0)` modes
//! carry exactly the paper's 1-D physics, making the 1-D linear theory the
//! validation reference for the 2-D extension.

use crate::grid::Grid2D;
use crate::init::{gaussian, Loading};
use crate::particles::Particles2D;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builder for two counter-streaming electron beams in a 2-D box.
#[derive(Debug, Clone)]
pub struct TwoStream2DInit {
    /// Beam drift speed along `x`; beams move at `+v0` and `−v0`.
    pub v0: f64,
    /// Thermal spread added to each velocity component.
    pub vth: f64,
    /// Total number of macro-electrons (split evenly between beams).
    pub n_particles: usize,
    /// Loading strategy; a quiet start is displaced along `x` and its
    /// amplitude is a fraction of `lx`.
    pub loading: Loading,
    /// RNG seed.
    pub seed: u64,
}

impl TwoStream2DInit {
    /// Random loading.
    pub fn random(v0: f64, vth: f64, n_particles: usize, seed: u64) -> Self {
        Self {
            v0,
            vth,
            n_particles,
            loading: Loading::Random,
            seed,
        }
    }

    /// Quiet start with a seeded mode-1 perturbation along `x`.
    pub fn quiet(v0: f64, vth: f64, n_particles: usize, amplitude: f64, seed: u64) -> Self {
        Self {
            v0,
            vth,
            n_particles,
            loading: Loading::Quiet { mode: 1, amplitude },
            seed,
        }
    }

    /// Builds the particle buffer on the given grid.
    ///
    /// # Panics
    /// Panics if `n_particles` is zero or odd (the beams must balance so
    /// total momentum starts at zero).
    pub fn build(&self, grid: &Grid2D) -> Particles2D {
        assert!(self.n_particles > 0, "need particles");
        assert!(
            self.n_particles.is_multiple_of(2),
            "particle count must be even to balance the two beams"
        );
        let n = self.n_particles;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut x = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        let mut vx = Vec::with_capacity(n);
        let mut vy = Vec::with_capacity(n);

        match self.loading {
            Loading::Random => {
                for i in 0..n {
                    x.push(rng.gen::<f64>() * grid.lx());
                    y.push(rng.gen::<f64>() * grid.ly());
                    let beam = if i % 2 == 0 { self.v0 } else { -self.v0 };
                    vx.push(beam + self.vth * gaussian(&mut rng));
                    vy.push(self.vth * gaussian(&mut rng));
                }
            }
            Loading::Quiet { mode, amplitude } => {
                let per_beam = n / 2;
                // Lattice as close to square as divides per_beam evenly.
                let (cols, rows) = lattice_dims(per_beam);
                let k = grid.mode_wavenumber(mode.max(1));
                for b in 0..2 {
                    let sign = if b == 0 { 1.0 } else { -1.0 };
                    for i in 0..per_beam {
                        let (ci, ri) = (i % cols, i / cols);
                        // Offset the second beam half a spacing in both
                        // axes to avoid perfect cancellation artifacts.
                        let x0 = (ci as f64 + 0.25 + 0.5 * b as f64) / cols as f64 * grid.lx();
                        let y0 = (ri as f64 + 0.25 + 0.5 * b as f64) / rows as f64 * grid.ly();
                        let xp = if mode > 0 && amplitude != 0.0 {
                            grid.wrap_x(x0 + amplitude * grid.lx() * (k * x0).sin())
                        } else {
                            x0
                        };
                        x.push(xp);
                        y.push(y0);
                        let (tx, ty) = if self.vth > 0.0 {
                            (self.vth * gaussian(&mut rng), self.vth * gaussian(&mut rng))
                        } else {
                            (0.0, 0.0)
                        };
                        vx.push(sign * self.v0 + tx);
                        vy.push(ty);
                    }
                }
            }
        }
        Particles2D::electrons_normalized([x, y], [vx, vy], grid.volume())
    }
}

/// Splits `n` into `cols × rows` as square as possible with
/// `cols·rows = n` when `n` has a divisor near √n, otherwise the best
/// divisor pair (always exact: rows = n / cols for the chosen divisor).
fn lattice_dims(n: usize) -> (usize, usize) {
    let mut cols = (n as f64).sqrt().floor() as usize;
    while cols > 1 && !n.is_multiple_of(cols) {
        cols -= 1;
    }
    let cols = cols.max(1);
    (n / cols, cols)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lattice_dims_are_exact_factorizations() {
        for n in [1usize, 4, 12, 100, 128, 1000, 1024] {
            let (c, r) = lattice_dims(n);
            assert_eq!(c * r, n, "n = {n}: {c}×{r}");
        }
    }

    #[test]
    fn beams_balance_momentum() {
        let grid = Grid2D::default_square();
        for loading in [
            Loading::Random,
            Loading::Quiet {
                mode: 1,
                amplitude: 1e-3,
            },
        ] {
            let init = TwoStream2DInit {
                v0: 0.2,
                vth: 0.0,
                n_particles: 4096,
                loading,
                seed: 7,
            };
            let p = init.build(&grid);
            let [px, py] = p.total_momentum();
            assert!(px.abs() < 1e-10, "{loading:?}: px = {px}");
            assert!(py.abs() < 1e-10, "{loading:?}: py = {py}");
        }
    }

    #[test]
    fn positions_live_in_box() {
        let grid = Grid2D::default_square();
        let p = TwoStream2DInit::random(0.2, 0.01, 2048, 3).build(&grid);
        assert!(p.pos[0].iter().all(|&x| (0.0..grid.lx()).contains(&x)));
        assert!(p.pos[1].iter().all(|&y| (0.0..grid.ly()).contains(&y)));
    }

    #[test]
    fn cold_quiet_start_has_exact_beam_speeds() {
        let grid = Grid2D::default_square();
        let p = TwoStream2DInit::quiet(0.3, 0.0, 1000, 0.0, 0).build(&grid);
        let fast = p.vel[0]
            .iter()
            .filter(|v| (**v - 0.3).abs() < 1e-14)
            .count();
        let slow = p.vel[0]
            .iter()
            .filter(|v| (**v + 0.3).abs() < 1e-14)
            .count();
        assert_eq!(fast, 500);
        assert_eq!(slow, 500);
        assert!(p.vel[1].iter().all(|v| v.abs() < 1e-14));
    }

    #[test]
    fn thermal_spread_has_roughly_right_width() {
        let grid = Grid2D::default_square();
        let vth = 0.05;
        let p = TwoStream2DInit::random(0.0, vth, 20_000, 11).build(&grid);
        let var_x: f64 = p.vel[0].iter().map(|v| v * v).sum::<f64>() / p.len() as f64;
        let var_y: f64 = p.vel[1].iter().map(|v| v * v).sum::<f64>() / p.len() as f64;
        assert!(
            (var_x.sqrt() - vth).abs() < 0.1 * vth,
            "σx = {}",
            var_x.sqrt()
        );
        assert!(
            (var_y.sqrt() - vth).abs() < 0.1 * vth,
            "σy = {}",
            var_y.sqrt()
        );
    }

    #[test]
    fn seeded_builds_are_deterministic() {
        let grid = Grid2D::default_square();
        let a = TwoStream2DInit::random(0.2, 0.01, 512, 42).build(&grid);
        let b = TwoStream2DInit::random(0.2, 0.01, 512, 42).build(&grid);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_counts_rejected() {
        let grid = Grid2D::default_square();
        let _ = TwoStream2DInit::random(0.2, 0.0, 1001, 0).build(&grid);
    }
}
