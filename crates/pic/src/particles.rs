//! Particle storage, one type for every dimension.
//!
//! Structure-of-arrays layout (one vector per position and velocity
//! component), per the HPC-parallel guide: the mover, gather and deposit
//! loops each touch only the components they need, which keeps them
//! vectorizable and cache-friendly.
//!
//! All particles of a [`Particles`] buffer belong to one species with a
//! single macro-particle charge and mass — the paper simulates electrons
//! only, with protons as a fixed neutralizing background (§III).

/// A species of macro-particles in `D`D-`D`V phase space.
#[derive(Debug, Clone, PartialEq)]
pub struct Particles<const D: usize = 1> {
    /// Positions, one vector per axis, each in `[0, L_k)`.
    pub pos: [Vec<f64>; D],
    /// Velocities, one vector per axis (at half-integer time levels once
    /// leap-frog is running).
    pub vel: [Vec<f64>; D],
    charge: f64,
    mass: f64,
}

/// The 2D-2V species of the §VII extension.
pub type Particles2D = Particles<2>;

impl<const D: usize> Particles<D> {
    /// Creates a buffer from positions, velocities and per-macro-particle
    /// charge and mass.
    ///
    /// # Panics
    /// Panics if component lengths mismatch or mass is not positive.
    pub fn new(pos: [Vec<f64>; D], vel: [Vec<f64>; D], charge: f64, mass: f64) -> Self {
        let n = pos[0].len();
        assert!(
            pos.iter().chain(&vel).all(|c| c.len() == n),
            "position/velocity length mismatch"
        );
        assert!(mass > 0.0, "mass must be positive");
        Self {
            pos,
            vel,
            charge,
            mass,
        }
    }

    /// Electron macro-particles normalized so that the species produces
    /// `ω_p = 1` in a box of volume `volume` (its length in 1-D, area in
    /// 2-D): `q = −V/N`, `m = V/N` (thus `q/m = −1` and mean density
    /// `n·|q| = 1`).
    pub fn electrons_normalized(pos: [Vec<f64>; D], vel: [Vec<f64>; D], volume: f64) -> Self {
        let n = pos[0].len();
        assert!(n > 0, "need at least one particle");
        let w = volume / n as f64;
        Self::new(pos, vel, -w, w)
    }

    /// Number of macro-particles.
    #[inline]
    pub fn len(&self) -> usize {
        self.pos[0].len()
    }

    /// True when the buffer holds no particles.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Macro-particle charge (negative for electrons).
    #[inline]
    pub fn charge(&self) -> f64 {
        self.charge
    }

    /// Macro-particle mass.
    #[inline]
    pub fn mass(&self) -> f64 {
        self.mass
    }

    /// Charge-to-mass ratio (−1 for the normalized electrons).
    #[inline]
    pub fn charge_over_mass(&self) -> f64 {
        self.charge / self.mass
    }

    /// Total charge carried by the species.
    #[cfg(test)]
    pub(crate) fn total_charge(&self) -> f64 {
        self.charge * self.len() as f64
    }

    /// Total momentum `m·Σv`, per axis.
    pub fn total_momentum(&self) -> [f64; D] {
        std::array::from_fn(|k| self.mass * self.vel[k].iter().sum::<f64>())
    }

    /// Kinetic energy `½·m·Σ|v|²` (instantaneous; the time-centred
    /// estimate used in conservation plots lives in the mover). Each
    /// particle's `|v|²` adds its components in axis order.
    pub fn kinetic_energy(&self) -> f64 {
        let sum: f64 = (0..self.len())
            .map(|i| {
                let mut v2 = self.vel[0][i] * self.vel[0][i];
                for v in &self.vel[1..] {
                    v2 += v[i] * v[i];
                }
                v2
            })
            .sum();
        0.5 * self.mass * sum
    }

    /// Every component, positions first, then velocities, axis by axis
    /// (the checkpoint column order).
    pub(crate) fn components(&self) -> impl Iterator<Item = &[f64]> {
        self.pos.iter().chain(&self.vel).map(Vec::as_slice)
    }

    /// [`Particles::components`], writable.
    pub(crate) fn components_mut(&mut self) -> Vec<&mut [f64]> {
        self.pos
            .iter_mut()
            .chain(&mut self.vel)
            .map(Vec::as_mut_slice)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalized_electrons_have_unit_plasma_frequency() {
        let n = 1000;
        let l = 2.0532;
        let p = Particles::electrons_normalized([vec![0.0; n]], [vec![0.0; n]], l);
        // ω_p² = (N/L)·q²/m·(1/ε₀) with ε₀ = 1.
        let density = n as f64 / l;
        let omega_p_sq = density * p.charge() * p.charge() / p.mass();
        assert!((omega_p_sq - 1.0).abs() < 1e-12);
        assert!((p.charge_over_mass() + 1.0).abs() < 1e-12);
        // Mean charge density −1 (neutralized by the +1 ion background).
        assert!((p.total_charge() / l + 1.0).abs() < 1e-12);
    }

    #[test]
    fn diagnostics_on_simple_data() {
        let p = Particles::new([vec![0.0, 1.0]], [vec![2.0, -1.0]], -0.5, 0.5);
        assert_eq!(p.len(), 2);
        assert!((p.total_momentum()[0] - 0.5).abs() < 1e-15);
        assert!((p.kinetic_energy() - 0.25 * 5.0).abs() < 1e-15);
        assert!((p.total_charge() + 1.0).abs() < 1e-15);
    }

    #[test]
    fn two_beam_energy_matches_half_l_v0_squared() {
        // The paper's Fig. 5/6 energy scales: KE = ½·L·v0².
        let n = 10_000;
        let l = 2.0 * std::f64::consts::PI / 3.06;
        let v0 = 0.2;
        let v: Vec<f64> = (0..n).map(|i| if i % 2 == 0 { v0 } else { -v0 }).collect();
        let p = Particles::electrons_normalized([vec![0.0; n]], [v], l);
        assert!((p.kinetic_energy() - 0.5 * l * v0 * v0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_rejected() {
        let _ = Particles::new([vec![0.0]], [vec![]], 1.0, 1.0);
    }
}
