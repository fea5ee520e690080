//! Minimal double-precision complex arithmetic.
//!
//! The reproduction deliberately avoids external numerics crates; the few
//! complex operations required by the FFT and by the dispersion-relation
//! solver are implemented here. The API mirrors the subset of `num_complex`
//! that is actually used so that a future swap would be mechanical.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` components.
#[derive(Clone, Copy, PartialEq, Default)]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex64 {
    /// Imaginary unit.
    #[cfg(test)]
    const I: Self = Self { re: 0.0, im: 1.0 };
    /// Additive identity.
    pub const ZERO: Self = Self { re: 0.0, im: 0.0 };
    /// Multiplicative identity.
    pub const ONE: Self = Self { re: 1.0, im: 0.0 };

    /// Builds a complex number from Cartesian components.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// Builds a purely real complex number.
    #[inline]
    pub const fn from_real(re: f64) -> Self {
        Self { re, im: 0.0 }
    }

    /// Builds `r * exp(i * theta)`.
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        Self::new(r * theta.cos(), r * theta.sin())
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Self::new(self.re, -self.im)
    }

    /// Squared magnitude `re² + im²`.
    #[inline]
    pub(crate) fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude (uses `hypot` for numerical robustness).
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Argument in `(-π, π]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Complex exponential `exp(z)`.
    #[inline]
    pub fn exp(self) -> Self {
        Self::from_polar(self.re.exp(), self.im)
    }

    /// Principal square root.
    pub fn sqrt(self) -> Self {
        if self.re == 0.0 && self.im == 0.0 {
            return Self::ZERO;
        }
        let r = self.abs();
        // Stable half-angle formulation.
        let re = ((r + self.re) / 2.0).sqrt();
        let im = ((r - self.re) / 2.0).sqrt().copysign(self.im);
        Self::new(re, im)
    }

    /// Multiplicative inverse. Returns NaN components for zero input, like
    /// `1.0 / 0.0` does for floats.
    #[inline]
    pub fn inv(self) -> Self {
        let d = self.norm_sqr();
        Self::new(self.re / d, -self.im / d)
    }

    /// Integer power by repeated squaring.
    pub fn powi(self, mut n: i32) -> Self {
        if n < 0 {
            return self.powi(-n).inv();
        }
        let mut base = self;
        let mut acc = Self::ONE;
        while n > 0 {
            if n & 1 == 1 {
                acc *= base;
            }
            base *= base;
            n >>= 1;
        }
        acc
    }

    /// True if either component is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        self.re.is_nan() || self.im.is_nan()
    }

    /// Scales by a real factor.
    #[inline]
    pub fn scale(self, s: f64) -> Self {
        Self::new(self.re * s, self.im * s)
    }
}

impl fmt::Debug for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}{:+}i)", self.re, self.im)
    }
}

impl fmt::Display for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}{:+.6}i", self.re, self.im)
    }
}

impl Add for Complex64 {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Complex64 {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex64 {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Self::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl SubAssign for Complex64 {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl Mul for Complex64 {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Self::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl MulAssign for Complex64 {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl Mul<f64> for Complex64 {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: f64) -> Self {
        self.scale(rhs)
    }
}

impl Div for Complex64 {
    type Output = Self;
    // Division *is* multiplication by the inverse here.
    #[allow(clippy::suspicious_arithmetic_impl)]
    #[inline]
    fn div(self, rhs: Self) -> Self {
        self * rhs.inv()
    }
}

impl Div<f64> for Complex64 {
    type Output = Self;
    #[inline]
    fn div(self, rhs: f64) -> Self {
        Self::new(self.re / rhs, self.im / rhs)
    }
}

impl Neg for Complex64 {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        Self::new(-self.re, -self.im)
    }
}

impl From<f64> for Complex64 {
    #[inline]
    fn from(re: f64) -> Self {
        Self::from_real(re)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    fn close(a: Complex64, b: Complex64) -> bool {
        (a - b).abs() < EPS
    }

    #[test]
    fn arithmetic_identities() {
        let z = Complex64::new(3.0, -4.0);
        assert!(close(z + Complex64::ZERO, z));
        assert!(close(z * Complex64::ONE, z));
        assert!(close(z - z, Complex64::ZERO));
        assert!(close(z * z.inv(), Complex64::ONE));
        assert!(close(-(-z), z));
    }

    #[test]
    fn i_squared_is_minus_one() {
        assert!(close(
            Complex64::I * Complex64::I,
            Complex64::from_real(-1.0)
        ));
    }

    #[test]
    fn abs_and_norm() {
        let z = Complex64::new(3.0, 4.0);
        assert!((z.abs() - 5.0).abs() < EPS);
        assert!((z.norm_sqr() - 25.0).abs() < EPS);
    }

    #[test]
    fn conjugate_multiplication_gives_norm() {
        let z = Complex64::new(1.5, -2.5);
        let p = z * z.conj();
        assert!((p.re - z.norm_sqr()).abs() < EPS);
        assert!(p.im.abs() < EPS);
    }

    #[test]
    fn polar_round_trip() {
        let z = Complex64::from_polar(2.0, 0.7);
        assert!((z.abs() - 2.0).abs() < EPS);
        assert!((z.arg() - 0.7).abs() < EPS);
    }

    #[test]
    fn exp_of_i_pi_is_minus_one() {
        let z = (Complex64::I * std::f64::consts::PI).exp();
        assert!((z.re + 1.0).abs() < EPS);
        assert!(z.im.abs() < 1e-12);
    }

    #[test]
    fn sqrt_squares_back() {
        for &(re, im) in &[
            (4.0, 0.0),
            (-4.0, 0.0),
            (1.0, 1.0),
            (-3.0, -4.0),
            (0.0, 2.0),
        ] {
            let z = Complex64::new(re, im);
            let r = z.sqrt();
            assert!(close(r * r, z), "sqrt({z:?})^2 = {:?}", r * r);
            // Principal branch: non-negative real part.
            assert!(r.re >= -EPS);
        }
    }

    #[test]
    fn powi_matches_repeated_multiplication() {
        let z = Complex64::new(0.9, 0.4);
        let mut acc = Complex64::ONE;
        for n in 0..8 {
            assert!(close(z.powi(n), acc));
            acc *= z;
        }
        // Negative powers.
        assert!(close(z.powi(-2), (z * z).inv()));
    }

    #[test]
    fn division_matches_multiplication_by_inverse() {
        let a = Complex64::new(1.0, 2.0);
        let b = Complex64::new(-0.5, 0.25);
        assert!(close(a / b, a * b.inv()));
        assert!(close((a / b) * b, a));
    }
}
