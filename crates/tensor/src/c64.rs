//! Double-precision complex numbers.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A double-precision complex number.
///
/// `C64` is `Copy` and deliberately minimal: it implements exactly the
/// operations the simulator and transpiler need, with no external
/// dependencies. The representation is public-by-method (`re`/`im` fields are
/// public because the type is a passive data carrier in the C spirit).
///
/// # Examples
///
/// ```
/// use qns_tensor::C64;
///
/// let i = C64::I;
/// assert_eq!(i * i, -C64::ONE);
/// assert!((C64::new(3.0, 4.0).abs() - 5.0).abs() < 1e-12);
/// ```
#[derive(Clone, Copy, PartialEq, Default)]
pub struct C64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl C64 {
    /// The additive identity `0 + 0i`.
    pub const ZERO: C64 = C64 { re: 0.0, im: 0.0 };
    /// The multiplicative identity `1 + 0i`.
    pub const ONE: C64 = C64 { re: 1.0, im: 0.0 };
    /// The imaginary unit `0 + 1i`.
    pub const I: C64 = C64 { re: 0.0, im: 1.0 };

    /// Creates a complex number from real and imaginary parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        C64 { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn real(re: f64) -> Self {
        C64 { re, im: 0.0 }
    }

    /// Creates `exp(i * theta)` on the unit circle.
    ///
    /// # Examples
    ///
    /// ```
    /// use qns_tensor::C64;
    /// let z = C64::cis(std::f64::consts::PI);
    /// assert!((z.re + 1.0).abs() < 1e-12 && z.im.abs() < 1e-12);
    /// ```
    #[inline]
    pub fn cis(theta: f64) -> Self {
        C64 {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        C64 {
            re: self.re,
            im: -self.im,
        }
    }

    /// Squared modulus `|z|^2`, cheaper than [`C64::abs`].
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Modulus `|z|`.
    #[inline]
    pub fn abs(self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Principal argument in `(-pi, pi]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplies by a real scalar.
    #[inline]
    pub fn scale(self, s: f64) -> Self {
        C64 {
            re: self.re * s,
            im: self.im * s,
        }
    }

    /// Complex exponential `e^z`.
    #[inline]
    pub fn exp(self) -> Self {
        let r = self.re.exp();
        C64 {
            re: r * self.im.cos(),
            im: r * self.im.sin(),
        }
    }

    /// Multiplicative inverse `1/z`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `z` is zero.
    #[inline]
    pub fn recip(self) -> Self {
        let d = self.norm_sqr();
        debug_assert!(d > 0.0, "attempted to invert zero");
        C64 {
            re: self.re / d,
            im: -self.im / d,
        }
    }

    /// Returns `true` if both parts are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }

    /// Returns `true` if `self` is within `tol` of `other` (per component).
    #[inline]
    pub fn approx_eq(self, other: C64, tol: f64) -> bool {
        (self.re - other.re).abs() < tol && (self.im - other.im).abs() < tol
    }
}

impl fmt::Debug for C64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self)
    }
}

impl fmt::Display for C64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{:.6}+{:.6}i", self.re, self.im)
        } else {
            write!(f, "{:.6}-{:.6}i", self.re, -self.im)
        }
    }
}

impl From<f64> for C64 {
    fn from(re: f64) -> Self {
        C64::real(re)
    }
}

impl Add for C64 {
    type Output = C64;
    #[inline]
    fn add(self, rhs: C64) -> C64 {
        C64::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for C64 {
    #[inline]
    fn add_assign(&mut self, rhs: C64) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for C64 {
    type Output = C64;
    #[inline]
    fn sub(self, rhs: C64) -> C64 {
        C64::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl SubAssign for C64 {
    #[inline]
    fn sub_assign(&mut self, rhs: C64) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl Mul for C64 {
    type Output = C64;
    #[inline]
    fn mul(self, rhs: C64) -> C64 {
        C64::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl MulAssign for C64 {
    #[inline]
    fn mul_assign(&mut self, rhs: C64) {
        *self = *self * rhs;
    }
}

impl Mul<f64> for C64 {
    type Output = C64;
    #[inline]
    fn mul(self, rhs: f64) -> C64 {
        self.scale(rhs)
    }
}

impl Mul<C64> for f64 {
    type Output = C64;
    #[inline]
    fn mul(self, rhs: C64) -> C64 {
        rhs.scale(self)
    }
}

impl Div for C64 {
    type Output = C64;
    #[inline]
    #[allow(
        clippy::suspicious_arithmetic_impl,
        reason = "z/w = z * w^-1 by definition"
    )]
    fn div(self, rhs: C64) -> C64 {
        self * rhs.recip()
    }
}

impl DivAssign for C64 {
    #[inline]
    fn div_assign(&mut self, rhs: C64) {
        *self = *self / rhs;
    }
}

impl Div<f64> for C64 {
    type Output = C64;
    #[inline]
    fn div(self, rhs: f64) -> C64 {
        C64::new(self.re / rhs, self.im / rhs)
    }
}

impl Neg for C64 {
    type Output = C64;
    #[inline]
    fn neg(self) -> C64 {
        C64::new(-self.re, -self.im)
    }
}

impl Sum for C64 {
    fn sum<I: Iterator<Item = C64>>(iter: I) -> C64 {
        iter.fold(C64::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_identities() {
        let z = C64::new(2.0, -3.0);
        assert_eq!(z + C64::ZERO, z);
        assert_eq!(z * C64::ONE, z);
        assert_eq!(z - z, C64::ZERO);
        assert!((z * z.recip()).approx_eq(C64::ONE, 1e-12));
    }

    #[test]
    fn i_squared_is_minus_one() {
        assert_eq!(C64::I * C64::I, -C64::ONE);
    }

    #[test]
    fn cis_matches_exp() {
        let t = 0.7;
        let a = C64::cis(t);
        let b = (C64::I * t).exp();
        assert!(a.approx_eq(b, 1e-12));
    }

    #[test]
    fn conj_and_abs() {
        let z = C64::new(3.0, 4.0);
        assert_eq!(z.conj(), C64::new(3.0, -4.0));
        assert!((z.abs() - 5.0).abs() < 1e-12);
        assert!((z.norm_sqr() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn arg_quadrants() {
        assert!((C64::new(1.0, 0.0).arg()).abs() < 1e-12);
        assert!((C64::new(0.0, 1.0).arg() - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
        assert!((C64::new(-1.0, 0.0).arg() - std::f64::consts::PI).abs() < 1e-12);
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(format!("{}", C64::new(1.0, -2.0)), "1.000000-2.000000i");
        assert_eq!(format!("{}", C64::new(1.0, 2.0)), "1.000000+2.000000i");
    }

    #[test]
    fn sum_of_iterator() {
        let total: C64 = (0..4).map(|k| C64::new(k as f64, 1.0)).sum();
        assert_eq!(total, C64::new(6.0, 4.0));
    }
}
