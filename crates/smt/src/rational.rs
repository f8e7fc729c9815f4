//! Exact rational numbers and delta-rationals.
//!
//! [`Rational`] is a normalized fraction — the coefficient domain for linear
//! terms and the simplex tableau. [`DeltaRational`] extends it with an
//! infinitesimal `δ` component so strict bounds (`x < c`) can be
//! represented exactly as `x ≤ c − δ`, the standard trick from the
//! Dutertre–de Moura general simplex.
//!
//! # Representation
//!
//! Every value has exactly one form. A reduced fraction whose numerator
//! and denominator both fit an `i64` is stored inline, with no heap
//! allocation; its numerator is never `i64::MIN`, so negation and the
//! reciprocal cannot overflow. Arithmetic on two inline operands runs in
//! `i128` intermediates with a binary gcd. Any other value is a boxed pair
//! of [`BigInt`]s, and an operation with a boxed operand falls back to
//! `BigInt` arithmetic. Every operation reduces its result and demotes it
//! to the inline form whenever it fits, so the derived `Eq` and `Hash` are
//! value equality.
//!
//! # Examples
//!
//! ```
//! use sta_smt::rational::Rational;
//!
//! let a = Rational::new(1, 3);
//! let b = Rational::new(1, 6);
//! assert_eq!(&a + &b, Rational::new(1, 2));
//! assert_eq!(Rational::from_decimal_str("16.90").unwrap(), Rational::new(169, 10));
//! ```

use crate::bigint::BigInt;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// An exact rational number `num / den`.
///
/// Invariants: `den > 0`, `gcd(|num|, den) = 1`, zero is `0/1`, and the
/// value is boxed only when it does not fit the inline form.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Rational(Repr);

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Repr {
    /// The inline form; `num != i64::MIN`.
    Small { num: i64, den: i64 },
    /// The overflow fallback: `(num, den)` for values the inline form
    /// cannot hold.
    Big(Box<(BigInt, BigInt)>),
}

/// Error returned by [`Rational::from_decimal_str`] for malformed input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRationalError {
    input: String,
}

impl fmt::Display for ParseRationalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid decimal literal: {:?}", self.input)
    }
}

impl std::error::Error for ParseRationalError {}

/// Binary (Stein) gcd of two magnitudes; `gcd(0, b) = b`.
fn gcd(mut a: u64, mut b: u64) -> u64 {
    if a <= 1 || b <= 1 {
        return if a == 0 || b == 0 { a | b } else { 1 };
    }
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            return a << shift;
        }
    }
}

/// `a/b + c/d` on inline operands. With `g = gcd(b, d)` the sum is
/// `t / (b/g · d)` where `t = a·(d/g) + c·(b/g)`, and only `gcd(t, g)` can
/// cancel (Knuth, TAOCP §4.5.1). `|t| < 2¹²⁷`, so `i128` cannot overflow.
fn add_small(a: i64, b: i64, c: i64, d: i64) -> Rational {
    if c == 0 {
        return Rational(Repr::Small { num: a, den: b });
    }
    if a == 0 {
        return Rational(Repr::Small { num: c, den: d });
    }
    let g1 = gcd(b as u64, d as u64) as i64;
    let (b1, d1) = if g1 == 1 { (b, d) } else { (b / g1, d / g1) };
    let t = i128::from(a) * i128::from(d1) + i128::from(c) * i128::from(b1);
    if t == 0 {
        return Rational::zero();
    }
    if g1 == 1 {
        return Rational::from_reduced(t, i128::from(b) * i128::from(d));
    }
    let g2 = gcd((t.unsigned_abs() % g1 as u128) as u64, g1 as u64) as i64;
    let num = if g2 == 1 { t } else { t / i128::from(g2) };
    Rational::from_reduced(num, i128::from(b1) * i128::from(d / g2))
}

/// `a/b · c/d` on inline operands, cancelling across before multiplying so
/// the product is already reduced.
fn mul_small(a: i64, b: i64, c: i64, d: i64) -> Rational {
    if a == 0 || c == 0 {
        return Rational::zero();
    }
    let g1 = gcd(a.unsigned_abs(), d as u64) as i64;
    let g2 = gcd(c.unsigned_abs(), b as u64) as i64;
    Rational::from_reduced(
        i128::from(a / g1) * i128::from(c / g2),
        i128::from(b / g2) * i128::from(d / g1),
    )
}

impl Rational {
    /// Creates `num / den` from machine integers, normalizing the result.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    pub fn new(num: i64, den: i64) -> Self {
        assert!(den != 0, "rational with zero denominator");
        let g = i128::from(gcd(num.unsigned_abs(), den.unsigned_abs()));
        let (num, den) = (i128::from(num) / g, i128::from(den) / g);
        if den < 0 {
            Self::from_reduced(-num, -den)
        } else {
            Self::from_reduced(num, den)
        }
    }

    /// Creates `num / den` from big integers, normalizing the result.
    ///
    /// # Panics
    ///
    /// Panics if `den` is zero.
    pub fn from_bigints(num: BigInt, den: BigInt) -> Self {
        assert!(!den.is_zero(), "rational with zero denominator");
        let (num, den) = if den.is_negative() { (-num, -den) } else { (num, den) };
        if num.is_zero() {
            return Rational::zero();
        }
        let g = num.gcd(&den);
        if g.is_one() {
            Self::from_reduced_bigints(num, den)
        } else {
            Self::from_reduced_bigints(&num / &g, &den / &g)
        }
    }

    /// The canonical form of a reduced `num / den` with `den > 0`.
    fn from_reduced(num: i128, den: i128) -> Self {
        match (i64::try_from(num), i64::try_from(den)) {
            (Ok(num), Ok(den)) if num != i64::MIN => Rational(Repr::Small { num, den }),
            _ => Rational(Repr::Big(Box::new((BigInt::from(num), BigInt::from(den))))),
        }
    }

    /// The canonical form of a reduced `num / den` with `den > 0`: demoted
    /// to the inline form whenever it fits.
    fn from_reduced_bigints(num: BigInt, den: BigInt) -> Self {
        match (num.to_i64(), den.to_i64()) {
            (Some(n), Some(d)) if n != i64::MIN => Rational(Repr::Small { num: n, den: d }),
            _ => Rational(Repr::Big(Box::new((num, den)))),
        }
    }

    /// Numerator and denominator as big integers, borrowed when boxed.
    fn big_parts(&self) -> (Cow<'_, BigInt>, Cow<'_, BigInt>) {
        match &self.0 {
            Repr::Small { num, den } => {
                (Cow::Owned(BigInt::from(*num)), Cow::Owned(BigInt::from(*den)))
            }
            Repr::Big(p) => (Cow::Borrowed(&p.0), Cow::Borrowed(&p.1)),
        }
    }

    /// Returns zero.
    pub fn zero() -> Self {
        Rational(Repr::Small { num: 0, den: 1 })
    }

    /// Returns one.
    pub fn one() -> Self {
        Rational(Repr::Small { num: 1, den: 1 })
    }

    /// Numerator (sign-carrying).
    pub fn numer(&self) -> BigInt {
        self.big_parts().0.into_owned()
    }

    /// Denominator (always positive).
    pub fn denom(&self) -> BigInt {
        self.big_parts().1.into_owned()
    }

    /// Whether this rational is zero.
    pub fn is_zero(&self) -> bool {
        self.signum() == 0
    }

    /// Whether this rational is strictly positive.
    pub fn is_positive(&self) -> bool {
        self.signum() > 0
    }

    /// Whether this rational is strictly negative.
    pub fn is_negative(&self) -> bool {
        self.signum() < 0
    }

    /// Sign as `-1`, `0` or `1`.
    pub fn signum(&self) -> i32 {
        match &self.0 {
            Repr::Small { num, .. } => num.signum() as i32,
            Repr::Big(p) => p.0.signum(),
        }
    }

    /// Absolute value.
    pub fn abs(&self) -> Self {
        match &self.0 {
            Repr::Small { num, den } => Rational(Repr::Small { num: num.abs(), den: *den }),
            Repr::Big(p) => Self::from_reduced_bigints(p.0.abs(), p.1.clone()),
        }
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if this rational is zero.
    pub fn recip(&self) -> Self {
        assert!(!self.is_zero(), "reciprocal of zero");
        match &self.0 {
            Repr::Small { num, den } if *num < 0 => {
                Rational(Repr::Small { num: -den, den: -num })
            }
            Repr::Small { num, den } => Rational(Repr::Small { num: *den, den: *num }),
            Repr::Big(p) if p.0.is_negative() => Self::from_reduced_bigints(-&p.1, -&p.0),
            Repr::Big(p) => Self::from_reduced_bigints(p.1.clone(), p.0.clone()),
        }
    }

    /// Parses a decimal literal such as `"16.90"`, `"-0.25"` or `"3"` into an
    /// exact rational.
    ///
    /// # Errors
    ///
    /// Returns [`ParseRationalError`] when the input is not a plain decimal
    /// literal (scientific notation is not accepted).
    pub fn from_decimal_str(s: &str) -> Result<Self, ParseRationalError> {
        let err = || ParseRationalError { input: s.to_owned() };
        let (neg, body) = match s.strip_prefix('-') {
            Some(rest) => (true, rest),
            None => (false, s.strip_prefix('+').unwrap_or(s)),
        };
        if body.is_empty() {
            return Err(err());
        }
        let (int_part, frac_part) = match body.split_once('.') {
            Some((i, f)) => (i, f),
            None => (body, ""),
        };
        if int_part.is_empty() && frac_part.is_empty() {
            return Err(err());
        }
        let mut num = BigInt::zero();
        let ten = BigInt::from(10i64);
        for ch in int_part.chars().chain(frac_part.chars()) {
            let d = ch.to_digit(10).ok_or_else(err)?;
            num = &(&num * &ten) + &BigInt::from(d as i64);
        }
        let mut den = BigInt::one();
        for _ in 0..frac_part.len() {
            den = &den * &ten;
        }
        if neg {
            num = -num;
        }
        Ok(Self::from_bigints(num, den))
    }

    /// Converts an `f64` to the exact rational it represents.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not finite.
    pub fn from_f64(v: f64) -> Self {
        assert!(v.is_finite(), "cannot convert non-finite float to rational");
        if v == 0.0 {
            return Rational::zero();
        }
        let bits = v.to_bits();
        let sign = if bits >> 63 == 1 { -1i64 } else { 1 };
        let exponent = ((bits >> 52) & 0x7ff) as i64;
        let mantissa = if exponent == 0 {
            bits & 0xf_ffff_ffff_ffff
        } else {
            (bits & 0xf_ffff_ffff_ffff) | 0x10_0000_0000_0000
        };
        let exp2 = if exponent == 0 { -1074 } else { exponent - 1075 };
        let m = &BigInt::from(mantissa) * &BigInt::from(sign);
        let two = BigInt::from(2i64);
        let mut pow = BigInt::one();
        for _ in 0..exp2.unsigned_abs() {
            pow = &pow * &two;
        }
        if exp2 >= 0 {
            Self::from_bigints(&m * &pow, BigInt::one())
        } else {
            Self::from_bigints(m, pow)
        }
    }

    /// Lossy conversion to `f64` (reporting only; never used while solving).
    pub fn to_f64(&self) -> f64 {
        let p = match &self.0 {
            Repr::Small { num, den } => return *num as f64 / *den as f64,
            Repr::Big(p) => p,
        };
        let (num, den) = (&p.0, &p.1);
        // Scale so the division happens in a range f64 can represent.
        let nf = num.to_f64();
        let df = den.to_f64();
        if nf.is_finite() && df.is_finite() && df != 0.0 {
            nf / df
        } else {
            // Fall back to a quotient-based approximation for huge operands.
            let (q, r) = num.divmod(den);
            q.to_f64() + r.to_f64() / df
        }
    }
}

impl Default for Rational {
    fn default() -> Self {
        Rational::zero()
    }
}

impl From<i64> for Rational {
    fn from(v: i64) -> Self {
        Rational::from_reduced(i128::from(v), 1)
    }
}

impl From<BigInt> for Rational {
    fn from(v: BigInt) -> Self {
        Rational::from_reduced_bigints(v, BigInt::one())
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Self) -> Ordering {
        if let (Repr::Small { num: a, den: b }, Repr::Small { num: c, den: d }) =
            (&self.0, &other.0)
        {
            return if b == d {
                a.cmp(c)
            } else {
                (i128::from(*a) * i128::from(*d)).cmp(&(i128::from(*c) * i128::from(*b)))
            };
        }
        let ((a, b), (c, d)) = (self.big_parts(), other.big_parts());
        (&*a * &*d).cmp(&(&*c * &*b))
    }
}

impl Add for &Rational {
    type Output = Rational;
    fn add(self, other: &Rational) -> Rational {
        if let (Repr::Small { num: a, den: b }, Repr::Small { num: c, den: d }) =
            (&self.0, &other.0)
        {
            return add_small(*a, *b, *c, *d);
        }
        let ((a, b), (c, d)) = (self.big_parts(), other.big_parts());
        Rational::from_bigints(&(&*a * &*d) + &(&*c * &*b), &*b * &*d)
    }
}

impl Sub for &Rational {
    type Output = Rational;
    fn sub(self, other: &Rational) -> Rational {
        if let (Repr::Small { num: a, den: b }, Repr::Small { num: c, den: d }) =
            (&self.0, &other.0)
        {
            return add_small(*a, *b, -c, *d);
        }
        let ((a, b), (c, d)) = (self.big_parts(), other.big_parts());
        Rational::from_bigints(&(&*a * &*d) - &(&*c * &*b), &*b * &*d)
    }
}

impl Mul for &Rational {
    type Output = Rational;
    fn mul(self, other: &Rational) -> Rational {
        if let (Repr::Small { num: a, den: b }, Repr::Small { num: c, den: d }) =
            (&self.0, &other.0)
        {
            return mul_small(*a, *b, *c, *d);
        }
        let ((a, b), (c, d)) = (self.big_parts(), other.big_parts());
        Rational::from_bigints(&*a * &*c, &*b * &*d)
    }
}

impl Div for &Rational {
    type Output = Rational;
    fn div(self, other: &Rational) -> Rational {
        assert!(!other.is_zero(), "division by zero rational");
        if let (Repr::Small { num: a, den: b }, Repr::Small { num: c, den: d }) =
            (&self.0, &other.0)
        {
            // Multiply by the reciprocal `d/c`, its sign moved to the top.
            let (rn, rd) = if *c < 0 { (-d, -c) } else { (*d, *c) };
            return mul_small(*a, *b, rn, rd);
        }
        let ((a, b), (c, d)) = (self.big_parts(), other.big_parts());
        Rational::from_bigints(&*a * &*d, &*b * &*c)
    }
}

impl Neg for &Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        match &self.0 {
            Repr::Small { num, den } => Rational(Repr::Small { num: -num, den: *den }),
            Repr::Big(p) => Rational::from_reduced_bigints(-&p.0, p.1.clone()),
        }
    }
}

impl Neg for Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        match self.0 {
            Repr::Small { num, den } => Rational(Repr::Small { num: -num, den }),
            Repr::Big(p) => {
                let (num, den) = *p;
                Rational::from_reduced_bigints(-num, den)
            }
        }
    }
}

macro_rules! forward_owned_binop {
    ($trait:ident, $method:ident) => {
        impl $trait for Rational {
            type Output = Rational;
            fn $method(self, other: Rational) -> Rational {
                (&self).$method(&other)
            }
        }
    };
}
forward_owned_binop!(Add, add);
forward_owned_binop!(Sub, sub);
forward_owned_binop!(Mul, mul);
forward_owned_binop!(Div, div);

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Repr::Small { num, den: 1 } => write!(f, "{num}"),
            Repr::Small { num, den } => write!(f, "{num}/{den}"),
            Repr::Big(p) if p.1.is_one() => write!(f, "{}", p.0),
            Repr::Big(p) => write!(f, "{}/{}", p.0, p.1),
        }
    }
}

/// A rational extended with an infinitesimal: `value + delta·δ`.
///
/// Strict bounds become weak bounds over delta-rationals:
/// `x < c` ⇔ `x ≤ c − δ`. Comparison is lexicographic on
/// `(value, delta)`. The default is zero.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaRational {
    /// Standard (real) part.
    pub value: Rational,
    /// Coefficient of the infinitesimal δ.
    pub delta: Rational,
}

impl DeltaRational {
    /// A plain rational with no infinitesimal part.
    pub fn real(value: Rational) -> Self {
        DeltaRational { value, delta: Rational::zero() }
    }

    /// `value + delta·δ`.
    pub fn with_delta(value: Rational, delta: Rational) -> Self {
        DeltaRational { value, delta }
    }

    /// Zero.
    pub fn zero() -> Self {
        DeltaRational::real(Rational::zero())
    }

    /// Whether both components are zero.
    pub fn is_zero(&self) -> bool {
        self.value.is_zero() && self.delta.is_zero()
    }

    /// Scales both components by a rational factor.
    pub fn scale(&self, k: &Rational) -> Self {
        DeltaRational {
            value: &self.value * k,
            delta: &self.delta * k,
        }
    }

    /// Concretizes to a plain rational by substituting a small positive value
    /// for δ. `eps` must be small enough that all strict comparisons in the
    /// current model remain strict; the caller computes a safe value.
    pub fn concretize(&self, eps: &Rational) -> Rational {
        &self.value + &(&self.delta * eps)
    }
}

impl PartialOrd for DeltaRational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for DeltaRational {
    fn cmp(&self, other: &Self) -> Ordering {
        self.value
            .cmp(&other.value)
            .then_with(|| self.delta.cmp(&other.delta))
    }
}

impl Add for &DeltaRational {
    type Output = DeltaRational;
    fn add(self, other: &DeltaRational) -> DeltaRational {
        DeltaRational {
            value: &self.value + &other.value,
            delta: &self.delta + &other.delta,
        }
    }
}

impl Sub for &DeltaRational {
    type Output = DeltaRational;
    fn sub(self, other: &DeltaRational) -> DeltaRational {
        DeltaRational {
            value: &self.value - &other.value,
            delta: &self.delta - &other.delta,
        }
    }
}

impl Neg for &DeltaRational {
    type Output = DeltaRational;
    fn neg(self) -> DeltaRational {
        DeltaRational { value: -&self.value, delta: -&self.delta }
    }
}

impl fmt::Display for DeltaRational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.delta.is_zero() {
            write!(f, "{}", self.value)
        } else {
            write!(f, "{} + {}δ", self.value, self.delta)
        }
    }
}

/// `Rational` is the exact coefficient field of the revised simplex's
/// sparse LU kernels in `sta-linalg`.
impl sta_linalg::Scalar for Rational {
    fn one() -> Self {
        Rational::one()
    }
    fn is_zero(&self) -> bool {
        Rational::is_zero(self)
    }
    fn add(&self, other: &Self) -> Self {
        self + other
    }
    fn sub(&self, other: &Self) -> Self {
        self - other
    }
    fn mul(&self, other: &Self) -> Self {
        self * other
    }
    fn neg(&self) -> Self {
        -self
    }
    fn recip(&self) -> Self {
        Rational::recip(self)
    }
}

/// Delta-rational right-hand sides solve against rational basis factors
/// without refactoring: FTRAN/BTRAN only ever scale vector elements by
/// rational factor entries, which `DeltaRational::scale` supports exactly.
impl sta_linalg::VectorElem<Rational> for DeltaRational {
    fn is_zero(&self) -> bool {
        DeltaRational::is_zero(self)
    }
    fn add(&self, other: &Self) -> Self {
        self + other
    }
    fn sub(&self, other: &Self) -> Self {
        self - other
    }
    fn scale(&self, k: &Rational) -> Self {
        DeltaRational::scale(self, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i64, d: i64) -> Rational {
        Rational::new(n, d)
    }

    #[test]
    fn normalization() {
        assert_eq!(r(2, 4), r(1, 2));
        assert_eq!(r(-2, -4), r(1, 2));
        assert_eq!(r(2, -4), r(-1, 2));
        assert_eq!(r(0, 5), Rational::zero());
        assert_eq!(r(0, -5).denom(), BigInt::one());
    }

    #[test]
    fn field_operations() {
        assert_eq!(&r(1, 3) + &r(1, 6), r(1, 2));
        assert_eq!(&r(1, 3) - &r(1, 6), r(1, 6));
        assert_eq!(&r(2, 3) * &r(3, 4), r(1, 2));
        assert_eq!(&r(2, 3) / &r(4, 3), r(1, 2));
        assert_eq!(r(3, 7).recip(), r(7, 3));
        assert_eq!(-r(3, 7), r(-3, 7));
    }

    #[test]
    fn ordering() {
        assert!(r(1, 3) < r(1, 2));
        assert!(r(-1, 2) < r(-1, 3));
        assert!(r(-1, 2) < r(0, 1));
        assert!(r(7, 2) > r(10, 3));
    }

    #[test]
    fn decimal_parsing() {
        assert_eq!(Rational::from_decimal_str("16.90").unwrap(), r(169, 10));
        assert_eq!(Rational::from_decimal_str("-0.25").unwrap(), r(-1, 4));
        assert_eq!(Rational::from_decimal_str("3").unwrap(), r(3, 1));
        assert_eq!(Rational::from_decimal_str(".5").unwrap(), r(1, 2));
        assert_eq!(Rational::from_decimal_str("+2.").unwrap(), r(2, 1));
        assert!(Rational::from_decimal_str("").is_err());
        assert!(Rational::from_decimal_str("1.2.3").is_err());
        assert!(Rational::from_decimal_str("1e5").is_err());
        assert!(Rational::from_decimal_str(".").is_err());
    }

    #[test]
    fn f64_round_trip() {
        for v in [0.0, 1.0, -1.5, 0.1, 1234.5678, -1e-9, 2f64.powi(53)] {
            let q = Rational::from_f64(v);
            assert_eq!(q.to_f64(), v, "{v}");
        }
        // 0.1 is not exactly 1/10 in binary; from_f64 must be exact, not pretty.
        assert_ne!(Rational::from_f64(0.1), r(1, 10));
    }

    #[test]
    fn delta_rational_ordering() {
        let a = DeltaRational::real(r(1, 1));
        let b = DeltaRational::with_delta(r(1, 1), r(-1, 1)); // 1 - δ
        let c = DeltaRational::with_delta(r(1, 1), r(1, 1)); // 1 + δ
        assert!(b < a);
        assert!(a < c);
        assert_eq!(&a - &a, DeltaRational::zero());
    }

    #[test]
    fn delta_scale_and_concretize() {
        let x = DeltaRational::with_delta(r(3, 1), r(-2, 1));
        let s = x.scale(&r(1, 2));
        assert_eq!(s.value, r(3, 2));
        assert_eq!(s.delta, r(-1, 1));
        assert_eq!(s.concretize(&r(1, 100)), r(149, 100));
    }

    #[test]
    fn display_forms() {
        assert_eq!(r(3, 1).to_string(), "3");
        assert_eq!(r(-3, 4).to_string(), "-3/4");
        assert_eq!(
            DeltaRational::with_delta(r(1, 2), r(-1, 1)).to_string(),
            "1/2 + -1δ"
        );
    }
}
