//! Arbitrary-precision signed integers.
//!
//! The simplex theory solver pivots with exact rational arithmetic. Most
//! values fit machine integers, and [`crate::rational::Rational`] keeps
//! those inline; a numerator or denominator that outgrows an `i64` promotes
//! its rational to a pair of these big integers, which serve as the
//! overflow fallback. This module provides a compact sign-magnitude big
//! integer with the operations that fallback needs: ring arithmetic,
//! Euclidean division, gcd, comparisons and conversions.
//!
//! # Examples
//!
//! ```
//! use sta_smt::bigint::BigInt;
//!
//! let a = BigInt::from(1_000_000_007i64);
//! let b = &a * &a;
//! assert_eq!(b.to_string(), "1000000014000000049");
//! assert_eq!((&b % &a), BigInt::zero());
//! ```

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Rem, Sub};

/// Sign of a [`BigInt`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Sign {
    /// Strictly negative.
    Minus,
    /// Exactly zero (magnitude is empty).
    Zero,
    /// Strictly positive.
    Plus,
}

/// An arbitrary-precision signed integer.
///
/// Stored as a sign plus little-endian `u64` limbs with no trailing zero
/// limbs. Zero is represented by an empty limb vector and [`Sign::Zero`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BigInt {
    sign: Sign,
    /// Little-endian magnitude; invariant: no trailing zero limb.
    limbs: Vec<u64>,
}

impl BigInt {
    /// Returns zero.
    ///
    /// ```
    /// # use sta_smt::bigint::BigInt;
    /// assert!(BigInt::zero().is_zero());
    /// ```
    pub fn zero() -> Self {
        BigInt { sign: Sign::Zero, limbs: Vec::new() }
    }

    /// Returns one.
    pub fn one() -> Self {
        BigInt::from(1i64)
    }

    /// Whether this integer is zero.
    pub fn is_zero(&self) -> bool {
        self.sign == Sign::Zero
    }

    /// Whether this integer is strictly positive.
    pub fn is_positive(&self) -> bool {
        self.sign == Sign::Plus
    }

    /// Whether this integer is strictly negative.
    pub fn is_negative(&self) -> bool {
        self.sign == Sign::Minus
    }

    /// Whether this integer equals one.
    pub fn is_one(&self) -> bool {
        self.sign == Sign::Plus && self.limbs.len() == 1 && self.limbs[0] == 1
    }

    /// Sign as `-1`, `0` or `1`.
    pub fn signum(&self) -> i32 {
        match self.sign {
            Sign::Minus => -1,
            Sign::Zero => 0,
            Sign::Plus => 1,
        }
    }

    /// Absolute value.
    pub fn abs(&self) -> Self {
        let mut r = self.clone();
        if r.sign == Sign::Minus {
            r.sign = Sign::Plus;
        }
        r
    }

    fn from_limbs(sign: Sign, mut limbs: Vec<u64>) -> Self {
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        let sign = if limbs.is_empty() { Sign::Zero } else { sign };
        BigInt { sign, limbs }
    }

    /// Compares magnitudes, ignoring signs.
    fn cmp_mag(a: &[u64], b: &[u64]) -> Ordering {
        if a.len() != b.len() {
            return a.len().cmp(&b.len());
        }
        for i in (0..a.len()).rev() {
            match a[i].cmp(&b[i]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }

    fn add_mag(a: &[u64], b: &[u64]) -> Vec<u64> {
        let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u64;
        for i in 0..long.len() {
            let x = long[i];
            let y = if i < short.len() { short[i] } else { 0 };
            let (s1, c1) = x.overflowing_add(y);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry > 0 {
            out.push(carry);
        }
        out
    }

    /// Computes `a - b`; requires `a >= b` in magnitude.
    fn sub_mag(a: &[u64], b: &[u64]) -> Vec<u64> {
        debug_assert!(Self::cmp_mag(a, b) != Ordering::Less);
        let mut out = Vec::with_capacity(a.len());
        let mut borrow = 0u64;
        for i in 0..a.len() {
            let y = if i < b.len() { b[i] } else { 0 };
            let (d1, b1) = a[i].overflowing_sub(y);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = (b1 as u64) + (b2 as u64);
        }
        debug_assert_eq!(borrow, 0);
        out
    }

    fn mul_mag(a: &[u64], b: &[u64]) -> Vec<u64> {
        if a.is_empty() || b.is_empty() {
            return Vec::new();
        }
        let mut out = vec![0u64; a.len() + b.len()];
        for (i, &x) in a.iter().enumerate() {
            if x == 0 {
                continue;
            }
            let mut carry = 0u128;
            for (j, &y) in b.iter().enumerate() {
                let cur = out[i + j] as u128 + (x as u128) * (y as u128) + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut k = i + b.len();
            while carry > 0 {
                let cur = out[k] as u128 + carry;
                out[k] = cur as u64;
                carry = cur >> 64;
                k += 1;
            }
        }
        out
    }

    /// Divides magnitude by a single limb, returning (quotient, remainder).
    fn divmod_small(a: &[u64], d: u64) -> (Vec<u64>, u64) {
        debug_assert!(d != 0);
        let mut q = vec![0u64; a.len()];
        let mut rem = 0u128;
        for i in (0..a.len()).rev() {
            let cur = (rem << 64) | a[i] as u128;
            q[i] = (cur / d as u128) as u64;
            rem = cur % d as u128;
        }
        (q, rem as u64)
    }

    /// Knuth-style long division on magnitudes: returns (quotient, remainder).
    fn divmod_mag(a: &[u64], b: &[u64]) -> (Vec<u64>, Vec<u64>) {
        assert!(!b.is_empty(), "division by zero");
        match Self::cmp_mag(a, b) {
            Ordering::Less => return (Vec::new(), a.to_vec()),
            Ordering::Equal => return (vec![1], Vec::new()),
            Ordering::Greater => {}
        }
        if b.len() == 1 {
            let (q, r) = Self::divmod_small(a, b[0]);
            return (q, if r == 0 { Vec::new() } else { vec![r] });
        }
        // Normalize so the divisor's top limb has its high bit set.
        let shift = b.last().unwrap().leading_zeros();
        let bn = Self::shl_bits(b, shift);
        let mut an = Self::shl_bits(a, shift);
        an.push(0); // guard limb
        let n = bn.len();
        let m = an.len() - n - 1;
        let mut q = vec![0u64; m + 1];
        let btop = bn[n - 1] as u128;
        let bsec = bn[n - 2] as u128;
        for j in (0..=m).rev() {
            // Estimate q̂ from the top three limbs.
            let num = ((an[j + n] as u128) << 64) | an[j + n - 1] as u128;
            let mut qhat = num / btop;
            let mut rhat = num % btop;
            while qhat >= 1u128 << 64
                || qhat * bsec > ((rhat << 64) | an[j + n - 2] as u128)
            {
                qhat -= 1;
                rhat += btop;
                if rhat >= 1u128 << 64 {
                    break;
                }
            }
            // Multiply-subtract qhat * bn from an[j..j+n+1].
            let mut borrow = 0i128;
            let mut carry = 0u128;
            for i in 0..n {
                let p = qhat * bn[i] as u128 + carry;
                carry = p >> 64;
                let sub = (p as u64) as i128;
                let cur = an[j + i] as i128 - sub - borrow;
                if cur < 0 {
                    an[j + i] = (cur + (1i128 << 64)) as u64;
                    borrow = 1;
                } else {
                    an[j + i] = cur as u64;
                    borrow = 0;
                }
            }
            let cur = an[j + n] as i128 - carry as i128 - borrow;
            if cur < 0 {
                // q̂ was one too large; add back.
                an[j + n] = (cur + (1i128 << 64)) as u64;
                qhat -= 1;
                let mut c = 0u64;
                for i in 0..n {
                    let (s1, c1) = an[j + i].overflowing_add(bn[i]);
                    let (s2, c2) = s1.overflowing_add(c);
                    an[j + i] = s2;
                    c = (c1 as u64) + (c2 as u64);
                }
                an[j + n] = an[j + n].wrapping_add(c);
            } else {
                an[j + n] = cur as u64;
            }
            q[j] = qhat as u64;
        }
        let rem = Self::shr_bits(&an[..n], shift);
        (q, rem)
    }

    fn shl_bits(a: &[u64], shift: u32) -> Vec<u64> {
        if shift == 0 {
            return a.to_vec();
        }
        let mut out = Vec::with_capacity(a.len() + 1);
        let mut carry = 0u64;
        for &x in a {
            out.push((x << shift) | carry);
            carry = x >> (64 - shift);
        }
        if carry > 0 {
            out.push(carry);
        }
        out
    }

    fn shr_bits(a: &[u64], shift: u32) -> Vec<u64> {
        if shift == 0 {
            let mut v = a.to_vec();
            while v.last() == Some(&0) {
                v.pop();
            }
            return v;
        }
        let mut out = vec![0u64; a.len()];
        let mut carry = 0u64;
        for i in (0..a.len()).rev() {
            out[i] = (a[i] >> shift) | carry;
            carry = a[i] << (64 - shift);
        }
        while out.last() == Some(&0) {
            out.pop();
        }
        out
    }

    /// Euclidean division returning `(quotient, remainder)` where the
    /// remainder has the sign of `self` (truncated division, like Rust's `/`
    /// and `%` on primitives).
    ///
    /// # Panics
    ///
    /// Panics if `other` is zero.
    pub fn divmod(&self, other: &BigInt) -> (BigInt, BigInt) {
        assert!(!other.is_zero(), "division by zero");
        let (qm, rm) = Self::divmod_mag(&self.limbs, &other.limbs);
        let qsign = if self.sign == other.sign { Sign::Plus } else { Sign::Minus };
        (
            BigInt::from_limbs(qsign, qm),
            BigInt::from_limbs(self.sign, rm),
        )
    }

    /// Greatest common divisor (always non-negative).
    ///
    /// ```
    /// # use sta_smt::bigint::BigInt;
    /// let g = BigInt::from(48i64).gcd(&BigInt::from(-18i64));
    /// assert_eq!(g, BigInt::from(6i64));
    /// ```
    pub fn gcd(&self, other: &BigInt) -> BigInt {
        let mut a = self.abs();
        let mut b = other.abs();
        while !b.is_zero() {
            let r = &a % &b;
            a = b;
            b = r.abs();
        }
        a
    }

    /// Lossy conversion to `f64` (used only for reporting, never for solving).
    pub fn to_f64(&self) -> f64 {
        let mut v = 0.0f64;
        for &limb in self.limbs.iter().rev() {
            v = v * 1.8446744073709552e19 + limb as f64;
        }
        if self.sign == Sign::Minus {
            -v
        } else {
            v
        }
    }

    /// Exact conversion to `i64` if the value fits.
    pub fn to_i64(&self) -> Option<i64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => {
                let m = self.limbs[0];
                match self.sign {
                    Sign::Plus if m <= i64::MAX as u64 => Some(m as i64),
                    Sign::Minus if m <= i64::MAX as u64 + 1 => Some((m as i128 * -1) as i64),
                    _ => None,
                }
            }
            _ => None,
        }
    }
}

impl Default for BigInt {
    fn default() -> Self {
        BigInt::zero()
    }
}

impl From<i64> for BigInt {
    fn from(v: i64) -> Self {
        match v.cmp(&0) {
            Ordering::Equal => BigInt::zero(),
            Ordering::Greater => BigInt { sign: Sign::Plus, limbs: vec![v as u64] },
            Ordering::Less => BigInt {
                sign: Sign::Minus,
                limbs: vec![(v as i128).unsigned_abs() as u64],
            },
        }
    }
}

impl From<i128> for BigInt {
    fn from(v: i128) -> Self {
        let sign = match v.cmp(&0) {
            Ordering::Less => Sign::Minus,
            Ordering::Equal => Sign::Zero,
            Ordering::Greater => Sign::Plus,
        };
        let m = v.unsigned_abs();
        BigInt::from_limbs(sign, vec![m as u64, (m >> 64) as u64])
    }
}

impl From<u64> for BigInt {
    fn from(v: u64) -> Self {
        if v == 0 {
            BigInt::zero()
        } else {
            BigInt { sign: Sign::Plus, limbs: vec![v] }
        }
    }
}

impl From<i32> for BigInt {
    fn from(v: i32) -> Self {
        BigInt::from(v as i64)
    }
}

impl PartialOrd for BigInt {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigInt {
    fn cmp(&self, other: &Self) -> Ordering {
        use Sign::*;
        match (self.sign, other.sign) {
            (Minus, Minus) => Self::cmp_mag(&other.limbs, &self.limbs),
            (Minus, _) => Ordering::Less,
            (Zero, Minus) => Ordering::Greater,
            (Zero, Zero) => Ordering::Equal,
            (Zero, Plus) => Ordering::Less,
            (Plus, Plus) => Self::cmp_mag(&self.limbs, &other.limbs),
            (Plus, _) => Ordering::Greater,
        }
    }
}

impl Neg for &BigInt {
    type Output = BigInt;
    fn neg(self) -> BigInt {
        let sign = match self.sign {
            Sign::Minus => Sign::Plus,
            Sign::Zero => Sign::Zero,
            Sign::Plus => Sign::Minus,
        };
        BigInt { sign, limbs: self.limbs.clone() }
    }
}

impl Neg for BigInt {
    type Output = BigInt;
    fn neg(mut self) -> BigInt {
        self.sign = match self.sign {
            Sign::Minus => Sign::Plus,
            Sign::Zero => Sign::Zero,
            Sign::Plus => Sign::Minus,
        };
        self
    }
}

impl Add for &BigInt {
    type Output = BigInt;
    fn add(self, other: &BigInt) -> BigInt {
        use Sign::*;
        match (self.sign, other.sign) {
            (Zero, _) => other.clone(),
            (_, Zero) => self.clone(),
            (a, b) if a == b => {
                BigInt::from_limbs(a, BigInt::add_mag(&self.limbs, &other.limbs))
            }
            _ => match BigInt::cmp_mag(&self.limbs, &other.limbs) {
                Ordering::Equal => BigInt::zero(),
                Ordering::Greater => BigInt::from_limbs(
                    self.sign,
                    BigInt::sub_mag(&self.limbs, &other.limbs),
                ),
                Ordering::Less => BigInt::from_limbs(
                    other.sign,
                    BigInt::sub_mag(&other.limbs, &self.limbs),
                ),
            },
        }
    }
}

impl Sub for &BigInt {
    type Output = BigInt;
    fn sub(self, other: &BigInt) -> BigInt {
        self + &(-other)
    }
}

impl Mul for &BigInt {
    type Output = BigInt;
    fn mul(self, other: &BigInt) -> BigInt {
        if self.is_zero() || other.is_zero() {
            return BigInt::zero();
        }
        let sign = if self.sign == other.sign { Sign::Plus } else { Sign::Minus };
        BigInt::from_limbs(sign, BigInt::mul_mag(&self.limbs, &other.limbs))
    }
}

impl Div for &BigInt {
    type Output = BigInt;
    fn div(self, other: &BigInt) -> BigInt {
        self.divmod(other).0
    }
}

impl Rem for &BigInt {
    type Output = BigInt;
    fn rem(self, other: &BigInt) -> BigInt {
        self.divmod(other).1
    }
}

macro_rules! forward_owned_binop {
    ($trait:ident, $method:ident) => {
        impl $trait for BigInt {
            type Output = BigInt;
            fn $method(self, other: BigInt) -> BigInt {
                (&self).$method(&other)
            }
        }
    };
}
forward_owned_binop!(Add, add);
forward_owned_binop!(Sub, sub);
forward_owned_binop!(Mul, mul);
forward_owned_binop!(Div, div);
forward_owned_binop!(Rem, rem);

impl fmt::Display for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        let mut digits = Vec::new();
        let mut mag = self.limbs.clone();
        while !mag.is_empty() {
            let (q, r) = BigInt::divmod_small(&mag, 10_000_000_000_000_000_000);
            let mut q = q;
            while q.last() == Some(&0) {
                q.pop();
            }
            digits.push(r);
            mag = q;
        }
        if self.sign == Sign::Minus {
            write!(f, "-")?;
        }
        write!(f, "{}", digits.pop().unwrap())?;
        while let Some(d) = digits.pop() {
            write!(f, "{d:019}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bi(v: i64) -> BigInt {
        BigInt::from(v)
    }

    #[test]
    fn small_arithmetic_matches_i64() {
        let cases = [0i64, 1, -1, 7, -7, 1 << 40, -(1 << 40), i64::MAX / 2];
        for &a in &cases {
            for &b in &cases {
                assert_eq!(&bi(a) + &bi(b), bi(a + b), "{a}+{b}");
                assert_eq!(&bi(a) - &bi(b), bi(a - b), "{a}-{b}");
                if let Some(p) = a.checked_mul(b) {
                    assert_eq!(&bi(a) * &bi(b), bi(p), "{a}*{b}");
                }
            }
        }
    }

    #[test]
    fn display_round_trip_large() {
        let a = bi(i64::MAX);
        let sq = &a * &a;
        assert_eq!(sq.to_string(), "85070591730234615847396907784232501249");
    }

    #[test]
    fn divmod_large() {
        let a = &(&bi(i64::MAX) * &bi(i64::MAX)) + &bi(12345);
        let b = bi(i64::MAX);
        let (q, r) = a.divmod(&b);
        assert_eq!(q, bi(i64::MAX));
        assert_eq!(r, bi(12345));
        assert_eq!(&(&q * &b) + &r, a);
    }

    #[test]
    fn divmod_signs_match_truncated_division() {
        for &(a, b) in &[(7i64, 3i64), (-7, 3), (7, -3), (-7, -3), (6, 3), (-6, 3)] {
            let (q, r) = bi(a).divmod(&bi(b));
            assert_eq!(q, bi(a / b), "{a}/{b}");
            assert_eq!(r, bi(a % b), "{a}%{b}");
        }
    }

    #[test]
    fn gcd_basic() {
        assert_eq!(bi(48).gcd(&bi(-18)), bi(6));
        assert_eq!(bi(0).gcd(&bi(5)), bi(5));
        assert_eq!(bi(5).gcd(&bi(0)), bi(5));
        assert_eq!(bi(17).gcd(&bi(13)), bi(1));
    }

    #[test]
    fn ordering() {
        assert!(bi(-5) < bi(-4));
        assert!(bi(-5) < bi(0));
        assert!(bi(0) < bi(3));
        assert!(bi(3) < bi(4));
        let big = &bi(i64::MAX) * &bi(2);
        assert!(bi(i64::MAX) < big);
        assert!(-&big < bi(i64::MIN + 1));
    }

    #[test]
    fn to_f64_reasonable() {
        assert_eq!(bi(1024).to_f64(), 1024.0);
        assert_eq!(bi(-3).to_f64(), -3.0);
        let big = &bi(1i64 << 62) * &bi(4);
        assert!((big.to_f64() - 2f64.powi(64)).abs() / 2f64.powi(64) < 1e-12);
    }

    #[test]
    fn to_i64_bounds() {
        assert_eq!(bi(i64::MAX).to_i64(), Some(i64::MAX));
        assert_eq!((&bi(i64::MAX) + &bi(1)).to_i64(), None);
        assert_eq!(bi(0).to_i64(), Some(0));
        assert_eq!(bi(-42).to_i64(), Some(-42));
    }

    #[test]
    fn division_long_random() {
        // Deterministic pseudo-random long-division stress using an LCG.
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state
        };
        for _ in 0..200 {
            let a = BigInt::from_limbs(Sign::Plus, vec![next(), next(), next(), next() | 1]);
            let b = BigInt::from_limbs(Sign::Plus, vec![next(), next() | 1]);
            let (q, r) = a.divmod(&b);
            assert!(r < b);
            assert_eq!(&(&q * &b) + &r, a);
        }
    }
}
