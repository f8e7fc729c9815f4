//! Bridging `f64` grid data into exact rationals for the SMT encoding.
//!
//! Grid admittances are published with two decimals (paper Table II) and
//! operating-point angles are `f64`s from the power-flow solver. The SMT
//! side needs exact [`Rational`]s; converting via binary-float expansion
//! would produce enormous denominators and subtly inconsistent constants.
//! Instead we round to a fixed decimal precision, which is exact for the
//! published data and keeps every derived constant consistent.

use sta_smt::Rational;

/// Converts `v` to the exact rational `round(v·10^digits) / 10^digits`.
///
/// # Panics
/// Panics if `v` is not finite or `digits > 18` (would overflow the
/// scaling factor).
///
/// # Examples
///
/// ```
/// use sta_core::decimal::rational_from_f64;
/// use sta_smt::Rational;
///
/// assert_eq!(rational_from_f64(16.90, 2), Rational::new(1690, 100));
/// assert_eq!(rational_from_f64(-0.125, 3), Rational::new(-125, 1000));
/// ```
pub fn rational_from_f64(v: f64, digits: u32) -> Rational {
    assert!(v.is_finite(), "cannot convert non-finite float");
    assert!(digits <= 18, "precision too high for i64 scaling");
    let scale = 10i64.pow(digits);
    let scaled = v * scale as f64;
    assert!(
        scaled.abs() < 9.2e18,
        "value {v} out of range at {digits} digits"
    );
    Rational::new(scaled.round() as i64, scale)
}

/// The nine-decimal precision used for operating-point angles.
pub const ANGLE_DIGITS: u32 = 9;

/// The two-decimal precision of published admittance data.
pub const ADMITTANCE_DIGITS: u32 = 2;

/// Converts an admittance (two published decimals).
pub fn admittance(v: f64) -> Rational {
    rational_from_f64(v, ADMITTANCE_DIGITS)
}

/// Converts an operating-point angle or flow (nine decimals).
pub fn angle(v: f64) -> Rational {
    rational_from_f64(v, ANGLE_DIGITS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_for_published_precision() {
        assert_eq!(admittance(23.75), Rational::new(2375, 100));
        assert_eq!(admittance(5.05), Rational::new(505, 100));
        assert_eq!(admittance(2.87), Rational::new(287, 100));
    }

    #[test]
    fn rounding_is_nearest() {
        assert_eq!(rational_from_f64(0.1049, 2), Rational::new(10, 100));
        assert_eq!(rational_from_f64(0.105, 2), Rational::new(11, 100));
        assert_eq!(rational_from_f64(-0.105, 2), Rational::new(-11, 100));
    }

    #[test]
    fn zero_and_integers() {
        assert_eq!(rational_from_f64(0.0, 9), Rational::zero());
        assert_eq!(rational_from_f64(3.0, 0), Rational::new(3, 1));
    }

    #[test]
    fn roundtrip_error_bounded() {
        for &v in &[0.123456789f64, -7.654321, 1e-7, 3.99999] {
            let r = angle(v);
            assert!((r.to_f64() - v).abs() < 5e-10, "{v}");
        }
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn rejects_nan() {
        let _ = rational_from_f64(f64::NAN, 2);
    }
}
