//! Differential oracle for `Rational`'s inline form.
//!
//! `Rational` keeps a reduced fraction inline as two `i64`s and promotes
//! it to a boxed `BigInt` pair only when it does not fit. These tests
//! recompute every operation in plain `BigInt` arithmetic on the operands'
//! numerators and denominators, reduce the result with `BigInt::gcd`, and
//! require the same value, the same `Display`, a bit-identical `to_f64`,
//! and equal `==` and `Hash` for equal values whether the inline, the
//! promoted or the demoted path produced them.
//!
//! Operands mix small integers, the encoder's fixed-point values
//! (denominators 10² and 10⁹), boundary values around ±2⁶³ (`i64::MIN`
//! included), pairs whose products or cross sums overflow `i64`, big
//! intermediates that cancel back into range, and values that stay big.
//! Each run asserts that all four paths were taken. The tier-1 test runs
//! a few seeds; the ignored variant runs many more:
//!
//! ```sh
//! cargo test -q --release --test rational_equiv -- --ignored
//! ```

use sta::smt::bigint::BigInt;
use sta::smt::rng::Pcg32;
use sta::smt::{DeltaRational, Rational};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// A reference value: a reduced `(num, den)` with `den > 0`.
type Exact = (BigInt, BigInt);

fn big(v: i64) -> BigInt {
    BigInt::from(v)
}

/// Reduces `num / den` with `BigInt::gcd` alone.
fn reduce(num: BigInt, den: BigInt) -> Exact {
    assert!(!den.is_zero());
    let (num, den) = if den.is_negative() {
        (-num, -den)
    } else {
        (num, den)
    };
    if num.is_zero() {
        return (BigInt::zero(), BigInt::one());
    }
    let g = num.gcd(&den);
    (&num / &g, &den / &g)
}

/// Whether a reduced value fits the inline form.
fn fits_inline(x: &Exact) -> bool {
    matches!(x.0.to_i64(), Some(n) if n != i64::MIN) && x.1.to_i64().is_some()
}

fn exact_of(q: &Rational) -> Exact {
    (q.numer(), q.denom())
}

fn display(x: &Exact) -> String {
    if x.1.is_one() {
        x.0.to_string()
    } else {
        format!("{}/{}", x.0, x.1)
    }
}

/// The `BigInt` reference's float conversion.
fn to_f64(x: &Exact) -> f64 {
    let (nf, df) = (x.0.to_f64(), x.1.to_f64());
    if nf.is_finite() && df.is_finite() && df != 0.0 {
        nf / df
    } else {
        let (q, r) = x.0.divmod(&x.1);
        q.to_f64() + r.to_f64() / df
    }
}

fn hash_of<T: Hash>(v: &T) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

/// Which representations an operation read and wrote.
#[derive(Debug, Default)]
struct Coverage {
    /// Inline operands, inline result.
    inline: usize,
    /// Inline operands, boxed result.
    promoted: usize,
    /// A boxed operand, inline result.
    demoted: usize,
    /// A boxed operand, boxed result.
    boxed: usize,
}

impl Coverage {
    fn record(&mut self, operands_inline: bool, result: &Exact) {
        match (operands_inline, fits_inline(result)) {
            (true, true) => self.inline += 1,
            (true, false) => self.promoted += 1,
            (false, true) => self.demoted += 1,
            (false, false) => self.boxed += 1,
        }
    }

    fn assert_every_path(&self) {
        assert!(
            self.inline > 0 && self.promoted > 0 && self.demoted > 0 && self.boxed > 0,
            "a representation path went untested: {self:?}"
        );
    }
}

/// `got` must equal the reference in value, `Display` and `to_f64` bits,
/// and compare and hash equal to the same value built from the reduced
/// parts, and from the parts scaled by a factor past 2⁶⁴ (with either
/// sign) that the `BigInt` gcd must cancel.
fn check(got: &Rational, want: &Exact, what: &str) {
    assert_eq!(exact_of(got), *want, "{what}: value");
    assert_eq!(got.to_string(), display(want), "{what}: Display");
    assert_eq!(
        got.to_f64().to_bits(),
        to_f64(want).to_bits(),
        "{what}: to_f64"
    );
    let scale = &(&big(i64::MAX) * &big(6)) + &big(1);
    for alt in [
        Rational::from_bigints(want.0.clone(), want.1.clone()),
        Rational::from_bigints(&want.0 * &scale, &want.1 * &scale),
        Rational::from_bigints(-&(&want.0 * &scale), -&(&want.1 * &scale)),
    ] {
        assert_eq!(*got, alt, "{what}: == across construction paths");
        assert_eq!(
            hash_of(got),
            hash_of(&alt),
            "{what}: Hash across construction paths"
        );
    }
}

/// One operand: its rational and the reference value of its raw parts.
fn operand(rng: &mut Pcg32) -> (Rational, Exact) {
    const BOUNDARY: [i64; 7] = [
        i64::MAX,
        -i64::MAX,
        1 << 62,
        -(1 << 62),
        i64::MIN,
        (1 << 62) + 1,
        i64::MAX - 1,
    ];
    let pick = |rng: &mut Pcg32| BOUNDARY[rng.below(BOUNDARY.len())];
    let nonzero = |rng: &mut Pcg32| match rng.next_u64() as i64 {
        0 => 1,
        v => v,
    };
    let (num, den) = match rng.below(8) {
        // Small integers and small fractions.
        0 => (rng.range_i64(-12, 12), rng.range_i64(1, 4)),
        // The encoder's fixed-point admittances and angles.
        1 => (rng.range_i64(-100_000, 100_000), 100),
        2 => (rng.range_i64(-4_000_000_000, 4_000_000_000), 1_000_000_000),
        // Boundary numerators over small or boundary denominators.
        3 => (
            pick(rng),
            if rng.flip() {
                rng.range_i64(-3, 3).max(1)
            } else {
                pick(rng)
            },
        ),
        4 => (rng.range_i64(-9, 9), pick(rng)),
        // Full-range parts: products and cross sums overflow `i64`.
        5 | 6 => (rng.next_u64() as i64, nonzero(rng)),
        // Big intermediates: cancel back into range, or stay big.
        _ => {
            let (n, d) = (rng.range_i64(-1_000, 1_000), rng.range_i64(1, 1_000));
            let k = &(&big(rng.next_u64() as i64 | 1) * &big(i64::MAX)) + &big(1);
            let want = if rng.flip() {
                reduce(&big(n) * &k, &big(d) * &k)
            } else {
                reduce(&big(n) * &k, big(d))
            };
            let q = Rational::from_bigints(want.0.clone(), want.1.clone());
            check(&q, &want, "big operand");
            return (q, want);
        }
    };
    let want = reduce(big(num), big(den));
    let q = Rational::new(num, den);
    check(&q, &want, &format!("Rational::new({num}, {den})"));
    (q, want)
}

/// Every binary and unary operation on `pairs` operand pairs of one seed.
fn run_seed(seed: u64, pairs: usize, cov: &mut Coverage) {
    let mut rng = Pcg32::new(seed);
    for i in 0..pairs {
        let (x, xw) = operand(&mut rng);
        let (y, yw) = operand(&mut rng);
        let tag = |op: &str| {
            format!(
                "seed {seed} pair {i}: ({}) {op} ({})",
                display(&xw),
                display(&yw)
            )
        };
        let both_inline = fits_inline(&xw) && fits_inline(&yw);
        let (a, b, c, d) = (&xw.0, &xw.1, &yw.0, &yw.1);

        let sum = reduce(&(a * d) + &(c * b), b * d);
        check(&(&x + &y), &sum, &tag("+"));
        cov.record(both_inline, &sum);
        let diff = reduce(&(a * d) - &(c * b), b * d);
        check(&(&x - &y), &diff, &tag("-"));
        cov.record(both_inline, &diff);
        let prod = reduce(a * c, b * d);
        check(&(&x * &y), &prod, &tag("*"));
        cov.record(both_inline, &prod);
        if !c.is_zero() {
            let quot = reduce(a * d, b * c);
            check(&(&x / &y), &quot, &tag("/"));
            cov.record(both_inline, &quot);
        }
        assert_eq!(x.cmp(&y), (a * d).cmp(&(c * b)), "{}", tag("cmp"));
        assert_eq!(x == y, xw == yw, "{}", tag("=="));

        let inline = fits_inline(&xw);
        assert_eq!(x.signum(), a.signum(), "{}", tag("signum"));
        assert_eq!(x.is_zero(), a.is_zero(), "{}", tag("is_zero"));
        assert_eq!(x.is_positive(), a.is_positive(), "{}", tag("is_positive"));
        assert_eq!(x.is_negative(), a.is_negative(), "{}", tag("is_negative"));
        let neg = (-a, b.clone());
        check(&-&x, &neg, &tag("neg"));
        check(&-x.clone(), &neg, &tag("owned neg"));
        cov.record(inline, &neg);
        check(&x.abs(), &(a.abs(), b.clone()), &tag("abs"));
        if !a.is_zero() {
            let recip = reduce(b.clone(), a.clone());
            check(&x.recip(), &recip, &tag("recip"));
            cov.record(inline, &recip);
        }

        // Delta-rationals order lexicographically and scale both parts.
        let (z, zw) = operand(&mut rng);
        let p = DeltaRational::with_delta(x.clone(), y.clone());
        let q = DeltaRational::with_delta(x.clone(), z.clone());
        let r = DeltaRational::with_delta(y.clone(), x.clone());
        let cross = |l: &Exact, r: &Exact| (&l.0 * &r.1).cmp(&(&r.0 * &l.1));
        assert_eq!(
            p.cmp(&q),
            cross(&yw, &zw),
            "{}",
            tag("delta cmp, equal values")
        );
        assert_eq!(
            p.cmp(&r),
            cross(&xw, &yw).then_with(|| cross(&yw, &xw)),
            "{}",
            tag("delta cmp")
        );
        let scaled = p.scale(&z);
        check(
            &scaled.value,
            &reduce(a * &zw.0, b * &zw.1),
            &tag("delta scale value"),
        );
        check(
            &scaled.delta,
            &reduce(c * &zw.0, d * &zw.1),
            &tag("delta scale delta"),
        );
    }
}

/// Decimal literals parse to `digits / 10^k` exactly, and every finite
/// `f64` converts to the exact dyadic rational it denotes and back.
fn run_conversions(seed: u64, count: usize) {
    let mut rng = Pcg32::new(seed ^ 0x5eed_dec1);
    for _ in 0..count {
        let int_digits = rng.below(20);
        let frac_digits = rng.below(20);
        let mut literal = String::new();
        if rng.flip() {
            literal.push('-');
        }
        let mut digits = String::new();
        for _ in 0..int_digits + frac_digits {
            digits.push(char::from(b'0' + rng.below(10) as u8));
        }
        literal.push_str(&digits[..int_digits]);
        literal.push('.');
        literal.push_str(&digits[int_digits..]);
        if int_digits + frac_digits == 0 {
            literal.push('0');
        }
        let mut num = BigInt::zero();
        for ch in digits.chars() {
            num = &(&num * &big(10)) + &big(i64::from(ch as u8 - b'0'));
        }
        if literal.starts_with('-') {
            num = -num;
        }
        let mut den = BigInt::one();
        for _ in 0..frac_digits {
            den = &den * &big(10);
        }
        let parsed = Rational::from_decimal_str(&literal).expect("generated literal parses");
        check(
            &parsed,
            &reduce(num, den),
            &format!("from_decimal_str({literal:?})"),
        );

        let v = loop {
            let v = f64::from_bits(rng.next_u64());
            if v.is_finite() {
                break v;
            }
        };
        let bits = v.to_bits();
        let exponent = ((bits >> 52) & 0x7ff) as i64;
        let mantissa = bits & 0xf_ffff_ffff_ffff | if exponent == 0 { 0 } else { 1 << 52 };
        let shift = if exponent == 0 {
            -1074
        } else {
            exponent - 1075
        };
        let mut pow = BigInt::one();
        for _ in 0..shift.unsigned_abs() {
            pow = &pow * &big(2);
        }
        let m = if v.is_sign_negative() {
            -BigInt::from(mantissa)
        } else {
            BigInt::from(mantissa)
        };
        let want = if shift >= 0 {
            reduce(&m * &pow, BigInt::one())
        } else {
            reduce(m, pow)
        };
        let q = Rational::from_f64(v);
        check(&q, &want, &format!("from_f64({v:e})"));
        if fits_inline(&want) {
            assert_eq!(q.to_f64(), v, "from_f64({v:e}) round trip");
        }
    }
}

#[test]
fn inline_form_matches_the_bigint_reference() {
    let mut cov = Coverage::default();
    for seed in 0..4 {
        run_seed(seed, 600, &mut cov);
        run_conversions(seed, 60);
    }
    cov.assert_every_path();
}

#[test]
#[ignore = "many-seed sweep: run in release from verify.sh"]
fn inline_form_matches_the_bigint_reference_on_many_seeds() {
    let mut cov = Coverage::default();
    for seed in 0..64 {
        run_seed(seed, 500, &mut cov);
        run_conversions(seed, 40);
    }
    cov.assert_every_path();
}

#[test]
fn rationals_fit_three_words() {
    assert_eq!(std::mem::size_of::<Rational>(), 24);
    assert_eq!(std::mem::size_of::<DeltaRational>(), 48);
}

#[test]
fn boundary_values_keep_their_form_under_negation_and_reciprocal() {
    // `i64::MIN` has no inline negation, so it is boxed from the start and
    // its negation, 2⁶³, stays boxed; `-(2⁶³ − 1)` stays inline.
    let min = Rational::from(i64::MIN);
    assert_eq!(min.to_string(), "-9223372036854775808");
    assert_eq!((-&min).to_string(), "9223372036854775808");
    assert_eq!(-(-&min), min);
    let max = Rational::from(i64::MAX);
    assert_eq!(-(-&max), max);
    assert_eq!((-&max).recip(), Rational::new(-1, i64::MAX));
    assert_eq!(
        Rational::new(1, i64::MIN),
        Rational::new(-1, 1 << 62) / Rational::from(2)
    );
    assert_eq!(Rational::new(i64::MIN, i64::MIN), Rational::one());
    // A sum past 2⁶³ promotes, and subtracting back demotes to the same value.
    let over = &max + &Rational::one();
    assert_eq!(over.to_string(), "9223372036854775808");
    assert_eq!(&over - &Rational::one(), max);
    assert_eq!(hash_of(&(&over - &Rational::one())), hash_of(&max));
    assert_eq!(&(&over * &over) / &over, over);
    assert!(Rational::new(i64::MAX - 1, i64::MAX) > Rational::new(i64::MAX - 2, i64::MAX - 1));
}
