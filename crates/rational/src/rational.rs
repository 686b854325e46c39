//! The [`Rational`] number type.

use core::cmp::Ordering;
use core::fmt;
use core::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};
use core::str::FromStr;

use bss_json::{Field, FromJson, JsonError, JsonReader, JsonWriter, ToJson};

use crate::gcd;

/// An exact rational number `num / den` with `den > 0` and `gcd(|num|, den) == 1`.
///
/// All arithmetic is checked: overflow of the underlying `i128` representation
/// panics. The scheduling instance model keeps all inputs below `2^60`, which
/// leaves ample headroom for the products formed by the algorithms.
///
/// ```
/// use bss_rational::Rational;
///
/// let half = Rational::new(1, 2);
/// let third = Rational::new(1, 3);
/// assert_eq!(half + third, Rational::new(5, 6));
/// assert!(half > third);
/// assert_eq!((half * Rational::from(4)).to_string(), "2");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rational {
    num: i128,
    den: i128,
}

impl ToJson for Rational {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object(|o| {
            o.key("num").int(self.num);
            o.key("den").int(self.den);
        });
    }
}

impl Rational {
    /// Largest `|numerator|` accepted from the JSON wire format.
    ///
    /// Together with [`Rational::MAX_WIRE_DEN`] this keeps every pairwise
    /// comparison (`num * den` cross-multiplication, at most `2^126`) inside
    /// `i128`, so exact arithmetic on decoded values cannot overflow before
    /// a validator gets the chance to inspect them. The system itself emits
    /// values far below these bounds (numerators up to `~2^60`, denominators
    /// up to small multiples of the machine count).
    pub const MAX_WIRE_NUM: i128 = 1 << 94;
    /// Largest denominator accepted from the JSON wire format.
    pub const MAX_WIRE_DEN: i128 = 1 << 32;

    /// The one bound check for decoded rationals: `den ∈ [1, 2^32]` and
    /// `|num| ≤ 2^94`, then reduced. Every JSON decoder of a rational calls
    /// it, whatever shape carried the two integers.
    ///
    /// # Errors
    /// A decode-kind [`JsonError`] when either bound is violated.
    pub fn from_wire(num: i128, den: i128) -> Result<Rational, JsonError> {
        if den <= 0 || den > Rational::MAX_WIRE_DEN {
            return Err(JsonError::new(format!(
                "Rational.den must be in [1, 2^32], got {den}"
            )));
        }
        // The magnitude bound also excludes `i128::MIN`, on which
        // `Rational::new` panics.
        if !(-Rational::MAX_WIRE_NUM..=Rational::MAX_WIRE_NUM).contains(&num) {
            return Err(JsonError::new("Rational.num out of range (|num| > 2^94)"));
        }
        Ok(Rational::new(num, den))
    }
}

impl FromJson for Rational {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, JsonError> {
        let (mut num, mut den) = (Field::default(), Field::default());
        r.object("num", |key, r| match key {
            "num" => num.read_with(r, |r| r.int("Rational.num")),
            "den" => den.read_with(r, |r| r.int("Rational.den")),
            _ => r.skip(),
        })?;
        Rational::from_wire(num.required("num")?, den.required("den")?)
    }
}

impl Rational {
    /// The value `0`.
    pub const ZERO: Rational = Rational { num: 0, den: 1 };
    /// The value `1`.
    pub const ONE: Rational = Rational { num: 1, den: 1 };

    /// Creates a reduced rational from a numerator and a non-zero denominator.
    ///
    /// # Panics
    /// Panics if `den == 0`, and with "Rational overflow" if either part is
    /// `i128::MIN`, which has no positive counterpart to normalize to.
    #[must_use]
    #[inline]
    pub fn new(num: i128, den: i128) -> Self {
        assert!(den != 0, "Rational denominator must be non-zero");
        assert!(
            num != i128::MIN && den != i128::MIN,
            "Rational overflow: i128::MIN part"
        );
        let (num, den) = if den < 0 { (-num, -den) } else { (num, den) };
        // Hot-path shortcuts: integral and zero values need no gcd at all
        // (the scheduling algorithms form integral values constantly).
        if den == 1 {
            return Rational { num, den: 1 };
        }
        if num == 0 {
            return Rational::ZERO;
        }
        let mag = num.unsigned_abs();
        // Word-sized parts, the solvers' common case, reduce with `u64`
        // division; `i128` division is a library call.
        if let (Ok(m), Ok(d)) = (u64::try_from(mag), u64::try_from(den)) {
            let g = gcd(i128::from(m), i128::from(d)) as u64;
            if g == 1 {
                return Rational { num, den };
            }
            let m = i128::from(m / g);
            return Rational {
                num: if num < 0 { -m } else { m },
                den: i128::from(d / g),
            };
        }
        let g = gcd(mag as i128, den);
        Rational {
            num: num / g,
            den: den / g,
        }
    }

    /// Creates an integral rational.
    #[must_use]
    pub const fn from_int(v: i128) -> Self {
        Rational { num: v, den: 1 }
    }

    /// The numerator of the reduced representation.
    #[must_use]
    pub const fn numer(&self) -> i128 {
        self.num
    }

    /// The (positive) denominator of the reduced representation.
    #[must_use]
    pub const fn denom(&self) -> i128 {
        self.den
    }

    /// `true` iff the value is zero.
    #[must_use]
    pub const fn is_zero(&self) -> bool {
        self.num == 0
    }

    /// `true` iff the value is strictly positive.
    #[must_use]
    pub const fn is_positive(&self) -> bool {
        self.num > 0
    }

    /// `true` iff the value is strictly negative.
    #[must_use]
    pub const fn is_negative(&self) -> bool {
        self.num < 0
    }

    /// `true` iff the value is an integer.
    #[must_use]
    pub const fn is_integer(&self) -> bool {
        self.den == 1
    }

    /// Largest integer `<= self`.
    #[must_use]
    pub fn floor(&self) -> i128 {
        if self.num >= 0 {
            self.num / self.den
        } else {
            (self.num - (self.den - 1)) / self.den
        }
    }

    /// Smallest integer `>= self`.
    #[must_use]
    pub fn ceil(&self) -> i128 {
        if self.num > 0 {
            (self.num + (self.den - 1)) / self.den
        } else {
            self.num / self.den
        }
    }

    /// Absolute value.
    #[must_use]
    pub fn abs(&self) -> Self {
        Rational {
            num: self.num.abs(),
            den: self.den,
        }
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    /// Panics if the value is zero.
    #[must_use]
    #[inline]
    pub fn recip(&self) -> Self {
        assert!(self.num != 0, "cannot invert zero");
        // The reciprocal of a reduced fraction is reduced; only the sign
        // moves to the numerator.
        if self.num < 0 {
            Rational {
                num: -self.den,
                den: -self.num,
            }
        } else {
            Rational {
                num: self.den,
                den: self.num,
            }
        }
    }

    /// `self / 2` — the half-threshold `T/2` shows up throughout the paper.
    ///
    /// Gcd-free: for a reduced `num/den`, either `num` is even (then
    /// `num/2 / den` is reduced) or `num` is odd (then `num / 2den` is —
    /// `gcd(num, 2) = 1` and `gcd(num, den) = 1`).
    #[must_use]
    #[inline]
    pub fn half(&self) -> Self {
        if self.num % 2 == 0 {
            Rational {
                num: self.num / 2,
                den: self.den,
            }
        } else {
            Rational {
                num: self.num,
                den: self.den.checked_mul(2).expect("Rational overflow"),
            }
        }
    }

    /// Smaller of two values.
    #[must_use]
    pub fn min(self, other: Self) -> Self {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Larger of two values.
    #[must_use]
    pub fn max(self, other: Self) -> Self {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Lossy conversion for rendering and statistics; never used in the
    /// algorithms' accept/reject decisions.
    #[must_use]
    pub fn to_f64(&self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Overflow-aware addition: `None` instead of the panic of `+`. Used by
    /// consumers of untrusted data (e.g. schedule validation) that must
    /// degrade to an error report rather than abort.
    #[inline]
    pub fn checked_add(self, rhs: Self) -> Option<Self> {
        // Fast paths: integral values add without any gcd, and equal
        // denominators need only the final reduction.
        if self.den == rhs.den {
            let num = self.num.checked_add(rhs.num)?;
            if self.den == 1 {
                return Some(Rational { num, den: 1 });
            }
            return Some(Rational::new(num, self.den));
        }
        // Integer + fraction needs no gcd either: for reduced `a/b`,
        // `gcd(a + c·b, b) = gcd(a, b) = 1`, so the sum is already canonical.
        if rhs.den == 1 {
            let num = self.num.checked_add(rhs.num.checked_mul(self.den)?)?;
            return Some(Rational { num, den: self.den });
        }
        if self.den == 1 {
            let num = rhs.num.checked_add(self.num.checked_mul(rhs.den)?)?;
            return Some(Rational { num, den: rhs.den });
        }
        // a/b + c/d = (a*(lcm/b) + c*(lcm/d)) / lcm, computed via the gcd of
        // the denominators to keep intermediates small.
        let g = gcd(self.den, rhs.den);
        let lhs_scale = rhs.den / g;
        let rhs_scale = self.den / g;
        let num = self
            .num
            .checked_mul(lhs_scale)?
            .checked_add(rhs.num.checked_mul(rhs_scale)?)?;
        let den = self.den.checked_mul(lhs_scale)?;
        Some(Rational::new(num, den))
    }

    #[inline]
    fn checked_mul_r(self, rhs: Self) -> Option<Self> {
        // Fast path: integer times integer never needs a gcd.
        if self.den == 1 && rhs.den == 1 {
            return Some(Rational {
                num: self.num.checked_mul(rhs.num)?,
                den: 1,
            });
        }
        // Cross-reduce before multiplying to keep intermediates small. The
        // cross-reduced product of two reduced fractions is itself reduced
        // (each remaining numerator factor is coprime to both denominator
        // factors), so it can be constructed directly — no further gcd. A
        // zero stays canonical: `0/1` forces `g1 = rhs.den`, `g2 = 1`.
        let g1 = gcd(self.num.unsigned_abs() as i128, rhs.den);
        let g2 = gcd(rhs.num.unsigned_abs() as i128, self.den);
        let num = (self.num / g1).checked_mul(rhs.num / g2)?;
        let den = (self.den / g2).checked_mul(rhs.den / g1)?;
        Some(Rational { num, den })
    }
}

impl Default for Rational {
    fn default() -> Self {
        Rational::ZERO
    }
}

impl From<i128> for Rational {
    #[inline]
    fn from(v: i128) -> Self {
        Rational::from_int(v)
    }
}

impl From<i64> for Rational {
    #[inline]
    fn from(v: i64) -> Self {
        Rational::from_int(v as i128)
    }
}

impl From<u64> for Rational {
    #[inline]
    fn from(v: u64) -> Self {
        Rational::from_int(v as i128)
    }
}

impl From<u32> for Rational {
    #[inline]
    fn from(v: u32) -> Self {
        Rational::from_int(v as i128)
    }
}

impl From<i32> for Rational {
    #[inline]
    fn from(v: i32) -> Self {
        Rational::from_int(v as i128)
    }
}

impl From<usize> for Rational {
    #[inline]
    fn from(v: usize) -> Self {
        Rational::from_int(v as i128)
    }
}

impl PartialOrd for Rational {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        // Equal denominators (in particular integer vs integer) compare by
        // numerator alone — the search loops hit this path constantly.
        if self.den == other.den {
            return self.num.cmp(&other.num);
        }
        // a/b ? c/d  <=>  a*d ? c*b  (b, d > 0)
        let lhs = self.num.checked_mul(other.den).expect("Rational overflow");
        let rhs = other.num.checked_mul(self.den).expect("Rational overflow");
        lhs.cmp(&rhs)
    }
}

impl Add for Rational {
    type Output = Rational;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        self.checked_add(rhs).expect("Rational overflow in add")
    }
}

impl Sub for Rational {
    type Output = Rational;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        self.checked_add(-rhs).expect("Rational overflow in sub")
    }
}

impl Mul for Rational {
    type Output = Rational;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        self.checked_mul_r(rhs).expect("Rational overflow in mul")
    }
}

impl Div for Rational {
    type Output = Rational;
    #[inline]
    fn div(self, rhs: Self) -> Self {
        assert!(rhs.num != 0, "Rational division by zero");
        self.checked_mul_r(rhs.recip())
            .expect("Rational overflow in div")
    }
}

impl Neg for Rational {
    type Output = Rational;
    #[inline]
    fn neg(self) -> Self {
        Rational {
            num: -self.num,
            den: self.den,
        }
    }
}

impl AddAssign for Rational {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl SubAssign for Rational {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl MulAssign for Rational {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl DivAssign for Rational {
    #[inline]
    fn div_assign(&mut self, rhs: Self) {
        *self = *self / rhs;
    }
}

macro_rules! scalar_ops {
    ($($t:ty),*) => {$(
        impl Add<$t> for Rational {
            type Output = Rational;
            fn add(self, rhs: $t) -> Rational { self + Rational::from(rhs) }
        }
        impl Sub<$t> for Rational {
            type Output = Rational;
            fn sub(self, rhs: $t) -> Rational { self - Rational::from(rhs) }
        }
        impl Mul<$t> for Rational {
            type Output = Rational;
            fn mul(self, rhs: $t) -> Rational { self * Rational::from(rhs) }
        }
        impl Div<$t> for Rational {
            type Output = Rational;
            fn div(self, rhs: $t) -> Rational { self / Rational::from(rhs) }
        }
        impl AddAssign<$t> for Rational {
            fn add_assign(&mut self, rhs: $t) { *self = *self + rhs; }
        }
        impl SubAssign<$t> for Rational {
            fn sub_assign(&mut self, rhs: $t) { *self = *self - rhs; }
        }
    )*};
}

scalar_ops!(i128, i32, u64, u32, usize);

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl fmt::Debug for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// Error returned by [`Rational::from_str`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRationalError(String);

impl fmt::Display for ParseRationalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid rational literal: {}", self.0)
    }
}

impl std::error::Error for ParseRationalError {}

impl FromStr for Rational {
    type Err = ParseRationalError;

    /// Parses `"a"` or `"a/b"`; a part equal to `i128::MIN` is rejected, as
    /// [`Rational::new`] would panic on it.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let bad = || ParseRationalError(s.to_owned());
        let part = |p: &str| match p.trim().parse::<i128>() {
            Ok(v) if v != i128::MIN => Ok(v),
            _ => Err(bad()),
        };
        match s.split_once('/') {
            None => part(s).map(Rational::from_int),
            Some((n, d)) => {
                let (num, den) = (part(n)?, part(d)?);
                if den == 0 {
                    return Err(bad());
                }
                Ok(Rational::new(num, den))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gcd_tests::euclid;
    use proptest::prelude::*;

    #[test]
    fn reduction_and_sign_normalization() {
        assert_eq!(Rational::new(2, 4), Rational::new(1, 2));
        assert_eq!(Rational::new(-2, -4), Rational::new(1, 2));
        assert_eq!(Rational::new(2, -4), Rational::new(-1, 2));
        assert_eq!(Rational::new(0, -5), Rational::ZERO);
        assert_eq!(Rational::new(6, 3).denom(), 1);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_denominator_panics() {
        let _ = Rational::new(1, 0);
    }

    #[test]
    #[should_panic(expected = "Rational overflow")]
    fn min_numerator_panics() {
        let _ = Rational::new(i128::MIN, 3);
    }

    #[test]
    #[should_panic(expected = "Rational overflow")]
    fn min_denominator_panics() {
        let _ = Rational::new(5, i128::MIN);
    }

    #[test]
    fn new_matches_reference_reduction_across_the_word_boundary() {
        for (n, d) in crate::gcd_tests::boundary_pairs() {
            if d == 0 {
                continue;
            }
            let g = euclid(n, d);
            let (rn, rd) = ((n / g) as i128, (d / g) as i128);
            for (sn, sd) in [(1, 1), (-1, 1), (1, -1), (-1, -1)] {
                let r = Rational::new(sn * n as i128, sd * d as i128);
                let expected = if rn == 0 { (0, 1) } else { (sn * sd * rn, rd) };
                assert_eq!(
                    (r.numer(), r.denom()),
                    expected,
                    "new({}, {})",
                    sn * n as i128,
                    sd * d as i128
                );
            }
        }
    }

    #[test]
    fn ordering() {
        let vals = [
            Rational::new(-3, 2),
            Rational::new(-1, 3),
            Rational::ZERO,
            Rational::new(1, 3),
            Rational::new(1, 2),
            Rational::ONE,
            Rational::new(7, 2),
        ];
        for w in vals.windows(2) {
            assert!(w[0] < w[1], "{} < {}", w[0], w[1]);
        }
    }

    #[test]
    fn floor_ceil() {
        assert_eq!(Rational::new(7, 2).floor(), 3);
        assert_eq!(Rational::new(7, 2).ceil(), 4);
        assert_eq!(Rational::new(-7, 2).floor(), -4);
        assert_eq!(Rational::new(-7, 2).ceil(), -3);
        assert_eq!(Rational::from_int(5).floor(), 5);
        assert_eq!(Rational::from_int(5).ceil(), 5);
        assert_eq!(Rational::ZERO.floor(), 0);
        assert_eq!(Rational::ZERO.ceil(), 0);
    }

    #[test]
    fn arithmetic_basics() {
        let a = Rational::new(3, 4);
        let b = Rational::new(5, 6);
        assert_eq!(a + b, Rational::new(19, 12));
        assert_eq!(a - b, Rational::new(-1, 12));
        assert_eq!(a * b, Rational::new(5, 8));
        assert_eq!(a / b, Rational::new(9, 10));
        assert_eq!(-a, Rational::new(-3, 4));
        assert_eq!(a.half(), Rational::new(3, 8));
        assert_eq!(a.recip(), Rational::new(4, 3));
    }

    #[test]
    fn scalar_ops() {
        let a = Rational::new(1, 2);
        assert_eq!(a + 1u64, Rational::new(3, 2));
        assert_eq!(a * 4u64, Rational::from_int(2));
        assert_eq!(a / 2u64, Rational::new(1, 4));
        assert_eq!(a - 1u64, Rational::new(-1, 2));
    }

    #[test]
    fn display_and_parse_roundtrip() {
        for s in ["0", "5", "-5", "1/2", "-7/3"] {
            let r: Rational = s.parse().unwrap();
            assert_eq!(r.to_string(), s);
        }
        assert!("1/0".parse::<Rational>().is_err());
        assert!("x".parse::<Rational>().is_err());
        // `Rational::new` panics on an `i128::MIN` part; parsing rejects it.
        let min = i128::MIN;
        for s in [format!("{min}"), format!("{min}/3"), format!("5/{min}")] {
            assert!(s.parse::<Rational>().is_err(), "{s}");
        }
    }

    #[test]
    fn json_roundtrip_and_rejections() {
        let r = Rational::new(-7, 3);
        assert_eq!(
            bss_json::decode::<Rational>(&bss_json::encode_pretty(&r)).unwrap(),
            r
        );
        // i128::MIN would wrap inside gcd; non-positive denominators are invalid.
        let min = i128::MIN;
        assert!(bss_json::decode::<Rational>(&format!(r#"{{"num": {min}, "den": 1}}"#)).is_err());
        assert!(bss_json::decode::<Rational>(r#"{"num": 1, "den": 0}"#).is_err());
        assert!(bss_json::decode::<Rational>(r#"{"num": 1, "den": -2}"#).is_err());
    }

    #[test]
    fn min_max() {
        let a = Rational::new(1, 3);
        let b = Rational::new(1, 2);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
    }

    fn arb_rational() -> impl Strategy<Value = Rational> {
        (-1_000_000i128..1_000_000, 1i128..1_000).prop_map(|(n, d)| Rational::new(n, d))
    }

    /// Values up to the wire bounds, `|num| <= 2^94` and `den <= 2^32`, with
    /// log-uniform magnitudes so that reduction runs on both sides of `2^64`.
    fn arb_wire_rational() -> impl Strategy<Value = Rational> {
        let (max_num, max_den) = (Rational::MAX_WIRE_NUM, Rational::MAX_WIRE_DEN);
        (0u32..=94, -max_num..=max_num, 0u32..=32, 1..=max_den).prop_map(
            |(num_bits, n, den_bits, d)| {
                Rational::new(n >> (94 - num_bits), (d >> (32 - den_bits)).max(1))
            },
        )
    }

    /// [`arb_rational`] or [`arb_wire_rational`], one half each.
    fn arb_small_or_wire() -> impl Strategy<Value = Rational> {
        (0u8..2, arb_rational(), arb_wire_rational())
            .prop_map(|(pick, small, wire)| if pick == 0 { small } else { wire })
    }

    proptest! {
        #[test]
        fn prop_add_commutative(a in arb_small_or_wire(), b in arb_small_or_wire()) {
            prop_assert_eq!(a + b, b + a);
        }

        // Only `a` reaches the wire bounds: a sum of three such values can
        // need a common denominator of 2^96, beyond `i128` headroom.
        #[test]
        fn prop_add_associative(a in arb_small_or_wire(), b in arb_rational(), c in arb_rational()) {
            prop_assert_eq!((a + b) + c, a + (b + c));
        }

        #[test]
        fn prop_mul_distributes(a in arb_rational(), b in arb_rational(), c in arb_rational()) {
            prop_assert_eq!(a * (b + c), a * b + a * c);
        }

        #[test]
        fn prop_sub_add_inverse(a in arb_small_or_wire(), b in arb_small_or_wire()) {
            prop_assert_eq!(a - b + b, a);
        }

        #[test]
        fn prop_div_mul_inverse(a in arb_rational(), b in arb_rational()) {
            prop_assume!(!b.is_zero());
            prop_assert_eq!(a / b * b, a);
        }

        #[test]
        fn prop_always_reduced(a in arb_small_or_wire()) {
            let g = euclid(a.numer().unsigned_abs(), a.denom().unsigned_abs());
            prop_assert!(g <= 1 || a.numer() == 0);
            prop_assert!(a.denom() > 0);
        }

        #[test]
        fn prop_floor_ceil_bracket(a in arb_rational()) {
            let f = Rational::from_int(a.floor());
            let c = Rational::from_int(a.ceil());
            prop_assert!(f <= a && a <= c);
            prop_assert!(c - f <= Rational::ONE);
            if a.is_integer() {
                prop_assert_eq!(f, c);
            }
        }

        #[test]
        fn prop_ordering_matches_f64(a in arb_small_or_wire(), b in arb_small_or_wire()) {
            // The f64 projection preserves strict order once the values are
            // further apart than its rounding error: under 1e-15 of their
            // magnitude, and below the 1e-6 floor for moderate values.
            let (x, y) = (a.to_f64(), b.to_f64());
            if (x - y).abs() > 1e-6_f64.max(1e-15 * (x.abs() + y.abs())) {
                prop_assert_eq!(a < b, x < y);
            }
        }

        #[test]
        fn prop_parse_roundtrip(a in arb_rational()) {
            let s = a.to_string();
            prop_assert_eq!(s.parse::<Rational>().unwrap(), a);
        }
    }
}
