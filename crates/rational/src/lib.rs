//! Exact rational arithmetic for scheduling times.
//!
//! Every makespan guess, job-piece length and start time produced by the
//! algorithms of Deppert & Jansen (SPAA 2019) is a rational number: the
//! Class-Jumping searches probe values such as `2*P_f / (beta_f + k)`, the
//! continuous knapsack splits one item at a rational fraction, and Batch
//! Wrapping splits jobs at rational gap borders. Floating point would make the
//! accept/reject decisions of the dual approximation tests unreliable, so this
//! crate provides a small, exact, always-reduced rational type over `i128`.
//!
//! The companion instance model bounds all inputs so that `N = sum(s) + sum(t)
//! <= 2^60`; with reduced representations every product formed by the
//! algorithms stays far below `i128::MAX`, and all arithmetic here is checked:
//! an overflow panics instead of silently wrapping.
//!
//! Reduction is word-sized wherever the values allow it: [`gcd`], and the
//! division by it in [`Rational::new`], run on `u64` when both operands fit
//! in 64 bits (the solvers' common case) and fall back to an exact
//! `u128`/`i128` path otherwise. [`gcd`] panics on a negative operand rather
//! than looping.

mod rational;
mod raw;

pub use rational::{ParseRationalError, Rational};
pub use raw::RawRational;

/// Greatest common divisor of two non-negative `i128` values.
///
/// `gcd(0, x) == x` and `gcd(0, 0) == 0`.
///
/// When both operands fit in `u64`, one remainder step (the larger operand
/// modulo the smaller, typically a small denominator) precedes a binary gcd
/// on `u64`; wider operands run the binary gcd on `u128`.
///
/// # Panics
/// Panics if either operand is negative.
#[must_use]
#[inline]
pub fn gcd(a: i128, b: i128) -> i128 {
    // `a | b` is negative when either operand is, so this one test both
    // selects word-sized operands and keeps negative ones off the fast path.
    if (a | b) as u128 <= u128::from(u64::MAX) {
        let (a, b) = (a as u64, b as u64);
        let (small, large) = if a < b { (a, b) } else { (b, a) };
        // A wide time modulo a small denominator leaves a remainder below
        // that denominator, so the binary loop runs a few iterations, not
        // dozens. Operands 0 and 1 go straight to the loop's shortcuts.
        let rest = if small <= 1 { large } else { large % small };
        return i128::from(binary_gcd_u64(small, rest));
    }
    assert!(
        a >= 0 && b >= 0,
        "gcd expects non-negative inputs, got {a} and {b}"
    );
    binary_gcd_u128(a as u128, b as u128) as i128
}

/// Defines a binary gcd over one unsigned width, so that the `u64` and
/// `u128` paths share a single loop body.
macro_rules! binary_gcd {
    ($name:ident, $t:ty) => {
        #[inline]
        fn $name(mut a: $t, mut b: $t) -> $t {
            if a == 0 {
                return b;
            }
            if b == 0 {
                return a;
            }
            // Unit operands dominate the scheduling hot paths
            // (integer-valued rationals); skip the loop for them.
            if a == 1 || b == 1 {
                return 1;
            }
            let shift = (a | b).trailing_zeros();
            a >>= a.trailing_zeros();
            loop {
                b >>= b.trailing_zeros();
                if a > b {
                    core::mem::swap(&mut a, &mut b);
                }
                b -= a;
                if b == 0 {
                    return a << shift;
                }
            }
        }
    };
}

binary_gcd!(binary_gcd_u64, u64);
binary_gcd!(binary_gcd_u128, u128);

#[cfg(test)]
pub(crate) mod gcd_tests {
    use super::gcd;

    /// Reference gcd: plain Euclid on `u128`, sharing no code with [`gcd`].
    pub(crate) fn euclid(mut a: u128, mut b: u128) -> u128 {
        while b != 0 {
            (a, b) = (b, a % b);
        }
        a
    }

    /// Operand pairs straddling the `u64`/`u128` boundary: every pair of a
    /// table of edge values (powers of two, `2^64 ± 1`, primes near `2^61`
    /// and their products), plus seeded random pairs on both sides of
    /// `2^64`, some scaled by a shared factor. Every value is below `2^127`.
    pub(crate) fn boundary_pairs() -> Vec<(u128, u128)> {
        let primes = [
            (1u128 << 61) - 31,
            (1u128 << 61) - 1,
            (1u128 << 61) + 15,
            (1u128 << 61) + 21,
        ];
        let mut edges = vec![0, 3, u128::from(u64::MAX), (1 << 64) + 1];
        edges.extend((0..=126).map(|k| 1u128 << k));
        edges.extend(primes);
        edges.extend([
            primes[0] * primes[1],
            primes[1] * primes[2],
            primes[2] * primes[3],
        ]);
        let mut pairs: Vec<(u128, u128)> = edges
            .iter()
            .flat_map(|&a| edges.iter().map(move |&b| (a, b)))
            .collect();

        // SplitMix64, seeded: the pairs are the same on every run.
        let mut state = 0x5eed_u64;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            u128::from(z ^ (z >> 31))
        };
        let mut draw = |bits: u32| ((next() << 64) | next()) >> (128 - bits);
        for _ in 0..2000 {
            let (bits_a, bits_b) = (1 + (draw(7) as u32) % 126, 1 + (draw(7) as u32) % 126);
            let (a, b) = (draw(bits_a), draw(bits_b));
            pairs.push((a, b));
            // A shared factor, kept below 2^126 so the product stays in range.
            let bits_f = 1 + (draw(6) as u32) % 40;
            let f = draw(bits_f).max(1);
            if let (Some(fa), Some(fb)) = (a.checked_mul(f), b.checked_mul(f)) {
                if fa.max(fb) < 1 << 126 {
                    pairs.push((fa, fb));
                }
            }
        }
        pairs
    }

    #[test]
    fn gcd_basics() {
        assert_eq!(gcd(0, 0), 0);
        assert_eq!(gcd(0, 7), 7);
        assert_eq!(gcd(7, 0), 7);
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(17, 13), 1);
        assert_eq!(gcd(1 << 40, 1 << 20), 1 << 20);
    }

    #[test]
    fn gcd_divides_both() {
        for a in 1..60i128 {
            for b in 1..60i128 {
                let g = gcd(a, b);
                assert_eq!(a % g, 0);
                assert_eq!(b % g, 0);
            }
        }
    }

    #[test]
    fn gcd_matches_euclid_across_the_word_boundary() {
        let pairs = boundary_pairs();
        assert!(pairs
            .iter()
            .any(|&(a, b)| a.max(b) <= u128::from(u64::MAX) && a.min(b) > 1));
        assert!(pairs.iter().any(|&(a, b)| a.min(b) > u128::from(u64::MAX)));
        for (a, b) in pairs {
            assert_eq!(
                gcd(a as i128, b as i128) as u128,
                euclid(a, b),
                "gcd({a}, {b})"
            );
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn gcd_panics_on_a_negative_operand() {
        let _ = gcd(-4, 6);
    }
}
