//! 0/1 knapsack by dynamic programming — a test oracle.
//!
//! Used only in tests to certify the continuous solver: for
//! integral weights, `continuous optimum >= 0/1 optimum >= continuous optimum
//! - max profit`, and the two coincide when the greedy solution is integral.

/// Maximizes `Σ p_i x_i` over `x ∈ {0,1}^k` with `Σ w_i x_i <= capacity`.
///
/// Standard `O(k * capacity)` DP; intended for small oracle instances.
/// Returns `(best profit, chosen indices)`.
#[must_use]
pub fn knapsack_01(profits: &[u64], weights: &[u64], capacity: u64) -> (u64, Vec<usize>) {
    assert_eq!(profits.len(), weights.len());
    let cap = capacity as usize;
    let k = profits.len();
    // best[w] = max profit with weight budget w; keep[i][w] for reconstruction.
    let mut best = vec![0u64; cap + 1];
    let mut keep = vec![false; k * (cap + 1)];
    for i in 0..k {
        let wi = weights[i] as usize;
        if wi > cap {
            continue;
        }
        for w in (wi..=cap).rev() {
            let candidate = best[w - wi] + profits[i];
            if candidate > best[w] {
                best[w] = candidate;
                keep[i * (cap + 1) + w] = true;
            }
        }
    }
    // Reconstruct.
    let mut chosen = Vec::new();
    let mut w = cap;
    for i in (0..k).rev() {
        if keep[i * (cap + 1) + w] {
            chosen.push(i);
            w -= weights[i] as usize;
        }
    }
    chosen.reverse();
    (best[cap], chosen)
}

#[cfg(test)]
mod tests {
    use bss_rational::Rational;
    use proptest::prelude::*;

    use crate::{continuous_knapsack_in, CkItem};

    use super::*;

    #[test]
    fn classic_example() {
        let (v, chosen) = knapsack_01(&[60, 100, 120], &[10, 20, 30], 50);
        assert_eq!(v, 220);
        assert_eq!(chosen, vec![1, 2]);
    }

    #[test]
    fn zero_capacity() {
        let (v, chosen) = knapsack_01(&[5], &[1], 0);
        assert_eq!(v, 0);
        assert!(chosen.is_empty());
    }

    #[test]
    fn oversized_items_skipped() {
        let (v, chosen) = knapsack_01(&[10, 3], &[100, 2], 5);
        assert_eq!(v, 3);
        assert_eq!(chosen, vec![1]);
    }

    #[test]
    fn reconstruction_is_consistent() {
        let profits = [7, 2, 9, 4, 8];
        let weights = [3, 1, 4, 2, 3];
        let (v, chosen) = knapsack_01(&profits, &weights, 7);
        let w: u64 = chosen.iter().map(|&i| weights[i]).sum();
        let p: u64 = chosen.iter().map(|&i| profits[i]).sum();
        assert!(w <= 7);
        assert_eq!(p, v);
    }

    proptest! {
        /// Continuous relaxation dominates the integral optimum and is within
        /// one item's profit of it.
        #[test]
        fn prop_continuous_sandwiches_integral(
            data in proptest::collection::vec((1u64..30, 1u64..15), 1..10),
            capacity in 1u64..60,
        ) {
            let profits: Vec<u64> = data.iter().map(|d| d.0).collect();
            let weights: Vec<u64> = data.iter().map(|d| d.1).collect();
            let (dp_value, _) = knapsack_01(&profits, &weights, capacity);
            let items: Vec<CkItem> = data
                .iter()
                .map(|d| CkItem { profit: d.0, weight: Rational::from(d.1) })
                .collect();
            let (split, value) = continuous_knapsack_in(
                &items,
                Rational::from(capacity),
                &mut Vec::new(),
                &mut Vec::new(),
            );
            prop_assert!(value >= Rational::from(dp_value));
            let pmax = profits.iter().copied().max().unwrap_or(0);
            prop_assert!(value <= Rational::from(dp_value + pmax));
            // Integral greedy solutions are optimal for the relaxation, hence
            // match the DP.
            if split.is_none() {
                prop_assert!(value.is_integer());
                prop_assert!(value <= Rational::from(dp_value));
            }
        }
    }
}
