//! Exact continuous (fractional) knapsack with split item.

use bss_rational::Rational;

/// An item of the continuous knapsack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CkItem {
    /// Profit `p_i` (a setup time in the scheduling application).
    pub profit: u64,
    /// Weight `w_i >= 0`.
    pub weight: Rational,
}

/// Solves the continuous knapsack exactly by the greedy ratio rule, into
/// caller-owned buffers (`order` is scratch, `x` receives `x_i ∈ [0, 1]` per
/// item, at most one of them fractional), and returns the split item
/// (`0 < x_e < 1`), if any, and the total profit `Σ p_i x_i`.
///
/// Items are taken in order of decreasing `p_i / w_i` (zero-weight items
/// first — they are free profit); the first item that does not fit becomes the
/// split item. Runs in `O(k log k)` for `k` items. A non-positive capacity
/// yields the all-zero solution. Once the buffers have grown to the item
/// count, repeated calls perform no heap allocation — this is what the dual
/// probes of the preemptive algorithm run on every guess.
pub fn continuous_knapsack_in(
    items: &[CkItem],
    capacity: Rational,
    order: &mut Vec<usize>,
    x: &mut Vec<Rational>,
) -> (Option<usize>, Rational) {
    x.clear();
    x.resize(items.len(), Rational::ZERO);
    if !capacity.is_positive() || items.is_empty() {
        return (None, Rational::ZERO);
    }
    order.clear();
    order.extend(0..items.len());
    // Decreasing p/w; zero-weight first. Compare p_a/w_a > p_b/w_b via
    // cross-multiplication (weights are non-negative rationals). The
    // index tiebreak makes the order total, so the in-place unstable sort
    // is deterministic (and, unlike a stable sort, buffer-free).
    order.sort_unstable_by(|&a, &b| {
        let (ia, ib) = (&items[a], &items[b]);
        let lhs = Rational::from(ia.profit) * ib.weight;
        let rhs = Rational::from(ib.profit) * ia.weight;
        rhs.cmp(&lhs).then(a.cmp(&b))
    });
    let mut remaining = capacity;
    let mut value = Rational::ZERO;
    let mut split = None;
    for &i in order.iter() {
        let item = &items[i];
        if item.weight <= remaining {
            x[i] = Rational::ONE;
            remaining -= item.weight;
            value += Rational::from(item.profit);
        } else {
            // remaining < weight, so weight > 0.
            if remaining.is_positive() {
                let frac = remaining / item.weight;
                x[i] = frac;
                value += Rational::from(item.profit) * frac;
                split = Some(i);
            }
            break;
        }
    }
    (split, value)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(v: i128) -> Rational {
        Rational::from_int(v)
    }

    fn item(profit: u64, weight: i128) -> CkItem {
        CkItem {
            profit,
            weight: r(weight),
        }
    }

    /// Runs the solver on fresh buffers: `(x, split, value)`.
    fn solve(items: &[CkItem], capacity: Rational) -> (Vec<Rational>, Option<usize>, Rational) {
        let mut x = Vec::new();
        let (split, value) = continuous_knapsack_in(items, capacity, &mut Vec::new(), &mut x);
        (x, split, value)
    }

    #[test]
    fn takes_best_ratio_first() {
        // ratios: 10/2=5, 9/3=3, 4/4=1
        let items = [item(10, 2), item(9, 3), item(4, 4)];
        let (x, split, value) = solve(&items, r(5));
        assert_eq!(x, vec![Rational::ONE, Rational::ONE, Rational::ZERO]);
        assert_eq!(value, r(19));
        assert_eq!(split, None);
    }

    #[test]
    fn split_item_fraction() {
        let items = [item(10, 2), item(9, 3)];
        let (x, split, value) = solve(&items, r(4));
        assert_eq!(x, vec![Rational::ONE, Rational::new(2, 3)]);
        assert_eq!(split, Some(1));
        assert_eq!(value, r(10) + r(6));
    }

    #[test]
    fn zero_weight_items_always_selected() {
        let items = [item(5, 0), item(1, 10)];
        let (x, _, _) = solve(&items, r(1));
        assert_eq!(x, vec![Rational::ONE, Rational::new(1, 10)]);
    }

    #[test]
    fn non_positive_capacity() {
        let items = [item(5, 1)];
        for cap in [r(0), r(-3)] {
            let (x, split, value) = solve(&items, cap);
            assert_eq!(x, vec![Rational::ZERO]);
            assert_eq!(split, None);
            assert_eq!(value, r(0));
        }
    }

    #[test]
    fn capacity_exceeding_total_weight_selects_all() {
        let items = [item(3, 2), item(4, 5)];
        let (x, split, value) = solve(&items, r(100));
        assert!(x.iter().all(|x| *x == Rational::ONE));
        assert_eq!(value, r(7));
        assert_eq!(split, None);
    }

    #[test]
    fn weight_conservation() {
        let items = [item(7, 4), item(3, 3), item(9, 5)];
        let cap = r(6);
        let (x, _, _) = solve(&items, cap);
        let used: Rational = items
            .iter()
            .zip(&x)
            .map(|(i, x)| i.weight * *x)
            .fold(Rational::ZERO, |a, b| a + b);
        assert_eq!(used, cap);
    }

    #[test]
    fn empty_items() {
        let (x, split, value) = solve(&[], r(5));
        assert!(x.is_empty());
        assert_eq!(split, None);
        assert_eq!(value, r(0));
    }

    #[test]
    fn reused_buffers_give_the_same_answer() {
        let (mut order, mut x) = (Vec::new(), Vec::new());
        let big = [item(10, 2), item(9, 3), item(4, 4)];
        continuous_knapsack_in(&big, r(5), &mut order, &mut x);
        let small = [item(10, 2), item(9, 3)];
        let got = continuous_knapsack_in(&small, r(4), &mut order, &mut x);
        assert_eq!(got, (Some(1), r(16)));
        assert_eq!(x, vec![Rational::ONE, Rational::new(2, 3)]);
    }
}
