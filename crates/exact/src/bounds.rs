//! The exact-rational lower bounds driving the branch-and-bound oracles.
//!
//! These are the LP-relaxation-style bounds of the MILP formulations the
//! literature uses for setup scheduling (per-machine load plus setup
//! relaxation), specialized to the batch-setup model and kept in exact
//! rationals so the oracle's `lower`/`upper` sandwich never suffers
//! rounding. The unit suite pins each function against hand-computed values
//! on 3–5 job instances.

use bss_instance::Instance;
use bss_rational::Rational;

/// The average-load bound `(Σ_i s_i + Σ_j t_j) / m`: every class pays its
/// setup at least once somewhere, so total work over `m` machines is at
/// least the one-setup load.
#[must_use]
pub fn average_load(inst: &Instance) -> Rational {
    Rational::from(inst.total_load_once()) / Rational::from(inst.machines() as u64)
}

/// The setup-plus-job bound `max_j (s_{c(j)} + t_j)`: a job's pieces cannot
/// overlap themselves (preemptive and non-preemptive variants), and every
/// machine touching the job's class pays the setup first, so *some* machine
/// finishes no earlier than `s_{c(j)} + t_j`.
///
/// This is **not** a splittable bound — splittable jobs may run on several
/// machines in parallel.
#[must_use]
pub fn setup_job_bound(inst: &Instance) -> Rational {
    Rational::from(
        inst.jobs()
            .iter()
            .map(|j| inst.setup(j.class) + j.time)
            .max()
            .unwrap_or(0),
    )
}

/// The per-class splittable bound `max_i (s_i + P_i / m)`: class `i`'s work
/// `P_i` spreads over at most `m` machines, each of which pays `s_i` first.
#[must_use]
pub fn class_spread_bound(inst: &Instance) -> Rational {
    let m = Rational::from(inst.machines() as u64);
    (0..inst.num_classes())
        .map(|i| Rational::from(inst.setup(i)) + Rational::from(inst.class_proc(i)) / m)
        .fold(Rational::ZERO, Rational::max)
}

/// The Gale–Hoffman transportation bound for a fixed *coverage*.
///
/// `coverage[i]` is a bitmask of the machines that set up class `i` (classes
/// without work may have an empty mask). Writing `base_u = Σ_{i: u ∈ U_i}
/// s_i` for the committed setup load of machine `u`, a schedule with this
/// coverage finishing by `T` must satisfy, for every non-empty machine
/// subset `B`,
///
/// ```text
/// Σ_{u ∈ B} base_u  +  Σ_{i: U_i ⊆ B} P_i  ≤  |B| · T
/// ```
///
/// (classes entirely covered by `B` have nowhere else to run). The bound is
/// the max over `B` of the left side divided by `|B|`; by Gale–Hoffman it is
/// *exactly* the minimal feasible `T` of the splittable transportation
/// problem, so the splittable optimum is the minimum of this bound over all
/// coverages.
///
/// # Panics
/// Debug-panics if `coverage` does not have one mask per class; masks must
/// fit the machine count.
#[must_use]
pub fn coverage_gale_bound(inst: &Instance, coverage: &[u32]) -> Rational {
    debug_assert_eq!(coverage.len(), inst.num_classes());
    let m = inst.machines();
    let mut base = vec![0u64; m];
    for (i, &mask) in coverage.iter().enumerate() {
        debug_assert!(mask < (1u32 << m), "coverage mask beyond machine count");
        for (u, b) in base.iter_mut().enumerate() {
            if mask & (1 << u) != 0 {
                *b += inst.setup(i);
            }
        }
    }
    let mut best = Rational::ZERO;
    for sub in 1u32..(1 << m) {
        let mut num = 0u64;
        for (u, &b) in base.iter().enumerate() {
            if sub & (1 << u) != 0 {
                num += b;
            }
        }
        for (i, &mask) in coverage.iter().enumerate() {
            if mask != 0 && mask & !sub == 0 {
                num += inst.class_proc(i);
            }
        }
        let ratio = Rational::from(num) / Rational::from(sub.count_ones() as u64);
        best = best.max(ratio);
    }
    best
}

/// The instance-only splittable root bound
/// `max(average_load, class_spread_bound)` — a valid lower bound on the
/// splittable optimum before any coverage is fixed, used as the oracle's
/// `lower` when the node budget runs out at the root.
#[must_use]
pub fn splittable_root_bound(inst: &Instance) -> Rational {
    average_load(inst).max(class_spread_bound(inst))
}

/// The non-preemptive root bound `max(average_load, setup_job_bound)` (the
/// preemptive optimum shares it, by `OPT_pmtn ≤ OPT_nonp` on the upper side
/// and the same two relaxations on the lower side).
#[must_use]
pub fn nonpreemptive_root_bound(inst: &Instance) -> Rational {
    average_load(inst).max(setup_job_bound(inst))
}

#[cfg(test)]
mod tests {
    use bss_instance::InstanceBuilder;

    use super::*;

    /// `m = 2`; class A: setup 5, jobs [3, 7]; class B: setup 4, jobs [6].
    fn two_class_instance() -> Instance {
        let mut b = InstanceBuilder::new(2);
        b.add_batch(5, &[3, 7]);
        b.add_batch(4, &[6]);
        b.build().unwrap()
    }

    /// `m = 3`; class A: setup 2, jobs [9]; class B: setup 1, jobs [1, 1].
    fn three_machine_instance() -> Instance {
        let mut b = InstanceBuilder::new(3);
        b.add_batch(2, &[9]);
        b.add_batch(1, &[1, 1]);
        b.build().unwrap()
    }

    #[test]
    fn average_load_pins_to_hand_computed_rationals() {
        // (5 + 4 + 3 + 7 + 6) / 2.
        assert_eq!(average_load(&two_class_instance()), Rational::new(25, 2));
        // (2 + 1 + 9 + 1 + 1) / 3.
        assert_eq!(
            average_load(&three_machine_instance()),
            Rational::new(14, 3)
        );
    }

    #[test]
    fn setup_job_bound_pins_to_hand_computed_values() {
        // max(5+3, 5+7, 4+6).
        assert_eq!(
            setup_job_bound(&two_class_instance()),
            Rational::from(12u64)
        );
        // max(2+9, 1+1) — the lone heavy job dominates.
        assert_eq!(
            setup_job_bound(&three_machine_instance()),
            Rational::from(11u64)
        );
    }

    #[test]
    fn class_spread_bound_pins_to_hand_computed_rationals() {
        // max(5 + 10/2, 4 + 6/2) = max(10, 7).
        assert_eq!(
            class_spread_bound(&two_class_instance()),
            Rational::from(10u64)
        );
        // max(2 + 9/3, 1 + 2/3) = max(5, 5/3).
        assert_eq!(
            class_spread_bound(&three_machine_instance()),
            Rational::from(5u64)
        );
    }

    #[test]
    fn root_bounds_take_the_right_maximum() {
        // Splittable: average 25/2 beats the spread 10; non-preemptive:
        // average 25/2 beats the job bound 12.
        let inst = two_class_instance();
        assert_eq!(splittable_root_bound(&inst), Rational::new(25, 2));
        assert_eq!(nonpreemptive_root_bound(&inst), Rational::new(25, 2));
        // Three machines flip both winners: spread 5 > average 14/3, and
        // the heavy job 11 dominates the non-preemptive side.
        let inst = three_machine_instance();
        assert_eq!(splittable_root_bound(&inst), Rational::from(5u64));
        assert_eq!(nonpreemptive_root_bound(&inst), Rational::from(11u64));
    }

    #[test]
    fn coverage_gale_bound_pins_to_hand_computed_values() {
        // Class A (setup 5, P = 10) on both machines, class B (setup 4,
        // P = 6) on machine 0 only: base = [9, 5]; the binding subsets are
        // {0} with (9 + 6)/1 and {0,1} with (14 + 16)/2 — both 15.
        let inst = two_class_instance();
        assert_eq!(
            coverage_gale_bound(&inst, &[0b11, 0b01]),
            Rational::from(15u64)
        );
        // Everything on machine 0: the whole one-setup load serializes.
        assert_eq!(
            coverage_gale_bound(&inst, &[0b01, 0b01]),
            Rational::from(25u64)
        );
        // Split coverage A→{0}, B→{1}: base = [5, 4]; subsets {0}: 15,
        // {1}: 10, {0,1}: 25/2 — machine 0 binds.
        assert_eq!(
            coverage_gale_bound(&inst, &[0b01, 0b10]),
            Rational::from(15u64)
        );
    }

    /// Gale–Hoffman is exact per coverage, so minimizing it over all
    /// coverages must reproduce the splittable oracle's optimum.
    #[test]
    fn coverage_minimum_matches_the_splittable_oracle() {
        let inst = two_class_instance();
        let mut best: Option<Rational> = None;
        for a in 1u32..4 {
            for b in 1u32..4 {
                let bound = coverage_gale_bound(&inst, &[a, b]);
                best = Some(best.map_or(bound, |x: Rational| x.min(bound)));
            }
        }
        let ex = crate::solve_bss(
            &inst,
            bss_instance::Variant::Splittable,
            &crate::ExactConfig::default(),
        )
        .unwrap();
        assert_eq!(ex.status, crate::ExactStatus::Closed);
        assert_eq!(best.unwrap(), ex.upper);
    }
}
