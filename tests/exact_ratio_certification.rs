//! Ratio certification against exact optima.
//!
//! On tiny instances the branch-and-bound oracle computes the exact
//! non-preemptive optimum. Since `OPT_split <= OPT_pmtn <= OPT_nonp`, every
//! variant's 3/2 algorithm must satisfy `makespan <= 1.5 · OPT_nonp` — and the
//! searches' *accepted guesses* must stay `<= OPT_nonp` (for the
//! non-preemptive variant this is exactly the `T* <= OPT` optimality property
//! behind Theorem 8).

use batch_setup_scheduling::exact::{solve_bss, ExactConfig};
use batch_setup_scheduling::prelude::*;

const SEEDS: u64 = 200;

fn tiny_with_opt() -> impl Iterator<Item = (Instance, Rational)> {
    (0..SEEDS).filter_map(|seed| {
        let inst = batch_setup_scheduling::gen::tiny(seed);
        let cfg = ExactConfig {
            max_jobs: 14,
            ..ExactConfig::default()
        };
        let opt = solve_bss(&inst, Variant::NonPreemptive, &cfg).ok()?.opt()?;
        Some((inst, opt))
    })
}

#[test]
fn three_halves_within_bound_of_exact_opt() {
    for (inst, opt) in tiny_with_opt() {
        for variant in Variant::ALL {
            let sol = solve(&inst, variant, Algorithm::ThreeHalves);
            assert!(validate(sol.schedule(), &inst, variant).is_empty());
            assert!(
                sol.makespan <= opt * Rational::new(3, 2),
                "{variant}: makespan {} > 1.5 * OPT {} (n={}, m={})",
                sol.makespan,
                opt,
                inst.num_jobs(),
                inst.machines()
            );
        }
    }
}

#[test]
fn accepted_guesses_do_not_exceed_opt() {
    for (inst, opt) in tiny_with_opt() {
        for variant in Variant::ALL {
            let sol = solve(&inst, variant, Algorithm::ThreeHalves);
            assert!(
                sol.accepted <= opt,
                "{variant}: accepted {} > OPT_nonp {}",
                sol.accepted,
                opt
            );
        }
    }
}

#[test]
fn two_approx_within_factor_two_of_exact_opt() {
    for (inst, opt) in tiny_with_opt() {
        for variant in Variant::ALL {
            let sol = solve(&inst, variant, Algorithm::TwoApprox);
            assert!(validate(sol.schedule(), &inst, variant).is_empty());
            assert!(
                sol.makespan <= opt * 2u64,
                "{variant}: makespan {} > 2 * OPT {}",
                sol.makespan,
                opt
            );
        }
    }
}

#[test]
fn epsilon_search_respects_inflated_bound() {
    let eps = Rational::new(1, 1 << 7);
    for (inst, opt) in tiny_with_opt() {
        for variant in Variant::ALL {
            let sol = solve(&inst, variant, Algorithm::EpsilonSearch { eps_log2: 7 });
            assert!(validate(sol.schedule(), &inst, variant).is_empty());
            let bound = opt * Rational::new(3, 2) * (eps + 1u64);
            assert!(
                sol.makespan <= bound,
                "{variant}: makespan {} > (3/2)(1+eps) * OPT {}",
                sol.makespan,
                opt
            );
        }
    }
}

#[test]
fn certificates_are_true_lower_bounds() {
    for (inst, opt) in tiny_with_opt() {
        for variant in Variant::ALL {
            for algo in [
                Algorithm::TwoApprox,
                Algorithm::EpsilonSearch { eps_log2: 7 },
                Algorithm::ThreeHalves,
            ] {
                let sol = solve(&inst, variant, algo);
                // certificate <= OPT_variant <= OPT_nonp.
                assert!(
                    sol.certificate <= opt,
                    "{variant} {algo:?}: certificate {} > OPT {}",
                    sol.certificate,
                    opt
                );
            }
        }
    }
}

/// The exact optimum respects the instance lower bounds (Notes 1-2, Lemma 1)
/// and the 2-approximation window of Theorem 1.
#[test]
fn exact_opt_sits_in_the_certified_window() {
    for (inst, opt) in tiny_with_opt() {
        let lb = LowerBounds::of(&inst);
        let t_min = lb.tmin(Variant::NonPreemptive);
        assert!(opt >= t_min);
        assert!(opt <= t_min * 2u64);
        assert!(opt > Rational::from(lb.smax));
    }
}
