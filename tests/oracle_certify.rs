//! The differential oracle suite: every algorithm, on every variant,
//! certified in exact rationals against the branch-and-bound optimum of
//! `bss-exact`.
//!
//! Two layers:
//!
//! * a **seeded** sweep over the tiny families (`bss_gen::tiny` and
//!   `bss_gen::seqdep::tiny_seqdep`), plus the hand-built instances that
//!   drive Algorithm 3 into its knapsack case (`bss_gen::paper::case_3a`),
//!   on which the oracle is *required* to close — every algorithm's
//!   schedule validates, `OPT <= achieved <= ratio_bound · OPT`, and the
//!   portfolio (whose exact arm engages on these shapes) returns exactly
//!   `OPT` with `ratio_bound` 1 and `certificate = OPT`;
//! * a **property** sweep over arbitrary oracle-sized instances. Closure
//!   is *not* required there — the preemptive branch-and-bound leaves an
//!   honest `lower < upper` sandwich on a fraction of random shapes — so
//!   the OPT-anchored equalities apply only when the search closes, while
//!   the sandwich invariants (`lower <= achieved`, `certificate <= upper`,
//!   valid schedules) hold unconditionally. The case count honors
//!   `BSS_PROPTEST_CASES` (CI's nightly job runs 1024 cases; the per-push
//!   default stays cheap).

use batch_setup_scheduling::exact::{solve_bss, solve_seqdep, ExactConfig, ExactStatus};
use batch_setup_scheduling::gen;
use batch_setup_scheduling::gen::seqdep::tiny_seqdep;
use batch_setup_scheduling::prelude::*;
use batch_setup_scheduling::seqdep::SeqDepInstance;
use proptest::prelude::*;

const SEEDS: u64 = 100;

/// The full algorithm roster under certification.
const ALGOS: [Algorithm; 4] = [
    Algorithm::TwoApprox,
    Algorithm::EpsilonSearch { eps_log2: 7 },
    Algorithm::ThreeHalves,
    Algorithm::Portfolio,
];

#[test]
fn bss_algorithms_certify_against_opt_on_seeded_tinies() {
    let tinies = (0..SEEDS).map(|seed| (format!("seed {seed}"), gen::tiny(seed)));
    // The seeded families never build Algorithm 3's knapsack case at an
    // accepted guess; these hand-built instances do.
    let case_3a = gen::paper::case_3a()
        .into_iter()
        .enumerate()
        .map(|(k, inst)| (format!("case_3a/{k}"), inst));
    for (label, inst) in tinies.chain(case_3a) {
        for variant in Variant::ALL {
            let ex = solve_bss(&inst, variant, &ExactConfig::default())
                .expect("tiny instances are within the oracle limits");
            assert_eq!(
                ex.status,
                ExactStatus::Closed,
                "{variant} {label}: the oracle suite requires closure"
            );
            let opt = ex.opt().expect("closed searches expose OPT");
            assert_eq!(ex.guarantee(), Rational::ONE);
            assert!(validate(ex.schedule(), &inst, variant).is_empty());
            for algo in ALGOS {
                let sol = solve(&inst, variant, algo);
                let violations = validate(sol.schedule(), &inst, variant);
                assert!(
                    violations.is_empty(),
                    "{variant} {algo:?} {label}: {violations:?}"
                );
                assert!(
                    opt <= sol.makespan,
                    "{variant} {algo:?} {label}: achieved {} below OPT {opt}",
                    sol.makespan
                );
                assert!(
                    sol.makespan <= sol.ratio_bound * opt,
                    "{variant} {algo:?} {label}: achieved {} > {} * OPT {opt}",
                    sol.makespan,
                    sol.ratio_bound
                );
                // Certificates are genuine lower bounds on OPT.
                assert!(sol.certificate <= opt, "{variant} {algo:?} {label}");
            }
            // The portfolio's exact arm engages on every tiny shape and the
            // search closes, so it returns the true optimum — exactly.
            let p = solve(&inst, variant, Algorithm::Portfolio);
            assert_eq!(p.makespan, opt, "{variant} {label}");
            assert_eq!(p.ratio_bound, Rational::ONE, "{variant} {label}");
            assert_eq!(p.certificate, opt, "{variant} {label}");
        }
    }
}

#[test]
fn seqdep_algorithms_certify_against_opt_on_seeded_tinies() {
    for seed in 0..SEEDS {
        let sd = tiny_seqdep(seed);
        let ex = solve_seqdep(&sd, &ExactConfig::default())
            .expect("tiny seqdep instances are within the oracle limits");
        assert_eq!(ex.status, ExactStatus::Closed, "seqdep seed {seed}");
        let opt = ex.opt().expect("closed searches expose OPT");
        for algo in ALGOS {
            let sol = batch_setup_scheduling::core::solve_seqdep(&sd, algo);
            assert!(
                opt <= sol.makespan,
                "seqdep {algo:?} seed {seed}: achieved {} below OPT {opt}",
                sol.makespan
            );
            // General seqdep guarantees are a-posteriori (`accepted`, not
            // OPT, anchors the ratio) — the documented invariant plus the
            // certificate's lower-bound claim are what we can certify.
            assert!(sol.makespan <= sol.ratio_bound * sol.accepted);
            assert!(sol.certificate <= opt, "seqdep {algo:?} seed {seed}");
        }
        let p = batch_setup_scheduling::core::solve_seqdep(&sd, Algorithm::Portfolio);
        assert_eq!(p.makespan, opt, "seqdep seed {seed}");
        assert_eq!(p.ratio_bound, Rational::ONE, "seqdep seed {seed}");
        assert_eq!(p.certificate, opt, "seqdep seed {seed}");
    }
}

/// Strategy: an arbitrary instance inside the exact oracle's engagement
/// gate (n <= 12, m <= 4, c <= 5; every class non-empty).
fn arb_oracle_instance() -> impl Strategy<Value = Instance> {
    (1usize..=4, 1usize..=5).prop_flat_map(|(m, c)| {
        let setups = proptest::collection::vec(1u64..40, c..=c);
        let extra = proptest::collection::vec((0usize..c, 1u64..40), 0..=(12 - c));
        (Just(m), setups, extra).prop_map(|(m, setups, extra)| {
            let mut b = InstanceBuilder::new(m);
            let c = setups.len();
            for s in setups {
                b.add_class(s);
            }
            for k in 0..c {
                b.add_job(k, 1 + k as u64);
            }
            for (class, t) in extra {
                b.add_job(class, t);
            }
            b.build().expect("valid by construction")
        })
    })
}

/// Strategy: an arbitrary seqdep instance inside the oracle gate
/// (c <= 6, m <= 4, all costs positive).
fn arb_oracle_seqdep() -> impl Strategy<Value = SeqDepInstance> {
    (1usize..=4, 2usize..=6).prop_flat_map(|(m, c)| {
        (
            Just(m),
            proptest::collection::vec(1u64..20, c..=c),
            proptest::collection::vec(proptest::collection::vec(1u64..20, c..=c), c..=c),
            proptest::collection::vec(1u64..25, c..=c),
        )
            .prop_map(|(m, initial, mut switch, work)| {
                for (i, row) in switch.iter_mut().enumerate() {
                    row[i] = 0;
                }
                SeqDepInstance::new(m, initial, switch, work).expect("valid by construction")
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arbitrary oracle-sized instances: when the search closes, every
    /// algorithm's makespan sandwiches between `OPT` and
    /// `ratio_bound · OPT` and the portfolio lands exactly on `OPT`; a
    /// non-closed search still brackets every algorithm from below and
    /// every certificate from above.
    #[test]
    fn bss_oracle_sandwich(inst in arb_oracle_instance()) {
        for variant in Variant::ALL {
            let ex = solve_bss(&inst, variant, &ExactConfig::default())
                .expect("strategy stays within the oracle limits");
            prop_assert!(ex.lower <= ex.upper);
            prop_assert!(validate(ex.schedule(), &inst, variant).is_empty());
            let closed = ex.status == ExactStatus::Closed;
            for algo in ALGOS {
                let sol = solve(&inst, variant, algo);
                // `lower <= OPT <= makespan` and `certificate <= OPT <=
                // upper` hold whether or not the search closed.
                prop_assert!(ex.lower <= sol.makespan);
                prop_assert!(sol.certificate <= ex.upper);
                if closed {
                    let opt = ex.upper;
                    prop_assert!(opt <= sol.makespan);
                    prop_assert!(sol.makespan <= sol.ratio_bound * opt);
                    prop_assert!(sol.certificate <= opt);
                }
            }
            let p = solve(&inst, variant, Algorithm::Portfolio);
            // The oracle arm engages on every gated shape: its incumbent
            // caps the portfolio and its lower bound tightens the
            // certificate even when the search does not close.
            prop_assert!(p.makespan <= ex.upper);
            prop_assert!(p.certificate >= ex.lower);
            if closed {
                prop_assert_eq!(p.makespan, ex.upper);
                prop_assert_eq!(p.ratio_bound, Rational::ONE);
            }
        }
    }

    /// The seqdep analogue, against the class-order branch-and-bound.
    #[test]
    fn seqdep_oracle_sandwich(sd in arb_oracle_seqdep()) {
        let ex = solve_seqdep(&sd, &ExactConfig::default())
            .expect("strategy stays within the oracle limits");
        prop_assert!(ex.lower <= ex.upper);
        let closed = ex.status == ExactStatus::Closed;
        for algo in ALGOS {
            let sol = batch_setup_scheduling::core::solve_seqdep(&sd, algo);
            prop_assert!(ex.lower <= sol.makespan);
            prop_assert!(sol.certificate <= ex.upper);
            if closed {
                prop_assert!(ex.upper <= sol.makespan);
                prop_assert!(sol.certificate <= ex.upper);
            }
        }
        let p = batch_setup_scheduling::core::solve_seqdep(&sd, Algorithm::Portfolio);
        prop_assert!(p.makespan <= ex.upper);
        prop_assert!(p.certificate >= ex.lower);
        if closed {
            prop_assert_eq!(p.makespan, ex.upper);
            prop_assert_eq!(p.ratio_bound, Rational::ONE);
        }
    }
}
