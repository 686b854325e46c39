//! Property-based integration tests: arbitrary instances through the full
//! public API, with feasibility and guarantee invariants.

use batch_setup_scheduling::prelude::*;
use proptest::prelude::*;

/// Strategy: a random valid instance (n <= 40, c <= 8, m <= 6).
fn arb_instance() -> impl Strategy<Value = Instance> {
    (1usize..=6, 1usize..=8, 1u64..=10_000).prop_flat_map(|(m, c, _)| {
        let classes = proptest::collection::vec(1u64..60, c..=c);
        let jobs = proptest::collection::vec((0usize..c, 1u64..80), c..=40);
        (Just(m), classes, jobs).prop_map(|(m, setups, jobs)| {
            let mut b = InstanceBuilder::new(m);
            let c = setups.len();
            for s in setups {
                b.add_class(s);
            }
            // Guarantee non-empty classes.
            for k in 0..c {
                b.add_job(k, 1 + k as u64);
            }
            for (class, t) in jobs {
                b.add_job(class, t);
            }
            b.build().expect("valid by construction")
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every algorithm on every variant yields a feasible schedule meeting
    /// its stated guarantee relative to the accepted guess.
    #[test]
    fn all_solutions_feasible_and_bounded(inst in arb_instance()) {
        for variant in Variant::ALL {
            for algo in [
                Algorithm::TwoApprox,
                Algorithm::EpsilonSearch { eps_log2: 5 },
                Algorithm::ThreeHalves,
            ] {
                let sol = solve(&inst, variant, algo);
                let violations = validate(sol.schedule(), &inst, variant);
                prop_assert!(violations.is_empty(), "{variant} {algo:?}: {violations:?}");
                prop_assert!(
                    sol.makespan <= sol.ratio_bound * sol.accepted,
                    "{variant} {algo:?}: {} > {} * {}",
                    sol.makespan, sol.ratio_bound, sol.accepted
                );
                // The guess always sits in the certified window.
                let t_min = LowerBounds::of(&inst).tmin(variant);
                prop_assert!(sol.accepted >= t_min.min(sol.makespan));
                prop_assert!(sol.accepted <= t_min * 2u64);
                prop_assert!(sol.certificate <= sol.makespan);
            }
        }
    }

    /// The splittable dual's acceptance is monotone in T (the property the
    /// Class-Jumping final case analysis rests on).
    #[test]
    fn splittable_acceptance_monotone(inst in arb_instance(), k in 1i128..40) {
        use batch_setup_scheduling::core::splittable;
        let t_min = LowerBounds::of(&inst).tmin(Variant::Splittable);
        let t_lo = t_min * Rational::new(k, 20);
        let t_hi = t_lo * Rational::new(21, 20);
        let ws = &mut DualWorkspace::new();
        if splittable::accepts_in(ws, &inst, t_lo) {
            prop_assert!(splittable::accepts_in(ws, &inst, t_hi));
        }
    }

    /// Total scheduled piece time equals total processing time (load
    /// conservation through every pipeline).
    #[test]
    fn load_conservation(inst in arb_instance()) {
        for variant in Variant::ALL {
            let sol = solve(&inst, variant, Algorithm::ThreeHalves);
            let placed: Rational = sol
                .schedule()
                .placements()
                .iter()
                .filter(|p| !p.kind.is_setup())
                .map(|p| p.len)
                .fold(Rational::ZERO, |a, b| a + b);
            prop_assert_eq!(placed, Rational::from(inst.total_proc()));
        }
    }

    /// Probes of the searches stay logarithmic (regression guard on the
    /// near-linear running-time claims).
    #[test]
    fn search_probe_budgets(inst in arb_instance()) {
        let eps = solve(&inst, Variant::Splittable, Algorithm::EpsilonSearch { eps_log2: 10 });
        prop_assert!(eps.probes <= 14, "eps probes {}", eps.probes);
        let jump = solve(&inst, Variant::Splittable, Algorithm::ThreeHalves);
        // O(log c + log m) probes with small constants.
        prop_assert!(jump.probes <= 120, "jump probes {}", jump.probes);
        let nonp = solve(&inst, Variant::NonPreemptive, Algorithm::ThreeHalves);
        // ⌈log2 T_min⌉ + 2 probes.
        prop_assert!(nonp.probes <= 64, "integer probes {}", nonp.probes);
    }

    /// Scaling all times by a constant scales the solution makespan by the
    /// same constant (the algorithms are scale-free).
    #[test]
    fn scale_invariance(inst in arb_instance(), factor in 2u64..5) {
        let scaled = inst.scaled(factor).expect("valid");
        for variant in [Variant::Splittable, Variant::Preemptive] {
            let a = solve(&inst, variant, Algorithm::ThreeHalves);
            let s = solve(&scaled, variant, Algorithm::ThreeHalves);
            prop_assert_eq!(
                s.makespan,
                a.makespan * factor,
                "{} scaling", variant
            );
        }
    }

    /// Cross-variant dominance `split <= pmtn <= nonp` on the adversarial
    /// generator families: Δ-wide processing times, `c ≈ m` contention, and
    /// all-expensive setups (every class setup above the mean load).
    #[test]
    fn dominance_on_adversarial_families(
        seed in 0u64..1_000_000,
        family in 0u8..3,
        m in 2usize..8,
    ) {
        let inst = match family {
            1 => batch_setup_scheduling::gen::wide_delta(60, 8, m, 1 << 16, seed),
            2 => batch_setup_scheduling::gen::all_expensive(60, m.div_ceil(2), m + 1, seed),
            _ => batch_setup_scheduling::gen::contended(60, m, m, seed),
        };
        let split = solve(&inst, Variant::Splittable, Algorithm::ThreeHalves);
        let pmtn = solve(&inst, Variant::Preemptive, Algorithm::ThreeHalves);
        let nonp = solve(&inst, Variant::NonPreemptive, Algorithm::ThreeHalves);
        prop_assert!(split.certificate <= pmtn.makespan);
        prop_assert!(pmtn.certificate <= nonp.makespan);
        prop_assert!(split.certificate <= nonp.makespan);
        prop_assert!(validate(nonp.schedule(), &inst, Variant::Splittable).is_empty());
        prop_assert!(validate(pmtn.schedule(), &inst, Variant::Splittable).is_empty());
    }

    /// The compact-first pipeline invariants hold on arbitrary instances:
    /// streaming expansion equals materialize-then-copy, and the compact
    /// validator agrees with the explicit walk.
    #[test]
    fn compact_pipeline_equivalences(inst in arb_instance()) {
        use batch_setup_scheduling::schedule::validate_compact;
        let sol = solve(&inst, Variant::Splittable, Algorithm::ThreeHalves);
        let compact = sol.compact().expect("splittable is compact");
        let expanded = compact.expand().expect("in range");
        let mut streamed = Schedule::new(compact.machines());
        compact.expand_into(&mut streamed).expect("in range");
        prop_assert_eq!(&streamed, &expanded);
        for variant in Variant::ALL {
            prop_assert_eq!(
                validate_compact(compact, &inst, variant).is_empty(),
                validate(&expanded, &inst, variant).is_empty(),
                "{}", variant
            );
        }
    }
}
