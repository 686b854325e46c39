//! Property suite pinning every way of running the probe ladder — warm,
//! budgeted — to the plain cold solve, bit for bit.
//!
//! The contract of `SolveOptions` is *determinism*: with or without a warm
//! hint, the solve commits exactly the probe sequence the cold search would
//! run — same accepted bracket, same rejection certificate, same probe
//! count, same solution bytes, and (because only committed queries charge
//! the budget, seeds are free) the same interruption point for every work
//! limit. These properties sweep random instances, algorithms, hints and
//! budget cut points to hold that line. (The raw ladder equivalences live in
//! `bss-core`'s `search` unit tests.)
//!
//! Case count scales with `BSS_PROPTEST_CASES` (the nightly CI raises it).

use bss_budget::SolveBudget;
use bss_core::{
    solve_problem, solve_with, Algorithm, BssProblem, DualWorkspace, Problem, SeqDepProblem,
    Solution, SolveOptions, WarmStart,
};
use bss_instance::Variant;
use bss_rational::Rational;
use proptest::prelude::*;

fn algorithm(idx: u8, eps_log2: u32) -> Algorithm {
    match idx % 3 {
        0 => Algorithm::EpsilonSearch { eps_log2 },
        1 => Algorithm::ThreeHalves,
        _ => Algorithm::Portfolio,
    }
}

/// The warm arms of every sweep: none, the cold solve's own bracket widened
/// by a seeded shift, and a stale hint from an unrelated solve.
fn hints(cold: &Solution, stale: &Solution, seed: u64) -> [Option<WarmStart>; 3] {
    let shifted = WarmStart {
        widen: Rational::new(i128::from(seed % 97), 8),
        ..WarmStart::of(cold)
    };
    [None, Some(shifted), Some(WarmStart::of(stale))]
}

fn assert_solutions_identical(label: &str, a: &Solution, b: &Solution) {
    assert_eq!(a.makespan, b.makespan, "{label}: makespan");
    assert_eq!(a.accepted, b.accepted, "{label}: accepted");
    assert_eq!(a.ratio_bound, b.ratio_bound, "{label}: ratio_bound");
    assert_eq!(a.certificate, b.certificate, "{label}: certificate");
    assert_eq!(a.probes, b.probes, "{label}: probes");
    assert_eq!(a.completion, b.completion, "{label}: completion");
    assert_eq!(
        a.schedule().placements(),
        b.schedule().placements(),
        "{label}: placements"
    );
}

/// Solves `problem` under every warm arm and checks each result against
/// `want`.
fn assert_warm_arms_agree<P: Problem>(
    label: &str,
    problem: &P,
    algo: Algorithm,
    want: &Solution,
    warm: &[Option<WarmStart>],
) {
    let mut ws = DualWorkspace::new();
    for (arm, &warm) in warm.iter().enumerate() {
        let opts = SolveOptions {
            warm,
            ..SolveOptions::default()
        };
        let got =
            solve_problem(&mut ws, problem, algo, &opts).expect("unbudgeted solves do not panic");
        assert_solutions_identical(&format!("{label} warm#{arm}"), &got, want);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Full-solve bit-identity: every warm arm ≡ `solve` for every variant
    /// and search-bearing algorithm.
    #[test]
    fn warm_solve_is_bit_identical_to_solve(
        n in 20usize..70,
        c in 2usize..8,
        m in 2usize..6,
        seed in 0u64..10_000,
        eps_log2 in 2u32..8,
        variant_idx in 0usize..3,
    ) {
        let inst = bss_gen::uniform(n, c, m, seed);
        let variant = Variant::ALL[variant_idx];
        // Derived from the seed to stay within the macro's parameter arity.
        let algo = algorithm((seed % 3) as u8, eps_log2);
        let mut ws = DualWorkspace::new();
        let want = solve_with(&mut ws, &inst, variant, algo);
        let stale = solve_with(&mut ws, &bss_gen::uniform(n, c, m, seed + 1), variant, algo);
        assert_warm_arms_agree(
            &format!("{variant} {algo:?} seed={seed}"),
            &BssProblem::new(&inst, variant),
            algo,
            &want,
            &hints(&want, &stale, seed),
        );
    }

    /// Work-limit interruption points are deterministic: for *every* cut
    /// point `w` up to the solve's full probe count, the warm solves degrade
    /// at exactly the same place as the cold one — same completion tag,
    /// same (partial) certificate, same work accounting.
    #[test]
    fn warm_work_limit_interruption_points_match_cold(
        n in 20usize..60,
        c in 2usize..7,
        m in 2usize..5,
        seed in 0u64..10_000,
        eps_log2 in 3u32..8,
        variant_idx in 0usize..3,
    ) {
        let inst = bss_gen::uniform(n, c, m, seed);
        let variant = Variant::ALL[variant_idx];
        let problem = BssProblem::new(&inst, variant);
        // The ε-ladder, and Theorem 8's integer ladder where it exists.
        let algos = [Algorithm::EpsilonSearch { eps_log2 }, Algorithm::ThreeHalves];
        let mut ws = DualWorkspace::new();
        for algo in algos {
            let full = solve_with(&mut ws, &inst, variant, algo);
            let stale = solve_with(&mut ws, &bss_gen::uniform(n, c, m, seed + 1), variant, algo);
            let warm = hints(&full, &stale, seed);
            for w in 0..=(full.probes as u64 + 1) {
                let cold_budget = SolveBudget::unlimited().with_work_limit(w);
                let cold = SolveOptions { budget: Some(&cold_budget), ..SolveOptions::default() };
                let want = solve_problem(&mut ws, &problem, algo, &cold)
                    .expect("budget expiry degrades, never errors");
                for (arm, &warm) in warm.iter().enumerate() {
                    let warm_budget = SolveBudget::unlimited().with_work_limit(w);
                    let opts = SolveOptions { budget: Some(&warm_budget), warm };
                    let got = solve_problem(&mut ws, &problem, algo, &opts)
                        .expect("budget expiry degrades, never errors");
                    assert_solutions_identical(
                        &format!("{variant} {algo:?} w={w} warm#{arm} seed={seed}"),
                        &got,
                        &want,
                    );
                    prop_assert_eq!(
                        warm_budget.work_used(),
                        cold_budget.work_used(),
                        "work accounting diverged at w={} warm#{}",
                        w,
                        arm
                    );
                }
            }
        }
    }

    /// Sequence-dependent instances, general (heuristic dual) and uniform
    /// (Theorem 8 on the reduction), obey the same contract.
    #[test]
    fn seqdep_warm_solves_are_bit_identical_to_cold(
        c in 3usize..12,
        m in 1usize..5,
        seed in 0u64..10_000,
        algo_idx in 0u8..3,
    ) {
        let algo = algorithm(algo_idx, 8);
        let general = bss_gen::seqdep::triangle_violating(c, m, seed);
        let uniform = bss_gen::seqdep::uniform_setups(c, m, seed);
        for (regime, inst) in [("general", &general), ("uniform", &uniform)] {
            let problem = SeqDepProblem::new(inst);
            let mut ws = DualWorkspace::new();
            let cold = SolveOptions::default();
            let want = solve_problem(&mut ws, &problem, algo, &cold).expect("no panics");
            let stale_inst = bss_gen::seqdep::uniform_setups(c, m, seed + 1);
            let stale = solve_problem(&mut ws, &SeqDepProblem::new(&stale_inst), algo, &cold)
                .expect("no panics");
            assert_warm_arms_agree(
                &format!("{regime} seqdep {algo:?} seed={seed}"),
                &problem,
                algo,
                &want,
                &hints(&want, &stale, seed),
            );
        }
    }
}
