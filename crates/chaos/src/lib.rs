//! Deterministic fault-injection harness for the anytime solve surface.
//!
//! The workspace-wide robustness invariant this crate exists to prove:
//!
//! > **Any interruption of any solve yields either a valid, validate-clean,
//! > certified solution or a typed error — never an escaped panic, never an
//! > invalid schedule, never a lying `ratio_bound` or `certificate`.**
//!
//! Faults are injected through the `chaos` feature of `bss-budget`: a
//! [`FaultPlan`](bss_budget::FaultPlan) fires at the `k`-th budget
//! checkpoint — panicking, latching cancellation, or latching deadline
//! expiry — with no wall clock involved, so every run is reproducible from
//! `(instance seed, algorithm, k)` alone. The suite in `tests/chaos_suite.rs`
//! sweeps `k` over every checkpoint index (exhaustively under
//! `BSS_CHAOS_EXHAUSTIVE=1`, a deterministic subset per default), plus
//! work-budget starvation at every level, and cross-checks certificates
//! against the `bss-exact` oracle on gate-sized instances.
//!
//! This crate holds the reusable pieces: gate-sized instance families, the
//! checkpoint dry-run, the OPT oracles, and the [`assert_anytime_bss`] /
//! [`assert_anytime_seqdep`] invariant checkers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use bss_budget::SolveBudget;
use bss_core::{
    solve_problem, BssProblem, Completion, DualWorkspace, SeqDepProblem, Solution, SolveOptions,
};
use bss_instance::{Instance, Variant};
use bss_rational::Rational;
use bss_seqdep::SeqDepInstance;

pub use bss_core::Algorithm;

/// The algorithms the chaos suite drives (every search-bearing mode; the
/// budget cannot interrupt the pure `TwoApprox` fallback, which is exactly
/// why it is the degradation floor).
pub const ALGORITHMS: [Algorithm; 3] = [
    Algorithm::EpsilonSearch { eps_log2: 6 },
    Algorithm::ThreeHalves,
    Algorithm::Portfolio,
];

/// Batch-setup instances inside the exact-oracle gate (≤ 12 jobs, ≤ 4
/// machines, ≤ 6 classes), so every certificate can be cross-checked
/// against a closed OPT. Deterministic in `seed`.
#[must_use]
pub fn gate_instances(seed: u64) -> Vec<(String, Instance)> {
    vec![
        (format!("tiny/{seed}"), bss_gen::tiny(seed)),
        (
            format!("uniform-10x3x3/{seed}"),
            bss_gen::uniform(10, 3, 3, seed),
        ),
        (
            format!("uniform-12x6x4/{seed}"),
            bss_gen::uniform(12, 6, 4, seed),
        ),
    ]
}

/// Sequence-dependent instances inside the seqdep oracle gate (≤ 8 classes,
/// ≤ 4 machines). Includes a uniform instance so the bit-exact batch-setup
/// reduction path is chaos-swept too.
#[must_use]
pub fn gate_seqdep_instances(seed: u64) -> Vec<(String, SeqDepInstance)> {
    vec![
        (
            format!("triangle-violating-6x3/{seed}"),
            bss_gen::seqdep::triangle_violating(6, 3, seed),
        ),
        (
            format!("uniform-setups-5x2/{seed}"),
            bss_gen::seqdep::uniform_setups(5, 2, seed),
        ),
    ]
}

/// Dry-runs the solve under an unlimited budget and reports how many budget
/// checkpoints it passes — the sweep range for "inject a fault at the k-th
/// checkpoint". Deterministic for a fixed `(instance, variant, algo)`.
///
/// # Panics
/// If the unlimited dry run errors or reports a degraded completion
/// (both impossible by the equivalence contract).
#[must_use]
pub fn bss_checkpoints(inst: &Instance, variant: Variant, algo: Algorithm) -> u64 {
    let budget = SolveBudget::unlimited();
    let sol = solve_problem(
        &mut DualWorkspace::new(),
        &BssProblem::new(inst, variant),
        algo,
        &SolveOptions {
            budget: Some(&budget),
            ..SolveOptions::default()
        },
    )
    .expect("unlimited dry run cannot fail");
    assert_eq!(sol.completion, Completion::Full);
    budget.checkpoints()
}

/// [`bss_checkpoints`] for a sequence-dependent solve.
///
/// # Panics
/// See [`bss_checkpoints`].
#[must_use]
pub fn seqdep_checkpoints(sd: &SeqDepInstance, algo: Algorithm) -> u64 {
    let budget = SolveBudget::unlimited();
    let sol = solve_problem(
        &mut DualWorkspace::new(),
        &SeqDepProblem::new(sd),
        algo,
        &SolveOptions {
            budget: Some(&budget),
            ..SolveOptions::default()
        },
    )
    .expect("unlimited dry run cannot fail");
    assert_eq!(sol.completion, Completion::Full);
    budget.checkpoints()
}

/// The exact optimum of a gate-sized batch-setup instance, when the oracle
/// closes it.
#[must_use]
pub fn bss_opt(inst: &Instance, variant: Variant) -> Option<Rational> {
    let ex = bss_exact::solve_bss(inst, variant, &bss_exact::ExactConfig::default()).ok()?;
    ex.opt()
}

/// The exact optimum of a gate-sized sequence-dependent instance, when the
/// oracle closes it.
#[must_use]
pub fn seqdep_opt(sd: &SeqDepInstance) -> Option<Rational> {
    let ex = bss_exact::solve_seqdep(sd, &bss_exact::ExactConfig::default()).ok()?;
    ex.opt()
}

/// Asserts the full anytime contract on a batch-setup [`Solution`] —
/// interrupted or not:
///
/// * the schedule is validate-clean for `variant`;
/// * `makespan` is the schedule's true makespan;
/// * `makespan <= ratio_bound · accepted` (the constructive invariant);
/// * `0 < certificate <= makespan`;
/// * against a closed OPT: `certificate <= OPT <= makespan` (no lying
///   certificate) and `makespan <= ratio_bound · OPT` (no lying ratio —
///   batch-setup probes certify, so `ratio_bound` is a claim versus OPT).
///
/// # Panics
/// When any invariant fails; `label` identifies the offending case.
pub fn assert_anytime_bss(
    label: &str,
    inst: &Instance,
    variant: Variant,
    sol: &Solution,
    opt: Option<Rational>,
) {
    let v = bss_schedule::validate(sol.schedule(), inst, variant);
    assert!(v.is_empty(), "{label}: invalid schedule: {v:?}");
    assert_eq!(
        sol.makespan,
        sol.schedule().makespan(),
        "{label}: reported makespan is not the schedule's"
    );
    assert!(
        sol.makespan <= sol.ratio_bound * sol.accepted,
        "{label}: makespan {} > ratio {} x accepted {}",
        sol.makespan,
        sol.ratio_bound,
        sol.accepted
    );
    assert!(
        sol.certificate.is_positive(),
        "{label}: non-positive certificate {}",
        sol.certificate
    );
    assert!(
        sol.certificate <= sol.makespan,
        "{label}: certificate {} above makespan {}",
        sol.certificate,
        sol.makespan
    );
    if let Some(opt) = opt {
        assert!(
            sol.certificate <= opt,
            "{label}: lying certificate {} > OPT {opt}",
            sol.certificate
        );
        assert!(
            opt <= sol.makespan,
            "{label}: makespan {} below OPT {opt}",
            sol.makespan
        );
        assert!(
            sol.makespan <= sol.ratio_bound * opt,
            "{label}: lying ratio_bound — makespan {} > {} x OPT {opt}",
            sol.makespan,
            sol.ratio_bound
        );
    }
}

/// Asserts the anytime contract on a sequence-dependent [`Solution`].
/// Sequence-dependent probes do not certify (`ratio_bound` is constructive
/// versus `accepted`, not a claim versus OPT), so the oracle cross-check is
/// limited to `certificate <= OPT <= makespan`.
///
/// # Panics
/// When any invariant fails; `label` identifies the offending case.
pub fn assert_anytime_seqdep(
    label: &str,
    sd: &SeqDepInstance,
    sol: &Solution,
    opt: Option<Rational>,
) {
    let _ = sd;
    assert_eq!(
        sol.makespan,
        sol.schedule().makespan(),
        "{label}: reported makespan is not the schedule's"
    );
    assert!(
        sol.makespan <= sol.ratio_bound * sol.accepted,
        "{label}: makespan {} > ratio {} x accepted {}",
        sol.makespan,
        sol.ratio_bound,
        sol.accepted
    );
    assert!(
        sol.certificate <= sol.makespan,
        "{label}: certificate {} above makespan {}",
        sol.certificate,
        sol.makespan
    );
    if let Some(opt) = opt {
        assert!(
            sol.certificate <= opt,
            "{label}: lying certificate {} > OPT {opt}",
            sol.certificate
        );
        assert!(
            opt <= sol.makespan,
            "{label}: makespan {} below OPT {opt}",
            sol.makespan
        );
    }
}

/// Compares two solutions field-for-field, placements included — the
/// bit-identity check behind both the unlimited-equivalence and the
/// workspace-poisoning suites.
///
/// # Panics
/// When any field differs; `label` identifies the offending case.
pub fn assert_bit_identical(label: &str, a: &Solution, b: &Solution) {
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

/// How many instance seeds the suite sweeps: scaled by `BSS_PROPTEST_CASES`
/// (the workspace-wide knob the nightly CI raises), default 2.
#[must_use]
pub fn case_seeds() -> u64 {
    match std::env::var("BSS_PROPTEST_CASES") {
        Ok(v) => v.parse::<u64>().map_or(2, |n| (n / 64).clamp(2, 32)),
        Err(_) => 2,
    }
}

/// Whether to sweep *every* checkpoint index (`BSS_CHAOS_EXHAUSTIVE=1`, the
/// nightly mode) instead of the deterministic per-push subset.
#[must_use]
pub fn exhaustive() -> bool {
    std::env::var("BSS_CHAOS_EXHAUSTIVE").is_ok_and(|v| v != "0")
}

/// The checkpoint indices to inject faults at, for a solve that passes
/// `total` checkpoints: all of `1..=total` when [`exhaustive`], else a
/// deterministic boundary-heavy subset (first few, quartiles, last) — the
/// indices where wind-down logic changes shape.
#[must_use]
pub fn sweep_indices(total: u64) -> Vec<u64> {
    if total == 0 {
        return Vec::new();
    }
    if exhaustive() {
        return (1..=total).collect();
    }
    let mut picks = vec![
        1,
        2,
        3,
        total / 4,
        total / 2,
        3 * total / 4,
        total.saturating_sub(1),
        total,
    ];
    picks.retain(|&k| (1..=total).contains(&k));
    picks.sort_unstable();
    picks.dedup();
    picks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_indices_cover_boundaries() {
        assert_eq!(sweep_indices(0), Vec::<u64>::new());
        assert_eq!(sweep_indices(1), vec![1]);
        assert_eq!(sweep_indices(2), vec![1, 2]);
        let s = sweep_indices(100);
        assert!(s.contains(&1) && s.contains(&100) && s.contains(&50));
        assert!(s.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn gate_instances_fit_the_oracle_gate() {
        for (name, inst) in gate_instances(0) {
            assert!(inst.num_jobs() <= 12, "{name}");
            assert!(inst.machines() <= 4, "{name}");
            assert!(inst.num_classes() <= 6, "{name}");
        }
        for (name, sd) in gate_seqdep_instances(0) {
            assert!(sd.num_classes() <= 8, "{name}");
            assert!(sd.machines() <= 4, "{name}");
        }
    }

    #[test]
    fn checkpoint_dry_run_is_deterministic() {
        let inst = bss_gen::uniform(10, 3, 3, 7);
        for algo in ALGORITHMS {
            let a = bss_checkpoints(&inst, Variant::Preemptive, algo);
            let b = bss_checkpoints(&inst, Variant::Preemptive, algo);
            assert_eq!(a, b);
            assert!(a > 0, "every search-bearing mode probes at least once");
        }
    }
}
