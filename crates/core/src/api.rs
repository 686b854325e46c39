//! The high-level solver API.
//!
//! The entry points here are thin: [`solve`] and its siblings wrap the
//! instance in a [`BssProblem`] and hand it to the variant-generic driver
//! [`solve_problem`](crate::solve_problem), which takes every per-solve knob
//! in one [`SolveOptions`]. [`Algorithm`], [`ScheduleRepr`] and [`Solution`]
//! are shared by *every* problem on that surface (sequence-dependent
//! instances included) rather than duplicated per model.

use core::fmt;
use std::sync::OnceLock;

use bss_budget::{Interrupt, SolveBudget};
use bss_instance::{Instance, Variant};
use bss_rational::Rational;
use bss_schedule::{CompactSchedule, Schedule};

use crate::problem::{solve_problem, solve_with_stats, BssProblem};
use crate::search::SearchStats;
use crate::workspace::DualWorkspace;

/// Algorithm selector for [`solve`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// The `O(n)` 2-approximation (Theorem 1).
    TwoApprox,
    /// The `(3/2 + ε)`-approximation via binary search (Theorem 2), with
    /// `eps = 1/2^eps_log2`.
    EpsilonSearch {
        /// `ε = 2^-eps_log2`; the search performs `O(eps_log2)` probes.
        eps_log2: u32,
    },
    /// The 3/2-approximation: Class Jumping for splittable (Theorem 3) and
    /// preemptive (Theorem 6), exact integer search for non-preemptive
    /// (Theorem 8).
    ThreeHalves,
    /// Runs [`Algorithm::ThreeHalves`] *and* [`Algorithm::TwoApprox`] and
    /// keeps the schedule with the smaller makespan. Still a guaranteed
    /// 3/2-approximation (the pool contains one), but much better on easy
    /// instances, where the dual builders spend their full `3T/2` budget
    /// while simple wrapping packs near the lower bound. Still `O(n + search)`.
    ///
    /// On tiny instances (see [`crate::Problem::exact_oracle`]) the
    /// portfolio additionally runs the `bss-exact` branch-and-bound: a
    /// closed search returns the true optimum with `ratio_bound` 1 and
    /// `certificate = makespan = OPT`; a non-closed search still tightens
    /// the certificate with its proven lower bound.
    Portfolio,
}

/// The spelling the CLI's `--algorithm` and the wire protocol share:
/// `two-approx`, `eps:<n>`, `three-halves` or `portfolio`.
impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Algorithm::TwoApprox => f.write_str("two-approx"),
            Algorithm::EpsilonSearch { eps_log2 } => write!(f, "eps:{eps_log2}"),
            Algorithm::ThreeHalves => f.write_str("three-halves"),
            Algorithm::Portfolio => f.write_str("portfolio"),
        }
    }
}

/// Parses the [`Display`](fmt::Display) spelling; anything else is
/// ``unknown algorithm `…` ``.
impl core::str::FromStr for Algorithm {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "two-approx" => Ok(Algorithm::TwoApprox),
            "three-halves" => Ok(Algorithm::ThreeHalves),
            "portfolio" => Ok(Algorithm::Portfolio),
            _ => s
                .strip_prefix("eps:")
                .and_then(|e| e.parse().ok())
                .map(|eps_log2| Algorithm::EpsilonSearch { eps_log2 })
                .ok_or_else(|| format!("unknown algorithm `{s}`")),
        }
    }
}

/// How far a solve got before returning — the anytime contract's status,
/// mirroring the exact crate's `ExactStatus` sandwich.
///
/// Under an unlimited [`SolveBudget`] every solve is [`Completion::Full`]
/// and bit-identical to the unbudgeted entry points (guarded by equivalence
/// tests). Interrupted solves still return a *valid* schedule with honest
/// accounting: `makespan <= ratio_bound · accepted` always holds, and the
/// certificate only reflects genuinely probed rejections — but the accepted
/// guess may sit above `OPT`, which is exactly what the widened
/// `ratio_bound` of a degraded solve prices in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Completion {
    /// The search ran to completion; all documented guarantees hold
    /// unchanged.
    Full,
    /// The deadline or work budget expired mid-search; the solution is the
    /// best certified one held at that point (the search's right bracket,
    /// or the `O(n)` safety-net fallback when that is better).
    Degraded(Interrupt),
    /// The [`bss_budget::CancelToken`] fired; degradation semantics are the
    /// same as [`Completion::Degraded`], kept distinct so callers can tell
    /// an abandoned request from an overrunning one.
    Cancelled,
}

impl Completion {
    /// Maps a search interrupt onto the completion status.
    #[must_use]
    pub fn of(interrupt: Option<Interrupt>) -> Self {
        match interrupt {
            None => Completion::Full,
            Some(Interrupt::Cancelled) => Completion::Cancelled,
            Some(i) => Completion::Degraded(i),
        }
    }

    /// Whether the solve ran to completion.
    #[must_use]
    pub fn is_full(&self) -> bool {
        matches!(self, Completion::Full)
    }
}

impl fmt::Display for Completion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Completion::Full => write!(f, "full"),
            Completion::Degraded(i) => write!(f, "degraded ({i})"),
            Completion::Cancelled => write!(f, "cancelled"),
        }
    }
}

/// A solver failure isolated at the API boundary —
/// [`solve_problem`](crate::solve_problem) catches panics (`catch_unwind`),
/// resets the workspace, and returns this typed error instead of unwinding
/// into the caller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveError {
    /// Exact rational arithmetic left `i128` headroom (astronomically
    /// scaled inputs); the solve cannot represent its intermediate values.
    Overflow {
        /// The overflow site's panic message.
        message: String,
    },
    /// Any other panic escaping a solver — a bug, or an injected chaos
    /// fault. The workspace has been reset and is safe to reuse.
    Panicked {
        /// The panic payload, when it was a string.
        message: String,
    },
}

impl SolveError {
    /// Classifies a caught panic payload.
    pub(crate) fn from_panic(payload: &(dyn std::any::Any + Send)) -> Self {
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_else(|| "non-string panic payload".to_string());
        if message.contains("overflow") {
            SolveError::Overflow { message }
        } else {
            SolveError::Panicked { message }
        }
    }
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Overflow { message } => write!(f, "arithmetic overflow: {message}"),
            SolveError::Panicked { message } => write!(f, "solver panicked: {message}"),
        }
    }
}

impl std::error::Error for SolveError {}

/// The schedule representation a solver produced natively.
///
/// Splittable algorithms emit the compact configuration-group form (their
/// near-linear bounds depend on never writing all machines out); the other
/// variants emit explicit placements.
#[derive(Debug, Clone)]
pub enum ScheduleRepr {
    /// An explicit placement list.
    Explicit(Schedule),
    /// Machine configurations with multiplicities.
    Compact(CompactSchedule),
}

/// A builder's output: the schedule in its native representation and the
/// makespan the builder reports for it. Builders track their largest end as
/// they place items (the wrap folds it in once per gap, the stacking loops
/// keep their last ends, the non-preemptive builder its machine loads), so
/// no [`Solution`] rescans its placements for the makespan.
#[derive(Debug, Clone)]
pub struct Built {
    /// The schedule.
    pub repr: ScheduleRepr,
    /// Its makespan, as the builder reports it.
    pub makespan: Rational,
}

impl Built {
    /// An explicit schedule with its makespan read off the placements, for
    /// the producers that report none: the exact oracle and the seqdep
    /// heuristic, whose schedules are small.
    pub(crate) fn rescanned(schedule: Schedule) -> Self {
        Built {
            makespan: schedule.makespan(),
            repr: ScheduleRepr::Explicit(schedule),
        }
    }
}

/// A solved instance.
///
/// The schedule is kept in the representation the algorithm produced
/// ([`ScheduleRepr`]); [`Solution::schedule`] expands a compact form
/// **lazily, once**, on first access — callers that only need the makespan,
/// the compact groups, or the certificate never pay `O(total_items + m)`.
#[derive(Debug, Clone)]
pub struct Solution {
    /// The solver-native schedule representation.
    repr: ScheduleRepr,
    /// Lazily expanded explicit form of a compact `repr`.
    expanded: OnceLock<Schedule>,
    /// The schedule's makespan, as the builder that produced the schedule
    /// reports it (see [`Built`]); it equals the largest end of
    /// [`Solution::schedule`]'s placements.
    pub makespan: Rational,
    /// The accepted makespan guess; `makespan <= ratio_bound · accepted`.
    pub accepted: Rational,
    /// The proven approximation factor of this run relative to `accepted`.
    pub ratio_bound: Rational,
    /// A certified lower bound on the optimum, `OPT >= certificate` (from
    /// `T_min`, rejected guesses, or the exact oracle, whose closed search
    /// sets it to `OPT` itself); `makespan / certificate` upper-bounds the
    /// true ratio.
    pub certificate: Rational,
    /// Dual-test probes performed by the search (0 for direct algorithms).
    pub probes: usize,
    /// How far the solve got before returning ([`Completion::Full`] for
    /// every unbudgeted solve).
    pub completion: Completion,
}

impl Solution {
    /// The explicit schedule (feasible for the requested variant).
    ///
    /// For compact-native solutions the expansion runs on first call and is
    /// cached; repeated calls are free.
    #[must_use]
    pub fn schedule(&self) -> &Schedule {
        match &self.repr {
            ScheduleRepr::Explicit(s) => s,
            ScheduleRepr::Compact(c) => self.expanded.get_or_init(|| {
                c.expand()
                    .expect("solver-produced compact schedules are in machine range")
            }),
        }
    }

    /// Consumes the solution, returning the explicit schedule.
    #[must_use]
    pub fn into_schedule(self) -> Schedule {
        match self.repr {
            ScheduleRepr::Explicit(s) => s,
            ScheduleRepr::Compact(c) => match self.expanded.into_inner() {
                Some(s) => s,
                None => c
                    .expand()
                    .expect("solver-produced compact schedules are in machine range"),
            },
        }
    }

    /// The compact form, when the algorithm produced one natively
    /// (splittable algorithms).
    #[must_use]
    pub fn compact(&self) -> Option<&CompactSchedule> {
        match &self.repr {
            ScheduleRepr::Compact(c) => Some(c),
            ScheduleRepr::Explicit(_) => None,
        }
    }

    /// The solver-native representation.
    #[must_use]
    pub fn repr(&self) -> &ScheduleRepr {
        &self.repr
    }
}

/// How [`solve_problem`](crate::solve_problem) runs one solve. The default
/// is an unlimited, cold solve; every setting leaves the answer unchanged
/// under an unlimited budget.
#[derive(Debug, Clone, Copy, Default)]
pub struct SolveOptions<'a> {
    /// The cooperative budget (deadline, work limit, cancel token) every
    /// committed probe is charged to; `None` is unlimited. An expired budget
    /// degrades the solve instead of failing it: the result is the best
    /// certified solution held at the interrupt, with an honestly widened
    /// [`Solution::ratio_bound`] and a [`Completion`] saying what happened.
    pub budget: Option<&'a SolveBudget>,
    /// A previous solve's bracket, seeding the ladders' monotonicity memo
    /// (see [`WarmStart`]): the answer is the cold one, with fewer dual tests
    /// evaluated. Ladders over heuristic duals, which are not known to be
    /// monotone, run cold.
    pub warm: Option<WarmStart>,
}

/// Solves `inst` under `variant` with the chosen algorithm.
///
/// Every returned schedule is feasible for `variant` (the test suite
/// validates this exhaustively) and satisfies
/// `makespan <= ratio_bound · OPT`.
///
/// # Panics
/// When the solver panics (see [`SolveError`]); use
/// [`solve_problem`](crate::solve_problem) to get the typed error instead.
#[must_use]
pub fn solve(inst: &Instance, variant: Variant, algo: Algorithm) -> Solution {
    solve_with(&mut DualWorkspace::new(), inst, variant, algo)
}

/// [`solve`] on a reusable [`DualWorkspace`]: all probe and builder buffers
/// are borrowed from `ws`, so repeated solves (or the many probes inside one
/// search) share a single allocation footprint. The result is identical to
/// [`solve`], which merely allocates a fresh workspace per call.
///
/// # Panics
/// As [`solve`]; the workspace is reset first, so it stays safe to reuse.
#[must_use]
pub fn solve_with(
    ws: &mut DualWorkspace,
    inst: &Instance,
    variant: Variant,
    algo: Algorithm,
) -> Solution {
    solve_problem(
        ws,
        &BssProblem::new(inst, variant),
        algo,
        &SolveOptions::default(),
    )
    .unwrap_or_else(|e| panic!("{e}"))
}

/// A previous solve's accepted dual bracket, seeding a warm-start re-solve
/// after an instance delta (see [`solve_warm`] and [`SolveOptions::warm`]).
///
/// Built from the previous [`Solution`] via [`WarmStart::of`] and widened by
/// the delta's per-machine load shift via [`WarmStart::widen_by_load_shift`].
/// The hint is purely an acceleration: a wrong or stale bracket costs extra
/// probes, never a wrong answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarmStart {
    /// The previous solve's accepted guess — the bracket top.
    pub accepted: Rational,
    /// The previous solve's certified lower bound — the bracket floor.
    pub certificate: Rational,
    /// Absolute widening applied symmetrically to both ends, covering how
    /// far the delta may have moved the optimum.
    pub widen: Rational,
}

impl WarmStart {
    /// The bracket a completed solve proved, with no widening yet.
    #[must_use]
    pub fn of(sol: &Solution) -> Self {
        WarmStart {
            accepted: sol.accepted,
            certificate: sol.certificate,
            widen: Rational::ZERO,
        }
    }

    /// Widens the bracket by the delta's per-machine load shift
    /// `|new_load - old_load| / m` — an upper bound on how far adding or
    /// removing that much work can move `T_min`-anchored optima between two
    /// consecutive session states. Accumulates across calls, so applying it
    /// once per delta of a burst keeps the hint sound for the burst's total
    /// shift.
    #[must_use]
    pub fn widen_by_load_shift(self, old_load: u128, new_load: u128, machines: usize) -> Self {
        let shift = old_load.abs_diff(new_load);
        debug_assert!(machines > 0);
        let shift = Rational::new(
            i128::try_from(shift).expect("load fits the instance cap"),
            i128::try_from(machines.max(1)).expect("machine count fits i128"),
        );
        WarmStart {
            widen: self.widen + shift,
            ..self
        }
    }

    /// The hint interval `[certificate - widen, accepted + widen]` handed to
    /// the warm ladders (clamped into each search window there).
    #[must_use]
    pub fn hint(&self) -> (Rational, Rational) {
        (self.certificate - self.widen, self.accepted + self.widen)
    }
}

/// [`solve`] seeded with a previous solve's dual bracket: the warm-start
/// re-solve for incremental workloads.
///
/// Every bisection ladder (the ε-search, Theorem 8's integer search)
/// replays its exact cold bisection through a monotonicity memo seeded at
/// the hint points, so the returned [`Solution`] is **bit-identical** to
/// [`solve`] on the same instance, [`Solution::probes`] included (it counts
/// committed ladder queries). The returned [`SearchStats`] itemize the
/// savings: dual tests genuinely evaluated, queries the memo answered, and
/// seed probes. Class Jumping and the 2-approximation have no ladder to warm
/// and run cold.
///
/// # Panics
/// As [`solve`].
#[must_use]
pub fn solve_warm(
    inst: &Instance,
    variant: Variant,
    algo: Algorithm,
    warm: &WarmStart,
) -> (Solution, SearchStats) {
    let opts = SolveOptions {
        warm: Some(*warm),
        ..SolveOptions::default()
    };
    solve_with_stats(
        &mut DualWorkspace::new(),
        &BssProblem::new(inst, variant),
        algo,
        &opts,
    )
    .unwrap_or_else(|e| panic!("{e}"))
}

/// The [`Solution`] of a built schedule: its makespan is the one the builder
/// reported, checked against a rescan of the schedule in debug builds only.
pub(crate) fn finish(
    built: Built,
    accepted: Rational,
    ratio_bound: Rational,
    certificate: Rational,
    probes: usize,
) -> Solution {
    let Built { repr, makespan } = built;
    debug_assert_eq!(
        makespan,
        match &repr {
            ScheduleRepr::Explicit(s) => s.makespan(),
            ScheduleRepr::Compact(c) => c.makespan(),
        },
        "a builder reported a makespan that is not its schedule's"
    );
    Solution {
        repr,
        expanded: OnceLock::new(),
        makespan,
        accepted,
        ratio_bound,
        certificate,
        probes,
        completion: Completion::Full,
    }
}

#[cfg(test)]
mod tests {
    use bss_schedule::{validate, validate_compact};

    use super::*;

    const ALGOS: [Algorithm; 3] = [
        Algorithm::TwoApprox,
        Algorithm::EpsilonSearch { eps_log2: 7 },
        Algorithm::ThreeHalves,
    ];

    #[test]
    fn algorithm_spelling_round_trips() {
        for algo in [
            Algorithm::TwoApprox,
            Algorithm::ThreeHalves,
            Algorithm::Portfolio,
            Algorithm::EpsilonSearch { eps_log2: 12 },
        ] {
            assert_eq!(algo.to_string().parse::<Algorithm>(), Ok(algo));
        }
        assert_eq!(
            "eps:bogus".parse::<Algorithm>(),
            Err("unknown algorithm `eps:bogus`".to_string())
        );
        assert!("simplex".parse::<Algorithm>().is_err());
    }

    #[test]
    fn full_matrix_validates_and_meets_bounds() {
        for seed in 0..10 {
            let inst = bss_gen::uniform(50, 7, 4, seed);
            for variant in Variant::ALL {
                for algo in ALGOS {
                    let sol = solve(&inst, variant, algo);
                    let v = validate(sol.schedule(), &inst, variant);
                    assert!(v.is_empty(), "{variant} {algo:?}: {v:?}");
                    // Compact-native solutions also pass the compact-aware
                    // validator, without expansion.
                    if let Some(compact) = sol.compact() {
                        let cv = validate_compact(compact, &inst, variant);
                        assert!(cv.is_empty(), "{variant} {algo:?}: {cv:?}");
                    }
                    assert!(
                        sol.makespan <= sol.ratio_bound * sol.accepted,
                        "{variant} {algo:?}: {} > {} * {}",
                        sol.makespan,
                        sol.ratio_bound,
                        sol.accepted
                    );
                    assert!(sol.certificate <= sol.makespan);
                }
            }
        }
    }

    #[test]
    fn variant_relaxation_order_on_makespans() {
        // More freedom can only help: for the same 3/2 algorithm family the
        // splittable makespan certificate is never above the non-preemptive
        // one by more than the approximation slack. We check the weaker,
        // always-true statement: each variant's makespan is within its own
        // bound of its own certificate.
        for seed in 0..10 {
            let inst = bss_gen::uniform(40, 6, 3, seed);
            for variant in Variant::ALL {
                let sol = solve(&inst, variant, Algorithm::ThreeHalves);
                let certified_ratio = sol.makespan / sol.certificate;
                assert!(
                    certified_ratio <= Rational::from(2u64),
                    "{variant}: certified ratio {certified_ratio}"
                );
            }
        }
    }

    #[test]
    fn epsilon_probe_budget() {
        let inst = bss_gen::uniform(60, 8, 4, 1);
        let coarse = solve(
            &inst,
            Variant::Splittable,
            Algorithm::EpsilonSearch { eps_log2: 2 },
        );
        let fine = solve(
            &inst,
            Variant::Splittable,
            Algorithm::EpsilonSearch { eps_log2: 12 },
        );
        assert!(coarse.probes <= fine.probes);
        assert!(fine.probes <= 16);
    }

    #[test]
    fn portfolio_dominates_both_members() {
        for seed in 0..10 {
            let inst = bss_gen::uniform(60, 8, 4, seed);
            for variant in Variant::ALL {
                let p = solve(&inst, variant, Algorithm::Portfolio);
                let a = solve(&inst, variant, Algorithm::ThreeHalves);
                let b = solve(&inst, variant, Algorithm::TwoApprox);
                assert!(p.makespan <= a.makespan.min(b.makespan));
                assert!(validate(p.schedule(), &inst, variant).is_empty());
                assert_eq!(p.ratio_bound, Rational::new(3, 2));
                assert!(p.certificate >= a.certificate.max(b.certificate));
            }
        }
    }

    /// Warm-start re-solve after a one-job delta is bit-identical to the
    /// cold solve on the same materialized instance in every field,
    /// `probes` included — and evaluates genuinely fewer dual tests across
    /// the matrix.
    #[test]
    fn warm_resolve_is_bit_identical_to_cold_with_fewer_probes() {
        use bss_instance::{Delta, IncrementalInstance};

        let algo = Algorithm::EpsilonSearch { eps_log2: 10 };
        // (evaluated, cold) probe counts of the pairs where the cold search
        // genuinely bisected — immediate-accept solves cost 1 probe cold
        // and can never be beaten by a 2-seed warm start.
        let mut searched_pairs = Vec::new();
        for seed in 0..5 {
            let base = bss_gen::uniform(200, 8, 5, seed);
            let mut inc = IncrementalInstance::new(&base);
            let old_load = u128::from(inc.total_load_once());
            inc.apply(Delta::AddJob { class: 0, time: 17 }).unwrap();
            let inst = inc.materialize();
            for variant in Variant::ALL {
                let prev = solve(&base, variant, algo);
                let hint = WarmStart::of(&prev).widen_by_load_shift(
                    old_load,
                    u128::from(inc.total_load_once()),
                    base.machines(),
                );
                let cold = solve(&inst, variant, algo);
                let (warm, stats) = solve_warm(&inst, variant, algo, &hint);
                assert_eq!(warm.makespan, cold.makespan, "{variant}");
                assert_eq!(warm.accepted, cold.accepted, "{variant}");
                assert_eq!(warm.ratio_bound, cold.ratio_bound, "{variant}");
                assert_eq!(warm.certificate, cold.certificate, "{variant}");
                assert_eq!(warm.completion, cold.completion, "{variant}");
                assert_eq!(warm.schedule(), cold.schedule(), "{variant}");
                assert_eq!(warm.probes, cold.probes, "{variant}");
                assert_eq!(
                    stats.probes + stats.skipped,
                    cold.probes + stats.seed_probes,
                    "{variant}: every committed query is a probe or a memo answer"
                );
                assert!(
                    stats.probes <= cold.probes + 2,
                    "{variant}: warm ran {} probes, cold {}",
                    stats.probes,
                    cold.probes
                );
                if cold.probes >= 8 {
                    searched_pairs.push((stats.probes, cold.probes));
                }
            }
        }
        assert!(
            !searched_pairs.is_empty(),
            "the matrix must exercise at least one genuine bisection"
        );
        let warm_total: usize = searched_pairs.iter().map(|&(w, _)| w).sum();
        let cold_total: usize = searched_pairs.iter().map(|&(_, c)| c).sum();
        assert!(
            warm_total * 2 < cold_total,
            "one-job deltas should re-solve in well under half the cold probes \
             (warm {warm_total}, cold {cold_total}; pairs {searched_pairs:?})"
        );
    }

    /// Algorithms without a bisection ladder (the 2-approximation, Class
    /// Jumping) run cold, whatever the hint; Theorem 8's integer ladder
    /// warms like the ε-search.
    #[test]
    fn warm_solve_matches_cold_for_direct_algorithms() {
        let inst = bss_gen::uniform(40, 6, 3, 4);
        let hint = WarmStart {
            accepted: Rational::from(1_000_000u64),
            certificate: Rational::ONE,
            widen: Rational::ZERO,
        };
        for algo in [Algorithm::TwoApprox, Algorithm::ThreeHalves] {
            for variant in Variant::ALL {
                let cold = solve(&inst, variant, algo);
                let (warm, stats) = solve_warm(&inst, variant, algo, &hint);
                let ladder = algo == Algorithm::ThreeHalves && variant == Variant::NonPreemptive;
                if !ladder {
                    assert_eq!(stats.probes, cold.probes);
                    assert_eq!((stats.skipped, stats.seed_probes), (0, 0));
                }
                assert_eq!(warm.makespan, cold.makespan);
                assert_eq!(warm.probes, cold.probes);
                assert_eq!(warm.schedule(), cold.schedule());
            }
        }
    }

    #[test]
    fn compact_present_only_for_splittable() {
        let inst = bss_gen::uniform(30, 5, 3, 2);
        assert!(solve(&inst, Variant::Splittable, Algorithm::ThreeHalves)
            .compact()
            .is_some());
        assert!(solve(&inst, Variant::Preemptive, Algorithm::ThreeHalves)
            .compact()
            .is_none());
    }

    #[test]
    fn expansion_is_lazy_and_cached() {
        let inst = bss_gen::uniform(40, 6, 8, 3);
        let sol = solve(&inst, Variant::Splittable, Algorithm::ThreeHalves);
        // Makespan was computed straight off the compact form.
        assert_eq!(sol.makespan, sol.compact().unwrap().makespan());
        // First access expands; the second returns the same cached object.
        let first = sol.schedule() as *const Schedule;
        let second = sol.schedule() as *const Schedule;
        assert_eq!(first, second);
        assert_eq!(sol.schedule().makespan(), sol.makespan);
        // into_schedule hands out the cached expansion.
        let makespan = sol.makespan;
        let schedule = sol.into_schedule();
        assert_eq!(schedule.makespan(), makespan);
    }
}
