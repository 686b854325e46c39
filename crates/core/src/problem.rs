//! The variant-generic solve surface: the [`Problem`] trait and its driver.
//!
//! Every solver in this workspace has the same dual-approximation shape —
//! an instance-only lower bound `T_min` seeding a search window, a cheap
//! accept/reject *probe* at a guess `T`, and a *builder* that turns an
//! accepted guess into a schedule of makespan `<= ρ·T`. The [`Problem`]
//! trait captures exactly that shape; [`solve_problem`] drives any
//! implementor through the four [`Algorithm`] modes (direct fallback,
//! ε-search, the problem's best direct search, and the portfolio), producing
//! the same [`Solution`] type everywhere.
//!
//! Implementors:
//!
//! * [`BssProblem`] — the paper's three batch-setup variants
//!   ([`bss_instance::Variant`]); probes certify `T < OPT` (the proven
//!   duals), ratios are the theorems' 3/2 and 2.
//! * [`crate::SeqDepProblem`] — sequence-dependent setups. The uniform
//!   special case `s(c, c') = s(c')` reduces bit-exactly to a batch-setup
//!   instance and inherits the non-preemptive guarantees; the general case
//!   runs a heuristic dual whose rejections certify nothing (and say so via
//!   [`Problem::probe_certifies`]).
//!
//! # Guarantee accounting
//!
//! A [`Solution`] always satisfies `makespan <= ratio_bound · accepted` —
//! for the proven duals because the theorem says so, for heuristic duals
//! because the builder enforces the ceiling constructively. What differs is
//! the *certificate*: only problems whose probes certify rejections may
//! export a rejected guess as a lower bound on `OPT`; heuristic problems
//! fall back to the instance-only `T_min`. The portfolio keeps the primary
//! member's `(accepted, ratio_bound)` pair (the winner's makespan is bounded
//! by the primary's), takes the best makespan, and merges certificates by
//! maximum — the same accounting for every problem.

use std::panic::{catch_unwind, AssertUnwindSafe};

use bss_budget::{Interrupt, SolveBudget};
use bss_instance::{Instance, LowerBounds, Variant};
use bss_rational::Rational;
use bss_schedule::Schedule;

use crate::api::{finish, Algorithm, Built, Completion, ScheduleRepr, Solution, SolveError};
use crate::jumping::class_jumping;
use crate::search::{Bracket, Search, SearchOutcome, SearchStats};
use crate::workspace::DualWorkspace;
use crate::{nonpreemptive, preemptive, splittable, two_approx, SolveOptions, Trace};

/// Outcome of a problem's best direct search ([`Algorithm::ThreeHalves`]).
#[derive(Debug)]
pub struct DirectSolve {
    /// The schedule, in the solver's native representation, with the
    /// makespan its builder reports.
    pub built: Built,
    /// The accepted guess: `makespan <= ratio · accepted`.
    pub accepted: Rational,
    /// A certified lower bound on `OPT` established by the search (at least
    /// the problem's `T_min`; stronger when rejections certify).
    pub certificate: Rational,
    /// Committed dual-test probes.
    pub probes: usize,
    /// The proven factor of this run relative to `accepted`.
    pub ratio: Rational,
    /// Why the search stopped early, if it did. The result must still be
    /// *valid*: `built` realized at an accepted `accepted`, `certificate`
    /// restricted to genuinely certified rejections.
    pub interrupt: Option<Interrupt>,
    /// The ladders' warm-start counters (the driver fills in
    /// [`SearchStats::probes`]).
    pub stats: SearchStats,
}

/// A scheduling problem solvable through the unified dual-approximation
/// surface — see the module docs for the contract each method carries.
pub trait Problem {
    /// Short human-readable name (CLI/report labels).
    fn name(&self) -> &'static str;

    /// Instance-only lower bound: `T_min <= OPT`.
    fn t_min(&self) -> Rational;

    /// A guess [`Problem::probe`] is guaranteed to accept *and*
    /// [`Problem::build`] to realize — the searches' fallback anchor.
    /// Default: the Theorem-1 window top `2·T_min`.
    fn t_safe(&self) -> Rational {
        self.t_min() * 2u64
    }

    /// Upper seed of the ε-search bracket (must be accepted). Default:
    /// `2·T_min`, the proven window; heuristic problems override with their
    /// own safe guess.
    fn search_hi(&self) -> Rational {
        self.t_min() * 2u64
    }

    /// Whether a probe rejection certifies `T < OPT`. `true` for the
    /// paper's duals; `false` for heuristic duals, whose rejections must not
    /// tighten the certificate (and which ignore warm hints).
    fn probe_certifies(&self) -> bool;

    /// The builder's dual ratio `ρ`: `build(T)` schedules within `ρ·T`.
    fn dual_ratio(&self) -> Rational;

    /// The dual accept test at guess `t`.
    fn probe(&self, ws: &mut DualWorkspace, t: Rational) -> bool;

    /// Builds a schedule at an accepted guess; `None` signals a defensive
    /// rejection (callers retry at [`Problem::t_safe`]). The builder reports
    /// the makespan of what it built ([`Built::makespan`]); the driver takes
    /// it as the solution's makespan instead of rescanning the schedule.
    fn build(&self, ws: &mut DualWorkspace, t: Rational, trace: &mut Trace) -> Option<Built>;

    /// The `O(n)` direct fallback ([`Algorithm::TwoApprox`]): a schedule
    /// with its reported makespan, plus the proven (possibly a-posteriori)
    /// factor of that makespan relative to `T_min`.
    fn fallback(&self, ws: &mut DualWorkspace) -> (Built, Rational);

    /// The problem's best direct algorithm ([`Algorithm::ThreeHalves`]):
    /// Class Jumping, the exact integer search, or — for problems without a
    /// specialized search — a fine ε-search over the dual. It runs under
    /// `opts`'s budget, and its bisection ladders under `opts`'s warm hint,
    /// bit-identically to the unlimited cold search whenever the budget
    /// never trips.
    fn direct_search(&self, ws: &mut DualWorkspace, opts: &SolveOptions<'_>) -> DirectSolve;

    /// The exact branch-and-bound oracle, for problems small enough that it
    /// is worth running ([`Algorithm::Portfolio`] only). It draws its nodes
    /// from the *same* budget as the probe ladders (no double-accounting of
    /// wall-clock or work). `None` — the default — skips the oracle
    /// entirely; a [`bss_exact::ExactStatus::Closed`] result certifies `OPT`
    /// exactly (guarantee 1), and a non-closed result still donates its
    /// certified lower bound and anytime incumbent.
    fn exact_oracle(&self, budget: &SolveBudget) -> Option<bss_exact::ExactSolve> {
        let _ = budget;
        None
    }
}

/// Drives any [`Problem`] through the chosen [`Algorithm`] on a reusable
/// workspace, under `opts`'s budget and warm hint. All four modes
/// share the guarantee accounting documented on the module; the result is a
/// standard [`Solution`], bit-identical for every `opts` whose budget never
/// trips.
///
/// This is the safe API boundary: the solve runs behind [`catch_unwind`],
/// so a solver panic (arithmetic overflow on an adversarial instance, a
/// violated internal invariant, injected chaos) surfaces as a typed
/// [`SolveError`] instead of unwinding through the caller. On panic the
/// workspace is [reset](DualWorkspace::reset) — buffers abandoned mid-probe
/// may hold arbitrary partial state — so the same workspace is safe (and
/// bit-identical to fresh) for the next solve.
///
/// An interrupted budget is **not** an error: the search's current right
/// bracket (always a genuinely accepted guess) is built, the `O(n)` fallback
/// is merged in as a safety net, the `ratio_bound` is honestly widened
/// against the certified lower bound, and [`Solution::completion`] reports
/// what happened.
///
/// # Errors
/// [`SolveError`] when the solver panicked.
pub fn solve_problem<P: Problem + ?Sized>(
    ws: &mut DualWorkspace,
    problem: &P,
    algo: Algorithm,
    opts: &SolveOptions<'_>,
) -> Result<Solution, SolveError> {
    solve_with_stats(ws, problem, algo, opts).map(|(sol, _)| sol)
}

/// [`solve_problem`] plus the solve's [`SearchStats`].
pub(crate) fn solve_with_stats<P: Problem + ?Sized>(
    ws: &mut DualWorkspace,
    problem: &P,
    algo: Algorithm,
    opts: &SolveOptions<'_>,
) -> Result<(Solution, SearchStats), SolveError> {
    let result = {
        let ws = &mut *ws;
        catch_unwind(AssertUnwindSafe(move || {
            let mut stats = SearchStats::default();
            let sol = drive(ws, problem, algo, opts, &mut stats);
            stats.probes = sol.probes + stats.seed_probes - stats.skipped;
            (sol, stats)
        }))
    };
    result.map_err(|payload| {
        ws.reset();
        SolveError::from_panic(payload.as_ref())
    })
}

fn drive<P: Problem + ?Sized>(
    ws: &mut DualWorkspace,
    problem: &P,
    algo: Algorithm,
    opts: &SolveOptions<'_>,
    stats: &mut SearchStats,
) -> Solution {
    let t_min = problem.t_min();
    let mut sol = match algo {
        Algorithm::Portfolio => {
            let a = drive(ws, problem, Algorithm::ThreeHalves, opts, stats);
            let b = drive(ws, problem, Algorithm::TwoApprox, opts, stats);
            // The primary member's guarantee carries over: even when the
            // fallback's schedule wins on makespan, it is bounded by the
            // primary's makespan, so `a.ratio_bound * a.accepted` still
            // dominates. Keep that pair so the documented invariant
            // `makespan <= ratio_bound * accepted` holds. (When the primary
            // was interrupted, its pair is already the honestly widened
            // one, so no further widening happens here.)
            let completion = a.completion;
            let accepted = a.accepted;
            let ratio = a.ratio_bound;
            let (mut best, other) = if a.makespan <= b.makespan {
                (a, b)
            } else {
                (b, a)
            };
            best.accepted = accepted;
            best.ratio_bound = ratio;
            best.certificate = best.certificate.max(other.certificate);
            best.probes += other.probes;
            // Tiny instances afford the exact oracle: a closed search *is*
            // the optimum (guarantee 1); a non-closed search still donates
            // its certified lower bound, and its anytime incumbent when
            // that schedule beats both members. An interrupted or exhausted
            // budget skips the oracle — the remaining time belongs to the
            // caller, not to branch-and-bound — and the skip (or an oracle
            // cut short mid-search) is reported as degradation: `Full` must
            // keep meaning "bit-identical to the unbudgeted solve".
            let unlimited = SolveBudget::unlimited();
            let budget = opts.budget.unwrap_or(&unlimited);
            let mut oracle_interrupt = None;
            let oracle = if completion.is_full() {
                match budget.poll() {
                    Ok(()) => {
                        let ex = problem.exact_oracle(budget);
                        if let Err(i) = budget.poll() {
                            oracle_interrupt = Some(i);
                        }
                        ex
                    }
                    Err(i) => {
                        oracle_interrupt = Some(i);
                        None
                    }
                }
            } else {
                None
            };
            let closed = matches!(&oracle, Some(ex) if ex.status == bss_exact::ExactStatus::Closed);
            let mut merged = match oracle {
                Some(ex) if ex.status == bss_exact::ExactStatus::Closed => {
                    let opt = ex.upper;
                    finish(
                        Built::rescanned(ex.schedule),
                        opt,
                        Rational::ONE,
                        opt,
                        best.probes,
                    )
                }
                Some(ex) => {
                    best.certificate = best.certificate.max(ex.lower);
                    let incumbent = Built::rescanned(ex.schedule);
                    if incumbent.makespan < best.makespan {
                        let mut sol = finish(
                            incumbent,
                            best.accepted,
                            best.ratio_bound,
                            best.certificate,
                            best.probes,
                        );
                        sol.certificate = sol.certificate.min(sol.makespan);
                        sol
                    } else {
                        best
                    }
                }
                None => best,
            };
            // A closed oracle *is* the full answer even if the budget tripped
            // between closing and reporting; otherwise a skipped or cut-short
            // oracle degrades the portfolio honestly.
            merged.completion = if closed {
                Completion::Full
            } else if let Some(i) = oracle_interrupt {
                Completion::of(Some(i))
            } else {
                completion
            };
            merged
        }
        Algorithm::TwoApprox => {
            // The `O(n)` fallback is the floor everything else degrades to;
            // it runs to completion regardless of the budget.
            let (built, ratio) = problem.fallback(ws);
            finish(built, t_min, ratio, t_min, 0)
        }
        Algorithm::EpsilonSearch { eps_log2 } => {
            let d = epsilon_direct(ws, problem, eps_log2, opts);
            settle(ws, problem, d, stats)
        }
        Algorithm::ThreeHalves => {
            let d = problem.direct_search(ws, opts);
            settle(ws, problem, d, stats)
        }
    };
    // Heuristic problems may floor their `t_min` above the true optimum of
    // degenerate (all-zero-cost) instances; clamp so `certificate <=
    // makespan` stays an invariant of every Solution. A no-op whenever the
    // certificate is a genuine lower bound on OPT.
    if !problem.probe_certifies() {
        sol.certificate = sol.certificate.min(sol.makespan);
    }
    sol
}

/// Theorem 2's ε-search over `problem`'s dual: the ladder on `[T_min,
/// search_hi]` to gap `ε·T_min`, then the single build at the accepted
/// guess. The builders keep defensive rejection branches beyond the accept
/// test; if one fires at the accepted guess, the build falls back to the
/// problem's safe guess instead of panicking.
pub(crate) fn epsilon_direct<P: Problem + ?Sized>(
    ws: &mut DualWorkspace,
    problem: &P,
    eps_log2: u32,
    opts: &SolveOptions<'_>,
) -> DirectSolve {
    let t_min = problem.t_min();
    let t_hi = problem.search_hi();
    let eps = Rational::new(1, 1 << eps_log2.min(60));
    let gap = eps * t_min;
    assert!(t_min.is_positive() && t_min <= t_hi);
    let certifies = problem.probe_certifies();
    let mut search = Search::new(opts, certifies);
    let out = search.run(
        ws,
        t_min,
        t_hi,
        || Bracket::try_new(t_min, t_hi, gap),
        |w, t| problem.probe(w, t),
    );
    let trace = &mut Trace::disabled();
    let (accepted, built) = match problem.build(ws, out.accepted, trace) {
        Some(b) => (out.accepted, b),
        None => {
            let hi = problem.t_safe();
            let b = problem.build(ws, hi, trace);
            (hi, b.expect("t_safe is accepted and builds"))
        }
    };
    DirectSolve {
        built,
        accepted,
        certificate: match out.rejected {
            Some(rejected) if certifies => rejected.max(t_min),
            _ => t_min,
        },
        probes: out.probes,
        ratio: problem.dual_ratio() * (eps + 1u64),
        interrupt: out.interrupt,
        stats: search.stats,
    }
}

/// The shared tail of every search arm: the [`Solution`] of a direct search,
/// degraded when it was interrupted.
fn settle<P: Problem + ?Sized>(
    ws: &mut DualWorkspace,
    problem: &P,
    d: DirectSolve,
    stats: &mut SearchStats,
) -> Solution {
    *stats += d.stats;
    let certificate = d.certificate.max(problem.t_min());
    let sol = finish(d.built, d.accepted, d.ratio, certificate, d.probes);
    degraded(ws, problem, sol, d.interrupt)
}

/// Applies graceful degradation to an interrupted search result (no-op when
/// `interrupt` is `None`):
///
/// 1. **Honest widening.** A completed certifying search proves `makespan <=
///    ratio · OPT` because it drove `accepted` down to (within ε of) a
///    certified rejection. An interrupted one only knows `makespan <= ratio ·
///    accepted` and `OPT > certificate`, so the tightest honest claim versus
///    `OPT` is `ratio · accepted / certificate` — wider, and exactly as wide
///    as the unfinished bracket. Heuristic problems
///    (`!probe_certifies`) skip this: their `ratio_bound` is constructive
///    versus `accepted`, never a claim versus `OPT`.
/// 2. **Safety net.** The `O(n)` fallback is built and merged
///    portfolio-style — each arm keeps its own coherent `(accepted,
///    ratio_bound)` pair, the better makespan wins, certificates merge by
///    maximum — so even an instantly-expiring budget returns the
///    Theorem-1 2-approximation rather than the bracket top alone.
/// 3. The [`Completion`] records the interrupt.
fn degraded<P: Problem + ?Sized>(
    ws: &mut DualWorkspace,
    problem: &P,
    mut sol: Solution,
    interrupt: Option<Interrupt>,
) -> Solution {
    let Some(interrupt) = interrupt else {
        return sol;
    };
    if problem.probe_certifies() && sol.certificate.is_positive() && sol.accepted > sol.certificate
    {
        sol.ratio_bound = sol.ratio_bound * sol.accepted / sol.certificate;
    }
    let t_min = problem.t_min();
    let (built, ratio) = problem.fallback(ws);
    let net = finish(built, t_min, ratio, t_min, 0);
    let cert = sol.certificate.max(net.certificate);
    if net.makespan < sol.makespan {
        let probes = sol.probes;
        sol = net;
        sol.probes = probes;
    }
    sol.certificate = cert;
    sol.completion = Completion::of(Some(interrupt));
    sol
}

/// The batch-setup problem of the paper, for one of its three variants.
///
/// This is the [`Problem`] [`crate::solve`] and its siblings run on:
/// probes and builders are the theorems' duals (rejections certify), the
/// direct search is Class Jumping (splittable, preemptive; Theorems 3 and 6)
/// or the exact integer search (non-preemptive; Theorem 8), and the fallback
/// is the `O(n)` 2-approximation of Theorem 1.
#[derive(Debug)]
pub struct BssProblem<'a> {
    inst: &'a Instance,
    variant: Variant,
    bounds: LowerBounds,
}

impl<'a> BssProblem<'a> {
    /// The chosen variant's problem over `inst`.
    #[must_use]
    pub fn new(inst: &'a Instance, variant: Variant) -> Self {
        BssProblem {
            inst,
            variant,
            bounds: LowerBounds::of(inst),
        }
    }

    /// The integral guess the non-preemptive dual takes (probing at `⌊t⌋`
    /// only strengthens the test, `⌊t⌋ <= t`).
    fn int_guess(t: Rational) -> u64 {
        t.floor().max(1) as u64
    }
}

impl Problem for BssProblem<'_> {
    fn name(&self) -> &'static str {
        self.variant.name()
    }

    fn t_min(&self) -> Rational {
        self.bounds.tmin(self.variant)
    }

    fn t_safe(&self) -> Rational {
        match self.variant {
            // The integral window top, so the fallback build probes the same
            // guess it reports.
            Variant::NonPreemptive => Rational::from(2 * self.t_min().ceil().max(1) as u64),
            _ => self.t_min() * 2u64,
        }
    }

    fn probe_certifies(&self) -> bool {
        true
    }

    fn dual_ratio(&self) -> Rational {
        Rational::new(3, 2)
    }

    fn probe(&self, ws: &mut DualWorkspace, t: Rational) -> bool {
        match self.variant {
            Variant::Splittable => splittable::accepts_in(ws, self.inst, t),
            Variant::Preemptive => {
                preemptive::accepts_in(ws, self.inst, t, preemptive::CountMode::AlphaPrime)
            }
            Variant::NonPreemptive => nonpreemptive::accepts(self.inst, Self::int_guess(t)),
        }
    }

    fn build(&self, ws: &mut DualWorkspace, t: Rational, trace: &mut Trace) -> Option<Built> {
        match self.variant {
            Variant::Splittable => splittable::build_in(ws, self.inst, t, trace),
            Variant::Preemptive => {
                preemptive::build_in(ws, self.inst, t, preemptive::CountMode::AlphaPrime, trace)
            }
            Variant::NonPreemptive => {
                nonpreemptive::build_in(ws, self.inst, Self::int_guess(t), trace)
            }
        }
    }

    fn fallback(&self, ws: &mut DualWorkspace) -> (Built, Rational) {
        let built = match self.variant {
            Variant::Splittable => {
                let (c, makespan) = two_approx::splittable_with_makespan(ws, self.inst);
                Built {
                    repr: ScheduleRepr::Compact(c),
                    makespan,
                }
            }
            _ => {
                let (s, makespan) =
                    two_approx::greedy_with_makespan(self.inst, &mut Trace::disabled());
                Built {
                    repr: ScheduleRepr::Explicit(s),
                    makespan,
                }
            }
        };
        (built, Rational::from(2u64))
    }

    fn direct_search(&self, ws: &mut DualWorkspace, opts: &SolveOptions<'_>) -> DirectSolve {
        let mut search = Search::new(opts, true);
        let inst = self.inst;
        // Class Jumping walks a jump structure, not a bisection, so it has
        // no ladder to warm: it runs as is.
        let out = match self.variant {
            Variant::Splittable => class_jumping::<splittable::Split>(ws, inst, search.budget()),
            _ if inst.machines() >= inst.num_jobs() => one_job_per_machine(inst),
            Variant::Preemptive => class_jumping::<preemptive::Pmtn>(ws, inst, search.budget()),
            Variant::NonPreemptive => nonpreemptive::three_halves_search(ws, inst, &mut search),
        };
        let t_min = self.t_min();
        DirectSolve {
            built: out.built,
            accepted: out.accepted,
            certificate: out.rejected.unwrap_or(t_min).max(t_min),
            probes: out.probes,
            ratio: Rational::new(3, 2),
            interrupt: out.interrupt,
            stats: search.stats,
        }
    }

    fn exact_oracle(&self, budget: &SolveBudget) -> Option<bss_exact::ExactSolve> {
        // Gate well inside the oracle's comfort zone so the portfolio's
        // asymptotics are untouched on real workloads.
        if self.inst.num_jobs() > 12 || self.inst.machines() > 4 || self.inst.num_classes() > 6 {
            return None;
        }
        bss_exact::solve_bss_budgeted(
            self.inst,
            self.variant,
            &bss_exact::ExactConfig::default(),
            budget,
        )
        .ok()
    }
}

/// `m >= n` without splitting: one job and its setup per machine is
/// optimal (Note 1), with makespan `max_i (s_i + t^(i)_max)` — the lower
/// bound of Note 2.
fn one_job_per_machine(inst: &Instance) -> SearchOutcome {
    let mut s = Schedule::new(inst.machines());
    for j in 0..inst.num_jobs() {
        let job = inst.job(j);
        let setup = Rational::from(inst.setup(job.class));
        s.push_setup(j, Rational::ZERO, setup, job.class);
        s.push_piece(j, setup, Rational::from(job.time), j, job.class);
    }
    let opt = Rational::from(inst.max_setup_plus_tmax());
    SearchOutcome {
        built: Built {
            repr: ScheduleRepr::Explicit(s),
            makespan: opt,
        },
        accepted: opt,
        rejected: None,
        probes: 0,
        interrupt: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve;
    use bss_schedule::validate;

    /// The trait-driven path must be bit-identical to the `solve` facade
    /// (which delegates to it — this guards the delegation).
    #[test]
    fn bss_problem_matches_solve_facade() {
        for seed in 0..8 {
            let inst = bss_gen::uniform(60, 8, 4, seed);
            for variant in Variant::ALL {
                let problem = BssProblem::new(&inst, variant);
                for algo in [
                    Algorithm::TwoApprox,
                    Algorithm::EpsilonSearch { eps_log2: 6 },
                    Algorithm::ThreeHalves,
                    Algorithm::Portfolio,
                ] {
                    let mut ws = DualWorkspace::new();
                    let a = solve_problem(&mut ws, &problem, algo, &SolveOptions::default())
                        .expect("no panics");
                    let b = solve(&inst, variant, algo);
                    assert_eq!(a.makespan, b.makespan, "{variant} {algo:?}");
                    assert_eq!(a.accepted, b.accepted, "{variant} {algo:?}");
                    assert_eq!(a.ratio_bound, b.ratio_bound, "{variant} {algo:?}");
                    assert_eq!(a.certificate, b.certificate, "{variant} {algo:?}");
                    assert_eq!(a.probes, b.probes, "{variant} {algo:?}");
                    assert_eq!(a.schedule().placements(), b.schedule().placements());
                    assert!(validate(a.schedule(), &inst, variant).is_empty());
                }
            }
        }
    }

    #[test]
    fn problem_metadata_is_consistent() {
        let inst = bss_gen::uniform(30, 5, 3, 1);
        for variant in Variant::ALL {
            let p = BssProblem::new(&inst, variant);
            assert!(p.probe_certifies());
            assert!(p.t_min() <= p.t_safe());
            assert!(p.t_min() <= p.search_hi());
            assert_eq!(p.dual_ratio(), Rational::new(3, 2));
            // The safe guess really is accepted and buildable, and the
            // builder reports its schedule's makespan.
            let mut ws = DualWorkspace::new();
            assert!(p.probe(&mut ws, p.t_safe()));
            let built = p
                .build(&mut ws, p.t_safe(), &mut Trace::disabled())
                .expect("t_safe builds");
            let rescan = match &built.repr {
                ScheduleRepr::Explicit(s) => s.makespan(),
                ScheduleRepr::Compact(c) => c.makespan(),
            };
            assert_eq!(built.makespan, rescan, "{variant}");
        }
    }
}
