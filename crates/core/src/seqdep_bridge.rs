//! Sequence-dependent setups on the unified solve surface.
//!
//! [`SeqDepProblem`] implements [`Problem`] for [`SeqDepInstance`]: seqdep
//! instances are solved, validated and benchmarked through the same
//! [`solve_problem`] driver (and the same [`Solution`] type) as the paper's
//! batch-setup variants — budgets and warm starts included.
//!
//! Two regimes, chosen automatically at construction:
//!
//! * **Uniform** (`s(c, c') = s(c')` — the batch-setup special case):
//!   [`bss_seqdep::reduce::to_uniform_instance`] reduces bit-exactly to a
//!   batch-setup instance with one job per class, and the direct search
//!   *is* the non-preemptive Theorem-8 search on the reduction. The optima
//!   of the two models coincide (see `bss_seqdep::reduce`), so the 3/2
//!   guarantee and the rejection certificates transfer unchanged.
//! * **General** (APX-hard): the heuristic dual of [`bss_seqdep::solver`] —
//!   a capacity-bounded nearest-neighbour builder searched over the load
//!   lower bound. Acceptance is constructive (`makespan <= 2·accepted` by
//!   the ceiling), rejections certify nothing
//!   ([`Problem::probe_certifies`] is `false`), and the certificate stays
//!   the instance-only `T_min` — `makespan / certificate` is the honest
//!   a-posteriori quality statement.

use bss_budget::SolveBudget;
use bss_instance::Instance;
use bss_rational::Rational;
use bss_schedule::Schedule;
use bss_seqdep::{solver, SeqDepInstance};

use crate::api::{Algorithm, Built, Solution};
use crate::problem::{epsilon_direct, solve_problem, BssProblem, DirectSolve, Problem};
use crate::workspace::DualWorkspace;
use crate::{SolveOptions, Trace};

/// The general regime's direct search: an ε-search at `ε = 2^-10`.
const GENERAL_EPS_LOG2: u32 = 10;

/// A sequence-dependent instance on the unified solve surface.
#[derive(Debug)]
pub struct SeqDepProblem<'a> {
    inst: &'a SeqDepInstance,
    /// The bit-exact batch-setup reduction, when the instance is uniform —
    /// borrowed from the instance's own memo, so re-building the bridge
    /// never re-pays the `O(c²)` uniformity scan.
    uniform: Option<&'a Instance>,
}

impl<'a> SeqDepProblem<'a> {
    /// Wraps `inst`; the uniform special case is detected once per
    /// *instance* (memoized on [`SeqDepInstance::uniform_reduction`]), not
    /// once per construction.
    #[must_use]
    pub fn new(inst: &'a SeqDepInstance) -> Self {
        SeqDepProblem {
            inst,
            uniform: inst.uniform_reduction(),
        }
    }

    /// The batch-setup reduction this problem solves through, when the
    /// instance is the uniform special case.
    #[must_use]
    pub fn uniform_reduction(&self) -> Option<&Instance> {
        self.uniform
    }

    /// Emits `orders` as an explicit schedule through the solver's single
    /// emission convention ([`solver::emit_orders`]).
    fn orders_to_built(&self, orders: &[Vec<usize>]) -> Built {
        let mut out = Schedule::new(self.inst.machines());
        solver::emit_orders(self.inst, orders, &mut out);
        Built::rescanned(out)
    }
}

impl Problem for SeqDepProblem<'_> {
    fn name(&self) -> &'static str {
        "seqdep"
    }

    fn t_min(&self) -> Rational {
        // Floored at 1: an instance whose every cost is zero has OPT = 0
        // (any schedule is optimal and free), and the searches need a
        // positive anchor. The floor keeps every division and search
        // precondition well-defined; `makespan <= ratio_bound · accepted`
        // still holds trivially (a zero makespan is below any bound), and
        // certificates are clamped to the makespan by the driver.
        bss_seqdep::t_min(self.inst).max(Rational::ONE)
    }

    fn t_safe(&self) -> Rational {
        solver::t_safe(self.inst).max(self.t_min())
    }

    fn search_hi(&self) -> Rational {
        // 2·T_min is not provably accepted by a heuristic dual; the safe
        // guess (half the sequential weight) is, constructively.
        self.t_safe()
    }

    fn probe_certifies(&self) -> bool {
        false
    }

    fn dual_ratio(&self) -> Rational {
        Rational::from(2u64)
    }

    fn probe(&self, ws: &mut DualWorkspace, t: Rational) -> bool {
        solver::probe_in(&mut ws.seqdep, self.inst, t)
    }

    fn build(&self, ws: &mut DualWorkspace, t: Rational, _trace: &mut Trace) -> Option<Built> {
        let mut out = Schedule::new(self.inst.machines());
        solver::build_into(&mut ws.seqdep, self.inst, t, &mut out).then(|| Built::rescanned(out))
    }

    fn fallback(&self, _ws: &mut DualWorkspace) -> (Built, Rational) {
        // The nearest-neighbour + LPT list heuristic; no constant-factor
        // proof exists (APX-hardness), so the factor is certified
        // a-posteriori against T_min — exact rational arithmetic, the
        // documented `makespan <= ratio_bound * accepted` invariant holds by
        // construction of the ratio.
        let orders = bss_seqdep::nearest_neighbor_schedule(self.inst);
        let makespan = Rational::from(self.inst.makespan(&orders));
        let built = self.orders_to_built(&orders);
        let ratio = makespan / self.t_min();
        (built, ratio.max(Rational::from(1u64)))
    }

    fn direct_search(&self, ws: &mut DualWorkspace, opts: &SolveOptions<'_>) -> DirectSolve {
        match self.uniform {
            // Uniform special case: the optima coincide, so Theorem 8's
            // search on the reduction is a genuine 3/2-approximation here,
            // rejection certificates included.
            Some(reduced) => BssProblem::new(reduced, bss_instance::Variant::NonPreemptive)
                .direct_search(ws, opts),
            // General case: a fine ε-search over the heuristic dual.
            None => epsilon_direct(ws, self, GENERAL_EPS_LOG2, opts),
        }
    }

    fn exact_oracle(&self, budget: &SolveBudget) -> Option<bss_exact::ExactSolve> {
        // The seqdep oracle branches on classes, not jobs; keep it to
        // shapes the class-order search finishes comfortably.
        if self.inst.num_classes() > 8 || self.inst.machines() > 4 {
            return None;
        }
        bss_exact::solve_seqdep_budgeted(self.inst, &bss_exact::ExactConfig::default(), budget).ok()
    }
}

/// Solves a sequence-dependent instance through the unified surface.
///
/// Uniform instances route through the batch-setup reduction (proven
/// guarantees); general instances run the heuristic dual — see
/// [`SeqDepProblem`]. Budgets, warm starts and a reusable workspace
/// go through [`solve_problem`] with a [`SeqDepProblem`].
///
/// # Panics
/// When the solver panics (see [`crate::SolveError`]).
#[must_use]
pub fn solve_seqdep(inst: &SeqDepInstance, algo: Algorithm) -> Solution {
    let problem = SeqDepProblem::new(inst);
    solve_problem(
        &mut DualWorkspace::new(),
        &problem,
        algo,
        &SolveOptions::default(),
    )
    .unwrap_or_else(|e| panic!("{e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bss_seqdep::reduce;

    fn general_instance(seed: u64, c: usize, m: usize) -> SeqDepInstance {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let switch: Vec<Vec<u64>> = (0..c)
            .map(|i| {
                (0..c)
                    .map(|j| if i == j { 0 } else { rng.gen_range(1..30) })
                    .collect()
            })
            .collect();
        let initial: Vec<u64> = (0..c).map(|_| rng.gen_range(1..30)).collect();
        let work: Vec<u64> = (0..c).map(|_| rng.gen_range(1..60)).collect();
        SeqDepInstance::new(m, initial, switch, work).unwrap()
    }

    #[test]
    fn general_instances_meet_the_documented_invariants() {
        for seed in 0..10 {
            let inst = general_instance(seed, 12, 3);
            for algo in [
                Algorithm::TwoApprox,
                Algorithm::EpsilonSearch { eps_log2: 8 },
                Algorithm::ThreeHalves,
                Algorithm::Portfolio,
            ] {
                let sol = solve_seqdep(&inst, algo);
                assert!(
                    sol.makespan <= sol.ratio_bound * sol.accepted,
                    "{algo:?}: {} > {} * {}",
                    sol.makespan,
                    sol.ratio_bound,
                    sol.accepted
                );
                assert!(sol.certificate >= bss_seqdep::t_min(&inst).min(sol.makespan));
                assert!(sol.certificate <= sol.makespan);
                // The schedule's own makespan is what the solution reports.
                assert_eq!(sol.schedule().makespan(), sol.makespan);
            }
        }
    }

    #[test]
    fn uniform_instances_inherit_the_three_halves_guarantee() {
        for seed in 0..10 {
            let bss = bss_gen::uniform(24, 6, 3, seed);
            let sd = reduce::from_instance(&bss);
            let p = SeqDepProblem::new(&sd);
            assert!(p.uniform_reduction().is_some());
            let sol = solve_seqdep(&sd, Algorithm::ThreeHalves);
            assert_eq!(sol.ratio_bound, Rational::new(3, 2));
            // Map back to orders and confirm with the seqdep evaluator.
            let reduced = p.uniform_reduction().unwrap();
            let orders = reduce::orders_from_schedule(sol.schedule(), reduced);
            let confirmed = Rational::from(sd.makespan(&orders));
            assert!(confirmed <= sol.makespan);
            assert!(confirmed <= sol.ratio_bound * sol.accepted);
        }
    }

    #[test]
    fn portfolio_never_loses_to_its_members() {
        for seed in 0..10 {
            let inst = general_instance(seed, 10, 4);
            let p = solve_seqdep(&inst, Algorithm::Portfolio);
            let a = solve_seqdep(&inst, Algorithm::ThreeHalves);
            let b = solve_seqdep(&inst, Algorithm::TwoApprox);
            assert!(p.makespan <= a.makespan.min(b.makespan));
            assert!(p.makespan <= p.ratio_bound * p.accepted);
        }
    }

    #[test]
    fn solve_is_deterministic() {
        let inst = general_instance(5, 14, 4);
        let a = solve_seqdep(&inst, Algorithm::ThreeHalves);
        let b = solve_seqdep(&inst, Algorithm::ThreeHalves);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.accepted, b.accepted);
        assert_eq!(a.schedule().placements(), b.schedule().placements());
    }
}
