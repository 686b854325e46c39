//! Exact splittable optima via coverage enumeration.
//!
//! A splittable schedule may, WLOG, set up each class at most once per
//! machine (merging two runs of one class on one machine drops a setup and
//! only shrinks the load, and splittable pieces carry no time constraints).
//! The *coverage* `U_i` — which machines set up class `i` — therefore
//! determines the minimal feasible makespan exactly: it is the
//! Gale–Hoffman transportation bound [`bounds::coverage_gale_bound`], and
//! the optimum is its minimum over all coverages. The search enumerates
//! coverages depth-first with monotone partial bounds; the winning coverage
//! is realized through an exact-rational transportation flow.

use bss_instance::Instance;
use bss_rational::Rational;
use bss_schedule::Schedule;

use crate::bounds;
use crate::flow::Flow;
use crate::{ExactSolve, ExactStatus, NodeBudget};

/// Classes that actually need a setup somewhere: those with work.
pub(crate) fn active_classes(inst: &Instance) -> Vec<usize> {
    let mut active: Vec<usize> = (0..inst.num_classes())
        .filter(|&i| inst.class_proc(i) > 0)
        .collect();
    // Heaviest classes first: their masks dominate the bound, so wrong
    // choices are pruned high in the tree.
    active.sort_by_key(|&i| std::cmp::Reverse(inst.setup(i) + inst.class_proc(i)));
    active
}

/// Greedy incumbent: each class on the single machine with the least
/// resulting load (a valid coverage, so its Gale bound is a feasible
/// makespan).
pub(crate) fn greedy_coverage(inst: &Instance, active: &[usize]) -> Vec<u32> {
    let mut coverage = vec![0u32; inst.num_classes()];
    let mut load = vec![0u64; inst.machines()];
    for &i in active {
        let add = inst.setup(i) + inst.class_proc(i);
        let u = (0..inst.machines())
            .min_by_key(|&u| load[u] + add)
            .expect("at least one machine");
        load[u] += add;
        coverage[i] = 1 << u;
    }
    coverage
}

/// A lower bound on the Gale bound of any *completion* of a partial
/// coverage (classes `active[depth..]` unassigned): the partial Gale bound
/// itself (monotone in assigned classes), the full-machine-set average with
/// every unassigned class contributing its minimum `s_i + P_i`, and each
/// unassigned class's own spread bound.
pub(crate) fn partial_bound(
    inst: &Instance,
    coverage: &[u32],
    active: &[usize],
    depth: usize,
) -> Rational {
    let m = inst.machines() as u64;
    let mut bound = bounds::coverage_gale_bound(inst, coverage);
    let mut total: u64 = inst.total_proc();
    for (i, &mask) in coverage.iter().enumerate() {
        total += inst.setup(i) * u64::from(mask.count_ones());
    }
    let mut spread = Rational::ZERO;
    for &i in &active[depth..] {
        total += inst.setup(i);
        spread = spread.max(
            Rational::from(inst.setup(i)) + Rational::from(inst.class_proc(i)) / Rational::from(m),
        );
    }
    bound = bound.max(Rational::from(total) / Rational::from(m));
    bound.max(spread)
}

struct Search<'a> {
    inst: &'a Instance,
    active: Vec<usize>,
    best_t: Rational,
    best_cov: Vec<u32>,
    lower_target: Rational,
}

impl Search<'_> {
    fn dfs(&mut self, coverage: &mut Vec<u32>, depth: usize, budget: &mut NodeBudget<'_>) {
        if !budget.tick() {
            return;
        }
        if self.best_t == self.lower_target {
            return; // already optimal, nothing below the root bound exists
        }
        if depth == self.active.len() {
            let t = bounds::coverage_gale_bound(self.inst, coverage);
            if t < self.best_t {
                self.best_t = t;
                self.best_cov = coverage.clone();
            }
            return;
        }
        let class = self.active[depth];
        let m = self.inst.machines();
        for mask in 1u32..(1 << m) {
            coverage[class] = mask;
            if partial_bound(self.inst, coverage, &self.active, depth + 1) < self.best_t {
                self.dfs(coverage, depth + 1, budget);
            }
            if budget.exhausted() {
                break;
            }
        }
        coverage[class] = 0;
    }
}

/// Exact splittable solve: always closes unless the node budget runs out.
pub(crate) fn solve(inst: &Instance, budget: &mut NodeBudget<'_>) -> ExactSolve {
    let active = active_classes(inst);
    if active.is_empty() {
        return ExactSolve {
            lower: Rational::ZERO,
            upper: Rational::ZERO,
            nodes: budget.used(),
            status: ExactStatus::Closed,
            schedule: Schedule::new(inst.machines()),
        };
    }
    let greedy = greedy_coverage(inst, &active);
    let mut search = Search {
        inst,
        best_t: bounds::coverage_gale_bound(inst, &greedy),
        best_cov: greedy,
        lower_target: bounds::splittable_root_bound(inst),
        active,
    };
    let mut coverage = vec![0u32; inst.num_classes()];
    search.dfs(&mut coverage, 0, budget);
    let closed = !budget.exhausted();

    let schedule = transportation(inst, &search.best_cov, search.best_t, budget)
        .map(|x| realize(inst, &search.best_cov, &x))
        .unwrap_or_else(|| {
            // Unreachable by Gale–Hoffman; fall back to an empty schedule
            // only if the budget died inside the realization flow.
            Schedule::new(inst.machines())
        });
    let upper = if schedule.placements().is_empty() {
        search.best_t
    } else {
        schedule.makespan()
    };
    let lower = if closed {
        debug_assert_eq!(upper, search.best_t, "realized makespan must hit the bound");
        upper
    } else {
        bounds::splittable_root_bound(inst).min(upper)
    };
    ExactSolve {
        lower,
        upper,
        nodes: budget.used(),
        status: if closed {
            ExactStatus::Closed
        } else {
            ExactStatus::Budget
        },
        schedule,
    }
}

/// All complete coverages whose Gale bound is `≤ t`, up to `cap` of them
/// (used by the preemptive realization, which tries each as a run layout).
pub(crate) fn coverages_within(
    inst: &Instance,
    t: Rational,
    budget: &mut NodeBudget<'_>,
    cap: usize,
) -> Vec<Vec<u32>> {
    let active = active_classes(inst);
    let mut out = Vec::new();
    let mut coverage = vec![0u32; inst.num_classes()];
    #[allow(clippy::too_many_arguments)] // the recursion's state, passed explicitly
    fn dfs(
        inst: &Instance,
        active: &[usize],
        coverage: &mut Vec<u32>,
        depth: usize,
        t: Rational,
        budget: &mut NodeBudget<'_>,
        cap: usize,
        out: &mut Vec<Vec<u32>>,
    ) {
        if out.len() >= cap || !budget.tick() {
            return;
        }
        if depth == active.len() {
            if bounds::coverage_gale_bound(inst, coverage) <= t {
                out.push(coverage.clone());
            }
            return;
        }
        for mask in 1u32..(1 << inst.machines()) {
            coverage[active[depth]] = mask;
            if partial_bound(inst, coverage, active, depth + 1) <= t {
                dfs(inst, active, coverage, depth + 1, t, budget, cap, out);
            }
            if out.len() >= cap || budget.exhausted() {
                break;
            }
        }
        coverage[active[depth]] = 0;
    }
    dfs(inst, &active, &mut coverage, 0, t, budget, cap, &mut out);
    out
}

/// The transportation step: amounts `x[class][machine]` with `Σ_u x[i][u] =
/// P_i`, `x[i][u] = 0` off-coverage and machine loads `base_u + Σ_i x[i][u]
/// ≤ t`. `None` iff `t` is below the coverage's Gale bound (or the flow
/// budget died).
pub(crate) fn transportation(
    inst: &Instance,
    coverage: &[u32],
    t: Rational,
    budget: &mut NodeBudget<'_>,
) -> Option<Vec<Vec<Rational>>> {
    budget.tick();
    let (c, m) = (inst.num_classes(), inst.machines());
    let (source, sink) = (c + m, c + m + 1);
    let mut f = Flow::new(c + m + 2);
    let mut base = vec![0u64; m];
    for (i, &mask) in coverage.iter().enumerate() {
        for (u, b) in base.iter_mut().enumerate() {
            if mask & (1 << u) != 0 {
                *b += inst.setup(i);
            }
        }
    }
    let mut demand = Rational::ZERO;
    let mut class_edges: Vec<Vec<(usize, usize)>> = vec![Vec::new(); c];
    for (i, &mask) in coverage.iter().enumerate() {
        if mask == 0 {
            continue;
        }
        let p = Rational::from(inst.class_proc(i));
        demand += p;
        f.add_edge(source, i, p);
        for u in 0..m {
            if mask & (1 << u) != 0 {
                class_edges[i].push((u, f.add_edge(i, c + u, p)));
            }
        }
    }
    for (u, &b) in base.iter().enumerate() {
        let room = t - Rational::from(b);
        if room.is_negative() {
            return None;
        }
        f.add_edge(c + u, sink, room);
    }
    if f.max_flow(source, sink) != demand {
        return None;
    }
    let mut x = vec![vec![Rational::ZERO; m]; c];
    for (i, edges) in class_edges.iter().enumerate() {
        for &(u, id) in edges {
            x[i][u] = f.flow(id);
        }
    }
    Some(x)
}

/// Emits the class-contiguous splittable schedule for a transportation
/// solution: per machine, ascending classes, each as one `setup + pieces`
/// run; class work is sliced over its machines in ascending order, so a job
/// may split mid-piece across machines (legal for this variant). Runs with
/// `x = 0` are dropped (their setups are not needed, which can only lower
/// the makespan).
pub(crate) fn realize(inst: &Instance, coverage: &[u32], x: &[Vec<Rational>]) -> Schedule {
    let m = inst.machines();
    // pieces[u] = ascending-class list of (class, [(job, len)]).
    type MachineRuns = Vec<(usize, Vec<(usize, Rational)>)>;
    let mut pieces: Vec<MachineRuns> = vec![Vec::new(); m];
    for (i, &mask) in coverage.iter().enumerate() {
        if mask == 0 {
            continue;
        }
        let jobs = inst.class_jobs(i);
        let mut job_idx = 0usize;
        let mut remaining = jobs
            .first()
            .map(|&j| Rational::from(inst.job(j).time))
            .unwrap_or(Rational::ZERO);
        for u in 0..m {
            let mut need = x[i][u];
            if !need.is_positive() {
                continue;
            }
            let mut run = Vec::new();
            while need.is_positive() && job_idx < jobs.len() {
                let take = need.min(remaining);
                if take.is_positive() {
                    run.push((jobs[job_idx], take));
                    need -= take;
                    remaining -= take;
                }
                if !remaining.is_positive() {
                    job_idx += 1;
                    remaining = jobs
                        .get(job_idx)
                        .map(|&j| Rational::from(inst.job(j).time))
                        .unwrap_or(Rational::ZERO);
                }
            }
            pieces[u].push((i, run));
        }
    }
    let mut out = Schedule::new(m);
    for (u, runs) in pieces.iter().enumerate() {
        let mut cursor = Rational::ZERO;
        for (class, run) in runs {
            // Zero-length setups are emitted too: the validator's timeline
            // sweep breaks start ties by insertion order, so the setup still
            // configures the machine before its pieces.
            let s = Rational::from(inst.setup(*class));
            out.push_setup(u, cursor, s, *class);
            cursor += s;
            for &(job, len) in run {
                out.push_piece(u, cursor, len, job, *class);
                cursor += len;
            }
        }
    }
    out
}
