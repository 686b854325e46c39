//! Exact preemptive optima via a coverage-aware sandwich, closed from
//! below by an exact wrap-around realization.
//!
//! The certified lower bound is `L = max(min_U max(gale(U), jobcap(U)),
//! setup_job_bound)` where `U` ranges over coverages (which machines set a
//! class up):
//!
//! * `gale(U)` is the splittable transportation bound — valid because
//!   splittable relaxes preemptive;
//! * `jobcap(U)` is the *job-capacity* bound: a job `j` of class `i` runs
//!   only on machines in `U_i`, and machine `u` has at most
//!   `T − base_u − forced_u` time left for it, where `forced_u` is the
//!   work of classes covered *only* by `u`. Summing over `U_i` and solving
//!   for `T` is a pure capacity argument, so it stays valid even for
//!   schedules that set a class up twice on one machine (extra setups only
//!   shrink capacity).
//!
//! The oracle closes by either `L == OPT_nonp` (a non-preemptive optimum
//! is preemptively feasible) or *realizing* a preemptive schedule of
//! makespan exactly `L`: pick a coverage with Gale bound `≤ L`, a
//! transportation solution `x`, lay each machine out as class-contiguous
//! runs `setup_i + x_{i,u}` in some order, and assign job pieces of each
//! class to its run intervals by a max-flow over elementary time slots
//! (job-per-slot caps enforce no-self-overlap); the per-slot piece matrix
//! is peeled into matchings (the Birkhoff-style open-shop decomposition),
//! which yields actual placements. All orders are tried, capped.
//!
//! When neither closes the gap, realization is retried at the integer
//! candidates between the bounds to tighten `upper`, and the result is the
//! honest sandwich with [`ExactStatus::Gap`] — never a silent optimality
//! claim.

use bss_instance::Instance;
use bss_rational::Rational;
use bss_schedule::Schedule;

use crate::flow::Flow;
use crate::{bounds, nonpreemptive, splittable, ExactSolve, ExactStatus, NodeBudget};

/// Cap on coverages tried for the lower-bound realization.
const COVERAGE_CAP: usize = 64;
/// Cap on per-machine run-order combinations tried per coverage.
const ORDER_CAP: usize = 768;

/// The job-capacity bound for one coverage: the smallest `T` at which every
/// job fits into the residual capacity of its class's machines.
fn jobcap(inst: &Instance, coverage: &[u32]) -> Rational {
    let m = inst.machines();
    // base[u] = setups u pays; forced[u] = work of classes covered only by u.
    let mut base = vec![0u64; m];
    let mut forced = vec![0u64; m];
    for (i, &mask) in coverage.iter().enumerate() {
        for (u, b) in base.iter_mut().enumerate() {
            if mask & (1 << u) != 0 {
                *b += inst.setup(i);
            }
        }
        if mask.count_ones() == 1 {
            forced[mask.trailing_zeros() as usize] += inst.class_proc(i);
        }
    }
    let mut best = Rational::ZERO;
    for (i, &mask) in coverage.iter().enumerate() {
        if mask == 0 {
            continue;
        }
        for &job in inst.class_jobs(i) {
            let tj = inst.job(job).time;
            // Machine thresholds c_u below which u contributes nothing; for
            // the job's own class, its work is not "other" work.
            let mut c: Vec<u64> = (0..m)
                .filter(|&u| mask & (1 << u) != 0)
                .map(|u| {
                    base[u] + forced[u]
                        - if mask.count_ones() == 1 {
                            inst.class_proc(i)
                        } else {
                            0
                        }
                })
                .collect();
            c.sort_unstable();
            // Minimal T with Σ_u max(0, T - c_u) ≥ t_j: try each prefix.
            let mut prefix = 0u64;
            for (r, &cu) in c.iter().enumerate() {
                prefix += cu;
                let t = Rational::new((tj + prefix) as i128, (r + 1) as i128);
                let active = t >= Rational::from(cu);
                let closes = r + 1 == c.len() || t <= Rational::from(c[r + 1]);
                if active && closes {
                    best = best.max(t);
                    break;
                }
            }
        }
    }
    best
}

/// Cap on position patterns enumerated per (coverage, job) in the pattern
/// bound; past it the bound falls back to the weaker capacity-only value.
const PATTERN_CAP: usize = 4096;

/// Denominator grid that contains every bound threshold for `m` machines:
/// `lcm(1..=m)` (cut slopes in the tiny union flows are at most `m`).
fn grid_denominator(m: usize) -> u64 {
    [1, 1, 2, 6, 12, 60][m.min(5)]
}

/// Position-aware feasibility check for *simple* schedules (at most one run
/// per machine and class) at makespan `t`: for every job, some choice of
/// "which other classes precede it" on each of its machines must leave
/// enough reachable window measure. Necessary, not sufficient.
fn pattern_feasible(
    inst: &Instance,
    coverage: &[u32],
    t: Rational,
    budget: &mut NodeBudget<'_>,
) -> bool {
    let m = inst.machines();
    let mut base = vec![0u64; m];
    let mut forced = vec![0u64; m];
    for (i, &mask) in coverage.iter().enumerate() {
        for (u, b) in base.iter_mut().enumerate() {
            if mask & (1 << u) != 0 {
                *b += inst.setup(i);
            }
        }
        if mask.count_ones() == 1 {
            forced[mask.trailing_zeros() as usize] += inst.class_proc(i);
        }
    }
    for (i, &mask) in coverage.iter().enumerate() {
        if mask == 0 {
            continue;
        }
        // Machines of class i, and the other classes sharing each of them.
        let machines: Vec<usize> = (0..m).filter(|&u| mask & (1 << u) != 0).collect();
        let others: Vec<Vec<usize>> = machines
            .iter()
            .map(|&u| {
                (0..inst.num_classes())
                    .filter(|&k| k != i && coverage[k] & (1 << u) != 0)
                    .collect()
            })
            .collect();
        let patterns: usize = others.iter().map(|o| 1usize << o.len()).product();
        for &job in inst.class_jobs(i) {
            let tj = Rational::from(inst.job(job).time);
            let caps: Vec<Rational> = machines
                .iter()
                .map(|&u| {
                    let own = if mask.count_ones() == 1 {
                        inst.class_proc(i)
                    } else {
                        0
                    };
                    t - Rational::from(base[u] + forced[u] - own)
                })
                .collect();
            if patterns > PATTERN_CAP {
                // Too many layouts to enumerate: fall back to the pure
                // capacity check (the jobcap bound already enforces it).
                continue;
            }
            let mut ok = false;
            for pat in 0..patterns {
                budget.tick();
                // Decode the pattern into per-machine extents.
                let mut extents: Vec<(Rational, Rational)> = Vec::with_capacity(machines.len());
                let mut rest = pat;
                for (mi, o) in others.iter().enumerate() {
                    let choice = rest & ((1 << o.len()) - 1);
                    rest >>= o.len();
                    let u = machines[mi];
                    let mut before = Rational::from(inst.setup(i));
                    let mut after = Rational::ZERO;
                    for (ki, &k) in o.iter().enumerate() {
                        let block = Rational::from(
                            inst.setup(k)
                                + if coverage[k].count_ones() == 1 {
                                    inst.class_proc(k)
                                } else {
                                    0
                                },
                        );
                        if choice & (1 << ki) != 0 {
                            before += block;
                        } else {
                            after += block;
                        }
                    }
                    let _ = u;
                    extents.push((before, t - after));
                }
                if max_union(&extents, &caps) >= tj {
                    ok = true;
                    break;
                }
            }
            if !ok {
                return false;
            }
        }
    }
    true
}

/// Maximum total measure one job can reach across machine windows: window
/// `u` is any subset of `extents[u]` with measure at most `caps[u]`, and
/// the job uses the union. Solved as a tiny max-flow machines → elementary
/// segments.
fn max_union(extents: &[(Rational, Rational)], caps: &[Rational]) -> Rational {
    let mut endpoints: Vec<Rational> = extents
        .iter()
        .filter(|(a, b)| b > a)
        .flat_map(|&(a, b)| [a, b])
        .collect();
    endpoints.sort();
    endpoints.dedup();
    if endpoints.len() < 2 {
        return Rational::ZERO;
    }
    let segments: Vec<(Rational, Rational)> = endpoints
        .windows(2)
        .map(|e| (e[0], e[1]))
        .filter(|(a, b)| b > a)
        .collect();
    let nm = extents.len();
    let ns = segments.len();
    let (source, sink) = (nm + ns, nm + ns + 1);
    let mut f = Flow::new(nm + ns + 2);
    for (u, &(a, b)) in extents.iter().enumerate() {
        if b <= a || !caps[u].is_positive() {
            continue;
        }
        f.add_edge(source, u, caps[u]);
        for (s, &(sa, sb)) in segments.iter().enumerate() {
            if a <= sa && sb <= b {
                f.add_edge(u, nm + s, sb - sa);
            }
        }
    }
    for (s, &(sa, sb)) in segments.iter().enumerate() {
        f.add_edge(nm + s, sink, sb - sa);
    }
    f.max_flow(source, sink)
}

/// Minimal `t` on the `1/lcm` grid in `[lo, hi]` passing
/// [`pattern_feasible`], or `hi` if none below does (the caller's incumbent
/// makes larger values irrelevant). The predicate is monotone in `t`, so
/// binary search on the grid is exact.
fn pattern_threshold(
    inst: &Instance,
    coverage: &[u32],
    lo: Rational,
    hi: Rational,
    budget: &mut NodeBudget<'_>,
) -> Rational {
    if pattern_feasible(inst, coverage, lo, budget) {
        return lo;
    }
    let d = grid_denominator(inst.machines());
    let mut a = (lo * Rational::from(d)).floor(); // infeasible side
    let mut b = (hi * Rational::from(d)).ceil(); // feasible side (or cap)
    while b - a > 1 {
        let mid = (a + b) / 2;
        if pattern_feasible(inst, coverage, Rational::new(mid, d as i128), budget) {
            b = mid;
        } else {
            a = mid;
        }
    }
    Rational::new(b, d as i128).min(hi).max(lo)
}

/// `min_U max(gale(U), jobcap(U))` over complete coverages, by the same
/// depth-first enumeration as the splittable search (the partial Gale bound
/// under-estimates both terms, so pruning against the incumbent is sound).
fn coverage_lb(inst: &Instance, budget: &mut NodeBudget<'_>) -> Rational {
    struct Search<'a> {
        inst: &'a Instance,
        active: Vec<usize>,
        best: Rational,
    }
    impl Search<'_> {
        fn dfs(&mut self, coverage: &mut Vec<u32>, depth: usize, budget: &mut NodeBudget<'_>) {
            if !budget.tick() {
                return;
            }
            if depth == self.active.len() {
                let v = bounds::coverage_gale_bound(self.inst, coverage)
                    .max(jobcap(self.inst, coverage));
                if v >= self.best {
                    return;
                }
                // Simple schedules (one run per machine and class) must also
                // pass the position-aware pattern bound; schedules that
                // repeat a class on a machine pay at least one extra setup.
                let m = Rational::from(self.inst.machines() as u64);
                let base_sum: u64 = coverage
                    .iter()
                    .enumerate()
                    .map(|(i, &mask)| self.inst.setup(i) * u64::from(mask.count_ones()))
                    .sum();
                let min_setup = (0..self.inst.num_classes())
                    .map(|i| self.inst.setup(i))
                    .min()
                    .unwrap_or(0);
                let avg_extra = Rational::from(base_sum + self.inst.total_proc() + min_setup) / m;
                let tau = pattern_threshold(self.inst, coverage, v, self.best, budget);
                let leaf = tau.min(v.max(avg_extra));
                if leaf < self.best {
                    self.best = leaf;
                }
                return;
            }
            let class = self.active[depth];
            for mask in 1u32..(1 << self.inst.machines()) {
                coverage[class] = mask;
                if splittable::partial_bound(self.inst, coverage, &self.active, depth + 1)
                    < self.best
                {
                    self.dfs(coverage, depth + 1, budget);
                }
                if budget.exhausted() {
                    break;
                }
            }
            coverage[class] = 0;
        }
    }
    let active = splittable::active_classes(inst);
    if active.is_empty() {
        return Rational::ZERO;
    }
    let greedy = splittable::greedy_coverage(inst, &active);
    let mut search = Search {
        inst,
        best: bounds::coverage_gale_bound(inst, &greedy).max(jobcap(inst, &greedy)),
        active,
    };
    let mut coverage = vec![0u32; inst.num_classes()];
    search.dfs(&mut coverage, 0, budget);
    search.best
}

pub(crate) fn solve(inst: &Instance, budget: &mut NodeBudget<'_>) -> ExactSolve {
    let lower = coverage_lb(inst, budget).max(bounds::setup_job_bound(inst));
    let nonp = nonpreemptive::solve(inst, budget);
    let mut upper = nonp.upper;
    let mut schedule = nonp.schedule;
    debug_assert!(lower <= upper, "sandwich inverted: {lower} > {upper}");
    if lower >= upper {
        return ExactSolve {
            lower: upper,
            upper,
            nodes: budget.used(),
            status: ExactStatus::Closed,
            schedule,
        };
    }
    if !budget.exhausted() {
        if let Some(s) = realize_at(inst, lower, budget) {
            debug_assert_eq!(s.makespan(), lower);
            return ExactSolve {
                lower,
                upper: lower,
                nodes: budget.used(),
                status: ExactStatus::Closed,
                schedule: s,
            };
        }
    }
    // Tighten the gap from above: the first grid candidate that realizes
    // becomes the upper bound (and the reported schedule).
    if !budget.exhausted() {
        let d = grid_denominator(inst.machines());
        let mut k = (lower * Rational::from(d)).floor() + 1;
        while Rational::new(k, d as i128) < upper && !budget.exhausted() {
            let t = Rational::new(k, d as i128);
            if let Some(s) = realize_at(inst, t, budget) {
                upper = t;
                schedule = s;
                break;
            }
            k += 1;
        }
    }
    ExactSolve {
        lower,
        upper,
        nodes: budget.used(),
        status: if budget.exhausted() {
            ExactStatus::Budget
        } else {
            ExactStatus::Gap
        },
        schedule,
    }
}

/// Tries to build a feasible preemptive schedule of makespan exactly `t`.
fn realize_at(inst: &Instance, t: Rational, budget: &mut NodeBudget<'_>) -> Option<Schedule> {
    for coverage in splittable::coverages_within(inst, t, budget, COVERAGE_CAP) {
        let Some(x) = splittable::transportation(inst, &coverage, t, budget) else {
            continue;
        };
        // Runs per machine: (class, piece length), dropping empty runs.
        let mut runs: Vec<Vec<(usize, Rational)>> = vec![Vec::new(); inst.machines()];
        for (i, row) in x.iter().enumerate() {
            for (u, &amount) in row.iter().enumerate() {
                if amount.is_positive() {
                    runs[u].push((i, amount));
                }
            }
        }
        let mut orders_tried = 0usize;
        let mut stack: Vec<Vec<(usize, Rational)>> = Vec::new();
        if let Some(s) = try_orders(inst, t, &runs, 0, &mut stack, &mut orders_tried, budget) {
            return Some(s);
        }
        if budget.exhausted() {
            return None;
        }
    }
    None
}

/// Depth-first product over per-machine run permutations; at each complete
/// choice, attempts the per-class flow assignment.
fn try_orders(
    inst: &Instance,
    t: Rational,
    runs: &[Vec<(usize, Rational)>],
    machine: usize,
    chosen: &mut Vec<Vec<(usize, Rational)>>,
    tried: &mut usize,
    budget: &mut NodeBudget<'_>,
) -> Option<Schedule> {
    if machine == runs.len() {
        *tried += 1;
        return assign_pieces(inst, t, chosen, budget);
    }
    let mut perm = runs[machine].clone();
    let k = perm.len();
    // Heap's-algorithm-style recursive permutations, deterministic order.
    #[allow(clippy::too_many_arguments)] // the recursion's state, passed explicitly
    fn permute(
        inst: &Instance,
        t: Rational,
        runs: &[Vec<(usize, Rational)>],
        machine: usize,
        perm: &mut Vec<(usize, Rational)>,
        from: usize,
        chosen: &mut Vec<Vec<(usize, Rational)>>,
        tried: &mut usize,
        budget: &mut NodeBudget<'_>,
    ) -> Option<Schedule> {
        if *tried >= ORDER_CAP || budget.exhausted() {
            return None;
        }
        if from == perm.len() {
            chosen.push(perm.clone());
            let r = try_orders(inst, t, runs, machine + 1, chosen, tried, budget);
            chosen.pop();
            return r;
        }
        for i in from..perm.len() {
            perm.swap(from, i);
            if let Some(s) = permute(
                inst,
                t,
                runs,
                machine,
                perm,
                from + 1,
                chosen,
                tried,
                budget,
            ) {
                return Some(s);
            }
            perm.swap(from, i);
        }
        None
    }
    let _ = k;
    permute(inst, t, runs, machine, &mut perm, 0, chosen, tried, budget)
}

/// One class's processing window on one machine: piece region of its run.
#[derive(Debug, Clone, Copy)]
struct Window {
    machine: usize,
    start: Rational,
    end: Rational,
}

/// Given a complete run layout (per machine, ordered runs of `(class,
/// piece-length)`), assigns every job's time to the windows with no job
/// self-overlapping, or reports infeasibility of this layout.
fn assign_pieces(
    inst: &Instance,
    t: Rational,
    layout: &[Vec<(usize, Rational)>],
    budget: &mut NodeBudget<'_>,
) -> Option<Schedule> {
    // Compute each class's windows from the run layout.
    let mut windows: Vec<Vec<Window>> = vec![Vec::new(); inst.num_classes()];
    for (u, machine_runs) in layout.iter().enumerate() {
        let mut cursor = Rational::ZERO;
        for &(class, len) in machine_runs {
            let start = cursor + Rational::from(inst.setup(class));
            let end = start + len;
            if end > t {
                return None; // layout overruns the target makespan
            }
            windows[class].push(Window {
                machine: u,
                start,
                end,
            });
            cursor = end;
        }
    }
    let mut out = Schedule::new(inst.machines());
    // Setups first, so ties at equal start sort setup-before-piece.
    for (u, machine_runs) in layout.iter().enumerate() {
        let mut cursor = Rational::ZERO;
        for &(class, len) in machine_runs {
            let s = Rational::from(inst.setup(class));
            out.push_setup(u, cursor, s, class);
            cursor += s + len;
        }
    }
    for (class, class_windows) in windows.iter().enumerate() {
        if class_windows.is_empty() {
            if inst.class_proc(class) > 0 {
                return None;
            }
            continue;
        }
        if !assign_class(inst, class, class_windows, &mut out, budget) {
            return None;
        }
    }
    Some(out)
}

/// Flow-assigns one class's jobs into its windows and emits the placements.
fn assign_class(
    inst: &Instance,
    class: usize,
    windows: &[Window],
    out: &mut Schedule,
    budget: &mut NodeBudget<'_>,
) -> bool {
    budget.tick();
    let jobs = inst.class_jobs(class);
    // Elementary slots from the window endpoints.
    let mut endpoints: Vec<Rational> = windows.iter().flat_map(|w| [w.start, w.end]).collect();
    endpoints.sort();
    endpoints.dedup();
    let slots: Vec<(Rational, Rational)> = endpoints
        .windows(2)
        .map(|e| (e[0], e[1]))
        .filter(|(a, b)| b > a)
        .collect();
    let covering: Vec<Vec<usize>> = slots
        .iter()
        .map(|&(a, b)| {
            windows
                .iter()
                .enumerate()
                .filter(|(_, w)| w.start <= a && b <= w.end)
                .map(|(wi, _)| wi)
                .collect()
        })
        .collect();
    // Nodes: source, jobs, (job, slot), (window, slot), sink.
    let nj = jobs.len();
    let ns = slots.len();
    let node_job = |j: usize| 1 + j;
    let node_js = |j: usize, s: usize| 1 + nj + j * ns + s;
    let node_ws = |w: usize, s: usize| 1 + nj + nj * ns + w * ns + s;
    let sink = 1 + nj + nj * ns + windows.len() * ns;
    let mut f = Flow::new(sink + 1);
    let mut demand = Rational::ZERO;
    for (ji, &job) in jobs.iter().enumerate() {
        let tj = Rational::from(inst.job(job).time);
        demand += tj;
        f.add_edge(0, node_job(ji), tj);
    }
    let mut piece_edges: Vec<(usize, usize, usize, usize)> = Vec::new(); // (edge, job-idx, window, slot)
    for (si, &(a, b)) in slots.iter().enumerate() {
        let len = b - a;
        for ji in 0..nj {
            if covering[si].is_empty() {
                continue;
            }
            f.add_edge(node_job(ji), node_js(ji, si), len);
            for &wi in &covering[si] {
                let id = f.add_edge(node_js(ji, si), node_ws(wi, si), len);
                piece_edges.push((id, ji, wi, si));
            }
        }
        for &wi in &covering[si] {
            f.add_edge(node_ws(wi, si), sink, len);
        }
    }
    if f.max_flow(0, sink) != demand {
        return false;
    }
    // Per-slot piece matrices, peeled into matchings.
    for (si, &(a, b)) in slots.iter().enumerate() {
        let mut amounts: Vec<(usize, usize, Rational)> = piece_edges
            .iter()
            .filter(|&&(_, _, _, s)| s == si)
            .map(|&(id, ji, wi, _)| (ji, wi, f.flow(id)))
            .filter(|(_, _, v)| v.is_positive())
            .collect();
        if amounts.is_empty() {
            continue;
        }
        let len = b - a;
        if !peel_slot(&mut amounts, len, a, |ji, wi, start, d| {
            out.push_piece(windows[wi].machine, start, d, jobs[ji], class);
        }) {
            return false;
        }
    }
    true
}

/// Peels a per-slot piece matrix (rows = jobs, cols = windows ≙ machines)
/// into matchings: every peel schedules each matched (job, machine) pair
/// for `δ` at the same time offset, so no job parallels itself and no
/// machine double-books. Row and column sums are `≤ slot length` by the
/// flow's capacities; the classic tight-vertex matching argument
/// guarantees the peel always completes.
fn peel_slot(
    amounts: &mut Vec<(usize, usize, Rational)>,
    mut remaining: Rational,
    mut cursor: Rational,
    mut emit: impl FnMut(usize, usize, Rational, Rational),
) -> bool {
    while !amounts.is_empty() {
        let rows: Vec<usize> = {
            let mut r: Vec<usize> = amounts.iter().map(|&(j, _, _)| j).collect();
            r.sort_unstable();
            r.dedup();
            r
        };
        let cols: Vec<usize> = {
            let mut c: Vec<usize> = amounts.iter().map(|&(_, w, _)| w).collect();
            c.sort_unstable();
            c.dedup();
            c
        };
        let row_sum = |j: usize| -> Rational {
            amounts
                .iter()
                .filter(|&&(jj, _, _)| jj == j)
                .map(|&(_, _, v)| v)
                .fold(Rational::ZERO, |x, y| x + y)
        };
        let col_sum = |w: usize| -> Rational {
            amounts
                .iter()
                .filter(|&&(_, ww, _)| ww == w)
                .map(|&(_, _, v)| v)
                .fold(Rational::ZERO, |x, y| x + y)
        };
        let Some(matching) = tight_matching(
            amounts,
            &rows,
            &cols,
            &rows
                .iter()
                .map(|&j| row_sum(j) == remaining)
                .collect::<Vec<_>>(),
            &cols
                .iter()
                .map(|&w| col_sum(w) == remaining)
                .collect::<Vec<_>>(),
        ) else {
            return false;
        };
        // δ: stay within matched amounts and keep every unmatched line's
        // sum ≤ the shrunk slot.
        let mut delta = remaining;
        for &(j, w) in &matching {
            let v = amounts
                .iter()
                .find(|&&(jj, ww, _)| jj == j && ww == w)
                .map(|&(_, _, v)| v)
                .expect("matched entry exists");
            delta = delta.min(v);
        }
        for &j in &rows {
            if !matching.iter().any(|&(jj, _)| jj == j) {
                delta = delta.min(remaining - row_sum(j));
            }
        }
        for &w in &cols {
            if !matching.iter().any(|&(_, ww)| ww == w) {
                delta = delta.min(remaining - col_sum(w));
            }
        }
        if !delta.is_positive() {
            return false; // cannot happen when the matching covers tight lines
        }
        for &(j, w) in &matching {
            emit(j, w, cursor, delta);
            let entry = amounts
                .iter_mut()
                .find(|e| e.0 == j && e.1 == w)
                .expect("matched entry exists");
            entry.2 -= delta;
        }
        amounts.retain(|e| e.2.is_positive());
        cursor += delta;
        remaining -= delta;
    }
    true
}

/// A matching over the positive entries covering every tight row and
/// column. Entries are few (rows ≤ jobs, cols ≤ machines), so a bounded
/// exhaustive search over column assignments is simplest and exact.
fn tight_matching(
    amounts: &[(usize, usize, Rational)],
    rows: &[usize],
    cols: &[usize],
    row_tight: &[bool],
    col_tight: &[bool],
) -> Option<Vec<(usize, usize)>> {
    // assignment[ci] = row index into `rows` or usize::MAX for unmatched.
    #[allow(clippy::too_many_arguments)] // the recursion's state, passed explicitly
    fn search(
        amounts: &[(usize, usize, Rational)],
        rows: &[usize],
        cols: &[usize],
        row_tight: &[bool],
        col_tight: &[bool],
        ci: usize,
        used: &mut Vec<bool>,
        picked: &mut Vec<(usize, usize)>,
    ) -> bool {
        if ci == cols.len() {
            // Every tight row must be covered.
            return row_tight
                .iter()
                .enumerate()
                .all(|(ri, &tight)| !tight || picked.iter().any(|&(j, _)| j == rows[ri]));
        }
        let w = cols[ci];
        for (ri, &j) in rows.iter().enumerate() {
            if used[ri] {
                continue;
            }
            if !amounts.iter().any(|&(jj, ww, _)| jj == j && ww == w) {
                continue;
            }
            used[ri] = true;
            picked.push((j, w));
            if search(
                amounts,
                rows,
                cols,
                row_tight,
                col_tight,
                ci + 1,
                used,
                picked,
            ) {
                return true;
            }
            picked.pop();
            used[ri] = false;
        }
        // Leaving this column unmatched is only allowed when it is not
        // tight.
        !col_tight[ci]
            && search(
                amounts,
                rows,
                cols,
                row_tight,
                col_tight,
                ci + 1,
                used,
                picked,
            )
    }
    let mut used = vec![false; rows.len()];
    let mut picked = Vec::new();
    if search(
        amounts,
        rows,
        cols,
        row_tight,
        col_tight,
        0,
        &mut used,
        &mut picked,
    ) {
        Some(picked)
    } else {
        None
    }
}
