//! The general preemptive 3/2-dual approximation (Algorithm 3, Theorem 5).
//!
//! 1. Every `I⁰_exp` class gets its own *large machine*, its batch starting
//!    at `T/2` (sound by Lemmas 10 and 11).
//! 2. Big jobs of light-cheap classes (`C*_i`, `s_i + t_j > T/2`) are split
//!    into `j(1)` (length `T/2 - s_i`) and `j(2)` (length `s_i + t_j - T/2`):
//!    by Lemma 4, at least `j(2)` must run outside the large machines.
//! 3. If the free time `F` outside the large machines cannot hold all of
//!    `I*_chp` (case 3.a), a **continuous knapsack** picks the classes that
//!    are scheduled entirely outside (profit `s_i`, weight `P(C_i) - L*_i`,
//!    capacity `Y = F - L*`); the rest contribute only their obligatory
//!    pieces to the *nice* residual instance and their light remainder `K`
//!    goes to the bottom (`[0, T/2]` band) of the large machines — big `K⁺`
//!    jobs one per machine, small `K⁻` jobs wrapped over `[T/4, T/2)` gaps
//!    (Figure 4). Otherwise (case 3.b) a greedy split fills the nice
//!    instance exactly and the remainder is handled the same way.
//!
//! The band discipline (`K` below `T/2`, cheap nice load above `T/2`) is what
//! keeps split jobs from running in parallel with themselves.

use bss_instance::{ClassId, Instance};
use bss_knapsack::{continuous_knapsack_in, CkItem};
use bss_rational::{Rational, RawRational};
use bss_schedule::Schedule;
use bss_wrap::{wrap_into, GapRun};

use crate::classify::{class_items, classify_into};
use crate::workspace::{DualWorkspace, IstarAgg, KPiece};
use crate::{Built, ScheduleRepr, Trace};

use super::nice::{build_nice, Batch, BatchJobs, NiceParts};
use super::CountMode;

/// The probe aggregates of Theorem 5, computed allocation-free into the
/// workspace. Exposed crate-internally so the Class-Jumping finishing move
/// can reuse the load evaluation instead of re-deriving it.
pub(crate) struct Aggregates {
    pub half: Rational,
    /// Free time `F` outside the large machines (Equation 3).
    pub f_free: RawRational,
    /// `Σ_{I*chp} (s_i + P(C_i))`.
    pub istar_full: RawRational,
    /// `L_pmtn` including the knapsack zero-set setups (case 3.a).
    pub l_pmtn: RawRational,
    /// `true` iff case 3.a applies (`F < Σ`); then `ws.ck_x` holds the
    /// knapsack solution aligned with `ws.istar` — unless `y` is negative,
    /// in which case the guess is rejected before the knapsack runs.
    pub case_a: bool,
    /// In case 3.a, the knapsack capacity `Y = F - L*`. A negative value is
    /// a rejection (the obligatory pieces alone exceed the free time), but
    /// it is reported rather than swallowed so the Class-Jumping finishing
    /// move can locate the `Y = 0` crossing. Zero outside case 3.a.
    pub y: RawRational,
    /// `Σ |C*_i|` over `I*_chp` — each obligatory big piece shortens by
    /// `1/2` per unit of `T`, so this is the slope contribution of `L*` to
    /// `Y` within a partition-stable bracket.
    pub big_total: u64,
}

impl Aggregates {
    /// The accept test of Theorem 5 at guess `t` on `m` machines.
    pub(crate) fn feasible(&self, t: Rational, m: usize) -> bool {
        !(self.case_a && self.y.is_negative()) && self.l_pmtn <= t * m
    }
}

/// Computes the accept-test aggregates at `t`, filling `ws.cls`, `ws.counts`,
/// `ws.istar` and (in case 3.a) `ws.ck_x`. `None` when `t` is structurally
/// infeasible: below the trivial bound or machine demand `m' > m`. A
/// negative knapsack capacity (`Y < 0`, the obligatory pieces alone exceed
/// the free time) is also a rejection but is reported through
/// [`Aggregates::y`] so searches can locate its crossing.
///
/// After workspace warm-up this performs zero heap allocations.
pub(crate) fn aggregates_in(
    ws: &mut DualWorkspace,
    inst: &Instance,
    t: Rational,
    mode: CountMode,
) -> Option<Aggregates> {
    if t < Rational::from(inst.max_setup_plus_tmax()) {
        return None;
    }
    ws.prepare_for(inst);
    let m = inst.machines();
    let half = t.half();
    classify_into(inst, t, &mut ws.cls);
    let l = ws.cls.iexp_zero.len();

    // Machine requirement m' (Theorem 5).
    for &i in &ws.cls.iexp_plus {
        let count = mode.count(inst, t, i);
        ws.counts.push(count);
    }
    let m_req = l + ws.counts.iter().sum::<usize>() + ws.cls.iexp_minus.len().div_ceil(2);
    if m_req > m {
        return None;
    }

    // Big-job aggregates of the light-cheap classes (C*_i): count and
    // processing sum suffice for the test — no job lists, no hash sets.
    for &i in &ws.cls.ichp_minus {
        let s = inst.setup(i);
        let mut big_count = 0u64;
        let mut big_proc = 0u64;
        for &tj in inst.class_times(i) {
            if Rational::from(s + tj) > half {
                big_count += 1;
                big_proc += tj;
            }
        }
        if big_count > 0 {
            ws.istar.push(IstarAgg {
                class: i,
                big_count,
                big_proc,
            });
        }
    }

    // Free time F outside the large machines (Equation 3).
    let mut base_load = RawRational::ZERO;
    for (&i, &a) in ws.cls.iexp_plus.iter().zip(&ws.counts) {
        base_load += inst.setup(i) * a as u64 + inst.class_proc(i);
    }
    for &i in ws.cls.iexp_minus.iter().chain(ws.cls.ichp_plus.iter()) {
        base_load += inst.setup(i) + inst.class_proc(i);
    }
    let mut f_free = RawRational::from(t * (m - l));
    f_free -= base_load;
    let mut istar_full = RawRational::ZERO;
    for e in &ws.istar {
        istar_full += inst.setup(e.class) + inst.class_proc(e.class);
    }

    // Common part of L_pmtn: P(J) + Σ_plus a_i s_i + Σ_{[c] \ I+exp} s_i,
    // rearranged as P(J) + Σ_all s_i + Σ_plus (a_i − 1) s_i to avoid a
    // membership set.
    let mut l_pmtn = RawRational::from(inst.total_proc());
    for i in 0..inst.num_classes() {
        l_pmtn += inst.setup(i);
    }
    for (&i, &a) in ws.cls.iexp_plus.iter().zip(&ws.counts) {
        l_pmtn += inst.setup(i) * a as u64;
        l_pmtn -= inst.setup(i);
    }

    let big_total: u64 = ws.istar.iter().map(|e| e.big_count).sum();
    let case_a = f_free < istar_full;
    let mut y = RawRational::ZERO;
    if case_a {
        // ---- Case 3.a: knapsack over I*chp. ----
        // Obligatory outside-load L*_i = P(C*_i) - |C*_i| (T/2 - s_i).
        let mut l_star = RawRational::ZERO;
        for e in &ws.istar {
            let s = inst.setup(e.class);
            let li = Rational::from(e.big_proc) - (half - Rational::from(s)) * e.big_count;
            l_star += li;
            l_star += s;
            ws.ck_items.push(CkItem {
                profit: s,
                weight: Rational::from(inst.class_proc(e.class)) - li,
            });
        }
        y = f_free;
        y -= l_star;
        if y.is_negative() {
            // Even the obligatory pieces cannot fit outside: rejected, with
            // the deficit reported (`l_pmtn` then lacks the zero-set setups,
            // which is fine — the guess never builds).
            return Some(Aggregates {
                half,
                f_free,
                istar_full,
                l_pmtn,
                case_a,
                y,
                big_total,
            });
        }
        continuous_knapsack_in(&ws.ck_items, y.reduce(), &mut ws.ck_order, &mut ws.ck_x);
        for (e, x) in ws.istar.iter().zip(&ws.ck_x) {
            if x.is_zero() {
                l_pmtn += inst.setup(e.class); // extra setup
            }
        }
    }

    Some(Aggregates {
        half,
        f_free,
        istar_full,
        l_pmtn,
        case_a,
        y,
        big_total,
    })
}

/// Plan facts beyond the workspace buffers.
struct PlanMeta {
    /// Class whose pieces lead the `K⁻` wrap (the knapsack split item /
    /// greedy split class).
    k_first_class: Option<ClassId>,
}

/// The planning phase of [`dual_into`]: runs the accept test and, on
/// acceptance, fills `ws.cheap`/`ws.arena`/`ws.k_pieces` with the nice
/// residual batches and bottom-band pieces.
fn prepare_in(
    ws: &mut DualWorkspace,
    inst: &Instance,
    t: Rational,
    mode: CountMode,
) -> Option<PlanMeta> {
    let agg = aggregates_in(ws, inst, t, mode)?;
    if !agg.feasible(t, inst.machines()) {
        return None;
    }
    let half = agg.half;

    ws.class_mark.reset(inst.num_classes());
    for e in &ws.istar {
        ws.class_mark.mark(e.class);
    }
    for &i in &ws.cls.ichp_plus {
        ws.cheap.push(Batch::full(inst, i));
    }
    let mut k_first_class = None;

    if agg.case_a {
        // Build the nice cheap batches and the K pieces from the knapsack.
        for idx in 0..ws.istar.len() {
            let IstarAgg { class: i, .. } = ws.istar[idx];
            let x = ws.ck_x[idx];
            let s = inst.setup(i);
            let is_big = |tj: u64| Rational::from(s + tj) > half;
            if x == Rational::ONE {
                ws.cheap.push(Batch::full(inst, i));
            } else if x.is_zero() {
                // Only the obligatory pieces j(2) go to the nice instance.
                let start = ws.arena.len();
                for (j, tj) in class_items(inst, i) {
                    if is_big(tj) {
                        let t2 = Rational::from(s + tj) - half;
                        ws.arena.push((j, t2));
                        ws.k_pieces.push(KPiece {
                            class: i,
                            job: j,
                            len: half - Rational::from(s), // t(1)_j
                        });
                    }
                }
                ws.cheap.push(Batch {
                    class: i,
                    setup: s,
                    jobs: BatchJobs::Pieces {
                        start,
                        end: ws.arena.len(),
                    },
                });
                for (j, tj) in class_items(inst, i) {
                    if !is_big(tj) {
                        ws.k_pieces.push(KPiece {
                            class: i,
                            job: j,
                            len: Rational::from(tj),
                        });
                    }
                }
            } else {
                // The split item e: pieces per Equation (6).
                k_first_class = Some(i);
                let start = ws.arena.len();
                for (j, time) in class_items(inst, i) {
                    let tj = Rational::from(time);
                    let t2 = if is_big(time) {
                        let t1 = half - Rational::from(s);
                        let t2_obl = Rational::from(s) + tj - half;
                        x * t1 + t2_obl
                    } else {
                        x * tj
                    };
                    ws.arena.push((j, t2));
                    let rest = tj - t2;
                    if rest.is_positive() {
                        ws.k_pieces.push(KPiece {
                            class: i,
                            job: j,
                            len: rest,
                        });
                    }
                }
                ws.cheap.push(Batch {
                    class: i,
                    setup: s,
                    jobs: BatchJobs::Pieces {
                        start,
                        end: ws.arena.len(),
                    },
                });
            }
        }
        // Light-cheap classes without big jobs go entirely to the bottom.
        for &i in &ws.cls.ichp_minus {
            if !ws.class_mark.is_marked(i) {
                for (j, tj) in class_items(inst, i) {
                    ws.k_pieces.push(KPiece {
                        class: i,
                        job: j,
                        len: Rational::from(tj),
                    });
                }
            }
        }
    } else {
        // ---- Case 3.b: everything I*chp fits outside; greedy split. ----
        for idx in 0..ws.istar.len() {
            let i = ws.istar[idx].class;
            ws.cheap.push(Batch::full(inst, i));
        }
        let mut remaining = agg.f_free;
        remaining -= agg.istar_full;
        let mut split_done = false;
        for ci in 0..ws.cls.ichp_minus.len() {
            let i = ws.cls.ichp_minus[ci];
            if ws.class_mark.is_marked(i) {
                continue;
            }
            let s = inst.setup(i);
            let need = Rational::from(s + inst.class_proc(i));
            if !split_done && remaining >= need {
                ws.cheap.push(Batch::full(inst, i));
                remaining -= need;
            } else if !split_done && remaining > Rational::from(s) {
                // Split this class's jobs fractionally to land exactly.
                split_done = true;
                k_first_class = Some(i);
                let mut budget = remaining.reduce() - s;
                let start = ws.arena.len();
                for (j, time) in class_items(inst, i) {
                    let tj = Rational::from(time);
                    if budget.is_positive() {
                        let take = tj.min(budget);
                        ws.arena.push((j, take));
                        budget -= take;
                        if take < tj {
                            ws.k_pieces.push(KPiece {
                                class: i,
                                job: j,
                                len: tj - take,
                            });
                        }
                    } else {
                        ws.k_pieces.push(KPiece {
                            class: i,
                            job: j,
                            len: tj,
                        });
                    }
                }
                ws.cheap.push(Batch {
                    class: i,
                    setup: s,
                    jobs: BatchJobs::Pieces {
                        start,
                        end: ws.arena.len(),
                    },
                });
                remaining = RawRational::ZERO;
            } else {
                split_done = true;
                for (j, tj) in class_items(inst, i) {
                    ws.k_pieces.push(KPiece {
                        class: i,
                        job: j,
                        len: Rational::from(tj),
                    });
                }
            }
        }
    }

    Some(PlanMeta { k_first_class })
}

/// The dual test of Theorem 5 (with `mode` selecting α′ or γ machine
/// counts) — allocation-free after warm-up.
#[must_use]
pub fn accepts_in(ws: &mut DualWorkspace, inst: &Instance, t: Rational, mode: CountMode) -> bool {
    match aggregates_in(ws, inst, t, mode) {
        Some(agg) => agg.feasible(t, inst.machines()),
        None => false,
    }
}

/// [`dual_into`] into a fresh output, with the makespan the build reports.
pub(crate) fn build_in(
    ws: &mut DualWorkspace,
    inst: &Instance,
    t: Rational,
    mode: CountMode,
    trace: &mut Trace,
) -> Option<Built> {
    let mut out = Schedule::new(inst.machines());
    let makespan = dual_into(ws, inst, t, mode, trace, &mut out)?;
    Some(Built {
        repr: ScheduleRepr::Explicit(out),
        makespan,
    })
}

/// The general preemptive 3/2-dual (Algorithm 3): streams a
/// preemptive-feasible schedule of makespan `<= 3T/2` into a
/// caller-provided `out` (reset at entry). The probe and plan buffers are
/// borrowed from `ws`, every wrap result is emitted exactly once, directly
/// into the final destination, and a warm workspace build performs **zero**
/// heap allocations beyond `out`'s own growth. An enabled `trace` receives
/// the step snapshots of Figures 3, 4 and 9.
///
/// Returns the makespan of the built schedule — the largest of the stacked
/// machines' last ends and the ends the wraps report; `out` is not
/// rescanned — or `None` on rejection (`T < OPT`); `out` then holds a
/// partial schedule the caller must discard (or reset).
#[must_use]
pub fn dual_into(
    ws: &mut DualWorkspace,
    inst: &Instance,
    t: Rational,
    mode: CountMode,
    trace: &mut Trace,
    out: &mut Schedule,
) -> Option<Rational> {
    let m = inst.machines();
    out.reset(m);
    let plan = prepare_in(ws, inst, t, mode)?;
    let half = t.half();
    let quarter = half.half();
    let l = ws.cls.iexp_zero.len();
    let mut makespan = Rational::ZERO;

    // Step 1: large machines — each I0exp batch starts at T/2 (Lemma 11).
    for (u, &i) in ws.cls.iexp_zero.iter().enumerate() {
        let s = Rational::from(inst.setup(i));
        out.push_setup(u, half, s, i);
        let mut at = half + s;
        for (j, tj) in class_items(inst, i) {
            let len = Rational::from(tj);
            out.push_piece(u, at, len, j, i);
            at += len;
        }
        debug_assert!(at <= t * Rational::new(3, 2));
        makespan = makespan.max(at);
    }
    trace.snap("step 1: large machines", out);

    // Split K into big (K+) and small (K−) pieces, as indices into the
    // workspace-owned piece buffer.
    ws.k_big.clear();
    ws.k_small.clear();
    for (idx, p) in ws.k_pieces.iter().enumerate() {
        if p.len > quarter {
            ws.k_big.push(idx);
        } else {
            ws.k_small.push(idx);
        }
    }
    // Not enough large-machine room is excluded by Theorem 5 when the tests
    // pass; treat it defensively as a rejection.
    if ws.k_big.len() > l || (l == 0 && !ws.k_pieces.is_empty()) {
        return None;
    }

    // K+ : one piece at the bottom of each of the first l' large machines.
    let l_prime = ws.k_big.len();
    for (u, &pi) in ws.k_big.iter().enumerate() {
        let p: &KPiece = &ws.k_pieces[pi];
        let s = Rational::from(inst.setup(p.class));
        debug_assert!(s + p.len <= half, "Note 3: s + t <= T/2");
        out.push_setup(u, Rational::ZERO, s, p.class);
        out.push_piece(u, s, p.len, p.job, p.class);
        makespan = makespan.max(s + p.len);
    }

    // K− : wrapped over the remaining large machines below T/2.
    if !ws.k_small.is_empty() {
        if l_prime >= l {
            return None;
        }
        // Group by class, split-item class first (its setup leads the wrap).
        let k_first_class = plan.k_first_class;
        ws.k_small.sort_unstable_by_key(|&pi| {
            let p = &ws.k_pieces[pi];
            ((Some(p.class) != k_first_class) as u8, p.class, p.job)
        });
        ws.scratch.clear();
        let mut current: Option<ClassId> = None;
        for &pi in &ws.k_small {
            let p = &ws.k_pieces[pi];
            if current != Some(p.class) {
                ws.scratch
                    .seq
                    .push_setup(p.class, Rational::from(inst.setup(p.class)));
                current = Some(p.class);
            }
            ws.scratch.seq.push_piece(p.class, p.job, p.len);
        }
        ws.scratch
            .runs
            .push(GapRun::single(l_prime, Rational::ZERO, half));
        if l - l_prime > 1 {
            ws.scratch.runs.push(GapRun {
                first_machine: l_prime + 1,
                count: l - l_prime - 1,
                a: quarter,
                b: half,
            });
        }
        let end = wrap_into(&ws.scratch.seq, &ws.scratch.runs, inst.setups(), out).ok()?;
        makespan = makespan.max(end);
    }
    trace.snap("step 2: bottom of large machines (K)", out);

    // Step 3: the nice residual instance on machines [l, m).
    let parts = NiceParts {
        plus_classes: &ws.cls.iexp_plus,
        plus_counts: &ws.counts,
        minus_classes: &ws.cls.iexp_minus,
        cheap: &ws.cheap,
        arena: &ws.arena,
    };
    let end = build_nice(inst, t, mode, parts, l, m - l, &mut ws.scratch, out).ok()?;
    makespan = makespan.max(end);
    trace.snap("step 3: nice residual instance", out);

    debug_assert!(
        makespan <= t * Rational::new(3, 2),
        "makespan {makespan} > 3T/2 at T={t}"
    );
    Some(makespan)
}

#[cfg(test)]
mod tests {
    use bss_instance::{InstanceBuilder, Variant};
    use bss_schedule::validate;

    use super::super::nice::tmin;
    use super::*;

    fn check_at(inst: &Instance, t: Rational, mode: CountMode) -> bool {
        let ws = &mut DualWorkspace::new();
        let mut s = Schedule::new(inst.machines());
        match dual_into(ws, inst, t, mode, &mut Trace::disabled(), &mut s) {
            None => false,
            Some(makespan) => {
                assert_eq!(makespan, s.makespan(), "mode {mode:?}, T={t}");
                let v = validate(&s, inst, Variant::Preemptive);
                assert!(v.is_empty(), "mode {mode:?}, T={t}: {v:?}");
                assert!(
                    s.makespan() <= t * Rational::new(3, 2),
                    "mode {mode:?}, T={t}: makespan {}",
                    s.makespan()
                );
                true
            }
        }
    }

    #[test]
    fn accepts_at_twice_tmin() {
        for seed in 0..25 {
            let inst = bss_gen::uniform(60, 8, 4, seed);
            let t2 = tmin(&inst) * 2u64;
            assert!(
                check_at(&inst, t2, CountMode::AlphaPrime),
                "2·Tmin must be accepted (seed {seed})"
            );
            assert!(check_at(&inst, t2, CountMode::Gamma), "gamma (seed {seed})");
        }
    }

    #[test]
    fn paper_fig3_instance_with_trace() {
        let inst = bss_gen::paper::fig3_general_preemptive();
        let t2 = tmin(&inst) * 2u64;
        let mut trace = Trace::enabled();
        let ws = &mut DualWorkspace::new();
        let mut s = Schedule::new(inst.machines());
        if dual_into(ws, &inst, t2, CountMode::AlphaPrime, &mut trace, &mut s).is_some() {
            assert!(validate(&s, &inst, Variant::Preemptive).is_empty());
            assert_eq!(trace.steps().len(), 3);
        }
    }

    /// Sweep guesses that force I0exp non-empty and the knapsack branch.
    #[test]
    fn knapsack_branch_instances() {
        let inst = bss_gen::paper::fig3_general_preemptive();
        let lo = tmin(&inst);
        for k in 20..=40i128 {
            let t = lo * Rational::new(k, 20);
            check_at(&inst, t, CountMode::AlphaPrime);
            check_at(&inst, t, CountMode::Gamma);
        }
    }

    #[test]
    fn expensive_heavy_instances() {
        for seed in 0..15 {
            let inst = bss_gen::expensive_setups(40, 5, seed);
            let lo = tmin(&inst);
            for k in [20i128, 26, 33, 40] {
                let t = lo * Rational::new(k, 20);
                check_at(&inst, t, CountMode::AlphaPrime);
                check_at(&inst, t, CountMode::Gamma);
            }
        }
    }

    #[test]
    fn single_job_batches_sweep() {
        for seed in 0..10 {
            let inst = bss_gen::single_job_batches(30, 4, seed);
            let lo = tmin(&inst);
            for k in [20i128, 30, 40] {
                let t = lo * Rational::new(k, 20);
                check_at(&inst, t, CountMode::AlphaPrime);
            }
        }
    }

    #[test]
    fn uniform_dense_sweep_validates() {
        for seed in 0..15 {
            let inst = bss_gen::uniform(50, 10, 5, seed);
            let lo = tmin(&inst);
            for k in 20..=40i128 {
                let t = lo * Rational::new(k, 20);
                check_at(&inst, t, CountMode::AlphaPrime);
            }
        }
    }

    #[test]
    fn rejects_below_trivial_bound() {
        let mut b = InstanceBuilder::new(2);
        b.add_batch(10, &[25]);
        let inst = b.build().unwrap();
        assert!(!accepts_in(
            &mut DualWorkspace::new(),
            &inst,
            Rational::from(34u64),
            CountMode::AlphaPrime
        ));
    }

    #[test]
    fn single_machine_instance() {
        let mut b = InstanceBuilder::new(1);
        b.add_batch(3, &[4, 2]);
        b.add_batch(2, &[5]);
        let inst = b.build().unwrap();
        // N = 16; at T = 16 the single machine holds everything.
        assert!(check_at(
            &inst,
            Rational::from(16u64),
            CountMode::AlphaPrime
        ));
    }
}
