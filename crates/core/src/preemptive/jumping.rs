//! Class Jumping for the preemptive variant (Algorithm 4, Theorem 6).
//!
//! Same skeleton as the splittable search, with two changes (Section 4.4):
//!
//! * `I⁺_exp` classes are wrapped with the γ-count, whose jumps
//!   `T = 2(s_i + P_i)/(γ + 2)` depend on `s_i + P_i` — so the *fastest
//!   jumping class* is the one maximizing `s_i + P_i` (Lemma 5);
//! * the guess also determines the partitions `I⁺/⁰/⁻_exp`, `I±_chp`, the
//!   big-job sets `C*_i` and the knapsack zero-set, so step 2 first pins all
//!   partition thresholds (`2s_i`, `4s_i`, `s_i+P_i`, `4(s_i+P_i)/3`,
//!   `2(s_i+t_j)`) with binary searches.
//!
//! The paper leaves the stabilization of the knapsack zero-set schematic; as
//! documented in DESIGN.md we finish with a bounded fixed-point iteration
//! `T ← L_pmtn(T)/m` inside the final jump-free bracket. The returned guess
//! is always *accepted* (so `makespan <= 3/2 · accepted` unconditionally);
//! its optimality (`accepted <= OPT`) is validated against exact optima in
//! the test suite and against certificates in the benches.

use std::cell::Cell;

use bss_budget::{Interrupt, SolveBudget};
use bss_instance::{Instance, LowerBounds, Variant};
use bss_rational::Rational;
use bss_schedule::Schedule;

use crate::classify::{classify_into, gamma};
use crate::search::{refine_right_interval, SearchOutcome};
use crate::workspace::DualWorkspace;
use crate::Trace;

use super::dual::{accepts_in, aggregates_in, dual_in};
use super::CountMode;

const MODE: CountMode = CountMode::Gamma;

/// One budgeted dual-test probe: charges the budget, bumps the shared
/// counter, then runs the accept test. `None` means the budget interrupted
/// before the test ran (`stop` latched, counter untouched); call sites wrap
/// this in short-lived closures so the workspace borrow stays local to each
/// search step.
fn probe(
    ws: &mut DualWorkspace,
    inst: &Instance,
    probes: &Cell<usize>,
    stop: &Cell<Option<Interrupt>>,
    budget: &SolveBudget,
    t: Rational,
) -> Option<bool> {
    if stop.get().is_some() {
        return None;
    }
    if let Err(i) = budget.charge_probe() {
        stop.set(Some(i));
        return None;
    }
    probes.set(probes.get() + 1);
    Some(accepts_in(ws, inst, t, MODE))
}

/// Runs preemptive Class Jumping; the schedule's makespan is
/// `<= 3/2 · accepted`.
#[must_use]
pub fn class_jumping(inst: &Instance) -> SearchOutcome<Schedule> {
    class_jumping_in(&mut DualWorkspace::new(), inst)
}

/// [`class_jumping`] on a reusable workspace: all `O(log(c+m))` probes share
/// one allocation footprint.
#[must_use]
pub fn class_jumping_in(ws: &mut DualWorkspace, inst: &Instance) -> SearchOutcome<Schedule> {
    class_jumping_budgeted_in(ws, inst, &SolveBudget::unlimited()).0
}

/// [`class_jumping_in`] under a cooperative [`SolveBudget`]: bit-identical
/// when the budget never trips; on interruption the search winds down to
/// its current (still accepted) right bracket, builds there and reports the
/// interrupt — same contract as the splittable search.
#[must_use]
pub fn class_jumping_budgeted_in(
    ws: &mut DualWorkspace,
    inst: &Instance,
    budget: &SolveBudget,
) -> (SearchOutcome<Schedule>, Option<Interrupt>) {
    if inst.machines() >= inst.num_jobs() {
        return (trivial(inst), None);
    }
    let probes = Cell::new(0usize);
    let stop = Cell::new(None::<Interrupt>);

    let t_min = LowerBounds::of(inst).tmin(Variant::Preemptive);
    match probe(ws, inst, &probes, &stop, budget, t_min) {
        Some(true) => {
            let schedule =
                dual_in(ws, inst, t_min, MODE, &mut Trace::disabled()).expect("accepted");
            return (
                SearchOutcome {
                    accepted: t_min,
                    schedule,
                    rejected: None,
                    probes: probes.get(),
                },
                None,
            );
        }
        Some(false) => {}
        None => {
            // Interrupted before anything was learned: Theorem 1's window
            // top is accepted unconditionally; build there, certify nothing.
            let hi = t_min * 2u64;
            let schedule = dual_in(ws, inst, hi, MODE, &mut Trace::disabled())
                .expect("2·T_min is accepted (Theorem 1)");
            return (
                SearchOutcome {
                    accepted: hi,
                    schedule,
                    rejected: None,
                    probes: probes.get(),
                },
                stop.get(),
            );
        }
    }
    let mut lo = t_min;
    let mut hi = t_min * 2u64;

    // Step 2: pin every partition threshold. The candidate buffer is
    // workspace-owned (taken out for the probe loop, put back after), so
    // warm searches reuse its allocation.
    let mut thresholds = core::mem::take(&mut ws.thresholds);
    thresholds.clear();
    for i in 0..inst.num_classes() {
        let s = inst.setup(i);
        let sp = s + inst.class_proc(i);
        thresholds.push(Rational::from(2 * s)); // expensive/cheap
        thresholds.push(Rational::from(4 * s)); // I+chp / I−chp
        thresholds.push(Rational::from(sp)); // I+exp / I0exp
        thresholds.push(Rational::new(4 * sp as i128, 3)); // I0exp / I−exp
    }
    for job in inst.jobs() {
        thresholds.push(Rational::from(2 * (inst.setup(job.class) + job.time)));
        // C*
    }
    thresholds.sort_unstable();
    thresholds.dedup();
    let (l2, h2) = refine_right_interval(lo, hi, &thresholds, |t| {
        probe(ws, inst, &probes, &stop, budget, t)
    });
    ws.thresholds = thresholds;
    lo = l2;
    hi = h2;

    // Partitions are now constant on the open interval; the pinned I⁺_exp
    // classes are copied out of the probe classification (later probes
    // overwrite it).
    let mid = (lo + hi).half();
    classify_into(inst, mid, &mut ws.cls);
    let mut iexp_plus = core::mem::take(&mut ws.jump_classes);
    iexp_plus.clear();
    iexp_plus.extend_from_slice(&ws.cls.iexp_plus);

    if stop.get().is_none() && !iexp_plus.is_empty() {
        // Step 3: fastest jumping class f = argmax (s_f + P_f).
        let f = *iexp_plus
            .iter()
            .max_by_key(|&&i| inst.setup(i) + inst.class_proc(i))
            .expect("non-empty");
        let sp2 = Rational::from(2 * (inst.setup(f) + inst.class_proc(f)));

        // Step 4: narrow to one jump gap of f. Jumps at 2(s+P)/w for integer
        // w = γ + 2 >= 3 in (2(s+P)/hi, 2(s+P)/lo).
        let w_lo = ((sp2 / hi).floor() + 1).max(3);
        let w_hi = {
            let c = sp2 / lo;
            if c.is_integer() {
                c.floor() - 1
            } else {
                c.floor()
            }
        };
        if w_lo <= w_hi {
            if w_hi - w_lo <= 64 {
                let mut jumps = core::mem::take(&mut ws.jumps);
                jumps.clear();
                jumps.extend((w_lo..=w_hi).rev().map(|w| sp2 / w));
                let (l3, h3) = refine_right_interval(lo, hi, &jumps, |t| {
                    probe(ws, inst, &probes, &stop, budget, t)
                });
                ws.jumps = jumps;
                lo = l3;
                hi = h3;
            } else {
                // Binary search over w (acceptance monotone in T).
                let (mut a, mut b) = (w_lo, w_hi);
                let mut best: Option<i128> = None;
                while a <= b {
                    let wm = a + (b - a) / 2;
                    match probe(ws, inst, &probes, &stop, budget, sp2 / wm) {
                        Some(true) => {
                            best = Some(wm);
                            a = wm + 1;
                        }
                        Some(false) => b = wm - 1,
                        None => break,
                    }
                }
                if stop.get().is_none() {
                    match best {
                        Some(w) => {
                            hi = sp2 / w;
                            if w < w_hi {
                                lo = sp2 / (w + 1);
                            }
                        }
                        None => lo = sp2 / w_lo,
                    }
                } else if let Some(w) = best {
                    // Interrupted mid-bisection: the largest accepted jump
                    // tightens `hi` (genuinely probed); `lo` must not move —
                    // the unprobed region may still hold accepted guesses.
                    hi = sp2 / w;
                }
            }
        }

        if stop.get().is_none() {
            // Steps 5–6: each class jumps at most once inside one f-gap
            // (Lemma 5); collect and pin those jumps.
            let mut jumps = core::mem::take(&mut ws.jumps);
            jumps.clear();
            for &i in &iexp_plus {
                let g = gamma(inst, hi, i);
                let cand =
                    Rational::from(2 * (inst.setup(i) + inst.class_proc(i))) / (g + 2) as u64;
                if lo < cand && cand < hi {
                    jumps.push(cand);
                }
            }
            jumps.sort_unstable();
            jumps.dedup();
            let (l4, h4) = refine_right_interval(lo, hi, &jumps, |t| {
                probe(ws, inst, &probes, &stop, budget, t)
            });
            ws.jumps = jumps;
            lo = l4;
            hi = h4;
        }
    }
    ws.jump_classes = iexp_plus;

    // Step 7: finishing move with a bounded fixed-point iteration on the
    // load (the knapsack zero-set may still move inside the bracket). Under
    // an interrupt it degenerates to `hi` immediately (its probes no-op).
    let chosen = if stop.get().is_some() {
        hi
    } else {
        finishing_move(ws, inst, lo, hi, &probes, &stop, budget)
    };
    let schedule = dual_in(ws, inst, chosen, MODE, &mut Trace::disabled())
        .expect("finishing move returns an accepted guess");
    (
        SearchOutcome {
            accepted: chosen,
            schedule,
            rejected: Some(lo),
            probes: probes.get(),
        },
        stop.get(),
    )
}

/// The finishing case analysis (step 9 analogue) with a bounded fixed-point
/// iteration for the knapsack wobble. The load evaluation `L_pmtn(T)` is the
/// probe's own aggregate computation ([`aggregates_in`]), so the logic exists
/// exactly once.
///
/// Inside the jump-free bracket the reject constraints are piecewise linear
/// in `T`, so the accept boundary is one of three crossings:
///
/// * the load bound `L_pmtn(T) <= m T` (constant `L_pmtn` up to the
///   knapsack zero-set, hence the fixed-point iteration);
/// * the case-3.a capacity `Y(T) = F - L* >= 0`, with slope
///   `(m - l) + |C*|/2`;
/// * the case-3.a membership flip itself, where `F(T)` (slope `m - l`)
///   crosses `Σ_{I*chp} (s_i + P(C_i))` — below it the capacity constraint
///   re-engages, so the plain load crossing is only valid above it.
///
/// Each round evaluates the structure at the bracket midpoint, takes the
/// largest in-bracket crossing as the candidate, and probes it: accepted
/// candidates are returned (the boundary, up to zero-set wobble), rejected
/// ones shrink the bracket from the left. When every locally visible
/// constraint clears the bracket yet `lo` is rejected, the structure flips
/// somewhere below the midpoint and the bracket bisects instead.
fn finishing_move(
    ws: &mut DualWorkspace,
    inst: &Instance,
    mut lo: Rational,
    mut hi: Rational,
    probes: &Cell<usize>,
    stop: &Cell<Option<Interrupt>>,
    budget: &SolveBudget,
) -> Rational {
    let m = inst.machines();
    for _ in 0..32 {
        let mid = (lo + hi).half();
        // The crossing candidates reduce to structure-sized denominators,
        // but the bisection branch doubles `mid`'s denominator each round —
        // and a fine guess compounds downstream (the knapsack fraction and
        // the split-piece lengths cube it). Cap it well inside `i128`
        // headroom; `hi` is accepted, and an optimum wedged less than
        // 2^-12 of the bracket above a rejected `lo` would need a larger
        // denominator than any schedule of these integral instances has.
        if mid.denom() > 1 << 12 {
            return hi;
        }
        // `None` here means `m < m'` or below the trivial bound — both
        // constant on the bracket, so the right end is the answer.
        let Some(agg) = aggregates_in(ws, inst, mid, MODE) else {
            return hi;
        };
        let l = ws.cls.iexp_zero.len();
        let mut t_new = agg.l_pmtn.reduce() / m;
        if agg.case_a {
            let slope =
                Rational::from((m - l) as u64) + Rational::new(i128::from(agg.big_total), 2);
            if slope.is_positive() {
                t_new = t_new.max(mid - agg.y.reduce() / slope);
            } else if agg.y.is_negative() {
                return hi; // Y < 0 and non-increasing: the bracket rejects
            }
        } else if m > l {
            let t_a = mid
                - (agg.f_free.reduce() - agg.istar_full.reduce()) / Rational::from((m - l) as u64);
            t_new = t_new.max(t_a);
        }
        if t_new >= hi {
            return hi;
        }
        if t_new <= lo {
            // Locally everything above `lo` accepts, yet `lo` was rejected:
            // a structure flip hides below `mid`; bisect toward it.
            match probe(ws, inst, probes, stop, budget, mid) {
                Some(true) => hi = mid,
                Some(false) => lo = mid,
                None => return hi, // interrupted: the right end is accepted
            }
            continue;
        }
        match probe(ws, inst, probes, stop, budget, t_new) {
            Some(true) => return t_new,
            // The structure at t_new differs (zero-set moved): shrink, retry.
            Some(false) => lo = t_new,
            None => return hi, // interrupted: the right end is accepted
        }
    }
    hi
}

/// `m >= n`: one job (plus setup) per machine is optimal (Note 1).
fn trivial(inst: &Instance) -> SearchOutcome<Schedule> {
    let mut s = Schedule::new(inst.machines());
    for j in 0..inst.num_jobs() {
        let job = inst.job(j);
        let setup = Rational::from(inst.setup(job.class));
        s.push_setup(j, Rational::ZERO, setup, job.class);
        s.push_piece(j, setup, Rational::from(job.time), j, job.class);
    }
    SearchOutcome {
        accepted: Rational::from(inst.max_setup_plus_tmax()),
        schedule: s,
        rejected: None,
        probes: 0,
    }
}

#[cfg(test)]
mod tests {
    use bss_instance::{InstanceBuilder, Variant};
    use bss_schedule::validate;

    use super::*;

    fn check(inst: &Instance) -> (Rational, Rational) {
        let out = class_jumping(inst);
        let v = validate(&out.schedule, inst, Variant::Preemptive);
        assert!(v.is_empty(), "{v:?}");
        let makespan = out.schedule.makespan();
        assert!(
            makespan <= out.accepted * Rational::new(3, 2),
            "makespan {makespan} > 3/2 · {}",
            out.accepted
        );
        let tmin = LowerBounds::of(inst).tmin(Variant::Preemptive);
        assert!(out.accepted >= tmin.min(makespan)); // trivial path may beat tmin? no: >= tmin
        assert!(out.accepted <= tmin * 2u64);
        (out.accepted, makespan)
    }

    #[test]
    fn uniform_suite() {
        for seed in 0..25 {
            check(&bss_gen::uniform(60, 8, 4, seed));
        }
    }

    #[test]
    fn paper_instances() {
        check(&bss_gen::paper::fig2_nice_preemptive());
        check(&bss_gen::paper::fig3_general_preemptive());
        check(&bss_gen::paper::fig5_gamma_preemptive());
    }

    #[test]
    fn expensive_and_single_job_suites() {
        for seed in 0..10 {
            check(&bss_gen::expensive_setups(40, 5, seed));
            check(&bss_gen::single_job_batches(30, 4, seed));
        }
    }

    #[test]
    fn small_batches_suite() {
        for seed in 0..10 {
            check(&bss_gen::small_batches(50, 4, seed));
        }
    }

    #[test]
    fn trivial_many_machines() {
        let mut b = InstanceBuilder::new(10);
        b.add_batch(5, &[7, 3]);
        let inst = b.build().unwrap();
        let out = class_jumping(&inst);
        assert_eq!(out.schedule.makespan(), Rational::from(12u64));
        assert!(validate(&out.schedule, &inst, Variant::Preemptive).is_empty());
    }

    /// The accepted guess should essentially match the ε-search's.
    #[test]
    fn agrees_with_epsilon_search() {
        for seed in 0..10 {
            let inst = bss_gen::uniform(50, 7, 4, seed);
            let eps = crate::solve(
                &inst,
                Variant::Preemptive,
                crate::Algorithm::EpsilonSearch { eps_log2: 12 },
            );
            let jump = class_jumping(&inst);
            let slack = Rational::new(4097, 4096);
            assert!(
                jump.accepted <= eps.accepted * slack,
                "seed {seed}: jumping {} vs eps {}",
                jump.accepted,
                eps.accepted
            );
        }
    }
}
