//! Class Jumping for the splittable variant (Algorithm 1, Theorem 3).
//!
//! A *jump* of an expensive class `i` is a guess `T = 2P_i/z` (`z ∈ N`):
//! below it, scheduling `C_i` needs one more machine. The search maintains a
//! right interval `(T_fail, T_ok]` (`T_fail` rejected, `T_ok` accepted) and
//! narrows it with binary searches until no jump of any class lies strictly
//! inside; there the load function `L_split` is constant, so either `T_ok` or
//! the fixed point `L_split/m` is the smallest acceptable guess — and both
//! are `<= OPT` (Section 3.4). Total work: `O(n + c log(c+m))` — `O(n)` once
//! for the aggregates, `O(c)` per probe, `O(log(c+m))` probes.

use std::cell::Cell;

use bss_budget::{Interrupt, SolveBudget};
use bss_instance::{Instance, LowerBounds, Variant};
use bss_rational::Rational;
use bss_schedule::CompactSchedule;

use crate::classify::{beta, classify_into};
use crate::search::{refine_right_interval, SearchOutcome};
use crate::workspace::DualWorkspace;

use super::{accepts_in, dual_in};

/// One budgeted dual-test probe: charges the budget, bumps the shared
/// counter, then runs the accept test. `None` means the budget interrupted
/// *before* the test ran (the counter is untouched and `stop` latched);
/// call sites wrap this in short-lived closures so the workspace borrow
/// stays local to each search step.
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
    Some(accepts_in(ws, inst, t))
}

/// Runs Class Jumping; returns the accepted guess (`<= OPT`), the compact
/// schedule built there (makespan `<= 3/2 · accepted`) and the rejection
/// certificate.
#[must_use]
pub fn class_jumping(inst: &Instance) -> SearchOutcome<CompactSchedule> {
    class_jumping_in(&mut DualWorkspace::new(), inst)
}

/// [`class_jumping`] on a reusable workspace: all probes share one
/// allocation footprint.
#[must_use]
pub fn class_jumping_in(ws: &mut DualWorkspace, inst: &Instance) -> SearchOutcome<CompactSchedule> {
    class_jumping_budgeted_in(ws, inst, &SolveBudget::unlimited()).0
}

/// [`class_jumping_in`] under a cooperative [`SolveBudget`].
///
/// Bit-identical to the unbudgeted search when the budget never trips. On
/// interruption the search winds down to its current right bracket `hi` —
/// accepted throughout by the search invariant — builds there, and reports
/// the interrupt alongside: the result is a valid 3/2-dual schedule whose
/// `accepted` may merely sit above `OPT`. `rejected` stays restricted to
/// genuinely certified rejections, so the certificate never lies.
#[must_use]
pub fn class_jumping_budgeted_in(
    ws: &mut DualWorkspace,
    inst: &Instance,
    budget: &SolveBudget,
) -> (SearchOutcome<CompactSchedule>, Option<Interrupt>) {
    let probes = Cell::new(0usize);
    let stop = Cell::new(None::<Interrupt>);

    let t_min = LowerBounds::of(inst).tmin(Variant::Splittable);
    match probe(ws, inst, &probes, &stop, budget, t_min) {
        Some(true) => {
            let schedule = dual_in(ws, inst, t_min).expect("probe accepted");
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
            let schedule = dual_in(ws, inst, hi).expect("2·T_min is accepted (Theorem 1)");
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
    let mut lo = t_min; // rejected
    let mut hi = t_min * 2u64; // accepted (Theorem 1: OPT <= 2 T_min)

    // Checked without `probe`: the counted probe sequence must be identical
    // in debug and release builds (the repro goldens commit probe counts).
    debug_assert!(accepts_in(ws, inst, hi));

    // Step 4: pin the expensive/cheap partition — no boundary 2·s̃_i strictly
    // inside (lo, hi). The candidate buffer is workspace-owned; it is taken
    // out for the probe loop (probes borrow the whole workspace) and put
    // back afterwards, so warm searches reuse its allocation. An interrupt
    // inside any refinement stops it at the certified sub-bracket (probes
    // return `None` from then on, so later stages fall through to `hi`).
    let mut boundaries = core::mem::take(&mut ws.thresholds);
    boundaries.clear();
    boundaries.extend(inst.setups().iter().map(|&s| Rational::from(2 * s)));
    boundaries.sort_unstable();
    boundaries.dedup();
    let (l2, h2) = refine_right_interval(lo, hi, &boundaries, |t| {
        probe(ws, inst, &probes, &stop, budget, t)
    });
    ws.thresholds = boundaries;
    lo = l2;
    hi = h2;

    // The partition is now constant on the open interval; evaluate it at the
    // midpoint. The pinned expensive classes are copied out of the probe
    // classification (later probes overwrite it).
    let mid = (lo + hi).half();
    classify_into(inst, mid, &mut ws.cls);
    let mut iexp = core::mem::take(&mut ws.jump_classes);
    iexp.clear();
    iexp.extend_from_slice(&ws.cls.iexp_plus);
    iexp.extend_from_slice(&ws.cls.iexp_zero);
    iexp.extend_from_slice(&ws.cls.iexp_minus);
    iexp.sort_unstable();

    let chosen = if stop.get().is_some() {
        hi
    } else if iexp.is_empty() {
        // No expensive classes: L_split is constant on the interval.
        let l_const = Rational::from(inst.total_load_once());
        finishing_move(ws, inst, lo, hi, 0, l_const, &probes, &stop, budget)
    } else {
        // Step 5: fastest jumping class f (largest P_f).
        let f = *iexp
            .iter()
            .max_by_key(|&&i| inst.class_proc(i))
            .expect("non-empty");
        let pf2 = Rational::from(2 * inst.class_proc(f));

        // Step 6: narrow to a single jump gap of f. Jumps of f inside
        // (lo, hi) are 2P_f/z for z in (2P_f/hi, 2P_f/lo).
        let z_lo = (pf2 / hi).floor() + 1; // smallest z with 2P_f/z < hi
        let z_hi = {
            let c = pf2 / lo;
            if c.is_integer() {
                c.floor() - 1
            } else {
                c.floor()
            }
        }; // largest z with 2P_f/z > lo
        if z_lo <= z_hi {
            let mut jumps = core::mem::take(&mut ws.jumps);
            jumps.clear();
            if z_hi - z_lo <= 64 {
                // Few jumps: enumerate directly.
                jumps.extend((z_lo..=z_hi).rev().map(|z| pf2 / z));
            } else {
                // Many jumps: binary search over z (monotone acceptance in T).
                let mut a = z_lo; // T_{z_lo} largest
                let mut b = z_hi;
                // Find largest z whose jump is accepted.
                let mut best: Option<i128> = None;
                while a <= b {
                    let zm = a + (b - a) / 2;
                    match probe(ws, inst, &probes, &stop, budget, pf2 / zm) {
                        Some(true) => {
                            best = Some(zm);
                            a = zm + 1;
                        }
                        Some(false) => b = zm - 1,
                        None => break,
                    }
                }
                if stop.get().is_none() {
                    match best {
                        Some(z) => {
                            hi = pf2 / z;
                            if z < z_hi {
                                lo = pf2 / (z + 1);
                            }
                        }
                        None => lo = pf2 / z_lo,
                    }
                } else if let Some(z) = best {
                    // Interrupted mid-bisection: the largest accepted jump
                    // tightens `hi` (genuinely probed), but `lo` must not
                    // move — the unprobed region may still hold accepted
                    // guesses, so `pf2 / (z + 1)` is not certified rejected.
                    hi = pf2 / z;
                }
            }
            if !jumps.is_empty() {
                let (l3, h3) = refine_right_interval(lo, hi, &jumps, |t| {
                    probe(ws, inst, &probes, &stop, budget, t)
                });
                lo = l3;
                hi = h3;
            }
            ws.jumps = jumps;
        }

        if stop.get().is_some() {
            hi
        } else {
            // Step 7+8: inside one f-gap each class jumps at most once
            // (Lemma 3).
            let mut other_jumps = core::mem::take(&mut ws.jumps);
            other_jumps.clear();
            for &i in &iexp {
                let z = beta(inst, hi, i); // β_i at the right end
                let cand = Rational::from(2 * inst.class_proc(i)) / z as u64;
                if lo < cand && cand < hi {
                    other_jumps.push(cand);
                }
            }
            other_jumps.sort_unstable();
            other_jumps.dedup();
            let (l4, h4) = refine_right_interval(lo, hi, &other_jumps, |t| {
                probe(ws, inst, &probes, &stop, budget, t)
            });
            ws.jumps = other_jumps;
            lo = l4;
            hi = h4;

            if stop.get().is_some() {
                hi
            } else {
                // Step 9: the load is constant on the open interval (lo, hi).
                let m2 = (lo + hi).half();
                classify_into(inst, m2, &mut ws.cls);
                let mut m_exp = 0usize;
                let mut l_open = Rational::from(inst.total_proc());
                for &i in ws
                    .cls
                    .iexp_plus
                    .iter()
                    .chain(&ws.cls.iexp_zero)
                    .chain(&ws.cls.iexp_minus)
                {
                    let b = beta(inst, m2, i);
                    m_exp += b;
                    l_open += Rational::from(inst.setup(i) * b as u64);
                }
                for &i in ws.cls.ichp_plus.iter().chain(&ws.cls.ichp_minus) {
                    l_open += Rational::from(inst.setup(i));
                }
                finishing_move(ws, inst, lo, hi, m_exp, l_open, &probes, &stop, budget)
            }
        }
    };
    ws.jump_classes = iexp;

    let schedule = dual_in(ws, inst, chosen).expect("chosen guess must be accepted");
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

/// The final case analysis of Algorithm 1, step 9: on a jump-free right
/// interval with open-interval machine demand `m_exp` and load `l_open`,
/// return the smallest certified-acceptable guess. An interrupted probe
/// falls into the defensive `hi` branch — the right end stays accepted.
#[allow(clippy::too_many_arguments)]
fn finishing_move(
    ws: &mut DualWorkspace,
    inst: &Instance,
    lo: Rational,
    hi: Rational,
    m_exp: usize,
    l_open: Rational,
    probes: &Cell<usize>,
    stop: &Cell<Option<Interrupt>>,
    budget: &SolveBudget,
) -> Rational {
    if inst.machines() < m_exp {
        // The whole open interval is machine-infeasible: OPT >= hi.
        return hi;
    }
    let t_new = l_open / inst.machines();
    if t_new >= hi {
        // Everything below hi is load-infeasible: OPT >= hi.
        return hi;
    }
    if t_new > lo && probe(ws, inst, probes, stop, budget, t_new) == Some(true) {
        t_new
    } else {
        // Defensive: fall back to the known-accepted right end.
        hi
    }
}

#[cfg(test)]
mod tests {
    use bss_instance::{InstanceBuilder, Variant};
    use bss_schedule::validate;

    use super::*;

    fn check(inst: &Instance) -> (Rational, Rational) {
        let out = class_jumping(inst);
        let s = out.schedule.expand().expect("in range");
        let v = validate(&s, inst, Variant::Splittable);
        assert!(v.is_empty(), "{v:?}");
        let makespan = s.makespan();
        assert!(
            makespan <= out.accepted * Rational::new(3, 2),
            "makespan {makespan} > 3/2 * {}",
            out.accepted
        );
        // The accepted guess is never below the instance lower bound…
        let tmin = LowerBounds::of(inst).tmin(Variant::Splittable);
        assert!(out.accepted >= tmin);
        // …and never above the certified window.
        assert!(out.accepted <= tmin * 2u64);
        if let Some(rej) = out.rejected {
            assert!(rej < out.accepted);
        }
        (out.accepted, makespan)
    }

    #[test]
    fn paper_figure1_instance() {
        let inst = bss_gen::paper::fig1_splittable();
        check(&inst);
    }

    #[test]
    fn uniform_suite() {
        for seed in 0..30 {
            let inst = bss_gen::uniform(60, 8, 4, seed);
            check(&inst);
        }
    }

    #[test]
    fn expensive_suite() {
        for seed in 0..15 {
            let inst = bss_gen::expensive_setups(40, 5, seed);
            check(&inst);
        }
    }

    #[test]
    fn single_job_batches() {
        for seed in 0..10 {
            let inst = bss_gen::single_job_batches(30, 4, seed);
            check(&inst);
        }
    }

    #[test]
    fn small_batches_suite() {
        for seed in 0..10 {
            let inst = bss_gen::small_batches(50, 4, seed);
            check(&inst);
        }
    }

    #[test]
    fn many_machines() {
        for seed in 0..10 {
            let inst = bss_gen::uniform(40, 6, 64, seed);
            check(&inst);
        }
    }

    #[test]
    fn one_class_one_machine() {
        let mut b = InstanceBuilder::new(1);
        b.add_batch(3, &[4]);
        let inst = b.build().unwrap();
        let (accepted, makespan) = check(&inst);
        // OPT = setup + job = 7 = T_min; the guess is exact, the schedule is
        // within the 3/2 guarantee (the dual reserves the [0, T/2) band).
        assert_eq!(accepted, Rational::from(7u64));
        assert!(makespan <= Rational::new(21, 2));
    }

    /// Cross-check: class jumping must never be worse than the ε-search on
    /// the same dual, and its accepted guess must be ≤ every accepted guess
    /// the ε-search finds.
    #[test]
    fn agrees_with_epsilon_search() {
        for seed in 0..15 {
            let inst = bss_gen::uniform(50, 7, 4, seed);
            let eps = crate::solve(
                &inst,
                Variant::Splittable,
                crate::Algorithm::EpsilonSearch { eps_log2: 12 },
            );
            let jump = class_jumping(&inst);
            // Jumping's accepted value is exact-optimal for the dual, the
            // ε-search's is within (1+ε); allow the ε slack.
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
