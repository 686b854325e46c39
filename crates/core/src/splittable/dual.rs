//! The splittable 3/2-dual approximation (Theorem 7, Appendix C).
//!
//! Accept/reject test: with `β_i = ⌈2 P(C_i)/T⌉`,
//! `L_split = P(J) + Σ_chp s_i + Σ_exp β_i s_i` and `m_exp = Σ_exp β_i`,
//! reject iff `m·T < L_split` or `m < m_exp` (then `T < OPT`).
//!
//! Build: each expensive class is wrapped over `β_i` machines with gaps of
//! job capacity `T/2` above its setups; the cheap classes are wrapped between
//! `T/2` and `3T/2` over the partially-filled last machines (with `T/2`
//! reserved for one cheap setup) and the remaining empty machines — Figure 1.

use bss_instance::{ClassId, Instance};
use bss_rational::{Rational, RawRational};
use bss_schedule::CompactSchedule;
use bss_wrap::{batch_items, wrap_iter_append, GapRun, SeqItem};

use crate::classify::{beta, class_items, classify_into};
use crate::workspace::DualWorkspace;
use crate::{Built, ScheduleRepr, Trace};

/// The `O(c)` dual test of Theorem 7: `true` iff `T` is accepted.
/// Allocation-free after warm-up, with the load `L_split` accumulated
/// gcd-free.
#[must_use]
pub fn accepts_in(ws: &mut DualWorkspace, inst: &Instance, t: Rational) -> bool {
    // OPT > s_max always, so any T < s_max is rejected. (T = s_max may be
    // accepted: the build keeps every machine within 3T/2 whenever
    // s_i <= T, which the searches' probe points guarantee.)
    if t < Rational::from(inst.smax()) {
        return false;
    }
    ws.prepare_for(inst);
    classify_into(inst, t, &mut ws.cls);
    let mut l_split = RawRational::from(inst.total_proc());
    let mut m_exp = 0usize;
    // The test is order-insensitive, so the expensive cells chain directly
    // (no sorted-merge allocation as in the builder).
    for &i in ws
        .cls
        .iexp_plus
        .iter()
        .chain(ws.cls.iexp_zero.iter())
        .chain(ws.cls.iexp_minus.iter())
    {
        let b = beta(inst, t, i);
        m_exp += b;
        l_split += inst.setup(i) * b as u64;
    }
    for &i in ws.cls.ichp_plus.iter().chain(ws.cls.ichp_minus.iter()) {
        l_split += inst.setup(i);
    }
    m_exp <= inst.machines() && l_split <= t * inst.machines()
}

/// [`dual_into`] into a fresh output, with the makespan the build reports.
pub(crate) fn build_in(
    ws: &mut DualWorkspace,
    inst: &Instance,
    t: Rational,
    trace: &mut Trace,
) -> Option<Built> {
    let mut out = CompactSchedule::new(inst.machines());
    let makespan = dual_into(ws, inst, t, trace, &mut out)?;
    Some(Built {
        repr: ScheduleRepr::Compact(out),
        makespan,
    })
}

/// The 3/2-dual builder of Theorem 7: runs in `O(n)` and assembles a
/// compact schedule with `O(n + c)` stored items and makespan `<= 3T/2` in
/// a caller-provided `out` (reset at entry). Every wrap appends its
/// configuration groups directly — no per-wrap `CompactSchedule` and no
/// group cloning — so a warm workspace build allocates only `out`'s own
/// group storage.
///
/// An enabled `trace` receives step snapshots (Figure 1(a) after step 1,
/// Figure 1(b) after step 2); tracing expands the compact schedule, so only
/// use it for rendering.
///
/// Returns the makespan of the built schedule, the largest end the wraps
/// report (`out` is not rescanned), or `None` on rejection (`T < OPT`);
/// `out` then holds a partial schedule the caller must discard (or reset).
#[must_use]
pub fn dual_into(
    ws: &mut DualWorkspace,
    inst: &Instance,
    t: Rational,
    trace: &mut Trace,
    out: &mut CompactSchedule,
) -> Option<Rational> {
    let m = inst.machines();
    out.reset(m);
    if !accepts_in(ws, inst, t) {
        return None;
    }
    let half = t.half();
    let mut makespan = Rational::ZERO;

    // Step 1: expensive classes, β_i machines each, gaps of job capacity T/2
    // above the setups. The expensive cells are walked in sorted class order
    // via a three-way merge over the already-sorted partition cells.
    let mut next_machine = 0usize;
    ws.partial.clear();
    let cls = &ws.cls;
    let mut exp_cells = [
        cls.iexp_plus.as_slice(),
        cls.iexp_zero.as_slice(),
        cls.iexp_minus.as_slice(),
    ];
    while let Some(cell) = exp_cells
        .iter()
        .enumerate()
        .filter(|(_, c)| !c.is_empty())
        .min_by_key(|(_, c)| c[0])
        .map(|(k, _)| k)
    {
        let i = exp_cells[cell][0];
        exp_cells[cell] = &exp_cells[cell][1..];

        let s = Rational::from(inst.setup(i));
        let b = beta(inst, t, i);
        let p = Rational::from(inst.class_proc(i));
        ws.scratch.clear();
        ws.scratch
            .runs
            .push(GapRun::single(next_machine, Rational::ZERO, s + half));
        if b > 1 {
            ws.scratch.runs.push(GapRun {
                first_machine: next_machine + 1,
                count: b - 1,
                a: s,
                b: s + half,
            });
        }
        // The batch streams lazily from the instance — no WrapSequence.
        let end = wrap_iter_append(class_batch(inst, i), &ws.scratch.runs, inst.setups(), out)
            .expect("Theorem 7: expensive template capacity suffices");
        makespan = makespan.max(end);
        // Load of the last machine: s_i + (P_i - (β_i - 1)·T/2).
        let last_load = s + (p - half * (b - 1) as u64);
        let last_machine = next_machine + b - 1;
        if last_load < t {
            ws.partial.push((last_machine, last_load));
        }
        next_machine += b;
    }
    if trace.is_enabled() {
        trace.snap(
            "step 1: expensive classes",
            &out.expand().expect("builder emits in-range groups"),
        );
    }

    // Step 2: cheap classes between T/2 and 3T/2, over the partial machines
    // (reserving T/2 for one cheap setup) and the empty machines.
    let has_cheap = !ws.cls.ichp_plus.is_empty() || !ws.cls.ichp_minus.is_empty();
    if has_cheap {
        ws.scratch.clear();
        for &(u, load) in &ws.partial {
            ws.scratch
                .runs
                .push(GapRun::single(u, load + half, t + half));
        }
        if next_machine < m {
            ws.scratch.runs.push(GapRun {
                first_machine: next_machine,
                count: m - next_machine,
                a: half,
                b: t + half,
            });
        }
        if ws.scratch.runs.is_empty() {
            // All machines exactly full of expensive load but cheap load
            // remains: impossible under the accept test.
            return None;
        }
        // Cheap classes in sorted class order (two-way merge of the cells),
        // streamed lazily batch by batch — the wrap consumes the items as
        // they are produced, nothing is materialized.
        let merged = SortedMerge {
            a: ws.cls.ichp_plus.as_slice(),
            b: ws.cls.ichp_minus.as_slice(),
        };
        let end = wrap_iter_append(
            merged.flat_map(|i| class_batch(inst, i)),
            &ws.scratch.runs,
            inst.setups(),
            out,
        )
        .expect("Theorem 7: cheap template capacity suffices");
        makespan = makespan.max(end);
    }
    if trace.is_enabled() {
        trace.snap(
            "step 2: cheap classes wrapped",
            &out.expand().expect("builder emits in-range groups"),
        );
    }
    debug_assert!(makespan <= t + half);
    Some(makespan)
}

/// All of class `i` as a lazy wrap stream: its setup, then its jobs, read
/// straight off the instance (no intermediate sequence).
pub(crate) fn class_batch<'a>(
    inst: &'a Instance,
    i: ClassId,
) -> impl Iterator<Item = SeqItem> + 'a {
    batch_items(
        i,
        Rational::from(inst.setup(i)),
        class_items(inst, i).map(|(j, tj)| (j, Rational::from(tj))),
    )
}

/// Ascending merge of two sorted class lists (partition cells), as a lazy
/// iterator — the allocation-free replacement for materializing the merged
/// order.
struct SortedMerge<'a> {
    a: &'a [ClassId],
    b: &'a [ClassId],
}

impl Iterator for SortedMerge<'_> {
    type Item = ClassId;

    fn next(&mut self) -> Option<ClassId> {
        match (self.a.first(), self.b.first()) {
            (Some(&x), Some(&y)) if x < y => {
                self.a = &self.a[1..];
                Some(x)
            }
            (Some(_), Some(&y)) => {
                self.b = &self.b[1..];
                Some(y)
            }
            (Some(&x), None) => {
                self.a = &self.a[1..];
                Some(x)
            }
            (None, Some(&y)) => {
                self.b = &self.b[1..];
                Some(y)
            }
            (None, None) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use bss_instance::{InstanceBuilder, LowerBounds, Variant};
    use bss_schedule::validate;

    use super::*;

    fn r(v: i128) -> Rational {
        Rational::from_int(v)
    }

    fn check_at(inst: &Instance, t: Rational) -> bool {
        let mut cs = CompactSchedule::new(inst.machines());
        match dual_into(
            &mut DualWorkspace::new(),
            inst,
            t,
            &mut Trace::disabled(),
            &mut cs,
        ) {
            None => false,
            Some(makespan) => {
                let s = cs.expand().expect("in range");
                assert_eq!(makespan, s.makespan(), "T={t}: reported makespan");
                let v = validate(&s, inst, Variant::Splittable);
                assert!(v.is_empty(), "T={t}: {v:?}");
                assert!(
                    s.makespan() <= t * Rational::new(3, 2),
                    "T={t}: makespan {} > 3T/2",
                    s.makespan()
                );
                true
            }
        }
    }

    #[test]
    fn accepts_at_twice_tmin_always() {
        for seed in 0..20 {
            let inst = bss_gen::uniform(50, 6, 4, seed);
            let t2 = LowerBounds::of(&inst).tmin(Variant::Splittable) * 2u64;
            assert!(check_at(&inst, t2), "2*Tmin must be accepted");
        }
    }

    #[test]
    fn rejects_below_smax() {
        let mut b = InstanceBuilder::new(4);
        b.add_batch(100, &[1]);
        b.add_batch(1, &[1]);
        let inst = b.build().unwrap();
        let ws = &mut DualWorkspace::new();
        assert!(!accepts_in(ws, &inst, r(99)));
        assert!(!accepts_in(ws, &inst, r(50)));
        // T = s_max itself may be accepted (and the build is 3T/2-feasible).
        assert!(check_at(&inst, r(100)));
    }

    #[test]
    fn acceptance_is_monotone() {
        let ws = &mut DualWorkspace::new();
        for seed in 0..20 {
            let inst = bss_gen::uniform(40, 8, 3, seed);
            let tmin = LowerBounds::of(&inst).tmin(Variant::Splittable);
            let mut last = false;
            for k in 0..=20u64 {
                // Sweep T from Tmin/2 to ~2.5 Tmin.
                let t = tmin * Rational::new(10 + 4 * k as i128, 20);
                let now = accepts_in(ws, &inst, t);
                assert!(!last || now, "acceptance not monotone at seed {seed}");
                last = now;
            }
        }
    }

    #[test]
    fn expensive_only_instance() {
        let mut b = InstanceBuilder::new(6);
        b.add_batch(60, &[50, 50, 50]); // huge expensive class
        b.add_batch(70, &[30]);
        let inst = b.build().unwrap();
        let t2 = LowerBounds::of(&inst).tmin(Variant::Splittable) * 2u64;
        assert!(check_at(&inst, t2));
    }

    #[test]
    fn cheap_only_instance() {
        let mut b = InstanceBuilder::new(3);
        b.add_batch(2, &[5, 5, 5, 5]);
        b.add_batch(3, &[7, 7]);
        let inst = b.build().unwrap();
        let t2 = LowerBounds::of(&inst).tmin(Variant::Splittable) * 2u64;
        assert!(check_at(&inst, t2));
    }

    #[test]
    fn single_machine() {
        let mut b = InstanceBuilder::new(1);
        b.add_batch(5, &[3, 3]);
        b.add_batch(2, &[4]);
        let inst = b.build().unwrap();
        // N = 17; at T = 17 everything fits on one machine.
        assert!(check_at(&inst, r(17)));
    }

    #[test]
    fn paper_figure1_instance() {
        let inst = bss_gen::paper::fig1_splittable();
        let lb = LowerBounds::of(&inst);
        let t2 = lb.tmin(Variant::Splittable) * 2u64;
        assert!(check_at(&inst, t2));
    }

    #[test]
    fn randomized_accept_and_validate() {
        for seed in 0..25 {
            let inst = bss_gen::uniform(80, 10, 5, seed);
            let tmin = LowerBounds::of(&inst).tmin(Variant::Splittable);
            for num in [21i128, 25, 30, 40] {
                let t = tmin * Rational::new(num, 20);
                check_at(&inst, t); // validates whenever accepted
            }
        }
        for seed in 0..10 {
            let inst = bss_gen::expensive_setups(40, 6, seed);
            let tmin = LowerBounds::of(&inst).tmin(Variant::Splittable);
            check_at(&inst, tmin * 2u64);
        }
    }

    /// Compact output must stay near-linear in n + c, not m.
    #[test]
    fn compact_output_size_independent_of_m() {
        let mut b = InstanceBuilder::new(5000);
        b.add_batch(10, &[100_000]); // one giant splittable job
        b.add_batch(1, &[5, 5]);
        let inst = b.build().unwrap();
        let t2 = LowerBounds::of(&inst).tmin(Variant::Splittable) * 2u64;
        let mut cs = CompactSchedule::new(inst.machines());
        dual_into(
            &mut DualWorkspace::new(),
            &inst,
            t2,
            &mut Trace::disabled(),
            &mut cs,
        )
        .expect("accepted");
        assert!(
            cs.stored_items() < 100,
            "stored items {} should not scale with m",
            cs.stored_items()
        );
    }
}
