//! Class Jumping for the splittable variant (Algorithm 1, Theorem 3): the
//! hooks of [`crate::jumping::class_jumping`].
//!
//! A *jump* of an expensive class `i` is a guess `T = 2P_i/z` (`z ∈ N`):
//! below it, scheduling `C_i` needs one more machine. The search maintains a
//! right interval `(T_fail, T_ok]` (`T_fail` rejected, `T_ok` accepted) and
//! narrows it with binary searches until no jump of any class lies strictly
//! inside; there the load function `L_split` is constant, so either `T_ok` or
//! the fixed point `L_split/m` is the smallest acceptable guess — and both
//! are `<= OPT` (Section 3.4). Total work: `O(n + c log(c+m))` — `O(n)` once
//! for the aggregates, `O(c)` per probe, `O(log(c+m))` probes.

use bss_instance::{ClassId, Instance, Variant};
use bss_rational::Rational;

use crate::api::Built;
use crate::classify::{beta, classify_into, Classification};
use crate::jumping::{Jumps, Prober};
use crate::workspace::DualWorkspace;
use crate::Trace;

use super::{accepts_in, build_in};

/// The splittable hooks: the partition moves only at `2s_i`, every
/// expensive class jumps, at `2P_i/β_i`.
pub(crate) struct Split;

impl Jumps for Split {
    const VARIANT: Variant = Variant::Splittable;
    const MIN_INDEX: i128 = 1;

    fn accepts(ws: &mut DualWorkspace, inst: &Instance, t: Rational) -> bool {
        accepts_in(ws, inst, t)
    }

    fn build(ws: &mut DualWorkspace, inst: &Instance, t: Rational) -> Option<Built> {
        build_in(ws, inst, t, &mut Trace::disabled())
    }

    fn thresholds(inst: &Instance, out: &mut Vec<Rational>) {
        // Step 4: the expensive/cheap boundaries 2·s_i.
        out.extend(inst.setups().iter().map(|&s| Rational::from(2 * s)));
    }

    fn jumpers(cls: &Classification, out: &mut Vec<ClassId>) {
        out.extend_from_slice(&cls.iexp_plus);
        out.extend_from_slice(&cls.iexp_zero);
        out.extend_from_slice(&cls.iexp_minus);
        out.sort_unstable();
    }

    fn half_numerator(inst: &Instance, i: ClassId) -> u64 {
        inst.class_proc(i)
    }

    fn index(inst: &Instance, t: Rational, i: ClassId) -> usize {
        beta(inst, t, i)
    }

    /// Step 9: `L_split` and the machine demand of the expensive classes are
    /// constant on the open interval `(lo, hi)`, so the smallest acceptable
    /// guess is `hi` or the fixed point `L_split/m`. An interrupted probe
    /// falls into the defensive `hi` branch — the right end stays accepted.
    fn finish(
        ws: &mut DualWorkspace,
        inst: &Instance,
        lo: Rational,
        hi: Rational,
        p: &mut Prober<'_>,
    ) -> Rational {
        let mid = (lo + hi).half();
        classify_into(inst, mid, &mut ws.cls);
        let mut m_exp = 0usize;
        let mut l_open = Rational::from(inst.total_proc());
        for &i in ws
            .cls
            .iexp_plus
            .iter()
            .chain(&ws.cls.iexp_zero)
            .chain(&ws.cls.iexp_minus)
        {
            let b = beta(inst, mid, i);
            m_exp += b;
            l_open += Rational::from(inst.setup(i) * b as u64);
        }
        for &i in ws.cls.ichp_plus.iter().chain(&ws.cls.ichp_minus) {
            l_open += Rational::from(inst.setup(i));
        }
        if inst.machines() < m_exp {
            // The whole open interval is machine-infeasible: OPT >= hi.
            return hi;
        }
        let t_new = l_open / inst.machines();
        if t_new >= hi {
            // Everything below hi is load-infeasible: OPT >= hi.
            return hi;
        }
        if t_new > lo && p.probe::<Self>(ws, inst, t_new) == Some(true) {
            t_new
        } else {
            // Defensive: fall back to the known-accepted right end.
            hi
        }
    }
}

#[cfg(test)]
mod tests {
    use bss_budget::SolveBudget;
    use bss_instance::{InstanceBuilder, LowerBounds, Variant};
    use bss_schedule::{validate, Schedule};

    use super::*;
    use crate::api::ScheduleRepr;
    use crate::search::SearchOutcome;

    /// Class Jumping on a fresh workspace, unbudgeted, with its schedule
    /// expanded.
    fn class_jumping(inst: &Instance) -> (SearchOutcome, Schedule) {
        let out = crate::jumping::class_jumping::<Split>(
            &mut DualWorkspace::new(),
            inst,
            &SolveBudget::unlimited(),
        );
        let ScheduleRepr::Compact(c) = &out.built.repr else {
            panic!("splittable schedules are compact");
        };
        let s = c.expand().expect("in range");
        (out, s)
    }

    fn check(inst: &Instance) -> (Rational, Rational) {
        let (out, s) = class_jumping(inst);
        let v = validate(&s, inst, Variant::Splittable);
        assert!(v.is_empty(), "{v:?}");
        let makespan = s.makespan();
        assert_eq!(
            out.built.makespan, makespan,
            "the build reports its makespan"
        );
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
            let (jump, _) = class_jumping(&inst);
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
