//! Theorem 8: the non-preemptive 3/2-approximation in `O(n log(n + Δ))`.

use bss_instance::{Instance, LowerBounds, Variant};
use bss_rational::Rational;

use crate::search::{IntBracket, Search, SearchOutcome};
use crate::workspace::DualWorkspace;
use crate::Trace;

use super::{accepts, build_in};

/// Runs the exact integer binary search over the 3/2-dual of Theorem 9 on
/// `search`'s ladder settings (budget, warm hint).
///
/// Because all input values are integral and jobs and setups are never
/// preempted, `OPT ∈ N`; the search over `[⌈T_min⌉, 2⌈T_min⌉]` therefore
/// terminates with an accepted `T* <= OPT` and a schedule of makespan
/// `<= 3/2 · T* <= 3/2 · OPT`, after `O(log T_min) ⊆ O(log(n + Δ))` probes
/// of the `O(n)` dual. The answer is bit-identical whatever the settings, as
/// long as the budget never trips. On interruption the integer search stops
/// at its current (still accepted) right bracket — `2·⌈T_min⌉` at worst,
/// which Theorem 1 guarantees builds — and reports the interrupt.
///
/// The paper assumes `m < n`; the solve driver schedules `m >= n` one job
/// per machine before calling this.
pub(crate) fn three_halves_search(
    ws: &mut DualWorkspace,
    inst: &Instance,
    search: &mut Search<'_>,
) -> SearchOutcome {
    let t_min = LowerBounds::of(inst).tmin(Variant::NonPreemptive).ceil() as u64;
    // Probe with the O(n) accept test; build the schedule once, at the
    // smallest accepted guess. The builder keeps defensive rejection
    // branches beyond the accept test; if one fires, climb one guess at a
    // time to the next value that builds — jumping straight to the
    // bracket's top would silently forfeit the 3/2-vs-OPT guarantee
    // whenever OPT lies below it. The climb terminates: 2·T_min is
    // accepted and builds (Theorem 1).
    let out = search.run(
        ws,
        t_min,
        2 * t_min,
        || Some(IntBracket::new(t_min, 2 * t_min)),
        |_, t| accepts(inst, t),
    );
    let mut accepted = out.accepted;
    let built = loop {
        if let Some(b) = build_in(ws, inst, accepted, &mut Trace::disabled()) {
            break b;
        }
        assert!(
            accepted < 2 * t_min,
            "2*T_min is accepted and builds (Theorem 1)"
        );
        accepted += 1;
    };
    SearchOutcome {
        built,
        accepted: Rational::from(accepted),
        rejected: out.rejected.map(Rational::from),
        probes: out.probes,
        interrupt: out.interrupt,
    }
}

#[cfg(test)]
mod tests {
    use bss_instance::InstanceBuilder;
    use bss_schedule::{validate, Schedule};

    use super::*;
    use crate::{ScheduleRepr, SolveOptions};

    /// The integer search on a fresh workspace, unbudgeted and sequential,
    /// with its schedule.
    fn three_halves(inst: &Instance) -> (SearchOutcome, Schedule) {
        let search = &mut Search::new(&SolveOptions::default(), true);
        let out = three_halves_search(&mut DualWorkspace::new(), inst, search);
        let ScheduleRepr::Explicit(s) = &out.built.repr else {
            panic!("non-preemptive schedules are explicit");
        };
        let s = s.clone();
        (out, s)
    }

    fn check(inst: &Instance) -> (Rational, Rational) {
        let (out, schedule) = three_halves(inst);
        let v = validate(&schedule, inst, Variant::NonPreemptive);
        assert!(v.is_empty(), "{v:?}");
        let makespan = schedule.makespan();
        assert_eq!(
            out.built.makespan, makespan,
            "the build reports its makespan"
        );
        assert!(
            makespan <= out.accepted * Rational::new(3, 2),
            "makespan {makespan} > 3/2 · {}",
            out.accepted
        );
        (out.accepted, makespan)
    }

    /// `m >= n` takes the one-job-per-machine schedule of the solve driver.
    #[test]
    fn trivial_when_m_ge_n() {
        let mut b = InstanceBuilder::new(10);
        b.add_batch(5, &[7, 3]);
        b.add_batch(2, &[9]);
        let inst = b.build().unwrap();
        let sol = crate::solve(&inst, Variant::NonPreemptive, crate::Algorithm::ThreeHalves);
        let v = validate(sol.schedule(), &inst, Variant::NonPreemptive);
        assert!(v.is_empty(), "{v:?}");
        let (accepted, makespan) = (sol.accepted, sol.makespan);
        assert!(makespan <= accepted * Rational::new(3, 2));
        assert_eq!(makespan, Rational::from(12u64)); // max(s + t) = 5 + 7
        assert_eq!(accepted, makespan);
    }

    #[test]
    fn uniform_suite() {
        for seed in 0..20 {
            check(&bss_gen::uniform(60, 8, 4, seed));
        }
    }

    #[test]
    fn paper_fig10_instance() {
        check(&bss_gen::paper::fig10_nonpreemptive());
    }

    #[test]
    fn wide_delta_instances() {
        for seed in 0..5 {
            check(&bss_gen::wide_delta(80, 10, 4, 1 << 24, seed));
        }
    }

    #[test]
    fn accepted_value_is_integral_lower_bound() {
        for seed in 0..10 {
            let inst = bss_gen::uniform(50, 6, 3, seed);
            let (out, _) = three_halves(&inst);
            assert!(out.accepted.is_integer());
            // T* is accepted and T*-1 (if probed) rejected: the rejection
            // certificate is exactly accepted - 1 when a search happened.
            if let Some(rej) = out.rejected {
                assert_eq!(rej + 1u64, out.accepted);
            }
        }
    }
}
