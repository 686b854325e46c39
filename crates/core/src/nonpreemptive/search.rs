//! Theorem 8: the non-preemptive 3/2-approximation in `O(n log(n + Δ))`.

use bss_budget::Interrupt;
use bss_instance::{Instance, LowerBounds, Variant};
use bss_rational::Rational;
use bss_schedule::Schedule;

use crate::search::{IntBracket, Search, SearchOutcome};
use crate::workspace::DualWorkspace;
use crate::{SolveOptions, Trace};

use super::{accepts, dual_in};

/// Runs the exact integer binary search over the 3/2-dual of Theorem 9.
///
/// Because all input values are integral and jobs and setups are never
/// preempted, `OPT ∈ N`; the search over `[⌈T_min⌉, 2⌈T_min⌉]` therefore
/// terminates with an accepted `T* <= OPT` and a schedule of makespan
/// `<= 3/2 · T* <= 3/2 · OPT`, after `O(log T_min) ⊆ O(log(n + Δ))` probes
/// of the `O(n)` dual.
///
/// When `m >= n` the trivial optimal schedule (one job and one setup per
/// machine) is returned directly, as the paper assumes `m < n`.
#[must_use]
pub fn three_halves(inst: &Instance) -> SearchOutcome<Schedule> {
    three_halves_in(&mut DualWorkspace::new(), inst)
}

/// [`three_halves`] on a reusable workspace: every probe's builder shares
/// the workspace's repair buffers.
#[must_use]
pub fn three_halves_in(ws: &mut DualWorkspace, inst: &Instance) -> SearchOutcome<Schedule> {
    let search = &mut Search::new(&SolveOptions::default(), true);
    three_halves_search(ws, inst, search).0
}

/// [`three_halves_in`] on `search`'s ladder settings (budget, threads, warm
/// hint): bit-identical whichever they are, as long as the budget never
/// trips. On interruption the integer search stops at its current (still
/// accepted) right bracket — `2·⌈T_min⌉` at worst, which Theorem 1
/// guarantees builds — and the interrupt is reported alongside.
pub(crate) fn three_halves_search(
    ws: &mut DualWorkspace,
    inst: &Instance,
    search: &mut Search<'_>,
) -> (SearchOutcome<Schedule>, Option<Interrupt>) {
    if inst.machines() >= inst.num_jobs() {
        return (trivial_one_job_per_machine(inst), None);
    }
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
        &|_, t| accepts(inst, t),
    );
    let mut accepted = out.accepted;
    let schedule = loop {
        if let Some(s) = dual_in(ws, inst, accepted, &mut Trace::disabled()) {
            break s;
        }
        assert!(
            accepted < 2 * t_min,
            "2*T_min is accepted and builds (Theorem 1)"
        );
        accepted += 1;
    };
    (
        SearchOutcome {
            accepted: Rational::from(accepted),
            schedule,
            rejected: out.rejected.map(Rational::from),
            probes: out.probes,
        },
        out.interrupt,
    )
}

/// `m >= n`: one machine per job is optimal (`makespan = max_i (s_i +
/// t^(i)_max)`, matching the lower bound of Note 2).
fn trivial_one_job_per_machine(inst: &Instance) -> SearchOutcome<Schedule> {
    let mut s = Schedule::new(inst.machines());
    for j in 0..inst.num_jobs() {
        let job = inst.job(j);
        let setup = Rational::from(inst.setup(job.class));
        s.push_setup(j, Rational::ZERO, setup, job.class);
        s.push_piece(j, setup, Rational::from(job.time), j, job.class);
    }
    let opt = Rational::from(inst.max_setup_plus_tmax());
    debug_assert_eq!(s.makespan(), opt);
    SearchOutcome {
        accepted: opt,
        schedule: s,
        rejected: None,
        probes: 0,
    }
}

#[cfg(test)]
mod tests {
    use bss_instance::InstanceBuilder;
    use bss_schedule::validate;

    use super::*;

    fn check(inst: &Instance) -> (Rational, Rational) {
        let out = three_halves(inst);
        let v = validate(&out.schedule, inst, Variant::NonPreemptive);
        assert!(v.is_empty(), "{v:?}");
        let makespan = out.schedule.makespan();
        assert!(
            makespan <= out.accepted * Rational::new(3, 2),
            "makespan {makespan} > 3/2 · {}",
            out.accepted
        );
        (out.accepted, makespan)
    }

    #[test]
    fn trivial_when_m_ge_n() {
        let mut b = InstanceBuilder::new(10);
        b.add_batch(5, &[7, 3]);
        b.add_batch(2, &[9]);
        let inst = b.build().unwrap();
        let (accepted, makespan) = check(&inst);
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
            let out = three_halves(&inst);
            assert!(out.accepted.is_integer());
            // T* is accepted and T*-1 (if probed) rejected: the rejection
            // certificate is exactly accepted - 1 when a search happened.
            if let Some(rej) = out.rejected {
                assert_eq!(rej + 1u64, out.accepted);
            }
        }
    }
}
