//! The `O(n)` 2-approximations (Theorem 1; Lemmas 8 and 9).

use bss_instance::{Instance, LowerBounds, Variant};
use bss_rational::Rational;
use bss_schedule::{CompactSchedule, Schedule};
use bss_wrap::{wrap_iter_append, GapRun};

use crate::classify::class_items;
use crate::workspace::DualWorkspace;
use crate::Trace;

/// Lemma 8: splittable 2-approximation in `O(n)`, with the makespan its
/// wrap reports.
///
/// Wraps the single sequence of all batches into one gap `[s_max, s_max +
/// N/m)` per machine; moved setups fit below because `s_max` is reserved.
/// Makespan `<= s_max + N/m <= 2·max(N/m, s_max) <= 2·OPT`. The one-run
/// template lives in the workspace's scratch; the batches stream lazily off
/// the instance and the wrap appends its groups directly to the output — no
/// `O(n)` wrap sequence is ever materialized.
#[must_use]
pub fn splittable_with_makespan(
    ws: &mut DualWorkspace,
    inst: &Instance,
) -> (CompactSchedule, Rational) {
    let m = inst.machines();
    let smax = Rational::from(inst.smax());
    let per_machine = Rational::from(inst.total_load_once()) / m;
    ws.scratch.clear();
    ws.scratch.runs.push(GapRun {
        first_machine: 0,
        count: m,
        a: smax,
        b: smax + per_machine,
    });
    // Capacity S(ω) = N = L(Q) exactly; Lemma 6 applies.
    let mut out = CompactSchedule::new(m);
    let batches = (0..inst.num_classes()).flat_map(|i| crate::splittable::class_batch(inst, i));
    let makespan = wrap_iter_append(batches, &ws.scratch.runs, inst.setups(), &mut out)
        .expect("Lemma 8: template capacity equals load");
    (out, makespan)
}

/// Lemma 9: non-preemptive (and hence preemptive) 2-approximation in
/// `O(n)`, with its makespan, the largest machine end.
///
/// Phase 1 runs next-fit with threshold `T_min` over the flat batch sequence;
/// phase 2 moves each machine's over-border item to the head of the next
/// machine (prepending a fresh setup when the moved item is a job), restoring
/// setup coverage; trailing setups are dropped. Every machine ends at
/// `<= 2·T_min <= 2·OPT`.
///
/// `trace` receives the phase-1 schedule (Figure 7 left) and the repaired
/// schedule (Figure 7 right).
#[must_use]
pub fn greedy_with_makespan(inst: &Instance, trace: &mut Trace) -> (Schedule, Rational) {
    #[derive(Clone, Copy)]
    enum It {
        Setup(usize),
        Job(usize, usize, u64), // (job, class, time)
    }
    fn len_of(inst: &Instance, it: &It) -> u64 {
        match *it {
            It::Setup(c) => inst.setup(c),
            It::Job(_, _, time) => time,
        }
    }

    let m = inst.machines();
    let t_min = LowerBounds::of(inst).tmin(Variant::NonPreemptive);
    // Phase 1: next-fit with threshold T_min.
    let mut stacks: Vec<Vec<It>> = vec![Vec::new()];
    let mut load = Rational::ZERO;
    let push = |stacks: &mut Vec<Vec<It>>, load: &mut Rational, it: It, len: u64| {
        stacks.last_mut().expect("non-empty").push(it);
        *load += len;
        if *load >= t_min && stacks.len() < m {
            stacks.push(Vec::new());
            *load = Rational::ZERO;
        }
    };
    for i in 0..inst.num_classes() {
        push(&mut stacks, &mut load, It::Setup(i), inst.setup(i));
        for (j, tj) in class_items(inst, i) {
            push(&mut stacks, &mut load, It::Job(j, i, tj), tj);
        }
    }
    if trace.is_enabled() {
        trace.snap("phase 1: next-fit", &stacks_to_schedule(inst, &stacks).0);
    }

    // Phase 2: move each machine's border-crossing last item to the next
    // machine's head; decisions are taken on the phase-1 stacks.
    let used = stacks.len();
    let mut moved: Vec<Vec<It>> = vec![Vec::new(); used];
    for u in 0..used.saturating_sub(1) {
        let total: u64 = stacks[u].iter().map(|it| len_of(inst, it)).sum();
        if Rational::from(total) > t_min {
            let last = stacks[u].pop().expect("overfull machine has items");
            match last {
                It::Setup(_) => moved[u + 1].push(last),
                It::Job(_, c, _) => {
                    moved[u + 1].push(It::Setup(c));
                    moved[u + 1].push(last);
                }
            }
        }
    }
    for (u, mut head) in moved.into_iter().enumerate() {
        if !head.is_empty() {
            head.extend(stacks[u].iter().copied());
            stacks[u] = head;
        }
    }
    // Coverage repair: when a machine's load hit T_min *exactly*, nothing was
    // moved, and the next machine may open with naked jobs mid-class — insert
    // the missing setup (at most one per machine, so the 2·T_min bound keeps).
    for stack in &mut stacks {
        let mut configured: Option<usize> = None;
        let mut fix = None;
        for (idx, it) in stack.iter().enumerate() {
            match *it {
                It::Setup(c) => configured = Some(c),
                It::Job(_, c, _) => {
                    if configured != Some(c) {
                        fix = Some((idx, c));
                        break;
                    }
                }
            }
        }
        if let Some((idx, c)) = fix {
            stack.insert(idx, It::Setup(c));
        }
    }
    // Drop unnecessary trailing setups.
    for stack in &mut stacks {
        while matches!(stack.last(), Some(It::Setup(_))) {
            stack.pop();
        }
    }
    let (schedule, makespan) = stacks_to_schedule(inst, &stacks);
    trace.snap("phase 2: repaired", &schedule);
    return (schedule, makespan);

    /// The schedule of `stacks` and its makespan, the largest machine end.
    fn stacks_to_schedule(inst: &Instance, stacks: &[Vec<It>]) -> (Schedule, Rational) {
        let mut s = Schedule::new(inst.machines());
        let mut makespan = Rational::ZERO;
        for (u, stack) in stacks.iter().enumerate() {
            let mut t = Rational::ZERO;
            for it in stack {
                match *it {
                    It::Setup(c) => {
                        let len = Rational::from(inst.setup(c));
                        s.push_setup(u, t, len, c);
                        t += len;
                    }
                    It::Job(j, c, time) => {
                        let len = Rational::from(time);
                        s.push_piece(u, t, len, j, c);
                        t += len;
                    }
                }
            }
            makespan = makespan.max(t);
        }
        (s, makespan)
    }
}

#[cfg(test)]
mod tests {
    use bss_instance::InstanceBuilder;
    use bss_schedule::validate;

    use super::*;

    fn check_two_approx(inst: &Instance) {
        // Splittable.
        let (cs, makespan) = splittable_with_makespan(&mut DualWorkspace::new(), inst);
        let s = cs.expand().expect("in range");
        assert_eq!(makespan, s.makespan());
        let v = validate(&s, inst, Variant::Splittable);
        assert!(v.is_empty(), "splittable: {v:?}");
        let bound = LowerBounds::of(inst).tmin(Variant::Splittable) * 2u64;
        assert!(s.makespan() <= bound, "{} > {}", s.makespan(), bound);

        // Non-preemptive / preemptive.
        let (s, makespan) = greedy_with_makespan(inst, &mut Trace::disabled());
        assert_eq!(makespan, s.makespan());
        for variant in [Variant::NonPreemptive, Variant::Preemptive] {
            let v = validate(&s, inst, variant);
            assert!(v.is_empty(), "{variant}: {v:?}");
        }
        let bound = LowerBounds::of(inst).tmin(Variant::NonPreemptive) * 2u64;
        assert!(s.makespan() <= bound, "{} > {}", s.makespan(), bound);
    }

    #[test]
    fn single_class_single_machine() {
        let mut b = InstanceBuilder::new(1);
        b.add_batch(5, &[3, 4, 5]);
        check_two_approx(&b.build().unwrap());
    }

    #[test]
    fn figure7_shape() {
        // m = c = 5 like the paper's Figure 7.
        let mut b = InstanceBuilder::new(5);
        b.add_batch(9, &[14, 11, 8]);
        b.add_batch(7, &[13, 9, 6]);
        b.add_batch(11, &[16, 7]);
        b.add_batch(6, &[12, 10, 5]);
        b.add_batch(8, &[15, 9]);
        check_two_approx(&b.build().unwrap());
    }

    #[test]
    fn many_machines_few_jobs() {
        let mut b = InstanceBuilder::new(20);
        b.add_batch(2, &[1, 1]);
        b.add_batch(3, &[4]);
        check_two_approx(&b.build().unwrap());
    }

    #[test]
    fn huge_setup_dominates() {
        let mut b = InstanceBuilder::new(3);
        b.add_batch(1000, &[1, 1, 1]);
        b.add_batch(1, &[2, 2]);
        check_two_approx(&b.build().unwrap());
    }

    #[test]
    fn trace_captures_both_phases() {
        let mut b = InstanceBuilder::new(5);
        b.add_batch(9, &[14, 11, 8]);
        b.add_batch(7, &[13, 9, 6]);
        b.add_batch(11, &[16, 7]);
        b.add_batch(6, &[12, 10, 5]);
        b.add_batch(8, &[15, 9]);
        let inst = b.build().unwrap();
        let mut trace = Trace::enabled();
        let _ = greedy_with_makespan(&inst, &mut trace);
        assert_eq!(trace.steps().len(), 2);
    }

    #[test]
    fn randomized_suite() {
        for seed in 0..30 {
            let inst = bss_gen::uniform(60, 8, 4, seed);
            check_two_approx(&inst);
        }
        for seed in 0..10 {
            check_two_approx(&bss_gen::expensive_setups(30, 3, seed));
            check_two_approx(&bss_gen::single_job_batches(25, 5, seed));
        }
    }
}
