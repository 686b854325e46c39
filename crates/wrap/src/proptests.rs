//! Property tests for `Wrap`: random capacity-sufficient templates and batch
//! sequences must always wrap into feasible, load-conserving placements, and
//! the largest end a wrap reports must be the makespan of what it emitted.

#![cfg(test)]

use bss_rational::Rational;
use bss_schedule::{CompactSchedule, ItemKind, Schedule};
use proptest::prelude::*;
use proptest::TestCaseError;

use crate::{wrap, wrap_into, wrap_iter_append, GapRun, SeqKind, Template, WrapSequence};

/// Denominators of the fractional gap borders and item lengths: every power
/// of two from 2 to 64, and some that are not (3, 5, 12).
const DENS: [i128; 9] = [2, 3, 4, 5, 8, 12, 16, 32, 64];

/// A random template with gaps tall enough for the jobs and with room for
/// setups below every gap but the first (Lemma 6's preconditions), plus a
/// sequence of batches whose load does not exceed the capacity.
fn arb_case() -> impl Strategy<Value = (Template, WrapSequence, Vec<u64>, usize)> {
    // setups: 1..=smax_cap; gap band [a, b) with a >= smax, height >= tmax.
    (
        proptest::collection::vec(1u64..8, 1..5), // class setups
        proptest::collection::vec((0usize..4, 1u64..12), 1..25), // (class idx, job time)
        1usize..12,                               // gap count
    )
        .prop_map(|(setups, jobs, gaps)| {
            let smax = *setups.iter().max().expect("non-empty");
            let tmax = jobs.iter().map(|j| j.1).max().unwrap_or(1);
            let mut q = WrapSequence::new();
            let mut current: Option<usize> = None;
            for (cidx, t) in &jobs {
                let class = cidx % setups.len();
                if current != Some(class) {
                    q.push_setup(class, Rational::from(setups[class]));
                    current = Some(class);
                }
                q.push_piece(class, *cidx, Rational::from(*t));
            }
            // Height per gap: ceil(load/gaps) + tmax + smax keeps capacity
            // ample and every job within one gap height.
            let load = q.load();
            let height = Rational::from(tmax + smax) + load / gaps;
            let a = Rational::from(smax);
            let template = Template::new(vec![GapRun {
                first_machine: 0,
                count: gaps,
                a,
                b: a + height,
            }]);
            let machines = gaps;
            (template, q, setups, machines)
        })
}

/// Like [`arb_case`], but the sequence mixes integral and fractional job
/// pieces, and the template has several runs, each with its own fractional
/// borders `(a, b)` (denominators from [`DENS`]) and possibly a machine
/// skipped before it. Every run still has `a >= s_max` and the capacity
/// covers the load.
fn arb_mixed_case() -> impl Strategy<Value = (Template, WrapSequence, Vec<u64>, usize)> {
    (
        proptest::collection::vec(1u64..8, 1..5), // class setups
        // (class idx, whole part, denominator idx, fraction numerator; odd
        // numerators make the piece fractional)
        proptest::collection::vec((0usize..4, 0u64..12, 0usize..9, 0i128..128), 1..30),
        // (gap count, denominator idx, a's and b's fraction numerators,
        // machines skipped before the run)
        proptest::collection::vec(
            (1usize..5, 0usize..9, 0i128..192, 0i128..64, 0usize..2),
            1..4,
        ),
    )
        .prop_map(|(setups, jobs, run_specs)| {
            let smax = *setups.iter().max().expect("non-empty");
            let mut q = WrapSequence::new();
            let mut current: Option<usize> = None;
            let mut tmax = Rational::ONE;
            for &(cidx, whole, di, k) in &jobs {
                let class = cidx % setups.len();
                if current != Some(class) {
                    q.push_setup(class, Rational::from(setups[class]));
                    current = Some(class);
                }
                let d = DENS[di];
                let frac = if k % 2 == 1 {
                    Rational::new(k % d, d)
                } else {
                    Rational::ZERO
                };
                let len = (Rational::from(whole) + frac).max(Rational::new(1, d));
                tmax = tmax.max(len);
                q.push_piece(class, cidx, len);
            }
            let gaps: usize = run_specs.iter().map(|r| r.0).sum();
            let height = tmax + Rational::from(smax) + q.load() / gaps;
            let mut runs = Vec::new();
            let mut next_machine = 0;
            for &(count, di, ka, kb, skip) in &run_specs {
                let d = DENS[di];
                let a = Rational::from(smax) + Rational::new(ka, d);
                let first_machine = next_machine + skip;
                runs.push(GapRun {
                    first_machine,
                    count,
                    a,
                    b: a + height + Rational::new(kb, d),
                });
                next_machine = first_machine + count;
            }
            (Template::new(runs), q, setups, next_machine)
        })
}

/// Runs every wrap entry point on the case and checks the output's
/// invariants, including that the reported largest end is the makespan.
fn check_wrap(
    template: &Template,
    q: &WrapSequence,
    setups: &[u64],
    machines: usize,
) -> Result<(), TestCaseError> {
    let runs = template.runs();
    let mut compact = CompactSchedule::new(machines);
    let end = wrap_iter_append(q.items().iter().copied(), runs, setups, &mut compact)
        .expect("capacity suffices");
    prop_assert_eq!(
        &compact,
        &wrap(q, template, setups, machines).expect("capacity suffices")
    );
    let s = compact.expand().expect("wrap output is in machine range");
    // The streaming path must agree with expand bit for bit.
    let mut streamed = Schedule::new(machines);
    let streamed_end = wrap_into(q, runs, setups, &mut streamed).expect("capacity suffices");
    prop_assert_eq!(&streamed, &s);
    // The reported largest end is the makespan of what was emitted.
    prop_assert_eq!(end, s.makespan());
    prop_assert_eq!(end, compact.makespan());
    prop_assert_eq!(streamed_end, end);
    // Load conservation: pieces total the sequence's job load.
    let placed: Rational = s
        .placements()
        .iter()
        .filter(|p| !p.kind.is_setup())
        .map(|p| p.len)
        .fold(Rational::ZERO, |x, y| x + y);
    let expected: Rational = q
        .items()
        .iter()
        .filter(|i| matches!(i.kind, SeqKind::Piece(_)))
        .map(|i| i.len)
        .fold(Rational::ZERO, |x, y| x + y);
    prop_assert_eq!(placed, expected);
    // Machine exclusivity.
    for u in 0..machines {
        let tl = s.machine_timeline(u);
        for w in tl.windows(2) {
            prop_assert!(w[1].start >= w[0].end(), "overlap on machine {u}");
        }
    }
    // Setup coverage: walking each machine, every piece follows a setup of
    // its class.
    for u in 0..machines {
        let mut configured = None;
        for p in s.machine_timeline(u) {
            match p.kind {
                ItemKind::Setup(c) => configured = Some(c),
                ItemKind::Piece { class, .. } => {
                    prop_assert_eq!(configured, Some(class), "machine {}", u);
                }
            }
        }
    }
    // Nothing starts below time 0; every piece lies inside its machine's
    // gap `[a, b)`.
    for p in s.placements() {
        prop_assert!(!p.start.is_negative());
        if !p.kind.is_setup() {
            let run = runs
                .iter()
                .find(|r| (r.first_machine..r.first_machine + r.count).contains(&p.machine))
                .expect("pieces land on template machines");
            prop_assert!(
                run.a <= p.start && p.end() <= run.b,
                "{p:?} outside its gap"
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn wrap_succeeds_and_is_feasible((template, q, setups, machines) in arb_case()) {
        check_wrap(&template, &q, &setups, machines)?;
    }

    /// Fractional borders and items: the cursor's exact path (fractional
    /// items rebase it) and its integer path (integral items add to the
    /// offset) interleave within one gap.
    #[test]
    fn wrap_with_fractional_borders_and_items((template, q, setups, machines) in arb_mixed_case()) {
        check_wrap(&template, &q, &setups, machines)?;
    }

    /// Compact output stays small: stored items are bounded by the sequence
    /// length plus a constant per run, never by the gap count.
    #[test]
    fn wrap_output_is_compact((template, q, setups, machines) in arb_case()) {
        let out = wrap(&q, &template, &setups, machines).expect("capacity suffices");
        prop_assert!(
            out.stored_items() <= 3 * q.len() + 8,
            "stored {} vs |Q| = {}",
            out.stored_items(),
            q.len()
        );
    }
}
