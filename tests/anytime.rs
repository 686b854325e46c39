//! Anytime-layer equivalence and degradation guarantees, at the facade.
//!
//! The contract the README states: an **uninterrupted** budgeted solve is
//! bit-identical to the plain solve (`Completion::Full`, same placements),
//! and an interrupted one degrades to a valid, certified solution — never a
//! panic, never an invalid schedule, never a lying bound. The exhaustive
//! per-checkpoint fault sweeps live in `crates/chaos`; this suite pins the
//! facade-level contract under the tier-1 gate.

use batch_setup_scheduling::prelude::*;

const ALGOS: [Algorithm; 4] = [
    Algorithm::TwoApprox,
    Algorithm::ThreeHalves,
    Algorithm::EpsilonSearch { eps_log2: 7 },
    Algorithm::Portfolio,
];

fn instances() -> Vec<(String, Instance)> {
    let mut out = Vec::new();
    for seed in [1, 17] {
        out.push((
            format!("uniform/{seed}"),
            batch_setup_scheduling::gen::uniform(120, 10, 4, seed),
        ));
        out.push((
            format!("tiny/{seed}"),
            batch_setup_scheduling::gen::tiny(seed),
        ));
    }
    out
}

/// A facade solve of `problem` under `budget`.
fn budgeted<P: Problem>(
    problem: &P,
    algo: Algorithm,
    budget: &SolveBudget,
) -> Result<Solution, SolveError> {
    let opts = SolveOptions {
        budget: Some(budget),
        ..SolveOptions::default()
    };
    solve_problem(&mut DualWorkspace::new(), problem, algo, &opts)
}

fn assert_identical(label: &str, a: &Solution, b: &Solution) {
    assert_eq!(a.makespan, b.makespan, "{label}: makespan");
    assert_eq!(a.accepted, b.accepted, "{label}: accepted");
    assert_eq!(a.ratio_bound, b.ratio_bound, "{label}: ratio_bound");
    assert_eq!(a.certificate, b.certificate, "{label}: certificate");
    assert_eq!(a.probes, b.probes, "{label}: probes");
    assert_eq!(
        a.schedule().placements(),
        b.schedule().placements(),
        "{label}: placements"
    );
}

/// `Solution`-level sanity for a (possibly degraded) solve: feasible,
/// self-consistent, honestly bounded.
fn assert_valid(label: &str, inst: &Instance, variant: Variant, sol: &Solution) {
    let violations = validate(sol.schedule(), inst, variant);
    assert!(violations.is_empty(), "{label}: {violations:?}");
    assert_eq!(
        sol.makespan,
        sol.schedule().makespan(),
        "{label}: reported makespan"
    );
    assert!(
        sol.makespan <= sol.ratio_bound * sol.accepted,
        "{label}: bound violated"
    );
    assert!(
        sol.certificate.is_positive() && sol.certificate <= sol.makespan,
        "{label}: certificate window"
    );
}

#[test]
fn unlimited_budget_is_bit_identical_to_plain_solve() {
    for (name, inst) in instances() {
        for variant in Variant::ALL {
            for algo in ALGOS {
                let label = format!("{name}/{variant}/{algo:?}");
                let plain = solve(&inst, variant, algo);
                let full = budgeted(
                    &BssProblem::new(&inst, variant),
                    algo,
                    &SolveBudget::unlimited(),
                )
                .expect("unlimited budget cannot fail");
                assert_eq!(full.completion, Completion::Full, "{label}");
                assert_identical(&label, &full, &plain);
            }
        }
    }
}

#[test]
fn pre_cancelled_solve_degrades_to_a_valid_fallback() {
    let token = CancelToken::new();
    token.cancel();
    for (name, inst) in instances() {
        for variant in Variant::ALL {
            for algo in ALGOS {
                let label = format!("{name}/{variant}/{algo:?}");
                let budget = SolveBudget::unlimited().with_cancel(&token);
                let sol = budgeted(&BssProblem::new(&inst, variant), algo, &budget)
                    .expect("cancellation is not an error");
                // Probe-free paths (the O(n) fallback, trivial m >= n
                // shapes) legitimately complete in full even under a dead
                // budget — but then they must match the plain solve exactly.
                if sol.completion == Completion::Full {
                    assert_identical(&label, &sol, &solve(&inst, variant, algo));
                } else {
                    assert_eq!(sol.completion, Completion::Cancelled, "{label}");
                }
                assert_valid(&label, &inst, variant, &sol);
            }
        }
    }
}

#[test]
fn every_probe_budget_level_yields_a_valid_certified_solution() {
    for (name, inst) in instances() {
        for variant in Variant::ALL {
            for algo in ALGOS {
                for work in [0, 1, 2, 3, 5, 8, 1000] {
                    let label = format!("{name}/{variant}/{algo:?}/work={work}");
                    let budget = SolveBudget::unlimited().with_work_limit(work);
                    let sol = budgeted(&BssProblem::new(&inst, variant), algo, &budget)
                        .expect("starvation is not an error");
                    assert_valid(&label, &inst, variant, &sol);
                    // A starved search still never beats its own bound, and a
                    // full one matches the plain solve.
                    if sol.completion == Completion::Full && work == 1000 {
                        assert_identical(&label, &sol, &solve(&inst, variant, algo));
                    }
                }
            }
        }
    }
}

/// Class Jumping narrows to one jump gap of its fastest class by bisecting
/// that class's jumps lazily, and on `all_expensive(3000, 6, 1024, _)` the
/// splittable search meets a gap of far more than 64 jumps. An interrupt at
/// any point of that bisection must certify only rejections it probed: the
/// certificate never exceeds the uninterrupted accepted guess, and it never
/// falls as the work limit grows.
#[test]
fn wide_jump_gap_interrupts_keep_only_probed_rejections() {
    let variant = Variant::Splittable;
    for seed in 0..4 {
        let inst = batch_setup_scheduling::gen::all_expensive(3000, 6, 1024, seed);
        let plain = solve(&inst, variant, Algorithm::ThreeHalves);
        let problem = BssProblem::new(&inst, variant);
        let mut floor = None;
        for work in 0..=plain.probes as u64 {
            let label = format!("all_expensive/{seed}/work={work}");
            let budget = SolveBudget::unlimited().with_work_limit(work);
            let sol = budgeted(&problem, Algorithm::ThreeHalves, &budget)
                .expect("starvation is not an error");
            assert_valid(&label, &inst, variant, &sol);
            assert!(
                sol.certificate <= plain.accepted,
                "{label}: certificate {} above the accepted guess {}",
                sol.certificate,
                plain.accepted
            );
            assert!(
                floor.is_none_or(|c| c <= sol.certificate),
                "{label}: certificate fell below {floor:?}"
            );
            floor = Some(sol.certificate);
        }
    }
}

#[test]
fn expired_deadline_degrades_not_errors() {
    for (name, inst) in instances() {
        for variant in Variant::ALL {
            let label = format!("{name}/{variant}");
            let budget = SolveBudget::unlimited().with_deadline(std::time::Duration::ZERO);
            let sol = budgeted(
                &BssProblem::new(&inst, variant),
                Algorithm::ThreeHalves,
                &budget,
            )
            .expect("an expired deadline is not an error");
            // Trivial m >= n shapes complete without probing; every other
            // solve must report the expired deadline.
            if sol.completion == Completion::Full {
                assert_identical(&label, &sol, &solve(&inst, variant, Algorithm::ThreeHalves));
            } else {
                assert_eq!(
                    sol.completion,
                    Completion::Degraded(Interrupt::Deadline),
                    "{label}"
                );
            }
            assert_valid(&label, &inst, variant, &sol);
        }
    }
}

#[test]
fn seqdep_budgeted_matches_plain_and_degrades_cleanly() {
    let insts = [
        (
            "triangle",
            batch_setup_scheduling::gen::seqdep::triangle_violating(8, 3, 5),
        ),
        (
            "uniform",
            batch_setup_scheduling::gen::seqdep::uniform_setups(6, 2, 5),
        ),
    ];
    for (name, sd) in &insts {
        for algo in ALGOS {
            let label = format!("{name}/{algo:?}");
            let plain = solve_seqdep(sd, algo);
            let problem = SeqDepProblem::new(sd);
            let full = budgeted(&problem, algo, &SolveBudget::unlimited())
                .expect("unlimited budget cannot fail");
            assert_eq!(full.completion, Completion::Full, "{label}");
            assert_identical(&label, &full, &plain);

            let starved = budgeted(&problem, algo, &SolveBudget::unlimited().with_work_limit(1))
                .expect("starvation is not an error");
            assert!(
                starved.makespan <= starved.ratio_bound * starved.accepted,
                "{label}: starved bound"
            );
            assert!(
                starved.certificate.is_positive() && starved.certificate <= starved.makespan,
                "{label}: starved certificate"
            );
        }
    }
}
