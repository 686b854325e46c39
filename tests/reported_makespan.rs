//! Every solve reports the makespan of the schedule it returns. Builders
//! report the makespans they build (the driver no longer rescans the
//! schedule), so this pins that the reported value and the schedule agree on
//! every path: unbudgeted, degraded at every work limit (where the `O(n)`
//! fallback is merged in), warm, and through the portfolio's merges.

use batch_setup_scheduling::gen;
use batch_setup_scheduling::prelude::*;

const ALGOS: [Algorithm; 4] = [
    Algorithm::TwoApprox,
    Algorithm::EpsilonSearch { eps_log2: 7 },
    Algorithm::ThreeHalves,
    Algorithm::Portfolio,
];

/// An instance's batches: `(setup, job times)` per class.
type Batches = &'static [(u64, &'static [u64])];

/// Instances whose preemptive builds take case 3.a of Algorithm 3 (the
/// continuous knapsack over the light-cheap classes with big jobs) at the
/// accepted guess of every 3/2 solve: one large-machine class per machine
/// but one, and big jobs that do not all fit outside the large machines.
/// The generator families below never build in case 3.a (they reach it
/// only at rejected guesses), so these are written out.
const CASE_3A: [(usize, Batches); 4] = [
    (2, &[(60, &[30]), (10, &[50, 50])]),
    (3, &[(61, &[27]), (58, &[33]), (12, &[47, 51, 44])]),
    (
        4,
        &[(57, &[31]), (66, &[22]), (59, &[35]), (11, &[49, 57, 52])],
    ),
    (2, &[(61, &[29]), (9, &[46, 52]), (3, &[1, 2, 2])]),
];

fn instances() -> Vec<(String, Instance)> {
    let mut out = Vec::new();
    for seed in 0..=5 {
        let families = [
            ("uniform", gen::uniform(60, 8, 4, seed)),
            ("zipf_classes", gen::zipf_classes(60, 8, 4, seed)),
            ("all_expensive", gen::all_expensive(60, 3, 8, seed)),
            ("contended", gen::contended(60, 6, 4, seed)),
            ("expensive_setups", gen::expensive_setups(40, 4, seed)),
            ("single_job_batches", gen::single_job_batches(30, 4, seed)),
            ("small_batches", gen::small_batches(60, 4, seed)),
            // Small enough for the portfolio's exact oracle.
            ("tiny", gen::tiny(seed)),
        ];
        for (family, inst) in families {
            out.push((format!("{family}/{seed}"), inst));
        }
    }
    for (k, (machines, batches)) in CASE_3A.iter().enumerate() {
        let mut b = InstanceBuilder::new(*machines);
        for &(setup, jobs) in *batches {
            b.add_batch(setup, jobs);
        }
        out.push((format!("case_3a/{k}"), b.build().expect("valid instance")));
    }
    out
}

fn assert_reported(label: &str, sol: &Solution) {
    assert_eq!(
        sol.makespan,
        sol.schedule().makespan(),
        "{label}: reported makespan differs from the schedule's"
    );
    if let Some(compact) = sol.compact() {
        assert_eq!(
            sol.makespan,
            compact.makespan(),
            "{label}: reported makespan differs from the compact schedule's"
        );
    }
}

#[test]
fn reported_makespan_is_the_schedules_on_every_solve_path() {
    let mut ws = DualWorkspace::new();
    for (name, inst) in instances() {
        for variant in Variant::ALL {
            let problem = BssProblem::new(&inst, variant);
            for algo in ALGOS {
                let label = format!("{name}/{variant}/{algo:?}");
                let full = solve_problem(&mut ws, &problem, algo, &SolveOptions::default())
                    .expect("solves");
                assert_reported(&label, &full);
                for work in 0..=full.probes as u64 {
                    let budget = SolveBudget::unlimited().with_work_limit(work);
                    let opts = SolveOptions {
                        budget: Some(&budget),
                        ..SolveOptions::default()
                    };
                    let sol = solve_problem(&mut ws, &problem, algo, &opts)
                        .expect("starvation is not an error");
                    assert_reported(&format!("{label}/work={work}"), &sol);
                }
                let warm = SolveOptions {
                    warm: Some(WarmStart::of(&full)),
                    ..SolveOptions::default()
                };
                let sol = solve_problem(&mut ws, &problem, algo, &warm).expect("solves");
                assert_reported(&format!("{label}/warm"), &sol);
            }
        }
    }
}
