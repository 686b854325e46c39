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
    // The generator families above never build in case 3.a of Algorithm 3
    // (the continuous knapsack); these instances do, at every accepted guess.
    for (k, inst) in gen::paper::case_3a().into_iter().enumerate() {
        out.push((format!("case_3a/{k}"), inst));
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
