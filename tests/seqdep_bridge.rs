//! The sequence-dependent bridge, end to end: reductions are bit-exact,
//! uniform instances solve through the batch-setup algorithms within the
//! proven guarantee (confirmed by the seqdep-side evaluator), and the
//! general heuristic dual honors the documented `Solution` invariants.

use batch_setup_scheduling::core::{
    solve_problem, solve_seqdep, Algorithm, DualWorkspace, Problem, SeqDepProblem, SolveOptions,
};
use batch_setup_scheduling::prelude::*;
use batch_setup_scheduling::seqdep::{reduce, solver, SeqDepInstance};
use proptest::prelude::*;

/// Strategy: a random *uniform* sequence-dependent instance (the batch-setup
/// special case), kept in raw integer-vector form so failures shrink.
fn arb_uniform_parts() -> impl Strategy<Value = (usize, Vec<u64>, Vec<u64>)> {
    (1usize..=5, 2usize..=8).prop_flat_map(|(m, c)| {
        (
            Just(m),
            proptest::collection::vec(1u64..60, c..=c),
            proptest::collection::vec(1u64..120, c..=c),
        )
    })
}

fn uniform_from_parts(machines: usize, setups: &[u64], work: &[u64]) -> SeqDepInstance {
    let c = setups.len();
    let switch: Vec<Vec<u64>> = (0..c)
        .map(|i| (0..c).map(|j| if i == j { 0 } else { setups[j] }).collect())
        .collect();
    SeqDepInstance::new(machines, setups.to_vec(), switch, work.to_vec())
        .expect("valid by construction")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The acceptance-criterion round trip: uniform `SeqDepInstance →
    /// Instance → solve` produces schedules whose makespan the seqdep-side
    /// `makespan`/`machine_time` evaluator confirms within the variant's
    /// proven guarantee — and the reduction itself is bit-exact on setups
    /// and per-class work in both directions.
    #[test]
    fn uniform_round_trip_confirmed_by_evaluator(
        (machines, setups, work) in arb_uniform_parts(),
    ) {
        let sd = uniform_from_parts(machines, &setups, &work);

        // Reduction: bit-exact on setups and jobs.
        let reduced = reduce::to_uniform_instance(&sd).expect("uniform");
        prop_assert_eq!(reduced.machines(), machines);
        prop_assert_eq!(reduced.num_classes(), setups.len());
        for j in 0..setups.len() {
            prop_assert_eq!(reduced.setup(j), setups[j]);
            prop_assert_eq!(reduced.class_jobs(j), &[j]);
            prop_assert_eq!(reduced.job(j).time, work[j]);
        }
        // And exactly invertible.
        prop_assert_eq!(reduce::from_instance(&reduced), sd.clone());

        // Solve through the unified surface; the uniform regime must engage.
        let problem = SeqDepProblem::new(&sd);
        prop_assert!(problem.uniform_reduction().is_some());
        for algo in [Algorithm::ThreeHalves, Algorithm::Portfolio] {
            let sol = solve_seqdep(&sd, algo);
            if algo == Algorithm::Portfolio && sol.ratio_bound == Rational::ONE {
                // The portfolio's exact oracle closed this tiny instance:
                // the reported makespan *is* OPT, certified exactly.
                prop_assert_eq!(sol.certificate, sol.makespan);
            } else {
                prop_assert_eq!(sol.ratio_bound, Rational::new(3, 2));
            }

            // Map the schedule back to per-machine class orders and confirm
            // with the seqdep evaluator: machine_time re-prices every order
            // exactly, and the makespan honors the proven guarantee.
            let orders = reduce::orders_from_schedule(sol.schedule(), &reduced);
            prop_assert!(sd.check_orders(&orders).is_ok());
            let confirmed = Rational::from(sd.makespan(&orders));
            prop_assert!(confirmed <= sol.makespan);
            prop_assert!(
                confirmed <= sol.ratio_bound * sol.accepted,
                "evaluator {} > 3/2 * {}", confirmed, sol.accepted
            );
            // Per-machine agreement, not just the max.
            for (u, order) in orders.iter().enumerate() {
                let end = sol
                    .schedule()
                    .machine_timeline(u)
                    .last()
                    .map(batch_setup_scheduling::schedule::Placement::end)
                    .unwrap_or(Rational::ZERO);
                prop_assert!(Rational::from(sd.machine_time(order)) <= end);
            }
            // The certificate is a genuine lower bound on the (shared)
            // optimum of both models.
            prop_assert!(sol.certificate <= confirmed.max(sol.makespan));
        }
    }

    /// The general heuristic dual: constructive acceptance means the solved
    /// schedule's makespan is within `ratio_bound · accepted`, and the
    /// solver-side schedule re-prices exactly through the evaluator.
    #[test]
    fn general_instances_reprice_exactly(
        seed in 0u64..1_000_000,
        c in 2usize..16,
        m in 1usize..5,
    ) {
        let inst = batch_setup_scheduling::gen::seqdep::triangle_violating(c, m, seed);
        let mut ws = DualWorkspace::new();
        let problem = SeqDepProblem::new(&inst);
        let sol = solve_problem(&mut ws, &problem, Algorithm::ThreeHalves, &SolveOptions::default())
            .expect("no panics");
        prop_assert!(sol.makespan <= sol.ratio_bound * sol.accepted);
        // Re-run the builder at the accepted guess; the scratch orders must
        // re-price to the same makespan.
        let mut out = Schedule::new(inst.machines());
        prop_assert!(solver::build_into(&mut ws_scratch(), &inst, sol.accepted, &mut out));
        prop_assert_eq!(out.makespan(), sol.makespan);
    }
}

/// A fresh scratch per call (determinism of the builder is proven in the
/// solver's unit tests; here we only need any scratch).
fn ws_scratch() -> solver::SeqDepScratch {
    solver::SeqDepScratch::new()
}

#[test]
fn tsp_instances_stay_above_the_exact_oracle() {
    for seed in 0..10 {
        let inst = batch_setup_scheduling::gen::seqdep::tsp_path(9, seed);
        let exact = batch_setup_scheduling::seqdep::exact_single_machine(&inst);
        let sol = solve_seqdep(&inst, Algorithm::Portfolio);
        assert!(sol.makespan >= Rational::from(exact), "below optimum?!");
        assert!(sol.makespan <= sol.ratio_bound * sol.accepted);
        assert!(sol.certificate <= Rational::from(exact));
    }
}

#[test]
fn problem_trait_objects_unify_both_models() {
    // The same generic driver solves a batch-setup variant and a seqdep
    // instance through `&dyn Problem` — one surface, two models.
    let bss_inst = batch_setup_scheduling::gen::uniform(40, 6, 3, 1);
    let sd_inst = batch_setup_scheduling::gen::seqdep::triangle_violating(10, 3, 1);
    let bss_problem = batch_setup_scheduling::core::BssProblem::new(&bss_inst, Variant::Preemptive);
    let sd_problem = SeqDepProblem::new(&sd_inst);
    let problems: [&dyn Problem; 2] = [&bss_problem, &sd_problem];
    let mut ws = DualWorkspace::new();
    for p in problems {
        let sol = solve_problem(&mut ws, p, Algorithm::ThreeHalves, &SolveOptions::default())
            .expect("no panics");
        assert!(
            sol.makespan <= sol.ratio_bound * sol.accepted,
            "{}",
            p.name()
        );
        assert!(sol.certificate <= sol.makespan, "{}", p.name());
        assert!(p.t_min() <= sol.accepted.max(p.t_min()), "{}", p.name());
    }
}

#[test]
fn seqdep_json_solves_identically_after_round_trip() {
    let inst = batch_setup_scheduling::gen::seqdep::triangle_violating(12, 4, 9);
    let back = SeqDepInstance::from_json(&inst.to_json()).expect("round trip");
    assert_eq!(back, inst);
    let a = solve_seqdep(&inst, Algorithm::ThreeHalves);
    let b = solve_seqdep(&back, Algorithm::ThreeHalves);
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.schedule().placements(), b.schedule().placements());
}

/// The `O(c²)` uniformity scan is memoized on the *instance*: however many
/// times a `SeqDepProblem` is rebuilt or solved on top of it, the scan runs
/// exactly once (and not at all until someone asks).
#[test]
fn uniformity_scan_runs_once_per_instance() {
    let inst = uniform_from_parts(3, &[5, 9, 2, 7], &[11, 4, 8, 6]);
    assert_eq!(inst.uniformity_checks(), 0, "the memo must start cold");
    for _ in 0..5 {
        let p = SeqDepProblem::new(&inst);
        assert!(p.uniform_reduction().is_some(), "instance is uniform");
        let sol = solve_seqdep(&inst, Algorithm::ThreeHalves);
        assert!(sol.makespan <= sol.ratio_bound * sol.accepted);
    }
    assert_eq!(
        inst.uniformity_checks(),
        1,
        "repeated bridge builds and solves must reuse the memoized scan"
    );
    // Clones carry the value, not the memo: they start cold again.
    let clone = inst.clone();
    assert_eq!(clone.uniformity_checks(), 0);
    assert_eq!(clone, inst);
}

#[test]
fn embedding_upper_bounds_the_nonpreemptive_optimum() {
    // Instance → SeqDepInstance restricts the problem (one batch per
    // class), so any seqdep makespan upper-bounds nothing *below* the
    // non-preemptive certificate and is a feasible non-preemptive makespan.
    for seed in 0..10 {
        let bss_inst = batch_setup_scheduling::gen::uniform(40, 6, 3, seed);
        let embedded = reduce::from_instance(&bss_inst);
        let sd = solve_seqdep(&embedded, Algorithm::Portfolio);
        let nonp = solve(&bss_inst, Variant::NonPreemptive, Algorithm::ThreeHalves);
        // The seqdep schedule maps to a feasible non-preemptive schedule of
        // the original, so OPT_nonp <= sd.makespan; the certificate is a
        // strict lower bound on OPT_nonp.
        assert!(nonp.certificate <= sd.makespan, "seed {seed}");
    }
}
