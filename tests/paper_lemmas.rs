//! Structural assertions tied to individual lemmas of the paper, checked on
//! the algorithms' actual outputs.

use batch_setup_scheduling::core::{preemptive, splittable, Trace};
use batch_setup_scheduling::prelude::*;
use std::collections::{HashMap, HashSet};

fn tmin(inst: &Instance, v: Variant) -> Rational {
    LowerBounds::of(inst).tmin(v)
}

/// Lemma 2: in any `T`-feasible schedule, jobs of *different expensive
/// classes* sit on different machines. Our splittable dual's output keeps
/// expensive classes (setup > T/2) machine-disjoint.
#[test]
fn lemma2_expensive_classes_machine_disjoint() {
    let mut ws = DualWorkspace::new();
    let mut cs = CompactSchedule::new(1);
    for seed in 0..15 {
        let inst = batch_setup_scheduling::gen::expensive_setups(40, 5, seed);
        let t = tmin(&inst, Variant::Splittable) * 2u64;
        if splittable::dual_into(&mut ws, &inst, t, &mut Trace::disabled(), &mut cs).is_none() {
            continue;
        }
        let s = cs.expand().expect("in range");
        let half = t.half();
        let mut machine_exp_class: HashMap<usize, usize> = HashMap::new();
        for p in s.placements() {
            let class = p.kind.class();
            if Rational::from(inst.setup(class)) > half {
                if let Some(&other) = machine_exp_class.get(&p.machine) {
                    assert_eq!(
                        other, class,
                        "machine {} hosts two expensive classes (seed {seed})",
                        p.machine
                    );
                } else {
                    machine_exp_class.insert(p.machine, class);
                }
            }
        }
    }
}

/// Note 1: the preemptive optimum is at least `max_i (s_i + t^(i)_max)`; no
/// algorithm may beat it.
#[test]
fn note1_no_schedule_beats_setup_plus_job() {
    for seed in 0..15 {
        let inst = batch_setup_scheduling::gen::uniform(40, 6, 8, seed);
        let bound = Rational::from(inst.max_setup_plus_tmax());
        for variant in [Variant::Preemptive, Variant::NonPreemptive] {
            for algo in [
                Algorithm::TwoApprox,
                Algorithm::ThreeHalves,
                Algorithm::Portfolio,
            ] {
                let sol = solve(&inst, variant, algo);
                assert!(
                    sol.makespan >= bound,
                    "{variant} {algo:?} (seed {seed}): makespan {} below Note 1 bound {}",
                    sol.makespan,
                    bound
                );
            }
        }
    }
}

/// The band discipline of Algorithm 3 (Lemma 4 / Note 3 machinery): pieces
/// placed at the *bottom* of large machines stay below `T/2`, and the
/// obligatory pieces of the same job in the nice instance start at or above
/// `T/2` — this is what makes split jobs preemptive-feasible.
#[test]
fn algorithm3_band_discipline() {
    let inst = batch_setup_scheduling::gen::paper::fig3_general_preemptive();
    let t_min = tmin(&inst, Variant::Preemptive);
    let mut ws = DualWorkspace::new();
    let mut s = Schedule::new(inst.machines());
    // Probe a few accepted guesses.
    for k in [22i128, 26, 30, 36, 40] {
        let t = t_min * Rational::new(k, 20);
        let mode = preemptive::CountMode::AlphaPrime;
        if preemptive::dual_into(&mut ws, &inst, t, mode, &mut Trace::disabled(), &mut s).is_none()
        {
            continue;
        }
        let half = t.half();
        // For every job with pieces on several machines, pieces must not
        // overlap in time (validator checks), and if one piece lies fully
        // below T/2 the other must start at >= T/2 (band separation).
        let mut pieces: HashMap<usize, Vec<(Rational, Rational)>> = HashMap::new();
        for p in s.placements() {
            if let ItemKind::Piece { job, .. } = p.kind {
                pieces.entry(job).or_default().push((p.start, p.end()));
            }
        }
        for (job, ivs) in pieces {
            if ivs.len() < 2 {
                continue;
            }
            let below: Vec<_> = ivs.iter().filter(|(_, e)| *e <= half).collect();
            let above: Vec<_> = ivs.iter().filter(|(s, _)| *s >= half).collect();
            assert_eq!(
                below.len() + above.len(),
                ivs.len(),
                "job {job}: piece straddles T/2 while split across machines (T={t})"
            );
        }
    }
}

/// The splittable dual uses exactly `β_i` machines per expensive class
/// (Lemma 1's bound, met with equality by construction).
#[test]
fn theorem7_uses_beta_machines_per_expensive_class() {
    use batch_setup_scheduling::core::classify::{beta, classify};
    let mut ws = DualWorkspace::new();
    let mut cs = CompactSchedule::new(1);
    for seed in 0..10 {
        let inst = batch_setup_scheduling::gen::expensive_setups(30, 6, seed);
        let t = tmin(&inst, Variant::Splittable) * 2u64;
        if splittable::dual_into(&mut ws, &inst, t, &mut Trace::disabled(), &mut cs).is_none() {
            continue;
        }
        let s = cs.expand().expect("in range");
        let cls = classify(&inst, t);
        let expensive = [&cls.iexp_plus, &cls.iexp_zero, &cls.iexp_minus];
        for &i in expensive.into_iter().flatten() {
            let machines: HashSet<usize> = s
                .placements()
                .iter()
                .filter(|p| !p.kind.is_setup() && p.kind.class() == i)
                .map(|p| p.machine)
                .collect();
            assert_eq!(machines.len(), beta(&inst, t, i), "class {i} (seed {seed})");
        }
    }
}

/// Compactness (the paper's "weaker definition of schedules"): the splittable
/// 3/2 algorithm's native output size must not grow with `m`.
#[test]
fn compact_output_independent_of_machine_count() {
    let mut sizes = Vec::new();
    for &m in &[16usize, 256, 4096] {
        let mut b = InstanceBuilder::new(m);
        b.add_batch(10, &[200_000]);
        b.add_batch(2, &[7, 7, 7]);
        let inst = b.build().unwrap();
        let sol = solve(&inst, Variant::Splittable, Algorithm::ThreeHalves);
        sizes.push(sol.compact().expect("splittable").stored_items());
    }
    assert!(
        sizes[2] <= sizes[0] + 8,
        "stored items grew with m: {sizes:?}"
    );
}
