//! Property suite for incremental instances: **any** feasible delta
//! sequence leaves an [`IncrementalInstance`] indistinguishable from an
//! instance rebuilt from scratch — structurally (`materialize()` equality),
//! by content hash, and through the solver (the warm-start re-solve of the
//! final state is bit-identical to a cold solve of it, in everything but
//! probe counts).
//!
//! The per-push default case count is raised by the nightly pipeline via
//! `BSS_PROPTEST_CASES`.

use batch_setup_scheduling::core::{solve, solve_warm, Algorithm, WarmStart};
use batch_setup_scheduling::instance::{
    Delta, IncrementalInstance, Instance, InstanceBuilder, Variant,
};
use proptest::prelude::*;

/// A raw delta script: each step is `(selector, a, b)`, decoded against the
/// *current* state so every generated delta is feasible by construction.
type Script = Vec<(u8, u64, u64)>;

fn arb_case() -> impl Strategy<Value = (usize, Vec<u64>, Vec<(usize, u64)>, Script)> {
    (2usize..=5, 1usize..=6).prop_flat_map(|(m, c)| {
        let setups = proptest::collection::vec(1u64..40, c..=c);
        // One mandatory job per class (the model forbids empty classes),
        // then up to 18 extras in arbitrary classes.
        let mandatory = proptest::collection::vec(1u64..60, c..=c);
        let extras = proptest::collection::vec((0usize..c, 1u64..60), 0..=18);
        let script = proptest::collection::vec((0u8..3, 0u64..u64::MAX, 0u64..u64::MAX), 0..=30);
        (Just(m), setups, mandatory, extras, script).prop_map(
            |(m, setups, mandatory, extras, script)| {
                let mut jobs: Vec<(usize, u64)> = mandatory.into_iter().enumerate().collect();
                jobs.extend(extras);
                (m, setups, jobs, script)
            },
        )
    })
}

/// Decodes one script step against the current state, or `None` when no
/// feasible delta of that kind exists (e.g. a removal with every class a
/// singleton).
fn decode(step: (u8, u64, u64), inc: &IncrementalInstance) -> Option<Delta> {
    let (sel, a, b) = step;
    let n = inc.num_jobs();
    match sel {
        0 => Some(Delta::AddJob {
            class: (a as usize) % inc.num_classes(),
            time: 1 + b % 50,
        }),
        1 => {
            // A removal must keep its class non-empty: rotate from the
            // drawn position to the first removable job.
            let start = (a as usize) % n;
            (0..n)
                .map(|off| (start + off) % n)
                .find(|&j| inc.class_count(inc.jobs()[j].class) > 1)
                .map(|job| Delta::RemoveJob { job })
        }
        _ => Some(Delta::Retime {
            job: (a as usize) % n,
            time: 1 + b % 50,
        }),
    }
}

/// Rebuilds the instance a mirror `(setups, jobs)` pair describes from
/// scratch through the public builder.
fn rebuild(m: usize, setups: &[u64], jobs: &[(usize, u64)]) -> Instance {
    let mut builder = InstanceBuilder::new(m);
    for &s in setups {
        builder.add_class(s);
    }
    for &(class, time) in jobs {
        builder.add_job(class, time);
    }
    builder.build().expect("mirror states are valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// After every delta the incremental state materializes to exactly the
    /// instance a from-scratch rebuild produces, and its cached content
    /// hash equals the rebuilt instance's.
    #[test]
    fn any_delta_sequence_materializes_to_the_rebuilt_instance(
        (m, setups, jobs, script) in arb_case()
    ) {
        let base = rebuild(m, &setups, &jobs);
        let mut inc = IncrementalInstance::new(&base);
        // The naive mirror applies the same deltas to a plain job list.
        let mut mirror: Vec<(usize, u64)> = jobs.clone();
        for step in script {
            let Some(delta) = decode(step, &inc) else { continue };
            inc.apply(delta).expect("decoded deltas are feasible");
            match delta {
                Delta::AddJob { class, time } => mirror.push((class, time)),
                Delta::RemoveJob { job } => { mirror.remove(job); }
                Delta::Retime { job, time } => mirror[job].1 = time,
            }
            let rebuilt = rebuild(m, &setups, &mirror);
            prop_assert_eq!(&inc.materialize(), &rebuilt);
            prop_assert_eq!(inc.content_hash(), rebuilt.content_hash());
            prop_assert_eq!(inc.num_jobs(), mirror.len());
            prop_assert_eq!(
                u128::from(inc.total_load_once()),
                setups.iter().map(|&s| u128::from(s)).sum::<u128>()
                    + mirror.iter().map(|&(_, t)| u128::from(t)).sum::<u128>()
            );
        }
    }

    /// Warm-starting the final state's solve from the *base* state's dual
    /// bracket (widened by the accumulated load shift) is bit-identical to
    /// a cold solve of the final state in every field, the committed probe
    /// count included; only the dual tests evaluated may differ.
    #[test]
    fn warm_resolve_of_the_final_state_matches_the_cold_solve(
        (m, setups, jobs, script) in arb_case()
    ) {
        let base = rebuild(m, &setups, &jobs);
        let mut inc = IncrementalInstance::new(&base);
        for step in script {
            if let Some(delta) = decode(step, &inc) {
                inc.apply(delta).expect("decoded deltas are feasible");
            }
        }
        let final_state = inc.materialize();
        let algo = Algorithm::EpsilonSearch { eps_log2: 6 };
        for variant in Variant::ALL {
            let seed = solve(&base, variant, algo);
            let hint = WarmStart::of(&seed).widen_by_load_shift(
                u128::from(IncrementalInstance::new(&base).total_load_once()),
                u128::from(inc.total_load_once()),
                m,
            );
            let cold = solve(&final_state, variant, algo);
            let (warm, stats) = solve_warm(&final_state, variant, algo, &hint);
            prop_assert_eq!(stats.probes + stats.skipped, warm.probes + stats.seed_probes);
            prop_assert_eq!(warm.makespan, cold.makespan);
            prop_assert_eq!(warm.accepted, cold.accepted);
            prop_assert_eq!(warm.certificate, cold.certificate);
            prop_assert_eq!(warm.ratio_bound, cold.ratio_bound);
            prop_assert_eq!(warm.completion, cold.completion);
            prop_assert_eq!(warm.probes, cold.probes);
            prop_assert_eq!(warm.schedule(), cold.schedule());
        }
    }
}
