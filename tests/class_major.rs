//! The class-major job table of `Instance`, and the fact its use rests on:
//! the solvers read each class's jobs in ascending id order and never look
//! at how the ids of different classes interleave. So relabeling an
//! instance's jobs class by class changes no answer beyond the job ids.

use batch_setup_scheduling::gen;
use batch_setup_scheduling::prelude::*;

const ALGOS: [Algorithm; 4] = [
    Algorithm::ThreeHalves,
    Algorithm::EpsilonSearch { eps_log2: 7 },
    Algorithm::TwoApprox,
    Algorithm::Portfolio,
];

/// The generator families at test sizes, six seeds each.
fn families() -> Vec<(String, Instance)> {
    let mut out = Vec::new();
    for seed in 0..6 {
        out.extend(
            [
                ("uniform", gen::uniform(90, 8, 4, seed)),
                ("zipf_classes", gen::zipf_classes(90, 8, 4, seed)),
                ("all_expensive", gen::all_expensive(90, 4, 8, seed)),
                ("expensive_setups", gen::expensive_setups(60, 5, seed)),
                ("single_job_batches", gen::single_job_batches(30, 4, seed)),
                ("small_batches", gen::small_batches(60, 5, seed)),
            ]
            .map(|(family, inst)| (format!("{family}/{seed}"), inst)),
        );
    }
    out
}

/// `inst` with its jobs re-added class by class through the builder, and
/// the map from each old job id to its new one.
fn class_by_class(inst: &Instance) -> (Instance, Vec<JobId>) {
    let mut b = InstanceBuilder::new(inst.machines());
    for &s in inst.setups() {
        b.add_class(s);
    }
    let mut new_id = vec![0; inst.num_jobs()];
    for i in 0..inst.num_classes() {
        for (&j, &t) in inst.class_jobs(i).iter().zip(inst.class_times(i)) {
            new_id[j] = b.add_job(i, t);
        }
    }
    (b.build().expect("same model"), new_id)
}

#[test]
fn class_major_table_tiles_the_jobs_on_every_family() {
    for (name, inst) in families() {
        let (ids, times) = inst.class_major();
        assert_eq!((ids.len(), times.len()), (inst.num_jobs(), inst.num_jobs()));
        let mut end = 0;
        for i in 0..inst.num_classes() {
            let span = inst.class_span(i);
            assert_eq!(
                span.start, end,
                "{name}: class {i} does not follow class {i} - 1"
            );
            end = span.end;
            let (jobs, class_times) = (inst.class_jobs(i), inst.class_times(i));
            assert_eq!((jobs, class_times), (&ids[span.clone()], &times[span]));
            assert!(
                jobs.windows(2).all(|w| w[0] < w[1]),
                "{name}: class {i} ids"
            );
            for (&j, &t) in jobs.iter().zip(class_times) {
                assert_eq!(inst.job(j), Job { class: i, time: t }, "{name}: job {j}");
            }
            assert_eq!(
                inst.class_proc(i),
                class_times.iter().sum::<u64>(),
                "{name}"
            );
            assert_eq!(
                inst.class_tmax(i),
                *class_times.iter().max().unwrap(),
                "{name}"
            );
        }
        assert_eq!(end, inst.num_jobs(), "{name}: spans do not cover the jobs");
    }
}

#[test]
fn solvers_ignore_how_job_ids_interleave_across_classes() {
    let mut relabeled_any = false;
    for (name, inst) in families() {
        let (grouped, new_id) = class_by_class(&inst);
        relabeled_any |= grouped.jobs() != inst.jobs();
        for variant in Variant::ALL {
            for algo in ALGOS {
                let label = format!("{name}/{variant}/{algo:?}");
                let (a, b) = (solve(&inst, variant, algo), solve(&grouped, variant, algo));
                assert_eq!(a.makespan, b.makespan, "{label}: makespan");
                assert_eq!(a.accepted, b.accepted, "{label}: accepted");
                assert_eq!(a.ratio_bound, b.ratio_bound, "{label}: ratio_bound");
                assert_eq!(a.certificate, b.certificate, "{label}: certificate");
                assert_eq!(a.probes, b.probes, "{label}: probes");
                assert_eq!(a.completion, b.completion, "{label}: completion");
                let mapped: Vec<Placement> = a
                    .schedule()
                    .placements()
                    .iter()
                    .map(|p| match p.kind {
                        ItemKind::Piece { job, class } => Placement {
                            kind: ItemKind::Piece {
                                job: new_id[job],
                                class,
                            },
                            ..*p
                        },
                        ItemKind::Setup(_) => *p,
                    })
                    .collect();
                assert_eq!(mapped, b.schedule().placements(), "{label}: placements");
            }
        }
    }
    assert!(relabeled_any, "no family interleaves its classes");
}
