//! Warm-start vs cold re-solve after a one-job delta (experiment O1).
//!
//! The online story's core claim: after a small change to a large
//! instance, re-solving from the previous solve's dual bracket costs a
//! fraction of the cold epsilon-search. The study pins the
//! `uniform_50k_eps10` configuration of `results/BASELINES.md`
//! (non-preemptive, ε = 2⁻¹⁰, a 12-probe cold ladder): the preemptive and
//! splittable duals accept these uniform instances at `T_min` outright
//! (1 probe — nothing to warm). Two functions:
//!
//! * `cold` — `solve` of the post-delta state from scratch;
//! * `warm` — `solve_warm` seeded from the pre-delta solution's bracket,
//!   widened by the delta's load shift.
//!
//! Setup also prints the probe counts of one warm and one cold solve (the
//! numbers quoted in `results/BASELINES.md`) and asserts the two answers
//! are bit-identical in every certified field.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use bss_core::{solve, solve_warm, Algorithm, WarmStart};
use bss_instance::{Delta, IncrementalInstance, Variant};

fn online_resolve(c: &mut Criterion) {
    let base = bss_gen::uniform(50_000, 2_500, 32, 1);
    let variant = Variant::NonPreemptive;
    let algo = Algorithm::EpsilonSearch { eps_log2: 10 };

    let seed = solve(&base, variant, algo);
    let mut inc = IncrementalInstance::new(&base);
    let base_load = u128::from(inc.total_load_once());
    // time = 40: keeps T_min genuinely rejected post-delta (a 17-unit job
    // happens to land T_min on an integer the dual accepts outright,
    // collapsing the cold ladder to 1 probe — no ladder, nothing to warm).
    inc.apply(Delta::AddJob { class: 0, time: 40 })
        .expect("class 0 exists");
    let next = inc.materialize();
    let hint = WarmStart::of(&seed).widen_by_load_shift(
        base_load,
        u128::from(inc.total_load_once()),
        next.machines(),
    );

    let cold = solve(&next, variant, algo);
    let (warm, stats) = solve_warm(&next, variant, algo, &hint);
    assert_eq!(warm.probes, cold.probes);
    assert_eq!(warm.makespan, cold.makespan);
    assert_eq!(warm.certificate, cold.certificate);
    eprintln!(
        "online_resolve/uniform_50k_eps10: cold {} probes, warm {} ({} memo-skipped)",
        cold.probes, stats.probes, stats.skipped
    );

    let mut g = c.benchmark_group("online_resolve/uniform_50k_eps10");
    g.sample_size(10);
    g.bench_function("cold", |b| {
        b.iter(|| black_box(solve(black_box(&next), variant, algo)))
    });
    g.bench_function("warm", |b| {
        b.iter(|| {
            black_box(solve_warm(
                black_box(&next),
                variant,
                algo,
                black_box(&hint),
            ))
        })
    });
    g.finish();
}

criterion_group!(benches, online_resolve);
criterion_main!(benches);
