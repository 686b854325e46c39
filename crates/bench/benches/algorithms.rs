//! Criterion studies of the paper's algorithms (experiments S1–S4, T1).
//!
//! Groups:
//! * `dual_probe`   — one accept/reject test per variant (the search kernel);
//! * `dual_build`   — one full dual build at an accepted guess (`O(n)` claim);
//! * `two_approx`   — the `O(n)` 2-approximations (Theorem 1);
//! * `three_halves` — the complete 3/2 algorithms (Theorems 3, 6, 8);
//! * `n_scaling`    — Class Jumping over geometric `n` (near-linearity).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use bss_core::{
    nonpreemptive, preemptive, solve, solve_with, splittable, two_approx, Algorithm, BssProblem,
    DualWorkspace, Problem, Trace,
};
use bss_instance::{Instance, LowerBounds, Variant};
use bss_rational::Rational;

fn accepted_guess_split(inst: &Instance) -> Rational {
    LowerBounds::of(inst).tmin(Variant::Splittable) * 2u64
}

fn accepted_guess_pmtn(inst: &Instance) -> Rational {
    LowerBounds::of(inst).tmin(Variant::Preemptive) * 2u64
}

fn accepted_guess_nonp(inst: &Instance) -> u64 {
    2 * LowerBounds::of(inst).tmin(Variant::NonPreemptive).ceil() as u64
}

fn dual_probe(c: &mut Criterion) {
    let inst = bss_gen::uniform(50_000, 2_500, 32, 1);
    // One workspace per group, exactly as a search would hold it: after the
    // warm-up iteration every probe is allocation-free.
    let mut ws = DualWorkspace::new();
    let mut g = c.benchmark_group("dual_probe");
    let t = accepted_guess_split(&inst);
    g.bench_function("splittable_O(c)", |b| {
        b.iter(|| black_box(splittable::accepts_in(&mut ws, &inst, black_box(t))))
    });
    let t = accepted_guess_pmtn(&inst);
    g.bench_function("preemptive_O(n)", |b| {
        b.iter(|| {
            black_box(preemptive::accepts_in(
                &mut ws,
                &inst,
                black_box(t),
                preemptive::CountMode::AlphaPrime,
            ))
        })
    });
    let t = accepted_guess_nonp(&inst);
    g.bench_function("nonpreemptive_O(n)", |b| {
        b.iter(|| black_box(nonpreemptive::accepts(&inst, black_box(t))))
    });
    g.finish();
}

fn dual_build(c: &mut Criterion) {
    let inst = bss_gen::uniform(50_000, 2_500, 32, 1);
    let mut ws = DualWorkspace::new();
    let mut g = c.benchmark_group("dual_build");
    g.sample_size(20);
    // One build per iteration into a fresh output, as a search's single
    // build runs: the preemptive problem builds in `AlphaPrime` mode, the
    // non-preemptive one at the integral guess `⌊t⌋`.
    for (name, variant, t) in [
        (
            "splittable",
            Variant::Splittable,
            accepted_guess_split(&inst),
        ),
        (
            "preemptive",
            Variant::Preemptive,
            accepted_guess_pmtn(&inst),
        ),
        (
            "nonpreemptive",
            Variant::NonPreemptive,
            Rational::from(accepted_guess_nonp(&inst)),
        ),
    ] {
        let problem = BssProblem::new(&inst, variant);
        g.bench_function(name, |b| {
            b.iter(|| {
                let built = problem.build(&mut ws, t, &mut Trace::disabled());
                black_box(built.expect("accepted"))
            })
        });
    }
    g.finish();
}

fn two_approx_bench(c: &mut Criterion) {
    let inst = bss_gen::uniform(50_000, 2_500, 32, 1);
    let mut ws = DualWorkspace::new();
    let mut g = c.benchmark_group("two_approx");
    g.sample_size(20);
    g.bench_function("splittable_wrap", |b| {
        b.iter(|| black_box(two_approx::splittable_with_makespan(&mut ws, &inst)))
    });
    g.bench_function("greedy_next_fit", |b| {
        b.iter(|| {
            black_box(two_approx::greedy_with_makespan(
                &inst,
                &mut Trace::disabled(),
            ))
        })
    });
    g.finish();
}

fn three_halves(c: &mut Criterion) {
    let inst = bss_gen::uniform(50_000, 2_500, 32, 1);
    let mut g = c.benchmark_group("three_halves");
    g.sample_size(10);
    for variant in Variant::ALL {
        g.bench_function(variant.name(), |b| {
            b.iter(|| black_box(solve(&inst, variant, Algorithm::ThreeHalves)))
        });
        g.bench_function(format!("{}_eps12", variant.name()), |b| {
            b.iter(|| {
                black_box(solve(
                    &inst,
                    variant,
                    Algorithm::EpsilonSearch { eps_log2: 12 },
                ))
            })
        });
    }
    g.finish();
}

fn n_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("n_scaling_class_jumping");
    g.sample_size(10);
    let mut ws = DualWorkspace::new();
    for k in [12u32, 14, 16] {
        let n = 1usize << k;
        let inst = bss_gen::uniform(n, n / 20, 16, 5);
        for variant in [Variant::Splittable, Variant::Preemptive] {
            g.bench_with_input(BenchmarkId::new(variant.name(), n), &inst, |b, inst| {
                b.iter(|| black_box(solve_with(&mut ws, inst, variant, Algorithm::ThreeHalves)))
            });
        }
    }
    g.finish();
}

criterion_group!(
    benches,
    dual_probe,
    dual_build,
    two_approx_bench,
    three_halves,
    n_scaling
);
criterion_main!(benches);
