//! Criterion studies of the many-core solve engine.
//!
//! Groups:
//! * `par_epsilon_search` — one ε-search-dominated solve at thread counts
//!   {1, 2, 4, 8} through `solve_problem` with `SolveOptions::threads`;
//!   bit-identical answers, so any delta is pure wall-clock.
//! * `par_batch` — `SolvePool::solve_batch` throughput over a 64-instance
//!   batch at the same thread counts (warm per-worker workspaces).
//! * `par_reduce` — the streamed `from_instance` embedding at `c = 2500`
//!   (the former 74 ms / 50 MB hotspot, now `O(c)`).
//!
//! Wall-clock speedups require physical cores; on a single-core runner the
//! numbers collapse to ≈1×. The *deterministic* critical-path model —
//! committed bisection levels per speculative round, reported by
//! `SearchStats` and printed by this binary — is machine-independent:
//! `probes / rounds` is the parallel search's model speedup, which the
//! multi-core section of `results/BASELINES.md` records alongside honest
//! measured walls.

use criterion::{black_box, criterion_group, BenchmarkId, Criterion};

use bss_core::{solve_problem, Algorithm, BssProblem, DualWorkspace, Problem, SolveOptions};
use bss_instance::Variant;
use bss_par::SolvePool;
use bss_seqdep::reduce;

const THREADS: [usize; 4] = [1, 2, 4, 8];

fn par_epsilon_search(c: &mut Criterion) {
    // Non-preemptive: its T_min is genuinely rejected here, so the ε-search
    // runs a full ~eps_log2-probe ladder (preemptive/splittable duals accept
    // these uniform instances at T_min outright — no ladder to parallelize).
    let inst = bss_gen::uniform(50_000, 2_500, 32, 1);
    let algo = Algorithm::EpsilonSearch { eps_log2: 10 };
    let problem = BssProblem::new(&inst, Variant::NonPreemptive);
    let mut ws = DualWorkspace::new();
    let mut g = c.benchmark_group("par_epsilon_search");
    g.sample_size(10);
    for threads in THREADS {
        g.bench_with_input(
            BenchmarkId::new("uniform_50k_eps10", threads),
            &threads,
            |b, &threads| {
                let opts = SolveOptions {
                    threads,
                    ..SolveOptions::default()
                };
                b.iter(|| black_box(solve_problem(&mut ws, &problem, algo, &opts)))
            },
        );
    }
    g.finish();

    // The machine-independent accounting: committed levels per round, on
    // Theorem 8's integer ladder (the problem's direct search).
    for threads in THREADS {
        let mut ws = DualWorkspace::new();
        let opts = SolveOptions {
            threads,
            ..SolveOptions::default()
        };
        let d = problem.direct_search(&mut ws, &opts);
        let (probes, stats) = (d.probes, d.stats);
        // threads=1 is the sequential search (no rounds); its model speedup
        // is 1x by definition.
        let model = if threads <= 1 {
            1.0
        } else {
            probes as f64 / stats.rounds.max(1) as f64
        };
        eprintln!(
            "par_direct_search: threads={threads} probes={probes} rounds={} \
             speculated={} inline={} model-speedup={model:.2}x",
            stats.rounds, stats.speculated, stats.inline,
        );
    }
}

fn par_batch(c: &mut Criterion) {
    let batch: Vec<_> = (0..64)
        .map(|seed| bss_gen::uniform(2_000, 120, 16, seed))
        .collect();
    let mut g = c.benchmark_group("par_batch");
    g.sample_size(10);
    for threads in THREADS {
        let mut pool = SolvePool::with_threads(threads);
        g.bench_with_input(
            BenchmarkId::new("solve_batch_64x2k", threads),
            &threads,
            |b, _| {
                b.iter(|| {
                    black_box(pool.solve_batch(&batch, Variant::Preemptive, Algorithm::ThreeHalves))
                })
            },
        );
    }
    g.finish();
}

fn par_reduce(c: &mut Criterion) {
    let bss = bss_gen::uniform(50_000, 2_500, 32, 1);
    let mut g = c.benchmark_group("par_reduce");
    g.bench_function("from_instance_streamed_2500c", |b| {
        b.iter(|| black_box(reduce::from_instance(black_box(&bss))))
    });
    g.finish();
}

criterion_group!(benches, par_epsilon_search, par_batch, par_reduce);

fn main() {
    // Measured multi-thread walls are meaningless without real cores; the
    // model speedups printed above stay valid either way. See the PR 8
    // section of `results/BASELINES.md`, whose 1-CPU-runner walls are
    // model-only for exactly this reason.
    if std::thread::available_parallelism().map_or(1, |n| n.get()) == 1 {
        eprintln!(
            "warning: available_parallelism() == 1 — multi-thread wall-clock numbers \
             below measure oversubscription, not speedup; trust only the \
             machine-independent model-speedup lines"
        );
    }
    benches();
}
