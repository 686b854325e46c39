//! Criterion studies of batched solving.
//!
//! Groups:
//! * `par_batch` — `SolvePool::solve_batch` throughput over a 64-instance
//!   batch at thread counts {1, 2, 4, 8} (warm per-worker workspaces).
//! * `par_reduce` — the streamed `from_instance` embedding at `c = 2500`
//!   (the former 74 ms / 50 MB hotspot, now `O(c)`).
//!
//! Wall-clock speedups require physical cores; on a single-core runner the
//! batch numbers collapse to ≈1×.

use criterion::{black_box, criterion_group, BenchmarkId, Criterion};

use bss_core::Algorithm;
use bss_instance::Variant;
use bss_par::SolvePool;
use bss_seqdep::reduce;

const THREADS: [usize; 4] = [1, 2, 4, 8];

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

criterion_group!(benches, par_batch, par_reduce);

fn main() {
    // Measured multi-thread walls are meaningless without real cores.
    if std::thread::available_parallelism().map_or(1, |n| n.get()) == 1 {
        eprintln!(
            "warning: available_parallelism() == 1 — multi-thread wall-clock numbers \
             below measure oversubscription, not speedup"
        );
    }
    benches();
}
