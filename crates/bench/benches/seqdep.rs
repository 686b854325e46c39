//! Criterion studies of the sequence-dependent bridge.
//!
//! Groups:
//! * `seqdep_probe`  — one capacity-bounded greedy probe (the search kernel;
//!   `O(c·min(m,c))`, linear in the switch matrix);
//! * `seqdep_solve`  — full solves through the unified surface: the
//!   heuristic dual on general instances and the batch-setup reduction on
//!   uniform ones;
//! * `seqdep_reduce` — the two reduction adapters themselves.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use bss_core::{
    solve_problem, Algorithm, DualWorkspace, Problem, SeqDepProblem, Solution, SolveOptions,
};
use bss_gen::seqdep::{triangle_violating, tsp_path, uniform_setups};
use bss_seqdep::{reduce, SeqDepInstance};

fn seqdep_probe(c: &mut Criterion) {
    let inst = triangle_violating(1_000, 16, 1);
    let mut ws = DualWorkspace::new();
    let problem = SeqDepProblem::new(&inst);
    let t = problem.t_safe();
    let mut g = c.benchmark_group("seqdep_probe");
    g.bench_function("triangle_1000c", |b| {
        b.iter(|| black_box(problem.probe(&mut ws, black_box(t))))
    });
    let tight = problem.t_min();
    g.bench_function("triangle_1000c_tight", |b| {
        b.iter(|| black_box(problem.probe(&mut ws, black_box(tight))))
    });
    g.finish();
}

/// A full solve on a reusable workspace.
fn solve_seqdep_with(ws: &mut DualWorkspace, inst: &SeqDepInstance, algo: Algorithm) -> Solution {
    solve_problem(
        ws,
        &SeqDepProblem::new(inst),
        algo,
        &SolveOptions::default(),
    )
    .expect("no panics")
}

fn seqdep_solve(c: &mut Criterion) {
    let mut ws = DualWorkspace::new();
    let mut g = c.benchmark_group("seqdep_solve");
    g.sample_size(20);
    let triangle = triangle_violating(1_000, 16, 1);
    g.bench_function("triangle_1000c", |b| {
        b.iter(|| {
            black_box(solve_seqdep_with(
                &mut ws,
                &triangle,
                Algorithm::ThreeHalves,
            ))
        })
    });
    let tsp = tsp_path(400, 2);
    g.bench_function("tsp_400c", |b| {
        b.iter(|| black_box(solve_seqdep_with(&mut ws, &tsp, Algorithm::ThreeHalves)))
    });
    // Uniform: routed through the non-preemptive Theorem-8 search on the
    // reduction — the proven-guarantee path.
    let uniform = uniform_setups(1_000, 16, 3);
    g.bench_function("uniform_1000c_via_reduction", |b| {
        b.iter(|| black_box(solve_seqdep_with(&mut ws, &uniform, Algorithm::ThreeHalves)))
    });
    g.finish();
}

fn seqdep_reduce(c: &mut Criterion) {
    let mut g = c.benchmark_group("seqdep_reduce");
    let uniform = uniform_setups(2_000, 16, 5);
    g.bench_function("to_uniform_instance_2000c", |b| {
        b.iter(|| black_box(reduce::to_uniform_instance(black_box(&uniform)).unwrap()))
    });
    let bss = bss_gen::uniform(50_000, 2_500, 32, 1);
    g.bench_function("from_instance_2500c", |b| {
        b.iter(|| black_box(reduce::from_instance(black_box(&bss))))
    });
    // Probe-only sanity anchor: the reduction's solve must stay comparable
    // to a direct non-preemptive solve of the reduced instance.
    let reduced = reduce::to_uniform_instance(&uniform).unwrap();
    let mut ws = DualWorkspace::new();
    g.sample_size(20);
    g.bench_function("reduced_direct_nonpreemptive", |b| {
        b.iter(|| {
            black_box(bss_core::solve_with(
                &mut ws,
                &reduced,
                bss_instance::Variant::NonPreemptive,
                Algorithm::ThreeHalves,
            ))
        })
    });
    g.finish();
}

criterion_group!(benches, seqdep_probe, seqdep_solve, seqdep_reduce);
criterion_main!(benches);
