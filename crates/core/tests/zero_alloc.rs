//! Counting-allocator proof that the dual-probe hot path — and, since the
//! compact-first pipeline, the dual *build* path — is allocation-free once a
//! [`DualWorkspace`] is warmed up.
//!
//! The whole check lives in a single `#[test]`, and the counter is
//! *thread-local*: only allocations made by the measuring thread count.
//! A process-wide counter would race against libtest's main thread, which
//! lazily allocates its mpsc parking context the first time it blocks
//! waiting for a test result — at a nondeterministic point that can land
//! inside the measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bss_core::{nonpreemptive, preemptive, splittable, Algorithm, DualWorkspace, Trace};
use bss_instance::{Instance, LowerBounds, Variant};
use bss_rational::Rational;
use bss_schedule::{CompactSchedule, Schedule};

struct CountingAllocator;

thread_local! {
    // `const` initialisation gives the slot a plain TLS block entry: reading
    // or writing it never allocates, so the hooks below cannot recurse into
    // themselves. `Cell<u64>` has no destructor, so no TLS dtor is
    // registered either.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with` instead of `with`: allocations during thread teardown (after
    // TLS destruction) must pass through uncounted, not panic the allocator.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations made by *this thread* since it started.
fn allocations() -> u64 {
    ALLOCATIONS.with(|count| count.get())
}

/// Probe guesses spanning accepted and rejected outcomes (and, in the
/// preemptive case, both knapsack branches) for one instance.
fn guesses(inst: &Instance, variant: Variant) -> Vec<Rational> {
    let t_min = LowerBounds::of(inst).tmin(variant);
    (10..=40)
        .step_by(3)
        .map(|k| t_min * Rational::new(k, 20))
        .collect()
}

#[test]
fn dual_probes_allocate_nothing_after_warmup() {
    let inst = bss_gen::uniform(2_000, 120, 16, 3);
    let mut ws = DualWorkspace::new();

    let split_ts = guesses(&inst, Variant::Splittable);
    let pmtn_ts = guesses(&inst, Variant::Preemptive);
    let nonp_t = LowerBounds::of(&inst).tmin(Variant::NonPreemptive).ceil() as u64;

    // Warm-up: one pass over every probe shape grows the workspace to its
    // steady-state capacities.
    for &t in &split_ts {
        let _ = splittable::accepts_in(&mut ws, &inst, t);
    }
    for &t in &pmtn_ts {
        let _ = preemptive::accepts_in(&mut ws, &inst, t, preemptive::CountMode::AlphaPrime);
        let _ = preemptive::accepts_in(&mut ws, &inst, t, preemptive::CountMode::Gamma);
    }

    // Measured phase: identical probes, many rounds — the acceptance
    // criterion is zero heap allocations.
    let before = allocations();
    let mut accepted = 0usize;
    for _ in 0..5 {
        for &t in &split_ts {
            accepted += usize::from(splittable::accepts_in(&mut ws, &inst, t));
        }
        for &t in &pmtn_ts {
            accepted += usize::from(preemptive::accepts_in(
                &mut ws,
                &inst,
                t,
                preemptive::CountMode::AlphaPrime,
            ));
            accepted += usize::from(preemptive::accepts_in(
                &mut ws,
                &inst,
                t,
                preemptive::CountMode::Gamma,
            ));
        }
        // The non-preemptive test is integer-only and has always been
        // allocation-free; keep it under the same counter to prove it.
        for dt in 0..8 {
            accepted += usize::from(nonpreemptive::accepts(&inst, nonp_t + dt * nonp_t / 4));
        }
    }
    let after = allocations();

    assert!(accepted > 0, "sweep must accept at least one guess");
    assert_eq!(
        after - before,
        0,
        "dual-probe hot path allocated {} times after warm-up",
        after - before
    );

    warm_builds_allocate_only_output(&inst, &mut ws);
    warm_solves_allocate_only_output(&inst, &mut ws);
    warm_seqdep_solves_allocate_only_output(&mut ws);
}

/// The *build* path: with the workspace warm and the output buffers
/// recycled, `dual_into` performs **zero** heap allocations for the
/// explicit-schedule variants, and only per-group output storage for the
/// compact splittable builder.
fn warm_builds_allocate_only_output(inst: &Instance, ws: &mut DualWorkspace) {
    let split_t = LowerBounds::of(inst).tmin(Variant::Splittable) * 2u64;
    let pmtn_t = LowerBounds::of(inst).tmin(Variant::Preemptive) * 2u64;
    let nonp_t = 2 * LowerBounds::of(inst).tmin(Variant::NonPreemptive).ceil() as u64;
    let mut trace = Trace::disabled();

    // Warm-up: grow the workspace and the reused outputs to steady state.
    let mut schedule_out = Schedule::new(inst.machines());
    let mut compact_out = CompactSchedule::new(inst.machines());
    assert!(preemptive::dual_into(
        ws,
        inst,
        pmtn_t,
        preemptive::CountMode::AlphaPrime,
        &mut trace,
        &mut schedule_out,
    )
    .is_some());
    let mut nonp_out = Schedule::new(inst.machines());
    assert!(nonpreemptive::dual_into(ws, inst, nonp_t, &mut trace, &mut nonp_out).is_some());
    assert!(splittable::dual_into(ws, inst, split_t, &mut trace, &mut compact_out).is_some());

    // Preemptive warm build: zero allocations.
    let before = allocations();
    assert!(preemptive::dual_into(
        ws,
        inst,
        pmtn_t,
        preemptive::CountMode::AlphaPrime,
        &mut trace,
        &mut schedule_out,
    )
    .is_some());
    let delta = allocations() - before;
    assert_eq!(delta, 0, "warm preemptive build allocated {delta} times");

    // Non-preemptive warm build: zero allocations (partitions, stacks,
    // queues and repair maps all live in the workspace).
    let before = allocations();
    assert!(nonpreemptive::dual_into(ws, inst, nonp_t, &mut trace, &mut nonp_out).is_some());
    let delta = allocations() - before;
    assert_eq!(
        delta, 0,
        "warm non-preemptive build allocated {delta} times"
    );

    // Splittable warm build: the compact output's per-group item vectors are
    // the only allocations (genuine output storage; the group list itself is
    // recycled).
    let before = allocations();
    assert!(splittable::dual_into(ws, inst, split_t, &mut trace, &mut compact_out).is_some());
    let delta = allocations() - before;
    // Groups are built in place inside the output: each group costs its item
    // vector's doubling growth (≤ stored items) plus at most one push — all
    // of it output storage.
    let output_bound = compact_out.groups().len() as u64 + compact_out.stored_items() as u64;
    assert!(
        delta <= output_bound,
        "warm splittable build allocated {delta} times (output bound {output_bound})"
    );
}

/// The sequence-dependent surface obeys the same discipline: with the
/// problem constructed once (so the uniform-reduction detection is not
/// re-paid) and the workspace's seqdep scratch warm, a full solve — probes,
/// build, `Solution` assembly — allocates only the output schedule's own
/// storage plus the same small scaffolding budget as the batch-setup paths.
fn warm_seqdep_solves_allocate_only_output(ws: &mut DualWorkspace) {
    use bss_core::{solve_problem, SeqDepProblem, SolveOptions};

    // General (heuristic-dual) regime: probes and builder run entirely in
    // workspace scratch.
    let general = bss_gen::seqdep::triangle_violating(400, 8, 1);
    let problem = SeqDepProblem::new(&general);
    assert!(problem.uniform_reduction().is_none());
    let _ = solve_problem(
        ws,
        &problem,
        Algorithm::ThreeHalves,
        &SolveOptions::default(),
    )
    .expect("no panics");

    let before = allocations();
    let sol = solve_problem(
        ws,
        &problem,
        Algorithm::ThreeHalves,
        &SolveOptions::default(),
    )
    .expect("no panics");
    let delta = allocations() - before;
    // Output storage: the explicit schedule's placement vector grows by
    // doubling (≤ log2(P) + 1 reallocations) from its fresh `Schedule::new`;
    // the 64-allocation slack covers the Solution scaffolding without
    // leaving room for any O(c²) or O(c) per-solve buffer (c = 400 here).
    assert!(sol.schedule().placements().len() > 400);
    assert!(
        delta <= 64,
        "warm seqdep (general) solve allocated {delta} times"
    );

    // Uniform regime: the solve routes through the batch-setup reduction
    // held inside the problem, running Theorem 8's search on the warm
    // workspace.
    let uniform = bss_gen::seqdep::uniform_setups(400, 8, 2);
    let problem = SeqDepProblem::new(&uniform);
    assert!(problem.uniform_reduction().is_some());
    let _ = solve_problem(
        ws,
        &problem,
        Algorithm::ThreeHalves,
        &SolveOptions::default(),
    )
    .expect("no panics");

    let before = allocations();
    let sol = solve_problem(
        ws,
        &problem,
        Algorithm::ThreeHalves,
        &SolveOptions::default(),
    )
    .expect("no panics");
    let delta = allocations() - before;
    assert!(sol.schedule().placements().len() >= 400);
    assert!(
        delta <= 64,
        "warm seqdep (uniform/reduction) solve allocated {delta} times"
    );
}

/// The full `solve_with` path (search + build): warm allocations are bounded
/// by the output schedule's own storage plus a small constant — no
/// per-probe or per-build `O(n)` buffers survive anywhere in the pipeline.
fn warm_solves_allocate_only_output(inst: &Instance, ws: &mut DualWorkspace) {
    for variant in Variant::ALL {
        // Warm-up solve grows the search scratch to steady state.
        let _ = bss_core::solve_with(ws, inst, variant, Algorithm::ThreeHalves);

        let before = allocations();
        let sol = bss_core::solve_with(ws, inst, variant, Algorithm::ThreeHalves);
        let delta = allocations() - before;
        // Output storage: a compact schedule allocates one item vector per
        // group plus the group list; an explicit schedule grows its
        // placement vector by doubling (≤ log2(P) + 1 reallocations). The
        // slack of 64 covers the search result and `Solution` scaffolding
        // without leaving room for any O(n) per-solve buffer (n = 2000
        // here).
        let output_bound = 64
            + sol
                .compact()
                .map_or(0, |c| (c.groups().len() + c.stored_items()) as u64);
        assert!(
            delta <= output_bound,
            "warm {variant} solve allocated {delta} times (bound {output_bound})"
        );
    }
}
