//! Batched multi-instance solving on a per-core workspace pool.
//!
//! Each solve runs its probe ladder on one thread; this crate parallelizes
//! *across* solves. A [`SolvePool`] owns one long-lived [`DualWorkspace`]
//! per worker, so a batch of instances — a sweep, a replay — is solved with
//! warm buffers and zero per-item allocation churn: worker `i` always
//! probes on workspace `i` (workspace affinity), and the pool outlives any
//! number of batches.
//!
//! Scheduling is [`bss_report::parallel_map_with`]'s chunked work-stealing
//! loop with the pool's workspaces as the per-worker states: items are
//! pre-split into contiguous chunks (several per worker, so expensive
//! instances still balance) claimed through one atomic cursor, and tiny
//! batches never spawn more threads than items.
//!
//! Guarantees:
//!
//! * **Bit-identity** — each item's result is exactly what
//!   [`bss_core::solve_problem`] returns for it under the item's budget, at
//!   every thread count. Parallelism buys throughput, never different answers.
//! * **Per-item isolation** — a panicking solve (a bug, an overflow, an
//!   injected chaos fault) comes back as that item's typed
//!   [`SolveError`]; its workspace is reset and the rest of the batch is
//!   unaffected.
//! * **Cooperative budgets** — [`SolvePool::solve_batch_budgeted`] polls the
//!   shared [`SolveBudget`] before every item; once it trips, remaining
//!   items are skipped (`None`) and the interrupt is reported, while
//!   finished items keep their results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use bss_budget::{Interrupt, SolveBudget};
use bss_core::{
    solve_problem, Algorithm, BssProblem, DualWorkspace, Solution, SolveError, SolveOptions,
};
use bss_instance::{Instance, Variant};
use bss_report::{chunk_plan, parallel_map_with};

/// The outcome of [`SolvePool::solve_batch_budgeted`]: one slot per input
/// item, in input order.
///
/// `None` marks an item skipped because the budget had already tripped when
/// its turn came; `Some(Err(_))` an item whose solve panicked (isolated);
/// `Some(Ok(_))` a solved item — possibly [degraded], when the budget
/// expired *mid*-solve rather than between items.
///
/// [degraded]: bss_core::Completion::Degraded
#[derive(Debug)]
pub struct BatchOutcome {
    /// Per-item results, in input order.
    pub results: Vec<Option<Result<Solution, SolveError>>>,
    /// The first interrupt that stopped the batch, if any.
    pub interrupt: Option<Interrupt>,
}

/// A pool of per-worker [`DualWorkspace`]s for batched solving.
///
/// Workspaces are created lazily (a pool sized for 8 threads that only ever
/// sees 3-item batches allocates 3 workspaces) and kept warm across batches:
/// the buffers grown by one batch's largest instance are reused by the next.
#[derive(Debug)]
pub struct SolvePool {
    workspaces: Vec<DualWorkspace>,
    threads: usize,
}

impl SolvePool {
    /// A pool sized to the machine's available parallelism.
    #[must_use]
    pub fn new() -> Self {
        let threads = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        Self::with_threads(threads)
    }

    /// A pool with an explicit worker count (`1` solves batches
    /// sequentially, on one warm workspace).
    ///
    /// # Panics
    /// If `threads == 0`.
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        assert!(threads > 0, "a solve pool needs at least one worker");
        SolvePool {
            workspaces: Vec::new(),
            threads,
        }
    }

    /// The pool's worker-thread budget (an upper bound; tiny batches use
    /// fewer — see [`chunk_plan`]).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Solves every instance under an unlimited budget.
    ///
    /// Per item, the result is bit-identical to [`bss_core::solve_problem`]
    /// (and hence, on `Ok`, to [`bss_core::solve_with`]) at every thread
    /// count. A panicking item
    /// comes back as its own `Err` without disturbing its neighbours.
    pub fn solve_batch(
        &mut self,
        insts: &[Instance],
        variant: Variant,
        algo: Algorithm,
    ) -> Vec<Result<Solution, SolveError>> {
        let out = self.solve_batch_budgeted(insts, variant, algo, &SolveBudget::unlimited());
        debug_assert!(out.interrupt.is_none(), "unlimited budget never interrupts");
        out.results
            .into_iter()
            .map(|r| r.expect("unlimited budget processes every item"))
            .collect()
    }

    /// [`SolvePool::solve_batch`] under a cooperative [`SolveBudget`]
    /// shared by the whole batch.
    ///
    /// The budget is polled before every item; once it trips, the remaining
    /// items are skipped (`None`) and the first interrupt is reported in
    /// [`BatchOutcome::interrupt`]. An item *in flight* when the budget
    /// expires degrades gracefully instead (its solution is returned with
    /// the appropriate [`Completion`](bss_core::Completion)), exactly as a
    /// standalone [`solve_problem`] would.
    pub fn solve_batch_budgeted(
        &mut self,
        insts: &[Instance],
        variant: Variant,
        algo: Algorithm,
        budget: &SolveBudget,
    ) -> BatchOutcome {
        let (results, interrupt) = parallel_map_with(
            self.workspaces_for(insts.len()),
            insts.iter().collect(),
            budget,
            |ws, inst| solve_one(ws, inst, variant, algo, Some(budget)),
        );
        BatchOutcome { results, interrupt }
    }

    /// Solves a *heterogeneous* batch — per-item variant, algorithm and
    /// (optional) budget — on the same warm per-worker workspaces. Items
    /// without a budget run unlimited. Per item the result is bit-identical
    /// to a standalone [`bss_core::solve_problem`] under the same budget, at
    /// every thread count, and a panicking item is isolated exactly as in
    /// [`SolvePool::solve_batch`].
    ///
    /// Unlike [`SolvePool::solve_batch_budgeted`] there is no batch-wide
    /// interrupt: every item is always attempted.
    pub fn solve_items(&mut self, items: &[SolveItem<'_>]) -> Vec<Result<Solution, SolveError>> {
        let (results, _) = parallel_map_with(
            self.workspaces_for(items.len()),
            items.iter().collect(),
            &SolveBudget::unlimited(),
            |ws, item| solve_one(ws, item.instance, item.variant, item.algo, item.budget),
        );
        results
            .into_iter()
            .map(|r| r.expect("an unlimited budget attempts every item"))
            .collect()
    }

    /// The workspaces of an `n`-item batch, one per worker of
    /// [`chunk_plan`]`(n, threads)` (worker `i` always gets workspace `i`),
    /// grown lazily.
    fn workspaces_for(&mut self, n: usize) -> &mut [DualWorkspace] {
        let workers = if n == 0 {
            0
        } else {
            chunk_plan(n, self.threads).workers
        };
        if self.workspaces.len() < workers {
            self.workspaces.resize_with(workers, DualWorkspace::new);
        }
        &mut self.workspaces[..workers]
    }
}

/// One batch-setup solve on a worker's workspace (`None` = unlimited).
/// Panics are isolated one level down (`solve_problem` catches, resets `ws`
/// and returns `Err`), so a failing item never takes its worker out.
fn solve_one(
    ws: &mut DualWorkspace,
    inst: &Instance,
    variant: Variant,
    algo: Algorithm,
    budget: Option<&SolveBudget>,
) -> Result<Solution, SolveError> {
    let opts = SolveOptions {
        budget,
        ..SolveOptions::default()
    };
    solve_problem(ws, &BssProblem::new(inst, variant), algo, &opts)
}

/// One item of a heterogeneous [`SolvePool::solve_items`] batch.
#[derive(Debug, Clone, Copy)]
pub struct SolveItem<'a> {
    /// The instance to solve.
    pub instance: &'a Instance,
    /// The problem variant.
    pub variant: Variant,
    /// The algorithm to run.
    pub algo: Algorithm,
    /// This item's own budget (`None` = unlimited). Deadlines stay honest
    /// per request even when many requests share one pool batch.
    pub budget: Option<&'a SolveBudget>,
}

impl Default for SolvePool {
    fn default() -> Self {
        SolvePool::new()
    }
}

#[cfg(test)]
mod tests {
    use bss_budget::CancelToken;
    use bss_chaos::assert_bit_identical;

    use super::*;

    const ALGOS: [Algorithm; 3] = [
        Algorithm::EpsilonSearch { eps_log2: 6 },
        Algorithm::ThreeHalves,
        Algorithm::Portfolio,
    ];

    fn batch(seeds: std::ops::Range<u64>) -> Vec<Instance> {
        seeds
            .map(|s| bss_gen::uniform(40 + (s as usize % 13), 6, 3, s))
            .collect()
    }

    #[test]
    fn batch_matches_sequential_solves_at_every_thread_count() {
        let insts = batch(0..9);
        for variant in Variant::ALL {
            for algo in ALGOS {
                let mut ws = DualWorkspace::new();
                let reference: Vec<Solution> = insts
                    .iter()
                    .map(|i| bss_core::solve_with(&mut ws, i, variant, algo))
                    .collect();
                for threads in [1, 2, 4, 8] {
                    let mut pool = SolvePool::with_threads(threads);
                    let got = pool.solve_batch(&insts, variant, algo);
                    assert_eq!(got.len(), reference.len());
                    for (i, (g, want)) in got.iter().zip(&reference).enumerate() {
                        let g = g.as_ref().expect("no panics in this batch");
                        assert_bit_identical(
                            &format!("{variant} {algo:?} t={threads} item {i}"),
                            g,
                            want,
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn pool_reuses_workspaces_across_batches() {
        let insts = batch(0..6);
        let mut pool = SolvePool::with_threads(3);
        let first = pool.solve_batch(&insts, Variant::Preemptive, Algorithm::ThreeHalves);
        let second = pool.solve_batch(&insts, Variant::Preemptive, Algorithm::ThreeHalves);
        for (a, b) in first.iter().zip(&second) {
            assert_bit_identical(
                "warm vs cold batch",
                a.as_ref().expect("ok"),
                b.as_ref().expect("ok"),
            );
        }
        // Lazily grown: 6 items on 3 threads needs exactly 3 workspaces.
        assert_eq!(pool.workspaces.len(), 3);
    }

    #[test]
    fn tiny_batch_spawns_at_most_one_workspace_per_item() {
        let insts = batch(0..2);
        let mut pool = SolvePool::with_threads(16);
        let got = pool.solve_batch(&insts, Variant::Splittable, Algorithm::TwoApprox);
        assert_eq!(got.len(), 2);
        assert!(
            pool.workspaces.len() <= 2,
            "2 items grew {} workspaces",
            pool.workspaces.len()
        );
    }

    #[test]
    fn empty_batch() {
        let mut pool = SolvePool::with_threads(4);
        let got = pool.solve_batch(&[], Variant::Preemptive, Algorithm::Portfolio);
        assert!(got.is_empty());
        assert!(pool.workspaces.is_empty());
    }

    #[test]
    fn cancellation_skips_the_tail_and_keeps_finished_items() {
        let insts = batch(0..32);
        let token = CancelToken::new();
        let budget = SolveBudget::unlimited().with_cancel(&token);
        token.cancel();
        let mut pool = SolvePool::with_threads(4);
        let out =
            pool.solve_batch_budgeted(&insts, Variant::Preemptive, Algorithm::ThreeHalves, &budget);
        assert_eq!(out.interrupt, Some(Interrupt::Cancelled));
        assert_eq!(out.results.len(), 32);
        assert!(out.results.iter().all(Option::is_none));
    }

    #[test]
    fn mid_batch_cancellation_reports_the_interrupt() {
        let insts = batch(0..24);
        let token = CancelToken::new();
        let budget = SolveBudget::unlimited().with_cancel(&token);
        let mut pool = SolvePool::with_threads(4);
        // Cancel from a side thread while the batch runs; regardless of
        // where it lands, every slot is either a full solved item or a
        // skipped `None`, and the interrupt is reported.
        let out = std::thread::scope(|s| {
            s.spawn(|| token.cancel());
            pool.solve_batch_budgeted(&insts, Variant::Preemptive, Algorithm::Portfolio, &budget)
        });
        assert_eq!(out.results.len(), 24);
        if out.results.iter().any(Option::is_none) {
            assert_eq!(out.interrupt, Some(Interrupt::Cancelled));
        }
        let mut ws = DualWorkspace::new();
        for (i, r) in out.results.iter().enumerate() {
            if let Some(Ok(sol)) = r {
                if sol.completion.is_full() {
                    let want = bss_core::solve_with(
                        &mut ws,
                        &insts[i],
                        Variant::Preemptive,
                        Algorithm::Portfolio,
                    );
                    assert_bit_identical(&format!("cancelled batch item {i}"), sol, &want);
                }
            }
        }
    }

    #[test]
    fn injected_panic_is_isolated_to_its_item() {
        use bss_budget::{Fault, FaultPlan};
        let insts = batch(0..8);
        // The fault fires at one global checkpoint index; whichever item's
        // solve reaches it panics, is caught, and comes back as a typed
        // error — the rest of the batch is untouched. threads=1 makes the
        // hit deterministic (the first item); more threads still must
        // isolate it.
        for threads in [1, 4] {
            let budget = SolveBudget::unlimited().with_fault(FaultPlan {
                at: 3,
                fault: Fault::Panic,
            });
            let mut pool = SolvePool::with_threads(threads);
            let out = pool.solve_batch_budgeted(
                &insts,
                Variant::Preemptive,
                Algorithm::EpsilonSearch { eps_log2: 6 },
                &budget,
            );
            assert_eq!(out.interrupt, None, "a panic is not an interrupt");
            let errs = out
                .results
                .iter()
                .filter(|r| matches!(r, Some(Err(_))))
                .count();
            assert_eq!(errs, 1, "exactly one item absorbs the fault");
            assert!(
                out.results
                    .iter()
                    .all(|r| matches!(r, Some(Ok(_)) | Some(Err(_)))),
                "no item is skipped by a neighbour's panic"
            );
            // The surviving items are bit-identical to standalone solves:
            // the panicking item reset its workspace before reuse.
            let mut ws = DualWorkspace::new();
            for (i, r) in out.results.iter().enumerate() {
                if let Some(Ok(sol)) = r {
                    let want = bss_core::solve_with(
                        &mut ws,
                        &insts[i],
                        Variant::Preemptive,
                        Algorithm::EpsilonSearch { eps_log2: 6 },
                    );
                    assert_bit_identical(&format!("t={threads} survivor {i}"), sol, &want);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_is_rejected() {
        let _ = SolvePool::with_threads(0);
    }

    #[test]
    fn heterogeneous_items_match_standalone_solves() {
        let insts = batch(0..6);
        // A mixed service queue: every (instance, variant, algo) cell
        // different from its neighbours.
        let items: Vec<SolveItem<'_>> = insts
            .iter()
            .enumerate()
            .map(|(i, inst)| SolveItem {
                instance: inst,
                variant: Variant::ALL[i % 3],
                algo: ALGOS[i % ALGOS.len()],
                budget: None,
            })
            .collect();
        let mut ws = DualWorkspace::new();
        let reference: Vec<Solution> = items
            .iter()
            .map(|it| bss_core::solve_with(&mut ws, it.instance, it.variant, it.algo))
            .collect();
        for threads in [1, 2, 4, 8] {
            let mut pool = SolvePool::with_threads(threads);
            let got = pool.solve_items(&items);
            assert_eq!(got.len(), reference.len());
            for (i, (g, want)) in got.iter().zip(&reference).enumerate() {
                assert_bit_identical(
                    &format!("items t={threads} item {i}"),
                    g.as_ref().expect("no panics here"),
                    want,
                );
            }
        }
    }

    #[test]
    fn per_item_budgets_are_independent() {
        let insts = batch(0..4);
        // Item 1 gets a starved budget; its neighbours run unlimited and
        // must come back Full and bit-identical to standalone solves.
        let starved = SolveBudget::unlimited().with_work_limit(0);
        let items: Vec<SolveItem<'_>> = insts
            .iter()
            .enumerate()
            .map(|(i, inst)| SolveItem {
                instance: inst,
                variant: Variant::NonPreemptive,
                algo: Algorithm::EpsilonSearch { eps_log2: 8 },
                budget: (i == 1).then_some(&starved),
            })
            .collect();
        for threads in [1, 4] {
            let mut pool = SolvePool::with_threads(threads);
            let got = pool.solve_items(&items);
            let mut ws = DualWorkspace::new();
            for (i, g) in got.iter().enumerate() {
                let sol = g.as_ref().expect("starvation degrades, never errors");
                if i == 1 {
                    assert!(
                        !sol.completion.is_full(),
                        "t={threads}: the starved item must degrade"
                    );
                } else {
                    let want = bss_core::solve_with(
                        &mut ws,
                        &insts[i],
                        Variant::NonPreemptive,
                        Algorithm::EpsilonSearch { eps_log2: 8 },
                    );
                    assert_bit_identical(&format!("t={threads} unbudgeted item {i}"), sol, &want);
                }
            }
        }
    }

    #[test]
    fn empty_items_batch() {
        let mut pool = SolvePool::with_threads(4);
        assert!(pool.solve_items(&[]).is_empty());
        assert!(pool.workspaces.is_empty());
    }
}
