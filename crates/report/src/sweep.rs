//! Parallel sweep harness for the benchmark binaries.
//!
//! The repro binaries evaluate many `(instance, algorithm)` cells; the cells
//! are independent, so they fan out over `std::thread::scope` workers (the
//! standard fork-join pattern without a global pool). Results come back in
//! input order.
//!
//! Scheduling is chunked work-stealing: the items are pre-split into small
//! contiguous chunks (several per worker, so uneven cell costs still
//! balance) and workers claim chunks through one atomic cursor. Each chunk
//! carries disjoint `&mut` slices of the item and result storage, so inside
//! a chunk there is no synchronization at all — unlike the previous design,
//! which paid a queue lock per item and a mutex per result slot.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use bss_budget::{Interrupt, SolveBudget};

/// How many chunks each worker gets on average; >1 so that a handful of
/// expensive cells cannot serialize the sweep behind one worker.
const CHUNKS_PER_WORKER: usize = 8;

/// Minimum items per chunk before it is worth splitting work across an
/// extra claim of the cursor. Utilization still wins when the input is
/// smaller than the grain would allow: `chunk_plan` shrinks the grain
/// rather than idling workers.
const MIN_GRAIN: usize = 2;

/// A chunked work-stealing layout for `items` units of work on up to
/// `threads` workers, as computed by [`chunk_plan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkPlan {
    /// Number of worker threads to spawn. Always `>= 1` and `<= items`
    /// (when `items > 0`), so tiny inputs never spawn idle threads.
    pub workers: usize,
    /// Items per chunk (the last chunk may be partial). Always `>= 1`.
    pub chunk_len: usize,
    /// Total number of chunks: `ceil(items / chunk_len)`.
    pub chunks: usize,
}

/// Sizes chunks and workers for `items` units of work on up to `threads`
/// workers.
///
/// The base grain is `ceil(items / threads)` split `CHUNKS_PER_WORKER` (8)
/// ways so uneven costs balance, floored at `MIN_GRAIN` (2) so trivial items
/// don't pay a cursor claim each — except when honouring the grain would
/// leave workers idle, in which case the grain shrinks (utilization beats
/// amortization on tiny inputs). Guarantees `workers <= chunks <= items`:
/// a 3-item sweep on a 64-thread box spawns 3 workers, not 64.
///
/// # Panics
/// If `items == 0` or `threads == 0`; callers handle the empty sweep before
/// planning it.
#[must_use]
pub fn chunk_plan(items: usize, threads: usize) -> ChunkPlan {
    assert!(items > 0, "chunk_plan needs work to plan");
    assert!(threads > 0, "chunk_plan needs at least one worker");
    let per_worker = items.div_ceil(threads);
    let fine = items.div_ceil(threads * CHUNKS_PER_WORKER);
    let chunk_len = fine.max(MIN_GRAIN.min(per_worker));
    let chunks = items.div_ceil(chunk_len);
    ChunkPlan {
        workers: threads.min(chunks),
        chunk_len,
        chunks,
    }
}

/// Applies `f` to every item on `threads` worker threads (defaults to the
/// available parallelism), preserving input order.
///
/// `f` must be `Sync` because workers share it.
///
/// # Panics
/// If `f` panics for some item, the panic is re-raised on the calling thread
/// after all workers have drained, prefixed (via stderr) with the index of
/// the failing item — instead of the old behaviour of poisoning a result
/// slot and failing later with a misleading `"every slot filled"` message.
pub fn parallel_map<T, R, F>(items: Vec<T>, threads: Option<usize>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let (results, interrupt) = parallel_map_budgeted(items, threads, &SolveBudget::unlimited(), f);
    debug_assert!(interrupt.is_none(), "unlimited budget never interrupts");
    results
        .into_iter()
        .map(|r| r.expect("all chunks processed"))
        .collect()
}

/// [`parallel_map`] under a cooperative [`SolveBudget`]: the budget is
/// polled before every item, and once it trips (deadline, cancellation,
/// work exhausted by the solves inside `f`) the remaining items are
/// *skipped*, coming back as `None` alongside the interrupt that stopped
/// the sweep. Finished items keep their results — a deadline on a study
/// loses the tail of the grid, not the rows already computed.
///
/// `f` must be `Sync` because workers share it.
///
/// # Panics
/// Same contract as [`parallel_map`]: a panicking item is re-raised on the
/// calling thread after the workers drain.
pub fn parallel_map_budgeted<T, R, F>(
    items: Vec<T>,
    threads: Option<usize>,
    budget: &SolveBudget,
    f: F,
) -> (Vec<Option<R>>, Option<Interrupt>)
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let threads = threads
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(4)
        })
        .max(1);
    parallel_map_with(&mut vec![(); threads], items, budget, |(), item| f(item))
}

/// [`parallel_map_budgeted`] with one mutable state per worker: worker `i`
/// runs every item it claims as `f(&mut states[i], item)`, so a state — a
/// warm solver workspace, say — is reused across that worker's items and
/// never shared. `states.len()` is the worker budget; a small input uses
/// only the first [`chunk_plan`]`(items.len(), states.len()).workers`
/// states, and a single worker runs on the calling thread.
///
/// # Panics
/// If `states` is empty while `items` is not. Otherwise the contract of
/// [`parallel_map`]: a panicking item is re-raised on the calling thread
/// after the workers drain.
pub fn parallel_map_with<S, T, R, F>(
    states: &mut [S],
    items: Vec<T>,
    budget: &SolveBudget,
    f: F,
) -> (Vec<Option<R>>, Option<Interrupt>)
where
    S: Send,
    T: Send,
    R: Send,
    F: Fn(&mut S, T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return (Vec::new(), None);
    }
    let plan = chunk_plan(n, states.len());
    if plan.workers == 1 {
        let state = &mut states[0];
        let mut out = Vec::with_capacity(n);
        let mut interrupt = None;
        for item in items {
            if interrupt.is_none() {
                match budget.poll() {
                    Ok(()) => {
                        out.push(Some(f(state, item)));
                        continue;
                    }
                    Err(i) => interrupt = Some(i),
                }
            }
            out.push(None);
        }
        return (out, interrupt);
    }

    // Striped chunk layout from the shared plan, claimed via one atomic
    // cursor. Items and results travel as disjoint slices, so workers write
    // results without locks; the per-chunk mutex is taken exactly once, to
    // move the slices out.
    let chunk_len = plan.chunk_len;
    let mut item_slots: Vec<Option<T>> = items.into_iter().map(Some).collect();
    let mut result_slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    type Chunk<'a, T, R> = (usize, &'a mut [Option<T>], &'a mut [Option<R>]);
    let chunks: Vec<Mutex<Option<Chunk<'_, T, R>>>> = {
        let mut out = Vec::with_capacity(plan.chunks);
        let mut base = 0usize;
        let mut items_rest = item_slots.as_mut_slice();
        let mut results_rest = result_slots.as_mut_slice();
        while !items_rest.is_empty() {
            let take = chunk_len.min(items_rest.len());
            let (ichunk, irest) = items_rest.split_at_mut(take);
            let (rchunk, rrest) = results_rest.split_at_mut(take);
            out.push(Mutex::new(Some((base, ichunk, rchunk))));
            items_rest = irest;
            results_rest = rrest;
            base += take;
        }
        out
    };
    let cursor = AtomicUsize::new(0);
    let aborted = AtomicBool::new(false);
    // First panic wins: (item index, panic payload).
    let failure: Mutex<Option<(usize, Box<dyn std::any::Any + Send>)>> = Mutex::new(None);
    // First interrupt wins; later items are skipped via `aborted`.
    let interrupted: Mutex<Option<Interrupt>> = Mutex::new(None);

    std::thread::scope(|scope| {
        let (chunks, cursor, aborted) = (&chunks, &cursor, &aborted);
        let (failure, interrupted, f) = (&failure, &interrupted, &f);
        for state in &mut states[..plan.workers] {
            scope.spawn(move || loop {
                if aborted.load(Ordering::Relaxed) {
                    break;
                }
                let chunk_idx = cursor.fetch_add(1, Ordering::Relaxed);
                if chunk_idx >= chunks.len() {
                    break;
                }
                let Some((base, item_chunk, result_chunk)) =
                    chunks[chunk_idx].lock().expect("chunk lock").take()
                else {
                    continue;
                };
                for (off, (slot, result)) in item_chunk
                    .iter_mut()
                    .zip(result_chunk.iter_mut())
                    .enumerate()
                {
                    if let Err(i) = budget.poll() {
                        let mut slot = interrupted.lock().expect("interrupt lock");
                        if slot.is_none() {
                            *slot = Some(i);
                        }
                        aborted.store(true, Ordering::Relaxed);
                        return;
                    }
                    let item = slot.take().expect("chunk items taken once");
                    match catch_unwind(AssertUnwindSafe(|| f(state, item))) {
                        Ok(r) => *result = Some(r),
                        Err(payload) => {
                            let mut slot = failure.lock().expect("failure lock");
                            if slot.is_none() {
                                *slot = Some((base + off, payload));
                            }
                            aborted.store(true, Ordering::Relaxed);
                            return;
                        }
                    }
                }
            });
        }
    });

    if let Some((idx, payload)) = failure.into_inner().expect("failure lock") {
        eprintln!("parallel_map: worker panicked on item {idx}; propagating");
        resume_unwind(payload);
    }
    let interrupt = interrupted.into_inner().expect("interrupt lock");
    (result_slots, interrupt)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let out = parallel_map((0..100).collect(), Some(4), |x: i32| x * x);
        assert_eq!(out, (0..100).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_fallback() {
        let out = parallel_map(vec![1, 2, 3], Some(1), |x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn empty_input() {
        let out: Vec<i32> = parallel_map(Vec::<i32>::new(), None, |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn worker_panic_propagates_with_item_index() {
        let caught = std::panic::catch_unwind(|| {
            parallel_map((0..64).collect(), Some(4), |x: i32| {
                if x == 23 {
                    panic!("bad cell {x}");
                }
                x
            })
        });
        let payload = caught.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .expect("panic payload is the worker's message");
        assert_eq!(msg, "bad cell 23");
    }

    #[test]
    fn single_thread_panic_also_propagates() {
        let caught = std::panic::catch_unwind(|| {
            parallel_map(vec![1, 2, 3], Some(1), |x: i32| {
                if x == 2 {
                    panic!("boom");
                }
                x
            })
        });
        assert!(caught.is_err());
    }

    #[test]
    fn more_items_than_chunks_round_trips() {
        // Exercises multi-chunk claiming with every chunk shape: n chosen so
        // the last chunk is partial.
        let n = 8 * super::CHUNKS_PER_WORKER * 3 + 5;
        let out = parallel_map((0..n as i64).collect(), Some(8), |x| x * 2);
        assert_eq!(out, (0..n as i64).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn budgeted_cancel_skips_remaining_items() {
        let token = bss_budget::CancelToken::new();
        let budget = SolveBudget::unlimited().with_cancel(&token);
        let done = AtomicUsize::new(0);
        let (out, interrupt) =
            parallel_map_budgeted((0..64).collect(), Some(4), &budget, |x: i32| {
                if done.fetch_add(1, Ordering::Relaxed) >= 7 {
                    token.cancel();
                }
                x * x
            });
        assert_eq!(interrupt, Some(Interrupt::Cancelled));
        assert_eq!(out.len(), 64);
        assert!(out.iter().any(Option::is_none), "tail items skipped");
        for (i, r) in out.iter().enumerate() {
            if let Some(v) = r {
                assert_eq!(*v, (i * i) as i32);
            }
        }
    }

    #[test]
    fn budgeted_single_thread_cancel() {
        let token = bss_budget::CancelToken::new();
        let budget = SolveBudget::unlimited().with_cancel(&token);
        let (out, interrupt) =
            parallel_map_budgeted(vec![1, 2, 3, 4], Some(1), &budget, |x: i32| {
                if x == 2 {
                    token.cancel();
                }
                x
            });
        assert_eq!(interrupt, Some(Interrupt::Cancelled));
        assert_eq!(out, vec![Some(1), Some(2), None, None]);
    }

    #[test]
    fn budgeted_unlimited_completes_everything() {
        let (out, interrupt) = parallel_map_budgeted(
            (0..40).collect(),
            Some(4),
            &SolveBudget::unlimited(),
            |x: i32| x + 1,
        );
        assert_eq!(interrupt, None);
        assert!(out.iter().all(Option::is_some));
    }

    #[test]
    fn chunk_plan_never_overspawns_tiny_inputs() {
        for items in 1..=6usize {
            for threads in 1..=64usize {
                let plan = chunk_plan(items, threads);
                assert!(plan.workers >= 1);
                assert!(
                    plan.workers <= items,
                    "{items} items, {threads} threads -> {} workers",
                    plan.workers
                );
                assert!(plan.workers <= threads);
                assert!(plan.workers <= plan.chunks);
                assert_eq!(plan.chunks, items.div_ceil(plan.chunk_len));
            }
        }
    }

    #[test]
    fn chunk_plan_keeps_all_workers_busy_on_large_inputs() {
        // Plenty of work: every requested thread gets several chunks.
        let plan = chunk_plan(10_000, 8);
        assert_eq!(plan.workers, 8);
        assert!(plan.chunks >= 8 * 4, "chunks = {}", plan.chunks);
        // And the grain holds: no 1-item chunks when there is slack.
        assert!(plan.chunk_len >= super::MIN_GRAIN);
    }

    #[test]
    fn chunk_plan_shrinks_grain_before_idling_workers() {
        // 3 items on 8 threads: the grain yields so all 3 items can run
        // concurrently rather than pairing two behind one worker.
        let plan = chunk_plan(3, 8);
        assert_eq!(plan.chunk_len, 1);
        assert_eq!(plan.workers, 3);
    }

    #[test]
    fn tiny_sweep_uses_at_most_one_thread_per_item() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        for n in 1..=4usize {
            let seen: Mutex<HashSet<std::thread::ThreadId>> = Mutex::new(HashSet::new());
            let out = parallel_map((0..n as i32).collect(), Some(16), |x| {
                seen.lock()
                    .expect("seen lock")
                    .insert(std::thread::current().id());
                x + 1
            });
            assert_eq!(out, (1..=n as i32).collect::<Vec<_>>());
            let distinct = seen.into_inner().expect("seen lock").len();
            assert!(
                distinct <= n,
                "{n} items ran on {distinct} distinct threads"
            );
        }
    }

    #[test]
    fn uneven_work_balances() {
        let out = parallel_map((0..32).collect(), Some(8), |x: u64| {
            // Simulate uneven cell costs.
            let mut acc = 0u64;
            for k in 0..(x * 1000) {
                acc = acc.wrapping_add(k);
            }
            (x, acc)
        });
        assert_eq!(out.len(), 32);
        for (i, (x, _)) in out.iter().enumerate() {
            assert_eq!(*x as usize, i);
        }
    }
}
