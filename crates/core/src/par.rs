//! The speculative verdict source: the sequential probe ladder of
//! [`crate::search`], its queries answered by wavefronts of speculative
//! probes on worker threads — **bit-identical** outcome and probe accounting
//! to the sequential ladder at every thread count.
//!
//! # How determinism survives parallelism
//!
//! A binary search is a path through a decision tree: each probed midpoint
//! has exactly two successors (the midpoints after an accept and after a
//! reject), and the sequential search walks one root-to-leaf path. The
//! parallel driver exploits that the *whole tree* is known in advance:
//!
//! 1. **Plan.** From the current bracket it expands the next `k` tree nodes
//!    in BFS order (`k` = thread count), each node carrying the exact
//!    midpoint the sequential search would probe on that path, plus a link
//!    to its parent and the parent outcome that leads to it.
//! 2. **Speculate.** Worker threads — each owning its own
//!    [`DualWorkspace`] — claim nodes through an atomic cursor and probe
//!    them. A node whose already-published ancestor outcome contradicts its
//!    path is dead (the sequential search can never reach it) and is
//!    skipped at claim time; when the committed walk retires a wavefront
//!    early, its [`CancelToken`] kills the remaining losers the same way.
//! 3. **Commit.** The ladder itself runs unchanged on the calling thread: it
//!    charges the [`SolveBudget`] per committed query, and each query
//!    consumes its published result (or recomputes it inline on the
//!    caller's workspace when a worker had to skip). Only committed probes
//!    are charged or counted — speculative work is free by construction, so
//!    brackets, probe counts, interrupt points and even panic behaviour
//!    match the sequential search bit for bit.
//!
//! The win is wall-clock: with `k` threads a full wavefront resolves
//! `⌊log₂(k+1)⌋` committed bisection levels per probe round (plus one more
//! whenever the committed path stays on the wavefront's deepest planned
//! node), so a ladder of `L` sequential probe times contracts to roughly
//! `L / log₂(k+1)` rounds. [`crate::SearchStats::rounds`] reports that
//! critical path, machine-independently.
//!
//! Worker probe panics are *not* propagated eagerly: a speculative loser is
//! a probe the sequential search never runs, so its panic must not surface.
//! A panicking node is recorded as skipped; if the committed walk actually
//! consumes it, the inline recomputation re-raises the panic on the calling
//! thread — exactly where the sequential search would have panicked.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use bss_budget::{CancelToken, SolveBudget};

use crate::search::{Bisect, SearchStats, Verdicts};
use crate::workspace::DualWorkspace;

const NONE: usize = usize::MAX;

// A node's published result.
const PENDING: u8 = 0;
const ACCEPT: u8 = 1;
const REJECT: u8 = 2;
const SKIP: u8 = 3;

/// One planned speculative probe: the exact guess the sequential search
/// probes on this decision-tree path.
struct SpecNode<G> {
    guess: G,
    /// Index of the node whose outcome leads here (`NONE` for roots).
    parent: usize,
    /// Which parent outcome leads here: `true` = parent accepted.
    expect_accept: bool,
    /// `children[0]` = on-accept successor, `children[1]` = on-reject
    /// (`NONE` when unplanned) — lets the committed walk stay on the
    /// wavefront without searching.
    children: [usize; 2],
}

impl<G> SpecNode<G> {
    fn new(guess: G, parent: usize, expect_accept: bool) -> Self {
        SpecNode {
            guess,
            parent,
            expect_accept,
            children: [NONE, NONE],
        }
    }
}

/// One published wavefront.
struct Round<G> {
    nodes: Vec<SpecNode<G>>,
    results: Vec<AtomicU8>,
    cursor: AtomicUsize,
    /// Cancelled when the committed walk retires this round — unclaimed
    /// losers are skipped instead of probed.
    abort: CancelToken,
}

/// Coordinator ↔ worker handoff: the current round plus lifecycle flags.
struct Handoff<G> {
    epoch: u64,
    shutdown: bool,
    round: Option<Arc<Round<G>>>,
}

struct Engine<'a, G, F> {
    probe: &'a F,
    budget: &'a SolveBudget,
    state: Mutex<Handoff<G>>,
    /// Workers wait here for a new round (or shutdown).
    work_cv: Condvar,
    /// The coordinator waits here for results it needs.
    done_cv: Condvar,
}

impl<'a, G, F> Engine<'a, G, F>
where
    G: Copy + Send + Sync,
    F: Fn(&mut DualWorkspace, G) -> bool + Sync,
{
    fn new(probe: &'a F, budget: &'a SolveBudget) -> Self {
        Engine {
            probe,
            budget,
            state: Mutex::new(Handoff {
                epoch: 0,
                shutdown: false,
                round: None,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        }
    }

    /// Publishes a new wavefront and wakes the workers.
    fn publish(&self, nodes: Vec<SpecNode<G>>) -> Arc<Round<G>> {
        let round = Arc::new(Round {
            results: nodes.iter().map(|_| AtomicU8::new(PENDING)).collect(),
            nodes,
            cursor: AtomicUsize::new(0),
            abort: CancelToken::new(),
        });
        let mut h = self.state.lock().expect("engine lock");
        h.epoch += 1;
        h.round = Some(Arc::clone(&round));
        drop(h);
        self.work_cv.notify_all();
        round
    }

    /// Blocks until node `i` has a published result.
    fn await_result(&self, round: &Round<G>, i: usize) -> u8 {
        let r = round.results[i].load(Ordering::Acquire);
        if r != PENDING {
            return r;
        }
        let mut h = self.state.lock().expect("engine lock");
        loop {
            let r = round.results[i].load(Ordering::Acquire);
            if r != PENDING {
                return r;
            }
            h = self.done_cv.wait(h).expect("engine lock");
        }
    }

    fn worker(&self) {
        let mut ws = DualWorkspace::new();
        let mut seen = 0u64;
        loop {
            let round = {
                let mut h = self.state.lock().expect("engine lock");
                loop {
                    if h.shutdown {
                        return;
                    }
                    if h.epoch != seen {
                        seen = h.epoch;
                        if let Some(r) = &h.round {
                            break Arc::clone(r);
                        }
                    }
                    h = self.work_cv.wait(h).expect("engine lock");
                }
            };
            loop {
                let i = round.cursor.fetch_add(1, Ordering::Relaxed);
                if i >= round.nodes.len() {
                    break;
                }
                let res = if round.abort.is_cancelled()
                    || !viable(&round, i)
                    || self.budget.poll().is_err()
                {
                    SKIP
                } else {
                    match catch_unwind(AssertUnwindSafe(|| {
                        (self.probe)(&mut ws, round.nodes[i].guess)
                    })) {
                        Ok(true) => ACCEPT,
                        Ok(false) => REJECT,
                        Err(_) => {
                            // A speculative panic must not surface unless the
                            // committed path consumes this node — then the
                            // inline recomputation re-raises it. Reset the
                            // workspace: buffers abandoned mid-probe hold
                            // arbitrary partial state.
                            ws.reset();
                            SKIP
                        }
                    }
                };
                round.results[i].store(res, Ordering::Release);
                // Publish under the lock so a coordinator between its check
                // and its wait cannot miss the wakeup.
                let _h = self.state.lock().expect("engine lock");
                self.done_cv.notify_all();
            }
        }
    }
}

/// Dead-path pruning: a node whose already-published ancestor outcome
/// contradicts the path leading here can never be consumed.
fn viable<G>(round: &Round<G>, mut i: usize) -> bool {
    loop {
        let parent = round.nodes[i].parent;
        if parent == NONE {
            return true;
        }
        let published = round.results[parent].load(Ordering::Acquire);
        let expect = if round.nodes[i].expect_accept {
            ACCEPT
        } else {
            REJECT
        };
        // PENDING and SKIP leave the direction open; only a contradicting
        // probed outcome kills the path.
        if (published == ACCEPT || published == REJECT) && published != expect {
            return false;
        }
        i = parent;
    }
}

/// Expands the bisection tree from `state` in BFS order (shallow nodes
/// first — they are claimed first and are most likely committed), hanging
/// the root off `(root_parent, root_expect)`, until `capacity` nodes exist.
fn push_tree<B: Bisect>(
    nodes: &mut Vec<SpecNode<B::Guess>>,
    state: &B,
    root_parent: usize,
    root_expect: bool,
    capacity: usize,
) {
    let mut queue: VecDeque<(B, usize, bool)> = VecDeque::new();
    queue.push_back((state.clone(), root_parent, root_expect));
    while nodes.len() < capacity {
        let Some((mut s, parent, expect)) = queue.pop_front() else {
            break;
        };
        if !s.is_wide() {
            continue;
        }
        let Some(guess) = s.try_split() else {
            continue;
        };
        let idx = nodes.len();
        nodes.push(SpecNode::new(guess, parent, expect));
        if parent != NONE {
            nodes[parent].children[usize::from(!expect)] = idx;
        }
        let mut acc = s.clone();
        acc.accept_mid();
        queue.push_back((acc, idx, true));
        let mut rej = s;
        rej.reject_mid();
        queue.push_back((rej, idx, false));
    }
}

/// Sets the shutdown flag when the coordinator leaves the scope — normally
/// or by unwinding (an assert or re-raised probe panic) — so the workers
/// always drain and `thread::scope` can join.
struct ShutdownGuard<'s, 'a, G, F>(&'s Engine<'a, G, F>);

impl<G, F> Drop for ShutdownGuard<'_, '_, G, F> {
    fn drop(&mut self) {
        let mut h = self.0.state.lock().expect("engine lock");
        h.shutdown = true;
        if let Some(r) = &h.round {
            r.abort.cancel();
        }
        drop(h);
        self.0.work_cv.notify_all();
    }
}

/// The verdict source over published wavefronts. It follows the committed
/// walk through the planned tree; a query whose guess is not the planned
/// one (the ladder walked off the wavefront, or a warm memo answered the
/// planned queries itself) retires the round and plans a fresh tree rooted
/// at the query's bracket — or, for a seed with no bracket, probes inline.
struct Wavefront<'s, 'a, G, F> {
    engine: &'s Engine<'a, G, F>,
    ws: &'s mut DualWorkspace,
    threads: usize,
    round: Arc<Round<G>>,
    /// The planned node the next committed query should be.
    cur: Option<usize>,
    stats: SearchStats,
}

impl<B, F> Verdicts<B> for Wavefront<'_, '_, B::Guess, F>
where
    B: Bisect,
    F: Fn(&mut DualWorkspace, B::Guess) -> bool + Sync,
{
    fn verdict(&mut self, t: B::Guess, bracket: Option<&B>) -> bool {
        let node = match self.cur {
            Some(i) if self.round.nodes[i].guess == t => Some(i),
            _ => bracket.and_then(|b| self.replan(b)),
        };
        // Planning overflow (or an unplanned seed) continues inline, with
        // the sequential panic behaviour.
        let Some(i) = node else {
            return (self.engine.probe)(self.ws, t);
        };
        let accepted = match self.engine.await_result(&self.round, i) {
            ACCEPT => true,
            REJECT => false,
            _ => {
                self.stats.inline += 1;
                (self.engine.probe)(self.ws, t)
            }
        };
        let child = self.round.nodes[i].children[usize::from(!accepted)];
        self.cur = (child != NONE).then_some(child);
        accepted
    }
}

impl<G, F> Wavefront<'_, '_, G, F>
where
    G: Copy + Send + Sync,
    F: Fn(&mut DualWorkspace, G) -> bool + Sync,
{
    /// Retires the current round (killing its unclaimed losers) and
    /// publishes a tree rooted at `bracket`'s midpoint; `None` when
    /// planning overflowed.
    fn replan<B: Bisect<Guess = G>>(&mut self, bracket: &B) -> Option<usize> {
        self.round.abort.cancel();
        let mut nodes = Vec::new();
        push_tree(&mut nodes, bracket, NONE, false, self.threads);
        if nodes.is_empty() {
            return None;
        }
        self.stats.rounds += 1;
        self.stats.speculated += nodes.len();
        self.round = self.engine.publish(nodes);
        Some(0)
    }
}

/// Runs `ladder` against a speculative source on `threads` workers for the
/// ladder over `[t_lo, t_hi]`: round 0 holds both seeds plus the first tree
/// levels of `plan` (the ladder's bracket, `None` when its construction
/// overflows — the ladder then rebuilds it with the panic after `t_lo`
/// rejected, exactly as the sequential search does). Returns the ladder's
/// result and the wavefront's counters.
#[allow(clippy::too_many_arguments)]
pub(crate) fn speculate<B, F, R>(
    threads: usize,
    budget: &SolveBudget,
    ws: &mut DualWorkspace,
    probe: &F,
    t_lo: B::Guess,
    t_hi: B::Guess,
    plan: Option<B>,
    ladder: impl FnOnce(&mut dyn Verdicts<B>) -> R,
) -> (R, SearchStats)
where
    B: Bisect,
    F: Fn(&mut DualWorkspace, B::Guess) -> bool + Sync,
{
    let engine = Engine::new(probe, budget);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| engine.worker());
        }
        let _guard = ShutdownGuard(&engine);
        // The `t_hi` node hangs off `t_lo`'s rejection and the tree off
        // `t_hi`'s acceptance — the order the ladder discovers them in.
        let mut nodes = vec![
            SpecNode::new(t_lo, NONE, false),
            SpecNode::new(t_hi, 0, false),
        ];
        nodes[0].children[1] = 1;
        if let Some(state) = &plan {
            // Seeds resolve in the same wavefront as the first tree levels,
            // so round 0 gets the full `threads` of tree capacity on top.
            push_tree(&mut nodes, state, 1, true, threads + 2);
        }
        let stats = SearchStats {
            rounds: 1,
            speculated: nodes.len(),
            ..SearchStats::default()
        };
        let mut src = Wavefront {
            engine: &engine,
            ws,
            threads,
            round: engine.publish(nodes),
            cur: Some(0),
            stats,
        };
        let out = ladder(&mut src);
        src.round.abort.cancel();
        (out, src.stats)
    })
}

#[cfg(test)]
mod tests {
    use std::panic::AssertUnwindSafe;

    use bss_instance::{LowerBounds, Variant};
    use bss_rational::Rational;
    use proptest::prelude::*;

    use super::*;
    use crate::search::{climb, Bracket, IntBracket, Ladder};
    use crate::{BssProblem, Problem};

    fn r(v: i128) -> Rational {
        Rational::from_int(v)
    }

    /// The thread counts every check sweeps (`1` is the sequential ladder).
    /// `BSS_PAR_THREADS=N` pins the sweep to `{N}`.
    fn thread_counts() -> Vec<usize> {
        match std::env::var("BSS_PAR_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
        {
            Some(n) if n > 0 => vec![n],
            _ => vec![1, 2, 4, 8],
        }
    }

    /// The ladder over `[lo, hi]` at `threads`, its bracket from `make`.
    fn ladder<B, F>(
        lo: B::Guess,
        hi: B::Guess,
        make: impl Fn() -> Option<B>,
        threads: usize,
        budget: &SolveBudget,
        probe: F,
    ) -> (Ladder<B::Guess>, SearchStats)
    where
        B: Bisect,
        F: Fn(&mut DualWorkspace, B::Guess) -> bool + Sync,
    {
        let mut ws = DualWorkspace::new();
        if threads <= 1 {
            let out = climb(lo, hi, &make, budget, &mut |t: B::Guess| probe(&mut ws, t));
            return (out, SearchStats::default());
        }
        speculate(threads, budget, &mut ws, &probe, lo, hi, make(), |src| {
            climb(lo, hi, &make, budget, src)
        })
    }

    fn eps<F>(
        lo: Rational,
        hi: Rational,
        gap: Rational,
        threads: usize,
        budget: &SolveBudget,
        probe: F,
    ) -> (Ladder<Rational>, SearchStats)
    where
        F: Fn(&mut DualWorkspace, Rational) -> bool + Sync,
    {
        ladder(
            lo,
            hi,
            || Bracket::try_new(lo, hi, gap),
            threads,
            budget,
            probe,
        )
    }

    fn int<F>(lo: u64, hi: u64, threads: usize, budget: &SolveBudget, probe: F) -> Ladder<u64>
    where
        F: Fn(&mut DualWorkspace, u64) -> bool + Sync,
    {
        ladder(
            lo,
            hi,
            || Some(IntBracket::new(lo, hi)),
            threads,
            budget,
            probe,
        )
        .0
    }

    #[test]
    fn epsilon_par_matches_sequential_bitwise() {
        for denom in [3i128, 7, 64, 1000] {
            for num in [301i128, 399, 555, 599] {
                let threshold = Rational::new(num, denom);
                let u = SolveBudget::unlimited();
                let gap = Rational::new(1, 128);
                let seq = eps(r(100), r(200), gap, 1, &u, |_, t| t >= threshold).0;
                for threads in [2, 4, 8] {
                    let par = eps(r(100), r(200), gap, threads, &u, |_, t| t >= threshold).0;
                    assert_eq!(par, seq, "threads={threads} threshold={threshold}");
                }
            }
        }
    }

    #[test]
    fn epsilon_par_immediate_accept() {
        for threads in [1, 2, 4, 8] {
            let u = SolveBudget::unlimited();
            let out = eps(r(100), r(200), r(10), threads, &u, |_, t| t >= r(50)).0;
            assert_eq!(out.accepted, r(100));
            assert_eq!(out.rejected, None);
            assert_eq!(out.probes, 1);
        }
    }

    #[test]
    fn integer_par_matches_sequential_bitwise() {
        for threshold in [101u64, 137, 199, 200, 777, 1000] {
            let u = SolveBudget::unlimited();
            let seq = int(100, 1000, 1, &u, |_, t| t >= threshold);
            for threads in [2, 4, 8] {
                let par = int(100, 1000, threads, &u, |_, t| t >= threshold);
                assert_eq!(par, seq, "threads={threads} threshold={threshold}");
            }
        }
    }

    #[test]
    fn work_limit_interruption_points_are_deterministic() {
        // Sweep every work-limit: the interrupted bracket must match the
        // sequential search's at the same limit, at every thread count.
        for limit in 0..12 {
            let seq_budget = SolveBudget::unlimited().with_work_limit(limit);
            let seq = int(100, 1000, 1, &seq_budget, |_, t| t >= 137);
            for threads in [2, 4, 8] {
                let par_budget = SolveBudget::unlimited().with_work_limit(limit);
                let par = int(100, 1000, threads, &par_budget, |_, t| t >= 137);
                assert_eq!(par, seq, "threads={threads} limit={limit}");
                assert_eq!(seq_budget.work_used(), par_budget.work_used());
            }
        }
    }

    #[test]
    fn committed_panic_propagates_loser_panic_does_not() {
        // Probe panics at one loser guess the committed path never visits:
        // the parallel search must still match the sequential one.
        let u = SolveBudget::unlimited();
        let seq = int(100, 1000, 1, &u, |_, t| t >= 137);
        let par = int(100, 1000, 8, &u, |_, t| {
            // 775 = mid of (550, 1000], a reject-side path the committed
            // walk (which accepts at 550's level) never takes.
            assert!(t != 775, "loser probe");
            t >= 137
        });
        assert_eq!(par, seq);

        // A panic at a guess the committed path *does* probe propagates.
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            int(100, 1000, 8, &u, |_, t| {
                assert!(t != 550, "committed probe");
                t >= 137
            })
        }));
        assert!(caught.is_err(), "committed-path panic must propagate");
    }

    #[test]
    fn cancellation_stops_the_search() {
        let token = CancelToken::new();
        let budget = SolveBudget::unlimited().with_cancel(&token);
        token.cancel();
        let par = int(100, 1000, 4, &budget, |_, t| t >= 137);
        // Identical to the sequential search under a pre-cancelled budget:
        // nothing probed, bracket untouched.
        let seq = int(100, 1000, 1, &budget, |_, t| t >= 137);
        assert_eq!(par, seq);
        assert!(par.interrupt.is_some());
    }

    #[test]
    fn stats_report_the_wavefront_critical_path() {
        let threshold = Rational::new(555, 4);
        let u = SolveBudget::unlimited();
        let gap = Rational::new(1, 1 << 16);
        let (par, stats) = eps(r(100), r(200), gap, 8, &u, |_, t| t >= threshold);
        assert!(par.interrupt.is_none());
        assert!(stats.rounds >= 1);
        assert!(stats.speculated >= par.probes);
        // The whole point: the wavefront critical path is much shorter than
        // the sequential probe ladder. 8 threads commit >= 3 levels/round.
        assert!(
            stats.rounds <= 1 + par.probes.div_ceil(3),
            "rounds {} vs probes {}",
            stats.rounds,
            par.probes
        );
        assert_eq!(stats.inline, 0, "no skips under an unlimited budget");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Raw ε-ladder equivalence on real dual probes: accepted bracket,
        /// rejection certificate and probe count all match, per thread
        /// count.
        #[test]
        fn epsilon_search_par_matches_on_real_duals(
            n in 20usize..60,
            c in 2usize..7,
            m in 2usize..5,
            seed in 0u64..10_000,
            eps_log2 in 2u32..9,
            variant_idx in 0usize..3,
        ) {
            let inst = bss_gen::uniform(n, c, m, seed);
            let problem = BssProblem::new(&inst, Variant::ALL[variant_idx]);
            let t_min = problem.t_min();
            prop_assume!(t_min.is_positive());
            let (t_hi, gap) = (problem.search_hi(), t_min / (1u64 << eps_log2));
            let u = SolveBudget::unlimited();
            let want = eps(t_min, t_hi, gap, 1, &u, |w, t| problem.probe(w, t)).0;
            for threads in thread_counts() {
                let got = eps(t_min, t_hi, gap, threads, &u, |w, t| problem.probe(w, t)).0;
                prop_assert_eq!(got, want, "t={} seed={}", threads, seed);
            }
        }

        /// Raw integer-ladder equivalence on the non-preemptive 3/2-dual.
        #[test]
        fn integer_search_par_matches_on_real_duals(
            n in 20usize..60,
            c in 2usize..7,
            m in 2usize..5,
            seed in 0u64..10_000,
        ) {
            let inst = bss_gen::uniform(n, c, m, seed);
            prop_assume!(inst.machines() < inst.num_jobs());
            let t_min = LowerBounds::of(&inst).tmin(Variant::NonPreemptive).ceil() as u64;
            let accepts = |_: &mut DualWorkspace, t: u64| crate::nonpreemptive::accepts(&inst, t);
            let u = SolveBudget::unlimited();
            let want = int(t_min, 2 * t_min, 1, &u, accepts);
            for threads in thread_counts() {
                prop_assert_eq!(int(t_min, 2 * t_min, threads, &u, accepts), want, "t={} seed={}", threads, seed);
            }
        }
    }
}
