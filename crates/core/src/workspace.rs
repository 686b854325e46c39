//! Reusable buffers for the dual-probe hot path.
//!
//! The searches of Theorems 2, 3, 6 and 8 call an `O(n)` dual test
//! `O(log 1/ε)` (or `O(log(c+m))`) times with different guesses `T`. Before
//! this module, every probe rebuilt its classification vectors, hash sets
//! and knapsack buffers from scratch — roughly ten heap allocations per
//! probe. A [`DualWorkspace`] owns all of those buffers; one workspace
//! serves a whole search (or any number of [`solve`](crate::solve) calls),
//! so after the first probe warms the capacities up, the probe path performs
//! **zero** heap allocations (asserted by the `zero_alloc` test suite).
//!
//! The per-probe `HashSet<ClassId>`/`HashSet<JobId>` lookups are replaced by
//! [`MarkVec`], an epoch-based mark vector sized from the [`Instance`]:
//! `O(1)` clear, `O(1)` membership, no hashing, no allocation.

use bss_instance::{ClassId, Instance, JobId};
use bss_knapsack::CkItem;
use bss_rational::Rational;
use bss_wrap::{GapRun, WrapSequence};

use crate::classify::Classification;

/// Epoch-based mark vector: membership marks that clear in `O(1)` by
/// bumping an epoch counter instead of touching the storage.
#[derive(Debug, Default, Clone)]
pub(crate) struct MarkVec {
    epoch: u32,
    marks: Vec<u32>,
}

impl MarkVec {
    /// Clears all marks and ensures indices `0..n` are addressable.
    pub(crate) fn reset(&mut self, n: usize) {
        if self.marks.len() < n {
            self.marks.resize(n, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Epoch wrapped: old marks could alias the fresh epoch.
            self.marks.fill(0);
            self.epoch = 1;
        }
    }

    pub(crate) fn mark(&mut self, i: usize) {
        self.marks[i] = self.epoch;
    }

    pub(crate) fn is_marked(&self, i: usize) -> bool {
        self.marks[i] == self.epoch
    }
}

/// Per-class aggregate over the big jobs `C*_i = { j : s_i + t_j > T/2 }` of
/// a light-cheap class — all the probe needs from `C*_i`, without
/// materializing the job list.
#[derive(Debug, Clone, Copy)]
pub(crate) struct IstarAgg {
    pub class: ClassId,
    /// `|C*_i|`.
    pub big_count: u64,
    /// `P(C*_i)`.
    pub big_proc: u64,
}

/// A job piece destined for the bottom band of the large machines
/// (preemptive Algorithm 3, Figure 4).
#[derive(Debug, Clone)]
pub(crate) struct KPiece {
    pub class: ClassId,
    pub job: JobId,
    pub len: Rational,
}

/// Scratch buffers for assembling one wrap call: the sequence and the gap
/// runs, both cleared and rebuilt per wrap without reallocating. Kept as its
/// own struct so builders can borrow it mutably while the plan buffers
/// ([`DualWorkspace::cheap`], [`DualWorkspace::arena`], …) stay borrowed
/// immutably.
#[derive(Debug, Default)]
pub(crate) struct WrapScratch {
    /// The wrap sequence `Q` under construction.
    pub seq: WrapSequence,
    /// The gap runs `ω` under construction.
    pub runs: Vec<GapRun>,
}

impl WrapScratch {
    /// Clears both buffers, keeping capacity.
    pub(crate) fn clear(&mut self) {
        self.seq.clear();
        self.runs.clear();
    }
}

/// One stacked item of the non-preemptive builder (items are contiguous
/// from time 0 on their machine).
#[derive(Debug, Clone, Copy)]
pub(crate) struct NpItem {
    /// `None` = setup, `Some(p)` = piece of the job at position `p` of the
    /// instance's class-major table ([`Instance::class_major`]).
    pub pos: Option<usize>,
    pub class: ClassId,
    pub len: u64,
    /// Global placement sequence number (drives the step-4 repair order).
    pub seq: usize,
    /// Placed by step 3 (candidate for the border-crossing move).
    pub step3: bool,
}

/// Per-class job partition of the non-preemptive builder, as ranges into
/// [`DualWorkspace::np_jobs`]: `[start, big_end)` holds `J⁺ ∩ C_i`,
/// `[big_end, bord_end)` the borderline jobs `K ∩ C_i`, `[bord_end, end)`
/// the light jobs `C'_i`. Expensive classes keep an empty range.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct NpClassRange {
    pub start: u32,
    pub big_end: u32,
    pub bord_end: u32,
    pub end: u32,
}

/// Reusable buffers for the dual probes and builders of all three variants.
///
/// Create one with [`DualWorkspace::new`] and thread it through
/// [`solve_with`](crate::solve_with) (or the `_in`-suffixed algorithm entry
/// points) to amortize every per-probe buffer across a whole search — or
/// across many solves: the workspace grows to the largest instance it has
/// seen and never shrinks. Results are bit-identical to the
/// workspace-free entry points, which simply allocate a fresh workspace
/// internally.
#[derive(Debug, Default)]
pub struct DualWorkspace {
    /// Class partition of the current probe.
    pub(crate) cls: Classification,
    /// Machine counts for `I⁺_exp`, aligned with `cls.iexp_plus`.
    pub(crate) counts: Vec<usize>,
    /// Big-job aggregates of the light-cheap classes (order of
    /// `cls.ichp_minus`, classes with `C*_i = ∅` skipped).
    pub(crate) istar: Vec<IstarAgg>,
    /// Knapsack input (aligned with `istar`).
    pub(crate) ck_items: Vec<CkItem>,
    /// Knapsack solution `x` (aligned with `istar`).
    pub(crate) ck_x: Vec<Rational>,
    /// Knapsack ordering scratch.
    pub(crate) ck_order: Vec<usize>,
    /// Class membership marks (istar membership during plan building).
    pub(crate) class_mark: MarkVec,
    /// Cheap batches of the current preemptive plan.
    pub(crate) cheap: Vec<crate::preemptive::nice::Batch>,
    /// Piece storage for split batches (see
    /// [`BatchJobs::Pieces`](crate::preemptive::nice::BatchJobs)).
    pub(crate) arena: Vec<(JobId, Rational)>,
    /// Bottom-band pieces of the current preemptive plan.
    pub(crate) k_pieces: Vec<KPiece>,
    /// Bottom-band split: indices into `k_pieces` with `len > T/4` (`K⁺`).
    pub(crate) k_big: Vec<usize>,
    /// Bottom-band split: indices into `k_pieces` with `len <= T/4` (`K⁻`).
    pub(crate) k_small: Vec<usize>,
    /// Partial machines of the splittable builder: `(machine, load)`.
    pub(crate) partial: Vec<(usize, Rational)>,
    /// Non-preemptive repair: earliest placement sequence per job, indexed
    /// by class-major position.
    pub(crate) job_min_seq: Vec<usize>,
    /// Non-preemptive repair: piece count per job, indexed by class-major
    /// position.
    pub(crate) job_count: Vec<u32>,
    /// Non-preemptive builder: flat per-class big/borderline/light partition
    /// of class-major positions.
    pub(crate) np_jobs: Vec<usize>,
    /// Ranges of `np_jobs` per class.
    pub(crate) np_ranges: Vec<NpClassRange>,
    /// Non-preemptive builder: fillable machines, flat.
    pub(crate) np_fillable: Vec<usize>,
    /// Ranges of `np_fillable` per class.
    pub(crate) np_fill_ranges: Vec<(u32, u32)>,
    /// Non-preemptive builder: the step-3 item queue.
    pub(crate) np_queue: Vec<NpItem>,
    /// Non-preemptive builder: machine stacks (outer vector and inner
    /// capacities survive across builds; `np_used` stacks are live).
    pub(crate) np_stacks: Vec<Vec<NpItem>>,
    /// Non-preemptive builder: machine loads, aligned with `np_stacks`.
    pub(crate) np_loads: Vec<u64>,
    /// Non-preemptive repair: machines holding step-3 items.
    pub(crate) np_step3: Vec<usize>,
    /// Class-Jumping searches: partition thresholds / jump candidates.
    pub(crate) thresholds: Vec<Rational>,
    /// Class-Jumping searches: jump guesses of one refinement round.
    pub(crate) jumps: Vec<Rational>,
    /// Class-Jumping searches: the pinned `I⁺_exp` (or `I_exp`) classes,
    /// copied out of `cls` so later probes may overwrite the partition.
    pub(crate) jump_classes: Vec<ClassId>,
    /// Scratch for assembling wrap calls (sequence + gap runs).
    pub(crate) scratch: WrapScratch,
    /// Sequence-dependent solver scratch (probe orders, finish times); owned
    /// here so `SeqDepProblem` solves share the one-workspace-per-search
    /// discipline of the batch-setup paths.
    pub(crate) seqdep: bss_seqdep::solver::SeqDepScratch,
}

impl DualWorkspace {
    /// An empty workspace; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        DualWorkspace::default()
    }

    /// Restores the workspace to its freshly-constructed state.
    ///
    /// The budgeted solve boundary calls this after catching a solver panic
    /// mid-probe, when buffers may hold arbitrary partial state: a reset
    /// workspace is guaranteed bit-identical to a fresh one (guarded by the
    /// poisoning regression suite). This is a cold path — it drops the
    /// warmed-up capacities; ordinary interrupted solves (deadline, cancel)
    /// need no reset, because `prepare_for` re-establishes every per-probe
    /// invariant at the next solve anyway.
    pub fn reset(&mut self) {
        *self = DualWorkspace::default();
    }

    /// Clears all probe/plan state and reserves capacities sized from
    /// `inst`, so every subsequent push this probe stays within capacity.
    /// Idempotent: after the first call for a given instance size this is a
    /// handful of capacity checks and never allocates.
    pub(crate) fn prepare_for(&mut self, inst: &Instance) {
        let c = inst.num_classes();
        let n = inst.num_jobs();
        // `cls` is cleared by `classify_into` itself (the single owner of
        // that invariant); here we only pre-size its buffers.
        self.cls.iexp_plus.reserve(c);
        self.cls.iexp_zero.reserve(c);
        self.cls.iexp_minus.reserve(c);
        self.cls.ichp_plus.reserve(c);
        self.cls.ichp_minus.reserve(c);
        self.counts.clear();
        self.counts.reserve(c);
        self.istar.clear();
        self.istar.reserve(c);
        self.ck_items.clear();
        self.ck_items.reserve(c);
        self.ck_x.clear();
        self.ck_x.reserve(c);
        self.ck_order.clear();
        self.ck_order.reserve(c);
        self.cheap.clear();
        self.cheap.reserve(c);
        // Every job contributes at most one bottom-band piece and at most
        // one arena piece per plan.
        self.arena.clear();
        self.arena.reserve(n);
        self.k_pieces.clear();
        self.k_pieces.reserve(n);
        self.k_big.clear();
        self.k_small.clear();
        self.partial.clear();
        self.job_min_seq.clear();
        self.job_min_seq.reserve(n);
        self.job_count.clear();
        self.job_count.reserve(n);
        self.np_jobs.clear();
        self.np_jobs.reserve(n);
        self.np_ranges.clear();
        self.np_ranges.reserve(c);
        self.np_fillable.clear();
        self.np_fill_ranges.clear();
        self.np_queue.clear();
        self.np_step3.clear();
        self.scratch.clear();
        // `np_stacks`/`np_loads` are reset by the non-preemptive builder
        // itself (it tracks how many stacks are live); `thresholds`, `jumps`
        // and `jump_classes` belong to the searches, which clear them at
        // each use.
    }
}
