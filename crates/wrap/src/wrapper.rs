//! The `Wrap` algorithm with `Split` (Algorithm 5) and the parallel-gap fast
//! path.
//!
//! The wrapper is generic over its *emission target* ([`WrapEmit`]): the same
//! placement logic either appends configuration groups to a
//! [`CompactSchedule`] ([`wrap`], [`wrap_iter_append`]) or streams explicit
//! placements straight into a [`PlacementSink`] ([`wrap_into`]) — the
//! compact-first pipeline's way of writing a wrap result into its final
//! destination exactly once, with no intermediate `Schedule`. Every entry
//! point that appends or streams returns the largest end of what it
//! emitted, so builders know their makespan without rescanning the output.
//!
//! ## The cursor
//!
//! The fill time of the current gap is stored as `border + off`: `border` is
//! a reduced [`Rational`] — the gap's lower border `a`, or the end of the
//! last fractional item placed in the gap — and `off` is an `i128` offset,
//! the integral length placed since. The cursor also keeps the exact room
//! `b - border` and its floor. Setups and whole jobs are integral, so they
//! take the integer path: an item of length `len` fits iff
//! `off + len <= ⌊b - border⌋`, and placing it adds `len` to `off`. Its
//! start `border + off` is an integer added to a reduced fraction, which is
//! reduced as built, so no item pays a gcd. Only fractional items (the
//! remainders of pieces split at a border, and the knapsack pieces of the
//! preemptive build) and the piece that fills a gap up to its border take
//! the exact [`Rational`] path; they rebase the cursor to their end, which
//! costs one subtraction and one floor. Offsets are checked and panic with
//! a message containing "overflow", like [`Rational`] itself. The largest
//! end is folded in once per gap, when the cursor leaves it: every item of
//! a gap ends at or below the gap's final fill time.

use bss_instance::ClassId;
use bss_rational::Rational;
use bss_schedule::{
    CompactSchedule, ConfigItem, ItemKind, MachineConfig, Placement, PlacementSink,
};

use crate::{GapRun, SeqItem, SeqKind, Template, WrapSequence};

/// Structural failures of a wrap. Under Lemma 6's preconditions these never
/// occur; the dual algorithms treat them as "reject this makespan guess".
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WrapError {
    /// The template ran out of gaps before the sequence was fully placed.
    OutOfSpace {
        /// Load that could not be placed.
        unplaced: Rational,
    },
    /// A setup moved below a gap would start before time 0 (the caller
    /// violated the free-time-below-gaps precondition).
    SetupBelowZero {
        /// The class whose setup did not fit.
        class: ClassId,
    },
}

impl core::fmt::Display for WrapError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WrapError::OutOfSpace { unplaced } => {
                write!(f, "wrap template exhausted with {unplaced} load unplaced")
            }
            WrapError::SetupBelowZero { class } => {
                write!(
                    f,
                    "setup of class {class} moved below a gap starts before time 0"
                )
            }
        }
    }
}

impl std::error::Error for WrapError {}

/// Where wrapped items go: one call per single-machine item, one call per
/// parallel-gap group. Machines arrive in non-decreasing order (gaps live on
/// strictly increasing machines).
trait WrapEmit {
    /// An item on a single machine.
    fn item(&mut self, machine: usize, item: ConfigItem);

    /// A `(setup, piece)` configuration repeated on `count` consecutive
    /// machines (the parallel-gap fast path).
    fn group(&mut self, first_machine: usize, count: usize, setup: ConfigItem, piece: ConfigItem);

    /// Called once after the sequence is fully placed.
    fn finish(&mut self);
}

/// Appends configuration groups to a [`CompactSchedule`]: single-machine
/// items stream into a group opened *in place* in the output (so every
/// allocation is output storage — no emit-side scratch); fast-path groups
/// pass through with their multiplicity.
struct GroupEmit<'a> {
    out: &'a mut CompactSchedule,
    machine: usize,
    open: bool,
}

impl<'a> GroupEmit<'a> {
    fn new(out: &'a mut CompactSchedule) -> Self {
        GroupEmit {
            out,
            machine: 0,
            open: false,
        }
    }

    fn close(&mut self) {
        if self.open {
            self.out.end_group();
            self.open = false;
        }
    }
}

impl WrapEmit for GroupEmit<'_> {
    fn item(&mut self, machine: usize, item: ConfigItem) {
        if !self.open || machine != self.machine {
            self.close();
            self.out.begin_group(machine, 1);
            self.machine = machine;
            self.open = true;
        }
        self.out.push_open_item(item);
    }

    fn group(&mut self, first_machine: usize, count: usize, setup: ConfigItem, piece: ConfigItem) {
        self.close();
        self.out.push_group(
            first_machine,
            count,
            MachineConfig {
                items: vec![setup, piece],
            },
        );
        self.machine = first_machine + count;
    }

    fn finish(&mut self) {
        self.close();
    }
}

/// Streams explicit placements into a [`PlacementSink`]; fast-path groups
/// are unrolled (that cost is exactly what any later expansion would pay —
/// paid once, at the final destination).
struct StreamEmit<'a, S: PlacementSink> {
    sink: &'a mut S,
}

impl<S: PlacementSink> WrapEmit for StreamEmit<'_, S> {
    fn item(&mut self, machine: usize, item: ConfigItem) {
        self.sink
            .place(Placement::new(machine, item.start, item.len, item.kind));
    }

    fn group(&mut self, first_machine: usize, count: usize, setup: ConfigItem, piece: ConfigItem) {
        for k in 0..count {
            let u = first_machine + k;
            self.sink
                .place(Placement::new(u, setup.start, setup.len, setup.kind));
            self.sink
                .place(Placement::new(u, piece.start, piece.len, piece.kind));
        }
    }

    fn finish(&mut self) {}
}

/// Cursor state of the wrapper: which gap we are in and what has been emitted.
///
/// The fill time is `border + off` (see the module docs): `border` is a
/// reduced rational, `off` an integral offset above it, and `room` the exact
/// height `b - border` left above the border, with its floor cached so that
/// integral items fit-test and advance with integer arithmetic only.
struct Wrapper<'a, E: WrapEmit> {
    runs: &'a [GapRun],
    setups: &'a [u64],
    emit: E,
    /// Index of the current run.
    run: usize,
    /// Gap index within the current run.
    gap: usize,
    /// Whether anything was emitted into the current gap yet (guards the
    /// parallel-gap fast path, and says whether the gap's fill time counts
    /// towards the largest end).
    gap_dirty: bool,
    /// The gap's lower border, or the end of the last fractional item
    /// placed in the gap.
    border: Rational,
    /// Integral length placed since `border`.
    off: i128,
    /// `b - border` of the current gap, exact.
    room: Rational,
    /// `⌊room⌋`: an integral item of length `len` fits iff
    /// `off + len <= room_floor`.
    room_floor: i128,
    /// Class the current gap's machine is configured for (reset per gap —
    /// every gap lives on its own machine).
    configured: Option<ClassId>,
    /// Largest end of the items emitted so far, folded in once per gap.
    max_end: Rational,
}

impl<'a, E: WrapEmit> Wrapper<'a, E> {
    fn new(runs: &'a [GapRun], setups: &'a [u64], emit: E) -> Self {
        let mut w = Wrapper {
            runs,
            setups,
            emit,
            run: 0,
            gap: 0,
            gap_dirty: false,
            border: Rational::ZERO,
            off: 0,
            room: Rational::ZERO,
            room_floor: 0,
            configured: None,
            max_end: Rational::ZERO,
        };
        if !w.exhausted() {
            w.rebase(w.gap_a());
        }
        w
    }

    fn exhausted(&self) -> bool {
        self.run >= self.runs.len()
    }

    fn gap_a(&self) -> Rational {
        self.runs[self.run].a
    }

    fn gap_b(&self) -> Rational {
        self.runs[self.run].b
    }

    fn machine(&self) -> usize {
        let r = &self.runs[self.run];
        r.first_machine + self.gap
    }

    /// Moves the fill time to `at` within the current gap and recomputes
    /// the room above it exactly (one subtraction, one floor).
    fn rebase(&mut self, at: Rational) {
        self.border = at;
        self.off = 0;
        self.room = self.gap_b() - at;
        self.room_floor = self.room.floor();
    }

    /// The fill time. An integer added to a reduced fraction stays reduced,
    /// so this needs no gcd.
    fn t(&self) -> Rational {
        self.border + Rational::from(self.off)
    }

    /// `off + len`, checked.
    fn offset_by(&self, len: i128) -> i128 {
        self.off
            .checked_add(len)
            .expect("wrap cursor offset overflow")
    }

    /// Exact time left in the current gap above the fill time.
    fn room_left(&self) -> Rational {
        self.room - Rational::from(self.off)
    }

    /// Whether an item of length `len` fits below the gap's upper border.
    fn fits(&self, len: Rational) -> bool {
        if len.is_integer() {
            self.offset_by(len.numer()) <= self.room_floor
        } else {
            len <= self.room_left()
        }
    }

    fn push(&mut self, item: ConfigItem) {
        let machine = self.machine();
        self.emit.item(machine, item);
        self.gap_dirty = true;
    }

    /// Emits an item of length `len` at the fill time and moves the fill
    /// time past it: an integer add for integral lengths, a rebase for
    /// fractional ones.
    fn place(&mut self, len: Rational, kind: ItemKind) {
        let start = self.t();
        self.push(ConfigItem { start, len, kind });
        if len.is_integer() {
            self.off = self.offset_by(len.numer());
        } else {
            self.rebase(start + len);
        }
    }

    /// Folds the current gap's fill time into the largest end. Every item of
    /// a gap ends at or below its fill time, so once per gap suffices.
    fn close_gap(&mut self) {
        if self.gap_dirty {
            self.max_end = self.max_end.max(self.t());
        }
    }

    /// Moves to the next gap; `false` if the template is exhausted.
    fn advance(&mut self) -> bool {
        self.close_gap();
        self.configured = None;
        self.gap_dirty = false;
        self.gap += 1;
        if self.gap >= self.runs[self.run].count {
            self.run += 1;
            self.gap = 0;
        }
        if self.exhausted() {
            false
        } else {
            self.rebase(self.gap_a());
            true
        }
    }

    /// Places a setup of `class` below the current gap (`[a - s, a)`).
    fn setup_below(&mut self, class: ClassId) -> Result<(), WrapError> {
        let s = Rational::from(self.setups[class]);
        let start = self.gap_a() - s;
        if start.is_negative() {
            return Err(WrapError::SetupBelowZero { class });
        }
        self.push(ConfigItem {
            start,
            len: s,
            kind: ItemKind::Setup(class),
        });
        self.configured = Some(class);
        Ok(())
    }

    fn place_setup(&mut self, class: ClassId, len: Rational) -> Result<(), WrapError> {
        if self.fits(len) {
            self.place(len, ItemKind::Setup(class));
            self.configured = Some(class);
        } else {
            // Crossing setup: move it below the next gap.
            if !self.advance() {
                return Err(WrapError::OutOfSpace { unplaced: len });
            }
            self.setup_below(class)?;
        }
        Ok(())
    }

    fn place_piece(&mut self, class: ClassId, job: usize, len: Rational) -> Result<(), WrapError> {
        let kind = ItemKind::Piece { job, class };
        let mut remaining = len;
        loop {
            // A piece entering a fresh gap mid-class needs its setup below.
            if self.configured != Some(class) {
                self.setup_below(class)?;
            }
            if self.fits(remaining) {
                self.place(remaining, kind);
                return Ok(());
            }
            let avail = self.room_left();
            if avail.is_positive() {
                // Split at the border: the piece fills the gap.
                let start = self.t();
                self.push(ConfigItem {
                    start,
                    len: avail,
                    kind,
                });
                remaining -= avail;
                self.rebase(self.gap_b());
            }
            if !self.advance() {
                return Err(WrapError::OutOfSpace {
                    unplaced: remaining,
                });
            }
            // Parallel-gap fast path: if the piece covers >= 1 whole gap and
            // the current run still has identical gaps left, emit them as one
            // configuration group with a multiplicity. The cursor sits on a
            // fresh gap, so `room` is its full height.
            let run = &self.runs[self.run];
            let full = self.room;
            if remaining >= full && !self.gap_dirty {
                let gaps_left = run.count - self.gap;
                let needed = (remaining / full).floor() as usize;
                let mult = needed.min(gaps_left);
                if mult >= 1 {
                    let s = Rational::from(self.setups[class]);
                    let below_start = run.a - s;
                    if below_start.is_negative() {
                        return Err(WrapError::SetupBelowZero { class });
                    }
                    self.emit.group(
                        run.first_machine + self.gap,
                        mult,
                        ConfigItem {
                            start: below_start,
                            len: s,
                            kind: ItemKind::Setup(class),
                        },
                        ConfigItem {
                            start: run.a,
                            len: full,
                            kind,
                        },
                    );
                    self.max_end = self.max_end.max(run.b);
                    remaining -= full * mult;
                    // Skip the covered gaps and position the cursor on the
                    // next one (if any) for the rest of the piece or the
                    // following sequence item.
                    self.gap += mult;
                    self.configured = None;
                    self.gap_dirty = false;
                    if self.gap >= run.count {
                        self.run += 1;
                        self.gap = 0;
                    }
                    if !self.exhausted() {
                        self.rebase(self.gap_a());
                    }
                    if remaining.is_zero() {
                        return Ok(());
                    }
                    if self.exhausted() {
                        return Err(WrapError::OutOfSpace {
                            unplaced: remaining,
                        });
                    }
                }
            }
        }
    }
}

/// The shared driver behind every public entry point; returns the largest
/// end of the emitted items (zero when nothing was emitted).
///
/// Generic over the item *source*: a materialized [`WrapSequence`]'s items
/// or any lazy iterator (the splittable builders stream their batches
/// straight from the instance without assembling a sequence first).
fn run_wrap<E: WrapEmit>(
    items: impl IntoIterator<Item = SeqItem>,
    runs: &[GapRun],
    setups: &[u64],
    emit: E,
) -> Result<Rational, WrapError> {
    Template::check(runs);
    let mut w = Wrapper::new(runs, setups, emit);
    for item in items {
        if w.exhausted() {
            return Err(WrapError::OutOfSpace { unplaced: item.len });
        }
        match item.kind {
            SeqKind::Setup => w.place_setup(item.class, item.len)?,
            SeqKind::Piece(job) => w.place_piece(item.class, job, item.len)?,
        }
    }
    w.close_gap();
    w.emit.finish();
    Ok(w.max_end)
}

/// One batch as a lazy item stream: the setup of `class` followed by its
/// pieces (zero-length pieces are dropped, matching
/// [`WrapSequence::push_batch`]). Chain several of these into
/// [`wrap_iter_append`] to wrap whole class families without materializing a
/// sequence.
pub fn batch_items(
    class: ClassId,
    setup: Rational,
    pieces: impl IntoIterator<Item = (usize, Rational)>,
) -> impl Iterator<Item = SeqItem> {
    debug_assert!(setup.is_positive(), "setups have positive length");
    core::iter::once(SeqItem {
        class,
        kind: SeqKind::Setup,
        len: setup,
    })
    .chain(pieces.into_iter().filter_map(move |(job, len)| {
        len.is_positive().then_some(SeqItem {
            class,
            kind: SeqKind::Piece(job),
            len,
        })
    }))
}

/// Wraps `seq` into `template` (the paper's `Wrap(Q, ω)`).
///
/// `setups[i]` is the setup time of class `i`, used for the fresh setups that
/// `Split` inserts below gaps. `machines` is the machine count of the target
/// schedule.
///
/// Runs in `O(|Q| + |runs(ω)|)` — note: runs, not gaps — and returns a
/// [`CompactSchedule`] whose stored size is of the same order.
pub fn wrap(
    seq: &WrapSequence,
    template: &Template,
    setups: &[u64],
    machines: usize,
) -> Result<CompactSchedule, WrapError> {
    let mut out = CompactSchedule::new(machines);
    wrap_iter_append(
        seq.items().iter().copied(),
        template.runs(),
        setups,
        &mut out,
    )?;
    Ok(out)
}

/// Like [`wrap`], but over a lazy item stream (see [`batch_items`]; a
/// [`WrapSequence`] streams as `seq.items().iter().copied()`), appending the
/// configuration groups to an existing [`CompactSchedule`] — the builders'
/// way of assembling one compact output from several wraps without cloning
/// groups, and the splittable builders' way of streaming batches off the
/// instance without materializing a [`WrapSequence`].
///
/// `runs` must satisfy the [`Template`] invariants (checked; machine indices
/// of *this call* strictly increase — different calls may revisit machines).
///
/// Returns the largest end of the items this call emitted (zero when it
/// emitted none), so a builder knows its makespan without rescanning `out`.
///
/// # Errors
/// On [`WrapError`] the groups emitted so far remain in `out`; callers treat
/// wrap errors as a dual rejection and discard the whole output.
pub fn wrap_iter_append(
    items: impl IntoIterator<Item = SeqItem>,
    runs: &[GapRun],
    setups: &[u64],
    out: &mut CompactSchedule,
) -> Result<Rational, WrapError> {
    run_wrap(items, runs, setups, GroupEmit::new(out))
}

/// Like [`wrap`], but streams the explicit placements of the wrap straight
/// into `sink` — one copy, no intermediate schedule. Parallel-gap groups are
/// unrolled per machine, so the cost is `O(|Q| + gaps touched)`. Returns the
/// largest end of the emitted placements, like [`wrap_iter_append`].
///
/// # Errors
/// On [`WrapError`] the placements emitted so far remain in `sink`; callers
/// treat wrap errors as a dual rejection and discard the whole output.
pub fn wrap_into<S: PlacementSink>(
    seq: &WrapSequence,
    runs: &[GapRun],
    setups: &[u64],
    sink: &mut S,
) -> Result<Rational, WrapError> {
    // A template past the sink's machine bound is a programming error in
    // the calling algorithm; fail as loudly as the old expand() assert did.
    if let Some(m) = sink.machine_bound() {
        let last = runs.last().map_or(0, |r| r.first_machine + r.count);
        assert!(
            last <= m,
            "template addresses machine {} but the sink has {m} machines",
            last.saturating_sub(1),
        );
    }
    run_wrap(
        seq.items().iter().copied(),
        runs,
        setups,
        StreamEmit { sink },
    )
}

#[cfg(test)]
mod tests {
    use bss_instance::Variant;
    use bss_rational::Rational;
    use bss_schedule::Schedule;

    use crate::{GapRun, Template, WrapSequence};

    use super::*;

    fn r(v: i128) -> Rational {
        Rational::from_int(v)
    }

    /// Wrap a single batch into one big gap: everything lands sequentially.
    #[test]
    fn single_gap_sequential() {
        let mut q = WrapSequence::new();
        q.push_batch(0, r(2), [(0, r(3)), (1, r(4))]);
        let template = Template::from_gaps(vec![(0, r(0), r(20))]);
        let out = wrap(&q, &template, &[2], 1).unwrap();
        let s = out.expand().unwrap();
        assert_eq!(s.machine_load(0), r(9));
        assert_eq!(s.makespan(), r(9));
        assert_eq!(s.num_setups(), 1);
    }

    /// A job crossing a gap border is split and a fresh setup is placed below
    /// the next gap.
    #[test]
    fn split_inserts_setup_below() {
        let mut q = WrapSequence::new();
        q.push_batch(0, r(2), [(0, r(10))]);
        // Gap 1: [0, 8) on machine 0; gap 2: [2, 10) on machine 1.
        let template = Template::from_gaps(vec![(0, r(0), r(8)), (1, r(2), r(10))]);
        let out = wrap(&q, &template, &[2], 2).unwrap();
        let s = out.expand().unwrap();
        // Machine 0: setup [0,2), piece [2,8) (6 units).
        assert_eq!(s.machine_load(0), r(8));
        // Machine 1: setup below gap [0,2), remaining piece [2,6) (4 units).
        assert_eq!(s.machine_load(1), r(6));
        assert_eq!(s.num_setups(), 2);
        // Job 0 fully scheduled.
        let total: Rational = s
            .placements()
            .iter()
            .filter(|p| !p.kind.is_setup())
            .map(|p| p.len)
            .fold(Rational::ZERO, |a, b| a + b);
        assert_eq!(total, r(10));
    }

    /// A crossing *setup* is moved below the next gap in one piece.
    #[test]
    fn crossing_setup_moves_below() {
        let mut q = WrapSequence::new();
        q.push_batch(0, r(2), [(0, r(5))]);
        q.push_batch(1, r(3), [(1, r(4))]);
        // Gap 1: [0, 8): holds setup 0 + job 0 (7) with 1 unit slack — setup 1
        // (3 units) crosses. Gap 2: [4, 12) on machine 1.
        let template = Template::from_gaps(vec![(0, r(0), r(8)), (1, r(4), r(12))]);
        let out = wrap(&q, &template, &[2, 3], 2).unwrap();
        let s = out.expand().unwrap();
        let tl = s.machine_timeline(1);
        // Setup of class 1 below gap 2: [1, 4), then job: [4, 8).
        assert_eq!(tl[0].kind, ItemKind::Setup(1));
        assert_eq!(tl[0].start, r(1));
        assert_eq!(tl[1].start, r(4));
        assert_eq!(tl[1].len, r(4));
    }

    /// A huge job spanning many identical gaps uses the fast path: the
    /// compact output must stay small while the expanded schedule is full.
    #[test]
    fn parallel_gap_fast_path_compactness() {
        let mut q = WrapSequence::new();
        q.push_batch(0, r(1), [(0, r(1000))]);
        let template = Template::new(vec![GapRun {
            first_machine: 0,
            count: 200,
            a: r(1),
            b: r(7),
        }]);
        let out = wrap(&q, &template, &[1], 200).unwrap();
        // 1000 = 6 (first gap after setup... first gap holds [1+1, 7) = 5) …
        // regardless of the exact split: compact storage must be O(1) groups.
        assert!(
            out.groups().len() <= 4,
            "expected O(1) groups, got {}",
            out.groups().len()
        );
        let s = out.expand().unwrap();
        let total: Rational = s
            .placements()
            .iter()
            .filter(|p| !p.kind.is_setup())
            .map(|p| p.len)
            .fold(Rational::ZERO, |a, b| a + b);
        assert_eq!(total, r(1000));
        // Every machine that holds a piece also holds a setup below the gap.
        for u in 0..200 {
            let tl = s.machine_timeline(u);
            if tl.iter().any(|p| !p.kind.is_setup()) {
                assert!(tl.iter().any(|p| p.kind.is_setup()), "machine {u}");
            }
        }
    }

    /// Exact fit at a gap border followed by another batch: the next batch's
    /// setup must cover its jobs (regression for the configured-class reset).
    #[test]
    fn exact_fit_then_new_batch() {
        let mut q = WrapSequence::new();
        q.push_batch(0, r(1), [(0, r(7))]); // exactly fills gap 1: 1 + 7 = 8
        q.push_batch(1, r(2), [(1, r(3))]);
        let template = Template::from_gaps(vec![(0, r(0), r(8)), (1, r(2), r(10))]);
        let out = wrap(&q, &template, &[1, 2], 2).unwrap();
        let s = out.expand().unwrap();
        let tl = s.machine_timeline(1);
        assert_eq!(tl[0].kind, ItemKind::Setup(1));
        assert_eq!(tl[1].kind, ItemKind::Piece { job: 1, class: 1 });
    }

    /// Same-class pieces continuing after an exact multi-gap fill get a fresh
    /// below-gap setup.
    #[test]
    fn exact_multi_gap_fill_then_same_class_piece() {
        let mut q = WrapSequence::new();
        // Two jobs of class 0: first exactly fills gaps (fast path), second
        // continues in a later gap and needs a below-setup.
        q.push_setup(0, r(1));
        q.push_piece(0, 0, r(9)); // gap1 holds 4 (after setup), gaps 2: 5 → exact
        q.push_piece(0, 1, r(3));
        let template = Template::new(vec![GapRun {
            first_machine: 0,
            count: 4,
            a: r(1),
            b: r(6),
        }]);
        let out = wrap(&q, &template, &[1], 4).unwrap();
        let s = out.expand().unwrap();
        // Job 1 must be covered by a setup on its machine.
        let inst_check = {
            // machine holding job 1's piece:
            let p = s
                .placements()
                .iter()
                .find(|p| matches!(p.kind, ItemKind::Piece { job: 1, .. }))
                .unwrap();
            s.machine_timeline(p.machine)
                .iter()
                .any(|q| q.kind == ItemKind::Setup(0))
        };
        assert!(inst_check);
        let total: Rational = s
            .placements()
            .iter()
            .filter(|p| !p.kind.is_setup())
            .map(|p| p.len)
            .fold(Rational::ZERO, |a, b| a + b);
        assert_eq!(total, r(12));
    }

    /// From a fractional border, integral items advance the cursor by
    /// integer offsets and a fractional item rebases it; every start is
    /// exact, a piece crossing the border splits there, and the reported
    /// largest end is the makespan.
    #[test]
    fn fractional_border_cursor_is_exact() {
        let q_ = |n, d| Rational::new(n, d);
        let mut q = WrapSequence::new();
        q.push_batch(0, r(1), [(0, r(2)), (1, q_(1, 2)), (2, r(1)), (3, r(2))]);
        let template = Template::from_gaps(vec![(0, q_(4, 3), q_(19, 3)), (1, r(2), r(9))]);
        let mut out = CompactSchedule::new(2);
        let end =
            wrap_iter_append(q.items().iter().copied(), template.runs(), &[1], &mut out).unwrap();
        let s = out.expand().unwrap();
        let spans = |u| -> Vec<(Rational, Rational)> {
            s.machine_timeline(u)
                .iter()
                .map(|p| (p.start, p.len))
                .collect()
        };
        assert_eq!(
            spans(0),
            [
                (q_(4, 3), r(1)),
                (q_(7, 3), r(2)),
                (q_(13, 3), q_(1, 2)),
                (q_(29, 6), r(1)),
                (q_(35, 6), q_(1, 2)),
            ]
        );
        // The split's remainder continues above a fresh setup below gap 2.
        assert_eq!(spans(1), [(r(1), r(1)), (r(2), q_(3, 2))]);
        assert_eq!(end, q_(19, 3));
        assert_eq!(end, s.makespan());
    }

    /// The cursor's integer offset is checked: an offset past `i128` panics
    /// with an overflow message (which the solvers' API boundary reports as
    /// an overflow error) instead of wrapping in release builds.
    #[test]
    #[should_panic(expected = "offset overflow")]
    fn offset_overflow_panics() {
        let huge = r(1 << 126);
        let items = [
            SeqItem {
                class: 0,
                kind: SeqKind::Setup,
                len: r(1),
            },
            SeqItem {
                class: 0,
                kind: SeqKind::Piece(0),
                len: huge,
            },
            SeqItem {
                class: 0,
                kind: SeqKind::Piece(1),
                len: huge,
            },
        ];
        let runs = [GapRun::single(0, r(0), r(i128::MAX))];
        let _ = wrap_iter_append(items, &runs, &[1], &mut CompactSchedule::new(1));
    }

    #[test]
    fn out_of_space_reported() {
        let mut q = WrapSequence::new();
        q.push_batch(0, r(1), [(0, r(100))]);
        let template = Template::from_gaps(vec![(0, r(0), r(5))]);
        let err = wrap(&q, &template, &[1], 1).unwrap_err();
        assert!(matches!(err, WrapError::OutOfSpace { .. }));
    }

    #[test]
    fn setup_below_zero_reported() {
        let mut q = WrapSequence::new();
        q.push_batch(0, r(3), [(0, r(10))]);
        // Second gap starts at 2 < s_0 = 3: moved setup would start below 0.
        let template = Template::from_gaps(vec![(0, r(0), r(6)), (1, r(2), r(9))]);
        let err = wrap(&q, &template, &[3], 2).unwrap_err();
        assert!(matches!(err, WrapError::SetupBelowZero { class: 0 }));
    }

    #[test]
    fn empty_sequence_empty_output() {
        let q = WrapSequence::new();
        let template = Template::from_gaps(vec![(0, r(0), r(5))]);
        let out = wrap(&q, &template, &[1], 1).unwrap();
        assert!(out.groups().is_empty());
    }

    /// The streaming sink path emits exactly the placements of the expanded
    /// compact path — bit-identical, in the same order.
    #[test]
    fn wrap_into_matches_wrap_expand() {
        let mut q = WrapSequence::new();
        q.push_batch(0, r(1), [(0, r(9)), (1, r(3))]);
        q.push_batch(1, r(2), [(2, r(4))]);
        let template = Template::new(vec![
            GapRun {
                first_machine: 0,
                count: 4,
                a: r(2),
                b: r(6),
            },
            GapRun::single(4, r(2), r(12)),
        ]);
        let setups = [1u64, 2];
        let compact = wrap(&q, &template, &setups, 5).unwrap();
        let expanded = compact.expand().unwrap();

        let mut streamed = Schedule::new(5);
        wrap_into(&q, template.runs(), &setups, &mut streamed).unwrap();
        assert_eq!(streamed, expanded);

        let mut placements = Vec::new();
        wrap_into(&q, template.runs(), &setups, &mut placements).unwrap();
        assert_eq!(placements, expanded.placements());
    }

    /// `wrap_iter_append` into a pre-filled compact schedule extends it in
    /// place.
    #[test]
    fn wrap_iter_append_extends_existing_output() {
        let setups = [2u64, 1];
        let mut out = CompactSchedule::new(3);
        let gap = |u| [GapRun::single(u, r(0), r(10))];
        wrap_iter_append(
            batch_items(0, r(2), [(0, r(4))]),
            &gap(0),
            &setups,
            &mut out,
        )
        .unwrap();
        let first_groups = out.groups().len();
        wrap_iter_append(
            batch_items(1, r(1), [(1, r(5))]),
            &gap(1),
            &setups,
            &mut out,
        )
        .unwrap();
        assert!(out.groups().len() > first_groups);
        let s = out.expand().unwrap();
        assert_eq!(s.machine_load(0), r(6));
        assert_eq!(s.machine_load(1), r(6));
    }

    /// McNaughton-style wholesale test: wrap a full instance's batches into
    /// per-machine gaps and validate the result as a splittable schedule —
    /// with both validators.
    #[test]
    fn wrap_validates_as_splittable_schedule() {
        use bss_instance::InstanceBuilder;

        let mut b = InstanceBuilder::new(4);
        b.add_batch(2, &[5, 3, 8]);
        b.add_batch(1, &[4, 4]);
        b.add_batch(3, &[6]);
        let inst = b.build().unwrap();

        // smax = 3; capacity per gap: N/m … use the Lemma 8 template.
        let n = inst.total_load_once(); // 2+1+3 + 5+3+8+4+4+6 = 36
        let per = Rational::from(n) / inst.machines(); // 9
        let smax = Rational::from(inst.smax());
        let template = Template::new(vec![GapRun {
            first_machine: 0,
            count: 4,
            a: smax,
            b: smax + per,
        }]);
        let mut q = WrapSequence::new();
        for i in 0..inst.num_classes() {
            q.push_batch(
                i,
                Rational::from(inst.setup(i)),
                inst.class_jobs(i)
                    .iter()
                    .map(|&j| (j, Rational::from(inst.job(j).time))),
            );
        }
        let out = wrap(&q, &template, inst.setups(), 4).unwrap();
        let compact_violations = bss_schedule::validate_compact(&out, &inst, Variant::Splittable);
        assert!(compact_violations.is_empty(), "{compact_violations:?}");
        let s: Schedule = out.expand().unwrap();
        let violations = bss_schedule::validate(&s, &inst, Variant::Splittable);
        assert!(violations.is_empty(), "{violations:?}");
        assert!(s.makespan() <= smax + per);
    }
}
