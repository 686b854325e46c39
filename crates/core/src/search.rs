//! The probe ladder: one dual-approximation bisection behind every search.
//!
//! A ρ-dual approximation algorithm (Hochbaum–Shmoys) takes a guess `T` and
//! either *rejects* it — certifying `T < OPT` — or builds a schedule of
//! makespan at most `ρT`. The paper turns its 3/2-dual algorithms into full
//! approximations three ways:
//!
//! * Theorem 2's `(3/2+ε)`-approximation: plain binary search on
//!   `[T_min, 2·T_min]` down to a relative gap `ε`, `O(n log 1/ε)`
//!   ([`crate::Algorithm::EpsilonSearch`]);
//! * Theorem 8: for the non-preemptive variant `OPT` is integral, so an exact
//!   integer binary search yields a true 3/2-approximation in
//!   `⌈log(T_min)⌉` probes ([`crate::Algorithm::ThreeHalves`]);
//! * Class Jumping (Theorems 3 and 6, also behind
//!   [`crate::Algorithm::ThreeHalves`]) replaces the geometric search with a
//!   jump-structure search for the splittable and preemptive variants,
//!   narrowing a right interval over sorted candidate guesses.
//!
//! The first two are the same bisection over different brackets, and the
//! loop that runs it (the *ladder*) exists once. It charges the budget one
//! unit per committed query and takes its verdicts from a *verdict source*:
//! the direct probe, or the warm-start monotonicity memo
//! ([`crate::SolveOptions::warm`]) in front of it. Both answer each committed
//! query exactly as the probe would, so the bracket, the committed probe
//! count and the interruption points are the same whichever one runs.

use bss_budget::{Interrupt, SolveBudget};
use bss_rational::{gcd, Rational};

use crate::api::{Built, SolveOptions};
use crate::workspace::DualWorkspace;

/// Outcome of one of the 3/2 searches (Class Jumping, Theorem 8's integer
/// search, or the `m >= n` schedule).
#[derive(Debug)]
pub(crate) struct SearchOutcome {
    /// The schedule built at `accepted`, with its reported makespan.
    pub built: Built,
    /// The accepted guess; the schedule's makespan is at most `3/2 ·
    /// accepted`.
    pub accepted: Rational,
    /// The largest guess the dual test rejected, if any — a certificate that
    /// `OPT > rejected`.
    pub rejected: Option<Rational>,
    /// Committed dual-test probes.
    pub probes: usize,
    /// Why the search stopped early, if it did: it then built at its
    /// current, still accepted, right bracket.
    pub interrupt: Option<Interrupt>,
}

/// Counters of one solve's probe ladders beyond the committed probe count
/// ([`crate::Solution::probes`]): what a warm start saved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Dual tests the committed path genuinely evaluated: memo misses plus
    /// [`SearchStats::seed_probes`]. Equal to the solution's `probes` for a
    /// cold solve.
    pub probes: usize,
    /// Committed queries the warm memo answered without a probe — the cold
    /// search would have probed each of these.
    pub skipped: usize,
    /// Of `probes`, how many seeded the warm memo at the hint points.
    pub seed_probes: usize,
}

impl core::ops::AddAssign for SearchStats {
    fn add_assign(&mut self, o: SearchStats) {
        self.probes += o.probes;
        self.skipped += o.skipped;
        self.seed_probes += o.seed_probes;
    }
}

/// A bisection state: `lo` rejected, `hi` accepted, narrowing while wide —
/// implemented by the rational ε-bracket and the Theorem-8 integer bracket,
/// so one ladder serves both searches.
pub(crate) trait Bisect {
    type Guess: Copy + Ord;
    fn is_wide(&self) -> bool;
    /// The midpoint split: panics on overflow exactly as [`Rational`]
    /// arithmetic does.
    fn split(&mut self) -> Self::Guess;
    fn accept_mid(&mut self);
    fn reject_mid(&mut self);
    fn lo_guess(&self) -> Self::Guess;
    fn hi_guess(&self) -> Self::Guess;
    /// A warm hint `[lo, hi]` on this bracket's guess scale, rounded
    /// outwards.
    fn hint(lo: Rational, hi: Rational) -> (Self::Guess, Self::Guess);
}

/// The ε-search bracket `[lo, hi]` plus the termination gap, held as plain
/// integers over one shared denominator (a `Guess`-style representation).
///
/// The binary-search loop then needs only integer comparisons and shifts:
/// no gcd, no rational re-normalization per iteration. A rational is
/// materialized (one gcd) only at the probe points, where it is dwarfed by
/// the `O(n)` dual test it feeds. Midpoints double the denominator at most
/// once per iteration; when that would leave the `i128` headroom the bracket
/// renormalizes by the common gcd, matching the overflow discipline (and
/// panic behaviour) of [`Rational`] itself.
pub(crate) struct Bracket {
    lo: i128,
    hi: i128,
    gap: i128,
    den: i128,
    mid: i128,
}

impl Bracket {
    /// `None` when the common denominator leaves `i128` (the ladder turns
    /// that into the overflow panic).
    pub(crate) fn try_new(lo: Rational, hi: Rational, gap: Rational) -> Option<Bracket> {
        let den = lcm(lo.denom(), hi.denom()).and_then(|d| lcm(d, gap.denom()))?;
        let scale = |r: Rational| r.numer().checked_mul(den / r.denom());
        Some(Bracket {
            lo: scale(lo)?,
            hi: scale(hi)?,
            gap: scale(gap)?,
            den,
            mid: 0,
        })
    }

    /// Divides every component by their common gcd to regain headroom;
    /// `false` when the components share no factor — the exact value
    /// genuinely leaves `i128`, exactly as plain [`Rational`] arithmetic
    /// would (the caller turns that into the panic).
    fn renormalize(&mut self) -> bool {
        let g = gcd(gcd(self.lo, self.hi), gcd(self.gap, self.den));
        if g <= 1 {
            return false;
        }
        self.lo /= g;
        self.hi /= g;
        self.gap /= g;
        self.den /= g;
        true
    }
}

impl Bisect for Bracket {
    type Guess = Rational;

    /// `hi - lo > gap` — a pure integer comparison.
    fn is_wide(&self) -> bool {
        self.hi - self.lo > self.gap
    }

    fn split(&mut self) -> Rational {
        loop {
            if let Some(sum) = self.lo.checked_add(self.hi) {
                if sum % 2 == 0 {
                    self.mid = sum / 2;
                    return Rational::new(self.mid, self.den);
                }
                // Odd sum: double every component so the midpoint is exact.
                if let (Some(d), Some(l), Some(h), Some(g)) = (
                    self.den.checked_mul(2),
                    self.lo.checked_mul(2),
                    self.hi.checked_mul(2),
                    self.gap.checked_mul(2),
                ) {
                    self.den = d;
                    self.lo = l;
                    self.hi = h;
                    self.gap = g;
                    self.mid = sum; // (2·lo + 2·hi) / 2
                    return Rational::new(self.mid, self.den);
                }
            }
            if !self.renormalize() {
                panic!("{OVERFLOW}");
            }
        }
    }

    fn accept_mid(&mut self) {
        self.hi = self.mid;
    }

    fn reject_mid(&mut self) {
        self.lo = self.mid;
    }

    fn lo_guess(&self) -> Rational {
        Rational::new(self.lo, self.den)
    }

    fn hi_guess(&self) -> Rational {
        Rational::new(self.hi, self.den)
    }

    fn hint(lo: Rational, hi: Rational) -> (Rational, Rational) {
        (lo, hi)
    }
}

const OVERFLOW: &str = "Rational overflow in search bracket";

/// `lcm(a, b)` for positive denominators; `None` on overflow.
fn lcm(a: i128, b: i128) -> Option<i128> {
    (a / gcd(a, b)).checked_mul(b)
}

/// Theorem 8's integer bracket: loop while `hi - lo > 1`, so the accepted
/// end is the smallest accepted integer and `lo` certifies `OPT >= lo + 1`.
pub(crate) struct IntBracket {
    lo: u64,
    hi: u64,
    mid: u64,
}

impl IntBracket {
    pub(crate) fn new(lo: u64, hi: u64) -> Self {
        IntBracket { lo, hi, mid: 0 }
    }
}

impl Bisect for IntBracket {
    type Guess = u64;

    fn is_wide(&self) -> bool {
        self.hi - self.lo > 1
    }

    fn split(&mut self) -> u64 {
        self.mid = self.lo + (self.hi - self.lo) / 2;
        self.mid
    }

    fn accept_mid(&mut self) {
        self.hi = self.mid;
    }

    fn reject_mid(&mut self) {
        self.lo = self.mid;
    }

    fn lo_guess(&self) -> u64 {
        self.lo
    }

    fn hi_guess(&self) -> u64 {
        self.hi
    }

    fn hint(lo: Rational, hi: Rational) -> (u64, u64) {
        let clamp = |v: i128| u64::try_from(v.max(0)).unwrap_or(u64::MAX);
        (clamp(lo.floor()), clamp(hi.ceil()))
    }
}

/// Where a ladder's verdicts come from.
pub(crate) trait Verdicts<G> {
    fn verdict(&mut self, t: G) -> bool;
}

/// A direct probe is a verdict source.
impl<G, F: FnMut(G) -> bool> Verdicts<G> for F {
    fn verdict(&mut self, t: G) -> bool {
        self(t)
    }
}

/// The bracket a ladder finished (or was interrupted) with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Ladder<G> {
    /// The smallest guess certified acceptable — a builder run here must
    /// succeed (the duals are deterministic in `T`). On interruption the
    /// current right bracket, `t_hi` when nothing was learned yet.
    pub accepted: G,
    /// The largest rejected guess: only genuinely probed (or
    /// bisection-certified) rejections, never extrapolated.
    pub rejected: Option<G>,
    /// Committed queries, each charged one budget unit.
    pub probes: usize,
    /// Why the ladder stopped early, if it did.
    pub interrupt: Option<Interrupt>,
}

/// The ladder: probe `t_lo` (an accept ends it — a build there is a clean
/// ρ-approximation), then `t_hi` (which must accept), then bisect the
/// bracket `make` builds until it is narrow. One budget unit is charged
/// before every committed query; a trip stops the ladder at its current,
/// still accepted, right bracket.
///
/// `make` returns `None` on overflow; the bracket is built only after `t_lo`
/// rejected, so an immediate accept never pays (or panics on) it.
pub(crate) fn climb<B: Bisect, S: Verdicts<B::Guess> + ?Sized>(
    t_lo: B::Guess,
    t_hi: B::Guess,
    make: impl Fn() -> Option<B>,
    budget: &SolveBudget,
    src: &mut S,
) -> Ladder<B::Guess> {
    assert!(t_lo <= t_hi);
    let mut out = Ladder {
        accepted: t_hi,
        rejected: None,
        probes: 0,
        interrupt: None,
    };
    if let Err(i) = budget.charge_probe() {
        out.interrupt = Some(i);
        return out;
    }
    out.probes = 1;
    if src.verdict(t_lo) {
        out.accepted = t_lo;
        return out;
    }
    out.rejected = Some(t_lo);
    let mut bracket = make().expect(OVERFLOW);
    if let Err(i) = budget.charge_probe() {
        out.interrupt = Some(i);
        return out;
    }
    out.probes += 1;
    assert!(
        src.verdict(t_hi),
        "the search's upper seed must be accepted"
    );
    while bracket.is_wide() {
        let mid = bracket.split();
        if let Err(i) = budget.charge_probe() {
            out.interrupt = Some(i);
            break;
        }
        out.probes += 1;
        if src.verdict(mid) {
            bracket.accept_mid();
        } else {
            bracket.reject_mid();
        }
    }
    out.accepted = bracket.hi_guess();
    out.rejected = Some(bracket.lo_guess());
    out
}

/// The warm-start verdict source: the previous solve's bracket as a
/// monotonicity memo in front of another source.
///
/// A probed acceptance at `t` proves acceptance for every `t' >= t`, a
/// probed rejection for every `t' <= t` — the monotonicity of the dual
/// tests in `T` that makes bisection meaningful in the first place. Memo
/// answers are therefore implied by *actual probe outcomes on this
/// instance*, and the ladder replays the cold bisection query for query:
/// the bracket is bit-identical to the cold one, and a wrong hint costs
/// extra probes, never a wrong answer.
///
/// The memo is seeded by probing the hint points (top first: a stale hint
/// above the new optimum then skips the bottom seed) only once `t_lo` has
/// rejected, so an immediate-accept solve stays exactly one probe, hint or
/// no hint. Seeds are not committed queries and charge no budget.
pub(crate) struct Warm<'s, G, S: ?Sized> {
    inner: &'s mut S,
    hint: (G, G),
    seeded: bool,
    /// The smallest probed acceptance.
    accept: Option<G>,
    /// The largest probed rejection.
    reject: Option<G>,
    pub(crate) skipped: usize,
    pub(crate) seeds: usize,
}

impl<'s, G: Copy + Ord, S: ?Sized> Warm<'s, G, S> {
    /// Clamps the hint `[lo, hi]` into the window `[t_lo, t_hi]` and orders
    /// it.
    pub(crate) fn new(inner: &'s mut S, t_lo: G, t_hi: G, (lo, hi): (G, G)) -> Self {
        let hi = hi.min(t_hi).max(t_lo);
        let lo = lo.max(t_lo).min(hi);
        Warm {
            inner,
            hint: (lo, hi),
            seeded: false,
            accept: None,
            reject: None,
            skipped: 0,
            seeds: 0,
        }
    }

    fn known(&self, t: G) -> Option<bool> {
        if self.accept.is_some_and(|a| t >= a) {
            Some(true)
        } else if self.reject.is_some_and(|r| t <= r) {
            Some(false)
        } else {
            None
        }
    }

    fn record(&mut self, t: G, ok: bool) -> bool {
        if ok {
            self.accept = Some(self.accept.map_or(t, |a| a.min(t)));
        } else {
            self.reject = Some(self.reject.map_or(t, |r| r.max(t)));
        }
        ok
    }
}

impl<G: Copy + Ord, S: Verdicts<G> + ?Sized> Verdicts<G> for Warm<'_, G, S> {
    fn verdict(&mut self, t: G) -> bool {
        if !self.seeded && self.reject.is_some() {
            self.seeded = true;
            let (lo, hi) = self.hint;
            let seed = |w: &mut Self, g: G| {
                w.known(g).unwrap_or_else(|| {
                    w.seeds += 1;
                    let ok = w.inner.verdict(g);
                    w.record(g, ok)
                })
            };
            if seed(self, hi) && lo < hi {
                seed(self, lo);
            }
        }
        if let Some(ok) = self.known(t) {
            self.skipped += 1;
            return ok;
        }
        let ok = self.inner.verdict(t);
        self.record(t, ok)
    }
}

/// How one solve runs its ladders: the budget and the warm hint of its
/// [`SolveOptions`], plus the stats they accumulate.
pub(crate) struct Search<'a> {
    budget: Option<&'a SolveBudget>,
    unlimited: SolveBudget,
    hint: Option<(Rational, Rational)>,
    pub(crate) stats: SearchStats,
}

impl<'a> Search<'a> {
    /// `monotone` says whether the probe is a proven dual; heuristic duals
    /// are not known to be monotone in `T`, so they ignore the warm hint.
    pub(crate) fn new(opts: &SolveOptions<'a>, monotone: bool) -> Self {
        Search {
            budget: opts.budget,
            unlimited: SolveBudget::unlimited(),
            hint: opts.warm.filter(|_| monotone).map(|w| w.hint()),
            stats: SearchStats::default(),
        }
    }

    /// The budget every committed query is charged to.
    pub(crate) fn budget(&self) -> &SolveBudget {
        self.budget.unwrap_or(&self.unlimited)
    }

    /// Runs one ladder over `probe` on `[t_lo, t_hi]` (see [`climb`]),
    /// warm when a hint is given.
    pub(crate) fn run<B: Bisect>(
        &mut self,
        ws: &mut DualWorkspace,
        t_lo: B::Guess,
        t_hi: B::Guess,
        make: impl Fn() -> Option<B>,
        probe: impl Fn(&mut DualWorkspace, B::Guess) -> bool,
    ) -> Ladder<B::Guess> {
        let budget = self.budget.unwrap_or(&self.unlimited);
        let mut direct = |t: B::Guess| probe(ws, t);
        let Some((lo, hi)) = self.hint else {
            return climb(t_lo, t_hi, make, budget, &mut direct);
        };
        let mut warm = Warm::new(&mut direct, t_lo, t_hi, B::hint(lo, hi));
        let out = climb(t_lo, t_hi, make, budget, &mut warm);
        self.stats.skipped += warm.skipped;
        self.stats.seed_probes += warm.seeds;
        out
    }
}

/// Narrows a right interval `(lo, hi]` (`lo` rejected, `hi` accepted) over
/// `len` sorted candidate guesses `at(0) < … < at(len - 1)`, all strictly
/// inside `(lo, hi)`, probing with binary search. Returns the narrowed
/// `(lo, hi)` bracket with no candidate strictly inside. `at` is evaluated
/// only at probed indices, so the candidates may be computed lazily (a
/// Class Jumping gap can span up to `m` jumps).
///
/// Used by the Class-Jumping searches, where candidates are partition
/// boundaries or class jumps. A `None` from `accepts` (the budgeted probes'
/// "budget exceeded" signal) stops the refinement immediately; the bracket
/// then reflects exactly the probes that genuinely ran — `lo` moves only past
/// candidates whose rejection the binary-search invariant certifies (probed,
/// or below a probed rejection), and `hi` only onto candidates probed
/// accepted — so the right-bracket invariant survives interruption. Probes
/// are counted by the caller's `accepts` closure alone — this function
/// deliberately returns no count of its own, so the two can never be added
/// together again (the double-counting bug the repro goldens flushed out).
pub(crate) fn refine_sorted(
    mut lo: Rational,
    mut hi: Rational,
    len: usize,
    at: impl Fn(usize) -> Rational,
    mut accepts: impl FnMut(Rational) -> Option<bool>,
) -> (Rational, Rational) {
    // Find the leftmost accepted candidate, exploiting that everything left
    // of a rejected candidate stays bracketed by `lo`.
    let mut l = 0usize; // at(..l) rejected region boundary
    let mut r = len; // at(r..) accepted region boundary
    while l < r {
        let mid = l + (r - l) / 2;
        match accepts(at(mid)) {
            Some(true) => r = mid,
            Some(false) => l = mid + 1,
            None => break,
        }
    }
    // Finalize from the binary-search invariants alone; they hold both at
    // completion (l == r) and at an interruption (l < r): `at(..l)` are
    // certified rejected (monotone acceptance below the probed rejection at
    // `l - 1`), and `r` moves only onto a probed acceptance.
    if l > 0 {
        lo = at(l - 1);
    }
    if r < len {
        hi = at(r);
    }
    (lo, hi)
}

/// [`refine_sorted`] over a sorted, deduplicated candidate slice, ignoring
/// the candidates outside `(lo, hi)`.
pub(crate) fn refine_right_interval(
    lo: Rational,
    hi: Rational,
    candidates: &[Rational],
    accepts: impl FnMut(Rational) -> Option<bool>,
) -> (Rational, Rational) {
    debug_assert!(candidates.windows(2).all(|w| w[0] < w[1]), "sorted unique");
    let begin = candidates.partition_point(|c| *c <= lo);
    let end = candidates.partition_point(|c| *c < hi).max(begin);
    let inside = &candidates[begin..end];
    refine_sorted(lo, hi, inside.len(), |k| inside[k], accepts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(v: i128) -> Rational {
        Rational::from_int(v)
    }

    fn unlimited() -> SolveBudget {
        SolveBudget::unlimited()
    }

    /// The ε-ladder on `[lo, hi]` to absolute `gap`.
    fn eps(
        lo: Rational,
        hi: Rational,
        gap: Rational,
        src: &mut impl Verdicts<Rational>,
    ) -> Ladder<Rational> {
        climb(lo, hi, || Bracket::try_new(lo, hi, gap), &unlimited(), src)
    }

    /// A fake dual test: accepts exactly T >= threshold.
    fn fake(threshold: Rational) -> impl FnMut(Rational) -> bool {
        move |t| t >= threshold
    }

    #[test]
    fn epsilon_search_converges() {
        // OPT = 137, T_min = 100, ε = 1/100.
        let out = eps(r(100), r(200), r(1), &mut fake(r(137)));
        assert!(out.accepted >= r(137));
        assert!(out.accepted <= r(138)); // within eps * t_min = 1
        assert!(out.rejected.unwrap() < r(137));
        assert!(out.probes <= 12);
    }

    #[test]
    fn epsilon_search_immediate_accept() {
        let out = eps(r(100), r(200), r(10), &mut fake(r(50)));
        assert_eq!(out.accepted, r(100));
        assert_eq!(out.rejected, None);
        assert_eq!(out.probes, 1);
    }

    #[test]
    fn epsilon_probe_count_scales_with_log_inv_eps() {
        let coarse = eps(r(1000), r(2000), r(250), &mut fake(r(1999)));
        let fine = eps(
            r(1000),
            r(2000),
            Rational::new(1000, 4096),
            &mut fake(r(1999)),
        );
        assert!(coarse.probes < fine.probes);
        assert!(fine.probes <= 16);
    }

    /// The warm ladder over the cold one, returning the memo's counters.
    fn warm(
        lo: Rational,
        hi: Rational,
        gap: Rational,
        hint: (Rational, Rational),
        mut probe: impl FnMut(Rational) -> bool,
    ) -> (Ladder<Rational>, usize, usize) {
        let mut w = Warm::new(&mut probe, lo, hi, hint);
        let out = eps(lo, hi, gap, &mut w);
        (out, w.skipped, w.seeds)
    }

    /// The warm ladder with any hint — tight, loose, stale, inverted —
    /// returns the cold ladder's exact bracket and committed probe count.
    #[test]
    fn warm_search_bracket_is_bit_identical_to_cold_for_any_hint() {
        for threshold in [101, 137, 150, 199] {
            let cold = eps(r(100), r(200), r(1), &mut fake(r(threshold)));
            for hint in [
                (r(threshold - 1), r(threshold + 1)), // tight and correct
                (r(100), r(200)),                     // the whole window
                (r(1), r(5)),                         // stale, below the window
                (r(500), r(900)),                     // stale, above the window
                (r(190), r(110)),                     // inverted
            ] {
                let mut evals = 0;
                let (out, skipped, seeds) = warm(r(100), r(200), r(1), hint, |t| {
                    evals += 1;
                    t >= r(threshold)
                });
                assert_eq!(out, cold);
                assert_eq!(evals, out.probes - skipped + seeds);
                // A warm solve never probes more than cold + the two seeds.
                assert!(evals <= cold.probes + 2);
            }
        }
    }

    /// Immediate-accept replays identically too (accepted = t_lo, no
    /// rejection certificate, no seeds).
    #[test]
    fn warm_search_immediate_accept_matches_cold() {
        let cold = eps(r(100), r(200), r(1), &mut fake(r(50)));
        let (out, _, seeds) = warm(r(100), r(200), r(1), (r(90), r(110)), fake(r(50)));
        assert_eq!(out, cold);
        assert_eq!((out.accepted, out.rejected, seeds), (r(100), None, 0));
    }

    /// A tight hint answers most bisection queries from the two seed
    /// probes: the savings the online layer is built on.
    #[test]
    fn tight_hint_probes_a_fraction_of_cold() {
        let threshold = r(137);
        let gap = Rational::new(1, 1 << 20); // deep search: many cold probes
        let cold = eps(r(100), r(200), gap, &mut fake(threshold));
        let hint = (cold.rejected.unwrap(), cold.accepted);
        let mut evals = 0;
        let (out, skipped, seeds) = warm(r(100), r(200), gap, hint, |t| {
            evals += 1;
            t >= threshold
        });
        assert_eq!(out, cold);
        // The previous bracket is gap-narrow, so the replayed bisection
        // resolves every query from the memo until it re-enters the hint
        // interval: only the two seeds plus O(1) boundary probes run.
        assert_eq!(seeds, 2);
        assert!(
            evals <= 4,
            "expected nearly free replay, ran {evals} probes"
        );
        assert_eq!(evals, cold.probes - skipped + seeds);
    }

    /// A wrong hint degrades probe count, never the answer.
    #[test]
    fn useless_hint_costs_nothing_once_clamped() {
        let cold = eps(r(100), r(200), r(1), &mut fake(r(137)));
        let (out, skipped, seeds) = warm(r(100), r(200), r(1), (r(1), r(2)), fake(r(137)));
        assert_eq!(out, cold);
        // Both hints clamp to t_lo = 100, whose rejection the replay's own
        // first query already proved: the seeds resolve from the memo for
        // free and the warm search degrades to exactly the cold one.
        assert_eq!((skipped, seeds), (0, 0));
    }

    #[test]
    fn integer_search_is_exact() {
        let out = climb(
            100,
            200,
            || Some(IntBracket::new(100, 200)),
            &unlimited(),
            &mut |t| t >= 137,
        );
        assert_eq!(out.accepted, 137);
        assert_eq!(out.rejected, Some(136));
    }

    #[test]
    fn integer_search_immediate() {
        let out = climb(
            100,
            200,
            || Some(IntBracket::new(100, 200)),
            &unlimited(),
            &mut |_| true,
        );
        assert_eq!(out.accepted, 100);
        assert_eq!(out.rejected, None);
    }

    #[test]
    fn ladder_charges_one_unit_per_committed_query() {
        for limit in 0..12 {
            let budget = SolveBudget::unlimited().with_work_limit(limit);
            let out = climb(
                100,
                1000,
                || Some(IntBracket::new(100, 1000)),
                &budget,
                &mut |t| t >= 137,
            );
            assert_eq!(out.probes as u64, limit.min(out.probes as u64));
            assert_eq!(out.interrupt.is_some(), out.probes as u64 == limit);
            // The interrupted bracket stays a genuine right bracket.
            assert!(out.accepted >= 137);
            assert!(out.rejected.is_none_or(|lo| lo < 137));
        }
    }

    fn refine(lo: i128, hi: i128, cands: &[i128], threshold: i128) -> (Rational, Rational) {
        let cands: Vec<Rational> = cands.iter().map(|&c| r(c)).collect();
        refine_right_interval(r(lo), r(hi), &cands, |t| Some(t >= r(threshold)))
    }

    #[test]
    fn refine_narrows_to_candidate_free_bracket() {
        // No candidate strictly inside (lo, hi); bracket still brackets 57.
        assert_eq!(refine(10, 100, &[20, 40, 60, 80], 57), (r(40), r(60)));
    }

    #[test]
    fn refine_all_rejected() {
        assert_eq!(refine(10, 100, &[20, 40], 99), (r(40), r(100)));
    }

    #[test]
    fn refine_all_accepted() {
        assert_eq!(refine(10, 100, &[20, 40], 15), (r(10), r(20)));
    }

    #[test]
    fn refine_ignores_outside_candidates() {
        assert_eq!(refine(10, 100, &[5, 10, 50, 100, 120], 60), (r(50), r(100)));
    }

    /// The indexed form never materializes its candidates: `2^40` lazily
    /// computed guesses narrow to the exact one-step bracket around the
    /// threshold in at most `⌈log2(2^40 + 1)⌉ = 41` probes.
    #[test]
    fn refine_sorted_bisects_lazy_candidates() {
        let len = 1usize << 40;
        let threshold = 987_654_321_012_i128;
        let mut probes = 0;
        let out = refine_sorted(
            r(-1),
            r(len as i128),
            len,
            |k| r(k as i128),
            |t| {
                probes += 1;
                Some(t >= r(threshold))
            },
        );
        assert_eq!(out, (r(threshold - 1), r(threshold)));
        assert!(probes <= 41, "{probes} probes");
    }
}
