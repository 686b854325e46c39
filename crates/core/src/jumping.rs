//! Class Jumping: the 3/2-approximation search of the splittable (Algorithm
//! 1, Theorem 3) and preemptive (Algorithm 4, Theorem 6) variants.
//!
//! A *jump* of a class `i` is a guess `T = 2N_i/w` (`w ∈ N`) at which its
//! machine count changes. The search keeps a right interval `(lo, hi]` (`lo`
//! rejected, `hi` accepted) and narrows it with binary searches until no
//! partition threshold and no jump lies strictly inside; there the load is
//! constant, so a finishing move finds the smallest acceptable guess.
//! [`class_jumping`] runs those steps once for both variants; [`Jumps`]
//! supplies what Section 4.4 changes between them: the thresholds, the
//! jumping classes, the jump numerators and indices, the dual, and the
//! finishing move.

use bss_budget::{Interrupt, SolveBudget};
use bss_instance::{ClassId, Instance, LowerBounds, Variant};
use bss_rational::Rational;

use crate::api::Built;
use crate::classify::{classify_into, Classification};
use crate::search::{refine_right_interval, refine_sorted, SearchOutcome};
use crate::workspace::DualWorkspace;

/// The per-variant hooks of [`class_jumping`].
pub(crate) trait Jumps {
    /// The variant whose `T_min` seeds the window `[T_min, 2·T_min]`.
    const VARIANT: Variant;
    /// The smallest jump index `w` the variant's count can take.
    const MIN_INDEX: i128;
    /// The dual accept test at guess `t`.
    fn accepts(ws: &mut DualWorkspace, inst: &Instance, t: Rational) -> bool;
    /// The dual build at an accepted guess `t`.
    fn build(ws: &mut DualWorkspace, inst: &Instance, t: Rational) -> Option<Built>;
    /// Pushes every guess at which the class partition may change.
    fn thresholds(inst: &Instance, out: &mut Vec<Rational>);
    /// Pushes the jumping classes of the partition `cls`.
    fn jumpers(cls: &Classification, out: &mut Vec<ClassId>);
    /// `N_i`: class `i` jumps at `2N_i/w`.
    fn half_numerator(inst: &Instance, i: ClassId) -> u64;
    /// Class `i`'s jump index `w` at guess `t`.
    fn index(inst: &Instance, t: Rational, i: ClassId) -> usize;
    /// The smallest acceptable guess on a jump-free right interval `(lo,
    /// hi]`; `hi` when no probe finds a smaller one.
    fn finish(
        ws: &mut DualWorkspace,
        inst: &Instance,
        lo: Rational,
        hi: Rational,
        p: &mut Prober<'_>,
    ) -> Rational;
}

/// The budgeted probe shared by every step of one search.
pub(crate) struct Prober<'b> {
    budget: &'b SolveBudget,
    probes: usize,
    stop: Option<Interrupt>,
}

impl Prober<'_> {
    /// One dual test: charges the budget, counts the probe, then runs the
    /// accept test. `None` means the budget interrupted, now or earlier: the
    /// test did not run, and no later one will.
    pub(crate) fn probe<J: Jumps>(
        &mut self,
        ws: &mut DualWorkspace,
        inst: &Instance,
        t: Rational,
    ) -> Option<bool> {
        if self.stop.is_some() {
            return None;
        }
        if let Err(i) = self.budget.charge_probe() {
            self.stop = Some(i);
            return None;
        }
        self.probes += 1;
        Some(J::accepts(ws, inst, t))
    }
}

/// Runs Class Jumping under a cooperative budget; the schedule is built
/// once, at the returned accepted guess (makespan `<= 3/2 · accepted`).
///
/// Bit-identical to the unbudgeted search when the budget never trips. On
/// interruption the search winds down to its current right bracket `hi` —
/// accepted throughout by the search invariant — builds there, and reports
/// the interrupt: `accepted` may then sit above `OPT`, while `rejected`
/// stays restricted to genuinely certified rejections.
pub(crate) fn class_jumping<J: Jumps>(
    ws: &mut DualWorkspace,
    inst: &Instance,
    budget: &SolveBudget,
) -> SearchOutcome {
    let mut p = Prober {
        budget,
        probes: 0,
        stop: None,
    };
    let t_min = LowerBounds::of(inst).tmin(J::VARIANT);
    let (mut lo, mut hi) = (t_min, t_min * 2u64);
    match p.probe::<J>(ws, inst, t_min) {
        Some(true) => return outcome::<J>(ws, inst, t_min, None, &p),
        Some(false) => {}
        // Interrupted before anything was learned: Theorem 1's window top
        // is accepted unconditionally; build there, certify nothing.
        None => return outcome::<J>(ws, inst, hi, None, &p),
    }
    // Checked without `probe`: the counted probe sequence must be identical
    // in debug and release builds (the repro goldens commit probe counts).
    debug_assert!(J::accepts(ws, inst, hi), "2·T_min is accepted (Theorem 1)");

    // Pin the partition: no threshold strictly inside (lo, hi). The
    // candidate buffer is workspace-owned; it is taken out for the probe
    // loop (probes borrow the whole workspace) and put back afterwards, so
    // warm searches reuse its allocation. An interrupt inside any refinement
    // stops it at the certified sub-bracket (probes return `None` from then
    // on, so later stages fall through to `hi`).
    let mut thresholds = core::mem::take(&mut ws.thresholds);
    thresholds.clear();
    J::thresholds(inst, &mut thresholds);
    thresholds.sort_unstable();
    thresholds.dedup();
    (lo, hi) = refine_right_interval(lo, hi, &thresholds, |t| p.probe::<J>(ws, inst, t));
    ws.thresholds = thresholds;

    // The partition is now constant on the open interval; evaluate it at the
    // midpoint. The jumping classes are copied out of the probe
    // classification (later probes overwrite it).
    classify_into(inst, (lo + hi).half(), &mut ws.cls);
    let mut jumpers = core::mem::take(&mut ws.jump_classes);
    jumpers.clear();
    J::jumpers(&ws.cls, &mut jumpers);

    if p.stop.is_none() && !jumpers.is_empty() {
        // The fastest jumping class f (largest N_f; the last one on ties).
        let f = *jumpers
            .iter()
            .max_by_key(|&&i| J::half_numerator(inst, i))
            .expect("non-empty");
        let nf2 = Rational::from(2 * J::half_numerator(inst, f));

        // Narrow to one jump gap of f: its jumps inside (lo, hi) are 2N_f/w
        // for w in [w_lo, w_hi] (the smallest w with 2N_f/w < hi, the
        // largest with 2N_f/w > lo), bisected lazily in increasing guess
        // order.
        let w_lo = ((nf2 / hi).floor() + 1).max(J::MIN_INDEX);
        let c = nf2 / lo;
        let w_hi = if c.is_integer() {
            c.floor() - 1
        } else {
            c.floor()
        };
        if w_lo <= w_hi {
            let len = usize::try_from(w_hi - w_lo + 1).expect("jump count fits usize");
            (lo, hi) = refine_sorted(
                lo,
                hi,
                len,
                |k| nf2 / (w_hi - k as i128),
                |t| p.probe::<J>(ws, inst, t),
            );
        }

        // Inside one f-gap each class jumps at most once (Lemmas 3 and 5):
        // collect and pin those jumps.
        if p.stop.is_none() {
            let mut jumps = core::mem::take(&mut ws.jumps);
            jumps.clear();
            for &i in &jumpers {
                let cand = Rational::from(2 * J::half_numerator(inst, i)) / J::index(inst, hi, i);
                if lo < cand && cand < hi {
                    jumps.push(cand);
                }
            }
            jumps.sort_unstable();
            jumps.dedup();
            (lo, hi) = refine_right_interval(lo, hi, &jumps, |t| p.probe::<J>(ws, inst, t));
            ws.jumps = jumps;
        }
    }
    ws.jump_classes = jumpers;

    let chosen = if p.stop.is_some() {
        hi
    } else {
        J::finish(ws, inst, lo, hi, &mut p)
    };
    outcome::<J>(ws, inst, chosen, Some(lo), &p)
}

/// Builds at the accepted guess `accepted` and reports the search.
fn outcome<J: Jumps>(
    ws: &mut DualWorkspace,
    inst: &Instance,
    accepted: Rational,
    rejected: Option<Rational>,
    p: &Prober<'_>,
) -> SearchOutcome {
    SearchOutcome {
        built: J::build(ws, inst, accepted).expect("Class Jumping builds at an accepted guess"),
        accepted,
        rejected,
        probes: p.probes,
        interrupt: p.stop,
    }
}
