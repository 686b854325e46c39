//! Class Jumping for the preemptive variant (Algorithm 4, Theorem 6): the
//! hooks of [`crate::jumping::class_jumping`].
//!
//! The splittable search's skeleton, with two changes (Section 4.4):
//!
//! * `I⁺_exp` classes are wrapped with the γ-count, whose jumps
//!   `T = 2(s_i + P_i)/(γ + 2)` depend on `s_i + P_i` — so the *fastest
//!   jumping class* is the one maximizing `s_i + P_i` (Lemma 5);
//! * the guess also determines the partitions `I⁺/⁰/⁻_exp`, `I±_chp`, the
//!   big-job sets `C*_i` and the knapsack zero-set, so step 2 first pins all
//!   partition thresholds (`2s_i`, `4s_i`, `s_i+P_i`, `4(s_i+P_i)/3`,
//!   `2(s_i+t_j)`) with binary searches.
//!
//! The paper leaves the stabilization of the knapsack zero-set schematic; as
//! documented in DESIGN.md we finish with a bounded fixed-point iteration
//! `T ← L_pmtn(T)/m` inside the final jump-free bracket. The returned guess
//! is always *accepted* (so `makespan <= 3/2 · accepted` unconditionally);
//! its optimality (`accepted <= OPT`) is validated against exact optima in
//! the test suite and against certificates in the benches.

use bss_instance::{ClassId, Instance, Variant};
use bss_rational::Rational;

use crate::api::Built;
use crate::classify::{gamma, Classification};
use crate::jumping::{Jumps, Prober};
use crate::workspace::DualWorkspace;
use crate::Trace;

use super::dual::{accepts_in, aggregates_in, build_in};
use super::CountMode;

const MODE: CountMode = CountMode::Gamma;

/// The preemptive hooks: the γ-count dual, every partition threshold, and
/// the `I⁺_exp` classes jumping at `2(s_i + P_i)/(γ_i + 2)`.
pub(crate) struct Pmtn;

impl Jumps for Pmtn {
    const VARIANT: Variant = Variant::Preemptive;
    /// `w = γ + 2` with `γ >= 1`.
    const MIN_INDEX: i128 = 3;

    fn accepts(ws: &mut DualWorkspace, inst: &Instance, t: Rational) -> bool {
        accepts_in(ws, inst, t, MODE)
    }

    fn build(ws: &mut DualWorkspace, inst: &Instance, t: Rational) -> Option<Built> {
        build_in(ws, inst, t, MODE, &mut Trace::disabled())
    }

    fn thresholds(inst: &Instance, out: &mut Vec<Rational>) {
        for i in 0..inst.num_classes() {
            let s = inst.setup(i);
            let sp = s + inst.class_proc(i);
            out.push(Rational::from(2 * s)); // expensive/cheap
            out.push(Rational::from(4 * s)); // I+chp / I−chp
            out.push(Rational::from(sp)); // I+exp / I0exp
            out.push(Rational::new(4 * sp as i128, 3)); // I0exp / I−exp
        }
        for job in inst.jobs() {
            out.push(Rational::from(2 * (inst.setup(job.class) + job.time))); // C*
        }
    }

    fn jumpers(cls: &Classification, out: &mut Vec<ClassId>) {
        out.extend_from_slice(&cls.iexp_plus);
    }

    fn half_numerator(inst: &Instance, i: ClassId) -> u64 {
        inst.setup(i) + inst.class_proc(i)
    }

    fn index(inst: &Instance, t: Rational, i: ClassId) -> usize {
        gamma(inst, t, i) + 2
    }

    /// The finishing case analysis (step 9 analogue) with a bounded
    /// fixed-point iteration for the knapsack wobble. The load evaluation
    /// `L_pmtn(T)` is the probe's own aggregate computation
    /// ([`aggregates_in`]), so the logic exists exactly once.
    ///
    /// Inside the jump-free bracket the reject constraints are piecewise
    /// linear in `T`, so the accept boundary is one of three crossings:
    ///
    /// * the load bound `L_pmtn(T) <= m T` (constant `L_pmtn` up to the
    ///   knapsack zero-set, hence the fixed-point iteration);
    /// * the case-3.a capacity `Y(T) = F - L* >= 0`, with slope
    ///   `(m - l) + |C*|/2`;
    /// * the case-3.a membership flip itself, where `F(T)` (slope `m - l`)
    ///   crosses `Σ_{I*chp} (s_i + P(C_i))` — below it the capacity
    ///   constraint re-engages, so the plain load crossing is only valid
    ///   above it.
    ///
    /// Each round evaluates the structure at the bracket midpoint, takes the
    /// largest in-bracket crossing as the candidate, and probes it: accepted
    /// candidates are returned (the boundary, up to zero-set wobble),
    /// rejected ones shrink the bracket from the left. When every locally
    /// visible constraint clears the bracket yet `lo` is rejected, the
    /// structure flips somewhere below the midpoint and the bracket bisects
    /// instead. An interrupted probe returns the accepted right end.
    fn finish(
        ws: &mut DualWorkspace,
        inst: &Instance,
        mut lo: Rational,
        mut hi: Rational,
        p: &mut Prober<'_>,
    ) -> Rational {
        let m = inst.machines();
        for _ in 0..32 {
            let mid = (lo + hi).half();
            // The crossing candidates reduce to structure-sized
            // denominators, but the bisection branch doubles `mid`'s
            // denominator each round — and a fine guess compounds downstream
            // (the knapsack fraction and the split-piece lengths cube it).
            // Cap it well inside `i128` headroom; `hi` is accepted, and an
            // optimum wedged less than 2^-12 of the bracket above a rejected
            // `lo` would need a larger denominator than any schedule of these
            // integral instances has.
            if mid.denom() > 1 << 12 {
                return hi;
            }
            // `None` here means `m < m'` or below the trivial bound — both
            // constant on the bracket, so the right end is the answer.
            let Some(agg) = aggregates_in(ws, inst, mid, MODE) else {
                return hi;
            };
            let l = ws.cls.iexp_zero.len();
            let mut t_new = agg.l_pmtn.reduce() / m;
            if agg.case_a {
                let slope =
                    Rational::from((m - l) as u64) + Rational::new(i128::from(agg.big_total), 2);
                if slope.is_positive() {
                    t_new = t_new.max(mid - agg.y.reduce() / slope);
                } else if agg.y.is_negative() {
                    return hi; // Y < 0 and non-increasing: the bracket rejects
                }
            } else if m > l {
                let t_a = mid
                    - (agg.f_free.reduce() - agg.istar_full.reduce())
                        / Rational::from((m - l) as u64);
                t_new = t_new.max(t_a);
            }
            if t_new >= hi {
                return hi;
            }
            if t_new <= lo {
                // Locally everything above `lo` accepts, yet `lo` was
                // rejected: a structure flip hides below `mid`; bisect
                // toward it.
                match p.probe::<Self>(ws, inst, mid) {
                    Some(true) => hi = mid,
                    Some(false) => lo = mid,
                    None => return hi, // interrupted: the right end is accepted
                }
                continue;
            }
            match p.probe::<Self>(ws, inst, t_new) {
                Some(true) => return t_new,
                // The structure at t_new differs (zero-set moved): shrink, retry.
                Some(false) => lo = t_new,
                None => return hi, // interrupted: the right end is accepted
            }
        }
        hi
    }
}

#[cfg(test)]
mod tests {
    use bss_budget::SolveBudget;
    use bss_instance::{InstanceBuilder, LowerBounds, Variant};
    use bss_schedule::{validate, Schedule};

    use super::*;
    use crate::api::ScheduleRepr;
    use crate::search::SearchOutcome;

    /// Class Jumping on a fresh workspace, unbudgeted, with its schedule.
    fn class_jumping(inst: &Instance) -> (SearchOutcome, Schedule) {
        let out = crate::jumping::class_jumping::<Pmtn>(
            &mut DualWorkspace::new(),
            inst,
            &SolveBudget::unlimited(),
        );
        let ScheduleRepr::Explicit(s) = &out.built.repr else {
            panic!("preemptive schedules are explicit");
        };
        let s = s.clone();
        (out, s)
    }

    fn check(inst: &Instance) -> (Rational, Rational) {
        let (out, schedule) = class_jumping(inst);
        let v = validate(&schedule, inst, Variant::Preemptive);
        assert!(v.is_empty(), "{v:?}");
        let makespan = schedule.makespan();
        assert_eq!(
            out.built.makespan, makespan,
            "the build reports its makespan"
        );
        assert!(
            makespan <= out.accepted * Rational::new(3, 2),
            "makespan {makespan} > 3/2 · {}",
            out.accepted
        );
        let tmin = LowerBounds::of(inst).tmin(Variant::Preemptive);
        assert!(out.accepted >= tmin);
        assert!(out.accepted <= tmin * 2u64);
        if let Some(rej) = out.rejected {
            assert!(rej < out.accepted);
        }
        (out.accepted, makespan)
    }

    #[test]
    fn uniform_suite() {
        for seed in 0..25 {
            check(&bss_gen::uniform(60, 8, 4, seed));
        }
    }

    #[test]
    fn paper_instances() {
        check(&bss_gen::paper::fig2_nice_preemptive());
        check(&bss_gen::paper::fig3_general_preemptive());
        check(&bss_gen::paper::fig5_gamma_preemptive());
    }

    #[test]
    fn expensive_and_single_job_suites() {
        for seed in 0..10 {
            check(&bss_gen::expensive_setups(40, 5, seed));
            check(&bss_gen::single_job_batches(30, 4, seed));
        }
    }

    #[test]
    fn small_batches_suite() {
        for seed in 0..10 {
            check(&bss_gen::small_batches(50, 4, seed));
        }
    }

    /// `m >= n` takes the one-job-per-machine schedule of the solve driver.
    #[test]
    fn trivial_many_machines() {
        let mut b = InstanceBuilder::new(10);
        b.add_batch(5, &[7, 3]);
        let inst = b.build().unwrap();
        let out = crate::solve(&inst, Variant::Preemptive, crate::Algorithm::ThreeHalves);
        assert_eq!(out.schedule().makespan(), Rational::from(12u64));
        assert!(validate(out.schedule(), &inst, Variant::Preemptive).is_empty());
    }

    /// The accepted guess should essentially match the ε-search's.
    #[test]
    fn agrees_with_epsilon_search() {
        for seed in 0..10 {
            let inst = bss_gen::uniform(50, 7, 4, seed);
            let eps = crate::solve(
                &inst,
                Variant::Preemptive,
                crate::Algorithm::EpsilonSearch { eps_log2: 12 },
            );
            let (jump, _) = class_jumping(&inst);
            let slack = Rational::new(4097, 4096);
            assert!(
                jump.accepted <= eps.accepted * slack,
                "seed {seed}: jumping {} vs eps {}",
                jump.accepted,
                eps.accepted
            );
        }
    }
}
