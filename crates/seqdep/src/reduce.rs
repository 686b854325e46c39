//! The two reductions bridging batch setups and sequence-dependent setups.
//!
//! The Jansen–Maack–Mäcker line (arXiv:1809.10428) treats batch setups as
//! the **uniform** special case of sequence-dependent setups: switching into
//! class `c'` costs `s(c')` no matter where the machine comes from,
//! `s(c, c') = s(c')`. Two first-class adapters make that bridge concrete:
//!
//! * [`to_uniform_instance`] — `SeqDepInstance → Instance` for instances
//!   that *are* uniform: bit-exact on setups and per-class work (one job of
//!   time `P_j` per class), solvable by the paper's near-linear algorithms.
//!   For a uniform instance the two models' optima **coincide exactly**
//!   (see the guarantee accounting below), so a `ρ`-approximation for the
//!   non-preemptive batch-setup problem is a `ρ`-approximation here.
//! * [`from_instance`] — `Instance → SeqDepInstance` for heuristic
//!   cross-checks: classes aggregate to single batches
//!   (`class_proc_j = P(C_j)`, `initial_j = switch(·, j) = s_j`), which
//!   *restricts* the batch-setup problem (a class can no longer split into
//!   several batches), so any seqdep-side schedule maps to a feasible
//!   non-preemptive schedule of the original with the same makespan, and
//!   seqdep makespans upper-bound `OPT_nonp`.
//!
//! # Guarantee accounting
//!
//! For a **uniform** `SeqDepInstance` `I` and its reduction `R(I)`:
//!
//! * any seqdep assignment (orders per machine) yields a non-preemptive
//!   schedule of `R(I)` with the *same* machine completion times — the order
//!   within a machine does not matter under uniform setups;
//! * any feasible non-preemptive schedule of `R(I)` runs each class's single
//!   job contiguously on one machine; dropping idle time gives a seqdep
//!   assignment whose makespan is no larger.
//!
//! Hence `OPT_seqdep(I) = OPT_nonp(R(I))` and approximation guarantees
//! transfer **unchanged** in both directions. [`orders_from_schedule`]
//! performs the schedule-side mapping back.

use bss_instance::{Instance, InstanceBuilder, InstanceError};
use bss_schedule::{ItemKind, Schedule};

use crate::SeqDepInstance;

/// Why a [`SeqDepInstance`] cannot be reduced to a batch-setup [`Instance`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReductionError {
    /// `switch[from][to] != initial[to]`: the instance is genuinely
    /// sequence-dependent.
    NonUniform {
        /// Source class of the offending entry.
        from: usize,
        /// Target class of the offending entry.
        to: usize,
    },
    /// `switch[class][class] != 0`: the canonical form requires a zero
    /// diagonal (a class never switches to itself), without which the
    /// round-trip cannot be bit-exact.
    NonZeroDiagonal {
        /// The offending class.
        class: usize,
    },
    /// `initial[class] == 0`: the batch-setup model requires `s_i >= 1`.
    ZeroSetup {
        /// The offending class.
        class: usize,
    },
    /// `class_proc[class] == 0`: the batch-setup model requires `t_j >= 1`.
    ZeroWork {
        /// The offending class.
        class: usize,
    },
    /// The reduced data violates the batch-setup model (e.g. the total-load
    /// cap).
    Model(InstanceError),
}

impl core::fmt::Display for ReductionError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ReductionError::NonUniform { from, to } => write!(
                f,
                "switch({from}, {to}) differs from initial({to}): not the uniform special case"
            ),
            ReductionError::NonZeroDiagonal { class } => {
                write!(f, "switch({class}, {class}) is non-zero (canonical form)")
            }
            ReductionError::ZeroSetup { class } => {
                write!(
                    f,
                    "class {class} has zero initial setup (model needs s >= 1)"
                )
            }
            ReductionError::ZeroWork { class } => {
                write!(f, "class {class} has zero work (model needs t >= 1)")
            }
            ReductionError::Model(e) => write!(f, "reduced instance invalid: {e}"),
        }
    }
}

impl std::error::Error for ReductionError {}

/// `true` iff `inst` is the uniform special case `s(c, c') = s(c')` in
/// canonical form (zero diagonal) with representable setups and work.
#[must_use]
pub fn is_uniform(inst: &SeqDepInstance) -> bool {
    to_uniform_instance(inst).is_ok()
}

/// Reduces a *uniform* sequence-dependent instance to a batch-setup
/// [`Instance`]: class `j` keeps machine count `m`, setup `initial_j`, and a
/// single job of time `class_proc_j` (job id = class id). Bit-exact: the
/// round trip through [`from_instance`] reproduces `inst`.
///
/// # Errors
/// [`ReductionError`] when the instance is not uniform, not canonical, or
/// not representable in the batch-setup model (`s, t >= 1`).
pub fn to_uniform_instance(inst: &SeqDepInstance) -> Result<Instance, ReductionError> {
    let c = inst.num_classes();
    // The streamed uniform backing is uniform with a zero diagonal *by
    // construction*: only the per-class positivity checks remain, and the
    // `O(c²)` matrix scan is skipped entirely.
    let scan_matrix = !inst.has_uniform_backing();
    for j in 0..c {
        if scan_matrix && inst.switch(j, j) != 0 {
            return Err(ReductionError::NonZeroDiagonal { class: j });
        }
        if inst.initial(j) == 0 {
            return Err(ReductionError::ZeroSetup { class: j });
        }
        if inst.class_proc(j) == 0 {
            return Err(ReductionError::ZeroWork { class: j });
        }
        if scan_matrix {
            for i in 0..c {
                if i != j && inst.switch(i, j) != inst.initial(j) {
                    return Err(ReductionError::NonUniform { from: i, to: j });
                }
            }
        }
    }
    let mut b = InstanceBuilder::new(inst.machines());
    for j in 0..c {
        let class = b.add_class(inst.initial(j));
        b.add_job(class, inst.class_proc(j));
    }
    b.build().map_err(ReductionError::Model)
}

/// Embeds a batch-setup [`Instance`] into the sequence-dependent model:
/// class `j` aggregates to one batch of work `P(C_j)` with uniform entry
/// cost `s_j` from everywhere (zero diagonal).
///
/// The embedding *restricts* the original problem — a class can no longer be
/// split into several batches — so seqdep-side makespans are upper bounds on
/// the non-preemptive batch-setup optimum, which is what makes it useful as
/// a heuristic cross-check.
///
/// Runs in `O(c)` time and memory: the uniform switch matrix is *streamed*
/// from the setup vector ([`SeqDepInstance::uniform`]), never materialized —
/// at `c = 2500` that is two length-`c` vectors instead of a 50 MB matrix.
#[must_use]
pub fn from_instance(inst: &Instance) -> SeqDepInstance {
    let c = inst.num_classes();
    let initial: Vec<u64> = (0..c).map(|j| inst.setup(j)).collect();
    let class_proc: Vec<u64> = (0..c).map(|j| inst.class_proc(j)).collect();
    SeqDepInstance::uniform(inst.machines(), initial, class_proc)
        .expect("a valid Instance embeds within the seqdep caps (same 2^60 budget)")
}

/// Maps a feasible **non-preemptive** schedule of a reduced instance (one
/// job per class, job id = class id) back to per-machine class orders:
/// machine `u`'s order is its job pieces sorted by start time.
///
/// The orders satisfy `inst.makespan(orders) <= schedule.makespan()` (idle
/// time is dropped; under uniform setups the order itself is cost-free).
#[must_use]
pub fn orders_from_schedule(schedule: &Schedule, reduced: &Instance) -> Vec<Vec<usize>> {
    let mut orders: Vec<Vec<usize>> = vec![Vec::new(); schedule.machines()];
    let mut spans: Vec<(usize, bss_rational::Rational, usize)> = schedule
        .placements()
        .iter()
        .filter_map(|p| match p.kind {
            ItemKind::Piece { job, .. } => Some((p.machine, p.start, reduced.job(job).class)),
            ItemKind::Setup(_) => None,
        })
        .collect();
    spans.sort_unstable_by_key(|&(machine, start, _)| (machine, start));
    for (machine, _, class) in spans {
        orders[machine].push(class);
    }
    // Drop idle machines from the tail so the orders stay within m even when
    // the schedule object carries more machine slots than the instance.
    while matches!(orders.last(), Some(o) if o.is_empty()) {
        orders.pop();
    }
    orders
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_seqdep() -> SeqDepInstance {
        // 3 classes, uniform entry costs 4/2/5, work 7/3/9, 2 machines.
        let setups = [4u64, 2, 5];
        let switch: Vec<Vec<u64>> = (0..3)
            .map(|i| (0..3).map(|j| if i == j { 0 } else { setups[j] }).collect())
            .collect();
        SeqDepInstance::new(2, setups.to_vec(), switch, vec![7, 3, 9]).unwrap()
    }

    #[test]
    fn uniform_reduction_is_bit_exact() {
        let sd = uniform_seqdep();
        let reduced = to_uniform_instance(&sd).unwrap();
        assert_eq!(reduced.machines(), 2);
        assert_eq!(reduced.num_classes(), 3);
        for j in 0..3 {
            assert_eq!(reduced.setup(j), sd.initial(j));
            assert_eq!(reduced.class_proc(j), sd.class_proc(j));
            assert_eq!(reduced.class_jobs(j), &[j]);
        }
        // Round trip reproduces the instance exactly.
        assert_eq!(from_instance(&reduced), sd);
    }

    #[test]
    fn non_uniform_rejected() {
        let mut bad = vec![vec![0, 2, 5], vec![4, 0, 5], vec![4, 2, 0]];
        bad[1][2] = 6; // breaks uniformity
        let sd = SeqDepInstance::new(2, vec![4, 2, 5], bad, vec![7, 3, 9]).unwrap();
        assert_eq!(
            to_uniform_instance(&sd).unwrap_err(),
            ReductionError::NonUniform { from: 1, to: 2 }
        );
        assert!(!is_uniform(&sd));
    }

    #[test]
    fn canonical_and_model_violations_rejected() {
        // Non-zero diagonal.
        let sd =
            SeqDepInstance::new(1, vec![1, 1], vec![vec![3, 1], vec![1, 0]], vec![1, 1]).unwrap();
        assert_eq!(
            to_uniform_instance(&sd).unwrap_err(),
            ReductionError::NonZeroDiagonal { class: 0 }
        );
        // Zero work (TSP-style classes are not representable).
        let sd = SeqDepInstance::from_tsp_path(vec![vec![0, 1], vec![1, 0]]).unwrap();
        assert_eq!(
            to_uniform_instance(&sd).unwrap_err(),
            ReductionError::ZeroWork { class: 0 }
        );
        // Zero initial setup.
        let sd =
            SeqDepInstance::new(1, vec![0, 1], vec![vec![0, 1], vec![0, 0]], vec![1, 1]).unwrap();
        assert_eq!(
            to_uniform_instance(&sd).unwrap_err(),
            ReductionError::ZeroSetup { class: 0 }
        );
    }

    #[test]
    fn orders_round_trip_through_schedules() {
        use bss_rational::Rational;
        let sd = uniform_seqdep();
        let reduced = to_uniform_instance(&sd).unwrap();
        // Hand-build a contiguous schedule: machine 0 runs classes 0 then 2,
        // machine 1 runs class 1.
        let mut s = Schedule::new(2);
        let mut t = Rational::ZERO;
        for class in [0usize, 2] {
            let setup = Rational::from(reduced.setup(class));
            s.push_setup(0, t, setup, class);
            t += setup;
            let len = Rational::from(reduced.class_proc(class));
            s.push_piece(0, t, len, class, class);
            t += len;
        }
        s.push_setup(1, Rational::ZERO, Rational::from(2u64), 1);
        s.push_piece(1, Rational::from(2u64), Rational::from(3u64), 1, 1);

        let orders = orders_from_schedule(&s, &reduced);
        assert_eq!(orders, vec![vec![0, 2], vec![1]]);
        assert_eq!(Rational::from(sd.makespan(&orders)), s.makespan());
    }
}
