//! Exact certification backend: branch-and-bound OPT oracles for tiny
//! instances of every problem the workspace solves.
//!
//! The golden repro pipeline measures every algorithm against *lower
//! bounds*; this crate closes the gap to honest ratios by computing the
//! exact optimum — in exact rationals, with a proof — for
//!
//! * the three batch-setup variants ([`solve_bss`]): splittable optima via
//!   coverage enumeration over the Gale–Hoffman transportation bound
//!   (`bounds::coverage_gale_bound`), non-preemptive optima via a
//!   dominance-pruned assignment search, preemptive optima via the
//!   `OPT_split ≤ OPT_pmtn ≤ OPT_nonp` sandwich plus an exact wrap-around
//!   realization of the lower end;
//! * sequence-dependent setups ([`solve_seqdep`]): branch-and-bound over
//!   per-machine class orders with big-M-free sequencing bounds.
//!
//! Every search carries an *anytime incumbent*: when the configurable node
//! budget ([`ExactConfig::max_nodes`]) runs out, the result degrades to a
//! certified `lower ≤ OPT ≤ upper` sandwich ([`ExactStatus::Budget`])
//! instead of silently claiming optimality — [`ExactSolve::guarantee`] is
//! `1` exactly when the search closed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use core::fmt;

use bss_budget::SolveBudget;
use bss_instance::{Instance, Variant};
use bss_rational::Rational;
use bss_schedule::Schedule;
use bss_seqdep::SeqDepInstance;

mod bounds;
mod flow;
mod nonpreemptive;
mod preemptive;
mod seqdep;
mod splittable;

/// Size limits and node budget for the exact search.
#[derive(Debug, Clone)]
pub struct ExactConfig {
    /// Search-node budget across the whole solve (branch nodes, flow runs
    /// and realization attempts all count). When exhausted the oracle
    /// returns its anytime incumbent with [`ExactStatus::Budget`].
    pub max_nodes: u64,
    /// Hard cap on the job count (the search is exponential; ~20 is the
    /// practical ceiling).
    pub max_jobs: usize,
    /// Hard cap on the machine count (coverage enumeration is `2^m` per
    /// class).
    pub max_machines: usize,
    /// Hard cap on the class count (bounds both coverage enumeration and
    /// the seqdep order search).
    pub max_classes: usize,
}

impl Default for ExactConfig {
    fn default() -> Self {
        ExactConfig {
            max_nodes: 2_000_000,
            max_jobs: 20,
            max_machines: 5,
            max_classes: 10,
        }
    }
}

/// Why the oracle refused an instance (errors, not panics, per the
/// workspace error contract).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExactError {
    /// More jobs than [`ExactConfig::max_jobs`].
    TooManyJobs {
        /// The instance's job count.
        actual: usize,
        /// The configured limit.
        limit: usize,
    },
    /// More machines than [`ExactConfig::max_machines`].
    TooManyMachines {
        /// The instance's machine count.
        actual: usize,
        /// The configured limit.
        limit: usize,
    },
    /// More classes than [`ExactConfig::max_classes`].
    TooManyClasses {
        /// The instance's class count.
        actual: usize,
        /// The configured limit.
        limit: usize,
    },
}

impl fmt::Display for ExactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExactError::TooManyJobs { actual, limit } => {
                write!(
                    f,
                    "instance has {actual} jobs, exact oracle caps at {limit}"
                )
            }
            ExactError::TooManyMachines { actual, limit } => write!(
                f,
                "instance has {actual} machines, exact oracle caps at {limit}"
            ),
            ExactError::TooManyClasses { actual, limit } => write!(
                f,
                "instance has {actual} classes, exact oracle caps at {limit}"
            ),
        }
    }
}

impl std::error::Error for ExactError {}

/// How the search ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExactStatus {
    /// `lower == upper`: the schedule is provably optimal.
    Closed,
    /// The node budget ran out; `lower ≤ OPT ≤ upper` is certified but the
    /// gap is open.
    Budget,
    /// The search space was exhausted without matching the lower bound (the
    /// preemptive realization family did not reach it); `lower ≤ OPT ≤
    /// upper` is certified but the exact optimum is undetermined.
    Gap,
}

/// The oracle's result: a certified sandwich `lower ≤ OPT ≤ upper` with a
/// feasible schedule achieving `upper`.
#[derive(Debug, Clone)]
pub struct ExactSolve {
    /// Certified lower bound on the optimum (equals `upper` iff
    /// [`ExactStatus::Closed`]).
    pub lower: Rational,
    /// Makespan of [`ExactSolve::schedule`], the best feasible solution
    /// found.
    pub upper: Rational,
    /// Search nodes expended (branch nodes + flow evaluations).
    pub nodes: u64,
    /// Whether the search closed, ran out of budget, or left a gap.
    pub status: ExactStatus,
    /// The incumbent schedule (optimal iff [`ExactStatus::Closed`]).
    pub schedule: Schedule,
}

impl ExactSolve {
    /// The exact optimum, when the search closed.
    #[must_use]
    pub fn opt(&self) -> Option<Rational> {
        (self.status == ExactStatus::Closed).then_some(self.upper)
    }

    /// The proven approximation guarantee of [`ExactSolve::schedule`]:
    /// `upper / lower`, exactly `1` when closed. A zero lower bound (an
    /// all-zero-cost instance) degrades to treating the bound as `1`.
    #[must_use]
    pub fn guarantee(&self) -> Rational {
        if self.upper == self.lower {
            return Rational::ONE;
        }
        if self.lower.is_positive() {
            (self.upper / self.lower).max(Rational::ONE)
        } else {
            self.upper.max(Rational::ONE)
        }
    }

    /// The incumbent schedule.
    #[must_use]
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }
}

/// The shared node budget threaded through every search layer.
///
/// Optionally mirrors a caller's [`SolveBudget`] (the anytime portfolio
/// passes its own, so both arms draw from one budget with no
/// double-accounting): every [`NodeBudget::POLL_STRIDE`] nodes the shared
/// budget is polled, and an interrupt — deadline, cancellation, work
/// exhausted upstream — reads as budget exhaustion here, winding the search
/// down to its certified anytime incumbent exactly as if `max_nodes` ran
/// out.
#[derive(Debug)]
pub(crate) struct NodeBudget<'a> {
    used: u64,
    max: u64,
    shared: Option<&'a SolveBudget>,
    interrupted: bool,
}

impl<'a> NodeBudget<'a> {
    /// Poll the shared budget once every this many nodes: expanding a node
    /// is orders of magnitude cheaper than a dual probe, so reading the
    /// clock per node would dominate the search.
    const POLL_STRIDE: u64 = 64;

    /// A standalone node budget (tests drive the variant modules directly;
    /// the public entry points always carry a shared [`SolveBudget`]).
    #[cfg(test)]
    pub(crate) fn new(max: u64) -> Self {
        NodeBudget {
            used: 0,
            max,
            shared: None,
            interrupted: false,
        }
    }

    pub(crate) fn with_shared(max: u64, shared: &'a SolveBudget) -> Self {
        NodeBudget {
            used: 0,
            max,
            shared: Some(shared),
            interrupted: false,
        }
    }

    /// Spends one node; `false` once the budget is exhausted (the caller
    /// must wind down to its incumbent).
    pub(crate) fn tick(&mut self) -> bool {
        self.used = self.used.saturating_add(1);
        if let Some(shared) = self.shared {
            if !self.interrupted
                && self.used.is_multiple_of(Self::POLL_STRIDE)
                && shared.poll().is_err()
            {
                self.interrupted = true;
            }
        }
        !self.exhausted()
    }

    pub(crate) fn exhausted(&self) -> bool {
        self.interrupted || self.used > self.max
    }

    pub(crate) fn used(&self) -> u64 {
        self.used
    }
}

fn check_limits(inst: &Instance, cfg: &ExactConfig) -> Result<(), ExactError> {
    if inst.num_jobs() > cfg.max_jobs {
        return Err(ExactError::TooManyJobs {
            actual: inst.num_jobs(),
            limit: cfg.max_jobs,
        });
    }
    if inst.machines() > cfg.max_machines {
        return Err(ExactError::TooManyMachines {
            actual: inst.machines(),
            limit: cfg.max_machines,
        });
    }
    if inst.num_classes() > cfg.max_classes {
        return Err(ExactError::TooManyClasses {
            actual: inst.num_classes(),
            limit: cfg.max_classes,
        });
    }
    Ok(())
}

/// Solves a batch-setup instance exactly for the given variant.
///
/// # Errors
/// Returns an [`ExactError`] when the instance exceeds the configured size
/// limits (the search would be astronomically large); never panics on any
/// instance the workspace's builders accept.
pub fn solve_bss(
    inst: &Instance,
    variant: Variant,
    cfg: &ExactConfig,
) -> Result<ExactSolve, ExactError> {
    solve_bss_budgeted(inst, variant, cfg, &SolveBudget::unlimited())
}

/// [`solve_bss`] drawing from a caller's shared [`SolveBudget`] alongside
/// the node cap: when the shared budget trips (deadline, cancellation, work
/// exhausted by another arm), the search winds down to its certified
/// anytime incumbent and reports [`ExactStatus::Budget`]. Bit-identical to
/// [`solve_bss`] under [`SolveBudget::unlimited`].
///
/// # Errors
/// Returns an [`ExactError`] when the instance exceeds the configured size
/// limits; never panics on any instance the workspace's builders accept.
pub fn solve_bss_budgeted(
    inst: &Instance,
    variant: Variant,
    cfg: &ExactConfig,
    shared: &SolveBudget,
) -> Result<ExactSolve, ExactError> {
    check_limits(inst, cfg)?;
    let mut budget = NodeBudget::with_shared(cfg.max_nodes, shared);
    Ok(match variant {
        Variant::Splittable => splittable::solve(inst, &mut budget),
        Variant::Preemptive => preemptive::solve(inst, &mut budget),
        Variant::NonPreemptive => nonpreemptive::solve(inst, &mut budget),
    })
}

/// Solves a sequence-dependent instance exactly (branch-and-bound over
/// per-machine class orders).
///
/// # Errors
/// Returns an [`ExactError`] when the class or machine count exceeds the
/// configured limits; never panics on any instance
/// [`SeqDepInstance::new`] accepts.
pub fn solve_seqdep(sd: &SeqDepInstance, cfg: &ExactConfig) -> Result<ExactSolve, ExactError> {
    solve_seqdep_budgeted(sd, cfg, &SolveBudget::unlimited())
}

/// [`solve_seqdep`] drawing from a caller's shared [`SolveBudget`] alongside
/// the node cap — same contract as [`solve_bss_budgeted`].
///
/// # Errors
/// Returns an [`ExactError`] when the class or machine count exceeds the
/// configured limits; never panics on any instance
/// [`SeqDepInstance::new`] accepts.
pub fn solve_seqdep_budgeted(
    sd: &SeqDepInstance,
    cfg: &ExactConfig,
    shared: &SolveBudget,
) -> Result<ExactSolve, ExactError> {
    if sd.num_classes() > cfg.max_classes {
        return Err(ExactError::TooManyClasses {
            actual: sd.num_classes(),
            limit: cfg.max_classes,
        });
    }
    if sd.machines() > cfg.max_machines {
        return Err(ExactError::TooManyMachines {
            actual: sd.machines(),
            limit: cfg.max_machines,
        });
    }
    let mut budget = NodeBudget::with_shared(cfg.max_nodes, shared);
    Ok(seqdep::solve(sd, &mut budget))
}
