//! Cooperative solve budgets for anytime solving under deadlines.
//!
//! Every solver in this workspace is *interruptible*: the searches check a
//! shared [`SolveBudget`] at each probe (and the exact backend at a node
//! stride), and on expiry they wind down to the best certified answer they
//! hold instead of running to completion — the anytime contract documented
//! in `bss-core`. The budget combines three independent limits:
//!
//! * a **wall-clock deadline** ([`SolveBudget::with_deadline`]);
//! * a **work budget** — dual-test probes and exact search nodes share one
//!   unit counter ([`SolveBudget::with_work_limit`]), unifying the
//!   historical `bss-exact` node budget with the approximation searches;
//! * a **cancellation token** ([`CancelToken`]) flipped from another thread.
//!
//! A budget is checked *cooperatively*: solvers call
//! [`SolveBudget::charge_work`] before each unit of work and
//! [`SolveBudget::poll`] at cheap checkpoints. Checks never block and never
//! panic (outside injected chaos faults); an exceeded limit surfaces as a
//! typed [`Interrupt`] that callers translate into graceful degradation.
//!
//! # Fault injection (`chaos` feature)
//!
//! With the `chaos` feature a [`FaultPlan`] can be installed on a budget:
//! at the `at`-th checkpoint the budget panics, latches cancellation, or
//! latches deadline expiry — deterministically, with no wall clock
//! involved. `bss-chaos` sweeps these plans over every checkpoint index to
//! prove the workspace-wide invariant *any interruption yields either a
//! valid certified solution or a typed error*.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use core::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a solve was interrupted before it could run to completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Interrupt {
    /// The wall-clock deadline passed.
    Deadline,
    /// The work budget (probes + exact nodes) is spent.
    WorkExhausted,
    /// The [`CancelToken`] was cancelled.
    Cancelled,
}

impl fmt::Display for Interrupt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Interrupt::Deadline => write!(f, "deadline expired"),
            Interrupt::WorkExhausted => write!(f, "work budget exhausted"),
            Interrupt::Cancelled => write!(f, "cancelled"),
        }
    }
}

/// A shareable cancellation flag: clone it, hand one copy to the solving
/// thread (via [`SolveBudget::with_cancel`]) and keep the other to
/// [`CancelToken::cancel`] from anywhere. Cancellation is sticky.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    #[must_use]
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation; every budget holding a clone of this token
    /// reports [`Interrupt::Cancelled`] from its next check on.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether [`CancelToken::cancel`] has been called.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// A deterministic fault to inject at a checkpoint (`chaos` feature).
#[cfg(feature = "chaos")]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Panic at the checkpoint — models a solver bug mid-flight; the API
    /// boundary must isolate it into a typed error.
    Panic,
    /// Latch cancellation at the checkpoint, as if a [`CancelToken`] fired.
    Cancel,
    /// Latch deadline expiry at the checkpoint — a deterministic stand-in
    /// for wall-clock expiry (no real clock involved).
    DeadlineExpiry,
}

/// Inject `fault` at the `at`-th budget checkpoint (1-indexed; checkpoint
/// counting is deterministic for a fixed instance/algorithm).
#[cfg(feature = "chaos")]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// The checkpoint index the fault fires at (first checkpoint = 1).
    pub at: u64,
    /// What happens there.
    pub fault: Fault,
}

/// The cooperative budget of one solve: deadline + work limit + cancel
/// token, checked by every search layer.
///
/// The zero-cost default is [`SolveBudget::unlimited`] — no deadline, no
/// work limit, no token — under which every budgeted entry point is
/// bit-identical to its historical unbudgeted counterpart (guarded by
/// equivalence tests). Counters are atomic so one budget may be observed
/// from other threads (e.g. per-item checks inside `parallel_map`).
#[derive(Debug, Default)]
pub struct SolveBudget {
    deadline: Option<Instant>,
    /// `None` = unlimited.
    work_max: Option<u64>,
    work_used: AtomicU64,
    checkpoints: AtomicU64,
    cancel: Option<CancelToken>,
    #[cfg(feature = "chaos")]
    fault: Option<FaultPlan>,
    #[cfg(feature = "chaos")]
    fault_cancel: AtomicBool,
    #[cfg(feature = "chaos")]
    fault_deadline: AtomicBool,
}

impl SolveBudget {
    /// No limits at all: every check passes, nothing is ever interrupted.
    #[must_use]
    pub fn unlimited() -> Self {
        SolveBudget::default()
    }

    /// Adds a wall-clock deadline `d` from now.
    #[must_use]
    pub fn with_deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(Instant::now() + d);
        self
    }

    /// Caps the total work: dual-test probes and exact search nodes each
    /// cost one unit from this shared pool.
    #[must_use]
    pub fn with_work_limit(mut self, units: u64) -> Self {
        self.work_max = Some(units);
        self
    }

    /// Attaches a cancellation token (cloned; the caller keeps the other
    /// end).
    #[must_use]
    pub fn with_cancel(mut self, token: &CancelToken) -> Self {
        self.cancel = Some(token.clone());
        self
    }

    /// Installs a deterministic fault plan (`chaos` feature).
    #[cfg(feature = "chaos")]
    #[must_use]
    pub fn with_fault(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Whether any limit (or fault plan) is installed. Budget-aware drivers
    /// use this to skip degradation bookkeeping (e.g. the eager fallback
    /// safety net) on the unlimited fast path.
    #[must_use]
    pub fn is_limited(&self) -> bool {
        #[cfg(feature = "chaos")]
        let fault = self.fault.is_some();
        #[cfg(not(feature = "chaos"))]
        let fault = false;
        self.deadline.is_some() || self.work_max.is_some() || self.cancel.is_some() || fault
    }

    /// Work units charged so far (probes + exact nodes).
    #[must_use]
    pub fn work_used(&self) -> u64 {
        self.work_used.load(Ordering::Relaxed)
    }

    /// Checkpoints passed so far. Deterministic for a fixed
    /// instance/algorithm pair, which is what lets the chaos suite target
    /// "the k-th checkpoint" exactly.
    #[must_use]
    pub fn checkpoints(&self) -> u64 {
        self.checkpoints.load(Ordering::Relaxed)
    }

    /// Non-charging check: has any limit already tripped?
    ///
    /// Does not bump the checkpoint counter and never fires a fault plan —
    /// safe to call anywhere, any number of times.
    ///
    /// # Errors
    /// The [`Interrupt`] that applies, checked in the order cancellation →
    /// deadline → work.
    pub fn poll(&self) -> Result<(), Interrupt> {
        #[cfg(feature = "chaos")]
        {
            if self.fault_cancel.load(Ordering::Relaxed) {
                return Err(Interrupt::Cancelled);
            }
            if self.fault_deadline.load(Ordering::Relaxed) {
                return Err(Interrupt::Deadline);
            }
        }
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return Err(Interrupt::Cancelled);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(Interrupt::Deadline);
            }
        }
        if let Some(max) = self.work_max {
            if self.work_used() >= max {
                return Err(Interrupt::WorkExhausted);
            }
        }
        Ok(())
    }

    /// A cooperative checkpoint: bumps the checkpoint counter, fires any
    /// due injected fault, then polls the limits. Charges no work.
    ///
    /// # Errors
    /// See [`SolveBudget::poll`].
    ///
    /// # Panics
    /// Only with the `chaos` feature, when an installed [`Fault::Panic`]
    /// plan is due at this checkpoint.
    pub fn checkpoint(&self) -> Result<(), Interrupt> {
        let k = self.checkpoints.fetch_add(1, Ordering::Relaxed) + 1;
        #[cfg(feature = "chaos")]
        self.apply_fault(k);
        #[cfg(not(feature = "chaos"))]
        let _ = k;
        self.poll()
    }

    /// Charges `units` of work at a checkpoint.
    ///
    /// # Errors
    /// An [`Interrupt`] when a limit has tripped — including
    /// [`Interrupt::WorkExhausted`] when this very charge crosses the work
    /// limit, in which case the unit of work must **not** be performed.
    ///
    /// # Panics
    /// Only under an injected `chaos` fault (see [`SolveBudget::checkpoint`]).
    pub fn charge_work(&self, units: u64) -> Result<(), Interrupt> {
        self.checkpoint()?;
        let prev = self.work_used.fetch_add(units, Ordering::Relaxed);
        match self.work_max {
            Some(max) if prev.saturating_add(units) > max => Err(Interrupt::WorkExhausted),
            _ => Ok(()),
        }
    }

    /// Charges one dual-test probe ([`SolveBudget::charge_work`] with one
    /// unit) — the call every search driver makes before each probe.
    ///
    /// # Errors
    /// See [`SolveBudget::charge_work`].
    pub fn charge_probe(&self) -> Result<(), Interrupt> {
        self.charge_work(1)
    }

    #[cfg(feature = "chaos")]
    fn apply_fault(&self, k: u64) {
        let Some(plan) = self.fault else { return };
        if k != plan.at {
            return;
        }
        match plan.fault {
            Fault::Panic => panic!("bss-chaos: injected panic at checkpoint {k}"),
            Fault::Cancel => self.fault_cancel.store(true, Ordering::Relaxed),
            Fault::DeadlineExpiry => self.fault_deadline.store(true, Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_interrupts() {
        let b = SolveBudget::unlimited();
        assert!(!b.is_limited());
        for _ in 0..1000 {
            assert_eq!(b.charge_probe(), Ok(()));
        }
        assert_eq!(b.poll(), Ok(()));
        assert_eq!(b.work_used(), 1000);
        assert_eq!(b.checkpoints(), 1000);
    }

    #[test]
    fn work_limit_allows_exactly_n_probes() {
        let b = SolveBudget::unlimited().with_work_limit(3);
        assert!(b.is_limited());
        assert_eq!(b.charge_probe(), Ok(()));
        assert_eq!(b.charge_probe(), Ok(()));
        assert_eq!(b.charge_probe(), Ok(()));
        assert_eq!(b.charge_probe(), Err(Interrupt::WorkExhausted));
        assert_eq!(b.poll(), Err(Interrupt::WorkExhausted));
    }

    #[test]
    fn zero_work_budget_interrupts_immediately() {
        let b = SolveBudget::unlimited().with_work_limit(0);
        assert_eq!(b.poll(), Err(Interrupt::WorkExhausted));
        assert_eq!(b.charge_probe(), Err(Interrupt::WorkExhausted));
    }

    #[test]
    fn cancel_token_is_sticky_and_shared() {
        let token = CancelToken::new();
        let b = SolveBudget::unlimited().with_cancel(&token);
        assert_eq!(b.poll(), Ok(()));
        token.cancel();
        assert_eq!(b.poll(), Err(Interrupt::Cancelled));
        assert_eq!(b.charge_probe(), Err(Interrupt::Cancelled));
        assert!(token.is_cancelled());
    }

    #[test]
    fn expired_deadline_interrupts() {
        let b = SolveBudget::unlimited().with_deadline(Duration::ZERO);
        assert_eq!(b.poll(), Err(Interrupt::Deadline));
    }

    #[test]
    fn far_deadline_does_not_interrupt() {
        let b = SolveBudget::unlimited().with_deadline(Duration::from_secs(3600));
        assert_eq!(b.charge_probe(), Ok(()));
    }

    #[test]
    fn cancellation_outranks_other_interrupts() {
        let token = CancelToken::new();
        token.cancel();
        let b = SolveBudget::unlimited()
            .with_cancel(&token)
            .with_work_limit(0)
            .with_deadline(Duration::ZERO);
        assert_eq!(b.poll(), Err(Interrupt::Cancelled));
    }

    #[cfg(feature = "chaos")]
    mod chaos {
        use super::*;

        #[test]
        fn injected_cancel_latches_at_exact_checkpoint() {
            let b = SolveBudget::unlimited().with_fault(FaultPlan {
                at: 3,
                fault: Fault::Cancel,
            });
            assert_eq!(b.checkpoint(), Ok(()));
            assert_eq!(b.checkpoint(), Ok(()));
            assert_eq!(b.checkpoint(), Err(Interrupt::Cancelled));
            assert_eq!(b.checkpoint(), Err(Interrupt::Cancelled)); // sticky
        }

        #[test]
        fn injected_deadline_needs_no_clock() {
            let b = SolveBudget::unlimited().with_fault(FaultPlan {
                at: 1,
                fault: Fault::DeadlineExpiry,
            });
            assert_eq!(b.checkpoint(), Err(Interrupt::Deadline));
        }

        #[test]
        fn injected_panic_fires_exactly_once_at_k() {
            let b = SolveBudget::unlimited().with_fault(FaultPlan {
                at: 2,
                fault: Fault::Panic,
            });
            assert_eq!(b.checkpoint(), Ok(()));
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| b.checkpoint()));
            assert!(caught.is_err());
            // Past the index the plan is spent.
            assert_eq!(b.checkpoint(), Ok(()));
        }
    }
}
