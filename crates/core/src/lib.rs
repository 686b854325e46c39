//! Near-linear approximation algorithms for scheduling with batch setup
//! times — the algorithms of Deppert & Jansen (SPAA 2019).
//!
//! For each of the three problem variants ([`bss_instance::Variant`]) this
//! crate provides the paper's full algorithm stack:
//!
//! | result | algorithm | entry point |
//! |---|---|---|
//! | Theorem 1 | 2-approximation, `O(n)` | [`two_approx`] |
//! | Theorem 2 | `(3/2+ε)`-approx, `O(n log 1/ε)` | [`Algorithm::EpsilonSearch`] over the duals |
//! | Theorem 7 | splittable 3/2-dual, `O(n)` | [`splittable::dual_into`] |
//! | Theorem 3 | splittable 3/2, `O(n + c log(c+m))` | [`Algorithm::ThreeHalves`] |
//! | Theorems 4–5 | preemptive 3/2-dual, `O(n)` | [`preemptive::dual_into`] |
//! | Theorem 6 | preemptive 3/2, `O(n log(c+m))` | [`Algorithm::ThreeHalves`] |
//! | Theorem 9 | non-preemptive 3/2-dual, `O(n)` | [`nonpreemptive::dual_into`] |
//! | Theorem 8 | non-preemptive 3/2, `O(n log(n+Δ))` | [`Algorithm::ThreeHalves`] |
//!
//! The one-stop entry point is [`solve`] with an [`Algorithm`] selector;
//! [`solve_problem`] runs any [`Problem`] under one [`SolveOptions`]
//! (budget, warm start). Each kernel above has one public entry point: the
//! accept test takes a [`DualWorkspace`], the builder also the output buffer
//! it fills (`dual_into`). For a one-off probe or build, [`BssProblem`]'s
//! [`Problem::probe`], [`Problem::build`] and [`Problem::fallback`] run the
//! same kernels and allocate the output.
//!
//! All internal arithmetic is exact ([`bss_rational::Rational`]); every
//! algorithm's output is checked against the strict validators of
//! [`bss_schedule`] in this crate's tests.
//!
//! # Anytime solving
//!
//! Every solve can run under a [`SolveBudget`] — a wall-clock deadline, a
//! probe budget, and/or a cooperative [`CancelToken`] — set as
//! [`SolveOptions::budget`] for [`solve_problem`]. An interrupted solve
//! degrades gracefully: it returns the best certified solution reachable at
//! wind-down (the search's current accepted bracket, or the `O(n)`
//! Theorem-1 fallback) with an honestly widened [`Solution::ratio_bound`]
//! and a [`Completion`] saying what happened. Solver panics are caught at
//! [`solve_problem`] and surface as typed [`SolveError`]s; an unlimited
//! budget is bit-identical to [`solve`].
//!
//! # Error contract
//!
//! Audited policy for every `unwrap`/`expect`/`panic!` reachable from the
//! public `solve*` surface:
//!
//! * **Input-dependent failures** are typed, never panics. The only such
//!   family in this crate is [`bss_rational::Rational`] overflow on
//!   astronomically scaled inputs; its panic messages all contain
//!   `overflow`, which [`solve_problem`] maps to [`SolveError::Overflow`].
//! * **Proof-backed invariants** (an `expect` citing the theorem that makes
//!   the case impossible, e.g. *"Theorem 7: expensive template capacity
//!   suffices"* or *"2·T_min is accepted (Theorem 1)"*) stay as panics: a
//!   violation is a solver bug, not a caller error. [`solve_problem`]
//!   isolates them via `catch_unwind`, resets the workspace so no
//!   poisoned state leaks into the next solve, and reports
//!   [`SolveError::Panicked`] — the fault-injection suite in `bss-chaos`
//!   checks both the isolation and the workspace reset.

pub mod classify;
pub mod nonpreemptive;
pub mod preemptive;
pub mod splittable;
pub mod two_approx;

mod api;
mod jumping;
mod problem;
mod search;
mod seqdep_bridge;
mod trace;
mod workspace;

pub use api::{
    solve, solve_warm, solve_with, Algorithm, Built, Completion, ScheduleRepr, Solution,
    SolveError, SolveOptions, WarmStart,
};
pub use bss_budget::{CancelToken, Interrupt, SolveBudget};
pub use problem::{solve_problem, BssProblem, DirectSolve, Problem};
pub use search::SearchStats;
pub use seqdep_bridge::{solve_seqdep, SeqDepProblem};
pub use trace::Trace;
pub use workspace::DualWorkspace;
