//! # batch-setup-scheduling
//!
//! A production-quality Rust implementation of
//! *Near-Linear Approximation Algorithms for Scheduling Problems with Batch
//! Setup Times* (Max A. Deppert & Klaus Jansen, SPAA 2019).
//!
//! `n` jobs, partitioned into `c` classes, are scheduled on `m` identical
//! machines; a machine pays a setup time `s_i` whenever it starts or switches
//! to class `i`. The goal is to minimize the makespan. Three variants are
//! supported — non-preemptive, preemptive, and splittable — each with:
//!
//! * a 2-approximation in `O(n)` (Theorem 1),
//! * a `(3/2 + ε)`-approximation in `O(n log 1/ε)` (Theorem 2),
//! * a `3/2`-approximation: `O(n + c log(c+m))` splittable (Theorem 3),
//!   `O(n log(c+m))` preemptive (Theorem 6), `O(n log(n+Δ))` non-preemptive
//!   (Theorem 8).
//!
//! ## Quickstart
//!
//! ```
//! use batch_setup_scheduling::prelude::*;
//!
//! // Three machines; two classes of jobs with setup times 10 and 4.
//! let mut builder = InstanceBuilder::new(3);
//! let red = builder.add_class(10);
//! let blue = builder.add_class(4);
//! for t in [7, 3, 9, 2] {
//!     builder.add_job(red, t);
//! }
//! for t in [5, 5, 6] {
//!     builder.add_job(blue, t);
//! }
//! let instance = builder.build().unwrap();
//!
//! // Solve the preemptive variant with the 3/2-approximation.
//! let solution = solve(&instance, Variant::Preemptive, Algorithm::ThreeHalves);
//! assert!(validate(solution.schedule(), &instance, Variant::Preemptive).is_empty());
//!
//! // The guarantee: makespan <= 3/2 * accepted makespan guess <= 3/2 * OPT.
//! assert!(solution.makespan <= solution.accepted * Rational::new(3, 2));
//! ```
//!
//! The facade re-exports the workspace crates; see each crate for details:
//! [`bss_core`] (algorithms), [`bss_instance`] (model), [`bss_schedule`]
//! (schedules + validators), [`bss_wrap`] (Batch Wrapping), [`bss_knapsack`]
//! (continuous knapsack), [`bss_baselines`] (prior-work comparators),
//! [`bss_exact`] (exact optima),
//! [`bss_gen`] (workload generators), [`bss_report`] (rendering/stats).

pub use bss_baselines as baselines;
pub use bss_core as core;
pub use bss_exact as exact;
pub use bss_gen as gen;
pub use bss_instance as instance;
pub use bss_knapsack as knapsack;
pub use bss_par as par;
pub use bss_rational as rational;
pub use bss_report as report;
pub use bss_schedule as schedule;
pub use bss_seqdep as seqdep;
pub use bss_serve as serve;
pub use bss_wrap as wrap;

/// Most-used items in one import.
pub mod prelude {
    pub use bss_core::{
        solve, solve_problem, solve_seqdep, solve_warm, solve_with, Algorithm, BssProblem, Built,
        CancelToken, Completion, DualWorkspace, Interrupt, Problem, ScheduleRepr, SearchStats,
        SeqDepProblem, Solution, SolveBudget, SolveError, SolveOptions, WarmStart,
    };
    pub use bss_instance::{ClassId, Instance, InstanceBuilder, Job, JobId, LowerBounds, Variant};
    pub use bss_par::{BatchOutcome, SolvePool};
    pub use bss_rational::Rational;
    pub use bss_schedule::{
        validate, validate_compact, CompactSchedule, ItemKind, Placement, PlacementSink, Schedule,
        ScheduleStats, Violation,
    };
    pub use bss_seqdep::SeqDepInstance;
    pub use bss_serve::{Client, ServeConfig, SolveOutcome};
}
