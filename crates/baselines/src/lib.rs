//! Prior-work comparators: the baselines Table 1 of the paper compares
//! against. (Exact optima come from `bss-exact`.)
//!
//! * [`monma_potts`] — the batch wrap-around heuristic in the spirit of
//!   Monma & Potts (1993), the previous best preemptive algorithm
//!   (ratio `2 − 1/(⌊m/2⌋+1)`); reconstructed from the published
//!   description (wrap whole batches around a threshold, split jobs at the
//!   border with a fresh setup).
//! * [`lpt_batches`] — longest-processing-time list scheduling of whole
//!   batches (the folk baseline; non-preemptive feasible).
//! * [`next_fit_batches`] — the next-fit strategy underlying Jansen & Land's
//!   `O(n)` 3-approximation for the non-preemptive case.

mod heuristics;

pub use heuristics::{lpt_batches, monma_potts, next_fit_batches};
