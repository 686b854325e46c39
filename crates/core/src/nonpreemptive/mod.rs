//! The non-preemptive variant `P|setup=s_i|Cmax`.
//!
//! * [`accepts`] / [`dual_into`]: the 3/2-dual approximation of Theorem 9
//!   (Algorithm 6, Appendix D) — `O(n)` per guess. [`crate::BssProblem`]'s
//!   `probe` and `build` run them at the integral guess `⌊T⌋`.
//! * Theorem 8, run as [`crate::Algorithm::ThreeHalves`]: exact integer
//!   binary search over the dual, `O(n log(n + Δ))` total, a clean
//!   3/2-approximation because the non-preemptive optimum is integral.

mod dual;
mod search;

pub(crate) use dual::build_in;
pub use dual::{accepts, dual_into};
pub(crate) use search::three_halves_search;
