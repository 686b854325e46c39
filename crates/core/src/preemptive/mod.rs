//! The preemptive variant `P|pmtn,setup=s_i|Cmax` — the paper's main result.
//!
//! * [`nice_dual`]: Theorem 4 — 3/2-dual approximation for *nice* instances
//!   (`I⁰_exp = ∅`).
//! * [`dual_into`] / [`accepts_in`]: Theorem 5 / Algorithm 3 — the general
//!   3/2-dual with large machines and the continuous-knapsack placement
//!   decision. [`crate::BssProblem`]'s `probe` and `build` run them in
//!   [`CountMode::AlphaPrime`].
//! * Class Jumping, Theorem 6 / Algorithm 4, run as
//!   [`crate::Algorithm::ThreeHalves`]: the full 3/2-approximation in
//!   `O(n log(c+m)) ⊆ O(n log n)`, improving on the previous best ratio of
//!   `2 − 1/(⌊m/2⌋+1)` (Monma & Potts 1993). This module supplies the
//!   variant's hooks; the search itself is shared with the splittable
//!   variant.

pub(crate) mod dual;
mod jumping;
pub(crate) mod nice;

pub(crate) use dual::build_in;
pub use dual::{accepts_in, dual_into};
pub(crate) use jumping::Pmtn;
pub use nice::{is_nice, nice_dual, CountMode};
