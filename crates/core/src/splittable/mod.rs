//! The splittable variant `P|split,setup=s_i|Cmax`.
//!
//! * [`dual_into`]: the 3/2-dual approximation of Theorem 7 (Appendix C) —
//!   `O(n)` per guess, compact output.
//! * [`accepts_in`]: the `O(c)` accept/reject test of the same theorem, used
//!   by the searches. [`crate::BssProblem`]'s `probe` and `build` run these
//!   two.
//! * Class Jumping, Algorithm 1 / Theorem 3, run as
//!   [`crate::Algorithm::ThreeHalves`]: the full 3/2-approximation in
//!   `O(n + c log(c+m))`. This module supplies the variant's hooks; the
//!   search itself is shared with the preemptive variant.

mod dual;
pub(crate) use dual::{build_in, class_batch};
mod jumping;

pub use dual::{accepts_in, dual_into};
pub(crate) use jumping::Split;
