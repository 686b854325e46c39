//! The splittable variant `P|split,setup=s_i|Cmax`.
//!
//! * [`dual`]: the 3/2-dual approximation of Theorem 7 (Appendix C) — `O(n)`
//!   per guess, compact output.
//! * [`accepts`]: the `O(c)` accept/reject test of the same theorem, used by
//!   the searches.
//! * Class Jumping, Algorithm 1 / Theorem 3, run as
//!   [`crate::Algorithm::ThreeHalves`]: the full 3/2-approximation in
//!   `O(n + c log(c+m))`. This module supplies the variant's hooks; the
//!   search itself is shared with the preemptive variant.

mod dual;
pub(crate) use dual::{build_in, class_batch};
mod jumping;

pub use dual::{accepts, accepts_in, dual, dual_in, dual_into, dual_traced, dual_traced_in};
pub(crate) use jumping::Split;
