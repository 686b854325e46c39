//! Batch Wrapping (Appendix A.1 of Deppert & Jansen, SPAA 2019).
//!
//! Batch Wrapping generalizes McNaughton's wrap-around rule to scheduling with
//! setup times. A [`Template`] is a list of *gaps* — free time windows
//! `[a_r, b_r)` on strictly increasing machines — and a [`WrapSequence`] is a
//! flat sequence of batches `[s_{i_1}, C'_1, s_{i_2}, C'_2, …]`. [`wrap`]
//! pours the sequence into the gaps in order; when an item hits a gap's upper
//! border `b_r`:
//!
//! * a **setup** is moved *below* the next gap (to `[a_{r+1} - s, a_{r+1})`),
//! * a **job piece** is split at the border (like McNaughton), and a fresh
//!   setup of its class is placed below the next gap so the continuation is
//!   covered (Algorithm 5, `Split`).
//!
//! The caller must guarantee Lemma 6's preconditions: enough capacity
//! (`S(ω) >= L(Q)`) and free time of at least the largest moved setup below
//! every gap but the first. [`wrap`] reports structural failures
//! ([`WrapError`]) instead of producing garbage.
//!
//! ## The parallel-gap fast path
//!
//! Templates store gaps as [`GapRun`]s — `count` identical gaps on
//! consecutive machines. When a job piece spans several identical gaps, the
//! run is emitted as **one** configuration group with a multiplicity
//! ([`bss_schedule::ConfigGroup`]), in `O(1)` rather than `O(count)`. This is
//! exactly the implementation trick the paper uses to reach `O(n)` for the
//! splittable dual algorithm (proof of Theorem 7) and `O(n)` for the simple
//! 2-approximation (Lemma 8); without it, wrapping costs `Θ(n + m)`.

#[cfg(test)]
mod proptests;
mod sequence;
mod template;
mod wrapper;

pub use sequence::{SeqItem, SeqKind, WrapSequence};
pub use template::{GapRun, Template};
pub use wrapper::{batch_items, wrap, wrap_into, wrap_iter_append, WrapError};
