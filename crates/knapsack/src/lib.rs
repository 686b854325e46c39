//! Knapsack solvers for the preemptive 3/2-dual approximation.
//!
//! Step 3.a of Algorithm 3 (Deppert & Jansen, SPAA 2019) decides which cheap
//! classes are scheduled entirely *outside* the large machines by maximizing
//! the total setup time of the selected classes subject to the free time `Y`:
//! a **continuous knapsack** with profits `p_i = s_i` and rational weights
//! `w_i = P(C_i) - L*_i`. The greedy ratio rule solves it exactly, with at
//! most one fractional *split item* `e` (the paper's `(x_cks)_e ∈ (0, 1)`).
//!
//! A small 0/1 dynamic program is included as a test oracle: the continuous
//! optimum must dominate the integral optimum, and coincide with it whenever
//! the greedy solution happens to be integral.

mod continuous;
mod dp;

pub use continuous::{continuous_knapsack_in, CkItem};
pub use dp::knapsack_01;
