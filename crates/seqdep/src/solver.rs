//! A dual-approximation-style solver for sequence-dependent setups.
//!
//! The problem is APX-hard (it contains path-TSP), so no polynomial
//! constant-factor *proof* exists in general; what carries over from the
//! batch-setup machinery is the **shape** of the algorithms:
//!
//! * an instance-only lower bound [`t_min`](crate::t_min) anchors a search
//!   window, with [`SeqDepInstance::sequential_weight`] bounding it above;
//! * a probe [`probe_in`] at guess `T` runs a capacity-bounded greedy builder
//!   with per-machine ceiling `2T` — *acceptance* guarantees a schedule of
//!   makespan `<= 2T` exists (the builder's output itself), while rejection
//!   is only heuristic evidence (unlike the paper's duals it does **not**
//!   certify `T < OPT`);
//! * the builder [`build_into`] re-runs the same deterministic greedy at the
//!   accepted guess and streams the schedule through any
//!   [`PlacementSink`] — classes become single-piece "jobs" (`job = class`),
//!   switch-overs become setups of their target class.
//!
//! All per-probe state lives in a [`SeqDepScratch`]; a warm scratch makes
//! probes and builds allocation-free beyond the caller's output (the
//! counting-allocator suite in `crates/core/tests/zero_alloc.rs` proves it
//! through the unified `solve` surface).
//!
//! The greedy itself: classes are taken heaviest-first (entry cost plus
//! work), and each class goes to the machine that can *switch to it most
//! cheaply* among the machines that stay within `2T` — capacity-bounded
//! nearest-neighbour chaining. Smaller guesses force spreading; the search
//! finds the smallest guess the builder still accepts.

use bss_rational::Rational;
use bss_schedule::PlacementSink;

use crate::SeqDepInstance;

/// Sentinel for "machine is still fresh" in [`SeqDepScratch::last`].
const FRESH: usize = usize::MAX;

/// Reusable buffers for the sequence-dependent probes and builder.
///
/// One scratch serves any number of probes/builds (and grows to the largest
/// instance it has seen); results are identical to using a fresh scratch.
#[derive(Debug, Default)]
pub struct SeqDepScratch {
    /// Classes in placement order (heaviest first).
    order: Vec<usize>,
    /// Placement weight per class: `min-in + proc`.
    weight: Vec<u64>,
    /// Finish time per machine slot.
    finish: Vec<u64>,
    /// Last class per machine slot ([`FRESH`] = none yet).
    last: Vec<usize>,
    /// Per-machine class orders of the latest accepted run (outer and inner
    /// vectors are recycled across runs).
    orders: Vec<Vec<usize>>,
    /// Machine slots in play for the current instance (`min(m, c)`).
    used: usize,
}

impl SeqDepScratch {
    /// An empty scratch; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        SeqDepScratch::default()
    }

    /// The per-machine class orders of the latest **accepted** probe/build;
    /// empty after a rejected run (rejections invalidate the buffers, so a
    /// stale or partial assignment can never be mistaken for a result).
    /// Machines `used..m` are idle and omitted.
    #[must_use]
    pub fn orders(&self) -> &[Vec<usize>] {
        &self.orders[..self.used.min(self.orders.len())]
    }

    fn prepare_for(&mut self, inst: &SeqDepInstance) {
        let c = inst.num_classes();
        let used = inst.machines().min(c);
        self.used = used;
        self.weight.clear();
        self.weight
            .extend((0..c).map(|j| inst.min_in(j) + inst.class_proc(j)));
        self.order.clear();
        self.order.extend(0..c);
        let weight = &self.weight;
        self.order
            .sort_unstable_by_key(|&j| (core::cmp::Reverse(weight[j]), j));
        if self.finish.len() < used {
            self.finish.resize(used, 0);
            self.last.resize(used, FRESH);
        }
        self.finish[..used].fill(0);
        self.last[..used].fill(FRESH);
        if self.orders.len() < used {
            self.orders.resize_with(used, Vec::new);
        }
        for o in &mut self.orders[..used] {
            o.clear();
        }
    }

    /// The shared greedy: place every class under per-machine ceiling `cap`.
    /// Returns `false` (rejection) as soon as a class fits on no machine.
    /// On success the scratch holds the orders/finish times of the run.
    fn place_all(&mut self, inst: &SeqDepInstance, cap: u64) -> bool {
        self.prepare_for(inst);
        let used = self.used;
        for k in 0..self.order.len() {
            let class = self.order[k];
            let proc = inst.class_proc(class);
            // Cheapest feasible switch; ties by finish time, then index (the
            // run is fully deterministic).
            let mut best: Option<(u64, u64, usize)> = None;
            for u in 0..used {
                let last = self.last[u];
                let setup = if last == FRESH {
                    inst.initial(class)
                } else {
                    inst.switch(last, class)
                };
                let f = self.finish[u] + setup + proc;
                if f > cap {
                    continue;
                }
                let cand = (setup, f, u);
                if best.is_none_or(|b| cand < b) {
                    best = Some(cand);
                }
            }
            let Some((_, f, u)) = best else {
                // Invalidate the partially-filled orders: `orders()` exposes
                // accepted runs only.
                self.used = 0;
                return false;
            };
            self.finish[u] = f;
            self.last[u] = class;
            self.orders[u].push(class);
        }
        true
    }
}

/// The capacity of a guess `T`: the greedy's per-machine ceiling `⌊2T⌋`
/// (all finish times are integral, so flooring loses nothing).
fn capacity(t: Rational) -> u64 {
    let c = (t * 2u64).floor();
    if c <= 0 {
        0
    } else {
        c as u64
    }
}

/// The dual-style accept test at guess `t`: `true` iff the capacity-bounded
/// greedy places every class within `2t` per machine. Acceptance is
/// constructive (a schedule of makespan `<= 2t` exists); rejection is
/// heuristic evidence only. `O(c·min(m,c))` — linear in the switch matrix.
#[must_use]
pub fn probe_in(scratch: &mut SeqDepScratch, inst: &SeqDepInstance, t: Rational) -> bool {
    scratch.place_all(inst, capacity(t))
}

/// A guess [`probe_in`] is guaranteed to accept: half the sequential weight
/// (every class then fits on the least-loaded machine), floored at
/// [`t_min`](crate::t_min).
#[must_use]
pub fn t_safe(inst: &SeqDepInstance) -> Rational {
    crate::t_min(inst).max(Rational::from(inst.sequential_weight()).half())
}

/// Builds the greedy schedule at an accepted guess `t`, streaming it into
/// `sink`: per machine, alternating setups (initial or switch-over, tagged
/// with the *target* class) and one piece per class (`job = class`,
/// zero-work classes contribute only their setup). Returns `false` if the
/// greedy rejects `t` (the sink then holds nothing).
///
/// The class orders of the run remain readable via
/// [`SeqDepScratch::orders`]; `inst.makespan(orders)` equals the emitted
/// schedule's makespan whenever every class has positive entry cost or work.
#[must_use]
pub fn build_into<S: PlacementSink>(
    scratch: &mut SeqDepScratch,
    inst: &SeqDepInstance,
    t: Rational,
    sink: &mut S,
) -> bool {
    if !scratch.place_all(inst, capacity(t)) {
        return false;
    }
    emit_orders(inst, scratch.orders(), sink);
    true
}

/// Streams an assignment into `sink` using the solver's emission
/// convention: per machine, alternating setups (initial or switch-over,
/// tagged with the *target* class) and one piece per class (`job = class`);
/// zero-length items are dropped. The single source of truth for how
/// seqdep schedules become placements — [`build_into`] and the unified
/// surface's order-based emitters both call it.
pub fn emit_orders<S: PlacementSink>(inst: &SeqDepInstance, orders: &[Vec<usize>], sink: &mut S) {
    for (u, order) in orders.iter().enumerate() {
        let mut cursor = Rational::ZERO;
        let mut last: Option<usize> = None;
        for &class in order {
            let setup = Rational::from(inst.setup_into(last, class));
            if setup.is_positive() {
                sink.place_setup(u, cursor, setup, class);
            }
            cursor += setup;
            let proc = Rational::from(inst.class_proc(class));
            if proc.is_positive() {
                sink.place_piece(u, cursor, proc, class, class);
            }
            cursor += proc;
            last = Some(class);
        }
    }
}

#[cfg(test)]
mod tests {
    use bss_schedule::Schedule;

    use super::*;
    use crate::{class_lower_bound, exact_single_machine, load_lower_bound, t_min};

    fn random_instance(seed: u64, c: usize, m: usize) -> SeqDepInstance {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let switch: Vec<Vec<u64>> = (0..c)
            .map(|i| {
                (0..c)
                    .map(|j| if i == j { 0 } else { rng.gen_range(1..40) })
                    .collect()
            })
            .collect();
        let initial: Vec<u64> = (0..c).map(|_| rng.gen_range(1..40)).collect();
        let work: Vec<u64> = (0..c).map(|_| rng.gen_range(1..80)).collect();
        SeqDepInstance::new(m, initial, switch, work).unwrap()
    }

    #[test]
    fn accepted_probe_is_constructive() {
        for seed in 0..20 {
            let inst = random_instance(seed, 12, 3);
            let mut scratch = SeqDepScratch::new();
            let t = t_safe(&inst);
            assert!(probe_in(&mut scratch, &inst, t), "t_safe must be accepted");
            let orders: Vec<Vec<usize>> = scratch.orders().to_vec();
            let makespan = inst.makespan(&orders);
            assert!(
                Rational::from(makespan) <= t * 2u64,
                "makespan {makespan} > 2*{t}"
            );
        }
    }

    #[test]
    fn build_matches_orders_and_sink() {
        for seed in 0..20 {
            let inst = random_instance(seed, 10, 4);
            let mut scratch = SeqDepScratch::new();
            let t = t_safe(&inst);
            let mut out = Schedule::new(inst.machines());
            assert!(build_into(&mut scratch, &inst, t, &mut out));
            let orders: Vec<Vec<usize>> = scratch.orders().to_vec();
            // The streamed schedule's makespan equals the evaluator's.
            assert_eq!(out.makespan(), Rational::from(inst.makespan(&orders)));
            // One setup per class (all setups positive in this family), one
            // piece per class (all procs positive).
            assert_eq!(out.num_setups(), inst.num_classes());
            assert_eq!(out.num_pieces(), inst.num_classes());
        }
    }

    #[test]
    fn smaller_guesses_spread_load() {
        // Uniform-ish instance: at t_safe the cheapest-switch rule may chain
        // heavily; near t_min the ceiling forces a spread.
        let inst = random_instance(7, 16, 4);
        let mut scratch = SeqDepScratch::new();
        assert!(probe_in(&mut scratch, &inst, t_safe(&inst)));
        let lo = t_min(&inst);
        // Find an accepted guess close to the lower bound by doubling.
        let mut t = lo;
        while !probe_in(&mut scratch, &inst, t) {
            t *= Rational::new(5, 4);
        }
        let tight: Vec<Vec<usize>> = scratch.orders().to_vec();
        let tight_makespan = inst.makespan(&tight);
        assert!(Rational::from(tight_makespan) <= t * 2u64);
        // The tight run uses more than one machine on this family.
        assert!(tight.iter().filter(|o| !o.is_empty()).count() > 1);
    }

    #[test]
    fn rejection_below_trivial_bounds() {
        let inst = random_instance(3, 8, 2);
        let mut scratch = SeqDepScratch::new();
        // At half the load lower bound the ceiling 2t is below the average
        // machine load — the greedy cannot fit everything.
        let t = load_lower_bound(&inst).half().half();
        assert!(!probe_in(&mut scratch, &inst, t));
        // And nothing was committed to a sink on rejection.
        let mut out = Schedule::new(inst.machines());
        assert!(!build_into(&mut scratch, &inst, t, &mut out));
        assert!(out.placements().is_empty());
    }

    #[test]
    fn single_machine_stays_close_to_exact() {
        for seed in 0..10 {
            let inst = random_instance(seed, 9, 1);
            let mut scratch = SeqDepScratch::new();
            let t = t_safe(&inst);
            assert!(probe_in(&mut scratch, &inst, t));
            let orders: Vec<Vec<usize>> = scratch.orders().to_vec();
            let got = inst.makespan(&orders);
            let exact = exact_single_machine(&inst);
            assert!(got >= exact);
            assert!(got <= 3 * exact, "greedy {got} vs exact {exact}");
        }
    }

    #[test]
    fn scratch_reuse_is_deterministic() {
        let inst = random_instance(11, 14, 3);
        let mut warm = SeqDepScratch::new();
        // Warm the scratch on a different instance first.
        let other = random_instance(12, 20, 5);
        let _ = probe_in(&mut warm, &other, t_safe(&other));
        let t = t_safe(&inst);
        assert!(probe_in(&mut warm, &inst, t));
        let a: Vec<Vec<usize>> = warm.orders().to_vec();
        let mut fresh = SeqDepScratch::new();
        assert!(probe_in(&mut fresh, &inst, t));
        assert_eq!(a, fresh.orders());
    }

    #[test]
    fn lower_bound_consistency() {
        for seed in 0..10 {
            let inst = random_instance(seed, 8, 3);
            assert!(t_min(&inst) >= load_lower_bound(&inst));
            assert!(t_min(&inst) >= Rational::from(class_lower_bound(&inst)));
            assert!(t_safe(&inst) >= t_min(&inst));
        }
    }
}
