//! The bounded solve cache, keyed on instance content hashes.
//!
//! A hit returns the **bit-identical** [`Solution`] computed by the cold
//! solve (shared via [`Arc`], never recomputed or rounded), so a client
//! cannot distinguish a cached answer from a fresh one except by latency.
//! Safety against FNV collisions: the full instance is kept alongside each
//! entry and re-checked for structural equality on every hit — a colliding
//! key is a miss, never a wrong answer. The insert path enforces the same
//! invariant: a key already occupied by a *different* instance is left
//! untouched (the collider is simply uncacheable), so a resident entry can
//! never end up paired with another instance's solution.
//!
//! Only [`Completion::Full`] solutions are cached. Degraded solutions are
//! artifacts of one request's budget; replaying them to a later caller with
//! a looser deadline would silently serve worse schedules than the caller
//! paid for.
//!
//! Eviction is FIFO under a fixed entry bound: the service workload is
//! dominated by either all-distinct instances (eviction policy irrelevant)
//! or a small hot set that fits (any policy works), and FIFO keeps the
//! insert path allocation-light and O(1).

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use bss_core::{Algorithm, Completion, Solution};
use bss_instance::{ContentHasher, Instance, Variant};

/// A cache key: the instance digest plus the solve parameters, mixed into
/// one deterministic word. ([`Algorithm`] deliberately does not implement
/// `Hash`, so the parameters are folded through [`ContentHasher`] instead
/// of deriving a key tuple.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CacheKey(u64);

fn key_of(hash: u64, variant: Variant, algo: Algorithm) -> CacheKey {
    let mut h = ContentHasher::new();
    h.write_u64(hash);
    h.write_u8(match variant {
        Variant::NonPreemptive => 0,
        Variant::Preemptive => 1,
        Variant::Splittable => 2,
    });
    let (tag, eps) = match algo {
        Algorithm::TwoApprox => (0u8, 0u32),
        Algorithm::EpsilonSearch { eps_log2 } => (1, eps_log2),
        Algorithm::ThreeHalves => (2, 0),
        Algorithm::Portfolio => (3, 0),
    };
    h.write_u8(tag);
    h.write_u64(u64::from(eps));
    CacheKey(h.finish())
}

struct CacheEntry {
    /// The full instance, for equality re-verification on hash hits.
    instance: Instance,
    variant: Variant,
    algo: Algorithm,
    solution: Arc<Solution>,
}

/// Counter snapshot of a [`SolveCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed (including collision-mismatches).
    pub misses: u64,
    /// Entries evicted to honor the size bound.
    pub evictions: u64,
    /// Inserts dropped because the key was occupied by a *different*
    /// `(instance, variant, algo)` — a real FNV collision on the insert
    /// path. The collider is served correctly but never cached, so a
    /// nonzero rate here explains an otherwise-mysterious miss plateau.
    pub collisions: u64,
    /// Current entry count.
    pub len: u64,
}

/// A bounded FIFO solve cache. Not internally synchronized — the server
/// wraps it in a `Mutex`; all operations are O(1) expected.
pub struct SolveCache {
    capacity: usize,
    map: HashMap<CacheKey, CacheEntry>,
    /// Insertion order for FIFO eviction.
    order: VecDeque<CacheKey>,
    hits: u64,
    misses: u64,
    evictions: u64,
    collisions: u64,
}

impl SolveCache {
    /// An empty cache holding at most `capacity` entries. A zero capacity
    /// disables caching (every lookup misses, every insert is dropped).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        SolveCache {
            capacity,
            map: HashMap::new(),
            order: VecDeque::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
            collisions: 0,
        }
    }

    /// Looks up a solution for `(instance, variant, algo)`, verifying full
    /// instance equality before trusting the hash.
    pub fn lookup(
        &mut self,
        hash: u64,
        instance: &Instance,
        variant: Variant,
        algo: Algorithm,
    ) -> Option<Arc<Solution>> {
        let key = key_of(hash, variant, algo);
        match self.map.get(&key) {
            Some(entry)
                if entry.variant == variant
                    && entry.algo == algo
                    && entry.instance == *instance =>
            {
                self.hits += 1;
                Some(Arc::clone(&entry.solution))
            }
            _ => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts a freshly solved entry, evicting the oldest entry when full.
    /// Degraded or cancelled solutions are refused (see the module docs);
    /// re-inserting an existing key refreshes the solution in place without
    /// touching the FIFO order. An insert whose key collides with a
    /// *different* cached `(instance, variant, algo)` is dropped: replacing
    /// the resident solution while keeping the resident instance would let
    /// a later lookup of that instance pass the equality re-check and
    /// return this solution — a wrong answer.
    pub fn insert(
        &mut self,
        hash: u64,
        instance: &Instance,
        variant: Variant,
        algo: Algorithm,
        solution: &Arc<Solution>,
    ) {
        if self.capacity == 0 || solution.completion != Completion::Full {
            return;
        }
        let key = key_of(hash, variant, algo);
        match self.map.entry(key) {
            Entry::Occupied(mut occupied) => {
                let entry = occupied.get_mut();
                if entry.variant == variant && entry.algo == algo && entry.instance == *instance {
                    entry.solution = Arc::clone(solution);
                } else {
                    // The silent-drop invariant holds; the counter makes the
                    // drop observable in the `stats` op and loadgen output.
                    self.collisions += 1;
                }
            }
            Entry::Vacant(vacant) => {
                vacant.insert(CacheEntry {
                    instance: instance.clone(),
                    variant,
                    algo,
                    solution: Arc::clone(solution),
                });
                self.order.push_back(key);
                while self.map.len() > self.capacity {
                    if let Some(oldest) = self.order.pop_front() {
                        self.map.remove(&oldest);
                        self.evictions += 1;
                    } else {
                        break;
                    }
                }
            }
        }
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            collisions: self.collisions,
            len: self.map.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use bss_chaos::assert_bit_identical;
    use bss_core::{solve, Interrupt, SolveBudget};

    use super::*;

    fn inst(seed: u64) -> Instance {
        bss_gen::uniform(12, 3, 2, seed)
    }

    fn solved(i: &Instance) -> Arc<Solution> {
        Arc::new(solve(i, Variant::Splittable, Algorithm::ThreeHalves))
    }

    #[test]
    fn hit_returns_the_inserted_solution_bit_identically() {
        let mut cache = SolveCache::new(4);
        let i = inst(1);
        let h = i.content_hash();
        let sol = solved(&i);
        cache.insert(h, &i, Variant::Splittable, Algorithm::ThreeHalves, &sol);
        let hit = cache
            .lookup(h, &i, Variant::Splittable, Algorithm::ThreeHalves)
            .expect("inserted entry must hit");
        assert_bit_identical("cache hit", &sol, &hit);
        // Literally the same allocation, not a lookalike.
        assert!(Arc::ptr_eq(&sol, &hit));
    }

    #[test]
    fn variant_and_algorithm_are_part_of_the_key() {
        let mut cache = SolveCache::new(8);
        let i = inst(2);
        let h = i.content_hash();
        let sol = solved(&i);
        cache.insert(h, &i, Variant::Splittable, Algorithm::ThreeHalves, &sol);
        assert!(cache
            .lookup(h, &i, Variant::Preemptive, Algorithm::ThreeHalves)
            .is_none());
        assert!(cache
            .lookup(h, &i, Variant::Splittable, Algorithm::TwoApprox)
            .is_none());
        assert!(cache
            .lookup(
                h,
                &i,
                Variant::Splittable,
                Algorithm::EpsilonSearch { eps_log2: 4 }
            )
            .is_none());
        assert!(cache
            .lookup(h, &i, Variant::Splittable, Algorithm::ThreeHalves)
            .is_some());
    }

    #[test]
    fn colliding_hash_with_different_instance_is_a_miss_not_a_wrong_answer() {
        let mut cache = SolveCache::new(4);
        let a = inst(3);
        let b = inst(4);
        assert_ne!(a, b);
        let sol = solved(&a);
        let h = a.content_hash();
        cache.insert(h, &a, Variant::Splittable, Algorithm::ThreeHalves, &sol);
        // Simulate an FNV collision: look up instance `b` under `a`'s hash.
        // The equality re-check must turn this into a miss.
        assert!(cache
            .lookup(h, &b, Variant::Splittable, Algorithm::ThreeHalves)
            .is_none());
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn insert_over_a_colliding_key_does_not_poison_the_entry() {
        let mut cache = SolveCache::new(4);
        let a = inst(7);
        let b = inst(8);
        assert_ne!(a, b);
        let sol_a = solved(&a);
        let sol_b = solved(&b);
        let h = a.content_hash();
        cache.insert(h, &a, Variant::Splittable, Algorithm::ThreeHalves, &sol_a);
        // Simulate an FNV collision: insert `b` under `a`'s hash. The
        // insert must be dropped — overwriting in place would pair `a`'s
        // instance with `b`'s solution, and a later lookup(a) would pass
        // the equality re-check and return the wrong answer.
        cache.insert(h, &b, Variant::Splittable, Algorithm::ThreeHalves, &sol_b);
        let hit = cache
            .lookup(h, &a, Variant::Splittable, Algorithm::ThreeHalves)
            .expect("the resident entry must survive a colliding insert");
        assert!(
            Arc::ptr_eq(&hit, &sol_a),
            "colliding insert replaced the resident solution"
        );
        // The collider itself is simply not cached, and the drop is counted.
        assert!(cache
            .lookup(h, &b, Variant::Splittable, Algorithm::ThreeHalves)
            .is_none());
        assert_eq!(cache.stats().collisions, 1);
        // An in-place refresh of the resident entry is NOT a collision.
        cache.insert(h, &a, Variant::Splittable, Algorithm::ThreeHalves, &sol_a);
        assert_eq!(cache.stats().collisions, 1);
    }

    #[test]
    fn fifo_eviction_honors_the_size_bound() {
        let mut cache = SolveCache::new(2);
        let instances: Vec<Instance> = (10..13).map(inst).collect();
        let sols: Vec<Arc<Solution>> = instances.iter().map(solved).collect();
        for (i, s) in instances.iter().zip(&sols) {
            cache.insert(
                i.content_hash(),
                i,
                Variant::Splittable,
                Algorithm::ThreeHalves,
                s,
            );
        }
        let stats = cache.stats();
        assert_eq!(stats.len, 2, "size bound violated");
        assert_eq!(stats.evictions, 1);
        // Oldest (first inserted) is gone; the two newest remain.
        assert!(cache
            .lookup(
                instances[0].content_hash(),
                &instances[0],
                Variant::Splittable,
                Algorithm::ThreeHalves
            )
            .is_none());
        for i in [1, 2] {
            assert!(cache
                .lookup(
                    instances[i].content_hash(),
                    &instances[i],
                    Variant::Splittable,
                    Algorithm::ThreeHalves
                )
                .is_some());
        }
    }

    #[test]
    fn degraded_solutions_are_never_cached() {
        let mut cache = SolveCache::new(4);
        let i = inst(5);
        let h = i.content_hash();
        // A work budget of 0 forces a degraded completion.
        let budget = SolveBudget::unlimited().with_work_limit(0);
        let opts = bss_core::SolveOptions {
            budget: Some(&budget),
            ..bss_core::SolveOptions::default()
        };
        let problem = bss_core::BssProblem::new(&i, Variant::NonPreemptive);
        let degraded = Arc::new(
            bss_core::solve_problem(
                &mut bss_core::DualWorkspace::new(),
                &problem,
                Algorithm::ThreeHalves,
                &opts,
            )
            .expect("budgeted solve returns a degraded solution, not an error"),
        );
        assert_eq!(
            degraded.completion,
            Completion::Degraded(Interrupt::WorkExhausted)
        );
        cache.insert(
            h,
            &i,
            Variant::NonPreemptive,
            Algorithm::ThreeHalves,
            &degraded,
        );
        assert!(cache
            .lookup(h, &i, Variant::NonPreemptive, Algorithm::ThreeHalves)
            .is_none());
        assert_eq!(cache.stats().len, 0);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cache = SolveCache::new(0);
        let i = inst(6);
        let h = i.content_hash();
        let sol = solved(&i);
        cache.insert(h, &i, Variant::Splittable, Algorithm::ThreeHalves, &sol);
        assert!(cache
            .lookup(h, &i, Variant::Splittable, Algorithm::ThreeHalves)
            .is_none());
        assert_eq!(cache.stats().len, 0);
    }
}
