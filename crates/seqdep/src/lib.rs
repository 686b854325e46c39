//! Sequence-dependent batch setups — the extension sketched in the paper's
//! conclusion, grown into a solver crate.
//!
//! Setup times are given as a matrix `S ∈ N^{c×c}` of values `s(i1, i2)`:
//! switching a machine from class `i1` to class `i2` costs `s(i1, i2)`, and a
//! separate vector gives the initial setup of a fresh machine. The paper
//! observes the natural reduction: with `m = 1`, one zero-length job per
//! class, and setups chosen as inter-city distances, minimizing the makespan
//! *is* the path-version TSP — so the problem is APX-hard in general and this
//! crate provides:
//!
//! * the model and a makespan evaluator ([`SeqDepInstance`]), with
//!   error-returning constructors and a JSON wire format;
//! * an exact Held–Karp oracle for one machine and small `c`
//!   ([`exact_single_machine`]);
//! * a nearest-neighbour + LPT heuristic for `m` machines
//!   ([`nearest_neighbor_schedule`]);
//! * a dual-approximation-style solver ([`solver`]): a capacity-bounded
//!   greedy builder driven by a search over the instance-only lower bound,
//!   allocation-free on a warm [`solver::SeqDepScratch`] and emitting
//!   standard [`bss_schedule`] placements through any `PlacementSink`;
//! * the two reductions bridging this model and the batch-setup model
//!   ([`reduce`]): batch setups are exactly the *uniform* special case
//!   `s(c, c') = s(c')` (Jansen–Maack–Mäcker, arXiv:1809.10428);
//! * the TSP reduction as a constructor ([`SeqDepInstance::from_tsp_path`]),
//!   used in tests to cross-check the oracle against brute force.

use core::fmt;

use bss_json::{Field, FromJson, JsonError, JsonReader, JsonWriter, ToJson};
use bss_rational::Rational;

pub mod reduce;
pub mod solver;

/// Upper bound on the *sequential weight* `Σ_j (t_j + max-in_j)` enforced at
/// construction (the same `2^60` cap as `bss_instance::MAX_TOTAL_LOAD`).
///
/// Any single machine's completion time pays, per class it runs, the class's
/// processing time plus *one* setup into it; bounding the sum of worst-case
/// entry setups and processing times keeps every `u64` accumulation in
/// [`SeqDepInstance::machine_time`] overflow-free even on hostile inputs.
pub const MAX_SEQUENTIAL_WEIGHT: u64 = 1 << 60;

/// Errors detected while building a [`SeqDepInstance`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SeqDepError {
    /// `m == 0`.
    NoMachines,
    /// `c == 0` (empty `initial` / `switch`).
    NoClasses,
    /// A `switch` row whose length differs from the class count (ragged or
    /// non-square matrix).
    RaggedSwitchRow {
        /// Index of the offending row.
        row: usize,
        /// Its length.
        len: usize,
        /// The class count it must match.
        expected: usize,
    },
    /// `initial` / `class_proc` / `switch` disagree on the class count.
    DimensionMismatch {
        /// Which input is off (`"switch"` or `"class_proc"`).
        field: &'static str,
        /// Its length.
        len: usize,
        /// The class count (length of `initial`).
        expected: usize,
    },
    /// The sequential weight `Σ_j (t_j + max-in_j)` exceeds
    /// [`MAX_SEQUENTIAL_WEIGHT`].
    SequentialWeightTooLarge,
}

impl fmt::Display for SeqDepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SeqDepError::NoMachines => write!(f, "instance must have at least one machine"),
            SeqDepError::NoClasses => write!(f, "instance must have at least one class"),
            SeqDepError::RaggedSwitchRow { row, len, expected } => write!(
                f,
                "switch matrix row {row} has {len} entries, expected {expected} (square c x c)"
            ),
            SeqDepError::DimensionMismatch {
                field,
                len,
                expected,
            } => write!(f, "{field} has length {len}, expected {expected} classes"),
            SeqDepError::SequentialWeightTooLarge => {
                write!(f, "sequential weight exceeds 2^60; rescale the instance")
            }
        }
    }
}

impl std::error::Error for SeqDepError {}

/// Instance-lifetime memo of the `O(c²)` uniformity reduction
/// ([`reduce::to_uniform_instance`]), plus a counter of how many times the
/// scan actually ran — the accounting hook the hotspot regression test
/// asserts on. The memo is deliberately invisible to the instance's *value*:
/// clones start cold, equality and the JSON round trip ignore it.
#[derive(Default)]
struct UniformMemo {
    cell: std::sync::OnceLock<Option<bss_instance::Instance>>,
    checks: std::sync::atomic::AtomicUsize,
}

impl Clone for UniformMemo {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl PartialEq for UniformMemo {
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

impl Eq for UniformMemo {}

impl fmt::Debug for UniformMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("UniformMemo")
    }
}

/// Storage behind the `c×c` switch matrix.
///
/// The *uniform* special case (`switch(i, j) = initial(j)` for `i ≠ j`,
/// zero diagonal) is exactly the image of the batch-setup embedding
/// [`reduce::from_instance`]; materializing its `c²` identical rows is pure
/// waste — 50 MB and tens of milliseconds at `c = 2500`. The uniform
/// backing streams every entry from the length-`c` `initial` vector
/// instead, making the embedding `O(c)` in time and memory. Genuinely
/// sequence-dependent instances keep the dense matrix.
///
/// The backing is a representation detail, invisible to the instance's
/// *value*: equality is semantic (a dense matrix that happens to be uniform
/// equals its streamed twin) and the JSON wire format is always the dense
/// matrix.
#[derive(Debug, Clone)]
enum SwitchBacking {
    /// An explicit `c×c` matrix.
    Dense(Vec<Vec<u64>>),
    /// `switch(i, j) = initial[j]` for `i ≠ j`, `0` on the diagonal —
    /// derived on the fly from the instance's `initial` vector.
    UniformFromInitial,
}

/// A sequence-dependent batch-setup instance.
///
/// Classes are `0..c`; `switch[i][j]` is the setup paid when a machine moves
/// from processing class `i` to class `j` (`switch[i][i] = 0` by convention),
/// and `initial[j]` is the setup paid when a fresh machine starts with class
/// `j`. All jobs of a class are processed together (batch scheduling), so
/// only the class *order* per machine matters.
#[derive(Debug, Clone)]
pub struct SeqDepInstance {
    machines: usize,
    initial: Vec<u64>,
    switch: SwitchBacking,
    class_proc: Vec<u64>,
    uniform: UniformMemo,
}

impl PartialEq for SeqDepInstance {
    fn eq(&self, other: &Self) -> bool {
        if self.machines != other.machines
            || self.initial != other.initial
            || self.class_proc != other.class_proc
        {
            return false;
        }
        // Semantic equality across backings: the switch *values* decide.
        match (&self.switch, &other.switch) {
            (SwitchBacking::Dense(a), SwitchBacking::Dense(b)) => a == b,
            (SwitchBacking::UniformFromInitial, SwitchBacking::UniformFromInitial) => true,
            (SwitchBacking::Dense(d), SwitchBacking::UniformFromInitial)
            | (SwitchBacking::UniformFromInitial, SwitchBacking::Dense(d)) => {
                d.iter().enumerate().all(|(i, row)| {
                    row.iter()
                        .enumerate()
                        .all(|(j, &v)| v == if i == j { 0 } else { self.initial[j] })
                })
            }
        }
    }
}

impl Eq for SeqDepInstance {}

impl SeqDepInstance {
    /// Builds an instance; `switch` must be a `c×c` matrix and `initial`,
    /// `class_proc` length-`c` vectors.
    ///
    /// # Errors
    /// Returns a [`SeqDepError`] on `machines == 0`, an empty class set, a
    /// ragged or non-square `switch` matrix, mismatched vector lengths, or a
    /// sequential weight past [`MAX_SEQUENTIAL_WEIGHT`] — degenerate inputs
    /// are reported, never panicked on.
    pub fn new(
        machines: usize,
        initial: Vec<u64>,
        switch: Vec<Vec<u64>>,
        class_proc: Vec<u64>,
    ) -> Result<Self, SeqDepError> {
        let c = initial.len();
        if machines == 0 {
            return Err(SeqDepError::NoMachines);
        }
        if c == 0 {
            return Err(SeqDepError::NoClasses);
        }
        if switch.len() != c {
            return Err(SeqDepError::DimensionMismatch {
                field: "switch",
                len: switch.len(),
                expected: c,
            });
        }
        for (row, r) in switch.iter().enumerate() {
            if r.len() != c {
                return Err(SeqDepError::RaggedSwitchRow {
                    row,
                    len: r.len(),
                    expected: c,
                });
            }
        }
        if class_proc.len() != c {
            return Err(SeqDepError::DimensionMismatch {
                field: "class_proc",
                len: class_proc.len(),
                expected: c,
            });
        }
        let inst = SeqDepInstance {
            machines,
            initial,
            switch: SwitchBacking::Dense(switch),
            class_proc,
            uniform: UniformMemo::default(),
        };
        let weight: u128 = (0..c)
            .map(|j| inst.class_proc[j] as u128 + inst.max_in(j) as u128)
            .sum();
        if weight > MAX_SEQUENTIAL_WEIGHT as u128 {
            return Err(SeqDepError::SequentialWeightTooLarge);
        }
        Ok(inst)
    }

    /// Builds a *uniform* instance — `switch(i, j) = initial[j]` for
    /// `i ≠ j`, zero diagonal — without materializing the `c×c` matrix:
    /// `O(c)` time and memory, versus the `O(c²)` of spelling the matrix
    /// out for [`SeqDepInstance::new`]. Equal (`==`) to the dense spelling.
    ///
    /// This is the constructor behind [`reduce::from_instance`], keeping the
    /// batch-setup embedding linear in the class count.
    ///
    /// # Errors
    /// Returns a [`SeqDepError`] on `machines == 0`, an empty class set,
    /// mismatched vector lengths, or a sequential weight past
    /// [`MAX_SEQUENTIAL_WEIGHT`].
    pub fn uniform(
        machines: usize,
        initial: Vec<u64>,
        class_proc: Vec<u64>,
    ) -> Result<Self, SeqDepError> {
        let c = initial.len();
        if machines == 0 {
            return Err(SeqDepError::NoMachines);
        }
        if c == 0 {
            return Err(SeqDepError::NoClasses);
        }
        if class_proc.len() != c {
            return Err(SeqDepError::DimensionMismatch {
                field: "class_proc",
                len: class_proc.len(),
                expected: c,
            });
        }
        // Under the uniform backing every entry into class j — initial or
        // switch — costs initial[j], so max-in is initial[j] directly.
        let weight: u128 = (0..c)
            .map(|j| class_proc[j] as u128 + initial[j] as u128)
            .sum();
        if weight > MAX_SEQUENTIAL_WEIGHT as u128 {
            return Err(SeqDepError::SequentialWeightTooLarge);
        }
        Ok(SeqDepInstance {
            machines,
            initial,
            switch: SwitchBacking::UniformFromInitial,
            class_proc,
            uniform: UniformMemo::default(),
        })
    }

    /// Whether the instance *stores* its switch matrix in the streamed
    /// uniform backing (`O(c)` memory). Note this is about representation:
    /// a dense instance whose matrix happens to be uniform reports `false`
    /// here while still satisfying [`reduce::is_uniform`].
    #[must_use]
    pub fn has_uniform_backing(&self) -> bool {
        matches!(self.switch, SwitchBacking::UniformFromInitial)
    }

    /// The batch-setup reduction of this instance if it is *uniform*
    /// (`switch(i, j) = initial(j)` for all `i ≠ j`, with positive setups
    /// and work), computed at most once per instance and memoized: repeated
    /// bridge constructions over the same instance reuse the cached result
    /// instead of re-paying the `O(c²)` matrix scan.
    pub fn uniform_reduction(&self) -> Option<&bss_instance::Instance> {
        self.uniform
            .cell
            .get_or_init(|| {
                self.uniform
                    .checks
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                reduce::to_uniform_instance(self).ok()
            })
            .as_ref()
    }

    /// How many times the `O(c²)` uniformity scan actually ran on this
    /// instance: `0` before the first [`Self::uniform_reduction`] call and
    /// `1` ever after, however many times the bridge is re-built. The
    /// hotspot regression test pins this counter.
    pub fn uniformity_checks(&self) -> usize {
        self.uniform
            .checks
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    /// The path-TSP reduction of the paper's conclusion: `m = 1`, one
    /// zero-work class per city, `switch = dist`, `initial = 0⁺` (a unit —
    /// the model requires positive initial setups to mark machine starts;
    /// it adds the same constant to every tour).
    ///
    /// # Errors
    /// Returns a [`SeqDepError`] on an empty or ragged/non-square distance
    /// matrix (or oversized entries), instead of panicking.
    pub fn from_tsp_path(dist: Vec<Vec<u64>>) -> Result<Self, SeqDepError> {
        let c = dist.len();
        SeqDepInstance::new(1, vec![1; c], dist, vec![0; c])
    }

    /// Number of classes.
    #[must_use]
    pub fn num_classes(&self) -> usize {
        self.initial.len()
    }

    /// Number of machines.
    #[must_use]
    pub fn machines(&self) -> usize {
        self.machines
    }

    /// Initial setup of class `j` on a fresh machine.
    #[must_use]
    pub fn initial(&self, j: usize) -> u64 {
        self.initial[j]
    }

    /// Switch-over setup from class `i` to class `j`.
    #[must_use]
    pub fn switch(&self, i: usize, j: usize) -> u64 {
        match &self.switch {
            SwitchBacking::Dense(m) => m[i][j],
            SwitchBacking::UniformFromInitial => {
                assert!(i < self.initial.len(), "class {i} out of range");
                if i == j {
                    0
                } else {
                    self.initial[j]
                }
            }
        }
    }

    /// Processing time of class `j`'s batch.
    #[must_use]
    pub fn class_proc(&self, j: usize) -> u64 {
        self.class_proc[j]
    }

    /// The setup actually paid when a machine whose last class is `last`
    /// (`None` = fresh) switches to `class`.
    #[must_use]
    pub fn setup_into(&self, last: Option<usize>, class: usize) -> u64 {
        match last {
            None => self.initial[class],
            Some(p) => self.switch(p, class),
        }
    }

    /// Cheapest way to ever start class `j`: `min(initial_j, min_i s(i, j))`.
    /// `O(1)` on the uniform backing (every entry into `j` is `initial_j`),
    /// `O(c)` on a dense matrix.
    #[must_use]
    pub fn min_in(&self, j: usize) -> u64 {
        match &self.switch {
            SwitchBacking::UniformFromInitial => self.initial[j],
            SwitchBacking::Dense(m) => (0..self.num_classes())
                .filter(|&i| i != j)
                .map(|i| m[i][j])
                .chain(core::iter::once(self.initial[j]))
                .min()
                .expect("c >= 1"),
        }
    }

    /// Most expensive way to start class `j`: `max(initial_j, max_i s(i, j))`.
    /// `O(1)` on the uniform backing, `O(c)` on a dense matrix.
    #[must_use]
    pub fn max_in(&self, j: usize) -> u64 {
        match &self.switch {
            SwitchBacking::UniformFromInitial => self.initial[j],
            SwitchBacking::Dense(m) => (0..self.num_classes())
                .filter(|&i| i != j)
                .map(|i| m[i][j])
                .chain(core::iter::once(self.initial[j]))
                .max()
                .expect("c >= 1"),
        }
    }

    /// `Σ_j (t_j + max-in_j)`: an upper bound on *any* machine's completion
    /// time (each class pays one entry setup), hence on the one-machine
    /// schedule produced by chaining everything. The search seeds its upper
    /// bracket from half of this.
    #[must_use]
    pub fn sequential_weight(&self) -> u64 {
        (0..self.num_classes())
            .map(|j| self.class_proc[j] + self.max_in(j))
            .sum()
    }

    /// Completion time of one machine processing `order` (class sequence).
    #[must_use]
    pub fn machine_time(&self, order: &[usize]) -> u64 {
        let mut t = 0u64;
        let mut prev: Option<usize> = None;
        for &class in order {
            t += self.setup_into(prev, class);
            t += self.class_proc[class];
            prev = Some(class);
        }
        t
    }

    /// Makespan of a full assignment: `orders[u]` is machine `u`'s class
    /// sequence. Validates that every class appears exactly once overall.
    ///
    /// # Panics
    /// Panics if the assignment is not a partition of the classes (a caller
    /// bug, not an input-data problem — use [`SeqDepInstance::check_orders`]
    /// for data from outside).
    #[must_use]
    pub fn makespan(&self, orders: &[Vec<usize>]) -> u64 {
        if let Err(e) = self.check_orders(orders) {
            panic!("{e}");
        }
        orders
            .iter()
            .map(|o| self.machine_time(o))
            .max()
            .unwrap_or(0)
    }

    /// Checks that `orders` is a partition of the classes over at most `m`
    /// machines; `Err` carries a human-readable description.
    pub fn check_orders(&self, orders: &[Vec<usize>]) -> Result<(), String> {
        if orders.len() > self.machines {
            return Err(format!(
                "too many machines used: {} > {}",
                orders.len(),
                self.machines
            ));
        }
        let mut seen = vec![false; self.num_classes()];
        for order in orders {
            for &class in order {
                if class >= self.num_classes() {
                    return Err(format!("unknown class {class}"));
                }
                if seen[class] {
                    return Err(format!("class {class} scheduled twice"));
                }
                seen[class] = true;
            }
        }
        if let Some(missing) = seen.iter().position(|&s| !s) {
            return Err(format!("class {missing} unscheduled"));
        }
        Ok(())
    }
}

impl ToJson for SeqDepInstance {
    fn write_json(&self, w: &mut JsonWriter) {
        fn ints(w: &mut JsonWriter, values: impl IntoIterator<Item = u64>) {
            w.array(|a| {
                for x in values {
                    a.item().int(x.into());
                }
            });
        }
        // The wire format is always the dense matrix, whatever the backing:
        // readers never have to know about the streamed representation.
        let c = self.num_classes();
        w.object(|o| {
            o.key("machines").int(self.machines as i128);
            ints(o.key("initial"), self.initial.iter().copied());
            o.key("switch").array(|rows| {
                for i in 0..c {
                    ints(rows.item(), (0..c).map(|j| self.switch(i, j)));
                }
            });
            ints(o.key("class_proc"), self.class_proc.iter().copied());
        });
    }
}

impl FromJson for SeqDepInstance {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, JsonError> {
        let (mut machines, mut initial, mut switch, mut class_proc) = (
            Field::default(),
            Field::default(),
            Field::default(),
            Field::default(),
        );
        r.object("machines", |key, r| match key {
            "machines" => machines.read_with(r, |r| r.int("machines")),
            "initial" => initial.read_with(r, |r| r.ints("initial", "entry")),
            "switch" => switch.read_with(r, |r| {
                let mut rows = Vec::new();
                r.array("switch", |r| {
                    rows.push(r.ints("switch row", "entry")?);
                    Ok(())
                })?;
                Ok(rows)
            }),
            "class_proc" => class_proc.read_with(r, |r| r.ints("class_proc", "entry")),
            _ => r.skip(),
        })?;
        SeqDepInstance::new(
            machines.required("machines")?,
            initial.required("initial")?,
            switch.required("switch")?,
            class_proc.required("class_proc")?,
        )
        .map_err(|e| JsonError::new(format!("invalid seqdep instance data: {e}")))
    }
}

/// Errors arising while reading a [`SeqDepInstance`] from JSON.
#[derive(Debug)]
pub enum SeqDepIoError {
    /// The JSON was malformed.
    Json(JsonError),
}

impl fmt::Display for SeqDepIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SeqDepIoError::Json(e) => write!(f, "invalid seqdep instance JSON: {e}"),
        }
    }
}

impl std::error::Error for SeqDepIoError {}

impl SeqDepInstance {
    /// Serializes the instance to pretty-printed JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        bss_json::encode_pretty(self)
    }

    /// Parses and validates an instance from JSON.
    pub fn from_json(json: &str) -> Result<Self, SeqDepIoError> {
        bss_json::decode(json).map_err(SeqDepIoError::Json)
    }
}

/// Exact single-machine optimum by Held–Karp over class subsets
/// (`O(2^c c^2)`; guarded to `c <= 20`).
#[must_use]
pub fn exact_single_machine(inst: &SeqDepInstance) -> u64 {
    let c = inst.num_classes();
    assert!(c <= 20, "Held-Karp oracle limited to c <= 20");
    let full = (1usize << c) - 1;
    // best[mask][last] = minimal time to process `mask` ending in `last`.
    let mut best = vec![vec![u64::MAX; c]; full + 1];
    for j in 0..c {
        best[1 << j][j] = inst.initial(j) + inst.class_proc(j);
    }
    for mask in 1..=full {
        for last in 0..c {
            let cur = best[mask][last];
            if cur == u64::MAX || mask & (1 << last) == 0 {
                continue;
            }
            for next in 0..c {
                if mask & (1 << next) != 0 {
                    continue;
                }
                let cand = cur + inst.switch(last, next) + inst.class_proc(next);
                let slot = &mut best[mask | (1 << next)][next];
                if cand < *slot {
                    *slot = cand;
                }
            }
        }
    }
    best[full].iter().copied().min().expect("c >= 1")
}

/// Nearest-neighbour + longest-batch-first heuristic for `m` machines.
///
/// Classes are assigned to machines greedily (heaviest remaining batch to the
/// machine that can finish it earliest, accounting for the sequence-dependent
/// switch from that machine's current last class). Returns the per-machine
/// orders; evaluate with [`SeqDepInstance::makespan`].
#[must_use]
pub fn nearest_neighbor_schedule(inst: &SeqDepInstance) -> Vec<Vec<usize>> {
    let c = inst.num_classes();
    let m = inst.machines().min(c);
    let mut orders: Vec<Vec<usize>> = vec![Vec::new(); m];
    let mut finish: Vec<u64> = vec![0; m];
    let mut remaining: Vec<usize> = (0..c).collect();
    // Heaviest batches first.
    remaining.sort_by_key(|&i| std::cmp::Reverse(inst.class_proc[i]));
    for class in remaining {
        let (u, _) = (0..m)
            .map(|u| {
                let setup = inst.setup_into(orders[u].last().copied(), class);
                (u, finish[u] + setup + inst.class_proc[class])
            })
            .min_by_key(|&(_, t)| t)
            .expect("m >= 1");
        let setup = inst.setup_into(orders[u].last().copied(), class);
        finish[u] += setup + inst.class_proc[class];
        orders[u].push(class);
    }
    orders
}

/// Average over machines of the lower bound `Σ min-setups + Σ work / m` —
/// used to certify heuristic quality in reports.
#[must_use]
pub fn load_lower_bound(inst: &SeqDepInstance) -> Rational {
    let c = inst.num_classes();
    let mut total: u64 = inst.class_proc.iter().sum();
    for j in 0..c {
        total += inst.min_in(j);
    }
    Rational::from(total) / inst.machines().min(c)
}

/// `max_j (min-in_j + t_j)`: the machine running class `j` pays at least the
/// cheapest entry into `j` plus `j`'s work.
#[must_use]
pub fn class_lower_bound(inst: &SeqDepInstance) -> u64 {
    (0..inst.num_classes())
        .map(|j| inst.min_in(j) + inst.class_proc(j))
        .max()
        .expect("c >= 1")
}

/// `min_j (initial_j + t_j)`: some machine runs a *first* class, paying that
/// class's initial setup in full — no switch discount applies to it. Catches
/// instances whose `min-in` bounds vanish (free switches) but whose initial
/// setups do not.
#[must_use]
pub fn first_class_lower_bound(inst: &SeqDepInstance) -> u64 {
    (0..inst.num_classes())
        .map(|j| inst.initial(j) + inst.class_proc(j))
        .min()
        .expect("c >= 1")
}

/// The strongest instance-only lower bound on the optimal makespan:
/// `max(load, class, first-class)` — the search anchor, mirroring the
/// batch-setup `T_min` of Notes 1–2. Zero exactly when every schedule is
/// free (`OPT = 0`).
#[must_use]
pub fn t_min(inst: &SeqDepInstance) -> Rational {
    load_lower_bound(inst)
        .max(Rational::from(class_lower_bound(inst)))
        .max(Rational::from(first_class_lower_bound(inst)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tsp4() -> Vec<Vec<u64>> {
        // Symmetric 4-city distances with known best path 0-2-1-3 (cost 9).
        vec![
            vec![0, 10, 2, 12],
            vec![10, 0, 3, 4],
            vec![2, 3, 0, 9],
            vec![12, 4, 9, 0],
        ]
    }

    #[test]
    fn machine_time_accumulates_switches() {
        let inst =
            SeqDepInstance::new(1, vec![5, 7], vec![vec![0, 2], vec![3, 0]], vec![10, 20]).unwrap();
        assert_eq!(inst.machine_time(&[0, 1]), 5 + 10 + 2 + 20);
        assert_eq!(inst.machine_time(&[1, 0]), 7 + 20 + 3 + 10);
        assert_eq!(inst.machine_time(&[]), 0);
    }

    #[test]
    fn constructors_reject_degenerate_inputs() {
        // Zero machines.
        assert_eq!(
            SeqDepInstance::new(0, vec![1], vec![vec![0]], vec![1]).unwrap_err(),
            SeqDepError::NoMachines
        );
        // Empty class set.
        assert_eq!(
            SeqDepInstance::new(2, vec![], vec![], vec![]).unwrap_err(),
            SeqDepError::NoClasses
        );
        assert_eq!(
            SeqDepInstance::from_tsp_path(vec![]).unwrap_err(),
            SeqDepError::NoClasses
        );
        // Ragged switch matrix.
        assert_eq!(
            SeqDepInstance::from_tsp_path(vec![vec![0, 1], vec![1]]).unwrap_err(),
            SeqDepError::RaggedSwitchRow {
                row: 1,
                len: 1,
                expected: 2
            }
        );
        // Non-square (too few rows).
        assert_eq!(
            SeqDepInstance::new(1, vec![1, 1], vec![vec![0, 1]], vec![1, 1]).unwrap_err(),
            SeqDepError::DimensionMismatch {
                field: "switch",
                len: 1,
                expected: 2
            }
        );
        // class_proc length mismatch.
        assert_eq!(
            SeqDepInstance::new(1, vec![1], vec![vec![0]], vec![1, 2]).unwrap_err(),
            SeqDepError::DimensionMismatch {
                field: "class_proc",
                len: 2,
                expected: 1
            }
        );
        // Sequential-weight overflow guard.
        assert_eq!(
            SeqDepInstance::new(
                1,
                vec![u64::MAX / 2, u64::MAX / 2],
                vec![vec![0, 1], vec![1, 0]],
                vec![1, 1]
            )
            .unwrap_err(),
            SeqDepError::SequentialWeightTooLarge
        );
    }

    #[test]
    fn json_roundtrip() {
        let inst = SeqDepInstance::from_tsp_path(tsp4()).unwrap();
        let back = SeqDepInstance::from_json(&inst.to_json()).unwrap();
        assert_eq!(back, inst);
        // Model violations decoded from JSON are rejected, not panicked on.
        let bad = r#"{"machines":0,"initial":[1],"switch":[[0]],"class_proc":[1]}"#;
        assert!(SeqDepInstance::from_json(bad).is_err());
        let ragged = r#"{"machines":1,"initial":[1,1],"switch":[[0,1],[1]],"class_proc":[1,1]}"#;
        assert!(SeqDepInstance::from_json(ragged).is_err());
    }

    #[test]
    fn held_karp_solves_tsp_path() {
        let inst = SeqDepInstance::from_tsp_path(tsp4()).unwrap();
        // best path 0-2-1-3: 2 + 3 + 4 = 9, plus initial 1.
        assert_eq!(exact_single_machine(&inst), 10);
    }

    #[test]
    fn held_karp_matches_brute_force() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..20 {
            let c = rng.gen_range(1..=6usize);
            let switch: Vec<Vec<u64>> = (0..c)
                .map(|i| {
                    (0..c)
                        .map(|j| if i == j { 0 } else { rng.gen_range(1..30) })
                        .collect()
                })
                .collect();
            let initial: Vec<u64> = (0..c).map(|_| rng.gen_range(1..10)).collect();
            let work: Vec<u64> = (0..c).map(|_| rng.gen_range(0..20)).collect();
            let inst = SeqDepInstance::new(1, initial, switch, work).unwrap();
            // Brute force over all permutations.
            let mut perm: Vec<usize> = (0..c).collect();
            let mut best = u64::MAX;
            permute(&mut perm, 0, &mut |p| {
                best = best.min(inst.machine_time(p));
            });
            assert_eq!(exact_single_machine(&inst), best);
        }

        fn permute(v: &mut Vec<usize>, k: usize, f: &mut impl FnMut(&[usize])) {
            if k == v.len() {
                f(v);
                return;
            }
            for i in k..v.len() {
                v.swap(k, i);
                permute(v, k + 1, f);
                v.swap(k, i);
            }
        }
    }

    #[test]
    fn heuristic_is_feasible_and_bounded() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..20 {
            let c = rng.gen_range(2..=10usize);
            let m = rng.gen_range(1..=4usize);
            let switch: Vec<Vec<u64>> = (0..c)
                .map(|i| {
                    (0..c)
                        .map(|j| if i == j { 0 } else { rng.gen_range(1..20) })
                        .collect()
                })
                .collect();
            let initial: Vec<u64> = (0..c).map(|_| rng.gen_range(1..20)).collect();
            let work: Vec<u64> = (0..c).map(|_| rng.gen_range(1..50)).collect();
            let initial_sum: u64 = initial.iter().sum();
            let inst = SeqDepInstance::new(m, initial, switch, work).unwrap();
            let orders = nearest_neighbor_schedule(&inst);
            let makespan = inst.makespan(&orders); // panics if not a partition

            // Trivial sanity ceiling: everything sequential on one machine.
            let all: Vec<usize> = (0..c).collect();
            assert!(makespan <= inst.machine_time(&all) + initial_sum);
        }
    }

    #[test]
    fn single_machine_heuristic_vs_exact_gap() {
        let inst = SeqDepInstance::from_tsp_path(tsp4()).unwrap();
        let orders = nearest_neighbor_schedule(&inst);
        let heuristic = inst.makespan(&orders);
        let exact = exact_single_machine(&inst);
        assert!(heuristic >= exact);
        assert!(
            heuristic <= 3 * exact,
            "NN should stay within small factor here"
        );
    }

    #[test]
    fn lower_bounds_below_exact() {
        let inst = SeqDepInstance::from_tsp_path(tsp4()).unwrap();
        let exact = exact_single_machine(&inst);
        assert!(load_lower_bound(&inst) <= Rational::from(exact));
        assert!(class_lower_bound(&inst) <= exact);
        assert!(t_min(&inst) <= Rational::from(exact));
        // The sequential weight bounds any chain from above.
        assert!(inst.sequential_weight() >= exact);
    }

    #[test]
    #[should_panic(expected = "scheduled twice")]
    fn makespan_rejects_duplicate_classes() {
        let inst = SeqDepInstance::from_tsp_path(tsp4()).unwrap();
        let _ = inst.makespan(&[vec![0, 1, 2, 3, 0]]);
    }

    #[test]
    #[should_panic(expected = "unscheduled")]
    fn makespan_rejects_missing_classes() {
        let inst = SeqDepInstance::from_tsp_path(tsp4()).unwrap();
        let _ = inst.makespan(&[vec![0, 1]]);
    }

    #[test]
    fn check_orders_reports_instead_of_panicking() {
        let inst = SeqDepInstance::from_tsp_path(tsp4()).unwrap();
        assert!(inst.check_orders(&[vec![0, 1, 2, 3]]).is_ok());
        assert!(inst
            .check_orders(&[vec![0, 1]])
            .unwrap_err()
            .contains("unscheduled"));
        assert!(inst
            .check_orders(&[vec![0, 0, 1, 2, 3]])
            .unwrap_err()
            .contains("twice"));
        assert!(inst
            .check_orders(&[vec![0, 1, 2, 9]])
            .unwrap_err()
            .contains("unknown class"));
        assert!(inst
            .check_orders(&[vec![0], vec![1], vec![2], vec![3]])
            .unwrap_err()
            .contains("too many machines"));
    }

    proptest! {
        /// The sequence-independent special case: if every switch into class
        /// j costs s_j regardless of origin, ordering within a machine is
        /// irrelevant (machine time depends only on the class set).
        #[test]
        fn sequence_independent_special_case(
            setups in proptest::collection::vec(1u64..20, 2..6),
            work in proptest::collection::vec(1u64..30, 2..6),
            seed in 0u64..100,
        ) {
            use rand::rngs::StdRng;
            use rand::{seq::SliceRandom, SeedableRng};
            let c = setups.len().min(work.len());
            let setups = &setups[..c];
            let work = &work[..c];
            let switch: Vec<Vec<u64>> = (0..c)
                .map(|i| (0..c).map(|j| if i == j { 0 } else { setups[j] }).collect())
                .collect();
            let inst =
                SeqDepInstance::new(1, setups.to_vec(), switch, work.to_vec()).unwrap();
            let mut order: Vec<usize> = (0..c).collect();
            let base = inst.machine_time(&order);
            let mut rng = StdRng::seed_from_u64(seed);
            order.shuffle(&mut rng);
            prop_assert_eq!(inst.machine_time(&order), base);
        }
    }
}
