//! The explicit [`Schedule`] representation.

use bss_json::{Field, FromJson, JsonError, JsonReader, JsonWriter, ToJson};
use bss_rational::Rational;

use crate::{ItemKind, Placement};

/// An explicit schedule: a bag of placements on `m` machines.
///
/// The structure is deliberately permissive — algorithms push placements in
/// whatever order is convenient; [`crate::validate`] is the arbiter of
/// feasibility. Queries that need per-machine order sort on demand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    machines: usize,
    placements: Vec<Placement>,
}

impl ToJson for Schedule {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object(|o| {
            o.key("machines").int(self.machines as i128);
            o.key("placements").value(&self.placements);
        });
    }
}

impl FromJson for Schedule {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, JsonError> {
        let (mut machines, mut placements) = (Field::default(), Field::default());
        r.object("machines", |key, r| match key {
            "machines" => machines.read_with(r, |r| r.int("machines")),
            "placements" => placements.read(r),
            _ => r.skip(),
        })?;
        Ok(Schedule {
            machines: machines.required("machines")?,
            placements: placements.required("placements")?,
        })
    }
}

impl Schedule {
    /// An empty schedule on `machines` machines.
    #[must_use]
    pub fn new(machines: usize) -> Self {
        Schedule {
            machines,
            placements: Vec::new(),
        }
    }

    /// Number of machines.
    #[must_use]
    pub fn machines(&self) -> usize {
        self.machines
    }

    /// Clears the schedule for reuse on `machines` machines, keeping the
    /// placement buffer's capacity (warm builders re-emit into the same
    /// output without reallocating).
    pub fn reset(&mut self, machines: usize) {
        self.machines = machines;
        self.placements.clear();
    }

    /// Adds a placement. Zero-length placements are ignored.
    pub fn push(&mut self, p: Placement) {
        if p.len.is_positive() {
            self.placements.push(p);
        }
    }

    /// Adds a setup placement.
    pub fn push_setup(&mut self, machine: usize, start: Rational, len: Rational, class: usize) {
        self.push(Placement::new(machine, start, len, ItemKind::Setup(class)));
    }

    /// Adds a job-piece placement.
    pub fn push_piece(
        &mut self,
        machine: usize,
        start: Rational,
        len: Rational,
        job: usize,
        class: usize,
    ) {
        self.push(Placement::new(
            machine,
            start,
            len,
            ItemKind::Piece { job, class },
        ));
    }

    /// All placements, in insertion order.
    #[must_use]
    pub fn placements(&self) -> &[Placement] {
        &self.placements
    }

    /// Mutable access for schedule-repair passes (e.g. step 4 of the
    /// non-preemptive dual algorithm).
    pub fn placements_mut(&mut self) -> &mut Vec<Placement> {
        &mut self.placements
    }

    /// The makespan: the largest placement end time (0 if empty).
    #[must_use]
    pub fn makespan(&self) -> Rational {
        self.placements
            .iter()
            .map(Placement::end)
            .max()
            .unwrap_or(Rational::ZERO)
    }

    /// Total busy time on `machine` (setups + job pieces).
    #[must_use]
    pub fn machine_load(&self, machine: usize) -> Rational {
        self.placements
            .iter()
            .filter(|p| p.machine == machine)
            .map(|p| p.len)
            .fold(Rational::ZERO, |a, b| a + b)
    }

    /// Busy time of every machine.
    #[must_use]
    pub fn loads(&self) -> Vec<Rational> {
        let mut loads = vec![Rational::ZERO; self.machines];
        for p in &self.placements {
            loads[p.machine] += p.len;
        }
        loads
    }

    /// Number of setup placements (the `Σ λ_i` of the paper's load accounting).
    #[must_use]
    pub fn num_setups(&self) -> usize {
        self.placements.iter().filter(|p| p.kind.is_setup()).count()
    }

    /// Number of job-piece placements.
    #[must_use]
    pub fn num_pieces(&self) -> usize {
        self.placements
            .iter()
            .filter(|p| !p.kind.is_setup())
            .count()
    }

    /// Placements of `machine`, sorted by start time.
    #[must_use]
    pub fn machine_timeline(&self, machine: usize) -> Vec<Placement> {
        let mut row: Vec<Placement> = self
            .placements
            .iter()
            .copied()
            .filter(|p| p.machine == machine)
            .collect();
        row.sort_by_key(|p| p.start);
        row
    }

    /// Merges another schedule's placements into this one (machine indices are
    /// taken as-is; the caller is responsible for disjointness).
    pub fn absorb(&mut self, other: Schedule) {
        debug_assert_eq!(self.machines, other.machines);
        self.placements.extend(other.placements);
    }

    /// Serializes the schedule to pretty-printed JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        bss_json::encode_pretty(self)
    }

    /// Parses a schedule from JSON. The result is *not* checked for
    /// feasibility — run [`crate::validate`] against an instance for that.
    pub fn from_json(json: &str) -> Result<Self, JsonError> {
        bss_json::decode(json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched() -> Schedule {
        let mut s = Schedule::new(2);
        s.push_setup(0, Rational::ZERO, Rational::from(2u64), 0);
        s.push_piece(0, Rational::from(2u64), Rational::from(3u64), 0, 0);
        s.push_setup(1, Rational::ZERO, Rational::from(1u64), 1);
        s.push_piece(1, Rational::from(1u64), Rational::new(5, 2), 1, 1);
        s
    }

    #[test]
    fn makespan_and_loads() {
        let s = sched();
        assert_eq!(s.makespan(), Rational::from(5u64));
        assert_eq!(s.machine_load(0), Rational::from(5u64));
        assert_eq!(s.machine_load(1), Rational::new(7, 2));
        assert_eq!(s.loads(), vec![Rational::from(5u64), Rational::new(7, 2)]);
    }

    #[test]
    fn zero_length_placements_are_dropped() {
        let mut s = Schedule::new(1);
        s.push_piece(0, Rational::ZERO, Rational::ZERO, 0, 0);
        assert!(s.placements().is_empty());
    }

    #[test]
    fn counts() {
        let s = sched();
        assert_eq!(s.num_setups(), 2);
        assert_eq!(s.num_pieces(), 2);
    }

    #[test]
    fn timeline_is_sorted() {
        let mut s = Schedule::new(1);
        s.push_piece(0, Rational::from(5u64), Rational::ONE, 0, 0);
        s.push_setup(0, Rational::ZERO, Rational::ONE, 0);
        let tl = s.machine_timeline(0);
        assert!(tl[0].start < tl[1].start);
    }

    #[test]
    fn empty_schedule_makespan_zero() {
        assert_eq!(Schedule::new(3).makespan(), Rational::ZERO);
    }
}
