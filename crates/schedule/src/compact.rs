//! Configuration-based schedules with multiplicities.
//!
//! The splittable algorithms of the paper run in time *sublinear in `m`*
//! (`O(n + c log(c+m))`), which is impossible if the output writes every
//! machine explicitly. Following the paper's remark that "a schedule may
//! consist of machine configurations with associated multiplicities", a
//! [`CompactSchedule`] is a list of configuration groups; a group places one
//! configuration on `count` consecutive machines starting at `first_machine`.
//! Several groups may target the same machine (e.g. the splittable 3/2-dual
//! first fills a class's last machine, then *tops it up* with cheap load in a
//! second pass); feasibility of the combined timeline is checked either
//! directly on the groups ([`crate::validate_compact`]) or after
//! [`CompactSchedule::expand`]. [`CompactSchedule::expand_into`] streams the
//! explicit placements into any [`PlacementSink`] without an intermediate
//! copy.

use bss_instance::JobId;
use bss_json::{Field, FromJson, JsonError, JsonReader, JsonWriter, ToJson};
use bss_rational::Rational;

use crate::{ItemKind, Placement, PlacementSink, Schedule, Violation};

/// One item inside a machine configuration (machine-relative, no machine id).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfigItem {
    /// Start time on the machine.
    pub start: Rational,
    /// Duration.
    pub len: Rational,
    /// Setup or job piece.
    pub kind: ItemKind,
}

impl ToJson for ConfigItem {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object(|o| {
            o.key("start").value(&self.start);
            o.key("len").value(&self.len);
            o.key("kind").value(&self.kind);
        });
    }
}

impl FromJson for ConfigItem {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, JsonError> {
        let (mut start, mut len, mut kind) = (Field::default(), Field::default(), Field::default());
        r.object("start", |key, r| match key {
            "start" => start.read(r),
            "len" => len.read(r),
            "kind" => kind.read(r),
            _ => r.skip(),
        })?;
        Ok(ConfigItem {
            start: start.required("start")?,
            len: len.required("len")?,
            kind: kind.required("kind")?,
        })
    }
}

/// A machine configuration: (part of) the timeline of one machine.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MachineConfig {
    /// Items on this machine (in placement order).
    pub items: Vec<ConfigItem>,
}

impl MachineConfig {
    /// Total busy time of the configuration.
    #[must_use]
    pub fn load(&self) -> Rational {
        self.items
            .iter()
            .map(|i| i.len)
            .fold(Rational::ZERO, |a, b| a + b)
    }

    /// Largest end time of the configuration (0 if empty).
    #[must_use]
    pub fn end(&self) -> Rational {
        self.items
            .iter()
            .map(|i| i.start + i.len)
            .max()
            .unwrap_or(Rational::ZERO)
    }
}

impl ToJson for MachineConfig {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object(|o| o.key("items").value(&self.items));
    }
}

impl FromJson for MachineConfig {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, JsonError> {
        let mut items = Field::default();
        r.object("items", |key, r| match key {
            "items" => items.read(r),
            _ => r.skip(),
        })?;
        Ok(MachineConfig {
            items: items.required("items")?,
        })
    }
}

/// A configuration group: `config` repeated on machines
/// `first_machine .. first_machine + count`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigGroup {
    /// First machine of the group.
    pub first_machine: usize,
    /// Number of consecutive machines.
    pub count: usize,
    /// The shared configuration.
    pub config: MachineConfig,
}

impl ToJson for ConfigGroup {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object(|o| {
            o.key("first_machine").int(self.first_machine as i128);
            o.key("count").int(self.count as i128);
            o.key("config").value(&self.config);
        });
    }
}

impl FromJson for ConfigGroup {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, JsonError> {
        let (mut first_machine, mut count, mut config) =
            (Field::default(), Field::default(), Field::default());
        r.object("first_machine", |key, r| match key {
            "first_machine" => first_machine.read_with(r, |r| r.int("first_machine")),
            "count" => count.read_with(r, |r| r.int("count")),
            "config" => config.read(r),
            _ => r.skip(),
        })?;
        Ok(ConfigGroup {
            first_machine: first_machine.required("first_machine")?,
            count: count.required("count")?,
            config: config.required("config")?,
        })
    }
}

/// A schedule stored as configuration groups with multiplicities.
///
/// A job piece appearing in a configuration of multiplicity `k` denotes `k`
/// *distinct* pieces of that job, one per machine — meaningful only for the
/// splittable variant, where job pieces may run in parallel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactSchedule {
    machines: usize,
    groups: Vec<ConfigGroup>,
}

impl ToJson for CompactSchedule {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object(|o| {
            o.key("machines").int(self.machines as i128);
            o.key("groups").value(&self.groups);
        });
    }
}

impl FromJson for CompactSchedule {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, JsonError> {
        let (mut machines, mut groups) = (Field::default(), Field::default());
        r.object("machines", |key, r| match key {
            "machines" => machines.read_with(r, |r| r.int("machines")),
            "groups" => groups.read(r),
            _ => r.skip(),
        })?;
        Ok(CompactSchedule {
            machines: machines.required("machines")?,
            groups: groups.required("groups")?,
        })
    }
}

impl CompactSchedule {
    /// An empty compact schedule on `machines` machines.
    #[must_use]
    pub fn new(machines: usize) -> Self {
        CompactSchedule {
            machines,
            groups: Vec::new(),
        }
    }

    /// Clears the schedule for reuse on `machines` machines, keeping the
    /// group buffer's capacity.
    pub fn reset(&mut self, machines: usize) {
        self.machines = machines;
        self.groups.clear();
    }

    /// Number of machines of the instance.
    #[must_use]
    pub fn machines(&self) -> usize {
        self.machines
    }

    /// Appends a configuration group (ignored if `count == 0` or the config is
    /// empty).
    pub fn push_group(&mut self, first_machine: usize, count: usize, config: MachineConfig) {
        if count > 0 && !config.items.is_empty() {
            self.groups.push(ConfigGroup {
                first_machine,
                count,
                config,
            });
        }
    }

    /// The configuration groups.
    #[must_use]
    pub fn groups(&self) -> &[ConfigGroup] {
        &self.groups
    }

    /// Streaming group builder: opens an empty group whose items arrive via
    /// [`CompactSchedule::push_open_item`]. Close it with
    /// [`CompactSchedule::end_group`] before reading [`CompactSchedule::groups`]
    /// — an open group that never received an item would otherwise linger
    /// empty. Building in place keeps every allocation inside the output
    /// (the wrap emitters rely on this for the zero-copy pipeline).
    pub fn begin_group(&mut self, first_machine: usize, count: usize) {
        self.groups.push(ConfigGroup {
            first_machine,
            count,
            config: MachineConfig::default(),
        });
    }

    /// Appends an item to the group opened by [`CompactSchedule::begin_group`].
    ///
    /// # Panics
    /// Panics when no group is open (programming error in the emitter).
    pub fn push_open_item(&mut self, item: ConfigItem) {
        self.groups
            .last_mut()
            .expect("push_open_item requires an open group")
            .config
            .items
            .push(item);
    }

    /// Closes the group opened by [`CompactSchedule::begin_group`], dropping
    /// it when it stayed empty (mirroring [`CompactSchedule::push_group`]).
    pub fn end_group(&mut self) {
        if matches!(
            self.groups.last(),
            Some(g) if g.count == 0 || g.config.items.is_empty()
        ) {
            self.groups.pop();
        }
    }

    /// Total number of `(item, machine)` incidences; `expand` cost is
    /// proportional to this plus `m`.
    #[must_use]
    pub fn total_items(&self) -> usize {
        self.groups
            .iter()
            .map(|g| g.config.items.len() * g.count)
            .sum()
    }

    /// Compact size: number of stored items over all groups (what the
    /// near-linear algorithms actually write).
    #[must_use]
    pub fn stored_items(&self) -> usize {
        self.groups.iter().map(|g| g.config.items.len()).sum()
    }

    /// Makespan over all groups.
    #[must_use]
    pub fn makespan(&self) -> Rational {
        self.groups
            .iter()
            .map(|g| g.config.end())
            .max()
            .unwrap_or(Rational::ZERO)
    }

    /// Total processing time assigned to job `job`, counting multiplicities.
    #[must_use]
    pub fn job_assigned(&self, job: JobId) -> Rational {
        let mut total = Rational::ZERO;
        for g in &self.groups {
            for item in &g.config.items {
                if let ItemKind::Piece { job: j, .. } = item.kind {
                    if j == job {
                        total += item.len * g.count;
                    }
                }
            }
        }
        total
    }

    /// Streams the explicit placements into `sink`, once, in group order —
    /// the single-copy replacement for the old expand-then-`absorb` pattern.
    /// Runs in `O(total_items + m)`.
    ///
    /// # Errors
    /// [`Violation::MachineOutOfRange`] when a group extends past the last
    /// machine (e.g. a hand-edited or deserialized schedule); placements
    /// emitted before the offending group remain in `sink`.
    pub fn expand_into<S: PlacementSink>(&self, sink: &mut S) -> Result<(), Violation> {
        for g in &self.groups {
            if g.first_machine + g.count > self.machines {
                return Err(Violation::MachineOutOfRange {
                    machine: g.first_machine + g.count - 1,
                });
            }
            for k in 0..g.count {
                for item in &g.config.items {
                    sink.place(Placement::new(
                        g.first_machine + k,
                        item.start,
                        item.len,
                        item.kind,
                    ));
                }
            }
        }
        Ok(())
    }

    /// Materializes the explicit schedule. Runs in `O(total_items + m)`.
    ///
    /// # Errors
    /// [`Violation::MachineOutOfRange`] when a group extends past the last
    /// machine — malformed input is reported, never aborted on.
    pub fn expand(&self) -> Result<Schedule, Violation> {
        let mut schedule = Schedule::new(self.machines);
        self.expand_into(&mut schedule)?;
        Ok(schedule)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn piece(job: JobId, start: i128, len: i128) -> ConfigItem {
        ConfigItem {
            start: Rational::from_int(start),
            len: Rational::from_int(len),
            kind: ItemKind::Piece { job, class: 0 },
        }
    }

    fn setup(class: usize, start: i128, len: i128) -> ConfigItem {
        ConfigItem {
            start: Rational::from_int(start),
            len: Rational::from_int(len),
            kind: ItemKind::Setup(class),
        }
    }

    #[test]
    fn expand_respects_explicit_machines() {
        let mut cs = CompactSchedule::new(5);
        cs.push_group(
            1,
            2,
            MachineConfig {
                items: vec![setup(0, 0, 1), piece(0, 1, 3)],
            },
        );
        cs.push_group(
            4,
            1,
            MachineConfig {
                items: vec![setup(1, 0, 2)],
            },
        );
        let s = cs.expand().expect("in range");
        assert_eq!(s.machine_load(0), Rational::ZERO);
        assert_eq!(s.machine_load(1), Rational::from(4u64));
        assert_eq!(s.machine_load(2), Rational::from(4u64));
        assert_eq!(s.machine_load(3), Rational::ZERO);
        assert_eq!(s.machine_load(4), Rational::from(2u64));
        assert_eq!(cs.makespan(), s.makespan());
        assert_eq!(cs.total_items(), 5);
        assert_eq!(cs.stored_items(), 3);
    }

    #[test]
    fn groups_may_share_a_machine() {
        let mut cs = CompactSchedule::new(1);
        cs.push_group(
            0,
            1,
            MachineConfig {
                items: vec![setup(0, 0, 1)],
            },
        );
        cs.push_group(
            0,
            1,
            MachineConfig {
                items: vec![piece(0, 1, 2)],
            },
        );
        let s = cs.expand().expect("in range");
        assert_eq!(s.machine_load(0), Rational::from(3u64));
    }

    #[test]
    fn job_assigned_counts_multiplicity() {
        let mut cs = CompactSchedule::new(4);
        cs.push_group(
            0,
            3,
            MachineConfig {
                items: vec![piece(7, 0, 3)],
            },
        );
        assert_eq!(cs.job_assigned(7), Rational::from(9u64));
        assert_eq!(cs.job_assigned(8), Rational::ZERO);
    }

    #[test]
    fn expand_reports_out_of_range_group() {
        let mut cs = CompactSchedule::new(1);
        cs.push_group(
            1,
            1,
            MachineConfig {
                items: vec![setup(0, 0, 1)],
            },
        );
        assert_eq!(
            cs.expand().unwrap_err(),
            Violation::MachineOutOfRange { machine: 1 }
        );
        let mut sink = Schedule::new(1);
        assert!(cs.expand_into(&mut sink).is_err());
    }

    #[test]
    fn expand_into_matches_expand() {
        let mut cs = CompactSchedule::new(4);
        cs.push_group(
            0,
            3,
            MachineConfig {
                items: vec![setup(0, 0, 1), piece(0, 1, 2)],
            },
        );
        cs.push_group(
            3,
            1,
            MachineConfig {
                items: vec![setup(1, 0, 2)],
            },
        );
        let mut streamed = Schedule::new(4);
        cs.expand_into(&mut streamed).expect("in range");
        assert_eq!(streamed, cs.expand().expect("in range"));
    }

    #[test]
    fn reset_keeps_capacity_and_clears_groups() {
        let mut cs = CompactSchedule::new(2);
        cs.push_group(
            0,
            1,
            MachineConfig {
                items: vec![setup(0, 0, 1)],
            },
        );
        cs.reset(5);
        assert!(cs.groups().is_empty());
        assert_eq!(cs.machines(), 5);
    }

    #[test]
    fn empty_groups_ignored() {
        let mut cs = CompactSchedule::new(2);
        cs.push_group(0, 0, MachineConfig::default());
        cs.push_group(
            0,
            1,
            MachineConfig::default(), // empty config
        );
        assert!(cs.groups().is_empty());
        assert_eq!(cs.makespan(), Rational::ZERO);
    }
}
