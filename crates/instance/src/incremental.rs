//! Incremental instances: validated add/remove/retime deltas over a base
//! [`Instance`], for online workloads that re-solve after every event.
//!
//! An [`IncrementalInstance`] maintains the same per-class aggregates an
//! [`Instance`] precomputes (`P(C_i)`, `t^(i)_max`, total load) under a
//! stream of [`Delta`]s, validating each delta *eagerly* — every reachable
//! state satisfies the paper's model assumptions, so [`materialize`]
//! (`IncrementalInstance::materialize`) can never fail. Materializing is
//! proven equal to building the final job list from scratch — structurally,
//! by [`Instance::content_hash`], and by solve bit-identity — in this
//! module's tests and the workspace's `incremental_prop` proptest suite.
//!
//! # Job identity
//!
//! Job ids are *positional*, exactly as in a from-scratch [`Instance`]:
//! removing job `j` shifts every id above `j` down by one, so the job list
//! of the incremental instance is byte-for-byte the job list the
//! materialized instance carries. Callers that track jobs across deltas
//! must re-map their ids after a removal, mirroring what re-submitting the
//! shrunken instance would do.
//!
//! # Content-hash maintenance
//!
//! The canonical digest encodes `(version, m, c, setups.., n, jobs..)`
//! *sequentially* (FNV-1a), and `n` precedes the job stream — so a true
//! `O(delta)` digest update is impossible without changing the pinned
//! encoding. Instead the hasher state after the setup section (which never
//! changes) is precomputed once, and the job-section suffix is re-hashed
//! lazily: the digest is cached, invalidated by every delta, and recomputed
//! in `O(n)` only when observed. A burst of deltas between two solves
//! therefore pays for one recomputation, not one per delta.

use std::cell::Cell;

use bss_json::{FromJson, JsonError, ToJson, Value};

use crate::hash::job_section_hash;
use crate::{ClassId, ContentHasher, Instance, Job, JobId, MAX_TOTAL_LOAD};

/// One mutation of an [`IncrementalInstance`] — the wire-level event of the
/// online protocols (`bss-serve` sessions, the `bss-gen` simulator).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delta {
    /// A job arrival: append a job of `class` with processing time `time`.
    AddJob {
        /// The existing class the new job joins.
        class: ClassId,
        /// Processing time `t_j >= 1`.
        time: u64,
    },
    /// A job departure: remove job `job` (ids above it shift down by one).
    RemoveJob {
        /// The job to remove.
        job: JobId,
    },
    /// A reveal: job `job`'s processing time turns out to be `time` (the
    /// unknown-execution-times regime of Kawase et al.).
    Retime {
        /// The job whose time changes.
        job: JobId,
        /// The new processing time `t_j >= 1`.
        time: u64,
    },
}

impl ToJson for Delta {
    fn to_json_value(&self) -> Value {
        let mut fields: Vec<(String, Value)> = Vec::with_capacity(3);
        match *self {
            Delta::AddJob { class, time } => {
                fields.push(("op".into(), Value::Str("add_job".into())));
                fields.push(("class".into(), Value::Int(class as i128)));
                fields.push(("time".into(), Value::Int(time.into())));
            }
            Delta::RemoveJob { job } => {
                fields.push(("op".into(), Value::Str("remove_job".into())));
                fields.push(("job".into(), Value::Int(job as i128)));
            }
            Delta::Retime { job, time } => {
                fields.push(("op".into(), Value::Str("retime".into())));
                fields.push(("job".into(), Value::Int(job as i128)));
                fields.push(("time".into(), Value::Int(time.into())));
            }
        }
        Value::Object(fields)
    }
}

impl FromJson for Delta {
    fn from_json_value(value: &Value) -> Result<Self, JsonError> {
        let op = bss_json::required(value, "op")?
            .as_str()
            .ok_or_else(|| JsonError::new("Delta.op must be a string"))?;
        match op {
            "add_job" => Ok(Delta::AddJob {
                class: bss_json::int_from(bss_json::required(value, "class")?, "Delta.class")?,
                time: bss_json::int_from(bss_json::required(value, "time")?, "Delta.time")?,
            }),
            "remove_job" => Ok(Delta::RemoveJob {
                job: bss_json::int_from(bss_json::required(value, "job")?, "Delta.job")?,
            }),
            "retime" => Ok(Delta::Retime {
                job: bss_json::int_from(bss_json::required(value, "job")?, "Delta.job")?,
                time: bss_json::int_from(bss_json::required(value, "time")?, "Delta.time")?,
            }),
            other => Err(JsonError::new(format!("unknown delta op `{other}`"))),
        }
    }
}

/// A delta rejected by eager validation; the instance is unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaError {
    /// The delta references a class the instance does not declare. (Classes
    /// are fixed at session start: the paper's model partitions jobs into a
    /// *known* set of setup classes.)
    UnknownClass(ClassId),
    /// The delta references a job id at or beyond `n`.
    UnknownJob(JobId),
    /// A zero processing time (`t_j ∈ N`, so `t_j >= 1`).
    ZeroJobTime,
    /// Removing this job would leave its class empty, violating the model's
    /// non-empty-class partition.
    WouldEmptyClass(ClassId),
    /// The delta would push `N = Σ s_i + Σ t_j` past [`MAX_TOTAL_LOAD`].
    TotalLoadTooLarge,
}

impl core::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DeltaError::UnknownClass(c) => write!(f, "delta references unknown class {c}"),
            DeltaError::UnknownJob(j) => write!(f, "delta references unknown job {j}"),
            DeltaError::ZeroJobTime => write!(f, "delta sets a zero processing time"),
            DeltaError::WouldEmptyClass(c) => {
                write!(f, "removing the last job of class {c} would empty it")
            }
            DeltaError::TotalLoadTooLarge => {
                write!(f, "delta would push total load N past 2^60")
            }
        }
    }
}

impl std::error::Error for DeltaError {}

/// A mutable instance under a stream of validated [`Delta`]s, maintaining
/// the aggregates incrementally (see the module docs).
#[derive(Debug, Clone)]
pub struct IncrementalInstance {
    machines: usize,
    setups: Vec<u64>,
    jobs: Vec<Job>,
    /// Jobs per class (non-emptiness guard; cheaper than the class-major
    /// table an `Instance` keeps, which positional removal would force us to
    /// rebuild wholesale anyway).
    class_count: Vec<usize>,
    class_proc: Vec<u64>,
    class_tmax: Vec<u64>,
    total_proc: u64,
    /// Hasher state after `(version, m, c, setups..)` — the prefix of the
    /// canonical encoding that no delta can change.
    hash_prefix: ContentHasher,
    /// Cached digest, invalidated by every applied delta.
    cached_hash: Cell<Option<u64>>,
    /// Count of deltas applied since construction.
    version: u64,
}

impl IncrementalInstance {
    /// Starts from a validated base instance.
    #[must_use]
    pub fn new(base: &Instance) -> Self {
        let c = base.num_classes();
        let mut class_count = vec![0usize; c];
        let mut class_proc = vec![0u64; c];
        let mut class_tmax = vec![0u64; c];
        for job in base.jobs() {
            class_count[job.class] += 1;
            class_proc[job.class] += job.time;
            class_tmax[job.class] = class_tmax[job.class].max(job.time);
        }
        IncrementalInstance {
            machines: base.machines(),
            setups: base.setups().to_vec(),
            jobs: base.jobs().to_vec(),
            class_count,
            class_proc,
            class_tmax,
            total_proc: base.total_proc(),
            hash_prefix: crate::hash::setup_section_hasher(base.machines(), base.setups()),
            cached_hash: Cell::new(Some(base.content_hash())),
            version: 0,
        }
    }

    /// Applies one delta, validating it first; on error nothing changes.
    ///
    /// # Errors
    /// [`DeltaError`] describing the violated model assumption.
    pub fn apply(&mut self, delta: Delta) -> Result<(), DeltaError> {
        match delta {
            Delta::AddJob { class, time } => self.add_job(class, time).map(|_| ()),
            Delta::RemoveJob { job } => self.remove_job(job).map(|_| ()),
            Delta::Retime { job, time } => self.retime(job, time).map(|_| ()),
        }
    }

    /// Appends a job of `class` with processing time `time`, returning its
    /// (positional) id.
    ///
    /// # Errors
    /// See [`DeltaError`].
    pub fn add_job(&mut self, class: ClassId, time: u64) -> Result<JobId, DeltaError> {
        if class >= self.setups.len() {
            return Err(DeltaError::UnknownClass(class));
        }
        if time == 0 {
            return Err(DeltaError::ZeroJobTime);
        }
        if self.total_load() + u128::from(time) > u128::from(MAX_TOTAL_LOAD) {
            return Err(DeltaError::TotalLoadTooLarge);
        }
        let id = self.jobs.len();
        self.jobs.push(Job { class, time });
        self.class_count[class] += 1;
        self.class_proc[class] += time;
        self.class_tmax[class] = self.class_tmax[class].max(time);
        self.total_proc += time;
        self.touched();
        Ok(id)
    }

    /// Removes job `job` (`O(n)`: positional ids above it shift down),
    /// returning the removed job.
    ///
    /// # Errors
    /// See [`DeltaError`].
    pub fn remove_job(&mut self, job: JobId) -> Result<Job, DeltaError> {
        if job >= self.jobs.len() {
            return Err(DeltaError::UnknownJob(job));
        }
        let victim = self.jobs[job];
        if self.class_count[victim.class] == 1 {
            return Err(DeltaError::WouldEmptyClass(victim.class));
        }
        self.jobs.remove(job);
        self.class_count[victim.class] -= 1;
        self.class_proc[victim.class] -= victim.time;
        self.total_proc -= victim.time;
        if victim.time == self.class_tmax[victim.class] {
            self.rescan_tmax(victim.class);
        }
        self.touched();
        Ok(victim)
    }

    /// Changes job `job`'s processing time to `time`, returning the old
    /// time. `O(1)` unless the class maximum shrinks (then one class scan).
    ///
    /// # Errors
    /// See [`DeltaError`].
    pub fn retime(&mut self, job: JobId, time: u64) -> Result<u64, DeltaError> {
        if job >= self.jobs.len() {
            return Err(DeltaError::UnknownJob(job));
        }
        if time == 0 {
            return Err(DeltaError::ZeroJobTime);
        }
        let old = self.jobs[job].time;
        if time > old && self.total_load() + u128::from(time - old) > u128::from(MAX_TOTAL_LOAD) {
            return Err(DeltaError::TotalLoadTooLarge);
        }
        let class = self.jobs[job].class;
        self.jobs[job].time = time;
        self.class_proc[class] = self.class_proc[class] - old + time;
        self.total_proc = self.total_proc - old + time;
        if time >= self.class_tmax[class] {
            self.class_tmax[class] = time;
        } else if old == self.class_tmax[class] {
            self.rescan_tmax(class);
        }
        self.touched();
        Ok(old)
    }

    fn rescan_tmax(&mut self, class: ClassId) {
        self.class_tmax[class] = self
            .jobs
            .iter()
            .filter(|j| j.class == class)
            .map(|j| j.time)
            .max()
            .expect("non-emptiness is maintained eagerly");
    }

    fn touched(&mut self) {
        self.version += 1;
        self.cached_hash.set(None);
    }

    fn total_load(&self) -> u128 {
        self.setups.iter().map(|&s| u128::from(s)).sum::<u128>() + u128::from(self.total_proc)
    }

    /// Builds the validated, immutable [`Instance`] of the current state —
    /// byte-for-byte what `Instance::from_parts` produces on the same job
    /// list, so a solve of the materialized instance is bit-identical to a
    /// solve of a from-scratch one.
    #[must_use]
    pub fn materialize(&self) -> Instance {
        Instance::from_parts(self.machines, self.setups.clone(), self.jobs.clone())
            .expect("every reachable incremental state is valid")
    }

    /// The deterministic content digest of the current state — always equal
    /// to `self.materialize().content_hash()`, without materializing.
    /// Cached across observations; one `O(n)` recomputation per delta
    /// burst (see the module docs).
    #[must_use]
    pub fn content_hash(&self) -> u64 {
        if let Some(h) = self.cached_hash.get() {
            return h;
        }
        let h = job_section_hash(&self.hash_prefix, &self.jobs);
        self.cached_hash.set(Some(h));
        h
    }

    /// Number of machines `m`.
    #[must_use]
    pub fn machines(&self) -> usize {
        self.machines
    }

    /// Number of jobs `n`.
    #[must_use]
    pub fn num_jobs(&self) -> usize {
        self.jobs.len()
    }

    /// Number of classes `c` (fixed at construction).
    #[must_use]
    pub fn num_classes(&self) -> usize {
        self.setups.len()
    }

    /// All setup times, indexed by class.
    #[must_use]
    pub fn setups(&self) -> &[u64] {
        &self.setups
    }

    /// All jobs, in positional-id order.
    #[must_use]
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// Jobs currently in class `class`.
    #[must_use]
    pub fn class_count(&self, class: ClassId) -> usize {
        self.class_count[class]
    }

    /// Total processing time `P(C_i)` of class `class`.
    #[must_use]
    pub fn class_proc(&self, class: ClassId) -> u64 {
        self.class_proc[class]
    }

    /// Largest job time `t^(i)_max` of class `class`.
    #[must_use]
    pub fn class_tmax(&self, class: ClassId) -> u64 {
        self.class_tmax[class]
    }

    /// Total processing time `P(J)` over all jobs.
    #[must_use]
    pub fn total_proc(&self) -> u64 {
        self.total_proc
    }

    /// `N = Σ_i s_i + Σ_j t_j` — the quantity whose change between two
    /// solves drives the warm-start bracket widening in `bss-core`.
    #[must_use]
    pub fn total_load_once(&self) -> u64 {
        self.setups.iter().sum::<u64>() + self.total_proc
    }

    /// Count of deltas applied since construction.
    #[must_use]
    pub fn version(&self) -> u64 {
        self.version
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InstanceBuilder;

    fn base() -> Instance {
        let mut b = InstanceBuilder::new(3);
        b.add_batch(10, &[7, 3, 9, 2]);
        b.add_batch(4, &[5, 5, 6]);
        b.build().unwrap()
    }

    /// Materializing after a delta sequence equals building the final job
    /// list from scratch — structure, aggregates and digest.
    #[test]
    fn materialize_equals_from_scratch() {
        let mut inc = IncrementalInstance::new(&base());
        inc.apply(Delta::AddJob { class: 1, time: 8 }).unwrap();
        inc.apply(Delta::RemoveJob { job: 2 }).unwrap();
        inc.apply(Delta::Retime { job: 0, time: 11 }).unwrap();
        inc.apply(Delta::AddJob { class: 0, time: 1 }).unwrap();
        let materialized = inc.materialize();
        let scratch = Instance::from_parts(3, vec![10, 4], inc.jobs().to_vec()).unwrap();
        assert_eq!(materialized, scratch);
        assert_eq!(inc.content_hash(), scratch.content_hash());
        assert_eq!(inc.version(), 4);
        for class in 0..2 {
            assert_eq!(inc.class_proc(class), scratch.class_proc(class));
            assert_eq!(inc.class_tmax(class), scratch.class_tmax(class));
            assert_eq!(inc.class_count(class), scratch.class_jobs(class).len());
        }
        assert_eq!(inc.total_proc(), scratch.total_proc());
        assert_eq!(inc.total_load_once(), scratch.total_load_once());
    }

    #[test]
    fn fresh_wrapper_matches_base_hash_without_recompute() {
        let b = base();
        let inc = IncrementalInstance::new(&b);
        assert_eq!(inc.content_hash(), b.content_hash());
        assert_eq!(inc.materialize(), b);
    }

    #[test]
    fn hash_cache_invalidates_on_every_delta_kind() {
        let mut inc = IncrementalInstance::new(&base());
        let h0 = inc.content_hash();
        inc.add_job(0, 13).unwrap();
        let h1 = inc.content_hash();
        assert_ne!(h0, h1);
        assert_eq!(h1, inc.materialize().content_hash());
        inc.retime(0, 14).unwrap();
        let h2 = inc.content_hash();
        assert_ne!(h1, h2);
        assert_eq!(h2, inc.materialize().content_hash());
        inc.remove_job(7).unwrap();
        // Removing the job added first restores nothing — but removing the
        // *new* job and undoing the retime restores the original digest.
        inc.retime(0, 7).unwrap();
        assert_eq!(inc.content_hash(), h0);
        assert_eq!(inc.content_hash(), inc.materialize().content_hash());
    }

    #[test]
    fn tmax_rescan_on_max_removal_and_retime_down() {
        let mut inc = IncrementalInstance::new(&base());
        assert_eq!(inc.class_tmax(0), 9);
        inc.remove_job(2).unwrap(); // the 9 of class 0
        assert_eq!(inc.class_tmax(0), 7);
        inc.retime(0, 1).unwrap(); // the 7 shrinks to 1
        assert_eq!(inc.class_tmax(0), 3);
        assert_eq!(inc.materialize().class_tmax(0), 3);
    }

    #[test]
    fn removal_shifts_positional_ids() {
        let mut inc = IncrementalInstance::new(&base());
        let removed = inc.remove_job(0).unwrap();
        assert_eq!(removed, Job { class: 0, time: 7 });
        // The former job 1 (time 3) is now job 0.
        assert_eq!(inc.jobs()[0], Job { class: 0, time: 3 });
        assert_eq!(inc.num_jobs(), 6);
    }

    #[test]
    fn every_invalid_delta_is_rejected_and_leaves_state_untouched() {
        let mut inc = IncrementalInstance::new(&base());
        let before = inc.materialize();
        let hash = inc.content_hash();
        assert_eq!(
            inc.apply(Delta::AddJob { class: 9, time: 1 }),
            Err(DeltaError::UnknownClass(9))
        );
        assert_eq!(
            inc.apply(Delta::AddJob { class: 0, time: 0 }),
            Err(DeltaError::ZeroJobTime)
        );
        assert_eq!(
            inc.apply(Delta::RemoveJob { job: 99 }),
            Err(DeltaError::UnknownJob(99))
        );
        assert_eq!(
            inc.apply(Delta::Retime { job: 0, time: 0 }),
            Err(DeltaError::ZeroJobTime)
        );
        assert_eq!(
            inc.apply(Delta::AddJob {
                class: 0,
                time: u64::MAX / 2,
            }),
            Err(DeltaError::TotalLoadTooLarge)
        );
        assert_eq!(
            inc.apply(Delta::Retime {
                job: 0,
                time: u64::MAX / 2,
            }),
            Err(DeltaError::TotalLoadTooLarge)
        );
        assert_eq!(inc.version(), 0);
        assert_eq!(inc.content_hash(), hash);
        assert_eq!(inc.materialize(), before);
    }

    #[test]
    fn cannot_empty_a_class() {
        let mut b = InstanceBuilder::new(1);
        b.add_batch(2, &[5]);
        b.add_batch(3, &[4, 6]);
        let mut inc = IncrementalInstance::new(&b.build().unwrap());
        assert_eq!(
            inc.apply(Delta::RemoveJob { job: 0 }),
            Err(DeltaError::WouldEmptyClass(0))
        );
        // Class 1 has two jobs; removing one is fine, the second is not.
        inc.apply(Delta::RemoveJob { job: 1 }).unwrap();
        assert_eq!(
            inc.apply(Delta::RemoveJob { job: 1 }),
            Err(DeltaError::WouldEmptyClass(1))
        );
    }

    #[test]
    fn delta_json_roundtrips() {
        for delta in [
            Delta::AddJob { class: 2, time: 17 },
            Delta::RemoveJob { job: 5 },
            Delta::Retime { job: 3, time: 1 },
        ] {
            let text = bss_json::encode_pretty(&delta);
            let back: Delta = bss_json::decode(&text).unwrap();
            assert_eq!(back, delta);
        }
        assert!(bss_json::decode::<Delta>("{\"op\":\"explode\"}").is_err());
        assert!(bss_json::decode::<Delta>("{\"op\":\"add_job\",\"class\":0}").is_err());
    }
}
