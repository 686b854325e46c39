//! Incremental instances: validated add/remove/retime deltas over a base
//! [`Instance`], for online workloads that re-solve after every event.
//!
//! An [`IncrementalInstance`] keeps the job list, the job count of each
//! class and the total processing time under a stream of [`Delta`]s — just
//! what eager validation needs — and validates each delta *eagerly*: every
//! reachable state satisfies the paper's model assumptions, so
//! [`materialize`](IncrementalInstance::materialize) can never fail. The
//! per-class aggregates a solve reads (`P(C_i)`, `t^(i)_max`) are not kept
//! here; materializing recomputes them through `Instance::from_parts`.
//! Materializing is proven equal to building the final job list from
//! scratch — structurally, by [`Instance::content_hash`], and by solve
//! bit-identity — in this module's tests and the workspace's
//! `incremental_prop` proptest suite.
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

use crate::hash::job_section_hash;
use crate::{ClassId, ContentHasher, Instance, Job, JobId, MAX_TOTAL_LOAD};

/// One mutation of an [`IncrementalInstance`] — the event of the online
/// protocols (`bss-serve` sessions, the `bss-gen` simulator). Its wire
/// spelling (`"op": "add-job"`, …) belongs to `bss-serve`'s protocol.
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

/// A mutable instance under a stream of validated [`Delta`]s (see the
/// module docs).
#[derive(Debug, Clone)]
pub struct IncrementalInstance {
    machines: usize,
    setups: Vec<u64>,
    jobs: Vec<Job>,
    /// Jobs per class (non-emptiness guard; cheaper than the class-major
    /// table an `Instance` keeps, which positional removal would force us to
    /// rebuild wholesale anyway).
    class_count: Vec<usize>,
    /// `P(J)`, for the total-load guard and [`Self::total_load_once`].
    total_proc: u64,
    /// Hasher state after `(version, m, c, setups..)` — the prefix of the
    /// canonical encoding that no delta can change.
    hash_prefix: ContentHasher,
    /// Cached digest, invalidated by every applied delta.
    cached_hash: Cell<Option<u64>>,
}

impl IncrementalInstance {
    /// Starts from a validated base instance.
    #[must_use]
    pub fn new(base: &Instance) -> Self {
        let class_count = (0..base.num_classes())
            .map(|i| base.class_jobs(i).len())
            .collect();
        IncrementalInstance {
            machines: base.machines(),
            setups: base.setups().to_vec(),
            jobs: base.jobs().to_vec(),
            class_count,
            total_proc: base.total_proc(),
            hash_prefix: crate::hash::setup_section_hasher(base.machines(), base.setups()),
            cached_hash: Cell::new(Some(base.content_hash())),
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
        self.total_proc += time;
        self.cached_hash.set(None);
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
        self.total_proc -= victim.time;
        self.cached_hash.set(None);
        Ok(victim)
    }

    /// Changes job `job`'s processing time to `time`, returning the old
    /// time, in `O(1)`.
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
        self.jobs[job].time = time;
        self.total_proc = self.total_proc - old + time;
        self.cached_hash.set(None);
        Ok(old)
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

    /// `N = Σ_i s_i + Σ_j t_j` — the quantity whose change between two
    /// solves drives the warm-start bracket widening in `bss-core`.
    #[must_use]
    pub fn total_load_once(&self) -> u64 {
        self.setups.iter().sum::<u64>() + self.total_proc
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
    /// list from scratch — structure, class counts, total load and digest.
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
        for class in 0..2 {
            assert_eq!(inc.class_count(class), scratch.class_jobs(class).len());
        }
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
}
