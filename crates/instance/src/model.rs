//! The [`Instance`] type, its builder and validation.

use core::fmt;
use core::ops::Range;

use bss_json::{Field, FromJson, JsonError, JsonReader, JsonWriter, ToJson};

/// Index of a job; jobs are numbered `0..n` in insertion order.
pub type JobId = usize;
/// Index of a class; classes are numbered `0..c` in insertion order.
pub type ClassId = usize;

/// Upper bound on `N = Σ s_i + Σ t_j` enforced at construction.
///
/// Keeping the total load below `2^60` guarantees that every product the
/// algorithms form (loads times machine counts, cross-multiplied rational
/// comparisons) stays well inside `i128`.
pub const MAX_TOTAL_LOAD: u64 = 1 << 60;

/// Upper bound on the machine count `m` enforced at construction.
///
/// Explicit schedules and the validator allocate `O(m)` state, so an
/// unbounded `m` (e.g. from a hand-edited instance file) could abort the
/// process on allocation instead of failing cleanly. 2^24 machines is far
/// beyond any workload the algorithms target while keeping `O(m)` buffers
/// comfortably small.
pub const MAX_MACHINES: usize = 1 << 24;

/// A single job: its class and its integral processing time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Job {
    /// The class this job belongs to.
    pub class: ClassId,
    /// Processing time `t_j >= 1`.
    pub time: u64,
}

impl ToJson for Job {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object(|o| {
            o.key("class").int(self.class as i128);
            o.key("time").int(self.time.into());
        });
    }
}

impl FromJson for Job {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, JsonError> {
        let (mut class, mut time) = (Field::default(), Field::default());
        r.object("class", |key, r| match key {
            "class" => class.read_with(r, |r| r.int("Job.class")),
            "time" => time.read_with(r, |r| r.int("Job.time")),
            _ => r.skip(),
        })?;
        Ok(Job {
            class: class.required("class")?,
            time: time.required("time")?,
        })
    }
}

/// An immutable, validated instance of the batch-setup scheduling problem.
///
/// Construction via [`InstanceBuilder`] validates the paper's model
/// assumptions (`m >= 1`, `c >= 1`, non-empty classes, `s_i, t_j >= 1`) and
/// precomputes the per-class aggregates (`P(C_i)`, `t^(i)_max`) that all
/// algorithms need, so that the dual-approximation *tests* run in `O(c)` time
/// as required by the Class-Jumping searches.
///
/// Jobs are stored twice: in id order ([`Instance::jobs`], the serialized
/// form) and in a derived *class-major* table of two aligned columns, job ids
/// and job times, where class `i` occupies the positions
/// [`Instance::class_span`]`(i)` with its ids ascending. The solvers' per-class
/// passes read [`Instance::class_jobs`] and [`Instance::class_times`] (or the
/// whole table, [`Instance::class_major`]) as contiguous slices instead of
/// gathering times from the id-ordered list.
///
/// Two instances are equal when their machine counts, setups and jobs (in id
/// order) are: everything else is derived from those.
#[derive(Debug, Clone)]
pub struct Instance {
    machines: usize,
    setups: Vec<u64>,
    jobs: Vec<Job>,
    // Derived data, not serialized (rebuilt on load via `Instance::from_parts`).
    /// `c + 1` offsets: class `i` owns positions `class_start[i]..class_start[i + 1]`.
    class_start: Vec<usize>,
    /// Class-major job ids, ascending within each class.
    class_ids: Vec<JobId>,
    /// Job times aligned with `class_ids`.
    class_times: Vec<u64>,
    class_proc: Vec<u64>,
    class_tmax: Vec<u64>,
    total_proc: u64,
}

// Only the source fields: comparing the derived table and aggregates too
// would double the cost of the equality check the solve cache runs on every
// hit, and could never change the answer.
impl PartialEq for Instance {
    fn eq(&self, other: &Self) -> bool {
        self.machines == other.machines && self.setups == other.setups && self.jobs == other.jobs
    }
}

impl Eq for Instance {}

impl ToJson for Instance {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object(|o| {
            o.key("machines").int(self.machines as i128);
            o.key("setups").array(|a| {
                for &s in &self.setups {
                    a.item().int(s.into());
                }
            });
            o.key("jobs").value(&self.jobs);
        });
    }
}

/// The raw `(machines, setups, jobs)` of an instance file, before
/// validation. Crate-internal so that [`Instance::from_json`] can tell
/// malformed JSON from model violations.
pub(crate) struct Parts {
    machines: usize,
    setups: Vec<u64>,
    jobs: Vec<Job>,
}

impl Parts {
    pub(crate) fn build(self) -> Result<Instance, InstanceError> {
        Instance::from_parts(self.machines, self.setups, self.jobs)
    }
}

impl FromJson for Parts {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, JsonError> {
        let (mut machines, mut setups, mut jobs) =
            (Field::default(), Field::default(), Field::default());
        r.object("machines", |key, r| match key {
            "machines" => machines.read_with(r, |r| r.int("machines")),
            "setups" => setups.read_with(r, |r| r.ints("setups", "setup time")),
            "jobs" => jobs.read(r),
            _ => r.skip(),
        })?;
        Ok(Parts {
            machines: machines.required("machines")?,
            setups: setups.required("setups")?,
            jobs: jobs.required("jobs")?,
        })
    }
}

impl FromJson for Instance {
    /// Decodes *and validates*: the result always carries rebuilt aggregates,
    /// exactly as if built through [`InstanceBuilder`]. Model violations are
    /// reported as [`JsonError`]s; use [`Instance::from_json`] when the
    /// caller needs to tell them apart from malformed JSON.
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, JsonError> {
        Parts::read_json(r)?
            .build()
            .map_err(|e| JsonError::new(format!("invalid instance data: {e}")))
    }
}

/// Errors detected while building an [`Instance`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InstanceError {
    /// `m == 0`.
    NoMachines,
    /// `m` exceeds [`MAX_MACHINES`].
    TooManyMachines(usize),
    /// `c == 0`.
    NoClasses,
    /// A class without jobs (the paper requires a partition into non-empty classes).
    EmptyClass(ClassId),
    /// A job referencing an undeclared class.
    UnknownClass { job: JobId, class: ClassId },
    /// A zero setup time (`s_i ∈ N`, so `s_i >= 1`).
    ZeroSetup(ClassId),
    /// A zero processing time (`t_j ∈ N`, so `t_j >= 1`).
    ZeroJobTime(JobId),
    /// `N = Σ s_i + Σ t_j` exceeds [`MAX_TOTAL_LOAD`].
    TotalLoadTooLarge,
}

impl fmt::Display for InstanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstanceError::NoMachines => write!(f, "instance must have at least one machine"),
            InstanceError::TooManyMachines(m) => {
                write!(f, "machine count {m} exceeds the supported maximum 2^24")
            }
            InstanceError::NoClasses => write!(f, "instance must have at least one class"),
            InstanceError::EmptyClass(c) => write!(f, "class {c} has no jobs"),
            InstanceError::UnknownClass { job, class } => {
                write!(f, "job {job} references unknown class {class}")
            }
            InstanceError::ZeroSetup(c) => write!(f, "class {c} has zero setup time"),
            InstanceError::ZeroJobTime(j) => write!(f, "job {j} has zero processing time"),
            InstanceError::TotalLoadTooLarge => {
                write!(f, "total load N exceeds 2^60; rescale the instance")
            }
        }
    }
}

impl std::error::Error for InstanceError {}

/// Incremental builder for [`Instance`].
///
/// ```
/// use bss_instance::InstanceBuilder;
///
/// let mut b = InstanceBuilder::new(3);
/// let red = b.add_class(10);
/// let blue = b.add_class(4);
/// b.add_job(red, 7);
/// b.add_job(red, 2);
/// b.add_job(blue, 5);
/// let instance = b.build().unwrap();
/// assert_eq!(instance.num_jobs(), 3);
/// assert_eq!(instance.class_proc(red), 9);
/// ```
#[derive(Debug, Clone, Default)]
pub struct InstanceBuilder {
    machines: usize,
    setups: Vec<u64>,
    jobs: Vec<Job>,
}

impl InstanceBuilder {
    /// Starts an instance on `machines` identical machines.
    #[must_use]
    pub fn new(machines: usize) -> Self {
        InstanceBuilder {
            machines,
            setups: Vec::new(),
            jobs: Vec::new(),
        }
    }

    /// Declares a new class with setup time `setup`, returning its id.
    pub fn add_class(&mut self, setup: u64) -> ClassId {
        self.setups.push(setup);
        self.setups.len() - 1
    }

    /// Adds a job of `class` with processing time `time`, returning its id.
    pub fn add_job(&mut self, class: ClassId, time: u64) -> JobId {
        self.jobs.push(Job { class, time });
        self.jobs.len() - 1
    }

    /// Adds a class together with all its jobs; convenient for tests.
    pub fn add_batch(&mut self, setup: u64, times: &[u64]) -> ClassId {
        let class = self.add_class(setup);
        for &t in times {
            self.add_job(class, t);
        }
        class
    }

    /// Number of jobs added so far.
    #[must_use]
    pub fn num_jobs(&self) -> usize {
        self.jobs.len()
    }

    /// Validates and finalizes the instance.
    pub fn build(self) -> Result<Instance, InstanceError> {
        Instance::from_parts(self.machines, self.setups, self.jobs)
    }
}

impl Instance {
    /// Builds an instance from raw parts, validating the model assumptions.
    ///
    /// One pass validates the jobs and counts them per class; a prefix sum
    /// and a second pass then place them into the class-major columns (a
    /// counting sort, so ids stay ascending within each class).
    pub fn from_parts(
        machines: usize,
        setups: Vec<u64>,
        jobs: Vec<Job>,
    ) -> Result<Self, InstanceError> {
        if machines == 0 {
            return Err(InstanceError::NoMachines);
        }
        if machines > MAX_MACHINES {
            return Err(InstanceError::TooManyMachines(machines));
        }
        if setups.is_empty() {
            return Err(InstanceError::NoClasses);
        }
        for (i, &s) in setups.iter().enumerate() {
            if s == 0 {
                return Err(InstanceError::ZeroSetup(i));
            }
        }
        let c = setups.len();
        // `class_start[i + 1]` first counts class `i`'s jobs.
        let mut class_start = vec![0usize; c + 1];
        let mut class_proc = vec![0u64; c];
        let mut class_tmax = vec![0u64; c];
        let mut total: u128 = setups.iter().map(|&s| s as u128).sum();
        if total > MAX_TOTAL_LOAD as u128 {
            return Err(InstanceError::TotalLoadTooLarge);
        }
        let mut total_proc: u64 = 0;
        for (j, job) in jobs.iter().enumerate() {
            if job.class >= c {
                return Err(InstanceError::UnknownClass {
                    job: j,
                    class: job.class,
                });
            }
            if job.time == 0 {
                return Err(InstanceError::ZeroJobTime(j));
            }
            // Enforce the load cap incrementally: with the running total
            // bounded by 2^60, the u64 accumulators below cannot overflow
            // even on hostile inputs with times near u64::MAX.
            total += job.time as u128;
            if total > MAX_TOTAL_LOAD as u128 {
                return Err(InstanceError::TotalLoadTooLarge);
            }
            class_start[job.class + 1] += 1;
            class_proc[job.class] += job.time;
            class_tmax[job.class] = class_tmax[job.class].max(job.time);
            total_proc += job.time;
        }
        if let Some(i) = class_start[1..].iter().position(|&count| count == 0) {
            return Err(InstanceError::EmptyClass(i));
        }
        // Exclusive prefix sum: `class_start[i + 1]` becomes class `i`'s
        // first position, and placing a job advances it, so after the
        // placement pass it is class `i`'s end, i.e. class `i + 1`'s start.
        let mut next = 0;
        for slot in &mut class_start[1..] {
            next += core::mem::replace(slot, next);
        }
        let mut class_ids = vec![0; jobs.len()];
        let mut class_times = vec![0; jobs.len()];
        for (j, job) in jobs.iter().enumerate() {
            let pos = &mut class_start[job.class + 1];
            class_ids[*pos] = j;
            class_times[*pos] = job.time;
            *pos += 1;
        }
        Ok(Instance {
            machines,
            setups,
            jobs,
            class_start,
            class_ids,
            class_times,
            class_proc,
            class_tmax,
            total_proc,
        })
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

    /// Number of classes `c`.
    #[must_use]
    pub fn num_classes(&self) -> usize {
        self.setups.len()
    }

    /// Setup time `s_i`.
    #[must_use]
    pub fn setup(&self, class: ClassId) -> u64 {
        self.setups[class]
    }

    /// All setup times, indexed by class.
    #[must_use]
    pub fn setups(&self) -> &[u64] {
        &self.setups
    }

    /// The job with id `job`.
    #[must_use]
    pub fn job(&self, job: JobId) -> Job {
        self.jobs[job]
    }

    /// All jobs, indexed by job id.
    #[must_use]
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// Job ids of class `class`, ascending.
    #[must_use]
    pub fn class_jobs(&self, class: ClassId) -> &[JobId] {
        &self.class_ids[self.class_span(class)]
    }

    /// Processing times of class `class`'s jobs, aligned with
    /// [`Instance::class_jobs`]: `class_times(i)[k]` is the time of job
    /// `class_jobs(i)[k]`.
    #[must_use]
    pub fn class_times(&self, class: ClassId) -> &[u64] {
        &self.class_times[self.class_span(class)]
    }

    /// Positions of class `class`'s jobs in the class-major table
    /// ([`Instance::class_major`]). The spans of classes `0..c` tile `0..n`
    /// in class order.
    #[must_use]
    pub fn class_span(&self, class: ClassId) -> Range<usize> {
        self.class_start[class]..self.class_start[class + 1]
    }

    /// The class-major job table: job ids and their times, aligned, class
    /// by class (class `i` at [`Instance::class_span`]`(i)`, ids ascending).
    #[must_use]
    pub fn class_major(&self) -> (&[JobId], &[u64]) {
        (&self.class_ids, &self.class_times)
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

    /// `N = Σ_i s_i + Σ_j t_j`, the load of the trivial one-machine schedule.
    ///
    /// `OPT <= N` for every variant.
    #[must_use]
    pub fn total_load_once(&self) -> u64 {
        self.setups.iter().sum::<u64>() + self.total_proc
    }

    /// Largest setup time `s_max`. `OPT > s_max` for every variant.
    #[must_use]
    pub fn smax(&self) -> u64 {
        *self.setups.iter().max().expect("c >= 1")
    }

    /// Largest job time `t_max`.
    #[must_use]
    pub fn tmax(&self) -> u64 {
        self.class_tmax.iter().copied().max().expect("c >= 1")
    }

    /// `Δ = max(s_max, t_max)`, the largest number of the input (Theorem 8).
    #[must_use]
    pub fn delta(&self) -> u64 {
        self.smax().max(self.tmax())
    }

    /// `max_i (s_i + t^(i)_max)` — a lower bound on `OPT` for the
    /// non-preemptive and preemptive variants (Notes 1 and 2).
    #[must_use]
    pub fn max_setup_plus_tmax(&self) -> u64 {
        (0..self.num_classes())
            .map(|i| self.setups[i] + self.class_tmax[i])
            .max()
            .expect("c >= 1")
    }

    /// The instance with all setup and processing times multiplied by
    /// `factor`. The problems are scale-free, so optima (and our algorithms'
    /// outputs) scale along — a property the test suite checks.
    ///
    /// # Errors
    ///
    /// [`InstanceError::TotalLoadTooLarge`] when a scaled time overflows
    /// `u64` or the scaled total load exceeds [`MAX_TOTAL_LOAD`].
    ///
    /// # Panics
    ///
    /// If `factor` is zero.
    pub fn scaled(&self, factor: u64) -> Result<Instance, InstanceError> {
        assert!(factor >= 1, "scale factor must be positive");
        let scale = |v: u64| {
            v.checked_mul(factor)
                .ok_or(InstanceError::TotalLoadTooLarge)
        };
        let setups = self
            .setups
            .iter()
            .map(|&s| scale(s))
            .collect::<Result<_, _>>()?;
        let jobs = self
            .jobs
            .iter()
            .map(|j| {
                Ok(Job {
                    class: j.class,
                    time: scale(j.time)?,
                })
            })
            .collect::<Result<_, _>>()?;
        Instance::from_parts(self.machines, setups, jobs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple() -> InstanceBuilder {
        let mut b = InstanceBuilder::new(2);
        b.add_batch(3, &[4, 5]);
        b.add_batch(1, &[2]);
        b
    }

    #[test]
    fn builder_and_aggregates() {
        let inst = simple().build().unwrap();
        assert_eq!(inst.machines(), 2);
        assert_eq!(inst.num_classes(), 2);
        assert_eq!(inst.num_jobs(), 3);
        assert_eq!(inst.setup(0), 3);
        assert_eq!(inst.class_proc(0), 9);
        assert_eq!(inst.class_proc(1), 2);
        assert_eq!(inst.class_tmax(0), 5);
        assert_eq!(inst.total_proc(), 11);
        assert_eq!(inst.total_load_once(), 15);
        assert_eq!(inst.smax(), 3);
        assert_eq!(inst.tmax(), 5);
        assert_eq!(inst.delta(), 5);
        assert_eq!(inst.max_setup_plus_tmax(), 8);
        assert_eq!(inst.class_jobs(0), &[0, 1]);
        assert_eq!(inst.class_jobs(1), &[2]);
    }

    /// Jobs added with their classes interleaved land class by class in the
    /// class-major table, ids ascending and times aligned.
    #[test]
    fn class_major_table_of_interleaved_jobs() {
        let mut b = InstanceBuilder::new(2);
        let (x, y, z) = (b.add_class(3), b.add_class(1), b.add_class(2));
        for (class, time) in [(y, 4), (x, 7), (z, 1), (y, 2), (x, 5), (y, 9), (z, 6)] {
            b.add_job(class, time);
        }
        let inst = b.build().unwrap();
        assert_eq!(
            inst.class_major(),
            (&[1, 4, 0, 3, 5, 2, 6][..], &[7, 5, 4, 2, 9, 1, 6][..])
        );
        assert_eq!(
            (inst.class_span(x), inst.class_span(y), inst.class_span(z)),
            (0..2, 2..5, 5..7)
        );
        assert_eq!(inst.class_jobs(y), &[0, 3, 5]);
        assert_eq!(inst.class_times(y), &[4, 2, 9]);
        let mut end = 0;
        for i in 0..inst.num_classes() {
            let (span, ids, times) = (inst.class_span(i), inst.class_jobs(i), inst.class_times(i));
            assert_eq!(span.start, end);
            end = span.end;
            assert!(ids.windows(2).all(|w| w[0] < w[1]));
            for (&j, &t) in ids.iter().zip(times) {
                assert_eq!(inst.job(j), Job { class: i, time: t });
            }
            assert_eq!(inst.class_proc(i), times.iter().sum::<u64>());
            assert_eq!(inst.class_tmax(i), *times.iter().max().unwrap());
        }
        assert_eq!(end, inst.num_jobs());
    }

    #[test]
    fn scaled_multiplies_all_times() {
        let inst = simple().build().unwrap();
        let scaled = inst.scaled(3).unwrap();
        assert_eq!(scaled.setup(0), 9);
        assert_eq!(scaled.job(0).time, 12);
        assert_eq!(scaled.total_load_once(), 3 * inst.total_load_once());
        assert_eq!(scaled.machines(), inst.machines());
    }

    /// A scaled time that overflows `u64` is an error, not a wrapped value:
    /// `(2^40 + 1) · 2^30` once wrapped to `2^30` and `2^40 · 2^30` to 0.
    #[test]
    fn scaled_rejects_overflowing_times() {
        for time in [(1 << 40) + 1, 1 << 40] {
            let inst = Instance::from_parts(1, vec![1], vec![Job { class: 0, time }]).unwrap();
            assert_eq!(inst.scaled(1 << 30), Err(InstanceError::TotalLoadTooLarge));
        }
    }

    #[test]
    fn rejects_no_machines() {
        let mut b = InstanceBuilder::new(0);
        b.add_batch(1, &[1]);
        assert_eq!(b.build().unwrap_err(), InstanceError::NoMachines);
    }

    #[test]
    fn rejects_too_many_machines() {
        let mut b = InstanceBuilder::new(MAX_MACHINES + 1);
        b.add_batch(1, &[1]);
        assert_eq!(
            b.build().unwrap_err(),
            InstanceError::TooManyMachines(MAX_MACHINES + 1)
        );
    }

    #[test]
    fn rejects_no_classes() {
        let b = InstanceBuilder::new(1);
        assert_eq!(b.build().unwrap_err(), InstanceError::NoClasses);
    }

    #[test]
    fn rejects_empty_class() {
        let mut b = InstanceBuilder::new(1);
        b.add_class(1);
        b.add_batch(1, &[1]);
        assert_eq!(b.build().unwrap_err(), InstanceError::EmptyClass(0));
    }

    #[test]
    fn rejects_zero_setup() {
        let mut b = InstanceBuilder::new(1);
        b.add_batch(0, &[1]);
        assert_eq!(b.build().unwrap_err(), InstanceError::ZeroSetup(0));
    }

    #[test]
    fn rejects_zero_job_time() {
        let mut b = InstanceBuilder::new(1);
        b.add_batch(1, &[0]);
        assert_eq!(b.build().unwrap_err(), InstanceError::ZeroJobTime(0));
    }

    #[test]
    fn rejects_unknown_class() {
        let jobs = vec![Job { class: 5, time: 1 }];
        let err = Instance::from_parts(1, vec![1], jobs).unwrap_err();
        assert_eq!(err, InstanceError::UnknownClass { job: 0, class: 5 });
    }

    #[test]
    fn rejects_huge_total_load() {
        let jobs = vec![
            Job {
                class: 0,
                time: u64::MAX / 2,
            },
            Job {
                class: 0,
                time: u64::MAX / 2,
            },
        ];
        let err = Instance::from_parts(1, vec![1], jobs).unwrap_err();
        assert_eq!(err, InstanceError::TotalLoadTooLarge);
    }
}
