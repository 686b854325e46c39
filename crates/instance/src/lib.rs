//! Instance model for scheduling with batch setup times.
//!
//! An instance of the problem studied by Deppert & Jansen (SPAA 2019) consists
//! of `m` identical parallel machines, `n` jobs partitioned into `c` non-empty
//! classes, a processing time `t_j ∈ N` for every job and a setup time
//! `s_i ∈ N` for every class. A machine must run a setup `s_i` before
//! processing load of class `i` whenever it starts with that class or switches
//! to it from a different class; setups are never preempted.
//!
//! Three problem variants share this model and differ only in what a schedule
//! may do with jobs (see [`Variant`]):
//!
//! * **non-preemptive** (`P|setup=s_i|Cmax`) — jobs run contiguously on one machine,
//! * **preemptive** (`P|pmtn,setup=s_i|Cmax`) — jobs may be preempted but never
//!   run on two machines at the same time,
//! * **splittable** (`P|split,setup=s_i|Cmax`) — job pieces may run anywhere,
//!   even in parallel.
//!
//! The crate also provides the instance-only lower bounds the paper uses to
//! anchor its searches (`T_min`, Notes 1–2, `N/m`, `s_max`) in [`LowerBounds`].

mod bounds;
mod hash;
mod incremental;
mod io;
mod model;

pub use bounds::{tmin, LowerBounds};
pub use hash::ContentHasher;
pub use incremental::{Delta, DeltaError, IncrementalInstance};
pub use io::IoError;
pub use model::{
    ClassId, Instance, InstanceBuilder, InstanceError, Job, JobId, MAX_MACHINES, MAX_TOTAL_LOAD,
};

use bss_json::{FromJson, JsonError, JsonReader, JsonWriter, Scalar, ToJson};

/// The three problem variants of scheduling with batch setup times.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// `P|setup=s_i|Cmax`: jobs may not be preempted.
    NonPreemptive,
    /// `P|pmtn,setup=s_i|Cmax`: jobs may be preempted but not parallelized.
    Preemptive,
    /// `P|split,setup=s_i|Cmax`: jobs may be preempted and parallelized.
    Splittable,
}

impl Variant {
    /// All three variants, in the paper's table order.
    pub const ALL: [Variant; 3] = [
        Variant::Splittable,
        Variant::NonPreemptive,
        Variant::Preemptive,
    ];

    /// Short lowercase name used in reports and file names.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Variant::NonPreemptive => "non-preemptive",
            Variant::Preemptive => "preemptive",
            Variant::Splittable => "splittable",
        }
    }
}

impl core::fmt::Display for Variant {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

impl ToJson for Variant {
    fn write_json(&self, w: &mut JsonWriter) {
        w.str(match self {
            Variant::NonPreemptive => "NonPreemptive",
            Variant::Preemptive => "Preemptive",
            Variant::Splittable => "Splittable",
        });
    }
}

impl FromJson for Variant {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, JsonError> {
        match r.scalar()? {
            Scalar::Str(name) => match &*name {
                "NonPreemptive" => Ok(Variant::NonPreemptive),
                "Preemptive" => Ok(Variant::Preemptive),
                "Splittable" => Ok(Variant::Splittable),
                other => Err(JsonError::new(format!("unknown variant `{other}`"))),
            },
            other => Err(JsonError::new(format!(
                "expected variant string, found {}",
                other.kind()
            ))),
        }
    }
}
