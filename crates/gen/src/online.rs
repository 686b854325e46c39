//! Event-driven online workload simulator.
//!
//! An online workload is a seeded *base* instance plus a seeded stream of
//! timestamped instance deltas — job **arrivals**, job **departures**
//! (cancellations), and **reveals** (a job's processing time re-estimated
//! mid-flight, the uncertainty regime of Kawase–Makino–Phan–Sumita). The
//! simulator is a [`FamilySpec`]-style cell: a small, copyable,
//! JSON-serializable description from which the exact trace can always be
//! rebuilt, so the repro pipeline can commit online studies the same way it
//! commits static ones.
//!
//! Every generated trace is *valid by construction*: events are drawn
//! against a shadow [`IncrementalInstance`], so a departure never empties a
//! class and arrivals respect the configured job cap. Replaying the trace
//! through a consumer-side [`IncrementalInstance`] therefore never returns
//! a [`bss_instance::DeltaError`].

use bss_instance::{Delta, IncrementalInstance, Instance};
use bss_json::{JsonWriter, ToJson};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::FamilySpec;

/// A seeded online-workload cell: base instance plus event process.
///
/// The event mix is controlled by three integer weights (an event kind is
/// drawn with probability proportional to its weight); infeasible draws
/// degrade deterministically — a departure that would empty every class, or
/// an arrival over the cap, falls back to a reveal — so the trace always
/// has exactly [`events`](OnlineSpec::events) events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OnlineSpec {
    /// The instance revealed at time zero.
    pub base: FamilySpec,
    /// Number of events in the trace.
    pub events: usize,
    /// Relative weight of job arrivals.
    pub arrivals: u32,
    /// Relative weight of job departures (cancellations).
    pub departures: u32,
    /// Relative weight of reveals (a resident job's time re-estimated).
    pub reveals: u32,
    /// Inclusive range of arriving / revealed processing times.
    pub job_range: (u64, u64),
    /// Hard cap on concurrent jobs (arrivals beyond it degrade to
    /// reveals); keeps oracle-gated studies inside the gate.
    pub max_jobs: usize,
    /// RNG seed of the event process.
    pub seed: u64,
}

impl OnlineSpec {
    /// A balanced default process over `base`: arrival-heavy with a steady
    /// trickle of cancellations and re-estimates, uncapped.
    #[must_use]
    pub fn poisson_like(base: FamilySpec, events: usize, seed: u64) -> Self {
        OnlineSpec {
            base,
            events,
            arrivals: 6,
            departures: 3,
            reveals: 2,
            job_range: (1, 100),
            max_jobs: usize::MAX,
            seed,
        }
    }

    /// The family name (manifest / table labels), derived from the base.
    #[must_use]
    pub fn family(&self) -> String {
        format!("online-{}", self.base.family())
    }

    /// The event-process RNG seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The same cell with base *and* event process reseeded (sweeps hold
    /// the shape fixed and vary only this).
    #[must_use]
    pub fn reseeded(mut self, new_seed: u64) -> Self {
        self.base = self.base.reseeded(new_seed);
        self.seed = new_seed;
        self
    }

    /// Generates the trace this cell describes.
    ///
    /// # Panics
    /// Propagates the base family's shape preconditions, and requires a
    /// non-empty `job_range` with positive lower bound.
    #[must_use]
    pub fn build(&self) -> OnlineTrace {
        assert!(
            self.job_range.0 >= 1 && self.job_range.0 <= self.job_range.1,
            "need a non-empty positive job range"
        );
        assert!(
            self.arrivals + self.departures + self.reveals > 0,
            "need at least one positive event weight"
        );
        let base = self.base.build();
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x6f6e_6c69_6e65); // "online"
        let mut shadow = IncrementalInstance::new(&base);
        let mut events = Vec::with_capacity(self.events);
        let mut clock = 0u64;
        let total = self.arrivals + self.departures + self.reveals;
        for _ in 0..self.events {
            clock += rng.gen_range(1..=8u64);
            let mut roll = rng.gen_range(0..total);
            // Degrade infeasible draws toward a reveal, which is always
            // possible (instances are never empty).
            if roll < self.arrivals && shadow.num_jobs() >= self.max_jobs {
                roll = self.arrivals + self.departures; // over the cap: reveal
            }
            let delta = if roll < self.arrivals {
                Delta::AddJob {
                    class: rng.gen_range(0..shadow.num_classes()),
                    time: rng.gen_range(self.job_range.0..=self.job_range.1),
                }
            } else if roll < self.arrivals + self.departures {
                // A uniformly random job among those whose class keeps at
                // least one other job; fall back to a reveal when every
                // class is a singleton.
                let removable: Vec<usize> = (0..shadow.num_jobs())
                    .filter(|&j| shadow.class_count(shadow.jobs()[j].class) > 1)
                    .collect();
                match removable.as_slice() {
                    [] => reveal(&shadow, &mut rng, self.job_range),
                    jobs => Delta::RemoveJob {
                        job: jobs[rng.gen_range(0..jobs.len())],
                    },
                }
            } else {
                reveal(&shadow, &mut rng, self.job_range)
            };
            shadow
                .apply(delta)
                .expect("the simulator only draws feasible deltas");
            events.push(OnlineEvent { at: clock, delta });
        }
        OnlineTrace { base, events }
    }
}

fn reveal(shadow: &IncrementalInstance, rng: &mut StdRng, range: (u64, u64)) -> Delta {
    Delta::Retime {
        job: rng.gen_range(0..shadow.num_jobs()),
        time: rng.gen_range(range.0..=range.1),
    }
}

impl ToJson for OnlineSpec {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object(|o| {
            o.key("family").str(&self.family());
            o.key("base").value(&self.base);
            o.key("events").int(self.events as i128);
            o.key("arrivals").int(i128::from(self.arrivals));
            o.key("departures").int(i128::from(self.departures));
            o.key("reveals").int(i128::from(self.reveals));
            o.key("job_lo").int(i128::from(self.job_range.0));
            o.key("job_hi").int(i128::from(self.job_range.1));
            o.key("max_jobs")
                .int(i128::try_from(self.max_jobs).unwrap_or(i128::MAX));
            o.key("seed").int(i128::from(self.seed));
        });
    }
}

/// One timestamped event of an online trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OnlineEvent {
    /// Virtual arrival time (strictly increasing along the trace).
    pub at: u64,
    /// The instance delta revealed at that time.
    pub delta: Delta,
}

/// A generated online workload: the base instance and its event stream.
///
/// The state *after* event `k` is obtained by replaying `events[..=k]` onto
/// an [`IncrementalInstance::new`] of `base`; [`OnlineTrace::state_after`]
/// does exactly that for tests and studies that need a single snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OnlineTrace {
    /// The instance revealed at time zero.
    pub base: Instance,
    /// The event stream, in virtual-time order.
    pub events: Vec<OnlineEvent>,
}

impl OnlineTrace {
    /// Materializes the instance state after the first `k` events
    /// (`k = 0` is the base).
    ///
    /// # Panics
    /// Panics if `k > self.events.len()`.
    #[must_use]
    pub fn state_after(&self, k: usize) -> Instance {
        let mut inc = IncrementalInstance::new(&self.base);
        for ev in &self.events[..k] {
            inc.apply(ev.delta)
                .expect("generated traces replay cleanly");
        }
        inc.materialize()
    }
}

#[cfg(test)]
mod tests {
    use bss_json::Value;

    use super::*;

    fn spec(seed: u64) -> OnlineSpec {
        OnlineSpec::poisson_like(
            FamilySpec::Uniform {
                jobs: 30,
                classes: 5,
                machines: 4,
                seed,
            },
            40,
            seed,
        )
    }

    #[test]
    fn deterministic_in_seed() {
        assert_eq!(spec(9).build(), spec(9).build());
        assert_ne!(spec(9).build(), spec(10).build());
        let reseeded = spec(9).reseeded(10);
        assert_eq!(reseeded.seed(), 10);
        assert_eq!(reseeded.build(), spec(10).build());
    }

    #[test]
    fn traces_replay_cleanly_and_timestamps_increase() {
        for seed in 0..10 {
            let trace = spec(seed).build();
            assert_eq!(trace.events.len(), 40);
            let mut inc = IncrementalInstance::new(&trace.base);
            let mut last_at = 0;
            for ev in &trace.events {
                assert!(ev.at > last_at, "timestamps must strictly increase");
                last_at = ev.at;
                inc.apply(ev.delta).expect("trace must replay cleanly");
            }
            // Every prefix state is a valid, buildable instance.
            assert_eq!(trace.state_after(40), inc.materialize());
        }
    }

    #[test]
    fn default_mix_exercises_all_three_event_kinds() {
        let trace = spec(3).build();
        let (mut adds, mut removes, mut retimes) = (0, 0, 0);
        for ev in &trace.events {
            match ev.delta {
                Delta::AddJob { .. } => adds += 1,
                Delta::RemoveJob { .. } => removes += 1,
                Delta::Retime { .. } => retimes += 1,
            }
        }
        assert!(adds > 0 && removes > 0 && retimes > 0);
    }

    #[test]
    fn job_cap_is_respected_by_degrading_arrivals_to_reveals() {
        let mut capped = spec(5);
        capped.max_jobs = 31; // base has 30 jobs: at most one net arrival
        let trace = capped.build();
        let mut inc = IncrementalInstance::new(&trace.base);
        for ev in &trace.events {
            inc.apply(ev.delta).unwrap();
            assert!(inc.num_jobs() <= 31);
        }
        assert_eq!(trace.events.len(), 40);
    }

    #[test]
    fn all_singleton_classes_degrade_departures_to_reveals() {
        // One job per class: no departure is ever feasible.
        let mut s = OnlineSpec::poisson_like(
            FamilySpec::SingleJob {
                jobs: 6,
                machines: 2,
                seed: 1,
            },
            30,
            1,
        );
        s.arrivals = 0; // force the departure/reveal paths
        s.departures = 1;
        s.reveals = 1;
        let trace = s.build();
        assert!(trace
            .events
            .iter()
            .all(|ev| matches!(ev.delta, Delta::Retime { .. })));
    }

    #[test]
    fn json_names_family_base_and_seed() {
        let v = bss_json::parse(&bss_json::encode(&spec(7))).unwrap();
        assert_eq!(
            v.field("family").and_then(Value::as_str),
            Some("online-uniform")
        );
        assert_eq!(v.field("seed").and_then(Value::as_i128), Some(7));
        assert!(v.field("base").is_some());
    }
}
