//! Seeded workload generators.
//!
//! Provides the instance families used throughout the test suite and the
//! benchmark harness, mirroring the regimes the literature distinguishes:
//!
//! * [`uniform`] — setups and jobs from uniform ranges, classes of random size;
//! * [`small_batches`] — many light classes (`s_i + P(C_i)` well below `OPT`),
//!   the regime of Monma–Potts and Chen;
//! * [`single_job_batches`] — `|C_i| = 1`, the regime of Schuurman–Woeginger;
//! * [`expensive_setups`] — few classes with setups dominating processing
//!   time, exercising the `I_exp` machinery;
//! * [`zipf_classes`] — heavy-tailed class sizes;
//! * [`wide_delta`] — processing times spanning many orders of magnitude
//!   (stress for the `O(n log(n + Δ))` non-preemptive search);
//! * [`all_expensive`] — *every* class setup exceeds the mean load `N/m`,
//!   so every class is expensive at every guess in the certified window
//!   (the adversarial regime of the `I_exp` machinery, `c < m` forced);
//! * [`paper`] — handcrafted instances shaped like the paper's figures;
//! * [`seqdep`] — sequence-dependent families (uniform special case,
//!   TSP-path-derived, triangle-inequality-violating).
//!
//! All generators are deterministic in their seed.

pub mod online;
pub mod paper;
pub mod seqdep;

use bss_instance::{Instance, InstanceBuilder};
use bss_json::{JsonWriter, ToJson};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A named, fully-seeded instance-family cell: everything needed to rebuild
/// one generated instance. The repro pipeline records these in its MANIFEST
/// so every committed artifact names the exact family parameters and seed it
/// was produced from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FamilySpec {
    /// [`uniform`].
    Uniform {
        /// Job count `n`.
        jobs: usize,
        /// Class count `c`.
        classes: usize,
        /// Machine count `m`.
        machines: usize,
        /// RNG seed.
        seed: u64,
    },
    /// [`small_batches`] (the class count is family-derived).
    SmallBatches {
        /// Job count `n`.
        jobs: usize,
        /// Machine count `m`.
        machines: usize,
        /// RNG seed.
        seed: u64,
    },
    /// [`single_job_batches`] (`c = n`).
    SingleJob {
        /// Job count `n` (= class count).
        jobs: usize,
        /// Machine count `m`.
        machines: usize,
        /// RNG seed.
        seed: u64,
    },
    /// [`expensive_setups`] (the class count is family-derived).
    ExpensiveSetups {
        /// Job count `n`.
        jobs: usize,
        /// Machine count `m`.
        machines: usize,
        /// RNG seed.
        seed: u64,
    },
    /// [`zipf_classes`].
    ZipfClasses {
        /// Job count `n`.
        jobs: usize,
        /// Class count `c`.
        classes: usize,
        /// Machine count `m`.
        machines: usize,
        /// RNG seed.
        seed: u64,
    },
    /// [`contended`].
    Contended {
        /// Job count `n`.
        jobs: usize,
        /// Class count `c`.
        classes: usize,
        /// Machine count `m`.
        machines: usize,
        /// RNG seed.
        seed: u64,
    },
    /// [`wide_delta`].
    WideDelta {
        /// Job count `n`.
        jobs: usize,
        /// Class count `c`.
        classes: usize,
        /// Machine count `m`.
        machines: usize,
        /// Largest processing time `Δ`.
        delta: u64,
        /// RNG seed.
        seed: u64,
    },
    /// [`all_expensive`].
    AllExpensive {
        /// Job count `n`.
        jobs: usize,
        /// Class count `c` (must stay below `machines`).
        classes: usize,
        /// Machine count `m`.
        machines: usize,
        /// RNG seed.
        seed: u64,
    },
    /// [`tiny`] (all shape parameters are seed-derived).
    Tiny {
        /// RNG seed.
        seed: u64,
    },
}

impl FamilySpec {
    /// The family's stable name (manifest / table labels).
    #[must_use]
    pub fn family(&self) -> &'static str {
        match self {
            FamilySpec::Uniform { .. } => "uniform",
            FamilySpec::SmallBatches { .. } => "small-batches",
            FamilySpec::SingleJob { .. } => "single-job",
            FamilySpec::ExpensiveSetups { .. } => "expensive",
            FamilySpec::ZipfClasses { .. } => "zipf",
            FamilySpec::Contended { .. } => "contended",
            FamilySpec::WideDelta { .. } => "wide-delta",
            FamilySpec::AllExpensive { .. } => "all-expensive",
            FamilySpec::Tiny { .. } => "tiny",
        }
    }

    /// The cell's RNG seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        match *self {
            FamilySpec::Uniform { seed, .. }
            | FamilySpec::SmallBatches { seed, .. }
            | FamilySpec::SingleJob { seed, .. }
            | FamilySpec::ExpensiveSetups { seed, .. }
            | FamilySpec::ZipfClasses { seed, .. }
            | FamilySpec::Contended { seed, .. }
            | FamilySpec::WideDelta { seed, .. }
            | FamilySpec::AllExpensive { seed, .. }
            | FamilySpec::Tiny { seed } => seed,
        }
    }

    /// The same cell with a different seed (sweeps hold the shape fixed and
    /// vary only this).
    #[must_use]
    pub fn reseeded(mut self, new_seed: u64) -> Self {
        match &mut self {
            FamilySpec::Uniform { seed, .. }
            | FamilySpec::SmallBatches { seed, .. }
            | FamilySpec::SingleJob { seed, .. }
            | FamilySpec::ExpensiveSetups { seed, .. }
            | FamilySpec::ZipfClasses { seed, .. }
            | FamilySpec::Contended { seed, .. }
            | FamilySpec::WideDelta { seed, .. }
            | FamilySpec::AllExpensive { seed, .. }
            | FamilySpec::Tiny { seed } => *seed = new_seed,
        }
        self
    }

    /// Builds the instance this cell describes.
    ///
    /// # Panics
    /// Propagates the underlying generator's shape preconditions (e.g.
    /// `c < m` for [`all_expensive`]) — a spec violating them is a
    /// programmer error, exactly as calling the generator directly would be.
    #[must_use]
    pub fn build(&self) -> Instance {
        match *self {
            FamilySpec::Uniform {
                jobs,
                classes,
                machines,
                seed,
            } => uniform(jobs, classes, machines, seed),
            FamilySpec::SmallBatches {
                jobs,
                machines,
                seed,
            } => small_batches(jobs, machines, seed),
            FamilySpec::SingleJob {
                jobs,
                machines,
                seed,
            } => single_job_batches(jobs, machines, seed),
            FamilySpec::ExpensiveSetups {
                jobs,
                machines,
                seed,
            } => expensive_setups(jobs, machines, seed),
            FamilySpec::ZipfClasses {
                jobs,
                classes,
                machines,
                seed,
            } => zipf_classes(jobs, classes, machines, seed),
            FamilySpec::Contended {
                jobs,
                classes,
                machines,
                seed,
            } => contended(jobs, classes, machines, seed),
            FamilySpec::WideDelta {
                jobs,
                classes,
                machines,
                delta,
                seed,
            } => wide_delta(jobs, classes, machines, delta, seed),
            FamilySpec::AllExpensive {
                jobs,
                classes,
                machines,
                seed,
            } => all_expensive(jobs, classes, machines, seed),
            FamilySpec::Tiny { seed } => tiny(seed),
        }
    }
}

impl ToJson for FamilySpec {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object(|o| {
            o.key("family").str(self.family());
            let mut push = |key: &str, v: u64| o.key(key).int(v.into());
            match *self {
                FamilySpec::Uniform {
                    jobs,
                    classes,
                    machines,
                    ..
                }
                | FamilySpec::ZipfClasses {
                    jobs,
                    classes,
                    machines,
                    ..
                }
                | FamilySpec::Contended {
                    jobs,
                    classes,
                    machines,
                    ..
                }
                | FamilySpec::AllExpensive {
                    jobs,
                    classes,
                    machines,
                    ..
                } => {
                    push("jobs", jobs as u64);
                    push("classes", classes as u64);
                    push("machines", machines as u64);
                }
                FamilySpec::SmallBatches { jobs, machines, .. }
                | FamilySpec::SingleJob { jobs, machines, .. }
                | FamilySpec::ExpensiveSetups { jobs, machines, .. } => {
                    push("jobs", jobs as u64);
                    push("machines", machines as u64);
                }
                FamilySpec::WideDelta {
                    jobs,
                    classes,
                    machines,
                    delta,
                    ..
                } => {
                    push("jobs", jobs as u64);
                    push("classes", classes as u64);
                    push("machines", machines as u64);
                    push("delta", delta);
                }
                FamilySpec::Tiny { .. } => {}
            }
            push("seed", self.seed());
        });
    }
}

/// Configuration for the general-purpose generator [`generate`].
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Number of jobs.
    pub jobs: usize,
    /// Number of classes (must be `<= jobs`).
    pub classes: usize,
    /// Number of machines.
    pub machines: usize,
    /// Inclusive range of setup times.
    pub setup_range: (u64, u64),
    /// Inclusive range of job processing times.
    pub job_range: (u64, u64),
    /// How job counts are distributed over classes.
    pub class_sizes: ClassSizes,
    /// RNG seed.
    pub seed: u64,
}

/// Distribution of jobs over classes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ClassSizes {
    /// Every class receives `n/c` jobs (± 1).
    Equal,
    /// Each job picks a class uniformly at random.
    Uniform,
    /// Each job picks class `k` with probability `∝ (k+1)^-alpha`.
    Zipf(f64),
}

/// Generates an instance according to `cfg`.
///
/// Every class is guaranteed at least one job (the first `c` jobs are dealt
/// round-robin), so the result always satisfies the model invariants.
///
/// # Panics
/// Panics if `cfg.classes == 0`, `cfg.classes > cfg.jobs`, or a range is
/// empty/zero-based.
#[must_use]
pub fn generate(cfg: &GenConfig) -> Instance {
    assert!(
        cfg.classes > 0 && cfg.classes <= cfg.jobs,
        "need 1 <= c <= n"
    );
    assert!(cfg.setup_range.0 >= 1 && cfg.setup_range.0 <= cfg.setup_range.1);
    assert!(cfg.job_range.0 >= 1 && cfg.job_range.0 <= cfg.job_range.1);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut b = InstanceBuilder::new(cfg.machines);
    for _ in 0..cfg.classes {
        b.add_class(rng.gen_range(cfg.setup_range.0..=cfg.setup_range.1));
    }
    // Zipf weights, if requested.
    let zipf_cdf: Option<Vec<f64>> = match cfg.class_sizes {
        ClassSizes::Zipf(alpha) => {
            let mut acc = 0.0;
            let mut cdf = Vec::with_capacity(cfg.classes);
            for k in 0..cfg.classes {
                acc += 1.0 / ((k + 1) as f64).powf(alpha);
                cdf.push(acc);
            }
            let total = acc;
            for v in &mut cdf {
                *v /= total;
            }
            Some(cdf)
        }
        _ => None,
    };
    for j in 0..cfg.jobs {
        let class = if j < cfg.classes {
            j // guarantee non-empty classes
        } else {
            match cfg.class_sizes {
                ClassSizes::Equal => j % cfg.classes,
                ClassSizes::Uniform => rng.gen_range(0..cfg.classes),
                ClassSizes::Zipf(_) => {
                    let u: f64 = rng.gen();
                    let cdf = zipf_cdf.as_ref().expect("zipf cdf");
                    cdf.partition_point(|&p| p < u).min(cfg.classes - 1)
                }
            }
        };
        b.add_job(class, rng.gen_range(cfg.job_range.0..=cfg.job_range.1));
    }
    b.build().expect("generator produces valid instances")
}

/// Uniform workload: the default random suite.
#[must_use]
pub fn uniform(jobs: usize, classes: usize, machines: usize, seed: u64) -> Instance {
    generate(&GenConfig {
        jobs,
        classes,
        machines,
        setup_range: (1, 50),
        job_range: (1, 100),
        class_sizes: ClassSizes::Uniform,
        seed,
    })
}

/// Many light classes: small setups, small batches relative to `OPT`.
#[must_use]
pub fn small_batches(jobs: usize, machines: usize, seed: u64) -> Instance {
    let classes = (jobs / 3).max(machines.max(2)).min(jobs);
    generate(&GenConfig {
        jobs,
        classes,
        machines,
        setup_range: (1, 8),
        job_range: (1, 20),
        class_sizes: ClassSizes::Equal,
        seed,
    })
}

/// `|C_i| = 1`: one job per class (the Schuurman–Woeginger regime).
#[must_use]
pub fn single_job_batches(jobs: usize, machines: usize, seed: u64) -> Instance {
    generate(&GenConfig {
        jobs,
        classes: jobs,
        machines,
        setup_range: (1, 50),
        job_range: (1, 100),
        class_sizes: ClassSizes::Equal,
        seed,
    })
}

/// Few classes whose setups dominate: exercises expensive-class handling.
#[must_use]
pub fn expensive_setups(jobs: usize, machines: usize, seed: u64) -> Instance {
    // `~machines` classes, at least 2 when possible, never more than `jobs`
    // (written without `clamp`, whose `min > max` case panics for `jobs < 2`).
    let classes = machines.max(2).min(jobs);
    generate(&GenConfig {
        jobs,
        classes,
        machines,
        setup_range: (500, 1000),
        job_range: (1, 20),
        class_sizes: ClassSizes::Uniform,
        seed,
    })
}

/// Heavy-tailed class sizes.
#[must_use]
pub fn zipf_classes(jobs: usize, classes: usize, machines: usize, seed: u64) -> Instance {
    generate(&GenConfig {
        jobs,
        classes,
        machines,
        setup_range: (1, 50),
        job_range: (1, 100),
        class_sizes: ClassSizes::Zipf(1.5),
        seed,
    })
}

/// Job times spanning `[1, delta]` log-uniformly: stress for the integer
/// binary search of Theorem 8.
///
/// # Panics
/// Panics if `delta < 2` or `jobs == 0` (as with [`generate`], degenerate
/// shapes are precondition violations, not empty instances).
#[must_use]
pub fn wide_delta(jobs: usize, classes: usize, machines: usize, delta: u64, seed: u64) -> Instance {
    assert!(delta >= 2);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = InstanceBuilder::new(machines);
    let classes = classes.min(jobs).max(1);
    for _ in 0..classes {
        let exp = rng.gen_range(0.0..(delta as f64).ln());
        b.add_class((exp.exp() as u64).clamp(1, delta));
    }
    for j in 0..jobs {
        let class = if j < classes {
            j
        } else {
            rng.gen_range(0..classes)
        };
        let exp = rng.gen_range(0.0..(delta as f64).ln());
        b.add_job(class, (exp.exp() as u64).clamp(1, delta));
    }
    b.build().expect("generator produces valid instances")
}

/// Setup-dominated, machine-contended workload: every class's setup exceeds
/// its own processing load, so classes are *expensive* near `T_min = N/m`
/// whenever `c` is at most a small multiple of `m`. In that regime the dual
/// tests genuinely reject near `T_min` and the Class-Jumping structure
/// matters; with `c >> m` no class is expensive at `N/m` and every search
/// accepts immediately (an instructive structural fact in itself — see
/// EXPERIMENTS.md).
#[must_use]
pub fn contended(jobs: usize, classes: usize, machines: usize, seed: u64) -> Instance {
    let classes = classes.min(jobs).max(1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = InstanceBuilder::new(machines);
    let mut class_of = Vec::with_capacity(jobs);
    let mut loads = vec![0u64; classes];
    for j in 0..jobs {
        let class = j % classes;
        let t = rng.gen_range(50..=150u64);
        class_of.push((class, t));
        loads[class] += t;
    }
    for &load in &loads {
        // Setup comparable to the class's own processing load: keeps
        // s_max <= N/m while making classes expensive (s_i > T/2) with
        // beta_i >= 2 at T = N/m whenever c is in [m/2, m).
        let lo = load.max(1);
        b.add_class(rng.gen_range(lo..=lo + lo / 4));
    }
    for (class, t) in class_of {
        b.add_job(class, t);
    }
    b.build().expect("generator produces valid instances")
}

/// Every class setup strictly exceeds the mean load `N/m`: since
/// `T_min = max(N/m, s_max) ... 2·T_min` brackets the searches and
/// `s_i > N/m`, every class is *expensive* (`s_i > T/2`) at every guess the
/// algorithms probe in `[T_min, 2·T_min]` — the all-`I_exp` adversarial
/// regime, where the builders must place every class by wrapping over its
/// `β_i` machines and the cheap-class path never fires.
///
/// Requires `classes < machines` (otherwise `Σ s_i > c·N/m >= N`, a
/// contradiction) and, as everywhere, `1 <= classes <= jobs`.
///
/// # Panics
/// Panics when the shape constraints are violated (precondition, as with
/// [`generate`]).
#[must_use]
pub fn all_expensive(jobs: usize, classes: usize, machines: usize, seed: u64) -> Instance {
    assert!(classes >= 1 && classes <= jobs, "need 1 <= c <= n");
    assert!(
        classes < machines,
        "all-expensive needs c < m (else setups cannot all exceed N/m)"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let times: Vec<u64> = (0..jobs).map(|_| rng.gen_range(1..=60u64)).collect();
    let total_proc: u64 = times.iter().sum();
    let jitter: Vec<u64> = (0..classes).map(|_| rng.gen_range(0..=20u64)).collect();
    // Smallest K with K + jitter_i > (Σ(K + jitter) + P)/m for all i: start
    // at the c = m-1 closed form and double until the strict bound holds
    // (convergence is immediate; doubling only hardens the margin).
    let mut base = total_proc / (machines - classes) as u64 + 1;
    loop {
        let setup_sum: u64 = jitter.iter().map(|&d| base + d).sum();
        let n = setup_sum + total_proc;
        // min setup strictly above N/m  <=>  base * m > N (jitter >= 0).
        if (base as u128) * machines as u128 > n as u128 {
            break;
        }
        base *= 2;
    }
    let mut b = InstanceBuilder::new(machines);
    for &d in &jitter {
        b.add_class(base + d);
    }
    for (j, &t) in times.iter().enumerate() {
        let class = if j < classes { j } else { j % classes };
        b.add_job(class, t);
    }
    b.build().expect("generator produces valid instances")
}

/// Tiny random instances for exact-oracle comparisons (n <= 10, m <= 4).
#[must_use]
pub fn tiny(seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let machines = rng.gen_range(1..=4);
    let classes = rng.gen_range(1..=4usize);
    let jobs = rng.gen_range(classes..=9);
    generate(&GenConfig {
        jobs,
        classes,
        machines,
        setup_range: (1, 12),
        job_range: (1, 15),
        class_sizes: ClassSizes::Uniform,
        seed: rng.gen(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_in_seed() {
        let a = uniform(100, 10, 4, 42);
        let b = uniform(100, 10, 4, 42);
        let c = uniform(100, 10, 4, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn respects_counts() {
        let inst = uniform(250, 17, 6, 1);
        assert_eq!(inst.num_jobs(), 250);
        assert_eq!(inst.num_classes(), 17);
        assert_eq!(inst.machines(), 6);
    }

    #[test]
    fn single_job_batches_have_one_job_each() {
        let inst = single_job_batches(40, 5, 7);
        assert_eq!(inst.num_classes(), 40);
        for i in 0..40 {
            assert_eq!(inst.class_jobs(i).len(), 1);
        }
    }

    #[test]
    fn zipf_is_skewed() {
        let inst = zipf_classes(2000, 20, 4, 3);
        let first = inst.class_jobs(0).len();
        let last = inst.class_jobs(19).len();
        assert!(first > 3 * last.max(1), "zipf head {first} vs tail {last}");
    }

    #[test]
    fn wide_delta_spans_magnitudes() {
        let inst = wide_delta(500, 20, 4, 1 << 30, 11);
        assert!(inst.tmax() > 1 << 10);
        assert!(inst.jobs().iter().any(|j| j.time < 100));
    }

    #[test]
    fn expensive_setups_are_expensive() {
        let inst = expensive_setups(60, 4, 5);
        assert!(inst.smax() >= 500);
    }

    #[test]
    fn all_expensive_setups_exceed_mean_load() {
        for seed in 0..20 {
            let inst = all_expensive(40, 5, 8, seed);
            let n = inst.total_load_once();
            let m = inst.machines() as u128;
            for i in 0..inst.num_classes() {
                // s_i > N/m, exactly (integer cross-multiplication).
                assert!(
                    inst.setup(i) as u128 * m > n as u128,
                    "seed {seed}: setup {} vs N/m = {}/{}",
                    inst.setup(i),
                    n,
                    m
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "c < m")]
    fn all_expensive_rejects_c_ge_m() {
        let _ = all_expensive(40, 8, 8, 0);
    }

    #[test]
    fn tiny_instances_valid_and_small() {
        for seed in 0..50 {
            let inst = tiny(seed);
            assert!(inst.num_jobs() <= 9);
            assert!(inst.machines() <= 4);
        }
    }

    #[test]
    fn family_specs_build_what_the_generators_build() {
        let cells = [
            FamilySpec::Uniform {
                jobs: 80,
                classes: 9,
                machines: 4,
                seed: 3,
            },
            FamilySpec::SmallBatches {
                jobs: 80,
                machines: 4,
                seed: 3,
            },
            FamilySpec::SingleJob {
                jobs: 30,
                machines: 4,
                seed: 3,
            },
            FamilySpec::ExpensiveSetups {
                jobs: 40,
                machines: 4,
                seed: 3,
            },
            FamilySpec::ZipfClasses {
                jobs: 200,
                classes: 12,
                machines: 4,
                seed: 3,
            },
            FamilySpec::Contended {
                jobs: 120,
                classes: 3,
                machines: 4,
                seed: 3,
            },
            FamilySpec::WideDelta {
                jobs: 60,
                classes: 6,
                machines: 4,
                delta: 1 << 20,
                seed: 3,
            },
            FamilySpec::AllExpensive {
                jobs: 40,
                classes: 3,
                machines: 8,
                seed: 3,
            },
            FamilySpec::Tiny { seed: 3 },
        ];
        let direct = [
            uniform(80, 9, 4, 3),
            small_batches(80, 4, 3),
            single_job_batches(30, 4, 3),
            expensive_setups(40, 4, 3),
            zipf_classes(200, 12, 4, 3),
            contended(120, 3, 4, 3),
            wide_delta(60, 6, 4, 1 << 20, 3),
            all_expensive(40, 3, 8, 3),
            tiny(3),
        ];
        for (spec, want) in cells.iter().zip(&direct) {
            assert_eq!(&spec.build(), want, "{}", spec.family());
            assert_eq!(spec.seed(), 3);
            // Reseeding changes only the seed; the rebuilt instance matches
            // the generator at the new seed.
            let reseeded = spec.reseeded(4);
            assert_eq!(reseeded.seed(), 4);
            assert_eq!(reseeded.family(), spec.family());
        }
    }

    #[test]
    fn family_spec_json_names_family_and_seed() {
        let spec = FamilySpec::WideDelta {
            jobs: 60,
            classes: 6,
            machines: 4,
            delta: 1 << 20,
            seed: 7,
        };
        let v = bss_json::parse(&bss_json::encode(&spec)).unwrap();
        assert_eq!(
            v.field("family").and_then(bss_json::Value::as_str),
            Some("wide-delta")
        );
        assert_eq!(
            v.field("delta").and_then(bss_json::Value::as_i128),
            Some(1 << 20)
        );
        assert_eq!(v.field("seed").and_then(bss_json::Value::as_i128), Some(7));
    }

    #[test]
    fn equal_sizes_are_balanced() {
        let inst = generate(&GenConfig {
            jobs: 100,
            classes: 10,
            machines: 2,
            setup_range: (1, 2),
            job_range: (1, 2),
            class_sizes: ClassSizes::Equal,
            seed: 0,
        });
        for i in 0..10 {
            assert_eq!(inst.class_jobs(i).len(), 10);
        }
    }
}
