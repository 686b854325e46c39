//! Closure smoke: the oracles must close (guarantee = 1) on the tiny
//! seeded families within the default node budget — the gate the workspace
//! oracle suite and the optgap study both stand on.

use bss_exact::{solve_bss, solve_seqdep, ExactConfig, ExactStatus};
use bss_instance::{Instance, InstanceBuilder, Variant};
use bss_rational::Rational;

const SEEDS: u64 = 200;

/// A hand-built oracle-gate cell: 12 jobs over 4 classes on 3 machines.
fn gate_cell() -> Instance {
    let mut b = InstanceBuilder::new(3);
    b.add_batch(7, &[3, 11, 5]);
    b.add_batch(4, &[8, 2, 6]);
    b.add_batch(9, &[1, 13, 4]);
    b.add_batch(2, &[10, 7, 5]);
    b.build().expect("valid by construction")
}

#[test]
fn bss_variants_close_on_tiny_seeds() {
    let cfg = ExactConfig::default();
    let inputs = || {
        (0..SEEDS)
            .map(|seed| (format!("seed {seed}"), bss_gen::tiny(seed)))
            .chain([("gate cell".to_string(), gate_cell())])
    };
    for variant in [
        Variant::Splittable,
        Variant::Preemptive,
        Variant::NonPreemptive,
    ] {
        for (input, inst) in inputs() {
            let ex = solve_bss(&inst, variant, &cfg).expect("tiny fits the size limits");
            assert_eq!(
                ex.status,
                ExactStatus::Closed,
                "{input} {variant:?} did not close: lower={:?} upper={:?} nodes={}",
                ex.lower,
                ex.upper,
                ex.nodes
            );
            assert_eq!(ex.guarantee(), Rational::ONE);
            let opt = ex.opt().expect("closed searches report OPT");
            assert_eq!(ex.schedule().makespan(), opt, "{input} {variant:?}");
            let violations = bss_schedule::validate(ex.schedule(), &inst, variant);
            assert!(violations.is_empty(), "{input} {variant:?}: {violations:?}");
        }
    }
}

#[test]
fn seqdep_closes_on_tiny_seeds() {
    let cfg = ExactConfig::default();
    for seed in 0..SEEDS {
        let sd = bss_gen::seqdep::tiny_seqdep(seed);
        let ex = solve_seqdep(&sd, &cfg).expect("tiny fits the size limits");
        assert_eq!(
            ex.status,
            ExactStatus::Closed,
            "seed {seed} did not close: lower={:?} upper={:?} nodes={}",
            ex.lower,
            ex.upper,
            ex.nodes
        );
        assert_eq!(ex.guarantee(), Rational::ONE);
    }
}

#[test]
fn variants_are_ordered_split_le_pmtn_le_nonp() {
    let cfg = ExactConfig::default();
    for seed in 0..SEEDS {
        let inst = bss_gen::tiny(seed);
        let split = solve_bss(&inst, Variant::Splittable, &cfg).unwrap();
        let pmtn = solve_bss(&inst, Variant::Preemptive, &cfg).unwrap();
        let nonp = solve_bss(&inst, Variant::NonPreemptive, &cfg).unwrap();
        if let (Some(s), Some(p), Some(n)) = (split.opt(), pmtn.opt(), nonp.opt()) {
            assert!(s <= p, "seed {seed}: OPT_split > OPT_pmtn");
            assert!(p <= n, "seed {seed}: OPT_pmtn > OPT_nonp");
        }
    }
}
