//! Degenerate and boundary coverage for the exact oracle surface: size
//! limits reject with the documented error payloads (not panics), trivial
//! single-class shapes close to hand-computed optima, and an exhausted node
//! budget degrades to a certified anytime sandwich — mirroring the
//! seqdep reduction's degenerate suite.

use bss_exact::{solve_bss, solve_seqdep, ExactConfig, ExactError, ExactStatus};
use bss_instance::{Instance, InstanceBuilder, Variant};
use bss_rational::Rational;
use bss_seqdep::SeqDepInstance;

/// One class with `jobs` unit jobs on `m` machines.
fn unit_class(m: usize, setup: u64, jobs: usize) -> Instance {
    let mut b = InstanceBuilder::new(m);
    b.add_batch(setup, &vec![1u64; jobs]);
    b.build().expect("valid by construction")
}

/// A uniform two-class seqdep instance small enough for the oracle.
fn small_seqdep(m: usize, c: usize) -> SeqDepInstance {
    let initial: Vec<u64> = (0..c).map(|i| 2 + i as u64).collect();
    let switch: Vec<Vec<u64>> = (0..c)
        .map(|i| {
            (0..c)
                .map(|j| if i == j { 0 } else { initial[j] })
                .collect()
        })
        .collect();
    let work: Vec<u64> = (0..c).map(|i| 5 + i as u64).collect();
    SeqDepInstance::new(m, initial, switch, work).expect("valid by construction")
}

#[test]
fn job_limit_rejects_with_exact_payload() {
    let inst = unit_class(2, 3, 21);
    let cfg = ExactConfig::default();
    for variant in Variant::ALL {
        assert_eq!(
            solve_bss(&inst, variant, &cfg).unwrap_err(),
            ExactError::TooManyJobs {
                actual: 21,
                limit: 20
            }
        );
    }
    // One fewer job fits the gate again.
    assert!(solve_bss(&unit_class(2, 3, 20), Variant::Splittable, &cfg).is_ok());
}

#[test]
fn machine_limit_rejects_with_exact_payload() {
    let inst = unit_class(6, 3, 2);
    let cfg = ExactConfig::default();
    assert_eq!(
        solve_bss(&inst, Variant::NonPreemptive, &cfg).unwrap_err(),
        ExactError::TooManyMachines {
            actual: 6,
            limit: 5
        }
    );
    assert_eq!(
        solve_seqdep(&small_seqdep(6, 2), &cfg).unwrap_err(),
        ExactError::TooManyMachines {
            actual: 6,
            limit: 5
        }
    );
}

#[test]
fn class_limit_rejects_with_exact_payload() {
    let mut b = InstanceBuilder::new(2);
    for i in 0..11u64 {
        b.add_batch(1 + i, &[1]);
    }
    let inst = b.build().expect("valid by construction");
    let cfg = ExactConfig::default();
    assert_eq!(
        solve_bss(&inst, Variant::Preemptive, &cfg).unwrap_err(),
        ExactError::TooManyClasses {
            actual: 11,
            limit: 10
        }
    );
    assert_eq!(
        solve_seqdep(&small_seqdep(2, 11), &cfg).unwrap_err(),
        ExactError::TooManyClasses {
            actual: 11,
            limit: 10
        }
    );
    // The limit check fires before any search: errors carry the *configured*
    // limit, so a tightened config reports itself.
    let tight = ExactConfig {
        max_classes: 3,
        ..ExactConfig::default()
    };
    assert_eq!(
        solve_seqdep(&small_seqdep(2, 4), &tight).unwrap_err(),
        ExactError::TooManyClasses {
            actual: 4,
            limit: 3
        }
    );
}

#[test]
fn single_class_optima_are_hand_computable() {
    // One class (setup 4, jobs [6]) on one machine: every variant pays
    // setup + work = 10.
    let mut b = InstanceBuilder::new(1);
    b.add_batch(4, &[6]);
    let inst = b.build().unwrap();
    let cfg = ExactConfig::default();
    for variant in Variant::ALL {
        let ex = solve_bss(&inst, variant, &cfg).unwrap();
        assert_eq!(ex.status, ExactStatus::Closed, "{variant}");
        assert_eq!(ex.opt(), Some(Rational::from(10u64)), "{variant}");
        assert_eq!(ex.guarantee(), Rational::ONE);
        assert!(bss_schedule::validate(ex.schedule(), &inst, variant).is_empty());
    }

    // One class (setup 3, jobs [5, 5]) on two machines: splitting the class
    // over both machines pays the setup twice — OPT = 3 + 5 = 8 for every
    // variant (each job is atomic anyway, so preemption buys nothing).
    let mut b = InstanceBuilder::new(2);
    b.add_batch(3, &[5, 5]);
    let inst = b.build().unwrap();
    for variant in Variant::ALL {
        let ex = solve_bss(&inst, variant, &cfg).unwrap();
        assert_eq!(ex.opt(), Some(Rational::from(8u64)), "{variant}");
    }

    // Same class on three machines: the third machine is dead weight (a
    // third setup never helps two jobs) — OPT stays 8 non-preemptively,
    // while the splittable relaxation spreads 10 units of work over three
    // setups: max(average (9+10)/3, spread 3 + 10/3) = 19/3.
    let mut b = InstanceBuilder::new(3);
    b.add_batch(3, &[5, 5]);
    let inst = b.build().unwrap();
    let ex = solve_bss(&inst, Variant::NonPreemptive, &cfg).unwrap();
    assert_eq!(ex.opt(), Some(Rational::from(8u64)));
    let ex = solve_bss(&inst, Variant::Splittable, &cfg).unwrap();
    assert_eq!(ex.opt(), Some(Rational::new(19, 3)));

    // Non-preemptive optima over small class mixes: (machines, [(setup,
    // jobs)], OPT).
    let cases = [
        // One machine: all work plus one setup per class, 3+4+5 + 2+6.
        (1, vec![(3, vec![4, 5]), (2, vec![6])], 20u64),
        // Two identical classes: one per machine.
        (2, vec![(2, vec![5]), (2, vec![5])], 7),
        // One class with two jobs: splitting pays the setup twice (12 each)
        // but beats stacking both jobs on one machine (14).
        (2, vec![(10, vec![2, 2])], 12),
        // Even with a huge setup, splitting (102 each) beats stacking (104).
        (2, vec![(100, vec![2, 2])], 102),
    ];
    for (m, classes, opt) in cases {
        let mut b = InstanceBuilder::new(m);
        for (setup, jobs) in &classes {
            b.add_batch(*setup, jobs);
        }
        let inst = b.build().unwrap();
        let ex = solve_bss(&inst, Variant::NonPreemptive, &cfg).unwrap();
        assert_eq!(ex.opt(), Some(Rational::from(opt)), "{classes:?} on {m}");
    }
}

#[test]
fn exhausted_budget_degrades_to_certified_sandwich() {
    // A shape the searches cannot close in one node: several classes of
    // uneven work on two machines.
    let mut b = InstanceBuilder::new(2);
    b.add_batch(5, &[3, 7]);
    b.add_batch(4, &[6, 2]);
    b.add_batch(7, &[1]);
    let inst = b.build().unwrap();
    let starved = ExactConfig {
        max_nodes: 1,
        ..ExactConfig::default()
    };
    let closed_cfg = ExactConfig::default();
    // Preemptive is excluded from the strict `Budget` claim: its oracle can
    // close by realizing the root lower bound before the first node is
    // spent, so a starved budget does not force degradation there (the
    // unconditional sandwich below still covers it).
    for variant in [Variant::Splittable, Variant::NonPreemptive] {
        let ex = solve_bss(&inst, variant, &starved).unwrap();
        assert_eq!(ex.status, ExactStatus::Budget, "{variant}");
        assert_eq!(ex.opt(), None, "a budgeted result must not claim OPT");
        assert!(ex.lower <= ex.upper, "{variant}");
        assert!(ex.guarantee() >= Rational::ONE, "{variant}");
        // The anytime incumbent is still a real schedule of this instance.
        assert!(
            bss_schedule::validate(ex.schedule(), &inst, variant).is_empty(),
            "{variant}"
        );
        assert_eq!(ex.schedule().makespan(), ex.upper, "{variant}");
        // The sandwich really contains OPT: close the same instance with
        // the default budget and check containment.
        let closed = solve_bss(&inst, variant, &closed_cfg).unwrap();
        let opt = closed.opt().expect("default budget closes this shape");
        assert!(ex.lower <= opt && opt <= ex.upper, "{variant}");
    }

    // Preemptive under starvation: whatever the status, the sandwich and
    // the incumbent's validity are unconditional.
    let ex = solve_bss(&inst, Variant::Preemptive, &starved).unwrap();
    assert!(ex.lower <= ex.upper);
    assert!(ex.guarantee() >= Rational::ONE);
    assert!(bss_schedule::validate(ex.schedule(), &inst, Variant::Preemptive).is_empty());
    assert_eq!(ex.schedule().makespan(), ex.upper);

    let sd = small_seqdep(2, 5);
    let ex = solve_seqdep(&sd, &starved).unwrap();
    assert_eq!(ex.status, ExactStatus::Budget);
    assert_eq!(ex.opt(), None);
    assert!(ex.lower <= ex.upper);
    let opt = solve_seqdep(&sd, &closed_cfg)
        .unwrap()
        .opt()
        .expect("default budget closes this shape");
    assert!(ex.lower <= opt && opt <= ex.upper);
}

#[test]
fn budget_reports_nodes_spent() {
    let inst = unit_class(2, 3, 4);
    let ex = solve_bss(&inst, Variant::NonPreemptive, &ExactConfig::default()).unwrap();
    assert!(ex.nodes > 0, "a real search spends nodes");
    assert!(
        ex.nodes <= ExactConfig::default().max_nodes,
        "closed searches stay within budget"
    );
}
