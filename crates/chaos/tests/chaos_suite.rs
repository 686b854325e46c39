//! The differential anytime-invariant suite.
//!
//! For every gate-sized instance, every variant and every search-bearing
//! algorithm, this suite injects each fault kind at a sweep of checkpoint
//! indices (every index under `BSS_CHAOS_EXHAUSTIVE=1`) and asserts the
//! workspace-wide invariant: **any interruption yields either a valid,
//! certified, validate-clean solution or a typed error — never an escaped
//! panic, never an invalid schedule, never a lying bound** — cross-checked
//! against the `bss-exact` oracle wherever it closes the instance.

use bss_budget::{Fault, FaultPlan, Interrupt, SolveBudget};
use bss_chaos::{
    assert_anytime_bss, assert_anytime_seqdep, assert_bit_identical, bss_checkpoints, bss_opt,
    case_seeds, gate_instances, gate_seqdep_instances, seqdep_checkpoints, seqdep_opt,
    sweep_indices, ALGORITHMS,
};
use bss_core::{
    solve, solve_problem, solve_seqdep, solve_with, Algorithm, BssProblem, CancelToken, Completion,
    DualWorkspace, SeqDepProblem, Solution, SolveError, SolveOptions,
};
use bss_instance::{Instance, Variant};
use bss_seqdep::SeqDepInstance;

/// A batch-setup solve under `budget` on `ws`.
fn budgeted_with(
    ws: &mut DualWorkspace,
    inst: &Instance,
    variant: Variant,
    algo: Algorithm,
    budget: &SolveBudget,
) -> Result<Solution, SolveError> {
    let opts = SolveOptions {
        budget: Some(budget),
        ..SolveOptions::default()
    };
    solve_problem(ws, &BssProblem::new(inst, variant), algo, &opts)
}

/// [`budgeted_with`] on a fresh workspace.
fn budgeted(
    inst: &Instance,
    variant: Variant,
    algo: Algorithm,
    budget: &SolveBudget,
) -> Result<Solution, SolveError> {
    budgeted_with(&mut DualWorkspace::new(), inst, variant, algo, budget)
}

/// A sequence-dependent solve under `budget`.
fn seqdep_budgeted(
    sd: &SeqDepInstance,
    algo: Algorithm,
    budget: &SolveBudget,
) -> Result<Solution, SolveError> {
    let opts = SolveOptions {
        budget: Some(budget),
        ..SolveOptions::default()
    };
    solve_problem(
        &mut DualWorkspace::new(),
        &SeqDepProblem::new(sd),
        algo,
        &opts,
    )
}

/// Runs `f` with panic messages silenced (the panic-injection sweeps would
/// otherwise spray hundreds of expected backtraces into the test log), then
/// restores the previous hook and re-raises any genuine failure.
fn with_silent_panics<R>(f: impl FnOnce() -> R) -> R {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    drop(std::panic::take_hook());
    std::panic::set_hook(prev);
    match out {
        Ok(r) => r,
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

#[test]
fn unlimited_budget_is_bit_identical_to_plain_solve() {
    for seed in 0..case_seeds() {
        for (name, inst) in gate_instances(seed) {
            for variant in Variant::ALL {
                for algo in ALGORITHMS {
                    let label = format!("{name}/{variant}/{algo:?}");
                    let plain = solve(&inst, variant, algo);
                    let budgeted = budgeted(&inst, variant, algo, &SolveBudget::unlimited())
                        .expect("unlimited budget cannot fail");
                    assert_eq!(budgeted.completion, Completion::Full, "{label}");
                    assert_bit_identical(&label, &budgeted, &plain);
                }
            }
        }
        for (name, sd) in gate_seqdep_instances(seed) {
            for algo in ALGORITHMS {
                let label = format!("{name}/{algo:?}");
                let plain = solve_seqdep(&sd, algo);
                let budgeted = seqdep_budgeted(&sd, algo, &SolveBudget::unlimited())
                    .expect("unlimited budget cannot fail");
                assert_eq!(budgeted.completion, Completion::Full, "{label}");
                assert_bit_identical(&label, &budgeted, &plain);
            }
        }
    }
}

#[test]
fn injected_cancel_at_swept_checkpoints_degrades_gracefully() {
    for seed in 0..case_seeds() {
        for (name, inst) in gate_instances(seed) {
            for variant in Variant::ALL {
                let opt = bss_opt(&inst, variant);
                for algo in ALGORITHMS {
                    let total = bss_checkpoints(&inst, variant, algo);
                    for k in sweep_indices(total) {
                        let label = format!("{name}/{variant}/{algo:?}/cancel@{k}");
                        let budget = SolveBudget::unlimited().with_fault(FaultPlan {
                            at: k,
                            fault: Fault::Cancel,
                        });
                        let sol = budgeted(&inst, variant, algo, &budget)
                            .expect("cancellation is not an error");
                        assert_eq!(sol.completion, Completion::Cancelled, "{label}");
                        assert_anytime_bss(&label, &inst, variant, &sol, opt);
                    }
                }
            }
        }
    }
}

#[test]
fn injected_deadline_at_swept_checkpoints_degrades_gracefully() {
    for seed in 0..case_seeds() {
        for (name, inst) in gate_instances(seed) {
            for variant in Variant::ALL {
                let opt = bss_opt(&inst, variant);
                for algo in ALGORITHMS {
                    let total = bss_checkpoints(&inst, variant, algo);
                    for k in sweep_indices(total) {
                        let label = format!("{name}/{variant}/{algo:?}/deadline@{k}");
                        let budget = SolveBudget::unlimited().with_fault(FaultPlan {
                            at: k,
                            fault: Fault::DeadlineExpiry,
                        });
                        let sol = budgeted(&inst, variant, algo, &budget)
                            .expect("deadline expiry is not an error");
                        assert_eq!(
                            sol.completion,
                            Completion::Degraded(Interrupt::Deadline),
                            "{label}"
                        );
                        assert_anytime_bss(&label, &inst, variant, &sol, opt);
                    }
                }
            }
        }
    }
}

#[test]
fn work_starvation_at_every_level_degrades_gracefully() {
    for seed in 0..case_seeds() {
        for (name, inst) in gate_instances(seed) {
            for variant in Variant::ALL {
                let opt = bss_opt(&inst, variant);
                for algo in ALGORITHMS {
                    let total = bss_checkpoints(&inst, variant, algo);
                    let mut levels: Vec<u64> = sweep_indices(total);
                    levels.push(0);
                    levels.push(total + 5);
                    for w in levels {
                        let label = format!("{name}/{variant}/{algo:?}/work={w}");
                        let budget = SolveBudget::unlimited().with_work_limit(w);
                        let sol = budgeted(&inst, variant, algo, &budget)
                            .expect("starvation is not an error");
                        if w > total {
                            // Budget to spare: completes fully and matches
                            // the plain solve bit for bit.
                            assert_eq!(sol.completion, Completion::Full, "{label}");
                            assert_bit_identical(&label, &sol, &solve(&inst, variant, algo));
                        } else if w == total {
                            // Boundary: every probe fit exactly, but the
                            // budget now reads as spent. Search-only
                            // algorithms still complete fully; the portfolio
                            // honestly skips its exact arm and reports the
                            // exhaustion instead of claiming a full solve.
                            if matches!(algo, bss_core::Algorithm::Portfolio) {
                                assert_eq!(
                                    sol.completion,
                                    Completion::Degraded(Interrupt::WorkExhausted),
                                    "{label}"
                                );
                            } else {
                                assert_eq!(sol.completion, Completion::Full, "{label}");
                                assert_bit_identical(&label, &sol, &solve(&inst, variant, algo));
                            }
                        } else {
                            assert_eq!(
                                sol.completion,
                                Completion::Degraded(Interrupt::WorkExhausted),
                                "{label}"
                            );
                        }
                        assert_anytime_bss(&label, &inst, variant, &sol, opt);
                    }
                }
            }
        }
    }
}

#[test]
fn injected_panic_is_isolated_and_workspace_heals() {
    with_silent_panics(|| {
        for seed in 0..case_seeds() {
            for (name, inst) in gate_instances(seed) {
                for variant in Variant::ALL {
                    for algo in ALGORITHMS {
                        let total = bss_checkpoints(&inst, variant, algo);
                        let baseline = solve(&inst, variant, algo);
                        let mut ws = DualWorkspace::new();
                        for k in sweep_indices(total) {
                            let label = format!("{name}/{variant}/{algo:?}/panic@{k}");
                            let budget = SolveBudget::unlimited().with_fault(FaultPlan {
                                at: k,
                                fault: Fault::Panic,
                            });
                            let err = budgeted_with(&mut ws, &inst, variant, algo, &budget)
                                .expect_err("injected panic must surface as an error");
                            match &err {
                                SolveError::Panicked { message } => assert!(
                                    message.contains("injected panic"),
                                    "{label}: unexpected message {message:?}"
                                ),
                                other => panic!("{label}: unexpected error {other:?}"),
                            }
                            // Workspace-poisoning regression: the aborted
                            // solve must leave no residue — the same
                            // workspace, reused, is bit-identical to fresh.
                            let healed = solve_with(&mut ws, &inst, variant, algo);
                            assert_bit_identical(&label, &healed, &baseline);
                        }
                    }
                }
            }
        }
    });
}

#[test]
fn seqdep_faults_at_swept_checkpoints_degrade_gracefully() {
    for seed in 0..case_seeds() {
        for (name, sd) in gate_seqdep_instances(seed) {
            let opt = seqdep_opt(&sd);
            for algo in ALGORITHMS {
                let total = seqdep_checkpoints(&sd, algo);
                for k in sweep_indices(total) {
                    for (fault, expect) in [
                        (Fault::Cancel, Completion::Cancelled),
                        (
                            Fault::DeadlineExpiry,
                            Completion::Degraded(Interrupt::Deadline),
                        ),
                    ] {
                        let label = format!("{name}/{algo:?}/{fault:?}@{k}");
                        let budget =
                            SolveBudget::unlimited().with_fault(FaultPlan { at: k, fault });
                        let sol = seqdep_budgeted(&sd, algo, &budget)
                            .expect("interruption is not an error");
                        assert_eq!(sol.completion, expect, "{label}");
                        assert_anytime_seqdep(&label, &sd, &sol, opt);
                    }
                }
                // Work starvation, including the zero-budget floor.
                for w in [0, 1, total / 2] {
                    let label = format!("{name}/{algo:?}/work={w}");
                    let budget = SolveBudget::unlimited().with_work_limit(w);
                    let sol =
                        seqdep_budgeted(&sd, algo, &budget).expect("starvation is not an error");
                    assert_anytime_seqdep(&label, &sd, &sol, opt);
                }
            }
        }
    }
}

#[test]
fn seqdep_injected_panic_is_isolated() {
    with_silent_panics(|| {
        for (name, sd) in gate_seqdep_instances(1) {
            for algo in ALGORITHMS {
                let total = seqdep_checkpoints(&sd, algo);
                for k in sweep_indices(total) {
                    let label = format!("{name}/{algo:?}/panic@{k}");
                    let budget = SolveBudget::unlimited().with_fault(FaultPlan {
                        at: k,
                        fault: Fault::Panic,
                    });
                    let err = seqdep_budgeted(&sd, algo, &budget)
                        .expect_err("injected panic must surface as an error");
                    assert!(
                        matches!(&err, SolveError::Panicked { message } if message.contains("injected panic")),
                        "{label}: unexpected error {err:?}"
                    );
                }
            }
        }
    });
}

#[test]
fn pre_cancelled_token_still_returns_a_valid_fallback() {
    let token = CancelToken::new();
    token.cancel();
    for (name, inst) in gate_instances(3) {
        for variant in Variant::ALL {
            let opt = bss_opt(&inst, variant);
            for algo in ALGORITHMS {
                let label = format!("{name}/{variant}/{algo:?}/pre-cancelled");
                let budget = SolveBudget::unlimited().with_cancel(&token);
                let sol =
                    budgeted(&inst, variant, algo, &budget).expect("cancellation is not an error");
                assert_eq!(sol.completion, Completion::Cancelled, "{label}");
                assert_anytime_bss(&label, &inst, variant, &sol, opt);
            }
        }
    }
}
