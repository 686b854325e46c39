//! `solve_library`: the paper's 3/2 algorithms in-process, no sockets. Each
//! caller runs `solve_with` on its own warm workspace over seeded 50k-job
//! instances, rotating through the three variants.

use std::hint::black_box;
use std::time::Instant;

use bss_core::{solve, solve_with, Algorithm, DualWorkspace, Solution};
use bss_instance::Instance;
use bss_schedule::validate;

use crate::measure::{closed_loop, median, mix, Certified, ROOT};
use crate::serve::{ns_per_job, side_probe_build, CALLERS, SOLVE_SPANS, VARIANTS, VARIANT_NAMES};
use crate::{repeated_setup, Args, Outcome, Replay};

const ALGO: Algorithm = Algorithm::ThreeHalves;

/// Instance shape: `uniform(50000, 2500, 32)`.
const JOBS: usize = 50_000;
const CLASSES: usize = 2_500;
const MACHINES: usize = 32;

/// Instances per caller. Operation `k` solves instance `k % POOL` under
/// variant `k % 3`, so the rotation repeats every `CYCLE` operations with
/// every variant in equal thirds.
const POOL: usize = 4;
const CYCLE: usize = 12;

/// Untimed operations per caller: one full rotation.
const WARMUP: usize = CYCLE;

/// Timed solves of the first caller after which peak memory is read.
const RSS_AFTER: usize = 400;

/// Replayed operations of the traced run.
const REPLAY: usize = 3 * CYCLE;

fn combo(k: usize) -> (usize, usize) {
    (k % POOL, k % VARIANTS.len())
}

struct LibraryCaller {
    ws: DualWorkspace,
    records: Vec<(usize, Certified, f64)>,
    /// The first timed rotation's solutions, validated after the run.
    retained: Vec<(usize, Solution)>,
}

pub fn run(args: &Args) -> Outcome {
    let seed = args.seed;
    let ((mut callers, pools), setup_s) = repeated_setup(
        || {
            let pools: Vec<Vec<Instance>> = (0..CALLERS)
                .map(|c| {
                    (0..POOL)
                        .map(|i| {
                            bss_gen::uniform(
                                JOBS,
                                CLASSES,
                                MACHINES,
                                mix(seed, 0x11b + c as u64, i as u64),
                            )
                        })
                        .collect()
                })
                .collect();
            // Workspace warm-up: one solve per variant.
            let callers: Vec<LibraryCaller> = pools
                .iter()
                .map(|pool| {
                    let mut ws = DualWorkspace::new();
                    for variant in VARIANTS {
                        black_box(solve_with(&mut ws, &pool[0], variant, ALGO));
                    }
                    LibraryCaller {
                        ws,
                        records: Vec::new(),
                        retained: Vec::new(),
                    }
                })
                .collect();
            (callers, pools)
        },
        drop,
    );

    let live = closed_loop(&mut callers, WARMUP, args.seconds, RSS_AFTER, |st, c, k| {
        let (i, v) = combo(k);
        let inst = &pools[c][i];
        let t0 = Instant::now();
        let sol = solve_with(&mut st.ws, inst, VARIANTS[v], ALGO);
        let latency = t0.elapsed();
        st.records
            .push((k, Certified::of(&sol), latency.as_secs_f64() * 1e3));
        if k >= WARMUP && st.retained.len() < CYCLE {
            st.retained.push((k, sol));
        }
        Ok(latency)
    });
    let mut outcome = Outcome {
        setup_s,
        live,
        ..Outcome::default()
    };

    // Correctness gate: every solve equals a solve on a fresh workspace, and
    // the first timed rotation's schedules are validated.
    let mismatches: Vec<Vec<String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = callers
            .iter()
            .zip(&pools)
            .enumerate()
            .map(|(c, (st, pool))| scope.spawn(move || check_caller(c, st, pool)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("checker thread"))
            .collect()
    });
    outcome.mismatches.extend(mismatches.into_iter().flatten());
    let checked: usize = callers.iter().map(|c| c.records.len()).sum();
    outcome.notes.push(format!(
        "correctness: {checked} solves compared with a fresh-workspace solve; \
         {} schedules validated",
        CALLERS * CYCLE
    ));

    let by_variant: Vec<String> = (0..VARIANTS.len())
        .map(|v| {
            let ms: Vec<f64> = callers
                .iter()
                .flat_map(|c| &c.records)
                .filter(|(k, _, _)| *k >= WARMUP && combo(*k).1 == v)
                .map(|r| r.2)
                .collect();
            format!("{} {:.3}", VARIANT_NAMES[v], median(&ms))
        })
        .collect();
    outcome.notes.push(format!(
        "latency p50 by variant (ms): {}",
        by_variant.join(", ")
    ));

    if args.trace {
        let pool = &pools[0];
        let mut probes = [Vec::new(), Vec::new(), Vec::new()];
        let replay = Replay::measure(false, REPLAY, DualWorkspace::new, |ws, op, tracer| {
            let (i, v) = combo(op);
            let inst = &pool[i];
            tracer.begin_op(op as u32);
            let t0 = Instant::now();
            let sol = tracer.span(ROOT, |t| {
                t.span(SOLVE_SPANS[v], |_| solve_with(ws, inst, VARIANTS[v], ALGO))
            });
            let wall = t0.elapsed().as_nanos() as u64;
            if tracer.is_on() {
                probes[v].push(sol.probes as f64);
                side_probe_build(tracer, ws, inst, VARIANTS[v], sol.accepted);
            }
            wall
        });
        for (v, p) in probes.iter().enumerate() {
            outcome.layers.insert(
                format!("core.probes_per_solve.{}", VARIANT_NAMES[v]),
                median(p),
            );
        }
        ns_per_job(&replay.tracer, JOBS, &mut outcome.layers);
        outcome.replay = Some(replay);
    }
    outcome
}

fn check_caller(c: usize, st: &LibraryCaller, pool: &[Instance]) -> Vec<String> {
    let mut out = Vec::new();
    let reference: Vec<Solution> = (0..CYCLE)
        .map(|k| {
            let (i, v) = combo(k);
            solve(&pool[i], VARIANTS[v], ALGO)
        })
        .collect();
    let expected: Vec<Certified> = reference.iter().map(Certified::of).collect();
    for (k, cert, _) in &st.records {
        if *cert != expected[k % CYCLE] {
            out.push(format!(
                "solve_library caller {c} solve {k}: warm workspace {cert:?}, fresh {:?}",
                expected[k % CYCLE]
            ));
        }
    }
    for (k, sol) in &st.retained {
        let (i, v) = combo(*k);
        let local = &reference[k % CYCLE];
        if sol.schedule() != local.schedule() {
            out.push(format!(
                "solve_library caller {c} solve {k}: schedule differs from a fresh solve"
            ));
        }
        let violations = validate(sol.schedule(), &pool[i], VARIANTS[v]);
        if !violations.is_empty() {
            out.push(format!(
                "solve_library caller {c} solve {k}: invalid schedule: {:?}",
                violations.first()
            ));
        }
    }
    out
}
