//! `online_resolve`: each caller drives one `bss-serve` session over its own
//! seeded 50k-job online trace. An operation is one `delta` plus one
//! `resolve`: the frames are tiny, so the cost is the session's
//! materialize, the warm ε-search and the cache insert.

use std::hint::black_box;
use std::time::Instant;

use bss_core::{solve, solve_warm, Algorithm, WarmStart};
use bss_gen::online::{OnlineSpec, OnlineTrace};
use bss_gen::FamilySpec;
use bss_instance::{IncrementalInstance, Variant};
use bss_json::ParseLimits;
use bss_serve::{Client, Request, Response, ServeConfig, SessionAck, SolveCache, WireSolution};

use crate::measure::{closed_loop, median, mix, Certified, Failure, Tracer, ROOT};
use crate::serve::{
    connect, outcome_of, server_stats, spawn_server, stats_metrics, stop, CACHE_CAPACITY, CALLERS,
};
use crate::{repeated_setup, Args, Outcome, Replay};

const VARIANT: Variant = Variant::NonPreemptive;
const ALGO: Algorithm = Algorithm::EpsilonSearch { eps_log2: 10 };

/// Base instance of every trace: `uniform(50000, 2500, 32)`.
const JOBS: usize = 50_000;
const CLASSES: usize = 2_500;
const MACHINES: usize = 32;

/// Untimed events per caller: the first resolve is cold, and the shared
/// cache fills and starts evicting.
const WARMUP: usize = 24;

/// Timed events of the first caller after which peak memory is read.
const RSS_AFTER: usize = 300;

/// Trace events per caller and timed second (a run that outruns its trace
/// reports the missing events as failures).
const EVENTS_PER_S: f64 = 200.0;

/// Timed events per caller whose resolve is checked against a cold solve.
const SAMPLES: usize = 6;

/// Replayed events of the traced run (after one untimed cold resolve).
const REPLAY: usize = 60;

fn trace_for(seed: u64, caller: usize, events: usize) -> OnlineTrace {
    let base = FamilySpec::Uniform {
        jobs: JOBS,
        classes: CLASSES,
        machines: MACHINES,
        seed: mix(seed, 0x0b5e, caller as u64),
    };
    OnlineSpec::poisson_like(base, events, mix(seed, 0x0e7e, caller as u64)).build()
}

struct EventRecord {
    k: usize,
    ack: SessionAck,
    cert: Certified,
}

struct SessionCaller {
    client: Client,
    records: Vec<EventRecord>,
    solved: u64,
}

pub fn run(args: &Args) -> Outcome {
    let seed = args.seed;
    let events = WARMUP + (args.seconds * EVENTS_PER_S) as usize;
    let ((server, mut callers, traces), setup_s) = repeated_setup(
        || {
            let traces: Vec<OnlineTrace> =
                (0..CALLERS).map(|c| trace_for(seed, c, events)).collect();
            let server = spawn_server();
            let callers: Vec<SessionCaller> = traces
                .iter()
                .map(|trace| {
                    let mut client = connect(&server);
                    client
                        .session(&trace.base, VARIANT, ALGO)
                        .expect("upload the session's base instance");
                    SessionCaller {
                        client,
                        records: Vec::new(),
                        solved: 0,
                    }
                })
                .collect();
            (server, callers, traces)
        },
        |(server, callers, _)| stop(server, callers.into_iter().map(|c| c.client).collect()),
    );

    let live = closed_loop(&mut callers, WARMUP, args.seconds, RSS_AFTER, |st, c, k| {
        let delta = traces[c].events.get(k).ok_or(Failure::Client)?.delta;
        let t0 = Instant::now();
        let ack = st.client.delta(delta).map_err(|e| Failure::of_client(&e))?;
        let out = st.client.resolve(false);
        let latency = t0.elapsed();
        let solution = outcome_of(out)?;
        st.solved += 1;
        st.records.push(EventRecord {
            k,
            ack,
            cert: Certified::of_wire(&solution),
        });
        Ok(latency)
    });
    let mut outcome = Outcome {
        setup_s,
        ..Outcome::default()
    };
    let client_solved = callers.iter().map(|c| c.solved).sum();
    let stats = server_stats(&mut callers[0].client, client_solved, &mut outcome);
    outcome.live = live;

    // Correctness gate: every acknowledged state against a local replay of
    // the trace; sampled resolves against a cold solve of that state.
    let mismatches: Vec<Vec<String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = callers
            .iter()
            .zip(&traces)
            .enumerate()
            .map(|(c, (st, trace))| scope.spawn(move || check_caller(c, st, trace)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("checker thread"))
            .collect()
    });
    outcome.mismatches.extend(mismatches.into_iter().flatten());
    let checked: usize = callers.iter().map(|c| c.records.len()).sum();
    outcome.notes.push(format!(
        "correctness: {checked} session states compared with a local replay; \
         {} resolves per caller compared with a cold solve",
        SAMPLES + 1
    ));

    if args.trace {
        if let Some(stats) = &stats {
            stats_metrics(stats, &mut outcome.layers);
        }
        // The live sessions' cached states are no longer needed.
        stop(server, callers.into_iter().map(|c| c.client).collect());
        let mut warm = (Vec::new(), 0usize, 0usize);
        let replay = Replay::measure(
            true,
            REPLAY,
            || EventReplay::new(&traces[0]),
            |state, i, tracer| state.step(i, tracer, &mut warm),
        );
        let (probes, skipped) = (warm.1 as f64, warm.2 as f64);
        outcome
            .layers
            .insert("core.warm_probes_per_event".into(), median(&warm.0));
        outcome
            .layers
            .insert("core.warm_skip_ratio".into(), skipped / (skipped + probes));
        outcome.replay = Some(replay);
    } else {
        stop(server, callers.into_iter().map(|c| c.client).collect());
    }
    outcome
}

fn check_caller(c: usize, st: &SessionCaller, trace: &OnlineTrace) -> Vec<String> {
    let mut out = Vec::new();
    let mut inc = IncrementalInstance::new(&trace.base);
    let mut applied = 0;
    let timed: Vec<usize> = (0..st.records.len())
        .filter(|&i| st.records[i].k >= WARMUP)
        .collect();
    let stride = (timed.len() / SAMPLES).max(1);
    let mut sampled: Vec<usize> = timed
        .iter()
        .step_by(stride)
        .take(SAMPLES)
        .copied()
        .collect();
    sampled.push(0);
    for (i, rec) in st.records.iter().enumerate() {
        while applied <= rec.k {
            inc.apply(trace.events[applied].delta)
                .expect("generated traces replay cleanly");
            applied += 1;
        }
        let what = format!("online_resolve caller {c} event {}", rec.k);
        if rec.ack.jobs != inc.num_jobs() as u64 || rec.ack.content_hash != inc.content_hash() {
            out.push(format!(
                "{what}: session state differs from the local replay"
            ));
        }
        if sampled.contains(&i) {
            let cold = Certified::of(&solve(&inc.materialize(), VARIANT, ALGO));
            if !cold.same_but_probes(&rec.cert) {
                out.push(format!(
                    "{what}: served {:?}, cold solve {cold:?}",
                    rec.cert
                ));
            }
        }
    }
    out
}

/// The replay state of one session: the server-side incremental instance,
/// its warm-start hint and the cache.
struct EventReplay<'a> {
    trace: &'a OnlineTrace,
    inc: IncrementalInstance,
    cache: SolveCache,
    prev: Option<(WarmStart, u64)>,
}

impl<'a> EventReplay<'a> {
    fn new(trace: &'a OnlineTrace) -> Self {
        EventReplay {
            trace,
            inc: IncrementalInstance::new(&trace.base),
            cache: SolveCache::new(CACHE_CAPACITY),
            prev: None,
        }
    }

    /// Replays event `i` in-process, in the server's order — for the
    /// delta: client encode, parse, decode, apply, hash, reply encode,
    /// client decode; for the resolve: client encode, parse, decode, hash,
    /// materialize, cache lookup, warm solve and cache insert on a miss,
    /// wire conversion, reply encode, client decode. Events must be
    /// replayed in order. Returns the event's wall time, ns; `warm`
    /// collects the warm searches' probe counts when tracing.
    fn step(&mut self, i: usize, tracer: &mut Tracer, warm: &mut (Vec<f64>, usize, usize)) -> u64 {
        let limits = ParseLimits {
            max_bytes: ServeConfig::default().max_frame_bytes,
            max_depth: ServeConfig::default().max_json_depth,
        };
        let EventReplay {
            trace,
            inc,
            cache,
            prev,
        } = self;
        let event = trace.events[i];
        let id = 2 * i as u64 + 1;
        tracer.begin_op(i as u32);
        let t0 = Instant::now();
        let stats = tracer.span(ROOT, |t| {
            // The delta.
            let text = t.span("client.encode", |_| {
                bss_json::encode_pretty(&Request::Delta {
                    id,
                    delta: event.delta,
                })
            });
            let value = t
                .span("json.parse", |_| {
                    bss_json::parse_with_limits(&text, &limits)
                })
                .expect("a well-formed request");
            let Ok(Request::Delta { delta, .. }) =
                t.span("protocol.decode", |_| Request::decode(&value))
            else {
                unreachable!("a delta request decodes as one")
            };
            t.span("instance.apply", |_| inc.apply(delta))
                .expect("generated traces replay cleanly");
            let content_hash = t.span("instance.hash", |_| inc.content_hash());
            let ack = t.span("json.encode", |_| {
                bss_json::encode_pretty(&Response::Session {
                    id,
                    jobs: inc.num_jobs() as u64,
                    content_hash,
                })
            });
            black_box(
                t.span("client.decode", |_| bss_json::decode::<Response>(&ack))
                    .expect("a well-formed response"),
            );

            // The resolve.
            let text = t.span("client.encode", |_| {
                bss_json::encode_pretty(&Request::Resolve {
                    id: id + 1,
                    want_schedule: false,
                })
            });
            let value = t
                .span("json.parse", |_| {
                    bss_json::parse_with_limits(&text, &limits)
                })
                .expect("a well-formed request");
            let Ok(Request::Resolve { want_schedule, .. }) =
                t.span("protocol.decode", |_| Request::decode(&value))
            else {
                unreachable!("a resolve request decodes as one")
            };
            let (hash, load) = t.span("instance.hash", |_| {
                (inc.content_hash(), inc.total_load_once())
            });
            let instance = t.span("instance.materialize", |_| inc.materialize());
            let hit = t.span("cache.lookup", |_| {
                cache.lookup(hash, &instance, VARIANT, ALGO)
            });
            // A reveal that restores a job's time revisits a state: the
            // server answers it from the cache and only refreshes the hint.
            let (cached, sol, stats) = match hit {
                Some(sol) => (true, sol, None),
                None => {
                    let (sol, stats) = t.span("core.warm_solve", |_| match prev.take() {
                        Some((hint, prev_load)) => {
                            let hint = hint.widen_by_load_shift(
                                u128::from(prev_load),
                                u128::from(load),
                                instance.machines(),
                            );
                            let (sol, stats) = solve_warm(&instance, VARIANT, ALGO, &hint);
                            (sol, Some(stats))
                        }
                        None => (solve(&instance, VARIANT, ALGO), None),
                    });
                    let sol = std::sync::Arc::new(sol);
                    t.span("cache.insert", |_| {
                        cache.insert(hash, &instance, VARIANT, ALGO, &sol)
                    });
                    (false, sol, stats)
                }
            };
            *prev = Some((WarmStart::of(&sol), load));
            let solution = t.span("protocol.wire", |_| WireSolution::of(&sol, want_schedule));
            let reply = t.span("json.encode", |_| {
                bss_json::encode_pretty(&Response::Solved {
                    id: id + 1,
                    cached,
                    solution,
                })
            });
            black_box(
                t.span("client.decode", |_| bss_json::decode::<Response>(&reply))
                    .expect("a well-formed response"),
            );
            stats
        });
        let wall = t0.elapsed().as_nanos() as u64;
        if let (true, Some(stats)) = (tracer.is_on(), stats) {
            warm.0.push(stats.probes as f64);
            warm.1 += stats.probes;
            warm.2 += stats.skipped;
        }
        wall
    }
}
