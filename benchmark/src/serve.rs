//! The two service workloads, both against an in-process `bss-serve`
//! daemon on a loopback socket:
//!
//! * `serve_schedule` — every request a distinct instance, schedule
//!   requested: the queue, the dispatcher, the pool, cache misses and
//!   inserts, and the reply path.
//! * `serve_hot` — a pre-warmed hot set, no schedule: the cache-hit read
//!   path (parse, decode, hash, lookup with full equality check).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use bss_core::{solve, solve_with, Algorithm, BssProblem, DualWorkspace, Problem, Trace};
use bss_instance::{Instance, Variant};
use bss_json::ParseLimits;
use bss_par::{SolveItem, SolvePool};
use bss_schedule::{validate, Schedule};
use bss_serve::protocol::SolveRequest;
use bss_serve::{
    spawn, Client, Request, Response, ServeConfig, ServerHandle, ServerStats, SolveCache,
    SolveOptions, SolveOutcome, WireSolution,
};

use crate::measure::{
    closed_loop, median, mix, schedule_digest, Certified, Failure, Tracer, ROOT, SIDE,
};
use crate::{repeated_setup, Args, Outcome, Replay};

/// Closed-loop callers per workload (the host has two CPUs).
pub const CALLERS: usize = 2;

/// Solve-cache entries of the benchmark's server: room for the hot set,
/// small enough that the distinct-instance workloads reach steady-state
/// eviction during warm-up and cached 50k-job states stay within memory.
pub const CACHE_CAPACITY: usize = 32;

pub const VARIANTS: [Variant; 3] = [
    Variant::NonPreemptive,
    Variant::Preemptive,
    Variant::Splittable,
];

/// Metric-name spelling of each variant, indexed like [`VARIANTS`].
pub const VARIANT_NAMES: [&str; 3] = ["non_preemptive", "preemptive", "splittable"];

/// Span names of the per-variant solver layers, indexed like [`VARIANTS`].
pub const SOLVE_SPANS: [&str; 3] = [
    "core.solve.non_preemptive",
    "core.solve.preemptive",
    "core.solve.splittable",
];
const PROBE_SPANS: [&str; 3] = [
    "core.probe.non_preemptive",
    "core.probe.preemptive",
    "core.probe.splittable",
];
const BUILD_SPANS: [&str; 3] = [
    "core.build.non_preemptive",
    "core.build.preemptive",
    "core.build.splittable",
];

pub fn variant_index(v: Variant) -> usize {
    VARIANTS
        .iter()
        .position(|&x| x == v)
        .expect("a known variant")
}

/// Request shape of `serve_schedule`: `uniform(2000, 120, 16)`. The hot set
/// spreads its sizes around it (see [`hot_set`]).
const JOBS: usize = 2_000;
const CLASSES: usize = 120;
const MACHINES: usize = 16;
const ALGO: Algorithm = Algorithm::ThreeHalves;

/// Distinct instances of the hot set, sized `1000, 1125, …, 2875` jobs.
const HOT_SET: usize = 16;

/// Untimed operations per caller before the timed phase: enough for
/// `serve_schedule` to fill the cache and start evicting.
const SCHEDULE_WARMUP: usize = 40;
const HOT_WARMUP: usize = 200;

/// Timed operations of the first caller after which peak memory is read.
const SCHEDULE_RSS_AFTER: usize = 300;
const HOT_RSS_AFTER: usize = 2000;

/// Pre-generated requests per caller and timed second; later requests are
/// generated on the fly.
const SCHEDULE_POOL_PER_S: f64 = 60.0;

/// Every how many requests a served schedule is kept and validated directly
/// (all others are checked through their digest).
const RETAIN_EVERY: usize = 16;

/// Replayed operations of the traced run.
const SCHEDULE_REPLAY: usize = 60;
const HOT_REPLAY: usize = 400;

pub fn spawn_server() -> ServerHandle {
    spawn(ServeConfig {
        cache_capacity: CACHE_CAPACITY,
        ..ServeConfig::default()
    })
    .expect("bind a loopback port for the benchmark server")
}

pub fn connect(server: &ServerHandle) -> Client {
    Client::connect(server.addr()).expect("connect to the benchmark server")
}

/// Stops a server once every client has hung up.
pub fn stop(server: ServerHandle, clients: Vec<Client>) {
    drop(clients);
    server.shutdown();
}

/// The server's counters, plus the check that every reply a client saw as
/// solved is either a server solve or a cache hit.
pub fn server_stats(
    client: &mut Client,
    client_solved: u64,
    outcome: &mut Outcome,
) -> Option<ServerStats> {
    let stats = match client.stats() {
        Ok(s) => s,
        Err(e) => {
            outcome
                .mismatches
                .push(format!("stats request failed: {e}"));
            return None;
        }
    };
    outcome.notes.push(format!(
        "server stats: solved {}, shed {}, errors {}, cache hits {}, misses {}, evictions {}, \
         collisions {}, resident {}, workers {}; client-side solved {client_solved}",
        stats.solved,
        stats.shed,
        stats.errors,
        stats.cache.hits,
        stats.cache.misses,
        stats.cache.evictions,
        stats.cache.collisions,
        stats.cache.len,
        stats.workers,
    ));
    if client_solved != stats.solved + stats.cache.hits {
        outcome.mismatches.push(format!(
            "client saw {client_solved} solved replies, server reports {} solved + {} cache hits",
            stats.solved, stats.cache.hits
        ));
    }
    Some(stats)
}

/// The server counters as layer metrics.
pub fn stats_metrics(stats: &ServerStats, out: &mut BTreeMap<String, f64>) {
    let lookups = stats.cache.hits + stats.cache.misses;
    for (name, value) in [
        ("server.solved", stats.solved as f64),
        ("server.shed", stats.shed as f64),
        ("server.errors", stats.errors as f64),
        ("cache.hits", stats.cache.hits as f64),
        ("cache.misses", stats.cache.misses as f64),
        ("cache.evictions", stats.cache.evictions as f64),
        ("cache.collisions", stats.cache.collisions as f64),
        ("cache.resident", stats.cache.len as f64),
        (
            "cache.hit_ratio",
            if lookups == 0 {
                0.0
            } else {
                stats.cache.hits as f64 / lookups as f64
            },
        ),
    ] {
        out.insert(name.into(), value);
    }
}

/// The solution of a solve or resolve reply, or why there is none.
pub fn outcome_of(
    out: Result<SolveOutcome, bss_serve::ClientError>,
) -> Result<WireSolution, Failure> {
    match out {
        Ok(SolveOutcome::Solved { solution, .. }) => Ok(solution),
        Ok(SolveOutcome::Shed { .. }) => Err(Failure::Shed),
        Err(e) => Err(Failure::of_client(&e)),
    }
}

// ---------------------------------------------------------------------------
// serve_schedule
// ---------------------------------------------------------------------------

fn schedule_instance(seed: u64, caller: usize, k: usize) -> Instance {
    bss_gen::uniform(
        JOBS,
        CLASSES,
        MACHINES,
        mix(seed, caller as u64 + 1, k as u64),
    )
}

fn schedule_variant(caller: usize, k: usize) -> Variant {
    VARIANTS[(k + caller) % VARIANTS.len()]
}

/// Request `k` of `caller`: from the pre-generated pool while it lasts.
fn schedule_request(
    pool: &[Instance],
    seed: u64,
    caller: usize,
    k: usize,
) -> std::borrow::Cow<'_, Instance> {
    match pool.get(k) {
        Some(inst) => std::borrow::Cow::Borrowed(inst),
        None => std::borrow::Cow::Owned(schedule_instance(seed, caller, k)),
    }
}

struct ScheduleRecord {
    k: usize,
    cert: Certified,
    digest: Option<u64>,
}

struct ScheduleCaller {
    client: Client,
    records: Vec<ScheduleRecord>,
    retained: BTreeMap<usize, Schedule>,
    solved: u64,
}

pub fn run_schedule(args: &Args) -> Outcome {
    let seed = args.seed;
    let pool_len = SCHEDULE_WARMUP + (args.seconds * SCHEDULE_POOL_PER_S) as usize;
    let ((server, mut callers, pools), setup_s) = repeated_setup(
        || {
            let server = spawn_server();
            let callers: Vec<ScheduleCaller> = (0..CALLERS)
                .map(|_| ScheduleCaller {
                    client: connect(&server),
                    records: Vec::new(),
                    retained: BTreeMap::new(),
                    solved: 0,
                })
                .collect();
            let pools: Vec<Vec<Instance>> = (0..CALLERS)
                .map(|c| {
                    (0..pool_len)
                        .map(|k| schedule_instance(seed, c, k))
                        .collect()
                })
                .collect();
            (server, callers, pools)
        },
        |(server, callers, _)| stop(server, callers.into_iter().map(|c| c.client).collect()),
    );

    let live = closed_loop(
        &mut callers,
        SCHEDULE_WARMUP,
        args.seconds,
        SCHEDULE_RSS_AFTER,
        |st, c, k| {
            let inst = schedule_request(&pools[c], seed, c, k);
            let opts = SolveOptions {
                want_schedule: true,
                ..SolveOptions::default()
            };
            let t0 = Instant::now();
            let out = st.client.solve(&inst, schedule_variant(c, k), ALGO, opts);
            let latency = t0.elapsed();
            let solution = outcome_of(out)?;
            st.solved += 1;
            st.records.push(ScheduleRecord {
                k,
                cert: Certified::of_wire(&solution),
                digest: solution.schedule.as_ref().map(schedule_digest),
            });
            if k % RETAIN_EVERY == 0 {
                if let Some(s) = solution.schedule {
                    st.retained.insert(k, s);
                }
            }
            Ok(latency)
        },
    );
    let mut outcome = Outcome {
        setup_s,
        ..Outcome::default()
    };
    let client_solved = callers.iter().map(|c| c.solved).sum();
    let stats = server_stats(&mut callers[0].client, client_solved, &mut outcome);
    outcome.live = live;

    // Correctness gate, outside the timed window: every reply against a
    // local solve of the same request, every schedule validated.
    let mismatches: Vec<Vec<String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = callers
            .iter()
            .enumerate()
            .map(|(c, st)| {
                let pool = &pools[c];
                scope.spawn(move || check_schedule_caller(pool, seed, c, st))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("checker thread"))
            .collect()
    });
    outcome.mismatches.extend(mismatches.into_iter().flatten());
    let checked: usize = callers.iter().map(|c| c.records.len()).sum();
    let retained: usize = callers.iter().map(|c| c.retained.len()).sum();
    outcome.notes.push(format!(
        "correctness: {checked} replies compared with a local solve and their schedules validated \
         by digest; {retained} served schedules validated directly"
    ));

    if args.trace {
        if let Some(stats) = &stats {
            stats_metrics(stats, &mut outcome.layers);
        }
        let ops: Vec<(Instance, Variant)> = (0..SCHEDULE_REPLAY)
            .map(|i| {
                let (c, k) = (i % CALLERS, SCHEDULE_WARMUP + i / CALLERS);
                (
                    schedule_request(&pools[c], seed, c, k).into_owned(),
                    schedule_variant(c, k),
                )
            })
            .collect();
        let mut side = SideMetrics::default();
        let replay = Replay::measure(
            true,
            ops.len(),
            || RequestReplay::new(SolveCache::new(CACHE_CAPACITY)),
            |state, i, tracer| state.step(i, &ops[i], true, tracer, &mut side),
        );
        side.finish(&mut outcome.layers);
        ns_per_job(&replay.tracer, JOBS, &mut outcome.layers);
        outcome.replay = Some(replay);
    }
    stop(server, callers.into_iter().map(|c| c.client).collect());
    outcome
}

fn check_schedule_caller(
    pool: &[Instance],
    seed: u64,
    c: usize,
    st: &ScheduleCaller,
) -> Vec<String> {
    let mut out = Vec::new();
    for rec in &st.records {
        let inst = schedule_request(pool, seed, c, rec.k);
        let variant = schedule_variant(c, rec.k);
        let local = solve(&inst, variant, ALGO);
        let what = format!("serve_schedule caller {c} request {k}", k = rec.k);
        if Certified::of(&local) != rec.cert {
            out.push(format!(
                "{what}: served {:?}, local {:?}",
                rec.cert,
                Certified::of(&local)
            ));
        }
        let schedule = local.schedule();
        if rec.digest != Some(schedule_digest(schedule)) {
            out.push(format!(
                "{what}: served schedule differs from the local one"
            ));
        }
        let violations = validate(schedule, &inst, variant);
        if !violations.is_empty() {
            out.push(format!(
                "{what}: local schedule invalid: {:?}",
                violations.first()
            ));
        }
        if let Some(served) = st.retained.get(&rec.k) {
            if !validate(served, &inst, variant).is_empty() || served != schedule {
                out.push(format!("{what}: served schedule fails validation"));
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// serve_hot
// ---------------------------------------------------------------------------

fn hot_set(seed: u64) -> Vec<(Instance, Variant)> {
    (0..HOT_SET)
        .map(|i| {
            // Sizes spread evenly around the request shape, so that the
            // latency distribution has no gaps for the median to fall into.
            let jobs = JOBS / 2 + i * JOBS / HOT_SET;
            let inst = bss_gen::uniform(
                jobs,
                jobs * CLASSES / JOBS,
                MACHINES,
                mix(seed, 0x407, i as u64),
            );
            (inst, VARIANTS[i % VARIANTS.len()])
        })
        .collect()
}

fn hot_index(seed: u64, caller: usize, k: usize) -> usize {
    (mix(seed, 0x408 + caller as u64, k as u64) % HOT_SET as u64) as usize
}

struct HotCaller {
    client: Client,
    records: Vec<(usize, Certified)>,
    solved: u64,
}

pub fn run_hot(args: &Args) -> Outcome {
    let seed = args.seed;
    let ((server, mut callers, hot), setup_s) = repeated_setup(
        || {
            let server = spawn_server();
            let mut callers: Vec<HotCaller> = (0..CALLERS)
                .map(|_| HotCaller {
                    client: connect(&server),
                    records: Vec::new(),
                    solved: 0,
                })
                .collect();
            let hot = hot_set(seed);
            // Cache warm-up: one cold solve per hot instance.
            let first = &mut callers[0];
            for (i, (inst, variant)) in hot.iter().enumerate() {
                let out = first
                    .client
                    .solve(inst, *variant, ALGO, SolveOptions::default());
                if let Ok(solution) = outcome_of(out) {
                    first.solved += 1;
                    first.records.push((i, Certified::of_wire(&solution)));
                }
            }
            (server, callers, hot)
        },
        |(server, callers, _)| stop(server, callers.into_iter().map(|c| c.client).collect()),
    );

    let live = closed_loop(
        &mut callers,
        HOT_WARMUP,
        args.seconds,
        HOT_RSS_AFTER,
        |st, c, k| {
            let i = hot_index(seed, c, k);
            let (inst, variant) = &hot[i];
            let t0 = Instant::now();
            let out = st
                .client
                .solve(inst, *variant, ALGO, SolveOptions::default());
            let latency = t0.elapsed();
            let solution = outcome_of(out)?;
            st.solved += 1;
            st.records.push((i, Certified::of_wire(&solution)));
            Ok(latency)
        },
    );
    let mut outcome = Outcome {
        setup_s,
        ..Outcome::default()
    };
    let client_solved = callers.iter().map(|c| c.solved).sum();
    let stats = server_stats(&mut callers[0].client, client_solved, &mut outcome);
    outcome.live = live;

    // Correctness gate: every reply equals a local solve of its instance.
    let solutions: Vec<_> = hot
        .iter()
        .map(|(inst, v)| Arc::new(solve(inst, *v, ALGO)))
        .collect();
    let expected: Vec<Certified> = solutions.iter().map(|s| Certified::of(s)).collect();
    let mut checked = 0usize;
    for (c, st) in callers.iter().enumerate() {
        for (n, (i, cert)) in st.records.iter().enumerate() {
            checked += 1;
            if *cert != expected[*i] {
                outcome.mismatches.push(format!(
                    "serve_hot caller {c} reply {n} (instance {i}): served {cert:?}, local {:?}",
                    expected[*i]
                ));
            }
        }
    }
    outcome.notes.push(format!(
        "correctness: {checked} replies compared with a local solve of their instance"
    ));

    if args.trace {
        if let Some(stats) = &stats {
            stats_metrics(stats, &mut outcome.layers);
        }
        let ops: Vec<(Instance, Variant)> = (0..HOT_REPLAY)
            .map(|i| hot[hot_index(seed, i % CALLERS, HOT_WARMUP + i / CALLERS)].clone())
            .collect();
        let mut side = SideMetrics::default();
        let replay = Replay::measure(
            true,
            ops.len(),
            || {
                let mut cache = SolveCache::new(CACHE_CAPACITY);
                for ((inst, variant), sol) in hot.iter().zip(&solutions) {
                    cache.insert(inst.content_hash(), inst, *variant, ALGO, sol);
                }
                RequestReplay::new(cache)
            },
            |state, i, tracer| state.step(i, &ops[i], false, tracer, &mut side),
        );
        side.finish(&mut outcome.layers);
        outcome.replay = Some(replay);
    }
    stop(server, callers.into_iter().map(|c| c.client).collect());
    outcome
}

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

/// Non-time figures gathered alongside the replay's spans.
#[derive(Default)]
pub struct SideMetrics {
    request_bytes: Vec<f64>,
    response_bytes: Vec<f64>,
    probes: [Vec<f64>; 3],
    /// Per missed request: standalone solve time over pool batch time.
    efficiency: Vec<f64>,
}

impl SideMetrics {
    fn finish(&self, out: &mut BTreeMap<String, f64>) {
        out.insert("json.request_bytes".into(), median(&self.request_bytes));
        out.insert("json.response_bytes".into(), median(&self.response_bytes));
        if !self.efficiency.is_empty() {
            out.insert("par.efficiency".into(), median(&self.efficiency));
        }
        for (v, probes) in self.probes.iter().enumerate() {
            if !probes.is_empty() {
                out.insert(
                    format!("core.probes_per_solve.{}", VARIANT_NAMES[v]),
                    median(probes),
                );
            }
        }
    }
}

/// Per-job cost of each variant's solve, from the replay's solve spans.
pub fn ns_per_job(tracer: &Tracer, jobs: usize, out: &mut BTreeMap<String, f64>) {
    let layers = tracer.self_times_by_layer();
    for (v, span) in SOLVE_SPANS.iter().enumerate() {
        if let Some(per_op) = layers.get(span) {
            let ns: Vec<f64> = per_op.iter().map(|&ns| ns as f64).collect();
            out.insert(
                format!("core.ns_per_job.{}", VARIANT_NAMES[v]),
                median(&ns) / jobs as f64,
            );
        }
    }
}

/// Probe and build at a solve's accepted guess, each timed on its own
/// (traced runs only; the live operation makes neither call separately).
pub fn side_probe_build(
    tracer: &mut Tracer,
    ws: &mut DualWorkspace,
    inst: &Instance,
    variant: Variant,
    accepted: bss_rational::Rational,
) {
    let v = variant_index(variant);
    let problem = BssProblem::new(inst, variant);
    tracer.span(SIDE, |t| {
        let accepts = t.span(PROBE_SPANS[v], |_| problem.probe(ws, accepted));
        assert!(accepts, "the accepted guess is accepted again");
        let built = t.span(BUILD_SPANS[v], |_| {
            problem.build(ws, accepted, &mut Trace::disabled())
        });
        black_box(built.expect("the accepted guess builds"));
    });
}

/// The replay state of one solve-request stream: the server's cache, pool
/// and a workspace for the side measurements.
struct RequestReplay {
    cache: SolveCache,
    pool: SolvePool,
    ws: DualWorkspace,
}

impl RequestReplay {
    fn new(cache: SolveCache) -> Self {
        RequestReplay {
            cache,
            pool: SolvePool::new(),
            ws: DualWorkspace::new(),
        }
    }

    /// Replays request `i` in-process, in the server's order: client encode,
    /// parse, decode, hash, cache lookup, pool solve and cache insert on a
    /// miss, wire conversion, response encode, client decode. Returns the
    /// request's wall time, ns.
    fn step(
        &mut self,
        i: usize,
        (inst, variant): &(Instance, Variant),
        want_schedule: bool,
        tracer: &mut Tracer,
        side: &mut SideMetrics,
    ) -> u64 {
        let limits = ParseLimits {
            max_bytes: ServeConfig::default().max_frame_bytes,
            max_depth: ServeConfig::default().max_json_depth,
        };
        let RequestReplay { cache, pool, ws } = self;
        let id = i as u64 + 1;
        tracer.begin_op(i as u32);
        let t0 = Instant::now();
        let mut batch_ns = 0.0;
        let (solved, request_len, response_len) = tracer.span(ROOT, |t| {
            let text = t.span("client.encode", |_| {
                bss_json::encode_pretty(&Request::Solve(Box::new(SolveRequest {
                    id,
                    instance: inst.clone(),
                    variant: *variant,
                    algo: ALGO,
                    deadline_ms: None,
                    work_budget: None,
                    want_schedule,
                })))
            });
            let value = t
                .span("json.parse", |_| {
                    bss_json::parse_with_limits(&text, &limits)
                })
                .expect("a well-formed request");
            let request = t
                .span("protocol.decode", |_| Request::decode(&value))
                .expect("a valid request");
            let Request::Solve(req) = request else {
                unreachable!("a solve request decodes as one")
            };
            let hash = t.span("instance.hash", |_| req.instance.content_hash());
            let hit = t.span("cache.lookup", |_| {
                cache.lookup(hash, &req.instance, req.variant, req.algo)
            });
            let (cached, sol) = match hit {
                Some(sol) => (true, sol),
                None => {
                    let item = SolveItem {
                        instance: &req.instance,
                        variant: req.variant,
                        algo: req.algo,
                        budget: None,
                    };
                    let tb = Instant::now();
                    let mut results = t.span("par.batch", |_| pool.solve_items(&[item]));
                    batch_ns = tb.elapsed().as_nanos() as f64;
                    let sol = Arc::new(
                        results
                            .pop()
                            .expect("one result")
                            .expect("the solve succeeds"),
                    );
                    t.span("cache.insert", |_| {
                        cache.insert(hash, &req.instance, req.variant, req.algo, &sol);
                    });
                    (false, sol)
                }
            };
            let solution = t.span("protocol.wire", |_| {
                WireSolution::of(&sol, req.want_schedule)
            });
            let reply = t.span("json.encode", |_| {
                bss_json::encode_pretty(&Response::Solved {
                    id,
                    cached,
                    solution,
                })
            });
            let back = t
                .span("client.decode", |_| bss_json::decode::<Response>(&reply))
                .expect("a well-formed response");
            black_box(back);
            ((!cached).then_some(sol), text.len(), reply.len())
        });
        let wall = t0.elapsed().as_nanos() as u64;
        if !tracer.is_on() {
            return wall;
        }
        side.request_bytes.push(request_len as f64);
        side.response_bytes.push(response_len as f64);

        // The solver layers on their own, for a missed request: the solve
        // on a warm workspace, then a probe and a build at its guess.
        if let Some(pooled) = solved {
            let v = variant_index(*variant);
            let t0 = Instant::now();
            let sol = tracer.span(SIDE, |t| {
                t.span(SOLVE_SPANS[v], |_| solve_with(ws, inst, *variant, ALGO))
            });
            let solo_ns = t0.elapsed().as_nanos() as f64;
            assert_eq!(
                Certified::of(&sol),
                Certified::of(&pooled),
                "pool and standalone solves agree"
            );
            side.probes[v].push(sol.probes as f64);
            side.efficiency.push(solo_ns / batch_ns);
            side_probe_build(tracer, ws, inst, *variant, sol.accepted);
        }
        wall
    }
}
