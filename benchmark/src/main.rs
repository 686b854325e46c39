//! The repository's benchmark: the paper's solvers and the `bss-serve`
//! service under four closed-loop workloads, with a correctness gate and an
//! optional traced replay that splits each operation into its layers.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload serve_schedule --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Workloads (each a closed loop of two callers):
//!
//! * `serve_schedule` — a distinct `uniform(2000,120,16)` instance per
//!   request, `ThreeHalves` over all three variants, schedule requested.
//! * `serve_hot` — 16 pre-solved instances of 1000–2875 jobs (about 115 KB
//!   of request on average), served from the solve cache.
//! * `online_resolve` — one session per caller on a 50k-job online trace;
//!   each operation is a `delta` plus a `resolve` (warm ε-search).
//! * `solve_library` — in-process `solve_with` on warm workspaces over
//!   `uniform(50000,2500,32)` instances, `ThreeHalves`, all three variants.
//!
//! Latency percentiles are medians over consecutive windows of 1000
//! operations, so that a burst of host noise moves one window rather than
//! the figure; peak memory is read after a fixed number of operations.
//!
//! With `--trace 0` the last stdout line is a JSON object carrying the
//! end-to-end metrics; with `--trace 1` the run replays the workload's
//! operations in-process with a span around every layer call and reports
//! the per-layer metrics instead (spans are written as JSON lines under the
//! build directory). The exit code is nonzero when the correctness gate
//! fails.

mod library;
mod measure;
mod online;
mod serve;

use std::collections::BTreeMap;
use std::time::Instant;

use measure::{median, ns_to_ms, percentile, LoopStats, Tracer};

/// The end-to-end metrics, `(name, unit)`, reported with `--trace 0`.
const END_TO_END: [(&str, &str); 5] = [
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics, `(name, unit)`, reported with `--trace 1`. A
/// layer the workload never enters reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("client.encode_ms", "ms"),
    ("client.decode_ms", "ms"),
    ("json.parse_ms", "ms"),
    ("protocol.decode_ms", "ms"),
    ("instance.hash_ms", "ms"),
    ("cache.lookup_ms", "ms"),
    ("cache.hit_ratio", "ratio"),
    ("protocol.wire_ms", "ms"),
    ("json.encode_ms", "ms"),
    ("json.request_bytes", "bytes"),
    ("json.response_bytes", "bytes"),
    ("core.solve_ms.non_preemptive", "ms"),
    ("core.solve_ms.preemptive", "ms"),
    ("core.solve_ms.splittable", "ms"),
    ("core.probes_per_solve.non_preemptive", "count"),
    ("core.probes_per_solve.preemptive", "count"),
    ("core.probes_per_solve.splittable", "count"),
    ("core.probe_ms.non_preemptive", "ms"),
    ("core.probe_ms.preemptive", "ms"),
    ("core.probe_ms.splittable", "ms"),
    ("core.build_ms.non_preemptive", "ms"),
    ("core.build_ms.preemptive", "ms"),
    ("core.build_ms.splittable", "ms"),
    ("core.ns_per_job.non_preemptive", "ns"),
    ("core.ns_per_job.preemptive", "ns"),
    ("core.ns_per_job.splittable", "ns"),
    ("core.warm_solve_ms", "ms"),
    ("core.warm_probes_per_event", "count"),
    ("core.warm_skip_ratio", "ratio"),
    ("instance.apply_us", "us"),
    ("instance.materialize_ms", "ms"),
    ("cache.insert_ms", "ms"),
    ("cache.resident", "count"),
    ("par.batch_ms", "ms"),
    ("par.efficiency", "ratio"),
    ("server.solved", "count"),
    ("server.shed", "count"),
    ("server.errors", "count"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.evictions", "count"),
    ("cache.collisions", "count"),
    ("serve.roundtrip_ms", "ms"),
    ("serve.unattributed_ms", "ms"),
    ("trace.replay_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("failed_ratio", "ratio"),
];

/// How many times each run sets its workload up; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;

/// The core count the workloads were sized on.
const SIZED_FOR_CPUS: usize = 2;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        let bad = |what: &str| format!("`{flag}` expects {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| bad("a positive number"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

/// What one workload run hands back to the reporter.
#[derive(Default)]
pub struct Outcome {
    /// Duration of each set-up, seconds.
    pub setup_s: Vec<f64>,
    /// The untraced timed phase.
    pub live: LoopStats,
    /// Correctness-gate failures, one line each.
    pub mismatches: Vec<String>,
    /// Per-layer metrics (traced runs only).
    pub layers: BTreeMap<String, f64>,
    /// The traced replay (traced runs only).
    pub replay: Option<Replay>,
    /// Human-readable capture lines (server counters, sample sizes).
    pub notes: Vec<String>,
}

/// Runs `setup` [`SETUP_REPEATS`] times, tearing down all but the last
/// result, and returns it with every set-up's duration.
pub fn repeated_setup<T>(
    mut setup: impl FnMut() -> T,
    mut teardown: impl FnMut(T),
) -> (T, Vec<f64>) {
    let mut times = Vec::new();
    let mut kept = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(old) = kept.take() {
            teardown(old);
        }
        let t0 = Instant::now();
        kept = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    (kept.expect("at least one set-up"), times)
}

/// The results of replaying a workload's operations in-process on two
/// identical states, one untraced and one traced, operation by operation.
pub struct Replay {
    /// Wall time of each untraced operation, ns.
    pub untraced_ns: Vec<u64>,
    /// Wall time of each traced operation, ns.
    pub traced_ns: Vec<u64>,
    /// The traced side's spans.
    pub tracer: Tracer,
    /// Whether the live operation crossed the wire, so that the live round
    /// trip minus the replayed layers is the unattributed share.
    pub wire: bool,
}

impl Replay {
    /// Replays operations `0..ops` on two states from `make`: `step(state,
    /// i, tracer)` runs operation `i` and returns its wall time, ns.
    /// Operation 0 warms both states untimed; after it the untraced and
    /// traced copies of each operation run back to back, alternating which
    /// goes first, so that host speed drifts cancel out of the tracing
    /// overhead.
    pub fn measure<S>(
        wire: bool,
        ops: usize,
        mut make: impl FnMut() -> S,
        mut step: impl FnMut(&mut S, usize, &mut Tracer) -> u64,
    ) -> Self {
        let (mut plain, mut traced) = (make(), make());
        let mut off = Tracer::new(false);
        let mut tracer = Tracer::new(true);
        step(&mut plain, 0, &mut off);
        step(&mut traced, 0, &mut off);
        let mut untraced_ns = Vec::with_capacity(ops);
        let mut traced_ns = Vec::with_capacity(ops);
        for i in 1..ops {
            if i % 2 == 0 {
                untraced_ns.push(step(&mut plain, i, &mut off));
                traced_ns.push(step(&mut traced, i, &mut tracer));
            } else {
                traced_ns.push(step(&mut traced, i, &mut tracer));
                untraced_ns.push(step(&mut plain, i, &mut off));
            }
        }
        Replay {
            untraced_ns,
            traced_ns,
            tracer,
            wire,
        }
    }
}

/// The metric a layer's span feeds: `a.b` → `a.b_ms`, `a.b.v` → `a.b_ms.v`
/// (microseconds for `instance.apply`).
fn span_metric(name: &str) -> (String, f64) {
    let (unit, scale) = if name == "instance.apply" {
        ("us", 1e3)
    } else {
        ("ms", 1e6)
    };
    let metric = match name.match_indices('.').nth(1) {
        Some((i, _)) => format!("{}_{unit}.{}", &name[..i], &name[i + 1..]),
        None => format!("{name}_{unit}"),
    };
    (metric, scale)
}

/// Fills the replay-derived layer metrics: the median per-operation self
/// time of every layer, the replay's own cost, the tracing overhead and —
/// for workloads that go over the wire — the part of the live round trip
/// no replayed layer accounts for.
fn replay_metrics(replay: &Replay, live: &LoopStats, out: &mut BTreeMap<String, f64>) {
    for (name, per_op) in replay.tracer.self_times_by_layer() {
        if name == measure::ROOT || name == measure::SIDE {
            continue;
        }
        let (metric, scale) = span_metric(name);
        let values: Vec<f64> = per_op.iter().map(|&ns| ns as f64).collect();
        out.insert(metric, median(&values) / scale);
    }
    let ms = |ns: &[u64]| median(&ns.iter().map(|&v| ns_to_ms(v)).collect::<Vec<_>>());
    let total = |ns: &[u64]| ns.iter().sum::<u64>() as f64;
    out.insert("trace.replay_ms".into(), ms(&replay.traced_ns));
    out.insert(
        "trace.overhead_ratio".into(),
        total(&replay.traced_ns) / total(&replay.untraced_ns) - 1.0,
    );
    if replay.wire {
        let roundtrip = median(&live.latencies_ms());
        out.insert("serve.roundtrip_ms".into(), roundtrip);
        let layers = ms(&replay.tracer.layer_sum_per_op(measure::ROOT));
        out.insert("serve.unattributed_ms".into(), roundtrip - layers);
    }
}

/// Reads the checkout's git revision without spawning git (the benchmark
/// may run from an exported tree with no repository).
fn git_revision() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown (not a git checkout)".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (rev, name) = line.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

fn provenance(args: &Args) -> String {
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"available_parallelism\":{cpus},\
         \"rustc\":\"{}\",\"git_rev\":\"{}\",\"profile\":\"{}\"}}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        env!("BENCH_RUSTC_VERSION"),
        git_revision(),
        env!("BENCH_PROFILE"),
    )
}

/// A JSON number for `v`; non-finite values (an empty sample) read 0.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: bss-benchmark --workload <serve_schedule|serve_hot|online_resolve|solve_library> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let prov = provenance(&args);
    println!("provenance {prov}");
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    if cpus != SIZED_FOR_CPUS {
        eprintln!(
            "warning: {cpus} CPUs available; the workloads were sized on a {SIZED_FOR_CPUS}-CPU host, \
             so figures are not comparable with captures from it"
        );
    }

    let outcome = match args.workload.as_str() {
        "serve_schedule" => serve::run_schedule(&args),
        "serve_hot" => serve::run_hot(&args),
        "online_resolve" => online::run(&args),
        "solve_library" => library::run(&args),
        other => {
            eprintln!("error: unknown workload `{other}`");
            std::process::exit(2);
        }
    };

    let live = &outcome.live;
    let failed = live.failed() + outcome.mismatches.len() as u64;
    let attempted = live.attempted.max(1);
    let latencies = live.latencies_ms();
    let completed = latencies.len();
    let e2e: BTreeMap<&str, f64> = BTreeMap::from([
        ("throughput_per_s", live.throughput()),
        ("latency_p50_ms", live.windowed_ms(0.50)),
        ("latency_p99_ms", live.windowed_ms(0.99)),
        ("setup_s", median(&outcome.setup_s)),
        ("peak_rss_mb", live.peak_rss_mb),
    ]);
    let failed_ratio = failed as f64 / attempted as f64;

    for note in &outcome.notes {
        println!("{note}");
    }
    let windows = live.windows();
    let steal: Vec<String> = windows.iter().map(|w| format!("{:.3}", w.steal)).collect();
    println!(
        "samples: {completed} timed operations after {} warm-up operations per caller, in {} windows \
         of {} operations; {} windows clean (host steal share per window: {}); throughput and \
         latency percentiles are taken over the clean windows",
        live.warmup_ops,
        windows.len(),
        windows.first().map_or(0, |w| w.samples.len()),
        live.clean_windows().len(),
        steal.join(", "),
    );
    let quantiles: Vec<String> = [0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0]
        .iter()
        .map(|&q| format!("p{} {:.4}", q * 100.0, percentile(&latencies, q)))
        .collect();
    println!(
        "latency (ms): mean {:.4}, {}",
        latencies.iter().sum::<f64>() / completed.max(1) as f64,
        quantiles.join(", ")
    );
    println!(
        "failures: attempted {attempted}, failed {failed} (shed {}, server errors {}, client errors {}, \
         mismatches {}), failed_ratio {failed_ratio}",
        live.sheds,
        live.server_errors,
        live.client_errors,
        outcome.mismatches.len(),
    );
    for m in outcome.mismatches.iter().take(20) {
        println!("mismatch: {m}");
    }
    let setups: Vec<String> = outcome.setup_s.iter().map(|s| format!("{s:.4}")).collect();
    println!("setup runs (s): {}", setups.join(", "));

    let mut metrics = Vec::new();
    if args.trace {
        let mut layers = outcome.layers.clone();
        if let Some(replay) = &outcome.replay {
            replay_metrics(replay, live, &mut layers);
            let dir =
                std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "benchmark/target".into());
            let path = std::path::Path::new(&dir)
                .join("bench-trace")
                .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
            match replay.tracer.write_jsonl(&path, &prov) {
                Ok(()) => println!("spans: {}", path.display()),
                Err(e) => eprintln!("warning: could not write spans to {}: {e}", path.display()),
            }
        }
        layers.insert("failed_ratio".into(), failed_ratio);
        for &(name, unit) in PER_LAYER {
            metrics.push((name, unit, layers.get(name).copied().unwrap_or(0.0)));
        }
    } else {
        for (name, unit) in END_TO_END {
            metrics.push((name, unit, e2e[name]));
        }
    }
    for (name, unit, value) in &metrics {
        println!("metric {name} = {} {unit}", number(*value));
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(*value)
            )
        })
        .collect();
    let correct = failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
