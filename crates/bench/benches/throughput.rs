//! Service throughput and latency: a real `bss-serve` daemon on a loopback
//! socket, driven by the crate's own load generator.
//!
//! Unlike the other benches this one measures the *delivery path* — framing,
//! parsing, cache, admission gate — around the solver, which is exactly
//! what `bss serve` ships. Three scenarios:
//!
//! * `cold` — every request a distinct instance: sustained cold-solve
//!   capacity (cache present but never hitting).
//! * `hot` — a small distinct pool: steady-state cache-hit service, i.e.
//!   the protocol + cache overhead ceiling.
//! * `open_loop` — fixed offered rate below capacity; the latency
//!   percentiles here are honest (measured from scheduled send time, so
//!   queueing counts — no coordinated omission).
//!
//! Each scenario prints a `LoadReport` summary line; the PR 9 section of
//! `results/BASELINES.md` records them. `BSS_BENCH_SAMPLES=1` (CI
//! bench-smoke) shrinks the request counts.

use criterion::{criterion_group, Criterion};

use bss_core::Algorithm;
use bss_instance::Variant;
use bss_serve::loadgen::{run, LoadMode, LoadgenConfig};
use bss_serve::{spawn, ServeConfig};

/// Honors the CI smoke knob: 1 sample → tiny request counts.
fn scaled(requests: usize) -> usize {
    match std::env::var("BSS_BENCH_SAMPLES")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        Some(n) if n <= 1 => (requests / 20).max(20),
        _ => requests,
    }
}

fn base_config(addr: String) -> LoadgenConfig {
    LoadgenConfig {
        addr,
        connections: 8,
        jobs: 2_000,
        classes: 120,
        machines: 16,
        seed: 0xB55,
        variant: Variant::NonPreemptive,
        algo: Algorithm::ThreeHalves,
        deadline_ms: None,
        mode: LoadMode::Closed,
        ..LoadgenConfig::default()
    }
}

fn serve_throughput(c: &mut Criterion) {
    let server = spawn(ServeConfig::default()).expect("bind the bench server");
    let addr = server.addr().to_string();

    // Criterion timing loops around a full load run would conflate warmup
    // and measurement; each scenario is instead one measured load run whose
    // report is the artifact, plus a criterion-visible smoke iteration so
    // the bench is wired into the harness.
    let mut g = c.benchmark_group("serve_throughput");
    g.sample_size(10);

    let requests = scaled(800);
    let cold = run(&LoadgenConfig {
        requests,
        distinct: requests, // every request distinct: no cache hits
        ..base_config(addr.clone())
    })
    .expect("cold scenario");
    assert_eq!(cold.errors, 0, "cold scenario had request errors");
    eprintln!("serve_throughput/cold ({requests} reqs, 8 conns, closed loop)");
    eprintln!("{}", cold.render());

    let hot_requests = scaled(2_000);
    let hot = run(&LoadgenConfig {
        requests: hot_requests,
        distinct: 16, // small hot set: steady-state cache hits
        ..base_config(addr.clone())
    })
    .expect("hot scenario");
    assert_eq!(hot.errors, 0, "hot scenario had request errors");
    eprintln!("serve_throughput/hot ({hot_requests} reqs, 16 distinct, closed loop)");
    eprintln!("{}", hot.render());

    // Open loop at roughly half the measured cold capacity, floor 4/s/conn:
    // latency percentiles under controlled offered load.
    let rate = ((cold.solves_per_sec() / 2.0 / 8.0).round() as u32).max(4);
    let open_requests = scaled(400);
    let open = run(&LoadgenConfig {
        requests: open_requests,
        distinct: 64,
        mode: LoadMode::Open {
            rate_per_conn: rate,
        },
        ..base_config(addr.clone())
    })
    .expect("open scenario");
    assert_eq!(open.errors, 0, "open scenario had request errors");
    eprintln!("serve_throughput/open_loop ({open_requests} reqs, {rate} req/s/conn)");
    eprintln!("{}", open.render());

    // The harness-visible sample: one solve round-trip against the warm
    // server (dominated by protocol + cache overhead).
    let pool = bss_serve::loadgen::request_pool(&LoadgenConfig {
        distinct: 1,
        ..base_config(addr.clone())
    });
    let mut client = bss_serve::Client::connect(&addr).expect("connect bench client");
    g.bench_function("cached_roundtrip", |b| {
        b.iter(|| {
            client
                .solve(
                    &pool[0],
                    Variant::NonPreemptive,
                    Algorithm::ThreeHalves,
                    bss_serve::SolveOptions::default(),
                )
                .expect("bench roundtrip")
        })
    });
    g.finish();

    drop(client);
    server.shutdown();
}

criterion_group!(benches, serve_throughput);

fn main() {
    benches();
}
