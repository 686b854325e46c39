//! End-to-end tests of the solve service over real sockets.
//!
//! Every test spawns a fresh server on an ephemeral port, talks to it
//! through the real client (or a raw socket for protocol-abuse tests), and
//! shuts it down. The nightly pipeline raises the sweep sizes through
//! `BSS_SERVE_CASES`.

use std::time::Duration;

use bss_chaos::assert_bit_identical;
use bss_core::{solve, Algorithm, Completion, Interrupt, Solution};
use bss_instance::{Instance, Variant};
use bss_json::frame::{read_frame, write_frame};
use bss_serve::{
    spawn, Client, ClientError, ErrorCode, Response, ServeConfig, SolveOptions, SolveOutcome,
    WireSolution,
};

/// Sweep width, raised by the nightly pipeline (`BSS_SERVE_CASES`).
fn cases() -> usize {
    std::env::var("BSS_SERVE_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8)
}

fn test_server(config: ServeConfig) -> bss_serve::ServerHandle {
    spawn(config).expect("bind an ephemeral test server")
}

fn small_config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    }
}

/// Checks a wire solution against a locally computed one field by field —
/// the service must be invisible in the results.
fn assert_wire_matches(label: &str, wire: &WireSolution, local: &Solution) {
    assert_eq!(wire.makespan, local.makespan, "{label}: makespan");
    assert_eq!(wire.accepted, local.accepted, "{label}: accepted");
    assert_eq!(wire.ratio_bound, local.ratio_bound, "{label}: ratio_bound");
    assert_eq!(wire.certificate, local.certificate, "{label}: certificate");
    assert_eq!(wire.probes as usize, local.probes, "{label}: probes");
    assert_eq!(wire.completion, local.completion, "{label}: completion");
    if let Some(schedule) = &wire.schedule {
        assert_eq!(schedule, local.schedule(), "{label}: schedule");
    }
}

#[test]
fn solve_over_a_socket_matches_local_solve_bit_for_bit() {
    let server = test_server(small_config());
    let mut client = Client::connect(server.addr()).unwrap();
    let sweeps: Vec<(Variant, Algorithm)> = vec![
        (Variant::NonPreemptive, Algorithm::TwoApprox),
        (Variant::NonPreemptive, Algorithm::ThreeHalves),
        (Variant::NonPreemptive, Algorithm::Portfolio),
        (Variant::Preemptive, Algorithm::ThreeHalves),
        (Variant::Splittable, Algorithm::ThreeHalves),
        (
            Variant::Splittable,
            Algorithm::EpsilonSearch { eps_log2: 6 },
        ),
    ];
    for seed in 0..cases() as u64 {
        let instance = bss_gen::uniform(40, 5, 3, 1000 + seed);
        for &(variant, algo) in &sweeps {
            let outcome = client
                .solve(
                    &instance,
                    variant,
                    algo,
                    SolveOptions {
                        want_schedule: true,
                        ..SolveOptions::default()
                    },
                )
                .unwrap();
            let SolveOutcome::Solved { solution, .. } = outcome else {
                panic!("unloaded server shed a request");
            };
            let local = solve(&instance, variant, algo);
            assert_wire_matches(
                &format!("seed {seed}, {variant:?}/{algo:?}"),
                &solution,
                &local,
            );
        }
    }
    server.shutdown();
}

#[test]
fn cache_hit_is_bit_identical_to_the_cold_solve() {
    let server = test_server(small_config());
    let mut client = Client::connect(server.addr()).unwrap();
    let instance = bss_gen::uniform(50, 6, 4, 42);
    let opts = SolveOptions {
        want_schedule: true,
        ..SolveOptions::default()
    };

    let cold = client
        .solve(
            &instance,
            Variant::NonPreemptive,
            Algorithm::Portfolio,
            opts,
        )
        .unwrap();
    let SolveOutcome::Solved {
        cached: false,
        solution: cold_sol,
    } = cold
    else {
        panic!("first solve must be a cold miss, got {cold:?}");
    };

    // Same request again — now served from the cache, from a *different*
    // connection (the cache is server-global, not per-connection).
    let mut client2 = Client::connect(server.addr()).unwrap();
    let warm = client2
        .solve(
            &instance,
            Variant::NonPreemptive,
            Algorithm::Portfolio,
            opts,
        )
        .unwrap();
    let SolveOutcome::Solved {
        cached: true,
        solution: warm_sol,
    } = warm
    else {
        panic!("second solve must be a cache hit, got {warm:?}");
    };

    // Bit-identity, proven on the encoded wire payloads: every field of the
    // two responses (schedule included) encodes to the same JSON.
    assert_eq!(warm_sol, cold_sol);
    assert_eq!(
        bss_json::encode_pretty(&warm_sol),
        bss_json::encode_pretty(&cold_sol)
    );
    // And both equal the local reference solve.
    let local = solve(&instance, Variant::NonPreemptive, Algorithm::Portfolio);
    assert_wire_matches("cold", &cold_sol, &local);
    assert_wire_matches("warm", &warm_sol, &local);

    let stats = client.stats().unwrap();
    assert_eq!(stats.cache.hits, 1);
    assert!(stats.cache.misses >= 1);
    server.shutdown();
}

#[test]
fn cache_evicts_fifo_under_its_size_bound() {
    let server = test_server(ServeConfig {
        workers: 1,
        cache_capacity: 2,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(server.addr()).unwrap();
    let instances: Vec<Instance> = (0..3)
        .map(|i| bss_gen::uniform(20, 3, 2, 7000 + i))
        .collect();
    let opts = SolveOptions::default();

    let cached_flag = |outcome: SolveOutcome| match outcome {
        SolveOutcome::Solved { cached, .. } => cached,
        SolveOutcome::Shed { .. } => panic!("unloaded server shed"),
    };

    // Fill: 0, 1 → capacity reached; 2 evicts 0 (FIFO).
    for inst in &instances {
        assert!(!cached_flag(
            client
                .solve(inst, Variant::Splittable, Algorithm::ThreeHalves, opts)
                .unwrap()
        ));
    }
    // 1 and 2 are still cached…
    for inst in &instances[1..] {
        assert!(cached_flag(
            client
                .solve(inst, Variant::Splittable, Algorithm::ThreeHalves, opts)
                .unwrap()
        ));
    }
    // …but 0 was evicted: a cold solve again (which now evicts 1 in turn).
    assert!(!cached_flag(
        client
            .solve(
                &instances[0],
                Variant::Splittable,
                Algorithm::ThreeHalves,
                opts
            )
            .unwrap()
    ));
    let stats = client.stats().unwrap();
    assert_eq!(stats.cache.len, 2, "size bound violated");
    assert!(stats.cache.evictions >= 2);
    server.shutdown();
}

#[test]
fn overloaded_server_sheds_with_a_typed_response() {
    // One solve slot, a queue of one: a sleeping request holding the slot
    // plus one waiting behind it saturate the server deterministically.
    let server = test_server(ServeConfig {
        workers: 1,
        queue_capacity: 1,
        allow_test_ops: true,
        ..ServeConfig::default()
    });
    let addr = server.addr();

    // Occupy the only slot (blocking call, so it runs on its own thread).
    let busy = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.sleep(600).unwrap();
    });
    std::thread::sleep(Duration::from_millis(150));
    // Fill the queue behind it.
    let queued = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.try_sleep(200).unwrap();
    });
    std::thread::sleep(Duration::from_millis(150));

    // Queue full, slot busy: this request must be shed, immediately and
    // typed — not blocked, not errored.
    let mut client = Client::connect(addr).unwrap();
    let instance = bss_gen::uniform(10, 2, 2, 1);
    let started = std::time::Instant::now();
    let outcome = client
        .solve(
            &instance,
            Variant::Splittable,
            Algorithm::TwoApprox,
            SolveOptions::default(),
        )
        .unwrap();
    let SolveOutcome::Shed {
        queued: depth,
        capacity,
    } = outcome
    else {
        panic!("expected a shed, got {outcome:?}");
    };
    assert_eq!(capacity, 1);
    assert!(depth >= 1);
    assert!(
        started.elapsed() < Duration::from_millis(400),
        "shed reply must not wait for the busy slot"
    );

    busy.join().unwrap();
    queued.join().unwrap();

    // After the stall drains, the same request solves normally.
    let outcome = client
        .solve(
            &instance,
            Variant::Splittable,
            Algorithm::TwoApprox,
            SolveOptions::default(),
        )
        .unwrap();
    assert!(matches!(outcome, SolveOutcome::Solved { .. }));
    let stats = client.stats().unwrap();
    assert!(stats.shed >= 1, "shed counter must record the refusal");
    server.shutdown();
}

#[test]
fn deadline_is_honored_with_an_honest_degraded_response() {
    let server = test_server(small_config());
    let mut client = Client::connect(server.addr()).unwrap();
    // Large instance + eps search, with a zero-millisecond deadline: the
    // budget is already expired when the solve starts, forcing degradation.
    let instance = bss_gen::uniform(4000, 40, 8, 9);
    let outcome = client
        .solve(
            &instance,
            Variant::NonPreemptive,
            Algorithm::EpsilonSearch { eps_log2: 12 },
            SolveOptions {
                deadline_ms: Some(0),
                ..SolveOptions::default()
            },
        )
        .unwrap();
    let SolveOutcome::Solved { cached, solution } = outcome else {
        panic!("degraded solves still answer, got {outcome:?}");
    };
    assert!(!cached);
    assert_eq!(
        solution.completion,
        Completion::Degraded(Interrupt::Deadline),
        "an expired deadline must be reported honestly"
    );

    // Degraded results are budget artifacts: they must NOT be cached, so an
    // unbudgeted retry of the same instance is a cold, Full solve.
    let retry = client
        .solve(
            &instance,
            Variant::NonPreemptive,
            Algorithm::EpsilonSearch { eps_log2: 12 },
            SolveOptions::default(),
        )
        .unwrap();
    let SolveOutcome::Solved { cached, solution } = retry else {
        panic!("retry failed: {retry:?}");
    };
    assert!(!cached, "a degraded result must never be served from cache");
    assert_eq!(solution.completion, Completion::Full);
    server.shutdown();
}

#[test]
fn work_budget_degrades_like_the_local_budgeted_solver() {
    let server = test_server(small_config());
    let mut client = Client::connect(server.addr()).unwrap();
    let instance = bss_gen::uniform(60, 6, 3, 77);
    let outcome = client
        .solve(
            &instance,
            Variant::NonPreemptive,
            Algorithm::ThreeHalves,
            SolveOptions {
                work_budget: Some(0),
                ..SolveOptions::default()
            },
        )
        .unwrap();
    let SolveOutcome::Solved { solution, .. } = outcome else {
        panic!("got {outcome:?}");
    };
    // Work budgets are deterministic (no wall clock): the remote degraded
    // result must be bit-identical to the local budgeted solve.
    let budget = bss_core::SolveBudget::unlimited().with_work_limit(0);
    let opts = bss_core::SolveOptions {
        budget: Some(&budget),
        ..bss_core::SolveOptions::default()
    };
    let problem = bss_core::BssProblem::new(&instance, Variant::NonPreemptive);
    let local = bss_core::solve_problem(
        &mut bss_core::DualWorkspace::new(),
        &problem,
        Algorithm::ThreeHalves,
        &opts,
    )
    .unwrap();
    assert_eq!(
        local.completion,
        Completion::Degraded(Interrupt::WorkExhausted)
    );
    assert_wire_matches("work-budget", &solution, &local);
    server.shutdown();
}

#[test]
fn concurrent_clients_all_get_correct_answers() {
    // More in-flight requests than solve slots forces requests to wait at
    // the admission gate; every response must still match its own request
    // (no cross-wiring under concurrency).
    let server = test_server(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let addr = server.addr();
    let clients = 6;
    let per_client = cases().max(4);
    std::thread::scope(|scope| {
        for c in 0..clients {
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for r in 0..per_client {
                    let seed = 5000 + (c * per_client + r) as u64;
                    let instance = bss_gen::uniform(30, 4, 3, seed);
                    let outcome = client
                        .solve(
                            &instance,
                            Variant::NonPreemptive,
                            Algorithm::Portfolio,
                            SolveOptions::default(),
                        )
                        .unwrap();
                    let SolveOutcome::Solved { solution, .. } = outcome else {
                        panic!("shed under default queue bounds");
                    };
                    let local = solve(&instance, Variant::NonPreemptive, Algorithm::Portfolio);
                    assert_wire_matches(&format!("client {c} req {r}"), &solution, &local);
                }
            });
        }
    });
    server.shutdown();
}

#[test]
fn cache_roundtrip_survives_solution_reencoding() {
    // The cached Solution and a cold Solution drive the exact same
    // wire encoding — compared through bss-chaos's bit-identity check on
    // locally reconstructed solutions.
    let instance = bss_gen::uniform(25, 3, 2, 314);
    let a = solve(&instance, Variant::Preemptive, Algorithm::ThreeHalves);
    let b = solve(&instance, Variant::Preemptive, Algorithm::ThreeHalves);
    assert_bit_identical("determinism precondition", &a, &b);
}

// ---------------------------------------------------------------------------
// Incremental sessions (online workloads)
// ---------------------------------------------------------------------------

#[test]
fn session_resolves_are_bit_identical_to_local_cold_solves() {
    use bss_instance::{Delta, IncrementalInstance};

    let server = test_server(small_config());
    let deltas = [
        Delta::AddJob { class: 0, time: 17 },
        Delta::AddJob { class: 3, time: 5 },
        Delta::Retime { job: 2, time: 40 },
        Delta::RemoveJob { job: 7 },
        Delta::AddJob { class: 1, time: 23 },
    ];
    for (variant, algo) in [
        (
            Variant::NonPreemptive,
            Algorithm::EpsilonSearch { eps_log2: 6 },
        ),
        (
            Variant::Splittable,
            Algorithm::EpsilonSearch { eps_log2: 6 },
        ),
        (Variant::Preemptive, Algorithm::TwoApprox),
    ] {
        let mut client = Client::connect(server.addr()).unwrap();
        let base = bss_gen::uniform(40, 5, 3, 4242);
        let mut mirror = IncrementalInstance::new(&base);

        let ack = client.session(&base, variant, algo).unwrap();
        assert_eq!(ack.jobs, 40);
        assert_eq!(ack.content_hash, base.content_hash());

        // The base resolve plus one after every delta: each must be
        // bit-identical to a local cold solve of the mirrored state —
        // the server's warm-start path must be invisible in the payload.
        for (step, delta) in std::iter::once(None)
            .chain(deltas.iter().map(Some))
            .enumerate()
        {
            if let Some(&d) = delta {
                let ack = client.delta(d).unwrap();
                mirror.apply(d).unwrap();
                assert_eq!(ack.jobs, mirror.num_jobs() as u64, "step {step}");
                assert_eq!(ack.content_hash, mirror.content_hash(), "step {step}");
            }
            let outcome = client.resolve(true).unwrap();
            let SolveOutcome::Solved { solution, .. } = outcome else {
                panic!("resolve shed: {outcome:?}");
            };
            let local = solve(&mirror.materialize(), variant, algo);
            assert_eq!(
                solution.makespan, local.makespan,
                "step {step} {variant:?}/{algo:?}: makespan"
            );
            assert_eq!(solution.accepted, local.accepted, "step {step}: accepted");
            assert_eq!(
                solution.certificate, local.certificate,
                "step {step}: certificate"
            );
            assert_eq!(
                solution.ratio_bound, local.ratio_bound,
                "step {step}: ratio_bound"
            );
            assert_eq!(solution.completion, local.completion, "step {step}");
            assert_eq!(
                solution.probes as usize, local.probes,
                "step {step}: probes"
            );
            assert_eq!(
                solution.schedule.as_ref(),
                Some(local.schedule()),
                "step {step}: schedule"
            );
        }
    }
    server.shutdown();
}

#[test]
fn session_resolve_of_an_unchanged_state_hits_the_cache() {
    let server = test_server(small_config());
    let mut client = Client::connect(server.addr()).unwrap();
    let base = bss_gen::uniform(30, 4, 3, 99);
    client
        .session(&base, Variant::Splittable, Algorithm::ThreeHalves)
        .unwrap();
    let first = client.resolve(false).unwrap();
    let SolveOutcome::Solved { cached: false, .. } = first else {
        panic!("first resolve must be cold: {first:?}");
    };
    let second = client.resolve(false).unwrap();
    let SolveOutcome::Solved { cached: true, .. } = second else {
        panic!("repeat resolve of the same state must hit the cache: {second:?}");
    };
    // A plain solve of the same instance from another connection also hits:
    // session solves share the server-global cache.
    let mut other = Client::connect(server.addr()).unwrap();
    let outcome = other
        .solve(
            &base,
            Variant::Splittable,
            Algorithm::ThreeHalves,
            SolveOptions::default(),
        )
        .unwrap();
    let SolveOutcome::Solved { cached: true, .. } = outcome else {
        panic!("cross-connection lookup of a session solve missed: {outcome:?}");
    };
    server.shutdown();
}

#[test]
fn session_misuse_gets_typed_errors_and_the_session_survives_bad_deltas() {
    use bss_instance::Delta;

    let server = test_server(small_config());
    let mut client = Client::connect(server.addr()).unwrap();

    // Delta/resolve before any session: BadRequest, connection stays up.
    for result in [
        client.delta(Delta::AddJob { class: 0, time: 1 }).err(),
        client.resolve(false).err(),
    ] {
        match result {
            Some(ClientError::Server {
                code: ErrorCode::BadRequest,
                message,
            }) => assert!(message.contains("no session"), "message: {message}"),
            other => panic!("expected a typed no-session error, got {other:?}"),
        }
    }

    let base = bss_gen::uniform(20, 3, 2, 7);
    let ack = client
        .session(&base, Variant::NonPreemptive, Algorithm::ThreeHalves)
        .unwrap();

    // A model-violating delta is InvalidInstance and leaves the state as
    // it was (same content hash), still resolvable.
    match client.delta(Delta::AddJob { class: 99, time: 1 }) {
        Err(ClientError::Server {
            code: ErrorCode::InvalidInstance,
            ..
        }) => {}
        other => panic!("expected InvalidInstance, got {other:?}"),
    }
    let after = client.delta(Delta::Retime { job: 0, time: 9 }).unwrap();
    assert_ne!(after.content_hash, ack.content_hash);
    assert!(matches!(
        client.resolve(false).unwrap(),
        SolveOutcome::Solved { .. }
    ));
    server.shutdown();
}

#[test]
fn session_resolve_is_shed_when_the_server_is_saturated() {
    // Resolves share the solve path's admission gate: with the only slot
    // held and the queue full, a resolve is shed like any other miss.
    let server = test_server(ServeConfig {
        workers: 1,
        queue_capacity: 1,
        allow_test_ops: true,
        ..ServeConfig::default()
    });
    let addr = server.addr();
    let base = bss_gen::uniform(30, 4, 3, 2718);
    let (variant, algo) = (
        Variant::NonPreemptive,
        Algorithm::EpsilonSearch { eps_log2: 6 },
    );
    let mut client = Client::connect(addr).unwrap();
    client.session(&base, variant, algo).unwrap();

    let busy = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.sleep(600).unwrap();
    });
    std::thread::sleep(Duration::from_millis(150));
    let queued = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.try_sleep(200).unwrap();
    });
    std::thread::sleep(Duration::from_millis(150));

    let outcome = client.resolve(false).unwrap();
    let SolveOutcome::Shed { capacity: 1, .. } = outcome else {
        panic!("a resolve on a saturated server must be shed, got {outcome:?}");
    };

    busy.join().unwrap();
    queued.join().unwrap();

    // After the stall, the same session resolves normally: a cold solve,
    // bit-identical to the local one.
    let outcome = client.resolve(false).unwrap();
    let SolveOutcome::Solved {
        cached: false,
        solution,
    } = outcome
    else {
        panic!("the resolve after the stall must be a cold solve, got {outcome:?}");
    };
    assert_wire_matches(
        "resolve after shed",
        &solution,
        &solve(&base, variant, algo),
    );
    let stats = client.stats().unwrap();
    assert!(
        stats.shed >= 1,
        "shed counter must record the refused resolve"
    );
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Lock-poisoning recovery
// ---------------------------------------------------------------------------

#[test]
fn server_keeps_serving_after_the_cache_lock_is_poisoned() {
    let server = test_server(small_config());
    let mut client = Client::connect(server.addr()).unwrap();
    let instance = bss_gen::uniform(25, 4, 2, 1234);

    // Seed the cache, then poison its mutex (a thread panics holding it).
    client
        .solve(
            &instance,
            Variant::Splittable,
            Algorithm::ThreeHalves,
            SolveOptions::default(),
        )
        .unwrap();
    server.poison_cache_for_tests();

    // Every cache-touching path must keep working: stats, the lookup fast
    // path (which still hits the pre-poison entry), and fresh inserts.
    let stats = client.stats().unwrap();
    assert_eq!(stats.cache.len, 1);
    let hit = client
        .solve(
            &instance,
            Variant::Splittable,
            Algorithm::ThreeHalves,
            SolveOptions::default(),
        )
        .unwrap();
    assert!(matches!(hit, SolveOutcome::Solved { cached: true, .. }));
    let other = bss_gen::uniform(25, 4, 2, 5678);
    let cold = client
        .solve(
            &other,
            Variant::Splittable,
            Algorithm::ThreeHalves,
            SolveOptions::default(),
        )
        .unwrap();
    assert!(matches!(cold, SolveOutcome::Solved { cached: false, .. }));
    assert_eq!(client.stats().unwrap().cache.len, 2);
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Protocol abuse over a raw socket
// ---------------------------------------------------------------------------

fn raw_call(addr: std::net::SocketAddr, payload: &str) -> Response {
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    write_frame(&mut stream, payload, 64 << 20).unwrap();
    let reply = read_frame(&mut stream, 64 << 20)
        .unwrap()
        .expect("server must answer before closing");
    bss_json::decode(&reply).unwrap()
}

#[test]
fn malformed_and_unsupported_requests_get_typed_errors() {
    let server = test_server(ServeConfig {
        workers: 1,
        max_frame_bytes: 4096,
        max_json_depth: 8,
        ..ServeConfig::default()
    });
    let addr = server.addr();

    // Broken JSON.
    let resp = raw_call(addr, "{not json");
    assert!(
        matches!(
            resp,
            Response::Error {
                code: ErrorCode::BadRequest,
                ..
            }
        ),
        "broken JSON: {resp:?}"
    );

    // Wrong protocol version.
    let resp = raw_call(addr, r#"{"v": 99, "id": 5, "kind": "ping"}"#);
    assert!(
        matches!(
            resp,
            Response::Error {
                id: 5,
                code: ErrorCode::UnsupportedVersion,
                ..
            }
        ),
        "wrong version: {resp:?}"
    );

    // Unknown kind.
    let resp = raw_call(addr, r#"{"v": 1, "id": 6, "kind": "transmogrify"}"#);
    assert!(
        matches!(
            resp,
            Response::Error {
                id: 6,
                code: ErrorCode::BadRequest,
                ..
            }
        ),
        "unknown kind: {resp:?}"
    );

    // Nesting deeper than the server's limit.
    let deep = format!(
        r#"{{"v": 1, "id": 7, "kind": "solve", "instance": {}}}"#,
        "[".repeat(20).to_string() + &"]".repeat(20)
    );
    let resp = raw_call(addr, &deep);
    assert!(
        matches!(
            resp,
            Response::Error {
                code: ErrorCode::TooDeep,
                ..
            }
        ),
        "deep nesting: {resp:?}"
    );

    // Oversized frame: refused with a typed error, then disconnect.
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    let big = format!(r#"{{"v":1,"id":8,"pad":"{}"}}"#, "x".repeat(8192));
    write_frame(&mut stream, &big, 64 << 20).unwrap();
    let reply = read_frame(&mut stream, 64 << 20).unwrap().unwrap();
    let resp: Response = bss_json::decode(&reply).unwrap();
    assert!(
        matches!(
            resp,
            Response::Error {
                code: ErrorCode::TooLarge,
                ..
            }
        ),
        "oversized frame: {resp:?}"
    );

    // Test ops are refused when not enabled.
    let resp = raw_call(addr, r#"{"v": 1, "id": 9, "kind": "sleep", "ms": 10}"#);
    assert!(
        matches!(
            resp,
            Response::Error {
                id: 9,
                code: ErrorCode::BadRequest,
                ..
            }
        ),
        "test op: {resp:?}"
    );

    // A model-violating instance (zero machines) gets InvalidInstance —
    // classified structurally from the decode error's type, so exactly
    // this code, not a BadRequest fallback.
    let bad_instance = r#"{"v":1,"id":10,"kind":"solve","variant":"NonPreemptive",
        "algorithm":"two-approx",
        "instance":{"machines":0,"setups":[1],"jobs":[{"class":0,"time":1}]}}"#;
    let resp = raw_call(addr, bad_instance);
    assert!(
        matches!(
            resp,
            Response::Error {
                id: 10,
                code: ErrorCode::InvalidInstance,
                ..
            }
        ),
        "invalid instance: {resp:?}"
    );

    // A malformed *shape* inside the instance object (jobs not an array)
    // stays BadRequest even though the message mentions the field.
    let bad_shape = r#"{"v":1,"id":11,"kind":"solve","variant":"NonPreemptive",
        "algorithm":"two-approx",
        "instance":{"machines":1,"setups":[1],"jobs":"nope"}}"#;
    let resp = raw_call(addr, bad_shape);
    assert!(
        matches!(
            resp,
            Response::Error {
                id: 11,
                code: ErrorCode::BadRequest,
                ..
            }
        ),
        "malformed instance shape: {resp:?}"
    );

    // The server is still healthy after all the abuse.
    let mut client = Client::connect(addr).unwrap();
    client.ping().unwrap();
    server.shutdown();
}

#[test]
fn oversized_response_gets_a_typed_error_and_keeps_the_connection() {
    use bss_serve::protocol::SolveRequest;

    let instance = bss_gen::uniform(80, 6, 3, 2024);
    let request = |id: u64, want_schedule: bool| {
        bss_json::encode_pretty(&bss_serve::Request::Solve(Box::new(SolveRequest {
            id,
            instance: instance.clone(),
            variant: Variant::Splittable,
            algo: Algorithm::ThreeHalves,
            deadline_ms: None,
            work_budget: None,
            want_schedule,
        })))
    };
    let req_text = request(1, true);
    // Precondition: the schedule-carrying response really is bigger than
    // the request, so a frame bound can sit between the two.
    let local = solve(&instance, Variant::Splittable, Algorithm::ThreeHalves);
    let resp_text = bss_json::encode_pretty(&Response::Solved {
        id: 1,
        cached: false,
        solution: WireSolution::of(&local, true),
    });
    let max_frame_bytes = req_text.len() + 64;
    assert!(
        resp_text.len() > max_frame_bytes,
        "precondition: response ({}) must exceed the frame bound ({})",
        resp_text.len(),
        max_frame_bytes
    );

    let server = test_server(ServeConfig {
        workers: 1,
        max_frame_bytes,
        ..ServeConfig::default()
    });
    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
    write_frame(&mut stream, &req_text, 64 << 20).unwrap();
    let reply = read_frame(&mut stream, 64 << 20).unwrap().unwrap();
    let resp: Response = bss_json::decode(&reply).unwrap();
    assert!(
        matches!(
            resp,
            Response::Error {
                id: 1,
                code: ErrorCode::TooLarge,
                ..
            }
        ),
        "oversized response must come back as a typed error, got {resp:?}"
    );

    // The oversized payload never hit the wire, so the same connection
    // stays framed and usable: the schedule-free retry fits and succeeds.
    write_frame(&mut stream, &request(2, false), 64 << 20).unwrap();
    let reply = read_frame(&mut stream, 64 << 20).unwrap().unwrap();
    let resp: Response = bss_json::decode(&reply).unwrap();
    assert!(
        matches!(resp, Response::Solved { id: 2, .. }),
        "connection must survive an oversized response, got {resp:?}"
    );
    server.shutdown();
}

#[test]
fn solve_after_shutdown_gets_a_typed_error_not_a_hang() {
    let server = test_server(small_config());
    let addr = server.addr();
    // Both connections are accepted *before* shutdown; their detached
    // connection threads keep serving afterwards.
    let mut survivor = Client::connect(addr).unwrap();
    let mut closer = Client::connect(addr).unwrap();
    closer.shutdown_server().unwrap();

    // The shutdown flag is up. Admission control reads it under the gate's
    // lock, so this cache miss must be refused with a typed error — never
    // left waiting for a slot on a server that has stopped admitting,
    // which would hang this call.
    let instance = bss_gen::uniform(10, 2, 2, 3);
    match survivor.solve(
        &instance,
        Variant::Splittable,
        Algorithm::TwoApprox,
        SolveOptions::default(),
    ) {
        Err(ClientError::Server {
            code: ErrorCode::Internal,
            message,
        }) => assert!(
            message.contains("shutting down"),
            "unexpected internal error: {message}"
        ),
        other => panic!("expected a typed shutting-down error, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn ping_stats_and_shutdown_roundtrip() {
    let server = test_server(small_config());
    let mut client = Client::connect(server.addr()).unwrap();
    client.ping().unwrap();

    let instance = bss_gen::uniform(15, 3, 2, 55);
    client
        .solve(
            &instance,
            Variant::Splittable,
            Algorithm::TwoApprox,
            SolveOptions::default(),
        )
        .unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.solved, 1);
    assert_eq!(stats.workers, 2);
    assert_eq!(stats.cache.misses, 1);

    client.shutdown_server().unwrap();
    server.shutdown();

    // A post-shutdown solve on a fresh connection must fail, not hang.
    match Client::connect(&format!("127.0.0.1:1")) {
        Err(ClientError::Io(_)) => {}
        Err(other) => panic!("unexpected error kind: {other}"),
        Ok(_) => panic!("connected to a port nothing listens on"),
    }
}

#[test]
fn request_pool_mix_produces_expected_cache_hit_rate() {
    // Loadgen's `distinct` knob drives the hit rate end to end.
    let server = test_server(small_config());
    let config = bss_serve::LoadgenConfig {
        addr: server.addr().to_string(),
        connections: 2,
        requests: 40,
        distinct: 10,
        jobs: 20,
        classes: 3,
        machines: 2,
        ..bss_serve::LoadgenConfig::default()
    };
    let report = bss_serve::loadgen::run(&config).unwrap();
    assert_eq!(report.solved, 40);
    assert_eq!(report.errors, 0);
    assert_eq!(report.shed, 0);
    // 10 distinct instances: at most 10 cold solves… but concurrent first
    // encounters can race past the cache, so allow a small margin.
    assert!(
        report.cached >= 25,
        "expected a high hit rate with distinct=10, requests=40; got {} cached",
        report.cached
    );
    assert_eq!(report.latency.len() as u64, report.solved);
    assert!(report.solves_per_sec() > 0.0);
    assert!(report.render().contains("throughput"));
    server.shutdown();
}
