//! The wire and file bytes, pinned.
//!
//! Every compact frame kind the protocol speaks and one pretty instance and
//! schedule file are written out here as literals. The encoder may change
//! how it produces them, never what it produces: a frame that differs by a
//! byte fails here before it reaches a peer or a committed file.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use bss_core::{solve, Algorithm, Completion, Interrupt, Solution};
use bss_instance::{Delta, Instance, Job, Variant};
use bss_json::frame::{read_frame, write_frame};
use bss_json::{FromJson, ToJson};
use bss_serve::protocol::{SessionRequest, SolveRequest};
use bss_serve::{
    spawn, CacheStats, Client, ErrorCode, Request, Response, ServeConfig, ServerStats,
    SolveOptions, SolveOutcome, WireSolution,
};

/// The instance of the pinned solved reply: two classes on two machines,
/// whose preemptive 3/2 schedule starts pieces at quarter times.
fn pinned_instance() -> Instance {
    let jobs = [(0, 81), (1, 31), (0, 59), (0, 54), (1, 11), (0, 81)]
        .map(|(class, time)| Job { class, time });
    Instance::from_parts(2, vec![4, 6], jobs.to_vec()).unwrap()
}

fn tiny_instance() -> Instance {
    let jobs = [(0, 4), (0, 5), (1, 2)].map(|(class, time)| Job { class, time });
    Instance::from_parts(2, vec![3, 1], jobs.to_vec()).unwrap()
}

fn pinned_solution() -> Solution {
    solve(
        &pinned_instance(),
        Variant::Preemptive,
        Algorithm::ThreeHalves,
    )
}

/// The first request a fresh [`Client`] sends for `pinned_instance`.
const SOLVE_FRAME: &str = r#"{"v":2,"id":1,"kind":"solve","variant":"Preemptive","algorithm":"three-halves","schedule":true,"instance":{"machines":2,"setups":[4,6],"jobs":[0,81,1,31,0,59,0,54,1,11,0,81]}}"#;

/// The server's reply to [`SOLVE_FRAME`] on a cache miss.
const SOLVED_FRAME: &str = r#"{"v":2,"id":1,"status":"ok","cached":false,"solution":{"makespan":{"num":981,"den":4},"accepted":{"num":327,"den":2},"ratio_bound":{"num":3,"den":2},"certificate":{"num":327,"den":2},"probes":1,"completion":"full","schedule":{"machines":2,"placements":[0,327,4,4,1,0,null,0,343,4,81,1,0,0,0,667,4,59,1,0,2,0,903,4,39,2,0,3,1,311,4,4,1,0,null,1,327,4,69,2,0,3,1,465,4,81,1,0,5,1,789,4,6,1,1,null,1,813,4,31,1,1,1,1,937,4,11,1,1,4]}}}"#;

/// The second request a fresh [`Client`] sends: a session on `tiny_instance`.
const SESSION_FRAME: &str = r#"{"v":2,"id":2,"kind":"session","variant":"NonPreemptive","algorithm":"portfolio","instance":{"machines":2,"setups":[3,1],"jobs":[0,4,0,5,1,2]}}"#;

fn requests() -> Vec<(Request, &'static str)> {
    vec![
        (
            Request::Solve(Box::new(SolveRequest {
                id: 1,
                instance: pinned_instance(),
                variant: Variant::Preemptive,
                algo: Algorithm::ThreeHalves,
                deadline_ms: None,
                work_budget: None,
                want_schedule: true,
            })),
            SOLVE_FRAME,
        ),
        (
            Request::Session(Box::new(SessionRequest {
                id: 2,
                instance: tiny_instance(),
                variant: Variant::NonPreemptive,
                algo: Algorithm::Portfolio,
            })),
            SESSION_FRAME,
        ),
        (
            Request::Solve(Box::new(SolveRequest {
                id: 7,
                instance: tiny_instance(),
                variant: Variant::Splittable,
                algo: Algorithm::EpsilonSearch { eps_log2: 10 },
                deadline_ms: Some(50),
                work_budget: Some(1 << 40),
                want_schedule: false,
            })),
            r#"{"v":2,"id":7,"kind":"solve","variant":"Splittable","algorithm":"eps:10","deadline_ms":50,"work_budget":1099511627776,"schedule":false,"instance":{"machines":2,"setups":[3,1],"jobs":[0,4,0,5,1,2]}}"#,
        ),
        (
            Request::Solve(Box::new(SolveRequest {
                id: u64::MAX,
                instance: tiny_instance(),
                variant: Variant::NonPreemptive,
                algo: Algorithm::TwoApprox,
                deadline_ms: Some(0),
                work_budget: None,
                want_schedule: false,
            })),
            r#"{"v":2,"id":18446744073709551615,"kind":"solve","variant":"NonPreemptive","algorithm":"two-approx","deadline_ms":0,"schedule":false,"instance":{"machines":2,"setups":[3,1],"jobs":[0,4,0,5,1,2]}}"#,
        ),
        (Request::Ping { id: 3 }, r#"{"v":2,"id":3,"kind":"ping"}"#),
        (Request::Stats { id: 4 }, r#"{"v":2,"id":4,"kind":"stats"}"#),
        (
            Request::Shutdown { id: 5 },
            r#"{"v":2,"id":5,"kind":"shutdown"}"#,
        ),
        (
            Request::Sleep { id: 6, ms: 25 },
            r#"{"v":2,"id":6,"kind":"sleep","ms":25}"#,
        ),
        (
            Request::Delta {
                id: 12,
                delta: Delta::AddJob { class: 1, time: 9 },
            },
            r#"{"v":2,"id":12,"kind":"delta","op":"add-job","class":1,"time":9}"#,
        ),
        (
            Request::Delta {
                id: 13,
                delta: Delta::RemoveJob { job: 2 },
            },
            r#"{"v":2,"id":13,"kind":"delta","op":"remove-job","job":2}"#,
        ),
        (
            Request::Delta {
                id: 14,
                delta: Delta::Retime { job: 0, time: 3 },
            },
            r#"{"v":2,"id":14,"kind":"delta","op":"retime","job":0,"time":3}"#,
        ),
        (
            Request::Resolve {
                id: 15,
                want_schedule: true,
            },
            r#"{"v":2,"id":15,"kind":"resolve","schedule":true}"#,
        ),
    ]
}

fn responses() -> Vec<(Response, &'static str)> {
    let sol = pinned_solution();
    vec![
        (
            Response::Solved {
                id: 1,
                cached: false,
                solution: WireSolution::of(&sol, true),
            },
            SOLVED_FRAME,
        ),
        (
            Response::Solved {
                id: 9,
                cached: true,
                solution: WireSolution {
                    completion: Completion::Degraded(Interrupt::Deadline),
                    ..WireSolution::of(&sol, false)
                },
            },
            r#"{"v":2,"id":9,"status":"ok","cached":true,"solution":{"makespan":{"num":981,"den":4},"accepted":{"num":327,"den":2},"ratio_bound":{"num":3,"den":2},"certificate":{"num":327,"den":2},"probes":1,"completion":"degraded:deadline"}}"#,
        ),
        (
            Response::Shed {
                id: 9,
                queued: 128,
                capacity: 128,
            },
            r#"{"v":2,"id":9,"status":"shed","queued":128,"capacity":128}"#,
        ),
        (
            Response::Error {
                id: 0,
                code: ErrorCode::BadRequest,
                message: "expected `,` or `}` in object at byte 17: \"a\"\n\t\u{1}é".into(),
            },
            r#"{"v":2,"id":0,"status":"error","code":"bad-request","message":"expected `,` or `}` in object at byte 17: \"a\"\n\t\u0001é"}"#,
        ),
        (
            Response::Pong { id: 1 },
            r#"{"v":2,"id":1,"status":"pong"}"#,
        ),
        (
            Response::Stats {
                id: 2,
                stats: ServerStats {
                    solved: 10,
                    shed: 1,
                    errors: 0,
                    cache: CacheStats {
                        hits: 5,
                        misses: 5,
                        evictions: 2,
                        collisions: 1,
                        len: 3,
                    },
                    workers: 4,
                },
            },
            r#"{"v":2,"id":2,"status":"stats","stats":{"solved":10,"shed":1,"errors":0,"cache_hits":5,"cache_misses":5,"cache_evictions":2,"cache_collisions":1,"cache_len":3,"workers":4}}"#,
        ),
        (
            Response::Session {
                id: 4,
                jobs: 13,
                content_hash: u64::MAX,
            },
            r#"{"v":2,"id":4,"status":"session","jobs":13,"content_hash":18446744073709551615}"#,
        ),
        (Response::Bye { id: 3 }, r#"{"v":2,"id":3,"status":"bye"}"#),
    ]
}

/// `pinned_instance().to_json()`.
const INSTANCE_FILE: &str = r#"{
  "machines": 2,
  "setups": [
    4,
    6
  ],
  "jobs": [
    {
      "class": 0,
      "time": 81
    },
    {
      "class": 1,
      "time": 31
    },
    {
      "class": 0,
      "time": 59
    },
    {
      "class": 0,
      "time": 54
    },
    {
      "class": 1,
      "time": 11
    },
    {
      "class": 0,
      "time": 81
    }
  ]
}"#;

/// `pinned_solution().schedule().to_json()`.
const SCHEDULE_FILE: &str = r#"{
  "machines": 2,
  "placements": [
    {
      "machine": 0,
      "start": {
        "num": 327,
        "den": 4
      },
      "len": {
        "num": 4,
        "den": 1
      },
      "kind": {
        "Setup": 0
      }
    },
    {
      "machine": 0,
      "start": {
        "num": 343,
        "den": 4
      },
      "len": {
        "num": 81,
        "den": 1
      },
      "kind": {
        "Piece": {
          "job": 0,
          "class": 0
        }
      }
    },
    {
      "machine": 0,
      "start": {
        "num": 667,
        "den": 4
      },
      "len": {
        "num": 59,
        "den": 1
      },
      "kind": {
        "Piece": {
          "job": 2,
          "class": 0
        }
      }
    },
    {
      "machine": 0,
      "start": {
        "num": 903,
        "den": 4
      },
      "len": {
        "num": 39,
        "den": 2
      },
      "kind": {
        "Piece": {
          "job": 3,
          "class": 0
        }
      }
    },
    {
      "machine": 1,
      "start": {
        "num": 311,
        "den": 4
      },
      "len": {
        "num": 4,
        "den": 1
      },
      "kind": {
        "Setup": 0
      }
    },
    {
      "machine": 1,
      "start": {
        "num": 327,
        "den": 4
      },
      "len": {
        "num": 69,
        "den": 2
      },
      "kind": {
        "Piece": {
          "job": 3,
          "class": 0
        }
      }
    },
    {
      "machine": 1,
      "start": {
        "num": 465,
        "den": 4
      },
      "len": {
        "num": 81,
        "den": 1
      },
      "kind": {
        "Piece": {
          "job": 5,
          "class": 0
        }
      }
    },
    {
      "machine": 1,
      "start": {
        "num": 789,
        "den": 4
      },
      "len": {
        "num": 6,
        "den": 1
      },
      "kind": {
        "Setup": 1
      }
    },
    {
      "machine": 1,
      "start": {
        "num": 813,
        "den": 4
      },
      "len": {
        "num": 31,
        "den": 1
      },
      "kind": {
        "Piece": {
          "job": 1,
          "class": 1
        }
      }
    },
    {
      "machine": 1,
      "start": {
        "num": 937,
        "den": 4
      },
      "len": {
        "num": 11,
        "den": 1
      },
      "kind": {
        "Piece": {
          "job": 4,
          "class": 1
        }
      }
    }
  ]
}"#;

/// Checks that `value` encodes to `frame`, that `frame` decodes and encodes
/// back to itself, and that the pretty form is the pretty print of the
/// frame's JSON tree.
fn assert_pinned<T: ToJson + FromJson>(value: &T, frame: &str) {
    assert_eq!(bss_json::encode(value), frame);
    let back: T = bss_json::decode(frame).unwrap();
    assert_eq!(bss_json::encode(&back), frame);
    let tree = bss_json::parse(frame).unwrap();
    let pretty = bss_json::encode_pretty(value);
    assert_eq!(bss_json::parse(&pretty).unwrap(), tree);
    assert_eq!(pretty, bss_json::encode_pretty(&back));
}

#[test]
fn every_request_kind_encodes_to_its_pinned_frame() {
    for (request, frame) in requests() {
        assert_pinned(&request, frame);
    }
}

#[test]
fn every_response_kind_encodes_to_its_pinned_frame() {
    let sol = pinned_solution();
    assert!(
        sol.schedule()
            .placements()
            .iter()
            .any(|p| p.start.denom() > 1),
        "the pinned reply must carry fractional starts"
    );
    for (response, frame) in responses() {
        assert_pinned(&response, frame);
    }
}

#[test]
fn instance_and_schedule_files_are_pinned() {
    let instance = pinned_instance();
    assert_eq!(instance.to_json(), INSTANCE_FILE);
    assert_eq!(Instance::from_json(INSTANCE_FILE).unwrap(), instance);
    let sol = pinned_solution();
    assert_eq!(sol.schedule().to_json(), SCHEDULE_FILE);
    let back = bss_schedule::Schedule::from_json(SCHEDULE_FILE).unwrap();
    assert_eq!(&back, sol.schedule());
    assert_eq!(back.to_json(), SCHEDULE_FILE);
}

fn send_raw(conn: &mut TcpStream, frame: &str) -> String {
    write_frame(conn, frame, usize::MAX).unwrap();
    read_frame(conn, usize::MAX)
        .unwrap()
        .expect("a reply frame")
}

#[test]
fn the_server_writes_the_pinned_reply_on_a_miss_and_a_hit() {
    let server = spawn(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut conn = TcpStream::connect(server.addr()).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    assert_eq!(send_raw(&mut conn, SOLVE_FRAME), SOLVED_FRAME);
    let hit = SOLVED_FRAME.replacen(r#""cached":false"#, r#""cached":true"#, 1);
    assert_eq!(send_raw(&mut conn, SOLVE_FRAME), hit);
    drop(conn);
    server.shutdown();
}

#[test]
fn the_client_writes_the_pinned_requests() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let peer = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().unwrap();
        let solve = read_frame(&mut conn, usize::MAX).unwrap().unwrap();
        write_frame(&mut conn, SOLVED_FRAME, usize::MAX).unwrap();
        let session = read_frame(&mut conn, usize::MAX).unwrap().unwrap();
        let ack = r#"{"v":2,"id":2,"status":"session","jobs":3,"content_hash":1}"#;
        write_frame(&mut conn, ack, usize::MAX).unwrap();
        let mut rest = Vec::new();
        conn.read_to_end(&mut rest).unwrap();
        conn.flush().unwrap();
        (solve, session)
    });
    let mut client = Client::connect(addr).unwrap();
    let opts = SolveOptions {
        want_schedule: true,
        ..SolveOptions::default()
    };
    let outcome = client
        .solve(
            &pinned_instance(),
            Variant::Preemptive,
            Algorithm::ThreeHalves,
            opts,
        )
        .unwrap();
    let SolveOutcome::Solved { cached, solution } = outcome else {
        panic!("the pinned reply is a solved one");
    };
    assert!(!cached);
    assert_eq!(solution, WireSolution::of(&pinned_solution(), true));
    let ack = client
        .session(
            &tiny_instance(),
            Variant::NonPreemptive,
            Algorithm::Portfolio,
        )
        .unwrap();
    assert_eq!((ack.jobs, ack.content_hash), (3, 1));
    drop(client);
    let (solve, session) = peer.join().unwrap();
    assert_eq!(solve, SOLVE_FRAME);
    assert_eq!(session, SESSION_FRAME);
}
