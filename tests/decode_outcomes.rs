//! Decode outcomes, pinned as literals.
//!
//! For every input below the test records what decoding it yields: the
//! decoded value (as its compact encoding), or the error (its kind and
//! message). A request frame is also sent to a running server, and the reply
//! is recorded: its status and id, and for an error its code and message. A
//! malformed instance or schedule file goes through the `bss` binary, whose
//! exit status and message are recorded too.
//!
//! The corpus holds every frame of `crates/serve/tests/pinned_bytes.rs`, as
//! it is, with its keys reordered and with whitespace between every token;
//! duplicate and unknown keys; table cells of every width up to past the
//! `i128` range; malformed tables; errors in every precedence position; and
//! nesting one level past the server's depth bound inside a key no decoder
//! reads. A decoder may change how it reaches an outcome, never which
//! outcome it reaches: an outcome that differs from its literal fails here.

use std::io::Write as _;
use std::net::TcpStream;
use std::process::Command;
use std::time::Duration;

use batch_setup_scheduling::schedule::{CompactSchedule, Schedule};
use batch_setup_scheduling::seqdep::SeqDepInstance;
use batch_setup_scheduling::serve::{spawn, Request, Response, ServeConfig, ServerHandle};
use bss_instance::Instance;
use bss_json::frame::{read_frame, write_frame};
use bss_json::{FromJson, ToJson, Value};

/// The request frames of `pinned_bytes.rs`.
const REQUEST_FRAMES: [&str; 12] = [
    r#"{"v":2,"id":1,"kind":"solve","variant":"Preemptive","algorithm":"three-halves","schedule":true,"instance":{"machines":2,"setups":[4,6],"jobs":[0,81,1,31,0,59,0,54,1,11,0,81]}}"#,
    r#"{"v":2,"id":2,"kind":"session","variant":"NonPreemptive","algorithm":"portfolio","instance":{"machines":2,"setups":[3,1],"jobs":[0,4,0,5,1,2]}}"#,
    r#"{"v":2,"id":7,"kind":"solve","variant":"Splittable","algorithm":"eps:10","deadline_ms":50,"work_budget":1099511627776,"schedule":false,"instance":{"machines":2,"setups":[3,1],"jobs":[0,4,0,5,1,2]}}"#,
    r#"{"v":2,"id":18446744073709551615,"kind":"solve","variant":"NonPreemptive","algorithm":"two-approx","deadline_ms":0,"schedule":false,"instance":{"machines":2,"setups":[3,1],"jobs":[0,4,0,5,1,2]}}"#,
    r#"{"v":2,"id":3,"kind":"ping"}"#,
    r#"{"v":2,"id":4,"kind":"stats"}"#,
    r#"{"v":2,"id":5,"kind":"shutdown"}"#,
    r#"{"v":2,"id":6,"kind":"sleep","ms":25}"#,
    r#"{"v":2,"id":12,"kind":"delta","op":"add-job","class":1,"time":9}"#,
    r#"{"v":2,"id":13,"kind":"delta","op":"remove-job","job":2}"#,
    r#"{"v":2,"id":14,"kind":"delta","op":"retime","job":0,"time":3}"#,
    r#"{"v":2,"id":15,"kind":"resolve","schedule":true}"#,
];

/// The response frames of `pinned_bytes.rs`.
const RESPONSE_FRAMES: [&str; 8] = [
    r#"{"v":2,"id":1,"status":"ok","cached":false,"solution":{"makespan":{"num":981,"den":4},"accepted":{"num":327,"den":2},"ratio_bound":{"num":3,"den":2},"certificate":{"num":327,"den":2},"probes":1,"completion":"full","schedule":{"machines":2,"placements":[0,327,4,4,1,0,null,0,343,4,81,1,0,0,0,667,4,59,1,0,2,0,903,4,39,2,0,3,1,311,4,4,1,0,null,1,327,4,69,2,0,3,1,465,4,81,1,0,5,1,789,4,6,1,1,null,1,813,4,31,1,1,1,1,937,4,11,1,1,4]}}}"#,
    r#"{"v":2,"id":9,"status":"ok","cached":true,"solution":{"makespan":{"num":981,"den":4},"accepted":{"num":327,"den":2},"ratio_bound":{"num":3,"den":2},"certificate":{"num":327,"den":2},"probes":1,"completion":"degraded:deadline"}}"#,
    r#"{"v":2,"id":9,"status":"shed","queued":128,"capacity":128}"#,
    r#"{"v":2,"id":0,"status":"error","code":"bad-request","message":"expected `,` or `}` in object at byte 17: \"a\"\n\t\u0001é"}"#,
    r#"{"v":2,"id":1,"status":"pong"}"#,
    r#"{"v":2,"id":2,"status":"stats","stats":{"solved":10,"shed":1,"errors":0,"cache_hits":5,"cache_misses":5,"cache_evictions":2,"cache_collisions":1,"cache_len":3,"workers":4}}"#,
    r#"{"v":2,"id":4,"status":"session","jobs":13,"content_hash":18446744073709551615}"#,
    r#"{"v":2,"id":3,"status":"bye"}"#,
];

/// `frame` with the fields of every object in reverse order.
fn reordered(frame: &str) -> String {
    fn reverse(value: Value) -> Value {
        match value {
            Value::Object(fields) => Value::Object(
                fields
                    .into_iter()
                    .rev()
                    .map(|(key, v)| (key, reverse(v)))
                    .collect(),
            ),
            Value::Array(items) => Value::Array(items.into_iter().map(reverse).collect()),
            other => other,
        }
    }
    bss_json::encode(&reverse(bss_json::parse(frame).unwrap()))
}

/// `frame` with whitespace of all four kinds between every two tokens.
fn spaced(frame: &str) -> String {
    let mut out = String::from(" \r\n");
    let (mut in_string, mut escaped) = (false, false);
    for c in frame.chars() {
        if in_string {
            out.push(c);
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
                out.push_str(" \t");
            }
            continue;
        }
        match c {
            '"' => {
                out.push_str("\n ");
                out.push(c);
                in_string = true;
            }
            '{' | '}' | '[' | ']' | ',' | ':' => {
                out.push_str(" \t");
                out.push(c);
                out.push_str("\r\n ");
            }
            _ => out.push(c),
        }
    }
    out.push_str("\n\t");
    out
}

/// What decoding `text` as a `T` yields.
fn decoded<T: FromJson + ToJson>(text: &str) -> String {
    match bss_json::decode::<T>(text) {
        Ok(value) => bss_json::encode(&value),
        Err(err) => format!("{:?}: {err}", err.kind()),
    }
}

/// A server on a loopback port and one connection to it.
struct Served {
    server: Option<ServerHandle>,
    conn: TcpStream,
}

impl Served {
    fn new() -> Self {
        let server = spawn(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        })
        .unwrap();
        let conn = TcpStream::connect(server.addr()).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        Served {
            server: Some(server),
            conn,
        }
    }

    /// The reply to `frame`: its status and id, and an error's code and
    /// message.
    fn reply(&mut self, frame: &str) -> String {
        write_frame(&mut self.conn, frame, usize::MAX).unwrap();
        let reply = read_frame(&mut self.conn, usize::MAX).unwrap().unwrap();
        match bss_json::decode::<Response>(&reply).unwrap() {
            Response::Solved { id, cached, .. } => format!("ok {id} cached={cached}"),
            Response::Shed { id, .. } => format!("shed {id}"),
            Response::Error { id, code, message } => format!("error {id} {code}: {message}"),
            Response::Pong { id } => format!("pong {id}"),
            Response::Stats { id, .. } => format!("stats {id}"),
            Response::Session { id, jobs, .. } => format!("session {id} jobs={jobs}"),
            Response::Bye { id } => format!("bye {id}"),
        }
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            let _ = self.conn.shutdown(std::net::Shutdown::Both);
            server.shutdown();
        }
    }
}

/// Checks every `(case, outcome)` against its literal. On a mismatch the
/// message lists every outcome as the literal table it should be.
fn assert_outcomes(actual: &[(String, String)], expected: &[(&str, &str)]) {
    let same = actual.len() == expected.len()
        && actual
            .iter()
            .zip(expected)
            .all(|((case, outcome), (c, o))| case == c && outcome == o);
    if same {
        return;
    }
    let mut table = String::new();
    for (case, outcome) in actual {
        table.push_str(&format!("    ({case:?}, {outcome:?}),\n"));
    }
    for (i, ((case, outcome), (c, o))) in actual.iter().zip(expected).enumerate() {
        if case != c || outcome != o {
            panic!(
                "outcome {i} differs:\n  case     {case:?}\n  got      {outcome:?}\n  \
                 expected {o:?} (case {c:?})\nall outcomes:\n{table}"
            );
        }
    }
    panic!(
        "{} outcomes, {} literals\nall outcomes:\n{table}",
        actual.len(),
        expected.len()
    );
}

/// A `solve` request for a two-machine, two-class instance whose `jobs`
/// table is `jobs`.
fn solve_with_jobs(id: u64, jobs: &str) -> String {
    format!(
        r#"{{"v":2,"id":{id},"kind":"solve","variant":"NonPreemptive","algorithm":"two-approx","schedule":false,"instance":{{"machines":2,"setups":[3,1],"jobs":[{jobs}]}}}}"#
    )
}

/// Request frames beyond the pinned ones, each with a short name.
fn malformed_requests() -> Vec<(String, String)> {
    let mut cases: Vec<(String, String)> = Vec::new();
    let mut add = |name: &str, frame: String| cases.push((name.to_string(), frame));
    // Table cells: every width from 19 digits to past the i128 range.
    for cell in [
        "1000000000000000000",
        "-1000000000000000000",
        "18446744073709551615",
        "18446744073709551616",
        "19807040628566084398385987584",
        "-19807040628566084398385987584",
        "99999999999999999999999999999999999999",
        "170141183460469231731687303715884105727",
        "-170141183460469231731687303715884105728",
        "170141183460469231731687303715884105728",
        "-170141183460469231731687303715884105729",
        "1234567890123456789012345678901234567890",
    ] {
        add(
            &format!("time {cell}"),
            solve_with_jobs(21, &format!("0,4,0,5,1,{cell}")),
        );
        add(
            &format!("class {cell}"),
            solve_with_jobs(22, &format!("{cell},4,0,5,1,2")),
        );
    }
    for (name, jobs) in [
        ("valid", "0,4,0,5,1,2"),
        ("odd length", "0,4,0,5,1"),
        ("odd length, bad cell", "0,\"x\",0,5,1"),
        ("negative time", "0,-4,0,5,1,2"),
        ("negative class", "-1,4,0,5,1,2"),
        ("string class", "\"0\",4,0,5,1,2"),
        ("float time", "0,4.0,0,5,1,2"),
        ("exponent time", "0,4e0,0,5,1,2"),
        ("null time", "0,null,0,5,1,2"),
        ("bool time", "0,true,0,5,1,2"),
        ("array cell", "0,[4],0,5,1,2"),
        ("object cell", "0,{\"t\":4},0,5,1,2"),
        ("class error before time error", "null,\"x\",0,5,1,2"),
        ("first bad row wins", "0,\"x\",0,-1,1,2"),
        ("zero time", "0,0,0,5,1,2"),
        ("unknown class", "0,4,0,5,2,2"),
        ("empty class", "0,4,0,5"),
        ("empty table", ""),
        ("syntax error after bad cell", "0,\"x\",0,5,1,2,"),
        ("leading zeros", "00,004,0,5,1,2"),
        ("minus zero", "-0,4,0,5,1,2"),
    ] {
        add(&format!("jobs: {name}"), solve_with_jobs(23, jobs));
    }
    let instance = r#"{"machines":2,"setups":[3,1],"jobs":[0,4,0,5,1,2]}"#;
    let solve = |id: u64, fields: &str, instance: &str| {
        format!(
            r#"{{"v":2,"id":{id},"kind":"solve"{fields},"schedule":false,"instance":{instance}}}"#
        )
    };
    let params = r#","variant":"NonPreemptive","algorithm":"two-approx""#;
    for (name, inst) in [
        (
            "jobs not an array",
            r#"{"machines":2,"setups":[3,1],"jobs":{"a":1}}"#,
        ),
        ("jobs missing", r#"{"machines":2,"setups":[3,1]}"#),
        (
            "machines missing",
            r#"{"setups":[3,1],"jobs":[0,4,0,5,1,2]}"#,
        ),
        (
            "machines missing, bad jobs",
            r#"{"setups":[3,1],"jobs":[0]}"#,
        ),
        (
            "bad setups, bad jobs",
            r#"{"machines":2,"setups":[3,"1"],"jobs":[0]}"#,
        ),
        (
            "setups not an array",
            r#"{"machines":2,"setups":3,"jobs":[0,4]}"#,
        ),
        (
            "negative setup",
            r#"{"machines":2,"setups":[3,-1],"jobs":[0,4,1,2]}"#,
        ),
        (
            "zero machines",
            r#"{"machines":0,"setups":[3,1],"jobs":[0,4,1,2]}"#,
        ),
        (
            "machines 2^64",
            r#"{"machines":18446744073709551616,"setups":[3],"jobs":[0,4]}"#,
        ),
        ("no classes", r#"{"machines":1,"setups":[],"jobs":[]}"#),
        ("instance an array", "[2,[3,1],[0,4,1,2]]"),
        ("instance null", "null"),
        (
            "duplicate jobs, first valid",
            r#"{"machines":2,"setups":[3,1],"jobs":[0,4,1,2],"jobs":[0]}"#,
        ),
        (
            "duplicate jobs, first bad",
            r#"{"machines":2,"setups":[3,1],"jobs":[0],"jobs":[0,4,1,2]}"#,
        ),
        (
            "unknown keys",
            r#"{"x":[{"y":[]}],"machines":2,"setups":[3,1],"z":{},"jobs":[0,4,1,2]}"#,
        ),
    ] {
        add(&format!("instance: {name}"), solve(24, params, inst));
    }
    for (name, fields) in [
        ("variant missing", r#","algorithm":"two-approx""#),
        (
            "variant unknown",
            r#","variant":"Bogus","algorithm":"two-approx""#,
        ),
        (
            "variant a number",
            r#","variant":1,"algorithm":"two-approx""#,
        ),
        ("algorithm missing", r#","variant":"Preemptive""#),
        (
            "algorithm a number",
            r#","variant":"Preemptive","algorithm":3"#,
        ),
        (
            "algorithm unknown",
            r#","variant":"Preemptive","algorithm":"simplex""#,
        ),
        (
            "algorithm bad eps",
            r#","variant":"Preemptive","algorithm":"eps:x""#,
        ),
        (
            "deadline null",
            r#","variant":"Preemptive","algorithm":"two-approx","deadline_ms":null"#,
        ),
        (
            "deadline a string",
            r#","variant":"Preemptive","algorithm":"two-approx","deadline_ms":"5""#,
        ),
        (
            "work budget negative",
            r#","variant":"Preemptive","algorithm":"two-approx","work_budget":-1"#,
        ),
        (
            "work budget float",
            r#","variant":"Preemptive","algorithm":"two-approx","work_budget":1.5"#,
        ),
        (
            "variant before algorithm",
            r#","variant":"Bogus","algorithm":"simplex""#,
        ),
    ] {
        add(&format!("solve: {name}"), solve(25, fields, instance));
    }
    let bad_instance = r#"{"machines":2,"setups":[3,1],"jobs":[0]}"#;
    add(
        "solve: variant error before instance error",
        solve(
            26,
            r#","variant":"Bogus","algorithm":"two-approx""#,
            bad_instance,
        ),
    );
    add(
        "solve: deadline error before instance error",
        solve(
            26,
            r#","variant":"Preemptive","algorithm":"two-approx","deadline_ms":"5""#,
            bad_instance,
        ),
    );
    add(
        "solve: schedule null",
        format!(
            r#"{{"v":2,"id":27,"kind":"solve"{params},"schedule":null,"instance":{instance}}}"#
        ),
    );
    add(
        "solve: schedule a string, bad instance",
        format!(
            r#"{{"v":2,"id":27,"kind":"solve"{params},"schedule":"yes","instance":{bad_instance}}}"#
        ),
    );
    add(
        "solve: schedule absent",
        format!(r#"{{"v":2,"id":27,"kind":"solve"{params},"instance":{instance}}}"#),
    );
    add(
        "solve: instance missing",
        format!(r#"{{"v":2,"id":28,"kind":"solve"{params}}}"#),
    );
    add(
        "solve: duplicate instance, first valid",
        format!(
            r#"{{"v":2,"id":29,"kind":"solve"{params},"instance":{instance},"instance":{bad_instance}}}"#
        ),
    );
    add(
        "solve: duplicate instance, first bad",
        format!(
            r#"{{"v":2,"id":29,"kind":"solve"{params},"instance":{bad_instance},"instance":{instance}}}"#
        ),
    );
    add(
        "session: algorithm bad",
        format!(
            r#"{{"v":2,"id":30,"kind":"session","variant":"Splittable","algorithm":"x","instance":{instance}}}"#
        ),
    );
    add(
        "session: bad instance",
        format!(
            r#"{{"v":2,"id":30,"kind":"session","variant":"Splittable","algorithm":"eps:6","instance":{bad_instance}}}"#
        ),
    );
    add(
        "session: model violation",
        r#"{"v":2,"id":30,"kind":"session","variant":"Splittable","algorithm":"eps:6","instance":{"machines":2,"setups":[3,0],"jobs":[0,4,1,2]}}"#
            .to_string(),
    );

    // The envelope.
    for (name, frame) in [
        ("empty frame", ""),
        ("whitespace only", " \n"),
        ("trailing characters", r#"{"v":2,"id":7,"kind":"ping"} x"#),
        ("two documents", r#"{"v":2,"id":7,"kind":"ping"}{}"#),
        (
            "syntax error after a valid id",
            r#"{"v":2,"id":7,"kind":"ping",}"#,
        ),
        (
            "syntax error after a decode error",
            r#"{"v":2,"id":7,"kind":"fly","x":}"#,
        ),
        (
            "decode error after a valid id",
            r#"{"v":2,"id":7,"kind":"solve","variant":"Bogus","algorithm":"two-approx","instance":{"machines":2,"setups":[3,1],"jobs":[0,4,1,2]}}"#,
        ),
        ("an array", "[1,2]"),
        ("a string", r#""ping""#),
        ("a number", "2"),
        ("v missing", r#"{"id":7,"kind":"ping"}"#),
        ("v a string", r#"{"v":"2","id":7,"kind":"ping"}"#),
        ("v a float", r#"{"v":2.0,"id":7,"kind":"ping"}"#),
        ("v wrong", r#"{"v":1,"id":7,"kind":"ping"}"#),
        (
            "v huge",
            r#"{"v":170141183460469231731687303715884105727,"id":7,"kind":"ping"}"#,
        ),
        ("v wrong, id bad", r#"{"v":3,"id":-7,"kind":"ping"}"#),
        (
            "v wrong, bad table",
            r#"{"v":3,"id":5,"kind":"solve","variant":"Bogus","algorithm":"two-approx","instance":{"machines":2,"setups":[3,1],"jobs":[0]}}"#,
        ),
        (
            "v wrong, bad table first",
            r#"{"instance":{"jobs":[0],"setups":[3,1],"machines":2},"algorithm":"two-approx","variant":"Bogus","kind":"solve","id":5,"v":3}"#,
        ),
        ("id missing", r#"{"v":2,"kind":"ping"}"#),
        ("id negative", r#"{"v":2,"id":-1,"kind":"ping"}"#),
        ("id a string", r#"{"v":2,"id":"7","kind":"ping"}"#),
        (
            "id 2^64",
            r#"{"v":2,"id":18446744073709551616,"kind":"ping"}"#,
        ),
        ("id null", r#"{"v":2,"id":null,"kind":"ping"}"#),
        ("kind missing", r#"{"v":2,"id":7}"#),
        ("kind a number", r#"{"v":2,"id":7,"kind":5}"#),
        ("kind unknown", r#"{"v":2,"id":7,"kind":"fly"}"#),
        ("kind escaped", r#"{"v":2,"id":7,"kind":"p\u0069ng"}"#),
        ("key escaped", r#"{"\u0076":2,"id":7,"k\u0069nd":"ping"}"#),
        ("duplicate id", r#"{"v":2,"id":5,"kind":"ping","id":9}"#),
        (
            "duplicate v, first valid",
            r#"{"v":2,"v":3,"id":5,"kind":"ping"}"#,
        ),
        (
            "duplicate v, first wrong",
            r#"{"v":3,"v":2,"id":5,"kind":"ping"}"#,
        ),
        (
            "duplicate kind",
            r#"{"v":2,"id":5,"kind":"ping","kind":"fly"}"#,
        ),
        (
            "bad duplicate id",
            r#"{"v":2,"id":5,"kind":"fly","id":"x"}"#,
        ),
        (
            "unknown keys",
            r#"{"x":[1,{"y":[[],{}]},"s",-2.5e-3,true,false,null],"v":2,"id":4,"kind":"ping","z":{"a":{"b":[null,"é\n"]}}}"#,
        ),
        (
            "unknown key, syntax error inside",
            r#"{"v":2,"id":5,"kind":"ping","x":[1,{"y":tru}]}"#,
        ),
        (
            "unknown key, integer past i128",
            r#"{"v":2,"id":5,"kind":"ping","x":[1e5,170141183460469231731687303715884105728]}"#,
        ),
        (
            "unknown key, lone surrogate",
            r#"{"v":2,"id":5,"kind":"ping","x":"\ud800"}"#,
        ),
        (
            "unknown key, bad escape",
            r#"{"v":2,"id":5,"kind":"ping","x":"\q"}"#,
        ),
        (
            "unknown key, control character",
            "{\"v\":2,\"id\":5,\"kind\":\"ping\",\"x\":\"a\u{1}\"}",
        ),
        (
            "unknown key, bad number",
            r#"{"v":2,"id":5,"kind":"ping","x":-}"#,
        ),
        (
            "unknown key, bad fraction",
            r#"{"v":2,"id":5,"kind":"ping","x":1.}"#,
        ),
        (
            "unknown key, bad exponent",
            r#"{"v":2,"id":5,"kind":"ping","x":1e}"#,
        ),
        (
            "unknown key, unterminated",
            r#"{"v":2,"id":5,"kind":"ping","x":"abc"#,
        ),
        ("key not a string", r#"{"v":2,"id":5,"kind":"ping",7:1}"#),
        ("missing colon", r#"{"v":2,"id":5,"kind" "ping"}"#),
        ("unclosed array", r#"{"v":2,"id":5,"kind":"ping","x":[1,2}"#),
        ("sleep: ms missing", r#"{"v":2,"id":31,"kind":"sleep"}"#),
        (
            "sleep: ms negative",
            r#"{"v":2,"id":31,"kind":"sleep","ms":-5}"#,
        ),
        (
            "resolve: schedule a string",
            r#"{"v":2,"id":32,"kind":"resolve","schedule":"yes"}"#,
        ),
        (
            "resolve: schedule absent",
            r#"{"v":2,"id":32,"kind":"resolve"}"#,
        ),
        (
            "delta: op missing",
            r#"{"v":2,"id":33,"kind":"delta","class":1,"time":9}"#,
        ),
        (
            "delta: op a number",
            r#"{"v":2,"id":33,"kind":"delta","op":1}"#,
        ),
        (
            "delta: op unknown",
            r#"{"v":2,"id":33,"kind":"delta","op":"split"}"#,
        ),
        (
            "delta: class missing",
            r#"{"v":2,"id":33,"kind":"delta","op":"add-job","time":9}"#,
        ),
        (
            "delta: class before time",
            r#"{"v":2,"id":33,"kind":"delta","time":"9","op":"add-job","class":-1}"#,
        ),
        (
            "delta: job negative",
            r#"{"v":2,"id":33,"kind":"delta","op":"remove-job","job":-2}"#,
        ),
        (
            "delta: retime time a string",
            r#"{"v":2,"id":33,"kind":"delta","op":"retime","job":0,"time":"3"}"#,
        ),
        (
            "delta: time past u64",
            r#"{"v":2,"id":33,"kind":"delta","op":"retime","job":0,"time":18446744073709551616}"#,
        ),
    ] {
        add(name, frame.to_string());
    }
    // Depth: the server's bound is 64 containers, the top-level object
    // included.
    let nested = |levels: usize| "[".repeat(levels) + &"]".repeat(levels);
    add(
        "63 levels inside an unknown key",
        format!(r#"{{"v":2,"id":5,"kind":"ping","x":{}}}"#, nested(63)),
    );
    add(
        "64 levels inside an unknown key",
        format!(r#"{{"v":2,"id":5,"kind":"ping","x":{}}}"#, nested(64)),
    );
    add(
        "64 object levels inside an unknown key",
        format!(
            r#"{{"v":2,"id":5,"kind":"ping","x":{}1{}}}"#,
            r#"{"a":"#.repeat(64),
            "}".repeat(64)
        ),
    );
    add(
        "64 levels after a decode error",
        format!(r#"{{"v":2,"id":5,"kind":"fly","x":{}}}"#, nested(64)),
    );
    add(
        "64 levels after a bad table",
        format!(
            r#"{{"v":2,"id":5,"kind":"solve"{params},"instance":{bad_instance},"x":{}}}"#,
            nested(64)
        ),
    );
    cases
}

/// Response frames beyond the pinned ones, each with a short name.
fn malformed_responses() -> Vec<(String, String)> {
    let one = r#"{"num":1,"den":1}"#;
    let solved = |placements: &str| {
        format!(
            r#"{{"v":2,"id":1,"status":"ok","cached":false,"solution":{{"makespan":{one},"accepted":{one},"ratio_bound":{one},"certificate":{one},"probes":1,"completion":"full","schedule":{{"machines":2,"placements":[{placements}]}}}}}}"#
        )
    };
    let mut cases: Vec<(String, String)> = Vec::new();
    for (name, placements) in [
        ("valid", "0,0,1,3,1,0,null,0,3,1,9,2,0,1"),
        ("six values", "0,0,1,3,1,0"),
        ("eight values", "0,0,1,3,1,0,null,0"),
        ("eight values, bad cell", "\"m\",0,1,3,1,0,null,0"),
        ("start.den 0", "0,0,0,3,1,0,null"),
        ("start.den negative", "0,0,-1,3,1,0,null"),
        ("len.den 2^32", "0,0,1,3,4294967296,0,null"),
        ("len.den 2^32 + 1", "0,0,1,3,4294967297,0,null"),
        (
            "start.num 2^94",
            "1,19807040628566084398385987584,4294967296,3,2,4,null",
        ),
        (
            "start.num -2^94",
            "1,-19807040628566084398385987584,1,3,2,4,null",
        ),
        (
            "start.num 2^94 + 1",
            "0,19807040628566084398385987585,1,3,1,0,null",
        ),
        (
            "start.num -2^94 - 1",
            "0,-19807040628566084398385987585,1,3,1,0,null",
        ),
        (
            "len.num i128::MAX",
            "0,0,1,170141183460469231731687303715884105727,1,0,null",
        ),
        (
            "len.num past i128",
            "0,0,1,170141183460469231731687303715884105728,1,0,null",
        ),
        ("negative machine", "-1,0,1,3,1,0,null"),
        ("machine 2^64", "18446744073709551616,0,1,3,1,0,null"),
        ("null machine", "null,0,1,3,1,0,null"),
        ("string job", r#"0,0,1,3,1,0,"7""#),
        ("negative job", "0,0,1,3,1,0,-7"),
        ("float class", "0,0,1,3,1,0.5,null"),
        ("class before machine", "null,0,1,3,1,\"c\",null"),
        ("machine before start", "null,\"s\",1,3,1,0,null"),
        ("start before len", "0,0,0,3,0,0,null"),
        ("len before job", "0,0,1,3,0,0,\"j\""),
        ("first bad row wins", "0,0,1,3,1,0,\"j\",-1,0,1,3,1,0,null"),
        ("zero length", "0,2,1,0,1,0,3"),
        ("reducible", "0,4,8,6,4,0,3"),
        ("empty", ""),
    ] {
        cases.push((format!("placements: {name}"), solved(placements)));
    }
    let solution = |fields: &str| {
        format!(r#"{{"v":2,"id":1,"status":"ok","cached":true,"solution":{{{fields}}}}}"#)
    };
    let rationals =
        format!(r#""makespan":{one},"accepted":{one},"ratio_bound":{one},"certificate":{one}"#);
    for (name, fields) in [
        (
            "makespan missing",
            format!(
                r#""accepted":{one},"ratio_bound":{one},"certificate":{one},"probes":1,"completion":"full""#
            ),
        ),
        (
            "makespan den 0",
            format!(
                r#""makespan":{{"num":1,"den":0}},"accepted":{one},"ratio_bound":{one},"certificate":{one},"probes":1,"completion":"full""#
            ),
        ),
        (
            "makespan num missing",
            format!(
                r#""makespan":{{"den":2}},"accepted":{one},"ratio_bound":{one},"certificate":{one},"probes":1,"completion":"full""#
            ),
        ),
        (
            "makespan an array",
            format!(
                r#""makespan":[1,1],"accepted":{one},"ratio_bound":{one},"certificate":{one},"probes":1,"completion":"full""#
            ),
        ),
        (
            "probes negative",
            format!(r#"{rationals},"probes":-1,"completion":"full""#),
        ),
        (
            "completion a number",
            format!(r#"{rationals},"probes":1,"completion":1"#),
        ),
        (
            "completion unknown",
            format!(r#"{rationals},"probes":1,"completion":"partial""#),
        ),
        (
            "completion cancelled",
            format!(r#"{rationals},"probes":1,"completion":"cancelled""#),
        ),
        (
            "schedule null",
            format!(r#"{rationals},"probes":1,"completion":"full","schedule":null"#),
        ),
        (
            "schedule an array",
            format!(r#"{rationals},"probes":1,"completion":"full","schedule":[]"#),
        ),
        (
            "schedule machines missing",
            format!(
                r#"{rationals},"probes":1,"completion":"full","schedule":{{"placements":[0]}}"#
            ),
        ),
        (
            "placements missing",
            format!(r#"{rationals},"probes":1,"completion":"full","schedule":{{"machines":2}}"#),
        ),
        (
            "placements an object",
            format!(
                r#"{rationals},"probes":1,"completion":"full","schedule":{{"machines":2,"placements":{{}}}}"#
            ),
        ),
        (
            "probes before completion",
            format!(r#"{rationals},"probes":"x","completion":1"#),
        ),
        (
            "unknown keys",
            format!(r#""x":{{"y":[1]}},{rationals},"probes":1,"completion":"full","z":[[]]"#),
        ),
    ] {
        cases.push((format!("solution: {name}"), solution(&fields)));
    }
    for (name, frame) in [
        (
            "cached a string",
            r#"{"v":2,"id":1,"status":"ok","cached":"yes","solution":{"makespan":{"num":1,"den":1},"accepted":{"num":1,"den":1},"ratio_bound":{"num":1,"den":1},"certificate":{"num":1,"den":1},"probes":1,"completion":"full"}}"#,
        ),
        (
            "cached missing",
            r#"{"v":2,"id":1,"status":"ok","solution":{}}"#,
        ),
        (
            "solution missing",
            r#"{"v":2,"id":1,"status":"ok","cached":true}"#,
        ),
        ("v wrong", r#"{"v":3,"id":1,"status":"pong"}"#),
        ("v missing", r#"{"id":1,"status":"pong"}"#),
        ("id missing", r#"{"v":2,"status":"pong"}"#),
        ("status missing", r#"{"v":2,"id":1}"#),
        ("status a number", r#"{"v":2,"id":1,"status":0}"#),
        ("status unknown", r#"{"v":2,"id":1,"status":"maybe"}"#),
        (
            "shed capacity missing",
            r#"{"v":2,"id":1,"status":"shed","queued":1}"#,
        ),
        (
            "error code unknown",
            r#"{"v":2,"id":1,"status":"error","code":"oops","message":"m"}"#,
        ),
        (
            "error code a number",
            r#"{"v":2,"id":1,"status":"error","code":1,"message":"m"}"#,
        ),
        (
            "error message a number",
            r#"{"v":2,"id":1,"status":"error","code":"internal","message":5}"#,
        ),
        (
            "error message missing",
            r#"{"v":2,"id":1,"status":"error","code":"internal"}"#,
        ),
        (
            "stats field missing",
            r#"{"v":2,"id":1,"status":"stats","stats":{"solved":1}}"#,
        ),
        (
            "stats an array",
            r#"{"v":2,"id":1,"status":"stats","stats":[]}"#,
        ),
        (
            "session hash 2^64",
            r#"{"v":2,"id":1,"status":"session","jobs":1,"content_hash":18446744073709551616}"#,
        ),
        (
            "session jobs missing",
            r#"{"v":2,"id":1,"status":"session","content_hash":1}"#,
        ),
        (
            "duplicate status",
            r#"{"v":2,"id":1,"status":"pong","status":"bye"}"#,
        ),
        ("not an object", "[]"),
        (
            "syntax error after a decode error",
            r#"{"v":3,"id":1,"status":"pong",}"#,
        ),
    ] {
        cases.push((format!("response: {name}"), frame.to_string()));
    }
    cases
}

/// Instance, schedule and seqdep-instance files, each with a short name.
fn files() -> Vec<(&'static str, &'static str, &'static str)> {
    vec![
        (
            "instance",
            "valid",
            r#"{"machines":2,"setups":[3,1],"jobs":[{"class":0,"time":4},{"class":1,"time":2}]}"#,
        ),
        (
            "instance",
            "reordered",
            r#"{"jobs":[{"time":4,"class":0},{"time":2,"class":1}],"setups":[3,1],"machines":2}"#,
        ),
        (
            "instance",
            "time a string",
            r#"{"machines":2,"setups":[3,1],"jobs":[{"class":0,"time":"4"},{"class":1,"time":2}]}"#,
        ),
        (
            "instance",
            "job an integer",
            r#"{"machines":2,"setups":[3,1],"jobs":[0,4]}"#,
        ),
        (
            "instance",
            "jobs missing",
            r#"{"machines":2,"setups":[3,1]}"#,
        ),
        (
            "instance",
            "setups missing, bad jobs",
            r#"{"machines":2,"jobs":[1]}"#,
        ),
        (
            "instance",
            "class past usize",
            r#"{"machines":2,"setups":[3],"jobs":[{"class":18446744073709551616,"time":4}]}"#,
        ),
        (
            "instance",
            "model violation",
            r#"{"machines":2,"setups":[3,1],"jobs":[{"class":0,"time":4}]}"#,
        ),
        (
            "instance",
            "trailing comma",
            r#"{"machines":2,"setups":[3,1],"jobs":[],}"#,
        ),
        ("instance", "not an object", "[2]"),
        (
            "schedule",
            "valid",
            r#"{"machines":1,"placements":[{"machine":0,"start":{"num":0,"den":1},"len":{"num":3,"den":1},"kind":{"Setup":0}},{"machine":0,"start":{"num":3,"den":1},"len":{"num":4,"den":1},"kind":{"Piece":{"job":0,"class":0}}}]}"#,
        ),
        (
            "schedule",
            "kind missing",
            r#"{"machines":1,"placements":[{"machine":0,"start":{"num":0,"den":1},"len":{"num":3,"den":1}}]}"#,
        ),
        (
            "schedule",
            "kind a string",
            r#"{"machines":1,"placements":[{"machine":0,"start":{"num":0,"den":1},"len":{"num":3,"den":1},"kind":"Setup"}]}"#,
        ),
        (
            "schedule",
            "kind empty",
            r#"{"machines":1,"placements":[{"machine":0,"start":{"num":0,"den":1},"len":{"num":3,"den":1},"kind":{}}]}"#,
        ),
        (
            "schedule",
            "kind both",
            r#"{"machines":1,"placements":[{"machine":0,"start":{"num":0,"den":1},"len":{"num":3,"den":1},"kind":{"Piece":{"job":0,"class":0},"Setup":2}}]}"#,
        ),
        (
            "schedule",
            "setup negative",
            r#"{"machines":1,"placements":[{"machine":0,"start":{"num":0,"den":1},"len":{"num":3,"den":1},"kind":{"Setup":-1}}]}"#,
        ),
        (
            "schedule",
            "piece class missing",
            r#"{"machines":1,"placements":[{"machine":0,"start":{"num":0,"den":1},"len":{"num":3,"den":1},"kind":{"Piece":{"job":1}}}]}"#,
        ),
        (
            "schedule",
            "piece an integer",
            r#"{"machines":1,"placements":[{"machine":0,"start":{"num":0,"den":1},"len":{"num":3,"den":1},"kind":{"Piece":5}}]}"#,
        ),
        (
            "schedule",
            "start den 0, kind bad",
            r#"{"machines":1,"placements":[{"machine":0,"start":{"num":0,"den":0},"len":{"num":3,"den":1},"kind":{}}]}"#,
        ),
        (
            "schedule",
            "machine missing",
            r#"{"machines":1,"placements":[{"start":{"num":0,"den":1},"len":{"num":3,"den":1},"kind":{"Setup":0}}]}"#,
        ),
        (
            "schedule",
            "placements a table",
            r#"{"machines":1,"placements":[0,0,1,3,1,0,null]}"#,
        ),
        (
            "compact",
            "valid",
            r#"{"machines":4,"groups":[{"first_machine":0,"count":4,"config":{"items":[{"start":{"num":0,"den":1},"len":{"num":1,"den":2},"kind":{"Setup":0}}]}}]}"#,
        ),
        (
            "compact",
            "count negative",
            r#"{"machines":4,"groups":[{"first_machine":0,"count":-4,"config":{"items":[]}}]}"#,
        ),
        (
            "compact",
            "items missing",
            r#"{"machines":4,"groups":[{"first_machine":0,"count":4,"config":{}}]}"#,
        ),
        (
            "compact",
            "groups an object",
            r#"{"machines":4,"groups":{}}"#,
        ),
        (
            "seqdep",
            "valid",
            r#"{"machines":1,"initial":[1,2],"switch":[[0,1],[1,0]],"class_proc":[3,4]}"#,
        ),
        (
            "seqdep",
            "ragged",
            r#"{"machines":1,"initial":[1,1],"switch":[[0,1],[1]],"class_proc":[1,1]}"#,
        ),
        (
            "seqdep",
            "entry a string",
            r#"{"machines":1,"initial":[1,"1"],"switch":[[0,1],[1,0]],"class_proc":[1,1]}"#,
        ),
        (
            "seqdep",
            "row an integer",
            r#"{"machines":1,"initial":[1,1],"switch":[[0,1],1],"class_proc":[1,1]}"#,
        ),
        (
            "seqdep",
            "switch entry negative",
            r#"{"machines":1,"initial":[1,1],"switch":[[0,-1],[1,0]],"class_proc":[1,1]}"#,
        ),
    ]
}

fn outcome_of_file(kind: &str, text: &str) -> String {
    match kind {
        "instance" => match Instance::from_json(text) {
            Ok(instance) => bss_json::encode(&instance),
            Err(err) => err.to_string(),
        },
        "schedule" => match Schedule::from_json(text) {
            Ok(schedule) => bss_json::encode(&schedule),
            Err(err) => format!("{:?}: {err}", err.kind()),
        },
        "compact" => decoded::<CompactSchedule>(text),
        "seqdep" => match SeqDepInstance::from_json(text) {
            Ok(instance) => bss_json::encode(&instance),
            Err(err) => err.to_string(),
        },
        other => unreachable!("no file kind {other}"),
    }
}

#[test]
fn request_frames_decode_to_their_pinned_outcomes() {
    let mut actual = Vec::new();
    let mut frames: Vec<(String, String)> = Vec::new();
    for (i, frame) in REQUEST_FRAMES.iter().enumerate() {
        frames.push((format!("request {i}"), frame.to_string()));
        frames.push((format!("request {i} reordered"), reordered(frame)));
        frames.push((format!("request {i} spaced"), spaced(frame)));
        frames.push((
            format!("request {i} reordered, spaced"),
            spaced(&reordered(frame)),
        ));
    }
    frames.extend(malformed_requests());
    for (name, frame) in &frames {
        actual.push((format!("decode {name}"), decoded::<Request>(frame)));
    }
    // The server path; the shutdown frames stay out of it.
    let mut served = Served::new();
    for (name, frame) in &frames {
        if frame.contains("shutdown") {
            continue;
        }
        actual.push((format!("serve {name}"), served.reply(frame)));
    }
    assert_outcomes(&actual, EXPECTED_REQUESTS);
}

#[test]
fn response_frames_decode_to_their_pinned_outcomes() {
    let mut actual = Vec::new();
    for (i, frame) in RESPONSE_FRAMES.iter().enumerate() {
        for (how, text) in [
            ("", frame.to_string()),
            (" reordered", reordered(frame)),
            (" spaced", spaced(frame)),
            (" reordered, spaced", spaced(&reordered(frame))),
        ] {
            actual.push((format!("response {i}{how}"), decoded::<Response>(&text)));
        }
    }
    for (name, frame) in malformed_responses() {
        actual.push((name, decoded::<Response>(&frame)));
    }
    assert_outcomes(&actual, EXPECTED_RESPONSES);
}

#[test]
fn files_decode_to_their_pinned_outcomes() {
    let mut actual = Vec::new();
    for (kind, name, text) in files() {
        actual.push((format!("{kind}: {name}"), outcome_of_file(kind, text)));
        actual.push((
            format!("{kind}: {name}, spaced"),
            outcome_of_file(kind, &spaced(text)),
        ));
    }
    assert_outcomes(&actual, EXPECTED_FILES);
}

/// Runs `bss` with `args`, where `{instance}` and `{schedule}` stand for
/// files holding the given texts; returns the exit code and stderr, with the
/// file paths written back as the placeholders.
fn run_bss(args: &[&str], instance: &str, schedule: &str) -> String {
    let dir = std::env::temp_dir().join(format!("bss-decode-outcomes-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let inst_path = dir.join("instance.json");
    let sched_path = dir.join("schedule.json");
    std::fs::File::create(&inst_path)
        .unwrap()
        .write_all(instance.as_bytes())
        .unwrap();
    std::fs::File::create(&sched_path)
        .unwrap()
        .write_all(schedule.as_bytes())
        .unwrap();
    let (inst, sched) = (
        inst_path.to_str().unwrap().to_string(),
        sched_path.to_str().unwrap().to_string(),
    );
    let args: Vec<String> = args
        .iter()
        .map(|a| a.replace("{instance}", &inst).replace("{schedule}", &sched))
        .collect();
    let out = Command::new(env!("CARGO_BIN_EXE_bss"))
        .args(&args)
        .output()
        .unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8(out.stderr)
        .unwrap()
        .replace(&inst, "{instance}")
        .replace(&sched, "{schedule}");
    format!("exit {:?}: {}", out.status.code(), stderr.trim_end())
}

#[test]
fn malformed_files_fail_the_cli_with_their_pinned_messages() {
    let instance =
        r#"{"machines":2,"setups":[3,1],"jobs":[{"class":0,"time":4},{"class":1,"time":2}]}"#;
    let actual = vec![
        (
            "bss solve, job time a string".to_string(),
            run_bss(
                &["solve", "{instance}", "--variant", "splittable"],
                r#"{"machines":2,"setups":[3,1],"jobs":[{"class":0,"time":"4"},{"class":1,"time":2}]}"#,
                "",
            ),
        ),
        (
            "bss validate, placement kind missing".to_string(),
            run_bss(
                &[
                    "validate",
                    "{instance}",
                    "{schedule}",
                    "--variant",
                    "splittable",
                ],
                instance,
                r#"{"machines":2,"placements":[{"machine":0,"start":{"num":0,"den":1},"len":{"num":3,"den":1}}]}"#,
            ),
        ),
    ];
    assert_outcomes(&actual, EXPECTED_CLI);
}

const EXPECTED_REQUESTS: &[(&str, &str)] = &[
    ("decode request 0", "{\"v\":2,\"id\":1,\"kind\":\"solve\",\"variant\":\"Preemptive\",\"algorithm\":\"three-halves\",\"schedule\":true,\"instance\":{\"machines\":2,\"setups\":[4,6],\"jobs\":[0,81,1,31,0,59,0,54,1,11,0,81]}}"),
    ("decode request 0 reordered", "{\"v\":2,\"id\":1,\"kind\":\"solve\",\"variant\":\"Preemptive\",\"algorithm\":\"three-halves\",\"schedule\":true,\"instance\":{\"machines\":2,\"setups\":[4,6],\"jobs\":[0,81,1,31,0,59,0,54,1,11,0,81]}}"),
    ("decode request 0 spaced", "{\"v\":2,\"id\":1,\"kind\":\"solve\",\"variant\":\"Preemptive\",\"algorithm\":\"three-halves\",\"schedule\":true,\"instance\":{\"machines\":2,\"setups\":[4,6],\"jobs\":[0,81,1,31,0,59,0,54,1,11,0,81]}}"),
    ("decode request 0 reordered, spaced", "{\"v\":2,\"id\":1,\"kind\":\"solve\",\"variant\":\"Preemptive\",\"algorithm\":\"three-halves\",\"schedule\":true,\"instance\":{\"machines\":2,\"setups\":[4,6],\"jobs\":[0,81,1,31,0,59,0,54,1,11,0,81]}}"),
    ("decode request 1", "{\"v\":2,\"id\":2,\"kind\":\"session\",\"variant\":\"NonPreemptive\",\"algorithm\":\"portfolio\",\"instance\":{\"machines\":2,\"setups\":[3,1],\"jobs\":[0,4,0,5,1,2]}}"),
    ("decode request 1 reordered", "{\"v\":2,\"id\":2,\"kind\":\"session\",\"variant\":\"NonPreemptive\",\"algorithm\":\"portfolio\",\"instance\":{\"machines\":2,\"setups\":[3,1],\"jobs\":[0,4,0,5,1,2]}}"),
    ("decode request 1 spaced", "{\"v\":2,\"id\":2,\"kind\":\"session\",\"variant\":\"NonPreemptive\",\"algorithm\":\"portfolio\",\"instance\":{\"machines\":2,\"setups\":[3,1],\"jobs\":[0,4,0,5,1,2]}}"),
    ("decode request 1 reordered, spaced", "{\"v\":2,\"id\":2,\"kind\":\"session\",\"variant\":\"NonPreemptive\",\"algorithm\":\"portfolio\",\"instance\":{\"machines\":2,\"setups\":[3,1],\"jobs\":[0,4,0,5,1,2]}}"),
    ("decode request 2", "{\"v\":2,\"id\":7,\"kind\":\"solve\",\"variant\":\"Splittable\",\"algorithm\":\"eps:10\",\"deadline_ms\":50,\"work_budget\":1099511627776,\"schedule\":false,\"instance\":{\"machines\":2,\"setups\":[3,1],\"jobs\":[0,4,0,5,1,2]}}"),
    ("decode request 2 reordered", "{\"v\":2,\"id\":7,\"kind\":\"solve\",\"variant\":\"Splittable\",\"algorithm\":\"eps:10\",\"deadline_ms\":50,\"work_budget\":1099511627776,\"schedule\":false,\"instance\":{\"machines\":2,\"setups\":[3,1],\"jobs\":[0,4,0,5,1,2]}}"),
    ("decode request 2 spaced", "{\"v\":2,\"id\":7,\"kind\":\"solve\",\"variant\":\"Splittable\",\"algorithm\":\"eps:10\",\"deadline_ms\":50,\"work_budget\":1099511627776,\"schedule\":false,\"instance\":{\"machines\":2,\"setups\":[3,1],\"jobs\":[0,4,0,5,1,2]}}"),
    ("decode request 2 reordered, spaced", "{\"v\":2,\"id\":7,\"kind\":\"solve\",\"variant\":\"Splittable\",\"algorithm\":\"eps:10\",\"deadline_ms\":50,\"work_budget\":1099511627776,\"schedule\":false,\"instance\":{\"machines\":2,\"setups\":[3,1],\"jobs\":[0,4,0,5,1,2]}}"),
    ("decode request 3", "{\"v\":2,\"id\":18446744073709551615,\"kind\":\"solve\",\"variant\":\"NonPreemptive\",\"algorithm\":\"two-approx\",\"deadline_ms\":0,\"schedule\":false,\"instance\":{\"machines\":2,\"setups\":[3,1],\"jobs\":[0,4,0,5,1,2]}}"),
    ("decode request 3 reordered", "{\"v\":2,\"id\":18446744073709551615,\"kind\":\"solve\",\"variant\":\"NonPreemptive\",\"algorithm\":\"two-approx\",\"deadline_ms\":0,\"schedule\":false,\"instance\":{\"machines\":2,\"setups\":[3,1],\"jobs\":[0,4,0,5,1,2]}}"),
    ("decode request 3 spaced", "{\"v\":2,\"id\":18446744073709551615,\"kind\":\"solve\",\"variant\":\"NonPreemptive\",\"algorithm\":\"two-approx\",\"deadline_ms\":0,\"schedule\":false,\"instance\":{\"machines\":2,\"setups\":[3,1],\"jobs\":[0,4,0,5,1,2]}}"),
    ("decode request 3 reordered, spaced", "{\"v\":2,\"id\":18446744073709551615,\"kind\":\"solve\",\"variant\":\"NonPreemptive\",\"algorithm\":\"two-approx\",\"deadline_ms\":0,\"schedule\":false,\"instance\":{\"machines\":2,\"setups\":[3,1],\"jobs\":[0,4,0,5,1,2]}}"),
    ("decode request 4", "{\"v\":2,\"id\":3,\"kind\":\"ping\"}"),
    ("decode request 4 reordered", "{\"v\":2,\"id\":3,\"kind\":\"ping\"}"),
    ("decode request 4 spaced", "{\"v\":2,\"id\":3,\"kind\":\"ping\"}"),
    ("decode request 4 reordered, spaced", "{\"v\":2,\"id\":3,\"kind\":\"ping\"}"),
    ("decode request 5", "{\"v\":2,\"id\":4,\"kind\":\"stats\"}"),
    ("decode request 5 reordered", "{\"v\":2,\"id\":4,\"kind\":\"stats\"}"),
    ("decode request 5 spaced", "{\"v\":2,\"id\":4,\"kind\":\"stats\"}"),
    ("decode request 5 reordered, spaced", "{\"v\":2,\"id\":4,\"kind\":\"stats\"}"),
    ("decode request 6", "{\"v\":2,\"id\":5,\"kind\":\"shutdown\"}"),
    ("decode request 6 reordered", "{\"v\":2,\"id\":5,\"kind\":\"shutdown\"}"),
    ("decode request 6 spaced", "{\"v\":2,\"id\":5,\"kind\":\"shutdown\"}"),
    ("decode request 6 reordered, spaced", "{\"v\":2,\"id\":5,\"kind\":\"shutdown\"}"),
    ("decode request 7", "{\"v\":2,\"id\":6,\"kind\":\"sleep\",\"ms\":25}"),
    ("decode request 7 reordered", "{\"v\":2,\"id\":6,\"kind\":\"sleep\",\"ms\":25}"),
    ("decode request 7 spaced", "{\"v\":2,\"id\":6,\"kind\":\"sleep\",\"ms\":25}"),
    ("decode request 7 reordered, spaced", "{\"v\":2,\"id\":6,\"kind\":\"sleep\",\"ms\":25}"),
    ("decode request 8", "{\"v\":2,\"id\":12,\"kind\":\"delta\",\"op\":\"add-job\",\"class\":1,\"time\":9}"),
    ("decode request 8 reordered", "{\"v\":2,\"id\":12,\"kind\":\"delta\",\"op\":\"add-job\",\"class\":1,\"time\":9}"),
    ("decode request 8 spaced", "{\"v\":2,\"id\":12,\"kind\":\"delta\",\"op\":\"add-job\",\"class\":1,\"time\":9}"),
    ("decode request 8 reordered, spaced", "{\"v\":2,\"id\":12,\"kind\":\"delta\",\"op\":\"add-job\",\"class\":1,\"time\":9}"),
    ("decode request 9", "{\"v\":2,\"id\":13,\"kind\":\"delta\",\"op\":\"remove-job\",\"job\":2}"),
    ("decode request 9 reordered", "{\"v\":2,\"id\":13,\"kind\":\"delta\",\"op\":\"remove-job\",\"job\":2}"),
    ("decode request 9 spaced", "{\"v\":2,\"id\":13,\"kind\":\"delta\",\"op\":\"remove-job\",\"job\":2}"),
    ("decode request 9 reordered, spaced", "{\"v\":2,\"id\":13,\"kind\":\"delta\",\"op\":\"remove-job\",\"job\":2}"),
    ("decode request 10", "{\"v\":2,\"id\":14,\"kind\":\"delta\",\"op\":\"retime\",\"job\":0,\"time\":3}"),
    ("decode request 10 reordered", "{\"v\":2,\"id\":14,\"kind\":\"delta\",\"op\":\"retime\",\"job\":0,\"time\":3}"),
    ("decode request 10 spaced", "{\"v\":2,\"id\":14,\"kind\":\"delta\",\"op\":\"retime\",\"job\":0,\"time\":3}"),
    ("decode request 10 reordered, spaced", "{\"v\":2,\"id\":14,\"kind\":\"delta\",\"op\":\"retime\",\"job\":0,\"time\":3}"),
    ("decode request 11", "{\"v\":2,\"id\":15,\"kind\":\"resolve\",\"schedule\":true}"),
    ("decode request 11 reordered", "{\"v\":2,\"id\":15,\"kind\":\"resolve\",\"schedule\":true}"),
    ("decode request 11 spaced", "{\"v\":2,\"id\":15,\"kind\":\"resolve\",\"schedule\":true}"),
    ("decode request 11 reordered, spaced", "{\"v\":2,\"id\":15,\"kind\":\"resolve\",\"schedule\":true}"),
    ("decode time 1000000000000000000", "{\"v\":2,\"id\":21,\"kind\":\"solve\",\"variant\":\"NonPreemptive\",\"algorithm\":\"two-approx\",\"schedule\":false,\"instance\":{\"machines\":2,\"setups\":[3,1],\"jobs\":[0,4,0,5,1,1000000000000000000]}}"),
    ("decode class 1000000000000000000", "Decode: invalid instance data: job 0 references unknown class 1000000000000000000"),
    ("decode time -1000000000000000000", "Decode: job time out of range: -1000000000000000000"),
    ("decode class -1000000000000000000", "Decode: job class out of range: -1000000000000000000"),
    ("decode time 18446744073709551615", "Decode: invalid instance data: total load N exceeds 2^60; rescale the instance"),
    ("decode class 18446744073709551615", "Decode: invalid instance data: job 0 references unknown class 18446744073709551615"),
    ("decode time 18446744073709551616", "Decode: job time out of range: 18446744073709551616"),
    ("decode class 18446744073709551616", "Decode: job class out of range: 18446744073709551616"),
    ("decode time 19807040628566084398385987584", "Decode: job time out of range: 19807040628566084398385987584"),
    ("decode class 19807040628566084398385987584", "Decode: job class out of range: 19807040628566084398385987584"),
    ("decode time -19807040628566084398385987584", "Decode: job time out of range: -19807040628566084398385987584"),
    ("decode class -19807040628566084398385987584", "Decode: job class out of range: -19807040628566084398385987584"),
    ("decode time 99999999999999999999999999999999999999", "Decode: job time out of range: 99999999999999999999999999999999999999"),
    ("decode class 99999999999999999999999999999999999999", "Decode: job class out of range: 99999999999999999999999999999999999999"),
    ("decode time 170141183460469231731687303715884105727", "Decode: job time out of range: 170141183460469231731687303715884105727"),
    ("decode class 170141183460469231731687303715884105727", "Decode: job class out of range: 170141183460469231731687303715884105727"),
    ("decode time -170141183460469231731687303715884105728", "Decode: job time out of range: -170141183460469231731687303715884105728"),
    ("decode class -170141183460469231731687303715884105728", "Decode: job class out of range: -170141183460469231731687303715884105728"),
    ("decode time 170141183460469231731687303715884105728", "Syntax: integer out of range at byte 195"),
    ("decode class 170141183460469231731687303715884105728", "Syntax: integer out of range at byte 185"),
    ("decode time -170141183460469231731687303715884105729", "Syntax: integer out of range at byte 196"),
    ("decode class -170141183460469231731687303715884105729", "Syntax: integer out of range at byte 186"),
    ("decode time 1234567890123456789012345678901234567890", "Syntax: integer out of range at byte 196"),
    ("decode class 1234567890123456789012345678901234567890", "Syntax: integer out of range at byte 186"),
    ("decode jobs: valid", "{\"v\":2,\"id\":23,\"kind\":\"solve\",\"variant\":\"NonPreemptive\",\"algorithm\":\"two-approx\",\"schedule\":false,\"instance\":{\"machines\":2,\"setups\":[3,1],\"jobs\":[0,4,0,5,1,2]}}"),
    ("decode jobs: odd length", "Decode: jobs table of 5 values is not a whole number of 2-value rows"),
    ("decode jobs: odd length, bad cell", "Decode: jobs table of 5 values is not a whole number of 2-value rows"),
    ("decode jobs: negative time", "Decode: job time out of range: -4"),
    ("decode jobs: negative class", "Decode: job class out of range: -1"),
    ("decode jobs: string class", "Decode: expected integer for job class, found string"),
    ("decode jobs: float time", "Decode: expected integer for job time, found float"),
    ("decode jobs: exponent time", "Decode: expected integer for job time, found float"),
    ("decode jobs: null time", "Decode: expected integer for job time, found null"),
    ("decode jobs: bool time", "Decode: expected integer for job time, found bool"),
    ("decode jobs: array cell", "Decode: expected integer for job time, found array"),
    ("decode jobs: object cell", "Decode: expected integer for job time, found object"),
    ("decode jobs: class error before time error", "Decode: expected integer for job class, found null"),
    ("decode jobs: first bad row wins", "Decode: expected integer for job time, found string"),
    ("decode jobs: zero time", "Decode: invalid instance data: job 0 has zero processing time"),
    ("decode jobs: unknown class", "Decode: invalid instance data: job 2 references unknown class 2"),
    ("decode jobs: empty class", "Decode: invalid instance data: class 1 has no jobs"),
    ("decode jobs: empty table", "Decode: invalid instance data: class 0 has no jobs"),
    ("decode jobs: syntax error after bad cell", "Syntax: unexpected character at byte 160"),
    ("decode jobs: leading zeros", "{\"v\":2,\"id\":23,\"kind\":\"solve\",\"variant\":\"NonPreemptive\",\"algorithm\":\"two-approx\",\"schedule\":false,\"instance\":{\"machines\":2,\"setups\":[3,1],\"jobs\":[0,4,0,5,1,2]}}"),
    ("decode jobs: minus zero", "{\"v\":2,\"id\":23,\"kind\":\"solve\",\"variant\":\"NonPreemptive\",\"algorithm\":\"two-approx\",\"schedule\":false,\"instance\":{\"machines\":2,\"setups\":[3,1],\"jobs\":[0,4,0,5,1,2]}}"),
    ("decode instance: jobs not an array", "Decode: expected array for jobs, found object"),
    ("decode instance: jobs missing", "Decode: missing field `jobs`"),
    ("decode instance: machines missing", "Decode: missing field `machines`"),
    ("decode instance: machines missing, bad jobs", "Decode: missing field `machines`"),
    ("decode instance: bad setups, bad jobs", "Decode: expected integer for setup time, found string"),
    ("decode instance: setups not an array", "Decode: expected array for setups, found integer"),
    ("decode instance: negative setup", "Decode: setup time out of range: -1"),
    ("decode instance: zero machines", "Decode: invalid instance data: instance must have at least one machine"),
    ("decode instance: machines 2^64", "Decode: machines out of range: 18446744073709551616"),
    ("decode instance: no classes", "Decode: invalid instance data: instance must have at least one class"),
    ("decode instance: instance an array", "Decode: expected object with field `machines`, found array"),
    ("decode instance: instance null", "Decode: expected object with field `machines`, found null"),
    ("decode instance: duplicate jobs, first valid", "{\"v\":2,\"id\":24,\"kind\":\"solve\",\"variant\":\"NonPreemptive\",\"algorithm\":\"two-approx\",\"schedule\":false,\"instance\":{\"machines\":2,\"setups\":[3,1],\"jobs\":[0,4,1,2]}}"),
    ("decode instance: duplicate jobs, first bad", "Decode: jobs table of 1 values is not a whole number of 2-value rows"),
    ("decode instance: unknown keys", "{\"v\":2,\"id\":24,\"kind\":\"solve\",\"variant\":\"NonPreemptive\",\"algorithm\":\"two-approx\",\"schedule\":false,\"instance\":{\"machines\":2,\"setups\":[3,1],\"jobs\":[0,4,1,2]}}"),
    ("decode solve: variant missing", "Decode: missing field `variant`"),
    ("decode solve: variant unknown", "Decode: unknown variant `Bogus`"),
    ("decode solve: variant a number", "Decode: expected variant string, found integer"),
    ("decode solve: algorithm missing", "Decode: missing field `algorithm`"),
    ("decode solve: algorithm a number", "Decode: `algorithm` must be a string"),
    ("decode solve: algorithm unknown", "Decode: unknown algorithm `simplex`"),
    ("decode solve: algorithm bad eps", "Decode: unknown algorithm `eps:x`"),
    ("decode solve: deadline null", "{\"v\":2,\"id\":25,\"kind\":\"solve\",\"variant\":\"Preemptive\",\"algorithm\":\"two-approx\",\"schedule\":false,\"instance\":{\"machines\":2,\"setups\":[3,1],\"jobs\":[0,4,0,5,1,2]}}"),
    ("decode solve: deadline a string", "Decode: expected integer for deadline_ms, found string"),
    ("decode solve: work budget negative", "Decode: work_budget out of range: -1"),
    ("decode solve: work budget float", "Decode: expected integer for work_budget, found float"),
    ("decode solve: variant before algorithm", "Decode: unknown variant `Bogus`"),
    ("decode solve: variant error before instance error", "Decode: unknown variant `Bogus`"),
    ("decode solve: deadline error before instance error", "Decode: expected integer for deadline_ms, found string"),
    ("decode solve: schedule null", "Decode: `schedule` must be a bool, found null"),
    ("decode solve: schedule a string, bad instance", "Decode: `schedule` must be a bool, found string"),
    ("decode solve: schedule absent", "{\"v\":2,\"id\":27,\"kind\":\"solve\",\"variant\":\"NonPreemptive\",\"algorithm\":\"two-approx\",\"schedule\":false,\"instance\":{\"machines\":2,\"setups\":[3,1],\"jobs\":[0,4,0,5,1,2]}}"),
    ("decode solve: instance missing", "Decode: missing field `instance`"),
    ("decode solve: duplicate instance, first valid", "{\"v\":2,\"id\":29,\"kind\":\"solve\",\"variant\":\"NonPreemptive\",\"algorithm\":\"two-approx\",\"schedule\":false,\"instance\":{\"machines\":2,\"setups\":[3,1],\"jobs\":[0,4,0,5,1,2]}}"),
    ("decode solve: duplicate instance, first bad", "Decode: jobs table of 1 values is not a whole number of 2-value rows"),
    ("decode session: algorithm bad", "Decode: unknown algorithm `x`"),
    ("decode session: bad instance", "Decode: jobs table of 1 values is not a whole number of 2-value rows"),
    ("decode session: model violation", "Decode: invalid instance data: class 1 has zero setup time"),
    ("decode empty frame", "Syntax: unexpected end of input at byte 0"),
    ("decode whitespace only", "Syntax: unexpected end of input at byte 2"),
    ("decode trailing characters", "Syntax: trailing characters after JSON value at byte 29"),
    ("decode two documents", "Syntax: trailing characters after JSON value at byte 28"),
    ("decode syntax error after a valid id", "Syntax: expected `\"` at byte 28"),
    ("decode syntax error after a decode error", "Syntax: unexpected character at byte 31"),
    ("decode decode error after a valid id", "Decode: unknown variant `Bogus`"),
    ("decode an array", "Decode: expected object with field `v`, found array"),
    ("decode a string", "Decode: expected object with field `v`, found string"),
    ("decode a number", "Decode: expected object with field `v`, found integer"),
    ("decode v missing", "Decode: missing field `v`"),
    ("decode v a string", "Decode: expected integer for protocol version, found string"),
    ("decode v a float", "Decode: expected integer for protocol version, found float"),
    ("decode v wrong", "Decode: unsupported protocol version 1 (this build speaks 2)"),
    ("decode v huge", "Decode: unsupported protocol version 170141183460469231731687303715884105727 (this build speaks 2)"),
    ("decode v wrong, id bad", "Decode: unsupported protocol version 3 (this build speaks 2)"),
    ("decode v wrong, bad table", "Decode: unsupported protocol version 3 (this build speaks 2)"),
    ("decode v wrong, bad table first", "Decode: unsupported protocol version 3 (this build speaks 2)"),
    ("decode id missing", "Decode: missing field `id`"),
    ("decode id negative", "Decode: request id out of range: -1"),
    ("decode id a string", "Decode: expected integer for request id, found string"),
    ("decode id 2^64", "Decode: request id out of range: 18446744073709551616"),
    ("decode id null", "Decode: expected integer for request id, found null"),
    ("decode kind missing", "Decode: missing field `kind`"),
    ("decode kind a number", "Decode: request `kind` must be a string"),
    ("decode kind unknown", "Decode: unknown request kind `fly`"),
    ("decode kind escaped", "{\"v\":2,\"id\":7,\"kind\":\"ping\"}"),
    ("decode key escaped", "{\"v\":2,\"id\":7,\"kind\":\"ping\"}"),
    ("decode duplicate id", "{\"v\":2,\"id\":5,\"kind\":\"ping\"}"),
    ("decode duplicate v, first valid", "{\"v\":2,\"id\":5,\"kind\":\"ping\"}"),
    ("decode duplicate v, first wrong", "Decode: unsupported protocol version 3 (this build speaks 2)"),
    ("decode duplicate kind", "{\"v\":2,\"id\":5,\"kind\":\"ping\"}"),
    ("decode bad duplicate id", "Decode: unknown request kind `fly`"),
    ("decode unknown keys", "{\"v\":2,\"id\":4,\"kind\":\"ping\"}"),
    ("decode unknown key, syntax error inside", "Syntax: expected `true` at byte 40"),
    ("decode unknown key, integer past i128", "Syntax: integer out of range at byte 76"),
    ("decode unknown key, lone surrogate", "Syntax: invalid \\u escape at byte 39"),
    ("decode unknown key, bad escape", "Syntax: invalid escape at byte 34"),
    ("decode unknown key, control character", "Syntax: control character in string at byte 34"),
    ("decode unknown key, bad number", "Syntax: expected digits at byte 33"),
    ("decode unknown key, bad fraction", "Syntax: expected digits after `.` at byte 34"),
    ("decode unknown key, bad exponent", "Syntax: expected digits in exponent at byte 34"),
    ("decode unknown key, unterminated", "Syntax: unterminated string at byte 36"),
    ("decode key not a string", "Syntax: expected `\"` at byte 28"),
    ("decode missing colon", "Syntax: expected `:` at byte 21"),
    ("decode unclosed array", "Syntax: expected `,` or `]` in array at byte 36"),
    ("decode sleep: ms missing", "Decode: missing field `ms`"),
    ("decode sleep: ms negative", "Decode: sleep ms out of range: -5"),
    ("decode resolve: schedule a string", "Decode: `schedule` must be a bool, found string"),
    ("decode resolve: schedule absent", "{\"v\":2,\"id\":32,\"kind\":\"resolve\",\"schedule\":false}"),
    ("decode delta: op missing", "Decode: missing field `op`"),
    ("decode delta: op a number", "Decode: delta `op` must be a string"),
    ("decode delta: op unknown", "Decode: unknown delta op `split`"),
    ("decode delta: class missing", "Decode: missing field `class`"),
    ("decode delta: class before time", "Decode: class out of range: -1"),
    ("decode delta: job negative", "Decode: job out of range: -2"),
    ("decode delta: retime time a string", "Decode: expected integer for time, found string"),
    ("decode delta: time past u64", "Decode: time out of range: 18446744073709551616"),
    ("decode 63 levels inside an unknown key", "{\"v\":2,\"id\":5,\"kind\":\"ping\"}"),
    ("decode 64 levels inside an unknown key", "{\"v\":2,\"id\":5,\"kind\":\"ping\"}"),
    ("decode 64 object levels inside an unknown key", "{\"v\":2,\"id\":5,\"kind\":\"ping\"}"),
    ("decode 64 levels after a decode error", "Decode: unknown request kind `fly`"),
    ("decode 64 levels after a bad table", "Decode: jobs table of 1 values is not a whole number of 2-value rows"),
    ("serve request 0", "ok 1 cached=false"),
    ("serve request 0 reordered", "ok 1 cached=true"),
    ("serve request 0 spaced", "ok 1 cached=true"),
    ("serve request 0 reordered, spaced", "ok 1 cached=true"),
    ("serve request 1", "session 2 jobs=3"),
    ("serve request 1 reordered", "session 2 jobs=3"),
    ("serve request 1 spaced", "session 2 jobs=3"),
    ("serve request 1 reordered, spaced", "session 2 jobs=3"),
    ("serve request 2", "ok 7 cached=false"),
    ("serve request 2 reordered", "ok 7 cached=true"),
    ("serve request 2 spaced", "ok 7 cached=true"),
    ("serve request 2 reordered, spaced", "ok 7 cached=true"),
    ("serve request 3", "ok 18446744073709551615 cached=false"),
    ("serve request 3 reordered", "ok 18446744073709551615 cached=true"),
    ("serve request 3 spaced", "ok 18446744073709551615 cached=true"),
    ("serve request 3 reordered, spaced", "ok 18446744073709551615 cached=true"),
    ("serve request 4", "pong 3"),
    ("serve request 4 reordered", "pong 3"),
    ("serve request 4 spaced", "pong 3"),
    ("serve request 4 reordered, spaced", "pong 3"),
    ("serve request 5", "stats 4"),
    ("serve request 5 reordered", "stats 4"),
    ("serve request 5 spaced", "stats 4"),
    ("serve request 5 reordered, spaced", "stats 4"),
    ("serve request 7", "error 6 bad-request: sleep is a test op; this server does not allow test ops"),
    ("serve request 7 reordered", "error 6 bad-request: sleep is a test op; this server does not allow test ops"),
    ("serve request 7 spaced", "error 6 bad-request: sleep is a test op; this server does not allow test ops"),
    ("serve request 7 reordered, spaced", "error 6 bad-request: sleep is a test op; this server does not allow test ops"),
    ("serve request 8", "session 12 jobs=4"),
    ("serve request 8 reordered", "session 12 jobs=5"),
    ("serve request 8 spaced", "session 12 jobs=6"),
    ("serve request 8 reordered, spaced", "session 12 jobs=7"),
    ("serve request 9", "session 13 jobs=6"),
    ("serve request 9 reordered", "session 13 jobs=5"),
    ("serve request 9 spaced", "session 13 jobs=4"),
    ("serve request 9 reordered, spaced", "session 13 jobs=3"),
    ("serve request 10", "session 14 jobs=3"),
    ("serve request 10 reordered", "session 14 jobs=3"),
    ("serve request 10 spaced", "session 14 jobs=3"),
    ("serve request 10 reordered, spaced", "session 14 jobs=3"),
    ("serve request 11", "ok 15 cached=false"),
    ("serve request 11 reordered", "ok 15 cached=true"),
    ("serve request 11 spaced", "ok 15 cached=true"),
    ("serve request 11 reordered, spaced", "ok 15 cached=true"),
    ("serve time 1000000000000000000", "ok 21 cached=false"),
    ("serve class 1000000000000000000", "error 22 invalid-instance: invalid instance data: job 0 references unknown class 1000000000000000000"),
    ("serve time -1000000000000000000", "error 21 bad-request: job time out of range: -1000000000000000000"),
    ("serve class -1000000000000000000", "error 22 bad-request: job class out of range: -1000000000000000000"),
    ("serve time 18446744073709551615", "error 21 invalid-instance: invalid instance data: total load N exceeds 2^60; rescale the instance"),
    ("serve class 18446744073709551615", "error 22 invalid-instance: invalid instance data: job 0 references unknown class 18446744073709551615"),
    ("serve time 18446744073709551616", "error 21 bad-request: job time out of range: 18446744073709551616"),
    ("serve class 18446744073709551616", "error 22 bad-request: job class out of range: 18446744073709551616"),
    ("serve time 19807040628566084398385987584", "error 21 bad-request: job time out of range: 19807040628566084398385987584"),
    ("serve class 19807040628566084398385987584", "error 22 bad-request: job class out of range: 19807040628566084398385987584"),
    ("serve time -19807040628566084398385987584", "error 21 bad-request: job time out of range: -19807040628566084398385987584"),
    ("serve class -19807040628566084398385987584", "error 22 bad-request: job class out of range: -19807040628566084398385987584"),
    ("serve time 99999999999999999999999999999999999999", "error 21 bad-request: job time out of range: 99999999999999999999999999999999999999"),
    ("serve class 99999999999999999999999999999999999999", "error 22 bad-request: job class out of range: 99999999999999999999999999999999999999"),
    ("serve time 170141183460469231731687303715884105727", "error 21 bad-request: job time out of range: 170141183460469231731687303715884105727"),
    ("serve class 170141183460469231731687303715884105727", "error 22 bad-request: job class out of range: 170141183460469231731687303715884105727"),
    ("serve time -170141183460469231731687303715884105728", "error 21 bad-request: job time out of range: -170141183460469231731687303715884105728"),
    ("serve class -170141183460469231731687303715884105728", "error 22 bad-request: job class out of range: -170141183460469231731687303715884105728"),
    ("serve time 170141183460469231731687303715884105728", "error 0 bad-request: integer out of range at byte 195"),
    ("serve class 170141183460469231731687303715884105728", "error 0 bad-request: integer out of range at byte 185"),
    ("serve time -170141183460469231731687303715884105729", "error 0 bad-request: integer out of range at byte 196"),
    ("serve class -170141183460469231731687303715884105729", "error 0 bad-request: integer out of range at byte 186"),
    ("serve time 1234567890123456789012345678901234567890", "error 0 bad-request: integer out of range at byte 196"),
    ("serve class 1234567890123456789012345678901234567890", "error 0 bad-request: integer out of range at byte 186"),
    ("serve jobs: valid", "ok 23 cached=true"),
    ("serve jobs: odd length", "error 23 bad-request: jobs table of 5 values is not a whole number of 2-value rows"),
    ("serve jobs: odd length, bad cell", "error 23 bad-request: jobs table of 5 values is not a whole number of 2-value rows"),
    ("serve jobs: negative time", "error 23 bad-request: job time out of range: -4"),
    ("serve jobs: negative class", "error 23 bad-request: job class out of range: -1"),
    ("serve jobs: string class", "error 23 bad-request: expected integer for job class, found string"),
    ("serve jobs: float time", "error 23 bad-request: expected integer for job time, found float"),
    ("serve jobs: exponent time", "error 23 bad-request: expected integer for job time, found float"),
    ("serve jobs: null time", "error 23 bad-request: expected integer for job time, found null"),
    ("serve jobs: bool time", "error 23 bad-request: expected integer for job time, found bool"),
    ("serve jobs: array cell", "error 23 bad-request: expected integer for job time, found array"),
    ("serve jobs: object cell", "error 23 bad-request: expected integer for job time, found object"),
    ("serve jobs: class error before time error", "error 23 bad-request: expected integer for job class, found null"),
    ("serve jobs: first bad row wins", "error 23 bad-request: expected integer for job time, found string"),
    ("serve jobs: zero time", "error 23 invalid-instance: invalid instance data: job 0 has zero processing time"),
    ("serve jobs: unknown class", "error 23 invalid-instance: invalid instance data: job 2 references unknown class 2"),
    ("serve jobs: empty class", "error 23 invalid-instance: invalid instance data: class 1 has no jobs"),
    ("serve jobs: empty table", "error 23 invalid-instance: invalid instance data: class 0 has no jobs"),
    ("serve jobs: syntax error after bad cell", "error 0 bad-request: unexpected character at byte 160"),
    ("serve jobs: leading zeros", "ok 23 cached=true"),
    ("serve jobs: minus zero", "ok 23 cached=true"),
    ("serve instance: jobs not an array", "error 24 bad-request: expected array for jobs, found object"),
    ("serve instance: jobs missing", "error 24 bad-request: missing field `jobs`"),
    ("serve instance: machines missing", "error 24 bad-request: missing field `machines`"),
    ("serve instance: machines missing, bad jobs", "error 24 bad-request: missing field `machines`"),
    ("serve instance: bad setups, bad jobs", "error 24 bad-request: expected integer for setup time, found string"),
    ("serve instance: setups not an array", "error 24 bad-request: expected array for setups, found integer"),
    ("serve instance: negative setup", "error 24 bad-request: setup time out of range: -1"),
    ("serve instance: zero machines", "error 24 invalid-instance: invalid instance data: instance must have at least one machine"),
    ("serve instance: machines 2^64", "error 24 bad-request: machines out of range: 18446744073709551616"),
    ("serve instance: no classes", "error 24 invalid-instance: invalid instance data: instance must have at least one class"),
    ("serve instance: instance an array", "error 24 bad-request: expected object with field `machines`, found array"),
    ("serve instance: instance null", "error 24 bad-request: expected object with field `machines`, found null"),
    ("serve instance: duplicate jobs, first valid", "ok 24 cached=false"),
    ("serve instance: duplicate jobs, first bad", "error 24 bad-request: jobs table of 1 values is not a whole number of 2-value rows"),
    ("serve instance: unknown keys", "ok 24 cached=true"),
    ("serve solve: variant missing", "error 25 bad-request: missing field `variant`"),
    ("serve solve: variant unknown", "error 25 bad-request: unknown variant `Bogus`"),
    ("serve solve: variant a number", "error 25 bad-request: expected variant string, found integer"),
    ("serve solve: algorithm missing", "error 25 bad-request: missing field `algorithm`"),
    ("serve solve: algorithm a number", "error 25 bad-request: `algorithm` must be a string"),
    ("serve solve: algorithm unknown", "error 25 bad-request: unknown algorithm `simplex`"),
    ("serve solve: algorithm bad eps", "error 25 bad-request: unknown algorithm `eps:x`"),
    ("serve solve: deadline null", "ok 25 cached=false"),
    ("serve solve: deadline a string", "error 25 bad-request: expected integer for deadline_ms, found string"),
    ("serve solve: work budget negative", "error 25 bad-request: work_budget out of range: -1"),
    ("serve solve: work budget float", "error 25 bad-request: expected integer for work_budget, found float"),
    ("serve solve: variant before algorithm", "error 25 bad-request: unknown variant `Bogus`"),
    ("serve solve: variant error before instance error", "error 26 bad-request: unknown variant `Bogus`"),
    ("serve solve: deadline error before instance error", "error 26 bad-request: expected integer for deadline_ms, found string"),
    ("serve solve: schedule null", "error 27 bad-request: `schedule` must be a bool, found null"),
    ("serve solve: schedule a string, bad instance", "error 27 bad-request: `schedule` must be a bool, found string"),
    ("serve solve: schedule absent", "ok 27 cached=true"),
    ("serve solve: instance missing", "error 28 bad-request: missing field `instance`"),
    ("serve solve: duplicate instance, first valid", "ok 29 cached=true"),
    ("serve solve: duplicate instance, first bad", "error 29 bad-request: jobs table of 1 values is not a whole number of 2-value rows"),
    ("serve session: algorithm bad", "error 30 bad-request: unknown algorithm `x`"),
    ("serve session: bad instance", "error 30 bad-request: jobs table of 1 values is not a whole number of 2-value rows"),
    ("serve session: model violation", "error 30 invalid-instance: invalid instance data: class 1 has zero setup time"),
    ("serve empty frame", "error 0 bad-request: unexpected end of input at byte 0"),
    ("serve whitespace only", "error 0 bad-request: unexpected end of input at byte 2"),
    ("serve trailing characters", "error 0 bad-request: trailing characters after JSON value at byte 29"),
    ("serve two documents", "error 0 bad-request: trailing characters after JSON value at byte 28"),
    ("serve syntax error after a valid id", "error 0 bad-request: expected `\"` at byte 28"),
    ("serve syntax error after a decode error", "error 0 bad-request: unexpected character at byte 31"),
    ("serve decode error after a valid id", "error 7 bad-request: unknown variant `Bogus`"),
    ("serve an array", "error 0 bad-request: expected object with field `v`, found array"),
    ("serve a string", "error 0 bad-request: expected object with field `v`, found string"),
    ("serve a number", "error 0 bad-request: expected object with field `v`, found integer"),
    ("serve v missing", "error 7 bad-request: missing field `v`"),
    ("serve v a string", "error 7 bad-request: expected integer for protocol version, found string"),
    ("serve v a float", "error 7 bad-request: expected integer for protocol version, found float"),
    ("serve v wrong", "error 7 unsupported-version: unsupported protocol version 1 (this build speaks 2)"),
    ("serve v huge", "error 7 unsupported-version: unsupported protocol version 170141183460469231731687303715884105727 (this build speaks 2)"),
    ("serve v wrong, id bad", "error 0 unsupported-version: unsupported protocol version 3 (this build speaks 2)"),
    ("serve v wrong, bad table", "error 5 unsupported-version: unsupported protocol version 3 (this build speaks 2)"),
    ("serve v wrong, bad table first", "error 5 unsupported-version: unsupported protocol version 3 (this build speaks 2)"),
    ("serve id missing", "error 0 bad-request: missing field `id`"),
    ("serve id negative", "error 0 bad-request: request id out of range: -1"),
    ("serve id a string", "error 0 bad-request: expected integer for request id, found string"),
    ("serve id 2^64", "error 0 bad-request: request id out of range: 18446744073709551616"),
    ("serve id null", "error 0 bad-request: expected integer for request id, found null"),
    ("serve kind missing", "error 7 bad-request: missing field `kind`"),
    ("serve kind a number", "error 7 bad-request: request `kind` must be a string"),
    ("serve kind unknown", "error 7 bad-request: unknown request kind `fly`"),
    ("serve kind escaped", "pong 7"),
    ("serve key escaped", "pong 7"),
    ("serve duplicate id", "pong 5"),
    ("serve duplicate v, first valid", "pong 5"),
    ("serve duplicate v, first wrong", "error 5 unsupported-version: unsupported protocol version 3 (this build speaks 2)"),
    ("serve duplicate kind", "pong 5"),
    ("serve bad duplicate id", "error 5 bad-request: unknown request kind `fly`"),
    ("serve unknown keys", "pong 4"),
    ("serve unknown key, syntax error inside", "error 0 bad-request: expected `true` at byte 40"),
    ("serve unknown key, integer past i128", "error 0 bad-request: integer out of range at byte 76"),
    ("serve unknown key, lone surrogate", "error 0 bad-request: invalid \\u escape at byte 39"),
    ("serve unknown key, bad escape", "error 0 bad-request: invalid escape at byte 34"),
    ("serve unknown key, control character", "error 0 bad-request: control character in string at byte 34"),
    ("serve unknown key, bad number", "error 0 bad-request: expected digits at byte 33"),
    ("serve unknown key, bad fraction", "error 0 bad-request: expected digits after `.` at byte 34"),
    ("serve unknown key, bad exponent", "error 0 bad-request: expected digits in exponent at byte 34"),
    ("serve unknown key, unterminated", "error 0 bad-request: unterminated string at byte 36"),
    ("serve key not a string", "error 0 bad-request: expected `\"` at byte 28"),
    ("serve missing colon", "error 0 bad-request: expected `:` at byte 21"),
    ("serve unclosed array", "error 0 bad-request: expected `,` or `]` in array at byte 36"),
    ("serve sleep: ms missing", "error 31 bad-request: missing field `ms`"),
    ("serve sleep: ms negative", "error 31 bad-request: sleep ms out of range: -5"),
    ("serve resolve: schedule a string", "error 32 bad-request: `schedule` must be a bool, found string"),
    ("serve resolve: schedule absent", "ok 32 cached=true"),
    ("serve delta: op missing", "error 33 bad-request: missing field `op`"),
    ("serve delta: op a number", "error 33 bad-request: delta `op` must be a string"),
    ("serve delta: op unknown", "error 33 bad-request: unknown delta op `split`"),
    ("serve delta: class missing", "error 33 bad-request: missing field `class`"),
    ("serve delta: class before time", "error 33 bad-request: class out of range: -1"),
    ("serve delta: job negative", "error 33 bad-request: job out of range: -2"),
    ("serve delta: retime time a string", "error 33 bad-request: expected integer for time, found string"),
    ("serve delta: time past u64", "error 33 bad-request: time out of range: 18446744073709551616"),
    ("serve 63 levels inside an unknown key", "pong 5"),
    ("serve 64 levels inside an unknown key", "error 0 too-deep: nesting deeper than 64 levels at byte 95"),
    ("serve 64 object levels inside an unknown key", "error 0 too-deep: nesting deeper than 64 levels at byte 347"),
    ("serve 64 levels after a decode error", "error 0 too-deep: nesting deeper than 64 levels at byte 94"),
    ("serve 64 levels after a bad table", "error 0 too-deep: nesting deeper than 64 levels at byte 199"),
];

const EXPECTED_RESPONSES: &[(&str, &str)] = &[
    ("response 0", "{\"v\":2,\"id\":1,\"status\":\"ok\",\"cached\":false,\"solution\":{\"makespan\":{\"num\":981,\"den\":4},\"accepted\":{\"num\":327,\"den\":2},\"ratio_bound\":{\"num\":3,\"den\":2},\"certificate\":{\"num\":327,\"den\":2},\"probes\":1,\"completion\":\"full\",\"schedule\":{\"machines\":2,\"placements\":[0,327,4,4,1,0,null,0,343,4,81,1,0,0,0,667,4,59,1,0,2,0,903,4,39,2,0,3,1,311,4,4,1,0,null,1,327,4,69,2,0,3,1,465,4,81,1,0,5,1,789,4,6,1,1,null,1,813,4,31,1,1,1,1,937,4,11,1,1,4]}}}"),
    ("response 0 reordered", "{\"v\":2,\"id\":1,\"status\":\"ok\",\"cached\":false,\"solution\":{\"makespan\":{\"num\":981,\"den\":4},\"accepted\":{\"num\":327,\"den\":2},\"ratio_bound\":{\"num\":3,\"den\":2},\"certificate\":{\"num\":327,\"den\":2},\"probes\":1,\"completion\":\"full\",\"schedule\":{\"machines\":2,\"placements\":[0,327,4,4,1,0,null,0,343,4,81,1,0,0,0,667,4,59,1,0,2,0,903,4,39,2,0,3,1,311,4,4,1,0,null,1,327,4,69,2,0,3,1,465,4,81,1,0,5,1,789,4,6,1,1,null,1,813,4,31,1,1,1,1,937,4,11,1,1,4]}}}"),
    ("response 0 spaced", "{\"v\":2,\"id\":1,\"status\":\"ok\",\"cached\":false,\"solution\":{\"makespan\":{\"num\":981,\"den\":4},\"accepted\":{\"num\":327,\"den\":2},\"ratio_bound\":{\"num\":3,\"den\":2},\"certificate\":{\"num\":327,\"den\":2},\"probes\":1,\"completion\":\"full\",\"schedule\":{\"machines\":2,\"placements\":[0,327,4,4,1,0,null,0,343,4,81,1,0,0,0,667,4,59,1,0,2,0,903,4,39,2,0,3,1,311,4,4,1,0,null,1,327,4,69,2,0,3,1,465,4,81,1,0,5,1,789,4,6,1,1,null,1,813,4,31,1,1,1,1,937,4,11,1,1,4]}}}"),
    ("response 0 reordered, spaced", "{\"v\":2,\"id\":1,\"status\":\"ok\",\"cached\":false,\"solution\":{\"makespan\":{\"num\":981,\"den\":4},\"accepted\":{\"num\":327,\"den\":2},\"ratio_bound\":{\"num\":3,\"den\":2},\"certificate\":{\"num\":327,\"den\":2},\"probes\":1,\"completion\":\"full\",\"schedule\":{\"machines\":2,\"placements\":[0,327,4,4,1,0,null,0,343,4,81,1,0,0,0,667,4,59,1,0,2,0,903,4,39,2,0,3,1,311,4,4,1,0,null,1,327,4,69,2,0,3,1,465,4,81,1,0,5,1,789,4,6,1,1,null,1,813,4,31,1,1,1,1,937,4,11,1,1,4]}}}"),
    ("response 1", "{\"v\":2,\"id\":9,\"status\":\"ok\",\"cached\":true,\"solution\":{\"makespan\":{\"num\":981,\"den\":4},\"accepted\":{\"num\":327,\"den\":2},\"ratio_bound\":{\"num\":3,\"den\":2},\"certificate\":{\"num\":327,\"den\":2},\"probes\":1,\"completion\":\"degraded:deadline\"}}"),
    ("response 1 reordered", "{\"v\":2,\"id\":9,\"status\":\"ok\",\"cached\":true,\"solution\":{\"makespan\":{\"num\":981,\"den\":4},\"accepted\":{\"num\":327,\"den\":2},\"ratio_bound\":{\"num\":3,\"den\":2},\"certificate\":{\"num\":327,\"den\":2},\"probes\":1,\"completion\":\"degraded:deadline\"}}"),
    ("response 1 spaced", "{\"v\":2,\"id\":9,\"status\":\"ok\",\"cached\":true,\"solution\":{\"makespan\":{\"num\":981,\"den\":4},\"accepted\":{\"num\":327,\"den\":2},\"ratio_bound\":{\"num\":3,\"den\":2},\"certificate\":{\"num\":327,\"den\":2},\"probes\":1,\"completion\":\"degraded:deadline\"}}"),
    ("response 1 reordered, spaced", "{\"v\":2,\"id\":9,\"status\":\"ok\",\"cached\":true,\"solution\":{\"makespan\":{\"num\":981,\"den\":4},\"accepted\":{\"num\":327,\"den\":2},\"ratio_bound\":{\"num\":3,\"den\":2},\"certificate\":{\"num\":327,\"den\":2},\"probes\":1,\"completion\":\"degraded:deadline\"}}"),
    ("response 2", "{\"v\":2,\"id\":9,\"status\":\"shed\",\"queued\":128,\"capacity\":128}"),
    ("response 2 reordered", "{\"v\":2,\"id\":9,\"status\":\"shed\",\"queued\":128,\"capacity\":128}"),
    ("response 2 spaced", "{\"v\":2,\"id\":9,\"status\":\"shed\",\"queued\":128,\"capacity\":128}"),
    ("response 2 reordered, spaced", "{\"v\":2,\"id\":9,\"status\":\"shed\",\"queued\":128,\"capacity\":128}"),
    ("response 3", "{\"v\":2,\"id\":0,\"status\":\"error\",\"code\":\"bad-request\",\"message\":\"expected `,` or `}` in object at byte 17: \\\"a\\\"\\n\\t\\u0001é\"}"),
    ("response 3 reordered", "{\"v\":2,\"id\":0,\"status\":\"error\",\"code\":\"bad-request\",\"message\":\"expected `,` or `}` in object at byte 17: \\\"a\\\"\\n\\t\\u0001é\"}"),
    ("response 3 spaced", "{\"v\":2,\"id\":0,\"status\":\"error\",\"code\":\"bad-request\",\"message\":\"expected `,` or `}` in object at byte 17: \\\"a\\\"\\n\\t\\u0001é\"}"),
    ("response 3 reordered, spaced", "{\"v\":2,\"id\":0,\"status\":\"error\",\"code\":\"bad-request\",\"message\":\"expected `,` or `}` in object at byte 17: \\\"a\\\"\\n\\t\\u0001é\"}"),
    ("response 4", "{\"v\":2,\"id\":1,\"status\":\"pong\"}"),
    ("response 4 reordered", "{\"v\":2,\"id\":1,\"status\":\"pong\"}"),
    ("response 4 spaced", "{\"v\":2,\"id\":1,\"status\":\"pong\"}"),
    ("response 4 reordered, spaced", "{\"v\":2,\"id\":1,\"status\":\"pong\"}"),
    ("response 5", "{\"v\":2,\"id\":2,\"status\":\"stats\",\"stats\":{\"solved\":10,\"shed\":1,\"errors\":0,\"cache_hits\":5,\"cache_misses\":5,\"cache_evictions\":2,\"cache_collisions\":1,\"cache_len\":3,\"workers\":4}}"),
    ("response 5 reordered", "{\"v\":2,\"id\":2,\"status\":\"stats\",\"stats\":{\"solved\":10,\"shed\":1,\"errors\":0,\"cache_hits\":5,\"cache_misses\":5,\"cache_evictions\":2,\"cache_collisions\":1,\"cache_len\":3,\"workers\":4}}"),
    ("response 5 spaced", "{\"v\":2,\"id\":2,\"status\":\"stats\",\"stats\":{\"solved\":10,\"shed\":1,\"errors\":0,\"cache_hits\":5,\"cache_misses\":5,\"cache_evictions\":2,\"cache_collisions\":1,\"cache_len\":3,\"workers\":4}}"),
    ("response 5 reordered, spaced", "{\"v\":2,\"id\":2,\"status\":\"stats\",\"stats\":{\"solved\":10,\"shed\":1,\"errors\":0,\"cache_hits\":5,\"cache_misses\":5,\"cache_evictions\":2,\"cache_collisions\":1,\"cache_len\":3,\"workers\":4}}"),
    ("response 6", "{\"v\":2,\"id\":4,\"status\":\"session\",\"jobs\":13,\"content_hash\":18446744073709551615}"),
    ("response 6 reordered", "{\"v\":2,\"id\":4,\"status\":\"session\",\"jobs\":13,\"content_hash\":18446744073709551615}"),
    ("response 6 spaced", "{\"v\":2,\"id\":4,\"status\":\"session\",\"jobs\":13,\"content_hash\":18446744073709551615}"),
    ("response 6 reordered, spaced", "{\"v\":2,\"id\":4,\"status\":\"session\",\"jobs\":13,\"content_hash\":18446744073709551615}"),
    ("response 7", "{\"v\":2,\"id\":3,\"status\":\"bye\"}"),
    ("response 7 reordered", "{\"v\":2,\"id\":3,\"status\":\"bye\"}"),
    ("response 7 spaced", "{\"v\":2,\"id\":3,\"status\":\"bye\"}"),
    ("response 7 reordered, spaced", "{\"v\":2,\"id\":3,\"status\":\"bye\"}"),
    ("placements: valid", "{\"v\":2,\"id\":1,\"status\":\"ok\",\"cached\":false,\"solution\":{\"makespan\":{\"num\":1,\"den\":1},\"accepted\":{\"num\":1,\"den\":1},\"ratio_bound\":{\"num\":1,\"den\":1},\"certificate\":{\"num\":1,\"den\":1},\"probes\":1,\"completion\":\"full\",\"schedule\":{\"machines\":2,\"placements\":[0,0,1,3,1,0,null,0,3,1,9,2,0,1]}}}"),
    ("placements: six values", "Decode: placements table of 6 values is not a whole number of 7-value rows"),
    ("placements: eight values", "Decode: placements table of 8 values is not a whole number of 7-value rows"),
    ("placements: eight values, bad cell", "Decode: placements table of 8 values is not a whole number of 7-value rows"),
    ("placements: start.den 0", "Decode: Rational.den must be in [1, 2^32], got 0"),
    ("placements: start.den negative", "Decode: Rational.den must be in [1, 2^32], got -1"),
    ("placements: len.den 2^32", "{\"v\":2,\"id\":1,\"status\":\"ok\",\"cached\":false,\"solution\":{\"makespan\":{\"num\":1,\"den\":1},\"accepted\":{\"num\":1,\"den\":1},\"ratio_bound\":{\"num\":1,\"den\":1},\"certificate\":{\"num\":1,\"den\":1},\"probes\":1,\"completion\":\"full\",\"schedule\":{\"machines\":2,\"placements\":[0,0,1,3,4294967296,0,null]}}}"),
    ("placements: len.den 2^32 + 1", "Decode: Rational.den must be in [1, 2^32], got 4294967297"),
    ("placements: start.num 2^94", "{\"v\":2,\"id\":1,\"status\":\"ok\",\"cached\":false,\"solution\":{\"makespan\":{\"num\":1,\"den\":1},\"accepted\":{\"num\":1,\"den\":1},\"ratio_bound\":{\"num\":1,\"den\":1},\"certificate\":{\"num\":1,\"den\":1},\"probes\":1,\"completion\":\"full\",\"schedule\":{\"machines\":2,\"placements\":[1,4611686018427387904,1,3,2,4,null]}}}"),
    ("placements: start.num -2^94", "{\"v\":2,\"id\":1,\"status\":\"ok\",\"cached\":false,\"solution\":{\"makespan\":{\"num\":1,\"den\":1},\"accepted\":{\"num\":1,\"den\":1},\"ratio_bound\":{\"num\":1,\"den\":1},\"certificate\":{\"num\":1,\"den\":1},\"probes\":1,\"completion\":\"full\",\"schedule\":{\"machines\":2,\"placements\":[1,-19807040628566084398385987584,1,3,2,4,null]}}}"),
    ("placements: start.num 2^94 + 1", "Decode: Rational.num out of range (|num| > 2^94)"),
    ("placements: start.num -2^94 - 1", "Decode: Rational.num out of range (|num| > 2^94)"),
    ("placements: len.num i128::MAX", "Decode: Rational.num out of range (|num| > 2^94)"),
    ("placements: len.num past i128", "Syntax: integer out of range at byte 292"),
    ("placements: negative machine", "Decode: placement machine out of range: -1"),
    ("placements: machine 2^64", "Decode: placement machine out of range: 18446744073709551616"),
    ("placements: null machine", "Decode: expected integer for placement machine, found null"),
    ("placements: string job", "Decode: expected integer for placement job, found string"),
    ("placements: negative job", "Decode: placement job out of range: -7"),
    ("placements: float class", "Decode: expected integer for placement class, found float"),
    ("placements: class before machine", "Decode: expected integer for placement class, found string"),
    ("placements: machine before start", "Decode: expected integer for placement machine, found null"),
    ("placements: start before len", "Decode: Rational.den must be in [1, 2^32], got 0"),
    ("placements: len before job", "Decode: Rational.den must be in [1, 2^32], got 0"),
    ("placements: first bad row wins", "Decode: expected integer for placement job, found string"),
    ("placements: zero length", "{\"v\":2,\"id\":1,\"status\":\"ok\",\"cached\":false,\"solution\":{\"makespan\":{\"num\":1,\"den\":1},\"accepted\":{\"num\":1,\"den\":1},\"ratio_bound\":{\"num\":1,\"den\":1},\"certificate\":{\"num\":1,\"den\":1},\"probes\":1,\"completion\":\"full\",\"schedule\":{\"machines\":2,\"placements\":[0,2,1,0,1,0,3]}}}"),
    ("placements: reducible", "{\"v\":2,\"id\":1,\"status\":\"ok\",\"cached\":false,\"solution\":{\"makespan\":{\"num\":1,\"den\":1},\"accepted\":{\"num\":1,\"den\":1},\"ratio_bound\":{\"num\":1,\"den\":1},\"certificate\":{\"num\":1,\"den\":1},\"probes\":1,\"completion\":\"full\",\"schedule\":{\"machines\":2,\"placements\":[0,1,2,3,2,0,3]}}}"),
    ("placements: empty", "{\"v\":2,\"id\":1,\"status\":\"ok\",\"cached\":false,\"solution\":{\"makespan\":{\"num\":1,\"den\":1},\"accepted\":{\"num\":1,\"den\":1},\"ratio_bound\":{\"num\":1,\"den\":1},\"certificate\":{\"num\":1,\"den\":1},\"probes\":1,\"completion\":\"full\",\"schedule\":{\"machines\":2,\"placements\":[]}}}"),
    ("solution: makespan missing", "Decode: missing field `makespan`"),
    ("solution: makespan den 0", "Decode: Rational.den must be in [1, 2^32], got 0"),
    ("solution: makespan num missing", "Decode: missing field `num`"),
    ("solution: makespan an array", "Decode: expected object with field `num`, found array"),
    ("solution: probes negative", "Decode: probes out of range: -1"),
    ("solution: completion a number", "Decode: `completion` must be a string"),
    ("solution: completion unknown", "Decode: unknown completion `partial`"),
    ("solution: completion cancelled", "{\"v\":2,\"id\":1,\"status\":\"ok\",\"cached\":true,\"solution\":{\"makespan\":{\"num\":1,\"den\":1},\"accepted\":{\"num\":1,\"den\":1},\"ratio_bound\":{\"num\":1,\"den\":1},\"certificate\":{\"num\":1,\"den\":1},\"probes\":1,\"completion\":\"cancelled\"}}"),
    ("solution: schedule null", "{\"v\":2,\"id\":1,\"status\":\"ok\",\"cached\":true,\"solution\":{\"makespan\":{\"num\":1,\"den\":1},\"accepted\":{\"num\":1,\"den\":1},\"ratio_bound\":{\"num\":1,\"den\":1},\"certificate\":{\"num\":1,\"den\":1},\"probes\":1,\"completion\":\"full\"}}"),
    ("solution: schedule an array", "Decode: expected object with field `machines`, found array"),
    ("solution: schedule machines missing", "Decode: missing field `machines`"),
    ("solution: placements missing", "Decode: missing field `placements`"),
    ("solution: placements an object", "Decode: expected array for placements, found object"),
    ("solution: probes before completion", "Decode: expected integer for probes, found string"),
    ("solution: unknown keys", "{\"v\":2,\"id\":1,\"status\":\"ok\",\"cached\":true,\"solution\":{\"makespan\":{\"num\":1,\"den\":1},\"accepted\":{\"num\":1,\"den\":1},\"ratio_bound\":{\"num\":1,\"den\":1},\"certificate\":{\"num\":1,\"den\":1},\"probes\":1,\"completion\":\"full\"}}"),
    ("response: cached a string", "{\"v\":2,\"id\":1,\"status\":\"ok\",\"cached\":false,\"solution\":{\"makespan\":{\"num\":1,\"den\":1},\"accepted\":{\"num\":1,\"den\":1},\"ratio_bound\":{\"num\":1,\"den\":1},\"certificate\":{\"num\":1,\"den\":1},\"probes\":1,\"completion\":\"full\"}}"),
    ("response: cached missing", "Decode: missing field `cached`"),
    ("response: solution missing", "Decode: missing field `solution`"),
    ("response: v wrong", "Decode: unsupported protocol version 3 (this build speaks 2)"),
    ("response: v missing", "Decode: missing field `v`"),
    ("response: id missing", "Decode: missing field `id`"),
    ("response: status missing", "Decode: missing field `status`"),
    ("response: status a number", "Decode: response `status` must be a string"),
    ("response: status unknown", "Decode: unknown response status `maybe`"),
    ("response: shed capacity missing", "Decode: missing field `capacity`"),
    ("response: error code unknown", "Decode: unknown error code"),
    ("response: error code a number", "Decode: unknown error code"),
    ("response: error message a number", "{\"v\":2,\"id\":1,\"status\":\"error\",\"code\":\"internal\",\"message\":\"\"}"),
    ("response: error message missing", "Decode: missing field `message`"),
    ("response: stats field missing", "Decode: missing field `shed`"),
    ("response: stats an array", "Decode: expected object with field `solved`, found array"),
    ("response: session hash 2^64", "Decode: content_hash out of range: 18446744073709551616"),
    ("response: session jobs missing", "Decode: missing field `jobs`"),
    ("response: duplicate status", "{\"v\":2,\"id\":1,\"status\":\"pong\"}"),
    ("response: not an object", "Decode: expected object with field `v`, found array"),
    ("response: syntax error after a decode error", "Syntax: expected `\"` at byte 30"),
];

const EXPECTED_FILES: &[(&str, &str)] = &[
    ("instance: valid", "{\"machines\":2,\"setups\":[3,1],\"jobs\":[{\"class\":0,\"time\":4},{\"class\":1,\"time\":2}]}"),
    ("instance: valid, spaced", "{\"machines\":2,\"setups\":[3,1],\"jobs\":[{\"class\":0,\"time\":4},{\"class\":1,\"time\":2}]}"),
    ("instance: reordered", "{\"machines\":2,\"setups\":[3,1],\"jobs\":[{\"class\":0,\"time\":4},{\"class\":1,\"time\":2}]}"),
    ("instance: reordered, spaced", "{\"machines\":2,\"setups\":[3,1],\"jobs\":[{\"class\":0,\"time\":4},{\"class\":1,\"time\":2}]}"),
    ("instance: time a string", "invalid instance JSON: expected integer for Job.time, found string"),
    ("instance: time a string, spaced", "invalid instance JSON: expected integer for Job.time, found string"),
    ("instance: job an integer", "invalid instance JSON: expected object with field `class`, found integer"),
    ("instance: job an integer, spaced", "invalid instance JSON: expected object with field `class`, found integer"),
    ("instance: jobs missing", "invalid instance JSON: missing field `jobs`"),
    ("instance: jobs missing, spaced", "invalid instance JSON: missing field `jobs`"),
    ("instance: setups missing, bad jobs", "invalid instance JSON: missing field `setups`"),
    ("instance: setups missing, bad jobs, spaced", "invalid instance JSON: missing field `setups`"),
    ("instance: class past usize", "invalid instance JSON: Job.class out of range: 18446744073709551616"),
    ("instance: class past usize, spaced", "invalid instance JSON: Job.class out of range: 18446744073709551616"),
    ("instance: model violation", "invalid instance data: class 1 has no jobs"),
    ("instance: model violation, spaced", "invalid instance data: class 1 has no jobs"),
    ("instance: trailing comma", "invalid instance JSON: expected `\"` at byte 39"),
    ("instance: trailing comma, spaced", "invalid instance JSON: expected `\"` at byte 116"),
    ("instance: not an object", "invalid instance JSON: expected object with field `machines`, found array"),
    ("instance: not an object, spaced", "invalid instance JSON: expected object with field `machines`, found array"),
    ("schedule: valid", "{\"machines\":1,\"placements\":[{\"machine\":0,\"start\":{\"num\":0,\"den\":1},\"len\":{\"num\":3,\"den\":1},\"kind\":{\"Setup\":0}},{\"machine\":0,\"start\":{\"num\":3,\"den\":1},\"len\":{\"num\":4,\"den\":1},\"kind\":{\"Piece\":{\"job\":0,\"class\":0}}}]}"),
    ("schedule: valid, spaced", "{\"machines\":1,\"placements\":[{\"machine\":0,\"start\":{\"num\":0,\"den\":1},\"len\":{\"num\":3,\"den\":1},\"kind\":{\"Setup\":0}},{\"machine\":0,\"start\":{\"num\":3,\"den\":1},\"len\":{\"num\":4,\"den\":1},\"kind\":{\"Piece\":{\"job\":0,\"class\":0}}}]}"),
    ("schedule: kind missing", "Decode: missing field `kind`"),
    ("schedule: kind missing, spaced", "Decode: missing field `kind`"),
    ("schedule: kind a string", "Decode: expected `Setup` or `Piece` item, found string"),
    ("schedule: kind a string, spaced", "Decode: expected `Setup` or `Piece` item, found string"),
    ("schedule: kind empty", "Decode: expected `Setup` or `Piece` item, found object"),
    ("schedule: kind empty, spaced", "Decode: expected `Setup` or `Piece` item, found object"),
    ("schedule: kind both", "{\"machines\":1,\"placements\":[{\"machine\":0,\"start\":{\"num\":0,\"den\":1},\"len\":{\"num\":3,\"den\":1},\"kind\":{\"Setup\":2}}]}"),
    ("schedule: kind both, spaced", "{\"machines\":1,\"placements\":[{\"machine\":0,\"start\":{\"num\":0,\"den\":1},\"len\":{\"num\":3,\"den\":1},\"kind\":{\"Setup\":2}}]}"),
    ("schedule: setup negative", "Decode: Setup class out of range: -1"),
    ("schedule: setup negative, spaced", "Decode: Setup class out of range: -1"),
    ("schedule: piece class missing", "Decode: missing field `class`"),
    ("schedule: piece class missing, spaced", "Decode: missing field `class`"),
    ("schedule: piece an integer", "Decode: expected object with field `job`, found integer"),
    ("schedule: piece an integer, spaced", "Decode: expected object with field `job`, found integer"),
    ("schedule: start den 0, kind bad", "Decode: Rational.den must be in [1, 2^32], got 0"),
    ("schedule: start den 0, kind bad, spaced", "Decode: Rational.den must be in [1, 2^32], got 0"),
    ("schedule: machine missing", "Decode: missing field `machine`"),
    ("schedule: machine missing, spaced", "Decode: missing field `machine`"),
    ("schedule: placements a table", "Decode: expected object with field `machine`, found integer"),
    ("schedule: placements a table, spaced", "Decode: expected object with field `machine`, found integer"),
    ("compact: valid", "{\"machines\":4,\"groups\":[{\"first_machine\":0,\"count\":4,\"config\":{\"items\":[{\"start\":{\"num\":0,\"den\":1},\"len\":{\"num\":1,\"den\":2},\"kind\":{\"Setup\":0}}]}}]}"),
    ("compact: valid, spaced", "{\"machines\":4,\"groups\":[{\"first_machine\":0,\"count\":4,\"config\":{\"items\":[{\"start\":{\"num\":0,\"den\":1},\"len\":{\"num\":1,\"den\":2},\"kind\":{\"Setup\":0}}]}}]}"),
    ("compact: count negative", "Decode: count out of range: -4"),
    ("compact: count negative, spaced", "Decode: count out of range: -4"),
    ("compact: items missing", "Decode: missing field `items`"),
    ("compact: items missing, spaced", "Decode: missing field `items`"),
    ("compact: groups an object", "Decode: expected array for array, found object"),
    ("compact: groups an object, spaced", "Decode: expected array for array, found object"),
    ("seqdep: valid", "{\"machines\":1,\"initial\":[1,2],\"switch\":[[0,1],[1,0]],\"class_proc\":[3,4]}"),
    ("seqdep: valid, spaced", "{\"machines\":1,\"initial\":[1,2],\"switch\":[[0,1],[1,0]],\"class_proc\":[3,4]}"),
    ("seqdep: ragged", "invalid seqdep instance JSON: invalid seqdep instance data: switch matrix row 1 has 1 entries, expected 2 (square c x c)"),
    ("seqdep: ragged, spaced", "invalid seqdep instance JSON: invalid seqdep instance data: switch matrix row 1 has 1 entries, expected 2 (square c x c)"),
    ("seqdep: entry a string", "invalid seqdep instance JSON: expected integer for entry, found string"),
    ("seqdep: entry a string, spaced", "invalid seqdep instance JSON: expected integer for entry, found string"),
    ("seqdep: row an integer", "invalid seqdep instance JSON: expected array for switch row, found integer"),
    ("seqdep: row an integer, spaced", "invalid seqdep instance JSON: expected array for switch row, found integer"),
    ("seqdep: switch entry negative", "invalid seqdep instance JSON: entry out of range: -1"),
    ("seqdep: switch entry negative, spaced", "invalid seqdep instance JSON: entry out of range: -1"),
];

const EXPECTED_CLI: &[(&str, &str)] = &[
    ("bss solve, job time a string", "exit Some(1): error: {instance}: invalid instance JSON: expected integer for Job.time, found string"),
    ("bss validate, placement kind missing", "exit Some(1): error: {schedule}: missing field `kind`"),
];
