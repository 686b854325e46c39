//! Shared driver of the scratch A/B timer and the old-vs-new differential.
//! Each side links its own copy of the crates and passes its frame decoder.

use std::hint::black_box;
use std::time::Instant;

use bss_core::{solve, Algorithm};
use bss_instance::{Instance, Variant};
use bss_json::{ParseLimits, Value};
use bss_schedule::{CompactSchedule, Schedule};
use bss_seqdep::SeqDepInstance;
use bss_serve::protocol::SolveRequest;
use bss_serve::{ErrorCode, Request, Response, WireSolution};

type FrameFn = fn(&str, &ParseLimits) -> Result<Request, (u64, ErrorCode, String)>;

pub fn main(frame: FrameFn) {
    let args: Vec<String> = std::env::args().collect();
    match args[1].as_str() {
        "ab-frame" => ab_frame(frame, args[2].parse().unwrap()),
        "ab-reply" => ab_reply(args[2].parse().unwrap()),
        "ab-parse" => ab_parse(args[2].parse().unwrap()),
        "ab-scan" => ab_scan(args[2].parse().unwrap()),
        "ab-pretty" => ab_pretty(frame, args[2].parse().unwrap()),
        "shim" => {
            let text = r#"{"v":1e999,"id":4,"kind":"ping"}"#;
            let tree = bss_json::parse(text).unwrap();
            println!("tree {tree:?}");
            match Request::decode(&tree) {
                Ok(r) => println!("ok {}", bss_json::encode(&r)),
                Err(e) => println!("err {e:?}"),
            }
            println!("frame {:?}", frame(text, &LIMITS).err());
        }
        "diff" => diff(frame, args[2].parse().unwrap(), args[3].parse().unwrap()),
        "input" => {
            let (kind, text, limits) = input(args[2].parse().unwrap(), args[3].parse().unwrap());
            println!("{kind} {limits:?}\n{text}");
        }
        other => panic!("unknown mode {other}"),
    }
}

const LIMITS: ParseLimits = ParseLimits {
    max_bytes: 32 << 20,
    max_depth: 64,
};

fn median(mut v: Vec<f64>) -> f64 {
    if std::env::var_os("AB_MIN").is_some() { return v.iter().copied().fold(f64::MAX, f64::min); }
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v[v.len() / 2]
}

/// The `serve_hot` request shapes: 16 `uniform` instances of 1000..2875 jobs
/// as compact `solve` frames without a schedule.
fn hot_frames() -> Vec<String> {
    (0..16)
        .map(|i| {
            let jobs = 1000 + i * 125;
            let inst = bss_gen::uniform(jobs, jobs * 120 / 2000, 16, 0x407 + i as u64);
            bss_json::encode(&Request::Solve(Box::new(SolveRequest {
                id: i as u64 + 1,
                instance: inst,
                variant: [Variant::NonPreemptive, Variant::Preemptive, Variant::Splittable][i % 3],
                algo: Algorithm::ThreeHalves,
                deadline_ms: None,
                work_budget: None,
                want_schedule: false,
            })))
        })
        .collect()
}

fn ab_frame(frame: FrameFn, passes: usize) {
    let frames = hot_frames();
    let bytes: usize = frames.iter().map(String::len).sum();
    let mut per_frame = Vec::new();
    for _ in 0..passes {
        let t = Instant::now();
        for f in &frames {
            black_box(frame(black_box(f), &LIMITS).unwrap());
        }
        per_frame.push(t.elapsed().as_nanos() as f64 / frames.len() as f64);
    }
    println!(
        "frame_decode_us {:.2} (median of {passes} passes over 16 frames, mean {} bytes)",
        median(per_frame) / 1000.0,
        bytes / frames.len()
    );
}

/// `serve_schedule`-shaped replies: `uniform(2000, 120, 16)` solved by the
/// 3/2 algorithm in each variant, with the schedule.
fn ab_reply(passes: usize) {
    let mut replies = Vec::new();
    for (i, variant) in [Variant::NonPreemptive, Variant::Preemptive, Variant::Splittable]
        .into_iter()
        .enumerate()
    {
        for seed in 0..2u64 {
            let inst = bss_gen::uniform(2000, 120, 16, 0x500 + seed);
            let sol = solve(&inst, variant, Algorithm::ThreeHalves);
            replies.push(bss_json::encode(&Response::Solved {
                id: (i * 2) as u64 + seed,
                cached: false,
                solution: WireSolution::of(&sol, true),
            }));
        }
    }
    let bytes: usize = replies.iter().map(String::len).sum();
    let mut per_reply = Vec::new();
    for _ in 0..passes {
        let t = Instant::now();
        for r in &replies {
            black_box(bss_json::decode::<Response>(black_box(r)).unwrap());
        }
        per_reply.push(t.elapsed().as_nanos() as f64 / replies.len() as f64);
    }
    println!(
        "reply_decode_us {:.2} (median of {passes} passes over {} replies, mean {} bytes)",
        median(per_reply) / 1000.0,
        replies.len(),
        bytes / replies.len()
    );
}

/// The traced replay's shapes: pretty `serve_hot` request frames parsed into
/// a tree (`json.parse`), and the replay's frame decode from that tree
/// (`protocol.decode`).
fn ab_pretty(frame: FrameFn, passes: usize) {
    let _ = frame;
    let frames: Vec<String> = hot_frames()
        .iter()
        .map(|f| bss_json::encode_pretty(&bss_json::parse(f).unwrap()))
        .collect();
    let trees: Vec<Value> = frames.iter().map(|f| bss_json::parse(f).unwrap()).collect();
    let (mut parse, mut decode) = (Vec::new(), Vec::new());
    for _ in 0..passes {
        let t = Instant::now();
        for f in &frames {
            black_box(bss_json::parse_with_limits(black_box(f), &LIMITS).unwrap());
        }
        parse.push(t.elapsed().as_nanos() as f64 / frames.len() as f64);
        let t = Instant::now();
        for v in &trees {
            black_box(Request::decode(black_box(v)).unwrap());
        }
        decode.push(t.elapsed().as_nanos() as f64 / trees.len() as f64);
    }
    println!(
        "pretty_tree_parse_us {:.2} tree_decode_us {:.2} (median of {passes} passes over 16 pretty frames)",
        median(parse) / 1000.0,
        median(decode) / 1000.0
    );
}

fn ab_parse(passes: usize) {
    let mut replies = Vec::new();
    for variant in [Variant::NonPreemptive, Variant::Preemptive, Variant::Splittable] {
        let inst = bss_gen::uniform(2000, 120, 16, 0x500);
        let sol = solve(&inst, variant, Algorithm::ThreeHalves);
        replies.push(bss_json::encode(&Response::Solved {
            id: 1,
            cached: false,
            solution: WireSolution::of(&sol, true),
        }));
    }
    let mut t_parse = Vec::new();
    let mut t_decode = Vec::new();
    for _ in 0..passes {
        let t = Instant::now();
        for r in &replies {
            black_box(bss_json::parse(black_box(r)).unwrap());
        }
        t_parse.push(t.elapsed().as_nanos() as f64 / 3.0);
        let t = Instant::now();
        for r in &replies {
            black_box(bss_json::decode::<Response>(black_box(r)).unwrap());
        }
        t_decode.push(t.elapsed().as_nanos() as f64 / 3.0);
    }
    println!("tree parse {:.1} us, Response decode {:.1} us", median(t_parse) / 1e3, median(t_decode) / 1e3);
}

#[cfg(new)]
fn ab_scan(passes: usize) {
    let mut replies = Vec::new();
    for variant in [Variant::NonPreemptive, Variant::Preemptive, Variant::Splittable] {
        let inst = bss_gen::uniform(2000, 120, 16, 0x500);
        let sol = solve(&inst, variant, Algorithm::ThreeHalves);
        replies.push(bss_json::encode(&Response::Solved {
            id: 1,
            cached: false,
            solution: WireSolution::of(&sol, true),
        }));
    }
    let mut t = [vec![], vec![], vec![], vec![]];
    for _ in 0..passes {
        let s = Instant::now();
        for r in &replies {
            black_box(bss_json::decode_with(black_box(r), &LIMITS, |r| r.skip()).unwrap());
        }
        t[0].push(s.elapsed().as_nanos() as f64 / 3.0);
        let s = Instant::now();
        for r in &replies {
            black_box(bss_json::parse(black_box(r)).unwrap());
        }
        t[1].push(s.elapsed().as_nanos() as f64 / 3.0);
        let s = Instant::now();
        for r in &replies {
            black_box(bss_json::decode::<Response>(black_box(r)).unwrap());
        }
        t[2].push(s.elapsed().as_nanos() as f64 / 3.0);
        let s = Instant::now();
        let mut n = 0;
        for r in &replies {
            // Count every scalar with one `scalar()` call each.
            fn walk(r: &mut bss_json::JsonReader<'_>, n: &mut usize) -> Result<(), bss_json::JsonError> {
                if r.at_object() {
                    r.object("", |_, r| walk(r, n))
                } else {
                    match r.scalar()? { bss_json::Scalar::Array => {}, _ => *n += 1 }
                    Ok(())
                }
            }
            black_box(bss_json::decode_with(black_box(r), &LIMITS, |r| walk(r, &mut n)).unwrap());
        }
        black_box(n);
        t[3].push(s.elapsed().as_nanos() as f64 / 3.0);
    }
    let s = Instant::now();
    let mut sum = 0u64;
    for _ in 0..passes {
        for r in &replies {
            for &b in black_box(r.as_bytes()) {
                sum = sum.wrapping_mul(31).wrapping_add(u64::from(b));
            }
        }
    }
    black_box(sum);
    println!("hash loop {:.1} us per reply", s.elapsed().as_nanos() as f64 / 3.0 / passes as f64 / 1e3);
    let [a, b, c, d] = t;
    println!("skip {:.1} us, tree {:.1} us, Response {:.1} us, walk {:.1}", median(a) / 1e3, median(b) / 1e3, median(c) / 1e3, median(d)/1e3);
    // Table phases on the placements table alone.
    use bss_json::Scalar;
    use bss_rational::Rational;
    use bss_schedule::{ItemKind, Placement};
    let tables: Vec<&str> = replies.iter().map(|r| { let a = r.find("\"placements\":").unwrap() + 13; &r[a..r.len() - 3] }).collect();
    let mut ph = [vec![], vec![], vec![], vec![], vec![]];
    for _ in 0..passes {
        for (k, hist) in ph.iter_mut().enumerate() {
            let s = Instant::now();
            for t in &tables {
                let mut cells: [Scalar<'_>; 7] = core::array::from_fn(|_| Scalar::Null);
                let mut len = 0usize;
                let mut out: Vec<Placement> = if k == 4 { Vec::with_capacity(t.len() / 16) } else { Vec::new() };
                let mut sum = 0i128;
                bss_json::decode_with(t, &LIMITS, |r| r.array("placements", |r| {
                    let cell = r.scalar()?;
                    if k == 0 { if let Scalar::Int(v) = cell { sum += v; } len += 1; return Ok(()); }
                    cells[len % 7] = cell;
                    if len % 7 == 6 {
                        if k == 1 { if let Scalar::Int(v) = cells[3] { sum += v; } }
                        else {
                            let class: usize = cells[5].int("c")?;
                            let start = Rational::from_wire(cells[1].int("a")?, cells[2].int("b")?)?;
                            let lenr = Rational::from_wire(cells[3].int("a")?, cells[4].int("b")?)?;
                            let machine: usize = cells[0].int("m")?;
                            if k >= 3 {
                                out.push(Placement::new(machine, start, lenr, match &cells[6] { Scalar::Null => ItemKind::Setup(class), j => ItemKind::Piece { job: j.int("j")?, class } }));
                            } else { sum += start.numer() + lenr.numer() + machine as i128 + class as i128; }
                        }
                    }
                    len += 1;
                    Ok(())
                })).unwrap();
                black_box((sum, out));
            }
            hist.push(s.elapsed().as_nanos() as f64 / 3.0);
        }
    }
    let [p0, p1, p2, p3, p4] = ph;
    println!("table: scalars {:.1}, +cells {:.1}, +ints/from_wire {:.1}, +push {:.1}, +reserve {:.1}", median(p0)/1e3, median(p1)/1e3, median(p2)/1e3, median(p3)/1e3, median(p4)/1e3);
}
#[cfg(not(new))]
fn ab_scan(_: usize) {}

// ---------------------------------------------------------------------------
// Differential
// ---------------------------------------------------------------------------

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len())]
    }
}

fn seeds() -> Vec<(&'static str, String)> {
    let mut s: Vec<(&'static str, String)> = Vec::new();
    for f in [
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
        r#"{"x":[1,{"y":[[],{}]},"s\n\u00e9",-2.5e-3,true,false,null],"v":2,"id":4,"kind":"ping","id":9}"#,
    ] {
        s.push(("req", f.to_string()));
    }
    let inst = bss_gen::uniform(40, 5, 3, 9);
    s.push((
        "req",
        bss_json::encode(&Request::Solve(Box::new(SolveRequest {
            id: 77,
            instance: inst.clone(),
            variant: Variant::Splittable,
            algo: Algorithm::EpsilonSearch { eps_log2: 4 },
            deadline_ms: Some(3),
            work_budget: None,
            want_schedule: true,
        }))),
    ));
    for f in [
        r#"{"v":2,"id":9,"status":"ok","cached":true,"solution":{"makespan":{"num":981,"den":4},"accepted":{"num":327,"den":2},"ratio_bound":{"num":3,"den":2},"certificate":{"num":327,"den":2},"probes":1,"completion":"degraded:deadline"}}"#,
        r#"{"v":2,"id":9,"status":"shed","queued":128,"capacity":128}"#,
        r#"{"v":2,"id":0,"status":"error","code":"bad-request","message":"expected `,` or `}` in object at byte 17: \"a\"\n\t\u0001é"}"#,
        r#"{"v":2,"id":1,"status":"pong"}"#,
        r#"{"v":2,"id":2,"status":"stats","stats":{"solved":10,"shed":1,"errors":0,"cache_hits":5,"cache_misses":5,"cache_evictions":2,"cache_collisions":1,"cache_len":3,"workers":4}}"#,
        r#"{"v":2,"id":4,"status":"session","jobs":13,"content_hash":18446744073709551615}"#,
        r#"{"v":2,"id":3,"status":"bye"}"#,
    ] {
        s.push(("resp", f.to_string()));
    }
    for variant in [Variant::Preemptive, Variant::Splittable] {
        let small = bss_gen::uniform(12, 3, 2, 5);
        let sol = solve(&small, variant, Algorithm::ThreeHalves);
        s.push((
            "resp",
            bss_json::encode(&Response::Solved {
                id: 1,
                cached: false,
                solution: WireSolution::of(&sol, true),
            }),
        ));
        s.push(("sched", bss_json::encode(sol.schedule())));
    }
    let tiny = bss_gen::uniform(6, 2, 2, 3);
    s.push(("inst", tiny.to_json()));
    s.push(("inst", bss_json::encode(&tiny)));
    let sol = solve(&tiny, Variant::Preemptive, Algorithm::ThreeHalves);
    s.push(("sched", sol.schedule().to_json()));
    s.push((
        "compact",
        r#"{"machines":4,"groups":[{"first_machine":0,"count":4,"config":{"items":[{"start":{"num":0,"den":1},"len":{"num":1,"den":2},"kind":{"Setup":0}},{"start":{"num":1,"den":2},"len":{"num":3,"den":1},"kind":{"Piece":{"job":2,"class":0}}}]}},{"first_machine":1,"count":1,"config":{"items":[]}}]}"#.to_string(),
    ));
    s.push((
        "seqdep",
        r#"{"machines":1,"initial":[1,2,3],"switch":[[0,1,2],[1,0,4],[2,4,0]],"class_proc":[3,4,5]}"#.to_string(),
    ));
    s
}

/// `value` with every object's fields shuffled.
fn shuffle(value: Value, rng: &mut Rng) -> Value {
    match value {
        Value::Object(fields) => {
            let mut fields: Vec<(String, Value)> =
                fields.into_iter().map(|(k, v)| (k, shuffle(v, rng))).collect();
            for i in (1..fields.len()).rev() {
                let j = rng.below(i + 1);
                fields.swap(i, j);
            }
            Value::Object(fields)
        }
        Value::Array(items) => Value::Array(items.into_iter().map(|v| shuffle(v, rng)).collect()),
        other => other,
    }
}

const TOKENS: &[&str] = &[
    ",", ":", "[", "]", "{", "}", "\"", "\\", "null", "true", "false", "nul", "-", ".", "e", "E",
    "0", "1", "7", "-1", "1.5", "1e5", "-0", "00", " ", "\n", "\t", "\u{1}", "é", "\"x\":1,",
    "\"x\":[1,{\"y\":[]}],", "\"id\":5,", "\"id\":\"5\",", "\"v\":2,", "\"v\":3,", "\"kind\":\"ping\",",
    "\"schedule\":null,", "\"\\ud800\"", "\"\\u00e9\"", "\"\\q\"", "[[[[[[[[[", "]]]]]]]]]",
    "{\"a\":{\"a\":{\"a\":", "}}}", "18446744073709551615", "18446744073709551616",
    "19807040628566084398385987584", "-19807040628566084398385987585", "4294967296",
    "4294967297", "170141183460469231731687303715884105727",
    "170141183460469231731687303715884105728", "1234567890123456789012345678901234567890",
    "99999999999999999999", "-170141183460469231731687303715884105728", "\"\"", "[]", "{}",
];

const NUMBERS: &[&str] = &[
    "0", "-1", "1", "2", "3", "65", "1000000000000000000", "-1000000000000000000",
    "18446744073709551615", "18446744073709551616", "19807040628566084398385987584",
    "-19807040628566084398385987584", "19807040628566084398385987585", "4294967296",
    "4294967297", "170141183460469231731687303715884105727",
    "170141183460469231731687303715884105728", "9999999999999999999999999999999999999999",
    "1.0", "2e3", "null", "\"1\"", "[1]", "{}", "true",
];

/// The `i`-th input of the differential: a mutated seed, its kind and the
/// limits it is decoded under.
fn input(i: u64, seed: u64) -> (&'static str, String, ParseLimits) {
    let seeds = seeds();
    let mut rng = Rng(seed ^ i.wrapping_mul(0x2545_f491_4f6c_dd1d));
    let (kind, base) = &seeds[rng.below(seeds.len())];
    let mut text = base.clone();
    // Structural mutations through the tree, on about half the inputs.
    if rng.below(2) == 0 {
        let tree = shuffle(bss_json::parse(&text).unwrap(), &mut rng);
        text = if rng.below(2) == 0 {
            bss_json::encode(&tree)
        } else {
            bss_json::encode_pretty(&tree)
        };
    }
    let edits = rng.below(4);
    for _ in 0..edits {
        let mut bytes = text.into_bytes();
        let at = rng.below(bytes.len() + 1);
        match rng.below(6) {
            0 => {
                let token = rng.pick(TOKENS);
                bytes.splice(at..at, token.bytes());
            }
            1 if !bytes.is_empty() => {
                let end = (at + 1 + rng.below(8)).min(bytes.len());
                let at = at.min(end);
                bytes.drain(at..end);
            }
            2 if at < bytes.len() => {
                let end = (at + 1 + rng.below(12)).min(bytes.len());
                let span: Vec<u8> = bytes[at..end].to_vec();
                let to = rng.below(bytes.len() + 1);
                bytes.splice(to..to, span);
            }
            3 if at < bytes.len() => {
                let token = rng.pick(TOKENS);
                bytes[at] = token.as_bytes()[0];
            }
            _ => {
                // Replace the number (or literal) at a random position.
                let digits: Vec<usize> = bytes
                    .iter()
                    .enumerate()
                    .filter(|(_, b)| b.is_ascii_digit())
                    .map(|(k, _)| k)
                    .collect();
                if let Some(&k) = digits.get(rng.below(digits.len().max(1))) {
                    let mut start = k;
                    while start > 0 && (bytes[start - 1].is_ascii_digit() || bytes[start - 1] == b'-') {
                        start -= 1;
                    }
                    let mut end = k;
                    while end < bytes.len() && bytes[end].is_ascii_digit() {
                        end += 1;
                    }
                    let number = rng.pick(NUMBERS);
                    bytes.splice(start..end, number.bytes());
                }
            }
        }
        text = String::from_utf8_lossy(&bytes).into_owned();
    }
    let limits = ParseLimits {
        max_bytes: if i % 11 == 0 { 96 } else { 1 << 20 },
        max_depth: [64, 8, 3][(i % 3) as usize],
    };
    (kind, text, limits)
}

fn diff(frame: FrameFn, n: u64, seed: u64) {
    use std::io::Write;
    let out = std::io::stdout();
    let mut out = std::io::BufWriter::new(out.lock());
    for i in 0..n {
        let (kind, text, limits) = input(i, seed);
        let parsed = match bss_json::parse_with_limits(&text, &limits) {
            Ok(v) => format!("tree {}", bss_json::encode(&v)),
            Err(e) => format!("tree-err {:?} {e}", e.kind()),
        };
        let outcome = match kind {
            "req" => {
                let served = match frame(&text, &limits) {
                    Ok(req) => format!("ok {}", bss_json::encode(&req)),
                    Err((id, code, msg)) => format!("err {id} {code} {msg}"),
                };
                let decoded = match bss_json::decode::<Request>(&text) {
                    Ok(req) => format!("ok {}", bss_json::encode(&req)),
                    Err(e) => format!("err {:?} {e}", e.kind()),
                };
                format!("{served} | {decoded}")
            }
            "resp" => match bss_json::decode::<Response>(&text) {
                Ok(r) => format!("ok {}", bss_json::encode(&r)),
                Err(e) => format!("err {:?} {e}", e.kind()),
            },
            "inst" => match Instance::from_json(&text) {
                Ok(x) => format!("ok {}", bss_json::encode(&x)),
                Err(e) => format!("err {e}"),
            },
            "sched" => match Schedule::from_json(&text) {
                Ok(x) => format!("ok {}", bss_json::encode(&x)),
                Err(e) => format!("err {:?} {e}", e.kind()),
            },
            "compact" => match bss_json::decode::<CompactSchedule>(&text) {
                Ok(x) => format!("ok {}", bss_json::encode(&x)),
                Err(e) => format!("err {:?} {e}", e.kind()),
            },
            "seqdep" => match SeqDepInstance::from_json(&text) {
                Ok(x) => format!("ok {}", bss_json::encode(&x)),
                Err(e) => format!("err {e}"),
            },
            _ => unreachable!(),
        };
        writeln!(out, "{i}\t{kind}\t{parsed:?}\t{outcome:?}").unwrap();
    }
}
