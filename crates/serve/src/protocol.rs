//! The `bss-serve` wire protocol: versioned request/response envelopes.
//!
//! Every message is one length-prefixed frame (see [`bss_json::frame`])
//! carrying a compact JSON object ([`bss_json::encode`]) with a `"v"`
//! protocol-version field and an `"id"` the server echoes back, so a client
//! can match responses to requests. A frame of any other version is
//! answered with `unsupported-version`.
//!
//! Requests (`"kind"` selects):
//!
//! ```text
//! {"v":2, "id":7, "kind":"solve", "variant":"NonPreemptive",
//!  "algorithm":"three-halves", "deadline_ms":50, "work_budget":100000,
//!  "schedule":false, "instance":{...}}
//! {"v":2, "id":8, "kind":"ping"}
//! {"v":2, "id":9, "kind":"stats"}
//! {"v":2, "id":10, "kind":"shutdown"}
//! {"v":2, "id":11, "kind":"sleep", "ms":100}        // test ops only
//! ```
//!
//! Online sessions (`bss-instance` incremental workloads): a `"session"`
//! request installs a per-connection base instance, `"delta"` mutates it
//! (`"op"` selects `add-job` / `remove-job` / `retime`), and `"resolve"`
//! solves the current state through the warm-start path:
//!
//! ```text
//! {"v":2, "id":12, "kind":"session", "variant":"NonPreemptive",
//!  "algorithm":"eps:6", "instance":{...}}
//! {"v":2, "id":13, "kind":"delta", "op":"add-job", "class":0, "time":17}
//! {"v":2, "id":14, "kind":"delta", "op":"remove-job", "job":3}
//! {"v":2, "id":15, "kind":"delta", "op":"retime", "job":2, "time":9}
//! {"v":2, "id":16, "kind":"resolve", "schedule":false}
//! ```
//!
//! Responses (`"status"` selects): `"ok"` (a solved request, with `"cached"`
//! marking a cache hit and the solution payload), `"shed"` (admission
//! control refused the request — the typed overload reply), `"error"` (a
//! typed [`ErrorCode`] + message), `"pong"`, `"stats"`, `"session"` (the
//! session/delta acknowledgement carrying the state's job count and content
//! hash), and `"bye"` (shutdown acknowledged).
//!
//! # Bulk tables
//!
//! The two payloads that grow with the instance travel as flat integer
//! arrays, which decode row by row straight from the frame text into the job
//! or placement list, with no object per job or placement and no tree in
//! between. The `instance` of a `solve` or `session`
//! request lists its jobs in job-id order as `(class, time)` pairs:
//!
//! ```text
//! {"machines":2, "setups":[3,1], "jobs":[0,4, 0,5, 1,2]}
//! ```
//!
//! The `schedule` of an `ok` reply lists its placements in order, one
//! 7-integer row each: `machine, start.num, start.den, len.num, len.den,
//! class, job`, with `job` = `null` for a setup:
//!
//! ```text
//! {"machines":2, "placements":[0,0,1,3,1,0,null, 0,3,1,9,2,0,1, ...]}
//! ```
//!
//! Object fields may come in any order; unknown ones are skipped. Errors
//! keep one precedence whatever the order: a syntax or limit error anywhere
//! in the frame first, then the version, the id, the kind, its parameters,
//! and last the instance or tables. A table whose length is not a whole
//! number of rows is rejected before any of its rows, and a value that is
//! not an in-range integer is a decode error (`bad-request` in a request);
//! a well-formed instance that violates the model is `invalid-instance`.
//! Rationals are bounded by [`Rational::from_wire`]. The file formats
//! ([`Instance::to_json`], [`Schedule::to_json`]) are unaffected: files are
//! read by people and keep the pretty, self-describing shape.

use std::borrow::Cow;

use bss_core::{Algorithm, Completion, Solution};
use bss_instance::{Delta, Instance, Job, Variant};
use bss_json::{
    Field, FromJson, JsonError, JsonErrorKind, JsonReader, JsonWriter, ObjectWriter, ParseLimits,
    Scalar, ToJson, Value,
};
use bss_rational::Rational;
use bss_schedule::{ItemKind, Placement, Schedule};

use crate::cache::CacheStats;
use crate::client::SolveOptions;

/// The protocol version this build speaks. Mismatches are rejected with
/// [`ErrorCode::UnsupportedVersion`] rather than misdecoded.
pub const PROTOCOL_VERSION: i128 = 2;

/// A decoded client request.
#[derive(Debug, Clone)]
pub enum Request {
    /// Solve an instance.
    Solve(Box<SolveRequest>),
    /// Liveness probe.
    Ping {
        /// Echoed request id.
        id: u64,
    },
    /// Server counters snapshot.
    Stats {
        /// Echoed request id.
        id: u64,
    },
    /// Ask the server to stop accepting and drain.
    Shutdown {
        /// Echoed request id.
        id: u64,
    },
    /// Occupy a worker slot for `ms` milliseconds. Test instrumentation for
    /// deterministic overload tests; only honored when the server was
    /// configured with `allow_test_ops`.
    Sleep {
        /// Echoed request id.
        id: u64,
        /// How long the worker path stalls.
        ms: u64,
    },
    /// Open (or replace) this connection's incremental session.
    Session(Box<SessionRequest>),
    /// Apply one instance delta to the connection's session.
    Delta {
        /// Echoed request id.
        id: u64,
        /// The delta to apply.
        delta: Delta,
    },
    /// Solve the session's current state (cache first, then the warm-start
    /// re-solve seeded by the previous resolve's dual bracket).
    Resolve {
        /// Echoed request id.
        id: u64,
        /// Whether the response should carry the full explicit schedule.
        want_schedule: bool,
    },
}

/// The payload of a `"kind":"session"` request: the base instance plus the
/// fixed solve parameters every later `resolve` on this connection uses.
#[derive(Debug, Clone)]
pub struct SessionRequest {
    /// Client-chosen id, echoed in the response.
    pub id: u64,
    /// The (already validated) base instance.
    pub instance: Instance,
    /// Which problem variant the session solves.
    pub variant: Variant,
    /// Which algorithm the session runs.
    pub algo: Algorithm,
}

/// The payload of a `"kind":"solve"` request.
#[derive(Debug, Clone)]
pub struct SolveRequest {
    /// Client-chosen id, echoed in the response.
    pub id: u64,
    /// The (already validated) instance.
    pub instance: Instance,
    /// Which problem variant to solve.
    pub variant: Variant,
    /// Which algorithm to run.
    pub algo: Algorithm,
    /// Per-request wall-clock deadline, measured from *arrival* at the
    /// server (time spent waiting for a solve slot counts against it — an
    /// honest service-level deadline).
    pub deadline_ms: Option<u64>,
    /// Per-request work budget (dual-probe / exact-node units).
    pub work_budget: Option<u64>,
    /// Whether the response should carry the full explicit schedule (the
    /// metrics and certificate are always included).
    pub want_schedule: bool,
}

/// Typed error classes of [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Malformed JSON or a structurally invalid envelope.
    BadRequest,
    /// Well-formed envelope with an instance that violates the model.
    InvalidInstance,
    /// The frame or JSON payload exceeded the server's size bound.
    TooLarge,
    /// The JSON nesting exceeded the server's depth bound.
    TooDeep,
    /// The `"v"` field does not match [`PROTOCOL_VERSION`].
    UnsupportedVersion,
    /// The request was valid but the solve failed (isolated panic /
    /// overflow) or the server is shutting down.
    Internal,
}

impl ErrorCode {
    /// The wire spelling.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::InvalidInstance => "invalid-instance",
            ErrorCode::TooLarge => "too-large",
            ErrorCode::TooDeep => "too-deep",
            ErrorCode::UnsupportedVersion => "unsupported-version",
            ErrorCode::Internal => "internal",
        }
    }

    fn from_wire(s: &str) -> Option<Self> {
        Some(match s {
            "bad-request" => ErrorCode::BadRequest,
            "invalid-instance" => ErrorCode::InvalidInstance,
            "too-large" => ErrorCode::TooLarge,
            "too-deep" => ErrorCode::TooDeep,
            "unsupported-version" => ErrorCode::UnsupportedVersion,
            "internal" => ErrorCode::Internal,
            _ => return None,
        })
    }

    /// Maps a JSON parse/decode failure onto the protocol error class.
    #[must_use]
    pub fn of_json(kind: JsonErrorKind) -> Self {
        match kind {
            JsonErrorKind::TooLarge => ErrorCode::TooLarge,
            JsonErrorKind::TooDeep => ErrorCode::TooDeep,
            JsonErrorKind::Syntax | JsonErrorKind::Decode => ErrorCode::BadRequest,
        }
    }
}

impl core::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A request-decode failure that already carries its protocol error class —
/// built structurally at each decode site (version check, instance
/// validation, envelope shape), never by inspecting error message text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestError {
    /// The request id to echo: the envelope's, when it holds a valid one,
    /// and 0 otherwise.
    pub id: u64,
    /// The protocol error class to answer with.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl core::fmt::Display for RequestError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "[{}] {}", self.code, self.message)
    }
}

impl std::error::Error for RequestError {}

/// The solution payload of a [`Response::Solved`] — every certified metric
/// of a [`Solution`], plus the explicit schedule when the request asked for
/// it.
#[derive(Debug, Clone, PartialEq)]
pub struct WireSolution {
    /// The schedule's makespan.
    pub makespan: Rational,
    /// The accepted makespan guess.
    pub accepted: Rational,
    /// The proven approximation factor relative to `accepted`.
    pub ratio_bound: Rational,
    /// The certified lower bound on `OPT`.
    pub certificate: Rational,
    /// Dual-test probes performed.
    pub probes: u64,
    /// How far the solve got (`full`, `degraded:deadline`, `degraded:work`,
    /// `cancelled`).
    pub completion: Completion,
    /// The explicit schedule, when requested.
    pub schedule: Option<Schedule>,
}

impl WireSolution {
    /// Builds the payload from a solved [`Solution`].
    #[must_use]
    pub fn of(sol: &Solution, want_schedule: bool) -> Self {
        let view = SolutionView::of(sol, want_schedule);
        WireSolution {
            makespan: view.makespan,
            accepted: view.accepted,
            ratio_bound: view.ratio_bound,
            certificate: view.certificate,
            probes: view.probes,
            completion: view.completion,
            schedule: view.schedule.cloned(),
        }
    }

    fn view(&self) -> SolutionView<'_> {
        SolutionView {
            makespan: self.makespan,
            accepted: self.accepted,
            ratio_bound: self.ratio_bound,
            certificate: self.certificate,
            probes: self.probes,
            completion: self.completion,
            schedule: self.schedule.as_ref(),
        }
    }
}

/// A solution payload with its schedule borrowed: what a [`WireSolution`]
/// holds, and what the server writes straight from a cached [`Solution`]
/// without cloning its schedule.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SolutionView<'a> {
    makespan: Rational,
    accepted: Rational,
    ratio_bound: Rational,
    certificate: Rational,
    probes: u64,
    completion: Completion,
    schedule: Option<&'a Schedule>,
}

impl<'a> SolutionView<'a> {
    /// The payload of a solved [`Solution`], with its schedule when wanted.
    pub(crate) fn of(sol: &'a Solution, want_schedule: bool) -> Self {
        SolutionView {
            makespan: sol.makespan,
            accepted: sol.accepted,
            ratio_bound: sol.ratio_bound,
            certificate: sol.certificate,
            probes: sol.probes as u64,
            completion: sol.completion,
            schedule: want_schedule.then(|| sol.schedule()),
        }
    }
}

/// Counter snapshot returned by a `"kind":"stats"` request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Requests solved (including degraded completions).
    pub solved: u64,
    /// Requests refused by admission control.
    pub shed: u64,
    /// Solve-side errors (isolated panics, overflow).
    pub errors: u64,
    /// Solve-cache counters.
    pub cache: CacheStats,
    /// How many requests may solve at once (the admission gate's slots).
    pub workers: u64,
}

/// A decoded server response.
#[derive(Debug, Clone)]
pub enum Response {
    /// The request was solved (possibly served from the cache).
    Solved {
        /// Echoed request id.
        id: u64,
        /// Whether the solution came from the content-hash cache.
        cached: bool,
        /// The solution payload.
        solution: WireSolution,
    },
    /// Admission control refused the request: `capacity` requests were
    /// already waiting for a solve slot. The client may retry later;
    /// nothing was solved.
    Shed {
        /// Echoed request id.
        id: u64,
        /// Requests waiting for a solve slot at refusal.
        queued: u64,
        /// The configured queue capacity.
        capacity: u64,
    },
    /// The request failed with a typed error.
    Error {
        /// Echoed request id (0 when the envelope was too broken to carry
        /// one).
        id: u64,
        /// The error class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Liveness/sleep acknowledgement.
    Pong {
        /// Echoed request id.
        id: u64,
    },
    /// Counter snapshot.
    Stats {
        /// Echoed request id.
        id: u64,
        /// The counters.
        stats: ServerStats,
    },
    /// Session or delta acknowledged: the connection's incremental state.
    Session {
        /// Echoed request id.
        id: u64,
        /// Jobs currently in the session's instance.
        jobs: u64,
        /// The state's content hash (equals the materialized instance's
        /// [`bss_instance::Instance::content_hash`]).
        content_hash: u64,
    },
    /// Shutdown acknowledged; the server drains and stops.
    Bye {
        /// Echoed request id.
        id: u64,
    },
}

impl Response {
    /// The echoed request id this response carries.
    #[must_use]
    pub fn id(&self) -> u64 {
        match self {
            Response::Solved { id, .. }
            | Response::Shed { id, .. }
            | Response::Error { id, .. }
            | Response::Pong { id }
            | Response::Stats { id, .. }
            | Response::Session { id, .. }
            | Response::Bye { id } => *id,
        }
    }
}

// ---------------------------------------------------------------------------
// Delta / completion wire spellings
// ---------------------------------------------------------------------------

/// Writes the wire fields of a [`Delta`] (`"op"` plus its operands).
fn write_delta(o: &mut ObjectWriter<'_>, delta: Delta) {
    match delta {
        Delta::AddJob { class, time } => {
            o.key("op").str("add-job");
            o.key("class").int(class as i128);
            o.key("time").int(time.into());
        }
        Delta::RemoveJob { job } => {
            o.key("op").str("remove-job");
            o.key("job").int(job as i128);
        }
        Delta::Retime { job, time } => {
            o.key("op").str("retime");
            o.key("job").int(job as i128);
            o.key("time").int(time.into());
        }
    }
}

fn completion_to_wire(c: Completion) -> &'static str {
    use bss_core::Interrupt;
    match c {
        Completion::Full => "full",
        Completion::Degraded(Interrupt::Deadline) => "degraded:deadline",
        Completion::Degraded(Interrupt::WorkExhausted) => "degraded:work",
        Completion::Degraded(Interrupt::Cancelled) | Completion::Cancelled => "cancelled",
    }
}

fn completion_from_wire(s: &str) -> Result<Completion, JsonError> {
    use bss_core::Interrupt;
    match s {
        "full" => Ok(Completion::Full),
        "degraded:deadline" => Ok(Completion::Degraded(Interrupt::Deadline)),
        "degraded:work" => Ok(Completion::Degraded(Interrupt::WorkExhausted)),
        "cancelled" => Ok(Completion::Cancelled),
        other => Err(JsonError::new(format!("unknown completion `{other}`"))),
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Writes a message envelope: `"v"` and `"id"`, then `body`'s fields.
fn envelope(w: &mut JsonWriter, id: u64, body: impl FnOnce(&mut ObjectWriter<'_>)) {
    w.object(|o| {
        o.key("v").int(PROTOCOL_VERSION);
        o.key("id").int(id.into());
        body(o);
    });
}

impl ToJson for Request {
    fn write_json(&self, w: &mut JsonWriter) {
        match self {
            Request::Solve(req) => InstanceFrame {
                id: req.id,
                instance: &req.instance,
                variant: req.variant,
                algo: req.algo,
                solve: Some(SolveOptions {
                    deadline_ms: req.deadline_ms,
                    work_budget: req.work_budget,
                    want_schedule: req.want_schedule,
                }),
            }
            .write_json(w),
            Request::Session(req) => InstanceFrame {
                id: req.id,
                instance: &req.instance,
                variant: req.variant,
                algo: req.algo,
                solve: None,
            }
            .write_json(w),
            Request::Ping { id } => envelope(w, *id, |o| o.key("kind").str("ping")),
            Request::Stats { id } => envelope(w, *id, |o| o.key("kind").str("stats")),
            Request::Shutdown { id } => envelope(w, *id, |o| o.key("kind").str("shutdown")),
            Request::Sleep { id, ms } => envelope(w, *id, |o| {
                o.key("kind").str("sleep");
                o.key("ms").int((*ms).into());
            }),
            Request::Delta { id, delta } => envelope(w, *id, |o| {
                o.key("kind").str("delta");
                write_delta(o, *delta);
            }),
            Request::Resolve { id, want_schedule } => envelope(w, *id, |o| {
                o.key("kind").str("resolve");
                o.key("schedule").bool(*want_schedule);
            }),
        }
    }
}

/// A `solve` or `session` request with its instance borrowed:
/// [`Request::Solve`] and [`Request::Session`] encode through it, and the
/// [`Client`](crate::Client) sends one without cloning the instance.
pub(crate) struct InstanceFrame<'a> {
    pub(crate) id: u64,
    pub(crate) instance: &'a Instance,
    pub(crate) variant: Variant,
    pub(crate) algo: Algorithm,
    /// A `solve` request's own fields; `None` makes it a `session` request.
    pub(crate) solve: Option<SolveOptions>,
}

impl ToJson for InstanceFrame<'_> {
    fn write_json(&self, w: &mut JsonWriter) {
        envelope(w, self.id, |o| {
            o.key("kind").str(if self.solve.is_some() {
                "solve"
            } else {
                "session"
            });
            o.key("variant").value(&self.variant);
            o.key("algorithm").str(&self.algo.to_string());
            if let Some(opts) = self.solve {
                if let Some(ms) = opts.deadline_ms {
                    o.key("deadline_ms").int(ms.into());
                }
                if let Some(units) = opts.work_budget {
                    o.key("work_budget").int(units.into());
                }
                o.key("schedule").bool(opts.want_schedule);
            }
            write_instance(o.key("instance"), self.instance);
        });
    }
}

// ---------------------------------------------------------------------------
// Bulk tables
// ---------------------------------------------------------------------------

/// Integers per row of a schedule's `placements` table.
const PLACEMENT_ROW: usize = 7;

/// Writes the wire form of an instance: its jobs as one `[class, time, ...]`
/// table, row by row.
fn write_instance(w: &mut JsonWriter, instance: &Instance) {
    w.object(|o| {
        o.key("machines").int(instance.machines() as i128);
        o.key("setups").array(|a| {
            for &s in instance.setups() {
                a.item().int(s.into());
            }
        });
        o.key("jobs").array(|a| {
            for job in instance.jobs() {
                a.item().int(job.class as i128);
                a.item().int(job.time.into());
            }
        });
    });
}

/// Writes the wire form of a schedule: its placements as one table of
/// [`PLACEMENT_ROW`]-integer rows, in order, row by row.
fn write_schedule(w: &mut JsonWriter, schedule: &Schedule) {
    w.object(|o| {
        o.key("machines").int(schedule.machines() as i128);
        o.key("placements").array(|a| {
            for p in schedule.placements() {
                a.item().int(p.machine as i128);
                a.item().int(p.start.numer());
                a.item().int(p.start.denom());
                a.item().int(p.len.numer());
                a.item().int(p.len.denom());
                a.item().int(p.kind.class() as i128);
                match p.kind {
                    ItemKind::Setup(_) => a.item().null(),
                    ItemKind::Piece { job, .. } => a.item().int(job as i128),
                }
            }
        });
    });
}

impl ToJson for WireSolution {
    fn write_json(&self, w: &mut JsonWriter) {
        self.view().write_json(w);
    }
}

impl ToJson for SolutionView<'_> {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object(|o| {
            o.key("makespan").value(&self.makespan);
            o.key("accepted").value(&self.accepted);
            o.key("ratio_bound").value(&self.ratio_bound);
            o.key("certificate").value(&self.certificate);
            o.key("probes").int(self.probes.into());
            o.key("completion").str(completion_to_wire(self.completion));
            if let Some(schedule) = self.schedule {
                write_schedule(o.key("schedule"), schedule);
            }
        });
    }
}

/// Writes an `ok` reply. [`Response::Solved`] encodes through it, and so
/// does the server's reply from a cached [`Solution`].
pub(crate) fn write_solved(w: &mut JsonWriter, id: u64, cached: bool, solution: SolutionView<'_>) {
    envelope(w, id, |o| {
        o.key("status").str("ok");
        o.key("cached").bool(cached);
        o.key("solution").value(&solution);
    });
}

/// The keys of a [`ServerStats`] object, in the order it is written.
const STATS_KEYS: [&str; 9] = [
    "solved",
    "shed",
    "errors",
    "cache_hits",
    "cache_misses",
    "cache_evictions",
    "cache_collisions",
    "cache_len",
    "workers",
];

impl ToJson for ServerStats {
    fn write_json(&self, w: &mut JsonWriter) {
        let values = [
            self.solved,
            self.shed,
            self.errors,
            self.cache.hits,
            self.cache.misses,
            self.cache.evictions,
            self.cache.collisions,
            self.cache.len,
            self.workers,
        ];
        w.object(|o| {
            for (key, value) in STATS_KEYS.into_iter().zip(values) {
                o.key(key).int(value.into());
            }
        });
    }
}

impl ToJson for Response {
    fn write_json(&self, w: &mut JsonWriter) {
        match self {
            Response::Solved {
                id,
                cached,
                solution,
            } => write_solved(w, *id, *cached, solution.view()),
            Response::Shed {
                id,
                queued,
                capacity,
            } => envelope(w, *id, |o| {
                o.key("status").str("shed");
                o.key("queued").int((*queued).into());
                o.key("capacity").int((*capacity).into());
            }),
            Response::Error { id, code, message } => envelope(w, *id, |o| {
                o.key("status").str("error");
                o.key("code").str(code.as_str());
                o.key("message").str(message);
            }),
            Response::Pong { id } => envelope(w, *id, |o| o.key("status").str("pong")),
            Response::Stats { id, stats } => envelope(w, *id, |o| {
                o.key("status").str("stats");
                o.key("stats").value(stats);
            }),
            Response::Session {
                id,
                jobs,
                content_hash,
            } => envelope(w, *id, |o| {
                o.key("status").str("session");
                o.key("jobs").int((*jobs).into());
                o.key("content_hash").int((*content_hash).into());
            }),
            Response::Bye { id } => envelope(w, *id, |o| o.key("status").str("bye")),
        }
    }
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// The decode error of a wrong `"v"`.
fn unsupported_version(v: i128) -> String {
    format!("unsupported protocol version {v} (this build speaks {PROTOCOL_VERSION})")
}

/// Reads a string; any other value is the decode error `message`.
fn string<'a>(r: &mut JsonReader<'a>, message: &str) -> Result<Cow<'a, str>, JsonError> {
    match r.scalar()? {
        Scalar::Str(s) => Ok(s),
        _ => Err(JsonError::new(message)),
    }
}

/// Reads an optional integer: `null` is `None`.
fn nullable_int(r: &mut JsonReader<'_>, what: &str) -> Result<Option<u64>, JsonError> {
    match r.scalar()? {
        Scalar::Null => Ok(None),
        other => other.int(what).map(Some),
    }
}

/// Reads a flat table of `W`-value rows into `out`, decoding each whole row
/// with `row` in order. A table that is not a whole number of rows is
/// rejected before any row is; after the first row `row` rejects, the rest
/// of the table is only counted and checked. The list keeps no growth slack:
/// the decoded instance or schedule outlives the frame.
fn read_table<'a, T, const W: usize>(
    r: &mut JsonReader<'a>,
    what: &str,
    row: impl Fn(&[Scalar<'a>; W]) -> Result<T, JsonError>,
) -> Result<Vec<T>, JsonError> {
    let mut out = Vec::new();
    let mut cells: [Scalar<'a>; W] = core::array::from_fn(|_| Scalar::Null);
    let (mut len, mut first_error) = (0usize, None);
    r.scalars(what, |cell| {
        if first_error.is_none() {
            cells[len % W] = cell;
            if len % W == W - 1 {
                match row(&cells) {
                    Ok(item) => out.push(item),
                    Err(e) => first_error = Some(e),
                }
            }
        }
        len += 1;
    })?;
    if len % W != 0 {
        return Err(JsonError::new(format!(
            "{what} table of {len} values is not a whole number of {W}-value rows"
        )));
    }
    if let Some(e) = first_error {
        return Err(e);
    }
    out.shrink_to_fit();
    Ok(out)
}

/// The unvalidated `(machines, setups, jobs)` of a wire instance; its jobs
/// come straight from the `[class, time, ...]` table.
struct WireInstance {
    machines: usize,
    setups: Vec<u64>,
    jobs: Vec<Job>,
}

impl FromJson for WireInstance {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, JsonError> {
        let (mut machines, mut setups, mut jobs) =
            (Field::default(), Field::default(), Field::default());
        r.object("machines", |key, r| match key {
            "machines" => machines.read_with(r, |r| r.int("machines")),
            "setups" => setups.read_with(r, |r| r.ints("setups", "setup time")),
            "jobs" => jobs.read_with(r, |r| {
                read_table(r, "jobs", |[class, time]| {
                    Ok(Job {
                        class: class.int("job class")?,
                        time: time.int("job time")?,
                    })
                })
            }),
            _ => r.skip(),
        })?;
        Ok(WireInstance {
            machines: machines.required("machines")?,
            setups: setups.required("setups")?,
            jobs: jobs.required("jobs")?,
        })
    }
}

/// Reads a wire schedule row by row. Rows go straight into the placement
/// list, not through [`Schedule::push`], so a zero-length placement is kept
/// and the result equals the sender's schedule field for field.
fn read_schedule(r: &mut JsonReader<'_>) -> Result<Schedule, JsonError> {
    let (mut machines, mut placements) = (Field::default(), Field::default());
    r.object("machines", |key, r| match key {
        "machines" => machines.read_with(r, |r| r.int("machines")),
        "placements" => placements.read_with(r, |r| {
            read_table(r, "placements", |row: &[Scalar<'_>; PLACEMENT_ROW]| {
                let class = row[5].int("placement class")?;
                Ok(Placement::new(
                    row[0].int("placement machine")?,
                    Rational::from_wire(row[1].int("start.num")?, row[2].int("start.den")?)?,
                    Rational::from_wire(row[3].int("len.num")?, row[4].int("len.den")?)?,
                    match &row[6] {
                        Scalar::Null => ItemKind::Setup(class),
                        job => ItemKind::Piece {
                            job: job.int("placement job")?,
                            class,
                        },
                    },
                ))
            })
        }),
        _ => r.skip(),
    })?;
    let mut schedule = Schedule::new(machines.required("machines")?);
    *schedule.placements_mut() = placements.required("placements")?;
    Ok(schedule)
}

/// The fields of a request envelope, each read as its key comes. A field
/// the request's kind does not use is read but never looked at.
#[derive(Default)]
struct RequestFields<'a> {
    v: Field<i128>,
    id: Field<u64>,
    kind: Field<Cow<'a, str>>,
    variant: Field<Variant>,
    algorithm: Field<Algorithm>,
    deadline_ms: Field<Option<u64>>,
    work_budget: Field<Option<u64>>,
    schedule: Field<bool>,
    instance: Field<WireInstance>,
    ms: Field<u64>,
    op: Field<Cow<'a, str>>,
    class: Field<u64>,
    time: Field<u64>,
    job: Field<u64>,
}

impl<'a> RequestFields<'a> {
    fn read(r: &mut JsonReader<'a>) -> Result<Self, JsonError> {
        let mut f = RequestFields::default();
        r.object("v", |key, r| match key {
            "v" => f.v.read_with(r, |r| r.int("protocol version")),
            "id" => f.id.read_with(r, |r| r.int("request id")),
            "kind" => f
                .kind
                .read_with(r, |r| string(r, "request `kind` must be a string")),
            "variant" => f.variant.read(r),
            "algorithm" => f.algorithm.read_with(r, |r| {
                string(r, "`algorithm` must be a string")?
                    .parse()
                    .map_err(JsonError::new)
            }),
            "deadline_ms" => f
                .deadline_ms
                .read_with(r, |r| nullable_int(r, "deadline_ms")),
            "work_budget" => f
                .work_budget
                .read_with(r, |r| nullable_int(r, "work_budget")),
            "schedule" => f.schedule.read_with(r, |r| match r.scalar()? {
                Scalar::Bool(b) => Ok(b),
                other => Err(JsonError::new(format!(
                    "`schedule` must be a bool, found {}",
                    other.kind()
                ))),
            }),
            "instance" => f.instance.read(r),
            "ms" => f.ms.read_with(r, |r| r.int("sleep ms")),
            "op" => {
                f.op.read_with(r, |r| string(r, "delta `op` must be a string"))
            }
            "class" => f.class.read_with(r, |r| r.int("class")),
            "time" => f.time.read_with(r, |r| r.int("time")),
            "job" => f.job.read_with(r, |r| r.int("job")),
            _ => r.skip(),
        })?;
        Ok(f)
    }

    /// The request, or its typed error: the fields are checked in one fixed
    /// order (version, id, kind, then the kind's own fields, the instance
    /// last) whatever order their keys came in. Every error echoes the
    /// envelope's id when it holds a valid one.
    fn into_request(self) -> Result<Request, RequestError> {
        let echo = self.id.ok().copied().unwrap_or(0);
        let bad = |err: JsonError| RequestError {
            id: echo,
            code: ErrorCode::BadRequest,
            message: err.to_string(),
        };
        let v = self.v.required("v").map_err(bad)?;
        if v != PROTOCOL_VERSION {
            return Err(RequestError {
                id: echo,
                code: ErrorCode::UnsupportedVersion,
                message: unsupported_version(v),
            });
        }
        let id = self.id.required("id").map_err(bad)?;
        let kind = self.kind.required("kind").map_err(bad)?;
        // Malformed JSON shape is `bad-request`; well-formed data violating
        // the paper's model is `invalid-instance`.
        let instance = |field: Field<WireInstance>| {
            let wire = field.required("instance").map_err(bad)?;
            Instance::from_parts(wire.machines, wire.setups, wire.jobs).map_err(|err| {
                RequestError {
                    id,
                    code: ErrorCode::InvalidInstance,
                    message: format!("invalid instance data: {err}"),
                }
            })
        };
        let want_schedule =
            |field: Field<bool>| Ok(field.optional().map_err(bad)?.unwrap_or(false));
        match &*kind {
            "ping" => Ok(Request::Ping { id }),
            "stats" => Ok(Request::Stats { id }),
            "shutdown" => Ok(Request::Shutdown { id }),
            "sleep" => Ok(Request::Sleep {
                id,
                ms: self.ms.required("ms").map_err(bad)?,
            }),
            "solve" => {
                let variant = self.variant.required("variant").map_err(bad)?;
                let algo = self.algorithm.required("algorithm").map_err(bad)?;
                let deadline_ms = self.deadline_ms.optional().map_err(bad)?.flatten();
                let work_budget = self.work_budget.optional().map_err(bad)?.flatten();
                let want_schedule = want_schedule(self.schedule)?;
                Ok(Request::Solve(Box::new(SolveRequest {
                    id,
                    instance: instance(self.instance)?,
                    variant,
                    algo,
                    deadline_ms,
                    work_budget,
                    want_schedule,
                })))
            }
            "session" => {
                let variant = self.variant.required("variant").map_err(bad)?;
                let algo = self.algorithm.required("algorithm").map_err(bad)?;
                Ok(Request::Session(Box::new(SessionRequest {
                    id,
                    instance: instance(self.instance)?,
                    variant,
                    algo,
                })))
            }
            "delta" => {
                let op = self.op.required("op").map_err(bad)?;
                let int = |field: Field<u64>, key: &str| field.required(key).map_err(bad);
                let delta = match &*op {
                    "add-job" => Delta::AddJob {
                        class: int(self.class, "class")? as usize,
                        time: int(self.time, "time")?,
                    },
                    "remove-job" => Delta::RemoveJob {
                        job: int(self.job, "job")? as usize,
                    },
                    "retime" => Delta::Retime {
                        job: int(self.job, "job")? as usize,
                        time: int(self.time, "time")?,
                    },
                    other => {
                        return Err(bad(JsonError::new(format!("unknown delta op `{other}`"))))
                    }
                };
                Ok(Request::Delta { id, delta })
            }
            "resolve" => Ok(Request::Resolve {
                id,
                want_schedule: want_schedule(self.schedule)?,
            }),
            other => Err(bad(JsonError::new(format!(
                "unknown request kind `{other}`"
            )))),
        }
    }
}

impl Request {
    /// Decodes a request frame straight from its text under `limits`, with
    /// a typed protocol error class: a syntax or limit error anywhere in the
    /// frame gets [`ErrorCode::of_json`] of its kind and id 0; a version
    /// mismatch gets [`ErrorCode::UnsupportedVersion`]; a model-violating
    /// instance gets [`ErrorCode::InvalidInstance`]; every other shape
    /// problem gets [`ErrorCode::BadRequest`]. The server answers straight
    /// from the returned error; no message inspection.
    ///
    /// # Errors
    /// [`RequestError`] carrying the class, the id to echo and the detail.
    pub fn from_frame(text: &str, limits: &ParseLimits) -> Result<Self, RequestError> {
        bss_json::decode_with(text, limits, RequestFields::read)
            .map_err(|err| RequestError {
                id: 0,
                code: ErrorCode::of_json(err.kind()),
                message: err.to_string(),
            })?
            .into_request()
    }

    /// [`Request::from_frame`] for a caller that already holds a parsed
    /// tree: it re-reads the tree's compact encoding.
    ///
    /// # Errors
    /// As [`Request::from_frame`].
    pub fn decode(value: &Value) -> Result<Self, RequestError> {
        Request::from_frame(&bss_json::encode(value), &ParseLimits::default())
    }
}

impl FromJson for Request {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, JsonError> {
        RequestFields::read(r)?
            .into_request()
            .map_err(|e| JsonError::new(e.message))
    }
}

impl FromJson for WireSolution {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, JsonError> {
        let mut rationals: [Field<Rational>; 4] = Default::default();
        let (mut probes, mut completion, mut schedule) =
            (Field::default(), Field::default(), Field::default());
        r.object("makespan", |key, r| match key {
            "makespan" => rationals[0].read(r),
            "accepted" => rationals[1].read(r),
            "ratio_bound" => rationals[2].read(r),
            "certificate" => rationals[3].read(r),
            "probes" => probes.read_with(r, |r| r.int("probes")),
            "completion" => completion.read_with(r, |r| {
                completion_from_wire(&string(r, "`completion` must be a string")?)
            }),
            "schedule" => schedule.read_with(r, |r| {
                if r.read_null()? {
                    Ok(None)
                } else {
                    read_schedule(r).map(Some)
                }
            }),
            _ => r.skip(),
        })?;
        let [makespan, accepted, ratio_bound, certificate] = rationals;
        Ok(WireSolution {
            makespan: makespan.required("makespan")?,
            accepted: accepted.required("accepted")?,
            ratio_bound: ratio_bound.required("ratio_bound")?,
            certificate: certificate.required("certificate")?,
            probes: probes.required("probes")?,
            completion: completion.required("completion")?,
            schedule: schedule.optional()?.flatten(),
        })
    }
}

impl FromJson for ServerStats {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, JsonError> {
        let mut fields: [Field<u64>; 9] = Default::default();
        r.object(STATS_KEYS[0], |key, r| {
            match STATS_KEYS.iter().position(|&k| k == key) {
                Some(i) => fields[i].read_with(r, |r| r.int(key)),
                None => r.skip(),
            }
        })?;
        let mut values = [0; 9];
        for ((value, field), key) in values.iter_mut().zip(fields).zip(STATS_KEYS) {
            *value = field.required(key)?;
        }
        let [solved, shed, errors, hits, misses, evictions, collisions, len, workers] = values;
        Ok(ServerStats {
            solved,
            shed,
            errors,
            cache: CacheStats {
                hits,
                misses,
                evictions,
                collisions,
                len,
            },
            workers,
        })
    }
}

/// The fields of a response envelope, each read as its key comes.
#[derive(Default)]
struct ResponseFields<'a> {
    v: Field<i128>,
    id: Field<u64>,
    status: Field<Cow<'a, str>>,
    cached: Field<bool>,
    solution: Field<WireSolution>,
    queued: Field<u64>,
    capacity: Field<u64>,
    code: Field<ErrorCode>,
    message: Field<String>,
    stats: Field<ServerStats>,
    jobs: Field<u64>,
    content_hash: Field<u64>,
}

impl FromJson for Response {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, JsonError> {
        let mut f = ResponseFields::default();
        r.object("v", |key, r| match key {
            "v" => f.v.read_with(r, |r| r.int("protocol version")),
            "id" => f.id.read_with(r, |r| r.int("request id")),
            "status" => f
                .status
                .read_with(r, |r| string(r, "response `status` must be a string")),
            "cached" => f
                .cached
                .read_with(r, |r| Ok(r.scalar()? == Scalar::Bool(true))),
            "solution" => f.solution.read(r),
            "queued" => f.queued.read_with(r, |r| r.int("queued")),
            "capacity" => f.capacity.read_with(r, |r| r.int("capacity")),
            "code" => f.code.read_with(r, |r| {
                match r.scalar()? {
                    Scalar::Str(code) => ErrorCode::from_wire(&code),
                    _ => None,
                }
                .ok_or_else(|| JsonError::new("unknown error code"))
            }),
            "message" => f.message.read_with(r, |r| match r.scalar()? {
                Scalar::Str(message) => Ok(message.into_owned()),
                _ => Ok(String::new()),
            }),
            "stats" => f.stats.read(r),
            "jobs" => f.jobs.read_with(r, |r| r.int("jobs")),
            "content_hash" => f.content_hash.read_with(r, |r| r.int("content_hash")),
            _ => r.skip(),
        })?;
        let v = f.v.required("v")?;
        if v != PROTOCOL_VERSION {
            return Err(JsonError::new(unsupported_version(v)));
        }
        let id = f.id.required("id")?;
        match &*f.status.required("status")? {
            "ok" => Ok(Response::Solved {
                id,
                cached: f.cached.required("cached")?,
                solution: f.solution.required("solution")?,
            }),
            "shed" => Ok(Response::Shed {
                id,
                queued: f.queued.required("queued")?,
                capacity: f.capacity.required("capacity")?,
            }),
            "error" => Ok(Response::Error {
                id,
                code: f.code.required("code")?,
                message: f.message.required("message")?,
            }),
            "pong" => Ok(Response::Pong { id }),
            "stats" => Ok(Response::Stats {
                id,
                stats: f.stats.required("stats")?,
            }),
            "session" => Ok(Response::Session {
                id,
                jobs: f.jobs.required("jobs")?,
                content_hash: f.content_hash.required("content_hash")?,
            }),
            "bye" => Ok(Response::Bye { id }),
            other => Err(JsonError::new(format!("unknown response status `{other}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_instance() -> Instance {
        let mut b = bss_instance::InstanceBuilder::new(2);
        b.add_batch(3, &[4, 5]);
        b.add_batch(1, &[2]);
        b.build().unwrap()
    }

    /// Instances whose job tables are long and varied: the tiny one, two
    /// uniform ones and two where every class is expensive.
    fn table_instances() -> Vec<Instance> {
        vec![
            tiny_instance(),
            bss_gen::uniform(400, 12, 5, 1),
            bss_gen::uniform(2000, 120, 16, 2),
            bss_gen::all_expensive(300, 6, 16, 3),
            bss_gen::all_expensive(1200, 24, 40, 4),
        ]
    }

    #[test]
    fn request_roundtrips() {
        let mut reqs = vec![
            Request::Solve(Box::new(SolveRequest {
                id: 7,
                instance: tiny_instance(),
                variant: Variant::Preemptive,
                algo: Algorithm::EpsilonSearch { eps_log2: 10 },
                deadline_ms: Some(50),
                work_budget: None,
                want_schedule: true,
            })),
            Request::Ping { id: 1 },
            Request::Stats { id: 2 },
            Request::Shutdown { id: 3 },
            Request::Sleep { id: 4, ms: 25 },
            Request::Session(Box::new(SessionRequest {
                id: 11,
                instance: tiny_instance(),
                variant: Variant::NonPreemptive,
                algo: Algorithm::EpsilonSearch { eps_log2: 6 },
            })),
            Request::Delta {
                id: 12,
                delta: Delta::AddJob { class: 1, time: 9 },
            },
            Request::Delta {
                id: 13,
                delta: Delta::RemoveJob { job: 2 },
            },
            Request::Delta {
                id: 14,
                delta: Delta::Retime { job: 0, time: 3 },
            },
            Request::Resolve {
                id: 15,
                want_schedule: true,
            },
        ];
        for (i, instance) in table_instances().into_iter().enumerate() {
            let id = 100 + 2 * i as u64;
            reqs.push(Request::Solve(Box::new(SolveRequest {
                id,
                instance: instance.clone(),
                variant: Variant::Splittable,
                algo: Algorithm::ThreeHalves,
                deadline_ms: None,
                work_budget: Some(1000),
                want_schedule: false,
            })));
            reqs.push(Request::Session(Box::new(SessionRequest {
                id: id + 1,
                instance,
                variant: Variant::Preemptive,
                algo: Algorithm::EpsilonSearch { eps_log2: 10 },
            })));
        }
        // Frames are compact; the pretty form must decode the same.
        let texts = reqs.iter().flat_map(|req| {
            [
                (req, bss_json::encode(req)),
                (req, bss_json::encode_pretty(req)),
            ]
        });
        for (req, text) in texts {
            let back: Request = bss_json::decode(&text).unwrap();
            match (req, &back) {
                (Request::Solve(a), Request::Solve(b)) => {
                    assert_eq!(a.id, b.id);
                    assert_eq!(a.instance, b.instance);
                    assert_eq!(a.instance.content_hash(), b.instance.content_hash());
                    assert_eq!(a.variant, b.variant);
                    assert_eq!(a.algo, b.algo);
                    assert_eq!(a.deadline_ms, b.deadline_ms);
                    assert_eq!(a.work_budget, b.work_budget);
                    assert_eq!(a.want_schedule, b.want_schedule);
                }
                (Request::Ping { id: a }, Request::Ping { id: b })
                | (Request::Stats { id: a }, Request::Stats { id: b })
                | (Request::Shutdown { id: a }, Request::Shutdown { id: b }) => {
                    assert_eq!(a, b);
                }
                (Request::Sleep { id: a, ms: am }, Request::Sleep { id: b, ms: bm }) => {
                    assert_eq!((a, am), (b, bm));
                }
                (Request::Session(a), Request::Session(b)) => {
                    assert_eq!(a.id, b.id);
                    assert_eq!(a.instance, b.instance);
                    assert_eq!(a.instance.content_hash(), b.instance.content_hash());
                    assert_eq!(a.variant, b.variant);
                    assert_eq!(a.algo, b.algo);
                }
                (Request::Delta { id: a, delta: ad }, Request::Delta { id: b, delta: bd }) => {
                    assert_eq!((a, ad), (b, bd))
                }
                (
                    Request::Resolve {
                        id: a,
                        want_schedule: aw,
                    },
                    Request::Resolve {
                        id: b,
                        want_schedule: bw,
                    },
                ) => assert_eq!((a, aw), (b, bw)),
                other => panic!("kind changed in roundtrip: {other:?}"),
            }
        }
    }

    #[test]
    fn response_roundtrips() {
        let sol = bss_core::solve(
            &tiny_instance(),
            Variant::Splittable,
            Algorithm::ThreeHalves,
        );
        let mut responses = vec![
            Response::Solved {
                id: 7,
                cached: true,
                solution: WireSolution::of(&sol, true),
            },
            Response::Solved {
                id: 8,
                cached: false,
                solution: WireSolution::of(&sol, false),
            },
            Response::Shed {
                id: 9,
                queued: 128,
                capacity: 128,
            },
            Response::Error {
                id: 0,
                code: ErrorCode::TooLarge,
                message: "frame too big".into(),
            },
            Response::Pong { id: 1 },
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
            Response::Session {
                id: 4,
                jobs: 13,
                content_hash: u64::MAX,
            },
            Response::Bye { id: 3 },
        ];
        // Every variant's schedule table, compared below placement for
        // placement; the preemptive and splittable ones carry fractional
        // starts and lengths.
        let variants = [
            Variant::NonPreemptive,
            Variant::Preemptive,
            Variant::Splittable,
        ];
        let mut fractional = [0; 3];
        for (i, instance) in table_instances().iter().enumerate() {
            for (v, variant) in variants.into_iter().enumerate() {
                let sol = bss_core::solve(instance, variant, Algorithm::ThreeHalves);
                fractional[v] += sol
                    .schedule()
                    .placements()
                    .iter()
                    .filter(|p| p.start.denom() > 1 || p.len.denom() > 1)
                    .count();
                responses.push(Response::Solved {
                    id: 100 + i as u64,
                    cached: false,
                    solution: WireSolution::of(&sol, true),
                });
            }
        }
        assert!(
            fractional[1] > 0 && fractional[2] > 0,
            "preemptive and splittable schedules must carry fractional rationals: {fractional:?}"
        );
        let texts = responses.iter().flat_map(|resp| {
            [
                (resp, bss_json::encode(resp)),
                (resp, bss_json::encode_pretty(resp)),
            ]
        });
        for (resp, text) in texts {
            let back: Response = bss_json::decode(&text).unwrap();
            match (resp, &back) {
                (
                    Response::Solved {
                        id: a,
                        cached: ac,
                        solution: asol,
                    },
                    Response::Solved {
                        id: b,
                        cached: bc,
                        solution: bsol,
                    },
                ) => {
                    assert_eq!((a, ac), (b, bc));
                    assert_eq!(asol, bsol);
                }
                (
                    Response::Shed {
                        id: a,
                        queued: aq,
                        capacity: ac,
                    },
                    Response::Shed {
                        id: b,
                        queued: bq,
                        capacity: bc,
                    },
                ) => assert_eq!((a, aq, ac), (b, bq, bc)),
                (
                    Response::Error {
                        id: a,
                        code: acode,
                        message: am,
                    },
                    Response::Error {
                        id: b,
                        code: bcode,
                        message: bm,
                    },
                ) => assert_eq!((a, acode, am), (b, bcode, bm)),
                (Response::Pong { id: a }, Response::Pong { id: b })
                | (Response::Bye { id: a }, Response::Bye { id: b }) => assert_eq!(a, b),
                (
                    Response::Stats {
                        id: a,
                        stats: astats,
                    },
                    Response::Stats {
                        id: b,
                        stats: bstats,
                    },
                ) => {
                    assert_eq!((a, astats), (b, bstats));
                }
                (
                    Response::Session {
                        id: a,
                        jobs: aj,
                        content_hash: ah,
                    },
                    Response::Session {
                        id: b,
                        jobs: bj,
                        content_hash: bh,
                    },
                ) => assert_eq!((a, aj, ah), (b, bj, bh)),
                other => panic!("status changed in roundtrip: {other:?}"),
            }
        }
    }

    /// Decodes an `ok` reply whose schedule has the given `placements`
    /// table body.
    fn reply_with_placements(placements: &str) -> Result<Response, JsonError> {
        let one = r#"{"num":1,"den":1}"#;
        bss_json::decode(&format!(
            r#"{{"v":2,"id":1,"status":"ok","cached":false,"solution":{{"makespan":{one},
            "accepted":{one},"ratio_bound":{one},"certificate":{one},"probes":1,
            "completion":"full","schedule":{{"machines":2,"placements":[{placements}]}}}}}}"#
        ))
    }

    #[test]
    fn malformed_tables_are_rejected() {
        for (bad, why) in [
            ("0,0,1,3,1,0", "six values"),
            ("0,0,1,3,1,0,null,0", "eight values"),
            ("0,0,0,3,1,0,null", "start.den 0"),
            ("0,0,1,3,4294967297,0,null", "len.den 2^32 + 1"),
            (
                "0,19807040628566084398385987585,1,3,1,0,null",
                "start.num 2^94 + 1",
            ),
            ("-1,0,1,3,1,0,null", "negative machine"),
            (r#"0,0,1,3,1,0,"7""#, "string job"),
        ] {
            assert!(reply_with_placements(bad).is_err(), "accepted {why}: {bad}");
        }
        // Both bounds are inclusive, and rows decode in order.
        let Response::Solved { solution, .. } = reply_with_placements(
            "1,19807040628566084398385987584,4294967296,3,2,4,null, 0,0,1,5,1,4,9",
        )
        .unwrap() else {
            panic!("an ok reply decodes as one");
        };
        let placements = solution.schedule.unwrap().placements().to_vec();
        assert_eq!(
            placements,
            [
                Placement::new(
                    1,
                    Rational::from(1u64 << 62),
                    Rational::new(3, 2),
                    ItemKind::Setup(4)
                ),
                Placement::new(
                    0,
                    Rational::ZERO,
                    Rational::from(5u64),
                    ItemKind::Piece { job: 9, class: 4 }
                ),
            ]
        );
        // A zero-length row is kept, not dropped as `Schedule::push` would.
        let Response::Solved { solution, .. } = reply_with_placements("0,2,1,0,1,0,3").unwrap()
        else {
            panic!("an ok reply decodes as one");
        };
        let schedule = solution.schedule.unwrap();
        assert_eq!(schedule.placements().len(), 1);
        assert!(schedule.placements()[0].len.is_zero());
    }

    #[test]
    fn wrong_version_is_rejected() {
        let text = r#"{"v": 99, "id": 1, "kind": "ping"}"#;
        assert!(bss_json::decode::<Request>(text).is_err());
    }
}
