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
//! arrays, so decoding one builds a single array of numbers rather than an
//! object per job or placement. The `instance` of a `solve` or `session`
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
//! A table whose length is not a whole number of rows, or a value that is
//! not an in-range integer, is a decode error (`bad-request` in a request);
//! a well-formed instance that violates the model is `invalid-instance`.
//! Rationals are bounded by [`Rational::from_wire`]. The file formats
//! ([`Instance::to_json`], [`Schedule::to_json`]) are unaffected: files are
//! read by people and keep the pretty, self-describing shape.

use bss_core::{Algorithm, Completion, Solution};
use bss_instance::{Delta, Instance, Job, Variant};
use bss_json::{FromJson, JsonError, JsonErrorKind, JsonWriter, ObjectWriter, ToJson, Value};
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
    /// The protocol error class to answer with.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl RequestError {
    fn bad(err: &JsonError) -> Self {
        RequestError {
            code: ErrorCode::BadRequest,
            message: err.to_string(),
        }
    }
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
// Algorithm / completion wire spellings
// ---------------------------------------------------------------------------

/// Wire spelling of an [`Algorithm`] (matches the CLI's `--algorithm`).
#[must_use]
pub fn algorithm_to_wire(algo: Algorithm) -> String {
    match algo {
        Algorithm::TwoApprox => "two-approx".into(),
        Algorithm::ThreeHalves => "three-halves".into(),
        Algorithm::Portfolio => "portfolio".into(),
        Algorithm::EpsilonSearch { eps_log2 } => format!("eps:{eps_log2}"),
    }
}

/// Parses the wire spelling of an [`Algorithm`].
pub fn algorithm_from_wire(s: &str) -> Result<Algorithm, JsonError> {
    match s {
        "two-approx" => Ok(Algorithm::TwoApprox),
        "three-halves" => Ok(Algorithm::ThreeHalves),
        "portfolio" => Ok(Algorithm::Portfolio),
        _ => s
            .strip_prefix("eps:")
            .and_then(|e| e.parse().ok())
            .map(|eps_log2| Algorithm::EpsilonSearch { eps_log2 })
            .ok_or_else(|| JsonError::new(format!("unknown algorithm `{s}`"))),
    }
}

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

/// Parses the `"op"` + operand fields of a delta request.
fn delta_from_value(value: &Value) -> Result<Delta, JsonError> {
    let op = bss_json::required(value, "op")?
        .as_str()
        .ok_or_else(|| JsonError::new("delta `op` must be a string"))?;
    let int = |k: &str| -> Result<u64, JsonError> {
        bss_json::int_from(bss_json::required(value, k)?, k)
    };
    match op {
        "add-job" => Ok(Delta::AddJob {
            class: int("class")? as usize,
            time: int("time")?,
        }),
        "remove-job" => Ok(Delta::RemoveJob {
            job: int("job")? as usize,
        }),
        "retime" => Ok(Delta::Retime {
            job: int("job")? as usize,
            time: int("time")?,
        }),
        other => Err(JsonError::new(format!("unknown delta op `{other}`"))),
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
            o.key("algorithm").str(&algorithm_to_wire(self.algo));
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

fn check_version(value: &Value) -> Result<(), JsonError> {
    let v = bss_json::int_from::<i128>(bss_json::required(value, "v")?, "protocol version")?;
    if v != PROTOCOL_VERSION {
        return Err(JsonError::new(format!(
            "unsupported protocol version {v} (this build speaks {PROTOCOL_VERSION})"
        )));
    }
    Ok(())
}

fn envelope_id(value: &Value) -> Result<u64, JsonError> {
    bss_json::int_from(bss_json::required(value, "id")?, "request id")
}

/// The id of a message, when the envelope is intact enough to carry one —
/// used to echo ids even on otherwise-broken requests.
#[must_use]
pub fn peek_id(value: &Value) -> u64 {
    envelope_id(value).unwrap_or(0)
}

impl Request {
    /// Decodes a request envelope with a typed protocol error class:
    /// version mismatches get [`ErrorCode::UnsupportedVersion`],
    /// model-violating instances get [`ErrorCode::InvalidInstance`], and
    /// every other shape problem gets [`ErrorCode::BadRequest`]. The server
    /// answers straight from the returned code; no message inspection.
    ///
    /// # Errors
    /// [`RequestError`] carrying the class and detail.
    pub fn decode(value: &Value) -> Result<Self, RequestError> {
        let v = bss_json::int_from::<i128>(
            bss_json::required(value, "v").map_err(|e| RequestError::bad(&e))?,
            "protocol version",
        )
        .map_err(|e| RequestError::bad(&e))?;
        if v != PROTOCOL_VERSION {
            return Err(RequestError {
                code: ErrorCode::UnsupportedVersion,
                message: format!(
                    "unsupported protocol version {v} (this build speaks {PROTOCOL_VERSION})"
                ),
            });
        }
        let id = envelope_id(value).map_err(|e| RequestError::bad(&e))?;
        let bad = |err: JsonError| RequestError::bad(&err);
        let kind = bss_json::required(value, "kind")
            .map_err(bad)?
            .as_str()
            .ok_or_else(|| bad(JsonError::new("request `kind` must be a string")))?;
        match kind {
            "ping" => Ok(Request::Ping { id }),
            "stats" => Ok(Request::Stats { id }),
            "shutdown" => Ok(Request::Shutdown { id }),
            "sleep" => Ok(Request::Sleep {
                id,
                ms: bss_json::int_from(bss_json::required(value, "ms").map_err(bad)?, "sleep ms")
                    .map_err(bad)?,
            }),
            "solve" => {
                let (variant, algo) = decode_params(value)?;
                let deadline_ms = match value.field("deadline_ms") {
                    None | Some(Value::Null) => None,
                    Some(v) => Some(bss_json::int_from(v, "deadline_ms").map_err(bad)?),
                };
                let work_budget = match value.field("work_budget") {
                    None | Some(Value::Null) => None,
                    Some(v) => Some(bss_json::int_from(v, "work_budget").map_err(bad)?),
                };
                let want_schedule = decode_want_schedule(value)?;
                let instance = decode_instance(value)?;
                Ok(Request::Solve(Box::new(SolveRequest {
                    id,
                    instance,
                    variant,
                    algo,
                    deadline_ms,
                    work_budget,
                    want_schedule,
                })))
            }
            "session" => {
                let (variant, algo) = decode_params(value)?;
                let instance = decode_instance(value)?;
                Ok(Request::Session(Box::new(SessionRequest {
                    id,
                    instance,
                    variant,
                    algo,
                })))
            }
            "delta" => Ok(Request::Delta {
                id,
                delta: delta_from_value(value).map_err(bad)?,
            }),
            "resolve" => Ok(Request::Resolve {
                id,
                want_schedule: decode_want_schedule(value)?,
            }),
            other => Err(bad(JsonError::new(format!(
                "unknown request kind `{other}`"
            )))),
        }
    }
}

/// Decodes the shared `"variant"` + `"algorithm"` fields of solve-shaped
/// requests.
fn decode_params(value: &Value) -> Result<(Variant, Algorithm), RequestError> {
    let bad = |err: JsonError| RequestError::bad(&err);
    let variant = Variant::from_json_value(bss_json::required(value, "variant").map_err(bad)?)
        .map_err(bad)?;
    let algo = algorithm_from_wire(
        bss_json::required(value, "algorithm")
            .map_err(bad)?
            .as_str()
            .ok_or_else(|| bad(JsonError::new("`algorithm` must be a string")))?,
    )
    .map_err(bad)?;
    Ok((variant, algo))
}

/// Decodes the optional `"schedule"` bool (absent means `false`).
fn decode_want_schedule(value: &Value) -> Result<bool, RequestError> {
    match value.field("schedule") {
        None => Ok(false),
        Some(Value::Bool(b)) => Ok(*b),
        Some(other) => Err(RequestError::bad(&JsonError::new(format!(
            "`schedule` must be a bool, found {}",
            other.kind()
        )))),
    }
}

/// Decodes the `"instance"` object with the typed error-class split:
/// malformed JSON shape is [`ErrorCode::BadRequest`], well-formed data
/// violating the paper's model is [`ErrorCode::InvalidInstance`] — decided
/// by the error's *type*, not its text.
fn decode_instance(value: &Value) -> Result<Instance, RequestError> {
    let (machines, setups, jobs) = bss_json::required(value, "instance")
        .and_then(instance_parts)
        .map_err(|e| RequestError::bad(&e))?;
    Instance::from_parts(machines, setups, jobs).map_err(|err| RequestError {
        code: ErrorCode::InvalidInstance,
        message: format!("invalid instance data: {err}"),
    })
}

// ---------------------------------------------------------------------------
// Bulk tables
// ---------------------------------------------------------------------------

/// Integers per row of a schedule's `placements` table.
const PLACEMENT_ROW: usize = 7;

/// The rows of a flat table of `width`-value rows.
fn table<'v>(
    value: &'v Value,
    width: usize,
    what: &str,
) -> Result<core::slice::ChunksExact<'v, Value>, JsonError> {
    let items = value.as_array().ok_or_else(|| {
        JsonError::new(format!("expected array for {what}, found {}", value.kind()))
    })?;
    if items.len() % width != 0 {
        return Err(JsonError::new(format!(
            "{what} table of {} values is not a whole number of {width}-value rows",
            items.len()
        )));
    }
    Ok(items.chunks_exact(width))
}

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

/// The unvalidated `(machines, setups, jobs)` of a wire instance.
fn instance_parts(value: &Value) -> Result<(usize, Vec<u64>, Vec<Job>), JsonError> {
    let machines = bss_json::int_from(bss_json::required(value, "machines")?, "machines")?;
    let setups = bss_json::vec_from(bss_json::required(value, "setups")?, "setups", |v| {
        bss_json::int_from(v, "setup time")
    })?;
    let jobs = table(bss_json::required(value, "jobs")?, 2, "jobs")?
        .map(|row| {
            Ok(Job {
                class: bss_json::int_from(&row[0], "job class")?,
                time: bss_json::int_from(&row[1], "job time")?,
            })
        })
        .collect::<Result<_, JsonError>>()?;
    Ok((machines, setups, jobs))
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

/// Decodes a wire schedule row by row. Rows go straight into the placement
/// list, not through [`Schedule::push`], so a zero-length placement is kept
/// and the result equals the sender's schedule field for field.
fn schedule_from_wire(value: &Value) -> Result<Schedule, JsonError> {
    let mut schedule = Schedule::new(bss_json::int_from(
        bss_json::required(value, "machines")?,
        "machines",
    )?);
    let rows = table(
        bss_json::required(value, "placements")?,
        PLACEMENT_ROW,
        "placements",
    )?;
    let placements = schedule.placements_mut();
    placements.reserve_exact(rows.len());
    for row in rows {
        let int = |i: usize, what: &str| bss_json::int_from::<i128>(&row[i], what);
        let class = bss_json::int_from(&row[5], "placement class")?;
        placements.push(Placement::new(
            bss_json::int_from(&row[0], "placement machine")?,
            Rational::from_wire(int(1, "start.num")?, int(2, "start.den")?)?,
            Rational::from_wire(int(3, "len.num")?, int(4, "len.den")?)?,
            match &row[6] {
                Value::Null => ItemKind::Setup(class),
                job => ItemKind::Piece {
                    job: bss_json::int_from(job, "placement job")?,
                    class,
                },
            },
        ));
    }
    Ok(schedule)
}

impl FromJson for Request {
    fn from_json_value(value: &Value) -> Result<Self, JsonError> {
        Request::decode(value).map_err(|e| JsonError::new(e.message))
    }
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

impl FromJson for WireSolution {
    fn from_json_value(value: &Value) -> Result<Self, JsonError> {
        Ok(WireSolution {
            makespan: Rational::from_json_value(bss_json::required(value, "makespan")?)?,
            accepted: Rational::from_json_value(bss_json::required(value, "accepted")?)?,
            ratio_bound: Rational::from_json_value(bss_json::required(value, "ratio_bound")?)?,
            certificate: Rational::from_json_value(bss_json::required(value, "certificate")?)?,
            probes: bss_json::int_from(bss_json::required(value, "probes")?, "probes")?,
            completion: completion_from_wire(
                bss_json::required(value, "completion")?
                    .as_str()
                    .ok_or_else(|| JsonError::new("`completion` must be a string"))?,
            )?,
            schedule: match value.field("schedule") {
                None | Some(Value::Null) => None,
                Some(v) => Some(schedule_from_wire(v)?),
            },
        })
    }
}

impl ToJson for ServerStats {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object(|o| {
            o.key("solved").int(self.solved.into());
            o.key("shed").int(self.shed.into());
            o.key("errors").int(self.errors.into());
            o.key("cache_hits").int(self.cache.hits.into());
            o.key("cache_misses").int(self.cache.misses.into());
            o.key("cache_evictions").int(self.cache.evictions.into());
            o.key("cache_collisions").int(self.cache.collisions.into());
            o.key("cache_len").int(self.cache.len.into());
            o.key("workers").int(self.workers.into());
        });
    }
}

impl FromJson for ServerStats {
    fn from_json_value(value: &Value) -> Result<Self, JsonError> {
        let int = |k: &str| -> Result<u64, JsonError> {
            bss_json::int_from(bss_json::required(value, k)?, k)
        };
        Ok(ServerStats {
            solved: int("solved")?,
            shed: int("shed")?,
            errors: int("errors")?,
            cache: CacheStats {
                hits: int("cache_hits")?,
                misses: int("cache_misses")?,
                evictions: int("cache_evictions")?,
                collisions: int("cache_collisions")?,
                len: int("cache_len")?,
            },
            workers: int("workers")?,
        })
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

impl FromJson for Response {
    fn from_json_value(value: &Value) -> Result<Self, JsonError> {
        check_version(value)?;
        let id = envelope_id(value)?;
        let status = bss_json::required(value, "status")?
            .as_str()
            .ok_or_else(|| JsonError::new("response `status` must be a string"))?;
        match status {
            "ok" => Ok(Response::Solved {
                id,
                cached: matches!(bss_json::required(value, "cached")?, Value::Bool(true)),
                solution: WireSolution::from_json_value(bss_json::required(value, "solution")?)?,
            }),
            "shed" => Ok(Response::Shed {
                id,
                queued: bss_json::int_from(bss_json::required(value, "queued")?, "queued")?,
                capacity: bss_json::int_from(bss_json::required(value, "capacity")?, "capacity")?,
            }),
            "error" => {
                let code = bss_json::required(value, "code")?
                    .as_str()
                    .and_then(ErrorCode::from_wire)
                    .ok_or_else(|| JsonError::new("unknown error code"))?;
                let message = bss_json::required(value, "message")?
                    .as_str()
                    .unwrap_or_default()
                    .to_string();
                Ok(Response::Error { id, code, message })
            }
            "pong" => Ok(Response::Pong { id }),
            "stats" => Ok(Response::Stats {
                id,
                stats: ServerStats::from_json_value(bss_json::required(value, "stats")?)?,
            }),
            "session" => Ok(Response::Session {
                id,
                jobs: bss_json::int_from(bss_json::required(value, "jobs")?, "jobs")?,
                content_hash: bss_json::int_from(
                    bss_json::required(value, "content_hash")?,
                    "content_hash",
                )?,
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

    #[test]
    fn algorithm_wire_covers_all_variants() {
        for algo in [
            Algorithm::TwoApprox,
            Algorithm::ThreeHalves,
            Algorithm::Portfolio,
            Algorithm::EpsilonSearch { eps_log2: 12 },
        ] {
            assert_eq!(algorithm_from_wire(&algorithm_to_wire(algo)).unwrap(), algo);
        }
        assert!(algorithm_from_wire("eps:bogus").is_err());
        assert!(algorithm_from_wire("simplex").is_err());
    }
}
