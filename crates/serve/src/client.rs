//! A blocking client for the `bss-serve` protocol.
//!
//! One [`Client`] owns one connection and issues one request at a time
//! (request ids are assigned internally and checked on every response).
//! The load generator opens one client per simulated connection.

use std::io;
use std::net::{TcpStream, ToSocketAddrs};

use bss_core::Algorithm;
use bss_instance::{Delta, Instance, Variant};
use bss_json::frame::{read_frame, write_frame, FrameError};
use bss_json::{JsonError, ToJson};

use crate::protocol::{
    ErrorCode, InstanceFrame, Request, Response, ServerStats, WireSolution, PROTOCOL_VERSION,
};

/// Client-side failure modes.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(io::Error),
    /// Framing failure (truncated, oversized, or non-UTF-8 frame).
    Frame(FrameError),
    /// The server's response did not decode.
    Protocol(JsonError),
    /// The server closed the connection before answering.
    Disconnected,
    /// The server answered with a typed error.
    Server {
        /// The error class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// The response id or status did not match the request.
    Mismatch(String),
}

impl core::fmt::Display for ClientError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Frame(e) => write!(f, "frame error: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol error: {e}"),
            ClientError::Disconnected => write!(f, "server closed the connection"),
            ClientError::Server { code, message } => {
                write!(f, "server error [{code}]: {message}")
            }
            ClientError::Mismatch(what) => write!(f, "response mismatch: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

impl From<JsonError> for ClientError {
    fn from(e: JsonError) -> Self {
        ClientError::Protocol(e)
    }
}

/// Per-solve knobs beyond the instance itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct SolveOptions {
    /// Wall-clock deadline, measured from arrival at the server.
    pub deadline_ms: Option<u64>,
    /// Work-unit budget.
    pub work_budget: Option<u64>,
    /// Ask for the full explicit schedule in the response.
    pub want_schedule: bool,
}

/// The two non-error outcomes of a solve request.
#[derive(Debug, Clone)]
pub enum SolveOutcome {
    /// The server solved (or cache-served) the request.
    Solved {
        /// Whether the answer came from the solve cache.
        cached: bool,
        /// The solution payload.
        solution: WireSolution,
    },
    /// Admission control refused the request; retry later.
    Shed {
        /// Requests waiting for a solve slot at refusal.
        queued: u64,
        /// Configured queue capacity.
        capacity: u64,
    },
}

/// The acknowledged state of a server-side session, returned by
/// [`Client::session`] and [`Client::delta`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionAck {
    /// Jobs currently in the session's instance.
    pub jobs: u64,
    /// The state's content hash (equals the materialized instance's
    /// [`Instance::content_hash`]) — lets the client verify the server
    /// tracked its deltas without shipping the instance back.
    pub content_hash: u64,
}

/// A connected protocol client.
pub struct Client {
    stream: TcpStream,
    max_frame_bytes: usize,
    next_id: u64,
}

impl Client {
    /// Connects to a server.
    ///
    /// # Errors
    /// [`ClientError::Io`] when the connection fails.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        // One small frame per request: disable Nagle so the write is not
        // held hostage to the peer's delayed ACK.
        let _ = stream.set_nodelay(true);
        Ok(Client {
            stream,
            max_frame_bytes: 32 << 20,
            next_id: 1,
        })
    }

    /// Round-trips one request.
    fn call(&mut self, request: &impl ToJson) -> Result<Response, ClientError> {
        let text = bss_json::encode(request);
        write_frame(&mut self.stream, &text, self.max_frame_bytes)?;
        let payload =
            read_frame(&mut self.stream, self.max_frame_bytes)?.ok_or(ClientError::Disconnected)?;
        Ok(bss_json::decode::<Response>(&payload)?)
    }

    /// Sends the request built for a fresh id and decodes its reply with
    /// `expect`, which returns the echoed id and the value for the replies
    /// the request expects (and [`unexpected`] for any other). The echoed
    /// id must match.
    fn exchange<R: ToJson, T>(
        &mut self,
        request: impl FnOnce(u64) -> R,
        expect: impl FnOnce(Response) -> Result<(u64, T), ClientError>,
    ) -> Result<T, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        let (rid, value) = expect(self.call(&request(id))?)?;
        if rid == id {
            Ok(value)
        } else {
            Err(ClientError::Mismatch(format!(
                "response id {rid}, expected {id} (protocol v{PROTOCOL_VERSION})"
            )))
        }
    }

    /// Solves `instance` on the server.
    ///
    /// # Errors
    /// Any [`ClientError`]; a shed is a *success* ([`SolveOutcome::Shed`]),
    /// not an error.
    pub fn solve(
        &mut self,
        instance: &Instance,
        variant: Variant,
        algo: Algorithm,
        opts: SolveOptions,
    ) -> Result<SolveOutcome, ClientError> {
        let request = |id| InstanceFrame {
            id,
            instance,
            variant,
            algo,
            solve: Some(opts),
        };
        self.exchange(request, solve_outcome)
    }

    /// Liveness probe.
    ///
    /// # Errors
    /// Any [`ClientError`].
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.exchange(
            |id| Request::Ping { id },
            |reply| match reply {
                Response::Pong { id } => Ok((id, ())),
                other => Err(unexpected("ping", other)),
            },
        )
    }

    /// Fetches the server's counter snapshot.
    ///
    /// # Errors
    /// Any [`ClientError`].
    pub fn stats(&mut self) -> Result<ServerStats, ClientError> {
        self.exchange(
            |id| Request::Stats { id },
            |reply| match reply {
                Response::Stats { id, stats } => Ok((id, stats)),
                other => Err(unexpected("stats", other)),
            },
        )
    }

    /// Test instrumentation: hold one of the server's solve slots for `ms`
    /// milliseconds (requires `allow_test_ops` server-side). Blocks until
    /// the sleep completes.
    ///
    /// # Errors
    /// Any [`ClientError`]; [`ClientError::Server`] with
    /// [`ErrorCode::BadRequest`] when the server refuses test ops. A shed
    /// sleep reports [`ClientError::Mismatch`].
    pub fn sleep(&mut self, ms: u64) -> Result<(), ClientError> {
        match self.try_sleep(ms)? {
            None => Ok(()),
            Some((queued, capacity)) => Err(ClientError::Mismatch(format!(
                "sleep was shed ({queued} waiting, capacity {capacity})"
            ))),
        }
    }

    /// Like [`Client::sleep`] but surfaces a shed as `Some((queued,
    /// capacity))` — the overload tests need to observe shedding on the
    /// sleep path.
    ///
    /// # Errors
    /// Any [`ClientError`].
    pub fn try_sleep(&mut self, ms: u64) -> Result<Option<(u64, u64)>, ClientError> {
        self.exchange(
            |id| Request::Sleep { id, ms },
            |reply| match reply {
                Response::Pong { id } => Ok((id, None)),
                Response::Shed {
                    id,
                    queued,
                    capacity,
                } => Ok((id, Some((queued, capacity)))),
                other => Err(unexpected("sleep", other)),
            },
        )
    }

    /// Opens (or replaces) this connection's incremental session on the
    /// server, installing `instance` as the base state.
    ///
    /// # Errors
    /// Any [`ClientError`].
    pub fn session(
        &mut self,
        instance: &Instance,
        variant: Variant,
        algo: Algorithm,
    ) -> Result<SessionAck, ClientError> {
        let request = |id| InstanceFrame {
            id,
            instance,
            variant,
            algo,
            solve: None,
        };
        self.exchange(request, session_ack)
    }

    /// Applies one delta to the server-side session.
    ///
    /// # Errors
    /// Any [`ClientError`]; a delta the model rejects (unknown job, emptied
    /// class) comes back as [`ClientError::Server`] with
    /// [`ErrorCode::InvalidInstance`] and leaves the session unchanged.
    pub fn delta(&mut self, delta: Delta) -> Result<SessionAck, ClientError> {
        self.exchange(|id| Request::Delta { id, delta }, session_ack)
    }

    /// Solves the session's current state through the server's warm-start
    /// path; `cached` in the result marks a solve-cache hit. Resolves share
    /// the solve path's admission control, so a saturated server answers
    /// [`SolveOutcome::Shed`], exactly as [`Client::solve`] does.
    ///
    /// # Errors
    /// Any [`ClientError`]; resolving without a session is a
    /// [`ClientError::Server`] with [`ErrorCode::BadRequest`].
    pub fn resolve(&mut self, want_schedule: bool) -> Result<SolveOutcome, ClientError> {
        let request = |id| Request::Resolve { id, want_schedule };
        self.exchange(request, solve_outcome)
    }

    /// Asks the server to shut down (the response is `bye`).
    ///
    /// # Errors
    /// Any [`ClientError`].
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        self.exchange(
            |id| Request::Shutdown { id },
            |reply| match reply {
                Response::Bye { id } => Ok((id, ())),
                other => Err(unexpected("shutdown", other)),
            },
        )
    }
}

/// The error for a reply a request does not expect: a typed server error
/// becomes [`ClientError::Server`], anything else a
/// [`ClientError::Mismatch`].
fn unexpected(op: &str, reply: Response) -> ClientError {
    match reply {
        Response::Error { code, message, .. } => ClientError::Server { code, message },
        other => ClientError::Mismatch(format!("unexpected response to {op}: {other:?}")),
    }
}

/// The reply decoder shared by solves and resolves: a solution or a shed.
fn solve_outcome(reply: Response) -> Result<(u64, SolveOutcome), ClientError> {
    match reply {
        Response::Solved {
            id,
            cached,
            solution,
        } => Ok((id, SolveOutcome::Solved { cached, solution })),
        Response::Shed {
            id,
            queued,
            capacity,
        } => Ok((id, SolveOutcome::Shed { queued, capacity })),
        other => Err(unexpected("solve/resolve", other)),
    }
}

/// The reply decoder of session and delta requests.
fn session_ack(reply: Response) -> Result<(u64, SessionAck), ClientError> {
    match reply {
        Response::Session {
            id,
            jobs,
            content_hash,
        } => Ok((id, SessionAck { jobs, content_hash })),
        other => Err(unexpected("session/delta", other)),
    }
}
