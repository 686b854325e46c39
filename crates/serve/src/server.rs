//! The solve server: a TCP accept loop, and one solve path that runs on the
//! connection threads behind a counting admission gate.
//!
//! # Architecture
//!
//! ```text
//! accept loop ──► connection threads ──► cache ──► admission gate ──► solve_problem
//!                  (frame, parse,         (hits     (≤ workers solve,   (pooled warm
//!                   session state)         reply)    FIFO, shed at cap)   workspace)
//! ```
//!
//! One detached thread per connection owns the socket: it reads frames,
//! parses under the hardened [`bss_json`] limits and answers control
//! requests inline. Stateless solves and session resolves take the same
//! path on that thread. The solve cache comes first, so a hit touches
//! nothing else. A miss takes a slot from the admission gate: at most
//! `workers` requests solve at once and waiting requests are admitted in
//! arrival order. A request that finds `queue_capacity` others already
//! waiting is answered with a typed [`Response::Shed`] at once instead of
//! blocking — overload is a first-class, machine-readable outcome, not a
//! stalled socket. An admitted request runs [`solve_problem`] on a warm
//! workspace from a shared pool, behind its panic isolation, and a full
//! answer goes into the cache.
//!
//! Deadlines are measured from **arrival** at the server — time spent
//! waiting for a slot counts against a request's deadline, so a
//! `deadline_ms` is an honest service-level promise, and a request that
//! starves at the gate comes back `degraded`, never silently late.

use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use bss_core::{
    solve_problem, Algorithm, BssProblem, DualWorkspace, Solution, SolveBudget, SolveOptions,
    WarmStart,
};
use bss_instance::{IncrementalInstance, Variant};
use bss_json::frame::{read_frame, write_frame, FrameError};
use bss_json::ParseLimits;

use crate::cache::SolveCache;
use crate::protocol::{
    peek_id, ErrorCode, Request, Response, ServerStats, SessionRequest, SolveRequest, WireSolution,
};

/// Configuration of a server ([`spawn`]). The defaults serve production traffic;
/// tests narrow them to force specific behaviors (tiny queues for shedding,
/// tiny caches for eviction).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address. Port 0 binds an ephemeral port; read it back from
    /// [`ServerHandle::addr`].
    pub addr: String,
    /// Requests solved at once (0 = one per available core).
    pub workers: usize,
    /// Solve-cache entry bound (0 disables caching).
    pub cache_capacity: usize,
    /// Bound on requests waiting for a solve slot; requests beyond it are
    /// shed.
    pub queue_capacity: usize,
    /// Maximum accepted frame payload, bytes.
    pub max_frame_bytes: usize,
    /// Maximum accepted JSON nesting depth.
    pub max_json_depth: usize,
    /// Honor `"kind":"sleep"` requests (test instrumentation that lets
    /// integration tests hold a solve slot deterministically). Keep `false`
    /// outside tests.
    pub allow_test_ops: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 0,
            cache_capacity: 1024,
            queue_capacity: 1024,
            max_frame_bytes: 32 << 20,
            max_json_depth: 64,
            allow_test_ops: false,
        }
    }
}

/// The admission gate: tickets in arrival order, the slots in use, and the
/// shutdown flag. The flag is read and raised only under the gate's lock,
/// so no request is admitted after a shutdown has seen the gate drained.
#[derive(Default)]
struct Gate {
    /// Tickets handed out; `issued - admitted` requests are waiting.
    issued: u64,
    /// Tickets admitted, in ticket order.
    admitted: u64,
    /// Admitted requests still holding a slot.
    running: usize,
    shutdown: bool,
}

/// State shared by the accept loop and the connection threads.
struct Shared {
    gate: Mutex<Gate>,
    /// Signalled whenever a slot frees, a ticket is admitted or shutdown
    /// begins.
    gate_signal: Condvar,
    /// Warm solve workspaces. Only slot holders pop one and each pushes it
    /// back, so the pool never holds more than `slots` entries.
    workspaces: Mutex<Vec<DualWorkspace>>,
    cache: Mutex<SolveCache>,
    solved: AtomicU64,
    shed: AtomicU64,
    errors: AtomicU64,
    config: ServeConfig,
    /// How many requests may solve at once.
    slots: usize,
}

/// Locks `mutex`, recovering from poisoning. Every critical section here
/// leaves its data consistent at each panic point (the cache's map/order
/// structures are updated atomically from the caller's view, the gate's
/// counters are plain assignments, and `solve_problem` resets a workspace
/// whose solve panicked), so a thread that panicked while *holding* a guard
/// must not turn every later access into a crash that takes the whole
/// service down. A poisoned lock degrades to "keep serving with the state
/// as it was", never to an outage.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Shared {
    fn stats(&self) -> ServerStats {
        ServerStats {
            solved: self.solved.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            cache: lock(&self.cache).stats(),
            workers: self.slots as u64,
        }
    }

    /// Admission control: blocks until a solve slot is free and every
    /// earlier arrival has been admitted, or answers at once with a typed
    /// shed (`queue_capacity` requests already waiting) or shutdown error
    /// (boxed, as a `Response` is large).
    fn admit(&self, id: u64) -> Result<Slot<'_>, Box<Response>> {
        let mut gate = lock(&self.gate);
        if gate.shutdown {
            return Err(Box::new(Response::Error {
                id,
                code: ErrorCode::Internal,
                message: "server is shutting down".into(),
            }));
        }
        let waiting = gate.issued - gate.admitted;
        let capacity = self.config.queue_capacity as u64;
        if waiting >= capacity {
            self.shed.fetch_add(1, Ordering::Relaxed);
            return Err(Box::new(Response::Shed {
                id,
                queued: waiting,
                capacity,
            }));
        }
        let ticket = gate.issued;
        gate.issued += 1;
        let mut gate = self
            .gate_signal
            .wait_while(gate, |g| g.admitted != ticket || g.running >= self.slots)
            .unwrap_or_else(PoisonError::into_inner);
        gate.admitted += 1;
        gate.running += 1;
        drop(gate);
        // The next ticket may fit into another free slot.
        self.gate_signal.notify_all();
        Ok(Slot(self))
    }

    /// Raises the shutdown flag: later misses are refused, while requests
    /// already admitted or waiting still finish.
    fn begin_shutdown(&self) {
        lock(&self.gate).shutdown = true;
        self.gate_signal.notify_all();
    }

    /// Blocks until shutdown has begun and every admitted and waiting
    /// request has finished.
    fn wait_drained(&self) {
        let _gate = self
            .gate_signal
            .wait_while(lock(&self.gate), |g| {
                !g.shutdown || g.running > 0 || g.issued > g.admitted
            })
            .unwrap_or_else(PoisonError::into_inner);
    }
}

/// A held solve slot; dropping it frees the slot, on unwind too.
struct Slot<'a>(&'a Shared);

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        lock(&self.0.gate).running -= 1;
        self.0.gate_signal.notify_all();
    }
}

/// A running server. Dropping the handle does **not** stop the server; call
/// [`ServerHandle::shutdown`] for a clean stop.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: JoinHandle<()>,
}

impl ServerHandle {
    /// The bound listen address (resolves port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until the server stops — i.e. until some client sends a
    /// `shutdown` request and every admitted and waiting request has
    /// finished. The CLI `serve` command parks on this.
    pub fn join(self) {
        self.shared.wait_drained();
        // Poke the accept loop so it notices the flag too.
        let _ = TcpStream::connect(self.addr);
        let _ = self.accept_thread.join();
    }

    /// Stops the server: no new connections or solves, every admitted and
    /// waiting request finishes, then the accept thread joins.
    pub fn shutdown(self) {
        self.shared.begin_shutdown();
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        let _ = self.accept_thread.join();
        self.shared.wait_drained();
    }

    /// Test instrumentation: poisons the solve-cache mutex by panicking on
    /// a throwaway thread while holding it. Lets the regression suite prove
    /// the server keeps serving through a poisoned lock; useless (and
    /// hidden) outside tests.
    #[doc(hidden)]
    pub fn poison_cache_for_tests(&self) {
        let shared = Arc::clone(&self.shared);
        let _ = std::thread::spawn(move || {
            let _guard = lock(&shared.cache);
            panic!("deliberate poison");
        })
        .join();
    }
}

/// Binds the listener and spawns the accept thread.
///
/// # Errors
/// [`std::io::Error`] when the listen address cannot be bound.
pub fn spawn(config: ServeConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let slots = if config.workers == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        config.workers
    };
    let shared = Arc::new(Shared {
        gate: Mutex::new(Gate::default()),
        gate_signal: Condvar::new(),
        workspaces: Mutex::new(Vec::with_capacity(slots)),
        cache: Mutex::new(SolveCache::new(config.cache_capacity)),
        solved: AtomicU64::new(0),
        shed: AtomicU64::new(0),
        errors: AtomicU64::new(0),
        config,
        slots,
    });

    let accept_shared = Arc::clone(&shared);
    let accept_thread = std::thread::Builder::new()
        .name("bss-serve-accept".into())
        .spawn(move || accept_loop(&listener, &accept_shared))?;

    Ok(ServerHandle {
        addr,
        shared,
        accept_thread,
    })
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for conn in listener.incoming() {
        if lock(&shared.gate).shutdown {
            break;
        }
        let Ok(stream) = conn else { continue };
        // Request/response frames are small and latency-bound; Nagle's
        // algorithm interacting with delayed ACKs costs ~40 ms per
        // round-trip on loopback.
        let _ = stream.set_nodelay(true);
        let conn_shared = Arc::clone(shared);
        // Detached: a connection thread exits when its peer hangs up or the
        // server shuts down; nothing joins it.
        let _ = std::thread::Builder::new()
            .name("bss-serve-conn".into())
            .spawn(move || connection_loop(stream, &conn_shared));
    }
}

/// The connection's incremental-solve session: the live instance plus the
/// previous resolve's dual bracket, from which the next resolve warm-starts.
struct SessionState {
    inc: IncrementalInstance,
    variant: Variant,
    algo: Algorithm,
    /// The last resolve's warm hint and the total load it was taken at
    /// (the load delta since then drives the bracket widening).
    prev: Option<(WarmStart, u64)>,
}

/// Serves one connection: frames in, frames out. The loop is strictly
/// serial — the next frame is read only after the previous request has been
/// answered — so responses are trivially in request order. Session state
/// (the incremental instance and its warm-start bracket) lives here, owned
/// by the connection thread, and dies with the connection.
fn connection_loop(stream: TcpStream, shared: &Shared) {
    let mut reader = match stream.try_clone() {
        Ok(r) => r,
        Err(_) => return,
    };
    let mut writer = stream;
    let mut session: Option<SessionState> = None;
    let limits = ParseLimits {
        max_bytes: shared.config.max_frame_bytes,
        max_depth: shared.config.max_json_depth,
    };

    loop {
        let payload = match read_frame(&mut reader, shared.config.max_frame_bytes) {
            Ok(Some(p)) => p,
            // Clean EOF or a broken/oversized/truncated frame: either way
            // this connection is done. Oversized frames get a best-effort
            // typed reply first.
            Ok(None) => break,
            Err(FrameError::TooLarge { len, max }) => {
                send(
                    &mut writer,
                    &Response::Error {
                        id: 0,
                        code: ErrorCode::TooLarge,
                        message: format!("frame of {len} bytes exceeds the {max} byte limit"),
                    },
                    shared.config.max_frame_bytes,
                );
                break;
            }
            Err(_) => break,
        };

        let response = match bss_json::parse_with_limits(&payload, &limits) {
            Err(err) => Response::Error {
                id: 0,
                code: ErrorCode::of_json(err.kind()),
                message: err.to_string(),
            },
            Ok(value) => match Request::decode(&value) {
                Err(err) => Response::Error {
                    id: peek_id(&value),
                    code: err.code,
                    message: err.message,
                },
                Ok(request) => handle_request(request, &mut session, shared),
            },
        };
        let bye = matches!(response, Response::Bye { .. });
        if !send(&mut writer, &response, shared.config.max_frame_bytes) || bye {
            break;
        }
    }
}

/// Answers one decoded request. Session requests mutate the
/// connection-local `session`; solves and resolves both go through
/// [`solve_request`].
fn handle_request(
    request: Request,
    session: &mut Option<SessionState>,
    shared: &Shared,
) -> Response {
    match request {
        Request::Ping { id } => Response::Pong { id },
        Request::Stats { id } => Response::Stats {
            id,
            stats: shared.stats(),
        },
        Request::Shutdown { id } => {
            shared.begin_shutdown();
            Response::Bye { id }
        }
        Request::Sleep { id, ms } => {
            if !shared.config.allow_test_ops {
                return Response::Error {
                    id,
                    code: ErrorCode::BadRequest,
                    message: "sleep is a test op; this server does not allow test ops".into(),
                };
            }
            match shared.admit(id) {
                Ok(_slot) => {
                    std::thread::sleep(Duration::from_millis(ms));
                    Response::Pong { id }
                }
                Err(reply) => *reply,
            }
        }
        Request::Solve(req) => {
            let hash = req.instance.content_hash();
            solve_request(&req, hash, None, shared).0
        }
        Request::Session(req) => open_session(*req, session),
        Request::Delta { id, delta } => apply_delta(id, delta, session),
        Request::Resolve { id, want_schedule } => {
            resolve_session(id, want_schedule, session, shared)
        }
    }
}

/// Installs (or replaces) the connection's session.
fn open_session(req: SessionRequest, session: &mut Option<SessionState>) -> Response {
    let inc = IncrementalInstance::new(&req.instance);
    let resp = Response::Session {
        id: req.id,
        jobs: inc.num_jobs() as u64,
        content_hash: inc.content_hash(),
    };
    *session = Some(SessionState {
        inc,
        variant: req.variant,
        algo: req.algo,
        prev: None,
    });
    resp
}

/// Applies one delta to the connection's session. A rejected delta (unknown
/// job, emptied class, load overflow) leaves the session state untouched —
/// `IncrementalInstance::apply` is atomic on error — and answers with
/// [`ErrorCode::InvalidInstance`], mirroring the solve path's model-error
/// class.
fn apply_delta(
    id: u64,
    delta: bss_instance::Delta,
    session: &mut Option<SessionState>,
) -> Response {
    let Some(state) = session else {
        return no_session(id);
    };
    match state.inc.apply(delta) {
        Ok(()) => Response::Session {
            id,
            jobs: state.inc.num_jobs() as u64,
            content_hash: state.inc.content_hash(),
        },
        Err(err) => Response::Error {
            id,
            code: ErrorCode::InvalidInstance,
            message: format!("delta rejected: {err}"),
        },
    }
}

/// Solves the session's current state on the shared solve path, warm-started
/// from the previous resolve's dual bracket widened by the load shift the
/// deltas since then caused. A solved or cached answer refreshes the
/// bracket; a shed or failed resolve keeps the previous one.
fn resolve_session(
    id: u64,
    want_schedule: bool,
    session: &mut Option<SessionState>,
    shared: &Shared,
) -> Response {
    let Some(state) = session else {
        return no_session(id);
    };
    let load = state.inc.total_load_once();
    let req = SolveRequest {
        id,
        instance: state.inc.materialize(),
        variant: state.variant,
        algo: state.algo,
        deadline_ms: None,
        work_budget: None,
        want_schedule,
    };
    let warm = state.prev.map(|(hint, prev_load)| {
        hint.widen_by_load_shift(
            u128::from(prev_load),
            u128::from(load),
            req.instance.machines(),
        )
    });
    let (response, solution) = solve_request(&req, state.inc.content_hash(), warm, shared);
    if let Some(sol) = solution {
        state.prev = Some((WarmStart::of(&sol), load));
    }
    response
}

/// The typed reply to a delta/resolve with no open session.
fn no_session(id: u64) -> Response {
    Response::Error {
        id,
        code: ErrorCode::BadRequest,
        message: "no session on this connection; send a `session` request first".into(),
    }
}

/// The one solve path, for stateless solves and session resolves alike: the
/// cache first (a hit touches nothing else), then a slot from the admission
/// gate, then [`solve_problem`] on a pooled warm workspace under the
/// request's budget (anchored at arrival) and `warm` hint, then the cache
/// insert. Returns the reply and, unless the request was shed or failed,
/// the solution it carries.
fn solve_request(
    req: &SolveRequest,
    hash: u64,
    warm: Option<WarmStart>,
    shared: &Shared,
) -> (Response, Option<Arc<Solution>>) {
    let hit = lock(&shared.cache).lookup(hash, &req.instance, req.variant, req.algo);
    let (cached, solution) = match hit {
        Some(sol) => (true, sol),
        None => {
            // Built before the gate, so the deadline runs from arrival: time
            // spent waiting for a slot counts against it.
            let mut budget = SolveBudget::unlimited();
            if let Some(ms) = req.deadline_ms {
                budget = budget.with_deadline(Duration::from_millis(ms));
            }
            if let Some(units) = req.work_budget {
                budget = budget.with_work_limit(units);
            }
            let opts = SolveOptions {
                budget: budget.is_limited().then_some(&budget),
                warm,
                ..SolveOptions::default()
            };
            let slot = match shared.admit(req.id) {
                Ok(slot) => slot,
                Err(reply) => return (*reply, None),
            };
            let mut ws = lock(&shared.workspaces).pop().unwrap_or_default();
            let problem = BssProblem::new(&req.instance, req.variant);
            let result = solve_problem(&mut ws, &problem, req.algo, &opts);
            lock(&shared.workspaces).push(ws);
            drop(slot);
            match result {
                Ok(sol) => {
                    shared.solved.fetch_add(1, Ordering::Relaxed);
                    let sol = Arc::new(sol);
                    // Only Full completions are cacheable, and a key
                    // collision with a different resident instance drops
                    // the insert — both enforced inside the cache.
                    lock(&shared.cache).insert(hash, &req.instance, req.variant, req.algo, &sol);
                    (false, sol)
                }
                Err(err) => {
                    shared.errors.fetch_add(1, Ordering::Relaxed);
                    let reply = Response::Error {
                        id: req.id,
                        code: ErrorCode::Internal,
                        message: format!("solve failed: {err}"),
                    };
                    return (reply, None);
                }
            }
        }
    };
    let response = Response::Solved {
        id: req.id,
        cached,
        solution: WireSolution::of(&solution, req.want_schedule),
    };
    (response, Some(solution))
}

/// Encodes and frames a response onto the socket; `false` when the peer is
/// gone.
///
/// A response that exceeds `max_len` (e.g. a `want_schedule` reply whose
/// encoded schedule outgrows the frame bound even though the request fit)
/// is replaced by a small typed [`ErrorCode::TooLarge`] error carrying the
/// same request id. `write_frame` checks the length before emitting any
/// bytes, so the oversized payload never hits the wire and the stream stays
/// framed — the connection remains usable for further requests.
fn send(writer: &mut TcpStream, response: &Response, max_len: usize) -> bool {
    let text = bss_json::encode_pretty(response);
    match write_frame(writer, &text, max_len) {
        Ok(()) => writer.flush().is_ok(),
        Err(FrameError::TooLarge { len, max }) => {
            let error = Response::Error {
                id: response.id(),
                code: ErrorCode::TooLarge,
                message: format!(
                    "encoded response of {len} bytes exceeds the {max} byte frame limit; \
                     retry without the schedule or raise the server's max_frame_bytes"
                ),
            };
            write_frame(writer, &bss_json::encode_pretty(&error), max_len).is_ok()
                && writer.flush().is_ok()
        }
        Err(_) => false,
    }
}
