//! The solver as a long-lived service: a TCP daemon with a content-hash
//! solve cache, one admission-gated solve path, typed overload shedding,
//! and a load generator for measuring it.
//!
//! The batch-setup scheduling algorithms in this workspace run in
//! near-linear time — fast enough that for service workloads the cost of a
//! solve is comparable to the cost of *delivering* one. This crate makes
//! the delivery path a first-class, measured artifact:
//!
//! * [`server`] — the daemon. Length-prefixed compact JSON frames over TCP
//!   ([`bss_json::frame`]), each written in one write and decoded straight
//!   from its text under hardened size/depth limits. Each
//!   connection thread answers cache hits itself and solves misses through
//!   one admission gate: at most `workers` solves run at once, on warm
//!   pooled workspaces; waiting requests are admitted in arrival order,
//!   and beyond `queue_capacity` waiting ones a request gets a typed
//!   [`protocol::Response::Shed`] reply.
//! * [`cache`] — the bounded solve cache, keyed on
//!   [`bss_instance::Instance::content_hash`] plus variant and algorithm. A
//!   hit returns the bit-identical cached [`bss_core::Solution`]; full
//!   instance equality is re-checked on every hit, so an FNV collision can
//!   cause a miss but never a wrong answer.
//! * [`protocol`] — the versioned request/response envelopes, with typed
//!   error codes for malformed, oversized, and over-deep input. A request's
//!   jobs and a reply's placements travel as flat integer tables, written
//!   row by row from the borrowed instance and schedule: the client never
//!   clones the instance it sends, and the server writes a solved reply
//!   straight from the cached [`bss_core::Solution`].
//! * [`client`] — a blocking client speaking the protocol.
//! * [`loadgen`] — seeded open- and closed-loop load generation with a
//!   latency histogram; the CLI `loadgen` subcommand is a thin wrapper
//!   over it.
//!
//! Per-request [`bss_core::SolveBudget`] deadlines are measured from
//! arrival at the server, so time spent waiting for a solve slot counts
//! against them and overloaded servers answer `degraded` honestly instead
//! of late.
//!
//! Online workloads are first-class: a `session` request installs a
//! per-connection [`bss_instance::IncrementalInstance`], `delta` requests
//! mutate it, and `resolve` requests solve the current state on the same
//! path as a stateless solve — the shared cache first, then a warm-start
//! re-solve ([`bss_core::SolveOptions::warm`]) seeded with the previous
//! resolve's dual bracket, so an arrival-by-arrival client pays a fraction
//! of the cold probe count per event. Resolves get the same admission
//! control, shedding and panic isolation as solves.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod loadgen;
pub mod protocol;
pub mod server;

pub use cache::{CacheStats, SolveCache};
pub use client::{Client, ClientError, SessionAck, SolveOptions, SolveOutcome};
pub use loadgen::{LatencyHistogram, LoadMode, LoadReport, LoadgenConfig};
pub use protocol::{
    ErrorCode, Request, RequestError, Response, ServerStats, SessionRequest, WireSolution,
};
pub use server::{spawn, ServeConfig, ServerHandle};
