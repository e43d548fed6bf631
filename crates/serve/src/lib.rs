//! charfree-serve: a reactor-based power-estimation server.
//!
//! Exposes the whole characterization-free pipeline — netlist → ADD
//! power model → compiled kernel → batched trace evaluation — over TCP,
//! std-only (no async runtime, no dependencies).
//!
//! What makes it more than a socket wrapper:
//!
//! * **Nonblocking reactor front end** (`frontend`, crate
//!   `charfree-net`): N epoll shard threads own the listening sockets
//!   and all connection I/O, with edge-triggered readiness and write
//!   backpressure; a fixed service
//!   pool does parsing/admission/model resolution. No thread is parked
//!   per connection, so thousands of idle connections cost nothing.
//! * **Dual wire protocols** ([`proto`], [`wire`]): newline-delimited
//!   JSON and a length-prefixed binary protocol (magic `CFB1`, version
//!   negotiation) share one port — the first byte decides. Each command
//!   is declared once for both; results are bit-identical across both
//!   (f64s travel as IEEE-754 bits in either encoding).
//! * **Warm sharded model registry** ([`ShardedRegistry`]): compiled
//!   kernels and sequential designs are shared across connections under
//!   one byte budget split over hash shards (per-shard LRU + build locks), and
//!   cold loads go through the content-addressed artifact store, so a
//!   warm `load` performs zero ADD apply steps.
//! * **Cross-connection micro-batching** ([`batch`]): every `eval`,
//!   `trace`, `tracep` and `seqeval` is a dispatcher job whose worker
//!   draws its patterns; concurrent kernel jobs are coalesced into
//!   shared 64-lane pattern blocks under a configurable window — with
//!   results bit-identical to evaluating each request alone (see the
//!   module docs for why that holds).
//! * **Admission control and graceful drain** ([`server`]): bounded
//!   queues everywhere, typed `overloaded` shedding with
//!   `retry_after_ms`, per-connection idle timeouts (slow-loris guard),
//!   and a `shutdown` command that stops accepting, flushes every
//!   accepted request and lets the process exit 0. SIGTERM/SIGINT
//!   trigger the same drain on unix.
//! * **Observability** ([`metrics`], [`stats`]): every exported number
//!   is one row of a counter table that records its `stats` JSON place
//!   and its Prometheus name. The `stats` payload and the exposition
//!   body both render from that table, and the exposition is served by
//!   the `metrics` wire command, `GET /metrics` on the main port and an
//!   optional dedicated metrics listener, with stable counter names.
//!   Per-command counters are indexed by the wire declaration
//!   ([`Command`]).
//! * **Supervision and self-healing** ([`supervisor`], [`batch`]):
//!   a panic on a batch worker or service thread answers its own
//!   request with a typed, retriable `internal` error, and the thread
//!   restarts under capped exponential backoff; repeated model-build
//!   failures trip a per-model circuit breaker that sheds doomed
//!   builds with a typed `model-unavailable` + `retry_after_ms` and
//!   half-opens on a timer;
//!   the artifact cache recovers at startup by scanning its directory
//!   and quarantining torn entries.

#![warn(missing_docs)]
#![deny(clippy::unwrap_used)]

pub mod batch;
pub mod client;
mod frontend;
pub mod handler;
pub mod json;
pub mod metrics;
pub mod proto;
pub mod registry;
pub mod server;
pub mod stats;
pub mod supervisor;
pub mod wire;

pub use batch::{
    BatchHandle, ChannelReply, Dispatcher, Job, JobError, JobFault, JobOutput, ReplySink, Stimulus,
};
pub use client::{Client, Proto, RetryPolicy};
pub use proto::{Command, ErrorKind, Request, Response, WireBuildOptions, WireEvalParams};
pub use registry::{ModelRegistry, Resident, ShardedRegistry};
pub use server::{DrainHandle, ServeConfig, Server};
pub use stats::ServerStats;
pub use supervisor::{BreakerConfig, BreakerDecision, CircuitBreaker};
