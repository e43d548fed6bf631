//! # charfree-net — std-only nonblocking TCP reactor
//!
//! The networking substrate under `charfree-serve`'s front end: raw
//! `epoll`/`eventfd` syscalls behind a small [`Poller`] abstraction,
//! N sharded reactor threads each owning their accepted connections
//! with edge-triggered readiness, per-connection read/write buffers,
//! and write backpressure. The reactor owns the listening sockets too:
//! shard 0 accepts on each, with one [`HandlerFactory`] per listener,
//! and [`ReactorHandle::drain`] closes them.
//!
//! Layering (bottom up):
//!
//! * [`sys`] — the four raw syscalls (`epoll_create1`, `epoll_ctl`,
//!   `epoll_wait`, `eventfd`) declared against the already-linked C
//!   library, plus the ABI-exact `epoll_event` layout;
//! * [`poller`] — one epoll instance per shard ([`Poller`]) and the
//!   eventfd wake channel ([`WakeFd`]) other threads use to signal it;
//! * [`reactor`] — the shard event loop: listener accepts, connection
//!   slab with generation-checked tokens, accept handoff, a typed completion
//!   [`Mailbox`], idle/write-stall sweeps, buffer caps, orderly drain.
//!
//! The crate is deliberately protocol-free: framing, parsing and
//! responses live in the embedding crate's [`Handler`] implementation.
//! Slow work must never run on a shard thread — hand it off, then post
//! the result back through the [`Mailbox`] under the connection's
//! [`Token`].

#![warn(missing_docs)]
#![deny(clippy::unwrap_used)]

pub mod poller;
pub mod reactor;
pub mod sys;

pub use poller::{PollEvent, Poller, WakeFd, Waker, WAKE_TOKEN};
pub use reactor::{
    CloseReason, ConnCtx, Handler, HandlerFactory, Mailbox, NetCounters, Reactor, ReactorConfig,
    ReactorHandle, StreamTap, TapFault, Token,
};
