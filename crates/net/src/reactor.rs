//! Sharded edge-triggered reactor.
//!
//! N shard threads each own a [`Poller`], a slab of accepted
//! connections and two cross-thread queues (accept handoff and a
//! message mailbox), both signalled through the shard's eventfd.
//! Connections never migrate between shards, so all per-connection state
//! is plain (non-atomic) data touched by exactly one thread.
//!
//! The reactor is protocol-agnostic: a [`Handler`] (one per connection,
//! built by the factory) consumes the read buffer, queues response
//! bytes, and decides when to close. Slow work must leave the shard —
//! completions come back through the [`Mailbox`] as typed messages and
//! are delivered on the owning shard's thread.
//!
//! Backpressure and robustness are the reactor's own job:
//!
//! * **write backpressure** — response bytes queue per connection; a
//!   `WouldBlock` arms `EPOLLOUT`, and a peer that stops reading for
//!   longer than `write_stall_timeout` is closed (`WriteStall`);
//! * **idle timeout** — a connection with no inbound bytes for
//!   `idle_timeout` gets [`Handler::on_idle`] (default: close), closing
//!   the slow-loris hole a blocking read-per-thread design leaves open;
//! * **buffer caps** — a peer that streams bytes faster than the
//!   handler consumes them is closed (`Overflow`) at `max_buffer`.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use crate::poller::{PollEvent, Poller, WakeFd, WAKE_TOKEN};
use crate::sys;

/// Opaque per-connection identifier: shard (8 bits) | slot (24 bits) |
/// generation (32 bits). Stable across the connection's lifetime;
/// reusing a slot bumps the generation so late messages for a dead
/// connection never reach its successor.
pub type Token = u64;

fn token_for(shard: usize, slot: usize, gen: u32) -> Token {
    (shard as u64) | (((slot as u64) & 0x00ff_ffff) << 8) | ((u64::from(gen)) << 32)
}

fn shard_of(token: Token) -> usize {
    (token & 0xff) as usize
}

fn slot_of(token: Token) -> usize {
    ((token >> 8) & 0x00ff_ffff) as usize
}

fn gen_of(token: Token) -> u32 {
    (token >> 32) as u32
}

/// Why a connection was closed (each maps to a counter).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CloseReason {
    /// The peer closed or the transport errored out.
    Eof,
    /// No inbound bytes within the idle timeout (slow-loris guard).
    Idle,
    /// Server drain.
    Drain,
    /// The peer outran the per-connection buffer cap.
    Overflow,
    /// A protocol violation (bad magic, oversized frame, …).
    Protocol,
    /// The peer stopped reading our responses for too long.
    WriteStall,
    /// The application asked for an orderly close (e.g. after
    /// `shutdown`'s final response).
    App,
}

impl CloseReason {
    /// Stable lower-case label (used in metrics and logs).
    pub fn name(self) -> &'static str {
        match self {
            CloseReason::Eof => "eof",
            CloseReason::Idle => "idle",
            CloseReason::Drain => "drain",
            CloseReason::Overflow => "overflow",
            CloseReason::Protocol => "protocol",
            CloseReason::WriteStall => "write-stall",
            CloseReason::App => "app",
        }
    }

    /// Every reason, in metrics order.
    pub fn all() -> [CloseReason; 7] {
        [
            CloseReason::Eof,
            CloseReason::Idle,
            CloseReason::Drain,
            CloseReason::Overflow,
            CloseReason::Protocol,
            CloseReason::WriteStall,
            CloseReason::App,
        ]
    }
}

/// Lock-free reactor counters, shared across shards.
#[derive(Default)]
pub struct NetCounters {
    /// Connections registered with the reactor.
    pub accepted: AtomicU64,
    /// Bytes read off sockets.
    pub bytes_in: AtomicU64,
    /// Bytes written to sockets.
    pub bytes_out: AtomicU64,
    closed: [AtomicU64; 7],
}

impl NetCounters {
    /// Total closes for `reason`.
    pub fn closed(&self, reason: CloseReason) -> u64 {
        self.closed[Self::idx(reason)].load(Ordering::Relaxed)
    }

    fn idx(reason: CloseReason) -> usize {
        CloseReason::all()
            .iter()
            .position(|&r| r == reason)
            .unwrap_or(0)
    }

    /// Counts a close for `reason` (the reactor does this on every
    /// finalized connection; public so embedders can account closes
    /// that happen outside a reactor, e.g. in auxiliary listeners).
    pub fn record_close(&self, reason: CloseReason) {
        self.closed[Self::idx(reason)].fetch_add(1, Ordering::Relaxed);
    }

    /// Total closes across every reason. `accepted - closed_total()` is
    /// the live-connection count (the reactor guarantees every accepted
    /// registration eventually records exactly one close).
    pub fn closed_total(&self) -> u64 {
        self.closed.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }
}

/// An injected stream fault (mirrors the pipeline's `StreamFault`
/// without depending on it; the serving layer adapts one to the other).
#[derive(Debug, Clone, Copy)]
pub enum TapFault {
    /// As-if `EINTR`: this I/O round is retried.
    Transient,
    /// A short round: at most this many bytes move.
    Short(usize),
    /// The bytes arrive/depart late.
    Stall(Duration),
}

/// Fault-injection hook on the reactor's socket reads and writes.
pub trait StreamTap: Send + Sync {
    /// Fault to apply before the next read syscall, if any.
    fn read_fault(&self) -> Option<TapFault>;
    /// Fault to apply before the next write syscall, if any.
    fn write_fault(&self) -> Option<TapFault>;
}

/// The per-connection protocol driver. All methods run on the owning
/// shard thread; `M` is the application's completion-message type.
pub trait Handler<M>: Send {
    /// Inbound bytes were appended to the connection buffer (or EOF is
    /// pending after what is buffered). Consume what you can.
    fn on_data(&mut self, conn: &mut ConnCtx<'_>);
    /// A message posted through the [`Mailbox`] arrived for this
    /// connection.
    fn on_message(&mut self, msg: M, conn: &mut ConnCtx<'_>);
    /// The peer closed its write side (EOF after whatever is buffered).
    /// Default: close. A handler awaiting an in-flight completion can
    /// defer the close until that response has been written — which is
    /// what lets one-shot clients (send, half-close, read) still get
    /// their answer.
    fn on_eof(&mut self, conn: &mut ConnCtx<'_>) {
        conn.close(CloseReason::Eof);
    }
    /// The reactor is draining. Close now, or keep the connection open
    /// to finish in-flight work (drain is re-checked as work completes).
    fn on_drain(&mut self, conn: &mut ConnCtx<'_>) {
        conn.close(CloseReason::Drain);
    }
    /// The idle timeout expired. Default: close. Call
    /// [`ConnCtx::touch`] instead to keep a deliberately-waiting
    /// connection alive.
    fn on_idle(&mut self, conn: &mut ConnCtx<'_>) {
        conn.close(CloseReason::Idle);
    }
}

/// Builds one [`Handler`] per accepted connection.
pub type HandlerFactory<M> = dyn Fn(Token) -> Box<dyn Handler<M>> + Send + Sync;

/// The connection surface a [`Handler`] works against.
pub struct ConnCtx<'a> {
    token: Token,
    read_buf: &'a mut Vec<u8>,
    consumed: &'a mut usize,
    write_buf: &'a mut Vec<u8>,
    closing: &'a mut Option<CloseReason>,
    last_activity: &'a mut Instant,
    draining: bool,
}

impl ConnCtx<'_> {
    /// This connection's stable token (route completions back with it).
    pub fn token(&self) -> Token {
        self.token
    }

    /// The unconsumed inbound bytes.
    pub fn data(&self) -> &[u8] {
        &self.read_buf[*self.consumed..]
    }

    /// Marks the first `n` buffered bytes as consumed.
    pub fn consume(&mut self, n: usize) {
        *self.consumed = (*self.consumed + n).min(self.read_buf.len());
    }

    /// Queues response bytes (flushed by the reactor with
    /// backpressure).
    pub fn write(&mut self, bytes: &[u8]) {
        self.write_buf.extend_from_slice(bytes);
    }

    /// Requests an orderly close: queued response bytes are flushed
    /// first, then the socket closes. The first reason wins.
    pub fn close(&mut self, reason: CloseReason) {
        if self.closing.is_none() {
            *self.closing = Some(reason);
        }
    }

    /// Whether a close is already pending.
    pub fn closing(&self) -> bool {
        self.closing.is_some()
    }

    /// Resets the idle clock (e.g. while legitimately waiting on
    /// in-flight work).
    pub fn touch(&mut self) {
        *self.last_activity = Instant::now();
    }

    /// Whether the reactor is draining.
    pub fn draining(&self) -> bool {
        self.draining
    }
}

/// Reactor tuning.
#[derive(Clone)]
pub struct ReactorConfig {
    /// Shard (reactor thread) count.
    pub shards: usize,
    /// Close connections with no inbound bytes for this long (the
    /// handler can veto per connection via [`Handler::on_idle`]).
    pub idle_timeout: Duration,
    /// Hard cap on unconsumed inbound bytes per connection.
    pub max_buffer: usize,
    /// Close connections whose peer stops draining responses for this
    /// long.
    pub write_stall_timeout: Duration,
    /// Ceiling on an injected `Stall` fault, so a mis-tuned plan slows
    /// but never wedges a shard.
    pub max_injected_stall: Duration,
}

impl Default for ReactorConfig {
    fn default() -> ReactorConfig {
        ReactorConfig {
            shards: 1,
            idle_timeout: Duration::from_secs(30),
            max_buffer: 18 << 20,
            write_stall_timeout: Duration::from_secs(10),
            max_injected_stall: Duration::from_millis(200),
        }
    }
}

struct ShardShared<M> {
    accept_q: Mutex<VecDeque<TcpStream>>,
    mail_q: Mutex<VecDeque<(Token, M)>>,
    wake: WakeFd,
}

struct Core<M> {
    shards: Vec<Arc<ShardShared<M>>>,
    draining: AtomicBool,
    counters: Arc<NetCounters>,
    next_shard: AtomicUsize,
}

/// Posts completion messages to connections from any thread.
pub struct Mailbox<M> {
    core: Arc<Core<M>>,
}

impl<M> Clone for Mailbox<M> {
    fn clone(&self) -> Mailbox<M> {
        Mailbox {
            core: Arc::clone(&self.core),
        }
    }
}

impl<M: Send> Mailbox<M> {
    /// Posts `msg` to the connection behind `token` and wakes its
    /// shard. Delivery is best-effort: a message for an
    /// already-closed connection is silently dropped by the shard.
    pub fn post(&self, token: Token, msg: M) {
        let Some(shard) = self.core.shards.get(shard_of(token)) else {
            return;
        };
        shard
            .mail_q
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push_back((token, msg));
        shard.wake.wake();
    }
}

/// Registers connections and triggers drain from any thread.
pub struct ReactorHandle<M> {
    core: Arc<Core<M>>,
}

impl<M> Clone for ReactorHandle<M> {
    fn clone(&self) -> ReactorHandle<M> {
        ReactorHandle {
            core: Arc::clone(&self.core),
        }
    }
}

impl<M: Send> ReactorHandle<M> {
    /// Hands an accepted socket to a shard (round robin).
    pub fn register(&self, stream: TcpStream) {
        let i = self.core.next_shard.fetch_add(1, Ordering::Relaxed) % self.core.shards.len();
        let shard = &self.core.shards[i];
        shard
            .accept_q
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push_back(stream);
        shard.wake.wake();
    }

    /// Starts the drain: every shard delivers [`Handler::on_drain`] and
    /// exits once its last connection closes.
    pub fn drain(&self) {
        self.core.draining.store(true, Ordering::SeqCst);
        for shard in &self.core.shards {
            shard.wake.wake();
        }
    }

    /// Whether drain has been requested.
    pub fn is_draining(&self) -> bool {
        self.core.draining.load(Ordering::SeqCst)
    }
}

/// The running reactor: N shard threads plus their shared queues.
pub struct Reactor<M: Send + 'static> {
    core: Arc<Core<M>>,
    threads: Vec<thread::JoinHandle<()>>,
}

impl<M: Send + 'static> Reactor<M> {
    /// Spawns the shard threads.
    ///
    /// # Errors
    ///
    /// Propagates epoll/eventfd/thread-spawn failures.
    pub fn start(
        config: ReactorConfig,
        factory: Arc<HandlerFactory<M>>,
        tap: Option<Arc<dyn StreamTap>>,
    ) -> io::Result<Reactor<M>> {
        let shard_count = config.shards.clamp(1, 128);
        let counters = Arc::new(NetCounters::default());
        let mut shards = Vec::with_capacity(shard_count);
        for _ in 0..shard_count {
            shards.push(Arc::new(ShardShared {
                accept_q: Mutex::new(VecDeque::new()),
                mail_q: Mutex::new(VecDeque::new()),
                wake: WakeFd::new()?,
            }));
        }
        let core = Arc::new(Core {
            shards,
            draining: AtomicBool::new(false),
            counters: Arc::clone(&counters),
            next_shard: AtomicUsize::new(0),
        });
        let mut threads = Vec::with_capacity(shard_count);
        for index in 0..shard_count {
            let mut state = ShardState::new(index, &config, Arc::clone(&core))?;
            let factory = Arc::clone(&factory);
            let tap = tap.clone();
            threads.push(
                thread::Builder::new()
                    .name(format!("charfree-net-{index}"))
                    .spawn(move || state.run(&factory, tap.as_deref()))?,
            );
        }
        Ok(Reactor { core, threads })
    }

    /// A handle for registering sockets and draining.
    pub fn handle(&self) -> ReactorHandle<M> {
        ReactorHandle {
            core: Arc::clone(&self.core),
        }
    }

    /// The mailbox for posting completion messages.
    pub fn mailbox(&self) -> Mailbox<M> {
        Mailbox {
            core: Arc::clone(&self.core),
        }
    }

    /// The shared counters.
    pub fn counters(&self) -> Arc<NetCounters> {
        Arc::clone(&self.core.counters)
    }

    /// Joins every shard thread. Call after [`ReactorHandle::drain`];
    /// shards exit once drained and empty.
    pub fn join(mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

struct Conn<M> {
    stream: TcpStream,
    gen: u32,
    handler: Box<dyn Handler<M>>,
    read_buf: Vec<u8>,
    consumed: usize,
    write_buf: Vec<u8>,
    write_pos: usize,
    interest_out: bool,
    last_activity: Instant,
    write_since: Option<Instant>,
    closing: Option<CloseReason>,
    eof: bool,
    eof_notified: bool,
    drain_notified: bool,
}

/// Shard poll tick: bounds timer (idle / write-stall) latency; all data
/// paths are event-driven through epoll and the wake eventfd.
const TICK: Duration = Duration::from_millis(25);

/// Socket read chunk size.
const READ_CHUNK: usize = 16 * 1024;

struct ShardState<M> {
    index: usize,
    config: ReactorConfig,
    core: Arc<Core<M>>,
    poller: Poller,
    slab: Vec<Option<Conn<M>>>,
    free: Vec<usize>,
    gens: Vec<u32>,
}

impl<M: Send> ShardState<M> {
    fn new(index: usize, config: &ReactorConfig, core: Arc<Core<M>>) -> io::Result<ShardState<M>> {
        let poller = Poller::new(256)?;
        core.shards[index].wake.register(&poller)?;
        Ok(ShardState {
            index,
            config: config.clone(),
            core,
            poller,
            slab: Vec::new(),
            free: Vec::new(),
            gens: Vec::new(),
        })
    }

    fn run(&mut self, factory: &Arc<HandlerFactory<M>>, tap: Option<&dyn StreamTap>) {
        let mut events: Vec<PollEvent> = Vec::new();
        loop {
            events.clear();
            let shared = Arc::clone(&self.core.shards[self.index]);
            // Collect first, process after: processing mutates the slab.
            let waited = self.poller.wait(Some(TICK), |ev| events.push(ev));
            if waited.is_err() {
                // An unusable poll set cannot make progress; exiting the
                // shard (dropping its connections) beats spinning.
                return;
            }
            if events.iter().any(|ev| ev.token == WAKE_TOKEN) {
                shared.wake.drain();
            }

            // New connections handed over by the acceptor.
            loop {
                let stream = shared
                    .accept_q
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .pop_front();
                match stream {
                    Some(stream) => self.admit(stream, factory, tap),
                    None => break,
                }
            }

            // Completion messages for resident connections.
            loop {
                let msg = shared
                    .mail_q
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .pop_front();
                match msg {
                    Some((token, msg)) => self.deliver(token, msg, tap),
                    None => break,
                }
            }

            // Socket readiness.
            for &ev in &events {
                if ev.token == WAKE_TOKEN {
                    continue;
                }
                self.handle_io(ev, tap);
            }

            // Drain propagation, timers, and finalization.
            let draining = self.core.draining.load(Ordering::SeqCst);
            let now = Instant::now();
            for slot in 0..self.slab.len() {
                if self.slab[slot].is_none() {
                    continue;
                }
                if draining && !self.slab[slot].as_ref().is_some_and(|c| c.drain_notified) {
                    if let Some(conn) = self.slab[slot].as_mut() {
                        conn.drain_notified = true;
                    }
                    self.with_conn(slot, tap, |handler, ctx| handler.on_drain(ctx));
                }
                let (idle, stalled) = match self.slab[slot].as_ref() {
                    Some(conn) => (
                        now.duration_since(conn.last_activity) > self.config.idle_timeout,
                        conn.write_since.is_some_and(|t| {
                            now.duration_since(t) > self.config.write_stall_timeout
                        }),
                    ),
                    None => (false, false),
                };
                if stalled {
                    self.finalize(slot, CloseReason::WriteStall);
                    continue;
                }
                if idle {
                    self.with_conn(slot, tap, |handler, ctx| handler.on_idle(ctx));
                }
                self.maybe_finalize(slot);
            }

            if draining && self.slab.iter().all(Option::is_none) {
                let accept_empty = shared
                    .accept_q
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .is_empty();
                let mail_empty = shared
                    .mail_q
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .is_empty();
                if accept_empty && mail_empty {
                    return;
                }
            }
        }
    }

    fn admit(
        &mut self,
        stream: TcpStream,
        factory: &Arc<HandlerFactory<M>>,
        tap: Option<&dyn StreamTap>,
    ) {
        // Count the registration up front and record a close on every
        // failure path, so `accepted - closed_total` is an exact live
        // count for the acceptor's connection cap.
        self.core.counters.accepted.fetch_add(1, Ordering::Relaxed);
        if stream.set_nonblocking(true).is_err() {
            self.core.counters.record_close(CloseReason::Eof);
            return;
        }
        let _ = stream.set_nodelay(true);
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                self.slab.push(None);
                self.gens.push(0);
                self.slab.len() - 1
            }
        };
        let gen = self.gens[slot];
        let token = token_for(self.index, slot, gen);
        if self
            .poller
            .add(stream.as_raw_fd(), token, sys::EPOLLIN)
            .is_err()
        {
            self.free.push(slot);
            self.core.counters.record_close(CloseReason::Eof);
            return;
        }
        let handler = factory(token);
        self.slab[slot] = Some(Conn {
            stream,
            gen,
            handler,
            read_buf: Vec::new(),
            consumed: 0,
            write_buf: Vec::new(),
            write_pos: 0,
            interest_out: false,
            last_activity: Instant::now(),
            write_since: None,
            closing: None,
            eof: false,
            eof_notified: false,
            drain_notified: false,
        });
        if self.core.draining.load(Ordering::SeqCst) {
            if let Some(conn) = self.slab[slot].as_mut() {
                conn.drain_notified = true;
            }
            self.with_conn(slot, tap, |handler, ctx| handler.on_drain(ctx));
        } else {
            // Edge-triggered registration: bytes that raced the add must
            // be read now or the edge is lost.
            self.read_ready(slot, tap);
        }
        self.maybe_finalize(slot);
    }

    fn deliver(&mut self, token: Token, msg: M, tap: Option<&dyn StreamTap>) {
        let slot = slot_of(token);
        let live = self
            .slab
            .get(slot)
            .and_then(Option::as_ref)
            .is_some_and(|c| c.gen == gen_of(token));
        if !live {
            return; // the connection died before its completion arrived
        }
        let mut msg = Some(msg);
        self.with_conn(slot, tap, |handler, ctx| {
            if let Some(msg) = msg.take() {
                handler.on_message(msg, ctx);
            }
        });
        self.maybe_finalize(slot);
    }

    fn handle_io(&mut self, ev: PollEvent, tap: Option<&dyn StreamTap>) {
        let slot = slot_of(ev.token);
        let live = self
            .slab
            .get(slot)
            .and_then(Option::as_ref)
            .is_some_and(|c| c.gen == gen_of(ev.token));
        if !live {
            return;
        }
        if ev.writable() {
            self.flush(slot, tap);
        }
        if ev.readable() {
            self.read_ready(slot, tap);
        }
        self.maybe_finalize(slot);
    }

    /// Edge-triggered read: drain the socket to `WouldBlock` (or the
    /// buffer cap), then hand the bytes to the handler once.
    fn read_ready(&mut self, slot: usize, tap: Option<&dyn StreamTap>) {
        let Some(conn) = self.slab[slot].as_mut() else {
            return;
        };
        if conn.closing.is_some() {
            return;
        }
        let mut got_bytes = false;
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            if conn.read_buf.len() - conn.consumed >= self.config.max_buffer {
                conn.closing = Some(CloseReason::Overflow);
                break;
            }
            // Reclaim consumed prefix before growing the buffer.
            if conn.consumed > 4096 && conn.consumed * 2 >= conn.read_buf.len() {
                conn.read_buf.drain(..conn.consumed);
                conn.consumed = 0;
            }
            let mut cap = READ_CHUNK;
            match tap.and_then(StreamTap::read_fault) {
                // As-if EINTR: retry the syscall (under edge triggering
                // the round must not be abandoned, or the edge is lost).
                Some(TapFault::Transient) => continue,
                Some(TapFault::Short(n)) => cap = n.clamp(1, READ_CHUNK),
                Some(TapFault::Stall(d)) => thread::sleep(d.min(self.config.max_injected_stall)),
                None => {}
            }
            match conn.stream.read(&mut chunk[..cap]) {
                Ok(0) => {
                    conn.eof = true;
                    break;
                }
                Ok(n) => {
                    conn.read_buf.extend_from_slice(&chunk[..n]);
                    conn.last_activity = Instant::now();
                    got_bytes = true;
                    self.core
                        .counters
                        .bytes_in
                        .fetch_add(n as u64, Ordering::Relaxed);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.eof = true;
                    break;
                }
            }
        }
        let eof_event = conn.eof && !conn.eof_notified;
        if got_bytes || eof_event {
            self.with_conn(slot, tap, |handler, ctx| handler.on_data(ctx));
        }
        if eof_event {
            if let Some(conn) = self.slab[slot].as_mut() {
                conn.eof_notified = true;
            }
            self.with_conn(slot, tap, |handler, ctx| handler.on_eof(ctx));
        }
    }

    /// Runs a handler callback with a [`ConnCtx`] borrowed from the
    /// slot, then flushes whatever the handler queued.
    fn with_conn(
        &mut self,
        slot: usize,
        tap: Option<&dyn StreamTap>,
        f: impl FnOnce(&mut Box<dyn Handler<M>>, &mut ConnCtx<'_>),
    ) {
        let draining = self.core.draining.load(Ordering::SeqCst);
        {
            let Some(conn) = self.slab[slot].as_mut() else {
                return;
            };
            let token = token_for(self.index, slot, conn.gen);
            let Conn {
                handler,
                read_buf,
                consumed,
                write_buf,
                closing,
                last_activity,
                ..
            } = conn;
            let mut ctx = ConnCtx {
                token,
                read_buf,
                consumed,
                write_buf,
                closing,
                last_activity,
                draining,
            };
            f(handler, &mut ctx);
        }
        self.flush(slot, tap);
    }

    /// Flushes queued response bytes; arms `EPOLLOUT` on backpressure.
    fn flush(&mut self, slot: usize, tap: Option<&dyn StreamTap>) {
        let Some(conn) = self.slab[slot].as_mut() else {
            return;
        };
        while conn.write_pos < conn.write_buf.len() {
            let mut cap = conn.write_buf.len() - conn.write_pos;
            match tap.and_then(StreamTap::write_fault) {
                Some(TapFault::Transient) => continue,
                Some(TapFault::Short(n)) => cap = n.clamp(1, cap),
                Some(TapFault::Stall(d)) => thread::sleep(d.min(self.config.max_injected_stall)),
                None => {}
            }
            let window = &conn.write_buf[conn.write_pos..conn.write_pos + cap];
            match conn.stream.write(window) {
                Ok(0) => {
                    // Dead transport: nothing more can be sent, so mark
                    // the buffer drained to unblock finalization.
                    if conn.closing.is_none() {
                        conn.closing = Some(CloseReason::Eof);
                    }
                    conn.write_pos = conn.write_buf.len();
                    break;
                }
                Ok(n) => {
                    conn.write_pos += n;
                    self.core
                        .counters
                        .bytes_out
                        .fetch_add(n as u64, Ordering::Relaxed);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    if conn.closing.is_none() {
                        conn.closing = Some(CloseReason::Eof);
                    }
                    conn.write_pos = conn.write_buf.len();
                    break;
                }
            }
        }
        if conn.write_pos >= conn.write_buf.len() {
            conn.write_buf.clear();
            conn.write_pos = 0;
            conn.write_since = None;
            if conn.interest_out {
                conn.interest_out = false;
                let token = token_for(self.index, slot, conn.gen);
                let _ = self
                    .poller
                    .modify(conn.stream.as_raw_fd(), token, sys::EPOLLIN);
            }
        } else {
            if conn.write_since.is_none() {
                conn.write_since = Some(Instant::now());
            }
            if !conn.interest_out {
                conn.interest_out = true;
                let token = token_for(self.index, slot, conn.gen);
                let _ = self.poller.modify(
                    conn.stream.as_raw_fd(),
                    token,
                    sys::EPOLLIN | sys::EPOLLOUT,
                );
            }
        }
    }

    /// Closes the slot now if a close is pending and the write buffer
    /// has drained. (A dead transport counts as drained: `flush` marks
    /// the buffer spent on write errors — so a half-closed peer still
    /// receives its queued response, while a fully dead one finalizes
    /// immediately. A peer that stops reading is bounded by the
    /// write-stall sweep.)
    fn maybe_finalize(&mut self, slot: usize) {
        let reason = match self.slab.get(slot).and_then(Option::as_ref) {
            Some(conn) => match conn.closing {
                Some(reason) if conn.write_pos >= conn.write_buf.len() => Some(reason),
                _ => None,
            },
            None => None,
        };
        if let Some(reason) = reason {
            self.finalize(slot, reason);
        }
    }

    fn finalize(&mut self, slot: usize, reason: CloseReason) {
        if let Some(conn) = self.slab[slot].take() {
            let _ = self.poller.delete(conn.stream.as_raw_fd());
            self.core.counters.record_close(reason);
            self.gens[slot] = self.gens[slot].wrapping_add(1);
            self.free.push(slot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;

    /// Newline-echo handler: echoes each line back, closes on "quit",
    /// and echoes posted messages prefixed with "msg:".
    struct Echo;

    impl Handler<String> for Echo {
        fn on_data(&mut self, conn: &mut ConnCtx<'_>) {
            while let Some(nl) = conn.data().iter().position(|&b| b == b'\n') {
                let line = conn.data()[..nl].to_vec();
                conn.consume(nl + 1);
                if line == b"quit" {
                    conn.close(CloseReason::App);
                    return;
                }
                conn.write(&line);
                conn.write(b"\n");
            }
        }

        fn on_message(&mut self, msg: String, conn: &mut ConnCtx<'_>) {
            conn.write(format!("msg:{msg}\n").as_bytes());
        }
    }

    fn start_echo(config: ReactorConfig) -> (Reactor<String>, TcpListener, std::net::SocketAddr) {
        let reactor = Reactor::start(
            config,
            Arc::new(|_| Box::new(Echo) as Box<dyn Handler<_>>),
            None,
        )
        .expect("reactor starts");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        (reactor, listener, addr)
    }

    #[test]
    fn echoes_lines_across_shards_and_drains_clean() {
        let (reactor, listener, addr) = start_echo(ReactorConfig {
            shards: 2,
            ..ReactorConfig::default()
        });
        let handle = reactor.handle();
        let mut clients = Vec::new();
        for i in 0..4 {
            let stream = TcpStream::connect(addr).expect("connect");
            let (server_side, _) = listener.accept().expect("accept");
            handle.register(server_side);
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut stream = stream;
            writeln!(stream, "hello-{i}").expect("write");
            let mut line = String::new();
            reader.read_line(&mut line).expect("read");
            assert_eq!(line.trim(), format!("hello-{i}"));
            clients.push((stream, reader));
        }
        assert_eq!(reactor.counters().accepted.load(Ordering::Relaxed), 4);
        drop(clients);
        handle.drain();
        reactor.join();
    }

    #[test]
    fn mailbox_messages_reach_the_right_connection() {
        let (reactor, listener, addr) = start_echo(ReactorConfig::default());
        let handle = reactor.handle();
        let mailbox = reactor.mailbox();

        let stream = TcpStream::connect(addr).expect("connect");
        let (server_side, _) = listener.accept().expect("accept");
        handle.register(server_side);
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut stream = stream;

        // Learn the token by echo first (token is internal, so derive it
        // the way the serving layer does: the factory hands it to the
        // handler; here the first registered conn is shard 0, slot 0,
        // gen 0).
        writeln!(stream, "sync").expect("write");
        let mut line = String::new();
        reader.read_line(&mut line).expect("read");
        assert_eq!(line.trim(), "sync");

        mailbox.post(token_for(0, 0, 0), "done".to_owned());
        line.clear();
        reader.read_line(&mut line).expect("read");
        assert_eq!(line.trim(), "msg:done");

        // A message for a stale generation is dropped, not delivered.
        mailbox.post(token_for(0, 0, 99), "ghost".to_owned());
        writeln!(stream, "after").expect("write");
        line.clear();
        reader.read_line(&mut line).expect("read");
        assert_eq!(line.trim(), "after", "ghost message must not arrive");

        drop(stream);
        handle.drain();
        reactor.join();
    }

    #[test]
    fn idle_connections_are_closed_and_counted() {
        let (reactor, listener, addr) = start_echo(ReactorConfig {
            idle_timeout: Duration::from_millis(120),
            ..ReactorConfig::default()
        });
        let handle = reactor.handle();
        let stream = TcpStream::connect(addr).expect("connect");
        let (server_side, _) = listener.accept().expect("accept");
        handle.register(server_side);

        // Never send anything: the reactor must cut the connection.
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        let n = reader.read_line(&mut line).expect("read eof");
        assert_eq!(n, 0, "idle connection must be closed by the server");
        assert_eq!(reactor.counters().closed(CloseReason::Idle), 1);

        handle.drain();
        reactor.join();
    }

    #[test]
    fn tokens_round_trip_their_fields() {
        let t = token_for(5, 0x00ab_cdef, 0xdead_beef);
        assert_eq!(shard_of(t), 5);
        assert_eq!(slot_of(t), 0x00ab_cdef);
        assert_eq!(gen_of(t), 0xdead_beef);
        assert_ne!(t, WAKE_TOKEN);
    }
}
