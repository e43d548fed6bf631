//! Sharded edge-triggered reactor.
//!
//! N shard threads each own a [`Poller`], a slab of accepted
//! connections and two cross-thread queues (accept handoff and a
//! message mailbox), both signalled through the shard's eventfd.
//! Connections never migrate between shards, so all per-connection state
//! is plain (non-atomic) data touched by exactly one thread.
//!
//! The reactor also owns the listening sockets. Shard 0 polls them
//! (nonblocking, edge-triggered), builds each accepted connection's
//! handler with its listener's factory, in accept order, and hands the
//! pair out round robin through the accept queues. [`ReactorHandle::drain`]
//! closes the listeners, which takes them off the poll set, so nothing
//! has to be woken out of a blocking `accept`.
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
//!   longer than `WRITE_STALL_TIMEOUT` (10 s) is closed (`WriteStall`);
//! * **idle timeout** — a connection with no inbound bytes for
//!   `idle_timeout` gets [`Handler::on_idle`] (default: close), closing
//!   the slow-loris hole a blocking read-per-thread design leaves open;
//! * **buffer caps** — a peer that streams bytes faster than the
//!   handler consumes them is closed (`Overflow`) at `MAX_BUFFER`.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use crate::poller::{PollEvent, Poller, WakeFd, WAKE_TOKEN};
use crate::sys;

/// Opaque per-connection identifier: shard (8 bits) | slot (24 bits) |
/// generation (32 bits). Stable across the connection's lifetime;
/// reusing a slot bumps the generation so late messages for a dead
/// connection never reach its successor.
pub type Token = u64;

/// The poll token of every listening socket (all of them sit on shard
/// 0). No connection token equals it: a connection token's low byte is
/// its shard index, below 128.
const LISTEN_TOKEN: Token = WAKE_TOKEN - 1;

/// Locks `m`, recovering the data if a panicking holder poisoned it.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

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
    /// finalized connection).
    pub fn record_close(&self, reason: CloseReason) {
        self.closed[Self::idx(reason)].fetch_add(1, Ordering::Relaxed);
    }

    /// Total closes across every reason.
    fn closed_total(&self) -> u64 {
        self.closed.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Connections accepted and not yet closed (every accepted
    /// connection records exactly one close).
    pub fn live(&self) -> u64 {
        let accepted = self.accepted.load(Ordering::Relaxed);
        accepted.saturating_sub(self.closed_total())
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
    /// The connection was just admitted, before anything is read.
    /// Default: nothing. A handler can queue bytes and close here, e.g.
    /// to reject a connection with one line.
    fn on_open(&mut self, _conn: &mut ConnCtx<'_>) {}
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

/// Builds one [`Handler`] per accepted connection. It runs on shard 0,
/// in accept order, before the connection is counted, so
/// [`NetCounters::live`] read inside it counts the ones already open.
pub type HandlerFactory<M> = dyn Fn() -> Box<dyn Handler<M>> + Send + Sync;

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
}

impl Default for ReactorConfig {
    fn default() -> ReactorConfig {
        ReactorConfig {
            shards: 1,
            idle_timeout: Duration::from_secs(30),
        }
    }
}

/// Hard cap on unconsumed inbound bytes per connection.
const MAX_BUFFER: usize = 18 << 20;
/// Close connections whose peer stops draining responses for this long.
const WRITE_STALL_TIMEOUT: Duration = Duration::from_secs(10);
/// Ceiling on an injected `Stall` fault, so a mis-tuned plan slows but
/// never wedges a shard.
const MAX_INJECTED_STALL: Duration = Duration::from_millis(200);

type Accepted<M> = (TcpStream, Box<dyn Handler<M>>);

struct ShardShared<M> {
    accept_q: Mutex<VecDeque<Accepted<M>>>,
    mail_q: Mutex<VecDeque<(Token, M)>>,
    wake: WakeFd,
}

struct Core<M> {
    shards: Vec<Arc<ShardShared<M>>>,
    draining: AtomicBool,
    counters: Arc<NetCounters>,
    next_shard: AtomicUsize,
    /// The listening sockets and their factories, polled by shard 0 and
    /// emptied by drain. Accepting holds the lock, so no stream reaches
    /// a queue after drain has emptied it.
    listeners: Mutex<Vec<(TcpListener, Arc<HandlerFactory<M>>)>>,
}

impl<M> Core<M> {
    /// Accepts every pending connection, builds its handler and hands
    /// both to a shard, round robin. Returns `false` when an accept
    /// failed with something other than `WouldBlock` (out of
    /// descriptors, say): the caller retries on its next tick, since the
    /// edge that announced the connection will not fire again.
    fn accept(&self) -> bool {
        let listeners = lock(&self.listeners);
        let mut drained = true;
        for (listener, factory) in listeners.iter() {
            let error = loop {
                let (stream, _) = match listener.accept() {
                    Ok(accepted) => accepted,
                    Err(e) => break e,
                };
                let handler = factory();
                self.counters.accepted.fetch_add(1, Ordering::Relaxed);
                let shard = &self.shards
                    [self.next_shard.fetch_add(1, Ordering::Relaxed) % self.shards.len()];
                lock(&shard.accept_q).push_back((stream, handler));
                shard.wake.wake();
            };
            drained &= error.kind() == io::ErrorKind::WouldBlock;
        }
        drained
    }
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
        lock(&shard.mail_q).push_back((token, msg));
        shard.wake.wake();
    }
}

/// Triggers drain from any thread.
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
    /// Starts the drain: the listeners close (new connects are refused),
    /// every shard delivers [`Handler::on_drain`] and exits once its
    /// last connection closes.
    pub fn drain(&self) {
        // Closing a listener takes it off shard 0's poll set. Every
        // handoff happened under this lock, so a shard that sees the flag
        // also sees every stream already in its queue.
        lock(&self.core.listeners).clear();
        self.core.draining.store(true, Ordering::SeqCst);
        for shard in &self.core.shards {
            shard.wake.wake();
        }
    }
}

/// The running reactor: N shard threads plus their shared queues.
pub struct Reactor<M: Send + 'static> {
    core: Arc<Core<M>>,
    threads: Vec<thread::JoinHandle<()>>,
}

impl<M: Send + 'static> Reactor<M> {
    /// Spawns the shard threads. Shard 0 accepts on every listener,
    /// building each connection's handler with that listener's factory;
    /// `counters` receives every connection's accept, bytes and close.
    ///
    /// # Errors
    ///
    /// Propagates epoll/eventfd/thread-spawn failures and a listener
    /// that cannot be made nonblocking.
    pub fn start(
        config: ReactorConfig,
        listeners: Vec<(TcpListener, Arc<HandlerFactory<M>>)>,
        counters: Arc<NetCounters>,
        tap: Option<Arc<dyn StreamTap>>,
    ) -> io::Result<Reactor<M>> {
        let shard_count = config.shards.clamp(1, 128);
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
            counters,
            next_shard: AtomicUsize::new(0),
            listeners: Mutex::new(listeners),
        });
        let states = (0..shard_count)
            .map(|index| ShardState::new(index, &config, Arc::clone(&core)))
            .collect::<io::Result<Vec<_>>>()?;
        for (listener, _) in lock(&core.listeners).iter() {
            listener.set_nonblocking(true)?;
            states[0]
                .poller
                .add(listener.as_raw_fd(), LISTEN_TOKEN, sys::EPOLLIN)?;
        }
        let mut threads = Vec::with_capacity(shard_count);
        for (index, mut state) in states.into_iter().enumerate() {
            let tap = tap.clone();
            threads.push(
                thread::Builder::new()
                    .name(format!("charfree-net-{index}"))
                    .spawn(move || state.run(tap.as_deref()))?,
            );
        }
        Ok(Reactor { core, threads })
    }

    /// A handle for draining.
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
    /// Shard 0 only: the last accept round failed, so retry this tick.
    accept_retry: bool,
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
            accept_retry: false,
        })
    }

    fn run(&mut self, tap: Option<&dyn StreamTap>) {
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
            let mut accept = self.accept_retry;
            for ev in &events {
                match ev.token {
                    WAKE_TOKEN => shared.wake.drain(),
                    LISTEN_TOKEN => accept = true,
                    _ => {}
                }
            }
            if accept {
                self.accept_retry = !self.core.accept();
            }

            // New connections, handed over by shard 0.
            loop {
                let stream = lock(&shared.accept_q).pop_front();
                match stream {
                    Some((stream, handler)) => self.admit(stream, handler, tap),
                    None => break,
                }
            }

            // Completion messages for resident connections.
            loop {
                let msg = lock(&shared.mail_q).pop_front();
                match msg {
                    Some((token, msg)) => self.deliver(token, msg, tap),
                    None => break,
                }
            }

            // Socket readiness.
            for &ev in &events {
                if !matches!(ev.token, WAKE_TOKEN | LISTEN_TOKEN) {
                    self.handle_io(ev, tap);
                }
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
                        conn.write_since
                            .is_some_and(|t| now.duration_since(t) > WRITE_STALL_TIMEOUT),
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
                let accept_empty = lock(&shared.accept_q).is_empty();
                let mail_empty = lock(&shared.mail_q).is_empty();
                if accept_empty && mail_empty {
                    return;
                }
            }
        }
    }

    fn admit(
        &mut self,
        stream: TcpStream,
        handler: Box<dyn Handler<M>>,
        tap: Option<&dyn StreamTap>,
    ) {
        // The accept was counted on shard 0; record a close on every
        // failure path, so `NetCounters::live` stays exact.
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
        self.with_conn(slot, tap, |handler, ctx| handler.on_open(ctx));
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
            if conn.read_buf.len() - conn.consumed >= MAX_BUFFER {
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
                Some(TapFault::Stall(d)) => thread::sleep(d.min(MAX_INJECTED_STALL)),
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
                Some(TapFault::Stall(d)) => thread::sleep(d.min(MAX_INJECTED_STALL)),
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
    use std::net::SocketAddr;

    /// Newline-echo handler: echoes each line back, answers "token" with
    /// the connection's token, closes on "quit", and echoes posted
    /// messages prefixed with "msg:".
    struct Echo;

    impl Handler<String> for Echo {
        fn on_data(&mut self, conn: &mut ConnCtx<'_>) {
            while let Some(nl) = conn.data().iter().position(|&b| b == b'\n') {
                let line = conn.data()[..nl].to_vec();
                conn.consume(nl + 1);
                match &line[..] {
                    b"quit" => {
                        conn.close(CloseReason::App);
                        return;
                    }
                    b"token" => conn.write(format!("{}\n", conn.token()).as_bytes()),
                    _ => {
                        conn.write(&line);
                        conn.write(b"\n");
                    }
                }
            }
        }

        fn on_message(&mut self, msg: String, conn: &mut ConnCtx<'_>) {
            conn.write(format!("msg:{msg}\n").as_bytes());
        }
    }

    /// A reactor that owns one echo listener on a free loopback port.
    fn start_echo(config: ReactorConfig) -> (Reactor<String>, Arc<NetCounters>, SocketAddr) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let counters = Arc::new(NetCounters::default());
        let factory: Arc<HandlerFactory<String>> = Arc::new(|| Box::new(Echo));
        let reactor = Reactor::start(
            config,
            vec![(listener, factory)],
            Arc::clone(&counters),
            None,
        )
        .expect("reactor starts");
        (reactor, counters, addr)
    }

    /// Connects and returns the stream plus a line reader over it.
    fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
        let stream = TcpStream::connect(addr).expect("connect");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        (stream, reader)
    }

    fn ask(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> String {
        writeln!(stream, "{line}").expect("write");
        let mut answer = String::new();
        reader.read_line(&mut answer).expect("read");
        answer.trim().to_owned()
    }

    #[test]
    fn echoes_lines_across_shards_and_drains_clean() {
        let (reactor, counters, addr) = start_echo(ReactorConfig {
            shards: 2,
            ..ReactorConfig::default()
        });
        let handle = reactor.handle();
        let mut clients = Vec::new();
        for i in 0..4 {
            let (mut stream, mut reader) = connect(addr);
            assert_eq!(
                ask(&mut stream, &mut reader, &format!("hello-{i}")),
                format!("hello-{i}")
            );
            clients.push((stream, reader));
        }
        assert_eq!(counters.accepted.load(Ordering::Relaxed), 4);
        drop(clients);
        handle.drain();
        reactor.join();
    }

    #[test]
    fn accepts_alternate_between_shards_and_drain_closes_the_listener() {
        let (reactor, _, addr) = start_echo(ReactorConfig {
            shards: 2,
            ..ReactorConfig::default()
        });
        let mut clients = Vec::new();
        for i in 0..6 {
            let (mut stream, mut reader) = connect(addr);
            let token: Token = ask(&mut stream, &mut reader, "token")
                .parse()
                .expect("a token");
            assert_eq!(shard_of(token), i % 2, "connection {i} went round robin");
            clients.push(stream);
        }
        drop(clients);
        reactor.handle().drain();
        reactor.join();
        let refused = TcpStream::connect(addr).expect_err("the listener is closed");
        assert_eq!(refused.kind(), io::ErrorKind::ConnectionRefused);
    }

    #[test]
    fn mailbox_messages_reach_the_right_connection() {
        let (reactor, _, addr) = start_echo(ReactorConfig::default());
        let handle = reactor.handle();
        let mailbox = reactor.mailbox();
        let (mut stream, mut reader) = connect(addr);

        let token: Token = ask(&mut stream, &mut reader, "token")
            .parse()
            .expect("a token");
        mailbox.post(token, "done".to_owned());
        let mut line = String::new();
        reader.read_line(&mut line).expect("read");
        assert_eq!(line.trim(), "msg:done");

        // A message for a stale generation is dropped, not delivered.
        let stale = token_for(shard_of(token), slot_of(token), gen_of(token) + 99);
        mailbox.post(stale, "ghost".to_owned());
        assert_eq!(
            ask(&mut stream, &mut reader, "after"),
            "after",
            "ghost message must not arrive"
        );

        drop(stream);
        handle.drain();
        reactor.join();
    }

    #[test]
    fn idle_connections_are_closed_and_counted() {
        let (reactor, counters, addr) = start_echo(ReactorConfig {
            idle_timeout: Duration::from_millis(120),
            ..ReactorConfig::default()
        });
        let handle = reactor.handle();

        // Never send anything: the reactor must cut the connection.
        let (_stream, mut reader) = connect(addr);
        let mut line = String::new();
        let n = reader.read_line(&mut line).expect("read eof");
        assert_eq!(n, 0, "idle connection must be closed by the server");
        assert_eq!(counters.closed(CloseReason::Idle), 1);

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
        assert_ne!(token_for(127, 0x00ff_ffff, u32::MAX), LISTEN_TOKEN);
    }
}
