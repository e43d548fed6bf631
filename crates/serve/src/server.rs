//! The TCP server: acceptor, reactor front end, service pool, admission
//! control and graceful drain.
//!
//! Threading model: one acceptor thread hands sockets to N reactor
//! shard threads (crate `charfree-net`, epoll edge-triggered) that own
//! all connection I/O and framing; a fixed service pool parses requests,
//! runs admission and model resolution, and submits dispatcher jobs
//! whose reply sinks post encoded responses back to the owning shard
//! (see `frontend`); the dispatcher coordinator + worker pool
//! ([`crate::batch`]) evaluates, which is what lets requests from
//! different sockets share 64-lane pattern blocks. No thread is ever
//! parked per connection.
//!
//! Admission control is two-layered: a connection cap at accept time
//! (live connections = registrations minus closes, both lock-free
//! counters) and a request-level in-flight cap (`max_inflight`) enforced
//! with a single atomic. Both shed with typed `overloaded` responses
//! carrying `retry_after_ms`; nothing blocks behind an unbounded queue.
//!
//! Drain (`shutdown` request or SIGTERM): the draining flag flips, a
//! loopback connect nudges the blocking acceptor awake, the reactor
//! shards finish in-flight requests and close their connections, and
//! [`Server::wait`] joins acceptor → reactor → service pool →
//! dispatcher — every accepted request completes, no new work is
//! admitted.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::{Arc, OnceLock};
use std::thread;
use std::time::Duration;

use charfree_engine::Kernel;
use charfree_net::{
    NetCounters, Reactor, ReactorConfig, ReactorHandle, StreamTap, TapFault, Token,
};
use charfree_netlist::{blif, Library};
use charfree_pipeline::{
    ArtifactStore, BuildOptions, FaultIo, PipelineCtx, PipelineError, Source, StreamFault, StreamOp,
};
use charfree_seq::SeqModel;
use charfree_sim::MarkovSource;

use crate::batch::Dispatcher;
use crate::frontend::{Completion, Frontend, ServicePool, SvcRequest};
use crate::json::Json;
use crate::metrics;
use crate::proto::{ErrorKind, Response, WireBuildOptions, WireEvalParams, WireMacroSummary};
use crate::registry::{Resident, ShardedRegistry};
use crate::stats::ServerStats;
use crate::supervisor::{BreakerConfig, BreakerDecision, CircuitBreaker};

/// Longest tolerated request line (a `trace` request is short; this only
/// guards against garbage streams growing the buffer without bound).
pub(crate) const MAX_LINE_BYTES: usize = 1 << 20;

/// Suggested client backoff when a request is shed.
pub(crate) const RETRY_AFTER_MS: u64 = 25;

/// Write timeout for the `overloaded` line sent to a connection rejected
/// at the cap. The write happens on the acceptor thread; without a
/// timeout a client that connects but never reads could fill the kernel
/// send buffer and stall the accept loop for everyone.
const REJECT_WRITE_TIMEOUT: Duration = Duration::from_millis(100);

/// Service threads between the reactor and the dispatcher (parse,
/// admission, model resolution, pattern generation).
const SERVICE_THREADS: usize = 4;

/// Server construction parameters (the `charfree serve` flags).
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7878` (port 0 picks a free port).
    pub addr: String,
    /// Evaluation worker threads (must be at least 1; the CLI rejects 0
    /// at parse time).
    pub jobs: usize,
    /// Micro-batch coalescing window (zero dispatches immediately).
    pub batch_window: Duration,
    /// Request-level admission cap.
    pub max_inflight: usize,
    /// Largest `vectors` a single `eval`/`trace` request may ask for.
    /// Admission control counts requests, not work; this caps the work
    /// (pattern storage and, for `trace`, response size) one request can
    /// pin, so a single `vectors=10^10` line cannot OOM the server.
    pub max_vectors: usize,
    /// Registry byte budget for resident models, combinational kernels
    /// and sequential designs alike (shared across all registry shards).
    pub model_bytes_budget: usize,
    /// Cell library models are built against.
    pub library: Library,
    /// Content-addressed artifact store directory (warm loads skip the
    /// symbolic build entirely).
    pub cache_dir: Option<PathBuf>,
    /// Per-connection inactivity cutoff (slow-loris guard; a connection
    /// with a request in flight is never idle-closed).
    pub idle_timeout: Duration,
    /// Concurrent-connection cap (excess connections get one
    /// `overloaded` line and are closed).
    pub max_connections: usize,
    /// Reactor shard threads owning connection I/O.
    pub reactor_threads: usize,
    /// Optional dedicated `GET /metrics` listener address (the main
    /// port also answers `GET /metrics`).
    pub metrics_addr: Option<String>,
    /// Structured per-request logging to stderr.
    pub log: bool,
    /// Per-model build circuit breaker tuning.
    pub breaker: BreakerConfig,
    /// Fault-injection layer threaded through the artifact store and
    /// connection read/write paths (`None` = real I/O). Used by the
    /// conform `chaos` campaign and resilience tests.
    pub fault_io: Option<Arc<dyn FaultIo>>,
}

impl ServeConfig {
    /// Defaults matching the `charfree serve` flag defaults.
    pub fn new(library: Library) -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:7878".to_owned(),
            jobs: 1,
            batch_window: Duration::from_micros(200),
            max_inflight: 64,
            max_vectors: 4_000_000,
            model_bytes_budget: 64 << 20,
            library,
            cache_dir: None,
            idle_timeout: Duration::from_secs(30),
            max_connections: 64,
            reactor_threads: 2,
            metrics_addr: None,
            log: true,
            breaker: BreakerConfig::default(),
            fault_io: None,
        }
    }
}

pub(crate) struct Shared {
    pub(crate) library: Library,
    pub(crate) store: Option<ArtifactStore>,
    /// Process-wide cross-build structural table: every cold model build
    /// on any worker routes through it, so related models share sub-DAG
    /// construction work (and its counters feed stats/metrics).
    pub(crate) shared_table: Arc<charfree_dd::SharedTable>,
    pub(crate) registry: ShardedRegistry,
    pub(crate) stats: Arc<ServerStats>,
    pub(crate) inflight: AtomicUsize,
    pub(crate) max_inflight: usize,
    pub(crate) max_vectors: usize,
    pub(crate) draining: AtomicBool,
    pub(crate) breaker: CircuitBreaker,
    pub(crate) log: bool,
    addr: SocketAddr,
    /// Set once the reactor is up; `None` only during startup.
    net: OnceLock<Arc<NetCounters>>,
    reactor: OnceLock<ReactorHandle<Completion>>,
    /// Connections handed to the reactor by the acceptor. Live count =
    /// `registered - net.closed_total()` (registration guarantees
    /// exactly one close record eventually).
    registered: AtomicU64,
}

impl Shared {
    pub(crate) fn log_line(&self, token: Token, msg: &str) {
        if self.log {
            eprintln!("charfree-serve: conn={token:#x} {msg}");
        }
    }

    /// The full stats snapshot (registry, breaker and net sections
    /// included) — the one source for `stats`, `metrics` and HTTP.
    pub(crate) fn snapshot(&self) -> Json {
        self.stats.snapshot(
            &self.registry,
            &self.breaker,
            self.net.get().map(|c| c.as_ref()),
            Some(&self.shared_table),
            Some(self.registry.seq_stats()),
        )
    }

    fn live_connections(&self) -> u64 {
        let registered = self.registered.load(Ordering::SeqCst);
        let closed = self.net.get().map_or(0, |c| c.closed_total());
        registered.saturating_sub(closed)
    }
}

/// Owned RAII slot in the request-level admission window. Owned (not
/// borrowed) so it can ride inside an async reply sink across the
/// dispatcher queue — the slot frees exactly when the response is
/// produced, so in-flight accounting covers queue residency.
pub(crate) struct InflightGuard(Arc<Shared>);

impl Drop for InflightGuard {
    fn drop(&mut self) {
        self.0.inflight.fetch_sub(1, Ordering::SeqCst);
    }
}

pub(crate) fn try_admit(shared: &Arc<Shared>) -> Option<InflightGuard> {
    shared
        .inflight
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
            (n < shared.max_inflight).then_some(n + 1)
        })
        .ok()
        .map(|_| InflightGuard(Arc::clone(shared)))
}

/// Adapts the pipeline's injectable I/O faults to the reactor's socket
/// tap, so one fault plan drives store, read and write paths alike.
struct FaultTap(Arc<dyn FaultIo>);

fn tap_fault(fault: StreamFault) -> TapFault {
    match fault {
        StreamFault::Transient => TapFault::Transient,
        StreamFault::Short(n) => TapFault::Short(n),
        StreamFault::Stall(d) => TapFault::Stall(d),
    }
}

impl StreamTap for FaultTap {
    fn read_fault(&self) -> Option<TapFault> {
        self.0.stream_fault(StreamOp::Read).map(tap_fault)
    }

    fn write_fault(&self) -> Option<TapFault> {
        self.0.stream_fault(StreamOp::Write).map(tap_fault)
    }
}

/// A running server. Dropping it does **not** stop the threads; drive it
/// to completion with [`Server::wait`] after a `shutdown` request (or
/// [`Server::request_drain`]).
pub struct Server {
    addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    acceptor: Option<thread::JoinHandle<()>>,
    reactor: Option<Reactor<Completion>>,
    services: Option<ServicePool>,
    dispatcher: Option<Dispatcher>,
    metrics: Option<thread::JoinHandle<()>>,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds and starts accepting.
    ///
    /// # Errors
    ///
    /// Propagates bind failures (main listener and, when configured, the
    /// metrics listener) and thread-spawn failures.
    pub fn start(config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let stats = Arc::new(ServerStats::new());
        let store = config.cache_dir.as_ref().map(|dir| {
            let store = ArtifactStore::new(dir);
            match &config.fault_io {
                Some(io) => store.with_io(Arc::clone(io)),
                None => store,
            }
        });
        // Startup recovery: replay the cache journal, quarantine torn
        // entries, heal missing commits — before the first request can
        // warm-load anything.
        if let Some(store) = &store {
            match store.recover() {
                Ok(report) => {
                    if config.log && !report.is_clean() {
                        eprintln!("charfree-serve: cache recovery: {}", report.summary());
                    }
                }
                Err(e) => {
                    // A failed recovery pass degrades to "serve with a
                    // cold registry": validate-on-load still guards every
                    // artifact the store hands back.
                    if config.log {
                        eprintln!("charfree-serve: cache recovery failed: {e}");
                    }
                }
            }
        }
        let shared = Arc::new(Shared {
            store,
            shared_table: Arc::new(charfree_dd::SharedTable::new()),
            library: config.library,
            registry: ShardedRegistry::new(
                ShardedRegistry::DEFAULT_SHARDS,
                config.model_bytes_budget.max(1),
            ),
            stats: Arc::clone(&stats),
            inflight: AtomicUsize::new(0),
            max_inflight: config.max_inflight.max(1),
            max_vectors: config.max_vectors.max(2),
            draining: AtomicBool::new(false),
            breaker: CircuitBreaker::new(config.breaker),
            log: config.log,
            addr,
            net: OnceLock::new(),
            reactor: OnceLock::new(),
            registered: AtomicU64::new(0),
        });
        let dispatcher = Dispatcher::start(
            config.jobs.max(1),
            config.batch_window,
            shared.max_inflight,
            stats,
        );
        let batch = dispatcher.handle();

        // Service queue: sized so that every connection can have one
        // request queued before the front end sheds.
        let svc_cap = config.max_connections.max(config.max_inflight).max(64);
        let (svc_tx, svc_rx) = sync_channel::<SvcRequest>(svc_cap);

        let factory_shared = Arc::clone(&shared);
        let factory = Arc::new(move |_token: Token| {
            Box::new(Frontend::new(Arc::clone(&factory_shared), svc_tx.clone()))
                as Box<dyn charfree_net::Handler<Completion>>
        });
        let tap = config
            .fault_io
            .as_ref()
            .map(|io| Arc::new(FaultTap(Arc::clone(io))) as Arc<dyn StreamTap>);
        let reactor = Reactor::start(
            ReactorConfig {
                shards: config.reactor_threads.max(1),
                idle_timeout: config.idle_timeout,
                ..ReactorConfig::default()
            },
            factory,
            tap,
        )?;
        let _ = shared.net.set(reactor.counters());
        let _ = shared.reactor.set(reactor.handle());

        let services =
            ServicePool::start(SERVICE_THREADS, svc_rx, &shared, &batch, &reactor.mailbox())?;

        let accept_shared = Arc::clone(&shared);
        let accept_handle = reactor.handle();
        let max_connections = config.max_connections.max(1);
        let acceptor = thread::Builder::new()
            .name("charfree-serve-accept".to_owned())
            .spawn(move || {
                accept_loop(&listener, &accept_shared, &accept_handle, max_connections);
            })?;

        let (metrics_addr, metrics) = match &config.metrics_addr {
            Some(maddr) => {
                let mlistener = TcpListener::bind(maddr)?;
                let maddr = mlistener.local_addr()?;
                mlistener.set_nonblocking(true)?;
                let mshared = Arc::clone(&shared);
                let handle = thread::Builder::new()
                    .name("charfree-serve-metrics".to_owned())
                    .spawn(move || metrics_loop(&mlistener, &mshared))?;
                (Some(maddr), Some(handle))
            }
            None => (None, None),
        };

        if shared.log {
            eprintln!("charfree-serve: listening on {addr}");
            if let Some(maddr) = metrics_addr {
                eprintln!("charfree-serve: metrics on http://{maddr}/metrics");
            }
        }
        Ok(Server {
            addr,
            metrics_addr,
            acceptor: Some(acceptor),
            reactor: Some(reactor),
            services: Some(services),
            dispatcher: Some(dispatcher),
            metrics,
            shared,
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound metrics address, when a dedicated listener was
    /// configured.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// Flips the draining flag and wakes the acceptor and reactor, as if
    /// a `shutdown` request had arrived.
    pub fn request_drain(&self) {
        begin_drain(&self.shared);
    }

    /// A cloneable handle that can trigger the same drain from another
    /// thread (e.g. a signal watcher) without owning the server.
    pub fn drain_handle(&self) -> DrainHandle {
        DrainHandle(Arc::clone(&self.shared))
    }

    /// Installs SIGTERM/SIGINT handlers that trigger a graceful drain,
    /// so `kill -TERM <pid>` (or Ctrl-C) behaves exactly like the
    /// `shutdown` wire command: accepted requests complete, then
    /// [`Server::wait`] returns and the process can exit 0.
    #[cfg(unix)]
    pub fn drain_on_signals(&self) {
        signal_drain::install(self.drain_handle());
    }

    /// Blocks until the server has fully drained: acceptor joined, every
    /// connection closed, every accepted job flushed through the
    /// dispatcher.
    ///
    /// Join order matters: the reactor shards exit only once their
    /// connection slabs are empty, and a connection with a request in
    /// flight stays in the slab until its completion arrives — so
    /// joining the reactor transitively waits for the service pool and
    /// dispatcher to answer everything that was accepted. Joining the
    /// service pool after the reactor is safe because the reactor
    /// threads (via the handler factory) hold the only frame senders.
    pub fn wait(mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        if let Some(reactor) = self.reactor.take() {
            reactor.join();
        }
        if let Some(services) = self.services.take() {
            services.join();
        }
        if let Some(dispatcher) = self.dispatcher.take() {
            dispatcher.shutdown();
        }
        if let Some(metrics) = self.metrics.take() {
            let _ = metrics.join();
        }
        if self.shared.log {
            eprintln!("charfree-serve: drained, exiting");
        }
    }
}

/// Triggers a graceful drain of the server it was taken from; see
/// [`Server::drain_handle`].
#[derive(Clone)]
pub struct DrainHandle(Arc<Shared>);

impl DrainHandle {
    /// Flips the draining flag and wakes the acceptor.
    pub fn request_drain(&self) {
        begin_drain(&self.0);
    }

    /// Whether the server is already draining.
    pub fn is_draining(&self) -> bool {
        self.0.draining.load(Ordering::SeqCst)
    }
}

/// SIGTERM/SIGINT → graceful drain, without a libc dependency: the
/// handler only sets an atomic flag (the sole async-signal-safe thing a
/// Rust handler can soundly do), and a watcher thread polls the flag
/// and runs the actual drain from normal thread context.
#[cfg(unix)]
mod signal_drain {
    use super::DrainHandle;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Once;
    use std::time::Duration;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    static REQUESTED: AtomicBool = AtomicBool::new(false);
    static INSTALL: Once = Once::new();

    extern "C" fn on_signal(_signum: i32) {
        REQUESTED.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    pub(super) fn install(handle: DrainHandle) {
        INSTALL.call_once(|| unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        });
        let _ = std::thread::Builder::new()
            .name("charfree-serve-signal".to_owned())
            .spawn(move || loop {
                if REQUESTED.load(Ordering::SeqCst) {
                    handle.request_drain();
                    return;
                }
                if handle.is_draining() {
                    return; // drained by other means; nothing to watch
                }
                std::thread::sleep(Duration::from_millis(100));
            });
    }
}

pub(crate) fn begin_drain(shared: &Shared) {
    if !shared.draining.swap(true, Ordering::SeqCst) {
        // Nudge the blocking accept() awake; the loop re-checks the flag
        // before handling what it accepted.
        let _ = TcpStream::connect(shared.addr);
        if let Some(reactor) = shared.reactor.get() {
            reactor.drain();
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    reactor: &ReactorHandle<Completion>,
    max_connections: usize,
) {
    for stream in listener.incoming() {
        if shared.draining.load(Ordering::SeqCst) {
            break;
        }
        let stream = match stream {
            Ok(stream) => stream,
            Err(_) => continue,
        };
        if shared.live_connections() >= max_connections as u64 {
            shared.stats.record_shed();
            let line = Response::Error {
                kind: ErrorKind::Overloaded,
                message: format!("connection limit ({max_connections}) reached"),
                retry_after_ms: Some(RETRY_AFTER_MS),
            }
            .to_line();
            let mut stream = stream;
            let _ = stream.set_write_timeout(Some(REJECT_WRITE_TIMEOUT));
            let _ = writeln!(stream, "{line}");
            continue;
        }
        // Count before registering: the reactor guarantees exactly one
        // close record per registration, so live never underflows.
        shared.registered.fetch_add(1, Ordering::SeqCst);
        reactor.register(stream);
    }
}

/// The dedicated metrics listener: accept, answer one `GET /metrics`,
/// close. Nonblocking accept with a short sleep so the thread notices
/// drain promptly without a wake channel.
fn metrics_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => serve_metrics_conn(stream, shared),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if shared.draining.load(Ordering::SeqCst) {
                    return;
                }
                thread::sleep(Duration::from_millis(50));
            }
            Err(_) => {
                if shared.draining.load(Ordering::SeqCst) {
                    return;
                }
                thread::sleep(Duration::from_millis(50));
            }
        }
    }
}

fn serve_metrics_conn(mut stream: TcpStream, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    while !buf.contains(&b'\n') && buf.len() <= 8192 {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => break,
        }
    }
    let text = String::from_utf8_lossy(&buf);
    let mut parts = text.lines().next().unwrap_or("").split_whitespace();
    let body = match (parts.next(), parts.next()) {
        (Some("GET"), Some("/metrics")) => {
            metrics::http_response(&metrics::render(&shared.snapshot()))
        }
        _ => metrics::http_not_found(),
    };
    let _ = stream.write_all(body.as_bytes());
}

pub(crate) fn error(kind: ErrorKind, message: impl Into<String>) -> Response {
    Response::Error {
        kind,
        message: message.into(),
        retry_after_ms: None,
    }
}

/// The per-request work cap (`--max-vectors`): admission control counts
/// requests, not work, so this bounds the patterns one request can pin.
pub(crate) fn check_vectors(shared: &Shared, vectors: usize) -> Result<(), Response> {
    if vectors <= shared.max_vectors {
        return Ok(());
    }
    Err(error(
        ErrorKind::BadRequest,
        format!(
            "vectors={vectors} exceeds this server's per-request cap ({}); split the request or \
             restart with a larger --max-vectors",
            shared.max_vectors
        ),
    ))
}

/// A request's pattern stream, generated exactly as the offline CLI
/// does: a Markov source over `inputs` primary inputs, at least two
/// patterns.
pub(crate) fn markov_patterns(
    inputs: usize,
    params: &WireEvalParams,
) -> Result<Vec<Vec<bool>>, String> {
    MarkovSource::new(inputs, params.sp, params.st, params.seed)
        .map(|mut markov| markov.sequence(params.vectors.max(2)))
        .map_err(|e| e.to_string())
}

fn map_pipeline_error(err: &PipelineError) -> ErrorKind {
    match err {
        PipelineError::Build(_) => ErrorKind::BuildFailed,
        PipelineError::Unsupported(_) => ErrorKind::Unsupported,
        PipelineError::Io { .. } | PipelineError::Parse { .. } | PipelineError::UnknownInput(_) => {
            ErrorKind::BadRequest
        }
    }
}

/// Registry key: the source operand plus every model-*shaping* option.
/// `deadline_ms` is deliberately excluded — it is a per-request wall
/// clock, not a model parameter, and keying on it would fragment
/// residency across otherwise-identical builds. (Deadline-bounded builds
/// are also never *inserted*; see [`resolve`].) A sequential design's
/// key adds a `\0seq` suffix; every combinational key ends in its
/// `strict=` option, so no source operand makes the two kinds collide.
fn registry_key(source: &str, options: &WireBuildOptions) -> String {
    format!(
        "{source}\0max_nodes={:?}\0upper_bound={}\0node_budget={:?}\0strict={}",
        options.max_nodes, options.upper_bound, options.node_budget, options.strict,
    )
}

/// A build context over the server's library, cross-build structural
/// table and (when attached) artifact store.
fn pipeline_ctx(shared: &Shared) -> PipelineCtx {
    let ctx = PipelineCtx::new(shared.library.clone())
        .with_shared_table(Arc::clone(&shared.shared_table));
    match &shared.store {
        Some(store) => ctx.with_store(store.clone()),
        None => ctx,
    }
}

fn build_options(options: &WireBuildOptions) -> BuildOptions {
    BuildOptions {
        max_nodes: options.max_nodes,
        upper_bound: options.upper_bound,
        node_budget: options.node_budget,
        strict: options.strict,
        time_budget: options.deadline_ms.map(Duration::from_millis),
        ..BuildOptions::default()
    }
}

/// Resolves a registry key to its resident model, building it with
/// `build` on a miss. Returns the model, the ADD apply steps this call
/// performed (0 for warm paths) and whether it was already resident.
fn resolve(
    shared: &Shared,
    key: &str,
    options: &WireBuildOptions,
    build: impl FnOnce(&mut PipelineCtx) -> Result<Resident, Response>,
) -> Result<(Resident, u64, bool), Response> {
    if let Some(model) = shared.registry.get(key) {
        return Ok((model, 0, true));
    }
    // Circuit breaker: a model whose builds keep failing is refused
    // *before* the build lock, so doomed work cannot queue behind it.
    // An expired open window lets exactly one probe through.
    match shared.breaker.admit(key) {
        BreakerDecision::Allow => {}
        BreakerDecision::Deny { retry_after_ms } => {
            shared.stats.record_breaker_denial();
            return Err(Response::Error {
                kind: ErrorKind::ModelUnavailable,
                message: "model build circuit is open after repeated build failures".to_owned(),
                retry_after_ms: Some(retry_after_ms),
            });
        }
    }
    // Serialize builds per registry shard: concurrent requests for the
    // same cold model would otherwise burn a full symbolic construction
    // each, while models hashing to *different* shards build in
    // parallel.
    let _build = shared
        .registry
        .build_lock(key)
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    if let Some(model) = shared.registry.get(key) {
        return Ok((model, 0, true));
    }
    let mut ctx = pipeline_ctx(shared).with_options(build_options(options));
    // Deadline-bounded builds are timing-dependent (the degradation
    // point depends on wall clock — same reason `BuildOptions::cacheable`
    // bypasses the artifact store): their failures never feed the
    // breaker, and their results serve this request only, never becoming
    // the registry-resident model for the key.
    let deterministic = options.deadline_ms.is_none();
    let model = build(&mut ctx).inspect_err(|_| {
        if deterministic {
            shared.breaker.record_failure(key);
        }
    })?;
    if deterministic {
        shared.breaker.record_success(key);
        shared.registry.insert(key, model.clone());
    }
    Ok((model, ctx.apply_steps(), false))
}

/// Resolves a combinational model operand to its registry-resident
/// kernel (see [`resolve`]).
pub(crate) fn resolve_kernel(
    shared: &Shared,
    source: &str,
    options: &WireBuildOptions,
) -> Result<(Arc<Kernel>, u64, bool), Response> {
    let key = registry_key(source, options);
    let (model, applied, resident) = resolve(shared, &key, options, |ctx| {
        ctx.kernel_for(&Source::infer(source))
            .map(|kernel| Resident::Comb(Arc::new(kernel)))
            .map_err(|e| error(map_pipeline_error(&e), e.to_string()))
    })?;
    let Resident::Comb(kernel) = model else {
        unreachable!("combinational keys hold kernels only");
    };
    Ok((kernel, applied, resident))
}

pub(crate) fn do_load(shared: &Shared, source: &str, options: &WireBuildOptions) -> Response {
    match resolve_kernel(shared, source, options) {
        Ok((kernel, applied, resident)) => Response::Load {
            name: kernel.name().to_owned(),
            instrs: kernel.num_instrs(),
            terminals: kernel.num_terminals(),
            bytes: kernel.bytes(),
            apply_steps: applied,
            resident,
        },
        Err(response) => response,
    }
}

/// Resolves a sequential design to its registry-resident [`SeqModel`]
/// (see [`resolve`]). Sequential sources are BLIF netlist files only:
/// compiled artifacts and built-in benchmarks are combinational by
/// construction.
fn resolve_seq_model(
    shared: &Shared,
    source: &str,
    options: &WireBuildOptions,
) -> Result<(Arc<SeqModel>, u64, bool), Response> {
    match Source::infer(source) {
        Source::NetlistFile(_) if !source.ends_with(".v") && !source.ends_with(".sv") => {}
        _ => {
            return Err(error(
                ErrorKind::Unsupported,
                "sequential designs load from BLIF netlist files only (`.latch` lives in BLIF); \
                 compiled artifacts and built-in benchmarks are combinational",
            ));
        }
    }
    let key = registry_key(source, options) + "\0seq";
    let (model, applied, resident) = resolve(shared, &key, options, |ctx| {
        let text = std::fs::read_to_string(source).map_err(|e| {
            error(
                ErrorKind::BadRequest,
                format!("cannot read `{source}`: {e}"),
            )
        })?;
        let seq = blif::parse_seq(&text)
            .map_err(|e| error(ErrorKind::BadRequest, format!("{source}: {e}")))?;
        SeqModel::build(ctx, seq)
            .map(|model| Resident::Seq(Arc::new(model)))
            .map_err(|e| error(map_pipeline_error(&e), e.to_string()))
    })?;
    let Resident::Seq(model) = model else {
        unreachable!("`seq`-suffixed keys hold sequential designs only");
    };
    Ok((model, applied, resident))
}

pub(crate) fn do_seq_load(shared: &Shared, source: &str, options: &WireBuildOptions) -> Response {
    match resolve_seq_model(shared, source, options) {
        Ok((model, applied, resident)) => {
            let report = model.build_report();
            Response::SeqLoad {
                name: model.name().to_owned(),
                macros: model.num_macros(),
                latches: model.seq().latches().len(),
                instrs: report.macros.iter().map(|m| m.instrs).sum(),
                bytes: model.bytes(),
                apply_steps: applied,
                // A resident hit did no artifact lookups.
                cache_hits: if resident {
                    0
                } else {
                    report.cache_hits as u64
                },
                resident,
            }
        }
        Err(response) => response,
    }
}

pub(crate) fn do_seq_eval(
    shared: &Shared,
    source: &str,
    options: &WireBuildOptions,
    params: &WireEvalParams,
) -> Response {
    if let Err(response) = check_vectors(shared, params.vectors) {
        return response;
    }
    // The request deadline bounds a cold build exactly like `eval` (and
    // keeps that build out of the registry).
    let build_options = WireBuildOptions {
        deadline_ms: params.deadline_ms,
        ..options.clone()
    };
    let (model, _, _) = match resolve_seq_model(shared, source, &build_options) {
        Ok(resolved) => resolved,
        Err(response) => return response,
    };
    let patterns = match markov_patterns(model.num_inputs(), params) {
        Ok(patterns) => patterns,
        Err(message) => return error(ErrorKind::BadRequest, message),
    };
    let summary = model.eval_fused(&patterns);
    Response::SeqEval {
        name: model.name().to_owned(),
        transitions: summary.total.transitions,
        sum_ff: summary.total.sum_ff,
        max_ff: summary.total.max_ff,
        macros: summary
            .per_macro
            .iter()
            .map(|m| WireMacroSummary {
                name: m.name.clone(),
                sum_ff: m.summary.sum_ff,
                max_ff: m.summary.max_ff,
            })
            .collect(),
    }
}

pub(crate) fn do_expected(shared: &Shared, source: &str, sp: f64, st: f64) -> Response {
    // The analytic chain measure asserts feasibility; validate here so a
    // bad request gets a typed error instead of panicking a service
    // thread. (Same stationarity bound as the Markov pattern source.)
    if !(sp > 0.0 && sp < 1.0) {
        return error(ErrorKind::BadRequest, format!("sp={sp} must be in (0,1)"));
    }
    if !(0.0..=1.0).contains(&st) || st > 2.0 * sp.min(1.0 - sp) {
        return error(
            ErrorKind::BadRequest,
            format!("infeasible (sp={sp}, st={st}): st must be at most 2*min(sp, 1-sp)"),
        );
    }
    let (kernel, _, _) = match resolve_kernel(shared, source, &WireBuildOptions::default()) {
        Ok(resolved) => resolved,
        Err(response) => return response,
    };
    let value = if kernel.is_interleaved() {
        kernel.expected_capacitance(sp, st)
    } else if matches!(Source::infer(source), Source::KernelFile(_)) {
        return error(
            ErrorKind::Unsupported,
            "grouped-ordering kernels cannot evaluate expectations; pass the `.cfm` model instead",
        );
    } else {
        // Mirror the CLI fallback: grouped-ordering pair correlation is
        // not chain-expressible on the kernel, so go through the arena
        // model (a warm artifact hit when a store is attached).
        match pipeline_ctx(shared).model_for(&Source::infer(source)) {
            Ok(model) => model.expected_capacitance(sp, st).femtofarads(),
            Err(e) => return error(map_pipeline_error(&e), e.to_string()),
        }
    };
    Response::Expected {
        name: kernel.name().to_owned(),
        value,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Client, Request};
    use charfree_netlist::benchmarks::committed::SEQPIPE2;

    /// A second register-bounded design (stage 1 reads stage 2's state).
    const PIPE2: &str = "\
.model pipe2
.inputs a b
.outputs y
.gate xor2 a=a b=q2 O=s1
.gate and2 a=s1 b=b O=d1
.latch d1 q1 0
.gate or2 a=q1 b=a O=y
.gate inv a=y O=d2
.latch d2 q2 1
.end
";

    fn seq_bytes(text: &str) -> usize {
        let seq = blif::parse_seq(text).expect("parses");
        let mut ctx = PipelineCtx::new(Library::test_library());
        SeqModel::build(&mut ctx, seq).expect("builds").bytes()
    }

    fn seq_key(path: &str) -> String {
        registry_key(path, &WireBuildOptions::default()) + "\0seq"
    }

    fn seqload(client: &mut Client, source: &str) -> (bool, u64) {
        let request = Request::SeqLoad {
            source: source.to_owned(),
            options: WireBuildOptions::default(),
        };
        match client.request(&request).expect("seqload") {
            Response::SeqLoad {
                resident,
                apply_steps,
                ..
            } => (resident, apply_steps),
            other => panic!("unexpected seqload response {other:?}"),
        }
    }

    #[test]
    fn sequential_designs_share_the_byte_budget_and_evict_by_lru() {
        let dir = std::env::temp_dir().join(format!("charfree-seq-evict-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        // Both designs must route to the same registry shard for one to
        // displace the other.
        let shards = ShardedRegistry::new(ShardedRegistry::DEFAULT_SHARDS, 1);
        let path = |tag: &str, i: usize| dir.join(format!("{tag}{i}.blif")).display().to_string();
        let first = path("a", 0);
        let shard = shards.shard_index(&seq_key(&first));
        let second = (0..10_000)
            .map(|i| path("b", i))
            .find(|p| shards.shard_index(&seq_key(p)) == shard)
            .expect("a same-shard path");
        std::fs::write(&first, PIPE2).expect("writes");
        std::fs::write(&second, SEQPIPE2).expect("writes");
        let (a, b) = (seq_bytes(PIPE2), seq_bytes(SEQPIPE2));

        // Each shard's share of the budget holds either design, not both.
        let mut config = ServeConfig::new(Library::test_library());
        config.addr = "127.0.0.1:0".to_owned();
        config.log = false;
        config.cache_dir = Some(dir.join("cache"));
        config.model_bytes_budget = ShardedRegistry::DEFAULT_SHARDS * a.max(b);
        let server = Server::start(config).expect("binds");
        let mut client = Client::connect(&server.addr().to_string()).expect("connects");

        assert!(!seqload(&mut client, &first).0, "cold");
        assert!(!seqload(&mut client, &second).0, "cold");
        let registry = &server.shared.registry;
        let (entries, bytes, _, _, evictions) = registry.stats();
        assert_eq!(
            (entries, bytes, evictions),
            (1, b, 1),
            "the first design was evicted"
        );
        assert_eq!(registry.seq_stats(), (1, 2));
        registry.verify_ledger().expect("ledger sums exactly");

        // Reloading the evicted design is a registry miss served warm
        // from the artifact store.
        assert_eq!(seqload(&mut client, &first), (false, 0));
        let (entries, bytes, _, _, evictions) = registry.stats();
        assert_eq!((entries, bytes, evictions), (1, a, 2));
        registry.verify_ledger().expect("ledger sums exactly");

        client.request(&Request::Shutdown).expect("shutdown");
        server.wait();
        let _ = std::fs::remove_dir_all(dir);
    }
}
