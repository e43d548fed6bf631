//! The TCP server: reactor front end, service pool, admission control
//! and graceful drain.
//!
//! Threading model: N reactor shard threads (crate `charfree-net`, epoll
//! edge-triggered) own the listening sockets and all connection I/O and
//! framing; a fixed service pool parses requests, runs admission and
//! model resolution, and submits dispatcher jobs whose replies post
//! encoded responses back to the owning shard (see `frontend`); the
//! dispatcher's worker pool ([`crate::batch`]) draws every request's
//! patterns and evaluates (`eval`, `trace`, `tracep` and `seqeval`
//! alike), each worker gathering its own batch window, which is what
//! lets requests from different sockets share 64-lane pattern blocks.
//! Service threads and batch workers run under one supervision loop, so
//! a panic costs its own request a typed `internal` error and nothing
//! else. No thread is ever parked per connection.
//!
//! Admission control is two-layered: a connection cap at accept time
//! (64 live connections, read off the reactor's lock-free counters) and
//! a request-level in-flight cap (`max_inflight`) enforced with a single
//! atomic. Both shed with typed `overloaded` responses carrying
//! `retry_after_ms`; nothing blocks behind an unbounded queue.
//!
//! Drain (`shutdown` request or SIGTERM): the draining flag flips, the
//! reactor closes its listeners, finishes in-flight requests and closes
//! its connections, and [`Server::wait`] joins reactor → service pool →
//! dispatcher — every accepted request completes, no new work is
//! admitted.

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use charfree_engine::Kernel;
use charfree_net::{
    Handler, HandlerFactory, NetCounters, Reactor, ReactorConfig, ReactorHandle, StreamTap,
    TapFault, Token,
};
use charfree_netlist::Library;
use charfree_pipeline::{ArtifactStore, FaultIo, PipelineCtx, Source, StreamFault, StreamOp};
use charfree_seq::SeqModel;

use crate::batch::{Dispatcher, Pool};
use crate::frontend::{self, Completion, Frontend, Mode, Rejected, SvcRequest};
use crate::handler::{self, build_options, build_seq, pipeline_error, ModelSource, Resolved};
use crate::proto::{ErrorKind, Response, WireBuildOptions};
use crate::registry::{Resident, ShardedRegistry};
use crate::stats::{Counters, ServerStats};
use crate::supervisor::{BreakerConfig, BreakerDecision, CircuitBreaker};

/// Longest tolerated request line (a `trace` request is short; this only
/// guards against garbage streams growing the buffer without bound).
pub(crate) const MAX_LINE_BYTES: usize = 1 << 20;

/// Suggested client backoff when a request is shed.
pub(crate) const RETRY_AFTER_MS: u64 = 25;

/// Concurrent request-connection cap: a request connection past it gets
/// one `overloaded` line and is closed. `--metrics-addr` connections are
/// never refused, but while open they count toward the live total.
pub(crate) const MAX_CONNECTIONS: usize = 64;

/// Service threads between the reactor and the dispatcher (parse,
/// admission, model resolution, `load`/`seqload`/`expected` and the
/// control plane).
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
    /// Largest `vectors` a single `eval`/`trace`/`seqeval` request may
    /// ask for.
    /// Admission control counts requests, not work; this caps the work
    /// (pattern storage and, for `trace`, response size) one request can
    /// pin, so a single `vectors=10^10` line cannot OOM the server.
    pub max_vectors: usize,
    /// Registry byte budget for resident models, combinational kernels
    /// and sequential designs alike. It is split evenly over the
    /// registry's shards, and each shard evicts LRU within its own share
    /// (see [`ShardedRegistry::new`]).
    pub model_bytes_budget: usize,
    /// Cell library models are built against.
    pub library: Library,
    /// Content-addressed artifact store directory (warm loads skip the
    /// symbolic build entirely).
    pub cache_dir: Option<PathBuf>,
    /// Per-connection inactivity cutoff (slow-loris guard; a connection
    /// with a request in flight is never idle-closed).
    pub idle_timeout: Duration,
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
    pub(crate) registry: ShardedRegistry,
    pub(crate) stats: Arc<ServerStats>,
    pub(crate) inflight: AtomicUsize,
    pub(crate) max_inflight: usize,
    pub(crate) max_vectors: usize,
    pub(crate) draining: AtomicBool,
    pub(crate) breaker: CircuitBreaker,
    pub(crate) log: bool,
    /// The reactor's counters (accepts, bytes, closes).
    net: Arc<NetCounters>,
    /// Set once the reactor is up; `None` only during startup.
    reactor: OnceLock<ReactorHandle<Completion>>,
}

impl Shared {
    pub(crate) fn log_line(&self, token: Token, msg: &str) {
        if self.log {
            eprintln!("charfree-serve: conn={token:#x} {msg}");
        }
    }

    /// The counter table — the one source for `stats`, `metrics` and
    /// HTTP.
    pub(crate) fn snapshot(&self) -> Counters {
        self.stats.snapshot(
            &self.registry,
            &self.breaker,
            &self.net,
            self.registry.seq_stats(),
        )
    }
}

/// Owned RAII slot in the request-level admission window. Owned (not
/// borrowed) so it can ride inside a request's reply across the
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
    reactor: Reactor<Completion>,
    services: Pool,
    dispatcher: Dispatcher,
    pub(crate) shared: Arc<Shared>,
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
        let metrics_listener = config
            .metrics_addr
            .as_deref()
            .map(TcpListener::bind)
            .transpose()?;
        let metrics_addr = metrics_listener
            .as_ref()
            .map(TcpListener::local_addr)
            .transpose()?;
        let stats = Arc::new(ServerStats::new());
        let store = config.cache_dir.as_ref().map(|dir| {
            let store = ArtifactStore::new(dir);
            match &config.fault_io {
                Some(io) => store.with_io(Arc::clone(io)),
                None => store,
            }
        });
        // Startup recovery: scan the cache directory, remove stray temp
        // files and quarantine torn entries — before the first request
        // can warm-load anything.
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
            net: Arc::new(NetCounters::default()),
            reactor: OnceLock::new(),
        });
        let dispatcher = Dispatcher::start(
            config.jobs.max(1),
            config.batch_window,
            shared.max_inflight,
            stats,
        );

        // Service queue: sized so that every connection can have one
        // request queued before the front end sheds.
        let svc_cap = MAX_CONNECTIONS.max(config.max_inflight);
        let (svc_tx, svc_rx) = sync_channel::<SvcRequest>(svc_cap);

        // One factory per listener. It runs in accept order, so `live`
        // counts the connections opened before this one; only request
        // connections meet the cap, `--metrics-addr` scrapes never do.
        let factory = |mode: Mode| -> Arc<HandlerFactory<Completion>> {
            let (shared, svc) = (Arc::clone(&shared), svc_tx.clone());
            Arc::new(move || {
                let capped = matches!(mode, Mode::Detecting);
                if capped && shared.net.live() >= MAX_CONNECTIONS as u64 {
                    shared.stats.record_shed();
                    return Box::new(Rejected) as Box<dyn Handler<Completion>>;
                }
                Box::new(Frontend::new(Arc::clone(&shared), svc.clone(), mode))
            })
        };
        let mut listeners = vec![(listener, factory(Mode::Detecting))];
        listeners.extend(metrics_listener.map(|l| (l, factory(Mode::Http))));
        let tap = config
            .fault_io
            .as_ref()
            .map(|io| Arc::new(FaultTap(Arc::clone(io))) as Arc<dyn StreamTap>);
        let reactor = Reactor::start(
            ReactorConfig {
                shards: config.reactor_threads.max(1),
                idle_timeout: config.idle_timeout,
            },
            listeners,
            Arc::clone(&shared.net),
            tap,
        )?;
        let _ = shared.reactor.set(reactor.handle());

        let services = frontend::service_pool(
            SERVICE_THREADS,
            svc_rx,
            &shared,
            dispatcher.handle(),
            reactor.mailbox(),
        )?;

        if shared.log {
            eprintln!("charfree-serve: listening on {addr}");
            if let Some(maddr) = metrics_addr {
                eprintln!("charfree-serve: metrics on http://{maddr}/metrics");
            }
        }
        Ok(Server {
            addr,
            metrics_addr,
            reactor,
            services,
            dispatcher,
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

    /// Flips the draining flag and drains the reactor, as if a
    /// `shutdown` request had arrived.
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

    /// Blocks until the server has fully drained: listeners closed, every
    /// connection closed, every accepted job flushed through the
    /// dispatcher.
    ///
    /// Join order matters: the reactor shards exit only once their
    /// connection slabs are empty, and a connection with a request in
    /// flight stays in the slab until its completion arrives — so
    /// joining the reactor transitively waits for the service pool and
    /// dispatcher to answer everything that was accepted. Joining the
    /// service pool after the reactor is safe because the handlers and
    /// the listeners' factories hold the only frame senders, and drain
    /// drops the factories.
    pub fn wait(self) {
        self.reactor.join();
        self.services.join();
        self.dispatcher.shutdown();
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
    /// Flips the draining flag and drains the reactor.
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
        if let Some(reactor) = shared.reactor.get() {
            reactor.drain();
        }
    }
}

pub(crate) fn error(kind: ErrorKind, message: impl Into<String>) -> Response {
    Response::Error {
        kind,
        message: message.into(),
        retry_after_ms: None,
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

/// A build context over the server's library and (when attached)
/// artifact store. Every build is independent of what the server built
/// before.
fn pipeline_ctx(shared: &Shared) -> PipelineCtx {
    let ctx = PipelineCtx::new(shared.library.clone());
    match &shared.store {
        Some(store) => ctx.with_store(store.clone()),
        None => ctx,
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

/// The served model source: the sharded registry, its circuit breaker
/// and the server's build context (see [`resolve`]).
impl ModelSource for &Shared {
    fn kernel(&mut self, source: &str, options: &WireBuildOptions) -> Resolved<Kernel> {
        let key = registry_key(source, options);
        let (model, applied, resident) = resolve(self, &key, options, |ctx| {
            ctx.kernel_for(&Source::infer(source))
                .map(|kernel| Resident::Comb(Arc::new(kernel)))
                .map_err(|e| pipeline_error(&e))
        })?;
        let Resident::Comb(kernel) = model else {
            unreachable!("combinational keys hold kernels only");
        };
        Ok((kernel, applied, resident))
    }

    fn seq_model(&mut self, source: &str, options: &WireBuildOptions) -> Resolved<SeqModel> {
        let key = registry_key(source, options) + "\0seq";
        let (model, applied, resident) = resolve(self, &key, options, |ctx| {
            build_seq(ctx, source)
                .map(|model| Resident::Seq(Arc::new(model)))
                .map_err(|e| pipeline_error(&e))
        })?;
        let Resident::Seq(model) = model else {
            unreachable!("`seq`-suffixed keys hold sequential designs only");
        };
        Ok((model, applied, resident))
    }
}

pub(crate) fn do_load(mut shared: &Shared, source: &str, options: &WireBuildOptions) -> Response {
    match shared.kernel(source, options) {
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

pub(crate) fn do_seq_load(
    mut shared: &Shared,
    source: &str,
    options: &WireBuildOptions,
) -> Response {
    match handler::seq_model(&mut shared, source, options) {
        Ok((model, applied, resident)) => {
            let report = model.build_report();
            Response::SeqLoad {
                name: model.name().to_owned(),
                macros: model.num_macros(),
                latches: model.seq().latches().len(),
                instrs: report.macros.iter().map(|m| m.instrs).sum(),
                bytes: report.macros.iter().map(|m| m.bytes).sum(),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Client, Request};
    use charfree_netlist::benchmarks::committed::SEQPIPE2;
    use charfree_netlist::blif;

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
