//! The reactor front end: protocol detection, framing, and the service
//! pool that turns frames into work.
//!
//! Threading: the reactor shard threads (crate `charfree-net`) do
//! nothing but framing — they sniff the protocol from the connection's
//! first byte (`{` or whitespace → JSON lines, `C` of `CFB1` → binary,
//! `G` of `GET ` → HTTP metrics; `--metrics-addr` connections start in
//! HTTP), slice complete JSON lines / binary
//! frames out of the read buffer, and hand them to the **service
//! pool**. Service threads parse, run admission control, resolve models
//! (cold symbolic builds happen here, never on an I/O thread) and either
//! answer directly or submit a dispatcher job whose [`ReplySink`] posts
//! the already-encoded response back to the owning shard through the
//! reactor [`Mailbox`].
//!
//! One request is in flight per connection at a time (responses are
//! answered in order); bytes a pipelining client sends early simply
//! accumulate in the connection buffer until the in-flight response
//! completes. A client that half-closes after its last request still
//! gets every response: EOF is deferred while a completion is pending.

use std::io;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use charfree_engine::Kernel;
use charfree_net::{CloseReason, ConnCtx, Handler, Mailbox, Token};

use crate::batch::{BatchHandle, Job, JobError, JobOutput, ReplySink};
use crate::handler::{self, ModelSource};
use crate::metrics;
use crate::proto::{ErrorKind, Request, Response, WireBuildOptions};
use crate::server::{self, InflightGuard, Shared, MAX_CONNECTIONS, MAX_LINE_BYTES, RETRY_AFTER_MS};
use crate::wire;

/// Longest tolerated HTTP request head before the connection is cut.
const MAX_HTTP_HEAD: usize = 8 * 1024;

/// A finished request on its way back to the connection: response bytes
/// already encoded for the connection's protocol, plus whether the
/// connection should close once they are flushed (`shutdown`'s ack).
pub(crate) struct Completion {
    bytes: Vec<u8>,
    close: bool,
}

/// Which wire encoding a connection (or one request on it) speaks.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Proto {
    Json,
    Binary,
}

/// Per-connection protocol state.
#[derive(Clone, Copy)]
pub(crate) enum Mode {
    /// Nothing decisive received yet: sniff the first byte.
    Detecting,
    /// First byte was `C`: waiting for the full 8-byte binary hello.
    Hello,
    /// Newline-delimited JSON requests.
    Json,
    /// Length-prefixed binary frames (hello negotiated).
    Binary,
    /// An HTTP request (metrics scrape); answer once and close.
    Http,
}

/// One framed request on its way to the service pool.
pub(crate) struct SvcRequest {
    token: Token,
    proto: Proto,
    received: Instant,
    raw: Raw,
}

enum Raw {
    Json(String),
    Binary { ty: u8, payload: Vec<u8> },
}

fn encode_response(proto: Proto, resp: &Response) -> Vec<u8> {
    match proto {
        Proto::Json => {
            let mut bytes = resp.to_line().into_bytes();
            bytes.push(b'\n');
            bytes
        }
        Proto::Binary => {
            let mut bytes = Vec::new();
            wire::encode_response(resp, &mut bytes);
            bytes
        }
    }
}

/// The per-connection [`Handler`]: a protocol state machine that only
/// frames — all parsing and evaluation happens off the shard thread.
pub(crate) struct Frontend {
    shared: Arc<Shared>,
    svc: SyncSender<SvcRequest>,
    mode: Mode,
    /// A request is with the service pool / dispatcher; frames buffer
    /// until its completion comes back.
    busy: bool,
    /// The peer half-closed while a request was in flight; close once
    /// the response has been written.
    eof_pending: bool,
}

impl Frontend {
    pub(crate) fn new(shared: Arc<Shared>, svc: SyncSender<SvcRequest>, mode: Mode) -> Frontend {
        Frontend {
            shared,
            svc,
            mode,
            busy: false,
            eof_pending: false,
        }
    }

    fn write_error(&self, conn: &mut ConnCtx<'_>, proto: Proto, kind: ErrorKind, message: String) {
        let resp = Response::Error {
            kind,
            message,
            retry_after_ms: None,
        };
        conn.write(&encode_response(proto, &resp));
    }

    fn pump(&mut self, conn: &mut ConnCtx<'_>) {
        loop {
            if conn.closing() {
                return;
            }
            match self.mode {
                Mode::Detecting => {
                    let ws = conn
                        .data()
                        .iter()
                        .take_while(|&&b| matches!(b, b' ' | b'\t' | b'\r' | b'\n'))
                        .count();
                    if ws > 0 {
                        conn.consume(ws);
                    }
                    let Some(&first) = conn.data().first() else {
                        return;
                    };
                    // Anything that is not a binary hello or an HTTP GET
                    // is treated as JSON lines — including garbage, which
                    // then gets a typed per-line `bad-request` without
                    // costing the connection.
                    self.mode = match first {
                        b'C' => Mode::Hello,
                        b'G' => Mode::Http,
                        _ => Mode::Json,
                    };
                }
                Mode::Hello => {
                    if conn.data().len() < 8 {
                        return;
                    }
                    let mut hello = [0u8; 8];
                    hello.copy_from_slice(&conn.data()[..8]);
                    conn.consume(8);
                    match wire::parse_hello(&hello) {
                        Ok((min, max)) if (min..=max).contains(&wire::VERSION) => {
                            conn.write(&wire::encode_hello_ack(wire::VERSION));
                            self.mode = Mode::Binary;
                        }
                        Ok((min, max)) => {
                            self.shared.stats.record_error();
                            conn.write(&wire::encode_hello_ack(0));
                            self.write_error(
                                conn,
                                Proto::Binary,
                                ErrorKind::Unsupported,
                                format!(
                                    "no common protocol version: server speaks {}, client \
                                     offered {min}..={max}",
                                    wire::VERSION
                                ),
                            );
                            conn.close(CloseReason::Protocol);
                            return;
                        }
                        Err(message) => {
                            self.shared.stats.record_error();
                            conn.write(&wire::encode_hello_ack(0));
                            self.write_error(conn, Proto::Binary, ErrorKind::BadRequest, message);
                            conn.close(CloseReason::Protocol);
                            return;
                        }
                    }
                }
                Mode::Json => {
                    self.pump_json(conn);
                    return;
                }
                Mode::Binary => {
                    self.pump_binary(conn);
                    return;
                }
                Mode::Http => {
                    self.pump_http(conn);
                    return;
                }
            }
        }
    }

    fn pump_json(&mut self, conn: &mut ConnCtx<'_>) {
        while !self.busy && !conn.closing() {
            let data = conn.data();
            let Some(nl) = data.iter().position(|&b| b == b'\n') else {
                if data.len() > MAX_LINE_BYTES {
                    self.shared.stats.record_error();
                    self.write_error(
                        conn,
                        Proto::Json,
                        ErrorKind::BadRequest,
                        format!("request line exceeds {MAX_LINE_BYTES} bytes"),
                    );
                    conn.close(CloseReason::Protocol);
                }
                return;
            };
            let mut line = &data[..nl];
            if line.last() == Some(&b'\r') {
                line = &line[..line.len() - 1];
            }
            let text = String::from_utf8_lossy(line).into_owned();
            conn.consume(nl + 1);
            if text.trim().is_empty() {
                continue;
            }
            self.dispatch(conn, Proto::Json, Raw::Json(text));
        }
    }

    fn pump_binary(&mut self, conn: &mut ConnCtx<'_>) {
        while !self.busy && !conn.closing() {
            match wire::try_frame(conn.data()) {
                Ok(None) => return,
                Ok(Some(frame)) => {
                    let ty = frame.ty;
                    let payload = conn.data()[frame.payload_start..frame.payload_end].to_vec();
                    conn.consume(frame.consumed);
                    self.dispatch(conn, Proto::Binary, Raw::Binary { ty, payload });
                }
                Err(message) => {
                    // Framing errors (hostile length prefix) are
                    // unrecoverable: the stream can no longer be trusted
                    // to be in sync, so answer once and close.
                    self.shared.stats.record_error();
                    self.write_error(conn, Proto::Binary, ErrorKind::BadRequest, message);
                    conn.close(CloseReason::Protocol);
                    return;
                }
            }
        }
    }

    fn pump_http(&mut self, conn: &mut ConnCtx<'_>) {
        let data = conn.data();
        let Some(nl) = data.iter().position(|&b| b == b'\n') else {
            if data.len() > MAX_HTTP_HEAD {
                conn.close(CloseReason::Protocol);
            }
            return;
        };
        let line = String::from_utf8_lossy(&data[..nl]).into_owned();
        let buffered = data.len();
        conn.consume(buffered);
        let answer = metrics::http_answer(&line, || self.shared.snapshot());
        conn.write(answer.as_bytes());
        conn.close(CloseReason::App);
    }

    fn dispatch(&mut self, conn: &mut ConnCtx<'_>, proto: Proto, raw: Raw) {
        let req = SvcRequest {
            token: conn.token(),
            proto,
            received: Instant::now(),
            raw,
        };
        match self.svc.try_send(req) {
            Ok(()) => {
                self.busy = true;
                conn.touch();
            }
            Err(TrySendError::Full(_)) => {
                // Pre-admission shed: the service queue is sized to the
                // connection cap, so this only fires under pathological
                // pile-up. Typed, retriable, and the connection lives on.
                self.shared.stats.record_shed();
                self.shared.stats.record_error();
                let resp = Response::Error {
                    kind: ErrorKind::Overloaded,
                    message: "service queue full".to_owned(),
                    retry_after_ms: Some(RETRY_AFTER_MS),
                };
                conn.write(&encode_response(proto, &resp));
            }
            Err(TrySendError::Disconnected(_)) => conn.close(CloseReason::App),
        }
    }
}

impl Handler<Completion> for Frontend {
    fn on_data(&mut self, conn: &mut ConnCtx<'_>) {
        self.pump(conn);
    }

    fn on_message(&mut self, msg: Completion, conn: &mut ConnCtx<'_>) {
        self.busy = false;
        conn.write(&msg.bytes);
        conn.touch();
        if msg.close {
            conn.close(CloseReason::App);
            return;
        }
        if conn.draining() {
            conn.close(CloseReason::Drain);
            return;
        }
        self.pump(conn);
        if !self.busy && self.eof_pending && !conn.closing() {
            conn.close(CloseReason::Eof);
        }
    }

    fn on_eof(&mut self, conn: &mut ConnCtx<'_>) {
        if self.busy {
            // Half-close with a request in flight: finish it first.
            self.eof_pending = true;
        } else {
            conn.close(CloseReason::Eof);
        }
    }

    fn on_drain(&mut self, conn: &mut ConnCtx<'_>) {
        // A busy connection finishes its in-flight request; the
        // completion path re-checks the draining flag and closes.
        if !self.busy {
            conn.close(CloseReason::Drain);
        }
    }

    fn on_idle(&mut self, conn: &mut ConnCtx<'_>) {
        if self.busy {
            // The server, not the client, is the slow party.
            conn.touch();
            return;
        }
        self.shared.stats.record_idle_timeout();
        let proto = match self.mode {
            Mode::Binary => Proto::Binary,
            _ => Proto::Json,
        };
        let message = "idle timeout: no request arrived within the idle window".to_owned();
        self.write_error(conn, proto, ErrorKind::Timeout, message);
        conn.close(CloseReason::Idle);
    }
}

/// A request connection past [`MAX_CONNECTIONS`]: one typed, retriable
/// `overloaded` line, then close. The shard writes it without blocking;
/// the write-stall timeout cuts a peer that never reads.
pub(crate) struct Rejected;

impl Handler<Completion> for Rejected {
    fn on_open(&mut self, conn: &mut ConnCtx<'_>) {
        let resp = Response::Error {
            kind: ErrorKind::Overloaded,
            message: format!("connection limit ({MAX_CONNECTIONS}) reached"),
            retry_after_ms: Some(RETRY_AFTER_MS),
        };
        conn.write(&encode_response(Proto::Json, &resp));
        conn.close(CloseReason::App);
    }

    fn on_data(&mut self, _conn: &mut ConnCtx<'_>) {}

    fn on_message(&mut self, _msg: Completion, _conn: &mut ConnCtx<'_>) {}
}

// ---- service pool ---------------------------------------------------

/// The fixed pool of service threads between the reactor and the
/// dispatcher.
pub(crate) struct ServicePool {
    threads: Vec<thread::JoinHandle<()>>,
}

impl ServicePool {
    /// Spawns `threads` service workers draining `rx`.
    pub(crate) fn start(
        threads: usize,
        rx: Receiver<SvcRequest>,
        shared: &Arc<Shared>,
        batch: &BatchHandle,
        mailbox: &Mailbox<Completion>,
    ) -> io::Result<ServicePool> {
        let rx = Arc::new(Mutex::new(rx));
        let mut pool = Vec::with_capacity(threads.max(1));
        for i in 0..threads.max(1) {
            let rx = Arc::clone(&rx);
            let shared = Arc::clone(shared);
            let batch = batch.clone();
            let mailbox = mailbox.clone();
            pool.push(
                thread::Builder::new()
                    .name(format!("charfree-serve-svc-{i}"))
                    .spawn(move || service_loop(&rx, &shared, &batch, &mailbox))?,
            );
        }
        Ok(ServicePool { threads: pool })
    }

    /// Joins the pool; every frame sender (the reactor) must already be
    /// gone, or this blocks.
    pub(crate) fn join(mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

fn service_loop(
    rx: &Mutex<Receiver<SvcRequest>>,
    shared: &Arc<Shared>,
    batch: &BatchHandle,
    mailbox: &Mailbox<Completion>,
) {
    loop {
        // Hold the lock only for the receive, so a slow request does not
        // serialize the pool.
        let req = {
            let rx = rx.lock().unwrap_or_else(|e| e.into_inner());
            rx.recv()
        };
        match req {
            Ok(req) => handle_request(req, shared, batch, mailbox),
            Err(_) => return, // reactor gone and the queue drained
        }
    }
}

/// One request's way back to its connection: the protocol to answer in
/// and the command to log it as. Owned, so it can ride inside an async
/// reply sink across the dispatcher queue.
struct Reply {
    shared: Arc<Shared>,
    mailbox: Mailbox<Completion>,
    token: Token,
    proto: Proto,
    received: Instant,
    cmd: &'static str,
}

impl Reply {
    /// Records the outcome, logs it, and posts the encoded response back
    /// to the connection's shard; `close` closes the connection once the
    /// response is flushed (`shutdown`'s ack).
    fn finish(self, response: Response, close: bool) {
        let latency_us = self.received.elapsed().as_micros() as u64;
        let status = match &response {
            Response::Error { kind, .. } => {
                self.shared.stats.record_error();
                kind.name()
            }
            _ => {
                self.shared.stats.record_completed(latency_us);
                "ok"
            }
        };
        self.shared.log_line(
            self.token,
            &format!("cmd={} status={status} latency_us={latency_us}", self.cmd),
        );
        let bytes = encode_response(self.proto, &response);
        self.mailbox.post(self.token, Completion { bytes, close });
    }

    fn send(self, response: Response) {
        self.finish(response, false);
    }
}

fn overloaded_response(shared: &Shared) -> Response {
    shared.stats.record_shed();
    Response::Error {
        kind: ErrorKind::Overloaded,
        message: format!("{} requests in flight", shared.max_inflight),
        retry_after_ms: Some(RETRY_AFTER_MS),
    }
}

/// Runs `work` inside the request-level admission window; the slot is
/// released as soon as the response exists.
fn admitted(shared: &Arc<Shared>, work: impl FnOnce() -> Response) -> Response {
    match server::try_admit(shared) {
        Some(_guard) => work(),
        None => overloaded_response(shared),
    }
}

fn handle_request(
    req: SvcRequest,
    shared: &Arc<Shared>,
    batch: &BatchHandle,
    mailbox: &Mailbox<Completion>,
) {
    let mut reply = Reply {
        shared: Arc::clone(shared),
        mailbox: mailbox.clone(),
        token: req.token,
        proto: req.proto,
        received: req.received,
        cmd: "?",
    };
    let parsed = match req.raw {
        Raw::Json(line) => Request::parse_line(&line),
        Raw::Binary { ty, payload } => wire::decode_request(ty, &payload),
    };
    let request = match parsed {
        Ok(request) => request,
        Err(message) => return reply.send(server::error(ErrorKind::BadRequest, message)),
    };
    reply.cmd = request.cmd();
    shared.stats.record_accepted(request.kind());
    if shared.draining.load(Ordering::SeqCst) && !matches!(request, Request::Shutdown) {
        return reply.send(server::error(ErrorKind::Draining, "server is draining"));
    }
    // stats/metrics/shutdown are control-plane: they bypass the
    // admission window so an overloaded server can still be observed
    // and drained.
    let want_values = matches!(request, Request::Trace { .. });
    match request {
        Request::Stats => reply.send(Response::Stats(shared.snapshot().to_json())),
        Request::Metrics => reply.send(Response::Metrics(metrics::render(&shared.snapshot()))),
        Request::Shutdown => {
            reply.finish(Response::Shutdown, true);
            server::begin_drain(shared);
        }
        Request::Load { source, options } => {
            reply.send(admitted(shared, || {
                server::do_load(shared, &source, &options)
            }));
        }
        Request::Expected { source, sp, st } => reply.send(admitted(shared, || {
            handler::expected(&mut &**shared, &source, sp, st).unwrap_or_else(|e| e)
        })),
        Request::SeqLoad { source, options } => {
            reply.send(admitted(shared, || {
                server::do_seq_load(shared, &source, &options)
            }));
        }
        Request::SeqEval {
            source,
            options,
            params,
        } => reply.send(admitted(shared, || {
            server::check_vectors(shared, params.vectors)
                .and_then(|()| handler::seq_eval(&mut &**shared, &source, &options, &params))
                .unwrap_or_else(|e| e)
        })),
        Request::Eval {
            source,
            options,
            params,
        }
        | Request::Trace {
            source,
            options,
            params,
        } => {
            let markov = |kernel: &Kernel| handler::markov_patterns(kernel.num_inputs(), &params);
            let (deadline_ms, vectors) = (params.deadline_ms, params.vectors);
            start_batch(
                reply,
                batch,
                &source,
                &options,
                deadline_ms,
                vectors,
                want_values,
                markov,
            );
        }
        Request::TraceDirect {
            source,
            options,
            patterns,
            deadline_ms,
        } => {
            if patterns.len() < 2 {
                let message = "tracep needs at least two patterns (transitions are pattern pairs)";
                return reply.send(server::error(ErrorKind::BadRequest, message));
            }
            let vectors = patterns.len();
            let checked = move |kernel: &Kernel| {
                let width = kernel.num_inputs();
                match patterns.iter().all(|p| p.len() == width) {
                    true => Ok(patterns),
                    false => Err(server::error(
                        ErrorKind::BadRequest,
                        format!("pattern width must match the model's {width} inputs"),
                    )),
                }
            };
            start_batch(
                reply,
                batch,
                &source,
                &options,
                deadline_ms,
                vectors,
                true,
                checked,
            );
        }
    }
}

/// `eval`/`trace`/`tracep`: admission, the per-request work cap, model
/// resolution (the request deadline also bounds a cold build and, being
/// timing-dependent, keeps that build out of the registry), the
/// request's patterns, then a dispatcher job completing through the
/// mailbox.
#[allow(clippy::too_many_arguments)]
fn start_batch(
    reply: Reply,
    batch: &BatchHandle,
    source: &str,
    options: &WireBuildOptions,
    deadline_ms: Option<u64>,
    vectors: usize,
    want_values: bool,
    patterns: impl FnOnce(&Kernel) -> Result<Vec<Vec<bool>>, Response>,
) {
    let shared = Arc::clone(&reply.shared);
    let Some(guard) = server::try_admit(&shared) else {
        return reply.send(overloaded_response(&shared));
    };
    if let Err(resp) = server::check_vectors(&shared, vectors) {
        return reply.send(resp);
    }
    let deadline = deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
    let build_options = WireBuildOptions {
        deadline_ms,
        ..options.clone()
    };
    let kernel = match (&*shared).kernel(source, &build_options) {
        Ok((kernel, _, _)) => kernel,
        Err(resp) => return reply.send(resp),
    };
    let patterns = match patterns(&kernel) {
        Ok(patterns) => patterns,
        Err(resp) => return reply.send(resp),
    };
    if deadline.is_some_and(|deadline| deadline <= Instant::now()) {
        let message = "deadline expired before dispatch";
        return reply.send(server::error(ErrorKind::DeadlineExceeded, message));
    }
    let sink = ReactorReply(Some(ReplyInner {
        reply,
        name: kernel.name().to_owned(),
        want_values,
        _guard: guard,
    }));
    let job = Job {
        kernel,
        patterns,
        want_values,
        deadline,
        reply: Box::new(sink),
        fault: None,
    };
    if let Err(job) = batch.try_submit(job) {
        shared.stats.record_shed();
        job.reply.complete(Err(JobError::Shed));
    }
}

/// The async [`ReplySink`]: formats the response on the worker thread
/// and posts it to the connection's shard. The admission slot rides
/// along, so in-flight accounting covers the whole dispatcher queue
/// residency. Dropping the sink without completion (a worker panicked
/// past the job) produces the typed retriable error the drop contract
/// requires.
struct ReactorReply(Option<ReplyInner>);

struct ReplyInner {
    reply: Reply,
    name: String,
    want_values: bool,
    _guard: InflightGuard,
}

impl ReplyInner {
    fn finish(self, response: Response) {
        // Release the admission slot *before* the completion is posted:
        // the instant the post lands, the client can see the response
        // and fire its next request, which must find the slot free
        // (exactly the ordering the thread-per-connection server had).
        drop(self._guard);
        self.reply.send(response);
    }
}

impl ReplySink for ReactorReply {
    fn complete(mut self: Box<Self>, result: Result<JobOutput, JobError>) {
        let Some(inner) = self.0.take() else {
            return;
        };
        let response = match result {
            Ok(output) if inner.want_values => Response::Trace {
                name: inner.name.clone(),
                values: output.values.unwrap_or_default(),
            },
            Ok(output) => handler::eval_response(inner.name.clone(), &output.summary),
            Err(JobError::DeadlineExceeded) => {
                server::error(ErrorKind::DeadlineExceeded, "deadline expired in queue")
            }
            Err(JobError::Shed) => Response::Error {
                kind: ErrorKind::Overloaded,
                message: "dispatch queue full".to_owned(),
                retry_after_ms: Some(RETRY_AFTER_MS),
            },
        };
        inner.finish(response);
    }
}

impl Drop for ReactorReply {
    fn drop(&mut self) {
        if let Some(inner) = self.0.take() {
            // The executing worker panicked mid-batch and the supervisor
            // is restarting it; the request itself was fine.
            inner.finish(Response::Error {
                kind: ErrorKind::Internal,
                message: "dispatcher dropped the job (worker restarted); safe to retry".to_owned(),
                retry_after_ms: Some(RETRY_AFTER_MS),
            });
        }
    }
}
