//! The reactor front end: protocol detection, framing, and the service
//! pool that turns frames into work.
//!
//! Threading: the reactor shard threads (crate `charfree-net`) do
//! nothing but framing — they sniff the protocol from the connection's
//! first byte (`{` or whitespace → JSON lines, `C` of `CFB1` → binary,
//! `G` of `GET ` → HTTP metrics; `--metrics-addr` connections start in
//! HTTP), slice complete JSON lines / binary
//! frames out of the read buffer, and hand them to the **service
//! pool**. Service threads parse, run admission control and resolve
//! models (cold symbolic builds happen here, never on an I/O thread).
//! They answer `load`, `seqload`, `expected` and the control plane
//! directly, and turn every `eval`, `trace`, `tracep` and `seqeval` into
//! one dispatcher job (`start_batch`), whose [`ReplySink`] posts the
//! already-encoded response back to the owning shard through the
//! reactor [`Mailbox`]. Service threads evaluate nothing: the batch
//! worker running a job draws its patterns.
//!
//! One request is in flight per connection at a time (responses are
//! answered in order); bytes a pipelining client sends early simply
//! accumulate in the connection buffer until the in-flight response
//! completes. A client that half-closes after its last request still
//! gets every response: EOF is deferred while a completion is pending.

use std::io;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use charfree_net::{CloseReason, ConnCtx, Handler, Mailbox, Token};

use crate::batch::{BatchHandle, Job, JobError, JobOutput, Pool, ReplySink, Stimulus};
use crate::handler::{self, ModelSource};
use crate::metrics;
use crate::proto::{Command, ErrorKind, Request, Response, WireBuildOptions};
use crate::registry::Resident;
use crate::server::{self, InflightGuard, Shared, MAX_CONNECTIONS, MAX_LINE_BYTES, RETRY_AFTER_MS};
use crate::{wire, Proto};

/// Longest tolerated HTTP request head before the connection is cut.
const MAX_HTTP_HEAD: usize = 8 * 1024;

/// A finished request on its way back to the connection: response bytes
/// already encoded for the connection's protocol, plus whether the
/// connection should close once they are flushed (`shutdown`'s ack).
pub(crate) struct Completion {
    bytes: Vec<u8>,
    close: bool,
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

/// Spawns the pool of `threads` service threads between the reactor and
/// the dispatcher, draining `rx`.
pub(crate) fn service_pool(
    threads: usize,
    rx: Receiver<SvcRequest>,
    shared: &Arc<Shared>,
    batch: BatchHandle,
    mailbox: Mailbox<Completion>,
) -> io::Result<Pool> {
    let shared = Arc::clone(shared);
    let stats = Arc::clone(&shared.stats);
    let handle = move |req| handle_request(req, &shared, &batch, &mailbox);
    Pool::spawn(
        "charfree-serve-svc",
        threads,
        rx,
        &stats,
        |rx| rx.recv().ok(),
        handle,
    )
}

/// One request's way back to its connection: the protocol to answer in,
/// the command to log it as and, once admitted, its admission slot.
/// Owned, so it can ride across the dispatcher queue as a job's
/// [`ReplySink`].
///
/// **Drop contract:** a `Reply` dropped unanswered (the thread running
/// its request panicked and unwound past it) frees its admission slot,
/// then posts a typed, retriable `internal` error, so the client gets
/// an answer and drain can finish.
struct Reply {
    shared: Arc<Shared>,
    mailbox: Mailbox<Completion>,
    token: Token,
    proto: Proto,
    received: Instant,
    cmd: &'static str,
    /// The evaluated model's name, once the request is a dispatcher
    /// job.
    model: String,
    /// The request-level admission slot, held until the response posts.
    slot: Option<InflightGuard>,
    answered: bool,
}

impl Reply {
    /// Records the outcome, logs it, and posts the encoded response back
    /// to the connection's shard; `close` closes the connection once the
    /// response is flushed (`shutdown`'s ack).
    fn post(&mut self, response: Response, close: bool) {
        // Release the admission slot *before* the completion is posted:
        // the instant the post lands, the client can see the response
        // and fire its next request, which must find the slot free.
        self.slot = None;
        self.answered = true;
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

    fn send(mut self, response: Response) {
        self.post(response, false);
    }

    /// Takes a slot in the request-level admission window; `false` when
    /// the window is full.
    fn admit(&mut self) -> bool {
        self.slot = server::try_admit(&self.shared);
        self.slot.is_some()
    }

    /// Answers with `work`'s response, run inside the admission window,
    /// or with `overloaded` when the window is full.
    fn admitted(mut self, work: impl FnOnce() -> Response) {
        let response = match self.admit() {
            true => work(),
            false => overloaded_response(&self.shared),
        };
        self.send(response);
    }
}

/// The async [`ReplySink`]: formats the response on the worker thread
/// and posts it to the connection's shard. The admission slot rides
/// along, so in-flight accounting covers the whole dispatcher queue
/// residency.
impl ReplySink for Reply {
    fn complete(mut self: Box<Self>, result: Result<JobOutput, JobError>) {
        let name = std::mem::take(&mut self.model);
        let response = match result {
            Ok(JobOutput {
                values: Some(values),
                ..
            }) => Response::Trace { name, values },
            Ok(JobOutput {
                summary,
                macros: Some(macros),
                ..
            }) => handler::seq_eval_response(name, &summary, &macros),
            Ok(output) => handler::eval_response(name, &output.summary),
            Err(JobError::DeadlineExceeded) => {
                server::error(ErrorKind::DeadlineExceeded, "deadline expired in queue")
            }
            Err(JobError::Shed) => Response::Error {
                kind: ErrorKind::Overloaded,
                message: "dispatch queue full".to_owned(),
                retry_after_ms: Some(RETRY_AFTER_MS),
            },
        };
        self.send(response);
    }
}

impl Drop for Reply {
    fn drop(&mut self) {
        if !self.answered {
            // The request itself may have been fine; the thread running
            // it is restarting.
            self.post(
                Response::Error {
                    kind: ErrorKind::Internal,
                    message: "the request's worker panicked and restarted; safe to retry"
                        .to_owned(),
                    retry_after_ms: Some(RETRY_AFTER_MS),
                },
                false,
            );
        }
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
        model: String::new(),
        slot: None,
        answered: false,
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
    match request {
        Request::Stats => reply.send(Response::Stats(shared.snapshot().to_json())),
        Request::Metrics => reply.send(Response::Metrics(metrics::render(&shared.snapshot()))),
        Request::Shutdown => {
            reply.post(Response::Shutdown, true);
            server::begin_drain(shared);
        }
        Request::Load { source, options } => {
            reply.admitted(|| server::do_load(shared, &source, &options));
        }
        Request::Expected { source, sp, st } => reply
            .admitted(|| handler::expected(&mut &**shared, &source, sp, st).unwrap_or_else(|e| e)),
        Request::SeqLoad { source, options } => {
            reply.admitted(|| server::do_seq_load(shared, &source, &options));
        }
        Request::TraceDirect { patterns, .. } if patterns.len() < 2 => {
            let message = "tracep needs at least two patterns (transitions are pattern pairs)";
            reply.send(server::error(ErrorKind::BadRequest, message));
        }
        // eval, trace, tracep and seqeval.
        request => start_batch(reply, batch, request),
    }
}

/// `eval`/`trace`/`tracep`/`seqeval`: admission, the per-request work
/// cap (`--max-vectors`), model resolution (the request deadline also
/// bounds a cold build and, being timing-dependent, keeps that build
/// out of the registry), the request's stimulus for the model's inputs
/// (a checked Markov source, or the `tracep` patterns), then the one
/// dispatcher job. Its worker draws the patterns and evaluates; its
/// reply completes through the mailbox.
fn start_batch(mut reply: Reply, batch: &BatchHandle, request: Request) {
    let command = request.kind();
    let (source, options, deadline_ms, vectors, markov, patterns) = match request {
        Request::Eval {
            source,
            options,
            params,
        }
        | Request::Trace {
            source,
            options,
            params,
        }
        | Request::SeqEval {
            source,
            options,
            params,
        } => (
            source,
            options,
            params.deadline_ms,
            params.vectors,
            Some(params),
            Vec::new(),
        ),
        Request::TraceDirect {
            source,
            options,
            patterns,
            deadline_ms,
        } => (source, options, deadline_ms, patterns.len(), None, patterns),
        other => unreachable!("`{}` is answered on the service thread", other.cmd()),
    };
    let shared = Arc::clone(&reply.shared);
    if !reply.admit() {
        return reply.send(overloaded_response(&shared));
    }
    // Admission counts requests, not work: this caps what one can pin.
    if vectors > shared.max_vectors {
        let message = format!(
            "vectors={vectors} exceeds this server's per-request cap ({}); split the request or \
             restart with a larger --max-vectors",
            shared.max_vectors
        );
        return reply.send(server::error(ErrorKind::BadRequest, message));
    }
    let deadline = deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
    let options = WireBuildOptions {
        deadline_ms,
        ..options
    };
    let model = match command {
        Some(Command::SeqEval) => handler::seq_model(&mut &*shared, &source, &options)
            .map(|(design, _, _)| Resident::Seq(design)),
        _ => (&*shared)
            .kernel(&source, &options)
            .map(|(kernel, _, _)| Resident::Comb(kernel)),
    };
    let model = match model {
        Ok(model) => model,
        Err(resp) => return reply.send(resp),
    };
    let (name, inputs) = match &model {
        Resident::Comb(kernel) => (kernel.name(), kernel.num_inputs()),
        Resident::Seq(design) => (design.name(), design.num_inputs()),
    };
    reply.model = name.to_owned();
    let stimulus = match markov {
        Some(params) => handler::markov_stimulus(inputs, &params),
        None if patterns.iter().all(|p| p.len() == inputs) => Ok(Stimulus::Patterns(patterns)),
        None => Err(server::error(
            ErrorKind::BadRequest,
            format!("pattern width must match the model's {inputs} inputs"),
        )),
    };
    let stimulus = match stimulus {
        Ok(stimulus) => stimulus,
        Err(resp) => return reply.send(resp),
    };
    if deadline.is_some_and(|deadline| deadline <= Instant::now()) {
        let message = "deadline expired before dispatch";
        return reply.send(server::error(ErrorKind::DeadlineExceeded, message));
    }
    let job = Job {
        model,
        stimulus,
        want_values: matches!(command, Some(Command::Trace | Command::TraceDirect)),
        deadline,
        reply: Box::new(reply),
        fault: None,
    };
    if let Err(job) = batch.try_submit(job) {
        shared.stats.record_shed();
        job.reply.complete(Err(JobError::Shed));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::sync::mpsc::{sync_channel, Receiver};

    use charfree_net::{HandlerFactory, NetCounters, Reactor, ReactorConfig};
    use charfree_netlist::Library;

    use crate::server::{ServeConfig, Server};

    /// Reports its connection's token on open, then every completion
    /// posted to it together with the in-flight count seen on arrival.
    struct Recorder {
        opened: SyncSender<Token>,
        posted: SyncSender<(Vec<u8>, usize)>,
        shared: Arc<Shared>,
    }

    impl Handler<Completion> for Recorder {
        fn on_open(&mut self, conn: &mut ConnCtx<'_>) {
            let _ = self.opened.send(conn.token());
        }

        fn on_data(&mut self, _conn: &mut ConnCtx<'_>) {}

        fn on_message(&mut self, msg: Completion, _conn: &mut ConnCtx<'_>) {
            let inflight = self.shared.inflight.load(Ordering::SeqCst);
            let _ = self.posted.send((msg.bytes, inflight));
        }
    }

    #[test]
    fn a_reply_dropped_unanswered_frees_its_slot_then_posts_a_retriable_internal_error() {
        let mut config = ServeConfig::new(Library::test_library());
        config.addr = "127.0.0.1:0".to_owned();
        config.log = false;
        let server = Server::start(config).expect("binds");
        let shared = Arc::clone(&server.shared);

        // A one-connection reactor whose mailbox the replies post to.
        let (opened_tx, opened_rx) = sync_channel(1);
        let (posted_tx, posted_rx) = sync_channel(2);
        let recorder_shared = Arc::clone(&shared);
        let factory: Arc<HandlerFactory<Completion>> = Arc::new(move || {
            Box::new(Recorder {
                opened: opened_tx.clone(),
                posted: posted_tx.clone(),
                shared: Arc::clone(&recorder_shared),
            }) as Box<dyn Handler<Completion>>
        });
        let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
        let addr = listener.local_addr().expect("address");
        let reactor = Reactor::start(
            ReactorConfig::default(),
            vec![(listener, factory)],
            Arc::new(NetCounters::default()),
            None,
        )
        .expect("reactor starts");
        let stream = TcpStream::connect(addr).expect("connects");
        let token = opened_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("connection opens");

        let reply = |slot: Option<InflightGuard>| Reply {
            shared: Arc::clone(&shared),
            mailbox: reactor.mailbox(),
            token,
            proto: Proto::Json,
            received: Instant::now(),
            cmd: "load",
            model: String::new(),
            slot,
            answered: false,
        };
        let received = |rx: &Receiver<(Vec<u8>, usize)>| {
            let (bytes, inflight) = rx
                .recv_timeout(Duration::from_secs(30))
                .expect("the dropped reply posts");
            let line = String::from_utf8(bytes).expect("utf-8");
            (
                Response::parse_line(line.trim_end()).expect("parses"),
                inflight,
            )
        };
        for admitted in [true, false] {
            let slot = admitted.then(|| server::try_admit(&shared).expect("a free slot"));
            let before = shared.inflight.load(Ordering::SeqCst);
            assert_eq!(before, usize::from(admitted));
            drop(reply(slot));
            let (response, inflight) = received(&posted_rx);
            assert_eq!(inflight, 0, "the slot is freed before the post lands");
            match response {
                Response::Error {
                    kind: ErrorKind::Internal,
                    retry_after_ms: Some(RETRY_AFTER_MS),
                    ..
                } => {}
                other => panic!("a dropped reply posted {other:?}"),
            }
        }
        // An answered reply posts once, not again on drop.
        reply(None).send(Response::Shutdown);
        assert!(matches!(received(&posted_rx).0, Response::Shutdown));
        assert!(posted_rx.recv_timeout(Duration::from_millis(200)).is_err());

        drop(stream);
        reactor.handle().drain();
        reactor.join();
        server.request_drain();
        server.wait();
    }
}
