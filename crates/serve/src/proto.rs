//! The wire messages, each body declared once for both codecs, and the
//! newline-delimited JSON codec.
//!
//! Every [`Request`] and [`Response`] body is declared exactly once, in
//! the two `wire_bodies!` tables below: its JSON name, its binary frame
//! type and its ordered list of typed fields. Each codec implements the
//! `Sink`/`Source` pair over those field kinds (JSON here, binary in
//! [`crate::wire`]) and adds only its envelope: `cmd` (requests) or
//! `ok` + `kind` (responses) in JSON, the frame type byte in binary. The
//! typed error response is the one body each codec writes itself,
//! because its JSON and binary field orders differ.
//!
//! JSON carries one request per line and one response per line, in
//! order. Floating-point payloads that must survive the wire
//! *bit-exactly* — capacitance sums, maxima, per-transition trace
//! values — travel as 16-hex-digit IEEE-754 bit patterns, never as
//! decimal JSON numbers: the parity guarantee (`charfree client eval`
//! output is byte-identical to offline `charfree eval`) rules out any
//! decimal round trip. Request statistics (`sp`, `st`) travel as
//! ordinary JSON numbers because Rust's shortest `f64` display is itself
//! round-trip-exact.
//!
//! ```text
//! -> {"cmd":"eval","source":"decod","vectors":500,"sp":0.5,"st":0.3,"seed":1}
//! <- {"ok":true,"kind":"eval","name":"decod","transitions":499,
//!     "sum_ff":"40f86a2e38e38e39","max_ff":"4062c00000000000"}
//! ```
//!
//! Error responses are typed: `{"ok":false,"kind":"overloaded",
//! "error":"...","retry_after_ms":25}`. Clients branch on `kind`, not on
//! message text.

use crate::json::{parse, Json};
use crate::wire::{req_type, resp_type};

/// Build knobs a `load`/`build` request may carry (a wire-safe subset of
/// the pipeline's `BuildOptions`; timing-dependent knobs are expressed as
/// a per-request deadline).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WireBuildOptions {
    /// The paper's `MAX` node ceiling.
    pub max_nodes: Option<usize>,
    /// Build the conservative upper-bound model.
    pub upper_bound: bool,
    /// Resource-governor live-node ceiling.
    pub node_budget: Option<u64>,
    /// Strict mode: budget trips fail the build instead of degrading it.
    pub strict: bool,
    /// Per-request deadline, mapped onto the build `Budget`'s wall-clock
    /// resource (and checked before dispatch for evaluation requests).
    pub deadline_ms: Option<u64>,
}

/// The evaluation parameters shared by `eval` and `trace` requests.
#[derive(Debug, Clone, PartialEq)]
pub struct WireEvalParams {
    /// Markov-source sequence length (at least 2 patterns are generated).
    pub vectors: usize,
    /// Signal probability.
    pub sp: f64,
    /// Transition probability.
    pub st: f64,
    /// Markov-source seed.
    pub seed: u64,
    /// Per-request deadline in milliseconds (checked at dispatch; an
    /// expired request is shed with a typed `deadline` error).
    pub deadline_ms: Option<u64>,
}

/// One request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Ensure a model is resident in the registry (warm no-op when it
    /// already is; builds through the pipeline + artifact store when not).
    Load {
        /// Netlist / benchmark / artifact operand, resolved server-side.
        source: String,
        /// Build options (part of the registry key).
        options: WireBuildOptions,
    },
    /// Batched trace evaluation to a summary.
    Eval {
        /// Model operand (auto-loaded on registry miss).
        source: String,
        /// Build options the model was (or will be) loaded with, so an
        /// eval targets exactly the kernel a prior `load` pinned.
        /// `deadline_ms` is always `None` here — the request deadline
        /// lives in `params` and is applied to a cold build server-side.
        options: WireBuildOptions,
        /// Pattern-stream parameters.
        params: WireEvalParams,
    },
    /// Batched per-transition trace.
    Trace {
        /// Model operand (auto-loaded on registry miss).
        source: String,
        /// Build options (see [`Request::Eval`]).
        options: WireBuildOptions,
        /// Pattern-stream parameters.
        params: WireEvalParams,
    },
    /// Analytic expected switched capacitance at `(sp, st)`.
    Expected {
        /// Model operand.
        source: String,
        /// Signal probability.
        sp: f64,
        /// Transition probability.
        st: f64,
    },
    /// Batched per-transition trace over *explicit* patterns (the
    /// binary protocol's native request; JSON spells it `tracep` with
    /// patterns as `"0101…"` bit strings, most significant input
    /// first — the same convention as netlist truth tables).
    TraceDirect {
        /// Model operand (auto-loaded on registry miss).
        source: String,
        /// Build options (see [`Request::Eval`]).
        options: WireBuildOptions,
        /// Explicit input patterns; `len - 1` transitions are evaluated.
        patterns: Vec<Vec<bool>>,
        /// Per-request deadline in milliseconds.
        deadline_ms: Option<u64>,
    },
    /// Ensure a **sequential** design (`.latch` BLIF) is resident: the
    /// design is partitioned into register-bounded macros and one kernel
    /// is built per macro through the pipeline.
    SeqLoad {
        /// Netlist path operand (sequential designs are file-only).
        source: String,
        /// Build options (part of the registry key).
        options: WireBuildOptions,
    },
    /// Cycle-stepped fused evaluation of a sequential design: register
    /// state evolves from reset and every macro's transition pairs are
    /// evaluated in one pass over the pattern trace.
    SeqEval {
        /// Netlist path operand (auto-loaded on registry miss).
        source: String,
        /// Build options (see [`Request::Eval`]).
        options: WireBuildOptions,
        /// Pattern-stream parameters.
        params: WireEvalParams,
    },
    /// Server counters and latency/batch-fill histograms.
    Stats,
    /// Plaintext metrics (the same payload `GET /metrics` serves).
    Metrics,
    /// Graceful drain: stop accepting, flush in-flight work, exit 0.
    Shutdown,
}

/// Typed failure classes a server can return. Clients branch on these,
/// not on message text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The request was shed by admission control (`--max-inflight`
    /// exceeded or dispatch queue full); retry after `retry_after_ms`.
    Overloaded,
    /// The request line failed to parse or validate.
    BadRequest,
    /// Model construction failed (strict-mode trip, invalid netlist).
    BuildFailed,
    /// The per-request deadline expired before evaluation started.
    DeadlineExceeded,
    /// The operation is not defined for the input kind.
    Unsupported,
    /// The server is draining and no longer accepts work.
    Draining,
    /// The model's build circuit breaker is open after repeated build
    /// failures; retry after `retry_after_ms`.
    ModelUnavailable,
    /// The connection sat idle past the server's idle timeout and is
    /// being closed (slow-loris guard). The error is a courtesy notice;
    /// the close follows immediately.
    Timeout,
    /// Anything else (I/O on the server side, poisoned state).
    Internal,
}

/// Every error kind with its JSON name and binary code, declared once for
/// both codecs. Unknown names and codes collapse to `Internal`.
const ERROR_KINDS: [(ErrorKind, &str, u8); 9] = [
    (ErrorKind::Internal, "internal", 0),
    (ErrorKind::Overloaded, "overloaded", 1),
    (ErrorKind::BadRequest, "bad-request", 2),
    (ErrorKind::BuildFailed, "build-failed", 3),
    (ErrorKind::DeadlineExceeded, "deadline-exceeded", 4),
    (ErrorKind::Unsupported, "unsupported", 5),
    (ErrorKind::Draining, "draining", 6),
    (ErrorKind::ModelUnavailable, "model-unavailable", 7),
    (ErrorKind::Timeout, "timeout", 8),
];

impl ErrorKind {
    fn lookup(hit: impl Fn(&(ErrorKind, &str, u8)) -> bool) -> (ErrorKind, &'static str, u8) {
        ERROR_KINDS.into_iter().find(hit).unwrap_or(ERROR_KINDS[0])
    }

    /// Stable kebab-case wire name.
    pub fn name(self) -> &'static str {
        ErrorKind::lookup(|k| k.0 == self).1
    }

    fn from_name(name: &str) -> ErrorKind {
        ErrorKind::lookup(|k| k.1 == name).0
    }

    /// Stable single-byte code for the binary protocol's error frames.
    pub fn code(self) -> u8 {
        ErrorKind::lookup(|k| k.0 == self).2
    }

    /// The inverse of [`code`](ErrorKind::code); unknown codes collapse
    /// to `Internal` (same policy as unknown wire names).
    pub fn from_code(code: u8) -> ErrorKind {
        ErrorKind::lookup(|k| k.2 == code).0
    }

    /// Is this failure transient from the client's point of view —
    /// worth retrying against the same server after a backoff?
    pub fn retriable(self) -> bool {
        matches!(
            self,
            ErrorKind::Overloaded | ErrorKind::Draining | ErrorKind::ModelUnavailable
        )
    }
}

/// One macro's share of a `seqeval` response (bit-exact summary).
#[derive(Debug, Clone, PartialEq)]
pub struct WireMacroSummary {
    /// Macro name (`<design>__m<i>`).
    pub name: String,
    /// Sum of the macro's per-transition switched capacitance (fF).
    pub sum_ff: f64,
    /// Maximum of the macro's per-transition switched capacitance (fF).
    pub max_ff: f64,
}

/// One response line.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// `load`/`build` outcome.
    Load {
        /// Model display name.
        name: String,
        /// Kernel instruction count.
        instrs: usize,
        /// Distinct terminal values.
        terminals: usize,
        /// Kernel footprint in bytes.
        bytes: usize,
        /// ADD apply steps this load performed (0 = fully warm: served
        /// from the registry or the content-addressed store).
        apply_steps: u64,
        /// Whether the model was already registry-resident.
        resident: bool,
    },
    /// `eval` outcome (bit-exact summary).
    Eval {
        /// Model display name.
        name: String,
        /// Transitions evaluated.
        transitions: usize,
        /// Sum of per-transition switched capacitance (fF), bit-exact.
        sum_ff: f64,
        /// Maximum per-transition switched capacitance (fF), bit-exact.
        max_ff: f64,
    },
    /// `trace` outcome (bit-exact per-transition values).
    Trace {
        /// Model display name.
        name: String,
        /// Per-transition switched capacitance (fF), bit-exact.
        values: Vec<f64>,
    },
    /// `expected` outcome.
    Expected {
        /// Model display name.
        name: String,
        /// Expected switched capacitance (fF/cycle), bit-exact.
        value: f64,
    },
    /// `seqload` outcome.
    SeqLoad {
        /// Design display name.
        name: String,
        /// Register-bounded macros in the composition.
        macros: usize,
        /// Latches (state bits) in the design.
        latches: usize,
        /// Total kernel instruction count across macros.
        instrs: usize,
        /// Total kernel footprint in bytes across macros.
        bytes: usize,
        /// ADD apply steps across the per-macro builds (0 = fully warm).
        apply_steps: u64,
        /// Content-addressed artifact hits across the per-macro builds.
        cache_hits: u64,
        /// Whether the composition was already registry-resident.
        resident: bool,
    },
    /// `seqeval` outcome (bit-exact whole-design summary plus the
    /// per-macro breakdown).
    SeqEval {
        /// Design display name.
        name: String,
        /// Transitions evaluated.
        transitions: usize,
        /// Whole-design sum of per-transition switched capacitance (fF).
        sum_ff: f64,
        /// Whole-design maximum per-transition switched capacitance (fF).
        max_ff: f64,
        /// Per-macro summaries, in macro index order.
        macros: Vec<WireMacroSummary>,
    },
    /// `stats` payload (pre-rendered by the stats module).
    Stats(Json),
    /// `metrics` payload: the plaintext exposition body, identical to
    /// what `GET /metrics` serves over HTTP.
    Metrics(String),
    /// `shutdown` acknowledged; the server drains after this line.
    Shutdown,
    /// A typed failure.
    Error {
        /// Failure class.
        kind: ErrorKind,
        /// Human-readable diagnostic.
        message: String,
        /// For `overloaded`: the client should back off this long.
        retry_after_ms: Option<u64>,
    },
}

/// Writes a message body one typed field at a time, in declaration
/// order. `key` names the field in JSON; the binary codec, which is
/// positional, ignores it.
pub(crate) trait Sink {
    /// A UTF-8 string.
    fn str(&mut self, key: &'static str, v: &str);
    /// An unsigned integer.
    fn u64(&mut self, key: &'static str, v: &u64);
    /// A request statistic: a JSON number (Rust's shortest round-trip
    /// display), raw bits in binary.
    fn num(&mut self, key: &'static str, v: &f64);
    /// A bit-exact result: 16 hex digits in JSON, raw bits in binary.
    fn bits(&mut self, key: &'static str, v: &f64);
    /// An optional unsigned integer.
    fn opt_u64(&mut self, key: &'static str, v: &Option<u64>);
    /// A boolean.
    fn flag(&mut self, key: &'static str, v: &bool);
    /// An option switch: JSON leaves it out unless it is set.
    fn opt_flag(&mut self, key: &'static str, v: &bool);
    /// Explicit input patterns (bit strings in JSON, bit-packed words in
    /// binary).
    fn patterns(&mut self, key: &'static str, v: &[Vec<bool>]);
    /// A list of bit-exact values.
    fn values(&mut self, key: &'static str, v: &[f64]);
    /// A list of per-macro summaries.
    fn macros(&mut self, key: &'static str, v: &[WireMacroSummary]);
    /// A JSON payload (inline in JSON, its text in binary).
    fn json(&mut self, key: &'static str, v: &Json);

    /// A count (travels as a `u64`).
    fn usize(&mut self, key: &'static str, v: &usize) {
        self.u64(key, &(*v as u64));
    }

    /// Build options, `deadline_ms` included.
    fn options(&mut self, _key: &'static str, v: &WireBuildOptions) {
        self.opt_u64("max_nodes", &v.max_nodes.map(|n| n as u64));
        self.opt_flag("upper_bound", &v.upper_bound);
        self.opt_u64("node_budget", &v.node_budget);
        self.opt_flag("strict", &v.strict);
        self.opt_u64("deadline_ms", &v.deadline_ms);
    }

    /// The model-shaping build options of an eval-style request, whose
    /// deadline travels in its own `deadline_ms` field instead.
    fn model_options(&mut self, key: &'static str, v: &WireBuildOptions) {
        self.options(
            key,
            &WireBuildOptions {
                deadline_ms: None,
                ..*v
            },
        );
    }

    /// Pattern-stream parameters.
    fn params(&mut self, _key: &'static str, v: &WireEvalParams) {
        self.usize("vectors", &v.vectors);
        self.num("sp", &v.sp);
        self.num("st", &v.st);
        self.u64("seed", &v.seed);
        self.opt_u64("deadline_ms", &v.deadline_ms);
    }

    /// One element of a macro list.
    fn summary(&mut self, v: &WireMacroSummary) {
        self.str("name", &v.name);
        self.bits("sum_ff", &v.sum_ff);
        self.bits("max_ff", &v.max_ff);
    }
}

/// Reads a message body one typed field at a time, in declaration
/// order: the mirror of [`Sink`], one method per field kind.
pub(crate) trait Source {
    /// Whether this source holds the body named `name` in JSON / typed
    /// `ty` in binary.
    fn selects(&self, name: &str, ty: u8) -> bool;
    fn str(&mut self, key: &'static str) -> Result<String, String>;
    fn u64(&mut self, key: &'static str) -> Result<u64, String>;
    /// Rejects non-finite values.
    fn num(&mut self, key: &'static str) -> Result<f64, String>;
    fn bits(&mut self, key: &'static str) -> Result<f64, String>;
    fn opt_u64(&mut self, key: &'static str) -> Result<Option<u64>, String>;
    fn flag(&mut self, key: &'static str) -> Result<bool, String>;
    /// An option switch; JSON reads an absent one as unset.
    fn opt_flag(&mut self, key: &'static str) -> Result<bool, String>;
    fn patterns(&mut self, key: &'static str) -> Result<Vec<Vec<bool>>, String>;
    fn values(&mut self, key: &'static str) -> Result<Vec<f64>, String>;
    fn macros(&mut self, key: &'static str) -> Result<Vec<WireMacroSummary>, String>;
    fn json(&mut self, key: &'static str) -> Result<Json, String>;

    /// A count (travels as a `u64`).
    fn usize(&mut self, key: &'static str) -> Result<usize, String> {
        self.u64(key).map(|v| v as usize)
    }

    /// Build options, `deadline_ms` included.
    fn options(&mut self, _key: &'static str) -> Result<WireBuildOptions, String> {
        Ok(WireBuildOptions {
            max_nodes: self.opt_u64("max_nodes")?.map(|n| n as usize),
            upper_bound: self.opt_flag("upper_bound")?,
            node_budget: self.opt_u64("node_budget")?,
            strict: self.opt_flag("strict")?,
            deadline_ms: self.opt_u64("deadline_ms")?,
        })
    }

    /// The one reader rule keeping a request deadline out of an
    /// eval-style request's build options, and so out of its registry
    /// key: JSON shares the `deadline_ms` key with the request's own
    /// deadline, binary carries an options slot for it.
    fn model_options(&mut self, key: &'static str) -> Result<WireBuildOptions, String> {
        Ok(WireBuildOptions {
            deadline_ms: None,
            ..self.options(key)?
        })
    }

    /// Pattern-stream parameters.
    fn params(&mut self, _key: &'static str) -> Result<WireEvalParams, String> {
        Ok(WireEvalParams {
            vectors: self.usize("vectors")?,
            sp: self.num("sp")?,
            st: self.num("st")?,
            seed: self.u64("seed")?,
            deadline_ms: self.opt_u64("deadline_ms")?,
        })
    }

    /// One element of a macro list.
    fn summary(&mut self) -> Result<WireMacroSummary, String> {
        Ok(WireMacroSummary {
            name: self.str("name")?,
            sum_ff: self.bits("sum_ff")?,
            max_ff: self.bits("max_ff")?,
        })
    }
}

/// Declares the wire bodies of a message enum once for both codecs: per
/// variant `Variant(json_name, frame_type)` and its ordered fields as
/// `field: kind`, where `kind` is a [`Sink`]/[`Source`] method and
/// `field` doubles as the JSON key. A tuple variant's one field is
/// written `(key: kind)`. Variants left out (the error response) have no
/// shared body.
macro_rules! wire_bodies {
    ($Msg:ident { $($Var:ident($name:literal, $ty:expr) $body:tt)* }) => {
        impl $Msg {
            /// The JSON name and binary frame type of this body.
            #[allow(unreachable_patterns)]
            pub(crate) fn tag(&self) -> Option<(&'static str, u8)> {
                match self {
                    $($Msg::$Var { .. } => Some(($name, $ty)),)*
                    _ => None,
                }
            }

            /// Writes the body's fields in declaration order.
            #[allow(unreachable_patterns)]
            pub(crate) fn write_body(&self, sink: &mut impl Sink) {
                match self {
                    $(wire_bodies!(@bind $Msg $Var $body) => wire_bodies!(@write sink $body),)*
                    _ => {}
                }
            }

            /// Reads the body `source` selects; `None` when none matches.
            pub(crate) fn read_body(source: &mut impl Source) -> Result<Option<$Msg>, String> {
                $(if source.selects($name, $ty) {
                    return Ok(Some(wire_bodies!(@read source $Msg $Var $body)));
                })*
                Ok(None)
            }
        }
    };
    (@bind $Msg:ident $Var:ident { $($f:ident: $kind:ident),* $(,)? }) => {
        $Msg::$Var { $($f),* }
    };
    (@bind $Msg:ident $Var:ident ($f:ident: $kind:ident)) => {
        $Msg::$Var($f)
    };
    (@write $sink:ident { $($f:ident: $kind:ident),* $(,)? }) => {{
        $($sink.$kind(stringify!($f), $f);)*
    }};
    (@write $sink:ident ($f:ident: $kind:ident)) => {
        $sink.$kind(stringify!($f), $f)
    };
    (@read $src:ident $Msg:ident $Var:ident { $($f:ident: $kind:ident),* $(,)? }) => {
        $Msg::$Var { $($f: $src.$kind(stringify!($f))?),* }
    };
    (@read $src:ident $Msg:ident $Var:ident ($f:ident: $kind:ident)) => {
        $Msg::$Var($src.$kind(stringify!($f))?)
    };
}

wire_bodies! {
    Request {
        Load("load", req_type::LOAD) { source: str, options: options }
        Eval("eval", req_type::EVAL) { source: str, options: model_options, params: params }
        Trace("trace", req_type::TRACE) { source: str, options: model_options, params: params }
        Expected("expected", req_type::EXPECTED) { source: str, sp: num, st: num }
        TraceDirect("tracep", req_type::TRACE_DIRECT) {
            source: str,
            options: model_options,
            deadline_ms: opt_u64,
            patterns: patterns,
        }
        SeqLoad("seqload", req_type::SEQ_LOAD) { source: str, options: options }
        SeqEval("seqeval", req_type::SEQ_EVAL) {
            source: str,
            options: model_options,
            params: params,
        }
        Stats("stats", req_type::STATS) {}
        Metrics("metrics", req_type::METRICS) {}
        Shutdown("shutdown", req_type::SHUTDOWN) {}
    }
}

wire_bodies! {
    Response {
        Load("load", resp_type::LOAD) {
            name: str,
            instrs: usize,
            terminals: usize,
            bytes: usize,
            apply_steps: u64,
            resident: flag,
        }
        Eval("eval", resp_type::EVAL) { name: str, transitions: usize, sum_ff: bits, max_ff: bits }
        Trace("trace", resp_type::TRACE) { name: str, values: values }
        Expected("expected", resp_type::EXPECTED) { name: str, value: bits }
        SeqLoad("seqload", resp_type::SEQ_LOAD) {
            name: str,
            macros: usize,
            latches: usize,
            instrs: usize,
            bytes: usize,
            apply_steps: u64,
            cache_hits: u64,
            resident: flag,
        }
        SeqEval("seqeval", resp_type::SEQ_EVAL) {
            name: str,
            transitions: usize,
            sum_ff: bits,
            max_ff: bits,
            macros: macros,
        }
        Stats("stats", resp_type::STATS) (stats: json)
        Metrics("metrics", resp_type::METRICS) (text: str)
        Shutdown("shutdown", resp_type::SHUTDOWN) {}
    }
}

impl Request {
    /// The wire command name.
    pub fn cmd(&self) -> &'static str {
        self.tag().map_or("", |(name, _)| name)
    }

    /// Serializes the request as one JSON line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut sink = JsonSink(Vec::new());
        sink.str("cmd", self.cmd());
        self.write_body(&mut sink);
        Json::Obj(sink.0).to_line()
    }

    /// Parses one request line (`build` is an alias for `load`).
    ///
    /// # Errors
    ///
    /// A diagnostic suitable for a `bad-request` response.
    pub fn parse_line(line: &str) -> Result<Request, String> {
        let obj = parse(line)?;
        let cmd = obj
            .get("cmd")
            .and_then(Json::as_str)
            .ok_or("missing `cmd` field")?;
        let tag = if cmd == "build" { "load" } else { cmd };
        Request::read_body(&mut JsonSource { obj: &obj, tag })?
            .ok_or_else(|| format!("unknown command `{cmd}`"))
    }
}

impl Response {
    /// Serializes the response as one JSON line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut sink = JsonSink(Vec::new());
        if let Response::Error {
            kind,
            message,
            retry_after_ms,
        } = self
        {
            sink.flag("ok", &false);
            sink.str("kind", kind.name());
            sink.str("error", message);
            sink.opt_u64("retry_after_ms", retry_after_ms);
        } else {
            sink.flag("ok", &true);
            sink.str("kind", self.tag().map_or("", |(name, _)| name));
            self.write_body(&mut sink);
        }
        Json::Obj(sink.0).to_line()
    }

    /// Parses one response line.
    ///
    /// # Errors
    ///
    /// A diagnostic when the line is not a valid response.
    pub fn parse_line(line: &str) -> Result<Response, String> {
        let obj = parse(line)?;
        let ok = obj
            .get("ok")
            .and_then(Json::as_bool)
            .ok_or("missing `ok` field")?;
        let kind = obj.get("kind").and_then(Json::as_str);
        let mut source = JsonSource {
            obj: &obj,
            tag: kind.unwrap_or(""),
        };
        if !ok {
            return Ok(Response::Error {
                kind: ErrorKind::from_name(kind.unwrap_or("internal")),
                message: source
                    .str("error")
                    .unwrap_or_else(|_| "unknown error".to_owned()),
                retry_after_ms: source.opt_u64("retry_after_ms")?,
            });
        }
        let kind = kind.ok_or("missing `kind` field")?;
        Response::read_body(&mut source)?.ok_or_else(|| format!("unknown response kind `{kind}`"))
    }
}

/// The JSON [`Sink`]: an object's fields, in order.
struct JsonSink(Vec<(String, Json)>);

impl JsonSink {
    fn push(&mut self, key: &str, v: Json) {
        self.0.push((key.to_owned(), v));
    }
}

impl Sink for JsonSink {
    fn str(&mut self, key: &'static str, v: &str) {
        self.push(key, Json::Str(v.to_owned()));
    }

    fn u64(&mut self, key: &'static str, v: &u64) {
        self.push(key, Json::num(v));
    }

    fn num(&mut self, key: &'static str, v: &f64) {
        self.push(key, Json::num(v));
    }

    fn bits(&mut self, key: &'static str, v: &f64) {
        self.push(key, Json::Str(f64_to_hex(*v)));
    }

    fn opt_u64(&mut self, key: &'static str, v: &Option<u64>) {
        if let Some(v) = v {
            self.push(key, Json::num(v));
        }
    }

    fn flag(&mut self, key: &'static str, v: &bool) {
        self.push(key, Json::Bool(*v));
    }

    fn opt_flag(&mut self, key: &'static str, v: &bool) {
        if *v {
            self.flag(key, v);
        }
    }

    fn patterns(&mut self, key: &'static str, v: &[Vec<bool>]) {
        let strs = v.iter().map(|p| Json::Str(bits_to_str(p))).collect();
        self.push(key, Json::Arr(strs));
    }

    fn values(&mut self, key: &'static str, v: &[f64]) {
        let hexes = v.iter().map(|&v| Json::Str(f64_to_hex(v))).collect();
        self.push(key, Json::Arr(hexes));
    }

    fn macros(&mut self, key: &'static str, v: &[WireMacroSummary]) {
        let objs = v
            .iter()
            .map(|m| {
                let mut obj = JsonSink(Vec::new());
                obj.summary(m);
                Json::Obj(obj.0)
            })
            .collect();
        self.push(key, Json::Arr(objs));
    }

    fn json(&mut self, key: &'static str, v: &Json) {
        self.push(key, v.clone());
    }
}

/// The JSON [`Source`]: a parsed object, read by key.
struct JsonSource<'a> {
    obj: &'a Json,
    /// The `cmd` (request) or `kind` (response) naming the body.
    tag: &'a str,
}

impl<'a> JsonSource<'a> {
    fn field(&self, key: &str) -> Result<&'a Json, String> {
        self.obj.get(key).ok_or_else(|| format!("missing `{key}`"))
    }

    fn list(&self, key: &str) -> Result<&'a [Json], String> {
        self.obj
            .get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("missing `{key}` array"))
    }
}

impl Source for JsonSource<'_> {
    fn selects(&self, name: &str, _ty: u8) -> bool {
        self.tag == name
    }

    fn str(&mut self, key: &'static str) -> Result<String, String> {
        self.obj
            .get(key)
            .and_then(Json::as_str)
            .map(str::to_owned)
            .ok_or_else(|| format!("missing or non-string `{key}`"))
    }

    fn u64(&mut self, key: &'static str) -> Result<u64, String> {
        self.field(key)?
            .as_u64()
            .ok_or_else(|| format!("`{key}` must be a non-negative integer"))
    }

    fn num(&mut self, key: &'static str) -> Result<f64, String> {
        match self.field(key)?.as_f64() {
            Some(v) if v.is_finite() => Ok(v),
            Some(_) => Err(format!("`{key}` must be finite")),
            None => Err(format!("`{key}` must be a number")),
        }
    }

    fn bits(&mut self, key: &'static str) -> Result<f64, String> {
        hex_to_f64(&self.str(key)?)
    }

    fn opt_u64(&mut self, key: &'static str) -> Result<Option<u64>, String> {
        match self.obj.get(key) {
            None | Some(Json::Null) => Ok(None),
            Some(v) => v
                .as_u64()
                .map(Some)
                .ok_or_else(|| format!("`{key}` must be a non-negative integer")),
        }
    }

    fn flag(&mut self, key: &'static str) -> Result<bool, String> {
        self.field(key)?
            .as_bool()
            .ok_or_else(|| format!("`{key}` must be a boolean"))
    }

    fn opt_flag(&mut self, key: &'static str) -> Result<bool, String> {
        Ok(self.obj.get(key).and_then(Json::as_bool).unwrap_or(false))
    }

    fn patterns(&mut self, key: &'static str) -> Result<Vec<Vec<bool>>, String> {
        self.list(key)?
            .iter()
            .map(|p| bits_from_str(p.as_str().ok_or("non-string pattern")?))
            .collect()
    }

    fn values(&mut self, key: &'static str) -> Result<Vec<f64>, String> {
        self.list(key)?
            .iter()
            .map(|v| hex_to_f64(v.as_str().ok_or("non-string value")?))
            .collect()
    }

    fn macros(&mut self, key: &'static str) -> Result<Vec<WireMacroSummary>, String> {
        self.list(key)?
            .iter()
            .map(|obj| JsonSource { obj, tag: "" }.summary())
            .collect()
    }

    fn json(&mut self, key: &'static str) -> Result<Json, String> {
        Ok(self.obj.get(key).cloned().unwrap_or(Json::Null))
    }
}

/// Renders a pattern as a `"0101…"` bit string (index 0 first).
fn bits_to_str(bits: &[bool]) -> String {
    bits.iter().map(|&b| if b { '1' } else { '0' }).collect()
}

/// Parses a `"0101…"` bit string back to a pattern.
///
/// # Errors
///
/// Rejects empty strings and non-`0`/`1` characters.
fn bits_from_str(s: &str) -> Result<Vec<bool>, String> {
    if s.is_empty() {
        return Err("empty pattern".to_owned());
    }
    s.chars()
        .map(|c| match c {
            '0' => Ok(false),
            '1' => Ok(true),
            other => Err(format!("bad pattern bit {other:?}")),
        })
        .collect()
}

/// Renders an `f64` as its 16-hex-digit IEEE-754 bit pattern.
fn f64_to_hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

/// Parses a 16-hex-digit IEEE-754 bit pattern back to the identical
/// `f64`.
///
/// # Errors
///
/// Rejects non-hex input.
fn hex_to_f64(hex: &str) -> Result<f64, String> {
    u64::from_str_radix(hex, 16)
        .map(f64::from_bits)
        .map_err(|_| format!("bad f64 bit pattern `{hex}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_is_an_alias_for_load() {
        let req = Request::parse_line(r#"{"cmd":"build","source":"decod","max_nodes":100}"#)
            .expect("parses");
        assert!(matches!(req, Request::Load { ref options, .. } if options.max_nodes == Some(100)));
    }

    #[test]
    fn f64_hex_round_trips_bit_exactly() {
        for v in [
            0.1 + 0.2,
            f64::NEG_INFINITY,
            -0.0,
            1.0e-308,
            12345.678901234567,
        ] {
            let back = hex_to_f64(&f64_to_hex(v)).expect("round trip");
            assert_eq!(back.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn eval_style_requests_keep_the_deadline_out_of_their_build_options() {
        let line = r#"{"cmd":"eval","source":"d","max_nodes":9,"vectors":4,"sp":0.5,"st":0.5,"seed":1,"deadline_ms":30}"#;
        let Request::Eval {
            options, params, ..
        } = Request::parse_line(line).expect("parses")
        else {
            panic!("not an eval");
        };
        assert_eq!(options.max_nodes, Some(9));
        assert_eq!(options.deadline_ms, None, "deadline is not a model option");
        assert_eq!(params.deadline_ms, Some(30));
        // `load` keeps it: there it bounds the build.
        let load = Request::parse_line(r#"{"cmd":"load","source":"d","deadline_ms":30}"#);
        assert!(
            matches!(load, Ok(Request::Load { ref options, .. }) if options.deadline_ms == Some(30))
        );
    }

    #[test]
    fn error_kinds_have_stable_wire_names() {
        for kind in [
            ErrorKind::Overloaded,
            ErrorKind::BadRequest,
            ErrorKind::BuildFailed,
            ErrorKind::DeadlineExceeded,
            ErrorKind::Unsupported,
            ErrorKind::Draining,
            ErrorKind::ModelUnavailable,
            ErrorKind::Timeout,
            ErrorKind::Internal,
        ] {
            assert_eq!(ErrorKind::from_name(kind.name()), kind);
            assert_eq!(ErrorKind::from_code(kind.code()), kind);
        }
        // Unknown binary codes collapse to Internal, never panic.
        assert_eq!(ErrorKind::from_code(250), ErrorKind::Internal);
    }

    #[test]
    fn retriable_kinds_are_exactly_the_transient_ones() {
        assert!(ErrorKind::Overloaded.retriable());
        assert!(ErrorKind::Draining.retriable());
        assert!(ErrorKind::ModelUnavailable.retriable());
        assert!(!ErrorKind::BadRequest.retriable());
        assert!(!ErrorKind::BuildFailed.retriable());
        assert!(!ErrorKind::DeadlineExceeded.retriable());
        assert!(!ErrorKind::Unsupported.retriable());
        assert!(!ErrorKind::Timeout.retriable());
        assert!(!ErrorKind::Internal.retriable());
    }

    #[test]
    fn tracep_rejects_malformed_patterns() {
        for bad in [
            r#"{"cmd":"tracep","source":"d"}"#,
            r#"{"cmd":"tracep","source":"d","patterns":["01","0x"]}"#,
            r#"{"cmd":"tracep","source":"d","patterns":[""]}"#,
            r#"{"cmd":"tracep","source":"d","patterns":[7]}"#,
        ] {
            assert!(
                Request::parse_line(bad).is_err(),
                "`{bad}` must be rejected"
            );
        }
    }

    #[test]
    fn malformed_requests_are_rejected_with_diagnostics() {
        for bad in [
            "",
            "{}",
            r#"{"cmd":"frobnicate"}"#,
            r#"{"cmd":"eval"}"#,
            r#"{"cmd":"eval","source":"d","vectors":-1,"sp":0.5,"st":0.5,"seed":1}"#,
            r#"{"cmd":"eval","source":"d","vectors":10,"sp":"x","st":0.5,"seed":1}"#,
        ] {
            assert!(
                Request::parse_line(bad).is_err(),
                "`{bad}` must be rejected"
            );
        }
    }
}
