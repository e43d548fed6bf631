//! The length-prefixed binary wire protocol.
//!
//! Carries exactly the same [`Request`]/[`Response`] surface as the
//! JSON-lines protocol — and is **bit-identical in results** to it: both
//! protocols ship `f64` payloads as IEEE-754 bit patterns (16 hex digits
//! in JSON, raw little-endian `u64` words here), so a value crosses
//! either wire without any decimal round trip.
//!
//! # Connection opening (version negotiation)
//!
//! The client's first 8 bytes are the hello:
//!
//! ```text
//! offset  size  field
//! 0       4     magic "CFB1"
//! 4       2     min supported version (u16 LE)
//! 6       2     max supported version (u16 LE)
//! ```
//!
//! The server answers with 6 bytes: the magic followed by the chosen
//! version (u16 LE), or `0` when no common version exists — in which
//! case a typed error frame follows and the connection closes. The
//! same first-byte sniff that routes this hello also keeps JSON clients
//! working on the same port: `C` (of `CFB1`) selects binary, `{` or
//! whitespace selects JSON lines, `G` (of `GET `) selects the HTTP
//! metrics answer.
//!
//! # Frames
//!
//! After negotiation, both directions speak frames:
//!
//! ```text
//! offset  size  field
//! 0       4     frame length (u32 LE) = 1 + payload length
//! 4       1     frame type
//! 5       n     payload
//! ```
//!
//! Request frame types are `0x01..=0x0A` and response types
//! `0x81..=0x89` (see [`req_type`] and [`resp_type`]); `0xFF` is the typed error
//! frame. A request frame longer than [`MAX_FRAME_BYTES`] is rejected
//! *from the length prefix alone* — the server never buffers an
//! oversized frame — with a typed `bad-request`, then the connection
//! closes (the stream can no longer be trusted to be in sync).
//!
//! Within payloads: integers are little-endian; strings are
//! `u32 LE length + UTF-8 bytes`; optional integers are a presence byte
//! followed by the value; `f64`s are their `u64` bit patterns; pattern
//! blocks are bit-packed `u64` words. Field order is each body's
//! declaration order in [`crate::proto`].

use crate::json::Json;
use crate::proto::{
    Command, ErrorKind, Request, Response, ResponseKind, Sink, Source, WireMacroSummary,
};

/// The 4-byte protocol magic (`C` doubles as the first-byte protocol
/// sniff).
pub const MAGIC: [u8; 4] = *b"CFB1";

/// The one protocol version this build speaks.
pub const VERSION: u16 = 1;

/// Hard cap on a single frame (length prefix + frame body), either
/// direction. Large enough for a 1M-value trace response; small enough
/// that a hostile length prefix cannot balloon memory.
pub const MAX_FRAME_BYTES: usize = 16 << 20;

/// Request frame types.
pub mod req_type {
    /// `load`.
    pub const LOAD: u8 = 0x01;
    /// `eval`.
    pub const EVAL: u8 = 0x02;
    /// `trace`.
    pub const TRACE: u8 = 0x03;
    /// `expected`.
    pub const EXPECTED: u8 = 0x04;
    /// `stats`.
    pub const STATS: u8 = 0x05;
    /// `shutdown`.
    pub const SHUTDOWN: u8 = 0x06;
    /// `metrics`.
    pub const METRICS: u8 = 0x07;
    /// `tracep` (explicit patterns).
    pub const TRACE_DIRECT: u8 = 0x08;
    /// `seqload` (sequential design, per-macro kernels).
    pub const SEQ_LOAD: u8 = 0x09;
    /// `seqeval` (fused cycle-stepped evaluation).
    pub const SEQ_EVAL: u8 = 0x0A;
}

/// Response frame types.
pub mod resp_type {
    /// `load` outcome.
    pub const LOAD: u8 = 0x81;
    /// `eval` outcome.
    pub const EVAL: u8 = 0x82;
    /// `trace` outcome.
    pub const TRACE: u8 = 0x83;
    /// `expected` outcome.
    pub const EXPECTED: u8 = 0x84;
    /// `stats` payload.
    pub const STATS: u8 = 0x85;
    /// `shutdown` acknowledged.
    pub const SHUTDOWN: u8 = 0x86;
    /// `metrics` payload.
    pub const METRICS: u8 = 0x87;
    /// `seqload` outcome.
    pub const SEQ_LOAD: u8 = 0x88;
    /// `seqeval` outcome.
    pub const SEQ_EVAL: u8 = 0x89;
    /// Typed error.
    pub const ERROR: u8 = 0xFF;
}

/// Encodes the client hello.
pub fn encode_hello(min: u16, max: u16) -> [u8; 8] {
    let mut hello = [0u8; 8];
    hello[..4].copy_from_slice(&MAGIC);
    hello[4..6].copy_from_slice(&min.to_le_bytes());
    hello[6..8].copy_from_slice(&max.to_le_bytes());
    hello
}

/// Parses the client hello: `(min, max)` supported versions.
///
/// # Errors
///
/// A diagnostic on bad magic or an inverted version range.
pub fn parse_hello(bytes: &[u8; 8]) -> Result<(u16, u16), String> {
    if bytes[..4] != MAGIC {
        return Err(format!("bad magic {:02x?}", &bytes[..4]));
    }
    let min = u16::from_le_bytes([bytes[4], bytes[5]]);
    let max = u16::from_le_bytes([bytes[6], bytes[7]]);
    if min > max {
        return Err(format!("inverted version range {min}..{max}"));
    }
    Ok((min, max))
}

/// Encodes the server's hello acknowledgement (`chosen == 0` rejects).
pub fn encode_hello_ack(chosen: u16) -> [u8; 6] {
    let mut ack = [0u8; 6];
    ack[..4].copy_from_slice(&MAGIC);
    ack[4..6].copy_from_slice(&chosen.to_le_bytes());
    ack
}

/// Parses the server's hello acknowledgement.
///
/// # Errors
///
/// A diagnostic on bad magic or a rejected negotiation (`chosen == 0`).
pub fn parse_hello_ack(bytes: &[u8; 6]) -> Result<u16, String> {
    if bytes[..4] != MAGIC {
        return Err(format!("bad magic {:02x?}", &bytes[..4]));
    }
    match u16::from_le_bytes([bytes[4], bytes[5]]) {
        0 => Err("server rejected version negotiation".to_owned()),
        v => Ok(v),
    }
}

/// One parsed frame boundary inside a read buffer.
pub struct FrameRef {
    /// Total bytes this frame occupies in the buffer (prefix included).
    pub consumed: usize,
    /// The frame type byte.
    pub ty: u8,
    /// Payload start offset in the buffer.
    pub payload_start: usize,
    /// Payload end offset in the buffer.
    pub payload_end: usize,
}

/// Tries to delimit the next frame in `buf`.
///
/// Returns `Ok(None)` while the frame is still incomplete (read more),
/// `Ok(Some(frame))` once the whole frame is buffered.
///
/// # Errors
///
/// A zero-length or oversized length prefix — detected *before* the
/// body arrives, so a hostile prefix never forces buffering. Framing
/// errors are unrecoverable: the caller must answer with a typed error
/// and close.
pub fn try_frame(buf: &[u8]) -> Result<Option<FrameRef>, String> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if len == 0 {
        return Err("zero-length frame (missing type byte)".to_owned());
    }
    if len > MAX_FRAME_BYTES {
        return Err(format!(
            "oversized frame: {len} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
        ));
    }
    if buf.len() < 4 + len {
        return Ok(None);
    }
    Ok(Some(FrameRef {
        consumed: 4 + len,
        ty: buf[4],
        payload_start: 5,
        payload_end: 4 + len,
    }))
}

// ---- the binary codec -----------------------------------------------

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// The binary [`Sink`]: fields appended positionally to a frame.
struct BinSink<'a>(&'a mut Vec<u8>);

impl Sink for BinSink<'_> {
    fn str(&mut self, _key: &'static str, v: &str) {
        put_u32(self.0, v.len() as u32);
        self.0.extend_from_slice(v.as_bytes());
    }

    fn u64(&mut self, _key: &'static str, v: &u64) {
        put_u64(self.0, *v);
    }

    fn num(&mut self, key: &'static str, v: &f64) {
        self.bits(key, v);
    }

    fn bits(&mut self, _key: &'static str, v: &f64) {
        put_u64(self.0, v.to_bits());
    }

    fn opt_u64(&mut self, _key: &'static str, v: &Option<u64>) {
        match v {
            Some(v) => {
                self.0.push(1);
                put_u64(self.0, *v);
            }
            None => self.0.push(0),
        }
    }

    fn flag(&mut self, _key: &'static str, v: &bool) {
        self.0.push(u8::from(*v));
    }

    fn opt_flag(&mut self, key: &'static str, v: &bool) {
        self.flag(key, v);
    }

    /// `num_inputs` and `num_patterns` (u32 each), then
    /// `ceil(num_inputs / 64)` little-endian `u64` words per pattern;
    /// input `i` is bit `i % 64` of word `i / 64`, so bit `i % 8` of
    /// byte `i / 8`.
    fn patterns(&mut self, _key: &'static str, v: &[Vec<bool>]) {
        let num_inputs = v.first().map_or(0, Vec::len);
        put_u32(self.0, num_inputs as u32);
        put_u32(self.0, v.len() as u32);
        let width = num_inputs.div_ceil(64) * 8;
        for pattern in v {
            let start = self.0.len();
            self.0.resize(start + width, 0);
            for (i, &bit) in pattern.iter().enumerate() {
                self.0[start + i / 8] |= u8::from(bit) << (i % 8);
            }
        }
    }

    fn values(&mut self, key: &'static str, v: &[f64]) {
        put_u32(self.0, v.len() as u32);
        for value in v {
            self.bits(key, value);
        }
    }

    fn macros(&mut self, _key: &'static str, v: &[WireMacroSummary]) {
        put_u32(self.0, v.len() as u32);
        for summary in v {
            self.summary(summary);
        }
    }

    fn json(&mut self, key: &'static str, v: &Json) {
        self.str(key, &v.to_line());
    }
}

/// The binary [`Source`]: one frame's payload, read positionally.
struct BinSource<'a> {
    ty: u8,
    buf: &'a [u8],
    pos: usize,
}

impl<'a> BinSource<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or_else(|| format!("truncated payload (need {n} more bytes)"))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn byte(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn word(&mut self) -> Result<u64, String> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// A declared element count, refused unless the rest of the payload
    /// can hold that many elements of at least `min_bytes` each — so a
    /// lying count never drives an allocation.
    fn count(&mut self, min_bytes: usize, what: &str) -> Result<usize, String> {
        let count = self.u32()? as usize;
        match count.checked_mul(min_bytes) {
            Some(need) if need <= self.buf.len() - self.pos => Ok(count),
            _ => Err(format!("{what} count {count} exceeds the payload")),
        }
    }
}

impl Source for BinSource<'_> {
    fn selects(&self, _name: &str, ty: u8) -> bool {
        self.ty == ty
    }

    fn str(&mut self, _key: &'static str) -> Result<String, String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| "non-UTF-8 string".to_owned())
    }

    fn u64(&mut self, _key: &'static str) -> Result<u64, String> {
        self.word()
    }

    fn num(&mut self, key: &'static str) -> Result<f64, String> {
        let v = self.bits(key)?;
        if v.is_finite() {
            Ok(v)
        } else {
            Err(format!("`{key}` must be finite"))
        }
    }

    fn bits(&mut self, _key: &'static str) -> Result<f64, String> {
        self.word().map(f64::from_bits)
    }

    fn opt_u64(&mut self, _key: &'static str) -> Result<Option<u64>, String> {
        match self.byte()? {
            0 => Ok(None),
            1 => Ok(Some(self.word()?)),
            other => Err(format!("bad presence byte {other:#04x}")),
        }
    }

    fn flag(&mut self, _key: &'static str) -> Result<bool, String> {
        Ok(self.byte()? != 0)
    }

    fn opt_flag(&mut self, key: &'static str) -> Result<bool, String> {
        self.flag(key)
    }

    fn patterns(&mut self, _key: &'static str) -> Result<Vec<Vec<bool>>, String> {
        let num_inputs = self.u32()? as usize;
        if num_inputs == 0 {
            return Err("patterns must have at least one input".to_owned());
        }
        let width = num_inputs.div_ceil(64) * 8;
        let count = self.count(width, "pattern")?;
        if width > self.buf.len() - self.pos {
            return Err(format!("{num_inputs}-input patterns exceed the payload"));
        }
        let mut patterns = Vec::with_capacity(count);
        for _ in 0..count {
            let bytes = self.take(width)?;
            patterns.push(
                (0..num_inputs)
                    .map(|i| bytes[i / 8] >> (i % 8) & 1 == 1)
                    .collect(),
            );
        }
        Ok(patterns)
    }

    fn values(&mut self, key: &'static str) -> Result<Vec<f64>, String> {
        let count = self.count(8, "value")?;
        let mut values = Vec::with_capacity(count);
        for _ in 0..count {
            values.push(self.bits(key)?);
        }
        Ok(values)
    }

    /// A summary is at least 20 bytes: an empty name's length prefix
    /// and two `f64`s.
    fn macros(&mut self, _key: &'static str) -> Result<Vec<WireMacroSummary>, String> {
        let count = self.count(20, "macro")?;
        let mut macros = Vec::with_capacity(count);
        for _ in 0..count {
            macros.push(self.summary()?);
        }
        Ok(macros)
    }

    fn json(&mut self, key: &'static str) -> Result<Json, String> {
        Ok(crate::json::parse(&self.str(key)?).unwrap_or(Json::Null))
    }
}

// ---- envelopes ------------------------------------------------------

/// Appends one frame of type `ty` (length prefix included) to `out`,
/// its payload written by `body`.
fn write_frame(out: &mut Vec<u8>, ty: u8, body: impl FnOnce(&mut BinSink)) {
    let start = out.len();
    put_u32(out, 0); // patched below
    out.push(ty);
    body(&mut BinSink(out));
    let len = (out.len() - start - 4) as u32;
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
}

/// Reads one frame's payload with `body`, refusing trailing bytes.
fn read_frame<T>(
    ty: u8,
    buf: &[u8],
    body: impl FnOnce(&mut BinSource) -> Result<T, String>,
) -> Result<T, String> {
    let mut source = BinSource { ty, buf, pos: 0 };
    let message = body(&mut source)?;
    match buf.len() - source.pos {
        0 => Ok(message),
        n => Err(format!("{n} trailing bytes after payload")),
    }
}

/// Appends one request frame (length prefix included) to `out`.
pub fn encode_request(req: &Request, out: &mut Vec<u8>) {
    write_frame(out, req.kind().map_or(0, Command::frame_type), |sink| {
        req.write_body(sink);
    });
}

/// Decodes one request frame body.
///
/// # Errors
///
/// A diagnostic suitable for a typed `bad-request` error frame.
pub fn decode_request(ty: u8, payload: &[u8]) -> Result<Request, String> {
    read_frame(ty, payload, |source| {
        Request::read_body(source)?.ok_or_else(|| format!("unknown request frame type {ty:#04x}"))
    })
}

/// Appends one response frame (length prefix included) to `out`. The
/// typed error frame is `0xFF`, the error code, the optional
/// `retry_after_ms`, then the message.
pub fn encode_response(resp: &Response, out: &mut Vec<u8>) {
    match resp {
        Response::Error {
            kind,
            message,
            retry_after_ms,
        } => write_frame(out, resp_type::ERROR, |sink| {
            sink.0.push(kind.code());
            sink.opt_u64("retry_after_ms", retry_after_ms);
            sink.str("error", message);
        }),
        _ => {
            let ty = resp.kind().map_or(0, ResponseKind::frame_type);
            write_frame(out, ty, |sink| resp.write_body(sink));
        }
    }
}

/// Decodes one response frame body.
///
/// # Errors
///
/// A diagnostic when the frame is not a valid response.
pub fn decode_response(ty: u8, payload: &[u8]) -> Result<Response, String> {
    read_frame(ty, payload, |source| {
        if ty != resp_type::ERROR {
            return Response::read_body(source)?
                .ok_or_else(|| format!("unknown response frame type {ty:#04x}"));
        }
        Ok(Response::Error {
            kind: ErrorKind::from_code(source.byte()?),
            retry_after_ms: source.opt_u64("retry_after_ms")?,
            message: source.str("error")?,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::WireBuildOptions;

    #[test]
    fn hello_negotiation_round_trips() {
        let hello = encode_hello(1, 3);
        assert_eq!(parse_hello(&hello).expect("parses"), (1, 3));
        let ack = encode_hello_ack(2);
        assert_eq!(parse_hello_ack(&ack).expect("parses"), 2);
        assert!(parse_hello_ack(&encode_hello_ack(0)).is_err(), "0 rejects");
        let mut bad = hello;
        bad[0] = b'X';
        assert!(parse_hello(&bad).is_err(), "bad magic rejected");
        assert!(parse_hello(&encode_hello(5, 2)).is_err(), "inverted range");
    }

    #[test]
    fn incomplete_frames_ask_for_more_bytes() {
        let mut buf = Vec::new();
        encode_request(&Request::Stats, &mut buf);
        for cut in 0..buf.len() {
            assert!(
                try_frame(&buf[..cut]).expect("no error").is_none(),
                "cut at {cut} must report incomplete"
            );
        }
        assert!(try_frame(&buf).expect("no error").is_some());
    }

    #[test]
    fn hostile_length_prefixes_are_rejected_from_the_prefix_alone() {
        // Oversized: rejected before any body is buffered.
        let huge = (MAX_FRAME_BYTES as u32 + 1).to_le_bytes();
        assert!(try_frame(&huge).is_err());
        // Zero-length: no room for the type byte.
        assert!(try_frame(&0u32.to_le_bytes()).is_err());
    }

    #[test]
    fn truncated_and_trailing_payloads_are_typed_errors() {
        let mut buf = Vec::new();
        encode_request(
            &Request::Load {
                source: "decod".to_owned(),
                options: WireBuildOptions::default(),
            },
            &mut buf,
        );
        let frame = try_frame(&buf).expect("frames").expect("complete");
        let payload = &buf[frame.payload_start..frame.payload_end];
        // Truncation at every split point must error, never panic.
        for cut in 0..payload.len() {
            assert!(decode_request(frame.ty, &payload[..cut]).is_err());
        }
        // Trailing garbage is rejected too (sync loss detection).
        let mut bloated = payload.to_vec();
        bloated.push(0xAB);
        assert!(decode_request(frame.ty, &bloated).is_err());
        // Unknown frame types are typed errors.
        assert!(decode_request(0x7E, payload).is_err());
        assert!(decode_response(0x13, payload).is_err());
    }

    #[test]
    fn lying_counts_inside_honest_frames_are_rejected_before_allocating() {
        // A trace response claiming 1M values with zero bytes of data.
        let mut trace = Vec::new();
        put_u32(&mut trace, 0); // name = ""
        put_u32(&mut trace, 1_000_000);
        assert!(decode_response(resp_type::TRACE, &trace).is_err());

        // A seqeval response claiming 10k macros in a 20-byte tail: the
        // count is checked against the bytes left, not the whole frame.
        let mut seqeval = Vec::new();
        put_u32(&mut seqeval, 0); // name = ""
        seqeval.extend_from_slice(&[0; 24]); // transitions, sum_ff, max_ff
        put_u32(&mut seqeval, 10_000);
        seqeval.extend_from_slice(&[0; 20]);
        let err = decode_response(resp_type::SEQ_EVAL, &seqeval).expect_err("rejected");
        assert!(err.contains("macro count"), "{err}");

        // A `tracep` frame declaring u32::MAX inputs for one pattern: a
        // 26-byte payload that used to request a 4 GiB allocation.
        let mut tracep = Vec::new();
        put_u32(&mut tracep, 8);
        tracep.extend_from_slice(b"overflow"); // source
        tracep.extend_from_slice(&[0; 5]); // build options: all unset
        tracep.push(0); // no deadline
        put_u32(&mut tracep, u32::MAX); // num_inputs
        put_u32(&mut tracep, 1); // num_patterns
        assert_eq!(tracep.len(), 26);
        let err = decode_request(req_type::TRACE_DIRECT, &tracep).expect_err("rejected");
        assert!(err.contains("pattern count"), "{err}");
        // The same width with no patterns: still a width no payload holds.
        tracep.truncate(22);
        put_u32(&mut tracep, 0); // num_patterns
        let err = decode_request(req_type::TRACE_DIRECT, &tracep).expect_err("rejected");
        assert!(err.contains("exceed the payload"), "{err}");
    }

    #[test]
    fn binary_eval_style_requests_drop_an_options_deadline() {
        let options = WireBuildOptions {
            deadline_ms: Some(5),
            ..WireBuildOptions::default()
        };
        let mut payload = Vec::new();
        BinSink(&mut payload).str("source", "decod");
        BinSink(&mut payload).options("options", &options);
        BinSink(&mut payload).params(
            "params",
            &crate::proto::WireEvalParams {
                vectors: 10,
                sp: 0.5,
                st: 0.4,
                seed: 1,
                deadline_ms: Some(30),
            },
        );
        match decode_request(req_type::EVAL, &payload).expect("decodes") {
            Request::Eval {
                options, params, ..
            } => {
                assert_eq!(options.deadline_ms, None, "not a model option");
                assert_eq!(params.deadline_ms, Some(30));
            }
            other => panic!("decoded {other:?}"),
        }
        // `load` keeps it: there it bounds the build.
        let mut payload = Vec::new();
        BinSink(&mut payload).str("source", "decod");
        BinSink(&mut payload).options("options", &options);
        assert!(matches!(
            decode_request(req_type::LOAD, &payload),
            Ok(Request::Load { options: got, .. }) if got == options
        ));
    }
}
