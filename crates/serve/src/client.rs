//! Blocking client for the wire protocols (JSON lines or binary
//! frames), with optional retry/backoff.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use crate::proto::{Request, Response};
use crate::wire;

/// How long a client waits for one response line before giving up (a
/// cold build of a large benchmark is the slow path this must cover).
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(600);

/// Which wire encoding a [`Client`] speaks. Both carry the same
/// requests and responses with bit-identical f64 results; binary skips
/// JSON formatting/parsing and ships pattern blocks and trace values as
/// raw little-endian words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Proto {
    /// Newline-delimited JSON requests and responses.
    Json,
    /// Length-prefixed binary frames (magic `CFB1`, negotiated version).
    Binary,
}

impl Proto {
    /// Parses a `--proto` flag value.
    ///
    /// # Errors
    ///
    /// Anything other than `json` or `binary`.
    pub fn parse(s: &str) -> Result<Proto, String> {
        match s {
            "json" => Ok(Proto::Json),
            "binary" => Ok(Proto::Binary),
            other => Err(format!("unknown protocol `{other}` (expected json|binary)")),
        }
    }

    /// The flag spelling.
    pub fn name(self) -> &'static str {
        match self {
            Proto::Json => "json",
            Proto::Binary => "binary",
        }
    }
}

/// Retry behavior for [`Client::request_with_retries`].
///
/// A request is retried when the server sheds it with a retriable typed
/// error (`overloaded`, `draining`, `model-unavailable` — see
/// [`crate::ErrorKind::retriable`]), when any error response carries a
/// `retry_after_ms` hint, or when the transport itself drops
/// mid-request (the client reconnects first). Definitive failures
/// (`bad-request`, `build-failed`, …) are never retried.
///
/// The wait before attempt *n* is `max(server hint, base·2ⁿ)` capped at
/// `cap`, with deterministic "equal jitter" (half fixed, half hashed
/// from `seed` and the attempt number) so a thundering herd of shed
/// clients decorrelates without a global RNG.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 = current single-shot
    /// behavior).
    pub retries: u32,
    /// First backoff step.
    pub base: Duration,
    /// Backoff ceiling.
    pub cap: Duration,
    /// Jitter seed; vary per client to decorrelate retry storms.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            retries: 0,
            base: Duration::from_millis(25),
            cap: Duration::from_secs(2),
            seed: 0x9e37_79b9_7f4a_7c15,
        }
    }
}

impl RetryPolicy {
    /// The jittered wait before retry `attempt` (0-based), honoring the
    /// server's `retry_after_ms` hint as a floor.
    fn backoff(&self, attempt: u32, hint_ms: Option<u64>) -> Duration {
        let factor = 1u32 << attempt.min(16);
        let exp = (self.base * factor).min(self.cap);
        let floor = Duration::from_millis(hint_ms.unwrap_or(0));
        let wait = exp.max(floor);
        // Equal jitter: half the wait is fixed, half is a deterministic
        // hash of (seed, attempt).
        let half_ms = wait.as_millis().max(2) as u64 / 2;
        let jitter = charfree_netlist::rng::splitmix64(self.seed ^ (u64::from(attempt) << 32))
            % (half_ms + 1);
        Duration::from_millis(half_ms + jitter)
    }
}

/// Is this transport error worth a reconnect-and-retry? Connection
/// drops mid-request (a draining or restarting server) qualify; local
/// configuration errors and malformed responses do not.
fn reconnectable(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::UnexpectedEof
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::ConnectionRefused
    )
}

/// A blocking connection to a `charfree serve` instance; requests are
/// answered in order on one socket.
pub struct Client {
    addr: String,
    proto: Proto,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to `addr` (e.g. `127.0.0.1:7878`) speaking JSON lines.
    ///
    /// # Errors
    ///
    /// Propagates connect/configuration failures.
    pub fn connect(addr: &str) -> io::Result<Client> {
        Client::connect_with(addr, Proto::Json)
    }

    /// Connects speaking the given protocol. For [`Proto::Binary`] this
    /// performs the hello/ack version negotiation before returning.
    ///
    /// # Errors
    ///
    /// Connect/configuration failures, and (binary) a rejected or
    /// malformed hello ack (`InvalidData`).
    pub fn connect_with(addr: &str, proto: Proto) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(RESPONSE_TIMEOUT))?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        let mut client = Client {
            addr: addr.to_owned(),
            proto,
            reader: BufReader::new(stream),
            writer,
        };
        if proto == Proto::Binary {
            client
                .writer
                .write_all(&wire::encode_hello(wire::VERSION, wire::VERSION))?;
            client.writer.flush()?;
            let mut ack = [0u8; 6];
            client.reader.read_exact(&mut ack)?;
            let chosen = wire::parse_hello_ack(&ack)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            if chosen != wire::VERSION {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("server chose unsupported protocol version {chosen}"),
                ));
            }
        }
        Ok(client)
    }

    /// The negotiated protocol.
    pub fn proto(&self) -> Proto {
        self.proto
    }

    /// Sends one request and blocks for its response.
    ///
    /// # Errors
    ///
    /// I/O failures, timeouts, and malformed responses (reported as
    /// `InvalidData`).
    pub fn request(&mut self, request: &Request) -> io::Result<Response> {
        match self.proto {
            Proto::Json => self.request_json(request),
            Proto::Binary => self.request_binary(request),
        }
    }

    fn request_json(&mut self, request: &Request) -> io::Result<Response> {
        writeln!(self.writer, "{}", request.to_line())?;
        self.writer.flush()?;
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Response::parse_line(line.trim_end())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    fn request_binary(&mut self, request: &Request) -> io::Result<Response> {
        let mut frame = Vec::new();
        wire::encode_request(request, &mut frame);
        self.writer.write_all(&frame)?;
        self.writer.flush()?;
        let mut prefix = [0u8; 4];
        self.reader.read_exact(&mut prefix)?;
        let len = u32::from_le_bytes(prefix) as usize;
        if len == 0 || len > wire::MAX_FRAME_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("invalid response frame length {len}"),
            ));
        }
        let mut body = vec![0u8; len];
        self.reader.read_exact(&mut body)?;
        wire::decode_response(body[0], &body[1..])
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// Sends one request, retrying retriable shed responses and dropped
    /// connections per `policy`. With `policy.retries == 0` this is
    /// exactly [`Client::request`].
    ///
    /// # Errors
    ///
    /// The final attempt's failure, after the retry budget is spent.
    pub fn request_with_retries(
        &mut self,
        request: &Request,
        policy: &RetryPolicy,
    ) -> io::Result<Response> {
        let mut attempt = 0u32;
        loop {
            let outcome = self.request(request);
            let hint = match &outcome {
                Ok(Response::Error {
                    kind,
                    retry_after_ms,
                    ..
                }) if kind.retriable() || retry_after_ms.is_some() => Some(*retry_after_ms),
                Err(e) if reconnectable(e) => Some(None),
                _ => return outcome,
            };
            if attempt >= policy.retries {
                return outcome;
            }
            let hint = hint.unwrap_or(None);
            std::thread::sleep(policy.backoff(attempt, hint));
            attempt += 1;
            if outcome.is_err() {
                // The transport died; rebuild it (same protocol) before
                // retrying. If the server is still down, keep burning the
                // retry budget on the connect error.
                match Client::connect_with(&self.addr, self.proto) {
                    Ok(fresh) => *self = fresh,
                    Err(_) => continue,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_capped_and_honors_the_server_hint() {
        let policy = RetryPolicy {
            retries: 5,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(80),
            seed: 7,
        };
        // Deterministic per (seed, attempt).
        assert_eq!(policy.backoff(0, None), policy.backoff(0, None));
        // Grows, then caps: every wait is within [half, full] of the
        // capped exponential.
        for attempt in 0..6 {
            let wait = policy.backoff(attempt, None);
            let exp = (policy.base * (1 << attempt)).min(policy.cap);
            assert!(wait <= exp, "attempt {attempt}: {wait:?} > {exp:?}");
            assert!(
                wait >= exp / 2 - Duration::from_millis(1),
                "attempt {attempt}: {wait:?} below half of {exp:?}"
            );
        }
        // A server hint above the exponential floors the wait.
        let hinted = policy.backoff(0, Some(500));
        assert!(hinted >= Duration::from_millis(250), "{hinted:?}");
    }

    #[test]
    fn reconnectable_errors_are_the_transport_drops() {
        for kind in [
            io::ErrorKind::UnexpectedEof,
            io::ErrorKind::ConnectionReset,
            io::ErrorKind::ConnectionRefused,
            io::ErrorKind::BrokenPipe,
        ] {
            assert!(reconnectable(&io::Error::new(kind, "x")), "{kind:?}");
        }
        assert!(!reconnectable(&io::Error::new(
            io::ErrorKind::InvalidData,
            "malformed response"
        )));
        assert_eq!(Proto::parse("binary"), Ok(Proto::Binary));
        assert!(Proto::parse("grpc").is_err());
    }
}
