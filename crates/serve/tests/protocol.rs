//! Wire-protocol robustness over real sockets: binary framing attacks
//! (truncated/oversized prefixes, bad magic, mid-frame disconnects,
//! version mismatch) must produce typed errors — never a hang or a
//! panic; JSON and binary answers must be bit-identical; the idle
//! timeout must cut slow-loris connections with a typed error; the
//! metrics endpoints must serve the stable counter names; and a
//! connection past the cap must get one typed `overloaded` line.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use charfree_netlist::Library;
use charfree_serve::{
    wire, Client, ErrorKind, Proto, Request, Response, ServeConfig, Server, WireBuildOptions,
    WireEvalParams,
};

fn test_config() -> ServeConfig {
    let mut config = ServeConfig::new(Library::test_library());
    config.addr = "127.0.0.1:0".to_owned();
    config.log = false;
    config
}

fn eval_params(vectors: usize, seed: u64) -> WireEvalParams {
    WireEvalParams {
        vectors,
        sp: 0.5,
        st: 0.4,
        seed,
        deadline_ms: None,
    }
}

fn shutdown(server: Server, addr: &str) {
    let mut client = Client::connect(addr).expect("connects for shutdown");
    client.request(&Request::Shutdown).expect("shutdown");
    server.wait();
}

/// Reads the 6-byte hello ack off a raw stream.
fn read_ack(stream: &mut TcpStream) -> [u8; 6] {
    let mut ack = [0u8; 6];
    stream.read_exact(&mut ack).expect("ack arrives");
    ack
}

/// Reads one binary frame (length prefix + body) off a raw stream and
/// decodes it.
fn read_frame(stream: &mut TcpStream) -> Response {
    let mut prefix = [0u8; 4];
    stream
        .read_exact(&mut prefix)
        .expect("frame prefix arrives");
    let len = u32::from_le_bytes(prefix) as usize;
    assert!(len > 0 && len <= wire::MAX_FRAME_BYTES, "sane length {len}");
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body).expect("frame body arrives");
    wire::decode_response(body[0], &body[1..]).expect("frame decodes")
}

/// Reads to EOF with a bounded timeout, so a server that wrongly keeps
/// the connection open fails the test instead of hanging it.
fn assert_closed(stream: &mut TcpStream) {
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout set");
    let mut sink = [0u8; 256];
    loop {
        match stream.read(&mut sink) {
            Ok(0) => return,
            Ok(_) => continue,
            Err(e) => panic!("expected EOF, got {e}"),
        }
    }
}

#[test]
fn binary_and_json_protocols_answer_bit_identically() {
    let server = Server::start(test_config()).expect("binds");
    let addr = server.addr().to_string();

    let mut json = Client::connect_with(&addr, Proto::Json).expect("json connects");
    let mut binary = Client::connect_with(&addr, Proto::Binary).expect("binary negotiates");

    for (vectors, seed) in [(7usize, 1u64), (130, 2), (1000, 3)] {
        let request = Request::Trace {
            source: "decod".to_owned(),
            options: WireBuildOptions::default(),
            params: eval_params(vectors, seed),
        };
        let a = json.request(&request).expect("json responds");
        let b = binary.request(&request).expect("binary responds");
        match (a, b) {
            (Response::Trace { values: ja, .. }, Response::Trace { values: jb, .. }) => {
                assert_eq!(ja.len(), jb.len());
                for (x, y) in ja.iter().zip(&jb) {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "JSON and binary trace values must be bit-identical"
                    );
                }
            }
            other => panic!("unexpected responses {other:?}"),
        }
    }

    // eval summaries too (transitions + f64 aggregates).
    let request = Request::Eval {
        source: "cm85".to_owned(),
        options: WireBuildOptions::default(),
        params: eval_params(513, 9),
    };
    let a = json.request(&request).expect("json responds");
    let b = binary.request(&request).expect("binary responds");
    match (a, b) {
        (
            Response::Eval {
                transitions: ta,
                sum_ff: sa,
                max_ff: ma,
                ..
            },
            Response::Eval {
                transitions: tb,
                sum_ff: sb,
                max_ff: mb,
                ..
            },
        ) => {
            assert_eq!(ta, tb);
            assert_eq!(sa.to_bits(), sb.to_bits());
            assert_eq!(ma.to_bits(), mb.to_bits());
        }
        other => panic!("unexpected responses {other:?}"),
    }
    shutdown(server, &addr);
}

#[test]
fn binary_tracep_ships_explicit_patterns_and_stats_and_metrics_frames_work() {
    let server = Server::start(test_config()).expect("binds");
    let addr = server.addr().to_string();
    let mut client = Client::connect_with(&addr, Proto::Binary).expect("negotiates");

    // decod has 5 inputs; send an explicit 4-pattern staircase.
    let patterns: Vec<Vec<bool>> = (0..4u8)
        .map(|i| (0..5).map(|b| (i >> (b % 2)) & 1 == 1).collect())
        .collect();
    let request = Request::TraceDirect {
        source: "decod".to_owned(),
        options: WireBuildOptions::default(),
        patterns: patterns.clone(),
        deadline_ms: None,
    };
    match client.request(&request).expect("tracep responds") {
        Response::Trace { values, .. } => assert_eq!(values.len(), patterns.len() - 1),
        other => panic!("tracep got {other:?}"),
    }

    match client.request(&Request::Stats).expect("stats responds") {
        Response::Stats(snapshot) => {
            let accepted = snapshot.get("accepted").and_then(|v| v.as_u64());
            assert!(accepted.is_some_and(|n| n >= 2), "{accepted:?}");
        }
        other => panic!("stats got {other:?}"),
    }
    match client.request(&Request::Metrics).expect("metrics responds") {
        Response::Metrics(text) => {
            assert!(text.contains("charfree_accepted_total"), "{text}");
            assert!(
                text.contains("charfree_requests_total{cmd=\"tracep\"} 1"),
                "{text}"
            );
        }
        other => panic!("metrics got {other:?}"),
    }
    shutdown(server, &addr);
}

#[test]
fn bad_magic_gets_a_rejection_ack_and_a_typed_error() {
    let server = Server::start(test_config()).expect("binds");
    let addr = server.addr().to_string();

    let mut stream = TcpStream::connect(&addr).expect("connects");
    // First byte `C` routes to the binary hello path; the magic is wrong.
    stream.write_all(b"CXB1\x01\x00\x01\x00").expect("writes");
    let ack = read_ack(&mut stream);
    assert_eq!(u16::from_le_bytes([ack[4], ack[5]]), 0, "rejection ack");
    match read_frame(&mut stream) {
        Response::Error {
            kind: ErrorKind::BadRequest,
            message,
            ..
        } => assert!(message.contains("magic"), "{message}"),
        other => panic!("bad magic got {other:?}"),
    }
    assert_closed(&mut stream);
    shutdown(server, &addr);
}

#[test]
fn version_mismatch_is_a_typed_unsupported_error() {
    let server = Server::start(test_config()).expect("binds");
    let addr = server.addr().to_string();

    let mut stream = TcpStream::connect(&addr).expect("connects");
    // Offer only versions 5..=9; the server speaks 1.
    stream.write_all(&wire::encode_hello(5, 9)).expect("writes");
    let ack = read_ack(&mut stream);
    assert_eq!(u16::from_le_bytes([ack[4], ack[5]]), 0, "rejection ack");
    match read_frame(&mut stream) {
        Response::Error {
            kind: ErrorKind::Unsupported,
            message,
            ..
        } => assert!(message.contains("version"), "{message}"),
        other => panic!("version mismatch got {other:?}"),
    }
    assert_closed(&mut stream);
    shutdown(server, &addr);
}

#[test]
fn hostile_length_prefixes_get_typed_errors_not_buffering() {
    let server = Server::start(test_config()).expect("binds");
    let addr = server.addr().to_string();

    // Oversized: claims a frame far past MAX_FRAME_BYTES. The server
    // must reject from the prefix alone, without waiting for the body.
    let mut stream = TcpStream::connect(&addr).expect("connects");
    stream
        .write_all(&wire::encode_hello(wire::VERSION, wire::VERSION))
        .expect("hello");
    let ack = read_ack(&mut stream);
    assert_eq!(
        u16::from_le_bytes([ack[4], ack[5]]),
        wire::VERSION,
        "negotiates"
    );
    stream
        .write_all(&u32::MAX.to_le_bytes())
        .expect("oversized prefix");
    match read_frame(&mut stream) {
        Response::Error {
            kind: ErrorKind::BadRequest,
            message,
            ..
        } => assert!(message.contains("oversized"), "{message}"),
        other => panic!("oversized prefix got {other:?}"),
    }
    assert_closed(&mut stream);

    // Zero-length: a frame with no type byte is equally unrecoverable.
    let mut stream = TcpStream::connect(&addr).expect("connects");
    stream
        .write_all(&wire::encode_hello(wire::VERSION, wire::VERSION))
        .expect("hello");
    let _ = read_ack(&mut stream);
    stream.write_all(&0u32.to_le_bytes()).expect("zero prefix");
    match read_frame(&mut stream) {
        Response::Error {
            kind: ErrorKind::BadRequest,
            ..
        } => {}
        other => panic!("zero prefix got {other:?}"),
    }
    assert_closed(&mut stream);
    shutdown(server, &addr);
}

#[test]
fn mid_frame_disconnects_never_wedge_the_server() {
    let server = Server::start(test_config()).expect("binds");
    let addr = server.addr().to_string();

    // Several abrupt disconnects at different cut points: after the
    // hello, after a bare prefix, and mid-body.
    for cut in 0..3 {
        let mut stream = TcpStream::connect(&addr).expect("connects");
        stream
            .write_all(&wire::encode_hello(wire::VERSION, wire::VERSION))
            .expect("hello");
        let _ = read_ack(&mut stream);
        let mut frame = Vec::new();
        wire::encode_request(
            &Request::Load {
                source: "decod".to_owned(),
                options: WireBuildOptions::default(),
            },
            &mut frame,
        );
        let keep = match cut {
            0 => 0,
            1 => 4,
            _ => frame.len() - 3,
        };
        stream.write_all(&frame[..keep]).expect("partial frame");
        drop(stream); // mid-frame disconnect
    }

    // The server is still fully functional for a fresh binary client.
    let mut client = Client::connect_with(&addr, Proto::Binary).expect("negotiates");
    match client
        .request(&Request::Load {
            source: "decod".to_owned(),
            options: WireBuildOptions::default(),
        })
        .expect("load responds")
    {
        Response::Load { name, .. } => assert_eq!(name, "decod"),
        other => panic!("load got {other:?}"),
    }
    shutdown(server, &addr);
}

#[test]
fn slow_loris_connections_are_cut_with_a_typed_timeout() {
    let mut config = test_config();
    config.idle_timeout = Duration::from_millis(150);
    let server = Server::start(config).expect("binds");
    let addr = server.addr().to_string();

    // A half request and then silence: the idle cutoff must answer with
    // a typed timeout error and close.
    let stream = TcpStream::connect(&addr).expect("connects");
    let mut writer = stream.try_clone().expect("clone");
    writer.write_all(b"{\"cmd\":\"ev").expect("partial request");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader
        .get_ref()
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout set");
    reader.read_line(&mut line).expect("timeout line arrives");
    match Response::parse_line(line.trim_end()).expect("parses") {
        Response::Error {
            kind: ErrorKind::Timeout,
            message,
            ..
        } => assert!(message.contains("idle"), "{message}"),
        other => panic!("slow loris got {other:?}"),
    }
    let n = reader.read_line(&mut line).expect("then EOF");
    assert_eq!(n, 0, "connection closes after the timeout error");

    // The cut is visible in stats: an idle timeout and an idle-reason
    // net close.
    let mut client = Client::connect(&addr).expect("connects");
    match client.request(&Request::Stats).expect("stats") {
        Response::Stats(snapshot) => {
            let idle = snapshot
                .get("resilience")
                .and_then(|r| r.get("idle_timeouts"))
                .and_then(|v| v.as_u64());
            assert_eq!(idle, Some(1), "idle_timeouts counts the cut");
            let closed = snapshot
                .get("net")
                .and_then(|n| n.get("closed_idle"))
                .and_then(|v| v.as_u64());
            assert_eq!(closed, Some(1), "net close reason is idle");
        }
        other => panic!("stats got {other:?}"),
    }
    shutdown(server, &addr);
}

#[test]
fn get_metrics_is_served_on_the_main_port_and_the_dedicated_listener() {
    let mut config = test_config();
    config.metrics_addr = Some("127.0.0.1:0".to_owned());
    let server = Server::start(config).expect("binds");
    let addr = server.addr().to_string();
    let maddr = server.metrics_addr().expect("metrics listener").to_string();

    // Warm one counter so the scrape has something to show.
    let mut client = Client::connect(&addr).expect("connects");
    client
        .request(&Request::Load {
            source: "decod".to_owned(),
            options: WireBuildOptions::default(),
        })
        .expect("load");

    for target in [&addr, &maddr] {
        let mut stream = TcpStream::connect(target).expect("connects");
        stream
            .write_all(b"GET /metrics HTTP/1.0\r\n\r\n")
            .expect("request");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout set");
        let mut body = String::new();
        stream.read_to_string(&mut body).expect("response");
        assert!(body.starts_with("HTTP/1.0 200 OK\r\n"), "{body}");
        for needle in [
            "charfree_accepted_total",
            "charfree_requests_total{cmd=\"load\"} 1",
            "charfree_registry_entries 1",
            "charfree_net_connections_total",
        ] {
            assert!(body.contains(needle), "missing `{needle}` in:\n{body}");
        }
    }

    // Any other path 404s.
    let mut stream = TcpStream::connect(&maddr).expect("connects");
    stream
        .write_all(b"GET /other HTTP/1.0\r\n\r\n")
        .expect("request");
    let mut body = String::new();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout set");
    stream.read_to_string(&mut body).expect("response");
    assert!(body.starts_with("HTTP/1.0 404"), "{body}");
    shutdown(server, &addr);
}

#[test]
fn half_closing_one_shot_clients_still_get_their_response() {
    let server = Server::start(test_config()).expect("binds");
    let addr = server.addr().to_string();

    // Send one request and immediately half-close the write side (the
    // `printf ... | nc` pattern). The in-flight response must still
    // arrive before the server closes.
    let stream = TcpStream::connect(&addr).expect("connects");
    let mut writer = stream.try_clone().expect("clone");
    writer
        .write_all(b"{\"cmd\":\"load\",\"source\":\"decod\"}\n")
        .expect("writes");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader
        .get_ref()
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout set");
    reader.read_line(&mut line).expect("response arrives");
    match Response::parse_line(line.trim_end()).expect("parses") {
        Response::Load { name, .. } => assert_eq!(name, "decod"),
        other => panic!("half-close got {other:?}"),
    }
    shutdown(server, &addr);
}

#[test]
fn connections_past_the_cap_get_one_overloaded_line_and_scrapes_still_answer() {
    let mut config = test_config();
    config.idle_timeout = Duration::from_secs(300);
    config.metrics_addr = Some("127.0.0.1:0".to_owned());
    let server = Server::start(config).expect("binds");
    let addr = server.addr().to_string();
    let maddr = server.metrics_addr().expect("metrics listener").to_string();

    // Fill the request port to its cap of 64 live connections.
    let mut clients: Vec<Client> = (0..64)
        .map(|_| Client::connect(&addr).expect("connects"))
        .collect();

    // The 65th gets exactly one typed `overloaded` line, then EOF.
    let mut extra = TcpStream::connect(&addr).expect("connects");
    extra
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout set");
    let mut reply = String::new();
    extra.read_to_string(&mut reply).expect("line then EOF");
    assert_eq!(reply.matches('\n').count(), 1, "one line: {reply:?}");
    match Response::parse_line(reply.trim_end()).expect("parses") {
        Response::Error {
            kind: ErrorKind::Overloaded,
            retry_after_ms,
            ..
        } => assert!(retry_after_ms.is_some(), "the rejection is retriable"),
        other => panic!("over-cap connection got {other:?}"),
    }

    // An earlier connection still gets answers, and the rejection
    // counts as shed.
    match clients[0].request(&Request::Stats).expect("stats") {
        Response::Stats(snapshot) => {
            let shed = snapshot.get("shed").and_then(|v| v.as_u64());
            assert_eq!(shed, Some(1), "the rejection counts as shed");
        }
        other => panic!("stats got {other:?}"),
    }

    // The dedicated metrics listener is exempt from the cap.
    let mut scrape = TcpStream::connect(&maddr).expect("connects");
    scrape
        .write_all(b"GET /metrics HTTP/1.0\r\n\r\n")
        .expect("request");
    scrape
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout set");
    let mut body = String::new();
    scrape.read_to_string(&mut body).expect("response");
    assert!(body.starts_with("HTTP/1.0 200 OK\r\n"), "{body}");
    assert!(body.contains("charfree_shed_total 1"), "{body}");

    // Drain over a connection that is already open: a fresh one would
    // meet the cap.
    let mut last = clients.pop().expect("a client");
    drop(clients);
    assert!(matches!(
        last.request(&Request::Shutdown).expect("shutdown"),
        Response::Shutdown
    ));
    server.wait();
}
