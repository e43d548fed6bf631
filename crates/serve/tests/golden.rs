//! Golden wire bytes: one instance of every `Request` and `Response`
//! variant, encoded by both codecs, pinned as hex fixtures in
//! `tests/golden/messages.hex`.
//!
//! Every case runs through both codecs:
//!
//! * binary frames and JSON response lines must be byte-identical to the
//!   fixture, and decode back to the same message;
//! * JSON request lines must parse back to the same request; their bytes
//!   must match the fixture too, except that `tracep` may order its
//!   `deadline_ms` and `patterns` keys either way (the key *set* and every
//!   value must still match).

use std::collections::BTreeMap;
use std::path::PathBuf;

use charfree_serve::json::{parse, Json};
use charfree_serve::proto::WireMacroSummary;
use charfree_serve::{wire, ErrorKind, Request, Response, WireBuildOptions, WireEvalParams};

enum Message {
    Request(Request),
    Response(Response),
}

fn params(vectors: usize, sp: f64, st: f64, seed: u64, deadline_ms: Option<u64>) -> WireEvalParams {
    WireEvalParams {
        vectors,
        sp,
        st,
        seed,
        deadline_ms,
    }
}

fn max_nodes(n: usize) -> WireBuildOptions {
    WireBuildOptions {
        max_nodes: Some(n),
        ..WireBuildOptions::default()
    }
}

fn macro_summary(name: &str, sum_ff: f64, max_ff: f64) -> WireMacroSummary {
    WireMacroSummary {
        name: name.to_owned(),
        sum_ff,
        max_ff,
    }
}

/// The one table of wire cases, by fixture name.
fn cases() -> Vec<(&'static str, Message)> {
    use Message::{Request as Q, Response as R};
    let awkward = vec![
        0.1 + 0.2,
        f64::NEG_INFINITY,
        -0.0,
        1.0e-308,
        12345.678901234567,
    ];
    vec![
        (
            "request.load.all_options",
            Q(Request::Load {
                source: "decod".to_owned(),
                options: WireBuildOptions {
                    max_nodes: Some(300),
                    upper_bound: true,
                    node_budget: Some(500),
                    strict: true,
                    deadline_ms: Some(750),
                },
            }),
        ),
        (
            "request.load.no_options",
            Q(Request::Load {
                source: "decod".to_owned(),
                options: WireBuildOptions::default(),
            }),
        ),
        (
            "request.eval",
            Q(Request::Eval {
                source: "x.blif".to_owned(),
                options: WireBuildOptions::default(),
                params: params(500, 0.5, 0.3, u64::MAX, None),
            }),
        ),
        (
            "request.trace.all_options",
            Q(Request::Trace {
                source: "decod".to_owned(),
                options: WireBuildOptions {
                    max_nodes: Some(128),
                    upper_bound: true,
                    node_budget: Some(4096),
                    strict: true,
                    deadline_ms: None,
                },
                params: params(64, 0.25, 0.75, 7, Some(10)),
            }),
        ),
        (
            "request.trace.max_nodes",
            Q(Request::Trace {
                source: "decod".to_owned(),
                options: max_nodes(128),
                params: params(64, 0.25, 0.75, 7, Some(10)),
            }),
        ),
        (
            "request.tracep.narrow_deadline",
            Q(Request::TraceDirect {
                source: "decod".to_owned(),
                options: WireBuildOptions::default(),
                patterns: vec![
                    vec![false, true, false, true, true],
                    vec![true, true, false, false, false],
                ],
                deadline_ms: Some(100),
            }),
        ),
        (
            "request.tracep.wide",
            Q(Request::TraceDirect {
                source: "wide".to_owned(),
                options: WireBuildOptions::default(),
                // 70 inputs forces two packed words per pattern.
                patterns: (0..5)
                    .map(|p| (0..70).map(|i| (i + p) % 3 == 0).collect())
                    .collect(),
                deadline_ms: None,
            }),
        ),
        (
            "request.expected",
            Q(Request::Expected {
                source: "decod".to_owned(),
                sp: 0.1,
                st: 0.9,
            }),
        ),
        (
            "request.seqload.max_nodes_200",
            Q(Request::SeqLoad {
                source: "pipe2.blif".to_owned(),
                options: max_nodes(200),
            }),
        ),
        (
            "request.seqload.max_nodes_4096",
            Q(Request::SeqLoad {
                source: "pipe2.blif".to_owned(),
                options: max_nodes(4096),
            }),
        ),
        (
            "request.seqeval",
            Q(Request::SeqEval {
                source: "pipe2.blif".to_owned(),
                options: WireBuildOptions::default(),
                params: params(256, 0.5, 0.4, 11, None),
            }),
        ),
        (
            "request.seqeval.deadline",
            Q(Request::SeqEval {
                source: "pipe2.blif".to_owned(),
                options: WireBuildOptions::default(),
                params: params(256, 0.5, 0.4, 11, Some(900)),
            }),
        ),
        ("request.stats", Q(Request::Stats)),
        ("request.metrics", Q(Request::Metrics)),
        ("request.shutdown", Q(Request::Shutdown)),
        (
            "response.load",
            R(Response::Load {
                name: "decod".to_owned(),
                instrs: 42,
                terminals: 7,
                bytes: 1024,
                apply_steps: 0,
                resident: true,
            }),
        ),
        (
            "response.eval",
            R(Response::Eval {
                name: "decod".to_owned(),
                transitions: 499,
                sum_ff: 0.1 + 0.2,
                max_ff: 151.0,
            }),
        ),
        (
            "response.trace.four",
            R(Response::Trace {
                name: "decod".to_owned(),
                values: awkward[..4].to_vec(),
            }),
        ),
        (
            "response.trace.five",
            R(Response::Trace {
                name: "decod".to_owned(),
                values: awkward.clone(),
            }),
        ),
        (
            "response.expected",
            R(Response::Expected {
                name: "decod".to_owned(),
                value: -0.0,
            }),
        ),
        (
            "response.seqload",
            R(Response::SeqLoad {
                name: "pipe2".to_owned(),
                macros: 2,
                latches: 2,
                instrs: 99,
                bytes: 4096,
                apply_steps: 0,
                cache_hits: 2,
                resident: false,
            }),
        ),
        (
            "response.seqeval.a",
            R(Response::SeqEval {
                name: "pipe2".to_owned(),
                transitions: 255,
                sum_ff: 0.1 + 0.2,
                max_ff: 151.0,
                macros: vec![
                    macro_summary("pipe2__m0", 1.5, -0.0),
                    macro_summary("pipe2__m1", f64::NEG_INFINITY, 1.0e-308),
                ],
            }),
        ),
        (
            "response.seqeval.b",
            R(Response::SeqEval {
                name: "pipe2".to_owned(),
                transitions: 255,
                sum_ff: 0.1 + 0.2,
                max_ff: 42.0,
                macros: vec![
                    macro_summary("pipe2__m0", -0.0, 1.0e-308),
                    macro_summary("pipe2__m1", f64::NEG_INFINITY, 7.5),
                ],
            }),
        ),
        (
            "response.stats",
            R(Response::Stats(Json::Obj(vec![
                ("accepted".to_owned(), Json::num(3)),
                (
                    "registry".to_owned(),
                    Json::Obj(vec![
                        ("entries".to_owned(), Json::num(1)),
                        ("hits".to_owned(), Json::num(2)),
                    ]),
                ),
                ("batch_fill".to_owned(), Json::Arr(vec![Json::num(0)])),
            ]))),
        ),
        (
            "response.metrics.one",
            R(Response::Metrics("charfree_requests_total 7\n".to_owned())),
        ),
        (
            "response.metrics.two",
            R(Response::Metrics(
                "charfree_requests_total 7\ncharfree_batches_total 3\n".to_owned(),
            )),
        ),
        ("response.shutdown", R(Response::Shutdown)),
        (
            "response.error.retry",
            R(Response::Error {
                kind: ErrorKind::Overloaded,
                message: "423 in flight".to_owned(),
                retry_after_ms: Some(25),
            }),
        ),
        (
            "response.error.plain",
            R(Response::Error {
                kind: ErrorKind::BadRequest,
                message: "missing `cmd` field".to_owned(),
                retry_after_ms: None,
            }),
        ),
    ]
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(text: &str) -> Vec<u8> {
    (0..text.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&text[i..i + 2], 16).expect("fixture hex"))
        .collect()
}

/// `(json line, binary frame)` for one message, from the current codecs.
fn encode(message: &Message) -> (Vec<u8>, Vec<u8>) {
    let mut frame = Vec::new();
    let line = match message {
        Message::Request(req) => {
            wire::encode_request(req, &mut frame);
            req.to_line()
        }
        Message::Response(resp) => {
            wire::encode_response(resp, &mut frame);
            resp.to_line()
        }
    };
    (line.into_bytes(), frame)
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/messages.hex")
}

/// `name codec` → bytes.
fn fixtures() -> BTreeMap<(String, String), Vec<u8>> {
    let text = std::fs::read_to_string(fixture_path()).expect("golden fixture file");
    text.lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|line| {
            let mut parts = line.split(' ');
            let name = parts.next().expect("name").to_owned();
            let codec = parts.next().expect("codec").to_owned();
            let bytes = unhex(parts.next().expect("hex"));
            ((name, codec), bytes)
        })
        .collect()
}

/// An object's fields sorted by key (for the order-insensitive check).
fn sorted_fields(line: &[u8]) -> Vec<(String, String)> {
    let text = std::str::from_utf8(line).expect("utf-8 line");
    let Json::Obj(fields) = parse(text).expect("json line") else {
        panic!("not an object: {text}");
    };
    let mut fields: Vec<(String, String)> =
        fields.into_iter().map(|(k, v)| (k, v.to_line())).collect();
    fields.sort();
    fields
}

fn decode_frame<T>(frame: &[u8], decode: fn(u8, &[u8]) -> Result<T, String>) -> T {
    let f = wire::try_frame(frame)
        .expect("frames")
        .expect("complete frame");
    assert_eq!(f.consumed, frame.len(), "one frame, nothing trailing");
    decode(f.ty, &frame[f.payload_start..f.payload_end]).expect("decodes")
}

#[test]
fn every_variant_matches_its_golden_bytes_through_both_codecs() {
    let fixtures = fixtures();
    let cases = cases();
    assert_eq!(
        fixtures.len(),
        2 * cases.len(),
        "one fixture per case and codec"
    );
    for (name, message) in &cases {
        let want = |codec: &str| {
            fixtures
                .get(&((*name).to_owned(), codec.to_owned()))
                .unwrap_or_else(|| panic!("no {codec} fixture for `{name}`"))
        };
        let (json, binary) = encode(message);
        let (want_json, want_binary) = (want("json"), want("binary"));
        assert!(!json.contains(&b'\n'), "{name}: one JSON line");
        assert_eq!(hex(&binary), hex(want_binary), "{name}: binary frame bytes");
        match message {
            Message::Request(req) => {
                if matches!(req, Request::TraceDirect { .. }) {
                    assert_eq!(
                        sorted_fields(&json),
                        sorted_fields(want_json),
                        "{name}: JSON fields"
                    );
                } else {
                    assert_eq!(hex(&json), hex(want_json), "{name}: JSON line bytes");
                }
                let line = std::str::from_utf8(want_json).expect("utf-8");
                assert_eq!(
                    &Request::parse_line(line).expect("JSON parses"),
                    req,
                    "{name}: JSON decode"
                );
                assert_eq!(
                    &decode_frame(want_binary, wire::decode_request),
                    req,
                    "{name}: binary decode"
                );
            }
            Message::Response(resp) => {
                assert_eq!(hex(&json), hex(want_json), "{name}: JSON line bytes");
                let line = std::str::from_utf8(want_json).expect("utf-8");
                let from_json = Response::parse_line(line).expect("JSON parses");
                let from_binary = decode_frame(want_binary, wire::decode_response);
                // Bit-exact: the decoded values re-encode to the same bytes
                // (`==` alone would let -0.0 pass for 0.0).
                for decoded in [from_json, from_binary] {
                    assert_eq!(&decoded, resp, "{name}: decode");
                    let (json_again, binary_again) = encode(&Message::Response(decoded));
                    assert_eq!(json_again, json, "{name}: JSON re-encode");
                    assert_eq!(binary_again, binary, "{name}: binary re-encode");
                }
            }
        }
    }
}
