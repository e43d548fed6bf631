//! End-to-end server tests over real sockets: bit-identical parity under
//! cross-connection micro-batching, admission-control shedding, and
//! graceful drain semantics.

use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Duration;

use charfree_engine::TraceEngine;
use charfree_netlist::Library;
use charfree_pipeline::{BuildOptions, PipelineCtx, Source};
use charfree_serve::{
    Client, ErrorKind, Request, Response, ServeConfig, Server, WireBuildOptions, WireEvalParams,
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

/// The offline reference: the same pattern generation and evaluation the
/// `charfree eval`/`trace` subcommands run, with no server involved.
fn offline(source: &str, params: &WireEvalParams) -> (String, Vec<f64>) {
    let mut ctx = PipelineCtx::new(Library::test_library());
    let kernel = ctx.kernel_for(&Source::infer(source)).expect("builds");
    let patterns =
        charfree_sim::MarkovSource::new(kernel.num_inputs(), params.sp, params.st, params.seed)
            .expect("feasible")
            .sequence(params.vectors.max(2));
    let values = TraceEngine::new(&kernel).trace(&patterns);
    (kernel.name().to_owned(), values)
}

#[test]
fn multi_connection_mixed_workload_is_bit_identical_to_offline() {
    let mut config = test_config();
    config.jobs = 2;
    config.batch_window = Duration::from_millis(30);
    let server = Server::start(config).expect("binds");
    let addr = server.addr().to_string();

    // Mixed replay: eval and trace requests on two models from six
    // concurrent connections, released together so the 30ms window
    // actually coalesces them into shared pattern blocks.
    let cases: Vec<(&str, usize, u64, bool)> = vec![
        ("decod", 130, 1, false),
        ("decod", 7, 2, true),
        ("decod", 4099, 3, false),
        ("cm85", 65, 4, true),
        ("cm85", 513, 5, false),
        ("decod", 1000, 6, true),
    ];
    let barrier = Arc::new(Barrier::new(cases.len()));
    let handles: Vec<_> = cases
        .iter()
        .map(|&(source, vectors, seed, want_trace)| {
            let addr = addr.clone();
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("connects");
                let params = eval_params(vectors, seed);
                let request = if want_trace {
                    Request::Trace {
                        source: source.to_owned(),
                        options: WireBuildOptions::default(),
                        params: params.clone(),
                    }
                } else {
                    Request::Eval {
                        source: source.to_owned(),
                        options: WireBuildOptions::default(),
                        params: params.clone(),
                    }
                };
                barrier.wait();
                let response = client.request(&request).expect("responds");
                (source, params, want_trace, response)
            })
        })
        .collect();

    for handle in handles {
        let (source, params, want_trace, response) = handle.join().expect("client thread");
        let (name, values) = offline(source, &params);
        match response {
            Response::Eval {
                name: got_name,
                transitions,
                sum_ff,
                max_ff,
            } => {
                assert!(!want_trace);
                let reference = charfree_engine::TraceSummary::from_values(&values);
                assert_eq!(got_name, name);
                assert_eq!(transitions, reference.transitions);
                assert_eq!(sum_ff.to_bits(), reference.sum_ff.to_bits(), "{source}");
                assert_eq!(max_ff.to_bits(), reference.max_ff.to_bits(), "{source}");
            }
            Response::Trace {
                name: got_name,
                values: got_values,
            } => {
                assert!(want_trace);
                assert_eq!(got_name, name);
                assert_eq!(got_values.len(), values.len());
                for (t, (a, b)) in got_values.iter().zip(&values).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "{source} transition {t}");
                }
            }
            other => panic!("unexpected response {other:?}"),
        }
    }

    // The coalescing must actually have happened: fewer executed batches
    // than requests (at least two requests shared a window).
    let mut client = Client::connect(&addr).expect("connects");
    if let Response::Stats(stats) = client.request(&Request::Stats).expect("stats") {
        let batches = stats
            .get("batches")
            .and_then(|v| v.as_u64())
            .expect("batches");
        let batched = stats
            .get("batched_requests")
            .and_then(|v| v.as_u64())
            .expect("batched_requests");
        assert_eq!(batched, 6, "all six requests went through the dispatcher");
        assert!(
            batches < batched,
            "coalescing never engaged: {batches} batches for {batched} requests"
        );
    } else {
        panic!("stats request failed");
    }

    assert!(matches!(
        client.request(&Request::Shutdown).expect("shutdown"),
        Response::Shutdown
    ));
    server.wait();
}

#[test]
fn warm_loads_do_zero_apply_steps() {
    let cache = std::env::temp_dir().join(format!("charfree-serve-test-{}", std::process::id()));
    let mut config = test_config();
    config.cache_dir = Some(cache.clone());
    let server = Server::start(config).expect("binds");
    let addr = server.addr().to_string();

    let mut client = Client::connect(&addr).expect("connects");
    let load = Request::Load {
        source: "decod".to_owned(),
        options: WireBuildOptions::default(),
    };
    let cold = client.request(&load).expect("cold load");
    let warm = client.request(&load).expect("warm load");
    match (cold, warm) {
        (
            Response::Load {
                apply_steps: cold_steps,
                resident: false,
                ..
            },
            Response::Load {
                apply_steps: 0,
                resident: true,
                ..
            },
        ) => assert!(cold_steps > 0, "a cold build performs apply steps"),
        other => panic!("unexpected load responses {other:?}"),
    }

    client.request(&Request::Shutdown).expect("shutdown");
    server.wait();
    let _ = std::fs::remove_dir_all(cache);
}

/// A cold load's apply steps are those of a fresh offline build of the
/// same netlist and options, whatever the server built before it.
#[test]
fn cold_load_steps_do_not_depend_on_earlier_builds() {
    let server = Server::start(test_config()).expect("binds");
    let mut client = Client::connect(&server.addr().to_string()).expect("connects");
    let load = |max_nodes| Request::Load {
        source: "decod".to_owned(),
        options: WireBuildOptions {
            max_nodes,
            ..WireBuildOptions::default()
        },
    };
    let exact = client.request(&load(None)).expect("exact load");
    assert!(
        matches!(
            exact,
            Response::Load {
                resident: false,
                ..
            }
        ),
        "{exact:?}"
    );
    let bounded = client.request(&load(Some(20))).expect("bounded load");
    let Response::Load {
        apply_steps,
        resident: false,
        ..
    } = bounded
    else {
        panic!("unexpected load response {bounded:?}");
    };

    let mut ctx = PipelineCtx::new(Library::test_library()).with_options(BuildOptions {
        max_nodes: Some(20),
        ..BuildOptions::default()
    });
    let netlist = ctx
        .load_netlist(&Source::Bench("decod".to_owned()))
        .expect("built-in benchmark");
    ctx.build_model(&netlist).expect("builds");
    assert_eq!(apply_steps, ctx.apply_steps());

    client.request(&Request::Shutdown).expect("shutdown");
    server.wait();
}

#[test]
fn overload_sheds_with_typed_errors_and_recovers() {
    let mut config = test_config();
    config.max_inflight = 1;
    // A long window keeps the one admitted request in flight while the
    // burst arrives, so shedding engages deterministically.
    config.batch_window = Duration::from_millis(300);
    let server = Server::start(config).expect("binds");
    let addr = server.addr().to_string();

    let barrier = Arc::new(Barrier::new(5));
    let handles: Vec<_> = (0..5u64)
        .map(|seed| {
            let addr = addr.clone();
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("connects");
                let request = Request::Eval {
                    source: "decod".to_owned(),
                    options: WireBuildOptions::default(),
                    params: eval_params(50, seed),
                };
                barrier.wait();
                client.request(&request).expect("responds")
            })
        })
        .collect();
    let mut ok = 0;
    let mut shed = 0;
    for handle in handles {
        match handle.join().expect("client thread") {
            Response::Eval { .. } => ok += 1,
            Response::Error {
                kind: ErrorKind::Overloaded,
                retry_after_ms,
                ..
            } => {
                assert!(retry_after_ms.is_some(), "shed responses carry a backoff");
                shed += 1;
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert!(ok >= 1, "at least the admitted request completes");
    assert!(shed >= 1, "a 5-burst against max_inflight=1 must shed");

    // The server recovers: a lone request after the burst succeeds.
    let mut client = Client::connect(&addr).expect("connects");
    assert!(matches!(
        client
            .request(&Request::Eval {
                source: "decod".to_owned(),
                options: WireBuildOptions::default(),
                params: eval_params(50, 99),
            })
            .expect("responds"),
        Response::Eval { .. }
    ));
    client.request(&Request::Shutdown).expect("shutdown");
    server.wait();
}

#[test]
fn graceful_drain_completes_accepted_requests() {
    let mut config = test_config();
    // The window keeps the accepted request in flight long enough for
    // the shutdown to land first.
    config.batch_window = Duration::from_millis(200);
    let server = Server::start(config).expect("binds");
    let addr = server.addr().to_string();

    let worker = {
        let addr = addr.clone();
        thread::spawn(move || {
            let mut client = Client::connect(&addr).expect("connects");
            client
                .request(&Request::Eval {
                    source: "decod".to_owned(),
                    options: WireBuildOptions::default(),
                    params: eval_params(2000, 7),
                })
                .expect("in-flight request survives the drain")
        })
    };
    // Let the eval request reach the dispatcher, then drain.
    thread::sleep(Duration::from_millis(60));
    let mut control = Client::connect(&addr).expect("connects");
    assert!(matches!(
        control.request(&Request::Shutdown).expect("shutdown"),
        Response::Shutdown
    ));
    server.wait(); // returns only once everything is flushed

    let response = worker.join().expect("worker thread");
    let params = eval_params(2000, 7);
    let (_, values) = offline("decod", &params);
    let reference = charfree_engine::TraceSummary::from_values(&values);
    match response {
        Response::Eval {
            sum_ff,
            transitions,
            ..
        } => {
            assert_eq!(transitions, reference.transitions);
            assert_eq!(sum_ff.to_bits(), reference.sum_ff.to_bits());
        }
        other => panic!("the accepted request must complete, got {other:?}"),
    }

    // And the port no longer accepts work.
    match Client::connect(&addr) {
        Err(_) => {}
        Ok(mut client) => {
            // A race can let one last connect through before the listener
            // closes; it must at least refuse to serve.
            match client.request(&Request::Stats) {
                Err(_) => {}
                Ok(Response::Error { .. }) => {}
                Ok(other) => panic!("drained server answered {other:?}"),
            }
        }
    }
}

#[test]
fn expected_matches_the_kernel_analytic_path() {
    let server = Server::start(test_config()).expect("binds");
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).expect("connects");

    let mut ctx = PipelineCtx::new(Library::test_library());
    let kernel = ctx.kernel_for(&Source::infer("decod")).expect("builds");
    let reference = kernel.expected_capacitance(0.3, 0.6);

    match client
        .request(&Request::Expected {
            source: "decod".to_owned(),
            sp: 0.3,
            st: 0.6,
        })
        .expect("responds")
    {
        Response::Expected { name, value } => {
            assert_eq!(name, kernel.name());
            assert_eq!(value.to_bits(), reference.to_bits());
        }
        other => panic!("unexpected response {other:?}"),
    }
    client.request(&Request::Shutdown).expect("shutdown");
    server.wait();
}

#[test]
fn expected_rejects_infeasible_statistics() {
    let server = Server::start(test_config()).expect("binds");
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).expect("connects");

    // st above 2·min(sp, 1−sp), sp outside (0, 1), negative st: each a
    // typed bad request, and the service thread survives to answer the
    // next one.
    for (sp, st) in [(0.2, 0.9), (1.5, 0.5), (0.5, -0.1)] {
        match client
            .request(&Request::Expected {
                source: "decod".to_owned(),
                sp,
                st,
            })
            .expect("responds")
        {
            Response::Error {
                kind: ErrorKind::BadRequest,
                message,
                ..
            } => assert!(message.contains("infeasible"), "{message}"),
            other => panic!("({sp}, {st}) got {other:?}"),
        }
    }
    assert!(matches!(
        client
            .request(&Request::Expected {
                source: "decod".to_owned(),
                sp: 0.5,
                st: 0.4,
            })
            .expect("responds"),
        Response::Expected { .. }
    ));
    client.request(&Request::Shutdown).expect("shutdown");
    server.wait();
}

#[test]
fn deeply_nested_request_line_is_rejected_without_crashing() {
    // ~200KB of `[` is well under the 1MB line limit but used to drive
    // the recursive-descent JSON parser ~200k frames deep, overflowing
    // the connection thread's stack and aborting the whole process. It
    // must instead come back as a typed bad-request, with the server
    // fully alive afterwards.
    let server = Server::start(test_config()).expect("binds");
    let addr = server.addr().to_string();

    use std::io::{BufRead, BufReader, Write};
    let stream = std::net::TcpStream::connect(&addr).expect("connects");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let attack = "[".repeat(200_000);
    writeln!(writer, "{attack}").expect("writes");
    let mut line = String::new();
    reader.read_line(&mut line).expect("reads");
    match Response::parse_line(line.trim_end()).expect("parses") {
        Response::Error {
            kind: ErrorKind::BadRequest,
            ..
        } => {}
        other => panic!("deep nesting got {other:?}"),
    }

    // The process survived and still serves.
    let mut client = Client::connect(&addr).expect("connects");
    assert!(matches!(
        client.request(&Request::Stats).expect("stats"),
        Response::Stats(_)
    ));
    client.request(&Request::Shutdown).expect("shutdown");
    server.wait();
}

#[test]
fn oversized_vectors_requests_are_rejected_not_evaluated() {
    let mut config = test_config();
    config.max_vectors = 100;
    let server = Server::start(config).expect("binds");
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).expect("connects");

    // One past the cap: a typed bad-request, before any pattern storage
    // is allocated.
    match client
        .request(&Request::Eval {
            source: "decod".to_owned(),
            options: WireBuildOptions::default(),
            params: eval_params(101, 1),
        })
        .expect("responds")
    {
        Response::Error {
            kind: ErrorKind::BadRequest,
            message,
            ..
        } => assert!(message.contains("max-vectors"), "{message}"),
        other => panic!("over-cap request got {other:?}"),
    }
    // At the cap: served normally.
    assert!(matches!(
        client
            .request(&Request::Eval {
                source: "decod".to_owned(),
                options: WireBuildOptions::default(),
                params: eval_params(100, 1),
            })
            .expect("responds"),
        Response::Eval { .. }
    ));
    client.request(&Request::Shutdown).expect("shutdown");
    server.wait();
}

#[test]
fn eval_targets_the_loaded_build_options() {
    let server = Server::start(test_config()).expect("binds");
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).expect("connects");

    let options = WireBuildOptions {
        max_nodes: Some(64),
        ..WireBuildOptions::default()
    };
    let load = |client: &mut Client, options: &WireBuildOptions| match client
        .request(&Request::Load {
            source: "decod".to_owned(),
            options: options.clone(),
        })
        .expect("load responds")
    {
        Response::Load { resident, .. } => resident,
        other => panic!("load got {other:?}"),
    };
    assert!(!load(&mut client, &options), "first load is cold");
    // Evaluating with the same options must hit the loaded model, not
    // silently build and evaluate a second, default-option model.
    assert!(matches!(
        client
            .request(&Request::Eval {
                source: "decod".to_owned(),
                options: options.clone(),
                params: eval_params(50, 3),
            })
            .expect("responds"),
        Response::Eval { .. }
    ));
    assert!(
        load(&mut client, &options),
        "the options build is still the resident one after eval"
    );
    assert!(
        !load(&mut client, &WireBuildOptions::default()),
        "no default-option model was built behind the client's back"
    );

    client.request(&Request::Shutdown).expect("shutdown");
    server.wait();
}

#[test]
fn deadline_bounded_builds_never_become_registry_resident() {
    let server = Server::start(test_config()).expect("binds");
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).expect("connects");

    let load = |client: &mut Client, options: &WireBuildOptions| match client
        .request(&Request::Load {
            source: "cm85".to_owned(),
            options: options.clone(),
        })
        .expect("load responds")
    {
        Response::Load { resident, .. } => resident,
        other => panic!("load got {other:?}"),
    };
    // A deadline-bounded build is timing-dependent (the degradation
    // point depends on wall clock), so it serves its own request but is
    // never inserted: a repeat load is cold again.
    let deadline_options = WireBuildOptions {
        deadline_ms: Some(60_000),
        ..WireBuildOptions::default()
    };
    assert!(!load(&mut client, &deadline_options));
    assert!(
        !load(&mut client, &deadline_options),
        "a deadline-bounded build must not have been cached"
    );
    // A deterministic build under the same structural key does insert,
    // and subsequent deadline-bounded requests may reuse it.
    assert!(!load(&mut client, &WireBuildOptions::default()));
    assert!(load(&mut client, &WireBuildOptions::default()));
    assert!(
        load(&mut client, &deadline_options),
        "a resident deterministic build satisfies a deadline-bounded request"
    );
    client.request(&Request::Shutdown).expect("shutdown");
    server.wait();
}

#[test]
fn malformed_lines_get_typed_bad_request_responses() {
    let server = Server::start(test_config()).expect("binds");
    let addr = server.addr().to_string();

    use std::io::{BufRead, BufReader, Write};
    let stream = std::net::TcpStream::connect(&addr).expect("connects");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    for bad in ["this is not json", "{\"cmd\":\"frobnicate\"}", "{}"] {
        writeln!(writer, "{bad}").expect("writes");
        let mut line = String::new();
        reader.read_line(&mut line).expect("reads");
        match Response::parse_line(line.trim_end()).expect("parses") {
            Response::Error {
                kind: ErrorKind::BadRequest,
                ..
            } => {}
            other => panic!("`{bad}` got {other:?}"),
        }
    }
    drop(writer);
    drop(reader);
    let mut client = Client::connect(&addr).expect("connects");
    client.request(&Request::Shutdown).expect("shutdown");
    server.wait();
}

/// Every counter in the `stats` payload reconciles exactly against a
/// scripted single-connection session: per-command tallies sum to
/// `accepted`, completed + errors accounts for every response (modulo
/// the in-flight stats request itself), the batch-fill histogram sums
/// to the batch count, and the registry reports exactly one cold
/// resolve (two misses: the pre- and post-build-lock probes) plus one
/// warm hit per follow-up request. A sequential design lives in the
/// same registry: its cold `seqload` adds one entry and two misses, and
/// the `seq` gauges and the metrics exposition agree with it.
#[test]
fn stats_counters_reconcile_after_scripted_session() {
    let dir = std::env::temp_dir().join(format!("charfree-serve-recon-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let seq_path = dir.join("pipe2.blif");
    std::fs::write(&seq_path, SEQ_PIPE2).expect("writes blif");
    let server = Server::start(test_config()).expect("binds");
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).expect("connects");

    let options = WireBuildOptions::default();
    // 1. Cold load: 2 registry misses (double-checked build lock).
    assert!(matches!(
        client
            .request(&Request::Load {
                source: "decod".to_owned(),
                options: options.clone(),
            })
            .expect("load"),
        Response::Load { .. }
    ));
    // 2-3. Two warm evals, 4. one warm trace: 3 hits, 3 batched jobs.
    for seed in [1u64, 2] {
        assert!(matches!(
            client
                .request(&Request::Eval {
                    source: "decod".to_owned(),
                    options: options.clone(),
                    params: eval_params(16, seed),
                })
                .expect("eval"),
            Response::Eval { .. }
        ));
    }
    assert!(matches!(
        client
            .request(&Request::Trace {
                source: "decod".to_owned(),
                options: options.clone(),
                params: eval_params(16, 3),
            })
            .expect("trace"),
        Response::Trace { .. }
    ));
    // 5. Expected: warm hit, analytic path (not batched).
    assert!(matches!(
        client
            .request(&Request::Expected {
                source: "decod".to_owned(),
                sp: 0.5,
                st: 0.4,
            })
            .expect("expected"),
        Response::Expected { .. }
    ));
    // 6. A load that parses but cannot build: accepted, then an error
    // (and two more registry misses from the failed resolve).
    assert!(matches!(
        client
            .request(&Request::Load {
                source: "no-such-bench-zzz".to_owned(),
                options,
            })
            .expect("responds"),
        Response::Error { .. }
    ));
    // 6b. A cold seqload: 2 more registry misses, one more entry.
    assert!(matches!(
        client
            .request(&Request::SeqLoad {
                source: seq_path.to_string_lossy().into_owned(),
                options: WireBuildOptions::default(),
            })
            .expect("seqload"),
        Response::SeqLoad { .. }
    ));
    // 7. A malformed line: an error that was never *accepted* (it dies
    // before command dispatch), so it must not disturb per_command.
    {
        use std::io::{BufRead, BufReader, Write};
        let stream = std::net::TcpStream::connect(&addr).expect("connects");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        writeln!(writer, "this is not json").expect("writes");
        let mut line = String::new();
        reader.read_line(&mut line).expect("reads");
        assert!(matches!(
            Response::parse_line(line.trim_end()).expect("parses"),
            Response::Error {
                kind: ErrorKind::BadRequest,
                ..
            }
        ));
    }

    // 8. Snapshot. The stats request itself is already counted as
    // accepted, but its completion lands only after the snapshot.
    let Response::Stats(stats) = client.request(&Request::Stats).expect("stats") else {
        panic!("stats request failed");
    };
    let get = |key: &str| -> u64 {
        stats
            .get(key)
            .and_then(|v| v.as_u64())
            .unwrap_or_else(|| panic!("stats payload missing `{key}`: {stats:?}"))
    };
    let per = stats.get("per_command").expect("per_command");
    let per_cmd = |key: &str| -> u64 { per.get(key).and_then(|v| v.as_u64()).expect("per-cmd") };

    assert_eq!(per_cmd("load"), 2);
    assert_eq!(per_cmd("eval"), 2);
    assert_eq!(per_cmd("trace"), 1);
    assert_eq!(per_cmd("expected"), 1);
    assert_eq!(per_cmd("seqload"), 1);
    assert_eq!(per_cmd("stats"), 1);
    assert_eq!(per_cmd("shutdown"), 0);
    let per_sum: u64 = [
        "load", "eval", "trace", "expected", "seqload", "stats", "shutdown",
    ]
    .iter()
    .map(|c| per_cmd(c))
    .sum();
    assert_eq!(get("accepted"), per_sum, "accepted = sum of per-command");

    // 6 ok responses before the snapshot; 2 errors (failed build +
    // malformed line); the in-flight stats request is accepted but not
    // yet completed; nothing was shed in a calm sequential session.
    assert_eq!(get("completed"), 6);
    assert_eq!(get("errors"), 2);
    assert_eq!(get("shed"), 0);
    assert_eq!(
        get("completed") + get("errors") + 1,
        get("accepted") + 1,
        "every accepted request except the in-flight stats resolved; \
         the malformed line added an error without an acceptance"
    );

    // Exactly the three eval/trace jobs went through the dispatcher, in
    // at least one and at most three micro-batches, and the fill
    // histogram files one entry per executed batch.
    assert_eq!(get("batched_requests"), 3);
    let batches = get("batches");
    assert!((1..=3).contains(&batches), "batches = {batches}");
    let fill_sum: u64 = match stats.get("batch_fill") {
        Some(charfree_serve::json::Json::Arr(cells)) => {
            cells.iter().filter_map(|v| v.as_u64()).sum()
        }
        other => panic!("batch_fill missing or mistyped: {other:?}"),
    };
    assert_eq!(fill_sum, batches, "one fill sample per executed batch");

    // Registry: two resident models; 2 cold resolves (2 misses each) +
    // 1 failed resolve (2 misses) + 4 warm resolves (1 hit each).
    let registry = stats.get("registry").expect("registry");
    let reg = |key: &str| -> u64 {
        registry
            .get(key)
            .and_then(|v| v.as_u64())
            .expect("registry field")
    };
    assert_eq!(reg("entries"), 2);
    assert_eq!(reg("hits"), 4);
    assert_eq!(reg("misses"), 6);
    assert_eq!(reg("evictions"), 0);

    // The `seq` gauges count the design resident in that same registry.
    let seq = stats.get("seq").expect("seq section");
    let seq_field = |key: &str| -> u64 { seq.get(key).and_then(|v| v.as_u64()).expect("seq") };
    assert_eq!(seq_field("designs"), 1);
    assert_eq!(seq_field("macros_resident"), 2);
    assert_eq!(seq_field("loads"), 1);
    assert_eq!(seq_field("evals"), 0);

    // The metrics exposition renders the same registry state.
    let Response::Metrics(body) = client.request(&Request::Metrics).expect("metrics") else {
        panic!("metrics request failed");
    };
    for needle in [
        "charfree_registry_entries 2",
        "charfree_registry_bytes ",
        "charfree_registry_misses_total 6",
        "charfree_seq_designs 1",
        "charfree_seq_macros_resident 2",
        "charfree_seq_loads_total 1",
    ] {
        assert!(body.contains(needle), "missing `{needle}` in:\n{body}");
    }
    let resident_bytes = format!("charfree_registry_bytes {}\n", reg("bytes"));
    assert!(body.contains(&resident_bytes), "{body}");

    client.request(&Request::Shutdown).expect("shutdown");
    server.wait();
    let _ = std::fs::remove_dir_all(dir);
}

/// Two register-bounded macros with state fed back across the boundary:
/// stage 1 (`xor2`+`and2`) reads `q2` from stage 2, stage 2
/// (`or2`+`inv`) reads `q1` from stage 1.
const SEQ_PIPE2: &str = "\
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

#[test]
fn seqload_and_seqeval_match_offline_bit_exactly_on_both_protocols() {
    use charfree_serve::Proto;

    let dir = std::env::temp_dir().join(format!("charfree-serve-seq-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let blif_path = dir.join("pipe2.blif");
    std::fs::write(&blif_path, SEQ_PIPE2).expect("writes blif");
    let source = blif_path.to_string_lossy().into_owned();

    let mut config = test_config();
    config.cache_dir = Some(dir.join("cache"));
    let server = Server::start(config).expect("binds");
    let addr = server.addr().to_string();

    // Offline reference: the same fused cycle-stepped evaluation the
    // `charfree seqeval` subcommand runs, no server involved.
    let params = eval_params(300, 0xBEEF);
    let seq = charfree_netlist::blif::parse_seq(SEQ_PIPE2).expect("parses");
    let mut ctx = PipelineCtx::new(Library::test_library());
    let model = charfree_seq::SeqModel::build(&mut ctx, seq).expect("builds");
    let patterns =
        charfree_sim::MarkovSource::new(model.num_inputs(), params.sp, params.st, params.seed)
            .expect("feasible")
            .sequence(params.vectors.max(2));
    let reference = model.eval_fused(&patterns);

    for (round, proto) in [Proto::Json, Proto::Binary].into_iter().enumerate() {
        let mut client = Client::connect_with(&addr, proto).expect("connects");
        let load = client
            .request(&Request::SeqLoad {
                source: source.clone(),
                options: WireBuildOptions::default(),
            })
            .expect("seqload");
        match load {
            Response::SeqLoad {
                macros,
                latches,
                apply_steps,
                resident,
                ..
            } => {
                assert_eq!(macros, 2, "{proto:?}");
                assert_eq!(latches, 2, "{proto:?}");
                if round == 0 {
                    assert!(!resident, "first load is cold");
                    assert!(apply_steps > 0, "cold build performs apply steps");
                } else {
                    assert!(resident, "second protocol reuses the registry entry");
                    assert_eq!(apply_steps, 0, "resident hit does no work");
                }
            }
            other => panic!("unexpected seqload response {other:?}"),
        }
        let eval = client
            .request(&Request::SeqEval {
                source: source.clone(),
                options: WireBuildOptions::default(),
                params: params.clone(),
            })
            .expect("seqeval");
        match eval {
            Response::SeqEval {
                name,
                transitions,
                sum_ff,
                max_ff,
                macros,
            } => {
                assert_eq!(name, "pipe2");
                assert_eq!(transitions, reference.total.transitions);
                assert_eq!(
                    sum_ff.to_bits(),
                    reference.total.sum_ff.to_bits(),
                    "{proto:?}"
                );
                assert_eq!(
                    max_ff.to_bits(),
                    reference.total.max_ff.to_bits(),
                    "{proto:?}"
                );
                assert_eq!(macros.len(), reference.per_macro.len());
                for (got, want) in macros.iter().zip(&reference.per_macro) {
                    assert_eq!(got.name, want.name);
                    assert_eq!(got.sum_ff.to_bits(), want.summary.sum_ff.to_bits());
                    assert_eq!(got.max_ff.to_bits(), want.summary.max_ff.to_bits());
                }
            }
            other => panic!("unexpected seqeval response {other:?}"),
        }
    }

    let mut client = Client::connect(&addr).expect("connects");
    // A sequential BLIF through the combinational entry point is a typed
    // rejection naming the sequential path, not a panic or a wrong model.
    match client
        .request(&Request::Load {
            source: source.clone(),
            options: WireBuildOptions::default(),
        })
        .expect("responds")
    {
        Response::Error { kind, message, .. } => {
            assert_eq!(kind, ErrorKind::BadRequest);
            assert!(
                message.contains("seqeval") || message.contains("parse_seq"),
                "{message}"
            );
        }
        other => panic!("combinational load of a .latch design succeeded: {other:?}"),
    }
    // And seq commands reject non-netlist sources with a typed error.
    match client
        .request(&Request::SeqLoad {
            source: "decod".to_owned(),
            options: WireBuildOptions::default(),
        })
        .expect("responds")
    {
        Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::Unsupported),
        other => panic!("bench operand accepted by seqload: {other:?}"),
    }

    // The seq gauges are live in stats and metrics.
    let stats = match client.request(&Request::Stats).expect("stats") {
        Response::Stats(json) => json,
        other => panic!("unexpected stats response {other:?}"),
    };
    let seq_stats = stats.get("seq").expect("seq section");
    let field = |key: &str| seq_stats.get(key).and_then(|v| v.as_u64()).expect("field");
    assert_eq!(field("designs"), 1);
    assert_eq!(field("macros_resident"), 2);
    assert_eq!(field("loads"), 3, "two good + one rejected seqload");
    assert_eq!(field("evals"), 2);
    match client.request(&Request::Metrics).expect("metrics") {
        Response::Metrics(body) => {
            for needle in [
                "charfree_seq_designs 1",
                "charfree_seq_macros_resident 2",
                "charfree_seq_loads_total 3",
                "charfree_seq_evals_total 2",
            ] {
                assert!(body.contains(needle), "missing `{needle}` in:\n{body}");
            }
        }
        other => panic!("unexpected metrics response {other:?}"),
    }

    client.request(&Request::Shutdown).expect("shutdown");
    server.wait();
    let _ = std::fs::remove_dir_all(dir);
}

/// The committed two-stage sequential design.
const SEQPIPE2_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../netlist/benchmarks/seqpipe2.blif"
);

/// A zero `max_nodes` or `node_budget` asks for a model that cannot
/// exist. Both codecs read build options through one reader, which
/// answers a typed `bad-request` before any build. Then the server
/// still answers `stats` and evaluates bit-identically to offline: a
/// zero ceiling that reached the model builder would panic the thread
/// serving it, and enough of those leave no thread to answer anything.
#[test]
fn zero_build_ceilings_are_bad_requests_and_the_server_keeps_serving() {
    use charfree_serve::Proto;
    use std::io::{BufRead, BufReader, Write};

    let server = Server::start(test_config()).expect("binds");
    let addr = server.addr().to_string();
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let session_addr = addr.clone();
    // The session runs on its own thread, so a server that never answers
    // fails this test at the timeout below instead of hanging it.
    let session = thread::spawn(move || {
        let addr = session_addr;
        let expect_bad_request = |what: &str, response: Response| match response {
            Response::Error {
                kind: ErrorKind::BadRequest,
                ..
            } => {}
            other => panic!("{what} got {other:?}"),
        };

        // Three raw JSON lines.
        let stream = std::net::TcpStream::connect(&addr).expect("connects");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        for line in [
            r#"{"cmd":"load","source":"decod","max_nodes":0}"#,
            r#"{"cmd":"load","source":"decod","node_budget":0}"#,
            r#"{"cmd":"load","source":"decod","max_nodes":0,"node_budget":0}"#,
        ] {
            writeln!(writer, "{line}").expect("writes");
            let mut answer = String::new();
            reader.read_line(&mut answer).expect("reads");
            let response = Response::parse_line(answer.trim_end()).expect("parses");
            expect_bad_request(line, response);
        }

        // Two binary loads and a binary seqload.
        let mut client = Client::connect_with(&addr, Proto::Binary).expect("connects");
        let zero_max = WireBuildOptions {
            max_nodes: Some(0),
            ..WireBuildOptions::default()
        };
        let zero_budget = WireBuildOptions {
            node_budget: Some(0),
            ..WireBuildOptions::default()
        };
        for (what, request) in [
            (
                "binary load max_nodes=0",
                Request::Load {
                    source: "decod".to_owned(),
                    options: zero_max.clone(),
                },
            ),
            (
                "binary load node_budget=0",
                Request::Load {
                    source: "decod".to_owned(),
                    options: zero_budget,
                },
            ),
            (
                "binary seqload max_nodes=0",
                Request::SeqLoad {
                    source: SEQPIPE2_PATH.to_owned(),
                    options: zero_max,
                },
            ),
        ] {
            expect_bad_request(what, client.request(&request).expect("responds"));
        }

        let mut client = Client::connect(&addr).expect("connects");
        assert!(matches!(
            client.request(&Request::Stats).expect("stats"),
            Response::Stats(_)
        ));
        let params = eval_params(500, 0x5EED);
        let (name, values) = offline("decod", &params);
        let reference = charfree_engine::TraceSummary::from_values(&values);
        let request = Request::Eval {
            source: "decod".to_owned(),
            options: WireBuildOptions::default(),
            params,
        };
        match client.request(&request).expect("eval") {
            Response::Eval {
                name: got_name,
                transitions,
                sum_ff,
                max_ff,
            } => {
                assert_eq!(got_name, name);
                assert_eq!(transitions, reference.transitions);
                assert_eq!(sum_ff.to_bits(), reference.sum_ff.to_bits());
                assert_eq!(max_ff.to_bits(), reference.max_ff.to_bits());
            }
            other => panic!("unexpected eval response {other:?}"),
        }
        let _ = done_tx.send(());
    });
    let answered = done_rx.recv_timeout(Duration::from_secs(120)).is_ok();
    if !answered && session.is_finished() {
        if let Err(panic) = session.join() {
            std::panic::resume_unwind(panic);
        }
    }
    assert!(answered, "the server stopped answering within 120 s");

    let mut client = Client::connect(&addr).expect("connects");
    client.request(&Request::Shutdown).expect("shutdown");
    server.wait();
}

/// A `stats` snapshot's top-level counter and a `per_command` count.
fn stats_counter(client: &mut Client, key: &str, command: &str) -> (u64, u64) {
    let Response::Stats(stats) = client.request(&Request::Stats).expect("stats") else {
        panic!("stats request failed");
    };
    let top = stats.get(key).and_then(|v| v.as_u64()).expect("counter");
    let per = stats
        .get("per_command")
        .and_then(|per| per.get(command))
        .and_then(|v| v.as_u64())
        .expect("per-command count");
    (top, per)
}

/// `seqeval` is a dispatcher job: on one batch worker, four long
/// `seqeval`s queue behind each other there, while the service threads
/// stay free to answer `stats` before any of them completes.
#[test]
fn seqevals_run_on_the_batch_workers_and_leave_the_service_threads_free() {
    use charfree_netlist::benchmarks::committed::SEQPIPE2;
    use std::time::Instant;

    let dir = std::env::temp_dir().join(format!("charfree-serve-seqjob-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("seqpipe2.blif");
    std::fs::write(&path, SEQPIPE2).expect("writes blif");
    let source = path.to_string_lossy().into_owned();

    let mut config = test_config();
    config.jobs = 1;
    let server = Server::start(config).expect("binds");
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).expect("connects");
    let seqeval = |vectors: usize, seed: u64| Request::SeqEval {
        source: source.clone(),
        options: WireBuildOptions::default(),
        params: eval_params(vectors, seed),
    };
    let load = Request::SeqLoad {
        source: source.clone(),
        options: WireBuildOptions::default(),
    };
    assert!(matches!(
        client.request(&load).expect("seqload"),
        Response::SeqLoad { .. }
    ));
    // Size each seqeval to take about a second on this build.
    let started = Instant::now();
    assert!(matches!(
        client.request(&seqeval(20_000, 0)).expect("seqeval"),
        Response::SeqEval { .. }
    ));
    let per_vector = started.elapsed().as_secs_f64() / 20_000.0;
    let vectors = ((1.0 / per_vector) as usize).clamp(20_000, 4_000_000);

    let (completed, seqevals) = stats_counter(&mut client, "completed", "seqeval");
    let (batched, _) = stats_counter(&mut client, "batched_requests", "seqeval");
    let in_flight: Vec<_> = (0..4)
        .map(|i| {
            let (addr, request) = (addr.clone(), seqeval(vectors, 1 + i));
            thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("connects");
                client.request(&request).expect("seqeval")
            })
        })
        .collect();
    // Once all four are accepted, none may have completed: every
    // completion so far is one of this connection's own `stats`.
    for poll in 0u64.. {
        let (now_completed, now_seqevals) = stats_counter(&mut client, "completed", "seqeval");
        assert_eq!(
            now_completed,
            completed + 2 + poll,
            "a seqeval completed before `stats` was answered"
        );
        if now_seqevals == seqevals + 4 {
            break;
        }
        thread::sleep(Duration::from_millis(2));
    }
    for handle in in_flight {
        match handle.join().expect("client thread") {
            Response::SeqEval { transitions, .. } => assert_eq!(transitions, vectors - 1),
            other => panic!("unexpected seqeval response {other:?}"),
        }
    }
    let (now_batched, _) = stats_counter(&mut client, "batched_requests", "seqeval");
    assert_eq!(now_batched, batched + 4, "each seqeval is one batched job");

    client.request(&Request::Shutdown).expect("shutdown");
    server.wait();
    let _ = std::fs::remove_dir_all(dir);
}

/// `seqeval` keeps `eval`'s deadline policy: a deadline that has passed
/// by dispatch is a typed `deadline-exceeded`, not an evaluation.
#[test]
fn seqeval_with_an_expired_deadline_is_shed_like_eval() {
    use charfree_netlist::benchmarks::committed::SEQPIPE2;

    let dir = std::env::temp_dir().join(format!("charfree-serve-seqdl-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("seqpipe2.blif");
    std::fs::write(&path, SEQPIPE2).expect("writes blif");
    let source = path.to_string_lossy().into_owned();

    let server = Server::start(test_config()).expect("binds");
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).expect("connects");
    let load = Request::SeqLoad {
        source: source.clone(),
        options: WireBuildOptions::default(),
    };
    assert!(matches!(
        client.request(&load).expect("seqload"),
        Response::SeqLoad { .. }
    ));
    let request = Request::SeqEval {
        source,
        options: WireBuildOptions::default(),
        params: WireEvalParams {
            deadline_ms: Some(0),
            ..eval_params(500, 3)
        },
    };
    match client.request(&request).expect("responds") {
        Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::DeadlineExceeded),
        other => panic!("an expired seqeval was evaluated: {other:?}"),
    }

    client.request(&Request::Shutdown).expect("shutdown");
    server.wait();
    let _ = std::fs::remove_dir_all(dir);
}

/// A `.cfm` with `ordering grouped` (the variable layout no build
/// produces any more) answers a typed error, not a worker panic, and the
/// server then still evaluates bit-exactly.
#[test]
fn grouped_layout_files_are_typed_errors() {
    let dir = std::env::temp_dir().join(format!("charfree-serve-grouped-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let netlist = charfree_netlist::benchmarks::by_name("decod", &Library::test_library())
        .expect("Table 1 name");
    let model = charfree_core::ModelBuilder::new(&netlist).build();
    let mut cfm = Vec::new();
    model.save(&mut cfm).expect("saves");
    let text = String::from_utf8(cfm).expect("text format");
    let path = dir.join("decod_grouped.cfm");
    std::fs::write(
        &path,
        text.replacen("ordering interleaved", "ordering grouped", 1),
    )
    .expect("writes model");
    let sources = [path.to_string_lossy().into_owned()];

    let server = Server::start(test_config()).expect("binds");
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).expect("connects");
    for source in &sources {
        let requests = [
            Request::Expected {
                source: source.clone(),
                sp: 0.5,
                st: 0.4,
            },
            Request::Eval {
                source: source.clone(),
                options: WireBuildOptions::default(),
                params: eval_params(100, 1),
            },
        ];
        for request in requests {
            match client.request(&request).expect("responds") {
                Response::Error { kind, message, .. } => {
                    assert_eq!(kind, ErrorKind::BadRequest, "{source}: {message}");
                    assert!(message.contains("interleaved"), "{source}: {message}");
                }
                other => panic!("{source} answered {other:?}"),
            }
        }
    }

    let params = eval_params(500, 0x5EED);
    let (name, values) = offline("decod", &params);
    let reference = charfree_engine::TraceSummary::from_values(&values);
    let eval = Request::Eval {
        source: "decod".to_owned(),
        options: WireBuildOptions::default(),
        params,
    };
    match client.request(&eval).expect("eval") {
        Response::Eval {
            name: got_name,
            transitions,
            sum_ff,
            max_ff,
        } => {
            assert_eq!(got_name, name);
            assert_eq!(transitions, reference.transitions);
            assert_eq!(sum_ff.to_bits(), reference.sum_ff.to_bits());
            assert_eq!(max_ff.to_bits(), reference.max_ff.to_bits());
        }
        other => panic!("eval decod answered {other:?}"),
    }
    let Response::Stats(stats) = client.request(&Request::Stats).expect("stats") else {
        panic!("stats request failed");
    };
    let panics = stats
        .get("resilience")
        .and_then(|r| r.get("worker_panics"))
        .and_then(|v| v.as_u64());
    assert_eq!(panics, Some(0));

    client.request(&Request::Shutdown).expect("shutdown");
    server.wait();
    let _ = std::fs::remove_dir_all(dir);
}
