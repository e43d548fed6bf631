//! Crash-safety and self-healing, end to end over real sockets: startup
//! recovery of a torn artifact store, the per-model build circuit
//! breaker on the wire, and client retry/backoff riding the server's
//! `retry_after_ms` hints.

use std::fs;
use std::path::PathBuf;
use std::time::Duration;

use charfree_netlist::Library;
use charfree_pipeline::{ArtifactStore, PipelineCtx, Source};
use charfree_serve::{
    BreakerConfig, Client, ErrorKind, Request, Response, RetryPolicy, ServeConfig, Server,
    WireBuildOptions, WireEvalParams,
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

fn offline_trace(source: &str, params: &WireEvalParams) -> Vec<f64> {
    let mut ctx = PipelineCtx::new(Library::test_library());
    let kernel = ctx.kernel_for(&Source::infer(source)).expect("builds");
    let patterns =
        charfree_sim::MarkovSource::new(kernel.num_inputs(), params.sp, params.st, params.seed)
            .expect("feasible")
            .sequence(params.vectors.max(2));
    charfree_engine::TraceEngine::new(&kernel).trace(&patterns)
}

fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("charfree-resilience-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn shutdown(server: Server, addr: &str) {
    let mut client = Client::connect(addr).expect("connects for shutdown");
    let _ = client.request(&Request::Shutdown);
    server.wait();
}

/// The `kill -9` acceptance scenario: a cache torn mid-publish (truncated
/// kernel artifact + a journal whose last record is a dangling `begin`)
/// must boot, quarantine the torn entry during startup recovery, serve
/// the request via rebuild bit-identically, and heal the cache entry to
/// bytes identical to a clean cold write.
#[test]
fn server_boots_on_a_torn_store_quarantines_and_heals_byte_identically() {
    let dir = scratch("torn-boot");
    let cache = dir.join("cache");

    // A clean reference cache, written offline by the same pipeline the
    // server runs.
    let clean = dir.join("clean-cache");
    {
        let mut ctx =
            PipelineCtx::new(Library::test_library()).with_store(ArtifactStore::new(&clean));
        ctx.kernel_for(&Source::infer("decod")).expect("builds");
    }
    // The victim cache starts identical...
    {
        let mut ctx =
            PipelineCtx::new(Library::test_library()).with_store(ArtifactStore::new(&cache));
        ctx.kernel_for(&Source::infer("decod")).expect("builds");
    }
    // ...then gets the post-crash treatment: truncate every artifact and
    // leave a dangling `begin` at the journal tail.
    let mut torn = 0usize;
    for entry in fs::read_dir(&cache).expect("read cache") {
        let path = entry.expect("entry").path();
        if !is_artifact(&path) {
            continue;
        }
        let bytes = fs::read(&path).expect("read artifact");
        fs::write(&path, &bytes[..bytes.len() / 2]).expect("tear artifact");
        torn += 1;
    }
    assert!(torn >= 1, "the warm build must have stored artifacts");
    let journal = ArtifactStore::new(&cache).journal_path();
    let mut log = fs::read(&journal).expect("journal exists");
    log.extend_from_slice(b"begin feedfacefeedfacefeedfacefeedface.cfk\n");
    fs::write(&journal, log).expect("append dangling begin");

    // Boot on the torn store. Startup recovery must quarantine the torn
    // entries out from under their keys.
    let mut config = test_config();
    config.cache_dir = Some(cache.clone());
    let server = Server::start(config).expect("boots on a torn store");
    let addr = server.addr().to_string();
    let quarantine = ArtifactStore::new(&cache).quarantine_dir();
    let quarantined = fs::read_dir(&quarantine)
        .map(|entries| entries.filter_map(Result::ok).count())
        .unwrap_or(0);
    assert!(
        quarantined >= 1,
        "startup recovery must quarantine the torn artifacts"
    );

    // The request is served via rebuild, bit-identical to offline.
    let params = eval_params(40, 77);
    let want = offline_trace("decod", &params);
    let mut client = Client::connect(&addr).expect("connects");
    match client
        .request(&Request::Trace {
            source: "decod".to_owned(),
            options: WireBuildOptions::default(),
            params: params.clone(),
        })
        .expect("responds")
    {
        Response::Trace { values, .. } => {
            assert_eq!(values.len(), want.len());
            for (t, (got, want)) in values.iter().zip(&want).enumerate() {
                assert_eq!(got.to_bits(), want.to_bits(), "transition {t}");
            }
        }
        other => panic!("expected a trace, got {other:?}"),
    }
    shutdown(server, &addr);

    // The healed entries are byte-identical to the clean reference
    // cache. One exception: a model's `report` line records the build's
    // measured CPU time, the single legitimately nondeterministic byte
    // range in any artifact — mask it, compare everything else exactly.
    let mut compared = 0usize;
    for entry in fs::read_dir(&clean).expect("read clean") {
        let path = entry.expect("entry").path();
        if !is_artifact(&path) {
            continue;
        }
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .expect("file name")
            .to_owned();
        let clean_bytes = mask_build_time(&fs::read(&path).expect("clean bytes"));
        let healed_bytes =
            mask_build_time(&fs::read(cache.join(&name)).expect("healed entry exists"));
        assert_eq!(
            clean_bytes, healed_bytes,
            "{name} must heal byte-identically"
        );
        compared += 1;
    }
    assert!(compared >= 1, "the reference cache must hold artifacts");
    let _ = fs::remove_dir_all(&dir);
}

/// Blanks the one wall-clock-dependent field in the artifact formats:
/// the model's `report <rounds> <collapsed> <exact> <cpu-seconds>` line.
fn mask_build_time(bytes: &[u8]) -> Vec<u8> {
    let Ok(text) = std::str::from_utf8(bytes) else {
        return bytes.to_vec();
    };
    text.lines()
        .map(|line| {
            if line.starts_with("report ") {
                let kept: Vec<&str> = line.split_whitespace().take(4).collect();
                format!("{} <cpu>", kept.join(" "))
            } else {
                line.to_owned()
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
        .into_bytes()
}

/// A content-addressed artifact file (`.cfm` model / `.cfk` kernel) —
/// everything else in a cache dir (journal, quarantine) is bookkeeping.
fn is_artifact(path: &std::path::Path) -> bool {
    path.is_file()
        && matches!(
            path.extension().and_then(|e| e.to_str()),
            Some("cfm") | Some("cfk")
        )
}

/// The breaker on the wire: K deterministic build failures trip a typed
/// `model-unavailable` with a `retry_after_ms` hint, an unrelated model
/// keeps serving while the circuit is open, and a retrying client rides
/// the hint through the half-open probe to a bit-exact answer once the
/// cause is fixed.
#[test]
fn breaker_trips_on_the_wire_and_a_retrying_client_heals_through_it() {
    let dir = scratch("breaker");
    let late = dir.join("late.blif");

    let mut config = test_config();
    config.jobs = 1;
    config.breaker = BreakerConfig {
        failure_threshold: 2,
        open_base: Duration::from_millis(150),
        open_cap: Duration::from_secs(2),
    };
    let server = Server::start(config).expect("binds");
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).expect("connects");

    let request = |source: String| Request::Trace {
        source,
        options: WireBuildOptions::default(),
        params: eval_params(16, 5),
    };

    // Two deterministic failures: the netlist file does not exist yet.
    for attempt in 0..2 {
        match client
            .request(&request(late.display().to_string()))
            .expect("responds")
        {
            Response::Error { kind, .. } => assert!(
                !matches!(kind, ErrorKind::ModelUnavailable),
                "attempt {attempt} tripped early"
            ),
            other => panic!("attempt {attempt}: expected a failure, got {other:?}"),
        }
    }
    // Trip: typed, with a retry hint.
    match client
        .request(&request(late.display().to_string()))
        .expect("responds")
    {
        Response::Error {
            kind: ErrorKind::ModelUnavailable,
            retry_after_ms: Some(ms),
            ..
        } => assert!(ms > 0, "retry_after_ms must be positive"),
        other => panic!("expected model-unavailable, got {other:?}"),
    }
    // An unrelated model is unaffected by the open circuit.
    match client
        .request(&request("decod".to_owned()))
        .expect("responds")
    {
        Response::Trace { values, .. } => assert!(!values.is_empty()),
        other => panic!("healthy model failed while circuit open: {other:?}"),
    }

    // Fix the cause; `request_with_retries` honors the hint, waits out
    // the open window, and the half-open probe closes the circuit.
    let netlist = charfree_netlist::benchmarks::by_name("cm85", &Library::test_library())
        .expect("Table 1 name");
    fs::write(&late, charfree_netlist::blif::write(&netlist)).expect("write netlist");
    let want = offline_trace(&late.display().to_string(), &eval_params(16, 5));
    let policy = RetryPolicy {
        retries: 8,
        base: Duration::from_millis(25),
        cap: Duration::from_millis(500),
        seed: 42,
    };
    match client
        .request_with_retries(&request(late.display().to_string()), &policy)
        .expect("heals")
    {
        Response::Trace { values, .. } => {
            for (t, (got, want)) in values.iter().zip(&want).enumerate() {
                assert_eq!(got.to_bits(), want.to_bits(), "transition {t}");
            }
        }
        other => panic!("circuit did not heal: {other:?}"),
    }
    shutdown(server, &addr);
    let _ = fs::remove_dir_all(&dir);
}

/// A draining server sheds with a typed `draining` error; a retrying
/// client treats it as retriable (here it simply exhausts its budget and
/// surfaces the typed error — never a hang, never garbage).
#[test]
fn draining_responses_are_typed_and_retriable() {
    let server = Server::start(test_config()).expect("binds");
    let addr = server.addr().to_string();
    let handle = server.drain_handle();
    handle.request_drain();
    assert!(handle.is_draining());

    let policy = RetryPolicy {
        retries: 2,
        base: Duration::from_millis(5),
        cap: Duration::from_millis(20),
        seed: 1,
    };
    let request = Request::Trace {
        source: "decod".to_owned(),
        options: WireBuildOptions::default(),
        params: eval_params(8, 3),
    };
    // The drain may win the race and close the listener first; a typed
    // transport drop is the other legal outcome besides a typed
    // `draining` error. What is never legal: a hang or served work.
    match Client::connect(&addr) {
        Err(_) => {}
        Ok(mut client) => match client.request_with_retries(&request, &policy) {
            Ok(Response::Error { kind, .. }) => {
                assert!(matches!(kind, ErrorKind::Draining), "got {kind:?}");
                assert!(kind.retriable(), "draining must be a retriable kind");
            }
            Err(_) => {}
            Ok(other) => panic!("a draining server must not serve new work: {other:?}"),
        },
    }
    server.wait();
}

/// The half-open probe is a lease. A deadline-bounded build never feeds
/// the breaker, so a probe carrying a deadline ends without reporting;
/// once it has been out longer than the open window the next request
/// probes again, and a model whose cause was fixed heals.
#[test]
fn a_probe_that_never_reports_does_not_hold_the_breaker_half_open() {
    let dir = scratch("lease");
    let late = dir.join("late.blif");

    let mut config = test_config();
    config.breaker = BreakerConfig {
        failure_threshold: 1,
        open_base: Duration::from_millis(200),
        open_cap: Duration::from_secs(2),
    };
    let server = Server::start(config).expect("binds");
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).expect("connects");
    let load = |deadline_ms: Option<u64>| Request::Load {
        source: late.display().to_string(),
        options: WireBuildOptions {
            deadline_ms,
            ..WireBuildOptions::default()
        },
    };
    let kind = |response: Response| match response {
        Response::Error { kind, .. } => kind,
        other => panic!("expected a failure, got {other:?}"),
    };

    // One deterministic failure trips the circuit.
    assert_ne!(
        kind(client.request(&load(None)).expect("responds")),
        ErrorKind::ModelUnavailable
    );
    assert_eq!(
        kind(client.request(&load(None)).expect("responds")),
        ErrorKind::ModelUnavailable
    );
    // The window expires; the probe carries a deadline and fails, which
    // the breaker never hears about.
    std::thread::sleep(Duration::from_millis(400));
    assert_ne!(
        kind(client.request(&load(Some(5000))).expect("responds")),
        ErrorKind::ModelUnavailable
    );

    let netlist = charfree_netlist::benchmarks::by_name("decod", &Library::test_library())
        .expect("Table 1 name");
    fs::write(&late, charfree_netlist::blif::write(&netlist)).expect("write netlist");
    let started = std::time::Instant::now();
    loop {
        match client.request(&load(None)).expect("responds") {
            Response::Load { .. } => break,
            Response::Error {
                kind: ErrorKind::ModelUnavailable,
                ..
            } => assert!(
                started.elapsed() < Duration::from_secs(5),
                "the breaker stayed half-open after its probe went silent"
            ),
            other => panic!("unexpected load response {other:?}"),
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    shutdown(server, &addr);
    let _ = fs::remove_dir_all(&dir);
}
