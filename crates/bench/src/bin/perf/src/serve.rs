//! Workloads `serve_eval` and `serve_mixed`: closed-loop serving from
//! two connections, one speaking JSON and one binary, against an
//! in-process `Server` (one evaluation worker, one reactor shard, a
//! 10 µs batch window, logging off, every other setting at its default).
//!
//! Closed loop fits because `charfree client` callers wait for each
//! reply. **serve_eval** sends only `eval decod` requests of 256 vectors:
//! the steady-state hot path, where `net`, the codecs and micro-batching
//! do the work, the registry always hits and nothing is built.
//! **serve_mixed** uses the same layers differently: twelve models picked
//! Zipf(1) against a registry budget a third of their kernel bytes, so
//! registry reads meet misses, evictions and warm loads from the
//! artifact store, beside large `trace` responses and `seqeval`, which
//! bypasses the batch dispatcher. A change that speeds up serve_eval at
//! the cost of registry or lock contention shows up on serve_mixed.

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use charfree_conform::gen::SplitMix64;
use charfree_engine::Kernel;
use charfree_netlist::benchmarks::committed;
use charfree_netlist::Library;
use charfree_pipeline::ArtifactStore;
use charfree_seq::SeqModel;
use charfree_serve::json::Json;
use charfree_serve::{
    wire, Client, Proto, Request, Response, ServeConfig, Server, WireBuildOptions, WireEvalParams,
};

use crate::layers::{self, Built, ModelSpec};
use crate::trace::{self, Layer};
use crate::{Finish, Run, Slice, Workload};

/// Per-layer metrics only the serve workloads measure; the other
/// workloads report them as 0.
pub const LAYER_METRICS: [(&str, &str); 11] = [
    ("serve.json_rps", "1/s"),
    ("serve.binary_rps", "1/s"),
    ("serve.json_codec_per_s", "1/s"),
    ("serve.binary_codec_per_s", "1/s"),
    ("serve.requests_per_batch", "count"),
    ("serve.mean_batch_fill_lanes", "lanes"),
    ("serve.registry_hit_pct", "%"),
    ("serve.registry_evictions", "count"),
    ("serve.kernel_share_pct", "%"),
    ("net.bytes_in_per_req", "bytes"),
    ("net.bytes_out_per_req", "bytes"),
];

const EVAL_MODELS: [ModelSpec; 1] = [ModelSpec::exact("decod")];
/// serve_mixed's working set, most popular first.
const WORKING_SET: [ModelSpec; 12] = [
    ModelSpec::exact("decod"),
    ModelSpec::avg("cm85_100", "cm85", 100),
    ModelSpec::avg("cm85_250", "cm85", 250),
    ModelSpec::avg("cm85_500", "cm85", 500),
    ModelSpec::avg("cm150_500", "cm150", 500),
    ModelSpec::avg("cm150_1000", "cm150", 1000),
    ModelSpec::avg("mux_500", "mux", 500),
    ModelSpec::avg("mux_1000", "mux", 1000),
    ModelSpec::exact("x2"),
    ModelSpec::avg("parity_500", "parity", 500),
    ModelSpec::avg("pcle_1000", "pcle", 1000),
    ModelSpec::avg("cmb_200", "cmb", 200),
];
/// `expected` always resolves the exact model of its circuit, so it
/// targets only the working set's exact entries.
const EXACT_ENTRIES: [usize; 2] = [0, 8];
/// A third of the working set's 61 432 kernel bytes (measured once).
const MODEL_BYTES_BUDGET: usize = 20 * 1024;
/// Requests per connection that warm the server before timing.
const WARMUP: usize = 200;

/// Which request mix a connection generates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// serve_eval: `eval decod`, 256 vectors.
    Eval,
    /// serve_mixed: 60% eval, 15% trace, 10% expected, 15% seqeval.
    Mixed,
}

impl Mix {
    fn models(self) -> &'static [ModelSpec] {
        match self {
            Mix::Eval => &EVAL_MODELS,
            Mix::Mixed => &WORKING_SET,
        }
    }
}

/// What a generated request asks of the model it targets.
#[derive(Debug, Clone, PartialEq)]
pub struct Generated {
    /// The request.
    pub request: Request,
    /// The working-set model it targets (`None` for `seqeval`).
    pub model: Option<usize>,
    /// Whether its answer is kept for the offline replay.
    pub sampled: bool,
}

/// One connection's request stream, a pure function of its seed.
pub struct Generator {
    rng: SplitMix64,
    mix: Mix,
    seq_source: String,
}

impl Generator {
    /// A stream for `mix`; `seq_source` names the sequential design file.
    pub fn new(mix: Mix, seed: u64, seq_source: &str) -> Generator {
        Generator {
            rng: SplitMix64::new(seed),
            mix,
            seq_source: seq_source.to_owned(),
        }
    }

    /// Zipf(1) over the first `n` ranks.
    fn zipf(&mut self, n: usize) -> usize {
        let harmonic: f64 = (1..=n).map(|k| 1.0 / k as f64).sum();
        let mut u = self.rng.unit() * harmonic;
        for k in 0..n {
            u -= 1.0 / (k + 1) as f64;
            if u < 0.0 {
                return k;
            }
        }
        n - 1
    }

    fn params(&mut self, vectors: usize) -> WireEvalParams {
        WireEvalParams {
            vectors,
            sp: 0.5,
            st: 0.4,
            seed: self.rng.next_u64(),
            deadline_ms: None,
        }
    }

    /// The next request.
    pub fn next_request(&mut self) -> Generated {
        let sampled = self.rng.below(100) == 0;
        let roll = match self.mix {
            Mix::Eval => 0,
            Mix::Mixed => self.rng.below(100),
        };
        let (request, model) = if roll < 75 {
            let (model, vectors) = match (self.mix, roll < 60) {
                (Mix::Eval, _) => (0, 256),
                (Mix::Mixed, true) => {
                    // Log-uniform over 64..=4096.
                    let vectors = (64.0 * 64f64.powf(self.rng.unit())).round() as usize;
                    (self.zipf(WORKING_SET.len()), vectors)
                }
                (Mix::Mixed, false) => (self.zipf(WORKING_SET.len()), 256),
            };
            let spec = &self.mix.models()[model];
            let source = spec.circuit.to_owned();
            let options = wire_options(spec);
            let params = self.params(vectors);
            let request = if roll < 60 {
                Request::Eval {
                    source,
                    options,
                    params,
                }
            } else {
                Request::Trace {
                    source,
                    options,
                    params,
                }
            };
            (request, Some(model))
        } else if roll < 85 {
            let model = EXACT_ENTRIES[self.zipf(EXACT_ENTRIES.len())];
            let st = 0.1 * (1 + self.rng.below(9)) as f64;
            let request = Request::Expected {
                source: WORKING_SET[model].circuit.to_owned(),
                sp: 0.5,
                st,
            };
            (request, Some(model))
        } else {
            let request = Request::SeqEval {
                source: self.seq_source.clone(),
                options: WireBuildOptions::default(),
                params: self.params(256),
            };
            (request, None)
        };
        Generated {
            request,
            model,
            sampled,
        }
    }
}

fn wire_options(spec: &ModelSpec) -> WireBuildOptions {
    WireBuildOptions {
        max_nodes: spec.max_nodes,
        upper_bound: spec.upper_bound,
        ..WireBuildOptions::default()
    }
}

/// What one connection saw over the window's slices.
#[derive(Default)]
struct ConnLog {
    attempted: u64,
    failed: u64,
    /// Latency of every answered request (µs).
    latency_us: Vec<f64>,
    /// `(model, vectors)` of every answered eval and trace.
    served: Vec<(usize, usize)>,
    /// Sampled requests with their answers and target models.
    samples: Vec<(Request, Response, Option<usize>)>,
}

pub struct State {
    mix: Mix,
    server: Option<Server>,
    addr: String,
    dir: Option<PathBuf>,
    seq_source: String,
    generators: Vec<Generator>,
    logs: Vec<ConnLog>,
    window_s: f64,
    stats: (Json, Json),
}

impl State {
    /// Drains the server and waits for every thread of it to end.
    fn stop(&mut self) {
        if let Some(server) = self.server.take() {
            server.request_drain();
            server.wait();
        }
    }
}

impl Drop for State {
    fn drop(&mut self) {
        self.stop();
        if let Some(dir) = &self.dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

const PROTOS: [Proto; 2] = [Proto::Json, Proto::Binary];

fn setup(mix: Mix, run: &Run, repeat: usize) -> Result<State, String> {
    let mut config = ServeConfig::new(Library::test_library());
    config.addr = "127.0.0.1:0".to_owned();
    config.jobs = 1;
    config.reactor_threads = 1;
    config.batch_window = Duration::from_micros(10);
    config.log = false;
    let (dir, seq_source) = match mix {
        Mix::Eval => (None, String::new()),
        Mix::Mixed => {
            let dir = run
                .out
                .join(format!("serve-{}-{repeat}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let seq_file = dir.join("seqpipe2.blif");
            std::fs::create_dir_all(&dir)
                .and_then(|()| std::fs::write(&seq_file, committed::SEQPIPE2))
                .map_err(|e| format!("preparing {}: {e}", dir.display()))?;
            // The artifacts are built here, one at a time, as
            // `charfree model --cache-dir` would, so the server's loads
            // are warm. Cold builds on the server's service threads
            // would leave the peak memory to the allocator's choice of
            // thread arena.
            let cache = dir.join("cache");
            let store = ArtifactStore::new(&cache);
            for spec in &WORKING_SET {
                layers::prebuild(spec, &store)?;
            }
            layers::seq_build(committed::SEQPIPE2, Some(&store))?;
            config.cache_dir = Some(cache);
            config.model_bytes_budget = MODEL_BYTES_BUDGET;
            (Some(dir), seq_file.display().to_string())
        }
    };
    let server = trace::span(Layer::Serve, "serve.start", || Server::start(config))
        .map_err(|e| format!("starting the server: {e}"))?;
    let mut state = State {
        mix,
        addr: server.addr().to_string(),
        server: Some(server),
        dir,
        seq_source,
        generators: Vec::new(),
        logs: Vec::new(),
        window_s: 0.0,
        stats: (Json::Null, Json::Null),
    };
    let mut client = connect(&state.addr, Proto::Json)?;
    for spec in mix.models() {
        let load = Request::Load {
            source: spec.circuit.to_owned(),
            options: wire_options(spec),
        };
        match call(&mut client, "serve.load", &load)? {
            Response::Load { apply_steps, .. } if mix == Mix::Eval || apply_steps == 0 => {}
            other => return Err(format!("loading {}: {other:?}", spec.tag)),
        }
    }
    if mix == Mix::Mixed {
        let load = Request::SeqLoad {
            source: state.seq_source.clone(),
            options: WireBuildOptions::default(),
        };
        match call(&mut client, "serve.load", &load)? {
            Response::SeqLoad { apply_steps: 0, .. } => {}
            other => return Err(format!("loading seqpipe2: {other:?}")),
        }
    }
    let mut seeds = SplitMix64::new(run.seed);
    for proto in PROTOS {
        let mut warm = Generator::new(mix, !seeds.next_u64(), &state.seq_source);
        let mut client = connect(&state.addr, proto)?;
        for _ in 0..WARMUP {
            if let Response::Error { message, .. } =
                call(&mut client, "serve.request", &warm.next_request().request)?
            {
                return Err(format!("warm-up request failed: {message}"));
            }
        }
    }
    state.generators = PROTOS
        .iter()
        .map(|_| Generator::new(mix, seeds.next_u64(), &state.seq_source))
        .collect();
    Ok(state)
}

fn connect(addr: &str, proto: Proto) -> Result<Client, String> {
    Client::connect_with(addr, proto).map_err(|e| format!("connecting to {addr}: {e}"))
}

fn call(client: &mut Client, name: &'static str, request: &Request) -> Result<Response, String> {
    trace::span(Layer::Serve, name, || client.request(request))
        .map_err(|e| format!("{} request: {e}", request.cmd()))
}

fn stats(addr: &str) -> Json {
    let reply =
        connect(addr, Proto::Json).and_then(|mut c| call(&mut c, "serve.stats", &Request::Stats));
    match reply {
        Ok(Response::Stats(json)) => json,
        _ => Json::Null,
    }
}

/// A numeric field of a stats snapshot (0 when absent).
fn field(json: &Json, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(json, |j, key| j.get(key))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

fn slice(state: &mut State, seconds: f64) -> Slice {
    if state.logs.is_empty() {
        state.stats.0 = stats(&state.addr);
        state.logs = PROTOS.iter().map(|_| ConnLog::default()).collect();
    }
    let before: Vec<(u64, u64, usize)> = state
        .logs
        .iter()
        .map(|l| (l.attempted, l.failed, l.latency_us.len()))
        .collect();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let parent = trace::current();
    let addr = state.addr.as_str();
    std::thread::scope(|scope| {
        for (conn, ((&proto, gen), log)) in PROTOS
            .iter()
            .zip(state.generators.iter_mut())
            .zip(state.logs.iter_mut())
            .enumerate()
        {
            scope.spawn(move || client_loop(addr, proto, gen, log, deadline, parent, conn as u64));
        }
    });
    state.window_s += seconds;
    let mut slice = Slice {
        secs: seconds,
        ..Slice::default()
    };
    for (log, (attempted, failed, answered)) in state.logs.iter().zip(before) {
        slice.attempted += log.attempted - attempted;
        slice.failed += log.failed - failed;
        slice
            .op_ms
            .extend(log.latency_us[answered..].iter().map(|us| us / 1e3));
    }
    slice
}

/// One connection's closed loop until `deadline`, appending to `log`.
fn client_loop(
    addr: &str,
    proto: Proto,
    gen: &mut Generator,
    log: &mut ConnLog,
    deadline: Instant,
    parent: Option<u64>,
    conn: u64,
) {
    trace::adopt(parent);
    let mut client = match connect(addr, proto) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("serve: {e}");
            log.attempted += 1;
            log.failed += 1;
            return;
        }
    };
    while Instant::now() < deadline {
        let generated = gen.next_request();
        log.attempted += 1;
        let id = (conn << 48) | log.attempted;
        let t0 = Instant::now();
        let reply = trace::request_span(Layer::Serve, "serve.request", Some(id), || {
            client.request(&generated.request)
        });
        let us = t0.elapsed().as_secs_f64() * 1e6;
        match reply {
            Ok(Response::Error { kind, message, .. }) => {
                eprintln!(
                    "serve: {} answered {}: {message}",
                    generated.request.cmd(),
                    kind.name()
                );
                log.failed += 1;
            }
            Ok(response) => {
                log.latency_us.push(us);
                if let (Some(model), Request::Eval { params, .. } | Request::Trace { params, .. }) =
                    (generated.model, &generated.request)
                {
                    log.served.push((model, params.vectors));
                }
                if generated.sampled {
                    log.samples
                        .push((generated.request, response, generated.model));
                }
            }
            Err(e) => {
                eprintln!("serve: transport error: {e}");
                log.failed += 1;
                match connect(addr, proto) {
                    Ok(fresh) => client = fresh,
                    Err(_) => break,
                }
            }
        }
    }
}

/// Kernels for the offline replay, built on first use.
struct Replay {
    specs: &'static [ModelSpec],
    kernels: HashMap<usize, (Built, Kernel)>,
    seq: Option<SeqModel>,
}

impl Replay {
    fn kernel(&mut self, model: usize) -> Result<&(Built, Kernel), String> {
        if !self.kernels.contains_key(&model) {
            let built = layers::build(&self.specs[model])?;
            let kernel = layers::compile(&built.model);
            self.kernels.insert(model, (built, kernel));
        }
        Ok(&self.kernels[&model])
    }

    fn seq(&mut self) -> Result<&SeqModel, String> {
        if self.seq.is_none() {
            self.seq = Some(layers::seq_build(committed::SEQPIPE2, None)?);
        }
        Ok(self.seq.as_ref().expect("just built"))
    }

    /// Recomputes one served answer offline; `Ok(false)` on a mismatch.
    fn check(
        &mut self,
        request: &Request,
        response: &Response,
        model: Option<usize>,
    ) -> Result<bool, String> {
        let bits = |a: f64, b: f64| a.to_bits() == b.to_bits();
        Ok(match (request, response, model) {
            (
                Request::Eval { params, .. },
                Response::Eval {
                    transitions,
                    sum_ff,
                    max_ff,
                    ..
                },
                Some(m),
            ) => {
                let kernel = &self.kernel(m)?.1;
                let patterns = markov(kernel.num_inputs(), params);
                let s = layers::kernel_evaluate(kernel, &patterns, 1);
                s.transitions == *transitions && bits(s.sum_ff, *sum_ff) && bits(s.max_ff, *max_ff)
            }
            (Request::Trace { params, .. }, Response::Trace { values, .. }, Some(m)) => {
                let kernel = &self.kernel(m)?.1;
                let patterns = markov(kernel.num_inputs(), params);
                layers::first_difference(&layers::kernel_trace(kernel, &patterns, 1), values)
                    .is_none()
            }
            (Request::Expected { sp, st, .. }, Response::Expected { value, .. }, Some(m)) => {
                let (built, kernel) = self.kernel(m)?;
                let offline = if kernel.is_interleaved() {
                    kernel.expected_capacitance(*sp, *st)
                } else {
                    built.model.expected_capacitance(*sp, *st).femtofarads()
                };
                bits(offline, *value)
            }
            (
                Request::SeqEval { params, .. },
                Response::SeqEval {
                    transitions,
                    sum_ff,
                    max_ff,
                    macros,
                    ..
                },
                None,
            ) => {
                let model = self.seq()?;
                let s = layers::seq_fused(model, &markov(model.num_inputs(), params));
                s.total.transitions == *transitions
                    && bits(s.total.sum_ff, *sum_ff)
                    && bits(s.total.max_ff, *max_ff)
                    && s.per_macro.len() == macros.len()
                    && s.per_macro.iter().zip(macros).all(|(a, b)| {
                        a.name == b.name
                            && bits(a.summary.sum_ff, b.sum_ff)
                            && bits(a.summary.max_ff, b.max_ff)
                    })
            }
            _ => false,
        })
    }
}

/// The patterns the server generates for `params`.
fn markov(inputs: usize, params: &WireEvalParams) -> Vec<Vec<bool>> {
    layers::markov(
        inputs,
        params.sp,
        params.st,
        params.seed,
        params.vectors.max(2),
    )
}

fn finish(mut state: State, run: &Run, out: &mut Finish) {
    state.stats.1 = stats(&state.addr);
    state.stop();
    let mut replay = Replay {
        specs: state.mix.models(),
        kernels: HashMap::new(),
        seq: None,
    };
    let samples: Vec<&(Request, Response, Option<usize>)> =
        state.logs.iter().flat_map(|l| &l.samples).collect();
    for (request, response, model) in &samples {
        let same = replay.check(request, response, *model);
        out.check(same == Ok(true), || match same {
            Err(e) => e,
            _ => format!("served {} differs from the offline replay", request.cmd()),
        });
    }
    out.line("replayed_answers".to_owned(), samples.len() as f64, "count");
    if run.traced {
        layer_metrics(&state, &samples, &mut replay, out);
        let mut built: Vec<_> = replay
            .kernels
            .iter()
            .map(|(&model, (built, _))| (replay.specs[model], built))
            .collect();
        built.sort_by_key(|(spec, _)| spec.tag);
        out.outcomes(layers::check_pipeline_parity(&built));
    }
}

/// The serve workloads' per-layer metrics (traced runs).
fn layer_metrics(
    state: &State,
    samples: &[&(Request, Response, Option<usize>)],
    replay: &mut Replay,
    out: &mut Finish,
) {
    let (before, after) = &state.stats;
    let diff = |path: &[&str]| field(after, path) - field(before, path);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    for (log, name) in state
        .logs
        .iter()
        .zip(["serve.json_rps", "serve.binary_rps"])
    {
        out.layer(name, ratio(log.latency_us.len() as f64, state.window_s));
    }

    // The codecs, replayed on the window's own sampled messages; every
    // message must survive the round trip.
    let json = codec_rate("serve.json_codec", samples, out, |req, resp| {
        Request::parse_line(&req.to_line()).as_ref() == Ok(req)
            && Response::parse_line(&resp.to_line()).as_ref() == Ok(resp)
    });
    out.layer("serve.json_codec_per_s", json);
    let binary = codec_rate("serve.binary_codec", samples, out, |req, resp| {
        let mut frame = Vec::new();
        wire::encode_request(req, &mut frame);
        let req_ok = decode(&frame, wire::decode_request).as_ref() == Some(req);
        frame.clear();
        wire::encode_response(resp, &mut frame);
        req_ok && decode(&frame, wire::decode_response).as_ref() == Some(resp)
    });
    out.layer("serve.binary_codec_per_s", binary);

    let batches = diff(&["batches"]);
    out.layer(
        "serve.requests_per_batch",
        ratio(diff(&["batched_requests"]), batches),
    );
    let fill: f64 = (0..64)
        .map(|i| {
            let at = |j: &Json| {
                j.get("batch_fill")
                    .and_then(Json::as_arr)
                    .and_then(|b| b.get(i))
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0)
            };
            (i + 1) as f64 * (at(after) - at(before))
        })
        .sum();
    out.layer("serve.mean_batch_fill_lanes", ratio(fill, batches));
    let hits = diff(&["registry", "hits"]);
    let lookups = hits + diff(&["registry", "misses"]);
    out.layer("serve.registry_hit_pct", 100.0 * ratio(hits, lookups));
    out.layer("serve.registry_evictions", diff(&["registry", "evictions"]));
    let completed = diff(&["completed"]);
    out.layer(
        "net.bytes_in_per_req",
        ratio(diff(&["net", "bytes_in"]), completed),
    );
    out.layer(
        "net.bytes_out_per_req",
        ratio(diff(&["net", "bytes_out"]), completed),
    );

    // The share of client-observed time the engine accounts for: every
    // served eval and trace pattern count, replayed through the kernel.
    let client_s: f64 = state.logs.iter().flat_map(|l| &l.latency_us).sum::<f64>() / 1e6;
    let mut patterns: HashMap<usize, Vec<Vec<bool>>> = HashMap::new();
    let mut kernel_s = 0.0;
    for &(model, vectors) in state.logs.iter().flat_map(|l| &l.served) {
        let Ok((_, kernel)) = replay.kernel(model) else {
            continue;
        };
        let trace = patterns
            .entry(model)
            .or_insert_with(|| layers::markov(kernel.num_inputs(), 0.5, 0.4, model as u64, 4096));
        let t0 = Instant::now();
        layers::kernel_evaluate(kernel, &trace[..vectors.max(2)], 1);
        kernel_s += t0.elapsed().as_secs_f64();
    }
    out.layer("serve.kernel_share_pct", 100.0 * ratio(kernel_s, client_s));
}

fn decode<T>(frame: &[u8], decode: fn(u8, &[u8]) -> Result<T, String>) -> Option<T> {
    let f = wire::try_frame(frame).ok()??;
    decode(f.ty, &frame[f.payload_start..f.payload_end]).ok()
}

/// Message round trips per second through one codec, over the samples
/// replayed for at least a tenth of a second.
fn codec_rate(
    name: &'static str,
    samples: &[&(Request, Response, Option<usize>)],
    out: &mut Finish,
    round_trip: impl Fn(&Request, &Response) -> bool,
) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut messages = 0usize;
    let mut intact = true;
    let t0 = Instant::now();
    trace::span(Layer::Serve, name, || {
        while t0.elapsed() < Duration::from_millis(100) {
            for (request, response, _) in samples {
                intact &= round_trip(request, response);
                messages += 2;
            }
        }
    });
    out.check(intact, || {
        format!("{name}: a message did not survive its round trip")
    });
    messages as f64 / t0.elapsed().as_secs_f64()
}

pub struct ServeEval;
pub struct ServeMixed;

impl Workload for ServeEval {
    const SLICE_S: f64 = 1.0;
    type State = State;

    fn setup(run: &Run, repeat: usize) -> Result<State, String> {
        setup(Mix::Eval, run, repeat)
    }

    fn slice(state: &mut State, _run: &Run, seconds: f64) -> Slice {
        slice(state, seconds)
    }

    fn finish(state: State, run: &Run, out: &mut Finish) {
        finish(state, run, out);
    }
}

impl Workload for ServeMixed {
    const SLICE_S: f64 = 1.0;
    type State = State;

    fn setup(run: &Run, repeat: usize) -> Result<State, String> {
        setup(Mix::Mixed, run, repeat)
    }

    fn slice(state: &mut State, _run: &Run, seconds: f64) -> Slice {
        slice(state, seconds)
    }

    fn finish(state: State, run: &Run, out: &mut Finish) {
        finish(state, run, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(mix: Mix, seed: u64, n: usize) -> Vec<Generated> {
        let mut gen = Generator::new(mix, seed, "seqpipe2.blif");
        (0..n).map(|_| gen.next_request()).collect()
    }

    #[test]
    fn request_sequences_are_a_function_of_the_seed() {
        for mix in [Mix::Eval, Mix::Mixed] {
            assert_eq!(stream(mix, 1998, 500), stream(mix, 1998, 500));
            assert_ne!(stream(mix, 1998, 500), stream(mix, 1999, 500));
        }
    }

    #[test]
    fn the_mixed_stream_follows_its_shares() {
        let requests = stream(Mix::Mixed, 7, 20_000);
        let share = |cmd: &str| {
            requests.iter().filter(|g| g.request.cmd() == cmd).count() as f64 / 20_000.0
        };
        for (cmd, want) in [
            ("eval", 0.60),
            ("trace", 0.15),
            ("expected", 0.10),
            ("seqeval", 0.15),
        ] {
            assert!((share(cmd) - want).abs() < 0.02, "{cmd}: {}", share(cmd));
        }
        // Zipf(1): the head model is drawn about a third of the time.
        let head = requests.iter().filter(|g| g.model == Some(0)).count() as f64 / 20_000.0;
        assert!(head > 0.25, "{head}");
        let sampled = requests.iter().filter(|g| g.sampled).count();
        assert!((100..=300).contains(&sampled), "{sampled}");
        for g in &requests {
            if let Request::Eval { params, .. } = &g.request {
                assert!((64..=4096).contains(&params.vectors), "{}", params.vectors);
            }
        }
    }
}
