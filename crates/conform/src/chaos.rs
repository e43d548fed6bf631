//! The `chaos` campaign: crash-safety and self-healing under injected
//! I/O faults.
//!
//! Where [`crate::campaign`] attacks the *build* (budgets, deadlines,
//! poisoned bytes), this campaign attacks the *infrastructure* through
//! the [`FaultPlan`] injector — short writes, transient `EINTR`s, torn
//! renames, slow and stalled connections — and asserts the resilience
//! contract end to end:
//!
//! * **never a wrong answer** — every artifact load that validates, and
//!   every `Ok` server response, is bit-identical to a storeless cold
//!   build;
//! * **never a hang** — failures surface as typed, retriable responses
//!   (or bounded transport drops), and injected stalls are capped;
//! * **always recoverable** — after any fault ladder, one recovery
//!   pass over the store directory quarantines every torn entry and
//!   the next store writes bytes identical to a clean cold write.
//!
//! Five phases:
//!
//! 1. **Store fault ladder** — seeded [`FaultPlan`]s drive
//!    store/load/recover cycles until the configured fault budget is
//!    spent; hits must be bit-exact, recovery must leave the store
//!    clean and byte-identical to the reference artifacts.
//! 2. **Torn store (`kill -9` picture)** — a half-written model file
//!    under a live key; recovery must quarantine, report, and the rebuilt
//!    entry must heal byte-identically.
//! 3. **Live server under stream + store faults** — trace requests
//!    through [`Client::request_with_retries`]; completed responses are
//!    bit-compared against a local kernel, failures must be typed
//!    retriable.
//! 4. **Worker panic supervision** — poisoned jobs panic a batch
//!    worker; the supervisor restarts it and later jobs still complete
//!    bit-exactly.
//! 5. **Circuit breaker** — deterministic build failures trip a
//!    per-model breaker (`model-unavailable` + `retry_after_ms`),
//!    independent models keep serving, and the half-open probe heals
//!    the circuit once the cause is fixed.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::mpsc::sync_channel;
use std::sync::Arc;
use std::time::Duration;

use charfree_core::ModelBuilder;
use charfree_engine::{Kernel, TraceEngine};
use charfree_netlist::{blif, Library, Netlist};
use charfree_pipeline::{ArtifactKey, ArtifactStore, CacheLookup, FaultConfig, FaultIo, FaultPlan};
use charfree_serve::{
    BreakerConfig, ChannelReply, Client, Dispatcher, ErrorKind, Job, JobFault, Request, Resident,
    Response, RetryPolicy, ServeConfig, Server, ServerStats, Stimulus, WireBuildOptions,
    WireEvalParams,
};
use charfree_sim::MarkovSource;

use crate::gen::{CircuitSpec, GenConfig};

/// Tuning for one [`run`].
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Master seed; every fault plan and pattern stream derives from it.
    pub seed: u64,
    /// Minimum injected I/O faults the store ladder must accumulate
    /// before the campaign may pass (the CLI default is 200).
    pub fault_target: u64,
}

impl Default for ChaosConfig {
    fn default() -> ChaosConfig {
        ChaosConfig {
            seed: 0xC4A0_5EED,
            fault_target: 200,
        }
    }
}

/// Summary of one chaos run (every count doubles as a passed assertion).
#[derive(Debug, Default)]
pub struct ChaosReport {
    /// I/O faults injected across every phase.
    pub injected_faults: u64,
    /// Bit-exactness comparisons that held (artifact loads + responses).
    pub bit_checks: u64,
    /// Recovery passes executed.
    pub recoveries: usize,
    /// Torn entries recovery moved to quarantine.
    pub quarantined: usize,
    /// Quarantined entries re-stored byte-identically to a clean write.
    pub torn_heals: usize,
    /// Server responses completed (and bit-verified) under stream faults.
    pub served_ok: usize,
    /// Typed retriable failures observed (never a hang, never garbage).
    pub typed_failures: usize,
    /// Worker panics caught and survived by the supervisor.
    pub worker_panics: u64,
    /// `model-unavailable` denials from a tripped circuit breaker.
    pub breaker_denials: usize,
}

/// Hard ceiling on ladder iterations, so a mis-tuned fault budget fails
/// loudly instead of looping.
const MAX_LADDER_ROUNDS: u64 = 10_000;

/// Runs every chaos phase on circuits derived from `config.seed`, using
/// `workdir` for scratch stores and case files.
///
/// # Errors
///
/// The first violated invariant, as a diagnostic string. A failure in
/// the store phases reproduces from the seed; one in the live-server
/// phase need not (see `charfree_pipeline::faultio`).
pub fn run(config: &ChaosConfig, workdir: &Path) -> Result<ChaosReport, String> {
    fs::create_dir_all(workdir).map_err(|e| format!("creating {}: {e}", workdir.display()))?;
    let library = Library::test_library();
    let cfg = GenConfig {
        num_inputs: 5,
        num_gates: 14,
        window: 6,
    };
    let spec = CircuitSpec::random("chaos", config.seed, &cfg);
    let built = spec.build(&library)?;
    // Round-trip through BLIF so the campaign exercises exactly the
    // netlist the server will parse from disk.
    let text = blif::write(&built);
    let mut netlist = blif::parse(&text).map_err(|e| e.to_string())?;
    netlist.annotate_loads(&library);

    let model = ModelBuilder::new(&netlist).build();
    let kernel = Arc::new(Kernel::compile(&model));
    let mut clean_model_bytes = Vec::new();
    model
        .save(&mut clean_model_bytes)
        .map_err(|e| e.to_string())?;

    let patterns = markov(&netlist, config.seed ^ 0xC0DE, 24)?;
    let reference: Vec<u64> = trace_bits(&kernel, &patterns);

    let mut report = ChaosReport::default();
    store_fault_ladder(
        config,
        workdir,
        &model,
        &clean_model_bytes,
        &reference,
        &patterns,
        &mut report,
    )?;
    torn_store_heals(workdir, &model, &clean_model_bytes, &mut report)?;
    serve_under_stream_faults(
        config,
        workdir,
        &library,
        &netlist,
        &text,
        &kernel,
        &mut report,
    )?;
    supervised_worker_panics(&kernel, &patterns, &reference, &mut report)?;
    breaker_trips_and_heals(
        config,
        workdir,
        &library,
        &netlist,
        &text,
        &kernel,
        &mut report,
    )?;

    // Silent shortfalls read as coverage; make them failures instead.
    if report.injected_faults < config.fault_target {
        return Err(format!(
            "chaos injected only {} faults (target {})",
            report.injected_faults, config.fault_target
        ));
    }
    Ok(report)
}

/// Phase 1: seeded fault ladders against the artifact store. Loads that
/// validate — as a kernel and as a model — must be bit-exact; a real-I/O
/// recovery pass after each rung must quarantine anything torn and leave
/// the artifact byte-identical to the clean reference.
fn store_fault_ladder(
    config: &ChaosConfig,
    workdir: &Path,
    model: &charfree_core::AddPowerModel,
    clean_model_bytes: &[u8],
    reference: &[u64],
    patterns: &[Vec<bool>],
    report: &mut ChaosReport,
) -> Result<(), String> {
    let dir = fresh_dir(workdir, "store-ladder")?;
    let key = ArtifactKey::derive(&["chaos-model"]);
    let reference_avg = model.average_capacitance().femtofarads().to_bits();

    let mut rung = 0u64;
    while report.injected_faults < config.fault_target {
        if rung >= MAX_LADDER_ROUNDS {
            return Err(format!(
                "fault ladder stalled at {} injected faults after {rung} rungs (target {})",
                report.injected_faults, config.fault_target
            ));
        }
        let plan = Arc::new(FaultPlan::new(
            config.seed ^ rung.wrapping_mul(0x9e37_79b9),
            FaultConfig::default(),
        ));
        let faulty = ArtifactStore::new(&dir).with_io(Arc::clone(&plan) as Arc<dyn FaultIo>);
        for _ in 0..6 {
            // Stores may fail (that is the point); the invariant is on
            // what a subsequent load is allowed to return.
            let _ = faulty.store_model(key, model);
            match faulty.load_kernel(key) {
                CacheLookup::Hit(loaded) => {
                    if trace_bits(&loaded, patterns) != reference {
                        return Err(format!(
                            "rung {rung}: a validated kernel load diverged from the reference"
                        ));
                    }
                    report.bit_checks += 1;
                }
                CacheLookup::Miss => {}
                CacheLookup::Poisoned(_) => report.typed_failures += 1,
            }
            match faulty.load_model(key) {
                CacheLookup::Hit(loaded) => {
                    if loaded.average_capacitance().femtofarads().to_bits() != reference_avg {
                        return Err(format!(
                            "rung {rung}: a validated model load diverged from the reference"
                        ));
                    }
                    report.bit_checks += 1;
                }
                CacheLookup::Miss => {}
                CacheLookup::Poisoned(_) => report.typed_failures += 1,
            }
        }
        report.injected_faults += plan.injected();

        // Recovery with real I/O: after it, loads are Hit-or-Miss (never
        // Poisoned — torn entries must be quarantined out from under the
        // key) and a re-store heals byte-identically.
        let real = ArtifactStore::new(&dir);
        let recovery = real
            .recover()
            .map_err(|e| format!("rung {rung}: recovery failed: {e}"))?;
        report.recoveries += 1;
        report.quarantined += recovery.quarantined.len();
        match real.load_kernel(key) {
            CacheLookup::Hit(_) => {}
            CacheLookup::Miss => real
                .store_model(key, model)
                .map_err(|e| format!("rung {rung}: clean re-store failed: {e}"))?,
            CacheLookup::Poisoned(reason) => {
                return Err(format!(
                    "rung {rung}: poisoned entry survived recovery: {reason}"
                ));
            }
        }
        let on_disk = fs::read(real.path(key))
            .map_err(|e| format!("rung {rung}: reading healed artifact: {e}"))?;
        if on_disk != clean_model_bytes {
            return Err(format!(
                "rung {rung}: post-recovery artifact differs from a clean cold write"
            ));
        }
        report.bit_checks += 1;
        rung += 1;
    }

    // The final picture must be quiescent: a second pass finds nothing.
    let final_pass = ArtifactStore::new(&dir)
        .recover()
        .map_err(|e| format!("final recovery failed: {e}"))?;
    report.recoveries += 1;
    if !final_pass.is_clean() {
        return Err(format!(
            "store not clean after ladder + recovery: {}",
            final_pass.summary()
        ));
    }
    Ok(())
}

/// Phase 2: the on-disk picture of a `kill -9` mid-publish — a torn
/// artifact under a live key. Recovery must quarantine the torn entry
/// (typed, reported), the key must read as a miss, and a rebuild must
/// write bytes identical to a clean store.
fn torn_store_heals(
    workdir: &Path,
    model: &charfree_core::AddPowerModel,
    clean_model_bytes: &[u8],
    report: &mut ChaosReport,
) -> Result<(), String> {
    let dir = fresh_dir(workdir, "torn-store")?;
    let store = ArtifactStore::new(&dir);
    let key = ArtifactKey::derive(&["chaos-torn"]);
    store
        .store_model(key, model)
        .map_err(|e| format!("clean store failed: {e}"))?;
    let path = store.path(key);
    let bytes = fs::read(&path).map_err(|e| e.to_string())?;
    fs::write(&path, &bytes[..bytes.len() / 2]).map_err(|e| e.to_string())?;

    let recovery = store.recover().map_err(|e| format!("recovery: {e}"))?;
    report.recoveries += 1;
    if recovery.quarantined.is_empty() {
        return Err("torn artifact was not quarantined".to_owned());
    }
    report.quarantined += recovery.quarantined.len();
    if !matches!(store.load_kernel(key), CacheLookup::Miss) {
        return Err("quarantined key still resolves".to_owned());
    }
    store
        .store_model(key, model)
        .map_err(|e| format!("rebuild store failed: {e}"))?;
    let healed = fs::read(&path).map_err(|e| e.to_string())?;
    if healed != clean_model_bytes {
        return Err("healed artifact differs from a clean cold write".to_owned());
    }
    report.bit_checks += 1;
    report.torn_heals += 1;
    Ok(())
}

/// Phase 3: a live server with the fault plan threaded through both its
/// artifact store and its connection read/write paths. Every completed
/// trace must be bit-identical to the local kernel; every failure must
/// be typed retriable or a reconnectable transport drop.
fn serve_under_stream_faults(
    config: &ChaosConfig,
    workdir: &Path,
    library: &Library,
    netlist: &Netlist,
    text: &str,
    kernel: &Kernel,
    report: &mut ChaosReport,
) -> Result<(), String> {
    let dir = fresh_dir(workdir, "serve")?;
    let blif_path = dir.join("chaos.blif");
    fs::write(&blif_path, text).map_err(|e| e.to_string())?;

    // References for the three eval seeds the request loop cycles.
    let mut references = Vec::new();
    for salt in 0..3u64 {
        let seed = config.seed ^ (0x100 + salt);
        let patterns = markov(netlist, seed, 16)?;
        references.push((seed, trace_bits(kernel, &patterns)));
    }

    let plan = Arc::new(FaultPlan::new(config.seed ^ 0xF00D, FaultConfig::default()));
    let mut serve_config = ServeConfig::new(library.clone());
    serve_config.addr = "127.0.0.1:0".to_owned();
    serve_config.log = false;
    serve_config.jobs = 2;
    serve_config.cache_dir = Some(dir.join("cache"));
    serve_config.fault_io = Some(Arc::clone(&plan) as Arc<dyn FaultIo>);
    let server = Server::start(serve_config).map_err(|e| format!("server start: {e}"))?;
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).map_err(|e| format!("connect: {e}"))?;
    let policy = RetryPolicy {
        retries: 4,
        base: Duration::from_millis(5),
        cap: Duration::from_millis(100),
        seed: config.seed,
    };

    let mut reconnects = 0usize;
    for i in 0..24usize {
        let (seed, want) = &references[i % references.len()];
        let request = Request::Trace {
            source: blif_path.display().to_string(),
            options: WireBuildOptions::default(),
            params: WireEvalParams {
                vectors: 16,
                sp: 0.5,
                st: 0.4,
                seed: *seed,
                deadline_ms: None,
            },
        };
        match client.request_with_retries(&request, &policy) {
            Ok(Response::Trace { values, .. }) => {
                let got: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
                if got != *want {
                    return Err(format!(
                        "request {i}: served trace diverged from the local kernel"
                    ));
                }
                report.bit_checks += 1;
                report.served_ok += 1;
            }
            Ok(Response::Error {
                kind,
                retry_after_ms,
                message,
            }) => {
                if !(kind.retriable() || retry_after_ms.is_some()) {
                    return Err(format!(
                        "request {i}: non-retriable failure under injected faults: {} {message}",
                        kind.name()
                    ));
                }
                report.typed_failures += 1;
            }
            Ok(other) => return Err(format!("request {i}: unexpected response {other:?}")),
            Err(e) => {
                // A dropped connection is an allowed (bounded) outcome;
                // garbage or a hang is not.
                reconnects += 1;
                if reconnects > 3 {
                    return Err(format!("request {i}: too many transport drops: {e}"));
                }
                report.typed_failures += 1;
                client = Client::connect(&addr).map_err(|e| format!("reconnect: {e}"))?;
            }
        }
    }
    if report.served_ok == 0 {
        return Err("no request completed under stream faults".to_owned());
    }
    let _ = client.request(&Request::Shutdown);
    server.wait();
    report.injected_faults += plan.injected();
    Ok(())
}

/// Phase 4: poisoned jobs panic the (single) batch worker; each panic
/// must surface to the submitter as a dropped reply, the supervisor must
/// restart the worker, and a healthy job right after must complete
/// bit-exactly.
fn supervised_worker_panics(
    kernel: &Arc<Kernel>,
    patterns: &[Vec<bool>],
    reference: &[u64],
    report: &mut ChaosReport,
) -> Result<(), String> {
    let stats = Arc::new(ServerStats::new());
    let dispatcher = Dispatcher::start(1, Duration::ZERO, 8, Arc::clone(&stats));
    for round in 0..3 {
        let (reply, rx) = sync_channel(1);
        let poison = Job {
            model: Resident::Comb(Arc::clone(kernel)),
            stimulus: Stimulus::Patterns(patterns.to_vec()),
            want_values: true,
            deadline: None,
            reply: Box::new(ChannelReply(reply)),
            fault: Some(JobFault::PanicInWorker),
        };
        dispatcher
            .handle()
            .try_submit(poison)
            .map_err(|_| format!("round {round}: poison submit shed"))?;
        if rx.recv().is_ok() {
            return Err(format!("round {round}: poisoned job produced a result"));
        }
        let (reply, rx) = sync_channel(1);
        let healthy = Job {
            model: Resident::Comb(Arc::clone(kernel)),
            stimulus: Stimulus::Patterns(patterns.to_vec()),
            want_values: true,
            deadline: None,
            reply: Box::new(ChannelReply(reply)),
            fault: None,
        };
        dispatcher
            .handle()
            .try_submit(healthy)
            .map_err(|_| format!("round {round}: healthy submit shed"))?;
        let output = rx
            .recv()
            .map_err(|_| format!("round {round}: healthy job lost after restart"))?
            .map_err(|e| format!("round {round}: healthy job failed: {e:?}"))?;
        let got: Vec<u64> = output
            .values
            .unwrap_or_default()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        if got != reference {
            return Err(format!(
                "round {round}: post-restart evaluation diverged from the reference"
            ));
        }
        report.bit_checks += 1;
    }
    dispatcher.shutdown();
    report.worker_panics = stats.worker_panics();
    if report.worker_panics != 3 {
        return Err(format!(
            "expected 3 supervised panics, stats saw {}",
            report.worker_panics
        ));
    }
    Ok(())
}

/// Phase 5: repeated deterministic build failures trip the per-model
/// circuit breaker; denials are typed `model-unavailable` with a
/// `retry_after_ms`, an unrelated model keeps serving, and once the
/// cause is fixed the half-open probe closes the circuit and answers
/// bit-exactly.
fn breaker_trips_and_heals(
    config: &ChaosConfig,
    workdir: &Path,
    library: &Library,
    netlist: &Netlist,
    text: &str,
    kernel: &Kernel,
    report: &mut ChaosReport,
) -> Result<(), String> {
    let dir = fresh_dir(workdir, "breaker")?;
    let late_path = dir.join("late.blif");

    let mut serve_config = ServeConfig::new(library.clone());
    serve_config.addr = "127.0.0.1:0".to_owned();
    serve_config.log = false;
    serve_config.jobs = 1;
    serve_config.breaker = BreakerConfig {
        failure_threshold: 2,
        open_base: Duration::from_millis(150),
        open_cap: Duration::from_secs(2),
    };
    let server = Server::start(serve_config).map_err(|e| format!("server start: {e}"))?;
    let mut client =
        Client::connect(&server.addr().to_string()).map_err(|e| format!("connect: {e}"))?;

    let eval_seed = config.seed ^ 0xB4EA;
    let trace_request = |source: String| Request::Trace {
        source,
        options: WireBuildOptions::default(),
        params: WireEvalParams {
            vectors: 12,
            sp: 0.5,
            st: 0.4,
            seed: eval_seed,
            deadline_ms: None,
        },
    };

    // Two deterministic failures (the netlist file does not exist yet).
    for attempt in 0..2 {
        match client
            .request(&trace_request(late_path.display().to_string()))
            .map_err(|e| format!("attempt {attempt}: {e}"))?
        {
            Response::Error { kind, .. } if !matches!(kind, ErrorKind::ModelUnavailable) => {}
            other => {
                return Err(format!(
                    "attempt {attempt}: expected a deterministic build failure, got {other:?}"
                ));
            }
        }
    }
    // Third request: the breaker is open; the failure is shed *typed*.
    match client
        .request(&trace_request(late_path.display().to_string()))
        .map_err(|e| e.to_string())?
    {
        Response::Error {
            kind: ErrorKind::ModelUnavailable,
            retry_after_ms: Some(ms),
            ..
        } => {
            if ms == 0 {
                return Err("breaker denial carried retry_after_ms=0".to_owned());
            }
            report.breaker_denials += 1;
            report.typed_failures += 1;
        }
        other => return Err(format!("expected model-unavailable, got {other:?}")),
    }
    // An independent healthy model is unaffected by the open circuit.
    match client
        .request(&trace_request("decod".to_owned()))
        .map_err(|e| e.to_string())?
    {
        Response::Trace { values, .. } if !values.is_empty() => {}
        other => {
            return Err(format!(
                "healthy model failed while circuit open: {other:?}"
            ))
        }
    }
    // Fix the cause, then let the retrying client ride the breaker's
    // retry_after_ms hint through the half-open probe to a bit-exact
    // answer.
    fs::write(&late_path, text).map_err(|e| e.to_string())?;
    let patterns = markov(netlist, eval_seed, 12)?;
    let want = trace_bits(kernel, &patterns);
    let policy = RetryPolicy {
        retries: 8,
        base: Duration::from_millis(25),
        cap: Duration::from_millis(500),
        seed: config.seed,
    };
    match client
        .request_with_retries(&trace_request(late_path.display().to_string()), &policy)
        .map_err(|e| format!("healed request: {e}"))?
    {
        Response::Trace { values, .. } => {
            let got: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
            if got != want {
                return Err("post-heal trace diverged from the local kernel".to_owned());
            }
            report.bit_checks += 1;
        }
        other => return Err(format!("circuit did not heal: {other:?}")),
    }
    let _ = client.request(&Request::Shutdown);
    server.wait();
    Ok(())
}

fn markov(netlist: &Netlist, seed: u64, vectors: usize) -> Result<Vec<Vec<bool>>, String> {
    let mut source =
        MarkovSource::new(netlist.num_inputs(), 0.5, 0.4, seed).map_err(|e| e.to_string())?;
    Ok(source.sequence(vectors))
}

fn trace_bits(kernel: &Kernel, patterns: &[Vec<bool>]) -> Vec<u64> {
    TraceEngine::new(kernel)
        .jobs(1)
        .trace(patterns)
        .iter()
        .map(|v| v.to_bits())
        .collect()
}

fn fresh_dir(workdir: &Path, tag: &str) -> Result<PathBuf, String> {
    let dir = workdir.join(tag);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_campaign_passes_on_a_reference_seed() {
        let dir = std::env::temp_dir().join(format!("charfree-chaos-{}", std::process::id()));
        let config = ChaosConfig {
            seed: 11,
            fault_target: 40,
        };
        let report = run(&config, &dir).expect("resilience invariants hold under chaos");
        assert!(report.injected_faults >= 40, "{report:?}");
        assert!(report.bit_checks > 0, "{report:?}");
        assert!(report.recoveries >= 2, "{report:?}");
        assert_eq!(report.torn_heals, 1, "{report:?}");
        assert!(report.served_ok >= 1, "{report:?}");
        assert_eq!(report.worker_panics, 3, "{report:?}");
        assert!(report.breaker_denials >= 1, "{report:?}");
        let _ = fs::remove_dir_all(&dir);
    }
}
