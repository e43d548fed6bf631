//! `perf` — the benchmark of record for the charfree workspace.
//!
//! ```text
//! perf [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out DIR]
//!     --workload NAME  build | eval_offline | serve_eval | serve_mixed; without
//!                      it every workload runs, each in its own child process
//!     --seed N         workload seed (default 1998)
//!     --seconds S      length of the measured window (default 15)
//!     --trace 0|1      1 = traced run, which reports per-layer metrics
//!     --quick          reduced sizes, for the smoke test
//!     --out DIR        where run records go (default target/perf)
//! perf compare PARENT_DIR CHANGE_DIR
//! ```
//!
//! Each run prints its metrics as `workload metric value unit` lines and
//! ends with one JSON line: `{"correct", "attempted", "failed",
//! "metrics"}`. It exits nonzero when a correctness check or an operation
//! fails. README.md describes the workloads, the metrics and the
//! record schema.

mod build;
mod clock;
mod compare;
mod layers;
mod offline;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{SystemTime, UNIX_EPOCH};

use charfree_serve::json::Json;

use crate::trace::Layer;

/// The workloads, in the order a full run makes them.
const WORKLOADS: [&str; 4] = ["build", "eval_offline", "serve_eval", "serve_mixed"];

/// One run's settings.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub quick: bool,
    pub out: PathBuf,
}

/// One slice of a measured window: a pass or round of a batch workload,
/// or a short closed-loop stretch of a serving one.
#[derive(Debug, Default)]
pub struct Slice {
    /// Wall-clock latency of each operation completed in the slice (ms).
    pub op_ms: Vec<f64>,
    /// Wall-clock seconds the slice lasted.
    pub secs: f64,
    pub attempted: u64,
    pub failed: u64,
}

/// What the checks after a window found.
#[derive(Debug, Default)]
pub struct Finish {
    pub checks: u64,
    pub failures: Vec<String>,
    /// Report lines beyond the metrics: `(name, value, unit)`.
    pub lines: Vec<(String, f64, &'static str)>,
    /// Per-layer values only the workload can measure.
    pub layer: BTreeMap<&'static str, f64>,
}

impl Finish {
    /// Counts one check; records `message()` when it failed.
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.failures.push(message());
        }
    }

    /// Counts one check per outcome.
    pub fn outcomes(&mut self, outcomes: Vec<Result<(), String>>) {
        for outcome in outcomes {
            self.check(outcome.is_ok(), || outcome.err().unwrap_or_default());
        }
    }

    pub fn line(&mut self, name: String, value: f64, unit: &'static str) {
        self.lines.push((name, value, unit));
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layer.insert(name, value);
    }
}

/// A workload: a set-up the run repeats, a window of slices it times,
/// and the checks that follow.
pub trait Workload {
    /// Nominal seconds of one slice. A window of `S` seconds runs
    /// `round(S / SLICE_S)` slices: the count depends on the window
    /// alone, never on how fast the code runs, so both sides of a
    /// comparison time the same work.
    const SLICE_S: f64;
    type State;
    /// Prepares everything the window needs; `repeat` counts set-ups.
    fn setup(run: &Run, repeat: usize) -> Result<Self::State, String>;
    /// Runs one slice of about `seconds`.
    fn slice(state: &mut Self::State, run: &Run, seconds: f64) -> Slice;
    /// Checks the outputs and records what only the workload measures.
    fn finish(state: Self::State, run: &Run, out: &mut Finish);
}

/// A timed slice: what it did, the CPU seconds it took, and the CPU
/// milliseconds the reference work took just before it.
struct Timed {
    slice: Slice,
    cpu_s: f64,
    reference_ms: f64,
}

/// The median over slices of the CPU milliseconds per operation, each
/// slice scaled by its own reference timing (`scale`) or not.
fn median_ms_per_op(slices: &[Timed], scale: bool) -> Result<f64, String> {
    let per_op: Vec<f64> = slices
        .iter()
        .filter(|t| !t.slice.op_ms.is_empty())
        .map(|t| {
            let cpu_s = if scale {
                clock::scaled(t.cpu_s, t.reference_ms)
            } else {
                t.cpu_s
            };
            cpu_s * 1e3 / t.slice.op_ms.len() as f64
        })
        .collect();
    if per_op.is_empty() {
        return Err("the window completed no operation".to_owned());
    }
    Ok(stats::median(&per_op))
}

/// A finished run, ready to print.
struct Outcome {
    metrics: Vec<(String, f64, &'static str)>,
    finish: Finish,
    attempted: u64,
    failed: u64,
}

fn drive<W: Workload>(run: &Run) -> Result<Outcome, String> {
    trace::set_enabled(run.traced);
    // Set-up is repeated (and its median reported) so that work moved
    // into it shows; each repeat tears the previous one down first.
    let repeats = if run.traced || run.quick { 1 } else { 5 };
    let mut setup_s = Vec::with_capacity(repeats);
    let mut state = None;
    for repeat in 0..repeats {
        drop(state.take());
        let reference_ms = clock::reference_ms();
        let cpu0 = clock::process_cpu_s();
        state = Some(trace::span(Layer::Bench, "setup", || {
            W::setup(run, repeat)
        })?);
        setup_s.push(clock::scaled(clock::process_cpu_s() - cpu0, reference_ms));
    }
    let mut state = state.expect("at least one set-up");
    let count = if run.quick {
        2
    } else {
        ((run.seconds / W::SLICE_S).round() as usize).max(2)
    };
    let secs = run.seconds / count as f64;
    let mut slices = Vec::with_capacity(count);
    for i in 0..count {
        // A traced run times its first half untraced and its second half
        // traced; the difference is the tracing overhead.
        if run.traced {
            trace::set_enabled(i >= count / 2);
        }
        let reference_ms = clock::reference_ms();
        let cpu0 = clock::process_cpu_s();
        let slice = trace::span(Layer::Bench, "window", || W::slice(&mut state, run, secs));
        slices.push(Timed {
            slice,
            cpu_s: clock::process_cpu_s() - cpu0,
            reference_ms,
        });
    }
    trace::set_enabled(run.traced);
    let mut finish = Finish::default();
    trace::span(Layer::Bench, "check", || W::finish(state, run, &mut finish));
    trace::set_enabled(false);

    let metrics = if run.traced {
        let (plain, traced) = slices.split_at(count / 2);
        let overhead = median_ms_per_op(traced, true)? / median_ms_per_op(plain, true)?;
        per_layer(&finish, 100.0 * (overhead - 1.0))
    } else {
        // Unscaled and wall-clock figures, for the record: they move with
        // the other tenants' load, so no bound applies to them.
        let mut wall: Vec<f64> = slices
            .iter()
            .flat_map(|t| t.slice.op_ms.iter().copied())
            .collect();
        wall.sort_by(f64::total_cmp);
        let tail = stats::tail(&wall);
        let wall_s: f64 = slices.iter().map(|t| t.slice.secs).sum();
        let reference: Vec<f64> = slices.iter().map(|t| t.reference_ms).collect();
        finish.line(
            "cpu_ms_per_op".to_owned(),
            median_ms_per_op(&slices, false)?,
            "ms",
        );
        finish.line("reference_ms".to_owned(), stats::median(&reference), "ms");
        finish.line("wall_p50_ms".to_owned(), stats::median(&wall), "ms");
        finish.line("wall_tail_ms".to_owned(), tail.value, "ms");
        finish.line("wall_tail_percentile".to_owned(), 100.0 * tail.p, "%");
        finish.line(
            "wall_ops_per_s".to_owned(),
            wall.len() as f64 / wall_s,
            "1/s",
        );
        finish.line("ops".to_owned(), wall.len() as f64, "count");
        vec![
            ("setup_s".to_owned(), stats::median(&setup_s), "s"),
            (
                "scaled_cpu_ms_per_op".to_owned(),
                median_ms_per_op(&slices, true)?,
                "ms",
            ),
            ("peak_rss_mb".to_owned(), peak_rss_mb()?, "MB"),
        ]
    };
    Ok(Outcome {
        metrics,
        attempted: slices.iter().map(|t| t.slice.attempted).sum::<u64>() + finish.checks,
        failed: slices.iter().map(|t| t.slice.failed).sum::<u64>() + finish.failures.len() as u64,
        finish,
    })
}

/// The per-layer metrics of a traced run. Every workload reports every
/// one of them; a layer the workload does not use reads 0.
fn per_layer(finish: &Finish, overhead_pct: f64) -> Vec<(String, f64, &'static str)> {
    let spans = trace::spans();
    let counters = trace::counters();
    let counter = |name: &str| counters.get(name).copied().unwrap_or(0.0);
    let secs = |name: &str| trace::seconds_in(&spans, name);
    let rate = |count: f64, seconds: f64| if seconds > 0.0 { count / seconds } else { 0.0 };
    let (self_s, coverage) = trace::layer_self_seconds(&spans);
    let total: f64 = self_s.values().sum();

    let mut m: Vec<(String, f64, &'static str)> = Layer::CRATES
        .iter()
        .map(|layer| {
            let own = self_s.get(layer).copied().unwrap_or(0.0);
            (
                format!("{}.self_pct", layer.name()),
                100.0 * rate(own, total),
                "%",
            )
        })
        .collect();
    let accumulate = secs("core.accumulate");
    let engine = secs("engine.evaluate") + secs("engine.trace");
    let patterns = secs("sim.patterns");
    let named = [
        ("trace.coverage_pct", 100.0 * coverage, "%"),
        ("trace.overhead_pct", overhead_pct, "%"),
        ("netlist.load_s", secs("netlist.load"), "s"),
        ("dd.apply_steps", counter("dd.apply_steps"), "count"),
        (
            "dd.apply_steps_per_s",
            rate(counter("dd.apply_steps"), accumulate),
            "1/s",
        ),
        ("dd.peak_live_nodes", counter("dd.peak_live_nodes"), "count"),
        (
            "dd.peak_arena_mb",
            counter("dd.peak_arena_bytes") / 1e6,
            "MB",
        ),
        ("core.accumulate_s", accumulate, "s"),
        ("core.collapse_s", secs("core.collapse"), "s"),
        ("core.model_nodes", counter("core.model_nodes"), "count"),
        ("pipeline.overhead_s", counter("pipeline.overhead_s"), "s"),
        ("engine.compile_s", secs("engine.compile"), "s"),
        ("engine.eval_s", engine, "s"),
        (
            "engine.mtps",
            rate(counter("engine.transitions"), engine) / 1e6,
            "M/s",
        ),
        (
            "engine.kernel_kb",
            counter("engine.kernel_bytes") / 1024.0,
            "KB",
        ),
        ("sim.patterns_s", patterns, "s"),
        (
            "sim.patterns_mtps",
            rate(counter("sim.patterns"), patterns) / 1e6,
            "M/s",
        ),
        (
            "seq.fused_mtps",
            rate(counter("seq.transitions"), secs("seq.fused")) / 1e6,
            "M/s",
        ),
    ];
    m.extend(named.into_iter().map(|(n, v, u)| (n.to_owned(), v, u)));
    for (name, unit) in serve::LAYER_METRICS {
        let value = finish.layer.get(name).copied().unwrap_or(0.0);
        m.push((name.to_owned(), value, unit));
    }
    m
}

/// The process's peak resident set (VmHWM), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

fn run_one(workload: &str, run: &Run) -> Result<bool, String> {
    let started = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_millis());
    let outcome = match workload {
        "build" => drive::<build::Build>(run),
        "eval_offline" => drive::<offline::EvalOffline>(run),
        "serve_eval" => drive::<serve::ServeEval>(run),
        "serve_mixed" => drive::<serve::ServeMixed>(run),
        other => return Err(format!("unknown workload `{other}`")),
    }?;
    for failure in &outcome.finish.failures {
        eprintln!("{workload}: CHECK FAILED: {failure}");
    }
    for (name, value, unit) in outcome.finish.lines.iter().chain(&outcome.metrics) {
        println!("{workload} {name} {value} {unit}");
    }
    let correct = outcome.finish.failures.is_empty();
    let metrics = Json::Obj(
        outcome
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let entry = Json::Obj(vec![
                    ("value".to_owned(), Json::num(value)),
                    ("unit".to_owned(), Json::Str((*unit).to_owned())),
                ]);
                (name.clone(), entry)
            })
            .collect(),
    );
    let result = Json::Obj(vec![
        ("correct".to_owned(), Json::Bool(correct)),
        ("attempted".to_owned(), Json::num(outcome.attempted.max(1))),
        ("failed".to_owned(), Json::num(outcome.failed)),
        ("metrics".to_owned(), metrics.clone()),
    ]);
    write_record(workload, run, started, &outcome, metrics);
    println!("{}", result.to_line());
    Ok(correct && outcome.failed == 0)
}

/// Writes the run record (and, traced, the spans) under `run.out`. A
/// record that cannot be written costs a warning, not the run.
fn write_record(workload: &str, run: &Run, started_ms: u128, outcome: &Outcome, metrics: Json) {
    let rev = revision();
    let kind = if run.traced { "trace" } else { "run" };
    let record = Json::Obj(vec![
        ("workload".to_owned(), Json::Str(workload.to_owned())),
        ("rev".to_owned(), Json::Str(rev.clone())),
        ("seed".to_owned(), Json::num(run.seed)),
        ("seconds".to_owned(), Json::num(run.seconds)),
        ("trace".to_owned(), Json::Bool(run.traced)),
        ("quick".to_owned(), Json::Bool(run.quick)),
        ("host_cores".to_owned(), Json::num(host_cores())),
        ("started_unix_ms".to_owned(), Json::num(started_ms)),
        (
            "correct".to_owned(),
            Json::Bool(outcome.finish.failures.is_empty()),
        ),
        ("attempted".to_owned(), Json::num(outcome.attempted)),
        ("failed".to_owned(), Json::num(outcome.failed)),
        (
            "failures".to_owned(),
            Json::Arr(
                outcome
                    .finish
                    .failures
                    .iter()
                    .cloned()
                    .map(Json::Str)
                    .collect(),
            ),
        ),
        ("metrics".to_owned(), metrics),
        (
            "lines".to_owned(),
            Json::Obj(
                outcome
                    .finish
                    .lines
                    .iter()
                    .map(|(name, value, _)| (name.clone(), Json::num(value)))
                    .collect(),
            ),
        ),
    ]);
    let path = run.out.join(format!(
        "{rev}-{workload}-{kind}-s{}-{started_ms}.json",
        run.seed
    ));
    let written = std::fs::write(&path, record.to_line() + "\n").and_then(|()| {
        if run.traced {
            trace::write_json(
                &run.out.join(format!("trace-{workload}.json")),
                &trace::spans(),
            )
        } else {
            Ok(())
        }
    });
    if let Err(e) = written {
        eprintln!("perf: warning: writing {}: {e}", path.display());
    }
}

/// The source revision, from git when the working directory is the root
/// of a repository. `GIT_DIR` stops git from searching the directories
/// above for one.
fn revision() -> String {
    Command::new("git")
        .env("GIT_DIR", ".git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs every workload in a child process of its own.
fn run_all(args: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let mut all_ok = true;
    for workload in WORKLOADS {
        let status = Command::new(&exe)
            .arg("--workload")
            .arg(workload)
            .args(args)
            .status()
            .map_err(|e| format!("starting the {workload} run: {e}"))?;
        if !status.success() {
            eprintln!("perf: {workload} failed ({status})");
            all_ok = false;
        }
    }
    Ok(all_ok)
}

fn parse_run(args: &[String]) -> Result<(Option<String>, Run), String> {
    let mut workload = None;
    let mut run = Run {
        seed: 1998,
        seconds: 15.0,
        traced: false,
        quick: false,
        out: PathBuf::from("target/perf"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} takes a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => run.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                run.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(run.seconds > 0.0 && run.seconds.is_finite()) {
                    return Err("--seconds must be positive".to_owned());
                }
            }
            "--trace" => {
                run.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--quick" => run.quick = true,
            "--out" => run.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some(w) = &workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload `{w}` (one of {})",
                WORKLOADS.join(", ")
            ));
        }
    }
    Ok((workload, run))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if args.first().map(String::as_str) == Some("compare") {
        match &args[1..] {
            [parent, change] => compare::run(
                Path::new(parent),
                Path::new(change),
                Path::new("BENCHMARK.json"),
            ),
            _ => Err("usage: perf compare PARENT_DIR CHANGE_DIR".to_owned()),
        }
    } else {
        parse_run(&args).and_then(|(workload, run)| {
            std::fs::create_dir_all(&run.out)
                .map_err(|e| format!("creating {}: {e}", run.out.display()))?;
            match workload {
                Some(w) => run_one(&w, &run),
                None => run_all(&args),
            }
        })
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::from(2)
        }
    }
}
