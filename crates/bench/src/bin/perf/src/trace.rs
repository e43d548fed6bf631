//! The span recorder behind `--trace 1`.
//!
//! Spans are recorded from the benchmark's own code, around its calls
//! into the workspace crates (the layers); nothing inside the program is
//! instrumented. A span holds its name, layer, start, end, parent and
//! request id. Spans and counters stay in memory while the run lasts and
//! are written out when it ends. With tracing off, [`span`] is a plain
//! call.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Where a span's time is charged: a workspace crate the benchmark
/// calls, or the benchmark's own code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Layer {
    /// The benchmark harness itself (the root spans).
    Bench,
    /// `charfree-netlist` (parse and annotate).
    Netlist,
    /// `charfree-core`, with the `charfree-dd` apply work it drives.
    Core,
    /// `charfree-pipeline` calls timed as a whole.
    Pipeline,
    /// `charfree-engine` (compile and batch evaluation).
    Engine,
    /// `charfree-sim` (pattern sources and golden simulation).
    Sim,
    /// `charfree-seq` (sequential builds and fused evaluation).
    Seq,
    /// `charfree-serve` with the `charfree-net` reactor under it, seen
    /// from the client.
    Serve,
}

impl Layer {
    /// Every layer a workspace crate owns (the harness excluded).
    pub const CRATES: [Layer; 7] = [
        Layer::Netlist,
        Layer::Core,
        Layer::Pipeline,
        Layer::Engine,
        Layer::Sim,
        Layer::Seq,
        Layer::Serve,
    ];

    /// The metric-name prefix of the layer.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::Netlist => "netlist",
            Layer::Core => "core",
            Layer::Pipeline => "pipeline",
            Layer::Engine => "engine",
            Layer::Sim => "sim",
            Layer::Seq => "seq",
            Layer::Serve => "serve",
        }
    }
}

/// One recorded call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within the run.
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// What was called, e.g. `core.accumulate`.
    pub name: &'static str,
    /// Where the time is charged.
    pub layer: Layer,
    /// Nanoseconds since the recorder started.
    pub start_ns: u64,
    /// Nanoseconds since the recorder started.
    pub end_ns: u64,
    /// The request the span served, for spans of one served request.
    pub request: Option<u64>,
}

struct Recorder {
    enabled: AtomicBool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    counters: Mutex<BTreeMap<&'static str, f64>>,
}

fn recorder() -> &'static Recorder {
    static RECORDER: OnceLock<Recorder> = OnceLock::new();
    RECORDER.get_or_init(|| Recorder {
        enabled: AtomicBool::new(false),
        epoch: Instant::now(),
        next_id: AtomicU64::new(1),
        spans: Mutex::new(Vec::new()),
        counters: Mutex::new(BTreeMap::new()),
    })
}

thread_local! {
    /// Open spans on this thread, innermost last.
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Turns recording on or off for every thread.
pub fn set_enabled(on: bool) {
    recorder().enabled.store(on, Ordering::SeqCst);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    recorder().enabled.load(Ordering::Relaxed)
}

/// Runs `f` inside a span charged to `layer`.
pub fn span<T>(layer: Layer, name: &'static str, f: impl FnOnce() -> T) -> T {
    request_span(layer, name, None, f)
}

/// Runs `f` inside a span that serves request `request`.
pub fn request_span<T>(
    layer: Layer,
    name: &'static str,
    request: Option<u64>,
    f: impl FnOnce() -> T,
) -> T {
    if !enabled() {
        return f();
    }
    let r = recorder();
    let id = r.next_id.fetch_add(1, Ordering::Relaxed);
    let parent = current();
    STACK.with(|s| s.borrow_mut().push(id));
    let start = r.epoch.elapsed();
    let out = f();
    let end = r.epoch.elapsed();
    STACK.with(|s| s.borrow_mut().pop());
    r.spans.lock().expect("span log poisoned").push(Span {
        id,
        parent,
        name,
        layer,
        start_ns: start.as_nanos() as u64,
        end_ns: end.as_nanos() as u64,
        request,
    });
    out
}

/// The innermost open span on this thread, to hand to worker threads.
pub fn current() -> Option<u64> {
    STACK.with(|s| s.borrow().last().copied())
}

/// Makes `parent` (from [`current`] on another thread) the enclosing
/// span of the spans this thread opens next.
pub fn adopt(parent: Option<u64>) {
    if let Some(id) = parent {
        STACK.with(|s| s.borrow_mut().push(id));
    }
}

/// Adds `value` to counter `name` (while recording).
pub fn add(name: &'static str, value: f64) {
    if enabled() {
        *recorder()
            .counters
            .lock()
            .expect("counters poisoned")
            .entry(name)
            .or_insert(0.0) += value;
    }
}

/// Raises counter `name` to at least `value` (while recording).
pub fn max(name: &'static str, value: f64) {
    if enabled() {
        let mut counters = recorder().counters.lock().expect("counters poisoned");
        let slot = counters.entry(name).or_insert(value);
        *slot = slot.max(value);
    }
}

/// Every counter recorded so far.
pub fn counters() -> BTreeMap<&'static str, f64> {
    recorder()
        .counters
        .lock()
        .expect("counters poisoned")
        .clone()
}

/// Every span recorded so far, in completion order.
pub fn spans() -> Vec<Span> {
    recorder().spans.lock().expect("span log poisoned").clone()
}

/// Each span's self time in nanoseconds: its duration minus the part of
/// it that its children cover. Children on other threads may overlap
/// one another, so the covered part is the union of their intervals.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = s.parent.and_then(|p| index.get(&p)) {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Self time per layer, in seconds, and the share of the root spans'
/// wall time that some layer's span covers.
pub fn layer_self_seconds(spans: &[Span]) -> (BTreeMap<Layer, f64>, f64) {
    let selfs = self_times(spans);
    let mut per_layer = BTreeMap::new();
    let (mut root_wall, mut root_self) = (0u64, 0u64);
    for (s, &own) in spans.iter().zip(&selfs) {
        *per_layer.entry(s.layer).or_insert(0.0) += own as f64 * 1e-9;
        if s.parent.is_none() {
            root_wall += s.end_ns - s.start_ns;
            root_self += own;
        }
    }
    let coverage = if root_wall == 0 {
        0.0
    } else {
        1.0 - root_self as f64 / root_wall as f64
    };
    (per_layer, coverage)
}

/// Total seconds spent in spans called `name` (children included).
pub fn seconds_in(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
        .sum()
}

/// Writes the spans as a JSON array, one span per line.
pub fn write_json(path: &Path, spans: &[Span]) -> io::Result<()> {
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "[")?;
    for (i, s) in spans.iter().enumerate() {
        let opt = |v: Option<u64>| v.map_or("null".to_owned(), |v| v.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"request\":{}}}{}",
            s.id,
            opt(s.parent),
            s.name,
            s.layer.name(),
            s.start_ns,
            s.end_ns,
            opt(s.request),
            if i + 1 < spans.len() { "," } else { "" }
        )?;
    }
    writeln!(out, "]")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(id: u64, parent: Option<u64>, layer: Layer, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            layer,
            start_ns: start,
            end_ns: end,
            request: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            at(1, None, Layer::Bench, 0, 100),
            // Two overlapping children on different threads cover
            // [10, 50) once, not twice.
            at(2, Some(1), Layer::Serve, 10, 40),
            at(3, Some(1), Layer::Serve, 20, 50),
            // A nested grandchild only reduces its own parent.
            at(4, Some(2), Layer::Engine, 15, 25),
            at(5, Some(1), Layer::Core, 70, 80),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 30, 10, 10]);
        let (per_layer, coverage) = layer_self_seconds(&spans);
        assert!((coverage - 0.5).abs() < 1e-12);
        assert!((per_layer[&Layer::Serve] - 50e-9).abs() < 1e-18);
        assert!((per_layer[&Layer::Bench] - 50e-9).abs() < 1e-18);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = [
            at(1, None, Layer::Bench, 10, 20),
            at(2, Some(1), Layer::Sim, 5, 15),
            at(3, Some(1), Layer::Sim, 18, 30),
        ];
        assert_eq!(self_times(&spans)[0], 3);
    }
}
