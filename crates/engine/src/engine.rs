//! Batched, multi-threaded trace evaluation.
//!
//! [`TraceEngine`] shards a transition stream into fixed-size chunks and
//! fans the chunks out over `std::thread::scope` workers (static
//! round-robin assignment, no locks in the hot path). Each worker packs
//! and evaluates its chunks in 256-lane sub-blocks through the fused
//! batch loop, holding its gather scratch across them. A summary never
//! holds the trace: each worker reduces its chunks to per-chunk
//! summaries, folded in chunk order with the association of
//! [`TraceSummary::from_values`]. Chunk boundaries depend only on the
//! fixed [`DEFAULT_CHUNK`] — never on the worker count — so `--jobs 1`
//! and `--jobs 8` produce bit-identical sums and maxima.

use crate::block::PatternBlock;
use crate::fused::{eval_fused_with, FusedJob, Scratch};
use crate::kernel::Kernel;

/// Transitions per work chunk. Small enough to load-balance, large
/// enough to amortize per-chunk packing; also the unit of deterministic
/// merging, so summation bits depend on it: it is a constant, and the
/// serving layer's micro-batcher reduces demultiplexed per-request
/// traces with the same association ([`TraceSummary::from_values`]) to
/// stay bit-identical to the offline path.
pub const DEFAULT_CHUNK: usize = 4096;

/// Transitions packed and evaluated per sub-block of the worker loops:
/// small enough that the pattern rows being packed, the packed words,
/// and the kernel's mask/selector scratch all stay cache-resident
/// together instead of evicting each other in whole-chunk phases.
const FUSE_LANES: usize = 256;

/// Deterministic reduction of one evaluated trace: count, sum and
/// maximum of the per-transition switched capacitance (fF).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceSummary {
    /// Number of transitions evaluated.
    pub transitions: usize,
    /// Sum of the per-transition switched capacitance (fF).
    pub sum_ff: f64,
    /// Maximum per-transition switched capacitance (fF);
    /// `f64::NEG_INFINITY` for an empty trace.
    pub max_ff: f64,
}

impl TraceSummary {
    /// The canonical deterministic reduction of an already-evaluated
    /// per-transition trace: partial sums are associated in
    /// [`DEFAULT_CHUNK`]-sized runs folded in order — the reduction
    /// [`TraceEngine::evaluate`] applies to its own trace. This is the
    /// demultiplexing hook for batching layers: evaluate transitions in
    /// any lane packing (per-lane values are independent), scatter the
    /// values back into per-request order, then reduce with this
    /// function to get a summary bit-identical to a dedicated
    /// [`TraceEngine::evaluate`] run.
    pub fn from_values(values: &[f64]) -> TraceSummary {
        let mut total = TraceSummary::EMPTY;
        for run in values.chunks(DEFAULT_CHUNK) {
            total.fold_run(run);
        }
        total
    }

    /// The summary of no transitions: the start of every fold.
    pub const EMPTY: TraceSummary = TraceSummary {
        transitions: 0,
        sum_ff: 0.0,
        max_ff: f64::NEG_INFINITY,
    };

    /// Folds in the next run of a trace: the run is summed on its own,
    /// then added to the running sum. Folding a trace's [`DEFAULT_CHUNK`]-sized
    /// runs in order, from [`EMPTY`](Self::EMPTY), is
    /// [`from_values`](Self::from_values) bit for bit, so a caller that
    /// produces a trace one chunk at a time can summarize it without
    /// keeping it.
    pub fn fold_run(&mut self, run: &[f64]) {
        self.absorb(&TraceSummary::of_run(run));
    }

    /// One run summed on its own (the first half of
    /// [`fold_run`](Self::fold_run)).
    fn of_run(run: &[f64]) -> TraceSummary {
        let mut sum = 0.0f64;
        let mut max = f64::NEG_INFINITY;
        for &c in run {
            sum += c;
            max = max.max(c);
        }
        TraceSummary {
            transitions: run.len(),
            sum_ff: sum,
            max_ff: max,
        }
    }

    /// Adds a run summed by [`of_run`](Self::of_run) to the running
    /// summary (the second half of [`fold_run`](Self::fold_run)).
    fn absorb(&mut self, run: &TraceSummary) {
        self.transitions += run.transitions;
        self.sum_ff += run.sum_ff;
        self.max_ff = self.max_ff.max(run.max_ff);
    }
}

/// A multi-threaded evaluator over one compiled [`Kernel`].
///
/// # Examples
///
/// ```
/// use charfree_core::ModelBuilder;
/// use charfree_engine::{Kernel, TraceEngine};
/// use charfree_netlist::{benchmarks, Library};
/// use charfree_sim::MarkovSource;
///
/// let library = Library::test_library();
/// let model = ModelBuilder::new(&benchmarks::by_name("cm85", &library).expect("Table 1 name")).build();
/// let kernel = Kernel::compile(&model);
/// let mut source = MarkovSource::new(11, 0.5, 0.5, 1).expect("feasible statistics");
/// let patterns = source.sequence(1000);
///
/// let summary = TraceEngine::new(&kernel).jobs(2).evaluate(&patterns);
/// assert_eq!(summary.transitions, 999);
/// assert!(summary.max_ff >= summary.sum_ff / 999.0);
/// ```
#[derive(Debug)]
pub struct TraceEngine<'k> {
    kernel: &'k Kernel,
    jobs: usize,
    chunk: usize,
}

impl<'k> TraceEngine<'k> {
    /// A single-threaded engine over `kernel`, chunked by
    /// [`DEFAULT_CHUNK`].
    pub fn new(kernel: &'k Kernel) -> TraceEngine<'k> {
        TraceEngine {
            kernel,
            jobs: 1,
            chunk: DEFAULT_CHUNK,
        }
    }

    /// Sets the worker count. `0` means "use the machine's available
    /// parallelism".
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = if jobs == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            jobs
        };
        self
    }

    /// Evaluates the `patterns.len() − 1` transitions of a resident
    /// pattern sequence to a deterministic [`TraceSummary`]: the
    /// [`TraceSummary::from_values`] reduction of [`TraceEngine::trace`],
    /// bit for bit, without keeping the trace. Each worker sums its
    /// chunks one at a time in a chunk-long buffer.
    pub fn evaluate(&self, patterns: &[Vec<bool>]) -> TraceSummary {
        let transitions = patterns.len().saturating_sub(1);
        let mut runs = vec![TraceSummary::EMPTY; transitions.div_ceil(self.chunk)];
        self.shard(
            patterns,
            runs.iter_mut().enumerate().collect(),
            |worker, ci, run| {
                let start = ci * self.chunk;
                let mut values = std::mem::take(&mut worker.values);
                values.resize(self.chunk.min(transitions - start), 0.0);
                worker.eval(start, &mut values);
                *run = TraceSummary::of_run(&values);
                worker.values = values;
            },
        );
        let mut total = TraceSummary::EMPTY;
        for run in &runs {
            total.absorb(run);
        }
        total
    }

    /// Evaluates a resident pattern sequence to the full per-transition
    /// capacitance trace (fF), sharded across workers.
    pub fn trace(&self, patterns: &[Vec<bool>]) -> Vec<f64> {
        let mut out = vec![0.0f64; patterns.len().saturating_sub(1)];
        self.shard(
            patterns,
            out.chunks_mut(self.chunk).enumerate().collect(),
            |worker, ci, values| worker.eval(ci * self.chunk, values),
        );
        out
    }

    /// Hands each chunk's work item — `work` holds `(chunk index,
    /// item)` pairs in chunk order — to worker `index mod jobs`, which
    /// calls `visit` on its items in order. One worker runs inline, with
    /// no thread spawn.
    fn shard<'p, T: Send>(
        &self,
        patterns: &'p [Vec<bool>],
        work: Vec<(usize, T)>,
        visit: impl Fn(&mut Worker<'k, 'p>, usize, T) + Sync,
    ) {
        let jobs = self.jobs.min(work.len()).max(1);
        let run = |items: Vec<(usize, T)>| {
            let mut worker = Worker {
                kernel: self.kernel,
                patterns,
                block: PatternBlock::new(self.kernel.num_vars() as usize),
                scratch: Scratch::default(),
                values: Vec::new(),
            };
            for (ci, item) in items {
                visit(&mut worker, ci, item);
            }
        };
        if jobs == 1 {
            run(work);
            return;
        }
        let mut per_worker: Vec<Vec<(usize, T)>> = (0..jobs).map(|_| Vec::new()).collect();
        for (ci, item) in work {
            per_worker[ci % jobs].push((ci, item));
        }
        std::thread::scope(|scope| {
            for items in per_worker {
                scope.spawn(|| run(items));
            }
        });
    }
}

/// One worker's view of the trace and its reused scratch: the packed
/// sub-block, the evaluator scratch and (for summaries) a chunk of values.
struct Worker<'k, 'p> {
    kernel: &'k Kernel,
    patterns: &'p [Vec<bool>],
    block: PatternBlock,
    scratch: Scratch,
    values: Vec<f64>,
}

impl Worker<'_, '_> {
    /// Evaluates transitions `start .. start + out.len()` into `out`,
    /// one 256-lane sub-block at a time.
    fn eval(&mut self, start: usize, out: &mut [f64]) {
        for (si, values) in out.chunks_mut(FUSE_LANES).enumerate() {
            let start = start + si * FUSE_LANES;
            self.block.clear();
            self.block
                .extend_from_patterns(self.kernel, &self.patterns[start..=start + values.len()]);
            let job = FusedJob {
                kernel: self.kernel,
                block: &self.block,
                out: values,
            };
            eval_fused_with(&mut [job], &mut self.scratch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use charfree_core::{ModelBuilder, PowerModel};
    use charfree_netlist::{benchmarks, Library};
    use charfree_sim::MarkovSource;

    impl TraceEngine<'_> {
        /// Sets the chunk size (transitions per work unit), so tests can
        /// cross chunk boundaries on short traces. Results are identical
        /// for any chunk-size/worker combination except for the
        /// floating-point association of partial sums, which is fixed by
        /// the chunk size alone (production engines keep
        /// [`DEFAULT_CHUNK`]).
        fn chunk_size(mut self, chunk: usize) -> Self {
            assert!(chunk > 0, "chunk size must be positive");
            self.chunk = chunk;
            self
        }
    }

    fn cm85_kernel() -> (charfree_core::AddPowerModel, Kernel) {
        let library = Library::test_library();
        let model =
            ModelBuilder::new(&benchmarks::by_name("cm85", &library).expect("Table 1 name"))
                .max_nodes(400)
                .build();
        let kernel = Kernel::compile(&model);
        (model, kernel)
    }

    #[test]
    fn summary_matches_sequential_reference() {
        let (model, kernel) = cm85_kernel();
        let mut source = MarkovSource::new(11, 0.5, 0.4, 11).expect("feasible");
        let patterns = source.sequence(700);
        let summary = TraceEngine::new(&kernel)
            .chunk_size(128)
            .jobs(3)
            .evaluate(&patterns);
        assert_eq!(summary.transitions, 699);
        // Reference with the same chunked association.
        let mut want_sum = 0.0f64;
        let mut want_max = f64::NEG_INFINITY;
        for chunk in (0..699).collect::<Vec<_>>().chunks(128) {
            let mut s = 0.0f64;
            for &t in chunk {
                let c = model
                    .capacitance(&patterns[t], &patterns[t + 1])
                    .femtofarads();
                s += c;
                want_max = want_max.max(c);
            }
            want_sum += s;
        }
        assert_eq!(summary.sum_ff.to_bits(), want_sum.to_bits());
        assert_eq!(summary.max_ff.to_bits(), want_max.to_bits());
    }

    #[test]
    fn jobs_do_not_change_results() {
        let (_, kernel) = cm85_kernel();
        let mut source = MarkovSource::new(11, 0.5, 0.3, 5).expect("feasible");
        let patterns = source.sequence(1500);
        let one = TraceEngine::new(&kernel)
            .chunk_size(100)
            .jobs(1)
            .evaluate(&patterns);
        let eight = TraceEngine::new(&kernel)
            .chunk_size(100)
            .jobs(8)
            .evaluate(&patterns);
        assert_eq!(one.sum_ff.to_bits(), eight.sum_ff.to_bits());
        assert_eq!(one.max_ff.to_bits(), eight.max_ff.to_bits());
        assert_eq!(one.transitions, eight.transitions);
    }

    #[test]
    fn trace_matches_scalar_walks() {
        let (model, kernel) = cm85_kernel();
        let mut source = MarkovSource::new(11, 0.5, 0.6, 7).expect("feasible");
        let patterns = source.sequence(300);
        let trace = TraceEngine::new(&kernel)
            .chunk_size(64)
            .jobs(4)
            .trace(&patterns);
        assert_eq!(trace.len(), 299);
        for (t, &c) in trace.iter().enumerate() {
            assert_eq!(
                c.to_bits(),
                model
                    .capacitance(&patterns[t], &patterns[t + 1])
                    .femtofarads()
                    .to_bits()
            );
        }
    }

    #[test]
    fn from_values_matches_evaluate_bit_for_bit() {
        let (_, kernel) = cm85_kernel();
        let mut source = MarkovSource::new(11, 0.5, 0.4, 17).expect("feasible");
        // Not a multiple of the chunk size, to exercise the tail run.
        let patterns = source.sequence(1103);
        for chunk in [64, 100, DEFAULT_CHUNK] {
            let engine = TraceEngine::new(&kernel).chunk_size(chunk).jobs(3);
            let summary = engine.evaluate(&patterns);
            let trace = engine.trace(&patterns);
            // Folding the engine's runs reduces like `from_values`.
            let mut reduced = TraceSummary::EMPTY;
            for run in trace.chunks(chunk) {
                reduced.fold_run(run);
            }
            assert_eq!(summary.transitions, reduced.transitions);
            assert_eq!(summary.sum_ff.to_bits(), reduced.sum_ff.to_bits());
            assert_eq!(summary.max_ff.to_bits(), reduced.max_ff.to_bits());
        }
    }

    #[test]
    fn degenerate_inputs() {
        let (_, kernel) = cm85_kernel();
        let engine = TraceEngine::new(&kernel);
        assert_eq!(engine.evaluate(&[]).transitions, 0);
        assert_eq!(engine.trace(&[vec![false; 11]]).len(), 0);
    }
}
