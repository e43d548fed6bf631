//! Batched, multi-threaded trace evaluation.
//!
//! [`TraceEngine`] shards a transition stream into fixed-size chunks and
//! fans the chunks out over `std::thread::scope` workers (static
//! round-robin assignment, no locks in the hot path). Each worker packs
//! and evaluates its chunks in 256-lane sub-blocks through the fused
//! batch loop, holding its gather scratch across them. Summaries reduce
//! the finished trace in chunk order ([`TraceSummary::from_values`]).
//! Chunk boundaries depend only on the configured chunk size — never on
//! the worker count — so `--jobs 1` and `--jobs 8` produce bit-identical
//! sums and maxima.

use crate::block::PatternBlock;
use crate::fused::{eval_fused_with, FusedJob};
use crate::kernel::Kernel;

/// Transitions per work chunk. Small enough to load-balance, large
/// enough to amortize per-chunk packing; also the unit of deterministic
/// merging. Public because the serving layer's micro-batcher reduces
/// demultiplexed per-request traces with exactly this association (see
/// [`TraceSummary::from_values`]) to stay bit-identical to the offline
/// path.
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
    /// Mean switched capacitance (fF) per transition (NaN when empty).
    pub fn mean_ff(&self) -> f64 {
        self.sum_ff / self.transitions as f64
    }

    /// The canonical deterministic reduction of an already-evaluated
    /// per-transition trace: partial sums are associated in `chunk`-sized
    /// runs folded in order — the reduction [`TraceEngine::evaluate`]
    /// applies to its own trace. This is the demultiplexing hook for
    /// batching layers: evaluate transitions in any lane packing
    /// (per-lane values are independent), scatter the values back into
    /// per-request order, then reduce with this function to get a
    /// summary bit-identical to a dedicated [`TraceEngine::evaluate`] run
    /// with the same chunk size.
    ///
    /// # Panics
    ///
    /// Panics if `chunk == 0`.
    pub fn from_values(values: &[f64], chunk: usize) -> TraceSummary {
        assert!(chunk > 0, "chunk size must be positive");
        let mut total = TraceSummary {
            transitions: values.len(),
            sum_ff: 0.0,
            max_ff: f64::NEG_INFINITY,
        };
        for run in values.chunks(chunk) {
            let mut sum = 0.0f64;
            let mut max = f64::NEG_INFINITY;
            for &c in run {
                sum += c;
                max = max.max(c);
            }
            total.sum_ff += sum;
            total.max_ff = total.max_ff.max(max);
        }
        total
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
/// assert!(summary.max_ff >= summary.mean_ff());
/// ```
#[derive(Debug)]
pub struct TraceEngine<'k> {
    kernel: &'k Kernel,
    jobs: usize,
    chunk: usize,
}

impl<'k> TraceEngine<'k> {
    /// A single-threaded engine over `kernel` with the default chunk
    /// size.
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

    /// Sets the chunk size (transitions per work unit). Results are
    /// identical for any chunk-size/worker combination except for the
    /// floating-point association of partial sums, which is fixed by the
    /// chunk size alone.
    ///
    /// # Panics
    ///
    /// Panics if `chunk == 0`.
    pub fn chunk_size(mut self, chunk: usize) -> Self {
        assert!(chunk > 0, "chunk size must be positive");
        self.chunk = chunk;
        self
    }

    /// Evaluates the `patterns.len() − 1` transitions of a resident
    /// pattern sequence to a deterministic [`TraceSummary`]: the
    /// [`TraceSummary::from_values`] reduction of [`TraceEngine::trace`].
    pub fn evaluate(&self, patterns: &[Vec<bool>]) -> TraceSummary {
        TraceSummary::from_values(&self.trace(patterns), self.chunk)
    }

    /// Evaluates a resident pattern sequence to the full per-transition
    /// capacitance trace (fF), sharded across workers.
    pub fn trace(&self, patterns: &[Vec<bool>]) -> Vec<f64> {
        if patterns.len() < 2 {
            return Vec::new();
        }
        let mut out = vec![0.0f64; patterns.len() - 1];
        let slices: Vec<(usize, &mut [f64])> = out.chunks_mut(self.chunk).enumerate().collect();
        let kernel = self.kernel;
        let chunk = self.chunk;
        let jobs = self.jobs.min(slices.len()).max(1);
        let run = move |work: Vec<(usize, &mut [f64])>| {
            let mut block = PatternBlock::new(kernel.num_vars() as usize);
            let mut gathers = Vec::new();
            for (ci, slice) in work {
                for (si, values) in slice.chunks_mut(FUSE_LANES).enumerate() {
                    let start = ci * chunk + si * FUSE_LANES;
                    block.clear();
                    block.extend_from_patterns(kernel, &patterns[start..=start + values.len()]);
                    let job = FusedJob {
                        kernel,
                        block: &block,
                        out: values,
                    };
                    eval_fused_with(&mut [job], &mut gathers);
                }
            }
        };
        if jobs == 1 {
            // One worker: run inline, no thread spawn.
            run(slices);
        } else {
            let mut per_worker: Vec<Vec<(usize, &mut [f64])>> =
                (0..jobs).map(|_| Vec::new()).collect();
            for (i, s) in slices {
                per_worker[i % jobs].push((i, s));
            }
            std::thread::scope(|scope| {
                for work in per_worker {
                    scope.spawn(|| run(work));
                }
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use charfree_core::{ModelBuilder, PowerModel};
    use charfree_netlist::{benchmarks, Library};
    use charfree_sim::MarkovSource;

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
            let reduced = TraceSummary::from_values(&trace, chunk);
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
