//! # charfree-seq — sequential multi-macro composition
//!
//! The paper models one zero-delay combinational macro. This crate
//! grows past that box: a `.latch`-bearing BLIF design is partitioned
//! into register-bounded combinational macros
//! ([`SeqNetlist`]), one ADD/kernel is built **per macro** through the
//! existing [`PipelineCtx`] (shared-table warm builds and
//! content-addressed artifacts keyed per macro cone come along for
//! free), and evaluation steps register state cycle by cycle, deriving
//! each macro's `(xⁱ, xᶠ)` transition pairs from the evolving state.
//!
//! Two evaluation paths produce bit-identical results:
//!
//! * **fused** ([`SeqModel::eval_fused`]) — one pass over the shared
//!   pattern trace; every macro's transitions are packed into its own
//!   [`PatternBlock`] lane-by-lane and all blocks are evaluated in one
//!   fused multi-kernel pass ([`eval_fused`]) at each 4096-lane flush,
//!   interleaving the gathering macros' level-by-level gather rounds
//!   for memory-level parallelism;
//! * **unfused** ([`SeqModel::trace_unfused`]) — each macro's boundary
//!   sequence is materialized and evaluated independently through
//!   [`TraceEngine`].
//!
//! Both reduce per-macro values with the canonical
//! [`TraceSummary::from_values`] association and fold the design total
//! across macros in macro index order — the same fold the golden
//! [`SeqSim`] uses — so `golden ≡ unfused ≡ fused` holds f64
//! bit-exactly (the conform oracle enforces it).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// `.unwrap()` is banned crate-wide; `.expect()` remains available for
// invariants with a stated justification, and tests are exempt.
#![deny(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

use charfree_engine::{
    eval_fused, FusedJob, Kernel, PatternBlock, TraceEngine, TraceSummary, DEFAULT_CHUNK,
};
use charfree_netlist::SeqNetlist;
use charfree_pipeline::{PipelineCtx, PipelineError};
use charfree_sim::SeqSim;

/// Per-macro build facts recorded while compiling a [`SeqModel`].
#[derive(Debug, Clone)]
pub struct MacroBuildInfo {
    /// Macro name (`<design>__m<i>`).
    pub name: String,
    /// Boundary-input width.
    pub num_inputs: usize,
    /// Combinational gates in the macro.
    pub num_gates: usize,
    /// Compiled kernel program length.
    pub instrs: usize,
    /// Compiled kernel byte size.
    pub bytes: usize,
}

/// What it took to build a [`SeqModel`].
#[derive(Debug, Clone)]
pub struct SeqBuildReport {
    /// Per-macro facts, in macro index order.
    pub macros: Vec<MacroBuildInfo>,
    /// Content-addressed artifact hits across the per-macro builds
    /// (delta against the context's counters at entry).
    pub cache_hits: usize,
    /// Artifact misses across the per-macro builds.
    pub cache_misses: usize,
    /// ADD apply steps spent across the per-macro builds (0 on a fully
    /// warm reload).
    pub apply_steps: u64,
}

/// One macro's evaluation summary.
#[derive(Debug, Clone)]
pub struct MacroSummary {
    /// Macro name (`<design>__m<i>`).
    pub name: String,
    /// The macro's own deterministic trace reduction.
    pub summary: TraceSummary,
}

/// A sequential evaluation result: the whole-design reduction plus the
/// per-macro breakdown.
#[derive(Debug, Clone)]
pub struct SeqSummary {
    /// Whole-design reduction of the per-transition totals.
    pub total: TraceSummary,
    /// Per-macro reductions, in macro index order.
    pub per_macro: Vec<MacroSummary>,
}

/// A composed sequential power model: one compiled kernel per
/// register-bounded macro plus the cycle-stepped state walker.
#[derive(Debug)]
pub struct SeqModel {
    seq: SeqNetlist,
    sim: SeqSim,
    kernels: Vec<Kernel>,
    build: SeqBuildReport,
}

impl SeqModel {
    /// Builds one kernel per macro of `seq` through `ctx`. Loads are
    /// annotated from the context's library first (the sequential
    /// analogue of the combinational annotate stage), so the artifact
    /// key of each macro cone is stable across sessions.
    ///
    /// # Errors
    ///
    /// Propagates pipeline build failures ([`PipelineError`]).
    pub fn build(ctx: &mut PipelineCtx, mut seq: SeqNetlist) -> Result<SeqModel, PipelineError> {
        seq.annotate_loads(ctx.library());
        let hits0 = ctx.telemetry.cache_hits();
        let misses0 = ctx.telemetry.cache_misses();
        let steps0 = ctx.apply_steps();
        let mut kernels = Vec::with_capacity(seq.macros().len());
        let mut infos = Vec::with_capacity(seq.macros().len());
        for m in seq.macros() {
            let kernel = ctx.compile_kernel(&m.netlist)?;
            infos.push(MacroBuildInfo {
                name: m.netlist.name().to_owned(),
                num_inputs: m.netlist.num_inputs(),
                num_gates: m.netlist.num_gates(),
                instrs: kernel.num_instrs(),
                bytes: kernel.bytes(),
            });
            kernels.push(kernel);
        }
        let build = SeqBuildReport {
            macros: infos,
            cache_hits: ctx.telemetry.cache_hits() - hits0,
            cache_misses: ctx.telemetry.cache_misses() - misses0,
            apply_steps: ctx.apply_steps() - steps0,
        };
        let sim = SeqSim::new(&seq);
        Ok(SeqModel {
            seq,
            sim,
            kernels,
            build,
        })
    }

    /// The partitioned design this model was built from.
    pub fn seq(&self) -> &SeqNetlist {
        &self.seq
    }

    /// The golden state walker (shared by fused and unfused paths).
    pub fn sim(&self) -> &SeqSim {
        &self.sim
    }

    /// Per-macro kernels, in macro index order.
    pub fn kernels(&self) -> &[Kernel] {
        &self.kernels
    }

    /// Build facts recorded while compiling this model.
    pub fn build_report(&self) -> &SeqBuildReport {
        &self.build
    }

    /// Design name.
    pub fn name(&self) -> &str {
        self.seq.name()
    }

    /// Primary-input width (pattern bits per cycle).
    pub fn num_inputs(&self) -> usize {
        self.seq.num_inputs()
    }

    /// Number of macros.
    pub fn num_macros(&self) -> usize {
        self.kernels.len()
    }

    /// Total compiled kernel bytes across macros (registry accounting).
    pub fn bytes(&self) -> usize {
        self.kernels.iter().map(Kernel::bytes).sum()
    }

    /// Per-macro per-transition values via the **fused** path: a single
    /// walk over the pattern trace advances the register state once,
    /// packs every macro's `(xⁱ, xᶠ)` pair for the cycle into that
    /// macro's [`PatternBlock`], and batch-evaluates all blocks at each
    /// `FUSED_WINDOW`-lane flush. Returns one value vector per macro.
    pub fn trace_fused(&self, patterns: &[Vec<bool>]) -> Vec<Vec<f64>> {
        /// Lanes accumulated per macro before a fused flush. Large
        /// enough to amortize `eval_fused`'s per-call scratch over many
        /// 64-lane groups; per-transition values are independent of the
        /// window, so this is throughput-only.
        const FUSED_WINDOW: usize = 4096;
        let n = self.kernels.len();
        let transitions = patterns.len().saturating_sub(1);
        let mut blocks: Vec<PatternBlock> = self
            .kernels
            .iter()
            .map(|k| PatternBlock::new(k.num_vars() as usize))
            .collect();
        let mut values: Vec<Vec<f64>> = (0..n).map(|_| Vec::with_capacity(transitions)).collect();
        // One fused multi-kernel pass per flush window: every macro's
        // packed block advances together (interleaved pair-level
        // rounds), instead of evaluating macros one at a time.
        let flush = |blocks: &mut [PatternBlock], values: &mut [Vec<f64>]| {
            let mut jobs: Vec<FusedJob> = Vec::with_capacity(blocks.len());
            for ((kernel, block), vals) in self.kernels.iter().zip(blocks.iter()).zip(values) {
                if block.is_empty() {
                    continue;
                }
                let start = vals.len();
                vals.resize(start + block.len(), 0.0);
                jobs.push(FusedJob {
                    kernel,
                    block,
                    out: &mut vals[start..],
                });
            }
            eval_fused(&mut jobs);
            drop(jobs);
            for block in blocks {
                block.clear();
            }
        };

        // The state walk and the previous cycle's boundary vectors reuse
        // their buffers, so a cycle allocates nothing.
        let mut walk = self.sim.walker();
        let mut prev: Vec<Vec<bool>> = Vec::new();
        for (t, pi) in patterns.iter().enumerate() {
            let cur = walk.cycle(pi);
            if t == 0 {
                prev = cur.to_vec();
                continue;
            }
            for m in 0..n {
                blocks[m].push_transition(&self.kernels[m], &prev[m], &cur[m]);
            }
            prev.clone_from_slice(cur);
            if blocks.first().is_some_and(|b| b.len() == FUSED_WINDOW) {
                flush(&mut blocks, &mut values);
            }
        }
        flush(&mut blocks, &mut values);
        values
    }

    /// Per-macro per-transition values via the **unfused** path: each
    /// macro's boundary sequence is materialized and handed to its own
    /// [`TraceEngine`] with `jobs` workers.
    pub fn trace_unfused(&self, patterns: &[Vec<bool>], jobs: usize) -> Vec<Vec<f64>> {
        let seqs = self.sim.macro_input_sequences(patterns);
        self.kernels
            .iter()
            .zip(&seqs)
            .map(|(kernel, seq)| TraceEngine::new(kernel).jobs(jobs).trace(seq))
            .collect()
    }

    /// Fused evaluation reduced to a [`SeqSummary`].
    pub fn eval_fused(&self, patterns: &[Vec<bool>]) -> SeqSummary {
        self.summarize(
            patterns.len().saturating_sub(1),
            &self.trace_fused(patterns),
        )
    }

    /// The design's per-transition totals: per-macro values folded in
    /// macro index order (the golden fold). `per_macro` must hold one
    /// `transitions`-long vector per macro.
    pub fn fold_total(transitions: usize, per_macro: &[Vec<f64>]) -> Vec<f64> {
        let mut total = vec![0.0f64; transitions];
        for values in per_macro {
            for (t, v) in values.iter().enumerate() {
                total[t] += v;
            }
        }
        total
    }

    fn summarize(&self, transitions: usize, per_macro: &[Vec<f64>]) -> SeqSummary {
        let total = Self::fold_total(transitions, per_macro);
        SeqSummary {
            total: TraceSummary::from_values(&total, DEFAULT_CHUNK),
            per_macro: self
                .build
                .macros
                .iter()
                .zip(per_macro)
                .map(|(info, values)| MacroSummary {
                    name: info.name.clone(),
                    summary: TraceSummary::from_values(values, DEFAULT_CHUNK),
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use charfree_netlist::{blif, Library};
    use charfree_sim::MarkovSource;

    const PIPE2: &str = "\
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

    fn build_pipe2() -> SeqModel {
        let seq = blif::parse_seq(PIPE2).expect("parses");
        let mut ctx = PipelineCtx::new(Library::test_library());
        SeqModel::build(&mut ctx, seq).expect("builds")
    }

    fn patterns(n: usize, width: usize, seed: u64) -> Vec<Vec<bool>> {
        let mut src = MarkovSource::new(width, 0.5, 0.4, seed).expect("valid stats");
        src.sequence(n)
    }

    #[test]
    fn fused_equals_unfused_equals_golden_bit_exact() {
        let model = build_pipe2();
        let pats = patterns(300, model.num_inputs(), 0xBEEF);
        let fused = model.trace_fused(&pats);
        for jobs in [1, 4] {
            let unfused = model.trace_unfused(&pats, jobs);
            assert_eq!(fused.len(), unfused.len());
            for (f, u) in fused.iter().zip(&unfused) {
                assert_eq!(f.len(), u.len());
                for (a, b) in f.iter().zip(u) {
                    assert_eq!(a.to_bits(), b.to_bits(), "fused vs unfused jobs={jobs}");
                }
            }
        }
        // Golden: per-macro switching traces from the sequential sim.
        let golden = model.sim().macro_switching_traces(&pats);
        for (m, (kernel_vals, golden_vals)) in fused.iter().zip(&golden).enumerate() {
            assert_eq!(kernel_vals.len(), golden_vals.len());
            for (a, g) in kernel_vals.iter().zip(golden_vals) {
                assert_eq!(
                    a.to_bits(),
                    g.femtofarads().to_bits(),
                    "macro {m} kernel vs golden"
                );
            }
        }
        // Whole-design totals match the golden fold bit-for-bit.
        let total = SeqModel::fold_total(pats.len() - 1, &fused);
        let golden_total = model.sim().switching_trace(&pats);
        for (a, g) in total.iter().zip(&golden_total) {
            assert_eq!(a.to_bits(), g.femtofarads().to_bits());
        }
    }

    #[test]
    fn summaries_expose_per_macro_breakdown() {
        let model = build_pipe2();
        assert_eq!(model.num_macros(), 2);
        let pats = patterns(200, model.num_inputs(), 7);
        let fused = model.eval_fused(&pats);
        let unfused = model.summarize(pats.len() - 1, &model.trace_unfused(&pats, 4));
        assert_eq!(fused.total.transitions, 199);
        assert_eq!(fused.total.sum_ff.to_bits(), unfused.total.sum_ff.to_bits());
        assert_eq!(fused.total.max_ff.to_bits(), unfused.total.max_ff.to_bits());
        assert_eq!(fused.per_macro.len(), 2);
        assert!(fused.per_macro[0].name.ends_with("__m0"));
        assert!(fused.total.sum_ff > 0.0);
        // The total is the macro fold, so the summary sums agree too.
        let macro_sum: f64 = fused.per_macro.iter().map(|m| m.summary.sum_ff).sum();
        assert!((macro_sum - fused.total.sum_ff).abs() < 1e-6);
    }

    #[test]
    fn warm_rebuild_hits_the_per_macro_artifact_cache() {
        let dir = std::env::temp_dir().join(format!("charfree-seq-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = charfree_pipeline::ArtifactStore::new(&dir);
        let seq = blif::parse_seq(PIPE2).expect("parses");

        let mut cold = PipelineCtx::new(Library::test_library()).with_store(store);
        let model = SeqModel::build(&mut cold, seq.clone()).expect("builds");
        assert_eq!(model.build_report().cache_hits, 0);
        assert!(model.build_report().apply_steps > 0, "cold build does work");

        let store = charfree_pipeline::ArtifactStore::new(&dir);
        let mut warm = PipelineCtx::new(Library::test_library()).with_store(store);
        let reload = SeqModel::build(&mut warm, seq).expect("rebuilds");
        assert_eq!(
            reload.build_report().cache_hits,
            reload.num_macros(),
            "every macro cone reloads from the content-addressed store"
        );
        assert_eq!(reload.build_report().apply_steps, 0, "warm reload is free");
        // Warm-reloaded kernels evaluate identically.
        let pats = patterns(64, model.num_inputs(), 3);
        let a = model.eval_fused(&pats);
        let b = reload.eval_fused(&pats);
        assert_eq!(a.total.sum_ff.to_bits(), b.total.sum_ff.to_bits());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn macroless_designs_evaluate_to_zero_power() {
        let text = ".model sr\n.inputs d\n.outputs q\n.latch d q 0\n.end\n";
        let seq = blif::parse_seq(text).expect("parses");
        let mut ctx = PipelineCtx::new(Library::test_library());
        let model = SeqModel::build(&mut ctx, seq).expect("builds");
        let pats = patterns(50, 1, 1);
        let s = model.eval_fused(&pats);
        assert_eq!(s.total.transitions, 49);
        assert_eq!(s.total.sum_ff, 0.0);
        let golden = model.sim().switching_trace(&pats);
        assert_eq!(golden.len(), 49);
        assert!(golden.iter().all(|c| c.femtofarads() == 0.0));
    }
}
