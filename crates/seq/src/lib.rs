//! # charfree-seq — sequential multi-macro composition
//!
//! The paper models one zero-delay combinational macro. This crate
//! grows past that box: a `.latch`-bearing BLIF design is partitioned
//! into register-bounded combinational macros
//! ([`SeqNetlist`]), one ADD/kernel is built **per macro** through the
//! existing [`PipelineCtx`] (content-addressed artifacts keyed per
//! macro cone come along for free), and evaluation steps register state cycle by cycle, deriving
//! each macro's `(xⁱ, xᶠ)` transition pairs from the evolving state.
//!
//! Both evaluation paths read the one state walk, [`SeqSim`]'s flat
//! levelized program over a single value array, and produce
//! bit-identical results:
//!
//! * **fused** ([`SeqModel::eval_fused`]) — one pass over the shared
//!   pattern trace. Each cycle ORs the walk's source bits (primary
//!   inputs, then latch Qs) into per-source 64-lane history words;
//!   every 64 cycles each macro's input-major words go into its
//!   [`PatternBlock`] as one packed group ([`PatternBlock::push_group`]),
//!   and a ragged tail goes in transition by transition. All blocks are
//!   evaluated in one fused multi-kernel pass ([`eval_fused`]) at each
//!   4096-lane flush, interleaving the gathering macros'
//!   level-by-level gather rounds for memory-level parallelism, and
//!   each flush is folded into the running summaries at once;
//! * **unfused** ([`SeqModel::trace_unfused`]) — each macro's boundary
//!   sequence is materialized and evaluated independently through
//!   [`TraceEngine`].
//!
//! Both reduce per-macro values with the canonical
//! [`TraceSummary::from_values`] association (a 4096-lane flush is one
//! of its chunks) and fold the design total across macros in macro
//! index order — the same fold the golden [`SeqSim`] uses — so
//! `golden ≡ unfused ≡ fused` holds f64 bit-exactly (the conform oracle
//! enforces it).

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

/// Lanes accumulated per macro before a fused flush. Large enough to
/// amortize `eval_fused`'s per-call scratch over many 64-lane groups,
/// and exactly one summary chunk, so [`SeqModel::eval_fused`] folds each
/// full flush as one [`TraceSummary::from_values`] run.
const FUSED_WINDOW: usize = 4096;
const _: () = assert!(FUSED_WINDOW == DEFAULT_CHUNK && FUSED_WINDOW.is_multiple_of(64));

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

    /// Resident kernel bytes across macros, stride tables included
    /// (registry accounting, see [`Kernel::resident_bytes`]).
    pub fn bytes(&self) -> usize {
        self.kernels.iter().map(Kernel::resident_bytes).sum()
    }

    /// Per-macro per-transition values via the **fused** path: one state
    /// walk packs every macro's transitions straight into its
    /// [`PatternBlock`], 64 lanes at a time, and all blocks are
    /// evaluated in one [`eval_fused`] pass per 4096-lane flush. Returns
    /// one value vector per macro.
    ///
    /// # Panics
    ///
    /// Panics if a pattern is not [`num_inputs`](Self::num_inputs) wide.
    pub fn trace_fused(&self, patterns: &[Vec<bool>]) -> Vec<Vec<f64>> {
        let transitions = patterns.len().saturating_sub(1);
        let mut values: Vec<Vec<f64>> = self
            .kernels
            .iter()
            .map(|_| Vec::with_capacity(transitions))
            .collect();
        self.fused(patterns, |_, window| {
            for (values, lanes) in values.iter_mut().zip(window) {
                values.extend_from_slice(lanes);
            }
        });
        values
    }

    /// The fused path. One [`StateWalk`](charfree_sim::StateWalk)
    /// advances the register state once per cycle and ORs the cycle's
    /// source bits (primary inputs, then latch Qs) into one 64-lane
    /// history word per source. Every 64 cycles, each macro's
    /// input-major words are gathered from those histories and packed
    /// into its [`PatternBlock`] as one group ([`PatternBlock::push_group`]);
    /// a ragged tail of under 64 transitions goes in one
    /// [`PatternBlock::push_transition`] at a time. At each
    /// [`FUSED_WINDOW`]-lane flush, and after the tail, all blocks are
    /// evaluated in one fused multi-kernel pass ([`eval_fused`]) and
    /// `window` receives the flush's lane count and per-macro values
    /// (one slice per macro, none for a design without macros).
    fn fused(&self, patterns: &[Vec<bool>], mut window: impl FnMut(usize, &[Vec<f64>])) {
        let sim = &self.sim;
        let mut blocks: Vec<PatternBlock> = self
            .kernels
            .iter()
            .map(|k| PatternBlock::new(k.num_vars() as usize))
            .collect();
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); self.kernels.len()];
        let mut flush = |blocks: &mut [PatternBlock], lanes: usize| {
            if lanes == 0 {
                return;
            }
            let mut jobs: Vec<FusedJob> = Vec::with_capacity(blocks.len());
            for ((kernel, block), out) in self.kernels.iter().zip(blocks.iter()).zip(&mut values) {
                out.clear();
                out.resize(lanes, 0.0);
                jobs.push(FusedJob { kernel, block, out });
            }
            eval_fused(&mut jobs);
            drop(jobs);
            for block in blocks {
                block.clear();
            }
            window(lanes, &values);
        };

        // Lane `k` of `history[s]` is source `s` at cycle `64g + k` of
        // the group `g` being gathered. Every buffer is reused, so a
        // cycle allocates nothing.
        let mut history = vec![0u64; sim.num_sources()];
        let (mut initial, mut last) = (Vec::new(), Vec::new());
        let mut lanes = 0usize;
        let mut walk = sim.walker();
        for (t, pi) in patterns.iter().enumerate() {
            walk.cycle(pi);
            let sources = walk.sources();
            let lane = t % 64;
            if lane == 0 && t > 0 {
                // Cycle `t` completes the group's 64th transition.
                for (m, (kernel, block)) in self.kernels.iter().zip(&mut blocks).enumerate() {
                    let inputs = sim.macro_sources(m);
                    initial.clear();
                    initial.extend(inputs.iter().map(|&s| history[s as usize]));
                    last.clear();
                    last.extend(inputs.iter().map(|&s| sources[s as usize]));
                    block.push_group(kernel, &initial, &last);
                }
                history.fill(0);
                lanes += 64;
                if lanes == FUSED_WINDOW {
                    flush(&mut blocks, lanes);
                    lanes = 0;
                }
            }
            for (h, &bit) in history.iter_mut().zip(sources) {
                *h |= u64::from(bit) << lane;
            }
        }
        // The ragged tail: transitions between the cycles left in the
        // history words.
        let tail = patterns.len().saturating_sub(1) % 64;
        let (mut xi, mut xf) = (Vec::new(), Vec::new());
        for k in 0..tail {
            for (m, (kernel, block)) in self.kernels.iter().zip(&mut blocks).enumerate() {
                let inputs = sim.macro_sources(m);
                xi.clear();
                xi.extend(inputs.iter().map(|&s| history[s as usize] >> k & 1 == 1));
                xf.clear();
                xf.extend(
                    inputs
                        .iter()
                        .map(|&s| history[s as usize] >> (k + 1) & 1 == 1),
                );
                block.push_transition(kernel, &xi, &xf);
            }
        }
        flush(&mut blocks, lanes + tail);
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

    /// Fused evaluation reduced to a [`SeqSummary`]. Each flush window
    /// is folded into running per-macro and total summaries as it is
    /// evaluated, so no per-transition values are kept: a full window is
    /// exactly one [`DEFAULT_CHUNK`] run of [`TraceSummary::from_values`],
    /// and each lane's total is the golden macro-order fold.
    ///
    /// # Panics
    ///
    /// Panics if a pattern is not [`num_inputs`](Self::num_inputs) wide.
    pub fn eval_fused(&self, patterns: &[Vec<bool>]) -> SeqSummary {
        let mut total = TraceSummary::EMPTY;
        let mut per_macro = vec![TraceSummary::EMPTY; self.kernels.len()];
        self.fused(patterns, |lanes, window| {
            for (summary, values) in per_macro.iter_mut().zip(window) {
                summary.fold_run(values);
            }
            total.fold_run(&Self::fold_total(lanes, window));
        });
        SeqSummary {
            total,
            per_macro: self
                .build
                .macros
                .iter()
                .zip(per_macro)
                .map(|(info, summary)| MacroSummary {
                    name: info.name.clone(),
                    summary,
                })
                .collect(),
        }
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use charfree_netlist::{blif, Library};
    use charfree_sim::MarkovSource;

    impl SeqModel {
        /// The summary of an unfused run: per-macro traces folded in macro
        /// index order, beside each macro's own summary.
        fn summarize(&self, transitions: usize, per_macro: &[Vec<f64>]) -> SeqSummary {
            let total = Self::fold_total(transitions, per_macro);
            SeqSummary {
                total: TraceSummary::from_values(&total),
                per_macro: self
                    .build
                    .macros
                    .iter()
                    .zip(per_macro)
                    .map(|(info, values)| MacroSummary {
                        name: info.name.clone(),
                        summary: TraceSummary::from_values(values),
                    })
                    .collect(),
            }
        }
    }

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
