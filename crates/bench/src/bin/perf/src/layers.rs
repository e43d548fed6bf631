//! Every call the benchmark makes into the workspace crates, each inside
//! a span charged to the crate's layer, with the counters the per-layer
//! metrics are computed from.

use std::sync::Arc;

use charfree_core::{AddPowerModel, ApproxStrategy, ModelBuilder, PowerModel};
use charfree_dd::ApplyStats;
use charfree_engine::{Kernel, TraceEngine, TraceSummary};
use charfree_netlist::{blif, Library, Netlist};
use charfree_pipeline::{ArtifactStore, BuildOptions, PipelineCtx, Source};
use charfree_seq::{SeqModel, SeqSummary};
use charfree_sim::{MarkovSource, ZeroDelaySim};

use crate::trace::{self, Layer};

/// One model a workload builds: a built-in benchmark circuit and the
/// paper's `MAX` / upper-bound knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelSpec {
    /// Short label for report lines.
    pub tag: &'static str,
    /// Built-in benchmark name.
    pub circuit: &'static str,
    /// The paper's `MAX` (`None` = exact).
    pub max_nodes: Option<usize>,
    /// Conservative upper-bound model instead of the average one.
    pub upper_bound: bool,
}

impl ModelSpec {
    /// The exact model of `circuit`.
    pub const fn exact(circuit: &'static str) -> ModelSpec {
        ModelSpec {
            tag: circuit,
            circuit,
            max_nodes: None,
            upper_bound: false,
        }
    }

    /// The average model of `circuit` under `MAX = max`.
    pub const fn avg(tag: &'static str, circuit: &'static str, max: usize) -> ModelSpec {
        ModelSpec {
            tag,
            circuit,
            max_nodes: Some(max),
            upper_bound: false,
        }
    }

    /// The upper-bound model of `circuit` under `MAX = max`.
    pub const fn ub(tag: &'static str, circuit: &'static str, max: usize) -> ModelSpec {
        ModelSpec {
            tag,
            circuit,
            max_nodes: Some(max),
            upper_bound: true,
        }
    }

    /// The pipeline options `charfree model` would use for this spec.
    pub fn options(&self) -> BuildOptions {
        BuildOptions {
            max_nodes: self.max_nodes,
            upper_bound: self.upper_bound,
            ..BuildOptions::default()
        }
    }
}

/// A freshly built model and what it took.
#[derive(Debug)]
pub struct Built {
    /// The annotated netlist the model was built from.
    pub netlist: Netlist,
    /// The model.
    pub model: AddPowerModel,
    /// Seconds in `ModelBuilder::try_accumulate` plus
    /// `PartialBuild::collapse` (traced builds only).
    pub core_s: f64,
}

/// Loads a built-in benchmark netlist the way `charfree model` does.
pub fn load(ctx: &mut PipelineCtx, circuit: &str) -> Result<Netlist, String> {
    trace::span(Layer::Netlist, "netlist.load", || {
        ctx.load_netlist(&Source::Bench(circuit.to_owned()))
    })
    .map_err(|e| format!("loading {circuit}: {e}"))
}

/// Builds `spec` cold, with no store and no shared table.
///
/// Untraced, this is the `charfree model` path: a fresh `PipelineCtx`,
/// `load_netlist`, then `build_model`. Traced, the netlist loads the same
/// way, then a `ModelBuilder` configured like `BuildOptions` runs with
/// spans around accumulate and collapse; [`check_pipeline_parity`]
/// checks afterwards that both paths give byte-identical models.
pub fn build(spec: &ModelSpec) -> Result<Built, String> {
    let mut ctx = PipelineCtx::new(Library::test_library()).with_options(spec.options());
    let netlist = load(&mut ctx, spec.circuit)?;
    let (model, core_s, stats) = if !trace::enabled() {
        let model = ctx
            .build_model(&netlist)
            .map_err(|e| format!("building {}: {e}", spec.tag))?;
        (model, 0.0, Arc::clone(ctx.apply_stats()))
    } else {
        let stats = ApplyStats::shared();
        let mut builder = ModelBuilder::new(&netlist);
        if let Some(max) = spec.max_nodes {
            builder = builder.max_nodes(max);
        }
        if spec.upper_bound {
            builder = builder.strategy(ApproxStrategy::UpperBound);
        }
        let options = spec.options();
        builder = builder
            .leaf_recalibration(options.leaf_recalibration)
            .diagonal_gating(options.diagonal_gating)
            .strict(options.strict)
            .stats(Arc::clone(&stats));
        let t0 = std::time::Instant::now();
        let partial = trace::span(Layer::Core, "core.accumulate", || builder.try_accumulate())
            .map_err(|e| format!("building {}: {e}", spec.tag))?;
        let mut model = trace::span(Layer::Core, "core.collapse", || partial.collapse());
        let core_s = t0.elapsed().as_secs_f64();
        model.set_name(netlist.name());
        (model, core_s, stats)
    };
    trace::add("dd.apply_steps", stats.apply_steps() as f64);
    trace::max("dd.peak_live_nodes", stats.peak_live_nodes() as f64);
    trace::max("dd.peak_arena_bytes", stats.peak_arena_bytes() as f64);
    trace::add("core.model_nodes", model.size() as f64);
    Ok(Built {
        netlist,
        model,
        core_s,
    })
}

/// Traced runs: rebuilds each spec through `PipelineCtx::build_model`,
/// checks that it saves to the same bytes as the traced build, and
/// records the pipeline's own time beyond the traced core time. Returns
/// one outcome per spec.
pub fn check_pipeline_parity(built: &[(ModelSpec, &Built)]) -> Vec<Result<(), String>> {
    let mut overhead = 0.0;
    let outcomes = built
        .iter()
        .map(|(spec, traced)| {
            let mut ctx = PipelineCtx::new(Library::test_library()).with_options(spec.options());
            let t0 = std::time::Instant::now();
            let piped = trace::span(Layer::Pipeline, "pipeline.build_model", || {
                ctx.build_model(&traced.netlist)
            });
            overhead += t0.elapsed().as_secs_f64() - traced.core_s;
            match piped {
                Ok(model) if saved_without_cpu(&model) == saved_without_cpu(&traced.model) => {
                    Ok(())
                }
                Ok(_) => Err(format!(
                    "{}: the traced ModelBuilder model and PipelineCtx::build_model differ",
                    spec.tag
                )),
                Err(e) => Err(format!("{}: pipeline build failed: {e}", spec.tag)),
            }
        })
        .collect();
    trace::add("pipeline.overhead_s", overhead);
    outcomes
}

/// The model's saved text minus the build's own CPU time, the one field
/// two identical builds never share.
fn saved_without_cpu(model: &AddPowerModel) -> String {
    let mut bytes = Vec::new();
    model
        .save(&mut bytes)
        .expect("saving to memory cannot fail");
    String::from_utf8_lossy(&bytes)
        .lines()
        .map(|line| match line.strip_prefix("report ") {
            Some(fields) => fields.rsplit_once(' ').map_or(line, |(kept, _cpu)| kept),
            None => line,
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// Compiles a model into an evaluation kernel.
pub fn compile(model: &AddPowerModel) -> Kernel {
    let kernel = trace::span(Layer::Engine, "engine.compile", || Kernel::compile(model));
    trace::add("engine.kernel_bytes", kernel.bytes() as f64);
    kernel
}

/// A seeded Markov pattern sequence of `len` patterns.
pub fn markov(inputs: usize, sp: f64, st: f64, seed: u64, len: usize) -> Vec<Vec<bool>> {
    let patterns = trace::span(Layer::Sim, "sim.patterns", || {
        MarkovSource::new(inputs, sp, st, seed)
            .expect("the workloads use feasible statistics")
            .sequence(len)
    });
    trace::add("sim.patterns", len as f64);
    patterns
}

/// Golden zero-delay switched capacitance per transition (fF).
pub fn golden(sim: &ZeroDelaySim, patterns: &[Vec<bool>]) -> Vec<f64> {
    trace::span(Layer::Sim, "sim.golden", || {
        sim.switching_trace(patterns)
            .iter()
            .map(|c| c.femtofarads())
            .collect()
    })
}

/// The arena walk: the model's own per-transition values, the oracle
/// kernels are checked against.
pub fn arena(model: &AddPowerModel, patterns: &[Vec<bool>]) -> Vec<f64> {
    trace::span(Layer::Core, "core.arena_walk", || {
        model.capacitance_trace(patterns)
    })
}

/// Per-transition kernel values over a resident trace.
pub fn kernel_trace(kernel: &Kernel, patterns: &[Vec<bool>], jobs: usize) -> Vec<f64> {
    let values = trace::span(Layer::Engine, "engine.trace", || {
        TraceEngine::new(kernel).jobs(jobs).trace(patterns)
    });
    trace::add("engine.transitions", values.len() as f64);
    values
}

/// The deterministic summary `charfree eval` reports, through the
/// pipeline stage that command calls.
pub fn pipeline_evaluate(
    ctx: &mut PipelineCtx,
    kernel: &Kernel,
    patterns: &[Vec<bool>],
    jobs: usize,
) -> TraceSummary {
    let summary = trace::span(Layer::Engine, "engine.evaluate", || {
        ctx.evaluate(kernel, patterns, jobs)
    });
    trace::add("engine.transitions", summary.transitions as f64);
    summary
}

/// The same summary straight from the engine, as the server computes it.
pub fn kernel_evaluate(kernel: &Kernel, patterns: &[Vec<bool>], jobs: usize) -> TraceSummary {
    let summary = trace::span(Layer::Engine, "engine.evaluate", || {
        TraceEngine::new(kernel).jobs(jobs).evaluate(patterns)
    });
    trace::add("engine.transitions", summary.transitions as f64);
    summary
}

/// Builds `spec`'s kernel the way `charfree model --cache-dir` does,
/// leaving the model and kernel artifacts in `store`.
pub fn prebuild(spec: &ModelSpec, store: &ArtifactStore) -> Result<(), String> {
    let mut ctx = PipelineCtx::new(Library::test_library())
        .with_options(spec.options())
        .with_store(store.clone());
    let netlist = load(&mut ctx, spec.circuit)?;
    trace::span(Layer::Pipeline, "pipeline.compile_kernel", || {
        ctx.compile_kernel(&netlist)
    })
    .map(drop)
    .map_err(|e| format!("building {}: {e}", spec.tag))
}

/// Parses a sequential BLIF design and builds one kernel per macro,
/// through `store` when one is given.
pub fn seq_build(text: &str, store: Option<&ArtifactStore>) -> Result<SeqModel, String> {
    let seq = trace::span(Layer::Netlist, "netlist.parse_seq", || {
        blif::parse_seq(text)
    })
    .map_err(|e| format!("parsing a sequential design: {e}"))?;
    let mut ctx = PipelineCtx::new(Library::test_library());
    if let Some(store) = store {
        ctx = ctx.with_store(store.clone());
    }
    trace::span(Layer::Seq, "seq.build", || SeqModel::build(&mut ctx, seq))
        .map_err(|e| format!("building a sequential design: {e}"))
}

/// Fused cycle-stepped evaluation of a sequential design.
pub fn seq_fused(model: &SeqModel, patterns: &[Vec<bool>]) -> SeqSummary {
    let summary = trace::span(Layer::Seq, "seq.fused", || model.eval_fused(patterns));
    trace::add("seq.transitions", summary.total.transitions as f64);
    summary
}

/// Whether two value sequences agree bit for bit; the first differing
/// index otherwise.
pub fn first_difference(a: &[f64], b: &[f64]) -> Option<usize> {
    if a.len() != b.len() {
        return Some(a.len().min(b.len()));
    }
    a.iter()
        .zip(b)
        .position(|(x, y)| x.to_bits() != y.to_bits())
}
