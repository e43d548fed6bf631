//! Workload `eval_offline`: batch evaluation along the `charfree eval`,
//! `trace` and `seqeval` paths, on models built only during set-up.
//!
//! Each round runs three phases of fixed size, sized to take about the
//! same time on a 2-core host. **eval** generates a Markov sequence and
//! evaluates it to a summary, and is dominated by `sim`. **trace** runs
//! the engine over traces generated in set-up, so it is almost all
//! `engine`. **seq** runs fused sequential evaluation, which is `seq`
//! plus `engine::eval_fused`. A kernel change should move the trace
//! phase and barely touch eval; a pattern-generator change should do
//! the reverse. The kernels range from 1 KB (L1-resident) to 0.5 MB.

use charfree_conform::gen::{seq_blif, SeqGenConfig, SplitMix64};
use charfree_engine::Kernel;
use charfree_netlist::benchmarks::committed;
use charfree_netlist::Library;
use charfree_pipeline::PipelineCtx;
use charfree_seq::SeqModel;

use crate::layers::{self, Built, ModelSpec};
use crate::trace::{self, Layer};
use crate::{stats, Finish, Run, Slice, Workload};

const KERNELS: [ModelSpec; 4] = [
    ModelSpec::exact("decod"),
    ModelSpec::avg("cm85", "cm85", 500),
    ModelSpec::exact("pcle"),
    ModelSpec::exact("cmb"),
];
const QUICK_KERNELS: [ModelSpec; 2] = [
    ModelSpec::exact("decod"),
    ModelSpec::avg("cm85", "cm85", 500),
];
/// Worker threads for batch evaluation (the host has two cores).
const JOBS: usize = 2;
/// Input statistics of every generated sequence.
const SP: f64 = 0.5;
const ST: f64 = 0.4;
/// The generated sequential design is fixed; the workload seed drives
/// only the patterns.
const FLEET_SEED: u64 = 1516;
/// Per round and kernel: vectors generated and evaluated.
const EVAL_VECTORS: usize = 1 << 17;
/// Per kernel: the length of the trace generated in set-up, and how
/// often each round replays it.
const TRACE_VECTORS: usize = 1 << 17;
const TRACE_REPEATS: usize = 4;
/// Per round and design: the cycles of the fused sequential run.
const SEQ_VECTORS: usize = 1 << 15;
/// Transitions of each trace checked against the arena walk.
const CHECK_PREFIX: usize = 1 << 16;

pub struct EvalOffline;

struct Compiled {
    spec: ModelSpec,
    built: Built,
    kernel: Kernel,
    trace: Vec<Vec<bool>>,
}

pub struct State {
    ctx: PipelineCtx,
    kernels: Vec<Compiled>,
    designs: Vec<(SeqModel, Vec<Vec<bool>>)>,
    rng: SplitMix64,
    scale: usize,
    /// Per phase (eval, trace, seq): the rate of each round so far
    /// (transitions per second).
    rates: [Vec<f64>; 3],
}

impl Workload for EvalOffline {
    /// One round.
    const SLICE_S: f64 = 0.5;
    type State = State;

    fn setup(run: &Run, _repeat: usize) -> Result<State, String> {
        let specs: &[ModelSpec] = if run.quick { &QUICK_KERNELS } else { &KERNELS };
        // Quick runs shrink every phase; the code path stays the same.
        let scale = if run.quick { 16 } else { 1 };
        let mut rng = SplitMix64::new(run.seed);
        let mut kernels = Vec::with_capacity(specs.len());
        for spec in specs {
            let built = layers::build(spec)?;
            let kernel = layers::compile(&built.model);
            let trace = layers::markov(
                kernel.num_inputs(),
                SP,
                ST,
                rng.next_u64(),
                TRACE_VECTORS / scale,
            );
            kernels.push(Compiled {
                spec: *spec,
                built,
                kernel,
                trace,
            });
        }
        let fleet = seq_blif(
            "seq_fleet4",
            FLEET_SEED,
            &SeqGenConfig {
                num_inputs: 6,
                stages: 4,
                gates_per_stage: 12,
                latches_per_stage: 2,
            },
        );
        let mut designs = Vec::new();
        for text in [committed::SEQPIPE2, &fleet] {
            let model = layers::seq_build(text, None)?;
            let patterns = layers::markov(
                model.num_inputs(),
                SP,
                ST,
                rng.next_u64(),
                SEQ_VECTORS / scale,
            );
            designs.push((model, patterns));
        }
        Ok(State {
            ctx: PipelineCtx::new(Library::test_library()),
            kernels,
            designs,
            rng,
            scale,
            rates: Default::default(),
        })
    }

    fn slice(state: &mut State, _run: &Run, _seconds: f64) -> Slice {
        let mut transitions = [0.0f64; 3];
        let mut laps = [std::time::Instant::now(); 4];
        for k in &state.kernels {
            let patterns = layers::markov(
                k.kernel.num_inputs(),
                SP,
                ST,
                state.rng.next_u64(),
                EVAL_VECTORS / state.scale,
            );
            let summary = layers::pipeline_evaluate(&mut state.ctx, &k.kernel, &patterns, JOBS);
            transitions[0] += summary.transitions as f64;
        }
        laps[1] = std::time::Instant::now();
        for _ in 0..TRACE_REPEATS {
            for k in &state.kernels {
                let values = layers::kernel_trace(&k.kernel, &k.trace, JOBS);
                transitions[1] += std::hint::black_box(values).len() as f64;
            }
        }
        laps[2] = std::time::Instant::now();
        for (model, patterns) in &state.designs {
            let summary = layers::seq_fused(model, patterns);
            transitions[2] += summary.total.transitions as f64;
        }
        laps[3] = std::time::Instant::now();
        for i in 0..3 {
            let rate = transitions[i] / (laps[i + 1] - laps[i]).as_secs_f64();
            state.rates[i].push(rate);
        }
        let secs = (laps[3] - laps[0]).as_secs_f64();
        Slice {
            op_ms: vec![secs * 1e3],
            secs,
            attempted: 1,
            failed: 0,
        }
    }

    fn finish(state: State, run: &Run, out: &mut Finish) {
        for (i, name) in ["eval_mtps", "trace_mtps", "seq_mtps"]
            .into_iter()
            .enumerate()
        {
            out.line(name.to_owned(), stats::median(&state.rates[i]) / 1e6, "M/s");
        }
        for k in &state.kernels {
            out.line(
                format!("kernel.{}_kb", k.spec.tag),
                k.kernel.bytes() as f64 / 1024.0,
                "KB",
            );
            let prefix = &k.trace[..=CHECK_PREFIX.min(k.trace.len() - 1)];
            let values = layers::kernel_trace(&k.kernel, prefix, JOBS);
            let walk = layers::arena(&k.built.model, prefix);
            let diff = layers::first_difference(&values, &walk);
            out.check(diff.is_none(), || {
                format!(
                    "{}: trace and arena walk differ at transition {diff:?}",
                    k.spec.tag
                )
            });
        }
        for (model, patterns) in &state.designs {
            let fused = trace::span(Layer::Seq, "seq.trace_fused", || {
                model.trace_fused(patterns)
            });
            let unfused = trace::span(Layer::Seq, "seq.unfused", || {
                model.trace_unfused(patterns, JOBS)
            });
            let same = fused.len() == unfused.len()
                && fused
                    .iter()
                    .zip(&unfused)
                    .all(|(a, b)| layers::first_difference(a, b).is_none());
            out.check(same, || {
                format!("{}: fused and unfused differ", model.name())
            });
        }
        if run.traced {
            let built: Vec<_> = state.kernels.iter().map(|k| (k.spec, &k.built)).collect();
            out.outcomes(layers::check_pipeline_parity(&built));
        }
    }
}
