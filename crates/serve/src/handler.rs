//! One handler per command, shared by the offline CLI and the server.
//!
//! `charfree eval X` and `charfree client eval X` parse into the same
//! [`Request`](crate::Request); what runs it is the only difference.
//! Every decision the two transports would otherwise each make lives
//! here, once:
//!
//! * the one `(sp, st)`-checked Markov stimulus ([`markov_stimulus`]);
//! * `expected` on the flat kernel ([`expected`]);
//! * "sequential sources are BLIF files only", then read, parse and
//!   build ([`seq_model`]);
//! * the responses evaluation results render to ([`eval_response`],
//!   [`seq_eval_response`]).
//!
//! The handlers run over a [`ModelSource`], which has two impls: a bare
//! [`PipelineCtx`] (offline) and the server's sharded registry with its
//! circuit breaker. Evaluation stays with the transport: offline runs
//! the trace engine with `--jobs` and `SeqModel::eval_fused` in
//! `src/cli.rs`, while the server submits every `eval`, `trace`,
//! `tracep` and `seqeval` to its batch dispatcher ([`crate::batch`]),
//! whose workers draw the patterns. Failures are typed
//! [`Response::Error`]s; the offline CLI prints their message.

use std::sync::Arc;

use charfree_engine::{Kernel, TraceSummary};
use charfree_netlist::blif;
use charfree_pipeline::{BuildOptions, PipelineCtx, PipelineError, Source};
use charfree_seq::{MacroSummary, SeqModel};
use charfree_sim::{check_statistics, MarkovSource};

use crate::batch::Stimulus;
use crate::proto::{ErrorKind, Response, WireBuildOptions, WireEvalParams, WireMacroSummary};
use crate::server::error;

/// A resolved model, the ADD apply steps resolving it performed (0 when
/// warm) and whether it was already resident; or the typed failure.
pub type Resolved<T> = Result<(Arc<T>, u64, bool), Response>;

/// Where the handlers get their models.
pub trait ModelSource {
    /// The compiled kernel of a combinational `source` under `options`.
    fn kernel(&mut self, source: &str, options: &WireBuildOptions) -> Resolved<Kernel>;

    /// The sequential design in the BLIF file `source` under `options`.
    /// Callers go through [`seq_model`], which checks the operand kind.
    fn seq_model(&mut self, source: &str, options: &WireBuildOptions) -> Resolved<SeqModel>;
}

/// The offline model source: one pipeline session, no registry.
impl ModelSource for PipelineCtx {
    fn kernel(&mut self, source: &str, options: &WireBuildOptions) -> Resolved<Kernel> {
        self.set_options(build_options(options));
        let before = self.apply_steps();
        let kernel = self
            .kernel_for(&Source::infer(source))
            .map_err(|e| pipeline_error(&e))?;
        Ok((Arc::new(kernel), self.apply_steps() - before, false))
    }

    fn seq_model(&mut self, source: &str, options: &WireBuildOptions) -> Resolved<SeqModel> {
        self.set_options(build_options(options));
        let before = self.apply_steps();
        let model = build_seq(self, source).map_err(|e| pipeline_error(&e))?;
        Ok((Arc::new(model), self.apply_steps() - before, false))
    }
}

/// The pipeline's build options for a request's wire options.
pub(crate) fn build_options(options: &WireBuildOptions) -> BuildOptions {
    BuildOptions {
        max_nodes: options.max_nodes,
        upper_bound: options.upper_bound,
        node_budget: options.node_budget,
        strict: options.strict,
        time_budget: options.deadline_ms.map(std::time::Duration::from_millis),
        ..BuildOptions::default()
    }
}

/// A pipeline failure as a typed error response.
pub(crate) fn pipeline_error(err: &PipelineError) -> Response {
    let kind = match err {
        PipelineError::Build(_) => ErrorKind::BuildFailed,
        PipelineError::Unsupported(_) => ErrorKind::Unsupported,
        PipelineError::Io { .. } | PipelineError::Parse { .. } | PipelineError::UnknownInput(_) => {
            ErrorKind::BadRequest
        }
    };
    error(kind, err.to_string())
}

/// A request's stimulus: a Markov source over `inputs` primary inputs
/// at the request's `(sp, st)` and seed, drawing at least two patterns.
///
/// # Errors
///
/// A `bad-request` when `(sp, st)` is infeasible, NaN included.
pub fn markov_stimulus(inputs: usize, params: &WireEvalParams) -> Result<Stimulus, Response> {
    MarkovSource::new(inputs, params.sp, params.st, params.seed)
        .map(|markov| Stimulus::Markov(markov, params.vectors.max(2)))
        .map_err(|e| error(ErrorKind::BadRequest, e.to_string()))
}

/// The `eval` response for a named model's trace summary.
pub fn eval_response(name: String, summary: &TraceSummary) -> Response {
    Response::Eval {
        name,
        transitions: summary.transitions,
        sum_ff: summary.sum_ff,
        max_ff: summary.max_ff,
    }
}

/// The `seqeval` response for a named design's whole-design summary and
/// its per-macro summaries.
pub fn seq_eval_response(name: String, total: &TraceSummary, macros: &[MacroSummary]) -> Response {
    Response::SeqEval {
        name,
        transitions: total.transitions,
        sum_ff: total.sum_ff,
        max_ff: total.max_ff,
        macros: macros
            .iter()
            .map(|m| WireMacroSummary {
                name: m.name.clone(),
                sum_ff: m.summary.sum_ff,
                max_ff: m.summary.max_ff,
            })
            .collect(),
    }
}

/// `expected`: the analytic expected switched capacitance at `(sp, st)`,
/// evaluated on the flat kernel without touching the manager arena.
///
/// # Errors
///
/// Infeasible statistics and resolution failures.
pub fn expected(
    models: &mut impl ModelSource,
    source: &str,
    sp: f64,
    st: f64,
) -> Result<Response, Response> {
    // The analytic chain measure asserts feasibility; reject bad
    // statistics before it does.
    check_statistics(sp, st).map_err(|e| error(ErrorKind::BadRequest, e.to_string()))?;
    let (kernel, _, _) = models.kernel(source, &WireBuildOptions::default())?;
    Ok(Response::Expected {
        name: kernel.name().to_owned(),
        value: kernel.expected_capacitance(sp, st),
    })
}

/// Resolves a sequential design. Sequential sources are BLIF netlist
/// files only: compiled artifacts and built-in benchmarks are
/// combinational by construction, and `.latch` lives in BLIF.
///
/// # Errors
///
/// `unsupported` for any other operand; otherwise the source's
/// resolution failure.
pub fn seq_model(
    models: &mut impl ModelSource,
    source: &str,
    options: &WireBuildOptions,
) -> Resolved<SeqModel> {
    match Source::infer(source) {
        Source::NetlistFile(_) if !source.ends_with(".v") && !source.ends_with(".sv") => {
            models.seq_model(source, options)
        }
        _ => Err(error(
            ErrorKind::Unsupported,
            "sequential designs load from BLIF netlist files only (`.latch` lives in BLIF); \
             compiled artifacts and built-in benchmarks are combinational",
        )),
    }
}

/// Reads, parses and builds the sequential design in the BLIF file
/// `source` through `ctx`.
///
/// # Errors
///
/// I/O and parse failures name the file; build failures propagate.
pub(crate) fn build_seq(ctx: &mut PipelineCtx, source: &str) -> Result<SeqModel, PipelineError> {
    let context = source.to_owned();
    let text = std::fs::read_to_string(source).map_err(|e| PipelineError::Io {
        context: context.clone(),
        source: e,
    })?;
    let seq = blif::parse_seq(&text).map_err(|e| PipelineError::Parse {
        context,
        message: e.to_string(),
    })?;
    SeqModel::build(ctx, seq)
}
