//! The `charfree` command-line interface.
//!
//! Thin, dependency-free argument handling around the library: every
//! subcommand routes through the one typed build/eval path in
//! `charfree-pipeline` and is a pure function from parsed options to a
//! printable report, so the whole CLI is unit-testable without spawning
//! processes. `charfree help` prints the subcommands and their flags
//! (see `usage`).
//!
//! `eval`, `trace`, `expected` and `seqeval` run the same way offline
//! and through `charfree client`, as request → handler → render:
//!
//! 1. one parser (`parse_request`) turns `<cmd> <operand> [flags]` into
//!    a [`charfree_serve::Request`] plus the report-only flags (`--vdd`,
//!    `--period`, `-o`). Each transport adds only its own flags: offline
//!    `--jobs` (eval and trace), `--library`, `--cache-dir` and
//!    `--telemetry`; `client` `--addr`, `--proto`, `--retries` and
//!    `--deadline-ms`;
//! 2. offline, [`charfree_serve::handler`] answers the request on this
//!    process's [`PipelineCtx`] (the trace engine evaluates `eval` and
//!    `trace` on `--jobs` workers); `client` sends it to a server, which
//!    answers through the same handler over its model registry;
//! 3. both print the [`charfree_serve::Response`] through one renderer,
//!    so their stdout is byte-identical.
//!
//! `--cache-dir DIR` attaches a content-addressed artifact store:
//! identical (netlist, library, options) runs warm-load the compiled
//! kernel and perform zero ADD apply steps, with byte-identical stdout.
//! `--telemetry json` prints the pipeline's per-stage event stream to
//! **stderr**, so stdout stays stable across cold and warm runs.
//!
//! Operands are classified by [`Source::infer`]: `.cfm` is a saved model
//! (read straight into a kernel for `eval`, `trace` and `expected`, with
//! no diagram arena built), netlist files parse as BLIF/Verilog, and
//! anything else names a built-in benchmark.

use charfree_core::PowerModel;
use charfree_netlist::units::Voltage;
use charfree_netlist::{blif, libspec, verilog, Library};
use charfree_pipeline::{ArtifactStore, BuildOptions, PipelineCtx, Source};
use charfree_serve::handler::{self, ModelSource};
use charfree_serve::proto::WireMacroSummary;
use charfree_serve::{Request, Response, WireBuildOptions, WireEvalParams};
use charfree_sim::{check_statistics, ZeroDelaySim};
use std::fmt::Write as _;
use std::fs;

/// A CLI failure, printed to stderr with exit code 1.
pub type CliError = String;

/// Entry point: runs the subcommand in `args` (without the program name)
/// and returns the report to print.
///
/// # Errors
///
/// Returns a human-readable message for unknown commands, bad flags, I/O
/// failures and malformed inputs.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let (command, rest) = args
        .split_first()
        .ok_or_else(|| usage("missing subcommand"))?;
    match command.as_str() {
        "model" => cmd_model(rest),
        "eval" | "trace" | "expected" | "seqeval" => cmd_offline(command, rest),
        "datasheet" => cmd_datasheet(rest),
        "sim" => cmd_sim(rest),
        "bench" => cmd_bench(rest),
        "serve" => cmd_serve(rest),
        "client" => cmd_client(rest),
        "conform" => cmd_conform(rest),
        "--help" | "-h" | "help" => Ok(usage("")),
        other => Err(usage(&format!("unknown subcommand `{other}`"))),
    }
}

fn usage(prefix: &str) -> String {
    let mut out = String::new();
    if !prefix.is_empty() {
        let _ = writeln!(out, "error: {prefix}\n");
    }
    let _ = write!(
        out,
        "charfree — characterization-free behavioral power modeling\n\
         \n\
         usage:\n\
         \x20 charfree model <netlist|bench> [-o M.cfm] [--max N]\n\
         \x20                [--upper-bound] [--library L.lib] [--paper-plain]\n\
         \x20                [--node-budget N] [--time-budget SECS] [--strict]\n\
         \x20 charfree eval <model|netlist|bench> [--vectors N] [--sp P]\n\
         \x20                [--st P] [--vdd V] [--period NS] [--seed S] [--jobs N]\n\
         \x20 charfree seqeval <netlist.blif> [--vectors N] [--sp P] [--st P]\n\
         \x20                [--vdd V] [--period NS] [--seed S] [--library L.lib]\n\
         \x20 charfree datasheet <model|netlist|bench> [--top K]\n\
         \x20 charfree expected <model|netlist|bench> [--sp P] [--st P]\n\
         \x20 charfree trace <model|netlist|bench> [--vectors N] [--sp P]\n\
         \x20                [--st P] [--vdd V] [--period NS] [--seed S] [--jobs N]\n\
         \x20                [-o out.csv]\n\
         \x20 charfree sim <netlist.{{blif,v}}> [--vectors N] [--sp P] [--st P]\n\
         \x20                [--library L.lib] [--seed S]\n\
         \x20 charfree bench <name> [--format blif|verilog]\n\
         \x20 charfree serve [--addr HOST:PORT] [--jobs N] [--batch-window DUR]\n\
         \x20                [--max-inflight N] [--max-vectors N]\n\
         \x20                [--model-bytes-budget BYTES]\n\
         \x20                [--reactor-threads N] [--idle-timeout-ms MS]\n\
         \x20                [--metrics-addr HOST:PORT]\n\
         \x20                [--library L.lib] [--cache-dir DIR] [--quiet]\n\
         \x20                [--breaker-failures K] [--breaker-open-ms MS]\n\
         \x20 charfree client <{CLIENT_SUBCOMMANDS}>\n\
         \x20                [operand] [--addr HOST:PORT] [--proto json|binary]\n\
         \x20                [--deadline-ms N] [--retries N]\n\
         \x20                [eval/trace/expected/seqeval flags, without --jobs]\n\
         \x20 charfree conform [--cases N] [--seq-cases N] [--seed S] [--vectors N] [--corpus DIR]\n\
         \x20                [--shrink] [--no-serve] [--no-campaigns]\n\
         \x20                [--campaign standard|chaos|all] [--chaos-faults N]\n\
         \n\
         every building/evaluating subcommand also takes\n\
         \x20                [--cache-dir DIR] [--telemetry json]\n\
         (`--cache-dir` warm-loads identical builds from a content-addressed\n\
         artifact store; `--telemetry json` streams per-stage events to stderr)\n\
         \n\
         `eval`, `trace` and `seqeval`, offline and through `client`, and\n\
         `client load|seqload` take the build flags of the model they address:\n\
         \x20                [--max N] [--node-budget N] [--strict] [--upper-bound]\n\
         `--jobs N` (eval, trace, serve) needs N >= 1; omit it for one worker per\n\
         available core. results are bit-identical for every worker count.\n\
         `--batch-window` takes `0`, `200us`, `5ms` or `1s`;\n\
         `--model-bytes-budget` takes plain bytes or a K/M/G suffix.\n\
         `serve` drains gracefully on SIGTERM/SIGINT and exits 0; `client\n\
         --retries N` retries shed or retriable responses (and reconnects\n\
         after drops) with capped, jittered exponential backoff honoring\n\
         the server's retry_after_ms hint.\n",
    );
    out
}

/// Minimal flag cursor over the argument list.
struct Flags<'a> {
    args: &'a [String],
    used: Vec<bool>,
}

impl<'a> Flags<'a> {
    fn new(args: &'a [String]) -> Self {
        Flags {
            args,
            used: vec![false; args.len()],
        }
    }

    /// The first unused non-flag argument (the positional operand).
    fn positional(&mut self) -> Result<&'a str, CliError> {
        for (i, a) in self.args.iter().enumerate() {
            if !self.used[i] && !a.starts_with('-') {
                self.used[i] = true;
                return Ok(a);
            }
        }
        Err("missing required operand".to_owned())
    }

    fn flag(&mut self, name: &str) -> bool {
        for (i, a) in self.args.iter().enumerate() {
            if !self.used[i] && a == name {
                self.used[i] = true;
                return true;
            }
        }
        false
    }

    fn value(&mut self, name: &str) -> Result<Option<&'a str>, CliError> {
        for (i, a) in self.args.iter().enumerate() {
            if !self.used[i] && a == name {
                self.used[i] = true;
                let v = self
                    .args
                    .get(i + 1)
                    .ok_or_else(|| format!("flag `{name}` needs a value"))?;
                self.used[i + 1] = true;
                return Ok(Some(v));
            }
        }
        Ok(None)
    }

    fn parse_opt<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, CliError> {
        self.value(name)?
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("bad value `{v}` for `{name}`"))
            })
            .transpose()
    }

    fn parse<T: std::str::FromStr>(&mut self, name: &str, default: T) -> Result<T, CliError> {
        Ok(self.parse_opt(name)?.unwrap_or(default))
    }

    fn finish(self) -> Result<(), CliError> {
        for (i, a) in self.args.iter().enumerate() {
            if !self.used[i] {
                return Err(format!("unexpected argument `{a}`"));
            }
        }
        Ok(())
    }
}

/// Parses a `--jobs` flag. `0` used to fall through to the engine as a
/// degenerate worker count; it is now rejected at parse time. Omitting
/// the flag still means "one worker per available core" (returned as
/// `0`, the engine's auto sentinel).
fn parse_jobs(flags: &mut Flags<'_>) -> Result<usize, CliError> {
    match flags.parse_opt("--jobs")? {
        Some(0) => Err(
            "`--jobs 0` is not a valid worker count; pass `--jobs N` with N >= 1, \
             or omit the flag to use one worker per available core"
                .to_owned(),
        ),
        jobs => Ok(jobs.unwrap_or(0)),
    }
}

fn load_library(flags: &mut Flags<'_>) -> Result<Library, CliError> {
    match flags.value("--library")? {
        None => Ok(Library::test_library()),
        Some(path) => {
            let text = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            libspec::parse(&text).map_err(|e| format!("{path}: {e}"))
        }
    }
}

/// The per-invocation pipeline session every subcommand shares: library
/// selection, optional artifact store and telemetry rendering are parsed
/// once, here, instead of per-command.
struct Session {
    ctx: PipelineCtx,
    telemetry_json: bool,
}

impl Session {
    /// Parses the shared `--library`, `--cache-dir` and `--telemetry`
    /// flags into a ready pipeline context.
    fn from_flags(flags: &mut Flags<'_>) -> Result<Session, CliError> {
        let library = load_library(flags)?;
        let mut ctx = PipelineCtx::new(library);
        if let Some(dir) = flags.value("--cache-dir")? {
            ctx = ctx.with_store(ArtifactStore::new(dir));
        }
        let telemetry_json = match flags.value("--telemetry")? {
            None => false,
            Some("json") => true,
            Some(other) => {
                return Err(format!(
                    "unknown telemetry format `{other}` (expected `json`)"
                ))
            }
        };
        Ok(Session {
            ctx,
            telemetry_json,
        })
    }

    /// Emits the telemetry stream (stderr, so stdout stays byte-identical
    /// between cold and warm runs) and returns the report unchanged.
    fn finish(&self, report: String) -> Result<String, CliError> {
        if self.telemetry_json {
            eprintln!("{}", self.ctx.telemetry.to_json());
        }
        Ok(report)
    }
}

/// The flags that shape a report but never reach the model: `--vdd`,
/// `--period` and `trace`'s `-o`. Requests that print no energy leave
/// it at its default, which nothing reads.
#[derive(Default)]
struct Render {
    vdd: f64,
    period: f64,
    out: Option<String>,
}

/// The pattern-stream flags. Statistics are checked here, before any
/// model is built or any request is sent.
fn parse_params(flags: &mut Flags<'_>, default_vectors: usize) -> Result<WireEvalParams, CliError> {
    let params = WireEvalParams {
        vectors: flags.parse("--vectors", default_vectors)?,
        sp: flags.parse("--sp", 0.5)?,
        st: flags.parse("--st", 0.5)?,
        seed: flags.parse("--seed", 1)?,
        deadline_ms: None,
    };
    check_statistics(params.sp, params.st).map_err(|e| e.to_string())?;
    Ok(params)
}

/// The build flags (`--max`, `--node-budget`, `--strict`,
/// `--upper-bound`) that pick which model a request addresses.
fn parse_build_options(flags: &mut Flags<'_>) -> Result<WireBuildOptions, CliError> {
    let max: usize = flags.parse("--max", 0)?;
    let node_budget: u64 = flags.parse("--node-budget", 0)?;
    Ok(WireBuildOptions {
        max_nodes: (max > 0).then_some(max),
        node_budget: (node_budget > 0).then_some(node_budget),
        strict: flags.flag("--strict"),
        upper_bound: flags.flag("--upper-bound"),
        deadline_ms: None,
    })
}

/// Parses `eval|trace|expected|seqeval <operand> [flags]` into the
/// request and its render spec. Offline and `client` both parse here,
/// so each command takes the same flags whichever transport runs it;
/// each transport then parses only its own extra flags.
fn parse_request(
    cmd: &str,
    flags: &mut Flags<'_>,
    deadline_ms: Option<u64>,
) -> Result<(Request, Render), CliError> {
    let source = flags.positional()?.to_owned();
    if cmd == "expected" {
        let (sp, st) = (flags.parse("--sp", 0.5)?, flags.parse("--st", 0.5)?);
        check_statistics(sp, st).map_err(|e| e.to_string())?;
        return Ok((Request::Expected { source, sp, st }, Render::default()));
    }
    let trace = cmd == "trace";
    let params = WireEvalParams {
        deadline_ms,
        ..parse_params(flags, if trace { 1000 } else { 10_000 })?
    };
    let render = Render {
        vdd: flags.parse("--vdd", 3.3)?,
        period: flags.parse("--period", 10.0)?,
        out: if trace {
            flags.value("-o")?.map(str::to_owned)
        } else {
            None
        },
    };
    // Energy is switched charge over the period at Vdd²: a zero,
    // negative or NaN period or supply has no power to report.
    if !(render.period.is_finite() && render.period > 0.0) {
        return Err(format!(
            "bad `--period` {}: need a finite clock period > 0 (ns)",
            render.period
        ));
    }
    if !(render.vdd.is_finite() && render.vdd > 0.0) {
        return Err(format!(
            "bad `--vdd` {}: need a finite supply voltage > 0 (V)",
            render.vdd
        ));
    }
    let options = parse_build_options(flags)?;
    let request = match cmd {
        "eval" => Request::Eval {
            source,
            options,
            params,
        },
        "trace" => Request::Trace {
            source,
            options,
            params,
        },
        _ => Request::SeqEval {
            source,
            options,
            params,
        },
    };
    Ok((request, render))
}

fn cmd_model(args: &[String]) -> Result<String, CliError> {
    let mut flags = Flags::new(args);
    let mut session = Session::from_flags(&mut flags)?;
    let operand = flags.positional()?;
    let out_path = flags.value("-o")?.map(str::to_owned);
    let build = parse_build_options(&mut flags)?;
    let time_budget = flags.value("--time-budget")?;
    let paper_plain = flags.flag("--paper-plain");
    flags.finish()?;
    // Echo the flag's text: a huge value formatted back from the f64
    // would print hundreds of digits.
    let time_budget = match time_budget {
        None => None,
        Some(text) => {
            let secs = text.parse::<f64>().ok();
            let budget = secs.and_then(|secs| std::time::Duration::try_from_secs_f64(secs).ok());
            match (secs, budget) {
                (Some(secs), Some(budget)) => (secs > 0.0).then_some(budget),
                _ => return Err(format!("bad value `{text}` for `--time-budget`")),
            }
        }
    };

    let mut options = if paper_plain {
        BuildOptions::paper_plain()
    } else {
        BuildOptions::default()
    };
    options.max_nodes = build.max_nodes;
    options.node_budget = build.node_budget;
    options.strict = build.strict;
    options.upper_bound = build.upper_bound;
    options.time_budget = time_budget;
    session.ctx.set_options(options);

    let netlist = session
        .ctx
        .load_netlist(&Source::infer(operand))
        .map_err(|e| e.to_string())?;
    let model = session
        .ctx
        .build_model(&netlist)
        .map_err(|e| e.to_string())?;

    let mut report = String::new();
    let _ = writeln!(
        report,
        "built power model for `{}`: n={} N={} -> {} nodes in {:.2}s{}",
        netlist.name(),
        netlist.num_inputs(),
        netlist.num_gates(),
        model.size(),
        model.report().cpu.as_secs_f64(),
        if model.report().exact { " (exact)" } else { "" }
    );
    let _ = writeln!(
        report,
        "avg {:.2} fF, max {:.2} fF",
        model.average_capacitance().femtofarads(),
        model.max_capacitance().femtofarads()
    );
    if let Some(degradation) = model.degradation() {
        let _ = writeln!(report, "warning: {degradation}");
    }
    match out_path {
        Some(path) => {
            let mut buf = Vec::new();
            model.save(&mut buf).map_err(|e| e.to_string())?;
            fs::write(&path, buf).map_err(|e| format!("{path}: {e}"))?;
            let _ = writeln!(report, "wrote {path}");
        }
        None => {
            let _ = writeln!(report, "(no -o given; model not persisted)");
        }
    }
    session.finish(report)
}

/// `eval`, `trace`, `expected` and `seqeval` offline: the shared
/// request, run on this process's pipeline, rendered as `client` does.
fn cmd_offline(cmd: &str, args: &[String]) -> Result<String, CliError> {
    let mut flags = Flags::new(args);
    let mut session = Session::from_flags(&mut flags)?;
    let jobs = match cmd {
        "eval" | "trace" => parse_jobs(&mut flags)?,
        _ => 0,
    };
    let (request, render) = parse_request(cmd, &mut flags, None)?;
    flags.finish()?;
    let response = handle_offline(&mut session.ctx, &request, jobs).map_err(error_message)?;
    session.finish(render_response(&request, &render, response)?)
}

/// An offline failure prints the typed error's message alone.
fn error_message(response: Response) -> CliError {
    match response {
        Response::Error { message, .. } => message,
        other => format!("unexpected response {other:?}"),
    }
}

/// Runs a parsed request offline through the shared handlers: `eval`
/// and `trace` run the trace engine on `jobs` workers, `seqeval` the
/// fused sequential walk, and each wraps its result as the server does.
fn handle_offline(
    ctx: &mut PipelineCtx,
    request: &Request,
    jobs: usize,
) -> Result<Response, Response> {
    match request {
        Request::Eval {
            source,
            options,
            params,
        }
        | Request::Trace {
            source,
            options,
            params,
        } => {
            let (kernel, _, _) = ctx.kernel(source, options)?;
            let patterns = handler::markov_stimulus(kernel.num_inputs(), params)?.patterns();
            let name = kernel.name().to_owned();
            Ok(match request {
                Request::Trace { .. } => Response::Trace {
                    name,
                    values: ctx.trace(&kernel, &patterns, jobs),
                },
                _ => handler::eval_response(name, &ctx.evaluate(&kernel, &patterns, jobs)),
            })
        }
        Request::Expected { source, sp, st } => handler::expected(ctx, source, *sp, *st),
        Request::SeqEval {
            source,
            options,
            params,
        } => {
            let (model, _, _) = handler::seq_model(ctx, source, options)?;
            let patterns = handler::markov_stimulus(model.num_inputs(), params)?.patterns();
            let summary = model.eval_fused(&patterns);
            let name = model.name().to_owned();
            Ok(handler::seq_eval_response(
                name,
                &summary.total,
                &summary.per_macro,
            ))
        }
        other => unreachable!("`{}` is not parsed offline", other.cmd()),
    }
}

/// Prints a response. Offline and `client` both render here, from
/// fields that cross the wire bit-exactly, which is what keeps their
/// stdout byte-identical.
fn render_response(
    request: &Request,
    render: &Render,
    response: Response,
) -> Result<String, CliError> {
    match (request, response) {
        (
            Request::Eval { params, .. },
            Response::Eval {
                name,
                transitions,
                sum_ff,
                max_ff,
            },
        ) => Ok(eval_report(
            &format!("model `{name}`"),
            (transitions, sum_ff, max_ff),
            params,
            render,
        )),
        (Request::Trace { .. }, Response::Trace { values, .. }) => trace_report(&values, render),
        (Request::Expected { sp, st, .. }, Response::Expected { name, value }) => {
            Ok(expected_report(&name, *sp, *st, value))
        }
        (
            Request::SeqEval { params, .. },
            Response::SeqEval {
                name,
                transitions,
                sum_ff,
                max_ff,
                macros,
            },
        ) => Ok(seq_eval_report(
            &name,
            (transitions, sum_ff, max_ff),
            &macros,
            params,
            render,
        )),
        (
            _,
            Response::Load {
                name,
                instrs,
                terminals,
                bytes,
                apply_steps,
                resident,
            },
        ) => Ok(format!(
            "loaded `{name}`: {instrs} instrs, {terminals} terminals, {bytes} bytes ({})\n",
            warmth(resident, apply_steps, "warm, 0 apply steps".to_owned())
        )),
        (
            _,
            Response::SeqLoad {
                name,
                macros,
                latches,
                instrs,
                bytes,
                apply_steps,
                cache_hits,
                resident,
            },
        ) => Ok(format!(
            "loaded sequential `{name}`: {macros} macros, {latches} latches, \
             {instrs} instrs, {bytes} bytes ({})\n",
            warmth(
                resident,
                apply_steps,
                format!("warm, 0 apply steps, {cache_hits} artifact hits")
            )
        )),
        (_, Response::Stats(payload)) => Ok(format!("{}\n", payload.to_line())),
        (_, Response::Metrics(text)) => Ok(text),
        (_, other) => Err(format!("unexpected response {other:?}")),
    }
}

/// How warm a `load`/`seqload` was.
fn warmth(resident: bool, apply_steps: u64, warm: String) -> String {
    if resident {
        "registry-resident".to_owned()
    } else if apply_steps == 0 {
        warm
    } else {
        format!("cold, {apply_steps} apply steps")
    }
}

/// Renders the `eval` report from a capacitance-domain summary
/// `(transitions, sum_ff, max_ff)`, scaled by Vdd² (energy is monotone
/// in C, so the summary's max is the energy peak too). `what` names the
/// model; `seqeval`'s report starts with the same lines.
fn eval_report(
    what: &str,
    (transitions, sum_ff, max_ff): (usize, f64, f64),
    params: &WireEvalParams,
    render: &Render,
) -> String {
    let v2 = render.vdd * render.vdd;
    let sum = v2 * sum_ff;
    let peak = (v2 * max_ff).max(0.0);
    let cycles = transitions as f64;
    let (sp, st, vdd, period) = (params.sp, params.st, render.vdd, render.period);
    let mut report = String::new();
    let _ = writeln!(
        report,
        "{what} on {} vectors (sp={sp}, st={st}, Vdd={vdd} V, T={period} ns):",
        transitions + 1
    );
    let _ = writeln!(report, "  average energy/cycle: {:.2} fJ", sum / cycles);
    let _ = writeln!(
        report,
        "  average power:        {:.3} uW",
        sum / cycles / period
    );
    let _ = writeln!(report, "  peak energy/cycle:    {peak:.2} fJ");
    let _ = writeln!(report, "  peak power:           {:.3} uW", peak / period);
    report
}

/// Renders the `seqeval` report: the `eval` lines for the whole design,
/// then the per-macro breakdown.
fn seq_eval_report(
    name: &str,
    total: (usize, f64, f64),
    macros: &[WireMacroSummary],
    params: &WireEvalParams,
    render: &Render,
) -> String {
    let what = format!("sequential model `{name}` ({} macros)", macros.len());
    let mut report = eval_report(&what, total, params, render);
    let v2 = render.vdd * render.vdd;
    let cycles = total.0 as f64;
    let _ = writeln!(report, "  per-macro breakdown:");
    for m in macros {
        let _ = writeln!(
            report,
            "    {:<20} avg {:.2} fJ/cycle  peak {:.2} fJ",
            m.name,
            v2 * m.sum_ff / cycles,
            (v2 * m.max_ff).max(0.0)
        );
    }
    report
}

/// Renders the `expected` report.
fn expected_report(name: &str, sp: f64, st: f64, c: f64) -> String {
    let mut report = String::new();
    let _ = writeln!(
        report,
        "analytic expected switched capacitance of `{name}` at (sp={sp}, st={st}): {c:.3} fF/cycle"
    );
    let _ = writeln!(report, "(symbolic — no simulation vectors involved)");
    report
}

/// Renders the `trace` output (CSV to stdout, or a summary line after
/// writing `-o`) from per-transition switched capacitance.
fn trace_report(values_ff: &[f64], render: &Render) -> Result<String, CliError> {
    let caps: Vec<_> = values_ff
        .iter()
        .copied()
        .map(charfree_netlist::units::Capacitance)
        .collect();
    let trace = charfree_sim::EnergyTrace::from_switched(&caps, Voltage(render.vdd), render.period);

    let mut csv = Vec::new();
    trace.write_csv(&mut csv).map_err(|e| e.to_string())?;
    match &render.out {
        Some(path) => {
            fs::write(path, csv).map_err(|e| format!("{path}: {e}"))?;
            let mut report = String::new();
            let _ = writeln!(
                report,
                "wrote {} cycles to {path} (avg {:.3} uW, windowed-16 peak {:.2} fJ)",
                trace.len(),
                trace.average_power().microwatts(),
                trace.windowed_peak_energy(16).femtojoules()
            );
            Ok(report)
        }
        None => String::from_utf8(csv).map_err(|e| e.to_string()),
    }
}

fn cmd_datasheet(args: &[String]) -> Result<String, CliError> {
    let mut flags = Flags::new(args);
    let mut session = Session::from_flags(&mut flags)?;
    let operand = flags.positional()?;
    let top: usize = flags.parse("--top", 5)?;
    flags.finish()?;

    let model = session
        .ctx
        .model_for(&Source::infer(operand))
        .map_err(|e| e.to_string())?;
    let mut report = String::new();
    let _ = writeln!(
        report,
        "power datasheet for `{}` ({} inputs, {} nodes{})",
        model.name(),
        model.num_inputs(),
        model.size(),
        if model.report().exact { ", exact" } else { "" }
    );
    let _ = writeln!(
        report,
        "  average switched capacitance: {:.2} fF",
        model.average_capacitance().femtofarads()
    );
    let _ = writeln!(
        report,
        "  worst-case switched capacitance: {:.2} fF",
        model.max_capacitance().femtofarads()
    );
    let _ = writeln!(report, "  top {top} capacitance levels:");
    for level in model.peak_spectrum(top) {
        let fmt_bits =
            |bits: &[bool]| -> String { bits.iter().map(|&b| if b { '1' } else { '0' }).collect() };
        let _ = writeln!(
            report,
            "    {:>9.2} fF  x{:<12} {} -> {}",
            level.capacitance.femtofarads(),
            level.count,
            fmt_bits(&level.witness.0),
            fmt_bits(&level.witness.1)
        );
    }
    session.finish(report)
}

fn cmd_sim(args: &[String]) -> Result<String, CliError> {
    let mut flags = Flags::new(args);
    let mut session = Session::from_flags(&mut flags)?;
    let netlist_path = flags.positional()?;
    let params = parse_params(&mut flags, 10_000)?;
    flags.finish()?;

    let netlist = session
        .ctx
        .load_netlist(&Source::infer(netlist_path))
        .map_err(|e| e.to_string())?;
    let sim = ZeroDelaySim::new(&netlist);
    let patterns = handler::markov_stimulus(netlist.num_inputs(), &params)
        .map_err(error_message)?
        .patterns();
    let trace = sim.switching_trace(&patterns);
    let avg = trace.iter().map(|c| c.femtofarads()).sum::<f64>() / trace.len() as f64;
    let peak = trace
        .iter()
        .map(|c| c.femtofarads())
        .fold(f64::NEG_INFINITY, f64::max);
    let mut report = String::new();
    let _ = writeln!(
        report,
        "gate-level simulation of `{}`: {} vectors (sp={}, st={})",
        netlist.name(),
        patterns.len(),
        params.sp,
        params.st
    );
    let _ = writeln!(report, "  average switched capacitance: {avg:.2} fF/cycle");
    let _ = writeln!(report, "  peak switched capacitance:    {peak:.2} fF");
    session.finish(report)
}

fn cmd_bench(args: &[String]) -> Result<String, CliError> {
    let mut flags = Flags::new(args);
    let name = flags.positional()?;
    let format = flags.value("--format")?.unwrap_or("blif").to_owned();
    flags.finish()?;

    let mut ctx = PipelineCtx::new(Library::test_library());
    let netlist = ctx
        .parse_netlist(&Source::Bench(name.to_owned()))
        .map_err(|e| e.to_string())?;
    match format.as_str() {
        "blif" => Ok(blif::write(&netlist)),
        "verilog" | "v" => Ok(verilog::write(&netlist)),
        other => Err(format!("unknown format `{other}` (blif|verilog)")),
    }
}

/// Parses a `--batch-window` duration: `0` (no coalescing delay) or an
/// integer with a `us`/`ms`/`s` suffix.
fn parse_window(text: &str) -> Result<std::time::Duration, CliError> {
    let t = text.trim();
    if t == "0" {
        return Ok(std::time::Duration::ZERO);
    }
    let bad = || format!("bad duration `{text}` for `--batch-window` (use 0, 200us, 5ms or 1s)");
    let (digits, micros_per_unit) = if let Some(n) = t.strip_suffix("us") {
        (n, 1u64)
    } else if let Some(n) = t.strip_suffix("ms") {
        (n, 1_000)
    } else if let Some(n) = t.strip_suffix('s') {
        (n, 1_000_000)
    } else {
        return Err(bad());
    };
    let n: u64 = digits.parse().map_err(|_| bad())?;
    n.checked_mul(micros_per_unit)
        .map(std::time::Duration::from_micros)
        .ok_or_else(bad)
}

/// Parses a byte size: plain bytes or an integer with a binary `K`/`M`/
/// `G` suffix.
fn parse_byte_size(text: &str) -> Result<usize, CliError> {
    let t = text.trim();
    let bad = || format!("bad byte size `{text}` (use plain bytes or a K/M/G suffix)");
    let (digits, mult) = match t.chars().last() {
        Some('K' | 'k') => (&t[..t.len() - 1], 1usize << 10),
        Some('M' | 'm') => (&t[..t.len() - 1], 1usize << 20),
        Some('G' | 'g') => (&t[..t.len() - 1], 1usize << 30),
        _ => (t, 1),
    };
    let n: usize = digits.parse().map_err(|_| bad())?;
    n.checked_mul(mult).ok_or_else(bad)
}

fn cmd_serve(args: &[String]) -> Result<String, CliError> {
    let mut flags = Flags::new(args);
    let library = load_library(&mut flags)?;
    let addr = flags
        .value("--addr")?
        .unwrap_or("127.0.0.1:7878")
        .to_owned();
    let jobs = parse_jobs(&mut flags)?;
    let batch_window = parse_window(flags.value("--batch-window")?.unwrap_or("200us"))?;
    let max_inflight: usize = flags.parse("--max-inflight", 64)?;
    let max_vectors: usize = flags.parse("--max-vectors", 4_000_000)?;
    let model_bytes_budget =
        parse_byte_size(flags.value("--model-bytes-budget")?.unwrap_or("64M"))?;
    let cache_dir = flags.value("--cache-dir")?.map(std::path::PathBuf::from);
    let quiet = flags.flag("--quiet");
    let breaker_failures: u32 = flags.parse("--breaker-failures", 3)?;
    let breaker_open_ms: u64 = flags.parse("--breaker-open-ms", 500)?;
    let reactor_threads: usize = flags.parse("--reactor-threads", 2)?;
    let idle_timeout_ms: u64 = flags.parse("--idle-timeout-ms", 30_000)?;
    let metrics_addr = flags.value("--metrics-addr")?.map(str::to_owned);
    flags.finish()?;
    if reactor_threads == 0 {
        return Err("`--reactor-threads` must be at least 1".to_owned());
    }
    if idle_timeout_ms == 0 {
        return Err("`--idle-timeout-ms` must be at least 1".to_owned());
    }
    if max_inflight == 0 {
        return Err("`--max-inflight` must be at least 1".to_owned());
    }
    if breaker_failures == 0 {
        return Err("`--breaker-failures` must be at least 1".to_owned());
    }
    if max_vectors < 2 {
        return Err(
            "`--max-vectors` must be at least 2 (evaluation needs a pattern pair)".to_owned(),
        );
    }
    let jobs = if jobs == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        jobs
    };
    let config = charfree_serve::ServeConfig {
        addr,
        jobs,
        batch_window,
        max_inflight,
        max_vectors,
        model_bytes_budget,
        library,
        cache_dir,
        idle_timeout: std::time::Duration::from_millis(idle_timeout_ms),
        reactor_threads,
        metrics_addr,
        log: !quiet,
        breaker: charfree_serve::BreakerConfig {
            failure_threshold: breaker_failures,
            open_base: std::time::Duration::from_millis(breaker_open_ms.max(1)),
            ..charfree_serve::BreakerConfig::default()
        },
        fault_io: None,
    };
    let server = charfree_serve::Server::start(config).map_err(|e| format!("serve: {e}"))?;
    // SIGTERM/SIGINT trigger the same graceful drain a `shutdown`
    // request does, so orchestrators that kill with a signal still get
    // a flushed queue and exit code 0.
    #[cfg(unix)]
    server.drain_on_signals();
    // Blocks until the server drains; a clean return is the protocol's
    // "exited 0".
    server.wait();
    Ok(String::new())
}

/// Turns a typed error response into a CLI failure message.
fn expect_ok(response: Response) -> Result<Response, CliError> {
    match response {
        Response::Error {
            kind,
            message,
            retry_after_ms,
        } => {
            let mut text = format!("server error ({}): {message}", kind.name());
            if let Some(ms) = retry_after_ms {
                let _ = write!(text, " (retry after {ms} ms)");
            }
            Err(text)
        }
        ok => Ok(ok),
    }
}

/// The subcommands `charfree client` takes.
const CLIENT_SUBCOMMANDS: &str = "load|eval|trace|expected|seqload|seqeval|stats|metrics|shutdown";

/// `charfree client`: the offline grammar for `eval`, `trace`,
/// `expected` and `seqeval` (see [`parse_request`]) plus the transport
/// flags `--addr`, `--proto`, `--retries` and `--deadline-ms`; the
/// response renders through the offline formatters.
fn cmd_client(args: &[String]) -> Result<String, CliError> {
    let (sub, rest) = args
        .split_first()
        .ok_or_else(|| format!("client: missing subcommand ({CLIENT_SUBCOMMANDS})"))?;
    let mut flags = Flags::new(rest);
    let addr = flags
        .value("--addr")?
        .unwrap_or("127.0.0.1:7878")
        .to_owned();
    // Retries cover shed responses (`overloaded`, `draining`,
    // `model-unavailable`) and dropped connections, with capped
    // exponential backoff + jitter honoring the server's retry_after_ms
    // hint. Default 0 keeps the historical single-shot behavior.
    let retries: u32 = flags.parse("--retries", 0)?;
    let proto = charfree_serve::Proto::parse(flags.value("--proto")?.unwrap_or("json"))?;
    let (request, render) = match sub.as_str() {
        "expected" => parse_request(sub, &mut flags, None)?,
        "eval" | "trace" | "seqeval" => {
            let deadline_ms = flags.parse_opt("--deadline-ms")?;
            parse_request(sub, &mut flags, deadline_ms)?
        }
        "load" | "build" | "seqload" => {
            let deadline_ms = flags.parse_opt("--deadline-ms")?;
            let source = flags.positional()?.to_owned();
            let options = WireBuildOptions {
                deadline_ms,
                ..parse_build_options(&mut flags)?
            };
            let request = match sub.as_str() {
                "seqload" => Request::SeqLoad { source, options },
                _ => Request::Load { source, options },
            };
            (request, Render::default())
        }
        "stats" => (Request::Stats, Render::default()),
        "metrics" => (Request::Metrics, Render::default()),
        "shutdown" => (Request::Shutdown, Render::default()),
        other => {
            return Err(format!(
                "client: unknown subcommand `{other}` ({CLIENT_SUBCOMMANDS})"
            ))
        }
    };
    flags.finish()?;
    let mut client = charfree_serve::Client::connect_with(&addr, proto)
        .map_err(|e| format!("connect {addr}: {e}"))?;
    // A shutdown is sent once; everything else is retried under the
    // policy, and a typed server error becomes the CLI failure.
    let response = match request {
        Request::Shutdown => client.request(&request),
        _ => {
            let policy = charfree_serve::RetryPolicy {
                retries,
                ..charfree_serve::RetryPolicy::default()
            };
            client.request_with_retries(&request, &policy)
        }
    }
    .map_err(|e| e.to_string())?;
    match expect_ok(response)? {
        Response::Shutdown => Ok(format!("server at {addr} acknowledged shutdown\n")),
        response => render_response(&request, &render, response),
    }
}

/// Parses a seed flag accepting both decimal and `0x`-prefixed hex
/// (`--seed 0xC0FFEE` is the documented CI invocation).
fn parse_seed(flags: &mut Flags<'_>, name: &str, default: u64) -> Result<u64, CliError> {
    match flags.value(name)? {
        None => Ok(default),
        Some(v) => {
            let parsed = match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => v.parse(),
            };
            parsed.map_err(|_| format!("bad value `{v}` for `{name}`"))
        }
    }
}

fn cmd_conform(args: &[String]) -> Result<String, CliError> {
    let mut flags = Flags::new(args);
    let cases_given = flags.parse_opt("--cases")?;
    let seq_cases_given = flags.parse_opt("--seq-cases")?;
    let seed = parse_seed(&mut flags, "--seed", 0xC0FFEE)?;
    let vectors = flags.parse("--vectors", 48usize)?;
    let corpus = flags.value("--corpus")?.map(std::path::PathBuf::from);
    let shrink = flags.flag("--shrink");
    let serve = !flags.flag("--no-serve");
    let no_campaigns = flags.flag("--no-campaigns");
    let campaign_mode = flags.value("--campaign")?.unwrap_or("standard").to_owned();
    let chaos_faults: u64 = flags.parse("--chaos-faults", 200)?;
    flags.finish()?;
    let mut cases = cases_given.unwrap_or(64);
    let mut seq_cases = seq_cases_given.unwrap_or(8);
    let (campaigns, chaos) = match campaign_mode.as_str() {
        "standard" => (!no_campaigns, false),
        "chaos" => {
            // Chaos-only mode skips the differential sweeps unless an
            // explicit `--cases`/`--seq-cases` asks for one — this is
            // the fast CI resilience smoke.
            if cases_given.is_none() {
                cases = 0;
            }
            if seq_cases_given.is_none() {
                seq_cases = 0;
            }
            (false, true)
        }
        "all" => (!no_campaigns, true),
        other => {
            return Err(format!(
                "bad value `{other}` for `--campaign` (standard|chaos|all)"
            ))
        }
    };
    let workdir = std::env::temp_dir().join(format!("charfree-conform-{}", std::process::id()));
    let config = charfree_conform::ConformConfig {
        cases,
        seq_cases,
        seed,
        vectors,
        corpus,
        shrink,
        serve,
        campaigns,
        chaos,
        chaos_faults,
        workdir: workdir.clone(),
    };
    let result = charfree_conform::run(&config);
    let _ = fs::remove_dir_all(&workdir);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|p| p.to_string()).collect()
    }

    #[test]
    fn help_and_unknown() {
        assert!(run(&s(&["help"])).expect("help works").contains("usage"));
        assert!(run(&s(&["frobnicate"])).is_err());
        assert!(run(&[]).is_err());
        assert!(run(&s(&["conform", "--no-delta"])).is_err());
    }

    #[test]
    fn conform_subcommand_runs_a_tiny_sweep() {
        let report = run(&s(&[
            "conform",
            "--cases",
            "2",
            "--seq-cases",
            "2",
            "--seed",
            "0xC0FFEE",
            "--vectors",
            "8",
            "--no-serve",
            "--no-campaigns",
        ]))
        .expect("tiny sweep passes");
        assert!(report.contains("2 generated cases"), "report: {report}");
        assert!(report.contains("2 sequential cases"), "report: {report}");
        assert!(run(&s(&["conform", "--seed", "0xZZ"])).is_err());
        assert!(run(&s(&["conform", "--frobnicate"])).is_err());
    }

    /// Bad input statistics, NaN included, are a typed error on every
    /// command that takes them, never a panic further down.
    #[test]
    fn bad_statistics_are_typed_errors() {
        for args in [
            &["eval", "decod", "--st", "nan"][..],
            &["sim", "decod", "--st", "nan"],
            &["expected", "decod", "--st", "nan"],
            &["expected", "decod", "--sp", "0.2", "--st", "0.9"],
            &["expected", "decod", "--sp", "1.5"],
            // The client forms fail in the shared parser, before any
            // connection is made, with the offline message.
            &["client", "eval", "decod", "--st", "nan"],
            &[
                "client", "eval", "decod", "--st", "nan", "--proto", "binary",
            ],
            &["client", "trace", "decod", "--st", "nan"],
            &[
                "client", "trace", "decod", "--st", "nan", "--proto", "binary",
            ],
            &["client", "seqeval", "design.blif", "--st", "nan"],
            &[
                "client",
                "seqeval",
                "design.blif",
                "--st",
                "nan",
                "--proto",
                "binary",
            ],
            &["client", "expected", "decod", "--st", "nan"],
            &[
                "client", "expected", "decod", "--st", "nan", "--proto", "binary",
            ],
            &["client", "expected", "decod", "--sp", "0.2", "--st", "0.9"],
            &[
                "client", "expected", "decod", "--sp", "1.5", "--proto", "binary",
            ],
        ] {
            let err = run(&s(args)).expect_err("bad statistics rejected");
            assert!(
                err.contains("infeasible") && err.contains("sp"),
                "{args:?}: {err}"
            );
        }
        // A clock period that is not finite and positive, or a supply
        // that is not finite, has no power to report; the client forms
        // fail before they connect (no server listens here).
        for (args, flag) in [
            (&["trace", "decod", "--period", "0"][..], "--period"),
            (&["trace", "decod", "--period", "-1"], "--period"),
            (&["trace", "decod", "--period", "nan"], "--period"),
            (&["eval", "decod", "--period", "0"], "--period"),
            (&["eval", "decod", "--period", "-1"], "--period"),
            (&["eval", "decod", "--period", "inf"], "--period"),
            (&["eval", "decod", "--vdd", "nan"], "--vdd"),
            (&["trace", "decod", "--vdd", "inf"], "--vdd"),
            (&["seqeval", "design.blif", "--period", "0"], "--period"),
            (&["client", "trace", "decod", "--period", "0"], "--period"),
            (
                &[
                    "client", "eval", "decod", "--period", "nan", "--proto", "binary",
                ],
                "--period",
            ),
            (&["client", "eval", "decod", "--vdd", "nan"], "--vdd"),
            (&["eval", "decod", "--vdd", "-1"], "--vdd"),
            (&["trace", "decod", "--vdd", "0"], "--vdd"),
            (&["client", "eval", "decod", "--vdd", "-3.3"], "--vdd"),
        ] {
            let err = run(&s(args)).expect_err("bad render flag rejected");
            assert!(err.contains(&format!("bad `{flag}`")), "{args:?}: {err}");
        }
    }

    #[test]
    fn bench_emits_parseable_netlists() {
        let text = run(&s(&["bench", "cm85"])).expect("bench works");
        assert!(blif::parse(&text).is_ok());
        let text = run(&s(&["bench", "decod", "--format", "verilog"])).expect("verilog");
        assert!(verilog::parse(&text).is_ok());
        assert!(run(&s(&["bench", "nope"])).is_err());
    }

    #[test]
    fn end_to_end_model_eval_datasheet() {
        let dir = std::env::temp_dir().join("charfree-cli-test");
        fs::create_dir_all(&dir).expect("tmp dir");
        let netlist_path = dir.join("decod.blif");
        let model_path = dir.join("decod.cfm");
        let blif_text = run(&s(&["bench", "decod"])).expect("bench");
        fs::write(&netlist_path, blif_text).expect("write blif");

        let report = run(&s(&[
            "model",
            netlist_path.to_str().expect("utf8"),
            "-o",
            model_path.to_str().expect("utf8"),
            "--max",
            "300",
        ]))
        .expect("model builds");
        assert!(report.contains("built power model"));
        assert!(report.contains("wrote"));

        let report = run(&s(&[
            "eval",
            model_path.to_str().expect("utf8"),
            "--vectors",
            "500",
            "--st",
            "0.3",
        ]))
        .expect("eval runs");
        assert!(report.contains("average power"));

        let report = run(&s(&[
            "datasheet",
            model_path.to_str().expect("utf8"),
            "--top",
            "3",
        ]))
        .expect("datasheet runs");
        assert!(report.contains("worst-case"));

        let report = run(&s(&[
            "sim",
            netlist_path.to_str().expect("utf8"),
            "--vectors",
            "500",
        ]))
        .expect("sim runs");
        assert!(report.contains("gate-level simulation"));
    }

    #[test]
    fn seqeval_reports_per_macro_breakdown_and_fused_unfused_agree() {
        let dir = std::env::temp_dir().join("charfree-cli-test-seq");
        fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("pipe2.blif");
        fs::write(
            &path,
            "\
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
",
        )
        .expect("write blif");
        let path = path.to_str().expect("utf8");

        let fused =
            run(&s(&["seqeval", path, "--vectors", "200", "--seed", "7"])).expect("seqeval runs");
        assert!(
            fused.contains("sequential model `pipe2` (2 macros)"),
            "{fused}"
        );
        assert!(fused.contains("per-macro breakdown"), "{fused}");
        assert!(fused.contains("pipe2__m0"), "{fused}");
        assert!(fused.contains("pipe2__m1"), "{fused}");

        // Combinational entry points name the sequential path instead of
        // silently mis-modeling a `.latch` design.
        let err = run(&s(&["eval", path])).expect_err("combinational eval rejects latches");
        assert!(
            err.contains("seqeval") || err.contains("parse_seq"),
            "{err}"
        );
    }

    #[test]
    fn node_budget_degrades_and_strict_fails() {
        let dir = std::env::temp_dir().join("charfree-cli-test-budget");
        fs::create_dir_all(&dir).expect("tmp dir");
        let netlist_path = dir.join("cm150.blif");
        fs::write(&netlist_path, run(&s(&["bench", "cm150"])).expect("bench")).expect("write");
        let path = netlist_path.to_str().expect("utf8");

        // Over-budget build degrades with a warning instead of failing.
        let report = run(&s(&[
            "model",
            path,
            "--node-budget",
            "300",
            "--upper-bound",
        ]))
        .expect("degraded build still succeeds");
        assert!(report.contains("built power model"), "{report}");
        assert!(report.contains("warning: degraded build"), "{report}");

        // The same budget in strict mode surfaces the trip as an error.
        let err = run(&s(&["model", path, "--node-budget", "300", "--strict"]))
            .expect_err("strict build fails");
        assert!(err.contains("budget exceeded"), "{err}");

        // An unbudgeted bounded build stays warning-free.
        let report = run(&s(&["model", path, "--max", "300"])).expect("builds");
        assert!(!report.contains("warning"), "{report}");
    }

    #[test]
    fn time_budget_flag_is_validated() {
        let dir = std::env::temp_dir().join("charfree-cli-test-budget");
        fs::create_dir_all(&dir).expect("tmp dir");
        let netlist_path = dir.join("decod.blif");
        fs::write(&netlist_path, run(&s(&["bench", "decod"])).expect("bench")).expect("write");
        let path = netlist_path.to_str().expect("utf8");
        assert!(run(&s(&["model", path, "--time-budget", "-1"])).is_err());
        assert!(run(&s(&["model", path, "--time-budget", "abc"])).is_err());
        for bad in ["1e300", "inf", "NaN"] {
            let err = run(&s(&["model", path, "--time-budget", bad])).expect_err(bad);
            assert!(err.contains("bad value"), "{bad}: {err}");
            // The message echoes the flag's text, not the f64's
            // 301-digit expansion.
            assert!(err.contains(&format!("`{bad}`")), "{bad}: {err}");
            assert!(err.len() < 100, "{bad}: {} bytes: {err}", err.len());
        }
        // A generous deadline leaves a small build untouched.
        let report = run(&s(&["model", path, "--time-budget", "120"])).expect("builds");
        assert!(report.contains("(exact)"), "{report}");
    }

    #[test]
    fn flag_errors_are_reported() {
        assert!(run(&s(&["eval"])).is_err());
        assert!(run(&s(&["model", "/nonexistent.blif"])).is_err());
        let dir = std::env::temp_dir().join("charfree-cli-test2");
        fs::create_dir_all(&dir).expect("tmp dir");
        let p = dir.join("x.blif");
        fs::write(&p, run(&s(&["bench", "parity"])).expect("bench")).expect("write");
        assert!(run(&s(&["model", p.to_str().expect("utf8"), "--max", "abc"])).is_err());
        assert!(run(&s(&["model", p.to_str().expect("utf8"), "--bogus"])).is_err());
    }

    #[test]
    fn explicit_jobs_zero_is_rejected_at_parse_time() {
        // `--jobs 0` used to reach the engine; now every subcommand that
        // takes the flag rejects it before any model is built.
        for cmd in [
            &["eval", "decod", "--jobs", "0"][..],
            &["trace", "decod", "--jobs", "0"][..],
            &["serve", "--jobs", "0"][..],
        ] {
            let err = run(&s(cmd)).expect_err("--jobs 0 must be rejected");
            assert!(err.contains("--jobs 0"), "{cmd:?}: {err}");
            assert!(err.contains("N >= 1"), "{cmd:?}: {err}");
        }
        // Omitting the flag (auto) and N >= 1 both still work.
        assert!(run(&s(&["eval", "decod", "--vectors", "50"])).is_ok());
        assert!(run(&s(&["eval", "decod", "--vectors", "50", "--jobs", "2"])).is_ok());
    }

    #[test]
    fn jobs_is_an_unexpected_argument_where_nothing_reads_it() {
        // The fused sequential pass is one thread, and a client's work
        // runs on the server's `--jobs` workers.
        for cmd in [
            &["seqeval", "design.blif", "--jobs", "2"][..],
            &["client", "eval", "decod", "--jobs", "2"][..],
            &["client", "trace", "decod", "--jobs", "2"][..],
            &["client", "seqeval", "design.blif", "--jobs", "2"][..],
        ] {
            let err = run(&s(cmd)).expect_err("--jobs must be rejected");
            assert!(
                err.contains("unexpected argument `--jobs`"),
                "{cmd:?}: {err}"
            );
        }
    }

    #[test]
    fn client_subcommands_are_listed_once() {
        for args in [&["client"][..], &["client", "frob"]] {
            let err = run(&s(args)).expect_err("no such client subcommand");
            assert!(err.contains(CLIENT_SUBCOMMANDS), "{args:?}: {err}");
        }
        let help = run(&s(&["help"])).expect("help works");
        assert!(help.contains(CLIENT_SUBCOMMANDS), "{help}");
    }

    #[test]
    fn window_and_byte_size_parsers() {
        use std::time::Duration;
        assert_eq!(parse_window("0").expect("zero"), Duration::ZERO);
        assert_eq!(
            parse_window("200us").expect("us"),
            Duration::from_micros(200)
        );
        assert_eq!(parse_window("5ms").expect("ms"), Duration::from_millis(5));
        assert_eq!(parse_window("1s").expect("s"), Duration::from_secs(1));
        assert!(parse_window("200").is_err());
        assert!(parse_window("-1ms").is_err());
        assert!(parse_window("fast").is_err());

        assert_eq!(parse_byte_size("4096").expect("bytes"), 4096);
        assert_eq!(parse_byte_size("64K").expect("K"), 64 << 10);
        assert_eq!(parse_byte_size("64M").expect("M"), 64 << 20);
        assert_eq!(parse_byte_size("2G").expect("G"), 2 << 30);
        assert!(parse_byte_size("lots").is_err());
        assert!(parse_byte_size("-1M").is_err());
    }
}

#[cfg(test)]
mod serve_tests {
    use super::*;

    fn s(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|p| p.to_string()).collect()
    }

    fn cat(groups: &[&[&str]]) -> Vec<String> {
        groups
            .iter()
            .flat_map(|g| g.iter().map(|p| p.to_string()))
            .collect()
    }

    /// `charfree client <cmd>` against a live server must print exactly
    /// what the offline subcommand prints — byte-identical stdout is the
    /// serving layer's core contract.
    #[test]
    fn client_output_is_byte_identical_to_offline() {
        let mut config = charfree_serve::ServeConfig::new(Library::test_library());
        config.addr = "127.0.0.1:0".to_owned();
        config.log = false;
        config.batch_window = std::time::Duration::from_micros(200);
        let server = charfree_serve::Server::start(config).expect("binds");
        let addr = server.addr().to_string();

        let eval_args: &[&str] = &[
            "decod",
            "--vectors",
            "500",
            "--sp",
            "0.4",
            "--st",
            "0.3",
            "--seed",
            "7",
            "--vdd",
            "2.5",
            "--period",
            "8.5",
        ];
        let offline = run(&cat(&[&["eval"], eval_args])).expect("offline eval");
        let served =
            run(&cat(&[&["client", "eval"], eval_args, &["--addr", &addr]])).expect("served eval");
        assert_eq!(offline, served, "eval outputs diverge");

        let trace_args: &[&str] = &["cm85", "--vectors", "200", "--seed", "3"];
        let offline = run(&cat(&[&["trace"], trace_args])).expect("offline trace");
        let served = run(&cat(&[
            &["client", "trace"],
            trace_args,
            &["--addr", &addr],
        ]))
        .expect("served trace");
        assert_eq!(offline, served, "trace CSVs diverge");

        let expected_args: &[&str] = &["decod", "--sp", "0.2", "--st", "0.3"];
        let offline = run(&cat(&[&["expected"], expected_args])).expect("offline expected");
        let served = run(&cat(&[
            &["client", "expected"],
            expected_args,
            &["--addr", &addr],
        ]))
        .expect("served expected");
        assert_eq!(offline, served, "expected outputs diverge");

        // Sequential designs, and the build flags offline `eval` now
        // takes: an approximated model answers the same both ways.
        let seq = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/crates/netlist/benchmarks/seqpipe2.blif"
        );
        for args in [
            &["seqeval", seq, "--vectors", "300", "--seed", "7"][..],
            &["eval", "cm85", "--max", "50", "--vectors", "500"],
        ] {
            let offline = run(&s(args)).expect("offline run");
            for proto in ["json", "binary"] {
                let served = run(&cat(&[
                    &["client"],
                    args,
                    &["--addr", &addr, "--proto", proto],
                ]))
                .expect("served run");
                assert_eq!(offline, served, "{args:?} over {proto} diverges");
            }
        }

        let report = run(&s(&["client", "load", "decod", "--addr", &addr])).expect("load");
        assert!(report.contains("loaded `decod`"), "{report}");
        let report = run(&s(&["client", "stats", "--addr", &addr])).expect("stats");
        assert!(report.contains("\"completed\""), "{report}");

        let report = run(&s(&["client", "shutdown", "--addr", &addr])).expect("shutdown");
        assert!(report.contains("acknowledged shutdown"), "{report}");
        server.wait();
    }

    #[test]
    fn client_reports_typed_server_errors() {
        let mut config = charfree_serve::ServeConfig::new(Library::test_library());
        config.addr = "127.0.0.1:0".to_owned();
        config.log = false;
        let server = charfree_serve::Server::start(config).expect("binds");
        let addr = server.addr().to_string();

        let err = run(&s(&["client", "eval", "no-such-bench", "--addr", &addr]))
            .expect_err("unknown operand fails");
        assert!(err.contains("server error (bad-request)"), "{err}");

        run(&s(&["client", "shutdown", "--addr", &addr])).expect("shutdown");
        server.wait();
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;

    fn s(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|p| p.to_string()).collect()
    }

    /// The shared cm85 model, written once per test process: tests run
    /// in parallel, and rewriting the file for each caller let one test
    /// read it while another was truncating it.
    fn model_file() -> std::path::PathBuf {
        static MODEL: std::sync::OnceLock<std::path::PathBuf> = std::sync::OnceLock::new();
        MODEL
            .get_or_init(|| {
                let dir = std::env::temp_dir().join("charfree-cli-test3");
                fs::create_dir_all(&dir).expect("tmp dir");
                let netlist_path = dir.join("cm85.blif");
                let model_path = dir.join("cm85.cfm");
                let netlist = run(&s(&["bench", "cm85"])).expect("bench");
                fs::write(&netlist_path, netlist).expect("write");
                run(&s(&[
                    "model",
                    netlist_path.to_str().expect("utf8"),
                    "-o",
                    model_path.to_str().expect("utf8"),
                    "--max",
                    "200",
                ]))
                .expect("model builds");
                model_path
            })
            .clone()
    }

    /// `expected` on a grouped-ordering `.cfm` is a typed error (exit 1),
    /// not a panic: the layout does not load.
    #[test]
    fn expected_on_a_grouped_ordering_model_is_a_typed_error() {
        let dir = std::env::temp_dir().join(format!("charfree-cli-grouped-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("tmp dir");
        let netlist = charfree_netlist::benchmarks::by_name("decod", &Library::test_library())
            .expect("Table 1 name");
        let model = charfree_core::ModelBuilder::new(&netlist).build();
        let mut cfm = Vec::new();
        model.save(&mut cfm).expect("saves");
        let text = String::from_utf8(cfm).expect("text format");
        let path = dir.join("decod_grouped.cfm");
        fs::write(
            &path,
            text.replacen("ordering interleaved", "ordering grouped", 1),
        )
        .expect("writes model");
        let err = run(&s(&["expected", path.to_str().expect("utf8")]))
            .expect_err("the grouped layout does not load");
        assert!(err.contains("interleaved"), "{err}");
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn expected_subcommand_is_monotone_in_activity() {
        let model_path = model_file();
        let low = run(&s(&[
            "expected",
            model_path.to_str().expect("utf8"),
            "--st",
            "0.1",
        ]))
        .expect("expected runs");
        let high = run(&s(&[
            "expected",
            model_path.to_str().expect("utf8"),
            "--st",
            "0.8",
        ]))
        .expect("expected runs");
        let grab = |text: &str| -> f64 {
            text.split(':')
                .nth(1)
                .expect("value present")
                .split_whitespace()
                .next()
                .expect("number")
                .parse()
                .expect("parses")
        };
        assert!(grab(&high) > grab(&low), "more activity, more power");
    }

    /// A model is one `.cfm` file: `eval`, `trace` and `expected` read it
    /// straight into a kernel and report exactly what they report from
    /// the netlist. `--kernel` is gone, and a `.cfk` operand is parsed
    /// as a netlist, which it is not: a typed error.
    #[test]
    fn model_file_is_the_one_evaluation_artifact() {
        let dir = std::env::temp_dir().join("charfree-cli-test-one-artifact");
        fs::create_dir_all(&dir).expect("tmp dir");
        let netlist_path = dir.join("decod.blif");
        let model_path = dir.join("decod.cfm");
        fs::write(&netlist_path, run(&s(&["bench", "decod"])).expect("bench")).expect("write");
        let npath = netlist_path.to_str().expect("utf8");
        let mpath = model_path.to_str().expect("utf8");
        run(&s(&["model", npath, "-o", mpath])).expect("model runs");
        for cmd in [
            &["eval", "--vectors", "400"][..],
            &["trace", "--vectors", "200"][..],
            &["expected", "--st", "0.3"][..],
        ] {
            let (name, flags) = cmd.split_first().expect("non-empty");
            let mut from_model = vec![name.to_string(), mpath.to_owned()];
            let mut from_netlist = vec![name.to_string(), npath.to_owned()];
            from_model.extend(flags.iter().map(|f| f.to_string()));
            from_netlist.extend(flags.iter().map(|f| f.to_string()));
            assert_eq!(
                run(&from_model).expect("model input runs"),
                run(&from_netlist).expect("netlist input runs"),
                "`{name}` diverged between .cfm and netlist inputs"
            );
        }

        let err = run(&s(&["model", npath, "-o", mpath, "--kernel"])).expect_err("no --kernel");
        assert!(err.contains("unexpected argument `--kernel`"), "{err}");
        let kernel_path = dir.join("decod.cfk");
        let mut kernel = Vec::new();
        let model = charfree_core::AddPowerModel::load(
            fs::read(&model_path).expect("model written").as_slice(),
        )
        .expect("model loads");
        charfree_engine::Kernel::compile(&model)
            .save(&mut kernel)
            .expect("saves");
        fs::write(&kernel_path, kernel).expect("write");
        let kpath = kernel_path.to_str().expect("utf8");
        for cmd in ["eval", "trace", "expected"] {
            let err = run(&s(&[cmd, kpath])).expect_err("a .cfk is not a netlist");
            assert!(err.contains(kpath), "{cmd}: {err}");
        }
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn trace_is_deterministic_across_jobs() {
        let model_path = model_file();
        let path = model_path.to_str().expect("utf8");
        let one = run(&s(&["trace", path, "--vectors", "600", "--jobs", "1"])).expect("trace -j1");
        let eight =
            run(&s(&["trace", path, "--vectors", "600", "--jobs", "8"])).expect("trace -j8");
        assert_eq!(one, eight, "worker count must not change the trace");
    }

    #[test]
    fn operands_accept_bench_names_directly() {
        // The pipeline's source inference makes every build/eval command
        // take netlists and benchmark names, not just saved artifacts.
        let report = run(&s(&["eval", "decod", "--vectors", "200"])).expect("eval on bench");
        assert!(report.contains("model `decod`"), "{report}");
        let report = run(&s(&["datasheet", "decod"])).expect("datasheet on bench");
        assert!(report.contains("worst-case"), "{report}");
        let report = run(&s(&["expected", "decod", "--st", "0.4"])).expect("expected on bench");
        assert!(report.contains("fF/cycle"), "{report}");
    }

    #[test]
    fn cache_dir_makes_warm_runs_byte_identical() {
        let dir = std::env::temp_dir().join("charfree-cli-test-cache");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("tmp dir");
        let cache = dir.join("store");
        let cache = cache.to_str().expect("utf8");

        let eval = |tag: &str| {
            run(&s(&[
                "eval",
                "decod",
                "--vectors",
                "300",
                "--cache-dir",
                cache,
            ]))
            .unwrap_or_else(|e| panic!("{tag} eval: {e}"))
        };
        let cold = eval("cold");
        // The store now holds the one artifact, the model file...
        let entries: Vec<_> = fs::read_dir(cache)
            .expect("store created")
            .filter_map(Result::ok)
            .map(|e| e.path())
            .collect();
        assert_eq!(entries.len(), 1, "{entries:?}");
        assert!(entries[0].extension().is_some_and(|e| e == "cfm"));
        // ...and a warm run reproduces stdout byte for byte.
        assert_eq!(cold, eval("warm"));

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn telemetry_flag_is_validated() {
        assert!(run(&s(&[
            "eval",
            "decod",
            "--vectors",
            "200",
            "--telemetry",
            "json"
        ]))
        .is_ok());
        let err = run(&s(&["eval", "decod", "--telemetry", "xml"])).expect_err("bad format");
        assert!(err.contains("telemetry"), "{err}");
    }

    #[test]
    fn trace_subcommand_emits_csv() {
        let model_path = model_file();
        let csv = run(&s(&[
            "trace",
            model_path.to_str().expect("utf8"),
            "--vectors",
            "64",
        ]))
        .expect("trace runs");
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 64); // header + 63 transitions
        assert!(lines[0].starts_with("cycle,"));

        // File output variant.
        let out = std::env::temp_dir().join("charfree-cli-test3/trace.csv");
        let report = run(&s(&[
            "trace",
            model_path.to_str().expect("utf8"),
            "--vectors",
            "64",
            "-o",
            out.to_str().expect("utf8"),
        ]))
        .expect("trace writes");
        assert!(report.contains("wrote"));
        assert!(fs::read_to_string(&out)
            .expect("written")
            .starts_with("cycle,"));
    }
}
