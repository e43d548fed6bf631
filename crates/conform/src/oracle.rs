//! The differential oracle: one circuit, one pattern trace, every stack
//! layer — all answers bit-compared.
//!
//! Layer lattice (everything below the first row must agree **bit for
//! bit**; the bracket rows are one-sided):
//!
//! ```text
//! golden zero-delay sim  ≡  exact ADD walk  ≡  kernel (scalar, 1 job,
//!     N jobs)  ≡  pipeline cold build  ≡  pipeline warm reload
//!     ≡  charfree-serve trace round trip
//! unit-delay switched    ≥  golden zero-delay   (glitches only add)
//! upper-bound collapse   ≥  golden, pointwise
//! average collapse       ≈  golden global average (paper-plain config,
//!                           terminal-quantization tolerance)
//! ```
//!
//! Sequential designs get their own lattice
//! ([`Oracle::check_seq_text`] / [`Oracle::check_seq_case`]): golden
//! cycle-stepped sim ≡ per-macro unfused kernels ≡ fused single-pass
//! evaluation ≡ pipeline warm reload (zero apply steps) ≡ served
//! `seqeval` over both wire protocols, all f64 bit-exact, per macro and
//! for the whole-design fold.

use std::fs;
use std::path::PathBuf;

use charfree_core::{ApproxStrategy, ModelBuilder, PowerModel};
use charfree_engine::{Kernel, TraceEngine};
use charfree_netlist::{blif, Library, Netlist};
use charfree_pipeline::{ArtifactStore, PipelineCtx, Source};
use charfree_seq::{SeqModel, SeqSummary};
use charfree_serve::{
    Client, Proto, Request, Response, ServeConfig, Server, WireBuildOptions, WireEvalParams,
};
use charfree_sim::{MarkovSource, UnitDelaySim, ZeroDelaySim};

use crate::gen::CircuitSpec;

/// Slack for one-sided float comparisons (dominance and upper bounds are
/// mathematically exact; the slack only absorbs summation-order noise).
const SLACK_FF: f64 = 1e-9;

/// A layer disagreement, with enough detail to debug without rerunning.
#[derive(Debug, Clone)]
pub struct Mismatch {
    /// Which oracle layer diverged.
    pub layer: &'static str,
    /// Human-readable diagnostics (transition index, both values, ...).
    pub detail: String,
}

impl std::fmt::Display for Mismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.layer, self.detail)
    }
}

fn mismatch(layer: &'static str, detail: impl Into<String>) -> Mismatch {
    Mismatch {
        layer,
        detail: detail.into(),
    }
}

/// Markov pattern-stream parameters for one case.
#[derive(Debug, Clone, Copy)]
pub struct CaseParams {
    /// Signal probability (`0 < sp < 1`).
    pub sp: f64,
    /// Transition probability (`0 ≤ st ≤ 2·min(sp, 1−sp)`).
    pub st: f64,
    /// Markov-source seed.
    pub seed: u64,
    /// Sequence length (at least 2 patterns are generated).
    pub vectors: usize,
}

/// What a successful full-stack check observed (fed back into the run
/// report and reused by the serve layer).
#[derive(Debug)]
pub struct CheckOutcome {
    /// Transitions compared per layer.
    pub transitions: usize,
    /// The agreed per-transition kernel trace, in femtofarads.
    pub kernel_trace: Vec<f64>,
}

/// The cross-layer differential oracle. Owns a scratch directory (case
/// netlist files + the pipeline artifact store) and, lazily, one live
/// in-process `charfree-serve` instance reused across cases.
pub struct Oracle {
    library: Library,
    workdir: PathBuf,
    with_serve: bool,
    /// One live server plus a JSON and a binary client against it, so
    /// every case round-trips through *both* wire protocols.
    serve: Option<(Server, Client, Client)>,
    /// Cases checked so far (also salts case file names).
    pub cases: usize,
    /// Transitions bit-compared so far, summed over cases and layers.
    pub transitions: u64,
}

impl std::fmt::Debug for Oracle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Oracle")
            .field("workdir", &self.workdir)
            .field("with_serve", &self.with_serve)
            .field("cases", &self.cases)
            .finish()
    }
}

impl Oracle {
    /// Creates an oracle with scratch state under `workdir` (created if
    /// missing). `with_serve` additionally routes every case through a
    /// live server round trip.
    ///
    /// # Errors
    ///
    /// Scratch-directory I/O failures.
    pub fn new(workdir: impl Into<PathBuf>, with_serve: bool) -> Result<Oracle, String> {
        let workdir = workdir.into();
        fs::create_dir_all(workdir.join("cases"))
            .map_err(|e| format!("creating {}: {e}", workdir.display()))?;
        Ok(Oracle {
            library: Library::test_library(),
            workdir,
            with_serve,
            serve: None,
            cases: 0,
            transitions: 0,
        })
    }

    /// The cell library every layer builds against.
    pub fn library(&self) -> &Library {
        &self.library
    }

    fn cache_dir(&self) -> PathBuf {
        self.workdir.join("cache")
    }

    fn case_path(&self, name: &str) -> PathBuf {
        self.workdir.join("cases").join(format!("{name}.blif"))
    }

    fn clients(&mut self) -> Result<(&mut Client, &mut Client), String> {
        if self.serve.is_none() {
            let mut config = ServeConfig::new(self.library.clone());
            config.addr = "127.0.0.1:0".to_owned();
            config.log = false;
            config.jobs = 2;
            config.cache_dir = Some(self.workdir.join("serve-cache"));
            let server = Server::start(config).map_err(|e| format!("server start: {e}"))?;
            let addr = server.addr().to_string();
            let json =
                Client::connect_with(&addr, Proto::Json).map_err(|e| format!("connect: {e}"))?;
            let binary = Client::connect_with(&addr, Proto::Binary)
                .map_err(|e| format!("binary connect: {e}"))?;
            self.serve = Some((server, json, binary));
        }
        match &mut self.serve {
            Some((_, json, binary)) => Ok((json, binary)),
            None => Err("server unavailable".to_owned()),
        }
    }

    /// Drains the live server (if one was started). Call at the end of a
    /// run; dropping without finishing leaks the server threads until
    /// process exit, which is harmless for one-shot CLI runs.
    pub fn finish(mut self) {
        if let Some((server, mut client, binary)) = self.serve.take() {
            drop(binary);
            let _ = client.request(&Request::Shutdown);
            server.wait();
        }
    }

    /// Generates the Markov pattern trace for `spec` under `params` —
    /// exactly the sequence the server regenerates for the same
    /// `(vectors, sp, st, seed)`, which is what makes the serve layer
    /// bit-comparable.
    pub fn patterns_for(
        &self,
        spec: &CircuitSpec,
        params: &CaseParams,
    ) -> Result<Vec<Vec<bool>>, String> {
        let mut source = MarkovSource::new(spec.num_inputs, params.sp, params.st, params.seed)
            .map_err(|e| e.to_string())?;
        Ok(source.sequence(params.vectors.max(2)))
    }

    /// Full check of one generated spec: all local layers plus (when
    /// enabled) the live-server round trip.
    ///
    /// # Errors
    ///
    /// The first layer mismatch found.
    pub fn check_spec(
        &mut self,
        case_name: &str,
        spec: &CircuitSpec,
        params: &CaseParams,
    ) -> Result<CheckOutcome, Mismatch> {
        let netlist = spec
            .build(&self.library)
            .map_err(|e| mismatch("spec-build", e))?;
        let text = blif::write(&netlist);
        let patterns = self
            .patterns_for(spec, params)
            .map_err(|e| mismatch("params", e))?;
        let outcome = self.check_text(case_name, &text, &patterns)?;
        if self.with_serve {
            self.check_serve(case_name, params, &patterns, &outcome)?;
        }
        Ok(outcome)
    }

    /// Local-layer check of a circuit given directly as netlist text and
    /// an explicit pattern trace (the entry point shrinking and corpus
    /// replay use — explicit patterns cannot be replayed through the
    /// server, which generates its own from a seed).
    ///
    /// # Errors
    ///
    /// The first layer mismatch found.
    pub fn check_text(
        &mut self,
        case_name: &str,
        text: &str,
        patterns: &[Vec<bool>],
    ) -> Result<CheckOutcome, Mismatch> {
        // Layer 0: the real parser is in the loop.
        let mut netlist =
            blif::parse(text).map_err(|e| mismatch("parse", format!("{case_name}: {e}")))?;
        netlist.annotate_loads(&self.library);
        if patterns.len() < 2 {
            return Err(mismatch("params", "need at least 2 patterns"));
        }
        for (i, p) in patterns.iter().enumerate() {
            if p.len() != netlist.num_inputs() {
                return Err(mismatch(
                    "params",
                    format!(
                        "pattern {i} has {} bits, circuit has {} inputs",
                        p.len(),
                        netlist.num_inputs()
                    ),
                ));
            }
        }
        let transitions = patterns.len() - 1;

        // Layer 1: golden zero-delay gate-level simulation (Eqs. 2-3).
        let sim = ZeroDelaySim::new(&netlist);
        let golden: Vec<f64> = (0..transitions)
            .map(|t| {
                sim.switching_capacitance(&patterns[t], &patterns[t + 1])
                    .femtofarads()
            })
            .collect();

        // Layer 2: the exact uncollapsed ADD walk (Eq. 4) must reproduce
        // the golden model bit for bit.
        let model = ModelBuilder::new(&netlist).build();
        if !model.report().exact {
            return Err(mismatch(
                "exact-build",
                format!("{case_name}: unconstrained build was not exact"),
            ));
        }
        for t in 0..transitions {
            let add = model
                .capacitance(&patterns[t], &patterns[t + 1])
                .femtofarads();
            if add.to_bits() != golden[t].to_bits() {
                return Err(mismatch(
                    "add-vs-golden",
                    format!(
                        "{case_name}: transition {t}: ADD {add} vs golden {}",
                        golden[t]
                    ),
                ));
            }
        }

        // Layer 3: the compiled kernel — scalar walk, then batched traces
        // with 1 and 4 workers (jobs-invariance included).
        let kernel = Kernel::compile(&model);
        for t in 0..transitions {
            let scalar = kernel.eval_transition(&patterns[t], &patterns[t + 1]);
            if scalar.to_bits() != golden[t].to_bits() {
                return Err(mismatch(
                    "kernel-scalar",
                    format!(
                        "{case_name}: transition {t}: kernel {scalar} vs golden {}",
                        golden[t]
                    ),
                ));
            }
        }
        let trace1 = TraceEngine::new(&kernel).jobs(1).trace(patterns);
        let trace4 = TraceEngine::new(&kernel).jobs(4).trace(patterns);
        for t in 0..transitions {
            if trace1[t].to_bits() != golden[t].to_bits() {
                return Err(mismatch(
                    "kernel-batch",
                    format!(
                        "{case_name}: transition {t}: batch {} vs golden {}",
                        trace1[t], golden[t]
                    ),
                ));
            }
            if trace4[t].to_bits() != trace1[t].to_bits() {
                return Err(mismatch(
                    "kernel-jobs",
                    format!(
                        "{case_name}: transition {t}: jobs=4 {} vs jobs=1 {}",
                        trace4[t], trace1[t]
                    ),
                ));
            }
        }

        // Layer 4: the staged pipeline, cold then warm through the
        // content-addressed store — the warm reload must do zero symbolic
        // work and still answer identically.
        self.check_pipeline(case_name, text, patterns, &golden)?;

        // Layer 5: unit-delay dominance — real (glitchy) switching can
        // only add capacitance on top of the zero-delay functional part.
        let unit = UnitDelaySim::new(&netlist);
        for t in 0..transitions {
            let report = unit
                .try_simulate_transition(&patterns[t], &patterns[t + 1])
                .map_err(|e| mismatch("unit-delay", format!("{case_name}: transition {t}: {e}")))?;
            if report.switched.femtofarads() < golden[t] - SLACK_FF {
                return Err(mismatch(
                    "unit-delay",
                    format!(
                        "{case_name}: transition {t}: unit-delay {} < zero-delay {}",
                        report.switched.femtofarads(),
                        golden[t]
                    ),
                ));
            }
            if report.glitch.femtofarads() < -SLACK_FF {
                return Err(mismatch(
                    "unit-delay",
                    format!(
                        "{case_name}: transition {t}: negative glitch {}",
                        report.glitch.femtofarads()
                    ),
                ));
            }
        }

        // Bracket layers: collapsed models around the exact answer.
        self.check_brackets(case_name, &netlist, &model, patterns, &golden)?;

        self.cases += 1;
        self.transitions += transitions as u64;
        Ok(CheckOutcome {
            transitions,
            kernel_trace: trace1,
        })
    }

    fn check_pipeline(
        &mut self,
        case_name: &str,
        text: &str,
        patterns: &[Vec<bool>],
        golden: &[f64],
    ) -> Result<(), Mismatch> {
        let path = self.case_path(case_name);
        fs::write(&path, text)
            .map_err(|e| mismatch("pipeline-cold", format!("{}: {e}", path.display())))?;
        let source = Source::infer(&path.display().to_string());

        let cold_trace = {
            let mut ctx = PipelineCtx::new(self.library.clone())
                .with_store(ArtifactStore::new(self.cache_dir()));
            let kernel = ctx
                .kernel_for(&source)
                .map_err(|e| mismatch("pipeline-cold", format!("{case_name}: {e}")))?;
            ctx.trace(&kernel, patterns, 1)
        };
        for (t, (&got, &want)) in cold_trace.iter().zip(golden).enumerate() {
            if got.to_bits() != want.to_bits() {
                return Err(mismatch(
                    "pipeline-cold",
                    format!("{case_name}: transition {t}: pipeline {got} vs golden {want}"),
                ));
            }
        }

        // A fresh context over the same store must reload without a
        // single ADD apply step, bit-identically.
        let mut warm =
            PipelineCtx::new(self.library.clone()).with_store(ArtifactStore::new(self.cache_dir()));
        let kernel = warm
            .kernel_for(&source)
            .map_err(|e| mismatch("pipeline-warm", format!("{case_name}: {e}")))?;
        if warm.apply_steps() != 0 {
            return Err(mismatch(
                "pipeline-warm",
                format!(
                    "{case_name}: warm reload performed {} apply steps (expected 0)",
                    warm.apply_steps()
                ),
            ));
        }
        let warm_trace = warm.trace(&kernel, patterns, 1);
        for (t, (&got, &want)) in warm_trace.iter().zip(golden).enumerate() {
            if got.to_bits() != want.to_bits() {
                return Err(mismatch(
                    "pipeline-warm",
                    format!("{case_name}: transition {t}: warm {got} vs golden {want}"),
                ));
            }
        }
        Ok(())
    }

    fn check_brackets(
        &self,
        case_name: &str,
        netlist: &Netlist,
        exact: &charfree_core::AddPowerModel,
        patterns: &[Vec<bool>],
        golden: &[f64],
    ) -> Result<(), Mismatch> {
        let total_ff = netlist.total_load().femtofarads();
        let budget = (exact.size() / 2).max(4);

        // Upper-bound collapse: pointwise conservative, physically sane.
        let upper = ModelBuilder::new(netlist)
            .max_nodes(budget)
            .strategy(ApproxStrategy::UpperBound)
            .build();
        for t in 0..golden.len() {
            let b = upper
                .capacitance(&patterns[t], &patterns[t + 1])
                .femtofarads();
            if b < golden[t] - SLACK_FF {
                return Err(mismatch(
                    "bracket-upper",
                    format!(
                        "{case_name}: transition {t}: upper bound {b} < exact {}",
                        golden[t]
                    ),
                ));
            }
        }

        // Average collapse in the paper-plain configuration preserves the
        // global average up to the builder's terminal-quantization grid
        // (Section 3.1 invariant; same tolerance the property suite uses).
        let avg = ModelBuilder::new(netlist)
            .max_nodes(budget)
            .collapse_toggles(&[0.5])
            .leaf_recalibration(false)
            .diagonal_gating(false)
            .build();
        let tolerance = total_ff / 8192.0;
        let delta = (avg.average_capacitance().femtofarads()
            - exact.average_capacitance().femtofarads())
        .abs();
        if delta > tolerance {
            return Err(mismatch(
                "bracket-average",
                format!(
                    "{case_name}: collapsed average drifted by {delta} fF (tolerance {tolerance})"
                ),
            ));
        }

        // Any collapsed prediction stays within physical limits.
        for t in 0..golden.len() {
            let c = avg
                .capacitance(&patterns[t], &patterns[t + 1])
                .femtofarads();
            if !(0.0..=total_ff + SLACK_FF).contains(&c) {
                return Err(mismatch(
                    "physical-range",
                    format!(
                        "{case_name}: transition {t}: collapsed prediction {c} outside [0, {total_ff}]"
                    ),
                ));
            }
        }
        Ok(())
    }

    /// Live-server layer: the same case answered over the JSON line
    /// protocol, over the binary frame protocol, and over a binary
    /// explicit-pattern trace — all three must match the local kernel
    /// trace **bit for bit** (the "binary ≡ JSON" invariant on the wire).
    fn check_serve(
        &mut self,
        case_name: &str,
        params: &CaseParams,
        patterns: &[Vec<bool>],
        outcome: &CheckOutcome,
    ) -> Result<(), Mismatch> {
        let path = self.case_path(case_name).display().to_string();
        let seeded = Request::Trace {
            source: path.clone(),
            options: WireBuildOptions::default(),
            params: WireEvalParams {
                vectors: params.vectors.max(2),
                sp: params.sp,
                st: params.st,
                seed: params.seed,
                deadline_ms: None,
            },
        };
        let direct = Request::TraceDirect {
            source: path,
            options: WireBuildOptions::default(),
            patterns: patterns.to_vec(),
            deadline_ms: None,
        };
        self.check_serve_one(case_name, "serve-json", false, &seeded, outcome)?;
        self.check_serve_one(case_name, "serve-binary", true, &seeded, outcome)?;
        self.check_serve_one(case_name, "serve-binary-direct", true, &direct, outcome)
    }

    fn check_serve_one(
        &mut self,
        case_name: &str,
        layer: &'static str,
        binary: bool,
        request: &Request,
        outcome: &CheckOutcome,
    ) -> Result<(), Mismatch> {
        let (json_client, binary_client) = self.clients().map_err(|e| mismatch(layer, e))?;
        let client = if binary { binary_client } else { json_client };
        let response = client
            .request(request)
            .map_err(|e| mismatch(layer, format!("{case_name}: {e}")))?;
        let values = match response {
            Response::Trace { values, .. } => values,
            Response::Error { kind, message, .. } => {
                return Err(mismatch(
                    layer,
                    format!("{case_name}: server error {}: {message}", kind.name()),
                ));
            }
            other => {
                return Err(mismatch(
                    layer,
                    format!("{case_name}: unexpected response {other:?}"),
                ));
            }
        };
        if values.len() != outcome.kernel_trace.len() {
            return Err(mismatch(
                layer,
                format!(
                    "{case_name}: served {} transitions, local trace has {}",
                    values.len(),
                    outcome.kernel_trace.len()
                ),
            ));
        }
        for (t, (&got, &want)) in values.iter().zip(&outcome.kernel_trace).enumerate() {
            if got.to_bits() != want.to_bits() {
                return Err(mismatch(
                    layer,
                    format!("{case_name}: transition {t}: served {got} vs local {want}"),
                ));
            }
        }
        Ok(())
    }

    /// Local sequential lattice over an explicit pattern trace (the
    /// entry point corpus replay uses — the sequential analogue of
    /// [`Oracle::check_text`]): golden cycle-stepped sim ≡ fused ≡
    /// unfused (1 and 4 jobs) ≡ whole-design fold ≡ warm reload through
    /// the content-addressed store with zero apply steps.
    ///
    /// # Errors
    ///
    /// The first layer mismatch found.
    pub fn check_seq_text(
        &mut self,
        case_name: &str,
        text: &str,
        patterns: &[Vec<bool>],
    ) -> Result<CheckOutcome, Mismatch> {
        self.check_seq_local(case_name, text, patterns)
            .map(|(outcome, _)| outcome)
    }

    /// Full sequential check of a BLIF design: the local lattice on a
    /// seeded Markov trace plus (when enabled) `seqload`/`seqeval`
    /// round trips over both wire protocols, bit-compared per macro and
    /// on the whole-design reduction.
    ///
    /// # Errors
    ///
    /// The first layer mismatch found.
    pub fn check_seq_case(
        &mut self,
        case_name: &str,
        text: &str,
        params: &CaseParams,
    ) -> Result<CheckOutcome, Mismatch> {
        // The seeded trace is exactly what the server regenerates for
        // the same (vectors, sp, st, seed) — that makes the serve layer
        // bit-comparable, just like the combinational path.
        let seq = blif::parse_seq(text)
            .map_err(|e| mismatch("seq-parse", format!("{case_name}: {e}")))?;
        let mut source = MarkovSource::new(seq.num_inputs(), params.sp, params.st, params.seed)
            .map_err(|e| mismatch("params", format!("{case_name}: {e}")))?;
        let patterns = source.sequence(params.vectors.max(2));
        let (outcome, summary) = self.check_seq_local(case_name, text, &patterns)?;
        if self.with_serve {
            self.check_seq_serve(case_name, text, params, &summary)?;
        }
        Ok(outcome)
    }

    fn check_seq_local(
        &mut self,
        case_name: &str,
        text: &str,
        patterns: &[Vec<bool>],
    ) -> Result<(CheckOutcome, SeqSummary), Mismatch> {
        // Layer 0: the real `.latch` parser is in the loop.
        let seq = blif::parse_seq(text)
            .map_err(|e| mismatch("seq-parse", format!("{case_name}: {e}")))?;
        if patterns.len() < 2 {
            return Err(mismatch("params", "need at least 2 patterns"));
        }
        for (i, p) in patterns.iter().enumerate() {
            if p.len() != seq.num_inputs() {
                return Err(mismatch(
                    "params",
                    format!(
                        "pattern {i} has {} bits, design has {} inputs",
                        p.len(),
                        seq.num_inputs()
                    ),
                ));
            }
        }
        let transitions = patterns.len() - 1;

        // Layer 1: cold build — one kernel per register-bounded macro
        // through the content-addressed store.
        let mut ctx =
            PipelineCtx::new(self.library.clone()).with_store(ArtifactStore::new(self.cache_dir()));
        let model = SeqModel::build(&mut ctx, seq)
            .map_err(|e| mismatch("seq-build", format!("{case_name}: {e}")))?;

        // Layer 2: golden cycle-stepped simulation, per macro — the
        // fused single-pass evaluation must reproduce it bit for bit.
        let golden = model.sim().macro_switching_traces(patterns);
        let fused = model.trace_fused(patterns);
        for (m, (kernel_vals, golden_vals)) in fused.iter().zip(&golden).enumerate() {
            for (t, (a, g)) in kernel_vals.iter().zip(golden_vals).enumerate() {
                if a.to_bits() != g.femtofarads().to_bits() {
                    return Err(mismatch(
                        "seq-fused",
                        format!(
                            "{case_name}: macro {m} cycle {t}: fused {a} vs golden {}",
                            g.femtofarads()
                        ),
                    ));
                }
            }
        }

        // Layer 3: the unfused path (independent per-macro TraceEngine
        // runs, jobs-invariance included) agrees with fused.
        for jobs in [1usize, 4] {
            let unfused = model.trace_unfused(patterns, jobs);
            for (m, (f, u)) in fused.iter().zip(&unfused).enumerate() {
                for (t, (a, b)) in f.iter().zip(u).enumerate() {
                    if a.to_bits() != b.to_bits() {
                        return Err(mismatch(
                            "seq-unfused",
                            format!(
                                "{case_name}: macro {m} cycle {t}: jobs={jobs} unfused {b} vs fused {a}"
                            ),
                        ));
                    }
                }
            }
        }

        // Layer 4: the whole-design fold (macro index order) matches the
        // golden sim's own total trace.
        let total = SeqModel::fold_total(transitions, &fused);
        let golden_total = model.sim().switching_trace(patterns);
        for (t, (a, g)) in total.iter().zip(&golden_total).enumerate() {
            if a.to_bits() != g.femtofarads().to_bits() {
                return Err(mismatch(
                    "seq-fold",
                    format!(
                        "{case_name}: cycle {t}: macro fold {a} vs golden total {}",
                        g.femtofarads()
                    ),
                ));
            }
        }

        // Layer 5: warm reload — a fresh context over the same store
        // must rebuild every macro cone without a single apply step and
        // still answer identically.
        let seq = blif::parse_seq(text)
            .map_err(|e| mismatch("seq-parse", format!("{case_name}: {e}")))?;
        let mut warm_ctx =
            PipelineCtx::new(self.library.clone()).with_store(ArtifactStore::new(self.cache_dir()));
        let warm = SeqModel::build(&mut warm_ctx, seq)
            .map_err(|e| mismatch("seq-warm", format!("{case_name}: {e}")))?;
        if warm.build_report().apply_steps != 0 {
            return Err(mismatch(
                "seq-warm",
                format!(
                    "{case_name}: warm reload performed {} apply steps (expected 0)",
                    warm.build_report().apply_steps
                ),
            ));
        }
        let warm_fused = warm.trace_fused(patterns);
        for (m, (f, w)) in fused.iter().zip(&warm_fused).enumerate() {
            for (t, (a, b)) in f.iter().zip(w).enumerate() {
                if a.to_bits() != b.to_bits() {
                    return Err(mismatch(
                        "seq-warm",
                        format!("{case_name}: macro {m} cycle {t}: warm {b} vs cold {a}"),
                    ));
                }
            }
        }

        self.cases += 1;
        self.transitions += (transitions * (model.num_macros() + 1)) as u64;
        let summary = model.eval_fused(patterns);
        Ok((
            CheckOutcome {
                transitions,
                kernel_trace: total,
            },
            summary,
        ))
    }

    /// Served sequential layer: `seqload` then `seqeval` over the JSON
    /// and binary protocols; the reductions (whole-design and per-macro)
    /// must be bit-identical to the local fused evaluation.
    fn check_seq_serve(
        &mut self,
        case_name: &str,
        text: &str,
        params: &CaseParams,
        local: &SeqSummary,
    ) -> Result<(), Mismatch> {
        let path = self.case_path(case_name);
        fs::write(&path, text)
            .map_err(|e| mismatch("seq-serve", format!("{}: {e}", path.display())))?;
        let source = path.display().to_string();
        let layers: [(&'static str, bool); 2] =
            [("seq-serve-json", false), ("seq-serve-binary", true)];
        for (layer, binary) in layers {
            let (json_client, binary_client) = self.clients().map_err(|e| mismatch(layer, e))?;
            let client = if binary { binary_client } else { json_client };
            let load = client
                .request(&Request::SeqLoad {
                    source: source.clone(),
                    options: WireBuildOptions::default(),
                })
                .map_err(|e| mismatch(layer, format!("{case_name}: {e}")))?;
            match load {
                Response::SeqLoad { macros, .. } => {
                    if macros != local.per_macro.len() {
                        return Err(mismatch(
                            layer,
                            format!(
                                "{case_name}: server partitioned {macros} macros, local has {}",
                                local.per_macro.len()
                            ),
                        ));
                    }
                }
                other => {
                    return Err(mismatch(
                        layer,
                        format!("{case_name}: unexpected seqload response {other:?}"),
                    ));
                }
            }
            let eval = client
                .request(&Request::SeqEval {
                    source: source.clone(),
                    options: WireBuildOptions::default(),
                    params: WireEvalParams {
                        vectors: params.vectors.max(2),
                        sp: params.sp,
                        st: params.st,
                        seed: params.seed,
                        deadline_ms: None,
                    },
                })
                .map_err(|e| mismatch(layer, format!("{case_name}: {e}")))?;
            let (transitions, sum_ff, max_ff, macros) = match eval {
                Response::SeqEval {
                    transitions,
                    sum_ff,
                    max_ff,
                    macros,
                    ..
                } => (transitions, sum_ff, max_ff, macros),
                other => {
                    return Err(mismatch(
                        layer,
                        format!("{case_name}: unexpected seqeval response {other:?}"),
                    ));
                }
            };
            if transitions != local.total.transitions
                || sum_ff.to_bits() != local.total.sum_ff.to_bits()
                || max_ff.to_bits() != local.total.max_ff.to_bits()
            {
                return Err(mismatch(
                    layer,
                    format!(
                        "{case_name}: served total ({transitions} cycles, sum {sum_ff}, max {max_ff}) \
                         vs local ({} cycles, sum {}, max {})",
                        local.total.transitions, local.total.sum_ff, local.total.max_ff
                    ),
                ));
            }
            if macros.len() != local.per_macro.len() {
                return Err(mismatch(
                    layer,
                    format!(
                        "{case_name}: served {} macro summaries, local has {}",
                        macros.len(),
                        local.per_macro.len()
                    ),
                ));
            }
            for (served, local_macro) in macros.iter().zip(&local.per_macro) {
                if served.name != local_macro.name
                    || served.sum_ff.to_bits() != local_macro.summary.sum_ff.to_bits()
                    || served.max_ff.to_bits() != local_macro.summary.max_ff.to_bits()
                {
                    return Err(mismatch(
                        layer,
                        format!(
                            "{case_name}: served macro `{}` (sum {}, max {}) vs local `{}` (sum {}, max {})",
                            served.name,
                            served.sum_ff,
                            served.max_ff,
                            local_macro.name,
                            local_macro.summary.sum_ff,
                            local_macro.summary.max_ff
                        ),
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::GenConfig;

    fn tmpdir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("charfree-conform-{}-{tag}", std::process::id()))
    }

    #[test]
    fn oracle_accepts_a_known_good_case() {
        let dir = tmpdir("oracle-ok");
        let mut oracle = Oracle::new(&dir, false).expect("workdir");
        let spec = CircuitSpec::random(
            "ok",
            3,
            &GenConfig {
                num_inputs: 5,
                num_gates: 10,
                window: 6,
            },
        );
        let params = CaseParams {
            sp: 0.5,
            st: 0.4,
            seed: 11,
            vectors: 24,
        };
        let outcome = oracle
            .check_spec("ok", &spec, &params)
            .expect("all layers agree");
        assert_eq!(outcome.transitions, 23);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn oracle_accepts_a_sequential_case() {
        let dir = tmpdir("oracle-seq");
        let mut oracle = Oracle::new(&dir, false).expect("workdir");
        let text = crate::gen::seq_blif(
            "sq",
            5,
            &crate::gen::SeqGenConfig {
                num_inputs: 3,
                stages: 2,
                gates_per_stage: 4,
                latches_per_stage: 1,
            },
        );
        let params = CaseParams {
            sp: 0.5,
            st: 0.4,
            seed: 21,
            vectors: 24,
        };
        let outcome = oracle
            .check_seq_case("sq", &text, &params)
            .expect("sequential lattice agrees");
        assert_eq!(outcome.transitions, 23);
        assert_eq!(oracle.cases, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn oracle_rejects_a_corrupted_trace() {
        let dir = tmpdir("oracle-bad");
        let mut oracle = Oracle::new(&dir, false).expect("workdir");
        let spec = CircuitSpec::parity_tree(4);
        let netlist = spec.build(oracle.library()).expect("builds");
        let text = blif::write(&netlist);
        // A width-violating pattern trace must be a typed params mismatch,
        // not a panic.
        let bad = vec![vec![true; 3], vec![false; 3]];
        let err = oracle.check_text("bad", &text, &bad).expect_err("width");
        assert_eq!(err.layer, "params");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
