//! # charfree-pipeline — one typed build/eval path for the workspace
//!
//! The paper's flow is inherently staged — netlist → symbolic ADD
//! construction (Fig. 6) → collapse (Eqs. 5–8) → kernel compile →
//! evaluation — and every consumer used to re-wire that chain by hand.
//! This crate gives the chain one home:
//!
//! * [`PipelineCtx`] — the shared run context: cell library, build
//!   options (threading the `charfree-dd` budget knobs), an
//!   optional content-addressed [`ArtifactStore`], a structured
//!   [`Telemetry`] sink and an [`ApplyStats`] counter proving how much
//!   symbolic work a run actually performed.
//! * Stages as `PipelineCtx` methods — [`PipelineCtx::parse_netlist`],
//!   [`PipelineCtx::annotate`], [`PipelineCtx::build_model`],
//!   [`PipelineCtx::compile_kernel`], [`PipelineCtx::evaluate`]; each
//!   records its [`Stage`] in the context's telemetry.
//! * Content-addressed caching — one `.cfm` model file per key, a hash
//!   of (canonical netlist bytes, library fingerprint, build options); a
//!   second run on the same inputs warm-loads it (as a model, or straight
//!   into a kernel) and performs **zero** ADD apply steps. Artifacts are
//!   re-validated on load; any mismatch falls back to a rebuild.
//!
//! ```
//! use charfree_netlist::Library;
//! use charfree_pipeline::{PipelineCtx, Source};
//!
//! let mut ctx = PipelineCtx::new(Library::test_library());
//! let parsed = ctx
//!     .parse_netlist(&Source::Bench("decod".to_owned()))
//!     .expect("built-in benchmark");
//! let netlist = ctx.annotate(parsed);
//! assert_eq!(netlist.num_inputs(), 5);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(clippy::unwrap_used)]

mod error;
pub mod faultio;
pub mod store;
pub mod telemetry;

pub use error::PipelineError;
pub use faultio::{FaultConfig, FaultIo, FaultPlan, RealIo, StreamFault, StreamOp};
pub use store::{ArtifactKey, ArtifactStore, CacheLookup, QuarantinedEntry, RecoveryReport};
pub use telemetry::{Event, Stage, Telemetry};

use charfree_core::{AddPowerModel, ApproxStrategy, ModelBuilder};
use charfree_dd::ApplyStats;
use charfree_engine::{Kernel, TraceEngine, TraceSummary};
use charfree_netlist::{benchmarks, blif, verilog, Library, Netlist};
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Where a pipeline run's input comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Source {
    /// A netlist file — BLIF, or structural Verilog for `.v`/`.sv`.
    NetlistFile(PathBuf),
    /// A built-in benchmark generator, by name.
    Bench(String),
    /// A saved `.cfm` power-model artifact.
    ModelFile(PathBuf),
}

impl Source {
    /// Classifies a CLI operand: `.cfm` by extension, an existing file
    /// (or netlist extension) as a netlist, anything else as a benchmark
    /// name.
    pub fn infer(operand: &str) -> Source {
        let path = Path::new(operand);
        if operand.ends_with(".cfm") {
            Source::ModelFile(path.to_path_buf())
        } else if operand.ends_with(".blif")
            || operand.ends_with(".v")
            || operand.ends_with(".sv")
            || path.exists()
        {
            Source::NetlistFile(path.to_path_buf())
        } else {
            Source::Bench(operand.to_owned())
        }
    }

    /// One-line description for telemetry and diagnostics.
    fn describe(&self) -> String {
        match self {
            Source::NetlistFile(p) => format!("netlist {}", p.display()),
            Source::Bench(name) => format!("bench {name}"),
            Source::ModelFile(p) => format!("model {}", p.display()),
        }
    }
}

/// Every model-construction knob the pipeline exposes, in one plain
/// value. The option set doubles as a cache-key component: see
/// [`BuildOptions::fingerprint`].
#[derive(Debug, Clone)]
pub struct BuildOptions {
    /// The paper's `MAX`: cap the finished diagram, approximating during
    /// construction (`None` = exact).
    pub max_nodes: Option<usize>,
    /// Build the conservative upper-bound model instead of the
    /// average-accurate one.
    pub upper_bound: bool,
    /// Override the collapse-measure toggle mixture (`None` = builder
    /// default).
    pub collapse_toggles: Option<Vec<f64>>,
    /// Analytic terminal recalibration (default on).
    pub leaf_recalibration: bool,
    /// Zero the no-transition diagonal after approximation (default on).
    pub diagonal_gating: bool,
    /// Resource-governor live-node ceiling.
    pub node_budget: Option<u64>,
    /// Wall-clock deadline for construction. Nondeterministic — setting
    /// it makes the build uncacheable.
    pub time_budget: Option<Duration>,
    /// Strict mode: budget trips fail the build instead of degrading it.
    pub strict: bool,
}

impl Default for BuildOptions {
    fn default() -> Self {
        BuildOptions {
            max_nodes: None,
            upper_bound: false,
            collapse_toggles: None,
            leaf_recalibration: true,
            diagonal_gating: true,
            node_budget: None,
            time_budget: None,
            strict: false,
        }
    }
}

impl BuildOptions {
    /// The paper's plain configuration: uniform collapse measure, no
    /// diagonal gating, no leaf recalibration. Collapses are still ranked
    /// reach-weighted (DESIGN.md §5, refinement 1).
    pub fn paper_plain() -> Self {
        BuildOptions {
            collapse_toggles: Some(vec![0.5]),
            leaf_recalibration: false,
            diagonal_gating: false,
            ..BuildOptions::default()
        }
    }

    /// Whether a build under these options is a pure function of
    /// (netlist, library, options). A wall-clock deadline makes the
    /// degradation point timing-dependent, so such builds bypass the
    /// artifact cache entirely.
    pub fn cacheable(&self) -> bool {
        self.time_budget.is_none()
    }

    /// A canonical textual digest of every deterministic knob, mixed
    /// into the artifact cache key. Only meaningful when
    /// [`BuildOptions::cacheable`] holds.
    ///
    /// The leading version line stands for the construction algorithm:
    /// any change that alters a built model's bits (even only the low
    /// bits of approximated models) must bump it, or a store warmed by
    /// the old code keeps serving the old bits and warm stops matching
    /// cold.
    pub fn fingerprint(&self) -> String {
        let mut out = String::from("options v2\n");
        let _ = writeln!(out, "max_nodes {:?}", self.max_nodes);
        let _ = writeln!(out, "upper_bound {}", self.upper_bound);
        match &self.collapse_toggles {
            None => {
                let _ = writeln!(out, "collapse_toggles default");
            }
            Some(toggles) => {
                let _ = write!(out, "collapse_toggles");
                for t in toggles {
                    let _ = write!(out, " {:016x}", t.to_bits());
                }
                out.push('\n');
            }
        }
        let _ = writeln!(out, "leaf_recalibration {}", self.leaf_recalibration);
        let _ = writeln!(out, "diagonal_gating {}", self.diagonal_gating);
        let _ = writeln!(out, "node_budget {:?}", self.node_budget);
        // The step budget is gone; its line stays so that stores warmed
        // by earlier builds keep their keys under `options v2`.
        out.push_str("step_budget None\n");
        let _ = writeln!(out, "strict {}", self.strict);
        out
    }

    /// Configures a [`ModelBuilder`] for `netlist` with these options.
    fn configure<'a>(&self, netlist: &'a Netlist) -> ModelBuilder<'a> {
        let mut builder = ModelBuilder::new(netlist);
        if let Some(max) = self.max_nodes {
            builder = builder.max_nodes(max);
        }
        if self.upper_bound {
            builder = builder.strategy(ApproxStrategy::UpperBound);
        }
        if let Some(toggles) = &self.collapse_toggles {
            builder = builder.collapse_toggles(toggles);
        }
        builder = builder
            .leaf_recalibration(self.leaf_recalibration)
            .diagonal_gating(self.diagonal_gating)
            .strict(self.strict);
        if let Some(nodes) = self.node_budget {
            builder = builder.node_budget(nodes);
        }
        if let Some(deadline) = self.time_budget {
            builder = builder.time_budget(deadline);
        }
        builder
    }
}

/// Reads a saved `.cfm` model file from disk (outside the cache — an
/// explicit user artifact) with `parse`: into a model, or straight into a
/// kernel.
///
/// # Errors
///
/// [`PipelineError::Io`] if the file cannot be read,
/// [`PipelineError::Parse`] if it fails validation.
fn read_model_file<T>(path: &Path, parse: fn(&[u8]) -> io::Result<T>) -> Result<T, PipelineError> {
    let bytes = fs::read(path).map_err(|e| PipelineError::Io {
        context: path.display().to_string(),
        source: e,
    })?;
    parse(&bytes).map_err(|e| PipelineError::Parse {
        context: path.display().to_string(),
        message: e.to_string(),
    })
}

/// The shared context one pipeline run threads through every stage.
#[derive(Debug)]
pub struct PipelineCtx {
    library: Library,
    options: BuildOptions,
    store: Option<ArtifactStore>,
    /// The run's structured event sink (public so drivers can render or
    /// inspect it after the run).
    pub telemetry: Telemetry,
    stats: Arc<ApplyStats>,
}

impl PipelineCtx {
    /// A context with default build options, no artifact store and a
    /// fresh telemetry sink.
    pub fn new(library: Library) -> PipelineCtx {
        PipelineCtx {
            library,
            options: BuildOptions::default(),
            store: None,
            telemetry: Telemetry::new(),
            stats: ApplyStats::shared(),
        }
    }

    /// Replaces the build options.
    pub fn with_options(mut self, options: BuildOptions) -> Self {
        self.set_options(options);
        self
    }

    /// Replaces the build options of a context in use.
    pub fn set_options(&mut self, options: BuildOptions) {
        self.options = options;
    }

    /// Attaches a content-addressed artifact store.
    pub fn with_store(mut self, store: ArtifactStore) -> Self {
        self.store = Some(store);
        self
    }

    /// The cell library of this run.
    pub fn library(&self) -> &Library {
        &self.library
    }

    /// The build options of this run.
    pub fn options(&self) -> &BuildOptions {
        &self.options
    }

    /// Cache-missing ADD apply/ITE steps performed by builds in this
    /// context so far. A warm-cache run leaves this at zero — the
    /// telemetry-verifiable "no symbolic work was redone" guarantee.
    pub fn apply_steps(&self) -> u64 {
        self.stats.apply_steps()
    }

    /// The shared [`ApplyStats`] sink (attached to every build's budget).
    pub fn apply_stats(&self) -> &Arc<ApplyStats> {
        &self.stats
    }

    /// Stage `ParseNetlist`: acquires a netlist from a file or a
    /// benchmark generator. Loads are *not* annotated yet — compose with
    /// [`PipelineCtx::annotate`] (or use [`PipelineCtx::load_netlist`]).
    ///
    /// # Errors
    ///
    /// I/O and parse failures; [`PipelineError::Unsupported`] for model
    /// sources, which carry no netlist.
    pub fn parse_netlist(&mut self, source: &Source) -> Result<Netlist, PipelineError> {
        let t0 = Instant::now();
        let netlist = match source {
            Source::NetlistFile(path) => {
                let text = fs::read_to_string(path).map_err(|e| PipelineError::Io {
                    context: path.display().to_string(),
                    source: e,
                })?;
                let parsed = if path.extension().is_some_and(|e| e == "v" || e == "sv") {
                    verilog::parse(&text).map_err(|e| PipelineError::Parse {
                        context: path.display().to_string(),
                        message: e.to_string(),
                    })?
                } else {
                    blif::parse(&text).map_err(|e| PipelineError::Parse {
                        context: path.display().to_string(),
                        message: e.to_string(),
                    })?
                };
                parsed
            }
            Source::Bench(name) => benchmarks::by_name(name, &self.library)
                .ok_or_else(|| PipelineError::UnknownInput(name.clone()))?,
            Source::ModelFile(_) => {
                return Err(PipelineError::Unsupported(format!(
                    "{} is a compiled artifact, not a netlist source",
                    source.describe()
                )))
            }
        };
        self.telemetry.emit(Event::Stage {
            stage: Stage::ParseNetlist,
            wall: t0.elapsed(),
            nodes: None,
            rungs: 0,
            detail: format!(
                "{} ({} inputs, {} gates)",
                source.describe(),
                netlist.num_inputs(),
                netlist.num_gates()
            ),
        });
        Ok(netlist)
    }

    /// Stage `Annotate`: back-annotates capacitive loads from the
    /// context's library onto every net (idempotent).
    pub fn annotate(&mut self, mut netlist: Netlist) -> Netlist {
        let t0 = Instant::now();
        netlist.annotate_loads(&self.library);
        self.telemetry.emit(Event::Stage {
            stage: Stage::Annotate,
            wall: t0.elapsed(),
            nodes: None,
            rungs: 0,
            detail: format!(
                "library `{}`, total load {:.1} fF",
                self.library.name(),
                netlist.total_load().femtofarads()
            ),
        });
        netlist
    }

    /// [`PipelineCtx::parse_netlist`] followed by
    /// [`PipelineCtx::annotate`].
    ///
    /// # Errors
    ///
    /// See [`PipelineCtx::parse_netlist`].
    pub fn load_netlist(&mut self, source: &Source) -> Result<Netlist, PipelineError> {
        let netlist = self.parse_netlist(source)?;
        Ok(self.annotate(netlist))
    }

    /// The content key the given netlist's model artifact lives under,
    /// when caching applies (a store is attached and the options are
    /// deterministic).
    fn artifact_key(&self, netlist: &Netlist) -> Option<ArtifactKey> {
        if self.store.is_none() || !self.options.cacheable() {
            return None;
        }
        let canonical = blif::write(netlist);
        // The `"model"` section keeps the keys of stores written while a
        // second artifact kind lived beside the model.
        Some(ArtifactKey::derive(&[
            "model",
            &canonical,
            &self.library.fingerprint(),
            &self.options.fingerprint(),
        ]))
    }

    /// Stages `BuildAdd` + `Collapse`, cache-aware: returns the netlist's
    /// power model, warm-loading it from the store when an identical
    /// build is already cached (zero apply steps in that case). Freshly
    /// built, non-degraded models are stored back.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Build`] on netlist validation failure or a
    /// strict-mode budget trip.
    pub fn build_model(&mut self, netlist: &Netlist) -> Result<AddPowerModel, PipelineError> {
        let key = self.artifact_key(netlist);
        if let Some(mut model) = self.probe(key, ArtifactStore::load_model) {
            model.set_name(netlist.name());
            return Ok(model);
        }
        self.build_fresh(netlist, key)
    }

    /// Stages `BuildAdd` + `Collapse` without a cache probe; a clean
    /// (non-degraded) model is stored back under `key`.
    fn build_fresh(
        &mut self,
        netlist: &Netlist,
        key: Option<ArtifactKey>,
    ) -> Result<AddPowerModel, PipelineError> {
        let steps_before = self.stats.apply_steps();
        let t0 = Instant::now();
        let partial = self
            .options
            .configure(netlist)
            .stats(self.stats.clone())
            .try_accumulate()?;
        self.telemetry.emit(Event::Stage {
            stage: Stage::BuildAdd,
            wall: t0.elapsed(),
            nodes: Some(partial.arena_nodes() as u64),
            rungs: partial.degradation_rungs() as u64,
            detail: format!(
                "{} gates, {} apply steps",
                netlist.num_gates(),
                self.stats.apply_steps() - steps_before
            ),
        });

        let t1 = Instant::now();
        let mut model = partial.collapse();
        model.set_name(netlist.name());
        self.telemetry.emit(Event::Stage {
            stage: Stage::Collapse,
            wall: t1.elapsed(),
            nodes: Some(model.size() as u64),
            rungs: model.degradation().map_or(0, |d| d.rungs.len() as u64),
            detail: format!(
                "{} rounds, {} nodes collapsed{}",
                model.report().approximation_rounds,
                model.report().nodes_collapsed,
                if model.report().exact { " (exact)" } else { "" }
            ),
        });

        // Degraded models are not persisted: the `.cfm` format drops the
        // degradation report, so a warm load would silently launder a
        // degraded build into a clean-looking one.
        if model.degradation().is_none() {
            self.publish(key, |store, key| store.store_model(key, &model));
        }
        Ok(model)
    }

    /// Stage `CompileKernel`, cache-aware: the cached `.cfm` that
    /// [`PipelineCtx::build_model`] would load is read straight into a
    /// kernel ([`Kernel::from_cfm`]: no manager is built, no model
    /// constructed); otherwise the model is built (and stored back) and
    /// compiled.
    ///
    /// # Errors
    ///
    /// See [`PipelineCtx::build_model`].
    pub fn compile_kernel(&mut self, netlist: &Netlist) -> Result<Kernel, PipelineError> {
        let key = self.artifact_key(netlist);
        if let Some(mut kernel) = self.probe(key, ArtifactStore::load_kernel) {
            kernel.set_name(netlist.name());
            return Ok(kernel);
        }
        let model = self.build_fresh(netlist, key)?;
        Ok(self.compile_kernel_from(&model))
    }

    /// Looks `key` up in the store (when caching applies), recording the
    /// hit, miss or poisoned entry in telemetry. Returns the artifact on
    /// a hit only.
    fn probe<T>(
        &mut self,
        key: Option<ArtifactKey>,
        load: fn(&ArtifactStore, ArtifactKey) -> CacheLookup<T>,
    ) -> Option<T> {
        let (Some(key), Some(store)) = (key, &self.store) else {
            return None;
        };
        let key_hex = key.hex();
        let (event, artifact) = match load(store, key) {
            CacheLookup::Hit(artifact) => (Event::CacheHit { key: key_hex }, Some(artifact)),
            CacheLookup::Miss => (Event::CacheMiss { key: key_hex }, None),
            CacheLookup::Poisoned(reason) => (
                Event::CachePoisoned {
                    key: key_hex,
                    reason,
                },
                None,
            ),
        };
        self.telemetry.emit(event);
        artifact
    }

    /// Stores a freshly built artifact back under `key` (when caching
    /// applies), recording the store-back or its failure in telemetry —
    /// a failed store leaves the run uncached, it does not fail it.
    fn publish(
        &mut self,
        key: Option<ArtifactKey>,
        store_back: impl FnOnce(&ArtifactStore, ArtifactKey) -> io::Result<()>,
    ) {
        let (Some(key), Some(store)) = (key, &self.store) else {
            return;
        };
        let key_hex = key.hex();
        let event = match store_back(store, key) {
            Ok(()) => Event::CacheStored { key: key_hex },
            Err(e) => Event::CacheStoreFailed {
                key: key_hex,
                reason: e.to_string(),
            },
        };
        self.telemetry.emit(event);
    }

    /// Stage `CompileKernel` on an already-built model (no caching — the
    /// netlist provenance is unknown).
    pub fn compile_kernel_from(&mut self, model: &AddPowerModel) -> Kernel {
        let t0 = Instant::now();
        let kernel = Kernel::compile(model);
        self.telemetry.emit(Event::Stage {
            stage: Stage::CompileKernel,
            wall: t0.elapsed(),
            nodes: Some(model.size() as u64),
            rungs: 0,
            detail: format!(
                "{} instrs, {} terminals, {} bytes",
                kernel.num_instrs(),
                kernel.num_terminals(),
                kernel.bytes()
            ),
        });
        kernel
    }

    /// An evaluation kernel from any source kind: a `.cfm` is read
    /// straight into a kernel ([`Kernel::from_cfm`], zero symbolic work),
    /// and netlist/bench sources run the full (cache-aware) pipeline.
    ///
    /// # Errors
    ///
    /// I/O, parse and build failures from the underlying stages.
    pub fn kernel_for(&mut self, source: &Source) -> Result<Kernel, PipelineError> {
        match source {
            Source::ModelFile(path) => read_model_file(path, |bytes| Kernel::from_cfm(bytes)),
            Source::NetlistFile(_) | Source::Bench(_) => {
                let netlist = self.load_netlist(source)?;
                self.compile_kernel(&netlist)
            }
        }
    }

    /// An arena power model from any source kind.
    ///
    /// # Errors
    ///
    /// I/O, parse and build failures from the underlying stages.
    pub fn model_for(&mut self, source: &Source) -> Result<AddPowerModel, PipelineError> {
        match source {
            Source::ModelFile(path) => read_model_file(path, |bytes| AddPowerModel::load(bytes)),
            Source::NetlistFile(_) | Source::Bench(_) => {
                let netlist = self.load_netlist(source)?;
                self.build_model(&netlist)
            }
        }
    }

    /// Stage `Evaluate`: batched trace evaluation, summarized.
    pub fn evaluate(
        &mut self,
        kernel: &Kernel,
        patterns: &[Vec<bool>],
        jobs: usize,
    ) -> TraceSummary {
        let t0 = Instant::now();
        let summary = TraceEngine::new(kernel).jobs(jobs).evaluate(patterns);
        self.telemetry.emit(Event::Stage {
            stage: Stage::Evaluate,
            wall: t0.elapsed(),
            nodes: None,
            rungs: 0,
            detail: format!("{} transitions, jobs={jobs}", summary.transitions),
        });
        summary
    }

    /// Stage `Evaluate`: batched per-cycle trace (switched fF per
    /// transition).
    pub fn trace(&mut self, kernel: &Kernel, patterns: &[Vec<bool>], jobs: usize) -> Vec<f64> {
        let t0 = Instant::now();
        let trace = TraceEngine::new(kernel).jobs(jobs).trace(patterns);
        self.telemetry.emit(Event::Stage {
            stage: Stage::Evaluate,
            wall: t0.elapsed(),
            nodes: None,
            rungs: 0,
            detail: format!("{} transitions traced, jobs={jobs}", trace.len()),
        });
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_inference() {
        // A `.cfk` has no artifact kind of its own any more.
        assert_eq!(Source::infer("m.cfk"), Source::Bench("m.cfk".to_owned()));
        assert_eq!(
            Source::infer("m.cfm"),
            Source::ModelFile(PathBuf::from("m.cfm"))
        );
        assert_eq!(
            Source::infer("n.blif"),
            Source::NetlistFile(PathBuf::from("n.blif"))
        );
        assert_eq!(
            Source::infer("n.v"),
            Source::NetlistFile(PathBuf::from("n.v"))
        );
        assert_eq!(Source::infer("decod"), Source::Bench("decod".to_owned()));
    }

    #[test]
    fn option_fingerprints_cover_every_deterministic_knob() {
        let base = BuildOptions::default().fingerprint();
        let variants = [
            BuildOptions {
                max_nodes: Some(100),
                ..BuildOptions::default()
            },
            BuildOptions {
                upper_bound: true,
                ..BuildOptions::default()
            },
            BuildOptions {
                node_budget: Some(500),
                ..BuildOptions::default()
            },
            BuildOptions {
                strict: true,
                ..BuildOptions::default()
            },
            BuildOptions::paper_plain(),
        ];
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(base, v.fingerprint(), "variant {i} must change the key");
            assert!(v.cacheable(), "variant {i} is deterministic");
        }
        assert_eq!(base, BuildOptions::default().fingerprint());
    }

    #[test]
    fn nondeterministic_builds_are_uncacheable() {
        let timed = BuildOptions {
            time_budget: Some(Duration::from_secs(1)),
            ..BuildOptions::default()
        };
        assert!(!timed.cacheable());
    }

    #[test]
    fn composed_stages_share_the_ctx() {
        let mut ctx = PipelineCtx::new(Library::test_library());
        let netlist = ctx
            .parse_netlist(&Source::Bench("decod".to_owned()))
            .expect("decod parses");
        let netlist = ctx.annotate(netlist);
        let model = ctx.build_model(&netlist).expect("decod builds");
        assert_eq!(model.num_inputs(), 5);
        assert!(ctx.telemetry.stage_ran(Stage::ParseNetlist));
        assert!(ctx.telemetry.stage_ran(Stage::Annotate));
        assert!(ctx.telemetry.stage_ran(Stage::BuildAdd));
        assert!(ctx.telemetry.stage_ran(Stage::Collapse));
        assert!(ctx.apply_steps() > 0, "a cold build does symbolic work");

        let err = ctx
            .parse_netlist(&Source::Bench("nope".to_owned()))
            .expect_err("unknown bench");
        assert!(err.to_string().contains("nope"));
    }

    #[test]
    fn strict_budget_trip_surfaces_as_build_error() {
        let mut ctx = PipelineCtx::new(Library::test_library()).with_options(BuildOptions {
            node_budget: Some(10),
            strict: true,
            ..BuildOptions::default()
        });
        let netlist = ctx
            .load_netlist(&Source::Bench("cm85".to_owned()))
            .expect("cm85 loads");
        let err = ctx.build_model(&netlist).expect_err("trips the budget");
        assert!(matches!(err, PipelineError::Build(_)), "{err}");
    }
}
