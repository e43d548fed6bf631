//! Workload `build`: cold model construction, the paper's Table 1 CPU
//! column and the slowest layer a user waits on.
//!
//! Each pass builds three models the way `charfree model` does: a fresh
//! `PipelineCtx`, no artifact store and no shared table. The models load
//! different layers. `x1` splits its time between BuildAdd and collapse,
//! `alu2` spends most of it collapsing and `alu4ub` most of it in dd
//! apply, so an apply gain and a collapse gain each show on a model of
//! their own. The engine, sim, seq and serve layers do almost no work in
//! the window.

use charfree_conform::gen::SplitMix64;
use charfree_netlist::Library;
use charfree_pipeline::PipelineCtx;
use charfree_sim::{statistics_grid, ZeroDelaySim};

use crate::layers::{self, Built, ModelSpec};
use crate::{stats, Finish, Run, Slice, Workload};

/// Table 1 circuits at `MAX` values that keep one pass near 2.5 seconds
/// on a 2-core host.
const MODELS: [ModelSpec; 3] = [
    ModelSpec::avg("x1", "x1", 600),
    ModelSpec::avg("alu2", "alu2", 2000),
    ModelSpec::ub("alu4ub", "alu4", 3000),
];
const QUICK_MODELS: [ModelSpec; 2] = [
    ModelSpec::avg("cm85", "cm85", 500),
    ModelSpec::ub("cm150ub", "cm150", 2000),
];
/// Vectors per operating point of the Table 1 grid.
const ARE_VECTORS: usize = 2000;
/// Transitions in the seeded sample the kernel and bound checks use.
const CHECK_TRANSITIONS: usize = 4096;

pub struct Build;

/// Golden references for one model, simulated during set-up.
struct Reference {
    /// Seeded check sample (`CHECK_TRANSITIONS + 1` patterns).
    sample: Vec<Vec<bool>>,
    /// Golden value per sample transition.
    sample_golden: Vec<f64>,
    /// Per grid point: the patterns and the golden figure of merit
    /// (run average, or run maximum for an upper-bound model).
    grid: Vec<(Vec<Vec<bool>>, f64)>,
}

pub struct State {
    specs: &'static [ModelSpec],
    references: Vec<Reference>,
    /// The models of the latest pass.
    built: Vec<Option<Built>>,
    /// Per model, the seconds each of its builds took.
    build_s: Vec<Vec<f64>>,
}

impl Workload for Build {
    /// One pass.
    const SLICE_S: f64 = 2.5;
    type State = State;

    /// Simulates the golden references: what a characterization-based
    /// flow pays for and this model never needs, kept here as the checks'
    /// oracle.
    fn setup(run: &Run, _repeat: usize) -> Result<State, String> {
        let specs: &'static [ModelSpec] = if run.quick { &QUICK_MODELS } else { &MODELS };
        let mut rng = SplitMix64::new(run.seed);
        let mut ctx = PipelineCtx::new(Library::test_library());
        let mut references = Vec::with_capacity(specs.len());
        for spec in specs {
            let netlist = layers::load(&mut ctx, spec.circuit)?;
            let sim = ZeroDelaySim::new(&netlist);
            let n = netlist.num_inputs();
            let sample = layers::markov(n, 0.5, 0.5, rng.next_u64(), CHECK_TRANSITIONS + 1);
            let sample_golden = layers::golden(&sim, &sample);
            let vectors = if run.quick { 200 } else { ARE_VECTORS };
            let grid = statistics_grid()
                .into_iter()
                .map(|(sp, st)| {
                    let patterns = layers::markov(n, sp, st, rng.next_u64(), vectors);
                    let golden = layers::golden(&sim, &patterns);
                    let figure = figure_of_merit(spec, &golden);
                    (patterns, figure)
                })
                .collect();
            references.push(Reference {
                sample,
                sample_golden,
                grid,
            });
        }
        Ok(State {
            specs,
            references,
            built: Vec::new(),
            build_s: vec![Vec::new(); specs.len()],
        })
    }

    fn slice(state: &mut State, _run: &Run, _seconds: f64) -> Slice {
        let pass = std::time::Instant::now();
        let mut slice = Slice::default();
        state.built.clear();
        for (i, spec) in state.specs.iter().enumerate() {
            let t0 = std::time::Instant::now();
            slice.attempted += 1;
            match layers::build(spec) {
                Ok(model) => {
                    state.build_s[i].push(t0.elapsed().as_secs_f64());
                    state.built.push(Some(model));
                }
                Err(e) => {
                    eprintln!("build: {e}");
                    slice.failed += 1;
                    state.built.push(None);
                }
            }
        }
        slice.secs = pass.elapsed().as_secs_f64();
        slice.op_ms.push(slice.secs * 1e3);
        slice
    }

    fn finish(state: State, run: &Run, out: &mut Finish) {
        let mut avg_are = Vec::new();
        let mut ub_are = Vec::new();
        let mut built_specs = Vec::new();
        for ((spec, reference), (built, times)) in state
            .specs
            .iter()
            .zip(&state.references)
            .zip(state.built.iter().zip(&state.build_s))
        {
            let Some(built) = built else { continue };
            out.line(format!("model.{}_s", spec.tag), stats::median(times), "s");
            out.line(
                format!("model.{}_nodes", spec.tag),
                built.model.size() as f64,
                "count",
            );

            // The compiled kernel must reproduce the arena walk exactly.
            let kernel = layers::compile(&built.model);
            let values = layers::kernel_trace(&kernel, &reference.sample, 1);
            let walk = layers::arena(&built.model, &reference.sample);
            let diff = layers::first_difference(&values, &walk);
            out.check(diff.is_none(), || {
                format!(
                    "{}: kernel and arena walk differ at transition {diff:?}",
                    spec.tag
                )
            });
            if spec.upper_bound {
                let below = values
                    .iter()
                    .zip(&reference.sample_golden)
                    .position(|(bound, truth)| *bound < truth - 1e-9);
                out.check(below.is_none(), || {
                    format!(
                        "{}: bound below golden sim at transition {below:?}",
                        spec.tag
                    )
                });
            }

            let res: Vec<f64> = reference
                .grid
                .iter()
                .filter(|(_, golden)| *golden != 0.0)
                .map(|(patterns, golden)| {
                    let estimate = figure_of_merit(spec, &layers::arena(&built.model, patterns));
                    (estimate - golden).abs() / golden
                })
                .collect();
            let are = 100.0 * res.iter().sum::<f64>() / res.len().max(1) as f64;
            out.line(format!("model.{}_are_pct", spec.tag), are, "%");
            if spec.upper_bound {
                ub_are.push(are);
            } else {
                avg_are.push(are);
            }
            built_specs.push((*spec, built));
        }
        for (name, ares) in [("avg_are_pct", avg_are), ("ub_are_pct", ub_are)] {
            if !ares.is_empty() {
                out.line(
                    name.to_owned(),
                    ares.iter().sum::<f64>() / ares.len() as f64,
                    "%",
                );
            }
        }
        if run.traced {
            out.outcomes(layers::check_pipeline_parity(&built_specs));
        }
    }
}

/// Table 1's figure of merit: the run average for average models, the
/// run maximum for upper bounds.
fn figure_of_merit(spec: &ModelSpec, values: &[f64]) -> f64 {
    if spec.upper_bound {
        values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}
