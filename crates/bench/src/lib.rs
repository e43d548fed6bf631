//! Shared experiment harness for regenerating the paper's Table 1 and
//! Figures 7a/7b, used by the `table1`, `fig7a`, `fig7b` and `ablation`
//! binaries. `fig7a` also times model evaluation against gate-level
//! simulation ([`eval_cost`]), the paper's evaluation-cost claim.
//!
//! Absolute numbers differ from the 1998 publication (different gate
//! library, different MCNC-equivalent netlists, different machine); the
//! *shape* — who wins, by what order of magnitude, where the trade-off
//! curves bend — is the reproduction target (see EXPERIMENTS.md).

#![warn(missing_docs)]
// `.unwrap()` is banned crate-wide; `.expect()` remains available for
// invariants with a stated justification, and tests are exempt.
#![deny(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

use charfree_core::{
    evaluate, AddPowerModel, ConstantModel, Evaluation, LinearModel, Protocol, TrainingSet,
};
use charfree_engine::{Kernel, TraceEngine};
use charfree_netlist::{benchmarks, Library, Netlist};
use charfree_pipeline::{BuildOptions, PipelineCtx};
use charfree_sim::{statistics_grid, MarkovSource, ZeroDelaySim};
use std::hint::black_box;
use std::time::Instant;

/// Builds one model through the shared pipeline (no artifact store — the
/// harness times cold constructions on purpose).
pub fn build_model(netlist: &Netlist, options: BuildOptions) -> AddPowerModel {
    let mut ctx = PipelineCtx::new(Library::test_library()).with_options(options);
    ctx.build_model(netlist).expect("harness netlists build")
}

/// Cold builds behind each Table 1 CPU cell. One build on a shared host
/// can read a third slower with the host's load, so a cell reports the
/// median and the spread of several.
pub const CPU_BUILDS: usize = 3;

/// One Table 1 CPU cell: the wall seconds of [`CPU_BUILDS`] cold builds
/// and the apply steps of one (every build takes the same).
#[derive(Debug, Clone, Copy)]
pub struct CpuCell {
    /// Median build, in seconds.
    pub median_s: f64,
    /// Slowest minus fastest build, in seconds.
    pub spread_s: f64,
    /// Apply steps of one build.
    pub apply_steps: u64,
}

/// Builds `netlist` [`CPU_BUILDS`] times as [`build_model`] does, timing
/// each, and returns the last model with the CPU cell.
///
/// # Panics
///
/// Panics if two builds take different apply steps (construction is
/// deterministic).
pub fn timed_build(netlist: &Netlist, options: &BuildOptions) -> (AddPowerModel, CpuCell) {
    let mut seconds = Vec::with_capacity(CPU_BUILDS);
    let mut last: Option<(AddPowerModel, u64)> = None;
    for _ in 0..CPU_BUILDS {
        let t0 = Instant::now();
        let mut ctx = PipelineCtx::new(Library::test_library()).with_options(options.clone());
        let model = ctx.build_model(netlist).expect("harness netlists build");
        seconds.push(t0.elapsed().as_secs_f64());
        let steps = ctx.apply_stats().apply_steps();
        if let Some((_, previous)) = &last {
            assert_eq!(steps, *previous, "construction is deterministic");
        }
        last = Some((model, steps));
    }
    seconds.sort_by(f64::total_cmp);
    let (model, apply_steps) = last.expect("CPU_BUILDS is positive");
    let cell = CpuCell {
        median_s: seconds[CPU_BUILDS / 2],
        spread_s: seconds[CPU_BUILDS - 1] - seconds[0],
        apply_steps,
    };
    (model, cell)
}

/// [`BuildOptions`] with just the paper's `MAX` ceiling set.
pub fn max_nodes_options(max_nodes: usize) -> BuildOptions {
    BuildOptions {
        max_nodes: Some(max_nodes),
        ..BuildOptions::default()
    }
}

/// The paper's per-circuit `MAX` budgets (Table 1, columns 7 and 11).
///
/// `(name, avg_max, ub_max)`. One deviation: the paper gives `x1` an
/// upper-bound budget of 50 000 nodes (and spends 10 143 UltraSparc-2
/// seconds building it); our MCNC-equivalent `x1` is symbolically smaller,
/// so the harness caps it at 10 000 to keep the full table regenerable in
/// minutes.
pub const TABLE1_MAX: [(&str, usize, usize); 13] = [
    ("alu2", 1000, 5000),
    ("alu4", 2000, 15000),
    ("cmb", 200, 1000),
    ("cm150", 1000, 2000),
    ("cm85", 500, 500),
    ("comp", 5000, 10000),
    ("decod", 200, 200),
    ("k2", 10000, 10000),
    ("mux", 1000, 5000),
    ("parity", 3000, 500),
    ("pcle", 5000, 10000),
    ("x1", 1000, 10000),
    ("x2", 200, 2500),
];

/// One row of the regenerated Table 1.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Circuit name.
    pub name: String,
    /// Primary inputs (`n`).
    pub inputs: usize,
    /// Gates (`N`).
    pub gates: usize,
    /// ARE (%) of the constant estimator on average power.
    pub con_are: f64,
    /// ARE (%) of the linear estimator on average power.
    pub lin_are: f64,
    /// ARE (%) of the analytical ADD model on average power.
    pub add_are: f64,
    /// `MAX` used for the average model.
    pub avg_max: usize,
    /// Construction time and work of the average model.
    pub avg_cpu: CpuCell,
    /// ARE (%) of the constant-max bound on maximum power.
    pub ub_con_are: f64,
    /// ARE (%) of the pattern-dependent ADD bound on maximum power.
    pub ub_add_are: f64,
    /// `MAX` used for the upper-bound model.
    pub ub_max: usize,
    /// Construction time and work of the upper-bound model.
    pub ub_cpu: CpuCell,
}

/// Experiment configuration shared by the binaries.
#[derive(Debug, Clone)]
pub struct Config {
    /// Vectors per simulation run (the paper uses 10 000).
    pub vectors: usize,
    /// Vectors in the characterization sample for `Con`/`Lin`.
    pub training_vectors: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            vectors: 10_000,
            training_vectors: 10_000,
            seed: 1998,
        }
    }
}

/// Computes one Table 1 row for `netlist`.
pub fn table1_row(netlist: &Netlist, avg_max: usize, ub_max: usize, config: &Config) -> Table1Row {
    let sim = ZeroDelaySim::new(netlist);
    let grid = statistics_grid();

    // Characterized baselines (paper protocol: sp = st = 0.5 sample).
    let training = TrainingSet::sample(&sim, config.training_vectors, config.seed);
    let con = ConstantModel::fit(&training);
    let lin = LinearModel::fit(&training);

    // Analytical average model.
    let (add, avg_cpu) = timed_build(netlist, &max_nodes_options(avg_max));
    let avg_eval = evaluate(
        &[&con, &lin, &add],
        &sim,
        &grid,
        config.vectors,
        Protocol::AveragePower,
        config.seed,
    );

    // Pattern-dependent upper bound + constant-max baseline.
    let (bound, ub_cpu) = timed_build(
        netlist,
        &BuildOptions {
            max_nodes: Some(ub_max),
            upper_bound: true,
            ..BuildOptions::default()
        },
    );
    let con_max = ConstantModel::from_capacitance(bound.max_capacitance(), "Con");
    let ub_eval = evaluate(
        &[&con_max, &bound],
        &sim,
        &grid,
        config.vectors,
        Protocol::MaximumPower,
        config.seed.wrapping_add(7),
    );

    Table1Row {
        name: netlist.name().to_owned(),
        inputs: netlist.num_inputs(),
        gates: netlist.num_gates(),
        con_are: avg_eval.are_percent(0).expect("model column"),
        lin_are: avg_eval.are_percent(1).expect("model column"),
        add_are: avg_eval.are_percent(2).expect("model column"),
        avg_max,
        avg_cpu,
        ub_con_are: ub_eval.are_percent(0).expect("model column"),
        ub_add_are: ub_eval.are_percent(1).expect("model column"),
        ub_max,
        ub_cpu,
    }
}

/// Formats rows in the paper's Table 1 layout. Each CPU cell reads
/// `median ±spread` seconds over [`CPU_BUILDS`] builds, then the apply
/// steps of one build.
pub fn format_table1(rows: &[Table1Row]) -> String {
    use std::fmt::Write as _;
    let cpu = |c: &CpuCell| {
        format!(
            "{:>8.2} {:>7} {:>9}",
            c.median_s,
            format!("±{:.2}", c.spread_s),
            c.apply_steps
        )
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:8} {:>3} {:>5} | {:>8} {:>8} {:>8} {:>6} {:>8} {:>7} {:>9} | {:>8} {:>8} {:>6} {:>8} {:>7} {:>9}",
        "name",
        "n",
        "N",
        "Con(%)",
        "Lin(%)",
        "ADD(%)",
        "MAX",
        "CPU(s)",
        "spread",
        "steps",
        "Con(%)",
        "ADD(%)",
        "MAX",
        "CPU(s)",
        "spread",
        "steps"
    );
    let _ = writeln!(out, "{}", "-".repeat(146));
    for r in rows {
        let _ = writeln!(
            out,
            "{:8} {:>3} {:>5} | {:>8.1} {:>8.1} {:>8.1} {:>6} {} | {:>8.1} {:>8.1} {:>6} {}",
            r.name,
            r.inputs,
            r.gates,
            r.con_are,
            r.lin_are,
            r.add_are,
            r.avg_max,
            cpu(&r.avg_cpu),
            r.ub_con_are,
            r.ub_add_are,
            r.ub_max,
            cpu(&r.ub_cpu)
        );
    }
    out
}

/// Runs the Fig. 7a sweep on `netlist` (the paper uses cm85 with
/// MAX = 500): per-`st` relative errors of Con, Lin and ADD at `sp = 0.5`.
pub fn fig7a(netlist: &Netlist, max_nodes: usize, config: &Config) -> Evaluation {
    let sim = ZeroDelaySim::new(netlist);
    let training = TrainingSet::sample(&sim, config.training_vectors, config.seed);
    let con = ConstantModel::fit(&training);
    let lin = LinearModel::fit(&training);
    let add = build_model(netlist, max_nodes_options(max_nodes));
    evaluate(
        &[&con, &lin, &add],
        &sim,
        &charfree_core::fig7a_grid(),
        config.vectors,
        Protocol::AveragePower,
        config.seed,
    )
}

/// Transitions in the sequence [`eval_cost`] times.
pub const EVAL_COST_TRANSITIONS: usize = 10_000;

/// What one transition costs to evaluate three ways: the paper's claim
/// that model evaluation is negligible next to gate-level simulation.
#[derive(Debug, Clone, Copy)]
pub struct EvalCost {
    /// ADD nodes of the model.
    pub model_nodes: usize,
    /// Longest root-to-terminal path of the compiled kernel, at most
    /// `2n`: the per-transition work of a walk is linear in the inputs.
    pub kernel_depth: u32,
    /// Scalar golden simulation, one `switching_capacitance` call per
    /// transition (ns per transition).
    pub scalar_sim_ns: f64,
    /// Word-parallel golden simulation, `switching_trace` (ns per
    /// transition).
    pub word_sim_ns: f64,
    /// The compiled kernel through a one-job [`TraceEngine`] (ns per
    /// transition).
    pub kernel_ns: f64,
}

/// Times [`EVAL_COST_TRANSITIONS`] Markov transitions (`sp = st = 0.5`)
/// on `netlist` three ways, best of five runs each: scalar and
/// word-parallel golden simulation, and the kernel compiled from the
/// `max_nodes` model.
pub fn eval_cost(netlist: &Netlist, max_nodes: usize, config: &Config) -> EvalCost {
    const RUNS: usize = 5;
    fn best_ns<T>(mut run: impl FnMut() -> T) -> f64 {
        let best = (0..RUNS)
            .map(|_| {
                let start = Instant::now();
                black_box(run());
                start.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min);
        best * 1e9 / EVAL_COST_TRANSITIONS as f64
    }

    let sim = ZeroDelaySim::new(netlist);
    let model = build_model(netlist, max_nodes_options(max_nodes));
    let kernel = Kernel::compile(&model);
    let patterns = MarkovSource::new(netlist.num_inputs(), 0.5, 0.5, config.seed)
        .expect("sp = st = 0.5 is feasible")
        .sequence(EVAL_COST_TRANSITIONS + 1);
    let engine = TraceEngine::new(&kernel).jobs(1);
    EvalCost {
        model_nodes: model.size(),
        kernel_depth: kernel.depth(),
        scalar_sim_ns: best_ns(|| {
            patterns
                .windows(2)
                .map(|w| sim.switching_capacitance(&w[0], &w[1]).femtofarads())
                .sum::<f64>()
        }),
        word_sim_ns: best_ns(|| sim.switching_trace(&patterns)),
        kernel_ns: best_ns(|| engine.evaluate(&patterns)),
    }
}

/// One point of the Fig. 7b accuracy/size trade-off.
#[derive(Debug, Clone, Copy)]
pub struct Fig7bPoint {
    /// Requested node budget.
    pub max_nodes: usize,
    /// Actual model size after construction.
    pub size: usize,
    /// ARE (%) over the statistics grid.
    pub are: f64,
}

/// Runs the Fig. 7b sweep: ARE of progressively smaller ADD models, each
/// built from scratch at its own `MAX` budget (plus reference AREs for
/// Con and Lin). Returns `(points, con_are, lin_are)`.
pub fn fig7b(netlist: &Netlist, budgets: &[usize], config: &Config) -> (Vec<Fig7bPoint>, f64, f64) {
    let sim = ZeroDelaySim::new(netlist);
    let grid = statistics_grid();
    let training = TrainingSet::sample(&sim, config.training_vectors, config.seed);
    let con = ConstantModel::fit(&training);
    let lin = LinearModel::fit(&training);
    let reference = evaluate(
        &[&con, &lin],
        &sim,
        &grid,
        config.vectors,
        Protocol::AveragePower,
        config.seed,
    );

    let mut points = Vec::with_capacity(budgets.len());
    for &budget in budgets {
        let model = build_model(netlist, max_nodes_options(budget));
        let eval = evaluate(
            &[&model],
            &sim,
            &grid,
            config.vectors,
            Protocol::AveragePower,
            config.seed,
        );
        points.push(Fig7bPoint {
            max_nodes: budget,
            size: model.size(),
            are: eval.are_percent(0).expect("model column"),
        });
    }
    (
        points,
        reference.are_percent(0).expect("model column"),
        reference.are_percent(1).expect("model column"),
    )
}

/// Ablation configurations of DESIGN.md §5 and their AREs on one circuit.
pub fn ablation(netlist: &Netlist, max_nodes: usize, config: &Config) -> Vec<(String, f64)> {
    let sim = ZeroDelaySim::new(netlist);
    let grid = statistics_grid();
    let mut results = Vec::new();
    let variants: [(&str, BuildOptions); 5] = [
        (
            "full (mixture+gating+recalibration)",
            max_nodes_options(max_nodes),
        ),
        (
            "no leaf recalibration",
            BuildOptions {
                leaf_recalibration: false,
                ..max_nodes_options(max_nodes)
            },
        ),
        (
            "no diagonal gating",
            BuildOptions {
                diagonal_gating: false,
                ..max_nodes_options(max_nodes)
            },
        ),
        (
            "uniform collapse measure",
            BuildOptions {
                collapse_toggles: Some(vec![0.5]),
                ..max_nodes_options(max_nodes)
            },
        ),
        (
            "uniform measure, no gating, no recalibration",
            BuildOptions {
                max_nodes: Some(max_nodes),
                ..BuildOptions::paper_plain()
            },
        ),
    ];
    for (name, options) in variants {
        let model = build_model(netlist, options);
        let eval = evaluate(
            &[&model],
            &sim,
            &grid,
            config.vectors,
            Protocol::AveragePower,
            config.seed,
        );
        results.push((name.to_owned(), eval.are_percent(0).expect("model column")));
    }
    results
}

/// The benchmark set restricted to names in `filter` (all when empty).
pub fn circuits(filter: &[String]) -> Vec<(Netlist, usize, usize)> {
    let library = Library::test_library();
    TABLE1_MAX
        .iter()
        .filter(|(name, _, _)| filter.is_empty() || filter.iter().any(|f| f == name))
        .map(|&(name, avg_max, ub_max)| {
            (
                benchmarks::by_name(name, &library).expect("known benchmark"),
                avg_max,
                ub_max,
            )
        })
        .collect()
}
