//! Run-time model-evaluation benchmarks: the paper claims ADD evaluation
//! is "linear in the number of input variables" and negligible next to
//! gate-level simulation. This measures per-transition cost of the ADD
//! model, the characterized baselines, and the golden-model simulator
//! (scalar and trace/word-parallel forms).

use charfree_core::{ConstantModel, LinearModel, ModelBuilder, PowerModel, TrainingSet};
use charfree_netlist::{benchmarks, Library};
use charfree_sim::{MarkovSource, ZeroDelaySim};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

fn per_transition(c: &mut Criterion) {
    let library = Library::test_library();
    let netlist = benchmarks::by_name("cm85", &library).expect("Table 1 name");
    let sim = ZeroDelaySim::new(&netlist);
    let training = TrainingSet::sample(&sim, 2000, 3);
    let con = ConstantModel::fit(&training);
    let lin = LinearModel::fit(&training);
    let add = ModelBuilder::new(&netlist).max_nodes(500).build();

    let mut source = MarkovSource::new(netlist.num_inputs(), 0.5, 0.5, 9).expect("feasible");
    let patterns = source.sequence(1024);

    let mut group = c.benchmark_group("per_transition/cm85");
    group.throughput(Throughput::Elements(1023));

    group.bench_function("gate_level_sim", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for t in 0..patterns.len() - 1 {
                acc += sim
                    .switching_capacitance(&patterns[t], &patterns[t + 1])
                    .femtofarads();
            }
            black_box(acc)
        })
    });
    group.bench_function("gate_level_trace_word_parallel", |b| {
        b.iter(|| black_box(sim.switching_trace(&patterns)))
    });
    for (name, model) in [
        ("add_model", &add as &dyn PowerModel),
        ("lin_model", &lin),
        ("con_model", &con),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut acc = 0.0;
                for t in 0..patterns.len() - 1 {
                    acc += model
                        .capacitance(&patterns[t], &patterns[t + 1])
                        .femtofarads();
                }
                black_box(acc)
            })
        });
    }
    group.finish();
}

fn scaling_with_inputs(c: &mut Criterion) {
    // ADD evaluation cost against circuit input count (linear walk).
    let library = Library::test_library();
    let mut group = c.benchmark_group("add_eval_scaling");
    for netlist in [
        benchmarks::by_name("decod", &library).expect("Table 1 name"), // n = 5
        benchmarks::by_name("cm85", &library).expect("Table 1 name"),  // n = 11
        benchmarks::by_name("parity", &library).expect("Table 1 name"), // n = 16
        benchmarks::by_name("comp", &library).expect("Table 1 name"),  // n = 32
    ] {
        let model = ModelBuilder::new(&netlist).max_nodes(2000).build();
        let n = netlist.num_inputs();
        let xi = vec![false; n];
        let xf = vec![true; n];
        group.bench_function(format!("{}/n{}", netlist.name(), n), |b| {
            b.iter(|| black_box(model.capacitance(&xi, &xf)))
        });
    }
    group.finish();
}

criterion_group!(benches, per_transition, scaling_with_inputs);
criterion_main!(benches);
