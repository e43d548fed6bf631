//! Compiled-kernel engine benchmarks: per-pattern arena traversal versus
//! packed-batch kernel evaluation (one thread and four), the two batch
//! evaluators (gather and walk) on prepacked blocks, plus kernel
//! compilation cost. The benchmark of record is `perf`
//! (`crates/bench/src/bin/perf`, workload `eval_offline`); this harness
//! gives the same comparison a Criterion home next to the
//! construction/evaluation suites.

use charfree_core::{ModelBuilder, PowerModel};
use charfree_engine::{Kernel, PatternBlock, TraceEngine};
use charfree_netlist::{benchmarks, Library};
use charfree_sim::MarkovSource;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

fn trace_throughput(c: &mut Criterion) {
    let library = Library::test_library();
    let netlist = benchmarks::cm85(&library);
    let model = ModelBuilder::new(&netlist).max_nodes(500).build();
    let kernel = Kernel::compile(&model);

    let mut source = MarkovSource::new(netlist.num_inputs(), 0.5, 0.5, 9).expect("feasible");
    let patterns = source.sequence(4096);
    let transitions = (patterns.len() - 1) as u64;

    let mut group = c.benchmark_group("engine_trace/cm85");
    group.throughput(Throughput::Elements(transitions));

    group.bench_function("arena_per_pattern", |b| {
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
    group.bench_function("kernel_batch_1_thread", |b| {
        let engine = TraceEngine::new(&kernel).jobs(1);
        b.iter(|| black_box(engine.evaluate(&patterns).sum_ff))
    });
    group.bench_function("kernel_batch_4_threads", |b| {
        let engine = TraceEngine::new(&kernel).jobs(4);
        b.iter(|| black_box(engine.evaluate(&patterns).sum_ff))
    });
    group.finish();
}

/// Prepacked batch evaluation on both sides of the kernel's evaluator
/// choice: cm85 at `MAX` 500 gathers, exact cmb walks its instructions.
fn batch_evaluators(c: &mut Criterion) {
    let library = Library::test_library();
    let mut group = c.benchmark_group("engine_batch");
    for (netlist, max) in [
        (benchmarks::cm85(&library), 500usize),
        (benchmarks::cmb(&library), 0),
    ] {
        let mut builder = ModelBuilder::new(&netlist);
        if max > 0 {
            builder = builder.max_nodes(max);
        }
        let kernel = Kernel::compile(&builder.build());
        let mut source = MarkovSource::new(netlist.num_inputs(), 0.5, 0.4, 9).expect("feasible");
        let block = PatternBlock::from_patterns(&kernel, &source.sequence(4097));
        let mut out = vec![0.0; block.len()];
        group.throughput(Throughput::Elements(block.len() as u64));
        let evaluator = if kernel.walks() { "walk" } else { "gather" };
        group.bench_function(format!("{}/{evaluator}", netlist.name()), |b| {
            b.iter(|| {
                kernel.eval_batch_into(&block, &mut out);
                black_box(out[0])
            })
        });
    }
    group.finish();
}

fn compile_cost(c: &mut Criterion) {
    let library = Library::test_library();
    let mut group = c.benchmark_group("engine_compile");
    for (netlist, max) in [
        (benchmarks::decod(&library), 0usize),
        (benchmarks::cm85(&library), 500),
    ] {
        let mut builder = ModelBuilder::new(&netlist);
        if max > 0 {
            builder = builder.max_nodes(max);
        }
        let model = builder.build();
        group.bench_function(netlist.name().to_owned(), |b| {
            b.iter(|| black_box(Kernel::compile(&model)))
        });
    }
    group.finish();
}

criterion_group!(benches, trace_throughput, batch_evaluators, compile_cost);
criterion_main!(benches);
