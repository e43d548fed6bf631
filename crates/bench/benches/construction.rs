//! Model-construction benchmarks (the paper's `CPU` columns): exact and
//! budget-bounded builds, both strategies, plus the DESIGN.md §5 ablation
//! of the approximation configuration.

use charfree_core::{ApproxStrategy, ModelBuilder};
use charfree_netlist::{benchmarks, Library};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn construction(c: &mut Criterion) {
    let library = Library::test_library();
    let mut group = c.benchmark_group("construction");
    group.sample_size(10);

    // Exact builds (unbounded) for the small/fast circuits.
    for netlist in [
        benchmarks::paper_unit(),
        benchmarks::by_name("decod", &library).expect("Table 1 name"),
        benchmarks::by_name("parity", &library).expect("Table 1 name"),
    ] {
        group.bench_function(format!("exact/{}", netlist.name()), |b| {
            b.iter(|| black_box(ModelBuilder::new(&netlist).build()))
        });
    }

    // Budget-bounded builds (the Table 1 configurations).
    let cm85 = benchmarks::by_name("cm85", &library).expect("Table 1 name");
    for max in [50usize, 500, 2000] {
        group.bench_function(format!("bounded/cm85/max{max}"), |b| {
            b.iter(|| black_box(ModelBuilder::new(&cm85).max_nodes(max).build()))
        });
    }
    let mux = benchmarks::by_name("mux", &library).expect("Table 1 name");
    group.bench_function("bounded/mux/max1000", |b| {
        b.iter(|| black_box(ModelBuilder::new(&mux).max_nodes(1000).build()))
    });

    // Upper-bound strategy.
    group.bench_function("upper_bound/cm85/max500", |b| {
        b.iter(|| {
            black_box(
                ModelBuilder::new(&cm85)
                    .max_nodes(500)
                    .strategy(ApproxStrategy::UpperBound)
                    .build(),
            )
        })
    });

    group.finish();
}

fn ablation(c: &mut Criterion) {
    let library = Library::test_library();
    let cm85 = benchmarks::by_name("cm85", &library).expect("Table 1 name");
    let mut group = c.benchmark_group("construction_ablation");
    group.sample_size(10);

    group.bench_function("full_pipeline", |b| {
        b.iter(|| black_box(ModelBuilder::new(&cm85).max_nodes(500).build()))
    });
    group.bench_function("no_recalibration", |b| {
        b.iter(|| {
            black_box(
                ModelBuilder::new(&cm85)
                    .max_nodes(500)
                    .leaf_recalibration(false)
                    .build(),
            )
        })
    });
    group.bench_function("paper_plain", |b| {
        b.iter(|| {
            black_box(
                ModelBuilder::new(&cm85)
                    .max_nodes(500)
                    .collapse_toggles(&[0.5])
                    .leaf_recalibration(false)
                    .diagonal_gating(false)
                    .build(),
            )
        })
    });

    group.finish();
}

criterion_group!(benches, construction, ablation);
criterion_main!(benches);
