//! Decision-diagram substrate benchmarks: core apply/ITE throughput,
//! statistics traversals, and the variable-ordering ablation
//! (interleaved vs grouped transition variables, DESIGN.md §5).

use charfree_core::{InputOrder, ModelBuilder, VariableOrdering};
use charfree_dd::{ChainMeasure, Manager, Var};
use charfree_netlist::{benchmarks, Library};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

/// An n-bit ripple-carry adder's carry-out BDD — a classic apply workload.
fn carry_out(m: &mut Manager, n: u32) -> charfree_dd::Bdd {
    let mut carry = m.bdd_false();
    for i in 0..n {
        let a = m.bdd_var(Var(2 * i));
        let b = m.bdd_var(Var(2 * i + 1));
        let ab = m.bdd_and(a, b);
        let axb = m.bdd_xor(a, b);
        let pc = m.bdd_and(axb, carry);
        carry = m.bdd_or(ab, pc);
    }
    carry
}

fn apply_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("dd_apply");
    for n in [8u32, 16, 24] {
        group.bench_function(format!("adder_carry/n{n}"), |b| {
            b.iter(|| {
                let mut m = Manager::new(2 * n);
                black_box(carry_out(&mut m, n))
            })
        });
    }
    group.finish();
}

fn stats_traversals(c: &mut Criterion) {
    let mut group = c.benchmark_group("dd_stats");
    let n = 20u32;
    let mut m = Manager::new(n);
    // A value-rich ADD: weighted sum of variables.
    let mut f = m.add_zero();
    for v in 0..n {
        let x = m.bdd_var(Var(v));
        let d = m.add_scale(x.as_add(), 1.0 + v as f64);
        f = m.add_plus(f, d);
    }
    group.bench_function("uniform_stats/weighted_sum_n20", |b| {
        b.iter(|| black_box(m.add_stats(f)))
    });
    group.bench_function("reach_probabilities/weighted_sum_n20", |b| {
        b.iter(|| black_box(m.reach_probabilities(f)))
    });
    // The builder's five-measure collapse mixture, profiled in one pass.
    let mixture: Vec<ChainMeasure> = [0.05, 0.15, 0.3, 0.5, 0.8]
        .iter()
        .map(|&t| ChainMeasure::interleaved_transitions(n / 2, 0.5, t))
        .collect();
    let measures: Vec<&ChainMeasure> = mixture.iter().collect();
    let snap = m.snapshot(f);
    group.bench_function("dense_profile_k5/weighted_sum_n20", |b| {
        b.iter(|| black_box(snap.profile(&measures)))
    });
    // Dry-run size of collapsing the lower half of the nodes (by post-order)
    // to their averages under the first measure.
    let profile = snap.profile(&measures);
    let order: Vec<u32> = (0..snap.len() as u32).collect();
    let leaves: Vec<f64> = (0..snap.len())
        .map(|i| profile.node(i, 0).stats.avg)
        .collect();
    let mut sizer = snap.collapse_sizer(&order, &leaves);
    group.bench_function("collapsed_size/weighted_sum_n20", |b| {
        b.iter(|| black_box(sizer.collapsed_size(order.len() / 2)))
    });
    group.finish();
}

fn ordering_ablation(c: &mut Criterion) {
    // Interleaved vs grouped transition variables, and fanin-DFS vs natural
    // input order — dominant factors of exact-ADD size.
    let library = Library::test_library();
    let cm85 = benchmarks::by_name("cm85", &library).expect("Table 1 name");
    let mut group = c.benchmark_group("ordering");
    group.sample_size(10);
    group.bench_function("interleaved_dfs/cm85_exact", |b| {
        b.iter(|| black_box(ModelBuilder::new(&cm85).build()))
    });
    group.bench_function("interleaved_natural/cm85_exact", |b| {
        b.iter(|| {
            black_box(
                ModelBuilder::new(&cm85)
                    .input_order(InputOrder::Natural)
                    .build(),
            )
        })
    });
    // Grouped ordering explodes on exact cm85; bound it for a fair timing.
    group.bench_function("grouped_dfs/cm85_max2000", |b| {
        b.iter(|| {
            black_box(
                ModelBuilder::new(&cm85)
                    .ordering(VariableOrdering::Grouped)
                    .max_nodes(2000)
                    .build(),
            )
        })
    });
    group.finish();
}

criterion_group!(benches, apply_ops, stats_traversals, ordering_ablation);
criterion_main!(benches);
