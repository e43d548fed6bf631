//! Workspace-level property tests: random circuits through the whole
//! pipeline, with the paper's invariants checked on every sample.

use charfree::netlist::testutil::{assume, check, Gen};
use charfree::netlist::{benchmarks, Library};
use charfree::sim::{ExhaustivePairs, MarkovSource, ZeroDelaySim};
use charfree::{ApproxStrategy, ModelBuilder, PowerModel};

fn random_circuit(inputs: usize, gates: usize, seed: u64) -> charfree::netlist::Netlist {
    let library = Library::test_library();
    benchmarks::random_logic("prop", inputs, gates, seed, &library)
}

/// `(inputs, gates, seed)` with inputs in `3..max_inputs`, gates in
/// `5..max_gates` and seed in `0..1000`.
fn shape(g: &mut Gen, max_inputs: usize, max_gates: usize) -> (usize, usize, u64) {
    (
        g.range(3..max_inputs),
        g.range(5..max_gates),
        g.range(0..1000),
    )
}

/// Exact model ≡ golden simulation on random circuits (exhaustive for
/// ≤ 7 inputs).
#[test]
fn exact_model_equals_simulation() {
    check(
        "exact_model_equals_simulation",
        24,
        |g| shape(g, 8, 30),
        |&(inputs, gates, seed)| {
            let netlist = random_circuit(inputs, gates, seed);
            let sim = ZeroDelaySim::new(&netlist);
            let model = ModelBuilder::new(&netlist).build();
            assert!(model.report().exact);
            for (xi, xf) in ExhaustivePairs::new(inputs as u32) {
                assert_eq!(
                    model.capacitance(&xi, &xf),
                    sim.switching_capacitance(&xi, &xf)
                );
            }
        },
    );
}

/// Upper-bound models dominate the golden model everywhere, at any
/// budget, and their symbolic max dominates the true max.
#[test]
fn bounded_upper_bound_is_sound() {
    let generate = |g: &mut Gen| {
        let (inputs, gates, seed) = shape(g, 7, 25);
        (inputs, gates, seed, g.range(5usize..80))
    };
    check(
        "bounded_upper_bound_is_sound",
        24,
        generate,
        |&(inputs, gates, seed, budget)| {
            let netlist = random_circuit(inputs, gates, seed);
            let sim = ZeroDelaySim::new(&netlist);
            let bound = ModelBuilder::new(&netlist)
                .max_nodes(budget)
                .strategy(ApproxStrategy::UpperBound)
                .build();
            assert!(bound.size() <= budget);
            let mut true_max = 0.0f64;
            for (xi, xf) in ExhaustivePairs::new(inputs as u32) {
                let b = bound.capacitance(&xi, &xf).femtofarads();
                let t = sim.switching_capacitance(&xi, &xf).femtofarads();
                assert!(b >= t - 1e-9, "bound {b} < truth {t}");
                true_max = true_max.max(t);
            }
            assert!(bound.max_capacitance().femtofarads() >= true_max - 1e-9);
        },
    );
}

/// The paper-plain configuration preserves the global average exactly
/// through any amount of collapsing (Section 3.1).
#[test]
fn plain_average_collapse_preserves_global_average() {
    let generate = |g: &mut Gen| {
        let (inputs, gates, seed) = shape(g, 7, 25);
        (inputs, gates, seed, g.range(4usize..60))
    };
    check(
        "plain_average_collapse_preserves_global_average",
        24,
        generate,
        |&(inputs, gates, seed, budget)| {
            let netlist = random_circuit(inputs, gates, seed);
            let exact = ModelBuilder::new(&netlist).build();
            let rough = ModelBuilder::new(&netlist)
                .max_nodes(budget)
                .collapse_toggles(&[0.5])
                .leaf_recalibration(false)
                .diagonal_gating(false)
                .build();
            // Exact up to the builder's terminal-quantization grid.
            let tolerance = netlist.total_load().femtofarads() / 8192.0;
            assert!(
                (exact.average_capacitance().femtofarads()
                    - rough.average_capacitance().femtofarads())
                .abs()
                    < tolerance
            );
        },
    );
}

/// Bounded average models stay within physical limits and zero the
/// diagonal whenever the gating budget allows it.
#[test]
fn bounded_average_model_is_physical() {
    let generate = |g: &mut Gen| {
        let (inputs, gates, seed) = shape(g, 7, 25);
        (inputs, gates, seed, g.range(30usize..120))
    };
    check(
        "bounded_average_model_is_physical",
        24,
        generate,
        |&(inputs, gates, seed, budget)| {
            let netlist = random_circuit(inputs, gates, seed);
            let model = ModelBuilder::new(&netlist).max_nodes(budget).build();
            let total = netlist.total_load().femtofarads();
            for (xi, xf) in ExhaustivePairs::new(inputs as u32) {
                let c = model.capacitance(&xi, &xf).femtofarads();
                assert!(c >= 0.0);
                assert!(c <= total + 1e-9);
            }
            if budget >= 4 * inputs + 8 && !model.report().exact {
                let xi: Vec<bool> = (0..inputs).map(|i| i % 2 == 0).collect();
                assert_eq!(model.capacitance(&xi, &xi).femtofarads(), 0.0);
            }
        },
    );
}

/// Markov sources respect requested statistics for arbitrary feasible
/// targets.
#[test]
fn markov_statistics_hit_targets() {
    let generate = |g: &mut Gen| (g.float(0.15..0.85), g.float(0.1..0.95), g.range(0u64..1000));
    check(
        "markov_statistics_hit_targets",
        24,
        generate,
        |&(sp, st_frac, seed)| {
            let st = st_frac * 2.0 * sp.min(1.0 - sp);
            assume(st > 0.01)?;
            let mut source = MarkovSource::new(24, sp, st, seed).expect("feasible");
            let seq = source.sequence(8000);
            let (msp, mst) = charfree::sim::measure_statistics(&seq);
            assert!((msp - sp).abs() < 0.04, "sp {sp} measured {msp}");
            assert!((mst - st).abs() < 0.04, "st {st} measured {mst}");
            Ok(())
        },
    );
}

/// The simulator's word-parallel trace equals pairwise evaluation on
/// random circuits and workloads.
#[test]
fn trace_equals_pairwise() {
    let generate = |g: &mut Gen| {
        let (inputs, gates, seed) = shape(g, 9, 40);
        (inputs, gates, seed, g.range(2usize..200))
    };
    check(
        "trace_equals_pairwise",
        24,
        generate,
        |&(inputs, gates, seed, len)| {
            let netlist = random_circuit(inputs, gates, seed);
            let sim = ZeroDelaySim::new(&netlist);
            let mut source = MarkovSource::new(inputs, 0.5, 0.4, seed).expect("feasible");
            let patterns = source.sequence(len);
            let trace = sim.switching_trace(&patterns);
            for t in 0..len - 1 {
                assert_eq!(
                    trace[t],
                    sim.switching_capacitance(&patterns[t], &patterns[t + 1])
                );
            }
        },
    );
}
