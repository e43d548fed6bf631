//! Cross-crate integration: analytical models against the golden-model
//! simulator, exhaustively where feasible.

use charfree::netlist::{benchmarks, testutil, Library, Netlist};
use charfree::sim::{ExhaustivePairs, ZeroDelaySim};
use charfree::{ApproxStrategy, InputOrder, ModelBuilder, PowerModel, VariableOrdering};

fn exhaustive_equal(netlist: &Netlist) {
    let sim = ZeroDelaySim::new(netlist);
    let model = ModelBuilder::new(netlist).build();
    assert!(
        model.report().exact,
        "{} must build exactly",
        netlist.name()
    );
    for (xi, xf) in ExhaustivePairs::new(netlist.num_inputs() as u32) {
        assert_eq!(
            model.capacitance(&xi, &xf),
            sim.switching_capacitance(&xi, &xf),
            "{}: xi={xi:?} xf={xf:?}",
            netlist.name()
        );
    }
}

#[test]
fn exact_models_equal_gate_level_simulation_exhaustively() {
    let library = Library::test_library();
    exhaustive_equal(&benchmarks::paper_unit());
    exhaustive_equal(&benchmarks::by_name("decod", &library).expect("Table 1 name")); // 5 inputs, 4^5 pairs
    exhaustive_equal(&benchmarks::mult(3, &library)); // 6 inputs
    exhaustive_equal(&benchmarks::by_name("x2", &library).expect("Table 1 name"));
    // 10 inputs, ~1M pairs
}

#[test]
fn exact_model_is_order_invariant() {
    let library = Library::test_library();
    let netlist = benchmarks::by_name("decod", &library).expect("Table 1 name");
    let sim = ZeroDelaySim::new(&netlist);
    for (ordering, input_order) in [
        (VariableOrdering::Interleaved, InputOrder::FaninDfs),
        (VariableOrdering::Interleaved, InputOrder::Natural),
        (VariableOrdering::Grouped, InputOrder::FaninDfs),
        (VariableOrdering::Grouped, InputOrder::Natural),
    ] {
        let model = ModelBuilder::new(&netlist)
            .ordering(ordering)
            .input_order(input_order.clone())
            .build();
        for (xi, xf) in ExhaustivePairs::new(5) {
            assert_eq!(
                model.capacitance(&xi, &xf),
                sim.switching_capacitance(&xi, &xf),
                "{ordering:?}/{input_order:?}"
            );
        }
    }
}

#[test]
fn custom_input_order_round_trips() {
    let library = Library::test_library();
    let netlist = benchmarks::by_name("decod", &library).expect("Table 1 name");
    let sim = ZeroDelaySim::new(&netlist);
    let model = ModelBuilder::new(&netlist)
        .input_order(InputOrder::Custom(vec![4, 3, 2, 1, 0]))
        .build();
    for (xi, xf) in ExhaustivePairs::new(5) {
        assert_eq!(
            model.capacitance(&xi, &xf),
            sim.switching_capacitance(&xi, &xf)
        );
    }
}

#[test]
fn bounded_upper_bounds_are_sound_exhaustively() {
    let library = Library::test_library();
    for netlist in [
        benchmarks::by_name("decod", &library).expect("Table 1 name"),
        benchmarks::mult(3, &library),
    ] {
        let sim = ZeroDelaySim::new(&netlist);
        for max in [8usize, 40, 120] {
            let bound = ModelBuilder::new(&netlist)
                .max_nodes(max)
                .strategy(ApproxStrategy::UpperBound)
                .build();
            assert!(bound.size() <= max);
            for (xi, xf) in ExhaustivePairs::new(netlist.num_inputs() as u32) {
                let b = bound.capacitance(&xi, &xf).femtofarads();
                let t = sim.switching_capacitance(&xi, &xf).femtofarads();
                assert!(
                    b >= t - 1e-9,
                    "{} MAX={max}: bound {b} < truth {t} at xi={xi:?} xf={xf:?}",
                    netlist.name()
                );
            }
        }
    }
}

#[test]
fn average_models_never_negative() {
    // Recalibration clamps at zero; check across an exhaustive space.
    let library = Library::test_library();
    let netlist = benchmarks::by_name("decod", &library).expect("Table 1 name");
    for max in [30usize, 100] {
        let model = ModelBuilder::new(&netlist).max_nodes(max).build();
        for (xi, xf) in ExhaustivePairs::new(5) {
            assert!(model.capacitance(&xi, &xf).femtofarads() >= 0.0);
        }
    }
}

#[test]
fn diagonal_is_exactly_zero_after_gating() {
    let library = Library::test_library();
    let netlist = benchmarks::by_name("cm85", &library).expect("Table 1 name");
    let model = ModelBuilder::new(&netlist).max_nodes(300).build();
    // Any xi = xf transition must read exactly 0.
    for seed in 0..64u32 {
        let xi: Vec<bool> = (0..11).map(|b| seed >> (b % 6) & 1 == 1).collect();
        assert_eq!(model.capacitance(&xi, &xi).femtofarads(), 0.0);
    }
}

#[test]
fn shrink_families_are_monotone_in_size() {
    let library = Library::test_library();
    let netlist = benchmarks::by_name("decod", &library).expect("Table 1 name");
    let mother = ModelBuilder::new(&netlist).build();
    let mut last = usize::MAX;
    for budget in [200usize, 60, 20, 8] {
        let child = ModelBuilder::new(&netlist)
            .build()
            .shrink(budget, ApproxStrategy::Average);
        assert!(child.size() <= budget.min(last));
        last = child.size();
    }
    assert!(mother.size() >= last);
}

#[test]
fn worst_case_transition_is_simulatable() {
    let library = Library::test_library();
    for netlist in [
        benchmarks::by_name("decod", &library).expect("Table 1 name"),
        benchmarks::by_name("parity", &library).expect("Table 1 name"),
    ] {
        let model = ModelBuilder::new(&netlist).build();
        let sim = ZeroDelaySim::new(&netlist);
        let (xi, xf) = model.worst_case_transition();
        assert_eq!(
            sim.switching_capacitance(&xi, &xf),
            model.max_capacitance(),
            "{}",
            netlist.name()
        );
    }
}

#[test]
fn hand_built_netlist_full_flow() {
    // The shared hand-built fixture exercises every structural API
    // (multi-fanout, a complex cell, load annotation, validation).
    let library = Library::test_library();
    let n = testutil::hand_unit(&library);

    let sim = ZeroDelaySim::new(&n);
    let model = ModelBuilder::new(&n).build();
    for (xi, xf) in ExhaustivePairs::new(3) {
        assert_eq!(
            model.capacitance(&xi, &xf),
            sim.switching_capacitance(&xi, &xf)
        );
    }
}
