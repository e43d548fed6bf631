//! The resource governor and degradation ladder, rung by rung.
//!
//! Fault injection (`ModelBuilder::trip_after`) makes each rung fire
//! deterministically without constructing genuinely huge diagrams: the
//! first trip on a gate sheds partial sums, the second reorders
//! variables, the third (or any terminal resource) falls back to
//! constants for the remaining gates.

use charfree_core::{
    ApproxStrategy, BuildError, DegradationRung, ModelBuilder, PowerModel, Resource,
};
use charfree_netlist::{benchmarks, Library};
use charfree_sim::{ExhaustivePairs, MarkovSource, ZeroDelaySim};
use std::time::Duration;

#[test]
fn rung1_single_trip_sheds_partial_sums_and_recovers() {
    let lib = Library::test_library();
    let netlist = benchmarks::by_name("cm85", &lib).expect("Table 1 name");
    let model = ModelBuilder::new(&netlist)
        .trip_after(60)
        .try_build()
        .expect("one trip must degrade, not fail");
    let report = model.degradation().expect("a rung fired");
    assert_eq!(report.rungs[0], DegradationRung::ShedPartialSums);
    assert!(!report.fired(DegradationRung::ConstantFallback));
    assert_eq!(report.first_trip, Some(Resource::FaultInjection));
    assert_eq!(report.gates_folded, 0);
    // The model still evaluates everywhere.
    for (xi, xf) in ExhaustivePairs::new(11).take(256) {
        let c = model.capacitance(&xi, &xf).femtofarads();
        assert!(c.is_finite() && c >= 0.0);
    }
}

#[test]
fn rung2_second_trip_on_same_gate_reorders_variables() {
    let lib = Library::test_library();
    let netlist = benchmarks::by_name("cm85", &lib).expect("Table 1 name");
    // The first trip lands in the very first gate's phase A (nothing
    // committed), so the gate is retried; the second trip fires on the
    // first checkpoint of that retry, and the same gate failing twice
    // escalates to the reorder rung.
    let model = ModelBuilder::new(&netlist)
        .trip_after(1)
        .trip_after(1)
        .try_build()
        .expect("two trips must degrade, not fail");
    let report = model.degradation().expect("rungs fired");
    assert!(report.fired(DegradationRung::ShedPartialSums));
    assert!(report.fired(DegradationRung::ReorderVariables));
    assert!(!report.fired(DegradationRung::ConstantFallback));
    assert_eq!(report.firings(), 2);
    // A retried gate shows up in the per-gate counts.
    assert!(report.gate_retries.iter().any(|&(_, r)| r == 2));
    // Reordering permutes variables consistently, so the model still
    // matches gate-level simulation (nothing was approximated away by
    // the shed on this small unit... values may differ if it was; only
    // check validity).
    for (xi, xf) in ExhaustivePairs::new(11).take(256) {
        let c = model.capacitance(&xi, &xf).femtofarads();
        assert!(c.is_finite() && c >= 0.0);
    }
}

#[test]
fn rung3_third_trip_falls_back_to_constants() {
    let lib = Library::test_library();
    let netlist = benchmarks::by_name("decod", &lib).expect("Table 1 name");
    let model = ModelBuilder::new(&netlist)
        .strategy(ApproxStrategy::UpperBound)
        .trip_after(20)
        .trip_after(1)
        .trip_after(1)
        .try_build()
        .expect("three trips must degrade, not fail");
    let report = model.degradation().expect("rungs fired");
    assert!(report.fired(DegradationRung::ConstantFallback));
    assert!(report.gates_folded > 0, "{report}");
    assert!(report.constant_tail_ff > 0.0, "{report}");
    assert!(!model.report().exact);
    // The folded tail makes the model a conservative upper bound.
    let sim = ZeroDelaySim::new(&netlist);
    for (xi, xf) in ExhaustivePairs::new(5) {
        let exact = sim.switching_capacitance(&xi, &xf).femtofarads();
        let ub = model.capacitance(&xi, &xf).femtofarads();
        assert!(ub >= exact - 1e-9, "xi={xi:?} xf={xf:?}: {ub} < {exact}");
    }
}

#[test]
fn terminal_resources_skip_straight_to_constant_fallback() {
    let lib = Library::test_library();
    let netlist = benchmarks::by_name("cm85", &lib).expect("Table 1 name");
    let model = ModelBuilder::new(&netlist)
        .step_budget(100)
        .try_build()
        .expect("step exhaustion must degrade, not fail");
    let report = model.degradation().expect("a rung fired");
    assert_eq!(report.rungs[0], DegradationRung::ConstantFallback);
    assert_eq!(report.first_trip, Some(Resource::ApplySteps));
}

#[test]
fn expired_deadline_folds_every_gate_into_the_total_load() {
    let lib = Library::test_library();
    let netlist = benchmarks::by_name("decod", &lib).expect("Table 1 name");
    // The first checkpoint samples the clock, so a zero deadline trips
    // before any gate commits.
    let model = ModelBuilder::new(&netlist)
        .time_budget(Duration::ZERO)
        .try_build()
        .expect("deadline exhaustion must degrade, not fail");
    let report = model.degradation().expect("a rung fired");
    assert_eq!(report.first_trip, Some(Resource::WallClock));
    assert_eq!(report.gates_folded, netlist.num_gates());
    // Every gate folded: the model is the constant total load.
    let total = netlist.total_load().femtofarads();
    let xi = vec![false; 5];
    let xf = vec![true; 5];
    assert!((model.capacitance(&xi, &xf).femtofarads() - total).abs() < 1e-9);
}

#[test]
fn strict_mode_fails_instead_of_degrading() {
    let lib = Library::test_library();
    let netlist = benchmarks::by_name("cm85", &lib).expect("Table 1 name");
    let err = ModelBuilder::new(&netlist)
        .trip_after(60)
        .strict(true)
        .try_build()
        .expect_err("strict mode must surface the trip");
    match err {
        BuildError::BudgetExceeded { resource, .. } => {
            assert_eq!(resource, Resource::FaultInjection);
        }
        other => panic!("unexpected error: {other}"),
    }
}

#[test]
fn strict_deadline_fails_fast() {
    let lib = Library::test_library();
    let netlist = benchmarks::by_name("cm150", &lib).expect("Table 1 name");
    let started = std::time::Instant::now();
    let err = ModelBuilder::new(&netlist)
        .time_budget(Duration::from_millis(1))
        .strict(true)
        .try_build()
        .expect_err("an exhausted deadline must fail a strict build");
    assert!(matches!(
        err,
        BuildError::BudgetExceeded {
            resource: Resource::WallClock,
            ..
        }
    ));
    // "Within the deadline" up to checkpoint granularity: the budget is
    // polled every couple hundred recursion steps, so an over-deadline
    // build must notice within a small multiple of the deadline.
    assert!(started.elapsed() < Duration::from_secs(10));
}

#[test]
fn over_budget_build_of_wide_unit_degrades_not_panics() {
    // The acceptance scenario: a >=16-input unit under a node budget far
    // too small for its exact diagram.
    let lib = Library::test_library();
    let netlist = benchmarks::by_name("cm150", &lib).expect("Table 1 name"); // 21 inputs
    assert!(netlist.num_inputs() >= 16);
    let model = ModelBuilder::new(&netlist)
        .node_budget(300)
        .strategy(ApproxStrategy::UpperBound)
        .try_build()
        .expect("an over-budget build must degrade, not fail");
    if let Some(report) = model.degradation() {
        assert!(!report.rungs.is_empty());
        assert_eq!(report.node_budget, Some(300));
    }
    // The finished model respects the budget as a size ceiling...
    assert!(model.size() <= 300, "size={}", model.size());
    // ...and still evaluates (random pattern sweep; 21 inputs rule out
    // exhaustive enumeration).
    let sim = ZeroDelaySim::new(&netlist);
    let mut source = MarkovSource::new(21, 0.5, 0.5, 42).expect("valid statistics");
    let seq = source.sequence(513);
    for pair in seq.windows(2) {
        let (xi, xf) = (&pair[0], &pair[1]);
        let exact = sim.switching_capacitance(xi, xf).femtofarads();
        let ub = model.capacitance(xi, xf).femtofarads();
        assert!(ub >= exact - 1e-9, "xi={xi:?} xf={xf:?}: {ub} < {exact}");
    }
    // Strict mode on the same configuration surfaces the trip instead.
    let strict = ModelBuilder::new(&netlist)
        .node_budget(300)
        .strict(true)
        .try_build();
    if let Some(report) = ModelBuilder::new(&netlist)
        .node_budget(300)
        .try_build()
        .expect("degrades")
        .degradation()
    {
        // The budget genuinely tripped, so strict must have failed.
        assert!(
            matches!(strict, Err(BuildError::BudgetExceeded { .. })),
            "budget tripped ({report}) but strict build returned Ok"
        );
    }
}

#[test]
fn degradation_is_not_persisted() {
    let lib = Library::test_library();
    let netlist = benchmarks::by_name("decod", &lib).expect("Table 1 name");
    let model = ModelBuilder::new(&netlist)
        .trip_after(20)
        .try_build()
        .expect("degrades");
    assert!(model.degradation().is_some());
    let mut buf = Vec::new();
    model.save(&mut buf).expect("serializes");
    let reloaded = charfree_core::AddPowerModel::load(&mut buf.as_slice()).expect("loads");
    assert!(reloaded.degradation().is_none());
}

mod conservative_property {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        /// On random 8-input netlists, an upper-bound model degraded all
        /// the way to the constant-fallback rung stays a conservative
        /// upper bound of the exact gate-level capacitance.
        #[test]
        fn degraded_upper_bound_stays_conservative(
            seed in 0u32..1000,
            gates in 12usize..40,
        ) {
            let lib = Library::test_library();
            let name = format!("prop{seed}");
            let netlist = benchmarks::random_logic(&name, 8, gates, 3, &lib);
            let sim = ZeroDelaySim::new(&netlist);
            let model = ModelBuilder::new(&netlist)
                .strategy(ApproxStrategy::UpperBound)
                .trip_after(40)
                .trip_after(1)
                .trip_after(1)
                .try_build()
                .expect("budgeted build must not fail outside strict mode");
            for (xi, xf) in ExhaustivePairs::new(8).step_by(23) {
                let exact = sim.switching_capacitance(&xi, &xf).femtofarads();
                let ub = model.capacitance(&xi, &xf).femtofarads();
                prop_assert!(
                    ub >= exact - 1e-9,
                    "xi={:?} xf={:?}: {} < {}", xi, xf, ub, exact
                );
            }
        }
    }
}
