//! Workload-level integration: bursty traffic, trace analytics, Verilog
//! and library-spec flows through the full modeling pipeline.

use charfree::netlist::units::{Energy, Voltage};
use charfree::netlist::{benchmarks, libspec, verilog, Library};
use charfree::sim::{BurstSource, EnergyTrace, MarkovSource, ZeroDelaySim};
use charfree::{ApproxStrategy, ModelBuilder, PowerModel};

#[test]
fn bursty_workload_stresses_out_of_sample_accuracy() {
    // The analytical model has never seen any workload; on a bimodal
    // burst/idle source it must track the golden model closely even though
    // no single (sp, st) describes the traffic.
    let library = Library::test_library();
    let netlist = benchmarks::by_name("cm85", &library).expect("Table 1 name");
    let sim = ZeroDelaySim::new(&netlist);
    let model = ModelBuilder::new(&netlist).max_nodes(500).build();

    let mut source =
        BurstSource::new(11, (0.5, 0.04), (0.5, 0.7), 0.02, 0.08, 5).expect("feasible regimes");
    let patterns = source.sequence(6000);
    let golden = sim.switching_trace(&patterns);
    let golden_avg = golden.iter().map(|c| c.femtofarads()).sum::<f64>() / golden.len() as f64;
    let model_avg = (0..patterns.len() - 1)
        .map(|t| {
            model
                .capacitance(&patterns[t], &patterns[t + 1])
                .femtofarads()
        })
        .sum::<f64>()
        / (patterns.len() - 1) as f64;
    let re = (model_avg - golden_avg).abs() / golden_avg;
    assert!(
        re < 0.15,
        "bursty-workload RE should stay small, got {re:.3}"
    );
}

#[test]
fn upper_bound_dominates_on_bursts_too() {
    let library = Library::test_library();
    let netlist = benchmarks::by_name("decod", &library).expect("Table 1 name");
    let sim = ZeroDelaySim::new(&netlist);
    let bound = ModelBuilder::new(&netlist)
        .max_nodes(300)
        .strategy(ApproxStrategy::UpperBound)
        .build();
    let mut source = BurstSource::new(5, (0.5, 0.1), (0.5, 0.9), 0.05, 0.2, 9).expect("feasible");
    let patterns = source.sequence(3000);
    for t in 0..patterns.len() - 1 {
        let b = bound.capacitance(&patterns[t], &patterns[t + 1]);
        let truth = sim.switching_capacitance(&patterns[t], &patterns[t + 1]);
        assert!(b >= truth, "cycle {t}");
    }
}

#[test]
fn trace_analytics_agree_between_model_and_golden() {
    let library = Library::test_library();
    let netlist = benchmarks::by_name("parity", &library).expect("Table 1 name");
    let sim = ZeroDelaySim::new(&netlist);
    let model = ModelBuilder::new(&netlist).build(); // exact
    let mut source = MarkovSource::new(16, 0.5, 0.3, 3).expect("feasible");
    let patterns = source.sequence(2000);

    let golden_caps = sim.switching_trace(&patterns);
    let model_caps: Vec<_> = (0..patterns.len() - 1)
        .map(|t| model.capacitance(&patterns[t], &patterns[t + 1]))
        .collect();
    let vdd = Voltage::VDD_3V3;
    let golden = EnergyTrace::from_switched(&golden_caps, vdd, 10.0);
    let predicted = EnergyTrace::from_switched(&model_caps, vdd, 10.0);

    // Exact model => identical traces => identical analytics.
    assert_eq!(golden.total_energy(), predicted.total_energy());
    assert_eq!(
        golden.windowed_peak_energy(16),
        predicted.windowed_peak_energy(16)
    );
    assert_eq!(
        golden.duty_above(Energy(golden.average_energy().femtojoules())),
        predicted.duty_above(Energy(predicted.average_energy().femtojoules()))
    );
    let gh = golden.histogram(8);
    let ph = predicted.histogram(8);
    assert_eq!(gh.iter().map(|&(_, c)| c).sum::<usize>(), golden.len());
    assert_eq!(gh, ph);
}

#[test]
fn verilog_and_libspec_flow_end_to_end() {
    // Emit a benchmark as Verilog, re-parse it, annotate with a custom
    // library spec, and verify the model scales with the library.
    let default_library = Library::test_library();
    let netlist = benchmarks::by_name("decod", &default_library).expect("Table 1 name");
    let text = verilog::write(&netlist);
    let reparsed = verilog::parse(&text).expect("round-trips");

    let fat =
        libspec::parse("library fat\nwire 10.0\ncell inv 20.0\ncell and2 20.0\ncell and3 20.0\n")
            .expect("valid spec");
    let mut with_fat = reparsed.clone();
    with_fat.annotate_loads(&fat);
    let mut with_thin = reparsed;
    with_thin.annotate_loads(&default_library);

    let model_fat = ModelBuilder::new(&with_fat).build();
    let model_thin = ModelBuilder::new(&with_thin).build();
    assert!(
        model_fat.average_capacitance() > model_thin.average_capacitance(),
        "heavier library must raise modeled power"
    );
    // Both stay exact and consistent with their own golden model.
    let sim_fat = ZeroDelaySim::new(&with_fat);
    for trial in 0..32u32 {
        let xi: Vec<bool> = (0..5).map(|i| trial >> i & 1 == 1).collect();
        let xf: Vec<bool> = (0..5).map(|i| trial >> (4 - i) & 1 == 1).collect();
        assert_eq!(
            model_fat.capacitance(&xi, &xf),
            sim_fat.switching_capacitance(&xi, &xf)
        );
    }
}

#[test]
fn analytic_expectation_matches_monte_carlo_across_circuits() {
    // The symbolic expected capacitance under a (sp, st) measure must land
    // within sampling noise of a long Markov simulation — for any circuit
    // and any feasible operating point.
    let library = Library::test_library();
    for netlist in [
        benchmarks::by_name("decod", &library).expect("Table 1 name"),
        benchmarks::by_name("parity", &library).expect("Table 1 name"),
        benchmarks::by_name("cm150", &library).expect("Table 1 name"),
    ] {
        let sim = ZeroDelaySim::new(&netlist);
        let model = ModelBuilder::new(&netlist).build(); // exact
        for (sp, st) in [(0.5, 0.3), (0.3, 0.25), (0.7, 0.15)] {
            let analytic = model.expected_capacitance(sp, st).femtofarads();
            let mut source = MarkovSource::new(netlist.num_inputs(), sp, st, 31).expect("feasible");
            let patterns = source.sequence(30_000);
            let trace = sim.switching_trace(&patterns);
            let simulated = trace.iter().map(|c| c.femtofarads()).sum::<f64>() / trace.len() as f64;
            let re = (analytic - simulated).abs() / simulated;
            assert!(
                re < 0.04,
                "{} at (sp={sp}, st={st}): analytic {analytic:.2} vs MC {simulated:.2} (re {re:.3})",
                netlist.name()
            );
        }
    }
}
