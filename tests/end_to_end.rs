//! End-to-end pipelines: BLIF → mapped netlist → power models → accuracy
//! evaluation → RTL composition, mirroring how a downstream user would
//! adopt the library.

use charfree::netlist::{benchmarks, blif, Library};
use charfree::sim::{statistics_grid, MarkovSource, ZeroDelaySim};
use charfree::{
    evaluate, ApproxStrategy, ConstantModel, LinearModel, ModelBuilder, PowerModel, Protocol,
    RtlDesign, TrainingSet,
};

const MAJ_BLIF: &str = "\
.model maj5
.inputs a b c d e
.outputs m
.names a b c d e m
111-- 1
11-1- 1
11--1 1
1-11- 1
1-1-1 1
1--11 1
-111- 1
-11-1 1
-1-11 1
--111 1
.end
";

#[test]
fn blif_to_power_model_pipeline() {
    let library = Library::test_library();
    let mut netlist = blif::parse(MAJ_BLIF).expect("valid blif");
    netlist.annotate_loads(&library);
    assert!(netlist.num_gates() > 5);

    let sim = ZeroDelaySim::new(&netlist);
    let model = ModelBuilder::new(&netlist).build();
    assert!(model.report().exact);

    // Every pair over 5 inputs.
    for (xi, xf) in charfree::sim::ExhaustivePairs::new(5) {
        assert_eq!(
            model.capacitance(&xi, &xf),
            sim.switching_capacitance(&xi, &xf)
        );
    }

    // Round-trip through the writer and re-model: same power behavior.
    let text = blif::write(&netlist);
    let mut back = blif::parse(&text).expect("round-trips");
    back.annotate_loads(&library);
    let sim2 = ZeroDelaySim::new(&back);
    for (xi, xf) in charfree::sim::ExhaustivePairs::new(5) {
        assert_eq!(
            sim.switching_capacitance(&xi, &xf),
            sim2.switching_capacitance(&xi, &xf)
        );
    }
}

#[test]
fn accuracy_ordering_matches_the_paper() {
    // The paper's headline (Table 1): ADD ≪ Lin < Con on out-of-sample ARE.
    let library = Library::test_library();
    let netlist = benchmarks::by_name("cm85", &library).expect("Table 1 name");
    let sim = ZeroDelaySim::new(&netlist);
    let training = TrainingSet::sample(&sim, 4000, 3);
    let con = ConstantModel::fit(&training);
    let lin = LinearModel::fit(&training);
    let add = ModelBuilder::new(&netlist).max_nodes(500).build();
    let eval = evaluate(
        &[&con, &lin, &add],
        &sim,
        &statistics_grid(),
        2000,
        Protocol::AveragePower,
        5,
    );
    let (con_are, lin_are, add_are) = (eval.are[0], eval.are[1], eval.are[2]);
    assert!(add_are < 0.10, "ADD ARE should be small, got {add_are}");
    assert!(
        lin_are > 2.0 * add_are,
        "Lin ({lin_are}) should be well above ADD ({add_are})"
    );
    assert!(con_are > lin_are, "Con ({con_are}) worst of all");
}

#[test]
fn upper_bound_protocol_is_conservative_on_runs() {
    let library = Library::test_library();
    let netlist = benchmarks::by_name("mux", &library).expect("Table 1 name");
    let sim = ZeroDelaySim::new(&netlist);
    let bound = ModelBuilder::new(&netlist)
        .max_nodes(2000)
        .strategy(ApproxStrategy::UpperBound)
        .build();
    let con_max = ConstantModel::from_capacitance(bound.max_capacitance(), "Con");
    let eval = evaluate(
        &[&con_max, &bound],
        &sim,
        &statistics_grid(),
        1500,
        Protocol::MaximumPower,
        6,
    );
    for p in &eval.points {
        assert!(p.estimates[0] >= p.reference - 1e-9, "constant bound");
        assert!(p.estimates[1] >= p.reference - 1e-9, "ADD bound");
        assert!(p.estimates[1] <= p.estimates[0] + 1e-9, "ADD ≤ its own max");
    }
    assert!(eval.are[1] <= eval.are[0] + 1e-12);
}

#[test]
fn rtl_composition_bounds_a_two_macro_design() {
    let library = Library::test_library();
    let dec = benchmarks::by_name("decod", &library).expect("Table 1 name");
    let par = benchmarks::by_name("parity", &library).expect("Table 1 name");

    let mut design = RtlDesign::new(21);
    design
        .add_instance(
            "dec",
            ModelBuilder::new(&dec)
                .max_nodes(400)
                .strategy(ApproxStrategy::UpperBound)
                .build(),
            (0..5).collect(),
        )
        .expect("ok");
    design
        .add_instance(
            "par",
            ModelBuilder::new(&par)
                .max_nodes(2000)
                .strategy(ApproxStrategy::UpperBound)
                .build(),
            (5..21).collect(),
        )
        .expect("ok");

    let dec_sim = ZeroDelaySim::new(&dec);
    let par_sim = ZeroDelaySim::new(&par);
    let mut source = MarkovSource::new(21, 0.5, 0.3, 8).expect("feasible");
    let patterns = source.sequence(500);
    let worst = design.worst_case_sum().femtofarads();
    let mut peak_bound = 0.0f64;
    for t in 0..patterns.len() - 1 {
        let (xi, xf) = (&patterns[t], &patterns[t + 1]);
        let b = design.capacitance(xi, xf).femtofarads();
        let truth = dec_sim
            .switching_capacitance(&xi[..5], &xf[..5])
            .femtofarads()
            + par_sim
                .switching_capacitance(&xi[5..], &xf[5..])
                .femtofarads();
        assert!(b >= truth - 1e-9, "composed bound must dominate");
        assert!(b <= worst + 1e-9, "and stay below the worst-case sum");
        peak_bound = peak_bound.max(b);
    }
    assert!(
        peak_bound < worst,
        "pattern dependence must buy something: {peak_bound} vs {worst}"
    );
}

#[test]
fn characterization_free_means_no_simulation_for_the_add_model() {
    // Build models for every Table 1 circuit except the two largest; no
    // TrainingSet / simulator is ever constructed on this path.
    let library = Library::test_library();
    for name in [
        "cmb", "cm150", "cm85", "decod", "mux", "parity", "pcle", "x2",
    ] {
        let netlist = benchmarks::by_name(name, &library).expect("known");
        let model = ModelBuilder::new(&netlist).max_nodes(500).build();
        assert!(model.size() <= 500, "{name}");
        assert!(model.average_capacitance().femtofarads() > 0.0, "{name}");
        assert!(model.max_capacitance() <= netlist.total_load(), "{name}");
    }
}
