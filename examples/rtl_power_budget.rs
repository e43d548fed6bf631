//! RT-level power budgeting with composed pattern-dependent upper bounds
//! (the paper's Section 1.2 argument).
//!
//! Builds a small RTL datapath — an ALU, an operand comparator and an
//! address decoder sharing a 16-bit input bus — with a conservative
//! upper-bound model per macro, and contrasts three worst-case estimates
//! over a realistic workload:
//!
//! 1. the naive sum of per-macro worst cases (pattern-independent),
//! 2. the composed pattern-dependent upper bound per cycle,
//! 3. the true gate-level per-cycle energy.
//!
//! ```text
//! cargo run --release --example rtl_power_budget
//! ```

use charfree::netlist::units::Voltage;
use charfree::netlist::{benchmarks, Library};
use charfree::sim::{MarkovSource, ZeroDelaySim};
use charfree::{ApproxStrategy, ModelBuilder, RtlDesign};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let library = Library::test_library();
    let alu = benchmarks::by_name("alu2", &library).expect("Table 1 name"); // 10 inputs
    let comp_unit = benchmarks::by_name("cm85", &library).expect("Table 1 name"); // 11 inputs
    let dec = benchmarks::by_name("decod", &library).expect("Table 1 name"); // 5 inputs

    // Conservative per-macro models.
    let bound = |netlist: &charfree::netlist::Netlist, max: usize| {
        ModelBuilder::new(netlist)
            .max_nodes(max)
            .strategy(ApproxStrategy::UpperBound)
            .build()
    };

    // A 16-bit bus: ALU reads bits 0..10, comparator bits 5..16, decoder
    // bits 11..16 — deliberately overlapping, as RTL operands do.
    let mut design = RtlDesign::new(16);
    design.add_instance("alu0", bound(&alu, 2000), (0..10).collect())?;
    design.add_instance("cmp0", bound(&comp_unit, 2000), (5..16).collect())?;
    design.add_instance("dec0", bound(&dec, 500), (11..16).collect())?;

    let worst_sum = design.worst_case_sum();
    println!(
        "datapath: {} macros on a 16-bit bus",
        design.instances().len()
    );
    println!("naive worst-case budget (sum of per-macro maxima): {worst_sum}");

    // A realistic bus workload: moderate activity.
    let mut source = MarkovSource::new(16, 0.5, 0.2, 11)?;
    let patterns = source.sequence(2_000);

    // Golden per-cycle energies, macro by macro.
    let sims = [
        (ZeroDelaySim::new(&alu), 0usize..10),
        (ZeroDelaySim::new(&comp_unit), 5..16),
        (ZeroDelaySim::new(&dec), 11..16),
    ];

    let vdd = Voltage::VDD_3V3;
    let mut peak_bound = 0.0f64;
    let mut peak_true = 0.0f64;
    let mut sum_bound = 0.0f64;
    let mut sum_true = 0.0f64;
    let mut violations = 0usize;
    for t in 0..patterns.len() - 1 {
        let (xi, xf) = (&patterns[t], &patterns[t + 1]);
        let b = design.capacitance(xi, xf).femtofarads();
        let truth: f64 = sims
            .iter()
            .map(|(sim, range)| {
                sim.switching_capacitance(&xi[range.clone()], &xf[range.clone()])
                    .femtofarads()
            })
            .sum();
        if b < truth - 1e-9 {
            violations += 1;
        }
        peak_bound = peak_bound.max(b);
        peak_true = peak_true.max(truth);
        sum_bound += b;
        sum_true += truth;
    }
    let cycles = (patterns.len() - 1) as f64;

    println!("\nover a 2000-cycle workload (sp = 0.5, st = 0.2):");
    println!("  true peak switched capacitance:           {peak_true:>9.1} fF");
    println!("  composed pattern-dependent bound (peak):  {peak_bound:>9.1} fF");
    println!(
        "  naive worst-case budget:                   {:>9.1} fF",
        worst_sum.femtofarads()
    );
    println!(
        "  -> the pattern-dependent budget is {:.1}x tighter than the naive one",
        worst_sum.femtofarads() / peak_bound
    );
    println!(
        "  average energy/cycle: true {:.1} fJ, bound {:.1} fJ (Vdd = {vdd})",
        sum_true / cycles * vdd.volts() * vdd.volts(),
        sum_bound / cycles * vdd.volts() * vdd.volts()
    );
    println!("  conservativeness violations: {violations} (must be 0)");
    assert_eq!(violations, 0, "upper bounds must never under-estimate");
    Ok(())
}
