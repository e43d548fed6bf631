//! Quantifying the parasitic gap: what the zero-delay model cannot see.
//!
//! The paper deliberately models only the *structural* power of a
//! zero-delay golden model; glitches are classified as parasitic phenomena
//! (Section 2). This example measures that gap with the unit-delay
//! simulator: per benchmark circuit, how much switched capacitance is
//! attributable to spurious transitions on a random workload.
//!
//! ```text
//! cargo run --release --example glitch_gap
//! ```

use charfree::netlist::{benchmarks, Library};
use charfree::sim::{MarkovSource, UnitDelaySim, ZeroDelaySim};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let library = Library::test_library();
    println!(
        "{:8} {:>6} {:>6} | {:>14} {:>14} {:>9} {:>8}",
        "circuit", "n", "depth", "zero-delay fF", "unit-delay fF", "glitch %", "settle"
    );
    for netlist in [
        benchmarks::by_name("parity", &library).expect("Table 1 name"),
        benchmarks::by_name("decod", &library).expect("Table 1 name"),
        benchmarks::by_name("cm85", &library).expect("Table 1 name"),
        benchmarks::by_name("mux", &library).expect("Table 1 name"),
        benchmarks::by_name("cm150", &library).expect("Table 1 name"),
        benchmarks::by_name("comp", &library).expect("Table 1 name"),
        benchmarks::by_name("alu2", &library).expect("Table 1 name"),
        benchmarks::mult(4, &library),
    ] {
        let zd = ZeroDelaySim::new(&netlist);
        let ud = UnitDelaySim::new(&netlist);
        let mut source = MarkovSource::new(netlist.num_inputs(), 0.5, 0.5, 5)?;
        let patterns = source.sequence(500);

        let mut zero_total = 0.0f64;
        let mut unit_total = 0.0f64;
        let mut max_settle = 0u32;
        for t in 0..patterns.len() - 1 {
            let z = zd.switching_capacitance(&patterns[t], &patterns[t + 1]);
            let report = ud.simulate_transition(&patterns[t], &patterns[t + 1]);
            zero_total += z.femtofarads();
            unit_total += report.switched.femtofarads();
            max_settle = max_settle.max(report.settle_time);
            assert!(report.switched >= z, "unit delay dominates zero delay");
        }
        println!(
            "{:8} {:>6} {:>6} | {:>14.0} {:>14.0} {:>8.1}% {:>8}",
            netlist.name(),
            netlist.num_inputs(),
            netlist.depth(),
            zero_total,
            unit_total,
            (unit_total - zero_total) / unit_total * 100.0,
            max_settle
        );
    }
    println!(
        "\nThe glitch fraction is the energy share the analytical model cannot\n\
         attribute — the paper's argument for characterizing only this (smooth)\n\
         residual if absolute accuracy is needed."
    );
    Ok(())
}
