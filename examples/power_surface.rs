//! The analytic power surface: average power as a *closed-form* function
//! of input statistics, straight from the model — no simulation.
//!
//! With `C(xⁱ,xᶠ)` as an ADD, the expected switched capacitance under any
//! `(sp, st)` operating point is one weighted diagram traversal
//! ([`AddPowerModel::expected_capacitance`]). This example prints the
//! surface for cm85 and spot-checks three points against 20 000-vector
//! Monte-Carlo simulation — the symbolic numbers land inside the sampling
//! noise.
//!
//! ```text
//! cargo run --release --example power_surface
//! ```

use charfree::netlist::{benchmarks, Library};
use charfree::sim::{MarkovSource, ZeroDelaySim};
use charfree::ModelBuilder;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let library = Library::test_library();
    let netlist = benchmarks::by_name("cm85", &library).expect("Table 1 name");
    let model = ModelBuilder::new(&netlist).build(); // exact

    let sps: [f64; 5] = [0.2, 0.35, 0.5, 0.65, 0.8];
    let sts = [0.1, 0.2, 0.3, 0.4];
    println!("analytic average switched capacitance (fF/cycle) for cm85:");
    print!("{:>6}", "sp\\st");
    for st in sts {
        print!("{st:>9.2}");
    }
    println!();
    for sp in sps {
        print!("{sp:>6.2}");
        for st in sts {
            if st <= 2.0 * sp.min(1.0 - sp) {
                print!("{:>9.2}", model.expected_capacitance(sp, st).femtofarads());
            } else {
                print!("{:>9}", "-");
            }
        }
        println!();
    }

    println!("\nMonte-Carlo spot checks (20000 vectors each):");
    let sim = ZeroDelaySim::new(&netlist);
    for (sp, st) in [(0.5, 0.1), (0.35, 0.3), (0.8, 0.2)] {
        let analytic = model.expected_capacitance(sp, st).femtofarads();
        let mut source = MarkovSource::new(netlist.num_inputs(), sp, st, 77)?;
        let patterns = source.sequence(20_000);
        let trace = sim.switching_trace(&patterns);
        let simulated = trace.iter().map(|c| c.femtofarads()).sum::<f64>() / trace.len() as f64;
        println!(
            "  (sp={sp}, st={st}): analytic {analytic:8.3} fF, simulated {simulated:8.3} fF ({:+.2}%)",
            (analytic - simulated) / simulated * 100.0
        );
    }
    println!("\nThe analytic numbers need no vectors at all — this is what the");
    println!("paper means by a model whose accuracy does not depend on input");
    println!("statistics: the statistics are an *argument*, not an assumption.");
    Ok(())
}
