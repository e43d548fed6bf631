//! IP-safe power datasheets: persist a model without the netlist.
//!
//! The paper's Section 2 argument: a direct representation of `C(xⁱ,xᶠ)`
//! can back-annotate a macro's functional view without exposing its
//! gate-level implementation. This example builds models for a macro,
//! saves them as `charfree-model v1` artifacts, reloads them *without any
//! netlist in scope*, and answers datasheet queries — average, worst case,
//! peak spectrum, "what can exceed X fF?" — from the artifact alone.
//!
//! ```text
//! cargo run --release --example model_datasheet
//! ```

use charfree::netlist::units::Capacitance;
use charfree::netlist::{benchmarks, Library};
use charfree::{AddPowerModel, ApproxStrategy, ModelBuilder, PowerModel};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---- vendor side: the netlist is visible here only -----------------
    let artifact: Vec<u8> = {
        let library = Library::test_library();
        let macro_netlist = benchmarks::by_name("alu2", &library).expect("Table 1 name");
        let model = ModelBuilder::new(&macro_netlist).max_nodes(3000).build();
        println!(
            "vendor built `{}` power model: {} nodes, {:.2}s, exact: {}",
            macro_netlist.name(),
            model.size(),
            model.report().cpu.as_secs_f64(),
            model.report().exact
        );
        let mut buf = Vec::new();
        model.save(&mut buf)?;
        println!("artifact size: {} bytes (no netlist inside)\n", buf.len());
        buf
    };

    // ---- integrator side: only the artifact ----------------------------
    let model = AddPowerModel::load(artifact.as_slice())?;
    println!(
        "integrator loaded `{}` ({} inputs)",
        model.name(),
        model.num_inputs()
    );
    println!(
        "  average switched capacitance: {:.1} fF",
        model.average_capacitance().femtofarads()
    );
    println!(
        "  worst case: {:.1} fF",
        model.max_capacitance().femtofarads()
    );

    println!("\n  peak spectrum (top 5 levels):");
    for level in model.peak_spectrum(5) {
        println!(
            "    {:>7.1} fF  x{:<10} e.g. {:?} -> {:?}",
            level.capacitance.femtofarads(),
            level.count,
            level
                .witness
                .0
                .iter()
                .map(|&b| u8::from(b))
                .collect::<Vec<_>>(),
            level
                .witness
                .1
                .iter()
                .map(|&b| u8::from(b))
                .collect::<Vec<_>>()
        );
    }

    let threshold = Capacitance(model.max_capacitance().femtofarads() * 0.8);
    let (count, _) = model.transitions_above(threshold, 0);
    println!(
        "\n  transitions above 80% of peak ({threshold}): {count} of {} ({:.3}%)",
        4f64.powi(model.num_inputs() as i32),
        count / 4f64.powi(model.num_inputs() as i32) * 100.0
    );

    // The integrator can also derive smaller variants without the vendor.
    let compact = AddPowerModel::load(artifact.as_slice())?.shrink(200, ApproxStrategy::Average);
    println!(
        "\n  derived 200-node variant locally: {} nodes, avg {:.1} fF",
        compact.size(),
        compact.average_capacitance().femtofarads()
    );
    let xi = vec![false; model.num_inputs()];
    let xf = vec![true; model.num_inputs()];
    println!(
        "  spot transition: full model {:.1} fF, compact {:.1} fF",
        model.capacitance(&xi, &xf).femtofarads(),
        compact.capacitance(&xi, &xf).femtofarads()
    );
    Ok(())
}
