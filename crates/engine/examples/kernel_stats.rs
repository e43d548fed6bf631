//! Prints compiled-kernel statistics (instruction count, footprint,
//! fixed walk depth) for the benchmark circuits — handy for sizing
//! expectations before a `perf` run.
//!
//! ```text
//! cargo run --release -p charfree-engine --example kernel_stats
//! ```

use charfree_core::ModelBuilder;
use charfree_engine::Kernel;
use charfree_netlist::{benchmarks, Library};

fn main() {
    let library = Library::test_library();
    println!(
        "{:<8} {:>6} {:>8} {:>10} {:>6} {:>6}",
        "circuit", "inputs", "instrs", "terminals", "bytes", "depth"
    );
    for (name, max) in [
        ("decod", 0usize),
        ("cm85", 500),
        ("cm150", 1000),
        ("mux", 1000),
    ] {
        let netlist = benchmarks::by_name(name, &library).expect("known benchmark");
        let mut builder = ModelBuilder::new(&netlist);
        if max > 0 {
            builder = builder.max_nodes(max);
        }
        let model = builder.build();
        let kernel = Kernel::compile(&model);
        println!(
            "{:<8} {:>6} {:>8} {:>10} {:>6} {:>6}",
            name,
            kernel.num_inputs(),
            kernel.num_instrs(),
            kernel.num_terminals(),
            kernel.bytes(),
            kernel.depth()
        );
    }
}
