//! Ablation study for the refinements of DESIGN.md §5: ARE of the ADD
//! model with each refinement switched off, on a few representative
//! circuits.
//!
//! ```text
//! cargo run --release -p charfree-bench --bin ablation [-- --vectors N]
//! ```

use charfree_bench::{ablation, Config};
use charfree_netlist::{benchmarks, Library};

fn main() {
    let mut config = Config {
        vectors: 4000,
        ..Default::default()
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--vectors" {
            config.vectors = args
                .next()
                .and_then(|v| v.parse().ok())
                .expect("--vectors takes a number");
        }
    }

    let library = Library::test_library();
    for (netlist, max) in [
        (
            benchmarks::by_name("cm85", &library).expect("Table 1 name"),
            500usize,
        ),
        (
            benchmarks::by_name("decod", &library).expect("Table 1 name"),
            200,
        ),
        (
            benchmarks::by_name("mux", &library).expect("Table 1 name"),
            1000,
        ),
    ] {
        println!(
            "== {} (MAX = {max}, {} vectors/run) ==",
            netlist.name(),
            config.vectors
        );
        for (name, are) in ablation(&netlist, max, &config) {
            println!("  {name:50} ARE = {are:6.1}%");
        }
    }
}
