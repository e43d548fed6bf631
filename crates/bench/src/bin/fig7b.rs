//! Regenerates the paper's Fig. 7b: the accuracy/size trade-off of the
//! ADD power model on cm85 — ARE as a function of the node budget, with
//! the characterized Con and Lin AREs as horizontal reference lines.
//!
//! ```text
//! cargo run --release -p charfree-bench --bin fig7b [-- --vectors N]
//! ```

use charfree_bench::{fig7b, Config};
use charfree_netlist::{benchmarks, Library};

fn main() {
    let mut config = Config::default();
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
    let cm85 = benchmarks::by_name("cm85", &library).expect("Table 1 name");
    let budgets = [5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000];
    let (points, con_are, lin_are) = fig7b(&cm85, &budgets, &config);

    println!(
        "Fig. 7b — ARE vs model size on cm85 ({} vectors/run)",
        config.vectors
    );
    println!("{:>6} {:>6} {:>10}", "MAX", "size", "ARE(%)");
    for p in &points {
        println!("{:>6} {:>6} {:>10.1}", p.max_nodes, p.size, p.are);
    }
    println!("reference: Con ARE = {con_are:.1}%   Lin ARE = {lin_are:.1}%");
}
