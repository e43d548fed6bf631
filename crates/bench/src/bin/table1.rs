//! Regenerates the paper's Table 1: per-circuit ARE of the Con / Lin / ADD
//! average-power estimators and of the constant vs pattern-dependent
//! upper bounds, with the `MAX` budgets and construction CPU time (median
//! and spread of `CPU_BUILDS` cold builds, and their apply steps).
//!
//! ```text
//! cargo run --release -p charfree-bench --bin table1 [-- circuit ...]
//!     [--vectors N]   vectors per run (default 10000)
//!     [--quick]       2000 vectors and skip k2 / x1 (fast smoke run)
//! ```

use charfree_bench::{circuits, format_table1, table1_row, Config};

fn main() {
    let mut config = Config::default();
    let mut filter: Vec<String> = Vec::new();
    let mut quick = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--vectors" => {
                config.vectors = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--vectors takes a number");
            }
            "--quick" => quick = true,
            name => filter.push(name.to_owned()),
        }
    }
    if quick {
        config.vectors = 2000;
        config.training_vectors = 2000;
    }

    let mut rows = Vec::new();
    for (netlist, avg_max, ub_max) in circuits(&filter) {
        if quick && matches!(netlist.name(), "k2" | "x1") {
            eprintln!("[skip] {} (--quick)", netlist.name());
            continue;
        }
        eprintln!(
            "[run ] {} (n={}, N={})",
            netlist.name(),
            netlist.num_inputs(),
            netlist.num_gates()
        );
        rows.push(table1_row(&netlist, avg_max, ub_max, &config));
    }

    println!(
        "Table 1 — average estimators and upper bounds ({} vectors/run)",
        config.vectors
    );
    println!("{}", format_table1(&rows));
    println!("(left block: ARE on average power; right block: ARE on maximum power)");
}
