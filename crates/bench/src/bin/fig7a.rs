//! Regenerates the paper's Fig. 7a: relative error of the Con, Lin and ADD
//! power estimators on cm85 as a function of the input transition
//! probability `st` (at `sp = 0.5`, ADD built with `MAX = 500`). Then
//! times the same model's evaluation against gate-level simulation (the
//! paper's "negligible evaluation cost" claim).
//!
//! ```text
//! cargo run --release -p charfree-bench --bin fig7a [-- --vectors N]
//! ```

use charfree_bench::{eval_cost, fig7a, Config, EVAL_COST_TRANSITIONS};
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
    let eval = fig7a(&cm85, 500, &config);

    println!(
        "Fig. 7a — RE(st) at sp = 0.5 on cm85, ADD MAX = 500 ({} vectors/run)",
        config.vectors
    );
    println!(
        "{:>5} {:>10} {:>10} {:>10}",
        "st", "Con RE(%)", "Lin RE(%)", "ADD RE(%)"
    );
    for p in &eval.points {
        println!(
            "{:>5.2} {:>10.1} {:>10.1} {:>10.1}",
            p.st,
            p.relative_errors[0] * 100.0,
            p.relative_errors[1] * 100.0,
            p.relative_errors[2] * 100.0
        );
    }
    println!(
        "ARE over the sweep: Con = {:.1}%  Lin = {:.1}%  ADD = {:.1}%",
        eval.are_percent(0).expect("model column"),
        eval.are_percent(1).expect("model column"),
        eval.are_percent(2).expect("model column")
    );

    let cost = eval_cost(&cm85, 500, &config);
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!();
    println!(
        "Evaluation cost on cm85, ADD MAX = 500: {} nodes, kernel depth {} (at most 2n = {})",
        cost.model_nodes,
        cost.kernel_depth,
        2 * cm85.num_inputs()
    );
    println!(
        "ns/transition over {EVAL_COST_TRANSITIONS} Markov transitions, best of 5, \
         host_cores {host_cores}:"
    );
    for (label, ns) in [
        ("scalar gate-level sim", cost.scalar_sim_ns),
        ("word-parallel gate-level sim", cost.word_sim_ns),
        ("compiled kernel, 1 job", cost.kernel_ns),
    ] {
        println!("{label:<30} {ns:>8.1}");
    }
    println!(
        "kernel speed-up: {:.1}x over scalar sim, {:.1}x over word-parallel sim",
        cost.scalar_sim_ns / cost.kernel_ns,
        cost.word_sim_ns / cost.kernel_ns
    );
}
