//! Whole-model statistics and kernel bytes are pinned.
//!
//! `model_bits_pin.rs` digests approximated `.cfm` files; nothing there
//! reads the symbolic queries a built model answers. This test pins, for
//! an exact and an approximated model of each kind, the `Kernel::save`
//! bytes the model compiles to together with `average_capacitance`,
//! `max_capacitance`, `expected_capacitance(0.3, 0.2)` (all by
//! `to_bits`) and the `worst_case_transition` the model reports. A
//! change to how those statistics are computed must keep every bit.

use charfree_core::hashing::Fnv128;
use charfree_core::AddPowerModel;
use charfree_netlist::{benchmarks, Library};
use charfree_pipeline::{BuildOptions, PipelineCtx};

/// Builds `bench` through the pipeline under `max_nodes` / `upper_bound`.
fn build(bench: &str, max_nodes: Option<usize>, upper_bound: bool) -> (PipelineCtx, AddPowerModel) {
    let library = Library::test_library();
    let netlist = benchmarks::by_name(bench, &library).expect("Table 1 name");
    let options = BuildOptions {
        max_nodes,
        upper_bound,
        ..BuildOptions::default()
    };
    let mut ctx = PipelineCtx::new(library).with_options(options);
    let model = ctx.build_model(&netlist).expect("builds");
    (ctx, model)
}

/// One line per model: the kernel digest, the four statistics' bits and
/// the worst-case transition as `xi/xf` bit strings.
fn stats_line(bench: &str, max_nodes: Option<usize>, upper_bound: bool) -> String {
    let (mut ctx, model) = build(bench, max_nodes, upper_bound);
    let kernel = ctx.compile_kernel_from(&model);
    let mut bytes = Vec::new();
    kernel.save(&mut bytes).expect("saves");
    let mut digest = Fnv128::new();
    digest.section(&bytes);
    let bits = |v: &[bool]| {
        v.iter()
            .map(|&b| if b { '1' } else { '0' })
            .collect::<String>()
    };
    let (xi, xf) = model.worst_case_transition();
    format!(
        "{:032x} avg {:016x} max {:016x} exp {:016x} worst {}/{}",
        digest.finish_u128(),
        model.average_capacitance().femtofarads().to_bits(),
        model.max_capacitance().femtofarads().to_bits(),
        model.expected_capacitance(0.3, 0.2).femtofarads().to_bits(),
        bits(&xi),
        bits(&xf),
    )
}

#[test]
fn model_statistics_and_kernel_bytes_are_pinned() {
    let got = [
        stats_line("decod", None, false),
        stats_line("cm85", None, false),
        stats_line("cm85", Some(500), false),
        stats_line("cm85", Some(500), true),
    ];
    let want = [
        "1c256f8c91b7bdbc4f05e1a9fd4d9641 avg 4048e40000000000 max 405d800000000000 \
         exp 4035b3a68b19a414 worst 11110/00001",
        "c5c03897c2a8cc51d06c95501d6a48e0 avg 404f032000000000 max 406c000000000000 \
         exp 4042fdc0229bbe90 worst 00000111110/00000000001",
        "d05a01dfb34681fccfc7ac28cd708bcb avg 404e75b282767c72 max 405a2680d4c8541e \
         exp 40425938fd672d66 worst 10000110000/10000000000",
        "69797d288d256ed982394c436f492d52 avg 40657ff98fe56000 max 406c029100000000 \
         exp 406113e9bc7e3618 worst 00000110000/00000000000",
    ];
    assert_eq!(got.each_ref().map(String::as_str), want);
}
