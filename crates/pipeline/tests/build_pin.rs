//! The construction workload's models and work counts, pinned.
//!
//! `perf --workload build` times three cold builds: x1 average at `MAX`
//! 600, alu2 average at `MAX` 2000 and an alu4 upper bound at `MAX` 3000.
//! A change that makes construction cheaper must not move what it
//! builds, nor the symbolic work it does. This test builds the three
//! through `PipelineCtx::build_model` and pins, per model, the digest of
//! its `.cfm` bytes (the `report` line's CPU-seconds field left out), the
//! apply steps and the peak live-node count its `ApplyStats` sink saw.
//!
//! The builds take about 16 s unoptimised; CI also runs this test with
//! `--release`.

use charfree_core::hashing::Fnv128;
use charfree_netlist::{benchmarks, Library};
use charfree_pipeline::{BuildOptions, PipelineCtx};

/// Builds `bench` at `MAX` `max_nodes` the way `charfree model` does and
/// returns the `.cfm` digest (CPU field dropped), the apply steps and the
/// peak live nodes.
fn build(bench: &str, max_nodes: usize, upper_bound: bool) -> (String, u64, u64) {
    let library = Library::test_library();
    let netlist = benchmarks::by_name(bench, &library).expect("Table 1 name");
    let options = BuildOptions {
        max_nodes: Some(max_nodes),
        upper_bound,
        ..BuildOptions::default()
    };
    let mut ctx = PipelineCtx::new(library).with_options(options);
    let model = ctx.build_model(&netlist).expect("builds");
    let mut bytes = Vec::new();
    model.save(&mut bytes).expect("saves");
    let text = String::from_utf8(bytes).expect("the .cfm format is text");
    let mut digest = Fnv128::new();
    for line in text.lines() {
        let line = match line.strip_prefix("report ") {
            Some(fields) => fields.rsplit_once(' ').expect("cpu field").0,
            None => line,
        };
        digest.section(line.as_bytes());
    }
    let stats = ctx.apply_stats();
    (
        format!("{:032x}", digest.finish_u128()),
        stats.apply_steps(),
        stats.peak_live_nodes(),
    )
}

#[test]
fn build_workload_models_and_work_are_pinned() {
    let got = [
        build("x1", 600, false),
        build("alu2", 2000, false),
        build("alu4", 3000, true),
    ];
    let got = got.each_ref().map(|(d, s, p)| (d.as_str(), *s, *p));
    assert_eq!(
        got,
        [
            ("3dc40853c5495fab530ddabecc7fdfd0", 542_264, 118_591),
            ("a6b6176c8b1482a99c85eb0e4514eaca", 43_089, 36_905),
            ("81d50d1a5d776f2c4142e78cb94ce9c5", 217_715, 132_414),
        ],
        "the build workload's models or their apply counts moved"
    );
}
