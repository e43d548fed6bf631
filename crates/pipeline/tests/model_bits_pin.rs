//! Model bits are pinned to the options version.
//!
//! `BuildOptions::fingerprint` starts with a version line (`options vN`)
//! that stands for the construction algorithm: a change that moves a
//! built model's bits must bump it, or an artifact store warmed by the
//! old code keeps serving the old bits. This test pairs the version
//! line with digests of a few approximated and upper-bound `.cfm`
//! files, so a change that moves model bits without a bump fails here.
//! A deliberate bump re-records the digests next to the new version.

use charfree_core::hashing::Fnv128;
use charfree_netlist::{benchmarks, Library};
use charfree_pipeline::{BuildOptions, PipelineCtx};

/// Builds `bench` at `MAX` `max_nodes` through the pipeline and digests
/// its `.cfm` bytes, leaving out the `report` line's CPU-seconds field
/// (the one wall-clock value in the format).
fn cfm_digest(bench: &str, max_nodes: usize, upper_bound: bool) -> u128 {
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
    digest.finish_u128()
}

#[test]
fn model_bits_move_only_with_the_options_version() {
    let fingerprint = BuildOptions::default().fingerprint();
    let version = fingerprint.lines().next().expect("version line");
    let pinned = [
        cfm_digest("cm85", 500, false),
        cfm_digest("cm85", 500, true),
        cfm_digest("pcle", 1000, false),
    ];
    let digests = pinned.map(|d| format!("{d:032x}"));
    assert_eq!(
        (version, digests.each_ref().map(String::as_str)),
        (
            "options v2",
            [
                "123401ae061097921ebaf27bae5dd861",
                "504f38154c87fd4f5ecf8ea541981506",
                "1866db6ae30bc5532c1c0633e4ee972a",
            ]
        ),
        "model bits moved: bump `options vN` in BuildOptions::fingerprint and re-record"
    );
}
