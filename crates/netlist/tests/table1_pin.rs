//! Pins the 13 Table 1 circuits to their committed BLIF text.
//!
//! `blif::write` of a benchmark is the artifact-key input and the total
//! load feeds every switched-capacitance number, so both are compared
//! exactly: the bytes against `crates/netlist/benchmarks/<name>.blif`,
//! the load through `f64::to_bits`.

use charfree_netlist::{benchmarks, blif, Library};

const PINS: [(&str, &str, u64); 13] = [
    (
        "alu2",
        include_str!("../benchmarks/alu2.blif"),
        0x4080200000000000,
    ),
    (
        "alu4",
        include_str!("../benchmarks/alu4.blif"),
        0x4088200000000000,
    ),
    (
        "cmb",
        include_str!("../benchmarks/cmb.blif"),
        0x4070400000000000,
    ),
    (
        "cm150",
        include_str!("../benchmarks/cm150.blif"),
        0x4080f80000000000,
    ),
    (
        "cm85",
        include_str!("../benchmarks/cm85.blif"),
        0x4073600000000000,
    ),
    (
        "comp",
        include_str!("../benchmarks/comp.blif"),
        0x4093e00000000000,
    ),
    (
        "decod",
        include_str!("../benchmarks/decod.blif"),
        0x4082200000000000,
    ),
    (
        "k2",
        include_str!("../benchmarks/k2.blif"),
        0x40d5498000000000,
    ),
    (
        "mux",
        include_str!("../benchmarks/mux.blif"),
        0x4065200000000000,
    ),
    (
        "parity",
        include_str!("../benchmarks/parity.blif"),
        0x4066c00000000000,
    ),
    (
        "pcle",
        include_str!("../benchmarks/pcle.blif"),
        0x4072d00000000000,
    ),
    (
        "x1",
        include_str!("../benchmarks/x1.blif"),
        0x40aeea0000000000,
    ),
    (
        "x2",
        include_str!("../benchmarks/x2.blif"),
        0x4087680000000000,
    ),
];

#[test]
fn table1_circuits_match_their_committed_blif_and_loads() {
    let library = Library::test_library();
    for (name, text, load_bits) in PINS {
        let netlist = benchmarks::by_name(name, &library).expect("Table 1 name");
        assert!(
            blif::write(&netlist) == text,
            "{name}: bytes differ from committed BLIF"
        );
        let total = netlist.total_load().femtofarads();
        assert_eq!(total.to_bits(), load_bits, "{name}: total load {total}");
    }
}

#[test]
fn table1_circuits_come_in_the_papers_order() {
    let library = Library::test_library();
    let names: Vec<String> = benchmarks::table1_circuits(&library)
        .iter()
        .map(|n| n.name().to_owned())
        .collect();
    let want: Vec<&str> = PINS.iter().map(|(name, _, _)| *name).collect();
    assert_eq!(names, want);
}
