//! [`Kernel::from_cfm`] reads a `.cfm` straight into instructions, with
//! no manager. On every file a build writes it must give the kernel
//! [`Kernel::compile`] makes of the model [`AddPowerModel::load`] reads
//! from the same bytes, down to its [`Kernel::save`] bytes: on every
//! model the pin tests hold (`model_stats_pin.rs`, `model_bits_pin.rs`,
//! `finish_pin.rs`) and on exact and approximated models of the Table 1
//! circuits.

use charfree_core::{AddPowerModel, ApproxStrategy, ModelBuilder};
use charfree_engine::Kernel;
use charfree_netlist::{benchmarks, Library, Netlist};

fn netlist(name: &str) -> Netlist {
    benchmarks::by_name(name, &Library::test_library()).expect("Table 1 name")
}

fn saved(kernel: &Kernel) -> Vec<u8> {
    let mut bytes = Vec::new();
    kernel.save(&mut bytes).expect("saves");
    bytes
}

fn assert_equivalent(label: &str, model: &AddPowerModel) {
    let mut cfm = Vec::new();
    model.save(&mut cfm).expect("saves");
    let loaded = AddPowerModel::load(cfm.as_slice()).expect("loads");
    let compiled = Kernel::compile(&loaded);
    let read = Kernel::from_cfm(cfm.as_slice()).expect("reads");
    assert_eq!(saved(&read), saved(&compiled), "{label}: save bytes");
    assert_eq!(read.depth(), compiled.depth(), "{label}: depth");
    assert_eq!(read.walks(), compiled.walks(), "{label}: evaluator");
}

fn plain(builder: ModelBuilder<'_>) -> ModelBuilder<'_> {
    builder
        .collapse_toggles(&[0.5])
        .diagonal_gating(false)
        .leaf_recalibration(false)
}

#[test]
fn pinned_models_read_as_their_compiled_kernels() {
    let (cm85, decod, pcle) = (netlist("cm85"), netlist("decod"), netlist("pcle"));
    let exact = |n: &Netlist| ModelBuilder::new(n).build();
    let bounded = |n: &Netlist, max: usize| ModelBuilder::new(n).max_nodes(max).build();
    let upper = |n: &Netlist, max: usize| {
        ModelBuilder::new(n)
            .max_nodes(max)
            .strategy(ApproxStrategy::UpperBound)
            .build()
    };
    let tripped = ModelBuilder::new(&cm85)
        .node_budget(400)
        .trip_after(50)
        .try_build()
        .expect("degrades, never fails");
    let bound = ModelBuilder::new(&cm85)
        .max_nodes(300)
        .strategy(ApproxStrategy::UpperBound)
        .node_budget(2000)
        .trip_after(30)
        .trip_after(5)
        .trip_after(5)
        .try_build()
        .expect("degrades, never fails");
    let models = [
        // model_stats_pin.rs (and model_bits_pin.rs's cm85 pair)
        ("decod exact", exact(&decod)),
        ("cm85 exact", exact(&cm85)),
        ("cm85 MAX 500", bounded(&cm85, 500)),
        ("cm85 MAX 500 UB", upper(&cm85, 500)),
        // model_bits_pin.rs
        ("pcle MAX 1000", bounded(&pcle, 1000)),
        // finish_pin.rs
        (
            "cm85 shrink 200",
            exact(&cm85).shrink(200, ApproxStrategy::Average),
        ),
        (
            "cm85 shrink 50 UB",
            exact(&cm85).shrink(50, ApproxStrategy::UpperBound),
        ),
        (
            "cm85 shrink 1",
            exact(&cm85).shrink(1, ApproxStrategy::Average),
        ),
        (
            "decod shrink 20",
            exact(&decod).shrink(20, ApproxStrategy::Average),
        ),
        (
            "pcle shrink 1000",
            exact(&pcle).shrink(1000, ApproxStrategy::Average),
        ),
        (
            "cm85 MAX 500 shrink 100",
            bounded(&cm85, 500).shrink(100, ApproxStrategy::Average),
        ),
        (
            "plain cm85 shrink 100",
            plain(ModelBuilder::new(&cm85))
                .build()
                .shrink(100, ApproxStrategy::Average),
        ),
        ("cm85 tripped", tripped),
        ("cm85 MAX 300 UB tripped", bound),
        ("cm85 MAX 300", bounded(&cm85, 300)),
        ("cm85 MAX 300 UB", upper(&cm85, 300)),
        (
            "plain pcle MAX 200",
            plain(ModelBuilder::new(&pcle)).max_nodes(200).build(),
        ),
    ];
    for (label, model) in &models {
        assert_equivalent(label, model);
    }
}

/// Every Table 1 circuit approximated at `MAX` 500, and exactly where
/// the exact build takes seconds (alu4, k2 and x1 do not).
#[test]
fn table1_models_read_as_their_compiled_kernels() {
    let library = Library::test_library();
    for netlist in benchmarks::table1_circuits(&library) {
        let name = netlist.name().to_owned();
        assert_equivalent(
            &format!("{name} MAX 500"),
            &ModelBuilder::new(&netlist).max_nodes(500).build(),
        );
        if !["alu4", "k2", "x1"].contains(&name.as_str()) {
            assert_equivalent(
                &format!("{name} exact"),
                &ModelBuilder::new(&netlist).build(),
            );
        }
    }
}
