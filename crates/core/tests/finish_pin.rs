//! Model bits of the finishing pass, pinned.
//!
//! A model is finished in one of two places: at the end of a build
//! (`PartialBuild::collapse`) or by a later `AddPowerModel::shrink`. Both
//! enforce a size ceiling, gate the no-transition diagonal and
//! recalibrate average leaves. These tests digest the `.cfm` bytes of
//! shrunk, degraded and bounded models so that a change to either path
//! that moves a single model bit fails here. The `report` line's
//! CPU-seconds field (the one wall-clock value in the format) is left
//! out of each digest.

use charfree_core::hashing::Fnv128;
use charfree_core::{AddPowerModel, ApproxStrategy, DegradationRung, ModelBuilder, Resource};
use charfree_netlist::{benchmarks, Library, Netlist};

fn netlist(name: &str) -> Netlist {
    benchmarks::by_name(name, &Library::test_library()).expect("Table 1 name")
}

/// Digest of `model`'s `.cfm` bytes without the CPU field. The report's
/// size, which the format does not carry, is checked on the way.
fn digest(model: &AddPowerModel) -> String {
    assert_eq!(model.report().final_size, model.size());
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
    format!("{:032x}", digest.finish_u128())
}

/// The paper's plain configuration: uniform measure, no diagonal gating,
/// no leaf recalibration.
fn plain(builder: ModelBuilder<'_>) -> ModelBuilder<'_> {
    builder
        .collapse_toggles(&[0.5])
        .diagonal_gating(false)
        .leaf_recalibration(false)
}

#[test]
fn shrinking_exact_models_is_pinned() {
    let cm85 = netlist("cm85");
    let decod = netlist("decod");
    let pcle = netlist("pcle");
    let exact = |n: &Netlist| ModelBuilder::new(n).build();
    let got = [
        digest(&exact(&cm85).shrink(200, ApproxStrategy::Average)),
        digest(&exact(&cm85).shrink(50, ApproxStrategy::UpperBound)),
        digest(&exact(&cm85).shrink(1, ApproxStrategy::Average)),
        // Below the `4n + 8` floor: no diagonal gating.
        digest(&exact(&decod).shrink(20, ApproxStrategy::Average)),
        digest(&exact(&pcle).shrink(1000, ApproxStrategy::Average)),
    ];
    assert_eq!(
        got.each_ref().map(String::as_str),
        [
            "3fff17541589f71c2c7efd53157dc9a1",
            "02dc890e142a939f1e96cfe08d840654",
            "627d2c452abe4c2e0c2cf97a0cc0fbd1",
            "e9f97e313c8ff9c400b930d70c2d9d9d",
            "4b783b22e3afc56c37792110e00b052d",
        ]
    );
}

#[test]
fn shrinking_approximated_and_plain_models_is_pinned() {
    let cm85 = netlist("cm85");
    let bounded = ModelBuilder::new(&cm85).max_nodes(500).build();
    let plain_exact = plain(ModelBuilder::new(&cm85)).build();
    let got = [
        digest(&bounded.shrink(100, ApproxStrategy::Average)),
        // Built without gating; the shrink decides on its own.
        digest(&plain_exact.shrink(100, ApproxStrategy::Average)),
    ];
    assert_eq!(
        got.each_ref().map(String::as_str),
        [
            "0adf15d49f0957b7132952ef84179caa",
            "6de3bde142dcb67d5a8e594e50920a26",
        ]
    );
}

#[test]
fn degraded_builds_are_pinned() {
    let cm85 = netlist("cm85");
    // The `ModelBuilder::try_build` doc example.
    let tripped = ModelBuilder::new(&cm85)
        .node_budget(400)
        .trip_after(50)
        .try_build()
        .expect("degrades, never fails");
    // The row climbs every rung: sheds, one reorder, then the constant
    // fallback last.
    let report = tripped.degradation().expect("degraded");
    assert_eq!(report.first_trip, Some(Resource::FaultInjection));
    let (last, rest) = report.rungs.split_last().expect("rungs fired");
    let (reorder, sheds) = rest.split_last().expect("a reorder before the fallback");
    assert_eq!(*last, DegradationRung::ConstantFallback);
    assert_eq!(*reorder, DegradationRung::ReorderVariables);
    assert!(!sheds.is_empty());
    assert!(sheds.iter().all(|&r| r == DegradationRung::ShedPartialSums));
    assert_eq!(report.gates_folded, 13);
    let bound = ModelBuilder::new(&cm85)
        .max_nodes(300)
        .strategy(ApproxStrategy::UpperBound)
        .node_budget(2000)
        .trip_after(30)
        .trip_after(5)
        .trip_after(5)
        .try_build()
        .expect("degrades, never fails");
    let got = [digest(&tripped), digest(&bound)];
    assert_eq!(
        got.each_ref().map(String::as_str),
        [
            "d972734daaa049cb6e49e0d7c50bff96",
            "879638a0d73ae05492ec30daf58bd1e3",
        ]
    );
}

#[test]
fn bounded_builds_are_pinned() {
    let cm85 = netlist("cm85");
    let pcle = netlist("pcle");
    let got = [
        digest(&ModelBuilder::new(&cm85).max_nodes(300).build()),
        digest(
            &ModelBuilder::new(&cm85)
                .max_nodes(300)
                .strategy(ApproxStrategy::UpperBound)
                .build(),
        ),
        digest(&plain(ModelBuilder::new(&pcle)).max_nodes(200).build()),
    ];
    assert_eq!(
        got.each_ref().map(String::as_str),
        [
            "9cecf6beac8e9daf71e87145ec05eed2",
            "a8e0f6372a3a003cd1c0866aec8c66ef",
            "73cc2d0965e034741146ffcefaca84bf",
        ]
    );
}
