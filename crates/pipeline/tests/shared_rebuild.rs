//! The fleet-build contract, end to end: builds routed through one
//! [`SharedTable`] reuse each other's sub-DAGs (warm builds do strictly
//! less symbolic work), and delta rebuilds are **bit-identical** to
//! from-scratch builds.

use charfree_core::PowerModel;
use charfree_dd::SharedTable;
use charfree_netlist::{benchmarks, CellKind, Library, Netlist};
use charfree_pipeline::{netlist_delta, PipelineCtx, Stage};
use std::sync::Arc;

/// A small two-output unit: `f = (a·b) + (c·d)`, `g = (a·b) ⊕ e`. The
/// `a·b` cone is shared; the mutant below rewires only `g`.
fn unit(library: &Library, mutated: bool) -> Netlist {
    let mut n = Netlist::new(if mutated { "unit_mut" } else { "unit" });
    let a = n.add_input("a").expect("fresh name");
    let b = n.add_input("b").expect("fresh name");
    let c = n.add_input("c").expect("fresh name");
    let d = n.add_input("d").expect("fresh name");
    let e = n.add_input("e").expect("fresh name");
    let ab = n.add_gate_named(CellKind::And2, &[a, b], "ab").expect("ok");
    let cd = n.add_gate_named(CellKind::And2, &[c, d], "cd").expect("ok");
    let f = n.add_gate_named(CellKind::Or2, &[ab, cd], "f").expect("ok");
    // The only difference: the mutant re-types g's gate from XOR to NOR.
    let gk = if mutated {
        CellKind::Nor2
    } else {
        CellKind::Xor2
    };
    let g = n.add_gate_named(gk, &[ab, e], "g").expect("ok");
    n.mark_output(f).expect("known signal");
    n.mark_output(g).expect("known signal");
    n.annotate_loads(library);
    n
}

/// All 2^n transitions of an n-input unit, evaluated to f64 bits.
fn eval_bits(model: &impl PowerModel, n: usize) -> Vec<u64> {
    let mut out = Vec::new();
    for xi in 0..1u32 << n {
        for xf in 0..1u32 << n {
            let i: Vec<bool> = (0..n).map(|b| xi >> b & 1 == 1).collect();
            let f: Vec<bool> = (0..n).map(|b| xf >> b & 1 == 1).collect();
            out.push(model.capacitance(&i, &f).femtofarads().to_bits());
        }
    }
    out
}

#[test]
fn builds_through_one_table_share_work_bit_identically() {
    let library = Library::test_library();
    let netlist = benchmarks::by_name("decod", &library).expect("Table 1 name");
    let table = Arc::new(SharedTable::new());

    let mut cold = PipelineCtx::new(library.clone()).with_shared_table(table.clone());
    let m1 = cold.build_model(&netlist).expect("cold build");
    let cold_steps = cold.apply_steps();
    assert!(cold_steps > 0, "cold build does symbolic work");
    assert!(!table.is_empty(), "cold build published sub-DAGs");

    let mut warm = PipelineCtx::new(library.clone()).with_shared_table(table.clone());
    let m2 = warm.build_model(&netlist).expect("warm build");
    assert!(
        warm.apply_steps() < cold_steps,
        "warm build replays from the memo: {} vs {cold_steps}",
        warm.apply_steps()
    );
    let counters = table.counters();
    assert!(counters.table_hits > 0);
    assert!(counters.apply_steps_saved > 0);

    // Bit-identical to the cold build AND to a build that never saw a
    // shared table at all.
    let mut plain = PipelineCtx::new(library);
    let m3 = plain.build_model(&netlist).expect("unshared build");
    assert_eq!(eval_bits(&m1, 5), eval_bits(&m2, 5));
    assert_eq!(eval_bits(&m1, 5), eval_bits(&m3, 5));

    // The counters satellite: the snapshot event is in the telemetry
    // stream (and therefore in `--telemetry json`).
    let json = warm.telemetry.to_json();
    assert!(json.contains("\"event\": \"shared-table\""), "{json}");
    assert!(json.contains("\"table_hits\""), "{json}");
    assert!(json.contains("\"apply_steps_saved\""), "{json}");
}

#[test]
fn delta_rebuild_is_bit_identical_to_from_scratch() {
    let library = Library::test_library();
    let old = unit(&library, false);
    let new = unit(&library, true);
    let delta = netlist_delta(&old, &new);
    // Two descriptions move: `g` itself (re-typed), and `ab` (its load is
    // back-annotated from the pin caps of the gate it feeds).
    assert_eq!(delta.added, 2, "re-typed gate + reloaded fanin");
    assert_eq!(delta.removed, 2);
    assert_eq!(delta.unchanged, 2);

    let mut ctx = PipelineCtx::new(library.clone());
    let steps_before_seed = ctx.apply_steps();
    let delta_model = ctx.rebuild_delta(&old, &new).expect("delta rebuild");
    assert!(ctx.apply_steps() > steps_before_seed, "seed + cone built");
    assert!(ctx.telemetry.stage_ran(Stage::DeltaRebuild));
    let table = ctx.shared_table().expect("rebuild_delta attaches").clone();
    assert_eq!(table.counters().delta_rebuilds, 1);
    assert!(
        table.counters().apply_steps_saved > 0,
        "the unchanged cone replayed from the memo"
    );

    let mut scratch = PipelineCtx::new(library);
    let scratch_model = scratch.build_model(&new).expect("from-scratch build");
    assert_eq!(
        eval_bits(&delta_model, 5),
        eval_bits(&scratch_model, 5),
        "delta rebuild is bit-identical to a fresh build"
    );
}
