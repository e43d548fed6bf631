//! Fleet-scale build contracts, on generated designs:
//!
//! * a fleet of related combinational circuits (one seeded random DAG
//!   plus small mutants of it, the workload of an ECO loop) built
//!   through one [`SharedTable`] gives the same models, bit for bit, as
//!   cold builds, with fewer total apply steps, and the per-circuit cost
//!   falls as the table fills (the warm second half is cheaper than the
//!   warm first half);
//! * a generated four-stage sequential pipeline reloads every macro
//!   from the artifact store on a warm build (zero apply steps, one hit
//!   per macro), and its fused, unfused, folded and golden-simulator
//!   traces agree by `f64::to_bits`.

use charfree_conform::gen::{seq_blif, CircuitSpec, GenConfig, SeqGenConfig, SplitMix64};
use charfree_core::PowerModel;
use charfree_dd::SharedTable;
use charfree_netlist::{blif, Library, Netlist};
use charfree_pipeline::{ArtifactStore, PipelineCtx};
use charfree_seq::SeqModel;
use charfree_sim::MarkovSource;
use std::sync::Arc;

const FLEET_SEED: u64 = 0xF1EE7;

/// The base circuit every fleet member is a mutant of.
fn base_spec(seed: u64) -> CircuitSpec {
    let cfg = GenConfig {
        num_inputs: 6,
        num_gates: 24,
        window: 7,
    };
    CircuitSpec::random("fleet_base", seed, &cfg)
}

/// The `i`-th fleet member: the base with `1 + i % 3` seeded mutations
/// (alternating gate-kind swaps and fanin rewires). Member 0 is the base
/// itself.
fn fleet_member(base: &CircuitSpec, i: usize, seed: u64) -> CircuitSpec {
    let mut spec = base.clone();
    if i == 0 {
        return spec;
    }
    let mut rng = SplitMix64::new(seed ^ (i as u64).wrapping_mul(0x9e37_79b9));
    for round in 0..1 + i % 3 {
        let j = rng.below(spec.gates.len());
        let s = rng.next_u64();
        spec = if round % 2 == 0 {
            spec.with_gate_kind_swapped(j, s)
        } else {
            spec.with_fanin_rewired(j, s)
        };
    }
    spec.name = format!("fleet_{i}");
    spec
}

/// A seeded sample of transitions, evaluated to f64 bit patterns.
fn sample_bits(model: &impl PowerModel, inputs: usize, seed: u64) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed);
    (0..64)
        .map(|_| {
            let (xi, xf) = (rng.next_u64(), rng.next_u64());
            let i: Vec<bool> = (0..inputs).map(|b| xi >> b & 1 == 1).collect();
            let f: Vec<bool> = (0..inputs).map(|b| xf >> b & 1 == 1).collect();
            model.capacitance(&i, &f).femtofarads().to_bits()
        })
        .collect()
}

/// Builds every netlist in `fleet`, each through a fresh `PipelineCtx`
/// that shares `table` when one is given. Returns the per-circuit apply
/// steps and the sampled evaluation bits.
fn build_fleet(
    library: &Library,
    fleet: &[Netlist],
    table: Option<&Arc<SharedTable>>,
) -> (Vec<u64>, Vec<Vec<u64>>) {
    fleet
        .iter()
        .map(|netlist| {
            let mut ctx = PipelineCtx::new(library.clone());
            if let Some(table) = table {
                ctx = ctx.with_shared_table(Arc::clone(table));
            }
            let model = ctx.build_model(netlist).expect("fleet members build");
            let bits = sample_bits(&model, netlist.inputs().len(), FLEET_SEED);
            (ctx.apply_steps(), bits)
        })
        .unzip()
}

#[test]
fn shared_table_fleet_is_bit_identical_and_gets_cheaper_as_it_fills() {
    let library = Library::test_library();
    let base = base_spec(FLEET_SEED);
    let fleet: Vec<Netlist> = (0..16)
        .map(|i| {
            fleet_member(&base, i, FLEET_SEED)
                .build(&library)
                .expect("fleet mutants stay valid netlists")
        })
        .collect();

    let (cold_steps, cold_bits) = build_fleet(&library, &fleet, None);
    let table = Arc::new(SharedTable::new());
    let (warm_steps, warm_bits) = build_fleet(&library, &fleet, Some(&table));

    assert_eq!(cold_bits, warm_bits, "warm models diverge from cold models");
    let cold: u64 = cold_steps.iter().sum();
    let warm: u64 = warm_steps.iter().sum();
    assert!(warm < cold, "warm pass {warm} not below cold {cold}");
    let (first, second) = warm_steps.split_at(fleet.len() / 2);
    let (first, second) = (first.iter().sum::<u64>(), second.iter().sum::<u64>());
    assert!(
        second < first,
        "warm cost not falling: first half {first}, second half {second}"
    );
}

#[test]
fn generated_pipeline_warm_builds_from_the_store_and_all_traces_agree() {
    let library = Library::test_library();
    let seed = 0x5EC;
    let text = seq_blif(
        "seq_fleet4",
        seed,
        &SeqGenConfig {
            num_inputs: 6,
            stages: 4,
            gates_per_stage: 12,
            latches_per_stage: 2,
        },
    );
    let dir = std::env::temp_dir().join(format!("charfree-fleets-seq-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let build = || {
        let mut ctx = PipelineCtx::new(library.clone()).with_store(ArtifactStore::new(&dir));
        let seq = blif::parse_seq(&text).expect("generated BLIF parses");
        SeqModel::build(&mut ctx, seq).expect("pipeline builds")
    };
    let cold = build();
    let warm = build();
    let _ = std::fs::remove_dir_all(&dir);

    let macros = cold.num_macros();
    assert!(macros >= 10, "only {macros} macros");
    let warm = warm.build_report();
    assert_eq!(warm.apply_steps, 0, "warm build did symbolic work");
    assert_eq!(warm.cache_hits, macros, "one artifact hit per macro");

    let patterns = MarkovSource::new(cold.seq().num_inputs(), 0.5, 0.4, seed)
        .expect("feasible stats")
        .sequence(512);
    let bits = |trace: &[f64]| trace.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let fused = cold.trace_fused(&patterns);
    let unfused = cold.trace_unfused(&patterns, 1);
    assert_eq!(fused.len(), macros);
    for (m, (f, u)) in fused.iter().zip(&unfused).enumerate() {
        assert_eq!(bits(f), bits(u), "macro {m}: fused and unfused diverge");
    }
    let folded = SeqModel::fold_total(patterns.len() - 1, &fused);
    let golden: Vec<f64> = cold
        .sim()
        .switching_trace(&patterns)
        .iter()
        .map(|c| c.femtofarads())
        .collect();
    assert_eq!(
        bits(&folded),
        bits(&golden),
        "totals diverge from golden sim"
    );
}
