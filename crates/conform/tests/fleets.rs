//! Fleet-scale build contract, on a generated design: a four-stage
//! sequential pipeline reloads every macro from the artifact store on a
//! warm build (zero apply steps, one hit per macro), and its fused,
//! unfused, folded and golden-simulator traces agree by `f64::to_bits`.

use charfree_conform::gen::{seq_blif, SeqGenConfig};
use charfree_netlist::{blif, Library};
use charfree_pipeline::{ArtifactStore, PipelineCtx};
use charfree_seq::SeqModel;
use charfree_sim::MarkovSource;

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
