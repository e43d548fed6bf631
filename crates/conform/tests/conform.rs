//! End-to-end exercises of the conformance harness itself: a bounded
//! differential sweep, a deliberately injected kernel off-by-one that
//! must be caught and minimized, and the committed regression corpus.

use std::path::PathBuf;

use charfree_conform::corpus::{load_corpus, Repro};
use charfree_conform::gen::{CircuitSpec, GenConfig};
use charfree_conform::oracle::{CaseParams, Oracle};
use charfree_conform::{case_spec, run, shrink, ConformConfig};
use charfree_core::ModelBuilder;
use charfree_engine::Kernel;
use charfree_netlist::{blif, Library};
use charfree_sim::{MarkovSource, ZeroDelaySim};

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("charfree-conform-it-{}-{tag}", std::process::id()))
}

fn committed_corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus")
}

/// A bounded sweep across every layer, live server included — the same
/// path `charfree conform` takes, sized for CI.
#[test]
fn bounded_sweep_passes_all_layers() {
    let dir = scratch("sweep");
    let config = ConformConfig {
        cases: 12,
        seq_cases: 4,
        seed: 0xC0FFEE,
        vectors: 24,
        corpus: Some(committed_corpus_dir()),
        shrink: true,
        serve: true,
        campaigns: true,
        chaos: false,
        chaos_faults: 200,
        workdir: dir.clone(),
    };
    let report = run(&config).expect("all layers agree");
    assert!(report.contains("12 generated cases"), "report: {report}");
    assert!(report.contains("4 sequential cases"), "report: {report}");
    assert!(report.contains("served seqeval"), "report: {report}");
    assert!(report.contains("campaigns passed"), "report: {report}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The acceptance experiment: inject an off-by-one into the kernel
/// evaluation path (a shifted transition window — exactly what a
/// botched instruction index in the compiler would produce), confirm
/// the differential check catches it, and shrink the failing case to a
/// tiny repro.
#[test]
fn injected_kernel_off_by_one_is_caught_and_shrunk() {
    let library = Library::test_library();

    // The buggy layer: per-transition evaluation reads the window one
    // transition late (the last transition falls back to the diagonal).
    let buggy_trace = |kernel: &Kernel, patterns: &[Vec<bool>]| -> Vec<f64> {
        (0..patterns.len() - 1)
            .map(|t| {
                let xi = &patterns[(t + 1).min(patterns.len() - 1)];
                let xf = &patterns[(t + 2).min(patterns.len() - 1)];
                kernel.eval_transition(xi, xf)
            })
            .collect()
    };

    // Differential check: buggy kernel vs golden simulation.
    let diverges = |spec: &CircuitSpec, patterns: &[Vec<bool>]| -> bool {
        let Ok(netlist) = spec.build(&library) else {
            return false;
        };
        let sim = ZeroDelaySim::new(&netlist);
        let model = ModelBuilder::new(&netlist).build();
        let kernel = Kernel::compile(&model);
        let buggy = buggy_trace(&kernel, patterns);
        (0..patterns.len() - 1).any(|t| {
            let golden = sim
                .switching_capacitance(&patterns[t], &patterns[t + 1])
                .femtofarads();
            buggy[t].to_bits() != golden.to_bits()
        })
    };

    // A realistic starting point: a 24-gate random DAG and a Markov trace.
    let spec = CircuitSpec::random(
        "offbyone",
        41,
        &GenConfig {
            num_inputs: 7,
            num_gates: 24,
            window: 8,
        },
    );
    let mut source = MarkovSource::new(7, 0.5, 0.4, 17).expect("feasible");
    let patterns = source.sequence(40);
    assert!(
        diverges(&spec, &patterns),
        "the injected off-by-one must be caught on the full case"
    );

    let shrunk = shrink::shrink(&spec, &patterns, diverges);
    assert!(
        diverges(&shrunk.spec, &shrunk.patterns),
        "minimized case must still reproduce"
    );
    assert!(
        shrunk.spec.gates.len() <= 8,
        "repro must shrink to <= 8 gates, got {}",
        shrunk.spec.gates.len()
    );
    assert!(shrunk.patterns.len() <= 4, "trace must shrink too");

    // The minimized case round-trips through the corpus format and still
    // reproduces after reload — exactly what a committed repro must do.
    let netlist = shrunk.spec.build(&library).expect("valid");
    let repro = Repro {
        name: "offbyone".to_owned(),
        seed: 41,
        sp: 0.5,
        st: 0.4,
        blif: blif::write(&netlist),
        patterns: shrunk.patterns.clone(),
    };
    let dir = scratch("offbyone-corpus");
    let path = repro.write_to(&dir).expect("persists");
    let reloaded = load_corpus(&dir).expect("loads");
    assert_eq!(reloaded.len(), 1);
    let back = blif::parse(&reloaded[0].blif).expect("repro blif parses");
    let back_spec = netlist_as_spec(&back);
    assert!(
        diverges(&back_spec, &reloaded[0].patterns),
        "reloaded repro from {} must reproduce",
        path.display()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Lifts a parsed netlist back into a [`CircuitSpec`] (inputs first, gate
/// outputs in netlist order — the same id convention the generator uses).
fn netlist_as_spec(netlist: &charfree_netlist::Netlist) -> CircuitSpec {
    let mut id_of = std::collections::HashMap::new();
    for (i, &s) in netlist.inputs().iter().enumerate() {
        id_of.insert(s, i);
    }
    let mut gates = Vec::new();
    for (j, (_, gate)) in netlist.gates().enumerate() {
        id_of.insert(gate.output(), netlist.num_inputs() + j);
        gates.push(charfree_conform::gen::GateSpec {
            kind: gate.kind(),
            fanin: gate.inputs().iter().map(|s| id_of[s]).collect(),
        });
    }
    CircuitSpec {
        name: netlist.name().to_owned(),
        num_inputs: netlist.num_inputs(),
        gates,
    }
}

/// Every committed repro replays clean through the local oracle layers —
/// a once-found divergence can never silently return.
#[test]
fn committed_corpus_replays_clean() {
    let corpus = load_corpus(&committed_corpus_dir()).expect("corpus loads");
    assert!(
        !corpus.is_empty(),
        "the committed corpus must not be empty (see regenerate_committed_corpus)"
    );
    assert!(
        corpus.iter().any(|r| r.blif.contains(".latch")),
        "the corpus must carry at least one sequential repro"
    );
    let dir = scratch("replay");
    let mut oracle = Oracle::new(&dir, false).expect("workdir");
    for repro in &corpus {
        let case_name = format!("corpus-{}", repro.name);
        let result = if repro.blif.contains(".latch") {
            oracle.check_seq_text(&case_name, &repro.blif, &repro.patterns)
        } else {
            oracle.check_text(&case_name, &repro.blif, &repro.patterns)
        };
        result.unwrap_or_else(|m| panic!("committed repro `{}` regressed: {m}", repro.name));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Regenerates the committed corpus from fixed seeds. Run manually after
/// a deliberate format or generator change:
///
/// ```text
/// cargo test -p charfree-conform --test conform -- --ignored regenerate
/// ```
#[test]
#[ignore = "writes into the source tree; run explicitly to refresh the corpus"]
fn regenerate_committed_corpus() {
    let library = Library::test_library();
    let dir = committed_corpus_dir();
    // One representative of each family, small enough to replay fast.
    let picks: [(&str, CircuitSpec, u64); 3] = [
        ("dag", case_spec(0xC0FFEE, 0), 0xA5A5),
        ("adder", CircuitSpec::adder(2), 0xA5A6),
        ("parity", CircuitSpec::parity_tree(5), 0xA5A7),
    ];
    for (tag, spec, seed) in picks {
        let netlist = spec.build(&library).expect("valid");
        let mut source = MarkovSource::new(netlist.num_inputs(), 0.5, 0.4, seed).expect("feasible");
        let repro = Repro {
            name: format!("seed-{tag}"),
            seed,
            sp: 0.5,
            st: 0.4,
            blif: blif::write(&netlist),
            patterns: source.sequence(16),
        };
        repro.write_to(&dir).expect("persists");
    }

    // One sequential repro: a tiny two-stage feedback pipeline (6 gates,
    // 2 latches) that replays through the sequential lattice.
    let seq_text = charfree_conform::gen::seq_blif(
        "seqpipe",
        0xA5A8,
        &charfree_conform::gen::SeqGenConfig {
            num_inputs: 2,
            stages: 2,
            gates_per_stage: 3,
            latches_per_stage: 1,
        },
    );
    let seq = blif::parse_seq(&seq_text).expect("generated seq blif parses");
    let mut source = MarkovSource::new(seq.num_inputs(), 0.5, 0.4, 0xA5A8).expect("feasible");
    let repro = Repro {
        name: "seed-seqpipe".to_owned(),
        seed: 0xA5A8,
        sp: 0.5,
        st: 0.4,
        blif: seq_text,
        patterns: source.sequence(16),
    };
    repro.write_to(&dir).expect("persists");
}

/// Regenerates the committed benchmark BLIF under
/// `crates/netlist/benchmarks/` — the conform generator families
/// (ripple-carry adder, mux tree, parity tree) promoted to committed
/// netlists, plus the canonical two-macro sequential pipeline. Run
/// manually after a deliberate generator change:
///
/// ```text
/// cargo test -p charfree-conform --test conform -- --ignored regenerate
/// ```
#[test]
#[ignore = "writes into the source tree; run explicitly to refresh the benchmarks"]
fn regenerate_committed_benchmarks() {
    let library = Library::test_library();
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("netlist")
        .join("benchmarks");
    std::fs::create_dir_all(&dir).expect("benchmark dir");
    let picks: [CircuitSpec; 3] = [
        CircuitSpec::adder(8),
        CircuitSpec::mux_tree(4),
        CircuitSpec::parity_tree(12),
    ];
    for spec in picks {
        let netlist = spec.build(&library).expect("valid");
        let path = dir.join(format!("{}.blif", netlist.name()));
        std::fs::write(&path, blif::write(&netlist)).expect("write benchmark blif");
    }
    // The sequential benchmark is a fixed two-macro feedback pipeline
    // (state crosses both register boundaries), not generated: its text
    // is the stable reference the CI seqeval byte-parity check loads.
    let seqpipe2 = "\
.model seqpipe2
.inputs a b
.outputs y
.gate xor2 a=a b=q2 O=s1
.gate and2 a=s1 b=b O=d1
.latch d1 q1 0
.gate or2 a=q1 b=a O=y
.gate inv a=y O=d2
.latch d2 q2 1
.end
";
    assert!(blif::parse_seq(seqpipe2).is_ok());
    std::fs::write(dir.join("seqpipe2.blif"), seqpipe2).expect("write seqpipe2");
}

/// The oracle really does drive the live server: a sweep with serve
/// enabled answers identically to one without.
#[test]
fn serve_layer_round_trip_matches_local() {
    let dir = scratch("serve-layer");
    let mut oracle = Oracle::new(&dir, true).expect("workdir");
    let spec = case_spec(7, 3); // an adder
    let params = CaseParams {
        sp: 0.5,
        st: 0.4,
        seed: 99,
        vectors: 16,
    };
    let outcome = oracle
        .check_spec("serve-rt", &spec, &params)
        .expect("served values bit-equal local kernel");
    assert_eq!(outcome.transitions, 15);
    oracle.finish();
    let _ = std::fs::remove_dir_all(&dir);
}
