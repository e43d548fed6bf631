//! Differential kernel-equivalence battery.
//!
//! Batch evaluation runs one of two evaluators, chosen per kernel from
//! its shape: the SoA gather (small kernels) or a lane-interleaved
//! stride walk over per-window tables (large ones); the fused
//! multi-kernel evaluator runs the same choice. These tests are the contract that every batch
//! path computes the *same function, bit for bit*, as the scalar
//! [`Kernel::eval_transition`] walk, which shares no layout with
//! either. For seeded random circuits from the conform generator, the
//! committed corpus and the large built-in kernels, every case asserts
//! via `f64::to_bits`:
//!
//! * scalar walk ≡ batch evaluation, per transition;
//! * scalar walk ≡ fused multi-kernel evaluation, per transition —
//!   including many kernels (exact, degraded, constant) sharing one
//!   fused call with ragged block lengths;
//! * 1-job ≡ 4-job [`TraceEngine`] shards (the pinned chunked-sum
//!   association makes worker count invisible in the summary bits);
//! * degraded (`Average`) and upper-bound (`UpperBound`) collapsed
//!   models conform exactly like exact ones.
//!
//! The fixed-seed smoke tier (~64 cases) runs in the main CI workflow;
//! the `#[ignore]`d full sweep is the nightly job's tier.

use charfree_conform::case_spec;
use charfree_conform::corpus::load_corpus;
use charfree_core::{AddPowerModel, ApproxStrategy, ModelBuilder};
use charfree_engine::{eval_fused, FusedJob, Kernel, PatternBlock, TraceEngine};
use charfree_netlist::{benchmarks, blif, Library};
use charfree_sim::MarkovSource;
use std::path::PathBuf;

/// The sp/st operating points cases cycle through (all feasible for
/// the Markov source).
const OPERATING_POINTS: [(f64, f64); 4] = [(0.5, 0.4), (0.3, 0.2), (0.7, 0.5), (0.5, 0.05)];

fn committed_corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus")
}

/// Asserts scalar ≡ batch ≡ fused(single job) per transition and
/// 1-job ≡ 4-job summaries, all via `to_bits`. Returns the kernel so
/// callers can pool it into a multi-kernel fused call.
fn check_engines_agree(name: &str, model: &AddPowerModel, patterns: &[Vec<bool>]) -> Kernel {
    let kernel = Kernel::compile(model);
    let block = PatternBlock::from_patterns(&kernel, patterns);
    let transitions = patterns.len().saturating_sub(1);

    let scalar: Vec<f64> = patterns
        .windows(2)
        .map(|w| kernel.eval_transition(&w[0], &w[1]))
        .collect();
    let batch = kernel.eval_batch(&block);
    assert_eq!(batch.len(), scalar.len(), "{name}: length");
    for (t, (r, b)) in scalar.iter().zip(&batch).enumerate() {
        assert_eq!(
            r.to_bits(),
            b.to_bits(),
            "{name}: scalar vs batch diverge at transition {t} ({r} vs {b})"
        );
    }

    let mut fused_out = vec![0.0; transitions];
    eval_fused(&mut [FusedJob {
        kernel: &kernel,
        block: &block,
        out: &mut fused_out,
    }]);
    for (t, (r, f)) in scalar.iter().zip(&fused_out).enumerate() {
        assert_eq!(
            r.to_bits(),
            f.to_bits(),
            "{name}: scalar vs fused diverge at transition {t} ({r} vs {f})"
        );
    }

    let one = TraceEngine::new(&kernel).jobs(1).evaluate(patterns);
    let four = TraceEngine::new(&kernel).jobs(4).evaluate(patterns);
    assert_eq!(
        one.sum_ff.to_bits(),
        four.sum_ff.to_bits(),
        "{name}: 1-job vs 4-job shard sums diverge"
    );
    assert_eq!(
        one.max_ff.to_bits(),
        four.max_ff.to_bits(),
        "{name}: 1-job vs 4-job shard maxima diverge"
    );
    kernel
}

/// One sweep tier: `cases` generated circuits, each checked exact,
/// degraded (`Average`), and upper-bounded — then every produced
/// kernel pooled into one fused call with ragged block lengths and
/// bit-compared against its solo evaluation.
fn sweep(cases: usize, seed: u64, vectors: usize) {
    let library = Library::test_library();
    let mut pool: Vec<(String, Kernel, Vec<Vec<bool>>)> = Vec::new();
    for i in 0..cases {
        let spec = case_spec(seed, i);
        let netlist = spec.build(&library).expect("generated circuits build");
        let (sp, st) = OPERATING_POINTS[i % OPERATING_POINTS.len()];
        let mut source = MarkovSource::new(netlist.num_inputs(), sp, st, seed ^ (0xE0 + i as u64))
            .expect("feasible statistics");
        // Ragged lengths around the 64-lane group and 256-lane chunk
        // boundaries, so partial groups and inert trailing groups are
        // always in play.
        let patterns = source.sequence(2 + (vectors + 37 * i) % (4 * vectors));
        let exact = ModelBuilder::new(&netlist).build();
        let max_nodes = (exact.size() / 2).max(1);
        let degraded = ModelBuilder::new(&netlist)
            .build()
            .shrink(max_nodes, ApproxStrategy::Average);
        let upper = ModelBuilder::new(&netlist)
            .build()
            .shrink(max_nodes, ApproxStrategy::UpperBound);
        let name = spec.name.clone();
        let kernel = check_engines_agree(&name, &exact, &patterns);
        check_engines_agree(&format!("{name}/degraded"), &degraded, &patterns);
        check_engines_agree(&format!("{name}/upper"), &upper, &patterns);
        if pool.len() < 24 {
            pool.push((name, kernel, patterns));
        }
    }

    check_pooled_fused(&pool);
}

/// All pooled kernels in ONE fused call (ragged lengths, mixed shapes
/// and evaluators) must match their solo batch evaluations bit for bit.
fn check_pooled_fused(pool: &[(String, Kernel, Vec<Vec<bool>>)]) {
    let blocks: Vec<PatternBlock> = pool
        .iter()
        .map(|(_, kernel, patterns)| PatternBlock::from_patterns(kernel, patterns))
        .collect();
    let mut fused_out: Vec<Vec<f64>> = pool
        .iter()
        .map(|(_, _, patterns)| vec![0.0; patterns.len() - 1])
        .collect();
    {
        let mut jobs: Vec<FusedJob> = pool
            .iter()
            .zip(&blocks)
            .zip(fused_out.iter_mut())
            .map(|(((_, kernel, _), block), out)| FusedJob { kernel, block, out })
            .collect();
        eval_fused(&mut jobs);
    }
    for (((name, kernel, _), block), fused) in pool.iter().zip(&blocks).zip(&fused_out) {
        let solo = kernel.eval_batch(block);
        for (t, (s, f)) in solo.iter().zip(fused).enumerate() {
            assert_eq!(
                s.to_bits(),
                f.to_bits(),
                "{name}: solo vs pooled-fused diverge at transition {t}"
            );
        }
    }
}

/// The CI smoke tier: 64 fixed-seed cases (x3 model variants each).
#[test]
fn kernel_equivalence_fixed_seed_smoke() {
    sweep(64, 0xC0FFEE, 24);
}

/// The nightly tier: a much larger sweep with longer traces.
#[test]
#[ignore = "nightly-scale sweep; run with --ignored"]
fn kernel_equivalence_full_sweep() {
    sweep(384, 0xC0FFEE, 96);
    sweep(128, 0xD15EA5E, 48);
}

/// The smoke tier's walking side: exact cm85 and cmb are large enough
/// that their batches walk the instructions, so on every push they run
/// the battery on their own and pooled into one fused call beside
/// kernels that gather.
#[test]
fn large_builtin_kernels_walk_through_all_engines() {
    let library = Library::test_library();
    let mut pool: Vec<(String, Kernel, Vec<Vec<bool>>)> = Vec::new();
    for (i, (netlist, max_nodes)) in [
        (
            benchmarks::by_name("cm85", &library).expect("Table 1 name"),
            None,
        ),
        (
            benchmarks::by_name("cmb", &library).expect("Table 1 name"),
            None,
        ),
        (
            benchmarks::by_name("cm85", &library).expect("Table 1 name"),
            Some(500),
        ),
        (
            benchmarks::by_name("decod", &library).expect("Table 1 name"),
            None,
        ),
    ]
    .into_iter()
    .enumerate()
    {
        let mut builder = ModelBuilder::new(&netlist);
        if let Some(max) = max_nodes {
            builder = builder.max_nodes(max);
        }
        let model = builder.build();
        let (sp, st) = OPERATING_POINTS[i % OPERATING_POINTS.len()];
        let mut source = MarkovSource::new(netlist.num_inputs(), sp, st, 0x1A26E + i as u64)
            .expect("feasible statistics");
        let patterns = source.sequence(700 + 37 * i);
        let name = format!("{}@{max_nodes:?}", netlist.name());
        let kernel = check_engines_agree(&name, &model, &patterns);
        assert_eq!(kernel.walks(), i < 2, "{name}: evaluator choice");
        pool.push((name, kernel, patterns));
    }
    check_pooled_fused(&pool);
}

/// Every committed combinational corpus repro replays through the
/// scalar ≡ batch ≡ fused battery on its recorded trace (sequential
/// repros go through the sequential lattice in the conform sweep
/// instead — the fused path is exercised there via `trace_fused`).
#[test]
fn corpus_repros_replay_through_all_engines() {
    let repros = load_corpus(&committed_corpus_dir()).expect("committed corpus loads");
    assert!(repros.len() >= 2, "committed corpus went missing");
    let mut replayed = 0usize;
    for repro in &repros {
        if repro.blif.contains(".latch") {
            continue;
        }
        let netlist = blif::parse(&repro.blif).expect("corpus BLIF parses");
        let model = ModelBuilder::new(&netlist).build();
        check_engines_agree(&repro.name, &model, &repro.patterns);
        replayed += 1;
    }
    assert!(replayed >= 2, "expected combinational repros to replay");
}

/// Regenerates the kernel-equivalence corpus entries (committed under
/// `corpus/`): a 33-input random DAG — a kernel whose variable count
/// exceeds the 64 pattern words of one `u64`-pair chunk budget
/// (`2·33 > 64`) — and a mux tree whose kernel skips selector
/// variables on most paths. Every candidate is validated through the
/// full conform oracle *before* being written, since corpus replay
/// runs every layer, not just the engines. Run with `--ignored` and
/// commit the output when the format changes.
#[test]
#[ignore = "regenerates committed corpus entries"]
fn regenerate_kernel_equiv_corpus() {
    use charfree_conform::corpus::Repro;
    use charfree_conform::gen::{CircuitSpec, GenConfig};
    use charfree_conform::oracle::Oracle;

    let library = Library::test_library();
    let dir = committed_corpus_dir();
    let workdir =
        std::env::temp_dir().join(format!("charfree-kequiv-regen-{}", std::process::id()));
    let mut oracle = Oracle::new(&workdir, false).expect("oracle starts");
    let wide = CircuitSpec::random(
        "wide33",
        0xDEE9,
        &GenConfig {
            num_inputs: 33,
            num_gates: 40,
            window: 8,
        },
    );
    for (spec, seed, sp, st) in [
        (wide, 0xDEE9u64, 0.5, 0.4),
        (CircuitSpec::mux_tree(3), 0x5E1Cu64, 0.3, 0.2),
    ] {
        let netlist = spec.build(&library).expect("corpus circuits build");
        let mut source =
            MarkovSource::new(netlist.num_inputs(), sp, st, seed).expect("feasible statistics");
        // Crosses the 64-lane group boundary; long enough for the
        // oracle's statistical bracket checks.
        let patterns = source.sequence(81);
        let text = blif::write(&netlist);
        oracle
            .check_text(&format!("regen-{}", spec.name), &text, &patterns)
            .expect("candidate corpus entry passes the full oracle");
        let repro = Repro {
            name: format!("kernel-{}", spec.name),
            seed,
            sp,
            st,
            blif: text,
            patterns,
        };
        let path = repro.write_to(&dir).expect("corpus write");
        println!("wrote {}", path.display());
    }
    oracle.finish();
    let _ = std::fs::remove_dir_all(&workdir);
}
