//! Edge-case kernel lockdown: the shapes the main suites historically
//! missed, pinned for the batch evaluator each kernel chose (the SoA
//! gather or the instruction walk) and the fused multi-kernel
//! evaluator, against the scalar [`Kernel::eval_transition`] walk and
//! the arena model.
//!
//! * constant-function ADDs (single terminal, no variables read);
//! * single-variable kernels (one input, one pair level);
//! * kernels whose variable count exceeds one chunk's 64 pattern-word
//!   pair budget (`n > 32`, so `2n > 64` diagram variables);
//! * a walking kernel over lengths ragged against its 8-lane batches;
//! * a hand-written `.cfk` holding an unreachable instruction and an
//!   unreachable terminal, over enough transitions that one worker's
//!   gather scratch spans several 256-lane sub-blocks;
//! * the empty (0-transition) trace.
//!
//! Everything asserts through `f64::to_bits` — the evaluators are not
//! "close", they are the same function.

use charfree_core::{ApproxStrategy, ModelBuilder, PowerModel};
use charfree_engine::{eval_fused, FusedJob, Kernel, PatternBlock, TraceEngine, TraceSummary};
use charfree_netlist::{benchmarks, blif, Library};
use charfree_sim::MarkovSource;

/// A BLIF parity chain over `n` inputs: `n − 1` chained `xor2` gates.
/// Every input is tested on every path, so the kernel has `n` pair
/// levels and `2n` diagram variables.
fn parity_chain_blif(n: usize) -> String {
    let inputs: Vec<String> = (0..n).map(|i| format!("i{i}")).collect();
    let mut text = format!(
        ".model chain{n}\n.inputs {}\n.outputs p{}\n",
        inputs.join(" "),
        n - 2
    );
    for g in 0..n - 1 {
        let a = if g == 0 {
            "i0".to_owned()
        } else {
            format!("p{}", g - 1)
        };
        text.push_str(&format!(".gate xor2 a={a} b=i{} O=p{g}\n", g + 1));
    }
    text.push_str(".end\n");
    text
}

/// Scalar ≡ batch ≡ fused per transition, bit for bit, and the scalar
/// kernel walk against the arena oracle.
fn assert_all_paths_agree(
    name: &str,
    model: &charfree_core::AddPowerModel,
    patterns: &[Vec<bool>],
) {
    let kernel = Kernel::compile(model);
    let block = PatternBlock::from_patterns(&kernel, patterns);
    let transitions = patterns.len().saturating_sub(1);

    let batch = kernel.eval_batch(&block);
    let mut fused = vec![0.0; transitions];
    eval_fused(&mut [FusedJob {
        kernel: &kernel,
        block: &block,
        out: &mut fused,
    }]);

    for t in 0..transitions {
        let arena = model
            .capacitance(&patterns[t], &patterns[t + 1])
            .femtofarads();
        let scalar = kernel.eval_transition(&patterns[t], &patterns[t + 1]);
        assert_eq!(
            arena.to_bits(),
            scalar.to_bits(),
            "{name}: arena vs scalar at transition {t}"
        );
        assert_eq!(
            scalar.to_bits(),
            batch[t].to_bits(),
            "{name}: scalar vs batch at transition {t}"
        );
        assert_eq!(
            scalar.to_bits(),
            fused[t].to_bits(),
            "{name}: scalar vs fused at transition {t}"
        );
    }
}

#[test]
fn constant_kernel_single_terminal_all_paths() {
    let library = Library::test_library();
    let model = ModelBuilder::new(&benchmarks::by_name("decod", &library).expect("Table 1 name"))
        .build()
        .shrink(1, ApproxStrategy::Average);
    let kernel = Kernel::compile(&model);
    assert_eq!(
        kernel.num_terminals(),
        1,
        "shrink(1) collapses to a constant"
    );

    let mut source = MarkovSource::new(model.num_inputs(), 0.5, 0.4, 11).expect("valid stats");
    // Lengths straddling the 64-lane group and 256-lane chunk edges.
    for len in [1usize, 2, 63, 64, 65, 255, 256, 257] {
        let patterns = source.sequence(len.max(1) + 1);
        assert_all_paths_agree("constant", &model, &patterns);
    }

    // A constant kernel still reports a well-formed summary.
    let patterns = source.sequence(130);
    let summary = TraceEngine::new(&kernel).jobs(1).evaluate(&patterns);
    assert_eq!(summary.transitions, 129);
    let expected: f64 = (0..129)
        .map(|t| {
            model
                .capacitance(&patterns[t], &patterns[t + 1])
                .femtofarads()
        })
        .sum();
    assert_eq!(summary.sum_ff.to_bits(), expected.to_bits());
}

#[test]
fn single_variable_kernel_all_paths() {
    let netlist = blif::parse(".model one\n.inputs i0\n.outputs o\n.gate inv a=i0 O=o\n.end\n")
        .expect("single-gate BLIF parses");
    let model = ModelBuilder::new(&netlist).build();
    assert_eq!(model.num_inputs(), 1);

    // All four single-input transitions, explicitly.
    let explicit: Vec<Vec<bool>> = vec![
        vec![false],
        vec![false],
        vec![true],
        vec![true],
        vec![false],
    ];
    assert_all_paths_agree("single-var explicit", &model, &explicit);

    let mut source = MarkovSource::new(1, 0.5, 0.4, 13).expect("valid stats");
    for len in [1usize, 64, 65, 300] {
        let patterns = source.sequence(len + 1);
        assert_all_paths_agree("single-var", &model, &patterns);
    }
}

#[test]
fn kernel_levels_exceed_chunk_word_budget() {
    // 40 inputs → 80 diagram variables, beyond the 64 u64 pattern
    // words a single chunk's pair budget would cover if levels were
    // capped at word width. Depth must not corrupt either engine.
    let netlist = blif::parse(&parity_chain_blif(40)).expect("parity chain parses");
    let model = ModelBuilder::new(&netlist).build();
    assert_eq!(model.num_inputs(), 40);

    let mut source = MarkovSource::new(40, 0.5, 0.4, 17).expect("valid stats");
    for len in [1usize, 65, 130] {
        let patterns = source.sequence(len + 1);
        assert_all_paths_agree("deep-chain", &model, &patterns);
    }

    // Degraded deep kernels stay in lockstep too.
    let degraded = ModelBuilder::new(&netlist)
        .build()
        .shrink(20, ApproxStrategy::UpperBound);
    let patterns = source.sequence(100);
    assert_all_paths_agree("deep-chain degraded", &degraded, &patterns);
}

#[test]
fn walking_kernel_ragged_lengths_all_paths() {
    let library = Library::test_library();
    let model =
        ModelBuilder::new(&benchmarks::by_name("cm85", &library).expect("Table 1 name")).build();
    assert!(
        Kernel::compile(&model).walks(),
        "exact cm85 is large enough to walk"
    );
    let mut source = MarkovSource::new(model.num_inputs(), 0.5, 0.4, 19).expect("valid stats");
    // Lengths straddling the 8-lane walk batches and 64-lane groups.
    for len in [1usize, 7, 8, 9, 63, 64, 65, 130] {
        let patterns = source.sequence(len + 1);
        assert_all_paths_agree("walking cm85", &model, &patterns);
    }
}

#[test]
fn empty_trace_is_a_no_op_everywhere() {
    let library = Library::test_library();
    let model =
        ModelBuilder::new(&benchmarks::by_name("cm85", &library).expect("Table 1 name")).build();
    let kernel = Kernel::compile(&model);

    // Zero patterns and one pattern both mean zero transitions.
    for patterns in [Vec::new(), vec![vec![false; model.num_inputs()]]] {
        let block = PatternBlock::from_patterns(&kernel, &patterns);
        assert_eq!(block.len(), 0);

        assert!(kernel.eval_batch(&block).is_empty());

        let mut fused_out: Vec<f64> = Vec::new();
        eval_fused(&mut [FusedJob {
            kernel: &kernel,
            block: &block,
            out: &mut fused_out,
        }]);

        let summary = TraceEngine::new(&kernel).jobs(4).evaluate(&patterns);
        assert_eq!(summary.transitions, 0);
        assert_eq!(summary.sum_ff.to_bits(), 0f64.to_bits());
        assert_eq!(summary.max_ff.to_bits(), f64::NEG_INFINITY.to_bits());
    }
}

/// A gathering kernel over three inputs whose instruction vec holds
/// nodes the root never reaches: `I4` (which alone references `T3`)
/// and `I6` (which references the root). `T4` is referenced by
/// nothing. `validate` checks references and variable order, not
/// reachability, so the file loads. If a reused mask row kept lanes
/// from an earlier sub-block, they would land in `T3`/`T4`, whose
/// values no reachable path produces.
fn unreachable_nodes_kernel() -> Kernel {
    let terminals: Vec<String> = [1.5f64, 2.25, 4.0, 1000.0, 2000.0]
        .iter()
        .map(|t| format!("{:016x}", t.to_bits()))
        .collect();
    let text = format!(
        "charfree-kernel v1\n\
         name unreachable\n\
         inputs 3\n\
         vars 6\n\
         interleaved 1\n\
         xi 0 2 4\n\
         xf 1 3 5\n\
         terminals {}\n\
         instrs 7\n\
         4 T0 T1\n\
         5 T1 T2\n\
         2 I0 I1\n\
         3 T2 I0\n\
         1 I2 T3\n\
         1 I2 I3\n\
         0 I5 I4\n\
         root I5\n",
        terminals.join(" ")
    );
    Kernel::load(text.as_bytes()).expect("the kernel passes validation")
}

#[test]
fn unreachable_rows_never_leak_across_reused_scratch() {
    let kernel = unreachable_nodes_kernel();
    assert!(!kernel.walks(), "a small kernel gathers");
    let mut source = MarkovSource::new(3, 0.5, 0.4, 29).expect("valid stats");
    // 1500 transitions: six 256-lane sub-blocks, the last one ragged.
    let patterns = source.sequence(1501);
    let scalar: Vec<f64> = patterns
        .windows(2)
        .map(|p| kernel.eval_transition(&p[0], &p[1]))
        .collect();
    let assert_matches = |path: &str, values: &[f64]| {
        assert_eq!(values.len(), scalar.len(), "{path}: length");
        for (t, (got, want)) in values.iter().zip(&scalar).enumerate() {
            assert_eq!(got.to_bits(), want.to_bits(), "{path}: transition {t}");
        }
    };

    // 512-transition chunks: at two jobs, each worker still evaluates
    // at least two sub-blocks on one scratch.
    for jobs in [1, 2] {
        let engine = TraceEngine::new(&kernel).jobs(jobs).chunk_size(512);
        assert_matches(&format!("trace, {jobs} jobs"), &engine.trace(&patterns));
        let summary = engine.evaluate(&patterns);
        let want = TraceSummary::from_values(&scalar, 512);
        assert_eq!(summary.transitions, want.transitions);
        assert_eq!(
            summary.sum_ff.to_bits(),
            want.sum_ff.to_bits(),
            "{jobs} jobs"
        );
        assert_eq!(
            summary.max_ff.to_bits(),
            want.max_ff.to_bits(),
            "{jobs} jobs"
        );
    }

    let block = PatternBlock::from_patterns(&kernel, &patterns);
    assert_matches("eval_batch", &kernel.eval_batch(&block));

    // Fused beside another gathering kernel, placed second so its
    // scratch is not the first job's.
    let library = Library::test_library();
    let decod = Kernel::compile(
        &ModelBuilder::new(&benchmarks::by_name("decod", &library).expect("Table 1 name")).build(),
    );
    let mut decod_source =
        MarkovSource::new(decod.num_inputs(), 0.5, 0.4, 31).expect("valid stats");
    let decod_block = PatternBlock::from_patterns(&decod, &decod_source.sequence(901));
    let mut decod_out = vec![0.0; decod_block.len()];
    let mut fused = vec![0.0; block.len()];
    eval_fused(&mut [
        FusedJob {
            kernel: &decod,
            block: &decod_block,
            out: &mut decod_out,
        },
        FusedJob {
            kernel: &kernel,
            block: &block,
            out: &mut fused,
        },
    ]);
    assert_matches("eval_fused", &fused);
    let decod_solo = decod.eval_batch(&decod_block);
    for (t, (got, want)) in decod_out.iter().zip(&decod_solo).enumerate() {
        assert_eq!(got.to_bits(), want.to_bits(), "fused decod: transition {t}");
    }
}
