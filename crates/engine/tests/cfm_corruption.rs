//! `.cfm` → kernel load-path hardening: [`Kernel::from_cfm`] decodes
//! untrusted bytes straight into instructions, and a gathering kernel's
//! hot loops index mask/selector rows *unchecked* on the strength of the
//! checks `ModelHeader::read` and `parse_diagram` make once, as the
//! bytes are read. These tests feed it every truncation, a single-byte
//! corruption at every offset, dropped, duplicated and swapped lines,
//! hostile declared counts and slot lists of a real `.cfm` byte stream,
//! and require:
//!
//! * corruption is either rejected with a typed `InvalidData` I/O error
//!   — never a panic, never UB; or
//! * the mutated text is still a *valid* model (a flipped digit in a
//!   name or terminal is just a different model). Then the kernel is
//!   fully coherent — its batch evaluator, fused evaluation and trace
//!   engine agree bit-for-bit with its scalar walk — and evaluates
//!   bit-identically to the model [`AddPowerModel::load`] reads from
//!   the same bytes, which accepts exactly the same inputs.

use charfree_core::{AddPowerModel, ModelBuilder, PowerModel};
use charfree_engine::{eval_fused, FusedJob, Kernel, PatternBlock, TraceEngine};
use charfree_netlist::{benchmarks, Library};
use charfree_sim::MarkovSource;
use std::io::ErrorKind;

fn saved_model_bytes(name: &str, max_nodes: Option<usize>) -> Vec<u8> {
    let library = Library::test_library();
    let netlist = benchmarks::by_name(name, &library).expect("Table 1 name");
    let mut builder = ModelBuilder::new(&netlist);
    if let Some(max) = max_nodes {
        builder = builder.max_nodes(max);
    }
    let mut bytes = Vec::new();
    builder.build().save(&mut bytes).expect("in-memory save");
    bytes
}

/// A kernel (however it was obtained) must be internally coherent:
/// scalar ≡ batch ≡ fused on a real trace, sharded or not.
fn assert_kernel_coherent(kernel: &Kernel, patterns: &[Vec<bool>]) {
    let block = PatternBlock::from_patterns(kernel, patterns);
    let transitions = patterns.len() - 1;

    let batch = kernel.eval_batch(&block);
    let mut fused = vec![0.0; transitions];
    eval_fused(&mut [FusedJob {
        kernel,
        block: &block,
        out: &mut fused,
    }]);
    for t in 0..transitions {
        let scalar = kernel.eval_transition(&patterns[t], &patterns[t + 1]);
        assert_eq!(scalar.to_bits(), batch[t].to_bits(), "transition {t}");
        assert_eq!(scalar.to_bits(), fused[t].to_bits(), "transition {t}");
    }
    let one = TraceEngine::new(kernel).jobs(1).evaluate(patterns);
    let four = TraceEngine::new(kernel).jobs(4).evaluate(patterns);
    assert_eq!(one.sum_ff.to_bits(), four.sum_ff.to_bits());
}

/// Feeds `bytes` to both `.cfm` readers: both refuse it with
/// `InvalidData`, or both accept it and the kernel is coherent and
/// evaluates like the model. Returns whether it was accepted.
fn check(bytes: &[u8], what: &str) -> bool {
    let kernel = Kernel::from_cfm(bytes);
    let model = AddPowerModel::load(bytes);
    match (kernel, model) {
        (Err(e), Err(_)) => {
            assert_eq!(
                e.kind(),
                ErrorKind::InvalidData,
                "{what}: untyped error {e}"
            );
            false
        }
        (Ok(kernel), Ok(model)) => {
            let n = kernel.num_inputs();
            assert_eq!(n, model.num_inputs(), "{what}");
            let mut source = MarkovSource::new(n.max(1), 0.5, 0.4, 23).expect("valid stats");
            let patterns = source.sequence(97);
            assert_kernel_coherent(&kernel, &patterns);
            for t in 0..patterns.len() - 1 {
                let (xi, xf) = (&patterns[t], &patterns[t + 1]);
                assert_eq!(
                    kernel.eval_transition(xi, xf).to_bits(),
                    model.capacitance(xi, xf).femtofarads().to_bits(),
                    "{what}: transition {t}"
                );
            }
            true
        }
        (kernel, model) => panic!(
            "{what}: the readers disagree: kernel {:?}, model {:?}",
            kernel.err(),
            model.err()
        ),
    }
}

#[test]
fn every_truncation_is_a_typed_error_never_a_panic() {
    let bytes = saved_model_bytes("cm85", Some(200));
    assert!(check(&bytes, "whole file"));
    // Every prefix that ends before the root line is rejected. One cut
    // inside `r N<k>` can leave a valid, shorter root reference: a
    // different model, which must then be coherent.
    let root_line = bytes[..bytes.len() - 1]
        .iter()
        .rposition(|&b| b == b'\n')
        .expect("more than one line")
        + 1;
    for len in 0..bytes.len() {
        let accepted = check(&bytes[..len], &format!("truncation at {len}"));
        assert!(!accepted || len > root_line, "truncation at {len} accepted");
    }
}

#[test]
fn single_byte_corruptions_never_panic_and_accepted_kernels_stay_coherent() {
    let bytes = saved_model_bytes("cm85", Some(200));
    let mut accepted = 0usize;
    let mut rejected = 0usize;
    // One flip per byte, cycling through all eight bit positions, so
    // magic, counts, slots, measures, references, hex terminals and
    // whitespace are all hit.
    for i in 0..bytes.len() {
        let mut corrupt = bytes.clone();
        corrupt[i] ^= 1 << (i % 8);
        if check(&corrupt, &format!("flip at byte {i}")) {
            accepted += 1;
        } else {
            rejected += 1;
        }
    }
    assert!(rejected > 0, "corruption was never rejected — suspicious");
    // The format is text, so *some* flips must survive as valid models
    // (name bytes at minimum); if none did, the harness is not actually
    // exercising the accepted path.
    assert!(accepted > 0, "no flip was ever accepted — sample too thin");
}

#[test]
fn swapped_and_duplicated_lines_are_rejected_or_coherent() {
    let bytes = saved_model_bytes("cm85", Some(200));
    let text = String::from_utf8(bytes).expect("format is text");
    let lines: Vec<&str> = text.lines().collect();
    for i in 0..lines.len() {
        let mut dropped: Vec<&str> = lines.clone();
        dropped.remove(i);
        let mut dup: Vec<&str> = lines.clone();
        dup.insert(i, lines[i]);
        let mut swapped: Vec<&str> = lines.clone();
        if i + 1 < lines.len() {
            swapped.swap(i, i + 1);
        }
        for (kind, variant) in [("drop", dropped), ("dup", dup), ("swap", swapped)] {
            let blob = format!("{}\n", variant.join("\n"));
            check(blob.as_bytes(), &format!("{kind} line {i}"));
        }
    }
}

/// Counts far past the file's length reserve nothing up front: the
/// reader reads to EOF and answers with a typed error.
#[test]
fn huge_declared_counts_are_typed_errors() {
    let bytes = saved_model_bytes("cm85", Some(200));
    let text = String::from_utf8(bytes).expect("format is text");
    for prefix in ["inputs ", "mixture ", "t ", "n "] {
        let hostile: String = text
            .lines()
            .map(|line| {
                if line.starts_with(prefix) {
                    format!("{prefix}4000000000000000\n")
                } else {
                    format!("{line}\n")
                }
            })
            .collect();
        assert_ne!(hostile, text, "a `{prefix}` line is present");
        let err = Kernel::from_cfm(hostile.as_bytes()).expect_err("count past EOF");
        assert_eq!(err.kind(), ErrorKind::InvalidData, "{prefix}: {err}");
    }
}

/// A `.cfm` text over 65 600 variables holding `levels` levels of 128
/// nodes. Level `j` (0 = deepest) tests variable `4·(16399 − j)`, so
/// each level sits in its own stride window and the last window is
/// 16 399 (fifteen window bits); node `i` of a level branches to nodes
/// `i` and `i + 1` of the level below. Every level below the 127th is
/// fully reachable from the root.
fn wide_levels_model_text(levels: usize) -> String {
    const INPUTS: usize = 32_800;
    const WIDTH: usize = 128;
    let slots: Vec<String> = (0..INPUTS).map(|i| i.to_string()).collect();
    let mut text = format!(
        "charfree-model v1\nname wide\ninputs {INPUTS}\nordering interleaved\nslots {}\n\
         report 0 0 1 0\nmixture 0\nmeans -\nddv1 {}\nt 2\n{:016x} {:016x}\nn {}\n",
        slots.join(" "),
        2 * INPUTS,
        1.0f64.to_bits(),
        2.0f64.to_bits(),
        levels * WIDTH
    );
    for j in 0..levels {
        let var = 4 * (16_399 - j);
        for i in 0..WIDTH {
            let (lo, hi) = if j == 0 {
                ("T0".to_owned(), "T1".to_owned())
            } else {
                let below = (j - 1) * WIDTH;
                (
                    format!("N{}", below + i),
                    format!("N{}", below + (i + 1) % WIDTH),
                )
            };
            text.push_str(&format!("{var} {lo} {hi}\n"));
        }
    }
    text.push_str(&format!("r N{}\n", (levels - 1) * WIDTH));
    text
}

/// The stride walk names an entry node by one `u32`: its index above
/// the bits of the last window the kernel tests (at most 2^16 entries
/// next to fifteen window bits). A valid model whose kernel walks (128
/// instructions per level of depth) and has more entry nodes than that
/// is refused with a typed error — `Kernel::compile` of the same model
/// would panic — and the same shape with fewer levels loads, walks and
/// stays coherent.
#[test]
fn stride_walk_entry_bound_is_a_typed_error() {
    // 500 levels: about 56 000 entry nodes.
    let kernel =
        Kernel::from_cfm(wide_levels_model_text(500).as_bytes()).expect("within the bound");
    assert!(kernel.walks(), "128 instructions per level of depth walk");
    let mut source = MarkovSource::new(kernel.num_inputs(), 0.5, 0.4, 23).expect("valid stats");
    assert_kernel_coherent(&kernel, &source.sequence(97));
    // 600 levels: about 68 800 entry nodes.
    let err = Kernel::from_cfm(wide_levels_model_text(600).as_bytes())
        .expect_err("too many entry nodes for the stride walk");
    assert_eq!(err.kind(), ErrorKind::InvalidData, "{err}");
    assert!(err.to_string().contains("stride walk"), "{err}");
}

/// `expected_capacitance` and every evaluator read input `i` at the
/// variables `2·slot` and `2·slot + 1`, so the `slots` line must be a
/// permutation of the inputs; anything else is refused. Any permutation
/// loads.
#[test]
fn slot_lists_must_be_permutations() {
    let bytes = saved_model_bytes("decod", None);
    let text = String::from_utf8(bytes).expect("the .cfm format is text");
    let with_slots = |slots: &str| -> String {
        let lines: Vec<String> = text
            .lines()
            .map(|line| match line.split_once(' ') {
                Some(("slots", _)) => format!("slots {slots}"),
                _ => line.to_owned(),
            })
            .collect();
        format!("{}\n", lines.join("\n"))
    };
    for slots in [
        "0 2 2 3 4",   // a slot twice
        "0 1 2 3 5",   // a slot out of range
        "0 1 2 3",     // an input without a slot
        "0 1 2 3 4 0", // a slot too many
        "0 1 2 3 x",   // not a number
    ] {
        let err = Kernel::from_cfm(with_slots(slots).as_bytes())
            .expect_err("slot lists other than permutations are refused");
        assert_eq!(err.kind(), ErrorKind::InvalidData, "slots {slots}: {err}");
        assert!(!check(with_slots(slots).as_bytes(), slots));
    }
    assert!(check(with_slots("4 3 2 1 0").as_bytes(), "reversed slots"));
}
