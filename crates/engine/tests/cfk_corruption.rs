//! `.cfk` → SoA load-path hardening (mirrors the pipeline's
//! artifact-poisoning tests at the kernel-file layer).
//!
//! A gathering kernel's SoA program is compiled from the instruction
//! vec at load time, and its hot loops index mask/selector rows
//! *unchecked* on the strength of `Kernel::load`'s validation. These tests feed the
//! loader every truncation and a dense sample of single-bit flips of a
//! real `.cfk` byte stream and require:
//!
//! * corruption is either rejected with a typed `InvalidData`/UTF-8
//!   I/O error — never a panic, never UB; or
//! * the mutated text still happens to be a *valid* kernel (a flipped
//!   digit in a name or terminal is just a different kernel), in which
//!   case the loaded kernel must be fully coherent: its batch
//!   evaluator and fused evaluation both agree bit-for-bit with its
//!   scalar walk on a real trace.

use charfree_core::ModelBuilder;
use charfree_engine::{eval_fused, FusedJob, Kernel, PatternBlock, TraceEngine};
use charfree_netlist::{benchmarks, Library};
use charfree_sim::MarkovSource;

fn saved_kernel_bytes() -> (Kernel, Vec<u8>) {
    let library = Library::test_library();
    let model = ModelBuilder::new(&benchmarks::by_name("cm85", &library).expect("Table 1 name"))
        .max_nodes(200)
        .build();
    let kernel = Kernel::compile(&model);
    let mut bytes = Vec::new();
    kernel.save(&mut bytes).expect("in-memory save");
    (kernel, bytes)
}

/// A loaded kernel (however it was obtained) must be internally
/// coherent: scalar ≡ batch ≡ fused on a real trace, sharded or not.
fn assert_loaded_kernel_coherent(kernel: &Kernel) {
    let n = kernel.num_inputs();
    let mut source = MarkovSource::new(n.max(1), 0.5, 0.4, 23).expect("valid stats");
    let patterns = source.sequence(97);
    let block = PatternBlock::from_patterns(kernel, &patterns);
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
    let one = TraceEngine::new(kernel).jobs(1).evaluate(&patterns);
    let four = TraceEngine::new(kernel).jobs(4).evaluate(&patterns);
    assert_eq!(one.sum_ff.to_bits(), four.sum_ff.to_bits());
}

#[test]
fn every_truncation_is_a_typed_error_never_a_panic() {
    let (_, bytes) = saved_kernel_bytes();
    // A whole-file load works; every proper prefix must be rejected
    // cleanly. (The final newline is the one exception: dropping just
    // it still parses, since the last line stays complete.)
    assert!(Kernel::load(bytes.as_slice()).is_ok());
    for len in 0..bytes.len() - 1 {
        match Kernel::load(&bytes[..len]) {
            Err(e) => assert_eq!(
                e.kind(),
                std::io::ErrorKind::InvalidData,
                "truncation at {len} produced an untyped error: {e}"
            ),
            Ok(kernel) => {
                // A truncation that lands exactly after `root …\n`
                // would be a complete file; anything else is a bug.
                assert_loaded_kernel_coherent(&kernel);
            }
        }
    }
}

#[test]
fn single_bit_flips_never_panic_and_accepted_kernels_stay_coherent() {
    let (original, bytes) = saved_kernel_bytes();
    let mut accepted = 0usize;
    let mut rejected = 0usize;
    // Dense sample: every byte, cycling through all eight bit
    // positions, so magic, counts, references, hex terminals, and
    // whitespace are all hit.
    for (i, _) in bytes.iter().enumerate() {
        let mut corrupt = bytes.clone();
        corrupt[i] ^= 1 << (i % 8);
        match Kernel::load(corrupt.as_slice()) {
            Err(e) => {
                assert_eq!(
                    e.kind(),
                    std::io::ErrorKind::InvalidData,
                    "flip at byte {i} produced an untyped error: {e}"
                );
                rejected += 1;
            }
            Ok(kernel) => {
                // e.g. a flipped name character or terminal digit: a
                // different but valid kernel. It must still be a
                // coherent program, not a lurking out-of-bounds index.
                assert_loaded_kernel_coherent(&kernel);
                accepted += 1;
            }
        }
    }
    assert!(rejected > 0, "corruption was never rejected — suspicious");
    // The format is text, so *some* flips must survive as valid
    // kernels (name bytes at minimum); if none did, the harness is
    // not actually exercising the accepted-kernel path.
    assert!(accepted > 0, "no flip was ever accepted — sample too thin");
    let _ = original;
}

#[test]
fn swapped_and_duplicated_lines_are_rejected_or_coherent() {
    let (_, bytes) = saved_kernel_bytes();
    let text = String::from_utf8(bytes).expect("format is text");
    let lines: Vec<&str> = text.lines().collect();
    // Structural corruption beyond single bits: drop a line, duplicate
    // a line, swap adjacent lines — every variant loads Err or loads a
    // coherent kernel.
    for i in 0..lines.len() {
        let mut dropped: Vec<&str> = lines.clone();
        dropped.remove(i);
        let mut dup: Vec<&str> = lines.clone();
        dup.insert(i, lines[i]);
        let mut swapped: Vec<&str> = lines.clone();
        if i + 1 < lines.len() {
            swapped.swap(i, i + 1);
        }
        for variant in [dropped, dup, swapped] {
            let blob = format!("{}\n", variant.join("\n"));
            if let Ok(kernel) = Kernel::load(blob.as_bytes()) {
                assert_loaded_kernel_coherent(&kernel);
            }
        }
    }
}
