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

/// An instruction count far past the file's length reserves nothing up
/// front: the loader reads to EOF and answers with a typed error.
#[test]
fn a_huge_declared_instruction_count_is_a_typed_error() {
    let (_, bytes) = saved_kernel_bytes();
    let text = String::from_utf8(bytes).expect("format is text");
    let hostile: String = text
        .lines()
        .map(|line| {
            if line.starts_with("instrs ") {
                "instrs 4000000000000000\n".to_owned()
            } else {
                format!("{line}\n")
            }
        })
        .collect();
    assert_ne!(hostile, text, "an `instrs` line is present");
    let err = Kernel::load(hostile.as_bytes()).expect_err("count past EOF");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
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

/// A `.cfk` text over 65 600 variables holding `levels` levels of 128
/// instructions. Level `j` (0 = deepest) tests variable
/// `4·(16399 − j)`, so each level sits in its own stride window and the
/// last window is 16 399 (fifteen window bits); node `i` of a level
/// branches to nodes `i` and `i + 1` of the level below. Every level
/// below the 127th is fully reachable from the root.
fn wide_levels_kernel_text(levels: usize) -> String {
    const INPUTS: usize = 32_800;
    const WIDTH: usize = 128;
    let vars = |offset: usize| -> String {
        let vars: Vec<String> = (0..INPUTS).map(|i| (2 * i + offset).to_string()).collect();
        vars.join(" ")
    };
    let mut text = format!(
        "charfree-kernel v1\nname wide\ninputs {INPUTS}\nvars {}\ninterleaved 1\n\
         xi {}\nxf {}\nterminals {:016x} {:016x}\ninstrs {}\n",
        2 * INPUTS,
        vars(0),
        vars(1),
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
                    format!("I{}", below + i),
                    format!("I{}", below + (i + 1) % WIDTH),
                )
            };
            text.push_str(&format!("{var} {lo} {hi}\n"));
        }
    }
    text.push_str(&format!("root I{}\n", (levels - 1) * WIDTH));
    text
}

/// The stride walk names an entry node by one `u32`: its index above
/// the bits of the last window the kernel tests (at most 2^16 entries
/// next to fifteen window bits). A valid kernel that walks (128
/// instructions per level of depth) and has more entry nodes than that
/// is refused at load with a typed error, never a panic; the same shape
/// with fewer levels loads, walks and stays coherent.
#[test]
fn stride_walk_entry_bound_is_a_typed_error() {
    // 500 levels: about 56 000 entry nodes.
    let kernel = Kernel::load(wide_levels_kernel_text(500).as_bytes()).expect("within the bound");
    assert!(kernel.walks(), "128 instructions per level of depth walk");
    assert_loaded_kernel_coherent(&kernel);
    // 600 levels: about 68 800 entry nodes.
    let err = Kernel::load(wide_levels_kernel_text(600).as_bytes())
        .expect_err("too many entry nodes for the stride walk");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    assert!(err.to_string().contains("stride walk"), "{err}");
}

/// `expected_capacitance` and every evaluator read input `i` at the
/// variables `2·slot` and `2·slot + 1`, so a kernel whose `xi`/`xf` maps
/// name anything else is refused at load. A decod kernel with its maps
/// rewritten to two blocks (`xi 0 1 2 3 4`, `xf 5 6 7 8 9`) used to load
/// and report an expected capacitance its own `eval` disagreed with.
#[test]
fn input_maps_must_be_interleaved_slot_pairs() {
    let library = Library::test_library();
    let model =
        ModelBuilder::new(&benchmarks::by_name("decod", &library).expect("Table 1 name")).build();
    let mut bytes = Vec::new();
    Kernel::compile(&model)
        .save(&mut bytes)
        .expect("in-memory save");
    let text = String::from_utf8(bytes).expect("the .cfk format is text");
    assert!(
        Kernel::load(text.as_bytes()).is_ok(),
        "the compiled maps load"
    );
    let with_maps = |xi: &str, xf: &str| -> String {
        let lines: Vec<String> = text
            .lines()
            .map(|line| match line.split_once(' ') {
                Some(("xi", _)) => format!("xi {xi}"),
                Some(("xf", _)) => format!("xf {xf}"),
                _ => line.to_owned(),
            })
            .collect();
        format!("{}\n", lines.join("\n"))
    };
    for (xi, xf) in [
        ("0 1 2 3 4", "5 6 7 8 9"),   // two blocks
        ("1 3 5 7 9", "0 2 4 6 8"),   // each pair swapped
        ("0 2 4 6 8", "1 3 5 7 10"),  // one pair split
        ("0 2 2 6 8", "1 3 3 7 9"),   // a slot twice
        ("0 2 4 6 10", "1 3 5 7 11"), // a slot out of range
        ("0 2 4 6", "1 3 5 7"),       // an input without variables
    ] {
        let err = Kernel::load(with_maps(xi, xf).as_bytes())
            .expect_err("maps other than slot pairs are refused");
        assert_eq!(
            err.kind(),
            std::io::ErrorKind::InvalidData,
            "xi {xi} / xf {xf}: {err}"
        );
    }
    let slots_permuted = Kernel::load(with_maps("8 6 4 2 0", "9 7 5 3 1").as_bytes())
        .expect("any slot permutation loads");
    assert_loaded_kernel_coherent(&slots_permuted);
}
