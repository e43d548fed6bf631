//! Pins fused sequential evaluation by `f64::to_bits`.
//!
//! `SeqModel::eval_fused` on the committed `seqpipe2` and on `perf`'s
//! generated `seq_fleet4` (seed 1516, four stages of twelve gates) is
//! recorded here at fixed Markov seeds: the transition count and the
//! bits of `sum_ff` and `max_ff`, for the design total and for every
//! macro. The lengths cross every packing edge the fused path has: no
//! transition, one, a partial 64-lane group, exactly one group, one
//! past it, a full 4096-lane flush plus a ragged tail, and a long run.
//! A change to the state walk, the lane packing or the summary fold
//! that moves one bit of any of these fails this test.

use charfree_conform::gen::{seq_blif, SeqGenConfig};
use charfree_netlist::benchmarks::committed;
use charfree_netlist::{blif, Library};
use charfree_pipeline::PipelineCtx;
use charfree_seq::{SeqModel, SeqSummary};
use charfree_sim::MarkovSource;

const LENGTHS: [usize; 9] = [0, 1, 2, 64, 65, 66, 4097, 4161, (1 << 15) + 37];

fn build(text: &str) -> SeqModel {
    let seq = blif::parse_seq(text).expect("design parses");
    let mut ctx = PipelineCtx::new(Library::test_library());
    SeqModel::build(&mut ctx, seq).expect("design builds")
}

fn fleet4() -> String {
    seq_blif(
        "seq_fleet4",
        1516,
        &SeqGenConfig {
            num_inputs: 6,
            stages: 4,
            gates_per_stage: 12,
            latches_per_stage: 2,
        },
    )
}

/// One run's pin: the transition count, the bits of the total's
/// `sum_ff` and `max_ff`, and an FNV-1a digest of every macro's
/// `(transitions, sum_ff bits, max_ff bits)` in macro order.
fn pin(s: &SeqSummary) -> (usize, u64, u64, u64) {
    let mut digest = 0xcbf2_9ce4_8422_2325_u64;
    for m in &s.per_macro {
        let t = &m.summary;
        for word in [t.transitions as u64, t.sum_ff.to_bits(), t.max_ff.to_bits()] {
            for byte in word.to_le_bytes() {
                digest = (digest ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    let t = &s.total;
    (
        t.transitions,
        t.sum_ff.to_bits(),
        t.max_ff.to_bits(),
        digest,
    )
}

fn pins(model: &SeqModel, seed: u64) -> Vec<(usize, u64, u64, u64)> {
    LENGTHS
        .iter()
        .map(|&len| {
            let patterns = MarkovSource::new(model.num_inputs(), 0.5, 0.4, seed)
                .expect("feasible stats")
                .sequence(len);
            let summary = model.eval_fused(&patterns);
            assert_eq!(summary.per_macro.len(), model.num_macros());
            pin(&summary)
        })
        .collect()
}

/// `(transitions, total sum_ff bits, total max_ff bits, per-macro
/// digest)` at each of [`LENGTHS`], as evaluated when this test was
/// written.
type Pins = [(usize, u64, u64, u64); LENGTHS.len()];

#[rustfmt::skip]
const SEQPIPE2_PINS: Pins = [
    (0, 0x0000000000000000, 0xfff0000000000000, 0x1de2b1f53f291105),
    (0, 0x0000000000000000, 0xfff0000000000000, 0x1de2b1f53f291105),
    (1, 0x0000000000000000, 0x0000000000000000, 0x7e4b92fa861b4885),
    (63, 0x4087e80000000000, 0x403d000000000000, 0xc67809c45dc371dd),
    (64, 0x4088980000000000, 0x403d000000000000, 0x2de4e094741e0fbf),
    (65, 0x4089680000000000, 0x403d000000000000, 0x309a6a9fb2252760),
    (4096, 0x40eec24000000000, 0x403d000000000000, 0xd493685249eaeaa8),
    (4160, 0x40ef338000000000, 0x403d000000000000, 0x27dfa6d65a202ea1),
    (32804, 0x411e513000000000, 0x403d000000000000, 0xa5c66ae39196646b),
];

#[rustfmt::skip]
const FLEET4_PINS: Pins = [
    (0, 0x0000000000000000, 0xfff0000000000000, 0xc05bf5e6bd53c458),
    (0, 0x0000000000000000, 0xfff0000000000000, 0xc05bf5e6bd53c458),
    (1, 0x406a800000000000, 0x406a800000000000, 0xf697d657958984c4),
    (63, 0x40c56a0000000000, 0x4075c00000000000, 0xf2bd5041c4d952b4),
    (64, 0x40c6000000000000, 0x4075c00000000000, 0xd0609807a5e977e1),
    (65, 0x40c6350000000000, 0x4075c00000000000, 0xdb18eddcfc53351a),
    (4096, 0x4125bff200000000, 0x4078e00000000000, 0xa8c62e72040c28e6),
    (4160, 0x412615ba00000000, 0x4078e00000000000, 0x881adf5312243933),
    (32804, 0x4155c265c0000000, 0x407a500000000000, 0x0466b570bb4c04fe),
];

fn check(model: &SeqModel, seed: u64, expected: &Pins) {
    for ((len, got), want) in LENGTHS.iter().zip(pins(model, seed)).zip(expected) {
        assert_eq!(
            got,
            *want,
            "{}: eval_fused over {len} patterns moved",
            model.name()
        );
    }
}

#[test]
fn seqpipe2_eval_fused_bits_are_pinned() {
    let model = build(committed::SEQPIPE2);
    assert_eq!(model.num_macros(), 2);
    check(&model, 0x5E0, &SEQPIPE2_PINS);
}

#[test]
fn seq_fleet4_eval_fused_bits_are_pinned() {
    let model = build(&fleet4());
    assert_eq!(model.num_macros(), 23);
    check(&model, 0xF1EE7, &FLEET4_PINS);
}
