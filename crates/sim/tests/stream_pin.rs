//! Pins the Markov pattern stream: for a fixed seed, width and `(sp, st)`
//! the sources must keep emitting exactly the patterns they emit today.
//!
//! Every Table 1 number, every `charfree eval`/`trace`/`sim` report and
//! every served `eval`/`trace` answer is computed over these streams, so a
//! generator change that moves one bit moves published results. Each case
//! folds its first 10 000 patterns into a 64-bit FNV-1a hash (one byte per
//! bit, a separator byte per pattern) and compares it with the constant
//! recorded when the stream was pinned. The table covers widths either
//! side of a machine word and the `p = 0` (never flips) and `p = 1`
//! (always flips) edges of the per-bit transition probabilities.

use charfree_sim::{BurstSource, MarkovSource};

const PATTERNS: usize = 10_000;

const WIDTHS: [usize; 5] = [1, 5, 19, 64, 65];

const STATISTICS: [(f64, f64); 5] = [(0.5, 0.4), (0.2, 0.3), (0.8, 0.35), (0.5, 0.0), (0.5, 1.0)];

/// `PINNED[w][s]`: hash of the stream at `WIDTHS[w]`, `STATISTICS[s]`,
/// seeded with `seed_for(w, s)`.
const PINNED: [[u64; 5]; 5] = [
    [
        0xc4f6_cdf6_02e7_d2c4,
        0xe971_4872_be7a_56c9,
        0x834e_1c63_4022_ad6d,
        0x6a35_ada3_06f7_cd05,
        0x2472_9af3_33b9_dd25,
    ],
    [
        0xbe4e_bbed_ef06_f1db,
        0x5471_738f_2289_93ac,
        0x111f_b684_2256_8c15,
        0x467b_6d7c_eee0_cdc5,
        0x2d3b_f80f_49f6_5525,
    ],
    [
        0x2a66_0e75_ebf9_7d1b,
        0x8311_e84e_3d13_3fcc,
        0x00ec_ba99_63b0_1a24,
        0x2f28_239a_6031_3765,
        0xce22_0fd9_b858_2845,
    ],
    [
        0x56cc_926d_ce5a_bdf7,
        0xfeb2_ce0a_d36f_40f2,
        0xbb97_42ed_2a29_1b01,
        0x9c5e_11bf_7c99_1645,
        0xd8ca_96ee_4e0f_39b5,
    ],
    [
        0xefef_4e03_b29c_66a4,
        0x3b2e_9b5b_78be_03f1,
        0x84fd_1d9e_743b_e6c0,
        0xc86a_720f_f045_7ec5,
        0xf32b_27fc_1f87_fc25,
    ],
];

/// Hash of the `BurstSource` case in [`burst_stream_is_pinned`].
const PINNED_BURST: u64 = 0x4355_bef1_48c3_c7c1;

fn seed_for(w: usize, s: usize) -> u64 {
    1998 + 100 * w as u64 + s as u64
}

fn fold(hash: &mut u64, pattern: &[bool]) {
    let bytes = pattern.iter().map(|&bit| if bit { b'1' } else { b'0' });
    for byte in bytes.chain(std::iter::once(b'\n')) {
        *hash = (*hash ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

#[test]
fn markov_stream_is_pinned() {
    let mut got = [[0u64; 5]; 5];
    for (w, &width) in WIDTHS.iter().enumerate() {
        for (s, &(sp, st)) in STATISTICS.iter().enumerate() {
            let mut source = MarkovSource::new(width, sp, st, seed_for(w, s)).expect("feasible");
            let mut hash = FNV_OFFSET;
            // Half through `next_pattern`, half through `sequence`: both
            // entry points advance the same chain.
            for _ in 0..PATTERNS / 2 {
                fold(&mut hash, &source.next_pattern());
            }
            for pattern in source.sequence(PATTERNS / 2) {
                fold(&mut hash, &pattern);
            }
            got[w][s] = hash;
        }
    }
    assert_eq!(got, PINNED, "the Markov stream moved; got {got:#018x?}");
}

#[test]
fn burst_stream_is_pinned() {
    let mut source =
        BurstSource::new(19, (0.5, 0.05), (0.35, 0.6), 0.02, 0.1, 1998).expect("feasible");
    let mut hash = FNV_OFFSET;
    for pattern in source.sequence(PATTERNS) {
        fold(&mut hash, &pattern);
    }
    assert_eq!(
        hash, PINNED_BURST,
        "the burst stream moved; got {hash:#018x}"
    );
}
