//! Pins `benchmarks::random_logic` to the circuits it generates today.
//!
//! Five property suites build their circuits with `random_logic`, so a
//! generator change that moves one gate changes what every one of them
//! tests. For each input count the property tests use (3 to 8) this folds
//! `blif::write` of every gate count from 4 to 39, at 16 seeds each, into
//! one 64-bit FNV-1a hash and compares it with the recorded constant.

use charfree_netlist::{benchmarks, blif, Library};

/// `PINNED[i]`: the hash of the sweep at `3 + i` inputs.
const PINNED: [u64; 6] = [
    0x08dd_2589_7f40_3c54,
    0x017c_7033_8d4f_51c5,
    0x6cf2_6b2c_ed48_bf4a,
    0xdfb8_4d8e_5b9c_1aeb,
    0x5b91_3544_4e39_d7af,
    0xd57e_ef2f_bf94_49a4,
];

/// Seeds spread over the `0..10_000` range the property tests draw from.
fn seeds() -> impl Iterator<Item = u64> {
    (0..16u64).map(|k| k * 631 + k * k)
}

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn random_logic_circuits_are_pinned() {
    let library = Library::test_library();
    let hashes: Vec<u64> = (3..=8usize)
        .map(|inputs| {
            let mut hash = 0xcbf2_9ce4_8422_2325;
            for gates in 4..40usize {
                for seed in seeds() {
                    let netlist = benchmarks::random_logic("prop", inputs, gates, seed, &library);
                    hash = fnv1a(hash, blif::write(&netlist).as_bytes());
                }
            }
            hash
        })
        .collect();
    for (i, (&got, &want)) in hashes.iter().zip(&PINNED).enumerate() {
        assert_eq!(got, want, "random_logic at {} inputs moved", 3 + i);
    }
}
