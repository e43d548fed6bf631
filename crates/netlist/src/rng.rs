//! The workspace's one seeded generator: xoshiro256++ seeded through
//! SplitMix64.
//!
//! Every Markov pattern stream (`charfree-sim`'s `MarkovSource`), every
//! [`random_logic`](crate::benchmarks::random_logic) circuit and every
//! property-test case ([`crate::testutil::check`]) is drawn from it, so
//! its output for a seed is part of the reproduction:
//! `crates/sim/tests/stream_pin.rs` and
//! `crates/netlist/tests/random_logic_pin.rs` pin it. Not cryptographically
//! secure.

/// The SplitMix64 increment (2⁶⁴ divided by the golden ratio).
pub const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// One SplitMix64 output for the state `x`: the finalizer applied to
/// `x + GOLDEN_GAMMA`. A stream steps its state by `GOLDEN_GAMMA` per
/// draw; on its own it is a cheap, high-quality 64-bit hash.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(GOLDEN_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A deterministic xoshiro256++ generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// A generator whose state is the first four SplitMix64 outputs of
    /// `seed`.
    pub fn seed_from_u64(seed: u64) -> Rng {
        let mut s = [0; 4];
        for (k, word) in (0u64..).zip(&mut s) {
            *word = splitmix64(seed.wrapping_add(k.wrapping_mul(GOLDEN_GAMMA)));
        }
        Rng { s }
    }

    /// The next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// An exactly uniform draw in `0..width` (`width > 0`): raw draws at
    /// or above the largest multiple of `width` in `u64` are redrawn.
    #[inline]
    pub fn below(&mut self, width: u64) -> u64 {
        assert!(width > 0, "below(0) has no value to draw");
        let zone = u64::MAX - u64::MAX % width;
        loop {
            let x = self.next_u64();
            if x < zone {
                return x % width;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn below_is_in_bounds_and_hits_every_value() {
        let mut rng = Rng::seed_from_u64(9);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = rng.below(10);
            assert!(v < 10);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "{seen:?}");
        // Width 1 has one value, and still consumes a draw.
        let mut one = Rng::seed_from_u64(9);
        let mut raw = one.clone();
        assert_eq!(one.below(1), 0);
        raw.next_u64();
        assert_eq!(one, raw);
        // Near u64::MAX almost half the raw draws fall in the rejected
        // zone; every accepted one is in bounds.
        let wide = u64::MAX / 2 + 2;
        for _ in 0..1000 {
            assert!(rng.below(wide) < wide);
        }
        assert!(rng.below(u64::MAX) < u64::MAX);
    }
}
