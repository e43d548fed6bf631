//! The workspace's shared non-cryptographic hashing primitives.
//!
//! Three hash families live here, each with exactly one implementation
//! (`charfree-core` re-exports this module as `charfree_core::hashing`
//! so higher layers never grow a private copy again):
//!
//! * [`FxHasher`] — a multiply-xor hasher in the style of rustc's FxHash
//!   for the unique/computed tables, whose keys are two or three 32-bit
//!   node identifiers (`std`'s SipHash is noticeably slower for such tiny
//!   fixed-size keys; see DESIGN.md §7);
//! * [`fnv1a_64`] — plain 64-bit FNV-1a, used by the serve registry to
//!   route keys to shards;
//! * [`Fnv128`] — two decorrelated 64-bit FNV-1a streams over
//!   length-prefixed sections, the artifact-store content key.
//!
//! Beside them, [`mix64`] is the one key mixer: the tables keyed by an
//! f64's bits (the manager's terminal table, the collapse sizer's leaf
//! table) mix the bits through it before [`FxHasher`] sees them.
//!
//! None of these are DoS-resistant; every key is internal data, never
//! attacker-controlled. The digests of [`fnv1a_64`] and [`Fnv128`] are
//! **stable API**: artifact-store file names and registry shard routing
//! are derived from them, so the unit tests below pin exact digests.

use std::hash::{BuildHasherDefault, Hasher};

/// The 64-bit FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The 64-bit FNV-1a prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The XOR applied to [`FNV_OFFSET`] to seed the second (decorrelated)
/// stream of [`Fnv128`].
pub const FNV_HI_TWEAK: u64 = 0x9e37_79b9_7f4a_7c15;

/// Plain 64-bit FNV-1a over `bytes`.
///
/// # Examples
///
/// ```
/// use charfree_dd::hash::fnv1a_64;
///
/// // The canonical FNV-1a test vector.
/// assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
/// assert_ne!(fnv1a_64(b"decod"), fnv1a_64(b"decoe"));
/// ```
#[must_use]
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    h
}

/// A 128-bit content hash: two independent 64-bit FNV-1a streams over the
/// same length-prefixed sections (the second stream starts from a
/// decorrelated offset basis). Far past accidental-collision range for
/// any realistic corpus.
///
/// Feed data through [`Fnv128::section`] — every section is 8-byte-LE
/// length-prefixed before hashing, so boundaries cannot alias
/// (`["ab", "c"]` and `["a", "bc"]` digest differently).
///
/// # Examples
///
/// ```
/// use charfree_dd::hash::Fnv128;
///
/// let mut a = Fnv128::new();
/// a.section(b"ab").section(b"c");
/// let mut b = Fnv128::new();
/// b.section(b"a").section(b"bc");
/// assert_ne!(a.finish(), b.finish());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Fnv128 {
    lo: u64,
    hi: u64,
}

impl Default for Fnv128 {
    fn default() -> Self {
        Fnv128::new()
    }
}

impl Fnv128 {
    /// A fresh pair of streams at their offset bases.
    #[must_use]
    pub fn new() -> Fnv128 {
        Fnv128 {
            lo: FNV_OFFSET,
            hi: FNV_OFFSET ^ FNV_HI_TWEAK,
        }
    }

    /// Absorbs one length-prefixed section into both streams.
    pub fn section(&mut self, bytes: &[u8]) -> &mut Self {
        let prefix = (bytes.len() as u64).to_le_bytes();
        for part in [&prefix[..], bytes] {
            for &b in part {
                self.lo = (self.lo ^ u64::from(b)).wrapping_mul(FNV_PRIME);
                self.hi = (self.hi ^ u64::from(b)).wrapping_mul(FNV_PRIME);
            }
        }
        self
    }

    /// The digest so far as `(lo, hi)` stream values.
    #[must_use]
    pub fn finish(&self) -> (u64, u64) {
        (self.lo, self.hi)
    }

    /// The digest so far as one `u128` (`hi` in the upper 64 bits — the
    /// same ordering as the artifact store's 32-hex-digit file stems).
    #[must_use]
    pub fn finish_u128(&self) -> u128 {
        (u128::from(self.hi) << 64) | u128::from(self.lo)
    }
}

/// The IEEE-754 bit pattern of `v` with the sign of zero canonicalized:
/// `-0.0` and `0.0` quantize to the same bits, so equal values cannot
/// diverge on the sign of zero. All other values
/// (including non-zero negatives and infinities) keep their exact bits.
///
/// # Examples
///
/// ```
/// use charfree_dd::hash::canonical_f64_bits;
///
/// assert_eq!(canonical_f64_bits(-0.0), canonical_f64_bits(0.0));
/// assert_ne!(canonical_f64_bits(-1.5), canonical_f64_bits(1.5));
/// ```
#[must_use]
pub fn canonical_f64_bits(v: f64) -> u64 {
    if v == 0.0 {
        0.0f64.to_bits()
    } else {
        v.to_bits()
    }
}

/// The key of an f64's bits in an [`FxHashMap`]: a bijective 64-bit
/// finalizer, the first xorshift-multiply-xorshift round of MurmurHash3's
/// `fmix64`.
///
/// [`FxHasher`] is one multiply, so the low bits of its hash, which pick
/// the bucket, depend only on the low bits of the key. Values on a grid,
/// or sums of loads with short mantissas, end in dozens of zero bits and
/// would all share one probe run; mixed first, they spread. The mixer is
/// a bijection, so two keys collide exactly when the bits do.
///
/// # Examples
///
/// ```
/// use charfree_dd::hash::mix64;
///
/// assert_eq!(mix64(0), 0);
/// assert_ne!(mix64(1.0f64.to_bits()) & 0xffff, mix64(2.0f64.to_bits()) & 0xffff);
/// ```
#[inline]
#[must_use]
pub fn mix64(bits: u64) -> u64 {
    let mut h = bits;
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^ (h >> 33)
}

/// Multiply-xor hasher in the style of rustc's FxHash.
///
/// # Examples
///
/// ```
/// use charfree_dd::hash::FxHashMap;
///
/// let mut map: FxHashMap<u32, &str> = FxHashMap::default();
/// map.insert(7, "seven");
/// assert_eq!(map.get(&7), Some(&"seven"));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    state: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }
}

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<K> = std::collections::HashSet<K, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_roundtrip() {
        let mut map: FxHashMap<(u32, u32), u32> = FxHashMap::default();
        for i in 0..1000u32 {
            map.insert((i, i.wrapping_mul(3)), i);
        }
        for i in 0..1000u32 {
            assert_eq!(map.get(&(i, i.wrapping_mul(3))), Some(&i));
        }
        assert_eq!(map.len(), 1000);
    }

    #[test]
    fn distinct_keys_usually_distinct_hashes() {
        use std::hash::{BuildHasher, BuildHasherDefault};
        let bh: BuildHasherDefault<FxHasher> = BuildHasherDefault::default();
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            seen.insert(bh.hash_one(i));
        }
        // A handful of collisions would be acceptable; total degeneracy is not.
        assert!(seen.len() > 9_900);
    }

    #[test]
    fn set_roundtrip() {
        let mut set: FxHashSet<u64> = FxHashSet::default();
        set.insert(42);
        assert!(set.contains(&42));
        assert!(!set.contains(&43));
    }

    // The digests below are pinned as exact constants: artifact-store
    // file names and registry shard routing derive from them, so any
    // change here silently orphans every existing on-disk cache.

    #[test]
    fn fnv1a_64_digests_are_pinned() {
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"decod"), 0xe220_4075_ace4_b110);
    }

    #[test]
    fn fnv128_digests_are_pinned() {
        let mut h = Fnv128::new();
        h.section(b"ab").section(b"c");
        let (lo, hi) = h.finish();
        assert_eq!(
            format!("{hi:016x}{lo:016x}"),
            "8ec8ca50480087697e60470bf599cad6"
        );
        let mut h = Fnv128::new();
        for s in ["model", "netlist", "lib", "options"] {
            h.section(s.as_bytes());
        }
        let (lo, hi) = h.finish();
        assert_eq!(
            format!("{hi:016x}{lo:016x}"),
            "658e1da7209fd055a55cf4fb4b0664f0"
        );
        assert_eq!(h.finish_u128(), (u128::from(hi) << 64) | u128::from(lo));
    }

    #[test]
    fn fnv128_sections_cannot_alias() {
        let mut a = Fnv128::new();
        a.section(b"a").section(b"bc");
        let mut b = Fnv128::new();
        b.section(b"ab").section(b"c");
        assert_ne!(a.finish(), b.finish());
        let empty = Fnv128::new().finish();
        let one_empty_section = *Fnv128::new().section(b"");
        assert_ne!(empty, one_empty_section.finish());
    }

    // Pinned so that a change to the mixer is a deliberate one; keys are
    // never persisted, so nothing on disk depends on these.
    #[test]
    fn mix64_outputs_are_pinned() {
        assert_eq!(mix64(0), 0);
        assert_eq!(mix64(1), 0xff51_afd7_92fd_5b26);
        assert_eq!(mix64(0.125f64.to_bits()), 0x0f6d_06e8_01d6_8374);
        assert_eq!(mix64(1.0f64.to_bits()), 0xf21b_46ed_4095_a376);
        assert_eq!(mix64(600.0f64.to_bits()), 0x2f22_ad52_6348_b6a9);
        assert_eq!(mix64((-2.5f64).to_bits()), 0x4be3_ef77_dc6b_f7bb);
    }

    #[test]
    fn mix64_spreads_grid_values_over_low_bits() {
        // Multiples of 1/8 share their low 48 bits; mixed, their low 16
        // bits (what a 64 Ki-bucket table probes) are nearly all distinct.
        let low: FxHashSet<u64> = (1..=4096)
            .map(|k| mix64((f64::from(k) * 0.125).to_bits()) & 0xffff)
            .collect();
        assert!(low.len() > 3900, "{} distinct", low.len());
    }

    #[test]
    fn canonical_bits_fold_signed_zero_only() {
        assert_eq!(canonical_f64_bits(-0.0), canonical_f64_bits(0.0));
        assert_eq!(canonical_f64_bits(0.0), 0u64);
        assert_ne!(canonical_f64_bits(-2.5), canonical_f64_bits(2.5));
        assert_eq!(canonical_f64_bits(1.5), 1.5f64.to_bits());
        assert_eq!(
            canonical_f64_bits(f64::NEG_INFINITY),
            f64::NEG_INFINITY.to_bits()
        );
    }
}
