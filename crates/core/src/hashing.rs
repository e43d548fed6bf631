//! Workspace-canonical hashing primitives.
//!
//! Every digest the workspace computes — decision-diagram unique-table
//! probes, 128-bit artifact-store keys, serve-registry shard routing —
//! flows through the one implementation
//! in [`charfree_dd::hash`]. This module re-exports it under the crate
//! the rest of the stack already depends on, so higher layers
//! (`charfree-pipeline`, `charfree-serve`, benches) can write
//! `charfree_core::hashing::fnv1a_64` without growing a direct `dd`
//! dependency edge for a hash function.
//!
//! Why re-export rather than own: `charfree-core` depends on
//! `charfree-dd` (the diagrams live there), and the `Manager`'s hot
//! unique-table probes need the hasher without crossing a crate boundary
//! upward. Hosting the bytes-level implementation in `dd` and the
//! workspace-facing name here keeps the dependency graph acyclic while
//! still giving the workspace one set of constants to pin.
//!
//! The digests are load-bearing: artifact-store keys (`.cfm` filenames)
//! and registry shard assignment are derived from them, so any change to these functions silently orphans every
//! on-disk cache. The tests below pin exact digests for that reason.

pub use charfree_dd::hash::{
    canonical_f64_bits, fnv1a_64, Fnv128, FxHashMap, FxHashSet, FxHasher, FNV_HI_TWEAK, FNV_OFFSET,
    FNV_PRIME,
};

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact digests `ArtifactKey::derive` produced before the
    /// implementations were unified. If any of these move, every cached
    /// artifact on disk is orphaned — treat a failure here as a
    /// compatibility break, not a test to update.
    #[test]
    fn artifact_key_digests_are_stable_across_the_unification() {
        let mut k = Fnv128::new();
        k.section(b"ab").section(b"c");
        let (lo, hi) = k.finish();
        assert_eq!(
            format!("{hi:016x}{lo:016x}"),
            "8ec8ca50480087697e60470bf599cad6"
        );

        let mut k = Fnv128::new();
        for s in ["model", "netlist", "lib", "options"] {
            k.section(s.as_bytes());
        }
        let (lo, hi) = k.finish();
        assert_eq!(
            format!("{hi:016x}{lo:016x}"),
            "658e1da7209fd055a55cf4fb4b0664f0"
        );
    }

    /// Registry shard routing hashes key strings with plain FNV-1a 64;
    /// pin a few digests so resharding can't happen by accident.
    #[test]
    fn registry_shard_digests_are_stable() {
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"decod"), 0xe220_4075_ace4_b110);
    }
}
