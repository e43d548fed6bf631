//! Cross-build structural sharing: canonical sub-DAG fingerprints and a
//! unique table that outlives [`Manager`] instances.
//!
//! Every `Manager` arena is private — node identifiers are indices into
//! one arena and mean nothing to the next build. What *is* portable is
//! the structure: a reduced ordered DD is canonical, so the function a
//! node computes is fully determined by `(var, lo, hi)` down to the
//! terminal values. This module names that structure with a 128-bit
//! content [`Fingerprint`] (terminals hash their canonical IEEE-754
//! bits, internal nodes hash `(var, fp(lo), fp(hi))`) and keeps a
//! process-wide [`SharedTable`] mapping
//!
//! * fingerprint → structure ([`SharedEntry`]), enough to *materialize*
//!   the sub-DAG into any arena, and
//! * `(op, fp(f), fp(g)[, fp(h)])` → result fingerprint + recorded cost,
//!   a cross-build apply/ITE memo.
//!
//! A `Manager` with a table attached ([`Manager::attach_shared`])
//! records every interned node and consults the apply memo on each
//! local computed-table miss: a sub-DAG built for one macro is a cache
//! hit for the next, even in a different arena or a different thread.
//! Each of the table's two maps holds at most [`MAX_TABLE_ENTRIES`]
//! entries; past that, recording is a no-op and the table only serves
//! what it already holds.
//!
//! **Bit-exactness invariant:** a shared-table hit is always
//! bit-identical to a fresh build. Apply results are exact f64
//! arithmetic (approximation happens later, in collapse), the
//! fingerprint identifies the exact result DAG, and materialization
//! re-interns that DAG node for node — so replaying a memoized result
//! cannot change a single output bit. conform's delta-rebuild layer
//! checks this end to end.
//!
//! [`Manager`]: crate::Manager
//! [`Manager::attach_shared`]: crate::Manager::attach_shared

use crate::hash::{Fnv128, FxHashMap};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The opcode byte used for ITE entries in the shared apply memo.
/// Binary operators use [`BinOp::opcode`](crate::BinOp) (0–7); this
/// value is reserved outside that range.
pub const ITE_OPCODE: u8 = 0xFE;

/// A 128-bit canonical content hash of one sub-DAG.
///
/// Two nodes (in any two arenas) with equal fingerprints compute the
/// same function over the same variable numbering, bit for bit —
/// modulo the astronomically unlikely 128-bit collision, the same
/// argument the content-addressed artifact store already rests on.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(u128);

impl Fingerprint {
    /// Fingerprint of a terminal with the given **canonical** f64 bits
    /// (see [`canonical_f64_bits`](crate::hash::canonical_f64_bits):
    /// `-0.0` has already been folded into `0.0`, so signed zero cannot
    /// split structurally identical DAGs).
    #[must_use]
    pub fn terminal(canonical_bits: u64) -> Fingerprint {
        let mut h = Fnv128::new();
        h.section(b"t").section(&canonical_bits.to_le_bytes());
        Fingerprint(h.finish_u128())
    }

    /// Fingerprint of an internal node over its children's fingerprints.
    #[must_use]
    pub fn node(var: u32, lo: Fingerprint, hi: Fingerprint) -> Fingerprint {
        let mut h = Fnv128::new();
        h.section(b"n")
            .section(&var.to_le_bytes())
            .section(&lo.0.to_le_bytes())
            .section(&hi.0.to_le_bytes());
        Fingerprint(h.finish_u128())
    }

    /// The 32-hex-digit rendering.
    #[must_use]
    pub fn hex(&self) -> String {
        format!("{:032x}", self.0)
    }

    fn shard(&self, shards: usize) -> usize {
        // High bits: the low 64 already feed the apply-memo hash.
        ((self.0 >> 64) as u64 % shards as u64) as usize
    }
}

impl fmt::Debug for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fingerprint({})", self.hex())
    }
}

/// The portable structure of one node, keyed by its [`Fingerprint`]:
/// everything needed to re-intern the sub-DAG into a fresh arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SharedEntry {
    /// A terminal, as canonical IEEE-754 bits.
    Terminal(u64),
    /// An internal node over its children's fingerprints.
    Node {
        /// Decision variable index.
        var: u32,
        /// Fingerprint of the else-child.
        lo: Fingerprint,
        /// Fingerprint of the then-child.
        hi: Fingerprint,
    },
}

/// Key of one cross-build apply/ITE memo entry: the operation and the
/// operand fingerprints. `c` is `None` for binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ApplyKey {
    /// [`BinOp::opcode`](crate::BinOp) for binary ops, [`ITE_OPCODE`]
    /// for ternary ITE.
    pub op: u8,
    /// Fingerprint of the first operand.
    pub a: Fingerprint,
    /// Fingerprint of the second operand.
    pub b: Fingerprint,
    /// Fingerprint of the third operand (ITE only).
    pub c: Option<Fingerprint>,
}

impl ApplyKey {
    /// Key for a binary apply.
    #[must_use]
    pub fn binary(op: u8, a: Fingerprint, b: Fingerprint) -> ApplyKey {
        ApplyKey { op, a, b, c: None }
    }

    /// Key for a ternary ITE.
    #[must_use]
    pub fn ite(f: Fingerprint, g: Fingerprint, h: Fingerprint) -> ApplyKey {
        ApplyKey {
            op: ITE_OPCODE,
            a: f,
            b: g,
            c: Some(h),
        }
    }

    fn shard(&self, shards: usize) -> usize {
        (self.a.shard(shards) + 3 * self.b.shard(shards) + self.op as usize) % shards
    }
}

/// Point-in-time counters of a shared table (all monotone).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableCounters {
    /// Apply/ITE memo hits that materialized successfully.
    pub table_hits: u64,
    /// Apply/ITE memo probes that missed (the work was computed and
    /// recorded instead).
    pub table_misses: u64,
    /// Recorded apply-step cost of every hit: symbolic work the table
    /// saved its consumers.
    pub apply_steps_saved: u64,
    /// Delta rebuilds routed through this table (see
    /// `PipelineCtx::rebuild_delta` in `charfree-pipeline`).
    pub delta_rebuilds: u64,
}

const SHARDS: usize = 16;

/// Entry cap of each of a [`SharedTable`]'s two maps (structure and apply
/// memo), split evenly over its shards. A long-lived table — one server
/// fed distinct netlists — stops recording at the cap instead of growing
/// without bound; a missing entry is only a memo miss, so the cap never
/// changes a built model.
pub const MAX_TABLE_ENTRIES: usize = 1 << 18;

#[derive(Debug, Default)]
struct Shard {
    structure: FxHashMap<Fingerprint, SharedEntry>,
    apply: FxHashMap<ApplyKey, (Fingerprint, u64)>,
}

/// The cross-build unique table a [`Manager`](crate::Manager) consults
/// for structural sharing: sharded mutex-protected maps, each capped at
/// [`MAX_TABLE_ENTRIES`], plus relaxed atomic counters. Cheap to share (`Arc<SharedTable>`) and safe to consult from every
/// build thread of a server: every method takes `&self`. The manager's
/// arena-local interning (canonicity within one arena) stays where it
/// is; this table is the boundary through which structure escapes the
/// arena.
#[derive(Debug)]
pub struct SharedTable {
    shards: Vec<Mutex<Shard>>,
    /// Entries each shard's map may hold (`MAX_TABLE_ENTRIES / SHARDS`).
    shard_cap: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    steps_saved: AtomicU64,
    delta_rebuilds: AtomicU64,
}

impl Default for SharedTable {
    fn default() -> Self {
        SharedTable::new()
    }
}

impl SharedTable {
    /// An empty table.
    #[must_use]
    pub fn new() -> SharedTable {
        SharedTable::with_shard_cap(MAX_TABLE_ENTRIES / SHARDS)
    }

    fn with_shard_cap(shard_cap: usize) -> SharedTable {
        SharedTable {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            shard_cap,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            steps_saved: AtomicU64::new(0),
            delta_rebuilds: AtomicU64::new(0),
        }
    }

    fn shard(&self, i: usize) -> std::sync::MutexGuard<'_, Shard> {
        // A poisoned mutex means another build thread panicked while
        // holding the shard; entries are monotone write-once structure,
        // so the data is still consistent — keep serving it.
        match self.shards[i].lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Structure entries recorded.
    #[must_use]
    pub fn len(&self) -> usize {
        (0..SHARDS).map(|i| self.shard(i).structure.len()).sum()
    }

    /// Whether no structure has been recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current counter values.
    #[must_use]
    pub fn counters(&self) -> TableCounters {
        TableCounters {
            table_hits: self.hits.load(Ordering::Relaxed),
            table_misses: self.misses.load(Ordering::Relaxed),
            apply_steps_saved: self.steps_saved.load(Ordering::Relaxed),
            delta_rebuilds: self.delta_rebuilds.load(Ordering::Relaxed),
        }
    }

    /// Counts one delta rebuild routed through this table.
    pub fn note_delta_rebuild(&self) {
        self.delta_rebuilds.fetch_add(1, Ordering::Relaxed);
    }

    /// Looks up the structure recorded under `fp`.
    pub fn lookup(&self, fp: Fingerprint) -> Option<SharedEntry> {
        self.shard(fp.shard(SHARDS)).structure.get(&fp).copied()
    }

    /// Records the structure of a freshly interned node. Recording the
    /// same fingerprint twice is a no-op (first write wins).
    pub fn record(&self, fp: Fingerprint, entry: SharedEntry) {
        let mut shard = self.shard(fp.shard(SHARDS));
        if shard.structure.len() < self.shard_cap {
            shard.structure.entry(fp).or_insert(entry);
        }
    }

    /// Probes the cross-build apply/ITE memo. Returns the result
    /// fingerprint and the apply-step cost recorded when it was first
    /// computed.
    pub fn lookup_apply(&self, key: &ApplyKey) -> Option<(Fingerprint, u64)> {
        self.shard(key.shard(SHARDS)).apply.get(key).copied()
    }

    /// Records a computed apply/ITE result and its measured step cost.
    pub fn record_apply(&self, key: ApplyKey, result: Fingerprint, steps: u64) {
        let mut shard = self.shard(key.shard(SHARDS));
        if shard.apply.len() < self.shard_cap {
            shard.apply.entry(key).or_insert((result, steps));
        }
    }

    /// Counts one memo hit whose recorded cost was `steps_saved`.
    pub fn note_apply_hit(&self, steps_saved: u64) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        self.steps_saved.fetch_add(steps_saved, Ordering::Relaxed);
    }

    /// Counts one memo miss.
    pub fn note_apply_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_table() -> SharedTable {
        let t = SharedTable::new();
        let zero = Fingerprint::terminal(0);
        let one = Fingerprint::terminal(1.0f64.to_bits());
        t.record(zero, SharedEntry::Terminal(0));
        t.record(one, SharedEntry::Terminal(1.0f64.to_bits()));
        let n = Fingerprint::node(3, zero, one);
        t.record(
            n,
            SharedEntry::Node {
                var: 3,
                lo: zero,
                hi: one,
            },
        );
        t.record_apply(ApplyKey::binary(2, zero, one), n, 17);
        t.record_apply(ApplyKey::ite(n, zero, one), one, 4);
        t
    }

    #[test]
    fn fingerprints_are_structural() {
        let a = Fingerprint::terminal(1.5f64.to_bits());
        let b = Fingerprint::terminal(2.5f64.to_bits());
        assert_eq!(a, Fingerprint::terminal(1.5f64.to_bits()));
        assert_ne!(a, b);
        let n1 = Fingerprint::node(0, a, b);
        assert_eq!(n1, Fingerprint::node(0, a, b));
        assert_ne!(n1, Fingerprint::node(1, a, b), "var matters");
        assert_ne!(n1, Fingerprint::node(0, b, a), "child order matters");
        assert_ne!(n1, a, "nodes and terminals are domain-separated");
    }

    #[test]
    fn hex_renders_all_128_bits() {
        let fp = Fingerprint::node(
            7,
            Fingerprint::terminal(0),
            Fingerprint::terminal(2.25f64.to_bits()),
        );
        assert_eq!(fp.hex().len(), 32);
        assert_eq!(u128::from_str_radix(&fp.hex(), 16).ok(), Some(fp.0));
    }

    #[test]
    fn record_is_first_write_wins_and_lookup_agrees() {
        let t = SharedTable::new();
        let fp = Fingerprint::terminal(42);
        t.record(fp, SharedEntry::Terminal(42));
        t.record(fp, SharedEntry::Terminal(99)); // ignored
        assert_eq!(t.lookup(fp), Some(SharedEntry::Terminal(42)));
        assert_eq!(t.lookup(Fingerprint::terminal(43)), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn counters_accumulate() {
        let t = sample_table();
        assert_eq!(t.counters(), TableCounters::default());
        t.note_apply_hit(10);
        t.note_apply_hit(5);
        t.note_apply_miss();
        t.note_delta_rebuild();
        let c = t.counters();
        assert_eq!(c.table_hits, 2);
        assert_eq!(c.table_misses, 1);
        assert_eq!(c.apply_steps_saved, 15);
        assert_eq!(c.delta_rebuilds, 1);
    }

    #[test]
    fn recording_stops_at_the_cap_and_earlier_entries_still_hit() {
        const SHARD_CAP: usize = 4;
        let cap = SHARD_CAP * SHARDS;
        let t = SharedTable::with_shard_cap(SHARD_CAP);
        // Spread the bits over every byte so the entries reach every shard.
        let terminal = |i: u64| {
            let bits = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            (Fingerprint::terminal(bits), SharedEntry::Terminal(bits))
        };
        let key = |i: u64| ApplyKey::binary(2, terminal(i).0, terminal(i + 1).0);
        let apply_len =
            |t: &SharedTable| -> usize { (0..SHARDS).map(|i| t.shard(i).apply.len()).sum() };
        // Record well past the cap: every shard fills, none overflows.
        let recorded = 16 * cap as u64;
        for i in 0..recorded {
            let (fp, entry) = terminal(i);
            t.record(fp, entry);
            t.record_apply(key(i), fp, i);
        }
        assert_eq!(t.len(), cap);
        assert_eq!(apply_len(&t), cap);
        let mut structure_hits = 0;
        let mut apply_hits = 0;
        for i in 0..recorded {
            let (fp, entry) = terminal(i);
            if let Some(hit) = t.lookup(fp) {
                assert_eq!(hit, entry);
                structure_hits += 1;
            }
            if let Some(hit) = t.lookup_apply(&key(i)) {
                assert_eq!(hit, (fp, i));
                apply_hits += 1;
            }
        }
        assert_eq!((structure_hits, apply_hits), (cap, cap));
        // The first entry of every shard landed before that shard filled.
        let (first, entry) = terminal(0);
        assert_eq!(t.lookup(first), Some(entry));
        assert_eq!(t.lookup_apply(&key(0)), Some((first, 0)));
        // Past the cap, recording is a no-op.
        let (late, late_entry) = terminal(recorded);
        t.record(late, late_entry);
        t.record_apply(key(recorded), late, 1);
        assert_eq!(t.len(), cap);
        assert_eq!(apply_len(&t), cap);
    }

    #[test]
    fn table_is_shareable_across_threads() {
        use std::sync::Arc;
        let t = Arc::new(SharedTable::new());
        let mut handles = Vec::new();
        for i in 0..4u64 {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                for j in 0..256u64 {
                    let bits = (i * 1000 + j) << 4;
                    let fp = Fingerprint::terminal(bits);
                    t.record(fp, SharedEntry::Terminal(bits));
                    assert_eq!(t.lookup(fp), Some(SharedEntry::Terminal(bits)));
                }
            }));
        }
        for h in handles {
            h.join().expect("no panics");
        }
        assert_eq!(t.len(), 4 * 256);
    }
}
