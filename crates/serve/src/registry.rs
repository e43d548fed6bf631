//! Shared warm-model registry.
//!
//! Every connection resolves model operands through one process-wide
//! registry of resident models: compiled combinational kernels and
//! sequential compositions alike. Entries are `Arc`s so an eviction
//! never invalidates in-flight work: the dispatcher holds its own clone
//! for as long as a micro-batch references the model.
//!
//! The registry is bounded by a *byte* budget (the sum of
//! [`Resident::bytes`] over resident entries), not an entry count,
//! because footprints span four orders of magnitude between a 2-input
//! gate and a wide interleaved benchmark. When an insert pushes the
//! total over budget, least-recently-used entries are evicted until it
//! fits again — except that the entry being inserted is never evicted,
//! so a single over-budget model still serves (the budget is a target,
//! not a hard cap; refusing the model entirely would turn every request
//! for it into a rebuild).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use charfree_engine::Kernel;
use charfree_seq::SeqModel;

/// A registry-resident model.
#[derive(Clone)]
pub enum Resident {
    /// A combinational model's compiled kernel.
    Comb(Arc<Kernel>),
    /// A sequential design: its macro kernels and register simulation.
    Seq(Arc<SeqModel>),
}

impl Resident {
    /// The footprint charged against the registry budget.
    pub fn bytes(&self) -> usize {
        match self {
            Resident::Comb(kernel) => kernel.bytes(),
            Resident::Seq(model) => model.bytes(),
        }
    }
}

struct Entry {
    model: Resident,
    bytes: usize,
    last_used: u64,
}

struct Inner {
    entries: HashMap<String, Entry>,
    resident_bytes: usize,
    clock: u64,
}

/// A byte-budgeted LRU cache of resident models, shared by every
/// connection and the micro-batch dispatcher.
pub struct ModelRegistry {
    inner: Mutex<Inner>,
    budget: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl ModelRegistry {
    /// Creates a registry that aims to keep at most `budget_bytes` of
    /// model payload resident.
    pub fn new(budget_bytes: usize) -> ModelRegistry {
        ModelRegistry {
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                resident_bytes: 0,
                clock: 0,
            }),
            budget: budget_bytes,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Looks up a model by registry key, refreshing its recency.
    pub fn get(&self, key: &str) -> Option<Resident> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.clock += 1;
        let clock = inner.clock;
        match inner.entries.get_mut(key) {
            Some(entry) => {
                entry.last_used = clock;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(entry.model.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts (or refreshes) a model under `key`, then evicts
    /// least-recently-used peers until the byte budget holds. The entry
    /// just inserted is exempt from eviction.
    pub fn insert(&self, key: &str, model: Resident) {
        let bytes = model.bytes();
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.clock += 1;
        let clock = inner.clock;
        if let Some(old) = inner.entries.insert(
            key.to_owned(),
            Entry {
                model,
                bytes,
                last_used: clock,
            },
        ) {
            inner.resident_bytes -= old.bytes;
        }
        inner.resident_bytes += bytes;
        while inner.resident_bytes > self.budget && inner.entries.len() > 1 {
            let victim = inner
                .entries
                .iter()
                .filter(|(k, _)| k.as_str() != key)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone());
            match victim {
                Some(victim) => {
                    if let Some(evicted) = inner.entries.remove(&victim) {
                        inner.resident_bytes -= evicted.bytes;
                        self.evictions.fetch_add(1, Ordering::Relaxed);
                    }
                }
                None => break,
            }
        }
    }

    /// Point-in-time counters: (resident entries, resident bytes, hits,
    /// misses, evictions).
    pub fn stats(&self) -> (usize, usize, u64, u64, u64) {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        (
            inner.entries.len(),
            inner.resident_bytes,
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
            self.evictions.load(Ordering::Relaxed),
        )
    }

    /// Reconciles the running `resident_bytes` ledger against a fresh
    /// sum over the live entries. A mismatch means bytes were
    /// double-freed or leaked across an insert/evict race.
    ///
    /// # Errors
    ///
    /// Describes the divergence (ledger vs. recomputed).
    pub fn verify_ledger(&self) -> Result<(), String> {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let recomputed: usize = inner.entries.values().map(|e| e.bytes).sum();
        if recomputed == inner.resident_bytes {
            Ok(())
        } else {
            Err(format!(
                "registry ledger diverged: resident_bytes={} but entries sum to {}",
                inner.resident_bytes, recomputed
            ))
        }
    }
}

/// A key-hash-sharded registry: N independent [`ModelRegistry`] shards
/// splitting one global byte budget, each with its own build lock.
///
/// Sharding removes the two global chokepoints of the single registry:
/// the registry mutex (every request's resolve path) and the build lock
/// (held across entire cold model builds — previously one slow build
/// serialized *all* cold builds). Keys route by FNV-1a hash, so a key's
/// shard is stable across restarts and across the wire.
pub struct ShardedRegistry {
    shards: Vec<ModelRegistry>,
    build_locks: Vec<Mutex<()>>,
}

impl ShardedRegistry {
    /// Default shard count.
    pub const DEFAULT_SHARDS: usize = 8;

    /// Creates `shards` shards splitting `budget_bytes` evenly (each
    /// shard gets at least one byte so oversized-entry handling keeps
    /// working).
    pub fn new(shards: usize, budget_bytes: usize) -> ShardedRegistry {
        let shards = shards.clamp(1, 256);
        let per_shard = (budget_bytes / shards).max(1);
        ShardedRegistry {
            shards: (0..shards).map(|_| ModelRegistry::new(per_shard)).collect(),
            build_locks: (0..shards).map(|_| Mutex::new(())).collect(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard a key routes to. Routing hashes with the workspace's
    /// one FNV-1a implementation ([`charfree_core::hashing`]); the
    /// digests are pinned there, so a key's shard stays stable across
    /// restarts and across the wire.
    pub fn shard_index(&self, key: &str) -> usize {
        (charfree_core::hashing::fnv1a_64(key.as_bytes()) % self.shards.len() as u64) as usize
    }

    /// Looks up a model, refreshing recency in its shard.
    pub fn get(&self, key: &str) -> Option<Resident> {
        self.shards[self.shard_index(key)].get(key)
    }

    /// Inserts (or refreshes) a model in its shard, evicting that
    /// shard's LRU entries past the per-shard budget.
    pub fn insert(&self, key: &str, model: Resident) {
        self.shards[self.shard_index(key)].insert(key, model);
    }

    /// The build lock for `key`'s shard: cold builds serialize within a
    /// shard (so identical concurrent requests build once) but never
    /// across shards.
    pub fn build_lock(&self, key: &str) -> &Mutex<()> {
        &self.build_locks[self.shard_index(key)]
    }

    /// Counters summed across shards: (resident entries, resident
    /// bytes, hits, misses, evictions).
    pub fn stats(&self) -> (usize, usize, u64, u64, u64) {
        let mut total = (0usize, 0usize, 0u64, 0u64, 0u64);
        for shard in &self.shards {
            let (entries, bytes, hits, misses, evictions) = shard.stats();
            total.0 += entries;
            total.1 += bytes;
            total.2 += hits;
            total.3 += misses;
            total.4 += evictions;
        }
        total
    }

    /// Resident sequential designs and the macros they hold, across
    /// shards.
    pub fn seq_stats(&self) -> (u64, u64) {
        let mut totals = (0, 0);
        for shard in &self.shards {
            let inner = shard.inner.lock().unwrap_or_else(|e| e.into_inner());
            for entry in inner.entries.values() {
                if let Resident::Seq(model) = &entry.model {
                    totals = (totals.0 + 1, totals.1 + model.num_macros() as u64);
                }
            }
        }
        totals
    }

    /// Per-shard counters, in shard order (for metrics and tests).
    pub fn per_shard_stats(&self) -> Vec<(usize, usize, u64, u64, u64)> {
        self.shards.iter().map(ModelRegistry::stats).collect()
    }

    /// Reconciles every shard's byte ledger.
    ///
    /// # Errors
    ///
    /// The first shard divergence found, prefixed with its shard index.
    pub fn verify_ledger(&self) -> Result<(), String> {
        for (i, shard) in self.shards.iter().enumerate() {
            shard
                .verify_ledger()
                .map_err(|e| format!("shard {i}: {e}"))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use charfree_core::ModelBuilder;
    use charfree_netlist::{benchmarks, Library};

    fn kernel_for(bench: &str) -> Arc<Kernel> {
        let library = Library::test_library();
        let netlist = benchmarks::by_name(bench, &library).expect("Table 1 name");
        let model = ModelBuilder::new(&netlist).build();
        Arc::new(Kernel::compile(&model))
    }

    #[test]
    fn lru_evicts_by_recency_within_byte_budget() {
        let a = kernel_for("decod");
        let b = kernel_for("cm85");
        let c = kernel_for("mux");
        // Budget fits roughly two of the three kernels.
        let budget = a.bytes() + b.bytes() + c.bytes() / 2;
        let reg = ModelRegistry::new(budget);
        reg.insert("a", Resident::Comb(Arc::clone(&a)));
        reg.insert("b", Resident::Comb(Arc::clone(&b)));
        assert!(reg.get("a").is_some(), "refresh `a` so `b` is the LRU");
        reg.insert("c", Resident::Comb(Arc::clone(&c)));
        assert!(reg.get("b").is_none(), "LRU entry was evicted");
        assert!(reg.get("a").is_some());
        assert!(reg.get("c").is_some());
        let (entries, bytes, _, _, evictions) = reg.stats();
        assert_eq!(entries, 2);
        assert!(bytes <= budget);
        assert_eq!(evictions, 1);
    }

    #[test]
    fn oversized_entry_survives_alone() {
        let a = kernel_for("decod");
        let reg = ModelRegistry::new(1); // budget smaller than any kernel
        reg.insert("a", Resident::Comb(Arc::clone(&a)));
        assert!(
            reg.get("a").is_some(),
            "an over-budget kernel is kept rather than thrashing rebuilds"
        );
        let (entries, _, _, _, _) = reg.stats();
        assert_eq!(entries, 1);
    }

    #[test]
    fn reinsert_under_same_key_replaces_without_leaking_bytes() {
        let a = kernel_for("decod");
        let reg = ModelRegistry::new(usize::MAX);
        reg.insert("a", Resident::Comb(Arc::clone(&a)));
        reg.insert("a", Resident::Comb(Arc::clone(&a)));
        let (entries, bytes, _, _, _) = reg.stats();
        assert_eq!(entries, 1);
        assert_eq!(bytes, a.bytes());
        reg.verify_ledger().expect("ledger reconciles");
    }

    #[test]
    fn concurrent_load_eval_races_never_corrupt_the_ledger_or_inflight_work() {
        use charfree_engine::TraceEngine;
        use charfree_sim::MarkovSource;

        let kernels: Vec<Arc<Kernel>> =
            vec![kernel_for("decod"), kernel_for("cm85"), kernel_for("mux")];
        // Budget fits barely one kernel, so every insert storm evicts —
        // the worst case for ledger accounting.
        let budget = kernels.iter().map(|k| k.bytes()).min().unwrap_or(1);
        let reg = ModelRegistry::new(budget);
        // Offline references, computed once.
        let patterns: Vec<Vec<Vec<bool>>> = kernels
            .iter()
            .map(|k| {
                MarkovSource::new(k.num_inputs(), 0.5, 0.4, 11)
                    .expect("feasible")
                    .sequence(40)
            })
            .collect();
        let reference: Vec<u64> = kernels
            .iter()
            .zip(&patterns)
            .map(|(k, p)| TraceEngine::new(k).evaluate(p).sum_ff.to_bits())
            .collect();

        std::thread::scope(|scope| {
            for t in 0..4usize {
                let reg = &reg;
                let kernels = &kernels;
                let patterns = &patterns;
                let reference = &reference;
                scope.spawn(move || {
                    for round in 0..200usize {
                        let i = (t + round) % kernels.len();
                        let key = format!("k{i}");
                        // Model resolution under churn: get-or-insert,
                        // exactly like the server's resolve().
                        let kernel = match reg.get(&key) {
                            Some(Resident::Comb(kernel)) => kernel,
                            Some(Resident::Seq(_)) => panic!("only kernels were inserted"),
                            None => {
                                let kernel = Arc::clone(&kernels[i]);
                                reg.insert(&key, Resident::Comb(Arc::clone(&kernel)));
                                kernel
                            }
                        };
                        // "Mid-batch eviction": other threads' inserts
                        // will evict this key while we still hold the
                        // Arc. Evaluation must stay bit-exact.
                        let got = TraceEngine::new(&kernel).evaluate(&patterns[i]);
                        assert_eq!(got.sum_ff.to_bits(), reference[i], "kernel {i}");
                    }
                });
            }
        });

        reg.verify_ledger().expect("ledger reconciles after churn");
        let (entries, bytes, hits, misses, evictions) = reg.stats();
        assert!(entries >= 1);
        assert!(evictions > 0, "budget pressure must have evicted");
        assert!(hits + misses >= 800, "every round probed the registry");
        // The ledger never exceeds budget by more than the one exempt
        // (just-inserted) entry allows.
        let max_kernel = kernels.iter().map(|k| k.bytes()).max().unwrap_or(0);
        assert!(bytes <= budget + max_kernel, "bytes={bytes}");
    }

    /// Two keys guaranteed to live on different shards of an N-shard
    /// registry.
    fn cross_shard_keys(reg: &ShardedRegistry) -> (String, String) {
        let a = "k0".to_owned();
        let shard_a = reg.shard_index(&a);
        for i in 1..10_000 {
            let b = format!("k{i}");
            if reg.shard_index(&b) != shard_a {
                return (a, b);
            }
        }
        panic!("no cross-shard key pair found in 10k candidates");
    }

    #[test]
    fn shard_routing_is_stable_and_in_range() {
        let reg = ShardedRegistry::new(8, 1 << 20);
        for i in 0..1000 {
            let key = format!("model-{i}\0strict=false");
            let shard = reg.shard_index(&key);
            assert!(shard < reg.shard_count());
            assert_eq!(shard, reg.shard_index(&key), "routing must be stable");
        }
    }

    #[test]
    fn a_held_build_lock_on_one_shard_never_blocks_another() {
        use std::sync::mpsc::channel;
        use std::time::Duration;

        let reg = std::sync::Arc::new(ShardedRegistry::new(8, usize::MAX));
        let (key_a, key_b) = cross_shard_keys(&reg);
        let kernel = kernel_for("decod");

        // Simulate a slow cold build on key_a's shard: hold its build
        // lock for the whole test.
        let guard = reg.build_lock(&key_a).lock().expect("lock a");
        let (done_tx, done_rx) = channel();
        let reg2 = std::sync::Arc::clone(&reg);
        let kernel2 = Arc::clone(&kernel);
        let key_b2 = key_b.clone();
        let worker = std::thread::spawn(move || {
            // A cold resolve of key_b: probe, take key_b's build lock,
            // insert. Under the old global build lock this deadlocks
            // against the held guard; under sharding it must finish.
            assert!(reg2.get(&key_b2).is_none());
            let _guard_b = reg2.build_lock(&key_b2).lock().expect("lock b");
            reg2.insert(&key_b2, Resident::Comb(kernel2));
            done_tx.send(()).expect("report completion");
        });
        done_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("cross-shard resolve must not block on shard A's build lock");
        worker.join().expect("worker joins");
        drop(guard);
        assert!(reg.get(&key_b).is_some());
    }

    #[test]
    fn concurrent_cross_shard_churn_sums_eviction_accounting_correctly() {
        let kernels: Vec<Arc<Kernel>> =
            vec![kernel_for("decod"), kernel_for("cm85"), kernel_for("mux")];
        // Per-shard budget fits barely one kernel so churn evicts in
        // every shard that sees more than one key.
        let min_bytes = kernels.iter().map(|k| k.bytes()).min().unwrap_or(1);
        let reg = ShardedRegistry::new(4, min_bytes * 4);
        std::thread::scope(|scope| {
            for t in 0..4usize {
                let reg = &reg;
                let kernels = &kernels;
                scope.spawn(move || {
                    for round in 0..200usize {
                        let i = (t + round) % 12;
                        let key = format!("k{i}");
                        let kernel = &kernels[i % kernels.len()];
                        match reg.get(&key) {
                            Some(k) => assert_eq!(k.bytes(), kernel.bytes()),
                            None => reg.insert(&key, Resident::Comb(Arc::clone(kernel))),
                        }
                    }
                });
            }
        });
        reg.verify_ledger().expect("every shard ledger reconciles");
        let summed = reg.stats();
        let per_shard = reg.per_shard_stats();
        let fold = per_shard.iter().fold((0, 0, 0, 0, 0), |acc, s| {
            (
                acc.0 + s.0,
                acc.1 + s.1,
                acc.2 + s.2,
                acc.3 + s.3,
                acc.4 + s.4,
            )
        });
        assert_eq!(summed, fold, "global stats must equal per-shard sum");
        assert!(summed.4 > 0, "per-shard budget pressure must have evicted");
        assert!(
            per_shard.iter().filter(|s| s.2 + s.3 > 0).count() > 1,
            "keys must actually spread across shards"
        );
    }
}
