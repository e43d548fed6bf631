//! Content-addressed on-disk artifact store.
//!
//! One artifact per model: a `.cfm` model file, keyed by a 128-bit
//! content hash of everything that determines it: the canonical netlist
//! text, the library fingerprint and the build-option fingerprint. A
//! second run on identical inputs warm-loads the file instead of
//! rebuilding, as a model or straight into an evaluation kernel; every
//! load re-validates the file (the format is self-checking), and any
//! mismatch — truncation, corruption, a format-version bump — degrades to
//! a rebuild, never a panic.
//!
//! Writes are atomic and durable: the artifact is staged to a temp file,
//! fsync'd, renamed into place, and the directory is fsync'd so the
//! rename itself survives power loss. The directory is the store's only
//! record: [`ArtifactStore::recover`] scans it on startup, removes stray
//! temp files, quarantines every entry that fails validation under
//! `quarantine/`, and reports what it found as a typed
//! [`RecoveryReport`]. Because the store is content-addressed and every
//! artifact is regenerable from source, recovery never has to repair
//! bytes — it only has to get torn files out from under live keys.
//!
//! All filesystem operations route through a [`FaultIo`] handle
//! (default: passthrough), so the conform `chaos` campaign can inject
//! short writes, transient errors, and torn renames deterministically.

use crate::faultio::{FaultIo, RealIo};
use charfree_core::hashing::Fnv128;
use charfree_core::AddPowerModel;
use charfree_engine::Kernel;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Name of the quarantine subdirectory torn entries are moved into.
pub const QUARANTINE_DIR: &str = "quarantine";

/// The extension of the store's one artifact kind, the `.cfm` model file.
const EXTENSION: &str = "cfm";

/// How many times a transient ([`io::ErrorKind::Interrupted`] /
/// [`io::ErrorKind::WouldBlock`]) failure is retried before giving up.
const TRANSIENT_RETRIES: usize = 16;

fn is_transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock
    )
}

/// Runs `op`, retrying EINTR/EAGAIN-style transients a bounded number of
/// times. Non-transient errors propagate immediately.
fn retry_transient<T>(mut op: impl FnMut() -> io::Result<T>) -> io::Result<T> {
    let mut last: Option<io::Error> = None;
    for _ in 0..TRANSIENT_RETRIES {
        match op() {
            Err(e) if is_transient(&e) => last = Some(e),
            other => return other,
        }
    }
    Err(last.unwrap_or_else(|| io::Error::other("transient retry budget exhausted")))
}

/// A 128-bit content hash identifying one artifact: two independent
/// 64-bit FNV-1a streams over the same length-prefixed sections (the
/// second stream starts from a decorrelated offset basis). Not
/// cryptographic — the store is a cache, not a trust boundary — but far
/// past accidental-collision range for any realistic corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArtifactKey {
    lo: u64,
    hi: u64,
}

impl ArtifactKey {
    /// Derives the key for an ordered list of input sections. Sections
    /// are length-prefixed before hashing so boundaries cannot alias
    /// (`["ab", "c"]` and `["a", "bc"]` hash differently).
    pub fn derive(sections: &[&str]) -> ArtifactKey {
        let mut streams = Fnv128::new();
        for section in sections {
            streams.section(section.as_bytes());
        }
        let (lo, hi) = streams.finish();
        ArtifactKey { lo, hi }
    }

    /// The 32-hex-digit rendering (the cache file stem).
    pub fn hex(&self) -> String {
        format!("{:016x}{:016x}", self.hi, self.lo)
    }
}

/// Result of a cache probe.
#[derive(Debug)]
pub enum CacheLookup<T> {
    /// Artifact present and valid.
    Hit(T),
    /// No artifact stored under the key.
    Miss,
    /// An artifact file exists under the key but failed validation; the
    /// caller should rebuild (the next store overwrites the bad entry).
    Poisoned(String),
}

/// One entry moved aside by [`ArtifactStore::recover`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedEntry {
    /// The file name (`<hex>.cfm` for an artifact).
    pub file: String,
    /// Why validation rejected it.
    pub reason: String,
}

/// What a startup recovery pass found and did.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Stray `*.tmp*` staging files removed.
    pub tmp_files_removed: usize,
    /// Artifact files that validated clean.
    pub valid_entries: usize,
    /// Files that failed validation and were moved to `quarantine/`
    /// (half-written entries, external corruption, unknown extensions).
    pub quarantined: Vec<QuarantinedEntry>,
}

impl RecoveryReport {
    /// True when the pass found nothing to repair.
    pub fn is_clean(&self) -> bool {
        self.tmp_files_removed == 0 && self.quarantined.is_empty()
    }

    /// One-line human summary for server startup logs.
    pub fn summary(&self) -> String {
        format!(
            "{} valid, {} quarantined, {} tmp removed",
            self.valid_entries,
            self.quarantined.len(),
            self.tmp_files_removed,
        )
    }
}

/// The on-disk store: one flat directory of `<hash>.cfm` files, plus
/// `quarantine/` once recovery has moved anything aside.
#[derive(Debug, Clone)]
pub struct ArtifactStore {
    dir: PathBuf,
    io: Arc<dyn FaultIo>,
}

impl ArtifactStore {
    /// A store rooted at `dir`. The directory is created on first write,
    /// not here — read-only probes of a never-written store are cheap
    /// misses.
    pub fn new(dir: impl Into<PathBuf>) -> ArtifactStore {
        ArtifactStore {
            dir: dir.into(),
            io: Arc::new(RealIo),
        }
    }

    /// Replaces the I/O layer (fault injection for tests and the conform
    /// `chaos` campaign).
    pub fn with_io(mut self, io: Arc<dyn FaultIo>) -> ArtifactStore {
        self.io = io;
        self
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The on-disk path the artifact under `key` lives at.
    pub fn path(&self, key: ArtifactKey) -> PathBuf {
        self.dir.join(format!("{}.{EXTENSION}", key.hex()))
    }

    /// The quarantine directory's path.
    pub fn quarantine_dir(&self) -> PathBuf {
        self.dir.join(QUARANTINE_DIR)
    }

    /// Probes for a stored model; validation failures surface as
    /// [`CacheLookup::Poisoned`], never an error.
    pub fn load_model(&self, key: ArtifactKey) -> CacheLookup<AddPowerModel> {
        self.load(key, |bytes| AddPowerModel::load(bytes))
    }

    /// Probes for a stored model and reads it straight into an evaluation
    /// kernel ([`Kernel::from_cfm`]: no manager is built); validation
    /// failures surface as [`CacheLookup::Poisoned`].
    pub fn load_kernel(&self, key: ArtifactKey) -> CacheLookup<Kernel> {
        self.load(key, |bytes| Kernel::from_cfm(bytes))
    }

    fn load<T>(&self, key: ArtifactKey, parse: fn(&[u8]) -> io::Result<T>) -> CacheLookup<T> {
        let path = self.path(key);
        let bytes = match retry_transient(|| self.io.read_file(&path)) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return CacheLookup::Miss,
            Err(e) => return CacheLookup::Poisoned(format!("{}: {e}", path.display())),
        };
        match parse(&bytes) {
            Ok(artifact) => CacheLookup::Hit(artifact),
            Err(e) => CacheLookup::Poisoned(format!("{}: {e}", path.display())),
        }
    }

    /// Stores a model under `key`, atomically and durably.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures (callers treat a failed store as
    /// "run stays uncached", not as a run failure).
    pub fn store_model(&self, key: ArtifactKey, model: &AddPowerModel) -> io::Result<()> {
        let mut bytes = Vec::new();
        model.save(&mut bytes)?;
        retry_transient(|| self.io.create_dir_all(&self.dir))?;
        let path = self.path(key);
        // Concurrent writers under the same key are expected (two
        // processes — or two threads of one server — building the same
        // netlist). Each writer stages to a name unique per process AND
        // per call: a pid alone is not enough, because two threads share
        // it and would interleave writes into one tmp file.
        static STORE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = STORE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let tmp = self.dir.join(format!(
            "{}.{EXTENSION}.tmp{}-{seq}",
            key.hex(),
            std::process::id(),
        ));
        // Stage, then fsync the staged bytes BEFORE the rename publishes
        // them: otherwise a power cut can leave a live key pointing at a
        // file whose data never reached the platter.
        if let Err(e) = retry_transient(|| self.io.write_file(&tmp, &bytes)) {
            let _ = self.io.remove_file(&tmp);
            return Err(e);
        }
        if let Err(e) = retry_transient(|| self.io.sync_file(&tmp)) {
            let _ = self.io.remove_file(&tmp);
            return Err(e);
        }
        match retry_transient(|| self.io.rename(&tmp, &path)) {
            Ok(()) => {}
            // The rename loser is tolerated: if another writer already
            // published the key, content-addressing guarantees its bytes
            // encode the same artifact, so this writer's outcome is
            // equivalent to having won the race. (A torn rename that
            // left garbage at the destination is indistinguishable here;
            // validate-on-load and the recovery pass both catch it.)
            Err(_) if path.exists() => {
                let _ = self.io.remove_file(&tmp);
            }
            Err(e) => {
                let _ = self.io.remove_file(&tmp);
                return Err(e);
            }
        }
        // fsync the directory so the rename itself is durable.
        retry_transient(|| self.io.sync_dir(&self.dir))
    }

    /// Startup recovery pass: removes stray temp files, validates every
    /// artifact on disk and moves torn, corrupt or unknown entries to
    /// `quarantine/`. Valid entries are left untouched, so a pass over a
    /// clean store writes nothing.
    ///
    /// Safe to run on a live directory only at startup (it assumes no
    /// concurrent writers). Idempotent: a second pass on the result is
    /// clean.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures; validation failures are not
    /// errors (they become quarantine entries).
    pub fn recover(&self) -> io::Result<RecoveryReport> {
        let mut report = RecoveryReport::default();
        if !self.dir.exists() {
            return Ok(report);
        }

        // Scan the directory: drop temp files, validate every artifact.
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if name == QUARANTINE_DIR {
                continue;
            }
            let path = entry.path();
            if !path.is_file() {
                continue;
            }
            if name.contains(".tmp") {
                retry_transient(|| self.io.remove_file(&path))?;
                report.tmp_files_removed += 1;
                continue;
            }
            let verdict = if path.extension().is_some_and(|e| e == EXTENSION) {
                let bytes = retry_transient(|| self.io.read_file(&path))?;
                AddPowerModel::load(bytes.as_slice())
                    .map(|_| ())
                    .map_err(|e| e.to_string())
            } else {
                Err("unknown artifact extension".to_owned())
            };
            match verdict {
                Ok(()) => report.valid_entries += 1,
                Err(reason) => {
                    self.quarantine(&path, &name)?;
                    report
                        .quarantined
                        .push(QuarantinedEntry { file: name, reason });
                }
            }
        }
        Ok(report)
    }

    /// Moves a failed-validation artifact into `quarantine/`, preserving
    /// its bytes for inspection. Falls back to deletion if the move
    /// fails — the entry must not stay under a live key either way.
    fn quarantine(&self, path: &Path, name: &str) -> io::Result<()> {
        let qdir = self.quarantine_dir();
        retry_transient(|| self.io.create_dir_all(&qdir))?;
        let dest = qdir.join(name);
        if retry_transient(|| self.io.rename(path, &dest)).is_err() {
            retry_transient(|| self.io.remove_file(path))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faultio::{FaultConfig, FaultPlan};
    use charfree_core::ModelBuilder;
    use charfree_netlist::{benchmarks, Library};
    use std::collections::BTreeMap;
    use std::time::Duration;

    fn fresh_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("charfree-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn test_model() -> AddPowerModel {
        let lib = Library::test_library();
        let netlist = benchmarks::by_name("decod", &lib).expect("Table 1 name");
        ModelBuilder::new(&netlist).max_nodes(100).build()
    }

    #[test]
    fn keys_separate_sections_and_content() {
        let a = ArtifactKey::derive(&["ab", "c"]);
        let b = ArtifactKey::derive(&["a", "bc"]);
        let c = ArtifactKey::derive(&["ab", "c"]);
        assert_ne!(a, b);
        assert_eq!(a, c);
        assert_eq!(a.hex().len(), 32);
        assert_ne!(ArtifactKey::derive(&[]), ArtifactKey::derive(&[""]));
    }

    /// Key derivation now flows through the workspace-shared `Fnv128`;
    /// these hex digests are what the pre-unification implementation
    /// produced. If they move, every `.cfm` already on disk is
    /// orphaned — never update these values, fix the hash.
    #[test]
    fn key_digests_survive_the_hashing_unification() {
        assert_eq!(
            ArtifactKey::derive(&["ab", "c"]).hex(),
            "8ec8ca50480087697e60470bf599cad6"
        );
        assert_eq!(
            ArtifactKey::derive(&["model", "netlist", "lib", "options"]).hex(),
            "658e1da7209fd055a55cf4fb4b0664f0"
        );
        assert_eq!(
            ArtifactKey::derive(&["table", "libfp"]).hex(),
            "cbef3e3ef19e75e7859fcd9e5072da2e"
        );
    }

    /// Kernel save bytes, for bit-identity checks.
    fn kernel_bytes(kernel: &Kernel) -> Vec<u8> {
        let mut bytes = Vec::new();
        kernel.save(&mut bytes).expect("saves");
        bytes
    }

    #[test]
    fn model_and_kernel_round_trip_through_the_store() {
        let dir = fresh_dir("roundtrip");
        let store = ArtifactStore::new(&dir);
        let key = ArtifactKey::derive(&["roundtrip"]);
        assert!(matches!(store.load_model(key), CacheLookup::Miss));
        assert!(matches!(store.load_kernel(key), CacheLookup::Miss));

        let model = test_model();
        store.store_model(key, &model).expect("store model");
        let CacheLookup::Hit(back) = store.load_model(key) else {
            panic!("stored model must load");
        };
        assert_eq!(back.size(), model.size());
        let CacheLookup::Hit(kernel) = store.load_kernel(key) else {
            panic!("stored model must load as a kernel");
        };
        assert_eq!(
            kernel_bytes(&kernel),
            kernel_bytes(&Kernel::compile(&model))
        );
        assert_eq!(fs::read_dir(&dir).expect("store dir").count(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn racing_writers_under_one_key_leave_one_valid_artifact() {
        let dir = fresh_dir("race");
        let store = ArtifactStore::new(&dir);
        let key = ArtifactKey::derive(&["race"]);
        let model = test_model();
        let want = kernel_bytes(&Kernel::compile(&model));

        // Two builders finish "at the same time" and publish the same
        // content under the same key, repeatedly. Both must succeed, both
        // must then read back a valid kernel, and the store must end up
        // with exactly one artifact file and nothing else.
        const ROUNDS: usize = 50;
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    for _ in 0..ROUNDS {
                        store.store_model(key, &model).expect("store model");
                        let CacheLookup::Hit(k) = store.load_kernel(key) else {
                            panic!("concurrently stored model must load");
                        };
                        assert_eq!(kernel_bytes(&k), want);
                    }
                });
            }
        });

        let CacheLookup::Hit(back) = store.load_model(key) else {
            panic!("model must survive the race");
        };
        assert_eq!(back.size(), model.size());
        let files: Vec<String> = fs::read_dir(&dir)
            .expect("store dir")
            .filter_map(Result::ok)
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(files, [format!("{}.cfm", key.hex())]);
        let report = store.recover().expect("recover");
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.valid_entries, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_and_version_bumped_entries_are_poisoned_not_fatal() {
        let dir = fresh_dir("poison");
        let store = ArtifactStore::new(&dir);
        let key = ArtifactKey::derive(&["poison"]);
        store.store_model(key, &test_model()).expect("store model");
        let path = store.path(key);
        let full = fs::read(&path).expect("read model artifact");
        let text = String::from_utf8(full.clone()).expect("the .cfm format is text");

        for (what, bytes) in [
            ("truncation", full[..full.len() / 2].to_vec()),
            ("version bump", text.replacen("v1", "v9", 1).into_bytes()),
            ("garbage", b"not an artifact at all".to_vec()),
        ] {
            fs::write(&path, bytes).expect("corrupt");
            assert!(
                matches!(store.load_model(key), CacheLookup::Poisoned(_)),
                "{what}"
            );
            assert!(
                matches!(store.load_kernel(key), CacheLookup::Poisoned(_)),
                "{what}"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Every file under `dir`, recursively, with its bytes.
    fn snapshot(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
        let mut files = BTreeMap::new();
        for entry in fs::read_dir(dir).expect("read dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                files.extend(snapshot(&path));
            } else {
                files.insert(path.clone(), fs::read(&path).expect("read file"));
            }
        }
        files
    }

    #[test]
    fn recovery_of_a_clean_store_changes_no_file() {
        let dir = fresh_dir("cleanrec");
        let store = ArtifactStore::new(&dir);
        let key = ArtifactKey::derive(&["cleanrec"]);
        store.store_model(key, &test_model()).expect("store model");

        let before = snapshot(&dir);
        assert_eq!(before.len(), 1, "{:?}", before.keys());
        for _ in 0..2 {
            let report = store.recover().expect("recover");
            assert!(report.is_clean(), "{report:?}");
            assert_eq!(report.valid_entries, 1);
        }
        assert_eq!(snapshot(&dir), before);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_quarantines_torn_entries_and_rebuild_heals_byte_identically() {
        let dir = fresh_dir("tornrec");
        let clean_dir = fresh_dir("tornrec-clean");
        let store = ArtifactStore::new(&dir);
        let clean = ArtifactStore::new(&clean_dir);
        let (torn, kept) = (
            ArtifactKey::derive(&["tornrec"]),
            ArtifactKey::derive(&["tornrec-kept"]),
        );
        let model = test_model();
        for s in [&store, &clean] {
            s.store_model(torn, &model).expect("store model");
        }
        store.store_model(kept, &model).expect("store model");

        // Simulate kill -9 mid-write: torn bytes under a live key.
        let path = store.path(torn);
        let name = format!("{}.cfm", torn.hex());
        let full = fs::read(&path).expect("read model artifact");
        fs::write(&path, &full[..full.len() / 2]).expect("tear");

        let report = store.recover().expect("recover");
        assert_eq!(report.quarantined.len(), 1, "{report:?}");
        assert_eq!(report.quarantined[0].file, name);
        assert_eq!(report.valid_entries, 1); // the other key survived
        assert!(store.quarantine_dir().join(&name).exists());
        // The torn entry is out from under the live key...
        assert!(matches!(store.load_kernel(torn), CacheLookup::Miss));
        assert!(matches!(store.load_kernel(kept), CacheLookup::Hit(_)));
        // ...and a rebuild heals it byte-identically to a clean write.
        store.store_model(torn, &model).expect("re-store model");
        let healed = fs::read(&path).expect("healed bytes");
        let reference = fs::read(clean.path(torn)).expect("clean bytes");
        assert_eq!(healed, reference, "healed entry must be byte-identical");
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&clean_dir);
    }

    #[test]
    fn recovery_removes_tmp_files() {
        let dir = fresh_dir("tailrec");
        let store = ArtifactStore::new(&dir);
        let key = ArtifactKey::derive(&["tailrec"]);
        let model = test_model();
        store.store_model(key, &model).expect("store model");

        // A crash mid-stage leaves a tmp file.
        fs::write(dir.join("deadbeef.cfm.tmp42-7"), b"partial").expect("tmp");

        let report = store.recover().expect("recover");
        assert_eq!(report.tmp_files_removed, 1);
        assert_eq!(report.valid_entries, 1);
        assert!(report.quarantined.is_empty());
        assert!(matches!(store.load_model(key), CacheLookup::Hit(_)));
        let _ = fs::remove_dir_all(&dir);
    }

    /// Stores written by older builds may hold a persisted shared table
    /// (`<hash>.cft`, format `cftv1`), a write-ahead journal
    /// (`store.journal`) and compiled kernels (`<hash>.cfk`). Recovery
    /// knows none of these: they go to quarantine and every model beside
    /// them survives.
    #[test]
    fn recovery_quarantines_a_stale_shared_table_blob() {
        let dir = fresh_dir("stalecft");
        let store = ArtifactStore::new(&dir);
        let key = ArtifactKey::derive(&["stalecft"]);
        let model = test_model();
        store.store_model(key, &model).expect("store model");
        let cft = format!("{}.cft", ArtifactKey::derive(&["table", "libfp"]).hex());
        fs::write(dir.join(&cft), "cftv1\ns 0\na 0\n").expect("plant blob");
        let journal = "store.journal";
        fs::write(dir.join(journal), format!("begin {cft}\ncommit {cft}\n"))
            .expect("plant journal");
        let cfk = format!("{}.cfk", key.hex());
        fs::write(dir.join(&cfk), kernel_bytes(&Kernel::compile(&model))).expect("plant kernel");

        let report = store.recover().expect("recover");
        let mut files: Vec<&str> = report.quarantined.iter().map(|q| q.file.as_str()).collect();
        files.sort_unstable();
        assert_eq!(files, [cfk.as_str(), cft.as_str(), journal], "{report:?}");
        assert_eq!(report.valid_entries, 1, "the model survives");
        for name in [cfk.as_str(), cft.as_str(), journal] {
            assert!(store.quarantine_dir().join(name).exists());
            assert!(!dir.join(name).exists());
        }
        assert!(matches!(store.load_kernel(key), CacheLookup::Hit(_)));
        assert!(store.recover().expect("recover").is_clean());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_under_fault_ladder_never_serves_wrong_bytes() {
        let dir = fresh_dir("chaos");
        let model = test_model();
        let want = kernel_bytes(&Kernel::compile(&model));
        let key = ArtifactKey::derive(&["chaos"]);

        for seed in 0..20u64 {
            let plan = Arc::new(FaultPlan::new(
                seed,
                FaultConfig {
                    short_write_every: 3,
                    transient_every: 2,
                    torn_rename_every: 4,
                    stream_every: 0,
                    stall: Duration::ZERO,
                },
            ));
            let store = ArtifactStore::new(&dir).with_io(plan);
            // Stores may fail (typed io errors); loads must only ever
            // produce the true kernel, a miss, or a poisoned verdict —
            // never a silently wrong artifact.
            let _ = store.store_model(key, &model);
            match store.load_kernel(key) {
                CacheLookup::Hit(k) => assert_eq!(kernel_bytes(&k), want),
                CacheLookup::Miss | CacheLookup::Poisoned(_) => {}
            }
        }

        // After the ladder, a real-io recovery pass + store leaves a
        // fully healthy cache.
        let store = ArtifactStore::new(&dir);
        store.recover().expect("recover");
        store.store_model(key, &model).expect("store model");
        let CacheLookup::Hit(k) = store.load_kernel(key) else {
            panic!("healed store must hit");
        };
        assert_eq!(kernel_bytes(&k), want);
        let report = store.recover().expect("recover");
        assert!(report.is_clean(), "{report:?}");
        let _ = fs::remove_dir_all(&dir);
    }
}
