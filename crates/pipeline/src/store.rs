//! Content-addressed on-disk artifact store.
//!
//! Artifacts (`.cfm` models, `.cfk` kernels) are keyed by a 128-bit
//! content hash of everything that determines them: the canonical netlist
//! text, the library fingerprint and the build-option fingerprint. A
//! second run on identical inputs warm-loads the artifact instead of
//! rebuilding; every load re-validates the file (the persistence formats
//! are self-checking), and any mismatch — truncation, corruption, a
//! format-version bump — degrades to a rebuild, never a panic.
//!
//! Writes are atomic and durable: the artifact is staged to a temp file,
//! fsync'd, renamed into place, and the directory is fsync'd so the
//! rename itself survives power loss. A write-ahead journal
//! (`store.journal`, append-only `begin`/`commit` records per file)
//! brackets every publish; [`ArtifactStore::recover`] replays it on
//! startup, removes stray temp files, quarantines any half-written entry
//! under `quarantine/`, and reports what it found as a typed
//! [`RecoveryReport`]. Because the store is content-addressed and every
//! artifact is regenerable from source, recovery never has to repair
//! bytes — it only has to get torn files out from under live keys.
//!
//! All filesystem operations route through a [`FaultIo`] handle
//! (default: passthrough), so the conform `chaos` campaign can inject
//! short writes, transient errors, and torn renames deterministically.

use crate::faultio::{FaultIo, RealIo};
use crate::telemetry::ArtifactKind;
use charfree_core::hashing::Fnv128;
use charfree_core::AddPowerModel;
use charfree_engine::Kernel;
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Name of the write-ahead journal file inside the store directory.
pub const JOURNAL_FILE: &str = "store.journal";

/// Name of the quarantine subdirectory torn entries are moved into.
pub const QUARANTINE_DIR: &str = "quarantine";

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
    /// The artifact file name (`<hex>.<cfm|cfk>`).
    pub file: String,
    /// Why validation rejected it.
    pub reason: String,
}

/// What a startup recovery pass found and did.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Parseable journal records replayed.
    pub journal_records: usize,
    /// The journal ended mid-record (crash during an append); the torn
    /// tail was discarded.
    pub torn_journal_tail: bool,
    /// Stray `*.tmp*` staging files removed.
    pub tmp_files_removed: usize,
    /// `begin` records whose artifact never reached disk (writer died
    /// before publishing; nothing to clean).
    pub aborted_writes: usize,
    /// `begin` records whose artifact is present and valid but whose
    /// `commit` never landed; recovery wrote the missing commit.
    pub healed_commits: usize,
    /// Artifact files that validated clean.
    pub valid_entries: usize,
    /// Artifact files that failed validation and were moved to
    /// `quarantine/` (half-written entries, external corruption).
    pub quarantined: Vec<QuarantinedEntry>,
}

impl RecoveryReport {
    /// True when the pass found nothing to repair.
    pub fn is_clean(&self) -> bool {
        !self.torn_journal_tail
            && self.tmp_files_removed == 0
            && self.aborted_writes == 0
            && self.healed_commits == 0
            && self.quarantined.is_empty()
    }

    /// One-line human summary for server startup logs.
    pub fn summary(&self) -> String {
        format!(
            "{} valid, {} quarantined, {} healed, {} aborted, {} tmp removed{}",
            self.valid_entries,
            self.quarantined.len(),
            self.healed_commits,
            self.aborted_writes,
            self.tmp_files_removed,
            if self.torn_journal_tail {
                ", torn journal tail"
            } else {
                ""
            }
        )
    }
}

/// The on-disk store: one flat directory of `<hash>.cfm` / `<hash>.cfk`
/// files plus the `store.journal` write-ahead log (created lazily on
/// first write).
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

    /// The on-disk path an artifact lives at.
    pub fn path(&self, key: ArtifactKey, kind: ArtifactKind) -> PathBuf {
        self.dir.join(format!("{}.{}", key.hex(), kind.extension()))
    }

    /// The write-ahead journal's path.
    pub fn journal_path(&self) -> PathBuf {
        self.dir.join(JOURNAL_FILE)
    }

    /// The quarantine directory's path.
    pub fn quarantine_dir(&self) -> PathBuf {
        self.dir.join(QUARANTINE_DIR)
    }

    /// Probes for a stored model; validation failures surface as
    /// [`CacheLookup::Poisoned`], never an error.
    pub fn load_model(&self, key: ArtifactKey) -> CacheLookup<AddPowerModel> {
        self.load(key, ArtifactKind::Model, |bytes| {
            AddPowerModel::load(bytes).map_err(|e| e.to_string())
        })
    }

    /// Probes for a stored kernel (re-validated on load by the `.cfk`
    /// format itself).
    pub fn load_kernel(&self, key: ArtifactKey) -> CacheLookup<Kernel> {
        self.load(key, ArtifactKind::Kernel, |bytes| {
            Kernel::load(bytes).map_err(|e| e.to_string())
        })
    }

    fn load<T>(
        &self,
        key: ArtifactKey,
        kind: ArtifactKind,
        parse: impl FnOnce(&[u8]) -> Result<T, String>,
    ) -> CacheLookup<T> {
        let path = self.path(key, kind);
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
        let mut buf = Vec::new();
        model.save(&mut buf)?;
        self.store_bytes(key, ArtifactKind::Model, &buf)
    }

    /// Stores a kernel under `key`, atomically and durably.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn store_kernel(&self, key: ArtifactKey, kernel: &Kernel) -> io::Result<()> {
        let mut buf = Vec::new();
        kernel.save(&mut buf)?;
        self.store_bytes(key, ArtifactKind::Kernel, &buf)
    }

    /// Appends one journal record and fsyncs the journal so the record
    /// is durable before the operation it describes proceeds.
    fn journal_append(&self, record: &str) -> io::Result<()> {
        let journal = self.journal_path();
        retry_transient(|| self.io.append_file(&journal, record.as_bytes()))?;
        retry_transient(|| self.io.sync_file(&journal))
    }

    fn store_bytes(&self, key: ArtifactKey, kind: ArtifactKind, bytes: &[u8]) -> io::Result<()> {
        retry_transient(|| self.io.create_dir_all(&self.dir))?;
        let path = self.path(key, kind);
        let name = format!("{}.{}", key.hex(), kind.extension());
        // Write-ahead: intent first, so a crash anywhere below leaves a
        // pending `begin` that recovery knows to check.
        self.journal_append(&format!("begin {name}\n"))?;
        // Concurrent writers under the same key are expected (two
        // processes — or two threads of one server — building the same
        // netlist). Each writer stages to a name unique per process AND
        // per call: a pid alone is not enough, because two threads share
        // it and would interleave writes into one tmp file.
        static STORE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = STORE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let tmp = self.dir.join(format!(
            "{}.{}.tmp{}-{}",
            key.hex(),
            kind.extension(),
            std::process::id(),
            seq
        ));
        // Stage, then fsync the staged bytes BEFORE the rename publishes
        // them: otherwise a power cut can leave a live key pointing at a
        // file whose data never reached the platter.
        if let Err(e) = retry_transient(|| self.io.write_file(&tmp, bytes)) {
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
        // fsync the directory so the rename itself is durable, then
        // journal the commit.
        retry_transient(|| self.io.sync_dir(&self.dir))?;
        self.journal_append(&format!("commit {name}\n"))
    }

    /// Startup recovery pass: replays the journal, removes stray temp
    /// files, validates every artifact on disk, moves torn or corrupt
    /// entries to `quarantine/`, heals missing commits, and rewrites a
    /// compacted journal reflecting the surviving entries.
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

        // Replay the journal into a last-state map. A torn tail (crash
        // mid-append) or malformed line is tolerated and discarded.
        let mut state: BTreeMap<String, bool> = BTreeMap::new(); // name -> committed
        let journal = self.journal_path();
        if journal.exists() {
            let bytes = retry_transient(|| self.io.read_file(&journal))?;
            let text = String::from_utf8_lossy(&bytes);
            if !bytes.is_empty() && !bytes.ends_with(b"\n") {
                report.torn_journal_tail = true;
            }
            let mut lines: Vec<&str> = text.split('\n').collect();
            if !report.torn_journal_tail {
                // Complete final newline: drop the empty trailing split.
                lines.pop();
            } else {
                // Torn tail: drop the partial record.
                lines.pop();
            }
            for line in lines {
                match line.split_once(' ') {
                    Some(("begin", name)) if !name.is_empty() => {
                        state.entry(name.to_owned()).or_insert(false);
                        report.journal_records += 1;
                    }
                    Some(("commit", name)) if !name.is_empty() => {
                        state.insert(name.to_owned(), true);
                        report.journal_records += 1;
                    }
                    _ => report.torn_journal_tail = true,
                }
            }
        }

        // Scan the directory: drop temp files, validate every artifact.
        let mut valid: Vec<String> = Vec::new();
        let mut quarantined_names: Vec<String> = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if name == JOURNAL_FILE || name == QUARANTINE_DIR {
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
            let verdict = match path.extension().and_then(|e| e.to_str()) {
                Some(ext) if ext == ArtifactKind::Model.extension() => {
                    let bytes = retry_transient(|| self.io.read_file(&path))?;
                    AddPowerModel::load(bytes.as_slice())
                        .map(|_| ())
                        .map_err(|e| e.to_string())
                }
                Some(ext) if ext == ArtifactKind::Kernel.extension() => {
                    let bytes = retry_transient(|| self.io.read_file(&path))?;
                    Kernel::load(bytes.as_slice())
                        .map(|_| ())
                        .map_err(|e| e.to_string())
                }
                _ => Err("unknown artifact extension".to_owned()),
            };
            match verdict {
                Ok(()) => {
                    report.valid_entries += 1;
                    valid.push(name);
                }
                Err(reason) => {
                    self.quarantine(&path, &name)?;
                    quarantined_names.push(name.clone());
                    report
                        .quarantined
                        .push(QuarantinedEntry { file: name, reason });
                }
            }
        }

        // Resolve pending `begin`s against what the scan found.
        for (name, committed) in &state {
            if *committed {
                continue;
            }
            if quarantined_names.iter().any(|q| q == name) {
                // Already handled: the half-written entry is in
                // quarantine.
            } else if valid.iter().any(|v| v == name) {
                // Writer crashed between rename and commit; the artifact
                // is whole, so the commit heals below via the compacted
                // journal.
                report.healed_commits += 1;
            } else {
                report.aborted_writes += 1;
            }
        }

        // Compact the journal to exactly the surviving entries.
        valid.sort();
        let mut compacted = String::new();
        for name in &valid {
            compacted.push_str("commit ");
            compacted.push_str(name);
            compacted.push('\n');
        }
        retry_transient(|| self.io.write_file(&journal, compacted.as_bytes()))?;
        retry_transient(|| self.io.sync_file(&journal))?;
        retry_transient(|| self.io.sync_dir(&self.dir))?;
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
    /// produced. If they move, every `.cfm`/`.cfk`/`.cft` already on
    /// disk is orphaned — never update these values, fix the hash.
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

    #[test]
    fn model_and_kernel_round_trip_through_the_store() {
        let dir = fresh_dir("roundtrip");
        let store = ArtifactStore::new(&dir);
        let key = ArtifactKey::derive(&["roundtrip"]);
        assert!(matches!(store.load_model(key), CacheLookup::Miss));

        let model = test_model();
        store.store_model(key, &model).expect("store model");
        let CacheLookup::Hit(back) = store.load_model(key) else {
            panic!("stored model must load");
        };
        assert_eq!(back.size(), model.size());

        let kernel = Kernel::compile(&model);
        store.store_kernel(key, &kernel).expect("store kernel");
        let CacheLookup::Hit(kback) = store.load_kernel(key) else {
            panic!("stored kernel must load");
        };
        assert_eq!(kback.num_instrs(), kernel.num_instrs());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn racing_writers_under_one_key_leave_one_valid_artifact() {
        let dir = fresh_dir("race");
        let store = ArtifactStore::new(&dir);
        let key = ArtifactKey::derive(&["race"]);
        let model = test_model();
        let kernel = Kernel::compile(&model);

        // Two builders finish "at the same time" and publish the same
        // content under the same key, repeatedly. Both must succeed, both
        // must then read back a valid kernel, and the store must end up
        // with exactly one artifact file per kind, the journal, and no
        // tmp leftovers.
        const ROUNDS: usize = 50;
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    for _ in 0..ROUNDS {
                        store.store_kernel(key, &kernel).expect("store kernel");
                        store.store_model(key, &model).expect("store model");
                        let CacheLookup::Hit(k) = store.load_kernel(key) else {
                            panic!("concurrently stored kernel must load");
                        };
                        assert_eq!(k.num_instrs(), kernel.num_instrs());
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
        let artifacts: Vec<&String> = files.iter().filter(|f| *f != JOURNAL_FILE).collect();
        assert_eq!(artifacts.len(), 2, "one .cfm + one .cfk, got {files:?}");
        assert!(
            files.iter().all(|f| !f.contains("tmp")),
            "no tmp leftovers: {files:?}"
        );
        // And the interleaved journal replays clean.
        let report = store.recover().expect("recover");
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.valid_entries, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_and_version_bumped_entries_are_poisoned_not_fatal() {
        let dir = fresh_dir("poison");
        let store = ArtifactStore::new(&dir);
        let key = ArtifactKey::derive(&["poison"]);
        let model = test_model();
        store.store_model(key, &model).expect("store model");
        store
            .store_kernel(key, &Kernel::compile(&model))
            .expect("store kernel");

        // Truncation.
        let mpath = store.path(key, ArtifactKind::Model);
        let full = fs::read(&mpath).expect("read model artifact");
        fs::write(&mpath, &full[..full.len() / 2]).expect("truncate");
        assert!(matches!(store.load_model(key), CacheLookup::Poisoned(_)));

        // Version bump in the header.
        let kpath = store.path(key, ArtifactKind::Kernel);
        let text = fs::read_to_string(&kpath).expect("read kernel artifact");
        fs::write(&kpath, text.replacen("v1", "v9", 1)).expect("rewrite");
        assert!(matches!(store.load_kernel(key), CacheLookup::Poisoned(_)));

        // Garbage bytes.
        fs::write(&mpath, b"not an artifact at all").expect("corrupt");
        assert!(matches!(store.load_model(key), CacheLookup::Poisoned(_)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn clean_store_recovers_clean_and_journal_records_commits() {
        let dir = fresh_dir("cleanrec");
        let store = ArtifactStore::new(&dir);
        let key = ArtifactKey::derive(&["cleanrec"]);
        let model = test_model();
        store.store_model(key, &model).expect("store model");
        store
            .store_kernel(key, &Kernel::compile(&model))
            .expect("store kernel");

        let journal = fs::read_to_string(store.journal_path()).expect("journal");
        assert_eq!(journal.matches("begin ").count(), 2, "{journal}");
        assert_eq!(journal.matches("commit ").count(), 2, "{journal}");

        let report = store.recover().expect("recover");
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.valid_entries, 2);
        assert_eq!(report.journal_records, 4);
        // Compacted: commits only.
        let journal = fs::read_to_string(store.journal_path()).expect("journal");
        assert_eq!(journal.matches("begin ").count(), 0);
        assert_eq!(journal.matches("commit ").count(), 2);
        // Idempotent.
        let again = store.recover().expect("recover again");
        assert!(again.is_clean(), "{again:?}");
        assert_eq!(again.valid_entries, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_quarantines_torn_entries_and_rebuild_heals_byte_identically() {
        let dir = fresh_dir("tornrec");
        let clean_dir = fresh_dir("tornrec-clean");
        let store = ArtifactStore::new(&dir);
        let clean = ArtifactStore::new(&clean_dir);
        let key = ArtifactKey::derive(&["tornrec"]);
        let model = test_model();
        let kernel = Kernel::compile(&model);
        for s in [&store, &clean] {
            s.store_model(key, &model).expect("store model");
            s.store_kernel(key, &kernel).expect("store kernel");
        }

        // Simulate kill -9 mid-write: torn kernel bytes under the live
        // key, with a dangling `begin` in the journal.
        let kpath = store.path(key, ArtifactKind::Kernel);
        let kname = format!("{}.{}", key.hex(), ArtifactKind::Kernel.extension());
        let full = fs::read(&kpath).expect("read kernel artifact");
        fs::write(&kpath, &full[..full.len() / 2]).expect("tear");
        let mut journal = fs::read_to_string(store.journal_path()).expect("journal");
        journal.push_str(&format!("begin {kname}\n"));
        fs::write(store.journal_path(), journal).expect("append begin");

        let report = store.recover().expect("recover");
        assert_eq!(report.quarantined.len(), 1, "{report:?}");
        assert_eq!(report.quarantined[0].file, kname);
        assert_eq!(report.valid_entries, 1); // the model survived
        assert!(store.quarantine_dir().join(&kname).exists());
        // The torn entry is out from under the live key...
        assert!(matches!(store.load_kernel(key), CacheLookup::Miss));
        // ...and a rebuild heals it byte-identically to a clean write.
        store.store_kernel(key, &kernel).expect("re-store kernel");
        let healed = fs::read(&kpath).expect("healed bytes");
        let reference = fs::read(clean.path(key, ArtifactKind::Kernel)).expect("clean bytes");
        assert_eq!(healed, reference, "healed entry must be byte-identical");
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&clean_dir);
    }

    #[test]
    fn recovery_tolerates_torn_journal_tail_and_removes_tmp_files() {
        let dir = fresh_dir("tailrec");
        let store = ArtifactStore::new(&dir);
        let key = ArtifactKey::derive(&["tailrec"]);
        let model = test_model();
        store.store_model(key, &model).expect("store model");

        // A crash mid-append leaves a partial record with no newline,
        // and a crash mid-stage leaves a tmp file.
        let mut journal = fs::read_to_string(store.journal_path()).expect("journal");
        journal.push_str("begin 0123456789abcd"); // no newline
        fs::write(store.journal_path(), journal).expect("tear tail");
        fs::write(dir.join("deadbeef.cfk.tmp42-7"), b"partial").expect("tmp");
        // And a begin for an artifact that never reached disk at all.
        // (Appending after the torn tail would corrupt it further; the
        // torn record IS the aborted write here.)

        let report = store.recover().expect("recover");
        assert!(report.torn_journal_tail, "{report:?}");
        assert_eq!(report.tmp_files_removed, 1);
        assert_eq!(report.valid_entries, 1);
        assert!(report.quarantined.is_empty());
        assert!(matches!(store.load_model(key), CacheLookup::Hit(_)));
        let _ = fs::remove_dir_all(&dir);
    }

    /// Stores written by older builds may hold a persisted shared table
    /// (`<hash>.cft`, format `cftv1`) with its journal records. Recovery
    /// no longer knows the extension: the blob goes to quarantine and
    /// every model and kernel beside it survives.
    #[test]
    fn recovery_quarantines_a_stale_shared_table_blob() {
        let dir = fresh_dir("stalecft");
        let store = ArtifactStore::new(&dir);
        let key = ArtifactKey::derive(&["stalecft"]);
        store
            .store_kernel(key, &Kernel::compile(&test_model()))
            .expect("store kernel");
        let cft = format!("{}.cft", ArtifactKey::derive(&["table", "libfp"]).hex());
        fs::write(dir.join(&cft), "cftv1\ns 0\na 0\n").expect("plant blob");
        let mut journal = fs::read_to_string(store.journal_path()).expect("journal");
        journal.push_str(&format!("begin {cft}\ncommit {cft}\n"));
        fs::write(store.journal_path(), journal).expect("append records");

        let report = store.recover().expect("recover");
        assert_eq!(report.quarantined.len(), 1, "{report:?}");
        assert_eq!(report.quarantined[0].file, cft);
        assert_eq!(report.valid_entries, 1, "the kernel survives");
        assert!(store.quarantine_dir().join(&cft).exists());
        assert!(!dir.join(&cft).exists());
        assert!(matches!(store.load_kernel(key), CacheLookup::Hit(_)));
        let journal = fs::read_to_string(store.journal_path()).expect("journal");
        assert!(!journal.contains(".cft"), "{journal}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_counts_aborted_writes() {
        let dir = fresh_dir("abortrec");
        let store = ArtifactStore::new(&dir);
        let key = ArtifactKey::derive(&["abortrec"]);
        store.store_model(key, &test_model()).expect("store model");
        let mut journal = fs::read_to_string(store.journal_path()).expect("journal");
        journal.push_str("begin ffffffffffffffffffffffffffffffff.cfk\n");
        fs::write(store.journal_path(), journal).expect("append");
        let report = store.recover().expect("recover");
        assert_eq!(report.aborted_writes, 1, "{report:?}");
        assert!(report.quarantined.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_under_fault_ladder_never_serves_wrong_bytes() {
        let dir = fresh_dir("chaos");
        let model = test_model();
        let kernel = Kernel::compile(&model);
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
            let _ = store.store_kernel(key, &kernel);
            match store.load_kernel(key) {
                CacheLookup::Hit(k) => assert_eq!(k.num_instrs(), kernel.num_instrs()),
                CacheLookup::Miss | CacheLookup::Poisoned(_) => {}
            }
        }

        // After the ladder, a real-io recovery pass + store leaves a
        // fully healthy cache.
        let store = ArtifactStore::new(&dir);
        store.recover().expect("recover");
        store.store_kernel(key, &kernel).expect("store kernel");
        let CacheLookup::Hit(k) = store.load_kernel(key) else {
            panic!("healed store must hit");
        };
        assert_eq!(k.num_instrs(), kernel.num_instrs());
        let report = store.recover().expect("recover");
        assert!(report.is_clean(), "{report:?}");
        let _ = fs::remove_dir_all(&dir);
    }
}
