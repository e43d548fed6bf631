//! Injectable I/O fault layer.
//!
//! Every filesystem touch the artifact store makes — and every stream
//! read/write the server makes — goes through a [`FaultIo`] handle. The
//! default [`RealIo`] is a zero-cost passthrough to `std::fs`. Tests and
//! the conform `chaos` campaign substitute a [`FaultPlan`]: a
//! seeded schedule that injects short writes, transient
//! `EINTR`/`EAGAIN`-style errors, torn renames, and slow or stalled
//! clients at configurable rates.
//!
//! Fault decisions are a pure function of `(seed, op_counter)` via
//! SplitMix64: the n-th operation a plan sees gets the same verdict on
//! every run. Operations issued from one thread in a fixed order (the
//! chaos campaign's store phases) therefore replay exactly from the seed.
//! When threads share a plan (a live server's connections, workers and
//! store), which operation draws which counter depends on how the
//! threads interleave, so neither the faults one request meets nor the
//! total injected count is fixed by the seed: five runs of
//! `charfree conform --campaign chaos --seed 0xC0FFEE --chaos-faults 200`
//! reported between 236 and 246 injected faults.

use charfree_netlist::rng::{splitmix64, GOLDEN_GAMMA};
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Which side of a connection an injected stream fault applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamOp {
    /// Reading a request line from the peer.
    Read,
    /// Writing a response line to the peer.
    Write,
}

/// A fault injected into a stream operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamFault {
    /// Behave like an `EINTR`/`EAGAIN`: the operation makes no progress
    /// this round and should be retried.
    Transient,
    /// Deliver (or accept) at most this many bytes this round,
    /// simulating a short read/write on a congested socket.
    Short(usize),
    /// The peer stalls for this long before the operation proceeds.
    Stall(Duration),
}

/// Trait over the file and stream operations the store and server
/// perform. All methods default to faithful passthroughs; an injector
/// overrides them to misbehave deterministically.
pub trait FaultIo: Send + Sync + fmt::Debug {
    /// `fs::create_dir_all`.
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        fs::create_dir_all(path)
    }

    /// `fs::read`.
    fn read_file(&self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }

    /// `fs::write` (create or truncate, then write all bytes).
    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        fs::write(path, bytes)
    }

    /// `File::sync_all` on `path`.
    fn sync_file(&self, path: &Path) -> io::Result<()> {
        fs::File::open(path)?.sync_all()
    }

    /// fsync the directory itself so a completed rename survives power
    /// loss. Directory fds are a unix notion; elsewhere this is a no-op.
    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        #[cfg(unix)]
        {
            fs::File::open(path)?.sync_all()
        }
        #[cfg(not(unix))]
        {
            let _ = path;
            Ok(())
        }
    }

    /// `fs::rename`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }

    /// `fs::remove_file`.
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }

    /// Consulted once per stream read/write round; `None` means proceed
    /// normally. The caller — not this trait — applies the fault, since
    /// only it owns the socket.
    fn stream_fault(&self, op: StreamOp) -> Option<StreamFault> {
        let _ = op;
        None
    }
}

/// The production passthrough: every operation is the real one.
#[derive(Debug, Clone, Copy, Default)]
pub struct RealIo;

impl FaultIo for RealIo {}

/// Injection rates for a [`FaultPlan`]. Each field is "one fault per N
/// operations on average" for its class; `0` disables the class.
#[derive(Debug, Clone, Copy)]
pub struct FaultConfig {
    /// Short writes: `write_file` persists a truncated prefix and fails.
    pub short_write_every: u64,
    /// Transient faults: reads and writes fail with
    /// [`io::ErrorKind::Interrupted`] without touching the file.
    pub transient_every: u64,
    /// Torn renames: the destination receives a truncated copy of the
    /// source, the source vanishes, and the rename reports failure —
    /// the on-disk picture after a crash mid-rename.
    pub torn_rename_every: u64,
    /// Stream faults on connection read/write rounds.
    pub stream_every: u64,
    /// Stall duration used for [`StreamFault::Stall`] injections.
    pub stall: Duration,
}

impl Default for FaultConfig {
    fn default() -> FaultConfig {
        FaultConfig {
            short_write_every: 4,
            transient_every: 3,
            torn_rename_every: 5,
            stream_every: 4,
            stall: Duration::from_millis(40),
        }
    }
}

/// Deterministic seeded fault injector implementing [`FaultIo`].
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    config: FaultConfig,
    ops: AtomicU64,
    injected: AtomicU64,
}

impl FaultPlan {
    /// A plan injecting per `config` on a schedule derived from `seed`.
    pub fn new(seed: u64, config: FaultConfig) -> FaultPlan {
        FaultPlan {
            seed,
            config,
            ops: AtomicU64::new(0),
            injected: AtomicU64::new(0),
        }
    }

    /// Total faults injected so far, across every class.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Total operations observed (faulted or not).
    pub fn operations(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }

    /// Draws the next op's hash; `class` salts the stream so e.g. the
    /// rename schedule is independent of the write schedule.
    fn draw(&self, class: u64) -> u64 {
        let op = self.ops.fetch_add(1, Ordering::Relaxed);
        splitmix64(self.seed ^ op.wrapping_mul(GOLDEN_GAMMA) ^ class)
    }

    fn hit(&self, hash: u64, every: u64) -> bool {
        if every == 0 {
            return false;
        }
        let hit = hash.is_multiple_of(every);
        if hit {
            self.injected.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }
}

fn injected_err(kind: io::ErrorKind, what: &str) -> io::Error {
    io::Error::new(kind, format!("injected fault: {what}"))
}

impl FaultIo for FaultPlan {
    fn read_file(&self, path: &Path) -> io::Result<Vec<u8>> {
        let hash = self.draw(0x11);
        if self.hit(hash, self.config.transient_every) {
            return Err(injected_err(io::ErrorKind::Interrupted, "transient read"));
        }
        fs::read(path)
    }

    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let hash = self.draw(0x22);
        if self.hit(hash, self.config.transient_every) {
            return Err(injected_err(io::ErrorKind::Interrupted, "transient write"));
        }
        if self.hit(hash >> 8, self.config.short_write_every) {
            // Persist a torn prefix, then fail: the disk picture after a
            // crash mid-write.
            fs::write(path, &bytes[..bytes.len() / 2])?;
            return Err(injected_err(io::ErrorKind::Other, "short write"));
        }
        fs::write(path, bytes)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let hash = self.draw(0x44);
        if self.hit(hash, self.config.torn_rename_every) {
            // Crash mid-rename: destination holds a truncated copy, the
            // source is gone, and the caller sees failure.
            let bytes = fs::read(from)?;
            fs::write(to, &bytes[..bytes.len() / 2])?;
            fs::remove_file(from)?;
            return Err(injected_err(io::ErrorKind::Other, "torn rename"));
        }
        fs::rename(from, to)
    }

    fn stream_fault(&self, op: StreamOp) -> Option<StreamFault> {
        let class = match op {
            StreamOp::Read => 0x55,
            StreamOp::Write => 0x66,
        };
        let hash = self.draw(class);
        if !self.hit(hash, self.config.stream_every) {
            return None;
        }
        Some(match (hash >> 16) % 3 {
            0 => StreamFault::Transient,
            1 => StreamFault::Short((hash >> 32) as usize % 7 + 1),
            _ => StreamFault::Stall(self.config.stall),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_io_round_trips() {
        let dir = std::env::temp_dir().join(format!("charfree-faultio-{}", std::process::id()));
        let io = RealIo;
        io.create_dir_all(&dir).expect("mkdir");
        let path = dir.join("a.bin");
        io.write_file(&path, b"hello").expect("write");
        io.sync_file(&path).expect("sync file");
        io.sync_dir(&dir).expect("sync dir");
        assert_eq!(io.read_file(&path).expect("read"), b"hello");
        let moved = dir.join("b.bin");
        io.rename(&path, &moved).expect("rename");
        io.remove_file(&moved).expect("remove");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn fault_plan_is_deterministic_per_seed() {
        let config = FaultConfig::default();
        let decisions = |seed: u64| -> Vec<Option<StreamFault>> {
            let plan = FaultPlan::new(seed, config);
            (0..256)
                .map(|_| plan.stream_fault(StreamOp::Read))
                .collect()
        };
        assert_eq!(decisions(7), decisions(7));
        assert_ne!(decisions(7), decisions(8));
    }

    #[test]
    fn fault_plan_injects_at_the_configured_rate() {
        let plan = FaultPlan::new(42, FaultConfig::default());
        for _ in 0..1000 {
            let _ = plan.stream_fault(StreamOp::Write);
        }
        let injected = plan.injected();
        // ~1 in 4 expected; allow a generous band.
        assert!((100..500).contains(&injected), "injected={injected}");
        assert_eq!(plan.operations(), 1000);
    }

    #[test]
    fn short_write_leaves_a_torn_prefix() {
        let dir = std::env::temp_dir().join(format!("charfree-shortw-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("torn.bin");
        let plan = FaultPlan::new(
            9,
            FaultConfig {
                short_write_every: 1,
                transient_every: 0,
                torn_rename_every: 0,
                stream_every: 0,
                stall: Duration::ZERO,
            },
        );
        let err = plan.write_file(&path, b"0123456789").expect_err("injected");
        assert!(err.to_string().contains("injected"));
        assert_eq!(std::fs::read(&path).expect("read"), b"01234");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn torn_rename_truncates_destination_and_consumes_source() {
        let dir = std::env::temp_dir().join(format!("charfree-tornmv-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let from = dir.join("src.bin");
        let to = dir.join("dst.bin");
        std::fs::write(&from, b"abcdefgh").expect("seed");
        let plan = FaultPlan::new(
            3,
            FaultConfig {
                short_write_every: 0,
                transient_every: 0,
                torn_rename_every: 1,
                stream_every: 0,
                stall: Duration::ZERO,
            },
        );
        plan.rename(&from, &to).expect_err("injected");
        assert!(!from.exists());
        assert_eq!(std::fs::read(&to).expect("read"), b"abcd");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
