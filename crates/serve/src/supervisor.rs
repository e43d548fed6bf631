//! Supervision primitives: the per-model circuit breaker.
//!
//! Model builds are the server's only expensive, fallible cold path. A
//! model whose build keeps failing (bad netlist, impossible budget)
//! would otherwise burn a build-lock slot on every request that names
//! it — queueing doomed work behind the global build lock. The breaker
//! watches consecutive build failures per registry key and, after K of
//! them, trips: requests for that key are refused immediately with a
//! typed `model-unavailable` error carrying `retry_after_ms`, while
//! every other model keeps building normally.
//!
//! State machine per key:
//!
//! ```text
//!            K consecutive failures
//!   Closed ─────────────────────────▶ Open(until)
//!     ▲                                   │ timer expires
//!     │ probe succeeds                    ▼
//!     └───────────────────────────── HalfOpen ──▶ Open (probe fails,
//!                                     (one probe       window doubles,
//!                                      leased)         capped)
//! ```
//!
//! The open window grows exponentially per re-trip (base × 2^n, capped)
//! so a persistently broken model converges to cheap, rare probes.
//!
//! The half-open probe is a *lease*: a probe can end without reporting
//! (a deadline-bounded build never feeds the breaker, and a panicking
//! build reports nothing), so once a probe has been out longer than the
//! current open window, the next request becomes the new probe.
//!
//! Memory is bounded: entries are keyed by a 128-bit digest of the
//! registry key (which embeds the client's source string), and the table
//! holds at most [`MAX_ENTRIES`]. A full table forgets its closed
//! entries (failures below the threshold) to make room, never an open
//! or half-open one.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use charfree_core::hashing::Fnv128;

/// The most keys the breaker tracks at once.
pub const MAX_ENTRIES: usize = 4096;

/// Breaker tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct BreakerConfig {
    /// Consecutive build failures before the breaker trips (K).
    pub failure_threshold: u32,
    /// Initial open window after a trip.
    pub open_base: Duration,
    /// Ceiling for the exponentially growing open window.
    pub open_cap: Duration,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 3,
            open_base: Duration::from_millis(500),
            open_cap: Duration::from_secs(30),
        }
    }
}

/// Verdict of [`CircuitBreaker::admit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerDecision {
    /// Proceed with the build.
    Allow,
    /// The circuit is open; retry after the given delay.
    Deny {
        /// Milliseconds until the breaker is worth re-probing.
        retry_after_ms: u64,
    },
}

#[derive(Debug, Clone, Copy)]
enum State {
    Closed,
    Open {
        until: Instant,
    },
    /// A probe has been admitted since `since`.
    HalfOpen {
        since: Instant,
    },
}

#[derive(Debug)]
struct Entry {
    state: State,
    consecutive_failures: u32,
    /// How many times this key has tripped (drives the backoff power).
    opens: u32,
}

/// Per-model circuit breaker keyed by a digest of the registry key.
#[derive(Debug)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    entries: Mutex<HashMap<u128, Entry>>,
    trips: AtomicU64,
}

impl CircuitBreaker {
    /// A breaker with all circuits closed.
    pub fn new(config: BreakerConfig) -> CircuitBreaker {
        CircuitBreaker {
            config,
            entries: Mutex::new(HashMap::new()),
            trips: AtomicU64::new(0),
        }
    }

    fn open_window(&self, opens: u32) -> Duration {
        let factor = 1u32 << opens.saturating_sub(1).min(16);
        (self.config.open_base * factor).min(self.config.open_cap)
    }

    /// Should a build for `key` proceed? An expired open window admits
    /// exactly one probe (half-open); concurrent requests during the
    /// probe are denied so a broken model costs one build at a time. A
    /// probe out longer than the open window has lost its lease: the
    /// next request becomes the new probe.
    pub fn admit(&self, key: &str) -> BreakerDecision {
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        let Some(entry) = entries.get_mut(&digest(key)) else {
            return BreakerDecision::Allow;
        };
        let now = Instant::now();
        let until = match entry.state {
            State::Closed => return BreakerDecision::Allow,
            State::Open { until } => until,
            State::HalfOpen { since } => since + self.open_window(entry.opens),
        };
        if now >= until {
            entry.state = State::HalfOpen { since: now };
            return BreakerDecision::Allow;
        }
        BreakerDecision::Deny {
            retry_after_ms: (until - now).as_millis().max(1) as u64,
        }
    }

    /// A build for `key` succeeded: close the circuit and forget the
    /// failure history.
    pub fn record_success(&self, key: &str) {
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        entries.remove(&digest(key));
    }

    /// A build for `key` failed. In `Closed`, counts toward the trip
    /// threshold; in `HalfOpen`, re-opens with a doubled (capped)
    /// window.
    pub fn record_failure(&self, key: &str) {
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        let key = digest(key);
        if entries.len() >= MAX_ENTRIES && !entries.contains_key(&key) {
            entries.retain(|_, e| !matches!(e.state, State::Closed));
            if entries.len() >= MAX_ENTRIES {
                return; // every tracked key is open or half-open
            }
        }
        let entry = entries.entry(key).or_insert(Entry {
            state: State::Closed,
            consecutive_failures: 0,
            opens: 0,
        });
        match entry.state {
            State::Closed => {
                entry.consecutive_failures += 1;
                if entry.consecutive_failures >= self.config.failure_threshold {
                    entry.opens += 1;
                    entry.state = State::Open {
                        until: Instant::now() + self.open_window(entry.opens),
                    };
                    self.trips.fetch_add(1, Ordering::Relaxed);
                }
            }
            State::HalfOpen { .. } | State::Open { .. } => {
                entry.opens = entry.opens.saturating_add(1);
                entry.state = State::Open {
                    until: Instant::now() + self.open_window(entry.opens),
                };
                self.trips.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Total trips (Closed→Open and HalfOpen→Open transitions).
    pub fn trips(&self) -> u64 {
        self.trips.load(Ordering::Relaxed)
    }

    /// Keys whose circuit is currently open or half-open.
    pub fn open_circuits(&self) -> usize {
        let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        entries
            .values()
            .filter(|e| !matches!(e.state, State::Closed))
            .count()
    }
}

/// The 128-bit digest entries are keyed by.
fn digest(key: &str) -> u128 {
    Fnv128::new().section(key.as_bytes()).finish_u128()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_config() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 3,
            open_base: Duration::from_millis(30),
            open_cap: Duration::from_millis(120),
        }
    }

    #[test]
    fn trips_after_k_consecutive_failures_then_half_opens() {
        let breaker = CircuitBreaker::new(fast_config());
        assert_eq!(breaker.admit("m"), BreakerDecision::Allow);
        breaker.record_failure("m");
        breaker.record_failure("m");
        assert_eq!(breaker.admit("m"), BreakerDecision::Allow, "below K");
        breaker.record_failure("m");
        assert!(matches!(breaker.admit("m"), BreakerDecision::Deny { .. }));
        assert_eq!(breaker.trips(), 1);
        assert_eq!(breaker.open_circuits(), 1);

        // Timer expiry admits exactly one probe; a second concurrent
        // request is denied while the probe is in flight.
        std::thread::sleep(Duration::from_millis(40));
        assert_eq!(breaker.admit("m"), BreakerDecision::Allow, "probe");
        assert!(matches!(breaker.admit("m"), BreakerDecision::Deny { .. }));

        // Probe success closes the circuit for good.
        breaker.record_success("m");
        assert_eq!(breaker.admit("m"), BreakerDecision::Allow);
        assert_eq!(breaker.open_circuits(), 0);
    }

    #[test]
    fn failed_probe_reopens_with_doubled_capped_window() {
        let breaker = CircuitBreaker::new(fast_config());
        for _ in 0..3 {
            breaker.record_failure("m");
        }
        std::thread::sleep(Duration::from_millis(40));
        assert_eq!(breaker.admit("m"), BreakerDecision::Allow, "probe");
        breaker.record_failure("m");
        let BreakerDecision::Deny { retry_after_ms } = breaker.admit("m") else {
            panic!("must reopen after failed probe");
        };
        // Second open: 2 × 30ms = 60ms window (minus elapsed time).
        assert!(retry_after_ms <= 60, "window doubles: {retry_after_ms}");
        assert_eq!(breaker.trips(), 2);
        // Repeated failed probes cap at open_cap.
        for _ in 0..8 {
            std::thread::sleep(Duration::from_millis(2));
            if matches!(breaker.admit("m"), BreakerDecision::Allow) {
                breaker.record_failure("m");
            }
        }
        let BreakerDecision::Deny { retry_after_ms } = breaker.admit("m") else {
            // The window may have just expired; trip it again and check.
            breaker.record_failure("m");
            let BreakerDecision::Deny { retry_after_ms } = breaker.admit("m") else {
                panic!("must be open");
            };
            assert!(retry_after_ms <= 120);
            return;
        };
        assert!(retry_after_ms <= 120, "capped: {retry_after_ms}");
    }

    #[test]
    fn successes_reset_the_consecutive_counter() {
        let breaker = CircuitBreaker::new(fast_config());
        for _ in 0..100 {
            breaker.record_failure("m");
            breaker.record_failure("m");
            breaker.record_success("m");
        }
        assert_eq!(breaker.admit("m"), BreakerDecision::Allow);
        assert_eq!(breaker.trips(), 0);
    }

    #[test]
    fn keys_are_independent() {
        let breaker = CircuitBreaker::new(fast_config());
        for _ in 0..3 {
            breaker.record_failure("bad");
        }
        assert!(matches!(breaker.admit("bad"), BreakerDecision::Deny { .. }));
        assert_eq!(breaker.admit("good"), BreakerDecision::Allow);
    }

    #[test]
    fn a_probe_that_never_reports_loses_its_lease_after_the_window() {
        let breaker = CircuitBreaker::new(fast_config());
        for _ in 0..3 {
            breaker.record_failure("m");
        }
        std::thread::sleep(Duration::from_millis(40));
        assert_eq!(breaker.admit("m"), BreakerDecision::Allow, "probe");
        // The probe neither succeeds nor fails (a deadline-bounded or
        // panicking build). Within its lease the key stays denied ...
        assert!(matches!(breaker.admit("m"), BreakerDecision::Deny { .. }));
        // ... and once the open window has passed, the next request is
        // the new probe, and only it.
        std::thread::sleep(Duration::from_millis(40));
        assert_eq!(breaker.admit("m"), BreakerDecision::Allow, "new probe");
        assert!(matches!(breaker.admit("m"), BreakerDecision::Deny { .. }));
        breaker.record_success("m");
        assert_eq!(breaker.admit("m"), BreakerDecision::Allow);
    }

    #[test]
    fn the_table_stays_bounded_and_never_forgets_an_open_key() {
        let breaker = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 3,
            open_base: Duration::from_secs(60),
            open_cap: Duration::from_secs(60),
        });
        for _ in 0..3 {
            breaker.record_failure("open");
        }
        for i in 0..4 * MAX_ENTRIES {
            breaker.record_failure(&format!("missing-{i}"));
        }
        let entries = breaker.entries.lock().expect("unpoisoned").len();
        assert!(entries <= MAX_ENTRIES, "{entries} entries");
        assert!(matches!(
            breaker.admit("open"),
            BreakerDecision::Deny { .. }
        ));
        assert_eq!(breaker.open_circuits(), 1);
    }
}
