//! Resource governor for symbolic operations.
//!
//! ADD construction over `2n` transition variables can blow up
//! exponentially (the paper's central risk); a [`Budget`] bounds what one
//! symbolic operation may consume before it is stopped. Budgets are
//! checked at the apply/ITE recursion checkpoints inside
//! [`Manager`](crate::Manager) — the places where new nodes are
//! created — so a runaway operation returns a structured
//! [`DdError::BudgetExceeded`] instead of exhausting memory or
//! wall-clock time.
//!
//! Five resources are governed:
//!
//! * **live nodes** — total arena population (internal + terminal nodes);
//! * **arena bytes** — approximate arena memory (node and terminal
//!   storage; hash-table overhead is not counted);
//! * **apply steps** — cache-missing recursion steps, a deterministic
//!   proxy for CPU work;
//! * **wall clock** — a deadline measured from [`Budget::with_deadline`];
//! * **cancellation** — a cooperative [`CancelToken`] flippable from
//!   another thread.
//!
//! A sixth pseudo-resource, [`Resource::FaultInjection`], backs
//! [`Budget::trip_after`]: tests can schedule deterministic budget trips
//! to exercise every degradation path without constructing genuinely huge
//! diagrams.
//!
//! Budgets use interior mutability for their counters, so one `&Budget`
//! can thread through recursive `&mut Manager` operations. A budget is
//! intended for a single construction job; counters accumulate across all
//! operations it is passed to, which is exactly what a per-job governor
//! wants.
//!
//! # Examples
//!
//! ```
//! use charfree_dd::{Budget, DdError, Manager, Resource, Var};
//!
//! let mut m = Manager::new(64);
//! let budget = Budget::unlimited().with_max_apply_steps(10);
//! let mut acc = m.bdd_var(Var(0));
//! let mut result = Ok(());
//! for v in 1..64 {
//!     let x = m.bdd_var(Var(v));
//!     match m.try_bdd_xor(acc, x, &budget) {
//!         Ok(f) => acc = f,
//!         Err(e) => {
//!             assert!(matches!(
//!                 e,
//!                 DdError::BudgetExceeded { resource: Resource::ApplySteps, .. }
//!             ));
//!             result = Err(e);
//!             break;
//!         }
//!     }
//! }
//! assert!(result.is_err());
//! ```

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often (in checkpoints) the wall clock is sampled; `Instant::now`
/// is far more expensive than the counter checks.
const CLOCK_STRIDE: u64 = 256;

/// The resource whose limit a budgeted operation exceeded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resource {
    /// Total arena population (internal + terminal nodes).
    LiveNodes,
    /// Approximate arena memory in bytes.
    ArenaBytes,
    /// Cache-missing apply/ITE recursion steps.
    ApplySteps,
    /// The wall-clock deadline passed.
    WallClock,
    /// The cooperative [`CancelToken`] was triggered.
    Cancelled,
    /// A deterministic test trip scheduled by [`Budget::trip_after`].
    FaultInjection,
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Resource::LiveNodes => "live nodes",
            Resource::ArenaBytes => "arena bytes",
            Resource::ApplySteps => "apply steps",
            Resource::WallClock => "wall clock (ms)",
            Resource::Cancelled => "cancellation",
            Resource::FaultInjection => "fault injection",
        };
        f.write_str(name)
    }
}

/// Error returned by the fallible (`try_*`) [`Manager`] operations.
///
/// [`Manager`]: crate::Manager
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DdError {
    /// A [`Budget`] limit was hit mid-operation. The partially built
    /// nodes remain in the arena as garbage; run
    /// [`Manager::compact`](crate::Manager::compact) to reclaim them.
    BudgetExceeded {
        /// Which resource ran out.
        resource: Resource,
        /// The configured limit for that resource.
        limit: u64,
        /// The observed value that tripped the limit.
        observed: u64,
    },
}

impl fmt::Display for DdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DdError::BudgetExceeded {
                resource,
                limit,
                observed,
            } => write!(
                f,
                "budget exceeded: {resource} at {observed} (limit {limit})"
            ),
        }
    }
}

impl Error for DdError {}

/// Cooperative cancellation flag, cheaply clonable and thread-safe.
///
/// Flipping the token makes every budgeted operation holding a budget
/// with this token fail at its next checkpoint with
/// [`Resource::Cancelled`].
///
/// # Examples
///
/// ```
/// use charfree_dd::CancelToken;
///
/// let token = CancelToken::new();
/// let watcher = token.clone();
/// assert!(!watcher.is_cancelled());
/// token.cancel();
/// assert!(watcher.is_cancelled());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-triggered token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation; all clones observe it.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Live telemetry counters fed by [`Budget::checkpoint`] — the hook a
/// pipeline or monitoring layer attaches to observe symbolic work as it
/// happens.
///
/// Unlike the budget's own step counter (which lives in one `Budget` and
/// dies with it), an `ApplyStats` is an `Arc`-shared, thread-safe
/// accumulator: attach one to every budget of a job and it totals the
/// cache-missing apply/ITE steps and tracks peak arena occupancy across
/// the whole job. Reading the counters never blocks the hot path — the
/// checkpoint uses relaxed atomics.
///
/// # Examples
///
/// ```
/// use charfree_dd::{ApplyStats, Budget, Manager, Var};
///
/// let stats = ApplyStats::shared();
/// let budget = Budget::unlimited().with_stats(stats.clone());
/// let mut m = Manager::new(4);
/// let a = m.bdd_var(Var(0));
/// let b = m.bdd_var(Var(1));
/// m.try_bdd_and(a, b, &budget).expect("unlimited");
/// assert!(stats.apply_steps() > 0);
/// ```
#[derive(Debug, Default)]
pub struct ApplyStats {
    steps: AtomicU64,
    peak_live_nodes: AtomicU64,
    peak_arena_bytes: AtomicU64,
}

impl ApplyStats {
    /// A fresh shared counter set, ready to attach with
    /// [`Budget::with_stats`].
    pub fn shared() -> Arc<Self> {
        Arc::new(ApplyStats::default())
    }

    /// Total cache-missing apply/ITE recursion steps observed.
    pub fn apply_steps(&self) -> u64 {
        self.steps.load(Ordering::Relaxed)
    }

    /// Highest arena population (nodes) seen at any checkpoint.
    pub fn peak_live_nodes(&self) -> u64 {
        self.peak_live_nodes.load(Ordering::Relaxed)
    }

    /// Highest approximate arena memory (bytes) seen at any checkpoint.
    pub fn peak_arena_bytes(&self) -> u64 {
        self.peak_arena_bytes.load(Ordering::Relaxed)
    }

    fn record(&self, live_nodes: usize, arena_bytes: usize) {
        self.steps.fetch_add(1, Ordering::Relaxed);
        self.peak_live_nodes
            .fetch_max(live_nodes as u64, Ordering::Relaxed);
        self.peak_arena_bytes
            .fetch_max(arena_bytes as u64, Ordering::Relaxed);
    }
}

/// Resource limits for symbolic operations, checked at recursion
/// checkpoints.
///
/// Build one with [`Budget::unlimited`] and the `with_*` setters, then
/// pass it to the `try_*` operations of [`Manager`](crate::Manager). All
/// limits are optional; an unlimited budget never fails (the infallible
/// `Manager` API delegates to the fallible one with exactly that).
#[derive(Debug, Default)]
pub struct Budget {
    max_live_nodes: Option<u64>,
    max_arena_bytes: Option<u64>,
    max_apply_steps: Option<u64>,
    deadline: Option<(Instant, Duration)>,
    cancel: Option<CancelToken>,
    stats: Option<Arc<ApplyStats>>,
    steps: Cell<u64>,
    /// Relative checkpoint countdowns for scheduled fault-injection
    /// trips; the front countdown starts after the previous trip fires.
    trips: RefCell<VecDeque<u64>>,
}

impl Budget {
    /// A budget with no limits: checkpoints never fail.
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// Caps the total arena population (internal + terminal nodes).
    pub fn with_max_live_nodes(mut self, nodes: u64) -> Self {
        self.max_live_nodes = Some(nodes);
        self
    }

    /// Caps the approximate arena memory in bytes.
    pub fn with_max_arena_bytes(mut self, bytes: u64) -> Self {
        self.max_arena_bytes = Some(bytes);
        self
    }

    /// Caps the number of cache-missing apply/ITE recursion steps.
    pub fn with_max_apply_steps(mut self, steps: u64) -> Self {
        self.max_apply_steps = Some(steps);
        self
    }

    /// Sets a wall-clock deadline `timeout` from now.
    pub fn with_deadline(mut self, timeout: Duration) -> Self {
        self.deadline = Some((Instant::now() + timeout, timeout));
        self
    }

    /// Attaches a cooperative cancellation token.
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Attaches a shared [`ApplyStats`] telemetry sink: every checkpoint
    /// feeds the counters (relaxed atomics, negligible cost). Several
    /// budgets can share one sink, accumulating job-wide totals.
    pub fn with_stats(mut self, stats: Arc<ApplyStats>) -> Self {
        self.stats = Some(stats);
        self
    }

    /// Schedules a deterministic fault-injection trip `n` checkpoints
    /// after the previous scheduled trip (or after now, for the first).
    ///
    /// Each scheduled trip fires exactly once, as
    /// [`Resource::FaultInjection`]; later checkpoints succeed again
    /// until the next scheduled trip matures. Tests use chains of trips
    /// to drive retry logic through every degradation path.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` (the trip could never be ordered relative to
    /// the checkpoint stream).
    pub fn trip_after(self, n: u64) -> Self {
        assert!(n > 0, "trip_after needs a positive checkpoint count");
        self.trips.borrow_mut().push_back(n);
        self
    }

    /// Checkpoints consumed so far (cache-missing recursion steps).
    pub fn steps(&self) -> u64 {
        self.steps.get()
    }

    /// Remaining wall-clock time, if a deadline is set.
    pub fn time_left(&self) -> Option<Duration> {
        self.deadline
            .map(|(at, _)| at.saturating_duration_since(Instant::now()))
    }

    /// The configured live-node cap, if any.
    pub fn max_live_nodes(&self) -> Option<u64> {
        self.max_live_nodes
    }

    /// Verifies the arena-size and cancellation limits **without**
    /// consuming an apply step.
    ///
    /// Used when materializing shared-table hits
    /// ([`Manager::attach_shared`](crate::Manager::attach_shared)):
    /// re-interning memoized structure grows the arena — so node, byte
    /// and cancellation limits still apply — but it is not symbolic
    /// work, so it must not count against the step budget, feed the
    /// [`ApplyStats`] sink, or advance scheduled fault-injection trips
    /// (warm runs would otherwise report phantom apply steps).
    ///
    /// # Errors
    ///
    /// Returns [`DdError::BudgetExceeded`] naming the exhausted
    /// resource.
    pub fn probe(&self, live_nodes: usize, arena_bytes: usize) -> Result<(), DdError> {
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return Err(DdError::BudgetExceeded {
                    resource: Resource::Cancelled,
                    limit: 0,
                    observed: self.steps.get(),
                });
            }
        }
        if let Some(limit) = self.max_live_nodes {
            if live_nodes as u64 > limit {
                return Err(DdError::BudgetExceeded {
                    resource: Resource::LiveNodes,
                    limit,
                    observed: live_nodes as u64,
                });
            }
        }
        if let Some(limit) = self.max_arena_bytes {
            if arena_bytes as u64 > limit {
                return Err(DdError::BudgetExceeded {
                    resource: Resource::ArenaBytes,
                    limit,
                    observed: arena_bytes as u64,
                });
            }
        }
        Ok(())
    }

    /// Records one unit of symbolic work and verifies every limit.
    ///
    /// Called by [`Manager`](crate::Manager) at apply/ITE recursion
    /// checkpoints with the current arena occupancy. The wall clock is
    /// sampled every `CLOCK_STRIDE` checkpoints to keep the hot path
    /// cheap.
    ///
    /// # Errors
    ///
    /// Returns [`DdError::BudgetExceeded`] naming the first exhausted
    /// resource.
    pub fn checkpoint(&self, live_nodes: usize, arena_bytes: usize) -> Result<(), DdError> {
        let steps = self.steps.get() + 1;
        self.steps.set(steps);
        if let Some(stats) = &self.stats {
            stats.record(live_nodes, arena_bytes);
        }

        {
            let mut trips = self.trips.borrow_mut();
            if let Some(front) = trips.front_mut() {
                *front -= 1;
                if *front == 0 {
                    trips.pop_front();
                    return Err(DdError::BudgetExceeded {
                        resource: Resource::FaultInjection,
                        limit: 0,
                        observed: steps,
                    });
                }
            }
        }

        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return Err(DdError::BudgetExceeded {
                    resource: Resource::Cancelled,
                    limit: 0,
                    observed: steps,
                });
            }
        }
        if let Some(limit) = self.max_apply_steps {
            if steps > limit {
                return Err(DdError::BudgetExceeded {
                    resource: Resource::ApplySteps,
                    limit,
                    observed: steps,
                });
            }
        }
        if let Some(limit) = self.max_live_nodes {
            if live_nodes as u64 > limit {
                return Err(DdError::BudgetExceeded {
                    resource: Resource::LiveNodes,
                    limit,
                    observed: live_nodes as u64,
                });
            }
        }
        if let Some(limit) = self.max_arena_bytes {
            if arena_bytes as u64 > limit {
                return Err(DdError::BudgetExceeded {
                    resource: Resource::ArenaBytes,
                    limit,
                    observed: arena_bytes as u64,
                });
            }
        }
        if let Some((at, timeout)) = self.deadline {
            if steps % CLOCK_STRIDE == 1 && Instant::now() >= at {
                return Err(DdError::BudgetExceeded {
                    resource: Resource::WallClock,
                    limit: timeout.as_millis() as u64,
                    observed: (timeout + (Instant::now() - at)).as_millis() as u64,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_trips() {
        let b = Budget::unlimited();
        for _ in 0..10_000 {
            b.checkpoint(usize::MAX, usize::MAX).expect("unlimited");
        }
        assert_eq!(b.steps(), 10_000);
    }

    #[test]
    fn step_limit_trips_at_boundary() {
        let b = Budget::unlimited().with_max_apply_steps(5);
        for _ in 0..5 {
            b.checkpoint(0, 0).expect("within budget");
        }
        let err = b.checkpoint(0, 0).expect_err("over budget");
        assert_eq!(
            err,
            DdError::BudgetExceeded {
                resource: Resource::ApplySteps,
                limit: 5,
                observed: 6,
            }
        );
    }

    #[test]
    fn node_and_byte_limits_report_observed() {
        let b = Budget::unlimited().with_max_live_nodes(100);
        assert!(b.checkpoint(100, 0).is_ok());
        match b.checkpoint(101, 0) {
            Err(DdError::BudgetExceeded {
                resource: Resource::LiveNodes,
                limit: 100,
                observed: 101,
            }) => {}
            other => panic!("unexpected: {other:?}"),
        }
        let b = Budget::unlimited().with_max_arena_bytes(64);
        assert!(b.checkpoint(0, 64).is_ok());
        assert!(matches!(
            b.checkpoint(0, 65),
            Err(DdError::BudgetExceeded {
                resource: Resource::ArenaBytes,
                ..
            })
        ));
    }

    #[test]
    fn deadline_trips_on_clock_stride() {
        let b = Budget::unlimited().with_deadline(Duration::ZERO);
        std::thread::sleep(Duration::from_millis(2));
        // The very first checkpoint samples the clock (steps % stride == 1).
        assert!(matches!(
            b.checkpoint(0, 0),
            Err(DdError::BudgetExceeded {
                resource: Resource::WallClock,
                ..
            })
        ));
    }

    #[test]
    fn cancellation_is_observed() {
        let token = CancelToken::new();
        let b = Budget::unlimited().with_cancel_token(token.clone());
        assert!(b.checkpoint(0, 0).is_ok());
        token.cancel();
        assert!(matches!(
            b.checkpoint(0, 0),
            Err(DdError::BudgetExceeded {
                resource: Resource::Cancelled,
                ..
            })
        ));
    }

    #[test]
    fn trip_chain_fires_each_once() {
        let b = Budget::unlimited().trip_after(2).trip_after(3);
        assert!(b.checkpoint(0, 0).is_ok());
        assert!(b.checkpoint(0, 0).is_err()); // first trip at step 2
        assert!(b.checkpoint(0, 0).is_ok());
        assert!(b.checkpoint(0, 0).is_ok());
        assert!(b.checkpoint(0, 0).is_err()); // second trip 3 checks later
        for _ in 0..100 {
            assert!(b.checkpoint(0, 0).is_ok()); // disarmed afterwards
        }
    }

    #[test]
    fn probe_checks_limits_without_counting_steps() {
        let b = Budget::unlimited().with_max_live_nodes(10).trip_after(1);
        assert!(b.probe(10, 0).is_ok());
        assert!(matches!(
            b.probe(11, 0),
            Err(DdError::BudgetExceeded {
                resource: Resource::LiveNodes,
                ..
            })
        ));
        assert_eq!(b.steps(), 0, "probes are not apply steps");
        // The scheduled fault trip is still armed: probe did not advance it.
        assert!(b.checkpoint(0, 0).is_err());

        let stats = ApplyStats::shared();
        let b = Budget::unlimited().with_stats(stats.clone());
        b.probe(1000, 1000).expect("unlimited");
        assert_eq!(stats.apply_steps(), 0, "probes do not feed stats");

        let token = CancelToken::new();
        let b = Budget::unlimited().with_cancel_token(token.clone());
        assert!(b.probe(0, 0).is_ok());
        token.cancel();
        assert!(b.probe(0, 0).is_err());
    }

    #[test]
    fn stats_sink_accumulates_across_budgets() {
        let stats = ApplyStats::shared();
        let a = Budget::unlimited().with_stats(stats.clone());
        let b = Budget::unlimited().with_stats(stats.clone());
        for _ in 0..3 {
            a.checkpoint(10, 100).expect("unlimited");
        }
        for _ in 0..2 {
            b.checkpoint(50, 20).expect("unlimited");
        }
        assert_eq!(stats.apply_steps(), 5);
        assert_eq!(stats.peak_live_nodes(), 50);
        assert_eq!(stats.peak_arena_bytes(), 100);
    }

    #[test]
    fn error_messages_name_the_resource() {
        let err = DdError::BudgetExceeded {
            resource: Resource::LiveNodes,
            limit: 10,
            observed: 12,
        };
        let msg = err.to_string();
        assert!(msg.contains("live nodes"), "{msg}");
        assert!(msg.contains("12"), "{msg}");
        assert!(msg.contains("10"), "{msg}");
    }
}
