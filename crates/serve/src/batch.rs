//! Cross-connection micro-batching.
//!
//! Evaluation requests from *different* connections are coalesced into
//! shared 64-lane [`PatternBlock`]s before hitting the kernel. A
//! coordinator thread collects jobs for up to `batch_window`, groups
//! them by kernel identity, and hands the whole window — every kernel
//! group — to a fixed worker pool as one flush; the worker packs each
//! group's transitions into its own block, evaluates **all groups in a
//! single fused multi-kernel pass** ([`eval_fused`], interleaving the
//! gathering kernels' level-by-level gather rounds for memory-level
//! parallelism), and scatters the per-transition values back to each
//! requester.
//!
//! # The bit-identical-batching invariant
//!
//! Coalescing must be *unobservable* in results. Two properties make
//! that hold:
//!
//! 1. [`eval_fused`] computes each lane's value from that lane's bits
//!    and its own kernel's program alone — a transition's value does
//!    not depend on which lanes surround it or which other kernels
//!    share the fused pass, so packing requests together (in any
//!    order, at any offset, next to any other kernel's jobs) yields
//!    the same per-transition values as evaluating each request alone
//!    (f64 bit-exactly; the kernel-equivalence suites enforce it).
//! 2. The per-request summary is reduced with
//!    [`TraceSummary::from_values`] over [`DEFAULT_CHUNK`]-sized runs —
//!    the exact association [`TraceEngine`](charfree_engine::TraceEngine)
//!    uses offline — so floating-point summation order matches the
//!    single-request path bit for bit.
//!
//! Shedding happens at submit time: the job queue is a bounded
//! `sync_channel` and [`BatchHandle::try_submit`] hands the job back on
//! a full queue instead of blocking the connection thread.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use charfree_engine::{eval_fused, FusedJob, Kernel, PatternBlock, TraceSummary, DEFAULT_CHUNK};

use crate::stats::ServerStats;

/// Cap on how many jobs one window may coalesce, bounding the memory a
/// single micro-batch can pin.
const MAX_BATCH_JOBS: usize = 256;

/// First restart delay after a worker panic.
const RESTART_BACKOFF_BASE: Duration = Duration::from_millis(5);

/// Ceiling for the exponentially growing restart delay.
const RESTART_BACKOFF_CAP: Duration = Duration::from_millis(250);

/// An injected failure a job carries for supervision tests and the
/// conform `chaos` campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobFault {
    /// The executing worker panics before evaluating the batch.
    PanicInWorker,
}

/// Where a job's result goes.
///
/// The reactor front end completes asynchronously (format the response,
/// post it to the connection's shard, wake the reactor) without any
/// thread parked per in-flight request. Synchronous callers — the
/// conform chaos campaign and this module's tests — wait on a channel
/// ([`ChannelReply`]).
///
/// **Drop contract:** a sink dropped without [`complete`](ReplySink::complete)
/// being called means the executing worker panicked and unwound past the
/// job. Implementations must convert that drop into a typed, retriable
/// error for the waiting client — `ChannelReply` does it by
/// disconnecting its channel; an async sink must do it in `Drop`.
pub trait ReplySink: Send {
    /// Consumes the sink with the job's outcome. Called at most once.
    fn complete(self: Box<Self>, result: Result<JobOutput, JobError>);
}

/// The channel-backed [`ReplySink`] of synchronous callers: completion
/// sends on the capacity-1 channel; an abandoning drop disconnects it.
pub struct ChannelReply(pub SyncSender<Result<JobOutput, JobError>>);

impl ReplySink for ChannelReply {
    fn complete(self: Box<Self>, result: Result<JobOutput, JobError>) {
        let _ = self.0.send(result);
    }
}

/// One evaluation request, ready to batch.
pub struct Job {
    /// Kernel to evaluate on (an `Arc` clone pins it across evictions).
    pub kernel: Arc<Kernel>,
    /// The pattern window; `len - 1` transitions are evaluated.
    pub patterns: Vec<Vec<bool>>,
    /// `true` for `trace` (per-transition values shipped back), `false`
    /// for `eval` (summary only).
    pub want_values: bool,
    /// Absolute deadline; expired jobs are shed at execution time.
    pub deadline: Option<Instant>,
    /// Where the result goes (see the [`ReplySink`] drop contract).
    pub reply: Box<dyn ReplySink>,
    /// Injected fault for supervision testing; `None` in production.
    pub fault: Option<JobFault>,
}

/// A completed job.
#[derive(Debug)]
pub struct JobOutput {
    /// Chunk-reduced summary, bit-identical to the offline path.
    pub summary: TraceSummary,
    /// Per-transition values when the job asked for them.
    pub values: Option<Vec<f64>>,
}

/// Why a job was not evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobError {
    /// The deadline expired before a worker reached the job.
    DeadlineExceeded,
    /// The submit queue was full; the job was shed without evaluating.
    /// (Produced by callers that get the job handed back from
    /// [`BatchHandle::try_submit`] and complete its sink themselves.)
    Shed,
}

/// One kernel's jobs within a flush window.
struct KernelGroup {
    kernel: Arc<Kernel>,
    jobs: Vec<Job>,
}

/// One coalescing window's worth of work: every kernel group collected
/// during the window, evaluated together in one fused pass.
struct MicroBatch {
    groups: Vec<KernelGroup>,
}

/// Cloneable submission side of the dispatcher, held by connection
/// threads. All handles must drop before
/// [`Dispatcher::shutdown`] can finish draining.
#[derive(Clone)]
pub struct BatchHandle {
    tx: SyncSender<Job>,
}

impl BatchHandle {
    /// Enqueues a job without blocking. On a full (or closed) queue the
    /// job is handed back so the caller can shed it with a typed
    /// `overloaded` response.
    pub fn try_submit(&self, job: Job) -> Result<(), Job> {
        self.tx.try_send(job).map_err(|e| match e {
            TrySendError::Full(job) | TrySendError::Disconnected(job) => job,
        })
    }
}

/// The micro-batching dispatcher: one coordinator thread + a fixed
/// worker pool.
pub struct Dispatcher {
    tx: Option<SyncSender<Job>>,
    coordinator: Option<thread::JoinHandle<()>>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl Dispatcher {
    /// Starts the dispatcher: jobs submitted through [`BatchHandle`]s
    /// are collected for up to `window` (zero disables coalescing
    /// delay), grouped by kernel, and executed on `workers` threads.
    /// The submit queue holds at most `queue_cap` jobs; beyond that,
    /// [`BatchHandle::try_submit`] sheds.
    pub fn start(
        workers: usize,
        window: Duration,
        queue_cap: usize,
        stats: Arc<ServerStats>,
    ) -> Dispatcher {
        let workers = workers.max(1);
        let (tx, rx) = sync_channel::<Job>(queue_cap.max(1));
        let (batch_tx, batch_rx) = sync_channel::<MicroBatch>(workers * 2);
        let batch_rx = Arc::new(Mutex::new(batch_rx));

        let coordinator = thread::Builder::new()
            .name("charfree-batch-coord".to_owned())
            .spawn(move || coordinate(rx, batch_tx, window))
            .expect("spawn coordinator thread");

        let pool = (0..workers)
            .map(|i| {
                let batch_rx = Arc::clone(&batch_rx);
                let stats = Arc::clone(&stats);
                thread::Builder::new()
                    .name(format!("charfree-batch-worker-{i}"))
                    .spawn(move || work(&batch_rx, &stats))
                    .expect("spawn worker thread")
            })
            .collect();

        Dispatcher {
            tx: Some(tx),
            coordinator: Some(coordinator),
            workers: pool,
        }
    }

    /// A new submission handle for a connection thread.
    pub fn handle(&self) -> BatchHandle {
        BatchHandle {
            tx: self
                .tx
                .as_ref()
                .expect("dispatcher already shut down")
                .clone(),
        }
    }

    /// Graceful drain: closes the submit queue, lets the coordinator
    /// flush every job already accepted, and joins all threads. Every
    /// [`BatchHandle`] must already be dropped, otherwise the queue
    /// stays open and this blocks.
    pub fn shutdown(mut self) {
        self.tx.take();
        if let Some(coordinator) = self.coordinator.take() {
            let _ = coordinator.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn coordinate(rx: Receiver<Job>, batch_tx: SyncSender<MicroBatch>, window: Duration) {
    loop {
        let first = match rx.recv() {
            Ok(job) => job,
            Err(_) => return, // every handle dropped and the queue is empty
        };
        let mut jobs = vec![first];
        if !window.is_zero() {
            let wake = Instant::now() + window;
            // The full window is a *cap*, not a wait: once the submit
            // queue has stayed empty for a short grace period the window
            // closes early. Closed-loop clients cannot enqueue more work
            // until their in-flight job completes, so waiting out the
            // whole window after the queue runs dry is pure dead time.
            let grace = (window / 16).max(Duration::from_micros(10));
            while jobs.len() < MAX_BATCH_JOBS {
                let now = Instant::now();
                if now >= wake {
                    break;
                }
                match rx.recv_timeout(grace.min(wake - now)) {
                    Ok(job) => jobs.push(job),
                    // On disconnect the flush below still runs; the next
                    // outer recv() observes the closed queue and returns.
                    Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => break,
                }
            }
        }
        // Group by kernel identity, preserving first-seen order so the
        // flush is deterministic, then hand the whole window to one
        // worker as a single fused multi-kernel flush.
        let mut order: Vec<*const Kernel> = Vec::new();
        let mut groups: HashMap<*const Kernel, KernelGroup> = HashMap::new();
        for job in jobs {
            let key = Arc::as_ptr(&job.kernel);
            let entry = groups.entry(key).or_insert_with(|| {
                order.push(key);
                KernelGroup {
                    kernel: Arc::clone(&job.kernel),
                    jobs: Vec::new(),
                }
            });
            entry.jobs.push(job);
        }
        let flush: Vec<KernelGroup> = order
            .into_iter()
            .filter_map(|k| groups.remove(&k))
            .collect();
        if batch_tx.send(MicroBatch { groups: flush }).is_err() {
            return; // workers are gone; nothing left to flush to
        }
    }
}

fn work(batch_rx: &Mutex<Receiver<MicroBatch>>, stats: &ServerStats) {
    let mut consecutive_panics: u32 = 0;
    loop {
        // Hold the lock only for the receive so idle workers queue up
        // behind it rather than serializing evaluation.
        let batch = {
            let rx = batch_rx.lock().unwrap_or_else(|e| e.into_inner());
            rx.recv()
        };
        let MicroBatch { groups } = match batch {
            Ok(batch) => batch,
            Err(_) => return, // coordinator exited
        };
        // Supervision: a panicking batch must not take the worker down.
        // The panic unwinds past the jobs' reply senders, so every
        // waiting connection observes a disconnected channel and
        // responds with a typed, retriable error — then the worker
        // restarts after a capped exponential backoff.
        match catch_unwind(AssertUnwindSafe(|| execute(groups, stats))) {
            Ok(()) => consecutive_panics = 0,
            Err(_) => {
                stats.record_worker_panic();
                let factor = 1u32 << consecutive_panics.min(16);
                thread::sleep((RESTART_BACKOFF_BASE * factor).min(RESTART_BACKOFF_CAP));
                consecutive_panics = consecutive_panics.saturating_add(1);
            }
        }
    }
}

fn execute(groups: Vec<KernelGroup>, stats: &ServerStats) {
    let now = Instant::now();
    // Per-kernel staging: shed expired jobs, pack the survivors'
    // transitions into one block per kernel, remember each job's span.
    struct Prepared {
        kernel: Arc<Kernel>,
        jobs: Vec<Job>,
        spans: Vec<(usize, usize)>,
        block: PatternBlock,
        values: Vec<f64>,
    }
    let mut prepared: Vec<Prepared> = Vec::with_capacity(groups.len());
    let mut poisoned = false;
    for group in groups {
        let mut live = Vec::with_capacity(group.jobs.len());
        for job in group.jobs {
            match job.deadline {
                Some(deadline) if deadline <= now => {
                    job.reply.complete(Err(JobError::DeadlineExceeded));
                }
                _ => live.push(job),
            }
        }
        if live.is_empty() {
            continue;
        }
        poisoned |= live
            .iter()
            .any(|job| job.fault == Some(JobFault::PanicInWorker));
        let mut block = PatternBlock::new(group.kernel.num_vars() as usize);
        let mut spans = Vec::with_capacity(live.len());
        for job in &live {
            let offset = block.len();
            block.extend_from_patterns(&group.kernel, &job.patterns);
            spans.push((offset, block.len() - offset));
        }
        let values = vec![0.0f64; block.len()];
        prepared.push(Prepared {
            kernel: group.kernel,
            jobs: live,
            spans,
            block,
            values,
        });
    }
    if poisoned {
        panic!("injected worker fault (JobFault::PanicInWorker)");
    }

    // One fused multi-kernel pass over the whole flush window: every
    // kernel group's block advances together.
    let mut fused: Vec<FusedJob> = prepared
        .iter_mut()
        .map(|p| FusedJob {
            kernel: &p.kernel,
            block: &p.block,
            out: &mut p.values,
        })
        .collect();
    eval_fused(&mut fused);
    drop(fused);

    for p in prepared {
        if p.block.is_empty() {
            stats.record_batch(p.jobs.len(), 1);
        } else {
            let groups64 = p.block.len().div_ceil(64);
            stats.record_batch(p.jobs.len(), p.block.len() / groups64);
        }
        for (job, (offset, len)) in p.jobs.into_iter().zip(p.spans) {
            let slice = &p.values[offset..offset + len];
            // DEFAULT_CHUNK association == the offline TraceEngine
            // reduction, which is what keeps batched summaries
            // bit-identical.
            let summary = TraceSummary::from_values(slice, DEFAULT_CHUNK);
            let output = JobOutput {
                summary,
                values: job.want_values.then(|| slice.to_vec()),
            };
            job.reply.complete(Ok(output));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use charfree_core::ModelBuilder;
    use charfree_engine::TraceEngine;
    use charfree_netlist::{benchmarks, Library};
    use charfree_sim::MarkovSource;

    fn kernel_for(bench: &str) -> Arc<Kernel> {
        let library = Library::test_library();
        let netlist = benchmarks::by_name(bench, &library).expect("Table 1 name");
        let model = ModelBuilder::new(&netlist).build();
        Arc::new(Kernel::compile(&model))
    }

    fn patterns_for(kernel: &Kernel, vectors: usize, seed: u64) -> Vec<Vec<bool>> {
        MarkovSource::new(kernel.num_inputs(), 0.5, 0.4, seed)
            .expect("feasible source")
            .sequence(vectors)
    }

    #[test]
    fn coalesced_jobs_match_offline_evaluation_bit_for_bit() {
        let decod = kernel_for("decod");
        let cm85 = kernel_for("cm85");
        let stats = Arc::new(ServerStats::new());
        let dispatcher = Dispatcher::start(2, Duration::from_millis(40), 64, Arc::clone(&stats));
        let handle = dispatcher.handle();

        // Mixed workload: three requests on one kernel (lengths chosen to
        // land mid-64-lane-group) plus one on another, submitted together
        // so the window coalesces them.
        let cases: Vec<(Arc<Kernel>, usize, u64, bool)> = vec![
            (Arc::clone(&decod), 130, 1, false),
            (Arc::clone(&decod), 7, 2, true),
            (Arc::clone(&decod), 4099, 3, false),
            (Arc::clone(&cm85), 65, 4, true),
        ];
        let mut replies = Vec::new();
        for (kernel, vectors, seed, want_values) in &cases {
            let (reply_tx, reply_rx) = sync_channel(1);
            let job = Job {
                kernel: Arc::clone(kernel),
                patterns: patterns_for(kernel, *vectors, *seed),
                want_values: *want_values,
                deadline: None,
                reply: Box::new(ChannelReply(reply_tx)),
                fault: None,
            };
            assert!(handle.try_submit(job).is_ok());
            replies.push(reply_rx);
        }
        for ((kernel, vectors, seed, want_values), reply) in cases.iter().zip(replies) {
            let got = reply
                .recv()
                .expect("worker replies")
                .expect("job evaluates");
            let patterns = patterns_for(kernel, *vectors, *seed);
            let offline = TraceEngine::new(kernel).jobs(2).evaluate(&patterns);
            assert_eq!(got.summary.transitions, offline.transitions);
            assert_eq!(got.summary.sum_ff.to_bits(), offline.sum_ff.to_bits());
            assert_eq!(got.summary.max_ff.to_bits(), offline.max_ff.to_bits());
            match (want_values, got.values) {
                (true, Some(values)) => {
                    let offline_values = TraceEngine::new(kernel).jobs(2).trace(&patterns);
                    assert_eq!(values.len(), offline_values.len());
                    for (a, b) in values.iter().zip(&offline_values) {
                        assert_eq!(a.to_bits(), b.to_bits());
                    }
                }
                (false, None) => {}
                (want, got) => panic!("want_values={want} but got values={}", got.is_some()),
            }
        }
        drop(handle);
        dispatcher.shutdown();
    }

    #[test]
    fn expired_deadlines_are_shed_with_a_typed_error() {
        let decod = kernel_for("decod");
        let stats = Arc::new(ServerStats::new());
        let dispatcher = Dispatcher::start(1, Duration::from_millis(5), 8, Arc::clone(&stats));
        let handle = dispatcher.handle();
        let (reply_tx, reply_rx) = sync_channel(1);
        let job = Job {
            kernel: Arc::clone(&decod),
            patterns: patterns_for(&decod, 100, 9),
            want_values: false,
            deadline: Some(Instant::now() - Duration::from_millis(1)),
            reply: Box::new(ChannelReply(reply_tx)),
            fault: None,
        };
        assert!(handle.try_submit(job).is_ok());
        match reply_rx.recv().expect("reply arrives") {
            Err(JobError::DeadlineExceeded) => {}
            other => panic!("expired job must shed with a deadline error, got {other:?}"),
        }
        drop(handle);
        dispatcher.shutdown();
    }

    /// A sink that reports it was entered, then blocks until released
    /// before passing the outcome on — it parks the worker running it.
    struct ParkedReply {
        entered: SyncSender<()>,
        release: Receiver<()>,
        reply: ChannelReply,
    }

    impl ReplySink for ParkedReply {
        fn complete(self: Box<Self>, result: Result<JobOutput, JobError>) {
            let _ = self.entered.send(());
            let _ = self.release.recv();
            Box::new(self.reply).complete(result);
        }
    }

    #[test]
    fn full_queue_hands_the_job_back() {
        let decod = kernel_for("decod");
        let job = |seed: u64, reply: Box<dyn ReplySink>| Job {
            kernel: Arc::clone(&decod),
            patterns: patterns_for(&decod, 10, seed),
            want_values: false,
            deadline: None,
            reply,
            fault: None,
        };
        let stats = Arc::new(ServerStats::new());
        let dispatcher = Dispatcher::start(1, Duration::ZERO, 1, stats);
        let handle = dispatcher.handle();
        // Park the single worker inside a reply sink.
        let (entered_tx, entered_rx) = sync_channel(1);
        let (release_tx, release_rx) = sync_channel(1);
        let (parked_tx, parked_rx) = sync_channel(1);
        let parked = ParkedReply {
            entered: entered_tx,
            release: release_rx,
            reply: ChannelReply(parked_tx),
        };
        assert!(handle.try_submit(job(100, Box::new(parked))).is_ok());
        entered_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("the worker reaches the parked sink");
        // With the worker parked, at most four jobs fit: two batches in
        // the worker channel, one in the coordinator's hand and one in
        // the 1-deep submit queue.
        let mut shed = 0;
        let mut kept_replies = vec![parked_rx];
        for seed in 0..8 {
            let (reply_tx, reply_rx) = sync_channel(1);
            match handle.try_submit(job(seed, Box::new(ChannelReply(reply_tx)))) {
                Ok(()) => kept_replies.push(reply_rx),
                Err(_returned_job) => shed += 1,
            }
        }
        assert!(
            shed >= 4,
            "an 8-burst behind a parked worker shed only {shed}"
        );
        // Every accepted job completes once the worker is released.
        release_tx
            .send(())
            .expect("the parked sink waits for release");
        for reply in kept_replies {
            assert!(reply
                .recv_timeout(Duration::from_secs(30))
                .expect("accepted job completes")
                .is_ok());
        }
        drop(handle);
        dispatcher.shutdown();
    }

    #[test]
    fn worker_panics_are_supervised_and_later_jobs_still_complete() {
        let decod = kernel_for("decod");
        let stats = Arc::new(ServerStats::new());
        // A single worker: if the panic killed it for good, the healthy
        // jobs below would hang instead of completing.
        let dispatcher = Dispatcher::start(1, Duration::ZERO, 16, Arc::clone(&stats));
        let handle = dispatcher.handle();

        for round in 0..3u64 {
            // A poisoned job: its reply channel must disconnect (typed
            // error at the connection layer), not hang.
            let (poison_tx, poison_rx) = sync_channel(1);
            let poison = Job {
                kernel: Arc::clone(&decod),
                patterns: patterns_for(&decod, 10, 100 + round),
                want_values: false,
                deadline: None,
                reply: Box::new(ChannelReply(poison_tx)),
                fault: Some(JobFault::PanicInWorker),
            };
            assert!(handle.try_submit(poison).is_ok());
            assert!(
                poison_rx.recv_timeout(Duration::from_secs(30)).is_err(),
                "panicked batch must drop its replies"
            );

            // The restarted worker evaluates the next job bit-exactly.
            let (reply_tx, reply_rx) = sync_channel(1);
            let job = Job {
                kernel: Arc::clone(&decod),
                patterns: patterns_for(&decod, 50, round),
                want_values: false,
                deadline: None,
                reply: Box::new(ChannelReply(reply_tx)),
                fault: None,
            };
            assert!(handle.try_submit(job).is_ok());
            let got = reply_rx
                .recv_timeout(Duration::from_secs(30))
                .expect("restarted worker replies")
                .expect("job evaluates");
            let patterns = patterns_for(&decod, 50, round);
            let offline = TraceEngine::new(&decod).evaluate(&patterns);
            assert_eq!(got.summary.sum_ff.to_bits(), offline.sum_ff.to_bits());
        }
        assert_eq!(stats.worker_panics(), 3);
        drop(handle);
        dispatcher.shutdown();
    }
}
