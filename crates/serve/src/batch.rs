//! Cross-connection micro-batching: the one place a served request's
//! patterns are drawn and evaluated.
//!
//! A [`Job`] names a registry [`Resident`] (a kernel or a sequential
//! design) and a [`Stimulus`]: the patterns a `tracep` carried, or the
//! request's checked Markov source and length. A queued job holds no
//! drawn patterns; the worker running it draws them and drops them once
//! packed.
//!
//! Evaluation requests from *different* connections are coalesced into
//! shared 64-lane [`PatternBlock`]s before hitting the kernel. There is
//! no coordinator thread: an idle worker takes the job-queue lock,
//! blocks for a first job, gathers more for up to `batch_window` and
//! releases the lock. It then groups the kernel jobs by kernel
//! identity, packs each group's transitions into its own block,
//! evaluates **all groups in a single fused multi-kernel pass**
//! ([`eval_fused`], interleaving the gathering kernels' level-by-level
//! gather rounds for memory-level parallelism), and scatters the
//! per-transition values back to each requester. The window's
//! sequential designs (`seqeval`) then run
//! [`SeqModel::eval_fused`](charfree_seq::SeqModel::eval_fused) one by
//! one. The other idle workers wait on the lock, so the next window
//! is gathered while this one evaluates.
//!
//! Workers run each window under `supervise`, the one supervision
//! loop of the server's pools (`Pool`): a panic is confined to its
//! window, and the worker restarts after a capped exponential backoff.
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
//!    [`TraceSummary::from_values`] over
//!    [`DEFAULT_CHUNK`](charfree_engine::DEFAULT_CHUNK)-sized runs —
//!    the exact association [`TraceEngine`](charfree_engine::TraceEngine)
//!    uses offline — so floating-point summation order matches the
//!    single-request path bit for bit.
//!
//! A sequential job is evaluated alone, by the same `eval_fused` call
//! offline `seqeval` makes.
//!
//! Shedding happens at submit time: the job queue is a bounded
//! `sync_channel` and [`BatchHandle::try_submit`] hands the job back on
//! a full queue instead of blocking the connection thread.

use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use charfree_engine::{eval_fused, FusedJob, Kernel, PatternBlock, TraceSummary};
use charfree_seq::MacroSummary;
use charfree_sim::MarkovSource;

use crate::registry::Resident;
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
/// disconnecting its channel, the server's async reply by posting an
/// `internal` error from its `Drop`.
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

/// The patterns a job evaluates its model on.
pub enum Stimulus {
    /// Explicit patterns (a `tracep` request's).
    Patterns(Vec<Vec<bool>>),
    /// A checked Markov source and how many patterns to draw from it.
    Markov(MarkovSource, usize),
}

impl Stimulus {
    /// The pattern window, drawn now for a Markov stimulus; `len - 1`
    /// transitions are evaluated.
    pub fn patterns(self) -> Vec<Vec<bool>> {
        match self {
            Stimulus::Patterns(patterns) => patterns,
            Stimulus::Markov(mut source, len) => source.sequence(len),
        }
    }
}

/// One evaluation request, ready to batch.
pub struct Job {
    /// Model to evaluate (its `Arc` clone pins it across evictions).
    pub model: Resident,
    /// The job's patterns, drawn by the worker that runs it.
    pub stimulus: Stimulus,
    /// `true` for `trace` (per-transition values shipped back), `false`
    /// for `eval` and `seqeval` (summary only).
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
    /// A sequential design's per-macro summaries, in macro index order.
    pub macros: Option<Vec<MacroSummary>>,
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
    pub fn try_submit(&self, job: Job) -> Result<(), Box<Job>> {
        self.tx.try_send(job).map_err(|e| match e {
            TrySendError::Full(job) | TrySendError::Disconnected(job) => Box::new(job),
        })
    }
}

/// The micro-batching dispatcher: a fixed pool of workers that each
/// gather their own window.
pub struct Dispatcher {
    tx: SyncSender<Job>,
    workers: Pool,
}

impl Dispatcher {
    /// Starts the dispatcher: jobs submitted through [`BatchHandle`]s
    /// are collected for up to `window` (zero disables coalescing
    /// delay) and executed on `workers` threads, kernel jobs grouped by
    /// kernel. The submit queue holds at most `queue_cap` jobs; beyond
    /// that, [`BatchHandle::try_submit`] sheds.
    pub fn start(
        workers: usize,
        window: Duration,
        queue_cap: usize,
        stats: Arc<ServerStats>,
    ) -> Dispatcher {
        let (tx, rx) = sync_channel::<Job>(queue_cap.max(1));
        let pool_stats = Arc::clone(&stats);
        let workers = Pool::spawn(
            "charfree-batch-worker",
            workers,
            rx,
            &pool_stats,
            move |rx| gather(rx, window),
            move |jobs| execute(jobs, &stats),
        )
        .expect("spawn worker thread");
        Dispatcher { tx, workers }
    }

    /// A new submission handle for a connection thread.
    pub fn handle(&self) -> BatchHandle {
        BatchHandle {
            tx: self.tx.clone(),
        }
    }

    /// Graceful drain: closes the submit queue, lets the workers flush
    /// every job already accepted, and joins them. Every
    /// [`BatchHandle`] must already be dropped, otherwise the queue
    /// stays open and this blocks.
    pub fn shutdown(self) {
        drop(self.tx);
        self.workers.join();
    }
}

/// A fixed pool of threads draining one shared queue, each item under
/// [`supervise`]: the batch workers, and the service threads behind
/// the reactor.
pub(crate) struct Pool(Vec<thread::JoinHandle<()>>);

impl Pool {
    /// Spawns `threads` (at least one) threads named `{name}-{i}` that
    /// take items from `queue` with `take` and run `body` on each.
    pub(crate) fn spawn<T: Send + 'static, U>(
        name: &str,
        threads: usize,
        queue: Receiver<T>,
        stats: &Arc<ServerStats>,
        take: impl Fn(&Receiver<T>) -> Option<U> + Clone + Send + 'static,
        body: impl Fn(U) + Clone + Send + 'static,
    ) -> io::Result<Pool> {
        let queue = Arc::new(Mutex::new(queue));
        let spawn = |i| {
            let (queue, stats) = (Arc::clone(&queue), Arc::clone(stats));
            let (take, body) = (take.clone(), body.clone());
            thread::Builder::new()
                .name(format!("{name}-{i}"))
                .spawn(move || supervise(&queue, &stats, take, body))
        };
        (0..threads.max(1))
            .map(spawn)
            .collect::<io::Result<_>>()
            .map(Pool)
    }

    /// Joins every thread; the queue's senders must all be gone, or
    /// this blocks.
    pub(crate) fn join(self) {
        for thread in self.0 {
            let _ = thread.join();
        }
    }
}

/// The one supervision loop of the server's pools (batch workers and
/// service threads): repeatedly takes an item from the shared `queue`
/// with `take` and runs `body` on it, until `take` finds the queue
/// closed. The lock is held only while taking, so idle threads queue
/// up behind it rather than serializing the work.
///
/// A panicking `body` must not take the thread down. The panic unwinds
/// past the item's reply, whose drop answers the waiting client with a
/// typed, retriable error (the [`ReplySink`] drop contract); the panic
/// is counted in `worker_panics` and the loop restarts after a capped
/// exponential backoff.
fn supervise<T, U>(
    queue: &Mutex<Receiver<T>>,
    stats: &ServerStats,
    take: impl Fn(&Receiver<T>) -> Option<U>,
    body: impl Fn(U),
) {
    let mut consecutive_panics: u32 = 0;
    loop {
        let item = take(&queue.lock().unwrap_or_else(|e| e.into_inner()));
        let Some(item) = item else {
            return; // every sender dropped and the queue is empty
        };
        match catch_unwind(AssertUnwindSafe(|| body(item))) {
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

/// Gathers one window from the job queue (its lock held by the caller):
/// blocks for a first job, then takes more for up to `window`. `None`
/// once every handle is dropped and the queue is empty.
fn gather(rx: &Receiver<Job>, window: Duration) -> Option<Vec<Job>> {
    let mut jobs = vec![rx.recv().ok()?];
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
                // On disconnect this window still flushes; the next
                // gather observes the closed queue and returns `None`.
                Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => break,
            }
        }
    }
    Some(jobs)
}

/// The mean lanes filled per 64-lane group over `lanes` transitions.
fn lane_fill(lanes: usize) -> usize {
    lanes.checked_div(lanes.div_ceil(64)).unwrap_or(1)
}

/// Runs one window: sheds expired jobs, packs the kernel jobs into one
/// block per kernel (first-seen order, so the flush is deterministic)
/// and evaluates them in one fused pass, then evaluates the
/// sequential jobs.
fn execute(jobs: Vec<Job>, stats: &ServerStats) {
    let now = Instant::now();
    let live: Vec<Job> = jobs
        .into_iter()
        .filter_map(|job| match job.deadline {
            Some(deadline) if deadline <= now => {
                job.reply.complete(Err(JobError::DeadlineExceeded));
                None
            }
            _ => Some(job),
        })
        .collect();
    if live
        .iter()
        .any(|job| job.fault == Some(JobFault::PanicInWorker))
    {
        panic!("injected worker fault (JobFault::PanicInWorker)");
    }

    // One kernel's jobs: their packed block, each job's reply, whether
    // it wants values and its span of the block.
    struct Group {
        kernel: Arc<Kernel>,
        block: PatternBlock,
        replies: Vec<(Box<dyn ReplySink>, bool, usize, usize)>,
    }
    let mut groups: Vec<Group> = Vec::new();
    let mut sequential = Vec::new();
    for job in live {
        let kernel = match job.model {
            Resident::Comb(kernel) => kernel,
            Resident::Seq(model) => {
                sequential.push((model, job.stimulus, job.reply));
                continue;
            }
        };
        let i = match groups.iter().position(|g| Arc::ptr_eq(&g.kernel, &kernel)) {
            Some(i) => i,
            None => {
                groups.push(Group {
                    block: PatternBlock::new(kernel.num_vars() as usize),
                    kernel,
                    replies: Vec::new(),
                });
                groups.len() - 1
            }
        };
        let group = &mut groups[i];
        let offset = group.block.len();
        // Drawn here and dropped once packed.
        let patterns = job.stimulus.patterns();
        group.block.extend_from_patterns(&group.kernel, &patterns);
        let span = group.block.len() - offset;
        group
            .replies
            .push((job.reply, job.want_values, offset, span));
    }

    // One fused multi-kernel pass over the whole flush window: every
    // kernel group's block advances together.
    let mut values: Vec<Vec<f64>> = groups.iter().map(|g| vec![0.0; g.block.len()]).collect();
    let mut fused: Vec<FusedJob> = groups
        .iter()
        .zip(&mut values)
        .map(|(g, out)| FusedJob {
            kernel: &g.kernel,
            block: &g.block,
            out,
        })
        .collect();
    eval_fused(&mut fused);
    drop(fused);

    for (group, values) in groups.into_iter().zip(values) {
        stats.record_batch(group.replies.len(), lane_fill(group.block.len()));
        for (reply, want_values, offset, len) in group.replies {
            let slice = &values[offset..offset + len];
            // The offline TraceEngine reduction, which is what keeps
            // batched summaries bit-identical.
            let summary = TraceSummary::from_values(slice);
            let values = want_values.then(|| slice.to_vec());
            reply.complete(Ok(JobOutput {
                summary,
                values,
                macros: None,
            }));
        }
    }

    for (model, stimulus, reply) in sequential {
        let summary = model.eval_fused(&stimulus.patterns());
        stats.record_batch(1, lane_fill(summary.total.transitions));
        reply.complete(Ok(JobOutput {
            summary: summary.total,
            values: None,
            macros: Some(summary.per_macro),
        }));
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
    fn the_supervisor_keeps_serving_after_each_panicking_body() {
        let stats = ServerStats::new();
        let (tx, rx) = sync_channel::<u32>(8);
        for item in 0..6 {
            tx.send(item).expect("queued");
        }
        drop(tx);
        // Items 1 to 3 panic back to back (the backoff grows); the
        // items around them are still served, in order.
        let (served_tx, served_rx) = sync_channel::<u32>(8);
        let body = |item: u32| {
            if (1..=3).contains(&item) {
                panic!("injected panic on item {item}");
            }
            served_tx.send(item).expect("recorded");
        };
        supervise(&Mutex::new(rx), &stats, |rx| rx.recv().ok(), body);
        assert_eq!(served_rx.try_iter().collect::<Vec<_>>(), [0, 4, 5]);
        assert_eq!(stats.worker_panics(), 3);
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
                model: Resident::Comb(Arc::clone(kernel)),
                stimulus: Stimulus::Patterns(patterns_for(kernel, *vectors, *seed)),
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
            model: Resident::Comb(Arc::clone(&decod)),
            stimulus: Stimulus::Patterns(patterns_for(&decod, 100, 9)),
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
            model: Resident::Comb(Arc::clone(&decod)),
            stimulus: Stimulus::Patterns(patterns_for(&decod, 10, seed)),
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
        // With the only worker parked inside the first job's reply, the
        // 1-deep submit queue is the one place another job fits, so at
        // most one of the burst is accepted.
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
                model: Resident::Comb(Arc::clone(&decod)),
                stimulus: Stimulus::Patterns(patterns_for(&decod, 10, 100 + round)),
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
                model: Resident::Comb(Arc::clone(&decod)),
                stimulus: Stimulus::Patterns(patterns_for(&decod, 50, round)),
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
