//! The parallel verification scheduler.
//!
//! A verification run is a batch of (benchmark, method) jobs submitted to a **persistent
//! worker pool** (`JobPool`): `jobs` threads spawned once when the [`Engine`] is
//! created and kept alive until it drops. Each worker owns its solver (wrapped in a
//! [`CachingOracle`]) and a lock-free [`LocalTier`] that survives across jobs *and
//! across submissions*, and shares the engine-wide [`MemoStore`] — so work one method
//! discharges is available to every other method of every later request. This is what
//! makes the engine reusable as a long-lived service (`marpled` submits one batch per
//! client request to the same pool); a batch CLI run is simply one submission followed
//! by [`RunHandle::finish`].
//!
//! # Fair scheduling
//!
//! The pool does **not** drain one FIFO queue. Every submission owns a logical queue of
//! its still-pending jobs, and idle workers rotate round-robin over the live
//! submissions, taking one job per turn — so a 2-job `check` submitted while a 100-job
//! `check-all` is queued gets every other job slot instead of waiting for the whole
//! batch. Fairness is per *submission*, which at the daemon layer means per client
//! request.
//!
//! Three more properties fall out of the same queue structure:
//!
//! * **Cancellation** — [`RunHandle::cancel`] atomically drops the submission's queued
//!   jobs (each waiting consumer observes a `cancelled` outcome, so accounting stays
//!   exact) while jobs already on a worker run to completion and still deliver.
//! * **Deduplication** — identical `(axioms, benchmark, method)` jobs across
//!   concurrent submissions run **once**: the later submission subscribes to the
//!   earlier job (queued or already running) and both receive the same report. This is
//!   sound because every verdict is a pure function of its canonical key. The key uses
//!   the canonical axiom-set fingerprint plus the benchmark/method identity, which
//!   uniquely names a job for the built-in suite the daemon serves.
//! * **Queue-wait accounting** — every job records how long it sat queued before a
//!   worker picked it up; [`RunSummary`] reports the p50/p95 so fairness is measurable.
//!
//! [`Engine::submit`] returns a [`RunHandle`] that yields reports **incrementally** as
//! workers complete them ([`RunHandle::next_report`], or [`RunHandle::poll_report`]
//! with a timeout for callers that interleave deadline checks) and finally assembles
//! them into pre-allocated slots keyed by (benchmark, method) index, so aggregation is
//! deterministic regardless of completion order; verdicts themselves are
//! order-independent because every cached verdict is a pure function of its canonical
//! key.

use crate::cache::{CacheStatsSnapshot, MemoStore};
use crate::oracle::CachingOracle;
use crate::tier::LocalTier;
use hat_core::{CheckStats, Checker, MethodReport};
use hat_sfa::{EnumerationMode, InclusionMode, SubsumptionMode};
use hat_suite::Benchmark;
use std::collections::{HashMap, HashSet, VecDeque};
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Configuration of a verification run.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Number of worker threads (1 = sequential).
    pub jobs: usize,
    /// Path of the persistent cache log; `None` keeps the cache in memory only.
    pub cache_path: Option<PathBuf>,
    /// Minterm enumeration strategy (incremental by default; naive is kept for
    /// differential testing and paper-faithful measurement).
    pub enumeration: EnumerationMode,
    /// Whether per-group alphabet pruning runs before DFA product construction (on by
    /// default; the unpruned path is kept for differential testing and measurement —
    /// both paths are verdict- and state-count-identical).
    pub prune: bool,
    /// How each per-group inclusion problem is decided (on-the-fly product walk by
    /// default; the materialising DFA-pair path is kept for differential testing and
    /// measurement — both paths are verdict-identical).
    pub inclusion: InclusionMode,
    /// How aggressively the on-the-fly product walk prunes its frontier by antichain
    /// subsumption (memoised simulation by default; the syntactic tier and the
    /// unpruned walk are kept for differential testing and measurement — all three are
    /// verdict-identical, see [`hat_sfa::SubsumptionMode`]).
    pub subsume: SubsumptionMode,
    /// Whether each worker fronts the shared store with a lock-free local read-through
    /// tier (on by default; the shared-only path is kept as the lock-traffic measurement
    /// baseline — verdicts are identical because every memo value is a pure function of
    /// its key).
    pub local_tiers: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            jobs: 1,
            cache_path: None,
            enumeration: EnumerationMode::default(),
            prune: true,
            inclusion: InclusionMode::default(),
            subsume: SubsumptionMode::default(),
            local_tiers: true,
        }
    }
}

/// The verification results of one benchmark configuration.
#[derive(Debug, Clone)]
pub struct BenchmarkRun {
    /// ADT name.
    pub adt: String,
    /// Backing library name.
    pub library: String,
    /// One report per method, in method order. A cancelled run may hold fewer reports
    /// than the benchmark has methods — the missing tail was never executed.
    pub reports: Vec<MethodReport>,
}

impl BenchmarkRun {
    /// This benchmark's counters: every method report's, summed.
    pub fn stats(&self) -> CheckStats {
        self.reports.iter().map(|r| r.stats).sum()
    }
}

/// Names every method in `results` whose verdict differs from the `expect_verified` of
/// its configuration in `benches`, one line each: the run label, the configuration and
/// the method. Panics when a result names a configuration `benches` does not hold.
pub fn verdict_mismatches(
    run: &str,
    benches: &[Benchmark],
    results: &[BenchmarkRun],
) -> Vec<String> {
    let outcome = |verified: bool| if verified { "verified" } else { "rejected" };
    let mut mismatches = Vec::new();
    for result in results {
        let bench = benches
            .iter()
            .find(|b| b.adt == result.adt && b.library == result.library)
            .expect("every result comes from a configuration in `benches`");
        for (method, report) in bench.methods.iter().zip(&result.reports) {
            if report.verified != method.expect_verified {
                mismatches.push(format!(
                    "{run}: {}/{} {} was {}, expected {}",
                    result.adt,
                    result.library,
                    method.sig.name,
                    outcome(report.verified),
                    outcome(method.expect_verified)
                ));
            }
        }
    }
    mismatches
}

/// The outcome of a whole run.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Per-benchmark results, in input order. Benchmarks whose every job was cancelled
    /// still appear, with an empty report list.
    pub benchmarks: Vec<BenchmarkRun>,
    /// Wall-clock time of the whole run.
    pub wall: Duration,
    /// Cache counters accumulated during this run (deltas, not lifetime totals).
    pub cache: CacheStatsSnapshot,
    /// Jobs of this submission dropped by cancellation before any worker picked them
    /// up. `completed + cancelled` always equals the submitted job count.
    pub cancelled: usize,
    /// Jobs answered by subscribing to an identical job already queued or running for
    /// a concurrent submission, instead of executing again.
    pub dedup_hits: usize,
    /// Median time this submission's completed jobs spent queued before a worker took
    /// them (nearest-rank).
    pub queue_wait_p50: Duration,
    /// 95th-percentile queue wait of this submission's completed jobs (nearest-rank).
    pub queue_wait_p95: Duration,
}

impl RunSummary {
    /// The whole run's method counters, summed over every benchmark. Its `total_time`
    /// is CPU-side verification time; wall clock shrinks with `jobs`.
    pub fn stats(&self) -> CheckStats {
        self.benchmarks.iter().map(BenchmarkRun::stats).sum()
    }

    /// Whether any job of this run was dropped by cancellation.
    pub fn was_cancelled(&self) -> bool {
        self.cancelled > 0
    }
}

/// Identity of one verification job for cross-submission deduplication: the canonical
/// axiom-set fingerprint plus the benchmark/method identity. Every job of an engine
/// runs under the engine's one [`EngineConfig`], so the knobs need no place in the key.
/// Verdicts are pure functions of this key (for the static benchmark suite the daemon
/// serves, where `(adt, library)` names a unique definition), which is what makes
/// fan-out to several subscribers sound.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct JobKey {
    key_prefix: Arc<String>,
    adt: String,
    library: String,
    method: usize,
    method_name: String,
}

impl JobKey {
    fn new(bench: &Benchmark, method: usize, key_prefix: &Arc<String>) -> Self {
        JobKey {
            key_prefix: Arc::clone(key_prefix),
            adt: bench.adt.to_string(),
            library: bench.library.to_string(),
            method,
            method_name: bench.methods[method].sig.name.clone(),
        }
    }
}

/// The work a job carries (with the engine's config, everything `run_job` needs).
struct JobWork {
    bench: Arc<Benchmark>,
    method: usize,
    /// Pre-computed axiom-set fingerprint prefix, shared by every method of a benchmark.
    key_prefix: Arc<String>,
}

/// One consumer of a job's outcome: which submission it belongs to, which slot of that
/// submission, and the channel to deliver on. A job gains extra recipients when a
/// concurrent submission dedups onto it.
struct Recipient {
    submission: u64,
    token: usize,
    reply: Sender<JobOutcome>,
}

/// A job waiting in some submission's queue.
struct QueuedJob {
    work: JobWork,
    recipients: Vec<Recipient>,
    queued_at: Instant,
}

/// How one job ended, delivered to every recipient.
#[derive(Clone)]
enum JobResult {
    Report(Box<MethodReport>),
    /// The job was dropped from the queue by cancellation before any worker took it.
    Cancelled,
    /// The job failed to run (ill-formed input or worker panic); the worker survives.
    Failed(String),
}

/// What a worker (or the cancellation path) sends back for one job.
struct JobOutcome {
    token: usize,
    /// Time the job spent queued before a worker picked it up (zero for cancellations).
    queue_wait: Duration,
    result: JobResult,
}

/// The scheduler state every worker and submitter shares, guarded by one mutex: the
/// round-robin rotation of live submissions, their per-submission job queues, the
/// queued jobs themselves (keyed for dedup), and the subscriber lists of running jobs.
#[derive(Default)]
struct PoolState {
    /// Round-robin rotation of submissions that still have queued jobs.
    order: VecDeque<u64>,
    /// Per-submission FIFO of queued job keys.
    pending: HashMap<u64, VecDeque<JobKey>>,
    /// Every queued job, keyed by identity so identical jobs merge.
    jobs: HashMap<JobKey, QueuedJob>,
    /// Late subscribers of jobs currently on a worker (the worker holds the recipients
    /// it took the job with; these are added on delivery).
    running: HashMap<JobKey, Vec<Recipient>>,
    /// Set when the pool is dropping: workers drain the backlog, then exit.
    closed: bool,
}

impl PoolState {
    /// Takes the next job fairly: pop one job from the front submission's queue and
    /// rotate that submission to the back, so every live submission gets one job slot
    /// per turn. Registers the job as running before returning.
    fn take_next(&mut self) -> Option<(JobKey, JobWork, Vec<Recipient>, Duration)> {
        while let Some(sid) = self.order.pop_front() {
            let Some(queue) = self.pending.get_mut(&sid) else {
                continue; // fully cancelled while parked in the rotation
            };
            let Some(key) = queue.pop_front() else {
                self.pending.remove(&sid);
                continue;
            };
            if queue.is_empty() {
                self.pending.remove(&sid);
            } else {
                self.order.push_back(sid);
            }
            let Some(job) = self.jobs.remove(&key) else {
                continue; // cancelled under us; the rotation already moved on
            };
            let wait = job.queued_at.elapsed();
            self.running.insert(key.clone(), Vec::new());
            return Some((key, job.work, job.recipients, wait));
        }
        None
    }
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Signalled whenever jobs are queued or the pool closes.
    available: Condvar,
    /// Lifetime count of jobs answered by subscription instead of execution.
    dedup_hits: AtomicUsize,
}

impl PoolShared {
    /// Locks the scheduler state, recovering from poisoning: the state is only ever
    /// mutated with the lock held and never left mid-update, and jobs execute outside
    /// the critical section, so a poisoned lock cannot hide a torn queue.
    fn lock_state(&self) -> MutexGuard<'_, PoolState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Removes every queued job belonging to `submission`, delivering a cancellation
    /// outcome to each of its recipients so consumer accounting stays exact. Queued
    /// jobs that concurrent submissions dedup-subscribed to survive: they are re-homed
    /// into the first surviving subscriber's queue. Running jobs are untouched.
    fn cancel_submission(&self, submission: u64) -> usize {
        let mut state = self.lock_state();
        let state = &mut *state;
        let mut dropped = 0usize;
        let mut emptied: HashSet<JobKey> = HashSet::new();
        for (key, job) in state.jobs.iter_mut() {
            job.recipients.retain(|r| {
                if r.submission != submission {
                    return true;
                }
                dropped += 1;
                let _ = r.reply.send(JobOutcome {
                    token: r.token,
                    queue_wait: Duration::ZERO,
                    result: JobResult::Cancelled,
                });
                false
            });
            if job.recipients.is_empty() {
                emptied.insert(key.clone());
            }
        }
        for key in &emptied {
            state.jobs.remove(key);
        }
        // Jobs this submission owned but others subscribe to keep running — under the
        // first surviving subscriber's queue, so fairness follows the new owner.
        let survivors: Vec<JobKey> = state
            .pending
            .remove(&submission)
            .into_iter()
            .flatten()
            .filter(|key| state.jobs.contains_key(key))
            .collect();
        for key in survivors {
            let new_sid = state.jobs[&key].recipients[0].submission;
            state.pending.entry(new_sid).or_default().push_back(key);
            if !state.order.contains(&new_sid) {
                state.order.push_back(new_sid);
            }
        }
        // Defensive sweep: a key that lost every recipient must not linger in any queue.
        if !emptied.is_empty() {
            for queue in state.pending.values_mut() {
                queue.retain(|k| !emptied.contains(k));
            }
            state.pending.retain(|_, q| !q.is_empty());
        }
        dropped
    }

    /// Drops every queued job of every submission (`shutdown --now`): each recipient
    /// observes a cancellation outcome; running jobs finish and deliver normally.
    fn cancel_all_queued(&self) -> usize {
        let mut state = self.lock_state();
        let mut dropped = 0usize;
        for (_, job) in state.jobs.drain() {
            for r in job.recipients {
                dropped += 1;
                let _ = r.reply.send(JobOutcome {
                    token: r.token,
                    queue_wait: Duration::ZERO,
                    result: JobResult::Cancelled,
                });
            }
        }
        state.pending.clear();
        state.order.clear();
        dropped
    }
}

/// A persistent verification worker pool: `jobs` threads spawned once, draining the
/// per-submission queue set round-robin, alive until the owning [`Engine`] drops.
/// Dropping the pool closes the queues and joins the workers — queued and in-flight
/// jobs finish first, which is what gives the daemon its graceful-drain shutdown for
/// free.
struct JobPool {
    shared: Arc<PoolShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for JobPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobPool")
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl JobPool {
    /// Spawns `config.jobs` workers, each running every job under `config`.
    fn spawn(config: &EngineConfig, cache: Arc<MemoStore>) -> Self {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState::default()),
            available: Condvar::new(),
            dedup_hits: AtomicUsize::new(0),
        });
        let workers = (0..config.jobs.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                let cache = Arc::clone(&cache);
                let config = config.clone();
                std::thread::Builder::new()
                    .name(format!("hat-worker-{i}"))
                    .spawn(move || Self::worker_loop(&shared, &cache, &config))
                    .expect("spawning a verification worker failed")
            })
            .collect();
        JobPool { shared, workers }
    }

    fn worker_loop(shared: &PoolShared, cache: &Arc<MemoStore>, config: &EngineConfig) {
        // One lock-free local tier per worker, shared by every oracle the worker
        // creates: promotions made while checking one method serve every later method
        // of the same worker — including methods of *later submissions* — without a
        // shard lock.
        let local = config.local_tiers.then(|| Rc::new(LocalTier::default()));
        loop {
            // Take a job with the scheduler lock released again before running it, so a
            // long verification never blocks the other workers' queue access.
            let (key, work, recipients, queue_wait) = {
                let mut state = shared.lock_state();
                loop {
                    if let Some(next) = state.take_next() {
                        break next;
                    }
                    if state.closed {
                        return;
                    }
                    state = shared
                        .available
                        .wait(state)
                        .unwrap_or_else(|e| e.into_inner());
                }
            };
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                Self::run_job(&work, config, cache, local.as_ref())
            }));
            let result = match outcome {
                Ok(Ok(report)) => JobResult::Report(Box::new(report)),
                Ok(Err(message)) => JobResult::Failed(message),
                Err(panic) => {
                    let message = panic
                        .downcast_ref::<String>()
                        .cloned()
                        .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                        .unwrap_or_else(|| "worker panicked".to_string());
                    JobResult::Failed(message)
                }
            };
            // Merge the recipients the job was taken with and any subscribers that
            // arrived while it ran, then fan the one result out to all of them.
            let late = shared.lock_state().running.remove(&key).unwrap_or_default();
            for r in recipients.into_iter().chain(late) {
                // A dropped RunHandle is fine: the outcome is simply discarded.
                let _ = r.reply.send(JobOutcome {
                    token: r.token,
                    queue_wait,
                    result: result.clone(),
                });
            }
        }
    }

    fn run_job(
        work: &JobWork,
        config: &EngineConfig,
        cache: &Arc<MemoStore>,
        local: Option<&Rc<LocalTier>>,
    ) -> Result<MethodReport, String> {
        let bench = &work.bench;
        let method = &bench.methods[work.method];
        let mut oracle = CachingOracle::with_key_prefix(
            bench.delta.axioms.clone(),
            Arc::clone(cache),
            work.key_prefix.as_ref().clone(),
        );
        if let Some(local) = local {
            oracle = oracle.with_local_tier(Rc::clone(local));
        }
        let mut checker = Checker::with_oracle(bench.delta.clone(), Box::new(oracle));
        checker.inclusion.enumeration = config.enumeration;
        checker.inclusion.prune = config.prune;
        checker.inclusion.mode = config.inclusion;
        checker.inclusion.subsume = config.subsume;
        checker
            .check_method(&method.sig, &method.body)
            .map_err(|e| {
                format!(
                    "checking {}::{} failed to run: {e}",
                    bench.adt, method.sig.name
                )
            })
    }
}

impl Drop for JobPool {
    fn drop(&mut self) {
        // Closing wakes every idle worker; each drains the remaining backlog, then
        // exits. Joining waits for in-flight jobs to finish.
        self.shared.lock_state().closed = true;
        self.shared.available.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// One report as it streams out of the pool: which (benchmark, method) slot of the
/// submitted batch it belongs to, the report itself, and how long the job waited for a
/// worker.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// Index of the benchmark within the submitted slice.
    pub bench: usize,
    /// Index of the method within that benchmark.
    pub method: usize,
    /// The completed report.
    pub report: MethodReport,
    /// Time the job spent queued before a worker picked it up.
    pub queue_wait: Duration,
}

/// One step of [`RunHandle::poll_report`].
#[derive(Debug)]
pub enum PollReport {
    /// A job completed; here is its report.
    Report(Box<JobReport>),
    /// No job completed within the timeout; the run is still in flight.
    TimedOut,
    /// Every job of the submission has been accounted for (completed or cancelled).
    Done,
}

/// An in-flight submission: jobs are running (or queued) on the engine's worker pool,
/// and reports can be consumed incrementally with [`RunHandle::next_report`] — this is
/// how the verification daemon streams per-job verdicts to its clients while the batch
/// is still running. [`RunHandle::poll_report`] is the timeout-bounded variant the
/// daemon uses to interleave deadline and cancellation checks with consumption.
/// [`RunHandle::finish`] drains the remainder and assembles the deterministic
/// [`RunSummary`].
#[derive(Debug)]
pub struct RunHandle<'e> {
    engine: &'e Engine,
    /// Scheduler identity of this submission (its queue in the rotation).
    submission: u64,
    /// (bench index, method index) per job token.
    jobs: Vec<(usize, usize)>,
    /// Completed reports, keyed by job token. Cancelled tokens stay `None`.
    slots: Vec<Option<MethodReport>>,
    received: usize,
    cancelled: usize,
    cancel_requested: bool,
    dedup_hits: usize,
    /// Queue waits of completed jobs, for the summary percentiles.
    waits: Vec<Duration>,
    rx: Receiver<JobOutcome>,
    benches: Vec<(String, String, usize)>,
    stats_before: CacheStatsSnapshot,
    start: Instant,
}

impl RunHandle<'_> {
    /// Number of jobs in this submission.
    pub fn job_count(&self) -> usize {
        self.jobs.len()
    }

    /// Number of this submission's jobs dropped by cancellation so far.
    pub fn cancelled(&self) -> usize {
        self.cancelled
    }

    /// Number of this submission's jobs that were answered by subscribing to an
    /// identical in-flight job of a concurrent submission.
    pub fn dedup_hits(&self) -> usize {
        self.dedup_hits
    }

    /// Whether [`RunHandle::cancel`] has been called on this handle.
    pub fn cancel_requested(&self) -> bool {
        self.cancel_requested
    }

    /// Drops this submission's queued jobs; jobs already on a worker finish and still
    /// deliver their reports. Returns the number of jobs dropped right now (their
    /// cancellation outcomes are consumed by the next `next_report`/`poll_report`/
    /// `finish` call, so accounting stays exact). Idempotent.
    pub fn cancel(&mut self) -> usize {
        self.cancel_requested = true;
        self.engine.pool.shared.cancel_submission(self.submission)
    }

    /// Folds one outcome into the handle's accounting; returns the report if the
    /// outcome carried one. Panics on a failed job — same contract as the one-shot
    /// scheduler had.
    fn absorb(&mut self, outcome: JobOutcome) -> Option<JobReport> {
        match outcome.result {
            JobResult::Report(report) => {
                let (bench, method) = self.jobs[outcome.token];
                self.slots[outcome.token] = Some((*report).clone());
                self.received += 1;
                self.waits.push(outcome.queue_wait);
                Some(JobReport {
                    bench,
                    method,
                    report: *report,
                    queue_wait: outcome.queue_wait,
                })
            }
            JobResult::Cancelled => {
                self.cancelled += 1;
                None
            }
            JobResult::Failed(message) => panic!("{message}"),
        }
    }

    fn outstanding(&self) -> bool {
        self.received + self.cancelled < self.jobs.len()
    }

    /// Blocks until the next report completes and returns it; `None` once every job of
    /// this submission has been yielded or cancelled. Panics if a job failed to run
    /// (ill-formed input) or a worker died — the same contract the one-shot scheduler
    /// had.
    pub fn next_report(&mut self) -> Option<JobReport> {
        while self.outstanding() {
            let outcome = self
                .rx
                .recv()
                .expect("a verification worker died with jobs outstanding");
            if let Some(report) = self.absorb(outcome) {
                return Some(report);
            }
        }
        None
    }

    /// Waits up to `timeout` for the next report. [`PollReport::TimedOut`] hands
    /// control back to the caller with the run still in flight — the daemon uses this
    /// to check deadlines and client cancellation between reports.
    pub fn poll_report(&mut self, timeout: Duration) -> PollReport {
        let deadline = Instant::now() + timeout;
        while self.outstanding() {
            let remaining = deadline.saturating_duration_since(Instant::now());
            match self.rx.recv_timeout(remaining) {
                Ok(outcome) => {
                    if let Some(report) = self.absorb(outcome) {
                        return PollReport::Report(Box::new(report));
                    }
                }
                Err(RecvTimeoutError::Timeout) => return PollReport::TimedOut,
                Err(RecvTimeoutError::Disconnected) => {
                    panic!("a verification worker died with jobs outstanding")
                }
            }
        }
        PollReport::Done
    }

    /// Drains any remaining reports and assembles the deterministic summary: reports in
    /// (benchmark, method) input order, wall clock since submission, and the cache-
    /// counter deltas of this run. Cancelled jobs leave no report; their count is in
    /// [`RunSummary::cancelled`].
    pub fn finish(mut self) -> RunSummary {
        while self.next_report().is_some() {}
        let mut results: Vec<BenchmarkRun> = self
            .benches
            .iter()
            .map(|(adt, library, methods)| BenchmarkRun {
                adt: adt.clone(),
                library: library.clone(),
                reports: Vec::with_capacity(*methods),
            })
            .collect();
        for (&(b, _), slot) in self.jobs.iter().zip(&mut self.slots) {
            let Some(report) = slot.take() else {
                continue; // cancelled before a worker took it
            };
            results[b].reports.push(report);
        }
        self.waits.sort_unstable();
        let queue_wait_p50 = percentile(&self.waits, 50.0);
        let queue_wait_p95 = percentile(&self.waits, 95.0);
        self.engine.cache.flush();
        RunSummary {
            benchmarks: results,
            wall: self.start.elapsed(),
            // Saturating: with several concurrent submissions against one engine (the
            // daemon), per-run deltas must never underflow. Disk replay happens at
            // engine construction, so `disk_loaded`/`stale` deltas are 0 for every run;
            // lifetime values live in `Engine::cache().stats()`.
            cache: self.engine.cache.stats() - self.stats_before,
            cancelled: self.cancelled,
            dedup_hits: self.dedup_hits,
            queue_wait_p50,
            queue_wait_p95,
        }
    }
}

/// Nearest-rank percentile of an already-sorted sample; zero for an empty one.
fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The parallel verification engine: a persistent worker pool plus the shared memo
/// store. Creating an engine spawns the pool; the engine stays ready to accept any
/// number of [`Engine::submit`] / [`Engine::check_benchmarks`] calls — concurrently,
/// from multiple threads — until it drops. This is the object a `marpled` daemon keeps
/// alive across client requests.
#[derive(Debug)]
pub struct Engine {
    config: EngineConfig,
    // Declared before `cache` so workers join (and stop writing) before the store
    // flushes its log on drop.
    pool: JobPool,
    cache: Arc<MemoStore>,
    next_submission: AtomicU64,
}

impl Engine {
    /// Creates an engine, loading the persistent cache when one is configured and
    /// spawning the worker pool.
    pub fn new(config: EngineConfig) -> std::io::Result<Self> {
        let cache = match &config.cache_path {
            Some(path) => MemoStore::with_disk_log(path)?,
            None => MemoStore::in_memory(),
        };
        Ok(Self::with_store(config, Arc::new(cache)))
    }

    /// Creates an engine over an already opened store — one opened with a
    /// non-default [`crate::LsmConfig`], say — and spawns the worker pool.
    /// `config.cache_path` is not consulted.
    pub fn with_store(config: EngineConfig, cache: Arc<MemoStore>) -> Self {
        let pool = JobPool::spawn(&config, Arc::clone(&cache));
        Engine {
            config,
            pool,
            cache,
            next_submission: AtomicU64::new(0),
        }
    }

    /// The shared memo store (e.g. for reporting lifetime statistics).
    pub fn cache(&self) -> &Arc<MemoStore> {
        &self.cache
    }

    /// The configuration the engine was created with.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Lifetime count of jobs answered by subscribing to an identical in-flight job
    /// instead of executing again.
    pub fn dedup_hits(&self) -> usize {
        self.pool.shared.dedup_hits.load(Ordering::Relaxed)
    }

    /// Number of jobs currently queued (not yet on a worker) across all submissions.
    pub fn queued_jobs(&self) -> usize {
        self.pool.shared.lock_state().jobs.len()
    }

    /// Drops every queued job of every in-flight submission; running jobs finish.
    /// Each affected [`RunHandle`] observes the drops as cancellations. This is the
    /// engine half of `marpled shutdown --now`.
    pub fn cancel_all_queued(&self) -> usize {
        self.pool.shared.cancel_all_queued()
    }

    /// Submits every (benchmark, method) job of `benches` to the worker pool and
    /// returns a [`RunHandle`] that streams reports as they complete. Multiple
    /// submissions may be in flight at once — each gets its own queue in the fair
    /// rotation, jobs identical to another submission's queued or running work are
    /// answered by subscription instead of re-execution, and each handle only ever
    /// sees its own reports.
    pub fn submit(&self, benches: &[Benchmark]) -> RunHandle<'_> {
        let start = Instant::now();
        let stats_before = self.cache.stats();
        // One fingerprint per benchmark, not per method job: canonicalising the axiom
        // set is not free and every method of a benchmark shares it.
        let shared: Vec<(Arc<Benchmark>, Arc<String>)> = benches
            .iter()
            .map(|b| {
                (
                    Arc::new(b.clone()),
                    Arc::new(CachingOracle::key_prefix_for(&b.delta.axioms)),
                )
            })
            .collect();
        let jobs: Vec<(usize, usize)> = benches
            .iter()
            .enumerate()
            .flat_map(|(b, bench)| (0..bench.methods.len()).map(move |m| (b, m)))
            .collect();
        let submission = self.next_submission.fetch_add(1, Ordering::Relaxed);
        let (reply, rx) = channel();
        let mut dedup_hits = 0usize;
        {
            let mut state = self.pool.shared.lock_state();
            let mut queue: VecDeque<JobKey> = VecDeque::new();
            for (token, &(b, m)) in jobs.iter().enumerate() {
                let (bench, key_prefix) = &shared[b];
                let key = JobKey::new(bench, m, key_prefix);
                let recipient = Recipient {
                    submission,
                    token,
                    reply: reply.clone(),
                };
                if let Some(job) = state.jobs.get_mut(&key) {
                    job.recipients.push(recipient);
                    dedup_hits += 1;
                    // The job stays queued under its original submission, but this
                    // submission's round-robin turns must be able to schedule it too —
                    // otherwise a small run deduped against a large queued batch waits
                    // for the batch's queue position, which is exactly the starvation
                    // the rotation exists to prevent. Whichever queue's turn comes
                    // first takes the job; `take_next` skips the other, stale entry.
                    queue.push_back(key);
                } else if let Some(subscribers) = state.running.get_mut(&key) {
                    subscribers.push(recipient);
                    dedup_hits += 1;
                } else {
                    state.jobs.insert(
                        key.clone(),
                        QueuedJob {
                            work: JobWork {
                                bench: Arc::clone(bench),
                                method: m,
                                key_prefix: Arc::clone(key_prefix),
                            },
                            recipients: vec![recipient],
                            queued_at: Instant::now(),
                        },
                    );
                    queue.push_back(key);
                }
            }
            if !queue.is_empty() {
                state.pending.insert(submission, queue);
                state.order.push_back(submission);
            }
        }
        self.pool.shared.available.notify_all();
        if dedup_hits > 0 {
            self.pool
                .shared
                .dedup_hits
                .fetch_add(dedup_hits, Ordering::Relaxed);
        }
        let slots = jobs.iter().map(|_| None).collect();
        RunHandle {
            engine: self,
            submission,
            slots,
            received: 0,
            cancelled: 0,
            cancel_requested: false,
            dedup_hits,
            waits: Vec::new(),
            rx,
            benches: benches
                .iter()
                .map(|b| (b.adt.to_string(), b.library.to_string(), b.methods.len()))
                .collect(),
            jobs,
            stats_before,
            start,
        }
    }

    /// Verifies every method of every benchmark, fanning the (benchmark, method) jobs
    /// out over the worker pool, and blocks until the whole batch is done.
    pub fn check_benchmarks(&self, benches: &[Benchmark]) -> RunSummary {
        self.submit(benches).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_benches() -> Vec<Benchmark> {
        // Two small configurations keep this test quick even in debug builds.
        vec![
            hat_suite::find("ConnectedGraph", "Set").expect("configuration exists"),
            hat_suite::find("Stack", "LinkedList").expect("configuration exists"),
        ]
    }

    fn verdicts(summary: &RunSummary) -> Vec<Vec<bool>> {
        summary
            .benchmarks
            .iter()
            .map(|b| b.reports.iter().map(|r| r.verified).collect())
            .collect()
    }

    #[test]
    fn parallel_verdicts_match_sequential() {
        let benches = fast_benches();
        let sequential = Engine::new(EngineConfig::default())
            .expect("in-memory engine")
            .check_benchmarks(&benches);
        let parallel = Engine::new(EngineConfig {
            jobs: 4,
            ..EngineConfig::default()
        })
        .expect("in-memory engine")
        .check_benchmarks(&benches);
        assert_eq!(verdicts(&sequential), verdicts(&parallel));
        assert_eq!(
            verdict_mismatches("jobs=1", &benches, &sequential.benchmarks),
            Vec::<String>::new()
        );
    }

    #[test]
    fn warm_cache_reduces_solver_work() {
        let benches = vec![hat_suite::find("ConnectedGraph", "Set").expect("configuration exists")];
        let engine = Engine::new(EngineConfig::default()).expect("in-memory engine");
        let cold = engine.check_benchmarks(&benches);
        let warm = engine.check_benchmarks(&benches);
        assert_eq!(verdicts(&cold), verdicts(&warm));
        assert!(warm.cache.hits > 0, "second run must hit the cache");
        assert!(
            warm.cache.misses < cold.cache.misses,
            "warm run should reach the solver less ({} vs {})",
            warm.cache.misses,
            cold.cache.misses
        );
    }

    #[test]
    fn pruned_and_memoised_construction_matches_the_unpruned_path() {
        let benches = fast_benches();
        let unpruned = Engine::new(EngineConfig {
            prune: false,
            ..EngineConfig::default()
        })
        .expect("in-memory engine")
        .check_benchmarks(&benches);
        let pruned_engine = Engine::new(EngineConfig::default()).expect("in-memory engine");
        let pruned = pruned_engine.check_benchmarks(&benches);
        assert_eq!(verdicts(&unpruned), verdicts(&pruned));
        for (u, p) in unpruned.benchmarks.iter().zip(&pruned.benchmarks) {
            assert_eq!(
                u.stats().dfa_states,
                p.stats().dfa_states,
                "{}/{}: pruning changed the reachable DFA state set",
                u.adt,
                u.library
            );
            assert!(
                p.stats().dfa_transitions <= u.stats().dfa_transitions,
                "{}/{}: pruning produced more transitions",
                u.adt,
                u.library
            );
        }
        let total_pruned = pruned.stats().alphabet_pruned;
        assert!(total_pruned > 0, "no benchmark exercised the pruner");
        // The caching oracle memoises transitions run-wide: a second pass over the same
        // benchmarks must answer every derivative from the memo.
        let warm = pruned_engine.check_benchmarks(&benches);
        assert_eq!(verdicts(&pruned), verdicts(&warm));
        assert!(
            pruned_engine.cache().stats().transition_hits > 0,
            "structurally equal sub-automata must share memoised transitions"
        );
    }

    #[test]
    fn onthefly_inclusion_matches_the_materialised_path_and_shares_shapes() {
        let benches = fast_benches();
        let materialised = Engine::new(EngineConfig {
            inclusion: hat_sfa::InclusionMode::Materialise,
            ..EngineConfig::default()
        })
        .expect("in-memory engine")
        .check_benchmarks(&benches);
        let otf_engine = Engine::new(EngineConfig::default()).expect("in-memory engine");
        let onthefly = otf_engine.check_benchmarks(&benches);
        assert_eq!(verdicts(&materialised), verdicts(&onthefly));
        for (m, o) in materialised.benchmarks.iter().zip(&onthefly.benchmarks) {
            assert!(
                o.stats().dfa_transitions <= m.stats().dfa_transitions,
                "{}/{}: the walk derived more transitions than the complete builds",
                m.adt,
                m.library
            );
            assert_eq!(
                m.stats().product_states,
                0,
                "materialised runs must not report product states"
            );
        }
        let total_product = onthefly.stats().product_states;
        assert!(total_product > 0, "no benchmark exercised the product walk");
        // A second pass over the same benchmarks is answered from the memo hierarchy
        // (inclusion-verdict hits shadow shape hits for α-equal whole checks).
        let warm = otf_engine.check_benchmarks(&benches);
        assert_eq!(verdicts(&onthefly), verdicts(&warm));
        assert!(
            otf_engine.cache().stats().hits > 0,
            "the warm pass must hit the shared cache"
        );
    }

    #[test]
    fn submissions_stream_reports_and_reuse_the_pool() {
        let benches = fast_benches();
        let engine = Engine::new(EngineConfig {
            jobs: 2,
            ..EngineConfig::default()
        })
        .expect("in-memory engine");
        // First submission: consume the stream by hand and count every report.
        let mut handle = engine.submit(&benches);
        let expected_jobs: usize = benches.iter().map(|b| b.methods.len()).sum();
        assert_eq!(handle.job_count(), expected_jobs);
        let mut seen = vec![0usize; benches.len()];
        while let Some(job) = handle.next_report() {
            assert!(job.method < benches[job.bench].methods.len());
            seen[job.bench] += 1;
        }
        for (bench, &count) in benches.iter().zip(&seen) {
            assert_eq!(
                count,
                bench.methods.len(),
                "{}/{}",
                bench.adt,
                bench.library
            );
        }
        let first = handle.finish();
        // Second submission against the *same* engine: the persistent pool (and its
        // per-worker local tiers) serve it warm, with identical verdicts.
        let second = engine.check_benchmarks(&benches);
        assert_eq!(verdicts(&first), verdicts(&second));
        assert!(second.cache.hits > 0, "the pool must stay warm across runs");
    }

    #[test]
    fn concurrent_submissions_do_not_crosstalk() {
        let benches = fast_benches();
        let engine = Engine::new(EngineConfig {
            jobs: 2,
            ..EngineConfig::default()
        })
        .expect("in-memory engine");
        let baseline = Engine::new(EngineConfig::default())
            .expect("in-memory engine")
            .check_benchmarks(&benches);
        // Two batches in flight at once on one pool — the daemon's concurrent-client
        // shape. Each handle must see exactly its own reports.
        let (first, second) = std::thread::scope(|scope| {
            let a = scope.spawn(|| engine.check_benchmarks(&benches[..1]));
            let b = scope.spawn(|| engine.check_benchmarks(&benches[1..]));
            (a.join().expect("first run"), b.join().expect("second run"))
        });
        assert_eq!(verdicts(&first), verdicts(&baseline)[..1].to_vec());
        assert_eq!(verdicts(&second), verdicts(&baseline)[1..].to_vec());
        assert_eq!(
            first.benchmarks[0].reports.len(),
            benches[0].methods.len(),
            "a handle must receive every report of its own submission"
        );
    }

    #[test]
    fn disk_log_carries_verdicts_across_engines() {
        let mut path = std::env::temp_dir();
        path.push(format!("hat-engine-sched-{}.cache", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let benches = vec![hat_suite::find("Stack", "LinkedList").expect("configuration exists")];
        let cold = Engine::new(EngineConfig {
            jobs: 2,
            cache_path: Some(path.clone()),
            ..EngineConfig::default()
        })
        .expect("disk-backed engine")
        .check_benchmarks(&benches);
        let warm_engine = Engine::new(EngineConfig {
            jobs: 2,
            cache_path: Some(path.clone()),
            ..EngineConfig::default()
        })
        .expect("disk-backed engine");
        assert!(warm_engine.cache().stats().disk_loaded > 0);
        let warm = warm_engine.check_benchmarks(&benches);
        assert_eq!(verdicts(&cold), verdicts(&warm));
        assert!(warm.cache.hits > 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn cancel_drops_queued_jobs_and_keeps_completed_verdicts() {
        // One worker: the first submission occupies it, so the second is entirely
        // queued when the cancel lands.
        let engine = Engine::new(EngineConfig {
            jobs: 1,
            ..EngineConfig::default()
        })
        .expect("in-memory engine");
        let blocker = vec![hat_suite::find("ConnectedGraph", "Set").expect("configuration exists")];
        let victim = vec![hat_suite::find("Stack", "LinkedList").expect("configuration exists")];
        let blocker_handle = engine.submit(&blocker);
        let mut victim_handle = engine.submit(&victim);
        let dropped = victim_handle.cancel();
        assert!(dropped > 0, "the queued submission must have jobs to drop");
        assert_eq!(victim_handle.cancel(), 0, "cancel is idempotent");
        let cancelled_run = victim_handle.finish();
        assert_eq!(
            cancelled_run.cancelled + cancelled_run.benchmarks[0].reports.len(),
            victim[0].methods.len(),
            "every job is either cancelled or reported"
        );
        assert!(cancelled_run.was_cancelled());
        // The blocker is unaffected and still verdict-correct.
        let blocker_run = blocker_handle.finish();
        assert_eq!(
            verdict_mismatches("blocker", &blocker, &blocker_run.benchmarks),
            Vec::<String>::new()
        );
        assert_eq!(blocker_run.cancelled, 0);
        // The engine stays serviceable: resubmitting the cancelled work completes it.
        let retry = engine.check_benchmarks(&victim);
        assert_eq!(
            verdict_mismatches("retry", &victim, &retry.benchmarks),
            Vec::<String>::new()
        );
        assert_eq!(retry.cancelled, 0);
    }

    #[test]
    fn identical_inflight_jobs_are_deduped_across_submissions() {
        let benches = fast_benches();
        let engine = Engine::new(EngineConfig {
            jobs: 1,
            ..EngineConfig::default()
        })
        .expect("in-memory engine");
        // Submit the same batch twice back to back: the single worker is still on the
        // first batch, so the second subscribes to queued/running jobs instead of
        // queueing duplicates.
        let first_handle = engine.submit(&benches);
        let second_handle = engine.submit(&benches);
        let first = first_handle.finish();
        let second = second_handle.finish();
        assert_eq!(verdicts(&first), verdicts(&second));
        assert!(
            second.dedup_hits > 0,
            "an identical concurrent batch must subscribe, not re-run"
        );
        assert_eq!(engine.dedup_hits(), first.dedup_hits + second.dedup_hits);
        for (b, run) in benches.iter().zip(&second.benchmarks) {
            assert_eq!(run.reports.len(), b.methods.len());
        }
        assert_eq!(
            verdict_mismatches("second", &benches, &second.benchmarks),
            Vec::<String>::new()
        );
    }

    #[test]
    fn small_submission_is_not_starved_by_a_large_one() {
        // One worker and a large batch already queued: round-robin rotation must
        // interleave the small batch's jobs instead of appending them FIFO.
        let engine = Engine::new(EngineConfig {
            jobs: 1,
            ..EngineConfig::default()
        })
        .expect("in-memory engine");
        let small = vec![hat_suite::find("Stack", "LinkedList").expect("configuration exists")];
        let large: Vec<Benchmark> = hat_suite::all_benchmarks()
            .into_iter()
            .filter(|b| !(b.slow || (b.adt == "Stack" && b.library == "LinkedList")))
            .take(4)
            .collect();
        assert!(
            large.len() >= 3,
            "the suite must provide enough fast configs"
        );
        let large_handle = engine.submit(&large);
        let small_handle = engine.submit(&small);
        assert!(
            large_handle.job_count() > 2 * small_handle.job_count(),
            "the large batch must dominate the queue for the test to mean anything"
        );
        let (large_done, small_done) = std::thread::scope(|scope| {
            let a = scope.spawn(move || {
                let mut h = large_handle;
                while h.next_report().is_some() {}
                Instant::now()
            });
            let b = scope.spawn(move || {
                let mut h = small_handle;
                while h.next_report().is_some() {}
                Instant::now()
            });
            (a.join().expect("large run"), b.join().expect("small run"))
        });
        assert!(
            small_done < large_done,
            "fair rotation must complete the small submission before the large backlog"
        );
    }
}
