//! Reusable sweep execution: the work-stealing [`Pool`] and the
//! long-running [`Service`] job queue behind `piflab serve`.
//!
//! [`Pool`] owns the thread-count policy: construct one with the worker
//! count and run every indexed job set through [`Pool::run_indexed`], so
//! thread plumbing lives in one place.
//!
//! [`Service`] turns [`crate::run_spec`] into simulation-as-a-service: a
//! bounded job queue fed by [`Service::submit`] (which **blocks when the
//! queue is full** — backpressure, not unbounded buffering), drained by a
//! supervised pool of worker threads that execute each sweep on the
//! service's pool and result cache, delivering each result through its
//! [`SubmitHandle`]. [`Service::shutdown`] is graceful: already-queued
//! jobs finish, new submissions are refused (blocked submitters are
//! unblocked with a typed [`JobError::Rejected`]), and every thread is
//! joined before it returns.
//!
//! Failures are typed ([`JobError`]) and contained:
//!
//! * a sweep that panics fails **that job** ([`JobError::Failed`]);
//! * a job that outlives its own deadline ([`SweepJob::deadline`]) is
//!   failed with [`JobError::DeadlineExceeded`] by the supervisor's
//!   watchdog — it never blocks the queue, even while the worker is
//!   still stuck on it;
//! * a panic that escapes the job harness kills only one worker: the
//!   supervisor quarantines the poisoned job
//!   ([`JobError::WorkerPanicked`]) and restarts the worker.
//!
//! Every job counter and latency lives in one `pif_obs` registry: job
//! counters, per-job queue-wait and execution-latency histograms, and
//! cache hit/miss/corrupt and trace-hash memo gauges. Each job event
//! increments its handle before the job is delivered.
//! [`Service::render_metrics`] renders the registry as Prometheus text
//! (the daemon's `metrics` verb) and [`Service::stats`] reads the same
//! handles into a [`ServiceStats`] (the `stats` verb); the only counter
//! kept elsewhere is the queue's high-water mark, which only the queue
//! lock can compute. None of this feeds back into sweep results —
//! reports stay byte-identical.
//!
//! ```
//! use pif_lab::{registry, service::{Service, ServiceConfig, SweepJob}, Scale};
//!
//! let service = Service::start(ServiceConfig::default());
//! let handle = service
//!     .submit(SweepJob::new(registry::table1(), Scale::tiny()).smoke(true))
//!     .expect("queue open");
//! let outcome = handle.wait().expect("sweep ran");
//! assert_eq!(outcome.report.cells.len(), 6);
//! service.shutdown();
//! ```

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::cache::{CacheStats, ResultCache};
use crate::report::SweepReport;
use crate::scale::Scale;
use crate::spec::SweepSpec;
use crate::{RunOptions, SweepRunStats};

/// Number of worker threads to use by default: one per available core.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A scoped, work-stealing job pool with deterministic result merge.
///
/// Workers pull job indices from a shared atomic counter (the idle
/// worker steals the next unclaimed job, so an expensive job never
/// serializes the grid behind it) and deposit each result into its
/// index's slot. The merged output is ordered by job index —
/// **independent of thread count and schedule** — which is what makes
/// sweep reports byte-identical across `--threads` settings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    threads: usize,
}

impl Default for Pool {
    /// A pool with one worker per available core.
    fn default() -> Self {
        Pool::new(default_threads())
    }
}

impl Pool {
    /// A pool running jobs on `threads` workers (at least 1).
    pub fn new(threads: usize) -> Self {
        Pool {
            threads: threads.max(1),
        }
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `n_jobs` jobs on this pool's workers and returns the results
    /// ordered by job index.
    ///
    /// `f` is called with each job index exactly once. The assignment of
    /// jobs to workers is dynamic (first idle worker takes the next
    /// job), but the returned `Vec` is always
    /// `[f(0), f(1), …, f(n_jobs - 1)]`. A run with one worker runs its
    /// jobs in index order on the calling thread.
    ///
    /// # Panics
    ///
    /// Propagates the first panic of any job, with its own payload, once
    /// the running jobs finish; no further jobs start after it.
    pub fn run_indexed<R, F>(&self, n_jobs: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let threads = self.threads.min(n_jobs.max(1));
        if threads == 1 {
            // One worker: the calling thread itself, which keeps its
            // per-thread simulation state (`measure::with_worker_l2`)
            // across runs instead of a fresh thread building its own.
            return (0..n_jobs).map(f).collect();
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<R>>> = (0..n_jobs).map(|_| Mutex::new(None)).collect();
        let panicked = Mutex::new(None);
        std::thread::scope(|s| {
            let (next, slots, f, panicked) = (&next, &slots, &f, &panicked);
            for _ in 0..threads {
                s.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n_jobs {
                        break;
                    }
                    // Caught so the caller sees the job's own message
                    // rather than the scope's generic one.
                    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i))) {
                        Ok(result) => {
                            *slots[i].lock().expect("result slot poisoned") = Some(result)
                        }
                        Err(payload) => {
                            next.store(n_jobs, Ordering::Relaxed);
                            panicked
                                .lock()
                                .expect("panic slot poisoned")
                                .get_or_insert(payload);
                            break;
                        }
                    }
                });
            }
        });
        if let Some(payload) = panicked.into_inner().expect("panic slot poisoned") {
            std::panic::resume_unwind(payload);
        }
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot poisoned")
                    .expect("job completed")
            })
            .collect()
    }
}

/// Compact latency accounting: sample count, total, and maximum, in
/// microseconds, read off one of the service's latency histograms.
///
/// Integer-only so it stays `Eq` and renders exactly in the `piflab/1`
/// protocol; the mean is derived on demand by [`LatencySummary::mean_us`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencySummary {
    /// Recorded samples.
    pub count: u64,
    /// Sum of all samples in microseconds (wrapping, as the histogram's
    /// sum does).
    pub total_us: u64,
    /// Largest sample, in microseconds.
    pub max_us: u64,
}

impl LatencySummary {
    /// Mean sample in microseconds (0.0 when empty).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_us as f64 / self.count as f64
        }
    }
}

impl From<pif_obs::HistogramSnapshot> for LatencySummary {
    fn from(h: pif_obs::HistogramSnapshot) -> Self {
        LatencySummary {
            count: h.count(),
            total_us: h.sum,
            max_us: h.max,
        }
    }
}

/// Saturating microseconds of a [`Duration`], for latency counters.
pub(crate) fn duration_us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// Configuration of a [`Service`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Maximum queued (not yet running) jobs before
    /// [`Service::submit`] blocks.
    pub queue_depth: usize,
    /// Worker threads of the pool each sweep runs on.
    pub threads: usize,
    /// Service worker threads draining the queue concurrently. Each
    /// runs one job at a time on its own `threads`-wide pool; a panicked
    /// worker is restarted by the supervisor.
    pub workers: usize,
    /// Directory of the persistent result cache, if any.
    pub cache_dir: Option<std::path::PathBuf>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            queue_depth: 16,
            threads: default_threads(),
            workers: 1,
            cache_dir: None,
        }
    }
}

/// One sweep submission: a spec plus its run parameters.
#[derive(Debug, Clone)]
pub struct SweepJob {
    /// The grid to run.
    pub spec: SweepSpec,
    /// The scale to run it at.
    pub scale: Scale,
    /// Whether the report is marked as a smoke run.
    pub smoke: bool,
    /// Per-job deadline, measured from submission; `None` lets the job
    /// run indefinitely.
    pub deadline: Option<Duration>,
}

impl SweepJob {
    /// A job for `spec` at `scale` (non-smoke).
    pub fn new(spec: SweepSpec, scale: Scale) -> Self {
        SweepJob {
            spec,
            scale,
            smoke: false,
            deadline: None,
        }
    }

    /// Sets the smoke flag.
    #[must_use]
    pub fn smoke(mut self, smoke: bool) -> Self {
        self.smoke = smoke;
        self
    }

    /// Sets a per-job deadline (from submission to delivery).
    #[must_use]
    pub fn deadline(mut self, deadline: Option<Duration>) -> Self {
        self.deadline = deadline;
        self
    }
}

/// Typed failure of one submission.
///
/// Every way a job can fail maps to exactly one variant, and each
/// variant declares whether retrying the same submission can help
/// ([`JobError::retryable`]) — the bit `piflab submit` uses to decide
/// between backing off and giving up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The service refused the submission (shutting down).
    Rejected {
        /// Why the submission was refused.
        reason: String,
    },
    /// The job did not complete within its deadline.
    DeadlineExceeded {
        /// The deadline that was exceeded, in milliseconds.
        deadline_ms: u64,
    },
    /// The worker thread running the job died; the job was quarantined
    /// and the worker restarted.
    WorkerPanicked {
        /// What the supervisor observed.
        message: String,
    },
    /// The sweep itself failed (panicked or errored deterministically).
    Failed {
        /// The failure message.
        message: String,
    },
}

impl JobError {
    /// Stable wire token for this failure class (the `piflab/1` error
    /// frame's `kind` field).
    pub fn kind(&self) -> &'static str {
        match self {
            JobError::Rejected { .. } => "rejected",
            JobError::DeadlineExceeded { .. } => "deadline_exceeded",
            JobError::WorkerPanicked { .. } => "worker_panicked",
            JobError::Failed { .. } => "failed",
        }
    }

    /// Whether resubmitting the same job can plausibly succeed.
    ///
    /// Deadline and worker-loss failures are load- or fault-dependent,
    /// so retrying (with backoff) is sound; a rejected submission or a
    /// deterministic sweep failure will fail the same way again.
    pub fn retryable(&self) -> bool {
        matches!(
            self,
            JobError::DeadlineExceeded { .. } | JobError::WorkerPanicked { .. }
        )
    }
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Rejected { reason } => write!(f, "rejected: {reason}"),
            JobError::DeadlineExceeded { deadline_ms } => {
                write!(f, "deadline exceeded ({deadline_ms} ms)")
            }
            JobError::WorkerPanicked { message } => write!(f, "worker panicked: {message}"),
            JobError::Failed { message } => f.write_str(message),
        }
    }
}

impl std::error::Error for JobError {}

/// A finished sweep: the report plus how much of it came from the cache.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// The merged report (byte-identical to a direct [`crate::run_spec`]
    /// of the same job, whether or not cells came from the cache).
    pub report: SweepReport,
    /// Cells answered from the result cache.
    pub cached_cells: usize,
    /// Cells simulated fresh.
    pub executed_cells: usize,
}

#[derive(Debug, Default)]
struct SlotState {
    /// The delivered result, until `wait` consumes it.
    result: Option<Result<SweepOutcome, JobError>>,
    /// Set by the first (and only effective) delivery. Kept separate
    /// from `result` because `wait` takes the value out: a worker
    /// finishing a job the watchdog already timed out must still see
    /// "delivered" and stand down.
    delivered: bool,
}

type ResultSlot = Arc<(Mutex<SlotState>, Condvar)>;

/// The caller's side of one submission: blocks until the service worker
/// delivers the sweep's outcome.
#[derive(Debug, Clone)]
pub struct SubmitHandle {
    slot: ResultSlot,
}

impl SubmitHandle {
    fn new() -> Self {
        SubmitHandle {
            slot: Arc::new((Mutex::new(SlotState::default()), Condvar::new())),
        }
    }

    /// Claims the right to deliver this job's result; the first claimer
    /// wins and must follow up with [`SubmitHandle::fulfill`]. The
    /// split lets the deliverer update service counters *between* claim
    /// and fulfill, so a client unblocked by `wait` always observes its
    /// own job in the stats — while a late deliverer (a worker finishing
    /// a job the watchdog already timed out, say) gets `false` and must
    /// not double-count.
    fn try_claim(&self) -> bool {
        let (lock, _) = &*self.slot;
        let mut guard = lock.lock().expect("result slot poisoned");
        if guard.delivered {
            return false;
        }
        guard.delivered = true;
        true
    }

    /// Publishes the result of a claimed delivery and wakes waiters.
    fn fulfill(&self, result: Result<SweepOutcome, JobError>) {
        let (lock, cv) = &*self.slot;
        lock.lock().expect("result slot poisoned").result = Some(result);
        cv.notify_all();
    }

    /// Blocks until the job completes.
    ///
    /// # Errors
    ///
    /// The typed [`JobError`]: sweep failure, deadline overrun, worker
    /// loss, or shutdown rejection.
    pub fn wait(&self) -> Result<SweepOutcome, JobError> {
        let (lock, cv) = &*self.slot;
        let mut guard = lock.lock().expect("result slot poisoned");
        loop {
            if let Some(result) = guard.result.take() {
                return result;
            }
            guard = cv.wait(guard).expect("result slot poisoned");
        }
    }
}

/// Point-in-time counters of a [`Service`], read from its metrics
/// registry (see [`Service::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceStats {
    /// Jobs accepted by [`Service::submit`].
    pub submitted: u64,
    /// Jobs completed (delivered, successfully or not).
    pub completed: u64,
    /// High-water mark of the queue depth (for backpressure asserts).
    pub max_queue_depth: usize,
    /// Time executed jobs spent queued before a worker picked them up.
    pub queue_wait: LatencySummary,
    /// Wall-clock execution time of executed jobs.
    pub exec: LatencySummary,
    /// Jobs failed with [`JobError::DeadlineExceeded`].
    pub deadline_exceeded: u64,
    /// Worker threads the supervisor restarted after a panic.
    pub worker_restarts: u64,
    /// Jobs quarantined because their worker died mid-run
    /// ([`JobError::WorkerPanicked`]).
    pub quarantined: u64,
    /// Result-cache counters, when a cache is attached.
    pub cache: Option<CacheStats>,
}

#[derive(Debug)]
struct QueuedJob {
    job: SweepJob,
    handle: SubmitHandle,
    enqueued: Instant,
}

/// What a worker is currently executing, visible to the supervisor's
/// deadline watchdog and worker-loss quarantine.
#[derive(Debug)]
struct RunningJob {
    handle: SubmitHandle,
    spec: String,
    enqueued: Instant,
    deadline: Option<Duration>,
}

#[derive(Debug)]
struct QueueState {
    queue: VecDeque<QueuedJob>,
    closed: bool,
    /// High-water mark of `queue.len()`; every other counter lives in
    /// [`ServiceMetrics`].
    max_depth: usize,
}

/// The service's counter store: one `pif_obs` registry plus the
/// pre-registered handles that job events increment and
/// [`Service::stats`] reads.
#[derive(Debug)]
struct ServiceMetrics {
    registry: pif_obs::Registry,
    queue_wait_us: pif_obs::Histogram,
    exec_us: pif_obs::Histogram,
    jobs_submitted: pif_obs::Counter,
    jobs_completed: pif_obs::Counter,
    jobs_failed: pif_obs::Counter,
    deadline_exceeded: pif_obs::Counter,
    worker_restarts: pif_obs::Counter,
    jobs_quarantined: pif_obs::Counter,
    cache_hits: pif_obs::Gauge,
    cache_misses: pif_obs::Gauge,
    cache_corrupt: pif_obs::Gauge,
    cache_quarantined: pif_obs::Gauge,
    cache_hashes_derived: pif_obs::Gauge,
    cache_hash_memo_hits: pif_obs::Gauge,
}

impl ServiceMetrics {
    fn new() -> Self {
        let registry = pif_obs::Registry::new();
        ServiceMetrics {
            queue_wait_us: registry.histogram(
                "pif_service_queue_wait_us",
                "Microseconds jobs spent queued before execution",
            ),
            exec_us: registry.histogram(
                "pif_service_exec_us",
                "Wall-clock microseconds per executed job",
            ),
            jobs_submitted: registry.counter(
                "pif_service_jobs_submitted",
                "Jobs accepted into the service queue",
            ),
            jobs_completed: registry.counter(
                "pif_service_jobs_completed",
                "Jobs delivered (successfully or not)",
            ),
            jobs_failed: registry
                .counter("pif_service_jobs_failed", "Jobs that panicked or errored"),
            deadline_exceeded: registry.counter(
                "pif_service_deadline_exceeded",
                "Jobs failed for outliving their deadline",
            ),
            worker_restarts: registry.counter(
                "pif_service_worker_restarts",
                "Worker threads restarted after a panic",
            ),
            jobs_quarantined: registry.counter(
                "pif_service_jobs_quarantined",
                "Jobs quarantined because their worker died mid-run",
            ),
            cache_hits: registry.gauge("pif_service_cache_hits", "Result-cache lookup hits"),
            cache_misses: registry.gauge("pif_service_cache_misses", "Result-cache lookup misses"),
            cache_corrupt: registry.gauge(
                "pif_service_cache_corrupt",
                "Result-cache entries that existed but failed validation",
            ),
            cache_quarantined: registry.gauge(
                "pif_service_cache_quarantined",
                "Corrupt result-cache entries moved to the quarantine directory",
            ),
            cache_hashes_derived: registry.gauge(
                "pif_service_cache_hashes_derived",
                "Trace hashes derived by generating the trace (memo misses)",
            ),
            cache_hash_memo_hits: registry.gauge(
                "pif_service_cache_hash_memo_hits",
                "Trace hashes answered by the result cache's in-memory memo",
            ),
            registry,
        }
    }

    /// Copies the cache's external counters into the registry's gauges
    /// so a scrape sees current values.
    fn sync_cache(&self, cache: Option<&ResultCache>) {
        if let Some(stats) = cache.map(ResultCache::stats) {
            self.cache_hits.set(stats.hits);
            self.cache_misses.set(stats.misses);
            self.cache_corrupt.set(stats.corrupt);
            self.cache_quarantined.set(stats.quarantined);
            self.cache_hashes_derived.set(stats.hashes_derived);
            self.cache_hash_memo_hits.set(stats.hash_memo_hits);
        }
    }
}

#[derive(Debug)]
struct Inner {
    state: Mutex<QueueState>,
    not_empty: Condvar,
    not_full: Condvar,
    queue_depth: usize,
    pool_threads: usize,
    /// Per-worker slot holding the job that worker is executing right
    /// now; the supervisor reads these for deadline enforcement and
    /// quarantine.
    running: Vec<Mutex<Option<RunningJob>>>,
    cache: Option<ResultCache>,
    metrics: ServiceMetrics,
}

impl Inner {
    fn lock_state(&self) -> std::sync::MutexGuard<'_, QueueState> {
        self.state.lock().expect("service state poisoned")
    }

    fn lock_running(&self, w: usize) -> std::sync::MutexGuard<'_, Option<RunningJob>> {
        // A worker killed by an injected panic can die while its slot
        // guard is live; the supervisor must still be able to read the
        // slot to quarantine the job.
        match self.running[w].lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

/// A long-running sweep executor with a bounded job queue.
///
/// See the module docs for the lifecycle; `piflab serve` wraps one of
/// these in the line-delimited JSON protocol of [`crate::protocol`].
#[derive(Debug)]
pub struct Service {
    inner: Arc<Inner>,
    supervisor: Option<JoinHandle<()>>,
}

impl Service {
    /// Starts the worker pool and its supervisor.
    ///
    /// # Panics
    ///
    /// Panics if `config.cache_dir` names a directory that cannot be
    /// created (a daemon that silently ran uncached would defeat the
    /// point of pointing it at a cache).
    pub fn start(config: ServiceConfig) -> Self {
        let cache = config.cache_dir.map(|dir| {
            ResultCache::open(&dir)
                .unwrap_or_else(|e| panic!("cannot open cache at {}: {e}", dir.display()))
        });
        let workers = config.workers.max(1);
        let inner = Arc::new(Inner {
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                closed: false,
                max_depth: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            queue_depth: config.queue_depth.max(1),
            pool_threads: config.threads.max(1),
            running: (0..workers).map(|_| Mutex::new(None)).collect(),
            cache,
            metrics: ServiceMetrics::new(),
        });
        let supervisor_inner = Arc::clone(&inner);
        let supervisor = std::thread::Builder::new()
            .name("pifd-supervisor".into())
            .spawn(move || supervisor_loop(&supervisor_inner, workers))
            .expect("spawn service supervisor");
        Service {
            inner,
            supervisor: Some(supervisor),
        }
    }

    /// Enqueues a job, **blocking while the queue is at capacity**
    /// (backpressure: a flood of submissions throttles the submitters,
    /// it does not balloon daemon memory).
    ///
    /// # Errors
    ///
    /// [`JobError::Rejected`] if the service is shutting down — including
    /// a submitter that was *blocked on backpressure* when shutdown
    /// began: `close` wakes it and it is refused, never deadlocked.
    pub fn submit(&self, job: SweepJob) -> Result<SubmitHandle, JobError> {
        let mut state = self.inner.lock_state();
        while !state.closed && state.queue.len() >= self.inner.queue_depth {
            state = self
                .inner
                .not_full
                .wait(state)
                .expect("service state poisoned");
        }
        if state.closed {
            return Err(JobError::Rejected {
                reason: "service is shut down".to_string(),
            });
        }
        let handle = SubmitHandle::new();
        pif_obs::log::debug(
            "pif_lab::service",
            "job submitted",
            &[("spec", &job.spec.name), ("queued", &state.queue.len())],
        );
        state.queue.push_back(QueuedJob {
            job,
            handle: handle.clone(),
            enqueued: Instant::now(),
        });
        state.max_depth = state.max_depth.max(state.queue.len());
        self.inner.metrics.jobs_submitted.inc();
        self.inner.not_empty.notify_one();
        Ok(handle)
    }

    /// Current counters: a view of the metrics registry that
    /// [`Service::render_metrics`] renders, plus the queue's high-water
    /// mark.
    pub fn stats(&self) -> ServiceStats {
        let m = &self.inner.metrics;
        ServiceStats {
            submitted: m.jobs_submitted.get(),
            completed: m.jobs_completed.get(),
            max_queue_depth: self.inner.lock_state().max_depth,
            queue_wait: m.queue_wait_us.snapshot().into(),
            exec: m.exec_us.snapshot().into(),
            deadline_exceeded: m.deadline_exceeded.get(),
            worker_restarts: m.worker_restarts.get(),
            quarantined: m.jobs_quarantined.get(),
            cache: self.inner.cache.as_ref().map(ResultCache::stats),
        }
    }

    /// The attached result cache, if any.
    pub fn cache(&self) -> Option<&ResultCache> {
        self.inner.cache.as_ref()
    }

    /// Renders the service's metrics registry as Prometheus text, syncing
    /// the cache gauges first so the scrape is current.
    pub fn render_metrics(&self) -> String {
        self.inner.metrics.sync_cache(self.inner.cache.as_ref());
        pif_obs::render_prometheus(&self.inner.metrics.registry)
    }

    /// Graceful shutdown: refuses new submissions (and unblocks any
    /// submitter stuck on backpressure with a typed rejection), drains
    /// every queued job, joins the workers and supervisor, and returns
    /// the final counters.
    pub fn shutdown(mut self) -> ServiceStats {
        self.close();
        if let Some(supervisor) = self.supervisor.take() {
            supervisor.join().expect("service supervisor panicked");
        }
        self.stats()
    }

    fn close(&self) {
        let mut state = self.inner.lock_state();
        state.closed = true;
        self.inner.not_empty.notify_all();
        self.inner.not_full.notify_all();
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.close();
        if let Some(supervisor) = self.supervisor.take() {
            let _ = supervisor.join();
        }
    }
}

/// How often the supervisor scans for dead workers and expired
/// deadlines. Bounds how late a deadline can be observed.
const SUPERVISOR_POLL: Duration = Duration::from_millis(5);

fn spawn_worker(inner: &Arc<Inner>, w: usize) -> JoinHandle<()> {
    let worker_inner = Arc::clone(inner);
    std::thread::Builder::new()
        .name(format!("pifd-worker-{w}"))
        .spawn(move || worker_loop(&worker_inner, w))
        .expect("spawn service worker")
}

/// Owns the worker pool: spawns it, enforces deadlines on running jobs,
/// quarantines jobs whose worker died, restarts dead workers, and joins
/// everything on shutdown.
fn supervisor_loop(inner: &Arc<Inner>, workers: usize) {
    let mut pool: Vec<Option<JoinHandle<()>>> =
        (0..workers).map(|w| Some(spawn_worker(inner, w))).collect();
    loop {
        // Deadline watchdog: a stuck job is failed *while its worker is
        // still running it* — the submitter unblocks now, the worker's
        // eventual result is discarded by the first-delivery-wins slot.
        for w in 0..workers {
            let expired = {
                let guard = inner.lock_running(w);
                guard.as_ref().and_then(|running| {
                    running.deadline.and_then(|deadline| {
                        (running.enqueued.elapsed() >= deadline)
                            .then(|| (running.handle.clone(), deadline, running.spec.clone()))
                    })
                })
            };
            if let Some((handle, deadline, spec)) = expired {
                deliver_deadline(inner, &handle, deadline, &spec);
            }
        }
        // Worker reaper: a panicked worker poisons only the job it was
        // running; the job is quarantined and the worker replaced.
        for (w, slot) in pool.iter_mut().enumerate() {
            let finished = slot.as_ref().is_some_and(JoinHandle::is_finished);
            if !finished {
                continue;
            }
            let handle = slot.take().expect("checked above");
            let panicked = handle.join().is_err();
            if !panicked {
                // Clean exit: only happens once the queue is closed and
                // drained; leave the slot empty.
                continue;
            }
            let poisoned = inner.lock_running(w).take();
            if let Some(running) = poisoned {
                let err = JobError::WorkerPanicked {
                    message: format!(
                        "worker {w} died while running {}; job quarantined",
                        running.spec
                    ),
                };
                pif_obs::log::error(
                    "pif_lab::service",
                    "job quarantined",
                    &[("spec", &running.spec), ("worker", &w)],
                );
                if running.handle.try_claim() {
                    inner.metrics.jobs_completed.inc();
                    inner.metrics.jobs_failed.inc();
                    inner.metrics.jobs_quarantined.inc();
                    running.handle.fulfill(Err(err));
                }
            }
            let restart = {
                let state = inner.lock_state();
                !state.closed || !state.queue.is_empty()
            };
            if restart {
                pif_obs::log::warn("pif_lab::service", "worker restarted", &[("worker", &w)]);
                inner.metrics.worker_restarts.inc();
                *slot = Some(spawn_worker(inner, w));
            }
        }
        if pool.iter().all(Option::is_none) {
            // Every worker exited (cleanly, or panicked with nothing
            // left to drain): reject whatever the queue still holds and
            // stop supervising.
            let leftovers: Vec<QueuedJob> = {
                let mut state = inner.lock_state();
                if !state.closed {
                    // All workers panicked while the service is live
                    // and the queue is empty; respawn the pool.
                    drop(state);
                    for (w, slot) in pool.iter_mut().enumerate() {
                        inner.metrics.worker_restarts.inc();
                        *slot = Some(spawn_worker(inner, w));
                    }
                    continue;
                }
                state.queue.drain(..).collect()
            };
            for entry in leftovers {
                if entry.handle.try_claim() {
                    inner.metrics.jobs_completed.inc();
                    inner.metrics.jobs_failed.inc();
                    entry.handle.fulfill(Err(JobError::Rejected {
                        reason: "service shut down before the job ran".to_string(),
                    }));
                }
            }
            return;
        }
        std::thread::sleep(SUPERVISOR_POLL);
    }
}

fn deliver_deadline(inner: &Inner, handle: &SubmitHandle, deadline: Duration, spec: &str) {
    let deadline_ms = u64::try_from(deadline.as_millis()).unwrap_or(u64::MAX);
    if !handle.try_claim() {
        return;
    }
    pif_obs::log::warn(
        "pif_lab::service",
        "job deadline exceeded",
        &[("spec", &spec), ("deadline_ms", &deadline_ms)],
    );
    inner.metrics.jobs_completed.inc();
    inner.metrics.jobs_failed.inc();
    inner.metrics.deadline_exceeded.inc();
    handle.fulfill(Err(JobError::DeadlineExceeded { deadline_ms }));
}

fn worker_loop(inner: &Inner, w: usize) {
    loop {
        let QueuedJob {
            job,
            handle,
            enqueued,
        } = {
            let mut state = inner.lock_state();
            loop {
                if let Some(entry) = state.queue.pop_front() {
                    inner.not_full.notify_one();
                    break entry;
                }
                if state.closed {
                    return;
                }
                state = inner.not_empty.wait(state).expect("service state poisoned");
            }
        };
        // Expired while still queued: fail it typed without burning a
        // pool run (the cheapest way a deadline "never blocks the
        // queue").
        if let Some(dl) = job.deadline {
            if enqueued.elapsed() >= dl {
                deliver_deadline(inner, &handle, dl, job.spec.name);
                continue;
            }
        }
        *inner.lock_running(w) = Some(RunningJob {
            handle: handle.clone(),
            spec: job.spec.name.to_string(),
            enqueued,
            deadline: job.deadline,
        });
        // Sits outside the catch_unwind on purpose: an injected panic
        // here kills this worker thread, exercising the supervisor's
        // quarantine-and-restart path.
        pif_fail::fail_point!("service.worker.panic");
        let wait_us = duration_us(enqueued.elapsed());
        let started = Instant::now();
        let result = run_one(inner, &job);
        let exec_us = duration_us(started.elapsed());
        *inner.lock_running(w) = None;
        if !handle.try_claim() {
            // The watchdog already failed this job; its accounting is
            // done. Drop the late result.
            continue;
        }
        match &result {
            Ok(outcome) => pif_obs::log::info(
                "pif_lab::service",
                "job completed",
                &[
                    ("spec", &job.spec.name),
                    ("queue_wait_us", &wait_us),
                    ("exec_us", &exec_us),
                    ("cached_cells", &outcome.cached_cells),
                    ("executed_cells", &outcome.executed_cells),
                ],
            ),
            Err(e) => {
                inner.metrics.jobs_failed.inc();
                pif_obs::log::error("pif_lab::service", "job failed", &[("error", e)]);
            }
        }
        // Counters update before delivery, so a client that waited on
        // the handle observes its own job in the stats.
        inner.metrics.queue_wait_us.record(wait_us);
        inner.metrics.exec_us.record(exec_us);
        inner.metrics.jobs_completed.inc();
        handle.fulfill(result);
    }
}

fn run_one(inner: &Inner, job: &SweepJob) -> Result<SweepOutcome, JobError> {
    // An injected `error` here models a deterministic execution failure:
    // typed, non-retryable, worker survives.
    pif_fail::fail_point!("service.job.exec", |e: pif_fail::FailError| Err(
        JobError::Failed {
            message: e.to_string()
        }
    ));
    // A panicking sweep (e.g. a spec naming an unknown workload) fails
    // that submission, not the daemon.
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        // Inside the harness: an injected `panic` is caught (job fails,
        // worker survives); an injected `delay` makes the job overstay
        // its deadline for the watchdog to catch.
        pif_fail::fail_point!("service.job.run");
        let mut opts = RunOptions::new()
            .scale(job.scale)
            .threads(inner.pool_threads)
            .smoke(job.smoke);
        if let Some(cache) = &inner.cache {
            opts = opts.cache(cache);
        }
        crate::run_spec_stats(&job.spec, &opts)
    }));
    match run {
        Ok((
            report,
            SweepRunStats {
                cached_cells,
                executed_cells,
            },
        )) => Ok(SweepOutcome {
            report,
            cached_cells,
            executed_cells,
        }),
        Err(panic) => {
            let msg = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("sweep panicked");
            Err(JobError::Failed {
                message: format!("sweep {} failed: {msg}", job.spec.name),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry;

    #[test]
    fn pool_results_ordered_by_index_for_any_thread_count() {
        for threads in [1, 2, 3, 8, 64] {
            let out = Pool::new(threads).run_indexed(17, |i| i * i);
            assert_eq!(out, (0..17).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn pool_zero_jobs_is_fine() {
        let out: Vec<u32> = Pool::new(4).run_indexed(0, |_| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn latency_summary_folds_and_means() {
        assert_eq!(LatencySummary::default().mean_us(), 0.0);
        let h = pif_obs::Histogram::new();
        assert_eq!(
            LatencySummary::from(h.snapshot()),
            LatencySummary::default()
        );
        h.record(10);
        h.record(30);
        let s = LatencySummary::from(h.snapshot());
        assert_eq!(
            s,
            LatencySummary {
                count: 2,
                total_us: 40,
                max_us: 30
            }
        );
        assert_eq!(s.mean_us(), 20.0);
    }

    #[test]
    fn service_latency_and_metrics_cover_completed_jobs() {
        let service = Service::start(ServiceConfig {
            queue_depth: 4,
            threads: 2,
            ..ServiceConfig::default()
        });
        for _ in 0..2 {
            service
                .submit(SweepJob::new(registry::table1(), Scale::tiny()).smoke(true))
                .expect("queue open")
                .wait()
                .expect("job ran");
        }
        let stats = service.stats();
        assert_eq!(stats.queue_wait.count, 2);
        assert_eq!(stats.exec.count, 2);
        assert!(stats.exec.max_us <= stats.exec.total_us);

        let text = service.render_metrics();
        pif_obs::validate_prometheus(&text).expect("service exposition must validate");
        assert!(text.contains("# TYPE pif_service_exec_us histogram"));
        assert!(text.contains("pif_service_jobs_completed 2"));
        service.shutdown();
    }

    /// The value of the unlabelled sample `name` in Prometheus text.
    fn sample(text: &str, name: &str) -> u64 {
        text.lines()
            .find_map(|line| line.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
            .unwrap_or_else(|| panic!("no sample {name} in:\n{text}"))
    }

    #[test]
    fn stats_and_metrics_read_one_store() {
        let service = Service::start(ServiceConfig {
            queue_depth: 4,
            threads: 1,
            ..ServiceConfig::default()
        });
        let bad = crate::SweepSpec::new("bad", "bad", crate::Measure::Static)
            .with_workloads(vec!["No-Such-Workload"]);
        let jobs = [
            SweepJob::new(registry::table1(), Scale::tiny()).smoke(true),
            SweepJob::new(bad, Scale::tiny()).smoke(true),
            SweepJob::new(registry::table1(), Scale::tiny())
                .smoke(true)
                .deadline(Some(Duration::ZERO)),
        ];
        let handles: Vec<_> = jobs
            .into_iter()
            .map(|job| service.submit(job).expect("queue open"))
            .collect();
        handles[0].wait().expect("good job ran");
        let failed = handles[1].wait().unwrap_err();
        assert!(matches!(failed, JobError::Failed { .. }), "{failed}");
        let expired = handles[2].wait().unwrap_err();
        assert_eq!(expired, JobError::DeadlineExceeded { deadline_ms: 0 });

        let stats = service.stats();
        assert_eq!(stats.submitted, 3);
        assert_eq!(stats.completed, 3);
        assert_eq!(stats.deadline_exceeded, 1);
        assert_eq!(stats.exec.count, 2, "the expired job never ran");
        let text = service.render_metrics();
        assert_eq!(sample(&text, "pif_service_jobs_submitted"), stats.submitted);
        assert_eq!(sample(&text, "pif_service_jobs_completed"), stats.completed);
        assert_eq!(
            sample(&text, "pif_service_deadline_exceeded"),
            stats.deadline_exceeded
        );
        assert_eq!(sample(&text, "pif_service_exec_us_count"), stats.exec.count);
        assert_eq!(
            sample(&text, "pif_service_exec_us_sum"),
            stats.exec.total_us
        );
        assert_eq!(sample(&text, "pif_service_jobs_failed"), 2);
        service.shutdown();
    }

    #[test]
    fn service_runs_jobs_and_shuts_down() {
        let service = Service::start(ServiceConfig {
            queue_depth: 2,
            threads: 2,
            ..ServiceConfig::default()
        });
        let handles: Vec<_> = (0..3)
            .map(|_| {
                service
                    .submit(SweepJob::new(registry::table1(), Scale::tiny()).smoke(true))
                    .expect("queue open")
            })
            .collect();
        for h in &handles {
            let outcome = h.wait().expect("job ran");
            assert_eq!(outcome.report.cells.len(), 6);
            assert_eq!(outcome.cached_cells, 0, "no cache attached");
        }
        let stats = service.shutdown();
        assert_eq!(stats.submitted, 3);
        assert_eq!(stats.completed, 3);
        assert!(stats.max_queue_depth <= 2);
    }

    #[test]
    fn shutdown_drains_queued_jobs() {
        let service = Service::start(ServiceConfig {
            queue_depth: 8,
            threads: 1,
            ..ServiceConfig::default()
        });
        let handles: Vec<_> = (0..4)
            .map(|_| {
                service
                    .submit(SweepJob::new(registry::table1(), Scale::tiny()).smoke(true))
                    .expect("queue open")
            })
            .collect();
        let stats = service.shutdown();
        assert_eq!(stats.completed, 4, "queued jobs drained before join");
        for h in handles {
            h.wait().expect("drained job delivered");
        }
    }

    #[test]
    fn submit_after_shutdown_is_refused() {
        let service = Service::start(ServiceConfig::default());
        service.close();
        let err = service
            .submit(SweepJob::new(registry::table1(), Scale::tiny()))
            .unwrap_err();
        assert!(matches!(err, JobError::Rejected { .. }), "{err}");
    }

    #[test]
    fn failing_job_reports_error_without_killing_worker() {
        let service = Service::start(ServiceConfig {
            queue_depth: 4,
            threads: 1,
            ..ServiceConfig::default()
        });
        let bad = crate::SweepSpec::new("bad", "bad", crate::Measure::Static)
            .with_workloads(vec!["No-Such-Workload"]);
        let h_bad = service
            .submit(SweepJob::new(bad, Scale::tiny()).smoke(true))
            .unwrap();
        let h_ok = service
            .submit(SweepJob::new(registry::table1(), Scale::tiny()).smoke(true))
            .unwrap();
        let err = h_bad.wait().unwrap_err();
        assert!(matches!(err, JobError::Failed { .. }), "{err}");
        assert_eq!(err.kind(), "failed");
        assert!(!err.retryable());
        h_ok.wait().expect("worker survived the panic");
        service.shutdown();
    }

    #[test]
    fn job_error_kinds_and_retryability() {
        let cases: [(JobError, &str, bool); 4] = [
            (
                JobError::Rejected {
                    reason: "closed".into(),
                },
                "rejected",
                false,
            ),
            (
                JobError::DeadlineExceeded { deadline_ms: 50 },
                "deadline_exceeded",
                true,
            ),
            (
                JobError::WorkerPanicked {
                    message: "gone".into(),
                },
                "worker_panicked",
                true,
            ),
            (
                JobError::Failed {
                    message: "boom".into(),
                },
                "failed",
                false,
            ),
        ];
        for (err, kind, retryable) in cases {
            assert_eq!(err.kind(), kind);
            assert_eq!(err.retryable(), retryable, "{kind}");
            assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    fn expired_deadline_fails_typed_without_blocking_the_queue() {
        let service = Service::start(ServiceConfig {
            queue_depth: 4,
            threads: 1,
            ..ServiceConfig::default()
        });
        // A zero deadline is already expired at dequeue: the job must
        // fail typed (and deterministically — no watchdog race), and the
        // queue must keep flowing for the unconstrained job behind it.
        let h_dead = service
            .submit(
                SweepJob::new(registry::table1(), Scale::tiny())
                    .smoke(true)
                    .deadline(Some(Duration::ZERO)),
            )
            .unwrap();
        let h_ok = service
            .submit(SweepJob::new(registry::table1(), Scale::tiny()).smoke(true))
            .unwrap();
        let err = h_dead.wait().unwrap_err();
        assert_eq!(err, JobError::DeadlineExceeded { deadline_ms: 0 });
        assert!(err.retryable());
        h_ok.wait().expect("queue flowed past the dead job");
        let stats = service.shutdown();
        assert_eq!(stats.deadline_exceeded, 1);
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.exec.count, 1, "dead job never burned a pool run");
    }

    #[test]
    fn shutdown_unblocks_blocked_submitter_with_typed_rejection() {
        // The satellite regression: a submitter blocked on backpressure
        // when shutdown begins must be woken and refused, not
        // deadlocked.
        let service = Arc::new(Service::start(ServiceConfig {
            queue_depth: 1,
            threads: 1,
            ..ServiceConfig::default()
        }));
        // One job runs, one sits in the single queue slot; the third
        // submit blocks on backpressure (or, if the worker drains fast,
        // lands after close and is refused — both are the typed path).
        let _running = service
            .submit(SweepJob::new(registry::table1(), Scale::tiny()).smoke(true))
            .unwrap();
        let _queued = service
            .submit(SweepJob::new(registry::table1(), Scale::tiny()).smoke(true))
            .unwrap();
        let submitter = {
            let service = Arc::clone(&service);
            std::thread::spawn(move || {
                service.submit(SweepJob::new(registry::table1(), Scale::tiny()).smoke(true))
            })
        };
        // Give the submitter time to reach the backpressure wait.
        std::thread::sleep(Duration::from_millis(20));
        service.close();
        let result = submitter.join().expect("submitter must return, not hang");
        match result {
            Ok(handle) => {
                // Raced in before close: the job either drains or is
                // rejected by the supervisor — either way wait()
                // returns.
                let _ = handle.wait();
            }
            Err(err) => assert!(matches!(err, JobError::Rejected { .. }), "{err}"),
        }
        // Drain fully so drop is clean.
        drop(service);
    }
}
