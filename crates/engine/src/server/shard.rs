//! Fingerprint-sharded worker pool: each shard owns one [`Engine`] (its
//! own LRU and disk-cache segment), a bounded admission queue, and one
//! worker thread.
//!
//! # Why sharding by fingerprint
//!
//! Routing `fingerprint % n_shards` gives every fingerprint a *home
//! shard*: its cached result lives in exactly one LRU and one disk
//! segment (no cross-shard coherence, no global lock), and two concurrent
//! requests for the same scenario always meet at the same shard — which
//! is what makes cross-request dedup a per-shard map instead of a
//! distributed problem.
//!
//! # Admission control
//!
//! A request is admitted, joined, or shed, decided under the shard's
//! waiter lock:
//!
//! * **joined** — the fingerprint is already queued or solving here; the
//!   caller's reply channel is appended to the in-flight entry and no new
//!   work is created (`serve_dedup_joins`).
//! * **admitted** — room in the bounded queue; the job is enqueued with
//!   its cancellation token (`serve_accepted`).
//! * **shed** — the queue is full; the caller gets a `retry_after_ms`
//!   hint derived from the queue depth and the shard's EWMA service time
//!   (`serve_shed`). Nothing is queued, so memory stays bounded under
//!   any overload.
//!
//! # Failure containment
//!
//! The worker wraps every solve in `catch_unwind`: a panicking request
//! produces an [`ShardOutcome::Panicked`] reply (the daemon answers
//! `{"error":{"code":"internal"}}`), bumps `serve_worker_panics`, and the
//! shard keeps serving. Disk-cache flush failures are logged and never
//! fail the request that solved successfully.

use std::collections::HashMap;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use vstack_obs::{log_warn, warn_once};
use vstack_sparse::CancelToken;

use crate::engine::{Engine, EngineConfig, EngineError, QueryResult};
use crate::request::ScenarioRequest;
use crate::server::queue::{BoundedQueue, Popped, PushError};
use crate::server::telemetry::{FlightOutcome, PoolTelemetry, RequestCtx, RequestTelemetry};

/// Configuration for a [`ShardPool`].
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Worker shard count (minimum 1).
    pub shards: usize,
    /// Bounded queue capacity per shard; the admission-control knob.
    pub queue_capacity: usize,
    /// LRU entries per shard.
    pub lru_capacity: usize,
    /// Disk-cache root; each shard owns the `shard-NN/` segment under it.
    pub cache_dir: Option<PathBuf>,
    /// Whether solves may warm-start from cached neighbours.
    pub warm_start: bool,
    /// Where flight-recorder dumps land; `None` disables dumping (the
    /// in-memory ring still records).
    pub flight_dir: Option<PathBuf>,
    /// SLO latency threshold for the windowed histograms, microseconds
    /// (judged at [`crate::server::telemetry::SLO_TARGET`]).
    pub slo_us: u64,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            shards: 4,
            queue_capacity: 32,
            lru_capacity: 256,
            cache_dir: None,
            warm_start: true,
            flight_dir: None,
            slo_us: 250_000,
        }
    }
}

/// Terminal reply for one admitted or joined request. Each carries the
/// job's one record, as the pool recorded it (on a dedup join: the
/// leader's).
#[derive(Debug, Clone)]
pub enum ShardOutcome {
    /// The solve ran (or was answered from cache).
    Done(Result<QueryResult, EngineError>, RequestTelemetry),
    /// The solve panicked; the shard survived and the request did not.
    Panicked(RequestTelemetry),
    /// The job was shed from the queue during a non-draining shutdown.
    Drained(RequestTelemetry),
}

/// What admission control decided for a submission.
pub enum Admission {
    /// Admitted as new work; await the outcome on the receiver.
    Queued(mpsc::Receiver<ShardOutcome>),
    /// Joined an identical in-flight fingerprint; same receiver contract.
    Joined(mpsc::Receiver<ShardOutcome>),
    /// Shed by admission control: retry after the hinted backoff.
    Shed {
        /// Suggested client backoff, milliseconds.
        retry_after_ms: u64,
    },
    /// The pool is shutting down and accepts no new work.
    Closed,
}

/// One queued unit of work.
struct Job {
    fingerprint: u64,
    request: ScenarioRequest,
    cancel: CancelToken,
    ctx: RequestCtx,
}

/// Reply channels of every request waiting on one in-flight fingerprint.
/// Each carries exactly one outcome, so each is a one-slot channel,
/// allocated when its request is submitted: the worker's send neither
/// allocates nor blocks.
type WaiterMap = Mutex<HashMap<u64, Vec<mpsc::SyncSender<ShardOutcome>>>>;

struct Shard {
    queue: Arc<BoundedQueue<Job>>,
    waiters: Arc<WaiterMap>,
    /// EWMA of per-job service time, microseconds — the basis of the
    /// `retry_after_ms` hint.
    ewma_service_us: Arc<AtomicU64>,
    /// Taken (once) by [`ShardPool::shutdown`]; behind a mutex so shutdown
    /// works through a shared reference and is idempotent.
    worker: Mutex<Option<thread::JoinHandle<()>>>,
}

/// The fingerprint-sharded worker pool.
pub struct ShardPool {
    shards: Vec<Shard>,
    telemetry: Arc<PoolTelemetry>,
}

impl ShardPool {
    /// Builds the shards and starts one worker thread per shard.
    ///
    /// # Errors
    ///
    /// Propagates disk-cache segment creation failures.
    pub fn start(config: &ShardConfig) -> io::Result<ShardPool> {
        let n = config.shards.max(1);
        let telemetry = Arc::new(PoolTelemetry::new(
            n,
            config.slo_us,
            config.flight_dir.clone(),
        ));
        let mut shards = Vec::with_capacity(n);
        for i in 0..n {
            let engine_config = EngineConfig {
                lru_capacity: config.lru_capacity,
                cache_dir: config
                    .cache_dir
                    .as_ref()
                    .map(|d| d.join(format!("shard-{i:02}"))),
                warm_start: config.warm_start,
            };
            let engine = Engine::new(engine_config)?;
            let queue = Arc::new(BoundedQueue::new(config.queue_capacity));
            let waiters: Arc<WaiterMap> = Arc::new(Mutex::new(HashMap::new()));
            let ewma = Arc::new(AtomicU64::new(0));
            let worker = {
                let queue = Arc::clone(&queue);
                let waiters = Arc::clone(&waiters);
                let ewma = Arc::clone(&ewma);
                let telemetry = Arc::clone(&telemetry);
                thread::Builder::new()
                    .name(format!("vstack-shard-{i}"))
                    .spawn(move || worker_loop(engine, &queue, &waiters, &ewma, &telemetry, i))
                    .map_err(io::Error::other)?
            };
            shards.push(Shard {
                queue,
                waiters,
                ewma_service_us: ewma,
                worker: Mutex::new(Some(worker)),
            });
        }
        Ok(ShardPool { shards, telemetry })
    }

    /// The pool's telemetry surface (windows, flight recorders, dumps).
    pub fn telemetry(&self) -> &Arc<PoolTelemetry> {
        &self.telemetry
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Whether the pool has no shards (never true for a started pool).
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// Routes `request` to its home shard and runs admission control.
    /// Never blocks on a full queue. The request is canonicalized here so
    /// routing and dedup agree with the engine's own fingerprint domain;
    /// callers should have validated it already. Returns the decision,
    /// the home-shard index (meaningful even for shed requests, so the
    /// caller can attribute the rejection in its reply telemetry) and the
    /// fingerprint it routed on.
    pub fn submit(
        &self,
        request: &ScenarioRequest,
        cancel: CancelToken,
        ctx: RequestCtx,
    ) -> (Admission, usize, u64) {
        let m = vstack_obs::metrics::global();
        let request = request.canonical();
        let fingerprint = request.fingerprint();
        let shard_idx = (fingerprint % self.shards.len() as u64) as usize;
        let shard = &self.shards[shard_idx];
        let (tx, rx) = mpsc::sync_channel(1);
        // Decide join-vs-admit-vs-shed under the waiter lock so the worker
        // (which takes the lock to deliver replies) can never observe a
        // queued job without its waiter entry.
        let mut waiters = shard.waiters.lock().expect("waiter lock");
        if let Some(entry) = waiters.get_mut(&fingerprint) {
            entry.push(tx);
            m.serve_dedup_joins.inc();
            self.telemetry.shard(shard_idx).note_admission(false);
            return (Admission::Joined(rx), shard_idx, fingerprint);
        }
        let job = Job {
            fingerprint,
            request: request.clone(),
            cancel,
            ctx,
        };
        let admission = match shard.queue.try_push(job) {
            Ok(depth) => {
                waiters.insert(fingerprint, vec![tx]);
                m.serve_accepted.inc();
                m.serve_queue_depth.observe(depth as u64);
                self.telemetry.shard(shard_idx).note_admission(false);
                Admission::Queued(rx)
            }
            Err(PushError::Full(_)) => {
                m.serve_shed.inc();
                m.serve_queue_depth.observe(shard.queue.capacity() as u64);
                if self.telemetry.shard(shard_idx).note_admission(true) {
                    // The rolling shed rate just spiked past 50%: capture
                    // the black box while the overload is still in it.
                    self.telemetry.maybe_dump("shed_spike", ctx.trace_id);
                }
                Admission::Shed {
                    retry_after_ms: shard.retry_after_ms(),
                }
            }
            Err(PushError::Closed(_)) => Admission::Closed,
        };
        (admission, shard_idx, fingerprint)
    }

    /// Stops the pool. With `drain`, queued jobs are finished before the
    /// workers flush their disk segments and exit; without it, queued
    /// jobs are shed with [`ShardOutcome::Drained`] first. Blocks until
    /// every worker has exited (and therefore every cache is flushed).
    /// Idempotent; later calls return once the first completes.
    pub fn shutdown(&self, drain: bool) {
        let m = vstack_obs::metrics::global();
        for (i, shard) in self.shards.iter().enumerate() {
            shard.queue.close();
            if !drain {
                for job in shard.queue.drain_now() {
                    m.serve_drained_jobs.inc();
                    let mut record = RequestTelemetry::new(
                        job.ctx.trace_id,
                        i,
                        job.fingerprint,
                        FlightOutcome::Drained,
                    );
                    record.queue_wait_us = job.ctx.elapsed_us();
                    self.telemetry.record_request(&record);
                    deliver(
                        &shard.waiters,
                        job.fingerprint,
                        &ShardOutcome::Drained(record),
                    );
                }
            }
        }
        for shard in &self.shards {
            let handle = shard.worker.lock().expect("worker handle lock").take();
            if let Some(handle) = handle {
                let _ = handle.join();
            }
        }
    }

    /// Sum of current queue depths (for tests and stats).
    pub fn queued(&self) -> usize {
        self.shards.iter().map(|s| s.queue.len()).sum()
    }
}

impl Shard {
    /// Backoff hint for a shed request: the time a full queue needs to
    /// drain at the observed service rate, clamped to [1 ms, 60 s]. The
    /// EWMA starts at 0, so an untrained shard hints the 1 ms floor.
    fn retry_after_ms(&self) -> u64 {
        let service_us = self.ewma_service_us.load(Ordering::Relaxed);
        let backlog = self.queue.len() as u64 + 1;
        (backlog * service_us / 1000).clamp(1, 60_000)
    }
}

/// Delivers one outcome to every waiter registered for `fingerprint`.
fn deliver(waiters: &WaiterMap, fingerprint: u64, outcome: &ShardOutcome) {
    let senders = waiters
        .lock()
        .expect("waiter lock")
        .remove(&fingerprint)
        .unwrap_or_default();
    for tx in senders {
        // A departed waiter (deadline hit, connection gone) is fine.
        let _ = tx.send(outcome.clone());
    }
}

/// The shard worker: pop, solve (contained), deliver, until drained.
/// Each job's trace id is published to the thread's trace slot for the
/// duration of the solve, so every span below picks it up.
fn worker_loop(
    mut engine: Engine,
    queue: &BoundedQueue<Job>,
    waiters: &WaiterMap,
    ewma_service_us: &AtomicU64,
    telemetry: &PoolTelemetry,
    shard_idx: usize,
) {
    let m = vstack_obs::metrics::global();
    loop {
        let job = match queue.pop(Duration::from_millis(100)) {
            Popped::Item(job) => job,
            Popped::TimedOut => continue,
            Popped::Drained => break,
        };
        let queue_wait_us = job.ctx.elapsed_us();
        let trace = vstack_obs::trace::trace_scope(job.ctx.trace_id);
        let solve_start = Instant::now();
        // `None`: the solve panicked (and was contained).
        let done = if job.cancel.is_cancelled() {
            // Expired while queued: don't waste a solve on it.
            m.serve_deadline_exceeded.inc();
            Some(Err(EngineError::Cancelled))
        } else {
            run_job(&mut engine, &job)
        };
        let solve_us = u64::try_from(solve_start.elapsed().as_micros()).unwrap_or(u64::MAX);
        drop(trace);

        let outcome = match &done {
            Some(Ok(_)) => FlightOutcome::Ok,
            Some(Err(EngineError::Cancelled)) => FlightOutcome::DeadlineMiss,
            Some(Err(_)) => FlightOutcome::EngineError,
            None => FlightOutcome::Panicked,
        };
        let mut record = RequestTelemetry {
            queue_wait_us,
            solve_us,
            ..RequestTelemetry::new(job.ctx.trace_id, shard_idx, job.fingerprint, outcome)
        };
        if let Some(Ok(result)) = &done {
            record.cache_tier = RequestTelemetry::tier_for(result.outcome);
            record.solver_path = result.summary.solver_path.clone();
        }
        telemetry.record_request(&record);

        let service_us = job.ctx.elapsed_us();
        m.serve_request_us.observe(service_us);
        // EWMA with 1/8 gain: smooth enough to ride out cache-hit noise,
        // fast enough to track a fidelity shift within ~a dozen requests.
        let old = ewma_service_us.load(Ordering::Relaxed);
        let new = if old == 0 {
            service_us
        } else {
            old - old / 8 + service_us / 8
        };
        ewma_service_us.store(new, Ordering::Relaxed);
        let outcome = match done {
            Some(done) => ShardOutcome::Done(done, record),
            None => ShardOutcome::Panicked(record),
        };
        deliver(waiters, job.fingerprint, &outcome);
    }
    // Queue drained and closed: make the disk segment durable before the
    // shard disappears.
    if let Err(e) = engine.flush() {
        log_warn!("serve", "shard cache flush on shutdown failed: {e}");
    }
}

/// Runs one job with panic containment and prompt cache persistence.
/// `None` means the solve panicked (and was contained).
fn run_job(engine: &mut Engine, job: &Job) -> Option<Result<QueryResult, EngineError>> {
    let m = vstack_obs::metrics::global();
    let result = catch_unwind(AssertUnwindSafe(|| {
        crate::server::chaos::worker_solve_hook();
        engine.set_cancel_token(job.cancel.clone());
        let result = engine.query(&job.request);
        engine.set_cancel_token(CancelToken::never());
        // Persist new entries now: a crash between requests then loses
        // nothing. A flush failure is the cache's problem, not this
        // request's — the solve already succeeded.
        if let Err(e) = engine.flush() {
            warn_once!(
                "serve",
                "disk-cache flush failed ({e}); serving continues uncached"
            );
        }
        result
    }));
    match result {
        Ok(done) => {
            if matches!(done, Err(EngineError::Cancelled)) {
                m.serve_deadline_exceeded.inc();
            }
            Some(done)
        }
        Err(_) => {
            m.serve_worker_panics.inc();
            log_warn!(
                "serve",
                "worker solve panicked (contained); shard continues"
            );
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_request(layers: usize) -> ScenarioRequest {
        ScenarioRequest::voltage_stacked(layers, 0.4).quick()
    }

    #[test]
    fn submit_solves_and_caches() {
        let pool = ShardPool::start(&ShardConfig {
            shards: 2,
            ..ShardConfig::default()
        })
        .unwrap();
        let req = quick_request(2);
        let ctx = RequestCtx::mint();
        let rx = match pool.submit(&req, CancelToken::never(), ctx) {
            (Admission::Queued(rx), ..) => rx,
            _ => panic!("first submission must queue"),
        };
        match rx.recv_timeout(Duration::from_secs(60)).unwrap() {
            ShardOutcome::Done(Ok(result), telemetry) => {
                assert_eq!(result.fingerprint, req.fingerprint());
                assert_eq!(telemetry.trace_id, ctx.trace_id);
                assert_eq!(telemetry.fingerprint, req.fingerprint());
                assert_eq!(telemetry.cache_tier, "solve");
                assert_eq!(telemetry.solver_path, result.summary.solver_path);
                assert!(!telemetry.solver_path.is_empty());
                assert!(telemetry.solve_us > 0);
                assert_eq!(telemetry.outcome, FlightOutcome::Ok);
                // The worker recorded the same record into its shard's
                // black box.
                let records: Vec<_> = (0..pool.len())
                    .flat_map(|i| pool.telemetry().shard(i).flight.snapshot())
                    .collect();
                assert_eq!(records.len(), 1);
                assert_eq!(records[0].request, telemetry);
            }
            other => panic!("unexpected outcome: {other:?}"),
        }
        pool.shutdown(true);
    }

    #[test]
    fn expired_token_skips_the_solve() {
        let pool = ShardPool::start(&ShardConfig {
            shards: 1,
            ..ShardConfig::default()
        })
        .unwrap();
        let req = quick_request(2);
        let expired = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        let rx = match pool.submit(&req, expired, RequestCtx::mint()) {
            (Admission::Queued(rx), ..) => rx,
            _ => panic!("must queue"),
        };
        match rx.recv_timeout(Duration::from_secs(10)).unwrap() {
            ShardOutcome::Done(Err(EngineError::Cancelled), telemetry) => {
                assert_eq!(telemetry.cache_tier, "none");
                assert_eq!(telemetry.outcome, FlightOutcome::DeadlineMiss);
            }
            other => panic!("unexpected outcome: {other:?}"),
        }
        pool.shutdown(true);
    }
}
