//! Static metrics registry: monotonic counters and fixed-bucket histograms.
//!
//! The registry is a single static [`Metrics`] struct rather than a
//! dynamic name→metric map: every metric is a named field, so hot-path
//! updates are a relaxed atomic add with zero lookup cost, the snapshot
//! field order is fixed by declaration order (deterministic output), and
//! adding a metric is a compile-time change reviewed like any other API.
//!
//! Naming convention: counters and histograms whose name ends in `_us`
//! accumulate wall-clock microseconds and are therefore not reproducible
//! across runs. Everything else counts discrete events and is
//! deterministic for a deterministic workload — tests zero the `_us`
//! fields and byte-compare the rest (see `canonicalize_snapshot`).

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Schema tag embedded in every snapshot. Bump on any incompatible change
/// to the snapshot layout or to bucket edges.
pub const SCHEMA: &str = "vstack-obs-metrics/1";

/// A monotonic counter (relaxed atomic).
#[derive(Debug)]
pub struct Counter(AtomicU64);

impl Counter {
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

impl Default for Counter {
    fn default() -> Self {
        Counter::new()
    }
}

/// Upper bound on `edges.len() + 1` for any [`Histogram`].
pub const MAX_BUCKETS: usize = 16;

/// Bucket edges for iteration-count style distributions.
pub const ITERATION_EDGES: &[u64] = &[1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000];
/// Bucket edges for microsecond durations (10 µs … 10 s).
pub const US_EDGES: &[u64] = &[10, 100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000];
/// Bucket edges for queue depths.
pub const SIZE_EDGES: &[u64] = &[1, 2, 4, 8, 16, 32, 64, 128, 256];
/// Bucket edges for per-iteration temperature deltas in milli-kelvin
/// (1 mK … 100 K), the convergence trajectory of the coupling loop.
pub const DELTA_T_MK_EDGES: &[u64] = &[1, 10, 100, 1_000, 10_000, 100_000];

/// Fixed-bucket histogram. Bucket `i` counts observations `v` with
/// `edges[i-1] < v <= edges[i]` (bucket 0: `v <= edges[0]`); the final
/// bucket counts `v > edges.last()`.
#[derive(Debug)]
pub struct Histogram {
    edges: &'static [u64],
    buckets: [AtomicU64; MAX_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    pub const fn new(edges: &'static [u64]) -> Self {
        assert!(edges.len() < MAX_BUCKETS, "too many histogram edges");
        Histogram {
            edges,
            buckets: [const { AtomicU64::new(0) }; MAX_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    #[inline]
    pub fn observe(&self, v: u64) {
        let idx = self.edges.partition_point(|&e| e < v);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Bucket counts, length `edges.len() + 1` (last bucket is overflow).
    pub fn buckets(&self) -> Vec<u64> {
        self.buckets[..=self.edges.len()]
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    pub fn edges(&self) -> &'static [u64] {
        self.edges
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
    }
}

/// Log-spaced bucket edges for request-latency telemetry (50 µs … 5 s).
/// Denser than [`US_EDGES`] so windowed p50/p99/p999 estimates resolve
/// sub-millisecond serving latencies.
pub const TELEMETRY_US_EDGES: &[u64] = &[
    50, 100, 200, 500, 1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000, 200_000, 500_000,
    1_000_000, 2_000_000, 5_000_000,
];

/// One time window of a [`WindowedHistogram`]: a plain (non-atomic)
/// bucket array plus the window index it currently accumulates.
#[derive(Debug, Clone)]
struct Window {
    /// Which fixed-width window (`elapsed / width`) this slot holds;
    /// `u64::MAX` marks a slot that has never been written.
    index: u64,
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    /// Observations strictly above the SLO threshold.
    over_slo: u64,
}

impl Window {
    fn clear(&mut self, index: u64) {
        self.index = index;
        self.buckets.iter_mut().for_each(|b| *b = 0);
        self.count = 0;
        self.sum = 0;
        self.over_slo = 0;
    }
}

/// Rolling aggregate over the live windows of a [`WindowedHistogram`].
#[derive(Debug, Clone, PartialEq)]
pub struct WindowRollup {
    /// Observations inside the rolling horizon.
    pub count: u64,
    /// Sum of those observations.
    pub sum: u64,
    /// Observations above the SLO threshold.
    pub over_slo: u64,
    /// Merged bucket counts (length `edges.len() + 1`).
    pub buckets: Vec<u64>,
    /// Upper-edge estimates of the rolling percentiles. The final
    /// (overflow) bucket saturates at twice the last edge.
    pub p50: u64,
    /// 99th percentile (same estimator as `p50`).
    pub p99: u64,
    /// 99.9th percentile (same estimator as `p50`).
    pub p999: u64,
    /// SLO burn rate: the observed error fraction divided by the error
    /// budget (`1 - target`). 1.0 means the budget is being consumed
    /// exactly as fast as it accrues; above 1.0 the SLO is burning down.
    pub burn_rate: f64,
}

/// A ring of fixed-width time windows, each a log-bucket histogram —
/// the rolling-percentile / SLO-burn-rate primitive behind the serving
/// daemon's `telemetry` verb.
///
/// Unlike [`Histogram`] (cumulative, static registry), windowed
/// histograms are constructed per shard at runtime. `observe` locks the
/// current window's mutex for a handful of adds; windows other than the
/// current one are only touched by `rollup`, so steady-state contention
/// is writer-vs-writer on one shard's current window only. A window that
/// falls out of the rolling horizon is lazily reset the next time its
/// ring slot is reused, and `rollup` simply skips stale windows — no
/// background rotation thread exists.
#[derive(Debug)]
pub struct WindowedHistogram {
    edges: &'static [u64],
    width: Duration,
    slo_threshold: u64,
    slo_target: f64,
    epoch: Instant,
    windows: Vec<Mutex<Window>>,
    /// Monotonic total across the histogram's lifetime (never reset by
    /// window rotation) — what concurrency tests assert monotonicity on.
    total: AtomicU64,
}

impl WindowedHistogram {
    /// A ring of `windows` windows of `width` each. `slo_threshold` is
    /// the latency bound observations are judged against and
    /// `slo_target` the availability objective (e.g. `0.999`).
    pub fn new(
        edges: &'static [u64],
        width: Duration,
        windows: usize,
        slo_threshold: u64,
        slo_target: f64,
    ) -> Self {
        assert!(!edges.is_empty(), "windowed histogram needs bucket edges");
        assert!(
            slo_target > 0.0 && slo_target < 1.0,
            "slo_target must be in (0, 1)"
        );
        let windows = windows.max(2);
        WindowedHistogram {
            edges,
            width: width.max(Duration::from_millis(1)),
            slo_threshold,
            slo_target,
            epoch: Instant::now(),
            windows: (0..windows)
                .map(|_| {
                    Mutex::new(Window {
                        index: u64::MAX,
                        buckets: vec![0; edges.len() + 1],
                        count: 0,
                        sum: 0,
                        over_slo: 0,
                    })
                })
                .collect(),
            total: AtomicU64::new(0),
        }
    }

    /// The serving default: a rolling minute of 1-second windows.
    pub fn per_second_minute(slo_threshold: u64, slo_target: f64) -> Self {
        WindowedHistogram::new(
            TELEMETRY_US_EDGES,
            Duration::from_secs(1),
            60,
            slo_threshold,
            slo_target,
        )
    }

    /// Bucket edges shared by every window.
    pub fn edges(&self) -> &'static [u64] {
        self.edges
    }

    /// The SLO threshold observations are judged against.
    pub fn slo_threshold(&self) -> u64 {
        self.slo_threshold
    }

    /// The availability objective.
    pub fn slo_target(&self) -> f64 {
        self.slo_target
    }

    /// Observations across the histogram's lifetime; monotonic (window
    /// rotation never decreases it).
    pub fn total_count(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    fn window_index(&self) -> u64 {
        (self.epoch.elapsed().as_micros() / self.width.as_micros().max(1)) as u64
    }

    /// Records one observation into the current time window.
    pub fn observe(&self, v: u64) {
        let index = self.window_index();
        let slot = (index % self.windows.len() as u64) as usize;
        let mut w = self.windows[slot].lock().expect("window lock");
        if w.index != index {
            w.clear(index);
        }
        let bucket = self.edges.partition_point(|&e| e < v);
        w.buckets[bucket] += 1;
        w.count += 1;
        w.sum += v;
        if v > self.slo_threshold {
            w.over_slo += 1;
        }
        drop(w);
        self.total.fetch_add(1, Ordering::Relaxed);
    }

    /// Merges every window still inside the rolling horizon into one
    /// aggregate with percentile estimates and the SLO burn rate.
    pub fn rollup(&self) -> WindowRollup {
        let current = self.window_index();
        let oldest = current.saturating_sub(self.windows.len() as u64 - 1);
        let mut buckets = vec![0u64; self.edges.len() + 1];
        let (mut count, mut sum, mut over_slo) = (0u64, 0u64, 0u64);
        for slot in &self.windows {
            let w = slot.lock().expect("window lock");
            if w.index < oldest || w.index > current {
                continue; // stale (or never-written) slot
            }
            for (acc, b) in buckets.iter_mut().zip(&w.buckets) {
                *acc += b;
            }
            count += w.count;
            sum += w.sum;
            over_slo += w.over_slo;
        }
        let quantile = |q: f64| bucket_quantile(self.edges, &buckets, count, q);
        let burn_rate = if count == 0 {
            0.0
        } else {
            (over_slo as f64 / count as f64) / (1.0 - self.slo_target)
        };
        WindowRollup {
            p50: quantile(0.50),
            p99: quantile(0.99),
            p999: quantile(0.999),
            burn_rate,
            count,
            sum,
            over_slo,
            buckets,
        }
    }
}

/// Upper-edge quantile estimate over merged log buckets: the value
/// reported for quantile `q` is the upper edge of the bucket holding the
/// `ceil(q * count)`-th observation (overflow bucket: twice the last
/// edge). Deterministic and conservative — never underestimates by more
/// than one bucket width.
pub fn bucket_quantile(edges: &[u64], buckets: &[u64], count: u64, q: f64) -> u64 {
    if count == 0 {
        return 0;
    }
    let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
    let mut cumulative = 0u64;
    for (i, b) in buckets.iter().enumerate() {
        cumulative += b;
        if cumulative >= rank {
            return edges
                .get(i)
                .copied()
                .unwrap_or_else(|| edges.last().copied().unwrap_or(0).saturating_mul(2));
        }
    }
    edges.last().copied().unwrap_or(0).saturating_mul(2)
}

/// Every metric the workspace records. All fields are always-on; updates
/// are relaxed atomic adds from the instrumented crates.
#[derive(Debug)]
pub struct Metrics {
    // -- sparse: Krylov solvers --------------------------------------------
    /// Completed CG solves (any preconditioner).
    pub cg_solves: Counter,
    /// Completed BiCGSTAB solves.
    pub bicgstab_solves: Counter,
    /// Total Krylov iterations across completed solves.
    pub solver_iterations: Counter,
    /// Accumulated preconditioner setup wall-time (µs).
    pub solver_setup_us: Counter,
    /// Accumulated iteration-loop wall-time (µs).
    pub solver_solve_us: Counter,

    // -- sparse: escalation ladder -----------------------------------------
    /// `solve_robust*` entries.
    pub ladder_solves: Counter,
    /// Rung-to-rung escalations (one per recorded fallback step).
    pub ladder_escalations: Counter,
    /// Solves that succeeded only after at least one escalation.
    pub ladder_rescued: Counter,
    /// Solves abandoned at a rung boundary because their cancellation
    /// token fired (deadline passed or shutdown requested).
    pub ladder_cancelled: Counter,

    // -- sparse: AMG -------------------------------------------------------
    /// Successful AMG hierarchy builds.
    pub amg_builds: Counter,
    /// AMG hierarchy builds that failed (degenerate coarsening etc.).
    pub amg_build_failures: Counter,
    /// Individual V-cycle applications.
    pub amg_vcycles: Counter,
    /// Always 0: nothing increments it since the matrix-free stencil
    /// operator was deleted. Kept registered because the `e2e` benchmark
    /// (`layers.rs`) looks every counter it reports up by name.
    pub stencil_applies: Counter,
    /// Mixed-precision refinement sweeps (f32 V-cycle applications).
    pub refinement_sweeps: Counter,
    /// f32 hierarchy mirrors built from an f64 AMG hierarchy.
    pub f32_hierarchy_builds: Counter,

    // -- sparse: thread pool -----------------------------------------------
    /// Broadcasts dispatched to pool worker threads.
    pub pool_broadcasts: Counter,
    /// Broadcasts run inline (pool width 1 or nested).
    pub pool_serial_runs: Counter,

    // -- pdn ---------------------------------------------------------------
    /// PDN operating-point solves.
    pub pdn_solves: Counter,
    /// Re-solves that re-stamped values into a cached CSR pattern.
    pub pdn_pattern_reuses: Counter,
    /// Solves that built the CSR pattern from scratch.
    pub pdn_pattern_builds: Counter,
    /// AMG-eligible solves that reused a cached hierarchy.
    pub amg_cache_hits: Counter,
    /// AMG-eligible solves with no cached hierarchy.
    pub amg_cache_misses: Counter,
    /// Accumulated conductance-stamping wall-time (µs).
    pub pdn_stamp_us: Counter,
    /// Fault-sketch baseline builds (initial builds and rebases).
    pub fault_sketch_builds: Counter,
    /// Fault queries answered from the sketch (SMW update or baseline).
    pub fault_sketch_hits: Counter,
    /// Fault queries that fell back to the exact ladder solve.
    pub fault_sketch_fallbacks: Counter,

    // -- engine ------------------------------------------------------------
    /// Valid requests received by `Engine::query`.
    pub engine_requests: Counter,
    /// Requests rejected by validation.
    pub engine_invalid: Counter,
    /// Requests served from the in-memory LRU.
    pub engine_memory_hits: Counter,
    /// Requests served from the on-disk cache.
    pub engine_disk_hits: Counter,
    /// Always 0: the engine answers one request at a time, and the
    /// daemon counts its cross-request dedup in `serve_dedup_joins`. Kept
    /// registered because the `e2e` benchmark (`layers.rs`) reads it by
    /// name.
    pub engine_deduped: Counter,
    /// Solves warm-started from a neighbouring cached solution.
    pub engine_warm_solves: Counter,
    /// Solves started cold.
    pub engine_cold_solves: Counter,
    /// Disk-cache entries rejected for schema mismatch.
    pub engine_schema_rejects: Counter,
    /// Disk-cache entries rejected as corrupt.
    pub engine_corrupt_rejects: Counter,

    // -- thermal–EM–IR coupling --------------------------------------------
    /// Coupled fixed-point runs started.
    pub coupling_runs: Counter,
    /// Total thermal–IR fixed-point iterations across all runs.
    pub coupling_iterations: Counter,
    /// Runs that hit the iteration cap and fell back to the uncoupled
    /// result.
    pub coupling_nonconverged: Counter,

    // -- serving daemon ----------------------------------------------------
    /// Connections accepted by the serving daemon.
    pub serve_connections: Counter,
    /// Requests admitted past admission control.
    pub serve_accepted: Counter,
    /// Requests shed by admission control (bounded queue full).
    pub serve_shed: Counter,
    /// Requests that missed their deadline (cancelled or answered late).
    pub serve_deadline_exceeded: Counter,
    /// Requests that joined an identical in-flight fingerprint instead of
    /// queueing their own solve.
    pub serve_dedup_joins: Counter,
    /// Worker-shard panics contained by `catch_unwind` (shard kept alive).
    pub serve_worker_panics: Counter,
    /// Queued jobs shed during shutdown drain instead of being solved.
    pub serve_drained_jobs: Counter,
    /// Corrupt disk-cache files quarantined to `*.corrupt` on load.
    pub serve_cache_quarantined: Counter,

    // -- histograms --------------------------------------------------------
    /// Krylov iterations per completed solve.
    pub solver_iterations_hist: Histogram,
    /// V-cycles (== preconditioned iterations) per AMG-preconditioned solve.
    pub amg_vcycles_per_solve: Histogram,
    /// Per-solve iteration-loop wall-time (µs).
    pub solve_us_hist: Histogram,
    /// Per-solve preconditioner setup wall-time (µs).
    pub setup_us_hist: Histogram,
    /// Shard queue depth observed at each admission decision.
    pub serve_queue_depth: Histogram,
    /// End-to-end request latency inside the daemon (µs), admission to
    /// response.
    pub serve_request_us: Histogram,
    /// Max per-layer temperature change per coupling iteration, in
    /// milli-kelvin (deterministic for a deterministic workload).
    pub coupling_delta_t_mk: Histogram,
    /// Wall-clock microseconds per sketch-answered fault query (the SMW
    /// update against a warm sketch, excluding lazy column solves).
    pub fault_query_us: Histogram,
}

impl Metrics {
    pub const fn new() -> Self {
        Metrics {
            cg_solves: Counter::new(),
            bicgstab_solves: Counter::new(),
            solver_iterations: Counter::new(),
            solver_setup_us: Counter::new(),
            solver_solve_us: Counter::new(),
            ladder_solves: Counter::new(),
            ladder_escalations: Counter::new(),
            ladder_rescued: Counter::new(),
            ladder_cancelled: Counter::new(),
            amg_builds: Counter::new(),
            amg_build_failures: Counter::new(),
            amg_vcycles: Counter::new(),
            stencil_applies: Counter::new(),
            refinement_sweeps: Counter::new(),
            f32_hierarchy_builds: Counter::new(),
            pool_broadcasts: Counter::new(),
            pool_serial_runs: Counter::new(),
            pdn_solves: Counter::new(),
            pdn_pattern_reuses: Counter::new(),
            pdn_pattern_builds: Counter::new(),
            amg_cache_hits: Counter::new(),
            amg_cache_misses: Counter::new(),
            pdn_stamp_us: Counter::new(),
            fault_sketch_builds: Counter::new(),
            fault_sketch_hits: Counter::new(),
            fault_sketch_fallbacks: Counter::new(),
            engine_requests: Counter::new(),
            engine_invalid: Counter::new(),
            engine_memory_hits: Counter::new(),
            engine_disk_hits: Counter::new(),
            engine_deduped: Counter::new(),
            engine_warm_solves: Counter::new(),
            engine_cold_solves: Counter::new(),
            engine_schema_rejects: Counter::new(),
            engine_corrupt_rejects: Counter::new(),
            coupling_runs: Counter::new(),
            coupling_iterations: Counter::new(),
            coupling_nonconverged: Counter::new(),
            serve_connections: Counter::new(),
            serve_accepted: Counter::new(),
            serve_shed: Counter::new(),
            serve_deadline_exceeded: Counter::new(),
            serve_dedup_joins: Counter::new(),
            serve_worker_panics: Counter::new(),
            serve_drained_jobs: Counter::new(),
            serve_cache_quarantined: Counter::new(),
            solver_iterations_hist: Histogram::new(ITERATION_EDGES),
            amg_vcycles_per_solve: Histogram::new(ITERATION_EDGES),
            solve_us_hist: Histogram::new(US_EDGES),
            setup_us_hist: Histogram::new(US_EDGES),
            serve_queue_depth: Histogram::new(SIZE_EDGES),
            serve_request_us: Histogram::new(US_EDGES),
            coupling_delta_t_mk: Histogram::new(DELTA_T_MK_EDGES),
            fault_query_us: Histogram::new(US_EDGES),
        }
    }

    /// Named counters in snapshot order.
    pub fn counters(&self) -> Vec<(&'static str, &Counter)> {
        vec![
            ("cg_solves", &self.cg_solves),
            ("bicgstab_solves", &self.bicgstab_solves),
            ("solver_iterations", &self.solver_iterations),
            ("solver_setup_us", &self.solver_setup_us),
            ("solver_solve_us", &self.solver_solve_us),
            ("ladder_solves", &self.ladder_solves),
            ("ladder_escalations", &self.ladder_escalations),
            ("ladder_rescued", &self.ladder_rescued),
            ("ladder_cancelled", &self.ladder_cancelled),
            ("amg_builds", &self.amg_builds),
            ("amg_build_failures", &self.amg_build_failures),
            ("amg_vcycles", &self.amg_vcycles),
            ("stencil_applies", &self.stencil_applies),
            ("refinement_sweeps", &self.refinement_sweeps),
            ("f32_hierarchy_builds", &self.f32_hierarchy_builds),
            ("pool_broadcasts", &self.pool_broadcasts),
            ("pool_serial_runs", &self.pool_serial_runs),
            ("pdn_solves", &self.pdn_solves),
            ("pdn_pattern_reuses", &self.pdn_pattern_reuses),
            ("pdn_pattern_builds", &self.pdn_pattern_builds),
            ("amg_cache_hits", &self.amg_cache_hits),
            ("amg_cache_misses", &self.amg_cache_misses),
            ("pdn_stamp_us", &self.pdn_stamp_us),
            ("fault_sketch_builds", &self.fault_sketch_builds),
            ("fault_sketch_hits", &self.fault_sketch_hits),
            ("fault_sketch_fallbacks", &self.fault_sketch_fallbacks),
            ("engine_requests", &self.engine_requests),
            ("engine_invalid", &self.engine_invalid),
            ("engine_memory_hits", &self.engine_memory_hits),
            ("engine_disk_hits", &self.engine_disk_hits),
            ("engine_deduped", &self.engine_deduped),
            ("engine_warm_solves", &self.engine_warm_solves),
            ("engine_cold_solves", &self.engine_cold_solves),
            ("engine_schema_rejects", &self.engine_schema_rejects),
            ("engine_corrupt_rejects", &self.engine_corrupt_rejects),
            ("coupling_runs", &self.coupling_runs),
            ("coupling_iterations", &self.coupling_iterations),
            ("coupling_nonconverged", &self.coupling_nonconverged),
            ("serve_connections", &self.serve_connections),
            ("serve_accepted", &self.serve_accepted),
            ("serve_shed", &self.serve_shed),
            ("serve_deadline_exceeded", &self.serve_deadline_exceeded),
            ("serve_dedup_joins", &self.serve_dedup_joins),
            ("serve_worker_panics", &self.serve_worker_panics),
            ("serve_drained_jobs", &self.serve_drained_jobs),
            ("serve_cache_quarantined", &self.serve_cache_quarantined),
        ]
    }

    /// Named histograms in snapshot order.
    pub fn histograms(&self) -> Vec<(&'static str, &Histogram)> {
        vec![
            ("solver_iterations_hist", &self.solver_iterations_hist),
            ("amg_vcycles_per_solve", &self.amg_vcycles_per_solve),
            ("solve_us_hist", &self.solve_us_hist),
            ("setup_us_hist", &self.setup_us_hist),
            ("serve_queue_depth", &self.serve_queue_depth),
            ("serve_request_us", &self.serve_request_us),
            ("coupling_delta_t_mk", &self.coupling_delta_t_mk),
            ("fault_query_us", &self.fault_query_us),
        ]
    }

    /// Serialize every metric to a single JSON object (no trailing newline).
    pub fn snapshot_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{{\"schema\":\"{SCHEMA}\",\"counters\":{{");
        for (i, (name, c)) in self.counters().into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{}", c.get());
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms().into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{{\"edges\":[");
            push_u64s(&mut out, h.edges());
            out.push_str("],\"buckets\":[");
            push_u64s(&mut out, &h.buckets());
            let _ = write!(out, "],\"count\":{},\"sum\":{}}}", h.count(), h.sum());
        }
        out.push_str("}}");
        out
    }

    /// Zero every metric. Intended for tests; production counters are
    /// monotonic for the life of the process.
    pub fn reset(&self) {
        for (_, c) in self.counters() {
            c.reset();
        }
        for (_, h) in self.histograms() {
            h.reset();
        }
    }
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
}

fn push_u64s(out: &mut String, values: &[u64]) {
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v}");
    }
}

/// The process-wide registry.
pub fn global() -> &'static Metrics {
    static METRICS: Metrics = Metrics::new();
    &METRICS
}

/// Snapshot the global registry as JSON.
pub fn snapshot_json() -> String {
    global().snapshot_json()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_observations() {
        let h = Histogram::new(&[10, 100]);
        for v in [1, 10, 11, 100, 101, 5000] {
            h.observe(v);
        }
        assert_eq!(h.buckets(), vec![2, 2, 2]);
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 5223);
    }

    #[test]
    fn snapshot_is_valid_shape_and_resets() {
        let m = Metrics::new();
        m.cg_solves.inc();
        m.solver_iterations.add(17);
        m.solver_iterations_hist.observe(17);
        let snap = m.snapshot_json();
        assert!(snap.starts_with(&format!("{{\"schema\":\"{SCHEMA}\"")));
        assert!(snap.contains("\"cg_solves\":1"));
        assert!(snap.contains("\"solver_iterations\":17"));
        assert!(snap.contains("\"solver_iterations_hist\":{\"edges\":[1,2,5"));
        m.reset();
        let zeroed = m.snapshot_json();
        assert!(zeroed.contains("\"cg_solves\":0"));
        assert_eq!(m.solver_iterations_hist.count(), 0);
    }

    #[test]
    fn snapshot_is_deterministic_for_equal_state() {
        let a = Metrics::new();
        let b = Metrics::new();
        for m in [&a, &b] {
            m.engine_requests.add(3);
            m.serve_queue_depth.observe(3);
        }
        assert_eq!(a.snapshot_json(), b.snapshot_json());
    }

    #[test]
    fn global_registry_is_shared() {
        let before = global().ladder_solves.get();
        global().ladder_solves.inc();
        assert_eq!(global().ladder_solves.get(), before + 1);
    }

    #[test]
    fn windowed_histogram_rolls_up_current_horizon() {
        // Wide windows so every observation lands in the same window.
        let w = WindowedHistogram::new(
            TELEMETRY_US_EDGES,
            Duration::from_secs(3600),
            4,
            1_000,
            0.99,
        );
        for v in [100, 200, 900, 1_500, 40_000] {
            w.observe(v);
        }
        let r = w.rollup();
        assert_eq!(r.count, 5);
        assert_eq!(r.sum, 42_700);
        assert_eq!(r.over_slo, 2); // 1_500 and 40_000 exceed the 1 ms SLO
        assert_eq!(w.total_count(), 5);
        // 2/5 over a 1% error budget => burn rate 40.
        assert!((r.burn_rate - 40.0).abs() < 1e-9, "burn {}", r.burn_rate);
        // Upper-edge estimates: p50 is the 3rd of 5 observations (900 -> edge 1000).
        assert_eq!(r.p50, 1_000);
        assert_eq!(r.p99, 50_000);
        assert_eq!(r.p999, 50_000);
    }

    #[test]
    fn windowed_histogram_empty_rollup_is_zero() {
        let w = WindowedHistogram::per_second_minute(1_000, 0.999);
        let r = w.rollup();
        assert_eq!(r.count, 0);
        assert_eq!(r.p50, 0);
        assert_eq!(r.burn_rate, 0.0);
        assert_eq!(w.total_count(), 0);
    }

    #[test]
    fn windowed_histogram_expires_old_windows() {
        // 1 ms windows, 2-slot ring: after sleeping past the horizon the
        // old observations drop out of the rollup but not the total.
        let w = WindowedHistogram::new(TELEMETRY_US_EDGES, Duration::from_millis(1), 2, 1_000, 0.9);
        w.observe(77);
        std::thread::sleep(Duration::from_millis(5));
        let r = w.rollup();
        assert_eq!(r.count, 0, "window should have expired");
        assert_eq!(w.total_count(), 1, "lifetime total is monotone");
    }

    #[test]
    fn bucket_quantile_upper_edge_and_overflow() {
        let edges = &[10u64, 100];
        // 3 observations in bucket 0, 1 in the overflow bucket.
        let buckets = vec![3u64, 0, 1];
        assert_eq!(bucket_quantile(edges, &buckets, 4, 0.50), 10);
        assert_eq!(bucket_quantile(edges, &buckets, 4, 0.99), 200);
        assert_eq!(bucket_quantile(edges, &buckets, 0, 0.5), 0);
    }
}
