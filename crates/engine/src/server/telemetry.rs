//! Request-scoped telemetry for the serving tier: trace-ID minting, the
//! per-request context carried from admission to solve, the one record
//! each served request leaves, windowed SLO rollups, and the per-shard
//! black-box flight recorder.
//!
//! # Trace IDs
//!
//! Every request entering the daemon, on any transport, gets a
//! 64-bit `trace_id` minted by [`mint_trace_id`]: a splitmix64 hash of a
//! process-unique counter seeded from wall-clock time, so IDs are unique
//! within a process and effectively unique across processes without
//! coordination. The ID rides a [`RequestCtx`] into the shard queue; the
//! worker opens a [`vstack_obs::trace::trace_scope`] around the solve so
//! every `span!` recorded anywhere below — down to `solve_robust` in
//! `vstack-sparse` — is tagged with it for free.
//!
//! # One record per request
//!
//! The worker, the drain and the daemon's deadline-miss path each build
//! one [`RequestTelemetry`] per request: trace ID, shard, fingerprint,
//! queue-wait and solve phases, cache tier, solver path and outcome.
//! [`PoolTelemetry::record_request`] feeds the shard's three phase
//! windows and its flight ring from it; the reply's `telemetry` block
//! and the request's flight-dump line are both written from its fields.
//!
//! # Windowed SLO rollups
//!
//! Each shard owns three [`WindowedHistogram`]s (total wall, queue wait,
//! solve time) over a rolling minute of 1-second windows. The daemon's
//! `{"op":"telemetry"}` verb and the `--telemetry-out` writer serialize
//! their rollups (p50/p99/p999, SLO burn rate, merged buckets) per shard.
//!
//! # Flight recorder
//!
//! A per-shard ring of the last [`FLIGHT_SLOTS`] request records behind
//! one mutex, always on. On a worker panic, a deadline miss, or a
//! shed-rate spike the pool dumps every shard's ring to
//! `flight-<ts_ms>-<pid>-<seq>.ndjson` under the configured flight
//! directory (debounced so a panic storm produces one dump per
//! [`DUMP_DEBOUNCE`], not one per panic). `{"op":"flightdump"}` forces a
//! dump on demand. A dump is a `vstack-flight/1` header line, then one
//! line per record: `idx`, `ts_us`, the reply's six `telemetry` keys,
//! `fingerprint` and `outcome`.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant, SystemTime};

use vstack_obs::log_warn;
use vstack_obs::metrics::{WindowRollup, WindowedHistogram};

use crate::json::Json;
use crate::request::ScenarioRequest;

/// Version stamp of the `telemetry` reply block and rollup documents.
pub const TELEMETRY_SCHEMA_VERSION: u32 = 1;
/// Schema tag on telemetry rollup documents (`telemetry` verb and
/// `--telemetry-out` lines).
pub const TELEMETRY_SCHEMA: &str = "vstack-telemetry/1";
/// Schema tag on the header line of a flight-recorder dump.
pub const FLIGHT_SCHEMA: &str = "vstack-flight/1";
/// Ring capacity per shard: the last 512 requests.
pub const FLIGHT_SLOTS: usize = 512;
/// Minimum spacing between automatic flight dumps.
pub const DUMP_DEBOUNCE: Duration = Duration::from_millis(1_000);
/// SLO availability target the phase windows' burn rates are judged
/// against.
pub const SLO_TARGET: f64 = 0.999;

/// Sequence number of the next flight dump in this process.
static DUMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Counter behind [`mint_trace_id`]; lazily seeded from wall-clock time.
static TRACE_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Finalizer from splitmix64: a full-avalanche bijection on `u64`, so
/// sequential counter values become well-spread IDs.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Mints a process-unique, non-zero 64-bit trace ID. Zero is reserved to
/// mean "no trace" in the obs tracer's per-thread slot.
pub fn mint_trace_id() -> u64 {
    let mut seed = TRACE_COUNTER.load(Ordering::Relaxed);
    if seed == 0 {
        let nanos = SystemTime::UNIX_EPOCH
            .elapsed()
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x5eed)
            | 1;
        // Racing first-callers agree on whoever stores first.
        let _ = TRACE_COUNTER.compare_exchange(0, nanos, Ordering::Relaxed, Ordering::Relaxed);
        seed = TRACE_COUNTER.load(Ordering::Relaxed);
    }
    loop {
        let id = splitmix64(
            TRACE_COUNTER
                .fetch_add(1, Ordering::Relaxed)
                .wrapping_add(seed),
        );
        if id != 0 {
            return id;
        }
    }
}

/// Formats a trace ID the way every NDJSON surface emits it.
pub fn format_trace_id(trace_id: u64) -> String {
    format!("{trace_id:016x}")
}

/// Per-request context minted at admission and carried through the queue
/// to the shard worker.
#[derive(Debug, Clone, Copy)]
pub struct RequestCtx {
    /// The request's 64-bit trace ID.
    pub trace_id: u64,
    /// When admission control accepted the request; queue wait is
    /// measured from here.
    pub admitted: Instant,
}

impl RequestCtx {
    /// Mints a fresh context stamped "now".
    pub fn mint() -> RequestCtx {
        RequestCtx {
            trace_id: mint_trace_id(),
            admitted: Instant::now(),
        }
    }

    /// Microseconds since admission.
    pub fn elapsed_us(&self) -> u64 {
        u64::try_from(self.admitted.elapsed().as_micros()).unwrap_or(u64::MAX)
    }
}

/// The one record of a served request. The reply's additive `telemetry`
/// block ([`RequestTelemetry::to_json`]) and its flight-dump line are
/// both written from these fields, and the shard's three phase windows
/// observe them ([`PoolTelemetry::record_request`]).
#[derive(Debug, Clone, PartialEq)]
pub struct RequestTelemetry {
    /// The reply's trace ID (the caller's own, even on a dedup join).
    pub trace_id: u64,
    /// Home shard that served (or would have served) the request.
    pub shard: usize,
    /// The canonical scenario fingerprint the request was routed on.
    pub fingerprint: u64,
    /// Admission → worker pickup, microseconds.
    pub queue_wait_us: u64,
    /// Worker solve wall time, microseconds (0 for shed/drained).
    pub solve_us: u64,
    /// Where the answer came from: `mem`, `disk`, `solve`, or `none`
    /// for requests that never produced one.
    pub cache_tier: &'static str,
    /// Solver ladder path from the summary (for example `csr+mixed`),
    /// empty when no solve happened.
    pub solver_path: String,
    /// How the request ended.
    pub outcome: FlightOutcome,
}

impl RequestTelemetry {
    /// A record with zero phase timings, no cache tier and no solver
    /// path, as a request that never reached an engine answer (shed,
    /// closed, drained, past its deadline) leaves it; a served request's
    /// worker fills in what it measured.
    pub fn new(
        trace_id: u64,
        shard: usize,
        fingerprint: u64,
        outcome: FlightOutcome,
    ) -> RequestTelemetry {
        RequestTelemetry {
            trace_id,
            shard,
            fingerprint,
            queue_wait_us: 0,
            solve_us: 0,
            cache_tier: "none",
            solver_path: String::new(),
            outcome,
        }
    }

    /// Maps an engine outcome onto the wire `cache_tier` vocabulary.
    pub fn tier_for(outcome: crate::engine::Outcome) -> &'static str {
        use crate::engine::Outcome;
        match outcome {
            Outcome::HitMemory => "mem",
            Outcome::HitDisk => "disk",
            Outcome::Warm | Outcome::Cold => "solve",
        }
    }

    /// The reply's six `telemetry` keys, in wire order.
    fn fields(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("trace_id", Json::Str(format_trace_id(self.trace_id))),
            ("queue_wait_us", Json::Num(self.queue_wait_us as f64)),
            ("cache_tier", Json::Str(self.cache_tier.to_string())),
            ("solver_path", Json::Str(self.solver_path.clone())),
            ("solve_us", Json::Num(self.solve_us as f64)),
            ("shard", Json::Num(self.shard as f64)),
        ]
    }

    /// The reply's `telemetry` block.
    pub fn to_json(&self) -> Json {
        Json::obj(self.fields())
    }
}

/// How a recorded request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightOutcome {
    /// Served successfully.
    Ok,
    /// The engine returned a structured error.
    EngineError,
    /// The solve panicked (contained by the worker).
    Panicked,
    /// The deadline passed before a result was produced.
    DeadlineMiss,
    /// Shed during drain, or refused because the pool was shutting down.
    Drained,
    /// Shed by admission control (never reaches a flight ring).
    Shed,
}

impl FlightOutcome {
    /// The label flight dumps carry.
    pub fn label(self) -> &'static str {
        match self {
            FlightOutcome::Ok => "ok",
            FlightOutcome::EngineError => "engine_error",
            FlightOutcome::Panicked => "panic",
            FlightOutcome::DeadlineMiss => "deadline_miss",
            FlightOutcome::Drained => "drained",
            FlightOutcome::Shed => "shed",
        }
    }
}

/// One request as the flight ring holds it.
#[derive(Debug, Clone)]
pub struct FlightRecord {
    /// Monotone per-ring sequence number (record order).
    pub idx: u64,
    /// Microseconds since the pool started.
    pub ts_us: u64,
    /// The request's one record.
    pub request: RequestTelemetry,
}

impl FlightRecord {
    /// The dump line: ring position and clock, the reply's six
    /// `telemetry` keys, then the fingerprint and the outcome.
    fn to_json(&self) -> Json {
        let r = &self.request;
        let mut fields = vec![
            ("idx", Json::Num(self.idx as f64)),
            ("ts_us", Json::Num(self.ts_us as f64)),
        ];
        fields.extend(r.fields());
        fields.extend([
            (
                "fingerprint",
                Json::Str(ScenarioRequest::format_fingerprint(r.fingerprint)),
            ),
            ("outcome", Json::Str(r.outcome.label().to_string())),
        ]);
        Json::obj(fields)
    }
}

/// The always-on per-shard black box: the last [`FLIGHT_SLOTS`] request
/// records, oldest first, behind one mutex holding the next sequence
/// number and the ring. A record is pushed whole under the lock, so a
/// snapshot never sees a torn one; the request path already takes a
/// window mutex per phase to observe the same record.
#[derive(Debug, Default)]
pub struct FlightRecorder {
    ring: Mutex<(u64, VecDeque<FlightRecord>)>,
}

impl FlightRecorder {
    /// Records one request, dropping the oldest record once the ring
    /// holds [`FLIGHT_SLOTS`].
    pub fn record(&self, ts_us: u64, request: &RequestTelemetry) {
        let request = request.clone();
        let mut ring = self.ring.lock().expect("flight ring lock");
        let (next_idx, records) = &mut *ring;
        if records.len() == FLIGHT_SLOTS {
            records.pop_front();
        }
        records.push_back(FlightRecord {
            idx: *next_idx,
            ts_us,
            request,
        });
        *next_idx += 1;
    }

    /// Every record in the ring, oldest first.
    pub fn snapshot(&self) -> Vec<FlightRecord> {
        let ring = self.ring.lock().expect("flight ring lock");
        ring.1.iter().cloned().collect()
    }
}

/// Fixed-point scale of the shed-rate EWMA (1024 = shedding everything).
const SHED_EWMA_ONE: u64 = 1024;
/// EWMA gain denominator: 1/16 per admission decision.
const SHED_EWMA_GAIN: u64 = 16;
/// Spike threshold: a rolling shed rate above 50%.
const SHED_SPIKE_THRESHOLD: u64 = SHED_EWMA_ONE / 2;
/// Minimum admission decisions before the spike detector may fire.
const SHED_SPIKE_MIN_DECISIONS: u64 = 32;

/// One shard's telemetry: three phase windows, the flight ring, and the
/// shed-rate spike detector.
pub struct ShardTelemetry {
    /// Rolling admission→reply wall time.
    pub total: WindowedHistogram,
    /// Rolling queue-wait phase.
    pub queue: WindowedHistogram,
    /// Rolling solve phase.
    pub solve: WindowedHistogram,
    /// The shard's black box.
    pub flight: FlightRecorder,
    shed_ewma: AtomicU64,
    decisions: AtomicU64,
}

impl ShardTelemetry {
    fn new(slo_us: u64) -> ShardTelemetry {
        ShardTelemetry {
            total: WindowedHistogram::per_second_minute(slo_us, SLO_TARGET),
            queue: WindowedHistogram::per_second_minute(slo_us, SLO_TARGET),
            solve: WindowedHistogram::per_second_minute(slo_us, SLO_TARGET),
            flight: FlightRecorder::default(),
            shed_ewma: AtomicU64::new(0),
            decisions: AtomicU64::new(0),
        }
    }

    /// Folds one admission decision into the shed-rate EWMA; true when
    /// the rolling shed rate just crossed the spike threshold.
    pub fn note_admission(&self, shed: bool) -> bool {
        let n = self.decisions.fetch_add(1, Ordering::Relaxed) + 1;
        let old = self.shed_ewma.load(Ordering::Relaxed);
        let contribution = if shed {
            SHED_EWMA_ONE / SHED_EWMA_GAIN
        } else {
            0
        };
        let new = old - old / SHED_EWMA_GAIN + contribution;
        self.shed_ewma.store(new, Ordering::Relaxed);
        n >= SHED_SPIKE_MIN_DECISIONS && old <= SHED_SPIKE_THRESHOLD && new > SHED_SPIKE_THRESHOLD
    }
}

/// Pool-wide telemetry: per-shard state plus the dump machinery.
pub struct PoolTelemetry {
    started: Instant,
    shards: Vec<ShardTelemetry>,
    flight_dir: Option<PathBuf>,
    slo_us: u64,
    /// Millis-since-start of the last automatic dump (debounce state).
    last_dump_ms: AtomicU64,
}

impl PoolTelemetry {
    /// Telemetry for `shards` shards judged against `slo_us` at
    /// [`SLO_TARGET`]; dumps land in `flight_dir` (never dumped if
    /// `None`).
    pub fn new(shards: usize, slo_us: u64, flight_dir: Option<PathBuf>) -> PoolTelemetry {
        PoolTelemetry {
            started: Instant::now(),
            shards: (0..shards.max(1))
                .map(|_| ShardTelemetry::new(slo_us))
                .collect(),
            flight_dir,
            slo_us,
            last_dump_ms: AtomicU64::new(u64::MAX), // "never dumped"
        }
    }

    /// Microseconds since the pool started (the flight-record clock).
    fn now_us(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// Milliseconds since the pool started.
    pub fn uptime_ms(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    /// One shard's telemetry (panics on an out-of-range index, which
    /// would be a routing bug).
    pub fn shard(&self, shard: usize) -> &ShardTelemetry {
        &self.shards[shard]
    }

    /// Records one finished (or failed) request: its shard's three phase
    /// windows and flight ring all read the one record. A panic or a
    /// deadline miss then dumps the rings ([`PoolTelemetry::maybe_dump`]).
    pub fn record_request(&self, record: &RequestTelemetry) {
        let shard = &self.shards[record.shard.min(self.shards.len() - 1)];
        shard.total.observe(record.queue_wait_us + record.solve_us);
        shard.queue.observe(record.queue_wait_us);
        shard.solve.observe(record.solve_us);
        shard.flight.record(self.now_us(), record);
        let reason = match record.outcome {
            FlightOutcome::Panicked => "worker_panic",
            FlightOutcome::DeadlineMiss => "deadline_miss",
            _ => return,
        };
        self.maybe_dump(reason, record.trace_id);
    }

    /// Debounced automatic dump (panic / deadline / shed spike). Returns
    /// the dump path when one was written.
    pub fn maybe_dump(&self, reason: &str, trace_id: u64) -> Option<PathBuf> {
        let now_ms = self.uptime_ms();
        let last = self.last_dump_ms.load(Ordering::Relaxed);
        if last != u64::MAX && now_ms.saturating_sub(last) < DUMP_DEBOUNCE.as_millis() as u64 {
            return None;
        }
        if self
            .last_dump_ms
            .compare_exchange(last, now_ms, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
        {
            return None; // another thread just dumped
        }
        match self.dump(reason, trace_id) {
            Ok(path) => path,
            Err(e) => {
                log_warn!("serve", "flight dump failed: {e}");
                None
            }
        }
    }

    /// Unconditional dump (the `flightdump` verb). `Ok(None)` when no
    /// flight directory is configured.
    pub fn dump(&self, reason: &str, trace_id: u64) -> io::Result<Option<PathBuf>> {
        let Some(dir) = &self.flight_dir else {
            return Ok(None);
        };
        fs::create_dir_all(dir)?;
        let ts_ms = SystemTime::UNIX_EPOCH
            .elapsed()
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        // Daemons share the default flight directory, so the name carries
        // the process id and a process-wide sequence number.
        let seq = DUMP_SEQ.fetch_add(1, Ordering::Relaxed);
        let path = dir.join(format!(
            "flight-{ts_ms}-{}-{seq}.ndjson",
            std::process::id()
        ));
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"schema\":\"{FLIGHT_SCHEMA}\",\"reason\":\"{reason}\",\"trace_id\":\"{}\",\
             \"ts_ms\":{ts_ms},\"uptime_ms\":{},\"shards\":{}}}",
            format_trace_id(trace_id),
            self.uptime_ms(),
            self.shards.len(),
        );
        for shard in &self.shards {
            for record in shard.flight.snapshot() {
                let _ = writeln!(out, "{}", record.to_json().emit());
            }
        }
        // Write-then-rename, so a reader never sees a half-written dump.
        let tmp = path.with_extension("ndjson.tmp");
        fs::write(&tmp, &out)?;
        fs::rename(&tmp, &path)?;
        log_warn!(
            "serve",
            "flight recorder dumped to {} (reason: {reason})",
            path.display()
        );
        Ok(Some(path))
    }

    /// The rollup document served by the `telemetry` verb and written
    /// (one line per interval) by `--telemetry-out`. Includes merged
    /// bucket counts so downstream tools can re-aggregate across
    /// processes and time.
    pub fn rollup_json(&self) -> Json {
        let shards: Vec<Json> = self
            .shards
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::obj(vec![
                    ("shard", Json::Num(i as f64)),
                    ("total", rollup_to_json(&s.total.rollup(), s.total.edges())),
                    ("queue", rollup_to_json(&s.queue.rollup(), s.queue.edges())),
                    ("solve", rollup_to_json(&s.solve.rollup(), s.solve.edges())),
                ])
            })
            .collect();
        Json::obj(vec![
            ("schema", Json::Str(TELEMETRY_SCHEMA.to_string())),
            (
                "schema_version",
                Json::Num(f64::from(TELEMETRY_SCHEMA_VERSION)),
            ),
            ("uptime_ms", Json::Num(self.uptime_ms() as f64)),
            (
                "slo",
                Json::obj(vec![
                    ("threshold_us", Json::Num(self.slo_us as f64)),
                    ("target", Json::Num(SLO_TARGET)),
                ]),
            ),
            ("shards", Json::Arr(shards)),
        ])
    }
}

/// Serializes one window rollup for the wire.
fn rollup_to_json(r: &WindowRollup, edges: &[u64]) -> Json {
    Json::obj(vec![
        ("count", Json::Num(r.count as f64)),
        ("sum_us", Json::Num(r.sum as f64)),
        ("over_slo", Json::Num(r.over_slo as f64)),
        ("p50_us", Json::Num(r.p50 as f64)),
        ("p99_us", Json::Num(r.p99 as f64)),
        ("p999_us", Json::Num(r.p999 as f64)),
        ("burn_rate", Json::Num(r.burn_rate)),
        (
            "edges",
            Json::Arr(edges.iter().map(|&e| Json::Num(e as f64)).collect()),
        ),
        (
            "buckets",
            Json::Arr(r.buckets.iter().map(|&b| Json::Num(b as f64)).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A served request whose every other field derives from `trace_id`.
    fn record(trace_id: u64, shard: usize) -> RequestTelemetry {
        RequestTelemetry {
            trace_id,
            shard,
            fingerprint: splitmix64(trace_id),
            queue_wait_us: trace_id % 1_000,
            solve_us: 2 * (trace_id % 1_000),
            cache_tier: "solve",
            solver_path: format!("csr+{trace_id}"),
            outcome: FlightOutcome::Ok,
        }
    }

    /// An empty per-test directory under the system temp dir.
    fn scratch_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("vstack-flight-test-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn minted_trace_ids_are_unique_and_nonzero() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            let id = mint_trace_id();
            assert_ne!(id, 0);
            assert!(seen.insert(id), "duplicate trace id {id:#x}");
        }
    }

    #[test]
    fn flight_ring_keeps_the_last_records_in_order() {
        let ring = FlightRecorder::default();
        for i in 0..(FLIGHT_SLOTS as u64 + 100) {
            ring.record(i, &record(i + 1, 0));
        }
        let records = ring.snapshot();
        assert_eq!(records.len(), FLIGHT_SLOTS);
        // Oldest surviving record is number 100 (0-based).
        assert_eq!(records[0].idx, 100);
        assert_eq!(records[0].ts_us, 100);
        assert_eq!(records[0].request, record(101, 0));
        let last = records.last().unwrap();
        assert_eq!(last.idx, FLIGHT_SLOTS as u64 + 99);
        assert!(records.windows(2).all(|w| w[0].idx < w[1].idx));
    }

    /// Four writers record while a reader snapshots: every snapshot holds
    /// at most `FLIGHT_SLOTS` whole records, in consecutive `idx` order,
    /// each one consistent with its trace id.
    #[test]
    fn snapshots_under_concurrent_writers_hold_whole_records() {
        const WRITERS: u64 = 4;
        const PER_WRITER: u64 = 2_000;
        let ring = FlightRecorder::default();
        let finished = AtomicU64::new(0);
        let start = std::sync::Barrier::new(WRITERS as usize + 1);
        std::thread::scope(|scope| {
            for w in 0..WRITERS {
                let (ring, finished, start) = (&ring, &finished, &start);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..PER_WRITER {
                        ring.record(i, &record(1 + w * PER_WRITER + i, 0));
                    }
                    finished.fetch_add(1, Ordering::Release);
                });
            }
            scope.spawn(|| {
                start.wait();
                let mut snapshots = 0;
                while snapshots == 0 || finished.load(Ordering::Acquire) < WRITERS {
                    let records = ring.snapshot();
                    assert!(records.len() <= FLIGHT_SLOTS, "{}", records.len());
                    assert!(records.windows(2).all(|w| w[1].idx == w[0].idx + 1));
                    for r in &records {
                        assert_eq!(r.request, record(r.request.trace_id, 0));
                    }
                    snapshots += 1;
                }
            });
        });
        let records = ring.snapshot();
        assert_eq!(records.len(), FLIGHT_SLOTS);
        assert_eq!(records.last().unwrap().idx, WRITERS * PER_WRITER - 1);
    }

    #[test]
    fn dump_writes_header_and_records() {
        let dir = scratch_dir("dump");
        let pt = PoolTelemetry::new(2, 1_000, Some(dir.clone()));
        let served = RequestTelemetry {
            cache_tier: "mem",
            ..record(0xdead_beef, 1)
        };
        pt.record_request(&served);
        let path = pt.dump("test", 0xdead_beef).unwrap().unwrap();
        let text = fs::read_to_string(&path).unwrap();
        let mut lines = text.lines();
        let header = Json::parse(lines.next().unwrap()).unwrap();
        assert_eq!(
            header.get("schema").and_then(Json::as_str),
            Some(FLIGHT_SCHEMA)
        );
        assert_eq!(header.get("reason").and_then(Json::as_str), Some("test"));
        let line = Json::parse(lines.next().unwrap()).unwrap();
        assert!(lines.next().is_none(), "one line per record");
        // The line carries the reply's telemetry block, key for key.
        let Json::Obj(block) = served.to_json() else {
            panic!("the telemetry block is an object");
        };
        assert_eq!(block.len(), 6);
        for (key, value) in &block {
            assert_eq!(line.get(key), Some(value), "{key}");
        }
        assert_eq!(
            line.get("trace_id").and_then(Json::as_str),
            Some("00000000deadbeef")
        );
        assert_eq!(
            line.get("fingerprint").and_then(Json::as_str),
            Some(ScenarioRequest::format_fingerprint(served.fingerprint).as_str())
        );
        assert_eq!(line.get("outcome").and_then(Json::as_str), Some("ok"));
        assert_eq!(line.get("idx").and_then(Json::as_f64), Some(0.0));
        assert!(line.get("ts_us").is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    /// Two daemons on the default flight directory each keep their own
    /// dump, even in the same millisecond.
    #[test]
    fn pools_sharing_a_directory_never_overwrite_each_other() {
        let dir = scratch_dir("shared");
        let pools = [1, 2].map(|trace_id| {
            let pool = PoolTelemetry::new(1, 1_000, Some(dir.clone()));
            pool.record_request(&record(trace_id, 0));
            pool
        });
        let paths = pools.map(|pool| pool.dump("test", 0).unwrap().unwrap());
        assert_ne!(paths[0], paths[1]);
        let dumps = fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                let name = e.as_ref().unwrap().file_name();
                let name = name.to_string_lossy();
                name.starts_with("flight-") && name.ends_with(".ndjson")
            })
            .count();
        assert_eq!(dumps, 2);
        for (path, trace_id) in paths.iter().zip(["0000000000000001", "0000000000000002"]) {
            let text = fs::read_to_string(path).unwrap();
            let line = Json::parse(text.lines().nth(1).unwrap()).unwrap();
            assert_eq!(line.get("trace_id").and_then(Json::as_str), Some(trace_id));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn shed_spike_fires_once_on_crossing() {
        let st = ShardTelemetry::new(1_000);
        let mut fired = 0;
        for _ in 0..SHED_SPIKE_MIN_DECISIONS {
            if st.note_admission(false) {
                fired += 1;
            }
        }
        assert_eq!(fired, 0, "no sheds, no spike");
        for _ in 0..64 {
            if st.note_admission(true) {
                fired += 1;
            }
        }
        assert_eq!(fired, 1, "crossing the threshold fires exactly once");
    }

    #[test]
    fn rollup_json_has_schema_and_per_shard_phases() {
        let pt = PoolTelemetry::new(1, 1_000, None);
        pt.record_request(&RequestTelemetry {
            queue_wait_us: 100,
            solve_us: 900,
            ..record(7, 0)
        });
        let doc = pt.rollup_json();
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some(TELEMETRY_SCHEMA)
        );
        let slo = doc.get("slo").unwrap();
        assert_eq!(slo.get("target").and_then(Json::as_f64), Some(0.999));
        let shards = doc.get("shards").and_then(Json::as_arr).unwrap();
        assert_eq!(shards.len(), 1);
        let total = shards[0].get("total").unwrap();
        assert_eq!(total.get("count").and_then(Json::as_f64), Some(1.0));
        // queue 100 + solve 900 = total 1000.
        assert_eq!(total.get("sum_us").and_then(Json::as_f64), Some(1000.0));
        assert!(shards[0].get("queue").is_some() && shards[0].get("solve").is_some());
    }
}
