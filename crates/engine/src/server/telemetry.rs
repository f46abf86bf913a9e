//! Request-scoped telemetry for the serving tier: trace-ID minting, the
//! per-request context carried from admission to solve, windowed SLO
//! rollups, and the per-shard black-box flight recorder.
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
//! # Windowed SLO rollups
//!
//! Each shard owns three [`WindowedHistogram`]s (total wall, queue wait,
//! solve time) over a rolling minute of 1-second windows. The daemon's
//! `{"op":"telemetry"}` verb and the `--telemetry-out` writer serialize
//! their rollups (p50/p99/p999, SLO burn rate, merged buckets) per shard.
//!
//! # Flight recorder
//!
//! A per-shard ring of the last [`FLIGHT_SLOTS`] request records. Writes
//! are lock-free (a head `fetch_add` claims a slot; a per-slot seqlock
//! makes reads tear-evident) and always on — the ring costs a few
//! hundred relaxed atomic stores per request. On a worker panic, a
//! deadline miss, or a shed-rate spike the pool dumps every shard's ring
//! to `flight-<ts>-<n>.ndjson` under the configured flight directory
//! (debounced so a panic storm produces one dump per
//! [`DUMP_DEBOUNCE`], not one per panic). `{"op":"flightdump"}` forces a
//! dump on demand.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant, SystemTime};

use vstack_obs::log_warn;
use vstack_obs::metrics::{WindowRollup, WindowedHistogram};

use crate::json::Json;

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
}

/// Phase breakdown and provenance of one served request; attached to the
/// NDJSON reply as the additive `telemetry` block.
#[derive(Debug, Clone)]
pub struct RequestTelemetry {
    /// The reply's trace ID (the caller's own, even on a dedup join).
    pub trace_id: u64,
    /// Home shard that served (or would have served) the request.
    pub shard: usize,
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
}

impl RequestTelemetry {
    /// Telemetry for a request that never reached a worker (shed, closed,
    /// invalid): zero phase timings, no tier, no solver.
    pub fn unserved(trace_id: u64, shard: usize) -> RequestTelemetry {
        RequestTelemetry {
            trace_id,
            shard,
            queue_wait_us: 0,
            solve_us: 0,
            cache_tier: "none",
            solver_path: String::new(),
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
}

/// Why a flight record exists / how its request ended.
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
    /// Shed during drain.
    Drained,
}

impl FlightOutcome {
    fn code(self) -> u64 {
        match self {
            FlightOutcome::Ok => 0,
            FlightOutcome::EngineError => 1,
            FlightOutcome::Panicked => 2,
            FlightOutcome::DeadlineMiss => 3,
            FlightOutcome::Drained => 4,
        }
    }

    fn label_of(code: u64) -> &'static str {
        match code {
            0 => "ok",
            1 => "engine_error",
            2 => "panic",
            3 => "deadline_miss",
            4 => "drained",
            _ => "unknown",
        }
    }
}

/// One record as read back out of the ring.
#[derive(Debug, Clone)]
pub struct FlightRecord {
    /// Monotone per-ring sequence number (claim order).
    pub idx: u64,
    /// Microseconds since the pool started.
    pub ts_us: u64,
    /// The request's trace ID.
    pub trace_id: u64,
    /// The scenario fingerprint.
    pub fingerprint: u64,
    /// Queue-wait phase, microseconds.
    pub queue_wait_us: u64,
    /// Solve phase, microseconds.
    pub solve_us: u64,
    /// Outcome code (see [`FlightOutcome`]).
    pub outcome: u64,
    /// Cache-tier label.
    pub cache_tier: &'static str,
}

/// A ring slot: a seqlock (odd = write in progress) over plain atomic
/// fields. Tier is encoded as a small integer.
#[derive(Default)]
struct Slot {
    seq: AtomicU64,
    idx: AtomicU64,
    ts_us: AtomicU64,
    trace_id: AtomicU64,
    fingerprint: AtomicU64,
    queue_wait_us: AtomicU64,
    solve_us: AtomicU64,
    outcome: AtomicU64,
    tier: AtomicU64,
}

fn tier_code(tier: &str) -> u64 {
    match tier {
        "mem" => 0,
        "disk" => 1,
        "solve" => 2,
        _ => 3,
    }
}

fn tier_label(code: u64) -> &'static str {
    match code {
        0 => "mem",
        1 => "disk",
        2 => "solve",
        _ => "none",
    }
}

/// The always-on per-shard black box: a lock-free ring of the last
/// [`FLIGHT_SLOTS`] request records.
///
/// Writers claim a slot with a `fetch_add` on the head and publish
/// through the slot's seqlock; readers ([`FlightRecorder::snapshot`])
/// retry slots whose sequence is odd or moves underfoot. With more than
/// one writer racing onto the *same* slot (requires `FLIGHT_SLOTS`
/// intervening claims mid-write — vanishingly rare) a record could be
/// assembled from both writes; the seqlock makes that tear *evident* in
/// the common case and the data is diagnostic-only, so this is accepted
/// rather than paying for a lock on the request path.
pub struct FlightRecorder {
    head: AtomicU64,
    slots: Vec<Slot>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new()
    }
}

impl FlightRecorder {
    /// An empty ring of [`FLIGHT_SLOTS`] slots.
    pub fn new() -> FlightRecorder {
        FlightRecorder {
            head: AtomicU64::new(0),
            slots: (0..FLIGHT_SLOTS).map(|_| Slot::default()).collect(),
        }
    }

    /// Records one request. Lock-free; called on the request path.
    pub fn record(
        &self,
        ts_us: u64,
        telemetry: &RequestTelemetry,
        fingerprint: u64,
        outcome: FlightOutcome,
    ) {
        let idx = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(idx % FLIGHT_SLOTS as u64) as usize];
        slot.seq.fetch_add(1, Ordering::AcqRel); // odd: write in progress
        slot.idx.store(idx + 1, Ordering::Relaxed); // +1 so 0 = never written
        slot.ts_us.store(ts_us, Ordering::Relaxed);
        slot.trace_id.store(telemetry.trace_id, Ordering::Relaxed);
        slot.fingerprint.store(fingerprint, Ordering::Relaxed);
        slot.queue_wait_us
            .store(telemetry.queue_wait_us, Ordering::Relaxed);
        slot.solve_us.store(telemetry.solve_us, Ordering::Relaxed);
        slot.outcome.store(outcome.code(), Ordering::Relaxed);
        slot.tier
            .store(tier_code(telemetry.cache_tier), Ordering::Relaxed);
        slot.seq.fetch_add(1, Ordering::AcqRel); // even: stable
    }

    /// Reads every stable record, oldest first. Slots being written
    /// concurrently are skipped after a bounded retry.
    pub fn snapshot(&self) -> Vec<FlightRecord> {
        let mut records: Vec<FlightRecord> = Vec::with_capacity(FLIGHT_SLOTS);
        for slot in &self.slots {
            for _ in 0..4 {
                let seq0 = slot.seq.load(Ordering::Acquire);
                if seq0 % 2 == 1 {
                    std::hint::spin_loop();
                    continue;
                }
                let idx = slot.idx.load(Ordering::Relaxed);
                if idx == 0 {
                    break; // never written
                }
                let rec = FlightRecord {
                    idx: idx - 1,
                    ts_us: slot.ts_us.load(Ordering::Relaxed),
                    trace_id: slot.trace_id.load(Ordering::Relaxed),
                    fingerprint: slot.fingerprint.load(Ordering::Relaxed),
                    queue_wait_us: slot.queue_wait_us.load(Ordering::Relaxed),
                    solve_us: slot.solve_us.load(Ordering::Relaxed),
                    outcome: slot.outcome.load(Ordering::Relaxed),
                    cache_tier: tier_label(slot.tier.load(Ordering::Relaxed)),
                };
                if slot.seq.load(Ordering::Acquire) == seq0 {
                    records.push(rec);
                    break;
                }
            }
        }
        records.sort_by_key(|r| r.idx);
        records
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
    fn new(slo_us: u64, slo_target: f64) -> ShardTelemetry {
        ShardTelemetry {
            total: WindowedHistogram::per_second_minute(slo_us, slo_target),
            queue: WindowedHistogram::per_second_minute(slo_us, slo_target),
            solve: WindowedHistogram::per_second_minute(slo_us, slo_target),
            flight: FlightRecorder::new(),
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
    slo_target: f64,
    /// Millis-since-start of the last automatic dump (debounce state).
    last_dump_ms: AtomicU64,
    /// Suffix counter making dump filenames unique within a process.
    dump_seq: AtomicU64,
}

impl PoolTelemetry {
    /// Telemetry for `shards` shards judged against `slo_us` /
    /// `slo_target`; dumps land in `flight_dir` (never dumped if `None`).
    pub fn new(
        shards: usize,
        slo_us: u64,
        slo_target: f64,
        flight_dir: Option<PathBuf>,
    ) -> PoolTelemetry {
        PoolTelemetry {
            started: Instant::now(),
            shards: (0..shards.max(1))
                .map(|_| ShardTelemetry::new(slo_us, slo_target))
                .collect(),
            flight_dir,
            slo_us,
            slo_target,
            last_dump_ms: AtomicU64::new(u64::MAX), // "never dumped"
            dump_seq: AtomicU64::new(0),
        }
    }

    /// Microseconds since the pool started (the flight-record clock).
    pub fn now_us(&self) -> u64 {
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

    /// Records one finished (or failed) request: windows + flight ring.
    pub fn record_request(
        &self,
        telemetry: &RequestTelemetry,
        fingerprint: u64,
        outcome: FlightOutcome,
    ) {
        let shard = &self.shards[telemetry.shard.min(self.shards.len() - 1)];
        shard
            .total
            .observe(telemetry.queue_wait_us + telemetry.solve_us);
        shard.queue.observe(telemetry.queue_wait_us);
        shard.solve.observe(telemetry.solve_us);
        shard
            .flight
            .record(self.now_us(), telemetry, fingerprint, outcome);
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
        let seq = self.dump_seq.fetch_add(1, Ordering::Relaxed);
        let path = dir.join(format!("flight-{ts_ms}-{seq}.ndjson"));
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"schema\":\"{FLIGHT_SCHEMA}\",\"reason\":\"{reason}\",\"trace_id\":\"{}\",\
             \"ts_ms\":{ts_ms},\"uptime_ms\":{},\"shards\":{}}}",
            format_trace_id(trace_id),
            self.uptime_ms(),
            self.shards.len(),
        );
        for (i, shard) in self.shards.iter().enumerate() {
            for r in shard.flight.snapshot() {
                let _ = writeln!(
                    out,
                    "{{\"shard\":{i},\"idx\":{},\"ts_us\":{},\"trace_id\":\"{}\",\
                     \"fingerprint\":\"{:016x}\",\"queue_wait_us\":{},\"solve_us\":{},\
                     \"cache_tier\":\"{}\",\"outcome\":\"{}\"}}",
                    r.idx,
                    r.ts_us,
                    format_trace_id(r.trace_id),
                    r.fingerprint,
                    r.queue_wait_us,
                    r.solve_us,
                    r.cache_tier,
                    FlightOutcome::label_of(r.outcome),
                );
            }
        }
        write_atomically(&path, &out)?;
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
                    ("target", Json::Num(self.slo_target)),
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

/// Write-then-rename so a reader never sees a half-written dump.
fn write_atomically(path: &Path, contents: &str) -> io::Result<()> {
    let tmp = path.with_extension("ndjson.tmp");
    fs::write(&tmp, contents)?;
    fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let ring = FlightRecorder::new();
        for i in 0..(FLIGHT_SLOTS as u64 + 100) {
            let t = RequestTelemetry {
                trace_id: i + 1,
                shard: 0,
                queue_wait_us: i,
                solve_us: 2 * i,
                cache_tier: "solve",
                solver_path: String::new(),
            };
            ring.record(i, &t, 0xfeed, FlightOutcome::Ok);
        }
        let records = ring.snapshot();
        assert_eq!(records.len(), FLIGHT_SLOTS);
        // Oldest surviving record is number 100 (0-based).
        assert_eq!(records[0].idx, 100);
        assert_eq!(records[0].trace_id, 101);
        let last = records.last().unwrap();
        assert_eq!(last.idx, FLIGHT_SLOTS as u64 + 99);
        assert!(records.windows(2).all(|w| w[0].idx < w[1].idx));
    }

    #[test]
    fn dump_writes_header_and_records() {
        let dir = std::env::temp_dir().join(format!("vstack-flight-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let pt = PoolTelemetry::new(2, 1_000, 0.999, Some(dir.clone()));
        let t = RequestTelemetry {
            trace_id: 0xdead_beef,
            shard: 1,
            queue_wait_us: 10,
            solve_us: 20,
            cache_tier: "mem",
            solver_path: "csr+f64".to_string(),
        };
        pt.record_request(&t, 0xabc, FlightOutcome::Ok);
        let path = pt.dump("test", 0xdead_beef).unwrap().unwrap();
        let text = fs::read_to_string(&path).unwrap();
        let mut lines = text.lines();
        let header = Json::parse(lines.next().unwrap()).unwrap();
        assert_eq!(
            header.get("schema").and_then(Json::as_str),
            Some(FLIGHT_SCHEMA)
        );
        assert_eq!(header.get("reason").and_then(Json::as_str), Some("test"));
        let record = Json::parse(lines.next().unwrap()).unwrap();
        assert_eq!(
            record.get("trace_id").and_then(Json::as_str),
            Some("00000000deadbeef")
        );
        assert_eq!(record.get("cache_tier").and_then(Json::as_str), Some("mem"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn shed_spike_fires_once_on_crossing() {
        let st = ShardTelemetry::new(1_000, 0.999);
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
        let pt = PoolTelemetry::new(1, 1_000, 0.999, None);
        let t = RequestTelemetry {
            trace_id: 7,
            shard: 0,
            queue_wait_us: 100,
            solve_us: 900,
            cache_tier: "solve",
            solver_path: "csr+f64".to_string(),
        };
        pt.record_request(&t, 1, FlightOutcome::Ok);
        let doc = pt.rollup_json();
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some(TELEMETRY_SCHEMA)
        );
        let shards = doc.get("shards").and_then(Json::as_arr).unwrap();
        assert_eq!(shards.len(), 1);
        let total = shards[0].get("total").unwrap();
        assert_eq!(total.get("count").and_then(Json::as_f64), Some(1.0));
        // queue 100 + solve 900 = total 1000.
        assert_eq!(total.get("sum_us").and_then(Json::as_f64), Some(1000.0));
        assert!(shards[0].get("queue").is_some() && shards[0].get("solve").is_some());
    }
}
