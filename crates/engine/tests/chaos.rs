//! Chaos harness (requires `--features chaos`): injects cache-store
//! failures, torn writes, worker panics and slow solves into the live
//! serving stack and asserts the failure-containment guarantees hold.
//!
//! The injection points are process-global atomics, so every test takes
//! the `CHAOS` lock and disarms on entry and exit — armed faults must
//! never leak across tests.

#![cfg(feature = "chaos")]

use std::fs;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use vstack_engine::json::Json;
use vstack_engine::server::{chaos, Bind, Daemon, DaemonConfig, ShardConfig};
use vstack_engine::{Engine, EngineConfig, Outcome, ScenarioRequest};

static CHAOS: Mutex<()> = Mutex::new(());

/// Serializes chaos tests and guarantees a disarmed exit even on panic.
struct Armed(#[allow(dead_code)] MutexGuard<'static, ()>);

impl Armed {
    fn begin() -> Armed {
        let guard = CHAOS
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        chaos::reset();
        Armed(guard)
    }
}

impl Drop for Armed {
    fn drop(&mut self) {
        chaos::reset();
    }
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vstack-chaos-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn request(imbalance: f64) -> ScenarioRequest {
    ScenarioRequest::voltage_stacked(2, imbalance).quick()
}

fn start_daemon(deadline_ms: u64) -> Daemon {
    start_daemon_with_flight(deadline_ms, None)
}

fn start_daemon_with_flight(deadline_ms: u64, flight_dir: Option<PathBuf>) -> Daemon {
    Daemon::start(DaemonConfig {
        bind: Bind::Tcp("127.0.0.1:0".to_string()),
        shard: ShardConfig {
            shards: 1,
            queue_capacity: 8,
            lru_capacity: 32,
            cache_dir: None,
            flight_dir,
            ..ShardConfig::default()
        },
        default_deadline_ms: deadline_ms,
        max_deadline_ms: 300_000,
        ..DaemonConfig::default()
    })
    .expect("daemon start")
}

fn one(conn: &mut BufReader<TcpStream>, line: &str) -> Json {
    conn.get_mut()
        .write_all(format!("{line}\n").as_bytes())
        .expect("send request");
    let mut response = String::new();
    conn.read_line(&mut response).expect("read response");
    assert!(!response.is_empty(), "connection closed early");
    Json::parse(&response).expect("response is JSON")
}

fn connect(daemon: &Daemon) -> BufReader<TcpStream> {
    let stream = TcpStream::connect(daemon.tcp_addr().expect("tcp")).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("read timeout");
    BufReader::new(stream)
}

fn error_code(response: &Json) -> Option<&str> {
    response
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(Json::as_str)
}

/// A poisoned (panicking) request gets `{"error":{"code":"internal"}}`,
/// the panic counter moves, and the same shard keeps serving afterwards —
/// the daemon does not die.
#[test]
fn worker_panic_is_contained_and_shard_survives() {
    let _armed = Armed::begin();
    let daemon = start_daemon(30_000);
    let mut conn = connect(&daemon);
    let panics_before = vstack_obs::metrics::global().serve_worker_panics.get();

    chaos::panic_next_solves(1);
    let poisoned = one(
        &mut conn,
        r#"{"op":"solve","id":1,"scenario":{"solve":"vs","layers":2,"imbalance":0.111,"fidelity":"quick"}}"#,
    );
    assert_eq!(error_code(&poisoned), Some("internal"), "{poisoned:?}");
    assert!(vstack_obs::metrics::global().serve_worker_panics.get() > panics_before);

    // Same daemon, same (only) shard: still solving.
    let healthy = one(
        &mut conn,
        r#"{"op":"solve","id":2,"scenario":{"solve":"vs","layers":2,"imbalance":0.222,"fidelity":"quick"}}"#,
    );
    assert_eq!(healthy.get("ok"), Some(&Json::Bool(true)), "{healthy:?}");
    daemon.shutdown(true);
}

/// An injected cache-store failure costs persistence, never the request:
/// the solve still answers ok, and the next flush retries cleanly.
#[test]
fn cache_store_failure_does_not_fail_the_request() {
    let _armed = Armed::begin();
    let dir = scratch_dir("store-fail");
    let mut engine = Engine::new(EngineConfig {
        cache_dir: Some(dir.clone()),
        ..EngineConfig::default()
    })
    .expect("open engine");

    chaos::fail_next_cache_stores(1);
    let result = engine.query(&request(0.3)).expect("solve succeeds");
    assert_eq!(result.outcome, Outcome::Cold);
    assert!(
        engine.flush().is_err(),
        "first flush hits the injected fault"
    );
    // Disarmed now: the dirty entry is still queued and flushes cleanly.
    assert_eq!(engine.flush().expect("retry flush"), 1);
}

/// A torn store (the moral `kill -9` mid-write) reports success, but the
/// reopened cache detects the damage, quarantines the file, and re-solves
/// cold — the kill-mid-store acceptance path, driven by injection.
#[test]
fn torn_store_is_quarantined_on_reload() {
    let _armed = Armed::begin();
    let dir = scratch_dir("torn-store");
    let mut engine = Engine::new(EngineConfig {
        cache_dir: Some(dir.clone()),
        ..EngineConfig::default()
    })
    .expect("open engine");
    engine.query(&request(0.3)).expect("cold solve");
    chaos::tear_next_cache_stores(1);
    engine.flush().expect("torn store still reports success");
    drop(engine);

    let mut engine = Engine::new(EngineConfig {
        cache_dir: Some(dir.clone()),
        ..EngineConfig::default()
    })
    .expect("reopen engine");
    let result = engine.query(&request(0.3)).expect("re-solve");
    assert_eq!(result.outcome, Outcome::Cold, "torn entry must not serve");
    assert_eq!(engine.stats().corrupt_rejects, 1);
    let quarantined = fs::read_dir(&dir)
        .expect("cache dir")
        .map(|e| e.expect("entry").path())
        .filter(|p: &PathBuf| p.to_string_lossy().ends_with(".corrupt"))
        .count();
    assert_eq!(quarantined, 1, "torn entry must be quarantined");
}

/// Slowed solves push an achievable-looking deadline past its budget:
/// the client gets `deadline_exceeded` within deadline + grace, never a
/// hang.
#[test]
fn slow_solves_turn_into_bounded_deadline_errors() {
    let _armed = Armed::begin();
    let daemon = start_daemon(30_000);
    let mut conn = connect(&daemon);

    chaos::delay_solves_us(300_000);
    let started = Instant::now();
    let response = one(
        &mut conn,
        r#"{"op":"solve","deadline_ms":50,"scenario":{"solve":"vs","layers":2,"imbalance":0.444,"fidelity":"quick"}}"#,
    );
    let elapsed = started.elapsed();
    assert_eq!(
        error_code(&response),
        Some("deadline_exceeded"),
        "{response:?}"
    );
    assert!(
        elapsed < Duration::from_secs(5),
        "deadline answer must be bounded, took {elapsed:?}"
    );
    chaos::reset();
    daemon.shutdown(true);
}

/// The flight-recorder dump files under `dir`, each parsed into
/// `(header, records)`.
fn read_flight_dumps(dir: &PathBuf) -> Vec<(Json, Vec<Json>)> {
    let mut dumps = Vec::new();
    for entry in fs::read_dir(dir).expect("flight dir") {
        let path = entry.expect("entry").path();
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        if !(name.starts_with("flight-") && name.ends_with(".ndjson")) {
            continue;
        }
        let text = fs::read_to_string(&path).expect("read dump");
        let mut lines = text.lines();
        let header = Json::parse(lines.next().expect("header")).expect("header parses");
        assert_eq!(
            header.get("schema").and_then(Json::as_str),
            Some("vstack-flight/1"),
            "{name}"
        );
        let records = lines
            .map(|l| Json::parse(l).expect("record parses"))
            .collect();
        dumps.push((header, records));
    }
    dumps
}

fn reply_trace_id(reply: &Json) -> String {
    reply
        .get("telemetry")
        .and_then(|t| t.get("trace_id"))
        .and_then(Json::as_str)
        .expect("reply carries telemetry.trace_id")
        .to_string()
}

/// A worker panic triggers an automatic flight-recorder dump whose
/// header names the reason and whose records include the poisoned
/// request's trace id — the black box survives the crash it describes.
#[test]
fn worker_panic_writes_flight_dump_with_offending_trace() {
    let _armed = Armed::begin();
    let dir = scratch_dir("flight-panic");
    fs::create_dir_all(&dir).expect("mkdir");
    let daemon = start_daemon_with_flight(30_000, Some(dir.clone()));
    let mut conn = connect(&daemon);

    chaos::panic_next_solves(1);
    let poisoned = one(
        &mut conn,
        r#"{"op":"solve","scenario":{"solve":"vs","layers":2,"imbalance":0.777,"fidelity":"quick"}}"#,
    );
    assert_eq!(error_code(&poisoned), Some("internal"), "{poisoned:?}");
    let trace_id = reply_trace_id(&poisoned);

    let dumps = read_flight_dumps(&dir);
    assert!(!dumps.is_empty(), "panic must write a flight dump");
    let (header, records) = dumps
        .iter()
        .find(|(h, _)| h.get("reason").and_then(Json::as_str) == Some("worker_panic"))
        .expect("a worker_panic dump exists");
    assert_eq!(
        header.get("trace_id").and_then(Json::as_str),
        Some(trace_id.as_str()),
        "dump header names the offending trace"
    );
    let offending = records
        .iter()
        .find(|r| r.get("trace_id").and_then(Json::as_str) == Some(trace_id.as_str()))
        .expect("dump records include the poisoned request");
    assert_eq!(
        offending.get("outcome").and_then(Json::as_str),
        Some("panic")
    );

    daemon.shutdown(true);
    let _ = fs::remove_dir_all(&dir);
}

/// A deadline miss (slow solve under a short deadline) also triggers an
/// automatic dump carrying the missed request's trace id.
#[test]
fn deadline_miss_writes_flight_dump_with_offending_trace() {
    let _armed = Armed::begin();
    let dir = scratch_dir("flight-deadline");
    fs::create_dir_all(&dir).expect("mkdir");
    let daemon = start_daemon_with_flight(30_000, Some(dir.clone()));
    let mut conn = connect(&daemon);

    chaos::delay_solves_us(300_000);
    let missed = one(
        &mut conn,
        r#"{"op":"solve","deadline_ms":50,"scenario":{"solve":"vs","layers":2,"imbalance":0.888,"fidelity":"quick"}}"#,
    );
    assert_eq!(error_code(&missed), Some("deadline_exceeded"), "{missed:?}");
    let trace_id = reply_trace_id(&missed);
    chaos::reset();

    let dumps = read_flight_dumps(&dir);
    let miss_dump = dumps
        .iter()
        .find(|(h, _)| h.get("reason").and_then(Json::as_str) == Some("deadline_miss"))
        .expect("a deadline_miss dump exists");
    assert!(
        miss_dump
            .1
            .iter()
            .any(
                |r| r.get("trace_id").and_then(Json::as_str) == Some(trace_id.as_str())
                    && r.get("outcome").and_then(Json::as_str) == Some("deadline_miss")
            ),
        "dump records include the missed request's trace id {trace_id}"
    );

    daemon.shutdown(true);
    let _ = fs::remove_dir_all(&dir);
}

/// Store failures inside the serving loop (flush-after-solve) are logged
/// and absorbed: the daemon answers ok and keeps serving.
#[test]
fn daemon_survives_cache_store_faults() {
    let _armed = Armed::begin();
    let dir = scratch_dir("daemon-store-fail");
    let daemon = Daemon::start(DaemonConfig {
        bind: Bind::Tcp("127.0.0.1:0".to_string()),
        shard: ShardConfig {
            shards: 1,
            queue_capacity: 8,
            lru_capacity: 32,
            cache_dir: Some(dir.clone()),
            ..ShardConfig::default()
        },
        default_deadline_ms: 30_000,
        max_deadline_ms: 300_000,
        ..DaemonConfig::default()
    })
    .expect("daemon start");
    let mut conn = connect(&daemon);

    chaos::fail_next_cache_stores(1);
    let first = one(
        &mut conn,
        r#"{"op":"solve","scenario":{"solve":"vs","layers":2,"imbalance":0.555,"fidelity":"quick"}}"#,
    );
    assert_eq!(first.get("ok"), Some(&Json::Bool(true)), "{first:?}");
    let second = one(
        &mut conn,
        r#"{"op":"solve","scenario":{"solve":"vs","layers":2,"imbalance":0.666,"fidelity":"quick"}}"#,
    );
    assert_eq!(second.get("ok"), Some(&Json::Bool(true)), "{second:?}");
    daemon.shutdown(true);

    // The second entry (and the retried first, since the worker flushes
    // after every solve and on drain) must have reached the disk segment.
    let stored = fs::read_dir(dir.join("shard-00"))
        .expect("segment")
        .map(|e| e.expect("entry").path())
        .filter(|p: &PathBuf| p.extension().is_some_and(|x| x == "json"))
        .count();
    assert!(stored >= 1, "drain must flush surviving entries");
}
