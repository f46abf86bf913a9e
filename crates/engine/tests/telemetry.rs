//! End-to-end tests of the request-telemetry surface: per-reply
//! `telemetry` blocks, the `telemetry`/`flightdump` verbs, pinned
//! legacy `stats` fields, byte-identical replies across runs once
//! wall-clock fields are canonicalized, and a guard keeping the engine
//! binaries on the leveled `vstack-obs` logger instead of bare
//! `eprintln!`.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use vstack_bench::obs::{zero_wallclock, ZEROED_TRACE_ID};
use vstack_engine::json::Json;
use vstack_engine::server::{Bind, Daemon, DaemonConfig, ShardConfig};

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vstack-telemetry-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

fn start(flight_dir: Option<PathBuf>) -> Daemon {
    Daemon::start(DaemonConfig {
        bind: Bind::Tcp("127.0.0.1:0".to_string()),
        shard: ShardConfig {
            shards: 2,
            queue_capacity: 8,
            lru_capacity: 64,
            cache_dir: None,
            flight_dir,
            ..ShardConfig::default()
        },
        ..DaemonConfig::default()
    })
    .expect("daemon start")
}

fn connect(daemon: &Daemon) -> BufReader<TcpStream> {
    let stream = TcpStream::connect(daemon.tcp_addr().expect("tcp bind")).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("read timeout");
    BufReader::new(stream)
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

fn scenario(imbalance_milli: usize) -> String {
    format!(r#"{{"solve":"vs","layers":2,"imbalance":0.{imbalance_milli:03},"fidelity":"quick"}}"#)
}

/// The reply's `telemetry` block, with basic shape checks applied.
fn telemetry_of(reply: &Json) -> &Json {
    let t = reply.get("telemetry").expect("reply carries telemetry");
    let id = t.get("trace_id").and_then(Json::as_str).expect("trace_id");
    assert_eq!(id.len(), 16, "trace id is 16 hex chars: {id}");
    assert!(id.chars().all(|c| c.is_ascii_hexdigit()));
    assert_ne!(id, ZEROED_TRACE_ID, "trace id must be minted, not zero");
    t
}

fn phase_us(t: &Json, name: &str) -> u64 {
    t.get(name).and_then(Json::as_f64).expect(name) as u64
}

#[test]
fn every_reply_carries_a_consistent_telemetry_block() {
    let daemon = start(None);
    let mut conn = connect(&daemon);

    let sent = Instant::now();
    let cold = one(
        &mut conn,
        &format!(r#"{{"op":"solve","id":1,"scenario":{}}}"#, scenario(420)),
    );
    let wall_us = sent.elapsed().as_micros() as u64;
    assert_eq!(cold.get("ok"), Some(&Json::Bool(true)));
    let t = telemetry_of(&cold);
    assert_eq!(t.get("cache_tier").and_then(Json::as_str), Some("solve"));
    assert!(
        t.get("solver_path")
            .and_then(Json::as_str)
            .is_some_and(|p| !p.is_empty()),
        "solved requests name their solver path"
    );
    let solve_us = phase_us(t, "solve_us");
    let queue_wait_us = phase_us(t, "queue_wait_us");
    assert!(solve_us > 0, "a cold solve takes measurable time");
    assert!(
        queue_wait_us + solve_us <= wall_us,
        "phases ({queue_wait_us} + {solve_us}) must fit in the wall time ({wall_us})"
    );

    // A repeat of the same scenario is served from the memory tier, and
    // its trace id is freshly minted (ids belong to requests, not keys).
    let hit = one(
        &mut conn,
        &format!(r#"{{"op":"solve","id":2,"scenario":{}}}"#, scenario(420)),
    );
    assert_eq!(hit.get("outcome").and_then(Json::as_str), Some("hit"));
    let t2 = telemetry_of(&hit);
    assert_eq!(t2.get("cache_tier").and_then(Json::as_str), Some("mem"));
    assert_ne!(
        t.get("trace_id").and_then(Json::as_str),
        t2.get("trace_id").and_then(Json::as_str)
    );

    // Structured errors carry telemetry too (unserved: tier "none").
    let invalid = one(
        &mut conn,
        r#"{"op":"solve","deadline_ms":1,"scenario":{"solve":"vs","layers":16,"imbalance":0.5}}"#,
    );
    assert_eq!(
        invalid
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("deadline_exceeded")
    );
    telemetry_of(&invalid);

    daemon.shutdown(true);
}

#[test]
fn telemetry_verb_serves_windowed_rollups() {
    let daemon = start(None);
    let mut conn = connect(&daemon);
    for i in 0..3 {
        let reply = one(
            &mut conn,
            &format!(r#"{{"op":"solve","scenario":{}}}"#, scenario(100 + i)),
        );
        assert_eq!(reply.get("ok"), Some(&Json::Bool(true)));
    }

    let reply = one(&mut conn, r#"{"op":"telemetry","id":7}"#);
    assert_eq!(reply.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(reply.get("id").and_then(Json::as_f64), Some(7.0));
    let rollup = reply.get("telemetry").expect("rollup body");
    assert_eq!(
        rollup.get("schema").and_then(Json::as_str),
        Some("vstack-telemetry/1")
    );
    let shards = rollup.get("shards").and_then(Json::as_arr).expect("shards");
    assert_eq!(shards.len(), 2);
    let served: f64 = shards
        .iter()
        .map(|s| {
            let total = s.get("total").expect("total phase");
            for phase in ["total", "queue", "solve"] {
                let doc = s.get(phase).expect("phase rollup");
                for field in [
                    "count",
                    "sum_us",
                    "over_slo",
                    "p50_us",
                    "p99_us",
                    "p999_us",
                    "burn_rate",
                    "edges",
                    "buckets",
                ] {
                    assert!(doc.get(field).is_some(), "phase {phase} missing {field}");
                }
            }
            total.get("count").and_then(Json::as_f64).unwrap()
        })
        .sum();
    assert_eq!(served, 3.0, "windowed rollup covers the served requests");

    daemon.shutdown(true);
}

#[test]
fn flightdump_verb_writes_a_parseable_dump() {
    let dir = scratch_dir("flightdump");
    let daemon = start(Some(dir.clone()));
    let mut conn = connect(&daemon);
    let reply = one(
        &mut conn,
        &format!(r#"{{"op":"solve","scenario":{}}}"#, scenario(555)),
    );
    assert_eq!(reply.get("ok"), Some(&Json::Bool(true)));
    let trace_id = telemetry_of(&reply)
        .get("trace_id")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();

    let dump = one(&mut conn, r#"{"op":"flightdump"}"#);
    assert_eq!(dump.get("ok"), Some(&Json::Bool(true)), "reply: {dump:?}");
    let path = dump
        .get("flightdump")
        .and_then(|d| d.get("path"))
        .and_then(Json::as_str)
        .expect("dump path")
        .to_string();
    let text = std::fs::read_to_string(&path).expect("read dump");
    let mut lines = text.lines();
    let header = Json::parse(lines.next().expect("header line")).expect("header parses");
    assert_eq!(
        header.get("schema").and_then(Json::as_str),
        Some("vstack-flight/1")
    );
    assert_eq!(
        header.get("reason").and_then(Json::as_str),
        Some("on_demand")
    );
    let records: Vec<Json> = lines
        .map(|l| Json::parse(l).expect("record parses"))
        .collect();
    let record = records
        .iter()
        .find(|r| r.get("trace_id").and_then(Json::as_str) == Some(trace_id.as_str()))
        .unwrap_or_else(|| panic!("dump must contain the served request's trace id {trace_id}"));
    // One record feeds both: the dump line repeats the reply's telemetry
    // block on every one of its six keys.
    let Some(Json::Obj(block)) = reply.get("telemetry") else {
        panic!("the telemetry block is an object");
    };
    assert_eq!(block.len(), 6);
    for (key, value) in block {
        assert_eq!(record.get(key), Some(value), "dump key {key}");
    }
    assert_eq!(record.get("fingerprint"), reply.get("fingerprint"));
    assert_eq!(record.get("outcome").and_then(Json::as_str), Some("ok"));

    daemon.shutdown(true);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Without a flight directory the verb answers a structured error, not
/// a panic or a silent success.
#[test]
fn flightdump_without_a_directory_is_unavailable() {
    let daemon = start(None);
    let mut conn = connect(&daemon);
    let dump = one(&mut conn, r#"{"op":"flightdump"}"#);
    assert_eq!(
        dump.get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("unavailable")
    );
    daemon.shutdown(true);
}

/// Satellite (b): the legacy `stats` fields are pinned — additions ride
/// at the end, never in the middle, so dashboards keyed on the prefix
/// keep working.
#[test]
fn stats_fields_stay_pinned_with_additions_at_the_end() {
    let daemon = start(None);
    let mut conn = connect(&daemon);
    let reply = one(&mut conn, r#"{"op":"stats"}"#);
    assert_eq!(reply.get("ok"), Some(&Json::Bool(true)));
    let Some(Json::Obj(fields)) = reply.get("stats") else {
        panic!("stats body is an object");
    };
    let names: Vec<&str> = fields.iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(
        names,
        [
            // The 11 legacy fields, in their original order.
            "schema_version",
            "shards",
            "queued",
            "connections",
            "accepted",
            "shed",
            "dedup_joins",
            "deadline_exceeded",
            "worker_panics",
            "drained_jobs",
            "cache_quarantined",
            // This PR's additions, appended.
            "uptime_ms",
            "telemetry_schema_version",
        ],
        "stats fields are pinned; append new fields at the end only"
    );
    assert_eq!(
        reply
            .get("stats")
            .and_then(|s| s.get("telemetry_schema_version"))
            .and_then(Json::as_f64),
        Some(1.0)
    );
    let uptime = reply
        .get("stats")
        .and_then(|s| s.get("uptime_ms"))
        .and_then(Json::as_f64)
        .expect("uptime_ms");
    assert!(uptime >= 0.0);
    daemon.shutdown(true);
}

/// Two identical single-threaded stdin-mode runs produce byte-identical
/// reply streams once wall-clock fields and trace ids are canonicalized
/// by the shared `zero_wallclock` helper (satellite a).
#[test]
fn stdin_replies_are_byte_identical_across_runs_when_canonicalized() {
    use std::process::{Command, Stdio};

    let run = || -> Vec<String> {
        let mut child = Command::new(env!("CARGO_BIN_EXE_vstack-serve"))
            .env("VSTACK_THREADS", "1")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn vstack-serve");
        let mut stdin = child.stdin.take().expect("piped stdin");
        for (id, imb) in [(1, 310), (2, 640), (3, 310)] {
            writeln!(
                stdin,
                r#"{{"op":"solve","id":{id},"scenario":{}}}"#,
                scenario(imb)
            )
            .expect("write request");
        }
        drop(stdin); // EOF drains the loop.
        let output = child.wait_with_output().expect("serve exits");
        assert!(output.status.success());
        String::from_utf8(output.stdout)
            .expect("utf-8 replies")
            .lines()
            .map(|line| {
                let mut reply = Json::parse(line).expect("reply parses");
                assert!(
                    reply.get("telemetry").is_some(),
                    "stdin replies carry telemetry"
                );
                zero_wallclock(&mut reply);
                reply.emit()
            })
            .collect()
    };

    let (a, b) = (run(), run());
    assert_eq!(a.len(), 3);
    assert_eq!(a, b, "canonicalized reply streams must be byte-identical");
    // The canonicalizer really did strip the minted ids.
    assert!(a[0].contains(ZEROED_TRACE_ID));
}

/// Satellite (c): the engine binaries log through the leveled
/// `vstack-obs` logger; bare `eprintln!` must not creep back in.
#[test]
fn engine_binaries_use_the_leveled_logger_not_eprintln() {
    let bin_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("src/bin");
    let mut checked = 0;
    for entry in std::fs::read_dir(&bin_dir).expect("src/bin exists") {
        let path = entry.expect("entry").path();
        if path.extension().is_none_or(|e| e != "rs") {
            continue;
        }
        checked += 1;
        let source = std::fs::read_to_string(&path).expect("read source");
        for (lineno, line) in source.lines().enumerate() {
            assert!(
                !line.contains("eprintln!"),
                "{}:{}: use vstack_obs::log (warn!/info!/debug!) instead of eprintln!",
                path.display(),
                lineno + 1
            );
        }
    }
    assert!(
        checked >= 1,
        "no binaries found under {}",
        bin_dir.display()
    );
}
