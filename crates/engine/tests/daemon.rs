//! End-to-end tests of the serving daemon over real TCP connections:
//! solve/hit, overload shedding with `retry_after_ms`, deadline
//! enforcement, structured error handling, graceful drain with cache
//! flush — and SIGTERM drain of the stdin connection, idle or with a
//! solve in flight.

use std::fs;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::Duration;

use vstack_engine::json::Json;
use vstack_engine::server::{Bind, Daemon, DaemonConfig, ShardConfig};

/// A fresh per-test scratch directory under the system temp dir.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vstack-daemon-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// The `*.json` cache entries under the daemon's `shard-NN/` segments.
fn shard_entries(dir: &Path) -> Vec<PathBuf> {
    fs::read_dir(dir)
        .expect("cache dir exists")
        .map(|shard| shard.expect("shard dir").path())
        .filter(|p| {
            p.file_name()
                .is_some_and(|n| n.to_string_lossy().starts_with("shard-"))
        })
        .flat_map(|shard| fs::read_dir(shard).expect("segment"))
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect()
}

fn start(shards: usize, queue_capacity: usize, cache_dir: Option<&Path>) -> Daemon {
    Daemon::start(DaemonConfig {
        bind: Bind::Tcp("127.0.0.1:0".to_string()),
        shard: ShardConfig {
            shards,
            queue_capacity,
            lru_capacity: 64,
            cache_dir: cache_dir.map(Path::to_path_buf),
            ..ShardConfig::default()
        },
        ..DaemonConfig::default()
    })
    .expect("daemon start")
}

fn connect(daemon: &Daemon) -> BufReader<TcpStream> {
    let addr = daemon.tcp_addr().expect("tcp bind");
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("read timeout");
    BufReader::new(stream)
}

/// Sends one request line and reads `responses` response lines.
fn roundtrip(conn: &mut BufReader<TcpStream>, line: &str, responses: usize) -> Vec<Json> {
    conn.get_mut()
        .write_all(format!("{line}\n").as_bytes())
        .expect("send request");
    (0..responses)
        .map(|_| {
            let mut response = String::new();
            conn.read_line(&mut response).expect("read response");
            assert!(!response.is_empty(), "connection closed early");
            Json::parse(&response).expect("response is JSON")
        })
        .collect()
}

fn one(conn: &mut BufReader<TcpStream>, line: &str) -> Json {
    roundtrip(conn, line, 1).pop().expect("one response")
}

fn scenario(imbalance_milli: usize) -> String {
    format!(r#"{{"solve":"vs","layers":2,"imbalance":0.{imbalance_milli:03},"fidelity":"quick"}}"#)
}

fn error_code(response: &Json) -> Option<&str> {
    response
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(Json::as_str)
}

#[test]
fn tcp_solve_then_hit_and_structured_errors() {
    let daemon = start(2, 8, None);
    let mut conn = connect(&daemon);

    let r1 = one(
        &mut conn,
        &format!(r#"{{"op":"solve","id":1,"scenario":{}}}"#, scenario(400)),
    );
    assert_eq!(r1.get("ok"), Some(&Json::Bool(true)), "response: {r1:?}");
    assert_eq!(r1.get("outcome").and_then(Json::as_str), Some("cold"));
    let fp = r1.get("fingerprint").cloned().expect("fingerprint");

    let r2 = one(
        &mut conn,
        &format!(r#"{{"op":"solve","id":2,"scenario":{}}}"#, scenario(400)),
    );
    assert_eq!(r2.get("outcome").and_then(Json::as_str), Some("hit"));
    assert_eq!(r2.get("fingerprint"), Some(&fp));

    // Malformed and unknown inputs: structured errors, connection lives.
    let bad = one(&mut conn, "not json at all");
    assert_eq!(error_code(&bad), Some("parse_error"));
    let unknown = one(&mut conn, r#"{"op":"transmogrify"}"#);
    assert_eq!(error_code(&unknown), Some("unknown_op"));
    let invalid = one(
        &mut conn,
        r#"{"op":"solve","scenario":{"solve":"vs","layers":0}}"#,
    );
    assert_eq!(error_code(&invalid), Some("invalid_request"));

    let stats = one(&mut conn, r#"{"op":"stats","id":9}"#);
    assert_eq!(stats.get("ok"), Some(&Json::Bool(true)));
    let body = stats.get("stats").expect("stats body");
    assert_eq!(
        body.get("schema_version").and_then(Json::as_f64),
        Some(f64::from(vstack_engine::SCHEMA_VERSION))
    );

    daemon.shutdown(true);
}

/// 2x-and-beyond overload: a one-worker, one-slot daemon flooded with
/// distinct scenarios must shed — and every rejection carries the
/// `retry_after_ms` hint while at least the first admitted request
/// completes. Nothing hangs: every submitted request gets an answer.
#[test]
fn overload_sheds_with_retry_after_ms() {
    let daemon = start(1, 1, None);
    let mut conn = connect(&daemon);

    const FLOOD: usize = 48;
    let items: Vec<String> = (0..FLOOD)
        .map(|i| format!(r#"{{"id":{i},"scenario":{}}}"#, scenario(100 + i)))
        .collect();
    let batch = format!(r#"{{"op":"batch","requests":[{}]}}"#, items.join(","));
    let responses = roundtrip(&mut conn, &batch, FLOOD);

    let mut ok = 0usize;
    let mut shed = 0usize;
    for response in &responses {
        if response.get("ok") == Some(&Json::Bool(true)) {
            ok += 1;
            continue;
        }
        let code = error_code(response).expect("error code");
        assert_eq!(code, "overloaded", "unexpected failure: {response:?}");
        let retry = response
            .get("error")
            .and_then(|e| e.get("retry_after_ms"))
            .and_then(Json::as_f64);
        let retry = retry.expect("every shed response carries retry_after_ms");
        assert!(
            retry >= 1.0,
            "retry_after_ms must be at least 1, got {retry}"
        );
        shed += 1;
    }
    assert_eq!(ok + shed, FLOOD, "every request answered, none hung");
    assert!(ok >= 1, "the first admitted request must complete");
    assert!(
        shed >= 1,
        "a {FLOOD}-deep flood of a 1-slot queue must shed (ok={ok})"
    );

    daemon.shutdown(true);
}

/// A deadline far below the solve time yields a bounded, structured
/// `deadline_exceeded` — not a hang and not a success.
#[test]
fn impossible_deadline_answers_deadline_exceeded() {
    let daemon = start(1, 4, None);
    let mut conn = connect(&daemon);
    // Full-fidelity 16-layer solve: far more than 1 ms of work.
    let response = one(
        &mut conn,
        r#"{"op":"solve","deadline_ms":1,"scenario":{"solve":"vs","layers":16,"imbalance":0.5}}"#,
    );
    assert_eq!(error_code(&response), Some("deadline_exceeded"));
    daemon.shutdown(true);
}

#[test]
fn bad_deadline_is_invalid_request() {
    let daemon = start(1, 4, None);
    let mut conn = connect(&daemon);
    let response = one(
        &mut conn,
        &format!(
            r#"{{"op":"solve","deadline_ms":-5,"scenario":{}}}"#,
            scenario(250)
        ),
    );
    assert_eq!(error_code(&response), Some("invalid_request"));
    daemon.shutdown(true);
}

/// The shutdown verb: client gets an acknowledgment, the owner observes
/// the request, drain flushes every shard's cache segment, and a new
/// daemon over the same directory serves the result from disk.
#[test]
fn shutdown_verb_drains_and_flushes_cache() {
    let dir = scratch_dir("drain");
    let daemon = start(2, 8, Some(&dir));
    let mut conn = connect(&daemon);
    let solved = one(
        &mut conn,
        &format!(r#"{{"op":"solve","scenario":{}}}"#, scenario(700)),
    );
    assert_eq!(solved.get("ok"), Some(&Json::Bool(true)));

    let ack = one(&mut conn, r#"{"op":"shutdown"}"#);
    assert_eq!(ack.get("shutdown"), Some(&Json::Bool(true)));
    assert!(
        daemon.wait_shutdown_requested(Duration::from_secs(30)),
        "shutdown verb must latch for the owner"
    );
    let snapshot = daemon.shutdown(true);
    assert!(
        snapshot.contains("vstack-obs-metrics"),
        "shutdown returns the final metrics snapshot"
    );
    assert_eq!(
        shard_entries(&dir).len(),
        1,
        "drain must flush the solved entry"
    );

    let daemon = start(2, 8, Some(&dir));
    let mut conn = connect(&daemon);
    let hit = one(
        &mut conn,
        &format!(r#"{{"op":"solve","scenario":{}}}"#, scenario(700)),
    );
    assert_eq!(hit.get("outcome").and_then(Json::as_str), Some("hit"));
    assert_eq!(hit.get("source").and_then(Json::as_str), Some("disk"));
    daemon.shutdown(true);
}

/// Identical scenarios racing on two connections: whether the second
/// joins the in-flight solve (the dedup path) or hits the fresh cache
/// entry, both get coherent success answers for the same fingerprint.
#[test]
fn concurrent_identical_requests_share_one_solve() {
    let daemon = start(1, 2, None);
    let line = format!(r#"{{"op":"solve","scenario":{}}}"#, scenario(900));
    let mut conns: Vec<_> = (0..2).map(|_| connect(&daemon)).collect();
    for conn in &mut conns {
        conn.get_mut()
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
    }
    let mut fingerprints = Vec::new();
    for conn in &mut conns {
        let mut response = String::new();
        conn.read_line(&mut response).expect("read");
        let response = Json::parse(&response).expect("json");
        assert_eq!(response.get("ok"), Some(&Json::Bool(true)));
        fingerprints.push(response.get("fingerprint").cloned());
    }
    assert_eq!(fingerprints[0], fingerprints[1]);
    daemon.shutdown(true);
}

/// A non-UTF-8 line is answered `parse_error` and the connection keeps
/// serving the lines after it.
#[test]
fn tcp_non_utf8_line_is_a_parse_error_and_the_connection_lives() {
    let daemon = start(1, 4, None);
    let mut conn = connect(&daemon);
    conn.get_mut()
        .write_all(b"\xff\xfe x\n")
        .expect("send non-UTF-8 line");
    let stats = roundtrip(&mut conn, r#"{"op":"stats","id":2}"#, 2);
    assert_eq!(error_code(&stats[0]), Some("parse_error"));
    assert_eq!(stats[1].get("id"), Some(&Json::Num(2.0)));
    assert_eq!(stats[1].get("ok"), Some(&Json::Bool(true)));
    daemon.shutdown(true);
}

/// Spawns `vstack-serve` on stdin/stdout over a fresh cache dir and, once
/// a `stats` round trip shows the connection loop is up, sends `request`
/// and then SIGTERM — after reading the reply when `in_flight` is `None`,
/// else after sleeping that long, time for the waiting loop to take the
/// line — with stdin still open, so EOF cannot be what stops the server.
/// Returns the reply, and the cache dir once the process has exited 0.
#[cfg(unix)]
fn stdin_sigterm(name: &str, request: &str, in_flight: Option<Duration>) -> (Json, PathBuf) {
    use std::process::{Command, Stdio};

    let dir = scratch_dir(name);
    let mut child = Command::new(env!("CARGO_BIN_EXE_vstack-serve"))
        .args(["--cache-dir", dir.to_str().expect("utf-8 tmp path")])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn vstack-serve");
    let mut stdin = child.stdin.take().expect("piped stdin");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut response = String::new();
    writeln!(stdin, r#"{{"op":"stats"}}"#).expect("write stats");
    stdout.read_line(&mut response).expect("read stats");
    response.clear();
    writeln!(stdin, "{request}").expect("write request");
    stdin.flush().expect("flush stdin");
    match in_flight {
        Some(delay) => std::thread::sleep(delay),
        None => {
            stdout.read_line(&mut response).expect("read response");
        }
    }
    let term = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(term.success());
    if in_flight.is_some() {
        stdout.read_line(&mut response).expect("read response");
    }
    let status = child.wait().expect("serve exits");
    assert!(status.success(), "SIGTERM must drain to exit 0");
    drop(stdin);
    (Json::parse(&response).expect("reply is JSON"), dir)
}

/// SIGTERM on the stdin front-end drains gracefully: the disk cache is
/// flushed into the daemon's shard segments and the process exits 0.
#[test]
#[cfg(unix)]
fn stdin_mode_sigterm_drains_and_flushes() {
    let request = format!(r#"{{"op":"solve","id":1,"scenario":{}}}"#, scenario(333));
    let (reply, dir) = stdin_sigterm("sigterm", &request, None);
    assert_eq!(reply.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(
        shard_entries(&dir).len(),
        1,
        "drain must flush the solved entry"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// SIGTERM while a paper-fidelity stdin solve is still running (a
/// thermally coupled 16-layer stack, seconds of work unoptimized): the
/// drain finishes the solve, writes its reply, flushes its entry and
/// exits 0.
#[test]
#[cfg(unix)]
fn stdin_sigterm_with_a_solve_in_flight_answers_it_and_flushes() {
    let request = r#"{"op":"solve","id":1,"scenario":{"solve":"regular","layers":16,"thermal_coupling":true}}"#;
    let (reply, dir) = stdin_sigterm(
        "sigterm-inflight",
        request,
        Some(Duration::from_millis(300)),
    );
    assert_eq!(reply.get("id"), Some(&Json::Num(1.0)));
    assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "reply: {reply:?}");
    assert_eq!(reply.get("outcome").and_then(Json::as_str), Some("cold"));
    assert_eq!(
        shard_entries(&dir).len(),
        1,
        "drain must flush the solved entry"
    );
    let _ = fs::remove_dir_all(&dir);
}
