//! End-to-end smoke tests of the `vstack-serve` binary over stdin/stdout:
//! pipes small NDJSON sessions (with duplicates, malformed, non-UTF-8 and
//! oversized lines) through the real process and checks the protocol
//! guarantees the CI smoke job relies on. Stdin is one connection of the
//! serving daemon, so a `batch` duplicate joins its leader's solve and
//! carries the leader's outcome. Every solve is its request's alone, so
//! a reply never depends on what the session answered before it.

use std::io::Write;
use std::process::{Command, Stdio};

use vstack_engine::json::Json;

/// Runs one `vstack-serve` session over `input`, asserts a clean exit and
/// returns the parsed response lines.
fn session(args: &[&str], input: &[u8]) -> Vec<Json> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_vstack-serve"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn vstack-serve");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(input)
        .expect("write requests");
    let output = child.wait_with_output().expect("serve must exit");
    assert!(
        output.status.success(),
        "serve exited {:?}; stderr: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("utf-8 stdout");
    stdout
        .lines()
        .map(|l| Json::parse(l).expect("every response line is JSON"))
        .collect()
}

/// `lines` joined into one NDJSON input.
fn ndjson(lines: &[String]) -> Vec<u8> {
    (lines.join("\n") + "\n").into_bytes()
}

fn field(v: &Json, k: &str) -> Json {
    v.get(k).cloned().unwrap_or(Json::Null)
}

fn error_code(v: &Json) -> Option<&str> {
    v.get("error")
        .and_then(|e| e.get("code"))
        .and_then(Json::as_str)
}

/// A counter from a `metrics` reply.
fn counter(metrics_reply: &Json, name: &str) -> usize {
    metrics_reply
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .and_then(|c| c.get(name))
        .and_then(Json::as_usize)
        .unwrap_or_else(|| panic!("no counter {name}"))
}

#[test]
fn serve_session_dedups_reports_errors_and_exits_cleanly() {
    let scenario = r#"{"solve":"vs","layers":2,"imbalance":0.4,"fidelity":"quick"}"#;
    let lines = session(
        &["--lru", "16"],
        &ndjson(&[
            // A cold solve, then an identical request that must be a hit.
            format!(r#"{{"op":"solve","id":1,"scenario":{scenario}}}"#),
            format!(r#"{{"op":"solve","id":2,"scenario":{scenario}}}"#),
            // A malformed line: structured error, session keeps serving.
            "this is not json".to_string(),
            // An in-batch duplicate: one solve, the second item joins it.
            format!(
                r#"{{"op":"batch","requests":[{{"id":3,"scenario":{s2}}},{{"id":4,"scenario":{s2}}}]}}"#,
                s2 = r#"{"solve":"vs","layers":2,"imbalance":0.7,"fidelity":"quick"}"#
            ),
            r#"{"op":"stats","id":5}"#.to_string(),
            r#"{"op":"metrics","id":6}"#.to_string(),
            r#"{"op":"shutdown","id":7}"#.to_string(),
        ]),
    );
    assert_eq!(lines.len(), 8, "replies: {lines:?}");

    // 1: cold solve with a summary and fingerprint.
    assert_eq!(field(&lines[0], "ok"), Json::Bool(true));
    assert_eq!(field(&lines[0], "outcome"), Json::Str("cold".to_string()));
    assert!(lines[0].get("summary").is_some());
    let fp1 = field(&lines[0], "fingerprint");
    // 2: identical request is a cache hit with the same fingerprint.
    assert_eq!(field(&lines[1], "outcome"), Json::Str("hit".to_string()));
    assert_eq!(field(&lines[1], "source"), Json::Str("memory".to_string()));
    assert_eq!(field(&lines[1], "fingerprint"), fp1);
    // 3: malformed line became a structured parse error.
    assert_eq!(field(&lines[2], "ok"), Json::Bool(false));
    assert_eq!(error_code(&lines[2]), Some("parse_error"));
    // 4+5: the batch's first item is a real solve; the duplicate joined
    // it and carries its outcome — or, had the solve finished first, hit
    // the fresh memory entry.
    assert_eq!(field(&lines[3], "id"), Json::Num(3.0));
    let leader = field(&lines[3], "outcome");
    assert_eq!(leader, Json::Str("cold".to_string()), "batch leader");
    assert_eq!(field(&lines[4], "id"), Json::Num(4.0));
    let joiner = field(&lines[4], "outcome");
    assert!(
        joiner == leader || joiner == Json::Str("hit".to_string()),
        "batch duplicate: {:?}",
        lines[4]
    );
    assert_eq!(
        field(&lines[4], "fingerprint"),
        field(&lines[3], "fingerprint")
    );
    assert_eq!(field(&lines[4], "summary"), field(&lines[3], "summary"));
    // 6: the daemon's stats object, led by the protocol schema version:
    // four scenarios reached admission control, each queued or joined.
    let stats = lines[5].get("stats").expect("stats payload");
    let stat = |k: &str| stats.get(k).and_then(Json::as_usize).unwrap();
    assert_eq!(
        stat("schema_version"),
        vstack_engine::SCHEMA_VERSION as usize
    );
    assert_eq!(stat("accepted") + stat("dedup_joins"), 4);
    // 7: the obs metrics snapshot carries the engine's counters: two
    // solves, and a joined duplicate never reaches an engine, so requests
    // and memory hits count it only when it came late enough to hit.
    assert_eq!(field(&lines[6], "ok"), Json::Bool(true));
    let metrics = lines[6].get("metrics").expect("metrics payload");
    assert_eq!(
        metrics.get("schema").and_then(Json::as_str),
        Some("vstack-obs-metrics/1")
    );
    let joins = counter(&lines[6], "serve_dedup_joins");
    assert_eq!(counter(&lines[6], "engine_requests") + joins, 4);
    assert_eq!(counter(&lines[6], "engine_memory_hits") + joins, 2);
    assert_eq!(counter(&lines[6], "engine_cold_solves"), 2);
    assert_eq!(counter(&lines[6], "engine_warm_solves"), 0);
    assert_eq!(counter(&lines[6], "engine_deduped"), 0);
    assert!(
        counter(&lines[6], "cg_solves") >= 2,
        "both real solves ran CG"
    );
    assert!(counter(&lines[6], "solver_iterations") > 0);
    let hists = metrics.get("histograms").expect("histograms object");
    let solve_us = hists.get("solve_us_hist").expect("solve_us_hist");
    assert!(solve_us.get("count").and_then(Json::as_usize).unwrap() >= 2);
    // 8: acknowledged shutdown.
    assert_eq!(field(&lines[7], "shutdown"), Json::Bool(true));
}

/// Five identical `batch` items get five identical answers from exactly
/// one solve: the first item queues it and the rest join it in flight.
/// The solve count comes from the serving process's own `metrics` reply.
#[test]
fn serve_batch_of_duplicates_solves_exactly_once() {
    let item = r#"{"scenario":{"solve":"vs","layers":2,"imbalance":0.4,"fidelity":"quick"}}"#;
    let lines = session(
        &[],
        &ndjson(&[
            format!(r#"{{"op":"batch","requests":[{}]}}"#, [item; 5].join(",")),
            r#"{"op":"metrics"}"#.to_string(),
        ]),
    );
    assert_eq!(lines.len(), 6, "replies: {lines:?}");
    let (items, metrics) = lines.split_at(5);
    assert_eq!(field(&items[0], "outcome"), Json::Str("cold".to_string()));
    for reply in items {
        assert_eq!(field(reply, "ok"), Json::Bool(true), "{reply:?}");
        let outcome = field(reply, "outcome");
        assert!(
            outcome == Json::Str("cold".to_string()) || outcome == Json::Str("hit".to_string()),
            "{reply:?}"
        );
        assert_eq!(field(reply, "fingerprint"), field(&items[0], "fingerprint"));
        assert_eq!(field(reply, "summary"), field(&items[0], "summary"));
    }
    assert_eq!(
        counter(&metrics[0], "engine_cold_solves"),
        1,
        "N duplicates must perform one solve"
    );
    assert_eq!(counter(&metrics[0], "engine_warm_solves"), 0);
}

/// `reply`'s summary without its measured set-up time: everything in it
/// that is a function of the request.
fn summary_without_setup(reply: &Json) -> Json {
    let Some(Json::Obj(pairs)) = reply.get("summary") else {
        panic!("no summary: {reply:?}")
    };
    let pairs = pairs.iter().filter(|(k, _)| k != "solver_setup_us");
    Json::Obj(pairs.cloned().collect())
}

/// On one shard, a neighbour answered right after the request next to
/// it is answered exactly as a fresh daemon answers it alone.
#[test]
fn serve_answers_a_neighbour_as_a_fresh_daemon_does() {
    let solve = |id: usize, imbalance: f64| {
        format!(
            r#"{{"op":"solve","id":{id},"scenario":{{"solve":"vs","layers":2,"imbalance":{imbalance},"fidelity":"quick"}}}}"#
        )
    };
    let after = session(
        &["--shards", "1"],
        &ndjson(&[solve(1, 0.4), solve(2, 0.45)]),
    );
    let alone = session(&["--shards", "1"], &ndjson(&[solve(2, 0.45)]));
    assert_eq!(after.len(), 2, "replies: {after:?}");
    assert_eq!(alone.len(), 1, "replies: {alone:?}");
    let (after, alone) = (&after[1], &alone[0]);
    for reply in [after, alone] {
        assert_eq!(field(reply, "outcome"), Json::Str("cold".to_string()));
    }
    assert_eq!(field(after, "fingerprint"), field(alone, "fingerprint"));
    assert_eq!(summary_without_setup(after), summary_without_setup(alone));
}

/// A one-layer V-S request is rejected as invalid before it reaches a
/// solver, and the session goes on answering the lines after it.
#[test]
fn serve_rejects_a_one_layer_stack_and_keeps_serving() {
    let lines = session(
        &[],
        &ndjson(&[
            r#"{"op":"solve","id":1,"scenario":{"solve":"vs","layers":1,"fidelity":"quick"}}"#
                .to_string(),
            r#"{"op":"solve","id":2,"scenario":{"solve":"regular","layers":1,"fidelity":"quick"}}"#
                .to_string(),
            r#"{"op":"shutdown","id":3}"#.to_string(),
        ]),
    );
    assert_eq!(lines.len(), 3, "replies: {lines:?}");
    assert_eq!(field(&lines[0], "ok"), Json::Bool(false));
    assert_eq!(error_code(&lines[0]), Some("invalid_request"));
    assert_eq!(field(&lines[1], "id"), Json::Num(2.0));
    assert_eq!(field(&lines[1], "ok"), Json::Bool(true));
    assert_eq!(field(&lines[2], "shutdown"), Json::Bool(true));
}

/// A line that is not UTF-8 is answered `parse_error`, and every line
/// after it is still answered.
#[test]
fn serve_answers_a_non_utf8_line_and_keeps_serving() {
    let lines = session(
        &[],
        b"\xff\xfe x\n{\"op\":\"stats\",\"id\":2}\n{\"op\":\"shutdown\",\"id\":3}\n",
    );
    assert_eq!(lines.len(), 3, "replies: {lines:?}");
    assert_eq!(error_code(&lines[0]), Some("parse_error"));
    assert_eq!(field(&lines[1], "id"), Json::Num(2.0));
    assert_eq!(field(&lines[1], "ok"), Json::Bool(true));
    assert_eq!(field(&lines[2], "shutdown"), Json::Bool(true));
}

/// A 2 MiB line exceeds the 1 MiB cap: it is answered `invalid_request`
/// naming the cap and discarded through its newline, and the valid
/// `solve` after it is answered.
#[test]
fn serve_rejects_an_oversized_line_and_keeps_serving() {
    let mut input = vec![b'x'; 2 << 20];
    input.extend_from_slice(
        b"\n{\"op\":\"solve\",\"id\":2,\"scenario\":{\"solve\":\"regular\",\"layers\":2,\"fidelity\":\"quick\"}}\n",
    );
    let lines = session(&[], &input);
    assert_eq!(lines.len(), 2, "replies: {lines:?}");
    assert_eq!(error_code(&lines[0]), Some("invalid_request"));
    let message = lines[0]
        .get("error")
        .and_then(|e| e.get("message"))
        .and_then(Json::as_str)
        .expect("error message");
    assert!(message.contains("1048576"), "names the cap: {message}");
    assert_eq!(field(&lines[1], "id"), Json::Num(2.0));
    assert_eq!(field(&lines[1], "ok"), Json::Bool(true));
}

#[test]
fn serve_round_trips_a_thermal_scenario() {
    let plain = r#"{"solve":"regular","layers":2,"fidelity":"quick"}"#;
    let thermal = r#"{"solve":"regular","layers":2,"fidelity":"quick","thermal_coupling":true,"ambient_c":55}"#;
    let lines = session(
        &["--lru", "16"],
        &ndjson(&[
            format!(r#"{{"op":"solve","id":1,"scenario":{plain}}}"#),
            format!(r#"{{"op":"solve","id":2,"scenario":{thermal}}}"#),
            format!(r#"{{"op":"solve","id":3,"scenario":{thermal}}}"#),
            r#"{"op":"shutdown","id":4}"#.to_string(),
        ]),
    );
    assert_eq!(lines.len(), 4, "replies: {lines:?}");

    // The uncoupled summary carries no coupling block on the wire.
    let plain_summary = lines[0].get("summary").expect("summary");
    assert!(plain_summary.get("coupling_iterations").is_none());
    // The thermal scenario keys separately, solves cold, and its summary
    // reports the fixed point it reached.
    assert_ne!(
        field(&lines[1], "fingerprint"),
        field(&lines[0], "fingerprint")
    );
    assert_eq!(field(&lines[1], "outcome"), Json::Str("cold".to_string()));
    let summary = lines[1].get("summary").expect("summary");
    let iters = summary
        .get("coupling_iterations")
        .and_then(Json::as_usize)
        .expect("coupling_iterations on the wire");
    assert!(iters >= 2, "iterations {iters}");
    assert_eq!(summary.get("coupling_converged"), Some(&Json::Bool(true)));
    assert!(
        summary
            .get("peak_temperature_c")
            .and_then(Json::as_f64)
            .unwrap()
            > 30.0
    );
    // Repeat of the same thermal scenario is a cache hit.
    assert_eq!(field(&lines[2], "outcome"), Json::Str("hit".to_string()));
    assert_eq!(
        field(&lines[2], "fingerprint"),
        field(&lines[1], "fingerprint")
    );
}

#[test]
fn serve_flushes_disk_cache_across_sessions() {
    let dir = std::env::temp_dir().join(format!("vstack-serve-{}-flush", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let scenario = r#"{"solve":"regular","layers":2,"fidelity":"quick"}"#;
    let line = format!("{{\"op\":\"solve\",\"id\":1,\"scenario\":{scenario}}}\n");
    // EOF must flush the disk cache and exit 0; the second process is
    // served from the flushed disk tier.
    for expected in ["cold", "hit"] {
        let lines = session(&["--cache-dir", dir.to_str().unwrap()], line.as_bytes());
        assert_eq!(field(&lines[0], "outcome"), Json::Str(expected.to_string()));
    }
    let _ = std::fs::remove_dir_all(&dir);
}
