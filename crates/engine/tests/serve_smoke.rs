//! End-to-end smoke test of the `vstack-serve` binary: pipes a small
//! NDJSON batch (with a duplicate and a malformed line) through the real
//! process and checks the protocol guarantees the CI smoke job relies on.

use std::io::Write;
use std::process::{Command, Stdio};

use vstack_engine::json::Json;

#[test]
fn serve_session_dedups_reports_errors_and_exits_cleanly() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_vstack-serve"))
        .args(["--lru", "16"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn vstack-serve");

    let scenario = r#"{"solve":"vs","layers":2,"imbalance":0.4,"fidelity":"quick"}"#;
    let input = [
        // A cold solve, then an identical request that must be a hit.
        format!(r#"{{"op":"solve","id":1,"scenario":{scenario}}}"#),
        format!(r#"{{"op":"solve","id":2,"scenario":{scenario}}}"#),
        // A malformed line: structured error, session keeps serving.
        "this is not json".to_string(),
        // An in-batch duplicate: one solve, second response deduped.
        format!(
            r#"{{"op":"batch","requests":[{{"id":3,"scenario":{s2}}},{{"id":4,"scenario":{s2}}}]}}"#,
            s2 = r#"{"solve":"vs","layers":2,"imbalance":0.7,"fidelity":"quick"}"#
        ),
        r#"{"op":"stats","id":5}"#.to_string(),
        r#"{"op":"metrics","id":6}"#.to_string(),
        r#"{"op":"shutdown","id":7}"#.to_string(),
    ]
    .join("\n")
        + "\n";
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(input.as_bytes())
        .expect("write requests");

    let output = child.wait_with_output().expect("serve must exit");
    assert!(
        output.status.success(),
        "serve exited {:?}; stderr: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );

    let stdout = String::from_utf8(output.stdout).expect("utf-8 stdout");
    let lines: Vec<Json> = stdout
        .lines()
        .map(|l| Json::parse(l).expect("every response line is JSON"))
        .collect();
    assert_eq!(lines.len(), 8, "stdout was: {stdout}");

    let field = |v: &Json, k: &str| v.get(k).cloned().unwrap_or(Json::Null);
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
    assert_eq!(
        lines[2].get("error").and_then(|e| e.get("code")).cloned(),
        Some(Json::Str("parse_error".to_string()))
    );
    // 4+5: the batch deduplicated its identical pair. The first member is
    // a real solve — warm-started from the cached neighbour of request 1.
    assert_eq!(field(&lines[3], "id"), Json::Num(3.0));
    assert_eq!(field(&lines[3], "outcome"), Json::Str("warm".to_string()));
    assert_eq!(field(&lines[4], "id"), Json::Num(4.0));
    assert_eq!(field(&lines[4], "outcome"), Json::Str("hit".to_string()));
    assert_eq!(field(&lines[4], "source"), Json::Str("dedup".to_string()));
    // 6: stats reflect 2 solves (1 cold, 1 warm), 1 memory hit, 1 dedup,
    // 0 invalid scenarios (the malformed line never reached the engine),
    // and carry the protocol schema version at the top level.
    let stats = lines[5].get("stats").expect("stats payload");
    let count = |k: &str| stats.get(k).and_then(Json::as_usize).unwrap();
    assert_eq!(
        count("schema_version"),
        vstack_engine::SCHEMA_VERSION as usize
    );
    assert_eq!(count("requests"), 4);
    assert_eq!(count("cold_solves"), 1);
    assert_eq!(count("warm_solves"), 1);
    assert_eq!(count("memory_hits"), 1);
    assert_eq!(count("deduped"), 1);
    assert!(stats.get("hit_rate").and_then(Json::as_f64).unwrap() > 0.49);
    // 7: the obs metrics snapshot, versioned and consistent with stats.
    assert_eq!(field(&lines[6], "ok"), Json::Bool(true));
    let metrics = lines[6].get("metrics").expect("metrics payload");
    assert_eq!(
        metrics.get("schema").and_then(Json::as_str),
        Some("vstack-obs-metrics/1")
    );
    let counters = metrics.get("counters").expect("counters object");
    let counter = |k: &str| counters.get(k).and_then(Json::as_usize).unwrap();
    assert_eq!(counter("engine_requests"), 4);
    assert_eq!(counter("engine_memory_hits"), 1);
    assert_eq!(counter("engine_deduped"), 1);
    assert!(counter("cg_solves") >= 2, "both real solves ran CG");
    assert!(counter("solver_iterations") > 0);
    let hists = metrics.get("histograms").expect("histograms object");
    let solve_us = hists.get("solve_us_hist").expect("solve_us_hist");
    assert!(solve_us.get("count").and_then(Json::as_usize).unwrap() >= 2);
    // 8: acknowledged shutdown.
    assert_eq!(field(&lines[7], "shutdown"), Json::Bool(true));
}

/// A one-layer V-S request is rejected as invalid before it reaches a
/// solver, and the session goes on answering the lines after it.
#[test]
fn serve_rejects_a_one_layer_stack_and_keeps_serving() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_vstack-serve"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn vstack-serve");
    let input = [
        r#"{"op":"solve","id":1,"scenario":{"solve":"vs","layers":1,"fidelity":"quick"}}"#,
        r#"{"op":"solve","id":2,"scenario":{"solve":"regular","layers":1,"fidelity":"quick"}}"#,
        r#"{"op":"shutdown","id":3}"#,
    ]
    .join("\n")
        + "\n";
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(input.as_bytes())
        .expect("write requests");

    let output = child.wait_with_output().expect("serve must exit");
    assert!(
        output.status.success(),
        "serve exited {:?}; stderr: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("utf-8 stdout");
    let lines: Vec<Json> = stdout
        .lines()
        .map(|l| Json::parse(l).expect("every response line is JSON"))
        .collect();
    assert_eq!(lines.len(), 3, "stdout was: {stdout}");
    let field = |v: &Json, k: &str| v.get(k).cloned().unwrap_or(Json::Null);
    assert_eq!(field(&lines[0], "ok"), Json::Bool(false));
    assert_eq!(
        lines[0].get("error").and_then(|e| e.get("code")).cloned(),
        Some(Json::Str("invalid_request".to_string()))
    );
    assert_eq!(field(&lines[1], "id"), Json::Num(2.0));
    assert_eq!(field(&lines[1], "ok"), Json::Bool(true));
    assert_eq!(field(&lines[2], "shutdown"), Json::Bool(true));
}

#[test]
fn serve_round_trips_a_thermal_scenario() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_vstack-serve"))
        .args(["--lru", "16"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn vstack-serve");

    let plain = r#"{"solve":"regular","layers":2,"fidelity":"quick"}"#;
    let thermal = r#"{"solve":"regular","layers":2,"fidelity":"quick","thermal_coupling":true,"ambient_c":55}"#;
    let input = [
        format!(r#"{{"op":"solve","id":1,"scenario":{plain}}}"#),
        format!(r#"{{"op":"solve","id":2,"scenario":{thermal}}}"#),
        format!(r#"{{"op":"solve","id":3,"scenario":{thermal}}}"#),
        r#"{"op":"shutdown","id":4}"#.to_string(),
    ]
    .join("\n")
        + "\n";
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(input.as_bytes())
        .expect("write requests");

    let output = child.wait_with_output().expect("serve must exit");
    assert!(
        output.status.success(),
        "serve exited {:?}; stderr: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("utf-8 stdout");
    let lines: Vec<Json> = stdout
        .lines()
        .map(|l| Json::parse(l).expect("every response line is JSON"))
        .collect();
    assert_eq!(lines.len(), 4, "stdout was: {stdout}");

    let field = |v: &Json, k: &str| v.get(k).cloned().unwrap_or(Json::Null);
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
    let run = |expect_outcome: &str| {
        let mut child = Command::new(env!("CARGO_BIN_EXE_vstack-serve"))
            .args(["--cache-dir", dir.to_str().unwrap()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn vstack-serve");
        let line = format!("{{\"op\":\"solve\",\"id\":1,\"scenario\":{scenario}}}\n");
        child
            .stdin
            .take()
            .unwrap()
            .write_all(line.as_bytes())
            .unwrap();
        // Dropping stdin (EOF) must flush the disk cache and exit 0.
        let output = child.wait_with_output().unwrap();
        assert!(output.status.success());
        let response = Json::parse(
            String::from_utf8(output.stdout)
                .unwrap()
                .lines()
                .next()
                .unwrap(),
        )
        .unwrap();
        assert_eq!(
            response
                .get("outcome")
                .and_then(Json::as_str)
                .map(String::from),
            Some(expect_outcome.to_string())
        );
    };
    run("cold");
    run("hit"); // second process: served from the flushed disk tier
    let _ = std::fs::remove_dir_all(&dir);
}
