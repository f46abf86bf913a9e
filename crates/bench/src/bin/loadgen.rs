//! `loadgen` — overload benchmark for the serving daemon.
//!
//! Starts an in-process `vstack-serve` daemon on a loopback port,
//! calibrates its single-shard service time, then drives an open-loop
//! paced flood at `--overload` times the calibrated capacity with every
//! request unique (no cache hits). Reports accepted-latency percentiles
//! (p50/p99/p999), a per-phase breakdown (queue wait vs. solve, from the
//! reply `telemetry` blocks), the shed rate, deadline misses and the
//! post-flood recovery time into `BENCH_serve.json`
//! (schema `vstack-bench-serve/2`).
//!
//! Invariants checked while measuring (the run fails on violation):
//!
//! * zero hangs — every request gets a structured answer within its
//!   deadline plus a grace window;
//! * every `overloaded` rejection carries `retry_after_ms`;
//! * every reply carries a `telemetry` block whose phase times sum to
//!   no more than the client-observed wall time.
//!
//! ```text
//! cargo run --release -p vstack-bench --bin loadgen -- --quick
//! ```
//!
//! Flags: `--quick` (CI-sized run; also via `VSTACK_BENCH_QUICK=1`),
//! `--overload F` (default 2.0), `--shards N` (default 2),
//! `--queue-depth N` (default 4), `--deadline-ms N` (default 2000),
//! `--out FILE` (default `BENCH_serve.json`).

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use vstack_engine::json::Json;
use vstack_engine::server::{Bind, Daemon, DaemonConfig, ShardConfig};

struct Config {
    quick: bool,
    overload: f64,
    shards: usize,
    queue_depth: usize,
    deadline_ms: u64,
    out: PathBuf,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            quick: std::env::var("VSTACK_BENCH_QUICK").is_ok_and(|v| v == "1"),
            overload: 2.0,
            shards: 2,
            queue_depth: 4,
            deadline_ms: 2_000,
            out: PathBuf::from("BENCH_serve.json"),
        }
    }
}

/// One request's fate, as seen by a client.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Fate {
    Ok,
    Shed,
    ShedWithoutRetryHint,
    DeadlineExceeded,
    OtherError,
    Hang,
}

struct Sample {
    fate: Fate,
    latency_us: u64,
    /// Queue-wait phase from the reply `telemetry` block (0 if absent).
    queue_wait_us: u64,
    /// Solve phase from the reply `telemetry` block (0 if absent).
    solve_us: u64,
    /// Reply carried a well-formed `telemetry` block with a trace id.
    telemetry_ok: bool,
    /// `queue_wait_us + solve_us` exceeded the client-observed wall time.
    phase_overrun: bool,
}

impl Sample {
    /// Classifies one reply and pulls its phase breakdown out of the
    /// server-side `telemetry` block. Hangs have no reply, so no block.
    fn from_reply(fate: Fate, latency_us: u64, reply: Option<&Json>) -> Sample {
        let telemetry = reply.and_then(|r| r.get("telemetry"));
        let phase = |name: &str| {
            telemetry
                .and_then(|t| t.get(name))
                .and_then(Json::as_f64)
                .map(|v| v as u64)
        };
        let queue_wait_us = phase("queue_wait_us").unwrap_or(0);
        let solve_us = phase("solve_us").unwrap_or(0);
        let telemetry_ok = fate == Fate::Hang
            || telemetry
                .and_then(|t| t.get("trace_id"))
                .and_then(Json::as_str)
                .is_some_and(|id| id.len() == 16 && id != "0000000000000000");
        Sample {
            fate,
            latency_us,
            queue_wait_us,
            solve_us,
            telemetry_ok,
            phase_overrun: queue_wait_us + solve_us > latency_us,
        }
    }
}

fn main() -> ExitCode {
    let config = match parse_args(std::env::args().skip(1)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("loadgen: {e}");
            return ExitCode::from(2);
        }
    };

    let daemon = match Daemon::start(DaemonConfig {
        bind: Bind::Tcp("127.0.0.1:0".to_string()),
        shard: ShardConfig {
            shards: config.shards,
            queue_capacity: config.queue_depth,
            lru_capacity: 64,
            cache_dir: None,
            ..ShardConfig::default()
        },
        default_deadline_ms: config.deadline_ms,
        max_deadline_ms: 300_000,
        ..DaemonConfig::default()
    }) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("loadgen: daemon start failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let addr = daemon.tcp_addr().expect("tcp bind");

    // Phase 1: calibrate the per-solve service time on an idle daemon.
    let calibration_n = if config.quick { 6 } else { 24 };
    let mut conn = connect(addr, config.deadline_ms);
    let cal_started = Instant::now();
    for i in 0..calibration_n {
        let response = roundtrip(&mut conn, &request_line(1_000_000 + i, config.deadline_ms))
            .expect("calibration response");
        assert_eq!(
            response.get("ok"),
            Some(&Json::Bool(true)),
            "calibration solve failed: {response:?}"
        );
    }
    let service_us = (cal_started.elapsed().as_micros() as u64 / calibration_n as u64).max(1);
    let capacity_rps = config.shards as f64 * 1e6 / service_us as f64;
    let target_rps = config.overload * capacity_rps;
    eprintln!(
        "loadgen: calibrated service_us={service_us} capacity={capacity_rps:.1} rps, \
         driving {target_rps:.1} rps ({}x)",
        config.overload
    );

    // Phase 2: open-loop paced flood of unique scenarios.
    let clients = (config.overload * config.shards as f64).ceil() as usize * 2 + 2;
    let per_client = if config.quick { 40 } else { 400 };
    let interval = Duration::from_secs_f64(clients as f64 / target_rps);
    let counter = Arc::new(AtomicUsize::new(0));
    let flood_started = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|_| {
            let counter = Arc::clone(&counter);
            let deadline_ms = config.deadline_ms;
            std::thread::spawn(move || {
                let mut conn = connect(addr, deadline_ms);
                let started = Instant::now();
                let mut samples = Vec::with_capacity(per_client);
                for k in 0..per_client {
                    let due = interval * k as u32;
                    if let Some(wait) = due.checked_sub(started.elapsed()) {
                        std::thread::sleep(wait);
                    }
                    let seq = counter.fetch_add(1, Ordering::Relaxed);
                    let sent = Instant::now();
                    let response = roundtrip(&mut conn, &request_line(seq, deadline_ms));
                    let latency_us = u64::try_from(sent.elapsed().as_micros()).unwrap_or(u64::MAX);
                    let fate = match &response {
                        None => {
                            // Read timed out past deadline + grace: a hang.
                            // The connection is now desynchronized; reopen.
                            conn = connect(addr, deadline_ms);
                            Fate::Hang
                        }
                        Some(r) => classify(r),
                    };
                    samples.push(Sample::from_reply(fate, latency_us, response.as_ref()));
                }
                samples
            })
        })
        .collect();
    let samples: Vec<Sample> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("client thread"))
        .collect();
    let flood_ms = flood_started.elapsed().as_millis() as u64;

    // Phase 3: recovery — time until the first post-flood acceptance.
    let recovery_started = Instant::now();
    let mut recovery_ms = None;
    let mut conn = connect(addr, config.deadline_ms);
    for probe in 0..1000u64 {
        let line = request_line(2_000_000 + probe as usize, config.deadline_ms);
        match roundtrip(&mut conn, &line) {
            Some(r) if r.get("ok") == Some(&Json::Bool(true)) => {
                recovery_ms = Some(recovery_started.elapsed().as_millis() as u64);
                break;
            }
            _ => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    let snapshot = daemon.shutdown(true);
    drop(snapshot);

    // Reduce.
    let total = samples.len() as u64;
    let count = |fate: Fate| samples.iter().filter(|s| s.fate == fate).count() as u64;
    let ok = count(Fate::Ok);
    let shed = count(Fate::Shed);
    let shed_unhinted = count(Fate::ShedWithoutRetryHint);
    let deadline_exceeded = count(Fate::DeadlineExceeded);
    let other = count(Fate::OtherError);
    let hangs = count(Fate::Hang);
    let missing_telemetry = samples.iter().filter(|s| !s.telemetry_ok).count() as u64;
    let phase_overruns = samples.iter().filter(|s| s.phase_overrun).count() as u64;
    let accepted = |field: fn(&Sample) -> u64| -> Vec<u64> {
        let mut values: Vec<u64> = samples
            .iter()
            .filter(|s| s.fate == Fate::Ok)
            .map(field)
            .collect();
        values.sort_unstable();
        values
    };
    let accepted_us = accepted(|s| s.latency_us);
    let queue_us = accepted(|s| s.queue_wait_us);
    let solve_us = accepted(|s| s.solve_us);
    let pct_of = |sorted: &[u64], p: f64| -> u64 {
        if sorted.is_empty() {
            return 0;
        }
        let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
        sorted[idx]
    };
    let pct = |p: f64| pct_of(&accepted_us, p);
    let phase_json = |sorted: &[u64]| {
        Json::obj(vec![
            ("p50_us", Json::Num(pct_of(sorted, 0.50) as f64)),
            ("p99_us", Json::Num(pct_of(sorted, 0.99) as f64)),
            ("p999_us", Json::Num(pct_of(sorted, 0.999) as f64)),
        ])
    };
    let shed_rate = if total == 0 {
        0.0
    } else {
        (shed + shed_unhinted) as f64 / total as f64
    };

    let report = Json::obj(vec![
        ("schema", Json::Str("vstack-bench-serve/2".to_string())),
        ("quick", Json::Bool(config.quick)),
        (
            "config",
            Json::obj(vec![
                ("overload", Json::Num(config.overload)),
                ("shards", Json::Num(config.shards as f64)),
                ("queue_depth", Json::Num(config.queue_depth as f64)),
                ("deadline_ms", Json::Num(config.deadline_ms as f64)),
                ("clients", Json::Num(clients as f64)),
                ("requests", Json::Num(total as f64)),
            ]),
        ),
        (
            "calibration",
            Json::obj(vec![
                ("service_us", Json::Num(service_us as f64)),
                ("capacity_rps", Json::Num(capacity_rps)),
                ("target_rps", Json::Num(target_rps)),
            ]),
        ),
        (
            "results",
            Json::obj(vec![
                ("requests", Json::Num(total as f64)),
                ("ok", Json::Num(ok as f64)),
                ("shed", Json::Num(shed as f64)),
                ("shed_without_retry_hint", Json::Num(shed_unhinted as f64)),
                ("deadline_exceeded", Json::Num(deadline_exceeded as f64)),
                ("other_errors", Json::Num(other as f64)),
                ("hangs", Json::Num(hangs as f64)),
                ("shed_rate", Json::Num(shed_rate)),
                ("p50_us", Json::Num(pct(0.50) as f64)),
                ("p99_us", Json::Num(pct(0.99) as f64)),
                ("p999_us", Json::Num(pct(0.999) as f64)),
                (
                    "phases",
                    Json::obj(vec![
                        ("queue_wait", phase_json(&queue_us)),
                        ("solve", phase_json(&solve_us)),
                    ]),
                ),
                ("missing_telemetry", Json::Num(missing_telemetry as f64)),
                ("phase_overruns", Json::Num(phase_overruns as f64)),
                ("flood_ms", Json::Num(flood_ms as f64)),
                (
                    "recovery_ms",
                    recovery_ms.map_or(Json::Null, |ms| Json::Num(ms as f64)),
                ),
            ]),
        ),
    ]);
    if let Err(e) = std::fs::write(&config.out, report.emit() + "\n") {
        eprintln!("loadgen: cannot write {}: {e}", config.out.display());
        return ExitCode::FAILURE;
    }
    eprintln!(
        "loadgen: {total} requests — ok={ok} shed={shed} deadline={deadline_exceeded} \
         other={other} hangs={hangs} shed_rate={shed_rate:.3} p50={}us p99={}us p999={}us \
         recovery={recovery_ms:?}ms -> {}",
        pct(0.50),
        pct(0.99),
        pct(0.999),
        config.out.display()
    );

    // Hard guarantees: structured answers for everything, hints on every
    // rejection, and an accepting server again after the flood.
    let mut failed = false;
    if hangs > 0 {
        eprintln!("loadgen: FAIL — {hangs} request(s) hung past deadline + grace");
        failed = true;
    }
    if shed_unhinted > 0 {
        eprintln!("loadgen: FAIL — {shed_unhinted} shed response(s) lacked retry_after_ms");
        failed = true;
    }
    if recovery_ms.is_none() {
        eprintln!("loadgen: FAIL — server did not accept again after the flood");
        failed = true;
    }
    if missing_telemetry > 0 {
        eprintln!("loadgen: FAIL — {missing_telemetry} reply(ies) lacked a telemetry block");
        failed = true;
    }
    if phase_overruns > 0 {
        eprintln!(
            "loadgen: FAIL — {phase_overruns} reply(ies) reported phase times \
             exceeding the observed wall time"
        );
        failed = true;
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// A unique quick scenario per sequence number (imbalance varies in the
/// 6th decimal, so every request is a distinct fingerprint, while the
/// grid shape — and therefore the service time — stays constant).
fn request_line(seq: usize, deadline_ms: u64) -> String {
    let imbalance = 0.1 + (seq % 800_000) as f64 * 1e-6;
    format!(
        r#"{{"op":"solve","deadline_ms":{deadline_ms},"scenario":{{"solve":"vs","layers":2,"imbalance":{imbalance},"fidelity":"quick"}}}}"#
    )
}

fn connect(addr: std::net::SocketAddr, deadline_ms: u64) -> BufReader<TcpStream> {
    let stream = TcpStream::connect(addr).expect("connect to daemon");
    // Grace must exceed the daemon's own reply bound (deadline + 500 ms);
    // a read timeout here means the server truly left a request hanging.
    stream
        .set_read_timeout(Some(Duration::from_millis(deadline_ms + 5_000)))
        .expect("read timeout");
    BufReader::new(stream)
}

/// Sends one line, reads one response; `None` on a read timeout (a hang).
fn roundtrip(conn: &mut BufReader<TcpStream>, line: &str) -> Option<Json> {
    conn.get_mut()
        .write_all(format!("{line}\n").as_bytes())
        .expect("send request");
    let mut response = String::new();
    match conn.read_line(&mut response) {
        Ok(0) => panic!("daemon closed the connection mid-run"),
        Ok(_) => Some(Json::parse(&response).expect("response is JSON")),
        Err(e)
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) =>
        {
            None
        }
        Err(e) => panic!("read failed: {e}"),
    }
}

fn classify(response: &Json) -> Fate {
    if response.get("ok") == Some(&Json::Bool(true)) {
        return Fate::Ok;
    }
    let error = response.get("error");
    let code = error
        .and_then(|e| e.get("code"))
        .and_then(Json::as_str)
        .unwrap_or("");
    match code {
        "overloaded" => {
            let hinted = error
                .and_then(|e| e.get("retry_after_ms"))
                .and_then(Json::as_f64)
                .is_some_and(|ms| ms >= 1.0);
            if hinted {
                Fate::Shed
            } else {
                Fate::ShedWithoutRetryHint
            }
        }
        "deadline_exceeded" => Fate::DeadlineExceeded,
        _ => Fate::OtherError,
    }
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Config, String> {
    let mut config = Config::default();
    let mut args = args.peekable();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--quick" => config.quick = true,
            "--overload" => {
                let v = args.next().ok_or("--overload needs a factor")?;
                config.overload = v
                    .parse::<f64>()
                    .ok()
                    .filter(|f| f.is_finite() && *f > 0.0)
                    .ok_or_else(|| format!("--overload must be positive, got \"{v}\""))?;
            }
            "--shards" => {
                let v = args.next().ok_or("--shards needs a count")?;
                config.shards = v
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("--shards must be positive, got \"{v}\""))?;
            }
            "--queue-depth" => {
                let v = args.next().ok_or("--queue-depth needs a count")?;
                config.queue_depth = v
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("--queue-depth must be positive, got \"{v}\""))?;
            }
            "--deadline-ms" => {
                let v = args.next().ok_or("--deadline-ms needs a value")?;
                config.deadline_ms = v
                    .parse::<u64>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("--deadline-ms must be positive, got \"{v}\""))?;
            }
            "--out" => {
                config.out = PathBuf::from(args.next().ok_or("--out needs a path")?);
            }
            "--help" | "-h" => {
                return Err("usage: loadgen [--quick] [--overload F] [--shards N] \
                     [--queue-depth N] [--deadline-ms N] [--out FILE]"
                    .to_string())
            }
            other => return Err(format!("unknown flag \"{other}\"")),
        }
    }
    Ok(config)
}
