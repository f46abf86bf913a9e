//! `serve_cold` and `serve_hot`: closed-loop query streams against the
//! serving daemon, started in process as `loadgen` does.
//!
//! Two client threads, one connection each, send a request as soon as the
//! previous reply arrives (a closed loop with zero think time): design-space
//! exploration callers wait for each answer before choosing the next point.
//! Each request goes out in a single write with `TCP_NODELAY` set, as a
//! real client would send it.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use vstack_bench::obs::zero_wallclock;
use vstack_engine::engine::solve_scenario;
use vstack_engine::json::Json;
use vstack_engine::server::protocol::ok_response;
use vstack_engine::server::{Bind, Daemon, DaemonConfig, ShardConfig};
use vstack_engine::{Engine, EngineConfig, Outcome, ScenarioRequest, SolveSummary};
use vstack_obs::metrics;

use crate::layers::{set_counter_layers, Counters};
use crate::report::{mean, median, percentile, ratio, set_percentile, sorted, Report};
use crate::spans::Spans;
use crate::stream::{
    cold_point, first_point, hot_points, hot_request, solve_line, spell, Point, Zipf,
};
use crate::Options;

const CLIENTS: usize = 2;
const SHARDS: usize = 2;
const LRU_PER_SHARD: usize = 32;
/// The hot set is three times the memory tier (2 × 32), so the disk tier
/// serves the tail.
const HOT_SET: usize = 3 * SHARDS * LRU_PER_SHARD;
const HOT_SET_SMOKE: usize = 24;
/// Set-ups per untraced run; the median is reported.
const COLD_SETUPS: usize = 5;
const HOT_SETUPS: usize = 3;
const ZIPF_S: f64 = 1.1;
/// Every this-many cold replies is re-solved cold outside the server.
const ORACLE_EVERY: usize = 25;
const ORACLE_REL_TOL: f64 = 1e-6;
/// Requests a traced replay covers at most.
const REPLAY_LIMIT: usize = 300;
/// Longer than the daemon's own reply bound (30 s default deadline plus
/// grace): a read timing out means the request hung.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);
/// Items per `batch` line while filling the hot set; below the per-shard
/// queue bound even if every item lands on one shard.
const FILL_BATCH: usize = 32;

/// One client connection.
struct Client(BufReader<TcpStream>);

impl Client {
    fn connect(addr: SocketAddr) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(REPLY_TIMEOUT)))
            .map_err(|e| format!("socket options: {e}"))?;
        Ok(Client(BufReader::new(stream)))
    }

    /// Sends one line in a single write.
    fn send(&mut self, line: &str) -> Result<(), String> {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        self.0
            .get_mut()
            .write_all(&bytes)
            .map_err(|e| format!("send: {e}"))
    }

    fn recv(&mut self) -> Result<Json, String> {
        let mut text = String::new();
        match self.0.read_line(&mut text) {
            Ok(0) => Err("connection closed".to_string()),
            Ok(_) => Json::parse(&text).map_err(|e| format!("reply is not JSON: {e}")),
            Err(e) => Err(format!("no reply (hung): {e}")),
        }
    }

    fn roundtrip(&mut self, line: &str) -> Result<Json, String> {
        self.send(line)?;
        self.recv()
    }

    /// The daemon's `stats` counters.
    fn stats(&mut self) -> Result<Json, String> {
        self.roundtrip(r#"{"op":"stats"}"#)?
            .get("stats")
            .cloned()
            .ok_or_else(|| "stats reply lacks \"stats\"".to_string())
    }
}

/// An in-process daemon with its connected clients.
struct Server {
    daemon: Daemon,
    clients: Vec<Client>,
    dir: PathBuf,
}

impl Server {
    /// Set-up as a user pays it: daemon start on a fresh cache directory,
    /// then the first connection of each client (one `stats` round trip).
    fn start(dir: PathBuf) -> Result<Server, String> {
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let daemon = Daemon::start(DaemonConfig {
            bind: Bind::Tcp("127.0.0.1:0".to_string()),
            shard: ShardConfig {
                shards: SHARDS,
                queue_capacity: 64,
                lru_capacity: LRU_PER_SHARD,
                cache_dir: Some(dir.clone()),
                ..ShardConfig::default()
            },
            ..DaemonConfig::default()
        })
        .map_err(|e| format!("daemon start: {e}"))?;
        let mut server = Server {
            daemon,
            clients: Vec::new(),
            dir,
        };
        let addr = server.daemon.tcp_addr().expect("tcp bind has an address");
        for _ in 0..CLIENTS {
            let mut client = Client::connect(addr)?;
            client.stats()?;
            server.clients.push(client);
        }
        Ok(server)
    }

    fn stop(mut self) {
        self.clients.clear();
        self.daemon.shutdown(true);
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// What a hot request must be answered with.
struct HotAnswer {
    fingerprint: String,
    summary: String,
}

/// Zeroes wall-clock fields so recorded and served summaries compare
/// byte for byte.
fn canonical_summary(summary: &Json) -> String {
    let mut s = summary.clone();
    zero_wallclock(&mut s);
    s.emit()
}

/// Solves the hot set through the daemon with `batch` requests and records
/// each answer.
fn fill_hot_set(client: &mut Client, hot: &[Point]) -> Result<Vec<HotAnswer>, String> {
    let mut answers = Vec::with_capacity(hot.len());
    for chunk in hot.chunks(FILL_BATCH) {
        let items: Vec<String> = chunk
            .iter()
            .map(|p| format!("{{\"scenario\":{}}}", spell(p, None)))
            .collect();
        client.send(&format!(
            "{{\"op\":\"batch\",\"requests\":[{}]}}",
            items.join(",")
        ))?;
        for p in chunk {
            let reply = client.recv()?;
            let fingerprint = ScenarioRequest::format_fingerprint(p.request().fingerprint());
            if reply.get("ok") != Some(&Json::Bool(true))
                || reply.get("outcome").and_then(Json::as_str) == Some("hit")
                || reply.get("fingerprint").and_then(Json::as_str) != Some(&fingerprint)
            {
                return Err(format!("hot-set fill: unexpected reply {}", reply.emit()));
            }
            let summary = reply.get("summary").ok_or("fill reply lacks a summary")?;
            answers.push(HotAnswer {
                fingerprint,
                summary: canonical_summary(summary),
            });
        }
    }
    Ok(answers)
}

/// The request stream of one serve workload.
enum Stream {
    Cold {
        seed: u64,
        quick: bool,
    },
    Hot {
        seed: u64,
        zipf: Zipf,
        points: Vec<Point>,
        answers: Vec<HotAnswer>,
    },
}

/// One request as sent.
struct Sent {
    line: String,
    /// Hot-set rank (hot stream only).
    rank: usize,
    respelled: bool,
}

/// One successful reply.
struct Sample {
    index: usize,
    rtt_us: f64,
    queue_wait_us: f64,
    solve_us: f64,
    /// The summary, kept for the cold oracle.
    kept: Option<Json>,
}

impl Stream {
    fn cold_point(&self, index: usize) -> Point {
        let Stream::Cold { seed, quick } = self else {
            unreachable!("cold points come from the cold stream")
        };
        let mut p = cold_point(*seed, index);
        p.quick = *quick;
        p
    }

    fn request(&self, index: usize) -> Sent {
        match self {
            Stream::Cold { .. } => Sent {
                line: solve_line(&spell(&self.cold_point(index), None)),
                rank: 0,
                respelled: false,
            },
            Stream::Hot {
                seed, zipf, points, ..
            } => {
                let (rank, respelled, text) = hot_request(*seed, index, zipf, points);
                Sent {
                    line: solve_line(&text),
                    rank,
                    respelled,
                }
            }
        }
    }

    /// Checks one reply; a cold reply must come from a solve, a hot one
    /// from a cache tier with the recorded answer.
    fn check(
        &self,
        index: usize,
        sent: &Sent,
        reply: &Json,
        rtt_us: f64,
    ) -> Result<Sample, String> {
        if reply.get("ok") != Some(&Json::Bool(true)) {
            return Err(format!("error reply {}", reply.emit()));
        }
        let outcome = reply.get("outcome").and_then(Json::as_str).unwrap_or("");
        let summary = reply.get("summary").ok_or("reply lacks a summary")?;
        let phase = |name: &str| {
            reply
                .get("telemetry")
                .and_then(|t| t.get(name))
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("reply lacks telemetry {name}"))
        };
        let mut kept = None;
        match self {
            Stream::Cold { .. } => {
                if outcome == "hit" {
                    return Err("a unique cold request was answered from cache".to_string());
                }
                if index.is_multiple_of(ORACLE_EVERY) {
                    kept = Some(summary.clone());
                }
            }
            Stream::Hot { answers, .. } => {
                let want = &answers[sent.rank];
                if outcome != "hit" {
                    return Err(format!("hot request solved again ({outcome})"));
                }
                if reply.get("fingerprint").and_then(Json::as_str) != Some(&want.fingerprint) {
                    return Err(format!(
                        "fingerprint {:?} differs from the client's {}",
                        reply.get("fingerprint"),
                        want.fingerprint
                    ));
                }
                if canonical_summary(summary) != want.summary {
                    return Err("summary differs from the answer recorded at set-up".to_string());
                }
            }
        }
        Ok(Sample {
            index,
            rtt_us,
            queue_wait_us: phase("queue_wait_us")?,
            solve_us: phase("solve_us")?,
            kept,
        })
    }
}

/// What a closed-loop phase produced.
#[derive(Default)]
struct LoopOut {
    attempted: u64,
    samples: Vec<Sample>,
    failures: Vec<String>,
    elapsed_s: f64,
}

/// Drives every client in a closed loop for `seconds`; requests are drawn
/// from one shared counter, so the stream order is global.
fn closed_loop(clients: &mut [Client], stream: &Stream, seconds: f64) -> LoopOut {
    let next = AtomicUsize::new(0);
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let per_client: Vec<LoopOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let next = &next;
                scope.spawn(move || {
                    let mut out = LoopOut::default();
                    while Instant::now() < deadline {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let sent = stream.request(index);
                        out.attempted += 1;
                        let sent_at = Instant::now();
                        let reply = client.roundtrip(&sent.line);
                        let rtt_us = sent_at.elapsed().as_secs_f64() * 1e6;
                        match reply {
                            Ok(reply) => match stream.check(index, &sent, &reply, rtt_us) {
                                Ok(sample) => out.samples.push(sample),
                                Err(e) => out.failures.push(format!("request {index}: {e}")),
                            },
                            Err(e) => {
                                // The connection is unusable after a hang.
                                out.failures.push(format!("request {index}: {e}"));
                                break;
                            }
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut out = LoopOut {
        elapsed_s: started.elapsed().as_secs_f64(),
        ..LoopOut::default()
    };
    for part in per_client {
        out.attempted += part.attempted;
        out.samples.extend(part.samples);
        out.failures.extend(part.failures);
    }
    out.samples.sort_by_key(|s| s.index);
    out
}

/// Relative difference of two finite values (0 when both are 0).
fn rel_diff(a: f64, b: f64) -> f64 {
    let scale = a.abs().max(b.abs());
    if scale == 0.0 {
        0.0
    } else {
        (a - b).abs() / scale
    }
}

/// Re-solves every kept cold reply outside the server and compares.
fn cold_oracle(stream: &Stream, samples: &[Sample], report: &mut Report) {
    for s in samples {
        let Some(served) = &s.kept else { continue };
        let request = stream.cold_point(s.index).request();
        let expected = match solve_scenario(&request, None) {
            Ok((summary, _)) => summary.to_json(),
            Err(e) => {
                report.fail(format!(
                    "oracle: request {} does not re-solve: {e}",
                    s.index
                ));
                continue;
            }
        };
        for field in [
            "max_ir_drop_frac",
            "mean_ir_drop_frac",
            "efficiency",
            "em_c4_hours",
            "em_tsv_hours",
        ] {
            let a = served.get(field).and_then(Json::as_f64);
            let b = expected.get(field).and_then(Json::as_f64);
            match (a, b) {
                (Some(a), Some(b)) if rel_diff(a, b) <= ORACLE_REL_TOL => {}
                _ => report.fail(format!(
                    "oracle: request {} {field} served {a:?}, re-solved {b:?}",
                    s.index
                )),
            }
        }
    }
}

fn hot_size(opts: &Options) -> usize {
    if opts.smoke {
        HOT_SET_SMOKE
    } else {
        HOT_SET
    }
}

/// Set-up: the server, then the hot-set fill for the hot stream, or the
/// daemon's first answer for the cold stream. That first answer pays the
/// lazy start of the solver pool, which no measured request should pay.
fn set_up(hot: bool, opts: &Options, dir: PathBuf) -> Result<(Server, Stream), String> {
    let mut server = Server::start(dir)?;
    let stream = if hot {
        let points = hot_points(opts.seed, hot_size(opts));
        let answers = fill_hot_set(&mut server.clients[0], &points)?;
        Stream::Hot {
            seed: opts.seed,
            zipf: Zipf::new(points.len(), ZIPF_S),
            points,
            answers,
        }
    } else {
        let reply = server.clients[0].roundtrip(&solve_line(&spell(&first_point(), None)))?;
        if reply.get("ok") != Some(&Json::Bool(true)) {
            return Err(format!("first request failed: {}", reply.emit()));
        }
        Stream::Cold {
            seed: opts.seed,
            quick: opts.smoke,
        }
    };
    Ok((server, stream))
}

/// Runs `serve_cold` (`hot == false`) or `serve_hot`.
pub fn run(hot: bool, opts: &Options) -> Result<Report, String> {
    let mut report = Report::default();
    let mut setups = Vec::new();
    let repeats = opts.setup_repeats(if hot { HOT_SETUPS } else { COLD_SETUPS });
    for k in 1..repeats {
        let started = Instant::now();
        let (server, _) = set_up(hot, opts, opts.work.join(format!("setup-{k}")))?;
        setups.push(started.elapsed().as_secs_f64());
        server.stop();
    }
    let started = Instant::now();
    let (mut server, stream) = set_up(hot, opts, opts.work.join("setup-0"))?;
    setups.push(started.elapsed().as_secs_f64());
    let phase_s = if opts.trace {
        opts.seconds / 3.0
    } else {
        opts.seconds
    };
    let stats_before = server.clients[0].stats()?;
    let out = closed_loop(&mut server.clients, &stream, phase_s);
    let stats_after = server.clients[0].stats()?;
    server.stop();

    report.attempted += out.attempted;
    for f in &out.failures {
        report.fail(f.clone());
    }
    if let Stream::Cold { .. } = stream {
        cold_oracle(&stream, &out.samples, &mut report);
    }
    if out.samples.is_empty() {
        report.fail("no request succeeded".to_string());
        return Ok(report);
    }
    if opts.trace {
        let stat_delta = |name: &str| {
            let get = |s: &Json| s.get(name).and_then(Json::as_f64).unwrap_or(0.0);
            get(&stats_after) - get(&stats_before)
        };
        report.set("server.dedup_joins", stat_delta("dedup_joins"));
        report.set("server.accepted", stat_delta("accepted"));
        let transport = sorted(
            out.samples
                .iter()
                .map(|s| s.rtt_us - s.queue_wait_us - s.solve_us)
                .collect(),
        );
        let queue = sorted(out.samples.iter().map(|s| s.queue_wait_us).collect());
        set_percentile(&mut report, "server.transport_p50_us", &transport, 50.0);
        set_percentile(&mut report, "server.queue_wait_p50_us", &queue, 50.0);
        set_percentile(&mut report, "server.queue_wait_p99_us", &queue, 99.0);
        traced_replay(&stream, opts, &mut report)?;
    } else {
        let rtt_ms = sorted(out.samples.iter().map(|s| s.rtt_us / 1e3).collect());
        report.set_noted(
            "throughput",
            out.samples.len() as f64 / out.elapsed_s,
            format!("ok replies/s over {:.1} s", out.elapsed_s),
        );
        set_percentile(&mut report, "latency_p50_ms", &rtt_ms, 50.0);
        set_percentile(&mut report, "latency_p90_ms", &rtt_ms, 90.0);
        if let Some((p99, beyond)) = percentile(&rtt_ms, 99.0) {
            eprintln!(
                "  request p99: {p99:.3} ms ({beyond} of {} beyond)",
                rtt_ms.len()
            );
        }
        report.set_noted(
            "setup_s",
            median(&setups).expect("set-up ran"),
            format!("median of {} set-ups", setups.len()),
        );
    }
    Ok(report)
}

/// One replayed request's bookkeeping.
struct Replayed {
    outcome: Outcome,
    /// Stamping, preconditioner set-up and Krylov time the query spent, µs.
    split_us: f64,
    flushed: usize,
    summary: SolveSummary,
}

/// The stamp, set-up and Krylov counters, µs.
fn split_us() -> f64 {
    let m = metrics::global();
    (m.pdn_stamp_us.get() + m.solver_setup_us.get() + m.solver_solve_us.get()) as f64
}

/// Replays `lines` in this thread, without TCP, through the steps the
/// daemon takes per request: parse, decode, canonicalize and fingerprint,
/// then query and flush the engine the shard pool would route to
/// (`fingerprint % 2`), then encode the reply.
fn replay(
    lines: &[String],
    dir: &Path,
    hot: Option<&[Point]>,
    spans: &mut Spans,
) -> Result<(Vec<Replayed>, f64, Counters), String> {
    let mut engines = Vec::with_capacity(SHARDS);
    for shard in 0..SHARDS {
        engines.push(
            Engine::new(EngineConfig {
                lru_capacity: LRU_PER_SHARD,
                cache_dir: Some(dir.join(format!("shard-{shard:02}"))),
                warm_start: true,
            })
            .map_err(|e| format!("engine: {e}"))?,
        );
    }
    for p in hot.unwrap_or_default() {
        let request = p.request().canonical();
        let engine = &mut engines[(request.fingerprint() % SHARDS as u64) as usize];
        engine
            .query(&request)
            .map_err(|e| format!("hot fill: {e}"))?;
        engine.flush().map_err(|e| format!("hot fill flush: {e}"))?;
    }
    let mut done = Vec::with_capacity(lines.len());
    spans.reserve(7 * lines.len());
    let counters = Counters::now();
    let started = Instant::now();
    for (i, line) in lines.iter().enumerate() {
        let root = spans.open("request", None, i);
        let doc = spans
            .time("json.parse", root, i, || Json::parse(line))
            .map_err(|e| format!("replay {i}: {e}"))?;
        let request = spans
            .time("request.decode", root, i, || {
                ScenarioRequest::from_json(doc.get("scenario").unwrap_or(&Json::Null))
            })
            .map_err(|e| format!("replay {i}: {e}"))?;
        let (canonical, fingerprint) = spans.time("request.fingerprint", root, i, || {
            let c = request.canonical();
            let fp = c.fingerprint();
            (c, fp)
        });
        let engine = &mut engines[(fingerprint % SHARDS as u64) as usize];
        let (result, split) = spans.time("engine.query", root, i, || {
            let before = split_us();
            let result = engine.query(&canonical);
            (result, split_us() - before)
        });
        let result = result.map_err(|e| format!("replay {i}: {e}"))?;
        let flushed = spans
            .time("cache.flush", root, i, || engine.flush())
            .map_err(|e| format!("replay {i} flush: {e}"))?;
        spans.time("json.emit", root, i, || ok_response(None, &result).emit());
        spans.close(root);
        done.push(Replayed {
            outcome: result.outcome,
            split_us: split,
            flushed,
            summary: result.summary,
        });
    }
    let wall_us = started.elapsed().as_secs_f64() * 1e6;
    Ok((done, wall_us, Counters::now().since(&counters)))
}

/// The traced half of a `--trace 1` serve run: the stream's first requests
/// replayed once untraced and once traced on fresh engines, giving the
/// per-layer split and the tracing overhead.
fn traced_replay(stream: &Stream, opts: &Options, report: &mut Report) -> Result<(), String> {
    let n = match stream {
        Stream::Hot { .. } => REPLAY_LIMIT,
        Stream::Cold { .. } => ((5.0 * opts.seconds) as usize).clamp(10, REPLAY_LIMIT),
    };
    let sent: Vec<Sent> = (0..n).map(|i| stream.request(i)).collect();
    let lines: Vec<String> = sent.iter().map(|s| s.line.clone()).collect();
    let hot = match stream {
        Stream::Hot { points, .. } => Some(points.as_slice()),
        Stream::Cold { .. } => None,
    };
    let (untraced, untraced_us, _) = replay(
        &lines,
        &opts.work.join("replay-a"),
        hot,
        &mut Spans::new(false),
    )?;
    let mut spans = Spans::new(true);
    let (traced, traced_us, delta) = replay(&lines, &opts.work.join("replay-b"), hot, &mut spans)?;
    spans
        .write_ndjson(&opts.spans_path())
        .map_err(|e| format!("writing spans: {e}"))?;
    report.attempted += 2 * n as u64;
    for (i, (a, b)) in untraced.iter().zip(&traced).enumerate() {
        if canonical_summary(&a.summary.to_json()) != canonical_summary(&b.summary.to_json()) {
            report.fail(format!("replay {i}: traced and untraced answers differ"));
        }
    }

    set_counter_layers(report, &delta, traced_us);
    let span_mean = |name: &str| mean(&spans.durations_us(name));
    report.set("json.parse_us", span_mean("json.parse"));
    report.set("json.emit_us", span_mean("json.emit"));
    report.set("request.decode_us", span_mean("request.decode"));
    report.set("request.fingerprint_us", span_mean("request.fingerprint"));
    report.set(
        "request.respelled_frac",
        sent.iter().filter(|s| s.respelled).count() as f64 / n as f64,
    );
    let query_us = spans.durations_us("engine.query");
    let flush_us = spans.durations_us("cache.flush");
    let by_outcome = |pick: &dyn Fn(Outcome) -> bool| -> Vec<f64> {
        traced
            .iter()
            .zip(&query_us)
            .filter(|(r, _)| pick(r.outcome))
            .map(|(_, &us)| us)
            .collect()
    };
    let is_solve = |o: Outcome| matches!(o, Outcome::Warm | Outcome::Cold);
    report.set(
        "cache.memory_hit_us",
        mean(&by_outcome(&|o| o == Outcome::HitMemory)),
    );
    report.set(
        "cache.disk_hit_us",
        mean(&by_outcome(&|o| o == Outcome::HitDisk)),
    );
    report.set(
        "cache.flush_us",
        mean(
            &traced
                .iter()
                .zip(&flush_us)
                .filter(|(r, _)| r.flushed > 0)
                .map(|(_, &us)| us)
                .collect::<Vec<_>>(),
        ),
    );
    let warm = traced.iter().filter(|r| r.outcome == Outcome::Warm).count() as f64;
    let solves = traced.iter().filter(|r| is_solve(r.outcome)).count() as f64;
    report.set("engine.warm_frac", ratio(warm, solves));
    report.set("engine.solve_ms", mean(&by_outcome(&is_solve)) / 1e3);
    let self_us: Vec<f64> = traced
        .iter()
        .zip(&query_us)
        .filter(|(r, _)| is_solve(r.outcome))
        .map(|(r, &us)| us - r.split_us)
        .collect();
    report.set("engine.self_ms", mean(&self_us) / 1e3);
    report.set("trace.ops", n as f64);
    report.set(
        "trace.unattributed_frac",
        (traced_us - spans.attributed_us()) / traced_us,
    );
    report.set("trace.overhead_frac", traced_us / untraced_us - 1.0);
    Ok(())
}
