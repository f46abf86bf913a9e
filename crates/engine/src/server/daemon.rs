//! The serving daemon: transports, connection loops, deadline
//! enforcement and graceful drain on top of the [`ShardPool`].
//!
//! # Threading model
//!
//! Every request reaches the pool through one connection loop, whatever
//! the transport: a TCP or Unix-socket listener hands each accepted
//! stream to a thread of its own, and [`Bind::Stdio`] makes the process's
//! stdin/stdout the daemon's one connection. A connection reads one
//! NDJSON request line, runs admission control via [`ShardPool::submit`],
//! *waits with a bounded timeout* for the shard's reply and writes it
//! before reading the next line. Nothing in a connection thread ever
//! blocks without a bound:
//!
//! * socket reads poll with a short timeout so the drain flag is noticed
//!   on idle connections (the stdin thread is detached instead and ends
//!   with the process);
//! * a request line is read as bytes and capped at [`MAX_LINE`]: an
//!   overlong line is answered `invalid_request` and discarded up to its
//!   newline, a non-UTF-8 line `parse_error`, and the connection keeps
//!   serving;
//! * reply waits use `recv_timeout` capped at the request deadline plus a
//!   small grace window, so a wedged (or deliberately slowed) solve turns
//!   into a `deadline_exceeded` response rather than a hung client.
//!
//! The per-request [`CancelToken`] carries the same deadline into the
//! escalation ladder, which abandons the solve between rungs — the
//! timeout answer and the cooperative cancellation are two views of one
//! deadline.
//!
//! # Shutdown
//!
//! A client's `shutdown` op — or, on stdio, EOF or a failed stdout
//! write — latches a request the owner observes with
//! [`Daemon::wait_shutdown_requested`]. [`Daemon::shutdown`] (called by
//! the owner, typically after that or SIGTERM) sets the drain flag, nudges
//! the listener awake with a self-connection, stops accepting, then stops
//! the pool — which finishes (drain) or sheds (fast stop) queued jobs and
//! flushes every disk-cache segment — and waits until every admitted
//! request's reply has been written, each for at most its deadline plus
//! the reply grace. The final metrics snapshot is returned to the caller.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant, SystemTime};

use vstack_obs::{log_info, log_warn};
use vstack_sparse::CancelToken;

use crate::json::Json;
use crate::request::ScenarioRequest;
use crate::server::protocol::{
    self, attach_telemetry, code, engine_error_response, error_response, metrics_response,
    ok_response, overloaded_response,
};
use crate::server::shard::{Admission, ShardConfig, ShardOutcome, ShardPool};
use crate::server::telemetry::{
    FlightOutcome, RequestCtx, RequestTelemetry, TELEMETRY_SCHEMA_VERSION,
};

/// How long a reply wait may exceed the request deadline: covers the gap
/// between the ladder's cancellation poll points so a cooperatively
/// cancelled solve usually delivers its own `deadline_exceeded` before
/// the connection gives up on it.
const REPLY_GRACE: Duration = Duration::from_millis(500);

/// Poll interval for idle socket reads; bounds how long an idle
/// connection takes to notice the drain flag.
const READ_POLL: Duration = Duration::from_millis(250);

/// Longest request line a connection buffers, in bytes (newline
/// excluded). The largest line the repository's own clients send — a
/// 32-item `batch` — is a few KB.
pub const MAX_LINE: usize = 1 << 20;

/// Where the daemon takes its connections from.
#[derive(Debug, Clone)]
pub enum Bind {
    /// TCP address, e.g. `127.0.0.1:7077` (port 0 picks a free port).
    Tcp(String),
    /// Unix-domain socket path (a stale file there is replaced).
    #[cfg(unix)]
    Unix(PathBuf),
    /// The process's stdin/stdout as the one connection. EOF on stdin or
    /// a failed stdout write latches shutdown, as a `shutdown` op does.
    Stdio,
}

/// Daemon construction options.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Listening endpoint.
    pub bind: Bind,
    /// Worker-pool shape (shards, queue bound, cache tiers).
    pub shard: ShardConfig,
    /// Deadline applied to requests that do not carry `deadline_ms`.
    pub default_deadline_ms: u64,
    /// Upper clamp for client-supplied `deadline_ms`.
    pub max_deadline_ms: u64,
    /// Append one telemetry-rollup NDJSON line per interval here
    /// (`None` disables the writer). A final line is written on
    /// shutdown so short-lived runs are never empty.
    pub telemetry_out: Option<PathBuf>,
    /// Interval between `telemetry_out` lines, milliseconds.
    pub telemetry_interval_ms: u64,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            bind: Bind::Tcp("127.0.0.1:0".to_string()),
            shard: ShardConfig::default(),
            default_deadline_ms: 30_000,
            max_deadline_ms: 300_000,
            telemetry_out: None,
            telemetry_interval_ms: 1_000,
        }
    }
}

/// State shared by the accept thread and every connection thread.
struct Shared {
    pool: ShardPool,
    /// Set once shutdown begins; connection and accept loops exit on it.
    draining: AtomicBool,
    /// Latched by a `shutdown` op (or stdio EOF) for the owner to observe.
    shutdown_requested: Mutex<bool>,
    shutdown_signal: Condvar,
    /// Replies owed to admitted requests: how many are unwritten, and the
    /// latest instant any of them is still due (deadline + grace).
    owed: Mutex<(usize, Instant)>,
    owed_written: Condvar,
    default_deadline_ms: u64,
    max_deadline_ms: u64,
}

impl Shared {
    /// Latches the shutdown request the owner polls for.
    fn request_shutdown(&self) {
        *self.shutdown_requested.lock().expect("shutdown flag lock") = true;
        self.shutdown_signal.notify_all();
    }

    /// Records a reply owed to a request admitted under `deadline`; the
    /// debt is paid when the returned guard drops, after the write.
    fn owe_reply(self: &Arc<Self>, deadline: Instant) -> OwedReply {
        let mut owed = self.owed.lock().expect("owed replies lock");
        owed.0 += 1;
        owed.1 = owed.1.max(deadline + REPLY_GRACE);
        OwedReply(Arc::clone(self))
    }

    /// Blocks until every owed reply is written, or until the latest of
    /// them is past due.
    fn await_owed_replies(&self) {
        let mut owed = self.owed.lock().expect("owed replies lock");
        while owed.0 > 0 {
            let Some(wait) = owed.1.checked_duration_since(Instant::now()) else {
                log_warn!("serve", "{} reply(ies) unwritten at shutdown", owed.0);
                return;
            };
            owed = self
                .owed_written
                .wait_timeout(owed, wait)
                .expect("owed replies lock")
                .0;
        }
    }
}

/// One admitted request's unwritten reply (see [`Shared::owe_reply`]).
struct OwedReply(Arc<Shared>);

impl Drop for OwedReply {
    fn drop(&mut self) {
        // A decrement leaves the count valid even under a poisoned lock,
        // and a drop must not panic.
        let mut owed = self
            .0
            .owed
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        owed.0 -= 1;
        self.0.owed_written.notify_all();
    }
}

/// A running daemon. Dropping it without calling [`Daemon::shutdown`]
/// leaks the listener thread; owners are expected to shut down.
pub struct Daemon {
    shared: Arc<Shared>,
    accept: Mutex<Option<thread::JoinHandle<()>>>,
    telemetry_writer: Mutex<Option<thread::JoinHandle<()>>>,
    bind: Bind,
    /// Resolved TCP address (meaningful for port-0 binds).
    tcp_addr: Option<SocketAddr>,
}

impl Daemon {
    /// Starts the shard pool, then binds the endpoint and starts the
    /// accept thread — or, for [`Bind::Stdio`], the stdio connection.
    ///
    /// # Errors
    ///
    /// Bind/listen failures and cache-segment creation failures.
    pub fn start(config: DaemonConfig) -> io::Result<Daemon> {
        let pool = ShardPool::start(&config.shard)?;
        let shared = Arc::new(Shared {
            pool,
            draining: AtomicBool::new(false),
            shutdown_requested: Mutex::new(false),
            shutdown_signal: Condvar::new(),
            owed: Mutex::new((0, Instant::now())),
            owed_written: Condvar::new(),
            default_deadline_ms: config.default_deadline_ms.max(1),
            max_deadline_ms: config.max_deadline_ms.max(1),
        });
        let (accept, tcp_addr) = match &config.bind {
            Bind::Tcp(addr) => {
                let listener = TcpListener::bind(addr)?;
                let local = listener.local_addr()?;
                let accept = spawn_accept(Listener::Tcp(listener), &shared)?;
                log_info!("serve", "listening on tcp {local}");
                (Some(accept), Some(local))
            }
            #[cfg(unix)]
            Bind::Unix(path) => {
                // A stale socket file from a previous run would fail the
                // bind; replacing it is the conventional daemon behavior.
                let _ = std::fs::remove_file(path);
                let accept = spawn_accept(Listener::Unix(UnixListener::bind(path)?), &shared)?;
                log_info!("serve", "listening on unix {}", path.display());
                (Some(accept), None)
            }
            Bind::Stdio => {
                vstack_obs::metrics::global().serve_connections.inc();
                let shared = Arc::clone(&shared);
                // Detached on purpose: it sits in a blocking stdin read and
                // ends with the process; shutdown never joins it.
                thread::Builder::new()
                    .name("vstack-stdio".to_string())
                    .spawn(move || {
                        handle_conn(io::stdin(), io::stdout(), &shared);
                        shared.request_shutdown();
                    })?;
                log_info!("serve", "serving stdin/stdout");
                (None, None)
            }
        };
        let telemetry_writer = match &config.telemetry_out {
            Some(path) => {
                let shared = Arc::clone(&shared);
                let path = path.clone();
                let interval = Duration::from_millis(config.telemetry_interval_ms.max(10));
                Some(
                    thread::Builder::new()
                        .name("vstack-telemetry".to_string())
                        .spawn(move || telemetry_writer_loop(&shared, &path, interval))
                        .map_err(io::Error::other)?,
                )
            }
            None => None,
        };
        Ok(Daemon {
            shared,
            accept: Mutex::new(accept),
            telemetry_writer: Mutex::new(telemetry_writer),
            bind: config.bind,
            tcp_addr,
        })
    }

    /// The resolved TCP listening address (`None` for other binds).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// Blocks until a shutdown is requested (a client `shutdown` op, or
    /// stdio EOF) or `timeout` passes; true when it was. Owners typically
    /// loop on this with a short timeout, interleaving their own signal
    /// checks.
    pub fn wait_shutdown_requested(&self, timeout: Duration) -> bool {
        let guard = self
            .shared
            .shutdown_requested
            .lock()
            .expect("shutdown flag lock");
        let (guard, _) = self
            .shared
            .shutdown_signal
            .wait_timeout_while(guard, timeout, |requested| !*requested)
            .expect("shutdown flag lock");
        *guard
    }

    /// Stops the daemon: stop accepting, then stop the pool (finishing
    /// queued work when `drain`, shedding it otherwise) and flush every
    /// cache segment, then wait for every admitted request's reply to be
    /// written (each for at most its deadline plus the reply grace).
    /// Returns the final obs metrics snapshot. Idempotent.
    pub fn shutdown(&self, drain: bool) -> String {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.nudge_listener();
        let accept = self.accept.lock().expect("accept handle lock").take();
        if let Some(handle) = accept {
            let _ = handle.join();
        }
        let writer = self
            .telemetry_writer
            .lock()
            .expect("telemetry writer lock")
            .take();
        if let Some(handle) = writer {
            let _ = handle.join();
        }
        self.shared.pool.shutdown(drain);
        self.shared.await_owed_replies();
        #[cfg(unix)]
        if let Bind::Unix(path) = &self.bind {
            let _ = std::fs::remove_file(path);
        }
        let snapshot = vstack_obs::metrics::snapshot_json();
        log_info!("serve", "daemon stopped (drain={drain})");
        snapshot
    }

    /// Wakes the accept loop's blocking `accept` with a throwaway
    /// self-connection so it can observe the drain flag.
    fn nudge_listener(&self) {
        match &self.bind {
            Bind::Tcp(_) => {
                if let Some(addr) = self.tcp_addr {
                    let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(250));
                }
            }
            #[cfg(unix)]
            Bind::Unix(path) => {
                let _ = UnixStream::connect(path);
            }
            Bind::Stdio => {}
        }
    }
}

/// A bound socket listener.
enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

/// One accepted connection's read and write halves.
type Halves = (Box<dyn Read + Send>, Box<dyn Write + Send>);

impl Listener {
    /// Accepts one connection, its reads polling at [`READ_POLL`].
    fn accept(&self) -> io::Result<Halves> {
        match self {
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                s.set_read_timeout(Some(READ_POLL))?;
                Ok((Box::new(s.try_clone()?), Box::new(s)))
            }
            #[cfg(unix)]
            Listener::Unix(l) => {
                let (s, _) = l.accept()?;
                s.set_read_timeout(Some(READ_POLL))?;
                Ok((Box::new(s.try_clone()?), Box::new(s)))
            }
        }
    }
}

/// Starts the accept thread over `listener`.
fn spawn_accept(listener: Listener, shared: &Arc<Shared>) -> io::Result<thread::JoinHandle<()>> {
    let shared = Arc::clone(shared);
    thread::Builder::new()
        .name("vstack-accept".to_string())
        .spawn(move || accept_loop(&listener, &shared))
}

/// Accepts until the drain flag is set. Connection threads are detached:
/// each exits within a read-poll interval of the flag, and the pool they
/// talk to outlives them through the `Arc`.
fn accept_loop(listener: &Listener, shared: &Arc<Shared>) {
    loop {
        let accepted = listener.accept();
        if shared.draining.load(Ordering::SeqCst) {
            break;
        }
        match accepted {
            Ok((reader, writer)) => {
                vstack_obs::metrics::global().serve_connections.inc();
                let shared = Arc::clone(shared);
                let spawned = thread::Builder::new()
                    .name("vstack-conn".to_string())
                    .spawn(move || handle_conn(reader, writer, &shared));
                if let Err(e) = spawned {
                    log_warn!("serve", "connection thread spawn failed: {e}");
                }
            }
            Err(e) => log_warn!("serve", "accept failed: {e}"),
        }
    }
}

/// What the next request line turned out to be.
enum Line {
    /// A whole line, newline stripped.
    Bytes(Vec<u8>),
    /// A line longer than [`MAX_LINE`], now discarded through its newline.
    Overlong,
    /// End of stream.
    Eof,
}

/// Splits a byte stream into request lines of at most [`MAX_LINE`]
/// bytes. A read timeout can surface mid-line; the bytes read so far stay
/// buffered here, so the next call resumes the same line.
struct LineReader<R> {
    inner: BufReader<R>,
    line: Vec<u8>,
    /// The current line outgrew [`MAX_LINE`]; its bytes are dropped up to
    /// the next newline.
    overlong: bool,
}

impl<R: Read> LineReader<R> {
    fn new(inner: R) -> Self {
        LineReader {
            inner: BufReader::new(inner),
            line: Vec::new(),
            overlong: false,
        }
    }

    /// The next line. A final line without a newline still counts.
    ///
    /// # Errors
    ///
    /// Read errors, including the poll timeouts of socket reads.
    fn next(&mut self) -> io::Result<Line> {
        loop {
            let buf = match self.inner.fill_buf() {
                Ok(buf) => buf,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            let (chunk, used, ended) = match buf.iter().position(|&b| b == b'\n') {
                Some(i) => (&buf[..i], i + 1, true),
                None if buf.is_empty() => (buf, 0, true),
                None => (buf, buf.len(), false),
            };
            if !self.overlong && self.line.len() + chunk.len() > MAX_LINE {
                self.overlong = true;
                self.line = Vec::new();
            }
            if !self.overlong {
                self.line.extend_from_slice(chunk);
            }
            let eof = used == 0;
            self.inner.consume(used);
            if ended {
                return Ok(if std::mem::take(&mut self.overlong) {
                    Line::Overlong
                } else if eof && self.line.is_empty() {
                    Line::Eof
                } else {
                    Line::Bytes(std::mem::take(&mut self.line))
                });
            }
        }
    }
}

/// One request line's answer.
struct Answer {
    /// Response lines, in order.
    lines: Vec<Json>,
    /// A `shutdown` op: once `lines` are written, latch the shutdown
    /// request and close the connection.
    shutdown: bool,
    /// Held until `lines` are written, for requests admitted to the pool.
    _owed: Option<OwedReply>,
}

impl Answer {
    fn lines(lines: Vec<Json>) -> Answer {
        Answer {
            lines,
            shutdown: false,
            _owed: None,
        }
    }

    fn one(line: Json) -> Answer {
        Answer::lines(vec![line])
    }
}

/// Serves one connection: one NDJSON request per line, one (or per batch
/// item, several) NDJSON response line(s) back, until EOF, a read or
/// write failure, the drain flag or a `shutdown` op.
fn handle_conn(reader: impl Read, mut writer: impl Write, shared: &Arc<Shared>) {
    let mut lines = LineReader::new(reader);
    loop {
        let answer = match lines.next() {
            Ok(Line::Bytes(bytes)) => match std::str::from_utf8(&bytes) {
                Ok(text) if text.trim().is_empty() => continue,
                Ok(text) => handle_request(text, shared),
                Err(e) => Answer::one(error_response(
                    None,
                    code::PARSE_ERROR,
                    &format!("request line is not valid UTF-8: {e}"),
                )),
            },
            Ok(Line::Overlong) => Answer::one(error_response(
                None,
                code::INVALID_REQUEST,
                &format!("request line exceeds the {MAX_LINE}-byte limit; discarded"),
            )),
            Ok(Line::Eof) => break,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if shared.draining.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
            Err(_) => break,
        };
        let written = answer.lines.iter().all(|response| {
            writeln!(writer, "{}", response.emit())
                .and_then(|()| writer.flush())
                .is_ok()
        });
        if answer.shutdown {
            // Only now, so the owner cannot stop the process before the
            // acknowledgment is out.
            shared.request_shutdown();
        }
        if !written || answer.shutdown {
            break;
        }
    }
}

/// Dispatches one request line.
fn handle_request(text: &str, shared: &Arc<Shared>) -> Answer {
    let doc = match Json::parse(text) {
        Ok(d) => d,
        Err(e) => return Answer::one(error_response(None, code::PARSE_ERROR, &e.to_string())),
    };
    let id = doc.get("id").cloned();
    let Some(op) = doc.get("op").and_then(Json::as_str) else {
        return Answer::one(error_response(
            id,
            code::INVALID_REQUEST,
            "missing \"op\" field",
        ));
    };
    match op {
        "solve" => serve_solve(&doc, id, shared),
        "batch" => serve_batch(&doc, id, shared),
        "stats" => Answer::one(stats_response(id, shared)),
        "metrics" => Answer::one(metrics_response(id)),
        "telemetry" => Answer::one(telemetry_response(id, shared)),
        "flightdump" => Answer::one(flightdump_response(id, shared)),
        "shutdown" => {
            let mut fields = vec![];
            if let Some(id) = id {
                fields.push(("id", id));
            }
            fields.push(("ok", Json::Bool(true)));
            fields.push(("shutdown", Json::Bool(true)));
            Answer {
                shutdown: true,
                ..Answer::one(Json::obj(fields))
            }
        }
        other => Answer::one(error_response(
            id,
            code::UNKNOWN_OP,
            &format!("unknown op \"{other}\""),
        )),
    }
}

/// Admission plus bounded reply wait for one `solve` op.
fn serve_solve(doc: &Json, id: Option<Json>, shared: &Arc<Shared>) -> Answer {
    let invalid = |id, e: &str| Answer::one(error_response(id, code::INVALID_REQUEST, e));
    let Some(scenario) = doc.get("scenario") else {
        return invalid(id, "solve needs a \"scenario\"");
    };
    let request = match ScenarioRequest::from_json(scenario) {
        Ok(r) => r,
        Err(e) => return invalid(id, &e),
    };
    if let Err(e) = request.validate() {
        return invalid(id, &e);
    }
    let deadline_ms = match protocol::parse_deadline_ms(doc, shared.max_deadline_ms) {
        Ok(ms) => ms.unwrap_or(shared.default_deadline_ms),
        Err(e) => return invalid(id, &e),
    };
    let deadline = Instant::now() + Duration::from_millis(deadline_ms);
    let owed = shared.owe_reply(deadline);
    let cancel = CancelToken::with_deadline(deadline);
    let ctx = RequestCtx::mint();
    let (admission, shard) = shared.pool.submit(&request, cancel.clone(), ctx);
    Answer {
        _owed: Some(owed),
        ..Answer::one(settle(
            admission,
            shard,
            request.fingerprint(),
            id,
            deadline,
            &cancel,
            shared,
            ctx,
        ))
    }
}

/// A `batch` op: admit every parseable item up front (so siblings dedup
/// against each other in flight), then settle them in order under one
/// shared deadline. One response line per item, input order.
fn serve_batch(doc: &Json, batch_id: Option<Json>, shared: &Arc<Shared>) -> Answer {
    let Some(items) = doc.get("requests").and_then(Json::as_arr) else {
        return Answer::one(error_response(
            batch_id,
            code::INVALID_REQUEST,
            "batch needs a \"requests\" array",
        ));
    };
    let deadline_ms = match protocol::parse_deadline_ms(doc, shared.max_deadline_ms) {
        Ok(ms) => ms.unwrap_or(shared.default_deadline_ms),
        Err(e) => return Answer::one(error_response(batch_id, code::INVALID_REQUEST, &e)),
    };
    let deadline = Instant::now() + Duration::from_millis(deadline_ms);
    let owed = shared.owe_reply(deadline);
    let cancel = CancelToken::with_deadline(deadline);
    type Pending = (
        Option<Json>,
        Result<(Admission, usize, u64, RequestCtx), Json>,
    );
    let mut pending: Vec<Pending> = Vec::new();
    for item in items {
        let id = item.get("id").cloned();
        let request = match item.get("scenario") {
            Some(s) => ScenarioRequest::from_json(s).and_then(|r| r.validate().map(|()| r)),
            None => Err("batch item needs a \"scenario\"".to_string()),
        };
        match request {
            Ok(request) => {
                let ctx = RequestCtx::mint();
                let (admission, shard) = shared.pool.submit(&request, cancel.clone(), ctx);
                pending.push((id, Ok((admission, shard, request.fingerprint(), ctx))));
            }
            Err(e) => {
                pending.push((
                    id.clone(),
                    Err(error_response(id, code::INVALID_REQUEST, &e)),
                ));
            }
        }
    }
    let lines = pending
        .into_iter()
        .map(|(id, entry)| match entry {
            Ok((admission, shard, fingerprint, ctx)) => settle(
                admission,
                shard,
                fingerprint,
                id,
                deadline,
                &cancel,
                shared,
                ctx,
            ),
            Err(response) => response,
        })
        .collect();
    Answer {
        _owed: Some(owed),
        ..Answer::lines(lines)
    }
}

/// Turns an admission decision into the final response, waiting (bounded)
/// for the shard when the request was admitted or joined. Every response
/// — success or failure — carries an additive `telemetry` block with the
/// caller's own trace ID.
#[allow(clippy::too_many_arguments)]
fn settle(
    admission: Admission,
    shard: usize,
    fingerprint: u64,
    id: Option<Json>,
    deadline: Instant,
    cancel: &CancelToken,
    shared: &Shared,
    ctx: RequestCtx,
) -> Json {
    let m = vstack_obs::metrics::global();
    let own_wall_us = || u64::try_from(ctx.admitted.elapsed().as_micros()).unwrap_or(u64::MAX);
    let (rx, joined) = match admission {
        Admission::Queued(rx) => (rx, false),
        Admission::Joined(rx) => (rx, true),
        Admission::Shed { retry_after_ms } => {
            let t = RequestTelemetry::unserved(ctx.trace_id, shard);
            return attach_telemetry(overloaded_response(id, retry_after_ms), &t);
        }
        Admission::Closed => {
            let t = RequestTelemetry::unserved(ctx.trace_id, shard);
            return attach_telemetry(
                error_response(id, code::UNAVAILABLE, "server is shutting down"),
                &t,
            );
        }
    };
    let wait = deadline + REPLY_GRACE - Instant::now();
    match rx.recv_timeout(wait) {
        Ok(ShardOutcome::Done(result, worker_t)) => {
            let t = reply_telemetry(&worker_t, joined, shard, ctx, own_wall_us());
            let reply = match result {
                Ok(result) => ok_response(id, &result),
                Err(e) => engine_error_response(id, &e),
            };
            attach_telemetry(reply, &t)
        }
        Ok(ShardOutcome::Panicked(worker_t)) => {
            let t = reply_telemetry(&worker_t, joined, shard, ctx, own_wall_us());
            attach_telemetry(
                error_response(
                    id,
                    code::INTERNAL,
                    "request crashed its worker (contained); see server logs",
                ),
                &t,
            )
        }
        Ok(ShardOutcome::Drained) => {
            let mut t = RequestTelemetry::unserved(ctx.trace_id, shard);
            t.queue_wait_us = own_wall_us();
            attach_telemetry(
                error_response(id, code::UNAVAILABLE, "shed during server drain"),
                &t,
            )
        }
        Err(_) => {
            // The solve outlived deadline + grace (it will abandon itself
            // at the ladder's next cancellation poll) or its worker died.
            // Either way the client gets a bounded, structured answer.
            cancel.cancel();
            m.serve_deadline_exceeded.inc();
            let mut t = RequestTelemetry::unserved(ctx.trace_id, shard);
            t.queue_wait_us = own_wall_us();
            let telemetry = shared.pool.telemetry();
            telemetry.record_request(&t, fingerprint, FlightOutcome::DeadlineMiss);
            telemetry.maybe_dump("deadline_miss", ctx.trace_id);
            attach_telemetry(
                error_response(
                    id,
                    code::DEADLINE_EXCEEDED,
                    "deadline passed before the solve finished",
                ),
                &t,
            )
        }
    }
}

/// The telemetry block for a settled reply: the worker's phase breakdown
/// re-stamped with the *caller's* trace ID. A dedup joiner inherits the
/// leader's provenance (cache tier, solver path) but its phase timings
/// are clamped to the joiner's own wall clock — the leader started
/// earlier, so its raw timings could exceed what this caller observed.
fn reply_telemetry(
    worker: &RequestTelemetry,
    joined: bool,
    shard: usize,
    ctx: RequestCtx,
    own_wall_us: u64,
) -> RequestTelemetry {
    let mut t = worker.clone();
    t.trace_id = ctx.trace_id;
    t.shard = shard;
    if joined {
        t.solve_us = t.solve_us.min(own_wall_us);
        t.queue_wait_us = own_wall_us - t.solve_us;
    }
    t
}

/// The `stats` op: serving-tier counters from the global obs registry,
/// led by the wire [`crate::SCHEMA_VERSION`]. The engine's request, hit
/// and solve counters, summed over every shard, are in the `metrics`
/// snapshot (`engine_requests`, `engine_memory_hits`, …).
fn stats_response(id: Option<Json>, shared: &Shared) -> Json {
    let m = vstack_obs::metrics::global();
    let mut fields = vec![];
    if let Some(id) = id {
        fields.push(("id", id));
    }
    fields.push(("ok", Json::Bool(true)));
    fields.push((
        "stats",
        Json::obj(vec![
            (
                "schema_version",
                Json::Num(f64::from(crate::SCHEMA_VERSION)),
            ),
            ("shards", Json::Num(shared.pool.len() as f64)),
            ("queued", Json::Num(shared.pool.queued() as f64)),
            ("connections", Json::Num(m.serve_connections.get() as f64)),
            ("accepted", Json::Num(m.serve_accepted.get() as f64)),
            ("shed", Json::Num(m.serve_shed.get() as f64)),
            ("dedup_joins", Json::Num(m.serve_dedup_joins.get() as f64)),
            (
                "deadline_exceeded",
                Json::Num(m.serve_deadline_exceeded.get() as f64),
            ),
            (
                "worker_panics",
                Json::Num(m.serve_worker_panics.get() as f64),
            ),
            ("drained_jobs", Json::Num(m.serve_drained_jobs.get() as f64)),
            (
                "cache_quarantined",
                Json::Num(m.serve_cache_quarantined.get() as f64),
            ),
            // Additions ride at the end so the legacy field prefix stays
            // byte-identical (pinned by tests/telemetry.rs).
            (
                "uptime_ms",
                Json::Num(shared.pool.telemetry().uptime_ms() as f64),
            ),
            (
                "telemetry_schema_version",
                Json::Num(f64::from(TELEMETRY_SCHEMA_VERSION)),
            ),
        ]),
    ));
    Json::obj(fields)
}

/// The `telemetry` op: per-shard rolling phase rollups (p50/p99/p999,
/// SLO burn rate, merged buckets).
fn telemetry_response(id: Option<Json>, shared: &Shared) -> Json {
    let mut fields = vec![];
    if let Some(id) = id {
        fields.push(("id", id));
    }
    fields.push(("ok", Json::Bool(true)));
    fields.push(("telemetry", shared.pool.telemetry().rollup_json()));
    Json::obj(fields)
}

/// The `flightdump` op: force a flight-recorder dump now. Fails with
/// `unavailable` when the daemon has no flight directory configured.
fn flightdump_response(id: Option<Json>, shared: &Shared) -> Json {
    match shared.pool.telemetry().dump("on_demand", 0) {
        Ok(Some(path)) => {
            let mut fields = vec![];
            if let Some(id) = id {
                fields.push(("id", id));
            }
            fields.push(("ok", Json::Bool(true)));
            fields.push((
                "flightdump",
                Json::obj(vec![("path", Json::Str(path.display().to_string()))]),
            ));
            Json::obj(fields)
        }
        Ok(None) => error_response(
            id,
            code::UNAVAILABLE,
            "no flight directory configured (--flight-dir)",
        ),
        Err(e) => error_response(id, code::INTERNAL, &format!("flight dump failed: {e}")),
    }
}

/// Appends one telemetry-rollup line to `path` every `interval` until
/// the daemon drains, plus a final line at shutdown so even a short run
/// leaves evidence. Each line is the `telemetry` verb's document with a
/// wall-clock `ts_ms` stamp appended.
fn telemetry_writer_loop(shared: &Arc<Shared>, path: &std::path::Path, interval: Duration) {
    let write_line = || {
        let mut doc = shared.pool.telemetry().rollup_json();
        if let Json::Obj(fields) = &mut doc {
            let ts_ms = SystemTime::UNIX_EPOCH
                .elapsed()
                .map(|d| d.as_millis() as f64)
                .unwrap_or(0.0);
            fields.push(("ts_ms".to_string(), Json::Num(ts_ms)));
        }
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{}", doc.emit()));
        if let Err(e) = appended {
            vstack_obs::warn_once!(
                "serve",
                "telemetry writer cannot append to {} ({e}); lines will be dropped",
                path.display()
            );
        }
    };
    let mut next = Instant::now() + interval;
    while !shared.draining.load(Ordering::SeqCst) {
        thread::sleep(Duration::from_millis(25).min(interval));
        if Instant::now() >= next {
            write_line();
            next = Instant::now() + interval;
        }
    }
    write_line();
}
