//! `vstack-serve` — the serving front-end: one daemon, connections from
//! stdin/stdout (the default), a TCP address (`--listen ADDR`) or a Unix
//! socket (`--unix PATH`).
//!
//! Every transport speaks the same NDJSON protocol through the same
//! pipeline (`vstack_engine::server`): one JSON request object per line
//! in, one JSON response object per line out (batch ops write one line
//! per item), answered by fingerprint-sharded workers with bounded
//! admission queues (overload answers `{"error":{"code":"overloaded",
//! "retry_after_ms":…}}`), per-request `deadline_ms` enforcement,
//! cross-request dedup and panic containment. Malformed input yields a
//! structured error response, never a panic or an exit. A `shutdown` op,
//! SIGTERM or SIGINT — and on stdin, EOF — drains gracefully: accepting
//! stops, queued work finishes, every admitted request's reply is
//! written, every cache segment is flushed and the final metrics snapshot
//! is logged before exit 0.
//!
//! ```text
//! $ vstack-serve --cache-dir /tmp/vstack-cache
//! {"op":"solve","id":1,"scenario":{"solve":"vs","layers":8,"imbalance":0.3,"fidelity":"quick"}}
//! {"id":1,"ok":true,"outcome":"cold","fingerprint":"…","summary":{…},"latency_us":…,"telemetry":{…}}
//!
//! $ vstack-serve --listen 127.0.0.1:7077 --shards 4 --queue-depth 32 --cache-dir /var/cache/vstack
//! ```
//!
//! Options: `--cache-dir DIR` (each shard owns `DIR/shard-NN/`), `--lru
//! N` (per shard, default 256), `--listen ADDR`, `--unix PATH`,
//! `--shards N`, `--queue-depth N`, `--deadline-ms N`
//! (default deadline, 30000), `--max-deadline-ms N`, `--no-drain` (shed
//! instead of finishing queued work on shutdown), `--metrics-out FILE`
//! (write the final metrics snapshot there on exit), `--telemetry-out
//! FILE` (append a telemetry-rollup NDJSON line per interval),
//! `--telemetry-interval-ms N` (default 1000), `--flight-dir DIR` (where
//! flight-recorder dumps land; defaults to `vstack-flight/` under the
//! system temp dir), `--slo-ms N` (windowed-histogram SLO threshold,
//! default 250). Diagnostics go to stderr through the `vstack-obs` logger
//! (target `serve`); tune with `VSTACK_LOG`.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use vstack_engine::server::{Bind, Daemon, DaemonConfig, ShardConfig};
use vstack_obs::{log_error, log_info};

/// Async-signal-safe SIGTERM/SIGINT latch. Lives in the binary because
/// the library forbids unsafe code; the handler only stores an atomic.
#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    static TERMINATE: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_signum: i32) {
        TERMINATE.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    /// Installs the latch for SIGINT (2) and SIGTERM (15).
    pub fn install() {
        unsafe {
            signal(2, on_signal);
            signal(15, on_signal);
        }
    }

    /// Whether a termination signal has arrived.
    pub fn terminated() -> bool {
        TERMINATE.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod sig {
    pub fn install() {}
    pub fn terminated() -> bool {
        false
    }
}

/// Parsed command line: the daemon's configuration plus what the
/// binary itself does at shutdown.
struct Args {
    daemon: DaemonConfig,
    drain: bool,
    metrics_out: Option<PathBuf>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            daemon: DaemonConfig {
                bind: Bind::Stdio,
                shard: ShardConfig {
                    flight_dir: Some(std::env::temp_dir().join("vstack-flight")),
                    ..ShardConfig::default()
                },
                ..DaemonConfig::default()
            },
            drain: true,
            metrics_out: None,
        }
    }
}

/// Start the daemon, park until a stop arrives, shut down.
fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            log_error!("serve", "{e}");
            return ExitCode::from(2);
        }
    };
    sig::install();
    let daemon = match Daemon::start(args.daemon) {
        Ok(d) => d,
        Err(e) => {
            log_error!("serve", "daemon start failed: {e}");
            return ExitCode::from(2);
        }
    };
    loop {
        if sig::terminated() {
            log_info!("serve", "termination signal; draining");
            break;
        }
        if daemon.wait_shutdown_requested(Duration::from_millis(200)) {
            log_info!("serve", "shutdown requested; draining");
            break;
        }
    }
    let snapshot = daemon.shutdown(args.drain);
    log_info!("serve", "final metrics: {snapshot}");
    if let Some(path) = &args.metrics_out {
        if let Err(e) = std::fs::write(path, &snapshot) {
            log_error!("serve", "cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// Parses CLI flags.
fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    fn positive(flag: &str, value: Option<String>) -> Result<usize, String> {
        let v = value.ok_or_else(|| format!("{flag} needs a value"))?;
        v.parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| format!("{flag} must be a positive integer, got \"{v}\""))
    }
    let mut parsed = Args::default();
    let daemon = &mut parsed.daemon;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--cache-dir" => {
                let dir = args.next().ok_or("--cache-dir needs a path")?;
                daemon.shard.cache_dir = Some(PathBuf::from(dir));
            }
            "--lru" => daemon.shard.lru_capacity = positive("--lru", args.next())?,
            "--listen" => {
                let addr = args.next().ok_or("--listen needs an address")?;
                daemon.bind = Bind::Tcp(addr);
            }
            "--unix" => {
                let path = args.next().ok_or("--unix needs a path")?;
                #[cfg(unix)]
                {
                    daemon.bind = Bind::Unix(PathBuf::from(path));
                }
                #[cfg(not(unix))]
                {
                    let _ = path;
                    return Err("--unix is only supported on Unix platforms".to_string());
                }
            }
            "--shards" => daemon.shard.shards = positive("--shards", args.next())?,
            "--queue-depth" => {
                daemon.shard.queue_capacity = positive("--queue-depth", args.next())?;
            }
            "--deadline-ms" => {
                daemon.default_deadline_ms = positive("--deadline-ms", args.next())? as u64;
            }
            "--max-deadline-ms" => {
                daemon.max_deadline_ms = positive("--max-deadline-ms", args.next())? as u64;
            }
            "--no-drain" => parsed.drain = false,
            "--metrics-out" => {
                let path = args.next().ok_or("--metrics-out needs a path")?;
                parsed.metrics_out = Some(PathBuf::from(path));
            }
            "--telemetry-out" => {
                let path = args.next().ok_or("--telemetry-out needs a path")?;
                daemon.telemetry_out = Some(PathBuf::from(path));
            }
            "--telemetry-interval-ms" => {
                daemon.telemetry_interval_ms =
                    positive("--telemetry-interval-ms", args.next())? as u64;
            }
            "--flight-dir" => {
                let dir = args.next().ok_or("--flight-dir needs a path")?;
                daemon.shard.flight_dir = Some(PathBuf::from(dir));
            }
            "--slo-ms" => {
                let ms = positive("--slo-ms", args.next())? as u64;
                daemon.shard.slo_us = ms.saturating_mul(1_000);
            }
            "--help" | "-h" => {
                return Err("usage: vstack-serve [--cache-dir DIR] [--lru N] \
                     [--listen ADDR | --unix PATH] [--shards N] [--queue-depth N] \
                     [--deadline-ms N] [--max-deadline-ms N] [--no-drain] [--metrics-out FILE] \
                     [--telemetry-out FILE] [--telemetry-interval-ms N] [--flight-dir DIR] \
                     [--slo-ms N]"
                    .to_string())
            }
            other => return Err(format!("unknown flag \"{other}\"")),
        }
    }
    if daemon.default_deadline_ms > daemon.max_deadline_ms {
        return Err("--deadline-ms must not exceed --max-deadline-ms".to_string());
    }
    Ok(parsed)
}
