//! The hardened serving tier: a concurrent daemon over the engine, and
//! the only path a served request takes. `vstack-serve` runs it with
//! stdin/stdout as its one connection, or behind a TCP or Unix-socket
//! listener:
//!
//! * [`queue`] — the bounded, non-blocking admission queue (the load-shed
//!   primitive);
//! * [`shard`] — fingerprint-sharded workers, each owning a private
//!   engine (LRU + disk-cache segment), with cross-request dedup of
//!   identical in-flight fingerprints and `catch_unwind` panic
//!   containment;
//! * [`daemon`] — the transports (stdio, TCP, Unix socket) and the one
//!   connection loop behind them, per-request deadlines (cooperatively
//!   cancelling solves between escalation-ladder rungs), and graceful
//!   drain that flushes every cache segment;
//! * [`protocol`] — shared NDJSON response builders and the stable error
//!   vocabulary (`overloaded` + `retry_after_ms`, `deadline_exceeded`,
//!   `internal`, `unavailable`);
//! * [`telemetry`] — request-scoped observability: trace-ID minting, the
//!   per-request context threaded through the queue, and the one record
//!   each request leaves ([`RequestTelemetry`]). The reply's `telemetry`
//!   block, the rolling per-shard SLO histograms behind the `telemetry`
//!   verb, and the always-on flight recorder (the last 512 requests per
//!   shard, dumped on panic, deadline miss, or shed spike) all read it;
//! * [`chaos`] — feature-gated fault injection (torn cache writes, worker
//!   panics, slow solves) for the chaos test harness; compiled out by
//!   default.
//!
//! Every wait in the tier is bounded: admission never blocks, reply waits
//! are capped by the request deadline, socket reads poll for the drain
//! flag, request lines are capped at [`daemon::MAX_LINE`] bytes. An overloaded or crashing server answers structured errors; it
//! does not hang, grow without bound, or lose its disk cache.

pub mod chaos;
pub mod daemon;
pub mod protocol;
pub mod queue;
pub mod shard;
pub mod telemetry;

pub use daemon::{Bind, Daemon, DaemonConfig};
pub use shard::{ShardConfig, ShardPool};
pub use telemetry::{RequestCtx, RequestTelemetry};
