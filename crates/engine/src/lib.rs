//! `vstack-engine` — the scenario-query engine.
//!
//! Turns the fast solver stack (`vstack-core` → `vstack-pdn` →
//! `vstack-sparse`) into a fast *service*: design-space exploration is a
//! repeated-query workload, and this crate owns the query lifecycle that
//! amortizes it.
//!
//! * [`request`] — the canonical, versioned [`request::ScenarioRequest`]:
//!   base knobs plus a stacking, a thermal and a fault axis, each owning
//!   its range checks, fingerprint tags and JSON fields, with a
//!   deterministic 64-bit content fingerprint, stable under JSON field
//!   ordering and float formatting.
//! * [`cache`] — a bounded in-memory LRU (which also retains node
//!   voltages for warm starts) over an optional on-disk store stamped
//!   with [`SCHEMA_VERSION`].
//! * [`engine`] — answers one request at a time on the calling thread:
//!   from the cache tiers, else by one solve composed from the request's
//!   axes, seeded from the nearest cached neighbour.
//! * [`server`] — the serving daemon: fingerprint-sharded engines behind
//!   bounded admission queues, with cross-request dedup, deadlines, panic
//!   containment and graceful drain, reached over stdin/stdout, TCP or a
//!   Unix socket.
//! * [`json`] — the std-only JSON tree the wire protocol and disk store
//!   use (the workspace carries no serde).
//!
//! The `vstack-serve` binary in this crate runs that daemon, speaking
//! newline-delimited JSON over stdin/stdout by default.
//!
//! # Quickstart
//!
//! ```
//! use vstack_engine::engine::{Engine, EngineConfig, Outcome};
//! use vstack_engine::request::ScenarioRequest;
//!
//! let mut engine = Engine::new(EngineConfig::default()).unwrap();
//! let req = ScenarioRequest::voltage_stacked(2, 0.4).quick();
//! let first = engine.query(&req).unwrap();
//! let again = engine.query(&req).unwrap();
//! assert_eq!(first.outcome, Outcome::Cold);
//! assert_eq!(again.outcome, Outcome::HitMemory);
//! assert_eq!(engine.stats().solves(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Version stamp of every persisted or wire-visible artifact (request
/// encoding, summary layout, disk-cache files). Bump on any incompatible
/// change; older disk entries are then rejected — never misread — and
/// re-solved.
///
/// Version 3 added the top-level `schema_version` field to the `stats`
/// response object (the metrics/observability release).
///
/// Version 4 is the hardened-serving release: disk-cache entries moved to
/// the checksummed `{schema, checksum, payload}` envelope (torn or
/// corrupted writes are detected and quarantined instead of trusted), and
/// the wire protocol gained `deadline_ms` on requests plus
/// `retry_after_ms` on overload rejections.
///
/// Version 5 is the thermal-coupling release: requests gained the
/// optional thermal axis (`thermal_coupling`, `ambient_c`,
/// `sink_k_per_w`, `hotspot_layer`, `hotspot_w`) and summaries the
/// additive coupling fields. The **fingerprint domain did not move**: it
/// stays pinned at [`request::FINGERPRINT_DOMAIN`] so every pre-thermal
/// request keeps its byte-identical fingerprint (thermal fields hash
/// only when coupling is enabled).
///
/// Version 6 is the fault-axis release: requests gained the optional
/// what-if fault fields (`failed_vdd_pads`, `failed_gnd_pads`,
/// `failed_tsvs`), answered through the rank-k Sherman–Morrison–Woodbury
/// fault sketch. As with the thermal axis the fingerprint domain stays
/// pinned: fault fields hash only when a fault is present, so every
/// unfaulted request keeps its byte-identical fingerprint. Served faults
/// have since moved from the sketch to the escalation ladder, one
/// fault-aware solve like an intact request's (each served solve owns a
/// fresh scratch, which a sketch would not outlive); requests,
/// fingerprints and summary layout did not change, so the version did
/// not move.
///
/// Version 7 is the one-pipeline release: stdin became a connection of
/// the serving daemon, so its `stats` op answers the daemon's object
/// (serving counters; the engine's request, hit and solve counters are in
/// `metrics`), a `batch` duplicate carries its leader's outcome instead
/// of `"source":"dedup"`, and the stdin disk cache moved to the
/// daemon's `shard-NN/` segments. Fingerprints do not move.
pub const SCHEMA_VERSION: u32 = 7;

pub mod cache;
pub mod engine;
pub mod json;
pub mod request;
pub mod server;
pub mod summary;

pub use engine::{Engine, EngineConfig, EngineStats, Outcome, QueryResult};
pub use request::{ScenarioRequest, StackAxis, ThermalAxis};
pub use summary::SolveSummary;
