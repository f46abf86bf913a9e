//! The query engine: answers one request at a time on the calling
//! thread — validate, canonicalize, answer from the memory tier, then the
//! disk tier, else solve and cache the result.
//!
//! Every solve is composed from the request's axes in one place,
//! [`solve_scenario_cancellable`].
//!
//! # Determinism
//!
//! A query's answer depends only on its request: canonicalization is
//! pure, and every miss is `solve_scenario_cancellable(&request, None,
//! …)` on a fresh [`SolveScratch`], which starts at the PDN's nominal
//! rail voltages. So a served summary is bit-identical to
//! [`solve_scenario`]`(request, None)`'s, whatever the cache held, apart
//! from the measured `solver_setup_us`. The cache decides only whether
//! the answer is solved or read back. Concurrent callers (the daemon's
//! shards) each own an engine, so nothing is shared between solves.

use std::io;
use std::path::PathBuf;
use std::time::Instant;

use vstack::coupled::{solve_coupled, CoupledConfig};
use vstack_pdn::{PdnError, SolveScratch};
use vstack_sparse::{CancelToken, SolveError};

use crate::cache::{CacheEntry, DiskCache, DiskLoad, LruCache};
use crate::request::ScenarioRequest;
use crate::summary::SolveSummary;

/// Engine construction options.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Bound on the in-memory LRU tier (entries).
    pub lru_capacity: usize,
    /// Directory for the on-disk tier; `None` disables it.
    pub cache_dir: Option<PathBuf>,
    /// Ignored: no solve starts from a cached neighbour's answer any
    /// more. Kept only because the `e2e` benchmark
    /// (`crates/bench/src/bin/e2e/serve.rs`) still sets it; the
    /// `[benchmark]` change that drops it there (ROADMAP.md) removes it.
    pub warm_start: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            lru_capacity: 256,
            cache_dir: None,
            warm_start: true,
        }
    }
}

/// How one request was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Served from the in-memory tier.
    HitMemory,
    /// Served from the on-disk tier.
    HitDisk,
    /// Never produced: every solve is [`Outcome::Cold`]. Kept only
    /// because the `e2e` benchmark (`crates/bench/src/bin/e2e/serve.rs`)
    /// still matches it; the `[benchmark]` change that drops those
    /// matches (ROADMAP.md) removes it.
    Warm,
    /// Solved, from the PDN's nominal rail voltages.
    Cold,
}

impl Outcome {
    /// Protocol label: both cache tiers count as hits.
    pub fn label(self) -> &'static str {
        match self {
            Outcome::HitMemory | Outcome::HitDisk => "hit",
            Outcome::Warm => "warm",
            Outcome::Cold => "cold",
        }
    }

    /// Where a hit came from; `None` for actual solves.
    pub fn source(self) -> Option<&'static str> {
        match self {
            Outcome::HitMemory => Some("memory"),
            Outcome::HitDisk => Some("disk"),
            Outcome::Warm | Outcome::Cold => None,
        }
    }
}

/// Monotonic service counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Requests accepted (valid scenarios).
    pub requests: u64,
    /// Requests rejected at validation/parse time.
    pub invalid: u64,
    /// Served from the memory tier.
    pub memory_hits: u64,
    /// Served from the disk tier.
    pub disk_hits: u64,
    /// Solves performed.
    pub cold_solves: u64,
    /// Disk entries rejected for a schema-version mismatch.
    pub schema_rejects: u64,
    /// Disk entries rejected as corrupt.
    pub corrupt_rejects: u64,
    /// Total iterations across all solves performed.
    pub solver_iterations: u64,
    /// Microseconds spent building preconditioners (AMG hierarchies and
    /// their f32 mirrors, Jacobi inverse diagonals) across all solves; 0
    /// when setup was cached.
    pub solver_setup_us: u64,
    /// Wall-clock spent inside solves, microseconds.
    pub solve_time_us: u64,
}

impl EngineStats {
    /// Solves actually performed.
    pub fn solves(&self) -> u64 {
        self.cold_solves
    }

    /// Requests answered without a new solve.
    pub fn hits(&self) -> u64 {
        self.memory_hits + self.disk_hits
    }

    /// Fraction of accepted requests answered without a new solve.
    pub fn hit_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.hits() as f64 / self.requests as f64
        }
    }
}

/// A satisfied query.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Content-address of the canonical request.
    pub fingerprint: u64,
    /// How it was satisfied.
    pub outcome: Outcome,
    /// The result payload.
    pub summary: SolveSummary,
    /// Wall-clock of the solve that produced this result, microseconds;
    /// 0 for cache hits.
    pub latency_us: u64,
}

/// A failed query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The request failed validation; nothing was solved.
    Invalid(String),
    /// The solver could not produce a solution for this scenario.
    Solve(String),
    /// The solve was abandoned because its cancellation token fired — the
    /// request deadline passed or the server began draining. Distinct
    /// from [`EngineError::Solve`] so serving tiers can answer with a
    /// `deadline_exceeded` error instead of a solver failure.
    Cancelled,
}

impl core::fmt::Display for EngineError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            EngineError::Invalid(m) => write!(f, "invalid request: {m}"),
            EngineError::Solve(m) => write!(f, "solve failed: {m}"),
            EngineError::Cancelled => write!(f, "solve cancelled (deadline or shutdown)"),
        }
    }
}

/// The scenario-query engine: one request at a time on the calling
/// thread.
#[derive(Debug)]
pub struct Engine {
    lru: LruCache,
    disk: Option<DiskCache>,
    /// Fingerprints solved since the last flush, oldest first.
    dirty: Vec<u64>,
    stats: EngineStats,
    /// Cancellation token threaded into every solve; defaults to the
    /// never-firing token.
    cancel: CancelToken,
}

impl Engine {
    /// Builds an engine, opening the disk tier if configured.
    ///
    /// # Errors
    ///
    /// Propagates cache-directory creation failures.
    pub fn new(config: EngineConfig) -> io::Result<Self> {
        let disk = match &config.cache_dir {
            Some(dir) => Some(DiskCache::open(dir)?),
            None => None,
        };
        Ok(Engine {
            lru: LruCache::new(config.lru_capacity),
            disk,
            dirty: Vec::new(),
            stats: EngineStats::default(),
            cancel: CancelToken::never(),
        })
    }

    /// The counters so far.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Installs the cancellation token threaded into every subsequent
    /// solve (deadline enforcement happens between escalation-ladder
    /// rungs). Serving tiers set a per-request token before each query;
    /// pass [`CancelToken::never`] to clear.
    pub fn set_cancel_token(&mut self, cancel: CancelToken) {
        self.cancel = cancel;
    }

    /// Serves one request: validate, canonicalize, answer from the memory
    /// tier, then the disk tier, else solve it alone (see the module's
    /// determinism note) and cache the result.
    /// Every counter is mirrored into the global obs registry as it
    /// moves, so the `metrics` verb sees what [`Engine::stats`] does.
    ///
    /// # Errors
    ///
    /// See [`EngineError`].
    pub fn query(&mut self, request: &ScenarioRequest) -> Result<QueryResult, EngineError> {
        let _span = vstack_obs::span!("engine_query");
        let m = vstack_obs::metrics::global();
        if let Err(e) = request.validate() {
            self.stats.invalid += 1;
            m.engine_invalid.inc();
            return Err(EngineError::Invalid(e));
        }
        self.stats.requests += 1;
        m.engine_requests.inc();
        let request = request.canonical();
        let fingerprint = request.fingerprint();
        let hit = |outcome, summary| QueryResult {
            fingerprint,
            outcome,
            summary,
            latency_us: 0,
        };
        if let Some(entry) = self.lru.get(fingerprint) {
            self.stats.memory_hits += 1;
            m.engine_memory_hits.inc();
            return Ok(hit(Outcome::HitMemory, entry.summary.clone()));
        }
        if let Some(disk) = &self.disk {
            match disk.load(fingerprint) {
                DiskLoad::Hit(entry) => {
                    self.stats.disk_hits += 1;
                    m.engine_disk_hits.inc();
                    let summary = entry.summary.clone();
                    self.lru.insert(fingerprint, *entry);
                    return Ok(hit(Outcome::HitDisk, summary));
                }
                DiskLoad::SchemaMismatch => {
                    self.stats.schema_rejects += 1;
                    m.engine_schema_rejects.inc();
                }
                DiskLoad::Corrupt(_) => {
                    self.stats.corrupt_rejects += 1;
                    m.engine_corrupt_rejects.inc();
                }
                DiskLoad::Missing => {}
            }
        }
        let started = Instant::now();
        let (summary, _) = solve_scenario_cancellable(&request, None, &self.cancel)?;
        let micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.stats.solver_iterations += summary.solver_iterations as u64;
        self.stats.solver_setup_us += summary.solver_setup_us;
        self.stats.solve_time_us += micros;
        self.stats.cold_solves += 1;
        m.engine_cold_solves.inc();
        self.lru.insert(
            fingerprint,
            CacheEntry {
                request,
                summary: summary.clone(),
            },
        );
        if self.disk.is_some() && !self.dirty.contains(&fingerprint) {
            self.dirty.push(fingerprint);
        }
        Ok(QueryResult {
            fingerprint,
            outcome: Outcome::Cold,
            summary,
            latency_us: micros,
        })
    }

    /// Writes every solve since the last flush to the disk tier. Returns
    /// how many entries were written. A no-op without a cache dir.
    ///
    /// # Errors
    ///
    /// Propagates the first filesystem failure; unwritten fingerprints
    /// stay queued for the next flush.
    pub fn flush(&mut self) -> io::Result<usize> {
        let Some(disk) = &self.disk else {
            self.dirty.clear();
            return Ok(0);
        };
        let mut written = 0;
        while let Some(&fp) = self.dirty.first() {
            if let Some(entry) = self.lru.peek(fp) {
                disk.store(fp, &entry.request, &entry.summary)?;
                written += 1;
            }
            self.dirty.remove(0);
        }
        Ok(written)
    }
}

/// Performs one solve outside the cache: build the scenario, run the
/// thermal–EM–IR fixed point when the request has a thermal axis, else
/// one fault-aware ladder solve of the PDN and loads its stacking axis
/// selects, with its fault set (empty when intact), and summarize. The
/// solve starts from `guess` when given, else from the PDN's nominal rail
/// voltages; [`Engine::query`] always passes `None`, so this is also the
/// oracle its answers are checked against.
///
/// # Errors
///
/// [`EngineError::Solve`] when the escalation ladder is exhausted, the
/// grid is inconsistent or `guess` is not one value per node of this
/// request's network — never a panic for a validated request.
pub fn solve_scenario(
    request: &ScenarioRequest,
    guess: Option<&[f64]>,
) -> Result<(SolveSummary, Vec<f64>), EngineError> {
    solve_scenario_cancellable(request, guess, &CancelToken::never())
}

/// [`solve_scenario`] with a cooperative cancellation token threaded down
/// to the escalation ladder, which polls it between rungs. A fired token
/// surfaces as [`EngineError::Cancelled`].
///
/// # Errors
///
/// As for [`solve_scenario`], plus [`EngineError::Cancelled`].
pub fn solve_scenario_cancellable(
    request: &ScenarioRequest,
    guess: Option<&[f64]>,
    cancel: &CancelToken,
) -> Result<(SolveSummary, Vec<f64>), EngineError> {
    let scenario = request.to_scenario();
    let mut scratch = SolveScratch::new();
    scratch.set_cancel(cancel.clone());
    let map_err = |e: PdnError| match e {
        PdnError::Solve(SolveError::Cancelled) => EngineError::Cancelled,
        other => EngineError::Solve(other.to_string()),
    };
    if let Some(thermal) = &request.thermal {
        let mut config = CoupledConfig::paper_air_cooled()
            .ambient_c(thermal.ambient_c)
            .sink_resistance(thermal.sink_k_per_w);
        if let Some((layer, watts)) = thermal.hotspot {
            config = config.hotspot(layer, watts);
        }
        let out = solve_coupled(&scenario, request.load(), &config, guess, &mut scratch)
            .map_err(map_err)?;
        let voltages = out.solved.voltages.clone();
        return Ok((SolveSummary::from_coupled(&out), voltages));
    }
    let solved = scenario
        .solve_faulted(request.load(), &request.faults, guess, &mut scratch)
        .map_err(map_err)?;
    Ok((SolveSummary::from_faulted(&solved), solved.voltages))
}
