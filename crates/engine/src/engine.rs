//! The query engine: cache lookup, in-batch deduplication, warm-start
//! donor selection and the deterministic batch scheduler.
//!
//! # Determinism
//!
//! A batch's outcome depends only on the requests and the cache state at
//! entry:
//!
//! * Requests are canonicalized and grouped by fingerprint in
//!   first-occurrence order; duplicate requests join their group instead
//!   of solving again.
//! * Warm-start donors are snapshotted from the memory cache *before* any
//!   solve is dispatched, so a donor choice can never depend on the
//!   completion order of sibling solves.
//! * The solves run over [`vstack_sparse::pool`] workers via `par_map`,
//!   which preserves submission order in its results; each job owns a
//!   fresh [`SolveScratch`], so no floating-point state is shared across
//!   jobs.
//!
//! Re-solving a scenario warm-started from its own cached voltages is
//! bit-identical to the cold solve: the guess already satisfies the
//! convergence tolerance, so the solver returns it unchanged after the
//! zero-iteration residual check.

use std::io;
use std::path::PathBuf;
use std::time::Instant;

use vstack::coupled::{solve_coupled, CoupledConfig};
use vstack::scenario::ScenarioLoad;
use vstack_pdn::{FaultSet, PdnError, SolveScratch};
use vstack_sparse::{pool, CancelToken, SolveError};

use crate::cache::{CacheEntry, DiskCache, DiskLoad, LruCache};
use crate::json::Json;
use crate::request::{ScenarioRequest, SolveKind};
use crate::summary::SolveSummary;

/// Engine construction options.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Bound on the in-memory LRU tier (entries).
    pub lru_capacity: usize,
    /// Directory for the on-disk tier; `None` disables it.
    pub cache_dir: Option<PathBuf>,
    /// Whether cold solves may seed from the nearest cached neighbour.
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
    /// Duplicate of another request in the same batch; shared its solve.
    Deduped,
    /// Solved, seeded from a cached neighbour's voltages.
    Warm,
    /// Solved from scratch.
    Cold,
}

impl Outcome {
    /// Protocol label: duplicates and both cache tiers all count as hits.
    pub fn label(self) -> &'static str {
        match self {
            Outcome::HitMemory | Outcome::HitDisk | Outcome::Deduped => "hit",
            Outcome::Warm => "warm",
            Outcome::Cold => "cold",
        }
    }

    /// Where a hit came from; `None` for actual solves.
    pub fn source(self) -> Option<&'static str> {
        match self {
            Outcome::HitMemory => Some("memory"),
            Outcome::HitDisk => Some("disk"),
            Outcome::Deduped => Some("dedup"),
            Outcome::Warm | Outcome::Cold => None,
        }
    }
}

/// Monotonic service counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Requests accepted (valid scenarios, including duplicates).
    pub requests: u64,
    /// Requests rejected at validation/parse time.
    pub invalid: u64,
    /// Served from the memory tier.
    pub memory_hits: u64,
    /// Served from the disk tier.
    pub disk_hits: u64,
    /// Batch duplicates that piggybacked on a sibling's solve.
    pub deduped: u64,
    /// Solves seeded from a cached neighbour.
    pub warm_solves: u64,
    /// Solves from scratch.
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
    /// Wall-clock spent inside solves, microseconds (per-job, so parallel
    /// batches sum to more than elapsed time).
    pub solve_time_us: u64,
    /// Solves whose accepted rung used the mixed-precision f32 V-cycle
    /// (`solver_path` ends with `"mixed"`).
    pub mixed_solves: u64,
}

impl EngineStats {
    /// Solves actually performed.
    pub fn solves(&self) -> u64 {
        self.warm_solves + self.cold_solves
    }

    /// Requests answered without a new solve.
    pub fn hits(&self) -> u64 {
        self.memory_hits + self.disk_hits + self.deduped
    }

    /// Fraction of accepted requests answered without a new solve.
    pub fn hit_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.hits() as f64 / self.requests as f64
        }
    }

    /// Serializes the counters for the `stats` protocol op. The engine
    /// protocol [`crate::SCHEMA_VERSION`] is stamped at the top level so
    /// clients can detect incompatible servers from `stats` alone, not
    /// just from cached result files.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            (
                "schema_version",
                Json::Num(f64::from(crate::SCHEMA_VERSION)),
            ),
            ("requests", Json::Num(self.requests as f64)),
            ("invalid", Json::Num(self.invalid as f64)),
            ("memory_hits", Json::Num(self.memory_hits as f64)),
            ("disk_hits", Json::Num(self.disk_hits as f64)),
            ("deduped", Json::Num(self.deduped as f64)),
            ("warm_solves", Json::Num(self.warm_solves as f64)),
            ("cold_solves", Json::Num(self.cold_solves as f64)),
            ("schema_rejects", Json::Num(self.schema_rejects as f64)),
            ("corrupt_rejects", Json::Num(self.corrupt_rejects as f64)),
            (
                "solver_iterations",
                Json::Num(self.solver_iterations as f64),
            ),
            ("solver_setup_us", Json::Num(self.solver_setup_us as f64)),
            ("solve_time_us", Json::Num(self.solve_time_us as f64)),
            ("mixed_solves", Json::Num(self.mixed_solves as f64)),
            ("hit_rate", Json::Num(self.hit_rate())),
        ])
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

/// The scenario-query engine. Single-threaded interface; parallelism
/// lives inside [`Engine::query_batch`].
#[derive(Debug)]
pub struct Engine {
    config: EngineConfig,
    lru: LruCache,
    disk: Option<DiskCache>,
    /// Fingerprints solved since the last flush, oldest first.
    dirty: Vec<u64>,
    stats: EngineStats,
    /// Cancellation token cloned into every solve dispatched by
    /// [`Engine::query_batch`]; defaults to the never-firing token.
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
            config,
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

    /// Serves one request (a batch of one).
    ///
    /// # Errors
    ///
    /// See [`EngineError`].
    pub fn query(&mut self, request: &ScenarioRequest) -> Result<QueryResult, EngineError> {
        self.query_batch(std::slice::from_ref(request))
            .pop()
            .expect("batch of one yields one result")
    }

    /// Serves a batch: validates, deduplicates by fingerprint, answers
    /// from the cache tiers, and solves the remainder in parallel with
    /// warm starts. Results are positionally aligned with `requests`.
    pub fn query_batch(
        &mut self,
        requests: &[ScenarioRequest],
    ) -> Vec<Result<QueryResult, EngineError>> {
        let _span = vstack_obs::span!("engine_batch");
        let batch_timer = Instant::now();
        let stats_before = self.stats;
        // Phase 1: validate + canonicalize, group duplicates.
        let mut results: Vec<Option<Result<QueryResult, EngineError>>> =
            (0..requests.len()).map(|_| None).collect();
        // Unique fingerprints in first-occurrence order, each with its
        // canonical request and the indices that requested it.
        let mut groups: Vec<(u64, ScenarioRequest, Vec<usize>)> = Vec::new();
        for (i, raw) in requests.iter().enumerate() {
            if let Err(e) = raw.validate() {
                self.stats.invalid += 1;
                results[i] = Some(Err(EngineError::Invalid(e)));
                continue;
            }
            self.stats.requests += 1;
            let canonical = raw.canonical();
            let fp = canonical.fingerprint();
            match groups.iter_mut().find(|(g, _, _)| *g == fp) {
                Some((_, _, members)) => members.push(i),
                None => groups.push((fp, canonical, vec![i])),
            }
        }

        // Phase 2: answer groups from the cache tiers.
        let mut jobs: Vec<(u64, ScenarioRequest, Option<Vec<f64>>)> = Vec::new();
        let mut group_outcome: Vec<Option<(Outcome, SolveSummary, u64)>> =
            (0..groups.len()).map(|_| None).collect();
        for (g, (fp, request, _)) in groups.iter().enumerate() {
            if let Some(entry) = self.lru.get(*fp) {
                group_outcome[g] = Some((Outcome::HitMemory, entry.summary.clone(), 0));
                continue;
            }
            if let Some(disk) = &self.disk {
                match disk.load(*fp) {
                    DiskLoad::Hit(entry) => {
                        group_outcome[g] = Some((Outcome::HitDisk, entry.summary.clone(), 0));
                        self.lru.insert(*fp, *entry);
                        continue;
                    }
                    DiskLoad::SchemaMismatch => self.stats.schema_rejects += 1,
                    DiskLoad::Corrupt(_) => self.stats.corrupt_rejects += 1,
                    DiskLoad::Missing => {}
                }
            }
            let guess = if self.config.warm_start {
                self.nearest_donor(request)
            } else {
                None
            };
            jobs.push((*fp, request.clone(), guess));
        }

        // Phase 3: solve the misses in parallel, submission order preserved.
        // (fingerprint, warm-started?, solve result, elapsed microseconds)
        type SolvedJob = (
            u64,
            bool,
            Result<(SolveSummary, Vec<f64>), EngineError>,
            u64,
        );
        let queue_depth = jobs.len() as u64;
        let cancel = self.cancel.clone();
        // Thread-locals don't cross the pool: capture the caller's trace
        // id here and re-publish it inside each worker closure so spans
        // recorded in the solver ladder stay tagged with the request.
        let trace_id = vstack_obs::trace::current_trace();
        let solved: Vec<SolvedJob> = pool::par_map(jobs, |(fp, request, guess)| {
            let _trace = vstack_obs::trace::trace_scope(trace_id);
            let started = Instant::now();
            let warm = guess.is_some();
            let outcome = solve_scenario_cancellable(&request, guess.as_deref(), &cancel);
            let micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
            (fp, warm, outcome, micros)
        });

        // Phase 4: install results, account stats, fill per-index slots.
        for (fp, warm, outcome, micros) in solved {
            let g = groups
                .iter()
                .position(|(gfp, _, _)| *gfp == fp)
                .expect("solved job came from a group");
            match outcome {
                Ok((summary, voltages)) => {
                    self.stats.solver_iterations += summary.solver_iterations as u64;
                    self.stats.solver_setup_us += summary.solver_setup_us;
                    self.stats.solve_time_us += micros;
                    if summary.solver_path.ends_with("mixed") {
                        self.stats.mixed_solves += 1;
                    }
                    let kind = if warm { Outcome::Warm } else { Outcome::Cold };
                    self.lru.insert(
                        fp,
                        CacheEntry {
                            request: groups[g].1.clone(),
                            summary: summary.clone(),
                            voltages: Some(voltages),
                        },
                    );
                    if self.disk.is_some() && !self.dirty.contains(&fp) {
                        self.dirty.push(fp);
                    }
                    group_outcome[g] = Some((kind, summary, micros));
                }
                Err(e) => {
                    for &i in &groups[g].2 {
                        results[i] = Some(Err(e.clone()));
                    }
                }
            }
        }
        for (g, (fp, _, members)) in groups.iter().enumerate() {
            let Some((outcome, summary, micros)) = &group_outcome[g] else {
                continue; // solve failed; error already distributed
            };
            for (k, &i) in members.iter().enumerate() {
                let o = match (k, outcome) {
                    (0, o) => *o,
                    (_, Outcome::Warm | Outcome::Cold) => Outcome::Deduped,
                    (_, o) => *o,
                };
                match o {
                    Outcome::HitMemory => self.stats.memory_hits += 1,
                    Outcome::HitDisk if k == 0 => self.stats.disk_hits += 1,
                    Outcome::HitDisk => self.stats.memory_hits += 1,
                    Outcome::Deduped => self.stats.deduped += 1,
                    Outcome::Warm => self.stats.warm_solves += 1,
                    Outcome::Cold => self.stats.cold_solves += 1,
                }
                results[i] = Some(Ok(QueryResult {
                    fingerprint: *fp,
                    outcome: o,
                    summary: summary.clone(),
                    latency_us: if k == 0 { *micros } else { 0 },
                }));
            }
        }
        let out: Vec<Result<QueryResult, EngineError>> = results
            .into_iter()
            .map(|r| r.expect("every request slot is filled"))
            .collect();

        // Mirror this batch's stat deltas into the global obs registry, so
        // the `metrics` verb and `--metrics-out` see the same counters as
        // the engine's own `stats` op.
        let after = &self.stats;
        let m = vstack_obs::metrics::global();
        m.engine_requests
            .add(after.requests - stats_before.requests);
        m.engine_invalid.add(after.invalid - stats_before.invalid);
        m.engine_memory_hits
            .add(after.memory_hits - stats_before.memory_hits);
        m.engine_disk_hits
            .add(after.disk_hits - stats_before.disk_hits);
        m.engine_deduped.add(after.deduped - stats_before.deduped);
        m.engine_warm_solves
            .add(after.warm_solves - stats_before.warm_solves);
        m.engine_cold_solves
            .add(after.cold_solves - stats_before.cold_solves);
        m.engine_schema_rejects
            .add(after.schema_rejects - stats_before.schema_rejects);
        m.engine_corrupt_rejects
            .add(after.corrupt_rejects - stats_before.corrupt_rejects);
        m.engine_batch_size.observe(requests.len() as u64);
        m.engine_queue_depth.observe(queue_depth);
        m.engine_batch_us
            .observe(batch_timer.elapsed().as_micros() as u64);
        out
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

    /// Picks the warm-start donor for `request`: the cached entry with
    /// voltages whose scenario shares every structure-determining knob
    /// (kind, layers, TSV topology, fidelity, converter config) and is
    /// nearest in the continuous knobs (imbalance, power-C4), fingerprint
    /// as the deterministic tie-break. Structure must match exactly so the
    /// donor's voltage vector has the node count of the new system.
    fn nearest_donor(&self, request: &ScenarioRequest) -> Option<Vec<f64>> {
        // Faulted requests go through the SMW fault sketch, which manages
        // its own baseline warm start — an external guess is unused there
        // and would only mislabel the outcome as Warm.
        if request.has_faults() {
            return None;
        }
        let mut best: Option<(f64, u64, &Vec<f64>)> = None;
        for (fp, entry) in self.lru.iter() {
            let Some(voltages) = &entry.voltages else {
                continue;
            };
            let donor = &entry.request;
            let compatible = donor.kind == request.kind
                && donor.layers == request.layers
                && donor.tsv == request.tsv
                && donor.fidelity == request.fidelity
                && donor.converters == request.converters
                && donor.closed_loop == request.closed_loop
                // Thermal coupling warps the grid resistances the donor's
                // voltages were solved under, so a coupled scenario only
                // borrows from scenarios on the same thermal axis.
                && donor.thermal_coupling == request.thermal_coupling
                && donor.hotspot_layer == request.hotspot_layer
                // A faulted donor's voltages carry the open-circuit dip;
                // only intact solutions seed intact solves.
                && !donor.has_faults();
            if !compatible {
                continue;
            }
            let distance = (donor.imbalance - request.imbalance).abs()
                + (donor.power_c4 - request.power_c4).abs()
                + (donor.ambient_c - request.ambient_c).abs() / 100.0
                + (donor.sink_k_per_w - request.sink_k_per_w).abs()
                + (donor.hotspot_w - request.hotspot_w).abs() / 100.0;
            let better = match &best {
                None => true,
                Some((d, f, _)) => distance < *d || (distance == *d && fp < *f),
            };
            if better {
                best = Some((distance, fp, voltages));
            }
        }
        best.map(|(_, _, v)| v.clone())
    }
}

/// Performs one solve outside the cache: build the scenario, run the
/// warm-started robust solve, summarize. Exposed so tests (and the
/// bit-identity guarantee) can compare cold and warm paths directly.
///
/// # Errors
///
/// [`EngineError::Solve`] when the escalation ladder is exhausted or the
/// grid is inconsistent — never a panic for a validated request.
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
    let load = match request.kind {
        SolveKind::Regular => ScenarioLoad::RegularPeak,
        SolveKind::VoltageStacked => ScenarioLoad::VoltageStacked(request.imbalance),
    };
    if request.thermal_coupling {
        let mut config = CoupledConfig::paper_air_cooled()
            .ambient_c(request.ambient_c)
            .sink_resistance(request.sink_k_per_w);
        if let Some(layer) = request.hotspot_layer {
            config = config.hotspot(layer, request.hotspot_w);
        }
        let out = solve_coupled(&scenario, load, &config, guess, &mut scratch).map_err(map_err)?;
        let voltages = out.solved.voltages.clone();
        return Ok((SolveSummary::from_coupled(&out), voltages));
    }
    if request.has_faults() {
        // What-if solves route through the rank-k SMW fault sketch; the
        // sketch owns the baseline warm start, so no external guess is
        // threaded. Near-singular or over-budget fault sets fall back to
        // the exact ladder inside the sketched path.
        let solved = scenario
            .solve_sketched(load, &request.fault_set(), &mut scratch)
            .map_err(map_err)?;
        return Ok((SolveSummary::from_faulted(&solved), solved.voltages));
    }
    let solved = scenario
        .solve_faulted(load, &FaultSet::new(), guess, &mut scratch)
        .map_err(map_err)?;
    Ok((SolveSummary::from_faulted(&solved), solved.voltages))
}
