//! Rank-k fault sketches: microsecond what-if solves via Sherman–Morrison–
//! Woodbury (SMW) downdates of a cached baseline.
//!
//! A fault map asks the same question thousands of times: "what does the
//! grid look like with *these* conductors open?" Each variant differs from
//! a common baseline by a handful of rank-one conductance removals — a pad
//! rail (`g·e_aeᵀ_a`) or a TSV bundle edge (`g·(e_lo−e_hi)(e_lo−e_hi)ᵀ`).
//! [`FaultSketch`] caches one solved baseline `A₀x₀ = b₀` plus the solve
//! vectors `wⱼ = A₀⁻¹uⱼ` for the candidate fault columns, and answers any
//! [`FaultSet`] within its rank budget through the SMW identity in a
//! [`vstack_sparse::SmwSketch`]: a dense k×k Cholesky and a few axpy
//! passes instead of a fresh Krylov solve — milliseconds down to tens of
//! microseconds at paper scale.
//!
//! The baseline is solved on the exact escalation ladder. Columns come
//! from one direct factorization: the first query that needs a column
//! factors `A₀` once ([`vstack_sparse::EnvelopeCholesky`]), and every
//! column after that costs two triangular sweeps plus one SpMV residual
//! check. At most [`SKETCH_BUDGET`] columns — the most one query can use —
//! stay materialized; older ones are evicted least-recently-used and
//! re-solved on demand.
//!
//! The sketch is **value-fingerprinted**: drivers hash every parameter
//! that shapes the baseline matrix and right-hand side
//! ([`FingerprintHasher`]) and drop a cached sketch whose fingerprint no
//! longer matches. Structural re-stamps clear it through
//! [`crate::network::SolveScratch`]; a fault query against a fresh
//! scratch lazily rebuilds it. Answers carry an SMW-internal residual
//! guard — near-singular capacitance matrices (structural disconnection)
//! or over-tolerance residuals reject the update and the caller falls
//! back to the exact ladder solve, so accuracy is never traded away. A
//! failed factorization or column residual falls back the same way.

use std::collections::BTreeMap;

use vstack_sparse::{
    solve_robust, CancelToken, CsrMatrix, EnvelopeCholesky, Lead, RobustOptions, SmwAnswer,
    SmwRejection, SmwSketch, SmwUpdate, SolveError, SolveMethod, SolveReport, SolveWorkspace,
};

use crate::error::PdnError;
use crate::fault::{FaultSet, FaultedSolution};
use crate::network::{NetworkBuilder, SolveScratch};

/// Power-pad list as `(ordinal, matrix node)` pairs.
pub(crate) type PadList = Vec<(usize, usize)>;

/// Maximum SMW rank per query, and so the most columns one query can
/// need. Beyond this the dense k×k factor and the 2k axpy passes stop
/// beating the iterative solve, so the planner rebases the sketch onto the
/// query's fault set instead. It also caps the materialized columns.
pub const SKETCH_BUDGET: usize = 128;

/// Maximum edge columns a single TSV bundle may contribute. Bundles wider
/// than this (very fine refinement grids) are registered without columns
/// and force a rebase when faulted.
pub const TSV_EDGE_CAP: usize = 128;

/// Tolerance of the baseline solve, and the relative residual every column
/// must meet. Tighter than the exact path's `1e-9` because the SMW
/// residual guard only measures the *update* error — the ingredients must
/// not dominate the error budget.
const BUILD_TOLERANCE: f64 = 1e-11;

/// Relative-residual acceptance threshold for SMW answers, matching the
/// exact ladder's solve tolerance.
const SMW_TOLERANCE: f64 = 1e-9;

/// Largest envelope factor (bytes) a sketch may build. A bigger one fails
/// the column step, and its queries take the exact ladder instead.
const MAX_FACTOR_BYTES: usize = 512 << 20;

/// FNV-1a-64 over the values that shape a sketch's baseline system.
///
/// Drivers feed every parameter whose change alters the stamped matrix or
/// right-hand side (conductances, supply voltages, per-core load currents,
/// topology dimensions); floats are hashed by their IEEE-754 bit pattern,
/// so a fingerprint match means *bit-identical* stamping inputs.
#[derive(Debug, Clone)]
pub struct FingerprintHasher(u64);

impl FingerprintHasher {
    /// FNV-1a offset basis.
    pub fn new() -> Self {
        FingerprintHasher(0xcbf2_9ce4_8422_2325)
    }

    /// Folds a `u64` in, byte by byte.
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Folds a `usize` in.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Folds a float in by bit pattern (`-0.0 ≠ 0.0`, NaNs by payload).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// The accumulated fingerprint.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for FingerprintHasher {
    fn default() -> Self {
        FingerprintHasher::new()
    }
}

/// One registered pad-rail fault column.
#[derive(Debug, Clone, Copy)]
struct PadColumn {
    /// Column id inside the [`SmwSketch`].
    col: usize,
    /// Rail conductance removed when this pad opens.
    scale: f64,
    /// Right-hand-side correction (`−g·v_rail` becomes `+g·v_rail`, i.e.
    /// the stamped source current disappears). Zero for ground pads.
    rhs_delta: f64,
}

/// One registered TSV bundle: each surviving-at-base conductor edge gets
/// its own column, faulting `d` conductors scales every edge column by
/// `d · per_fail_scale / edges`.
#[derive(Debug, Clone)]
struct TsvBundleColumns {
    /// Column ids inside the [`SmwSketch`], one per stamped grid edge
    /// (both nets for the regular topology). Empty when the bundle is
    /// wider than [`TSV_EDGE_CAP`].
    cols: Vec<usize>,
    /// Conductance removed from each stamped edge per failed TSV
    /// (`g_tsv / nodes_per_core`).
    per_fail_scale: f64,
    /// Physical TSVs in the bundle; fault counts clamp here.
    total: usize,
}

/// How to answer a fault query against the current sketch.
#[derive(Debug)]
pub(crate) enum SketchPlan {
    /// The query *is* the sketch baseline — reuse the stored solve.
    Baseline,
    /// Apply these SMW downdates to the baseline.
    Updates(Vec<SmwUpdate>),
    /// The sketch cannot reach the query; rebuild it with this fault set
    /// as the new baseline, then re-plan.
    Rebase(FaultSet),
    /// Give up and use the exact ladder solve.
    Fallback,
}

/// A cached, fingerprinted baseline solve plus fault columns, answering
/// fault what-ifs by rank-k SMW downdates.
///
/// Stored inside [`SolveScratch`] between fault queries; invalidated by
/// structural re-stamps (the scratch clears it) and by value changes (the
/// driver compares fingerprints). Topology-agnostic: the regular and
/// voltage-stacked drivers register their own pad and TSV columns and
/// keep extraction knowledge (conductances, node maps) to themselves.
pub struct FaultSketch {
    /// Value fingerprint of the parameters that shaped `a0`/`b0`.
    fingerprint: u64,
    /// The fault set the baseline was assembled *with* — queries answer
    /// supersets of this by removing more conductors.
    base_faults: FaultSet,
    /// The SMW engine: baseline solution, fault columns, solve vectors.
    smw: SmwSketch,
    /// Report of the baseline solve, replayed for exact-baseline hits.
    baseline_report: SolveReport,
    /// `(ordinal, node)` of every supply pad alive at the base fault set.
    baseline_vdd_pads: PadList,
    /// `(ordinal, node)` of every return pad alive at the base fault set.
    baseline_gnd_pads: PadList,
    /// Total supply power-pad ordinals in the topology (valid range).
    vdd_pad_count: usize,
    /// Total return power-pad ordinals in the topology (valid range).
    gnd_pad_count: usize,
    /// Number of TSV interfaces (`n_layers − 1`).
    interfaces: usize,
    /// Cores per layer in the floorplan.
    core_count: usize,
    /// Supply-pad fault columns by ordinal.
    vdd_cols: BTreeMap<usize, PadColumn>,
    /// Return-pad fault columns by ordinal.
    gnd_cols: BTreeMap<usize, PadColumn>,
    /// TSV bundle columns by `(interface, core)`. Only bundles alive at
    /// the base fault set appear; dead bundles contribute nothing.
    tsv_cols: BTreeMap<(usize, usize), TsvBundleColumns>,
    /// The baseline matrix: factored for the columns and used to check
    /// each column's residual.
    a0: CsrMatrix,
    /// Envelope Cholesky factor of `a0`, built when the first column is
    /// needed. A failure is kept too, so it is not retried per query.
    factor: Option<Result<EnvelopeCholesky, SolveError>>,
    /// Factorizations this sketch ran (at most one).
    factorizations: usize,
    /// LRU clock for column eviction.
    clock: u64,
    /// Last-touched stamp per SMW column id.
    col_stamp: Vec<u64>,
}

impl std::fmt::Debug for FaultSketch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultSketch")
            .field("fingerprint", &format_args!("{:016x}", self.fingerprint))
            .field("n", &self.smw.n())
            .field("base_faults", &self.base_faults)
            .field("columns", &self.smw.num_columns())
            .field("ready", &self.smw.ready_count())
            .field("factorizations", &self.factorizations)
            .finish_non_exhaustive()
    }
}

impl FaultSketch {
    /// Solves the baseline system and wraps it in an empty sketch; the
    /// driver registers fault columns afterwards.
    ///
    /// `pad_counts` is `(vdd, gnd)` power-pad totals, `dims` is
    /// `(interfaces, core_count)`. `nb` must be assembled with
    /// `base_faults` applied.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn build(
        fingerprint: u64,
        base_faults: FaultSet,
        nb: &NetworkBuilder,
        vdd_pads: PadList,
        gnd_pads: PadList,
        pad_counts: (usize, usize),
        dims: (usize, usize),
        cancel: &CancelToken,
    ) -> Result<FaultSketch, PdnError> {
        let a0 = nb.to_matrix();
        if let Some((floating_nodes, example_node)) = nb.floating_nodes(&a0) {
            return Err(PdnError::Disconnected {
                floating_nodes,
                example_node,
            });
        }
        let large = nb.len() >= NetworkBuilder::AMG_MIN_UNKNOWNS;
        let opts = RobustOptions {
            tolerance: BUILD_TOLERANCE,
            lead: if large { Lead::Amg } else { Lead::Jacobi },
            cancel: cancel.clone(),
        };
        // A fresh state: the baseline builds its own hierarchy from `a0`
        // rather than reuse one frozen from another (faulted) stamping.
        let solved = solve_robust(&a0, nb.rhs(), None, &opts, &mut SolveWorkspace::new())
            .map_err(PdnError::Solve)?;
        Ok(FaultSketch {
            fingerprint,
            base_faults,
            smw: SmwSketch::new(solved.x, nb.rhs().to_vec(), SMW_TOLERANCE),
            baseline_report: solved.report,
            baseline_vdd_pads: vdd_pads,
            baseline_gnd_pads: gnd_pads,
            vdd_pad_count: pad_counts.0,
            gnd_pad_count: pad_counts.1,
            interfaces: dims.0,
            core_count: dims.1,
            vdd_cols: BTreeMap::new(),
            gnd_cols: BTreeMap::new(),
            tsv_cols: BTreeMap::new(),
            a0,
            factor: None,
            factorizations: 0,
            clock: 0,
            col_stamp: Vec::new(),
        })
    }

    /// Value fingerprint this sketch was built under.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Number of unknowns in the baseline system.
    pub fn n(&self) -> usize {
        self.smw.n()
    }

    /// The fault set the baseline was assembled with.
    pub fn base_faults(&self) -> &FaultSet {
        &self.base_faults
    }

    /// A copy of the baseline node voltages.
    pub fn baseline_voltages(&self) -> Vec<f64> {
        self.smw.baseline().to_vec()
    }

    /// A copy of the baseline solve report.
    pub fn baseline_report(&self) -> SolveReport {
        self.baseline_report.clone()
    }

    /// Fault columns whose solve-vectors are materialized; never more
    /// than [`SKETCH_BUDGET`].
    pub fn ready_columns(&self) -> usize {
        self.smw.ready_count()
    }

    /// Factorizations of the baseline matrix this sketch has run: zero
    /// until a query needs a column, one from then on.
    pub fn factorizations(&self) -> usize {
        self.factorizations
    }

    /// `(ordinal, node)` pad lists filtered down to the pads alive under
    /// `faults`. Valid whenever the sketch answers `faults` — the planner
    /// only answers supersets of the base fault set, so the base pad lists
    /// contain every pad alive under the query.
    pub(crate) fn alive_pads(&self, faults: &FaultSet) -> (PadList, PadList) {
        let vdd = self
            .baseline_vdd_pads
            .iter()
            .copied()
            .filter(|&(ord, _)| !faults.vdd_pad_failed(ord))
            .collect();
        let gnd = self
            .baseline_gnd_pads
            .iter()
            .copied()
            .filter(|&(ord, _)| !faults.gnd_pad_failed(ord))
            .collect();
        (vdd, gnd)
    }

    /// Registers the fault column of supply pad `ordinal` stamped at
    /// `node`: opening it removes `scale` from the diagonal and cancels
    /// the stamped source current `scale · v_rail` (pass the signed
    /// correction as `rhs_delta`).
    pub(crate) fn register_vdd_pad(
        &mut self,
        ordinal: usize,
        node: usize,
        scale: f64,
        rhs_delta: f64,
    ) {
        let col = self.smw.add_column(vec![(node, 1.0)]);
        self.col_stamp.push(0);
        self.vdd_cols.insert(
            ordinal,
            PadColumn {
                col,
                scale,
                rhs_delta,
            },
        );
    }

    /// Registers the fault column of return pad `ordinal` stamped at
    /// `node` (no right-hand-side correction — the return rail is 0 V).
    pub(crate) fn register_gnd_pad(&mut self, ordinal: usize, node: usize, scale: f64) {
        let col = self.smw.add_column(vec![(node, 1.0)]);
        self.col_stamp.push(0);
        self.gnd_cols.insert(
            ordinal,
            PadColumn {
                col,
                scale,
                rhs_delta: 0.0,
            },
        );
    }

    /// Registers a TSV bundle alive at the base fault set. `edges` are the
    /// stamped `(lo, hi)` node pairs (column `e_lo − e_hi` each); faulting
    /// `d` more TSVs removes `d · per_fail_scale` conductance from every
    /// edge. Bundles wider than [`TSV_EDGE_CAP`] get no columns and force
    /// a rebase when faulted.
    pub(crate) fn register_tsv_bundle(
        &mut self,
        interface: usize,
        core: usize,
        edges: &[(usize, usize)],
        per_fail_scale: f64,
        total: usize,
    ) {
        let cols = if !edges.is_empty() && edges.len() <= TSV_EDGE_CAP {
            edges
                .iter()
                .map(|&(lo, hi)| {
                    let col = self.smw.add_column(vec![(lo, 1.0), (hi, -1.0)]);
                    self.col_stamp.push(0);
                    col
                })
                .collect()
        } else {
            Vec::new()
        };
        self.tsv_cols.insert(
            (interface, core),
            TsvBundleColumns {
                cols,
                per_fail_scale,
                total,
            },
        );
    }

    /// Plans how to answer `faults` from the current baseline.
    pub(crate) fn plan(&self, faults: &FaultSet) -> SketchPlan {
        if *faults == self.base_faults {
            return SketchPlan::Baseline;
        }
        if !self.base_faults.is_subset_of(faults) {
            // The query *heals* a conductor relative to the baseline —
            // SMW downdates cannot add conductance back, so restart from
            // the empty baseline if the query fits the budget there.
            return if self.sketchable_from_empty(faults) {
                SketchPlan::Rebase(FaultSet::new())
            } else {
                SketchPlan::Fallback
            };
        }
        let mut updates = Vec::new();
        for ord in faults.vdd_pad_ordinals() {
            if self.base_faults.vdd_pad_failed(ord) || ord >= self.vdd_pad_count {
                continue; // already removed at base, or a stamping no-op
            }
            match self.vdd_cols.get(&ord) {
                Some(pc) => updates.push(SmwUpdate {
                    column: pc.col,
                    scale: pc.scale,
                    rhs_delta: pc.rhs_delta,
                }),
                None => return SketchPlan::Rebase(faults.clone()),
            }
        }
        for ord in faults.gnd_pad_ordinals() {
            if self.base_faults.gnd_pad_failed(ord) || ord >= self.gnd_pad_count {
                continue;
            }
            match self.gnd_cols.get(&ord) {
                Some(pc) => updates.push(SmwUpdate {
                    column: pc.col,
                    scale: pc.scale,
                    rhs_delta: pc.rhs_delta,
                }),
                None => return SketchPlan::Rebase(faults.clone()),
            }
        }
        for ((interface, core), count) in faults.tsv_bundles() {
            let Some(bundle) = self.tsv_cols.get(&(interface, core)) else {
                // Invalid key, or the bundle was already dead at base —
                // either way the extra faults change nothing.
                continue;
            };
            let base_count = self.base_faults.failed_tsv_count(interface, core);
            let d_eff = count.min(bundle.total) - base_count.min(bundle.total);
            if d_eff == 0 {
                continue;
            }
            if bundle.cols.is_empty() {
                return SketchPlan::Rebase(faults.clone()); // over TSV_EDGE_CAP
            }
            let scale = d_eff as f64 * bundle.per_fail_scale;
            for &col in &bundle.cols {
                updates.push(SmwUpdate {
                    column: col,
                    scale,
                    rhs_delta: 0.0,
                });
            }
        }
        if updates.is_empty() {
            // Every delta was a no-op (invalid ordinals, dead bundles):
            // the faulted system is bit-identical to the baseline.
            SketchPlan::Baseline
        } else if updates.len() > SKETCH_BUDGET {
            SketchPlan::Rebase(faults.clone())
        } else {
            SketchPlan::Updates(updates)
        }
    }

    /// Whether `faults` would fit the update budget of a sketch rebuilt
    /// at the *empty* baseline. Conservative: valid TSV keys this sketch
    /// never registered (dead at its own base) return `false`, because
    /// their width at the empty baseline is unknown here.
    fn sketchable_from_empty(&self, faults: &FaultSet) -> bool {
        let mut k = 0usize;
        k += faults
            .vdd_pad_ordinals()
            .filter(|&o| o < self.vdd_pad_count)
            .count();
        k += faults
            .gnd_pad_ordinals()
            .filter(|&o| o < self.gnd_pad_count)
            .count();
        for ((interface, core), _count) in faults.tsv_bundles() {
            if interface >= self.interfaces || core >= self.core_count {
                continue; // stamping no-op
            }
            match self.tsv_cols.get(&(interface, core)) {
                Some(bundle) if !bundle.cols.is_empty() => k += bundle.cols.len(),
                _ => return false,
            }
        }
        k <= SKETCH_BUDGET
    }

    /// Lazily solves the solve-vectors of every column named by `updates`,
    /// evicting least-recently-used ready columns first so at most
    /// [`SKETCH_BUDGET`] stay materialized. The first missing column
    /// factors `A₀`; each column is then two triangular sweeps, accepted
    /// only if its relative residual meets [`BUILD_TOLERANCE`]. A failed
    /// factor or residual is an error that sends the caller to the exact
    /// path.
    pub(crate) fn ensure_columns(&mut self, updates: &[SmwUpdate]) -> Result<(), PdnError> {
        self.clock += 1;
        let clock = self.clock;
        let missing: Vec<usize> = updates
            .iter()
            .map(|u| u.column)
            .filter(|&c| !self.smw.column_ready(c))
            .collect();
        if !missing.is_empty() {
            self.evict_for(updates);
            let FaultSketch {
                ref mut smw,
                ref a0,
                ref mut factor,
                ref mut factorizations,
                ..
            } = *self;
            let factor = factor
                .get_or_insert_with(|| {
                    *factorizations += 1;
                    EnvelopeCholesky::factor_within(a0, MAX_FACTOR_BYTES)
                })
                .as_ref()
                .map_err(|e| PdnError::Solve(e.clone()))?;
            let n = a0.rows();
            let (mut work, mut au) = (vec![0.0; n], vec![0.0; n]);
            for col in missing {
                smw.ensure_column(col, |u| {
                    let mut w = vec![0.0; n];
                    factor.solve_into(u, &mut w, &mut work);
                    a0.mul_vec_into(&w, &mut au);
                    let (mut r2, mut u2) = (0.0, 0.0);
                    for (&ui, &ai) in u.iter().zip(&au) {
                        r2 += (ui - ai) * (ui - ai);
                        u2 += ui * ui;
                    }
                    let residual = (r2 / u2).sqrt();
                    if residual.is_nan() || residual > BUILD_TOLERANCE {
                        return Err(SolveError::NotConverged {
                            iterations: 0,
                            residual,
                        });
                    }
                    Ok(w)
                })
                .map_err(PdnError::Solve)?;
            }
        }
        for u in updates {
            self.col_stamp[u.column] = clock;
        }
        Ok(())
    }

    /// Evicts LRU ready columns (never ones named by the current query)
    /// until the query's columns fit within [`SKETCH_BUDGET`] ready ones.
    /// The planner never issues more than that many updates, so the query
    /// itself always fits.
    fn evict_for(&mut self, updates: &[SmwUpdate]) {
        let needed: std::collections::BTreeSet<usize> = updates.iter().map(|u| u.column).collect();
        let mut idle: Vec<(u64, usize)> = (0..self.smw.num_columns())
            .filter(|&c| self.smw.column_ready(c) && !needed.contains(&c))
            .map(|c| (self.col_stamp[c], c))
            .collect();
        let excess = (idle.len() + needed.len()).saturating_sub(SKETCH_BUDGET);
        idle.sort_unstable();
        for &(_, col) in idle.iter().take(excess) {
            self.smw.clear_column(col);
        }
    }

    /// Answers the planned updates through the SMW identity. Columns must
    /// be ready ([`FaultSketch::ensure_columns`]).
    pub(crate) fn query(&self, updates: &[SmwUpdate]) -> Result<SmwAnswer, SmwRejection> {
        self.smw.query(updates)
    }
}

/// The [`SolveReport`] attached to SMW-answered fault solves: `iterations`
/// counts SMW updates, `relative_residual` is the guard's measured value.
pub(crate) fn smw_report(updates: usize, rel_residual: f64, solve_us: u64) -> SolveReport {
    SolveReport {
        method: SolveMethod::SmwSketch,
        fallbacks: Vec::new(),
        iterations: updates,
        relative_residual: rel_residual,
        diagonal_shift: 0.0,
        operator: "smw",
        precision: "f64",
        setup_us: 0,
        solve_us,
    }
}

/// Shared driver loop for sketched fault solves: ensure a sketch exists
/// (building at the query's fault set on a cold start), plan, answer or
/// rebase — at most three rounds — and return `Ok(None)` when the caller
/// should fall back to the exact ladder.
///
/// `build` assembles and solves a baseline at the given fault set;
/// `extract` converts an answered voltage vector into a
/// [`FaultedSolution`] (the sketch argument supplies alive-pad lists).
/// Metrics: `fault_sketch_builds` per baseline built, `fault_sketch_hits`
/// per sketch-answered query (including exact-baseline replays),
/// `fault_query_us` over the warm SMW query alone; the *caller* counts
/// `fault_sketch_fallbacks` when it runs the exact path after `Ok(None)`.
pub(crate) fn answer_with_sketch(
    faults: &FaultSet,
    sketch: &mut Option<FaultSketch>,
    scratch: &mut SolveScratch,
    mut build: impl FnMut(&FaultSet, &mut SolveScratch) -> Result<FaultSketch, PdnError>,
    mut extract: impl FnMut(&FaultSketch, Vec<f64>, SolveReport) -> FaultedSolution,
) -> Result<Option<FaultedSolution>, PdnError> {
    let m = vstack_obs::metrics::global();
    let mut target = faults.clone();
    for _round in 0..3 {
        if sketch.is_none() {
            match build(&target, scratch) {
                Ok(built) => {
                    m.fault_sketch_builds.inc();
                    *sketch = Some(built);
                }
                Err(e) => {
                    // A failed baseline (e.g. the query disconnects the
                    // grid and was the build target) is the exact answer
                    // for this query, but not a sketch hit.
                    m.fault_sketch_fallbacks.inc();
                    return Err(e);
                }
            }
        }
        let sk = sketch.as_mut().expect("sketch just ensured");
        match sk.plan(faults) {
            SketchPlan::Baseline => {
                m.fault_sketch_hits.inc();
                let v = sk.baseline_voltages();
                let report = sk.baseline_report();
                return Ok(Some(extract(sk, v, report)));
            }
            SketchPlan::Updates(updates) => {
                if sk.ensure_columns(&updates).is_err() {
                    break;
                }
                let timer = std::time::Instant::now();
                match sk.query(&updates) {
                    Ok(ans) => {
                        let us = timer.elapsed().as_micros() as u64;
                        m.fault_query_us.observe(us);
                        m.fault_sketch_hits.inc();
                        let report = smw_report(updates.len(), ans.rel_residual, us);
                        return Ok(Some(extract(sk, ans.x, report)));
                    }
                    Err(_) => break, // near-singular / over-tolerance
                }
            }
            SketchPlan::Rebase(t) => {
                target = t;
                *sketch = None;
            }
            SketchPlan::Fallback => break,
        }
    }
    Ok(None)
}
