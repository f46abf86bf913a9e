//! Electrical-network assembly: grid geometry, SPD stamping and the
//! resilient solve path shared by the regular and voltage-stacked
//! topologies.

use vstack_sparse::{
    solve_robust, CancelToken, CsrMatrix, Lead, RobustOptions, SolveReport, SolveWorkspace,
    TripletMatrix,
};

use crate::error::PdnError;
use crate::params::PdnParams;

/// Geometry of one on-chip power grid (one metal net on one layer).
///
/// Nodes sit on a uniform `nx × ny` lattice spanning the die.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridSpec {
    /// Nodes along x.
    pub nx: usize,
    /// Nodes along y.
    pub ny: usize,
    /// Node spacing along x in mm.
    pub dx_mm: f64,
    /// Node spacing along y in mm.
    pub dy_mm: f64,
}

impl GridSpec {
    /// Builds the modeling grid for the chip described by `params`.
    pub fn from_params(params: &PdnParams) -> Self {
        let fp = params.floorplan();
        let pitch = params.model_pitch_mm();
        let nx = ((fp.chip_width_mm() / pitch).round() as usize).max(2) + 1;
        let ny = ((fp.chip_height_mm() / pitch).round() as usize).max(2) + 1;
        GridSpec {
            nx,
            ny,
            dx_mm: fp.chip_width_mm() / (nx - 1) as f64,
            dy_mm: fp.chip_height_mm() / (ny - 1) as f64,
        }
    }

    /// Number of nodes in the grid.
    pub fn count(&self) -> usize {
        self.nx * self.ny
    }

    /// Flat index of node `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn index(&self, i: usize, j: usize) -> usize {
        assert!(i < self.nx && j < self.ny, "grid index out of range");
        j * self.nx + i
    }

    /// Physical position of node `(i, j)` in mm.
    pub fn position(&self, i: usize, j: usize) -> (f64, f64) {
        (i as f64 * self.dx_mm, j as f64 * self.dy_mm)
    }

    /// Nearest node to a physical position (clamped to the die).
    pub fn nearest(&self, x_mm: f64, y_mm: f64) -> (usize, usize) {
        let i = (x_mm / self.dx_mm).round().clamp(0.0, (self.nx - 1) as f64) as usize;
        let j = (y_mm / self.dy_mm).round().clamp(0.0, (self.ny - 1) as f64) as usize;
        (i, j)
    }
}

/// Reusable cross-solve state for repeated network solves.
///
/// Wearout loops and parameter sweeps solve hundreds of systems that share
/// one sparsity pattern (fault injection only *removes* stamped conductors,
/// leaving explicit zeros). `SolveScratch` caches the last solve's symbolic
/// CSR structure and the iterative solver's working vectors so re-solves
/// skip both the symbolic triplet→CSR rebuild and the per-call vector
/// allocations. Feed it to [`NetworkBuilder::solve`]; a pattern
/// change (different unknowns or new structural nonzeros) is detected and
/// handled by falling back to a full rebuild, so reuse is always safe.
///
/// Results are bit-identical to the scratch-free path: value re-stamping
/// replays the same triplet insertion order over the same compacted
/// structure, and the workspace vectors are zeroed before use. One
/// caveat for systems at or above [`NetworkBuilder::AMG_MIN_UNKNOWNS`]:
/// the cached AMG hierarchy is *frozen* per sparsity pattern, so after a
/// value-changing re-stamp a reused scratch preconditions with the
/// original values' hierarchy while a fresh solve would rebuild from the
/// current ones. Both paths converge to the same tolerance (the report's
/// `setup_us`/iteration counts differ, not correctness); re-solves of
/// *unchanged* values remain exactly bit-identical.
#[derive(Debug, Default)]
pub struct SolveScratch {
    /// Cached CSR matrix from the previous solve; its structure is reused
    /// when the new stamping fits the stored sparsity pattern.
    pattern: Option<CsrMatrix>,
    /// The escalation ladder's state: reusable Krylov working vectors,
    /// plus the AMG hierarchy (and its f32 mirror) that systems at or
    /// above [`NetworkBuilder::AMG_MIN_UNKNOWNS`] build on their first
    /// solve and reuse (frozen) until the sparsity pattern changes, so
    /// fault/sweep/warm-start re-solves pay multigrid setup once. A
    /// frozen hierarchy is still a valid SPD preconditioner after
    /// value-only re-stamps — CG converges against the *current* matrix;
    /// only the rung's iteration count drifts with the values.
    workspace: SolveWorkspace,
    /// Cooperative cancellation token handed to the escalation ladder of
    /// every solve run through this scratch. Defaults to
    /// [`CancelToken::never`]; serving tiers install a per-request token
    /// (deadline + shutdown flag) with [`SolveScratch::set_cancel`].
    cancel: CancelToken,
    /// Lazily-built Sherman–Morrison–Woodbury fault sketch
    /// ([`crate::sketch::FaultSketch`]) answering small-k [`crate::FaultSet`]
    /// queries without a fresh ladder solve. Owned here so wearout loops and
    /// the serving tier inherit it with the rest of the cross-solve state;
    /// it carries its own value fingerprint (validity is *not* tied to
    /// [`SolveScratch::pattern`], which holds the last — possibly faulted —
    /// stamping) and is dropped on structural pattern changes.
    sketch: Option<crate::sketch::FaultSketch>,
    /// Solves through this scratch that rebuilt the symbolic pattern.
    pattern_builds: u64,
    /// Solves through this scratch that re-stamped the cached pattern.
    pattern_reuses: u64,
}

impl SolveScratch {
    /// Creates an empty scratch; the first solve through it populates the
    /// pattern cache and sizes the workspace.
    pub fn new() -> Self {
        SolveScratch::default()
    }

    /// Installs the cancellation token polled between escalation-ladder
    /// rungs of subsequent solves (see [`vstack_sparse::CancelToken`]).
    pub fn set_cancel(&mut self, cancel: CancelToken) {
        self.cancel = cancel;
    }

    /// Moves the fault sketch out of the scratch. The sketched solve paths
    /// *take* the sketch before running (so a fallback exact solve — which
    /// may rebuild the pattern and clear this slot — cannot wipe it) and
    /// put it back when done.
    pub(crate) fn take_sketch(&mut self) -> Option<crate::sketch::FaultSketch> {
        self.sketch.take()
    }

    /// Returns the fault sketch to the scratch (see
    /// [`SolveScratch::take_sketch`]).
    pub(crate) fn put_sketch(&mut self, sketch: crate::sketch::FaultSketch) {
        self.sketch = Some(sketch);
    }

    /// The cached fault sketch, if a sketched fault query has built one.
    pub fn fault_sketch(&self) -> Option<&crate::sketch::FaultSketch> {
        self.sketch.as_ref()
    }

    /// Solves through this scratch that built a symbolic pattern from
    /// scratch (mirrored to the global `pdn_pattern_builds` counter).
    pub fn pattern_builds(&self) -> u64 {
        self.pattern_builds
    }

    /// Solves through this scratch that re-stamped values onto the cached
    /// pattern (mirrored to the global `pdn_pattern_reuses` counter).
    pub fn pattern_reuses(&self) -> u64 {
        self.pattern_reuses
    }

    /// The installed cancellation token (cloned into sketch-run solves).
    pub(crate) fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// The matrix the last solve through this scratch assembled.
    pub(crate) fn matrix(&self) -> Option<&CsrMatrix> {
        self.pattern.as_ref()
    }
}

/// Incremental builder for the SPD nodal system `G v = i`.
///
/// Supports the four stamp kinds every PDN variant needs: node-to-node
/// conductances, Dirichlet ties to fixed external rails, current
/// injections, and the rank-1 PSD switched-capacitor converter stamp.
#[derive(Debug, Clone)]
pub struct NetworkBuilder {
    matrix: TripletMatrix,
    rhs: Vec<f64>,
    /// Nodes tied to an external rail via [`NetworkBuilder::conductance_to_rail`]
    /// — the Dirichlet anchors every other node must reach for the system
    /// to be non-singular.
    rail_nodes: Vec<bool>,
}

impl NetworkBuilder {
    /// Creates a builder for `n` unknown node voltages.
    pub fn new(n: usize) -> Self {
        NetworkBuilder {
            matrix: TripletMatrix::with_capacity(n, n, 8 * n),
            rhs: vec![0.0; n],
            rail_nodes: vec![false; n],
        }
    }

    /// Number of unknowns.
    pub fn len(&self) -> usize {
        self.rhs.len()
    }

    /// Whether the network has no unknowns.
    pub fn is_empty(&self) -> bool {
        self.rhs.is_empty()
    }

    /// Conductance `g` between unknown nodes `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if `g` is not finite and positive or an index is out of
    /// range.
    pub fn conductance(&mut self, a: usize, b: usize, g: f64) {
        assert!(g.is_finite() && g > 0.0, "conductance must be positive");
        self.matrix.stamp_conductance(Some(a), Some(b), g);
    }

    /// Conductance `g` from node `a` to an external rail fixed at
    /// `v_rail` volts (Dirichlet elimination: the rail is not an unknown).
    ///
    /// # Panics
    ///
    /// Panics if `g` is not finite and positive.
    pub fn conductance_to_rail(&mut self, a: usize, g: f64, v_rail: f64) {
        assert!(g.is_finite() && g > 0.0, "conductance must be positive");
        self.matrix.stamp_conductance(Some(a), None, g);
        self.rhs[a] += g * v_rail;
        self.rail_nodes[a] = true;
    }

    /// Injects `amps` into node `a` (negative extracts).
    pub fn current(&mut self, a: usize, amps: f64) {
        assert!(amps.is_finite(), "current must be finite");
        self.rhs[a] += amps;
    }

    /// The SC-converter stamp: an ideal source
    /// `V_ideal = α·V_top + (1−α)·V_bottom` behind conductance `g`
    /// driving `out`, drawing the α/(1−α) split of its output current from
    /// the sensed rails (power-conserving). `α = ½` is the 2:1 converter
    /// between adjacent rails; `α = r/N` models the multi-output **ladder**
    /// SC whose rail-r output references the stack boundaries.
    ///
    /// The stamp is `g·u·uᵀ` with `u = (+1, −α, −(1−α))` — rank-1 PSD for
    /// any `α`, so the system stays SPD.
    ///
    /// # Panics
    ///
    /// Panics if `g` is not finite and positive, `α ∉ (0, 1)`, or the
    /// three nodes are not distinct.
    pub fn converter_with_ratio(
        &mut self,
        out: usize,
        top: usize,
        bottom: usize,
        g: f64,
        alpha: f64,
    ) {
        assert!(g.is_finite() && g > 0.0, "conductance must be positive");
        assert!(
            alpha > 0.0 && alpha < 1.0,
            "conversion ratio must be inside (0,1), got {alpha}"
        );
        assert!(
            out != top && out != bottom && top != bottom,
            "converter terminals must be distinct nodes"
        );
        let nodes = [out, top, bottom];
        let u = [1.0, -alpha, -(1.0 - alpha)];
        for (ni, ui) in nodes.iter().zip(u) {
            for (nj, uj) in nodes.iter().zip(u) {
                self.matrix.push(*ni, *nj, g * ui * uj);
            }
        }
    }

    /// Adds the 2-D grid Laplacian of `grid` with per-segment resistance
    /// `segment_r`, offsetting node indices by `offset`.
    ///
    /// # Panics
    ///
    /// Panics if `segment_r` is not finite and positive.
    pub fn grid_laplacian(&mut self, grid: &GridSpec, offset: usize, segment_r: f64) {
        assert!(
            segment_r.is_finite() && segment_r > 0.0,
            "segment resistance must be positive"
        );
        let g = 1.0 / segment_r;
        for j in 0..grid.ny {
            for i in 0..grid.nx {
                let n = offset + grid.index(i, j);
                if i + 1 < grid.nx {
                    self.conductance(n, offset + grid.index(i + 1, j), g);
                }
                if j + 1 < grid.ny {
                    self.conductance(n, offset + grid.index(i, j + 1), g);
                }
            }
        }
    }

    /// Solves the assembled system and reports how.
    ///
    /// Two robustness layers sit in front of the numerics:
    ///
    /// 1. A structural connectivity check — breadth-first search from the
    ///    rail-tied nodes over the matrix sparsity pattern — rejects
    ///    floating subgrids with [`PdnError::Disconnected`] *before* an
    ///    iterative solver can break down on the singular system.
    /// 2. The solve itself runs through [`solve_robust`]'s deterministic
    ///    escalation ladder; the returned [`SolveReport`] records which
    ///    method finally succeeded and every fallback taken on the way.
    ///
    /// The ladder's first rung depends on system size:
    ///
    /// * below [`NetworkBuilder::AMG_MIN_UNKNOWNS`] it is CG+Jacobi
    ///   ([`Lead::Jacobi`]) — PDN grid Laplacians are diagonally dominant
    ///   enough that Jacobi converges reliably, and skipping
    ///   preconditioner setup keeps small solves cheap;
    /// * at or above it the ladder leads with the mixed-precision rung
    ///   ([`Lead::MixedAmg`]: f64 CG over the CSR, preconditioned by an
    ///   f32 AMG V-cycle), whose near-size-independent iteration counts
    ///   dominate on large many-layer grids, falling back to f64 CG+AMG →
    ///   CG+Jacobi → BiCGSTAB → Tikhonov-shifted CG on numerical trouble.
    ///
    /// `scratch` carries state across solves: when it holds a pattern
    /// from a previous solve whose sparsity covers the current stamping
    /// (always true across fault injections on one topology, which only
    /// remove conductors), the triplets are re-stamped onto the cached
    /// structure instead of running the full symbolic sort/compact. A
    /// dimension change or [`vstack_sparse::SolveError::PatternMismatch`]
    /// falls back to a fresh build, so any scratch can be used with any
    /// network. The Krylov working vectors are likewise recycled between
    /// calls; a [`SolveScratch::new`] scratch gives a one-off solve.
    ///
    /// # Errors
    ///
    /// [`PdnError::Disconnected`] for floating subgrids, otherwise any
    /// [`vstack_sparse::SolveError`] the exhausted ladder reports.
    pub fn solve(
        &self,
        guess: Option<&[f64]>,
        scratch: &mut SolveScratch,
    ) -> Result<(Vec<f64>, SolveReport), PdnError> {
        let _span = vstack_obs::span!("pdn_solve");
        let n = self.rhs.len();
        let mut pattern_reused = false;
        let stamp_timer = std::time::Instant::now();
        let a = {
            let _stamp_span = vstack_obs::span!("pdn_stamp");
            match scratch.pattern.take() {
                Some(mut cached) if cached.rows() == n && cached.cols() == n => {
                    match cached.set_values_from_triplets(self.matrix.entries()) {
                        Ok(()) => {
                            pattern_reused = true;
                            cached
                        }
                        // Structure changed (or values left unspecified):
                        // rebuild symbolically from the triplets.
                        Err(_) => self.matrix.to_csr(),
                    }
                }
                _ => self.matrix.to_csr(),
            }
        };
        let m = vstack_obs::metrics::global();
        m.pdn_stamp_us.add(stamp_timer.elapsed().as_micros() as u64);
        if pattern_reused {
            scratch.pattern_reuses += 1;
            m.pdn_pattern_reuses.inc();
        } else {
            scratch.pattern_builds += 1;
            m.pdn_pattern_builds.inc();
            // The cached hierarchies describe a different operator
            // structure; drop them so the next large solve rebuilds.
            scratch.workspace.clear_hierarchies();
            // A structural change also invalidates the fault sketch (its
            // columns are tied to the old node numbering). Value-only
            // re-stamps keep it: the sketch checks its own fingerprint.
            scratch.sketch = None;
        }
        let result = self.solve_csr(&a, guess, &mut scratch.workspace, &scratch.cancel);
        scratch.pattern = Some(a);
        result
    }

    /// Node count at or above which every PDN ladder solve
    /// (`NetworkBuilder::ladder_options`) leads with the AMG rung. Below
    /// it, single-level Jacobi wins: multigrid setup costs a few
    /// SpMV-equivalents that small systems never amortize, and it holds
    /// the hierarchy's memory. At paper fidelity (`grid_refinement = 3`, 26×26 nodes per
    /// rail per layer, 1,352 unknowns per layer) the threshold engages
    /// from 2 stacked layers up; every quick-fidelity stack (9×9 nodes,
    /// at most 1,296 unknowns at 8 layers) stays on Jacobi.
    pub const AMG_MIN_UNKNOWNS: usize = 2048;

    /// Relative residual `‖b − A·v‖₂ / ‖b‖₂` every accepted PDN answer
    /// meets: the escalation ladder's tolerance, and the guard on
    /// superposed sweep points ([`crate::Pdn::solve_load_sweep`]).
    pub(crate) const TOLERANCE: f64 = 1e-9;

    /// The ladder settings of every PDN solve but the fault sketch's
    /// baseline: [`NetworkBuilder::TOLERANCE`], and a lead picked by size
    /// alone — [`Lead::MixedAmg`] at or above
    /// [`NetworkBuilder::AMG_MIN_UNKNOWNS`] unknowns, [`Lead::Jacobi`]
    /// below. [`NetworkBuilder::solve`] and the backward-Euler steps of
    /// [`crate::Pdn::solve_transient_step`] both take them from here.
    pub(crate) fn ladder_options(unknowns: usize, cancel: &CancelToken) -> RobustOptions {
        RobustOptions {
            tolerance: Self::TOLERANCE,
            lead: if unknowns >= Self::AMG_MIN_UNKNOWNS {
                Lead::MixedAmg
            } else {
                Lead::Jacobi
            },
            cancel: cancel.clone(),
        }
    }

    /// The shared solve tail: connectivity check, then the escalation
    /// ladder over an already-assembled CSR matrix. Large systems lead
    /// with the mixed-precision rung (f64 outer CG preconditioned by the
    /// f32 V-cycle), falling back to the pure-f64 rungs on any numerical
    /// trouble.
    fn solve_csr(
        &self,
        a: &CsrMatrix,
        guess: Option<&[f64]>,
        workspace: &mut SolveWorkspace,
        cancel: &CancelToken,
    ) -> Result<(Vec<f64>, SolveReport), PdnError> {
        if let Some((floating_nodes, example_node)) = self.floating_nodes(a) {
            return Err(PdnError::Disconnected {
                floating_nodes,
                example_node,
            });
        }
        let opts = Self::ladder_options(a.rows(), cancel);
        let m = vstack_obs::metrics::global();
        m.pdn_solves.inc();
        if opts.lead == Lead::MixedAmg {
            if workspace.has_hierarchy() {
                m.amg_cache_hits.inc();
            } else {
                m.amg_cache_misses.inc();
            }
        }
        let solved = solve_robust(a, &self.rhs, guess, &opts, workspace)?;
        Ok((solved.x, solved.report))
    }

    /// Finds nodes with no conductive path to any rail-tied node.
    ///
    /// Returns `Some((count, example))` if the network is disconnected,
    /// `None` if every node reaches a rail. Runs a BFS over the structural
    /// nonzeros of `a`, which is symmetric for every stamp kind this
    /// builder produces (conductances and rank-1 converter outer products).
    pub(crate) fn floating_nodes(&self, a: &CsrMatrix) -> Option<(usize, usize)> {
        let n = self.rhs.len();
        let mut reached = vec![false; n];
        let mut queue: Vec<usize> = Vec::new();
        for (node, &tied) in self.rail_nodes.iter().enumerate() {
            if tied {
                reached[node] = true;
                queue.push(node);
            }
        }
        while let Some(node) = queue.pop() {
            let (cols, vals) = a.row(node);
            for (&col, &val) in cols.iter().zip(vals) {
                if val != 0.0 && !reached[col] {
                    reached[col] = true;
                    queue.push(col);
                }
            }
        }
        let mut floating = 0usize;
        let mut example = 0usize;
        for (node, &ok) in reached.iter().enumerate() {
            if !ok {
                if floating == 0 {
                    example = node;
                }
                floating += 1;
            }
        }
        (floating > 0).then_some((floating, example))
    }

    /// Finalizes the conductance matrix (CSR). Used by the transient
    /// stepper, which factors the stamping cost out of the time loop, and
    /// by the fault sketch's baseline.
    pub fn to_matrix(&self) -> vstack_sparse::CsrMatrix {
        self.matrix.to_csr()
    }

    /// The assembled right-hand side (Dirichlet + current injections).
    pub fn rhs(&self) -> &[f64] {
        &self.rhs
    }
}

/// Assigns every grid node to the core tile containing it.
///
/// Returns, for each core, the flat (single-grid) node indices inside its
/// bounding box. Nodes on shared edges go to the first matching core;
/// every node belongs to exactly one core because the tiles partition the
/// die.
pub fn core_node_map(
    grid: &GridSpec,
    floorplan: &vstack_power::floorplan::Floorplan,
) -> Vec<Vec<usize>> {
    let mut map = vec![Vec::new(); floorplan.core_count()];
    for j in 0..grid.ny {
        for i in 0..grid.nx {
            let (x, y) = grid.position(i, j);
            if let Some(core) = floorplan.core_at(x, y) {
                map[core].push(grid.index(i, j));
            }
        }
    }
    map
}

/// Per-core, per-node load weights (parallel to [`core_node_map`]'s node
/// lists, each core's weights summing to 1).
///
/// With [`crate::params::LoadDistribution::PerBlock`], a node's weight
/// follows the power density of the functional block covering it; with
/// `Uniform`, all nodes in a tile share equally.
pub fn core_load_weights(
    grid: &GridSpec,
    floorplan: &vstack_power::floorplan::Floorplan,
    core: &vstack_power::mcpat::CoreModel,
    node_map: &[Vec<usize>],
    distribution: crate::params::LoadDistribution,
) -> Vec<Vec<f64>> {
    use crate::params::LoadDistribution;
    use vstack_power::mcpat::UNITS;

    match distribution {
        LoadDistribution::Uniform => node_map
            .iter()
            .map(|nodes| vec![1.0 / nodes.len() as f64; nodes.len()])
            .collect(),
        LoadDistribution::PerBlock => {
            // Power density (W/mm²) per unit index.
            let density: Vec<f64> = UNITS
                .iter()
                .map(|&u| {
                    let b = core.budget(u);
                    (b.peak_dynamic_w + b.leakage_w) / (b.area_fraction * core.area_mm2())
                })
                .collect();
            node_map
                .iter()
                .enumerate()
                .map(|(core_idx, nodes)| {
                    let mut w: Vec<f64> = nodes
                        .iter()
                        .map(|&n| {
                            let i = n % grid.nx;
                            let j = n / grid.nx;
                            let (x, y) = grid.position(i, j);
                            floorplan
                                .blocks()
                                .iter()
                                .find(|b| b.core == core_idx && b.rect.contains(x, y))
                                .map(|b| density[b.unit])
                                // Shared-edge nodes assigned to this core but
                                // covered by a neighbour's block: average
                                // density.
                                .unwrap_or_else(|| {
                                    density.iter().sum::<f64>() / density.len() as f64
                                })
                        })
                        .collect();
                    let total: f64 = w.iter().sum();
                    for wi in &mut w {
                        *wi /= total;
                    }
                    w
                })
                .collect()
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Direct envelope-Cholesky solve of `nb`'s stamped system: an oracle
    /// that shares no code with the Krylov ladder.
    pub(crate) fn direct_solve(nb: &NetworkBuilder) -> Vec<f64> {
        direct_solver(nb)(nb.rhs())
    }

    /// [`direct_solve`] for any right-hand side: `nb`'s matrix is
    /// factored once, and the returned closure solves against it.
    pub(crate) fn direct_solver(nb: &NetworkBuilder) -> impl Fn(&[f64]) -> Vec<f64> {
        let a = nb.to_matrix();
        let chol = vstack_sparse::EnvelopeCholesky::factor(&a).unwrap();
        move |b| {
            let (mut x, mut work) = (vec![0.0; b.len()], vec![0.0; b.len()]);
            chol.solve_into(b, &mut x, &mut work);
            x
        }
    }

    /// `max |got − want|` as a fraction of `max |want|`.
    pub(crate) fn max_error_of_scale(got: &[f64], want: &[f64]) -> f64 {
        let scale = want.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let err = got
            .iter()
            .zip(want)
            .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
        err / scale
    }

    #[test]
    fn load_weights_sum_to_one_and_vary_per_block() {
        use crate::params::LoadDistribution;
        let p = PdnParams::paper_defaults();
        let g = GridSpec::from_params(&p);
        let fp = p.floorplan();
        let map = core_node_map(&g, &fp);
        for dist in [LoadDistribution::Uniform, LoadDistribution::PerBlock] {
            let w = core_load_weights(&g, &fp, &p.core, &map, dist);
            for (core, weights) in w.iter().enumerate() {
                let sum: f64 = weights.iter().sum();
                assert!((sum - 1.0).abs() < 1e-9, "core {core} weights sum {sum}");
                assert!(weights.iter().all(|&x| x > 0.0));
            }
        }
        // Per-block weights are non-uniform (hot LSU vs cool L2 slice).
        let per_block = core_load_weights(&g, &fp, &p.core, &map, LoadDistribution::PerBlock);
        let w0 = &per_block[0];
        let spread = w0.iter().cloned().fold(f64::MIN, f64::max)
            / w0.iter().cloned().fold(f64::MAX, f64::min);
        assert!(spread > 1.2, "expected density contrast, got {spread}");
    }

    #[test]
    fn core_map_partitions_grid() {
        let p = PdnParams::paper_defaults();
        let g = GridSpec::from_params(&p);
        let map = core_node_map(&g, &p.floorplan());
        let assigned: usize = map.iter().map(Vec::len).sum();
        assert_eq!(assigned, g.count(), "every node must belong to a core");
        for (core, nodes) in map.iter().enumerate() {
            assert!(!nodes.is_empty(), "core {core} got no grid nodes");
        }
    }

    #[test]
    fn grid_spec_covers_die() {
        let p = PdnParams::paper_defaults();
        let g = GridSpec::from_params(&p);
        assert!(g.nx > 10 && g.ny > 10, "grid too coarse: {}x{}", g.nx, g.ny);
        let fp = p.floorplan();
        let (x, y) = g.position(g.nx - 1, g.ny - 1);
        assert!((x - fp.chip_width_mm()).abs() < 1e-9);
        assert!((y - fp.chip_height_mm()).abs() < 1e-9);
    }

    #[test]
    fn nearest_round_trips_node_positions() {
        let p = PdnParams::paper_defaults();
        let g = GridSpec::from_params(&p);
        for (i, j) in [(0, 0), (3, 5), (g.nx - 1, g.ny - 1)] {
            let (x, y) = g.position(i, j);
            assert_eq!(g.nearest(x, y), (i, j));
        }
    }

    #[test]
    fn nearest_clamps_outside_die() {
        let p = PdnParams::paper_defaults();
        let g = GridSpec::from_params(&p);
        assert_eq!(g.nearest(-5.0, -5.0), (0, 0));
        assert_eq!(g.nearest(1e9, 1e9), (g.nx - 1, g.ny - 1));
    }

    #[test]
    fn healthy_solve_reports_first_rung() {
        let mut nb = NetworkBuilder::new(2);
        nb.conductance_to_rail(0, 1.0, 1.0);
        nb.conductance(0, 1, 1.0);
        nb.conductance_to_rail(1, 1.0, 0.0);
        let (v, report) = nb.solve(None, &mut SolveScratch::new()).unwrap();
        assert!((v[0] - 2.0 / 3.0).abs() < 1e-8);
        assert!(!report.was_rescued(), "trail: {}", report.trail());
    }

    #[test]
    fn scratch_reuse_is_bit_identical_across_restamps() {
        // The same structure solved repeatedly through one scratch, with
        // the stamped values changing every round — the cached pattern
        // must yield exactly the bits of a fresh symbolic build.
        let build = |g01: f64, tie1: bool| {
            let mut nb = NetworkBuilder::new(3);
            nb.conductance_to_rail(0, 2.0, 1.0);
            nb.conductance(0, 1, g01);
            nb.conductance(1, 2, 0.5);
            if tie1 {
                nb.conductance_to_rail(2, 3.0, 0.0);
            } else {
                // Different stamping order / rail value, same pattern.
                nb.conductance_to_rail(2, 1.5, 0.25);
            }
            nb.current(1, -0.1);
            nb
        };
        let mut scratch = SolveScratch::new();
        for (g01, tie1) in [(1.0, true), (0.25, false), (4.0, true)] {
            let nb = build(g01, tie1);
            let (fresh, fresh_rep) = nb.solve(None, &mut SolveScratch::new()).unwrap();
            let (reused, reused_rep) = nb.solve(None, &mut scratch).unwrap();
            assert_eq!(fresh, reused, "g01={g01}");
            assert_eq!(fresh_rep.trail(), reused_rep.trail());
        }
    }

    #[test]
    fn scratch_survives_pattern_and_dimension_changes() {
        // A scratch carrying a 3-node pattern must transparently rebuild
        // for a 2-node network and for a 3-node network with different
        // structural nonzeros.
        let mut scratch = SolveScratch::new();
        let mut nb3 = NetworkBuilder::new(3);
        nb3.conductance_to_rail(0, 1.0, 1.0);
        nb3.conductance(0, 1, 1.0);
        nb3.conductance(1, 2, 1.0);
        nb3.conductance_to_rail(2, 1.0, 0.0);
        let (v3, _) = nb3.solve(None, &mut scratch).unwrap();
        assert_eq!(v3.len(), 3);

        let mut nb2 = NetworkBuilder::new(2);
        nb2.conductance_to_rail(0, 1.0, 1.0);
        nb2.conductance(0, 1, 1.0);
        nb2.conductance_to_rail(1, 1.0, 0.0);
        let (v2, _) = nb2.solve(None, &mut scratch).unwrap();
        let (v2_fresh, _) = nb2.solve(None, &mut SolveScratch::new()).unwrap();
        assert_eq!(v2, v2_fresh);

        // Same dimension, new structural edge (0–2): PatternMismatch path.
        let mut nb3b = NetworkBuilder::new(3);
        nb3b.conductance_to_rail(0, 1.0, 1.0);
        nb3b.conductance(0, 2, 1.0);
        nb3b.conductance_to_rail(2, 1.0, 0.0);
        nb3b.conductance_to_rail(1, 1.0, 0.5);
        let (_, _) = nb3.solve(None, &mut scratch).unwrap();
        let (vb, _) = nb3b.solve(None, &mut scratch).unwrap();
        let (vb_fresh, _) = nb3b.solve(None, &mut SolveScratch::new()).unwrap();
        assert_eq!(vb, vb_fresh);
    }

    #[test]
    fn floating_subgrid_is_detected_before_solving() {
        // Nodes 0–1 tied to a rail; nodes 2–3 only connected to each other.
        let mut nb = NetworkBuilder::new(4);
        nb.conductance_to_rail(0, 1.0, 1.0);
        nb.conductance(0, 1, 1.0);
        nb.conductance(2, 3, 1.0);
        let err = nb.solve(None, &mut SolveScratch::new()).unwrap_err();
        match err {
            crate::error::PdnError::Disconnected {
                floating_nodes,
                example_node,
            } => {
                assert_eq!(floating_nodes, 2);
                assert_eq!(example_node, 2);
            }
            other => panic!("expected Disconnected, got {other:?}"),
        }
        // Callers that speak SolveError (the transient step) see it
        // degraded to NotConverged, not a panic.
        assert!(matches!(
            err.into_solve_error(),
            vstack_sparse::SolveError::NotConverged { .. }
        ));
    }

    #[test]
    fn fully_floating_network_is_disconnected() {
        let mut nb = NetworkBuilder::new(2);
        nb.conductance(0, 1, 1.0);
        let err = nb.solve(None, &mut SolveScratch::new()).unwrap_err();
        assert!(matches!(
            err,
            crate::error::PdnError::Disconnected {
                floating_nodes: 2,
                ..
            }
        ));
    }

    #[test]
    fn converter_stamp_counts_as_connectivity() {
        // Node 0 has no ordinary conductance anywhere: it reaches the
        // rail-tied nodes 1 and 2 only through the rank-1 converter stamp,
        // which must register structurally in the BFS.
        let mut nb = NetworkBuilder::new(3);
        nb.conductance_to_rail(1, 1e3, 2.0);
        nb.conductance_to_rail(2, 1e3, 0.0);
        nb.converter_with_ratio(0, 1, 2, 1.0, 0.5);
        let (v, _) = nb.solve(None, &mut SolveScratch::new()).unwrap();
        assert!((v[0] - 1.0).abs() < 1e-6, "converter midpoint: {}", v[0]);
    }

    #[test]
    fn dirichlet_divider_solves() {
        // Two nodes: rail(1V) --1Ω-- a --1Ω-- b --1Ω-- rail(0V)
        let mut nb = NetworkBuilder::new(2);
        nb.conductance_to_rail(0, 1.0, 1.0);
        nb.conductance(0, 1, 1.0);
        nb.conductance_to_rail(1, 1.0, 0.0);
        let (v, _) = nb.solve(None, &mut SolveScratch::new()).unwrap();
        assert!((v[0] - 2.0 / 3.0).abs() < 1e-8);
        assert!((v[1] - 1.0 / 3.0).abs() < 1e-8);
    }

    #[test]
    fn converter_stamp_splits_rails() {
        // Rails at 2 V and 0 V through small resistances to nodes t and b;
        // converter drives node o, which has a load to ground.
        let mut nb = NetworkBuilder::new(3); // 0 = out, 1 = top, 2 = bottom
        nb.conductance_to_rail(1, 1e3, 2.0);
        nb.conductance_to_rail(2, 1e3, 0.0);
        nb.converter_with_ratio(0, 1, 2, 1.0 / 0.6, 0.5);
        // Load drawing 50 mA out of the output node.
        nb.current(0, -0.05);
        let (v, _) = nb.solve(None, &mut SolveScratch::new()).unwrap();
        // v_out ≈ (2 + 0)/2 − 0.05·0.6 = 0.97 (minus tiny rail droop).
        assert!((v[0] - 0.97).abs() < 0.005, "v_out {}", v[0]);
    }

    #[test]
    fn converter_balances_at_zero_load() {
        let mut nb = NetworkBuilder::new(3);
        nb.conductance_to_rail(1, 1e3, 3.0);
        nb.conductance_to_rail(2, 1e3, 1.0);
        nb.converter_with_ratio(0, 1, 2, 1.0 / 0.6, 0.5);
        let (v, _) = nb.solve(None, &mut SolveScratch::new()).unwrap();
        assert!((v[0] - 2.0).abs() < 1e-6, "v_out {}", v[0]);
    }

    #[test]
    fn grid_laplacian_uniform_current_is_symmetric() {
        let p = PdnParams::paper_defaults();
        let g = GridSpec::from_params(&p);
        let mut nb = NetworkBuilder::new(g.count());
        nb.grid_laplacian(&g, 0, 0.05);
        // Tie the four corners to 1 V and pull current from the center.
        for (i, j) in [(0, 0), (g.nx - 1, 0), (0, g.ny - 1), (g.nx - 1, g.ny - 1)] {
            nb.conductance_to_rail(g.index(i, j), 100.0, 1.0);
        }
        let center = g.index(g.nx / 2, g.ny / 2);
        nb.current(center, -0.1);
        let (v, _) = nb.solve(None, &mut SolveScratch::new()).unwrap();
        assert!(v[center] < 1.0);
        // The source sits on the main diagonal of a square grid, so the two
        // off-diagonal corners are mirror images.
        let a = v[g.index(g.nx - 1, 0)];
        let b = v[g.index(0, g.ny - 1)];
        assert!((a - b).abs() < 1e-6);
    }
}
