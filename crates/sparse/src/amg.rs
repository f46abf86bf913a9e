//! Aggregation-based algebraic multigrid (AMG) preconditioner.
//!
//! Jacobi-preconditioned CG iteration counts on PDN grid
//! Laplacians grow with grid resolution (roughly `O(n^0.5)` iterations),
//! which makes the total solve cost super-linear exactly where the paper's
//! experiments need it flat: many-layer, fine-grid sweeps. A multigrid
//! V-cycle removes low-frequency error components that point smoothers
//! cannot, giving iteration counts that are nearly independent of problem
//! size.
//!
//! This module implements classic *smoothed aggregation* ([Vaněk, Mandel,
//! Brezina 1996]-style) with deliberately boring, deterministic choices:
//!
//! * **Strength of connection**: `|a_ij| ≥ θ·√(a_ii·a_jj)`, θ = 0.08.
//! * **Aggregation**: greedy neighborhood aggregation in ascending node
//!   order — pass 1 seeds an aggregate from each node whose strong
//!   neighbors are all unassigned; pass 2 attaches leftovers to the
//!   strongest pass-1 neighbor aggregate (ties broken by lowest column
//!   index); pass 3 turns stragglers into singletons. No randomness, no
//!   data races: the hierarchy is bit-identical across runs and thread
//!   counts.
//! * **Prolongation**: the piecewise-constant tentative operator smoothed
//!   by one damped-Jacobi step on the strength-filtered matrix,
//!   `P = (I − ω (Dᶠ)⁻¹ Aᶠ)·T`, ω = 2/3. `Aᶠ` drops every weak
//!   off-diagonal entry and lumps its value into the diagonal,
//!   `dᶠ_i = a_ii + Σ_weak a_ij`, so each row keeps its sum (a row whose
//!   lumped diagonal is not positive and finite keeps `a_ii`). Smoothing with the unfiltered `A`
//!   spreads `P` along weak couplings: on TSV-coupled stacks, whose
//!   aggregates pair nodes vertically, every coarse operator then fills
//!   in and the operator complexity
//!   ([`AmgHierarchy::operator_complexity`]) of a 4-layer Dense-TSV PDN
//!   reached 9.9. Filtering holds it below 2 on paper-fidelity PDNs, and
//!   a build then costs about one AMG-CG solve (it cost 1.7–10 before).
//!   Rows with no weak coupling (every fine row of a uniform grid
//!   Laplacian) smooth exactly as with `A`.
//! * **Coarse operators**: Galerkin triple products `Aᶜ = Pᵀ(A·P)`, the
//!   product [`CsrMatrix::matmul`] would give bit for bit. `P` is written
//!   row by row as CSR and `Pᵀ` is a counting-sort transpose, so no level
//!   round-trips through triplets.
//! * **Cycle**: a V-cycle with one damped-Jacobi sweep (ω = 2/3) before
//!   and after each coarse correction and a dense Cholesky direct solve
//!   at the coarsest level (≤ 128 unknowns). One sweep each way keeps the
//!   preconditioner symmetric positive definite, as CG requires.
//!
//! These settings are fixed constants, not options.
//!
//! [`AmgHierarchy::apply`] is allocation-free: every per-level vector is
//! preallocated at build time and reused via interior mutability. SpMVs go
//! through [`CsrMatrix::mul_vec_into`], which routes large matrices
//! through the scoped [`crate::pool::ThreadPool`] with bit-identical
//! row-partitioned results, so the whole preconditioner inherits the
//! crate's cross-thread determinism guarantee.
//!
//! Coarsening can *degenerate* — a diagonal-dominant matrix with no strong
//! couplings aggregates into singletons and the "coarse" grid is as large
//! as the fine one. [`AmgHierarchy::build`] detects this and returns
//! [`SolveError::CoarseningFailed`] so the escalation ladder in
//! [`crate::robust`] can fall back to single-level preconditioners instead
//! of looping forever or exploding memory.

use std::cell::RefCell;

use crate::csr::compact_row;
use crate::dense::{CholeskyFactors, DenseMatrix};
use crate::solver::{SetupScratch, SolveWorkspace};
use crate::vecops::norm_inf;
use crate::{CsrMatrix, SolveError};

// The settings are fixed: they are tuned for the conductance Laplacians
// this crate solves (2-D grids stacked into 3-D PDNs, SPD, M-matrix-like
// with occasional rank-1 converter stamps).

/// Strength-of-connection threshold θ: `j` is a strong neighbor of `i`
/// when `|a_ij| ≥ θ·√(a_ii·a_jj)`. Smaller values aggregate more
/// aggressively.
const STRENGTH_THETA: f64 = 0.08;
/// Damping ω of the one-sweep Jacobi pre- and post-smoother (2/3 is
/// optimal for model Laplacians). One sweep each way keeps the
/// preconditioner symmetric.
const SMOOTHER_OMEGA: f64 = 2.0 / 3.0;
/// Damping of prolongation smoothing over the strength-filtered matrix,
/// `P = (I − ω (Dᶠ)⁻¹ Aᶠ)·T` (see the [module docs](self)).
const PROLONGATION_OMEGA: f64 = 2.0 / 3.0;
/// Hard cap on hierarchy depth; exceeded only when coarsening stalls,
/// which is reported as [`SolveError::CoarseningFailed`].
const MAX_LEVELS: usize = 30;
/// Problems at or below this size are solved directly with a dense
/// Cholesky factorization instead of coarsening further.
const DIRECT_MAX: usize = 128;
/// An aggregation pass must shrink the unknown count below `ratio · n`,
/// else coarsening is declared degenerate.
const MAX_COARSENING_RATIO: f64 = 0.75;

/// One non-coarsest level of the hierarchy.
#[derive(Debug, Clone)]
struct Level {
    /// The operator at this level (level 0 holds a copy of the fine
    /// matrix).
    a: CsrMatrix,
    /// `1 / a_ii`, validated positive and finite at build time.
    inv_diag: Vec<f64>,
    /// Prolongation from the next-coarser level into this one.
    p: CsrMatrix,
    /// Restriction (`Pᵀ`) from this level into the next-coarser one.
    pt: CsrMatrix,
}

/// Per-level work vectors, preallocated once so `apply` never allocates.
#[derive(Debug, Clone)]
struct Scratch {
    /// Solution iterate per fine level.
    x: Vec<Vec<f64>>,
    /// Right-hand side (restricted residual) per fine level.
    r: Vec<Vec<f64>>,
    /// General temporary (`A·x`, residuals, prolonged corrections).
    t: Vec<Vec<f64>>,
    /// Coarsest-level vector, solved in place by the dense factor.
    coarse: Vec<f64>,
}

/// A built multigrid hierarchy: a frozen, reusable preconditioner.
///
/// Built once per sparsity pattern (and values), then applied as `z ≈
/// A⁻¹ r` inside CG. Callers that re-solve one sparsity pattern (the PDN
/// crate's `SolveScratch`) cache it across re-solves; CG converges against whatever the *current* matrix is, the
/// hierarchy only has to stay SPD to keep CG sound.
///
/// The type is `Send` but not `Sync` (scratch buffers use a [`RefCell`]);
/// each solver thread owns its own hierarchy.
#[derive(Debug, Clone)]
pub struct AmgHierarchy {
    /// Fine-level dimension.
    n: usize,
    /// Fine-to-coarse levels, finest first. Empty when the whole problem
    /// fits the direct solver.
    levels: Vec<Level>,
    /// Dense Cholesky factor of the coarsest operator.
    coarse: CholeskyFactors,
    /// Stored entries of the coarsest operator before densification.
    coarse_nnz: usize,
    scratch: RefCell<Scratch>,
}

impl AmgHierarchy {
    /// Builds the hierarchy for a symmetric positive-definite matrix.
    ///
    /// Setup is serial and deterministic; cost is a small constant factor
    /// over one fine-grid SpMV per level. The per-level diagonal and
    /// aggregation buffers come from `ws`, so once it has grown to the
    /// largest pattern it has seen, re-setup grows none of them (verify
    /// with [`SolveWorkspace::setup_regrowths`]); what a build allocates
    /// is the hierarchy's own storage and each level's Galerkin product.
    /// The hierarchy is returned, not stored in `ws`, and is bit-identical
    /// whatever `ws` held before.
    ///
    /// # Errors
    ///
    /// * [`SolveError::NotSquare`] — non-square input.
    /// * [`SolveError::SingularDiagonal`] — a level operator has a zero,
    ///   negative, or non-finite diagonal entry (the damped-Jacobi
    ///   smoother cannot be formed).
    /// * [`SolveError::CoarseningFailed`] — aggregation stopped shrinking
    ///   the problem (e.g. no strong couplings anywhere).
    /// * [`SolveError::SingularMatrix`] — the coarsest operator is not
    ///   positive definite to working precision.
    pub fn build(a: &CsrMatrix, ws: &mut SolveWorkspace) -> Result<Self, SolveError> {
        let _span = vstack_obs::span!("amg_build");
        let built = Self::build_inner(a, &mut ws.setup);
        match &built {
            Ok(_) => vstack_obs::metrics::global().amg_builds.inc(),
            Err(_) => vstack_obs::metrics::global().amg_build_failures.inc(),
        }
        built
    }

    fn build_inner(a: &CsrMatrix, scratch: &mut SetupScratch) -> Result<Self, SolveError> {
        if a.rows() != a.cols() {
            return Err(SolveError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let mut current = a.clone();
        let mut levels: Vec<Level> = Vec::new();
        while current.rows() > DIRECT_MAX {
            let n = current.rows();
            if levels.len() + 1 >= MAX_LEVELS {
                return Err(SolveError::CoarseningFailed {
                    level: levels.len(),
                    unknowns: n,
                    aggregates: n,
                });
            }
            SetupScratch::prep(&mut scratch.growths, &mut scratch.diag, n, 0.0);
            diagonal_into(&current, &mut scratch.diag);
            let inv_diag = invert_diagonal(&scratch.diag)?;
            let n_agg = aggregate_into(
                &current,
                &scratch.diag,
                &mut scratch.agg,
                &mut scratch.pass,
                &mut scratch.growths,
            );
            if n_agg == 0 || (n_agg as f64) > MAX_COARSENING_RATIO * (n as f64) {
                return Err(SolveError::CoarseningFailed {
                    level: levels.len(),
                    unknowns: n,
                    aggregates: n_agg,
                });
            }
            let p = prolongator(&current, &scratch.diag, &scratch.agg, n_agg);
            let pt = p.transpose();
            let coarse_a = CsrMatrix::galerkin(&pt, &current, &p);
            let fine = std::mem::replace(&mut current, coarse_a);
            levels.push(Level {
                a: fine,
                inv_diag,
                p,
                pt,
            });
        }
        let coarse = csr_to_dense(&current).cholesky()?;
        let scratch = Scratch {
            x: levels.iter().map(|l| vec![0.0; l.a.rows()]).collect(),
            r: levels.iter().map(|l| vec![0.0; l.a.rows()]).collect(),
            t: levels.iter().map(|l| vec![0.0; l.a.rows()]).collect(),
            coarse: vec![0.0; current.rows()],
        };
        Ok(AmgHierarchy {
            n: a.rows(),
            levels,
            coarse,
            coarse_nnz: current.nnz(),
            scratch: RefCell::new(scratch),
        })
    }

    /// Dimension of the fine-level system this hierarchy preconditions.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of levels including the coarsest direct level.
    pub fn num_levels(&self) -> usize {
        self.levels.len() + 1
    }

    /// Unknown counts per level, finest first.
    pub fn level_dims(&self) -> Vec<usize> {
        let mut dims: Vec<usize> = self.levels.iter().map(|l| l.a.rows()).collect();
        dims.push(self.coarse.dim());
        dims
    }

    /// Operator complexity: stored nonzeros summed over every level's
    /// operator (the coarsest counted before densification), divided by
    /// the fine operator's. It bounds the memory and V-cycle work the
    /// hierarchy adds on top of the fine matrix; 1.0 when the whole
    /// problem is the direct level.
    pub fn operator_complexity(&self) -> f64 {
        let fine = self.levels.first().map_or(self.coarse_nnz, |l| l.a.nnz());
        let total = self.levels.iter().map(|l| l.a.nnz()).sum::<usize>() + self.coarse_nnz;
        total as f64 / fine.max(1) as f64
    }

    /// Applies one V-cycle: `z ≈ A⁻¹ r`. Allocation-free after build.
    ///
    /// # Panics
    ///
    /// Panics if `r.len()` or `z.len()` differ from [`AmgHierarchy::dim`],
    /// or (unreachably for the usual CG callers) on re-entrant use of the
    /// shared scratch buffers.
    pub fn apply(&self, r: &[f64], z: &mut [f64]) {
        assert_eq!(r.len(), self.n, "amg apply: rhs dimension mismatch");
        assert_eq!(z.len(), self.n, "amg apply: output dimension mismatch");
        vstack_obs::metrics::global().amg_vcycles.inc();
        let mut scratch = self.scratch.borrow_mut();
        let s = &mut *scratch;
        if self.levels.is_empty() {
            z.copy_from_slice(r);
            self.coarse.solve_into(z);
            return;
        }
        s.r[0].copy_from_slice(r);
        let depth = self.levels.len();
        // Downward sweep: one damped-Jacobi sweep from zero, form the
        // residual, restrict.
        for l in 0..depth {
            let level = &self.levels[l];
            for ((xi, ri), di) in s.x[l].iter_mut().zip(&s.r[l]).zip(&level.inv_diag) {
                *xi = SMOOTHER_OMEGA * di * ri;
            }
            level.a.mul_vec_into(&s.x[l], &mut s.t[l]);
            for (ti, ri) in s.t[l].iter_mut().zip(&s.r[l]) {
                *ti = ri - *ti;
            }
            if l + 1 == depth {
                level.pt.mul_vec_into(&s.t[l], &mut s.coarse);
            } else {
                let (_, tail) = s.r.split_at_mut(l + 1);
                level.pt.mul_vec_into(&s.t[l], &mut tail[0]);
            }
        }
        self.coarse.solve_into(&mut s.coarse);
        // Upward sweep: prolong the correction, post-smooth.
        for l in (0..depth).rev() {
            let level = &self.levels[l];
            if l + 1 == depth {
                level.p.mul_vec_into(&s.coarse, &mut s.t[l]);
            } else {
                let (_, tail) = s.x.split_at_mut(l + 1);
                level.p.mul_vec_into(&tail[0], &mut s.t[l]);
            }
            for (xi, ti) in s.x[l].iter_mut().zip(&s.t[l]) {
                *xi += ti;
            }
            level.a.mul_vec_into(&s.x[l], &mut s.t[l]);
            for ((xi, ti), (ri, di)) in s.x[l]
                .iter_mut()
                .zip(&s.t[l])
                .zip(s.r[l].iter().zip(&level.inv_diag))
            {
                *xi += SMOOTHER_OMEGA * di * (ri - ti);
            }
        }
        z.copy_from_slice(&s.x[0]);
    }
}

/// Compressed-sparse-row storage in `f32` with `u32` indices.
///
/// A compact single-precision mirror of a [`CsrMatrix`] used by
/// [`AmgHierarchyF32`]: halving both the value and the index width roughly
/// halves the memory traffic of the smoother and residual SpMVs that
/// dominate V-cycle cost. Applied serially only — the f32 cycle is a
/// preconditioner whose output feeds a fixed-precision f64 outer
/// iteration, and keeping it serial keeps it deterministic across thread
/// counts without duplicating the pool's chunked-reduction machinery in a
/// second precision.
#[derive(Debug, Clone)]
struct CsrF32 {
    rows: usize,
    row_ptr: Vec<u32>,
    col_idx: Vec<u32>,
    values: Vec<f32>,
}

impl CsrF32 {
    fn from_f64(a: &CsrMatrix) -> Self {
        let (row_ptr, col_idx, values) = a.raw_parts();
        assert!(
            values.len() <= u32::MAX as usize,
            "matrix too large for the u32-indexed f32 mirror"
        );
        CsrF32 {
            rows: a.rows(),
            row_ptr: row_ptr.iter().map(|&p| p as u32).collect(),
            col_idx: col_idx.iter().map(|&c| c as u32).collect(),
            values: values.iter().map(|&v| v as f32).collect(),
        }
    }

    /// Serial SpMV with a fixed 4-way-unrolled summation order. Unlike
    /// the f64 kernels this is *not* bound by the CSR bit-identity
    /// contract — the f32 cycle is a preconditioner, so any deterministic
    /// order is valid — and independent accumulators break the dependent
    /// add chain that makes the scalar gather loop latency-bound.
    #[allow(clippy::needless_range_loop)]
    fn mul_vec_into(&self, x: &[f32], y: &mut [f32]) {
        for r in 0..self.rows {
            let lo = self.row_ptr[r] as usize;
            let hi = self.row_ptr[r + 1] as usize;
            let vals = &self.values[lo..hi];
            let cols = &self.col_idx[lo..hi];
            let mut acc = [0.0f32; 4];
            let mut v4 = vals.chunks_exact(4);
            let mut c4 = cols.chunks_exact(4);
            for (v, c) in (&mut v4).zip(&mut c4) {
                acc[0] += v[0] * x[c[0] as usize];
                acc[1] += v[1] * x[c[1] as usize];
                acc[2] += v[2] * x[c[2] as usize];
                acc[3] += v[3] * x[c[3] as usize];
            }
            for (v, c) in v4.remainder().iter().zip(c4.remainder()) {
                acc[0] += v * x[*c as usize];
            }
            y[r] = (acc[0] + acc[2]) + (acc[1] + acc[3]);
        }
    }
}

/// One non-coarsest level of the single-precision hierarchy.
#[derive(Debug, Clone)]
struct LevelF32 {
    a: CsrF32,
    inv_diag: Vec<f32>,
    p: CsrF32,
    pt: CsrF32,
}

/// Per-level f32 work vectors plus the f64 staging buffer for the
/// coarsest direct solve.
#[derive(Debug, Clone)]
struct ScratchF32 {
    x: Vec<Vec<f32>>,
    r: Vec<Vec<f32>>,
    t: Vec<Vec<f32>>,
    coarse32: Vec<f32>,
    coarse64: Vec<f64>,
}

/// A single-precision mirror of a built [`AmgHierarchy`].
///
/// Smoothing, residual formation, restriction, and prolongation all run in
/// `f32` (roughly half the memory traffic of the f64 V-cycle); only the
/// coarsest dense Cholesky solve round-trips through `f64`, reusing the
/// factor from the source hierarchy. Used as the preconditioner of a
/// **mixed-precision iterative-refinement** scheme: the outer CG iteration
/// stays entirely in f64 (same fixed-chunk reduction order, same
/// bit-identity guarantees), while each preconditioner application is a
/// cheap low-precision V-cycle. CG tolerates an approximate (but fixed,
/// SPD-ish) preconditioner, so the outer solve converges to full f64
/// tolerance; if the f32 cycle degrades convergence, the escalation ladder
/// in [`crate::robust`] falls back to the pure-f64 path.
///
/// To guard against overflow/underflow of extreme residuals in `f32`, each
/// application scales the residual by `1/‖r‖∞` before conversion and
/// rescales the result. A non-finite or zero scale, or a non-finite cycle
/// output (e.g. matrix entries that overflow `f32`), yields `z = 0`, which
/// deterministically surfaces as [`SolveError::Breakdown`] in the outer CG
/// so the ladder can escalate.
///
/// Like [`AmgHierarchy`], the type is `Send` but not `Sync`; each solver
/// thread owns its own mirror.
#[derive(Debug, Clone)]
pub struct AmgHierarchyF32 {
    /// Fine-level dimension.
    n: usize,
    /// Fine-to-coarse f32 levels, finest first.
    levels: Vec<LevelF32>,
    /// Dense f64 Cholesky factor cloned from the source hierarchy.
    coarse: CholeskyFactors,
    scratch: RefCell<ScratchF32>,
}

impl AmgHierarchyF32 {
    /// Converts a built f64 hierarchy into its f32 mirror.
    ///
    /// The conversion is value-only (indices, aggregates, and the coarse
    /// factor are reused), so it is much cheaper than an
    /// [`AmgHierarchy::build`] and can be cached alongside the f64
    /// hierarchy per sparsity pattern.
    pub fn from_hierarchy(h: &AmgHierarchy) -> Self {
        let _span = vstack_obs::span!("amg_f32_build");
        vstack_obs::metrics::global().f32_hierarchy_builds.inc();
        let levels: Vec<LevelF32> = h
            .levels
            .iter()
            .map(|l| LevelF32 {
                a: CsrF32::from_f64(&l.a),
                inv_diag: l.inv_diag.iter().map(|&d| d as f32).collect(),
                p: CsrF32::from_f64(&l.p),
                pt: CsrF32::from_f64(&l.pt),
            })
            .collect();
        let scratch = ScratchF32 {
            x: levels.iter().map(|l| vec![0.0f32; l.a.rows]).collect(),
            r: levels.iter().map(|l| vec![0.0f32; l.a.rows]).collect(),
            t: levels.iter().map(|l| vec![0.0f32; l.a.rows]).collect(),
            coarse32: vec![0.0f32; h.coarse.dim()],
            coarse64: vec![0.0f64; h.coarse.dim()],
        };
        AmgHierarchyF32 {
            n: h.n,
            levels,
            coarse: h.coarse.clone(),
            scratch: RefCell::new(scratch),
        }
    }

    /// Dimension of the fine-level system this hierarchy preconditions.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Applies one scaled f32 V-cycle: `z ≈ A⁻¹ r`. Allocation-free.
    ///
    /// The residual is normalized by `1/‖r‖∞` before conversion to `f32`
    /// and the correction rescaled on the way out; see the type-level
    /// documentation for the degenerate-input contract.
    ///
    /// # Panics
    ///
    /// Panics if `r.len()` or `z.len()` differ from
    /// [`AmgHierarchyF32::dim`], or on re-entrant use of the shared
    /// scratch buffers.
    pub fn apply(&self, r: &[f64], z: &mut [f64]) {
        assert_eq!(r.len(), self.n, "amg f32 apply: rhs dimension mismatch");
        assert_eq!(z.len(), self.n, "amg f32 apply: output dimension mismatch");
        vstack_obs::metrics::global().refinement_sweeps.inc();
        if self.levels.is_empty() {
            // Degenerate tiny problem: the "hierarchy" is just the dense
            // f64 factor, so there is nothing to do in reduced precision.
            z.copy_from_slice(r);
            self.coarse.solve_into(z);
            return;
        }
        let scale = norm_inf(r);
        if !scale.is_finite() || scale == 0.0 {
            z.fill(0.0);
            return;
        }
        let inv_scale = 1.0 / scale;
        let mut scratch = self.scratch.borrow_mut();
        let s = &mut *scratch;
        for (ri32, &ri) in s.r[0].iter_mut().zip(r) {
            *ri32 = (ri * inv_scale) as f32;
        }
        let depth = self.levels.len();
        let omega = SMOOTHER_OMEGA as f32;
        // Downward sweep: one damped-Jacobi sweep from zero, form the
        // residual, restrict.
        for l in 0..depth {
            let level = &self.levels[l];
            for ((xi, ri), di) in s.x[l].iter_mut().zip(&s.r[l]).zip(&level.inv_diag) {
                *xi = omega * di * ri;
            }
            level.a.mul_vec_into(&s.x[l], &mut s.t[l]);
            for (ti, ri) in s.t[l].iter_mut().zip(&s.r[l]) {
                *ti = ri - *ti;
            }
            if l + 1 == depth {
                level.pt.mul_vec_into(&s.t[l], &mut s.coarse32);
            } else {
                let (_, tail) = s.r.split_at_mut(l + 1);
                level.pt.mul_vec_into(&s.t[l], &mut tail[0]);
            }
        }
        // Coarsest level: round-trip through the dense f64 factor.
        for (c64, &c32) in s.coarse64.iter_mut().zip(&s.coarse32) {
            *c64 = c32 as f64;
        }
        self.coarse.solve_into(&mut s.coarse64);
        for (c32, &c64) in s.coarse32.iter_mut().zip(&s.coarse64) {
            *c32 = c64 as f32;
        }
        // Upward sweep: prolong the correction, post-smooth.
        for l in (0..depth).rev() {
            let level = &self.levels[l];
            if l + 1 == depth {
                level.p.mul_vec_into(&s.coarse32, &mut s.t[l]);
            } else {
                let (_, tail) = s.x.split_at_mut(l + 1);
                level.p.mul_vec_into(&tail[0], &mut s.t[l]);
            }
            for (xi, ti) in s.x[l].iter_mut().zip(&s.t[l]) {
                *xi += ti;
            }
            level.a.mul_vec_into(&s.x[l], &mut s.t[l]);
            for ((xi, ti), (ri, di)) in s.x[l]
                .iter_mut()
                .zip(&s.t[l])
                .zip(s.r[l].iter().zip(&level.inv_diag))
            {
                *xi += omega * di * (ri - ti);
            }
        }
        for (zi, &xi) in z.iter_mut().zip(&s.x[0]) {
            *zi = (xi as f64) * scale;
        }
        if z.iter().any(|v| !v.is_finite()) {
            // f32 overflow somewhere inside the cycle (e.g. matrix entries
            // beyond f32 range). Zeroing makes the outer CG break down
            // deterministically instead of propagating NaN.
            z.fill(0.0);
        }
    }
}

/// Validates and inverts the diagonal for the damped-Jacobi smoother.
fn invert_diagonal(diag: &[f64]) -> Result<Vec<f64>, SolveError> {
    let mut inv = Vec::with_capacity(diag.len());
    for (row, &d) in diag.iter().enumerate() {
        // `!d.is_finite()` also rejects NaN entries.
        if !d.is_finite() || d <= 0.0 {
            return Err(SolveError::SingularDiagonal { row });
        }
        inv.push(1.0 / d);
    }
    Ok(inv)
}

/// Extracts the diagonal of `a` into a caller-provided buffer (the
/// allocation-free sibling of [`CsrMatrix::diagonal`]).
fn diagonal_into(a: &CsrMatrix, out: &mut [f64]) {
    for (r, slot) in out.iter_mut().enumerate() {
        let (cols, vals) = a.row(r);
        *slot = match cols.binary_search(&r) {
            Ok(k) => vals[k],
            Err(_) => 0.0,
        };
    }
}

/// Strength of connection: `j ≠ i` is a strong neighbor of `i` when
/// `|a_ij| ≥ θ·√(a_ii·a_jj)` (squared, with `theta2 = θ²`). Explicit zeros
/// are never strong.
fn is_strong(diag: &[f64], theta2: f64, i: usize, j: usize, v: f64) -> bool {
    j != i && v != 0.0 && v * v >= theta2 * (diag[i] * diag[j]).abs()
}

/// Greedy neighborhood aggregation in fixed ascending node order.
///
/// Writes the aggregate id of every node into `agg` (a reused scratch
/// buffer; `pass1` holds the pass-1 snapshot) and returns the number of
/// aggregates. Entirely serial and order-deterministic: re-running on the
/// same matrix always yields the same partition.
fn aggregate_into(
    a: &CsrMatrix,
    diag: &[f64],
    agg_buf: &mut Vec<usize>,
    pass1_buf: &mut Vec<usize>,
    growths: &mut u64,
) -> usize {
    const UNASSIGNED: usize = usize::MAX;
    let n = a.rows();
    let strong =
        |i: usize, j: usize, v: f64| is_strong(diag, STRENGTH_THETA * STRENGTH_THETA, i, j, v);
    SetupScratch::prep(growths, agg_buf, n, UNASSIGNED);
    let agg = &mut agg_buf[..];
    let mut next = 0usize;
    // Pass 1: seed an aggregate from every node whose strong neighborhood
    // is fully unassigned; isolated nodes become singletons immediately.
    for i in 0..n {
        if agg[i] != UNASSIGNED {
            continue;
        }
        let (cols, vals) = a.row(i);
        let mut all_free = true;
        let mut has_strong = false;
        for (&j, &v) in cols.iter().zip(vals) {
            if strong(i, j, v) {
                has_strong = true;
                if agg[j] != UNASSIGNED {
                    all_free = false;
                    break;
                }
            }
        }
        if !has_strong {
            agg[i] = next;
            next += 1;
            continue;
        }
        if all_free {
            agg[i] = next;
            for (&j, &v) in cols.iter().zip(vals) {
                if strong(i, j, v) {
                    agg[j] = next;
                }
            }
            next += 1;
        }
    }
    // Pass 2: attach leftovers to the strongest pass-1 aggregate in reach.
    // Ties go to the lowest column index (CSR order), keeping the
    // partition independent of everything but the matrix itself.
    SetupScratch::prep(growths, pass1_buf, n, UNASSIGNED);
    pass1_buf.copy_from_slice(agg);
    let pass1 = &pass1_buf[..];
    for (i, slot) in agg.iter_mut().enumerate() {
        if *slot != UNASSIGNED {
            continue;
        }
        let (cols, vals) = a.row(i);
        let mut best: Option<(f64, usize)> = None;
        for (&j, &v) in cols.iter().zip(vals) {
            if strong(i, j, v) && pass1[j] != UNASSIGNED {
                let mag = v.abs();
                if best.is_none_or(|(bm, _)| mag > bm) {
                    best = Some((mag, pass1[j]));
                }
            }
        }
        if let Some((_, g)) = best {
            *slot = g;
        }
    }
    // Pass 3: whatever is still unassigned becomes a singleton.
    for slot in agg.iter_mut() {
        if *slot == UNASSIGNED {
            *slot = next;
            next += 1;
        }
    }
    next
}

/// Builds the smoothed prolongator for an aggregation.
///
/// The tentative operator `T` maps coarse unknown `g` to 1 on every fine
/// node in aggregate `g`. With `ω =` [`PROLONGATION_OMEGA`] it is
/// smoothed into `P = (I − ω (Dᶠ)⁻¹ Aᶠ)·T` over the strength-filtered
/// matrix (see the [module docs](self)): weak off-diagonal entries of row
/// `i` are left out and lumped into its diagonal `dᶠ_i`, which falls back
/// to `a_ii` when the lumped value is not positive and finite. A row with
/// no weak coupling has `dᶠ_i = a_ii` and produces the same entries, bit
/// for bit, as smoothing with `A`.
///
/// Each row is written straight into the CSR arrays: its terms are
/// emitted (`T`'s 1 first, then `A`'s row in column order), stably sorted
/// by aggregate and summed per aggregate in emission order, exactly as
/// [`CsrMatrix::from_triplets`] would sum the same terms.
fn prolongator(a: &CsrMatrix, diag: &[f64], agg: &[usize], n_agg: usize) -> CsrMatrix {
    let n = a.rows();
    let omega = PROLONGATION_OMEGA;
    let theta2 = STRENGTH_THETA * STRENGTH_THETA;
    let mut row_ptr = Vec::with_capacity(n + 1);
    row_ptr.push(0);
    let mut col_idx = Vec::with_capacity(n + a.nnz());
    let mut values = Vec::with_capacity(n + a.nnz());
    let mut wide = Vec::new();
    for i in 0..n {
        let (cols, vals) = a.row(i);
        let mut lumped = diag[i];
        for (&j, &v) in cols.iter().zip(vals) {
            if j != i && !is_strong(diag, theta2, i, j, v) {
                lumped += v;
            }
        }
        let d = if lumped.is_finite() && lumped > 0.0 {
            lumped
        } else {
            diag[i]
        };
        let inv_d = 1.0 / d;
        let lo = col_idx.len();
        col_idx.push(agg[i]);
        values.push(1.0);
        for (&j, &v) in cols.iter().zip(vals) {
            if j == i {
                col_idx.push(agg[i]);
                values.push(-omega * inv_d * d);
            } else if is_strong(diag, theta2, i, j, v) {
                col_idx.push(agg[j]);
                values.push(-omega * inv_d * v);
            }
        }
        let hi = col_idx.len();
        let end = compact_row(&mut col_idx, &mut values, (lo, hi), lo, &mut wide);
        col_idx.truncate(end);
        values.truncate(end);
        row_ptr.push(end);
    }
    CsrMatrix::from_raw_parts(n, n_agg, row_ptr, col_idx, values)
}

/// Densifies the (small) coarsest operator for direct factorization.
fn csr_to_dense(a: &CsrMatrix) -> DenseMatrix {
    let mut d = DenseMatrix::zeros(a.rows(), a.cols());
    for (r, c, v) in a.iter() {
        d[(r, c)] += v;
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{solve_robust, Lead, RobustOptions};

    /// 2-D grid Laplacian with a grounding leak on every node (SPD).
    fn grid_laplacian(side: usize, g: f64) -> CsrMatrix {
        let n = side * side;
        let mut triplets = Vec::new();
        let idx = |r: usize, c: usize| r * side + c;
        for r in 0..side {
            for c in 0..side {
                let i = idx(r, c);
                let mut diag = 1e-3 * g; // leak keeps the matrix nonsingular
                let mut couple = |j: usize| {
                    triplets.push((i, j, -g));
                    diag += g;
                };
                if r > 0 {
                    couple(idx(r - 1, c));
                }
                if r + 1 < side {
                    couple(idx(r + 1, c));
                }
                if c > 0 {
                    couple(idx(r, c - 1));
                }
                if c + 1 < side {
                    couple(idx(r, c + 1));
                }
                triplets.push((i, i, diag));
            }
        }
        CsrMatrix::from_triplets(n, n, &triplets)
    }

    fn rhs(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i % 11) as f64 - 5.0) * 1e-3).collect()
    }

    #[test]
    fn hierarchy_coarsens_a_grid() {
        let a = grid_laplacian(40, 20.0);
        let h = AmgHierarchy::build(&a, &mut SolveWorkspace::new()).unwrap();
        assert!(h.num_levels() >= 2, "dims: {:?}", h.level_dims());
        let dims = h.level_dims();
        assert_eq!(dims[0], 1600);
        assert!(dims.windows(2).all(|w| w[1] < w[0]), "dims: {dims:?}");
        assert!(*dims.last().unwrap() <= DIRECT_MAX);
    }

    #[test]
    fn amg_cg_converges_faster_than_jacobi_cg() {
        let a = grid_laplacian(48, 20.0);
        let b = rhs(a.rows());
        let solve = |lead| {
            let opts = RobustOptions {
                lead,
                ..RobustOptions::default()
            };
            let sol = solve_robust(&a, &b, None, &opts, &mut SolveWorkspace::new()).unwrap();
            assert!(!sol.report.was_rescued(), "{}", sol.report.trail());
            sol
        };
        let (amg, jac) = (solve(Lead::Amg), solve(Lead::Jacobi));
        assert!(
            amg.report.iterations * 3 < jac.report.iterations,
            "amg {} vs jacobi {}",
            amg.report.iterations,
            jac.report.iterations
        );
        let diff = amg
            .x
            .iter()
            .zip(&jac.x)
            .map(|(u, v)| (u - v).abs())
            .fold(0.0f64, f64::max);
        let scale = jac.x.iter().map(|v| v.abs()).fold(0.0f64, f64::max);
        assert!(
            diff <= 1e-6 * scale.max(1e-30),
            "diff {diff}, scale {scale}"
        );
    }

    #[test]
    fn tiny_problem_is_a_pure_direct_solve() {
        let a = grid_laplacian(3, 1.0); // 9 unknowns < direct_max
        let h = AmgHierarchy::build(&a, &mut SolveWorkspace::new()).unwrap();
        assert_eq!(h.num_levels(), 1);
        let b = rhs(9);
        let mut z = vec![0.0; 9];
        h.apply(&b, &mut z);
        assert!(a.residual_norm(&z, &b) < 1e-10);
    }

    #[test]
    fn one_by_one_grid_builds_and_applies() {
        let a = CsrMatrix::from_triplets(1, 1, &[(0, 0, 4.0)]);
        let h = AmgHierarchy::build(&a, &mut SolveWorkspace::new()).unwrap();
        let mut z = vec![0.0];
        h.apply(&[8.0], &mut z);
        assert_eq!(z[0], 2.0);
    }

    #[test]
    fn diagonal_matrix_degenerates_to_coarsening_failure() {
        // No off-diagonal couplings: every node becomes a singleton
        // aggregate and coarsening cannot shrink the problem.
        let n = 300;
        let triplets: Vec<_> = (0..n).map(|i| (i, i, 2.0 + i as f64)).collect();
        let a = CsrMatrix::from_triplets(n, n, &triplets);
        let err = AmgHierarchy::build(&a, &mut SolveWorkspace::new()).unwrap_err();
        assert!(
            matches!(
                err,
                SolveError::CoarseningFailed {
                    level: 0,
                    unknowns: 300,
                    aggregates: 300,
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn zero_diagonal_is_reported() {
        let n = 200;
        let mut triplets: Vec<_> = (0..n).map(|i| (i, i, 1.0)).collect();
        triplets[7].2 = 0.0;
        for i in 0..n - 1 {
            triplets.push((i, i + 1, -0.9));
            triplets.push((i + 1, i, -0.9));
        }
        let a = CsrMatrix::from_triplets(n, n, &triplets);
        let err = AmgHierarchy::build(&a, &mut SolveWorkspace::new()).unwrap_err();
        assert!(
            matches!(err, SolveError::SingularDiagonal { row: 7 }),
            "{err:?}"
        );
    }

    #[test]
    fn nonsquare_rejected() {
        let a = CsrMatrix::from_triplets(2, 3, &[(0, 0, 1.0)]);
        assert!(matches!(
            AmgHierarchy::build(&a, &mut SolveWorkspace::new()),
            Err(SolveError::NotSquare { .. })
        ));
    }

    #[test]
    fn near_singular_shift_does_not_panic() {
        // Pure-Neumann Laplacian plus a vanishing shift: the coarsest
        // operator is singular to working precision. Build must either
        // succeed or fail cleanly — no panic either way — and a successful
        // hierarchy must still produce finite output.
        let side = 20;
        let n = side * side;
        let mut triplets = Vec::new();
        let idx = |r: usize, c: usize| r * side + c;
        for r in 0..side {
            for c in 0..side {
                let i = idx(r, c);
                let mut d = 1e-14;
                if r > 0 {
                    triplets.push((i, idx(r - 1, c), -1.0));
                    d += 1.0;
                }
                if r + 1 < side {
                    triplets.push((i, idx(r + 1, c), -1.0));
                    d += 1.0;
                }
                if c > 0 {
                    triplets.push((i, idx(r, c - 1), -1.0));
                    d += 1.0;
                }
                if c + 1 < side {
                    triplets.push((i, idx(r, c + 1), -1.0));
                    d += 1.0;
                }
                triplets.push((i, i, d));
            }
        }
        let a = CsrMatrix::from_triplets(n, n, &triplets);
        if let Ok(h) = AmgHierarchy::build(&a, &mut SolveWorkspace::new()) {
            let b = rhs(n);
            let mut z = vec![0.0; n];
            h.apply(&b, &mut z);
            assert!(z.iter().all(|v| v.is_finite()));
        }
    }

    /// The triplet assembly `prolongator` replaced: every term is emitted
    /// as a `(row, aggregate, value)` triplet and summed by
    /// [`CsrMatrix::from_triplets`].
    fn prolongator_via_triplets(
        a: &CsrMatrix,
        diag: &[f64],
        agg: &[usize],
        n_agg: usize,
    ) -> CsrMatrix {
        let theta2 = STRENGTH_THETA * STRENGTH_THETA;
        let mut t = Vec::new();
        for i in 0..a.rows() {
            t.push((i, agg[i], 1.0));
            let (cols, vals) = a.row(i);
            let mut lumped = diag[i];
            for (&j, &v) in cols.iter().zip(vals) {
                if j != i && !is_strong(diag, theta2, i, j, v) {
                    lumped += v;
                }
            }
            let d = if lumped.is_finite() && lumped > 0.0 {
                lumped
            } else {
                diag[i]
            };
            let inv_d = 1.0 / d;
            for (&j, &v) in cols.iter().zip(vals) {
                if j == i {
                    t.push((i, agg[i], -PROLONGATION_OMEGA * inv_d * d));
                } else if is_strong(diag, theta2, i, j, v) {
                    t.push((i, agg[j], -PROLONGATION_OMEGA * inv_d * v));
                }
            }
        }
        CsrMatrix::from_triplets(a.rows(), n_agg, &t)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]
        #[test]
        fn prolongator_matches_the_triplet_reference_bitwise(
            edges in proptest::prelude::prop::collection::vec(
                (0..60usize, 0..60usize, 0.01..5.0f64),
                20..300,
            ),
            hub in 0..2usize,
        ) {
            // A random weighted graph Laplacian with a grounding leak, so
            // rows mix strong and weak couplings; `hub` makes node 0 a
            // neighbour of every node, a row wider than the insertion sort.
            let n = 60;
            let mut t = Vec::new();
            let mut couple = |i: usize, j: usize, g: f64| {
                if i != j {
                    t.extend([(i, j, -g), (j, i, -g), (i, i, g), (j, j, g)]);
                }
            };
            for &(i, j, g) in &edges {
                couple(i, j, g);
            }
            if hub == 1 {
                for j in 1..n {
                    couple(0, j, 3.0);
                }
            }
            t.extend((0..n).map(|i| (i, i, 1e-3)));
            let a = CsrMatrix::from_triplets(n, n, &t);
            let mut diag = vec![0.0; n];
            diagonal_into(&a, &mut diag);
            let (mut agg, mut pass, mut growths) = (Vec::new(), Vec::new(), 0);
            let n_agg = aggregate_into(&a, &diag, &mut agg, &mut pass, &mut growths);
            let got = prolongator(&a, &diag, &agg, n_agg);
            let want = prolongator_via_triplets(&a, &diag, &agg, n_agg);
            let bits = |m: &CsrMatrix| {
                let (rp, ci, v) = m.raw_parts();
                (rp.to_vec(), ci.to_vec(), v.iter().map(|x| x.to_bits()).collect::<Vec<_>>())
            };
            proptest::prop_assert_eq!((got.rows(), got.cols()), (n, n_agg));
            proptest::prop_assert_eq!(bits(&got), bits(&want));
        }
    }

    #[test]
    fn apply_is_deterministic_across_repeats() {
        let a = grid_laplacian(32, 5.0);
        let h = AmgHierarchy::build(&a, &mut SolveWorkspace::new()).unwrap();
        let b = rhs(a.rows());
        let mut z1 = vec![0.0; a.rows()];
        let mut z2 = vec![0.0; a.rows()];
        h.apply(&b, &mut z1);
        h.apply(&b, &mut z2);
        assert!(z1.iter().zip(&z2).all(|(u, v)| u.to_bits() == v.to_bits()));
    }
}
