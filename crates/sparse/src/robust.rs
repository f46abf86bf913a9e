//! Resilient solve pipeline: a deterministic escalation ladder over the
//! iterative solvers, with a [`SolveReport`] recording every fallback.
//!
//! Degraded power grids (failed C4 pads, open TSVs — see `vstack-pdn`'s
//! fault injection) produce systems that are much harder than the pristine
//! SPD grid Laplacians the default solver configuration is tuned for:
//! IC(0) can hit a non-positive pivot, CG can break down or stagnate on a
//! near-singular operator. [`solve_robust`] climbs a fixed ladder instead
//! of giving up:
//!
//! -1. **CG + f32 AMG** (opt-in via [`RobustOptions::start_with_mixed`])
//!    — the mixed-precision hot path: an f64 outer CG (optionally driven
//!    through a matrix-free [`StencilOperator`]) preconditioned by a
//!    single-precision V-cycle ([`crate::amg::AmgHierarchyF32`]); any
//!    breakdown or stagnation of the refinement drops to the pure-f64
//!    rungs below with a [`FallbackStep`] on record;
//! 0. **CG + AMG** (opt-in via [`RobustOptions::start_with_amg`]) — an
//!    aggregation-based multigrid V-cycle whose iteration counts stay
//!    nearly flat as grids grow; degenerate coarsening
//!    ([`SolveError::CoarseningFailed`]) or any other numerical failure
//!    drops cleanly to the next rung;
//! 1. **CG + IC(0)** (on by default via [`RobustOptions::start_with_ic`])
//!    — strongest single-level preconditioner on healthy grids;
//! 2. **CG + Jacobi** — if the incomplete factorization fails (or IC-
//!    preconditioned CG errors), fall back to diagonal scaling;
//! 3. **BiCGSTAB + Jacobi** — if CG breaks down or stagnates; BiCGSTAB
//!    tolerates indefiniteness that kills CG (uses no preconditioner when
//!    the diagonal itself is singular);
//! 4. **CG + Jacobi on `A + λI`** — a last-resort Tikhonov (diagonal)
//!    shift with `λ = shift_scale · max|diag(A)|`; the reported residual
//!    is measured against the *original* system, never the shifted one.
//!
//! Every abandoned rung is recorded in [`SolveReport::fallbacks`] with the
//! error that caused the transition, so experiments can log exactly which
//! solves needed rescue. The ladder is fully deterministic: the same
//! system and options always take the same path.

use std::time::Instant;

use crate::amg::{AmgHierarchy, AmgHierarchyF32, AmgOptions};
use crate::cancel::CancelToken;
use crate::solver::{
    bicgstab_with_guess_ws, cg_with_amg_f32_ws, cg_with_amg_ws, cg_with_guess_ws, validate_finite,
    BiCgStabOptions, CgOptions, Preconditioner, SolveWorkspace, Solved,
};
use crate::stencil::{LinearOperator, StencilOperator};
use crate::{CsrMatrix, SolveError, TripletMatrix};

/// Solver method identifiers for [`SolveReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveMethod {
    /// Mixed-precision conjugate gradient: f64 outer iteration
    /// preconditioned by a single-precision AMG V-cycle
    /// ([`crate::amg::AmgHierarchyF32`]).
    CgAmgMixed,
    /// Conjugate gradient preconditioned by an aggregation-based algebraic
    /// multigrid V-cycle (see [`crate::amg`]).
    CgAmg,
    /// Conjugate gradient with zero-fill incomplete-Cholesky preconditioning.
    CgIncompleteCholesky,
    /// Conjugate gradient with Jacobi (diagonal) preconditioning.
    CgJacobi,
    /// BiCGSTAB with Jacobi preconditioning (or none if the diagonal is
    /// singular).
    BiCgStab,
    /// Conjugate gradient on the Tikhonov-shifted system `A + λI`.
    CgShifted,
    /// Sherman–Morrison–Woodbury rank-k update against a cached baseline
    /// factorization (see [`crate::smw`]) — no Krylov iteration at all.
    SmwSketch,
    /// Affine combination of two solutions of one matrix, for a
    /// right-hand side on the line through theirs, accepted on its
    /// measured residual — no Krylov iteration at all.
    Superposition,
}

impl core::fmt::Display for SolveMethod {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let name = match self {
            SolveMethod::CgAmgMixed => "cg+amgf32",
            SolveMethod::CgAmg => "cg+amg",
            SolveMethod::CgIncompleteCholesky => "cg+ic0",
            SolveMethod::CgJacobi => "cg+jacobi",
            SolveMethod::BiCgStab => "bicgstab",
            SolveMethod::CgShifted => "cg+shift",
            SolveMethod::SmwSketch => "smw-sketch",
            SolveMethod::Superposition => "superposition",
        };
        f.write_str(name)
    }
}

/// One abandoned rung of the escalation ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct FallbackStep {
    /// The method that was attempted and abandoned.
    pub from: SolveMethod,
    /// The error that forced the escalation.
    pub error: SolveError,
}

/// Diagnostics for a [`solve_robust`] call: which method finally produced
/// the answer, every fallback taken on the way, and the final quality.
///
/// Equality ([`PartialEq`]) compares only the deterministic outcome and
/// ignores the wall-clock fields ([`SolveReport::setup_us`],
/// [`SolveReport::solve_us`]), so study results embedding reports stay
/// comparable with `assert_eq!` across threads and re-runs.
#[derive(Debug, Clone)]
pub struct SolveReport {
    /// Method that produced the accepted solution.
    pub method: SolveMethod,
    /// Every abandoned attempt, in order.
    pub fallbacks: Vec<FallbackStep>,
    /// Iterations performed by the successful method.
    pub iterations: usize,
    /// Final relative residual `‖b − Ax‖ / ‖b‖` against the **original**
    /// system (even when the answer came from the shifted rung).
    pub relative_residual: f64,
    /// Diagonal (Tikhonov) shift applied, `0.0` unless the last rung ran.
    pub diagonal_shift: f64,
    /// Fine-grid operator the accepted rung iterated with: `"stencil"`
    /// when the matrix-free [`StencilOperator`] drove the SpMVs, `"csr"`
    /// otherwise (including every pure-f64 fallback rung).
    pub operator: &'static str,
    /// Arithmetic of the accepted rung's preconditioner: `"mixed"` for
    /// the f32 V-cycle refinement rung, `"f64"` everywhere else. The
    /// solution always meets the f64 tolerance either way.
    pub precision: &'static str,
    /// Wall-clock microseconds the accepted rung spent on preconditioner
    /// setup (AMG hierarchy build, IC(0) factorization, …); 0 when a
    /// cached hierarchy was reused. Excluded from equality.
    pub setup_us: u64,
    /// Wall-clock microseconds the accepted rung spent iterating.
    /// Excluded from equality.
    pub solve_us: u64,
}

impl PartialEq for SolveReport {
    fn eq(&self, other: &Self) -> bool {
        self.method == other.method
            && self.fallbacks == other.fallbacks
            && self.iterations == other.iterations
            && self.relative_residual == other.relative_residual
            && self.diagonal_shift == other.diagonal_shift
            && self.operator == other.operator
            && self.precision == other.precision
    }
}

impl SolveReport {
    /// True when the first-choice method did not produce the answer.
    pub fn was_rescued(&self) -> bool {
        !self.fallbacks.is_empty()
    }

    /// Compact single-line rendering for experiment logs, e.g.
    /// `cg+ic0->cg+jacobi->bicgstab (14 iters, res 3.2e-11)`.
    pub fn trail(&self) -> String {
        let mut s = String::new();
        for step in &self.fallbacks {
            s.push_str(&step.from.to_string());
            s.push_str("->");
        }
        s.push_str(&self.method.to_string());
        s.push_str(&format!(
            " ({} iters, res {:.1e})",
            self.iterations, self.relative_residual
        ));
        s
    }
}

/// Result of a successful [`solve_robust`]: the solution plus its report.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustSolved {
    /// The solution vector.
    pub x: Vec<f64>,
    /// How it was obtained.
    pub report: SolveReport,
}

/// Options controlling [`solve_robust`].
#[derive(Debug, Clone, PartialEq)]
pub struct RobustOptions {
    /// Relative residual tolerance `‖r‖/‖b‖` at which a rung succeeds.
    pub tolerance: f64,
    /// Iteration budget per rung.
    pub max_iterations: usize,
    /// Stagnation window handed to the CG rungs (see
    /// [`CgOptions::stagnation_window`]); `0` disables early stagnation
    /// escalation.
    pub stagnation_window: usize,
    /// Relative Tikhonov shift for the last rung:
    /// `λ = shift_scale · max|diag(A)|`. `0.0` disables the rung.
    pub shift_scale: f64,
    /// Acceptance slack for the shifted rung: its solution is accepted if
    /// the residual against the original system is within
    /// `shift_acceptance × tolerance`.
    pub shift_acceptance: f64,
    /// Whether the ladder starts at IC(0) (rung 1). Disable for systems
    /// known to defeat incomplete factorization, saving the failed attempt.
    pub start_with_ic: bool,
    /// Whether the ladder tries CG + AMG before everything else (rung 0).
    /// Off by default: AMG setup only pays for itself on large systems or
    /// when the hierarchy is cached across re-solves, so callers (e.g.
    /// `vstack-pdn` above its node-count threshold) opt in explicitly.
    pub start_with_amg: bool,
    /// Whether the ladder tries the mixed-precision rung (f64 outer CG +
    /// f32 AMG V-cycle) before everything else. Off by default for the
    /// same reason as [`RobustOptions::start_with_amg`]: the hierarchy
    /// build and f32 conversion only pay for themselves on large systems
    /// or with caching. When the refinement breaks down or stagnates the
    /// ladder falls back to the pure-f64 rungs below, so enabling this is
    /// never a correctness risk.
    pub start_with_mixed: bool,
    /// Build options for the AMG rung's hierarchy.
    pub amg: AmgOptions,
    /// Cooperative cancellation handle, polled between ladder rungs. The
    /// default ([`CancelToken::never`]) can never fire. A fired token
    /// aborts the ladder with [`SolveError::Cancelled`] before the next
    /// rung starts; a rung already running completes normally. Tokens
    /// compare equal, so options equality is unaffected.
    pub cancel: CancelToken,
}

impl Default for RobustOptions {
    fn default() -> Self {
        RobustOptions {
            tolerance: 1e-10,
            max_iterations: 20_000,
            stagnation_window: 250,
            shift_scale: 1e-8,
            shift_acceptance: 100.0,
            start_with_ic: true,
            start_with_amg: false,
            start_with_mixed: false,
            amg: AmgOptions::default(),
            cancel: CancelToken::never(),
        }
    }
}

fn cg_options(o: &RobustOptions, pre: Preconditioner) -> CgOptions {
    CgOptions {
        tolerance: o.tolerance,
        max_iterations: o.max_iterations,
        preconditioner: pre,
        stagnation_window: o.stagnation_window,
    }
}

/// Is this error worth escalating past, or a structural caller bug that
/// every rung would reproduce identically?
fn is_structural(e: &SolveError) -> bool {
    matches!(
        e,
        SolveError::DimensionMismatch { .. }
            | SolveError::NotSquare { .. }
            | SolveError::NonFinite { .. }
            | SolveError::Cancelled
    )
}

/// Polls the cooperative cancellation token at a rung boundary.
fn check_cancelled(cancel: &CancelToken) -> Result<(), SolveError> {
    if cancel.is_cancelled() {
        vstack_obs::metrics::global().ladder_cancelled.inc();
        Err(SolveError::Cancelled)
    } else {
        Ok(())
    }
}

/// Records an abandoned rung: bumps the escalation counter exactly once
/// per recorded fallback step, keeping the two in lock-step for tests.
fn note_fallback(fallbacks: &mut Vec<FallbackStep>, from: SolveMethod, error: SolveError) {
    vstack_obs::metrics::global().ladder_escalations.inc();
    fallbacks.push(FallbackStep { from, error });
}

fn shifted_matrix(a: &CsrMatrix, lambda: f64) -> CsrMatrix {
    let mut t = TripletMatrix::new(a.rows(), a.cols());
    for (r, c, v) in a.iter() {
        t.push(r, c, v);
    }
    for i in 0..a.rows() {
        t.push(i, i, lambda);
    }
    t.to_csr()
}

/// Solves `A x = b` through the deterministic escalation ladder described
/// in the [module docs](self), reporting every fallback taken.
///
/// # Errors
///
/// * [`SolveError::NonFinite`] / shape errors immediately — these are
///   caller bugs no fallback can fix.
/// * Otherwise, the error of the **last** rung attempted, with all earlier
///   failures necessarily having occurred first (the ladder never skips
///   downward).
///
/// # Example
///
/// ```
/// use vstack_sparse::robust::{solve_robust, RobustOptions};
/// use vstack_sparse::CsrMatrix;
///
/// # fn main() -> Result<(), vstack_sparse::SolveError> {
/// let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 4.0), (1, 1, 9.0)]);
/// let sol = solve_robust(&a, &[8.0, 27.0], None, &RobustOptions::default())?;
/// assert!((sol.x[0] - 2.0).abs() < 1e-9);
/// assert!(!sol.report.was_rescued());
/// # Ok(())
/// # }
/// ```
pub fn solve_robust(
    a: &CsrMatrix,
    b: &[f64],
    guess: Option<&[f64]>,
    options: &RobustOptions,
) -> Result<RobustSolved, SolveError> {
    solve_robust_ws(a, b, guess, options, &mut SolveWorkspace::new())
}

/// Like [`solve_robust`], but every rung of the ladder borrows its work
/// vectors from `ws` instead of allocating them — the entry point for
/// loops that solve many related systems (fault sweeps, wearout rounds).
/// Results are bit-identical to [`solve_robust`].
///
/// # Errors
///
/// Same as [`solve_robust`].
pub fn solve_robust_ws(
    a: &CsrMatrix,
    b: &[f64],
    guess: Option<&[f64]>,
    options: &RobustOptions,
    ws: &mut SolveWorkspace,
) -> Result<RobustSolved, SolveError> {
    solve_robust_cached_ws(a, b, guess, options, ws, &mut None)
}

/// Like [`solve_robust_ws`], but the AMG rung's hierarchy lives in a
/// caller-owned cache slot. When [`RobustOptions::start_with_amg`] is set
/// and the slot is empty, the rung builds the hierarchy and *leaves it in
/// the slot*; subsequent calls reuse it and report
/// [`SolveReport::setup_us`] of 0. `vstack-pdn` holds the slot in its
/// `SolveScratch`, clearing it whenever the sparsity pattern changes, so
/// fault/sweep/warm-start re-solves pay AMG setup once per pattern.
///
/// The cached hierarchy is *frozen*: re-solves after value-only re-stamps
/// keep using it (CG converges against the current matrix under any fixed
/// SPD preconditioner; only iteration counts drift as values do).
///
/// # Errors
///
/// Same as [`solve_robust`].
pub fn solve_robust_cached_ws(
    a: &CsrMatrix,
    b: &[f64],
    guess: Option<&[f64]>,
    options: &RobustOptions,
    ws: &mut SolveWorkspace,
    amg_cache: &mut Option<AmgHierarchy>,
) -> Result<RobustSolved, SolveError> {
    solve_robust_operator_ws(a, None, b, guess, options, ws, amg_cache, &mut None)
}

/// Builds the f64 hierarchy into the cache slot if absent, returning the
/// build time in microseconds (0 on a cache hit). A failed build is
/// remembered in `prior_err` so a later rung sharing the slot reports the
/// same error without paying for a second doomed build.
fn ensure_hierarchy(
    a: &CsrMatrix,
    options: &RobustOptions,
    ws: &mut SolveWorkspace,
    amg_cache: &mut Option<AmgHierarchy>,
    prior_err: &mut Option<SolveError>,
) -> Result<u64, SolveError> {
    if amg_cache.is_some() {
        return Ok(0);
    }
    if let Some(e) = prior_err.clone() {
        return Err(e);
    }
    let timer = Instant::now();
    match AmgHierarchy::build_ws(a, &options.amg, ws) {
        Ok(h) => {
            let us = timer.elapsed().as_micros() as u64;
            *amg_cache = Some(h);
            Ok(us)
        }
        Err(e) => {
            *prior_err = Some(e.clone());
            Err(e)
        }
    }
}

/// Adds a hierarchy build to a solve that the CG entry point has already
/// published with its own (zero) setup time, publishing the build time
/// to the global `solver_setup_us` counter as it joins the report.
fn join_setup(solved: &mut Solved, build_us: u64) {
    solved.setup_us += build_us;
    vstack_obs::metrics::global().solver_setup_us.add(build_us);
}

/// The full ladder: [`solve_robust_cached_ws`] plus two opt-in hot-path
/// ingredients.
///
/// * `stencil` — a matrix-free [`StencilOperator`] extracted from `a`.
///   When present, the mixed-precision rung drives its outer CG SpMVs
///   through it instead of the CSR (bit-identical by the stencil's
///   extraction contract, just faster); every pure-f64 fallback rung
///   deliberately stays on the CSR so a stencil-side surprise can never
///   take down the whole ladder. The accepted rung's choice is recorded
///   in [`SolveReport::operator`].
/// * `amg_f32_cache` — a caller-owned slot for the f32 mirror of the
///   cached f64 hierarchy, filled on first use by the mixed rung (see
///   [`RobustOptions::start_with_mixed`]) and cleared by the caller
///   whenever the f64 slot is. [`SolveReport::precision`] records whether
///   the accepted rung used it.
///
/// `vstack-pdn` routes every scenario solve through here with both caches
/// held in its `SolveScratch`.
///
/// # Errors
///
/// Same as [`solve_robust`].
#[allow(clippy::too_many_arguments)]
pub fn solve_robust_operator_ws(
    a: &CsrMatrix,
    stencil: Option<&StencilOperator>,
    b: &[f64],
    guess: Option<&[f64]>,
    options: &RobustOptions,
    ws: &mut SolveWorkspace,
    amg_cache: &mut Option<AmgHierarchy>,
    amg_f32_cache: &mut Option<AmgHierarchyF32>,
) -> Result<RobustSolved, SolveError> {
    if a.cols() != a.rows() {
        return Err(SolveError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    if b.len() != a.rows() {
        return Err(SolveError::DimensionMismatch {
            expected: a.rows(),
            found: b.len(),
        });
    }
    validate_finite(a, b, guess)?;

    let _span = vstack_obs::span!("solve_robust");
    vstack_obs::metrics::global().ladder_solves.inc();
    check_cancelled(&options.cancel)?;
    let mut fallbacks = Vec::new();

    let accept = |method: SolveMethod,
                  operator: &'static str,
                  precision: &'static str,
                  solved: Solved,
                  fallbacks: &mut Vec<FallbackStep>| {
        if !fallbacks.is_empty() {
            vstack_obs::metrics::global().ladder_rescued.inc();
        }
        RobustSolved {
            x: solved.x,
            report: SolveReport {
                method,
                fallbacks: core::mem::take(fallbacks),
                iterations: solved.iterations,
                relative_residual: solved.relative_residual,
                diagonal_shift: 0.0,
                operator,
                precision,
                setup_us: solved.setup_us,
                solve_us: solved.solve_us,
            },
        }
    };

    // A failed f64 hierarchy build is shared between the mixed and the
    // pure-f64 AMG rungs; each still records its own fallback step.
    let mut amg_build_err: Option<SolveError> = None;

    // Rung −1: mixed-precision CG + f32 AMG (opt-in). The f64 hierarchy
    // is built (or reused) from the shared cache slot, mirrored into f32
    // once per pattern, and the outer CG runs through the stencil
    // operator when one was provided.
    if options.start_with_mixed {
        match ensure_hierarchy(a, options, ws, amg_cache, &mut amg_build_err) {
            Err(e) if is_structural(&e) => return Err(e),
            Err(e) => note_fallback(&mut fallbacks, SolveMethod::CgAmgMixed, e),
            Ok(mut build_us) => {
                if amg_f32_cache.is_none() {
                    let timer = Instant::now();
                    let h = amg_cache.as_ref().expect("hierarchy just ensured");
                    *amg_f32_cache = Some(AmgHierarchyF32::from_hierarchy(h));
                    build_us += timer.elapsed().as_micros() as u64;
                }
                let h32 = amg_f32_cache.as_ref().expect("f32 mirror just ensured");
                let op: &dyn LinearOperator = match stencil {
                    Some(s) => s,
                    None => a,
                };
                match cg_with_amg_f32_ws(
                    op,
                    b,
                    guess,
                    &cg_options(options, Preconditioner::Amg),
                    h32,
                    ws,
                ) {
                    Ok(mut solved) => {
                        join_setup(&mut solved, build_us);
                        let operator = if stencil.is_some() { "stencil" } else { "csr" };
                        return Ok(accept(
                            SolveMethod::CgAmgMixed,
                            operator,
                            "mixed",
                            solved,
                            &mut fallbacks,
                        ));
                    }
                    Err(e) if is_structural(&e) => return Err(e),
                    Err(e) => note_fallback(&mut fallbacks, SolveMethod::CgAmgMixed, e),
                }
            }
        }
    }

    // Rung 0: CG + AMG (opt-in). Build into the caller's cache slot when
    // empty; any numerical failure — degenerate coarsening included —
    // drops to the single-level rungs below. Deliberately pure f64 and
    // pure CSR: this is the fallback target when the mixed rung above
    // stagnates or breaks down.
    if options.start_with_amg {
        check_cancelled(&options.cancel)?;
        match ensure_hierarchy(a, options, ws, amg_cache, &mut amg_build_err) {
            Err(e) if is_structural(&e) => return Err(e),
            Err(e) => note_fallback(&mut fallbacks, SolveMethod::CgAmg, e),
            Ok(build_us) => {
                let h = amg_cache.as_ref().expect("hierarchy just ensured");
                match cg_with_amg_ws(
                    a,
                    b,
                    guess,
                    &cg_options(options, Preconditioner::Amg),
                    h,
                    ws,
                ) {
                    Ok(mut solved) => {
                        join_setup(&mut solved, build_us);
                        return Ok(accept(
                            SolveMethod::CgAmg,
                            "csr",
                            "f64",
                            solved,
                            &mut fallbacks,
                        ));
                    }
                    Err(e) if is_structural(&e) => return Err(e),
                    Err(e) => note_fallback(&mut fallbacks, SolveMethod::CgAmg, e),
                }
            }
        }
    }

    // Rung 1: CG + IC(0).
    check_cancelled(&options.cancel)?;
    if options.start_with_ic {
        match cg_with_guess_ws(
            a,
            b,
            guess,
            &cg_options(options, Preconditioner::IncompleteCholesky),
            ws,
        ) {
            Ok(solved) => {
                return Ok(accept(
                    SolveMethod::CgIncompleteCholesky,
                    "csr",
                    "f64",
                    solved,
                    &mut fallbacks,
                ))
            }
            Err(e) if is_structural(&e) => return Err(e),
            Err(e) => note_fallback(&mut fallbacks, SolveMethod::CgIncompleteCholesky, e),
        }
    }

    // Rung 2: CG + Jacobi.
    check_cancelled(&options.cancel)?;
    match cg_with_guess_ws(
        a,
        b,
        guess,
        &cg_options(options, Preconditioner::Jacobi),
        ws,
    ) {
        Ok(solved) => {
            return Ok(accept(
                SolveMethod::CgJacobi,
                "csr",
                "f64",
                solved,
                &mut fallbacks,
            ))
        }
        Err(e) if is_structural(&e) => return Err(e),
        Err(e) => note_fallback(&mut fallbacks, SolveMethod::CgJacobi, e),
    }

    // Rung 3: BiCGSTAB. Use Jacobi unless the diagonal itself is singular
    // (the very error rung 2 may have just hit), in which case run
    // unpreconditioned.
    check_cancelled(&options.cancel)?;
    let bicg_pre = if fallbacks
        .iter()
        .any(|f| matches!(f.error, SolveError::SingularDiagonal { .. }))
    {
        Preconditioner::None
    } else {
        Preconditioner::Jacobi
    };
    let bicg_opts = BiCgStabOptions {
        tolerance: options.tolerance,
        max_iterations: options.max_iterations,
        preconditioner: bicg_pre,
    };
    match bicgstab_with_guess_ws(a, b, guess, &bicg_opts, ws) {
        Ok(solved) => {
            return Ok(accept(
                SolveMethod::BiCgStab,
                "csr",
                "f64",
                solved,
                &mut fallbacks,
            ))
        }
        Err(e) if is_structural(&e) => return Err(e),
        Err(e) => note_fallback(&mut fallbacks, SolveMethod::BiCgStab, e),
    }

    // Rung 4: Tikhonov-shifted CG. The shift regularizes a near-singular
    // operator; the answer is only accepted if it actually satisfies the
    // *original* system to within the acceptance slack.
    check_cancelled(&options.cancel)?;
    let max_diag = a
        .diagonal()
        .into_iter()
        .fold(0.0f64, |acc, d| acc.max(d.abs()));
    let lambda = options.shift_scale * max_diag;
    if lambda > 0.0 {
        let shifted = shifted_matrix(a, lambda);
        match cg_with_guess_ws(
            &shifted,
            b,
            guess,
            &cg_options(options, Preconditioner::Jacobi),
            ws,
        ) {
            Ok(solved) => {
                let b_norm = crate::vecops::norm2(b);
                let true_res = a.residual_norm(&solved.x, b) / b_norm.max(f64::MIN_POSITIVE);
                if true_res <= options.shift_acceptance * options.tolerance {
                    vstack_obs::metrics::global().ladder_rescued.inc();
                    return Ok(RobustSolved {
                        x: solved.x,
                        report: SolveReport {
                            method: SolveMethod::CgShifted,
                            fallbacks,
                            iterations: solved.iterations,
                            relative_residual: true_res,
                            diagonal_shift: lambda,
                            operator: "csr",
                            precision: "f64",
                            setup_us: solved.setup_us,
                            solve_us: solved.solve_us,
                        },
                    });
                }
                return Err(SolveError::NotConverged {
                    iterations: solved.iterations,
                    residual: true_res,
                });
            }
            Err(e) if is_structural(&e) => return Err(e),
            Err(e) => return Err(e),
        }
    }

    // Ladder exhausted; surface the most recent failure.
    Err(fallbacks
        .pop()
        .map(|f| f.error)
        .unwrap_or(SolveError::Breakdown { iterations: 0 }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TripletMatrix;

    fn laplacian_1d(n: usize) -> CsrMatrix {
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            t.push(i, i, 2.0);
            if i + 1 < n {
                t.push(i, i + 1, -1.0);
                t.push(i + 1, i, -1.0);
            }
        }
        t.to_csr()
    }

    /// Kershaw's classic 4×4 SPD matrix on which zero-fill incomplete
    /// Cholesky breaks down with a negative pivot.
    fn kershaw() -> CsrMatrix {
        let vals = [
            [3.0, -2.0, 0.0, 2.0],
            [-2.0, 3.0, -2.0, 0.0],
            [0.0, -2.0, 3.0, -2.0],
            [2.0, 0.0, -2.0, 3.0],
        ];
        let mut t = TripletMatrix::new(4, 4);
        for (r, row) in vals.iter().enumerate() {
            for (c, &v) in row.iter().enumerate() {
                if v != 0.0 {
                    t.push(r, c, v);
                }
            }
        }
        t.to_csr()
    }

    #[test]
    fn healthy_system_takes_first_rung() {
        let a = laplacian_1d(50);
        let b = vec![1.0; 50];
        let sol = solve_robust(&a, &b, None, &RobustOptions::default()).expect("solves");
        assert_eq!(sol.report.method, SolveMethod::CgIncompleteCholesky);
        assert!(!sol.report.was_rescued());
        assert!(a.residual_norm(&sol.x, &b) < 1e-8);
    }

    #[test]
    fn kershaw_defeats_ic0_but_is_rescued() {
        let a = kershaw();
        let x_true = [1.0, 2.0, -1.0, 0.5];
        let b = a.mul_vec(&x_true);
        let sol = solve_robust(&a, &b, None, &RobustOptions::default()).expect("rescued");
        assert!(sol.report.was_rescued(), "trail: {}", sol.report.trail());
        assert_eq!(
            sol.report.fallbacks[0].from,
            SolveMethod::CgIncompleteCholesky
        );
        for (u, v) in sol.x.iter().zip(&x_true) {
            assert!((u - v).abs() < 1e-6);
        }
    }

    #[test]
    fn warm_start_is_honored() {
        let a = laplacian_1d(200);
        let b = vec![1.0; 200];
        let opts = RobustOptions::default();
        let cold = solve_robust(&a, &b, None, &opts).expect("cold");
        let warm = solve_robust(&a, &b, Some(&cold.x), &opts).expect("warm");
        assert!(warm.report.iterations <= 1);
    }

    #[test]
    fn non_finite_inputs_fail_fast() {
        let a = laplacian_1d(4);
        let err = solve_robust(
            &a,
            &[1.0, f64::NAN, 0.0, 0.0],
            None,
            &RobustOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            SolveError::NonFinite {
                what: "rhs",
                index: 1
            }
        ));
        let err = solve_robust(
            &a,
            &[1.0; 4],
            Some(&[0.0, 0.0, f64::INFINITY, 0.0]),
            &RobustOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, SolveError::NonFinite { what: "guess", .. }));
    }

    #[test]
    fn zero_diagonal_escalates_to_unpreconditioned_bicgstab() {
        // Symmetric indefinite with a zero diagonal entry: IC(0) and Jacobi
        // are both impossible, but the system is well-posed.
        let a = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0), (1, 0, 1.0), (1, 1, 1.0)]);
        let b = [2.0, 5.0];
        let sol = solve_robust(&a, &b, None, &RobustOptions::default()).expect("rescued");
        assert!(sol.report.was_rescued());
        assert!(sol
            .report
            .fallbacks
            .iter()
            .any(|f| matches!(f.error, SolveError::SingularDiagonal { .. })));
        // x = (b1 - b0, b0) for this matrix.
        assert!((sol.x[0] - 3.0).abs() < 1e-8, "x = {:?}", sol.x);
        assert!((sol.x[1] - 2.0).abs() < 1e-8);
    }

    #[test]
    fn singular_system_reports_failure_not_panic() {
        // Exactly singular: two identical rows, inconsistent rhs.
        let a =
            CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 1.0)]);
        let err = solve_robust(&a, &[1.0, 2.0], None, &RobustOptions::default()).unwrap_err();
        assert!(!is_structural(&err), "numerical failure expected: {err}");
    }

    #[test]
    fn amg_rung_takes_priority_and_caches_the_hierarchy() {
        let a = laplacian_1d(600);
        let b = vec![1.0; 600];
        let opts = RobustOptions {
            start_with_amg: true,
            ..RobustOptions::default()
        };
        let mut cache = None;
        let cold =
            solve_robust_cached_ws(&a, &b, None, &opts, &mut SolveWorkspace::new(), &mut cache)
                .expect("amg rung solves");
        assert_eq!(cold.report.method, SolveMethod::CgAmg);
        assert!(!cold.report.was_rescued(), "trail: {}", cold.report.trail());
        assert!(a.residual_norm(&cold.x, &b) < 1e-7);
        assert!(cache.is_some(), "hierarchy must be left in the cache slot");
        let warm =
            solve_robust_cached_ws(&a, &b, None, &opts, &mut SolveWorkspace::new(), &mut cache)
                .expect("cached re-solve");
        assert_eq!(warm.report.setup_us, 0, "cached hierarchy skips setup");
        assert_eq!(cold, warm, "cached re-solve must be bit-identical");
    }

    #[test]
    fn degenerate_coarsening_falls_through_to_ic0() {
        // Diagonal matrix above the AMG direct-solve size: every node
        // aggregates into a singleton, coarsening stalls, and the ladder
        // must carry on to IC(0) with the failure on record.
        let n = 300;
        let triplets: Vec<_> = (0..n).map(|i| (i, i, 2.0)).collect();
        let a = CsrMatrix::from_triplets(n, n, &triplets);
        let b = vec![1.0; n];
        let opts = RobustOptions {
            start_with_amg: true,
            ..RobustOptions::default()
        };
        let mut cache = None;
        let sol =
            solve_robust_cached_ws(&a, &b, None, &opts, &mut SolveWorkspace::new(), &mut cache)
                .expect("rescued by ic0");
        assert_eq!(sol.report.method, SolveMethod::CgIncompleteCholesky);
        assert!(
            cache.is_none(),
            "no hierarchy to cache after a failed build"
        );
        assert!(
            matches!(
                sol.report.fallbacks.first(),
                Some(FallbackStep {
                    from: SolveMethod::CgAmg,
                    error: SolveError::CoarseningFailed { .. },
                })
            ),
            "trail: {}",
            sol.report.trail()
        );
        assert!(sol.report.trail().starts_with("cg+amg->cg+ic0"));
    }

    #[test]
    fn trail_renders_methods_in_order() {
        let a = kershaw();
        let b = a.mul_vec(&[1.0, 1.0, 1.0, 1.0]);
        let sol = solve_robust(&a, &b, None, &RobustOptions::default()).expect("rescued");
        let trail = sol.report.trail();
        assert!(trail.starts_with("cg+ic0->"), "trail: {trail}");
    }
}
