//! The one solve entry point, [`solve_robust`]: a deterministic escalation
//! ladder over the Krylov cores, with a [`SolveReport`] recording every
//! fallback.
//!
//! Degraded power grids (failed C4 pads, open TSVs — see `vstack-pdn`'s
//! fault injection) produce systems that are much harder than the pristine
//! SPD grid Laplacians the lead rungs are tuned for: multigrid coarsening
//! can degenerate, CG can break down or stagnate on a near-singular
//! operator. [`solve_robust`] climbs a fixed ladder instead of giving up,
//! starting at the rung [`RobustOptions::lead`] names:
//!
//! 1. **CG + f32 AMG** ([`Lead::MixedAmg`]) — the mixed-precision hot
//!    path: an f64 outer CG over the CSR, preconditioned by a
//!    single-precision V-cycle ([`crate::amg::AmgHierarchyF32`]);
//! 2. **CG + AMG** ([`Lead::Amg`]) — an f64 aggregation-based multigrid
//!    V-cycle over the CSR, whose iteration counts stay nearly flat as
//!    grids grow; degenerate coarsening ([`SolveError::CoarseningFailed`])
//!    or any other numerical failure drops to the next rung;
//! 3. **CG + Jacobi** ([`Lead::Jacobi`]) — diagonal scaling, no setup;
//! 4. **BiCGSTAB + Jacobi** — if CG breaks down or stagnates; BiCGSTAB
//!    tolerates indefiniteness that kills CG (uses no preconditioner when
//!    the diagonal itself is singular);
//! 5. **CG + Jacobi on `A + λI`** — a last-resort Tikhonov (diagonal)
//!    shift with `λ = 10⁻⁸ · max|diag(A)|`; the answer is accepted only if
//!    its residual against the *original* system is within 100× the
//!    tolerance, and that is the residual reported.
//!
//! Both AMG rungs share the f64 hierarchy cached in the caller's
//! [`SolveWorkspace`]. Every abandoned rung is recorded in
//! [`SolveReport::fallbacks`] with the error that caused the transition,
//! so experiments can log exactly which solves needed rescue. The ladder
//! is fully deterministic: the same system, options and state always take
//! the same path.

use std::time::Instant;

use crate::amg::{AmgHierarchy, AmgHierarchyF32, AmgOptions};
use crate::cancel::CancelToken;
use crate::solver::{bicgstab, cg, Precond, SolveWorkspace, Solved, MAX_ITERATIONS};
use crate::vecops::norm2;
use crate::{CsrMatrix, SolveError, TripletMatrix};

/// The Krylov rungs above the shifted one, in ladder order; a solve
/// starts at the one its [`Lead`] names.
const RUNGS: [SolveMethod; 4] = [
    SolveMethod::CgAmgMixed,
    SolveMethod::CgAmg,
    SolveMethod::CgJacobi,
    SolveMethod::BiCgStab,
];

/// Relative Tikhonov shift of the last rung: `λ = SHIFT_SCALE · max|diag(A)|`.
const SHIFT_SCALE: f64 = 1e-8;

/// The shifted rung's answer is accepted when its residual against the
/// original system is within `SHIFT_ACCEPTANCE × tolerance`.
const SHIFT_ACCEPTANCE: f64 = 100.0;

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
    /// Fine-grid operator the accepted rung iterated with: `"csr"` for
    /// every ladder rung, `"superposition"` for a superposed sweep point
    /// that ran no rung at all.
    pub operator: &'static str,
    /// Arithmetic of the accepted rung's preconditioner: `"mixed"` for
    /// the f32 V-cycle refinement rung, `"f64"` everywhere else. The
    /// solution always meets the f64 tolerance either way.
    pub precision: &'static str,
    /// Wall-clock microseconds the accepted rung spent on preconditioner
    /// setup (AMG hierarchy build, Jacobi inverse diagonal); 0 when a
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
    /// `cg+amg->cg+jacobi->bicgstab (14 iters, res 3.2e-11)`.
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

/// The ladder's first rung (see the [module docs](self)). Every rung below
/// it runs on failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Lead {
    /// CG + Jacobi: no setup, the right start for small systems.
    #[default]
    Jacobi,
    /// CG + f64 AMG over the CSR. The hierarchy build pays for itself on
    /// large systems, or when the [`SolveWorkspace`] caches it across
    /// re-solves.
    Amg,
    /// CG + f32 AMG, then CG + f64 AMG. When the refinement breaks down
    /// or stagnates the ladder falls back to the pure-f64 rungs, so
    /// leading with it is never a correctness risk.
    MixedAmg,
}

/// Options controlling [`solve_robust`].
#[derive(Debug, Clone, PartialEq)]
pub struct RobustOptions {
    /// Relative residual tolerance `‖r‖/‖b‖` at which a rung succeeds.
    pub tolerance: f64,
    /// The first rung to try.
    pub lead: Lead,
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
            lead: Lead::Jacobi,
            cancel: CancelToken::never(),
        }
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

/// Rejects shape mismatches and NaN/Inf in the matrix, right-hand side
/// and warm-start guess, so malformed systems fail fast instead of
/// iterating to a confusing breakdown.
fn validate(a: &CsrMatrix, b: &[f64], guess: Option<&[f64]>) -> Result<(), SolveError> {
    let n = a.rows();
    if a.cols() != n {
        return Err(SolveError::NotSquare {
            rows: n,
            cols: a.cols(),
        });
    }
    let mut lengths = [b.len()].into_iter().chain(guess.map(<[f64]>::len));
    if let Some(found) = lengths.find(|&len| len != n) {
        return Err(SolveError::DimensionMismatch { expected: n, found });
    }
    if let Some((index, _, _)) = a.iter().find(|(_, _, v)| !v.is_finite()) {
        return Err(SolveError::NonFinite {
            what: "matrix",
            index,
        });
    }
    for (what, v) in [("rhs", Some(b)), ("guess", guess)] {
        if let Some(index) = v.and_then(|v| v.iter().position(|x| !x.is_finite())) {
            return Err(SolveError::NonFinite { what, index });
        }
    }
    Ok(())
}

/// Builds the f64 hierarchy into the workspace slot if absent (or built
/// for another dimension), returning the build time in microseconds (0
/// on a cache hit). A failed build is remembered in `prior_err` so the
/// second AMG rung reports the same error without paying for a second
/// doomed build.
fn ensure_hierarchy(
    a: &CsrMatrix,
    state: &mut SolveWorkspace,
    prior_err: &mut Option<SolveError>,
) -> Result<u64, SolveError> {
    if state.amg.as_ref().is_some_and(|h| h.dim() != a.rows()) {
        state.clear_hierarchies();
    }
    if state.amg.is_some() {
        return Ok(0);
    }
    if let Some(e) = prior_err.clone() {
        return Err(e);
    }
    let timer = Instant::now();
    match AmgHierarchy::build_scratch(a, &AmgOptions::default(), &mut state.setup) {
        Ok(h) => {
            state.amg = Some(h);
            Ok(timer.elapsed().as_micros() as u64)
        }
        Err(e) => {
            *prior_err = Some(e.clone());
            Err(e)
        }
    }
}

/// CG + Jacobi on `a`, charging the inverse-diagonal setup to the solve.
fn jacobi_cg(
    a: &CsrMatrix,
    b: &[f64],
    guess: Option<&[f64]>,
    tolerance: f64,
    state: &mut SolveWorkspace,
) -> Result<Solved, SolveError> {
    let timer = Instant::now();
    let pre = {
        let _span = vstack_obs::span!("cg_setup");
        Precond::jacobi(a)?
    };
    let setup_us = timer.elapsed().as_micros() as u64;
    let mut solved = cg(
        a,
        b,
        guess,
        &pre,
        tolerance,
        MAX_ITERATIONS,
        &mut state.krylov,
    )?;
    solved.add_setup(setup_us);
    Ok(solved)
}

/// Runs one of the [`RUNGS`].
#[allow(clippy::too_many_arguments)]
fn run_rung(
    method: SolveMethod,
    a: &CsrMatrix,
    b: &[f64],
    guess: Option<&[f64]>,
    tolerance: f64,
    state: &mut SolveWorkspace,
    amg_err: &mut Option<SolveError>,
    fallbacks: &[FallbackStep],
) -> Result<Solved, SolveError> {
    let (pre, build_us) = match method {
        SolveMethod::CgAmgMixed => {
            // The f64 hierarchy is built (or reused) and mirrored into f32
            // once per cached hierarchy.
            let mut build_us = ensure_hierarchy(a, state, amg_err)?;
            if state.amg_f32.is_none() {
                let timer = Instant::now();
                let h = state.amg.as_ref().expect("hierarchy just ensured");
                state.amg_f32 = Some(AmgHierarchyF32::from_hierarchy(h));
                build_us += timer.elapsed().as_micros() as u64;
            }
            let h = state.amg_f32.as_ref().expect("f32 mirror just ensured");
            (Precond::AmgF32(h), build_us)
        }
        // Deliberately pure f64: the fallback target when the mixed rung
        // stagnates or breaks down.
        SolveMethod::CgAmg => {
            let build_us = ensure_hierarchy(a, state, amg_err)?;
            let h = state.amg.as_ref().expect("hierarchy just ensured");
            (Precond::Amg(h), build_us)
        }
        SolveMethod::CgJacobi => return jacobi_cg(a, b, guess, tolerance, state),
        SolveMethod::BiCgStab => {
            // Jacobi unless the diagonal itself is singular (the very
            // error the CG rung may have just hit): then unpreconditioned.
            let timer = Instant::now();
            let pre = if fallbacks
                .iter()
                .any(|f| matches!(f.error, SolveError::SingularDiagonal { .. }))
            {
                Precond::None
            } else {
                Precond::jacobi(a)?
            };
            let setup_us = timer.elapsed().as_micros() as u64;
            let mut solved = bicgstab(
                a,
                b,
                guess,
                &pre,
                tolerance,
                MAX_ITERATIONS,
                &mut state.krylov,
            )?;
            solved.add_setup(setup_us);
            return Ok(solved);
        }
        other => unreachable!("{other} is not a Krylov ladder rung"),
    };
    let mut solved = cg(
        a,
        b,
        guess,
        &pre,
        tolerance,
        MAX_ITERATIONS,
        &mut state.krylov,
    )?;
    solved.add_setup(build_us);
    Ok(solved)
}

/// Wraps an accepted rung's solve in its report, counting a rescue.
fn accept(method: SolveMethod, solved: Solved, fallbacks: Vec<FallbackStep>) -> RobustSolved {
    if !fallbacks.is_empty() {
        vstack_obs::metrics::global().ladder_rescued.inc();
    }
    let precision = if method == SolveMethod::CgAmgMixed {
        "mixed"
    } else {
        "f64"
    };
    RobustSolved {
        x: solved.x,
        report: SolveReport {
            method,
            fallbacks,
            iterations: solved.iterations,
            relative_residual: solved.relative_residual,
            diagonal_shift: 0.0,
            operator: "csr",
            precision,
            setup_us: solved.setup_us,
            solve_us: solved.solve_us,
        },
    }
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
/// * `guess` — a warm start; `None` starts every rung from zero.
/// * `state` — caller-owned Krylov vectors and AMG hierarchy slots (see
///   [`SolveWorkspace`]). A hierarchy left there by an earlier AMG-led
///   solve of the same dimension is reused, frozen, and the report's
///   `setup_us` is 0. Results never depend on the state's Krylov vectors,
///   only on its cached hierarchies.
///
/// # Errors
///
/// * [`SolveError::NonFinite`] / shape errors immediately — these are
///   caller bugs no fallback can fix.
/// * [`SolveError::Cancelled`] once `options.cancel` fires, at the next
///   rung boundary.
/// * Otherwise, the error of the **last** rung attempted, with all earlier
///   failures necessarily having occurred first (the ladder never skips
///   downward).
///
/// # Example
///
/// ```
/// use vstack_sparse::{solve_robust, CsrMatrix, RobustOptions, SolveWorkspace};
///
/// # fn main() -> Result<(), vstack_sparse::SolveError> {
/// let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 4.0), (1, 1, 9.0)]);
/// let mut state = SolveWorkspace::new();
/// let sol = solve_robust(&a, &[8.0, 27.0], None, &RobustOptions::default(), &mut state)?;
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
    state: &mut SolveWorkspace,
) -> Result<RobustSolved, SolveError> {
    validate(a, b, guess)?;
    let _span = vstack_obs::span!("solve_robust");
    vstack_obs::metrics::global().ladder_solves.inc();

    let first = match options.lead {
        Lead::MixedAmg => 0,
        Lead::Amg => 1,
        Lead::Jacobi => 2,
    };
    let mut fallbacks = Vec::new();
    let mut amg_err = None;
    for &method in &RUNGS[first..] {
        check_cancelled(&options.cancel)?;
        match run_rung(
            method,
            a,
            b,
            guess,
            options.tolerance,
            state,
            &mut amg_err,
            &fallbacks,
        ) {
            Ok(solved) => return Ok(accept(method, solved, fallbacks)),
            Err(e) if is_structural(&e) => return Err(e),
            Err(e) => {
                // One escalation tick per recorded step, in lock-step.
                vstack_obs::metrics::global().ladder_escalations.inc();
                fallbacks.push(FallbackStep {
                    from: method,
                    error: e,
                });
            }
        }
    }

    // Last rung: Tikhonov-shifted CG. The shift regularizes a near-singular
    // operator; the answer is only accepted if it actually satisfies the
    // *original* system to within the acceptance slack.
    check_cancelled(&options.cancel)?;
    let max_diag = a
        .diagonal()
        .into_iter()
        .fold(0.0f64, |acc, d| acc.max(d.abs()));
    let lambda = SHIFT_SCALE * max_diag;
    if lambda > 0.0 {
        let solved = jacobi_cg(
            &shifted_matrix(a, lambda),
            b,
            guess,
            options.tolerance,
            state,
        )?;
        let residual = a.residual_norm(&solved.x, b) / norm2(b).max(f64::MIN_POSITIVE);
        if residual > SHIFT_ACCEPTANCE * options.tolerance {
            return Err(SolveError::NotConverged {
                iterations: solved.iterations,
                residual,
            });
        }
        let solved = Solved {
            relative_residual: residual,
            ..solved
        };
        let mut sol = accept(SolveMethod::CgShifted, solved, fallbacks);
        sol.report.diagonal_shift = lambda;
        return Ok(sol);
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

    fn solve(
        a: &CsrMatrix,
        b: &[f64],
        guess: Option<&[f64]>,
        lead: Lead,
    ) -> Result<RobustSolved, SolveError> {
        let opts = RobustOptions {
            lead,
            ..RobustOptions::default()
        };
        solve_robust(a, b, guess, &opts, &mut SolveWorkspace::new())
    }

    /// Symmetric indefinite with a zero diagonal entry: Jacobi is
    /// impossible, but the system is well-posed with `x = (b1 − b0, b0)`.
    fn zero_diagonal() -> CsrMatrix {
        CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0), (1, 0, 1.0), (1, 1, 1.0)])
    }

    #[test]
    fn healthy_system_takes_first_rung() {
        let a = laplacian_1d(50);
        let b = vec![1.0; 50];
        let sol = solve(&a, &b, None, Lead::Jacobi).expect("solves");
        assert_eq!(sol.report.method, SolveMethod::CgJacobi);
        assert!(!sol.report.was_rescued());
        assert!(a.residual_norm(&sol.x, &b) < 1e-8);
    }

    #[test]
    fn warm_start_is_honored() {
        let a = laplacian_1d(200);
        let b = vec![1.0; 200];
        let cold = solve(&a, &b, None, Lead::Jacobi).expect("cold");
        let warm = solve(&a, &b, Some(&cold.x), Lead::Jacobi).expect("warm");
        assert!(warm.report.iterations <= 1);
    }

    #[test]
    fn non_finite_inputs_fail_fast() {
        let a = laplacian_1d(4);
        let err = solve(&a, &[1.0, f64::NAN, 0.0, 0.0], None, Lead::Amg).unwrap_err();
        assert!(matches!(
            err,
            SolveError::NonFinite {
                what: "rhs",
                index: 1
            }
        ));
        let guess = [0.0, 0.0, f64::INFINITY, 0.0];
        let err = solve(&a, &[1.0; 4], Some(&guess), Lead::Jacobi).unwrap_err();
        assert!(matches!(err, SolveError::NonFinite { what: "guess", .. }));
    }

    #[test]
    fn zero_diagonal_escalates_to_unpreconditioned_bicgstab() {
        let sol = solve(&zero_diagonal(), &[2.0, 5.0], None, Lead::Jacobi).expect("rescued");
        assert_eq!(sol.report.method, SolveMethod::BiCgStab);
        assert!(matches!(
            sol.report.fallbacks[..],
            [FallbackStep {
                from: SolveMethod::CgJacobi,
                error: SolveError::SingularDiagonal { row: 0 },
            }]
        ));
        assert!((sol.x[0] - 3.0).abs() < 1e-8, "x = {:?}", sol.x);
        assert!((sol.x[1] - 2.0).abs() < 1e-8);
    }

    #[test]
    fn singular_system_reports_failure_not_panic() {
        // Exactly singular: two identical rows, inconsistent rhs.
        let a =
            CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 1.0)]);
        let err = solve(&a, &[1.0, 2.0], None, Lead::Jacobi).unwrap_err();
        assert!(!is_structural(&err), "numerical failure expected: {err}");
    }

    #[test]
    fn amg_rung_takes_priority_and_caches_the_hierarchy() {
        let a = laplacian_1d(600);
        let b = vec![1.0; 600];
        let opts = RobustOptions {
            lead: Lead::Amg,
            ..RobustOptions::default()
        };
        let mut state = SolveWorkspace::new();
        let cold = solve_robust(&a, &b, None, &opts, &mut state).expect("amg rung solves");
        assert_eq!(cold.report.method, SolveMethod::CgAmg);
        assert!(!cold.report.was_rescued(), "trail: {}", cold.report.trail());
        assert!(a.residual_norm(&cold.x, &b) < 1e-7);
        assert!(state.has_hierarchy(), "hierarchy must be left in the state");
        let warm = solve_robust(&a, &b, None, &opts, &mut state).expect("cached re-solve");
        assert_eq!(warm.report.setup_us, 0, "cached hierarchy skips setup");
        assert_eq!(cold, warm, "cached re-solve must be bit-identical");
    }

    #[test]
    fn degenerate_coarsening_falls_through_to_jacobi() {
        // Diagonal matrix above the AMG direct-solve size: every node
        // aggregates into a singleton, coarsening stalls, and the ladder
        // must carry on to CG + Jacobi with the failure on record. Jacobi
        // is exact here, so the answer is `b / 2` after one iteration.
        let n = 300;
        let triplets: Vec<_> = (0..n).map(|i| (i, i, 2.0)).collect();
        let a = CsrMatrix::from_triplets(n, n, &triplets);
        let b: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let opts = RobustOptions {
            lead: Lead::Amg,
            ..RobustOptions::default()
        };
        let mut state = SolveWorkspace::new();
        let sol = solve_robust(&a, &b, None, &opts, &mut state).expect("rescued");
        assert_eq!(sol.report.method, SolveMethod::CgJacobi);
        assert!(!state.has_hierarchy(), "no hierarchy after a failed build");
        assert!(
            matches!(
                sol.report.fallbacks[..],
                [FallbackStep {
                    from: SolveMethod::CgAmg,
                    error: SolveError::CoarseningFailed { .. },
                }]
            ),
            "trail: {}",
            sol.report.trail()
        );
        assert!(sol.report.trail().starts_with("cg+amg->cg+jacobi ("));
        for (x, b) in sol.x.iter().zip(&b) {
            assert_eq!(*x, b / 2.0);
        }
    }

    #[test]
    fn trail_renders_methods_in_order() {
        let sol = solve(&zero_diagonal(), &[1.0, 1.0], None, Lead::Jacobi).expect("rescued");
        let trail = sol.report.trail();
        assert!(trail.starts_with("cg+jacobi->bicgstab ("), "trail: {trail}");
    }
}
