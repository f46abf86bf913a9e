//! The Krylov cores behind [`crate::solve_robust`], and the caller-owned
//! [`SolveWorkspace`] they borrow their vectors from.
//!
//! The resistive-grid and thermal systems in `vstack` are symmetric positive
//! definite (SPD) — including the voltage-stacked PDN, whose switched-
//! capacitor converter stamps are rank-1 PSD (see `vstack-pdn`) — so every
//! ladder rung but one runs preconditioned conjugate gradient ([`cg`]).
//! BiCGSTAB ([`bicgstab`]) is the rung that tolerates the indefiniteness
//! that breaks CG down.
//!
//! Both cores take already-validated inputs and publish each completed
//! solve to the global metrics registry.

use std::time::Instant;

use crate::amg::{AmgHierarchy, AmgHierarchyF32};
use crate::vecops::{axpy, dot, norm2, xpby};
use crate::{CsrMatrix, SolveError};

/// Iteration budget of every Krylov rung.
pub(crate) const MAX_ITERATIONS: usize = 50_000;

/// CG declares [`SolveError::Stagnated`] when its residual has not
/// improved for this many consecutive iterations, so a stalled rung hands
/// control to the next one instead of burning the whole budget.
const STAGNATION_WINDOW: usize = 250;

/// Caller-owned solve state for [`crate::solve_robust`]: the Krylov work
/// vectors, preconditioner-setup scratch, and the two AMG hierarchy slots.
///
/// A CG solve needs four work vectors and a BiCGSTAB solve eight. The
/// workspace owns them all and resizes them (never shrinks) to each
/// system's dimension on entry, so steady-state re-solves perform **no
/// allocation** beyond the returned solution vector. Every vector is
/// re-zeroed on entry, so reuse across solves — including solves of
/// different sizes or sparsity patterns — is bit-identical to a fresh
/// workspace.
///
/// The hierarchy slots are different: an AMG-led solve builds the f64
/// hierarchy (and the mixed rung its f32 mirror) into an empty slot and
/// *leaves it there*, so later solves reuse it and report a `setup_us`
/// of 0. The cached hierarchy is frozen: re-solves after value-only
/// re-stamps keep using it (CG converges against the current matrix under
/// any fixed SPD preconditioner; only iteration counts drift). Call
/// [`SolveWorkspace::clear_hierarchies`] when the sparsity pattern, or the
/// matrix the hierarchy should describe, changes.
#[derive(Debug, Clone, Default)]
pub struct SolveWorkspace {
    /// Per-iteration vectors of the Krylov cores.
    pub(crate) krylov: Krylov,
    /// Preconditioner-setup scratch (AMG strength/aggregation buffers),
    /// so cached-pattern re-setup is allocation-free once grown.
    pub(crate) setup: SetupScratch,
    /// The f64 AMG hierarchy shared by the mixed and f64 AMG rungs.
    pub(crate) amg: Option<AmgHierarchy>,
    /// f32 mirror of [`SolveWorkspace::amg`] for the mixed rung.
    pub(crate) amg_f32: Option<AmgHierarchyF32>,
}

impl SolveWorkspace {
    /// Creates an empty workspace; vectors grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total `f64` capacity of the Krylov vectors currently held
    /// (diagnostic; used by tests to verify that steady-state reuse stops
    /// allocating).
    pub fn capacity(&self) -> usize {
        let k = &self.krylov;
        [
            &k.r, &k.z, &k.p, &k.ap, &k.r_hat, &k.v, &k.phat, &k.s, &k.shat, &k.t,
        ]
        .iter()
        .map(|v| v.capacity())
        .sum()
    }

    /// How many times a preconditioner-setup scratch buffer had to grow its
    /// allocation. Steady once the workspace has seen its largest system:
    /// tests assert this stays flat across repeated AMG setups on a cached
    /// pattern.
    pub fn setup_regrowths(&self) -> u64 {
        self.setup.growths
    }

    /// Whether an f64 AMG hierarchy is cached for the next AMG-led solve.
    pub fn has_hierarchy(&self) -> bool {
        self.amg.is_some()
    }

    /// Drops both cached AMG hierarchies, so the next AMG-led solve builds
    /// from the matrix it is given.
    pub fn clear_hierarchies(&mut self) {
        self.amg = None;
        self.amg_f32 = None;
    }
}

/// The Krylov cores' work vectors: four for CG, eight for BiCGSTAB.
#[derive(Debug, Clone, Default)]
pub(crate) struct Krylov {
    r: Vec<f64>,
    z: Vec<f64>,
    p: Vec<f64>,
    ap: Vec<f64>,
    r_hat: Vec<f64>,
    v: Vec<f64>,
    phat: Vec<f64>,
    s: Vec<f64>,
    shat: Vec<f64>,
    t: Vec<f64>,
}

/// Scratch buffers for preconditioner *setup* (as opposed to the per-
/// iteration vectors above): AMG diagonal, aggregation and prolongator-
/// triplet temporaries. Every buffer is `clear()`-ed and re-filled on use,
/// so reuse across setups — including setups of different sizes — is
/// bit-identical to the allocate-fresh path.
#[derive(Debug, Clone, Default)]
pub(crate) struct SetupScratch {
    /// Level diagonal (strength graph / smoother setup).
    pub(crate) diag: Vec<f64>,
    /// Aggregate ids per node.
    pub(crate) agg: Vec<usize>,
    /// Pass-1 aggregate snapshot.
    pub(crate) pass: Vec<usize>,
    /// Prolongator assembly triplets.
    pub(crate) trip: Vec<(usize, usize, f64)>,
    /// Number of buffer regrowths since creation (see
    /// [`SolveWorkspace::setup_regrowths`]).
    pub(crate) growths: u64,
}

impl SetupScratch {
    /// Resets `v` to `n` copies of `fill`, reusing its allocation when
    /// large enough and counting a regrowth when not.
    pub(crate) fn prep<T: Clone>(growths: &mut u64, v: &mut Vec<T>, n: usize, fill: T) {
        if v.capacity() < n {
            *growths += 1;
        }
        v.clear();
        v.resize(n, fill);
    }
}

/// Resets `v` to `n` zeros, reusing its allocation when large enough —
/// the workspace equivalent of `vec![0.0; n]`.
fn prep(v: &mut Vec<f64>, n: usize) {
    v.clear();
    v.resize(n, 0.0);
}

/// Output of a Krylov core: solution plus convergence diagnostics.
///
/// Equality compares only the *numerical* outcome — `x`, `iterations` and
/// `relative_residual` — and ignores the wall-clock fields, so the crate's
/// bit-identity guarantees stay testable with `assert_eq!`.
#[derive(Debug, Clone)]
pub(crate) struct Solved {
    /// The solution vector.
    pub(crate) x: Vec<f64>,
    /// Iterations actually performed.
    pub(crate) iterations: usize,
    /// Final relative residual `‖b − Ax‖ / ‖b‖`.
    pub(crate) relative_residual: f64,
    /// Wall-clock microseconds of preconditioner setup the ladder charged
    /// to this solve (0 when cached).
    pub(crate) setup_us: u64,
    /// Wall-clock microseconds spent iterating.
    pub(crate) solve_us: u64,
}

impl PartialEq for Solved {
    fn eq(&self, other: &Self) -> bool {
        self.x == other.x
            && self.iterations == other.iterations
            && self.relative_residual == other.relative_residual
    }
}

impl Solved {
    /// The trivial solution of a zero right-hand side.
    fn zeros(n: usize) -> Self {
        Solved {
            x: vec![0.0; n],
            iterations: 0,
            relative_residual: 0.0,
            setup_us: 0,
            solve_us: 0,
        }
    }

    /// Charges `setup_us` of preconditioner setup to this solve, publishing
    /// it to the global `solver_setup_us` counter and `setup_us_hist` as it
    /// joins. The ladder calls it once per completed rung solve.
    pub(crate) fn add_setup(&mut self, setup_us: u64) {
        self.setup_us += setup_us;
        let m = vstack_obs::metrics::global();
        m.solver_setup_us.add(setup_us);
        m.setup_us_hist.observe(setup_us);
    }
}

/// Publishes a completed solve to the global metrics registry.
fn record(solved: Solved, bicgstab: bool, amg_preconditioned: bool) -> Solved {
    let m = vstack_obs::metrics::global();
    let it = solved.iterations as u64;
    if bicgstab {
        m.bicgstab_solves.inc();
    } else {
        m.cg_solves.inc();
    }
    m.solver_iterations.add(it);
    m.solver_iterations_hist.observe(it);
    m.solver_solve_us.add(solved.solve_us);
    m.solve_us_hist.observe(solved.solve_us);
    if amg_preconditioned {
        m.amg_vcycles_per_solve.observe(it);
    }
    solved
}

/// A materialized preconditioner `M⁻¹`. The AMG variants borrow a
/// hierarchy cached in the [`SolveWorkspace`].
pub(crate) enum Precond<'a> {
    /// No preconditioning.
    None,
    /// Diagonal (Jacobi) scaling: the inverse diagonal of `A`.
    Jacobi(Vec<f64>),
    /// One f64 AMG V-cycle.
    Amg(&'a AmgHierarchy),
    /// One f32 AMG V-cycle with scale-to-unit iterative-refinement framing
    /// (see [`AmgHierarchyF32::apply`]); the outer CG stays in f64.
    AmgF32(&'a AmgHierarchyF32),
}

impl Precond<'_> {
    /// Jacobi scaling for `a`.
    ///
    /// # Errors
    ///
    /// [`SolveError::SingularDiagonal`] on a zero diagonal entry.
    pub(crate) fn jacobi(a: &CsrMatrix) -> Result<Self, SolveError> {
        a.diagonal()
            .into_iter()
            .enumerate()
            .map(|(row, d)| {
                if d.abs() > f64::MIN_POSITIVE {
                    Ok(1.0 / d)
                } else {
                    Err(SolveError::SingularDiagonal { row })
                }
            })
            .collect::<Result<_, _>>()
            .map(Precond::Jacobi)
    }

    fn apply(&self, r: &[f64], z: &mut [f64]) {
        match self {
            Precond::None => z.copy_from_slice(r),
            Precond::Jacobi(inv_d) => {
                for ((zi, ri), di) in z.iter_mut().zip(r).zip(inv_d) {
                    *zi = ri * di;
                }
            }
            Precond::Amg(h) => h.apply(r, z),
            Precond::AmgF32(h) => h.apply(r, z),
        }
    }
}

/// Solves the SPD system `A x = b` by preconditioned conjugate gradient.
///
/// # Errors
///
/// * [`SolveError::NotConverged`] if the relative residual fails to reach
///   `tolerance` within `max_iterations`.
/// * [`SolveError::Stagnated`] if it stops improving first.
/// * [`SolveError::Breakdown`] if `pᵀAp` is not positive and finite
///   (the matrix was not SPD, or an f32 V-cycle overflowed).
pub(crate) fn cg(
    a: &CsrMatrix,
    b: &[f64],
    guess: Option<&[f64]>,
    pre: &Precond<'_>,
    tolerance: f64,
    max_iterations: usize,
    ws: &mut Krylov,
) -> Result<Solved, SolveError> {
    let n = a.rows();
    let b_norm = norm2(b);
    if b_norm == 0.0 {
        return Ok(Solved::zeros(n));
    }
    let _span = vstack_obs::span!("cg_solve");
    let amg_preconditioned = matches!(pre, Precond::Amg(_) | Precond::AmgF32(_));
    let solve_timer = Instant::now();
    let mut x = guess.map_or_else(|| vec![0.0; n], <[f64]>::to_vec);

    let Krylov { r, z, p, ap, .. } = ws;
    prep(r, n);
    prep(z, n);
    prep(p, n);
    prep(ap, n);

    // r = b − A x
    a.mul_vec_into(&x, r);
    for (ri, bi) in r.iter_mut().zip(b) {
        *ri = bi - *ri;
    }

    pre.apply(r, z);
    p.copy_from_slice(z);
    let mut rz = dot(r, z);

    // Stagnation tracking: `best_res` only updates on a meaningful
    // (relative) improvement, so round-off chatter does not reset the
    // window.
    let mut best_res = f64::INFINITY;
    let mut stalled = 0usize;

    let done = |x, iterations, res| {
        let solved = Solved {
            x,
            iterations,
            relative_residual: res,
            setup_us: 0,
            solve_us: solve_timer.elapsed().as_micros() as u64,
        };
        Ok(record(solved, false, amg_preconditioned))
    };
    for it in 0..max_iterations {
        let res = norm2(r) / b_norm;
        if res <= tolerance {
            return done(x, it, res);
        }
        if res < best_res * (1.0 - 1e-6) {
            best_res = res;
            stalled = 0;
        } else {
            stalled += 1;
            if stalled >= STAGNATION_WINDOW {
                return Err(SolveError::Stagnated {
                    iterations: it,
                    residual: res,
                });
            }
        }
        a.mul_vec_into(p, ap);
        let pap = dot(p, ap);
        if pap <= 0.0 || !pap.is_finite() {
            return Err(SolveError::Breakdown { iterations: it });
        }
        let alpha = rz / pap;
        axpy(alpha, p, &mut x);
        axpy(-alpha, ap, r);
        pre.apply(r, z);
        let rz_next = dot(r, z);
        let beta = rz_next / rz;
        rz = rz_next;
        xpby(z, beta, p);
    }

    let res = norm2(r) / b_norm;
    if res <= tolerance {
        done(x, max_iterations, res)
    } else {
        Err(SolveError::NotConverged {
            iterations: max_iterations,
            residual: res,
        })
    }
}

/// Solves the (possibly non-symmetric or indefinite) system `A x = b` by
/// preconditioned BiCGSTAB.
///
/// # Errors
///
/// * [`SolveError::NotConverged`] if the tolerance is not met within
///   `max_iterations`.
/// * [`SolveError::Breakdown`] on vanishing inner products.
pub(crate) fn bicgstab(
    a: &CsrMatrix,
    b: &[f64],
    guess: Option<&[f64]>,
    pre: &Precond<'_>,
    tolerance: f64,
    max_iterations: usize,
    ws: &mut Krylov,
) -> Result<Solved, SolveError> {
    let n = a.rows();
    let b_norm = norm2(b);
    if b_norm == 0.0 {
        return Ok(Solved::zeros(n));
    }
    let _span = vstack_obs::span!("bicgstab_solve");
    let solve_timer = Instant::now();
    let mut x = guess.map_or_else(|| vec![0.0; n], <[f64]>::to_vec);

    let Krylov {
        r,
        r_hat,
        v,
        p,
        phat,
        s,
        shat,
        t,
        ..
    } = ws;
    prep(r, n);
    prep(r_hat, n);
    prep(v, n);
    prep(p, n);
    prep(phat, n);
    prep(s, n);
    prep(shat, n);
    prep(t, n);

    let done = |x, iterations, res| {
        let solved = Solved {
            x,
            iterations,
            relative_residual: res,
            setup_us: 0,
            solve_us: solve_timer.elapsed().as_micros() as u64,
        };
        Ok(record(solved, true, false))
    };

    // r = b − A x
    a.mul_vec_into(&x, r);
    for (ri, bi) in r.iter_mut().zip(b) {
        *ri = bi - *ri;
    }
    let initial_res = norm2(r) / b_norm;
    if initial_res <= tolerance {
        return done(x, 0, initial_res);
    }
    r_hat.copy_from_slice(r);
    let mut rho = 1.0;
    let mut alpha = 1.0;
    let mut omega = 1.0;

    for it in 0..max_iterations {
        let rho_next = dot(r_hat, r);
        if rho_next.abs() < f64::MIN_POSITIVE {
            return Err(SolveError::Breakdown { iterations: it });
        }
        let beta = (rho_next / rho) * (alpha / omega);
        rho = rho_next;
        // p = r + beta (p − omega v)
        for i in 0..n {
            p[i] = r[i] + beta * (p[i] - omega * v[i]);
        }
        pre.apply(p, phat);
        a.mul_vec_into(phat, v);
        let denom = dot(r_hat, v);
        if denom.abs() < f64::MIN_POSITIVE {
            return Err(SolveError::Breakdown { iterations: it });
        }
        alpha = rho / denom;
        for i in 0..n {
            s[i] = r[i] - alpha * v[i];
        }
        let s_res = norm2(s) / b_norm;
        if s_res <= tolerance {
            axpy(alpha, phat, &mut x);
            return done(x, it + 1, s_res);
        }
        pre.apply(s, shat);
        a.mul_vec_into(shat, t);
        let tt = dot(t, t);
        if tt.abs() < f64::MIN_POSITIVE {
            return Err(SolveError::Breakdown { iterations: it });
        }
        omega = dot(t, s) / tt;
        axpy(alpha, phat, &mut x);
        axpy(omega, shat, &mut x);
        for i in 0..n {
            r[i] = s[i] - omega * t[i];
        }
        let res = norm2(r) / b_norm;
        if res <= tolerance {
            return done(x, it + 1, res);
        }
        if omega.abs() < f64::MIN_POSITIVE {
            return Err(SolveError::Breakdown { iterations: it });
        }
    }

    Err(SolveError::NotConverged {
        iterations: max_iterations,
        residual: norm2(r) / b_norm,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{solve_robust, RobustOptions, TripletMatrix};

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

    fn jacobi_cg(a: &CsrMatrix, b: &[f64], guess: Option<&[f64]>) -> Result<Solved, SolveError> {
        let pre = Precond::jacobi(a)?;
        cg(
            a,
            b,
            guess,
            &pre,
            1e-10,
            MAX_ITERATIONS,
            &mut Krylov::default(),
        )
    }

    fn jacobi_bicgstab(
        a: &CsrMatrix,
        b: &[f64],
        guess: Option<&[f64]>,
    ) -> Result<Solved, SolveError> {
        let pre = Precond::jacobi(a)?;
        bicgstab(
            a,
            b,
            guess,
            &pre,
            1e-10,
            MAX_ITERATIONS,
            &mut Krylov::default(),
        )
    }

    fn max_diff(x: &[f64], y: &[f64]) -> f64 {
        x.iter()
            .zip(y)
            .map(|(u, v)| (u - v).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn cg_solves_laplacian() {
        let n = 100;
        let a = laplacian_1d(n);
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let b = a.mul_vec(&x_true);
        let x = jacobi_cg(&a, &b, None).expect("cg should converge").x;
        assert!(max_diff(&x, &x_true) < 1e-6);
    }

    #[test]
    fn cg_without_preconditioner() {
        let a = laplacian_1d(50);
        let b = vec![1.0; 50];
        let x = cg(
            &a,
            &b,
            None,
            &Precond::None,
            1e-10,
            1000,
            &mut Krylov::default(),
        )
        .expect("cg should converge")
        .x;
        assert!(a.residual_norm(&x, &b) < 1e-8);
    }

    #[test]
    fn cg_zero_rhs_returns_zero() {
        let a = laplacian_1d(10);
        let x = jacobi_cg(&a, &[0.0; 10], None).expect("trivial solve").x;
        assert_eq!(x, vec![0.0; 10]);
    }

    #[test]
    fn cg_warm_start_converges_faster() {
        let n = 400;
        let a = laplacian_1d(n);
        let b = vec![1.0; n];
        let cold = jacobi_cg(&a, &b, None).expect("cold solve");
        let warm = jacobi_cg(&a, &b, Some(&cold.x)).expect("warm solve");
        assert!(warm.iterations <= 1, "warm start should converge instantly");
    }

    #[test]
    fn cg_dimension_mismatch_rejected() {
        let a = laplacian_1d(4);
        let mut state = SolveWorkspace::new();
        let opts = RobustOptions::default();
        let err = solve_robust(&a, &[1.0; 3], None, &opts, &mut state).unwrap_err();
        assert!(matches!(err, SolveError::DimensionMismatch { .. }));
        let err = solve_robust(&a, &[1.0; 4], Some(&[0.0; 5]), &opts, &mut state);
        assert!(matches!(
            err,
            Err(SolveError::DimensionMismatch {
                expected: 4,
                found: 5
            })
        ));
    }

    #[test]
    fn cg_rejects_nonsquare() {
        let a = CsrMatrix::from_triplets(2, 3, &[(0, 0, 1.0)]);
        let opts = RobustOptions::default();
        let err = solve_robust(&a, &[1.0, 1.0], None, &opts, &mut SolveWorkspace::new());
        assert!(matches!(err, Err(SolveError::NotSquare { .. })));
    }

    #[test]
    fn cg_not_converged_when_budget_too_small() {
        let a = laplacian_1d(200);
        let b = vec![1.0; 200];
        let pre = Precond::jacobi(&a).unwrap();
        let err = cg(&a, &b, None, &pre, 1e-10, 2, &mut Krylov::default()).unwrap_err();
        assert!(matches!(
            err,
            SolveError::NotConverged { iterations: 2, .. }
        ));
    }

    #[test]
    fn bicgstab_solves_nonsymmetric() {
        // Upwind-like convection-diffusion matrix: non-symmetric, diagonally
        // dominant.
        let n = 60;
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            t.push(i, i, 3.0);
            if i + 1 < n {
                t.push(i, i + 1, -0.5);
                t.push(i + 1, i, -1.5);
            }
        }
        let a = t.to_csr();
        assert!(!a.is_symmetric(1e-12));
        let x_true: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
        let b = a.mul_vec(&x_true);
        let x = jacobi_bicgstab(&a, &b, None).expect("bicgstab converges").x;
        assert!(max_diff(&x, &x_true) < 1e-6);
    }

    #[test]
    fn bicgstab_matches_cg_on_spd() {
        let a = laplacian_1d(64);
        let b: Vec<f64> = (0..64).map(|i| (i as f64).cos()).collect();
        let x1 = jacobi_cg(&a, &b, None).expect("cg").x;
        let x2 = jacobi_bicgstab(&a, &b, None).expect("bicgstab").x;
        assert!(max_diff(&x1, &x2) < 1e-6);
    }

    #[test]
    fn bicgstab_zero_rhs() {
        let a = laplacian_1d(8);
        let x = jacobi_bicgstab(&a, &[0.0; 8], None).expect("trivial").x;
        assert_eq!(x, vec![0.0; 8]);
    }

    #[test]
    fn bicgstab_warm_start_converges_instantly() {
        let a = laplacian_1d(100);
        let b = vec![1.0; 100];
        let cold = jacobi_bicgstab(&a, &b, None).expect("cold");
        assert!(cold.iterations > 0);
        let warm = jacobi_bicgstab(&a, &b, Some(&cold.x)).expect("warm");
        assert_eq!(warm.iterations, 0, "residual {}", warm.relative_residual);
    }

    #[test]
    fn jacobi_on_zero_diagonal_is_surfaced_not_masked() {
        // Zero diagonal at row 1: previously silently treated as 1.0.
        let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 1, 1.0), (1, 0, 1.0)]);
        let err = jacobi_cg(&a, &[1.0, 1.0], None).unwrap_err();
        assert!(matches!(err, SolveError::SingularDiagonal { row: 1 }));
    }

    #[test]
    fn non_finite_inputs_rejected_up_front() {
        let a = laplacian_1d(3);
        let opts = RobustOptions::default();
        let mut state = SolveWorkspace::new();
        let err = solve_robust(&a, &[1.0, f64::NAN, 0.0], None, &opts, &mut state);
        assert!(matches!(
            err,
            Err(SolveError::NonFinite {
                what: "rhs",
                index: 1
            })
        ));

        let guess = [f64::INFINITY, 0.0, 0.0];
        let err = solve_robust(&a, &[1.0; 3], Some(&guess), &opts, &mut state);
        assert!(matches!(
            err,
            Err(SolveError::NonFinite {
                what: "guess",
                index: 0
            })
        ));

        let bad = CsrMatrix::from_triplets(2, 2, &[(0, 0, f64::NAN), (1, 1, 1.0)]);
        let err = solve_robust(&bad, &[1.0, 1.0], None, &opts, &mut state);
        assert!(matches!(
            err,
            Err(SolveError::NonFinite {
                what: "matrix",
                index: 0
            })
        ));
    }

    #[test]
    fn workspace_reuse_is_bit_identical_and_allocation_stable() {
        let mut ws = SolveWorkspace::new();
        // Solve systems of several sizes through one workspace, interleaving
        // CG and BiCGSTAB; every result must match the allocate-fresh path
        // bit for bit, and once the workspace has grown to the largest size
        // its capacity must stop changing.
        let solve_both = |a: &CsrMatrix, b: &[f64], ws: &mut SolveWorkspace| {
            let pre = Precond::jacobi(a).unwrap();
            let x_cg = cg(a, b, None, &pre, 1e-10, MAX_ITERATIONS, &mut ws.krylov).unwrap();
            let x_bi = bicgstab(a, b, None, &pre, 1e-10, MAX_ITERATIONS, &mut ws.krylov).unwrap();
            (x_cg, x_bi)
        };
        for &n in &[10, 50, 30, 50, 7] {
            let a = laplacian_1d(n);
            let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).cos()).collect();
            let (cg_reused, bi_reused) = solve_both(&a, &b, &mut ws);
            assert_eq!(jacobi_cg(&a, &b, None).unwrap(), cg_reused, "cg n={n}");
            assert_eq!(
                jacobi_bicgstab(&a, &b, None).unwrap(),
                bi_reused,
                "bicgstab n={n}"
            );
        }
        let cap = ws.capacity();
        for _ in 0..3 {
            solve_both(&laplacian_1d(50), &[1.0; 50], &mut ws);
        }
        assert_eq!(ws.capacity(), cap, "steady-state reuse must not reallocate");
    }

    #[test]
    fn stagnation_detected_on_singular_neumann_laplacian() {
        // Pure-Neumann 1-D Laplacian: singular (constant null space). With a
        // right-hand side that has a component in the null space, CG's
        // residual plateaus at the projection instead of converging.
        let n = 40;
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n - 1 {
            t.stamp_conductance(Some(i), Some(i + 1), 1.0);
        }
        let err = jacobi_cg(&t.to_csr(), &vec![1.0; n], None).unwrap_err();
        assert!(
            matches!(
                err,
                SolveError::Stagnated { .. } | SolveError::Breakdown { .. }
            ),
            "got {err:?}"
        );
    }
}
