//! Property-based tests for the sparse kernels.

use std::sync::Arc;

use proptest::prelude::*;
use vstack_sparse::dense::DenseMatrix;
use vstack_sparse::pool::{with_pool, ThreadPool};
use vstack_sparse::robust::FallbackStep;
use vstack_sparse::{
    solve_robust, vecops, CsrMatrix, Lead, RobustOptions, RobustSolved, SolveError, SolveMethod,
    SolveWorkspace, TripletMatrix,
};

/// Strategy: a random list of triplets inside an `n × n` matrix.
fn triplets(n: usize, max_entries: usize) -> impl Strategy<Value = Vec<(usize, usize, f64)>> {
    prop::collection::vec((0..n, 0..n, -10.0..10.0f64), 0..max_entries)
}

/// Strategy: a random SPD matrix built as `L Lᵀ + ε I` from a random sparse
/// lower-triangular factor — guaranteed symmetric positive definite.
fn spd_matrix(n: usize) -> impl Strategy<Value = CsrMatrix> {
    prop::collection::vec((0..n, 0..n, -2.0..2.0f64), 1..4 * n).prop_map(move |tris| {
        // Accumulate dense L (lower triangular incl. diagonal shift).
        let mut l = vec![vec![0.0; n]; n];
        for (r, c, v) in tris {
            let (r, c) = if r >= c { (r, c) } else { (c, r) };
            l[r][c] += v;
        }
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            for j in 0..n {
                let mut acc = 0.0;
                for (lik, ljk) in l[i].iter().zip(&l[j]) {
                    acc += lik * ljk;
                }
                if i == j {
                    acc += 1.0; // ε I keeps it strictly PD
                }
                if acc != 0.0 {
                    t.push(i, j, acc);
                }
            }
        }
        t.to_csr()
    })
}

/// Solves through the ladder from `lead` with a fresh state.
fn solve(a: &CsrMatrix, b: &[f64], lead: Lead) -> RobustSolved {
    let opts = RobustOptions {
        lead,
        ..RobustOptions::default()
    };
    solve_robust(a, b, None, &opts, &mut SolveWorkspace::new()).expect("ladder must converge")
}

/// Strategy: an SPD `side`×`side` grid Laplacian with random edge
/// conductances, anchored corners, and `converters` random cross-grid
/// stamps — each one the rank-1 SPD update a voltage-stacked converter
/// tether contributes between non-adjacent rail nodes.
fn grid_spd(side: usize, converters: usize) -> impl Strategy<Value = CsrMatrix> {
    let n = side * side;
    (
        prop::collection::vec(1.0..30.0f64, 2 * n),
        prop::collection::vec((0..n, 0..n, 0.5..5.0f64), converters),
    )
        .prop_map(move |(edges, taps)| {
            let mut t = TripletMatrix::new(n, n);
            let mut e = edges.iter();
            for j in 0..side {
                for i in 0..side {
                    let a = j * side + i;
                    if i + 1 < side {
                        t.stamp_conductance(Some(a), Some(a + 1), *e.next().unwrap());
                    }
                    if j + 1 < side {
                        t.stamp_conductance(Some(a), Some(a + side), *e.next().unwrap());
                    }
                }
            }
            for corner in [0, side - 1, n - side, n - 1] {
                t.push(corner, corner, 100.0);
            }
            for &(p, q, g) in &taps {
                if p != q {
                    t.stamp_conductance(Some(p), Some(q), g);
                }
            }
            t.to_csr()
        })
}

/// Shared pools for the parallel bit-identity properties: spawning threads
/// per proptest case would dominate the runtime, and the pool is designed
/// to be shared.
fn pools() -> &'static [Arc<ThreadPool>] {
    static POOLS: std::sync::OnceLock<Vec<Arc<ThreadPool>>> = std::sync::OnceLock::new();
    POOLS.get_or_init(|| {
        [1, 2, 4]
            .iter()
            .map(|&c| Arc::new(ThreadPool::new(c)))
            .collect()
    })
}

proptest! {
    /// CSR matrix–vector product agrees with a dense reference product.
    #[test]
    fn csr_mul_matches_dense(tris in triplets(12, 60), x in prop::collection::vec(-5.0..5.0f64, 12)) {
        let m = CsrMatrix::from_triplets(12, 12, &tris);
        let dense = m.to_dense();
        let y = m.mul_vec(&x);
        for r in 0..12 {
            let want: f64 = dense[r].iter().zip(&x).map(|(a, b)| a * b).sum();
            prop_assert!((y[r] - want).abs() < 1e-9);
        }
    }

    /// Transposing twice is the identity.
    #[test]
    fn transpose_is_involution(tris in triplets(10, 50)) {
        let m = CsrMatrix::from_triplets(10, 10, &tris);
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    /// `(Aᵀ)x·y == x·(Ay)` — the adjoint identity.
    #[test]
    fn transpose_adjoint_identity(
        tris in triplets(8, 40),
        x in prop::collection::vec(-3.0..3.0f64, 8),
        y in prop::collection::vec(-3.0..3.0f64, 8),
    ) {
        let a = CsrMatrix::from_triplets(8, 8, &tris);
        let at = a.transpose();
        let lhs: f64 = at.mul_vec(&x).iter().zip(&y).map(|(u, v)| u * v).sum();
        let rhs: f64 = a.mul_vec(&y).iter().zip(&x).map(|(u, v)| u * v).sum();
        prop_assert!((lhs - rhs).abs() < 1e-8);
    }

    /// CG solves every randomly generated SPD system to tolerance.
    #[test]
    fn cg_solves_random_spd(a in spd_matrix(10), b in prop::collection::vec(-5.0..5.0f64, 10)) {
        let sol = solve(&a, &b, Lead::Jacobi);
        prop_assert_eq!(sol.report.method, SolveMethod::CgJacobi);
        let bnorm: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
        prop_assert!(a.residual_norm(&sol.x, &b) <= 1e-7 * bnorm.max(1.0));
    }

    /// BiCGSTAB agrees with CG on SPD systems. A decoupled zero-diagonal
    /// 2×2 block appended to the SPD matrix defeats CG + Jacobi, so the
    /// ladder answers the whole system with BiCGSTAB; its SPD part must
    /// match CG + Jacobi on the SPD block alone.
    #[test]
    fn bicgstab_agrees_with_cg(a in spd_matrix(8), b in prop::collection::vec(-2.0..2.0f64, 8)) {
        let cg = solve(&a, &b, Lead::Jacobi);
        let mut t = TripletMatrix::new(10, 10);
        for (r, c, v) in a.iter() {
            t.push(r, c, v);
        }
        t.push(8, 9, 1.0);
        t.push(9, 8, 1.0);
        t.push(9, 9, 1.0);
        let bicg = solve(&t.to_csr(), &[&b[..], &[2.0, 5.0]].concat(), Lead::Jacobi);
        prop_assert_eq!(bicg.report.method, SolveMethod::BiCgStab);
        for (u, v) in cg.x.iter().zip(&bicg.x) {
            prop_assert!((u - v).abs() < 1e-5);
        }
    }

    /// Dense LU solve then multiply reproduces the right-hand side.
    #[test]
    fn dense_lu_roundtrip(a in spd_matrix(6), b in prop::collection::vec(-4.0..4.0f64, 6)) {
        let mut d = DenseMatrix::zeros(6, 6);
        for (r, c, v) in a.iter() {
            d[(r, c)] += v;
        }
        let x = d.solve(&b).expect("SPD dense solve");
        let ax = d.mul_vec(&x);
        for (u, v) in ax.iter().zip(&b) {
            prop_assert!((u - v).abs() < 1e-8);
        }
    }

    /// Whenever AMG coarsening degenerates — a diagonal matrix above the
    /// direct-solve size aggregates into singletons — an AMG-led ladder
    /// records the failure and CG + Jacobi, exact on a diagonal, returns
    /// `b / d`.
    #[test]
    fn robust_rescues_coarsening_failures(
        d in prop::collection::vec(0.5..50.0f64, 300),
        b in prop::collection::vec(-3.0..3.0f64, 300),
    ) {
        let triplets: Vec<_> = d.iter().enumerate().map(|(i, &v)| (i, i, v)).collect();
        let a = CsrMatrix::from_triplets(300, 300, &triplets);
        let sol = solve(&a, &b, Lead::Amg);
        prop_assert_eq!(sol.report.method, SolveMethod::CgJacobi);
        prop_assert!(
            matches!(
                sol.report.fallbacks[..],
                [FallbackStep { from: SolveMethod::CgAmg, error: SolveError::CoarseningFailed { .. } }]
            ),
            "trail: {}",
            sol.report.trail()
        );
        for ((x, b), d) in sol.x.iter().zip(&b).zip(&d) {
            prop_assert!((x - b / d).abs() <= 1e-12 * (b / d).abs().max(1.0));
        }
    }

    /// Triplet duplicate handling: pushing values one at a time or summed up
    /// front yields the same matrix.
    #[test]
    fn duplicate_sum_equivalence(vals in prop::collection::vec(-5.0..5.0f64, 1..20)) {
        let mut t1 = TripletMatrix::new(1, 1);
        for &v in &vals {
            t1.push(0, 0, v);
        }
        let mut t2 = TripletMatrix::new(1, 1);
        t2.push(0, 0, vals.iter().sum());
        let (a, b) = (t1.to_csr(), t2.to_csr());
        prop_assert!((a.get(0, 0) - b.get(0, 0)).abs() < 1e-9);
    }

    /// The row-partitioned parallel SpMV produces bit-for-bit the serial
    /// result at 1, 2 and 4 contexts, on random SPD matrices.
    #[test]
    fn par_mul_vec_bit_identical_to_serial(
        a in spd_matrix(24),
        x in prop::collection::vec(-3.0..3.0f64, 24),
    ) {
        let mut serial = vec![0.0; 24];
        a.mul_vec_into(&x, &mut serial);
        for pool in pools() {
            let mut par = vec![f64::NAN; 24];
            a.par_mul_vec_into(pool, &x, &mut par);
            for (s, p) in serial.iter().zip(&par) {
                prop_assert_eq!(s.to_bits(), p.to_bits());
            }
        }
    }

    /// The chunked tree-reduction dot product produces bit-for-bit the
    /// serial result at 1, 2 and 4 contexts, across chunk boundaries.
    #[test]
    fn par_dot_bit_identical_to_serial(
        xy in prop::collection::vec((-3.0..3.0f64, -3.0..3.0f64), 1..3000),
    ) {
        let (x, y): (Vec<f64>, Vec<f64>) = xy.into_iter().unzip();
        let serial = vecops::dot(&x, &y);
        for pool in pools() {
            let par = vecops::par_dot(pool, &x, &y);
            prop_assert_eq!(serial.to_bits(), par.to_bits());
        }
    }

    /// AMG-preconditioned CG converges on random grid Laplacians to the
    /// same solution Jacobi-preconditioned CG finds. 400 unknowns is past
    /// the hierarchy's 128-unknown direct level, so a genuine coarse level
    /// is built and cycled.
    #[test]
    fn amg_cg_agrees_with_jacobi_cg_on_grids(
        a in grid_spd(20, 0),
        b in prop::collection::vec(-2.0..2.0f64, 400),
    ) {
        let jac = solve(&a, &b, Lead::Jacobi);
        let amg = solve(&a, &b, Lead::Amg);
        prop_assert_eq!(jac.report.method, SolveMethod::CgJacobi);
        prop_assert_eq!(amg.report.method, SolveMethod::CgAmg);
        for (u, v) in jac.x.iter().zip(&amg.x) {
            prop_assert!((u - v).abs() < 1e-5);
        }
    }

    /// The same agreement holds when the grid carries converter-style
    /// rank-1 cross stamps, as the voltage-stacked PDN matrices do.
    #[test]
    fn amg_cg_agrees_with_jacobi_cg_on_converter_grids(
        a in grid_spd(20, 4),
        b in prop::collection::vec(-2.0..2.0f64, 400),
    ) {
        let jac = solve(&a, &b, Lead::Jacobi);
        let amg = solve(&a, &b, Lead::Amg);
        prop_assert_eq!(jac.report.method, SolveMethod::CgJacobi);
        prop_assert_eq!(amg.report.method, SolveMethod::CgAmg);
        for (u, v) in jac.x.iter().zip(&amg.x) {
            prop_assert!((u - v).abs() < 1e-5);
        }
    }

    /// One `SolveWorkspace` reused across systems of different sizes and
    /// patterns resizes correctly: every solve through it is bit-identical
    /// to a fresh-workspace solve of the same system.
    #[test]
    fn workspace_reuse_across_patterns_is_bit_identical(
        a1 in spd_matrix(8),
        b1 in prop::collection::vec(-4.0..4.0f64, 8),
        a2 in spd_matrix(13),
        b2 in prop::collection::vec(-4.0..4.0f64, 13),
    ) {
        let opts = RobustOptions::default();
        let mut ws = SolveWorkspace::new();
        for (a, b) in [(&a1, &b1), (&a2, &b2), (&a1, &b1)] {
            let fresh = solve(a, b, Lead::Jacobi).x;
            let reused = solve_robust(a, b, None, &opts, &mut ws)
                .expect("SPD system must converge")
                .x;
            for (f, r) in fresh.iter().zip(&reused) {
                prop_assert_eq!(f.to_bits(), r.to_bits());
            }
        }
    }
}

proptest! {
    // Few cases: each one builds an AMG hierarchy on a 7 396-unknown grid
    // (big enough that `mul_vec_into` routes through the pool) and solves
    // it under three pool widths.
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// An AMG-led ladder solve is bit-for-bit identical at 1, 2 and 4
    /// pool contexts — hierarchy construction is serial and the V-cycle's
    /// parallel SpMV is bit-identical by design.
    #[test]
    fn amg_cg_bit_identical_across_pools(a in grid_spd(86, 2)) {
        let n = 86 * 86;
        let b: Vec<f64> = (0..n).map(|i| ((i % 11) as f64 - 5.0) * 1e-3).collect();
        let mut reference: Option<(Vec<f64>, usize)> = None;
        for pool in pools() {
            let solved = with_pool(pool, || solve(&a, &b, Lead::Amg));
            prop_assert_eq!(solved.report.method, SolveMethod::CgAmg);
            match &reference {
                None => reference = Some((solved.x, solved.report.iterations)),
                Some((x0, it0)) => {
                    prop_assert_eq!(*it0, solved.report.iterations);
                    for (u, v) in x0.iter().zip(&solved.x) {
                        prop_assert_eq!(u.to_bits(), v.to_bits());
                    }
                }
            }
        }
    }
}
