//! Envelope Cholesky against an independent oracle.
//!
//! On random grounded grid Laplacians of at most 200 unknowns — irregular
//! conductances, a few long-range "TSV" edges so the pattern is not a
//! plain mesh — the RCM envelope factor must solve to within 1e-12 of
//! dense LU (`vstack_sparse::dense`, which shares no code with it), give
//! the same bits on every call and at every pool width, and refuse
//! singular or indefinite matrices with a `SolveError` instead of
//! panicking or returning garbage.

use std::sync::Arc;

use proptest::prelude::*;
use vstack_sparse::dense::DenseMatrix;
use vstack_sparse::pool::{with_pool, ThreadPool};
use vstack_sparse::{CsrMatrix, EnvelopeCholesky, SolveError, TripletMatrix};

/// An `nx × ny` grid with per-edge conductances drawn from `weights`,
/// `long_edges` extra node pairs, and a grounding rail at each of `rails`
/// (none makes the Laplacian singular).
fn laplacian(
    nx: usize,
    ny: usize,
    weights: &[f64],
    long_edges: &[(usize, usize)],
    rails: &[usize],
) -> CsrMatrix {
    let n = nx * ny;
    let mut t = TripletMatrix::new(n, n);
    let mut k = 0usize;
    let mut weight = || {
        k += 1;
        weights[k % weights.len()]
    };
    for j in 0..ny {
        for i in 0..nx {
            let a = j * nx + i;
            if i + 1 < nx {
                t.stamp_conductance(Some(a), Some(a + 1), weight());
            }
            if j + 1 < ny {
                t.stamp_conductance(Some(a), Some(a + nx), weight());
            }
        }
    }
    for &(a, b) in long_edges {
        let (a, b) = (a % n, b % n);
        if a != b {
            t.stamp_conductance(Some(a), Some(b), weight());
        }
    }
    for &r in rails {
        t.stamp_conductance(Some(r % n), None, weight());
    }
    t.to_csr()
}

fn dense(a: &CsrMatrix) -> DenseMatrix {
    let mut d = DenseMatrix::zeros(a.rows(), a.cols());
    for r in 0..a.rows() {
        let (cols, vals) = a.row(r);
        for (&c, &v) in cols.iter().zip(vals) {
            d[(r, c)] = v;
        }
    }
    d
}

fn solve(f: &EnvelopeCholesky, b: &[f64]) -> Vec<f64> {
    let (mut x, mut work) = (vec![0.0; b.len()], vec![0.0; b.len()]);
    f.solve_into(b, &mut x, &mut work);
    x
}

fn rhs(n: usize, seed: f64) -> Vec<f64> {
    (0..n).map(|i| ((i as f64 + seed) * 0.7).sin()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every solution matches dense LU to 1e-12, relative to its size.
    #[test]
    fn matches_dense_lu(
        nx in 1usize..15,
        ny in 1usize..14,
        weights in prop::collection::vec(0.5..2.0f64, 1..16),
        long_edges in prop::collection::vec((0usize..200, 0usize..200), 0..6),
        rails in prop::collection::vec(0usize..200, 1..5),
        seed in 0.0..10.0f64,
    ) {
        let a = laplacian(nx, ny, &weights, &long_edges, &rails);
        let b = rhs(a.rows(), seed);
        let x = solve(&EnvelopeCholesky::factor(&a).expect("grounded grid is SPD"), &b);
        let reference = dense(&a).solve(&b).expect("dense LU");
        let scale = reference.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let err = x
            .iter()
            .zip(&reference)
            .fold(0.0f64, |m, (p, q)| m.max((p - q).abs()));
        prop_assert!(err <= 1e-12 * scale, "error {err} at scale {scale}");
    }

    /// Factor and solve give the same bits on every call and inside pools
    /// of 1, 2 and 4 contexts.
    #[test]
    fn bit_identical_across_calls_and_pool_widths(
        nx in 2usize..15,
        ny in 2usize..14,
        weights in prop::collection::vec(0.5..2.0f64, 1..16),
        long_edges in prop::collection::vec((0usize..200, 0usize..200), 0..6),
        rails in prop::collection::vec(0usize..200, 1..5),
    ) {
        let a = laplacian(nx, ny, &weights, &long_edges, &rails);
        let b = rhs(a.rows(), 1.5);
        let first = EnvelopeCholesky::factor(&a).unwrap();
        let x0 = solve(&first, &b);
        prop_assert_eq!(&solve(&first, &b), &x0);
        for contexts in [1usize, 2, 4] {
            let pool = Arc::new(ThreadPool::new(contexts));
            let (f, x) = with_pool(&pool, || {
                let f = EnvelopeCholesky::factor(&a).unwrap();
                let x = solve(&f, &b);
                (f, x)
            });
            prop_assert_eq!(&f, &first);
            prop_assert_eq!(&x, &x0);
        }
    }

    /// A floating (ungrounded) Laplacian is singular and an SPD matrix
    /// with one diagonal entry pushed negative is indefinite: both are
    /// refused with a structured error.
    #[test]
    fn singular_and_indefinite_are_refused(
        nx in 1usize..15,
        ny in 2usize..14,
        weights in prop::collection::vec(0.5..2.0f64, 1..16),
        long_edges in prop::collection::vec((0usize..200, 0usize..200), 0..6),
        rails in prop::collection::vec(0usize..200, 1..5),
        flip in 0usize..200,
    ) {
        let floating = laplacian(nx, ny, &weights, &long_edges, &[]);
        let err = EnvelopeCholesky::factor(&floating).unwrap_err();
        prop_assert!(matches!(err, SolveError::SingularMatrix { .. }), "{:?}", err);

        let a = laplacian(nx, ny, &weights, &long_edges, &rails);
        let n = a.rows();
        let node = flip % n;
        let mut triplets = Vec::new();
        for r in 0..n {
            let (cols, vals) = a.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                let v = if r == node && c == node { -v } else { v };
                triplets.push((r, c, v));
            }
        }
        let indefinite = CsrMatrix::from_triplets(n, n, &triplets);
        let err = EnvelopeCholesky::factor(&indefinite).unwrap_err();
        prop_assert!(matches!(err, SolveError::SingularMatrix { .. }), "{:?}", err);
    }
}

#[test]
fn non_finite_and_non_square_inputs_are_refused() {
    let nan = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 1, f64::NAN)]);
    assert_eq!(
        EnvelopeCholesky::factor(&nan).unwrap_err(),
        SolveError::NonFinite {
            what: "matrix",
            index: 1
        }
    );
    let wide = CsrMatrix::from_triplets(2, 3, &[(0, 0, 1.0), (1, 1, 1.0)]);
    assert_eq!(
        EnvelopeCholesky::factor(&wide).unwrap_err(),
        SolveError::NotSquare { rows: 2, cols: 3 }
    );
}
