//! Reverse Cuthill–McKee-ordered envelope (skyline) Cholesky factorization.
//!
//! A direct solver for the many-right-hand-sides case: once `A = L Lᵀ` is
//! factored, every further solve is two triangular sweeps over the stored
//! envelope, with no iteration and no preconditioner set-up. The fault
//! sketch (`vstack-pdn`) uses it to materialize its Woodbury columns
//! `A₀⁻¹ uⱼ` — hundreds to thousands of solves against one matrix.
//!
//! The matrix is first renumbered by reverse Cuthill–McKee (RCM), which
//! pulls every row's nonzeros towards the diagonal. Row `k` of `L` is then
//! stored densely from its first structural nonzero to the diagonal (its
//! *envelope*); Cholesky fill never leaves the envelope, so the storage is
//! known before any arithmetic runs and can be checked against a byte
//! limit up front. PDN grids are layered 2-D meshes, whose RCM envelopes
//! stay a few grid lines wide.
//!
//! Everything is serial with a fixed summation order, so factors and
//! solutions are bit-identical across calls and thread-pool widths.

use crate::csr::CsrMatrix;
use crate::error::SolveError;

/// A pivot must exceed this fraction of its row's original diagonal.
/// Rounding leaves a singular matrix's vanishing pivot near `1e-16` of the
/// diagonal rather than at zero; an SPD grid Laplacian's smallest pivot
/// sits orders of magnitude above this floor.
const PIVOT_FLOOR: f64 = 1e-12;

/// `L Lᵀ` factors of a symmetric positive-definite matrix in RCM order,
/// reusable across any number of right-hand sides.
#[derive(Debug, Clone, PartialEq)]
pub struct EnvelopeCholesky {
    /// `perm[k]` is the original index of permuted row `k`.
    perm: Vec<usize>,
    /// Column of the first stored entry of each permuted row of `L`.
    first: Vec<usize>,
    /// Offset of each row's envelope in `values` (length `n + 1`); row `k`
    /// holds `L[k, first[k]..=k]`, diagonal last.
    row_ptr: Vec<usize>,
    values: Vec<f64>,
}

impl EnvelopeCholesky {
    /// Factors the symmetric positive-definite `a` with no size limit.
    ///
    /// # Errors
    ///
    /// As for [`EnvelopeCholesky::factor_within`].
    pub fn factor(a: &CsrMatrix) -> Result<Self, SolveError> {
        Self::factor_within(a, usize::MAX)
    }

    /// Factors the symmetric positive-definite `a`, refusing before any
    /// allocation of the factor if its envelope would exceed `max_bytes`.
    ///
    /// `a` must be symmetric; only the entries that land in the lower
    /// triangle of the RCM-permuted matrix are read.
    ///
    /// # Errors
    ///
    /// * [`SolveError::NotSquare`] if `a` is not square.
    /// * [`SolveError::NonFinite`] if `a` stores a NaN or infinity.
    /// * [`SolveError::FactorTooLarge`] if the envelope exceeds
    ///   `max_bytes`.
    /// * [`SolveError::SingularMatrix`] if a pivot is not clearly positive
    ///   (`a` is singular or indefinite); `pivot` is the original row.
    pub fn factor_within(a: &CsrMatrix, max_bytes: usize) -> Result<Self, SolveError> {
        if a.rows() != a.cols() {
            return Err(SolveError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let n = a.rows();
        if let Some(row) = (0..n).find(|&r| a.row(r).1.iter().any(|v| !v.is_finite())) {
            return Err(SolveError::NonFinite {
                what: "matrix",
                index: row,
            });
        }
        let perm = reverse_cuthill_mckee(a);
        let mut inv = vec![0usize; n];
        for (k, &p) in perm.iter().enumerate() {
            inv[p] = k;
        }
        let first: Vec<usize> = perm
            .iter()
            .enumerate()
            .map(|(k, &p)| a.row(p).0.iter().map(|&c| inv[c]).fold(k, usize::min))
            .collect();
        let mut row_ptr = Vec::with_capacity(n + 1);
        row_ptr.push(0usize);
        for (k, &f) in first.iter().enumerate() {
            row_ptr.push(row_ptr[k] + k - f + 1);
        }
        let bytes = row_ptr[n].saturating_mul(std::mem::size_of::<f64>());
        if bytes > max_bytes {
            return Err(SolveError::FactorTooLarge {
                bytes,
                limit: max_bytes,
            });
        }
        let mut values = vec![0.0; row_ptr[n]];
        for (k, &p) in perm.iter().enumerate() {
            let (cols, vals) = a.row(p);
            for (&c, &v) in cols.iter().zip(vals) {
                let j = inv[c];
                if j <= k {
                    values[row_ptr[k] + j - first[k]] = v;
                }
            }
        }

        // Row-by-row (bordered) Cholesky: row k needs only rows j < k,
        // which are already final, and every inner product runs over the
        // overlap of two contiguous envelope slices.
        for k in 0..n {
            let fk = first[k];
            let (done, rest) = values.split_at_mut(row_ptr[k]);
            let row = &mut rest[..=k - fk];
            for j in fk..k {
                let fj = first[j];
                let row_j = &done[row_ptr[j]..row_ptr[j + 1]];
                let lo = fk.max(fj);
                let s = dot(&row[lo - fk..j - fk], &row_j[lo - fj..j - fj]);
                row[j - fk] = (row[j - fk] - s) / row_j[j - fj];
            }
            let diag = row[k - fk];
            let d = diag - dot(&row[..k - fk], &row[..k - fk]);
            if d.is_nan() || d <= PIVOT_FLOOR * diag.abs() {
                return Err(SolveError::SingularMatrix { pivot: perm[k] });
            }
            row[k - fk] = d.sqrt();
        }
        Ok(EnvelopeCholesky {
            perm,
            first,
            row_ptr,
            values,
        })
    }

    /// Dimension of the factored system.
    pub fn dim(&self) -> usize {
        self.perm.len()
    }

    /// Bytes held by the stored envelope of `L`.
    pub fn envelope_bytes(&self) -> usize {
        self.values.len() * std::mem::size_of::<f64>()
    }

    /// Solves `A x = b` with two triangular sweeps, using `work` (length
    /// [`EnvelopeCholesky::dim`]) for the permuted intermediate. Allocates
    /// nothing.
    ///
    /// # Panics
    ///
    /// Panics if `b`, `x` or `work` is not [`EnvelopeCholesky::dim`] long.
    pub fn solve_into(&self, b: &[f64], x: &mut [f64], work: &mut [f64]) {
        let n = self.dim();
        assert!(
            b.len() == n && x.len() == n && work.len() == n,
            "envelope solve dimension mismatch"
        );
        for (w, &p) in work.iter_mut().zip(&self.perm) {
            *w = b[p];
        }
        // Forward: L y = P b.
        for k in 0..n {
            let fk = self.first[k];
            let row = &self.values[self.row_ptr[k]..self.row_ptr[k + 1]];
            let (before, at) = work.split_at_mut(k);
            at[0] = (at[0] - dot(&row[..k - fk], &before[fk..])) / row[k - fk];
        }
        // Backward: Lᵀ z = y, scattering each finished z_k up its row.
        for k in (0..n).rev() {
            let fk = self.first[k];
            let row = &self.values[self.row_ptr[k]..self.row_ptr[k + 1]];
            let (before, at) = work.split_at_mut(k);
            at[0] /= row[k - fk];
            let zk = at[0];
            for (w, l) in before[fk..].iter_mut().zip(&row[..k - fk]) {
                *w -= l * zk;
            }
        }
        for (w, &p) in work.iter().zip(&self.perm) {
            x[p] = *w;
        }
    }
}

/// Four-accumulator dot product: a fixed summation order that still lets
/// the compiler keep independent multiply-adds in flight.
#[inline]
fn dot(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = [0.0f64; 4];
    let (a4, b4) = (a.chunks_exact(4), b.chunks_exact(4));
    let tail: f64 = a4
        .remainder()
        .iter()
        .zip(b4.remainder())
        .map(|(x, y)| x * y)
        .sum();
    for (x, y) in a4.zip(b4) {
        for i in 0..4 {
            acc[i] += x[i] * y[i];
        }
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// Off-diagonal neighbours of `i` in the sparsity pattern of `a`.
fn neighbours(a: &CsrMatrix, i: usize) -> impl Iterator<Item = usize> + '_ {
    a.row(i).0.iter().copied().filter(move |&c| c != i)
}

/// Breadth-first level structure rooted at `root`, within `root`'s
/// connected component. Fills `queue` in visit order, stamping `mark`
/// with `stamp`, and returns `(depth, start of the last level in queue)`.
fn level_structure(
    a: &CsrMatrix,
    root: usize,
    mark: &mut [usize],
    stamp: usize,
    queue: &mut Vec<usize>,
) -> (usize, usize) {
    queue.clear();
    queue.push(root);
    mark[root] = stamp;
    let (mut depth, mut level_start, mut head) = (0, 0, 0);
    while head < queue.len() {
        let level_end = queue.len();
        for q in head..level_end {
            for c in neighbours(a, queue[q]) {
                if mark[c] != stamp {
                    mark[c] = stamp;
                    queue.push(c);
                }
            }
        }
        head = level_end;
        if queue.len() > level_end {
            depth += 1;
            level_start = level_end;
        }
    }
    (depth, level_start)
}

/// Reverse Cuthill–McKee ordering of the pattern of `a`: `perm[k]` is the
/// original node placed at position `k`. Each connected component starts
/// from a George–Liu pseudo-peripheral node; neighbours are visited in
/// increasing degree, ties broken by index, so the ordering is fully
/// deterministic.
fn reverse_cuthill_mckee(a: &CsrMatrix) -> Vec<usize> {
    let n = a.rows();
    let degree: Vec<usize> = (0..n).map(|i| neighbours(a, i).count()).collect();
    let mut seeds: Vec<usize> = (0..n).collect();
    seeds.sort_by_key(|&i| (degree[i], i));
    let mut visited = vec![false; n];
    let mut mark = vec![usize::MAX; n];
    let mut queue = Vec::with_capacity(n);
    let mut order = Vec::with_capacity(n);
    let mut nbrs = Vec::new();
    let mut stamp = 0;
    for &seed in &seeds {
        if visited[seed] {
            continue;
        }
        // Pseudo-peripheral root: hop to the lowest-degree node of the
        // deepest level while that keeps deepening the level structure.
        let mut root = seed;
        let (mut depth, mut last) = level_structure(a, root, &mut mark, stamp, &mut queue);
        loop {
            let candidate = *queue[last..]
                .iter()
                .min_by_key(|&&c| (degree[c], c))
                .expect("a level structure has a last level");
            stamp += 1;
            let (d, l) = level_structure(a, candidate, &mut mark, stamp, &mut queue);
            if d <= depth {
                break;
            }
            (root, depth, last) = (candidate, d, l);
        }
        stamp += 1;
        // Cuthill–McKee breadth-first sweep from the root.
        let start = order.len();
        order.push(root);
        visited[root] = true;
        let mut head = start;
        while head < order.len() {
            let v = order[head];
            head += 1;
            nbrs.clear();
            nbrs.extend(neighbours(a, v).filter(|&c| !visited[c]));
            nbrs.sort_by_key(|&c| (degree[c], c));
            for &c in &nbrs {
                visited[c] = true;
                order.push(c);
            }
        }
    }
    order.reverse();
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TripletMatrix;

    /// `nx × ny` grid Laplacian with unit edges, grounded at node 0.
    fn grounded_grid(nx: usize, ny: usize) -> CsrMatrix {
        let n = nx * ny;
        let mut t = TripletMatrix::new(n, n);
        for j in 0..ny {
            for i in 0..nx {
                let a = j * nx + i;
                if i + 1 < nx {
                    t.stamp_conductance(Some(a), Some(a + 1), 1.0);
                }
                if j + 1 < ny {
                    t.stamp_conductance(Some(a), Some(a + nx), 1.0);
                }
            }
        }
        t.stamp_conductance(Some(0), None, 0.5);
        t.to_csr()
    }

    #[test]
    fn rcm_is_a_permutation_that_narrows_a_grid() {
        let a = grounded_grid(12, 5);
        let perm = reverse_cuthill_mckee(&a);
        let mut seen = perm.clone();
        seen.sort_unstable();
        assert_eq!(seen, (0..60).collect::<Vec<_>>());
        // Natural order has bandwidth nx = 12; RCM finds the short side.
        let f = EnvelopeCholesky::factor(&a).unwrap();
        let widest = (0..60).map(|k| k - f.first[k]).max().unwrap();
        assert!(widest <= 6, "RCM envelope width {widest}");
    }

    #[test]
    fn solves_a_grounded_grid() {
        let a = grounded_grid(7, 6);
        let f = EnvelopeCholesky::factor(&a).unwrap();
        let b: Vec<f64> = (0..42).map(|i| (i as f64 * 0.37).sin()).collect();
        let (mut x, mut work) = (vec![0.0; 42], vec![0.0; 42]);
        f.solve_into(&b, &mut x, &mut work);
        assert!(a.residual_norm(&x, &b) < 1e-12);
    }

    #[test]
    fn floating_grid_is_singular() {
        let mut t = TripletMatrix::new(4, 4);
        for i in 0..3 {
            t.stamp_conductance(Some(i), Some(i + 1), 2.0);
        }
        let err = EnvelopeCholesky::factor(&t.to_csr()).unwrap_err();
        assert!(matches!(err, SolveError::SingularMatrix { .. }), "{err:?}");
    }

    #[test]
    fn byte_limit_is_checked_before_factoring() {
        let a = grounded_grid(6, 6);
        let bytes = EnvelopeCholesky::factor(&a).unwrap().envelope_bytes();
        assert!(EnvelopeCholesky::factor_within(&a, bytes).is_ok());
        assert_eq!(
            EnvelopeCholesky::factor_within(&a, bytes - 1).unwrap_err(),
            SolveError::FactorTooLarge {
                bytes,
                limit: bytes - 1
            }
        );
    }

    #[test]
    fn empty_matrix_factors() {
        let f = EnvelopeCholesky::factor(&CsrMatrix::from_triplets(0, 0, &[])).unwrap();
        f.solve_into(&[], &mut [], &mut []);
        assert_eq!(f.dim(), 0);
    }
}
