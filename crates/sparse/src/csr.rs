/// Compressed-sparse-row (CSR) matrix.
///
/// The workhorse storage format for all `vstack` solvers. Construct one from
/// a [`crate::TripletMatrix`] (duplicates summed) or directly from raw
/// triplets with [`CsrMatrix::from_triplets`].
///
/// # Example
///
/// ```
/// use vstack_sparse::CsrMatrix;
///
/// let m = CsrMatrix::from_triplets(2, 2, &[(0, 0, 2.0), (0, 1, -1.0), (1, 1, 3.0)]);
/// let y = m.mul_vec(&[1.0, 1.0]);
/// assert_eq!(y, vec![1.0, 3.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    /// Row pointers, length `rows + 1`.
    row_ptr: Vec<usize>,
    /// Column indices, sorted within each row.
    col_idx: Vec<usize>,
    /// Nonzero values, parallel to `col_idx`.
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from raw `(row, col, value)` triplets, summing
    /// duplicates. Column indices within each row end up sorted.
    ///
    /// Duplicates are summed **in insertion order** (the sort is stable),
    /// which keeps the result bit-identical to
    /// [`CsrMatrix::set_values_from_triplets`] re-stamping the same
    /// triplets onto this pattern.
    ///
    /// Each row is sorted and compacted in place over the scattered
    /// buffers; the only temporary is one shared scratch buffer for rows
    /// wider than an insertion sort suits, reused across rows.
    ///
    /// # Panics
    ///
    /// Panics if any triplet is out of bounds.
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(usize, usize, f64)]) -> Self {
        let mut counts = vec![0usize; rows + 1];
        for &(r, c, _) in triplets {
            assert!(r < rows && c < cols, "triplet ({r}, {c}) out of bounds");
            counts[r + 1] += 1;
        }
        for i in 0..rows {
            counts[i + 1] += counts[i];
        }
        // Scatter into row buckets (insertion order preserved per row).
        let mut next = counts.clone();
        let mut col_idx = vec![0usize; triplets.len()];
        let mut values = vec![0f64; triplets.len()];
        for &(r, c, v) in triplets {
            let slot = next[r];
            col_idx[slot] = c;
            values[slot] = v;
            next[r] += 1;
        }
        // Sort each row by column (stably) and compact duplicates, writing
        // back into the scattered buffers.
        let mut row_ptr = vec![0usize; rows + 1];
        let mut scratch: Vec<(usize, f64)> = Vec::new();
        let mut w = 0usize;
        for r in 0..rows {
            w = compact_row(
                &mut col_idx,
                &mut values,
                (counts[r], counts[r + 1]),
                w,
                &mut scratch,
            );
            row_ptr[r + 1] = w;
        }
        col_idx.truncate(w);
        values.truncate(w);
        CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Wraps CSR arrays built in this crate (sorted, duplicate-free
    /// columns within each row).
    pub(crate) fn from_raw_parts(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<f64>,
    ) -> Self {
        debug_assert_eq!(row_ptr.len(), rows + 1);
        debug_assert_eq!(col_idx.len(), values.len());
        CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Re-stamps this matrix's values from `triplets` without touching the
    /// sparsity pattern: every stored value is zeroed, then each triplet is
    /// added to its slot. Duplicates accumulate in triplet order, exactly
    /// as [`CsrMatrix::from_triplets`] sums them, so re-stamping the very
    /// triplets this matrix was built from reproduces it bit for bit.
    ///
    /// The triplets may cover a *subset* of the pattern (uncovered slots
    /// become explicit zeros) — this is what lets a PDN re-solve a faulted
    /// (entries removed) or re-loaded system on the cached pristine
    /// pattern, skipping the symbolic CSR rebuild.
    ///
    /// # Errors
    ///
    /// [`crate::SolveError::PatternMismatch`] if a triplet falls outside
    /// the stored pattern (or out of bounds). The pattern is intact after
    /// an error but the values are unspecified; rebuild with
    /// [`CsrMatrix::from_triplets`].
    pub fn set_values_from_triplets(
        &mut self,
        triplets: &[(usize, usize, f64)],
    ) -> Result<(), crate::SolveError> {
        self.values.fill(0.0);
        for &(r, c, v) in triplets {
            if r >= self.rows || c >= self.cols {
                return Err(crate::SolveError::PatternMismatch { row: r, col: c });
            }
            let (lo, hi) = (self.row_ptr[r], self.row_ptr[r + 1]);
            match self.col_idx[lo..hi].binary_search(&c) {
                Ok(k) => self.values[lo + k] += v,
                Err(_) => return Err(crate::SolveError::PatternMismatch { row: r, col: c }),
            }
        }
        Ok(())
    }

    /// Builds an `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        CsrMatrix {
            rows: n,
            cols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n).collect(),
            values: vec![1.0; n],
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries (including explicit zeros).
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Returns the value at `(row, col)`, or `0.0` if not stored.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        let (lo, hi) = (self.row_ptr[row], self.row_ptr[row + 1]);
        match self.col_idx[lo..hi].binary_search(&col) {
            Ok(k) => self.values[lo + k],
            Err(_) => 0.0,
        }
    }

    /// Raw CSR arrays `(row_ptr, col_idx, values)` for in-crate consumers
    /// that stream the whole matrix (f32 hierarchy conversion) without
    /// per-row bounds checks.
    pub(crate) fn raw_parts(&self) -> (&[usize], &[usize], &[f64]) {
        (&self.row_ptr, &self.col_idx, &self.values)
    }

    /// Returns `(column indices, values)` of the stored entries in `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    pub fn row(&self, row: usize) -> (&[usize], &[f64]) {
        assert!(row < self.rows, "row {row} out of bounds");
        let (lo, hi) = (self.row_ptr[row], self.row_ptr[row + 1]);
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }

    /// Computes `y = A x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "mul_vec dimension mismatch");
        let mut y = vec![0.0; self.rows];
        self.mul_vec_into(x, &mut y);
        y
    }

    /// Serial per-row kernel shared by the serial and parallel SpMV paths,
    /// so both produce identical bits for every row.
    #[inline]
    fn row_dot(&self, r: usize, x: &[f64]) -> f64 {
        let (lo, hi) = (self.row_ptr[r], self.row_ptr[r + 1]);
        let mut acc = 0.0;
        for k in lo..hi {
            acc += self.values[k] * x[self.col_idx[k]];
        }
        acc
    }

    /// Computes `y = A x` into a caller-provided buffer (no allocation).
    ///
    /// Large matrices (≥ [`CsrMatrix::PAR_SPMV_MIN_NNZ`] stored entries)
    /// route through the active thread pool; each row's accumulation order
    /// is fixed, so the result is bit-identical at any thread count.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()` or `y.len() != self.rows()`.
    pub fn mul_vec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "mul_vec dimension mismatch (x)");
        assert_eq!(y.len(), self.rows, "mul_vec dimension mismatch (y)");
        if self.nnz() >= Self::PAR_SPMV_MIN_NNZ {
            crate::pool::active(|p| self.par_mul_vec_into(p, x, y));
            return;
        }
        for (r, yr) in y.iter_mut().enumerate() {
            *yr = self.row_dot(r, x);
        }
    }

    /// Stored-entry count above which [`CsrMatrix::mul_vec_into`] runs on
    /// the active thread pool. Below it, a pool broadcast costs more than
    /// the product itself.
    pub const PAR_SPMV_MIN_NNZ: usize = 32_768;

    /// Computes `y = A x` on an explicit pool, partitioning rows so each
    /// context gets a contiguous range of roughly equal stored-entry count.
    /// Bit-identical to the serial [`CsrMatrix::mul_vec_into`] for any
    /// context count.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()` or `y.len() != self.rows()`.
    pub fn par_mul_vec_into(&self, pool: &crate::pool::ThreadPool, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "mul_vec dimension mismatch (x)");
        assert_eq!(y.len(), self.rows, "mul_vec dimension mismatch (y)");
        let contexts = pool.contexts();
        if contexts == 1 || self.rows < 2 {
            for (r, yr) in y.iter_mut().enumerate() {
                *yr = self.row_dot(r, x);
            }
            return;
        }
        // Row boundaries balancing stored entries: context t starts at the
        // first row whose entries begin at or after t/contexts of the nnz.
        let nnz = self.nnz();
        let mut starts: Vec<usize> = (0..=contexts)
            .map(|t| {
                let target = nnz * t / contexts;
                self.row_ptr.partition_point(|&p| p < target).min(self.rows)
            })
            .collect();
        // Trailing empty rows share row_ptr == nnz; force the last
        // boundary to cover them so every y element is written.
        starts[contexts] = self.rows;
        let out = crate::pool::SharedSliceMut::new(y);
        pool.run(&|ctx| {
            for r in starts[ctx]..starts[ctx + 1] {
                // SAFETY: the row ranges are disjoint across contexts and
                // `r < self.rows = out.len()`.
                #[allow(unsafe_code)]
                unsafe {
                    out.set(r, self.row_dot(r, x))
                };
            }
        });
    }

    /// Returns the transpose `Aᵀ`.
    ///
    /// A counting sort by column: walking the rows in order leaves each
    /// transposed row's columns sorted, with every value copied as is.
    pub fn transpose(&self) -> CsrMatrix {
        let mut row_ptr = vec![0usize; self.cols + 1];
        for &c in &self.col_idx {
            row_ptr[c + 1] += 1;
        }
        for c in 0..self.cols {
            row_ptr[c + 1] += row_ptr[c];
        }
        let mut next = row_ptr[..self.cols].to_vec();
        let mut col_idx = vec![0usize; self.nnz()];
        let mut values = vec![0.0f64; self.nnz()];
        for r in 0..self.rows {
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                let slot = &mut next[self.col_idx[k]];
                col_idx[*slot] = r;
                values[*slot] = self.values[k];
                *slot += 1;
            }
        }
        CsrMatrix {
            rows: self.cols,
            cols: self.rows,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Sparse matrix-matrix product `A · B`.
    ///
    /// Classic row-wise SpGEMM with a dense accumulator per output row.
    /// Accumulation order is fixed by the CSR storage order of both
    /// operands and output columns are emitted sorted, so the result is
    /// bit-identical across runs — the AMG Galerkin triple-product
    /// `Pᵀ (A P)` relies on this for cross-thread determinism.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &CsrMatrix) -> CsrMatrix {
        self.spgemm(other, true)
    }

    /// The Galerkin coarse operator `Pᵀ·(A·P)`, equal bit for bit to
    /// `pt.matmul(&a.matmul(p))`.
    ///
    /// The intermediate `A·P` keeps each row's columns in the order they
    /// were first reached instead of sorting them: each entry of
    /// `Pᵀ·(A·P)` sums its terms in the order of `Pᵀ`'s row, and a row of
    /// `A·P` holds each column once, so its column order cannot move a
    /// bit of the product.
    pub(crate) fn galerkin(pt: &CsrMatrix, a: &CsrMatrix, p: &CsrMatrix) -> CsrMatrix {
        pt.spgemm(&a.spgemm(p, false), true)
    }

    /// Row-wise SpGEMM core of [`CsrMatrix::matmul`]. With `sorted` false
    /// each output row lists its columns in first-touch order, which
    /// breaks this type's sorted-row invariant: only
    /// [`CsrMatrix::galerkin`] uses it, for an intermediate it never
    /// hands out.
    fn spgemm(&self, other: &CsrMatrix, sorted: bool) -> CsrMatrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul dimension mismatch: {}x{} · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut row_ptr = Vec::with_capacity(self.rows + 1);
        row_ptr.push(0usize);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        // Dense accumulator + last-seen-row markers, reused across rows.
        let mut acc = vec![0.0f64; other.cols];
        let mut marker = vec![usize::MAX; other.cols];
        for r in 0..self.rows {
            let lo = col_idx.len();
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                let a_val = self.values[k];
                let mid = self.col_idx[k];
                for kk in other.row_ptr[mid]..other.row_ptr[mid + 1] {
                    let c = other.col_idx[kk];
                    if marker[c] != r {
                        marker[c] = r;
                        col_idx.push(c);
                        acc[c] = 0.0;
                    }
                    acc[c] += a_val * other.values[kk];
                }
            }
            let row = &mut col_idx[lo..];
            if sorted {
                row.sort_unstable();
            }
            values.extend(row.iter().map(|&c| acc[c]));
            row_ptr.push(col_idx.len());
        }
        CsrMatrix {
            rows: self.rows,
            cols: other.cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Returns the main diagonal as a dense vector (zeros where unset).
    pub fn diagonal(&self) -> Vec<f64> {
        let n = self.rows.min(self.cols);
        (0..n).map(|i| self.get(i, i)).collect()
    }

    /// `‖b − A x‖₂` — handy for verifying solver output.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn residual_norm(&self, x: &[f64], b: &[f64]) -> f64 {
        assert_eq!(b.len(), self.rows, "residual dimension mismatch");
        let ax = self.mul_vec(x);
        ax.iter()
            .zip(b)
            .map(|(a, bb)| (bb - a) * (bb - a))
            .sum::<f64>()
            .sqrt()
    }

    /// Checks symmetry to an absolute tolerance.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        let t = self.transpose();
        for (r, c, v) in self.iter() {
            if (t.get(r, c) - v).abs() > tol {
                return false;
            }
        }
        true
    }

    /// Iterates over stored `(row, col, value)` entries in row-major order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            matrix: self,
            row: 0,
            k: 0,
        }
    }

    /// Converts to a dense row-major `Vec<Vec<f64>>` (for small matrices and
    /// tests).
    pub fn to_dense(&self) -> Vec<Vec<f64>> {
        let mut d = vec![vec![0.0; self.cols]; self.rows];
        for (r, c, v) in self.iter() {
            d[r][c] += v;
        }
        d
    }
}

/// Iterator over the stored entries of a [`CsrMatrix`].
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    matrix: &'a CsrMatrix,
    row: usize,
    k: usize,
}

impl Iterator for Iter<'_> {
    type Item = (usize, usize, f64);

    fn next(&mut self) -> Option<Self::Item> {
        while self.row < self.matrix.rows {
            if self.k < self.matrix.row_ptr[self.row + 1] {
                let item = (
                    self.row,
                    self.matrix.col_idx[self.k],
                    self.matrix.values[self.k],
                );
                self.k += 1;
                return Some(item);
            }
            self.row += 1;
        }
        None
    }
}

/// Sorts the row held at `lo..hi` of `cols`/`vals` stably by column and
/// sums duplicate columns in their original order, writing the compacted
/// row from `w ≤ lo` on; returns the index one past its last entry. The
/// write cursor never overtakes the read cursor (compaction only
/// shrinks), so no entry is clobbered before it is read.
///
/// This is how [`CsrMatrix::from_triplets`] sums duplicates, and the AMG
/// prolongator assembles its rows with it too.
pub(crate) fn compact_row(
    cols: &mut [usize],
    vals: &mut [f64],
    (lo, hi): (usize, usize),
    mut w: usize,
    scratch: &mut Vec<(usize, f64)>,
) -> usize {
    sort_row_stable(&mut cols[lo..hi], &mut vals[lo..hi], scratch);
    let mut i = lo;
    while i < hi {
        let c = cols[i];
        let mut v = vals[i];
        let mut j = i + 1;
        while j < hi && cols[j] == c {
            v += vals[j];
            j += 1;
        }
        cols[w] = c;
        vals[w] = v;
        w += 1;
        i = j;
    }
    w
}

/// Stably co-sorts one row's `(column, value)` pairs by column, in place.
///
/// Narrow rows (the overwhelmingly common case for nodal matrices, whose
/// rows hold a handful of neighbor couplings) use an in-place insertion
/// sort — stable, allocation-free, and fast at these widths. Wide rows
/// spill into `scratch`, the single buffer shared across all rows of one
/// matrix build, and use the standard (stable) sort.
///
/// Stability is load-bearing: duplicate columns must stay in insertion
/// order so duplicate summation matches
/// [`CsrMatrix::set_values_from_triplets`] bit for bit.
fn sort_row_stable(cols: &mut [usize], vals: &mut [f64], scratch: &mut Vec<(usize, f64)>) {
    const INSERTION_MAX: usize = 32;
    debug_assert_eq!(cols.len(), vals.len());
    if cols.len() <= INSERTION_MAX {
        for i in 1..cols.len() {
            let (c, v) = (cols[i], vals[i]);
            let mut j = i;
            while j > 0 && cols[j - 1] > c {
                cols[j] = cols[j - 1];
                vals[j] = vals[j - 1];
                j -= 1;
            }
            cols[j] = c;
            vals[j] = v;
        }
    } else {
        scratch.clear();
        scratch.extend(cols.iter().copied().zip(vals.iter().copied()));
        scratch.sort_by_key(|&(c, _)| c);
        for (k, &(c, v)) in scratch.iter().enumerate() {
            cols[k] = c;
            vals[k] = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> CsrMatrix {
        CsrMatrix::from_triplets(
            3,
            3,
            &[
                (0, 0, 4.0),
                (0, 1, -1.0),
                (1, 0, -1.0),
                (1, 1, 4.0),
                (1, 2, -1.0),
                (2, 1, -1.0),
                (2, 2, 4.0),
            ],
        )
    }

    #[test]
    fn duplicates_are_summed() {
        let m = CsrMatrix::from_triplets(1, 1, &[(0, 0, 1.0), (0, 0, 2.5)]);
        assert_eq!(m.get(0, 0), 3.5);
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    fn mul_vec_matches_dense() {
        let m = sample();
        let x = [1.0, 2.0, 3.0];
        let y = m.mul_vec(&x);
        assert_eq!(y, vec![2.0, 4.0, 10.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = CsrMatrix::from_triplets(2, 3, &[(0, 2, 5.0), (1, 0, -2.0)]);
        let t = m.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        assert_eq!(t.get(2, 0), 5.0);
        assert_eq!(t.get(0, 1), -2.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn symmetric_detection() {
        assert!(sample().is_symmetric(0.0));
        let asym = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0)]);
        assert!(!asym.is_symmetric(1e-12));
    }

    #[test]
    fn identity_behaves() {
        let i = CsrMatrix::identity(4);
        let x = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(i.mul_vec(&x), x.to_vec());
        assert_eq!(i.nnz(), 4);
    }

    #[test]
    fn diagonal_extraction() {
        assert_eq!(sample().diagonal(), vec![4.0, 4.0, 4.0]);
    }

    #[test]
    fn iter_visits_all_entries() {
        let m = sample();
        assert_eq!(m.iter().count(), 7);
        let total: f64 = m.iter().map(|(_, _, v)| v).sum();
        assert_eq!(total, 12.0 - 4.0);
    }

    #[test]
    fn residual_norm_of_exact_solution_is_zero() {
        let m = CsrMatrix::identity(3);
        let b = [1.0, 2.0, 3.0];
        assert_eq!(m.residual_norm(&b, &b), 0.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mul_vec_wrong_len_panics() {
        sample().mul_vec(&[1.0, 2.0]);
    }

    #[test]
    fn empty_rows_are_fine() {
        let m = CsrMatrix::from_triplets(3, 3, &[(0, 0, 1.0)]);
        assert_eq!(m.mul_vec(&[1.0, 1.0, 1.0]), vec![1.0, 0.0, 0.0]);
        assert_eq!(m.row(1).0.len(), 0);
    }

    /// Pseudo-random triplets (LCG; no external rand in unit tests).
    fn scrambled_triplets(rows: usize, cols: usize, n: usize) -> Vec<(usize, usize, f64)> {
        let mut state = 0x2545F4914F6CDD1Du64;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let r = (state >> 33) as usize % rows;
                let c = (state >> 17) as usize % cols;
                let v = ((state >> 11) & 0xFFFF) as f64 / 1024.0 - 32.0;
                (r, c, v)
            })
            .collect()
    }

    #[test]
    fn wide_rows_take_the_scratch_path_and_stay_sorted() {
        // One row with > 32 entries (forcing the shared-scratch sort) plus
        // duplicates; verify sorted columns and correct sums.
        let mut t: Vec<(usize, usize, f64)> = (0..40).rev().map(|c| (0, c, c as f64)).collect();
        t.push((0, 7, 100.0));
        let m = CsrMatrix::from_triplets(1, 40, &t);
        let (cols, _) = m.row(0);
        assert!(cols.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(m.get(0, 7), 107.0);
        assert_eq!(m.get(0, 39), 39.0);
    }

    #[test]
    fn set_values_from_triplets_reproduces_from_triplets_bitwise() {
        let triplets = scrambled_triplets(60, 60, 900);
        let reference = CsrMatrix::from_triplets(60, 60, &triplets);
        let mut restamped = reference.clone();
        // Perturb, then re-stamp the same triplets: must match bit for bit,
        // including insertion-order duplicate summation.
        restamped.values.iter_mut().for_each(|v| *v = f64::NAN);
        restamped.set_values_from_triplets(&triplets).unwrap();
        assert_eq!(restamped, reference);
    }

    #[test]
    fn set_values_accepts_subset_pattern() {
        let full = &[(0, 0, 2.0), (0, 1, -1.0), (1, 0, -1.0), (1, 1, 2.0)];
        let mut m = CsrMatrix::from_triplets(2, 2, full);
        m.set_values_from_triplets(&[(0, 0, 5.0), (1, 1, 7.0)])
            .unwrap();
        assert_eq!(m.get(0, 0), 5.0);
        assert_eq!(m.get(0, 1), 0.0);
        assert_eq!(m.get(1, 1), 7.0);
        assert_eq!(m.nnz(), 4, "pattern must be preserved");
    }

    #[test]
    fn set_values_rejects_pattern_violations() {
        let mut m = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 1, 1.0)]);
        let err = m.set_values_from_triplets(&[(0, 1, 3.0)]).unwrap_err();
        assert!(matches!(
            err,
            crate::SolveError::PatternMismatch { row: 0, col: 1 }
        ));
        let err = m.set_values_from_triplets(&[(5, 0, 3.0)]).unwrap_err();
        assert!(matches!(
            err,
            crate::SolveError::PatternMismatch { row: 5, .. }
        ));
    }

    #[test]
    fn par_mul_vec_is_bit_identical_to_serial() {
        let triplets = scrambled_triplets(200, 200, 3000);
        let m = CsrMatrix::from_triplets(200, 200, &triplets);
        let x: Vec<f64> = (0..200)
            .map(|i| ((i * 37 + 11) % 53) as f64 * 0.1 - 2.0)
            .collect();
        let mut serial = vec![0.0; 200];
        for (r, yr) in serial.iter_mut().enumerate() {
            *yr = m.row_dot(r, &x);
        }
        for contexts in [1, 2, 4] {
            let pool = crate::pool::ThreadPool::new(contexts);
            let mut y = vec![f64::NAN; 200];
            m.par_mul_vec_into(&pool, &x, &mut y);
            let same = y
                .iter()
                .zip(&serial)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "contexts = {contexts}");
        }
    }

    #[test]
    fn matmul_matches_dense_product() {
        let a =
            CsrMatrix::from_triplets(2, 3, &[(0, 0, 1.0), (0, 2, 2.0), (1, 1, -3.0), (1, 2, 0.5)]);
        let b =
            CsrMatrix::from_triplets(3, 2, &[(0, 0, 4.0), (0, 1, 1.0), (1, 0, -1.0), (2, 1, 2.0)]);
        let c = a.matmul(&b);
        assert_eq!(c.to_dense(), vec![vec![4.0, 5.0], vec![3.0, 1.0]]);
        // Columns sorted within each row.
        for r in 0..c.rows() {
            let (cols, _) = c.row(r);
            assert!(cols.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn matmul_with_empty_rows_and_cancellation() {
        // Row 1 of `a` is empty; the (0,0) product entry cancels to 0.0
        // but stays stored (pattern, not value, decides storage).
        let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 1, 1.0)]);
        let b = CsrMatrix::from_triplets(2, 1, &[(0, 0, 1.0), (1, 0, -1.0)]);
        let c = a.matmul(&b);
        assert_eq!(c.rows(), 2);
        assert_eq!(c.cols(), 1);
        assert_eq!(c.to_dense(), vec![vec![0.0], vec![0.0]]);
        let (cols, vals) = c.row(0);
        assert_eq!(cols, &[0]);
        assert_eq!(vals, &[0.0]);
        assert_eq!(c.row(1).0.len(), 0);
    }

    /// `m`'s arrays with its values as bits, so `-0.0 != 0.0`.
    fn bits(m: &CsrMatrix) -> (Vec<usize>, Vec<usize>, Vec<u64>) {
        let (rp, ci, v) = m.raw_parts();
        (
            rp.to_vec(),
            ci.to_vec(),
            v.iter().map(|x| x.to_bits()).collect(),
        )
    }

    /// `a · b` through triplets: every product term in row-major emission
    /// order, summed by [`CsrMatrix::from_triplets`].
    fn product_via_triplets(a: &CsrMatrix, b: &CsrMatrix) -> CsrMatrix {
        let mut t = Vec::new();
        for (r, k, av) in a.iter() {
            let (cols, vals) = b.row(k);
            t.extend(cols.iter().zip(vals).map(|(&c, &bv)| (r, c, av * bv)));
        }
        CsrMatrix::from_triplets(a.rows(), b.cols(), &t)
    }

    /// Triplets with no zero values, so every product term is nonzero and
    /// the triplet reference's first term equals the accumulator's `0 + t`.
    fn nonzero_triplets(
        rows: usize,
        cols: usize,
    ) -> impl Strategy<Value = Vec<(usize, usize, f64)>> {
        prop::collection::vec((0..rows, 0..cols, 0.5..4.0f64, 0..2usize), 0..6 * rows).prop_map(
            |t| {
                t.into_iter()
                    .map(|(r, c, v, neg)| (r, c, if neg == 1 { -v } else { v }))
                    .collect()
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn transpose_matches_the_triplet_reference_bitwise(
            t in nonzero_triplets(23, 17),
        ) {
            let m = CsrMatrix::from_triplets(23, 17, &t);
            let swapped: Vec<_> = m.iter().map(|(r, c, v)| (c, r, v)).collect();
            let want = CsrMatrix::from_triplets(17, 23, &swapped);
            let got = m.transpose();
            prop_assert_eq!((got.rows(), got.cols()), (17, 23));
            prop_assert_eq!(bits(&got), bits(&want));
        }

        #[test]
        fn galerkin_matches_the_triplet_reference_bitwise(
            a in nonzero_triplets(30, 30),
            p in nonzero_triplets(30, 9),
        ) {
            let a = CsrMatrix::from_triplets(30, 30, &a);
            let p = CsrMatrix::from_triplets(30, 9, &p);
            let pt = p.transpose();
            let want = product_via_triplets(&pt, &product_via_triplets(&a, &p));
            let got = CsrMatrix::galerkin(&pt, &a, &p);
            prop_assert_eq!(bits(&got), bits(&want));
            prop_assert_eq!(bits(&got), bits(&pt.matmul(&a.matmul(&p))));
        }
    }

    #[test]
    fn par_mul_vec_writes_trailing_empty_rows() {
        // Rows 2..8 are empty; the partition must still zero them.
        let m = CsrMatrix::from_triplets(8, 8, &[(0, 0, 1.0), (1, 1, 2.0)]);
        let pool = crate::pool::ThreadPool::new(4);
        let mut y = vec![f64::NAN; 8];
        m.par_mul_vec_into(&pool, &[1.0; 8], &mut y);
        assert_eq!(y, vec![1.0, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
    }
}
