use std::error::Error;
use std::fmt;

/// Error returned when a linear solve cannot produce a solution.
///
/// All solver entry points in this crate return `Result<_, SolveError>`.
/// The variants distinguish *structural* problems (caller bugs, e.g. shape
/// mismatches) from *numerical* problems (singular matrices, stagnating
/// iterations), because callers typically want to panic on the former and
/// recover — e.g. by switching solvers or loosening tolerances — on the
/// latter.
#[derive(Debug, Clone, PartialEq)]
pub enum SolveError {
    /// Matrix and right-hand-side dimensions are inconsistent.
    DimensionMismatch {
        /// What the operation expected (rows/cols description).
        expected: usize,
        /// What was actually supplied.
        found: usize,
    },
    /// The matrix must be square for this operation but is not.
    NotSquare {
        /// Number of rows.
        rows: usize,
        /// Number of columns.
        cols: usize,
    },
    /// A zero (or numerically negligible) pivot was encountered during a
    /// direct factorization; the matrix is singular to working precision.
    SingularMatrix {
        /// Pivot index at which the factorization broke down.
        pivot: usize,
    },
    /// An iterative solver failed to reach the requested tolerance.
    NotConverged {
        /// Iterations performed before giving up.
        iterations: usize,
        /// Relative residual at the final iterate.
        residual: f64,
    },
    /// The iteration broke down (division by a vanishing inner product).
    Breakdown {
        /// Iteration at which breakdown occurred.
        iterations: usize,
    },
    /// A diagonal entry is zero to working precision, so a diagonal
    /// (Jacobi) preconditioner cannot be formed. Previously this was
    /// silently masked by substituting `1.0`; it is now surfaced so the
    /// escalation ladder (or the caller) can pick a different method.
    SingularDiagonal {
        /// Row whose diagonal entry vanishes.
        row: usize,
    },
    /// A non-finite (NaN or infinite) value was found in the inputs.
    /// Detected up front so malformed systems fail fast instead of
    /// iterating to a confusing [`SolveError::Breakdown`].
    NonFinite {
        /// Which input held the value: `"matrix"`, `"rhs"` or `"guess"`.
        what: &'static str,
        /// Index (row for the matrix, element otherwise) of the first
        /// offending value.
        index: usize,
    },
    /// A triplet fell outside a CSR matrix's stored sparsity pattern during
    /// value re-stamping ([`crate::CsrMatrix::set_values_from_triplets`]).
    /// Callers caching a symbolic pattern across re-solves treat this as
    /// "the structure changed — rebuild from scratch".
    PatternMismatch {
        /// Row of the offending triplet.
        row: usize,
        /// Column of the offending triplet.
        col: usize,
    },
    /// Algebraic-multigrid coarsening failed to shrink the problem: the
    /// aggregation pass produced (nearly) as many aggregates as unknowns,
    /// so another level would gain nothing. Typical causes are matrices
    /// with no strong off-diagonal couplings (e.g. diagonal matrices) —
    /// a *numerical* condition, so the escalation ladder falls through to
    /// a single-level preconditioner instead of failing the solve.
    CoarseningFailed {
        /// Multigrid level at which coarsening stalled (0 = finest).
        level: usize,
        /// Unknowns at the stalled level.
        unknowns: usize,
        /// Aggregates the pass produced for those unknowns.
        aggregates: usize,
    },
    /// The residual stopped improving for a full stagnation window before
    /// reaching tolerance. Distinct from [`SolveError::NotConverged`]:
    /// stagnation is detected early, leaving iteration budget for a
    /// fallback method.
    Stagnated {
        /// Iterations performed when stagnation was declared.
        iterations: usize,
        /// Relative residual at the stagnated iterate.
        residual: f64,
    },
    /// The solve was abandoned because its [`crate::cancel::CancelToken`]
    /// fired — a request deadline passed or a shutdown/drain was
    /// requested. The system may well be solvable; the caller chose to
    /// stop waiting. Never escalated past: every further rung would waste
    /// the same already-expired budget.
    Cancelled,
    /// A direct factorization would need more memory than its caller
    /// allows; detected from the symbolic structure, before allocating.
    FactorTooLarge {
        /// Bytes the factor would occupy.
        bytes: usize,
        /// The caller's limit.
        limit: usize,
    },
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::DimensionMismatch { expected, found } => {
                write!(f, "dimension mismatch: expected {expected}, found {found}")
            }
            SolveError::NotSquare { rows, cols } => {
                write!(f, "matrix must be square, got {rows}x{cols}")
            }
            SolveError::SingularMatrix { pivot } => {
                write!(
                    f,
                    "matrix is singular to working precision at pivot {pivot}"
                )
            }
            SolveError::NotConverged {
                iterations,
                residual,
            } => write!(
                f,
                "iterative solver did not converge after {iterations} iterations \
                 (relative residual {residual:.3e})"
            ),
            SolveError::Breakdown { iterations } => {
                write!(f, "iterative solver broke down at iteration {iterations}")
            }
            SolveError::SingularDiagonal { row } => {
                write!(
                    f,
                    "diagonal entry at row {row} is zero to working precision; \
                     cannot form a jacobi preconditioner"
                )
            }
            SolveError::NonFinite { what, index } => {
                write!(f, "non-finite value in {what} at index {index}")
            }
            SolveError::PatternMismatch { row, col } => {
                write!(
                    f,
                    "entry ({row}, {col}) is outside the stored sparsity pattern; \
                     the matrix structure changed and must be rebuilt"
                )
            }
            SolveError::CoarseningFailed {
                level,
                unknowns,
                aggregates,
            } => write!(
                f,
                "amg coarsening stalled at level {level}: {aggregates} aggregates \
                 for {unknowns} unknowns"
            ),
            SolveError::Stagnated {
                iterations,
                residual,
            } => write!(
                f,
                "iterative solver stagnated after {iterations} iterations \
                 (relative residual {residual:.3e})"
            ),
            SolveError::Cancelled => {
                write!(f, "solve cancelled (deadline exceeded or shutdown)")
            }
            SolveError::FactorTooLarge { bytes, limit } => {
                write!(f, "factor needs {bytes} bytes, over the {limit}-byte limit")
            }
        }
    }
}

impl Error for SolveError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_informative() {
        let e = SolveError::NotConverged {
            iterations: 10,
            residual: 0.5,
        };
        let s = e.to_string();
        assert!(s.contains("10"));
        assert!(s.starts_with("iterative"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SolveError>();
    }
}
