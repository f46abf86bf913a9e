//! Sparse linear algebra kernels for the `vstack` 3D-IC power-delivery toolkit.
//!
//! The power-delivery-network (PDN), circuit (MNA) and thermal models in
//! `vstack` all reduce to solving large, sparse systems of linear equations
//! `A x = b`. This crate provides everything those models need, with no
//! external dependencies:
//!
//! * [`TripletMatrix`] — a coordinate-format builder that tolerates duplicate
//!   entries (they are summed), which is exactly how nodal-analysis stamping
//!   works.
//! * [`CsrMatrix`] — compressed-sparse-row storage with matrix–vector
//!   products, transpose, and structural queries.
//! * [`solve_robust`] — the one solve entry point: a deterministic
//!   escalation ladder of preconditioned conjugate gradient (AMG, mixed-
//!   precision AMG or Jacobi first) for the symmetric positive-definite
//!   systems produced by resistive grids and thermal networks, with
//!   BiCGSTAB and a Tikhonov-shifted CG behind it for systems that defeat
//!   CG. A caller-owned [`SolveWorkspace`] carries the Krylov vectors and
//!   the cached AMG hierarchies across solves.
//! * [`amg`] — an aggregation-based algebraic multigrid preconditioner
//!   whose CG iteration counts stay nearly flat as grids grow; the
//!   escalation ladder leads with it on large PDN systems.
//! * [`smw`] — a Sherman–Morrison–Woodbury rank-k update sketch that
//!   answers low-rank *downdates* of a cached baseline solve (PDN fault
//!   what-ifs) with dense k×k work instead of a fresh Krylov solve.
//! * [`envelope`] — a reverse Cuthill–McKee-ordered envelope Cholesky
//!   factorization for many right-hand sides against one SPD matrix (the
//!   sketch's Woodbury columns): factor once, then two triangular sweeps
//!   per solve.
//! * [`dense`] — a small dense matrix with LU and Cholesky factorizations,
//!   used for tiny systems (converter test benches), the AMG coarsest
//!   level, and as a reference implementation in tests.
//! * [`pool`] — a std-only scoped thread pool behind the parallel kernels
//!   (row-partitioned SpMV, fixed-chunk tree reductions). All parallel
//!   paths are bit-identical to the serial ones at any thread count; set
//!   `VSTACK_THREADS` to override the default (available parallelism).
//!
//! # Example
//!
//! Solve the 1-D Poisson system `tridiag(-1, 2, -1) x = b`:
//!
//! ```
//! use vstack_sparse::{solve_robust, RobustOptions, SolveWorkspace, TripletMatrix};
//!
//! # fn main() -> Result<(), vstack_sparse::SolveError> {
//! let n = 64;
//! let mut a = TripletMatrix::new(n, n);
//! for i in 0..n {
//!     a.push(i, i, 2.0);
//!     if i + 1 < n {
//!         a.push(i, i + 1, -1.0);
//!         a.push(i + 1, i, -1.0);
//!     }
//! }
//! let a = a.to_csr();
//! let b = vec![1.0; n];
//! let sol = solve_robust(&a, &b, None, &RobustOptions::default(), &mut SolveWorkspace::new())?;
//! let r = a.residual_norm(&sol.x, &b);
//! assert!(r < 1e-8);
//! # Ok(())
//! # }
//! ```

// Unsafe code is denied by default; the only exemption is the thread pool
// (`pool`), whose lifetime-erased broadcast and partitioned slice writes
// cannot be expressed in safe Rust. Each use carries a SAFETY comment.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod csr;
mod error;
mod triplet;

pub mod amg;
pub mod cancel;
pub mod dense;
pub mod envelope;
pub mod pool;
pub mod robust;
pub mod smw;
mod solver;
pub mod vecops;

pub use amg::{AmgHierarchy, AmgHierarchyF32, AmgOptions};
pub use cancel::CancelToken;
pub use csr::CsrMatrix;
pub use envelope::EnvelopeCholesky;
pub use error::SolveError;
pub use robust::{solve_robust, Lead, RobustOptions, RobustSolved, SolveMethod, SolveReport};
pub use smw::{SmwAnswer, SmwRejection, SmwSketch, SmwUpdate};
pub use solver::SolveWorkspace;
pub use triplet::TripletMatrix;
