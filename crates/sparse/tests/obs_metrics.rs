//! Exact-count checks of the global `vstack-obs` metrics registry against
//! the escalation ladder.
//!
//! The registry is process-wide, so this file holds a **single** test:
//! `cargo test` runs each integration-test binary as its own process, and
//! with one test in the binary no sibling thread can bump the counters
//! between our before/after reads. Do not add more `#[test]`s here —
//! start another single-test file instead.

use vstack_obs::metrics::global;
use vstack_sparse::{
    solve_robust, solve_robust_cached_ws, CsrMatrix, RobustOptions, SolveMethod, SolveWorkspace,
    TripletMatrix,
};

/// Kershaw's 4×4 SPD matrix: zero-fill incomplete Cholesky breaks down
/// with a negative pivot, forcing at least one ladder escalation.
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

/// 1-D grounded Laplacian: solves on the first rung, no escalation.
fn laplacian_1d(n: usize) -> CsrMatrix {
    let mut t = TripletMatrix::new(n, n);
    for i in 0..n {
        t.push(i, i, if i == 0 { 3.0 } else { 2.0 });
        if i + 1 < n {
            t.push(i, i + 1, -1.0);
            t.push(i + 1, i, -1.0);
        }
    }
    t.to_csr()
}

#[test]
fn ladder_counters_move_in_lock_step_with_solve_reports() {
    let m = global();
    let opts = RobustOptions::default();

    // A healthy solve: one ladder entry, zero escalations, zero rescues.
    let before = (
        m.ladder_solves.get(),
        m.ladder_escalations.get(),
        m.ladder_rescued.get(),
    );
    let a = laplacian_1d(50);
    let sol = solve_robust(&a, &vec![1.0; 50], None, &opts).expect("healthy solve");
    assert!(sol.report.fallbacks.is_empty());
    assert_eq!(m.ladder_solves.get(), before.0 + 1);
    assert_eq!(m.ladder_escalations.get(), before.1);
    assert_eq!(m.ladder_rescued.get(), before.2);

    // Kershaw defeats IC(0): the escalation counter must advance by
    // exactly the number of recorded fallback steps, and the rescue
    // counter by exactly one.
    let before = (
        m.ladder_solves.get(),
        m.ladder_escalations.get(),
        m.ladder_rescued.get(),
    );
    let a = kershaw();
    let b = a.mul_vec(&[1.0, 2.0, -1.0, 0.5]);
    let sol = solve_robust(&a, &b, None, &opts).expect("rescued solve");
    assert!(!sol.report.fallbacks.is_empty(), "{}", sol.report.trail());
    assert_eq!(
        sol.report.fallbacks[0].from,
        SolveMethod::CgIncompleteCholesky
    );
    assert_eq!(m.ladder_solves.get(), before.0 + 1);
    assert_eq!(
        m.ladder_escalations.get(),
        before.1 + sol.report.fallbacks.len() as u64,
        "one escalation per recorded fallback step: {}",
        sol.report.trail()
    );
    assert_eq!(m.ladder_rescued.get(), before.2 + 1);

    // A zero diagonal defeats IC(0) *and* Jacobi: still exactly one
    // counter tick per fallback step, across a deeper trail.
    let before = m.ladder_escalations.get();
    let a = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0), (1, 0, 1.0), (1, 1, 1.0)]);
    let sol = solve_robust(&a, &[2.0, 5.0], None, &opts).expect("bicgstab rescue");
    assert!(sol.report.fallbacks.len() >= 2, "{}", sol.report.trail());
    assert_eq!(
        m.ladder_escalations.get(),
        before + sol.report.fallbacks.len() as u64
    );

    // AMG-led solves through the cached ladder entry: the hierarchy (and,
    // on the mixed rung, its f32 mirror) is built inside the ladder, and
    // the setup counter must advance by exactly the setup time the report
    // carries, on the first solve that builds and on the re-solve that
    // reuses the cached hierarchy alike.
    let a = laplacian_1d(2000);
    let b = vec![1.0; a.rows()];
    for opts in [
        RobustOptions {
            start_with_amg: true,
            ..RobustOptions::default()
        },
        RobustOptions {
            start_with_mixed: true,
            ..RobustOptions::default()
        },
    ] {
        let mut cache = None;
        let mut ws = SolveWorkspace::new();
        for round in 0..2 {
            let before = m.solver_setup_us.get();
            let sol = solve_robust_cached_ws(&a, &b, None, &opts, &mut ws, &mut cache)
                .expect("amg-led solve");
            assert!(sol.report.fallbacks.is_empty(), "{}", sol.report.trail());
            if round == 0 {
                assert!(sol.report.setup_us > 0, "the first solve builds");
            }
            assert_eq!(
                m.solver_setup_us.get(),
                before + sol.report.setup_us,
                "round {round} of {}",
                sol.report.method
            );
        }
    }

    // The snapshot serialization sees the same values the accessors do.
    let snapshot = vstack_obs::metrics::snapshot_json();
    assert!(snapshot.contains(&format!(
        "\"ladder_escalations\":{}",
        m.ladder_escalations.get()
    )));
}
