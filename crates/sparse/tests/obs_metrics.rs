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
    solve_robust, CsrMatrix, Lead, RobustOptions, RobustSolved, SolveError, SolveMethod,
    SolveWorkspace, TripletMatrix,
};

/// 1-D Laplacian, grounded at node 0 when `grounded` (then it solves on
/// the first rung); ungrounded it is singular.
fn laplacian_1d(n: usize, grounded: bool) -> CsrMatrix {
    let mut t = TripletMatrix::new(n, n);
    for i in 0..n - 1 {
        t.stamp_conductance(Some(i), Some(i + 1), 1.0);
    }
    if grounded {
        t.stamp_conductance(Some(0), None, 1.0);
    }
    t.to_csr()
}

/// `(ladder_solves, ladder_escalations, ladder_rescued, bicgstab_solves)`.
fn counters() -> [u64; 4] {
    let m = global();
    [
        m.ladder_solves.get(),
        m.ladder_escalations.get(),
        m.ladder_rescued.get(),
        m.bicgstab_solves.get(),
    ]
}

/// Solves from `lead` at the PDN tolerance and returns the counter deltas
/// alongside the result.
fn solve_counted(
    a: &CsrMatrix,
    b: &[f64],
    lead: Lead,
) -> (Result<RobustSolved, SolveError>, [u64; 4]) {
    let opts = RobustOptions {
        tolerance: 1e-9,
        lead,
        ..RobustOptions::default()
    };
    let before = counters();
    let sol = solve_robust(a, b, None, &opts, &mut SolveWorkspace::new());
    let after = counters();
    (sol, std::array::from_fn(|i| after[i] - before[i]))
}

#[test]
fn ladder_counters_move_in_lock_step_with_solve_reports() {
    let m = global();

    // A healthy solve: one ladder entry, zero escalations, zero rescues.
    let (sol, delta) = solve_counted(&laplacian_1d(50, true), &[1.0; 50], Lead::Jacobi);
    let sol = sol.expect("healthy solve");
    assert_eq!(sol.report.trail().split(' ').next(), Some("cg+jacobi"));
    assert_eq!(delta, [1, 0, 0, 0]);

    // A diagonal matrix above the AMG direct-solve size fails coarsening:
    // one escalation, one rescue by CG + Jacobi.
    let a = CsrMatrix::from_triplets(300, 300, &(0..300).map(|i| (i, i, 2.0)).collect::<Vec<_>>());
    let (sol, delta) = solve_counted(&a, &[1.0; 300], Lead::Amg);
    let sol = sol.expect("rescued solve");
    assert_eq!(
        sol.report.trail().split(' ').next(),
        Some("cg+amg->cg+jacobi")
    );
    assert_eq!(delta, [1, 1, 1, 0]);

    // A zero diagonal defeats Jacobi: BiCGSTAB rescues, and counts itself.
    let a = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0), (1, 0, 1.0), (1, 1, 1.0)]);
    let (sol, delta) = solve_counted(&a, &[2.0, 5.0], Lead::Jacobi);
    let sol = sol.expect("bicgstab rescue");
    assert_eq!(
        sol.report.trail().split(' ').next(),
        Some("cg+jacobi->bicgstab")
    );
    assert_eq!(delta, [1, 1, 1, 1]);

    // An ungrounded Laplacian with `b = 1` exhausts the ladder: CG and
    // BiCGSTAB each escalate once, and the shifted rung's answer misses
    // the original system by all of `b` — no rescue.
    let (sol, delta) = solve_counted(&laplacian_1d(40, false), &[1.0; 40], Lead::Jacobi);
    match sol {
        Err(SolveError::NotConverged {
            iterations: 40,
            residual,
        }) => assert!((residual - 1.0).abs() < 1e-6, "residual {residual}"),
        other => panic!("expected the shifted rung's NotConverged, got {other:?}"),
    }
    assert_eq!(delta, [1, 2, 0, 0]);

    // AMG-led solves: the hierarchy (and, on the mixed rung, its f32
    // mirror) is built inside the ladder and kept in the state, and the
    // setup counter must advance by exactly the setup time the report
    // carries, on the first solve that builds and on the re-solve that
    // reuses the cached hierarchy alike.
    let a = laplacian_1d(2000, true);
    let b = vec![1.0; a.rows()];
    for lead in [Lead::Amg, Lead::MixedAmg] {
        let opts = RobustOptions {
            lead,
            ..RobustOptions::default()
        };
        let mut state = SolveWorkspace::new();
        for round in 0..2 {
            let before = m.solver_setup_us.get();
            let sol = solve_robust(&a, &b, None, &opts, &mut state).expect("amg-led solve");
            assert!(sol.report.fallbacks.is_empty(), "{}", sol.report.trail());
            assert_ne!(sol.report.method, SolveMethod::CgJacobi);
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
