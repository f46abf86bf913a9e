//! Robustness integration tests: the escalation ladder's fallback trail,
//! fault injection through the scenario layer, and the wearout loop's
//! terminal states, exercised end to end across the workspace crates.

use vstack::experiments::ext_wearout::{wearout, WearoutConfig, WearoutOutcome};
use vstack::experiments::Fidelity;
use vstack::pdn::{FaultSet, PdnError, SolveScratch};
use vstack::scenario::{DesignScenario, ScenarioLoad};
use vstack::sparse::robust::FallbackStep;
use vstack::sparse::{
    solve_robust, CsrMatrix, Lead, RobustOptions, SolveError, SolveMethod, SolveWorkspace,
};

/// The escalation ladder rescues a system that defeats every CG rung, and
/// its `SolveReport` records the full fallback trail. A zero diagonal
/// entry (in a decoupled, well-posed 2×2 block) stops both the AMG build's
/// smoother and Jacobi scaling, so an AMG-led solve falls through to
/// unpreconditioned BiCGSTAB, whose answer must reproduce `x_true`.
#[test]
fn escalation_ladder_reports_its_fallback_trail() {
    let n = 300;
    let mut triplets: Vec<_> = (0..n).map(|i| (i, i, 1.0 + (i % 7) as f64)).collect();
    triplets.extend([(n, n + 1, 1.0), (n + 1, n, 1.0), (n + 1, n + 1, 1.0)]);
    let a = CsrMatrix::from_triplets(n + 2, n + 2, &triplets);
    let x_true: Vec<f64> = (0..n + 2).map(|i| (i as f64 * 0.3).sin()).collect();
    let b = a.mul_vec(&x_true);
    let opts = RobustOptions {
        lead: Lead::Amg,
        ..RobustOptions::default()
    };
    let sol = solve_robust(&a, &b, None, &opts, &mut SolveWorkspace::new()).expect("rescued");

    let singular = |from| FallbackStep {
        from,
        error: SolveError::SingularDiagonal { row: n },
    };
    assert_eq!(
        sol.report.fallbacks,
        [
            singular(SolveMethod::CgAmg),
            singular(SolveMethod::CgJacobi)
        ]
    );
    assert_eq!(sol.report.method, SolveMethod::BiCgStab);
    let trail = sol.report.trail();
    assert!(
        trail.starts_with("cg+amg->cg+jacobi->bicgstab ("),
        "trail: {trail}"
    );
    for (u, v) in sol.x.iter().zip(&x_true) {
        assert!((u - v).abs() < 1e-8, "x = {:?}", sol.x);
    }
}

/// A healthy PDN solved through the reported path needs no rescue, and
/// its report carries a meaningful converged residual.
#[test]
fn healthy_scenario_solve_is_unrescued() {
    let s = DesignScenario::paper_baseline().layers(2).coarse_grid();
    let sol = s
        .solve_faulted(
            ScenarioLoad::RegularPeak,
            &FaultSet::new(),
            None,
            &mut SolveScratch::new(),
        )
        .expect("healthy");
    assert!(!sol.report.was_rescued(), "trail: {}", sol.report.trail());
    assert!(sol.report.relative_residual <= 1e-8);
    assert!(sol.report.iterations > 0);
}

/// Killing every power pad of the regular topology yields the structured
/// [`PdnError::Disconnected`] — no panic, no raw solver breakdown.
#[test]
fn killing_every_pad_reports_disconnected() {
    let s = DesignScenario::paper_baseline().layers(2).coarse_grid();
    let pdn = s.regular_pdn();
    let mut faults = FaultSet::new();
    for ord in 0..pdn.c4().vdd_count() {
        faults.fail_vdd_pad(ord);
    }
    for ord in 0..pdn.c4().gnd_count() {
        faults.fail_gnd_pad(ord);
    }
    match s.solve_faulted(
        ScenarioLoad::RegularPeak,
        &faults,
        None,
        &mut SolveScratch::new(),
    ) {
        Err(PdnError::Disconnected { floating_nodes, .. }) => {
            assert!(floating_nodes > 0);
        }
        other => panic!("expected Disconnected, got {other:?}"),
    }
}

/// The wearout loop runs to a clean terminal state on both topologies and
/// produces monotonically worsening degradation curves, with the V-S
/// stack degrading more gracefully than the regular PDN.
#[test]
fn wearout_loop_terminates_cleanly_on_both_topologies() {
    let cfg = WearoutConfig {
        fidelity: Fidelity::Quick,
        kill_fraction_per_round: 0.10,
        max_rounds: 6,
        ..WearoutConfig::default()
    };
    let reg = wearout(&cfg, ScenarioLoad::RegularPeak, 4).expect("regular curve");
    let vs = wearout(&cfg, ScenarioLoad::VoltageStacked(0.0), 4).expect("v-s curve");
    for curve in [&reg, &vs] {
        assert!(
            curve.points.len() >= 2,
            "{}: {:?}",
            curve.label,
            curve.outcome
        );
        for p in &curve.points {
            assert!(p.max_ir_drop_frac.is_finite() && p.max_ir_drop_frac >= 0.0);
        }
        // Terminal states are data, not errors.
        assert!(matches!(
            curve.outcome,
            WearoutOutcome::Disconnected { .. }
                | WearoutOutcome::DropLimitExceeded { .. }
                | WearoutOutcome::SolverExhausted { .. }
                | WearoutOutcome::Survived
        ));
    }
    assert!(
        vs.degradation_slope() < reg.degradation_slope(),
        "V-S slope {} vs regular {}",
        vs.degradation_slope(),
        reg.degradation_slope()
    );
}
