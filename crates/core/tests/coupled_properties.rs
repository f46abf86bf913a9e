//! Property-based tests of the thermal–EM–IR coupled driver: the fixed
//! point must not depend on the damping path taken to it, coupling must
//! respond monotonically to the thermal boundary, and the whole
//! iteration must reuse one symbolic factorization.
//!
//! The scratch-reuse test counts pattern builds on its own `SolveScratch`,
//! not on the process-global metrics registry, so sibling tests solving
//! concurrently in this binary cannot disturb it.

use proptest::prelude::*;
use vstack::coupled::{solve_coupled, CoupledConfig, CoupledLoad};
use vstack::pdn::{SolveScratch, TsvTopology};
use vstack::scenario::DesignScenario;

fn quick_scenario(n_layers: usize) -> DesignScenario {
    let mut p = DesignScenario::paper_baseline().pdn_params().clone();
    p.grid_refinement = 1;
    DesignScenario::paper_baseline()
        .params(p)
        .layers(n_layers)
        .tsv_topology(TsvTopology::Few)
        .power_c4_fraction(0.25)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The fixed point is a property of the physics, not of the damping
    /// factor: any stable damping converges to the same layer
    /// temperatures (within a few multiples of the tolerance).
    #[test]
    fn fixed_point_is_damping_invariant(damping in 0.3..0.9f64, layers in 2usize..5) {
        let s = quick_scenario(layers);
        let reference = CoupledConfig::paper_air_cooled();
        let mut varied = reference;
        varied.damping = damping;
        let mut scratch = SolveScratch::new();
        let a = solve_coupled(&s, CoupledLoad::RegularPeak, &reference, None, &mut scratch)
            .expect("reference solve");
        let b = solve_coupled(&s, CoupledLoad::RegularPeak, &varied, None, &mut scratch)
            .expect("varied solve");
        prop_assert!(a.report.converged && b.report.converged);
        for (ta, tb) in a.report.layer_temps_c.iter().zip(&b.report.layer_temps_c) {
            prop_assert!(
                (ta - tb).abs() < 4.0 * reference.tolerance_c,
                "layer temps diverged across damping: {ta} vs {tb}"
            );
        }
    }

    /// Hotter ambient can only shorten the coupled C4 lifetime, and the
    /// stack itself must sit above whichever ambient it is given.
    #[test]
    fn hotter_ambient_shortens_coupled_lifetime(delta_c in 5.0..30.0f64) {
        let s = quick_scenario(4);
        let cool = CoupledConfig::paper_air_cooled();
        let warm = cool.ambient_c(45.0 + delta_c);
        let mut scratch = SolveScratch::new();
        let a = solve_coupled(&s, CoupledLoad::RegularPeak, &cool, None, &mut scratch)
            .expect("cool solve");
        let b = solve_coupled(&s, CoupledLoad::RegularPeak, &warm, None, &mut scratch)
            .expect("warm solve");
        prop_assert!(a.report.converged && b.report.converged);
        prop_assert!(b.report.peak_temperature_c > a.report.peak_temperature_c + delta_c * 0.5);
        prop_assert!(b.report.em.c4_hours < a.report.em.c4_hours);
        prop_assert!(a.report.layer_temps_c.iter().all(|t| *t > 45.0));
    }
}

#[test]
fn coupling_iterations_reuse_one_symbolic_factorization() {
    let s = quick_scenario(4);
    let config = CoupledConfig::paper_air_cooled();
    let mut scratch = SolveScratch::new();
    let out = solve_coupled(&s, CoupledLoad::RegularPeak, &config, None, &mut scratch)
        .expect("coupled solve");
    assert!(out.report.converged);
    assert!(out.report.iterations >= 2);
    // One symbolic pattern build for the first assembly; every later
    // iteration re-stamps values into the same sparsity pattern.
    let built = scratch.pattern_builds();
    assert_eq!(
        built, 1,
        "coupled run rebuilt the pattern {built} times over {} iterations",
        out.report.iterations
    );
    assert!(scratch.pattern_reuses() >= 1);
}
