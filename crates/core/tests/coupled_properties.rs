//! Property-based tests of the thermal–EM–IR coupled loop: the
//! undamped loop must land on the fixed point within its tolerance in a
//! few iterations, at every corner of the thermal domain the request
//! validator admits; coupling must respond monotonically to the thermal
//! boundary; and the whole iteration must reuse one symbolic
//! factorization.
//!
//! The scratch-reuse test counts pattern builds on its own `SolveScratch`,
//! not on the process-global metrics registry, so sibling tests solving
//! concurrently in this binary cannot disturb it.

use proptest::prelude::*;
use vstack::coupled::{solve_coupled, CoupledConfig};
use vstack::pdn::{SolveScratch, TsvTopology};
use vstack::scenario::{DesignScenario, ScenarioLoad};

fn quick_scenario(n_layers: usize) -> DesignScenario {
    let mut p = DesignScenario::paper_baseline().pdn_params().clone();
    p.grid_refinement = 1;
    DesignScenario::paper_baseline()
        .params(p)
        .layers(n_layers)
        .tsv_topology(TsvTopology::Few)
        .power_c4_fraction(0.25)
}

/// The regular peak load, or the V-S load at a mid-range imbalance.
fn load(stacked: bool) -> ScenarioLoad {
    if stacked {
        ScenarioLoad::VoltageStacked(0.3)
    } else {
        ScenarioLoad::RegularPeak
    }
}

/// Runs `config` and, as the oracle, the same run iterated to
/// `tolerance_c = 1e-9`. Checks that both converged and returns the
/// run's iteration count and its max layer-temperature distance from the
/// oracle, °C.
fn distance_to_fixed_point(
    s: &DesignScenario,
    load: ScenarioLoad,
    config: &CoupledConfig,
    case: &str,
) -> (usize, f64) {
    let tight = CoupledConfig {
        tolerance_c: 1e-9,
        ..*config
    };
    let mut scratch = SolveScratch::new();
    let run = solve_coupled(s, load, config, None, &mut scratch).expect("coupled solve");
    let oracle = solve_coupled(s, load, &tight, None, &mut scratch).expect("oracle solve");
    assert!(
        run.report.converged && oracle.report.converged,
        "{case}: fell back (run residual {} °C after {} iterations, oracle {} °C after {})",
        run.report.residual_c,
        run.report.iterations,
        oracle.report.residual_c,
        oracle.report.iterations
    );
    let distance = run
        .report
        .layer_temps_c
        .iter()
        .zip(&oracle.report.layer_temps_c)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    (run.report.iterations, distance)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The undamped loop stops within a tenth of its tolerance of the
    /// fixed point, in at most three iterations: the map is a strong
    /// contraction, so one re-solve already lands on it.
    #[test]
    fn undamped_run_lands_on_the_fixed_point(
        layers in 2usize..5,
        stacked in 0usize..2,
        ambient_c in 25.0..75.0f64,
    ) {
        let s = quick_scenario(layers);
        let config = CoupledConfig::paper_air_cooled().ambient_c(ambient_c);
        let case = format!("{layers} layers, {ambient_c} °C, stacked {stacked}");
        let (iterations, distance) =
            distance_to_fixed_point(&s, load(stacked == 1), &config, &case);
        prop_assert!(iterations <= 3, "{case}: took {iterations} iterations");
        prop_assert!(
            distance < config.tolerance_c / 10.0,
            "{case}: stopped {distance} °C from the fixed point"
        );
    }

    /// Hotter ambient can only shorten the coupled C4 lifetime, and the
    /// stack itself must sit above whichever ambient it is given.
    #[test]
    fn hotter_ambient_shortens_coupled_lifetime(delta_c in 5.0..30.0f64) {
        let s = quick_scenario(4);
        let cool = CoupledConfig::paper_air_cooled();
        let warm = cool.ambient_c(45.0 + delta_c);
        let mut scratch = SolveScratch::new();
        let a = solve_coupled(&s, ScenarioLoad::RegularPeak, &cool, None, &mut scratch)
            .expect("cool solve");
        let b = solve_coupled(&s, ScenarioLoad::RegularPeak, &warm, None, &mut scratch)
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
    let out = solve_coupled(&s, ScenarioLoad::RegularPeak, &config, None, &mut scratch)
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

/// Every corner of the thermal domain that `ScenarioRequest::validate`
/// admits (ambient −55/150 °C, sink 0.2/100 K/W, hotspot 0/1000 W) on
/// both loads and a shallow and a deep stack converges without fallback,
/// well inside the 25-iteration cap, and lands on the fixed point.
#[test]
fn validated_thermal_corners_converge_to_the_fixed_point() {
    for layers in [2, 8] {
        let s = quick_scenario(layers);
        for ambient_c in [-55.0, 150.0] {
            for sink_k_per_w in [0.2, 100.0] {
                for hotspot_w in [0.0, 1000.0] {
                    for stacked in [false, true] {
                        let config = CoupledConfig::paper_air_cooled()
                            .ambient_c(ambient_c)
                            .sink_resistance(sink_k_per_w)
                            .hotspot(0, hotspot_w);
                        let corner = format!(
                            "{layers} layers, {ambient_c} °C, {sink_k_per_w} K/W, \
                             {hotspot_w} W, stacked {stacked}"
                        );
                        let (iterations, distance) =
                            distance_to_fixed_point(&s, load(stacked), &config, &corner);
                        assert!(iterations <= 6, "{corner}: took {iterations} iterations");
                        assert!(
                            distance < config.tolerance_c / 10.0,
                            "{corner}: stopped {distance} °C from the fixed point"
                        );
                    }
                }
            }
        }
    }
}
