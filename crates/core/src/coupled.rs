//! Thermal–EM–IR fixed-point co-simulation.
//!
//! Closes the loop the uncoupled studies leave open: the IR solve gives a
//! power map, [`StackThermalModel`] turns it into per-layer temperatures,
//! temperature raises the copper resistivity of each layer's on-chip grid
//! ([`vstack_pdn::PdnParams::layer_r_scale`]) and rescales Black's
//! equation through [`BlackModel::at_temperature`], and the PDN is
//! re-solved under the drifted resistances. The loop is iterated to an
//! **undamped fixed point** (plain Picard): each thermal solve's layer
//! means become the new temperature estimate, and the loop stops when
//! that update falls below [`CoupledConfig::tolerance_c`].
//!
//! Load cores are ideal current sources (paper §3.2), so the dominant
//! heat term is constant and the feedback runs only through the resistive
//! wire losses. The map is order-preserving (a hotter grid loses more in
//! its wires, so it gets hotter still) and a strong contraction, so
//! damping could only slow it down: paper-scale grids converge in two
//! iterations, and every corner of the served thermal domain in at most
//! six (asserted in `crates/core/tests/coupled_properties.rs`).
//! If the iteration cap is hit anyway, the driver degrades gracefully:
//! it warns once, counts the event in `coupling_nonconverged`, and
//! returns the uncoupled solution and fixed-junction EM lifetimes with
//! the convergence report attached.
//!
//! Every re-solve goes through one shared [`SolveScratch`], so after the
//! first (pattern-building) solve each iteration only re-stamps values
//! into the cached CSR pattern — zero symbolic refactorizations, which
//! the integration tests assert via [`SolveScratch::pattern_builds`].

use crate::em_study::{c4_array_lifetime, paper_em_lifetimes, tsv_array_lifetime, EmLifetimes};
use crate::scenario::{DesignScenario, ScenarioLoad};
use vstack_em::black::{BlackModel, DEFAULT_JUNCTION_K};
use vstack_pdn::{FaultSet, FaultedSolution, PdnError, SolveScratch, StackLoads};
use vstack_thermal::{StackThermalModel, ThermalParams};

/// Temperature coefficient of copper resistivity, 1/K.
pub const COPPER_ALPHA_PER_K: f64 = 0.00393;

/// Knobs of the coupled fixed-point driver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoupledConfig {
    /// Thermal stack parameters (ambient, heatsink, materials).
    pub thermal: ThermalParams,
    /// Optional hotspot injection: extra watts spread uniformly over the
    /// cells of one layer (ambient/heat-sink sweeps use the thermal
    /// params instead).
    pub hotspot_layer: Option<usize>,
    /// Extra hotspot power in watts (total for the layer).
    pub hotspot_w: f64,
    /// Iteration cap before the driver gives up and falls back to the
    /// uncoupled result.
    pub max_iterations: usize,
    /// Convergence threshold on the per-iteration max layer-mean
    /// temperature change, °C.
    pub tolerance_c: f64,
    /// Temperature coefficient applied to the on-chip grid resistance,
    /// 1/K.
    pub alpha_per_k: f64,
    /// Reference temperature of the nominal (Table 1) resistances, °C.
    /// At this temperature the resistance scale is exactly 1.0, so the
    /// uncoupled baseline is recovered.
    pub reference_c: f64,
}

impl CoupledConfig {
    /// Paper platform defaults: air-cooled stack, 25-iteration cap,
    /// 0.05 °C tolerance, copper resistivity slope, 80 °C reference (the
    /// uncoupled EM junction temperature).
    pub fn paper_air_cooled() -> Self {
        CoupledConfig {
            thermal: ThermalParams::paper_air_cooled(),
            hotspot_layer: None,
            hotspot_w: 0.0,
            max_iterations: 25,
            tolerance_c: 0.05,
            alpha_per_k: COPPER_ALPHA_PER_K,
            reference_c: DEFAULT_JUNCTION_K - 273.15,
        }
    }

    /// Sets the ambient temperature, °C.
    pub fn ambient_c(mut self, t: f64) -> Self {
        self.thermal.ambient_c = t;
        self
    }

    /// Sets the heatsink resistance, K/W.
    pub fn sink_resistance(mut self, k_per_w: f64) -> Self {
        self.thermal.sink_resistance_k_per_w = k_per_w;
        self
    }

    /// Injects `watts` of extra power uniformly over `layer`'s cells.
    pub fn hotspot(mut self, layer: usize, watts: f64) -> Self {
        self.hotspot_layer = Some(layer);
        self.hotspot_w = watts;
        self
    }

    fn validate(&self) {
        assert!(self.max_iterations > 0, "need at least one iteration");
        assert!(
            self.tolerance_c.is_finite() && self.tolerance_c > 0.0,
            "tolerance must be positive"
        );
        assert!(
            self.alpha_per_k.is_finite() && self.alpha_per_k >= 0.0,
            "alpha must be non-negative"
        );
    }
}

/// Convergence diagnostics and temperature-aware EM results of one
/// coupled run.
#[derive(Debug, Clone, PartialEq)]
pub struct CoupledReport {
    /// Fixed-point iterations performed (thermal solve + IR re-solve
    /// pairs).
    pub iterations: usize,
    /// Whether the temperature update fell below the tolerance within
    /// the iteration cap.
    pub converged: bool,
    /// Max layer-mean temperature change of the last iteration, °C — the
    /// residual the convergence criterion judges.
    pub residual_c: f64,
    /// Mean temperature of each layer from the final thermal solve, °C
    /// (index 0 = bottom): the fixed point when the loop converged, the
    /// last unconverged estimate when it fell back.
    pub layer_temps_c: Vec<f64>,
    /// Hotspot cell temperature of the final thermal solve, °C.
    pub peak_temperature_c: f64,
    /// EM lifetimes at the coupled per-layer temperatures; equal to
    /// `em_uncoupled` when the loop fell back.
    pub em: EmLifetimes,
    /// EM lifetimes of the uncoupled baseline (fixed 80 °C junction).
    pub em_uncoupled: EmLifetimes,
}

/// Electrical solution plus coupling diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct CoupledSolution {
    /// The final IR solve — at the drifted resistances when the loop
    /// converged, the uncoupled baseline when it did not.
    pub solved: FaultedSolution,
    /// Convergence report and temperature-scaled EM lifetimes.
    pub report: CoupledReport,
}

/// Per-layer, per-cell heat map in watts: constant core power (ideal
/// current sources at nominal Vdd) plus the solution's resistive and
/// converter losses spread proportionally to layer current, plus any
/// hotspot injection.
fn power_map(
    scenario: &DesignScenario,
    loads: &StackLoads,
    solved: &FaultedSolution,
    config: &CoupledConfig,
) -> Vec<Vec<f64>> {
    let vdd = scenario.pdn_params().vdd;
    let n_layers = loads.n_layers();
    let cells = loads.cores_per_layer();
    let loss_w = (solved.solution.p_input_w + solved.solution.p_parasitic_w
        - solved.solution.p_loads_w)
        .max(0.0);
    let total_i = loads.total_current().max(f64::MIN_POSITIVE);
    let mut power: Vec<Vec<f64>> = (0..n_layers)
        .map(|layer| {
            let layer_loss_cell = loss_w * loads.layer_current(layer) / total_i / cells as f64;
            (0..cells)
                .map(|core| loads.core_current(layer, core) * vdd + layer_loss_cell)
                .collect()
        })
        .collect();
    if let Some(layer) = config.hotspot_layer {
        if layer < n_layers && config.hotspot_w > 0.0 {
            let extra = config.hotspot_w / cells as f64;
            for cell in &mut power[layer] {
                *cell += extra;
            }
        }
    }
    power
}

/// Runs the undamped thermal–EM–IR fixed point for the PDN and loads
/// `load` selects.
///
/// `guess` seeds the first (uncoupled) IR solve — without one (the
/// engine passes none) it starts at the nominal rail voltages; each
/// subsequent iteration warm-starts from the previous iteration's
/// voltages through the same `scratch`, so only the first solve builds
/// the CSR pattern.
///
/// # Errors
///
/// Propagates [`PdnError`] from the electrical solves and wraps thermal
/// CG failures as [`PdnError::Solve`]. Non-convergence of the *coupling
/// loop* is not an error: the run falls back to the uncoupled solve and
/// its fixed-junction EM lifetimes (`report.converged == false`).
///
/// # Panics
///
/// Panics if `config` is out of range (see [`CoupledConfig`] field docs)
/// or a drifted resistance scale becomes non-positive.
pub fn solve_coupled(
    scenario: &DesignScenario,
    load: ScenarioLoad,
    config: &CoupledConfig,
    guess: Option<&[f64]>,
    scratch: &mut SolveScratch,
) -> Result<CoupledSolution, PdnError> {
    config.validate();
    let metrics = vstack_obs::metrics::global();
    metrics.coupling_runs.inc();
    let _span = vstack_obs::span!("coupled_solve");

    let loads = scenario.loads(load);
    let n_layers = scenario.n_layers();
    let thermal = StackThermalModel::new(
        config.thermal,
        n_layers,
        scenario.pdn_params().core_cols,
        scenario.pdn_params().core_rows,
    );

    // Uncoupled baseline: nominal resistances, fixed-junction EM. Kept as
    // the graceful-degradation fallback.
    let healthy = FaultSet::new();
    let base = scenario.solve_faulted(load, &healthy, guess, scratch)?;
    let em_uncoupled = paper_em_lifetimes(&base.solution);

    let mut temps = vec![config.thermal.ambient_c; n_layers];
    let mut last = base.clone();
    let mut peak_c = config.thermal.ambient_c;
    let mut residual_c = f64::INFINITY;
    let mut iterations = 0;
    let mut converged = false;
    while iterations < config.max_iterations {
        let _iter_span = vstack_obs::span!("coupling_iteration");
        iterations += 1;
        metrics.coupling_iterations.inc();

        let power = power_map(scenario, &loads, &last, config);
        let tsol = thermal.solve(&power).map_err(PdnError::Solve)?;
        peak_c = tsol.max_temperature_c();
        let fresh: Vec<f64> = (0..n_layers).map(|l| tsol.layer_mean_c(l)).collect();
        residual_c = fresh
            .iter()
            .zip(&temps)
            .map(|(new, old)| (new - old).abs())
            .fold(0.0, f64::max);
        metrics
            .coupling_delta_t_mk
            .observe((residual_c * 1000.0).round() as u64);
        temps = fresh;

        if residual_c < config.tolerance_c {
            converged = true;
            break;
        }

        // Drift the per-layer grid resistances and re-solve warm; the
        // sparsity pattern is unchanged, so this is a values-only
        // re-stamp through the shared scratch.
        let mut params = scenario.pdn_params().clone();
        params.layer_r_scale = temps
            .iter()
            .map(|t| 1.0 + config.alpha_per_k * (t - config.reference_c))
            .collect();
        let drifted = scenario.clone().params(params);
        last = drifted.solve_faulted(load, &healthy, Some(&last.voltages), scratch)?;
    }

    let em = if converged {
        // Temperature-scaled EM: C4 bumps sit under the bottom die; the
        // TSV array is stressed worst at the hottest layer it crosses.
        let c4_k = temps[0] + 273.15;
        let tsv_k = temps.iter().copied().fold(f64::MIN, f64::max) + 273.15;
        EmLifetimes {
            c4_hours: c4_array_lifetime(
                &last.solution,
                &BlackModel::paper_c4().at_temperature(c4_k),
            ),
            tsv_hours: tsv_array_lifetime(
                &last.solution,
                &BlackModel::paper_tsv().at_temperature(tsv_k),
            ),
        }
    } else {
        metrics.coupling_nonconverged.inc();
        vstack_obs::warn_once!(
            "coupled",
            "thermal-IR fixed point did not converge in {} iterations \
             (residual {residual_c:.3} °C > {} °C); falling back to the \
             uncoupled solution",
            config.max_iterations,
            config.tolerance_c
        );
        last = base;
        em_uncoupled
    };
    Ok(CoupledSolution {
        solved: last,
        report: CoupledReport {
            iterations,
            converged,
            residual_c,
            layer_temps_c: temps,
            peak_temperature_c: peak_c,
            em,
            em_uncoupled,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_scenario(layers: usize) -> DesignScenario {
        DesignScenario::paper_baseline()
            .layers(layers)
            .coarse_grid()
    }

    #[test]
    fn converges_on_quick_grid_and_reports_temps() {
        let mut scratch = SolveScratch::new();
        let s = quick_scenario(4);
        let out = solve_coupled(
            &s,
            ScenarioLoad::RegularPeak,
            &CoupledConfig::paper_air_cooled(),
            None,
            &mut scratch,
        )
        .unwrap();
        assert!(out.report.converged, "residual {}", out.report.residual_c);
        assert!(out.report.iterations >= 2);
        assert_eq!(out.report.layer_temps_c.len(), 4);
        // Heatsink on top: bottom layer runs hottest.
        assert!(out.report.layer_temps_c[0] > out.report.layer_temps_c[3]);
    }

    #[test]
    fn peak_temperature_follows_a_bottom_layer_hotspot() {
        // Every load `solve_coupled` takes is uniform within a layer, so the
        // hottest cell sits at the bottom layer's mean, equal up to
        // rounding. A 10 W hotspot on layer 0 lifts it well clear of
        // every other layer's mean and of the stack's mean, so a peak
        // reported as one of those means fails here.
        let mut scratch = SolveScratch::new();
        let out = solve_coupled(
            &quick_scenario(4),
            ScenarioLoad::RegularPeak,
            &CoupledConfig::paper_air_cooled().hotspot(0, 10.0),
            None,
            &mut scratch,
        )
        .unwrap();
        let temps = &out.report.layer_temps_c;
        let stack_mean = temps.iter().sum::<f64>() / temps.len() as f64;
        let peak = out.report.peak_temperature_c;
        assert!(peak > stack_mean + 2.0, "peak {peak} °C, layers {temps:?}");
        assert!(peak > temps[1] + 1.0, "peak {peak} °C, layers {temps:?}");
    }

    #[test]
    fn coupled_em_differs_from_uncoupled() {
        let mut scratch = SolveScratch::new();
        let out = solve_coupled(
            &quick_scenario(8),
            ScenarioLoad::RegularPeak,
            &CoupledConfig::paper_air_cooled(),
            None,
            &mut scratch,
        )
        .unwrap();
        let delta = (out.report.em.c4_hours - out.report.em_uncoupled.c4_hours).abs()
            / out.report.em_uncoupled.c4_hours;
        assert!(delta > 1e-3, "coupling changed C4 lifetime by {delta:.2e}");
    }

    #[test]
    fn cooler_stack_outlives_hotter_stack() {
        let mut scratch = SolveScratch::new();
        let s = quick_scenario(4);
        let cold = solve_coupled(
            &s,
            ScenarioLoad::RegularPeak,
            &CoupledConfig::paper_air_cooled().ambient_c(25.0),
            None,
            &mut scratch,
        )
        .unwrap();
        let hot = solve_coupled(
            &s,
            ScenarioLoad::RegularPeak,
            &CoupledConfig::paper_air_cooled().ambient_c(65.0),
            None,
            &mut scratch,
        )
        .unwrap();
        assert!(cold.report.em.c4_hours > hot.report.em.c4_hours);
        assert!(cold.report.em.tsv_hours > hot.report.em.tsv_hours);
    }

    #[test]
    fn hotspot_injection_heats_its_layer() {
        let mut scratch = SolveScratch::new();
        let s = quick_scenario(4);
        let base = solve_coupled(
            &s,
            ScenarioLoad::RegularPeak,
            &CoupledConfig::paper_air_cooled(),
            None,
            &mut scratch,
        )
        .unwrap();
        let spiked = solve_coupled(
            &s,
            ScenarioLoad::RegularPeak,
            &CoupledConfig::paper_air_cooled().hotspot(2, 10.0),
            None,
            &mut scratch,
        )
        .unwrap();
        assert!(spiked.report.layer_temps_c[2] > base.report.layer_temps_c[2] + 0.5);
    }

    #[test]
    fn nonconvergence_falls_back_to_uncoupled() {
        let mut scratch = SolveScratch::new();
        let s = quick_scenario(2);
        let strict = CoupledConfig {
            tolerance_c: 1e-12,
            max_iterations: 2,
            ..CoupledConfig::paper_air_cooled()
        };
        let out =
            solve_coupled(&s, ScenarioLoad::RegularPeak, &strict, None, &mut scratch).unwrap();
        assert!(!out.report.converged);
        // Fallback result is the uncoupled solve, bit-identical, and so
        // are the lifetimes it reports.
        let mut scratch2 = SolveScratch::new();
        let base = s
            .solve_faulted(
                ScenarioLoad::RegularPeak,
                &FaultSet::new(),
                None,
                &mut scratch2,
            )
            .unwrap();
        assert_eq!(out.solved.solution, base.solution);
        assert_eq!(out.report.em, out.report.em_uncoupled);
    }

    #[test]
    fn voltage_stacked_load_runs_too() {
        let mut scratch = SolveScratch::new();
        let out = solve_coupled(
            &quick_scenario(2),
            ScenarioLoad::VoltageStacked(0.3),
            &CoupledConfig::paper_air_cooled(),
            None,
            &mut scratch,
        )
        .unwrap();
        assert!(out.report.converged);
        assert!(out.report.em.c4_hours.is_finite());
    }
}
