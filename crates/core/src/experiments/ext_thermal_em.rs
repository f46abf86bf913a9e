//! Extension study: V-S vs regular PDN lifetime under thermal coupling.
//!
//! The paper's Fig 5 lifetime comparison evaluates Black's equation at a
//! fixed 80 °C junction. This study re-runs the comparison through the
//! [`crate::coupled`] thermal–EM–IR fixed point: each design point's own
//! power map sets its per-layer temperatures, which scale both the EM
//! rates (exponentially) and the on-chip grid resistance (linearly).
//! Because deeper stacks run hotter — the 8-layer hotspot sits near
//! 90 °C against a 2-layer stack's ~55 °C — coupling widens the paper's
//! layer-count lifetime gap: the uncoupled study *understates* how much
//! the regular PDN loses at depth, and the per-layer gradient stresses
//! the bottom-layer C4s of the regular PDN hardest, exactly where its
//! current concentrates.

use vstack_pdn::{PdnError, SolveScratch, TsvTopology};
use vstack_sparse::pool;

use crate::coupled::{solve_coupled, CoupledConfig};
use crate::em_study::EmLifetimes;
use crate::experiments::Fidelity;
use crate::scenario::{DesignScenario, ScenarioLoad};

/// Configuration of the thermal-coupling lifetime study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalEmConfig {
    /// Grid fidelity of the electrical solves.
    pub fidelity: Fidelity,
    /// The coupled-loop knobs (thermal stack, hotspot, tolerance, cap).
    pub coupled: CoupledConfig,
    /// Imbalance of the V-S interleaved workload (0 = balanced, matching
    /// the regular PDN's full-activity comparison basis).
    pub imbalance: f64,
}

impl Default for ThermalEmConfig {
    fn default() -> Self {
        ThermalEmConfig {
            fidelity: Fidelity::Paper,
            coupled: CoupledConfig::paper_air_cooled(),
            imbalance: 0.0,
        }
    }
}

/// One design point of the study.
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalEmPoint {
    /// `"regular"` or `"voltage-stacked"`.
    pub label: &'static str,
    /// Stacked layer count.
    pub n_layers: usize,
    /// Fixed-point iterations the coupled solve took.
    pub iterations: usize,
    /// Whether the coupling loop converged.
    pub converged: bool,
    /// Final raw temperature update, °C.
    pub residual_c: f64,
    /// Hotspot cell temperature, °C.
    pub peak_temperature_c: f64,
    /// Mean bottom-layer (C4-side) temperature, °C.
    pub bottom_layer_c: f64,
    /// EM lifetimes at the coupled temperatures.
    pub em_coupled: EmLifetimes,
    /// EM lifetimes at the fixed 80 °C baseline.
    pub em_uncoupled: EmLifetimes,
}

impl ThermalEmPoint {
    /// Fractional C4-lifetime change from coupling:
    /// `(uncoupled − coupled) / uncoupled`. Positive means the fixed-
    /// junction study was optimistic for this design point.
    pub fn c4_coupling_delta(&self) -> f64 {
        (self.em_uncoupled.c4_hours - self.em_coupled.c4_hours) / self.em_uncoupled.c4_hours
    }

    /// Like [`ThermalEmPoint::c4_coupling_delta`], for the TSV array.
    pub fn tsv_coupling_delta(&self) -> f64 {
        (self.em_uncoupled.tsv_hours - self.em_coupled.tsv_hours) / self.em_uncoupled.tsv_hours
    }
}

fn scenario(config: &ThermalEmConfig, n_layers: usize) -> DesignScenario {
    let mut p = DesignScenario::paper_baseline().pdn_params().clone();
    p.grid_refinement = config.fidelity.grid_refinement();
    DesignScenario::paper_baseline()
        .params(p)
        .layers(n_layers)
        .tsv_topology(TsvTopology::Few)
        .power_c4_fraction(0.25)
}

fn run_point(
    config: &ThermalEmConfig,
    n_layers: usize,
    stacked: bool,
) -> Result<ThermalEmPoint, PdnError> {
    let s = scenario(config, n_layers);
    let load = if stacked {
        ScenarioLoad::VoltageStacked(config.imbalance)
    } else {
        ScenarioLoad::RegularPeak
    };
    let mut scratch = SolveScratch::new();
    let out = solve_coupled(&s, load, &config.coupled, None, &mut scratch)?;
    Ok(ThermalEmPoint {
        label: load.label(),
        n_layers,
        iterations: out.report.iterations,
        converged: out.report.converged,
        residual_c: out.report.residual_c,
        peak_temperature_c: out.report.peak_temperature_c,
        bottom_layer_c: out.report.layer_temps_c[0],
        em_coupled: out.report.em,
        em_uncoupled: out.report.em_uncoupled,
    })
}

/// The full study: both topologies at every requested layer count, in
/// deterministic order (regular then V-S, shallow then deep), fanned out
/// across the active [`vstack_sparse::pool`].
///
/// # Errors
///
/// Propagates the first [`PdnError`] in serial order.
pub fn thermal_em_comparison(
    config: &ThermalEmConfig,
    layer_counts: &[usize],
) -> Result<Vec<ThermalEmPoint>, PdnError> {
    let tasks: Vec<(usize, bool)> = layer_counts
        .iter()
        .flat_map(|&n| [(n, false), (n, true)])
        .collect();
    pool::par_map(tasks, |(n, stacked)| run_point(config, n, stacked))
        .into_iter()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ThermalEmConfig {
        ThermalEmConfig {
            fidelity: Fidelity::Quick,
            ..ThermalEmConfig::default()
        }
    }

    #[test]
    fn every_point_converges_and_deeper_runs_hotter() {
        let points = thermal_em_comparison(&quick(), &[2, 8]).unwrap();
        assert_eq!(points.len(), 4);
        for p in &points {
            assert!(
                p.converged,
                "{} {}L: residual {}",
                p.label, p.n_layers, p.residual_c
            );
            assert!(p.iterations >= 2);
        }
        let reg2 = &points[0];
        let reg8 = &points[2];
        assert!(reg8.peak_temperature_c > reg2.peak_temperature_c + 10.0);
    }

    #[test]
    fn coupling_shortens_the_eight_layer_regular_lifetime() {
        let points = thermal_em_comparison(&quick(), &[8]).unwrap();
        let reg = points.iter().find(|p| p.label == "regular").unwrap();
        // The 8-layer stack runs hotter than the 80 °C baseline, so the
        // coupled MTTF must be measurably shorter.
        assert!(
            reg.c4_coupling_delta() > 0.01,
            "coupled-vs-uncoupled C4 delta {:.4}",
            reg.c4_coupling_delta()
        );
    }

    #[test]
    fn deterministic_across_pool_widths() {
        use std::sync::Arc;
        use vstack_sparse::pool::{with_pool, ThreadPool};
        let cfg = quick();
        let serial = with_pool(&Arc::new(ThreadPool::new(1)), || {
            thermal_em_comparison(&cfg, &[2]).unwrap()
        });
        let parallel = with_pool(&Arc::new(ThreadPool::new(4)), || {
            thermal_em_comparison(&cfg, &[2]).unwrap()
        });
        assert_eq!(serial, parallel);
    }
}
