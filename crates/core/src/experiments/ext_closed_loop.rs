//! Extension study: closed-loop converter control at the system level.
//!
//! The paper evaluates open-loop SC converters and twice defers
//! closed-loop control to future work (§3.1, §5.3). This experiment runs
//! it: the same Fig 8 sweep with frequency-modulated converters, solved by
//! the fixed-point iteration of
//! [`vstack_pdn::VstackPdn::solve_closed_loop`].
//!
//! Expected physics: closed-loop converters scale their switching losses
//! with delivered current, so (a) light-imbalance efficiency rises
//! dramatically, and (b) the "more converters cost efficiency" penalty of
//! Fig 8 largely disappears — at the price of a higher output impedance
//! (more IR noise) at light load.

use vstack_pdn::{PdnError, SolveScratch, StackLoads, TsvTopology};
use vstack_sc::compact::ScConverter;
use vstack_sparse::SolveError;

use crate::experiments::Fidelity;
use crate::scenario::DesignScenario;

/// One sweep point comparing the two control policies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlComparisonPoint {
    /// Imbalance ratio (0–1).
    pub imbalance: f64,
    /// Open-loop system efficiency.
    pub open_efficiency: f64,
    /// Closed-loop system efficiency.
    pub closed_efficiency: f64,
    /// Open-loop max IR drop (fraction of Vdd).
    pub open_ir_drop: f64,
    /// Closed-loop max IR drop.
    pub closed_ir_drop: f64,
    /// Fixed-point iterations the closed-loop solve needed.
    pub iterations: usize,
}

/// One series (fixed converters/core) of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct ControlComparison {
    /// Converters per core.
    pub converters_per_core: usize,
    /// Feasible sweep points (overloaded points skipped, as in Fig 6).
    pub points: Vec<ControlComparisonPoint>,
}

impl ControlComparison {
    /// Point at an imbalance value, if feasible.
    pub fn at(&self, imbalance: f64) -> Option<&ControlComparisonPoint> {
        self.points
            .iter()
            .find(|p| (p.imbalance - imbalance).abs() < 1e-9)
    }
}

/// Runs the open-vs-closed-loop study on an `n_layers` stack.
///
/// # Errors
///
/// Propagates [`SolveError`] from the PDN solves.
pub fn control_policy_study(
    fidelity: Fidelity,
    n_layers: usize,
    converter_counts: &[usize],
) -> Result<Vec<ControlComparison>, SolveError> {
    let sweep: Vec<f64> = match fidelity {
        Fidelity::Paper => (1..=10).map(|i| i as f64 / 10.0).collect(),
        Fidelity::Quick => vec![0.1, 0.5, 1.0],
    };
    let base = || {
        let mut p = DesignScenario::paper_baseline().pdn_params().clone();
        p.grid_refinement = fidelity.grid_refinement();
        DesignScenario::paper_baseline()
            .params(p)
            .layers(n_layers)
            .tsv_topology(TsvTopology::Few)
            .power_c4_fraction(0.25)
    };

    let mut out = Vec::new();
    for &k in converter_counts {
        let open_scenario = base().converters_per_core(k);
        let closed_scenario = base()
            .converters_per_core(k)
            .converter(ScConverter::paper_28nm_closed_loop());
        let closed_pdn = closed_scenario.voltage_stacked_pdn();
        let loads: Vec<StackLoads> = sweep
            .iter()
            .map(|&x| open_scenario.interleaved_loads(x))
            .collect();
        // The open-loop matrix does not move with the loads, so one sweep
        // superposes its interior points; the closed-loop Picard solves
        // each point, because its converter conductances do.
        let mut open_series = Vec::with_capacity(sweep.len());
        open_scenario
            .voltage_stacked_pdn()
            .solve_load_sweep(&loads, &mut SolveScratch::new(), &mut |_, sol| {
                open_series.push(sol.solution);
            })
            .map_err(PdnError::into_solve_error)?;
        let mut points = Vec::new();
        for ((&x, point), open) in sweep.iter().zip(&loads).zip(open_series) {
            let (closed, iterations) = closed_pdn.solve_closed_loop(point)?;
            if open.has_overload() || closed.has_overload() {
                continue;
            }
            points.push(ControlComparisonPoint {
                imbalance: x,
                open_efficiency: open.efficiency(),
                closed_efficiency: closed.efficiency(),
                open_ir_drop: open.max_ir_drop_frac,
                closed_ir_drop: closed.max_ir_drop_frac,
                iterations,
            });
        }
        out.push(ControlComparison {
            converters_per_core: k,
            points,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn study() -> Vec<ControlComparison> {
        control_policy_study(Fidelity::Quick, 4, &[4, 8]).unwrap()
    }

    #[test]
    fn closed_loop_wins_at_light_imbalance() {
        for series in study() {
            let p = series.at(0.1).unwrap();
            assert!(
                p.closed_efficiency > p.open_efficiency + 0.02,
                "k={}: closed {} vs open {}",
                series.converters_per_core,
                p.closed_efficiency,
                p.open_efficiency
            );
        }
    }

    #[test]
    fn closed_loop_removes_converter_count_penalty() {
        let s = study();
        let four = s.iter().find(|c| c.converters_per_core == 4).unwrap();
        let eight = s.iter().find(|c| c.converters_per_core == 8).unwrap();
        let open_gap =
            four.at(0.1).unwrap().open_efficiency - eight.at(0.1).unwrap().open_efficiency;
        let closed_gap =
            four.at(0.1).unwrap().closed_efficiency - eight.at(0.1).unwrap().closed_efficiency;
        assert!(
            closed_gap < 0.5 * open_gap,
            "closed-loop should shrink the k-penalty: open {open_gap}, closed {closed_gap}"
        );
    }

    #[test]
    fn closed_loop_noise_tradeoff_is_bounded() {
        // Frequency scaling raises R_SSL at light load, so closed-loop IR
        // drop exceeds open-loop by up to ≈5× there — the efficiency gain
        // is paid in noise. Bound the tradeoff to one order of magnitude.
        for series in study() {
            for p in &series.points {
                assert!(
                    p.closed_ir_drop < 8.0 * p.open_ir_drop.max(0.005),
                    "closed {} vs open {}",
                    p.closed_ir_drop,
                    p.open_ir_drop
                );
                assert!(p.iterations < 50);
            }
        }
    }
}
