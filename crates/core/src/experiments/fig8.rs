//! Fig 8 — system power efficiency of the 8-layer processor vs workload
//! imbalance.
//!
//! V-S series (2/4/6/8 converters per core): total load power divided by
//! total power drawn from the off-chip source, including every converter's
//! switching overhead — all taken from the full network solve.
//!
//! The V-S series run through Fig 6's sweep
//! ([`crate::experiments::fig6`]'s `vs_imbalance_sweep`): one
//! [`pool::par_map`] task per converter count. The matrix does not depend
//! on the imbalance, so each series solves only its first and last
//! imbalance (one sparsity pattern, one AMG hierarchy), bit-identical to
//! solving those points on their own, and superposes the points between,
//! which meet the same 1e-9 residual tolerance as per-point solves.
//!
//! Reference series "Reg. PDN, SC converters provide all power": in a
//! conventional PDN with on-chip SC regulation (paper ref \[19\]) the
//! converters carry **all** the load current, not just the inter-layer
//! mismatch, so their conduction and switching losses apply to the whole
//! power budget. Computed analytically from the compact model, with eight
//! converters per core (the minimum that keeps a fully-active 475 mA core
//! within the per-converter 100 mA rating).

use vstack_power::mcpat::ActivityVector;
use vstack_power::workload::ImbalancePattern;
use vstack_sc::compact::ScConverter;
use vstack_sparse::{pool, SolveError};

use crate::experiments::fig6::{vs_imbalance_sweep, CONVERTERS_PER_CORE};
use crate::experiments::Fidelity;
use crate::scenario::DesignScenario;

/// One efficiency sweep point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig8Point {
    /// Imbalance ratio (0–1).
    pub imbalance: f64,
    /// System power efficiency (0–1).
    pub efficiency: f64,
}

/// One series of Fig 8.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig8Series {
    /// Legend label matching the paper.
    pub label: String,
    /// Converters per core (0 for the regular-PDN reference).
    pub converters_per_core: usize,
    /// Feasible sweep points.
    pub points: Vec<Fig8Point>,
}

impl Fig8Series {
    /// Efficiency at an imbalance value, if present.
    pub fn at(&self, imbalance: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|p| (p.imbalance - imbalance).abs() < 1e-9)
            .map(|p| p.efficiency)
    }
}

/// Complete Fig 8 data.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig8Data {
    /// V-S series, one per converter count.
    pub vs_series: Vec<Fig8Series>,
    /// The regular-PDN "SC provides all power" reference.
    pub regular_sc_reference: Fig8Series,
}

impl Fig8Data {
    /// The V-S series with `k` converters per core.
    pub fn vs(&self, k: usize) -> Option<&Fig8Series> {
        self.vs_series.iter().find(|s| s.converters_per_core == k)
    }
}

/// The paper's Fig 8 sweep: 10%–100% imbalance.
pub fn imbalance_sweep(fidelity: Fidelity) -> Vec<f64> {
    match fidelity {
        Fidelity::Paper => (1..=10).map(|i| i as f64 / 10.0).collect(),
        Fidelity::Quick => vec![0.1, 0.5, 1.0],
    }
}

/// Runs the Fig 8 study on an `n_layers` stack (the paper uses 8).
///
/// # Errors
///
/// Propagates [`SolveError`] from the PDN solves (first failing series in
/// converter order).
pub fn efficiency_study(fidelity: Fidelity, n_layers: usize) -> Result<Fig8Data, SolveError> {
    let base = || {
        let mut p = DesignScenario::paper_baseline().pdn_params().clone();
        p.grid_refinement = fidelity.grid_refinement();
        DesignScenario::paper_baseline()
            .params(p)
            .layers(n_layers)
            .power_c4_fraction(0.25)
    };

    let scenario = base();
    let vs_series = vs_efficiency_series(&scenario, &imbalance_sweep(fidelity))?;
    let points = imbalance_sweep(fidelity)
        .into_iter()
        .map(|x| Fig8Point {
            imbalance: x,
            efficiency: regular_pdn_sc_efficiency(
                scenario.pdn_params(),
                n_layers,
                x,
                *scenario.converter_design(),
                8,
            ),
        })
        .collect();

    Ok(Fig8Data {
        vs_series,
        regular_sc_reference: Fig8Series {
            label: "Reg. PDN, SC converters provide all power".to_owned(),
            converters_per_core: 0,
            points,
        },
    })
}

/// The V-S series of Fig 8 for `base` with each converter count of
/// [`CONVERTERS_PER_CORE`]: one [`pool::par_map`] task and one shared
/// scratch per series, keeping the points no converter overloads.
fn vs_efficiency_series(
    base: &DesignScenario,
    imbalances: &[f64],
) -> Result<Vec<Fig8Series>, SolveError> {
    pool::par_map(CONVERTERS_PER_CORE.to_vec(), |k| {
        let points = vs_imbalance_sweep(
            &base.clone().converters_per_core(k),
            imbalances,
            |x, sol| {
                (!sol.has_overload()).then(|| Fig8Point {
                    imbalance: x,
                    efficiency: sol.efficiency(),
                })
            },
        )?;
        Ok(Fig8Series {
            label: format!("V-S PDN, {k} converters / core"),
            converters_per_core: k,
            points: points.into_iter().flatten().collect(),
        })
    })
    .into_iter()
    .collect()
}

/// Analytic efficiency of a regular PDN whose on-chip SC converters carry
/// the entire load current (paper ref \[19\]'s architecture).
pub fn regular_pdn_sc_efficiency(
    params: &vstack_pdn::PdnParams,
    n_layers: usize,
    imbalance: f64,
    converter: ScConverter,
    converters_per_core: usize,
) -> f64 {
    let pattern = ImbalancePattern::new(imbalance);
    let mut p_out_total = 0.0;
    let mut p_in_total = 0.0;
    for layer in 0..n_layers {
        let activity = pattern.layer_activity(layer);
        let core_power = params.core.power(&ActivityVector::uniform(activity));
        let i_core = core_power.current_a(params.vdd);
        let i_conv = i_core / converters_per_core as f64;
        // Converters down-convert from a 2·Vdd distribution rail.
        let op = converter.operate(2.0 * params.vdd, 0.0, i_conv);
        let per_conv_in = op.p_out + op.p_conduction + op.p_parasitic;
        let n_conv = params.cores_per_layer() * converters_per_core;
        p_out_total += op.p_out * n_conv as f64;
        p_in_total += per_conv_in * n_conv as f64;
    }
    p_out_total / p_in_total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data() -> Fig8Data {
        efficiency_study(Fidelity::Quick, 4).unwrap()
    }

    #[test]
    fn efficiency_decreases_with_imbalance() {
        let d = data();
        let s = d.vs(4).unwrap();
        assert!(s.at(0.1).unwrap() > s.at(1.0).unwrap());
    }

    #[test]
    fn more_converters_cost_efficiency() {
        // Open-loop converters burn fixed switching power, so spreading the
        // same mismatch across more converters hurts (paper §5.3).
        let d = data();
        let two = d.vs(2).unwrap().at(0.1).unwrap();
        let eight = d.vs(8).unwrap().at(0.1).unwrap();
        assert!(two > eight, "2/core {two} vs 8/core {eight}");
    }

    #[test]
    fn vs_beats_regular_sc_everywhere() {
        // V-S converters only process the mismatch; regular-PDN converters
        // process everything (paper §5.3's closing comparison).
        let d = data();
        for x in [0.1, 0.5, 1.0] {
            let reg = d.regular_sc_reference.at(x).unwrap();
            for k in CONVERTERS_PER_CORE {
                if let Some(vs) = d.vs(k).unwrap().at(x) {
                    assert!(vs > reg, "k={k}, x={x}: {vs} vs {reg}");
                }
            }
        }
    }

    #[test]
    fn shared_sweep_endpoints_are_bit_identical_and_interior_points_agree() {
        use vstack_pdn::{FaultSet, SolveScratch};
        use vstack_sparse::SolveMethod;

        // Paper fidelity with 4 layers is above the PDN's AMG threshold,
        // so each series builds one AMG hierarchy for its two endpoint
        // solves and superposes the point between; the reference solves
        // each point serially with a fresh scratch, building a hierarchy
        // per point.
        let mut params = DesignScenario::paper_baseline().pdn_params().clone();
        params.grid_refinement = Fidelity::Paper.grid_refinement();
        let base = DesignScenario::paper_baseline()
            .params(params)
            .layers(4)
            .power_c4_fraction(0.25);
        let imbalances = [0.3, 0.65, 1.0];
        let serial: Vec<Vec<Option<f64>>> = CONVERTERS_PER_CORE
            .iter()
            .map(|&k| {
                let scenario = base.clone().converters_per_core(k);
                let pdn = scenario.voltage_stacked_pdn();
                imbalances
                    .iter()
                    .map(|&x| {
                        // What `pdn.solve` runs, plus the report.
                        let loads = scenario.interleaved_loads(x);
                        let fresh = pdn
                            .solve_faulted_scratch(
                                &loads,
                                &FaultSet::new(),
                                None,
                                &mut SolveScratch::new(),
                            )
                            .unwrap();
                        assert_eq!(fresh.report.method, SolveMethod::CgAmgMixed);
                        let sol = fresh.solution;
                        (!sol.has_overload()).then(|| sol.efficiency())
                    })
                    .collect()
            })
            .collect();
        assert!(serial.iter().flatten().any(Option::is_none), "an overload");
        assert!(serial.iter().any(|s| s[1].is_some()), "a feasible interior");
        for width in [1, 2] {
            let pool = std::sync::Arc::new(pool::ThreadPool::new(width));
            let series =
                pool::with_pool(&pool, || vs_efficiency_series(&base, &imbalances)).unwrap();
            for (s, want) in series.iter().zip(&serial) {
                let want: Vec<(f64, f64)> = imbalances
                    .iter()
                    .zip(want)
                    .filter_map(|(&x, e)| e.map(|e| (x, e)))
                    .collect();
                let got: Vec<(f64, f64)> = s
                    .points
                    .iter()
                    .map(|p| (p.imbalance, p.efficiency))
                    .collect();
                let label = format!("{} at width {width}", s.label);
                assert_eq!(got.len(), want.len(), "{label}");
                for (&(x, g), &(wx, w)) in got.iter().zip(&want) {
                    assert_eq!(x, wx, "{label}");
                    if x == imbalances[1] {
                        assert!((g - w).abs() <= 1e-9 * w.abs(), "{label}: {g} vs {w}");
                    } else {
                        assert_eq!(g.to_bits(), w.to_bits(), "{label} at {x}");
                    }
                }
            }
        }
    }

    #[test]
    fn efficiencies_are_probabilities() {
        let d = data();
        for s in d.vs_series.iter().chain([&d.regular_sc_reference]) {
            for p in &s.points {
                assert!(p.efficiency > 0.0 && p.efficiency < 1.0);
            }
        }
    }
}
