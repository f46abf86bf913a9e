//! Fig 6 — maximum on-chip IR drop vs workload imbalance for the 8-layer
//! processor.
//!
//! V-S curves sweep the interleaved high/low imbalance pattern for 2, 4, 6
//! and 8 converters per core ("Few TSV" topology); points that would
//! overload any 100 mA converter are skipped, exactly as in the paper.
//! Regular-PDN reference lines (Dense/Sparse/Few TSVs) are flat in
//! imbalance: their worst case is all layers fully active.

use vstack_pdn::{PdnError, PdnSolution, SolveScratch, StackLoads, TsvTopology};
use vstack_sparse::{pool, SolveError};

use crate::experiments::Fidelity;
use crate::scenario::DesignScenario;

/// Converter counts swept (per core, per intermediate rail).
pub const CONVERTERS_PER_CORE: [usize; 4] = [2, 4, 6, 8];

/// One V-S sweep point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig6Point {
    /// Imbalance ratio (0–1).
    pub imbalance: f64,
    /// Maximum on-chip IR drop as a fraction of Vdd.
    pub max_ir_drop_frac: f64,
}

/// One V-S series (fixed converters/core).
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6Series {
    /// Converters per core.
    pub converters_per_core: usize,
    /// Points that satisfied the converter current limit.
    pub points: Vec<Fig6Point>,
    /// Imbalance values skipped due to converter overload.
    pub skipped: Vec<f64>,
}

impl Fig6Series {
    /// IR drop at an imbalance value, if that point was feasible.
    pub fn at(&self, imbalance: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|p| (p.imbalance - imbalance).abs() < 1e-9)
            .map(|p| p.max_ir_drop_frac)
    }

    /// The largest feasible imbalance of this series.
    pub fn max_feasible_imbalance(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|p| p.imbalance)
            .fold(None, |m, x| Some(m.map_or(x, |v: f64| v.max(x))))
    }

    /// Linear interpolation of the series at an arbitrary imbalance inside
    /// its feasible range.
    pub fn interpolate(&self, imbalance: f64) -> Option<f64> {
        let pts = &self.points;
        if pts.is_empty() {
            return None;
        }
        if imbalance <= pts[0].imbalance {
            return Some(pts[0].max_ir_drop_frac);
        }
        for w in pts.windows(2) {
            if imbalance <= w[1].imbalance {
                let f = (imbalance - w[0].imbalance) / (w[1].imbalance - w[0].imbalance);
                return Some(
                    w[0].max_ir_drop_frac + f * (w[1].max_ir_drop_frac - w[0].max_ir_drop_frac),
                );
            }
        }
        None
    }
}

/// Complete Fig 6 data.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6Data {
    /// V-S sweeps, one per converter count.
    pub vs_series: Vec<Fig6Series>,
    /// `(topology, max IR drop)` reference lines for the regular PDN.
    pub regular_references: Vec<(TsvTopology, f64)>,
}

impl Fig6Data {
    /// The V-S series with `k` converters per core.
    pub fn vs(&self, k: usize) -> Option<&Fig6Series> {
        self.vs_series.iter().find(|s| s.converters_per_core == k)
    }

    /// The regular-PDN reference for a topology.
    pub fn regular(&self, topo: TsvTopology) -> Option<f64> {
        self.regular_references
            .iter()
            .find(|(t, _)| *t == topo)
            .map(|&(_, v)| v)
    }
}

/// Imbalance sweep values for a fidelity level.
pub fn imbalance_sweep(fidelity: Fidelity) -> Vec<f64> {
    match fidelity {
        Fidelity::Paper => (0..=10).map(|i| i as f64 / 10.0).collect(),
        Fidelity::Quick => vec![0.0, 0.25, 0.5, 0.75, 1.0],
    }
}

/// Regular-PDN reference topologies plotted alongside the V-S sweeps.
pub const REGULAR_REFERENCE_TOPOLOGIES: [TsvTopology; 3] =
    [TsvTopology::Dense, TsvTopology::Sparse, TsvTopology::Few];

/// Solves `scenario`'s V-S PDN under the interleaved imbalance pattern
/// at each of `imbalances`, in order, mapping each solution through
/// `point`. Figs 6 and 8 run one such sweep per converter count, each as
/// one [`pool::par_map`] task.
///
/// The sweep runs through [`vstack_pdn::Pdn::solve_load_sweep`] on
/// one [`SolveScratch`]. With open-loop converters the V-S matrix does not
/// depend on the imbalance (only the load currents do) and every core
/// current is affine in it, so the first and last imbalances are solved
/// on the ladder — bit-identical to solving each with a fresh scratch —
/// and every point between is the matching affine combination of those
/// two voltage vectors, kept only when its own residual meets the
/// ladder's 1e-9 (solved on the ladder otherwise). Interior points
/// therefore meet the same residual tolerance as per-point solves but are
/// not bit-identical to them.
///
/// # Errors
///
/// Propagates the first failing solve as a [`SolveError`].
pub(crate) fn vs_imbalance_sweep<T>(
    scenario: &DesignScenario,
    imbalances: &[f64],
    point: impl Fn(f64, PdnSolution) -> T,
) -> Result<Vec<T>, SolveError> {
    let loads: Vec<StackLoads> = imbalances
        .iter()
        .map(|&x| scenario.interleaved_loads(x))
        .collect();
    let mut swept = Vec::with_capacity(imbalances.len());
    scenario
        .voltage_stacked_pdn()
        .solve_load_sweep(&loads, &mut SolveScratch::new(), &mut |i, sol| {
            swept.push(point(imbalances[i], sol.solution));
        })
        .map_err(PdnError::into_solve_error)?;
    Ok(swept)
}

/// One independent unit of Fig 6 work: a whole V-S imbalance sweep, or
/// one regular-PDN reference point.
enum Fig6Task {
    VsSweep(usize),
    Regular(TsvTopology),
}

/// The matching result variant.
enum Fig6Result {
    VsSweep(Fig6Series),
    Regular(TsvTopology, f64),
}

/// Runs the Fig 6 study on an `n_layers` stack (the paper uses 8).
///
/// The four V-S sweeps and three regular references are independent, so
/// they fan out across the active [`vstack_sparse::pool`], bit-identical
/// to running them serially. Each V-S sweep solves its first and last
/// imbalance and superposes the points between (`vs_imbalance_sweep`):
/// its endpoints and the regular references are bit-identical to
/// scratch-free per-point solves, and its interior points meet the same
/// 1e-9 residual tolerance.
///
/// # Errors
///
/// Propagates [`SolveError`] from the PDN solves (first failing task in
/// series order).
pub fn ir_drop_study(fidelity: Fidelity, n_layers: usize) -> Result<Fig6Data, SolveError> {
    let base = || {
        let mut p = DesignScenario::paper_baseline().pdn_params().clone();
        p.grid_refinement = fidelity.grid_refinement();
        DesignScenario::paper_baseline()
            .params(p)
            .layers(n_layers)
            .tsv_topology(TsvTopology::Few)
            .power_c4_fraction(0.25)
    };

    let tasks: Vec<Fig6Task> = CONVERTERS_PER_CORE
        .iter()
        .map(|&k| Fig6Task::VsSweep(k))
        .chain(
            REGULAR_REFERENCE_TOPOLOGIES
                .iter()
                .map(|&t| Fig6Task::Regular(t)),
        )
        .collect();

    let results = pool::par_map(tasks, |task| -> Result<Fig6Result, SolveError> {
        match task {
            Fig6Task::VsSweep(k) => {
                let swept = vs_imbalance_sweep(
                    &base().converters_per_core(k),
                    &imbalance_sweep(fidelity),
                    |x, sol| (x, (!sol.has_overload()).then_some(sol.max_ir_drop_frac)),
                )?;
                let mut points = Vec::new();
                let mut skipped = Vec::new();
                for (x, drop) in swept {
                    match drop {
                        Some(max_ir_drop_frac) => points.push(Fig6Point {
                            imbalance: x,
                            max_ir_drop_frac,
                        }),
                        None => skipped.push(x),
                    }
                }
                Ok(Fig6Result::VsSweep(Fig6Series {
                    converters_per_core: k,
                    points,
                    skipped,
                }))
            }
            Fig6Task::Regular(topo) => {
                let scenario = base().tsv_topology(topo).power_c4_fraction(0.5);
                let sol = scenario.solve_regular_peak()?;
                Ok(Fig6Result::Regular(topo, sol.max_ir_drop_frac))
            }
        }
    });

    let mut vs_series = Vec::new();
    let mut regular_references = Vec::new();
    for result in results {
        match result? {
            Fig6Result::VsSweep(series) => vs_series.push(series),
            Fig6Result::Regular(topo, drop) => regular_references.push((topo, drop)),
        }
    }

    Ok(Fig6Data {
        vs_series,
        regular_references,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data() -> Fig6Data {
        ir_drop_study(Fidelity::Quick, 4).unwrap()
    }

    #[test]
    fn vs_noise_grows_with_imbalance() {
        let d = data();
        let s = d.vs(8).unwrap();
        let lo = s.at(0.0).unwrap();
        let hi = s.at(1.0).unwrap();
        assert!(hi > lo, "noise must grow with imbalance: {lo} vs {hi}");
    }

    #[test]
    fn more_converters_less_noise() {
        let d = data();
        let four = d.vs(4).unwrap().at(0.5).unwrap();
        let eight = d.vs(8).unwrap().at(0.5).unwrap();
        assert!(eight < four);
    }

    #[test]
    fn two_converters_overload_before_full_imbalance() {
        // 2 converters/core can source at most 200 mA against a 380 mA
        // full-imbalance mismatch, so high-imbalance points must be skipped
        // (the paper's Fig 6 truncates this line around 50%).
        let d = data();
        let s = d.vs(2).unwrap();
        assert!(!s.skipped.is_empty(), "expected skipped points");
        assert!(s.max_feasible_imbalance().unwrap() <= 0.6);
    }

    #[test]
    fn regular_references_ordered_by_tsv_density() {
        let d = data();
        let dense = d.regular(TsvTopology::Dense).unwrap();
        let sparse = d.regular(TsvTopology::Sparse).unwrap();
        let few = d.regular(TsvTopology::Few).unwrap();
        assert!(dense < sparse && sparse < few);
    }

    #[test]
    fn vs_beats_dense_regular_at_low_imbalance() {
        // The paper's equal-area comparison: V-S (8 conv/core, Few TSV)
        // has lower IR drop than regular Dense-TSV below ≈50% imbalance.
        let d = data();
        let vs = d.vs(8).unwrap().at(0.25).unwrap();
        let dense = d.regular(TsvTopology::Dense).unwrap();
        assert!(vs < dense, "V-S {vs} should beat dense regular {dense}");
    }
}
