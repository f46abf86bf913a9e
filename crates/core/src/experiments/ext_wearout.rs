//! Extension study: EM wearout as a *feedback* process.
//!
//! The paper's §5.1 lifetime numbers treat conductor currents as frozen at
//! time zero. In reality electromigration is a feedback loop: the pad (or
//! TSV) carrying the most current fails first, the survivors pick up its
//! share and run hotter, and the failure rate accelerates. This experiment
//! plays that loop forward and reports the **degradation curve** — worst
//! IR drop versus fraction of power pads failed — for the regular and the
//! voltage-stacked topology under the same workload.
//!
//! The loop is fully deterministic (no RNG):
//!
//! 1. Solve the faulted network through the rank-k SMW fault sketch
//!    (`solve_faulted_sketched`): each round's fault set is a superset of
//!    the last, so warm rounds are answered by a Woodbury update against
//!    the cached baseline in microseconds, and the sketch rebases (one
//!    exact [`vstack_sparse::solve_robust`] ladder solve) only when the
//!    accumulated rank outgrows its budget.
//! 2. Convert every surviving pad current and per-TSV bundle current into
//!    a Black's-equation median time-to-failure.
//! 3. Kill the earliest-failure quantile: the
//!    [`WearoutConfig::kill_fraction_per_round`] share of pads with the
//!    smallest TTFs (ties broken by net and ordinal), plus the same share
//!    of conductors in any TSV bundle whose per-TSV TTF falls inside that
//!    quantile's TTF span.
//! 4. Repeat until the IR drop exceeds [`WearoutConfig::drop_limit_frac`],
//!    the network disconnects ([`vstack_pdn::PdnError::Disconnected`] — a
//!    terminal outcome, not an error), the escalation ladder itself is
//!    exhausted (a structurally-connected but electrically dead network,
//!    e.g. a V-S stack whose entire ground-pad population has failed so
//!    the return path exists only through converter coupling — also
//!    terminal), or the round budget runs out.
//!
//! The expected result, and the reason this is a robustness argument for
//! charge recycling: the regular PDN funnels every layer's current through
//! the same bottom-layer pads, so each kill round removes a large current
//! share and the drop curve turns up steeply; the V-S stack's per-pad
//! current is layer-independent and its converters re-route mismatch, so
//! the same fault fraction costs far less headroom.

use vstack_em::black::{BlackModel, DEFAULT_JUNCTION_K};
use vstack_pdn::{FaultSet, PdnError, SolveScratch, TsvTopology};
use vstack_sparse::{pool, SolveError};

use crate::experiments::Fidelity;
use crate::scenario::{DesignScenario, ScenarioLoad};

/// Which conductor a TTF entry belongs to (deterministic sort key).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum PadKind {
    Vdd,
    Gnd,
}

/// Configuration of the wearout loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WearoutConfig {
    /// Grid fidelity of the underlying solves.
    pub fidelity: Fidelity,
    /// Share of the total power-pad population killed per round (the
    /// earliest-failure quantile). Clamped to kill at least one pad.
    pub kill_fraction_per_round: f64,
    /// Round budget.
    pub max_rounds: usize,
    /// Terminal IR-drop fraction: the chip is considered dead once the
    /// worst drop exceeds this share of Vdd.
    pub drop_limit_frac: f64,
    /// Junction temperature the Black's-equation TTFs are evaluated at,
    /// kelvin. Defaults to [`DEFAULT_JUNCTION_K`] (the uncoupled 80 °C
    /// baseline); the thermal–EM–IR coupling loop overrides it with the
    /// solved stack temperature so both paths share one temperature
    /// source of truth.
    pub junction_temp_k: f64,
}

impl Default for WearoutConfig {
    fn default() -> Self {
        WearoutConfig {
            fidelity: Fidelity::Quick,
            kill_fraction_per_round: 0.05,
            max_rounds: 24,
            drop_limit_frac: 0.25,
            junction_temp_k: DEFAULT_JUNCTION_K,
        }
    }
}

/// One point of the degradation curve (one solve of the wearout loop).
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationPoint {
    /// Kill rounds applied before this solve (0 = pristine network).
    pub round: usize,
    /// Failed power pads as a fraction of the initial population.
    pub fraction_pads_failed: f64,
    /// Failed TSVs (all bundles) as an absolute count.
    pub failed_tsvs: usize,
    /// Worst IR drop of the surviving network, as a fraction of Vdd.
    pub max_ir_drop_frac: f64,
    /// Smallest Black's-equation median TTF among surviving pads, hours.
    pub earliest_pad_ttf_hours: f64,
    /// Whether this round's solve needed an escalation-ladder fallback.
    pub rescued: bool,
}

/// How a wearout run ended.
#[derive(Debug, Clone, PartialEq)]
pub enum WearoutOutcome {
    /// Faults isolated part of the grid from every board rail.
    Disconnected {
        /// Kill rounds applied when disconnection was detected.
        round: usize,
        /// Floating unknowns reported by the connectivity check.
        floating_nodes: usize,
    },
    /// The IR drop crossed [`WearoutConfig::drop_limit_frac`].
    DropLimitExceeded {
        /// Kill rounds applied at the terminal solve.
        round: usize,
    },
    /// The escalation ladder was exhausted on a previously-solvable
    /// network: the accumulated faults left it structurally connected but
    /// electrically dead (near-singular), which no solver rung can fix.
    SolverExhausted {
        /// Kill rounds applied when the ladder gave up.
        round: usize,
        /// The final rung's error.
        error: SolveError,
    },
    /// The round budget ran out with the network still alive.
    Survived,
}

/// The degradation curve of one topology.
#[derive(Debug, Clone, PartialEq)]
pub struct WearoutCurve {
    /// `"regular"` or `"voltage-stacked"`.
    pub label: &'static str,
    /// Stacked layer count.
    pub n_layers: usize,
    /// One point per completed solve, in round order.
    pub points: Vec<DegradationPoint>,
    /// Terminal state of the run.
    pub outcome: WearoutOutcome,
    /// Escalation-ladder trails of every rescued solve, for the record.
    pub fallback_trails: Vec<String>,
}

impl WearoutCurve {
    /// IR drop of the last surviving solve.
    pub fn final_drop(&self) -> f64 {
        self.points.last().map_or(0.0, |p| p.max_ir_drop_frac)
    }

    /// Fraction of pads failed at the last surviving solve.
    pub fn final_fraction_failed(&self) -> f64 {
        self.points.last().map_or(0.0, |p| p.fraction_pads_failed)
    }

    /// Drop increase per unit pad-fraction failed, measured end-to-end —
    /// the curve's overall steepness (lower = more graceful degradation).
    pub fn degradation_slope(&self) -> f64 {
        let (Some(first), Some(last)) = (self.points.first(), self.points.last()) else {
            return 0.0;
        };
        let df = last.fraction_pads_failed - first.fraction_pads_failed;
        if df <= 0.0 {
            return 0.0;
        }
        (last.max_ir_drop_frac - first.max_ir_drop_frac) / df
    }
}

fn scenario(config: &WearoutConfig, n_layers: usize) -> DesignScenario {
    let mut p = DesignScenario::paper_baseline().pdn_params().clone();
    p.grid_refinement = config.fidelity.grid_refinement();
    DesignScenario::paper_baseline()
        .params(p)
        .layers(n_layers)
        .tsv_topology(TsvTopology::Few)
        .power_c4_fraction(0.25)
}

/// Runs the wearout loop on the `n_layers` PDN and loads `load` selects.
/// The study runs the regular topology at full activity and the
/// voltage-stacked one under the same full-activity (balanced) workload
/// (`VoltageStacked(0.0)`).
///
/// Every round solves through one [`SolveScratch`], which holds the fault
/// sketch (and the sparsity pattern and Krylov workspace for its
/// exact-solve paths), so successive rounds are SMW updates, not fresh
/// ladder solves.
///
/// # Errors
///
/// Propagates [`SolveError`] only if the *pristine* network fails to
/// solve — disconnection and fault-induced ladder exhaustion are terminal
/// [`WearoutOutcome`]s, not errors.
pub fn wearout(
    config: &WearoutConfig,
    load: ScenarioLoad,
    n_layers: usize,
) -> Result<WearoutCurve, SolveError> {
    assert!(
        config.kill_fraction_per_round > 0.0 && config.kill_fraction_per_round < 1.0,
        "kill fraction must be in (0,1)"
    );
    let s = scenario(config, n_layers);
    let pdn = s.pdn(load);
    let loads = s.loads(load);
    let label = load.label();
    let total_pads = pdn.c4().vdd_count() + pdn.c4().gnd_count();
    let mut scratch = SolveScratch::new();
    let c4_model = BlackModel::paper_c4().at_temperature(config.junction_temp_k);
    let tsv_model = BlackModel::paper_tsv().at_temperature(config.junction_temp_k);
    let n_kill = ((total_pads as f64 * config.kill_fraction_per_round).round() as usize).max(1);

    let mut faults = FaultSet::new();
    let mut points = Vec::new();
    let mut fallback_trails = Vec::new();
    let mut failed_tsvs = 0usize;

    for round in 0..=config.max_rounds {
        let solved = match pdn.solve_faulted_sketched(&loads, &faults, &mut scratch) {
            Ok(s) => s,
            Err(PdnError::Disconnected { floating_nodes, .. }) => {
                return Ok(WearoutCurve {
                    label,
                    n_layers,
                    points,
                    outcome: WearoutOutcome::Disconnected {
                        round,
                        floating_nodes,
                    },
                    fallback_trails,
                });
            }
            // A ladder-exhausted solve on a network that solved fine last
            // round means the faults have made it electrically dead (near-
            // singular yet structurally connected): terminal, like
            // disconnection. A failure on the *pristine* network is a
            // genuine error.
            Err(PdnError::Solve(e)) if !points.is_empty() => {
                return Ok(WearoutCurve {
                    label,
                    n_layers,
                    points,
                    outcome: WearoutOutcome::SolverExhausted { round, error: e },
                    fallback_trails,
                });
            }
            Err(PdnError::Solve(e)) => return Err(e),
        };
        if solved.report.was_rescued() {
            fallback_trails.push(solved.report.trail());
        }

        // Rank every surviving pad by its Black's-equation TTF. The sort
        // key includes (net, ordinal) so equal currents break ties
        // deterministically.
        let mut pad_ttfs: Vec<(f64, PadKind, usize)> = solved
            .vdd_pad_currents
            .iter()
            .map(|&(ord, i)| (c4_model.median_ttf_hours(i), PadKind::Vdd, ord))
            .chain(
                solved
                    .gnd_pad_currents
                    .iter()
                    .map(|&(ord, i)| (c4_model.median_ttf_hours(i), PadKind::Gnd, ord)),
            )
            .collect();
        pad_ttfs.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));

        points.push(DegradationPoint {
            round,
            fraction_pads_failed: (faults.failed_vdd_pad_count() + faults.failed_gnd_pad_count())
                as f64
                / total_pads as f64,
            failed_tsvs,
            max_ir_drop_frac: solved.solution.max_ir_drop_frac,
            earliest_pad_ttf_hours: pad_ttfs.first().map_or(f64::INFINITY, |p| p.0),
            rescued: solved.report.was_rescued(),
        });

        if solved.solution.max_ir_drop_frac > config.drop_limit_frac {
            return Ok(WearoutCurve {
                label,
                n_layers,
                points,
                outcome: WearoutOutcome::DropLimitExceeded { round },
                fallback_trails,
            });
        }
        if round == config.max_rounds {
            break;
        }

        // Kill the earliest-failure pad quantile…
        let victims = &pad_ttfs[..n_kill.min(pad_ttfs.len())];
        let t_star = victims.last().map_or(0.0, |v| v.0);
        for &(_, kind, ord) in victims {
            match kind {
                PadKind::Vdd => faults.fail_vdd_pad(ord),
                PadKind::Gnd => faults.fail_gnd_pad(ord),
            }
        }
        // …and the same share of any TSV bundle wearing out at least as
        // fast as those pads.
        for g in &solved.tsv_groups {
            if tsv_model.median_ttf_hours(g.current_per_tsv_a) <= t_star {
                let kill = ((g.alive * config.kill_fraction_per_round).ceil() as usize).max(1);
                faults.fail_tsvs(g.interface, g.core, kill);
                failed_tsvs += kill;
            }
        }
    }

    Ok(WearoutCurve {
        label,
        n_layers,
        points,
        outcome: WearoutOutcome::Survived,
        fallback_trails,
    })
}

/// The full study: both topologies at every requested layer count, in
/// deterministic order (regular then V-S, shallow then deep).
///
/// The per-curve wearout loops are independent, so they fan out across the
/// active [`vstack_sparse::pool`] (`VSTACK_THREADS` controls the width).
/// Every curve is computed by the same deterministic serial loop, so the
/// result is bit-identical at any thread count; errors are reported for
/// the first failing curve in the serial order.
///
/// # Errors
///
/// As for [`wearout`].
pub fn wearout_comparison(
    config: &WearoutConfig,
    layer_counts: &[usize],
) -> Result<Vec<WearoutCurve>, SolveError> {
    let tasks: Vec<(usize, bool)> = layer_counts
        .iter()
        .flat_map(|&n| [(n, false), (n, true)])
        .collect();
    pool::par_map(tasks, |(n, stacked)| {
        let load = if stacked {
            ScenarioLoad::VoltageStacked(0.0)
        } else {
            ScenarioLoad::RegularPeak
        };
        wearout(config, load, n)
    })
    .into_iter()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> WearoutConfig {
        WearoutConfig {
            fidelity: Fidelity::Quick,
            kill_fraction_per_round: 0.10,
            max_rounds: 6,
            ..WearoutConfig::default()
        }
    }

    #[test]
    fn degradation_is_monotone_and_deterministic() {
        let a = wearout(&quick(), ScenarioLoad::RegularPeak, 2).unwrap();
        let b = wearout(&quick(), ScenarioLoad::RegularPeak, 2).unwrap();
        assert_eq!(a, b, "the loop must be bit-for-bit deterministic");
        assert!(a.points.len() >= 2);
        for w in a.points.windows(2) {
            assert!(w[1].fraction_pads_failed > w[0].fraction_pads_failed);
            assert!(w[1].max_ir_drop_frac >= w[0].max_ir_drop_frac * 0.99);
        }
        // Feedback: survivors run hotter, so the earliest TTF shrinks.
        assert!(
            a.points.last().unwrap().earliest_pad_ttf_hours < a.points[0].earliest_pad_ttf_hours
        );
    }

    #[test]
    fn vs_degrades_more_gracefully_than_regular() {
        let cfg = quick();
        let reg = wearout(&cfg, ScenarioLoad::RegularPeak, 4).unwrap();
        let vs = wearout(&cfg, ScenarioLoad::VoltageStacked(0.0), 4).unwrap();
        assert!(
            vs.degradation_slope() < reg.degradation_slope(),
            "V-S slope {} must beat regular slope {}",
            vs.degradation_slope(),
            reg.degradation_slope()
        );
    }

    #[test]
    fn pooled_comparison_is_bit_identical_to_serial() {
        use std::sync::Arc;
        use vstack_sparse::pool::{with_pool, ThreadPool};
        let cfg = quick();
        let serial = with_pool(&Arc::new(ThreadPool::new(1)), || {
            wearout_comparison(&cfg, &[2]).unwrap()
        });
        let parallel = with_pool(&Arc::new(ThreadPool::new(4)), || {
            wearout_comparison(&cfg, &[2]).unwrap()
        });
        assert_eq!(serial, parallel);
    }

    #[test]
    fn junction_override_shifts_every_ttf() {
        let base = wearout(&quick(), ScenarioLoad::RegularPeak, 2).unwrap();
        let hot = wearout(
            &WearoutConfig {
                junction_temp_k: 393.15,
                ..quick()
            },
            ScenarioLoad::RegularPeak,
            2,
        )
        .unwrap();
        assert!(
            hot.points[0].earliest_pad_ttf_hours < base.points[0].earliest_pad_ttf_hours,
            "a 120 °C junction must wear out faster than the 80 °C default"
        );
    }

    #[test]
    fn killing_everything_ends_in_disconnection_not_panic() {
        let cfg = WearoutConfig {
            kill_fraction_per_round: 0.45,
            max_rounds: 12,
            drop_limit_frac: f64::INFINITY, // force the run to the bitter end
            ..quick()
        };
        let curve = wearout(&cfg, ScenarioLoad::RegularPeak, 2).unwrap();
        assert!(
            matches!(curve.outcome, WearoutOutcome::Disconnected { .. }),
            "expected disconnection, got {:?}",
            curve.outcome
        );
    }
}
