//! The voltage-stacked (charge-recycled) 3D PDN topology — paper Fig 4b:
//! a [`Pdn`](crate::Pdn) built with a [`Stacking`] spec.
//!
//! Layers are wired in series: layer *l*'s ground net and layer *l−1*'s
//! supply net share intermediate rail *l*. The board supplies `N·Vdd` to
//! the **top** layer through dedicated through-via stacks (one per Vdd C4
//! pad, paper §5.1) and collects the return from the bottom layer's ground
//! net. Push-pull SC converters regulate every intermediate rail,
//! sourcing/sinking only the mismatch current between adjacent layers.
//!
//! Because the converter compact model stamps as a rank-1 PSD matrix (see
//! [`crate::network::NetworkBuilder::converter_with_ratio`]), the whole
//! V-S network is one SPD system solved by CG.

use vstack_sc::compact::ScConverter;

use crate::model::Wiring;
use crate::params::PdnParams;
use crate::tsv::TsvTopology;

/// What makes a PDN voltage-stacked: the SC converter design at every
/// cell and how many cells regulate each intermediate rail within every
/// core footprint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stacking {
    /// The converter design used at every cell.
    pub converter: ScConverter,
    /// Converter cells per core per intermediate rail (the paper sweeps
    /// 2/4/6/8).
    pub converters_per_core: usize,
}

impl Wiring {
    /// Fig 4b: net 0 of layer `l` is its ground (rail `l`), net 1 its
    /// supply (rail `l + 1`). The Gnd pads tie the bottom layer's ground
    /// net to 0 V through pad + package resistance; each Vdd pad feeds
    /// `N·Vdd` to the top layer's supply net through a through-via stack
    /// crossing all N layers plus the pad itself. Each TSV bundle joins
    /// layer `l`'s supply net to layer `l + 1`'s ground net — the rail they
    /// share — with all the core's power TSVs.
    pub(crate) fn stacked(params: &PdnParams, n_layers: usize, topology: TsvTopology) -> Self {
        let r_via_stack = params.c4_resistance_ohm
            + params.package_r_per_pad_ohm
            + n_layers as f64 * params.tsv_resistance_ohm;
        Wiring {
            supply_net: 1,
            vdd_pad_layer: n_layers - 1,
            g_vdd_pad: 1.0 / r_via_stack,
            v_supply: n_layers as f64 * params.vdd,
            g_gnd_pad: 1.0 / (params.c4_resistance_ohm + params.package_r_per_pad_ohm),
            tsv_nets: &[(1, 0)],
            bundle_tsvs: topology.tsvs_per_core(),
        }
    }
}

#[cfg(test)]
mod tests {
    //! Fig 4b behaviour. The killed via stack, scratch bit-identity, empty
    //! fault set and paper-fidelity tests run the checks both topologies
    //! share (`crate::model::tests`) on voltage-stacked PDNs.

    use super::*;
    use crate::fault::{FaultSet, FaultedSolution};
    use crate::model::tests::{
        check_empty_fault_set_matches_plain_solve, check_killed_pad_shifts_current,
        check_paper_fidelity_matches_direct, check_rhs_matches_full_stamp,
        check_scratch_sweep_matches_fresh_solves,
    };
    use crate::network::tests::{direct_solve, max_error_of_scale};
    use crate::network::SolveScratch;
    use crate::{Pdn, StackLoads};
    use vstack_power::workload::ImbalancePattern;
    use vstack_sparse::SolveMethod;

    fn quick_params() -> PdnParams {
        let mut p = PdnParams::paper_defaults();
        p.grid_refinement = 1;
        p
    }

    /// A Few-TSV, 25%-power-C4 stack of the paper's open-loop converter.
    fn vs_pdn(p: &PdnParams, layers: usize, conv_per_core: usize) -> Pdn {
        stack(p, layers, ScConverter::paper_28nm(), conv_per_core)
    }

    /// A Few-TSV, 25%-power-C4 stack of `converter`.
    fn stack(p: &PdnParams, layers: usize, converter: ScConverter, per_core: usize) -> Pdn {
        let stacking = Stacking {
            converter,
            converters_per_core: per_core,
        };
        Pdn::new(p, layers, TsvTopology::Few, 0.25, Some(stacking))
    }

    #[test]
    fn balanced_stack_has_small_ir_drop() {
        let p = quick_params();
        let pdn = vs_pdn(&p, 4, 4);
        let loads = StackLoads::interleaved(&p, 4, &ImbalancePattern::new(0.0));
        let sol = pdn.solve(&loads).unwrap();
        assert!(
            sol.max_ir_drop_frac < 0.02,
            "balanced V-S should be quiet, got {}",
            sol.max_ir_drop_frac
        );
        assert!(!sol.has_overload());
    }

    #[test]
    fn imbalance_raises_ir_drop() {
        let p = quick_params();
        let pdn = vs_pdn(&p, 4, 8);
        let quiet = pdn
            .solve(&StackLoads::interleaved(&p, 4, &ImbalancePattern::new(0.0)))
            .unwrap();
        let noisy = pdn
            .solve(&StackLoads::interleaved(&p, 4, &ImbalancePattern::new(0.8)))
            .unwrap();
        assert!(noisy.max_ir_drop_frac > quiet.max_ir_drop_frac);
    }

    #[test]
    fn more_converters_reduce_noise() {
        let p = quick_params();
        let pattern = ImbalancePattern::new(0.6);
        let loads = StackLoads::interleaved(&p, 4, &pattern);
        let few = vs_pdn(&p, 4, 2).solve(&loads).unwrap();
        let many = vs_pdn(&p, 4, 8).solve(&loads).unwrap();
        assert!(many.max_ir_drop_frac < few.max_ir_drop_frac);
    }

    #[test]
    fn converter_current_tracks_mismatch() {
        let p = quick_params();
        let pdn = vs_pdn(&p, 4, 4);
        // 60% imbalance: per-core dynamic mismatch = 0.6 · 0.38 A = 0.228 A
        // shared by 4 converters ⇒ ≈57 mA each.
        let loads = StackLoads::interleaved(&p, 4, &ImbalancePattern::new(0.6));
        let sol = pdn.solve(&loads).unwrap();
        let mean_abs: f64 = sol.converter_currents.iter().map(|i| i.abs()).sum::<f64>()
            / sol.converter_currents.len() as f64;
        assert!(
            (mean_abs - 0.057).abs() < 0.02,
            "expected ≈57 mA per converter, got {mean_abs}"
        );
    }

    #[test]
    fn overload_detected_at_extreme_imbalance() {
        let p = quick_params();
        let pdn = vs_pdn(&p, 4, 2);
        // 100% imbalance with 2 converters/core ⇒ 190 mA per converter.
        let loads = StackLoads::interleaved(&p, 4, &ImbalancePattern::new(1.0));
        let sol = pdn.solve(&loads).unwrap();
        assert!(sol.has_overload());
    }

    #[test]
    fn pad_current_independent_of_layer_count() {
        // The V-S scalability claim: per-pad current stays ≈I_layer/N_pads
        // regardless of stacking depth.
        let p = quick_params();
        let balanced = ImbalancePattern::new(0.0);
        let i2 = vs_pdn(&p, 2, 4)
            .solve(&StackLoads::interleaved(&p, 2, &balanced))
            .unwrap()
            .vdd_c4
            .mean_current();
        let i8 = vs_pdn(&p, 8, 4)
            .solve(&StackLoads::interleaved(&p, 8, &balanced))
            .unwrap()
            .vdd_c4
            .mean_current();
        assert!(
            (i8 - i2).abs() / i2 < 0.05,
            "pad current must not scale with layers: {i2} vs {i8}"
        );
    }

    #[test]
    fn energy_accounting_consistent() {
        let p = quick_params();
        let pdn = vs_pdn(&p, 4, 4);
        let loads = StackLoads::interleaved(&p, 4, &ImbalancePattern::new(0.3));
        let sol = pdn.solve(&loads).unwrap();
        assert!(sol.p_input_w > sol.p_loads_w, "losses must be positive");
        let eff = sol.efficiency();
        assert!(eff > 0.8 && eff < 1.0, "efficiency {eff}");
    }

    #[test]
    fn intermediate_rails_sit_at_integer_vdd() {
        let p = quick_params();
        let pdn = vs_pdn(&p, 4, 4);
        let loads = StackLoads::interleaved(&p, 4, &ImbalancePattern::new(0.0));
        let sol = pdn.solve(&loads).unwrap();
        // With balanced loads every layer sees ≈1 V; mean drop small.
        assert!(sol.mean_ir_drop_frac.abs() < 0.01);
    }

    #[test]
    fn closed_loop_converges_and_reports_iterations() {
        let p = quick_params();
        let pdn = stack(&p, 4, ScConverter::paper_28nm_closed_loop(), 4);
        let loads = StackLoads::interleaved(&p, 4, &ImbalancePattern::new(0.5));
        let (sol, iterations) = pdn.solve_closed_loop(&loads).unwrap();
        assert!((1..50).contains(&iterations), "took {iterations}");
        assert!(sol.max_ir_drop_frac > 0.0);
    }

    #[test]
    fn closed_loop_cuts_parasitic_power_at_low_imbalance() {
        // The whole point of frequency modulation: lightly loaded
        // converters slow their clocks and stop burning switching power.
        let p = quick_params();
        let loads = StackLoads::interleaved(&p, 4, &ImbalancePattern::new(0.1));
        let open = stack(&p, 4, ScConverter::paper_28nm(), 8)
            .solve(&loads)
            .unwrap();
        let closed = stack(&p, 4, ScConverter::paper_28nm_closed_loop(), 8)
            .solve(&loads)
            .unwrap();
        assert!(
            closed.p_parasitic_w < 0.25 * open.p_parasitic_w,
            "closed {} vs open {}",
            closed.p_parasitic_w,
            open.p_parasitic_w
        );
        assert!(closed.efficiency() > open.efficiency());
    }

    #[test]
    fn closed_loop_dispatches_through_solve() {
        let p = quick_params();
        let pdn = stack(&p, 4, ScConverter::paper_28nm_closed_loop(), 4);
        let loads = StackLoads::interleaved(&p, 4, &ImbalancePattern::new(0.5));
        let via_solve = pdn.solve(&loads).unwrap();
        let (direct, _) = pdn.solve_closed_loop(&loads).unwrap();
        assert!((via_solve.max_ir_drop_frac - direct.max_ir_drop_frac).abs() < 1e-12);
    }

    #[test]
    fn transient_step_settles_to_dc() {
        let p = quick_params();
        let pdn = vs_pdn(&p, 4, 8);
        let before = StackLoads::interleaved(&p, 4, &ImbalancePattern::new(0.0));
        let after = StackLoads::interleaved(&p, 4, &ImbalancePattern::new(0.65));
        let cfg = crate::transient::PdnTransientConfig::default();
        let resp = pdn.solve_transient_step(&before, &after, &cfg).unwrap();
        // Settles to the post-step DC value.
        let dc = pdn.solve(&after).unwrap().max_ir_drop_frac;
        assert!(
            (resp.final_drop() - dc).abs() < 0.1 * dc,
            "transient end {} vs DC {dc}",
            resp.final_drop()
        );
        // The step moves the rail, so the excursion exceeds the start.
        assert!(resp.peak_drop() > resp.initial_drop);
    }

    #[test]
    fn bigger_decap_smaller_overshoot() {
        let p = quick_params();
        let pdn = vs_pdn(&p, 4, 8);
        let before = StackLoads::interleaved(&p, 4, &ImbalancePattern::new(0.0));
        let after = StackLoads::interleaved(&p, 4, &ImbalancePattern::new(0.8));
        let small = crate::transient::PdnTransientConfig {
            decap_per_core_f: 5e-9,
            ..Default::default()
        };
        let large = crate::transient::PdnTransientConfig {
            decap_per_core_f: 100e-9,
            ..Default::default()
        };
        let r_small = pdn.solve_transient_step(&before, &after, &small).unwrap();
        let r_large = pdn.solve_transient_step(&before, &after, &large).unwrap();
        // More decap slows the rail excursion: at any early sample the
        // large-decap response has moved less from the initial state.
        let early = 10; // 5 ns in
        let d_small = r_small.max_drop_series[early] - r_small.initial_drop;
        let d_large = r_large.max_drop_series[early] - r_large.initial_drop;
        assert!(
            d_large < d_small,
            "decap should slow the excursion: {d_large} vs {d_small}"
        );
    }

    #[test]
    fn transient_of_null_step_is_flat() {
        let p = quick_params();
        let pdn = vs_pdn(&p, 2, 4);
        let loads = StackLoads::interleaved(&p, 2, &ImbalancePattern::new(0.3));
        let cfg = crate::transient::PdnTransientConfig {
            duration_s: 20e-9,
            ..Default::default()
        };
        let resp = pdn.solve_transient_step(&loads, &loads, &cfg).unwrap();
        for d in &resp.max_drop_series {
            assert!(
                (d - resp.initial_drop).abs() < 1e-4,
                "null step must not move the rails"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least two layers")]
    fn single_layer_stack_rejected() {
        let p = quick_params();
        vs_pdn(&p, 1, 4);
    }

    #[test]
    fn killed_via_stack_shifts_current_to_survivors() {
        // A V-S pad takes its whole through-via stack with it.
        let p = quick_params();
        check_killed_pad_shifts_current(&[(
            vs_pdn(&p, 4, 4),
            StackLoads::interleaved(&p, 4, &ImbalancePattern::new(0.2)),
            1e-2,
        )]);
    }

    #[test]
    fn empty_fault_set_matches_plain_solve() {
        let p = quick_params();
        check_empty_fault_set_matches_plain_solve(&[(
            vs_pdn(&p, 2, 4),
            StackLoads::interleaved(&p, 2, &ImbalancePattern::new(0.3)),
        )]);
    }

    #[test]
    fn scratch_reuse_is_bit_identical_for_both_control_policies() {
        let p = quick_params();
        let loads = StackLoads::interleaved(&p, 4, &ImbalancePattern::new(0.5));
        check_scratch_sweep_matches_fresh_solves(&[
            (vs_pdn(&p, 4, 4), loads.clone()),
            (
                stack(&p, 4, ScConverter::paper_28nm_closed_loop(), 4),
                loads,
            ),
        ]);
    }

    #[test]
    fn paper_fidelity_solves_match_direct_factorization() {
        let p = PdnParams::paper_defaults();
        let mut cases = Vec::new();
        for k in [4, 8] {
            for x in [0.0, 0.5] {
                cases.push((
                    format!("{k}/core, imbalance {x}"),
                    vs_pdn(&p, 4, k),
                    StackLoads::interleaved(&p, 4, &ImbalancePattern::new(x)),
                ));
            }
        }
        check_paper_fidelity_matches_direct(&cases);
    }

    #[test]
    fn right_hand_side_alone_matches_the_full_stamp() {
        let p = PdnParams::paper_defaults();
        check_rhs_matches_full_stamp(&[(
            vs_pdn(&p, 4, 8),
            StackLoads::interleaved(&p, 4, &ImbalancePattern::new(0.5)),
        )]);
    }

    #[test]
    fn interface_tsv_faults_raise_survivor_stress() {
        let p = quick_params();
        let pdn = vs_pdn(&p, 4, 4);
        let loads = StackLoads::interleaved(&p, 4, &ImbalancePattern::new(0.4));
        let healthy = fresh(&pdn, &loads, &FaultSet::new());
        let mut faults = FaultSet::new();
        let n_kill = TsvTopology::Few.tsvs_per_core() * 3 / 4;
        faults.fail_tsvs(1, 0, n_kill);
        let wounded = fresh(&pdn, &loads, &faults);
        let group = |f: &FaultedSolution| {
            *f.tsv_groups
                .iter()
                .find(|g| g.interface == 1 && g.core == 0)
                .unwrap()
        };
        let (gh, gw) = (group(&healthy), group(&wounded));
        assert_eq!(gw.alive, gh.alive - n_kill as f64);
        assert!(gw.current_per_tsv_a > gh.current_per_tsv_a);
    }

    /// Every point of a fault-free sweep, as `(index, solution)` pairs in
    /// the order `solve_load_sweep` handed them over.
    fn sweep(
        pdn: &Pdn,
        loads: &[StackLoads],
        scratch: &mut SolveScratch,
    ) -> Vec<(usize, FaultedSolution)> {
        let mut points = Vec::new();
        pdn.solve_load_sweep(loads, scratch, &mut |i, sol| points.push((i, sol)))
            .unwrap();
        assert_eq!(
            points.iter().map(|p| p.0).collect::<Vec<_>>(),
            (0..loads.len()).collect::<Vec<_>>()
        );
        points
    }

    /// `faults` solved alone on a fresh scratch.
    fn fresh(pdn: &Pdn, loads: &StackLoads, faults: &FaultSet) -> FaultedSolution {
        pdn.solve_faulted_scratch(loads, faults, None, &mut SolveScratch::new())
            .unwrap()
    }

    /// Direct envelope-Cholesky solve of the point's stamped open-loop
    /// system: no Krylov code involved.
    fn direct(pdn: &Pdn, loads: &StackLoads) -> Vec<f64> {
        let cells = pdn.nominal_cells();
        direct_solve(&pdn.stamp(loads, &FaultSet::new(), &cells.g).nb)
    }

    #[test]
    fn load_sweep_superposes_interior_points_within_direct_tolerance() {
        let p = quick_params();
        let sweeps: [&[f64]; 4] = [
            &[0.0, 0.5, 1.0],
            &[0.1, 0.35, 0.4, 0.9],
            &[1.0, 0.75, 0.5, 0.25, 0.0],
            &[0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0],
        ];
        for layers in 2..=4 {
            for k in [2, 8] {
                let pdn = vs_pdn(&p, layers, k);
                for xs in sweeps {
                    let loads: Vec<StackLoads> = xs
                        .iter()
                        .map(|&x| StackLoads::interleaved(&p, layers, &ImbalancePattern::new(x)))
                        .collect();
                    let mut scratch = SolveScratch::new();
                    let points = sweep(&pdn, &loads, &mut scratch);
                    let case = format!("{layers} layers, {k}/core, {xs:?}");
                    assert_eq!(
                        scratch.pattern_builds() + scratch.pattern_reuses(),
                        2,
                        "{case}: only the endpoints reach the ladder"
                    );
                    for (i, sol) in &points {
                        let err = max_error_of_scale(&sol.voltages, &direct(&pdn, &loads[*i]));
                        assert!(err <= 1e-8, "{case} point {i}: error {err:e} of max |v|");
                        if *i == 0 || *i == xs.len() - 1 {
                            let alone = fresh(&pdn, &loads[*i], &FaultSet::new());
                            assert_eq!(sol.voltages, alone.voltages, "{case} point {i}");
                            assert_eq!(sol.report, alone.report, "{case} point {i}");
                        } else {
                            assert_eq!(sol.report.method, SolveMethod::Superposition);
                            assert_eq!(sol.report.iterations, 0, "{case} point {i}");
                            assert!(
                                sol.report.relative_residual <= 1e-9,
                                "{case} point {i}: {}",
                                sol.report.relative_residual
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn load_sweep_solves_off_segment_points_on_the_ladder() {
        let p = quick_params();
        let pdn = vs_pdn(&p, 4, 4);
        let interleaved = |x| StackLoads::interleaved(&p, 4, &ImbalancePattern::new(x));
        // Every layer half active is not on the line between the
        // interleaved 0% and 100% patterns, whose high layers stay at peak.
        let loads = [
            interleaved(0.0),
            interleaved(0.25),
            StackLoads::from_activities(&p, &[0.5; 4]),
            interleaved(1.0),
        ];
        let mut scratch = SolveScratch::new();
        let points = sweep(&pdn, &loads, &mut scratch);
        assert_eq!(scratch.pattern_builds() + scratch.pattern_reuses(), 3);
        assert_eq!(points[1].1.report.method, SolveMethod::Superposition);
        let alone = fresh(&pdn, &loads[2], &FaultSet::new());
        assert_eq!(points[2].1.voltages, alone.voltages);
        assert_eq!(points[2].1.report, alone.report);
        assert_ne!(alone.report.method, SolveMethod::Superposition);
    }

    #[test]
    fn load_sweep_resolves_a_nudged_interior_point_on_the_ladder() {
        // One core's current 0.01% off the segment: the superposed
        // voltages miss that point by more than the residual guard allows,
        // so the sweep solves it on the ladder instead.
        let p = quick_params();
        let pdn = vs_pdn(&p, 4, 4);
        let interleaved = |x| StackLoads::interleaved(&p, 4, &ImbalancePattern::new(x));
        let mid = interleaved(0.5);
        let mut currents: Vec<Vec<f64>> = (0..4)
            .map(|l| {
                (0..mid.cores_per_layer())
                    .map(|c| mid.core_current(l, c))
                    .collect()
            })
            .collect();
        currents[1][0] *= 1.0 + 1e-4;
        let loads = [
            interleaved(0.0),
            mid,
            StackLoads::from_currents(currents),
            interleaved(1.0),
        ];
        let mut scratch = SolveScratch::new();
        let points = sweep(&pdn, &loads, &mut scratch);
        assert_eq!(scratch.pattern_builds() + scratch.pattern_reuses(), 3);
        assert_eq!(points[1].1.report.method, SolveMethod::Superposition);
        let alone = fresh(&pdn, &loads[2], &FaultSet::new());
        assert_ne!(alone.report.method, SolveMethod::Superposition);
        assert_eq!(points[2].1.voltages, alone.voltages);
        assert_eq!(points[2].1.report, alone.report);
    }

    #[test]
    fn closed_loop_and_short_sweeps_solve_every_point_on_the_ladder() {
        let p = quick_params();
        let closed = stack(&p, 4, ScConverter::paper_28nm_closed_loop(), 4);
        let open = vs_pdn(&p, 4, 4);
        for (pdn, xs) in [(&closed, &[0.1, 0.5, 1.0][..]), (&open, &[0.2, 0.8][..])] {
            let loads: Vec<StackLoads> = xs
                .iter()
                .map(|&x| StackLoads::interleaved(&p, 4, &ImbalancePattern::new(x)))
                .collect();
            for (i, sol) in sweep(pdn, &loads, &mut SolveScratch::new()) {
                let alone = fresh(pdn, &loads[i], &FaultSet::new());
                assert_eq!(sol.voltages, alone.voltages, "{xs:?} point {i}");
                assert_eq!(sol.report, alone.report, "{xs:?} point {i}");
                assert_ne!(sol.report.method, SolveMethod::Superposition);
            }
        }
    }

    #[test]
    fn closed_loop_threads_faults() {
        let p = quick_params();
        let pdn = stack(&p, 4, ScConverter::paper_28nm_closed_loop(), 4);
        let loads = StackLoads::interleaved(&p, 4, &ImbalancePattern::new(0.5));
        let mut faults = FaultSet::new();
        faults.fail_vdd_pad(0);
        faults.fail_vdd_pad(1);
        let sol = fresh(&pdn, &loads, &faults);
        let healthy = fresh(&pdn, &loads, &FaultSet::new());
        assert!(!sol.vdd_pad_currents.iter().any(|&(o, _)| o < 2));
        assert_eq!(
            sol.vdd_pad_currents.len(),
            healthy.vdd_pad_currents.len() - 2
        );
        // The faults reach the Picard iterate the answer comes from.
        assert!(sol.solution.max_ir_drop_frac > healthy.solution.max_ir_drop_frac);
        assert_eq!(
            sol.solution.converter_currents.len(),
            healthy.solution.converter_currents.len()
        );
    }
}
