//! The conventional ("regular") 3D PDN topology — paper Fig 4a: a
//! [`Pdn`](crate::Pdn) built without a stacking spec.
//!
//! All layers' supply nets are connected in parallel by Vdd TSV stacks,
//! all ground nets by Gnd TSV stacks, and the board feeds the bottom layer
//! through the C4 array. Every layer's full current crosses the pads and
//! the lower TSV interfaces, which is exactly why this topology's EM
//! lifetime collapses as layers are added (paper §5.1).

use crate::model::Wiring;
use crate::params::PdnParams;
use crate::tsv::TsvTopology;

impl Wiring {
    /// Fig 4a: net 0 of every layer is its supply and net 1 its return.
    /// The Vdd and Gnd pads tie the bottom layer's nets to the board's
    /// `Vdd` and 0 V through pad + package resistance. Each TSV bundle
    /// joins like nets of adjacent layers, half the core's power TSVs on
    /// each net; a fault count applies to both halves, since the two nets
    /// carry mirror currents.
    pub(crate) fn regular(params: &PdnParams, topology: TsvTopology) -> Self {
        let g_pad = 1.0 / (params.c4_resistance_ohm + params.package_r_per_pad_ohm);
        Wiring {
            supply_net: 0,
            vdd_pad_layer: 0,
            g_vdd_pad: g_pad,
            v_supply: params.vdd,
            g_gnd_pad: g_pad,
            tsv_nets: &[(0, 0), (1, 1)],
            bundle_tsvs: topology.vdd_tsvs_per_core(),
        }
    }
}

#[cfg(test)]
mod tests {
    //! Fig 4a behaviour. The killed-pad, scratch bit-identity, empty
    //! fault set and paper-fidelity tests run the checks both topologies
    //! share (`crate::model::tests`) on regular PDNs.

    use super::*;
    use crate::fault::{FaultSet, FaultedSolution};
    use crate::model::tests::{
        check_empty_fault_set_matches_plain_solve, check_killed_pad_shifts_current,
        check_paper_fidelity_matches_direct, check_rhs_matches_full_stamp,
        check_scratch_sweep_matches_fresh_solves, exact,
    };
    use crate::{Pdn, PdnError, StackLoads};

    fn quick_params() -> PdnParams {
        // Coarser grid keeps unit tests fast.
        let mut p = PdnParams::paper_defaults();
        p.grid_refinement = 1;
        p
    }

    #[test]
    fn single_layer_ir_drop_is_reasonable() {
        let p = quick_params();
        let pdn = Pdn::new(&p, 1, TsvTopology::Sparse, 0.5, None);
        let sol = pdn.solve(&StackLoads::uniform_peak(&p, 1)).unwrap();
        assert!(
            sol.max_ir_drop_frac > 0.001 && sol.max_ir_drop_frac < 0.05,
            "got {}",
            sol.max_ir_drop_frac
        );
        assert!(sol.mean_ir_drop_frac <= sol.max_ir_drop_frac);
    }

    #[test]
    fn ir_drop_grows_with_layers() {
        let p = quick_params();
        let mut prev = 0.0;
        for n in [1, 2, 4] {
            let pdn = Pdn::new(&p, n, TsvTopology::Sparse, 0.5, None);
            let sol = pdn.solve(&StackLoads::uniform_peak(&p, n)).unwrap();
            assert!(
                sol.max_ir_drop_frac > prev,
                "{n} layers: {} ≤ {prev}",
                sol.max_ir_drop_frac
            );
            prev = sol.max_ir_drop_frac;
        }
    }

    #[test]
    fn worst_layer_is_the_top() {
        // The top layer is furthest from the pads.
        let p = quick_params();
        let pdn = Pdn::new(&p, 4, TsvTopology::Few, 0.5, None);
        let sol = pdn.solve(&StackLoads::uniform_peak(&p, 4)).unwrap();
        assert_eq!(sol.worst_layer, 3);
    }

    #[test]
    fn fewer_tsvs_mean_more_drop() {
        let p = quick_params();
        let dense = Pdn::new(&p, 4, TsvTopology::Dense, 0.5, None)
            .solve(&StackLoads::uniform_peak(&p, 4))
            .unwrap();
        let few = Pdn::new(&p, 4, TsvTopology::Few, 0.5, None)
            .solve(&StackLoads::uniform_peak(&p, 4))
            .unwrap();
        assert!(few.max_ir_drop_frac > dense.max_ir_drop_frac);
    }

    #[test]
    fn pad_currents_sum_to_total_load() {
        let p = quick_params();
        let loads = StackLoads::uniform_peak(&p, 2);
        let pdn = Pdn::new(&p, 2, TsvTopology::Sparse, 0.5, None);
        let sol = pdn.solve(&loads).unwrap();
        let pad_sum: f64 = sol
            .vdd_c4
            .groups()
            .iter()
            .map(|g| g.current_a * g.count)
            .sum();
        let total = loads.total_current();
        assert!(
            (pad_sum - total).abs() / total < 1e-3,
            "pads {pad_sum} vs loads {total}"
        );
    }

    #[test]
    fn tsv_current_rises_with_layer_count() {
        let p = quick_params();
        let two = Pdn::new(&p, 2, TsvTopology::Few, 0.5, None)
            .solve(&StackLoads::uniform_peak(&p, 2))
            .unwrap();
        let eight = Pdn::new(&p, 8, TsvTopology::Few, 0.5, None)
            .solve(&StackLoads::uniform_peak(&p, 8))
            .unwrap();
        assert!(eight.tsv.max_current() > 3.0 * two.tsv.max_current());
    }

    #[test]
    fn more_power_pads_reduce_drop() {
        let p = quick_params();
        let lo = Pdn::new(&p, 2, TsvTopology::Sparse, 0.25, None)
            .solve(&StackLoads::uniform_peak(&p, 2))
            .unwrap();
        let hi = Pdn::new(&p, 2, TsvTopology::Sparse, 1.0, None)
            .solve(&StackLoads::uniform_peak(&p, 2))
            .unwrap();
        assert!(hi.max_ir_drop_frac < lo.max_ir_drop_frac);
    }

    #[test]
    fn transient_step_tracks_activity_jump() {
        let p = quick_params();
        let pdn = Pdn::new(&p, 2, TsvTopology::Sparse, 0.5, None);
        let before = StackLoads::from_activities(&p, &[0.3, 0.3]);
        let after = StackLoads::from_activities(&p, &[1.0, 1.0]);
        let cfg = crate::transient::PdnTransientConfig::default();
        let resp = pdn.solve_transient_step(&before, &after, &cfg).unwrap();
        let dc_after = pdn.solve(&after).unwrap().max_ir_drop_frac;
        assert!(resp.initial_drop < dc_after);
        assert!((resp.final_drop() - dc_after).abs() < 0.1 * dc_after);
        assert!(resp.settling_time(0.001).is_some());
    }

    #[test]
    fn per_block_distribution_concentrates_drop() {
        use crate::params::LoadDistribution;
        let mut uniform = quick_params();
        uniform.load_distribution = LoadDistribution::Uniform;
        let mut per_block = quick_params();
        per_block.load_distribution = LoadDistribution::PerBlock;
        let loads_u = StackLoads::uniform_peak(&uniform, 2);
        let sol_u = Pdn::new(&uniform, 2, TsvTopology::Sparse, 0.5, None)
            .solve(&loads_u)
            .unwrap();
        let sol_b = Pdn::new(&per_block, 2, TsvTopology::Sparse, 0.5, None)
            .solve(&loads_u)
            .unwrap();
        // Same total current either way…
        let total = |s: &crate::solution::PdnSolution| -> f64 {
            s.vdd_c4
                .groups()
                .iter()
                .map(|g| g.current_a * g.count)
                .sum()
        };
        assert!((total(&sol_u) - total(&sol_b)).abs() / total(&sol_u) < 1e-3);
        // …and the distributions are genuinely different while describing
        // the same physical design (worst node moves, not explodes).
        assert_ne!(sol_b.max_ir_drop_frac, sol_u.max_ir_drop_frac);
        let ratio = sol_b.max_ir_drop_frac / sol_u.max_ir_drop_frac;
        assert!((0.6..1.7).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn killed_pad_shifts_current_to_survivors() {
        let p = quick_params();
        check_killed_pad_shifts_current(&[(
            Pdn::new(&p, 2, TsvTopology::Sparse, 0.5, None),
            StackLoads::uniform_peak(&p, 2),
            1e-3,
        )]);
    }

    #[test]
    fn killing_every_vdd_pad_is_disconnected_not_a_panic() {
        let p = quick_params();
        let pdn = Pdn::new(&p, 1, TsvTopology::Sparse, 0.5, None);
        let loads = StackLoads::uniform_peak(&p, 1);
        let mut faults = FaultSet::new();
        for ord in 0..pdn.c4().vdd_count() {
            faults.fail_vdd_pad(ord);
        }
        let err = exact(&pdn, &loads, &faults, None).unwrap_err();
        match err {
            PdnError::Disconnected { floating_nodes, .. } => {
                // The whole supply net floats; the ground net stays tied.
                assert_eq!(floating_nodes, pdn.grid().count());
            }
            other => panic!("expected Disconnected, got {other:?}"),
        }
    }

    #[test]
    fn severed_interface_disconnects_upper_layers() {
        let p = quick_params();
        let pdn = Pdn::new(&p, 2, TsvTopology::Few, 0.5, None);
        let loads = StackLoads::uniform_peak(&p, 2);
        let mut faults = FaultSet::new();
        for core in 0..p.floorplan().core_count() {
            faults.fail_tsvs(0, core, TsvTopology::Few.vdd_tsvs_per_core());
        }
        let err = exact(&pdn, &loads, &faults, None).unwrap_err();
        match err {
            PdnError::Disconnected { floating_nodes, .. } => {
                // Layer 1's supply and ground nets both float.
                assert_eq!(floating_nodes, 2 * pdn.grid().count());
            }
            other => panic!("expected Disconnected, got {other:?}"),
        }
    }

    #[test]
    fn tsv_fault_shrinks_the_bundle_and_raises_stress() {
        let p = quick_params();
        let pdn = Pdn::new(&p, 2, TsvTopology::Few, 0.5, None);
        let loads = StackLoads::uniform_peak(&p, 2);
        let healthy = exact(&pdn, &loads, &FaultSet::new(), None).unwrap();
        let mut faults = FaultSet::new();
        // Kill 80% of interface 0 / core 0's TSVs.
        let n_kill = TsvTopology::Few.vdd_tsvs_per_core() * 4 / 5;
        faults.fail_tsvs(0, 0, n_kill);
        let wounded = exact(&pdn, &loads, &faults, None).unwrap();
        let group = |f: &FaultedSolution| {
            *f.tsv_groups
                .iter()
                .find(|g| g.interface == 0 && g.core == 0)
                .unwrap()
        };
        let (gh, gw) = (group(&healthy), group(&wounded));
        assert_eq!(gw.alive, gh.alive - n_kill as f64);
        assert!(
            gw.current_per_tsv_a > gh.current_per_tsv_a,
            "survivors must run hotter: {} vs {}",
            gw.current_per_tsv_a,
            gh.current_per_tsv_a
        );
    }

    #[test]
    fn scratch_fault_sweep_is_bit_identical_to_fresh_solves() {
        let p = quick_params();
        check_scratch_sweep_matches_fresh_solves(&[(
            Pdn::new(&p, 2, TsvTopology::Few, 0.5, None),
            StackLoads::uniform_peak(&p, 2),
        )]);
    }

    #[test]
    fn empty_fault_set_matches_plain_solve() {
        let p = quick_params();
        check_empty_fault_set_matches_plain_solve(&[(
            Pdn::new(&p, 2, TsvTopology::Sparse, 0.5, None),
            StackLoads::uniform_peak(&p, 2),
        )]);
    }

    #[test]
    fn paper_fidelity_solves_match_direct_factorization() {
        let p = PdnParams::paper_defaults();
        let cases = [TsvTopology::Few, TsvTopology::Dense].map(|topo| {
            (
                format!("regular {topo:?}"),
                Pdn::new(&p, 4, topo, 0.5, None),
                StackLoads::uniform_peak(&p, 4),
            )
        });
        check_paper_fidelity_matches_direct(&cases);
    }

    #[test]
    fn right_hand_side_alone_matches_the_full_stamp() {
        let p = PdnParams::paper_defaults();
        check_rhs_matches_full_stamp(&[(
            Pdn::new(&p, 4, TsvTopology::Few, 0.5, None),
            StackLoads::uniform_peak(&p, 4),
        )]);
    }

    #[test]
    fn input_power_exceeds_load_power() {
        let p = quick_params();
        let pdn = Pdn::new(&p, 2, TsvTopology::Sparse, 0.5, None);
        let sol = pdn.solve(&StackLoads::uniform_peak(&p, 2)).unwrap();
        assert!(sol.p_input_w > sol.p_loads_w);
        assert!(
            sol.efficiency() > 0.9,
            "wire losses only: {}",
            sol.efficiency()
        );
    }
}
