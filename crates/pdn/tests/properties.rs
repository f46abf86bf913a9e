//! Property-based tests for the PDN models: conservation laws and
//! linearity that must hold for any load scenario.

use proptest::prelude::*;
use vstack_pdn::{
    FaultSet, Pdn, PdnError, PdnParams, SolveScratch, StackLoads, Stacking, TsvTopology,
};
use vstack_sc::compact::ScConverter;

fn quick_params() -> PdnParams {
    let mut p = PdnParams::paper_defaults();
    p.grid_refinement = 1;
    p
}

/// A Few-TSV, 25%-power-C4 stack of the paper's open-loop converter.
fn stack(p: &PdnParams, layers: usize, per_core: usize) -> Pdn {
    let stacking = Stacking {
        converter: ScConverter::paper_28nm(),
        converters_per_core: per_core,
    };
    Pdn::new(p, layers, TsvTopology::Few, 0.25, Some(stacking))
}

/// Random per-layer activities in [0, 1].
fn activities(layers: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0..1.0f64, layers)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Regular PDN: the supply pads deliver exactly the total load current
    /// (KCL at the board).
    #[test]
    fn regular_pad_current_conservation(acts in activities(3)) {
        let p = quick_params();
        let pdn = Pdn::new(&p, 3, TsvTopology::Sparse, 0.5, None);
        let loads = StackLoads::from_activities(&p, &acts);
        let sol = pdn.solve(&loads).expect("solvable");
        let pad_sum: f64 = sol.vdd_c4.groups().iter().map(|g| g.current_a * g.count).sum();
        let gnd_sum: f64 = sol.gnd_c4.groups().iter().map(|g| g.current_a * g.count).sum();
        let total = loads.total_current();
        prop_assert!((pad_sum - total).abs() / total.max(1e-9) < 1e-3);
        prop_assert!((gnd_sum - total).abs() / total.max(1e-9) < 1e-3);
    }

    /// Regular PDN is a linear network: scaling all loads scales the IR
    /// drop (in volts) by the same factor.
    #[test]
    fn regular_ir_drop_is_linear(acts in activities(2), k in 0.25..1.0f64) {
        // Scale activities so both points stay within [0, 1]. Use idle
        // leakage-free comparison via explicit currents.
        let p = quick_params();
        let pdn = Pdn::new(&p, 2, TsvTopology::Sparse, 0.5, None);
        let base: Vec<Vec<f64>> = (0..2)
            .map(|l| vec![0.1 + 0.3 * acts[l % acts.len()]; 16])
            .collect();
        let scaled: Vec<Vec<f64>> = base
            .iter()
            .map(|layer| layer.iter().map(|i| i * k).collect())
            .collect();
        let s1 = pdn.solve(&StackLoads::from_currents(base)).expect("solve");
        let s2 = pdn.solve(&StackLoads::from_currents(scaled)).expect("solve");
        prop_assert!(
            (s2.max_ir_drop_frac - k * s1.max_ir_drop_frac).abs() < 1e-6,
            "linearity: {} vs {}",
            s2.max_ir_drop_frac,
            k * s1.max_ir_drop_frac
        );
    }

    /// V-S PDN: the board supplies at least the maximum layer current
    /// (the series current) and not more than total/1 (sanity envelope),
    /// and energy is conserved (input ≥ load power).
    #[test]
    fn vs_energy_and_current_envelope(acts in activities(4)) {
        let p = quick_params();
        let pdn = stack(&p, 4, 4);
        let loads = StackLoads::from_activities(&p, &acts);
        let sol = pdn.solve(&loads).expect("solvable");
        let input: f64 = sol.vdd_c4.groups().iter().map(|g| g.current_a * g.count).sum();
        let max_layer = loads.max_layer_current();
        let mean_layer = loads.total_current() / 4.0;
        prop_assert!(input >= 0.95 * mean_layer, "input {input} vs mean layer {mean_layer}");
        prop_assert!(input <= 1.30 * max_layer, "input {input} vs max layer {max_layer}");
        prop_assert!(sol.p_input_w >= sol.p_loads_w - 1e-9);
    }

    /// V-S noise grows monotonically with the imbalance ratio, and
    /// flipping which layer parity is "high" stays within the same
    /// regime (the stack is not exactly parity-symmetric — ground pads
    /// enter at the bottom, through-vias at the top).
    #[test]
    fn vs_noise_monotone_and_parity_bounded(x in 0.1..0.7f64, dx in 0.05..0.3f64) {
        let p = quick_params();
        let pdn = stack(&p, 4, 8);
        let lo = StackLoads::from_activities(&p, &[1.0, 1.0 - x, 1.0, 1.0 - x]);
        let hi = StackLoads::from_activities(
            &p,
            &[1.0, 1.0 - x - dx, 1.0, 1.0 - x - dx],
        );
        let s_lo = pdn.solve(&lo).expect("solve lo");
        let s_hi = pdn.solve(&hi).expect("solve hi");
        prop_assert!(
            s_hi.max_ir_drop_frac > s_lo.max_ir_drop_frac,
            "more imbalance must mean more noise: {} vs {}",
            s_hi.max_ir_drop_frac,
            s_lo.max_ir_drop_frac
        );
        let flipped = StackLoads::from_activities(&p, &[1.0 - x, 1.0, 1.0 - x, 1.0]);
        let s_flip = pdn.solve(&flipped).expect("solve flipped");
        let ratio = s_flip.max_ir_drop_frac / s_lo.max_ir_drop_frac;
        prop_assert!((0.5..2.0).contains(&ratio), "parity ratio {ratio}");
    }

    /// Open-circuiting any single pad of either net, on either topology,
    /// never panics: the solve returns a finite solution (the survivors
    /// pick up the current) or a clean [`PdnError::Disconnected`] — never
    /// a solver breakdown leaking through.
    #[test]
    fn single_pad_fault_never_panics(
        acts in activities(2),
        victim in 0..1024usize,
        vdd_side in 0..2usize,
        stacked in 0..2usize,
    ) {
        let (vdd_side, stacked) = (vdd_side == 1, stacked == 1);
        let p = quick_params();
        let loads = StackLoads::from_activities(&p, &acts);
        let pdn = if stacked {
            stack(&p, 2, 4)
        } else {
            Pdn::new(&p, 2, TsvTopology::Few, 0.25, None)
        };
        let mut faults = FaultSet::new();
        if vdd_side {
            faults.fail_vdd_pad(victim % pdn.c4().vdd_count());
        } else {
            faults.fail_gnd_pad(victim % pdn.c4().gnd_count());
        }
        let result = pdn.solve_faulted_scratch(&loads, &faults, None, &mut SolveScratch::new());
        match result {
            Ok(sol) => {
                prop_assert!(sol.solution.max_ir_drop_frac.is_finite());
                prop_assert!(sol.voltages.iter().all(|v| v.is_finite()));
            }
            Err(PdnError::Disconnected { floating_nodes, .. }) => {
                prop_assert!(floating_nodes > 0);
            }
            Err(PdnError::Solve(e)) => {
                prop_assert!(false, "solver error leaked: {e}");
            }
        }
    }

    /// Balanced stacks stay quiet no matter the absolute load level.
    #[test]
    fn vs_balanced_is_always_quiet(a in 0.1..1.0f64) {
        let p = quick_params();
        let pdn = stack(&p, 4, 4);
        let loads = StackLoads::from_activities(&p, &[a, a, a, a]);
        let sol = pdn.solve(&loads).expect("solve");
        prop_assert!(sol.max_ir_drop_frac < 0.02, "got {}", sol.max_ir_drop_frac);
        prop_assert!(!sol.has_overload());
    }
}
