//! Sketch-vs-exact agreement for the rank-k fault sketch.
//!
//! `solve_faulted_sketched` must be indistinguishable from the exact
//! ladder path (`solve_faulted_scratch`) up to the SMW residual tolerance, on both
//! topologies, across random fault sets — including the paths where the
//! sketch *refuses* (structural disconnection, over-budget queries) and
//! falls back. The thread-count sweep pins the bit-identity contract: the
//! SMW query is serial dense algebra, the baseline solve reuses the pool's
//! fixed-chunk reductions, and the column factor and sweeps are serial, so
//! answers cannot depend on parallelism.
//!
//! The quick 8-layer map tests pin the column path: one envelope
//! factorization per sketch, at most `SKETCH_BUDGET` materialized columns,
//! and no factorization at all for a one-shot query, all read from the
//! sketch's own counters.

use std::sync::Arc;

use proptest::prelude::*;
use vstack_pdn::sketch::SKETCH_BUDGET;
use vstack_pdn::{
    FaultSet, FaultedSolution, Pdn, PdnError, PdnParams, SolveScratch, StackLoads, Stacking,
    TsvTopology,
};
use vstack_sc::compact::ScConverter;
use vstack_sparse::pool::{with_pool, ThreadPool};

fn quick_params() -> PdnParams {
    let mut p = PdnParams::paper_defaults();
    p.grid_refinement = 1;
    p
}

fn vs_pdn(p: &PdnParams, layers: usize) -> Pdn {
    stack(p, layers, ScConverter::paper_28nm())
}

/// A Few-TSV, 25%-power-C4 stack of `converter`, 4 cells per core.
fn stack(p: &PdnParams, layers: usize, converter: ScConverter) -> Pdn {
    let stacking = Stacking {
        converter,
        converters_per_core: 4,
    };
    Pdn::new(p, layers, TsvTopology::Few, 0.25, Some(stacking))
}

/// The exact ladder solve of `faults` on a fresh scratch.
fn exact(pdn: &Pdn, loads: &StackLoads, faults: &FaultSet) -> Result<FaultedSolution, PdnError> {
    pdn.solve_faulted_scratch(loads, faults, None, &mut SolveScratch::new())
}

/// Worst per-node voltage disagreement, relative to the vector's scale.
fn rel_inf_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    let scale = b.iter().fold(0.0f64, |m, x| m.max(x.abs())).max(1e-30);
    a.iter()
        .zip(b)
        .fold(0.0f64, |m, (x, y)| m.max((x - y).abs()))
        / scale
}

/// A small random fault set drawn from valid pad ordinals and TSV keys.
fn random_faults(
    pdn_vdd: usize,
    pdn_gnd: usize,
    interfaces: usize,
    cores: usize,
    tsvs_per_core: usize,
    picks: &[(u32, usize, usize)],
) -> FaultSet {
    let mut f = FaultSet::new();
    for &(kind, a, b) in picks {
        match kind % 3 {
            0 => f.fail_vdd_pad(a % pdn_vdd),
            1 => f.fail_gnd_pad(a % pdn_gnd),
            _ => f.fail_tsvs(
                a % interfaces.max(1),
                b % cores,
                1 + b % (tsvs_per_core / 2).max(1),
            ),
        }
    }
    f
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Regular topology: sketched answers agree with the exact ladder for
    /// random ≤5-element fault sets, and the second distinct query is
    /// genuinely SMW-answered (not a silent fallback).
    #[test]
    fn regular_sketch_matches_exact(
        acts in prop::collection::vec(0.2..1.0f64, 2),
        picks in prop::collection::vec((0u32..3, 0usize..64, 0usize..64), 1..5),
    ) {
        let p = quick_params();
        let pdn = Pdn::new(&p, 2, TsvTopology::Few, 0.5, None);
        let loads = StackLoads::from_activities(&p, &acts);
        let faults = random_faults(
            pdn.c4().vdd_count(),
            pdn.c4().gnd_count(),
            1,
            16,
            TsvTopology::Few.vdd_tsvs_per_core(),
            &picks,
        );
        let mut scratch = SolveScratch::new();
        // Warm the sketch with the empty baseline, then query the faults.
        let healthy = pdn
            .solve_faulted_sketched(&loads, &FaultSet::new(), &mut scratch)
            .expect("healthy");
        let sketched = pdn
            .solve_faulted_sketched(&loads, &faults, &mut scratch)
            .expect("sketched");
        let exact = exact(&pdn, &loads, &faults).expect("exact");
        prop_assert_eq!(sketched.report.operator, "smw", "expected SMW answer");
        let rel = rel_inf_diff(&sketched.voltages, &exact.voltages);
        prop_assert!(rel < 1e-8, "voltage disagreement {rel}");
        prop_assert!(
            (sketched.solution.max_ir_drop_frac - exact.solution.max_ir_drop_frac).abs() < 1e-8
        );
        prop_assert_eq!(
            sketched.vdd_pad_currents.len(),
            exact.vdd_pad_currents.len()
        );
        prop_assert!(sketched.solution.max_ir_drop_frac >= healthy.solution.max_ir_drop_frac - 1e-12);
    }

    /// Voltage-stacked (open-loop) topology: same agreement contract.
    #[test]
    fn vstacked_sketch_matches_exact(
        acts in prop::collection::vec(0.2..1.0f64, 3),
        picks in prop::collection::vec((0u32..3, 0usize..64, 0usize..64), 1..5),
    ) {
        let p = quick_params();
        let pdn = vs_pdn(&p, 3);
        let loads = StackLoads::from_activities(&p, &acts);
        let faults = random_faults(
            pdn.c4().vdd_count(),
            pdn.c4().gnd_count(),
            2,
            16,
            TsvTopology::Few.tsvs_per_core(),
            &picks,
        );
        let mut scratch = SolveScratch::new();
        pdn.solve_faulted_sketched(&loads, &FaultSet::new(), &mut scratch)
            .expect("healthy");
        let sketched = pdn
            .solve_faulted_sketched(&loads, &faults, &mut scratch)
            .expect("sketched");
        let exact = exact(&pdn, &loads, &faults).expect("exact");
        prop_assert_eq!(sketched.report.operator, "smw", "expected SMW answer");
        let rel = rel_inf_diff(&sketched.voltages, &exact.voltages);
        prop_assert!(rel < 1e-8, "voltage disagreement {rel}");
        prop_assert!(
            (sketched.solution.max_ir_drop_frac - exact.solution.max_ir_drop_frac).abs() < 1e-8
        );
    }
}

#[test]
fn first_query_builds_at_the_query_and_replays_the_baseline() {
    // A cold scratch builds the baseline *at the query's fault set*, so
    // the first answer is an exact replay, and the warm second query with
    // one extra fault goes through SMW.
    let p = quick_params();
    let pdn = Pdn::new(&p, 2, TsvTopology::Few, 0.5, None);
    let loads = StackLoads::uniform_peak(&p, 2);
    let mut faults = FaultSet::new();
    faults.fail_vdd_pad(0);
    let mut scratch = SolveScratch::new();
    let first = pdn
        .solve_faulted_sketched(&loads, &faults, &mut scratch)
        .unwrap();
    assert_ne!(
        first.report.operator, "smw",
        "first call replays the baseline solve"
    );
    let exact1 = exact(&pdn, &loads, &faults).unwrap();
    assert!(rel_inf_diff(&first.voltages, &exact1.voltages) < 1e-8);

    faults.fail_gnd_pad(3);
    let second = pdn
        .solve_faulted_sketched(&loads, &faults, &mut scratch)
        .unwrap();
    assert_eq!(second.report.operator, "smw");
    let exact2 = exact(&pdn, &loads, &faults).unwrap();
    assert!(rel_inf_diff(&second.voltages, &exact2.voltages) < 1e-8);
}

#[test]
fn healing_a_fault_rebases_instead_of_lying() {
    // Queries that REMOVE faults relative to the sketch baseline cannot be
    // answered by downdates; the planner rebases onto the empty baseline
    // and still returns the exact answer.
    let p = quick_params();
    let pdn = Pdn::new(&p, 2, TsvTopology::Few, 0.5, None);
    let loads = StackLoads::uniform_peak(&p, 2);
    let mut scratch = SolveScratch::new();
    let mut faults = FaultSet::new();
    faults.fail_vdd_pad(0);
    faults.fail_vdd_pad(1);
    pdn.solve_faulted_sketched(&loads, &faults, &mut scratch)
        .unwrap();
    // "Heal" pad 1: not a superset of the baseline any more.
    let mut healed = FaultSet::new();
    healed.fail_vdd_pad(0);
    let sketched = pdn
        .solve_faulted_sketched(&loads, &healed, &mut scratch)
        .unwrap();
    let exact = exact(&pdn, &loads, &healed).unwrap();
    assert!(rel_inf_diff(&sketched.voltages, &exact.voltages) < 1e-8);
}

#[test]
fn disconnection_is_reported_not_approximated() {
    // Killing every supply pad must surface PdnError::Disconnected from
    // the sketched entry point exactly like the exact path — via the SMW
    // near-singular guard (within budget) or the rebase build (beyond).
    let p = quick_params();
    let pdn = Pdn::new(&p, 1, TsvTopology::Sparse, 0.5, None);
    let loads = StackLoads::uniform_peak(&p, 1);
    let mut scratch = SolveScratch::new();
    pdn.solve_faulted_sketched(&loads, &FaultSet::new(), &mut scratch)
        .unwrap();
    let mut faults = FaultSet::new();
    for ord in 0..pdn.c4().vdd_count() {
        faults.fail_vdd_pad(ord);
    }
    let err = pdn
        .solve_faulted_sketched(&loads, &faults, &mut scratch)
        .unwrap_err();
    assert!(
        matches!(err, PdnError::Disconnected { .. }),
        "expected Disconnected, got {err:?}"
    );
}

#[test]
fn severed_interface_disconnects_through_the_sketch_too() {
    let p = quick_params();
    let pdn = Pdn::new(&p, 2, TsvTopology::Few, 0.5, None);
    let loads = StackLoads::uniform_peak(&p, 2);
    let mut scratch = SolveScratch::new();
    pdn.solve_faulted_sketched(&loads, &FaultSet::new(), &mut scratch)
        .unwrap();
    let mut faults = FaultSet::new();
    for core in 0..p.floorplan().core_count() {
        faults.fail_tsvs(0, core, TsvTopology::Few.vdd_tsvs_per_core());
    }
    let err = pdn
        .solve_faulted_sketched(&loads, &faults, &mut scratch)
        .unwrap_err();
    assert!(
        matches!(err, PdnError::Disconnected { .. }),
        "expected Disconnected, got {err:?}"
    );
}

#[test]
fn closed_loop_stacks_fall_back_to_picard() {
    let p = quick_params();
    let pdn = stack(&p, 3, ScConverter::paper_28nm_closed_loop());
    let loads = StackLoads::uniform_peak(&p, 3);
    let mut faults = FaultSet::new();
    faults.fail_vdd_pad(0);
    let mut scratch = SolveScratch::new();
    let sketched = pdn
        .solve_faulted_sketched(&loads, &faults, &mut scratch)
        .unwrap();
    let exact = exact(&pdn, &loads, &faults).unwrap();
    assert_ne!(sketched.report.operator, "smw");
    assert_eq!(sketched.voltages, exact.voltages);
}

#[test]
fn load_change_invalidates_the_fingerprint() {
    // A different load vector must not be answered from the old sketch.
    let p = quick_params();
    let pdn = Pdn::new(&p, 2, TsvTopology::Few, 0.5, None);
    let mut scratch = SolveScratch::new();
    let loads_a = StackLoads::uniform_peak(&p, 2);
    let loads_b = StackLoads::from_activities(&p, &[0.4, 0.9]);
    let mut faults = FaultSet::new();
    faults.fail_vdd_pad(2);
    pdn.solve_faulted_sketched(&loads_a, &FaultSet::new(), &mut scratch)
        .unwrap();
    let sketched = pdn
        .solve_faulted_sketched(&loads_b, &faults, &mut scratch)
        .unwrap();
    let exact = exact(&pdn, &loads_b, &faults).unwrap();
    assert!(rel_inf_diff(&sketched.voltages, &exact.voltages) < 1e-8);
}

#[test]
fn sketched_answers_are_bit_identical_across_thread_counts() {
    // Build + query entirely inside pools of 1, 2 and 4 contexts: the
    // answers (baseline replay AND SMW-updated) must match bit for bit.
    let p = quick_params();
    let pdn = Pdn::new(&p, 2, TsvTopology::Few, 0.5, None);
    let loads = StackLoads::uniform_peak(&p, 2);
    let mut faults = FaultSet::new();
    faults.fail_vdd_pad(1);
    faults.fail_tsvs(0, 3, 4);
    let runs: Vec<(Vec<f64>, Vec<f64>)> = [1usize, 2, 4]
        .iter()
        .map(|&c| Arc::new(ThreadPool::new(c)))
        .map(|pool| {
            with_pool(&pool, || {
                let mut scratch = SolveScratch::new();
                let base = pdn
                    .solve_faulted_sketched(&loads, &FaultSet::new(), &mut scratch)
                    .unwrap();
                let faulted = pdn
                    .solve_faulted_sketched(&loads, &faults, &mut scratch)
                    .unwrap();
                assert_eq!(faulted.report.operator, "smw");
                (base.voltages, faulted.voltages)
            })
        })
        .collect();
    for (b, f) in &runs[1..] {
        assert_eq!(b, &runs[0].0, "baseline not bit-identical across pools");
        assert_eq!(f, &runs[0].1, "SMW answer not bit-identical across pools");
    }
}

const MAP_LAYERS: usize = 8;

/// Both quick 8-layer topologies under test, with their labels.
fn map_pdns() -> [(&'static str, Pdn); 2] {
    let p = quick_params();
    [
        (
            "regular",
            Pdn::new(&p, MAP_LAYERS, TsvTopology::Few, 0.25, None),
        ),
        ("voltage-stacked", vs_pdn(&p, MAP_LAYERS)),
    ]
}

/// `faults` through the sketch cached in `scratch`, at peak loads.
fn sketched(
    pdn: &Pdn,
    faults: &FaultSet,
    scratch: &mut SolveScratch,
) -> Result<FaultedSolution, PdnError> {
    let loads = StackLoads::uniform_peak(&quick_params(), MAP_LAYERS);
    pdn.solve_faulted_sketched(&loads, faults, scratch)
}

/// The exact ladder solve of `faults` at the sketch's 1e-11 build
/// tolerance: a one-shot query on a fresh scratch, which solves the
/// faulted network itself and uses no SMW column.
fn exact_at_build_tolerance(pdn: &Pdn, faults: &FaultSet) -> FaultedSolution {
    let exact = sketched(pdn, faults, &mut SolveScratch::new()).expect("exact");
    assert_ne!(exact.report.operator, "smw");
    exact
}

/// Opens one fault element in a fault set.
type Element = Box<dyn Fn(&mut FaultSet)>;

/// Every single-element fault set of a quick 8-layer map, then pairs of
/// them stepping through the list.
fn map_queries(pdn: &Pdn) -> Vec<FaultSet> {
    let cores = quick_params().floorplan().core_count();
    let (vdd, gnd, per_bundle) = (
        pdn.c4().vdd_count(),
        pdn.c4().gnd_count(),
        pdn.tsvs_per_bundle(),
    );
    let mut elements: Vec<Element> = Vec::new();
    for ord in 0..vdd {
        elements.push(Box::new(move |f| f.fail_vdd_pad(ord)));
    }
    for ord in 0..gnd {
        elements.push(Box::new(move |f| f.fail_gnd_pad(ord)));
    }
    for interface in 0..MAP_LAYERS - 1 {
        for core in 0..cores {
            elements.push(Box::new(move |f| f.fail_tsvs(interface, core, per_bundle)));
        }
    }
    let n = elements.len();
    let singles = (0..n).map(|a| vec![a]);
    let pairs = (0..64).map(|i| vec![(i * 97) % n, (i * 31 + 7) % n]);
    singles
        .chain(pairs)
        .map(|picks| {
            let mut f = FaultSet::new();
            for a in picks {
                elements[a](&mut f);
            }
            f
        })
        .collect()
}

#[test]
fn quick_eight_layer_maps_factor_once_and_cap_ready_columns() {
    for (label, pdn) in map_pdns() {
        let mut scratch = SolveScratch::new();
        sketched(&pdn, &FaultSet::new(), &mut scratch).expect("healthy");
        let queries = map_queries(&pdn);
        for (i, faults) in queries.iter().enumerate() {
            let sketched = sketched(&pdn, faults, &mut scratch).expect("sketched");
            assert_eq!(sketched.report.operator, "smw", "{}: query {i}", label);
            let sk = scratch.fault_sketch().expect("sketch kept in the scratch");
            assert!(
                sk.ready_columns() <= SKETCH_BUDGET,
                "{}: {} ready columns after query {i}",
                label,
                sk.ready_columns()
            );
            if i % 61 == 0 {
                let exact = exact_at_build_tolerance(&pdn, faults);
                let rel = rel_inf_diff(&sketched.voltages, &exact.voltages);
                assert!(rel <= 1e-9, "{}: query {i} off by {rel}", label);
            }
        }
        let sk = scratch.fault_sketch().unwrap();
        assert!(sk.base_faults().is_empty(), "{}: the sketch rebased", label);
        assert_eq!(sk.factorizations(), 1, "{}", label);
    }
}

#[test]
fn one_shot_faulted_query_never_factors() {
    // A serving engine answers each faulted request on a fresh scratch:
    // the sketch is built at the requested fault set and replays its
    // baseline, so no column — and no factorization — is ever needed.
    for (label, pdn) in map_pdns() {
        let faults = map_queries(&pdn).pop().expect("a pair query");
        let mut scratch = SolveScratch::new();
        let answer = sketched(&pdn, &faults, &mut scratch).expect("one-shot");
        assert_ne!(answer.report.operator, "smw", "{}", label);
        let sk = scratch.fault_sketch().expect("sketch built");
        assert_eq!(sk.factorizations(), 0, "{}", label);
        assert_eq!(sk.ready_columns(), 0, "{}", label);
    }
}
