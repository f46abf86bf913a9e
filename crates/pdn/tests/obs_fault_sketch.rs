//! Exact-count checks of the fault-sketch metrics against the sketched
//! fault path.
//!
//! The registry is process-wide, so this file holds a **single** test:
//! `cargo test` runs each integration-test binary as its own process, and
//! with one test in the binary no sibling thread can bump the counters
//! between our before/after reads. Do not add more `#[test]`s here —
//! start another single-test file instead.

use vstack_obs::metrics::global;
use vstack_pdn::{FaultSet, Pdn, PdnParams, SolveScratch, StackLoads, Stacking, TsvTopology};
use vstack_sc::compact::ScConverter;

#[test]
fn fault_sketch_counters_move_in_lock_step_with_the_query_path() {
    let m = global();
    let mut p = PdnParams::paper_defaults();
    p.grid_refinement = 1;
    let pdn = Pdn::new(&p, 2, TsvTopology::Few, 0.5, None);
    let loads = StackLoads::uniform_peak(&p, 2);
    let mut scratch = SolveScratch::new();

    // Cold scratch + empty fault set: exactly one baseline build, one
    // sketch hit (the baseline replay), no fallback, no timed SMW query.
    let before = (
        m.fault_sketch_builds.get(),
        m.fault_sketch_hits.get(),
        m.fault_sketch_fallbacks.get(),
        m.fault_query_us.count(),
    );
    pdn.solve_faulted_sketched(&loads, &FaultSet::new(), &mut scratch)
        .expect("healthy baseline");
    assert_eq!(
        m.fault_sketch_builds.get(),
        before.0 + 1,
        "one baseline build"
    );
    assert_eq!(
        m.fault_sketch_hits.get(),
        before.1 + 1,
        "baseline replay is a hit"
    );
    assert_eq!(m.fault_sketch_fallbacks.get(), before.2, "no fallback");
    assert_eq!(
        m.fault_query_us.count(),
        before.3,
        "baseline replay is not timed"
    );

    // Warm sketch + small fault set: a genuine SMW answer — one hit, one
    // fault_query_us observation, no new build.
    let before = (
        m.fault_sketch_builds.get(),
        m.fault_sketch_hits.get(),
        m.fault_sketch_fallbacks.get(),
        m.fault_query_us.count(),
    );
    let mut faults = FaultSet::new();
    faults.fail_vdd_pad(0);
    faults.fail_gnd_pad(2);
    let answer = pdn
        .solve_faulted_sketched(&loads, &faults, &mut scratch)
        .expect("sketched query");
    assert_eq!(answer.report.operator, "smw", "expected an SMW answer");
    assert_eq!(
        m.fault_sketch_builds.get(),
        before.0,
        "warm query builds nothing"
    );
    assert_eq!(
        m.fault_sketch_hits.get(),
        before.1 + 1,
        "SMW answer is a hit"
    );
    assert_eq!(m.fault_sketch_fallbacks.get(), before.2, "no fallback");
    assert_eq!(m.fault_query_us.count(), before.3 + 1, "SMW query is timed");

    // Healing a fault (query not a superset of the baseline) rebases:
    // one more build, then the answer is a hit again.
    let before = (m.fault_sketch_builds.get(), m.fault_sketch_hits.get());
    let mut base = FaultSet::new();
    base.fail_vdd_pad(0);
    base.fail_vdd_pad(1);
    let mut fresh = SolveScratch::new();
    pdn.solve_faulted_sketched(&loads, &base, &mut fresh)
        .expect("faulted baseline");
    let mut healed = FaultSet::new();
    healed.fail_vdd_pad(0);
    pdn.solve_faulted_sketched(&loads, &healed, &mut fresh)
        .expect("healed query");
    assert_eq!(
        m.fault_sketch_builds.get(),
        before.0 + 2,
        "build at the faulted baseline, then a rebase build for the heal"
    );
    assert_eq!(m.fault_sketch_hits.get(), before.1 + 2);

    // A closed-loop stack cannot be sketched (the Picard loop re-stamps
    // the matrix): the dispatch itself is a fallback.
    let before = (m.fault_sketch_fallbacks.get(), m.fault_sketch_hits.get());
    let stacking = Stacking {
        converter: ScConverter::paper_28nm_closed_loop(),
        converters_per_core: 4,
    };
    let closed = Pdn::new(&p, 3, TsvTopology::Few, 0.25, Some(stacking));
    let loads3 = StackLoads::uniform_peak(&p, 3);
    let mut cl_faults = FaultSet::new();
    cl_faults.fail_vdd_pad(0);
    let mut cl_scratch = SolveScratch::new();
    closed
        .solve_faulted_sketched(&loads3, &cl_faults, &mut cl_scratch)
        .expect("closed-loop fallback");
    assert_eq!(
        m.fault_sketch_fallbacks.get(),
        before.0 + 1,
        "closed-loop dispatch counts as a fallback"
    );
    assert_eq!(m.fault_sketch_hits.get(), before.1, "fallback is not a hit");

    // The snapshot serialization sees the same values the accessors do.
    let snapshot = vstack_obs::metrics::snapshot_json();
    for (name, value) in [
        ("fault_sketch_builds", m.fault_sketch_builds.get()),
        ("fault_sketch_hits", m.fault_sketch_hits.get()),
        ("fault_sketch_fallbacks", m.fault_sketch_fallbacks.get()),
    ] {
        assert!(
            snapshot.contains(&format!("\"{name}\":{value}")),
            "snapshot missing {name}={value}"
        );
    }
    assert!(
        snapshot.contains("\"fault_query_us\""),
        "snapshot missing histogram"
    );
}
