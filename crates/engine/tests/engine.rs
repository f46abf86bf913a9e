//! Integration tests for the query engine: codec round-trips, fingerprint
//! stability, cache-tier behaviour and the warm-start bit-identity
//! guarantee. Duplicate requests are deduplicated by the serving daemon,
//! not the engine (`serve_smoke.rs`).

use std::fs;
use std::path::PathBuf;

use proptest::prelude::*;
use vstack_engine::engine::{solve_scenario, EngineError};
use vstack_engine::json::Json;
use vstack_engine::{Engine, EngineConfig, Outcome, ScenarioRequest, ThermalAxis};

/// A fresh per-test scratch directory under the system temp dir.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vstack-engine-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Strategy pieces: a scenario request from integer draws (the vendored
/// proptest has no enum strategies, so enums are picked by index). A
/// one-layer draw stacks two layers, the fewest a valid V-S request has.
fn request_from(
    kind: usize,
    layers: usize,
    tsv: usize,
    power_c4: f64,
    converters: usize,
    imbalance: f64,
    flags: usize,
) -> ScenarioRequest {
    use vstack::pdn::TsvTopology;
    let mut req = if kind == 0 {
        ScenarioRequest::regular(layers)
    } else {
        ScenarioRequest::voltage_stacked(layers.max(2), imbalance)
    };
    req = req
        .tsv([TsvTopology::Dense, TsvTopology::Sparse, TsvTopology::Few][tsv % 3])
        .power_c4(power_c4)
        .converters(converters)
        .closed_loop(flags & 1 != 0);
    if flags & 2 != 0 {
        req = req.quick();
    }
    req
}

/// A drawn third axis: `pick` 0 adds none, 1 the thermal axis
/// `(ambient_c, sink_k_per_w, hotspot layer, hotspot kind, watts)` —
/// kind 0 no hotspot, 1 a zero-watt one, 2 `watts` — and 2 the fault
/// entries `(kind, ordinal or interface, core, count)` as a client
/// might list them: kind 0 a Vdd pad, 1 a Gnd pad, 2 a TSV triple, with
/// duplicate pads, split and zero-count triples. Thermal and faults
/// cannot combine.
type AxisDraw = (
    usize,
    (f64, f64, usize, usize, f64),
    Vec<(usize, usize, usize, usize)>,
);

/// Every thermal knob across its valid range; up to 8 listed faults,
/// half the 16-element ceiling.
fn axis_draws() -> impl Strategy<Value = AxisDraw> {
    (
        0usize..3,
        (
            -55.0..150.0f64,
            0.05..100.0f64,
            0usize..64,
            0usize..3,
            0.0..1000.0f64,
        ),
        prop::collection::vec((0usize..3, 0usize..6, 0usize..4, 0usize..3), 0..9),
    )
}

/// `req` with the drawn axis added through the builder.
fn with_axis(mut req: ScenarioRequest, (pick, thermal, faults): &AxisDraw) -> ScenarioRequest {
    let layers = req.layers;
    match pick {
        1 => {
            let &(ambient_c, sink_k_per_w, layer, hotspot, watts) = thermal;
            let hotspot = match hotspot {
                0 => None,
                1 => Some((layer % layers, 0.0)),
                _ => Some((layer % layers, watts)),
            };
            req = req.thermal(ThermalAxis {
                ambient_c,
                sink_k_per_w,
                hotspot,
            });
        }
        2 => {
            for &(kind, at, core, count) in faults {
                req = match kind {
                    0 => req.fail_vdd_pad(at),
                    1 => req.fail_gnd_pad(at),
                    _ if layers >= 2 => req.fail_tsvs(at % (layers - 1), core, count),
                    _ => req,
                };
            }
        }
        _ => {}
    }
    req
}

/// `req`'s document with its fault lists spelled as drawn, duplicates
/// and zero counts included.
fn listed_doc(req: &ScenarioRequest, faults: &[(usize, usize, usize, usize)]) -> Json {
    let Json::Obj(mut pairs) = req.to_json() else {
        unreachable!()
    };
    pairs.retain(|(key, _)| !key.starts_with("failed_"));
    let ints = |xs: Vec<usize>| Json::Arr(xs.into_iter().map(|x| Json::Num(x as f64)).collect());
    let pads = |kind| faults.iter().filter(|f| f.0 == kind).map(|f| f.1).collect();
    let tsvs = faults
        .iter()
        .filter(|f| f.0 == 2 && req.layers >= 2)
        .map(|&(_, at, core, count)| ints(vec![at % (req.layers - 1), core, count]))
        .collect();
    pairs.push(("failed_vdd_pads".to_string(), ints(pads(0))));
    pairs.push(("failed_gnd_pads".to_string(), ints(pads(1))));
    pairs.push(("failed_tsvs".to_string(), Json::Arr(tsvs)));
    Json::Obj(pairs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// JSON codec round-trip: emit → parse → from_json reproduces the
    /// canonical request and its fingerprint exactly, on every axis; a
    /// fault set listed with duplicates, split and zero counts parses to
    /// the same request.
    #[test]
    fn request_json_round_trip(
        kind in 0usize..2,
        layers in 1usize..17,
        tsv in 0usize..3,
        power_c4 in 0.05..1.0f64,
        converters in 1usize..17,
        imbalance in 0.0..1.0f64,
        flags in 0usize..4,
        axis in axis_draws(),
    ) {
        let base = request_from(kind, layers, tsv, power_c4, converters, imbalance, flags);
        let req = with_axis(base, &axis);
        prop_assert!(req.validate().is_ok());
        let wire = req.to_json().emit();
        let back = ScenarioRequest::from_json(&Json::parse(&wire).unwrap()).unwrap();
        prop_assert_eq!(&back, &req.canonical());
        prop_assert_eq!(back.fingerprint(), req.fingerprint());
        if axis.0 == 2 {
            let listed = ScenarioRequest::from_json(&listed_doc(&req, &axis.2)).unwrap();
            prop_assert_eq!(&listed, &back);
        }
    }

    /// Fingerprints are stable under JSON field permutation: rotating the
    /// emitted object's fields changes nothing.
    #[test]
    fn fingerprint_stable_under_field_order(
        kind in 0usize..2,
        layers in 1usize..17,
        tsv in 0usize..3,
        power_c4 in 0.05..1.0f64,
        converters in 1usize..17,
        imbalance in 0.0..1.0f64,
        rotation in 0usize..16,
        axis in axis_draws(),
    ) {
        let base = request_from(kind, layers, tsv, power_c4, converters, imbalance, 0);
        let req = with_axis(base, &axis);
        let Json::Obj(mut pairs) = req.to_json() else { unreachable!() };
        let n = pairs.len().max(1);
        pairs.rotate_left(rotation % n);
        let permuted = ScenarioRequest::from_json(&Json::Obj(pairs)).unwrap();
        prop_assert_eq!(permuted.fingerprint(), req.fingerprint());
    }

    /// Two requests share a fingerprint iff they share a canonical form.
    /// The small ranges make collisions common: a zero-watt hotspot and
    /// none, a duplicated fault and one.
    #[test]
    fn fingerprint_matches_canonical_equality(
        a in (0usize..2, 1usize..5, 0usize..3, 0usize..4),
        b in (0usize..2, 1usize..5, 0usize..3, 0usize..4),
        axis_a in (0usize..3, 0usize..3, prop::collection::vec((0usize..3, 0usize..2, 0usize..2, 0usize..2), 0..3)),
        axis_b in (0usize..3, 0usize..3, prop::collection::vec((0usize..3, 0usize..2, 0usize..2, 0usize..2), 0..3)),
    ) {
        let mk = |(kind, layers, tsv, flags): (usize, usize, usize, usize),
                  (pick, hotspot, faults): (usize, usize, Vec<_>)| {
            let axis = (pick, (45.0, 0.30, 0, hotspot, 5.0), faults);
            with_axis(request_from(kind, layers, tsv, 0.25, 4, 0.5, flags), &axis)
        };
        let (ra, rb) = (mk(a, axis_a), mk(b, axis_b));
        prop_assert_eq!(
            ra.fingerprint() == rb.fingerprint(),
            ra.canonical() == rb.canonical()
        );
    }
}

/// A cheap scenario the solver finishes in milliseconds.
fn quick_vs(imbalance: f64) -> ScenarioRequest {
    ScenarioRequest::voltage_stacked(2, imbalance).quick()
}

#[test]
fn warm_started_resolve_is_bit_identical_to_cold() {
    let req = quick_vs(0.5);
    let (cold_summary, cold_voltages) = solve_scenario(&req, None).unwrap();
    let (warm_summary, warm_voltages) = solve_scenario(&req, Some(&cold_voltages)).unwrap();
    assert_eq!(
        warm_voltages, cold_voltages,
        "a converged guess must be returned unchanged"
    );
    assert_eq!(warm_summary.solver_iterations, 0);
    assert_eq!(
        warm_summary.max_ir_drop_frac.to_bits(),
        cold_summary.max_ir_drop_frac.to_bits()
    );
    assert_eq!(
        warm_summary.efficiency.to_bits(),
        cold_summary.efficiency.to_bits()
    );
}

#[test]
fn neighbour_queries_warm_start_and_agree_with_cold() {
    let mut engine = Engine::new(EngineConfig::default()).unwrap();
    engine.query(&quick_vs(0.40)).unwrap();
    let warm = engine.query(&quick_vs(0.45)).unwrap();
    assert_eq!(warm.outcome, Outcome::Warm);
    assert_eq!(engine.stats().warm_solves, 1);
    // The warm-started answer matches a from-scratch solve to solver
    // tolerance.
    let (cold, _) = solve_scenario(&quick_vs(0.45), None).unwrap();
    let rel =
        (warm.summary.max_ir_drop_frac - cold.max_ir_drop_frac).abs() / cold.max_ir_drop_frac.abs();
    assert!(rel < 1e-6, "warm vs cold relative difference {rel}");
}

#[test]
fn warm_start_requires_matching_structure() {
    let mut engine = Engine::new(EngineConfig::default()).unwrap();
    engine.query(&quick_vs(0.4)).unwrap();
    // Different layer count: no compatible donor, must go cold.
    let other = engine
        .query(&ScenarioRequest::voltage_stacked(4, 0.4).quick())
        .unwrap();
    assert_eq!(other.outcome, Outcome::Cold);
}

#[test]
fn lru_bound_forces_resolve_after_eviction() {
    let mut engine = Engine::new(EngineConfig {
        lru_capacity: 1,
        cache_dir: None,
        warm_start: false,
    })
    .unwrap();
    let (a, b) = (quick_vs(0.3), quick_vs(0.6));
    engine.query(&a).unwrap();
    engine.query(&b).unwrap(); // evicts a
    let again = engine.query(&a).unwrap();
    assert_eq!(again.outcome, Outcome::Cold, "evicted entry must re-solve");
    assert_eq!(engine.stats().cold_solves, 3);
    assert_eq!(engine.stats().memory_hits, 0);
}

#[test]
fn invalid_requests_are_rejected_without_solving() {
    let mut engine = Engine::new(EngineConfig::default()).unwrap();
    let bad = ScenarioRequest::voltage_stacked(0, 0.4);
    assert!(engine.query(&bad).is_err());
    assert_eq!(engine.stats().solves(), 0);
    assert_eq!(engine.stats().invalid, 1);
}

#[test]
fn disk_tier_round_trip_and_schema_rejection() {
    let dir = scratch_dir("disk");
    let req = quick_vs(0.5);
    let fp = req.fingerprint();

    // First engine: cold solve, flushed to disk on demand.
    let config = EngineConfig {
        lru_capacity: 8,
        cache_dir: Some(dir.clone()),
        warm_start: true,
    };
    let mut first = Engine::new(config.clone()).unwrap();
    let cold = first.query(&req).unwrap();
    assert_eq!(cold.outcome, Outcome::Cold);
    assert_eq!(first.flush().unwrap(), 1);

    // Second engine, same dir: a disk hit, no solve.
    let mut second = Engine::new(config.clone()).unwrap();
    let hit = second.query(&req).unwrap();
    assert_eq!(hit.outcome, Outcome::HitDisk);
    assert_eq!(hit.summary, cold.summary);
    assert_eq!(second.stats().solves(), 0);

    // Tamper the schema stamp: the entry must be rejected and re-solved.
    let path = dir.join(format!("{}.json", ScenarioRequest::format_fingerprint(fp)));
    let text = fs::read_to_string(&path).unwrap();
    let stamp = format!("\"schema\":{}", vstack_engine::SCHEMA_VERSION);
    assert!(text.contains(&stamp));
    fs::write(&path, text.replace(&stamp, "\"schema\":999")).unwrap();
    let mut third = Engine::new(config).unwrap();
    let resolved = third.query(&req).unwrap();
    assert_eq!(resolved.outcome, Outcome::Cold);
    assert_eq!(third.stats().schema_rejects, 1);

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_disk_entries_are_rejected() {
    let dir = scratch_dir("corrupt");
    let req = quick_vs(0.25);
    let config = EngineConfig {
        lru_capacity: 8,
        cache_dir: Some(dir.clone()),
        warm_start: true,
    };
    let mut first = Engine::new(config.clone()).unwrap();
    first.query(&req).unwrap();
    first.flush().unwrap();
    let path = dir.join(format!(
        "{}.json",
        ScenarioRequest::format_fingerprint(req.fingerprint())
    ));
    fs::write(&path, "{ not json").unwrap();
    let mut second = Engine::new(config).unwrap();
    let resolved = second.query(&req).unwrap();
    assert_eq!(resolved.outcome, Outcome::Cold);
    assert_eq!(second.stats().corrupt_rejects, 1);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn thermal_axis_serves_caches_and_differs_from_uncoupled() {
    let mut engine = Engine::new(EngineConfig::default()).unwrap();
    let plain = ScenarioRequest::regular(2).quick();
    let coupled = plain.clone().thermal(ThermalAxis::default());

    let base = engine.query(&plain).unwrap();
    assert_eq!(base.outcome, Outcome::Cold);
    assert_eq!(base.summary.coupling_iterations, 0);

    // A coupled request is a distinct scenario, solved via the fixed
    // point: it reports its iterations and a physical peak temperature,
    // and its EM lifetime moves off the fixed-80 °C baseline.
    let cold = engine.query(&coupled).unwrap();
    assert!(matches!(cold.outcome, Outcome::Cold | Outcome::Warm));
    assert_ne!(cold.fingerprint, base.fingerprint);
    assert!(cold.summary.coupling_iterations >= 2);
    assert!(cold.summary.coupling_converged);
    assert!(cold.summary.peak_temperature_c > 30.0);
    assert_ne!(cold.summary.em_c4_hours, base.summary.em_c4_hours);

    // ... and it is cacheable like any other scenario.
    let hit = engine.query(&coupled).unwrap();
    assert_eq!(hit.outcome, Outcome::HitMemory);
    assert_eq!(hit.summary, cold.summary);

    // Ambient temperature is part of the key: hotter ambient, new solve,
    // hotter stack.
    let hotter = plain.clone().thermal(ThermalAxis {
        ambient_c: 75.0,
        ..ThermalAxis::default()
    });
    let hotter = engine.query(&hotter).unwrap();
    assert_ne!(hotter.outcome, Outcome::HitMemory);
    assert!(hotter.summary.peak_temperature_c > hit.summary.peak_temperature_c);
}

#[test]
fn thermal_summary_survives_the_disk_tier() {
    let dir = scratch_dir("thermal");
    let req = ScenarioRequest::regular(2)
        .quick()
        .thermal(ThermalAxis::default());
    let config = EngineConfig {
        lru_capacity: 8,
        cache_dir: Some(dir.clone()),
        warm_start: true,
    };
    let mut first = Engine::new(config.clone()).unwrap();
    let cold = first.query(&req).unwrap();
    first.flush().unwrap();

    let mut second = Engine::new(config).unwrap();
    let hit = second.query(&req).unwrap();
    assert_eq!(hit.outcome, Outcome::HitDisk);
    assert_eq!(hit.summary, cold.summary);
    assert!(hit.summary.coupling_iterations >= 2);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn fault_axis_serves_through_the_ladder_and_caches_by_fault_set() {
    let mut engine = Engine::new(EngineConfig::default()).unwrap();
    let intact = ScenarioRequest::regular(2).quick();
    let faulted = intact.clone().fail_vdd_pad(0).fail_vdd_pad(3);

    let base = engine.query(&intact).unwrap();
    let cold = engine.query(&faulted).unwrap();
    assert_ne!(cold.fingerprint, base.fingerprint);
    // A faulted request is one ladder solve of the faulted network (SMW
    // updates pay off only on the persistent scratches of the study
    // sweeps), and it takes no donor, so it is never labelled Warm.
    assert_eq!(cold.outcome, Outcome::Cold);
    // Opening supply pads worsens the worst-case drop: the faults are
    // solved, not ignored.
    assert!(cold.summary.max_ir_drop_frac > base.summary.max_ir_drop_frac);

    // Any spelling of the same fault set shares the cache slot.
    let respelled = intact
        .clone()
        .fail_vdd_pad(3)
        .fail_vdd_pad(0)
        .fail_vdd_pad(3);
    let hit = engine.query(&respelled).unwrap();
    assert_eq!(hit.outcome, Outcome::HitMemory);
    assert_eq!(hit.summary, cold.summary);

    // A different fault set is a different scenario.
    let other = engine.query(&intact.clone().fail_gnd_pad(0)).unwrap();
    assert_ne!(other.fingerprint, cold.fingerprint);
    assert_ne!(other.outcome, Outcome::HitMemory);
}

#[test]
fn faulted_summary_survives_the_disk_tier() {
    let dir = scratch_dir("faulted");
    let req = ScenarioRequest::regular(2).quick().fail_tsvs(0, 1, 2);
    let config = EngineConfig {
        lru_capacity: 8,
        cache_dir: Some(dir.clone()),
        warm_start: true,
    };
    let mut first = Engine::new(config.clone()).unwrap();
    let cold = first.query(&req).unwrap();
    first.flush().unwrap();

    let mut second = Engine::new(config).unwrap();
    let hit = second.query(&req).unwrap();
    assert_eq!(hit.outcome, Outcome::HitDisk);
    assert_eq!(hit.summary, cold.summary);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn regular_and_vs_requests_both_serve() {
    let mut engine = Engine::new(EngineConfig::default()).unwrap();
    let reg = engine.query(&ScenarioRequest::regular(2).quick()).unwrap();
    let vs = engine.query(&quick_vs(0.5)).unwrap();
    assert!(reg.summary.max_ir_drop_frac > 0.0);
    assert!(vs.summary.max_ir_drop_frac > 0.0);
    assert!(reg.summary.em_c4_hours > 0.0);
    assert!(vs.summary.efficiency > 0.5 && vs.summary.efficiency < 1.0);
    assert_ne!(reg.fingerprint, vs.fingerprint);
}

#[test]
fn a_disconnecting_fault_set_is_a_solve_error() {
    // Opening every TSV bundle of interface 0 (all 16 cores) floats the
    // top layer of a quick 2-layer stack: a solve error naming the
    // disconnection, not a panic or a garbage answer.
    let mut req = ScenarioRequest::regular(2).quick();
    for core in 0..16 {
        req = req.fail_tsvs(0, core, 4096);
    }
    let mut engine = Engine::new(EngineConfig::default()).unwrap();
    match engine.query(&req) {
        Err(EngineError::Solve(m)) => assert!(m.contains("disconnected"), "{m}"),
        other => panic!("expected a solve error, got {other:?}"),
    }
    assert_eq!(engine.stats().solves(), 0);
}
