//! `faultmap`: in-process what-if fault maps over the persistent-scratch
//! Sherman–Morrison–Woodbury (SMW) sketch path. No engine, server or cache
//! is involved.

use std::time::Instant;

use vstack::experiments::ext_faultmap::{
    fault_map_comparison, FaultElement, FaultMap, FaultMapConfig,
};
use vstack::experiments::Fidelity;
use vstack::pdn::{FaultSet, FaultedSolution, PdnError, SolveScratch, TsvTopology};
use vstack::scenario::DesignScenario;

use crate::passes::run_passes;
use crate::report::Report;
use crate::spans::Spans;
use crate::stream::Rng;
use crate::Options;

const MIN_SKETCHED_FRACTION: f64 = 0.99;
/// Set-ups per untraced run; the median is reported. The first warm-up
/// passes after a process starts are sometimes twice as slow.
const SETUPS: usize = 9;
/// Entries per topology re-solved exactly after the timed passes.
const EXACT_SAMPLES: usize = 8;
/// Largest allowed difference between a sketched and an exact worst IR
/// drop, as a fraction of Vdd: the bound the repository's own
/// sketch-versus-exact tests use, since the exact ladder solve itself
/// converges only to a 1e-9 relative residual.
const EXACT_TOL: f64 = 1e-8;

fn config(opts: &Options) -> FaultMapConfig {
    if opts.smoke {
        FaultMapConfig {
            seed: opts.seed,
            ..FaultMapConfig::quick()
        }
    } else {
        FaultMapConfig {
            fidelity: Fidelity::Quick,
            n_layers: 8,
            pair_samples: 128,
            seed: opts.seed,
        }
    }
}

fn queries(maps: &[FaultMap]) -> usize {
    maps.iter().map(|m| m.singles.len() + m.pairs.len()).sum()
}

/// One pass: both topologies' maps.
fn pass(config: &FaultMapConfig, spans: &mut Spans, op: usize) -> Result<Vec<FaultMap>, String> {
    let root = spans.open("pass", None, op);
    let maps = spans
        .time("faultmap.comparison", root, op, || {
            fault_map_comparison(config)
        })
        .map_err(|e| e.to_string())?;
    spans.close(root);
    Ok(maps)
}

/// The exact (unsketched) worst IR drop of one entry's fault set, or
/// `None` when the faults disconnect the network.
fn exact_drop(
    config: &FaultMapConfig,
    vs: bool,
    elements: &[FaultElement],
) -> Result<Option<f64>, String> {
    let mut s = DesignScenario::paper_baseline()
        .layers(config.n_layers)
        .tsv_topology(TsvTopology::Few)
        .power_c4_fraction(0.25);
    if config.fidelity == Fidelity::Quick {
        s = s.coarse_grid();
    }
    let per_bundle = if vs {
        TsvTopology::Few.tsvs_per_core()
    } else {
        TsvTopology::Few.vdd_tsvs_per_core()
    };
    let mut faults = FaultSet::new();
    for &e in elements {
        match e {
            FaultElement::VddPad(o) => faults.fail_vdd_pad(o),
            FaultElement::GndPad(o) => faults.fail_gnd_pad(o),
            FaultElement::TsvBundle { interface, core } => {
                faults.fail_tsvs(interface, core, per_bundle);
            }
        }
    }
    let loads = s.peak_loads();
    let mut scratch = SolveScratch::new();
    let solved: Result<FaultedSolution, PdnError> = if vs {
        s.voltage_stacked_pdn()
            .solve_faulted_scratch(&loads, &faults, None, &mut scratch)
    } else {
        s.regular_pdn()
            .solve_faulted_scratch(&loads, &faults, None, &mut scratch)
    };
    match solved {
        Ok(s) => Ok(Some(s.solution.max_ir_drop_frac)),
        Err(PdnError::Disconnected { .. }) => Ok(None),
        Err(PdnError::Solve(e)) => Err(e.to_string()),
    }
}

/// Oracles on the last pass: sketch coverage, and seeded sample entries
/// against exact solves.
fn check(config: &FaultMapConfig, maps: &[FaultMap], seed: u64, report: &mut Report) {
    for map in maps {
        if map.sketched_fraction() < MIN_SKETCHED_FRACTION {
            report.fail(format!(
                "{}: sketched fraction {} below {MIN_SKETCHED_FRACTION}",
                map.label,
                map.sketched_fraction()
            ));
        }
        let entries: Vec<_> = map.singles.iter().chain(&map.pairs).collect();
        let mut rng = Rng::for_item(seed, map.label.len() as u64);
        for _ in 0..EXACT_SAMPLES {
            let entry = entries[rng.below(entries.len())];
            let vs = map.label != "regular";
            match exact_drop(config, vs, &entry.elements) {
                Ok(Some(drop))
                    if !entry.disconnected
                        && (drop - entry.max_ir_drop_frac).abs() <= EXACT_TOL => {}
                Ok(None) if entry.disconnected => {}
                other => report.fail(format!(
                    "{} {:?}: map says {} (disconnected: {}), exact solve says {other:?}",
                    map.label, entry.elements, entry.max_ir_drop_frac, entry.disconnected
                )),
            }
        }
    }
}

pub fn run(opts: &Options) -> Result<Report, String> {
    let config = config(opts);
    let mut report = Report::default();
    // Set-up: warm the sketch and solver paths with the small quick map.
    let warm_up = FaultMapConfig {
        seed: opts.seed,
        ..FaultMapConfig::quick()
    };
    let mut setups = Vec::new();
    for _ in 0..opts.setup_repeats(SETUPS) {
        let started = Instant::now();
        pass(&warm_up, &mut Spans::new(false), 0)?;
        setups.push(started.elapsed().as_secs_f64());
    }

    let passes = run_passes(opts, |spans, op| pass(&config, spans, op))?;
    let per_pass = queries(&passes.outputs[0]);
    report.attempted = (per_pass * passes.outputs.len()) as u64;
    passes.check_identical(&mut report);
    check(
        &config,
        passes.outputs.last().expect("one pass ran"),
        opts.seed,
        &mut report,
    );
    passes.set_metrics(
        &mut report,
        opts,
        &setups,
        per_pass as f64,
        "what-if queries",
    )?;
    Ok(report)
}
