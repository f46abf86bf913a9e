//! Interactive design-point explorer: solve any regular or voltage-stacked
//! configuration from the command line.
//!
//! Every query is routed through the `vstack-engine` scenario-query
//! engine, so repeated points — within one run via `--sweep`, or across
//! runs via `--cache-dir` — are cache hits instead of re-solves. The run
//! ends with the engine's hit/miss summary.
//!
//! ```text
//! cargo run --release -p vstack-bench --bin explore -- \
//!     --topology vs --layers 8 --tsv few --converters 8 --imbalance 0.65
//! ```
//!
//! Flags (all optional):
//!
//! * `--topology vs|regular` (default `vs`)
//! * `--layers N` (default 8)
//! * `--tsv dense|sparse|few` (default `few`)
//! * `--power-c4 F` pad fraction (default 0.25 for V-S, 0.5 for regular)
//! * `--converters K` per core (default 8; V-S only)
//! * `--imbalance X` 0–1 (default 0.65; V-S only — regular worst case is
//!   full activity)
//! * `--closed-loop` use frequency-modulated converters
//! * `--quick` coarse electrical grid
//! * `--sweep N` solve N imbalance points from 0 to `--imbalance`
//!   (V-S only) instead of a single point
//! * `--cache-dir DIR` persist results across runs (a second identical
//!   run is served from disk)
//! * `--trace-out PATH` record spans for the whole run; writes NDJSON at
//!   PATH and collapsed stacks at PATH.folded (flamegraph input)
//! * `--metrics-out PATH` write the metrics-registry snapshot on exit

use std::path::PathBuf;

use vstack_bench::obs::ObsOutputs;

use vstack::pdn::TsvTopology;
use vstack_engine::{Engine, EngineConfig, ScenarioRequest, SolveSummary};

#[derive(Debug)]
struct Args {
    topology: String,
    layers: usize,
    tsv: TsvTopology,
    power_c4: Option<f64>,
    converters: usize,
    imbalance: f64,
    closed_loop: bool,
    quick: bool,
    sweep: Option<usize>,
    cache_dir: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        topology: "vs".into(),
        layers: 8,
        tsv: TsvTopology::Few,
        power_c4: None,
        converters: 8,
        imbalance: 0.65,
        closed_loop: false,
        quick: false,
        sweep: None,
        cache_dir: None,
        trace_out: None,
        metrics_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("flag {name} needs a value"))
        };
        match flag.as_str() {
            "--topology" => args.topology = value("--topology")?,
            "--layers" => {
                args.layers = value("--layers")?
                    .parse()
                    .map_err(|e| format!("--layers: {e}"))?
            }
            "--tsv" => {
                args.tsv = match value("--tsv")?.as_str() {
                    "dense" => TsvTopology::Dense,
                    "sparse" => TsvTopology::Sparse,
                    "few" => TsvTopology::Few,
                    other => return Err(format!("unknown --tsv {other}")),
                }
            }
            "--power-c4" => {
                args.power_c4 = Some(
                    value("--power-c4")?
                        .parse()
                        .map_err(|e| format!("--power-c4: {e}"))?,
                )
            }
            "--converters" => {
                args.converters = value("--converters")?
                    .parse()
                    .map_err(|e| format!("--converters: {e}"))?
            }
            "--imbalance" => {
                args.imbalance = value("--imbalance")?
                    .parse()
                    .map_err(|e| format!("--imbalance: {e}"))?
            }
            "--closed-loop" => args.closed_loop = true,
            "--quick" => args.quick = true,
            "--sweep" => {
                args.sweep = Some(
                    value("--sweep")?
                        .parse::<usize>()
                        .ok()
                        .filter(|&n| n >= 2)
                        .ok_or("--sweep needs an integer >= 2")?,
                )
            }
            "--cache-dir" => args.cache_dir = Some(PathBuf::from(value("--cache-dir")?)),
            "--trace-out" => args.trace_out = Some(PathBuf::from(value("--trace-out")?)),
            "--metrics-out" => args.metrics_out = Some(PathBuf::from(value("--metrics-out")?)),
            "--help" | "-h" => {
                println!("see module docs: cargo doc -p vstack-bench --bin explore");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

/// The engine request for one (possibly sweep-overridden) imbalance.
fn request_for(args: &Args, imbalance: f64) -> Result<ScenarioRequest, String> {
    let mut req = match args.topology.as_str() {
        "vs" => ScenarioRequest::voltage_stacked(args.layers, imbalance)
            .power_c4(args.power_c4.unwrap_or(0.25))
            .converters(args.converters)
            .closed_loop(args.closed_loop),
        "regular" => ScenarioRequest::regular(args.layers).power_c4(args.power_c4.unwrap_or(0.5)),
        other => return Err(format!("unknown --topology {other} (vs|regular)")),
    };
    req = req.tsv(args.tsv);
    if args.quick {
        req = req.quick();
    }
    Ok(req)
}

fn print_point(args: &Args, req: &ScenarioRequest, s: &SolveSummary) {
    match args.topology.as_str() {
        "vs" => {
            println!(
                "V-S PDN: {} layers, {}, {} conv/core, {:.0}% imbalance{}",
                args.layers,
                args.tsv.name(),
                args.converters,
                100.0 * req.stacking.map_or(0.0, |s| s.imbalance),
                if args.closed_loop {
                    ", closed loop"
                } else {
                    ""
                },
            );
            println!(
                "  max IR drop      : {:.2}% Vdd",
                100.0 * s.max_ir_drop_frac
            );
            println!(
                "  mean IR drop     : {:.2}% Vdd",
                100.0 * s.mean_ir_drop_frac
            );
            println!("  efficiency       : {:.1}%", 100.0 * s.efficiency);
            println!("  overloaded conv  : {}", s.overloaded_converters);
            println!("  C4 EM lifetime   : {:.2e} h", s.em_c4_hours);
            println!("  TSV EM lifetime  : {:.2e} h", s.em_tsv_hours);
            println!(
                "  area overhead    : {:.1}% per core",
                100.0 * req.to_scenario().vs_area_overhead_per_core()
            );
        }
        _ => {
            println!(
                "Regular PDN: {} layers, {}, all layers active",
                args.layers,
                args.tsv.name(),
            );
            println!(
                "  max IR drop      : {:.2}% Vdd",
                100.0 * s.max_ir_drop_frac
            );
            println!(
                "  mean IR drop     : {:.2}% Vdd",
                100.0 * s.mean_ir_drop_frac
            );
            println!("  C4 EM lifetime   : {:.2e} h", s.em_c4_hours);
            println!("  TSV EM lifetime  : {:.2e} h", s.em_tsv_hours);
        }
    }
}

fn print_cache_summary(engine: &Engine) {
    let s = engine.stats();
    println!();
    println!(
        "engine: {} request(s) — {} hit(s) ({} memory, {} disk), \
         {} warm solve(s), {} cold solve(s); hit rate {:.0}%",
        s.requests,
        s.hits(),
        s.memory_hits,
        s.disk_hits,
        s.warm_solves,
        s.cold_solves,
        100.0 * s.hit_rate(),
    );
    println!(
        "        {} solver iteration(s), {:.1} ms in solves ({:.1} ms preconditioner setup)",
        s.solver_iterations,
        s.solve_time_us as f64 / 1000.0,
        s.solver_setup_us as f64 / 1000.0
    );
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = parse_args().map_err(|e| format!("{e} (try --help)"))?;
    let obs = ObsOutputs::new(args.trace_out.clone(), args.metrics_out.clone());
    let mut engine = Engine::new(EngineConfig {
        cache_dir: args.cache_dir.clone(),
        ..EngineConfig::default()
    })?;

    match args.sweep {
        None => {
            let req = request_for(&args, args.imbalance)?;
            let result = engine.query(&req).map_err(|e| e.to_string())?;
            print_point(&args, &req, &result.summary);
            println!(
                "  query            : {}{} fp {}",
                result.outcome.label(),
                result
                    .outcome
                    .source()
                    .map(|s| format!(" ({s})"))
                    .unwrap_or_default(),
                ScenarioRequest::format_fingerprint(result.fingerprint),
            );
        }
        Some(points) => {
            if args.topology != "vs" {
                return Err("--sweep requires --topology vs".into());
            }
            println!(
                "V-S imbalance sweep: {} points over 0–{:.0}%, {} layers, {}",
                points,
                100.0 * args.imbalance,
                args.layers,
                args.tsv.name(),
            );
            println!("  imbalance   max IR    mean IR   efficiency   outcome");
            for i in 0..points {
                let imbalance = args.imbalance * i as f64 / (points - 1) as f64;
                let req = request_for(&args, imbalance)?;
                let result = engine.query(&req).map_err(|e| e.to_string())?;
                let s = &result.summary;
                println!(
                    "  {:>7.1}%   {:>6.2}%   {:>6.2}%   {:>8.1}%   {}{}",
                    100.0 * imbalance,
                    100.0 * s.max_ir_drop_frac,
                    100.0 * s.mean_ir_drop_frac,
                    100.0 * s.efficiency,
                    result.outcome.label(),
                    result
                        .outcome
                        .source()
                        .map(|s| format!(" ({s})"))
                        .unwrap_or_default(),
                );
            }
        }
    }

    print_cache_summary(&engine);
    engine.flush()?;
    obs.finish()?;
    Ok(())
}
