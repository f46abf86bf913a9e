//! Regenerates the **what-if fault map extension** study: every power pad
//! and TSV bundle opened in isolation (exhaustive N-choose-1) plus a
//! deterministic sample of element pairs, answered through the rank-k
//! Sherman–Morrison–Woodbury fault sketch and ranked by worst IR drop.
//!
//! Flags (in addition to the shared `--trace-out`/`--metrics-out`):
//!
//! * `--quick` — coarse grid, 2-layer stack, thin pair sample (CI smoke).
//! * `--ndjson-out PATH` — write one JSON record per ranked entry.
//!
//! Exits nonzero if the SMW sketch answered fewer than half of the map's
//! warm queries — the sketch engaging is the point of the study.

use std::io::Write as _;

use vstack::experiments::ext_faultmap::{fault_map_comparison, FaultMap, FaultMapConfig};
use vstack_bench::{heading, pct};

fn elements_label(e: &vstack::experiments::ext_faultmap::FaultMapEntry) -> String {
    e.elements
        .iter()
        .map(|x| x.to_string())
        .collect::<Vec<_>>()
        .join("+")
}

fn print_top(map: &FaultMap, n: usize) {
    println!(
        "\n{} PDN, {} layers — baseline drop {}, {} singles, {} pairs, {} sketch-answered",
        map.label,
        map.n_layers,
        pct(map.baseline_drop_frac),
        map.singles.len(),
        map.pairs.len(),
        pct(map.sketched_fraction()),
    );
    println!(
        "{:>4} {:<28} {:>12} {:>14} {:>9}",
        "rank", "fault", "max drop", "vs baseline", "sketch"
    );
    for (rank, e) in map.singles.iter().take(n).enumerate() {
        let drop = if e.disconnected {
            "DISCONNECT".to_string()
        } else {
            pct(e.max_ir_drop_frac)
        };
        let delta = if e.disconnected {
            "-".to_string()
        } else {
            format!(
                "{:+.3}%",
                (e.max_ir_drop_frac - map.baseline_drop_frac) * 100.0
            )
        };
        println!(
            "{:>4} {:<28} {:>12} {:>14} {:>9}",
            rank + 1,
            elements_label(e),
            drop,
            delta,
            if e.sketched { "smw" } else { "exact" },
        );
    }
    if let Some(worst_pair) = map.pairs.first() {
        let drop = if worst_pair.disconnected {
            "DISCONNECT".to_string()
        } else {
            pct(worst_pair.max_ir_drop_frac)
        };
        println!(
            "worst sampled pair: {} at {}",
            elements_label(worst_pair),
            drop
        );
    }
}

fn ndjson_record(map: &FaultMap, e: &vstack::experiments::ext_faultmap::FaultMapEntry) -> String {
    let elements = e
        .elements
        .iter()
        .map(|x| format!("\"{x}\""))
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"study\":\"ext_faultmap\",\"label\":\"{}\",\"layers\":{},\
         \"order\":{},\"elements\":[{}],\"max_ir_drop_frac\":{},\
         \"disconnected\":{},\"sketched\":{}}}",
        map.label,
        map.n_layers,
        e.elements.len(),
        elements,
        if e.disconnected {
            "null".to_string()
        } else {
            format!("{:e}", e.max_ir_drop_frac)
        },
        e.disconnected,
        e.sketched,
    )
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = vstack_bench::obs::CliArgs::from_env(true);
    let obs = args.obs();
    let (quick, ndjson_out) = (args.quick, args.ndjson_out);

    let config = if quick {
        FaultMapConfig::quick()
    } else {
        FaultMapConfig::default()
    };

    heading("Extension — what-if fault maps through the rank-k SMW sketch");
    let maps = fault_map_comparison(&config)?;
    for map in &maps {
        print_top(map, 10);
    }

    if let Some(path) = ndjson_out {
        let mut f = std::fs::File::create(&path)?;
        for map in &maps {
            for e in map.singles.iter().chain(&map.pairs) {
                writeln!(f, "{}", ndjson_record(map, e))?;
            }
        }
        eprintln!("ndjson: wrote {}", path.display());
    }

    let starved: Vec<_> = maps
        .iter()
        .filter(|m| m.sketched_fraction() < 0.5)
        .collect();
    obs.finish()?;
    if !starved.is_empty() {
        for m in &starved {
            eprintln!(
                "FAIL: {} {}-layer map only {} sketch-answered",
                m.label,
                m.n_layers,
                pct(m.sketched_fraction())
            );
        }
        std::process::exit(1);
    }
    Ok(())
}
