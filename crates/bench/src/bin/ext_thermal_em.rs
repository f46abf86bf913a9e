//! Regenerates the **thermal-coupling lifetime extension** study: the
//! Fig 5-style V-S vs regular EM comparison re-run through the
//! thermal–EM–IR fixed point, reporting per-point convergence, stack
//! temperatures and the coupled-vs-uncoupled MTTF delta.
//!
//! Flags (in addition to the shared `--trace-out`/`--metrics-out`):
//!
//! * `--quick` — coarse-grid fidelity for CI smoke runs.
//! * `--ndjson-out PATH` — write one JSON record per design point.
//!
//! Exits nonzero if any point fails to converge — the coupled driver is
//! expected to reach its fixed point on every paper-scale grid.

use std::io::Write as _;

use vstack::experiments::ext_thermal_em::{thermal_em_comparison, ThermalEmConfig};
use vstack::experiments::Fidelity;
use vstack_bench::{heading, pct};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = vstack_bench::obs::CliArgs::from_env(true);
    let obs = args.obs();
    let (quick, ndjson_out) = (args.quick, args.ndjson_out);

    let config = ThermalEmConfig {
        fidelity: if quick {
            Fidelity::Quick
        } else {
            Fidelity::Paper
        },
        ..ThermalEmConfig::default()
    };
    let layer_counts: &[usize] = if quick { &[2, 8] } else { &[2, 4, 8] };

    heading("Extension — EM lifetime under thermal-IR coupling (undamped fixed point)");
    let points = thermal_em_comparison(&config, layer_counts)?;
    println!(
        "{:<16} {:>6} {:>6} {:>9} {:>9} {:>13} {:>13} {:>10} {:>10}",
        "topology",
        "layers",
        "iters",
        "peak °C",
        "L0 °C",
        "C4 MTTF (h)",
        "@80°C (h)",
        "C4 Δ",
        "TSV Δ"
    );
    for p in &points {
        println!(
            "{:<16} {:>6} {:>6} {:>9.1} {:>9.1} {:>13.3e} {:>13.3e} {:>10} {:>10}",
            p.label,
            p.n_layers,
            p.iterations,
            p.peak_temperature_c,
            p.bottom_layer_c,
            p.em_coupled.c4_hours,
            p.em_uncoupled.c4_hours,
            pct(p.c4_coupling_delta()),
            pct(p.tsv_coupling_delta()),
        );
    }

    if let Some(path) = ndjson_out {
        let mut f = std::fs::File::create(&path)?;
        for p in &points {
            writeln!(
                f,
                "{{\"study\":\"ext_thermal_em\",\"label\":\"{}\",\"layers\":{},\
                 \"iterations\":{},\"converged\":{},\"residual_c\":{:e},\
                 \"peak_c\":{:.3},\"bottom_c\":{:.3},\
                 \"em_c4_coupled_h\":{:e},\"em_c4_uncoupled_h\":{:e},\
                 \"em_tsv_coupled_h\":{:e},\"em_tsv_uncoupled_h\":{:e},\
                 \"c4_delta\":{:e},\"tsv_delta\":{:e}}}",
                p.label,
                p.n_layers,
                p.iterations,
                p.converged,
                p.residual_c,
                p.peak_temperature_c,
                p.bottom_layer_c,
                p.em_coupled.c4_hours,
                p.em_uncoupled.c4_hours,
                p.em_coupled.tsv_hours,
                p.em_uncoupled.tsv_hours,
                p.c4_coupling_delta(),
                p.tsv_coupling_delta(),
            )?;
        }
        eprintln!("ndjson: wrote {}", path.display());
    }

    let unconverged: Vec<_> = points.iter().filter(|p| !p.converged).collect();
    obs.finish()?;
    if !unconverged.is_empty() {
        for p in &unconverged {
            eprintln!(
                "FAIL: {} {}-layer did not converge (residual {:.3} °C)",
                p.label, p.n_layers, p.residual_c
            );
        }
        std::process::exit(1);
    }
    Ok(())
}
