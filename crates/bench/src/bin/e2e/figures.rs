//! `figures`: in-process regeneration of the paper's Figs 5a, 5b, 6 and 8,
//! the paper-reproduction user. No engine, server or cache is involved.

use std::time::Instant;

use vstack::experiments::{fig5, fig6, fig8, Fidelity};
use vstack_engine::json::Json;

use crate::passes::run_passes;
use crate::report::{median, Report};
use crate::spans::Spans;
use crate::Options;

/// Figure values generated with this benchmark at the commit it was added
/// on, per fidelity; regenerate with `e2e --write-reference`.
const REFERENCE: &str = include_str!("reference.json");
/// Where `--write-reference` writes, relative to the repository root.
pub const REFERENCE_PATH: &str = "crates/bench/src/bin/e2e/reference.json";
const REFERENCE_REL_TOL: f64 = 1e-6;
/// Set-ups per untraced run; the median is reported. The first warm-up
/// passes after a process starts are sometimes twice as slow.
const SETUPS: usize = 9;

/// The figure values of one pass, flattened to `(key, value)` pairs.
type Values = Vec<(String, f64)>;

fn fidelity(opts: &Options) -> Fidelity {
    if opts.smoke {
        Fidelity::Quick
    } else {
        Fidelity::Paper
    }
}

fn fidelity_key(f: Fidelity) -> &'static str {
    match f {
        Fidelity::Paper => "paper",
        Fidelity::Quick => "quick",
    }
}

/// One regeneration of the four figures at the paper's 8 layers.
fn pass(fidelity: Fidelity, spans: &mut Spans, op: usize) -> Result<Values, String> {
    let root = spans.open("pass", None, op);
    let mut values = Values::new();
    let err = |e: vstack::sparse::SolveError| e.to_string();
    for (name, data) in [
        (
            "fig5a",
            spans.time("figures.fig5a", root, op, || fig5::tsv_lifetimes(fidelity)),
        ),
        (
            "fig5b",
            spans.time("figures.fig5b", root, op, || fig5::c4_lifetimes(fidelity)),
        ),
    ] {
        for series in data.map_err(err)?.series {
            for (layers, v) in series.points {
                values.push((format!("{name}/{}/{layers}", series.label), v));
            }
        }
    }
    let fig6 = spans
        .time("figures.fig6", root, op, || {
            fig6::ir_drop_study(fidelity, 8)
        })
        .map_err(err)?;
    for series in &fig6.vs_series {
        let k = series.converters_per_core;
        for p in &series.points {
            values.push((format!("fig6/vs{k}/{}", p.imbalance), p.max_ir_drop_frac));
        }
        for x in &series.skipped {
            values.push((format!("fig6/vs{k}/skipped/{x}"), 1.0));
        }
    }
    for (topology, v) in &fig6.regular_references {
        values.push((format!("fig6/regular/{}", topology.name()), *v));
    }
    let fig8 = spans
        .time("figures.fig8", root, op, || {
            fig8::efficiency_study(fidelity, 8)
        })
        .map_err(err)?;
    for series in fig8.vs_series.iter().chain([&fig8.regular_sc_reference]) {
        for p in &series.points {
            values.push((
                format!("fig8/{}/{}", series.label, p.imbalance),
                p.efficiency,
            ));
        }
    }
    spans.close(root);
    Ok(values)
}

/// The reference table for one fidelity.
fn reference(fidelity: Fidelity) -> Result<Values, String> {
    let doc = Json::parse(REFERENCE).map_err(|e| format!("reference.json: {e}"))?;
    match doc.get(fidelity_key(fidelity)) {
        Some(Json::Obj(pairs)) => pairs
            .iter()
            .map(|(k, v)| {
                v.as_f64()
                    .map(|x| (k.clone(), x))
                    .ok_or_else(|| format!("reference.json: {k} is not a number"))
            })
            .collect(),
        _ => Err(format!(
            "reference.json has no {} table",
            fidelity_key(fidelity)
        )),
    }
}

/// Checks one pass against the reference, within [`REFERENCE_REL_TOL`].
fn check_reference(values: &Values, reference: &Values, report: &mut Report) {
    if values.len() != reference.len() {
        report.fail(format!(
            "{} figure values, reference has {}",
            values.len(),
            reference.len()
        ));
    }
    for ((key, v), (ref_key, r)) in values.iter().zip(reference) {
        let scale = v.abs().max(r.abs());
        if key != ref_key || (scale > 0.0 && (v - r).abs() / scale > REFERENCE_REL_TOL) {
            report.fail(format!(
                "{key} = {v} differs from reference {ref_key} = {r}"
            ));
        }
    }
}

pub fn run(opts: &Options) -> Result<Report, String> {
    let fidelity = fidelity(opts);
    let mut report = Report::default();
    // Set-up: read the reference and warm the figure paths (pool start,
    // first-touch allocations) with one quick-fidelity pass.
    let mut setups = Vec::new();
    let mut expected = Values::new();
    for _ in 0..opts.setup_repeats(SETUPS) {
        let started = Instant::now();
        expected = reference(fidelity)?;
        pass(Fidelity::Quick, &mut Spans::new(false), 0)?;
        setups.push(started.elapsed().as_secs_f64());
    }

    let passes = run_passes(opts, |spans, op| pass(fidelity, spans, op))?;
    report.attempted = passes.outputs.len() as u64;
    passes.check_identical(&mut report);
    check_reference(&passes.outputs[0], &expected, &mut report);
    passes.set_metrics(&mut report, opts, &setups, 1.0, "figure passes")?;
    if opts.trace {
        for (metric, span) in [
            ("figures.fig5a_s", "figures.fig5a"),
            ("figures.fig5b_s", "figures.fig5b"),
            ("figures.fig6_s", "figures.fig6"),
            ("figures.fig8_s", "figures.fig8"),
        ] {
            let seconds = median(&passes.spans.durations_us(span)).unwrap_or(0.0) / 1e6;
            report.set(metric, seconds);
        }
    }
    Ok(report)
}

/// Regenerates `reference.json` from the current code at both fidelities,
/// one value per line so changes diff well.
pub fn write_reference(path: &std::path::Path) -> Result<(), String> {
    let mut tables = Vec::new();
    for fidelity in [Fidelity::Paper, Fidelity::Quick] {
        let values = pass(fidelity, &mut Spans::new(false), 0)?;
        let rows: Vec<String> = values
            .into_iter()
            .map(|(k, v)| format!("    {}: {}", Json::Str(k).emit(), Json::Num(v).emit()))
            .collect();
        tables.push(format!(
            "  \"{}\": {{\n{}\n  }}",
            fidelity_key(fidelity),
            rows.join(",\n")
        ));
    }
    std::fs::write(path, format!("{{\n{}\n}}\n", tables.join(",\n")))
        .map_err(|e| format!("{}: {e}", path.display()))
}
