//! `pairs` — alternating A/B runs of two built `e2e` benchmark binaries,
//! summarised as the table a performance claim rests on.
//!
//! ```text
//! pairs --parent P --change C --workload W --pairs K --seed S
//! ```
//!
//! Pair `i` runs both binaries on seed `S + i` (`i = 0 .. K−1`) with their
//! default run length, the parent first on even pairs and the change
//! first on odd ones, and reads each run's last stdout line, the `e2e`
//! result JSON. For every end-to-end metric of `BENCHMARK.json` it prints
//! each side's median and quartiles (the exclusive method `e2e` uses), the
//! pairs the change wins (ties count for neither side) and the parent's
//! IQR. A metric is *resolved* when the change wins at least 0.9·K pairs
//! and the medians differ by more than the parent's IQR. A run that fails,
//! or whose oracle reports it incorrect, is reported and makes `pairs`
//! exit non-zero. Each run's metric values go to stderr as it finishes,
//! the table to stdout.

#[allow(dead_code)]
#[path = "e2e/report.rs"]
mod report;

use std::process::{Command, ExitCode};

use vstack_engine::json::Json;

use report::{median, quartiles, Declaration};

const USAGE: &str = "usage: pairs --parent P --change C --workload W --pairs K --seed S";

/// One run's end-to-end metric values, by name.
type Metrics = Vec<(String, f64)>;

/// What the command line asked for.
struct Options {
    parent: String,
    change: String,
    workload: String,
    pairs: u64,
    seed: u64,
}

fn parse_args(args: &[String], declared: &Declaration) -> Result<Options, String> {
    let (mut parent, mut change, mut workload, mut pairs, mut seed) =
        (None, None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value\n{USAGE}"))?;
        match flag.as_str() {
            "--parent" => parent = Some(value.clone()),
            "--change" => change = Some(value.clone()),
            "--workload" if declared.workloads.contains(value) => workload = Some(value.clone()),
            "--workload" => {
                return Err(format!(
                    "unknown workload {value:?}; one of {:?}",
                    declared.workloads
                ))
            }
            "--pairs" => {
                pairs = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|k| (1..=100).contains(k))
                        .ok_or("--pairs must be in 1..=100")?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            _ => return Err(format!("unknown argument {flag:?}\n{USAGE}")),
        }
    }
    let missing = |name: &str| format!("{name} is required\n{USAGE}");
    let options = Options {
        parent: parent.ok_or_else(|| missing("--parent"))?,
        change: change.ok_or_else(|| missing("--change"))?,
        workload: workload.ok_or_else(|| missing("--workload"))?,
        pairs: pairs.ok_or_else(|| missing("--pairs"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
    };
    options
        .seed
        .checked_add(options.pairs - 1)
        .ok_or("--seed + --pairs overflows")?;
    Ok(options)
}

/// Runs one `e2e` binary on one seed and returns its end-to-end metric
/// values, or why the run does not count.
fn run(binary: &str, workload: &str, seed: u64) -> Result<Metrics, String> {
    let out = Command::new(binary)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--trace",
            "0",
        ])
        .output()
        .map_err(|e| format!("{binary}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    if !out.status.success() {
        return Err(format!("exited with {}: {}", out.status, stderr.trim()));
    }
    let line = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("printed no result line")?;
    let doc = Json::parse(line).map_err(|e| format!("result line: {e}"))?;
    if doc.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err(format!("incorrect: {line}"));
    }
    if doc.get("failed").and_then(Json::as_f64) != Some(0.0) {
        return Err(format!("failed operations: {line}"));
    }
    match doc.get("metrics") {
        Some(Json::Obj(metrics)) => metrics
            .iter()
            .map(|(name, m)| {
                m.get("value")
                    .and_then(Json::as_f64)
                    .map(|v| (name.clone(), v))
                    .ok_or_else(|| format!("metric {name} has no value"))
            })
            .collect(),
        _ => Err(format!("no metrics: {line}")),
    }
}

/// Pairs in which the change reads strictly better than the parent; a tie
/// counts for neither side.
fn wins(pairs: &[(f64, f64)], higher_is_better: bool) -> usize {
    pairs
        .iter()
        .filter(|&&(parent, change)| {
            if higher_is_better {
                change > parent
            } else {
                change < parent
            }
        })
        .count()
}

/// Whether a gain is resolved: the change wins at least nine tenths of the
/// `k` pairs run and the medians differ by more than the parent's IQR.
fn resolved(wins: usize, k: usize, parent: &[f64], change: &[f64]) -> bool {
    let (Some(pm), Some(cm), Some((q1, q3))) = (median(parent), median(change), quartiles(parent))
    else {
        return false;
    };
    10 * wins >= 9 * k && (cm - pm).abs() > q3 - q1
}

/// `median (Q1–Q3)` of one side, or `n/a` without enough runs.
fn summary(samples: &[f64]) -> String {
    match (median(samples), quartiles(samples)) {
        (Some(m), Some((q1, q3))) => format!("{m:.4} ({q1:.4}–{q3:.4})"),
        (Some(m), None) => format!("{m:.4}"),
        _ => "n/a".to_string(),
    }
}

fn main() -> ExitCode {
    let declared = Declaration::load();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args, &declared) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("pairs: {e}");
            return ExitCode::FAILURE;
        }
    };
    let k = opts.pairs as usize;
    // (parent, change) metric values of each pair in which both runs count.
    let mut counted: Vec<(Metrics, Metrics)> = Vec::new();
    let mut bad_runs = 0usize;
    for i in 0..opts.pairs {
        let seed = opts.seed + i;
        let mut sides = [
            ("parent", &opts.parent, None),
            ("change", &opts.change, None),
        ];
        if i % 2 == 1 {
            sides.reverse();
        }
        for (side, binary, result) in sides.iter_mut() {
            match run(binary, &opts.workload, seed) {
                Ok(metrics) => {
                    let values: Vec<String> = metrics
                        .iter()
                        .map(|(name, v)| format!("{name}={v}"))
                        .collect();
                    eprintln!("pairs: seed {seed} {side} ok: {}", values.join(" "));
                    *result = Some(metrics);
                }
                Err(e) => {
                    eprintln!("pairs: seed {seed} {side} FAILED: {e}");
                    bad_runs += 1;
                }
            }
        }
        if i % 2 == 1 {
            sides.reverse();
        }
        if let [(_, _, Some(parent)), (_, _, Some(change))] = sides {
            counted.push((parent, change));
        }
    }

    println!(
        "{} on seeds {}..={}: {} of {k} pairs counted",
        opts.workload,
        opts.seed,
        opts.seed + opts.pairs - 1,
        counted.len()
    );
    println!(
        "{:<16} {:<5} {:<34} {:<34} {:>7} {:>11}",
        "metric", "unit", "parent median (Q1–Q3)", "change median (Q1–Q3)", "wins", "parent IQR"
    );
    for d in &declared.end_to_end {
        let value = |metrics: &[(String, f64)]| {
            metrics
                .iter()
                .find(|(name, _)| *name == d.name)
                .map(|&(_, v)| v)
        };
        let paired: Vec<(f64, f64)> = counted
            .iter()
            .filter_map(|(p, c)| Some((value(p)?, value(c)?)))
            .collect();
        let parent: Vec<f64> = paired.iter().map(|p| p.0).collect();
        let change: Vec<f64> = paired.iter().map(|p| p.1).collect();
        let won = wins(&paired, d.higher_is_better);
        let iqr =
            quartiles(&parent).map_or("n/a".to_string(), |(q1, q3)| format!("{:.4}", q3 - q1));
        println!(
            "{:<16} {:<5} {:<34} {:<34} {:>7} {:>11}  {}",
            d.name,
            d.unit,
            summary(&parent),
            summary(&change),
            format!("{won}/{k}"),
            iqr,
            if resolved(won, k, &parent, &change) {
                "resolved"
            } else {
                "unresolved"
            }
        );
    }
    if bad_runs > 0 {
        eprintln!("pairs: {bad_runs} run(s) failed or were incorrect");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wins_follow_the_metric_direction_and_ties_count_for_neither() {
        let pairs = [(1.0, 2.0), (2.0, 2.0), (3.0, 1.0), (1.0, 1.5)];
        assert_eq!(wins(&pairs, true), 2);
        assert_eq!(wins(&pairs, false), 1);
    }

    #[test]
    fn resolved_needs_nine_tenths_of_pairs_and_a_shift_beyond_the_parent_iqr() {
        // Parent 1..10: median 5.5, exclusive quartiles 2.75 and 8.25.
        let parent: Vec<f64> = (1..=10).map(f64::from).collect();
        let shifted = |by: f64| -> Vec<f64> { parent.iter().map(|p| p + by).collect() };
        assert!(resolved(9, 10, &parent, &shifted(5.6)));
        // Nine wins of ten pairs is the floor; eight is not enough.
        assert!(!resolved(8, 10, &parent, &shifted(5.6)));
        // Medians 5.5 apart do not exceed the parent's IQR of 5.5.
        assert!(!resolved(10, 10, &parent, &shifted(5.5)));
        // A drop counts as a shift too; the wins say which side gained.
        assert!(resolved(10, 10, &parent, &shifted(-6.0)));
        // One pair has no quartiles, so nothing resolves.
        assert!(!resolved(1, 1, &[1.0], &[9.0]));
    }

    #[test]
    fn summary_prints_median_and_exclusive_quartiles() {
        let samples: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(summary(&samples), "5.5000 (2.7500–8.2500)");
        assert_eq!(summary(&[3.0]), "3.0000");
        assert_eq!(summary(&[]), "n/a");
    }

    #[test]
    fn arguments_are_all_required_and_checked() {
        let declared = Declaration::load();
        let args = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
        let ok = parse_args(
            &args("--parent a --change b --workload figures --pairs 10 --seed 601"),
            &declared,
        )
        .unwrap();
        assert_eq!((ok.pairs, ok.seed), (10, 601));
        for bad in [
            "--parent a --change b --workload figures --pairs 10",
            "--parent a --change b --workload nope --pairs 10 --seed 1",
            "--parent a --change b --workload figures --pairs 0 --seed 1",
            "--parent a --change b --workload figures --pairs 2 --seed 18446744073709551615",
            "--parent a --change b --workload figures --pairs 2 --seed 1 --extra",
        ] {
            assert!(parse_args(&args(bad), &declared).is_err(), "{bad}");
        }
    }
}
