//! `e2e` — the end-to-end benchmark: served cold and hot query streams,
//! paper-figure regeneration and SMW fault maps, each timed from outside
//! and split into named layers by a separate traced run.
//!
//! ```text
//! cargo run --release --offline --manifest-path crates/bench/src/bin/e2e/Cargo.toml -- \
//!     --workload serve_hot --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The same sources are also the `e2e` binary of `vstack-bench`
//! (`cargo run --release --offline -p vstack-bench --bin e2e -- ...`).
//! `README.md` next to this file describes the workloads, metrics, bounds
//! and the orchestrator, `--repeat` and `--compare` modes.

mod faultmap;
mod figures;
mod layers;
mod passes;
mod report;
mod serve;
mod spans;
mod stream;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use vstack_engine::json::Json;

use report::{median, quartiles, Declaration, Report};

/// Where runs write results, span logs and their scratch cache segments,
/// relative to the directory the benchmark runs in.
const OUT_DIR: &str = "target/bench-e2e";
const SCHEMA: &str = "vstack-bench-e2e/1";

/// Settings of one workload run.
pub struct Options {
    pub workload: String,
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    /// Emit the per-layer metrics of a traced run instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// 1 s phases, quick fidelity and one pass each.
    pub smoke: bool,
    /// Where a traced run writes its span log.
    pub out_dir: PathBuf,
    /// Scratch directory for cache segments, removed when the run ends.
    pub work: PathBuf,
}

impl Options {
    /// How many times a workload sets up before it measures: `full` for an
    /// untraced run, which reports the median set-up time, once otherwise.
    pub fn setup_repeats(&self, full: usize) -> usize {
        if self.smoke || self.trace {
            1
        } else {
            full
        }
    }

    pub fn spans_path(&self) -> PathBuf {
        self.out_dir
            .join(format!("spans-{}-{}.ndjson", self.workload, self.seed))
    }
}

/// What the command line asked for.
enum Mode {
    /// Run one workload in this process; the result line is printed last.
    One(Options),
    /// Run every workload `repeat` times, each in a child process.
    All {
        seed: u64,
        seconds: f64,
        trace: bool,
        smoke: bool,
        repeat: u64,
        out: PathBuf,
    },
    Compare(PathBuf, PathBuf),
    WriteReference,
}

const USAGE: &str =
    "usage: e2e [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke]\n\
    \x20          [--repeat K] [--out FILE]\n\
    \x20      e2e --compare A.json B.json\n\
    \x20      e2e --write-reference";

fn parse_args(args: &[String], declared: &Declaration) -> Result<Mode, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = declared.run_seconds;
    let mut trace = false;
    let mut smoke = false;
    let mut repeat = 1u64;
    let mut out = Path::new(OUT_DIR).join("BENCH_e2e.json");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !declared.workloads.contains(w) {
                    return Err(format!(
                        "unknown workload {w:?}; one of {:?}",
                        declared.workloads
                    ));
                }
                workload = Some(w.clone());
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or("--seconds must be in (0, 3600]")?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                }
            }
            "--smoke" => smoke = true,
            "--repeat" => {
                repeat = value()?
                    .parse::<u64>()
                    .ok()
                    .filter(|&k| (1..=100).contains(&k))
                    .ok_or("--repeat must be in 1..=100")?;
            }
            "--out" => out = PathBuf::from(value()?),
            "--compare" => {
                let a = PathBuf::from(value()?);
                let b = PathBuf::from(value()?);
                return Ok(Mode::Compare(a, b));
            }
            "--write-reference" => return Ok(Mode::WriteReference),
            _ => return Err(format!("unknown argument {flag:?}\n{USAGE}")),
        }
    }
    if smoke {
        seconds = seconds.min(1.0);
    }
    Ok(match workload {
        Some(workload) => Mode::One(Options {
            out_dir: PathBuf::from(OUT_DIR),
            work: Path::new(OUT_DIR).join(format!("work-{}", std::process::id())),
            workload,
            seed,
            seconds,
            trace,
            smoke,
        }),
        None => Mode::All {
            seed,
            seconds,
            trace,
            smoke,
            repeat,
            out,
        },
    })
}

/// Runs one workload and checks the emitted metric set.
fn run_workload(opts: &Options, declared: &Declaration) -> Result<Report, String> {
    std::fs::create_dir_all(&opts.work).map_err(|e| format!("{}: {e}", opts.work.display()))?;
    let result = match opts.workload.as_str() {
        "serve_cold" => serve::run(false, opts),
        "serve_hot" => serve::run(true, opts),
        "figures" => figures::run(opts),
        "faultmap" => faultmap::run(opts),
        other => Err(format!("unknown workload {other}")),
    };
    let _ = std::fs::remove_dir_all(&opts.work);
    let mut report = result?;
    if !opts.trace {
        report.set("peak_rss_mb", report::peak_rss_mb());
    }
    report.fill_unexercised(declared.metrics(opts.trace));
    Ok(report)
}

fn run_one(opts: &Options, declared: &Declaration) -> ExitCode {
    let report = match run_workload(opts, declared) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("e2e {}: {e}", opts.workload);
            return ExitCode::FAILURE;
        }
    };
    let line = match report.result_json(declared.metrics(opts.trace)) {
        Ok(json) => json.emit(),
        Err(e) => {
            eprintln!("e2e {}: {e}", opts.workload);
            return ExitCode::FAILURE;
        }
    };
    println!(
        "e2e {} seed={} seconds={} trace={} host_parallelism={} pool_width={}",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        host_parallelism(),
        vstack::sparse::pool::global().contexts()
    );
    for d in declared.metrics(opts.trace) {
        let (_, value, note) = report
            .values
            .iter()
            .find(|v| v.0 == d.name)
            .expect("result_json checked the set");
        println!("  {:<28} {value:>14.6} {:<8} {note}", d.name, d.unit);
    }
    for p in &report.problems {
        eprintln!("e2e {}: FAIL {p}", opts.workload);
    }
    println!(
        "  attempted={} failed={} correct={}",
        report.attempted,
        report.failed,
        report.correct()
    );
    println!("{line}");
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out commit, read from `.git` without running git.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(reference)
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(&format!(" {reference}")))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Median and quartiles of each metric per workload, over `runs`.
fn summarize(runs: &[Json], declared: &Declaration, trace: bool) -> Json {
    let mut workloads = Vec::new();
    for w in &declared.workloads {
        let mut metrics = Vec::new();
        for d in declared.metrics(trace) {
            let values: Vec<f64> = runs
                .iter()
                .filter(|r| r.get("workload").and_then(Json::as_str) == Some(w.as_str()))
                .filter_map(|r| r.get("metrics")?.get(&d.name)?.get("value")?.as_f64())
                .collect();
            let Some(mid) = median(&values) else { continue };
            let (q1, q3) = quartiles(&values).unwrap_or((mid, mid));
            let spread = if mid == 0.0 {
                0.0
            } else {
                (q3 - q1) / mid.abs()
            };
            println!(
                "  {w:<10} {:<28} median {mid:>14.6} {:<8} IQR/median {spread:>7.4}  (n={})",
                d.name,
                d.unit,
                values.len()
            );
            metrics.push((
                d.name.clone(),
                Json::obj(vec![
                    ("unit", Json::Str(d.unit.clone())),
                    ("median", Json::Num(mid)),
                    ("q1", Json::Num(q1)),
                    ("q3", Json::Num(q3)),
                    ("iqr_frac", Json::Num(spread)),
                    ("n", Json::Num(values.len() as f64)),
                ]),
            ));
        }
        workloads.push((w.clone(), Json::Obj(metrics)));
    }
    Json::Obj(workloads)
}

/// Runs every workload `repeat` times in child processes (seeds `seed`,
/// `seed + 1`, ...; the workload order alternates between repetitions) and
/// writes all runs and their summary to `out`.
fn run_all(
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    repeat: u64,
    out: &Path,
    declared: &Declaration,
) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("e2e: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut runs = Vec::new();
    let mut ok = true;
    for k in 0..repeat {
        let mut order: Vec<&str> = declared.workloads.iter().map(String::as_str).collect();
        if k % 2 == 1 {
            order.reverse();
        }
        for w in order {
            let run_seed = seed + k;
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w, "--seed", &run_seed.to_string()])
                .args([
                    "--seconds",
                    &seconds.to_string(),
                    "--trace",
                    if trace { "1" } else { "0" },
                ])
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit());
            if smoke {
                cmd.arg("--smoke");
            }
            let child = cmd.output();
            let stdout = child
                .as_ref()
                .map(|o| String::from_utf8_lossy(&o.stdout).into_owned())
                .unwrap_or_default();
            print!("{stdout}");
            let result = stdout.lines().last().and_then(|l| Json::parse(l).ok());
            match (child.map(|o| o.status.success()), result) {
                (Ok(true), Some(Json::Obj(mut fields))) => {
                    fields.insert(0, ("workload".to_string(), Json::Str(w.to_string())));
                    fields.insert(1, ("seed".to_string(), Json::Num(run_seed as f64)));
                    runs.push(Json::Obj(fields));
                }
                _ => {
                    eprintln!("e2e: {w} (seed {run_seed}) failed");
                    ok = false;
                }
            }
        }
    }
    println!("summary over {repeat} seed(s):");
    let summary = summarize(&runs, declared, trace);
    let doc = Json::obj(vec![
        ("schema", Json::Str(SCHEMA.to_string())),
        ("seed", Json::Num(seed as f64)),
        ("repeat", Json::Num(repeat as f64)),
        ("seconds", Json::Num(seconds)),
        ("trace", Json::Bool(trace)),
        ("smoke", Json::Bool(smoke)),
        ("host_parallelism", Json::Num(host_parallelism() as f64)),
        (
            "pool_width",
            Json::Num(vstack::sparse::pool::global().contexts() as f64),
        ),
        ("git_commit", Json::Str(git_commit())),
        ("runs", Json::Arr(runs)),
        ("summary", summary),
    ]);
    let written = out
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(out, doc.emit() + "\n"));
    match written {
        Ok(()) => println!("wrote {}", out.display()),
        Err(e) => {
            eprintln!("e2e: cannot write {}: {e}", out.display());
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Checks that two result files agree: for every workload, each
/// end-to-end metric's medians differ by no more than its bound.
fn compare(a: &Path, b: &Path, declared: &Declaration) -> ExitCode {
    let load = |p: &Path| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))?;
        match doc.get("schema").and_then(Json::as_str) {
            Some(SCHEMA) => Ok(doc),
            other => Err(format!("{}: schema {other:?}, want {SCHEMA}", p.display())),
        }
    };
    let (a_doc, b_doc) = match (load(a), load(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("e2e: {e}");
            return ExitCode::FAILURE;
        }
    };
    let stat = |doc: &Json, w: &str, m: &str, key: &str| {
        doc.get("summary")?.get(w)?.get(m)?.get(key)?.as_f64()
    };
    let mut agree = true;
    for w in &declared.workloads {
        for d in &declared.end_to_end {
            let bound = d.bound.expect("end-to-end metrics carry a bound");
            match (
                stat(&a_doc, w, &d.name, "median"),
                stat(&b_doc, w, &d.name, "median"),
            ) {
                (Some(ma), Some(mb)) => {
                    let change = if ma == 0.0 { 0.0 } else { (mb - ma) / ma.abs() };
                    let worse = if d.higher_is_better { -change } else { change };
                    let ok = worse.abs() <= bound;
                    agree &= ok;
                    let iqr_a = stat(&a_doc, w, &d.name, "iqr_frac").unwrap_or(f64::NAN);
                    let iqr_b = stat(&b_doc, w, &d.name, "iqr_frac").unwrap_or(f64::NAN);
                    // One bound covers a metric on every workload, so it fits
                    // the noisiest one; a shift beyond three times this
                    // workload's own spread is flagged even within the bound.
                    let verdict = if !ok {
                        "DISAGREE"
                    } else if worse.abs() > 3.0 * iqr_a.max(iqr_b) {
                        "ok, but beyond 3x this workload's IQR"
                    } else {
                        "ok"
                    };
                    println!(
                        "  {w:<10} {:<16} A {ma:>12.4} (IQR {iqr_a:>6.4})  B {mb:>12.4} (IQR {iqr_b:>6.4})  \
                         B worse by {worse:>+7.4}, bound {bound:.2} {verdict}",
                        d.name,
                    );
                }
                _ => {
                    println!("  {w:<10} {:<16} missing in one file", d.name);
                    agree = false;
                }
            }
        }
    }
    if agree {
        println!("agree: every end-to-end median is within its bound");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let declared = Declaration::load();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args, &declared) {
        Ok(Mode::One(opts)) => run_one(&opts, &declared),
        Ok(Mode::All {
            seed,
            seconds,
            trace,
            smoke,
            repeat,
            out,
        }) => run_all(seed, seconds, trace, smoke, repeat, &out, &declared),
        Ok(Mode::Compare(a, b)) => compare(&a, &b, &declared),
        Ok(Mode::WriteReference) => {
            let path = Path::new(figures::REFERENCE_PATH);
            match figures::write_reference(path) {
                Ok(()) => {
                    println!("wrote {}", path.display());
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("e2e: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Err(e) => {
            eprintln!("e2e: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn smoke_run(declared: &Declaration, trace: bool, out_dir: &Path) {
        for w in &declared.workloads {
            let opts = Options {
                workload: w.to_string(),
                seed: 42,
                seconds: 1.0,
                trace,
                smoke: true,
                out_dir: out_dir.to_path_buf(),
                work: out_dir.join(format!("work-{w}-{trace}")),
            };
            let report = run_workload(&opts, declared).unwrap();
            assert!(report.correct(), "{w}: {:?}", report.problems);
            report
                .result_json(declared.metrics(trace))
                .unwrap_or_else(|e| panic!("{w} trace={trace}: {e}"));
        }
    }

    /// A `--smoke` run of every workload is correct, emits exactly the
    /// declared end-to-end metrics and finishes within 30 s; the traced
    /// smoke run emits exactly the declared per-layer metrics.
    #[test]
    fn smoke_runs_are_correct_quick_and_emit_the_declared_metrics() {
        let declared = Declaration::load();
        let out_dir = std::env::temp_dir().join(format!("vstack-e2e-test-{}", std::process::id()));
        let started = Instant::now();
        smoke_run(&declared, false, &out_dir);
        let elapsed = started.elapsed().as_secs_f64();
        smoke_run(&declared, true, &out_dir);
        let _ = std::fs::remove_dir_all(&out_dir);
        assert!(elapsed < 30.0, "the smoke run took {elapsed:.1} s");
    }

    #[test]
    fn arguments_are_checked() {
        let d = Declaration::load();
        let args = |s: &str| s.split_whitespace().map(str::to_string).collect::<Vec<_>>();
        assert!(parse_args(&args("--workload nope"), &d).is_err());
        assert!(parse_args(&args("--trace 2"), &d).is_err());
        assert!(parse_args(&args("--seconds -1"), &d).is_err());
        assert!(parse_args(&args("--bogus"), &d).is_err());
        match parse_args(
            &args("--workload figures --seed 9 --seconds 5 --trace 1"),
            &d,
        ) {
            Ok(Mode::One(o)) => {
                assert_eq!((o.seed, o.seconds, o.trace), (9, 5.0, true));
            }
            _ => panic!("expected a single-workload run"),
        }
        match parse_args(&[], &d) {
            Ok(Mode::All { seconds, .. }) => assert_eq!(seconds, d.run_seconds),
            _ => panic!("expected an all-workload run"),
        }
    }
}
