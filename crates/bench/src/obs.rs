//! Observability wiring shared by the figure/exploration binaries.
//!
//! The figure and study binaries accept two optional flags:
//!
//! * `--trace-out PATH` — enable span recording for the whole run and, on
//!   exit, write the NDJSON span log at `PATH` plus the collapsed-stack
//!   file at `PATH.folded` (feed the latter to `inferno-flamegraph`).
//! * `--metrics-out PATH` — on exit, write the process-wide metrics
//!   snapshot (`vstack-obs-metrics` JSON) at `PATH`.
//!
//! The fig/ext binaries pick both flags up with
//! [`ObsOutputs::from_cli_args`], and `ext_faultmap` and `ext_thermal_em`,
//! which also take `--quick` and `--ndjson-out PATH`, with
//! [`CliArgs::from_env`]. Either rejects any other argument with a usage
//! line and exit status 2, as [`refuse_args`] rejects every argument of
//! `table1` and `table2`, which take none. `explore` parses its own flag
//! set and constructs [`ObsOutputs::new`] directly.

use std::path::PathBuf;

use vstack_engine::json::Json;

/// The canonical `trace_id` placeholder left by [`zero_wallclock`].
pub const ZEROED_TRACE_ID: &str = "0000000000000000";

/// Recursively zeroes every wall-clock-dependent field of a JSON
/// document so two runs of a deterministic workload compare
/// byte-identical:
///
/// * numeric fields whose name ends in `_us` or `_ms` (latencies,
///   uptimes, backoff hints) become `0`;
/// * object fields with those suffixes (or `_us_hist`) are treated as
///   histograms: `sum` and `buckets` are zeroed, observation *counts*
///   stay, since how many times a timer fired is deterministic;
/// * `trace_id` strings become [`ZEROED_TRACE_ID`] (minted per process,
///   so never reproducible).
///
/// Used by the `explore` snapshot test and the serving telemetry
/// byte-identity test; keep the two in sync by keeping them here.
pub fn zero_wallclock(doc: &mut Json) {
    match doc {
        Json::Obj(fields) => {
            for (name, value) in fields {
                let timed =
                    name.ends_with("_us") || name.ends_with("_ms") || name.ends_with("_us_hist");
                match (timed, &mut *value) {
                    (true, Json::Num(n)) => *n = 0.0,
                    (true, Json::Obj(hist_fields)) => {
                        for (field, v) in hist_fields {
                            match (field.as_str(), &mut *v) {
                                ("sum", Json::Num(n)) => *n = 0.0,
                                ("buckets", Json::Arr(buckets)) => {
                                    buckets.fill(Json::Num(0.0));
                                }
                                _ => zero_wallclock(v),
                            }
                        }
                    }
                    (_, Json::Str(s)) if name == "trace_id" => {
                        *s = ZEROED_TRACE_ID.to_string();
                    }
                    (_, v) => zero_wallclock(v),
                }
            }
        }
        Json::Arr(items) => items.iter_mut().for_each(zero_wallclock),
        _ => {}
    }
}

/// Deferred observability outputs for one binary run.
///
/// Construction arms the tracer when a trace path was requested;
/// [`ObsOutputs::finish`] drains and writes everything at the end of
/// `main`.
#[must_use = "call finish() at the end of main to write the requested outputs"]
pub struct ObsOutputs {
    trace_out: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
}

impl ObsOutputs {
    /// Wires up the requested outputs, enabling span recording if a trace
    /// destination was given.
    pub fn new(trace_out: Option<PathBuf>, metrics_out: Option<PathBuf>) -> Self {
        if trace_out.is_some() {
            vstack_obs::trace::set_enabled(true);
        }
        ObsOutputs {
            trace_out,
            metrics_out,
        }
    }

    /// Parses the process arguments of a binary whose only flags are
    /// `--trace-out PATH` and `--metrics-out PATH` (see
    /// [`CliArgs::from_env`], which exits on any other argument).
    pub fn from_cli_args() -> Self {
        CliArgs::from_env(false).obs()
    }

    /// Writes the requested trace and metrics files, reporting each path
    /// on stderr. Call once, at the end of `main`.
    ///
    /// # Errors
    ///
    /// Propagates any I/O error from writing the output files.
    pub fn finish(self) -> std::io::Result<()> {
        if let Some(path) = self.trace_out {
            vstack_obs::trace::set_enabled(false);
            let folded = vstack_obs::trace::write_trace(&path)?;
            eprintln!(
                "trace: wrote {} (NDJSON) and {} (collapsed stacks)",
                path.display(),
                folded.display()
            );
        }
        if let Some(path) = self.metrics_out {
            std::fs::write(&path, vstack_obs::metrics::snapshot_json())?;
            eprintln!("metrics: wrote {}", path.display());
        }
        Ok(())
    }
}

/// For a binary that takes no arguments: on the first argument, prints
/// it and a usage line to stderr and exits with status 2.
pub fn refuse_args() {
    let mut argv = std::env::args();
    let program = argv.next().unwrap_or_default();
    if let Some(arg) = argv.next() {
        eprintln!("{program}: unknown argument {arg}\nusage: {program}");
        std::process::exit(2)
    }
}

/// The command line of a figure or study binary: `--trace-out PATH` and
/// `--metrics-out PATH`, plus `--quick` and `--ndjson-out PATH` for the
/// studies that have a coarse mode.
#[derive(Debug, Default, PartialEq)]
pub struct CliArgs {
    /// `--trace-out PATH`: where to write the span log.
    pub trace_out: Option<PathBuf>,
    /// `--metrics-out PATH`: where to write the metrics snapshot.
    pub metrics_out: Option<PathBuf>,
    /// `--quick`: coarse fidelity.
    pub quick: bool,
    /// `--ndjson-out PATH`: where to write one JSON record per result.
    pub ndjson_out: Option<PathBuf>,
}

impl CliArgs {
    /// Parses `args` (the arguments after the program name); `study`
    /// admits `--quick` and `--ndjson-out` as well.
    ///
    /// # Errors
    ///
    /// A message naming the first argument that is not an accepted flag,
    /// or the flag whose value is missing.
    pub fn parse(args: &[String], study: bool) -> Result<Self, String> {
        let mut out = CliArgs::default();
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            let slot = match flag.as_str() {
                "--trace-out" => &mut out.trace_out,
                "--metrics-out" => &mut out.metrics_out,
                "--ndjson-out" if study => &mut out.ndjson_out,
                "--quick" if study => {
                    out.quick = true;
                    continue;
                }
                _ => return Err(format!("unknown argument {flag}")),
            };
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            *slot = Some(PathBuf::from(value));
        }
        Ok(out)
    }

    /// Parses the process arguments as [`CliArgs::parse`] does. On an
    /// error, prints it and a usage line to stderr and exits with
    /// status 2.
    pub fn from_env(study: bool) -> Self {
        let mut argv = std::env::args();
        let program = argv.next().unwrap_or_default();
        let args: Vec<String> = argv.collect();
        Self::parse(&args, study).unwrap_or_else(|e| {
            let extra = if study {
                " [--quick] [--ndjson-out PATH]"
            } else {
                ""
            };
            eprintln!(
                "{program}: {e}\nusage: {program} [--trace-out PATH] [--metrics-out PATH]{extra}"
            );
            std::process::exit(2)
        })
    }

    /// Arms the requested observability outputs (see [`ObsOutputs::new`]).
    pub fn obs(&self) -> ObsOutputs {
        ObsOutputs::new(self.trace_out.clone(), self.metrics_out.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str], study: bool) -> Result<CliArgs, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        CliArgs::parse(&args, study)
    }

    #[test]
    fn accepts_the_observability_flags_everywhere() {
        let got = parse(
            &["--metrics-out", "m.json", "--trace-out", "t.ndjson"],
            false,
        );
        assert_eq!(
            got,
            Ok(CliArgs {
                trace_out: Some("t.ndjson".into()),
                metrics_out: Some("m.json".into()),
                ..CliArgs::default()
            })
        );
        assert_eq!(parse(&[], false), Ok(CliArgs::default()));
    }

    #[test]
    fn study_flags_only_where_the_study_has_them() {
        let got = parse(&["--quick", "--ndjson-out", "out.ndjson"], true);
        assert_eq!(
            got,
            Ok(CliArgs {
                quick: true,
                ndjson_out: Some("out.ndjson".into()),
                ..CliArgs::default()
            })
        );
        assert_eq!(
            parse(&["--quick"], false),
            Err("unknown argument --quick".to_string())
        );
        assert_eq!(
            parse(&["--ndjson-out", "x"], false),
            Err("unknown argument --ndjson-out".to_string())
        );
    }

    #[test]
    fn rejects_unknown_arguments_and_missing_values() {
        for study in [false, true] {
            assert_eq!(
                parse(&["--metrics-out", "m.json", "--qiuck"], study),
                Err("unknown argument --qiuck".to_string())
            );
            assert_eq!(
                parse(&["stray"], study),
                Err("unknown argument stray".to_string())
            );
            assert_eq!(
                parse(&["--trace-out"], study),
                Err("--trace-out needs a value".to_string())
            );
        }
    }
}
