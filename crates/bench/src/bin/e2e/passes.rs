//! The measurement loop of the in-process workloads (`figures`,
//! `faultmap`), which repeat one deterministic pass.

use std::time::Instant;

use crate::layers::{set_counter_layers, Counters};
use crate::report::{median, set_percentile, sorted, Report};
use crate::spans::Spans;
use crate::Options;

/// What the passes of one run produced.
pub struct Passes<T> {
    /// Every pass's output, untraced and traced.
    pub outputs: Vec<T>,
    untraced_s: Vec<f64>,
    traced_s: Vec<f64>,
    /// Counter deltas of the first traced pass (every pass does the same
    /// work).
    delta: Option<Counters>,
    pub spans: Spans,
}

/// Runs `pass` until `opts.seconds` have passed (at least once). A traced
/// run follows each untraced pass with a traced one, for the per-layer
/// split and the tracing overhead.
pub fn run_passes<T>(
    opts: &Options,
    mut pass: impl FnMut(&mut Spans, usize) -> Result<T, String>,
) -> Result<Passes<T>, String> {
    let mut p = Passes {
        outputs: Vec::new(),
        untraced_s: Vec::new(),
        traced_s: Vec::new(),
        delta: None,
        spans: Spans::new(true),
    };
    let started = Instant::now();
    while p.untraced_s.is_empty() || started.elapsed().as_secs_f64() < opts.seconds {
        let pass_started = Instant::now();
        p.outputs.push(pass(&mut Spans::new(false), 0)?);
        p.untraced_s.push(pass_started.elapsed().as_secs_f64());
        if opts.trace {
            let before = Counters::now();
            let pass_started = Instant::now();
            p.outputs.push(pass(&mut p.spans, p.traced_s.len())?);
            p.traced_s.push(pass_started.elapsed().as_secs_f64());
            p.delta.get_or_insert(Counters::now().since(&before));
        }
    }
    Ok(p)
}

impl<T: PartialEq> Passes<T> {
    /// Fails the report for every pass whose output differs from the first.
    pub fn check_identical(&self, report: &mut Report) {
        for (i, out) in self.outputs.iter().enumerate().skip(1) {
            if out != &self.outputs[0] {
                report.fail(format!("pass {i} differs from pass 0"));
            }
        }
    }

    /// Sets the end-to-end metrics of an untraced run, or the trace
    /// bookkeeping and counter layers of a traced one (writing its spans).
    /// Throughput counts `ops_per_pass` operations of kind `ops` per pass.
    pub fn set_metrics(
        &self,
        report: &mut Report,
        opts: &Options,
        setups: &[f64],
        ops_per_pass: f64,
        ops: &str,
    ) -> Result<(), String> {
        if opts.trace {
            self.spans
                .write_ndjson(&opts.spans_path())
                .map_err(|e| format!("writing spans: {e}"))?;
            let traced_us = self.traced_s.iter().sum::<f64>() * 1e6;
            let delta = self.delta.as_ref().expect("a traced run traces a pass");
            set_counter_layers(report, delta, self.traced_s[0] * 1e6);
            report.set("trace.ops", self.traced_s.len() as f64);
            report.set(
                "trace.unattributed_frac",
                (traced_us - self.spans.attributed_us()) / traced_us,
            );
            report.set(
                "trace.overhead_frac",
                median(&self.traced_s).unwrap_or(0.0) / median(&self.untraced_s).unwrap_or(1.0)
                    - 1.0,
            );
        } else {
            let total_s: f64 = self.untraced_s.iter().sum();
            report.set_noted(
                "throughput",
                ops_per_pass * self.untraced_s.len() as f64 / total_s,
                format!("{ops}/s, {ops_per_pass} per pass, over {total_s:.1} s"),
            );
            let pass_ms = sorted(self.untraced_s.iter().map(|s| s * 1e3).collect());
            set_percentile(report, "latency_p50_ms", &pass_ms, 50.0);
            set_percentile(report, "latency_p90_ms", &pass_ms, 90.0);
            report.set_noted(
                "setup_s",
                median(setups).expect("set-up ran"),
                format!("median of {} set-ups", setups.len()),
            );
        }
        Ok(())
    }
}
