//! Run records, the statistics helpers, and the metric declarations
//! compiled in from the repository's `BENCHMARK.json`.

use vstack_engine::json::Json;

/// The benchmark declaration. Compiled in so the emitted metric set, the
/// default run length and the regression bounds have a single source.
const DECLARATION: &str = include_str!("../../../../../BENCHMARK.json");

/// One declared metric.
#[derive(Debug, Clone)]
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Allowed worsening as a share of the baseline median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the benchmark itself reads.
#[derive(Debug, Clone)]
pub struct Declaration {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Declared>,
    pub per_layer: Vec<Declared>,
}

impl Declaration {
    /// Parses the compiled-in declaration.
    ///
    /// # Panics
    ///
    /// If the compiled-in file is malformed, which a unit test rules out.
    pub fn load() -> Declaration {
        let doc = Json::parse(DECLARATION).expect("BENCHMARK.json is valid JSON");
        let list = |key: &str| -> Vec<Declared> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap_or_else(|| panic!("BENCHMARK.json lacks \"{key}\""))
                .iter()
                .map(|m| Declared {
                    name: m
                        .get("name")
                        .and_then(Json::as_str)
                        .expect("metric name")
                        .to_string(),
                    unit: m
                        .get("unit")
                        .and_then(Json::as_str)
                        .expect("metric unit")
                        .to_string(),
                    higher_is_better: m.get("better").and_then(Json::as_str) == Some("higher"),
                    bound: m.get("bound").and_then(Json::as_f64),
                })
                .collect()
        };
        Declaration {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .expect("BENCHMARK.json run_seconds"),
            workloads: doc
                .get("workloads")
                .and_then(Json::as_arr)
                .expect("BENCHMARK.json workloads")
                .iter()
                .map(|w| {
                    w.get("name")
                        .and_then(Json::as_str)
                        .expect("workload name")
                        .to_string()
                })
                .collect(),
            end_to_end: list("end_to_end"),
            per_layer: list("per_layer"),
        }
    }

    /// The metrics a run in the given trace mode must emit.
    pub fn metrics(&self, trace: bool) -> &[Declared] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted: requests, figure passes or what-if queries.
    pub attempted: u64,
    /// Operations that failed, were refused or hung, plus oracle
    /// mismatches.
    pub failed: u64,
    /// The first few failure descriptions (all are counted in `failed`).
    pub problems: Vec<String>,
    /// `(name, value, note)` in the order the workload set them.
    pub values: Vec<(String, f64, String)>,
}

/// How many failure descriptions a report keeps.
const MAX_PROBLEMS: usize = 20;

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        self.set_noted(name, value, String::new());
    }

    /// Sets a metric with a human-readable note, e.g. its sample count.
    pub fn set_noted(&mut self, name: &str, value: f64, note: String) {
        self.values.retain(|(n, _, _)| n != name);
        self.values.push((name.to_string(), value, note));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _, _)| n == name).map(|v| v.1)
    }

    /// Counts one failure and keeps its description.
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.problems.len() < MAX_PROBLEMS {
            self.problems.push(problem);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Sets every declared metric the workload does not exercise to 0, so
    /// each run emits the full declared set.
    pub fn fill_unexercised(&mut self, declared: &[Declared]) {
        for d in declared {
            if self.get(&d.name).is_none() {
                self.set_noted(&d.name, 0.0, "not exercised by this workload".to_string());
            }
        }
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed` and every
    /// declared metric with its unit, in declaration order.
    ///
    /// # Errors
    ///
    /// When the emitted metric set differs from the declared one.
    pub fn result_json(&self, declared: &[Declared]) -> Result<Json, String> {
        let mut emitted: Vec<&str> = self.values.iter().map(|v| v.0.as_str()).collect();
        let mut wanted: Vec<&str> = declared.iter().map(|d| d.name.as_str()).collect();
        emitted.sort_unstable();
        wanted.sort_unstable();
        if emitted != wanted {
            return Err(format!(
                "emitted metrics {emitted:?} differ from declared {wanted:?}"
            ));
        }
        let metrics = declared
            .iter()
            .map(|d| {
                let value = self.get(&d.name).expect("checked above");
                (
                    d.name.clone(),
                    Json::obj(vec![
                        ("value", Json::Num(value)),
                        ("unit", Json::Str(d.unit.clone())),
                    ]),
                )
            })
            .collect();
        Ok(Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ]))
    }
}

/// Nearest-rank `p`-th percentile (`0 < p <= 100`) of ascending samples,
/// with how many samples lie strictly above it; `None` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> Option<(f64, usize)> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    let value = sorted[rank.min(sorted.len()) - 1];
    let beyond = sorted.len() - sorted.partition_point(|&x| x <= value);
    Some((value, beyond))
}

/// Sets a nearest-rank percentile of ascending samples, noting the sample
/// count and how many lie beyond it.
pub fn set_percentile(report: &mut Report, name: &str, sorted: &[f64], p: f64) {
    if let Some((value, beyond)) = percentile(sorted, p) {
        report.set_noted(
            name,
            value,
            format!("n={}, {beyond} beyond p{p}", sorted.len()),
        );
    }
}

/// Sorts samples ascending (they are finite by construction).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// Mean of the samples; 0 when there are none.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Median of the samples; `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let s = sorted(samples.to_vec());
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First and third quartiles by the "exclusive" method (Python's
/// `statistics.quantiles(values, n=4)`); `None` below two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(samples.to_vec());
    let n = s.len();
    if n < 2 {
        return None;
    }
    let quantile = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((quantile(1), quantile(3)))
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 if unknown.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile_counts_samples_beyond() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), Some((50.0, 50)));
        assert_eq!(percentile(&samples, 99.0), Some((99.0, 1)));
        assert_eq!(percentile(&samples, 100.0), Some((100.0, 0)));
        // Ties at the percentile are not "beyond" it.
        assert_eq!(percentile(&[1.0, 2.0, 2.0, 2.0], 50.0), Some((2.0, 0)));
        assert_eq!(percentile(&[7.0], 90.0), Some((7.0, 0)));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn quartiles_match_the_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let samples: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&samples), Some((2.75, 8.25)));
        assert_eq!(median(&samples), Some(5.5));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn declared_names_and_units_are_well_formed() {
        let d = Declaration::load();
        assert_eq!(
            d.workloads,
            ["serve_cold", "serve_hot", "figures", "faultmap"]
        );
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let mut names: Vec<&str> = Vec::new();
        for m in d.end_to_end.iter().chain(&d.per_layer) {
            assert!(name_ok(&m.name), "bad metric name {:?}", m.name);
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {:?}",
                m.unit
            );
            names.push(&m.name);
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "metric names must be unique");
        for m in &d.end_to_end {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{} bound {bound}", m.name);
        }
        let setup = d
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert!(d.end_to_end.iter().all(|m| m.bound <= setup.bound));
    }
}
