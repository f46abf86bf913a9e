//! The cacheable result of one scenario solve.
//!
//! A [`SolveSummary`] is everything a query response carries: the IR-drop
//! and efficiency metrics of the solution, the EM lifetimes of its
//! conductor arrays, and the solver provenance (iterations, escalation
//! trail). It is deliberately small and JSON-serializable — the full
//! node-voltage vector is *not* part of it; voltages live only in the
//! in-memory cache tier, where they seed warm starts.

use crate::json::Json;
use vstack::coupled::CoupledSolution;
use vstack::em_study::{paper_em_lifetimes, EmLifetimes};
use vstack::pdn::FaultedSolution;

/// Scalar results of one solved scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveSummary {
    /// Worst fractional IR drop across the stack.
    pub max_ir_drop_frac: f64,
    /// Mean fractional IR drop.
    pub mean_ir_drop_frac: f64,
    /// Layer index with the worst drop.
    pub worst_layer: usize,
    /// Power-delivery efficiency (load power / input power).
    pub efficiency: f64,
    /// Expected EM-damage-free lifetime of the C4 array, hours.
    pub em_c4_hours: f64,
    /// Expected EM-damage-free lifetime of the TSV array, hours.
    pub em_tsv_hours: f64,
    /// Converters pushed past their rated current, if any.
    pub overloaded_converters: usize,
    /// Iterations the accepted solver method performed (0 when a warm
    /// start was already converged).
    pub solver_iterations: usize,
    /// Microseconds spent building the accepted method's preconditioner
    /// (0 on cache reuse or for setup-free methods).
    pub solver_setup_us: u64,
    /// The escalation-ladder trail ([`vstack_sparse::SolveReport::trail`]),
    /// rungs joined with `->`, e.g. `"cg+amgf32 (13 iters, res 6.2e-10)"`
    /// or `"cg+jacobi->bicgstab (…)"`.
    pub solver_trail: String,
    /// Operator and precision of the accepted rung, `"<operator>+<precision>"`
    /// — e.g. `"csr+mixed"` for the mixed-precision hot path, `"csr+f64"`
    /// for the pure-f64 rungs.
    pub solver_path: String,
    /// Thermal–EM–IR fixed-point iterations behind this result; 0 for a
    /// plain uncoupled solve. Optional-additive on the wire (absent ⇒ 0),
    /// and the coupling block is emitted only when nonzero, so uncoupled
    /// summaries keep their pre-thermal byte layout.
    pub coupling_iterations: usize,
    /// Whether the coupling loop reached its fixed point. `true` for
    /// uncoupled solves (nothing to converge); `false` means the summary
    /// carries the graceful uncoupled fallback.
    pub coupling_converged: bool,
    /// Hotspot cell temperature at the coupled fixed point, °C.
    /// Meaningful only when `coupling_iterations > 0`; 0.0 otherwise.
    pub peak_temperature_c: f64,
}

impl SolveSummary {
    /// Extracts the summary from a completed solve, with the fixed-80 °C
    /// EM lifetimes.
    pub fn from_faulted(solved: &FaultedSolution) -> Self {
        Self::with_lifetimes(solved, paper_em_lifetimes(&solved.solution))
    }

    /// An uncoupled summary of `solved` that reports `em` as its lifetimes.
    fn with_lifetimes(solved: &FaultedSolution, em: EmLifetimes) -> Self {
        SolveSummary {
            max_ir_drop_frac: solved.solution.max_ir_drop_frac,
            mean_ir_drop_frac: solved.solution.mean_ir_drop_frac,
            worst_layer: solved.solution.worst_layer,
            efficiency: solved.solution.efficiency(),
            em_c4_hours: em.c4_hours,
            em_tsv_hours: em.tsv_hours,
            overloaded_converters: solved.solution.overloaded_converters,
            solver_iterations: solved.report.iterations,
            solver_setup_us: solved.report.setup_us,
            solver_trail: solved.report.trail(),
            solver_path: format!("{}+{}", solved.report.operator, solved.report.precision),
            coupling_iterations: 0,
            coupling_converged: true,
            peak_temperature_c: 0.0,
        }
    }

    /// Extracts the summary from a thermally coupled solve: the electrical
    /// metrics come from the fixed-point solution, while the EM lifetimes
    /// are the temperature-scaled coupled values (not the fixed-80 °C
    /// baseline [`SolveSummary::from_faulted`] reports). A run that fell
    /// back reports the uncoupled solve and its fixed-80 °C lifetimes.
    pub fn from_coupled(out: &CoupledSolution) -> Self {
        SolveSummary {
            coupling_iterations: out.report.iterations,
            coupling_converged: out.report.converged,
            peak_temperature_c: out.report.peak_temperature_c,
            ..Self::with_lifetimes(&out.solved, out.report.em)
        }
    }

    /// Serializes for the wire and the disk cache.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("max_ir_drop_frac", Json::Num(self.max_ir_drop_frac)),
            ("mean_ir_drop_frac", Json::Num(self.mean_ir_drop_frac)),
            ("worst_layer", Json::Num(self.worst_layer as f64)),
            ("efficiency", Json::Num(self.efficiency)),
            ("em_c4_hours", Json::Num(self.em_c4_hours)),
            ("em_tsv_hours", Json::Num(self.em_tsv_hours)),
            (
                "overloaded_converters",
                Json::Num(self.overloaded_converters as f64),
            ),
            (
                "solver_iterations",
                Json::Num(self.solver_iterations as f64),
            ),
            ("solver_setup_us", Json::Num(self.solver_setup_us as f64)),
            ("solver_trail", Json::Str(self.solver_trail.clone())),
            ("solver_path", Json::Str(self.solver_path.clone())),
        ];
        if self.coupling_iterations > 0 {
            fields.push((
                "coupling_iterations",
                Json::Num(self.coupling_iterations as f64),
            ));
            fields.push(("coupling_converged", Json::Bool(self.coupling_converged)));
            fields.push(("peak_temperature_c", Json::Num(self.peak_temperature_c)));
        }
        Json::obj(fields)
    }

    /// Parses a summary back from its JSON form.
    ///
    /// # Errors
    ///
    /// Names the first missing or mistyped field.
    pub fn from_json(value: &Json) -> Result<Self, String> {
        let num = |key: &str| -> Result<f64, String> {
            value
                .get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("summary field \"{key}\" missing or not a number"))
        };
        let int = |key: &str| -> Result<usize, String> {
            value
                .get(key)
                .and_then(Json::as_usize)
                .ok_or_else(|| format!("summary field \"{key}\" missing or not an integer"))
        };
        let string = |key: &str| -> Result<String, String> {
            let text = value.get(key).and_then(Json::as_str);
            text.map(str::to_string)
                .ok_or_else(|| format!("summary field \"{key}\" missing or not a string"))
        };
        Ok(SolveSummary {
            max_ir_drop_frac: num("max_ir_drop_frac")?,
            mean_ir_drop_frac: num("mean_ir_drop_frac")?,
            worst_layer: int("worst_layer")?,
            efficiency: num("efficiency")?,
            em_c4_hours: num("em_c4_hours")?,
            em_tsv_hours: num("em_tsv_hours")?,
            overloaded_converters: int("overloaded_converters")?,
            solver_iterations: int("solver_iterations")?,
            solver_setup_us: int("solver_setup_us")? as u64,
            solver_trail: string("solver_trail")?,
            solver_path: string("solver_path")?,
            // Additive coupling block: absent for every uncoupled solve
            // (and every pre-thermal cached summary) ⇒ the uncoupled
            // identity values.
            coupling_iterations: value
                .get("coupling_iterations")
                .and_then(Json::as_usize)
                .unwrap_or(0),
            coupling_converged: value
                .get("coupling_converged")
                .and_then(Json::as_bool)
                .unwrap_or(true),
            peak_temperature_c: value
                .get("peak_temperature_c")
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vstack::coupled::{solve_coupled, CoupledConfig};
    use vstack::pdn::SolveScratch;
    use vstack::scenario::{DesignScenario, ScenarioLoad};

    /// A coupled solve of the quick 2-layer regular stack under `config`.
    fn coupled_run(config: &CoupledConfig) -> CoupledSolution {
        let scenario = DesignScenario::paper_baseline().coarse_grid().layers(2);
        solve_coupled(
            &scenario,
            ScenarioLoad::RegularPeak,
            config,
            None,
            &mut SolveScratch::new(),
        )
        .unwrap()
    }

    fn sample() -> SolveSummary {
        SolveSummary {
            max_ir_drop_frac: 0.0412,
            mean_ir_drop_frac: 0.021,
            worst_layer: 7,
            efficiency: 0.873,
            em_c4_hours: 1.6e5,
            em_tsv_hours: 3.4e6,
            overloaded_converters: 0,
            solver_iterations: 113,
            solver_setup_us: 842,
            solver_trail: "cg+amgf32".to_string(),
            solver_path: "csr+f64".to_string(),
            coupling_iterations: 0,
            coupling_converged: true,
            peak_temperature_c: 0.0,
        }
    }

    #[test]
    fn coupling_block_defaults_for_uncoupled_and_old_summaries() {
        // An uncoupled summary must not emit the coupling keys at all.
        let doc = s_obj();
        assert!(doc.iter().all(|(k, _)| !k.starts_with("coupling")));
        // ... and parsing a document without them yields the identities.
        let s = SolveSummary::from_json(&Json::Obj(doc)).unwrap();
        assert_eq!(s.coupling_iterations, 0);
        assert!(s.coupling_converged);
    }

    #[test]
    fn coupled_summary_round_trips() {
        let s = SolveSummary {
            coupling_iterations: 9,
            coupling_converged: true,
            peak_temperature_c: 91.25,
            ..sample()
        };
        let back = SolveSummary::from_json(&Json::parse(&s.to_json().emit()).unwrap()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn json_round_trip_is_exact() {
        let s = sample();
        let back = SolveSummary::from_json(&Json::parse(&s.to_json().emit()).unwrap()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn coupled_summary_is_the_uncoupled_one_with_coupled_lifetimes() {
        let out = coupled_run(&CoupledConfig::paper_air_cooled());
        let coupled = SolveSummary::from_coupled(&out);
        let want = SolveSummary {
            em_c4_hours: out.report.em.c4_hours,
            em_tsv_hours: out.report.em.tsv_hours,
            coupling_iterations: out.report.iterations,
            coupling_converged: out.report.converged,
            peak_temperature_c: out.report.peak_temperature_c,
            ..SolveSummary::from_faulted(&out.solved)
        };
        assert_eq!(coupled, want);
    }

    #[test]
    fn nonconverged_coupled_summary_is_the_uncoupled_one() {
        let out = coupled_run(&CoupledConfig {
            tolerance_c: 1e-12,
            max_iterations: 2,
            ..CoupledConfig::paper_air_cooled()
        });
        assert!(!out.report.converged);
        let coupled = SolveSummary::from_coupled(&out);
        let want = SolveSummary {
            coupling_iterations: 2,
            coupling_converged: false,
            peak_temperature_c: out.report.peak_temperature_c,
            ..SolveSummary::from_faulted(&out.solved)
        };
        assert_eq!(coupled, want);
    }

    #[test]
    fn missing_field_is_named() {
        let mut doc = s_obj();
        doc.retain(|(k, _)| k != "efficiency");
        let e = SolveSummary::from_json(&Json::Obj(doc)).unwrap_err();
        assert!(e.contains("efficiency"), "{e}");
    }

    fn s_obj() -> Vec<(String, Json)> {
        match sample().to_json() {
            Json::Obj(pairs) => pairs,
            _ => unreachable!(),
        }
    }
}
