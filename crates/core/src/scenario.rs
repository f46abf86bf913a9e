//! Design-scenario builder: the single entry point tying the platform
//! parameters, PDN topology, regulator configuration and workload pattern
//! together.

use vstack_pdn::solution::PdnSolution;
use vstack_pdn::{
    FaultSet, FaultedSolution, Pdn, PdnError, PdnParams, SolveScratch, StackLoads, Stacking,
    TsvTopology,
};
use vstack_power::workload::ImbalancePattern;
use vstack_sc::compact::ScConverter;
use vstack_sparse::SolveError;

/// Which PDN a scenario solves, under which loads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScenarioLoad {
    /// Regular PDN at full activity (its worst case).
    RegularPeak,
    /// Voltage-stacked PDN under the interleaved pattern at this
    /// imbalance. `VoltageStacked(0.0)` is every layer at full activity,
    /// bit for bit the regular PDN's peak loads.
    VoltageStacked(f64),
}

impl ScenarioLoad {
    /// `"regular"` or `"voltage-stacked"`: how studies label the topology.
    pub fn label(self) -> &'static str {
        match self {
            ScenarioLoad::RegularPeak => "regular",
            ScenarioLoad::VoltageStacked(_) => "voltage-stacked",
        }
    }
}

/// A complete 3D-IC power-delivery design point.
///
/// Built with chained setters from [`DesignScenario::paper_baseline`];
/// terminal methods construct and solve either PDN topology.
#[derive(Debug, Clone)]
pub struct DesignScenario {
    params: PdnParams,
    n_layers: usize,
    topology: TsvTopology,
    power_c4_fraction: f64,
    converter: ScConverter,
    converters_per_core: usize,
}

impl DesignScenario {
    /// The paper's evaluation platform: Table 1 parameters, 16-core layers,
    /// "Few TSV" topology, 25% power C4, the 28 nm open-loop converter,
    /// 4 converters per core, 8 layers.
    pub fn paper_baseline() -> Self {
        DesignScenario {
            params: PdnParams::paper_defaults(),
            n_layers: 8,
            topology: TsvTopology::Few,
            power_c4_fraction: 0.25,
            converter: ScConverter::paper_28nm(),
            converters_per_core: 4,
        }
    }

    /// Sets the number of stacked layers.
    pub fn layers(mut self, n: usize) -> Self {
        self.n_layers = n;
        self
    }

    /// Sets the TSV topology.
    pub fn tsv_topology(mut self, t: TsvTopology) -> Self {
        self.topology = t;
        self
    }

    /// Sets the fraction of C4 pads allocated to power delivery.
    pub fn power_c4_fraction(mut self, f: f64) -> Self {
        self.power_c4_fraction = f;
        self
    }

    /// Sets the number of SC converters per core (per intermediate rail).
    pub fn converters_per_core(mut self, k: usize) -> Self {
        self.converters_per_core = k;
        self
    }

    /// Replaces the converter design.
    pub fn converter(mut self, c: ScConverter) -> Self {
        self.converter = c;
        self
    }

    /// Replaces the full parameter set.
    pub fn params(mut self, p: PdnParams) -> Self {
        self.params = p;
        self
    }

    /// Switches to the coarsest electrical grid (refinement 1). Roughly
    /// 10× faster solves at ≈10% IR-drop accuracy — intended for tests and
    /// doc examples, not for reported results.
    pub fn coarse_grid(mut self) -> Self {
        self.params.grid_refinement = 1;
        self
    }

    /// The parameter set in use.
    pub fn pdn_params(&self) -> &PdnParams {
        &self.params
    }

    /// Number of layers in this scenario.
    pub fn n_layers(&self) -> usize {
        self.n_layers
    }

    /// The converter design in use.
    pub fn converter_design(&self) -> &ScConverter {
        &self.converter
    }

    /// Builds the regular-topology PDN.
    pub fn regular_pdn(&self) -> Pdn {
        Pdn::new(
            &self.params,
            self.n_layers,
            self.topology,
            self.power_c4_fraction,
            None,
        )
    }

    /// Builds the voltage-stacked PDN.
    pub fn voltage_stacked_pdn(&self) -> Pdn {
        let stacking = Stacking {
            converter: self.converter,
            converters_per_core: self.converters_per_core,
        };
        Pdn::new(
            &self.params,
            self.n_layers,
            self.topology,
            self.power_c4_fraction,
            Some(stacking),
        )
    }

    /// Builds the PDN `load` selects.
    pub fn pdn(&self, load: ScenarioLoad) -> Pdn {
        match load {
            ScenarioLoad::RegularPeak => self.regular_pdn(),
            ScenarioLoad::VoltageStacked(_) => self.voltage_stacked_pdn(),
        }
    }

    /// The loads `load` selects.
    pub fn loads(&self, load: ScenarioLoad) -> StackLoads {
        match load {
            ScenarioLoad::RegularPeak => self.peak_loads(),
            ScenarioLoad::VoltageStacked(imbalance) => self.interleaved_loads(imbalance),
        }
    }

    /// Loads for the interleaved high/low pattern at the given imbalance.
    pub fn interleaved_loads(&self, imbalance: f64) -> StackLoads {
        StackLoads::interleaved(
            &self.params,
            self.n_layers,
            &ImbalancePattern::new(imbalance),
        )
    }

    /// Fully-active loads (the regular PDN's worst case).
    pub fn peak_loads(&self) -> StackLoads {
        StackLoads::uniform_peak(&self.params, self.n_layers)
    }

    /// Convenience: solve the regular PDN at full activity.
    ///
    /// # Errors
    ///
    /// Propagates the solver error.
    pub fn solve_regular_peak(&self) -> Result<PdnSolution, SolveError> {
        self.regular_pdn().solve(&self.peak_loads())
    }

    /// Convenience: solve the V-S PDN under the interleaved pattern.
    ///
    /// # Errors
    ///
    /// Propagates the solver error.
    pub fn solve_voltage_stacked(&self, imbalance: f64) -> Result<PdnSolution, SolveError> {
        self.voltage_stacked_pdn()
            .solve(&self.interleaved_loads(imbalance))
    }

    /// Solves the PDN and loads `load` selects through the fault-aware
    /// resilient path ([`Pdn::solve_faulted_scratch`]), with `faults`
    /// open-circuited: the full [`FaultedSolution`], whose
    /// [`vstack_sparse::SolveReport`] records any escalation-ladder
    /// fallback. This is the warm-started solve `vstack-engine` composes
    /// for intact and faulted requests alike and the thermal coupling
    /// loop drives: a converged `guess` is returned unchanged
    /// (bit-identical voltages, zero iterations), and `scratch` recycles
    /// the CSR pattern and Krylov vectors across repeated solves.
    ///
    /// # Errors
    ///
    /// [`PdnError::Disconnected`] if `faults` isolate part of the grid;
    /// [`PdnError::Solve`] if the escalation ladder is exhausted.
    pub fn solve_faulted(
        &self,
        load: ScenarioLoad,
        faults: &FaultSet,
        guess: Option<&[f64]>,
        scratch: &mut SolveScratch,
    ) -> Result<FaultedSolution, PdnError> {
        let _span = vstack_obs::span!("scenario_solve");
        self.pdn(load)
            .solve_faulted_scratch(&self.loads(load), faults, guess, scratch)
    }

    /// Total silicon-area overhead fraction of this scenario's V-S PDN on
    /// one core: TSV keep-out zones plus converter area (with high-density
    /// capacitors). The paper's equal-area argument: V-S with Few TSVs and
    /// 8 converters/core ≈ a regular PDN with Dense TSVs.
    pub fn vs_area_overhead_per_core(&self) -> f64 {
        let conv = vstack_sc::area::area_overhead_per_core(
            vstack_sc::CapacitorTech::Ferroelectric,
            self.params.core.area_mm2(),
        );
        self.topology.area_overhead(&self.params) + conv * self.converters_per_core as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let s = DesignScenario::paper_baseline()
            .layers(4)
            .tsv_topology(TsvTopology::Dense)
            .converters_per_core(8);
        assert_eq!(s.n_layers(), 4);
        assert_eq!(
            s.voltage_stacked_pdn()
                .stacking()
                .unwrap()
                .converters_per_core,
            8
        );
        assert_eq!(s.regular_pdn().topology(), TsvTopology::Dense);
    }

    #[test]
    fn equal_area_argument_holds() {
        // Few TSV + 8 converters/core ≈ Dense TSV (paper §5.2).
        let vs = DesignScenario::paper_baseline()
            .tsv_topology(TsvTopology::Few)
            .converters_per_core(8)
            .vs_area_overhead_per_core();
        let dense = TsvTopology::Dense.area_overhead(&PdnParams::paper_defaults());
        assert!(
            (vs - dense).abs() / dense < 0.35,
            "V-S(Few, 8/core) {vs:.3} vs Dense {dense:.3}"
        );
    }

    #[test]
    fn reported_solve_matches_plain_solve_and_is_unrescued() {
        let s = DesignScenario::paper_baseline().layers(2).coarse_grid();
        let plain = s.solve_voltage_stacked(0.4).unwrap();
        let load = ScenarioLoad::VoltageStacked(0.4);
        let reported = s
            .solve_faulted(load, &FaultSet::new(), None, &mut SolveScratch::new())
            .unwrap();
        assert!((plain.max_ir_drop_frac - reported.solution.max_ir_drop_frac).abs() < 1e-12);
        assert!(
            !reported.report.was_rescued(),
            "{}",
            reported.report.trail()
        );
    }

    #[test]
    fn coarse_and_fine_grids_agree_roughly() {
        let fine = DesignScenario::paper_baseline().layers(2);
        let coarse = fine.clone().coarse_grid();
        let a = fine.solve_voltage_stacked(0.5).unwrap().max_ir_drop_frac;
        let b = coarse.solve_voltage_stacked(0.5).unwrap().max_ir_drop_frac;
        assert!(
            (a - b).abs() / a < 0.4,
            "grid refinement should not change the answer wholesale: {a} vs {b}"
        );
    }
}
