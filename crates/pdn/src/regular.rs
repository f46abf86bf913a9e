//! The conventional ("regular") 3D PDN topology — paper Fig 4a.
//!
//! All layers' supply nets are connected in parallel by Vdd TSV stacks,
//! all ground nets by Gnd TSV stacks, and the board feeds the bottom layer
//! through the C4 array. Every layer's full current crosses the pads and
//! the lower TSV interfaces, which is exactly why this topology's EM
//! lifetime collapses as layers are added (paper §5.1).

use vstack_power::floorplan::Floorplan;
use vstack_sparse::{SolveError, SolveReport};

use crate::c4::{C4Array, PadNet};
use crate::error::PdnError;
use crate::fault::{FaultSet, FaultedSolution, TsvGroupCurrent};
use crate::network::{core_load_weights, core_node_map, GridSpec, NetworkBuilder, SolveScratch};
use crate::params::PdnParams;
use crate::solution::{ConductorCurrents, PdnSolution};
use crate::stack::StackLoads;
use crate::tsv::TsvTopology;

/// Output of the assembly phase: the stamped network plus extraction
/// handles. Pads carry their ordinal among power pads of the same net so
/// fault injection and extraction agree on identity across solves.
struct AssembledReg {
    nb: NetworkBuilder,
    vdd_pads: Vec<(usize, usize)>,
    gnd_pads: Vec<(usize, usize)>,
    g_pad: f64,
}

/// A regular (non-stacked) 3D PDN ready to solve against load scenarios.
#[derive(Debug, Clone)]
pub struct RegularPdn {
    params: PdnParams,
    n_layers: usize,
    topology: TsvTopology,
    c4: C4Array,
    grid: GridSpec,
    floorplan: Floorplan,
    core_nodes: Vec<Vec<usize>>,
    core_weights: Vec<Vec<f64>>,
}

impl RegularPdn {
    /// Builds the network structure for `n_layers` silicon layers with the
    /// given TSV topology and C4 power-pad fraction.
    ///
    /// # Panics
    ///
    /// Panics if `n_layers == 0` (C4-array panics propagate for invalid
    /// `power_c4_fraction`).
    pub fn new(
        params: &PdnParams,
        n_layers: usize,
        topology: TsvTopology,
        power_c4_fraction: f64,
    ) -> Self {
        assert!(n_layers >= 1, "need at least one layer");
        let c4 = C4Array::new(params, power_c4_fraction);
        let grid = GridSpec::from_params(params);
        let floorplan = params.floorplan();
        let core_nodes = core_node_map(&grid, &floorplan);
        let core_weights = core_load_weights(
            &grid,
            &floorplan,
            &params.core,
            &core_nodes,
            params.load_distribution,
        );
        RegularPdn {
            params: params.clone(),
            n_layers,
            topology,
            c4,
            grid,
            floorplan,
            core_nodes,
            core_weights,
        }
    }

    /// Number of stacked layers.
    pub fn n_layers(&self) -> usize {
        self.n_layers
    }

    /// The TSV topology in use.
    pub fn topology(&self) -> TsvTopology {
        self.topology
    }

    /// The C4 array (placement + allocation).
    pub fn c4(&self) -> &C4Array {
        &self.c4
    }

    /// The electrical modeling grid.
    pub fn grid(&self) -> &GridSpec {
        &self.grid
    }

    /// Flat unknown index of grid node `n` on `layer`'s Vdd (`net = 0`) or
    /// Gnd (`net = 1`) net.
    fn node(&self, layer: usize, net: usize, n: usize) -> usize {
        (layer * 2 + net) * self.grid.count() + n
    }

    /// Solves the network for the given loads.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError`] if the solve fails (should not happen for
    /// well-formed networks).
    ///
    /// # Panics
    ///
    /// Panics if `loads` does not match this PDN's layer/core counts.
    pub fn solve(&self, loads: &StackLoads) -> Result<PdnSolution, SolveError> {
        self.solve_faulted(loads, &FaultSet::new(), None)
            .map(|f| f.solution)
            .map_err(PdnError::into_solve_error)
    }

    /// Solves the network with the conductors in `faults` open-circuited,
    /// optionally warm-starting from a previous solution's
    /// [`FaultedSolution::voltages`].
    ///
    /// The dead pads and TSVs are removed at stamping time — the surviving
    /// network is re-assembled, checked for floating subgrids, and solved
    /// through the [`vstack_sparse::solve_robust`] escalation ladder. The
    /// result carries per-pad and per-TSV-bundle identity so a wearout
    /// loop can pick its next victims deterministically.
    ///
    /// # Errors
    ///
    /// [`PdnError::Disconnected`] once the injected faults isolate part of
    /// the grid from every board rail; [`PdnError::Solve`] if the
    /// escalation ladder is exhausted.
    ///
    /// # Panics
    ///
    /// Panics if `loads` does not match this PDN's layer/core counts.
    pub fn solve_faulted(
        &self,
        loads: &StackLoads,
        faults: &FaultSet,
        guess: Option<&[f64]>,
    ) -> Result<FaultedSolution, PdnError> {
        self.solve_faulted_scratch(loads, faults, guess, &mut SolveScratch::new())
    }

    /// [`RegularPdn::solve_faulted`] with reusable cross-solve state.
    ///
    /// Wearout loops and load sweeps re-solve the same topology hundreds
    /// of times; passing one [`SolveScratch`] lets every solve after the
    /// first re-stamp values onto the cached sparsity pattern and recycle
    /// the solver's working vectors. Results are bit-identical to
    /// [`RegularPdn::solve_faulted`].
    ///
    /// # Errors
    ///
    /// As for [`RegularPdn::solve_faulted`].
    ///
    /// # Panics
    ///
    /// Panics if `loads` does not match this PDN's layer/core counts.
    pub fn solve_faulted_scratch(
        &self,
        loads: &StackLoads,
        faults: &FaultSet,
        guess: Option<&[f64]>,
        scratch: &mut SolveScratch,
    ) -> Result<FaultedSolution, PdnError> {
        let asm = self.assemble(loads, faults);
        let (v, report) = asm.nb.solve_scratch(guess, scratch)?;
        Ok(self.extract(
            loads,
            v,
            &asm.vdd_pads,
            &asm.gnd_pads,
            asm.g_pad,
            faults,
            report,
        ))
    }

    /// [`RegularPdn::solve_faulted_scratch`] accelerated by the rank-k
    /// fault sketch ([`crate::sketch::FaultSketch`]).
    ///
    /// The first call (or the first after a parameter change — the sketch
    /// is value-fingerprinted) pays one tightly-converged baseline solve;
    /// subsequent queries whose faults extend the baseline by at most
    /// [`crate::sketch::SKETCH_BUDGET`] rank-one removals are answered
    /// through the Sherman–Morrison–Woodbury identity in microseconds.
    /// Near-singular updates (structural disconnection), over-tolerance
    /// residuals, and over-budget fault sets fall back to the exact
    /// [`RegularPdn::solve_faulted_scratch`] path, so results are always
    /// within the sketch tolerance (`1e-9` relative residual) of exact.
    ///
    /// # Errors
    ///
    /// As for [`RegularPdn::solve_faulted`].
    ///
    /// # Panics
    ///
    /// Panics if `loads` does not match this PDN's layer/core counts.
    pub fn solve_faulted_sketched(
        &self,
        loads: &StackLoads,
        faults: &FaultSet,
        scratch: &mut SolveScratch,
    ) -> Result<FaultedSolution, PdnError> {
        let fp = self.sketch_fingerprint(loads);
        let mut sketch = scratch.take_sketch().filter(|s| s.fingerprint() == fp);
        let g_pad = 1.0 / (self.params.c4_resistance_ohm + self.params.package_r_per_pad_ohm);
        let answered = crate::sketch::answer_with_sketch(
            faults,
            &mut sketch,
            scratch,
            |base, scr| self.build_sketch(loads, base.clone(), scr),
            |sk, v, report| {
                let (vdd_pads, gnd_pads) = sk.alive_pads(faults);
                self.extract(loads, v, &vdd_pads, &gnd_pads, g_pad, faults, report)
            },
        );
        let result = match answered {
            Ok(Some(sol)) => Ok(sol),
            Ok(None) => {
                vstack_obs::metrics::global().fault_sketch_fallbacks.inc();
                let guess = sketch.as_ref().map(|s| s.baseline_voltages());
                self.solve_faulted_scratch(loads, faults, guess.as_deref(), scratch)
            }
            Err(e) => Err(e),
        };
        if let Some(s) = sketch {
            scratch.put_sketch(s);
        }
        result
    }

    /// FNV-1a fingerprint of every value that shapes the stamped baseline
    /// system: topology dimensions, conductances, supply voltage, and the
    /// per-core load currents. Two calls with matching fingerprints stamp
    /// bit-identical `(A₀, b₀)` at any given fault set.
    fn sketch_fingerprint(&self, loads: &StackLoads) -> u64 {
        use crate::params::LoadDistribution;
        let mut h = crate::sketch::FingerprintHasher::new();
        h.usize(1); // topology kind: regular
        h.usize(self.n_layers);
        h.usize(self.grid.nx);
        h.usize(self.grid.ny);
        h.usize(self.topology.vdd_tsvs_per_core());
        h.usize(self.c4.vdd_count());
        h.usize(self.c4.gnd_count());
        h.f64(self.params.vdd);
        h.f64(self.params.c4_resistance_ohm);
        h.f64(self.params.package_r_per_pad_ohm);
        h.f64(self.params.tsv_resistance_ohm);
        h.f64(self.params.grid_segment_resistance_ohm());
        for layer in 0..self.n_layers {
            h.f64(self.params.layer_resistance_scale(layer));
        }
        h.usize(match self.params.load_distribution {
            LoadDistribution::Uniform => 0,
            LoadDistribution::PerBlock => 1,
        });
        for layer in 0..loads.n_layers() {
            for core in 0..loads.cores_per_layer() {
                h.f64(loads.core_current(layer, core));
            }
        }
        h.finish()
    }

    /// Builds a fault sketch with `base` as its baseline fault set:
    /// assembles and solves the baseline tightly, then registers every
    /// surviving pad rail and TSV bundle as a candidate fault column.
    fn build_sketch(
        &self,
        loads: &StackLoads,
        base: FaultSet,
        scratch: &mut SolveScratch,
    ) -> Result<crate::sketch::FaultSketch, PdnError> {
        let asm = self.assemble(loads, &base);
        let mut sk = crate::sketch::FaultSketch::build(
            self.sketch_fingerprint(loads),
            base.clone(),
            &asm.nb,
            asm.vdd_pads.clone(),
            asm.gnd_pads.clone(),
            (self.c4.vdd_count(), self.c4.gnd_count()),
            (self.n_layers.saturating_sub(1), self.core_nodes.len()),
            scratch.cancel_token(),
        )?;
        for &(ord, node) in &asm.vdd_pads {
            sk.register_vdd_pad(ord, node, asm.g_pad, -asm.g_pad * self.params.vdd);
        }
        for &(ord, node) in &asm.gnd_pads {
            sk.register_gnd_pad(ord, node, asm.g_pad);
        }
        let g_tsv = 1.0 / self.params.tsv_resistance_ohm;
        for layer in 0..self.n_layers.saturating_sub(1) {
            for (core, nodes) in self.core_nodes.iter().enumerate() {
                if self.alive_vdd_tsvs(&base, layer, core) == 0.0 {
                    continue; // dead at base: extra faults are no-ops
                }
                let mut edges = Vec::with_capacity(2 * nodes.len());
                for net in 0..2 {
                    for &n in nodes {
                        edges.push((self.node(layer, net, n), self.node(layer + 1, net, n)));
                    }
                }
                sk.register_tsv_bundle(
                    layer,
                    core,
                    &edges,
                    g_tsv / nodes.len() as f64,
                    self.topology.vdd_tsvs_per_core(),
                );
            }
        }
        Ok(sk)
    }

    /// Warm-started fault-free solve: the entry point serving layers
    /// (sweep schedulers, the `vstack-engine` query cache) use for
    /// repeated healthy-topology solves.
    ///
    /// Equivalent to [`RegularPdn::solve_faulted_scratch`] with an empty
    /// [`FaultSet`]: `guess` seeds the Krylov iteration (a converged guess
    /// returns unchanged, bit-identical, in zero iterations) and `scratch`
    /// recycles the symbolic CSR pattern and working vectors across calls.
    ///
    /// # Errors
    ///
    /// As for [`RegularPdn::solve_faulted`].
    ///
    /// # Panics
    ///
    /// Panics if `loads` does not match this PDN's layer/core counts.
    pub fn solve_warm(
        &self,
        loads: &StackLoads,
        guess: Option<&[f64]>,
        scratch: &mut SolveScratch,
    ) -> Result<FaultedSolution, PdnError> {
        self.solve_faulted_scratch(loads, &FaultSet::new(), guess, scratch)
    }

    /// Surviving supply-net TSVs of the `(interface, core)` bundle.
    fn alive_vdd_tsvs(&self, faults: &FaultSet, interface: usize, core: usize) -> f64 {
        self.topology
            .vdd_tsvs_per_core()
            .saturating_sub(faults.failed_tsv_count(interface, core)) as f64
    }

    /// Assembles the full SPD network for one load scenario, skipping the
    /// conductors open-circuited by `faults`.
    fn assemble(&self, loads: &StackLoads, faults: &FaultSet) -> AssembledReg {
        assert_eq!(loads.n_layers(), self.n_layers, "layer count mismatch");
        assert_eq!(
            loads.cores_per_layer(),
            self.floorplan.core_count(),
            "core count mismatch"
        );
        let g_count = self.grid.count();
        let n_unknowns = 2 * self.n_layers * g_count;
        let mut nb = NetworkBuilder::new(n_unknowns);
        let seg_r = self.params.grid_segment_resistance_ohm();

        // On-chip grids for every net on every layer, with any per-layer
        // resistance drift (thermal resistivity / EM) applied. Scaling
        // values only — the sparsity pattern is layer-independent, so
        // SolveScratch re-stamps stay valid across drift updates.
        for layer in 0..self.n_layers {
            let layer_r = seg_r * self.params.layer_resistance_scale(layer);
            for net in 0..2 {
                nb.grid_laplacian(&self.grid, self.node(layer, net, 0), layer_r);
            }
        }

        // C4 pads feed the bottom layer through pad + package resistance.
        // Failed pads are simply not stamped: an open circuit contributes
        // nothing to the nodal system.
        let g_pad = 1.0 / (self.params.c4_resistance_ohm + self.params.package_r_per_pad_ohm);
        let mut vdd_pads = Vec::new();
        let mut gnd_pads = Vec::new();
        let (mut vdd_ord, mut gnd_ord) = (0usize, 0usize);
        for pad in self.c4.pads() {
            let (i, j) = self.grid.nearest(pad.x_mm, pad.y_mm);
            let n = self.grid.index(i, j);
            match pad.net {
                PadNet::Vdd => {
                    if !faults.vdd_pad_failed(vdd_ord) {
                        let node = self.node(0, 0, n);
                        nb.conductance_to_rail(node, g_pad, self.params.vdd);
                        vdd_pads.push((vdd_ord, node));
                    }
                    vdd_ord += 1;
                }
                PadNet::Gnd => {
                    if !faults.gnd_pad_failed(gnd_ord) {
                        let node = self.node(0, 1, n);
                        nb.conductance_to_rail(node, g_pad, 0.0);
                        gnd_pads.push((gnd_ord, node));
                    }
                    gnd_ord += 1;
                }
                PadNet::Io => {}
            }
        }

        // TSVs between adjacent layers: per-core counts lumped onto the
        // core's grid nodes, half on each net. Fault counts shrink the
        // surviving bundle (symmetrically on both nets); a fully failed
        // bundle stamps nothing.
        let g_tsv = 1.0 / self.params.tsv_resistance_ohm;
        for layer in 0..self.n_layers.saturating_sub(1) {
            for (core, nodes) in self.core_nodes.iter().enumerate() {
                let alive = self.alive_vdd_tsvs(faults, layer, core);
                if alive == 0.0 {
                    continue;
                }
                let per_node = alive / nodes.len() as f64;
                for &n in nodes {
                    for net in 0..2 {
                        let lo = self.node(layer, net, n);
                        let hi = self.node(layer + 1, net, n);
                        nb.conductance(lo, hi, per_node * g_tsv);
                    }
                }
            }
        }

        // Loads: ideal current sources between each layer's local Vdd and
        // Gnd nodes, spread uniformly over the core's grid nodes.
        for layer in 0..self.n_layers {
            for (core, nodes) in self.core_nodes.iter().enumerate() {
                let i_core = loads.core_current(layer, core);
                for (k, &n) in nodes.iter().enumerate() {
                    let i_node = i_core * self.core_weights[core][k];
                    nb.current(self.node(layer, 0, n), -i_node);
                    nb.current(self.node(layer, 1, n), i_node);
                }
            }
        }

        AssembledReg {
            nb,
            vdd_pads,
            gnd_pads,
            g_pad,
        }
    }

    /// Extracts the solution metrics from a solved voltage vector. The
    /// pad lists must be the pads *alive under `faults`* — the exact path
    /// passes the assembly's lists, the sketch path filters its baseline
    /// lists down ([`crate::sketch::FaultSketch::alive_pads`]).
    #[allow(clippy::too_many_arguments)]
    fn extract(
        &self,
        loads: &StackLoads,
        v: Vec<f64>,
        vdd_pads: &[(usize, usize)],
        gnd_pads: &[(usize, usize)],
        g_pad: f64,
        faults: &FaultSet,
        report: SolveReport,
    ) -> FaultedSolution {
        let g_tsv = 1.0 / self.params.tsv_resistance_ohm;

        // --- Metrics ---
        let vdd_nom = self.params.vdd;
        let mut max_drop = f64::MIN;
        let mut worst_layer = 0;
        let mut per_layer_max_drop = vec![f64::MIN; self.n_layers];
        let mut drop_sum = 0.0;
        let mut drop_count = 0usize;
        let mut p_loads = 0.0;
        for layer in 0..self.n_layers {
            for (core, nodes) in self.core_nodes.iter().enumerate() {
                let i_core = loads.core_current(layer, core);
                for (k, &n) in nodes.iter().enumerate() {
                    let i_node = i_core * self.core_weights[core][k];
                    let local = v[self.node(layer, 0, n)] - v[self.node(layer, 1, n)];
                    let drop = (vdd_nom - local) / vdd_nom;
                    if drop > max_drop {
                        max_drop = drop;
                        worst_layer = layer;
                    }
                    if drop > per_layer_max_drop[layer] {
                        per_layer_max_drop[layer] = drop;
                    }
                    drop_sum += drop;
                    drop_count += 1;
                    p_loads += i_node * local;
                }
            }
        }

        let mut vdd_c4 = ConductorCurrents::new();
        let mut vdd_pad_currents = Vec::with_capacity(vdd_pads.len());
        let mut p_input = 0.0;
        for &(ord, node) in vdd_pads {
            let i = g_pad * (vdd_nom - v[node]);
            vdd_c4.push(i, 1.0);
            vdd_pad_currents.push((ord, i));
            p_input += i * vdd_nom;
        }
        let mut gnd_c4 = ConductorCurrents::new();
        let mut gnd_pad_currents = Vec::with_capacity(gnd_pads.len());
        for &(ord, node) in gnd_pads {
            let i = g_pad * v[node];
            gnd_c4.push(i, 1.0);
            gnd_pad_currents.push((ord, i));
        }

        // TSV EM currents: per (interface, core, net) totals distributed
        // by the crowding model (grid-refinement independent). Fully
        // failed bundles carry nothing and are omitted.
        let mut tsv = ConductorCurrents::new();
        let mut tsv_groups = Vec::new();
        for layer in 0..self.n_layers.saturating_sub(1) {
            for (core, nodes) in self.core_nodes.iter().enumerate() {
                let alive = self.alive_vdd_tsvs(faults, layer, core);
                if alive == 0.0 {
                    continue;
                }
                let per_node = alive / nodes.len() as f64;
                let mut worst_per_tsv = 0.0f64;
                for net in 0..2 {
                    let mut i_core = 0.0;
                    for &gn in nodes {
                        let lo = self.node(layer, net, gn);
                        let hi = self.node(layer + 1, net, gn);
                        i_core += (v[lo] - v[hi]).abs() * per_node * g_tsv;
                    }
                    tsv.push_crowded(
                        i_core,
                        alive,
                        self.params.tsv_hot_conductors_per_core,
                        self.params.tsv_crowding_spread,
                    );
                    worst_per_tsv = worst_per_tsv.max(i_core / alive);
                }
                tsv_groups.push(TsvGroupCurrent {
                    interface: layer,
                    core,
                    current_per_tsv_a: worst_per_tsv,
                    alive,
                });
            }
        }

        FaultedSolution {
            solution: PdnSolution {
                max_ir_drop_frac: max_drop,
                mean_ir_drop_frac: drop_sum / drop_count as f64,
                worst_layer,
                per_layer_max_drop,
                vdd_c4,
                gnd_c4,
                tsv,
                converter_currents: Vec::new(),
                overloaded_converters: 0,
                p_loads_w: p_loads,
                p_input_w: p_input,
                p_parasitic_w: 0.0,
            },
            report,
            voltages: v,
            vdd_pad_currents,
            gnd_pad_currents,
            tsv_groups,
        }
    }

    /// Backward-Euler step response of the regular PDN: DC under `before`,
    /// loads switch to `after` at `t = 0`, per-layer decap carries the
    /// transient. See [`crate::transient`].
    ///
    /// # Errors
    ///
    /// Propagates [`SolveError`] from the DC or per-step ladder solves.
    ///
    /// # Panics
    ///
    /// Panics if either load set does not match this PDN's layer/core
    /// counts, or the config is invalid.
    pub fn solve_transient_step(
        &self,
        before: &StackLoads,
        after: &StackLoads,
        config: &crate::transient::PdnTransientConfig,
    ) -> Result<crate::transient::StepResponse, SolveError> {
        use vstack_sparse::{solve_robust, RobustOptions, SolveWorkspace};

        let steps = config.steps();
        assert!(
            config.decap_per_core_f.is_finite() && config.decap_per_core_f > 0.0,
            "decap must be positive"
        );
        let no_faults = FaultSet::new();
        let v0 = self.assemble(before, &no_faults).nb.solve(None)?;

        let mut asm = self.assemble(after, &no_faults);
        let mut decap_pairs: Vec<(usize, usize, f64)> = Vec::new();
        for layer in 0..self.n_layers {
            for nodes in &self.core_nodes {
                let c_node = config.decap_per_core_f / nodes.len() as f64;
                for &gn in nodes {
                    let a = self.node(layer, 0, gn);
                    let b = self.node(layer, 1, gn);
                    asm.nb.conductance(a, b, c_node / config.dt_s);
                    decap_pairs.push((a, b, c_node));
                }
            }
        }
        let a_t = asm.nb.to_matrix();
        let rhs_base = asm.nb.rhs().to_vec();

        let opts = RobustOptions {
            tolerance: 1e-9,
            ..RobustOptions::default()
        };
        let mut v = v0.clone();
        let mut times_s = Vec::with_capacity(steps);
        let mut max_drop_series = Vec::with_capacity(steps);
        let mut rhs = vec![0.0; rhs_base.len()];
        // One workspace outside the time loop: every backward-Euler step
        // reuses the same Krylov vectors instead of reallocating them.
        let mut ws = SolveWorkspace::new();
        for step in 1..=steps {
            rhs.copy_from_slice(&rhs_base);
            for &(a, b, c) in &decap_pairs {
                let i_companion = (c / config.dt_s) * (v[a] - v[b]);
                rhs[a] += i_companion;
                rhs[b] -= i_companion;
            }
            v = solve_robust(&a_t, None, &rhs, Some(&v), &opts, &mut ws)?.x;
            times_s.push(step as f64 * config.dt_s);
            max_drop_series.push(self.max_drop_of(&v));
        }

        Ok(crate::transient::StepResponse {
            times_s,
            max_drop_series,
            initial_drop: self.max_drop_of(&v0),
        })
    }

    /// Worst load-node IR-drop fraction for a node-voltage vector.
    fn max_drop_of(&self, v: &[f64]) -> f64 {
        let vdd_nom = self.params.vdd;
        let mut max_drop = f64::MIN;
        for layer in 0..self.n_layers {
            for nodes in &self.core_nodes {
                for &gn in nodes {
                    let local = v[self.node(layer, 0, gn)] - v[self.node(layer, 1, gn)];
                    max_drop = max_drop.max((vdd_nom - local) / vdd_nom);
                }
            }
        }
        max_drop
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_params() -> PdnParams {
        // Coarser grid keeps unit tests fast.
        let mut p = PdnParams::paper_defaults();
        p.grid_refinement = 1;
        p
    }

    #[test]
    fn single_layer_ir_drop_is_reasonable() {
        let p = quick_params();
        let pdn = RegularPdn::new(&p, 1, TsvTopology::Sparse, 0.5);
        let sol = pdn.solve(&StackLoads::uniform_peak(&p, 1)).unwrap();
        assert!(
            sol.max_ir_drop_frac > 0.001 && sol.max_ir_drop_frac < 0.05,
            "got {}",
            sol.max_ir_drop_frac
        );
        assert!(sol.mean_ir_drop_frac <= sol.max_ir_drop_frac);
    }

    #[test]
    fn ir_drop_grows_with_layers() {
        let p = quick_params();
        let mut prev = 0.0;
        for n in [1, 2, 4] {
            let pdn = RegularPdn::new(&p, n, TsvTopology::Sparse, 0.5);
            let sol = pdn.solve(&StackLoads::uniform_peak(&p, n)).unwrap();
            assert!(
                sol.max_ir_drop_frac > prev,
                "{n} layers: {} ≤ {prev}",
                sol.max_ir_drop_frac
            );
            prev = sol.max_ir_drop_frac;
        }
    }

    #[test]
    fn worst_layer_is_the_top() {
        // The top layer is furthest from the pads.
        let p = quick_params();
        let pdn = RegularPdn::new(&p, 4, TsvTopology::Few, 0.5);
        let sol = pdn.solve(&StackLoads::uniform_peak(&p, 4)).unwrap();
        assert_eq!(sol.worst_layer, 3);
    }

    #[test]
    fn fewer_tsvs_mean_more_drop() {
        let p = quick_params();
        let dense = RegularPdn::new(&p, 4, TsvTopology::Dense, 0.5)
            .solve(&StackLoads::uniform_peak(&p, 4))
            .unwrap();
        let few = RegularPdn::new(&p, 4, TsvTopology::Few, 0.5)
            .solve(&StackLoads::uniform_peak(&p, 4))
            .unwrap();
        assert!(few.max_ir_drop_frac > dense.max_ir_drop_frac);
    }

    #[test]
    fn pad_currents_sum_to_total_load() {
        let p = quick_params();
        let loads = StackLoads::uniform_peak(&p, 2);
        let pdn = RegularPdn::new(&p, 2, TsvTopology::Sparse, 0.5);
        let sol = pdn.solve(&loads).unwrap();
        let pad_sum: f64 = sol
            .vdd_c4
            .groups()
            .iter()
            .map(|g| g.current_a * g.count)
            .sum();
        let total = loads.total_current();
        assert!(
            (pad_sum - total).abs() / total < 1e-3,
            "pads {pad_sum} vs loads {total}"
        );
    }

    #[test]
    fn tsv_current_rises_with_layer_count() {
        let p = quick_params();
        let two = RegularPdn::new(&p, 2, TsvTopology::Few, 0.5)
            .solve(&StackLoads::uniform_peak(&p, 2))
            .unwrap();
        let eight = RegularPdn::new(&p, 8, TsvTopology::Few, 0.5)
            .solve(&StackLoads::uniform_peak(&p, 8))
            .unwrap();
        assert!(eight.tsv.max_current() > 3.0 * two.tsv.max_current());
    }

    #[test]
    fn more_power_pads_reduce_drop() {
        let p = quick_params();
        let lo = RegularPdn::new(&p, 2, TsvTopology::Sparse, 0.25)
            .solve(&StackLoads::uniform_peak(&p, 2))
            .unwrap();
        let hi = RegularPdn::new(&p, 2, TsvTopology::Sparse, 1.0)
            .solve(&StackLoads::uniform_peak(&p, 2))
            .unwrap();
        assert!(hi.max_ir_drop_frac < lo.max_ir_drop_frac);
    }

    #[test]
    fn transient_step_tracks_activity_jump() {
        let p = quick_params();
        let pdn = RegularPdn::new(&p, 2, TsvTopology::Sparse, 0.5);
        let before = StackLoads::from_activities(&p, &[0.3, 0.3]);
        let after = StackLoads::from_activities(&p, &[1.0, 1.0]);
        let cfg = crate::transient::PdnTransientConfig::default();
        let resp = pdn.solve_transient_step(&before, &after, &cfg).unwrap();
        let dc_after = pdn.solve(&after).unwrap().max_ir_drop_frac;
        assert!(resp.initial_drop < dc_after);
        assert!((resp.final_drop() - dc_after).abs() < 0.1 * dc_after);
        assert!(resp.settling_time(0.001).is_some());
    }

    #[test]
    fn per_block_distribution_concentrates_drop() {
        use crate::params::LoadDistribution;
        let mut uniform = quick_params();
        uniform.load_distribution = LoadDistribution::Uniform;
        let mut per_block = quick_params();
        per_block.load_distribution = LoadDistribution::PerBlock;
        let loads_u = StackLoads::uniform_peak(&uniform, 2);
        let sol_u = RegularPdn::new(&uniform, 2, TsvTopology::Sparse, 0.5)
            .solve(&loads_u)
            .unwrap();
        let sol_b = RegularPdn::new(&per_block, 2, TsvTopology::Sparse, 0.5)
            .solve(&loads_u)
            .unwrap();
        // Same total current either way…
        let total = |s: &crate::solution::PdnSolution| -> f64 {
            s.vdd_c4
                .groups()
                .iter()
                .map(|g| g.current_a * g.count)
                .sum()
        };
        assert!((total(&sol_u) - total(&sol_b)).abs() / total(&sol_u) < 1e-3);
        // …and the distributions are genuinely different while describing
        // the same physical design (worst node moves, not explodes).
        assert_ne!(sol_b.max_ir_drop_frac, sol_u.max_ir_drop_frac);
        let ratio = sol_b.max_ir_drop_frac / sol_u.max_ir_drop_frac;
        assert!((0.6..1.7).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn killed_pad_shifts_current_to_survivors() {
        let p = quick_params();
        let pdn = RegularPdn::new(&p, 2, TsvTopology::Sparse, 0.5);
        let loads = StackLoads::uniform_peak(&p, 2);
        let healthy = pdn.solve_faulted(&loads, &FaultSet::new(), None).unwrap();
        // Kill the supply pad carrying the most current.
        let &(victim, _) = healthy
            .vdd_pad_currents
            .iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap();
        let mut faults = FaultSet::new();
        faults.fail_vdd_pad(victim);
        let wounded = pdn
            .solve_faulted(&loads, &faults, Some(&healthy.voltages))
            .unwrap();
        assert_eq!(
            wounded.vdd_pad_currents.len(),
            healthy.vdd_pad_currents.len() - 1
        );
        assert!(!wounded.vdd_pad_currents.iter().any(|&(o, _)| o == victim));
        // The load current is conserved: survivors pick up the slack.
        let sum = |c: &[(usize, f64)]| c.iter().map(|&(_, i)| i).sum::<f64>();
        let (i_h, i_w) = (
            sum(&healthy.vdd_pad_currents),
            sum(&wounded.vdd_pad_currents),
        );
        assert!((i_h - i_w).abs() / i_h < 1e-3, "{i_h} vs {i_w}");
        assert!(wounded.solution.max_ir_drop_frac >= healthy.solution.max_ir_drop_frac);
    }

    #[test]
    fn killing_every_vdd_pad_is_disconnected_not_a_panic() {
        let p = quick_params();
        let pdn = RegularPdn::new(&p, 1, TsvTopology::Sparse, 0.5);
        let loads = StackLoads::uniform_peak(&p, 1);
        let mut faults = FaultSet::new();
        for ord in 0..pdn.c4().vdd_count() {
            faults.fail_vdd_pad(ord);
        }
        let err = pdn.solve_faulted(&loads, &faults, None).unwrap_err();
        match err {
            crate::error::PdnError::Disconnected { floating_nodes, .. } => {
                // The whole supply net floats; the ground net stays tied.
                assert_eq!(floating_nodes, pdn.grid().count());
            }
            other => panic!("expected Disconnected, got {other:?}"),
        }
    }

    #[test]
    fn severed_interface_disconnects_upper_layers() {
        let p = quick_params();
        let pdn = RegularPdn::new(&p, 2, TsvTopology::Few, 0.5);
        let loads = StackLoads::uniform_peak(&p, 2);
        let mut faults = FaultSet::new();
        for core in 0..p.floorplan().core_count() {
            faults.fail_tsvs(0, core, TsvTopology::Few.vdd_tsvs_per_core());
        }
        let err = pdn.solve_faulted(&loads, &faults, None).unwrap_err();
        match err {
            crate::error::PdnError::Disconnected { floating_nodes, .. } => {
                // Layer 1's supply and ground nets both float.
                assert_eq!(floating_nodes, 2 * pdn.grid().count());
            }
            other => panic!("expected Disconnected, got {other:?}"),
        }
    }

    #[test]
    fn tsv_fault_shrinks_the_bundle_and_raises_stress() {
        let p = quick_params();
        let pdn = RegularPdn::new(&p, 2, TsvTopology::Few, 0.5);
        let loads = StackLoads::uniform_peak(&p, 2);
        let healthy = pdn.solve_faulted(&loads, &FaultSet::new(), None).unwrap();
        let mut faults = FaultSet::new();
        // Kill 80% of interface 0 / core 0's TSVs.
        let n_kill = TsvTopology::Few.vdd_tsvs_per_core() * 4 / 5;
        faults.fail_tsvs(0, 0, n_kill);
        let wounded = pdn.solve_faulted(&loads, &faults, None).unwrap();
        let group = |f: &FaultedSolution| {
            *f.tsv_groups
                .iter()
                .find(|g| g.interface == 0 && g.core == 0)
                .unwrap()
        };
        let (gh, gw) = (group(&healthy), group(&wounded));
        assert_eq!(gw.alive, gh.alive - n_kill as f64);
        assert!(
            gw.current_per_tsv_a > gh.current_per_tsv_a,
            "survivors must run hotter: {} vs {}",
            gw.current_per_tsv_a,
            gh.current_per_tsv_a
        );
    }

    #[test]
    fn scratch_fault_sweep_is_bit_identical_to_fresh_solves() {
        // A wearout-style sweep through one SolveScratch must reproduce
        // the per-step fresh solves exactly: same voltages, same ladder.
        let p = quick_params();
        let pdn = RegularPdn::new(&p, 2, TsvTopology::Few, 0.5);
        let loads = StackLoads::uniform_peak(&p, 2);
        let mut scratch = SolveScratch::new();
        let mut faults = FaultSet::new();
        let mut warm: Option<Vec<f64>> = None;
        for step in 0..3 {
            if step > 0 {
                faults.fail_vdd_pad(step - 1);
                faults.fail_tsvs(0, 0, step);
            }
            let fresh = pdn.solve_faulted(&loads, &faults, warm.as_deref()).unwrap();
            let reused = pdn
                .solve_faulted_scratch(&loads, &faults, warm.as_deref(), &mut scratch)
                .unwrap();
            assert_eq!(fresh.voltages, reused.voltages, "step {step}");
            assert_eq!(fresh.report.trail(), reused.report.trail());
            warm = Some(fresh.voltages);
        }
    }

    #[test]
    fn empty_fault_set_matches_plain_solve() {
        let p = quick_params();
        let pdn = RegularPdn::new(&p, 2, TsvTopology::Sparse, 0.5);
        let loads = StackLoads::uniform_peak(&p, 2);
        let plain = pdn.solve(&loads).unwrap();
        let faulted = pdn.solve_faulted(&loads, &FaultSet::new(), None).unwrap();
        assert!((plain.max_ir_drop_frac - faulted.solution.max_ir_drop_frac).abs() < 1e-12);
        assert!(!faulted.report.was_rescued());
        assert_eq!(faulted.voltages.len(), 2 * 2 * pdn.grid().count());
    }

    #[test]
    fn input_power_exceeds_load_power() {
        let p = quick_params();
        let pdn = RegularPdn::new(&p, 2, TsvTopology::Sparse, 0.5);
        let sol = pdn.solve(&StackLoads::uniform_peak(&p, 2)).unwrap();
        assert!(sol.p_input_w > sol.p_loads_w);
        assert!(
            sol.efficiency() > 0.9,
            "wire losses only: {}",
            sol.efficiency()
        );
    }
}
