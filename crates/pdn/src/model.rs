//! The 3D PDN model both topologies share (paper §3.2), and every solve
//! driver over it.
//!
//! A [`Pdn`] is one VoltSpot-style network: a supply and a return grid on
//! every layer, the C4 array, per-core TSV bundles between adjacent
//! layers, and per-core load current sources. Its only topology switch is
//! an optional [`Stacking`] spec:
//!
//! * without one it is the **regular** PDN of paper Fig 4a
//!   ([`crate::regular`]): layers wired in parallel, every layer's current
//!   through the bottom layer's pads;
//! * with one it is the **voltage-stacked** PDN of Fig 4b
//!   ([`crate::vstacked`]): layers wired in series, `N·Vdd` fed to the top
//!   layer through through-via stacks, and SC converter cells regulating
//!   every intermediate rail.
//!
//! The topology decides only what `stamp` puts in the [`NetworkBuilder`]
//! (where the pads land, which nets a TSV joins, whether converter cells
//! are stamped) and what `extract` reads back (through-via-stack and
//! converter currents); that choice is made once, at construction, as a
//! `Wiring`. Each driver below is written once for both topologies.

use vstack_power::floorplan::Floorplan;
use vstack_sc::ControlPolicy;
use vstack_sparse::vecops::norm2;
use vstack_sparse::{SolveError, SolveMethod, SolveReport};

use crate::c4::{C4Array, PadNet};
use crate::error::PdnError;
use crate::fault::{FaultSet, FaultedSolution, TsvGroupCurrent};
use crate::network::{core_load_weights, core_node_map, GridSpec, NetworkBuilder, SolveScratch};
use crate::params::PdnParams;
use crate::sketch::PadList;
use crate::solution::{ConductorCurrents, PdnSolution};
use crate::stack::StackLoads;
use crate::tsv::TsvTopology;
use crate::vstacked::Stacking;

/// How a topology wires its layers together and to the board: the only
/// per-topology input to stamping and extraction. Built by
/// `Wiring::regular` ([`crate::regular`]) or `Wiring::stacked`
/// ([`crate::vstacked`]).
///
/// Unknowns are numbered `(layer · 2 + net) · nodes_per_grid + node`; which
/// of a layer's two nets is its supply is part of the wiring.
#[derive(Debug, Clone)]
pub(crate) struct Wiring {
    /// The net (0 or 1) of every layer that is its supply; the other net
    /// is its return.
    pub(crate) supply_net: usize,
    /// The layer whose supply net the Vdd pads feed.
    pub(crate) vdd_pad_layer: usize,
    /// Conductance from one Vdd pad's grid node to the board supply rail.
    pub(crate) g_vdd_pad: f64,
    /// The board supply rail, volts.
    pub(crate) v_supply: f64,
    /// Conductance from one Gnd pad (on the bottom layer's return net) to
    /// the board's 0 V rail.
    pub(crate) g_gnd_pad: f64,
    /// The edges of one TSV bundle at every core node, as `(net on layer
    /// l, net on layer l + 1)` pairs, in stamping order.
    pub(crate) tsv_nets: &'static [(usize, usize)],
    /// Physical TSVs in one `(interface, core)` bundle; fault counts clamp
    /// here.
    pub(crate) bundle_tsvs: usize,
}

/// A converter cell: `(out, top, bottom, alpha)` unknowns and ratio of the
/// stamp [`NetworkBuilder::converter_with_ratio`] places.
pub(crate) type Cell = (usize, usize, usize, f64);

/// Per-cell converter conductances and switching frequencies, parallel to
/// the PDN's converter cells (both empty without stacking).
#[derive(Debug, Clone, Default)]
pub(crate) struct CellState {
    /// Effective conductance `1/R_SERIES(f)` of each cell.
    pub(crate) g: Vec<f64>,
    /// Switching frequency of each cell, hertz.
    pub(crate) f: Vec<f64>,
}

/// Output of the stamping phase: the network plus extraction handles.
/// Pads carry their ordinal among power pads of the same net so fault
/// injection and extraction agree on identity across solves.
pub(crate) struct Stamped {
    pub(crate) nb: NetworkBuilder,
    vdd_pads: Vec<(usize, usize)>,
    gnd_pads: Vec<(usize, usize)>,
}

/// A regular or voltage-stacked 3D PDN ready to solve against load
/// scenarios.
#[derive(Debug, Clone)]
pub struct Pdn {
    params: PdnParams,
    n_layers: usize,
    topology: TsvTopology,
    c4: C4Array,
    stacking: Option<Stacking>,
    wiring: Wiring,
    cells: Vec<Cell>,
    grid: GridSpec,
    floorplan: Floorplan,
    core_nodes: Vec<Vec<usize>>,
    core_weights: Vec<Vec<f64>>,
}

impl Pdn {
    /// Builds an `n_layers` PDN with the given TSV topology and C4
    /// power-pad fraction: the regular topology without `stacking`, the
    /// voltage-stacked one with it (the paper evaluates V-S at 25% power
    /// C4 and sweeps 2/4/6/8 converters per core).
    ///
    /// # Panics
    ///
    /// Panics if `n_layers == 0`, or if a stacked PDN has fewer than two
    /// layers or no converter per core (C4-array panics propagate for
    /// invalid `power_c4_fraction`).
    pub fn new(
        params: &PdnParams,
        n_layers: usize,
        topology: TsvTopology,
        power_c4_fraction: f64,
        stacking: Option<Stacking>,
    ) -> Self {
        assert!(n_layers >= 1, "need at least one layer");
        if let Some(st) = &stacking {
            assert!(n_layers >= 2, "voltage stacking needs at least two layers");
            assert!(
                st.converters_per_core >= 1,
                "need at least one converter per core"
            );
        }
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
        let wiring = match stacking {
            None => Wiring::regular(params, topology),
            Some(_) => Wiring::stacked(params, n_layers, topology),
        };
        let mut pdn = Pdn {
            params: params.clone(),
            n_layers,
            topology,
            c4,
            stacking,
            wiring,
            cells: Vec::new(),
            grid,
            floorplan,
            core_nodes,
            core_weights,
        };
        if let Some(st) = stacking {
            pdn.cells = pdn.converter_cells(st.converters_per_core);
        }
        pdn
    }

    /// Number of stacked layers.
    pub fn n_layers(&self) -> usize {
        self.n_layers
    }

    /// The TSV topology in use.
    pub fn topology(&self) -> TsvTopology {
        self.topology
    }

    /// The stacking spec: `Some` for the voltage-stacked topology.
    pub fn stacking(&self) -> Option<&Stacking> {
        self.stacking.as_ref()
    }

    /// Power TSVs in one `(interface, core)` bundle: the supply-net half of
    /// the topology's per-core count in the regular PDN (each return-net
    /// TSV mirrors a supply one), all of it in the V-S PDN. Failing this
    /// many opens the whole bundle.
    pub fn tsvs_per_bundle(&self) -> usize {
        self.wiring.bundle_tsvs
    }

    /// The C4 array (placement + allocation).
    pub fn c4(&self) -> &C4Array {
        &self.c4
    }

    /// The electrical modeling grid.
    pub fn grid(&self) -> &GridSpec {
        &self.grid
    }

    /// Flat unknown index of grid node `n` on net `net` of `layer`.
    fn node(&self, layer: usize, net: usize, n: usize) -> usize {
        (layer * 2 + net) * self.grid.count() + n
    }

    /// The first unknowns of `layer`'s supply and return grids.
    fn layer_nets(&self, layer: usize) -> (usize, usize) {
        let supply = self.wiring.supply_net;
        (self.node(layer, supply, 0), self.node(layer, 1 - supply, 0))
    }

    /// The converter cells of a stack with `per_core` cells per core on
    /// every intermediate rail, ordered by rail, then core, then replica.
    ///
    /// The paper's scalable multi-output ladder SC (§2.1, Fig 1) rotates
    /// its fly capacitors through the whole stack, so each output rail is
    /// regulated against the stiff stack boundaries: the cell at rail `r`
    /// drives its node toward `α = r/N` of the span between the top
    /// layer's supply net and the bottom layer's return net. Independent
    /// 2:1 cells that sense only their neighbouring rails would chain
    /// midpoint references and let converter drops accumulate
    /// quadratically across the stack (a discrete Poisson "voltage bowl"),
    /// which contradicts the paper's Fig 6 magnitudes.
    fn converter_cells(&self, per_core: usize) -> Vec<Cell> {
        let n = self.n_layers;
        let (supply, ret) = (self.wiring.supply_net, 1 - self.wiring.supply_net);
        let mut cells = Vec::new();
        for rail in 1..n {
            for core in 0..self.floorplan.core_count() {
                for (x, y) in self.floorplan.uniform_positions_in_core(core, per_core) {
                    let (i, j) = self.grid.nearest(x, y);
                    let gn = self.grid.index(i, j);
                    cells.push((
                        self.node(rail, ret, gn),
                        self.node(n - 1, supply, gn),
                        self.node(0, ret, gn),
                        rail as f64 / n as f64,
                    ));
                }
            }
        }
        cells
    }

    /// Whether the converters modulate their own impedance, so the stamped
    /// matrix moves with the loads and the Picard iteration solves it.
    fn closed_loop(&self) -> bool {
        self.stacking
            .is_some_and(|st| matches!(st.converter.control, ControlPolicy::ClosedLoop { .. }))
    }

    /// Every converter cell at its nominal (open-loop) operating point.
    pub(crate) fn nominal_cells(&self) -> CellState {
        match &self.stacking {
            None => CellState::default(),
            Some(st) => {
                let c = &st.converter;
                CellState {
                    g: vec![1.0 / c.r_series(c.f_nom); self.cells.len()],
                    f: vec![c.f_nom; self.cells.len()],
                }
            }
        }
    }

    /// Solves the network for the given loads, honouring the converters'
    /// control policy.
    ///
    /// Open-loop converters present a fixed `R_SERIES`, so one SPD solve
    /// suffices. Closed-loop converters modulate their switching frequency
    /// — and therefore their output impedance — with their own load
    /// current, which couples the network nonlinearly; that case runs the
    /// damped Picard iteration of [`Pdn::solve_closed_loop`].
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
        self.solve_faulted_scratch(loads, &FaultSet::new(), None, &mut SolveScratch::new())
            .map(|f| f.solution)
            .map_err(PdnError::into_solve_error)
    }

    /// Solves the network with the conductors in `faults` open-circuited,
    /// optionally warm-starting from a previous solution's
    /// [`FaultedSolution::voltages`] (without one, every node starts at
    /// its net's nominal rail potential), with reusable cross-solve state.
    ///
    /// The dead pads and TSVs are removed at stamping time — the surviving
    /// network is re-assembled, checked for floating subgrids, and solved
    /// through the [`vstack_sparse::solve_robust`] escalation ladder. A
    /// failed V-S supply pad takes its whole through-via stack with it (the
    /// pad and its dedicated TSV column form one series path); interface
    /// TSV faults shrink the surviving `(interface, core)` bundle.
    /// Closed-loop converters run the damped Picard iteration with the
    /// faults applied at every inner solve. The result carries per-pad and
    /// per-TSV-bundle identity so a wearout loop can pick its next victims
    /// deterministically.
    ///
    /// With an empty fault set this is the healthy solve; a converged
    /// `guess` returns unchanged, bit-identical, in zero iterations.
    /// Wearout loops and sweeps re-solve
    /// the same topology hundreds of times; one [`SolveScratch`] lets every
    /// solve after the first re-stamp values onto the cached sparsity
    /// pattern and recycle the solver's working vectors (the Picard
    /// iterations share it too). Results are bit-identical to a solve on a
    /// fresh scratch.
    ///
    /// # Errors
    ///
    /// [`PdnError::Disconnected`] once the injected faults isolate part of
    /// the grid from every board rail; [`PdnError::Solve`] if the
    /// escalation ladder is exhausted or the Picard iteration does not
    /// settle.
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
        if self.closed_loop() {
            return Ok(self.solve_picard(loads, faults, guess, scratch)?.0);
        }
        self.solve_cells(loads, faults, &self.nominal_cells(), guess, scratch)
    }

    /// [`Pdn::solve_faulted_scratch`] accelerated by the rank-k fault
    /// sketch ([`crate::sketch::FaultSketch`]).
    ///
    /// The first call (or the first after a parameter change — the sketch
    /// is value-fingerprinted) pays one tightly-converged baseline solve;
    /// subsequent queries whose faults extend the baseline by at most
    /// [`crate::sketch::SKETCH_BUDGET`] rank-one removals are answered
    /// through the Sherman–Morrison–Woodbury identity in microseconds: a
    /// failed supply pad removes its rail (or through-via-stack)
    /// conductance, a failed TSV scales its bundle's edge columns.
    /// Near-singular updates (structural disconnection), over-tolerance
    /// residuals, and over-budget fault sets fall back to the exact path,
    /// warm-started from the sketch baseline, so results are always within
    /// the sketch tolerance (`1e-9` relative residual) of exact.
    /// Closed-loop stacks always take the exact Picard path (the matrix
    /// changes every fixed-point iteration, so no single baseline
    /// factorization applies) and count as sketch fallbacks.
    ///
    /// # Errors
    ///
    /// As for [`Pdn::solve_faulted_scratch`].
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
        if self.closed_loop() {
            vstack_obs::metrics::global().fault_sketch_fallbacks.inc();
            return self.solve_faulted_scratch(loads, faults, None, scratch);
        }
        let fp = self.sketch_fingerprint(loads);
        let mut sketch = scratch.take_sketch().filter(|s| s.fingerprint() == fp);
        let cells = self.nominal_cells();
        let answered = crate::sketch::answer_with_sketch(
            faults,
            &mut sketch,
            scratch,
            |base, scr| self.build_sketch(loads, base.clone(), &cells.g, scr),
            |sk, v, report| {
                let (vdd_pads, gnd_pads) = sk.alive_pads(faults);
                self.extract(loads, v, &vdd_pads, &gnd_pads, &cells, faults, report)
            },
        );
        let result = match answered {
            Ok(Some(sol)) => Ok(sol),
            Ok(None) => {
                vstack_obs::metrics::global().fault_sketch_fallbacks.inc();
                let guess = sketch.as_ref().map(|s| s.baseline_voltages());
                self.solve_cells(loads, faults, &cells, guess.as_deref(), scratch)
            }
            Err(e) => Err(e),
        };
        if let Some(s) = sketch {
            scratch.put_sketch(s);
        }
        result
    }

    /// FNV-1a fingerprint of every value that shapes the stamped baseline
    /// system: topology kind and dimensions, conductances, converter
    /// design, supply voltage, and the per-core load currents. Two calls
    /// with matching fingerprints stamp bit-identical `(A₀, b₀)` at any
    /// given fault set.
    fn sketch_fingerprint(&self, loads: &StackLoads) -> u64 {
        use crate::params::LoadDistribution;
        let mut h = crate::sketch::FingerprintHasher::new();
        h.usize(if self.stacking.is_some() { 2 } else { 1 }); // topology kind
        h.usize(self.n_layers);
        h.usize(self.grid.nx);
        h.usize(self.grid.ny);
        h.usize(self.wiring.bundle_tsvs);
        h.usize(self.c4.vdd_count());
        h.usize(self.c4.gnd_count());
        if let Some(st) = &self.stacking {
            h.usize(st.converters_per_core);
            h.f64(st.converter.f_nom);
            h.f64(st.converter.r_series(st.converter.f_nom));
        }
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

    /// Builds a fault sketch with `base` as its baseline fault set: stamps
    /// and solves the (open-loop) baseline tightly, then registers every
    /// surviving pad rail and TSV bundle as a candidate fault column.
    fn build_sketch(
        &self,
        loads: &StackLoads,
        base: FaultSet,
        cell_g: &[f64],
        scratch: &mut SolveScratch,
    ) -> Result<crate::sketch::FaultSketch, PdnError> {
        let stamped = self.stamp(loads, &base, cell_g);
        let interfaces = self.n_layers.saturating_sub(1);
        let mut sk = crate::sketch::FaultSketch::build(
            self.sketch_fingerprint(loads),
            base.clone(),
            &stamped.nb,
            stamped.vdd_pads.clone(),
            stamped.gnd_pads.clone(),
            (self.c4.vdd_count(), self.c4.gnd_count()),
            (interfaces, self.core_nodes.len()),
            scratch.cancel_token(),
        )?;
        let w = &self.wiring;
        for &(ord, node) in &stamped.vdd_pads {
            sk.register_vdd_pad(ord, node, w.g_vdd_pad, -w.g_vdd_pad * w.v_supply);
        }
        for &(ord, node) in &stamped.gnd_pads {
            sk.register_gnd_pad(ord, node, w.g_gnd_pad);
        }
        let g_tsv = 1.0 / self.params.tsv_resistance_ohm;
        for layer in 0..interfaces {
            for (core, nodes) in self.core_nodes.iter().enumerate() {
                if self.alive_tsvs(&base, layer, core) == 0.0 {
                    continue; // dead at base: extra faults are no-ops
                }
                let mut edges = Vec::with_capacity(w.tsv_nets.len() * nodes.len());
                for &(lo, hi) in w.tsv_nets {
                    for &gn in nodes {
                        edges.push((self.node(layer, lo, gn), self.node(layer + 1, hi, gn)));
                    }
                }
                sk.register_tsv_bundle(
                    layer,
                    core,
                    &edges,
                    g_tsv / nodes.len() as f64,
                    w.bundle_tsvs,
                );
            }
        }
        Ok(sk)
    }

    /// Fault-free solves of a load sweep sharing `scratch`, handing each
    /// point's index and solution to `each` in order. (`each` is a trait
    /// object so the sweep is compiled once, here, not in every caller.)
    ///
    /// Without closed-loop converters the stamped matrix `A` does not
    /// depend on the loads, and the right-hand side is affine in the
    /// per-core currents. So when a point's loads are
    /// `(1 − t)·first + t·last` (Figs 6 and 8:
    /// [`vstack_power::workload::ImbalancePattern`] is affine in the
    /// imbalance), its voltages are exactly `(1 − t)·v_first + t·v_last`.
    /// The first and last points are solved on the escalation ladder as
    /// [`Pdn::solve_faulted_scratch`] would solve them; every interior point
    /// reads `t` off its loads, forms that combination and keeps it only if
    /// its relative residual `‖b − A·v‖₂ / ‖b‖₂` meets the ladder's
    /// tolerance, solving the point on the ladder otherwise. `A` is the
    /// matrix the endpoint solves left in `scratch`; an interior point
    /// stamps only its own right-hand side `b`, bit for bit the one a full
    /// stamping would assemble. A superposed point's report says
    /// [`SolveMethod::Superposition`], zero iterations and the measured
    /// residual. Closed-loop converters (the matrix moves with the loads)
    /// and sweeps of fewer than three points solve every point in order.
    ///
    /// Only the two endpoint voltage vectors outlive a point.
    ///
    /// # Errors
    ///
    /// The first failing solve, as for [`Pdn::solve_faulted_scratch`].
    ///
    /// # Panics
    ///
    /// Panics if any of `loads` does not match this PDN's layer/core
    /// counts.
    pub fn solve_load_sweep(
        &self,
        loads: &[StackLoads],
        scratch: &mut SolveScratch,
        each: &mut dyn FnMut(usize, FaultedSolution),
    ) -> Result<(), PdnError> {
        let no_faults = FaultSet::new();
        let (first, last) = match loads {
            [first, _, .., last] if !self.closed_loop() => (first, last),
            _ => {
                for (i, point) in loads.iter().enumerate() {
                    each(
                        i,
                        self.solve_faulted_scratch(point, &no_faults, None, scratch)?,
                    );
                }
                return Ok(());
            }
        };
        let first_sol = self.solve_faulted_scratch(first, &no_faults, None, scratch)?;
        let v_first = first_sol.voltages.clone();
        each(0, first_sol);
        let last_sol = self.solve_faulted_scratch(last, &no_faults, None, scratch)?;
        let cells = self.nominal_cells();
        let (vdd_pads, gnd_pads) = self.alive_pads(&no_faults);
        let last_index = loads.len() - 1;
        for (i, point) in loads.iter().enumerate().take(last_index).skip(1) {
            let started = std::time::Instant::now();
            let t = segment_position(first, last, point);
            let v: Vec<f64> = v_first
                .iter()
                .zip(&last_sol.voltages)
                .map(|(a, b)| (1.0 - t) * a + t * b)
                .collect();
            let b = self.rhs(point, &vdd_pads);
            // Every point shares the endpoints' matrix, which the last
            // solve left in the scratch.
            let a = scratch.matrix().expect("the endpoint solves assembled A");
            let residual = a.residual_norm(&v, &b) / norm2(&b);
            let sol = if residual <= NetworkBuilder::TOLERANCE {
                let report = SolveReport {
                    method: SolveMethod::Superposition,
                    fallbacks: Vec::new(),
                    iterations: 0,
                    relative_residual: residual,
                    diagonal_shift: 0.0,
                    operator: "superposition",
                    precision: "f64",
                    setup_us: 0,
                    solve_us: started.elapsed().as_micros() as u64,
                };
                self.extract(point, v, &vdd_pads, &gnd_pads, &cells, &no_faults, report)
            } else {
                self.solve_faulted_scratch(point, &no_faults, None, scratch)?
            };
            each(i, sol);
        }
        each(last_index, last_sol);
        Ok(())
    }

    /// Solves a closed-loop-controlled stack by damped Picard iteration:
    /// each converter's switching frequency (hence `R_SERIES` and
    /// parasitic power) follows its own output current from the previous
    /// solve, until the per-converter conductances stabilize.
    ///
    /// Returns the converged solution together with the number of
    /// fixed-point iterations taken. Converges in a handful of iterations
    /// because `R_SSL(f)` is monotone in the load. A PDN without converters
    /// is its own fixed point: one solve, zero iterations.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError`] if an inner solve fails or the fixed point
    /// has not stabilized after 50 iterations.
    ///
    /// # Panics
    ///
    /// Panics if `loads` does not match this PDN's layer/core counts.
    pub fn solve_closed_loop(
        &self,
        loads: &StackLoads,
    ) -> Result<(PdnSolution, usize), SolveError> {
        self.solve_picard(loads, &FaultSet::new(), None, &mut SolveScratch::new())
            .map(|(f, it)| (f.solution, it))
            .map_err(PdnError::into_solve_error)
    }

    /// The Picard iteration of [`Pdn::solve_closed_loop`], with `faults`
    /// applied at every inner solve, each warm-started from the previous
    /// iterate (the first from `guess`).
    fn solve_picard(
        &self,
        loads: &StackLoads,
        faults: &FaultSet,
        guess: Option<&[f64]>,
        scratch: &mut SolveScratch,
    ) -> Result<(FaultedSolution, usize), PdnError> {
        let mut cells = self.nominal_cells();
        let mut last = self.solve_cells(loads, faults, &cells, guess, scratch)?;
        let Some(st) = &self.stacking else {
            return Ok((last, 0));
        };
        let conv = &st.converter;
        // The k cells within one core on one rail are phases of a single
        // interleaved converter sharing one controller clock, so frequency
        // feedback acts on the group-average current. (Per-cell feedback
        // would be degenerate: with R_SSL ∝ 1/f ∝ 1/i, any current split
        // between parallel cells is a fixed point.)
        //
        // Convergence is judged on the physical outputs (worst IR drop and
        // parasitic power): the internal per-cell current distribution has
        // a slow drift mode that the outputs are insensitive to.
        let group = st.converters_per_core;
        for iteration in 1..=50 {
            for (gidx, currents) in last.solution.converter_currents.chunks(group).enumerate() {
                let i_mean = currents.iter().map(|i| i.abs()).sum::<f64>() / currents.len() as f64;
                let f_new = conv.control.frequency(conv.f_nom, i_mean, conv.i_rated);
                for k in gidx * group..gidx * group + currents.len() {
                    // Damping keeps the alternation between light-load and
                    // heavy-load impedance from limit-cycling.
                    cells.f[k] = 0.5 * (cells.f[k] + f_new);
                    cells.g[k] = 1.0 / conv.r_series(cells.f[k]);
                }
            }
            let next = self.solve_cells(loads, faults, &cells, Some(&last.voltages), scratch)?;
            let drop_change =
                (next.solution.max_ir_drop_frac - last.solution.max_ir_drop_frac).abs();
            let par_change = (next.solution.p_parasitic_w - last.solution.p_parasitic_w).abs()
                / last.solution.p_parasitic_w.max(f64::MIN_POSITIVE);
            last = next;
            if drop_change < 1e-5 && par_change < 1e-3 {
                return Ok((last, iteration));
            }
        }
        Err(PdnError::Solve(SolveError::NotConverged {
            iterations: 50,
            residual: f64::NAN,
        }))
    }

    /// Backward-Euler step response: the PDN sits at the DC solution of
    /// `before`, the loads switch to `after` at `t = 0`, and per-layer
    /// decoupling capacitance (see
    /// [`crate::transient::PdnTransientConfig::decap_per_core_f`]) carries
    /// the charge while the rails re-settle through the pads, TSVs and (in
    /// a stack) the converters. See [`crate::transient`].
    ///
    /// Converters use their nominal (open-loop) impedance — frequency
    /// modulation is far slower than the decap RC, so the open-loop
    /// impedance is the correct small-time model even for closed-loop
    /// designs.
    ///
    /// The initial state is solved as any open-loop solve is, from the
    /// nominal rail voltages. Each step starts from the one before it and
    /// takes the ladder settings of every other PDN solve
    /// (`NetworkBuilder::ladder_options`); the steps share one
    /// workspace, so a system at or above
    /// [`NetworkBuilder::AMG_MIN_UNKNOWNS`] builds one AMG hierarchy for
    /// the constant `G + C/Δt`.
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
        use vstack_sparse::{solve_robust, CancelToken, SolveWorkspace};

        let steps = config.steps();
        assert!(
            config.decap_per_core_f.is_finite() && config.decap_per_core_f > 0.0,
            "decap must be positive"
        );
        let cells = self.nominal_cells();

        // Initial state: DC under the pre-step loads.
        let no_faults = FaultSet::new();
        let v0 = self
            .solve_cells(before, &no_faults, &cells, None, &mut SolveScratch::new())
            .map_err(PdnError::into_solve_error)?
            .voltages;

        // Post-step system plus the backward-Euler decap companion
        // conductances C/Δt between each layer's local supply/return pair.
        let mut stamped = self.stamp(after, &no_faults, &cells.g);
        let mut decap_pairs: Vec<(usize, usize, f64)> = Vec::new();
        for layer in 0..self.n_layers {
            let (supply, ret) = self.layer_nets(layer);
            for nodes in &self.core_nodes {
                let c_node = config.decap_per_core_f / nodes.len() as f64;
                for &gn in nodes {
                    let (a, b) = (supply + gn, ret + gn);
                    stamped.nb.conductance(a, b, c_node / config.dt_s);
                    decap_pairs.push((a, b, c_node));
                }
            }
        }
        let a_t = stamped.nb.to_matrix();
        let rhs_base = stamped.nb.rhs().to_vec();

        let opts = NetworkBuilder::ladder_options(a_t.rows(), &CancelToken::never());
        let mut v = v0.clone();
        let mut times_s = Vec::with_capacity(steps);
        let mut max_drop_series = Vec::with_capacity(steps);
        let (mut rhs, mut a_v) = (vec![0.0; v.len()], vec![0.0; v.len()]);
        // One workspace outside the time loop: every backward-Euler step
        // reuses the same Krylov vectors and preconditioner.
        let mut ws = SolveWorkspace::new();
        for step in 1..=steps {
            // Each step solves for its own change `Δv` from `Δv = 0`:
            // `(G + C/Δt)·Δv = b + (C/Δt)·v − (G + C/Δt)·v`. The ladder's
            // relative tolerance then bounds the step's error by that
            // change. Against the whole right-hand side, which the pad
            // injections dominate, a late step whose change falls under
            // the tolerance would return the previous state unchanged.
            rhs.copy_from_slice(&rhs_base);
            for &(a, b, c) in &decap_pairs {
                let i_companion = (c / config.dt_s) * (v[a] - v[b]);
                rhs[a] += i_companion;
                rhs[b] -= i_companion;
            }
            a_t.mul_vec_into(&v, &mut a_v);
            for (r, av) in rhs.iter_mut().zip(&a_v) {
                *r -= av;
            }
            let dv = solve_robust(&a_t, &rhs, None, &opts, &mut ws)?.x;
            for (vi, d) in v.iter_mut().zip(&dv) {
                *vi += d;
            }
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
            let (supply, ret) = self.layer_nets(layer);
            for nodes in &self.core_nodes {
                for &gn in nodes {
                    let local = v[supply + gn] - v[ret + gn];
                    max_drop = max_drop.max((vdd_nom - local) / vdd_nom);
                }
            }
        }
        max_drop
    }

    /// Surviving TSVs of the `(interface, core)` bundle.
    fn alive_tsvs(&self, faults: &FaultSet, interface: usize, core: usize) -> f64 {
        self.wiring
            .bundle_tsvs
            .saturating_sub(faults.failed_tsv_count(interface, core)) as f64
    }

    /// Stamps and solves the network with the converter cells at `cells`
    /// and `faults` open-circuited, from the warm-start `guess` when there
    /// is one and from [`Pdn::nominal_voltages`] otherwise.
    fn solve_cells(
        &self,
        loads: &StackLoads,
        faults: &FaultSet,
        cells: &CellState,
        guess: Option<&[f64]>,
        scratch: &mut SolveScratch,
    ) -> Result<FaultedSolution, PdnError> {
        let stamped = self.stamp(loads, faults, &cells.g);
        let nominal;
        let start = match guess {
            Some(guess) => guess,
            None => {
                nominal = self.nominal_voltages();
                &nominal
            }
        };
        let (v, report) = stamped.nb.solve(Some(start), scratch)?;
        Ok(self.extract(
            loads,
            v,
            &stamped.vdd_pads,
            &stamped.gnd_pads,
            cells,
            faults,
            report,
        ))
    }

    /// Every node at its net's ideal potential: `Vdd` on each supply net
    /// and 0 V on each return net of a regular PDN; `(l + 1)·Vdd` on the
    /// supply net and `l·Vdd` on the return net of a V-S PDN's layer `l`.
    /// A solve given no guess starts here rather than at zero; the start
    /// depends only on the PDN, so every answer stays a function of its
    /// inputs alone.
    fn nominal_voltages(&self) -> Vec<f64> {
        let count = self.grid.count();
        let vdd = self.params.vdd;
        let mut v = vec![0.0; 2 * self.n_layers * count];
        for layer in 0..self.n_layers {
            let (supply, ret) = self.layer_nets(layer);
            let floor = match self.stacking {
                Some(_) => layer as f64 * vdd,
                None => 0.0,
            };
            v[supply..supply + count].fill(floor + vdd);
            v[ret..ret + count].fill(floor);
        }
        v
    }

    /// The Vdd and the Gnd power pads alive under `faults`, each as
    /// `(ordinal among the pads of its net, the grid unknown it ties)`, in
    /// C4-array order.
    fn alive_pads(&self, faults: &FaultSet) -> (PadList, PadList) {
        let w = &self.wiring;
        let (mut vdd_pads, mut gnd_pads) = (Vec::new(), Vec::new());
        let (mut vdd_ord, mut gnd_ord) = (0usize, 0usize);
        for pad in self.c4.pads() {
            let (i, j) = self.grid.nearest(pad.x_mm, pad.y_mm);
            let gn = self.grid.index(i, j);
            match pad.net {
                PadNet::Vdd => {
                    if !faults.vdd_pad_failed(vdd_ord) {
                        vdd_pads.push((vdd_ord, self.node(w.vdd_pad_layer, w.supply_net, gn)));
                    }
                    vdd_ord += 1;
                }
                PadNet::Gnd => {
                    if !faults.gnd_pad_failed(gnd_ord) {
                        gnd_pads.push((gnd_ord, self.node(0, 1 - w.supply_net, gn)));
                    }
                    gnd_ord += 1;
                }
                PadNet::Io => {}
            }
        }
        (vdd_pads, gnd_pads)
    }

    /// Calls `inject(node, amps)` for each load current source of `loads`
    /// in stamping order: ideal sources between each layer's local supply
    /// and return nodes, spread over the core's grid nodes.
    fn for_each_load(&self, loads: &StackLoads, mut inject: impl FnMut(usize, f64)) {
        for layer in 0..self.n_layers {
            let (supply, ret) = self.layer_nets(layer);
            for (core, nodes) in self.core_nodes.iter().enumerate() {
                let i_core = loads.core_current(layer, core);
                for (k, &gn) in nodes.iter().enumerate() {
                    let i_node = i_core * self.core_weights[core][k];
                    inject(supply + gn, -i_node);
                    inject(ret + gn, i_node);
                }
            }
        }
    }

    /// The right-hand side [`Pdn::stamp`] assembles for `loads` with these
    /// Vdd pads alive, without the matrix: each Vdd pad's rail injection,
    /// then the loads, summed in `stamp`'s order and so bit-equal to its
    /// `nb.rhs()`. (Gnd pads tie to the 0 V rail and add nothing.)
    fn rhs(&self, loads: &StackLoads, vdd_pads: &[(usize, usize)]) -> Vec<f64> {
        let w = &self.wiring;
        let mut b = vec![0.0; 2 * self.n_layers * self.grid.count()];
        for &(_, node) in vdd_pads {
            b[node] += w.g_vdd_pad * w.v_supply;
        }
        self.for_each_load(loads, |node, amps| b[node] += amps);
        b
    }

    /// Stamps the full SPD network for one load scenario, with per-cell
    /// converter conductances `cell_g`, skipping the conductors
    /// open-circuited by `faults`.
    pub(crate) fn stamp(&self, loads: &StackLoads, faults: &FaultSet, cell_g: &[f64]) -> Stamped {
        assert_eq!(loads.n_layers(), self.n_layers, "layer count mismatch");
        assert_eq!(
            loads.cores_per_layer(),
            self.floorplan.core_count(),
            "core count mismatch"
        );
        assert_eq!(self.cells.len(), cell_g.len(), "conductance count mismatch");
        let w = &self.wiring;
        let mut nb = NetworkBuilder::new(2 * self.n_layers * self.grid.count());
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

        // Pads tie their grid nodes to the board rails. Failed pads are
        // simply not stamped: an open circuit contributes nothing to the
        // nodal system.
        let (vdd_pads, gnd_pads) = self.alive_pads(faults);
        for &(_, node) in &vdd_pads {
            nb.conductance_to_rail(node, w.g_vdd_pad, w.v_supply);
        }
        for &(_, node) in &gnd_pads {
            nb.conductance_to_rail(node, w.g_gnd_pad, 0.0);
        }

        // TSVs between adjacent layers: per-core counts lumped onto the
        // core's grid nodes. Fault counts shrink the surviving bundle (on
        // every edge of it); a fully failed bundle stamps nothing.
        let g_tsv = 1.0 / self.params.tsv_resistance_ohm;
        for layer in 0..self.n_layers.saturating_sub(1) {
            for (core, nodes) in self.core_nodes.iter().enumerate() {
                let alive = self.alive_tsvs(faults, layer, core);
                if alive == 0.0 {
                    continue;
                }
                let per_node = alive / nodes.len() as f64;
                for &gn in nodes {
                    for &(lo, hi) in w.tsv_nets {
                        let (lo, hi) = (self.node(layer, lo, gn), self.node(layer + 1, hi, gn));
                        nb.conductance(lo, hi, per_node * g_tsv);
                    }
                }
            }
        }

        self.for_each_load(loads, |node, amps| nb.current(node, amps));

        // SC converter cells (paper §3.2), with their per-cell effective
        // conductances.
        for (&(out, top, bottom, alpha), &g) in self.cells.iter().zip(cell_g) {
            nb.converter_with_ratio(out, top, bottom, g, alpha);
        }

        Stamped {
            nb,
            vdd_pads,
            gnd_pads,
        }
    }

    /// Extracts the solution metrics from a solved voltage vector. The pad
    /// lists must be the pads *alive under `faults`* — the exact path
    /// passes the stamping's lists, the sketch path filters its baseline
    /// lists down ([`crate::sketch::FaultSketch::alive_pads`]).
    #[allow(clippy::too_many_arguments)]
    fn extract(
        &self,
        loads: &StackLoads,
        v: Vec<f64>,
        vdd_pads: &[(usize, usize)],
        gnd_pads: &[(usize, usize)],
        cells: &CellState,
        faults: &FaultSet,
        report: SolveReport,
    ) -> FaultedSolution {
        let n = self.n_layers;
        let w = &self.wiring;
        let g_tsv = 1.0 / self.params.tsv_resistance_ohm;

        // --- Metrics ---
        let vdd_nom = self.params.vdd;
        let mut max_drop = f64::MIN;
        let mut worst_layer = 0;
        let mut per_layer_max_drop = vec![f64::MIN; n];
        let mut drop_sum = 0.0;
        let mut drop_count = 0usize;
        let mut p_loads = 0.0;
        for (layer, layer_max_drop) in per_layer_max_drop.iter_mut().enumerate() {
            let (supply, ret) = self.layer_nets(layer);
            for (core, nodes) in self.core_nodes.iter().enumerate() {
                let i_core = loads.core_current(layer, core);
                for (k, &gn) in nodes.iter().enumerate() {
                    let i_node = i_core * self.core_weights[core][k];
                    let local = v[supply + gn] - v[ret + gn];
                    let drop = (vdd_nom - local) / vdd_nom;
                    if drop > max_drop {
                        max_drop = drop;
                        worst_layer = layer;
                    }
                    if drop > *layer_max_drop {
                        *layer_max_drop = drop;
                    }
                    drop_sum += drop;
                    drop_count += 1;
                    p_loads += i_node * local;
                }
            }
        }

        let mut vdd_c4 = ConductorCurrents::new();
        let mut tsv = ConductorCurrents::new();
        let mut vdd_pad_currents = Vec::with_capacity(vdd_pads.len());
        let mut p_input = 0.0;
        for &(ord, node) in vdd_pads {
            let i = w.g_vdd_pad * (w.v_supply - v[node]);
            vdd_c4.push(i, 1.0);
            vdd_pad_currents.push((ord, i));
            if self.stacking.is_some() {
                // The through-via stack adds N TSV segments per pad, all
                // carrying the pad current (paper §5.1: "we connect each
                // Vdd C4 pad with only one TSV").
                tsv.push(i, n as f64);
            }
            p_input += i * w.v_supply;
        }
        let mut gnd_c4 = ConductorCurrents::new();
        let mut gnd_pad_currents = Vec::with_capacity(gnd_pads.len());
        for &(ord, node) in gnd_pads {
            let i = w.g_gnd_pad * v[node];
            gnd_c4.push(i, 1.0);
            gnd_pad_currents.push((ord, i));
        }

        // TSV EM currents: per (interface, core, net) totals distributed
        // by the crowding model (grid-refinement independent). Fully
        // failed bundles carry nothing and are omitted.
        let mut tsv_groups = Vec::new();
        for layer in 0..n.saturating_sub(1) {
            for (core, nodes) in self.core_nodes.iter().enumerate() {
                let alive = self.alive_tsvs(faults, layer, core);
                if alive == 0.0 {
                    continue;
                }
                let per_node = alive / nodes.len() as f64;
                let mut worst_per_tsv = 0.0f64;
                for &(lo, hi) in w.tsv_nets {
                    let mut i_core = 0.0;
                    for &gn in nodes {
                        let (lo, hi) = (self.node(layer, lo, gn), self.node(layer + 1, hi, gn));
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

        // Converter currents, overload count and parasitic power. Each
        // ladder stage swings one Vdd; parasitic power follows each cell's
        // actual switching frequency.
        let mut converter_currents = Vec::with_capacity(self.cells.len());
        let mut overloaded = 0usize;
        let mut p_par = 0.0;
        if let Some(st) = &self.stacking {
            let cells = self.cells.iter().zip(&cells.g).zip(&cells.f);
            for ((&(out, top, bottom, alpha), &g), &f) in cells {
                let v_ideal = alpha * v[top] + (1.0 - alpha) * v[bottom];
                let i_out = (v_ideal - v[out]) * g;
                if st.converter.is_overloaded(i_out) {
                    overloaded += 1;
                }
                p_par += st.converter.parasitic_power(f, vdd_nom);
                converter_currents.push(i_out);
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
                converter_currents,
                overloaded_converters: overloaded,
                p_loads_w: p_loads,
                p_input_w: p_input,
                p_parasitic_w: p_par,
            },
            report,
            voltages: v,
            vdd_pad_currents,
            gnd_pad_currents,
            tsv_groups,
        }
    }
}

/// The `t` that puts `point` closest to `(1 − t)·first + t·last`, by least
/// squares over the per-core currents; `0` when `first == last`. Whether
/// `point` actually lies on that line is left to the caller's residual
/// check.
fn segment_position(first: &StackLoads, last: &StackLoads, point: &StackLoads) -> f64 {
    let (mut along, mut span) = (0.0, 0.0);
    for layer in 0..first.n_layers() {
        for core in 0..first.cores_per_layer() {
            let step = last.core_current(layer, core) - first.core_current(layer, core);
            along += (point.core_current(layer, core) - first.core_current(layer, core)) * step;
            span += step * step;
        }
    }
    if span > 0.0 {
        along / span
    } else {
        0.0
    }
}

#[cfg(test)]
pub(crate) mod tests {
    //! Checks of the drivers both topologies share. Each takes its cases
    //! as inputs; `regular::tests` runs it on Fig 4a PDNs and
    //! `vstacked::tests` on Fig 4b stacks, so one body covers both.

    use super::*;
    use crate::network::tests::{direct_solve, direct_solver, max_error_of_scale};

    /// `faults` solved exactly on a fresh scratch.
    pub(crate) fn exact(
        pdn: &Pdn,
        loads: &StackLoads,
        faults: &FaultSet,
        guess: Option<&[f64]>,
    ) -> Result<FaultedSolution, PdnError> {
        pdn.solve_faulted_scratch(loads, faults, guess, &mut SolveScratch::new())
    }

    /// Killing the supply pad carrying the most current drops it from the
    /// answer, and the survivors pick up its share of the supply current
    /// to within `tolerance` (relative).
    pub(crate) fn check_killed_pad_shifts_current(cases: &[(Pdn, StackLoads, f64)]) {
        for (pdn, loads, tolerance) in cases {
            let stacked = pdn.stacking().is_some();
            let healthy = exact(pdn, loads, &FaultSet::new(), None).unwrap();
            let &(victim, _) = healthy
                .vdd_pad_currents
                .iter()
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .unwrap();
            let mut faults = FaultSet::new();
            faults.fail_vdd_pad(victim);
            let wounded = exact(pdn, loads, &faults, Some(&healthy.voltages)).unwrap();
            assert_eq!(
                wounded.vdd_pad_currents.len(),
                healthy.vdd_pad_currents.len() - 1,
                "stacked: {stacked}"
            );
            assert!(!wounded.vdd_pad_currents.iter().any(|&(o, _)| o == victim));
            let sum = |c: &[(usize, f64)]| c.iter().map(|&(_, i)| i).sum::<f64>();
            let (i_h, i_w) = (
                sum(&healthy.vdd_pad_currents),
                sum(&wounded.vdd_pad_currents),
            );
            assert!(
                (i_h - i_w).abs() / i_h < *tolerance,
                "stacked: {stacked}: {i_h} vs {i_w}"
            );
            assert!(wounded.solution.max_ir_drop_frac >= healthy.solution.max_ir_drop_frac);
        }
    }

    /// A wearout-style sweep through one `SolveScratch` reproduces the
    /// per-step fresh solves exactly: same voltages, same ladder.
    pub(crate) fn check_scratch_sweep_matches_fresh_solves(cases: &[(Pdn, StackLoads)]) {
        for (pdn, loads) in cases {
            let mut scratch = SolveScratch::new();
            let mut faults = FaultSet::new();
            let mut warm: Option<Vec<f64>> = None;
            for step in 0..3 {
                if step > 0 {
                    faults.fail_vdd_pad(step - 1);
                    faults.fail_tsvs(0, 0, step);
                }
                let fresh = exact(pdn, loads, &faults, warm.as_deref()).unwrap();
                let reused = pdn
                    .solve_faulted_scratch(loads, &faults, warm.as_deref(), &mut scratch)
                    .unwrap();
                assert_eq!(fresh.voltages, reused.voltages, "step {step}");
                assert_eq!(fresh.report.trail(), reused.report.trail());
                warm = Some(fresh.voltages);
            }
        }
    }

    /// A faulted solve with no faults answers what the plain solve does,
    /// without a rescue, and hands back every node voltage.
    pub(crate) fn check_empty_fault_set_matches_plain_solve(cases: &[(Pdn, StackLoads)]) {
        for (pdn, loads) in cases {
            let plain = pdn.solve(loads).unwrap();
            let faulted = exact(pdn, loads, &FaultSet::new(), None).unwrap();
            assert!((plain.max_ir_drop_frac - faulted.solution.max_ir_drop_frac).abs() < 1e-12);
            assert!(!faulted.report.was_rescued(), "{}", faulted.report.trail());
            assert_eq!(
                faulted.voltages.len(),
                2 * pdn.n_layers() * pdn.grid().count()
            );
        }
    }

    /// Paper-fidelity 4-layer PDNs (5,408 unknowns) lead the ladder with
    /// the mixed-precision rung over the CSR. A solve given no guess
    /// starts at the nominal rail voltages: it never takes more iterations
    /// than one started at zero, and takes fewer over the cases. Both
    /// answers must match a direct solve of the same assembled matrix.
    pub(crate) fn check_paper_fidelity_matches_direct(cases: &[(String, Pdn, StackLoads)]) {
        let (mut nominal_total, mut zero_total) = (0, 0);
        for (case, pdn, loads) in cases {
            let cells = pdn.nominal_cells();
            let want = direct_solve(&pdn.stamp(loads, &FaultSet::new(), &cells.g).nb);
            let zeros = vec![0.0; want.len()];
            let nominal = exact(pdn, loads, &FaultSet::new(), None).unwrap();
            let from_zero = exact(pdn, loads, &FaultSet::new(), Some(&zeros)).unwrap();
            for (start, sol) in [("nominal", &nominal), ("zero", &from_zero)] {
                assert_eq!(sol.voltages.len(), 5408, "{case}");
                assert_eq!(sol.report.method, SolveMethod::CgAmgMixed, "{case}");
                assert_eq!(sol.report.operator, "csr", "{case}");
                let err = max_error_of_scale(&sol.voltages, &want);
                assert!(
                    err <= 3e-10,
                    "{case}, {start} start: error {err:e} of max |v|"
                );
            }
            assert!(
                nominal.report.iterations <= from_zero.report.iterations,
                "{case}: nominal start {} iterations, zero start {}",
                nominal.report.iterations,
                from_zero.report.iterations
            );
            nominal_total += nominal.report.iterations;
            zero_total += from_zero.report.iterations;
        }
        assert!(
            nominal_total < zero_total,
            "nominal starts {nominal_total} iterations, zero starts {zero_total}"
        );
    }

    /// Every sample of a step response, its initial drop included, is
    /// within `1e-9` of Vdd of a backward-Euler loop written here, which
    /// solves each step directly on one envelope-Cholesky factor of
    /// `G + C/Δt`, from a direct DC solve of the pre-step loads.
    pub(crate) fn check_transient_matches_direct(cases: &[(Pdn, StackLoads, StackLoads)]) {
        let cfg = crate::transient::PdnTransientConfig::default();
        let no_faults = FaultSet::new();
        for (pdn, before, after) in cases {
            let got = pdn.solve_transient_step(before, after, &cfg).unwrap();
            let cells = pdn.nominal_cells();
            let mut v = direct_solve(&pdn.stamp(before, &no_faults, &cells.g).nb);
            assert!((got.initial_drop - pdn.max_drop_of(&v)).abs() <= 1e-9);
            let mut stepped = pdn.stamp(after, &no_faults, &cells.g).nb;
            let mut decaps = Vec::new();
            for layer in 0..pdn.n_layers() {
                let (supply, ret) = pdn.layer_nets(layer);
                for nodes in &pdn.core_nodes {
                    let g = cfg.decap_per_core_f / nodes.len() as f64 / cfg.dt_s;
                    for &gn in nodes {
                        stepped.conductance(supply + gn, ret + gn, g);
                        decaps.push((supply + gn, ret + gn, g));
                    }
                }
            }
            let solve = direct_solver(&stepped);
            assert_eq!(got.max_drop_series.len(), cfg.steps());
            for (step, &drop) in got.max_drop_series.iter().enumerate() {
                let mut b = stepped.rhs().to_vec();
                for &(s, r, g) in &decaps {
                    b[s] += g * (v[s] - v[r]);
                    b[r] -= g * (v[s] - v[r]);
                }
                v = solve(&b);
                let want = pdn.max_drop_of(&v);
                assert!(
                    (drop - want).abs() <= 1e-9,
                    "step {step}: drop {drop} vs direct {want}"
                );
            }
        }
    }

    /// The right-hand side `rhs` assembles alone, from the pads alive
    /// under a fault set, is bit for bit the one a full `stamp` builds.
    pub(crate) fn check_rhs_matches_full_stamp(cases: &[(Pdn, StackLoads)]) {
        let bits = |b: &[f64]| b.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (pdn, loads) in cases {
            let mut faults = FaultSet::new();
            for round in 0..2 {
                if round == 1 {
                    faults.fail_vdd_pad(0);
                    faults.fail_gnd_pad(1);
                }
                let stamped = pdn.stamp(loads, &faults, &pdn.nominal_cells().g);
                let (vdd_pads, gnd_pads) = pdn.alive_pads(&faults);
                assert_eq!(vdd_pads, stamped.vdd_pads);
                assert_eq!(gnd_pads, stamped.gnd_pads);
                let rhs = pdn.rhs(loads, &vdd_pads);
                assert_eq!(bits(&rhs), bits(stamped.nb.rhs()), "round {round}");
            }
        }
    }
}
