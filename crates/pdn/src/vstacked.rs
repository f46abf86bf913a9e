//! The voltage-stacked (charge-recycled) 3D PDN topology — paper Fig 4b.
//!
//! Layers are wired in series: layer *l*'s ground net and layer *l−1*'s
//! supply net share intermediate rail *l*. The board supplies `N·Vdd` to
//! the **top** layer through dedicated through-via stacks (one per Vdd C4
//! pad, paper §5.1) and collects the return from the bottom layer's ground
//! net. Push-pull SC converters regulate every intermediate rail,
//! sourcing/sinking only the mismatch current between adjacent layers.
//!
//! Because the converter compact model stamps as a rank-1 PSD matrix (see
//! [`crate::network::NetworkBuilder::converter`]), the whole V-S network is
//! one SPD system solved by CG.

use vstack_power::floorplan::Floorplan;
use vstack_sc::compact::ScConverter;
use vstack_sparse::{SolveError, SolveMethod, SolveReport, StencilDescriptor};

use crate::c4::{C4Array, PadNet};
use crate::error::PdnError;
use crate::fault::{FaultSet, FaultedSolution, TsvGroupCurrent};
use crate::network::{core_load_weights, core_node_map, GridSpec, NetworkBuilder, SolveScratch};
use crate::params::PdnParams;
use crate::solution::{ConductorCurrents, PdnSolution};
use crate::stack::StackLoads;
use crate::tsv::TsvTopology;

/// What a converter cell at intermediate rail `r` regulates against.
///
/// The paper's scalable **multi-output ladder SC** (§2.1, Fig 1) rotates
/// its fly capacitors through the whole stack, so each output rail is
/// effectively regulated against the stiff stack boundaries — that is
/// [`ConverterReference::BoundaryLadder`], the default, and the only
/// variant consistent with the paper's Fig 6 magnitudes.
/// [`ConverterReference::AdjacentRails`] models independent 2:1 cells that
/// only sense their neighbouring rails; chained midpoint references let
/// converter drops accumulate quadratically across the stack (a discrete
/// Poisson "voltage bowl"), which is why naive per-interface regulation
/// scales poorly — retained as an ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConverterReference {
    /// Rail `r` regulated to `r/N` of the local stack span (ladder SC).
    #[default]
    BoundaryLadder,
    /// Rail `r` regulated to the midpoint of rails `r±1` (independent 2:1
    /// cells).
    AdjacentRails,
}

/// Output of the assembly phase: the stamped network plus the handles the
/// extraction and transient phases need. Pads carry their ordinal among
/// power pads of the same net so fault injection and extraction agree on
/// identity across solves.
struct AssembledVs {
    nb: NetworkBuilder,
    vdd_pads: Vec<(usize, usize)>,
    gnd_pads: Vec<(usize, usize)>,
    g_via_stack: f64,
    g_gnd_pad: f64,
    v_supply: f64,
}

/// A voltage-stacked PDN ready to solve against load scenarios.
#[derive(Debug, Clone)]
pub struct VstackPdn {
    params: PdnParams,
    n_layers: usize,
    topology: TsvTopology,
    c4: C4Array,
    converter: ScConverter,
    converters_per_core: usize,
    reference: ConverterReference,
    grid: GridSpec,
    floorplan: Floorplan,
    core_nodes: Vec<Vec<usize>>,
    core_weights: Vec<Vec<f64>>,
}

impl VstackPdn {
    /// Builds an `n_layers` voltage-stacked PDN.
    ///
    /// `converters_per_core` converter cells regulate each intermediate
    /// rail within every core footprint (the paper sweeps 2/4/6/8);
    /// `power_c4_fraction` allocates pads exactly as in the regular PDN
    /// (the paper evaluates V-S at 25%).
    ///
    /// # Panics
    ///
    /// Panics if `n_layers < 2` or `converters_per_core == 0`.
    pub fn new(
        params: &PdnParams,
        n_layers: usize,
        topology: TsvTopology,
        power_c4_fraction: f64,
        converter: ScConverter,
        converters_per_core: usize,
    ) -> Self {
        assert!(n_layers >= 2, "voltage stacking needs at least two layers");
        assert!(
            converters_per_core >= 1,
            "need at least one converter per core"
        );
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
        VstackPdn {
            params: params.clone(),
            n_layers,
            topology,
            c4,
            converter,
            converters_per_core,
            reference: ConverterReference::default(),
            grid,
            floorplan,
            core_nodes,
            core_weights,
        }
    }

    /// Returns a copy using a different converter rail reference (the
    /// adjacent-rails variant is an ablation; see [`ConverterReference`]).
    pub fn with_reference(mut self, reference: ConverterReference) -> Self {
        self.reference = reference;
        self
    }

    /// The converter rail reference in use.
    pub fn reference(&self) -> ConverterReference {
        self.reference
    }

    /// Number of stacked layers.
    pub fn n_layers(&self) -> usize {
        self.n_layers
    }

    /// Converter cells per core per intermediate rail.
    pub fn converters_per_core(&self) -> usize {
        self.converters_per_core
    }

    /// The converter design used at every cell.
    pub fn converter(&self) -> &ScConverter {
        &self.converter
    }

    /// The C4 array.
    pub fn c4(&self) -> &C4Array {
        &self.c4
    }

    /// Flat unknown index of grid node `n` on layer `layer`'s ground
    /// (`net = 0`, rail `layer`) or supply (`net = 1`, rail `layer + 1`)
    /// net.
    fn node(&self, layer: usize, net: usize, n: usize) -> usize {
        (layer * 2 + net) * self.grid.count() + n
    }

    /// Solves the stacked network for the given loads, honouring the
    /// converter's control policy.
    ///
    /// Open-loop converters present a fixed `R_SERIES`, so one SPD solve
    /// suffices. Closed-loop converters modulate their switching frequency
    /// — and therefore their output impedance — with their own load
    /// current, which couples the network nonlinearly; that case runs the
    /// damped Picard iteration of [`VstackPdn::solve_closed_loop`].
    ///
    /// # Errors
    ///
    /// Returns [`SolveError`] if the CG solve fails.
    ///
    /// # Panics
    ///
    /// Panics if `loads` does not match this PDN's layer/core counts.
    pub fn solve(&self, loads: &StackLoads) -> Result<PdnSolution, SolveError> {
        self.solve_faulted(loads, &FaultSet::new(), None)
            .map(|f| f.solution)
            .map_err(PdnError::into_solve_error)
    }

    /// Solves the stacked network with the conductors in `faults`
    /// open-circuited, optionally warm-starting from a previous solution's
    /// [`FaultedSolution::voltages`].
    ///
    /// A failed supply pad takes its entire through-via stack with it (the
    /// pad and its dedicated TSV column form one series path); interface
    /// TSV faults shrink the surviving `(interface, core)` bundle.
    /// Closed-loop converters run the damped Picard iteration with the
    /// faults applied at every inner solve.
    ///
    /// # Errors
    ///
    /// [`PdnError::Disconnected`] once the faults isolate part of the grid
    /// from every board rail; [`PdnError::Solve`] if the escalation ladder
    /// is exhausted or the Picard iteration does not settle.
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

    /// [`VstackPdn::solve_faulted`] with reusable cross-solve state.
    ///
    /// Wearout loops and converter sweeps re-solve one topology hundreds
    /// of times; passing one [`SolveScratch`] lets every solve after the
    /// first re-stamp values onto the cached sparsity pattern and recycle
    /// the solver's working vectors (closed-loop Picard iterations share
    /// the scratch internally as well). Results are bit-identical to
    /// [`VstackPdn::solve_faulted`].
    ///
    /// # Errors
    ///
    /// As for [`VstackPdn::solve_faulted`].
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
        match self.converter.control {
            vstack_sc::ControlPolicy::OpenLoop => {
                let sites = self.converter_sites();
                let g = vec![1.0 / self.converter.r_series(self.converter.f_nom); sites.len()];
                let f = vec![self.converter.f_nom; sites.len()];
                self.solve_with_conductances(loads, &sites, &g, &f, faults, guess, scratch)
            }
            vstack_sc::ControlPolicy::ClosedLoop { .. } => Ok(self
                .solve_closed_loop_faulted_scratch(loads, faults, guess, scratch)?
                .0),
        }
    }

    /// Warm-started fault-free solve: the entry point serving layers
    /// (sweep schedulers, the `vstack-engine` query cache) use for
    /// repeated healthy-topology solves.
    ///
    /// Equivalent to [`VstackPdn::solve_faulted_scratch`] with an empty
    /// [`FaultSet`]: `guess` seeds the Krylov iteration (a converged guess
    /// returns unchanged, bit-identical, in zero iterations) and `scratch`
    /// recycles the symbolic CSR pattern and working vectors across calls.
    /// Dispatches through the converter control policy exactly like
    /// [`VstackPdn::solve`].
    ///
    /// # Errors
    ///
    /// As for [`VstackPdn::solve_faulted`].
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

    /// Fault-free solves of a load sweep sharing `scratch`, handing each
    /// point's index and solution to `each` in order. (`each` is a trait
    /// object so the sweep is compiled once, here, not in every caller.)
    ///
    /// Open-loop converters stamp a matrix `A` that does not depend on the
    /// loads, and the right-hand side is affine in the per-core currents.
    /// So when a point's loads are `(1 − t)·first + t·last` (Figs 6 and 8:
    /// [`vstack_power::workload::ImbalancePattern`] is affine in the
    /// imbalance), its voltages are exactly `(1 − t)·v_first + t·v_last`.
    /// The first and last points are solved on the escalation ladder as
    /// [`VstackPdn::solve_faulted_scratch`] would solve them; every
    /// interior point reads `t` off its loads, forms that combination and
    /// keeps it only if its relative residual against the point's own
    /// stamped system meets the ladder's tolerance, solving the point on
    /// the ladder otherwise. A superposed point's report says
    /// [`SolveMethod::Superposition`], zero iterations and the measured
    /// residual. Closed-loop converters (the matrix moves with the loads)
    /// and sweeps of fewer than three points solve every point in order.
    ///
    /// Only the two endpoint voltage vectors outlive a point: each
    /// interior system is stamped while its point is answered.
    ///
    /// # Errors
    ///
    /// The first failing solve, as for [`VstackPdn::solve_faulted`].
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
        let open_loop = matches!(self.converter.control, vstack_sc::ControlPolicy::OpenLoop);
        let (first, last) = match loads {
            [first, _, .., last] if open_loop => (first, last),
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
        let sites = self.converter_sites();
        let conv_g = vec![1.0 / self.converter.r_series(self.converter.f_nom); sites.len()];
        let conv_f = vec![self.converter.f_nom; sites.len()];
        let last_index = loads.len() - 1;
        for (i, point) in loads.iter().enumerate().take(last_index).skip(1) {
            let started = std::time::Instant::now();
            let t = segment_position(first, last, point);
            let v: Vec<f64> = v_first
                .iter()
                .zip(&last_sol.voltages)
                .map(|(a, b)| (1.0 - t) * a + t * b)
                .collect();
            let asm = self.assemble_with_conductances(point, &sites, &conv_g, &no_faults);
            let residual = asm.nb.relative_residual(&v);
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
                self.extract(
                    point,
                    v,
                    &asm.vdd_pads,
                    &asm.gnd_pads,
                    asm.g_via_stack,
                    asm.g_gnd_pad,
                    asm.v_supply,
                    &sites,
                    &conv_g,
                    &conv_f,
                    &no_faults,
                    report,
                )
            } else {
                drop(asm); // the ladder stamps its own copy
                self.solve_faulted_scratch(point, &no_faults, None, scratch)?
            };
            each(i, sol);
        }
        each(last_index, last_sol);
        Ok(())
    }

    /// [`VstackPdn::solve_faulted_scratch`] accelerated by the rank-k
    /// fault sketch ([`crate::sketch::FaultSketch`]).
    ///
    /// Open-loop stacks answer fault what-ifs through the
    /// Sherman–Morrison–Woodbury identity against a cached, tightly-solved
    /// baseline: a failed supply pad removes its through-via-stack rail
    /// conductance, a failed interface TSV scales the bundle's series edge
    /// columns. Closed-loop stacks always take the exact Picard path (the
    /// matrix changes every fixed-point iteration, so no single baseline
    /// factorization applies) and count as sketch fallbacks.
    ///
    /// # Errors
    ///
    /// As for [`VstackPdn::solve_faulted`].
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
        if matches!(
            self.converter.control,
            vstack_sc::ControlPolicy::ClosedLoop { .. }
        ) {
            vstack_obs::metrics::global().fault_sketch_fallbacks.inc();
            return Ok(self
                .solve_closed_loop_faulted_scratch(loads, faults, None, scratch)?
                .0);
        }
        let fp = self.sketch_fingerprint(loads);
        let mut sketch = scratch.take_sketch().filter(|s| s.fingerprint() == fp);
        let sites = self.converter_sites();
        let conv_g = vec![1.0 / self.converter.r_series(self.converter.f_nom); sites.len()];
        let conv_f = vec![self.converter.f_nom; sites.len()];
        let n = self.n_layers;
        let g_gnd_pad = 1.0 / (self.params.c4_resistance_ohm + self.params.package_r_per_pad_ohm);
        let g_via_stack = 1.0
            / (self.params.c4_resistance_ohm
                + self.params.package_r_per_pad_ohm
                + n as f64 * self.params.tsv_resistance_ohm);
        let v_supply = n as f64 * self.params.vdd;
        let answered = crate::sketch::answer_with_sketch(
            faults,
            &mut sketch,
            scratch,
            |base, scr| self.build_sketch(loads, base.clone(), &sites, &conv_g, scr),
            |sk, v, report| {
                let (vdd_pads, gnd_pads) = sk.alive_pads(faults);
                self.extract(
                    loads,
                    v,
                    &vdd_pads,
                    &gnd_pads,
                    g_via_stack,
                    g_gnd_pad,
                    v_supply,
                    &sites,
                    &conv_g,
                    &conv_f,
                    faults,
                    report,
                )
            },
        );
        let result = match answered {
            Ok(Some(sol)) => Ok(sol),
            Ok(None) => {
                vstack_obs::metrics::global().fault_sketch_fallbacks.inc();
                let guess = sketch.as_ref().map(|s| s.baseline_voltages());
                self.solve_with_conductances(
                    loads,
                    &sites,
                    &conv_g,
                    &conv_f,
                    faults,
                    guess.as_deref(),
                    scratch,
                )
            }
            Err(e) => Err(e),
        };
        if let Some(s) = sketch {
            scratch.put_sketch(s);
        }
        result
    }

    /// FNV-1a fingerprint of every value that shapes the stamped baseline
    /// system (open-loop): topology dimensions, conductances, converter
    /// design, supply voltage, and the per-core load currents.
    fn sketch_fingerprint(&self, loads: &StackLoads) -> u64 {
        use crate::params::LoadDistribution;
        let mut h = crate::sketch::FingerprintHasher::new();
        h.usize(2); // topology kind: voltage-stacked
        h.usize(self.n_layers);
        h.usize(self.grid.nx);
        h.usize(self.grid.ny);
        h.usize(self.topology.tsvs_per_core());
        h.usize(self.c4.vdd_count());
        h.usize(self.c4.gnd_count());
        h.usize(self.converters_per_core);
        h.usize(match self.reference {
            ConverterReference::BoundaryLadder => 0,
            ConverterReference::AdjacentRails => 1,
        });
        h.f64(self.converter.f_nom);
        h.f64(self.converter.r_series(self.converter.f_nom));
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
    /// assembles and solves the open-loop baseline tightly, then registers
    /// every surviving through-via-stack rail, ground pad rail, and
    /// interface-TSV bundle as a candidate fault column.
    fn build_sketch(
        &self,
        loads: &StackLoads,
        base: FaultSet,
        sites: &[(usize, usize, usize, f64)],
        conv_g: &[f64],
        scratch: &mut SolveScratch,
    ) -> Result<crate::sketch::FaultSketch, PdnError> {
        let asm = self.assemble_with_conductances(loads, sites, conv_g, &base);
        let n = self.n_layers;
        let mut sk = crate::sketch::FaultSketch::build(
            self.sketch_fingerprint(loads),
            base.clone(),
            &asm.nb,
            asm.vdd_pads.clone(),
            asm.gnd_pads.clone(),
            (self.c4.vdd_count(), self.c4.gnd_count()),
            (n - 1, self.core_nodes.len()),
            scratch.cancel_token(),
        )?;
        for &(ord, node) in &asm.vdd_pads {
            sk.register_vdd_pad(ord, node, asm.g_via_stack, -asm.g_via_stack * asm.v_supply);
        }
        for &(ord, node) in &asm.gnd_pads {
            sk.register_gnd_pad(ord, node, asm.g_gnd_pad);
        }
        let g_tsv = 1.0 / self.params.tsv_resistance_ohm;
        for layer in 0..n - 1 {
            for (core, nodes) in self.core_nodes.iter().enumerate() {
                if self.alive_tsvs(&base, layer, core) == 0.0 {
                    continue; // dead at base: extra faults are no-ops
                }
                let edges: Vec<(usize, usize)> = nodes
                    .iter()
                    .map(|&gn| (self.node(layer, 1, gn), self.node(layer + 1, 0, gn)))
                    .collect();
                sk.register_tsv_bundle(
                    layer,
                    core,
                    &edges,
                    g_tsv / nodes.len() as f64,
                    self.topology.tsvs_per_core(),
                );
            }
        }
        Ok(sk)
    }

    /// Solves a closed-loop-controlled stack by damped Picard iteration:
    /// each converter's switching frequency (hence `R_SERIES` and
    /// parasitic power) follows its own output current from the previous
    /// solve, until the per-converter conductances stabilize.
    ///
    /// Returns the converged solution together with the number of
    /// fixed-point iterations taken. Converges in a handful of iterations
    /// because `R_SSL(f)` is monotone in the load.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError`] if an inner CG solve fails or the fixed
    /// point has not stabilized after 50 iterations.
    ///
    /// # Panics
    ///
    /// Panics if `loads` does not match this PDN's layer/core counts.
    pub fn solve_closed_loop(
        &self,
        loads: &StackLoads,
    ) -> Result<(PdnSolution, usize), SolveError> {
        self.solve_closed_loop_faulted(loads, &FaultSet::new(), None)
            .map(|(f, it)| (f.solution, it))
            .map_err(PdnError::into_solve_error)
    }

    /// Fault-aware closed-loop solve: the Picard iteration of
    /// [`VstackPdn::solve_closed_loop`] with `faults` applied at every
    /// inner solve, each warm-started from the previous iterate.
    ///
    /// # Errors
    ///
    /// As for [`VstackPdn::solve_faulted`].
    ///
    /// # Panics
    ///
    /// Panics if `loads` does not match this PDN's layer/core counts.
    pub fn solve_closed_loop_faulted(
        &self,
        loads: &StackLoads,
        faults: &FaultSet,
        guess: Option<&[f64]>,
    ) -> Result<(FaultedSolution, usize), PdnError> {
        self.solve_closed_loop_faulted_scratch(loads, faults, guess, &mut SolveScratch::new())
    }

    /// [`VstackPdn::solve_closed_loop_faulted`] with reusable cross-solve
    /// state. Every Picard iteration re-stamps the same sparsity pattern
    /// (only the converter conductances change), so the scratch turns the
    /// whole fixed-point loop into one symbolic build plus cheap value
    /// re-stamps.
    ///
    /// # Errors
    ///
    /// As for [`VstackPdn::solve_faulted`].
    ///
    /// # Panics
    ///
    /// Panics if `loads` does not match this PDN's layer/core counts.
    pub fn solve_closed_loop_faulted_scratch(
        &self,
        loads: &StackLoads,
        faults: &FaultSet,
        guess: Option<&[f64]>,
        scratch: &mut SolveScratch,
    ) -> Result<(FaultedSolution, usize), PdnError> {
        let sites = self.converter_sites();
        let mut f: Vec<f64> = vec![self.converter.f_nom; sites.len()];
        let mut g: Vec<f64> = f
            .iter()
            .map(|&fi| 1.0 / self.converter.r_series(fi))
            .collect();
        let mut last =
            self.solve_with_conductances(loads, &sites, &g, &f, faults, guess, scratch)?;
        // The k cells within one core on one rail are phases of a single
        // interleaved converter sharing one controller clock, so frequency
        // feedback acts on the group-average current. (Per-cell feedback
        // would be degenerate: with R_SSL ∝ 1/f ∝ 1/i, any current split
        // between parallel cells is a fixed point.)
        //
        // Convergence is judged on the physical outputs (worst IR drop and
        // parasitic power): the internal per-cell current distribution has
        // a slow drift mode that the outputs are insensitive to.
        let group = self.converters_per_core;
        for iteration in 1..=50 {
            for (gidx, currents) in last.solution.converter_currents.chunks(group).enumerate() {
                let i_mean = currents.iter().map(|i| i.abs()).sum::<f64>() / currents.len() as f64;
                let f_new = self.converter.control.frequency(
                    self.converter.f_nom,
                    i_mean,
                    self.converter.i_rated,
                );
                for k in gidx * group..gidx * group + currents.len() {
                    // Damping keeps the alternation between light-load and
                    // heavy-load impedance from limit-cycling.
                    f[k] = 0.5 * (f[k] + f_new);
                    g[k] = 1.0 / self.converter.r_series(f[k]);
                }
            }
            let next = self.solve_with_conductances(
                loads,
                &sites,
                &g,
                &f,
                faults,
                Some(&last.voltages),
                scratch,
            )?;
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

    /// The placed converter cells: `(out, top, bottom, alpha)` node
    /// tuples, ordered by rail, then core, then replica.
    fn converter_sites(&self) -> Vec<(usize, usize, usize, f64)> {
        let n = self.n_layers;
        let mut sites = Vec::new();
        for rail in 1..n {
            for core in 0..self.floorplan.core_count() {
                let positions = self
                    .floorplan
                    .uniform_positions_in_core(core, self.converters_per_core);
                for (x, y) in positions {
                    let (i, j) = self.grid.nearest(x, y);
                    let gn = self.grid.index(i, j);
                    let out = self.node(rail, 0, gn);
                    let (top, bottom, alpha) = match self.reference {
                        ConverterReference::BoundaryLadder => (
                            self.node(n - 1, 1, gn),
                            self.node(0, 0, gn),
                            rail as f64 / n as f64,
                        ),
                        ConverterReference::AdjacentRails => {
                            (self.node(rail, 1, gn), self.node(rail - 1, 0, gn), 0.5)
                        }
                    };
                    sites.push((out, top, bottom, alpha));
                }
            }
        }
        sites
    }

    /// Backward-Euler step response: the stack sits at the DC solution of
    /// `before`, the loads switch to `after` at `t = 0`, and per-layer
    /// decoupling capacitance (see
    /// [`crate::transient::PdnTransientConfig::decap_per_core_f`]) carries
    /// the charge while the rails re-settle through the converters and the
    /// through-via stacks.
    ///
    /// Converters use their nominal (open-loop) impedance — frequency
    /// modulation is far slower than the decap RC, so the open-loop
    /// impedance is the correct small-time model even for closed-loop
    /// designs.
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
        let sites = self.converter_sites();
        let g_conv = vec![1.0 / self.converter.r_series(self.converter.f_nom); sites.len()];

        // Initial state: DC under the pre-step loads.
        let no_faults = FaultSet::new();
        let v0 = self
            .assemble_with_conductances(before, &sites, &g_conv, &no_faults)
            .nb
            .solve(None)?;

        // Post-step system plus the backward-Euler decap companion
        // conductances C/Δt between each layer's local supply/return pair.
        let mut asm = self.assemble_with_conductances(after, &sites, &g_conv, &no_faults);
        let mut decap_pairs: Vec<(usize, usize, f64)> = Vec::new();
        for layer in 0..self.n_layers {
            for nodes in &self.core_nodes {
                let c_node = config.decap_per_core_f / nodes.len() as f64;
                for &gn in nodes {
                    let a = self.node(layer, 1, gn);
                    let b = self.node(layer, 0, gn);
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
                    let local = v[self.node(layer, 1, gn)] - v[self.node(layer, 0, gn)];
                    max_drop = max_drop.max((vdd_nom - local) / vdd_nom);
                }
            }
        }
        max_drop
    }

    /// Surviving TSVs of the `(interface, core)` bundle.
    fn alive_tsvs(&self, faults: &FaultSet, interface: usize, core: usize) -> f64 {
        self.topology
            .tsvs_per_core()
            .saturating_sub(faults.failed_tsv_count(interface, core)) as f64
    }

    /// Assembles the full SPD network with explicit per-converter
    /// conductances (parallel to [`VstackPdn::converter_sites`]), skipping
    /// the conductors open-circuited by `faults`.
    fn assemble_with_conductances(
        &self,
        loads: &StackLoads,
        sites: &[(usize, usize, usize, f64)],
        conv_g: &[f64],
        faults: &FaultSet,
    ) -> AssembledVs {
        assert_eq!(loads.n_layers(), self.n_layers, "layer count mismatch");
        assert_eq!(
            loads.cores_per_layer(),
            self.floorplan.core_count(),
            "core count mismatch"
        );
        assert_eq!(sites.len(), conv_g.len(), "conductance count mismatch");
        let g_count = self.grid.count();
        let n_unknowns = 2 * self.n_layers * g_count;
        let mut nb = NetworkBuilder::new(n_unknowns);
        let seg_r = self.params.grid_segment_resistance_ohm();
        let n = self.n_layers;
        // Unknowns are 2·n stacked copies of the same nx×ny grid (ground
        // then supply net per layer); TSVs couple each layer's supply
        // plane (odd index) to the next layer's ground plane at exactly
        // the plane stride, which is the vertical coupling the stencil
        // operator models. Pads and converter stamps fall to its side-CSR.
        nb.set_stencil_descriptor(StencilDescriptor {
            nx: self.grid.nx,
            ny: self.grid.ny,
            planes: 2 * n,
            interfaces: (0..2 * n - 1).map(|p| p % 2 == 1).collect(),
        });
        let v_supply = n as f64 * self.params.vdd;

        // On-chip grids, with any per-layer resistance drift (thermal
        // resistivity / EM) applied. Values-only scaling: the pattern is
        // layer-independent, so SolveScratch re-stamps stay valid.
        for layer in 0..n {
            let layer_r = seg_r * self.params.layer_resistance_scale(layer);
            for net in 0..2 {
                nb.grid_laplacian(&self.grid, self.node(layer, net, 0), layer_r);
            }
        }

        // Ground pads: bottom layer's ground net → board 0 V.
        // Supply pads: top layer's supply net ← board N·Vdd through a
        // through-via stack crossing all N layers plus the pad itself.
        let g_gnd_pad = 1.0 / (self.params.c4_resistance_ohm + self.params.package_r_per_pad_ohm);
        let r_via_stack = self.params.c4_resistance_ohm
            + self.params.package_r_per_pad_ohm
            + n as f64 * self.params.tsv_resistance_ohm;
        let g_via_stack = 1.0 / r_via_stack;
        let mut vdd_pads = Vec::new();
        let mut gnd_pads = Vec::new();
        let (mut vdd_ord, mut gnd_ord) = (0usize, 0usize);
        for pad in self.c4.pads() {
            let (i, j) = self.grid.nearest(pad.x_mm, pad.y_mm);
            let gn = self.grid.index(i, j);
            match pad.net {
                PadNet::Vdd => {
                    if !faults.vdd_pad_failed(vdd_ord) {
                        let node = self.node(n - 1, 1, gn);
                        nb.conductance_to_rail(node, g_via_stack, v_supply);
                        vdd_pads.push((vdd_ord, node));
                    }
                    vdd_ord += 1;
                }
                PadNet::Gnd => {
                    if !faults.gnd_pad_failed(gnd_ord) {
                        let node = self.node(0, 0, gn);
                        nb.conductance_to_rail(node, g_gnd_pad, 0.0);
                        gnd_pads.push((gnd_ord, node));
                    }
                    gnd_ord += 1;
                }
                PadNet::Io => {}
            }
        }

        // Series TSVs: layer l's supply net and layer l+1's ground net
        // share rail l+1; the bundle's surviving power TSVs connect them.
        let g_tsv = 1.0 / self.params.tsv_resistance_ohm;
        for layer in 0..n - 1 {
            for (core, nodes) in self.core_nodes.iter().enumerate() {
                let alive = self.alive_tsvs(faults, layer, core);
                if alive == 0.0 {
                    continue;
                }
                let per_node = alive / nodes.len() as f64;
                for &gn in nodes {
                    let lo = self.node(layer, 1, gn);
                    let hi = self.node(layer + 1, 0, gn);
                    nb.conductance(lo, hi, per_node * g_tsv);
                }
            }
        }

        // Loads: each layer's cores draw between its supply and ground
        // nets.
        for layer in 0..n {
            for (core, nodes) in self.core_nodes.iter().enumerate() {
                let i_core = loads.core_current(layer, core);
                for (k, &gn) in nodes.iter().enumerate() {
                    let i_node = i_core * self.core_weights[core][k];
                    nb.current(self.node(layer, 1, gn), -i_node);
                    nb.current(self.node(layer, 0, gn), i_node);
                }
            }
        }

        // SC converter cells (paper §3.2), with their per-cell effective
        // conductances.
        for (&(out, top, bottom, alpha), &g) in sites.iter().zip(conv_g) {
            nb.converter_with_ratio(out, top, bottom, g, alpha);
        }

        AssembledVs {
            nb,
            vdd_pads,
            gnd_pads,
            g_via_stack,
            g_gnd_pad,
            v_supply,
        }
    }

    /// Assembles and solves the network with explicit per-converter
    /// conductances `conv_g` and switching frequencies `conv_f` (parallel
    /// to [`VstackPdn::converter_sites`]), with `faults` open-circuited
    /// and an optional warm-start `guess`.
    #[allow(clippy::too_many_arguments)]
    fn solve_with_conductances(
        &self,
        loads: &StackLoads,
        sites: &[(usize, usize, usize, f64)],
        conv_g: &[f64],
        conv_f: &[f64],
        faults: &FaultSet,
        guess: Option<&[f64]>,
        scratch: &mut SolveScratch,
    ) -> Result<FaultedSolution, PdnError> {
        assert_eq!(sites.len(), conv_f.len(), "frequency count mismatch");
        let asm = self.assemble_with_conductances(loads, sites, conv_g, faults);
        let (v, report) = asm.nb.solve_scratch(guess, scratch)?;
        Ok(self.extract(
            loads,
            v,
            &asm.vdd_pads,
            &asm.gnd_pads,
            asm.g_via_stack,
            asm.g_gnd_pad,
            asm.v_supply,
            sites,
            conv_g,
            conv_f,
            faults,
            report,
        ))
    }

    /// Extracts the solution metrics from a solved voltage vector. The pad
    /// lists must be the pads *alive under `faults`* — the exact path
    /// passes the assembly's lists, the sketch path filters its baseline
    /// lists down ([`crate::sketch::FaultSketch::alive_pads`]).
    #[allow(clippy::too_many_arguments)]
    fn extract(
        &self,
        loads: &StackLoads,
        v: Vec<f64>,
        vdd_pads: &[(usize, usize)],
        gnd_pads: &[(usize, usize)],
        g_via_stack: f64,
        g_gnd_pad: f64,
        v_supply: f64,
        sites: &[(usize, usize, usize, f64)],
        conv_g: &[f64],
        conv_f: &[f64],
        faults: &FaultSet,
        report: vstack_sparse::SolveReport,
    ) -> FaultedSolution {
        let n = self.n_layers;
        let g_tsv = 1.0 / self.params.tsv_resistance_ohm;

        // --- Metrics ---
        let vdd_nom = self.params.vdd;
        let mut max_drop = f64::MIN;
        let mut worst_layer = 0;
        let mut per_layer_max_drop = vec![f64::MIN; self.n_layers];
        let mut drop_sum = 0.0;
        let mut drop_count = 0usize;
        let mut p_loads = 0.0;
        for layer in 0..n {
            for (core, nodes) in self.core_nodes.iter().enumerate() {
                let i_core = loads.core_current(layer, core);
                for (k, &gn) in nodes.iter().enumerate() {
                    let i_node = i_core * self.core_weights[core][k];
                    let local = v[self.node(layer, 1, gn)] - v[self.node(layer, 0, gn)];
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
        let mut tsv = ConductorCurrents::new();
        let mut vdd_pad_currents = Vec::with_capacity(vdd_pads.len());
        let mut p_input = 0.0;
        for &(ord, node) in vdd_pads {
            let i = g_via_stack * (v_supply - v[node]);
            vdd_c4.push(i, 1.0);
            vdd_pad_currents.push((ord, i));
            // The through-via stack adds N TSV segments per pad, all
            // carrying the pad current (paper §5.1: "we connect each Vdd C4
            // pad with only one TSV").
            tsv.push(i, n as f64);
            p_input += i * v_supply;
        }
        let mut gnd_c4 = ConductorCurrents::new();
        let mut gnd_pad_currents = Vec::with_capacity(gnd_pads.len());
        for &(ord, node) in gnd_pads {
            let i = g_gnd_pad * v[node];
            gnd_c4.push(i, 1.0);
            gnd_pad_currents.push((ord, i));
        }
        // Interface-TSV EM currents: per (interface, core) totals
        // distributed by the crowding model (grid-refinement independent).
        // Fully failed bundles carry nothing and are omitted.
        let mut tsv_groups = Vec::new();
        for layer in 0..n - 1 {
            for (core, nodes) in self.core_nodes.iter().enumerate() {
                let alive = self.alive_tsvs(faults, layer, core);
                if alive == 0.0 {
                    continue;
                }
                let per_node = alive / nodes.len() as f64;
                let mut i_core = 0.0;
                for &gn in nodes {
                    let lo = self.node(layer, 1, gn);
                    let hi = self.node(layer + 1, 0, gn);
                    i_core += (v[lo] - v[hi]).abs() * per_node * g_tsv;
                }
                tsv.push_crowded(
                    i_core,
                    alive,
                    self.params.tsv_hot_conductors_per_core,
                    self.params.tsv_crowding_spread,
                );
                tsv_groups.push(TsvGroupCurrent {
                    interface: layer,
                    core,
                    current_per_tsv_a: i_core / alive,
                    alive,
                });
            }
        }

        // Converter currents, overload count and parasitic power. Each
        // ladder stage swings one Vdd regardless of the sensed reference;
        // parasitic power follows each cell's actual switching frequency.
        let mut converter_currents = Vec::with_capacity(sites.len());
        let mut overloaded = 0usize;
        let mut p_par = 0.0;
        for ((&(out, top, bottom, alpha), &g), &f) in sites.iter().zip(conv_g).zip(conv_f) {
            let v_ideal = alpha * v[top] + (1.0 - alpha) * v[bottom];
            let i_out = (v_ideal - v[out]) * g;
            if self.converter.is_overloaded(i_out) {
                overloaded += 1;
            }
            p_par += self.converter.parasitic_power(f, vdd_nom);
            converter_currents.push(i_out);
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
mod tests {
    use super::*;
    use vstack_power::workload::ImbalancePattern;

    fn quick_params() -> PdnParams {
        let mut p = PdnParams::paper_defaults();
        p.grid_refinement = 1;
        p
    }

    fn vs_pdn(p: &PdnParams, layers: usize, conv_per_core: usize) -> VstackPdn {
        VstackPdn::new(
            p,
            layers,
            TsvTopology::Few,
            0.25,
            ScConverter::paper_28nm(),
            conv_per_core,
        )
    }

    #[test]
    fn balanced_stack_has_small_ir_drop() {
        let p = quick_params();
        let pdn = vs_pdn(&p, 4, 4);
        let loads = StackLoads::interleaved(&p, 4, &ImbalancePattern::new(0.0));
        let sol = pdn.solve(&loads).unwrap();
        assert!(
            sol.max_ir_drop_frac < 0.02,
            "balanced V-S should be quiet, got {}",
            sol.max_ir_drop_frac
        );
        assert!(!sol.has_overload());
    }

    #[test]
    fn imbalance_raises_ir_drop() {
        let p = quick_params();
        let pdn = vs_pdn(&p, 4, 8);
        let quiet = pdn
            .solve(&StackLoads::interleaved(&p, 4, &ImbalancePattern::new(0.0)))
            .unwrap();
        let noisy = pdn
            .solve(&StackLoads::interleaved(&p, 4, &ImbalancePattern::new(0.8)))
            .unwrap();
        assert!(noisy.max_ir_drop_frac > quiet.max_ir_drop_frac);
    }

    #[test]
    fn more_converters_reduce_noise() {
        let p = quick_params();
        let pattern = ImbalancePattern::new(0.6);
        let loads = StackLoads::interleaved(&p, 4, &pattern);
        let few = vs_pdn(&p, 4, 2).solve(&loads).unwrap();
        let many = vs_pdn(&p, 4, 8).solve(&loads).unwrap();
        assert!(many.max_ir_drop_frac < few.max_ir_drop_frac);
    }

    #[test]
    fn converter_current_tracks_mismatch() {
        let p = quick_params();
        let pdn = vs_pdn(&p, 4, 4);
        // 60% imbalance: per-core dynamic mismatch = 0.6 · 0.38 A = 0.228 A
        // shared by 4 converters ⇒ ≈57 mA each.
        let loads = StackLoads::interleaved(&p, 4, &ImbalancePattern::new(0.6));
        let sol = pdn.solve(&loads).unwrap();
        let mean_abs: f64 = sol.converter_currents.iter().map(|i| i.abs()).sum::<f64>()
            / sol.converter_currents.len() as f64;
        assert!(
            (mean_abs - 0.057).abs() < 0.02,
            "expected ≈57 mA per converter, got {mean_abs}"
        );
    }

    #[test]
    fn overload_detected_at_extreme_imbalance() {
        let p = quick_params();
        let pdn = vs_pdn(&p, 4, 2);
        // 100% imbalance with 2 converters/core ⇒ 190 mA per converter.
        let loads = StackLoads::interleaved(&p, 4, &ImbalancePattern::new(1.0));
        let sol = pdn.solve(&loads).unwrap();
        assert!(sol.has_overload());
    }

    #[test]
    fn pad_current_independent_of_layer_count() {
        // The V-S scalability claim: per-pad current stays ≈I_layer/N_pads
        // regardless of stacking depth.
        let p = quick_params();
        let balanced = ImbalancePattern::new(0.0);
        let i2 = vs_pdn(&p, 2, 4)
            .solve(&StackLoads::interleaved(&p, 2, &balanced))
            .unwrap()
            .vdd_c4
            .mean_current();
        let i8 = vs_pdn(&p, 8, 4)
            .solve(&StackLoads::interleaved(&p, 8, &balanced))
            .unwrap()
            .vdd_c4
            .mean_current();
        assert!(
            (i8 - i2).abs() / i2 < 0.05,
            "pad current must not scale with layers: {i2} vs {i8}"
        );
    }

    #[test]
    fn energy_accounting_consistent() {
        let p = quick_params();
        let pdn = vs_pdn(&p, 4, 4);
        let loads = StackLoads::interleaved(&p, 4, &ImbalancePattern::new(0.3));
        let sol = pdn.solve(&loads).unwrap();
        assert!(sol.p_input_w > sol.p_loads_w, "losses must be positive");
        let eff = sol.efficiency();
        assert!(eff > 0.8 && eff < 1.0, "efficiency {eff}");
    }

    #[test]
    fn intermediate_rails_sit_at_integer_vdd() {
        let p = quick_params();
        let pdn = vs_pdn(&p, 4, 4);
        let loads = StackLoads::interleaved(&p, 4, &ImbalancePattern::new(0.0));
        let sol = pdn.solve(&loads).unwrap();
        // With balanced loads every layer sees ≈1 V; mean drop small.
        assert!(sol.mean_ir_drop_frac.abs() < 0.01);
    }

    #[test]
    fn closed_loop_converges_and_reports_iterations() {
        let p = quick_params();
        let pdn = VstackPdn::new(
            &p,
            4,
            TsvTopology::Few,
            0.25,
            ScConverter::paper_28nm_closed_loop(),
            4,
        );
        let loads = StackLoads::interleaved(&p, 4, &ImbalancePattern::new(0.5));
        let (sol, iterations) = pdn.solve_closed_loop(&loads).unwrap();
        assert!((1..50).contains(&iterations), "took {iterations}");
        assert!(sol.max_ir_drop_frac > 0.0);
    }

    #[test]
    fn closed_loop_cuts_parasitic_power_at_low_imbalance() {
        // The whole point of frequency modulation: lightly loaded
        // converters slow their clocks and stop burning switching power.
        let p = quick_params();
        let loads = StackLoads::interleaved(&p, 4, &ImbalancePattern::new(0.1));
        let open = VstackPdn::new(&p, 4, TsvTopology::Few, 0.25, ScConverter::paper_28nm(), 8)
            .solve(&loads)
            .unwrap();
        let closed = VstackPdn::new(
            &p,
            4,
            TsvTopology::Few,
            0.25,
            ScConverter::paper_28nm_closed_loop(),
            8,
        )
        .solve(&loads)
        .unwrap();
        assert!(
            closed.p_parasitic_w < 0.25 * open.p_parasitic_w,
            "closed {} vs open {}",
            closed.p_parasitic_w,
            open.p_parasitic_w
        );
        assert!(closed.efficiency() > open.efficiency());
    }

    #[test]
    fn closed_loop_dispatches_through_solve() {
        let p = quick_params();
        let pdn = VstackPdn::new(
            &p,
            4,
            TsvTopology::Few,
            0.25,
            ScConverter::paper_28nm_closed_loop(),
            4,
        );
        let loads = StackLoads::interleaved(&p, 4, &ImbalancePattern::new(0.5));
        let via_solve = pdn.solve(&loads).unwrap();
        let (direct, _) = pdn.solve_closed_loop(&loads).unwrap();
        assert!((via_solve.max_ir_drop_frac - direct.max_ir_drop_frac).abs() < 1e-12);
    }

    #[test]
    fn transient_step_settles_to_dc() {
        let p = quick_params();
        let pdn = vs_pdn(&p, 4, 8);
        let before = StackLoads::interleaved(&p, 4, &ImbalancePattern::new(0.0));
        let after = StackLoads::interleaved(&p, 4, &ImbalancePattern::new(0.65));
        let cfg = crate::transient::PdnTransientConfig::default();
        let resp = pdn.solve_transient_step(&before, &after, &cfg).unwrap();
        // Settles to the post-step DC value.
        let dc = pdn.solve(&after).unwrap().max_ir_drop_frac;
        assert!(
            (resp.final_drop() - dc).abs() < 0.1 * dc,
            "transient end {} vs DC {dc}",
            resp.final_drop()
        );
        // The step moves the rail, so the excursion exceeds the start.
        assert!(resp.peak_drop() > resp.initial_drop);
    }

    #[test]
    fn bigger_decap_smaller_overshoot() {
        let p = quick_params();
        let pdn = vs_pdn(&p, 4, 8);
        let before = StackLoads::interleaved(&p, 4, &ImbalancePattern::new(0.0));
        let after = StackLoads::interleaved(&p, 4, &ImbalancePattern::new(0.8));
        let small = crate::transient::PdnTransientConfig {
            decap_per_core_f: 5e-9,
            ..Default::default()
        };
        let large = crate::transient::PdnTransientConfig {
            decap_per_core_f: 100e-9,
            ..Default::default()
        };
        let r_small = pdn.solve_transient_step(&before, &after, &small).unwrap();
        let r_large = pdn.solve_transient_step(&before, &after, &large).unwrap();
        // More decap slows the rail excursion: at any early sample the
        // large-decap response has moved less from the initial state.
        let early = 10; // 5 ns in
        let d_small = r_small.max_drop_series[early] - r_small.initial_drop;
        let d_large = r_large.max_drop_series[early] - r_large.initial_drop;
        assert!(
            d_large < d_small,
            "decap should slow the excursion: {d_large} vs {d_small}"
        );
    }

    #[test]
    fn transient_of_null_step_is_flat() {
        let p = quick_params();
        let pdn = vs_pdn(&p, 2, 4);
        let loads = StackLoads::interleaved(&p, 2, &ImbalancePattern::new(0.3));
        let cfg = crate::transient::PdnTransientConfig {
            duration_s: 20e-9,
            ..Default::default()
        };
        let resp = pdn.solve_transient_step(&loads, &loads, &cfg).unwrap();
        for d in &resp.max_drop_series {
            assert!(
                (d - resp.initial_drop).abs() < 1e-4,
                "null step must not move the rails"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least two layers")]
    fn single_layer_stack_rejected() {
        let p = quick_params();
        vs_pdn(&p, 1, 4);
    }

    #[test]
    fn killed_via_stack_shifts_current_to_survivors() {
        let p = quick_params();
        let pdn = vs_pdn(&p, 4, 4);
        let loads = StackLoads::interleaved(&p, 4, &ImbalancePattern::new(0.2));
        let healthy = pdn
            .solve_faulted(&loads, &crate::fault::FaultSet::new(), None)
            .unwrap();
        let &(victim, _) = healthy
            .vdd_pad_currents
            .iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap();
        let mut faults = crate::fault::FaultSet::new();
        faults.fail_vdd_pad(victim);
        let wounded = pdn
            .solve_faulted(&loads, &faults, Some(&healthy.voltages))
            .unwrap();
        assert_eq!(
            wounded.vdd_pad_currents.len(),
            healthy.vdd_pad_currents.len() - 1
        );
        let sum = |c: &[(usize, f64)]| c.iter().map(|&(_, i)| i).sum::<f64>();
        let (i_h, i_w) = (
            sum(&healthy.vdd_pad_currents),
            sum(&wounded.vdd_pad_currents),
        );
        assert!((i_h - i_w).abs() / i_h < 1e-2, "{i_h} vs {i_w}");
    }

    #[test]
    fn interface_tsv_faults_raise_survivor_stress() {
        let p = quick_params();
        let pdn = vs_pdn(&p, 4, 4);
        let loads = StackLoads::interleaved(&p, 4, &ImbalancePattern::new(0.4));
        let healthy = pdn
            .solve_faulted(&loads, &crate::fault::FaultSet::new(), None)
            .unwrap();
        let mut faults = crate::fault::FaultSet::new();
        let n_kill = TsvTopology::Few.tsvs_per_core() * 3 / 4;
        faults.fail_tsvs(1, 0, n_kill);
        let wounded = pdn.solve_faulted(&loads, &faults, None).unwrap();
        let group = |f: &crate::fault::FaultedSolution| {
            *f.tsv_groups
                .iter()
                .find(|g| g.interface == 1 && g.core == 0)
                .unwrap()
        };
        let (gh, gw) = (group(&healthy), group(&wounded));
        assert_eq!(gw.alive, gh.alive - n_kill as f64);
        assert!(gw.current_per_tsv_a > gh.current_per_tsv_a);
    }

    #[test]
    fn empty_fault_set_matches_plain_solve() {
        let p = quick_params();
        let pdn = vs_pdn(&p, 2, 4);
        let loads = StackLoads::interleaved(&p, 2, &ImbalancePattern::new(0.3));
        let plain = pdn.solve(&loads).unwrap();
        let faulted = pdn
            .solve_faulted(&loads, &crate::fault::FaultSet::new(), None)
            .unwrap();
        assert!((plain.max_ir_drop_frac - faulted.solution.max_ir_drop_frac).abs() < 1e-12);
        assert!(!faulted.report.was_rescued(), "{}", faulted.report.trail());
    }

    #[test]
    fn scratch_reuse_is_bit_identical_for_both_control_policies() {
        let p = quick_params();
        let loads = StackLoads::interleaved(&p, 4, &ImbalancePattern::new(0.5));
        for converter in [
            ScConverter::paper_28nm(),
            ScConverter::paper_28nm_closed_loop(),
        ] {
            let pdn = VstackPdn::new(&p, 4, TsvTopology::Few, 0.25, converter, 4);
            let mut scratch = SolveScratch::new();
            let mut faults = crate::fault::FaultSet::new();
            for step in 0..2 {
                if step > 0 {
                    faults.fail_vdd_pad(0);
                    faults.fail_tsvs(1, 0, 2);
                }
                let fresh = pdn.solve_faulted(&loads, &faults, None).unwrap();
                let reused = pdn
                    .solve_faulted_scratch(&loads, &faults, None, &mut scratch)
                    .unwrap();
                assert_eq!(fresh.voltages, reused.voltages, "step {step}");
                assert_eq!(fresh.report.trail(), reused.report.trail());
            }
        }
    }

    /// Every point of a fault-free sweep, as `(index, solution)` pairs in
    /// the order `solve_load_sweep` handed them over.
    fn sweep(
        pdn: &VstackPdn,
        loads: &[StackLoads],
        scratch: &mut SolveScratch,
    ) -> Vec<(usize, FaultedSolution)> {
        let mut points = Vec::new();
        pdn.solve_load_sweep(loads, scratch, &mut |i, sol| points.push((i, sol)))
            .unwrap();
        assert_eq!(
            points.iter().map(|p| p.0).collect::<Vec<_>>(),
            (0..loads.len()).collect::<Vec<_>>()
        );
        points
    }

    /// The point solved alone on a fresh scratch.
    fn fresh(pdn: &VstackPdn, loads: &StackLoads) -> FaultedSolution {
        pdn.solve_faulted_scratch(loads, &FaultSet::new(), None, &mut SolveScratch::new())
            .unwrap()
    }

    /// Direct envelope-Cholesky solve of the point's stamped open-loop
    /// system: no Krylov code involved.
    fn direct(pdn: &VstackPdn, loads: &StackLoads) -> Vec<f64> {
        let sites = pdn.converter_sites();
        let g = vec![1.0 / pdn.converter.r_series(pdn.converter.f_nom); sites.len()];
        let asm = pdn.assemble_with_conductances(loads, &sites, &g, &FaultSet::new());
        let a = asm.nb.to_matrix();
        let chol = vstack_sparse::EnvelopeCholesky::factor(&a).unwrap();
        let (mut x, mut work) = (vec![0.0; a.rows()], vec![0.0; a.rows()]);
        chol.solve_into(asm.nb.rhs(), &mut x, &mut work);
        x
    }

    #[test]
    fn load_sweep_superposes_interior_points_within_direct_tolerance() {
        let p = quick_params();
        let sweeps: [&[f64]; 4] = [
            &[0.0, 0.5, 1.0],
            &[0.1, 0.35, 0.4, 0.9],
            &[1.0, 0.75, 0.5, 0.25, 0.0],
            &[0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0],
        ];
        for layers in 2..=4 {
            for k in [2, 8] {
                let pdn = vs_pdn(&p, layers, k);
                for xs in sweeps {
                    let loads: Vec<StackLoads> = xs
                        .iter()
                        .map(|&x| StackLoads::interleaved(&p, layers, &ImbalancePattern::new(x)))
                        .collect();
                    let mut scratch = SolveScratch::new();
                    let points = sweep(&pdn, &loads, &mut scratch);
                    let case = format!("{layers} layers, {k}/core, {xs:?}");
                    assert_eq!(
                        scratch.pattern_builds() + scratch.pattern_reuses(),
                        2,
                        "{case}: only the endpoints reach the ladder"
                    );
                    for (i, sol) in &points {
                        let want = direct(&pdn, &loads[*i]);
                        let scale = want.iter().fold(0.0f64, |m, v| m.max(v.abs()));
                        let err = sol
                            .voltages
                            .iter()
                            .zip(&want)
                            .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
                        assert!(err <= 1e-8 * scale, "{case} point {i}: {err} of {scale}");
                        if *i == 0 || *i == xs.len() - 1 {
                            let alone = fresh(&pdn, &loads[*i]);
                            assert_eq!(sol.voltages, alone.voltages, "{case} point {i}");
                            assert_eq!(sol.report, alone.report, "{case} point {i}");
                        } else {
                            assert_eq!(sol.report.method, SolveMethod::Superposition);
                            assert_eq!(sol.report.iterations, 0, "{case} point {i}");
                            assert!(
                                sol.report.relative_residual <= 1e-9,
                                "{case} point {i}: {}",
                                sol.report.relative_residual
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn load_sweep_solves_off_segment_points_on_the_ladder() {
        let p = quick_params();
        let pdn = vs_pdn(&p, 4, 4);
        let interleaved = |x| StackLoads::interleaved(&p, 4, &ImbalancePattern::new(x));
        // Every layer half active is not on the line between the
        // interleaved 0% and 100% patterns, whose high layers stay at peak.
        let loads = [
            interleaved(0.0),
            interleaved(0.25),
            StackLoads::from_activities(&p, &[0.5; 4]),
            interleaved(1.0),
        ];
        let mut scratch = SolveScratch::new();
        let points = sweep(&pdn, &loads, &mut scratch);
        assert_eq!(scratch.pattern_builds() + scratch.pattern_reuses(), 3);
        assert_eq!(points[1].1.report.method, SolveMethod::Superposition);
        let alone = fresh(&pdn, &loads[2]);
        assert_eq!(points[2].1.voltages, alone.voltages);
        assert_eq!(points[2].1.report, alone.report);
        assert_ne!(alone.report.method, SolveMethod::Superposition);
    }

    #[test]
    fn closed_loop_and_short_sweeps_solve_every_point_on_the_ladder() {
        let p = quick_params();
        let closed = VstackPdn::new(
            &p,
            4,
            TsvTopology::Few,
            0.25,
            ScConverter::paper_28nm_closed_loop(),
            4,
        );
        let open = vs_pdn(&p, 4, 4);
        for (pdn, xs) in [(&closed, &[0.1, 0.5, 1.0][..]), (&open, &[0.2, 0.8][..])] {
            let loads: Vec<StackLoads> = xs
                .iter()
                .map(|&x| StackLoads::interleaved(&p, 4, &ImbalancePattern::new(x)))
                .collect();
            for (i, sol) in sweep(pdn, &loads, &mut SolveScratch::new()) {
                let alone = fresh(pdn, &loads[i]);
                assert_eq!(sol.voltages, alone.voltages, "{xs:?} point {i}");
                assert_eq!(sol.report, alone.report, "{xs:?} point {i}");
                assert_ne!(sol.report.method, SolveMethod::Superposition);
            }
        }
    }

    #[test]
    fn closed_loop_threads_faults() {
        let p = quick_params();
        let pdn = VstackPdn::new(
            &p,
            4,
            TsvTopology::Few,
            0.25,
            ScConverter::paper_28nm_closed_loop(),
            4,
        );
        let loads = StackLoads::interleaved(&p, 4, &ImbalancePattern::new(0.5));
        let mut faults = crate::fault::FaultSet::new();
        faults.fail_vdd_pad(0);
        faults.fail_vdd_pad(1);
        let (sol, iterations) = pdn
            .solve_closed_loop_faulted(&loads, &faults, None)
            .unwrap();
        assert!((1..50).contains(&iterations));
        assert!(!sol.vdd_pad_currents.iter().any(|&(o, _)| o < 2));
    }
}
