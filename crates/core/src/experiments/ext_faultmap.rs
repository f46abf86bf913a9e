//! Extension study: exhaustive what-if **fault maps**.
//!
//! The wearout loop ([`crate::experiments::ext_wearout`]) follows one
//! degradation trajectory; this study asks the orthogonal question: *which
//! single element would hurt most if it failed right now?* It enumerates
//! every single-element fault — each power pad and each TSV bundle opened
//! in isolation (N-choose-1, exhaustive) — plus a deterministic sample of
//! element *pairs* (N-choose-2), and reports the worst IR drop of each
//! faulted network, sorted worst-first.
//!
//! Brute force, this is N (or N²) full ladder solves. The rank-k
//! Sherman–Morrison–Woodbury fault sketch
//! ([`vstack_pdn::FaultSketch`], driven through
//! `solve_faulted_sketched`) collapses each what-if to a dense rank-k
//! update against one cached baseline, so the whole map costs one exact
//! solve, one factorization of the baseline matrix, and two triangular
//! sweeps per fault column — the per-query marginal cost is microseconds. Every entry records whether
//! it was sketch-answered, so the map doubles as an integration check of
//! the sketch's coverage.
//!
//! Fault sets that disconnect the network (or exceed the sketch budget)
//! take the exact path; a disconnection is reported as a terminal entry
//! (`disconnected`, drop = ∞ for ranking), not an error.

use vstack_pdn::{FaultSet, FaultedSolution, PdnError, SolveScratch, TsvTopology};
use vstack_sparse::SolveError;

use crate::experiments::Fidelity;
use crate::scenario::DesignScenario;

/// One fault-able network element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultElement {
    /// A supply-net power pad, by C4 ordinal.
    VddPad(usize),
    /// A return-net power pad, by C4 ordinal.
    GndPad(usize),
    /// An entire vertical TSV bundle at `(interface, core)` — every
    /// conductor of the bundle opened.
    TsvBundle {
        /// Layer interface index (0 = between layers 0 and 1).
        interface: usize,
        /// Core index within the floorplan.
        core: usize,
    },
}

impl std::fmt::Display for FaultElement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultElement::VddPad(ord) => write!(f, "vdd_pad[{ord}]"),
            FaultElement::GndPad(ord) => write!(f, "gnd_pad[{ord}]"),
            FaultElement::TsvBundle { interface, core } => {
                write!(f, "tsv[{interface},{core}]")
            }
        }
    }
}

/// One what-if query of the map.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultMapEntry {
    /// The opened elements (one for singles, two for pairs).
    pub elements: Vec<FaultElement>,
    /// Worst IR drop of the faulted network as a fraction of Vdd;
    /// `f64::INFINITY` when the fault disconnects the network.
    pub max_ir_drop_frac: f64,
    /// Whether the fault isolated part of the grid from every rail.
    pub disconnected: bool,
    /// Whether the answer came from the SMW sketch (vs the exact ladder).
    pub sketched: bool,
}

/// The ranked fault map of one topology.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultMap {
    /// `"regular"` or `"voltage-stacked"`.
    pub label: &'static str,
    /// Stacked layer count.
    pub n_layers: usize,
    /// Worst IR drop of the healthy network.
    pub baseline_drop_frac: f64,
    /// Every single-element fault, exhaustive, sorted worst-first
    /// (disconnections first, then by drop; ties by element order).
    pub singles: Vec<FaultMapEntry>,
    /// Deterministically sampled element pairs, sorted worst-first.
    pub pairs: Vec<FaultMapEntry>,
}

impl FaultMap {
    /// Share of entries (singles + pairs) answered by the SMW sketch.
    pub fn sketched_fraction(&self) -> f64 {
        let total = self.singles.len() + self.pairs.len();
        if total == 0 {
            return 0.0;
        }
        let hit = self
            .singles
            .iter()
            .chain(&self.pairs)
            .filter(|e| e.sketched)
            .count();
        hit as f64 / total as f64
    }

    /// The most damaging single-element fault (the map is sorted).
    pub fn worst_single(&self) -> Option<&FaultMapEntry> {
        self.singles.first()
    }
}

/// Configuration of the fault-map sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultMapConfig {
    /// Grid fidelity of the underlying solves.
    pub fidelity: Fidelity,
    /// Stacked layer count.
    pub n_layers: usize,
    /// Number of element pairs to sample for the N-choose-2 map.
    pub pair_samples: usize,
    /// Seed of the deterministic LCG drawing the pair sample.
    pub seed: u64,
}

impl Default for FaultMapConfig {
    fn default() -> Self {
        FaultMapConfig {
            fidelity: Fidelity::Paper,
            n_layers: 8,
            pair_samples: 128,
            seed: 0x5eed_fa17,
        }
    }
}

impl FaultMapConfig {
    /// CI-speed variant: coarse grid, shallow stack, thin pair sample.
    pub fn quick() -> Self {
        FaultMapConfig {
            fidelity: Fidelity::Quick,
            n_layers: 2,
            pair_samples: 24,
            ..FaultMapConfig::default()
        }
    }
}

/// Minimal multiplicative LCG (Knuth MMIX constants) — deterministic pair
/// sampling with no RNG dependency.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 16
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// Every fault-able element of a topology, in deterministic order.
fn candidates(
    vdd_pads: usize,
    gnd_pads: usize,
    interfaces: usize,
    cores: usize,
) -> Vec<FaultElement> {
    let mut c = Vec::with_capacity(vdd_pads + gnd_pads + interfaces * cores);
    c.extend((0..vdd_pads).map(FaultElement::VddPad));
    c.extend((0..gnd_pads).map(FaultElement::GndPad));
    for interface in 0..interfaces {
        for core in 0..cores {
            c.push(FaultElement::TsvBundle { interface, core });
        }
    }
    c
}

/// The fault set opening the given elements (`tsvs_per_bundle` conductors
/// per TSV-bundle element — the whole bundle).
fn fault_set_for(elements: &[FaultElement], tsvs_per_bundle: usize) -> FaultSet {
    let mut f = FaultSet::new();
    for &e in elements {
        match e {
            FaultElement::VddPad(ord) => f.fail_vdd_pad(ord),
            FaultElement::GndPad(ord) => f.fail_gnd_pad(ord),
            FaultElement::TsvBundle { interface, core } => {
                f.fail_tsvs(interface, core, tsvs_per_bundle);
            }
        }
    }
    f
}

/// Worst-first ordering: disconnections ahead of finite drops, larger
/// drops first, element order as the deterministic tiebreak.
fn rank(entries: &mut [FaultMapEntry]) {
    entries.sort_by(|a, b| {
        b.disconnected
            .cmp(&a.disconnected)
            .then(b.max_ir_drop_frac.total_cmp(&a.max_ir_drop_frac))
            .then(a.elements.cmp(&b.elements))
    });
}

fn sweep(
    label: &'static str,
    n_layers: usize,
    config: &FaultMapConfig,
    cands: &[FaultElement],
    tsvs_per_bundle: usize,
    solve: &mut dyn FnMut(&FaultSet, &mut SolveScratch) -> Result<FaultedSolution, PdnError>,
) -> Result<FaultMap, SolveError> {
    let mut scratch = SolveScratch::new();
    // Warm the sketch on the healthy baseline; a failure here is a real
    // error (the pristine network must solve).
    let baseline = match solve(&FaultSet::new(), &mut scratch) {
        Ok(s) => s,
        Err(PdnError::Solve(e)) => return Err(e),
        Err(PdnError::Disconnected { .. }) => {
            unreachable!("pristine network cannot be disconnected")
        }
    };

    let mut query = |elements: Vec<FaultElement>,
                     scratch: &mut SolveScratch|
     -> Result<FaultMapEntry, SolveError> {
        let faults = fault_set_for(&elements, tsvs_per_bundle);
        match solve(&faults, scratch) {
            Ok(s) => Ok(FaultMapEntry {
                elements,
                max_ir_drop_frac: s.solution.max_ir_drop_frac,
                disconnected: false,
                sketched: s.report.operator == "smw",
            }),
            Err(PdnError::Disconnected { .. }) => Ok(FaultMapEntry {
                elements,
                max_ir_drop_frac: f64::INFINITY,
                disconnected: true,
                sketched: false,
            }),
            Err(PdnError::Solve(e)) => Err(e),
        }
    };

    let mut singles = Vec::with_capacity(cands.len());
    for &e in cands {
        singles.push(query(vec![e], &mut scratch)?);
    }
    rank(&mut singles);

    // Deterministic pair sample, duplicates skipped (so the entry count
    // can fall short of the request on tiny candidate sets).
    let mut lcg = Lcg(config.seed ^ n_layers as u64);
    let mut seen = std::collections::BTreeSet::new();
    let mut pairs = Vec::with_capacity(config.pair_samples);
    let max_pairs = cands.len() * (cands.len() - 1) / 2;
    let mut draws = 0usize;
    while pairs.len() < config.pair_samples.min(max_pairs) && draws < config.pair_samples * 64 {
        draws += 1;
        let a = lcg.below(cands.len());
        let b = lcg.below(cands.len());
        if a == b {
            continue;
        }
        let key = (a.min(b), a.max(b));
        if !seen.insert(key) {
            continue;
        }
        pairs.push(query(vec![cands[key.0], cands[key.1]], &mut scratch)?);
    }
    rank(&mut pairs);

    Ok(FaultMap {
        label,
        n_layers,
        baseline_drop_frac: baseline.solution.max_ir_drop_frac,
        singles,
        pairs,
    })
}

fn scenario(config: &FaultMapConfig) -> DesignScenario {
    let mut p = DesignScenario::paper_baseline().pdn_params().clone();
    p.grid_refinement = config.fidelity.grid_refinement();
    DesignScenario::paper_baseline()
        .params(p)
        .layers(config.n_layers)
        .tsv_topology(TsvTopology::Few)
        .power_c4_fraction(0.25)
}

/// The exhaustive single-fault map (plus sampled pairs) of the regular
/// topology at full activity.
///
/// # Errors
///
/// Propagates [`SolveError`] only if a *solvable* network exhausts the
/// escalation ladder; disconnection is a ranked entry, not an error.
pub fn regular_fault_map(config: &FaultMapConfig) -> Result<FaultMap, SolveError> {
    let s = scenario(config);
    let pdn = s.regular_pdn();
    let loads = s.peak_loads();
    let cands = candidates(
        pdn.c4().vdd_count(),
        pdn.c4().gnd_count(),
        config.n_layers.saturating_sub(1),
        s.pdn_params().floorplan().core_count(),
    );
    sweep(
        "regular",
        config.n_layers,
        config,
        &cands,
        TsvTopology::Few.vdd_tsvs_per_core(),
        &mut |f, scratch| pdn.solve_faulted_sketched(&loads, f, scratch),
    )
}

/// The exhaustive single-fault map (plus sampled pairs) of the
/// voltage-stacked topology under the same full-activity workload.
///
/// # Errors
///
/// As for [`regular_fault_map`].
pub fn vs_fault_map(config: &FaultMapConfig) -> Result<FaultMap, SolveError> {
    let s = scenario(config);
    let pdn = s.voltage_stacked_pdn();
    let loads = s.peak_loads();
    let cands = candidates(
        pdn.c4().vdd_count(),
        pdn.c4().gnd_count(),
        config.n_layers.saturating_sub(1),
        s.pdn_params().floorplan().core_count(),
    );
    sweep(
        "voltage-stacked",
        config.n_layers,
        config,
        &cands,
        TsvTopology::Few.tsvs_per_core(),
        &mut |f, scratch| pdn.solve_faulted_sketched(&loads, f, scratch),
    )
}

/// Both topologies' maps, regular first.
///
/// # Errors
///
/// As for [`regular_fault_map`].
pub fn fault_map_comparison(config: &FaultMapConfig) -> Result<Vec<FaultMap>, SolveError> {
    Ok(vec![regular_fault_map(config)?, vs_fault_map(config)?])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_map_is_exhaustive_deterministic_and_ranked() {
        let cfg = FaultMapConfig::quick();
        let a = regular_fault_map(&cfg).unwrap();
        let b = regular_fault_map(&cfg).unwrap();
        assert_eq!(a, b, "the map must be bit-for-bit deterministic");

        let s = scenario(&cfg);
        let pdn = s.regular_pdn();
        let expected = pdn.c4().vdd_count()
            + pdn.c4().gnd_count()
            + (cfg.n_layers - 1) * s.pdn_params().floorplan().core_count();
        assert_eq!(a.singles.len(), expected, "N-choose-1 must be exhaustive");

        for w in a.singles.windows(2) {
            assert!(
                w[0].disconnected
                    || w[0].max_ir_drop_frac >= w[1].max_ir_drop_frac
                    || w[1].disconnected == w[0].disconnected,
                "singles must be ranked worst-first"
            );
        }
        // Opening an element can only hurt.
        let worst = a.worst_single().unwrap();
        assert!(worst.disconnected || worst.max_ir_drop_frac >= a.baseline_drop_frac - 1e-12);
    }

    #[test]
    fn warm_queries_are_mostly_sketch_answered() {
        let cfg = FaultMapConfig::quick();
        for map in fault_map_comparison(&cfg).unwrap() {
            assert!(
                map.sketched_fraction() > 0.5,
                "{}: sketched fraction {} — the sketch is not engaging",
                map.label,
                map.sketched_fraction()
            );
        }
    }

    #[test]
    fn pair_sample_is_deduped_and_bounded() {
        let cfg = FaultMapConfig::quick();
        let map = vs_fault_map(&cfg).unwrap();
        assert!(map.pairs.len() <= cfg.pair_samples);
        assert!(!map.pairs.is_empty());
        let mut keys: Vec<_> = map
            .pairs
            .iter()
            .map(|e| {
                let mut k = e.elements.clone();
                k.sort();
                k
            })
            .collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), map.pairs.len(), "pair sample must be unique");
        for e in &map.pairs {
            assert_eq!(e.elements.len(), 2);
        }
    }
}
