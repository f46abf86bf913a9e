//! Open-circuit fault injection for C4 pads and TSVs.
//!
//! Electromigration kills conductors one at a time: a pad or TSV whose
//! cumulative current stress exceeds its Black's-equation budget becomes
//! an open circuit, and the surviving network re-distributes the current.
//! [`FaultSet`] is the bookkeeping for that process — it names which
//! supply/return pads and how many TSVs per (interface, core) bundle have
//! failed — and the fault-aware solve paths
//! ([`crate::Pdn::solve_faulted_scratch`],
//! [`crate::Pdn::solve_faulted_sketched`]) re-stamp the grid with the dead
//! conductors removed (or downdate a cached baseline).
//!
//! Pads are identified by their **ordinal among power pads of the same
//! net** in [`crate::c4::C4Array::pads`] order, which is stable across
//! solves; TSV bundles by `(interface, core)` where interface `l` joins
//! layers `l` and `l + 1`. In the regular topology a TSV fault count
//! applies symmetrically to both the supply and return bundles of its
//! (interface, core) — EM stress is symmetric there because the two nets
//! carry mirror currents.

use std::collections::{BTreeMap, BTreeSet};

use vstack_sparse::SolveReport;

use crate::solution::PdnSolution;

/// A set of open-circuited conductors to remove from the stamped network.
///
/// Empty by default; [`FaultSet::is_empty`] networks solve identically to
/// the unfaulted paths.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSet {
    failed_vdd_pads: BTreeSet<usize>,
    failed_gnd_pads: BTreeSet<usize>,
    /// `(interface, core) →` number of failed TSVs in that bundle.
    failed_tsvs: BTreeMap<(usize, usize), usize>,
}

impl FaultSet {
    /// An empty fault set (no conductor removed).
    pub fn new() -> Self {
        FaultSet::default()
    }

    /// Whether no fault has been injected.
    pub fn is_empty(&self) -> bool {
        self.failed_vdd_pads.is_empty()
            && self.failed_gnd_pads.is_empty()
            && self.failed_tsvs.is_empty()
    }

    /// Open-circuits supply pad `ordinal` (its index among Vdd power pads
    /// in [`crate::c4::C4Array::pads`] order). Idempotent.
    pub fn fail_vdd_pad(&mut self, ordinal: usize) {
        self.failed_vdd_pads.insert(ordinal);
    }

    /// Open-circuits return pad `ordinal` (its index among Gnd power pads
    /// in [`crate::c4::C4Array::pads`] order). Idempotent.
    pub fn fail_gnd_pad(&mut self, ordinal: usize) {
        self.failed_gnd_pads.insert(ordinal);
    }

    /// Open-circuits `count` more TSVs of the `(interface, core)` bundle.
    /// Counts accumulate across calls; the solve paths clamp the bundle at
    /// zero survivors.
    pub fn fail_tsvs(&mut self, interface: usize, core: usize, count: usize) {
        if count == 0 {
            return;
        }
        *self.failed_tsvs.entry((interface, core)).or_insert(0) += count;
    }

    /// Whether supply pad `ordinal` has failed.
    pub fn vdd_pad_failed(&self, ordinal: usize) -> bool {
        self.failed_vdd_pads.contains(&ordinal)
    }

    /// Whether return pad `ordinal` has failed.
    pub fn gnd_pad_failed(&self, ordinal: usize) -> bool {
        self.failed_gnd_pads.contains(&ordinal)
    }

    /// Failed-TSV count of the `(interface, core)` bundle.
    pub fn failed_tsv_count(&self, interface: usize, core: usize) -> usize {
        self.failed_tsvs
            .get(&(interface, core))
            .copied()
            .unwrap_or(0)
    }

    /// Number of failed supply pads.
    pub fn failed_vdd_pad_count(&self) -> usize {
        self.failed_vdd_pads.len()
    }

    /// Number of failed return pads.
    pub fn failed_gnd_pad_count(&self) -> usize {
        self.failed_gnd_pads.len()
    }

    /// Total failed TSVs across every bundle.
    pub fn failed_tsv_total(&self) -> usize {
        self.failed_tsvs.values().sum()
    }

    /// Failed supply-pad ordinals in ascending order. The ordering is a
    /// guarantee: callers hash and diff fault sets by iterating these
    /// accessors, so two sets built in different orders compare — and
    /// fingerprint — identically.
    pub fn vdd_pad_ordinals(&self) -> impl Iterator<Item = usize> + '_ {
        self.failed_vdd_pads.iter().copied()
    }

    /// Failed return-pad ordinals in ascending order (see
    /// [`FaultSet::vdd_pad_ordinals`] for the ordering guarantee).
    pub fn gnd_pad_ordinals(&self) -> impl Iterator<Item = usize> + '_ {
        self.failed_gnd_pads.iter().copied()
    }

    /// Failed-TSV bundles as `((interface, core), count)` in ascending
    /// key order, zero-count entries never included.
    pub fn tsv_bundles(&self) -> impl Iterator<Item = ((usize, usize), usize)> + '_ {
        self.failed_tsvs.iter().map(|(&k, &v)| (k, v))
    }

    /// Whether every fault in `self` is also present in `other` (pads a
    /// subset, each TSV bundle count `≤` the other's). The sketch rebase
    /// planner uses this to decide whether a query is reachable from a
    /// cached baseline by *removing more* conductors.
    pub fn is_subset_of(&self, other: &FaultSet) -> bool {
        self.failed_vdd_pads.is_subset(&other.failed_vdd_pads)
            && self.failed_gnd_pads.is_subset(&other.failed_gnd_pads)
            && self
                .failed_tsvs
                .iter()
                .all(|(k, &count)| other.failed_tsv_count(k.0, k.1) >= count)
    }
}

/// Per-conductor current of one surviving TSV bundle, with its identity —
/// the granularity the wearout loop kills at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TsvGroupCurrent {
    /// Interface index (`l` joins layers `l` and `l + 1`).
    pub interface: usize,
    /// Core index within the floorplan.
    pub core: usize,
    /// Mean current per surviving TSV, in amperes. For the regular
    /// topology this is the worse of the two nets' bundles.
    pub current_per_tsv_a: f64,
    /// Surviving TSVs in the bundle (per net for the regular topology).
    pub alive: f64,
}

/// Result of a fault-aware solve: the usual metrics plus everything the
/// wearout loop needs to pick its next victims and warm-start the next
/// solve.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultedSolution {
    /// The standard solution metrics (over surviving conductors only).
    pub solution: PdnSolution,
    /// How the sparse solve was obtained — records every escalation-ladder
    /// fallback taken on the way.
    pub report: SolveReport,
    /// The full node-voltage vector, usable as the warm-start guess for
    /// the next solve after further faults.
    pub voltages: Vec<f64>,
    /// `(pad ordinal, current A)` of each surviving supply pad.
    pub vdd_pad_currents: Vec<(usize, f64)>,
    /// `(pad ordinal, current A)` of each surviving return pad.
    pub gnd_pad_currents: Vec<(usize, f64)>,
    /// Per-bundle TSV currents with `(interface, core)` identity.
    pub tsv_groups: Vec<TsvGroupCurrent>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_by_default() {
        let f = FaultSet::new();
        assert!(f.is_empty());
        assert!(!f.vdd_pad_failed(0));
        assert_eq!(f.failed_tsv_count(0, 0), 0);
    }

    #[test]
    fn pad_faults_are_idempotent() {
        let mut f = FaultSet::new();
        f.fail_vdd_pad(3);
        f.fail_vdd_pad(3);
        f.fail_gnd_pad(1);
        assert_eq!(f.failed_vdd_pad_count(), 1);
        assert_eq!(f.failed_gnd_pad_count(), 1);
        assert!(f.vdd_pad_failed(3) && !f.vdd_pad_failed(2));
        assert!(f.gnd_pad_failed(1));
        assert!(!f.is_empty());
    }

    #[test]
    fn tsv_faults_accumulate() {
        let mut f = FaultSet::new();
        f.fail_tsvs(0, 2, 5);
        f.fail_tsvs(0, 2, 3);
        f.fail_tsvs(1, 0, 7);
        f.fail_tsvs(1, 1, 0); // no-op
        assert_eq!(f.failed_tsv_count(0, 2), 8);
        assert_eq!(f.failed_tsv_count(1, 0), 7);
        assert_eq!(f.failed_tsv_count(1, 1), 0);
        assert_eq!(f.failed_tsv_total(), 15);
    }
}
