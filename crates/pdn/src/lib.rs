//! VoltSpot-style pre-RTL power-delivery-network (PDN) model for 3D-ICs,
//! with both **regular** and **voltage-stacked** (V-S) topologies.
//!
//! This crate is the paper's §3.2: it extends a 2D on-chip PDN model
//! (VoltSpot, paper ref \[18\]) to many-layer 3D-ICs. Each silicon layer
//! carries two on-chip metal grids (supply and return); C4 pads connect the
//! stack to the board; TSVs connect adjacent layers. Loads are ideal
//! current sources derived from the `vstack-power` models.
//!
//! Both topologies are one [`Pdn`] type ([`model`]), whose only topology
//! switch is an optional [`Stacking`] spec:
//!
//! * without it, the conventional topology ([`regular`], paper Fig 4a):
//!   all layers' Vdd nets parallel-connected by TSV stacks, all ground
//!   nets likewise, every layer's current flowing through the same pads.
//! * with it, the charge-recycled topology ([`vstacked`], paper Fig 4b):
//!   layers in series, `N·Vdd` delivered to the top layer through
//!   dedicated through-via stacks, ground returned from the bottom layer,
//!   and push-pull SC converters regulating every intermediate rail.
//!
//! Both reduce to **symmetric positive-definite** sparse systems — the SC
//! converter compact model (ideal `(V_top + V_bottom)/2` source behind
//! `R_SERIES`) Norton-transforms into a rank-1 PSD stamp
//! `(1/R)·u·uᵀ, u = (1, −½, −½)` over its (out, top, bottom) nodes — so a
//! single preconditioned conjugate-gradient solve yields every node
//! voltage, pad current, TSV current and converter current.
//!
//! # Example
//!
//! ```
//! use vstack_pdn::{params::PdnParams, stack::StackLoads, tsv::TsvTopology, Pdn, Stacking};
//! use vstack_power::workload::ImbalancePattern;
//! use vstack_sc::compact::ScConverter;
//!
//! # fn main() -> Result<(), vstack_sparse::SolveError> {
//! let params = PdnParams::paper_defaults();
//! let loads = StackLoads::interleaved(&params, 2, &ImbalancePattern::new(0.0));
//! let regular = Pdn::new(&params, 2, TsvTopology::Sparse, 0.5, None);
//! let solution = regular.solve(&loads)?;
//! assert!(solution.max_ir_drop_frac > 0.0 && solution.max_ir_drop_frac < 0.10);
//!
//! let stacking = Stacking {
//!     converter: ScConverter::paper_28nm(),
//!     converters_per_core: 4,
//! };
//! let stacked = Pdn::new(&params, 2, TsvTopology::Few, 0.25, Some(stacking));
//! assert!(stacked.solve(&loads)?.max_ir_drop_frac < 0.10);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod c4;
pub mod error;
pub mod fault;
pub mod model;
pub mod network;
pub mod params;
pub mod regular;
pub mod sketch;
pub mod solution;
pub mod stack;
pub mod transient;
pub mod tsv;
pub mod vstacked;

pub use error::PdnError;
pub use fault::{FaultSet, FaultedSolution, TsvGroupCurrent};
pub use model::Pdn;
pub use network::SolveScratch;
pub use params::PdnParams;
pub use sketch::FaultSketch;
pub use solution::{ConductorCurrents, PdnSolution};
pub use stack::StackLoads;
pub use transient::{PdnTransientConfig, StepResponse};
pub use tsv::TsvTopology;
pub use vstacked::Stacking;
