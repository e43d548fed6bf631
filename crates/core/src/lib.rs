//! # charfree-core — characterization-free behavioral power modeling
//!
//! Rust implementation of the primary contribution of
//! *A. Bogliolo, L. Benini, G. De Micheli, "Characterization-Free
//! Behavioral Power Modeling", DATE 1998*:
//!
//! analytical, **white-box** construction of pattern-dependent RT-level
//! power models for combinational macros. Instead of fitting a black-box
//! model to simulation samples, the gate-level golden model's switching
//! capacitance
//!
//! ```text
//! C(xⁱ, xᶠ) = Σⱼ gⱼ'(xⁱ)·gⱼ(xᶠ)·Cⱼ          (Eq. 4)
//! ```
//!
//! is built **symbolically** as an algebraic decision diagram over the `2n`
//! transition variables ([`ModelBuilder`], paper Fig. 6), and complexity is
//! traded for accuracy by variance/MSE-ranked node collapsing
//! ([`ApproxStrategy`], Section 3):
//!
//! * [`ApproxStrategy::Average`] keeps average-power accuracy (and
//!   preserves the exact global average);
//! * [`ApproxStrategy::UpperBound`] yields **conservative pattern-dependent
//!   upper bounds** (and preserves the exact global maximum).
//!
//! The characterized baselines the paper compares against ([`ConstantModel`]
//! `Con`, [`LinearModel`] `Lin`), the characterization procedure
//! ([`TrainingSet`]), the accuracy harness ([`evaluate`]) and RTL
//! composition of per-macro bounds ([`RtlDesign`], Section 1.2) are all
//! included.
//!
//! ## Quickstart
//!
//! ```
//! use charfree_core::{ApproxStrategy, ModelBuilder, PowerModel};
//! use charfree_netlist::{benchmarks, Library};
//! use charfree_sim::ZeroDelaySim;
//!
//! let library = Library::test_library();
//! let cm85 = benchmarks::by_name("cm85", &library).expect("Table 1 name");
//!
//! // An exact analytical model: matches gate-level simulation everywhere.
//! let exact = ModelBuilder::new(&cm85).build();
//! let sim = ZeroDelaySim::new(&cm85);
//! let xi = vec![false; 11];
//! let xf = vec![true; 11];
//! assert_eq!(
//!     exact.capacitance(&xi, &xf),
//!     sim.switching_capacitance(&xi, &xf),
//! );
//!
//! // A 500-node model (the paper's cm85 configuration).
//! let small = ModelBuilder::new(&cm85).max_nodes(500).build();
//! assert!(small.size() <= 500);
//!
//! // A conservative pattern-dependent upper bound.
//! let bound = ModelBuilder::new(&cm85)
//!     .max_nodes(500)
//!     .strategy(ApproxStrategy::UpperBound)
//!     .build();
//! assert!(bound.capacitance(&xi, &xf) >= sim.switching_capacitance(&xi, &xf));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// `.unwrap()` is banned crate-wide; `.expect()` remains available for
// invariants with a stated justification, and tests are exempt.
#![deny(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

mod approx;
mod baselines;
mod builder;
mod calibrate;
mod degrade;
mod eval;
pub mod hashing;
mod linalg;
mod lut;
mod model;
mod peak;
mod persist;
mod rtl;

pub use approx::{
    approximate_to, approximate_to_mixture, approximate_to_unweighted, ApproxOutcome,
    ApproxStrategy,
};
pub use baselines::{ConstantModel, LinearModel, TrainingSet};
pub use builder::{InputOrder, ModelBuilder, PartialBuild};
pub use charfree_dd::Resource;
pub use degrade::{BuildError, DegradationReport, DegradationRung};
pub use eval::{evaluate, fig7a_grid, Evaluation, Protocol, RunPoint};
pub use linalg::least_squares;
pub use lut::LutModel;
pub use model::{AddPowerModel, BuildReport, PowerModel, VariableOrdering};
pub use peak::{PeakLevel, Transition};
pub use rtl::{RtlDesign, RtlError, RtlInstance};
