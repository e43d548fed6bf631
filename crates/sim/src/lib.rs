//! # charfree-sim — golden-model simulation and pattern sources
//!
//! Simulation support for *"Characterization-Free Behavioral Power
//! Modeling"* (DATE'98):
//!
//! * [`ZeroDelaySim`] — the paper's golden model: zero-delay gate-level
//!   evaluation and the switched capacitance `C(xⁱ,xᶠ)` of Eqs. 2–3, with
//!   scalar, 64-way word-parallel, and whole-trace entry points;
//! * [`UnitDelaySim`] — a unit-delay simulator quantifying the glitch
//!   (parasitic) energy the zero-delay model deliberately ignores;
//! * [`MarkovSource`] — per-bit Markov pattern generators hitting any
//!   feasible `(sp, st)` signal/transition-probability target
//!   ([`check_statistics`]), plus the experiment grid [`statistics_grid`]
//!   and [`ExhaustivePairs`];
//! * [`EnergyTrace`] — per-cycle energy traces with average/peak power.
//!
//! ## Example
//!
//! ```
//! use charfree_netlist::{benchmarks, Library};
//! use charfree_sim::{MarkovSource, ZeroDelaySim};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let library = Library::test_library();
//! let cm85 = benchmarks::by_name("cm85", &library).expect("Table 1 name");
//! let sim = ZeroDelaySim::new(&cm85);
//! let mut source = MarkovSource::new(cm85.num_inputs(), 0.5, 0.5, 1)?;
//! let patterns = source.sequence(1000);
//! let trace = sim.switching_trace(&patterns);
//! assert_eq!(trace.len(), 999);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// `.unwrap()` is banned crate-wide; `.expect()` remains available for
// invariants with a stated justification, and tests are exempt.
#![deny(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

mod burst;
mod patterns;
mod seq;
mod trace;
mod unit_delay;
mod zero_delay;

pub use burst::BurstSource;
pub use patterns::{
    check_statistics, measure_statistics, statistics_grid, ExhaustivePairs, InvalidStatisticsError,
    MarkovSource,
};
pub use seq::{SeqSim, SeqWalker};
pub use trace::EnergyTrace;
pub use unit_delay::{UnitDelayError, UnitDelayReport, UnitDelaySim};
pub use zero_delay::ZeroDelaySim;
