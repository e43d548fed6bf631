//! # charfree-netlist — the gate-level golden model substrate
//!
//! The DATE'98 paper *"Characterization-Free Behavioral Power Modeling"*
//! assumes a **golden model**: "a gate-level netlist with backannotated
//! capacitances and zero propagation delays", where "input capacitances of
//! fan-out gates were used as load capacitances for the driving ones". This
//! crate provides everything around that golden model:
//!
//! * a test [`Library`] of static CMOS cells with per-pin input
//!   capacitances ([`CellKind`]);
//! * the [`Netlist`] DAG with structural validation, levelization and
//!   capacitive back-annotation ([`Netlist::annotate_loads`]);
//! * BLIF reading/writing ([`blif`]), including `.names` decomposition onto
//!   the library via [`sop`];
//! * MCNC-equivalent benchmark generators ([`benchmarks`]) reproducing the
//!   paper's Table-1 circuit set (see `DESIGN.md` §4 for the substitution
//!   rationale);
//! * physical-unit newtypes ([`units`]).
//!
//! ## Example
//!
//! ```
//! use charfree_netlist::{benchmarks, Library};
//!
//! let library = Library::test_library();
//! let cm85 = benchmarks::by_name("cm85", &library).expect("Table 1 name");
//! assert_eq!(cm85.num_inputs(), 11);      // `n` column of Table 1
//! assert!(cm85.num_gates() > 20);          // `N` column (same order)
//! assert!(cm85.total_load().femtofarads() > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// Parsers must degrade to error values, never panic on malformed input:
// `.unwrap()` is banned crate-wide; `.expect()` remains available for
// provably unreachable states and must spell out the invariant.
#![deny(clippy::unwrap_used)]

pub mod benchmarks;
pub mod blif;
pub mod libspec;
pub mod seq;
pub mod sop;
pub mod testutil;
pub mod units;
pub mod verilog;

mod library;
mod netlist;

pub use library::{CellKind, Library, ALL_CELLS};
pub use netlist::{Gate, GateId, Netlist, NetlistError, SignalId};
pub use seq::{BoundarySource, MacroOutput, SeqLatch, SeqMacro, SeqNetlist};
