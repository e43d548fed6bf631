//! # charfree-dd — decision diagrams for characterization-free power modeling
//!
//! Reduced ordered **binary decision diagrams** (BDDs, Bryant-style) and
//! **algebraic decision diagrams** (ADDs, Bahar et al.) with exactly the
//! symbolic operator suite the DATE'98 paper *"Characterization-Free
//! Behavioral Power Modeling"* builds on (it used CUDD; this crate is the
//! from-scratch Rust substitute):
//!
//! * canonical, maximally shared node store ([`Manager`]) with unique and
//!   computed tables;
//! * Boolean operators on [`Bdd`]s (`not`, `and`, `or`, `xor`, `ite`,
//!   SAT counting);
//! * arithmetic operators on [`Add`]s (pointwise [`BinOp`]s, `+`, `×`,
//!   scaling by constants, Boolean selection) — the `bdd_and`/`bdd_not`/
//!   `add_times`/`add_sum` vocabulary of the paper's Fig. 6 pseudo-code;
//! * a quantized sum ([`Manager::try_add_plus_quantized`]): `+` whose
//!   terminals snap onto a grid in the same apply pass, so a bounded
//!   build's partial-sum merge never builds the unquantized sum;
//! * per-node statistics (average, variance, min and max of Eqs. 5–7,
//!   and reach probability) under input measures, in one bottom-up and
//!   one top-down pass per measure over a dense, canonically ordered
//!   [`Snapshot`] of the diagram, in O(n) working memory
//!   ([`Snapshot::profile`]);
//! * linear-time node collapsing ([`Manager::collapse`]) — the mechanism
//!   behind the paper's accuracy/complexity trade-off;
//! * variable permutation and windowed reordering ([`reorder`]), and
//!   garbage collection ([`Manager::compact`]).
//!
//! Whole-diagram passes (`size`, `snapshot`, `collapse`, `compact`, …)
//! mark and memoize nodes in one per-thread array indexed by arena slot,
//! not in a hash map per pass; a [`Manager`] stays `Send + Sync`.
//!
//! ## Example: the switching-capacitance ADD of the paper's Fig. 2
//!
//! ```
//! use charfree_dd::{Manager, Var};
//!
//! // Two circuit inputs at time t^i (vars 0,1) and t^f (vars 2,3).
//! let mut m = Manager::new(4);
//! let (x1i, x2i, x1f, x2f) = (Var(0), Var(1), Var(2), Var(3));
//!
//! // g1 = x1', g2 = x2', g3 = x1 + x2 with loads 40, 50, 10 fF.
//! let mut c = m.add_zero();
//! let gates: [(&dyn Fn(&mut Manager, Var, Var) -> charfree_dd::Bdd, f64); 3] = [
//!     (&|m, a, _| { let v = m.bdd_var(a); m.bdd_not(v) }, 40.0),
//!     (&|m, _, b| { let v = m.bdd_var(b); m.bdd_not(v) }, 50.0),
//!     (&|m, a, b| { let va = m.bdd_var(a); let vb = m.bdd_var(b); m.bdd_or(va, vb) }, 10.0),
//! ];
//! for (g, cap) in gates {
//!     let gi = g(&mut m, x1i, x2i);
//!     let gf = g(&mut m, x1f, x2f);
//!     let rise = { let n = m.bdd_not(gi); m.bdd_and(n, gf) };
//!     let delta = m.add_scale(rise.as_add(), cap);
//!     c = m.add_plus(c, delta);
//! }
//!
//! // Fig. 2b, row x^i = 11, x^f = 00: C = C1 + C2 = 90 fF.
//! assert_eq!(m.add_eval(c, &[true, true, false, false]), 90.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// `.unwrap()` is banned crate-wide; `.expect()` remains available for
// invariants with a stated justification, and tests are exempt.
#![deny(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod hash;
pub mod io;

pub mod budget;
mod collapse;
mod manager;
mod marks;
mod node;
pub mod reorder;
mod snapshot;
mod stats;

pub use budget::{ApplyStats, Budget, DdError, Resource};
pub use manager::{Add, Bdd, BinOp, Manager, Rounding};
pub use node::{NodeId, Var};
pub use snapshot::{CollapseSizer, DenseProfile, Snapshot};
pub use stats::{ChainMeasure, MeasuredNode, NodeStats, VarMeasure};
