//! # charfree-engine — compiled ADD kernels and the trace engine
//!
//! The construction side of the workspace (`charfree-core`) builds ADD
//! power models inside a [`charfree_dd::Manager`] arena: hash-consed,
//! cache-backed, ideal for symbolic manipulation, and deliberately *not*
//! optimised for raw evaluation throughput. This crate is the other half
//! of the story — once a model is frozen, it is **compiled** into a flat
//! kernel and evaluated in bulk:
//!
//! * [`Kernel`] — a topologically ordered vector of 12-byte branch
//!   instructions plus a dense terminal table, fully decoupled from the
//!   manager arena. `Send + Sync`, read straight from a `.cfm` model
//!   file by [`Kernel::from_cfm`] (no manager is built). Compiled and
//!   loaded kernels are built from one flat form,
//!   [`charfree_dd::io::Dump`], made by [`charfree_dd::io::dump`] or by
//!   [`charfree_dd::io::parse_diagram`] (the one check of a file's
//!   diagram); [`Kernel::save`] writes the kernel's canonical text.
//! * [`PatternBlock`] — column-packed `u64` bit-matrix staging for
//!   transition streams, one word per diagram variable per 64
//!   transitions; [`Kernel::eval_batch`] consumes it.
//!   Each kernel picks its batch evaluator once, from its shape, when
//!   it is compiled or loaded: small kernels run a level-packed SoA
//!   gather (see [`soa`](self) internals; about `edges / 256` work per
//!   lane), large ones a stride walk through per-window tables, four
//!   diagram variables per dependent load, eight lanes side by side
//!   (about `depth / 4` table loads per lane). Both are bit-identical to
//!   the scalar [`Kernel::eval_transition`].
//! * [`eval_fused`] — the crate's one batch loop: one pass over a
//!   shared trace window advances N macros' gather programs together
//!   (interleaved pair-level rounds for memory-level parallelism;
//!   walking kernels run beside the rounds). It feeds `charfree-seq`'s
//!   cycle stepper and `charfree-serve`'s batch dispatcher;
//!   [`Kernel::eval_batch`] and the [`TraceEngine`] workers make
//!   one-job calls.
//! * [`TraceEngine`] — chunked, deterministic multi-threaded trace
//!   evaluation: results are bit-identical for any `--jobs` value.
//!
//! Evaluation speed is measured by the workspace's `perf` benchmark
//! (`crates/bench/src/bin/perf`, workload `eval_offline`); it checks the
//! kernels' traces against the arena walk bit for bit.

#![warn(missing_docs)]
// `.unwrap()` is banned crate-wide; `.expect()` remains available for
// invariants with a stated justification, and tests are exempt.
#![deny(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

mod block;
mod engine;
mod fused;
mod kernel;
mod persist;
mod soa;
mod stride;

pub use block::PatternBlock;
pub use engine::{TraceEngine, TraceSummary, DEFAULT_CHUNK};
pub use fused::{eval_fused, FusedJob};
pub use kernel::{Instr, Kernel};
