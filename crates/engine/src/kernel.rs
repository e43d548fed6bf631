//! Flat, manager-free compiled kernels.
//!
//! [`Kernel::compile`] flattens an [`AddPowerModel`]'s decision diagram
//! into a self-contained evaluation program: a topologically ordered
//! `Vec` of fixed-width branch instructions plus a dense terminal table.
//! The kernel owns no arena, no unique tables and no caches — it is plain
//! `Send + Sync` data, independently persistable (see
//! [`Kernel::save`](crate::Kernel::save)) and cheap to hand to worker
//! threads.
//!
//! ## Instruction layout
//!
//! ```text
//! Instr { var: u32, lo: u32, hi: u32 }       12 bytes, cache-friendly
//! ```
//!
//! Successor references use the same trick as the manager's `NodeId`: the
//! high bit selects the terminal table, the remaining 31 bits index either
//! `instrs` or `terminals`. Instructions are stored children-before-
//! parents, so every internal reference points *backwards* — evaluation
//! can never loop, and the invariant is re-checked when kernels are
//! loaded from disk.
//!
//! ## Two program forms
//!
//! `instrs` is the persisted form: scalar evaluation, expectations and
//! batches of large kernels walk it. Kernels with at most
//! [`WALK_RATIO`] instructions per level of depth also carry a derived,
//! never-persisted SoA gather program ([`crate::soa`]) for their
//! batches. [`Kernel::bytes`] counts the persisted form only.

use crate::block::PatternBlock;
use crate::fused::{eval_fused, FusedJob};
use crate::soa::SoaProgram;
use charfree_core::{AddPowerModel, PowerModel};
use charfree_dd::ChainMeasure;

/// Successor-reference tag: high bit set = terminal-table index.
pub(crate) const TERMINAL_BIT: u32 = 1 << 31;

/// One flat branch instruction: test `var`, continue at `lo` on 0 and at
/// `hi` on 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Instr {
    /// Diagram variable tested by this instruction.
    pub var: u32,
    /// Successor reference on a 0 branch (terminal if high bit set).
    pub lo: u32,
    /// Successor reference on a 1 branch (terminal if high bit set).
    pub hi: u32,
}

/// A compiled, self-contained ADD evaluation kernel.
///
/// Fully decoupled from the [`charfree_dd::Manager`] arena it was compiled
/// from: the kernel can outlive the model, cross threads (`Send + Sync`),
/// and round-trip through [`Kernel::save`]/[`Kernel::load`].
///
/// # Examples
///
/// ```
/// use charfree_core::{ModelBuilder, PowerModel};
/// use charfree_engine::Kernel;
/// use charfree_netlist::benchmarks::paper_unit;
///
/// let model = ModelBuilder::new(&paper_unit()).build();
/// let kernel = Kernel::compile(&model);
/// // Fig. 2b / Example 1: C(11, 00) = 90 fF, bit-for-bit the model's answer.
/// let c = kernel.eval_transition(&[true, true], &[false, false]);
/// assert_eq!(c, model.capacitance(&[true, true], &[false, false]).femtofarads());
/// ```
#[derive(Debug, Clone)]
pub struct Kernel {
    pub(crate) name: String,
    /// Number of diagram variables (`2n`).
    pub(crate) num_vars: u32,
    /// Number of macro inputs (`n`).
    pub(crate) num_inputs: usize,
    /// Branch instructions, children strictly before parents.
    pub(crate) instrs: Vec<Instr>,
    /// Dense terminal-value table.
    pub(crate) terminals: Vec<f64>,
    /// Root reference (may point straight into the terminal table for
    /// constant models).
    pub(crate) root: u32,
    /// `xi_vars[i]` = diagram variable carrying macro input `i` at `tⁱ`
    /// (ordering and slot permutation already folded in).
    pub(crate) xi_vars: Vec<u32>,
    /// `xf_vars[i]` = diagram variable carrying macro input `i` at `tᶠ`.
    pub(crate) xf_vars: Vec<u32>,
    /// `true` when the source model used the interleaved ordering (the
    /// only ordering whose transition measure is chain-expressible).
    pub(crate) interleaved: bool,
    /// Level-packed SoA gather program (never persisted), built only
    /// for kernels whose batch evaluator is the gather — see
    /// [`Kernel::derive_batch`]. `None` means batches walk `instrs`.
    pub(crate) soa: Option<SoaProgram>,
    /// Longest root-to-terminal path in `instrs` (edges). `0` for
    /// constant kernels.
    pub(crate) depth: u32,
}

/// Instructions per unit of depth above which a kernel's batches walk
/// `instrs` instead of gathering: the gather costs about `edges / 256`
/// per lane, the walk about `depth`. Fitted on the built-in kernels
/// (DESIGN §18); kernels near the line stay on the gather.
const WALK_RATIO: usize = 192;

/// Lanes one batched walk advances side by side — independent load
/// chains the core overlaps.
const WALK_LANES: usize = 8;

/// How a kernel evaluates a packed block (see [`Kernel::batch`]).
pub(crate) enum Batch<'k> {
    /// The root is a terminal: every lane gets this value.
    Constant(f64),
    /// Level-packed SoA gather sweep ([`crate::soa`]).
    Gather(&'k SoaProgram),
    /// Lane-interleaved root-to-terminal walk over `instrs`.
    Walk,
}

impl Kernel {
    /// Compiles `model`'s decision diagram into a flat kernel.
    ///
    /// Only nodes reachable from the root are emitted (the manager arena
    /// may hold construction garbage); the result is typically smaller and
    /// always contiguous.
    pub fn compile(model: &AddPowerModel) -> Kernel {
        let (manager, root) = model.diagram();
        let n = model.num_inputs();
        let ordering = model.ordering();

        let nodes = manager.topological_nodes(root);
        let mut index_of = std::collections::HashMap::with_capacity(nodes.len());
        for (i, &id) in nodes.iter().enumerate() {
            index_of.insert(id, i as u32);
        }

        let mut terminals: Vec<f64> = Vec::new();
        let mut term_index: std::collections::HashMap<u64, u32> = std::collections::HashMap::new();
        let encode = |id: charfree_dd::NodeId,
                      terminals: &mut Vec<f64>,
                      term_index: &mut std::collections::HashMap<u64, u32>|
         -> u32 {
            if id.is_terminal() {
                let v = manager.terminal_value(id);
                let slot = *term_index.entry(v.to_bits()).or_insert_with(|| {
                    terminals.push(v);
                    (terminals.len() - 1) as u32
                });
                slot | TERMINAL_BIT
            } else {
                index_of[&id]
            }
        };

        let mut instrs = Vec::with_capacity(nodes.len());
        for &id in &nodes {
            let (lo, hi) = manager.children(id);
            instrs.push(Instr {
                var: manager.node_var(id).index(),
                lo: encode(lo, &mut terminals, &mut term_index),
                hi: encode(hi, &mut terminals, &mut term_index),
            });
        }
        let root = encode(root, &mut terminals, &mut term_index);

        let slots = model.input_slots();
        let xi_vars = (0..n)
            .map(|i| ordering.xi_var(slots[i], n).index())
            .collect();
        let xf_vars = (0..n)
            .map(|i| ordering.xf_var(slots[i], n).index())
            .collect();

        let mut kernel = Kernel {
            name: model.name().to_owned(),
            num_vars: 2 * n as u32,
            num_inputs: n,
            instrs,
            terminals,
            root,
            xi_vars,
            xf_vars,
            interleaved: ordering == charfree_core::VariableOrdering::Interleaved,
            soa: None,
            depth: 0,
        };
        kernel.derive_batch();
        kernel
    }

    /// Measures `depth` and chooses the batch evaluator (called after
    /// compilation and after loading from disk): kernels with more than
    /// [`WALK_RATIO`] instructions per level of depth walk `instrs`,
    /// the other non-constant ones get a level-packed SoA gather
    /// program.
    pub(crate) fn derive_batch(&mut self) {
        // Longest path per instruction; children precede parents, so
        // one forward pass suffices.
        let mut longest = vec![0u32; self.instrs.len()];
        let path = |r: u32, longest: &[u32]| -> u32 {
            if r & TERMINAL_BIT != 0 {
                0
            } else {
                longest[r as usize]
            }
        };
        for (i, ins) in self.instrs.iter().enumerate() {
            longest[i] = 1 + path(ins.lo, &longest).max(path(ins.hi, &longest));
        }
        self.depth = path(self.root, &longest);
        let gathers = self.depth > 0 && self.instrs.len() <= WALK_RATIO * self.depth as usize;
        self.soa = gathers.then(|| {
            SoaProgram::build(&self.instrs, self.terminals.len(), self.root, self.num_vars)
        });
    }

    /// The batch evaluator chosen by [`Kernel::derive_batch`].
    pub(crate) fn batch(&self) -> Batch<'_> {
        if self.root & TERMINAL_BIT != 0 {
            return Batch::Constant(self.terminals[(self.root & !TERMINAL_BIT) as usize]);
        }
        match &self.soa {
            Some(soa) => Batch::Gather(soa),
            None => Batch::Walk,
        }
    }

    /// Display name inherited from the source model.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of macro inputs `n`.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of diagram variables (`2n`).
    pub fn num_vars(&self) -> u32 {
        self.num_vars
    }

    /// Number of branch instructions (internal diagram nodes).
    pub fn num_instrs(&self) -> usize {
        self.instrs.len()
    }

    /// Number of distinct terminal values.
    pub fn num_terminals(&self) -> usize {
        self.terminals.len()
    }

    /// Longest root-to-terminal path in instructions (`0` for constant
    /// kernels, at most `2n`) — the step bound of a walking batch, see
    /// [`Kernel::eval_batch_into`].
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Kernel memory footprint in bytes (instructions + terminal table +
    /// variable maps; `perf` records it as `engine.kernel_kb`).
    pub fn bytes(&self) -> usize {
        self.instrs.len() * std::mem::size_of::<Instr>()
            + self.terminals.len() * std::mem::size_of::<f64>()
            + (self.xi_vars.len() + self.xf_vars.len()) * std::mem::size_of::<u32>()
    }

    /// `true` when the source model used the interleaved variable
    /// ordering (required by [`Kernel::expected_capacitance`]).
    pub fn is_interleaved(&self) -> bool {
        self.interleaved
    }

    /// Evaluates the kernel under a complete `2n`-variable diagram
    /// assignment (one root-to-terminal walk, no allocation).
    ///
    /// # Panics
    ///
    /// Panics if `assignment` is narrower than the highest tested
    /// variable.
    #[inline]
    pub fn eval(&self, assignment: &[bool]) -> f64 {
        let mut r = self.root;
        while r & TERMINAL_BIT == 0 {
            let i = &self.instrs[r as usize];
            r = if assignment[i.var as usize] {
                i.hi
            } else {
                i.lo
            };
        }
        self.terminals[(r & !TERMINAL_BIT) as usize]
    }

    /// Switched capacitance (fF) predicted for one `(xⁱ, xᶠ)` transition.
    ///
    /// Convenience scalar entry point; the batch paths
    /// ([`Kernel::eval_batch`]) amortize the assignment staging this has
    /// to do per call.
    ///
    /// # Panics
    ///
    /// Panics if `xi`/`xf` are not `num_inputs` wide.
    pub fn eval_transition(&self, xi: &[bool], xf: &[bool]) -> f64 {
        assert_eq!(xi.len(), self.num_inputs, "pattern width mismatch");
        assert_eq!(xf.len(), self.num_inputs, "pattern width mismatch");
        let mut buf = vec![false; self.num_vars as usize];
        self.fill_assignment(xi, xf, &mut buf);
        self.eval(&buf)
    }

    /// Writes the diagram-variable assignment for `(xi, xf)` into `buf`
    /// (which must be `2n` wide).
    #[inline]
    pub(crate) fn fill_assignment(&self, xi: &[bool], xf: &[bool], buf: &mut [bool]) {
        for i in 0..self.num_inputs {
            buf[self.xi_vars[i] as usize] = xi[i];
            buf[self.xf_vars[i] as usize] = xf[i];
        }
    }

    /// `true` when batches walk `instrs` rather than gather (see
    /// [`Kernel::eval_batch_into`]).
    pub fn walks(&self) -> bool {
        matches!(self.batch(), Batch::Walk)
    }

    /// Evaluates every transition lane of a packed [`PatternBlock`] into
    /// `out` (which must be exactly `block.len()` long) — a one-job
    /// [`eval_fused`] call.
    ///
    /// The evaluator was chosen once, from the kernel's shape, when it
    /// was compiled or loaded. Small kernels run the level-packed SoA
    /// gather: one ascending sweep computes every state's lane masks,
    /// 256 lanes per pass, at a cost of about `edges / 256` per lane.
    /// Large kernels (more than 192 instructions per level of depth)
    /// walk `instrs` root to terminal, eight lanes side by side, at a
    /// cost of about `depth` per lane; [`Kernel::walks`] tells which.
    /// Both are f64 bit-identical to [`Kernel::eval_transition`], which
    /// the kernel-equivalence suites enforce.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != block.len()` or the block is narrower than
    /// the kernel's variable count.
    pub fn eval_batch_into(&self, block: &PatternBlock, out: &mut [f64]) {
        eval_fused(&mut [FusedJob {
            kernel: self,
            block,
            out,
        }]);
    }

    /// Walks every lane of `block` from the root to its terminal,
    /// [`WALK_LANES`] lanes of one 64-lane group at a time; finished
    /// lanes hold their terminal reference until the slowest one lands.
    /// A ragged last batch also walks the lanes past the block's end
    /// (any bits lead to some terminal) and discards them. The root
    /// must be internal.
    pub(crate) fn walk_block(&self, block: &PatternBlock, out: &mut [f64]) {
        let instrs = &self.instrs[..];
        // One step of one lane, branch-free: the branch bits are data
        // and would mispredict half the time. A terminal reference stays
        // put (it reads instruction 0 and discards the result).
        let step = |r: u32, words: &[u64], lane: usize| -> u32 {
            let stay = 0u32.wrapping_sub((r & TERMINAL_BIT != 0) as u32);
            let ins = instrs[(r & !stay) as usize];
            let take_hi = 0u32.wrapping_sub((words[ins.var as usize] >> lane) as u32 & 1);
            let next = ins.lo ^ ((ins.lo ^ ins.hi) & take_hi);
            next ^ ((next ^ r) & stay)
        };
        for (g, group) in out.chunks_mut(64).enumerate() {
            let words = block.block_words(g);
            for (c, values) in group.chunks_mut(WALK_LANES).enumerate() {
                let mut r = [self.root; WALK_LANES];
                loop {
                    let mut landed = TERMINAL_BIT;
                    for (k, rk) in r.iter_mut().enumerate() {
                        *rk = step(*rk, words, c * WALK_LANES + k);
                        landed &= *rk;
                    }
                    if landed != 0 {
                        break;
                    }
                }
                for (value, rk) in values.iter_mut().zip(r) {
                    *value = self.terminals[(rk & !TERMINAL_BIT) as usize];
                }
            }
        }
    }

    /// [`Kernel::eval_batch_into`] with an owned result vector.
    pub fn eval_batch(&self, block: &PatternBlock) -> Vec<f64> {
        let mut out = vec![0.0; block.len()];
        self.eval_batch_into(block, &mut out);
        out
    }

    /// Expected kernel value under a chain-measure input distribution —
    /// the flat-kernel counterpart of the manager's measured profile, one
    /// bottom-up pass over the instruction vector with per-context
    /// conditioning (0 = unconditioned, 1 = predecessor false, 2 =
    /// predecessor true).
    ///
    /// # Panics
    ///
    /// Panics if `measure` does not cover the kernel's `2n` variables.
    pub fn expected_value(&self, measure: &ChainMeasure) -> f64 {
        assert_eq!(
            measure.len(),
            self.num_vars as usize,
            "measure must cover every kernel variable"
        );
        // avg[i][ctx]: expected sub-value of instruction i, conditioned on
        // the value of variable (var(i) − 1) when that matters (contexts as
        // in `ChainMeasure::prob_one`). Children precede parents, so a
        // single forward pass suffices.
        let mut avg = vec![[0.0f64; 3]; self.instrs.len()];
        for idx in 0..self.instrs.len() {
            let ins = self.instrs[idx];
            let lo0 = self.resolve_expected(ins.lo, ins.var, 1, &avg, measure);
            let hi0 = self.resolve_expected(ins.hi, ins.var, 2, &avg, measure);
            for ctx in 0u8..3 {
                let p1 = measure.prob_one(ins.var as usize, ctx);
                avg[idx][ctx as usize] = (1.0 - p1) * lo0 + p1 * hi0;
            }
        }
        self.resolve_ref(self.root, None, 0, &avg, measure)
    }

    /// Expected value of a successor reached by branching at `parent_var`
    /// with the context `branch_ctx` (1 = took the 0 branch, 2 = took the
    /// 1 branch) the child would see if it tests `parent_var + 1`.
    #[inline]
    fn resolve_expected(
        &self,
        r: u32,
        parent_var: u32,
        branch_ctx: u8,
        avg: &[[f64; 3]],
        measure: &ChainMeasure,
    ) -> f64 {
        self.resolve_ref(r, Some(parent_var), branch_ctx, avg, measure)
    }

    #[inline]
    fn resolve_ref(
        &self,
        r: u32,
        parent_var: Option<u32>,
        branch_ctx: u8,
        avg: &[[f64; 3]],
        measure: &ChainMeasure,
    ) -> f64 {
        if r & TERMINAL_BIT != 0 {
            return self.terminals[(r & !TERMINAL_BIT) as usize];
        }
        let child = &self.instrs[r as usize];
        let ctx = match parent_var {
            Some(v) if child.var == v + 1 && measure.is_correlated(child.var) => branch_ctx,
            _ => 0,
        };
        avg[r as usize][ctx as usize]
    }

    /// Analytic expected switched capacitance (fF) under input statistics
    /// `(sp, st)` — the engine-side counterpart of
    /// [`AddPowerModel::expected_capacitance`], computed on the flat
    /// kernel without touching the manager arena.
    ///
    /// # Panics
    ///
    /// Panics if `sp`/`st` are infeasible or the kernel was compiled from
    /// a grouped-ordering model (whose pair correlation is not
    /// chain-expressible).
    pub fn expected_capacitance(&self, sp: f64, st: f64) -> f64 {
        assert!(
            self.interleaved,
            "analytic expectations need the interleaved ordering"
        );
        let measure = ChainMeasure::interleaved_transitions(self.num_inputs as u32, sp, st);
        self.expected_value(&measure)
    }

    /// Validates internal invariants (used after [`Kernel::load`]): every
    /// reference in range, every internal reference strictly backwards,
    /// variables below `num_vars`, input maps within bounds and disjoint.
    pub(crate) fn validate(&self) -> Result<(), String> {
        let check_ref = |r: u32, idx: usize| -> Result<(), String> {
            if r & TERMINAL_BIT != 0 {
                let t = (r & !TERMINAL_BIT) as usize;
                if t >= self.terminals.len() {
                    return Err(format!("terminal reference {t} out of range"));
                }
            } else if r as usize >= idx {
                return Err(format!(
                    "forward instruction reference {r} at instruction {idx}"
                ));
            }
            Ok(())
        };
        for (idx, ins) in self.instrs.iter().enumerate() {
            if ins.var >= self.num_vars {
                return Err(format!(
                    "instruction {idx} tests variable {} out of range",
                    ins.var
                ));
            }
            check_ref(ins.lo, idx)?;
            check_ref(ins.hi, idx)?;
            // Variables must strictly increase along every edge (the
            // ordered-diagram property the compiler guarantees). The
            // SoA gather schedule depends on it: a child at the same
            // or an earlier pair level would be gathered before its
            // pred's row is final and read stale masks — so a kernel
            // violating it is rejected at load, not mis-evaluated.
            for child in [ins.lo, ins.hi] {
                if child & TERMINAL_BIT == 0 && self.instrs[child as usize].var <= ins.var {
                    return Err(format!(
                        "instruction {idx} (variable {}) references child {child} \
                         testing variable {} — not strictly increasing",
                        ins.var, self.instrs[child as usize].var
                    ));
                }
            }
        }
        check_ref(self.root, self.instrs.len())?;
        if self.num_vars as usize != 2 * self.num_inputs {
            return Err(format!(
                "variable count {} is not twice the input count {}",
                self.num_vars, self.num_inputs
            ));
        }
        if self.xi_vars.len() != self.num_inputs || self.xf_vars.len() != self.num_inputs {
            return Err("input variable maps do not cover every input".to_owned());
        }
        let mut seen = vec![false; self.num_vars as usize];
        for &v in self.xi_vars.iter().chain(&self.xf_vars) {
            if v >= self.num_vars || std::mem::replace(&mut seen[v as usize], true) {
                return Err("input variable maps are not a permutation".to_owned());
            }
        }
        for t in &self.terminals {
            if t.is_nan() {
                return Err("NaN terminal".to_owned());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use charfree_core::{ModelBuilder, PowerModel};
    use charfree_netlist::{benchmarks, Library};
    use charfree_sim::{ExhaustivePairs, MarkovSource};

    #[test]
    fn compiled_kernel_matches_arena_exhaustively() {
        let library = Library::test_library();
        let netlist = benchmarks::by_name("decod", &library).expect("Table 1 name");
        let model = ModelBuilder::new(&netlist).build();
        let kernel = Kernel::compile(&model);
        assert_eq!(kernel.num_inputs(), 5);
        assert_eq!(kernel.num_vars(), 10);
        for (xi, xf) in ExhaustivePairs::new(5) {
            assert_eq!(
                kernel.eval_transition(&xi, &xf).to_bits(),
                model.capacitance(&xi, &xf).femtofarads().to_bits(),
                "xi={xi:?} xf={xf:?}"
            );
        }
    }

    #[test]
    fn constant_model_compiles_to_terminal_root() {
        let library = Library::test_library();
        let netlist = benchmarks::by_name("decod", &library).expect("Table 1 name");
        // Shrinking to one node forces a constant diagram.
        let model = ModelBuilder::new(&netlist)
            .build()
            .shrink(1, charfree_core::ApproxStrategy::Average);
        let kernel = Kernel::compile(&model);
        assert_eq!(kernel.num_instrs(), 0);
        assert!(kernel.root & TERMINAL_BIT != 0);
        let xi = vec![false; 5];
        let xf = vec![true; 5];
        assert_eq!(
            kernel.eval_transition(&xi, &xf),
            model.capacitance(&xi, &xf).femtofarads()
        );
    }

    #[test]
    fn kernel_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Kernel>();
    }

    #[test]
    fn expected_value_matches_model() {
        let library = Library::test_library();
        let netlist = benchmarks::by_name("cm85", &library).expect("Table 1 name");
        for model in [
            ModelBuilder::new(&netlist).build(),
            ModelBuilder::new(&netlist).max_nodes(200).build(),
        ] {
            let kernel = Kernel::compile(&model);
            for (sp, st) in [(0.5, 0.5), (0.5, 0.05), (0.3, 0.2), (0.8, 0.3)] {
                let want = model.expected_capacitance(sp, st).femtofarads();
                let got = kernel.expected_capacitance(sp, st);
                assert!(
                    (want - got).abs() <= 1e-9 * want.abs().max(1.0),
                    "(sp={sp}, st={st}): model {want}, kernel {got}"
                );
            }
        }
    }

    #[test]
    fn validate_accepts_compiled_kernels() {
        let library = Library::test_library();
        let model =
            ModelBuilder::new(&benchmarks::by_name("cm85", &library).expect("Table 1 name"))
                .max_nodes(300)
                .build();
        Kernel::compile(&model)
            .validate()
            .expect("compiled kernels are valid");
    }

    /// The built-in kernels the batch rule is fitted and pinned on:
    /// every exact model that builds in seconds, and every `MAX`
    /// configuration `perf`'s `serve_mixed` working set serves.
    fn rule_kernels() -> Vec<(String, Kernel)> {
        let library = Library::test_library();
        let exact = [
            "decod", "cm85", "cm150", "mux", "comp", "x2", "parity", "pcle", "cmb", "alu2",
        ];
        let bounded = [
            ("cm85", 100),
            ("cm85", 250),
            ("cm85", 500),
            ("cm150", 500),
            ("cm150", 1000),
            ("mux", 500),
            ("mux", 1000),
            ("parity", 500),
            ("pcle", 1000),
            ("cmb", 200),
        ];
        let configs = exact
            .iter()
            .map(|&name| (name, 0))
            .chain(bounded.iter().copied());
        configs
            .map(|(name, max)| {
                let netlist = benchmarks::by_name(name, &library).expect("built-in benchmark");
                let mut builder = ModelBuilder::new(&netlist);
                if max > 0 {
                    builder = builder.max_nodes(max);
                }
                let label = if max > 0 {
                    format!("{name}@{max}")
                } else {
                    format!("{name} exact")
                };
                (label, Kernel::compile(&builder.build()))
            })
            .collect()
    }

    /// `kernel` with its batches forced onto the SoA gather, whichever
    /// evaluator the rule chose.
    fn gathering(kernel: &Kernel) -> Kernel {
        let mut forced = kernel.clone();
        forced.soa = Some(SoaProgram::build(
            &kernel.instrs,
            kernel.terminals.len(),
            kernel.root,
            kernel.num_vars,
        ));
        forced
    }

    #[test]
    fn gather_and_walk_agree_with_scalar_eval_on_both_sides_of_the_rule() {
        let mut sides = [false, false];
        for (label, kernel) in rule_kernels() {
            sides[kernel.walks() as usize] = true;
            let mut source =
                MarkovSource::new(kernel.num_inputs(), 0.5, 0.4, 0x5EED).expect("feasible");
            let patterns = source.sequence(300);
            let block = PatternBlock::from_patterns(&kernel, &patterns);
            let gathered = gathering(&kernel).eval_batch(&block);
            let mut walked = vec![0.0; block.len()];
            kernel.walk_block(&block, &mut walked);
            let chosen = kernel.eval_batch(&block);
            for t in 0..block.len() {
                let want = kernel
                    .eval_transition(&patterns[t], &patterns[t + 1])
                    .to_bits();
                assert_eq!(gathered[t].to_bits(), want, "{label}: gather at {t}");
                assert_eq!(walked[t].to_bits(), want, "{label}: walk at {t}");
                assert_eq!(chosen[t].to_bits(), want, "{label}: batch at {t}");
            }
        }
        assert_eq!(sides, [true, true], "kernels on both sides of the rule");
    }

    #[test]
    fn batch_rule_pins_its_choices() {
        let walking: Vec<String> = rule_kernels()
            .into_iter()
            .filter(|(_, kernel)| kernel.walks())
            .map(|(label, _)| label)
            .collect();
        // Everything `serve_mixed` serves, and decod, gathers.
        assert_eq!(
            walking,
            [
                "cm85 exact",
                "mux exact",
                "comp exact",
                "cmb exact",
                "alu2 exact"
            ]
        );
    }

    /// The sweep the batch rule's [`WALK_RATIO`] was fitted on: per
    /// built-in kernel, instructions per level of depth and the best of
    /// five single-thread rates (M transitions/s over 2^16 Markov
    /// transitions at sp 0.5, st 0.4) of the gather and the walk.
    #[test]
    #[ignore = "timing sweep; run with --release --ignored --nocapture"]
    fn batch_rule_sweep() {
        println!("kernel           instrs depth ratio  gather   walk  chosen");
        for (label, kernel) in rule_kernels() {
            let mut source =
                MarkovSource::new(kernel.num_inputs(), 0.5, 0.4, 0x5EED).expect("feasible");
            let block = PatternBlock::from_patterns(&kernel, &source.sequence((1 << 16) + 1));
            let forced = gathering(&kernel);
            let mut out = vec![0.0; block.len()];
            // Alternating best-of-nine: both evaluators sample the same
            // host-load windows.
            let (mut gather, mut walk) = (f64::INFINITY, f64::INFINITY);
            for _ in 0..9 {
                let start = std::time::Instant::now();
                forced.eval_batch_into(&block, &mut out);
                gather = gather.min(start.elapsed().as_secs_f64());
                let start = std::time::Instant::now();
                kernel.walk_block(&block, &mut out);
                walk = walk.min(start.elapsed().as_secs_f64());
            }
            let (gather, walk) = (
                block.len() as f64 / gather / 1e6,
                block.len() as f64 / walk / 1e6,
            );
            println!(
                "{label:<16} {:>6} {:>5} {:>5.0} {gather:>7.1} {walk:>6.1}  {}",
                kernel.num_instrs(),
                kernel.depth(),
                kernel.num_instrs() as f64 / kernel.depth().max(1) as f64,
                if kernel.walks() { "walk" } else { "gather" }
            );
        }
    }
}
