//! Flat, manager-free compiled kernels.
//!
//! [`Kernel::compile`] flattens an [`AddPowerModel`]'s decision diagram
//! into a self-contained evaluation program: a topologically ordered
//! `Vec` of fixed-width branch instructions plus a dense terminal table.
//! The kernel owns no arena, no unique tables and no caches — it is plain
//! `Send + Sync` data, read straight from a `.cfm` model file by
//! [`Kernel::from_cfm`](crate::Kernel::from_cfm) and cheap to hand to
//! worker threads.
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
//! can never loop. Every kernel is built from a [`Dump`] in this order:
//! [`charfree_dd::io::dump`] numbers a manager's diagram so, and
//! [`charfree_dd::io::parse_diagram`] checks a `.cfm`'s diagram for it,
//! and for the variable order along every edge.
//!
//! ## Two program forms
//!
//! `instrs` is the persisted form: scalar evaluation and expectations
//! walk it. Batches run one derived, never-persisted program, chosen by
//! [`Kernel::from_dump`]: kernels with at most [`WALK_RATIO`]
//! instructions per level of depth carry an SoA gather program
//! ([`crate::soa`]), larger ones a stride-table program
//! ([`crate::stride`]), and constant kernels none. [`Kernel::bytes`]
//! counts the persisted form only, [`Kernel::resident_bytes`] adds the
//! stride tables.

use crate::block::PatternBlock;
use crate::fused::{eval_fused, FusedJob};
use crate::soa::SoaProgram;
use crate::stride::StrideProgram;
use charfree_core::{xf_var, xi_var, AddPowerModel, PowerModel};
use charfree_dd::io::Dump;
use charfree_dd::ChainMeasure;

/// Successor-reference tag: high bit set = terminal-table index. The
/// `ddv1` dump's tag, so a parsed `.cfm` diagram's references are
/// instruction references as they are.
pub(crate) const TERMINAL_BIT: u32 = charfree_dd::io::TERMINAL_REF;

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
/// and is read straight from a `.cfm` file by [`Kernel::from_cfm`].
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
    /// `slots[i]` = the order slot of macro input `i`, whose diagram
    /// variables are [`xi_var`]`(slot)` at `tⁱ` and [`xf_var`]`(slot)` at
    /// `tᶠ` (see [`Kernel::input_vars`]).
    pub(crate) slots: Vec<u32>,
    /// The derived batch program (never persisted), set by
    /// [`Kernel::from_dump`].
    pub(crate) batch: Batch,
    /// Longest root-to-terminal path in `instrs` (edges). `0` for
    /// constant kernels.
    pub(crate) depth: u32,
}

/// Instructions per unit of depth above which a kernel's batches run
/// the stride walk instead of the gather: the gather costs about
/// `edges / 256` per lane, the walk about `depth / 4` table loads.
/// Fitted on the built-in kernels (DESIGN §18): the walk already wins at
/// 51 (exact x2), but every kernel `perf`'s `serve_mixed` serves (ratio
/// 51 or less) keeps the gather.
const WALK_RATIO: usize = 64;

/// How a kernel evaluates a packed block (see [`Kernel::from_dump`]).
#[derive(Debug, Clone)]
pub(crate) enum Batch {
    /// The root is a terminal: every lane gets this value.
    Constant(f64),
    /// Level-packed SoA gather sweep ([`crate::soa`]).
    Gather(SoaProgram),
    /// Stride-table walk ([`crate::stride`]).
    Walk(StrideProgram),
}

impl Kernel {
    /// Compiles `model`'s decision diagram into a flat kernel: the
    /// diagram's [`charfree_dd::io::dump`], numbered as its `.cfm`
    /// section is, so [`Kernel::from_cfm`] reads the same kernel back.
    ///
    /// Only nodes reachable from the root are emitted (the manager arena
    /// may hold construction garbage); the result is typically smaller and
    /// always contiguous.
    ///
    /// # Panics
    ///
    /// Panics if a walking kernel has more entry nodes than the stride
    /// walk can name: `2^31` over its window count rounded up to a power
    /// of two ([`Kernel::from_cfm`] returns a typed error instead).
    pub fn compile(model: &AddPowerModel) -> Kernel {
        let (manager, root) = model.diagram();
        Kernel::from_dump(
            model.name().to_owned(),
            model.input_slots(),
            charfree_dd::io::dump(manager, root),
        )
        .expect("a model's kernel fits the stride walk's entry words")
    }

    /// The one kernel constructor: `dump`'s nodes become the
    /// instructions as they are, `depth` is measured, and the batch
    /// program is derived. Kernels with more than [`WALK_RATIO`]
    /// instructions per level of depth get a stride-table walk, the
    /// other non-constant ones a level-packed SoA gather program.
    /// `dump` comes from [`charfree_dd::io::dump`] or
    /// [`charfree_dd::io::parse_diagram`], which establish its order;
    /// `slots` is a permutation of the inputs.
    ///
    /// # Errors
    ///
    /// Fails when the diagram has more than `2n` variables, or when a
    /// walking kernel has more entry nodes than the stride walk's entry
    /// words can name (see [`crate::stride`]).
    pub(crate) fn from_dump(name: String, slots: &[usize], dump: Dump) -> Result<Kernel, String> {
        let num_vars = u32::try_from(2 * slots.len())
            .map_err(|_| "too many inputs for a kernel".to_owned())?;
        if dump.num_vars > num_vars {
            return Err(format!(
                "diagram needs {} variables, the model has {num_vars}",
                dump.num_vars
            ));
        }
        let Dump {
            nodes,
            terminals,
            root,
            ..
        } = dump;
        let instrs: Vec<Instr> = nodes
            .into_iter()
            .map(|[var, lo, hi]| Instr { var, lo, hi })
            .collect();
        // Longest path per instruction; children precede parents, so
        // one forward pass suffices.
        let mut longest = vec![0u32; instrs.len()];
        let path = |r: u32, longest: &[u32]| -> u32 {
            if r & TERMINAL_BIT != 0 {
                0
            } else {
                longest[r as usize]
            }
        };
        for (i, ins) in instrs.iter().enumerate() {
            longest[i] = 1 + path(ins.lo, &longest).max(path(ins.hi, &longest));
        }
        let depth = path(root, &longest);
        let batch = if root & TERMINAL_BIT != 0 {
            Batch::Constant(terminals[(root & !TERMINAL_BIT) as usize])
        } else if instrs.len() <= WALK_RATIO * depth as usize {
            Batch::Gather(SoaProgram::build(&instrs, terminals.len(), root, num_vars))
        } else {
            Batch::Walk(StrideProgram::build(&instrs, root, num_vars)?)
        };
        Ok(Kernel {
            name,
            num_vars,
            num_inputs: slots.len(),
            instrs,
            terminals,
            root,
            slots: slots.iter().map(|&s| s as u32).collect(),
            batch,
            depth,
        })
    }

    /// Display name inherited from the source model.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the kernel (affects [`Kernel::name`]).
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
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
    /// kernels, at most `2n`) — it bounds the steps of a walking batch,
    /// see [`Kernel::eval_batch_into`].
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Bytes of the kernel's portable form: instructions, terminal table
    /// and variable maps (`perf` records it as `engine.kernel_kb`). The
    /// derived batch program is not counted, neither a gathering
    /// kernel's SoA program nor a walking kernel's stride tables (64 B
    /// per entry node, which can outweigh the instructions); see
    /// [`Kernel::resident_bytes`].
    pub fn bytes(&self) -> usize {
        self.instrs.len() * std::mem::size_of::<Instr>()
            + self.terminals.len() * std::mem::size_of::<f64>()
            + 2 * self.slots.len() * std::mem::size_of::<u32>()
    }

    /// Bytes the kernel keeps resident: [`Kernel::bytes`] plus a walking
    /// kernel's stride tables. A gathering kernel's SoA program is not
    /// counted. Model registries charge this against their budget.
    pub fn resident_bytes(&self) -> usize {
        match &self.batch {
            Batch::Walk(stride) => self.bytes() + stride.bytes(),
            Batch::Constant(_) | Batch::Gather(_) => self.bytes(),
        }
    }

    /// `true`: every kernel uses the interleaved variable layout (see
    /// [`charfree_core::xi_var`]), which [`Kernel::expected_capacitance`]
    /// needs and [`Kernel::from_cfm`] enforces.
    pub fn is_interleaved(&self) -> bool {
        true
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
            let (vi, vf) = self.input_vars(i);
            buf[vi] = xi[i];
            buf[vf] = xf[i];
        }
    }

    /// The diagram variables carrying macro input `i` at `tⁱ` and `tᶠ`.
    #[inline]
    pub(crate) fn input_vars(&self, i: usize) -> (usize, usize) {
        let slot = self.slots[i] as usize;
        (xi_var(slot).index() as usize, xf_var(slot).index() as usize)
    }

    /// `true` when batches run the stride walk rather than gather (see
    /// [`Kernel::eval_batch_into`]).
    pub fn walks(&self) -> bool {
        matches!(self.batch, Batch::Walk(_))
    }

    /// Evaluates every transition lane of a packed [`PatternBlock`] into
    /// `out` (which must be exactly `block.len()` long) — a one-job
    /// [`eval_fused`] call.
    ///
    /// The evaluator was chosen once, from the kernel's shape, when it
    /// was compiled or loaded. Small kernels run the level-packed SoA
    /// gather: one ascending sweep computes every state's lane masks,
    /// 256 lanes per pass, at a cost of about `edges / 256` per lane.
    /// Large kernels (more than 64 instructions per level of depth)
    /// walk root to terminal through per-window tables, eight lanes
    /// side by side, at a cost of about `depth / 4` table loads per
    /// lane; [`Kernel::walks`] tells which.
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
    fn expected_value(&self, measure: &ChainMeasure) -> f64 {
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
            let lo0 = self.resolve_ref(ins.lo, Some(ins.var), 1, &avg, measure);
            let hi0 = self.resolve_ref(ins.hi, Some(ins.var), 2, &avg, measure);
            for ctx in 0u8..3 {
                let p1 = measure.prob_one(ins.var as usize, ctx);
                avg[idx][ctx as usize] = (1.0 - p1) * lo0 + p1 * hi0;
            }
        }
        self.resolve_ref(self.root, None, 0, &avg, measure)
    }

    /// Expected value of `r`, reached by branching at `parent_var`
    /// (`None` for the root): a child testing `parent_var + 1` sees the
    /// context `branch_ctx` (1 = took the 0 branch, 2 = took the 1
    /// branch), any other node context 0.
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
    /// Panics if `sp`/`st` are infeasible.
    pub fn expected_capacitance(&self, sp: f64, st: f64) -> f64 {
        let measure = ChainMeasure::interleaved_transitions(self.num_inputs as u32, sp, st);
        self.expected_value(&measure)
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
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "(sp={sp}, st={st}): model {want}, kernel {got}"
                );
            }
        }
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
        forced.batch = Batch::Gather(SoaProgram::build(
            &kernel.instrs,
            kernel.terminals.len(),
            kernel.root,
            kernel.num_vars,
        ));
        forced
    }

    /// `kernel` with its batches forced onto the stride walk, whichever
    /// evaluator the rule chose.
    fn walking(kernel: &Kernel) -> Kernel {
        let mut forced = kernel.clone();
        forced.batch = Batch::Walk(
            StrideProgram::build(&kernel.instrs, kernel.root, kernel.num_vars)
                .expect("built-in kernels fit the stride walk"),
        );
        forced
    }

    impl Kernel {
        /// Stride-walks every lane of `block` into `out`, whichever
        /// evaluator the rule chose. The root must be internal.
        fn walk_block(&self, block: &PatternBlock, out: &mut [f64]) {
            walking(self).eval_batch_into(block, out);
        }
    }

    /// Every lane of a stride-walked block against scalar
    /// `eval_transition`, by `to_bits`.
    fn assert_walk_matches_scalar(label: &str, kernel: &Kernel, patterns: &[Vec<bool>]) {
        let block = PatternBlock::from_patterns(kernel, patterns);
        let mut walked = vec![0.0; block.len()];
        kernel.walk_block(&block, &mut walked);
        for (t, value) in walked.iter().enumerate() {
            assert_eq!(
                value.to_bits(),
                kernel
                    .eval_transition(&patterns[t], &patterns[t + 1])
                    .to_bits(),
                "{label}: walk at {t}"
            );
        }
    }

    #[test]
    fn stride_walk_spans_lane_word_slabs() {
        let library = Library::test_library();
        for (name, max) in [("x1", 600), ("comp", 0)] {
            let netlist = benchmarks::by_name(name, &library).expect("Table 1 name");
            let mut builder = ModelBuilder::new(&netlist);
            if max > 0 {
                builder = builder.max_nodes(max);
            }
            let kernel = Kernel::compile(&builder.build());
            // x1: 49 inputs, 98 variables, two slabs with a ragged
            // second one; comp: exactly one full slab.
            let want = if max > 0 { 98 } else { 64 };
            assert_eq!(kernel.num_vars(), want, "{name}");
            let mut source =
                MarkovSource::new(kernel.num_inputs(), 0.5, 0.4, 0x51AB).expect("feasible");
            assert_walk_matches_scalar(name, &kernel, &source.sequence(300));
        }
    }

    #[test]
    fn stride_walk_ragged_lengths() {
        let library = Library::test_library();
        let netlist = benchmarks::by_name("pcle", &library).expect("Table 1 name");
        let kernel = Kernel::compile(&ModelBuilder::new(&netlist).build());
        assert!(kernel.walks(), "exact pcle walks");
        let mut source =
            MarkovSource::new(kernel.num_inputs(), 0.5, 0.4, 0x7A66).expect("feasible");
        for len in 1..=130 {
            assert_walk_matches_scalar(
                &format!("pcle, {len} transitions"),
                &kernel,
                &source.sequence(len + 1),
            );
        }
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
                "cm150 exact",
                "mux exact",
                "comp exact",
                "parity exact",
                "pcle exact",
                "cmb exact",
                "alu2 exact"
            ]
        );
    }

    #[test]
    fn resident_bytes_add_exactly_the_stride_tables() {
        let library = Library::test_library();
        for (name, max) in [("cmb", None), ("cm85", Some(500)), ("decod", None)] {
            let netlist = benchmarks::by_name(name, &library).expect("Table 1 name");
            let mut builder = ModelBuilder::new(&netlist);
            if let Some(max) = max {
                builder = builder.max_nodes(max);
            }
            let kernel = Kernel::compile(&builder.build());
            match &kernel.batch {
                Batch::Walk(stride) => {
                    assert!(stride.bytes() > 0, "{name}");
                    assert_eq!(kernel.resident_bytes(), kernel.bytes() + stride.bytes());
                }
                Batch::Gather(_) | Batch::Constant(_) => {
                    assert_eq!(kernel.resident_bytes(), kernel.bytes(), "{name}");
                }
            }
            assert_eq!(kernel.walks(), name == "cmb", "{name}");
        }
    }

    /// The sweep the batch rule's [`WALK_RATIO`] was fitted on: per
    /// built-in kernel, instructions per level of depth, the best of
    /// nine single-thread rates (M transitions/s over 2^16 Markov
    /// transitions at sp 0.5, st 0.4) of the gather and the stride walk,
    /// and the walk's table bytes.
    #[test]
    #[ignore = "timing sweep; run with --release --ignored --nocapture"]
    fn batch_rule_sweep() {
        println!("kernel           instrs depth ratio  gather   walk  tables  chosen");
        for (label, kernel) in rule_kernels() {
            let mut source =
                MarkovSource::new(kernel.num_inputs(), 0.5, 0.4, 0x5EED).expect("feasible");
            let block = PatternBlock::from_patterns(&kernel, &source.sequence((1 << 16) + 1));
            let (gathers, walks) = (gathering(&kernel), walking(&kernel));
            let mut out = vec![0.0; block.len()];
            // Alternating best-of-nine: both evaluators sample the same
            // host-load windows.
            let (mut gather, mut walk) = (f64::INFINITY, f64::INFINITY);
            for _ in 0..9 {
                let start = std::time::Instant::now();
                gathers.eval_batch_into(&block, &mut out);
                gather = gather.min(start.elapsed().as_secs_f64());
                let start = std::time::Instant::now();
                walks.eval_batch_into(&block, &mut out);
                walk = walk.min(start.elapsed().as_secs_f64());
            }
            let (gather, walk) = (
                block.len() as f64 / gather / 1e6,
                block.len() as f64 / walk / 1e6,
            );
            let Batch::Walk(stride) = &walks.batch else {
                unreachable!("forced onto the walk")
            };
            println!(
                "{label:<16} {:>6} {:>5} {:>5.0} {gather:>7.1} {walk:>6.1} {:>7}  {}",
                kernel.num_instrs(),
                kernel.depth(),
                kernel.num_instrs() as f64 / kernel.depth().max(1) as f64,
                stride.bytes(),
                if kernel.walks() { "walk" } else { "gather" }
            );
        }
    }
}
