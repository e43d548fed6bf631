//! Pattern-dependent power models and the ADD-backed analytical model.

use charfree_dd::{Add, Manager, NodeId, Var};
use charfree_netlist::units::{Capacitance, Energy, Voltage};
use std::fmt;
use std::time::Duration;

/// A pattern-dependent RT-level power model: given an input transition
/// `(xⁱ, xᶠ)` it predicts the switched capacitance of the macro.
///
/// Implementors include the paper's analytical [`AddPowerModel`] and the
/// characterized baselines
/// [`ConstantModel`](crate::ConstantModel) / [`LinearModel`](crate::LinearModel).
pub trait PowerModel {
    /// Predicted switched capacitance for the transition. May be negative
    /// for unconstrained fitted models (the paper's `Lin` can undershoot).
    fn capacitance(&self, xi: &[bool], xf: &[bool]) -> Capacitance;

    /// Predicted supply energy, `e = Vdd²·C` (Eq. 1).
    fn energy(&self, xi: &[bool], xf: &[bool], vdd: Voltage) -> Energy {
        Energy::from_switched(self.capacitance(xi, xf), vdd)
    }

    /// Predicted switched capacitance (fF) for every consecutive transition
    /// of a pattern stream: `out[t] = C(patterns[t], patterns[t+1])`.
    ///
    /// This is the batch entry point the evaluation sweep and the trace
    /// paths go through. The default implementation loops over
    /// [`PowerModel::capacitance`]; implementations with a faster bulk path
    /// (notably `charfree-engine`'s compiled kernels) override it.
    ///
    /// Returns an empty vector for fewer than two patterns.
    fn capacitance_trace(&self, patterns: &[Vec<bool>]) -> Vec<f64> {
        if patterns.len() < 2 {
            return Vec::new();
        }
        (0..patterns.len() - 1)
            .map(|t| {
                self.capacitance(&patterns[t], &patterns[t + 1])
                    .femtofarads()
            })
            .collect()
    }

    /// Short display name (`Con`, `Lin`, `ADD`, …).
    fn name(&self) -> &str;
}

/// How the `2n` transition variables are ordered in the decision diagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VariableOrdering {
    /// `x₀ⁱ, x₀ᶠ, x₁ⁱ, x₁ᶠ, …` — pairs the two time points of each input;
    /// usually much smaller diagrams (default).
    #[default]
    Interleaved,
    /// `x₀ⁱ, …, x_{n−1}ⁱ, x₀ᶠ, …, x_{n−1}ᶠ` — the layout of the paper's
    /// Fig. 3.
    Grouped,
}

impl VariableOrdering {
    /// The diagram variable carrying input `i` at time `tⁱ`.
    #[inline]
    pub fn xi_var(self, i: usize, n: usize) -> Var {
        match self {
            VariableOrdering::Interleaved => Var((2 * i) as u32),
            VariableOrdering::Grouped => {
                let _ = n;
                Var(i as u32)
            }
        }
    }

    /// The diagram variable carrying input `i` at time `tᶠ`.
    #[inline]
    pub fn xf_var(self, i: usize, n: usize) -> Var {
        match self {
            VariableOrdering::Interleaved => Var((2 * i + 1) as u32),
            VariableOrdering::Grouped => Var((n + i) as u32),
        }
    }

    /// Writes the `2n`-variable assignment for `(xi, xf)` into `buf`
    /// (identity slot mapping).
    #[cfg(test)]
    pub(crate) fn fill_assignment(self, xi: &[bool], xf: &[bool], buf: &mut Vec<bool>) {
        let n = xi.len();
        buf.clear();
        buf.resize(2 * n, false);
        for i in 0..n {
            buf[self.xi_var(i, n).index() as usize] = xi[i];
            buf[self.xf_var(i, n).index() as usize] = xf[i];
        }
    }
}

/// Diagnostics from one model construction.
#[derive(Debug, Clone)]
pub struct BuildReport {
    /// Number of node-collapse invocations during the iterative build.
    pub approximation_rounds: usize,
    /// Total nodes collapsed across all rounds.
    pub nodes_collapsed: usize,
    /// Final diagram size (nodes, terminals included).
    pub final_size: usize,
    /// `true` if no approximation was ever applied — the model is exact and
    /// reproduces gate-level simulation for every pattern pair.
    pub exact: bool,
    /// Wall-clock construction time (the paper's `CPU` column).
    pub cpu: Duration,
}

impl fmt::Display for BuildReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} nodes, {} collapses in {} rounds, {:.2}s{}",
            self.final_size,
            self.nodes_collapsed,
            self.approximation_rounds,
            self.cpu.as_secs_f64(),
            if self.exact { " (exact)" } else { "" }
        )
    }
}

/// The paper's analytical model: an ADD over the `2n` transition variables
/// representing (an approximation of) `C(xⁱ, xᶠ)` from Eq. 4.
///
/// Built by [`ModelBuilder`](crate::ModelBuilder); evaluation is linear in
/// the number of inputs. The model owns its decision-diagram manager.
///
/// # Examples
///
/// ```
/// use charfree_core::{ModelBuilder, PowerModel};
/// use charfree_netlist::benchmarks::paper_unit;
///
/// let model = ModelBuilder::new(&paper_unit()).build();
/// // Fig. 2b / Example 1: C(11, 00) = 90 fF.
/// let c = model.capacitance(&[true, true], &[false, false]);
/// assert_eq!(c.femtofarads(), 90.0);
/// ```
#[derive(Debug)]
pub struct AddPowerModel {
    pub(crate) manager: Manager,
    pub(crate) root: Add,
    pub(crate) num_inputs: usize,
    pub(crate) ordering: VariableOrdering,
    /// `input_slots[i]` = the order slot of macro input `i`; slots permute
    /// inputs so that structurally related inputs sit close in the diagram
    /// order (fanin-DFS heuristic, see `ModelBuilder::input_order`).
    pub(crate) input_slots: Vec<usize>,
    /// The measure mixture under which collapses are steered (see
    /// `ModelBuilder::collapse_toggles`).
    pub(crate) collapse_mixture: Vec<(charfree_dd::ChainMeasure, f64)>,
    /// Analytic per-measure means of the exact switching capacitance
    /// (`Σⱼ Cⱼ·P_t(riseⱼ)`), kept so later [`AddPowerModel::shrink`] calls
    /// can recalibrate without the gate BDDs. `None` when the model was
    /// built with recalibration disabled.
    pub(crate) exact_means: Option<crate::calibrate::ExactMeans>,
    pub(crate) report: BuildReport,
    /// What the degradation ladder gave up, if a resource budget tripped
    /// during construction (`None` for clean builds).
    pub(crate) degradation: Option<crate::degrade::DegradationReport>,
    pub(crate) display_name: String,
}

impl AddPowerModel {
    /// Number of macro inputs `n` (the diagram has `2n` variables).
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// The variable ordering the model was built with.
    pub fn ordering(&self) -> VariableOrdering {
        self.ordering
    }

    /// The input-to-slot permutation: `input_slots()[i]` is the order slot
    /// of macro input `i` (see `ModelBuilder::input_order`). Together with
    /// [`AddPowerModel::ordering`] and [`AddPowerModel::diagram`] this is
    /// everything an external evaluator (e.g. a `charfree-engine` compiled
    /// kernel) needs to map `(xⁱ, xᶠ)` pairs onto diagram variables.
    pub fn input_slots(&self) -> &[usize] {
        &self.input_slots
    }

    /// Construction diagnostics.
    pub fn report(&self) -> &BuildReport {
        &self.report
    }

    /// The degradation report, if a resource budget tripped during
    /// construction and the build finished on a coarser rung of the
    /// ladder. `None` means the model is exactly what the configuration
    /// asked for.
    pub fn degradation(&self) -> Option<&crate::degrade::DegradationReport> {
        self.degradation.as_ref()
    }

    /// Diagram size in nodes (terminals included, CUDD convention — the
    /// number the paper's `MAX` column constrains).
    pub fn size(&self) -> usize {
        self.manager.size(self.root.node())
    }

    /// The average switched capacitance over *all* `4ⁿ` transitions,
    /// computed symbolically (Eq. 6). For an average-collapsed model this is
    /// exactly the golden model's average (Section 3.1 invariant).
    pub fn average_capacitance(&self) -> Capacitance {
        Capacitance(self.manager.add_avg(self.root))
    }

    /// The maximum predicted switched capacitance over all transitions,
    /// computed symbolically. For an upper-bound model this equals the
    /// golden model's true worst case (max-collapse preserves the maximum).
    pub fn max_capacitance(&self) -> Capacitance {
        Capacitance(self.manager.add_max_value(self.root))
    }

    /// The model's expected switched capacitance under input statistics
    /// `(sp, st)`, computed **symbolically** (no simulation): one weighted
    /// traversal of the diagram under the pair-correlated transition
    /// measure.
    ///
    /// For an exact model this is the macro's true analytic average power
    /// at that operating point — the quantity a simulation campaign with
    /// 10 000 vectors estimates with sampling noise, obtained here in
    /// microseconds. Only supported for interleaved models.
    ///
    /// # Panics
    ///
    /// Panics if `sp`/`st` are outside `[0, 1]` or the model uses the
    /// grouped ordering (whose pair correlation is not chain-expressible).
    ///
    /// # Examples
    ///
    /// ```
    /// use charfree_core::ModelBuilder;
    /// use charfree_netlist::benchmarks::paper_unit;
    ///
    /// let model = ModelBuilder::new(&paper_unit()).build();
    /// let busy = model.expected_capacitance(0.5, 0.9);
    /// let idle = model.expected_capacitance(0.5, 0.05);
    /// assert!(busy > idle);
    /// ```
    pub fn expected_capacitance(&self, sp: f64, st: f64) -> Capacitance {
        assert!(
            self.ordering == VariableOrdering::Interleaved,
            "analytic expectations need the interleaved ordering"
        );
        let measure =
            charfree_dd::ChainMeasure::interleaved_transitions(self.num_inputs as u32, sp, st);
        Capacitance(self.manager.snapshot(self.root).means(&[&measure])[0])
    }

    /// One transition achieving the model's maximum, as `(xi, xf)`.
    pub fn worst_case_transition(&self) -> (Vec<bool>, Vec<bool>) {
        let max = self.manager.add_max_value(self.root);
        // Level set of the max value, then one satisfying assignment.
        // `add_threshold` interns new terminals and needs `&mut`; cloning
        // the (plain-arena) manager keeps this query non-mutating.
        let mut m = self.manager.clone();
        let set = m.add_threshold(self.root, |v| v >= max);
        let assignment = m.pick_sat(set).expect("max level set is non-empty");
        let n = self.num_inputs;
        let mut xi = vec![false; n];
        let mut xf = vec![false; n];
        for i in 0..n {
            let slot = self.input_slots[i];
            xi[i] = assignment[self.ordering.xi_var(slot, n).index() as usize];
            xf[i] = assignment[self.ordering.xf_var(slot, n).index() as usize];
        }
        (xi, xf)
    }

    /// Access to the underlying manager and root for analysis.
    pub fn diagram(&self) -> (&Manager, NodeId) {
        (&self.manager, self.root.node())
    }

    /// Renames the model (affects [`PowerModel::name`] and report output).
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.display_name = name.into();
    }

    /// Reorders the model's input pairs with the window search of
    /// [`charfree_dd::reorder::reorder_paired_windows`], keeping the
    /// `xⁱ/xᶠ` interleaving intact, and updates the input-to-slot mapping
    /// so evaluation is unchanged. Often shrinks the diagram (useful
    /// before [`AddPowerModel::shrink`] to spend the node budget on
    /// content rather than bad ordering).
    ///
    /// Only meaningful for interleaved models; a grouped model is returned
    /// unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `window` is outside `2..=4`.
    pub fn reorder_pairs(mut self, window: usize, passes: usize) -> Self {
        if self.ordering != VariableOrdering::Interleaved {
            return self;
        }
        let (root, placement) = charfree_dd::reorder::reorder_paired_windows(
            &mut self.manager,
            self.root.node(),
            window,
            passes,
        );
        self.root = Add::from_node(root);
        for slot in &mut self.input_slots {
            *slot = placement[*slot];
        }
        let kept = self.manager.compact(&[self.root.node()]);
        self.root = Add::from_node(kept[0]);
        self.report.final_size = self.manager.size(self.root.node());
        self
    }

    /// Shrinks an already-built model below `max_nodes` with one
    /// approximation pass — useful to derive a family of progressively
    /// smaller models from a single (possibly exact) build, as in the
    /// paper's Fig. 7b accuracy/size trade-off study.
    ///
    /// # Panics
    ///
    /// Panics if `max_nodes == 0`.
    pub fn shrink(mut self, max_nodes: usize, strategy: crate::ApproxStrategy) -> Self {
        let mixture = self.collapse_mixture.clone();
        let (root, outcome) = crate::approx::approximate_to_mixture(
            &mut self.manager,
            self.root,
            max_nodes,
            strategy,
            &mixture,
        );
        self.root = root;
        self.report.approximation_rounds += outcome.rounds;
        self.report.nodes_collapsed += outcome.nodes_collapsed;
        self.report.exact = self.report.exact && outcome.nodes_collapsed == 0;

        // Re-zero the no-transition diagonal (see ModelBuilder::build);
        // shrink to a reduced target first if the gated product would
        // exceed the budget.
        let n = self.num_inputs;
        if !self.report.exact && max_nodes >= 4 * n + 8 {
            let mut toggles = self.manager.bdd_false();
            for i in 0..n {
                let slot = self.input_slots[i];
                let a = self.manager.bdd_var(self.ordering.xi_var(slot, n));
                let b = self.manager.bdd_var(self.ordering.xf_var(slot, n));
                let t = self.manager.bdd_xor(a, b);
                toggles = self.manager.bdd_or(toggles, t);
            }
            let mut target = max_nodes;
            loop {
                let gated = self.manager.add_times(self.root, toggles.as_add());
                if self.manager.size(gated.node()) <= max_nodes {
                    self.root = gated;
                    break;
                }
                target = std::cmp::max(target * 3 / 4, 1);
                let (r, out) = crate::approx::approximate_to_mixture(
                    &mut self.manager,
                    self.root,
                    target,
                    strategy,
                    &mixture,
                );
                self.root = r;
                self.report.approximation_rounds += out.rounds;
                self.report.nodes_collapsed += out.nodes_collapsed;
            }
        }

        if let Some(means) = self.exact_means.clone() {
            if !self.report.exact && strategy == crate::ApproxStrategy::Average {
                self.root = crate::calibrate::recalibrate_leaves(
                    &mut self.manager,
                    self.root,
                    &mixture,
                    &means,
                    0.05,
                );
            }
        }

        let keep = self.manager.compact(&[self.root.node()]);
        self.root = charfree_dd::Add::from_node(keep[0]);
        self.report.final_size = self.manager.size(self.root.node());
        self
    }
}

impl PowerModel for AddPowerModel {
    fn capacitance(&self, xi: &[bool], xf: &[bool]) -> Capacitance {
        assert_eq!(xi.len(), self.num_inputs, "pattern width mismatch");
        assert_eq!(xf.len(), self.num_inputs, "pattern width mismatch");
        let n = self.num_inputs;
        let mut buf = vec![false; 2 * n];
        for i in 0..n {
            let slot = self.input_slots[i];
            buf[self.ordering.xi_var(slot, n).index() as usize] = xi[i];
            buf[self.ordering.xf_var(slot, n).index() as usize] = xf[i];
        }
        Capacitance(self.manager.add_eval(self.root, &buf))
    }

    fn name(&self) -> &str {
        &self.display_name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_maps_are_disjoint_and_complete() {
        for ordering in [VariableOrdering::Interleaved, VariableOrdering::Grouped] {
            let n = 5;
            let mut seen = std::collections::HashSet::new();
            for i in 0..n {
                assert!(seen.insert(ordering.xi_var(i, n)));
                assert!(seen.insert(ordering.xf_var(i, n)));
            }
            assert_eq!(seen.len(), 2 * n);
            assert!(seen.iter().all(|v| (v.index() as usize) < 2 * n));
        }
    }

    #[test]
    fn fill_assignment_round_trips() {
        let ordering = VariableOrdering::Interleaved;
        let xi = [true, false, true];
        let xf = [false, false, true];
        let mut buf = Vec::new();
        ordering.fill_assignment(&xi, &xf, &mut buf);
        for i in 0..3 {
            assert_eq!(buf[ordering.xi_var(i, 3).index() as usize], xi[i]);
            assert_eq!(buf[ordering.xf_var(i, 3).index() as usize], xf[i]);
        }
    }

    #[test]
    fn expected_capacitance_is_pinned_for_exact_models() {
        // Bit patterns of the root average of the full measured profile;
        // the bottom-up mean must reproduce them to the last bit.
        let library = charfree_netlist::Library::test_library();
        type Pin = ((f64, f64), u64);
        let pins: [(&str, [Pin; 3]); 2] = [
            (
                "decod",
                [
                    ((0.5, 0.5), 0x4048_e400_0000_0000),
                    ((0.3, 0.2), 0x4035_b3a6_8b19_a414),
                    ((0.8, 0.3), 0x4045_e3c8_f323_78ab),
                ],
            ),
            (
                "x2",
                [
                    ((0.5, 0.5), 0x4061_c926_6000_0000),
                    ((0.3, 0.2), 0x4050_a5e8_9a28_09de),
                    ((0.8, 0.3), 0x4061_44a8_0481_7f1b),
                ],
            ),
        ];
        for (name, points) in pins {
            let netlist = charfree_netlist::benchmarks::by_name(name, &library).expect("benchmark");
            let model = crate::builder::ModelBuilder::new(&netlist).build();
            for ((sp, st), bits) in points {
                let got = model.expected_capacitance(sp, st).femtofarads();
                assert_eq!(got.to_bits(), bits, "{name} (sp={sp}, st={st}): {got}");
            }
        }
    }
}

#[cfg(test)]
mod reorder_tests {
    use crate::builder::{InputOrder, ModelBuilder};
    use crate::model::PowerModel;
    use charfree_netlist::{benchmarks, Library};
    use charfree_sim::{ExhaustivePairs, ZeroDelaySim};

    #[test]
    fn reorder_pairs_preserves_evaluation() {
        let library = Library::test_library();
        let netlist = benchmarks::by_name("decod", &library).expect("Table 1 name");
        let sim = ZeroDelaySim::new(&netlist);
        // Start from the worst input order so there is something to fix.
        let model = ModelBuilder::new(&netlist)
            .input_order(InputOrder::Custom(vec![4, 0, 3, 1, 2]))
            .build();
        let before = model.size();
        let reordered = model.reorder_pairs(3, 3);
        assert!(reordered.size() <= before, "reordering never grows");
        for (xi, xf) in ExhaustivePairs::new(5) {
            assert_eq!(
                reordered.capacitance(&xi, &xf),
                sim.switching_capacitance(&xi, &xf),
                "xi={xi:?} xf={xf:?}"
            );
        }
    }

    #[test]
    fn reorder_fixes_a_bad_order_substantially() {
        // cm85 with natural input order (operand bits far apart) is several
        // times larger than with a good order; pair reordering must close
        // a decent part of that gap.
        let library = Library::test_library();
        let netlist = benchmarks::by_name("cm85", &library).expect("Table 1 name");
        let bad = ModelBuilder::new(&netlist)
            .input_order(InputOrder::Natural)
            .build();
        let before = bad.size();
        let fixed = bad.reorder_pairs(3, 4);
        assert!(
            fixed.size() < before / 2,
            "pair reordering should at least halve cm85's natural-order ADD: {before} -> {}",
            fixed.size()
        );
        // Spot-check semantics.
        let sim = ZeroDelaySim::new(&netlist);
        for trial in 0..64u32 {
            let xi: Vec<bool> = (0..11).map(|i| trial >> (i % 6) & 1 == 1).collect();
            let xf: Vec<bool> = (0..11).map(|i| trial >> ((i + 3) % 6) & 1 == 1).collect();
            assert_eq!(
                fixed.capacitance(&xi, &xf),
                sim.switching_capacitance(&xi, &xf)
            );
        }
    }
}
