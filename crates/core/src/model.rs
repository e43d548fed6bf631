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

/// The diagram variable carrying the input at order slot `slot` at time
/// `tⁱ`. The `2n` transition variables interleave the two time points of
/// each input, `x₀ⁱ, x₀ᶠ, x₁ⁱ, x₁ᶠ, …`, which keeps the diagrams small and
/// makes the pair correlation of a transition measure chain-expressible
/// (see [`ChainMeasure::interleaved_transitions`](charfree_dd::ChainMeasure::interleaved_transitions)).
#[inline]
pub fn xi_var(slot: usize) -> Var {
    Var((2 * slot) as u32)
}

/// The diagram variable carrying the input at order slot `slot` at time
/// `tᶠ` (see [`xi_var`]).
#[inline]
pub fn xf_var(slot: usize) -> Var {
    Var((2 * slot + 1) as u32)
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
    /// `input_slots[i]` = the order slot of macro input `i`; slots permute
    /// inputs so that structurally related inputs sit close in the diagram
    /// order (the builder's fanin-DFS heuristic).
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

    /// The input-to-slot permutation: `input_slots()[i]` is the order slot
    /// of macro input `i`. Together with [`xi_var`], [`xf_var`] and
    /// [`AddPowerModel::diagram`] this is everything an external evaluator
    /// (e.g. a `charfree-engine` compiled kernel) needs to map `(xⁱ, xᶠ)`
    /// pairs onto diagram variables.
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
        let uniform = charfree_dd::ChainMeasure::uniform(2 * self.num_inputs as u32);
        Capacitance(self.manager.snapshot(self.root).means(&[&uniform])[0])
    }

    /// The maximum predicted switched capacitance over all transitions,
    /// computed symbolically. For an upper-bound model this equals the
    /// golden model's true worst case (max-collapse preserves the maximum).
    pub fn max_capacitance(&self) -> Capacitance {
        Capacitance(self.max_value())
    }

    /// The largest terminal value of the diagram (every terminal is
    /// reached by some transition).
    fn max_value(&self) -> f64 {
        let snap = self.manager.snapshot(self.root);
        *snap
            .terminal_values()
            .last()
            .expect("a diagram has at least one terminal")
    }

    /// The model's expected switched capacitance under input statistics
    /// `(sp, st)`, computed **symbolically** (no simulation): one weighted
    /// traversal of the diagram under the pair-correlated transition
    /// measure.
    ///
    /// For an exact model this is the macro's true analytic average power
    /// at that operating point — the quantity a simulation campaign with
    /// 10 000 vectors estimates with sampling noise, obtained here in
    /// microseconds.
    ///
    /// # Panics
    ///
    /// Panics if `sp`/`st` are outside `[0, 1]`.
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
        let measure =
            charfree_dd::ChainMeasure::interleaved_transitions(self.num_inputs as u32, sp, st);
        Capacitance(self.manager.snapshot(self.root).means(&[&measure])[0])
    }

    /// One transition achieving the model's maximum, as `(xi, xf)`.
    pub fn worst_case_transition(&self) -> (Vec<bool>, Vec<bool>) {
        let max = self.max_value();
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
            xi[i] = assignment[xi_var(slot).index() as usize];
            xf[i] = assignment[xf_var(slot).index() as usize];
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

    /// Shrinks an already-built model below `max_nodes` with one
    /// approximation pass — useful to derive a family of progressively
    /// smaller models from a single (possibly exact) build, as in the
    /// paper's Fig. 7b accuracy/size trade-off study.
    ///
    /// An approximated result then goes through the builder's finishing
    /// pass: its no-transition diagonal is gated whenever `max_nodes`
    /// affords the `4n + 8`-node indicator (whatever the build's
    /// `diagonal_gating` setting was), and an average model built with
    /// leaf recalibration is recalibrated.
    ///
    /// # Panics
    ///
    /// Panics if `max_nodes == 0`.
    pub fn shrink(mut self, max_nodes: usize, strategy: crate::ApproxStrategy) -> Self {
        let mut collapser = crate::approx::Collapser {
            strategy,
            mixture: std::mem::take(&mut self.collapse_mixture),
            rounds: self.report.approximation_rounds,
            collapsed: self.report.nodes_collapsed,
        };
        let collapsed_before = collapser.collapsed;
        let mut root = self.root;
        if self.size() > max_nodes {
            root = collapser.shrink(&mut self.manager, root, max_nodes);
        }
        self.report.exact = self.report.exact && collapser.collapsed == collapsed_before;
        let approximated = !self.report.exact;
        self.root = crate::builder::finish(
            &mut self.manager,
            root,
            Some(max_nodes),
            approximated,
            &self.input_slots,
            &mut collapser,
            self.exact_means.as_ref().filter(|_| approximated),
        );
        self.collapse_mixture = collapser.mixture;
        self.report.approximation_rounds = collapser.rounds;
        self.report.nodes_collapsed = collapser.collapsed;
        self.report.final_size = self.size();
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
            buf[xi_var(slot).index() as usize] = xi[i];
            buf[xf_var(slot).index() as usize] = xf[i];
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
    fn slot_variables_are_disjoint_and_complete() {
        let n = 5;
        let mut seen = std::collections::HashSet::new();
        for slot in 0..n {
            assert!(seen.insert(xi_var(slot)));
            assert!(seen.insert(xf_var(slot)));
        }
        assert_eq!(seen.len(), 2 * n);
        assert!(seen.iter().all(|v| (v.index() as usize) < 2 * n));
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
