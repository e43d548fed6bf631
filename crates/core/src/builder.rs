//! Symbolic construction of the switching-capacitance ADD (paper Fig. 6).
//!
//! For every gate `g_j` of the golden model the builder forms the rising
//! condition `g_j'(xⁱ) · g_j(xᶠ)` as a BDD over the `2n` transition
//! variables, scales it by the gate's load `C_j`, and accumulates:
//!
//! ```text
//! C = 0
//! for j in 1..=N:
//!     deltaC = bdd_and(bdd_not(g_j(xi)), g_j(xf))
//!     deltaC = add_times(deltaC, C_j)
//!     if add_size(deltaC) > MAX: add_approx(deltaC, MAX)
//!     C = add_sum(C, deltaC)
//!     if add_size(C) > MAX: add_approx(C, MAX)
//! ```
//!
//! Approximation *during* construction is what keeps the build feasible for
//! units whose exact ADD explodes; the additive invariants
//! `avg(a)+avg(b)=avg(a+b)` and `max(a)+max(b) ≥ max(a+b)` (Section 3.1)
//! guarantee the chosen strategy's global property survives the summation.

use crate::approx::{ApproxStrategy, Collapser};
use crate::calibrate::{recalibrate_leaves, ExactMeans};
use crate::degrade::{BuildError, DegradationReport, DegradationRung};
use crate::model::{xf_var, xi_var, AddPowerModel, BuildReport};
use charfree_dd::reorder::reorder_paired_windows;
use charfree_dd::{
    Add, ApplyStats, Bdd, Budget, ChainMeasure, DdError, Manager, NodeId, Resource, Rounding, Var,
};
use charfree_netlist::{CellKind, Netlist};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Builder for [`AddPowerModel`]s.
///
/// # Examples
///
/// An upper-bound model capped at 50 nodes:
///
/// ```
/// use charfree_core::{ApproxStrategy, ModelBuilder, PowerModel};
/// use charfree_netlist::{benchmarks, Library};
///
/// let library = Library::test_library();
/// let cm85 = benchmarks::by_name("cm85", &library).expect("Table 1 name");
/// let bound = ModelBuilder::new(&cm85)
///     .max_nodes(50)
///     .strategy(ApproxStrategy::UpperBound)
///     .build();
/// assert!(bound.size() <= 50);
/// ```
#[derive(Debug)]
pub struct ModelBuilder<'a> {
    netlist: &'a Netlist,
    max_nodes: Option<usize>,
    strategy: ApproxStrategy,
    collapse_toggles: Vec<f64>,
    recalibrate: bool,
    diagonal_gating: bool,
    compact_every: usize,
    node_budget: Option<u64>,
    time_budget: Option<Duration>,
    trips: Vec<u64>,
    strict: bool,
    stats: Option<Arc<ApplyStats>>,
}

/// Default toggle-probability family the collapse mixture spans; chosen to
/// cover the whole `st` sweep of the paper's Fig. 7a.
const DEFAULT_COLLAPSE_TOGGLES: [f64; 5] = [0.05, 0.15, 0.3, 0.5, 0.8];

impl<'a> ModelBuilder<'a> {
    /// Starts a builder with defaults: no size bound (exact model),
    /// [`ApproxStrategy::Average`].
    pub fn new(netlist: &'a Netlist) -> Self {
        ModelBuilder {
            netlist,
            max_nodes: None,
            strategy: ApproxStrategy::Average,
            collapse_toggles: DEFAULT_COLLAPSE_TOGGLES.to_vec(),
            recalibrate: true,
            diagonal_gating: true,
            compact_every: 16,
            node_budget: None,
            time_budget: None,
            trips: Vec::new(),
            strict: false,
            stats: None,
        }
    }

    /// Sets the per-input flip probabilities spanned by the *collapse
    /// measure mixture*: approximation is steered to minimize the expected
    /// error averaged over transition distributions with these toggle
    /// rates (default `[0.05, 0.15, 0.3, 0.5, 0.8]`, covering the paper's
    /// `st` sweep).
    ///
    /// Passing `[0.5]` alone recovers the paper's uniform measure (under
    /// which the exact global average is preserved by construction, but
    /// accuracy away from `st = 0.5` degrades).
    ///
    /// # Panics
    ///
    /// Panics if `toggles` is empty or any value is outside `(0, 1)`.
    pub fn collapse_toggles(mut self, toggles: &[f64]) -> Self {
        assert!(!toggles.is_empty(), "at least one toggle rate required");
        assert!(
            toggles.iter().all(|&t| t > 0.0 && t < 1.0),
            "toggle rates must be in (0,1)"
        );
        self.collapse_toggles = toggles.to_vec();
        self
    }

    /// Enables or disables analytic terminal recalibration of approximated
    /// average models (default: enabled). Recalibration shifts leaf values
    /// to cancel the model's mean bias across the collapse-measure family,
    /// computed entirely from the gate BDDs — no simulation involved (see
    /// `calibrate` module docs). Ignored for upper-bound models.
    pub fn leaf_recalibration(mut self, enabled: bool) -> Self {
        self.recalibrate = enabled;
        self
    }

    /// Enables or disables zeroing of the no-transition diagonal after
    /// approximation (default: enabled). `C(x, x) = 0` holds exactly in the
    /// golden model; gating restores it in approximated models at the cost
    /// of a 2n-node indicator chain. Disable together with
    /// [`ModelBuilder::leaf_recalibration`] and `collapse_toggles(&[0.5])`
    /// to reproduce the paper's plain configuration, under which the
    /// global average is preserved exactly (Section 3.1).
    pub fn diagonal_gating(mut self, enabled: bool) -> Self {
        self.diagonal_gating = enabled;
        self
    }

    /// Caps the diagram at `max` nodes (the paper's `MAX`), enabling
    /// approximation during construction.
    ///
    /// # Panics
    ///
    /// Panics if `max == 0`.
    pub fn max_nodes(mut self, max: usize) -> Self {
        assert!(max >= 1, "MAX must be at least 1");
        self.max_nodes = Some(max);
        self
    }

    /// Selects the approximation strategy (average-accurate vs conservative
    /// upper bound).
    pub fn strategy(mut self, strategy: ApproxStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Caps the live-node population of the construction arena — the
    /// primary knob of the resource governor. When the cap trips, the
    /// degradation ladder fires (see [`DegradationReport`]); in
    /// [`ModelBuilder::strict`] mode the build fails instead. The final
    /// model is also approximated below this cap.
    ///
    /// Distinct from [`ModelBuilder::max_nodes`]: `max_nodes` is the
    /// paper's *accuracy* knob (target size of the finished model), the
    /// node budget is a *robustness* knob (hard ceiling on transient
    /// construction state, including the gate BDDs that `max_nodes`
    /// cannot approximate).
    ///
    /// # Panics
    ///
    /// Panics if `nodes == 0`.
    pub fn node_budget(mut self, nodes: u64) -> Self {
        assert!(nodes >= 1, "node budget must be at least 1");
        self.node_budget = Some(nodes);
        self
    }

    /// Sets a wall-clock deadline for the whole construction. A deadline
    /// trip skips straight to the constant-fallback rung — retrying
    /// cannot recover elapsed time.
    pub fn time_budget(mut self, timeout: Duration) -> Self {
        self.time_budget = Some(timeout);
        self
    }

    /// Strict mode: the first budget trip aborts the build with
    /// [`BuildError::BudgetExceeded`] instead of degrading the model.
    pub fn strict(mut self, strict: bool) -> Self {
        self.strict = strict;
        self
    }

    /// Schedules a deterministic fault-injection budget trip `n`
    /// checkpoints after the previously scheduled one (chainable; see
    /// [`Budget::trip_after`]). Lets tests exercise each degradation
    /// rung without constructing genuinely huge diagrams.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn trip_after(mut self, n: u64) -> Self {
        assert!(n > 0, "trip_after needs a positive checkpoint count");
        self.trips.push(n);
        self
    }

    /// Attaches a shared telemetry sink that accumulates apply-step counts
    /// and peak arena pressure across every budget checkpoint of this
    /// build (see [`ApplyStats`]). The sink is additive and may be shared
    /// across builds; a run that never enters the symbolic phase — e.g. a
    /// warm cache hit upstream — leaves it untouched, which is how callers
    /// prove a model was *not* rebuilt.
    pub fn stats(mut self, sink: Arc<ApplyStats>) -> Self {
        self.stats = Some(sink);
        self
    }

    /// Runs the construction, panicking on failure.
    ///
    /// Without a resource budget configured the construction cannot fail,
    /// so this stays the convenient entry point for unbudgeted builds;
    /// budgeted callers use [`ModelBuilder::try_build`].
    ///
    /// # Panics
    ///
    /// Panics if the netlist fails validation, or if a configured budget
    /// is exhausted in strict mode.
    pub fn build(self) -> AddPowerModel {
        self.try_build()
            .unwrap_or_else(|e| panic!("netlist must be valid and within budget: {e}"))
    }

    /// Runs the construction under the configured resource budget,
    /// degrading gracefully instead of failing.
    ///
    /// When a budget limit trips mid-construction the builder walks a
    /// three-rung degradation ladder (collapse pending partial sums →
    /// reorder variables and retry the failed gate → fold the remaining
    /// gates in as conservative load constants) and returns `Ok` with a
    /// [`DegradationReport`] attached to the model
    /// ([`AddPowerModel::degradation`]). Only [`ModelBuilder::strict`]
    /// mode converts a trip into an error.
    ///
    /// # Errors
    ///
    /// [`BuildError::InvalidNetlist`] if the netlist fails validation;
    /// [`BuildError::BudgetExceeded`] if a budget trips in strict mode.
    ///
    /// # Examples
    ///
    /// A build driven over budget by fault injection degrades instead of
    /// failing:
    ///
    /// ```
    /// use charfree_core::ModelBuilder;
    /// use charfree_netlist::{benchmarks, Library};
    ///
    /// let library = Library::test_library();
    /// let netlist = benchmarks::by_name("cm85", &library).expect("Table 1 name");
    /// let model = ModelBuilder::new(&netlist)
    ///     .node_budget(400)
    ///     .trip_after(50)
    ///     .try_build()
    ///     .expect("degrades, never fails");
    /// let report = model.degradation().expect("the trip fired a rung");
    /// assert!(!report.rungs.is_empty());
    /// ```
    pub fn try_build(self) -> Result<AddPowerModel, BuildError> {
        Ok(self.try_accumulate()?.collapse())
    }

    /// Stage 1 of the construction: runs the budgeted gate loop of the
    /// paper's Fig. 6 (node-function BDDs, rise conditions, binary-counter
    /// partial sums, the full degradation ladder) and stops *before* the
    /// partial sums are folded into one diagram. The returned
    /// [`PartialBuild`] owns the live arena; [`PartialBuild::collapse`]
    /// finishes the model.
    ///
    /// [`ModelBuilder::try_build`] is exactly
    /// `try_accumulate()?.collapse()` — the split exists so staged drivers
    /// (the pipeline crate) can time and report the two phases separately.
    ///
    /// # Errors
    ///
    /// Same contract as [`ModelBuilder::try_build`].
    pub fn try_accumulate(self) -> Result<PartialBuild<'a>, BuildError> {
        self.netlist
            .validate()
            .map_err(BuildError::InvalidNetlist)?;
        let start = Instant::now();

        let mut budget = Budget::unlimited();
        if let Some(nodes) = self.node_budget {
            budget = budget.with_max_live_nodes(nodes);
        }
        if let Some(timeout) = self.time_budget {
            budget = budget.with_deadline(timeout);
        }
        if let Some(sink) = &self.stats {
            budget = budget.with_stats(sink.clone());
        }
        for &trip in &self.trips {
            budget = budget.trip_after(trip);
        }
        // Size ceiling the *finished* model must respect: the explicit
        // approximation target if given, else the construction budget.
        let cap = self
            .max_nodes
            .or(self.node_budget.map(|v| (v as usize).max(1)));

        let n = self.netlist.num_inputs();
        let mut input_slots = self.resolve_input_slots();
        let mut m = Manager::new(2 * n as u32);

        // Node-function BDDs per signal, over the xi and xf variable blocks.
        let mut sig_i: Vec<Option<Bdd>> = vec![None; self.netlist.num_signals()];
        let mut sig_f: Vec<Option<Bdd>> = vec![None; self.netlist.num_signals()];
        for (i, &sig) in self.netlist.inputs().iter().enumerate() {
            let slot = input_slots[i];
            sig_i[sig.index()] = Some(m.bdd_var(xi_var(slot)));
            sig_f[sig.index()] = Some(m.bdd_var(xf_var(slot)));
        }

        // Remaining-use counts so dead node functions can be collected.
        let mut uses = vec![0usize; self.netlist.num_signals()];
        for (_, gate) in self.netlist.gates() {
            for &s in gate.inputs() {
                uses[s.index()] += 1;
            }
        }

        // Binary-counter accumulation: `pending[r]` holds a partial sum of
        // 2^r gate contributions. Merging equal-rank sums keeps operand
        // supports correlated (nearby gates) and cuts the number of
        // size-triggered approximation passes from O(N) to O(N / 2^r0),
        // which dominates construction time on large units. Plain
        // left-fold summation is the paper's literal Fig. 6; '+' is
        // associative, so the result is equivalent up to approximation
        // scheduling.
        let mut pending: Vec<Option<Add>> = Vec::new();
        // Terminal quantization step: switching-capacitance ADDs are
        // value-driven (every distinct partial sum of loads is a terminal),
        // and merging sums over disjoint supports multiplies terminal
        // sets. Snapping terminals to a fine grid (2^-14 of the total
        // load) bounds that growth with a relative error ~6e-5 — far below
        // model accuracy. The upper-bound strategy rounds *up*, preserving
        // conservativeness. A bounded merge snaps inside its add
        // (`try_add_plus_quantized`), so the unquantized sum is never
        // built; exact builds (no cap) do not quantize.
        let quantum = (self.netlist.total_load().femtofarads() / 16384.0).max(1e-9);
        let weight = 1.0 / self.collapse_toggles.len() as f64;
        let mixture: Vec<(ChainMeasure, f64)> = self
            .collapse_toggles
            .iter()
            .map(|&t| {
                (
                    ChainMeasure::interleaved_transitions(n as u32, 0.5, t),
                    weight,
                )
            })
            .collect();
        // Analytic per-measure means of the exact switching capacitance,
        // Σⱼ Cⱼ·P_t(riseⱼ), accumulated gate by gate for recalibration
        // (during this build and any later `shrink`).
        let mut exact_means = ExactMeans(vec![0.0; mixture.len()]);
        let mut collapser = Collapser {
            strategy: self.strategy,
            mixture,
            rounds: 0,
            collapsed: 0,
        };

        // Degradation-ladder state.
        let mut deg = DegradationReport {
            node_budget: self.node_budget,
            ..DegradationReport::default()
        };
        let gate_ids: Vec<_> = self.netlist.gates().map(|(id, _)| id).collect();
        let mut retries = vec![0usize; gate_ids.len()];
        let mut reorderings = 0usize;
        let mut constant_tail = 0.0f64;
        let mut gates_folded = 0usize;

        let mut gate_no = 0usize;
        while gate_no < gate_ids.len() {
            let gate = self.netlist.gate(gate_ids[gate_no]);

            // Phase A (retriable): node functions and the scaled rise ADD.
            // Nothing is committed on failure — recalibration means land in
            // a local buffer and the signal tables are written only on
            // success, so a remediated retry starts clean.
            let attempt = (|m: &mut Manager,
                            collapser: &mut Collapser|
             -> Result<(Bdd, Bdd, Add, Vec<f64>), DdError> {
                let pins_i: Vec<Bdd> = gate
                    .inputs()
                    .iter()
                    .map(|s| sig_i[s.index()].expect("topological order"))
                    .collect();
                let pins_f: Vec<Bdd> = gate
                    .inputs()
                    .iter()
                    .map(|s| sig_f[s.index()].expect("topological order"))
                    .collect();
                let gi = try_gate_bdd(m, gate.kind(), &pins_i, &budget)?;
                let gf = try_gate_bdd(m, gate.kind(), &pins_f, &budget)?;

                // deltaC = (NOT g(xi)) AND g(xf), scaled by the load.
                let not_gi = m.try_bdd_not(gi, &budget)?;
                let rise = m.try_bdd_and(not_gi, gf, &budget)?;
                let mut means = vec![0.0f64; collapser.mixture.len()];
                if self.recalibrate {
                    let measures: Vec<&ChainMeasure> = collapser
                        .mixture
                        .iter()
                        .map(|(measure, _)| measure)
                        .collect();
                    let rise_means = m.snapshot(rise.as_add()).means(&measures);
                    for (mean, p) in means.iter_mut().zip(rise_means) {
                        *mean += gate.load().femtofarads() * p;
                    }
                }
                let mut delta =
                    m.try_add_scale(rise.as_add(), gate.load().femtofarads(), &budget)?;
                // Working slack: let intermediates grow to 2×cap before
                // collapsing back. Halves the number of approximation
                // passes (their cost dominates large builds) without
                // changing the final budget, which the post-loop pass
                // enforces.
                if let Some(max) = cap {
                    if m.size(delta.node()) > 2 * max {
                        delta = collapser.shrink(m, delta, max);
                    }
                }
                Ok((gi, gf, delta, means))
            })(&mut m, &mut collapser);

            let (err, contribution_committed) = match attempt {
                Ok((gi, gf, delta, means)) => {
                    sig_i[gate.output().index()] = Some(gi);
                    sig_f[gate.output().index()] = Some(gf);
                    for (acc, d) in exact_means.0.iter_mut().zip(&means) {
                        *acc += d;
                    }

                    // Phase B: carry-propagate the contribution through the
                    // binary counter (see the comment on `pending` above).
                    let mut committed = Ok(());
                    let mut cur = delta;
                    let mut rank = 0usize;
                    loop {
                        if rank == pending.len() {
                            pending.push(None);
                        }
                        match pending[rank].take() {
                            None => {
                                pending[rank] = Some(cur);
                                break;
                            }
                            Some(other) => match try_merge_bounded(
                                &mut m,
                                other,
                                cur,
                                cap,
                                quantum,
                                &mut collapser,
                                &budget,
                            ) {
                                Ok(merged) => {
                                    cur = merged;
                                    rank += 1;
                                }
                                Err(e) => {
                                    // Both operands remain valid diagrams;
                                    // stash them so the represented total is
                                    // unchanged, then let the ladder
                                    // remediate. The gate itself is done.
                                    pending[rank] = Some(other);
                                    pending.push(Some(cur));
                                    committed = Err(e);
                                    break;
                                }
                            },
                        }
                    }

                    // Release node functions that no later gate consumes.
                    for &s in gate.inputs() {
                        let u = &mut uses[s.index()];
                        *u -= 1;
                        if *u == 0 {
                            sig_i[s.index()] = None;
                            sig_f[s.index()] = None;
                        }
                    }
                    m.clear_caches();

                    match committed {
                        Ok(()) => {
                            if (gate_no + 1).is_multiple_of(self.compact_every) {
                                compact_live(&mut m, &mut sig_i, &mut sig_f, &mut pending);
                            }
                            gate_no += 1;
                            continue;
                        }
                        Err(e) => (e, true),
                    }
                }
                Err(e) => (e, false),
            };

            // A budget trip: strict mode errors out, otherwise the ladder
            // picks a remediation rung.
            if self.strict {
                return Err(err.into());
            }
            let DdError::BudgetExceeded { resource, .. } = err;
            deg.first_trip.get_or_insert(resource);
            retries[gate_no] += 1;
            // Time exhaustion is terminal: a retry would trip again
            // immediately, so jump to the last rung.
            let terminal = resource == Resource::WallClock;
            let rung = DegradationRung::select(terminal, retries[gate_no], reorderings < 2);
            deg.rungs.push(rung);
            match rung {
                DegradationRung::ShedPartialSums => {
                    shed_pending(&mut m, &mut pending, self.node_budget, &mut collapser);
                    compact_live(&mut m, &mut sig_i, &mut sig_f, &mut pending);
                    m.clear_caches();
                }
                DegradationRung::ReorderVariables => {
                    reorderings += 1;
                    reorder_live(
                        &mut m,
                        &mut sig_i,
                        &mut sig_f,
                        &mut pending,
                        &mut input_slots,
                    );
                    compact_live(&mut m, &mut sig_i, &mut sig_f, &mut pending);
                    m.clear_caches();
                }
                DegradationRung::ConstantFallback => {
                    // Every remaining gate switches at most its own load per
                    // cycle, so a constant C_j per gate is a valid,
                    // conservative stand-in for its contribution.
                    let from = if contribution_committed {
                        gate_no + 1
                    } else {
                        gate_no
                    };
                    for &id in &gate_ids[from..] {
                        constant_tail += self.netlist.gate(id).load().femtofarads();
                        gates_folded += 1;
                    }
                    break;
                }
            }
            if contribution_committed {
                gate_no += 1;
            }
        }

        deg.gates_folded = gates_folded;
        deg.constant_tail_ff = constant_tail;
        deg.gate_retries = gate_ids
            .iter()
            .enumerate()
            .filter(|&(i, _)| retries[i] > 0)
            .map(|(i, &id)| {
                let out = self.netlist.gate(id).output();
                (self.netlist.signal_name(out).to_owned(), retries[i])
            })
            .collect();
        Ok(PartialBuild {
            builder: self,
            m,
            pending,
            cap,
            quantum,
            collapser,
            exact_means,
            deg,
            constant_tail,
            input_slots,
            start,
        })
    }

    /// Maps every input index to its order slot: the classic fanin-DFS
    /// order (depth-first from the primary outputs through the gate
    /// fanins, recording primary inputs in first-visit order). Diagram
    /// size is exquisitely order-sensitive: a comparator whose `a` and `b`
    /// operand bits sit far apart blows up exponentially, and this order
    /// clusters structurally related inputs.
    fn resolve_input_slots(&self) -> Vec<usize> {
        let n = self.netlist.num_inputs();
        // Input index per signal (primary inputs only).
        let mut input_of_signal = vec![usize::MAX; self.netlist.num_signals()];
        for (i, &sig) in self.netlist.inputs().iter().enumerate() {
            input_of_signal[sig.index()] = i;
        }
        let mut slots = vec![usize::MAX; n];
        let mut next_slot = 0usize;
        let mut visited = vec![false; self.netlist.num_signals()];
        // Iterative DFS from each output through gate fanins.
        let mut stack = Vec::new();
        for &out in self.netlist.outputs() {
            stack.push(out);
            while let Some(sig) = stack.pop() {
                if visited[sig.index()] {
                    continue;
                }
                visited[sig.index()] = true;
                match self.netlist.driver(sig) {
                    Some(gid) => {
                        // Push fanins in reverse so pin 0 is visited first
                        // (deterministic).
                        for &fanin in self.netlist.gate(gid).inputs().iter().rev() {
                            stack.push(fanin);
                        }
                    }
                    None => {
                        let i = input_of_signal[sig.index()];
                        if i != usize::MAX && slots[i] == usize::MAX {
                            slots[i] = next_slot;
                            next_slot += 1;
                        }
                    }
                }
            }
        }
        // Inputs unreachable from any output still need a slot.
        for s in &mut slots {
            if *s == usize::MAX {
                *s = next_slot;
                next_slot += 1;
            }
        }
        slots
    }
}

/// The state of a construction after [`ModelBuilder::try_accumulate`]:
/// every gate's contribution sits in the binary-counter partial sums (or
/// the conservative constant tail, if the degradation ladder folded it
/// there), but the sums have not been combined, gated, or recalibrated
/// yet. Consume it with [`PartialBuild::collapse`].
#[derive(Debug)]
pub struct PartialBuild<'a> {
    builder: ModelBuilder<'a>,
    m: Manager,
    pending: Vec<Option<Add>>,
    cap: Option<usize>,
    quantum: f64,
    collapser: Collapser,
    exact_means: ExactMeans,
    deg: DegradationReport,
    constant_tail: f64,
    input_slots: Vec<usize>,
    start: Instant,
}

impl<'a> PartialBuild<'a> {
    /// Live nodes currently in the construction arena (partial sums plus
    /// any still-referenced node functions).
    pub fn arena_nodes(&self) -> usize {
        self.m.arena_len()
    }

    /// Degradation rungs the accumulate phase took (empty for a clean
    /// build).
    pub fn degradation_rungs(&self) -> usize {
        self.deg.rungs.len()
    }

    /// Stage 2 of the construction: folds the pending partial sums into
    /// one diagram, enforces the size ceiling, adds the conservative
    /// constant tail and runs the finishing pass that
    /// [`AddPowerModel::shrink`] runs too (diagonal gating, leaf
    /// recalibration, compaction down to the model). Infallible — every
    /// budgeted step already ran in [`ModelBuilder::try_accumulate`]; this
    /// phase only shrinks.
    pub fn collapse(self) -> AddPowerModel {
        let PartialBuild {
            builder,
            mut m,
            pending,
            cap,
            quantum,
            mut collapser,
            exact_means,
            mut deg,
            constant_tail,
            input_slots,
            start,
        } = self;
        let mut c = m.add_zero();

        // Fold the counter into the final accumulator. This runs
        // unbudgeted: a trip here could only re-shed what the ladder
        // already shed, and the size cap below still applies.
        let unlimited = Budget::unlimited();
        for slot in pending.into_iter().flatten() {
            c = try_merge_bounded(&mut m, c, slot, cap, quantum, &mut collapser, &unlimited)
                .expect("unlimited budget cannot be exceeded");
        }

        // Enforce the size ceiling exactly before gating/recalibration.
        if let Some(max) = cap {
            if m.size(c.node()) > max {
                c = collapser.shrink(&mut m, c, max);
            }
        }

        // The constant tail goes in *after* the ceiling is enforced:
        // adding a constant re-labels terminals without changing the
        // diagram shape, so the size stays within the cap. Only the
        // constant-fallback rung fills the tail, and a fallback model is
        // neither gated nor recalibrated: its tail dominates the diagonal
        // anyway, the gated product is one more place to blow up, and its
        // exact means are incomplete.
        let fallback_fired = deg.fired(DegradationRung::ConstantFallback);
        if constant_tail > 0.0 {
            let tail = m.constant(constant_tail);
            c = m.add_plus(c, tail);
        }
        let approximated = collapser.collapsed > 0 && !fallback_fired;
        // A fallback model's means would also skew a later `shrink`.
        let exact_means = (builder.recalibrate && !fallback_fired).then_some(exact_means);
        let root = finish(
            &mut m,
            c,
            cap,
            approximated && builder.diagonal_gating,
            &input_slots,
            &mut collapser,
            exact_means.as_ref().filter(|_| approximated),
        );
        let final_size = m.size(root.node());
        deg.final_nodes = final_size;
        AddPowerModel {
            manager: m,
            root,
            num_inputs: builder.netlist.num_inputs(),
            input_slots,
            report: BuildReport {
                approximation_rounds: collapser.rounds,
                nodes_collapsed: collapser.collapsed,
                final_size,
                exact: collapser.collapsed == 0 && !fallback_fired,
                cpu: start.elapsed(),
            },
            collapse_mixture: collapser.mixture,
            exact_means,
            degradation: if deg.rungs.is_empty() {
                None
            } else {
                Some(deg)
            },
            display_name: "ADD".to_owned(),
        }
    }
}

/// The finishing pass of an approximated model, shared by
/// [`PartialBuild::collapse`] and [`AddPowerModel::shrink`]; returns the
/// root of `c` after compacting `m` down to it.
///
/// With `gate`, it restores exactness on the no-transition diagonal:
/// `C(x, x) = 0` for every `x` (no signal can rise without an input
/// transition), but collapse leaves make the diagonal positive, which
/// wrecks relative accuracy at low transition activity where most cycles
/// are idle. Multiplying by the "any input toggles" indicator (a 2n-node
/// BDD chain) zeroes the diagonal exactly; values off the diagonal are
/// untouched, so average- and upper-bound properties are preserved. Below
/// a cap of `4n + 8` nodes the model cannot afford the chain and stays
/// ungated. With `exact_means`, an average model's leaves are then
/// recalibrated against them.
pub(crate) fn finish(
    m: &mut Manager,
    mut c: Add,
    cap: Option<usize>,
    gate: bool,
    input_slots: &[usize],
    collapser: &mut Collapser,
    exact_means: Option<&ExactMeans>,
) -> Add {
    if gate && cap.is_none_or(|max| max >= 4 * input_slots.len() + 8) {
        let toggles = any_toggle_bdd(m, input_slots);
        let mut target = cap.unwrap_or(usize::MAX);
        loop {
            let gated = m.add_times(c, toggles.as_add());
            if cap.is_none_or(|max| m.size(gated.node()) <= max) {
                c = gated;
                break;
            }
            // Shrink the ungated model further and retry; gating only
            // redirects paths into the 0 terminal, and in the limit
            // (target = 1) the gated constant-times-indicator chain is
            // smaller than the `4n + 8` feasibility floor, so the loop
            // always terminates with a gated model.
            target = std::cmp::max(target * 3 / 4, 1);
            c = collapser.shrink(m, c, target);
        }
    }
    if let Some(means) = exact_means {
        if collapser.strategy == ApproxStrategy::Average {
            c = recalibrate_leaves(m, c, &collapser.mixture, means, 0.05);
        }
    }
    // Drop everything but the model itself.
    Add::from_node(m.compact(&[c.node()])[0])
}

/// Garbage-collects the manager keeping the partial sums and all live
/// node functions, remapping every handle in place.
fn compact_live(
    m: &mut Manager,
    sig_i: &mut [Option<Bdd>],
    sig_f: &mut [Option<Bdd>],
    pending: &mut [Option<Add>],
) {
    let mut roots = Vec::new();
    let mut slots = Vec::new();
    for (idx, s) in pending.iter().enumerate() {
        if let Some(a) = s {
            roots.push(a.node());
            slots.push((2u8, idx));
        }
    }
    for (idx, s) in sig_i.iter().enumerate() {
        if let Some(b) = s {
            roots.push(b.node());
            slots.push((0u8, idx));
        }
    }
    for (idx, s) in sig_f.iter().enumerate() {
        if let Some(b) = s {
            roots.push(b.node());
            slots.push((1u8, idx));
        }
    }
    let remapped = m.compact(&roots);
    for (pos, (which, idx)) in slots.into_iter().enumerate() {
        let id = remapped[pos];
        match which {
            0 => sig_i[idx] = Some(Bdd::from_node(id)),
            1 => sig_f[idx] = Some(Bdd::from_node(id)),
            _ => pending[idx] = Some(Add::from_node(id)),
        }
    }
}

/// Degradation rung 1: collapse every pending partial sum well below the
/// node budget so the retried gate has headroom.
///
/// With a node budget the per-sum target splits an eighth of the budget
/// across the live sums; without one (the trip came from another
/// resource) each sum is quartered. The floor of 16 nodes keeps even
/// drastic sheds structurally meaningful.
fn shed_pending(
    m: &mut Manager,
    pending: &mut [Option<Add>],
    node_budget: Option<u64>,
    collapser: &mut Collapser,
) {
    let live = pending.iter().flatten().count().max(1);
    for slot in pending.iter_mut() {
        if let Some(a) = slot {
            let size = m.size(a.node());
            let target = node_budget
                .map(|nb| ((nb as usize / 8) / live).max(16))
                .unwrap_or_else(|| (size / 4).max(16));
            if size > target {
                *slot = Some(collapser.shrink(m, *a, target));
            }
        }
    }
}

/// Degradation rung 2: search a better variable order on the largest live
/// diagram and permute every live root (and the input-slot map)
/// consistently. The search moves whole `(xᵢⁱ, xᵢᶠ)` pairs, so the
/// measure mixture (a function of pair position, not identity) stays
/// valid as-is.
///
/// Returns `false` if the search found no improvement (the ladder then
/// escalates on the next trip).
fn reorder_live(
    m: &mut Manager,
    sig_i: &mut [Option<Bdd>],
    sig_f: &mut [Option<Bdd>],
    pending: &mut [Option<Add>],
    input_slots: &mut [usize],
) -> bool {
    let mut probe: Option<NodeId> = None;
    let mut probe_size = 0usize;
    for root in pending
        .iter()
        .flatten()
        .map(|a| a.node())
        .chain(sig_i.iter().flatten().map(|b| b.node()))
        .chain(sig_f.iter().flatten().map(|b| b.node()))
    {
        let s = m.size(root);
        if s > probe_size {
            probe_size = s;
            probe = Some(root);
        }
    }
    let Some(probe) = probe else { return false };
    let (_, placement) = reorder_paired_windows(m, probe, 2, 1);
    if placement.iter().enumerate().all(|(p, &to)| p == to) {
        return false;
    }
    // Pair p's content now sits at pair position placement[p].
    let mut var_perm: Vec<Var> = (0..2 * placement.len() as u32).map(Var).collect();
    for (p, &to) in placement.iter().enumerate() {
        var_perm[2 * p] = Var(2 * to as u32);
        var_perm[2 * p + 1] = Var(2 * to as u32 + 1);
    }
    for slot in pending.iter_mut() {
        if let Some(a) = *slot {
            *slot = Some(Add::from_node(m.permute(a.node(), &var_perm)));
        }
    }
    for slot in sig_i.iter_mut().chain(sig_f.iter_mut()) {
        if let Some(b) = *slot {
            *slot = Some(Bdd::from_node(m.permute(b.node(), &var_perm)));
        }
    }
    for s in input_slots.iter_mut() {
        *s = placement[*s];
    }
    true
}

/// Adds two partial sums under the working budget.
///
/// Summing diagrams over weakly overlapping supports can blow up
/// multiplicatively (`|A|·|B|` apply cost), so operands are pre-shrunk
/// until the product of their sizes is bounded. The sum's terminals snap
/// onto the `quantum` grid in the add itself (round-to-nearest for average
/// models, round-up for upper bounds, which keeps them conservative; exact
/// zero stays exact so diagonal gating is unaffected), and a sum still
/// above the working slack is collapsed back to `max`. With no cap the sum
/// is exact and unquantized. Only the add itself can trip the resource
/// budget; the approximation passes shrink the arena and run to
/// completion.
fn try_merge_bounded(
    m: &mut Manager,
    a: Add,
    b: Add,
    max_nodes: Option<usize>,
    quantum: f64,
    collapser: &mut Collapser,
    budget: &Budget,
) -> Result<Add, DdError> {
    let Some(max) = max_nodes else {
        return m.try_add_plus(a, b, budget);
    };
    let (mut a, mut b) = (a, b);
    // Bound the apply's worst case to a few million node visits.
    let limit = 4_000_000usize.max(16 * max);
    loop {
        let (sa, sb) = (m.size(a.node()), m.size(b.node()));
        if sa.saturating_mul(sb) <= limit {
            break;
        }
        let (big, small) = if sa >= sb { (&mut a, sb) } else { (&mut b, sa) };
        let target = (limit / small.max(1)).max(max / 2).max(64);
        *big = collapser.shrink(m, *big, target);
        if m.size(big.node()) >= if sa >= sb { sa } else { sb } {
            break; // cannot shrink further; accept the apply cost
        }
    }
    let rounding = match collapser.strategy {
        ApproxStrategy::Average => Rounding::Nearest,
        ApproxStrategy::UpperBound => Rounding::Up,
    };
    let mut sum = m.try_add_plus_quantized(a, b, quantum, rounding, budget)?;
    if m.size(sum.node()) > 2 * max {
        sum = collapser.shrink(m, sum, max);
    }
    Ok(sum)
}

/// The BDD of "at least one input toggles": `OR_k (xₖⁱ ⊕ xₖᶠ)`.
fn any_toggle_bdd(m: &mut Manager, input_slots: &[usize]) -> Bdd {
    let mut any = m.bdd_false();
    for &slot in input_slots {
        let a = m.bdd_var(xi_var(slot));
        let b = m.bdd_var(xf_var(slot));
        let t = m.bdd_xor(a, b);
        any = m.bdd_or(any, t);
    }
    any
}

/// The BDD of one library cell applied to fan-in BDDs, under `budget`.
fn try_gate_bdd(
    m: &mut Manager,
    kind: CellKind,
    pins: &[Bdd],
    budget: &Budget,
) -> Result<Bdd, DdError> {
    Ok(match kind {
        CellKind::Inv => m.try_bdd_not(pins[0], budget)?,
        CellKind::Buf => pins[0],
        CellKind::Nand2 => {
            let a = m.try_bdd_and(pins[0], pins[1], budget)?;
            m.try_bdd_not(a, budget)?
        }
        CellKind::Nand3 => {
            let a = m.try_bdd_and(pins[0], pins[1], budget)?;
            let a = m.try_bdd_and(a, pins[2], budget)?;
            m.try_bdd_not(a, budget)?
        }
        CellKind::Nand4 => {
            let a = m.try_bdd_and(pins[0], pins[1], budget)?;
            let b = m.try_bdd_and(pins[2], pins[3], budget)?;
            let a = m.try_bdd_and(a, b, budget)?;
            m.try_bdd_not(a, budget)?
        }
        CellKind::Nor2 => {
            let a = m.try_bdd_or(pins[0], pins[1], budget)?;
            m.try_bdd_not(a, budget)?
        }
        CellKind::Nor3 => {
            let a = m.try_bdd_or(pins[0], pins[1], budget)?;
            let a = m.try_bdd_or(a, pins[2], budget)?;
            m.try_bdd_not(a, budget)?
        }
        CellKind::Nor4 => {
            let a = m.try_bdd_or(pins[0], pins[1], budget)?;
            let b = m.try_bdd_or(pins[2], pins[3], budget)?;
            let a = m.try_bdd_or(a, b, budget)?;
            m.try_bdd_not(a, budget)?
        }
        CellKind::And2 => m.try_bdd_and(pins[0], pins[1], budget)?,
        CellKind::And3 => {
            let a = m.try_bdd_and(pins[0], pins[1], budget)?;
            m.try_bdd_and(a, pins[2], budget)?
        }
        CellKind::Or2 => m.try_bdd_or(pins[0], pins[1], budget)?,
        CellKind::Or3 => {
            let a = m.try_bdd_or(pins[0], pins[1], budget)?;
            m.try_bdd_or(a, pins[2], budget)?
        }
        CellKind::Xor2 => m.try_bdd_xor(pins[0], pins[1], budget)?,
        CellKind::Xnor2 => m.try_bdd_xnor(pins[0], pins[1], budget)?,
        CellKind::Mux2 => m.try_bdd_ite(pins[0], pins[2], pins[1], budget)?,
        CellKind::Aoi21 => {
            let a = m.try_bdd_and(pins[0], pins[1], budget)?;
            let o = m.try_bdd_or(a, pins[2], budget)?;
            m.try_bdd_not(o, budget)?
        }
        CellKind::Oai21 => {
            let o = m.try_bdd_or(pins[0], pins[1], budget)?;
            let a = m.try_bdd_and(o, pins[2], budget)?;
            m.try_bdd_not(a, budget)?
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::PowerModel;
    use charfree_netlist::benchmarks::paper_unit;
    use charfree_netlist::Library;
    use charfree_sim::{ExhaustivePairs, ZeroDelaySim};

    impl ModelBuilder<'_> {
        /// Sets how many gates to process between manager garbage
        /// collections (production builds keep the default of 16).
        fn compact_every(mut self, gates: usize) -> Self {
            self.compact_every = gates.max(1);
            self
        }
    }

    #[test]
    fn exact_model_reproduces_fig2_lut() {
        let unit = paper_unit();
        let model = ModelBuilder::new(&unit).build();
        assert!(model.report().exact);
        // Fig. 2b rows (xi, xf, C in fF).
        let rows = [
            ((false, false), (false, false), 0.0),
            ((false, false), (false, true), 10.0),
            ((false, false), (true, false), 10.0),
            ((false, false), (true, true), 10.0),
            ((true, true), (false, false), 90.0),
        ];
        for ((a, b), (c, d), want) in rows {
            let got = model.capacitance(&[a, b], &[c, d]).femtofarads();
            assert_eq!(got, want, "xi=({a},{b}) xf=({c},{d})");
        }
    }

    #[test]
    fn exact_model_equals_gate_level_simulation_everywhere() {
        let lib = Library::test_library();
        for netlist in [
            paper_unit(),
            charfree_netlist::benchmarks::by_name("decod", &lib).expect("Table 1 name"),
            charfree_netlist::benchmarks::random_logic("t", 6, 25, 3, &lib),
        ] {
            let sim = ZeroDelaySim::new(&netlist);
            let model = ModelBuilder::new(&netlist).build();
            assert!(model.report().exact, "{}", netlist.name());
            for (xi, xf) in ExhaustivePairs::new(netlist.num_inputs() as u32) {
                let want = sim.switching_capacitance(&xi, &xf).femtofarads();
                let got = model.capacitance(&xi, &xf).femtofarads();
                assert!(
                    (got - want).abs() < 1e-9,
                    "{}: xi={xi:?} xf={xf:?}: {got} vs {want}",
                    netlist.name()
                );
            }
        }
    }

    #[test]
    fn bounded_build_respects_max() {
        let lib = Library::test_library();
        let netlist = charfree_netlist::benchmarks::by_name("cm85", &lib).expect("Table 1 name");
        for max in [200, 50, 10, 5] {
            let model = ModelBuilder::new(&netlist).max_nodes(max).build();
            assert!(model.size() <= max, "MAX={max}, size={}", model.size());
            assert!(!model.report().exact);
        }
    }

    #[test]
    fn bounded_average_build_preserves_global_average() {
        // The Section 3.1 invariant: avg-collapse commutes with summation,
        // so even an aggressively approximated model keeps the exact
        // average switched capacitance.
        let lib = Library::test_library();
        let netlist = charfree_netlist::benchmarks::by_name("decod", &lib).expect("Table 1 name");
        let exact = ModelBuilder::new(&netlist).build();
        let rough = ModelBuilder::new(&netlist)
            .max_nodes(8)
            .collapse_toggles(&[0.5])
            .leaf_recalibration(false)
            .diagonal_gating(false)
            .build();
        // Exact up to terminal quantization (total_load / 2^14 grid).
        let tolerance = netlist.total_load().femtofarads() / 8192.0;
        assert!(
            (exact.average_capacitance().femtofarads() - rough.average_capacitance().femtofarads())
                .abs()
                < tolerance
        );
    }

    #[test]
    fn bounded_upper_bound_build_is_conservative() {
        let lib = Library::test_library();
        let netlist = charfree_netlist::benchmarks::by_name("decod", &lib).expect("Table 1 name");
        let sim = ZeroDelaySim::new(&netlist);
        let bound = ModelBuilder::new(&netlist)
            .max_nodes(12)
            .strategy(ApproxStrategy::UpperBound)
            .build();
        for (xi, xf) in ExhaustivePairs::new(5) {
            let exact = sim.switching_capacitance(&xi, &xf).femtofarads();
            let ub = bound.capacitance(&xi, &xf).femtofarads();
            assert!(ub >= exact - 1e-9, "xi={xi:?} xf={xf:?}: {ub} < {exact}");
        }
    }

    #[test]
    fn worst_case_transition_achieves_model_max() {
        let lib = Library::test_library();
        let netlist = charfree_netlist::benchmarks::by_name("decod", &lib).expect("Table 1 name");
        let model = ModelBuilder::new(&netlist).build();
        let (xi, xf) = model.worst_case_transition();
        assert_eq!(
            model.capacitance(&xi, &xf),
            model.max_capacitance(),
            "picked transition must realize the max"
        );
        // And for an exact model the simulator agrees.
        let sim = ZeroDelaySim::new(&netlist);
        assert_eq!(sim.switching_capacitance(&xi, &xf), model.max_capacitance());
    }

    #[test]
    fn compaction_does_not_change_results() {
        let lib = Library::test_library();
        let netlist = charfree_netlist::benchmarks::by_name("cm85", &lib).expect("Table 1 name");
        let every_gate = ModelBuilder::new(&netlist).compact_every(1).build();
        let never = ModelBuilder::new(&netlist)
            .compact_every(usize::MAX)
            .build();
        for (xi, xf) in ExhaustivePairs::new(11).take(512) {
            assert_eq!(
                every_gate.capacitance(&xi, &xf),
                never.capacitance(&xi, &xf)
            );
        }

        // Approximated models too: compacting after every gate and never
        // compacting give the same operands different arena indices, and
        // every approximation decision must depend on the functions alone.
        for (name, max) in [("cm85", 100), ("decod", 20), ("x2", 100)] {
            let netlist = charfree_netlist::benchmarks::by_name(name, &lib).expect("benchmark");
            for strategy in [ApproxStrategy::Average, ApproxStrategy::UpperBound] {
                let build = |every: usize| {
                    ModelBuilder::new(&netlist)
                        .max_nodes(max)
                        .strategy(strategy)
                        .compact_every(every)
                        .build()
                };
                let (every_gate, never) = (build(1), build(usize::MAX));
                assert_eq!(every_gate.size(), never.size(), "{name}@{max} {strategy:?}");
                let mut rng = charfree_netlist::rng::Rng::seed_from_u64(1998);
                let n = netlist.num_inputs();
                let mut bit = || rng.next_u64() >> 63 == 1;
                for _ in 0..512 {
                    let xi: Vec<bool> = (0..n).map(|_| bit()).collect();
                    let xf: Vec<bool> = (0..n).map(|_| bit()).collect();
                    assert_eq!(
                        every_gate.capacitance(&xi, &xf).femtofarads().to_bits(),
                        never.capacitance(&xi, &xf).femtofarads().to_bits(),
                        "{name}@{max} {strategy:?} xi={xi:?} xf={xf:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn report_displays() {
        let model = ModelBuilder::new(&paper_unit()).build();
        let text = model.report().to_string();
        assert!(text.contains("exact"));
        assert!(model.size() > 1);
    }
}
