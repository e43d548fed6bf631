//! Per-node statistics of the discrete functions represented by ADD nodes.
//!
//! These are the quantities the paper computes "in linear time during a
//! traversal of the ADD" (Section 3): for every node `n`, the average,
//! variance, and maximum of the sub-function rooted at `n`, plus the
//! mean-square error `mse(n) = var(n) + (max(n) − avg(n))²` (Eq. 8) incurred
//! by replacing the sub-function with its maximum.
//!
//! The recursions of Eq. 7 are stated for complete diagrams, but they hold
//! unchanged on *reduced* diagrams: a child that skips levels represents the
//! same sub-function extended with don't-care variables, and average,
//! variance, minimum and maximum are all invariant under adding don't-care
//! variables.

use crate::hash::FxHashMap;
use crate::manager::{Add, Manager};
use crate::node::NodeId;

/// Statistics of the discrete function rooted at one ADD node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeStats {
    /// Average value over all input assignments (Eq. 6).
    pub avg: f64,
    /// Variance over all input assignments (Eq. 5).
    pub var: f64,
    /// Minimum value.
    pub min: f64,
    /// Maximum value.
    pub max: f64,
}

impl NodeStats {
    /// Mean-square error of approximating the sub-function by its maximum
    /// (Eq. 8): `var + (max − avg)²`.
    #[inline]
    pub fn mse_of_max(&self) -> f64 {
        self.var + (self.max - self.avg) * (self.max - self.avg)
    }
}

/// Per-variable distribution for a [`ChainMeasure`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum VarMeasure {
    /// `P(v = 1) = p`, independent of everything else.
    Independent(f64),
    /// `P(v = 1)` depends on the value of the *immediately preceding*
    /// variable in the order (e.g. `xᶠₖ` conditioned on `xⁱₖ` in an
    /// interleaved transition space).
    Correlated {
        /// `P(v = 1 | previous = 0)`.
        when_prev_false: f64,
        /// `P(v = 1 | previous = 1)`.
        when_prev_true: f64,
    },
}

/// A product/chain input distribution over the diagram variables: each
/// variable is either independent or pair-correlated with its immediate
/// predecessor.
///
/// This is exactly expressive enough for the *transition space* of
/// power models: with interleaved ordering `x₀ⁱ, x₀ᶠ, x₁ⁱ, x₁ᶠ, …`, the
/// measure `xₖⁱ ~ Bernoulli(sp)`, `P(xₖᶠ ≠ xₖⁱ) = st` captures realistic
/// signal/transition statistics, which makes measure-weighted node
/// collapsing preserve the (practically dominant) low-toggle region that a
/// uniform measure would sacrifice.
///
/// # Examples
///
/// ```
/// use charfree_dd::ChainMeasure;
/// let m = ChainMeasure::interleaved_transitions(3, 0.5, 0.25);
/// assert_eq!(m.len(), 6);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ChainMeasure {
    items: Vec<VarMeasure>,
}

impl ChainMeasure {
    /// Builds a measure from per-variable distributions.
    ///
    /// # Panics
    ///
    /// Panics if any probability is outside `[0, 1]`, if variable 0 is
    /// correlated, or if two consecutive variables are both correlated
    /// (contexts would need to propagate through skipped levels, which the
    /// traversal does not support).
    pub fn new(items: Vec<VarMeasure>) -> Self {
        for (v, item) in items.iter().enumerate() {
            match *item {
                VarMeasure::Independent(p) => {
                    assert!((0.0..=1.0).contains(&p), "bad probability for var {v}");
                }
                VarMeasure::Correlated {
                    when_prev_false,
                    when_prev_true,
                } => {
                    assert!(v > 0, "variable 0 cannot be correlated");
                    assert!(
                        matches!(items[v - 1], VarMeasure::Independent(_)),
                        "consecutive correlated variables are not supported"
                    );
                    assert!(
                        (0.0..=1.0).contains(&when_prev_false)
                            && (0.0..=1.0).contains(&when_prev_true),
                        "bad probability for var {v}"
                    );
                }
            }
        }
        ChainMeasure { items }
    }

    /// The uniform measure over `n` variables (every variable fair and
    /// independent).
    pub fn uniform(n: u32) -> Self {
        ChainMeasure {
            items: vec![VarMeasure::Independent(0.5); n as usize],
        }
    }

    /// The transition-space measure for `pairs` interleaved input pairs:
    /// variable `2k` (the `xₖⁱ`) is `Bernoulli(sp)` and variable `2k+1`
    /// (the `xₖᶠ`) flips with *overall* probability `toggle`.
    ///
    /// The conditional flip rates are direction-dependent so that the pair
    /// is **stationary** at signal probability `sp` — exactly the joint
    /// law of one step of the per-bit Markov source used for simulation:
    /// `P(0→1) = toggle / (2(1−sp))`, `P(1→0) = toggle / (2·sp)`. (For
    /// `sp = 0.5` both reduce to the symmetric rate `toggle`.)
    ///
    /// # Panics
    ///
    /// Panics if `sp ∉ (0,1)`, `toggle ∉ [0,1]`, or the pair is infeasible
    /// (`toggle > 2·min(sp, 1−sp)` would need a conditional probability
    /// above one).
    pub fn interleaved_transitions(pairs: u32, sp: f64, toggle: f64) -> Self {
        assert!(sp > 0.0 && sp < 1.0, "sp must be in (0,1)");
        assert!(
            (0.0..=1.0).contains(&toggle) && toggle <= 2.0 * sp.min(1.0 - sp),
            "infeasible (sp={sp}, toggle={toggle}) pair"
        );
        let p01 = toggle / (2.0 * (1.0 - sp));
        let p10 = toggle / (2.0 * sp);
        let mut items = Vec::with_capacity(2 * pairs as usize);
        for _ in 0..pairs {
            items.push(VarMeasure::Independent(sp));
            items.push(VarMeasure::Correlated {
                when_prev_false: p01,
                when_prev_true: 1.0 - p10,
            });
        }
        ChainMeasure::new(items)
    }

    /// Number of variables covered.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` if the measure covers no variables.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// `true` if variable `v` is pair-correlated with its predecessor.
    #[inline]
    pub fn is_correlated(&self, v: u32) -> bool {
        matches!(
            self.items.get(v as usize),
            Some(VarMeasure::Correlated { .. })
        )
    }

    /// `P(v = 1)` under context `ctx` (0 = unconditioned, 1 = predecessor
    /// false, 2 = predecessor true). For an unconditioned correlated
    /// variable the marginal is used.
    #[inline]
    pub fn prob_one(&self, v: usize, ctx: u8) -> f64 {
        match self.items[v] {
            VarMeasure::Independent(p) => p,
            VarMeasure::Correlated {
                when_prev_false,
                when_prev_true,
            } => match ctx {
                1 => when_prev_false,
                2 => when_prev_true,
                _ => {
                    // Marginalize over the (independent) predecessor.
                    let p_prev = match self.items[v - 1] {
                        VarMeasure::Independent(p) => p,
                        VarMeasure::Correlated { .. } => unreachable!("validated"),
                    };
                    (1.0 - p_prev) * when_prev_false + p_prev * when_prev_true
                }
            },
        }
    }
}

/// Measure-weighted per-node profile: mixture statistics and reach
/// probability (see [`Snapshot::profile`](crate::Snapshot::profile)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasuredNode {
    /// Mixture statistics of the node's sub-function over the contexts in
    /// which it is reached.
    pub stats: NodeStats,
    /// Probability a random path (under the measure) passes through the
    /// node.
    pub reach: f64,
}

/// Statistics for every node reachable from one ADD root.
///
/// Produced by [`Manager::add_stats`]; query per node with
/// [`AddStats::get`].
#[derive(Debug, Clone)]
pub struct AddStats {
    map: FxHashMap<NodeId, NodeStats>,
    root: NodeId,
}

impl AddStats {
    /// Statistics of the sub-function rooted at `id`.
    ///
    /// Returns `None` if `id` is not reachable from the root this was
    /// computed for.
    pub fn get(&self, id: NodeId) -> Option<NodeStats> {
        self.map.get(&id).copied()
    }

    /// Statistics of the whole function.
    pub fn root(&self) -> NodeStats {
        self.map[&self.root]
    }

    /// Iterates over `(node, stats)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, NodeStats)> + '_ {
        self.map.iter().map(|(&k, &v)| (k, v))
    }

    /// Number of nodes covered (internal + terminal).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` if no node is covered (never the case for a valid root).
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

impl Manager {
    /// Computes [`NodeStats`] for every node reachable from `f` in a single
    /// bottom-up traversal (linear in the number of nodes).
    ///
    /// # Examples
    ///
    /// The paper's Example 4: a node whose cofactors have averages 10 and 5
    /// (variances 25 and 0) gets `avg = 7.5`, `var = 18.75`.
    ///
    /// ```
    /// use charfree_dd::{Manager, Var};
    ///
    /// let mut m = Manager::new(2);
    /// let x0 = m.bdd_var(Var(0));
    /// let x1 = m.bdd_var(Var(1));
    /// let c0 = m.constant(0.0);
    /// let c10 = m.constant(10.0);
    /// let lo = m.add_ite(x1, c10, c0);   // avg 5, var 25
    /// let f = m.add_ite(x0, c10, lo);    // avg 7.5, var 18.75
    /// let stats = m.add_stats(f).root();
    /// assert_eq!(stats.avg, 7.5);
    /// assert_eq!(stats.var, 18.75);
    /// assert_eq!(stats.max, 10.0);
    /// assert_eq!(stats.mse_of_max(), 25.0);
    /// ```
    pub fn add_stats(&self, f: Add) -> AddStats {
        let root = f.node();
        let mut map: FxHashMap<NodeId, NodeStats> = FxHashMap::default();
        // Children precede parents in arena order, so one ordered pass works.
        for id in self.topological_nodes(root) {
            let (lo, hi) = self.children(id);
            let sl = Self::leaf_or(&map, self, lo);
            let sh = Self::leaf_or(&map, self, hi);
            let avg = 0.5 * (sl.avg + sh.avg);
            let var = 0.5
                * (sl.var
                    + (sl.avg - avg) * (sl.avg - avg)
                    + sh.var
                    + (sh.avg - avg) * (sh.avg - avg));
            map.insert(
                id,
                NodeStats {
                    avg,
                    var,
                    min: sl.min.min(sh.min),
                    max: sl.max.max(sh.max),
                },
            );
        }
        // Make sure terminals reachable from the root are present too (the
        // loop above only inserts internal nodes; leaves are needed when the
        // root itself is a leaf or when callers query leaf stats).
        let mut stack = vec![root];
        let mut seen = crate::hash::FxHashSet::default();
        while let Some(id) = stack.pop() {
            if !seen.insert(id) {
                continue;
            }
            if id.is_terminal() {
                let v = self.terminal_value(id);
                map.insert(
                    id,
                    NodeStats {
                        avg: v,
                        var: 0.0,
                        min: v,
                        max: v,
                    },
                );
            } else {
                let (lo, hi) = self.children(id);
                stack.push(lo);
                stack.push(hi);
            }
        }
        AddStats { map, root }
    }

    #[inline]
    fn leaf_or(map: &FxHashMap<NodeId, NodeStats>, m: &Manager, id: NodeId) -> NodeStats {
        if id.is_terminal() {
            let v = m.terminal_value(id);
            NodeStats {
                avg: v,
                var: 0.0,
                min: v,
                max: v,
            }
        } else {
            map[&id]
        }
    }

    /// The probability that a uniformly random input assignment's
    /// root-to-leaf path passes through each node reachable from `f`.
    ///
    /// `p(root) = 1`, and every edge forwards half its parent's mass
    /// (skipped levels are untested and do not change the probability).
    /// Computed in one top-down pass. Together with [`NodeStats`] this
    /// gives the *exact* global cost of a collapse: replacing node `n` by a
    /// constant `c` changes the root mean-square error by
    /// `p(n) · E[(f_n − c)²]` and the root average by
    /// `p(n) · (c − avg(n))`.
    pub fn reach_probabilities(&self, f: Add) -> FxHashMap<NodeId, f64> {
        let mut p: FxHashMap<NodeId, f64> = FxHashMap::default();
        let order = self.topological_nodes(f.node());
        p.insert(f.node(), 1.0);
        // `order` lists children before parents; walk it reversed so every
        // parent's mass is final before it is distributed.
        for &id in order.iter().rev() {
            let mass = match p.get(&id) {
                Some(&m) => m,
                None => continue, // not reachable from f (cannot happen)
            };
            let (lo, hi) = self.children(id);
            *p.entry(lo).or_insert(0.0) += 0.5 * mass;
            *p.entry(hi).or_insert(0.0) += 0.5 * mass;
        }
        p
    }

    /// Average value of the ADD over all assignments (Eq. 6).
    pub fn add_avg(&self, f: Add) -> f64 {
        self.add_stats(f).root().avg
    }

    /// Maximum value of the ADD over all assignments.
    pub fn add_max_value(&self, f: Add) -> f64 {
        self.add_stats(f).root().max
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Var;

    /// Brute-force reference statistics by enumerating all assignments.
    fn brute(m: &Manager, f: Add, n: u32) -> NodeStats {
        let count = 1u64 << n;
        let mut sum = 0.0;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut values = Vec::new();
        for bits in 0..count {
            let asg: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
            let v = m.add_eval(f, &asg);
            sum += v;
            min = min.min(v);
            max = max.max(v);
            values.push(v);
        }
        let avg = sum / count as f64;
        let var = values.iter().map(|v| (v - avg) * (v - avg)).sum::<f64>() / count as f64;
        NodeStats { avg, var, min, max }
    }

    #[test]
    fn stats_match_brute_force() {
        let mut m = Manager::new(3);
        let x0 = m.bdd_var(Var(0));
        let x1 = m.bdd_var(Var(1));
        let x2 = m.bdd_var(Var(2));
        let c3 = m.constant(3.0);
        let c7 = m.constant(7.0);
        let c11 = m.constant(11.0);
        let zero = m.add_zero();
        let a = m.add_ite(x0, c3, zero);
        let b = m.add_ite(x1, c7, zero);
        let c = m.add_ite(x2, c11, zero);
        let ab = m.add_plus(a, b);
        let f = m.add_plus(ab, c);

        let got = m.add_stats(f).root();
        let want = brute(&m, f, 3);
        assert!((got.avg - want.avg).abs() < 1e-12);
        assert!((got.var - want.var).abs() < 1e-12);
        assert_eq!(got.min, want.min);
        assert_eq!(got.max, want.max);
    }

    #[test]
    fn stats_on_terminal_root() {
        let mut m = Manager::new(2);
        let f = m.constant(4.25);
        let s = m.add_stats(f).root();
        assert_eq!(s.avg, 4.25);
        assert_eq!(s.var, 0.0);
        assert_eq!(s.min, 4.25);
        assert_eq!(s.max, 4.25);
        assert_eq!(s.mse_of_max(), 0.0);
    }

    #[test]
    fn stats_invariant_under_dont_care_vars() {
        // f tests only x1; stats must not change because x0/x2 exist.
        let mut m = Manager::new(3);
        let x1 = m.bdd_var(Var(1));
        let c2 = m.constant(2.0);
        let c6 = m.constant(6.0);
        let f = m.add_ite(x1, c6, c2);
        let s = m.add_stats(f).root();
        assert_eq!(s.avg, 4.0);
        assert_eq!(s.var, 4.0);
    }

    #[test]
    fn paper_example4_node_n() {
        // Sub-ADD rooted in node n of Fig. 4a: xf assignments give value 0
        // once and 10 three times (avg 7.5 over the single variable split:
        // left child avg 5 var 25, right child constant 10).
        let mut m = Manager::new(2);
        let xf1 = m.bdd_var(Var(0));
        let xf2 = m.bdd_var(Var(1));
        let c0 = m.constant(0.0);
        let c10 = m.constant(10.0);
        let left = m.add_ite(xf2, c10, c0); // 0 if xf2=0 else 10: avg 5, var 25
        let n = m.add_ite(xf1, c10, left);
        let s = m.add_stats(n).root();
        assert_eq!(s.avg, 7.5);
        assert_eq!(s.var, 18.75);
        assert_eq!(s.max, 10.0);
        // Example 5: mse(n) = 18.75 + (10 - 7.5)^2 = 25.
        assert_eq!(s.mse_of_max(), 25.0);
    }

    #[test]
    fn convenience_accessors() {
        let mut m = Manager::new(1);
        let x = m.bdd_var(Var(0));
        let c1 = m.constant(1.0);
        let c9 = m.constant(9.0);
        let f = m.add_ite(x, c9, c1);
        assert_eq!(m.add_avg(f), 5.0);
        assert_eq!(m.add_max_value(f), 9.0);
        assert_eq!(m.add_stats(f).root().min, 1.0);
    }

    #[test]
    fn stats_iteration_covers_all_nodes() {
        let mut m = Manager::new(2);
        let x0 = m.bdd_var(Var(0));
        let x1 = m.bdd_var(Var(1));
        let c5 = m.constant(5.0);
        let zero = m.add_zero();
        let inner = m.add_ite(x1, c5, zero);
        let f = m.add_ite(x0, inner, zero);
        let stats = m.add_stats(f);
        assert_eq!(stats.len(), m.size(f.node()));
        assert!(!stats.is_empty());
        assert!(stats.get(f.node()).is_some());
    }
}
