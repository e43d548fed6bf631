//! Approximation strategies: variance/MSE-ranked node collapsing
//! (paper, Section 3).
//!
//! The mechanism (rebuilding an ADD with chosen sub-diagrams replaced by
//! leaves) lives in `charfree-dd`; this module implements the paper's two
//! *strategies*:
//!
//! * **Average** — collapse minimum-*variance* nodes to their sub-function
//!   *average*. Preserves the global average exactly and minimizes the
//!   mean-square error contribution of each collapse; this is the
//!   accuracy-oriented strategy of Example 4.
//! * **UpperBound** — collapse minimum-*MSE* nodes (Eq. 8,
//!   `mse = var + (max − avg)²`) to their sub-function *maximum*. Every
//!   collapse only increases the function pointwise, so the result is a
//!   conservative pattern-dependent upper bound, and the global maximum is
//!   preserved exactly; this is Example 5.

use charfree_dd::hash::FxHashMap;
use charfree_dd::{Add, ChainMeasure, Manager, NodeId, NodeStats, Snapshot};

/// Which leaf value replaces a collapsed sub-ADD, and how candidates are
/// ranked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ApproxStrategy {
    /// Minimum-variance nodes → average leaves (accurate average power).
    #[default]
    Average,
    /// Minimum-MSE nodes → maximum leaves (conservative upper bound).
    UpperBound,
}

impl ApproxStrategy {
    /// The paper's plain local ranking figure (variance or max-replacement
    /// MSE, Eqs. 5–8), used by the unweighted ablation path. The default
    /// path refines this with reach-probability weighting across a measure
    /// mixture — the root-level mean-square error induced by replacing node
    /// `n` with a constant is exactly `p(n) · mse_local(n)`, and without
    /// the `p(n)` factor shallow wide-reach nodes (whose local variance is
    /// often *smaller* than that of deep high-swing nodes) get collapsed
    /// first and the model degenerates toward a constant — see DESIGN.md §5.
    #[inline]
    fn local_score(self, s: &NodeStats) -> f64 {
        match self {
            ApproxStrategy::Average => s.var,
            ApproxStrategy::UpperBound => s.mse_of_max(),
        }
    }

    #[inline]
    fn leaf(self, s: &NodeStats) -> f64 {
        match self {
            ApproxStrategy::Average => s.avg,
            ApproxStrategy::UpperBound => s.max,
        }
    }
}

/// Outcome of one [`approximate_to`] invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ApproxOutcome {
    /// Total nodes collapsed.
    pub nodes_collapsed: usize,
    /// Number of collapse trials: dry-run sizings of the binary search,
    /// plus one when every candidate had to collapse.
    pub rounds: usize,
}

/// Shrinks `f` below `max_nodes` (size counts terminals, CUDD-style) by
/// node collapsing under `strategy`.
///
/// Per-node statistics are computed in one traversal (Eqs. 5–8) and
/// internal nodes are ranked by the strategy's score ascending — "nodes
/// with minimum variance are chosen for collapsing and node collapsing
/// proceeds (possibly involving nodes with larger variance) until the
/// global ADD is reduced under a target size". Because the size reached by
/// collapsing the `k` lowest-scored nodes is unpredictable (shared
/// sub-diagrams cascade), `k` is found by binary search over dry-run
/// sizes counted on a dense snapshot of `f` (only the chosen collapse is
/// rebuilt in the manager), which collapses **as few nodes as possible**
/// while meeting the bound — no overshoot. In the limit (`max_nodes` very
/// small) the root itself collapses and the model degenerates into the
/// paper's constant estimator.
///
/// # Panics
///
/// Panics if `max_nodes == 0` (a single terminal already has size 1).
pub fn approximate_to(
    m: &mut Manager,
    f: Add,
    max_nodes: usize,
    strategy: ApproxStrategy,
) -> (Add, ApproxOutcome) {
    let mixture = [(ChainMeasure::uniform(m.num_vars()), 1.0)];
    approximate_impl(m, f, max_nodes, strategy, Some(&mixture))
}

/// [`approximate_to`] under an explicit input [`ChainMeasure`].
///
/// Node statistics, reach probabilities and replacement leaf values are all
/// computed under `measure`, so the collapse minimizes the *measure-
/// weighted* root error. For transition-space ADDs a toggle-biased measure
/// ([`ChainMeasure::interleaved_transitions`] with a flip probability
/// < 0.5) keeps the near-diagonal (few-toggle) region — where real
/// workloads live — accurate, instead of sacrificing it as the uniform
/// measure does.
pub fn approximate_to_measured(
    m: &mut Manager,
    f: Add,
    max_nodes: usize,
    strategy: ApproxStrategy,
    measure: &ChainMeasure,
) -> (Add, ApproxOutcome) {
    approximate_impl(m, f, max_nodes, strategy, Some(&[(measure.clone(), 1.0)]))
}

/// [`approximate_to`] under a *mixture* of input measures.
///
/// A model collapsed under one fixed measure is anchored to it: its
/// run-average tracks the golden model only near that operating point and
/// drifts everywhere else in the `(sp, st)` sweep. Minimizing the
/// mixture-expected error instead — leaf values become the
/// reach-weighted mean of the per-measure sub-averages, scores the
/// mixture-expected replacement MSE — balances accuracy across the whole
/// family of operating statistics, which is what the paper's
/// statistics-independence claim requires of an approximated model.
///
/// # Panics
///
/// Panics if `mixture` is empty or its weights are not positive.
pub fn approximate_to_mixture(
    m: &mut Manager,
    f: Add,
    max_nodes: usize,
    strategy: ApproxStrategy,
    mixture: &[(ChainMeasure, f64)],
) -> (Add, ApproxOutcome) {
    assert!(!mixture.is_empty(), "mixture must not be empty");
    assert!(
        mixture.iter().all(|&(_, w)| w > 0.0),
        "mixture weights must be positive"
    );
    approximate_impl(m, f, max_nodes, strategy, Some(mixture))
}

/// [`approximate_to`] with the paper's original *unweighted* node ranking
/// (plain variance / MSE, no reach-probability weighting). Kept for the
/// ablation study of DESIGN.md §5; measurably worse on every benchmark.
pub fn approximate_to_unweighted(
    m: &mut Manager,
    f: Add,
    max_nodes: usize,
    strategy: ApproxStrategy,
) -> (Add, ApproxOutcome) {
    approximate_impl(m, f, max_nodes, strategy, None)
}

fn approximate_impl(
    m: &mut Manager,
    f: Add,
    max_nodes: usize,
    strategy: ApproxStrategy,
    mixture: Option<&[(ChainMeasure, f64)]>,
) -> (Add, ApproxOutcome) {
    assert!(max_nodes >= 1, "max_nodes must be at least 1");
    let mut outcome = ApproxOutcome {
        nodes_collapsed: 0,
        rounds: 0,
    };
    let snap = m.snapshot(f);
    if snap.size() <= max_nodes || snap.is_empty() {
        return (f, outcome);
    }
    let (scores, leaves) = collapse_plans(m, f, &snap, strategy, mixture);
    // Equal scores keep post-order, so the ranking is canonical too.
    let mut order: Vec<u32> = (0..snap.len() as u32).collect();
    order.sort_by(|&a, &b| {
        scores[a as usize]
            .partial_cmp(&scores[b as usize])
            .expect("finite scores")
    });

    // Binary search the smallest k whose collapse meets the bound, on dry
    // runs. Size is not monotone in k (shared sub-diagrams cascade), so
    // this finds *a* small feasible k; if no k below "everything" is
    // feasible, every candidate collapses — the root included, which
    // leaves the constant estimator.
    let mut sizer = snap.collapse_sizer(&order, &leaves);
    let mut lo = 1usize;
    let mut hi = order.len();
    let mut best = None;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        outcome.rounds += 1;
        if sizer.collapsed_size(mid) <= max_nodes {
            best = Some(mid);
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let k = best.unwrap_or_else(|| {
        outcome.rounds += 1;
        order.len()
    });

    // Materialize only the chosen collapse.
    let replacements: FxHashMap<NodeId, f64> = order[..k]
        .iter()
        .map(|&i| (snap.node_id(i as usize), leaves[i as usize]))
        .collect();
    let g = m.collapse(f, &replacements);
    debug_assert_eq!(m.size(g.node()), sizer.collapsed_size(k));
    // Keep the computed tables bounded over long approximation campaigns:
    // they still hold the apply results that grew `f`.
    m.clear_caches();
    outcome.nodes_collapsed = k;
    (g, outcome)
}

/// Ranking score and replacement leaf of every internal node of `snap`
/// (the snapshot of `f`, dense order), under the given measure mixture, or from the paper's
/// plain unweighted statistics when `mixture` is `None`.
fn collapse_plans(
    m: &Manager,
    f: Add,
    snap: &Snapshot,
    strategy: ApproxStrategy,
    mixture: Option<&[(ChainMeasure, f64)]>,
) -> (Vec<f64>, Vec<f64>) {
    let n = snap.len();
    let Some(mixture) = mixture else {
        let stats = m.add_stats(f);
        return (0..n)
            .map(|i| {
                let s = stats.get(snap.node_id(i)).expect("reachable");
                (strategy.local_score(&s), strategy.leaf(&s))
            })
            .unzip();
    };
    let measures: Vec<&ChainMeasure> = mixture.iter().map(|(measure, _)| measure).collect();
    let profile = snap.profile(&measures);
    (0..n)
        .map(|i| {
            // Mixture mass and mean.
            let mut mass = 0.0f64;
            let mut mean = 0.0f64;
            for (t, &(_, w)) in mixture.iter().enumerate() {
                let p = profile.node(i, t);
                mass += w * p.reach;
                mean += w * p.reach * p.stats.avg;
            }
            let leaf = match strategy {
                ApproxStrategy::Average if mass > 0.0 => mean / mass,
                ApproxStrategy::Average => profile.node(i, 0).stats.avg,
                ApproxStrategy::UpperBound => profile.node(i, 0).stats.max,
            };
            // Mixture-expected replacement MSE for leaf value `leaf`.
            let mut score = 0.0f64;
            for (t, &(_, w)) in mixture.iter().enumerate() {
                let p = profile.node(i, t);
                let bias = p.stats.avg - leaf;
                score += w * p.reach * (p.stats.var + bias * bias);
            }
            (score, leaf)
        })
        .unzip()
}

#[cfg(test)]
mod tests {
    use super::*;
    use charfree_dd::Var;

    /// A staircase ADD: value = Σ 2^v over set bits — all 2^n values
    /// distinct, maximally incompressible.
    fn staircase(m: &mut Manager, n: u32) -> Add {
        let mut acc = m.add_zero();
        for v in 0..n {
            let x = m.bdd_var(Var(v));
            let d = m.add_scale(x.as_add(), f64::powi(2.0, v as i32));
            acc = m.add_plus(acc, d);
        }
        acc
    }

    #[test]
    fn already_small_is_untouched() {
        let mut m = Manager::new(4);
        let f = staircase(&mut m, 2);
        let size = m.size(f.node());
        let (g, out) = approximate_to(&mut m, f, size, ApproxStrategy::Average);
        assert_eq!(f, g);
        assert_eq!(out.nodes_collapsed, 0);
    }

    #[test]
    fn shrinks_below_bound() {
        let mut m = Manager::new(8);
        let f = staircase(&mut m, 8);
        assert!(m.size(f.node()) > 20);
        for target in [20, 10, 5, 2] {
            let (g, _) = approximate_to(&mut m, f, target, ApproxStrategy::Average);
            assert!(
                m.size(g.node()) <= target,
                "target {target}, got {}",
                m.size(g.node())
            );
        }
    }

    #[test]
    fn degenerates_to_constant_average() {
        let mut m = Manager::new(6);
        let f = staircase(&mut m, 6);
        let avg = m.add_avg(f);
        let (g, _) = approximate_to(&mut m, f, 1, ApproxStrategy::Average);
        assert!(g.node().is_terminal());
        assert!((m.terminal_value(g.node()) - avg).abs() < 1e-9);
    }

    #[test]
    fn degenerates_to_constant_max() {
        let mut m = Manager::new(6);
        let f = staircase(&mut m, 6);
        let max = m.add_max_value(f);
        let (g, _) = approximate_to(&mut m, f, 1, ApproxStrategy::UpperBound);
        assert!(g.node().is_terminal());
        assert_eq!(m.terminal_value(g.node()), max);
    }

    #[test]
    fn average_strategy_preserves_global_average() {
        let mut m = Manager::new(8);
        let f = staircase(&mut m, 8);
        let avg = m.add_avg(f);
        for target in [40, 20, 10, 4] {
            let (g, _) = approximate_to(&mut m, f, target, ApproxStrategy::Average);
            assert!(
                (m.add_avg(g) - avg).abs() < 1e-9,
                "target {target}: avg drifted"
            );
        }
    }

    #[test]
    fn upper_bound_strategy_is_sound_everywhere() {
        let mut m = Manager::new(6);
        let f = staircase(&mut m, 6);
        let (g, _) = approximate_to(&mut m, f, 8, ApproxStrategy::UpperBound);
        for bits in 0..64u32 {
            let asg: Vec<bool> = (0..6).map(|i| bits >> i & 1 == 1).collect();
            assert!(
                m.add_eval(g, &asg) >= m.add_eval(f, &asg) - 1e-12,
                "bits={bits:06b}"
            );
        }
        // And the global max is preserved exactly.
        assert_eq!(m.add_max_value(g), m.add_max_value(f));
    }

    #[test]
    fn tighter_bounds_with_more_nodes() {
        // Average slack of the bound should not increase with budget.
        let mut m = Manager::new(8);
        let f = staircase(&mut m, 8);
        let mut last_slack = f64::INFINITY;
        for target in [2, 8, 32, 128, 1024] {
            let (g, _) = approximate_to(&mut m, f, target, ApproxStrategy::UpperBound);
            let slack = m.add_avg(g) - m.add_avg(f);
            assert!(
                slack <= last_slack + 1e-9,
                "slack must shrink with budget: {slack} vs {last_slack}"
            );
            last_slack = slack;
        }
        assert!(last_slack.abs() < 1e-9, "full budget leaves no slack");
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_budget_rejected() {
        let mut m = Manager::new(2);
        let f = staircase(&mut m, 2);
        let _ = approximate_to(&mut m, f, 0, ApproxStrategy::Average);
    }
}
