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

use charfree_dd::{Add, ChainMeasure, Manager, NodeId, Snapshot};

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

/// The one collapse driver of a construction or a shrink: every
/// approximation goes through [`Collapser::shrink`], which keeps the
/// running counts the [`BuildReport`](crate::BuildReport) reports.
#[derive(Debug)]
pub(crate) struct Collapser {
    pub(crate) strategy: ApproxStrategy,
    /// The input measures the collapse ranking and leaves are taken under.
    pub(crate) mixture: Vec<(ChainMeasure, f64)>,
    /// Collapse trials so far (see [`ApproxOutcome::rounds`]).
    pub(crate) rounds: usize,
    /// Nodes collapsed so far.
    pub(crate) collapsed: usize,
}

impl Collapser {
    /// Shrinks `f` below `max` nodes (see [`approximate_to_mixture`]) and
    /// adds the pass to the counts.
    pub(crate) fn shrink(&mut self, m: &mut Manager, f: Add, max: usize) -> Add {
        let (g, outcome) = approximate_to_mixture(m, f, max, self.strategy, &self.mixture);
        self.rounds += outcome.rounds;
        self.collapsed += outcome.nodes_collapsed;
        g
    }
}

/// Outcome of one [`approximate_to_mixture`] invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ApproxOutcome {
    /// Total nodes collapsed.
    nodes_collapsed: usize,
    /// Number of collapse trials: dry-run sizings of the binary search,
    /// plus one when every candidate had to collapse.
    rounds: usize,
}

/// Shrinks `f` below `max_nodes` (size counts terminals, CUDD-style) by
/// node collapsing under `strategy`, ranked under a *mixture* of input
/// measures.
///
/// Per-node statistics (Eqs. 5–8) are computed in one bottom-up and one
/// top-down pass per measure, and internal nodes are ranked by their
/// score ascending, ties by post-order index — "nodes with
/// minimum variance are chosen for collapsing and node collapsing proceeds
/// (possibly involving nodes with larger variance) until the global ADD is
/// reduced under a target size". Because the size reached by collapsing
/// the `k` lowest-scored nodes is unpredictable (shared sub-diagrams
/// cascade), `k` is found by binary search over dry-run sizes counted on a
/// dense snapshot of `f` (only the chosen collapse is rebuilt in the
/// manager), which collapses **as few nodes as possible** while meeting
/// the bound — no overshoot. In the limit (`max_nodes` very small) the root
/// itself collapses and the model degenerates into the paper's constant
/// estimator.
///
/// A model collapsed under one fixed measure is anchored to it: its
/// run-average tracks the golden model only near that operating point and
/// drifts everywhere else in the `(sp, st)` sweep. Minimizing the
/// mixture-expected error instead — leaf values become the
/// reach-weighted mean of the per-measure sub-averages, scores the
/// mixture-expected replacement MSE — balances accuracy across the whole
/// family of operating statistics, which is what the paper's
/// statistics-independence claim requires of an approximated model.
/// Under the one-measure mixture of [`ChainMeasure::uniform`] this is the
/// paper's ranking weighted by reach: the root-level mean-square error of
/// replacing node `n` with a constant is exactly `p(n) · mse_local(n)`,
/// and without the `p(n)` factor shallow wide-reach nodes get collapsed
/// first and the model degenerates toward a constant (DESIGN.md §5).
///
/// # Panics
///
/// Panics if `max_nodes == 0` (a single terminal already has size 1), if
/// `mixture` is empty or if its weights are not positive.
fn approximate_to_mixture(
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
    assert!(max_nodes >= 1, "max_nodes must be at least 1");
    let mut outcome = ApproxOutcome {
        nodes_collapsed: 0,
        rounds: 0,
    };
    let snap = m.snapshot(f);
    if snap.size() <= max_nodes || snap.is_empty() {
        return (f, outcome);
    }
    let (scores, leaves) = collapse_plans(&snap, strategy, mixture);
    let order = rank(scores);

    // Binary search the smallest k whose collapse meets the bound, on dry
    // runs. Size is not monotone in k (shared sub-diagrams cascade), so
    // this finds *a* small feasible k; if no k below "everything" is
    // feasible, every candidate collapses — the root included, which
    // leaves the constant estimator. A probe only asks whether its
    // collapse fits, so it stops counting once the count passes the
    // bound; the answer, and with it every step of the search, is the
    // full count's.
    let mut sizer = snap.collapse_sizer(&order, &leaves);
    let mut lo = 1usize;
    let mut hi = order.len();
    let mut best = None;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        outcome.rounds += 1;
        if sizer.fits(mid, max_nodes) {
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
    let replacements: Vec<(NodeId, f64)> = order[..k]
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

/// Node indices by ascending score, equal scores in index (post-order)
/// order, so the ranking is canonical too.
///
/// # Panics
///
/// Panics if a score is NaN.
fn rank(scores: Vec<f64>) -> Vec<u32> {
    // With `-0.0` folded into `0.0`, `total_cmp` orders scores as
    // `partial_cmp` does, and without a branch per comparison.
    let mut ranked: Vec<(f64, u32)> = scores
        .into_iter()
        .zip(0..)
        .map(|(score, i)| {
            assert!(!score.is_nan(), "collapse scores are never NaN");
            (score + 0.0, i)
        })
        .collect();
    ranked.sort_unstable_by(|(a, i), (b, j)| a.total_cmp(b).then(i.cmp(j)));
    ranked.into_iter().map(|(_, i)| i).collect()
}

/// Ranking score and replacement leaf of every internal node of `snap`
/// (the snapshot being collapsed, dense order) under the given measure
/// mixture.
fn collapse_plans(
    snap: &Snapshot,
    strategy: ApproxStrategy,
    mixture: &[(ChainMeasure, f64)],
) -> (Vec<f64>, Vec<f64>) {
    let n = snap.len();
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
    use charfree_netlist::testutil::{check, Gen};

    /// [`approximate_to_mixture`] under the uniform measure alone.
    fn approximate_uniform(
        m: &mut Manager,
        f: Add,
        max_nodes: usize,
        strategy: ApproxStrategy,
    ) -> (Add, ApproxOutcome) {
        let mixture = [(ChainMeasure::uniform(m.num_vars()), 1.0)];
        approximate_to_mixture(m, f, max_nodes, strategy, &mixture)
    }

    /// The average of `f` over all assignments.
    fn avg(m: &Manager, f: Add) -> f64 {
        m.snapshot(f).means(&[&ChainMeasure::uniform(m.num_vars())])[0]
    }

    /// The largest value of `f`.
    fn max(m: &Manager, f: Add) -> f64 {
        *m.snapshot(f).terminal_values().last().expect("a terminal")
    }

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
    fn paper_examples_4_and_5_scores() {
        // Node n of Fig. 4a: cofactors 10 and (x1 ? 10 : 0). Example 4:
        // avg 7.5, var 18.75; Example 5: max 10, mse = 18.75 + 2.5² = 25.
        // At the root (reach 1) under the uniform measure these are the
        // ranking scores and leaves.
        let mut m = Manager::new(2);
        let x0 = m.bdd_var(Var(0));
        let x1 = m.bdd_var(Var(1));
        let c0 = m.constant(0.0);
        let c10 = m.constant(10.0);
        let lo = m.add_ite(x1, c10, c0);
        let n = m.add_ite(x0, c10, lo);
        let snap = m.snapshot(n);
        let root = snap.len() - 1;
        let uniform = [(ChainMeasure::uniform(2), 1.0)];
        let (scores, leaves) = collapse_plans(&snap, ApproxStrategy::Average, &uniform);
        assert_eq!((scores[root], leaves[root]), (18.75, 7.5));
        let (scores, leaves) = collapse_plans(&snap, ApproxStrategy::UpperBound, &uniform);
        assert_eq!((scores[root], leaves[root]), (25.0, 10.0));
    }

    #[test]
    fn rank_matches_a_stable_partial_cmp_sort() {
        let scores = vec![
            3.0,
            0.0,
            -0.0,
            1.5,
            0.0,
            3.0,
            f64::INFINITY,
            -0.0,
            1.5,
            0.25,
        ];
        let mut want: Vec<u32> = (0..scores.len() as u32).collect();
        want.sort_by(|&a, &b| scores[a as usize].partial_cmp(&scores[b as usize]).unwrap());
        assert_eq!(rank(scores), want);
    }

    /// The search as a plain binary search over full counts: the `k` and
    /// the trial count it reaches.
    fn reference_search(
        snap: &Snapshot,
        max_nodes: usize,
        strategy: ApproxStrategy,
        mixture: &[(ChainMeasure, f64)],
    ) -> (usize, usize) {
        let (scores, leaves) = collapse_plans(snap, strategy, mixture);
        let order = rank(scores);
        let mut sizer = snap.collapse_sizer(&order, &leaves);
        let (mut lo, mut hi, mut best, mut rounds) = (1, order.len(), None, 0);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            rounds += 1;
            if sizer.collapsed_size(mid) <= max_nodes {
                best = Some(mid);
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        (
            best.unwrap_or(order.len()),
            rounds + usize::from(best.is_none()),
        )
    }

    #[test]
    fn search_picks_the_k_and_rounds_of_a_full_count_search() {
        const PAIRS: u32 = 4;
        let mixture = [
            (ChainMeasure::uniform(2 * PAIRS), 0.5),
            (ChainMeasure::interleaved_transitions(PAIRS, 0.5, 0.1), 0.25),
            (ChainMeasure::interleaved_transitions(PAIRS, 0.5, 0.6), 0.25),
        ];
        // A sum of weighted conjunctions of literals on a 1/4 grid.
        let generate = |g: &mut Gen| {
            let terms = g.vec(2..9, |g| {
                let literals = g.vec(1..4, |g| (g.range(0..2 * PAIRS), g.below(2) == 1));
                (literals, f64::from(g.range(1..40u32)) * 0.25)
            });
            (terms, g.below(2) == 1)
        };
        check(
            "search_picks_the_k_and_rounds_of_a_full_count_search",
            32,
            generate,
            |(terms, upper)| {
                let strategy = if *upper {
                    ApproxStrategy::UpperBound
                } else {
                    ApproxStrategy::Average
                };
                let mut m = Manager::new(2 * PAIRS);
                let mut f = m.add_zero();
                for (literals, weight) in terms {
                    let mut product = m.bdd_true();
                    for &(v, positive) in literals {
                        let x = m.bdd_var(Var(v));
                        let literal = if positive { x } else { m.bdd_not(x) };
                        product = m.bdd_and(product, literal);
                    }
                    let term = m.add_scale(product.as_add(), *weight);
                    f = m.add_plus(f, term);
                }
                let snap = m.snapshot(f);
                for max_nodes in 1..snap.size() {
                    let want = reference_search(&snap, max_nodes, strategy, &mixture);
                    let (_, got) = approximate_to_mixture(&mut m, f, max_nodes, strategy, &mixture);
                    assert_eq!(
                        (got.nodes_collapsed, got.rounds),
                        want,
                        "max_nodes = {max_nodes}"
                    );
                }
            },
        );
    }

    #[test]
    fn already_small_is_untouched() {
        let mut m = Manager::new(4);
        let f = staircase(&mut m, 2);
        let size = m.size(f.node());
        let (g, out) = approximate_uniform(&mut m, f, size, ApproxStrategy::Average);
        assert_eq!(f, g);
        assert_eq!(out.nodes_collapsed, 0);
    }

    #[test]
    fn shrinks_below_bound() {
        let mut m = Manager::new(8);
        let f = staircase(&mut m, 8);
        assert!(m.size(f.node()) > 20);
        for target in [20, 10, 5, 2] {
            let (g, _) = approximate_uniform(&mut m, f, target, ApproxStrategy::Average);
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
        let want = avg(&m, f);
        let (g, _) = approximate_uniform(&mut m, f, 1, ApproxStrategy::Average);
        assert!(g.node().is_terminal());
        assert!((m.terminal_value(g.node()) - want).abs() < 1e-9);
    }

    #[test]
    fn degenerates_to_constant_max() {
        let mut m = Manager::new(6);
        let f = staircase(&mut m, 6);
        let want = max(&m, f);
        let (g, _) = approximate_uniform(&mut m, f, 1, ApproxStrategy::UpperBound);
        assert!(g.node().is_terminal());
        assert_eq!(m.terminal_value(g.node()), want);
    }

    #[test]
    fn average_strategy_preserves_global_average() {
        let mut m = Manager::new(8);
        let f = staircase(&mut m, 8);
        let want = avg(&m, f);
        for target in [40, 20, 10, 4] {
            let (g, _) = approximate_uniform(&mut m, f, target, ApproxStrategy::Average);
            assert!(
                (avg(&m, g) - want).abs() < 1e-9,
                "target {target}: avg drifted"
            );
        }
    }

    #[test]
    fn upper_bound_strategy_is_sound_everywhere() {
        let mut m = Manager::new(6);
        let f = staircase(&mut m, 6);
        let (g, _) = approximate_uniform(&mut m, f, 8, ApproxStrategy::UpperBound);
        for bits in 0..64u32 {
            let asg: Vec<bool> = (0..6).map(|i| bits >> i & 1 == 1).collect();
            assert!(
                m.add_eval(g, &asg) >= m.add_eval(f, &asg) - 1e-12,
                "bits={bits:06b}"
            );
        }
        // And the global max is preserved exactly.
        assert_eq!(max(&m, g), max(&m, f));
    }

    #[test]
    fn tighter_bounds_with_more_nodes() {
        // Average slack of the bound should not increase with budget.
        let mut m = Manager::new(8);
        let f = staircase(&mut m, 8);
        let mut last_slack = f64::INFINITY;
        for target in [2, 8, 32, 128, 1024] {
            let (g, _) = approximate_uniform(&mut m, f, target, ApproxStrategy::UpperBound);
            let slack = avg(&m, g) - avg(&m, f);
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
        let _ = approximate_uniform(&mut m, f, 0, ApproxStrategy::Average);
    }
}
