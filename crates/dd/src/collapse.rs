//! Node collapsing: the ADD simplification mechanism of Section 3.
//!
//! Collapsing replaces the sub-ADD rooted at a chosen node by a single
//! terminal (leaf) node. The *strategy* — which nodes to pick and which leaf
//! value to use (sub-function average for accuracy, maximum for conservative
//! upper bounds) — lives in `charfree-core`; this module provides the
//! mechanism: a linear-time rebuild of the diagram with a set of nodes
//! replaced by constants.

use crate::manager::{Add, Manager};
use crate::marks::Marks;
use crate::node::NodeId;

impl Manager {
    /// Rebuilds `f` with every node in `replacements` collapsed to the given
    /// constant leaf value (a node listed twice takes its last value).
    ///
    /// If a replaced node is an ancestor of another replaced node, the
    /// ancestor wins (its whole sub-ADD, including the inner replacement
    /// target, disappears). Replacement values apply to *nodes*, so two
    /// occurrences of a shared node are replaced consistently — exactly the
    /// behavior of the paper's "several sub-trees can be independently
    /// collapsed during a traversal".
    ///
    /// Runs in time linear in the size of `f` plus the length of
    /// `replacements`; a sub-diagram that contains no replacement is kept
    /// as it is, not rebuilt.
    ///
    /// # Panics
    ///
    /// Panics if a replacement value is NaN.
    ///
    /// # Examples
    ///
    /// ```
    /// use charfree_dd::{Manager, Var};
    ///
    /// let mut m = Manager::new(2);
    /// let x0 = m.bdd_var(Var(0));
    /// let x1 = m.bdd_var(Var(1));
    /// let c0 = m.constant(0.0);
    /// let c10 = m.constant(10.0);
    /// let inner = m.add_ite(x1, c10, c0);
    /// let f = m.add_ite(x0, c10, inner);
    ///
    /// // Collapse the inner node to its average, 5.0 (paper Ex. 3/4).
    /// let g = m.collapse(f, &[(inner.node(), 5.0)]);
    /// assert_eq!(m.add_eval(g, &[false, false]), 5.0);
    /// assert_eq!(m.add_eval(g, &[false, true]), 5.0);
    /// assert_eq!(m.add_eval(g, &[true, false]), 10.0);
    /// ```
    pub fn collapse(&mut self, f: Add, replacements: &[(NodeId, f64)]) -> Add {
        Marks::with(self.arena_counts(), |marks| {
            // A replaced node is tagged with its entry's index.
            for (i, &(id, _)) in replacements.iter().enumerate() {
                marks.tag(id, i as u32);
            }
            Add(self.collapse_rec(f.node(), replacements, marks))
        })
    }

    fn collapse_rec(
        &mut self,
        f: NodeId,
        replacements: &[(NodeId, f64)],
        marks: &mut Marks,
    ) -> NodeId {
        if let Some(i) = marks.tag_of(f) {
            return self.terminal(replacements[i as usize].1);
        }
        if f.is_terminal() {
            return f;
        }
        if let Some(r) = marks.memo(f) {
            return NodeId::from_bits(r);
        }
        let (lo, hi) = self.children(f);
        let var = self.node_var(f).index();
        let lo2 = self.collapse_rec(lo, replacements, marks);
        let hi2 = self.collapse_rec(hi, replacements, marks);
        // `mk` would find `f` itself in the unique table.
        let r = if (lo2, hi2) == (lo, hi) {
            f
        } else {
            self.mk(var, lo2, hi2)
        };
        marks.remember(f, r.to_bits());
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Var;

    fn example(m: &mut Manager) -> (Add, Add) {
        let x0 = m.bdd_var(Var(0));
        let x1 = m.bdd_var(Var(1));
        let c0 = m.constant(0.0);
        let c10 = m.constant(10.0);
        let inner = m.add_ite(x1, c10, c0);
        let f = m.add_ite(x0, c10, inner);
        (f, inner)
    }

    /// The values of a 3-variable `f` over all eight assignments.
    fn values(m: &Manager, f: Add) -> Vec<f64> {
        (0..8u32)
            .map(|bits| m.add_eval(f, &[bits & 1 != 0, bits & 2 != 0, bits & 4 != 0]))
            .collect()
    }

    #[test]
    fn collapse_reduces_size() {
        let mut m = Manager::new(2);
        let (f, inner) = example(&mut m);
        let before = m.size(f.node());
        let g = m.collapse(f, &[(inner.node(), 5.0)]);
        assert!(m.size(g.node()) < before);
    }

    #[test]
    fn collapse_with_empty_map_is_identity() {
        let mut m = Manager::new(2);
        let (f, _) = example(&mut m);
        let g = m.collapse(f, &[]);
        assert_eq!(f, g);
    }

    #[test]
    fn collapse_root_gives_constant() {
        let mut m = Manager::new(2);
        let (f, _) = example(&mut m);
        let g = m.collapse(f, &[(f.node(), 7.5)]);
        assert!(g.node().is_terminal());
        assert_eq!(m.terminal_value(g.node()), 7.5);
    }

    #[test]
    fn ancestor_replacement_wins() {
        let mut m = Manager::new(2);
        let (f, inner) = example(&mut m);
        let g = m.collapse(f, &[(f.node(), 1.0), (inner.node(), 99.0)]);
        assert!(g.node().is_terminal());
        assert_eq!(m.terminal_value(g.node()), 1.0);
    }

    #[test]
    fn avg_collapse_preserves_global_average() {
        // Replacing any sub-ADD by its own average leaves the root average
        // unchanged — the invariant the paper uses to compose local and
        // global approximations (Section 3.1).
        let mut m = Manager::new(3);
        let x0 = m.bdd_var(Var(0));
        let x1 = m.bdd_var(Var(1));
        let x2 = m.bdd_var(Var(2));
        let c2 = m.constant(2.0);
        let c8 = m.constant(8.0);
        let zero = m.add_zero();
        let s1 = m.add_ite(x1, c8, c2);
        let s2 = m.add_ite(x2, c2, zero);
        let f = m.add_ite(x0, s1, s2);

        // s1 averages 5 over its two assignments.
        let g = m.collapse(f, &[(s1.node(), 5.0)]);
        let mean = |m: &Manager, f: Add| values(m, f).iter().sum::<f64>() / 8.0;
        assert_eq!(mean(&m, f), mean(&m, g));
    }

    #[test]
    fn max_collapse_is_conservative_and_preserves_max() {
        let mut m = Manager::new(3);
        let x0 = m.bdd_var(Var(0));
        let x1 = m.bdd_var(Var(1));
        let x2 = m.bdd_var(Var(2));
        let c2 = m.constant(2.0);
        let c8 = m.constant(8.0);
        let zero = m.add_zero();
        let s1 = m.add_ite(x1, c8, c2);
        let s2 = m.add_ite(x2, c2, zero);
        let f = m.add_ite(x0, s1, s2);

        // s2's maximum is 2.
        let g = m.collapse(f, &[(s2.node(), 2.0)]);

        let (before, after) = (values(&m, f), values(&m, g));
        assert!(after.iter().zip(&before).all(|(a, b)| a >= b));
        let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(max(&after), max(&before));
    }
}
