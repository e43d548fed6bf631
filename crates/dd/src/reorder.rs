//! Variable reordering by local window search.
//!
//! Decision-diagram size is extremely order-sensitive; the paper leans on
//! CUDD's dynamic reordering ("after reduction (and variable reordering)
//! the only way of further simplifying ADDs is by approximating"). This
//! module provides the rebuild-based equivalent: a sifting-style local
//! search that tries all permutations of a sliding window and keeps
//! whichever ordering shrinks the diagram.
//!
//! [`reorder_paired_windows`] permutes *pairs* `(2k, 2k+1)` as units,
//! preserving the `xⁱ/xᶠ` interleaving that transition-space power models
//! (and their chain measures) rely on. It returns the reordered root plus
//! the final placement so callers can keep evaluating under the original
//! variable names.

use crate::manager::Manager;
use crate::node::{NodeId, Var};

fn permutations(k: usize) -> Vec<Vec<usize>> {
    // Heap's algorithm; k is tiny (2..=4).
    let mut items: Vec<usize> = (0..k).collect();
    let mut out = Vec::new();
    fn heap(items: &mut Vec<usize>, k: usize, out: &mut Vec<Vec<usize>>) {
        if k <= 1 {
            out.push(items.clone());
            return;
        }
        for i in 0..k {
            heap(items, k - 1, out);
            if k.is_multiple_of(2) {
                items.swap(i, k - 1);
            } else {
                items.swap(0, k - 1);
            }
        }
    }
    heap(&mut items, k, &mut out);
    out
}

/// Local window reordering over variable *pairs* `(2k, 2k+1)`.
///
/// The pair structure (e.g. `xₖⁱ` directly above `xₖᶠ`) is preserved: only
/// whole pairs move. Returns `(new_root, pair_placement)` where
/// `pair_placement[p]` is the position pair `p`'s content now occupies.
///
/// # Panics
///
/// Panics if the manager's variable count is odd, or `window` is outside
/// `2..=4`.
pub fn reorder_paired_windows(
    m: &mut Manager,
    root: NodeId,
    window: usize,
    passes: usize,
) -> (NodeId, Vec<usize>) {
    assert!((2..=4).contains(&window), "window must be 2..=4");
    assert!(
        m.num_vars().is_multiple_of(2),
        "paired reordering needs an even variable count"
    );
    let pairs = (m.num_vars() / 2) as usize;
    let mut placement: Vec<usize> = (0..pairs).collect();
    let mut root = root;
    if pairs < window {
        return (root, placement);
    }
    let perms = permutations(window);
    for _ in 0..passes.max(1) {
        let mut improved = false;
        for start in 0..=pairs - window {
            let base_size = m.size(root);
            let mut best: Option<(NodeId, Vec<usize>, usize)> = None;
            for perm in &perms {
                if perm.iter().enumerate().all(|(i, &p)| i == p) {
                    continue;
                }
                let mut var_perm: Vec<Var> = (0..m.num_vars()).map(Var).collect();
                for (i, &p) in perm.iter().enumerate() {
                    let from = start + i;
                    let to = start + p;
                    var_perm[2 * from] = Var(2 * to as u32);
                    var_perm[2 * from + 1] = Var((2 * to + 1) as u32);
                }
                let candidate = m.permute(root, &var_perm);
                let size = m.size(candidate);
                if size < best.as_ref().map_or(base_size, |b| b.2) {
                    best = Some((candidate, perm.clone(), size));
                }
            }
            if let Some((candidate, perm, _)) = best {
                root = candidate;
                let snapshot = placement.clone();
                for p in 0..pairs {
                    let pos = snapshot[p];
                    if (start..start + window).contains(&pos) {
                        placement[p] = start + perm[pos - start];
                    }
                }
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }
    (root, placement)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::Add;

    /// Evaluates `reordered` under the original variable naming: pair `p`'s
    /// two variables moved together to `(2·placement[p], 2·placement[p]+1)`.
    fn check_semantics(m: &Manager, original: Add, reordered: NodeId, placement: &[usize]) {
        let n = m.num_vars();
        for bits in 0..1u32 << n {
            let asg: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
            let mut pulled = vec![false; n as usize];
            for (p, &pos) in placement.iter().enumerate() {
                pulled[2 * pos] = asg[2 * p];
                pulled[2 * pos + 1] = asg[2 * p + 1];
            }
            assert_eq!(
                m.add_eval(original, &asg),
                m.add_eval(Add::from_node(reordered), &pulled),
                "bits={bits:b}"
            );
        }
    }

    #[test]
    fn paired_reorder_shrinks_bad_orders() {
        // a_i lives in pair i, b_i in pair k+i: the coupled pairs are
        // declared far apart (bad order) — the classic sifting testcase.
        let k = 4u32;
        let mut m = Manager::new(4 * k);
        let mut f = m.add_zero();
        for i in 0..k {
            let a = m.bdd_var(Var(2 * i));
            let b = m.bdd_var(Var(2 * (k + i)));
            let ab = m.bdd_and(a, b);
            let d = m.add_scale(ab.as_add(), 1.0 + i as f64);
            f = m.add_plus(f, d);
        }
        let before = m.size(f.node());
        // compact drops the construction garbage but keeps f valid.
        let kept = m.compact(&[f.node()]);
        let f = Add::from_node(kept[0]);

        let (g, placement) = reorder_paired_windows(&mut m, f.node(), 3, 4);
        let after = m.size(g);
        assert!(
            after < before,
            "pair interleaving must shrink: {before} -> {after}"
        );
        check_semantics(&m, f, g, &placement);
    }

    #[test]
    fn paired_reorder_preserves_pair_adjacency_and_semantics() {
        // Pairs: (0,1), (2,3), (4,5), (6,7) with a function coupling pair
        // 0 with pair 3 and pair 1 with pair 2 — swapping pair order helps.
        let mut m = Manager::new(8);
        let coupled = |m: &mut Manager, p: u32, q: u32| -> Add {
            let a = m.bdd_var(Var(2 * p));
            let b = m.bdd_var(Var(2 * q + 1));
            let ab = m.bdd_xor(a, b);
            ab.as_add()
        };
        let c03 = coupled(&mut m, 0, 3);
        let c12 = coupled(&mut m, 1, 2);
        let t = m.add_scale(c03, 3.0);
        let u = m.add_scale(c12, 5.0);
        let f = m.add_plus(t, u);
        let kept = m.compact(&[f.node()]);
        let f = Add::from_node(kept[0]);

        let (g, placement) = reorder_paired_windows(&mut m, f.node(), 3, 4);
        check_semantics(&m, f, g, &placement);
        // The placement is a permutation.
        let mut seen = [false; 4];
        for &p in &placement {
            assert!(!seen[p]);
            seen[p] = true;
        }
    }

    #[test]
    fn identity_when_already_optimal() {
        // An interleaved multiplexer chain is already near-optimal; the
        // reorder must not make it bigger.
        let mut m = Manager::new(6);
        let mut acc = m.add_zero();
        for i in 0..6u32 {
            let x = m.bdd_var(Var(i));
            let d = m.add_scale(x.as_add(), f64::powi(2.0, i as i32));
            acc = m.add_plus(acc, d);
        }
        let before = m.size(acc.node());
        let kept = m.compact(&[acc.node()]);
        let acc = Add::from_node(kept[0]);
        let (g, _) = reorder_paired_windows(&mut m, acc.node(), 3, 2);
        assert!(m.size(g) <= before);
    }

    #[test]
    #[should_panic(expected = "window must be")]
    fn rejects_huge_windows() {
        let mut m = Manager::new(4);
        let f = m.add_zero();
        let _ = reorder_paired_windows(&mut m, f.node(), 7, 1);
    }
}
