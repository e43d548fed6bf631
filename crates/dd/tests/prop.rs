//! Property-based tests: decision-diagram operations against brute-force
//! truth-table semantics on small variable counts.

use charfree_dd::hash::FxHashMap;
use charfree_dd::{Add, Bdd, BinOp, ChainMeasure, Manager, NodeId, Var};
use proptest::prelude::*;

const NVARS: u32 = 5;

/// A small random Boolean expression.
#[derive(Debug, Clone)]
enum Expr {
    Var(u32),
    Not(Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Xor(Box<Expr>, Box<Expr>),
    Ite(Box<Expr>, Box<Expr>, Box<Expr>),
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = (0..NVARS).prop_map(Expr::Var);
    leaf.prop_recursive(4, 48, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(|e| Expr::Not(Box::new(e))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Or(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Xor(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone(), inner).prop_map(|(a, b, c)| Expr::Ite(
                Box::new(a),
                Box::new(b),
                Box::new(c)
            )),
        ]
    })
}

impl Expr {
    fn build(&self, m: &mut Manager) -> Bdd {
        match self {
            Expr::Var(v) => m.bdd_var(Var(*v)),
            Expr::Not(e) => {
                let x = e.build(m);
                m.bdd_not(x)
            }
            Expr::And(a, b) => {
                let (x, y) = (a.build(m), b.build(m));
                m.bdd_and(x, y)
            }
            Expr::Or(a, b) => {
                let (x, y) = (a.build(m), b.build(m));
                m.bdd_or(x, y)
            }
            Expr::Xor(a, b) => {
                let (x, y) = (a.build(m), b.build(m));
                m.bdd_xor(x, y)
            }
            Expr::Ite(a, b, c) => {
                let (x, y, z) = (a.build(m), b.build(m), c.build(m));
                m.bdd_ite(x, y, z)
            }
        }
    }

    fn eval(&self, asg: &[bool]) -> bool {
        match self {
            Expr::Var(v) => asg[*v as usize],
            Expr::Not(e) => !e.eval(asg),
            Expr::And(a, b) => a.eval(asg) && b.eval(asg),
            Expr::Or(a, b) => a.eval(asg) || b.eval(asg),
            Expr::Xor(a, b) => a.eval(asg) != b.eval(asg),
            Expr::Ite(a, b, c) => {
                if a.eval(asg) {
                    b.eval(asg)
                } else {
                    c.eval(asg)
                }
            }
        }
    }
}

fn assignments() -> impl Iterator<Item = Vec<bool>> {
    (0..1u32 << NVARS).map(|bits| (0..NVARS).map(|i| bits >> i & 1 == 1).collect())
}

/// The values of `f` over [`assignments`], in that order.
fn values(m: &Manager, f: Add) -> Vec<f64> {
    assignments().map(|a| m.add_eval(f, &a)).collect()
}

fn max_of(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// The nodes `asg` visits from `root` down to its terminal, both included.
fn path(m: &Manager, root: NodeId, asg: &[bool]) -> Vec<NodeId> {
    let mut id = root;
    let mut visited = vec![id];
    while !id.is_terminal() {
        let (lo, hi) = m.children(id);
        id = if asg[m.node_var(id).index() as usize] {
            hi
        } else {
            lo
        };
        visited.push(id);
    }
    visited
}

/// A random ADD built as Σ cᵥ·[xᵥ] plus a Boolean-shaped plateau.
fn build_add(m: &mut Manager, weights: &[f64]) -> Add {
    let mut acc = m.add_zero();
    for (v, &w) in weights.iter().enumerate() {
        let x = m.bdd_var(Var(v as u32));
        let delta = m.add_scale(x.as_add(), w);
        acc = m.add_plus(acc, delta);
    }
    acc
}

/// A random ADD with plenty of sharing and repeated values: a weighted sum
/// plus a plateau on a random Boolean expression.
fn build_shared_add(m: &mut Manager, weights: &[f64], plateau: &Expr, height: f64) -> Add {
    let sum = build_add(m, weights);
    let e = plateau.build(m);
    let h = m.add_scale(e.as_add(), height);
    m.add_plus(sum, h)
}

/// Replacement leaves drawn by the tests: signed zeros, values already on
/// the diagram's terminals and a fresh one.
const LEAVES: [f64; 5] = [0.0, -0.0, 1.0, 2.0, 0.5];

/// Asserts that the dry-run size of collapsing `picks` (dense indices,
/// collapsed in this order) matches the manager's collapse for every
/// prefix.
fn check_collapsed_size(
    m: &mut Manager,
    f: Add,
    picks: &[(usize, usize)],
) -> Result<(), TestCaseError> {
    let snap = m.snapshot(f);
    prop_assert_eq!(snap.size(), m.size(f.node()));
    if snap.is_empty() {
        return Ok(());
    }
    let mut order: Vec<u32> = Vec::new();
    let mut leaves = vec![0.0; snap.len()];
    for &(pick, leaf) in picks {
        let i = pick % snap.len();
        if !order.contains(&(i as u32)) {
            order.push(i as u32);
            leaves[i] = LEAVES[leaf % LEAVES.len()];
        }
    }
    let mut sizer = snap.collapse_sizer(&order, &leaves);
    for k in 0..=order.len() {
        let repl: FxHashMap<_, f64> = order[..k]
            .iter()
            .map(|&i| (snap.node_id(i as usize), leaves[i as usize]))
            .collect();
        let g = m.collapse(f, &repl);
        prop_assert_eq!(sizer.collapsed_size(k), m.size(g.node()));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bdd_matches_truth_table(expr in arb_expr()) {
        let mut m = Manager::new(NVARS);
        let f = expr.build(&mut m);
        for asg in assignments() {
            prop_assert_eq!(m.bdd_eval(f, &asg), expr.eval(&asg));
        }
    }

    #[test]
    fn bdd_canonicity(expr in arb_expr()) {
        // Building twice yields the same handle; building the double
        // negation also yields the same handle.
        let mut m = Manager::new(NVARS);
        let f = expr.build(&mut m);
        let g = expr.build(&mut m);
        prop_assert_eq!(f, g);
        let nf = m.bdd_not(f);
        let nnf = m.bdd_not(nf);
        prop_assert_eq!(f, nnf);
    }

    #[test]
    fn sat_count_matches_enumeration(expr in arb_expr()) {
        let mut m = Manager::new(NVARS);
        let f = expr.build(&mut m);
        let expected = assignments().filter(|a| expr.eval(a)).count() as f64;
        prop_assert_eq!(m.sat_count(f), expected);
    }

    #[test]
    fn add_apply_is_pointwise(
        w1 in proptest::collection::vec(-10.0..10.0f64, NVARS as usize),
        w2 in proptest::collection::vec(-10.0..10.0f64, NVARS as usize),
    ) {
        let mut m = Manager::new(NVARS);
        let f = build_add(&mut m, &w1);
        let g = build_add(&mut m, &w2);
        for (op, reference) in [
            (BinOp::Plus, (|a, b| a + b) as fn(f64, f64) -> f64),
            (BinOp::Minus, |a, b| a - b),
            (BinOp::Times, |a, b| a * b),
            (BinOp::Min, f64::min),
            (BinOp::Max, f64::max),
        ] {
            let h = m.add_apply(op, f, g);
            for asg in assignments() {
                let want = reference(m.add_eval(f, &asg), m.add_eval(g, &asg));
                prop_assert!((m.add_eval(h, &asg) - want).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn uniform_root_statistics_match_enumeration(
        w in proptest::collection::vec(-10.0..10.0f64, NVARS as usize),
    ) {
        let mut m = Manager::new(NVARS);
        let f = build_add(&mut m, &w);
        let snap = m.snapshot(f);
        prop_assume!(!snap.is_empty());
        let s = snap.profile(&[&ChainMeasure::uniform(NVARS)]).node(snap.len() - 1, 0).stats;
        let values = values(&m, f);
        let n = values.len() as f64;
        let avg = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - avg) * (v - avg)).sum::<f64>() / n;
        prop_assert!((s.avg - avg).abs() < 1e-9);
        prop_assert!((s.var - var).abs() < 1e-9);
        prop_assert_eq!(s.max, max_of(&values));
        prop_assert_eq!(s.min, values.iter().copied().fold(f64::INFINITY, f64::min));
    }

    #[test]
    fn max_collapse_upper_bounds_everywhere(
        w in proptest::collection::vec(0.0..10.0f64, NVARS as usize),
        node_pick in 0usize..64,
    ) {
        let mut m = Manager::new(NVARS);
        let f = build_add(&mut m, &w);
        let nodes = m.topological_nodes(f.node());
        prop_assume!(!nodes.is_empty());
        let target = nodes[node_pick % nodes.len()];
        let mut repl = charfree_dd::hash::FxHashMap::default();
        repl.insert(target, max_of(&values(&m, Add::from_node(target))));
        let g = m.collapse(f, &repl);
        let (before, after) = (values(&m, f), values(&m, g));
        for (a, b) in after.iter().zip(&before) {
            prop_assert!(*a >= b - 1e-12);
        }
        // Global max preserved exactly.
        prop_assert_eq!(max_of(&after), max_of(&before));
    }

    #[test]
    fn avg_collapse_preserves_global_average(
        w in proptest::collection::vec(0.0..10.0f64, NVARS as usize),
        node_pick in 0usize..64,
    ) {
        let mut m = Manager::new(NVARS);
        let f = build_add(&mut m, &w);
        let nodes = m.topological_nodes(f.node());
        prop_assume!(!nodes.is_empty());
        let target = nodes[node_pick % nodes.len()];
        let mean = |v: Vec<f64>| v.iter().sum::<f64>() / v.len() as f64;
        let mut repl = charfree_dd::hash::FxHashMap::default();
        repl.insert(target, mean(values(&m, Add::from_node(target))));
        let g = m.collapse(f, &repl);
        prop_assert!((mean(values(&m, g)) - mean(values(&m, f))).abs() < 1e-9);
    }

    #[test]
    fn compact_preserves_functions(expr in arb_expr()) {
        let mut m = Manager::new(NVARS);
        let f = expr.build(&mut m);
        let roots = m.compact(&[f.node()]);
        let g = Bdd::from_node(roots[0]);
        for asg in assignments() {
            prop_assert_eq!(m.bdd_eval(g, &asg), expr.eval(&asg));
        }
    }

    #[test]
    fn permute_pullback_semantics(expr in arb_expr(), seed in 0u64..1000) {
        // Random permutation of the variables.
        let mut perm: Vec<Var> = (0..NVARS).map(Var).collect();
        let mut s = seed;
        for i in (1..perm.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            perm.swap(i, (s >> 33) as usize % (i + 1));
        }
        let mut m = Manager::new(NVARS);
        let f = expr.build(&mut m);
        let g = Bdd::from_node(m.permute(f.node(), &perm));
        for asg in assignments() {
            let pulled: Vec<bool> =
                (0..NVARS as usize).map(|v| asg[perm[v].index() as usize]).collect();
            prop_assert_eq!(m.bdd_eval(g, &asg), m.bdd_eval(f, &pulled));
        }
    }

    #[test]
    fn collapsed_size_matches_materialized_collapse(
        w in proptest::collection::vec(0u32..3, NVARS as usize),
        plateau in arb_expr(),
        height in 0u32..3,
        picks in proptest::collection::vec((0usize..64, 0usize..5), 0..8),
    ) {
        let mut m = Manager::new(NVARS);
        let weights: Vec<f64> = w.iter().map(|&x| f64::from(x)).collect();
        let f = build_shared_add(&mut m, &weights, &plateau, f64::from(height));
        check_collapsed_size(&mut m, f, &picks)?;
        // The root (last in post-order) replaced after, and before, one of
        // its descendants.
        let root = m.snapshot(f).len().saturating_sub(1);
        let mut with_root = picks.clone();
        with_root.push((root, 1));
        check_collapsed_size(&mut m, f, &with_root)?;
        with_root.rotate_right(1);
        check_collapsed_size(&mut m, f, &with_root)?;
    }

    #[test]
    fn uniform_dense_profile_matches_enumeration(
        w in proptest::collection::vec(-10.0..10.0f64, NVARS as usize),
        plateau in arb_expr(),
    ) {
        let mut m = Manager::new(NVARS);
        let f = build_shared_add(&mut m, &w, &plateau, 3.0);
        let snap = m.snapshot(f);
        let profile = snap.profile(&[&ChainMeasure::uniform(NVARS)]);
        let paths: Vec<Vec<NodeId>> = assignments().map(|a| path(&m, f.node(), &a)).collect();
        let reach = |id: NodeId| {
            paths.iter().filter(|p| p.contains(&id)).count() as f64 / paths.len() as f64
        };
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * (1.0 + b.abs());
        for i in 0..snap.len() {
            let id = snap.node_id(i);
            let got = profile.node(i, 0);
            let values = values(&m, Add::from_node(id));
            let n = values.len() as f64;
            let avg = values.iter().sum::<f64>() / n;
            let var = values.iter().map(|v| (v - avg) * (v - avg)).sum::<f64>() / n;
            prop_assert!(close(got.stats.avg, avg), "avg {} vs {}", got.stats.avg, avg);
            prop_assert!(close(got.stats.var, var), "var {} vs {}", got.stats.var, var);
            prop_assert_eq!(got.stats.min, values.iter().copied().fold(f64::INFINITY, f64::min));
            prop_assert_eq!(got.stats.max, max_of(&values));
            prop_assert!(close(got.reach, reach(id)));
        }
        let values = snap.terminal_values().to_vec();
        for (j, value) in values.into_iter().enumerate() {
            let id = m.terminal(value);
            prop_assert!(close(profile.terminal_reach(j, 0), reach(id)));
        }
        if !snap.is_empty() {
            let root = profile.node(snap.len() - 1, 0).stats.avg;
            prop_assert_eq!(snap.means(&[&ChainMeasure::uniform(NVARS)])[0], root);
        }
    }

    #[test]
    fn chain_measure_means_match_enumeration(
        w in proptest::collection::vec(0.0..10.0f64, 6),
        sp in 0.2..0.8f64,
        toggle in 0.05..0.4f64,
    ) {
        // Three interleaved pairs: the correlated contexts are exercised.
        let mut m = Manager::new(6);
        let f = build_add(&mut m, &w);
        let both = {
            let a = m.bdd_var(Var(2));
            let b = m.bdd_var(Var(3));
            let x = m.bdd_xor(a, b);
            m.add_scale(x.as_add(), 7.0)
        };
        let f = m.add_plus(f, both);
        let measure = ChainMeasure::interleaved_transitions(3, sp, toggle);
        let mut want = 0.0;
        for bits in 0..64u32 {
            let asg: Vec<bool> = (0..6).map(|v| bits >> v & 1 == 1).collect();
            let mut p = 1.0;
            for v in 0..6usize {
                let ctx = if measure.is_correlated(v as u32) { 1 + u8::from(asg[v - 1]) } else { 0 };
                let p1 = measure.prob_one(v, ctx);
                p *= if asg[v] { p1 } else { 1.0 - p1 };
            }
            want += p * m.add_eval(f, &asg);
        }
        let snap = m.snapshot(f);
        let got = snap.means(&[&measure])[0];
        prop_assert!((got - want).abs() < 1e-9, "{} vs {}", got, want);
        // Terminal reach sums to one.
        let profile = snap.profile(&[&measure]);
        let total: f64 = (0..snap.terminal_values().len()).map(|j| profile.terminal_reach(j, 0)).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
    }
}
