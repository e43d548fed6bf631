//! Property-based tests: decision-diagram operations against brute-force
//! truth-table semantics on small variable counts.

use charfree_dd::{
    Add, Bdd, BinOp, Budget, ChainMeasure, DdError, Manager, NodeId, Resource, Rounding, Var,
};
use charfree_netlist::testutil::{assume, check, Gen};
use std::ops::Range;

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

/// A random expression at most four operators deep, rooted at an
/// operator.
fn arb_expr(g: &mut Gen) -> Expr {
    expr_of_depth(g, 4)
}

/// An operator drawn uniformly, whose operands are each (one `below(2)`
/// draw) a variable or, while `depth > 1`, an operator one level shallower.
fn expr_of_depth(g: &mut Gen, depth: u32) -> Expr {
    let operand = |g: &mut Gen| {
        Box::new(if g.below(2) == 1 && depth > 1 {
            expr_of_depth(g, depth - 1)
        } else {
            Expr::Var(g.range(0..NVARS))
        })
    };
    match g.below(5) {
        0 => Expr::Not(operand(g)),
        1 => Expr::And(operand(g), operand(g)),
        2 => Expr::Or(operand(g), operand(g)),
        3 => Expr::Xor(operand(g), operand(g)),
        _ => Expr::Ite(operand(g), operand(g), operand(g)),
    }
}

/// `len` weights drawn from `range` (a fixed length, drawn as `len..len + 1`).
fn weights(g: &mut Gen, len: usize, range: Range<f64>) -> Vec<f64> {
    g.vec(len..len + 1, |g| g.float(range.clone()))
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
fn check_collapsed_size(m: &mut Manager, f: Add, picks: &[(usize, usize)]) {
    let snap = m.snapshot(f);
    assert_eq!(snap.size(), m.size(f.node()));
    if snap.is_empty() {
        return;
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
        let repl: Vec<_> = order[..k]
            .iter()
            .map(|&i| (snap.node_id(i as usize), leaves[i as usize]))
            .collect();
        let g = m.collapse(f, &repl);
        assert_eq!(sizer.collapsed_size(k), m.size(g.node()));
    }
}

#[test]
fn bdd_matches_truth_table() {
    check("bdd_matches_truth_table", 64, arb_expr, |expr| {
        let mut m = Manager::new(NVARS);
        let f = expr.build(&mut m);
        for asg in assignments() {
            assert_eq!(m.bdd_eval(f, &asg), expr.eval(&asg));
        }
    });
}

#[test]
fn bdd_canonicity() {
    check("bdd_canonicity", 64, arb_expr, |expr| {
        // Building twice yields the same handle; building the double
        // negation also yields the same handle.
        let mut m = Manager::new(NVARS);
        let f = expr.build(&mut m);
        let g = expr.build(&mut m);
        assert_eq!(f, g);
        let nf = m.bdd_not(f);
        let nnf = m.bdd_not(nf);
        assert_eq!(f, nnf);
    });
}

#[test]
fn sat_count_matches_enumeration() {
    check("sat_count_matches_enumeration", 64, arb_expr, |expr| {
        let mut m = Manager::new(NVARS);
        let f = expr.build(&mut m);
        let expected = assignments().filter(|a| expr.eval(a)).count() as f64;
        assert_eq!(m.sat_count(f), expected);
    });
}

#[test]
fn add_apply_is_pointwise() {
    let generate = |g: &mut Gen| {
        (
            weights(g, NVARS as usize, -10.0..10.0),
            weights(g, NVARS as usize, -10.0..10.0),
        )
    };
    check("add_apply_is_pointwise", 64, generate, |(w1, w2)| {
        let mut m = Manager::new(NVARS);
        let f = build_add(&mut m, w1);
        let g = build_add(&mut m, w2);
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
                assert!((m.add_eval(h, &asg) - want).abs() < 1e-9);
            }
        }
    });
}

#[test]
fn uniform_root_statistics_match_enumeration() {
    let generate = |g: &mut Gen| weights(g, NVARS as usize, -10.0..10.0);
    check(
        "uniform_root_statistics_match_enumeration",
        64,
        generate,
        |w| {
            let mut m = Manager::new(NVARS);
            let f = build_add(&mut m, w);
            let snap = m.snapshot(f);
            assume(!snap.is_empty())?;
            let s = snap
                .profile(&[&ChainMeasure::uniform(NVARS)])
                .node(snap.len() - 1, 0)
                .stats;
            let values = values(&m, f);
            let n = values.len() as f64;
            let avg = values.iter().sum::<f64>() / n;
            let var = values.iter().map(|v| (v - avg) * (v - avg)).sum::<f64>() / n;
            assert!((s.avg - avg).abs() < 1e-9);
            assert!((s.var - var).abs() < 1e-9);
            assert_eq!(s.max, max_of(&values));
            assert_eq!(s.min, values.iter().copied().fold(f64::INFINITY, f64::min));
            Ok(())
        },
    );
}

/// Non-negative weights and a node index to collapse.
fn weights_and_pick(g: &mut Gen) -> (Vec<f64>, usize) {
    (weights(g, NVARS as usize, 0.0..10.0), g.range(0..64))
}

#[test]
fn max_collapse_upper_bounds_everywhere() {
    check(
        "max_collapse_upper_bounds_everywhere",
        64,
        weights_and_pick,
        |(w, node_pick)| {
            let mut m = Manager::new(NVARS);
            let f = build_add(&mut m, w);
            let nodes = m.topological_nodes(f.node());
            assume(!nodes.is_empty())?;
            let target = nodes[node_pick % nodes.len()];
            let leaf = max_of(&values(&m, Add::from_node(target)));
            let g = m.collapse(f, &[(target, leaf)]);
            let (before, after) = (values(&m, f), values(&m, g));
            for (a, b) in after.iter().zip(&before) {
                assert!(*a >= b - 1e-12);
            }
            // Global max preserved exactly.
            assert_eq!(max_of(&after), max_of(&before));
            Ok(())
        },
    );
}

#[test]
fn avg_collapse_preserves_global_average() {
    check(
        "avg_collapse_preserves_global_average",
        64,
        weights_and_pick,
        |(w, node_pick)| {
            let mut m = Manager::new(NVARS);
            let f = build_add(&mut m, w);
            let nodes = m.topological_nodes(f.node());
            assume(!nodes.is_empty())?;
            let target = nodes[node_pick % nodes.len()];
            let mean = |v: Vec<f64>| v.iter().sum::<f64>() / v.len() as f64;
            let leaf = mean(values(&m, Add::from_node(target)));
            let g = m.collapse(f, &[(target, leaf)]);
            assert!((mean(values(&m, g)) - mean(values(&m, f))).abs() < 1e-9);
            Ok(())
        },
    );
}

/// The snap `try_add_plus_quantized` applies, written out: `q(0) = 0`,
/// otherwise `v / quantum` rounded, times `quantum`.
fn snap(v: f64, quantum: f64, rounding: Rounding) -> f64 {
    if v == 0.0 {
        0.0
    } else {
        match rounding {
            Rounding::Nearest => (v / quantum).round() * quantum,
            Rounding::Up => (v / quantum).ceil() * quantum,
        }
    }
}

/// The two-pass reference of `try_add_plus_quantized`: the sum, then its
/// terminals mapped through [`snap`].
fn add_then_quantize(m: &mut Manager, f: Add, g: Add, quantum: f64, rounding: Rounding) -> Add {
    let sum = m.add_plus(f, g);
    m.add_map_terminals(sum, |v| snap(v, quantum, rounding))
}

/// Operands of a quantized sum: two shared ADDs with negative terminals,
/// which pair (both, a zero on either side, or one with itself), two
/// quanta and a pick for the trip point.
type QuantizedCase = ([(Vec<f64>, Expr, f64); 2], u64, [f64; 2], u64);

fn arb_quantized_case(g: &mut Gen) -> QuantizedCase {
    let operand = |g: &mut Gen| {
        (
            weights(g, NVARS as usize, -10.0..10.0),
            arb_expr(g),
            g.float(-10.0..10.0),
        )
    };
    let operands = [operand(g), operand(g)];
    (
        operands,
        g.below(4),
        [g.float(0.05..3.0), g.float(0.05..3.0)],
        g.below(1 << 20),
    )
}

#[test]
fn fused_quantized_sum_matches_add_then_quantize() {
    check(
        "fused_quantized_sum_matches_add_then_quantize",
        64,
        arb_quantized_case,
        |(operands, pairing, quanta, trip_pick)| {
            let mut m = Manager::new(NVARS);
            let [a, b] = operands
                .each_ref()
                .map(|(w, plateau, height)| build_shared_add(&mut m, w, plateau, *height));
            let zero = m.add_zero();
            let (f, g) = match *pairing {
                0 => (a, b),
                1 => (zero, b),
                2 => (a, zero),
                _ => (a, a),
            };
            let unlimited = Budget::unlimited();
            // Both quanta and both directions on the same operands with
            // no `clear_caches` between: a cached result reused under
            // another grid would differ from the reference.
            for &quantum in quanta {
                for rounding in [Rounding::Nearest, Rounding::Up] {
                    let fused = m
                        .try_add_plus_quantized(f, g, quantum, rounding, &unlimited)
                        .expect("an unlimited budget cannot trip");
                    assert_eq!(fused, add_then_quantize(&mut m, f, g, quantum, rounding));
                }
            }

            // A trip mid-operation fails it and leaves both operands as
            // they were; the same sum then completes to the reference.
            let quantum = quanta[0] * 0.75;
            let probe = Budget::unlimited();
            m.clone()
                .try_add_plus_quantized(f, g, quantum, Rounding::Up, &probe)
                .expect("an unlimited budget cannot trip");
            if probe.steps() > 0 {
                let bits = |m: &Manager| {
                    [f, g].map(|h| {
                        values(m, h)
                            .into_iter()
                            .map(f64::to_bits)
                            .collect::<Vec<_>>()
                    })
                };
                let before = bits(&m);
                let tripping = Budget::unlimited().trip_after(1 + trip_pick % probe.steps());
                let err = m
                    .try_add_plus_quantized(f, g, quantum, Rounding::Up, &tripping)
                    .expect_err("the trip lands inside the operation");
                assert!(matches!(
                    err,
                    DdError::BudgetExceeded {
                        resource: Resource::FaultInjection,
                        ..
                    }
                ));
                assert_eq!(bits(&m), before);
                let fused = m
                    .try_add_plus_quantized(f, g, quantum, Rounding::Up, &unlimited)
                    .expect("an unlimited budget cannot trip");
                assert_eq!(
                    fused,
                    add_then_quantize(&mut m, f, g, quantum, Rounding::Up)
                );
            }
        },
    );
}

#[test]
fn compact_preserves_functions() {
    check("compact_preserves_functions", 64, arb_expr, |expr| {
        let mut m = Manager::new(NVARS);
        let f = expr.build(&mut m);
        let roots = m.compact(&[f.node()]);
        let g = Bdd::from_node(roots[0]);
        for asg in assignments() {
            assert_eq!(m.bdd_eval(g, &asg), expr.eval(&asg));
        }
    });
}

#[test]
fn permute_pullback_semantics() {
    let generate = |g: &mut Gen| (arb_expr(g), g.range(0u64..1000));
    check(
        "permute_pullback_semantics",
        64,
        generate,
        |(expr, seed)| {
            // Random permutation of the variables.
            let mut perm: Vec<Var> = (0..NVARS).map(Var).collect();
            let mut s = *seed;
            for i in (1..perm.len()).rev() {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                perm.swap(i, (s >> 33) as usize % (i + 1));
            }
            let mut m = Manager::new(NVARS);
            let f = expr.build(&mut m);
            let g = Bdd::from_node(m.permute(f.node(), &perm));
            for asg in assignments() {
                let pulled: Vec<bool> = (0..NVARS as usize)
                    .map(|v| asg[perm[v].index() as usize])
                    .collect();
                assert_eq!(m.bdd_eval(g, &asg), m.bdd_eval(f, &pulled));
            }
        },
    );
}

#[test]
fn collapsed_size_matches_materialized_collapse() {
    let generate = |g: &mut Gen| {
        (
            g.vec(NVARS as usize..NVARS as usize + 1, |g| g.range(0u32..3)),
            arb_expr(g),
            g.range(0u32..3),
            g.vec(0..8, |g| (g.range(0usize..64), g.range(0usize..5))),
        )
    };
    check(
        "collapsed_size_matches_materialized_collapse",
        64,
        generate,
        |(w, plateau, height, picks)| {
            let mut m = Manager::new(NVARS);
            let weights: Vec<f64> = w.iter().map(|&x| f64::from(x)).collect();
            let f = build_shared_add(&mut m, &weights, plateau, f64::from(*height));
            check_collapsed_size(&mut m, f, picks);
            // The root (last in post-order) replaced after, and before, one of
            // its descendants.
            let root = m.snapshot(f).len().saturating_sub(1);
            let mut with_root = picks.clone();
            with_root.push((root, 1));
            check_collapsed_size(&mut m, f, &with_root);
            with_root.rotate_right(1);
            check_collapsed_size(&mut m, f, &with_root);
        },
    );
}

#[test]
fn uniform_dense_profile_matches_enumeration() {
    let generate = |g: &mut Gen| (weights(g, NVARS as usize, -10.0..10.0), arb_expr(g));
    check(
        "uniform_dense_profile_matches_enumeration",
        64,
        generate,
        |(w, plateau)| {
            let mut m = Manager::new(NVARS);
            let f = build_shared_add(&mut m, w, plateau, 3.0);
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
                assert!(
                    close(got.stats.avg, avg),
                    "avg {} vs {}",
                    got.stats.avg,
                    avg
                );
                assert!(
                    close(got.stats.var, var),
                    "var {} vs {}",
                    got.stats.var,
                    var
                );
                assert_eq!(
                    got.stats.min,
                    values.iter().copied().fold(f64::INFINITY, f64::min)
                );
                assert_eq!(got.stats.max, max_of(&values));
                assert!(close(got.reach, reach(id)));
            }
            let values = snap.terminal_values().to_vec();
            for (j, value) in values.into_iter().enumerate() {
                let id = m.terminal(value);
                assert!(close(profile.terminal_reach(j, 0), reach(id)));
            }
            if !snap.is_empty() {
                let root = profile.node(snap.len() - 1, 0).stats.avg;
                assert_eq!(snap.means(&[&ChainMeasure::uniform(NVARS)])[0], root);
            }
        },
    );
}

#[test]
fn chain_measure_means_match_enumeration() {
    let generate = |g: &mut Gen| {
        (
            weights(g, 6, 0.0..10.0),
            g.float(0.2..0.8),
            g.float(0.05..0.4),
        )
    };
    check(
        "chain_measure_means_match_enumeration",
        64,
        generate,
        |&(ref w, sp, toggle)| {
            // Three interleaved pairs: the correlated contexts are exercised.
            let mut m = Manager::new(6);
            let f = build_add(&mut m, w);
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
                    let ctx = if measure.is_correlated(v as u32) {
                        1 + u8::from(asg[v - 1])
                    } else {
                        0
                    };
                    let p1 = measure.prob_one(v, ctx);
                    p *= if asg[v] { p1 } else { 1.0 - p1 };
                }
                want += p * m.add_eval(f, &asg);
            }
            let snap = m.snapshot(f);
            let got = snap.means(&[&measure])[0];
            assert!((got - want).abs() < 1e-9, "{} vs {}", got, want);
            // Terminal reach sums to one.
            let profile = snap.profile(&[&measure]);
            let total: f64 = (0..snap.terminal_values().len())
                .map(|j| profile.terminal_reach(j, 0))
                .sum();
            assert!((total - 1.0).abs() < 1e-9);
        },
    );
}
