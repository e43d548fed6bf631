//! Cross-build structural sharing: the `SharedTable` invariants that
//! everything above `charfree-dd` leans on.
//!
//! The key one, checked bit for bit here: **a shared-table hit is always
//! bit-identical to a fresh build.** A manager that warm-builds through
//! a populated table must produce byte-identical diagram dumps and
//! f64-bit-identical evaluations — with zero apply steps.

use std::sync::Arc;

use charfree_dd::{Add, ApplyStats, Budget, DdError, Manager, Resource, SharedTable, Var};

/// The switching-capacitance-shaped workload of the crate docs: a sum of
/// scaled rise indicators over `vars` variables.
fn build_workload(m: &mut Manager, vars: u32, budget: &Budget) -> Add {
    let mut c = m.add_zero();
    for v in 0..vars / 2 {
        let gi = m.bdd_var(Var(v));
        let gf = m.bdd_var(Var(vars / 2 + v));
        let n = m.bdd_not(gi);
        let rise = m.bdd_and(n, gf);
        let delta = m.add_scale(rise.as_add(), 10.0 + f64::from(v));
        c = m
            .try_add_plus(c, delta, budget)
            .expect("workload fits any reasonable budget");
    }
    c
}

fn dump(m: &Manager, f: Add) -> Vec<u8> {
    let mut buf = Vec::new();
    charfree_dd::io::write_diagram(m, f.node(), &mut buf).expect("in-memory write");
    buf
}

#[test]
fn warm_build_is_bit_identical_with_zero_apply_steps() {
    let table = Arc::new(SharedTable::new());

    let cold_stats = ApplyStats::shared();
    let mut m1 = Manager::new(8);
    m1.attach_shared(table.clone());
    let budget = Budget::unlimited().with_stats(cold_stats.clone());
    let f1 = build_workload(&mut m1, 8, &budget);
    assert!(cold_stats.apply_steps() > 0, "cold build does real work");
    assert!(!table.is_empty(), "cold build populated the table");

    let warm_stats = ApplyStats::shared();
    let mut m2 = Manager::new(8);
    m2.attach_shared(table.clone());
    let budget = Budget::unlimited().with_stats(warm_stats.clone());
    let f2 = build_workload(&mut m2, 8, &budget);
    assert_eq!(
        warm_stats.apply_steps(),
        0,
        "every apply resolved from the shared memo"
    );
    let counters = table.counters();
    assert!(counters.table_hits > 0);
    assert!(counters.apply_steps_saved > 0);

    // Bit-identical: same structure (byte-identical dumps), same
    // evaluations down to the f64 bit pattern.
    assert_eq!(dump(&m1, f1), dump(&m2, f2));
    for bits in 0..256u32 {
        let asg: Vec<bool> = (0..8).map(|i| bits >> i & 1 == 1).collect();
        assert_eq!(
            m1.add_eval(f1, &asg).to_bits(),
            m2.add_eval(f2, &asg).to_bits()
        );
    }
}

#[test]
fn unshared_managers_are_unaffected() {
    // No table attached: fingerprints are not maintained and behavior is
    // the pre-sharing default.
    let mut m = Manager::new(4);
    let a = m.bdd_var(Var(0));
    let b = m.bdd_var(Var(1));
    let f = m.bdd_and(a, b);
    assert_eq!(m.fingerprint(f.node()), None);
}

#[test]
fn signed_zero_terminals_cannot_split_fingerprints() {
    let table = Arc::new(SharedTable::new());
    let mut m = Manager::new(2);
    m.attach_shared(table.clone());

    // -0.0 and 0.0 intern to the same node AND the same fingerprint.
    let pz = m.terminal(0.0);
    let nz = m.terminal(-0.0);
    assert_eq!(pz, nz, "interning canonicalizes signed zero");
    assert_eq!(m.fingerprint(pz), m.fingerprint(nz));

    // A sub-DAG reaching zero through arithmetic that can produce -0.0
    // (e.g. scaling by a negative constant) fingerprints identically to
    // one built with +0.0, so a second manager shares it.
    let x = m.bdd_var(Var(0));
    let neg = m.add_scale(x.as_add(), -2.5);
    let fp_via_neg = m.fingerprint(neg.node()).expect("shared attached");

    let mut m2 = Manager::new(2);
    m2.attach_shared(table);
    let x2 = m2.bdd_var(Var(0));
    let neg2 = m2.add_scale(x2.as_add(), -2.5);
    assert_eq!(m2.fingerprint(neg2.node()), Some(fp_via_neg));
    assert_eq!(
        m.add_eval(neg, &[false, false]).to_bits(),
        m2.add_eval(neg2, &[false, false]).to_bits(),
        "the zero branch is the canonical +0.0 in both arenas"
    );
}

#[test]
fn materialization_respects_node_budget_without_phantom_steps() {
    let table = Arc::new(SharedTable::new());
    let mut m1 = Manager::new(12);
    m1.attach_shared(table.clone());
    build_workload(&mut m1, 12, &Budget::unlimited());

    // Warm build under a node cap too small for the materialized result:
    // the cap must trip (as LiveNodes) even though no apply steps are
    // consumed.
    let mut m2 = Manager::new(12);
    m2.attach_shared(table.clone());
    let tight = Budget::unlimited().with_max_live_nodes(4);
    let mut tripped = None;
    let mut c = m2.add_zero();
    for v in 0..6u32 {
        let gi = m2.bdd_var(Var(v));
        let gf = m2.bdd_var(Var(6 + v));
        let n = m2.bdd_not(gi);
        let rise = m2.bdd_and(n, gf);
        let delta = m2.add_scale(rise.as_add(), 10.0 + f64::from(v));
        match m2.try_add_plus(c, delta, &tight) {
            Ok(next) => c = next,
            Err(e) => {
                tripped = Some(e);
                break;
            }
        }
    }
    match tripped {
        Some(DdError::BudgetExceeded { resource, .. }) => {
            assert!(
                matches!(resource, Resource::LiveNodes),
                "arena growth is governed during materialization, got {resource:?}"
            );
        }
        None => panic!("a 4-node cap must trip"),
    }
}

#[test]
fn compact_keeps_fingerprints_and_sharing_consistent() {
    let table = Arc::new(SharedTable::new());
    let mut m = Manager::new(8);
    m.attach_shared(table.clone());
    let f = build_workload(&mut m, 8, &Budget::unlimited());
    let fp_before = m.fingerprint(f.node()).expect("attached");

    // Compact re-indexes the arena; fingerprints must follow.
    let roots = m.compact(&[f.node()]);
    let f = Add::from_node(roots[0]);
    assert_eq!(m.fingerprint(f.node()), Some(fp_before));

    // And building *more* on the compacted manager still shares: a fresh
    // manager replays the same ops with zero steps.
    let x = m.bdd_var(Var(0));
    let g = m.add_times(f, x.as_add());
    let fp_g = m.fingerprint(g.node()).expect("attached");

    let warm = ApplyStats::shared();
    let mut m2 = Manager::new(8);
    m2.attach_shared(table);
    let budget = Budget::unlimited().with_stats(warm.clone());
    let f2 = build_workload(&mut m2, 8, &budget);
    let x2 = m2.bdd_var(Var(0));
    let g2 = m2
        .try_add_times(f2, x2.as_add(), &budget)
        .expect("unlimited");
    assert_eq!(warm.apply_steps(), 0);
    assert_eq!(m2.fingerprint(g2.node()), Some(fp_g));
}
