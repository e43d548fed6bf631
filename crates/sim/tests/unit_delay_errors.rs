//! Unit-delay error paths exercised through the public API only.
//!
//! The BLIF elaborator rejects combinational cycles and `Netlist` cannot
//! express them either, so a true oscillator is unreachable from the
//! outside. What *is* reachable: legitimately deep or wide circuits
//! against tightened [`UnitDelaySim::with_max_steps`] /
//! [`UnitDelaySim::with_max_events`] bounds — every error must come back
//! as a typed [`UnitDelayError`], never a panic, and the same transition
//! must succeed once the bound is loosened.

use charfree_netlist::{benchmarks, testutil, Library};
use charfree_sim::{UnitDelayError, UnitDelaySim, ZeroDelaySim};

#[test]
fn deep_chain_trips_non_settling_at_every_insufficient_bound() {
    let library = Library::test_library();
    let depth = 12usize;
    let n = testutil::inverter_chain(depth, &library);
    // Every bound below the chain depth is insufficient; the first
    // sufficient bound settles and reports a plausible settle time.
    for bound in 1..depth as u32 {
        let sim = UnitDelaySim::new(&n).with_max_steps(bound);
        let err = sim
            .try_simulate_transition(&[false], &[true])
            .expect_err("bound below depth cannot settle");
        assert_eq!(err, UnitDelayError::NonSettling { max_steps: bound });
        assert!(err.to_string().contains(&bound.to_string()));
    }
    let report = UnitDelaySim::new(&n)
        .with_max_steps(depth as u32 + 1)
        .try_simulate_transition(&[false], &[true])
        .expect("depth + 1 steps settle an inverter chain");
    assert!(report.settle_time <= n.depth() + 1);
    // An all-inverter chain is glitch-free: one event per level.
    assert_eq!(report.glitch.femtofarads(), 0.0);
}

#[test]
fn wide_flip_trips_event_overflow_then_succeeds_unbounded() {
    let library = Library::test_library();
    let n = benchmarks::by_name("cm85", &library).expect("Table 1 name");
    let all_low = vec![false; n.num_inputs()];
    let all_high = vec![true; n.num_inputs()];
    let sim = UnitDelaySim::new(&n).with_max_events(3);
    let err = sim
        .try_simulate_transition(&all_low, &all_high)
        .expect_err("an all-ones flip schedules far more than 3 events");
    assert_eq!(err, UnitDelayError::EventOverflow { max_events: 3 });
    // The untightened simulator handles the same flip and dominates the
    // zero-delay measurement (Section 5's bracketing direction).
    let report = UnitDelaySim::new(&n)
        .try_simulate_transition(&all_low, &all_high)
        .expect("default event budget suffices");
    let golden = ZeroDelaySim::new(&n).switching_capacitance(&all_low, &all_high);
    assert!(report.switched.femtofarads() >= golden.femtofarads() - 1e-9);
    assert!(report.glitch.femtofarads() >= 0.0);
}

#[test]
fn pattern_width_errors_are_typed_on_both_sides() {
    let library = Library::test_library();
    let n = testutil::reconvergent_glitcher(&library);
    let sim = UnitDelaySim::new(&n);
    let err = sim
        .try_simulate_transition(&[true, false], &[false])
        .expect_err("two bits into a one-input circuit");
    assert_eq!(
        err,
        UnitDelayError::PatternWidth {
            expected: 1,
            got: 2
        }
    );
    let err = sim
        .try_simulate_transition(&[true], &[])
        .expect_err("empty final pattern");
    assert_eq!(
        err,
        UnitDelayError::PatternWidth {
            expected: 1,
            got: 0
        }
    );
}

#[test]
fn errors_do_not_poison_the_simulator() {
    // A simulator that just returned an error must still answer the next
    // (well-formed, feasible) query correctly — no stale event-queue or
    // state-table residue.
    let library = Library::test_library();
    let n = testutil::reconvergent_glitcher(&library);
    let sim = UnitDelaySim::new(&n).with_max_events(1_000_000);
    let baseline = sim
        .try_simulate_transition(&[false], &[true])
        .expect("feasible");
    let _ = sim.try_simulate_transition(&[true, true], &[false, false]);
    let after = sim
        .try_simulate_transition(&[false], &[true])
        .expect("still feasible after an error");
    assert_eq!(
        baseline.switched.femtofarads().to_bits(),
        after.switched.femtofarads().to_bits()
    );
    assert_eq!(
        baseline.glitch.femtofarads().to_bits(),
        after.glitch.femtofarads().to_bits()
    );
    assert_eq!(baseline.settle_time, after.settle_time);
}
