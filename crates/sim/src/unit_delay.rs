//! Unit-delay gate-level simulation with glitch accounting.
//!
//! The paper deliberately restricts its golden model to **zero delay**,
//! classifying spurious transitions (glitches) as *parasitic* phenomena
//! outside the analytical model's scope (Section 2). This module provides a
//! unit-delay simulator so that gap can be *measured*: every gate switches
//! one time unit after its inputs, so unequal path depths create glitches,
//! and each rising edge — spurious or not — charges the gate's load.
//!
//! For any transition, the unit-delay switched capacitance is ≥ the
//! zero-delay one (a net final rise implies at least one rising edge), so
//! the difference is exactly the glitch energy the analytical model cannot
//! see.

use charfree_netlist::units::Capacitance;
use charfree_netlist::{CellKind, Netlist};
use std::error::Error;
use std::fmt;

/// Errors produced by unit-delay simulation.
///
/// A valid combinational netlist always settles within its depth bound, so
/// these only fire on malformed inputs, on netlists with feedback smuggled
/// past validation, or when the caller tightens the bounds via
/// [`UnitDelaySim::with_max_steps`] / [`UnitDelaySim::with_max_events`]
/// (e.g. as a fault-injection hook in tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnitDelayError {
    /// The pattern width does not match the netlist's input count.
    PatternWidth {
        /// Number of primary inputs the netlist has.
        expected: usize,
        /// Number of bits the caller supplied.
        got: usize,
    },
    /// The network did not reach a fixed point within the step bound —
    /// the signature of (emulated) feedback or oscillation.
    NonSettling {
        /// The step bound that was exhausted.
        max_steps: u32,
    },
    /// The total number of value-change events exceeded the configured
    /// cap — the event-queue analogue of an arena overflow.
    EventOverflow {
        /// The event cap that was exceeded.
        max_events: u64,
    },
}

impl fmt::Display for UnitDelayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnitDelayError::PatternWidth { expected, got } => {
                write!(
                    f,
                    "pattern width mismatch: expected {expected} bits, got {got}"
                )
            }
            UnitDelayError::NonSettling { max_steps } => write!(
                f,
                "unit-delay network failed to settle within {max_steps} steps"
            ),
            UnitDelayError::EventOverflow { max_events } => {
                write!(f, "event count exceeded the cap of {max_events}")
            }
        }
    }
}

impl Error for UnitDelayError {}

/// Result of one unit-delay transition simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnitDelayReport {
    /// Total capacitance charged across *all* rising edges.
    pub switched: Capacitance,
    /// Capacitance charged by gates whose final value differs from a rise —
    /// i.e. the part a zero-delay model cannot attribute (glitches).
    pub glitch: Capacitance,
    /// Number of simulation time steps until the circuit settled.
    pub settle_time: u32,
    /// Total number of rising edges observed.
    pub rising_edges: u32,
}

/// A compiled unit-delay simulator.
///
/// # Examples
///
/// ```
/// use charfree_netlist::benchmarks::paper_unit;
/// use charfree_sim::{UnitDelaySim, ZeroDelaySim};
///
/// let unit = paper_unit();
/// let ud = UnitDelaySim::new(&unit);
/// let zd = ZeroDelaySim::new(&unit);
/// let report = ud.simulate_transition(&[true, true], &[false, false]);
/// let zero = zd.switching_capacitance(&[true, true], &[false, false]);
/// assert!(report.switched >= zero);
/// ```
#[derive(Debug, Clone)]
pub struct UnitDelaySim {
    num_inputs: usize,
    num_signals: usize,
    gates: Vec<(CellKind, Vec<u32>, u32, f64)>,
    max_steps: u32,
    max_events: u64,
}

impl UnitDelaySim {
    /// Compiles `netlist` for unit-delay simulation.
    ///
    /// # Panics
    ///
    /// Panics if the netlist fails validation.
    pub fn new(netlist: &Netlist) -> Self {
        netlist.validate().expect("netlist must be valid");
        let mut remap = vec![u32::MAX; netlist.num_signals()];
        for (i, &sig) in netlist.inputs().iter().enumerate() {
            remap[sig.index()] = i as u32;
        }
        for (next, (_, gate)) in (netlist.num_inputs() as u32..).zip(netlist.gates()) {
            remap[gate.output().index()] = next;
        }
        let gates = netlist
            .gates()
            .map(|(_, g)| {
                (
                    g.kind(),
                    g.inputs().iter().map(|s| remap[s.index()]).collect(),
                    remap[g.output().index()],
                    g.load().femtofarads(),
                )
            })
            .collect();
        UnitDelaySim {
            num_inputs: netlist.num_inputs(),
            num_signals: netlist.num_signals(),
            gates,
            // A combinational unit-delay network settles within `depth`
            // steps; use a generous bound and report non-settlement as an
            // error rather than asserting.
            max_steps: netlist.depth() + 2,
            max_events: u64::MAX,
        }
    }

    /// Overrides the settling bound (default: netlist depth + 2).
    ///
    /// Lowering it below the true settling time makes
    /// [`try_simulate_transition`](Self::try_simulate_transition) return
    /// [`UnitDelayError::NonSettling`] — useful for exercising the error
    /// path without constructing a feedback netlist.
    #[must_use]
    pub fn with_max_steps(mut self, max_steps: u32) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// Caps the total number of value-change events per transition
    /// (default: unlimited). Exceeding it yields
    /// [`UnitDelayError::EventOverflow`].
    #[must_use]
    pub fn with_max_events(mut self, max_events: u64) -> Self {
        self.max_events = max_events;
        self
    }

    fn settle(&self, inputs: &[bool]) -> Vec<bool> {
        let mut values = vec![false; self.num_signals];
        values[..inputs.len()].copy_from_slice(inputs);
        // Zero-delay settling gives the steady state directly (gates are in
        // topological order).
        let mut pins = Vec::with_capacity(4);
        for (kind, ins, out, _) in &self.gates {
            pins.clear();
            pins.extend(ins.iter().map(|&i| values[i as usize]));
            values[*out as usize] = kind.eval(&pins);
        }
        values
    }

    /// Simulates the transition from settled state `xi` to applied inputs
    /// `xf`, stepping every gate with one unit of delay, until the network
    /// settles.
    ///
    /// Infallible convenience wrapper over
    /// [`try_simulate_transition`](Self::try_simulate_transition).
    ///
    /// # Panics
    ///
    /// Panics if pattern widths are wrong, the network does not settle, or
    /// the event cap is exceeded.
    pub fn simulate_transition(&self, xi: &[bool], xf: &[bool]) -> UnitDelayReport {
        self.try_simulate_transition(xi, xf)
            .unwrap_or_else(|e| panic!("unit-delay simulation failed: {e}"))
    }

    /// Fallible form of [`simulate_transition`](Self::simulate_transition):
    /// returns an error instead of panicking when the pattern width is
    /// wrong, the network fails to settle within the step bound (feedback
    /// or oscillation), or the value-change event count exceeds the cap.
    ///
    /// # Errors
    ///
    /// See [`UnitDelayError`].
    pub fn try_simulate_transition(
        &self,
        xi: &[bool],
        xf: &[bool],
    ) -> Result<UnitDelayReport, UnitDelayError> {
        for pattern in [xi, xf] {
            if pattern.len() != self.num_inputs {
                return Err(UnitDelayError::PatternWidth {
                    expected: self.num_inputs,
                    got: pattern.len(),
                });
            }
        }
        let mut values = self.settle(xi);
        let initial: Vec<bool> = values.clone();
        // Apply the new inputs instantaneously at t = 0.
        values[..xf.len()].copy_from_slice(xf);

        let mut switched = 0.0f64;
        let mut rising_edges = 0u32;
        let mut events = 0u64;
        let mut settled = None;
        let mut pins = Vec::with_capacity(4);
        for step in 1..=self.max_steps {
            let mut next = values.clone();
            let mut changed = false;
            for (kind, ins, out, load) in &self.gates {
                pins.clear();
                pins.extend(ins.iter().map(|&i| values[i as usize]));
                let v = kind.eval(&pins);
                let o = *out as usize;
                if v != values[o] {
                    changed = true;
                    events += 1;
                    if v {
                        switched += load;
                        rising_edges += 1;
                    }
                }
                next[o] = v;
            }
            values = next;
            if events > self.max_events {
                return Err(UnitDelayError::EventOverflow {
                    max_events: self.max_events,
                });
            }
            if !changed {
                settled = Some(step - 1);
                break;
            }
        }
        let Some(settle_time) = settled else {
            return Err(UnitDelayError::NonSettling {
                max_steps: self.max_steps,
            });
        };

        // Zero-delay attribution: gates that finally rose.
        let mut zero_delay = 0.0f64;
        for (_, _, out, load) in &self.gates {
            let o = *out as usize;
            if !initial[o] && values[o] {
                zero_delay += load;
            }
        }
        Ok(UnitDelayReport {
            switched: Capacitance(switched),
            glitch: Capacitance(switched - zero_delay),
            settle_time,
            rising_edges,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ZeroDelaySim;
    use charfree_netlist::benchmarks::{self, paper_unit};
    use charfree_netlist::Library;

    #[test]
    fn no_glitches_on_balanced_unit() {
        // The Fig. 2 unit is depth 1 — no reconvergent paths, no glitches.
        let u = paper_unit();
        let ud = UnitDelaySim::new(&u);
        let zd = ZeroDelaySim::new(&u);
        for xi_bits in 0..4u32 {
            for xf_bits in 0..4u32 {
                let xi = [xi_bits & 1 != 0, xi_bits & 2 != 0];
                let xf = [xf_bits & 1 != 0, xf_bits & 2 != 0];
                let r = ud.simulate_transition(&xi, &xf);
                assert_eq!(r.glitch, Capacitance(0.0));
                assert_eq!(r.switched, zd.switching_capacitance(&xi, &xf));
            }
        }
    }

    #[test]
    fn reconvergent_path_glitches() {
        // y = a XOR (a inverted twice) is constant 0 but glitches when a
        // rises: the direct path switches the XOR before the 2-inverter
        // path catches up.
        let n = charfree_netlist::testutil::reconvergent_glitcher(&Library::test_library());

        let ud = UnitDelaySim::new(&n);
        let r = ud.simulate_transition(&[false], &[true]);
        assert!(
            r.glitch.femtofarads() > 0.0,
            "rising input must glitch the XOR: {r:?}"
        );
        // The zero-delay model sees nothing on the XOR output (0 -> 0).
        let zd = ZeroDelaySim::new(&n);
        let z = zd.switching_capacitance(&[false], &[true]);
        assert!(r.switched > z);
    }

    #[test]
    fn unit_delay_dominates_zero_delay_everywhere() {
        let lib = Library::test_library();
        let n = benchmarks::by_name("cm85", &lib).expect("Table 1 name");
        let ud = UnitDelaySim::new(&n);
        let zd = ZeroDelaySim::new(&n);
        let mut state = 77u64;
        let mut glitchy = 0usize;
        for _ in 0..200 {
            let mut next_pattern = || -> Vec<bool> {
                (0..11)
                    .map(|_| {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        state >> 62 & 1 == 1
                    })
                    .collect()
            };
            let xi = next_pattern();
            let xf = next_pattern();
            let r = ud.simulate_transition(&xi, &xf);
            let z = zd.switching_capacitance(&xi, &xf);
            assert!(
                r.switched.femtofarads() >= z.femtofarads() - 1e-9,
                "unit-delay must dominate"
            );
            assert!(r.glitch.femtofarads() >= -1e-9);
            if r.glitch.femtofarads() > 0.0 {
                glitchy += 1;
            }
        }
        assert!(
            glitchy > 0,
            "cm85 has unbalanced paths; some glitches expected"
        );
    }

    #[test]
    fn pattern_width_mismatch_is_an_error() {
        let ud = UnitDelaySim::new(&paper_unit());
        let e = ud
            .try_simulate_transition(&[true], &[false, true])
            .expect_err("one-bit xi on a two-input unit");
        assert_eq!(
            e,
            UnitDelayError::PatternWidth {
                expected: 2,
                got: 1
            }
        );
        assert!(e.to_string().contains("expected 2 bits"));
    }

    #[test]
    fn non_settling_bound_is_an_error_not_a_panic() {
        // A 2-inverter chain needs 2 steps (+1 to observe quiescence) after
        // an input flip; a bound of 1 cannot settle it.
        let n = charfree_netlist::testutil::inverter_chain(2, &Library::test_library());

        let ud = UnitDelaySim::new(&n).with_max_steps(1);
        let e = ud
            .try_simulate_transition(&[false], &[true])
            .expect_err("bound of 1 must be exhausted");
        assert_eq!(e, UnitDelayError::NonSettling { max_steps: 1 });
        // The untightened simulator settles the same transition fine.
        let ok = UnitDelaySim::new(&n)
            .try_simulate_transition(&[false], &[true])
            .expect("default bound suffices");
        assert!(ok.settle_time <= n.depth() + 1);
    }

    #[test]
    fn event_overflow_is_an_error() {
        let lib = Library::test_library();
        let n = benchmarks::by_name("cm85", &lib).expect("Table 1 name");
        let ud = UnitDelaySim::new(&n).with_max_events(1);
        let e = ud
            .try_simulate_transition(&[false; 11], &[true; 11])
            .expect_err("an all-ones flip moves more than one signal");
        assert_eq!(e, UnitDelayError::EventOverflow { max_events: 1 });
        assert!(e.to_string().contains("cap of 1"));
    }

    #[test]
    #[should_panic(expected = "unit-delay simulation failed")]
    fn infallible_wrapper_panics_with_context() {
        let ud = UnitDelaySim::new(&paper_unit());
        let _ = ud.simulate_transition(&[true], &[false]);
    }

    #[test]
    fn settles_within_depth() {
        let lib = Library::test_library();
        let n = benchmarks::by_name("parity", &lib).expect("Table 1 name");
        let ud = UnitDelaySim::new(&n);
        let r = ud.simulate_transition(&[false; 16], &[true; 16]);
        assert!(r.settle_time <= n.depth() + 1);
    }
}
