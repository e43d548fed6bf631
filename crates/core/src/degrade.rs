//! Build failures and the graceful-degradation report.
//!
//! [`ModelBuilder::try_build`](crate::ModelBuilder::try_build) runs the
//! symbolic construction under a resource [`Budget`](charfree_dd::Budget).
//! When a limit trips, the builder does not panic or abort: it walks a
//! three-rung *degradation ladder* and keeps going with a coarser model:
//!
//! 1. **Shed partial sums** ([`DegradationRung::ShedPartialSums`]) —
//!    collapse the pending partial-sum ADDs with the configured
//!    approximation strategy, garbage-collect, and retry the failed gate.
//! 2. **Reorder variables** ([`DegradationRung::ReorderVariables`]) —
//!    run a pair-window reordering search on the largest live partial
//!    sum, permute every live diagram consistently, and retry.
//! 3. **Constant fallback** ([`DegradationRung::ConstantFallback`]) —
//!    stop symbolic construction and fold every remaining gate in as a
//!    constant equal to its load capacitance. A gate can switch at most
//!    its own load per cycle, so the result stays a valid, conservative
//!    model.
//!
//! Everything the ladder had to give up is recorded in a
//! [`DegradationReport`] attached to the returned model; strict-mode
//! builds return [`BuildError::BudgetExceeded`] at the first trip
//! instead.

use charfree_dd::{DdError, Resource};
use charfree_netlist::NetlistError;
use std::error::Error;
use std::fmt;

/// Why [`ModelBuilder::try_build`](crate::ModelBuilder::try_build)
/// failed.
#[derive(Debug)]
#[non_exhaustive]
pub enum BuildError {
    /// The netlist failed validation (cycle, undriven signal, …).
    InvalidNetlist(NetlistError),
    /// A resource budget was exhausted and the builder runs in strict
    /// mode (no degradation allowed).
    BudgetExceeded {
        /// Which resource ran out.
        resource: Resource,
        /// The configured limit for that resource.
        limit: u64,
        /// The observed value that tripped the limit.
        observed: u64,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::InvalidNetlist(e) => write!(f, "invalid netlist: {e}"),
            BuildError::BudgetExceeded {
                resource,
                limit,
                observed,
            } => write!(
                f,
                "build budget exceeded: {resource} at {observed} (limit {limit})"
            ),
        }
    }
}

impl Error for BuildError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            BuildError::InvalidNetlist(e) => Some(e),
            BuildError::BudgetExceeded { .. } => None,
        }
    }
}

impl From<DdError> for BuildError {
    fn from(e: DdError) -> Self {
        match e {
            DdError::BudgetExceeded {
                resource,
                limit,
                observed,
            } => BuildError::BudgetExceeded {
                resource,
                limit,
                observed,
            },
        }
    }
}

/// One rung of the degradation ladder, in escalation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DegradationRung {
    /// Pending partial-sum ADDs were collapsed mid-construction.
    ShedPartialSums,
    /// The diagram variable order was re-searched and every live diagram
    /// permuted.
    ReorderVariables,
    /// Remaining gates were folded in as constant load contributions
    /// (conservative upper bound); symbolic construction stopped.
    ConstantFallback,
}

impl DegradationRung {
    /// The ladder's transition function: which rung remediates the next
    /// budget trip. Extracted from the builder's gate loop so the
    /// escalation policy is unit-testable on its own:
    ///
    /// * a *terminal* trip (the wall clock — a retry would trip again
    ///   immediately) jumps straight to
    ///   [`DegradationRung::ConstantFallback`];
    /// * the first trip on a gate sheds partial sums;
    /// * the second trip escalates to a variable reorder when one is
    ///   still available (`reorder_possible`), otherwise falls back to
    ///   constants;
    /// * a gate that has already been retried three times falls back to
    ///   constants unconditionally.
    pub fn select(terminal: bool, gate_retries: usize, reorder_possible: bool) -> DegradationRung {
        if terminal || gate_retries >= 3 {
            DegradationRung::ConstantFallback
        } else if gate_retries == 1 {
            DegradationRung::ShedPartialSums
        } else if reorder_possible {
            DegradationRung::ReorderVariables
        } else {
            DegradationRung::ConstantFallback
        }
    }
}

impl fmt::Display for DegradationRung {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DegradationRung::ShedPartialSums => "shed-partial-sums",
            DegradationRung::ReorderVariables => "reorder-variables",
            DegradationRung::ConstantFallback => "constant-fallback",
        })
    }
}

/// What a budget-limited build had to give up (attached to the model via
/// [`AddPowerModel::degradation`](crate::AddPowerModel::degradation)).
#[derive(Debug, Clone, Default)]
pub struct DegradationReport {
    /// Every rung firing, in order (repeats kept — two sheds on
    /// different gates appear twice).
    pub rungs: Vec<DegradationRung>,
    /// Per-gate retry counts, as `(output signal name, retries)`, for
    /// gates that needed at least one remediation.
    pub gate_retries: Vec<(String, usize)>,
    /// The resource whose exhaustion fired the ladder first.
    pub first_trip: Option<Resource>,
    /// Number of gates folded in as constants by the last rung.
    pub gates_folded: usize,
    /// Total constant capacitance (fF) the last rung added.
    pub constant_tail_ff: f64,
    /// Final model size in nodes.
    pub final_nodes: usize,
    /// The configured live-node budget the build ran under, if any.
    pub node_budget: Option<u64>,
}

impl DegradationReport {
    /// Whether `rung` fired at least once.
    pub fn fired(&self, rung: DegradationRung) -> bool {
        self.rungs.contains(&rung)
    }

    /// Total number of rung firings.
    pub fn firings(&self) -> usize {
        self.rungs.len()
    }
}

impl fmt::Display for DegradationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut fired: Vec<String> = Vec::new();
        for rung in [
            DegradationRung::ShedPartialSums,
            DegradationRung::ReorderVariables,
            DegradationRung::ConstantFallback,
        ] {
            let count = self.rungs.iter().filter(|&&r| r == rung).count();
            if count > 0 {
                fired.push(format!("{rung} x{count}"));
            }
        }
        write!(
            f,
            "degraded build (first trip: {}): rungs [{}]",
            self.first_trip
                .map_or_else(|| "unknown".to_owned(), |r| r.to_string()),
            fired.join(", ")
        )?;
        if self.gates_folded > 0 {
            write!(
                f,
                "; {} gates folded to a {:.1} fF constant tail",
                self.gates_folded, self.constant_tail_ff
            )?;
        }
        write!(f, "; final size {} nodes", self.final_nodes)?;
        if let Some(nb) = self.node_budget {
            write!(f, " (budget {nb})")?;
        }
        for (name, retries) in &self.gate_retries {
            write!(f, "; gate {name}: {retries} retries")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_display_names_rungs_and_budget() {
        let report = DegradationReport {
            rungs: vec![
                DegradationRung::ShedPartialSums,
                DegradationRung::ShedPartialSums,
                DegradationRung::ConstantFallback,
            ],
            gate_retries: vec![("g7".to_owned(), 2)],
            first_trip: Some(Resource::LiveNodes),
            gates_folded: 3,
            constant_tail_ff: 120.0,
            final_nodes: 42,
            node_budget: Some(500),
        };
        let text = report.to_string();
        assert!(text.contains("shed-partial-sums x2"), "{text}");
        assert!(text.contains("constant-fallback x1"), "{text}");
        assert!(text.contains("live nodes"), "{text}");
        assert!(text.contains("120.0 fF"), "{text}");
        assert!(text.contains("budget 500"), "{text}");
        assert!(text.contains("g7: 2 retries"), "{text}");
        assert!(report.fired(DegradationRung::ShedPartialSums));
        assert!(!report.fired(DegradationRung::ReorderVariables));
        assert_eq!(report.firings(), 3);
    }

    /// Replays a trip sequence through [`DegradationRung::select`] the
    /// way the builder's gate loop does: each entry is one budget trip on
    /// a given gate, the per-gate retry count increments before the rung
    /// is chosen, and reorders consume the shared two-reorder allowance.
    fn replay(trips: &[(usize, bool)]) -> DegradationReport {
        let mut retries = std::collections::HashMap::new();
        let mut reorderings = 0usize;
        let mut report = DegradationReport::default();
        for &(gate, terminal) in trips {
            let r = retries.entry(gate).or_insert(0usize);
            *r += 1;
            let rung = DegradationRung::select(terminal, *r, reorderings < 2);
            if rung == DegradationRung::ReorderVariables {
                reorderings += 1;
            }
            report.rungs.push(rung);
            if rung == DegradationRung::ConstantFallback {
                break;
            }
        }
        report
    }

    #[test]
    fn ladder_escalates_shed_reorder_constant_on_one_gate() {
        // Three consecutive trips on the same gate walk the full ladder
        // in order; the report records the exact sequence.
        let report = replay(&[(0, false), (0, false), (0, false)]);
        assert_eq!(
            report.rungs,
            vec![
                DegradationRung::ShedPartialSums,
                DegradationRung::ReorderVariables,
                DegradationRung::ConstantFallback,
            ]
        );
        assert_eq!(report.firings(), 3);
    }

    #[test]
    fn ladder_restarts_at_shed_for_each_new_gate() {
        // Trips on distinct gates each get their own first-rung shed; the
        // escalation state is per gate, not global.
        let report = replay(&[(0, false), (1, false), (2, false)]);
        assert_eq!(report.rungs, vec![DegradationRung::ShedPartialSums; 3]);
        assert!(!report.fired(DegradationRung::ReorderVariables));
        assert!(!report.fired(DegradationRung::ConstantFallback));
    }

    #[test]
    fn ladder_skips_reorder_when_none_is_available() {
        // An exhausted reorder allowance cannot reorder, so the second
        // trip on a gate falls back to constants.
        assert_eq!(
            DegradationRung::select(false, 2, false),
            DegradationRung::ConstantFallback
        );
        // With the allowance spent on two earlier gates, a third gate's
        // second trip ends the build.
        let report = replay(&[
            (0, false),
            (0, false), // reorder #1
            (1, false),
            (1, false), // reorder #2
            (2, false),
            (2, false), // allowance exhausted -> constants
        ]);
        assert_eq!(
            report.rungs,
            vec![
                DegradationRung::ShedPartialSums,
                DegradationRung::ReorderVariables,
                DegradationRung::ShedPartialSums,
                DegradationRung::ReorderVariables,
                DegradationRung::ShedPartialSums,
                DegradationRung::ConstantFallback,
            ]
        );
    }

    #[test]
    fn terminal_trips_jump_straight_to_constant_fallback() {
        // Wall-clock/step exhaustion is terminal even on a gate's very
        // first trip.
        for retries in 1..=4 {
            assert_eq!(
                DegradationRung::select(true, retries, true),
                DegradationRung::ConstantFallback
            );
        }
        let report = replay(&[(0, true)]);
        assert_eq!(report.rungs, vec![DegradationRung::ConstantFallback]);
    }

    #[test]
    fn fourth_trip_on_a_gate_always_ends_symbolic_construction() {
        assert_eq!(
            DegradationRung::select(false, 4, true),
            DegradationRung::ConstantFallback
        );
        let report = replay(&[(0, false), (0, false), (0, false), (0, false)]);
        // The third trip already fell back (ladder exhausted), so the
        // replay stops there — constant fallback is absorbing.
        assert_eq!(
            report.rungs.last(),
            Some(&DegradationRung::ConstantFallback)
        );
    }

    #[test]
    fn build_error_display_and_conversion() {
        let dd = DdError::BudgetExceeded {
            resource: Resource::WallClock,
            limit: 100,
            observed: 150,
        };
        let err: BuildError = dd.into();
        let text = err.to_string();
        assert!(text.contains("wall clock"), "{text}");
        assert!(text.contains("150"), "{text}");
        assert!(err.source().is_none());
    }
}
