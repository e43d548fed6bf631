//! Symbolic peak-power queries.
//!
//! The paper motivates pattern-dependent models partly through peak-power
//! analysis: "they can be used to estimate peak power as well as average
//! power dissipation". With the switched capacitance represented as an
//! ADD, peak queries become *symbolic*: the worst transitions at every
//! level are read directly off the diagram's terminals instead of being
//! hunted by simulation (which the paper notes is hopeless — the search
//! space is all `4ⁿ` pattern pairs).

use crate::model::{xf_var, xi_var, AddPowerModel};
use charfree_dd::Bdd;
use charfree_netlist::units::Capacitance;

/// A transition witness: the `(xⁱ, xᶠ)` pattern pair.
pub type Transition = (Vec<bool>, Vec<bool>);

/// One level of the model's switched-capacitance spectrum.
#[derive(Debug, Clone)]
pub struct PeakLevel {
    /// The capacitance value of this level.
    pub capacitance: Capacitance,
    /// Number of `(xⁱ, xᶠ)` transitions attaining exactly this value.
    pub count: f64,
    /// One witness transition attaining it.
    pub witness: (Vec<bool>, Vec<bool>),
}

impl AddPowerModel {
    /// The `k` highest capacitance levels of the model, descending, each
    /// with its exact transition count and a witness pattern pair.
    ///
    /// For an exact model this is the true peak spectrum of the macro; for
    /// an upper-bound model it is a conservative spectrum (every true
    /// transition cost is dominated). Runs in `O(k · |model|)`.
    ///
    /// # Examples
    ///
    /// ```
    /// use charfree_core::ModelBuilder;
    /// use charfree_netlist::benchmarks::paper_unit;
    ///
    /// let model = ModelBuilder::new(&paper_unit()).build();
    /// let spectrum = model.peak_spectrum(2);
    /// assert_eq!(spectrum[0].capacitance.femtofarads(), 90.0);
    /// assert_eq!(spectrum[0].count, 1.0); // only 11 -> 00 switches both inverters
    /// ```
    pub fn peak_spectrum(&self, k: usize) -> Vec<PeakLevel> {
        let mut m = self.manager.clone();
        let mut values = m.terminal_values(self.root.node());
        values.reverse(); // descending
        let mut out = Vec::with_capacity(k.min(values.len()));
        for value in values.into_iter().take(k) {
            let level: Bdd = m.add_threshold(self.root, |v| v == value);
            let count = m.sat_count(level);
            let assignment = m.pick_sat(level).expect("level set is non-empty");
            let witness = self.split_assignment(&assignment);
            out.push(PeakLevel {
                capacitance: Capacitance(value),
                count,
                witness,
            });
        }
        out
    }

    /// All transitions whose predicted capacitance is at least
    /// `threshold`, returned as an exact count plus up to `max_witnesses`
    /// sample transitions.
    ///
    /// Useful for power-integrity sign-off: "which vectors can draw more
    /// than X?" is a symbolic query, not a simulation campaign.
    pub fn transitions_above(
        &self,
        threshold: Capacitance,
        max_witnesses: usize,
    ) -> (f64, Vec<Transition>) {
        let mut m = self.manager.clone();
        let level = m.add_threshold(self.root, |v| v >= threshold.femtofarads());
        let count = m.sat_count(level);
        let mut witnesses = Vec::new();
        let mut remaining = level;
        for _ in 0..max_witnesses {
            match m.pick_sat(remaining) {
                None => break,
                Some(assignment) => {
                    witnesses.push(self.split_assignment(&assignment));
                    // Exclude this exact assignment and continue.
                    let mut cube = m.bdd_true();
                    for (v, &bit) in assignment.iter().enumerate() {
                        let var = m.bdd_var(charfree_dd::Var(v as u32));
                        let lit = if bit { var } else { m.bdd_not(var) };
                        cube = m.bdd_and(cube, lit);
                    }
                    remaining = m.bdd_diff(remaining, cube);
                }
            }
        }
        (count, witnesses)
    }

    fn split_assignment(&self, assignment: &[bool]) -> (Vec<bool>, Vec<bool>) {
        let n = self.num_inputs;
        let mut xi = vec![false; n];
        let mut xf = vec![false; n];
        for i in 0..n {
            let slot = self.input_slots[i];
            xi[i] = assignment[xi_var(slot).index() as usize];
            xf[i] = assignment[xf_var(slot).index() as usize];
        }
        (xi, xf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModelBuilder;
    use crate::model::PowerModel;
    use crate::ApproxStrategy;
    use charfree_netlist::benchmarks::{self, paper_unit};
    use charfree_netlist::Library;
    use charfree_sim::{ExhaustivePairs, ZeroDelaySim};

    #[test]
    fn spectrum_matches_exhaustive_enumeration() {
        let library = Library::test_library();
        let netlist = benchmarks::by_name("decod", &library).expect("Table 1 name");
        let model = ModelBuilder::new(&netlist).build();
        let sim = ZeroDelaySim::new(&netlist);

        // Brute-force the value histogram.
        let mut histogram: std::collections::BTreeMap<u64, usize> = Default::default();
        for (xi, xf) in ExhaustivePairs::new(5) {
            let c = sim.switching_capacitance(&xi, &xf).femtofarads();
            *histogram.entry(c.to_bits()).or_insert(0) += 1;
        }
        let mut want: Vec<(f64, usize)> = histogram
            .into_iter()
            .map(|(bits, count)| (f64::from_bits(bits), count))
            .collect();
        want.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite"));

        let spectrum = model.peak_spectrum(4);
        assert_eq!(spectrum.len(), 4);
        for (level, (value, count)) in spectrum.iter().zip(want) {
            assert_eq!(level.capacitance.femtofarads(), value);
            assert_eq!(level.count, count as f64);
            // The witness must actually attain the level.
            assert_eq!(
                sim.switching_capacitance(&level.witness.0, &level.witness.1)
                    .femtofarads(),
                value
            );
        }
    }

    #[test]
    fn paper_unit_peak_is_90() {
        let model = ModelBuilder::new(&paper_unit()).build();
        let spectrum = model.peak_spectrum(16);
        assert_eq!(spectrum[0].capacitance.femtofarads(), 90.0);
        assert_eq!(spectrum[0].count, 1.0);
        assert_eq!(spectrum[0].witness.0, vec![true, true]);
        assert_eq!(spectrum[0].witness.1, vec![false, false]);
        // Counts across all levels must cover the full 4^2 space.
        let total: f64 = spectrum.iter().map(|l| l.count).sum();
        assert_eq!(total, 16.0);
    }

    #[test]
    fn transitions_above_threshold() {
        let model = ModelBuilder::new(&paper_unit()).build();
        let (count, witnesses) = model.transitions_above(Capacitance(50.0), 8);
        // Fig. 2b rows with C >= 50: one at 90 fF (11 -> 00) and three at
        // 50 fF (01 -> 00, 11 -> 10, 01 -> 10).
        assert_eq!(count, 4.0);
        assert_eq!(witnesses.len(), 4);
        let sim = ZeroDelaySim::new(&paper_unit());
        for (xi, xf) in &witnesses {
            assert!(sim.switching_capacitance(xi, xf).femtofarads() >= 50.0);
        }
        // Distinct witnesses.
        let unique: std::collections::HashSet<_> = witnesses.iter().collect();
        assert_eq!(unique.len(), 4);
    }

    #[test]
    fn upper_bound_spectrum_dominates() {
        let library = Library::test_library();
        let netlist = benchmarks::by_name("decod", &library).expect("Table 1 name");
        let bound = ModelBuilder::new(&netlist)
            .max_nodes(60)
            .strategy(ApproxStrategy::UpperBound)
            .build();
        let sim = ZeroDelaySim::new(&netlist);
        // Every transition above the bound's second level according to the
        // SIMULATOR must also sit above it according to the bound.
        let spectrum = bound.peak_spectrum(2);
        let threshold = spectrum[1].capacitance;
        for (xi, xf) in ExhaustivePairs::new(5) {
            let truth = sim.switching_capacitance(&xi, &xf);
            if truth > threshold {
                assert!(bound.capacitance(&xi, &xf) >= truth);
            }
        }
    }
}
