//! The look-up-table baseline of Gupta & Najm (the paper's reference [5]).
//!
//! `Lut` is the strongest *characterized* competitor the paper discusses:
//! a table of constant estimators pre-characterized under different
//! input-activity conditions. This implementation buckets transitions by
//! their input Hamming activity (number of toggling inputs) and, within an
//! activity bucket, by the signal weight of the destination pattern —
//! a 2-D table in the spirit of [5]'s (input density, output density)
//! binning that works at the pattern level.
//!
//! Like `Con` and `Lin` it is simulation-characterized, so it inherits
//! their out-of-sample fragility: buckets that the training statistics
//! rarely visit carry unreliable constants (they fall back to marginal or
//! global means). It is included to make the comparison set of Section 4
//! complete and to show that even a richer characterized model does not
//! reach the analytical model's robustness.

use crate::baselines::TrainingSet;
use crate::model::PowerModel;
use charfree_netlist::units::Capacitance;

/// A two-dimensional look-up-table power model characterized from
/// simulation (the paper's reference \[5\] family).
///
/// # Examples
///
/// ```
/// use charfree_core::{LutModel, PowerModel, TrainingSet};
/// use charfree_netlist::benchmarks::paper_unit;
/// use charfree_sim::ZeroDelaySim;
///
/// let sim = ZeroDelaySim::new(&paper_unit());
/// let training = TrainingSet::sample(&sim, 2000, 7);
/// let lut = LutModel::fit(&training, 4);
/// let c = lut.capacitance(&[true, true], &[false, false]);
/// assert!(c.femtofarads() >= 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct LutModel {
    num_inputs: usize,
    /// Signal-weight buckets per activity class.
    weight_buckets: usize,
    /// `table[toggles][weight_bucket]` = (sum, count).
    table: Vec<Vec<(f64, u32)>>,
    /// Per-activity marginal means (fallback for empty cells).
    activity_marginal: Vec<(f64, u32)>,
    /// Global mean (fallback of last resort).
    global_mean: f64,
    display_name: String,
}

impl LutModel {
    /// Characterizes the table on `training`, with `weight_buckets`
    /// signal-weight bins per activity class.
    ///
    /// # Panics
    ///
    /// Panics if the training set is empty or `weight_buckets == 0`.
    pub fn fit(training: &TrainingSet, weight_buckets: usize) -> Self {
        assert!(!training.is_empty(), "empty training set");
        assert!(weight_buckets >= 1, "need at least one weight bucket");
        let num_inputs = training.patterns[0].len();
        let mut table = vec![vec![(0.0f64, 0u32); weight_buckets]; num_inputs + 1];
        let mut activity_marginal = vec![(0.0f64, 0u32); num_inputs + 1];
        let mut total = 0.0f64;
        for (t, c) in training.switched.iter().enumerate() {
            let (a, w) = Self::classify(
                &training.patterns[t],
                &training.patterns[t + 1],
                num_inputs,
                weight_buckets,
            );
            let cell = &mut table[a][w];
            cell.0 += c.femtofarads();
            cell.1 += 1;
            activity_marginal[a].0 += c.femtofarads();
            activity_marginal[a].1 += 1;
            total += c.femtofarads();
        }
        LutModel {
            num_inputs,
            weight_buckets,
            table,
            activity_marginal,
            global_mean: total / training.len() as f64,
            display_name: "LUT".to_owned(),
        }
    }

    fn classify(
        xi: &[bool],
        xf: &[bool],
        num_inputs: usize,
        weight_buckets: usize,
    ) -> (usize, usize) {
        let toggles = xi.iter().zip(xf).filter(|(a, b)| a != b).count();
        let weight = xf.iter().filter(|&&b| b).count();
        let bucket = (weight * weight_buckets / (num_inputs + 1)).min(weight_buckets - 1);
        (toggles, bucket)
    }

    /// Number of table cells that received at least one training sample.
    pub fn populated_cells(&self) -> usize {
        self.table
            .iter()
            .flatten()
            .filter(|(_, count)| *count > 0)
            .count()
    }

    /// Total number of table cells.
    pub fn num_cells(&self) -> usize {
        (self.num_inputs + 1) * self.weight_buckets
    }
}

impl PowerModel for LutModel {
    fn capacitance(&self, xi: &[bool], xf: &[bool]) -> Capacitance {
        assert_eq!(xi.len(), self.num_inputs, "pattern width mismatch");
        let (a, w) = Self::classify(xi, xf, self.num_inputs, self.weight_buckets);
        let (sum, count) = self.table[a][w];
        if count > 0 {
            return Capacitance(sum / f64::from(count));
        }
        let (msum, mcount) = self.activity_marginal[a];
        if mcount > 0 {
            return Capacitance(msum / f64::from(mcount));
        }
        Capacitance(self.global_mean)
    }

    fn name(&self) -> &str {
        &self.display_name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{ConstantModel, LinearModel};
    use crate::eval::{evaluate, Protocol};
    use charfree_netlist::{benchmarks, Library};
    use charfree_sim::{statistics_grid, ZeroDelaySim};

    #[test]
    fn zero_toggle_bucket_learns_zero() {
        // Transitions with no toggles always switch nothing; the LUT's
        // activity-0 row must learn exactly that.
        let library = Library::test_library();
        let netlist = benchmarks::by_name("decod", &library).expect("Table 1 name");
        let sim = ZeroDelaySim::new(&netlist);
        let training = TrainingSet::sample_with_statistics(&sim, 4000, 0.5, 0.2, 3);
        let lut = LutModel::fit(&training, 3);
        let xi = [true, false, true, false, true];
        assert_eq!(lut.capacitance(&xi, &xi).femtofarads(), 0.0);
    }

    #[test]
    fn lut_beats_con_in_sample_and_tracks_activity() {
        let library = Library::test_library();
        let netlist = benchmarks::by_name("cm85", &library).expect("Table 1 name");
        let sim = ZeroDelaySim::new(&netlist);
        let training = TrainingSet::sample(&sim, 8000, 4);
        let con = ConstantModel::fit(&training);
        let lut = LutModel::fit(&training, 4);
        let rss = |model: &dyn PowerModel| -> f64 {
            training
                .switched
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    let p = model
                        .capacitance(&training.patterns[i], &training.patterns[i + 1])
                        .femtofarads();
                    (p - c.femtofarads()).powi(2)
                })
                .sum()
        };
        assert!(rss(&lut) < rss(&con), "LUT must fit better in-sample");
        assert!(lut.populated_cells() > 4);
        assert!(lut.populated_cells() <= lut.num_cells());
    }

    #[test]
    fn lut_is_more_robust_than_con_but_not_analytical() {
        // Shape check for the extended comparison: the LUT generalizes
        // better than Con (its activity binning extrapolates), yet the
        // analytical ADD model still dominates.
        let library = Library::test_library();
        let netlist = benchmarks::by_name("cm85", &library).expect("Table 1 name");
        let sim = ZeroDelaySim::new(&netlist);
        let training = TrainingSet::sample(&sim, 8000, 4);
        let con = ConstantModel::fit(&training);
        let lin = LinearModel::fit(&training);
        let lut = LutModel::fit(&training, 4);
        // An exact analytical model: the comparison must not hinge on how
        // much a particular approximation budget happens to cost under a
        // particular sampling stream.
        let add = crate::builder::ModelBuilder::new(&netlist).build();
        let eval = evaluate(
            &[&con, &lin, &lut, &add],
            &sim,
            &statistics_grid(),
            2000,
            Protocol::AveragePower,
            9,
        );
        let (con_are, _lin_are, lut_are, add_are) =
            (eval.are[0], eval.are[1], eval.are[2], eval.are[3]);
        assert!(lut_are < con_are, "LUT generalizes better than Con");
        assert!(add_are < lut_are, "the analytical model still wins");
    }

    #[test]
    #[should_panic(expected = "empty training set")]
    fn empty_training_rejected() {
        let t = TrainingSet {
            patterns: vec![],
            switched: vec![],
        };
        let _ = LutModel::fit(&t, 4);
    }
}
