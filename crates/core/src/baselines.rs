//! Characterization-based baseline models (`Con` and `Lin` of Section 4)
//! and the simulation-driven characterization procedure they require.
//!
//! These are exactly what the paper argues *against*: black-box models
//! tuned to fit a sample of gate-level power measurements. They are needed
//! to reproduce every comparison in Fig. 7 and Table 1.

use crate::linalg::least_squares;
use crate::model::PowerModel;
use charfree_netlist::units::Capacitance;
use charfree_sim::{MarkovSource, ZeroDelaySim};

/// A characterization sample: observed transitions and their gate-level
/// switched capacitances.
#[derive(Debug, Clone)]
pub struct TrainingSet {
    /// The simulated input patterns (length `T`).
    pub patterns: Vec<Vec<bool>>,
    /// Per-transition switched capacitance from the golden model
    /// (length `T − 1`, entry `t` is for `patterns[t] → patterns[t+1]`).
    pub switched: Vec<Capacitance>,
}

impl TrainingSet {
    /// Characterizes against `sim` with the paper's protocol: a random
    /// sequence with 0.5 average signal and transition probabilities.
    ///
    /// # Panics
    ///
    /// Panics if `length < 2`.
    pub fn sample(sim: &ZeroDelaySim, length: usize, seed: u64) -> Self {
        Self::sample_with_statistics(sim, length, 0.5, 0.5, seed)
    }

    /// Characterizes with explicit `(sp, st)` input statistics.
    ///
    /// # Panics
    ///
    /// Panics if `length < 2` or the statistics are infeasible.
    pub fn sample_with_statistics(
        sim: &ZeroDelaySim,
        length: usize,
        sp: f64,
        st: f64,
        seed: u64,
    ) -> Self {
        assert!(length >= 2, "need at least two patterns");
        let mut source =
            MarkovSource::new(sim.num_inputs(), sp, st, seed).expect("feasible statistics");
        let patterns = source.sequence(length);
        let switched = sim.switching_trace(&patterns);
        TrainingSet { patterns, switched }
    }

    /// Number of observed transitions.
    pub fn len(&self) -> usize {
        self.switched.len()
    }

    /// `true` if the sample has no transitions.
    pub fn is_empty(&self) -> bool {
        self.switched.is_empty()
    }

    /// Mean observed switched capacitance.
    pub fn mean(&self) -> Capacitance {
        Capacitance(self.switched.iter().map(|c| c.femtofarads()).sum::<f64>() / self.len() as f64)
    }

    /// Largest observed switched capacitance.
    pub fn max(&self) -> Capacitance {
        Capacitance(
            self.switched
                .iter()
                .map(|c| c.femtofarads())
                .fold(f64::NEG_INFINITY, f64::max),
        )
    }
}

/// `Con`: the constant estimator — predicts the same capacitance for every
/// transition.
///
/// Characterized as the sample mean ([`ConstantModel::fit`]); the
/// upper-bound variant uses a maximum instead
/// ([`ConstantModel::from_capacitance`] with a model max, per the paper:
/// "as a constant estimator we used the maximum value of the
/// pattern-dependent upper bound").
#[derive(Debug, Clone, PartialEq)]
pub struct ConstantModel {
    value: Capacitance,
    display_name: String,
}

impl ConstantModel {
    /// Fits the constant to the sample mean.
    pub fn fit(training: &TrainingSet) -> Self {
        ConstantModel {
            value: training.mean(),
            display_name: "Con".to_owned(),
        }
    }

    /// Wraps a fixed capacitance (e.g. a worst-case constant).
    pub fn from_capacitance(value: Capacitance, name: impl Into<String>) -> Self {
        ConstantModel {
            value,
            display_name: name.into(),
        }
    }

    /// The constant prediction.
    pub fn value(&self) -> Capacitance {
        self.value
    }
}

impl PowerModel for ConstantModel {
    fn capacitance(&self, _xi: &[bool], _xf: &[bool]) -> Capacitance {
        self.value
    }

    fn name(&self) -> &str {
        &self.display_name
    }
}

/// `Lin`: the linear estimator
/// `C = c₀ + c₁·a₁ + … + c_n·a_n` with `a_j = x_jⁱ ⊕ x_jᶠ`
/// (one indicator per toggling input), least-squares characterized.
///
/// # Examples
///
/// ```
/// use charfree_core::{LinearModel, PowerModel, TrainingSet};
/// use charfree_netlist::benchmarks::paper_unit;
/// use charfree_sim::ZeroDelaySim;
///
/// let sim = ZeroDelaySim::new(&paper_unit());
/// let training = TrainingSet::sample(&sim, 2000, 7);
/// let lin = LinearModel::fit(&training);
/// let c = lin.capacitance(&[true, true], &[false, false]);
/// assert!(c.femtofarads() > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LinearModel {
    /// `[c₀, c₁, …, c_n]`.
    coefficients: Vec<f64>,
    display_name: String,
}

impl LinearModel {
    /// Least-squares fit of the `n + 1` coefficients on the sample.
    ///
    /// # Panics
    ///
    /// Panics if the training set is empty.
    pub fn fit(training: &TrainingSet) -> Self {
        assert!(!training.is_empty(), "empty training set");
        let n = training.patterns[0].len();
        let rows: Vec<Vec<f64>> = training
            .switched
            .iter()
            .enumerate()
            .map(|(t, _)| {
                let mut row = Vec::with_capacity(n + 1);
                row.push(1.0);
                for j in 0..n {
                    let toggled = training.patterns[t][j] != training.patterns[t + 1][j];
                    row.push(if toggled { 1.0 } else { 0.0 });
                }
                row
            })
            .collect();
        let y: Vec<f64> = training.switched.iter().map(|c| c.femtofarads()).collect();
        LinearModel {
            coefficients: least_squares(&rows, &y),
            display_name: "Lin".to_owned(),
        }
    }

    /// The fitted coefficients `[c₀, c₁, …, c_n]`.
    pub fn coefficients(&self) -> &[f64] {
        &self.coefficients
    }
}

impl PowerModel for LinearModel {
    /// The linear prediction. Unconstrained least squares can undershoot
    /// below zero out-of-sample; the raw value is returned, as in the
    /// paper's formulation.
    fn capacitance(&self, xi: &[bool], xf: &[bool]) -> Capacitance {
        assert_eq!(
            xi.len() + 1,
            self.coefficients.len(),
            "pattern width mismatch"
        );
        let mut c = self.coefficients[0];
        for j in 0..xi.len() {
            if xi[j] != xf[j] {
                c += self.coefficients[j + 1];
            }
        }
        Capacitance(c)
    }

    fn name(&self) -> &str {
        &self.display_name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use charfree_netlist::benchmarks::paper_unit;
    use charfree_netlist::{benchmarks, Library};
    use charfree_sim::ExhaustivePairs;

    #[test]
    fn training_set_statistics() {
        let sim = ZeroDelaySim::new(&paper_unit());
        let t = TrainingSet::sample(&sim, 1000, 1);
        assert_eq!(t.len(), 999);
        assert!(!t.is_empty());
        assert!(t.mean().femtofarads() > 0.0);
        assert!(t.max() >= t.mean());
        // 100 fF is the absolute worst case (all three gates rise).
        assert!(t.max().femtofarads() <= 100.0);
    }

    #[test]
    fn constant_model_predicts_sample_mean() {
        let sim = ZeroDelaySim::new(&paper_unit());
        let t = TrainingSet::sample(&sim, 2000, 2);
        let con = ConstantModel::fit(&t);
        assert_eq!(con.name(), "Con");
        assert_eq!(con.value(), t.mean());
        assert_eq!(
            con.capacitance(&[false, false], &[true, true]),
            con.capacitance(&[true, true], &[false, false]),
        );
    }

    #[test]
    fn linear_model_learns_additive_structure() {
        // On a circuit whose switched capacitance is close to
        // additive-in-toggles (the parity tree, in-sample), Lin should beat
        // Con on its own training data.
        let lib = Library::test_library();
        let netlist = benchmarks::by_name("parity", &lib).expect("Table 1 name");
        let sim = ZeroDelaySim::new(&netlist);
        let t = TrainingSet::sample(&sim, 4000, 3);
        let con = ConstantModel::fit(&t);
        let lin = LinearModel::fit(&t);
        let rss = |model: &dyn PowerModel| -> f64 {
            t.switched
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    let p = model
                        .capacitance(&t.patterns[i], &t.patterns[i + 1])
                        .femtofarads();
                    (p - c.femtofarads()).powi(2)
                })
                .sum()
        };
        assert!(rss(&lin) < rss(&con), "Lin must fit better in-sample");
        assert_eq!(lin.coefficients().len(), 17);
    }

    #[test]
    fn linear_model_exact_on_truly_linear_circuit() {
        // The paper unit: C = 40·[x1 falls] + 50·[x2 falls] + 10·[or rises]
        // is not linear in toggles, but a bank of independent inverters is.
        let mut n = charfree_netlist::Netlist::new("invbank");
        let lib = Library::test_library();
        for i in 0..4 {
            let x = n.add_input(format!("x{i}")).expect("fresh");
            let y = n
                .add_gate(charfree_netlist::CellKind::Inv, &[x])
                .expect("ok");
            n.mark_output(y).expect("ok");
        }
        n.annotate_loads(&lib);
        let sim = ZeroDelaySim::new(&n);
        let t = TrainingSet::sample(&sim, 4000, 5);
        let lin = LinearModel::fit(&t);
        // An inverter output rises exactly when its input falls; over a
        // random toggle the expectation is load/2 per toggle... but the
        // *pattern-dependent* truth is not a function of toggles alone
        // (direction matters), so we only check aggregate behavior: the
        // fitted toggle weight should approximate half the inverter load.
        let load = n.gate(n.driver(n.outputs()[0]).expect("driven")).load();
        for j in 1..=4 {
            assert!(
                (lin.coefficients()[j] - load.femtofarads() / 2.0).abs() < load.femtofarads() * 0.2,
                "coefficient {j} = {}",
                lin.coefficients()[j]
            );
        }
    }

    #[test]
    fn exhaustive_error_of_baselines_is_nonzero() {
        // Neither baseline can be exact on the paper unit: pattern
        // dependence is richer than toggles.
        let sim = ZeroDelaySim::new(&paper_unit());
        let t = TrainingSet::sample(&sim, 4000, 8);
        let con = ConstantModel::fit(&t);
        let lin = LinearModel::fit(&t);
        let mut worst_con = 0.0f64;
        let mut worst_lin = 0.0f64;
        for (xi, xf) in ExhaustivePairs::new(2) {
            let truth = sim.switching_capacitance(&xi, &xf).femtofarads();
            worst_con = worst_con.max((con.capacitance(&xi, &xf).femtofarads() - truth).abs());
            worst_lin = worst_lin.max((lin.capacitance(&xi, &xf).femtofarads() - truth).abs());
        }
        assert!(worst_con > 1.0);
        assert!(worst_lin > 1.0);
    }

    #[test]
    fn from_capacitance_names_and_values() {
        let c = ConstantModel::from_capacitance(Capacitance(123.0), "Con-max");
        assert_eq!(c.name(), "Con-max");
        assert_eq!(c.capacitance(&[], &[]).femtofarads(), 123.0);
    }
}
