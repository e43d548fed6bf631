//! The accuracy-evaluation harness behind Fig. 7 and Table 1.
//!
//! Protocol (paper, Section 4): for each input-statistics operating point
//! `(sp, st)`, run concurrent RTL (model) and gate-level (golden)
//! simulations of a 10 000-vector random sequence, and compute the relative
//! error `RE(sp, st)` of the model's estimate. The **average relative
//! error** `ARE` is the mean of `RE` over all runs and "represents the
//! quality of RTL power models in terms of accuracy and robustness".
//!
//! Two protocols exist:
//!
//! * [`Protocol::AveragePower`] — `RE` compares the run-average switched
//!   capacitance (columns 4–6 of Table 1);
//! * [`Protocol::MaximumPower`] — `RE` compares the run-maximum, used to
//!   judge conservative upper bounds (columns 9–10).

use crate::model::PowerModel;
use charfree_sim::{MarkovSource, ZeroDelaySim};

/// Which per-run figure of merit `RE` compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// Run-average switched capacitance (average power accuracy).
    AveragePower,
    /// Run-maximum switched capacitance (peak power / upper-bound
    /// accuracy).
    MaximumPower,
}

/// One `(sp, st)` operating point's result.
#[derive(Debug, Clone)]
pub struct RunPoint {
    /// Target signal probability of the run.
    pub sp: f64,
    /// Target transition probability of the run.
    pub st: f64,
    /// Golden-model figure of merit (average or maximum capacitance, fF).
    pub reference: f64,
    /// Per-model estimates (same order as the models passed in).
    pub estimates: Vec<f64>,
    /// Per-model relative errors `|est − ref| / ref`.
    pub relative_errors: Vec<f64>,
}

/// A full sweep over operating points.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// Model names, in column order.
    pub model_names: Vec<String>,
    /// Per-point results.
    pub points: Vec<RunPoint>,
    /// Per-model `ARE` (mean of the per-point relative errors).
    pub are: Vec<f64>,
}

impl Evaluation {
    /// `ARE` of the model at `column`, as a percentage (Table 1 units), or
    /// `None` if `column` is not a model column of this evaluation.
    pub fn are_percent(&self, column: usize) -> Option<f64> {
        self.are.get(column).map(|a| a * 100.0)
    }
}

/// Sweeps `models` against the golden model over `grid` operating points.
///
/// Every grid point simulates one `num_vectors`-long Markov sequence (the
/// paper uses 10 000); the same sequence drives the golden model and every
/// RTL model, so the comparison is paired. Runs whose golden reference is
/// zero are skipped (no relative error is defined).
///
/// # Panics
///
/// Panics if `models` is empty, `num_vectors < 2`, or a grid point is
/// Markov-infeasible.
pub fn evaluate(
    models: &[&dyn PowerModel],
    sim: &ZeroDelaySim,
    grid: &[(f64, f64)],
    num_vectors: usize,
    protocol: Protocol,
    seed: u64,
) -> Evaluation {
    assert!(!models.is_empty(), "no models to evaluate");
    assert!(num_vectors >= 2, "need at least two vectors per run");
    let n = sim.num_inputs();
    let mut points = Vec::with_capacity(grid.len());
    let mut are = vec![0.0f64; models.len()];
    for (run, &(sp, st)) in grid.iter().enumerate() {
        let mut source =
            MarkovSource::new(n, sp, st, seed.wrapping_add(run as u64)).expect("feasible grid");
        let patterns = source.sequence(num_vectors);
        let golden = sim.switching_trace(&patterns);

        // Golden figure of merit.
        let reference = match protocol {
            Protocol::AveragePower => {
                golden.iter().map(|c| c.femtofarads()).sum::<f64>() / golden.len() as f64
            }
            Protocol::MaximumPower => golden
                .iter()
                .map(|c| c.femtofarads())
                .fold(f64::NEG_INFINITY, f64::max),
        };
        if reference == 0.0 {
            continue;
        }

        // Model estimates over the same transitions, via the batch entry
        // point (compiled-kernel models override it with a bulk path).
        let mut estimates = Vec::with_capacity(models.len());
        for model in models {
            let trace = model.capacitance_trace(&patterns);
            debug_assert_eq!(trace.len(), patterns.len() - 1);
            let mut sum = 0.0f64;
            let mut max = f64::NEG_INFINITY;
            for &c in &trace {
                sum += c;
                max = max.max(c);
            }
            estimates.push(match protocol {
                Protocol::AveragePower => sum / trace.len() as f64,
                Protocol::MaximumPower => max,
            });
        }
        let relative_errors: Vec<f64> = estimates
            .iter()
            .map(|&e| (e - reference).abs() / reference)
            .collect();
        for (a, &re) in are.iter_mut().zip(&relative_errors) {
            *a += re;
        }
        points.push(RunPoint {
            sp,
            st,
            reference,
            estimates,
            relative_errors,
        });
    }
    let runs = points.len().max(1) as f64;
    for a in &mut are {
        *a /= runs;
    }
    Evaluation {
        model_names: models.iter().map(|m| m.name().to_owned()).collect(),
        points,
        are,
    }
}

/// The Fig. 7a sweep: `RE(st)` at fixed `sp = 0.5` for
/// `st ∈ {0.05, 0.10, …, 0.95}`.
pub fn fig7a_grid() -> Vec<(f64, f64)> {
    (1..=19).map(|k| (0.5, k as f64 * 0.05)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{ConstantModel, LinearModel, TrainingSet};
    use crate::builder::ModelBuilder;
    use charfree_netlist::benchmarks;
    use charfree_netlist::Library;
    use charfree_sim::statistics_grid;

    #[test]
    fn exact_add_model_has_zero_are() {
        let lib = Library::test_library();
        let netlist = benchmarks::by_name("decod", &lib).expect("Table 1 name");
        let sim = ZeroDelaySim::new(&netlist);
        let model = ModelBuilder::new(&netlist).build();
        let eval = evaluate(
            &[&model],
            &sim,
            &statistics_grid(),
            500,
            Protocol::AveragePower,
            1,
        );
        assert!(eval.are[0] < 1e-12, "exact model, ARE={}", eval.are[0]);
        assert_eq!(eval.model_names, vec!["ADD".to_owned()]);
        assert!(!eval.points.is_empty());
    }

    #[test]
    fn out_of_sample_degradation_orders_models() {
        // The paper's headline: ADD << Lin << Con on ARE.
        let lib = Library::test_library();
        let netlist = benchmarks::by_name("cm85", &lib).expect("Table 1 name");
        let sim = ZeroDelaySim::new(&netlist);
        let training = TrainingSet::sample(&sim, 4000, 11);
        let con = ConstantModel::fit(&training);
        let lin = LinearModel::fit(&training);
        let add = ModelBuilder::new(&netlist).max_nodes(500).build();
        let eval = evaluate(
            &[&con, &lin, &add],
            &sim,
            &statistics_grid(),
            2000,
            Protocol::AveragePower,
            2,
        );
        let (con_are, lin_are, add_are) = (eval.are[0], eval.are[1], eval.are[2]);
        assert!(
            add_are < lin_are && lin_are < con_are,
            "expected ADD < Lin < Con, got {add_are:.3} {lin_are:.3} {con_are:.3}"
        );
        assert!(add_are < 0.15, "ADD should be accurate, got {add_are}");
    }

    #[test]
    fn characterized_models_are_good_in_sample_only() {
        let lib = Library::test_library();
        let netlist = benchmarks::by_name("cm85", &lib).expect("Table 1 name");
        let sim = ZeroDelaySim::new(&netlist);
        let training = TrainingSet::sample(&sim, 6000, 21);
        let lin = LinearModel::fit(&training);
        let in_sample = evaluate(
            &[&lin],
            &sim,
            &[(0.5, 0.5)],
            4000,
            Protocol::AveragePower,
            3,
        );
        let out_sample = evaluate(
            &[&lin],
            &sim,
            &[(0.5, 0.1)],
            4000,
            Protocol::AveragePower,
            3,
        );
        assert!(
            in_sample.are[0] < out_sample.are[0],
            "in-sample {} must beat out-of-sample {}",
            in_sample.are[0],
            out_sample.are[0]
        );
    }

    #[test]
    fn maximum_protocol_evaluates_bounds() {
        use crate::approx::ApproxStrategy;
        let lib = Library::test_library();
        let netlist = benchmarks::by_name("decod", &lib).expect("Table 1 name");
        let sim = ZeroDelaySim::new(&netlist);
        let bound = ModelBuilder::new(&netlist)
            .max_nodes(50)
            .strategy(ApproxStrategy::UpperBound)
            .build();
        let con_max = ConstantModel::from_capacitance(bound.max_capacitance(), "Con");
        let eval = evaluate(
            &[&con_max, &bound],
            &sim,
            &statistics_grid(),
            1000,
            Protocol::MaximumPower,
            4,
        );
        // The pattern-dependent bound must be no worse than the constant
        // worst case, and both must over- (never under-) estimate.
        assert!(eval.are[1] <= eval.are[0] + 1e-12);
        for p in &eval.points {
            assert!(p.estimates[0] >= p.reference - 1e-9);
            assert!(p.estimates[1] >= p.reference - 1e-9);
        }
    }

    #[test]
    fn fig7a_grid_shape() {
        let g = fig7a_grid();
        assert_eq!(g.len(), 19);
        assert!(g.iter().all(|&(sp, _)| sp == 0.5));
        assert!((g[0].1 - 0.05).abs() < 1e-12);
        assert!((g[18].1 - 0.95).abs() < 1e-12);
    }

    #[test]
    fn are_percent_scales() {
        let lib = Library::test_library();
        let netlist = benchmarks::by_name("decod", &lib).expect("Table 1 name");
        let sim = ZeroDelaySim::new(&netlist);
        let training = TrainingSet::sample(&sim, 1000, 5);
        let con = ConstantModel::fit(&training);
        let eval = evaluate(&[&con], &sim, &[(0.5, 0.5)], 500, Protocol::AveragePower, 6);
        let pct = eval.are_percent(0).expect("column 0 exists");
        assert!((pct - eval.are[0] * 100.0).abs() < 1e-12);
        assert!(eval.are_percent(7).is_none(), "out-of-range column is None");
    }
}
