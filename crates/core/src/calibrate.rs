//! Analytic terminal recalibration.
//!
//! Node collapsing replaces sub-functions with constants, which flattens
//! the model's response to input statistics: under a transition measure
//! with toggle rate `t`, the approximated model acquires a systematic bias
//! `B(t) = E_t[model] − E_t[exact]` (positive at low activity, negative at
//! high activity). Both sides of that bias are *analytically* computable —
//! `E_t[model]` from the model ADD's measured profile, `E_t[exact]` from
//! the per-gate rising-condition BDDs as `Σⱼ Cⱼ·P_t(riseⱼ)` — so the bias
//! can be cancelled **without any simulation**, in keeping with the
//! paper's characterization-free premise.
//!
//! The correction only changes terminal *values* (never the diagram
//! structure, so the node budget is untouched): it minimizes
//!
//! ```text
//! λ·Σ_ℓ r_ℓ·δ_ℓ²  +  Σ_t w_t·(B_t + Σ_ℓ q_t(ℓ)·δ_ℓ)²
//! ```
//!
//! over per-terminal shifts `δ_ℓ`, where `q_t(ℓ)` is terminal `ℓ`'s reach
//! probability under measure `t` and `r_ℓ` its mixture reach. The zero
//! terminal is pinned (the no-transition diagonal stays exactly zero) and
//! shifted values are clamped non-negative. This is an extension over the
//! paper (see DESIGN.md §5) and applies to average-accuracy models only —
//! an upper bound must never be lowered.

use charfree_dd::hash::FxHashMap;
use charfree_dd::{Add, ChainMeasure, Manager};

/// Per-measure analytic means of the golden model, accumulated during
/// construction: `exact_means[t] = Σⱼ Cⱼ·P_t(riseⱼ)`.
#[derive(Debug, Clone)]
pub(crate) struct ExactMeans(pub Vec<f64>);

/// Shifts the terminal values of `model` to cancel the per-measure mean
/// bias against `exact` (see module docs). Returns the recalibrated ADD.
///
/// `ridge` (λ) trades pointwise fidelity for bias cancellation; `0.05` is
/// a robust default.
pub(crate) fn recalibrate_leaves(
    m: &mut Manager,
    model: Add,
    mixture: &[(ChainMeasure, f64)],
    exact_means: &ExactMeans,
    ridge: f64,
) -> Add {
    assert_eq!(mixture.len(), exact_means.0.len(), "measure count mismatch");
    let t_count = mixture.len();
    if model.node().is_terminal() && m.terminal_value(model.node()) == 0.0 {
        return model;
    }

    // Reach of every terminal under every measure, and the model means,
    // summed over terminals in ascending value order.
    let snap = m.snapshot(model);
    let measures: Vec<&ChainMeasure> = mixture.iter().map(|(measure, _)| measure).collect();
    let profile = snap.profile(&measures);
    let values = snap.terminal_values();
    let bias: Vec<f64> = (0..t_count)
        .map(|t| {
            let mut model_mean = 0.0f64;
            for (j, &v) in values.iter().enumerate() {
                model_mean += profile.terminal_reach(j, t) * v;
            }
            model_mean - exact_means.0[t]
        })
        .collect();

    // All adjustable terminals: non-zero values reached under some measure.
    let terminals: Vec<usize> = (0..values.len())
        .filter(|&j| values[j] != 0.0 && (0..t_count).any(|t| profile.terminal_reach(j, t) > 0.0))
        .collect();
    if terminals.is_empty() {
        return model;
    }
    // q[t][l]: reach of adjustable terminal l under measure t.
    let q: Vec<Vec<f64>> = (0..t_count)
        .map(|t| {
            terminals
                .iter()
                .map(|&j| profile.terminal_reach(j, t))
                .collect()
        })
        .collect();

    // Mixture reach r_ℓ.
    let weights: Vec<f64> = mixture.iter().map(|&(_, w)| w).collect();
    let r: Vec<f64> = (0..terminals.len())
        .map(|l| {
            weights
                .iter()
                .zip(&q)
                .map(|(w, qt)| w * qt[l])
                .sum::<f64>()
                .max(1e-12)
        })
        .collect();

    // Solve (I + M/λ)·u = B with M[s][t] = w_t·Σ_ℓ q_s(ℓ)q_t(ℓ)/r_ℓ.
    let mut system: Vec<Vec<f64>> = vec![vec![0.0; t_count]; t_count];
    for s in 0..t_count {
        for t in 0..t_count {
            let mut acc = 0.0;
            for l in 0..terminals.len() {
                acc += q[s][l] * q[t][l] / r[l];
            }
            system[s][t] = weights[t] * acc / ridge + if s == t { 1.0 } else { 0.0 };
        }
    }
    let u = crate::linalg::least_squares(&system, &bias);

    // δ_ℓ = −(1/λ r_ℓ)·Σ_t w_t q_t(ℓ) u_t, then clamp values at zero.
    let mut new_value: FxHashMap<u64, f64> = FxHashMap::default();
    for (l, &j) in terminals.iter().enumerate() {
        let mut shift = 0.0;
        for t in 0..t_count {
            shift += weights[t] * q[t][l] * u[t];
        }
        let delta = -shift / (ridge * r[l]);
        let old = values[j];
        new_value.insert(old.to_bits(), (old + delta).max(0.0));
    }
    m.add_map_terminals(model, |v| new_value.get(&v.to_bits()).copied().unwrap_or(v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use charfree_dd::Var;

    /// A two-pair transition space with a hand-made biased model.
    #[test]
    fn recalibration_reduces_mean_bias() {
        let pairs = 2u32;
        let mut m = Manager::new(2 * pairs);
        // "Exact" function: 10 per toggled input.
        let mut exact = m.add_zero();
        for k in 0..pairs {
            let a = m.bdd_var(Var(2 * k));
            let b = m.bdd_var(Var(2 * k + 1));
            let t = m.bdd_xor(a, b);
            let d = m.add_scale(t.as_add(), 10.0);
            exact = m.add_plus(exact, d);
        }
        // Model: only tracks the first pair, second contributes its
        // uniform average (5) unconditionally off-diagonal — biased.
        let a = m.bdd_var(Var(0));
        let b = m.bdd_var(Var(1));
        let t0 = m.bdd_xor(a, b);
        let c10 = m.add_scale(t0.as_add(), 10.0);
        let c5 = m.constant(5.0);
        let model = m.add_plus(c10, c5);

        let toggles = [0.1, 0.5, 0.9];
        let mixture: Vec<(ChainMeasure, f64)> = toggles
            .iter()
            .map(|&t| {
                (
                    ChainMeasure::interleaved_transitions(pairs, 0.5, t),
                    1.0 / 3.0,
                )
            })
            .collect();
        let exact_means = ExactMeans(
            mixture
                .iter()
                .map(|(measure, _)| m.snapshot(exact).means(&[measure])[0])
                .collect(),
        );

        let bias_of = |m: &Manager, f: Add| -> Vec<f64> {
            mixture
                .iter()
                .zip(&exact_means.0)
                .map(|((measure, _), &em)| m.snapshot(f).means(&[measure])[0] - em)
                .collect()
        };
        let before = bias_of(&m, model);
        let recal = recalibrate_leaves(&mut m, model, &mixture, &exact_means, 0.05);
        let after = bias_of(&m, recal);
        let norm = |b: &[f64]| b.iter().map(|x| x * x).sum::<f64>();
        assert!(
            norm(&after) < norm(&before) * 0.2,
            "bias must shrink: {before:?} -> {after:?}"
        );
    }

    #[test]
    fn zero_terminal_is_pinned() {
        let mut m = Manager::new(2);
        let a = m.bdd_var(Var(0));
        let b = m.bdd_var(Var(1));
        let t = m.bdd_xor(a, b);
        let model = m.add_scale(t.as_add(), 8.0);
        let mixture = vec![(ChainMeasure::interleaved_transitions(1, 0.5, 0.3), 1.0)];
        let exact_means = ExactMeans(vec![0.3 * 10.0]);
        let recal = recalibrate_leaves(&mut m, model, &mixture, &exact_means, 0.05);
        // Diagonal (no toggle) must stay exactly zero.
        assert_eq!(m.add_eval(recal, &[false, false]), 0.0);
        assert_eq!(m.add_eval(recal, &[true, true]), 0.0);
        // The 8.0 leaf moves toward 10.0.
        let toggled = m.add_eval(recal, &[true, false]);
        assert!(toggled > 8.0 && toggled <= 10.5, "got {toggled}");
    }

    #[test]
    fn constant_zero_model_is_untouched() {
        let mut m = Manager::new(2);
        let model = m.add_zero();
        let mixture = vec![(ChainMeasure::interleaved_transitions(1, 0.5, 0.3), 1.0)];
        let exact_means = ExactMeans(vec![1.0]);
        let recal = recalibrate_leaves(&mut m, model, &mixture, &exact_means, 0.05);
        assert_eq!(recal, model);
    }
}
