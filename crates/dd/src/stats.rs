//! Per-node statistics of the discrete functions represented by ADD nodes,
//! and the input measures they are taken under.
//!
//! These are the quantities the paper computes "in linear time during a
//! traversal of the ADD" (Section 3): for every node `n`, the average,
//! variance, and maximum of the sub-function rooted at `n`. The traversal
//! itself is [`Snapshot::profile`](crate::Snapshot::profile), which takes
//! them under any [`ChainMeasure`] (the paper's plain statistics are the
//! [`ChainMeasure::uniform`] case).
//!
//! The recursions of Eq. 7 are stated for complete diagrams, but they hold
//! unchanged on *reduced* diagrams: a child that skips levels represents the
//! same sub-function extended with don't-care variables, and average,
//! variance, minimum and maximum are all invariant under adding don't-care
//! variables.

/// Statistics of the discrete function rooted at one ADD node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeStats {
    /// Average value over all input assignments (Eq. 6).
    pub avg: f64,
    /// Variance over all input assignments (Eq. 5).
    pub var: f64,
    /// Minimum value.
    pub min: f64,
    /// Maximum value.
    pub max: f64,
}

/// Per-variable distribution for a [`ChainMeasure`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum VarMeasure {
    /// `P(v = 1) = p`, independent of everything else.
    Independent(f64),
    /// `P(v = 1)` depends on the value of the *immediately preceding*
    /// variable in the order (e.g. `xᶠₖ` conditioned on `xⁱₖ` in an
    /// interleaved transition space).
    Correlated {
        /// `P(v = 1 | previous = 0)`.
        when_prev_false: f64,
        /// `P(v = 1 | previous = 1)`.
        when_prev_true: f64,
    },
}

/// A product/chain input distribution over the diagram variables: each
/// variable is either independent or pair-correlated with its immediate
/// predecessor.
///
/// This is exactly expressive enough for the *transition space* of
/// power models: with interleaved ordering `x₀ⁱ, x₀ᶠ, x₁ⁱ, x₁ᶠ, …`, the
/// measure `xₖⁱ ~ Bernoulli(sp)`, `P(xₖᶠ ≠ xₖⁱ) = st` captures realistic
/// signal/transition statistics, which makes measure-weighted node
/// collapsing preserve the (practically dominant) low-toggle region that a
/// uniform measure would sacrifice.
///
/// # Examples
///
/// ```
/// use charfree_dd::ChainMeasure;
/// let m = ChainMeasure::interleaved_transitions(3, 0.5, 0.25);
/// assert_eq!(m.len(), 6);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ChainMeasure {
    items: Vec<VarMeasure>,
}

impl ChainMeasure {
    /// Builds a measure from per-variable distributions.
    ///
    /// # Panics
    ///
    /// Panics where [`ChainMeasure::try_new`] fails.
    pub fn new(items: Vec<VarMeasure>) -> Self {
        match Self::try_new(items) {
            Ok(measure) => measure,
            Err(e) => panic!("{e}"),
        }
    }

    /// Builds a measure from per-variable distributions read from
    /// untrusted input.
    ///
    /// # Errors
    ///
    /// Fails if any probability is outside `[0, 1]`, if variable 0 is
    /// correlated, or if two consecutive variables are both correlated
    /// (contexts would need to propagate through skipped levels, which the
    /// traversal does not support).
    pub fn try_new(items: Vec<VarMeasure>) -> Result<Self, String> {
        let unit = |p: f64| (0.0..=1.0).contains(&p);
        for (v, item) in items.iter().enumerate() {
            let ok = match *item {
                VarMeasure::Independent(p) => unit(p),
                VarMeasure::Correlated {
                    when_prev_false,
                    when_prev_true,
                } => {
                    if v == 0 {
                        return Err("variable 0 cannot be correlated".to_owned());
                    }
                    if !matches!(items[v - 1], VarMeasure::Independent(_)) {
                        return Err("consecutive correlated variables are not supported".to_owned());
                    }
                    unit(when_prev_false) && unit(when_prev_true)
                }
            };
            if !ok {
                return Err(format!("bad probability for var {v}"));
            }
        }
        Ok(ChainMeasure { items })
    }

    /// The uniform measure over `n` variables (every variable fair and
    /// independent).
    pub fn uniform(n: u32) -> Self {
        ChainMeasure {
            items: vec![VarMeasure::Independent(0.5); n as usize],
        }
    }

    /// The transition-space measure for `pairs` interleaved input pairs:
    /// variable `2k` (the `xₖⁱ`) is `Bernoulli(sp)` and variable `2k+1`
    /// (the `xₖᶠ`) flips with *overall* probability `toggle`.
    ///
    /// The conditional flip rates are direction-dependent so that the pair
    /// is **stationary** at signal probability `sp` — exactly the joint
    /// law of one step of the per-bit Markov source used for simulation:
    /// `P(0→1) = toggle / (2(1−sp))`, `P(1→0) = toggle / (2·sp)`. (For
    /// `sp = 0.5` both reduce to the symmetric rate `toggle`.)
    ///
    /// # Panics
    ///
    /// Panics if `sp ∉ (0,1)`, `toggle ∉ [0,1]`, or the pair is infeasible
    /// (`toggle > 2·min(sp, 1−sp)` would need a conditional probability
    /// above one).
    pub fn interleaved_transitions(pairs: u32, sp: f64, toggle: f64) -> Self {
        assert!(sp > 0.0 && sp < 1.0, "sp must be in (0,1)");
        assert!(
            (0.0..=1.0).contains(&toggle) && toggle <= 2.0 * sp.min(1.0 - sp),
            "infeasible (sp={sp}, toggle={toggle}) pair"
        );
        let p01 = toggle / (2.0 * (1.0 - sp));
        let p10 = toggle / (2.0 * sp);
        let mut items = Vec::with_capacity(2 * pairs as usize);
        for _ in 0..pairs {
            items.push(VarMeasure::Independent(sp));
            items.push(VarMeasure::Correlated {
                when_prev_false: p01,
                when_prev_true: 1.0 - p10,
            });
        }
        ChainMeasure::new(items)
    }

    /// Number of variables covered.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` if the measure covers no variables.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// `true` if variable `v` is pair-correlated with its predecessor.
    #[inline]
    pub fn is_correlated(&self, v: u32) -> bool {
        matches!(
            self.items.get(v as usize),
            Some(VarMeasure::Correlated { .. })
        )
    }

    /// `P(v = 1)` under context `ctx` (0 = unconditioned, 1 = predecessor
    /// false, 2 = predecessor true). For an unconditioned correlated
    /// variable the marginal is used.
    #[inline]
    pub fn prob_one(&self, v: usize, ctx: u8) -> f64 {
        match self.items[v] {
            VarMeasure::Independent(p) => p,
            VarMeasure::Correlated {
                when_prev_false,
                when_prev_true,
            } => match ctx {
                1 => when_prev_false,
                2 => when_prev_true,
                _ => {
                    // Marginalize over the (independent) predecessor.
                    let p_prev = match self.items[v - 1] {
                        VarMeasure::Independent(p) => p,
                        VarMeasure::Correlated { .. } => unreachable!("validated"),
                    };
                    (1.0 - p_prev) * when_prev_false + p_prev * when_prev_true
                }
            },
        }
    }
}

/// Measure-weighted per-node profile: mixture statistics and reach
/// probability (see [`Snapshot::profile`](crate::Snapshot::profile)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasuredNode {
    /// Mixture statistics of the node's sub-function over the contexts in
    /// which it is reached.
    pub stats: NodeStats,
    /// Probability a random path (under the measure) passes through the
    /// node.
    pub reach: f64,
}
