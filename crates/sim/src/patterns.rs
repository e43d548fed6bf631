//! Input-pattern sources with controlled statistics.
//!
//! The paper sweeps input statistics through two parameters: the average
//! **signal probability** `sp` (probability a bit is 1) and the average
//! **transition probability** `st` (probability a bit flips between
//! consecutive patterns). A per-bit two-state Markov chain realizes any
//! feasible `(sp, st)` pair exactly in expectation:
//!
//! * `P(0→1) = st / (2(1−sp))`, `P(1→0) = st / (2·sp)`
//!
//! which has stationary probability `sp` and flip probability `st`.
//! Feasibility requires `st ≤ 2·sp` and `st ≤ 2(1−sp)`
//! ([`check_statistics`]).
//!
//! ## The threshold rule
//!
//! Each bit of each pattern draws one `u64` from the seeded generator and
//! keeps its top 53 bits, `m = next_u64() >> 11`. The bit flips when
//! `m · 2⁻⁵³ < p`, with `p` the transition probability out of its current
//! state: a Bernoulli draw with probability `p`. For an integer `m < 2⁵³`
//! that float compare equals the integer compare `m < ⌈p · 2⁵³⌉`, and
//! `p · 2⁵³` is exact in `f64` (a power-of-two scale of `p ∈ [0, 1]`). So
//! [`MarkovSource::new`] turns `P(0→1)` and `P(1→0)` into two integer
//! thresholds once, and the advance loop is
//! `bit ^= m < threshold[bit]`: no float, no re-check of `p`, and no
//! data-dependent branch. The stream for a seed is the one the float
//! compare produced, bit for bit; `crates/sim/tests/stream_pin.rs` pins it.

use charfree_netlist::rng::Rng;
use std::error::Error;
use std::fmt;

/// Error for infeasible `(sp, st)` combinations.
#[derive(Debug, Clone, PartialEq)]
pub struct InvalidStatisticsError {
    sp: f64,
    st: f64,
}

impl fmt::Display for InvalidStatisticsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "infeasible input statistics sp={}, st={} (need 0<sp<1, 0<=st<=2·min(sp,1-sp))",
            self.sp, self.st
        )
    }
}

impl Error for InvalidStatisticsError {}

/// Checks that `(sp, st)` is a feasible Markov operating point:
/// `0 < sp < 1` and `0 ≤ st ≤ 2·min(sp, 1−sp)`, both finite.
///
/// # Errors
///
/// Returns [`InvalidStatisticsError`] otherwise, NaN included.
///
/// # Examples
///
/// ```
/// use charfree_sim::check_statistics;
/// assert!(check_statistics(0.5, 0.4).is_ok());
/// assert!(check_statistics(0.2, 0.9).is_err());
/// assert!(check_statistics(0.5, f64::NAN).is_err());
/// ```
pub fn check_statistics(sp: f64, st: f64) -> Result<(), InvalidStatisticsError> {
    // Every comparison with NaN is false, so NaN fails the first bound it
    // meets; the infinities fail the range bounds.
    if sp > 0.0 && sp < 1.0 && st >= 0.0 && st <= 2.0 * sp.min(1.0 - sp) {
        Ok(())
    } else {
        Err(InvalidStatisticsError { sp, st })
    }
}

/// The integer threshold `⌈p · 2⁵³⌉`: for `m < 2⁵³`,
/// `m < threshold(p)` exactly when `m · 2⁻⁵³ < p` (module docs).
pub(crate) fn threshold(p: f64) -> u64 {
    (p * (1u64 << 53) as f64).ceil() as u64
}

/// One Bernoulli draw against a [`threshold`]: `m · 2⁻⁵³ < p` without
/// the float.
#[inline]
pub(crate) fn draw(rng: &mut Rng, threshold: u64) -> bool {
    (rng.next_u64() >> 11) < threshold
}

/// A per-bit Markov pattern source realizing target `(sp, st)` statistics.
///
/// # Examples
///
/// ```
/// use charfree_sim::MarkovSource;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut src = MarkovSource::new(8, 0.5, 0.2, 42)?;
/// let seq = src.sequence(10_000);
/// let (sp, st) = charfree_sim::measure_statistics(&seq);
/// assert!((sp - 0.5).abs() < 0.03);
/// assert!((st - 0.2).abs() < 0.03);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MarkovSource {
    num_bits: usize,
    /// Flip thresholds indexed by the bit's current state:
    /// `[threshold(P(0→1)), threshold(P(1→0))]`.
    flip: [u64; 2],
    sp: f64,
    state: Vec<bool>,
    rng: Rng,
}

impl MarkovSource {
    /// Creates a source for `num_bits`-wide patterns with target signal
    /// probability `sp` and transition probability `st`, seeded
    /// deterministically.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidStatisticsError`] if [`check_statistics`] rejects
    /// `(sp, st)`.
    pub fn new(
        num_bits: usize,
        sp: f64,
        st: f64,
        seed: u64,
    ) -> Result<Self, InvalidStatisticsError> {
        check_statistics(sp, st)?;
        let p01 = st / (2.0 * (1.0 - sp));
        let p10 = st / (2.0 * sp);
        let mut rng = Rng::seed_from_u64(seed);
        // Draw the initial state from the stationary distribution.
        let one = threshold(sp);
        let state = (0..num_bits).map(|_| draw(&mut rng, one)).collect();
        Ok(MarkovSource {
            num_bits,
            flip: [threshold(p01), threshold(p10)],
            sp,
            state,
            rng,
        })
    }

    /// Pattern width.
    pub fn num_bits(&self) -> usize {
        self.num_bits
    }

    /// Target signal probability.
    pub fn sp(&self) -> f64 {
        self.sp
    }

    /// Advances the chain and returns the next pattern.
    pub fn next_pattern(&mut self) -> Vec<bool> {
        for bit in &mut self.state {
            *bit ^= draw(&mut self.rng, self.flip[usize::from(*bit)]);
        }
        self.state.clone()
    }

    /// Generates a sequence of `len` patterns (including the first drawn
    /// state transitioned once — the sequence is stationary throughout).
    pub fn sequence(&mut self, len: usize) -> Vec<Vec<bool>> {
        (0..len).map(|_| self.next_pattern()).collect()
    }
}

/// Measures `(sp, st)` of a pattern sequence: the average fraction of ones
/// and the average fraction of flipped bits between consecutive patterns.
///
/// # Panics
///
/// Panics if `seq` is empty or patterns have inconsistent widths.
pub fn measure_statistics(seq: &[Vec<bool>]) -> (f64, f64) {
    assert!(!seq.is_empty(), "empty sequence");
    let width = seq[0].len();
    let mut ones = 0usize;
    let mut flips = 0usize;
    for (t, p) in seq.iter().enumerate() {
        assert_eq!(p.len(), width, "inconsistent pattern width");
        ones += p.iter().filter(|&&b| b).count();
        if t > 0 {
            flips += p.iter().zip(&seq[t - 1]).filter(|(a, b)| a != b).count();
        }
    }
    let sp = ones as f64 / (seq.len() * width) as f64;
    let st = if seq.len() > 1 {
        flips as f64 / ((seq.len() - 1) * width) as f64
    } else {
        0.0
    };
    (sp, st)
}

/// Iterator over **all** `(xⁱ, xᶠ)` transition pairs of an `n`-bit input —
/// the exhaustive enumeration the paper calls unfeasible for large `n`
/// (here used to verify models exactly on small circuits).
///
/// # Examples
///
/// ```
/// use charfree_sim::ExhaustivePairs;
/// let pairs: Vec<_> = ExhaustivePairs::new(2).collect();
/// assert_eq!(pairs.len(), 16);
/// ```
#[derive(Debug, Clone)]
pub struct ExhaustivePairs {
    num_bits: u32,
    next: u64,
    total: u64,
}

impl ExhaustivePairs {
    /// All transition pairs over `num_bits` inputs (`4^num_bits` of them).
    ///
    /// # Panics
    ///
    /// Panics if `num_bits > 16` (the enumeration would exceed 2³² pairs).
    pub fn new(num_bits: u32) -> Self {
        assert!(
            num_bits <= 16,
            "exhaustive enumeration is 4^n; n > 16 unfeasible"
        );
        ExhaustivePairs {
            num_bits,
            next: 0,
            total: 1u64 << (2 * num_bits),
        }
    }
}

impl Iterator for ExhaustivePairs {
    type Item = (Vec<bool>, Vec<bool>);

    fn next(&mut self) -> Option<Self::Item> {
        if self.next >= self.total {
            return None;
        }
        let code = self.next;
        self.next += 1;
        let n = self.num_bits as usize;
        let xi = (0..n).map(|b| code >> b & 1 == 1).collect();
        let xf = (0..n).map(|b| code >> (n + b) & 1 == 1).collect();
        Some((xi, xf))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = (self.total - self.next) as usize;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for ExhaustivePairs {}

/// The grid of `(sp, st)` operating points used to evaluate out-of-sample
/// accuracy (Table 1 / Fig. 7a protocol): signal probabilities
/// `{0.2, 0.35, 0.5, 0.65, 0.8}` crossed with transition probabilities
/// `{0.1 … 0.9}`, filtered for Markov feasibility.
pub fn statistics_grid() -> Vec<(f64, f64)> {
    let sps = [0.2, 0.35, 0.5, 0.65, 0.8];
    let sts = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9];
    let mut grid = Vec::new();
    for &sp in &sps {
        for &st in &sts {
            if st <= 2.0 * f64::min(sp, 1.0 - sp) {
                grid.push((sp, st));
            }
        }
    }
    grid
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markov_hits_target_statistics() {
        for (sp, st) in [(0.5, 0.5), (0.5, 0.1), (0.3, 0.2), (0.8, 0.35), (0.5, 0.9)] {
            let mut src = MarkovSource::new(16, sp, st, 7).expect("feasible");
            let seq = src.sequence(20_000);
            let (msp, mst) = measure_statistics(&seq);
            assert!((msp - sp).abs() < 0.02, "sp target {sp} measured {msp}");
            assert!((mst - st).abs() < 0.02, "st target {st} measured {mst}");
        }
    }

    #[test]
    fn markov_rejects_infeasible() {
        assert!(MarkovSource::new(4, 0.0, 0.1, 0).is_err());
        assert!(MarkovSource::new(4, 1.0, 0.1, 0).is_err());
        assert!(MarkovSource::new(4, 0.1, 0.5, 0).is_err()); // st > 2*sp
        assert!(MarkovSource::new(4, 0.9, 0.5, 0).is_err()); // st > 2*(1-sp)
        assert!(MarkovSource::new(4, 0.5, -0.1, 0).is_err());
        for (sp, st) in [
            (0.5, f64::NAN),
            (f64::NAN, 0.1),
            (f64::NAN, f64::NAN),
            (0.5, f64::INFINITY),
            (f64::INFINITY, 0.1),
            (f64::NEG_INFINITY, 0.1),
        ] {
            assert!(check_statistics(sp, st).is_err(), "({sp}, {st})");
            assert!(MarkovSource::new(4, sp, st, 0).is_err(), "({sp}, {st})");
        }
        let err = MarkovSource::new(4, 0.1, 0.5, 0).expect_err("infeasible");
        assert!(err.to_string().contains("infeasible"));
    }

    #[test]
    fn threshold_matches_the_float_compare() {
        use charfree_netlist::rng::{splitmix64, GOLDEN_GAMMA};
        const SCALE: f64 = 1.0 / (1u64 << 53) as f64;
        let mut state = 0x5eed_u64;
        let mut splitmix = || {
            let z = splitmix64(state);
            state = state.wrapping_add(GOLDEN_GAMMA);
            z
        };
        let mut ps = vec![0.0, SCALE, 1.0 / 3.0, 0.5, 1.0 - SCALE, 1.0];
        for _ in 0..100 {
            // On the 2⁻⁵³ grid, anywhere in [0, 1], and small (off the grid).
            ps.push((splitmix() >> 11) as f64 * SCALE);
            ps.push(splitmix() as f64 / 2f64.powi(64));
            ps.push(((splitmix() >> 11) as f64 * SCALE).powi(5));
        }
        for p in ps {
            let t = threshold(p);
            for m in t.saturating_sub(2)..=t + 2 {
                if m >= 1 << 53 {
                    continue;
                }
                assert_eq!(m < t, (m as f64) * SCALE < p, "p={p:e} m={m} t={t}");
            }
        }
    }

    #[test]
    fn markov_is_deterministic_per_seed() {
        let mut a = MarkovSource::new(8, 0.5, 0.3, 99).expect("ok");
        let mut b = MarkovSource::new(8, 0.5, 0.3, 99).expect("ok");
        assert_eq!(a.sequence(100), b.sequence(100));
        let mut c = MarkovSource::new(8, 0.5, 0.3, 100).expect("ok");
        assert_ne!(a.sequence(100), c.sequence(100));
    }

    #[test]
    fn exhaustive_pairs_cover_everything() {
        let pairs: Vec<_> = ExhaustivePairs::new(3).collect();
        assert_eq!(pairs.len(), 64);
        let unique: std::collections::HashSet<_> = pairs.iter().cloned().collect();
        assert_eq!(unique.len(), 64);
        assert_eq!(ExhaustivePairs::new(3).len(), 64);
    }

    #[test]
    fn grid_is_feasible() {
        let grid = statistics_grid();
        assert!(grid.len() > 20);
        for (sp, st) in grid {
            assert!(MarkovSource::new(4, sp, st, 0).is_ok(), "({sp},{st})");
        }
        // The full (0.5, st) column is present for Fig. 7a.
        assert!(
            statistics_grid()
                .iter()
                .filter(|(sp, _)| *sp == 0.5)
                .count()
                >= 9
        );
    }

    #[test]
    fn measure_statistics_basics() {
        let seq = vec![vec![true, false], vec![false, false]];
        let (sp, st) = measure_statistics(&seq);
        assert_eq!(sp, 0.25);
        assert_eq!(st, 0.5);
    }
}
