//! Bursty (bimodal) workload sources.
//!
//! Real RT-level traffic is rarely stationary: buses idle for long
//! stretches and then burst. A [`BurstSource`] alternates between a
//! low-activity and a high-activity Markov regime with geometrically
//! distributed dwell times — the classic two-state MMPP-style workload —
//! which is exactly the situation where statically characterized power
//! models are furthest from their training distribution and the paper's
//! statistics-independent models shine.

use crate::patterns::{draw, threshold, InvalidStatisticsError, MarkovSource};
use charfree_netlist::rng::Rng;

/// A two-regime bursty pattern source.
///
/// # Examples
///
/// ```
/// use charfree_sim::BurstSource;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut src = BurstSource::new(8, (0.5, 0.05), (0.5, 0.8), 0.02, 0.1, 42)?;
/// let seq = src.sequence(5000);
/// let (_, st) = charfree_sim::measure_statistics(&seq);
/// assert!(st > 0.05 && st < 0.8, "blended activity, got {st}");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BurstSource {
    idle: MarkovSource,
    burst: MarkovSource,
    /// Thresholds of the per-cycle probabilities of leaving the current
    /// regime, indexed by `in_burst`: `[enter_burst, exit_burst]`.
    switch: [u64; 2],
    in_burst: bool,
    rng: Rng,
}

impl BurstSource {
    /// Creates a source whose idle regime has statistics `idle_stats =
    /// (sp, st)` and whose burst regime has `burst_stats`, switching with
    /// per-cycle probabilities `enter_burst` / `exit_burst`.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidStatisticsError`] if either regime's statistics
    /// are Markov-infeasible.
    ///
    /// # Panics
    ///
    /// Panics if the regime-switching probabilities are outside `[0, 1]`.
    pub fn new(
        num_bits: usize,
        idle_stats: (f64, f64),
        burst_stats: (f64, f64),
        enter_burst: f64,
        exit_burst: f64,
        seed: u64,
    ) -> Result<Self, InvalidStatisticsError> {
        assert!(
            (0.0..=1.0).contains(&enter_burst) && (0.0..=1.0).contains(&exit_burst),
            "switching probabilities must be in [0,1]"
        );
        Ok(BurstSource {
            idle: MarkovSource::new(num_bits, idle_stats.0, idle_stats.1, seed ^ 0x1d1e)?,
            burst: MarkovSource::new(num_bits, burst_stats.0, burst_stats.1, seed ^ 0xb4b4)?,
            switch: [threshold(enter_burst), threshold(exit_burst)],
            in_burst: false,
            rng: Rng::seed_from_u64(seed),
        })
    }

    /// Advances one cycle and returns the next pattern.
    pub fn next_pattern(&mut self) -> Vec<bool> {
        self.in_burst ^= draw(&mut self.rng, self.switch[usize::from(self.in_burst)]);
        // Both regimes advance so the hand-over keeps per-bit continuity
        // plausible; the active regime's pattern is emitted.
        let idle = self.idle.next_pattern();
        let burst = self.burst.next_pattern();
        if self.in_burst {
            burst
        } else {
            idle
        }
    }

    /// Generates `len` patterns.
    pub fn sequence(&mut self, len: usize) -> Vec<Vec<bool>> {
        (0..len).map(|_| self.next_pattern()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns::measure_statistics;

    #[test]
    fn blends_the_two_regimes() {
        let mut src =
            BurstSource::new(16, (0.5, 0.05), (0.5, 0.7), 0.05, 0.05, 3).expect("feasible");
        let seq = src.sequence(20_000);
        let (sp, st) = measure_statistics(&seq);
        assert!((sp - 0.5).abs() < 0.05, "sp stays near 0.5, got {sp}");
        // Expected st ≈ mean of regimes at equal dwell ≈ 0.37, plus the
        // switching discontinuities; loose band.
        assert!(st > 0.15 && st < 0.6, "blended st, got {st}");
    }

    #[test]
    fn dwell_times_follow_switch_probabilities() {
        let mut src = BurstSource::new(4, (0.5, 0.1), (0.5, 0.9), 0.01, 0.2, 9).expect("feasible");
        let mut bursts = 0usize;
        let mut burst_cycles = 0usize;
        let mut prev = false;
        for _ in 0..50_000 {
            let _ = src.next_pattern();
            if src.in_burst {
                burst_cycles += 1;
                if !prev {
                    bursts += 1;
                }
            }
            prev = src.in_burst;
        }
        assert!(bursts > 100, "plenty of bursts, got {bursts}");
        let mean_dwell = burst_cycles as f64 / bursts as f64;
        // Geometric with p = 0.2 -> mean 5.
        assert!(
            (mean_dwell - 5.0).abs() < 1.0,
            "mean burst dwell ~5, got {mean_dwell}"
        );
    }

    #[test]
    fn infeasible_regimes_rejected() {
        assert!(BurstSource::new(4, (0.1, 0.9), (0.5, 0.5), 0.1, 0.1, 0).is_err());
        assert!(BurstSource::new(4, (0.5, 0.5), (0.9, 0.9), 0.1, 0.1, 0).is_err());
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = BurstSource::new(8, (0.5, 0.1), (0.5, 0.8), 0.1, 0.1, 7).expect("ok");
        let mut b = BurstSource::new(8, (0.5, 0.1), (0.5, 0.8), 0.1, 0.1, 7).expect("ok");
        assert_eq!(a.sequence(200), b.sequence(200));
    }
}
