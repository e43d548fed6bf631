//! Per-cycle energy traces and their summary statistics.

use charfree_netlist::units::{Capacitance, Energy, Power, Voltage};

/// A per-cycle energy trace produced by simulating a pattern sequence.
///
/// Cycle `t` covers the transition from pattern `t` to pattern `t+1`;
/// with the paper's notation, `p = e / T` where `T` is the cycle period.
///
/// # Examples
///
/// ```
/// use charfree_netlist::units::{Capacitance, Voltage};
/// use charfree_sim::EnergyTrace;
///
/// let caps = vec![Capacitance(90.0), Capacitance(0.0), Capacitance(10.0)];
/// let trace = EnergyTrace::from_switched(&caps, Voltage(1.0), 10.0);
/// assert!((trace.average_energy().femtojoules() - 100.0 / 3.0).abs() < 1e-12);
/// assert_eq!(trace.total_energy().femtojoules(), 100.0);
/// ```
#[derive(Debug, Clone)]
pub struct EnergyTrace {
    energies: Vec<Energy>,
    period_ns: f64,
}

impl EnergyTrace {
    /// Builds a trace from per-cycle switched capacitances at supply `vdd`
    /// and cycle period `period_ns` (nanoseconds).
    ///
    /// # Panics
    ///
    /// Panics if `period_ns <= 0` or the trace is empty.
    pub fn from_switched(caps: &[Capacitance], vdd: Voltage, period_ns: f64) -> Self {
        assert!(period_ns > 0.0, "period must be positive");
        assert!(!caps.is_empty(), "empty trace");
        EnergyTrace {
            energies: caps
                .iter()
                .map(|&c| Energy::from_switched(c, vdd))
                .collect(),
            period_ns,
        }
    }

    /// Number of cycles.
    pub fn len(&self) -> usize {
        self.energies.len()
    }

    /// `true` if the trace has no cycles (cannot be constructed publicly).
    pub fn is_empty(&self) -> bool {
        self.energies.is_empty()
    }

    /// Per-cycle energies.
    pub fn energies(&self) -> &[Energy] {
        &self.energies
    }

    /// Mean per-cycle energy.
    pub fn average_energy(&self) -> Energy {
        Energy(self.energies.iter().map(|e| e.femtojoules()).sum::<f64>() / self.len() as f64)
    }

    /// Largest single-cycle energy (peak).
    fn peak_energy(&self) -> Energy {
        Energy(
            self.energies
                .iter()
                .map(|e| e.femtojoules())
                .fold(f64::NEG_INFINITY, f64::max),
        )
    }

    /// Total energy over the whole trace.
    pub fn total_energy(&self) -> Energy {
        Energy(self.energies.iter().map(|e| e.femtojoules()).sum())
    }

    /// Mean power, `avg(e)/T`.
    pub fn average_power(&self) -> Power {
        self.average_energy() / self.period_ns
    }

    /// The largest total energy of any `window` consecutive cycles — the
    /// thermally relevant peak (a single hot cycle matters less than a hot
    /// burst).
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn windowed_peak_energy(&self, window: usize) -> Energy {
        assert!(window >= 1, "window must be at least 1");
        let window = window.min(self.len());
        let mut sum: f64 = self.energies[..window]
            .iter()
            .map(|e| e.femtojoules())
            .sum();
        let mut best = sum;
        for t in window..self.len() {
            sum += self.energies[t].femtojoules() - self.energies[t - window].femtojoules();
            best = best.max(sum);
        }
        Energy(best)
    }

    /// Fraction of cycles whose energy is at least `threshold`.
    pub fn duty_above(&self, threshold: Energy) -> f64 {
        let hits = self
            .energies
            .iter()
            .filter(|e| e.femtojoules() >= threshold.femtojoules())
            .count();
        hits as f64 / self.len() as f64
    }

    /// Histogram of per-cycle energies over `buckets` equal-width bins
    /// spanning `[0, peak]`. Returns `(bin upper edge, count)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `buckets == 0`.
    pub fn histogram(&self, buckets: usize) -> Vec<(Energy, usize)> {
        assert!(buckets >= 1, "need at least one bucket");
        let peak = self.peak_energy().femtojoules().max(f64::MIN_POSITIVE);
        let mut counts = vec![0usize; buckets];
        for e in &self.energies {
            let idx = ((e.femtojoules() / peak * buckets as f64) as usize).min(buckets - 1);
            counts[idx] += 1;
        }
        counts
            .into_iter()
            .enumerate()
            .map(|(i, c)| (Energy(peak * (i + 1) as f64 / buckets as f64), c))
            .collect()
    }

    /// Writes the trace as CSV (`cycle,energy_fj,power_uw` with a header).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write_csv<W: std::io::Write>(&self, mut w: W) -> std::io::Result<()> {
        writeln!(w, "cycle,energy_fj,power_uw")?;
        for (t, e) in self.energies.iter().enumerate() {
            writeln!(
                w,
                "{t},{:.6},{:.6}",
                e.femtojoules(),
                e.femtojoules() / self.period_ns
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> EnergyTrace {
        EnergyTrace::from_switched(
            &[Capacitance(90.0), Capacitance(0.0), Capacitance(10.0)],
            Voltage(1.0),
            10.0,
        )
    }

    #[test]
    fn summary_statistics() {
        let t = trace();
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        assert_eq!(t.total_energy().femtojoules(), 100.0);
        assert_eq!(t.peak_energy().femtojoules(), 90.0);
        assert!((t.average_power().microwatts() - 100.0 / 3.0 / 10.0).abs() < 1e-12);
        assert_eq!(t.energies().len(), 3);
    }

    #[test]
    fn vdd_scales_quadratically() {
        let t1 = EnergyTrace::from_switched(&[Capacitance(10.0)], Voltage(1.0), 1.0);
        let t2 = EnergyTrace::from_switched(&[Capacitance(10.0)], Voltage(2.0), 1.0);
        assert_eq!(
            t2.total_energy().femtojoules(),
            4.0 * t1.total_energy().femtojoules()
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_period_rejected() {
        let _ = EnergyTrace::from_switched(&[Capacitance(1.0)], Voltage(1.0), 0.0);
    }
}

#[cfg(test)]
mod analysis_tests {
    use super::*;

    fn ramp() -> EnergyTrace {
        let caps: Vec<Capacitance> = (0..10).map(|i| Capacitance(i as f64)).collect();
        EnergyTrace::from_switched(&caps, Voltage(1.0), 1.0)
    }

    #[test]
    fn windowed_peak_finds_the_hot_burst() {
        let t = ramp();
        // Best 3-window is the last three cycles: 7 + 8 + 9.
        assert_eq!(t.windowed_peak_energy(3).femtojoules(), 24.0);
        // Window of 1 is the plain peak; oversized windows clamp to total.
        assert_eq!(t.windowed_peak_energy(1), t.peak_energy());
        assert_eq!(t.windowed_peak_energy(100), t.total_energy());
    }

    #[test]
    fn duty_cycle_fraction() {
        let t = ramp();
        assert_eq!(t.duty_above(Energy(5.0)), 0.5);
        assert_eq!(t.duty_above(Energy(0.0)), 1.0);
        assert_eq!(t.duty_above(Energy(100.0)), 0.0);
    }

    #[test]
    fn histogram_partitions_all_cycles() {
        let t = ramp();
        let h = t.histogram(3);
        assert_eq!(h.len(), 3);
        let total: usize = h.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, t.len());
        // Upper edges ascend to the peak.
        assert_eq!(h[2].0, t.peak_energy());
        assert!(h[0].0 < h[1].0 && h[1].0 < h[2].0);
    }

    #[test]
    fn csv_round_trip_shape() {
        let t = ramp();
        let mut buf = Vec::new();
        t.write_csv(&mut buf).expect("writes");
        let text = String::from_utf8(buf).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), t.len() + 1);
        assert!(lines[0].starts_with("cycle,"));
        assert!(lines[1].starts_with("0,"));
    }
}
