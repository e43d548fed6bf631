//! Physical quantities used throughout the workspace.
//!
//! Newtypes keep femtofarads, volts and femtojoules from being mixed up
//! (C-NEWTYPE). The paper works at the abstraction `e = Vdd² · C`, so only
//! capacitance, voltage, energy and power are needed.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// Capacitance in femtofarads (fF) — the unit of the paper's Fig. 2.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Capacitance(pub f64);

impl Capacitance {
    /// Zero capacitance.
    pub const ZERO: Capacitance = Capacitance(0.0);

    /// The value in femtofarads.
    #[inline]
    pub fn femtofarads(self) -> f64 {
        self.0
    }
}

impl Add for Capacitance {
    type Output = Capacitance;
    fn add(self, rhs: Self) -> Self {
        Capacitance(self.0 + rhs.0)
    }
}

impl AddAssign for Capacitance {
    fn add_assign(&mut self, rhs: Self) {
        self.0 += rhs.0;
    }
}

impl Sub for Capacitance {
    type Output = Capacitance;
    fn sub(self, rhs: Self) -> Self {
        Capacitance(self.0 - rhs.0)
    }
}

impl Mul<f64> for Capacitance {
    type Output = Capacitance;
    fn mul(self, rhs: f64) -> Self {
        Capacitance(self.0 * rhs)
    }
}

impl Sum for Capacitance {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        Capacitance(iter.map(|c| c.0).sum())
    }
}

impl fmt::Display for Capacitance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} fF", self.0)
    }
}

/// Supply voltage in volts.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Voltage(pub f64);

impl Voltage {
    /// A typical 1998-era supply, 3.3 V.
    pub const VDD_3V3: Voltage = Voltage(3.3);

    /// The value in volts.
    #[inline]
    pub fn volts(self) -> f64 {
        self.0
    }
}

impl Default for Voltage {
    fn default() -> Self {
        Voltage::VDD_3V3
    }
}

impl fmt::Display for Voltage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} V", self.0)
    }
}

/// Energy in femtojoules (fF·V² = fJ).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Energy(pub f64);

impl Energy {
    /// Zero energy.
    pub const ZERO: Energy = Energy(0.0);

    /// The supply energy drawn when switching capacitance `c` charges at
    /// supply `vdd`: `e = Vdd² · C` (Eq. 1).
    ///
    /// # Examples
    ///
    /// ```
    /// use charfree_netlist::units::{Capacitance, Energy, Voltage};
    /// let e = Energy::from_switched(Capacitance(90.0), Voltage(1.0));
    /// assert_eq!(e.femtojoules(), 90.0);
    /// ```
    pub fn from_switched(c: Capacitance, vdd: Voltage) -> Self {
        Energy(vdd.0 * vdd.0 * c.0)
    }

    /// The value in femtojoules.
    #[inline]
    pub fn femtojoules(self) -> f64 {
        self.0
    }
}

impl Add for Energy {
    type Output = Energy;
    fn add(self, rhs: Self) -> Self {
        Energy(self.0 + rhs.0)
    }
}

impl AddAssign for Energy {
    fn add_assign(&mut self, rhs: Self) {
        self.0 += rhs.0;
    }
}

impl Sum for Energy {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        Energy(iter.map(|e| e.0).sum())
    }
}

impl Div<f64> for Energy {
    /// Energy over time is power; dividing by a cycle time in ns yields µW
    /// at fJ scale. We keep it dimensionless here: `Energy / f64 -> Power`.
    type Output = Power;
    fn div(self, period_ns: f64) -> Power {
        Power(self.0 / period_ns)
    }
}

impl fmt::Display for Energy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} fJ", self.0)
    }
}

/// Power in microwatts (fJ / ns = µW).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Power(pub f64);

impl Power {
    /// The value in microwatts.
    #[inline]
    pub fn microwatts(self) -> f64 {
        self.0
    }
}

impl fmt::Display for Power {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} µW", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacitance_arithmetic() {
        let a = Capacitance(40.0);
        let b = Capacitance(50.0);
        assert_eq!((a + b).femtofarads(), 90.0);
        assert_eq!((b - a).femtofarads(), 10.0);
        assert_eq!((a * 2.0).femtofarads(), 80.0);
        let total: Capacitance = [a, b].into_iter().sum();
        assert_eq!(total.femtofarads(), 90.0);
    }

    #[test]
    fn energy_from_switching() {
        // Paper Fig. 2: C(11,00) = 90 fF; at Vdd = 3.3 V this is
        // 90 * 10.89 fJ.
        let e = Energy::from_switched(Capacitance(90.0), Voltage::VDD_3V3);
        assert!((e.femtojoules() - 90.0 * 3.3 * 3.3).abs() < 1e-12);
    }

    #[test]
    fn power_is_energy_over_time() {
        let p = Energy(100.0) / 10.0;
        assert_eq!(p.microwatts(), 10.0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Capacitance(1.5).to_string(), "1.5 fF");
        assert_eq!(Voltage(3.3).to_string(), "3.3 V");
        assert_eq!(Energy(2.0).to_string(), "2 fJ");
        assert_eq!(Power(4.0).to_string(), "4 µW");
    }
}
