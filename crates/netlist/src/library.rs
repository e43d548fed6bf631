//! The test gate library.
//!
//! The paper maps MCNC circuits "on a test gate library" and uses the
//! "input capacitances of fan-out gates … as load capacitances for the
//! driving ones". This module defines such a library: a fixed set of static
//! CMOS cells with per-pin input capacitances (roughly proportional to the
//! gate's input transistor count, at a 1998-era 0.35 µm scale).

use crate::units::Capacitance;
use std::fmt;

/// The logic cells available for mapping.
///
/// # Examples
///
/// ```
/// use charfree_netlist::CellKind;
///
/// assert_eq!(CellKind::Nand2.arity(), 2);
/// assert!(!CellKind::Nand2.eval(&[true, true]));
/// assert!(CellKind::Nand2.eval(&[true, false]));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CellKind {
    /// Inverter.
    Inv,
    /// Non-inverting buffer.
    Buf,
    /// 2-input NAND.
    Nand2,
    /// 3-input NAND.
    Nand3,
    /// 4-input NAND.
    Nand4,
    /// 2-input NOR.
    Nor2,
    /// 3-input NOR.
    Nor3,
    /// 4-input NOR.
    Nor4,
    /// 2-input AND.
    And2,
    /// 3-input AND.
    And3,
    /// 2-input OR.
    Or2,
    /// 3-input OR.
    Or3,
    /// 2-input XOR.
    Xor2,
    /// 2-input XNOR.
    Xnor2,
    /// 2:1 multiplexer; pins are `[sel, a, b]`, output `sel ? b : a`.
    Mux2,
    /// AND-OR-invert: `!(p0·p1 + p2)`.
    Aoi21,
    /// OR-AND-invert: `!((p0+p1)·p2)`.
    Oai21,
}

/// All cells, in a stable order (useful for iteration and BLIF emission).
pub const ALL_CELLS: [CellKind; 17] = [
    CellKind::Inv,
    CellKind::Buf,
    CellKind::Nand2,
    CellKind::Nand3,
    CellKind::Nand4,
    CellKind::Nor2,
    CellKind::Nor3,
    CellKind::Nor4,
    CellKind::And2,
    CellKind::And3,
    CellKind::Or2,
    CellKind::Or3,
    CellKind::Xor2,
    CellKind::Xnor2,
    CellKind::Mux2,
    CellKind::Aoi21,
    CellKind::Oai21,
];

impl CellKind {
    /// Number of input pins.
    pub fn arity(self) -> usize {
        match self {
            CellKind::Inv | CellKind::Buf => 1,
            CellKind::Nand2
            | CellKind::Nor2
            | CellKind::And2
            | CellKind::Or2
            | CellKind::Xor2
            | CellKind::Xnor2 => 2,
            CellKind::Nand3
            | CellKind::Nor3
            | CellKind::And3
            | CellKind::Or3
            | CellKind::Mux2
            | CellKind::Aoi21
            | CellKind::Oai21 => 3,
            CellKind::Nand4 | CellKind::Nor4 => 4,
        }
    }

    /// Evaluates the cell function.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.arity()`.
    pub fn eval(self, inputs: &[bool]) -> bool {
        assert_eq!(inputs.len(), self.arity(), "wrong pin count for {self}");
        match self {
            CellKind::Inv => !inputs[0],
            CellKind::Buf => inputs[0],
            CellKind::Nand2 | CellKind::Nand3 | CellKind::Nand4 => !inputs.iter().all(|&b| b),
            CellKind::Nor2 | CellKind::Nor3 | CellKind::Nor4 => !inputs.iter().any(|&b| b),
            CellKind::And2 | CellKind::And3 => inputs.iter().all(|&b| b),
            CellKind::Or2 | CellKind::Or3 => inputs.iter().any(|&b| b),
            CellKind::Xor2 => inputs[0] != inputs[1],
            CellKind::Xnor2 => inputs[0] == inputs[1],
            CellKind::Mux2 => {
                if inputs[0] {
                    inputs[2]
                } else {
                    inputs[1]
                }
            }
            CellKind::Aoi21 => !((inputs[0] && inputs[1]) || inputs[2]),
            CellKind::Oai21 => !((inputs[0] || inputs[1]) && inputs[2]),
        }
    }

    /// Word-parallel evaluation: each `u64` carries 64 independent
    /// simulation slots (used by the bit-parallel simulator).
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.arity()`.
    pub fn eval_word(self, inputs: &[u64]) -> u64 {
        assert_eq!(inputs.len(), self.arity(), "wrong pin count for {self}");
        match self {
            CellKind::Inv => !inputs[0],
            CellKind::Buf => inputs[0],
            CellKind::Nand2 => !(inputs[0] & inputs[1]),
            CellKind::Nand3 => !(inputs[0] & inputs[1] & inputs[2]),
            CellKind::Nand4 => !(inputs[0] & inputs[1] & inputs[2] & inputs[3]),
            CellKind::Nor2 => !(inputs[0] | inputs[1]),
            CellKind::Nor3 => !(inputs[0] | inputs[1] | inputs[2]),
            CellKind::Nor4 => !(inputs[0] | inputs[1] | inputs[2] | inputs[3]),
            CellKind::And2 => inputs[0] & inputs[1],
            CellKind::And3 => inputs[0] & inputs[1] & inputs[2],
            CellKind::Or2 => inputs[0] | inputs[1],
            CellKind::Or3 => inputs[0] | inputs[1] | inputs[2],
            CellKind::Xor2 => inputs[0] ^ inputs[1],
            CellKind::Xnor2 => !(inputs[0] ^ inputs[1]),
            CellKind::Mux2 => (inputs[0] & inputs[2]) | (!inputs[0] & inputs[1]),
            CellKind::Aoi21 => !((inputs[0] & inputs[1]) | inputs[2]),
            CellKind::Oai21 => !((inputs[0] | inputs[1]) & inputs[2]),
        }
    }

    /// The library name of the cell (lower-case, as written in BLIF
    /// `.gate` lines).
    pub fn name(self) -> &'static str {
        match self {
            CellKind::Inv => "inv",
            CellKind::Buf => "buf",
            CellKind::Nand2 => "nand2",
            CellKind::Nand3 => "nand3",
            CellKind::Nand4 => "nand4",
            CellKind::Nor2 => "nor2",
            CellKind::Nor3 => "nor3",
            CellKind::Nor4 => "nor4",
            CellKind::And2 => "and2",
            CellKind::And3 => "and3",
            CellKind::Or2 => "or2",
            CellKind::Or3 => "or3",
            CellKind::Xor2 => "xor2",
            CellKind::Xnor2 => "xnor2",
            CellKind::Mux2 => "mux2",
            CellKind::Aoi21 => "aoi21",
            CellKind::Oai21 => "oai21",
        }
    }

    /// Looks a cell up by its library name.
    pub fn from_name(name: &str) -> Option<CellKind> {
        ALL_CELLS.iter().copied().find(|c| c.name() == name)
    }
}

impl fmt::Display for CellKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A gate library: per-pin input capacitances for every [`CellKind`].
///
/// The default [`Library::test_library`] mimics the paper's unnamed "test
/// gate library": pin capacitance grows with the series transistor stack,
/// complex static CMOS gates (XOR, MUX) cost more per pin than simple NAND
/// pins.
#[derive(Debug, Clone)]
pub struct Library {
    name: String,
    /// Indexed by the position of the cell in [`ALL_CELLS`].
    pin_caps: Vec<Vec<Capacitance>>,
    /// Extra wiring capacitance charged to every driven net.
    wire_cap: Capacitance,
    /// Load presented by a primary output (pad / register input).
    output_load: Capacitance,
}

fn cell_index(kind: CellKind) -> usize {
    ALL_CELLS
        .iter()
        .position(|&c| c == kind)
        .expect("cell present in ALL_CELLS")
}

impl Library {
    /// The default test library (see module docs).
    ///
    /// # Examples
    ///
    /// ```
    /// use charfree_netlist::{CellKind, Library};
    /// let lib = Library::test_library();
    /// assert!(lib.pin_cap(CellKind::Xor2, 0).femtofarads() > 0.0);
    /// ```
    pub fn test_library() -> Self {
        let mut pin_caps = Vec::with_capacity(ALL_CELLS.len());
        for cell in ALL_CELLS {
            let per_pin = match cell {
                CellKind::Inv => 4.0,
                CellKind::Buf => 4.0,
                CellKind::Nand2 | CellKind::Nor2 => 5.0,
                CellKind::Nand3 | CellKind::Nor3 => 6.0,
                CellKind::Nand4 | CellKind::Nor4 => 7.0,
                CellKind::And2 | CellKind::Or2 => 5.0,
                CellKind::And3 | CellKind::Or3 => 6.0,
                CellKind::Xor2 | CellKind::Xnor2 => 9.0,
                CellKind::Mux2 => 8.0,
                CellKind::Aoi21 | CellKind::Oai21 => 6.0,
            };
            pin_caps.push(vec![Capacitance(per_pin); cell.arity()]);
        }
        Library {
            name: "test35".to_owned(),
            pin_caps,
            wire_cap: Capacitance(2.0),
            output_load: Capacitance(20.0),
        }
    }

    /// The library name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Input capacitance of pin `pin` of cell `kind`.
    ///
    /// # Panics
    ///
    /// Panics if `pin >= kind.arity()`.
    pub fn pin_cap(&self, kind: CellKind, pin: usize) -> Capacitance {
        self.pin_caps[cell_index(kind)][pin]
    }

    /// Wiring capacitance added to every driven net.
    pub fn wire_cap(&self) -> Capacitance {
        self.wire_cap
    }

    /// Load presented by a primary output.
    pub fn output_load(&self) -> Capacitance {
        self.output_load
    }

    /// Overrides the per-pin capacitance of a cell (all pins).
    pub fn set_pin_cap(&mut self, kind: CellKind, cap: Capacitance) {
        let idx = cell_index(kind);
        for c in &mut self.pin_caps[idx] {
            *c = cap;
        }
    }

    /// Overrides the capacitance of one specific pin.
    ///
    /// # Panics
    ///
    /// Panics if `pin >= kind.arity()`.
    pub fn set_pin_cap_at(&mut self, kind: CellKind, pin: usize, cap: Capacitance) {
        self.pin_caps[cell_index(kind)][pin] = cap;
    }

    /// Renames the library.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Overrides the wire capacitance.
    pub fn set_wire_cap(&mut self, cap: Capacitance) {
        self.wire_cap = cap;
    }

    /// A canonical textual digest of everything that influences the loads
    /// a netlist annotated with this library will carry: the name, every
    /// per-pin capacitance in [`ALL_CELLS`] order, the wire capacitance
    /// and the primary-output load. Two libraries with equal fingerprints
    /// produce identical power models for the same netlist, so
    /// content-addressed caches key on this string.
    pub fn fingerprint(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!("library {}\n", self.name);
        for cell in ALL_CELLS {
            let _ = write!(out, "cell {}", cell.name());
            for pin in 0..cell.arity() {
                let _ = write!(
                    out,
                    " {:016x}",
                    self.pin_cap(cell, pin).femtofarads().to_bits()
                );
            }
            out.push('\n');
        }
        let _ = writeln!(out, "wire {:016x}", self.wire_cap.femtofarads().to_bits());
        let _ = writeln!(
            out,
            "output {:016x}",
            self.output_load.femtofarads().to_bits()
        );
        out
    }

    /// Overrides the primary-output load.
    pub fn set_output_load(&mut self, cap: Capacitance) {
        self.output_load = cap;
    }
}

impl Default for Library {
    fn default() -> Self {
        Library::test_library()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arity_matches_eval_expectations() {
        for cell in ALL_CELLS {
            let n = cell.arity();
            // Must not panic for a correctly sized input slice.
            let _ = cell.eval(&vec![false; n]);
            let _ = cell.eval_word(&vec![0u64; n]);
        }
    }

    #[test]
    fn scalar_and_word_eval_agree() {
        for cell in ALL_CELLS {
            let n = cell.arity();
            for bits in 0..1u32 << n {
                let scalar: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
                let words: Vec<u64> = scalar
                    .iter()
                    .map(|&b| if b { u64::MAX } else { 0 })
                    .collect();
                let want = cell.eval(&scalar);
                let got = cell.eval_word(&words);
                assert_eq!(got == u64::MAX, want, "{cell} bits={bits:b}");
                assert!(got == 0 || got == u64::MAX);
            }
        }
    }

    #[test]
    fn specific_functions() {
        assert!(CellKind::Aoi21.eval(&[false, false, false]));
        assert!(!CellKind::Aoi21.eval(&[true, true, false]));
        assert!(!CellKind::Aoi21.eval(&[false, false, true]));
        assert!(CellKind::Oai21.eval(&[false, false, true]));
        assert!(!CellKind::Oai21.eval(&[true, false, true]));
        assert!(CellKind::Mux2.eval(&[false, true, false]));
        assert!(!CellKind::Mux2.eval(&[true, true, false]));
    }

    #[test]
    fn names_roundtrip() {
        for cell in ALL_CELLS {
            assert_eq!(CellKind::from_name(cell.name()), Some(cell));
        }
        assert_eq!(CellKind::from_name("bogus"), None);
    }

    #[test]
    fn library_caps_are_positive_and_configurable() {
        let mut lib = Library::test_library();
        for cell in ALL_CELLS {
            for pin in 0..cell.arity() {
                assert!(lib.pin_cap(cell, pin).femtofarads() > 0.0);
            }
        }
        lib.set_pin_cap(CellKind::Inv, Capacitance(1.0));
        assert_eq!(lib.pin_cap(CellKind::Inv, 0), Capacitance(1.0));
        lib.set_wire_cap(Capacitance(0.0));
        assert_eq!(lib.wire_cap(), Capacitance(0.0));
        lib.set_output_load(Capacitance(11.0));
        assert_eq!(lib.output_load(), Capacitance(11.0));
    }

    #[test]
    fn fingerprint_tracks_every_load_knob() {
        let base = Library::test_library();
        assert_eq!(base.fingerprint(), Library::test_library().fingerprint());
        let mut lib = Library::test_library();
        lib.set_pin_cap_at(CellKind::Nand2, 1, Capacitance(42.0));
        assert_ne!(base.fingerprint(), lib.fingerprint());
        let mut lib = Library::test_library();
        lib.set_wire_cap(Capacitance(3.5));
        assert_ne!(base.fingerprint(), lib.fingerprint());
        let mut lib = Library::test_library();
        lib.set_output_load(Capacitance(1.0));
        assert_ne!(base.fingerprint(), lib.fingerprint());
        let mut lib = Library::test_library();
        lib.set_name("other");
        assert_ne!(base.fingerprint(), lib.fingerprint());
    }

    #[test]
    fn xor_costs_more_than_nand() {
        let lib = Library::test_library();
        assert!(
            lib.pin_cap(CellKind::Xor2, 0).femtofarads()
                > lib.pin_cap(CellKind::Nand2, 0).femtofarads()
        );
    }
}
