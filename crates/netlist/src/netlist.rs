//! The gate-level netlist data structure (the paper's *golden model*).
//!
//! A [`Netlist`] is a DAG of library gates over named signals. Construction
//! is inherently topological — a gate can only be added once all of its
//! input signals exist — so combinational loops cannot be expressed and the
//! gate vector is always a valid evaluation order.

use crate::library::{CellKind, Library};
use crate::units::Capacitance;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Identifier of a signal (net) within one netlist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SignalId(pub(crate) u32);

impl SignalId {
    /// Index into [`Netlist`] signal storage.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifier of a gate instance within one netlist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GateId(pub(crate) u32);

impl GateId {
    /// Index into [`Netlist`] gate storage.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One gate instance.
#[derive(Debug, Clone)]
pub struct Gate {
    kind: CellKind,
    inputs: Vec<SignalId>,
    output: SignalId,
    /// Output load capacitance `C_j`; zero until back-annotated.
    load: Capacitance,
}

impl Gate {
    /// The library cell implementing this gate.
    pub fn kind(&self) -> CellKind {
        self.kind
    }

    /// Input signals, in pin order.
    pub fn inputs(&self) -> &[SignalId] {
        &self.inputs
    }

    /// Output signal.
    pub fn output(&self) -> SignalId {
        self.output
    }

    /// Output load capacitance `C_j`.
    pub fn load(&self) -> Capacitance {
        self.load
    }
}

#[derive(Debug, Clone)]
struct Signal {
    name: String,
    driver: Option<GateId>,
}

/// Errors arising while building or validating a netlist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistError {
    /// A signal with this name already exists.
    DuplicateSignal(String),
    /// A gate was given the wrong number of input pins.
    WrongArity {
        /// The offending cell.
        cell: CellKind,
        /// Expected pin count.
        expected: usize,
        /// Provided pin count.
        got: usize,
    },
    /// A referenced signal does not belong to this netlist.
    UnknownSignal(String),
    /// The netlist has no primary outputs.
    NoOutputs,
    /// A non-input signal has no driver.
    Undriven(String),
    /// A sum-of-products cover cannot be synthesized into the gate library
    /// (constant function, tautological cube, or literal/input mismatch).
    UnsynthesizableCover(String),
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::DuplicateSignal(n) => write!(f, "duplicate signal name `{n}`"),
            NetlistError::WrongArity {
                cell,
                expected,
                got,
            } => {
                write!(f, "cell `{cell}` takes {expected} inputs, got {got}")
            }
            NetlistError::UnknownSignal(n) => write!(f, "unknown signal `{n}`"),
            NetlistError::NoOutputs => write!(f, "netlist has no primary outputs"),
            NetlistError::Undriven(n) => write!(f, "signal `{n}` has no driver"),
            NetlistError::UnsynthesizableCover(why) => {
                write!(f, "unsynthesizable cover: {why}")
            }
        }
    }
}

impl Error for NetlistError {}

/// A combinational gate-level netlist with back-annotated capacitances.
///
/// # Examples
///
/// The paper's example unit (Fig. 2a): `g1 = x1'`, `g2 = x2'`,
/// `g3 = x1 + x2`.
///
/// ```
/// use charfree_netlist::{CellKind, Netlist};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut n = Netlist::new("unit_u");
/// let x1 = n.add_input("x1")?;
/// let x2 = n.add_input("x2")?;
/// let g1 = n.add_gate(CellKind::Inv, &[x1])?;
/// let g2 = n.add_gate(CellKind::Inv, &[x2])?;
/// let g3 = n.add_gate(CellKind::Or2, &[x1, x2])?;
/// n.mark_output(g1)?;
/// n.mark_output(g2)?;
/// n.mark_output(g3)?;
/// assert_eq!(n.num_gates(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Netlist {
    name: String,
    signals: Vec<Signal>,
    gates: Vec<Gate>,
    inputs: Vec<SignalId>,
    outputs: Vec<SignalId>,
    by_name: HashMap<String, SignalId>,
}

impl Netlist {
    /// Creates an empty netlist called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        Netlist {
            name: name.into(),
            signals: Vec::new(),
            gates: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            by_name: HashMap::new(),
        }
    }

    /// The netlist (model) name.
    pub fn name(&self) -> &str {
        &self.name
    }

    fn intern_signal(
        &mut self,
        name: String,
        driver: Option<GateId>,
    ) -> Result<SignalId, NetlistError> {
        if self.by_name.contains_key(&name) {
            return Err(NetlistError::DuplicateSignal(name));
        }
        let id = SignalId(self.signals.len() as u32);
        self.by_name.insert(name.clone(), id);
        self.signals.push(Signal { name, driver });
        Ok(id)
    }

    /// Declares a primary input.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateSignal`] if the name is taken.
    pub fn add_input(&mut self, name: impl Into<String>) -> Result<SignalId, NetlistError> {
        let id = self.intern_signal(name.into(), None)?;
        self.inputs.push(id);
        Ok(id)
    }

    /// Adds a gate with an auto-generated output-signal name (`_n<k>`).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::WrongArity`] if `inputs.len()` does not match
    /// the cell arity, or [`NetlistError::UnknownSignal`] if an input id is
    /// out of range.
    pub fn add_gate(
        &mut self,
        kind: CellKind,
        inputs: &[SignalId],
    ) -> Result<SignalId, NetlistError> {
        // Pick a fresh auto name even when `_n<k>` names were imported
        // from a file (e.g. re-parsing our own BLIF/bench output).
        let mut k = self.gates.len();
        let name = loop {
            let candidate = format!("_n{k}");
            if !self.by_name.contains_key(&candidate) {
                break candidate;
            }
            k += 1;
        };
        self.add_gate_named(kind, inputs, name)
    }

    /// Adds a gate whose output signal is called `out_name`.
    ///
    /// # Errors
    ///
    /// As [`Netlist::add_gate`], plus [`NetlistError::DuplicateSignal`] for
    /// a name clash.
    pub fn add_gate_named(
        &mut self,
        kind: CellKind,
        inputs: &[SignalId],
        out_name: impl Into<String>,
    ) -> Result<SignalId, NetlistError> {
        if inputs.len() != kind.arity() {
            return Err(NetlistError::WrongArity {
                cell: kind,
                expected: kind.arity(),
                got: inputs.len(),
            });
        }
        for &s in inputs {
            if s.index() >= self.signals.len() {
                return Err(NetlistError::UnknownSignal(format!("#{}", s.0)));
            }
        }
        let gate_id = GateId(self.gates.len() as u32);
        let out = self.intern_signal(out_name.into(), Some(gate_id))?;
        self.gates.push(Gate {
            kind,
            inputs: inputs.to_vec(),
            output: out,
            load: Capacitance::ZERO,
        });
        Ok(out)
    }

    /// Marks `signal` as a primary output.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownSignal`] if the id is out of range.
    pub fn mark_output(&mut self, signal: SignalId) -> Result<(), NetlistError> {
        if signal.index() >= self.signals.len() {
            return Err(NetlistError::UnknownSignal(format!("#{}", signal.0)));
        }
        self.outputs.push(signal);
        Ok(())
    }

    /// Primary inputs in declaration order.
    pub fn inputs(&self) -> &[SignalId] {
        &self.inputs
    }

    /// Primary outputs in declaration order.
    pub fn outputs(&self) -> &[SignalId] {
        &self.outputs
    }

    /// Number of primary inputs (`n` in the paper's Table 1).
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Number of gates (`N` in the paper's Table 1).
    pub fn num_gates(&self) -> usize {
        self.gates.len()
    }

    /// Number of signals (inputs + gate outputs).
    pub fn num_signals(&self) -> usize {
        self.signals.len()
    }

    /// The gates in topological (construction) order.
    pub fn gates(&self) -> impl Iterator<Item = (GateId, &Gate)> {
        self.gates
            .iter()
            .enumerate()
            .map(|(i, g)| (GateId(i as u32), g))
    }

    /// A single gate.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn gate(&self, id: GateId) -> &Gate {
        &self.gates[id.index()]
    }

    /// The gate driving `signal`, if any (primary inputs have none).
    pub fn driver(&self, signal: SignalId) -> Option<GateId> {
        self.signals[signal.index()].driver
    }

    /// The name of `signal`.
    ///
    /// # Panics
    ///
    /// Panics if `signal` is out of range.
    pub fn signal_name(&self, signal: SignalId) -> &str {
        &self.signals[signal.index()].name
    }

    /// Overrides the load capacitance of the gate driving the netlist
    /// (mostly useful for hand-built examples such as the paper's Fig. 2).
    ///
    /// # Panics
    ///
    /// Panics if `gate` is out of range.
    pub fn set_gate_load(&mut self, gate: GateId, load: Capacitance) {
        self.gates[gate.index()].load = load;
    }

    /// Sum of all gate load capacitances (the worst-case switched
    /// capacitance if every gate rose at once).
    pub fn total_load(&self) -> Capacitance {
        self.gates.iter().map(|g| g.load).sum()
    }

    /// For every signal, the `(gate, pin)` pairs it feeds.
    pub fn fanouts(&self) -> Vec<Vec<(GateId, usize)>> {
        let mut fo: Vec<Vec<(GateId, usize)>> = vec![Vec::new(); self.signals.len()];
        for (gid, gate) in self.gates() {
            for (pin, &sig) in gate.inputs.iter().enumerate() {
                fo[sig.index()].push((gid, pin));
            }
        }
        fo
    }

    /// Logic depth of every gate (longest path from any primary input,
    /// inputs have depth 0).
    pub fn levels(&self) -> Vec<u32> {
        let mut sig_level = vec![0u32; self.signals.len()];
        let mut gate_level = vec![0u32; self.gates.len()];
        for (gid, gate) in self.gates() {
            let lvl = gate
                .inputs
                .iter()
                .map(|s| sig_level[s.index()])
                .max()
                .unwrap_or(0)
                + 1;
            gate_level[gid.index()] = lvl;
            sig_level[gate.output.index()] = lvl;
        }
        gate_level
    }

    /// Maximum logic depth.
    pub fn depth(&self) -> u32 {
        self.levels().into_iter().max().unwrap_or(0)
    }

    /// Back-annotates every gate's output load from `library`:
    /// `C_j = wire_cap + Σ (input-pin caps of fanout pins) + output_load`
    /// (the last term only for primary outputs). This is the paper's
    /// "input capacitances of fan-out gates were used as load capacitances
    /// for the driving ones".
    pub fn annotate_loads(&mut self, library: &Library) {
        let fo = self.fanouts();
        let is_output: Vec<bool> = {
            let mut v = vec![false; self.signals.len()];
            for &o in &self.outputs {
                v[o.index()] = true;
            }
            v
        };
        for i in 0..self.gates.len() {
            let out = self.gates[i].output;
            let mut load = library.wire_cap();
            for &(gid, pin) in &fo[out.index()] {
                load += library.pin_cap(self.gates[gid.index()].kind, pin);
            }
            if is_output[out.index()] {
                load += library.output_load();
            }
            self.gates[i].load = load;
        }
    }

    /// Checks structural sanity.
    ///
    /// # Errors
    ///
    /// * [`NetlistError::NoOutputs`] if no primary output is marked.
    /// * [`NetlistError::Undriven`] if a non-input signal has no driver
    ///   (cannot currently be constructed through the public API, but can
    ///   arrive through BLIF parsing).
    pub fn validate(&self) -> Result<(), NetlistError> {
        if self.outputs.is_empty() {
            return Err(NetlistError::NoOutputs);
        }
        let mut driven = vec![false; self.signals.len()];
        for &i in &self.inputs {
            driven[i.index()] = true;
        }
        for g in &self.gates {
            driven[g.output.index()] = true;
        }
        for (i, s) in self.signals.iter().enumerate() {
            if !driven[i] {
                return Err(NetlistError::Undriven(s.name.clone()));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn find_signal(n: &Netlist, name: &str) -> SignalId {
        n.by_name[name]
    }

    fn paper_unit() -> Netlist {
        let mut n = Netlist::new("unit_u");
        let x1 = n.add_input("x1").expect("fresh");
        let x2 = n.add_input("x2").expect("fresh");
        let g1 = n.add_gate_named(CellKind::Inv, &[x1], "g1").expect("ok");
        let g2 = n.add_gate_named(CellKind::Inv, &[x2], "g2").expect("ok");
        let g3 = n
            .add_gate_named(CellKind::Or2, &[x1, x2], "g3")
            .expect("ok");
        n.mark_output(g1).expect("ok");
        n.mark_output(g2).expect("ok");
        n.mark_output(g3).expect("ok");
        n
    }

    #[test]
    fn build_and_inspect() {
        let n = paper_unit();
        assert_eq!(n.name(), "unit_u");
        assert_eq!(n.num_inputs(), 2);
        assert_eq!(n.num_gates(), 3);
        assert_eq!(n.num_signals(), 5);
        assert_eq!(n.outputs().len(), 3);
        assert!(n.validate().is_ok());
        assert_eq!(n.depth(), 1);
        assert_eq!(n.signal_name(find_signal(&n, "g3")), "g3");
        let g3 = n.driver(find_signal(&n, "g3")).expect("driven");
        assert_eq!(n.gate(g3).kind(), CellKind::Or2);
        assert_eq!(n.gate(g3).inputs().len(), 2);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut n = Netlist::new("t");
        n.add_input("a").expect("fresh");
        assert_eq!(
            n.add_input("a"),
            Err(NetlistError::DuplicateSignal("a".into()))
        );
    }

    #[test]
    fn arity_checked() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a").expect("fresh");
        let err = n.add_gate(CellKind::Nand2, &[a]).expect_err("wrong arity");
        assert!(matches!(err, NetlistError::WrongArity { .. }));
    }

    #[test]
    fn unknown_signal_rejected() {
        let mut n = Netlist::new("t");
        let err = n
            .add_gate(CellKind::Inv, &[SignalId(7)])
            .expect_err("bogus id");
        assert!(matches!(err, NetlistError::UnknownSignal(_)));
        assert!(matches!(
            n.mark_output(SignalId(9)),
            Err(NetlistError::UnknownSignal(_))
        ));
    }

    #[test]
    fn no_outputs_fails_validation() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a").expect("fresh");
        let _ = n.add_gate(CellKind::Inv, &[a]).expect("ok");
        assert_eq!(n.validate(), Err(NetlistError::NoOutputs));
    }

    #[test]
    fn fanout_and_levels() {
        let n = paper_unit();
        let fo = n.fanouts();
        let x1 = find_signal(&n, "x1");
        // x1 feeds g1 (pin 0) and g3 (pin 0).
        assert_eq!(fo[x1.index()].len(), 2);
        let levels = n.levels();
        assert!(levels.iter().all(|&l| l == 1));
    }

    #[test]
    fn load_annotation_from_library() {
        let mut n = paper_unit();
        let lib = Library::test_library();
        n.annotate_loads(&lib);
        // Every gate output is a primary output with no fanout gates:
        // load = wire + output_load.
        let expect = lib.wire_cap() + lib.output_load();
        for (_, g) in n.gates() {
            assert_eq!(g.load(), expect);
        }
        assert_eq!(n.total_load(), expect * 3.0);
    }

    #[test]
    fn load_annotation_counts_fanin_pins() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a").expect("fresh");
        let inv = n.add_gate(CellKind::Inv, &[a]).expect("ok");
        let x1 = n.add_gate(CellKind::Xor2, &[inv, a]).expect("ok");
        n.mark_output(x1).expect("ok");
        let lib = Library::test_library();
        n.annotate_loads(&lib);
        let inv_gate = n.driver(inv).expect("driven");
        // inv drives one xor pin: wire (2) + xor pin (9) = 11.
        assert_eq!(n.gate(inv_gate).load(), Capacitance(11.0));
    }

    #[test]
    fn manual_load_override() {
        let mut n = paper_unit();
        let g = n.driver(find_signal(&n, "g1")).expect("driven");
        n.set_gate_load(g, Capacitance(40.0));
        assert_eq!(n.gate(g).load(), Capacitance(40.0));
    }

    #[test]
    fn error_display() {
        let e = NetlistError::WrongArity {
            cell: CellKind::Nand2,
            expected: 2,
            got: 3,
        };
        assert!(e.to_string().contains("nand2"));
        assert!(NetlistError::NoOutputs.to_string().contains("output"));
    }
}
