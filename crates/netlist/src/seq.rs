//! Sequential netlists: register-bounded macro partitioning.
//!
//! A [`SeqNetlist`] is what `.latch`-bearing BLIF elaborates into: the
//! combinational logic between register boundaries, cut into **macros**
//! (weakly-connected components of the gate graph, where latch outputs
//! count as cut points), plus the clock-cycle dataflow that stitches
//! them back together. Each macro is a standalone combinational
//! [`Netlist`] — exactly the object the paper's ADD construction, the
//! compiled kernel, and the content-addressed artifact store already
//! understand — so a sequential design becomes "a fleet of combinational
//! macros plus wiring", and every downstream layer composes for free.
//!
//! The partition is purely structural and deterministic: gates are
//! grouped by union-find over gate-to-gate wires (signals driven by a
//! gate and consumed by another), macros are ordered by their earliest
//! gate in the flat topological order, and each macro's boundary inputs
//! keep the flat netlist's signal order. Two parses of the same BLIF
//! therefore produce byte-identical macro netlists, which is what keys
//! the per-macro-cone artifact cache.

use crate::library::Library;
use crate::netlist::{Netlist, NetlistError, SignalId};
use crate::units::Capacitance;
use std::collections::{HashMap, HashSet};

/// One register: `output` (Q) is the state bit visible to the logic,
/// `input` (D) is the signal sampled into it at each clock edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeqLatch {
    /// Data-input (D) signal name.
    pub input: String,
    /// Latch-output (Q) signal name.
    pub output: String,
    /// Effective initial state: `1` is true; `0`, don't-care (`2`) and
    /// unknown (`3`) all start false so replays are deterministic.
    pub init: bool,
}

/// Where a macro boundary input (or a latch passthrough) is fed from at
/// the start of a cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundarySource {
    /// Index into [`SeqNetlist::primary_inputs`].
    Primary(usize),
    /// Index into [`SeqNetlist::latches`] (that latch's Q).
    State(usize),
}

/// One macro output and where its value goes at the end of the cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MacroOutput {
    /// Signal name inside the macro netlist.
    pub name: String,
    /// Latch indices whose D input this signal drives.
    pub next_state: Vec<usize>,
    /// Indices into [`SeqNetlist::primary_outputs`] this signal drives.
    pub primary: Vec<usize>,
}

/// One register-bounded combinational macro.
#[derive(Debug, Clone)]
pub struct SeqMacro {
    /// The standalone combinational netlist (inputs are the macro's
    /// boundary signals; outputs are the signals listed in `outputs`).
    pub netlist: Netlist,
    /// Source of each macro netlist input, index-aligned with
    /// `netlist.inputs()`.
    pub inputs: Vec<BoundarySource>,
    /// Sink map for each macro netlist output, index-aligned with
    /// `netlist.outputs()`.
    pub outputs: Vec<MacroOutput>,
}

/// A sequential design: primary I/O, latches, and the register-bounded
/// macro partition with its cycle dataflow.
#[derive(Debug, Clone)]
pub struct SeqNetlist {
    name: String,
    primary_inputs: Vec<String>,
    primary_outputs: Vec<String>,
    latches: Vec<SeqLatch>,
    macros: Vec<SeqMacro>,
    /// Latches whose D is wired straight to a PI or another latch's Q
    /// (no combinational logic in between): `(latch index, source)`.
    passthroughs: Vec<(usize, BoundarySource)>,
    /// Primary outputs read straight off a PI or latch Q:
    /// `(output index, source)`.
    po_passthroughs: Vec<(usize, BoundarySource)>,
    num_gates: usize,
}

/// Minimal union-find over gate indices.
struct UnionFind(Vec<usize>);

impl UnionFind {
    fn new(n: usize) -> UnionFind {
        UnionFind((0..n).collect())
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.0[x] != x {
            self.0[x] = self.0[self.0[x]];
            x = self.0[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.0[ra.max(rb)] = ra.min(rb);
        }
    }
}

impl SeqNetlist {
    /// Partitions a flat combinational elaboration into a sequential
    /// design. `flat` must declare its inputs as the design's primary
    /// inputs followed by every latch Q, in `latches` order — the shape
    /// [`crate::blif::parse_seq`] produces. `po_signals` and
    /// `d_signals` carry the flat [`SignalId`] of each primary output
    /// and each latch D respectively (resolved by the caller, since
    /// `.names` elaboration may rename signals internally).
    ///
    /// # Errors
    ///
    /// Propagates structural [`NetlistError`]s from macro construction.
    pub fn from_flat(
        name: impl Into<String>,
        flat: &Netlist,
        primary_inputs: Vec<String>,
        primary_outputs: Vec<String>,
        po_signals: &[SignalId],
        latches: Vec<SeqLatch>,
        d_signals: &[SignalId],
    ) -> Result<SeqNetlist, NetlistError> {
        let name = name.into();
        // Sink lookups on flat signal ids.
        let mut d_sinks: HashMap<SignalId, Vec<usize>> = HashMap::new();
        for (i, &sig) in d_signals.iter().enumerate() {
            d_sinks.entry(sig).or_default().push(i);
        }
        let mut po_sinks: HashMap<SignalId, Vec<usize>> = HashMap::new();
        for (i, &sig) in po_signals.iter().enumerate() {
            po_sinks.entry(sig).or_default().push(i);
        }

        // Gates in flat topological order.
        let gates: Vec<_> = flat.gates().collect();
        let mut uf = UnionFind::new(gates.len());
        let mut gate_pos: HashMap<usize, usize> = HashMap::new();
        for (pos, (gid, _)) in gates.iter().enumerate() {
            gate_pos.insert(gid.index(), pos);
        }
        for (pos, (_, gate)) in gates.iter().enumerate() {
            for &input in gate.inputs() {
                if let Some(driver) = flat.driver(input) {
                    uf.union(gate_pos[&driver.index()], pos);
                }
            }
        }

        // Components numbered by first appearance in topo order.
        let mut component_index: HashMap<usize, usize> = HashMap::new();
        let mut component_of = vec![0usize; gates.len()];
        for (pos, slot) in component_of.iter_mut().enumerate() {
            let root = uf.find(pos);
            let next = component_index.len();
            *slot = *component_index.entry(root).or_insert(next);
        }
        let num_macros = component_index.len();

        // Flat input signal -> boundary source.
        let flat_inputs = flat.inputs();
        let mut source_of: HashMap<SignalId, BoundarySource> = HashMap::new();
        for (i, &sig) in flat_inputs.iter().enumerate() {
            let src = if i < primary_inputs.len() {
                BoundarySource::Primary(i)
            } else {
                BoundarySource::State(i - primary_inputs.len())
            };
            source_of.insert(sig, src);
        }

        let mut macros = Vec::with_capacity(num_macros);
        for m in 0..num_macros {
            let members: Vec<usize> = (0..gates.len())
                .filter(|&pos| component_of[pos] == m)
                .collect();
            // Boundary inputs in flat signal-index order (deterministic:
            // PIs in declaration order, then latch Qs in latch order).
            let mut boundary: Vec<SignalId> = Vec::new();
            let mut seen: HashSet<SignalId> = HashSet::new();
            for &pos in &members {
                for &input in gates[pos].1.inputs() {
                    if flat.driver(input).is_none() && seen.insert(input) {
                        boundary.push(input);
                    }
                }
            }
            boundary.sort_by_key(|s| s.index());

            let mut net = Netlist::new(format!("{name}__m{m}"));
            let mut remap: HashMap<SignalId, SignalId> = HashMap::new();
            let mut inputs = Vec::with_capacity(boundary.len());
            for &sig in &boundary {
                let id = net.add_input(flat.signal_name(sig).to_owned())?;
                remap.insert(sig, id);
                inputs.push(source_of[&sig]);
            }
            for &pos in &members {
                let gate = gates[pos].1;
                let pins: Vec<SignalId> = gate.inputs().iter().map(|s| remap[s]).collect();
                let out_name = flat.signal_name(gate.output()).to_owned();
                let id = net.add_gate_named(gate.kind(), &pins, out_name)?;
                remap.insert(gate.output(), id);
            }
            let mut outputs = Vec::new();
            for &pos in &members {
                let out_sig = gates[pos].1.output();
                let next_state = d_sinks.get(&out_sig).cloned().unwrap_or_default();
                let primary = po_sinks.get(&out_sig).cloned().unwrap_or_default();
                if !next_state.is_empty() || !primary.is_empty() {
                    net.mark_output(remap[&out_sig])?;
                    outputs.push(MacroOutput {
                        name: flat.signal_name(out_sig).to_owned(),
                        next_state,
                        primary,
                    });
                }
            }
            net.validate()?;
            macros.push(SeqMacro {
                netlist: net,
                inputs,
                outputs,
            });
        }

        // Sinks fed without combinational logic in between.
        let mut passthroughs = Vec::new();
        for (i, &sig) in d_signals.iter().enumerate() {
            if flat.driver(sig).is_none() {
                passthroughs.push((i, source_of[&sig]));
            }
        }
        let mut po_passthroughs = Vec::new();
        for (i, &sig) in po_signals.iter().enumerate() {
            if flat.driver(sig).is_none() {
                po_passthroughs.push((i, source_of[&sig]));
            }
        }

        Ok(SeqNetlist {
            name,
            primary_inputs,
            primary_outputs,
            latches,
            macros,
            passthroughs,
            po_passthroughs,
            num_gates: gates.len(),
        })
    }

    /// Design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Primary-input names, in declaration order (one pattern bit per
    /// entry per cycle).
    pub fn primary_inputs(&self) -> &[String] {
        &self.primary_inputs
    }

    /// Primary-output names, in declaration order.
    pub fn primary_outputs(&self) -> &[String] {
        &self.primary_outputs
    }

    /// Number of primary inputs (the per-cycle pattern width).
    pub fn num_inputs(&self) -> usize {
        self.primary_inputs.len()
    }

    /// The latches, in declaration order (state-vector order).
    pub fn latches(&self) -> &[SeqLatch] {
        &self.latches
    }

    /// The register-bounded macros, in deterministic partition order.
    pub fn macros(&self) -> &[SeqMacro] {
        &self.macros
    }

    /// Latches whose D is wired straight to a PI or another latch's Q.
    pub fn passthroughs(&self) -> &[(usize, BoundarySource)] {
        &self.passthroughs
    }

    /// Primary outputs read straight off a PI or a latch Q.
    pub fn po_passthroughs(&self) -> &[(usize, BoundarySource)] {
        &self.po_passthroughs
    }

    /// Total combinational gates across all macros.
    pub fn num_gates(&self) -> usize {
        self.num_gates
    }

    /// The initial state vector (one bool per latch).
    pub fn initial_state(&self) -> Vec<bool> {
        self.latches.iter().map(|l| l.init).collect()
    }

    /// Back-annotates every macro's loads from `library` (the sequential
    /// analogue of [`Netlist::annotate_loads`]; signals feeding latch Ds
    /// or POs are macro outputs, so they carry the library's output
    /// load).
    pub fn annotate_loads(&mut self, library: &Library) {
        for m in &mut self.macros {
            m.netlist.annotate_loads(library);
        }
    }

    /// Sum of all macros' total loads.
    pub fn total_load(&self) -> Capacitance {
        Capacitance(
            self.macros
                .iter()
                .map(|m| m.netlist.total_load().femtofarads())
                .sum(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::BoundarySource;
    use crate::blif;
    use crate::library::Library;

    /// A single DFF loop: q feeds back through an inverter.
    const DFF_LOOP: &str = "\
.model dffloop
.inputs en
.outputs q
.gate and2 a=en b=nq O=d
.gate inv a=q O=nq
.latch d q 0
.end
";

    /// Two register-bounded macros in a pipeline: stage 1 computes into a
    /// register, stage 2 consumes it, with feedback across the boundary.
    const PIPE2: &str = "\
.model pipe2
.inputs a b
.outputs y
.gate xor2 a=a b=q2 O=s1
.gate and2 a=s1 b=b O=d1
.latch d1 q1 0
.gate or2 a=q1 b=a O=y
.gate inv a=y O=d2
.latch d2 q2 1
.end
";

    #[test]
    fn single_dff_loop_is_one_macro() {
        let seq = blif::parse_seq(DFF_LOOP).expect("parses");
        assert_eq!(seq.num_inputs(), 1);
        assert_eq!(seq.latches().len(), 1);
        assert_eq!(seq.macros().len(), 1, "one connected component");
        assert_eq!(seq.num_gates(), 2);
        assert!(seq.passthroughs().is_empty());
        let m = &seq.macros()[0];
        // Boundary: the PI `en` and the state bit `q`.
        assert_eq!(
            m.inputs,
            vec![BoundarySource::Primary(0), BoundarySource::State(0)]
        );
        // `d` feeds the latch; the PO `q` is the latch's own output, so it
        // is a passthrough, not a macro output.
        assert!(m
            .outputs
            .iter()
            .any(|o| o.name == "d" && o.next_state == [0]));
        assert_eq!(seq.po_passthroughs(), &[(0, BoundarySource::State(0))]);
    }

    #[test]
    fn two_stage_pipeline_partitions_into_two_macros() {
        let seq = blif::parse_seq(PIPE2).expect("parses");
        assert_eq!(seq.macros().len(), 2, "register boundary cuts the logic");
        assert_eq!(seq.latches().len(), 2);
        assert_eq!(seq.num_gates(), 4);
        // Feedback across registers: macro 0 consumes q2 (latch 1), macro
        // 1 consumes q1 (latch 0).
        let consumes = |m: usize, latch: usize| {
            seq.macros()[m]
                .inputs
                .contains(&BoundarySource::State(latch))
        };
        assert!(consumes(0, 1), "stage 1 reads q2");
        assert!(consumes(1, 0), "stage 2 reads q1");
        // `y` is both a primary output and (via inv) upstream of d2.
        let stage2 = &seq.macros()[1];
        assert!(stage2
            .outputs
            .iter()
            .any(|o| o.name == "y" && o.primary == [0]));
        assert!(stage2
            .outputs
            .iter()
            .any(|o| o.name == "d2" && o.next_state == [1]));
    }

    #[test]
    fn macro_netlists_are_deterministic_across_parses() {
        let a = blif::parse_seq(PIPE2).expect("parses");
        let b = blif::parse_seq(PIPE2).expect("parses");
        assert_eq!(a.macros().len(), b.macros().len());
        for (ma, mb) in a.macros().iter().zip(b.macros()) {
            assert_eq!(blif::write(&ma.netlist), blif::write(&mb.netlist));
        }
    }

    #[test]
    fn passthrough_latches_are_tracked() {
        let text = "\
.model shiftreg
.inputs d
.outputs q1
.latch d q0 0
.latch q0 q1 0
.end
";
        let seq = blif::parse_seq(text).expect("parses");
        assert_eq!(seq.macros().len(), 0, "no combinational logic at all");
        assert_eq!(
            seq.passthroughs(),
            &[
                (0, BoundarySource::Primary(0)),
                (1, BoundarySource::State(0))
            ]
        );
        assert_eq!(seq.po_passthroughs(), &[(0, BoundarySource::State(1))]);
    }

    #[test]
    fn loads_annotate_per_macro() {
        let mut seq = blif::parse_seq(PIPE2).expect("parses");
        seq.annotate_loads(&Library::test_library());
        assert!(seq.total_load().femtofarads() > 0.0);
    }
}
