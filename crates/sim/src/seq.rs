//! Golden sequential simulation: cycle-stepped zero-delay evaluation.
//!
//! [`SeqSim`] is the sequential analogue of [`ZeroDelaySim`]: it holds
//! one zero-delay simulator per register-bounded macro of a
//! [`SeqNetlist`], steps register state cycle by cycle, and derives each
//! macro's `(xⁱ, xᶠ)` transition pairs from the evolving state. Per
//! the paper's zero-delay model, a macro's switched capacitance at a
//! transition is computed from its boundary vector before and after the
//! clock edge; the design total is the per-macro sum folded in macro
//! index order (every downstream evaluator uses the same fold, so the
//! golden trace is bit-comparable with kernel evaluation).
//!
//! This is both the conform oracle's sequential ground truth and the
//! single source of truth for the state evolution itself: the kernel
//! composition engine gathers macro boundary vectors through the same
//! [`SeqWalker`] state walk, so "which bits does macro m see at cycle
//! t" can never diverge between golden and model.

use crate::zero_delay::ZeroDelaySim;
use charfree_netlist::units::Capacitance;
use charfree_netlist::{BoundarySource, SeqNetlist};

/// One macro's simulator plus its boundary wiring.
#[derive(Debug)]
struct MacroLane {
    sim: ZeroDelaySim,
    inputs: Vec<BoundarySource>,
    /// Per macro output: its position in [`ZeroDelaySim::eval`]'s dense
    /// value vector (inputs first, then gate outputs in topo order).
    out_pos: Vec<usize>,
    /// Per macro output: latch indices whose D it drives, then primary
    /// output indices it drives.
    sinks: Vec<(Vec<usize>, Vec<usize>)>,
}

/// Cycle-accurate zero-delay simulator for a sequential design.
#[derive(Debug)]
pub struct SeqSim {
    macros: Vec<MacroLane>,
    passthroughs: Vec<(usize, BoundarySource)>,
    po_passthroughs: Vec<(usize, BoundarySource)>,
    initial_state: Vec<bool>,
    num_inputs: usize,
    num_outputs: usize,
}

fn source_bit(src: BoundarySource, pi: &[bool], state: &[bool]) -> bool {
    match src {
        BoundarySource::Primary(i) => pi[i],
        BoundarySource::State(i) => state[i],
    }
}

impl SeqSim {
    /// Builds a simulator over every macro of `seq`.
    pub fn new(seq: &SeqNetlist) -> SeqSim {
        let macros = seq
            .macros()
            .iter()
            .map(|m| {
                let n = &m.netlist;
                let mut pos_of = std::collections::HashMap::new();
                for (i, &sig) in n.inputs().iter().enumerate() {
                    pos_of.insert(sig, i);
                }
                for (ofs, (_, gate)) in n.gates().enumerate() {
                    pos_of.insert(gate.output(), n.num_inputs() + ofs);
                }
                MacroLane {
                    sim: ZeroDelaySim::new(n),
                    inputs: m.inputs.clone(),
                    out_pos: n.outputs().iter().map(|o| pos_of[o]).collect(),
                    sinks: m
                        .outputs
                        .iter()
                        .map(|o| (o.next_state.clone(), o.primary.clone()))
                        .collect(),
                }
            })
            .collect();
        SeqSim {
            macros,
            passthroughs: seq.passthroughs().to_vec(),
            po_passthroughs: seq.po_passthroughs().to_vec(),
            initial_state: seq.initial_state(),
            num_inputs: seq.num_inputs(),
            num_outputs: seq.primary_outputs().len(),
        }
    }

    /// Primary-input width (pattern bits per cycle).
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of latches (state bits).
    pub fn num_latches(&self) -> usize {
        self.initial_state.len()
    }

    /// Number of macros.
    pub fn num_macros(&self) -> usize {
        self.macros.len()
    }

    /// The reset state vector.
    pub fn initial_state(&self) -> Vec<bool> {
        self.initial_state.clone()
    }

    /// A state walk from reset that reuses its buffers cycle to cycle
    /// (see [`SeqWalker`]).
    pub fn walker(&self) -> SeqWalker<'_> {
        SeqWalker {
            sim: self,
            state: self.initial_state.clone(),
            next: Vec::with_capacity(self.initial_state.len()),
            outs: vec![false; self.num_outputs],
            values: Vec::new(),
            inputs: Vec::new(),
        }
    }

    /// Runs the whole pattern sequence from reset, returning the primary
    /// outputs observed at each cycle.
    pub fn run(&self, patterns: &[Vec<bool>]) -> Vec<Vec<bool>> {
        let mut walk = self.walker();
        patterns
            .iter()
            .map(|pi| {
                walk.cycle(pi);
                walk.outs.clone()
            })
            .collect()
    }

    /// Materializes each macro's boundary input sequence over the whole
    /// pattern run (one inner vector per cycle). This is the exact
    /// per-macro `(xⁱ, xᶠ)` source: consecutive entries are the macro's
    /// transition pairs.
    pub fn macro_input_sequences(&self, patterns: &[Vec<bool>]) -> Vec<Vec<Vec<bool>>> {
        let mut seqs: Vec<Vec<Vec<bool>>> = self
            .macros
            .iter()
            .map(|_| Vec::with_capacity(patterns.len()))
            .collect();
        let mut walk = self.walker();
        for pi in patterns {
            for (seq, v) in seqs.iter_mut().zip(walk.cycle(pi)) {
                seq.push(v.clone());
            }
        }
        seqs
    }

    /// Per-macro golden switching traces: entry `[m][t]` is macro `m`'s
    /// switched capacitance between cycles `t` and `t+1`.
    pub fn macro_switching_traces(&self, patterns: &[Vec<bool>]) -> Vec<Vec<Capacitance>> {
        let seqs = self.macro_input_sequences(patterns);
        self.macros
            .iter()
            .zip(&seqs)
            .map(|(m, seq)| {
                seq.windows(2)
                    .map(|w| m.sim.switching_capacitance(&w[0], &w[1]))
                    .collect()
            })
            .collect()
    }

    /// The design's golden switching trace: per-transition totals, folded
    /// across macros in macro index order.
    pub fn switching_trace(&self, patterns: &[Vec<bool>]) -> Vec<Capacitance> {
        let per_macro = self.macro_switching_traces(patterns);
        let transitions = patterns.len().saturating_sub(1);
        (0..transitions)
            .map(|t| {
                let mut total = 0.0f64;
                for trace in &per_macro {
                    total += trace[t].femtofarads();
                }
                Capacitance(total)
            })
            .collect()
    }
}

/// A cycle-by-cycle walk over a [`SeqSim`]'s register state that
/// reuses its buffers: after the first cycle, a cycle allocates nothing.
#[derive(Debug)]
pub struct SeqWalker<'s> {
    sim: &'s SeqSim,
    state: Vec<bool>,
    next: Vec<bool>,
    outs: Vec<bool>,
    /// One macro's dense signal values, reused across macros.
    values: Vec<bool>,
    inputs: Vec<Vec<bool>>,
}

impl SeqWalker<'_> {
    /// Runs one clock cycle on primary inputs `pi`: gathers every
    /// macro's boundary input vector from `pi` and the current state,
    /// clocks the state into the next cycle and returns the gathered
    /// vectors.
    pub fn cycle(&mut self, pi: &[bool]) -> &[Vec<bool>] {
        let sim = self.sim;
        self.inputs.resize_with(sim.macros.len(), Vec::new);
        for (m, v) in sim.macros.iter().zip(&mut self.inputs) {
            v.clear();
            v.extend(m.inputs.iter().map(|&src| source_bit(src, pi, &self.state)));
        }
        // Latches no macro drives keep their value.
        self.next.clone_from(&self.state);
        self.outs.fill(false);
        for (m, v) in sim.macros.iter().zip(&self.inputs) {
            m.sim.eval_into(v, &mut self.values);
            for (&pos, (latches, primaries)) in m.out_pos.iter().zip(&m.sinks) {
                let value = self.values[pos];
                for &l in latches {
                    self.next[l] = value;
                }
                for &p in primaries {
                    self.outs[p] = value;
                }
            }
        }
        for &(l, src) in &sim.passthroughs {
            self.next[l] = source_bit(src, pi, &self.state);
        }
        for &(p, src) in &sim.po_passthroughs {
            self.outs[p] = source_bit(src, pi, &self.state);
        }
        std::mem::swap(&mut self.state, &mut self.next);
        &self.inputs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use charfree_netlist::{blif, Library};

    const TOGGLE: &str = "\
.model toggle
.inputs en
.outputs q
.gate xor2 a=en b=q O=d
.latch d q 0
.end
";

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

    fn annotated(text: &str) -> charfree_netlist::SeqNetlist {
        let mut seq = blif::parse_seq(text).expect("parses");
        seq.annotate_loads(&Library::test_library());
        seq
    }

    #[test]
    fn toggle_flips_while_enabled() {
        let sim = SeqSim::new(&annotated(TOGGLE));
        // en held high: q toggles 0,1,0,1...
        let patterns: Vec<Vec<bool>> = (0..4).map(|_| vec![true]).collect();
        let outs = sim.run(&patterns);
        let qs: Vec<bool> = outs.iter().map(|o| o[0]).collect();
        assert_eq!(qs, [false, true, false, true], "q is read before the edge");
    }

    #[test]
    fn pipeline_state_evolves_and_feeds_back() {
        let sim = SeqSim::new(&annotated(PIPE2));
        assert_eq!(sim.num_macros(), 2);
        assert_eq!(sim.num_latches(), 2);
        let patterns: Vec<Vec<bool>> = vec![
            vec![true, false],
            vec![true, true],
            vec![false, true],
            vec![true, true],
        ];
        // Hand-stepped: q1=0,q2=1 at reset.
        // t0: s1=a^q2=0, d1=0; y=q1|a=1, d2=0.
        // t1: state (0,0): s1=1, d1=1; y=1, d2=0.
        // t2: state (1,0): s1=0, d1=0; y=1, d2=0.
        // t3: state (0,0): s1=1, d1=1; y=1, d2=0.
        let outs = sim.run(&patterns);
        let ys: Vec<bool> = outs.iter().map(|o| o[0]).collect();
        assert_eq!(ys, [true, true, true, true]);
        let seqs = sim.macro_input_sequences(&patterns);
        assert_eq!(seqs.len(), 2);
        assert_eq!(seqs[0].len(), 4);
        // Stage 1's boundary is (a, b, q2): q2 starts 1 then falls.
        assert_eq!(seqs[0][0], vec![true, false, true]);
        assert_eq!(seqs[0][1], vec![true, true, false]);
    }

    #[test]
    fn design_trace_is_the_macro_fold() {
        let sim = SeqSim::new(&annotated(PIPE2));
        let patterns: Vec<Vec<bool>> = (0..9).map(|i| vec![i % 2 == 0, i % 3 == 0]).collect();
        let total = sim.switching_trace(&patterns);
        let per_macro = sim.macro_switching_traces(&patterns);
        assert_eq!(total.len(), 8);
        for (t, cap) in total.iter().enumerate() {
            let folded = per_macro[0][t].femtofarads() + per_macro[1][t].femtofarads();
            assert_eq!(cap.femtofarads().to_bits(), folded.to_bits());
        }
        assert!(total.iter().any(|c| c.femtofarads() > 0.0));
    }
}
