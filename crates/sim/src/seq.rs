//! Golden sequential simulation: cycle-stepped zero-delay evaluation.
//!
//! [`SeqSim`] is the sequential analogue of [`ZeroDelaySim`]. It
//! compiles a [`SeqNetlist`] into one flat, levelized program over a
//! single dense value array:
//!
//! * the array holds the primary inputs, then the latch Qs, then every
//!   macro's gate outputs (macro by macro, each in topological order).
//!   The first two regions are the cycle's **sources**: every macro
//!   boundary input reads one of them;
//! * gates are fixed-width `(cell, [pin; 4], out)` records in the same
//!   macro-then-topological order, so one forward pass evaluates the
//!   whole design's combinational logic for a cycle. The cell is its
//!   16-bit truth table, so a gate of any kind evaluates without a
//!   branch;
//! * the clock edge is a list of index copies (latch Q ← the value of
//!   its D, a gate output or a source) staged through a small buffer so
//!   latch-to-latch shifts read pre-edge values. Latches that nothing
//!   drives keep their value; primary outputs are index reads.
//!
//! A [`StateWalk`] steps that program cycle by cycle. It is the one
//! state walk: [`SeqSim::run`], [`SeqSim::macro_input_sequences`] (and
//! so the golden traces and the unfused kernel path) and the fused
//! kernel path, which packs each macro's lanes straight from
//! [`StateWalk::sources`], all read it. So "which bits does macro m see
//! at cycle t" cannot diverge between golden and model.
//!
//! Per the paper's zero-delay model, a macro's switched capacitance at a
//! transition is computed from its boundary vector before and after the
//! clock edge; the design total is the per-macro sum folded in macro
//! index order (every downstream evaluator uses the same fold, so the
//! golden trace is bit-comparable with kernel evaluation).

use crate::zero_delay::ZeroDelaySim;
use charfree_netlist::units::Capacitance;
use charfree_netlist::{BoundarySource, CellKind, SeqNetlist};

/// One gate of the flat program: pins and output are value-array
/// indices, and the cell is its truth table over the four pin values
/// (bit `a | b << 1 | c << 2 | d << 3`), so evaluating any cell is one
/// shift with no branch. Pins past the cell's arity point at value 0,
/// and the table ignores them.
#[derive(Debug, Clone, Copy)]
struct FlatGate {
    table: u16,
    pins: [u32; 4],
    out: u32,
}

/// `kind`'s truth table over four pins, indexed as in [`FlatGate`].
fn truth_table(kind: CellKind) -> u16 {
    let arity = kind.arity();
    (0..16).fold(0, |table, row: u16| {
        let pins: Vec<bool> = (0..arity).map(|p| row >> p & 1 == 1).collect();
        table | u16::from(kind.eval(&pins)) << row
    })
}

/// Cycle-accurate zero-delay simulator for a sequential design,
/// compiled into one flat program (see the module docs).
#[derive(Debug)]
pub struct SeqSim {
    num_inputs: usize,
    initial_state: Vec<bool>,
    /// Value-array length: sources, then every gate output.
    num_values: usize,
    /// All macros' gates, macro by macro, each in topological order.
    gates: Vec<FlatGate>,
    /// Every macro's boundary inputs as source indices, concatenated in
    /// macro order; macro `m`'s are `macro_inputs[bounds[m]..bounds[m + 1]]`.
    macro_inputs: Vec<u32>,
    bounds: Vec<usize>,
    /// The clock edge: `(latch Q, value of its D)` index pairs.
    next_state: Vec<(u32, u32)>,
    /// `(primary output, value index)` pairs.
    outputs: Vec<(u32, u32)>,
    num_outputs: usize,
    /// Per-macro golden switched capacitance of a boundary pair.
    macros: Vec<ZeroDelaySim>,
}

impl SeqSim {
    /// Compiles every macro of `seq` into the flat program.
    pub fn new(seq: &SeqNetlist) -> SeqSim {
        let num_inputs = seq.num_inputs();
        let num_latches = seq.latches().len();
        let source = |src: BoundarySource| match src {
            BoundarySource::Primary(i) => i as u32,
            BoundarySource::State(l) => (num_inputs + l) as u32,
        };
        let mut next = (num_inputs + num_latches) as u32;
        let mut gates = Vec::with_capacity(seq.num_gates());
        let mut macro_inputs = Vec::new();
        let mut bounds = vec![0];
        let mut next_state = Vec::new();
        let mut outputs = Vec::new();
        for m in seq.macros() {
            let n = &m.netlist;
            let mut index = vec![u32::MAX; n.num_signals()];
            for (&sig, &src) in n.inputs().iter().zip(&m.inputs) {
                index[sig.index()] = source(src);
                macro_inputs.push(source(src));
            }
            bounds.push(macro_inputs.len());
            for (_, gate) in n.gates() {
                let mut pins = [0u32; 4];
                for (pin, s) in pins.iter_mut().zip(gate.inputs()) {
                    *pin = index[s.index()];
                }
                index[gate.output().index()] = next;
                gates.push(FlatGate {
                    table: truth_table(gate.kind()),
                    pins,
                    out: next,
                });
                next += 1;
            }
            for (o, sinks) in n.outputs().iter().zip(&m.outputs) {
                let value = index[o.index()];
                let q = |l: &usize| ((num_inputs + l) as u32, value);
                next_state.extend(sinks.next_state.iter().map(q));
                outputs.extend(sinks.primary.iter().map(|&p| (p as u32, value)));
            }
        }
        for &(l, src) in seq.passthroughs() {
            next_state.push(((num_inputs + l) as u32, source(src)));
        }
        for &(p, src) in seq.po_passthroughs() {
            outputs.push((p as u32, source(src)));
        }
        SeqSim {
            num_inputs,
            initial_state: seq.initial_state(),
            num_values: next as usize,
            gates,
            macro_inputs,
            bounds,
            next_state,
            outputs,
            num_outputs: seq.primary_outputs().len(),
            macros: seq
                .macros()
                .iter()
                .map(|m| ZeroDelaySim::new(&m.netlist))
                .collect(),
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

    /// Source bits per cycle: the primary inputs, then the latch Qs
    /// (the length of [`StateWalk::sources`]).
    pub fn num_sources(&self) -> usize {
        self.num_inputs + self.num_latches()
    }

    /// Macro `m`'s boundary inputs, in its netlist's input order, as
    /// indices into [`StateWalk::sources`].
    ///
    /// # Panics
    ///
    /// Panics if `m` is not a macro index.
    pub fn macro_sources(&self, m: usize) -> &[u32] {
        &self.macro_inputs[self.bounds[m]..self.bounds[m + 1]]
    }

    /// A state walk from reset (see [`StateWalk`]).
    pub fn walker(&self) -> StateWalk<'_> {
        let mut values = vec![false; self.num_values];
        values[self.num_inputs..self.num_sources()].copy_from_slice(&self.initial_state);
        StateWalk {
            sim: self,
            values,
            staged: Vec::with_capacity(self.next_state.len()),
            edge_pending: false,
        }
    }

    /// Runs the whole pattern sequence from reset, returning the primary
    /// outputs observed at each cycle.
    ///
    /// # Panics
    ///
    /// Panics if a pattern is not [`num_inputs`](Self::num_inputs) wide.
    pub fn run(&self, patterns: &[Vec<bool>]) -> Vec<Vec<bool>> {
        let mut walk = self.walker();
        patterns
            .iter()
            .map(|pi| {
                walk.cycle(pi);
                walk.outputs()
            })
            .collect()
    }

    /// Materializes each macro's boundary input sequence over the whole
    /// pattern run (one inner vector per cycle). This is the exact
    /// per-macro `(xⁱ, xᶠ)` source: consecutive entries are the macro's
    /// transition pairs.
    ///
    /// # Panics
    ///
    /// Panics if a pattern is not [`num_inputs`](Self::num_inputs) wide.
    pub fn macro_input_sequences(&self, patterns: &[Vec<bool>]) -> Vec<Vec<Vec<bool>>> {
        let mut seqs: Vec<Vec<Vec<bool>>> = self
            .macros
            .iter()
            .map(|_| Vec::with_capacity(patterns.len()))
            .collect();
        let mut walk = self.walker();
        for pi in patterns {
            walk.cycle(pi);
            let src = walk.sources();
            for (m, seq) in seqs.iter_mut().enumerate() {
                seq.push(
                    self.macro_sources(m)
                        .iter()
                        .map(|&s| src[s as usize])
                        .collect(),
                );
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
            .map(|(sim, seq)| {
                seq.windows(2)
                    .map(|w| sim.switching_capacitance(&w[0], &w[1]))
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

/// A cycle-by-cycle walk of a [`SeqSim`]'s flat program. It allocates
/// nothing after construction.
///
/// After [`cycle`](Self::cycle), the value array holds that cycle:
/// [`sources`](Self::sources) are the bits every macro boundary reads
/// and [`outputs`](Self::outputs) the primary outputs. The cycle's clock
/// edge is applied at the start of the next call.
#[derive(Debug)]
pub struct StateWalk<'s> {
    sim: &'s SeqSim,
    values: Vec<bool>,
    /// D values read before the edge writes any Q.
    staged: Vec<bool>,
    edge_pending: bool,
}

impl StateWalk<'_> {
    /// Clocks the previous cycle's latches, loads primary inputs `pi`
    /// and evaluates every gate.
    ///
    /// # Panics
    ///
    /// Panics if `pi` is not [`SeqSim::num_inputs`] wide.
    pub fn cycle(&mut self, pi: &[bool]) {
        let sim = self.sim;
        assert_eq!(pi.len(), sim.num_inputs, "pattern width mismatch");
        let values = &mut self.values;
        if self.edge_pending {
            self.staged.clear();
            self.staged
                .extend(sim.next_state.iter().map(|&(_, d)| values[d as usize]));
            for (&(q, _), &v) in sim.next_state.iter().zip(&self.staged) {
                values[q as usize] = v;
            }
        }
        values[..pi.len()].copy_from_slice(pi);
        for g in &sim.gates {
            let [a, b, c, d] = g.pins.map(|p| usize::from(values[p as usize]));
            values[g.out as usize] = g.table >> (a | b << 1 | c << 2 | d << 3) & 1 == 1;
        }
        self.edge_pending = true;
    }

    /// The current cycle's source bits: primary inputs, then latch Qs
    /// (all reset state before the first cycle).
    pub fn sources(&self) -> &[bool] {
        &self.values[..self.sim.num_sources()]
    }

    /// The current cycle's primary outputs (false for an output nothing
    /// drives).
    pub fn outputs(&self) -> Vec<bool> {
        let mut outs = vec![false; self.sim.num_outputs];
        for &(p, v) in &self.sim.outputs {
            outs[p as usize] = self.values[v as usize];
        }
        outs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use charfree_netlist::{blif, Library};

    /// The per-macro walk the flat program replaced, kept as its oracle:
    /// each cycle gathers every macro's boundary vector into a
    /// `Vec<bool>`, evaluates the macro on its own simulator and
    /// scatters the macro's outputs to latch Ds and primary outputs.
    struct MacroWalker {
        lanes: Vec<MacroLane>,
        passthroughs: Vec<(usize, BoundarySource)>,
        po_passthroughs: Vec<(usize, BoundarySource)>,
        state: Vec<bool>,
        next: Vec<bool>,
        outs: Vec<bool>,
        values: Vec<bool>,
        inputs: Vec<Vec<bool>>,
    }

    /// One macro's simulator plus its boundary wiring.
    struct MacroLane {
        sim: ZeroDelaySim,
        inputs: Vec<BoundarySource>,
        /// Per macro output: its position in [`ZeroDelaySim::eval`]'s
        /// dense value vector (inputs first, then gate outputs).
        out_pos: Vec<usize>,
        /// Per macro output: the latches whose D it drives, then the
        /// primary outputs it drives.
        sinks: Vec<(Vec<usize>, Vec<usize>)>,
    }

    fn source_bit(src: BoundarySource, pi: &[bool], state: &[bool]) -> bool {
        match src {
            BoundarySource::Primary(i) => pi[i],
            BoundarySource::State(i) => state[i],
        }
    }

    impl MacroWalker {
        fn new(seq: &SeqNetlist) -> MacroWalker {
            let lanes = seq
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
            MacroWalker {
                lanes,
                passthroughs: seq.passthroughs().to_vec(),
                po_passthroughs: seq.po_passthroughs().to_vec(),
                state: seq.initial_state(),
                next: Vec::new(),
                outs: vec![false; seq.primary_outputs().len()],
                values: Vec::new(),
                inputs: Vec::new(),
            }
        }

        /// One clock cycle on `pi`: returns every macro's boundary
        /// vector; `outs` holds the cycle's primary outputs.
        fn cycle(&mut self, pi: &[bool]) -> &[Vec<bool>] {
            self.inputs.resize_with(self.lanes.len(), Vec::new);
            for (m, v) in self.lanes.iter().zip(&mut self.inputs) {
                v.clear();
                v.extend(m.inputs.iter().map(|&src| source_bit(src, pi, &self.state)));
            }
            // Latches no macro drives keep their value.
            self.next.clone_from(&self.state);
            self.outs.fill(false);
            for (m, v) in self.lanes.iter().zip(&self.inputs) {
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
            for &(l, src) in &self.passthroughs {
                self.next[l] = source_bit(src, pi, &self.state);
            }
            for &(p, src) in &self.po_passthroughs {
                self.outs[p] = source_bit(src, pi, &self.state);
            }
            std::mem::swap(&mut self.state, &mut self.next);
            &self.inputs
        }
    }

    /// Steps the flat walk and the per-macro oracle side by side over
    /// `len` Markov patterns and compares, cycle by cycle, every macro's
    /// boundary vector and the primary outputs. Returns the outputs.
    fn walk_against_oracle(seq: &SeqNetlist, len: usize, seed: u64) -> Vec<Vec<bool>> {
        let sim = SeqSim::new(seq);
        let mut oracle = MacroWalker::new(seq);
        let mut walk = sim.walker();
        let patterns = crate::MarkovSource::new(seq.num_inputs(), 0.5, 0.4, seed)
            .expect("feasible stats")
            .sequence(len);
        let mut outs = Vec::with_capacity(len);
        for (t, pi) in patterns.iter().enumerate() {
            let want = oracle.cycle(pi).to_vec();
            walk.cycle(pi);
            let src = walk.sources();
            assert_eq!(want.len(), sim.num_macros());
            for (m, want) in want.iter().enumerate() {
                let got: Vec<bool> = sim
                    .macro_sources(m)
                    .iter()
                    .map(|&s| src[s as usize])
                    .collect();
                assert_eq!(&got, want, "{}: macro {m} boundary, cycle {t}", seq.name());
            }
            assert_eq!(
                walk.outputs(),
                oracle.outs,
                "{}: outputs, cycle {t}",
                seq.name()
            );
            outs.push(walk.outputs());
        }
        assert_eq!(sim.run(&patterns), outs);
        outs
    }

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

    #[test]
    fn flat_walk_matches_the_per_macro_oracle_on_generated_designs() {
        use charfree_conform::gen::{seq_blif, SeqGenConfig};
        for seed in 0..64u64 {
            let cfg = SeqGenConfig {
                num_inputs: 1 + seed as usize % 6,
                stages: 1 + seed as usize % 4,
                gates_per_stage: 2 + seed as usize % 11,
                latches_per_stage: 1 + seed as usize % 3,
            };
            let seq = annotated(&seq_blif("gen", seed, &cfg));
            walk_against_oracle(&seq, 150, seed);
        }
    }

    #[test]
    fn flat_walk_matches_the_per_macro_oracle_on_edge_wiring() {
        // A latch whose D is a primary input, a latch whose D is another
        // latch's Q (a shift register), and a primary output read
        // straight off a latch Q: all passthroughs, no gate in between.
        const SHIFT: &str = "\
.model shift
.inputs d
.outputs q2 y
.latch d q1 0
.latch q1 q2 1
.gate and2 a=q1 b=q2 O=y
.end
";
        let outs = walk_against_oracle(&annotated(SHIFT), 40, 1);
        assert!(outs[0][0], "q2 reads its reset value at cycle 0");
        // A latch that nothing drives (its D is its own Q) keeps its
        // reset value for ever.
        const HOLD: &str = "\
.model hold
.inputs a
.outputs y
.latch h h 1
.gate and2 a=a b=h O=y
.end
";
        let sim = SeqSim::new(&annotated(HOLD));
        assert_eq!(sim.macro_sources(0).len(), 2);
        let outs = walk_against_oracle(&annotated(HOLD), 40, 2);
        let ins = crate::MarkovSource::new(1, 0.5, 0.4, 2)
            .expect("feasible stats")
            .sequence(40);
        for (o, i) in outs.iter().zip(&ins) {
            assert_eq!(o[0], i[0], "h holds 1, so y follows a");
        }
        // A primary output read straight off a primary input.
        const WIRE: &str = "\
.model wire
.inputs a b
.outputs a y
.gate xor2 a=a b=q O=y
.latch y q 0
.end
";
        walk_against_oracle(&annotated(WIRE), 40, 3);
        // A macro output that is also read inside the macro and fed back
        // to the macro's own boundary through a latch.
        const LOOP: &str = "\
.model loop
.inputs a b
.outputs s t
.gate xor2 a=a b=q O=s
.gate nand2 a=s b=b O=t
.gate or2 a=s b=t O=d
.latch s q 0
.latch d r 1
.gate and2 a=r b=a O=u
.latch u w 0
.end
";
        walk_against_oracle(&annotated(LOOP), 80, 4);
        // A design with no macros at all.
        const NONE: &str = ".model sr\n.inputs d\n.outputs q\n.latch d q 0\n.end\n";
        let seq = annotated(NONE);
        assert!(seq.macros().is_empty());
        let outs = walk_against_oracle(&seq, 10, 5);
        let ins = crate::MarkovSource::new(1, 0.5, 0.4, 5)
            .expect("feasible stats")
            .sequence(10);
        assert!(!outs[0][0]);
        for t in 1..10 {
            assert_eq!(outs[t][0], ins[t - 1][0], "q is d one cycle late");
        }
    }

    #[test]
    #[should_panic(expected = "pattern width mismatch")]
    fn a_short_pattern_panics() {
        let sim = SeqSim::new(&annotated(PIPE2));
        let mut walk = sim.walker();
        walk.cycle(&[true, false]);
        walk.cycle(&[true]);
    }

    #[test]
    #[should_panic(expected = "pattern width mismatch")]
    fn a_long_pattern_panics() {
        let sim = SeqSim::new(&annotated(PIPE2));
        sim.run(&[vec![true, false, true]]);
    }
}
