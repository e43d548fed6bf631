//! Zero-delay gate-level simulation — the paper's golden model.
//!
//! Under the zero-delay model every gate output changes at most once per
//! input transition, and the only structural power phenomenon is the charge
//! of load capacitances on *rising* outputs (paper, Section 2): for a
//! transition `(xⁱ, xᶠ)` the switched capacitance is
//! `C(xⁱ,xᶠ) = Σ_{gⱼ ∈ S_R} C_j` with
//! `S_R = { g_j | g_j(xⁱ)=0 ∧ g_j(xᶠ)=1 }` (Eqs. 2–3).

use charfree_netlist::units::{Capacitance, Energy, Voltage};
use charfree_netlist::{CellKind, Netlist};

/// A compiled zero-delay simulator for one netlist.
///
/// Compilation flattens the netlist into dense index arrays so repeated
/// evaluation is branch-light; the word-parallel entry points process 64
/// patterns per sweep.
///
/// # Examples
///
/// Example 1 of the paper: `C(11, 00) = 90 fF` on the Fig. 2 unit.
///
/// ```
/// use charfree_netlist::benchmarks::paper_unit;
/// use charfree_sim::ZeroDelaySim;
///
/// let unit = paper_unit();
/// let sim = ZeroDelaySim::new(&unit);
/// let c = sim.switching_capacitance(&[true, true], &[false, false]);
/// assert_eq!(c.femtofarads(), 90.0);
/// ```
#[derive(Debug, Clone)]
pub struct ZeroDelaySim {
    num_inputs: usize,
    num_signals: usize,
    /// Flattened gates in topological order.
    gates: Vec<CompiledGate>,
}

#[derive(Debug, Clone)]
struct CompiledGate {
    kind: CellKind,
    inputs: Vec<u32>,
    output: u32,
    load_ff: f64,
}

impl ZeroDelaySim {
    /// Compiles `netlist` for simulation.
    ///
    /// # Panics
    ///
    /// Panics if the netlist fails [`Netlist::validate`].
    pub fn new(netlist: &Netlist) -> Self {
        netlist.validate().expect("netlist must be valid");
        // Primary-input signals must map to assignment positions; build a
        // signal-index remap: inputs first (in declaration order), then gate
        // outputs in topological order.
        let mut remap = vec![u32::MAX; netlist.num_signals()];
        for (i, &sig) in netlist.inputs().iter().enumerate() {
            remap[sig.index()] = i as u32;
        }
        for (next, (_, gate)) in (netlist.num_inputs() as u32..).zip(netlist.gates()) {
            remap[gate.output().index()] = next;
        }
        let gates = netlist
            .gates()
            .map(|(_, gate)| CompiledGate {
                kind: gate.kind(),
                inputs: gate.inputs().iter().map(|s| remap[s.index()]).collect(),
                output: remap[gate.output().index()],
                load_ff: gate.load().femtofarads(),
            })
            .collect();
        ZeroDelaySim {
            num_inputs: netlist.num_inputs(),
            num_signals: netlist.num_signals(),
            gates,
        }
    }

    /// Number of primary inputs expected in every pattern.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of gates.
    pub fn num_gates(&self) -> usize {
        self.gates.len()
    }

    /// Evaluates all signal values for one input pattern. The returned
    /// vector holds inputs first (in declaration order), then gate outputs
    /// in topological order.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.num_inputs()`.
    pub fn eval(&self, inputs: &[bool]) -> Vec<bool> {
        let mut values = Vec::new();
        self.eval_into(inputs, &mut values);
        values
    }

    /// [`eval`](Self::eval) into a caller-held buffer, which is resized
    /// to the signal count: once it has that capacity, evaluation
    /// allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.num_inputs()`.
    pub(crate) fn eval_into(&self, inputs: &[bool], values: &mut Vec<bool>) {
        assert_eq!(inputs.len(), self.num_inputs, "pattern width mismatch");
        values.clear();
        values.resize(self.num_signals, false);
        values[..inputs.len()].copy_from_slice(inputs);
        // No library cell has more than four pins.
        let mut pins = [false; 4];
        for gate in &self.gates {
            let pins = &mut pins[..gate.inputs.len()];
            for (pin, &i) in pins.iter_mut().zip(&gate.inputs) {
                *pin = values[i as usize];
            }
            values[gate.output as usize] = gate.kind.eval(pins);
        }
    }

    /// The switched capacitance for the input transition `(xi, xf)`
    /// (Eqs. 2–3): total load of all gates whose output rises.
    ///
    /// # Panics
    ///
    /// Panics if either pattern has the wrong width.
    pub fn switching_capacitance(&self, xi: &[bool], xf: &[bool]) -> Capacitance {
        let vi = self.eval(xi);
        let vf = self.eval(xf);
        let mut total = 0.0;
        for gate in &self.gates {
            let o = gate.output as usize;
            if !vi[o] && vf[o] {
                total += gate.load_ff;
            }
        }
        Capacitance(total)
    }

    /// Supply energy drawn for the transition, `e = Vdd²·C` (Eq. 1).
    pub fn energy(&self, xi: &[bool], xf: &[bool], vdd: Voltage) -> Energy {
        Energy::from_switched(self.switching_capacitance(xi, xf), vdd)
    }

    /// Word-parallel evaluation: bit `b` of every word is an independent
    /// simulation slot. Returns all signal words (inputs first, then gate
    /// outputs).
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.num_inputs()`.
    pub fn eval_words(&self, inputs: &[u64]) -> Vec<u64> {
        assert_eq!(inputs.len(), self.num_inputs, "pattern width mismatch");
        let mut values = vec![0u64; self.num_signals];
        values[..inputs.len()].copy_from_slice(inputs);
        let mut pins = Vec::with_capacity(4);
        for gate in &self.gates {
            pins.clear();
            pins.extend(gate.inputs.iter().map(|&i| values[i as usize]));
            values[gate.output as usize] = gate.kind.eval_word(&pins);
        }
        values
    }

    /// Per-cycle switched capacitances for a pattern *sequence*.
    ///
    /// For `T` patterns this returns `T - 1` values: entry `t` is
    /// `C(pattern_t, pattern_{t+1})`. Internally the sequence is simulated
    /// 64 cycles per word; the rising-edge extraction costs one shift/mask
    /// pass per gate per word.
    ///
    /// # Panics
    ///
    /// Panics if any pattern has the wrong width or fewer than two patterns
    /// are supplied.
    pub fn switching_trace(&self, patterns: &[Vec<bool>]) -> Vec<Capacitance> {
        assert!(patterns.len() >= 2, "a trace needs at least two patterns");
        let t = patterns.len();
        let words = t.div_ceil(64);
        // Pack input signals: word w of input i holds cycles 64w..64w+63.
        let mut packed: Vec<Vec<u64>> = vec![vec![0u64; self.num_inputs]; words];
        for (cycle, p) in patterns.iter().enumerate() {
            assert_eq!(p.len(), self.num_inputs, "pattern width mismatch");
            let (w, b) = (cycle / 64, cycle % 64);
            for (i, &bit) in p.iter().enumerate() {
                if bit {
                    packed[w][i] |= 1u64 << b;
                }
            }
        }

        let mut energies = vec![0.0f64; t - 1];
        let mut prev_values: Option<Vec<u64>> = None;
        for (w, inputs) in packed.iter().enumerate() {
            let values = self.eval_words(inputs);
            let base = w * 64;
            let cycles_here = (t - base).min(64);
            for gate in &self.gates {
                let o = gate.output as usize;
                let v = values[o];
                // Transitions inside this word: cycle c -> c+1 is bit c vs
                // bit c+1.
                let mut rise = !v & (v >> 1);
                // Mask off transitions beyond the trace end.
                if cycles_here < 64 {
                    rise &= (1u64 << (cycles_here - 1)) - 1;
                }
                while rise != 0 {
                    let b = rise.trailing_zeros() as usize;
                    energies[base + b] += gate.load_ff;
                    rise &= rise - 1;
                }
                // Boundary transition from the previous word (its bit 63 to
                // our bit 0).
                if let Some(prev) = &prev_values {
                    let was = prev[o] >> 63 & 1;
                    let now = v & 1;
                    if was == 0 && now == 1 {
                        energies[base - 1] += gate.load_ff;
                    }
                }
            }
            prev_values = Some(values);
        }
        energies.into_iter().map(Capacitance).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use charfree_netlist::benchmarks::{by_name, paper_unit};
    use charfree_netlist::Library;

    #[test]
    fn example1_switching_capacitance() {
        let sim = ZeroDelaySim::new(&paper_unit());
        // Fig. 2b rows.
        let c = |xi: [bool; 2], xf: [bool; 2]| sim.switching_capacitance(&xi, &xf).femtofarads();
        assert_eq!(c([true, true], [false, false]), 90.0);
        assert_eq!(c([false, false], [false, false]), 0.0);
        assert_eq!(c([false, false], [false, true]), 10.0);
        assert_eq!(c([false, false], [true, false]), 10.0);
        assert_eq!(c([false, false], [true, true]), 10.0);
    }

    #[test]
    fn exhaustive_lut_is_consistent() {
        // Recompute the full Fig. 2b LUT through Eq. 4 semantics by hand.
        let sim = ZeroDelaySim::new(&paper_unit());
        for xi_bits in 0..4u32 {
            for xf_bits in 0..4u32 {
                let xi = [xi_bits & 1 != 0, xi_bits & 2 != 0];
                let xf = [xf_bits & 1 != 0, xf_bits & 2 != 0];
                let g = |x: [bool; 2]| [!x[0], !x[1], x[0] || x[1]];
                let (gi, gf) = (g(xi), g(xf));
                let loads = [40.0, 50.0, 10.0];
                let want: f64 = (0..3).filter(|&j| !gi[j] && gf[j]).map(|j| loads[j]).sum();
                assert_eq!(
                    sim.switching_capacitance(&xi, &xf).femtofarads(),
                    want,
                    "xi={xi_bits:02b} xf={xf_bits:02b}"
                );
            }
        }
    }

    #[test]
    fn energy_uses_vdd_squared() {
        let sim = ZeroDelaySim::new(&paper_unit());
        let e = sim.energy(&[true, true], &[false, false], Voltage(2.0));
        assert_eq!(e.femtojoules(), 4.0 * 90.0);
    }

    #[test]
    fn word_eval_matches_scalar() {
        let lib = Library::test_library();
        let sim = ZeroDelaySim::new(&by_name("cm85", &lib).expect("Table 1 name"));
        let n = sim.num_inputs();
        // 64 random-ish patterns per word.
        let mut words = vec![0u64; n];
        let mut scalars: Vec<Vec<bool>> = Vec::new();
        let mut state = 0xdead_beefu64;
        for slot in 0..64 {
            let mut pat = Vec::with_capacity(n);
            for word in words.iter_mut() {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let bit = state >> 62 & 1 == 1;
                pat.push(bit);
                if bit {
                    *word |= 1u64 << slot;
                }
            }
            scalars.push(pat);
        }
        let word_values = sim.eval_words(&words);
        for (slot, pat) in scalars.iter().enumerate() {
            let scalar_values = sim.eval(pat);
            for (sig, &wv) in word_values.iter().enumerate() {
                assert_eq!(
                    wv >> slot & 1 == 1,
                    scalar_values[sig],
                    "slot={slot} sig={sig}"
                );
            }
        }
    }

    #[test]
    fn trace_matches_pairwise_evaluation() {
        let lib = Library::test_library();
        let sim = ZeroDelaySim::new(&by_name("cm85", &lib).expect("Table 1 name"));
        let n = sim.num_inputs();
        let mut state = 0x1234u64;
        let patterns: Vec<Vec<bool>> = (0..150)
            .map(|_| {
                (0..n)
                    .map(|_| {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        state >> 62 & 1 == 1
                    })
                    .collect()
            })
            .collect();
        let trace = sim.switching_trace(&patterns);
        assert_eq!(trace.len(), patterns.len() - 1);
        for t in 0..patterns.len() - 1 {
            let want = sim.switching_capacitance(&patterns[t], &patterns[t + 1]);
            assert!(
                (trace[t].femtofarads() - want.femtofarads()).abs() < 1e-9,
                "cycle {t}"
            );
        }
    }

    #[test]
    fn trace_word_boundary_is_exact() {
        // Length 65/66 traces exercise the word boundary at cycle 63→64.
        let sim = ZeroDelaySim::new(&paper_unit());
        for len in [2usize, 63, 64, 65, 66, 130] {
            let patterns: Vec<Vec<bool>> = (0..len).map(|t| vec![t % 2 == 0, t % 3 == 0]).collect();
            let trace = sim.switching_trace(&patterns);
            for t in 0..len - 1 {
                let want = sim.switching_capacitance(&patterns[t], &patterns[t + 1]);
                assert_eq!(trace[t], want, "len={len} cycle={t}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn wrong_width_panics() {
        let sim = ZeroDelaySim::new(&paper_unit());
        let _ = sim.eval(&[true]);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn short_trace_panics() {
        let sim = ZeroDelaySim::new(&paper_unit());
        let _ = sim.switching_trace(&[vec![false, false]]);
    }
}
