//! Seeded circuit generation: random DAGs over the cell library plus
//! structured families (ripple-carry adders, mux trees, parity trees).
//!
//! Circuits are generated as a [`CircuitSpec`] — a plain, shrinkable
//! description with integer signal ids — and only lowered to a
//! [`Netlist`] (and from there to BLIF text) at check time, so the real
//! parser is always in the loop and the shrinker can edit the spec
//! without touching netlist internals.

use charfree_netlist::rng::{splitmix64, GOLDEN_GAMMA};
use charfree_netlist::{CellKind, Library, Netlist};

/// Deterministic SplitMix64 stream over the shared mix
/// ([`charfree_netlist::rng::splitmix64`]), so a corpus seed reproduces
/// forever.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Seeds the stream.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        let z = splitmix64(self.0);
        self.0 = self.0.wrapping_add(GOLDEN_GAMMA);
        z
    }

    /// Uniform draw in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform f64 in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One gate of a [`CircuitSpec`]. Fanin entries are signal ids: ids
/// `0..num_inputs` are primary inputs, id `num_inputs + j` is the output
/// of gate `j`. A gate may only reference earlier signals, so every spec
/// is a DAG by construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GateSpec {
    /// Library cell.
    pub kind: CellKind,
    /// Fanin signal ids (length = `kind.arity()`).
    pub fanin: Vec<usize>,
}

/// A shrinkable circuit description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CircuitSpec {
    /// Model name (becomes the BLIF `.model` name).
    pub name: String,
    /// Primary-input count.
    pub num_inputs: usize,
    /// Gates in topological order.
    pub gates: Vec<GateSpec>,
}

/// Knobs for [`CircuitSpec::random`].
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Primary inputs.
    pub num_inputs: usize,
    /// Gate count.
    pub num_gates: usize,
    /// Fanin locality window: a gate draws fanin from the most recent
    /// `window` signals (keeps depth/width interesting instead of
    /// degenerating into a flat layer).
    pub window: usize,
}

/// The cell mix random DAGs draw from (every 1-, 2- and 3-input cell of
/// the library that the benchmark generators also use).
const CELLS: [CellKind; 10] = [
    CellKind::Nand2,
    CellKind::Nor2,
    CellKind::And2,
    CellKind::Or2,
    CellKind::Xor2,
    CellKind::Xnor2,
    CellKind::Inv,
    CellKind::Aoi21,
    CellKind::Oai21,
    CellKind::Mux2,
];

impl CircuitSpec {
    /// A seeded random DAG.
    pub fn random(name: impl Into<String>, seed: u64, cfg: &GenConfig) -> CircuitSpec {
        let mut rng = SplitMix64::new(seed);
        let mut gates = Vec::with_capacity(cfg.num_gates);
        for j in 0..cfg.num_gates {
            let kind = CELLS[rng.below(CELLS.len())];
            let avail = cfg.num_inputs + j;
            let lo = avail.saturating_sub(cfg.window.max(1));
            let mut fanin = Vec::with_capacity(kind.arity());
            for _ in 0..kind.arity() {
                // Prefer a distinct pin from the locality window; fall back
                // to anywhere earlier when the window is saturated.
                let mut pick = lo + rng.below(avail - lo);
                if fanin.contains(&pick) {
                    pick = rng.below(avail);
                }
                fanin.push(pick);
            }
            gates.push(GateSpec { kind, fanin });
        }
        CircuitSpec {
            name: name.into(),
            num_inputs: cfg.num_inputs,
            gates,
        }
    }

    /// A `width`-bit ripple-carry adder (half adder at bit 0, full adders
    /// above); sums and the final carry become primary outputs.
    pub fn adder(width: usize) -> CircuitSpec {
        let width = width.max(1);
        let num_inputs = 2 * width;
        let a = |i: usize| i;
        let b = |i: usize| width + i;
        let mut gates: Vec<GateSpec> = Vec::new();
        let push = |kind: CellKind, fanin: Vec<usize>, gates: &mut Vec<GateSpec>| -> usize {
            gates.push(GateSpec { kind, fanin });
            num_inputs + gates.len() - 1
        };
        // Bit 0: s0 = a0 ^ b0, carry = a0 & b0.
        let s0 = push(CellKind::Xor2, vec![a(0), b(0)], &mut gates);
        let mut carry = push(CellKind::And2, vec![a(0), b(0)], &mut gates);
        let _sum0 = s0;
        for i in 1..width {
            let x = push(CellKind::Xor2, vec![a(i), b(i)], &mut gates);
            let _s = push(CellKind::Xor2, vec![x, carry], &mut gates);
            let g = push(CellKind::And2, vec![a(i), b(i)], &mut gates);
            let p = push(CellKind::And2, vec![x, carry], &mut gates);
            carry = push(CellKind::Or2, vec![g, p], &mut gates);
        }
        CircuitSpec {
            name: format!("adder{width}"),
            num_inputs,
            gates,
        }
    }

    /// A `depth`-level binary mux tree: `2^depth` data inputs selected by
    /// `depth` select lines (Mux2 fanin order: select, then-branch,
    /// else-branch).
    pub fn mux_tree(depth: usize) -> CircuitSpec {
        let depth = depth.max(1);
        let data = 1usize << depth;
        let num_inputs = data + depth;
        let sel = |l: usize| data + l;
        let mut gates: Vec<GateSpec> = Vec::new();
        let mut level: Vec<usize> = (0..data).collect();
        for l in 0..depth {
            let mut next = Vec::with_capacity(level.len() / 2);
            for pair in level.chunks(2) {
                gates.push(GateSpec {
                    kind: CellKind::Mux2,
                    fanin: vec![sel(l), pair[0], pair[1]],
                });
                next.push(num_inputs + gates.len() - 1);
            }
            level = next;
        }
        CircuitSpec {
            name: format!("muxtree{depth}"),
            num_inputs,
            gates,
        }
    }

    /// A balanced XOR parity tree over `inputs` bits.
    pub fn parity_tree(inputs: usize) -> CircuitSpec {
        let inputs = inputs.max(2);
        let mut gates: Vec<GateSpec> = Vec::new();
        let mut level: Vec<usize> = (0..inputs).collect();
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len() / 2 + 1);
            let mut it = level.chunks_exact(2);
            for pair in it.by_ref() {
                gates.push(GateSpec {
                    kind: CellKind::Xor2,
                    fanin: vec![pair[0], pair[1]],
                });
                next.push(inputs + gates.len() - 1);
            }
            next.extend(it.remainder().iter().copied());
            level = next;
        }
        CircuitSpec {
            name: format!("parity{inputs}"),
            num_inputs: inputs,
            gates,
        }
    }

    /// Lowers the spec into a validated, load-annotated [`Netlist`] —
    /// unconsumed gate outputs become primary outputs (the last gate is
    /// always unconsumed, so every spec has at least one output).
    ///
    /// # Errors
    ///
    /// Structural netlist errors (cannot happen for specs built by the
    /// constructors above; possible for hand-edited specs).
    pub fn build(&self, library: &Library) -> Result<Netlist, String> {
        let mut n = Netlist::new(self.name.clone());
        let mut sigs = Vec::with_capacity(self.num_inputs + self.gates.len());
        for i in 0..self.num_inputs {
            sigs.push(n.add_input(format!("i{i}")).map_err(|e| e.to_string())?);
        }
        for (j, g) in self.gates.iter().enumerate() {
            if g.fanin.len() != g.kind.arity() {
                return Err(format!("gate {j}: arity mismatch"));
            }
            let pins: Result<Vec<_>, String> = g
                .fanin
                .iter()
                .map(|&s| {
                    sigs.get(s)
                        .copied()
                        .ok_or_else(|| format!("gate {j}: forward reference to signal {s}"))
                })
                .collect();
            sigs.push(n.add_gate(g.kind, &pins?).map_err(|e| e.to_string())?);
        }
        let mut consumed = vec![false; sigs.len()];
        for g in &self.gates {
            for &s in &g.fanin {
                consumed[s] = true;
            }
        }
        for j in 0..self.gates.len() {
            let sig = self.num_inputs + j;
            if !consumed[sig] {
                n.mark_output(sigs[sig]).map_err(|e| e.to_string())?;
            }
        }
        n.annotate_loads(library);
        n.validate().map_err(|e| e.to_string())?;
        Ok(n)
    }

    /// Removes gate `j`, rewiring its consumers to the gate's first fanin
    /// signal. Signal ids above the removed output shift down by one.
    pub fn without_gate(&self, j: usize) -> CircuitSpec {
        let target = self.num_inputs + j;
        let replacement = self.gates[j].fanin[0];
        let remap = |s: usize| {
            let s = if s == target { replacement } else { s };
            if s > target {
                s - 1
            } else {
                s
            }
        };
        let gates = self
            .gates
            .iter()
            .enumerate()
            .filter(|&(k, _)| k != j)
            .map(|(_, g)| GateSpec {
                kind: g.kind,
                fanin: g.fanin.iter().map(|&s| remap(s)).collect(),
            })
            .collect();
        CircuitSpec {
            name: self.name.clone(),
            num_inputs: self.num_inputs,
            gates,
        }
    }

    /// Removes primary input `i` (needs at least 2 inputs), rewiring its
    /// consumers to another input. Callers must drop bit `i` from every
    /// trace pattern to match.
    pub fn without_input(&self, i: usize) -> CircuitSpec {
        assert!(self.num_inputs >= 2, "cannot shrink below one input");
        let replacement = usize::from(i == 0);
        let remap = |s: usize| {
            let s = if s == i { replacement } else { s };
            if s > i {
                s - 1
            } else {
                s
            }
        };
        CircuitSpec {
            name: self.name.clone(),
            num_inputs: self.num_inputs - 1,
            gates: self
                .gates
                .iter()
                .map(|g| GateSpec {
                    kind: g.kind,
                    fanin: g.fanin.iter().map(|&s| remap(s)).collect(),
                })
                .collect(),
        }
    }
}

/// Knobs for [`seq_blif`] — a seeded register-bounded sequential case.
#[derive(Debug, Clone)]
pub struct SeqGenConfig {
    /// Primary inputs.
    pub num_inputs: usize,
    /// Register-bounded combinational stages. Gate-to-gate wires never
    /// cross a stage (only latches do), so a design with two or more
    /// stages partitions into at least two macros.
    pub stages: usize,
    /// Gates per stage.
    pub gates_per_stage: usize,
    /// Latches capturing each stage's outputs.
    pub latches_per_stage: usize,
}

/// Emits a seeded sequential design as BLIF text with `.latch` lines —
/// the real sequential parser stays in the loop, exactly like the
/// combinational generator always round-trips through `blif::parse`.
///
/// Structure: `stages` combinational clouds. A gate reads primary
/// inputs, *any* latch output (including latches fed by later stages,
/// which is how cross-register feedback arises), and earlier gates of
/// its own stage. After each stage, `latches_per_stage` latches capture
/// seed-picked outputs of that stage with seeded init values. The first
/// gate of every stage is forced to read a register, so evolving state
/// always feeds the derived `(x^i, x^f)` pairs. Unconsumed gate outputs
/// become primary outputs.
pub fn seq_blif(name: &str, seed: u64, cfg: &SeqGenConfig) -> String {
    use std::fmt::Write as _;
    let mut rng = SplitMix64::new(seed);
    let n = cfg.num_inputs.max(1);
    let stages = cfg.stages.max(1);
    let per_stage = cfg.gates_per_stage.max(1);
    let latches = cfg.latches_per_stage.max(1);
    let num_latches = stages * latches;

    let input_names: Vec<String> = (0..n).map(|i| format!("i{i}")).collect();
    let q_names: Vec<String> = (0..num_latches).map(|l| format!("q{l}")).collect();
    const FORMALS: [&str; 4] = ["a", "b", "c", "d"];

    let mut gate_lines: Vec<String> = Vec::new();
    let mut latch_lines: Vec<String> = Vec::new();
    let mut all_gates: Vec<String> = Vec::new();
    let mut consumed: std::collections::HashSet<String> = std::collections::HashSet::new();
    for s in 0..stages {
        let mut stage_outs: Vec<String> = Vec::new();
        for j in 0..per_stage {
            let kind = CELLS[rng.below(CELLS.len())];
            let pool: Vec<String> = input_names
                .iter()
                .chain(q_names.iter())
                .chain(stage_outs.iter())
                .cloned()
                .collect();
            let out = format!("g{s}_{j}");
            let mut line = format!(".gate {}", kind.name());
            for (pin, formal) in FORMALS.iter().take(kind.arity()).enumerate() {
                let pick = if pin == 0 && j == 0 {
                    q_names[rng.below(num_latches)].clone()
                } else {
                    pool[rng.below(pool.len())].clone()
                };
                consumed.insert(pick.clone());
                let _ = write!(line, " {formal}={pick}");
            }
            let _ = write!(line, " O={out}");
            gate_lines.push(line);
            stage_outs.push(out.clone());
            all_gates.push(out);
        }
        for l in 0..latches {
            let q = &q_names[s * latches + l];
            let d = stage_outs[rng.below(stage_outs.len())].clone();
            consumed.insert(d.clone());
            latch_lines.push(format!(".latch {d} {q} {}", rng.below(2)));
        }
    }
    let mut outputs: Vec<String> = all_gates
        .iter()
        .filter(|g| !consumed.contains(*g))
        .cloned()
        .collect();
    if outputs.is_empty() {
        outputs.push(all_gates.last().expect("at least one gate").clone());
    }

    let mut out = String::new();
    let _ = writeln!(out, ".model {name}");
    let _ = writeln!(out, ".inputs {}", input_names.join(" "));
    let _ = writeln!(out, ".outputs {}", outputs.join(" "));
    for line in &gate_lines {
        let _ = writeln!(out, "{line}");
    }
    for line in &latch_lines {
        let _ = writeln!(out, "{line}");
    }
    out.push_str(".end\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_blifs_parse_partition_and_feed_state_back() {
        for seed in 0..12u64 {
            let cfg = SeqGenConfig {
                num_inputs: 3 + (seed as usize % 3),
                stages: 2,
                gates_per_stage: 4,
                latches_per_stage: 1 + (seed as usize % 2),
            };
            let text = seq_blif("sq", seed, &cfg);
            assert_eq!(text, seq_blif("sq", seed, &cfg), "deterministic");
            let seq = charfree_netlist::blif::parse_seq(&text)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{text}"));
            assert_eq!(seq.num_inputs(), cfg.num_inputs);
            assert_eq!(seq.latches().len(), cfg.stages * cfg.latches_per_stage);
            assert!(
                seq.macros().len() >= 2,
                "seed {seed}: stages never share gate-to-gate wires, got {} macro(s)\n{text}",
                seq.macros().len()
            );
        }
    }

    #[test]
    fn random_specs_build_and_validate() {
        let library = Library::test_library();
        for seed in 0..20u64 {
            let cfg = GenConfig {
                num_inputs: 4 + (seed as usize % 5),
                num_gates: 6 + (seed as usize % 20),
                window: 8,
            };
            let spec = CircuitSpec::random("t", seed, &cfg);
            let n = spec.build(&library).expect("valid spec");
            assert_eq!(n.num_inputs(), cfg.num_inputs);
            assert_eq!(n.num_gates(), cfg.num_gates);
            assert!(!n.outputs().is_empty());
        }
    }

    #[test]
    fn structured_families_have_expected_shape() {
        let library = Library::test_library();
        let add = CircuitSpec::adder(3).build(&library).expect("adder");
        assert_eq!(add.num_inputs(), 6);
        let mux = CircuitSpec::mux_tree(3).build(&library).expect("mux");
        assert_eq!(mux.num_inputs(), 11);
        assert_eq!(mux.outputs().len(), 1);
        let par = CircuitSpec::parity_tree(7).build(&library).expect("parity");
        assert_eq!(par.num_gates(), 6);
        assert_eq!(par.outputs().len(), 1);
    }

    #[test]
    fn shrink_ops_preserve_validity() {
        let library = Library::test_library();
        let cfg = GenConfig {
            num_inputs: 5,
            num_gates: 12,
            window: 6,
        };
        let mut spec = CircuitSpec::random("s", 7, &cfg);
        while !spec.gates.is_empty() {
            let j = spec.gates.len() - 1;
            spec = spec.without_gate(j);
            if !spec.gates.is_empty() {
                spec.build(&library)
                    .expect("still valid after gate removal");
            }
        }
        let mut spec = CircuitSpec::random("s", 9, &cfg);
        while spec.num_inputs > 1 {
            spec = spec.without_input(spec.num_inputs - 1);
            spec.build(&library)
                .expect("still valid after input removal");
        }
    }
}
