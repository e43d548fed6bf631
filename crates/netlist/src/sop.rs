//! Sum-of-products covers and their synthesis into library gates.
//!
//! BLIF `.names` nodes carry their logic as a PLA-style cover. To obtain a
//! *gate-level* golden model (the paper maps benchmarks onto a test gate
//! library), covers are decomposed into inverter / AND / OR trees of
//! bounded fan-in.

use crate::library::CellKind;
use crate::netlist::{Netlist, NetlistError, SignalId};

/// One literal position in a cube: the input is required `true`, required
/// `false`, or unconstrained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LitValue {
    /// Input must be 0 (`0` in PLA notation).
    Zero,
    /// Input must be 1 (`1` in PLA notation).
    One,
    /// Don't care (`-` in PLA notation).
    DontCare,
}

/// A product term over `k` ordered inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cube(pub Vec<LitValue>);

impl Cube {
    /// Evaluates the cube (conjunction of its literals).
    pub fn eval(&self, inputs: &[bool]) -> bool {
        self.0.iter().zip(inputs).all(|(lit, &v)| match lit {
            LitValue::Zero => !v,
            LitValue::One => v,
            LitValue::DontCare => true,
        })
    }

    /// Parses PLA notation (`01-0…`).
    ///
    /// Returns `None` on any character outside `{0,1,-}`.
    pub fn parse(s: &str) -> Option<Cube> {
        s.chars()
            .map(|c| match c {
                '0' => Some(LitValue::Zero),
                '1' => Some(LitValue::One),
                '-' => Some(LitValue::DontCare),
                _ => None,
            })
            .collect::<Option<Vec<_>>>()
            .map(Cube)
    }
}

/// A single-output sum-of-products cover.
///
/// `polarity = true` means the cover lists the ON-set (function = OR of
/// cubes); `false` means it lists the OFF-set (function = NOR of cubes),
/// matching BLIF's output-column convention.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sop {
    /// Number of inputs every cube ranges over.
    pub num_inputs: usize,
    /// The product terms.
    pub cubes: Vec<Cube>,
    /// `true` = ON-set cover, `false` = OFF-set cover.
    pub polarity: bool,
}

impl Sop {
    /// Evaluates the cover.
    pub fn eval(&self, inputs: &[bool]) -> bool {
        let any = self.cubes.iter().any(|c| c.eval(inputs));
        if self.polarity {
            any
        } else {
            !any
        }
    }

    /// `true` if the cover denotes a constant function (no inputs or no
    /// cubes).
    fn is_constant(&self) -> bool {
        self.num_inputs == 0 || self.cubes.is_empty()
    }
}

/// Builds a balanced tree of AND/OR gates over `signals`.
///
/// Uses 3-input cells where possible, 2-input for the remainder; a single
/// signal is returned unchanged.
fn reduce_tree(
    netlist: &mut Netlist,
    mut signals: Vec<SignalId>,
    two: CellKind,
    three: CellKind,
) -> Result<SignalId, NetlistError> {
    assert!(!signals.is_empty(), "reduce_tree needs at least one signal");
    while signals.len() > 1 {
        let mut next = Vec::with_capacity(signals.len() / 2 + 1);
        let mut chunk = signals.as_slice();
        while !chunk.is_empty() {
            match chunk.len() {
                1 => {
                    next.push(chunk[0]);
                    chunk = &chunk[1..];
                }
                2 | 4 => {
                    next.push(netlist.add_gate(two, &chunk[..2])?);
                    chunk = &chunk[2..];
                }
                _ => {
                    next.push(netlist.add_gate(three, &chunk[..3])?);
                    chunk = &chunk[3..];
                }
            }
        }
        signals = next;
    }
    Ok(signals[0])
}

/// Synthesizes `sop` into gates of `netlist` over the given input signals,
/// returning the signal computing the cover.
///
/// Inverters are shared per input. A pass-through cover (single positive
/// literal) becomes a buffer so that the result is always a fresh,
/// nameable gate output.
///
/// # Errors
///
/// Propagates netlist construction errors. Degenerate covers —
/// a constant function, a tautological cube, or an `inputs` slice whose
/// length disagrees with `sop.num_inputs` — are rejected with
/// [`NetlistError::UnsynthesizableCover`]: the golden model is a pure
/// gate network with no constant generators.
pub fn synthesize_sop(
    netlist: &mut Netlist,
    sop: &Sop,
    inputs: &[SignalId],
) -> Result<SignalId, NetlistError> {
    if inputs.len() != sop.num_inputs {
        return Err(NetlistError::UnsynthesizableCover(format!(
            "cover ranges over {} inputs but {} signals were supplied",
            sop.num_inputs,
            inputs.len()
        )));
    }
    if sop.is_constant() {
        return Err(NetlistError::UnsynthesizableCover(
            "constant covers cannot be synthesized into the gate library".to_owned(),
        ));
    }

    // Shared inverters, created on demand.
    let mut inverted: Vec<Option<SignalId>> = vec![None; inputs.len()];
    let mut cube_outputs = Vec::with_capacity(sop.cubes.len());
    for cube in &sop.cubes {
        let mut lits = Vec::new();
        for (i, lit) in cube.0.iter().enumerate() {
            match lit {
                LitValue::DontCare => {}
                LitValue::One => lits.push(inputs[i]),
                LitValue::Zero => {
                    let inv = match inverted[i] {
                        Some(s) => s,
                        None => {
                            let s = netlist.add_gate(CellKind::Inv, &[inputs[i]])?;
                            inverted[i] = Some(s);
                            s
                        }
                    };
                    lits.push(inv);
                }
            }
        }
        // A cube with no literals is the constant 1 — the cover is constant
        // and was rejected above unless another cube narrows it; treat a
        // full don't-care cube as constant as well.
        if lits.is_empty() {
            return Err(NetlistError::UnsynthesizableCover(
                "tautological cube makes the cover constant".to_owned(),
            ));
        }
        cube_outputs.push(reduce_tree(netlist, lits, CellKind::And2, CellKind::And3)?);
    }

    let or_out = reduce_tree(netlist, cube_outputs, CellKind::Or2, CellKind::Or3)?;
    let result = if sop.polarity {
        // Ensure the node output is a fresh gate (nameable), even for a
        // single positive literal.
        if sop.cubes.len() == 1 && netlist.driver(or_out).is_none() {
            netlist.add_gate(CellKind::Buf, &[or_out])?
        } else {
            or_out
        }
    } else {
        netlist.add_gate(CellKind::Inv, &[or_out])?
    };
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::Library;

    fn eval_netlist(n: &Netlist, out: SignalId, inputs: &[bool]) -> bool {
        // Tiny local evaluator (the real one lives in charfree-sim).
        let mut values = vec![false; n.num_signals()];
        for (i, &sig) in n.inputs().iter().enumerate() {
            values[sig.index()] = inputs[i];
        }
        for (_, gate) in n.gates() {
            let ins: Vec<bool> = gate.inputs().iter().map(|s| values[s.index()]).collect();
            values[gate.output().index()] = gate.kind().eval(&ins);
        }
        values[out.index()]
    }

    fn check_sop(sop: &Sop) {
        let mut n = Netlist::new("t");
        let inputs: Vec<SignalId> = (0..sop.num_inputs)
            .map(|i| n.add_input(format!("i{i}")).expect("fresh"))
            .collect();
        let out = synthesize_sop(&mut n, sop, &inputs).expect("synthesizable");
        n.mark_output(out).expect("ok");
        n.annotate_loads(&Library::test_library());
        for bits in 0..1u32 << sop.num_inputs {
            let asg: Vec<bool> = (0..sop.num_inputs).map(|i| bits >> i & 1 == 1).collect();
            assert_eq!(
                eval_netlist(&n, out, &asg),
                sop.eval(&asg),
                "sop={sop:?} bits={bits:b}"
            );
        }
    }

    #[test]
    fn cube_parse_and_eval() {
        let c = Cube::parse("01-").expect("valid");
        assert!(c.eval(&[false, true, false]));
        assert!(c.eval(&[false, true, true]));
        assert!(!c.eval(&[true, true, true]));
        assert!(Cube::parse("01x").is_none());
    }

    #[test]
    fn on_set_cover() {
        // f = a'b + c over 3 inputs.
        let sop = Sop {
            num_inputs: 3,
            cubes: vec![
                Cube::parse("01-").expect("ok"),
                Cube::parse("--1").expect("ok"),
            ],
            polarity: true,
        };
        check_sop(&sop);
    }

    #[test]
    fn off_set_cover() {
        // OFF-set {a=1,b=1}: f = !(ab).
        let sop = Sop {
            num_inputs: 2,
            cubes: vec![Cube::parse("11").expect("ok")],
            polarity: false,
        };
        check_sop(&sop);
    }

    #[test]
    fn single_positive_literal_gets_buffer() {
        let sop = Sop {
            num_inputs: 2,
            cubes: vec![Cube::parse("1-").expect("ok")],
            polarity: true,
        };
        let mut n = Netlist::new("t");
        let a = n.add_input("a").expect("fresh");
        let b = n.add_input("b").expect("fresh");
        let out = synthesize_sop(&mut n, &sop, &[a, b]).expect("ok");
        assert!(n.driver(out).is_some(), "must be a gate output");
        check_sop(&sop);
    }

    #[test]
    fn wide_cover_builds_trees() {
        // 7-input AND via one cube.
        let sop = Sop {
            num_inputs: 7,
            cubes: vec![Cube::parse("1111111").expect("ok")],
            polarity: true,
        };
        check_sop(&sop);
        // 5 cubes of single literals → OR tree.
        let sop = Sop {
            num_inputs: 5,
            cubes: (0..5)
                .map(|i| {
                    let mut s = vec!['-'; 5];
                    s[i] = '1';
                    Cube::parse(&s.into_iter().collect::<String>()).expect("ok")
                })
                .collect(),
            polarity: true,
        };
        check_sop(&sop);
    }

    #[test]
    fn inverters_are_shared() {
        // Two cubes both using a'.
        let sop = Sop {
            num_inputs: 2,
            cubes: vec![
                Cube::parse("01").expect("ok"),
                Cube::parse("00").expect("ok"),
            ],
            polarity: true,
        };
        let mut n = Netlist::new("t");
        let a = n.add_input("a").expect("fresh");
        let b = n.add_input("b").expect("fresh");
        let _ = synthesize_sop(&mut n, &sop, &[a, b]).expect("ok");
        let inv_count = n.gates().filter(|(_, g)| g.kind() == CellKind::Inv).count();
        assert_eq!(inv_count, 2, "one inverter per negated input, shared");
    }

    #[test]
    fn constant_cover_rejected() {
        let sop = Sop {
            num_inputs: 2,
            cubes: vec![],
            polarity: true,
        };
        let mut n = Netlist::new("t");
        let a = n.add_input("a").expect("fresh");
        let b = n.add_input("b").expect("fresh");
        let err = synthesize_sop(&mut n, &sop, &[a, b]).expect_err("constant cover");
        assert!(matches!(err, NetlistError::UnsynthesizableCover(_)));
        assert!(err.to_string().contains("constant"), "{err}");
    }

    #[test]
    fn mismatched_input_count_rejected() {
        let sop = Sop {
            num_inputs: 2,
            cubes: vec![Cube::parse("11").expect("ok")],
            polarity: true,
        };
        let mut n = Netlist::new("t");
        let a = n.add_input("a").expect("fresh");
        let err = synthesize_sop(&mut n, &sop, &[a]).expect_err("too few signals");
        assert!(matches!(err, NetlistError::UnsynthesizableCover(_)));
    }

    #[test]
    fn tautological_cube_rejected() {
        let sop = Sop {
            num_inputs: 2,
            cubes: vec![Cube::parse("--").expect("ok")],
            polarity: true,
        };
        let mut n = Netlist::new("t");
        let a = n.add_input("a").expect("fresh");
        let b = n.add_input("b").expect("fresh");
        let err = synthesize_sop(&mut n, &sop, &[a, b]).expect_err("tautology");
        assert!(err.to_string().contains("tautological"), "{err}");
    }
}
