//! Structural (gate-level) Verilog reader and writer.
//!
//! Covers the flat, mapped subset that EDA flows exchange after technology
//! mapping: one `module` of library-cell instances with named port
//! connections. Cells are the [`Library`](crate::Library) cells with pins
//! `a b c d` and output `O`, matching the BLIF `.gate` convention, e.g.
//!
//! ```verilog
//! module unit_u (x1, x2, g1, g2, g3);
//!   input x1, x2;
//!   output g1, g2, g3;
//!   inv u0 (.a(x1), .O(g1));
//!   inv u1 (.a(x2), .O(g2));
//!   or2 u2 (.a(x1), .b(x2), .O(g3));
//! endmodule
//! ```
//!
//! The writer emits exactly this shape; the reader additionally accepts
//! `wire` declarations, positional whitespace freedom, `//` line comments
//! and `/* … */` block comments.

use crate::library::CellKind;
use crate::netlist::{Netlist, NetlistError, SignalId};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Errors produced by the Verilog reader.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerilogError {
    /// Lexical or structural problem, with a byte offset and description.
    Syntax(usize, String),
    /// Instance references a cell not in the library.
    UnknownCell(String),
    /// A net is used but neither an input nor driven by any instance.
    Undriven(String),
    /// Two drivers for one net, or an input driven by an instance.
    MultipleDrivers(String),
    /// Instances form a combinational cycle.
    Cycle(String),
    /// Netlist construction failed.
    Netlist(NetlistError),
}

impl fmt::Display for VerilogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerilogError::Syntax(pos, msg) => write!(f, "offset {pos}: {msg}"),
            VerilogError::UnknownCell(c) => write!(f, "unknown library cell `{c}`"),
            VerilogError::Undriven(n) => write!(f, "net `{n}` has no driver"),
            VerilogError::MultipleDrivers(n) => write!(f, "net `{n}` has multiple drivers"),
            VerilogError::Cycle(n) => write!(f, "combinational cycle through `{n}`"),
            VerilogError::Netlist(e) => write!(f, "netlist error: {e}"),
        }
    }
}

impl Error for VerilogError {}

impl From<NetlistError> for VerilogError {
    fn from(e: NetlistError) -> Self {
        VerilogError::Netlist(e)
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Ident(String),
    Symbol(char),
}

fn lex(text: &str) -> Result<Vec<(usize, Token)>, VerilogError> {
    let bytes = text.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c.is_whitespace() {
            i += 1;
        } else if c == '/' && bytes.get(i + 1) == Some(&b'/') {
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
        } else if c == '/' && bytes.get(i + 1) == Some(&b'*') {
            let close = text[i + 2..]
                .find("*/")
                .ok_or_else(|| VerilogError::Syntax(i, "unterminated block comment".into()))?;
            i += close + 4;
        } else if c.is_ascii_alphanumeric() || c == '_' || c == '\\' || c == '$' {
            let start = i;
            while i < bytes.len() {
                let ch = bytes[i] as char;
                if ch.is_ascii_alphanumeric() || ch == '_' || ch == '\\' || ch == '$' {
                    i += 1;
                } else {
                    break;
                }
            }
            tokens.push((start, Token::Ident(text[start..i].to_owned())));
        } else if "();,.".contains(c) {
            tokens.push((i, Token::Symbol(c)));
            i += 1;
        } else {
            return Err(VerilogError::Syntax(
                i,
                format!("unexpected character `{c}`"),
            ));
        }
    }
    Ok(tokens)
}

#[derive(Debug)]
struct Instance {
    cell: CellKind,
    /// `pins[pin_index]` = net name; last entry is the output.
    inputs: Vec<String>,
    output: String,
}

/// Parses a flat structural Verilog module into a mapped [`Netlist`].
///
/// # Errors
///
/// See [`VerilogError`]. Behavioral constructs (`assign`, `always`, …) are
/// rejected.
///
/// # Examples
///
/// ```
/// use charfree_netlist::verilog;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let text = "
/// module tiny (a, b, y);
///   input a, b;   // operands
///   output y;
///   nand2 u0 (.a(a), .b(b), .O(y));
/// endmodule
/// ";
/// let netlist = verilog::parse(text)?;
/// assert_eq!(netlist.num_gates(), 1);
/// # Ok(())
/// # }
/// ```
pub fn parse(text: &str) -> Result<Netlist, VerilogError> {
    let tokens = lex(text)?;
    let mut pos = 0usize;

    let err = |pos: usize, msg: &str, tokens: &[(usize, Token)]| -> VerilogError {
        let off = tokens
            .get(pos)
            .map(|(o, _)| *o)
            .unwrap_or_else(|| tokens.last().map(|(o, _)| *o).unwrap_or(0));
        VerilogError::Syntax(off, msg.to_owned())
    };
    let expect_ident =
        |pos: &mut usize, tokens: &[(usize, Token)]| -> Result<String, VerilogError> {
            match tokens.get(*pos) {
                Some((_, Token::Ident(s))) => {
                    *pos += 1;
                    Ok(s.clone())
                }
                _ => Err(err(*pos, "expected identifier", tokens)),
            }
        };
    let expect_sym =
        |pos: &mut usize, c: char, tokens: &[(usize, Token)]| -> Result<(), VerilogError> {
            match tokens.get(*pos) {
                Some((_, Token::Symbol(s))) if *s == c => {
                    *pos += 1;
                    Ok(())
                }
                _ => Err(err(*pos, &format!("expected `{c}`"), tokens)),
            }
        };
    let peek_sym = |pos: usize, c: char, tokens: &[(usize, Token)]| -> bool {
        matches!(tokens.get(pos), Some((_, Token::Symbol(s))) if *s == c)
    };

    // module <name> ( ports ) ;
    if expect_ident(&mut pos, &tokens)? != "module" {
        return Err(err(0, "expected `module`", &tokens));
    }
    let name = expect_ident(&mut pos, &tokens)?;
    expect_sym(&mut pos, '(', &tokens)?;
    while !peek_sym(pos, ')', &tokens) {
        let _ = expect_ident(&mut pos, &tokens)?;
        if peek_sym(pos, ',', &tokens) {
            pos += 1;
        }
    }
    expect_sym(&mut pos, ')', &tokens)?;
    expect_sym(&mut pos, ';', &tokens)?;

    let mut inputs: Vec<String> = Vec::new();
    let mut outputs: Vec<String> = Vec::new();
    let mut instances: Vec<Instance> = Vec::new();

    loop {
        let keyword = expect_ident(&mut pos, &tokens)?;
        match keyword.as_str() {
            "endmodule" => break,
            "input" | "output" | "wire" => {
                loop {
                    let net = expect_ident(&mut pos, &tokens)?;
                    match keyword.as_str() {
                        "input" => inputs.push(net),
                        "output" => outputs.push(net),
                        _ => {} // wires are implied by use
                    }
                    if peek_sym(pos, ',', &tokens) {
                        pos += 1;
                    } else {
                        break;
                    }
                }
                expect_sym(&mut pos, ';', &tokens)?;
            }
            "assign" | "always" | "reg" => {
                return Err(err(
                    pos - 1,
                    "behavioral constructs are not supported (structural netlists only)",
                    &tokens,
                ));
            }
            cell_name => {
                let cell = CellKind::from_name(cell_name)
                    .ok_or_else(|| VerilogError::UnknownCell(cell_name.to_owned()))?;
                let _instance_name = expect_ident(&mut pos, &tokens)?;
                expect_sym(&mut pos, '(', &tokens)?;
                let mut bound: HashMap<String, String> = HashMap::new();
                while !peek_sym(pos, ')', &tokens) {
                    expect_sym(&mut pos, '.', &tokens)?;
                    let formal = expect_ident(&mut pos, &tokens)?;
                    expect_sym(&mut pos, '(', &tokens)?;
                    let actual = expect_ident(&mut pos, &tokens)?;
                    expect_sym(&mut pos, ')', &tokens)?;
                    if bound.insert(formal.clone(), actual).is_some() {
                        return Err(err(pos, &format!("pin `{formal}` bound twice"), &tokens));
                    }
                    if peek_sym(pos, ',', &tokens) {
                        pos += 1;
                    }
                }
                expect_sym(&mut pos, ')', &tokens)?;
                expect_sym(&mut pos, ';', &tokens)?;

                let output = bound
                    .remove("O")
                    .ok_or_else(|| err(pos, "instance missing output pin O", &tokens))?;
                let formals = ["a", "b", "c", "d"];
                let mut ins = Vec::with_capacity(cell.arity());
                for formal in formals.iter().take(cell.arity()) {
                    let actual = bound.remove(*formal).ok_or_else(|| {
                        err(pos, &format!("instance missing pin `{formal}`"), &tokens)
                    })?;
                    ins.push(actual);
                }
                if !bound.is_empty() {
                    return Err(err(pos, "instance has extra pins", &tokens));
                }
                instances.push(Instance {
                    cell,
                    inputs: ins,
                    output,
                });
            }
        }
    }

    elaborate(name, inputs, outputs, instances)
}

fn elaborate(
    name: String,
    inputs: Vec<String>,
    outputs: Vec<String>,
    instances: Vec<Instance>,
) -> Result<Netlist, VerilogError> {
    // Single-driver check & index.
    let mut driver_of: HashMap<&str, usize> = HashMap::new();
    for (i, inst) in instances.iter().enumerate() {
        if driver_of.insert(inst.output.as_str(), i).is_some() || inputs.contains(&inst.output) {
            return Err(VerilogError::MultipleDrivers(inst.output.clone()));
        }
    }

    let mut netlist = Netlist::new(name);
    let mut sig: HashMap<String, SignalId> = HashMap::new();
    for input in &inputs {
        let id = netlist.add_input(input.clone())?;
        sig.insert(input.clone(), id);
    }

    // Iterative DFS topological elaboration over a stack of instance
    // indices. An instance's first visit pushes all of its unresolved
    // drivers at once, so they are emitted last pin first; its second
    // visit, once they are done, emits the instance itself. (The BLIF
    // reader instead walks `(node, next_pin)` pairs in pin order.)
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        Visiting,
        Done,
    }
    let mut marks: HashMap<usize, Mark> = HashMap::new();
    for start in 0..instances.len() {
        if marks.get(&start) == Some(&Mark::Done) {
            continue;
        }
        let mut stack: Vec<usize> = vec![start];
        while let Some(&node) = stack.last() {
            match marks.get(&node) {
                Some(Mark::Done) => {
                    stack.pop();
                    continue;
                }
                Some(Mark::Visiting) => {
                    // All dependencies visited (or cycle) — try to emit.
                    let inst = &instances[node];
                    let mut ids = Vec::with_capacity(inst.inputs.len());
                    for pin in &inst.inputs {
                        match sig.get(pin.as_str()) {
                            Some(&id) => ids.push(id),
                            None => return Err(VerilogError::Cycle(pin.clone())),
                        }
                    }
                    let out = netlist.add_gate_named(inst.cell, &ids, inst.output.clone())?;
                    sig.insert(inst.output.clone(), out);
                    marks.insert(node, Mark::Done);
                    stack.pop();
                }
                None => {
                    marks.insert(node, Mark::Visiting);
                    let inst = &instances[node];
                    for pin in &inst.inputs {
                        if sig.contains_key(pin.as_str()) {
                            continue;
                        }
                        match driver_of.get(pin.as_str()) {
                            Some(&dep) => match marks.get(&dep) {
                                Some(Mark::Done) => {}
                                Some(Mark::Visiting) => {
                                    return Err(VerilogError::Cycle(pin.clone()));
                                }
                                None => stack.push(dep),
                            },
                            None => return Err(VerilogError::Undriven(pin.clone())),
                        }
                    }
                }
            }
        }
    }

    for out in &outputs {
        let id = sig
            .get(out.as_str())
            .copied()
            .ok_or_else(|| VerilogError::Undriven(out.clone()))?;
        netlist.mark_output(id)?;
    }
    netlist.validate().map_err(VerilogError::Netlist)?;
    Ok(netlist)
}

/// Serializes a mapped netlist as a flat structural Verilog module.
///
/// The output parses back through [`parse`] into a structurally identical
/// netlist.
pub fn write(netlist: &Netlist) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let mut ports: Vec<&str> = netlist
        .inputs()
        .iter()
        .map(|&s| netlist.signal_name(s))
        .collect();
    ports.extend(netlist.outputs().iter().map(|&s| netlist.signal_name(s)));
    let _ = writeln!(out, "module {} ({});", netlist.name(), ports.join(", "));
    let ins: Vec<&str> = netlist
        .inputs()
        .iter()
        .map(|&s| netlist.signal_name(s))
        .collect();
    let _ = writeln!(out, "  input {};", ins.join(", "));
    let outs: Vec<&str> = netlist
        .outputs()
        .iter()
        .map(|&s| netlist.signal_name(s))
        .collect();
    let _ = writeln!(out, "  output {};", outs.join(", "));

    let is_port: std::collections::HashSet<&str> =
        ins.iter().copied().chain(outs.iter().copied()).collect();
    let wires: Vec<&str> = netlist
        .gates()
        .map(|(_, g)| netlist.signal_name(g.output()))
        .filter(|n| !is_port.contains(n))
        .collect();
    if !wires.is_empty() {
        let _ = writeln!(out, "  wire {};", wires.join(", "));
    }

    let formals = ["a", "b", "c", "d"];
    for (i, (_, gate)) in netlist.gates().enumerate() {
        let mut pins: Vec<String> = gate
            .inputs()
            .iter()
            .enumerate()
            .map(|(pin, &s)| format!(".{}({})", formals[pin], netlist.signal_name(s)))
            .collect();
        pins.push(format!(".O({})", netlist.signal_name(gate.output())));
        let _ = writeln!(
            out,
            "  {} u{} ({});",
            gate.kind().name(),
            i,
            pins.join(", ")
        );
    }
    out.push_str("endmodule\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks;
    use crate::Library;

    fn eval(n: &Netlist, inputs: &[bool]) -> Vec<bool> {
        let mut values = vec![false; n.num_signals()];
        for (i, &sigid) in n.inputs().iter().enumerate() {
            values[sigid.index()] = inputs[i];
        }
        for (_, gate) in n.gates() {
            let ins: Vec<bool> = gate.inputs().iter().map(|s| values[s.index()]).collect();
            values[gate.output().index()] = gate.kind().eval(&ins);
        }
        n.outputs().iter().map(|o| values[o.index()]).collect()
    }

    const MUX_V: &str = "
/* 2:1 mux from gates */
module m21 (s, a, b, y);
  input s, a, b;       // select + data
  output y;
  wire ns, t0, t1;
  inv  u0 (.a(s), .O(ns));
  and2 u1 (.a(ns), .b(a), .O(t0));
  and2 u2 (.a(s), .b(b), .O(t1));
  or2  u3 (.a(t0), .b(t1), .O(y));
endmodule
";

    #[test]
    fn parse_mux_and_check_function() {
        let n = parse(MUX_V).expect("valid verilog");
        assert_eq!(n.name(), "m21");
        assert_eq!(n.num_inputs(), 3);
        assert_eq!(n.num_gates(), 4);
        for bits in 0..8u32 {
            let asg = [bits & 1 != 0, bits & 2 != 0, bits & 4 != 0];
            let want = if asg[0] { asg[2] } else { asg[1] };
            assert_eq!(eval(&n, &asg)[0], want, "bits={bits:03b}");
        }
    }

    #[test]
    fn out_of_order_instances() {
        let text = "
module ooo (a, y);
  input a;
  output y;
  wire t;
  inv u1 (.a(t), .O(y));
  inv u0 (.a(a), .O(t));
endmodule
";
        let n = parse(text).expect("valid");
        assert_eq!(eval(&n, &[true]), vec![true]);
        assert_eq!(eval(&n, &[false]), vec![false]);
    }

    #[test]
    fn round_trip_benchmarks() {
        let library = Library::test_library();
        for netlist in [
            benchmarks::paper_unit(),
            benchmarks::by_name("decod", &library).expect("Table 1 name"),
            benchmarks::by_name("cm85", &library).expect("Table 1 name"),
        ] {
            let text = write(&netlist);
            let back = parse(&text).expect("round-trips");
            assert_eq!(back.num_gates(), netlist.num_gates(), "{}", netlist.name());
            assert_eq!(back.num_inputs(), netlist.num_inputs());
            for trial in 0..32u32 {
                let asg: Vec<bool> = (0..netlist.num_inputs())
                    .map(|i| trial.wrapping_mul(2654435761).wrapping_add(i as u32) & 8 != 0)
                    .collect();
                assert_eq!(eval(&back, &asg), eval(&netlist, &asg));
            }
        }
    }

    #[test]
    fn errors() {
        assert!(matches!(
            parse("module m (a); input a; assign b = a; endmodule"),
            Err(VerilogError::Syntax(..))
        ));
        assert!(matches!(
            parse("module m (a, y); input a; output y; bogus u0 (.a(a), .O(y)); endmodule"),
            Err(VerilogError::UnknownCell(_))
        ));
        assert!(matches!(
            parse("module m (a, y); input a; output y; inv u0 (.a(q), .O(y)); endmodule"),
            Err(VerilogError::Undriven(_))
        ));
        assert!(matches!(
            parse(
                "module m (a, y); input a; output y; \
                 inv u0 (.a(a), .O(y)); inv u1 (.a(a), .O(y)); endmodule"
            ),
            Err(VerilogError::MultipleDrivers(_))
        ));
        assert!(matches!(
            parse(
                "module m (a, y); input a; output y; wire t, u; \
                 inv u0 (.a(u), .O(t)); inv u1 (.a(t), .O(u)); \
                 and2 u2 (.a(t), .b(a), .O(y)); endmodule"
            ),
            Err(VerilogError::Cycle(_))
        ));
        assert!(matches!(
            parse("module m (a); input a; inv u0 (.a(a), .a(a)); endmodule"),
            Err(VerilogError::Syntax(..))
        ));
        let e = VerilogError::UnknownCell("x".into());
        assert!(e.to_string().contains('x'));
    }

    #[test]
    fn comments_and_whitespace() {
        let text = "module m(a,y);input a;output y;/* c */inv u0(.a(a),.O(y));//x\nendmodule";
        let n = parse(text).expect("valid");
        assert_eq!(n.num_gates(), 1);
    }
}
