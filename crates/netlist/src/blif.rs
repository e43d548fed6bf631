//! BLIF (Berkeley Logic Interchange Format) reader and writer.
//!
//! The reader accepts the subset used by the MCNC'91 combinational
//! benchmarks: `.model`, `.inputs`, `.outputs`, `.names` (PLA covers),
//! `.gate` (mapped cells of our [`Library`](crate::Library) with formal
//! pins `a b c d` and output `O`), line continuations with `\`, and `#`
//! comments. `.names` nodes are decomposed into library gates through
//! [`synthesize_sop`](crate::sop), so a parsed model is
//! always a mapped gate-level netlist ready for capacitance
//! back-annotation.
//!
//! The writer emits `.gate` lines, which the reader accepts — round-trips
//! preserve logic, structure and gate count.

use crate::library::CellKind;
use crate::netlist::{Netlist, NetlistError, SignalId};
use crate::seq::{SeqLatch, SeqNetlist};
use crate::sop::{synthesize_sop, Cube, Sop};
use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt;

/// Errors produced by the BLIF reader.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlifError {
    /// A directive was malformed. Carries the 1-based line number and a
    /// description.
    Syntax(usize, String),
    /// The model drives a signal from two different nodes.
    MultipleDrivers(String),
    /// A signal is used but never defined.
    Undefined(String),
    /// Node definitions form a combinational cycle.
    Cycle(String),
    /// A constant node (empty or tautological cover) was encountered;
    /// the gate-level golden model cannot express constants.
    Constant(String),
    /// A `.gate` referenced a cell outside the library.
    UnknownCell(String),
    /// A `.latch` was fed through a combinational-only entry point.
    /// Carries the line number of the first latch; sequential models go
    /// through [`parse_seq`] and the `seqeval` workflow instead.
    SequentialUnsupported(usize),
    /// Construction of the netlist failed.
    Netlist(NetlistError),
}

impl fmt::Display for BlifError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlifError::Syntax(line, msg) => write!(f, "line {line}: {msg}"),
            BlifError::MultipleDrivers(s) => write!(f, "signal `{s}` has multiple drivers"),
            BlifError::Undefined(s) => write!(f, "signal `{s}` is used but never defined"),
            BlifError::Cycle(s) => write!(f, "combinational cycle through `{s}`"),
            BlifError::Constant(s) => {
                write!(f, "node `{s}` is constant; constants are not supported")
            }
            BlifError::UnknownCell(c) => write!(f, "unknown library cell `{c}`"),
            BlifError::SequentialUnsupported(line) => write!(
                f,
                "line {line}: sequential model (.latch) through a combinational entry \
                 point; use blif::parse_seq / `charfree seqeval`"
            ),
            BlifError::Netlist(e) => write!(f, "netlist error: {e}"),
        }
    }
}

impl Error for BlifError {}

impl From<NetlistError> for BlifError {
    fn from(e: NetlistError) -> Self {
        BlifError::Netlist(e)
    }
}

#[derive(Debug)]
enum NodeDef {
    Names { inputs: Vec<String>, sop: Sop },
    Gate { cell: CellKind, inputs: Vec<String> },
}

#[derive(Debug)]
struct RawLatch {
    input: String,
    output: String,
    init: bool,
    line: usize,
}

#[derive(Debug, Default)]
struct RawModel {
    name: String,
    inputs: Vec<String>,
    outputs: Vec<String>,
    /// output name → definition
    nodes: Vec<(String, NodeDef)>,
    latches: Vec<RawLatch>,
}

/// Parses BLIF text into a mapped gate-level [`Netlist`].
///
/// # Errors
///
/// See [`BlifError`]. Latch directives (`.latch`) are rejected with
/// [`BlifError::SequentialUnsupported`] — this entry point is
/// combinational-only; sequential models go through [`parse_seq`].
///
/// # Examples
///
/// ```
/// use charfree_netlist::blif;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let text = "\
/// .model and_or
/// .inputs a b c
/// .outputs f
/// .names a b t
/// 11 1
/// .names t c f
/// 1- 1
/// -1 1
/// .end
/// ";
/// let netlist = blif::parse(text)?;
/// assert_eq!(netlist.num_inputs(), 3);
/// assert_eq!(netlist.outputs().len(), 1);
/// # Ok(())
/// # }
/// ```
pub fn parse(text: &str) -> Result<Netlist, BlifError> {
    let raw = tokenize(text)?;
    if let Some(latch) = raw.latches.first() {
        return Err(BlifError::SequentialUnsupported(latch.line));
    }
    elaborate(raw)
}

/// Parses BLIF text with `.latch` directives into a [`SeqNetlist`]:
/// the design is elaborated with every latch output as an extra input,
/// then partitioned into register-bounded combinational macros.
///
/// Accepted `.latch` forms: `.latch <input> <output>`,
/// `.latch <input> <output> <init-val>`, and the 4/5-token forms with a
/// `<type> <control>` pair (`fe`, `re`, `ah`, `al`, `as`); init values
/// are `0`, `1`, `2` (don't care) or `3` (unknown), defaulting to `3`.
/// Combinational-only models parse too (zero latches, one macro per
/// connected component).
///
/// # Errors
///
/// See [`BlifError`]. Malformed `.latch` lines report the specific
/// defect with their line number; a latch output that collides with a
/// primary input, another latch, or a driven node is
/// [`BlifError::MultipleDrivers`].
///
/// # Examples
///
/// ```
/// use charfree_netlist::blif;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let text = "\
/// .model toggle
/// .inputs en
/// .outputs q
/// .gate xor2 a=en b=q O=d
/// .latch d q 0
/// .end
/// ";
/// let seq = blif::parse_seq(text)?;
/// assert_eq!(seq.latches().len(), 1);
/// assert_eq!(seq.macros().len(), 1);
/// # Ok(())
/// # }
/// ```
pub fn parse_seq(text: &str) -> Result<SeqNetlist, BlifError> {
    let mut raw = tokenize(text)?;
    let name = raw.name.clone();
    let primary_inputs = raw.inputs.clone();
    let primary_outputs = raw.outputs.clone();
    let raw_latches = std::mem::take(&mut raw.latches);
    let mut latches = Vec::with_capacity(raw_latches.len());
    for latch in &raw_latches {
        if raw.inputs.contains(&latch.output) {
            return Err(BlifError::MultipleDrivers(latch.output.clone()));
        }
        raw.inputs.push(latch.output.clone());
        latches.push(SeqLatch {
            input: latch.input.clone(),
            output: latch.output.clone(),
            init: latch.init,
        });
    }
    // The flat model's outputs are the design POs plus every latch D, so
    // elaboration reaches (and checks) all of them.
    for latch in &raw_latches {
        if !raw.outputs.contains(&latch.input) {
            raw.outputs.push(latch.input.clone());
        }
    }
    let (flat, sig) = elaborate_map(raw)?;
    let resolve = |n: &String| {
        sig.get(n.as_str())
            .copied()
            .ok_or_else(|| BlifError::Undefined(n.clone()))
    };
    let po_signals = primary_outputs
        .iter()
        .map(resolve)
        .collect::<Result<Vec<_>, _>>()?;
    let d_signals = latches
        .iter()
        .map(|l| resolve(&l.input))
        .collect::<Result<Vec<_>, _>>()?;
    SeqNetlist::from_flat(
        name,
        &flat,
        primary_inputs,
        primary_outputs,
        &po_signals,
        latches,
        &d_signals,
    )
    .map_err(BlifError::Netlist)
}

fn tokenize(text: &str) -> Result<RawModel, BlifError> {
    // Join continuation lines, strip comments.
    let mut logical: Vec<(usize, String)> = Vec::new();
    let mut pending = String::new();
    let mut pending_line = 0usize;
    for (idx, line) in text.lines().enumerate() {
        let line = match line.find('#') {
            Some(p) => &line[..p],
            None => line,
        };
        let trimmed = line.trim_end();
        let (content, cont) = match trimmed.strip_suffix('\\') {
            Some(c) => (c, true),
            None => (trimmed, false),
        };
        if pending.is_empty() {
            pending_line = idx + 1;
        }
        pending.push_str(content);
        pending.push(' ');
        if !cont {
            let full = pending.trim().to_owned();
            if !full.is_empty() {
                logical.push((pending_line, full));
            }
            pending.clear();
        }
    }
    if !pending.trim().is_empty() {
        logical.push((pending_line, pending.trim().to_owned()));
    }

    let mut model = RawModel::default();
    // A `.names` block being accumulated: (first line number, signals,
    // cubes seen so far, output polarity once known).
    type NamesBlock = (usize, Vec<String>, Vec<Cube>, Option<bool>);
    let mut current_names: Option<NamesBlock> = None;

    fn flush_names(
        model: &mut RawModel,
        current: &mut Option<NamesBlock>,
    ) -> Result<(), BlifError> {
        if let Some((line, mut sigs, cubes, polarity)) = current.take() {
            let Some(output) = sigs.pop() else {
                return Err(BlifError::Syntax(line, ".names without signals".into()));
            };
            if cubes.is_empty() {
                return Err(BlifError::Constant(output));
            }
            let sop = Sop {
                num_inputs: sigs.len(),
                cubes,
                polarity: polarity.unwrap_or(true),
            };
            if sop.num_inputs == 0 {
                return Err(BlifError::Constant(output));
            }
            model
                .nodes
                .push((output, NodeDef::Names { inputs: sigs, sop }));
        }
        Ok(())
    }

    for (line_no, line) in logical {
        if let Some(rest) = line.strip_prefix('.') {
            flush_names(&mut model, &mut current_names)?;
            let mut words = rest.split_whitespace();
            let directive = words.next().unwrap_or("");
            match directive {
                "model" => {
                    model.name = words.next().unwrap_or("unnamed").to_owned();
                }
                "inputs" => model.inputs.extend(words.map(str::to_owned)),
                "outputs" => model.outputs.extend(words.map(str::to_owned)),
                "names" => {
                    let sigs: Vec<String> = words.map(str::to_owned).collect();
                    if sigs.is_empty() {
                        return Err(BlifError::Syntax(line_no, ".names without signals".into()));
                    }
                    current_names = Some((line_no, sigs, Vec::new(), None));
                }
                "gate" => {
                    let cell_name = words
                        .next()
                        .ok_or_else(|| BlifError::Syntax(line_no, ".gate without cell".into()))?;
                    let cell = CellKind::from_name(cell_name)
                        .ok_or_else(|| BlifError::UnknownCell(cell_name.to_owned()))?;
                    let mut pins: HashMap<String, String> = HashMap::new();
                    for w in words {
                        let (formal, actual) = w.split_once('=').ok_or_else(|| {
                            BlifError::Syntax(line_no, format!("bad pin binding `{w}`"))
                        })?;
                        pins.insert(formal.to_owned(), actual.to_owned());
                    }
                    let output = pins.remove("O").ok_or_else(|| {
                        BlifError::Syntax(line_no, ".gate missing output pin O".into())
                    })?;
                    let formal_names = ["a", "b", "c", "d"];
                    let mut inputs = Vec::with_capacity(cell.arity());
                    for formal in formal_names.iter().take(cell.arity()) {
                        let actual = pins.remove(*formal).ok_or_else(|| {
                            BlifError::Syntax(line_no, format!(".gate missing pin {formal}"))
                        })?;
                        inputs.push(actual);
                    }
                    if !pins.is_empty() {
                        return Err(BlifError::Syntax(
                            line_no,
                            format!(".gate has extra pins: {:?}", pins.keys()),
                        ));
                    }
                    model.nodes.push((output, NodeDef::Gate { cell, inputs }));
                }
                "end" => {}
                "latch" => {
                    let tokens: Vec<&str> = words.collect();
                    let init_tok = match tokens.len() {
                        2 => None,
                        3 => Some(tokens[2]),
                        4 | 5 => {
                            let ty = tokens[2];
                            if !matches!(ty, "fe" | "re" | "ah" | "al" | "as") {
                                return Err(BlifError::Syntax(
                                    line_no,
                                    format!(
                                        "bad .latch type `{ty}` (expected fe, re, ah, al, or as)"
                                    ),
                                ));
                            }
                            tokens.get(4).copied()
                        }
                        n => {
                            return Err(BlifError::Syntax(
                                line_no,
                                format!(
                                    ".latch has {n} tokens; expected `.latch <input> <output> \
                                     [<type> <control>] [<init-val>]`"
                                ),
                            ));
                        }
                    };
                    let init = match init_tok {
                        None | Some("0" | "2" | "3") => false,
                        Some("1") => true,
                        Some(other) => {
                            return Err(BlifError::Syntax(
                                line_no,
                                format!("bad .latch init value `{other}` (expected 0, 1, 2, or 3)"),
                            ));
                        }
                    };
                    model.latches.push(RawLatch {
                        input: tokens[0].to_owned(),
                        output: tokens[1].to_owned(),
                        init,
                        line: line_no,
                    });
                }
                // Ignore common benign directives.
                "default_input_arrival" | "default_output_required" | "exdc" => {}
                other => {
                    return Err(BlifError::Syntax(
                        line_no,
                        format!("unsupported directive `.{other}`"),
                    ));
                }
            }
        } else if let Some((_, ref sigs, ref mut cubes, ref mut polarity)) = current_names {
            let mut parts = line.split_whitespace();
            let num_inputs = sigs.len() - 1;
            let (cube_str, out_str) = if num_inputs == 0 {
                ("", parts.next().unwrap_or(""))
            } else {
                (parts.next().unwrap_or(""), parts.next().unwrap_or(""))
            };
            if parts.next().is_some() {
                return Err(BlifError::Syntax(
                    line_no,
                    "trailing tokens in cover".into(),
                ));
            }
            let cube = Cube::parse(cube_str)
                .filter(|c| c.0.len() == num_inputs)
                .ok_or_else(|| BlifError::Syntax(line_no, format!("bad cube `{cube_str}`")))?;
            let out = match out_str {
                "1" => true,
                "0" => false,
                other => {
                    return Err(BlifError::Syntax(
                        line_no,
                        format!("bad output value `{other}`"),
                    ));
                }
            };
            match polarity {
                None => *polarity = Some(out),
                Some(p) if *p == out => {}
                Some(_) => {
                    return Err(BlifError::Syntax(
                        line_no,
                        "mixed ON/OFF-set covers are not supported".into(),
                    ));
                }
            }
            cubes.push(cube);
        } else {
            return Err(BlifError::Syntax(
                line_no,
                format!("unexpected line `{line}`"),
            ));
        }
    }
    flush_names(&mut model, &mut current_names)?;
    Ok(model)
}

fn elaborate(raw: RawModel) -> Result<Netlist, BlifError> {
    elaborate_map(raw).map(|(netlist, _)| netlist)
}

/// Like [`elaborate`], but also returns the BLIF-name → [`SignalId`]
/// map (`.names` synthesis gives node outputs internal signal names, so
/// sequential elaboration needs the alias map to resolve latch Ds and
/// POs).
fn elaborate_map(raw: RawModel) -> Result<(Netlist, HashMap<String, SignalId>), BlifError> {
    // Index node definitions by output name; check single drivers.
    let mut def_index: HashMap<&str, usize> = HashMap::new();
    for (i, (out, _)) in raw.nodes.iter().enumerate() {
        if def_index.insert(out.as_str(), i).is_some() {
            return Err(BlifError::MultipleDrivers(out.clone()));
        }
        if raw.inputs.iter().any(|n| n == out) {
            return Err(BlifError::MultipleDrivers(out.clone()));
        }
    }

    let mut netlist = Netlist::new(raw.name.clone());
    let mut sig: HashMap<String, SignalId> = HashMap::new();
    for name in &raw.inputs {
        let id = netlist.add_input(name.clone())?;
        sig.insert(name.clone(), id);
    }

    // Depth-first topological elaboration: every node is emitted after
    // its fan-in nodes, in post-order from the first definition on (gate
    // order feeds artifact keys and the order of load accumulation). The
    // walk keeps an explicit `(node, next_pin)` stack, so a deep chain
    // costs heap, not call stack.
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        Unvisited,
        Visiting,
        Done,
    }
    let mut marks = vec![Mark::Unvisited; raw.nodes.len()];
    let mut stack: Vec<(usize, usize)> = Vec::new();
    for root in 0..raw.nodes.len() {
        if marks[root] != Mark::Unvisited {
            continue;
        }
        marks[root] = Mark::Visiting;
        stack.push((root, 0));
        while let Some((node, next_pin)) = stack.last_mut() {
            let (out_name, def) = &raw.nodes[*node];
            let input_names: &[String] = match def {
                NodeDef::Names { inputs, .. } => inputs,
                NodeDef::Gate { inputs, .. } => inputs,
            };
            if let Some(name) = input_names.get(*next_pin) {
                *next_pin += 1;
                if sig.contains_key(name.as_str()) {
                    continue;
                }
                let dep = *def_index
                    .get(name.as_str())
                    .ok_or_else(|| BlifError::Undefined(name.clone()))?;
                // A defined name missing from `sig` is unvisited, or on the
                // stack, where it closes a cycle.
                if marks[dep] == Mark::Visiting {
                    return Err(BlifError::Cycle(raw.nodes[dep].0.clone()));
                }
                marks[dep] = Mark::Visiting;
                stack.push((dep, 0));
                continue;
            }
            let input_ids: Vec<SignalId> = input_names.iter().map(|n| sig[n.as_str()]).collect();
            // A `.names` output keeps the internal name `synthesize_sop`
            // gave it and is aliased through the signal map (power models
            // only care about structure).
            let out_id = match def {
                NodeDef::Names { sop, .. } => synthesize_sop(&mut netlist, sop, &input_ids)?,
                NodeDef::Gate { cell, .. } => {
                    netlist.add_gate_named(*cell, &input_ids, out_name.clone())?
                }
            };
            sig.insert(out_name.clone(), out_id);
            marks[*node] = Mark::Done;
            stack.pop();
        }
    }

    let mut seen_outputs: HashSet<&str> = HashSet::new();
    for out in &raw.outputs {
        if !seen_outputs.insert(out.as_str()) {
            continue;
        }
        let id = sig
            .get(out.as_str())
            .copied()
            .ok_or_else(|| BlifError::Undefined(out.clone()))?;
        netlist.mark_output(id)?;
    }
    netlist.validate()?;
    Ok((netlist, sig))
}

/// Serializes a mapped netlist as BLIF `.gate` lines.
///
/// The output parses back through [`parse`] into a structurally identical
/// netlist.
///
/// # Examples
///
/// ```
/// use charfree_netlist::{blif, CellKind, Netlist};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut n = Netlist::new("tiny");
/// let a = n.add_input("a")?;
/// let inv = n.add_gate(CellKind::Inv, &[a])?;
/// n.mark_output(inv)?;
/// let text = blif::write(&n);
/// let back = blif::parse(&text)?;
/// assert_eq!(back.num_gates(), 1);
/// # Ok(())
/// # }
/// ```
pub fn write(netlist: &Netlist) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, ".model {}", netlist.name());
    let _ = write!(out, ".inputs");
    for &i in netlist.inputs() {
        let _ = write!(out, " {}", netlist.signal_name(i));
    }
    out.push('\n');
    let _ = write!(out, ".outputs");
    for &o in netlist.outputs() {
        let _ = write!(out, " {}", netlist.signal_name(o));
    }
    out.push('\n');
    let formals = ["a", "b", "c", "d"];
    for (_, gate) in netlist.gates() {
        let _ = write!(out, ".gate {}", gate.kind().name());
        for (pin, &s) in gate.inputs().iter().enumerate() {
            let _ = write!(out, " {}={}", formals[pin], netlist.signal_name(s));
        }
        let _ = writeln!(out, " O={}", netlist.signal_name(gate.output()));
    }
    out.push_str(".end\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::Library;

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

    const MAJORITY: &str = "\
# 3-input majority
.model maj3
.inputs a b c
.outputs m
.names a b c m
11- 1
1-1 1
-11 1
.end
";

    #[test]
    fn parse_majority() {
        let n = parse(MAJORITY).expect("valid blif");
        assert_eq!(n.name(), "maj3");
        assert_eq!(n.num_inputs(), 3);
        for bits in 0..8u32 {
            let asg = [bits & 1 != 0, bits & 2 != 0, bits & 4 != 0];
            let want = (asg[0] as u8 + asg[1] as u8 + asg[2] as u8) >= 2;
            assert_eq!(eval(&n, &asg)[0], want, "bits={bits:b}");
        }
    }

    #[test]
    fn parse_off_set_and_chained_names() {
        let text = "\
.model chain
.inputs a b
.outputs f
.names a b t
11 0
.names t f
0 1
.end
";
        // t = !(ab); f = !t = ab.
        let n = parse(text).expect("valid");
        for bits in 0..4u32 {
            let asg = [bits & 1 != 0, bits & 2 != 0];
            assert_eq!(eval(&n, &asg)[0], asg[0] && asg[1]);
        }
    }

    #[test]
    fn out_of_order_definitions_are_sorted() {
        let text = "\
.model ooo
.inputs a b
.outputs f
.names t a f
11 1
.names a b t
-1 1
1- 1
.end
";
        let n = parse(text).expect("valid");
        // t = a + b, f = t & a = a.
        for bits in 0..4u32 {
            let asg = [bits & 1 != 0, bits & 2 != 0];
            assert_eq!(eval(&n, &asg)[0], asg[0]);
        }
    }

    #[test]
    fn out_of_order_multi_input_gates_keep_their_post_order() {
        let text = "\
.model ooo_multi
.inputs a b c d
.outputs y z u
.gate aoi21 a=t1 b=t2 c=d O=y
.names t2 b t1 u
11- 1
--0 1
.gate nand2 a=t3 b=a O=t1
.gate mux2 a=c b=t3 c=b O=z
.gate xor2 a=a b=b O=t3
.gate or3 a=t3 b=c c=d O=t2
.end
";
        let gates = "\
.gate xor2 a=a b=b O=t3
.gate nand2 a=t3 b=a O=t1
.gate or3 a=t3 b=c c=d O=t2
.gate aoi21 a=t1 b=t2 c=d O=y
.gate and2 a=t2 b=b O=_n4
.gate inv a=t1 O=_n5
.gate or2 a=_n4 b=_n5 O=_n6
.gate mux2 a=c b=t3 c=b O=z
.end
";
        let header = ".model ooo_multi\n.inputs a b c d\n";
        let flat = write(&parse(text).expect("parses"));
        assert_eq!(flat, format!("{header}.outputs y z _n6\n{gates}"));
        let seq = parse_seq(text).expect("parses");
        assert_eq!(seq.primary_outputs(), ["y", "z", "u"]);
        assert_eq!(seq.macros().len(), 1);
        let macro_gates: String = write(&seq.macros()[0].netlist)
            .lines()
            .filter(|line| line.starts_with(".gate") || *line == ".end")
            .map(|line| format!("{line}\n"))
            .collect();
        assert_eq!(macro_gates, gates);
    }

    #[test]
    fn deep_reverse_chain_elaborates_without_recursion() {
        // 100 000 inverters, each defined before the one it reads: the
        // walk from the first definition is 100 000 nodes deep.
        const DEPTH: usize = 100_000;
        let mut text = format!(".model chain\n.inputs n0\n.outputs n{DEPTH}\n");
        for i in (1..=DEPTH).rev() {
            text.push_str(&format!(".gate inv a=n{} O=n{i}\n", i - 1));
        }
        text.push_str(".end\n");
        let n = parse(&text).expect("parses");
        assert_eq!(n.num_gates(), DEPTH);
        assert_eq!(eval(&n, &[true]), [true], "an even number of inverters");
        let seq = parse_seq(&text).expect("parses");
        assert_eq!(seq.macros().len(), 1);
    }

    #[test]
    fn continuation_lines() {
        let text = ".model cont\n.inputs a \\\nb\n.outputs f\n.names a b f\n11 1\n.end\n";
        let n = parse(text).expect("valid");
        assert_eq!(n.num_inputs(), 2);
    }

    #[test]
    fn gate_lines_roundtrip() {
        let text = "\
.model gates
.inputs a b s
.outputs y
.gate mux2 a=s b=a c=b O=y
.end
";
        let n = parse(text).expect("valid");
        assert_eq!(n.num_gates(), 1);
        for bits in 0..8u32 {
            let asg = [bits & 1 != 0, bits & 2 != 0, bits & 4 != 0];
            let want = if asg[2] { asg[1] } else { asg[0] };
            assert_eq!(eval(&n, &asg)[0], want);
        }
        let text2 = write(&n);
        let n2 = parse(&text2).expect("round-trips");
        assert_eq!(n2.num_gates(), n.num_gates());
        for bits in 0..8u32 {
            let asg = [bits & 1 != 0, bits & 2 != 0, bits & 4 != 0];
            assert_eq!(eval(&n2, &asg), eval(&n, &asg));
        }
    }

    #[test]
    fn full_roundtrip_preserves_behavior_and_loads() {
        let n = parse(MAJORITY).expect("valid");
        let text = write(&n);
        let mut n2 = parse(&text).expect("round-trips");
        assert_eq!(n2.num_gates(), n.num_gates());
        let lib = Library::test_library();
        n2.annotate_loads(&lib);
        assert!(n2.total_load().femtofarads() > 0.0);
        for bits in 0..8u32 {
            let asg = [bits & 1 != 0, bits & 2 != 0, bits & 4 != 0];
            assert_eq!(eval(&n2, &asg), eval(&n, &asg));
        }
    }

    #[test]
    fn errors_are_reported() {
        assert!(matches!(
            parse(".model m\n.inputs a\n.outputs f\n.names a f\n"),
            Err(BlifError::Constant(_))
        ));
        assert!(matches!(
            parse(".model m\n.inputs a\n.outputs f\n.latch a f\n.end"),
            Err(BlifError::SequentialUnsupported(4))
        ));
        assert!(matches!(
            parse(".model m\n.inputs a\n.outputs f\n.names q f\n1 1\n.end"),
            Err(BlifError::Undefined(_))
        ));
        assert!(matches!(
            parse(".model m\n.inputs a\n.outputs f\n.names f f\n1 1\n.end"),
            Err(BlifError::Cycle(_))
        ));
        assert!(matches!(
            parse(".model m\n.inputs a\n.outputs f\n.names a f\n1 1\n.names a f\n0 1\n.end"),
            Err(BlifError::MultipleDrivers(_))
        ));
        assert!(matches!(
            parse(".model m\n.inputs a\n.outputs f\n.gate bogus a=a O=f\n.end"),
            Err(BlifError::UnknownCell(_))
        ));
        assert!(matches!(
            parse(".model m\n.inputs a b\n.outputs f\n.names a b f\n11 1\n00 0\n.end"),
            Err(BlifError::Syntax(..))
        ));
    }

    #[test]
    fn latch_diagnostics_name_the_defect_and_line() {
        let bad_arity = parse_seq(".model m\n.inputs a\n.outputs f\n.latch a\n.end");
        match bad_arity {
            Err(BlifError::Syntax(4, msg)) => assert!(msg.contains("1 tokens"), "{msg}"),
            other => panic!("expected arity diagnostic, got {other:?}"),
        }
        let bad_init = parse_seq(".model m\n.inputs a\n.outputs f\n.latch a f 7\n.end");
        match bad_init {
            Err(BlifError::Syntax(4, msg)) => {
                assert!(msg.contains("init value `7`"), "{msg}");
            }
            other => panic!("expected init diagnostic, got {other:?}"),
        }
        let bad_type = parse_seq(".model m\n.inputs a\n.outputs f\n.latch a f xx clk 0\n.end");
        match bad_type {
            Err(BlifError::Syntax(4, msg)) => assert!(msg.contains("type `xx`"), "{msg}"),
            other => panic!("expected type diagnostic, got {other:?}"),
        }
        // A latch output colliding with a primary input.
        assert!(matches!(
            parse_seq(".model m\n.inputs a\n.outputs f\n.gate inv a=a O=f\n.latch f a 0\n.end"),
            Err(BlifError::MultipleDrivers(_))
        ));
        // The combinational entry point names the seq path.
        let msg = BlifError::SequentialUnsupported(4).to_string();
        assert!(msg.contains("parse_seq"), "{msg}");
        assert!(msg.contains("line 4"), "{msg}");
    }

    #[test]
    fn latch_forms_and_init_values() {
        let text = "\
.model forms
.inputs a
.outputs q1
.latch a q0
.latch q0 q1 1
.latch q1 q2 re clk
.latch q2 q3 re clk 2
.end
";
        let seq = parse_seq(text).expect("all .latch forms parse");
        let inits: Vec<bool> = seq.initial_state();
        assert_eq!(inits, [false, true, false, false]);
    }

    #[test]
    fn parse_seq_accepts_names_nodes_feeding_latches() {
        let text = "\
.model seqnames
.inputs a
.outputs q
.names a q d
11 1
.latch d q 0
.end
";
        let seq = parse_seq(text).expect("parses");
        assert_eq!(seq.macros().len(), 1);
        assert_eq!(seq.latches().len(), 1);
        // The `.names` output got an internal name, but the latch D is
        // still resolved and wired.
        assert!(seq.macros()[0].outputs.iter().any(|o| o.next_state == [0]));
    }

    #[test]
    fn cycle_via_two_nodes_detected() {
        let text = "\
.model cyc
.inputs a
.outputs f
.names g a f
11 1
.names f a g
11 1
.end
";
        assert!(matches!(parse(text), Err(BlifError::Cycle(_))));
    }

    #[test]
    fn error_display_messages() {
        let e = BlifError::Syntax(3, "bad".into());
        assert!(e.to_string().contains("line 3"));
        assert!(BlifError::Undefined("x".into()).to_string().contains('x'));
    }
}
