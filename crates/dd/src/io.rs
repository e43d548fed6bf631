//! Serialization of decision diagrams.
//!
//! The paper's motivation for a *direct* representation of `C(xⁱ,xᶠ)` is
//! that it can back-annotate a macro's functional description **without
//! revealing the implementation** ("If the unit is a third-party IP,
//! Eq. (4) cannot be used … or otherwise the IP would be violated").
//! That story needs the diagram itself to be a shippable artifact, so this
//! module provides an exact, versioned, line-oriented text format:
//!
//! ```text
//! ddv1 <num_vars>
//! t <count>
//! <f64-bits-hex> …            # one line of terminal values
//! n <count>
//! <var> <ref> <ref>           # one node per line, children before parents
//! r <ref>                     # root
//! ```
//!
//! References are `T<i>` (terminal `i`) or `N<i>` (node `i`), local to the
//! file. Terminal values are written as hexadecimal IEEE-754 bit patterns,
//! so round-trips are bit-exact. [`Dump`] is the one flat form of a
//! diagram: [`dump`] numbers a manager's diagram into one and
//! [`Dump::write`] writes it; [`parse_diagram`] decodes and checks one
//! without a manager (flat evaluators take its nodes as they are);
//! [`read_diagram`] imports one into a [`Manager`].

use crate::manager::Manager;
use crate::node::NodeId;
use std::io::{self, BufRead, Write};

/// Writes the diagram rooted at `root` to `w`: [`dump`], then
/// [`Dump::write`].
///
/// Any manager-owned diagram (BDD or ADD) can be written; read it back
/// with [`read_diagram`]. `w` can be a `&mut` reference
/// (`Write` is implemented for `&mut W`).
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_diagram<W: Write>(m: &Manager, root: NodeId, w: W) -> io::Result<()> {
    dump(m, root).write(w)
}

/// Flattens the diagram rooted at `root` into a [`Dump`]: the nodes
/// reachable from it in arena order (children are interned before
/// parents, so the order is children first), and its terminals in the
/// order the nodes first reference them.
pub fn dump(m: &Manager, root: NodeId) -> Dump {
    let nodes = m.topological_nodes(root);
    let mut node_index = crate::hash::FxHashMap::default();
    for (i, &id) in nodes.iter().enumerate() {
        node_index.insert(id, i as u32);
    }
    let mut terminals = Vec::new();
    let mut term_index = crate::hash::FxHashMap::default();
    let mut encode = |id: NodeId| -> u32 {
        if id.is_terminal() {
            TERMINAL_REF
                | *term_index.entry(id).or_insert_with(|| {
                    terminals.push(m.terminal_value(id));
                    terminals.len() as u32 - 1
                })
        } else {
            node_index[&id]
        }
    };
    let flat = nodes
        .iter()
        .map(|&id| {
            let (lo, hi) = m.children(id);
            [m.node_var(id).index(), encode(lo), encode(hi)]
        })
        .collect();
    let root = encode(root);
    Dump {
        num_vars: m.num_vars(),
        terminals,
        nodes: flat,
        root,
    }
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Reads the next line of a text artifact into `buf` (reused across
/// lines) and returns it without trailing whitespace.
///
/// # Errors
///
/// `InvalidData` at end of input or for a line that is not UTF-8;
/// otherwise the reader's error.
pub fn next_line<'a, R: BufRead>(r: &mut R, buf: &'a mut String) -> io::Result<&'a str> {
    buf.clear();
    if r.read_line(buf)? == 0 {
        return Err(bad("unexpected end of file"));
    }
    Ok(buf.trim_end())
}

/// Tag bit of a [`Dump`] reference: set for terminal `k`
/// (`TERMINAL_REF | k`), clear for node `k`.
pub const TERMINAL_REF: u32 = 1 << 31;

/// A diagram in flat form, made by [`dump`] or [`parse_diagram`]: both
/// establish the invariants below, so a flat evaluator can take it as
/// it is.
#[derive(Debug, Clone, PartialEq)]
pub struct Dump {
    /// The variable count of the header; every node tests a variable
    /// below it.
    pub num_vars: u32,
    /// Terminal values: never NaN, and `-0.0` folded to `+0.0` as
    /// [`Manager::terminal`] interns it.
    pub terminals: Vec<f64>,
    /// `[var, lo, hi]` per node, children first: a node reference is
    /// below the referring node's own index, and the node it names
    /// tests a later variable.
    pub nodes: Vec<[u32; 3]>,
    /// The root reference.
    pub root: u32,
}

impl Dump {
    /// Writes the dump as `ddv1` text; [`parse_diagram`] reads it back
    /// as it was.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write<W: Write>(&self, mut w: W) -> io::Result<()> {
        let encode = |r: u32| {
            if r & TERMINAL_REF != 0 {
                format!("T{}", r & !TERMINAL_REF)
            } else {
                format!("N{r}")
            }
        };
        writeln!(w, "ddv1 {}", self.num_vars)?;
        writeln!(w, "t {}", self.terminals.len())?;
        for (i, v) in self.terminals.iter().enumerate() {
            let end = if i + 1 == self.terminals.len() {
                "\n"
            } else {
                " "
            };
            write!(w, "{:016x}{end}", v.to_bits())?;
        }
        writeln!(w, "n {}", self.nodes.len())?;
        for &[var, lo, hi] in &self.nodes {
            writeln!(w, "{var} {} {}", encode(lo), encode(hi))?;
        }
        writeln!(w, "r {}", encode(self.root))
    }
}

/// Decodes a diagram written by [`write_diagram`] without building it
/// in a [`Manager`]. Reads up to and including the root line.
///
/// # Errors
///
/// Returns `InvalidData` if the stream is not a valid `ddv1` dump: a
/// malformed line, a count that disagrees with the lines that follow, a
/// NaN terminal, a node variable at or above the header's count, or a
/// reference that is out of range, points forward or breaks the
/// variable order.
pub fn parse_diagram<R: BufRead>(mut r: R) -> io::Result<Dump> {
    // One line buffer for the whole dump.
    let mut buf = String::new();
    let count = |line: &str, tag: &str, what: &str| -> io::Result<usize> {
        line.strip_prefix(tag)
            .and_then(|s| s.trim().parse().ok())
            .ok_or_else(|| bad(format!("bad {what} count")))
    };

    let num_vars: u32 = match next_line(&mut r, &mut buf)?.strip_prefix("ddv1 ") {
        Some(rest) => rest.trim().parse().map_err(|_| bad("bad ddv1 header"))?,
        None => return Err(bad("missing ddv1 header")),
    };

    let tcount = count(next_line(&mut r, &mut buf)?, "t ", "terminal")?;
    let mut terminals = Vec::new();
    if tcount > 0 {
        for tok in next_line(&mut r, &mut buf)?.split_ascii_whitespace() {
            let bits = u64::from_str_radix(tok, 16).map_err(|_| bad("bad terminal bits"))?;
            let v = f64::from_bits(bits);
            if v.is_nan() {
                return Err(bad("NaN terminal in dump"));
            }
            terminals.push(if v == 0.0 { 0.0 } else { v });
        }
        if terminals.len() != tcount {
            return Err(bad("terminal count mismatch"));
        }
    }

    let ncount = count(next_line(&mut r, &mut buf)?, "n ", "node")?;
    let mut nodes: Vec<[u32; 3]> = Vec::new();
    // A reference as written (`T<i>` or `N<i>`), checked against what
    // has been read so far.
    let decode = |tok: &str, nodes: &[[u32; 3]]| -> io::Result<u32> {
        let (index, limit, tag) = if let Some(i) = tok.strip_prefix('T') {
            (i, terminals.len(), TERMINAL_REF)
        } else if let Some(i) = tok.strip_prefix('N') {
            (i, nodes.len(), 0)
        } else {
            return Err(bad(format!("bad reference `{tok}`")));
        };
        match index.parse::<u32>() {
            Ok(i) if (i as usize) < limit && i & TERMINAL_REF == 0 => Ok(i | tag),
            Ok(_) => Err(bad(format!("reference `{tok}` out of range or forward"))),
            Err(_) => Err(bad(format!("bad reference `{tok}`"))),
        }
    };
    for _ in 0..ncount {
        let mut parts = next_line(&mut r, &mut buf)?.split_ascii_whitespace();
        let var: u32 = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad node variable"))?;
        if var >= num_vars {
            return Err(bad("node variable out of range"));
        }
        let mut child = || -> io::Result<u32> {
            let r = decode(
                parts.next().ok_or_else(|| bad("missing child ref"))?,
                &nodes,
            )?;
            if r & TERMINAL_REF == 0 && nodes[r as usize][0] <= var {
                return Err(bad("child does not test a later variable"));
            }
            Ok(r)
        };
        let (lo, hi) = (child()?, child()?);
        if parts.next().is_some() {
            return Err(bad("trailing tokens on node line"));
        }
        nodes.push([var, lo, hi]);
    }

    let root = match next_line(&mut r, &mut buf)?.strip_prefix("r ") {
        Some(tok) => decode(tok.trim(), &nodes)?,
        None => return Err(bad("missing root line")),
    };
    Ok(Dump {
        num_vars,
        terminals,
        nodes,
        root,
    })
}

/// Reads a diagram written by [`write_diagram`] into `m` and returns its
/// root: [`parse_diagram`], then one [`Manager`] node per dump node
/// (hash-consed, so the import is canonical). `r` can be a `&mut`
/// reference (`BufRead` is implemented for `&mut R`).
///
/// # Errors
///
/// Returns `InvalidData` if the stream is not a valid `ddv1` dump or
/// references variables beyond [`Manager::num_vars`].
pub fn read_diagram<R: BufRead>(m: &mut Manager, r: R) -> io::Result<NodeId> {
    let dump = parse_diagram(r)?;
    if dump.num_vars > m.num_vars() {
        return Err(bad(format!(
            "dump needs {} variables, manager has {}",
            dump.num_vars,
            m.num_vars()
        )));
    }
    let terminals: Vec<NodeId> = dump.terminals.iter().map(|&v| m.terminal(v)).collect();
    let mut nodes: Vec<NodeId> = Vec::with_capacity(dump.nodes.len());
    let resolve = |r: u32, nodes: &[NodeId]| {
        if r & TERMINAL_REF != 0 {
            terminals[(r & !TERMINAL_REF) as usize]
        } else {
            nodes[r as usize]
        }
    };
    for &[var, lo, hi] in &dump.nodes {
        let id = m.mk(var, resolve(lo, &nodes), resolve(hi, &nodes));
        nodes.push(id);
    }
    Ok(resolve(dump.root, &nodes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::Add;
    use crate::node::Var;

    fn sample_add(m: &mut Manager) -> Add {
        let mut acc = m.add_zero();
        for v in 0..m.num_vars() {
            let x = m.bdd_var(Var(v));
            let d = m.add_scale(x.as_add(), 1.5 + v as f64 * 0.25);
            acc = m.add_plus(acc, d);
        }
        acc
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let mut m = Manager::new(6);
        let f = sample_add(&mut m);
        let mut buf = Vec::new();
        write_diagram(&m, f.node(), &mut buf).expect("writes");

        let mut m2 = Manager::new(6);
        let root = read_diagram(&mut m2, buf.as_slice()).expect("reads");
        let g = Add::from_node(root);
        for bits in 0..64u32 {
            let asg: Vec<bool> = (0..6).map(|i| bits >> i & 1 == 1).collect();
            assert_eq!(
                m.add_eval(f, &asg).to_bits(),
                m2.add_eval(g, &asg).to_bits()
            );
        }
        assert_eq!(m.size(f.node()), m2.size(root));
    }

    #[test]
    fn round_trip_into_same_manager_is_canonical() {
        let mut m = Manager::new(4);
        let f = sample_add(&mut m);
        let mut buf = Vec::new();
        write_diagram(&m, f.node(), &mut buf).expect("writes");
        let root = read_diagram(&mut m, buf.as_slice()).expect("reads");
        assert_eq!(root, f.node(), "canonicity: re-read shares the node");
    }

    #[test]
    fn terminal_only_diagram() {
        let mut m = Manager::new(2);
        let f = m.constant(42.5);
        let mut buf = Vec::new();
        write_diagram(&m, f.node(), &mut buf).expect("writes");
        let mut m2 = Manager::new(2);
        let root = read_diagram(&mut m2, buf.as_slice()).expect("reads");
        assert!(root.is_terminal());
        assert_eq!(m2.terminal_value(root), 42.5);
    }

    #[test]
    fn rejects_garbage() {
        let mut m = Manager::new(2);
        assert!(read_diagram(&mut m, "nonsense".as_bytes()).is_err());
        assert!(read_diagram(&mut m, "ddv1 9\nt 0\nn 1\n8 T0 T0\nr N0".as_bytes()).is_err());
        assert!(read_diagram(&mut m, "ddv1 2\nt 1\nzz\nn 0\nr T0".as_bytes()).is_err());
        // Forward references are invalid (children precede parents).
        assert!(read_diagram(
            &mut m,
            "ddv1 2\nt 1\n0000000000000000\nn 1\n0 N5 T0\nr N0".as_bytes()
        )
        .is_err());
        // A child testing the same variable breaks the order, and a node
        // line takes exactly two references.
        let terms = format!("t 2\n{:016x} {:016x}\n", 1.0f64.to_bits(), 2.0f64.to_bits());
        for nodes in ["n 2\n1 T0 T1\n1 N0 T0\nr N1", "n 1\n0 T0 T1 T0\nr N0"] {
            let text = format!("ddv1 2\n{terms}{nodes}");
            assert!(parse_diagram(text.as_bytes()).is_err(), "{nodes}");
            assert!(read_diagram(&mut m, text.as_bytes()).is_err(), "{nodes}");
        }
    }

    #[test]
    fn parse_needs_no_manager_and_folds_negative_zero() {
        let mut m = Manager::new(4);
        let f = sample_add(&mut m);
        let mut buf = Vec::new();
        write_diagram(&m, f.node(), &mut buf).expect("writes");
        let parsed = parse_diagram(buf.as_slice()).expect("parses");
        assert_eq!(parsed, dump(&m, f.node()), "text and manager agree");
        let dump = parsed;
        assert_eq!(dump.num_vars, 4);
        assert_eq!(dump.nodes.len(), m.size(f.node()) - dump.terminals.len());
        assert_eq!(dump.root & TERMINAL_REF, 0, "an internal root");

        let text = format!("ddv1 1\nt 1\n{:016x}\nn 0\nr T0\n", (-0.0f64).to_bits());
        let dump = parse_diagram(text.as_bytes()).expect("parses");
        assert_eq!(dump.terminals[0].to_bits(), 0.0f64.to_bits());
        assert_eq!(dump.root, TERMINAL_REF);
    }

    #[test]
    fn bdd_round_trip() {
        let mut m = Manager::new(5);
        let a = m.bdd_var(Var(0));
        let b = m.bdd_var(Var(3));
        let f = m.bdd_xor(a, b);
        let mut buf = Vec::new();
        write_diagram(&m, f.node(), &mut buf).expect("writes");
        let mut m2 = Manager::new(5);
        let root = read_diagram(&mut m2, buf.as_slice()).expect("reads");
        let g = crate::Bdd::from_node(root);
        for bits in 0..32u32 {
            let asg: Vec<bool> = (0..5).map(|i| bits >> i & 1 == 1).collect();
            assert_eq!(m.bdd_eval(f, &asg), m2.bdd_eval(g, &asg));
        }
    }
}
