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
//! so round-trips are bit-exact.

use crate::manager::Manager;
use crate::node::NodeId;
use std::io::{self, BufRead, Write};

/// Writes the diagram rooted at `root` to `w`.
///
/// Any manager-owned diagram (BDD or ADD) can be written; read it back
/// with [`read_diagram`]. `w` can be a `&mut` reference
/// (`Write` is implemented for `&mut W`).
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_diagram<W: Write>(m: &Manager, root: NodeId, mut w: W) -> io::Result<()> {
    writeln!(w, "ddv1 {}", m.num_vars())?;

    // Collect reachable terminals and nodes; assign local indices.
    let nodes = m.topological_nodes(root);
    let mut node_index = crate::hash::FxHashMap::default();
    for (i, &id) in nodes.iter().enumerate() {
        node_index.insert(id, i);
    }
    let mut terminals: Vec<NodeId> = Vec::new();
    let mut term_index = crate::hash::FxHashMap::default();
    let note_terminal =
        |id: NodeId,
         terminals: &mut Vec<NodeId>,
         term_index: &mut crate::hash::FxHashMap<NodeId, usize>| {
            if id.is_terminal() && !term_index.contains_key(&id) {
                term_index.insert(id, terminals.len());
                terminals.push(id);
            }
        };
    note_terminal(root, &mut terminals, &mut term_index);
    for &id in &nodes {
        let (lo, hi) = m.children(id);
        note_terminal(lo, &mut terminals, &mut term_index);
        note_terminal(hi, &mut terminals, &mut term_index);
    }

    writeln!(w, "t {}", terminals.len())?;
    if !terminals.is_empty() {
        let values: Vec<String> = terminals
            .iter()
            .map(|&id| format!("{:016x}", m.terminal_value(id).to_bits()))
            .collect();
        writeln!(w, "{}", values.join(" "))?;
    }

    let encode = |id: NodeId| -> String {
        if id.is_terminal() {
            format!("T{}", term_index[&id])
        } else {
            format!("N{}", node_index[&id])
        }
    };

    writeln!(w, "n {}", nodes.len())?;
    for &id in &nodes {
        let (lo, hi) = m.children(id);
        writeln!(
            w,
            "{} {} {}",
            m.node_var(id).index(),
            encode(lo),
            encode(hi)
        )?;
    }
    writeln!(w, "r {}", encode(root))?;
    Ok(())
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Reads a diagram written by [`write_diagram`] into `m` and returns its
/// root. `r` can be a `&mut` reference (`BufRead` is implemented for
/// `&mut R`).
///
/// # Errors
///
/// Returns `InvalidData` if the stream is not a valid `ddv1` dump or
/// references variables beyond [`Manager::num_vars`].
pub fn read_diagram<R: BufRead>(m: &mut Manager, r: R) -> io::Result<NodeId> {
    let mut lines = r.lines();
    let mut next = || -> io::Result<String> {
        lines
            .next()
            .ok_or_else(|| bad("unexpected end of dd dump"))?
    };

    let header = next()?;
    let num_vars: u32 = match header.strip_prefix("ddv1 ") {
        Some(rest) => rest.trim().parse().map_err(|_| bad("bad ddv1 header"))?,
        None => return Err(bad("missing ddv1 header")),
    };
    if num_vars > m.num_vars() {
        return Err(bad(format!(
            "dump needs {num_vars} variables, manager has {}",
            m.num_vars()
        )));
    }

    // Terminals.
    let tline = next()?;
    let tcount: usize = tline
        .strip_prefix("t ")
        .and_then(|s| s.trim().parse().ok())
        .ok_or_else(|| bad("bad terminal count"))?;
    let mut terminals = Vec::new();
    if tcount > 0 {
        let values = next()?;
        for tok in values.split_whitespace() {
            let bits = u64::from_str_radix(tok, 16).map_err(|_| bad("bad terminal bits"))?;
            let v = f64::from_bits(bits);
            if v.is_nan() {
                return Err(bad("NaN terminal in dump"));
            }
            terminals.push(m.terminal(v));
        }
        if terminals.len() != tcount {
            return Err(bad("terminal count mismatch"));
        }
    }

    // Nodes.
    let nline = next()?;
    let ncount: usize = nline
        .strip_prefix("n ")
        .and_then(|s| s.trim().parse().ok())
        .ok_or_else(|| bad("bad node count"))?;
    let mut nodes: Vec<NodeId> = Vec::new();
    let decode = |tok: &str, terminals: &[NodeId], nodes: &[NodeId]| -> io::Result<NodeId> {
        if let Some(i) = tok.strip_prefix('T') {
            let i: usize = i.parse().map_err(|_| bad("bad terminal ref"))?;
            terminals
                .get(i)
                .copied()
                .ok_or_else(|| bad("terminal ref out of range"))
        } else if let Some(i) = tok.strip_prefix('N') {
            let i: usize = i.parse().map_err(|_| bad("bad node ref"))?;
            nodes
                .get(i)
                .copied()
                .ok_or_else(|| bad("forward node reference"))
        } else {
            Err(bad(format!("bad reference `{tok}`")))
        }
    };
    for _ in 0..ncount {
        let line = next()?;
        let mut parts = line.split_whitespace();
        let var: u32 = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad node variable"))?;
        if var >= num_vars {
            return Err(bad("node variable out of range"));
        }
        let lo = decode(
            parts.next().ok_or_else(|| bad("missing lo ref"))?,
            &terminals,
            &nodes,
        )?;
        let hi = decode(
            parts.next().ok_or_else(|| bad("missing hi ref"))?,
            &terminals,
            &nodes,
        )?;
        nodes.push(m.mk(var, lo, hi));
    }

    // Root.
    let rline = next()?;
    let root_tok = rline
        .strip_prefix("r ")
        .ok_or_else(|| bad("missing root line"))?;
    decode(root_tok.trim(), &terminals, &nodes)
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
