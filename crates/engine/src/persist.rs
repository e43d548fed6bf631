//! Kernel persistence — `charfree-kernel v1`.
//!
//! A compiled kernel is an artifact in its own right: it can be shipped
//! next to (or instead of) a `.cfm` model file and loaded by evaluation
//! hosts that never link the diagram manager. The format mirrors the
//! model format's conventions — versioned text, `f64`s as hexadecimal
//! IEEE-754 bit patterns for bit-exact round trips — and every load
//! re-validates the structural invariants (references in range, internal
//! references strictly backwards) before the kernel is handed out.
//!
//! ```text
//! charfree-kernel v1
//! name <display name>
//! inputs <n>
//! vars <2n>
//! interleaved 1            the one variable layout; 0 is rejected
//! xi <var> … <var>          n entries: 2·slot of each input
//! xf <var> … <var>          n entries: 2·slot + 1 of each input
//! terminals <hex64> … <hex64>
//! instrs <count>
//! <var> <ref> <ref>          one line per instruction, children first
//! root <ref>
//! ```
//!
//! References are `I<k>` (instruction `k`) or `T<k>` (terminal `k`).

use crate::kernel::{Batch, Instr, Kernel, TERMINAL_BIT};
use charfree_core::{xf_var, xi_var};
use charfree_dd::Var;
use std::io::{self, BufRead, Write};

const MAGIC: &str = "charfree-kernel v1";

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

fn fmt_ref(r: u32) -> String {
    if r & TERMINAL_BIT != 0 {
        format!("T{}", r & !TERMINAL_BIT)
    } else {
        format!("I{r}")
    }
}

fn parse_ref(tok: &str) -> io::Result<u32> {
    if let Some(t) = tok.strip_prefix('T') {
        let k: u32 = t.parse().map_err(|_| bad("bad terminal reference"))?;
        if k & TERMINAL_BIT != 0 {
            return Err(bad("terminal reference out of range"));
        }
        Ok(k | TERMINAL_BIT)
    } else if let Some(i) = tok.strip_prefix('I') {
        let k: u32 = i.parse().map_err(|_| bad("bad instruction reference"))?;
        if k & TERMINAL_BIT != 0 {
            return Err(bad("instruction reference out of range"));
        }
        Ok(k)
    } else {
        Err(bad("reference must start with I or T"))
    }
}

impl Kernel {
    /// Writes the kernel to `w` in the versioned `charfree-kernel v1`
    /// text format. Terminal values are stored as IEEE-754 bit patterns,
    /// so a reloaded kernel evaluates bit-for-bit identically.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn save<W: Write>(&self, mut w: W) -> io::Result<()> {
        writeln!(w, "{MAGIC}")?;
        writeln!(w, "name {}", self.name)?;
        writeln!(w, "inputs {}", self.num_inputs)?;
        writeln!(w, "vars {}", self.num_vars)?;
        writeln!(w, "interleaved 1")?;
        let vars = |var: fn(usize) -> Var| {
            self.slots
                .iter()
                .map(|&slot| var(slot as usize).index().to_string())
                .collect::<Vec<_>>()
                .join(" ")
        };
        writeln!(w, "xi {}", vars(xi_var))?;
        writeln!(w, "xf {}", vars(xf_var))?;
        let terms: Vec<String> = self
            .terminals
            .iter()
            .map(|t| format!("{:016x}", t.to_bits()))
            .collect();
        writeln!(w, "terminals {}", terms.join(" "))?;
        writeln!(w, "instrs {}", self.instrs.len())?;
        for ins in &self.instrs {
            writeln!(w, "{} {} {}", ins.var, fmt_ref(ins.lo), fmt_ref(ins.hi))?;
        }
        writeln!(w, "root {}", fmt_ref(self.root))
    }

    /// Reads a kernel written by [`Kernel::save`], re-validating every
    /// structural invariant before returning it.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` for version mismatches, malformed lines, or
    /// kernels that fail validation (out-of-range or forward references,
    /// NaN terminals). The `xi`/`xf` lines must name each input's slot
    /// pair: `xi[i]` even, `xf[i] = xi[i] + 1`, and the slots `xi[i] / 2`
    /// a permutation of the inputs — the layout every evaluator and
    /// [`Kernel::expected_capacitance`] assume.
    pub fn load<R: BufRead>(mut r: R) -> io::Result<Kernel> {
        let mut line = String::new();
        let mut next = |r: &mut R| -> io::Result<String> {
            line.clear();
            if r.read_line(&mut line)? == 0 {
                return Err(bad("unexpected end of kernel file"));
            }
            Ok(line.trim_end().to_owned())
        };

        if next(&mut r)? != MAGIC {
            return Err(bad("not a charfree-kernel v1 file"));
        }
        let name = next(&mut r)?
            .strip_prefix("name ")
            .ok_or_else(|| bad("missing name"))?
            .to_owned();
        let num_inputs: usize = next(&mut r)?
            .strip_prefix("inputs ")
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("missing inputs"))?;
        let num_vars: u32 = next(&mut r)?
            .strip_prefix("vars ")
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("missing vars"))?;
        match next(&mut r)?.strip_prefix("interleaved ") {
            Some("1") => {}
            Some("0") => return Err(bad("non-interleaved kernels are not supported")),
            _ => return Err(bad("bad interleaved flag")),
        }
        let parse_vars = |line: String, tag: &str| -> io::Result<Vec<u32>> {
            line.strip_prefix(tag)
                .ok_or_else(|| bad(format!("missing {}", tag.trim())))?
                .split_whitespace()
                .map(|t| t.parse().map_err(|_| bad("bad variable index")))
                .collect()
        };
        let xi = parse_vars(next(&mut r)?, "xi ")?;
        let xf = parse_vars(next(&mut r)?, "xf ")?;
        if xi.len() != xf.len()
            || xi
                .iter()
                .zip(&xf)
                .any(|(&vi, &vf)| vi % 2 != 0 || vf != vi + 1)
        {
            return Err(bad("input variable maps are not interleaved slot pairs"));
        }
        let slots = xi.iter().map(|&v| v / 2).collect();
        let terminals: Vec<f64> = next(&mut r)?
            .strip_prefix("terminals ")
            .ok_or_else(|| bad("missing terminals"))?
            .split_whitespace()
            .map(|t| {
                u64::from_str_radix(t, 16)
                    .map(f64::from_bits)
                    .map_err(|_| bad("bad terminal bits"))
            })
            .collect::<io::Result<_>>()?;
        let instr_count: usize = next(&mut r)?
            .strip_prefix("instrs ")
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("missing instrs"))?;
        let mut instrs = Vec::new();
        for _ in 0..instr_count {
            let iline = next(&mut r)?;
            let mut toks = iline.split_whitespace();
            let var: u32 = toks
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| bad("bad instruction variable"))?;
            let lo = parse_ref(toks.next().ok_or_else(|| bad("missing lo reference"))?)?;
            let hi = parse_ref(toks.next().ok_or_else(|| bad("missing hi reference"))?)?;
            if toks.next().is_some() {
                return Err(bad("trailing tokens on instruction line"));
            }
            instrs.push(Instr { var, lo, hi });
        }
        let root = parse_ref(
            next(&mut r)?
                .strip_prefix("root ")
                .ok_or_else(|| bad("missing root"))?,
        )?;

        let mut kernel = Kernel {
            name,
            num_vars,
            num_inputs,
            instrs,
            terminals,
            root,
            slots,
            batch: Batch::Constant(0.0),
            depth: 0,
        };
        kernel.validate().map_err(bad)?;
        kernel.derive_batch().map_err(bad)?;
        Ok(kernel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use charfree_core::ModelBuilder;
    use charfree_netlist::{benchmarks, Library};
    use charfree_sim::ExhaustivePairs;

    fn round_trip(kernel: &Kernel) -> Kernel {
        let mut buf = Vec::new();
        kernel.save(&mut buf).expect("saves");
        Kernel::load(buf.as_slice()).expect("loads")
    }

    #[test]
    fn kernel_round_trips_bit_exactly() {
        let library = Library::test_library();
        let model =
            ModelBuilder::new(&benchmarks::by_name("decod", &library).expect("Table 1 name"))
                .build();
        let kernel = Kernel::compile(&model);
        let back = round_trip(&kernel);
        assert_eq!(back.name(), kernel.name());
        assert_eq!(back.num_instrs(), kernel.num_instrs());
        for (xi, xf) in ExhaustivePairs::new(5) {
            assert_eq!(
                back.eval_transition(&xi, &xf).to_bits(),
                kernel.eval_transition(&xi, &xf).to_bits(),
                "xi={xi:?} xf={xf:?}"
            );
        }
    }

    #[test]
    fn degraded_kernel_round_trips() {
        let library = Library::test_library();
        let model =
            ModelBuilder::new(&benchmarks::by_name("cm85", &library).expect("Table 1 name"))
                .max_nodes(150)
                .build();
        let kernel = Kernel::compile(&model);
        let back = round_trip(&kernel);
        let xi = vec![true; 11];
        let xf = vec![false; 11];
        assert_eq!(
            back.eval_transition(&xi, &xf).to_bits(),
            kernel.eval_transition(&xi, &xf).to_bits()
        );
        assert_eq!(
            back.expected_capacitance(0.5, 0.3).to_bits(),
            kernel.expected_capacitance(0.5, 0.3).to_bits()
        );
    }

    #[test]
    fn rejects_malformed_kernels() {
        assert!(Kernel::load("garbage".as_bytes()).is_err());
        assert!(Kernel::load("charfree-kernel v1\n".as_bytes()).is_err());
        // A forward reference must be rejected by validation.
        let text = "charfree-kernel v1\nname x\ninputs 1\nvars 2\ninterleaved 1\n\
                    xi 0\nxf 1\nterminals 0000000000000000\ninstrs 1\n0 I0 T0\nroot I0\n";
        assert!(Kernel::load(text.as_bytes()).is_err());
        // Same shape with a backward (terminal) reference is fine.
        let text = "charfree-kernel v1\nname x\ninputs 1\nvars 2\ninterleaved 1\n\
                    xi 0\nxf 1\nterminals 0000000000000000\ninstrs 1\n0 T0 T0\nroot I0\n";
        assert!(Kernel::load(text.as_bytes()).is_ok());
        // The grouped layout's flag is a typed error.
        let text = text.replace("interleaved 1", "interleaved 0");
        let err = Kernel::load(text.as_bytes()).expect_err("interleaved 0 is rejected");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
