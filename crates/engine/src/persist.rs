//! Kernels from `.cfm` model files, and the kernel's canonical text.
//!
//! A model is shipped as one artifact, its `.cfm` file.
//! [`Kernel::from_cfm`] reads it straight into kernel instructions: the
//! file's `ddv1` diagram section lists the nodes children first, which is
//! the kernel's instruction order, so no diagram manager is built. Each
//! byte is checked once, as it is read: [`ModelHeader::read`] checks the
//! header, [`parse_diagram`] the diagram (references in range and
//! backwards, variables increasing along every edge, no NaN terminal);
//! the kernel is built from the parsed diagram as it is.
//!
//! [`Kernel::save`] writes the kernel's canonical text, which tests
//! digest to pin kernel bits; nothing reads it back.
//!
//! ```text
//! charfree-kernel v1
//! name <display name>
//! inputs <n>
//! vars <2n>
//! interleaved 1
//! xi <var> … <var>          n entries: 2·slot of each input
//! xf <var> … <var>          n entries: 2·slot + 1 of each input
//! terminals <hex64> … <hex64>
//! instrs <count>
//! <var> <ref> <ref>          one line per instruction, children first
//! root <ref>
//! ```
//!
//! References are `I<k>` (instruction `k`) or `T<k>` (terminal `k`).

use crate::kernel::{Kernel, TERMINAL_BIT};
use charfree_core::{xf_var, xi_var, ModelHeader};
use charfree_dd::io::parse_diagram;
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

impl Kernel {
    /// Writes the kernel's canonical `charfree-kernel v1` text to `w`.
    /// Terminal values are written as IEEE-754 bit patterns, so equal
    /// bytes mean bit-identical kernels.
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

    /// Reads a `.cfm` model file straight into a kernel, with no
    /// [`Manager`](charfree_dd::Manager): the [`ModelHeader`], then the
    /// file's diagram section as instructions, then the kernel's batch
    /// program. Each byte is checked once, where it is read:
    /// [`ModelHeader::read`] checks the header, [`parse_diagram`] the
    /// diagram's references and variable order. On any file
    /// [`AddPowerModel::save`](charfree_core::AddPowerModel::save)
    /// wrote, the result is the kernel [`Kernel::compile`] makes of the
    /// loaded model, down to its [`Kernel::save`] bytes.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` for anything
    /// [`AddPowerModel::load`](charfree_core::AddPowerModel::load)
    /// refuses, and for a walking kernel with more entry nodes than the
    /// stride walk can name (which [`Kernel::compile`] would panic on).
    pub fn from_cfm<R: BufRead>(mut r: R) -> io::Result<Kernel> {
        let header = ModelHeader::read(&mut r)?;
        let dump = parse_diagram(r)?;
        Kernel::from_dump(header.name, &header.input_slots, dump).map_err(bad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_malformed_models() {
        assert!(Kernel::from_cfm("garbage".as_bytes()).is_err());
        assert!(Kernel::from_cfm("charfree-model v1\n".as_bytes()).is_err());
        let header = "charfree-model v1\nname x\ninputs 1\nordering interleaved\n\
                      slots 0\nreport 0 0 1 0\nmixture 0\nmeans -\n";
        let terminal = format!("t 1\n{:016x}\n", 1.5f64.to_bits());
        // A forward reference must be rejected.
        let text = format!("{header}ddv1 2\n{terminal}n 1\n0 N0 T0\nr N0\n");
        assert!(Kernel::from_cfm(text.as_bytes()).is_err());
        // The same shape with terminal references is fine.
        let text = format!("{header}ddv1 2\n{terminal}n 1\n0 T0 T0\nr N0\n");
        let kernel = Kernel::from_cfm(text.as_bytes()).expect("valid");
        assert_eq!(kernel.eval_transition(&[true], &[false]), 1.5);
        // A diagram over more variables than the model has.
        let text = format!("{header}ddv1 4\n{terminal}n 1\n3 T0 T0\nr N0\n");
        let err = Kernel::from_cfm(text.as_bytes()).expect_err("too many variables");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
