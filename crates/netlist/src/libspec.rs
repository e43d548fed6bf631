//! Text format for gate-library capacitance data.
//!
//! The paper's flow back-annotates loads from "input capacitances of
//! fan-out gates"; those capacitances are library data a user will want to
//! supply for their own technology. The `libspec` format is a minimal,
//! line-oriented exchange format:
//!
//! ```text
//! # comment
//! library my28nm
//! wire 1.2
//! output_load 8.0
//! cell inv 2.1
//! cell nand2 2.6 2.6
//! cell mux2 4.0 3.5 3.5
//! ```
//!
//! `cell` lines list per-pin input capacitances in femtofarads (one value
//! per pin, or a single value applied to all pins). Cells omitted from the
//! spec keep the default test-library values.

use crate::library::{CellKind, Library, ALL_CELLS};
use crate::units::Capacitance;
use std::error::Error;
use std::fmt;

/// Errors produced while parsing a library spec.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseLibraryError {
    /// Malformed line (1-based line number and description).
    Syntax(usize, String),
    /// `cell` line referenced an unknown cell name.
    UnknownCell(usize, String),
    /// A capacitance was negative or not a number.
    BadValue(usize, String),
    /// A `cell` line had neither 1 nor arity-many values.
    WrongPinCount {
        /// 1-based line number.
        line: usize,
        /// The cell in question.
        cell: CellKind,
        /// Values provided.
        got: usize,
    },
}

impl fmt::Display for ParseLibraryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseLibraryError::Syntax(l, m) => write!(f, "line {l}: {m}"),
            ParseLibraryError::UnknownCell(l, c) => write!(f, "line {l}: unknown cell `{c}`"),
            ParseLibraryError::BadValue(l, v) => write!(f, "line {l}: bad capacitance `{v}`"),
            ParseLibraryError::WrongPinCount { line, cell, got } => write!(
                f,
                "line {line}: cell `{cell}` takes 1 or {} values, got {got}",
                cell.arity()
            ),
        }
    }
}

impl Error for ParseLibraryError {}

/// Parses a `libspec` document into a [`Library`] (unspecified cells keep
/// the test-library defaults).
///
/// # Errors
///
/// See [`ParseLibraryError`].
///
/// # Examples
///
/// ```
/// use charfree_netlist::{libspec, CellKind};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let lib = libspec::parse("library t\nwire 1.5\ncell inv 2.0\n")?;
/// assert_eq!(lib.name(), "t");
/// assert_eq!(lib.wire_cap().femtofarads(), 1.5);
/// assert_eq!(lib.pin_cap(CellKind::Inv, 0).femtofarads(), 2.0);
/// # Ok(())
/// # }
/// ```
pub fn parse(text: &str) -> Result<Library, ParseLibraryError> {
    let mut library = Library::test_library();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = match raw.find('#') {
            Some(p) => &raw[..p],
            None => raw,
        }
        .trim();
        if line.is_empty() {
            continue;
        }
        let mut words = line.split_whitespace();
        let Some(keyword) = words.next() else {
            continue; // unreachable after the is_empty check, but harmless
        };
        let parse_cap = |tok: &str| -> Result<Capacitance, ParseLibraryError> {
            let v: f64 = tok
                .parse()
                .map_err(|_| ParseLibraryError::BadValue(line_no, tok.to_owned()))?;
            if v < 0.0 || !v.is_finite() {
                return Err(ParseLibraryError::BadValue(line_no, tok.to_owned()));
            }
            Ok(Capacitance(v))
        };
        match keyword {
            "library" => {
                let name = words.next().ok_or_else(|| {
                    ParseLibraryError::Syntax(line_no, "library needs a name".into())
                })?;
                library.set_name(name);
            }
            "wire" => {
                let tok = words.next().ok_or_else(|| {
                    ParseLibraryError::Syntax(line_no, "wire needs a value".into())
                })?;
                library.set_wire_cap(parse_cap(tok)?);
            }
            "output_load" => {
                let tok = words.next().ok_or_else(|| {
                    ParseLibraryError::Syntax(line_no, "output_load needs a value".into())
                })?;
                library.set_output_load(parse_cap(tok)?);
            }
            "cell" => {
                let cell_name = words.next().ok_or_else(|| {
                    ParseLibraryError::Syntax(line_no, "cell needs a name".into())
                })?;
                let cell = CellKind::from_name(cell_name)
                    .ok_or_else(|| ParseLibraryError::UnknownCell(line_no, cell_name.to_owned()))?;
                let values: Vec<Capacitance> = words.map(parse_cap).collect::<Result<_, _>>()?;
                match values.len() {
                    1 => library.set_pin_cap(cell, values[0]),
                    k if k == cell.arity() => {
                        for (pin, &cap) in values.iter().enumerate() {
                            library.set_pin_cap_at(cell, pin, cap);
                        }
                    }
                    got => {
                        return Err(ParseLibraryError::WrongPinCount {
                            line: line_no,
                            cell,
                            got,
                        });
                    }
                }
            }
            other => {
                return Err(ParseLibraryError::Syntax(
                    line_no,
                    format!("unknown keyword `{other}`"),
                ));
            }
        }
    }
    Ok(library)
}

/// Serializes a [`Library`] in `libspec` form; [`parse`] round-trips it.
pub fn write(library: &Library) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "library {}", library.name());
    let _ = writeln!(out, "wire {}", library.wire_cap().femtofarads());
    let _ = writeln!(out, "output_load {}", library.output_load().femtofarads());
    for cell in ALL_CELLS {
        let caps: Vec<String> = (0..cell.arity())
            .map(|pin| library.pin_cap(cell, pin).femtofarads().to_string())
            .collect();
        let _ = writeln!(out, "cell {} {}", cell.name(), caps.join(" "));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_query() {
        let text = "
# a tiny tech
library t1
wire 1.5
output_load 9.0
cell inv 2.0
cell nand2 2.5 2.75
";
        let lib = parse(text).expect("valid spec");
        assert_eq!(lib.name(), "t1");
        assert_eq!(lib.wire_cap().femtofarads(), 1.5);
        assert_eq!(lib.output_load().femtofarads(), 9.0);
        assert_eq!(lib.pin_cap(CellKind::Inv, 0).femtofarads(), 2.0);
        assert_eq!(lib.pin_cap(CellKind::Nand2, 0).femtofarads(), 2.5);
        assert_eq!(lib.pin_cap(CellKind::Nand2, 1).femtofarads(), 2.75);
        // Unspecified cells keep defaults.
        assert_eq!(lib.pin_cap(CellKind::Xor2, 0).femtofarads(), 9.0);
    }

    #[test]
    fn round_trip() {
        let mut lib = Library::test_library();
        lib.set_name("rt");
        lib.set_wire_cap(Capacitance(3.25));
        lib.set_pin_cap_at(CellKind::Mux2, 0, Capacitance(11.0));
        let text = write(&lib);
        let back = parse(&text).expect("round-trips");
        assert_eq!(back.name(), "rt");
        assert_eq!(back.wire_cap(), lib.wire_cap());
        for cell in ALL_CELLS {
            for pin in 0..cell.arity() {
                assert_eq!(
                    back.pin_cap(cell, pin),
                    lib.pin_cap(cell, pin),
                    "{cell} {pin}"
                );
            }
        }
    }

    #[test]
    fn errors() {
        assert!(matches!(
            parse("bogus 1"),
            Err(ParseLibraryError::Syntax(1, _))
        ));
        assert!(matches!(
            parse("cell nothere 1.0"),
            Err(ParseLibraryError::UnknownCell(1, _))
        ));
        assert!(matches!(
            parse("cell inv -1.0"),
            Err(ParseLibraryError::BadValue(1, _))
        ));
        assert!(matches!(
            parse("cell inv abc"),
            Err(ParseLibraryError::BadValue(1, _))
        ));
        assert!(matches!(
            parse("cell mux2 1.0 2.0"),
            Err(ParseLibraryError::WrongPinCount { got: 2, .. })
        ));
        assert!(matches!(
            parse("wire"),
            Err(ParseLibraryError::Syntax(1, _))
        ));
        let e = parse("cell mux2 1.0 2.0").expect_err("wrong pins");
        assert!(e.to_string().contains("mux2"));
    }

    #[test]
    fn affects_back_annotation() {
        let text = "library fat\nwire 100.0\ncell inv 50.0\n";
        let fat = parse(text).expect("valid");
        let thin = Library::test_library();
        let netlist_fat = crate::benchmarks::by_name("parity", &fat).expect("Table 1 name");
        let netlist_thin = crate::benchmarks::by_name("parity", &thin).expect("Table 1 name");
        assert!(netlist_fat.total_load() > netlist_thin.total_load());
    }
}
