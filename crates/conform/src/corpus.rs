//! Persisted failing-case corpus.
//!
//! Every minimized repro is written as a self-contained text file
//! (netlist + trace + the generator seed and statistics that produced
//! it) under a corpus directory. Committed repros are replayed by the
//! test suite and by `charfree conform`, so a once-found divergence can
//! never silently come back.
//!
//! Format (`.repro`, line-oriented, `#` comments allowed):
//!
//! ```text
//! charfree-conform repro v1
//! name <case-name>
//! seed <hex>
//! sp <f64-bits-hex>
//! st <f64-bits-hex>
//! blif <line-count>
//! <BLIF text, exactly that many lines>
//! trace <patterns> <bits>
//! <one 0/1 string per pattern>
//! end
//! ```
//!
//! `sp`/`st` travel as IEEE-754 bit patterns for exact replay (the same
//! convention the serve wire protocol uses for capacitances).

use std::fs;
use std::path::{Path, PathBuf};

/// One replayable failing (or regression) case.
#[derive(Debug, Clone, PartialEq)]
pub struct Repro {
    /// Case name (also the file stem).
    pub name: String,
    /// Generator seed that produced the original case.
    pub seed: u64,
    /// Signal probability of the original trace.
    pub sp: f64,
    /// Transition probability of the original trace.
    pub st: f64,
    /// The (possibly minimized) circuit as BLIF text.
    pub blif: String,
    /// The (possibly minimized) explicit pattern trace.
    pub patterns: Vec<Vec<bool>>,
}

const HEADER: &str = "charfree-conform repro v1";

impl Repro {
    /// Serializes to the corpus text format.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{HEADER}");
        let _ = writeln!(out, "name {}", self.name);
        let _ = writeln!(out, "seed {:#x}", self.seed);
        let _ = writeln!(out, "sp {:016x}", self.sp.to_bits());
        let _ = writeln!(out, "st {:016x}", self.st.to_bits());
        let blif_lines: Vec<&str> = self.blif.lines().collect();
        let _ = writeln!(out, "blif {}", blif_lines.len());
        for line in &blif_lines {
            let _ = writeln!(out, "{line}");
        }
        let width = self.patterns.first().map_or(0, Vec::len);
        let _ = writeln!(out, "trace {} {}", self.patterns.len(), width);
        for p in &self.patterns {
            for &b in p {
                out.push(if b { '1' } else { '0' });
            }
            out.push('\n');
        }
        out.push_str("end\n");
        out
    }

    /// Parses the corpus text format.
    ///
    /// # Errors
    ///
    /// A diagnostic naming the offending line.
    fn from_text(text: &str) -> Result<Repro, String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("empty repro file")?;
        if header.trim() != HEADER {
            return Err(format!("bad header `{header}`"));
        }
        let mut name = String::new();
        let mut seed = 0u64;
        let mut sp = 0.5f64;
        let mut st = 0.0f64;
        let mut blif = String::new();
        let mut patterns: Vec<Vec<bool>> = Vec::new();
        loop {
            let line = lines.next().ok_or("unterminated repro (missing `end`)")?;
            let line = line.trim_end();
            if line == "end" {
                break;
            }
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            match key {
                "name" => name = rest.trim().to_owned(),
                "seed" => {
                    let rest = rest.trim();
                    let digits = rest.strip_prefix("0x").unwrap_or(rest);
                    seed = u64::from_str_radix(digits, 16)
                        .map_err(|e| format!("bad seed `{rest}`: {e}"))?;
                }
                "sp" => {
                    sp = f64::from_bits(
                        u64::from_str_radix(rest.trim(), 16)
                            .map_err(|e| format!("bad sp `{rest}`: {e}"))?,
                    );
                }
                "st" => {
                    st = f64::from_bits(
                        u64::from_str_radix(rest.trim(), 16)
                            .map_err(|e| format!("bad st `{rest}`: {e}"))?,
                    );
                }
                "blif" => {
                    let count: usize = rest
                        .trim()
                        .parse()
                        .map_err(|e| format!("bad blif line count `{rest}`: {e}"))?;
                    for _ in 0..count {
                        let l = lines.next().ok_or("truncated blif block")?;
                        blif.push_str(l);
                        blif.push('\n');
                    }
                }
                "trace" => {
                    let mut parts = rest.split_whitespace();
                    let count: usize = parts
                        .next()
                        .ok_or("trace needs a pattern count")?
                        .parse()
                        .map_err(|e| format!("bad trace count: {e}"))?;
                    let width: usize = parts
                        .next()
                        .ok_or("trace needs a bit width")?
                        .parse()
                        .map_err(|e| format!("bad trace width: {e}"))?;
                    for _ in 0..count {
                        let l = lines.next().ok_or("truncated trace block")?.trim();
                        if l.len() != width {
                            return Err(format!(
                                "trace row `{l}` has {} bits, expected {width}",
                                l.len()
                            ));
                        }
                        let row: Result<Vec<bool>, String> = l
                            .chars()
                            .map(|c| match c {
                                '0' => Ok(false),
                                '1' => Ok(true),
                                other => Err(format!("bad trace bit `{other}`")),
                            })
                            .collect();
                        patterns.push(row?);
                    }
                }
                other => return Err(format!("unknown repro key `{other}`")),
            }
        }
        if blif.is_empty() {
            return Err("repro has no blif block".to_owned());
        }
        if patterns.len() < 2 {
            return Err("repro needs at least 2 trace patterns".to_owned());
        }
        Ok(Repro {
            name,
            seed,
            sp,
            st,
            blif,
            patterns,
        })
    }

    /// Writes the repro into `dir` as `<name>.repro` (directory created
    /// if missing), returning the path.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn write_to(&self, dir: &Path) -> Result<PathBuf, String> {
        fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let path = dir.join(format!("{}.repro", self.name));
        fs::write(&path, self.to_text()).map_err(|e| format!("writing {}: {e}", path.display()))?;
        Ok(path)
    }
}

/// Loads every `.repro` file under `dir`, sorted by file name for a
/// deterministic replay order. A missing directory is an empty corpus.
///
/// # Errors
///
/// I/O failures and parse failures (naming the file).
pub fn load_corpus(dir: &Path) -> Result<Vec<Repro>, String> {
    let mut paths: Vec<PathBuf> = match fs::read_dir(dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "repro"))
            .collect(),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("reading {}: {e}", dir.display())),
    };
    paths.sort();
    let mut out = Vec::with_capacity(paths.len());
    for path in paths {
        let text =
            fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
        let repro = Repro::from_text(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        out.push(repro);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repro_round_trips_exactly() {
        let repro = Repro {
            name: "rt".to_owned(),
            seed: 0xC0FFEE,
            sp: 0.4375,
            st: 0.3,
            blif: ".model rt\n.inputs a b\n.outputs _n2\n.gate xor2 a=a b=b O=_n2\n.end\n"
                .to_owned(),
            patterns: vec![vec![false, true], vec![true, true], vec![true, false]],
        };
        let back = Repro::from_text(&repro.to_text()).expect("parses");
        assert_eq!(back, repro);
        assert_eq!(back.st.to_bits(), repro.st.to_bits());
    }

    #[test]
    fn malformed_repros_are_typed_errors() {
        assert!(Repro::from_text("").is_err());
        assert!(Repro::from_text("wrong header\nend\n").is_err());
        let missing_end = format!("{HEADER}\nname x\n");
        assert!(Repro::from_text(&missing_end).is_err());
        let bad_bits = format!("{HEADER}\nblif 1\n.model x\ntrace 2 2\n0z\n11\nend\n");
        assert!(Repro::from_text(&bad_bits).is_err());
    }
}
