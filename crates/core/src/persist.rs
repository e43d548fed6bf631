//! Power-model persistence — the paper's backannotation story.
//!
//! Once constructed, a model "is used to backannotate [the macro's]
//! functional description" and must be distributable *without* the
//! gate-level netlist (Section 2: a direct representation of `C(xⁱ,xᶠ)`
//! protects third-party IP). [`AddPowerModel::save`] writes the complete
//! model — diagram, input/slot mapping, collapse mixture and analytic
//! means — as a versioned text artifact; [`AddPowerModel::load`] restores
//! a fully functional model (evaluation, symbolic statistics, further
//! [`AddPowerModel::shrink`] passes). [`ModelHeader::read`] decodes the
//! lines before the diagram, for readers that take the diagram without a
//! manager.

use crate::calibrate::ExactMeans;
use crate::model::{AddPowerModel, BuildReport};
use charfree_dd::io::next_line;
use charfree_dd::{Add, ChainMeasure, Manager, VarMeasure};
use std::io::{self, BufRead, Write};
use std::time::Duration;

const MAGIC: &str = "charfree-model v1";

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

fn hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn unhex(tok: &str) -> io::Result<f64> {
    let bits = u64::from_str_radix(tok, 16).map_err(|_| bad("bad f64 bits"))?;
    let v = f64::from_bits(bits);
    if v.is_nan() {
        return Err(bad("NaN in model file"));
    }
    Ok(v)
}

impl AddPowerModel {
    /// Writes the model to `w` in the versioned `charfree-model v1` text
    /// format. The golden netlist is **not** part of the artifact.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn save<W: Write>(&self, mut w: W) -> io::Result<()> {
        writeln!(w, "{MAGIC}")?;
        writeln!(w, "name {}", self.display_name)?;
        writeln!(w, "inputs {}", self.num_inputs)?;
        writeln!(w, "ordering interleaved")?;
        let slots: Vec<String> = self.input_slots.iter().map(|s| s.to_string()).collect();
        writeln!(w, "slots {}", slots.join(" "))?;
        writeln!(
            w,
            "report {} {} {} {}",
            self.report.approximation_rounds,
            self.report.nodes_collapsed,
            u8::from(self.report.exact),
            self.report.cpu.as_secs_f64()
        )?;
        writeln!(w, "mixture {}", self.collapse_mixture.len())?;
        for (measure, weight) in &self.collapse_mixture {
            let mut items = Vec::with_capacity(measure.len());
            for v in 0..measure.len() {
                if measure.is_correlated(v as u32) {
                    items.push(format!(
                        "c:{}:{}",
                        hex(measure.prob_one(v, 1)),
                        hex(measure.prob_one(v, 2))
                    ));
                } else {
                    items.push(format!("i:{}", hex(measure.prob_one(v, 0))));
                }
            }
            writeln!(w, "measure {} {}", hex(*weight), items.join(" "))?;
        }
        match &self.exact_means {
            Some(means) => {
                let vals: Vec<String> = means.0.iter().map(|&v| hex(v)).collect();
                writeln!(w, "means {}", vals.join(" "))?;
            }
            None => writeln!(w, "means -")?,
        }
        charfree_dd::io::write_diagram(&self.manager, self.root.node(), w)
    }

    /// Reads a model written by [`AddPowerModel::save`]: the
    /// [`ModelHeader`], then the diagram into a fresh [`Manager`].
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` for malformed or version-mismatched input.
    pub fn load<R: BufRead>(mut r: R) -> io::Result<AddPowerModel> {
        let header = ModelHeader::read(&mut r)?;
        let mut manager = Manager::new(2 * header.num_inputs as u32);
        let root = charfree_dd::io::read_diagram(&mut manager, r)?;
        let mut report = header.report;
        report.final_size = manager.size(root);
        Ok(AddPowerModel {
            manager,
            root: Add::from_node(root),
            num_inputs: header.num_inputs,
            input_slots: header.input_slots,
            collapse_mixture: header.collapse_mixture,
            exact_means: header.exact_means,
            report,
            // Degradation metadata is build-time diagnostics and is not
            // persisted; a reloaded model reports a clean build.
            degradation: None,
            display_name: header.name,
        })
    }
}

/// Everything a `.cfm` file holds before its `ddv1` diagram section, as
/// [`ModelHeader::read`] decodes and checks it. [`AddPowerModel::load`]
/// reads the diagram that follows into a manager; flat evaluators read
/// it with [`charfree_dd::io::parse_diagram`].
#[derive(Debug, Clone)]
pub struct ModelHeader {
    /// Display name.
    pub name: String,
    /// Number of macro inputs `n`; the diagram has `2n` variables.
    pub num_inputs: usize,
    /// `input_slots[i]` = the order slot of input `i`, whose variables
    /// are [`xi_var`](crate::xi_var)`(slot)` and
    /// [`xf_var`](crate::xf_var)`(slot)`; a permutation of `0..n`.
    pub input_slots: Vec<usize>,
    /// The build report; `final_size` is 0 until the diagram is read.
    report: BuildReport,
    collapse_mixture: Vec<(ChainMeasure, f64)>,
    exact_means: Option<ExactMeans>,
}

impl ModelHeader {
    /// Reads the header lines of a `.cfm` file from `r`, leaving `r` at
    /// the diagram section.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` for a version mismatch, a layout other than
    /// `ordering interleaved`, slots that are not a permutation of the
    /// inputs, a report line that is not four fields with an exact flag
    /// of `0` or `1`, or a malformed mixture or means line.
    pub fn read<R: BufRead>(r: &mut R) -> io::Result<ModelHeader> {
        // One line buffer for the whole header.
        let mut buf = String::new();

        if next_line(r, &mut buf)? != MAGIC {
            return Err(bad("not a charfree-model v1 file"));
        }
        let name = next_line(r, &mut buf)?
            .strip_prefix("name ")
            .ok_or_else(|| bad("missing name"))?
            .to_owned();
        let num_inputs: usize = next_line(r, &mut buf)?
            .strip_prefix("inputs ")
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("missing inputs"))?;
        // The one variable layout (see `model::xi_var`); the evaluators
        // and the transition measures assume it.
        if next_line(r, &mut buf)? != "ordering interleaved" {
            return Err(bad("only `ordering interleaved` is supported"));
        }
        let slots_str = next_line(r, &mut buf)?
            .strip_prefix("slots ")
            .ok_or_else(|| bad("missing slots"))?;
        let input_slots: Vec<usize> = slots_str
            .split_ascii_whitespace()
            .map(|t| t.parse().map_err(|_| bad("bad slot")))
            .collect::<io::Result<_>>()?;
        if input_slots.len() != num_inputs {
            return Err(bad("slot count mismatch"));
        }
        {
            let mut seen = vec![false; num_inputs];
            for &s in &input_slots {
                if s >= num_inputs || seen[s] {
                    return Err(bad("slots are not a permutation"));
                }
                seen[s] = true;
            }
        }

        let mut parts = next_line(r, &mut buf)?
            .strip_prefix("report ")
            .ok_or_else(|| bad("missing report"))?
            .split_ascii_whitespace();
        let approximation_rounds: usize = parts
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| bad("bad report"))?;
        let nodes_collapsed: usize = parts
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| bad("bad report"))?;
        let exact = match parts.next() {
            Some("0") => false,
            Some("1") => true,
            _ => return Err(bad("bad report")),
        };
        let cpu = parts
            .next()
            .and_then(|t| t.parse().ok())
            .and_then(|secs| Duration::try_from_secs_f64(secs).ok())
            .ok_or_else(|| bad("bad report"))?;
        if parts.next().is_some() {
            return Err(bad("trailing tokens on report line"));
        }

        let mixture_count: usize = next_line(r, &mut buf)?
            .strip_prefix("mixture ")
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("missing mixture"))?;
        let mut collapse_mixture = Vec::new();
        for _ in 0..mixture_count {
            let rest = next_line(r, &mut buf)?
                .strip_prefix("measure ")
                .ok_or_else(|| bad("missing measure"))?;
            let mut toks = rest.split_ascii_whitespace();
            let weight = unhex(toks.next().ok_or_else(|| bad("missing weight"))?)?;
            // At most `2n` items fit; `n` is bounded by the slots line.
            let mut items = Vec::with_capacity(2 * num_inputs);
            for tok in toks {
                if let Some(p) = tok.strip_prefix("i:") {
                    items.push(VarMeasure::Independent(unhex(p)?));
                } else if let Some(rest) = tok.strip_prefix("c:") {
                    let (a, b) = rest
                        .split_once(':')
                        .ok_or_else(|| bad("bad measure item"))?;
                    items.push(VarMeasure::Correlated {
                        when_prev_false: unhex(a)?,
                        when_prev_true: unhex(b)?,
                    });
                } else {
                    return Err(bad("bad measure item"));
                }
            }
            if items.len() != 2 * num_inputs {
                return Err(bad("measure variable count mismatch"));
            }
            collapse_mixture.push((ChainMeasure::try_new(items).map_err(bad)?, weight));
        }

        let means_str = next_line(r, &mut buf)?
            .strip_prefix("means ")
            .ok_or_else(|| bad("missing means"))?;
        let exact_means = if means_str == "-" {
            None
        } else {
            let vals: Vec<f64> = means_str
                .split_ascii_whitespace()
                .map(unhex)
                .collect::<io::Result<_>>()?;
            if vals.len() != mixture_count {
                return Err(bad("means count mismatch"));
            }
            Some(ExactMeans(vals))
        };

        let report = BuildReport {
            approximation_rounds,
            nodes_collapsed,
            final_size: 0,
            exact,
            cpu,
        };
        Ok(ModelHeader {
            name,
            num_inputs,
            input_slots,
            report,
            collapse_mixture,
            exact_means,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModelBuilder;
    use crate::model::PowerModel;
    use charfree_netlist::{benchmarks, Library};
    use charfree_sim::ExhaustivePairs;

    fn round_trip(model: &AddPowerModel) -> AddPowerModel {
        let mut buf = Vec::new();
        model.save(&mut buf).expect("saves");
        AddPowerModel::load(buf.as_slice()).expect("loads")
    }

    #[test]
    fn exact_model_round_trips_bit_exactly() {
        let library = Library::test_library();
        let netlist = benchmarks::by_name("decod", &library).expect("Table 1 name");
        let model = ModelBuilder::new(&netlist).build();
        let back = round_trip(&model);
        assert_eq!(back.num_inputs(), model.num_inputs());
        assert_eq!(back.size(), model.size());
        assert_eq!(back.name(), model.name());
        assert!(back.report().exact);
        for (xi, xf) in ExhaustivePairs::new(5) {
            assert_eq!(
                back.capacitance(&xi, &xf).femtofarads().to_bits(),
                model.capacitance(&xi, &xf).femtofarads().to_bits()
            );
        }
    }

    #[test]
    fn approximated_model_round_trips_with_metadata() {
        let library = Library::test_library();
        let netlist = benchmarks::by_name("cm85", &library).expect("Table 1 name");
        let model = ModelBuilder::new(&netlist).max_nodes(200).build();
        let back = round_trip(&model);
        assert!(!back.report().exact);
        assert_eq!(
            back.report().nodes_collapsed,
            model.report().nodes_collapsed
        );
        assert_eq!(
            back.average_capacitance().femtofarads().to_bits(),
            model.average_capacitance().femtofarads().to_bits()
        );
        // Spot-check evaluation.
        let xi = vec![false; 11];
        let xf = vec![true; 11];
        assert_eq!(back.capacitance(&xi, &xf), model.capacitance(&xi, &xf));
    }

    #[test]
    fn loaded_model_can_shrink_further_with_recalibration() {
        let library = Library::test_library();
        let netlist = benchmarks::by_name("cm85", &library).expect("Table 1 name");
        let model = ModelBuilder::new(&netlist).max_nodes(500).build();
        let back = round_trip(&model);
        // The exact means survive, so shrink keeps recalibrating.
        let small = back.shrink(50, crate::ApproxStrategy::Average);
        assert!(small.size() <= 50);
        assert!(small.average_capacitance().femtofarads() > 0.0);
    }

    #[test]
    fn rejects_malformed_files() {
        assert!(AddPowerModel::load("garbage".as_bytes()).is_err());
        assert!(AddPowerModel::load("charfree-model v1\n".as_bytes()).is_err());
        let text = "charfree-model v1\nname x\ninputs 2\nordering diagonal\n";
        assert!(AddPowerModel::load(text.as_bytes()).is_err());
        // The grouped layout is a typed error.
        let text = "charfree-model v1\nname x\ninputs 2\nordering grouped\nslots 0 1\n";
        let err = AddPowerModel::load(text.as_bytes()).expect_err("grouped is rejected");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Bad slot permutation.
        let text = "charfree-model v1\nname x\ninputs 2\nordering interleaved\nslots 0 0\n";
        assert!(AddPowerModel::load(text.as_bytes()).is_err());

        // Declared counts far past the file reserve nothing up front, and
        // a CPU field no `Duration` can hold is refused: typed errors.
        let library = Library::test_library();
        let netlist = benchmarks::by_name("decod", &library).expect("Table 1 name");
        let mut buf = Vec::new();
        ModelBuilder::new(&netlist)
            .build()
            .save(&mut buf)
            .expect("saves");
        let text = String::from_utf8(buf).expect("format is text");
        let report = text
            .lines()
            .find(|line| line.starts_with("report "))
            .expect("report line");
        let fields: Vec<&str> = report.split_ascii_whitespace().collect();
        let negative_cpu = format!("{} -1", fields[..4].join(" "));
        // The exact flag is `0` or `1`, and the line has four fields.
        let bad_flag = format!("report {} {} 7 {}", fields[1], fields[2], fields[4]);
        let trailing = format!("{report} junk");
        for (prefix, replacement) in [
            ("mixture ", "mixture 4000000000000000"),
            ("t ", "t 4000000000000000"),
            ("n ", "n 4000000000000000"),
            ("report ", negative_cpu.as_str()),
            ("report ", bad_flag.as_str()),
            ("report ", trailing.as_str()),
        ] {
            let hostile: String = text
                .lines()
                .map(|line| {
                    let line = if line.starts_with(prefix) {
                        replacement
                    } else {
                        line
                    };
                    format!("{line}\n")
                })
                .collect();
            assert_ne!(hostile, text, "`{prefix}` line present");
            let err = AddPowerModel::load(hostile.as_bytes()).expect_err(prefix);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{prefix}: {err}");
        }
        // A measure probability outside [0, 1] is a typed error, not the
        // measure constructor's panic.
        let hostile = text.replacen("i:3fe0000000000000", "i:4000000000000000", 1);
        assert_ne!(hostile, text, "a measure item of 0.5 is present");
        let err = AddPowerModel::load(hostile.as_bytes()).expect_err("probability 2");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }
}
