//! Composition of macro power models into RT-level designs.
//!
//! Section 1.2 of the paper: summing the overall worst-case power of every
//! macro wildly overestimates a design's worst case, because no single
//! input pattern maximizes all macros at once. **Pattern-dependent** upper
//! bounds compose much more tightly: "Given an input pattern, it is
//! possible to compute an upper bound to the power consumption of the
//! entire circuit for that pattern by simply summing the pattern-dependent
//! upper bounds of its components."
//!
//! [`RtlDesign`] models a flat RT-level design: instances of macro power
//! models wired to (possibly shared) slices of a global input bus.

use crate::model::{AddPowerModel, PowerModel};
use charfree_netlist::units::Capacitance;
use std::error::Error;
use std::fmt;

/// Errors building an RTL design.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RtlError {
    /// The instance's input map references a global input out of range.
    InputOutOfRange {
        /// Offending instance name.
        instance: String,
        /// The out-of-range global index.
        index: usize,
    },
    /// The instance's input map length does not match the model width.
    WidthMismatch {
        /// Offending instance name.
        instance: String,
        /// Model input count.
        expected: usize,
        /// Provided map length.
        got: usize,
    },
}

impl fmt::Display for RtlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RtlError::InputOutOfRange { instance, index } => {
                write!(
                    f,
                    "instance `{instance}` maps input to out-of-range bus bit {index}"
                )
            }
            RtlError::WidthMismatch {
                instance,
                expected,
                got,
            } => write!(
                f,
                "instance `{instance}` needs {expected} inputs, map has {got}"
            ),
        }
    }
}

impl Error for RtlError {}

/// One macro instance inside an [`RtlDesign`].
#[derive(Debug)]
pub struct RtlInstance {
    name: String,
    model: AddPowerModel,
    /// `input_map[i]` = global bus bit feeding macro input `i`.
    input_map: Vec<usize>,
}

impl RtlInstance {
    /// Instance name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The macro's power model.
    pub fn model(&self) -> &AddPowerModel {
        &self.model
    }

    fn local(&self, global: &[bool]) -> Vec<bool> {
        self.input_map.iter().map(|&g| global[g]).collect()
    }
}

/// A flat RT-level design: macro power models over a shared input bus.
///
/// # Examples
///
/// ```
/// use charfree_core::{ModelBuilder, RtlDesign};
/// use charfree_netlist::benchmarks::paper_unit;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut design = RtlDesign::new(4);
/// let unit = paper_unit();
/// design.add_instance("u0", ModelBuilder::new(&unit).build(), vec![0, 1])?;
/// design.add_instance("u1", ModelBuilder::new(&unit).build(), vec![2, 3])?;
/// let c = design.capacitance(&[true, true, true, true], &[false; 4]);
/// assert_eq!(c.femtofarads(), 180.0); // both units: 90 fF each
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct RtlDesign {
    num_inputs: usize,
    instances: Vec<RtlInstance>,
}

impl RtlDesign {
    /// An empty design over a `num_inputs`-bit global input bus.
    pub fn new(num_inputs: usize) -> Self {
        RtlDesign {
            num_inputs,
            instances: Vec::new(),
        }
    }

    /// Global bus width.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Adds a macro instance whose input `i` is driven by global bus bit
    /// `input_map[i]`. Instances may share bus bits.
    ///
    /// # Errors
    ///
    /// [`RtlError::WidthMismatch`] or [`RtlError::InputOutOfRange`].
    pub fn add_instance(
        &mut self,
        name: impl Into<String>,
        model: AddPowerModel,
        input_map: Vec<usize>,
    ) -> Result<(), RtlError> {
        let name = name.into();
        if input_map.len() != model.num_inputs() {
            return Err(RtlError::WidthMismatch {
                instance: name,
                expected: model.num_inputs(),
                got: input_map.len(),
            });
        }
        if let Some(&bad) = input_map.iter().find(|&&g| g >= self.num_inputs) {
            return Err(RtlError::InputOutOfRange {
                instance: name,
                index: bad,
            });
        }
        self.instances.push(RtlInstance {
            name,
            model,
            input_map,
        });
        Ok(())
    }

    /// The instances, in insertion order.
    pub fn instances(&self) -> &[RtlInstance] {
        &self.instances
    }

    /// Design-level estimate for a global bus transition: the sum of every
    /// instance's model estimate. If the instance models are upper bounds,
    /// this is the composed pattern-dependent upper bound of Section 1.2.
    ///
    /// # Panics
    ///
    /// Panics if pattern widths differ from the bus width.
    pub fn capacitance(&self, xi: &[bool], xf: &[bool]) -> Capacitance {
        assert_eq!(xi.len(), self.num_inputs, "bus width mismatch");
        assert_eq!(xf.len(), self.num_inputs, "bus width mismatch");
        self.instances
            .iter()
            .map(|inst| inst.model.capacitance(&inst.local(xi), &inst.local(xf)))
            .sum()
    }

    /// The naive composed worst case: the sum of every instance's overall
    /// maximum, ignoring patterns. Always ≥ any pattern-dependent estimate;
    /// the gap is the paper's Section 1.2 argument.
    pub fn worst_case_sum(&self) -> Capacitance {
        self.instances
            .iter()
            .map(|inst| inst.model.max_capacitance())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx::ApproxStrategy;
    use crate::builder::ModelBuilder;
    use charfree_netlist::benchmarks::{by_name, paper_unit};
    use charfree_netlist::Library;

    fn unit_model() -> AddPowerModel {
        ModelBuilder::new(&paper_unit()).build()
    }

    #[test]
    fn instances_share_bus_bits() {
        let mut d = RtlDesign::new(2);
        d.add_instance("a", unit_model(), vec![0, 1]).expect("ok");
        d.add_instance("b", unit_model(), vec![1, 0]).expect("ok");
        assert_eq!(d.instances().len(), 2);
        assert_eq!(d.instances()[0].name(), "a");
        // xi=(1,1) -> xf=(0,0): each unit sees its own 11 -> 00: 90 fF.
        let c = d.capacitance(&[true, true], &[false, false]);
        assert_eq!(c.femtofarads(), 180.0);
    }

    #[test]
    fn errors_on_bad_maps() {
        let mut d = RtlDesign::new(2);
        assert!(matches!(
            d.add_instance("w", unit_model(), vec![0]),
            Err(RtlError::WidthMismatch { .. })
        ));
        assert!(matches!(
            d.add_instance("o", unit_model(), vec![0, 5]),
            Err(RtlError::InputOutOfRange { .. })
        ));
        let e = RtlError::InputOutOfRange {
            instance: "o".into(),
            index: 5,
        };
        assert!(e.to_string().contains('5'));
    }

    #[test]
    fn pattern_dependent_bound_is_tighter_than_worst_case_sum() {
        // Section 1.2: with several instances, the summed pattern-dependent
        // bound for a *specific* transition sits well below the summed
        // worst cases, yet stays conservative.
        let lib = Library::test_library();
        let netlist = by_name("decod", &lib).expect("Table 1 name");
        let mut d = RtlDesign::new(10);
        for (k, base) in [0usize, 5].iter().enumerate() {
            let bound = ModelBuilder::new(&netlist)
                .max_nodes(200)
                .strategy(ApproxStrategy::UpperBound)
                .build();
            d.add_instance(format!("dec{k}"), bound, (0..5).map(|i| base + i).collect())
                .expect("ok");
        }
        let worst = d.worst_case_sum();
        // A gentle transition: one address bit toggles on one decoder.
        let mut xi = vec![false; 10];
        let mut xf = vec![false; 10];
        xf[0] = true;
        let bound = d.capacitance(&xi, &xf);
        assert!(bound < worst, "bound {bound} vs worst-case sum {worst}");

        // Conservativeness against the real circuits.
        let sim = charfree_sim::ZeroDelaySim::new(&netlist);
        let exact = sim.switching_capacitance(&xi[..5], &xf[..5]).femtofarads()
            + sim.switching_capacitance(&xi[5..], &xf[5..]).femtofarads();
        assert!(bound.femtofarads() >= exact - 1e-9);
        xi[3] = true; // exercise the other decoder too
        let bound2 = d.capacitance(&xi, &xf);
        assert!(bound2 <= worst);
    }

    #[test]
    fn empty_design_is_zero() {
        let d = RtlDesign::new(3);
        assert_eq!(d.capacitance(&[false; 3], &[true; 3]), Capacitance(0.0));
        assert_eq!(d.worst_case_sum(), Capacitance(0.0));
        assert_eq!(d.num_inputs(), 3);
    }
}
