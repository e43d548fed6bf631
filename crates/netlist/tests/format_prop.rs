//! Property tests over the netlist interchange formats: random mapped
//! circuits must survive BLIF and structural Verilog round trips with
//! identical simulated behavior.

use charfree_netlist::{benchmarks, blif, verilog, Library, Netlist};
use proptest::prelude::*;

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

fn random_circuit(inputs: usize, gates: usize, seed: u64) -> Netlist {
    let library = Library::test_library();
    benchmarks::random_logic("fmt", inputs, gates, seed, &library)
}

fn check_equivalent(a: &Netlist, b: &Netlist, inputs: usize) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.num_inputs(), b.num_inputs());
    prop_assert_eq!(a.outputs().len(), b.outputs().len());
    // Exhaustive for small inputs, sampled otherwise.
    if inputs <= 8 {
        for bits in 0..1u32 << inputs {
            let asg: Vec<bool> = (0..inputs).map(|i| bits >> i & 1 == 1).collect();
            prop_assert_eq!(eval(a, &asg), eval(b, &asg), "bits={:b}", bits);
        }
    } else {
        let mut state = 0x5a5a_5a5au64;
        for _ in 0..256 {
            let asg: Vec<bool> = (0..inputs)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    state >> 62 & 1 == 1
                })
                .collect();
            prop_assert_eq!(eval(a, &asg), eval(b, &asg));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn blif_round_trip(inputs in 3usize..9, gates in 4usize..40, seed in 0u64..10_000) {
        let original = random_circuit(inputs, gates, seed);
        let text = blif::write(&original);
        let back = blif::parse(&text).expect("blif round-trips");
        check_equivalent(&original, &back, inputs)?;
        // Structure is preserved exactly for .gate-based BLIF.
        prop_assert_eq!(back.num_gates(), original.num_gates());
    }

    #[test]
    fn verilog_round_trip(inputs in 3usize..9, gates in 4usize..40, seed in 0u64..10_000) {
        let original = random_circuit(inputs, gates, seed);
        let text = verilog::write(&original);
        let back = verilog::parse(&text).expect("verilog round-trips");
        check_equivalent(&original, &back, inputs)?;
        prop_assert_eq!(back.num_gates(), original.num_gates());
    }

    #[test]
    fn cross_format_chain(inputs in 3usize..8, gates in 4usize..30, seed in 0u64..10_000) {
        // blif -> verilog -> blif, behavior invariant throughout.
        let original = random_circuit(inputs, gates, seed);
        let v = verilog::parse(&verilog::write(&original)).expect("verilog");
        let back = blif::parse(&blif::write(&v)).expect("blif");
        check_equivalent(&original, &back, inputs)?;
    }
}
