//! Property tests over the netlist interchange formats: random mapped
//! circuits must survive BLIF and structural Verilog round trips with
//! identical simulated behavior.

use charfree_netlist::testutil::{check, Gen};
use charfree_netlist::{benchmarks, blif, verilog, Library, Netlist};

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

fn assert_equivalent(a: &Netlist, b: &Netlist, inputs: usize) {
    assert_eq!(a.num_inputs(), b.num_inputs());
    assert_eq!(a.outputs().len(), b.outputs().len());
    // Exhaustive for small inputs, sampled otherwise.
    if inputs <= 8 {
        for bits in 0..1u32 << inputs {
            let asg: Vec<bool> = (0..inputs).map(|i| bits >> i & 1 == 1).collect();
            assert_eq!(eval(a, &asg), eval(b, &asg), "bits={bits:b}");
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
            assert_eq!(eval(a, &asg), eval(b, &asg));
        }
    }
}

/// `(inputs, gates, seed)` with inputs in `3..max_inputs` and gates in
/// `4..max_gates`.
fn shape(g: &mut Gen, max_inputs: usize, max_gates: usize) -> (usize, usize, u64) {
    (
        g.range(3..max_inputs),
        g.range(4..max_gates),
        g.range(0..10_000),
    )
}

#[test]
fn blif_round_trip() {
    check(
        "blif_round_trip",
        32,
        |g| shape(g, 9, 40),
        |&(inputs, gates, seed)| {
            let original = random_circuit(inputs, gates, seed);
            let text = blif::write(&original);
            let back = blif::parse(&text).expect("blif round-trips");
            assert_equivalent(&original, &back, inputs);
            // Structure is preserved exactly for .gate-based BLIF.
            assert_eq!(back.num_gates(), original.num_gates());
        },
    );
}

#[test]
fn verilog_round_trip() {
    check(
        "verilog_round_trip",
        32,
        |g| shape(g, 9, 40),
        |&(inputs, gates, seed)| {
            let original = random_circuit(inputs, gates, seed);
            let text = verilog::write(&original);
            let back = verilog::parse(&text).expect("verilog round-trips");
            assert_equivalent(&original, &back, inputs);
            assert_eq!(back.num_gates(), original.num_gates());
        },
    );
}

#[test]
fn cross_format_chain() {
    check(
        "cross_format_chain",
        32,
        |g| shape(g, 8, 30),
        |&(inputs, gates, seed)| {
            // blif -> verilog -> blif, behavior invariant throughout.
            let original = random_circuit(inputs, gates, seed);
            let v = verilog::parse(&verilog::write(&original)).expect("verilog");
            let back = blif::parse(&blif::write(&v)).expect("blif");
            assert_equivalent(&original, &back, inputs);
        },
    );
}
