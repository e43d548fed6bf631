//! Differential parity: the compiled kernel against the arena model.
//!
//! The [`AddPowerModel`] is the engine's reference oracle — every path
//! through the engine (scalar walk, packed batch, sharded trace,
//! persistence) must reproduce the arena's answers **bit for bit**, on
//! random multi-level netlists, exact and degraded models alike, and
//! regardless of the worker count.

use charfree_core::{AddPowerModel, ModelBuilder, PowerModel};
use charfree_engine::{Kernel, TraceEngine};
use charfree_netlist::{benchmarks, Library};
use charfree_sim::MarkovSource;
use proptest::prelude::*;

/// How a random model is built from its netlist.
#[derive(Debug, Clone, Copy)]
enum Build {
    /// Exact construction, no resource pressure.
    Exact,
    /// Size-capped construction (the approximation ladder may fire).
    MaxNodes(usize),
    /// Fault-injected construction (the degradation ladder fires).
    TripAfter(u64),
}

fn build_model(netlist: &charfree_netlist::Netlist, build: Build) -> AddPowerModel {
    match build {
        Build::Exact => ModelBuilder::new(netlist).build(),
        Build::MaxNodes(k) => ModelBuilder::new(netlist).max_nodes(k).build(),
        Build::TripAfter(k) => ModelBuilder::new(netlist)
            .trip_after(k)
            .try_build()
            .expect("fault injection degrades, never fails"),
    }
}

fn arb_build() -> impl Strategy<Value = Build> {
    prop_oneof![
        (0u8..1).prop_map(|_| Build::Exact),
        (40usize..400).prop_map(Build::MaxNodes),
        (5u64..120).prop_map(Build::TripAfter),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Scalar and batched kernel evaluation reproduce the arena's
    /// per-transition capacitance bit-for-bit on random 8-input
    /// netlists, whether the model built exactly or degraded.
    #[test]
    fn kernel_matches_arena_on_random_netlists(
        seed in 0u64..1_000,
        gates in 6usize..26,
        build in arb_build(),
        trace_seed in 0u64..1_000,
    ) {
        let library = Library::test_library();
        let netlist = benchmarks::random_logic("prop", 8, gates, seed, &library);
        let model = build_model(&netlist, build);
        let kernel = Kernel::compile(&model);

        let mut source = MarkovSource::new(8, 0.5, 0.4, trace_seed).expect("feasible");
        let patterns = source.sequence(200);

        // Batched trace (covers packing + the fused walk).
        let trace = TraceEngine::new(&kernel).chunk_size(64).trace(&patterns);
        prop_assert_eq!(trace.len(), 199);
        for (t, &got) in trace.iter().enumerate() {
            let want = model
                .capacitance(&patterns[t], &patterns[t + 1])
                .femtofarads();
            prop_assert_eq!(
                got.to_bits(), want.to_bits(),
                "batch transition {} diverged: kernel {} vs arena {}", t, got, want
            );
            // Scalar walk agrees with both.
            let scalar = kernel.eval_transition(&patterns[t], &patterns[t + 1]);
            prop_assert_eq!(scalar.to_bits(), want.to_bits());
        }
    }

    /// Worker count never changes a summary: chunk boundaries and the
    /// merge order are fixed by the chunk size alone.
    #[test]
    fn jobs_are_bit_for_bit_deterministic(
        seed in 0u64..1_000,
        gates in 6usize..26,
        chunk in 16usize..200,
    ) {
        let library = Library::test_library();
        let netlist = benchmarks::random_logic("prop", 8, gates, seed, &library);
        let model = ModelBuilder::new(&netlist).build();
        let kernel = Kernel::compile(&model);
        let mut source = MarkovSource::new(8, 0.5, 0.5, seed ^ 0xdead).expect("feasible");
        let patterns = source.sequence(700);

        let one = TraceEngine::new(&kernel).chunk_size(chunk).jobs(1).evaluate(&patterns);
        let eight = TraceEngine::new(&kernel).chunk_size(chunk).jobs(8).evaluate(&patterns);
        prop_assert_eq!(one.transitions, eight.transitions);
        prop_assert_eq!(one.sum_ff.to_bits(), eight.sum_ff.to_bits());
        prop_assert_eq!(one.max_ff.to_bits(), eight.max_ff.to_bits());

        let t1 = TraceEngine::new(&kernel).chunk_size(chunk).jobs(1).trace(&patterns);
        let t8 = TraceEngine::new(&kernel).chunk_size(chunk).jobs(8).trace(&patterns);
        for (a, b) in t1.iter().zip(&t8) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// A kernel that round-trips through the on-disk format evaluates
    /// bit-for-bit like the freshly compiled one (and therefore like the
    /// arena).
    #[test]
    fn persisted_kernel_matches_compiled(
        seed in 0u64..1_000,
        gates in 6usize..26,
        build in arb_build(),
    ) {
        let library = Library::test_library();
        let netlist = benchmarks::random_logic("prop", 8, gates, seed, &library);
        let model = build_model(&netlist, build);
        let compiled = Kernel::compile(&model);

        let mut buf = Vec::new();
        compiled.save(&mut buf).expect("saves");
        let loaded = Kernel::load(buf.as_slice()).expect("round-trips");

        let mut source = MarkovSource::new(8, 0.5, 0.6, seed).expect("feasible");
        let patterns = source.sequence(150);
        let from_compiled = TraceEngine::new(&compiled).trace(&patterns);
        let from_loaded = TraceEngine::new(&loaded).trace(&patterns);
        for (t, (a, b)) in from_compiled.iter().zip(&from_loaded).enumerate() {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "transition {} diverged after reload", t);
        }
        if compiled.is_interleaved() {
            prop_assert_eq!(
                loaded.expected_capacitance(0.5, 0.3).to_bits(),
                compiled.expected_capacitance(0.5, 0.3).to_bits()
            );
        }
    }
}

/// Load-then-eval through an actual `.cfk` file on disk equals
/// compile-then-eval — the full persistence path the CLI uses.
#[test]
fn kernel_file_round_trip_preserves_evaluation() {
    let library = Library::test_library();
    let model = ModelBuilder::new(&benchmarks::by_name("cm85", &library).expect("Table 1 name"))
        .max_nodes(400)
        .build();
    let compiled = Kernel::compile(&model);

    let path = std::env::temp_dir().join(format!("charfree-parity-{}.cfk", std::process::id()));
    compiled
        .save(std::fs::File::create(&path).expect("create"))
        .expect("save");
    let loaded = Kernel::load(std::io::BufReader::new(
        std::fs::File::open(&path).expect("open"),
    ))
    .expect("load");
    std::fs::remove_file(&path).ok();

    let mut source = MarkovSource::new(11, 0.5, 0.5, 3).expect("feasible");
    let patterns = source.sequence(500);
    let a = TraceEngine::new(&compiled).evaluate(&patterns);
    let b = TraceEngine::new(&loaded).evaluate(&patterns);
    assert_eq!(a.sum_ff.to_bits(), b.sum_ff.to_bits());
    assert_eq!(a.max_ff.to_bits(), b.max_ff.to_bits());
    for (t, (x, y)) in TraceEngine::new(&compiled)
        .trace(&patterns)
        .iter()
        .zip(&TraceEngine::new(&loaded).trace(&patterns))
        .enumerate()
    {
        assert_eq!(x.to_bits(), y.to_bits(), "transition {t}");
        let want = model
            .capacitance(&patterns[t], &patterns[t + 1])
            .femtofarads();
        assert_eq!(x.to_bits(), want.to_bits(), "arena divergence at {t}");
    }
}

/// The shared hand-built fixture (the same one the model-vs-golden
/// integration suite uses) runs exhaustively through the kernel: every
/// one of the 8x8 transitions agrees with the arena bit for bit.
#[test]
fn kernel_matches_arena_on_shared_hand_fixture() {
    let library = Library::test_library();
    let netlist = charfree_netlist::testutil::hand_unit(&library);
    let model = ModelBuilder::new(&netlist).build();
    let kernel = Kernel::compile(&model);
    for (xi, xf) in charfree_sim::ExhaustivePairs::new(3) {
        let want = model.capacitance(&xi, &xf).femtofarads();
        let got = kernel.eval_transition(&xi, &xf);
        assert_eq!(got.to_bits(), want.to_bits(), "xi={xi:?} xf={xf:?}");
    }
}
