//! Benchmark circuits.
//!
//! The paper evaluates on MCNC'91 circuits mapped onto a test gate library.
//! The MCNC suite itself is not redistributable here, so the Table 1 set
//! is *functional equivalents*: circuits with the published name and
//! primary-input count and the same kind of logic (see DESIGN.md §4 for the
//! substitution argument), committed as BLIF text under
//! `crates/netlist/benchmarks/` and read through [`committed`]. Real
//! `.blif` files can always be used instead via [`crate::blif::parse`].
//!
//! Three netlists are built in code: [`paper_unit`], whose loads
//! are fixed to Fig. 2a, and the parameterized [`random_logic`] and
//! [`mult`] families. Every netlist returned here is validated and has
//! loads back-annotated from the given library.

use crate::library::{CellKind, Library};
use crate::netlist::{Netlist, SignalId};
use crate::units::Capacitance;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn finish(mut n: Netlist, library: &Library) -> Netlist {
    n.annotate_loads(library);
    n.validate().expect("generated netlist is valid");
    n
}

/// The paper's running example (Fig. 2a): `g1 = x1'`, `g2 = x2'`,
/// `g3 = x1 + x2`, with loads `C1 = 40 fF`, `C2 = 50 fF`, `C3 = 10 fF`.
///
/// Loads are fixed to the figure's values, *not* derived from a library, so
/// every golden number of Examples 1–5 can be asserted exactly.
///
/// # Examples
///
/// ```
/// use charfree_netlist::benchmarks::paper_unit;
/// let u = paper_unit();
/// assert_eq!(u.num_inputs(), 2);
/// assert_eq!(u.num_gates(), 3);
/// assert_eq!(u.total_load().femtofarads(), 100.0);
/// ```
pub fn paper_unit() -> Netlist {
    let mut n = Netlist::new("unit_u");
    let x1 = n.add_input("x1").expect("fresh");
    let x2 = n.add_input("x2").expect("fresh");
    let g1 = n.add_gate_named(CellKind::Inv, &[x1], "g1").expect("ok");
    let g2 = n.add_gate_named(CellKind::Inv, &[x2], "g2").expect("ok");
    let g3 = n
        .add_gate_named(CellKind::Or2, &[x1, x2], "g3")
        .expect("ok");
    for s in [g1, g2, g3] {
        n.mark_output(s).expect("ok");
    }
    for (gate, load) in [(g1, 40.0), (g2, 50.0), (g3, 10.0)] {
        let id = n.driver(gate).expect("driven");
        n.set_gate_load(id, Capacitance(load));
    }
    n.validate().expect("valid");
    n
}

/// Seeded, locality-structured random logic DAG.
///
/// Each gate draws its fan-ins from a sliding window over the most recent
/// signals, which keeps input cones (and therefore node-function BDDs)
/// moderate — the same qualitative structure as the multi-level-optimized
/// MCNC random-logic circuits. Deterministic for a given `(inputs, gates,
/// seed)`.
///
/// Signals that end up with no fan-out become primary outputs.
pub fn random_logic(
    name: &str,
    num_inputs: usize,
    num_gates: usize,
    seed: u64,
    library: &Library,
) -> Netlist {
    // Fan-in locality window: the dominant difficulty knob. A wider
    // window increases cone overlap and therefore the exact ADD size, at
    // the risk of blow-up as it approaches the input count.
    const WINDOW: usize = 12;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut n = Netlist::new(name);
    // All primary inputs are declared up front, but they enter the
    // fan-in pool *progressively* (one every few gates): the narrow
    // locality window then keeps mixing fresh inputs with recent
    // intermediate signals, which grows input cones steadily — realistic
    // multi-level structure with non-trivial symbolic difficulty — without
    // the exponential blow-up of a wide window.
    let inputs: Vec<SignalId> = (0..num_inputs)
        .map(|i| n.add_input(format!("in{i}")).expect("fresh"))
        .collect();
    let bootstrap = num_inputs.min(WINDOW.max(4));
    let mut pool: Vec<SignalId> = inputs[..bootstrap].to_vec();
    let mut pending = bootstrap;
    let inject_every = if num_inputs > bootstrap {
        (num_gates / (2 * (num_inputs - bootstrap).max(1))).max(1)
    } else {
        usize::MAX
    };

    const CELLS: [CellKind; 10] = [
        CellKind::Nand2,
        CellKind::Nor2,
        CellKind::And2,
        CellKind::Or2,
        CellKind::Xor2,
        CellKind::Xnor2,
        CellKind::Inv,
        CellKind::Aoi21,
        CellKind::Oai21,
        CellKind::Mux2,
    ];
    // Track fan-out so selection can prefer unconsumed signals, biasing the
    // DAG toward tree-like (BDD-friendly) shape.
    let mut fanout = vec![0u32; pool.len()];
    // 64-slot random simulation signatures: reject gates that are (almost
    // surely) constant or redundant copies of a fan-in, which would
    // otherwise freeze whole regions of a narrow-window circuit.
    let mut signatures: Vec<u64> = (0..pool.len()).map(|_| rng.gen::<u64>()).collect();

    for gate_no in 0..num_gates {
        if pending < num_inputs && gate_no % inject_every == inject_every - 1 {
            pool.push(inputs[pending]);
            fanout.push(0);
            signatures.push(rng.gen::<u64>());
            pending += 1;
        }
        let lo = pool.len().saturating_sub(WINDOW);
        let mut accepted: Option<(CellKind, Vec<usize>, u64)> = None;
        for attempt in 0..24 {
            let kind = CELLS[rng.gen_range(0..CELLS.len())];
            let mut idxs = Vec::with_capacity(kind.arity());
            let mut guard = 0;
            while idxs.len() < kind.arity() {
                let a = rng.gen_range(lo..pool.len());
                let b = rng.gen_range(lo..pool.len());
                // Tournament pick: prefer the less-consumed candidate.
                let idx = if fanout[a] <= fanout[b] { a } else { b };
                if !idxs.contains(&idx) || guard > 8 {
                    idxs.push(idx);
                }
                guard += 1;
            }
            let pins: Vec<u64> = idxs.iter().map(|&i| signatures[i]).collect();
            let sig = kind.eval_word(&pins);
            let degenerate =
                sig == 0 || sig == u64::MAX || pins.iter().any(|&p| p == sig || p == !sig);
            if !degenerate || attempt == 23 {
                accepted = Some((kind, idxs, sig));
                break;
            }
        }
        let (kind, idxs, sig) = accepted.expect("attempt loop always accepts");
        let ins: Vec<SignalId> = idxs.iter().map(|&i| pool[i]).collect();
        for &i in &idxs {
            fanout[i] += 1;
        }
        let out = n.add_gate(kind, &ins).expect("ok");
        pool.push(out);
        fanout.push(0);
        signatures.push(sig);
    }

    // Everything without fan-out becomes an output.
    let fo = n.fanouts();
    let sinks: Vec<SignalId> = pool
        .iter()
        .copied()
        .filter(|s| fo[s.index()].is_empty() && n.driver(*s).is_some())
        .collect();
    if sinks.is_empty() {
        let last = *pool.last().expect("nonempty");
        n.mark_output(last).expect("ok");
    } else {
        for s in sinks {
            n.mark_output(s).expect("ok");
        }
    }
    finish(n, library)
}

/// `mult{width}`: array multiplier — the qualitative stand-in for the
/// paper's C6288 ADD-blow-up remark.
pub fn mult(width: usize, library: &Library) -> Netlist {
    let mut n = Netlist::new(format!("mult{width}"));
    let a: Vec<SignalId> = (0..width)
        .map(|i| n.add_input(format!("a{i}")).expect("fresh"))
        .collect();
    let b: Vec<SignalId> = (0..width)
        .map(|i| n.add_input(format!("b{i}")).expect("fresh"))
        .collect();

    // Partial products.
    let mut rows: Vec<Vec<SignalId>> = Vec::with_capacity(width);
    for &b_bit in b.iter().take(width) {
        let row: Vec<SignalId> = (0..width)
            .map(|ai| n.add_gate(CellKind::And2, &[a[ai], b_bit]).expect("ok"))
            .collect();
        rows.push(row);
    }

    // Ripple-carry accumulation of shifted rows.
    let mut acc: Vec<SignalId> = rows[0].clone(); // product bits 0..width-1
    let mut outputs: Vec<SignalId> = vec![acc[0]];
    for row in rows.iter().skip(1) {
        // Add row (aligned at bit j) to acc (currently bits j-1+1..).
        let mut next = Vec::with_capacity(width);
        let mut carry: Option<SignalId> = None;
        for (i, &pp) in row.iter().enumerate() {
            let other = acc.get(i + 1).copied();
            let (sum, c) = match (other, carry) {
                (None, None) => (pp, None),
                (Some(x), None) => {
                    let s = n.add_gate(CellKind::Xor2, &[x, pp]).expect("ok");
                    let c = n.add_gate(CellKind::And2, &[x, pp]).expect("ok");
                    (s, Some(c))
                }
                (None, Some(c0)) => {
                    let s = n.add_gate(CellKind::Xor2, &[c0, pp]).expect("ok");
                    let c = n.add_gate(CellKind::And2, &[c0, pp]).expect("ok");
                    (s, Some(c))
                }
                (Some(x), Some(c0)) => {
                    let axb = n.add_gate(CellKind::Xor2, &[x, pp]).expect("ok");
                    let s = n.add_gate(CellKind::Xor2, &[axb, c0]).expect("ok");
                    let t1 = n.add_gate(CellKind::And2, &[axb, c0]).expect("ok");
                    let t2 = n.add_gate(CellKind::And2, &[x, pp]).expect("ok");
                    let c = n.add_gate(CellKind::Or2, &[t1, t2]).expect("ok");
                    (s, Some(c))
                }
            };
            next.push(sum);
            carry = c;
        }
        if let Some(c) = carry {
            next.push(c);
        }
        outputs.push(next[0]);
        acc = next;
    }
    for &s in outputs.iter().chain(acc.iter().skip(1)) {
        n.mark_output(s).expect("ok");
    }
    finish(n, library)
}

/// The Table-1 benchmark set, in the paper's order.
///
/// `k2` is by far the largest; callers on a budget can skip it by name.
pub fn table1_circuits(library: &Library) -> Vec<Netlist> {
    (0..committed::TABLE1)
        .map(|i| committed::netlist(i, library))
        .collect()
}

/// Looks a benchmark up by its Table-1 name (or `unit_u`, the
/// [`paper_unit`]).
pub fn by_name(name: &str, library: &Library) -> Option<Netlist> {
    if name == "unit_u" {
        return Some(paper_unit());
    }
    committed::find(0..committed::TABLE1, name).map(|i| committed::netlist(i, library))
}

/// Committed BLIF benchmarks under `crates/netlist/benchmarks/`.
///
/// One `(name, text)` table holds every named circuit: the 13 Table 1
/// circuits, the conformance generator's structured families
/// (ripple-carry adder, MUX2 tree, XOR parity tree) and `seqpipe2`, the
/// canonical two-macro sequential feedback pipeline. The text never
/// changes underneath a reader: Table 1, the CI smoke checks, the
/// `seqeval` byte-parity check and the statistics-independence sweep in
/// EXPERIMENTS.md all load these exact bytes. The three families are
/// regenerated (after a deliberate change) with
/// `cargo test -p charfree-conform --test conform -- --ignored regenerate_committed_benchmarks`;
/// the Table 1 text is the circuits' only definition.
pub mod committed {
    use super::{Library, Netlist};
    use crate::blif;
    use crate::seq::SeqNetlist;
    use std::ops::Range;
    use std::sync::OnceLock;

    /// Two-macro sequential feedback pipeline (2 inputs, 4 gates,
    /// 2 latches; state crosses both register boundaries).
    pub const SEQPIPE2: &str = include_str!("../benchmarks/seqpipe2.blif");

    /// Every committed benchmark as `(name, blif)`: the Table 1 circuits
    /// in the paper's order, then the combinational families, then
    /// `seqpipe2`.
    const TABLE: [(&str, &str); 17] = [
        ("alu2", include_str!("../benchmarks/alu2.blif")),
        ("alu4", include_str!("../benchmarks/alu4.blif")),
        ("cmb", include_str!("../benchmarks/cmb.blif")),
        ("cm150", include_str!("../benchmarks/cm150.blif")),
        ("cm85", include_str!("../benchmarks/cm85.blif")),
        ("comp", include_str!("../benchmarks/comp.blif")),
        ("decod", include_str!("../benchmarks/decod.blif")),
        ("k2", include_str!("../benchmarks/k2.blif")),
        ("mux", include_str!("../benchmarks/mux.blif")),
        ("parity", include_str!("../benchmarks/parity.blif")),
        ("pcle", include_str!("../benchmarks/pcle.blif")),
        ("x1", include_str!("../benchmarks/x1.blif")),
        ("x2", include_str!("../benchmarks/x2.blif")),
        // 8-bit ripple-carry adder (16 inputs, 37 gates).
        ("adder8", include_str!("../benchmarks/adder8.blif")),
        // Depth-4 MUX2 selection tree (20 inputs, 15 gates).
        ("muxtree4", include_str!("../benchmarks/muxtree4.blif")),
        // 12-input XOR parity tree (11 gates).
        ("parity12", include_str!("../benchmarks/parity12.blif")),
        ("seqpipe2", SEQPIPE2),
    ];
    /// `TABLE[..TABLE1]` is the Table 1 set.
    pub(super) const TABLE1: usize = 13;
    /// `TABLE[..SEQUENTIAL]` is combinational.
    const SEQUENTIAL: usize = 16;

    /// The committed *combinational* families as `(name, blif)` pairs.
    pub const COMBINATIONAL: &[(&str, &str)] = TABLE.split_at(SEQUENTIAL).0.split_at(TABLE1).1;

    /// Each combinational entry, parsed once per process. Loads depend on
    /// the caller's library, so they are annotated on every copy.
    static PARSED: [OnceLock<Netlist>; SEQUENTIAL] = [const { OnceLock::new() }; SEQUENTIAL];

    pub(super) fn find(range: Range<usize>, name: &str) -> Option<usize> {
        range.into_iter().find(|&i| TABLE[i].0 == name)
    }

    /// A copy of combinational entry `i` with loads from `library`.
    pub(super) fn netlist(i: usize, library: &Library) -> Netlist {
        let mut netlist = PARSED[i]
            .get_or_init(|| blif::parse(TABLE[i].1).expect("committed benchmark parses"))
            .clone();
        netlist.annotate_loads(library);
        netlist
    }

    /// Looks up the committed BLIF text of a family benchmark by name
    /// (`seqpipe2` included).
    pub fn source(name: &str) -> Option<&'static str> {
        find(TABLE1..TABLE.len(), name).map(|i| TABLE[i].1)
    }

    /// Parses a committed combinational family benchmark and
    /// back-annotates loads from `library`.
    ///
    /// # Panics
    ///
    /// Never for the committed names — the text is validated in tests.
    pub fn load(name: &str, library: &Library) -> Option<Netlist> {
        find(TABLE1..SEQUENTIAL, name).map(|i| netlist(i, library))
    }

    /// Parses the committed sequential benchmark and back-annotates
    /// loads from `library`.
    pub fn seqpipe2(library: &Library) -> SeqNetlist {
        let mut seq = blif::parse_seq(SEQPIPE2).expect("committed benchmark parses");
        seq.annotate_loads(library);
        seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn lib() -> Library {
        Library::test_library()
    }

    fn bench(name: &str) -> Netlist {
        by_name(name, &lib()).expect("Table 1 name")
    }

    #[test]
    fn paper_unit_matches_figure2() {
        let u = paper_unit();
        assert_eq!(u.num_inputs(), 2);
        assert_eq!(u.num_gates(), 3);
        // Loads: C1=40, C2=50, C3=10.
        let loads: Vec<f64> = u.gates().map(|(_, g)| g.load().femtofarads()).collect();
        assert_eq!(loads, vec![40.0, 50.0, 10.0]);
        // Functions: g1=x1', g2=x2', g3=x1+x2.
        let out = eval(&u, &[true, false]);
        assert_eq!(out, vec![false, true, true]);
    }

    #[test]
    fn parity_is_odd_parity() {
        let p = bench("parity");
        assert_eq!(p.num_inputs(), 16);
        for trial in [0u32, 1, 0b1010101, 0xffff, 0x8001] {
            let asg: Vec<bool> = (0..16).map(|i| trial >> i & 1 == 1).collect();
            let want = trial.count_ones() % 2 == 1;
            assert_eq!(eval(&p, &asg)[0], want, "trial={trial:#x}");
        }
    }

    #[test]
    fn decod_is_one_hot_with_enable() {
        let d = bench("decod");
        assert_eq!(d.num_inputs(), 5);
        for addr in 0..16usize {
            let mut asg = vec![false; 5];
            for (b, bit) in asg.iter_mut().enumerate().take(4) {
                *bit = addr >> b & 1 == 1;
            }
            // Disabled: all outputs low.
            let out = eval(&d, &asg);
            assert!(out.iter().all(|&b| !b));
            // Enabled: exactly the addressed line high.
            asg[4] = true;
            let out = eval(&d, &asg);
            for (i, &bit) in out.iter().enumerate() {
                assert_eq!(bit, i == addr, "addr={addr} line={i}");
            }
        }
    }

    #[test]
    fn cm85_compares() {
        let c = bench("cm85");
        assert_eq!(c.num_inputs(), 11);
        // outputs: eq, gt, lt for (a, b, cin).
        let run = |a: u32, b: u32, cin: bool| -> Vec<bool> {
            let mut asg = Vec::with_capacity(11);
            for i in 0..5 {
                asg.push(a >> i & 1 == 1);
            }
            for i in 0..5 {
                asg.push(b >> i & 1 == 1);
            }
            asg.push(cin);
            eval(&c, &asg)
        };
        for (a, b) in [(3u32, 7u32), (7, 3), (12, 12), (31, 0), (0, 0)] {
            let out = run(a, b, false);
            assert_eq!(out[0], a == b, "eq a={a} b={b}");
            assert_eq!(out[1], a > b, "gt a={a} b={b}");
            assert_eq!(out[2], a < b, "lt a={a} b={b}");
        }
    }

    #[test]
    fn cmb_matches_lock() {
        let c = bench("cmb");
        assert_eq!(c.num_inputs(), 16);
        let run = |a: u32, k: u32| -> Vec<bool> {
            let mut asg = Vec::with_capacity(16);
            for i in 0..8 {
                asg.push(a >> i & 1 == 1);
            }
            for i in 0..8 {
                asg.push(k >> i & 1 == 1);
            }
            eval(&c, &asg)
        };
        let out = run(0xa5, 0xa5);
        assert!(out[0], "match");
        assert!(out[1], "any");
        assert_eq!(out[2], (0xa5u32).count_ones() % 2 == 1);
        let out = run(0xa5, 0xa4);
        assert!(!out[0]);
        let out = run(0, 0);
        assert!(out[0]);
        assert!(!out[1]);
    }

    #[test]
    fn muxes_select_and_agree() {
        let m1 = bench("cm150");
        let m2 = bench("mux");
        assert_eq!(m1.num_inputs(), 21);
        assert_eq!(m2.num_inputs(), 21);
        // Inputs: d0..d15, s0..s3, en.
        let mut rng_state = 0x1234_5678u64;
        for _ in 0..50 {
            rng_state = rng_state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let data = (rng_state >> 16) as u16;
            let sel = (rng_state >> 40) as usize % 16;
            let en = rng_state >> 63 & 1 == 1;
            let mut asg = Vec::with_capacity(21);
            for i in 0..16 {
                asg.push(data >> i & 1 == 1);
            }
            for b in 0..4 {
                asg.push(sel >> b & 1 == 1);
            }
            asg.push(en);
            let want = en && (data >> sel & 1 == 1);
            assert_eq!(
                eval(&m1, &asg)[0],
                want,
                "cm150 data={data:#x} sel={sel} en={en}"
            );
            assert_eq!(
                eval(&m2, &asg)[0],
                want,
                "mux data={data:#x} sel={sel} en={en}"
            );
        }
    }

    #[test]
    fn comp_is_magnitude_comparator() {
        let c = bench("comp");
        assert_eq!(c.num_inputs(), 32);
        let run = |a: u32, b: u32| -> Vec<bool> {
            let mut asg = Vec::with_capacity(32);
            for i in 0..16 {
                asg.push(a >> i & 1 == 1);
            }
            for i in 0..16 {
                asg.push(b >> i & 1 == 1);
            }
            eval(&c, &asg)
        };
        for (a, b) in [
            (1u32, 2u32),
            (2, 1),
            (0xffff, 0xffff),
            (0x8000, 0x7fff),
            (0, 1),
        ] {
            let out = run(a, b);
            assert_eq!(out[0], a > b, "gt a={a:#x} b={b:#x}");
            assert_eq!(out[1], a < b, "lt a={a:#x} b={b:#x}");
        }
    }

    #[test]
    fn pcle_ripples_carries() {
        let c = bench("pcle");
        assert_eq!(c.num_inputs(), 19);
        // p = all ones, g = 0, cin = 1 -> all carries 1.
        let mut asg = vec![true; 9];
        asg.extend(vec![false; 9]);
        asg.push(true);
        assert!(eval(&c, &asg).iter().all(|&b| b));
        // cin = 0, g0 = 1 -> carries from c1 on.
        let mut asg = vec![true; 9];
        asg.extend(vec![false; 9]);
        asg[9] = true; // g0
        asg.push(false);
        let out = eval(&c, &asg);
        assert!(out.iter().all(|&b| b), "g0 generates, p propagates");
    }

    #[test]
    fn alu_modes() {
        let a4 = bench("alu2");
        assert_eq!(a4.num_inputs(), 10);
        let run = |a: u32, b: u32, mode: u32| -> (u32, bool) {
            let mut asg = Vec::with_capacity(10);
            for i in 0..4 {
                asg.push(a >> i & 1 == 1);
            }
            for i in 0..4 {
                asg.push(b >> i & 1 == 1);
            }
            asg.push(mode & 1 == 1);
            asg.push(mode & 2 == 2);
            let out = eval(&a4, &asg);
            let mut y = 0u32;
            for (i, &bit) in out.iter().enumerate().take(4) {
                if bit {
                    y |= 1 << i;
                }
            }
            (y, out[4])
        };
        for (a, b) in [(5u32, 9u32), (15, 1), (0, 0), (7, 8)] {
            let (sum, cout) = run(a, b, 0);
            assert_eq!(sum, (a + b) & 0xf, "add a={a} b={b}");
            assert_eq!(cout, a + b > 15, "cout a={a} b={b}");
            assert_eq!(run(a, b, 1).0, a & b);
            assert_eq!(run(a, b, 2).0, a | b);
            assert_eq!(run(a, b, 3).0, a ^ b);
        }
        let a6 = bench("alu4");
        assert_eq!(a6.num_inputs(), 14);
        assert!(a6.num_gates() > a4.num_gates());
    }

    #[test]
    fn random_logic_is_deterministic_and_valid() {
        let l = lib();
        let r1 = random_logic("r", 10, 40, 7, &l);
        let r2 = random_logic("r", 10, 40, 7, &l);
        assert_eq!(r1.num_gates(), r2.num_gates());
        assert_eq!(r1.num_gates(), 40);
        let asg: Vec<bool> = (0..10).map(|i| i % 3 == 0).collect();
        assert_eq!(eval(&r1, &asg), eval(&r2, &asg));
        // Different seed, different function somewhere on the input cube
        // (deterministic generators, so this is a stable check).
        let r3 = random_logic("r", 10, 40, 8, &l);
        let differs = (0..1u32 << 10).any(|bits| {
            let asg: Vec<bool> = (0..10).map(|i| bits >> i & 1 == 1).collect();
            eval(&r1, &asg) != eval(&r3, &asg)
        });
        assert!(differs, "seeds 7 and 8 must generate different logic");
        assert!(r1.validate().is_ok());
        assert!(r3.validate().is_ok());
    }

    #[test]
    fn mult_multiplies() {
        let m = mult(4, &lib());
        assert_eq!(m.num_inputs(), 8);
        let run = |a: u32, b: u32| -> u32 {
            let mut asg = Vec::with_capacity(8);
            for i in 0..4 {
                asg.push(a >> i & 1 == 1);
            }
            for i in 0..4 {
                asg.push(b >> i & 1 == 1);
            }
            let out = eval(&m, &asg);
            let mut p = 0u32;
            for (i, &bit) in out.iter().enumerate() {
                if bit {
                    p |= 1 << i;
                }
            }
            p
        };
        for a in 0..16 {
            for b in 0..16 {
                assert_eq!(run(a, b), a * b, "a={a} b={b}");
            }
        }
    }

    #[test]
    fn table1_set_matches_paper_input_counts() {
        let l = lib();
        let set = table1_circuits(&l);
        let expected: [(&str, usize); 13] = [
            ("alu2", 10),
            ("alu4", 14),
            ("cmb", 16),
            ("cm150", 21),
            ("cm85", 11),
            ("comp", 32),
            ("decod", 5),
            ("k2", 45),
            ("mux", 21),
            ("parity", 16),
            ("pcle", 19),
            ("x1", 49),
            ("x2", 10),
        ];
        assert_eq!(set.len(), expected.len());
        for (n, (name, inputs)) in set.iter().zip(expected) {
            assert_eq!(n.name(), name);
            assert_eq!(n.num_inputs(), inputs, "{name}");
            assert!(n.validate().is_ok(), "{name}");
            assert!(n.total_load().femtofarads() > 0.0, "{name}");
        }
    }

    #[test]
    fn by_name_lookup() {
        let l = lib();
        assert!(by_name("cm85", &l).is_some());
        assert!(by_name("unit_u", &l).is_some());
        assert!(by_name("nope", &l).is_none());
        // One table behind three lookups; each answers only its own names.
        assert!(by_name("adder8", &l).is_none());
        assert!(by_name("seqpipe2", &l).is_none());
        assert!(committed::source("cm85").is_none());
        assert!(committed::load("cm85", &l).is_none());
        assert_eq!(committed::source("seqpipe2"), Some(committed::SEQPIPE2));
    }

    #[test]
    fn committed_combinational_benchmarks_parse_and_annotate() {
        let l = lib();
        let expected: [(&str, usize, usize); 3] = [
            ("adder8", 16, 37),
            ("muxtree4", 20, 15),
            ("parity12", 12, 11),
        ];
        for (name, inputs, gates) in expected {
            let n = committed::load(name, &l).expect("committed name");
            assert_eq!(n.name(), name);
            assert_eq!(n.num_inputs(), inputs, "{name}");
            assert_eq!(n.num_gates(), gates, "{name}");
            assert!(n.validate().is_ok(), "{name}");
            assert!(n.total_load().femtofarads() > 0.0, "{name}");
            let text = committed::source(name).expect("source text");
            assert!(text.starts_with(&format!(".model {name}\n")), "{name}");
        }
        assert!(committed::load("seqpipe2", &l).is_none(), "sequential");
        assert!(committed::source("nope").is_none());
    }

    #[test]
    fn committed_adder8_adds() {
        let n = committed::load("adder8", &lib()).expect("adder8");
        // The generator lays out inputs as a0..a7 then b0..b7 and emits
        // sum bits LSB-first followed by carry-out — check against the
        // integer adder on a few operand pairs.
        let run = |a: u32, b: u32| -> u32 {
            let mut asg = Vec::with_capacity(16);
            for i in 0..8 {
                asg.push(a >> i & 1 == 1);
            }
            for i in 0..8 {
                asg.push(b >> i & 1 == 1);
            }
            let out = eval(&n, &asg);
            let mut sum = 0u32;
            for (i, &bit) in out.iter().enumerate() {
                if bit {
                    sum |= 1 << i;
                }
            }
            sum
        };
        for (a, b) in [(0u32, 0u32), (1, 1), (200, 100), (255, 255), (170, 85)] {
            assert_eq!(run(a, b), a + b, "a={a} b={b}");
        }
    }

    #[test]
    fn committed_seqpipe2_has_two_macros_with_feedback() {
        let seq = committed::seqpipe2(&lib());
        assert_eq!(seq.name(), "seqpipe2");
        assert_eq!(seq.num_inputs(), 2);
        assert_eq!(seq.latches().len(), 2);
        assert_eq!(seq.macros().len(), 2, "two register-bounded macros");
        assert!(seq.total_load().femtofarads() > 0.0);
        // Initial state is committed as q1=0, q2=1.
        assert_eq!(seq.initial_state(), &[false, true]);
    }
}
