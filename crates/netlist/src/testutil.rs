//! Shared test support for the workspace: hand-built netlist fixtures
//! and the property-test runner [`check`].
//!
//! Several crates used to hand-roll the same three small circuits in
//! their test modules; keeping the canonical copies here means a fixture
//! change (or a structural API change) ripples through every consumer at
//! once instead of silently diverging.

use crate::rng::{Rng, GOLDEN_GAMMA};
use crate::{CellKind, Library, Netlist};
use std::fmt::Debug;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};

/// The 3-input hand-built unit used by the end-to-end model tests:
///
/// ```text
/// ab  = NAND2(a, b)
/// abc = OAI21(ab, c, a)
/// x   = XOR2(abc, c)        (primary output)
/// ```
///
/// Exercises multi-fanout (`a` and `c` feed two gates each), a complex
/// cell, and every structural mutation API on the way.
#[must_use]
pub fn hand_unit(library: &Library) -> Netlist {
    let mut n = Netlist::new("hand");
    let a = n.add_input("a").expect("fresh signal name");
    let b = n.add_input("b").expect("fresh signal name");
    let c = n.add_input("c").expect("fresh signal name");
    let ab = n.add_gate(CellKind::Nand2, &[a, b]).expect("valid fanin");
    let abc = n
        .add_gate(CellKind::Oai21, &[ab, c, a])
        .expect("valid fanin");
    let x = n.add_gate(CellKind::Xor2, &[abc, c]).expect("valid fanin");
    n.mark_output(x).expect("driven signal");
    n.annotate_loads(library);
    n.validate().expect("fixture is structurally valid");
    n
}

/// A single-input chain of `len` inverters (`len >= 1`), output at the
/// end. Depth equals `len`, so a unit-delay simulation needs `len + 1`
/// steps to observe quiescence — the canonical way to drive
/// `NonSettling` with a tightened step bound.
#[must_use]
pub fn inverter_chain(len: usize, library: &Library) -> Netlist {
    assert!(len >= 1, "a chain needs at least one inverter");
    let mut n = Netlist::new("chain");
    let mut prev = n.add_input("a").expect("fresh signal name");
    for _ in 0..len {
        prev = n.add_gate(CellKind::Inv, &[prev]).expect("valid fanin");
    }
    n.mark_output(prev).expect("driven signal");
    n.annotate_loads(library);
    n.validate().expect("fixture is structurally valid");
    n
}

/// `y = a XOR inv(inv(a))` — logically constant 0, but the two paths
/// from `a` to the XOR have unequal depth, so a rising input glitches
/// the output under unit-delay timing while the zero-delay model sees
/// nothing. The canonical reconvergent-fanout glitch fixture.
#[must_use]
pub fn reconvergent_glitcher(library: &Library) -> Netlist {
    let mut n = Netlist::new("glitchy");
    let a = n.add_input("a").expect("fresh signal name");
    let i1 = n.add_gate(CellKind::Inv, &[a]).expect("valid fanin");
    let i2 = n.add_gate(CellKind::Inv, &[i1]).expect("valid fanin");
    let y = n.add_gate(CellKind::Xor2, &[a, i2]).expect("valid fanin");
    n.mark_output(y).expect("driven signal");
    n.annotate_loads(library);
    n.validate().expect("fixture is structurally valid");
    n
}

/// The argument source a property's generator draws from: one seeded
/// [`Rng`] per case.
#[derive(Debug)]
pub struct Gen(Rng);

impl Gen {
    /// A uniform draw in `0..width` ([`Rng::below`]).
    pub fn below(&mut self, width: u64) -> u64 {
        self.0.below(width)
    }

    /// A uniform integer in the non-empty `range`:
    /// `start + below(end - start)`.
    pub fn range<T>(&mut self, range: Range<T>) -> T
    where
        T: Copy + TryInto<u64> + TryFrom<u64>,
    {
        let to_u64 = |v: T| v.try_into().ok().expect("an unsigned bound fits in u64");
        let (start, end) = (to_u64(range.start), to_u64(range.end));
        assert!(start < end, "empty range {start}..{end}");
        T::try_from(start + self.0.below(end - start))
            .ok()
            .expect("a draw below the end fits its type")
    }

    /// A uniform `f64` in `range`: `start + u·(end − start)`, with `u` the
    /// top 53 bits of one draw scaled into `[0, 1)`.
    pub fn float(&mut self, range: Range<f64>) -> f64 {
        let unit = (self.0.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        range.start + unit * (range.end - range.start)
    }

    /// A vector whose length is drawn from `len` first ([`Gen::range`]),
    /// then each element from `element`, in order. A fixed length `n` is
    /// the range `n..n + 1`.
    pub fn vec<T>(&mut self, len: Range<usize>, mut element: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        let n = self.range(len);
        (0..n).map(|_| element(self)).collect()
    }
}

/// A case whose arguments failed an [`assume`]: it does not count.
#[derive(Debug)]
pub struct Rejected;

/// `assume(cond)?` rejects the current case, without failing the
/// property, unless `cond` holds.
pub fn assume(cond: bool) -> Result<(), Rejected> {
    if cond {
        Ok(())
    } else {
        Err(Rejected)
    }
}

/// What a property returns: `()` when every case counts, or the
/// `Result` of its [`assume`]s.
pub trait Verdict {
    /// Whether the case counts toward the requested number.
    fn accepted(self) -> bool;
}

impl Verdict for () {
    fn accepted(self) -> bool {
        true
    }
}

impl Verdict for Result<(), Rejected> {
    fn accepted(self) -> bool {
        self.is_ok()
    }
}

/// The case count: `PROPTEST_CASES`, when it parses to a positive
/// integer, overrides the property's own (the nightly workflow deepens
/// every suite this way).
fn case_count(var: Option<&str>, configured: u32) -> u32 {
    var.and_then(|v| v.trim().parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(configured)
}

/// Runs the property `name` until `cases` generated cases are accepted.
///
/// Case `i` draws its arguments with `generate` from a generator seeded
/// with the FNV-1a hash of `name` XOR `i·GOLDEN_GAMMA`, so every run sees
/// the same inputs. `property` checks them with plain assertions. A
/// rejected case ([`assume`]) does not count; 100 rejections per requested
/// case fail the run. The first failing case panics with the property's
/// name, the case index, its seed, its arguments and the assertion's
/// message. There is no shrinking.
pub fn check<T, V>(
    name: &str,
    cases: u32,
    generate: impl Fn(&mut Gen) -> T,
    property: impl Fn(&T) -> V,
) where
    T: Debug,
    V: Verdict,
{
    let cases = case_count(std::env::var("PROPTEST_CASES").ok().as_deref(), cases);
    let name_seed = name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    let max_rejects = 100 * cases.max(1);
    let (mut accepted, mut rejected) = (0, 0);
    let mut case = 0u64;
    while accepted < cases {
        let seed = name_seed ^ case.wrapping_mul(GOLDEN_GAMMA);
        let args = generate(&mut Gen(Rng::seed_from_u64(seed)));
        match panic::catch_unwind(AssertUnwindSafe(|| property(&args).accepted())) {
            Ok(true) => accepted += 1,
            Ok(false) => {
                rejected += 1;
                assert!(
                    rejected < max_rejects,
                    "property `{name}`: too many rejected cases \
                     ({rejected} rejected for {accepted} accepted)"
                );
            }
            Err(payload) => {
                let message = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied())
                    .unwrap_or("(no message)");
                panic!(
                    "property `{name}` failed at case {case} (seed {seed:#018x})\n\
                     arguments: {args:?}\n{message}"
                );
            }
        }
        case += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_well_formed() {
        let lib = Library::test_library();
        let hand = hand_unit(&lib);
        assert_eq!(hand.num_inputs(), 3);
        assert_eq!(hand.num_gates(), 3);
        let chain = inverter_chain(4, &lib);
        assert_eq!(chain.depth(), 4);
        let glitchy = reconvergent_glitcher(&lib);
        assert_eq!(glitchy.num_inputs(), 1);
        assert_eq!(glitchy.num_gates(), 3);
    }

    #[test]
    fn generators_stay_in_their_ranges() {
        let mut g = Gen(Rng::seed_from_u64(1));
        for _ in 0..500 {
            assert!((3..9).contains(&g.range(3usize..9)));
            assert_eq!(g.range(0u8..1), 0);
            assert!((-2.0..2.0).contains(&g.float(-2.0..2.0)));
            let v = g.vec(0..8, |g| g.range(0u32..3));
            assert!(v.len() < 8 && v.iter().all(|&x| x < 3));
        }
    }

    #[test]
    fn a_failure_names_the_property_case_seed_and_arguments() {
        let caught = panic::catch_unwind(|| {
            check(
                "always_fails",
                8,
                |g| g.range(0u32..10),
                |&x| {
                    assert!(x > 100, "x was {x}");
                },
            );
        })
        .expect_err("the property fails");
        let message = caught
            .downcast_ref::<String>()
            .expect("a formatted message");
        assert!(
            message.starts_with("property `always_fails` failed at case 0 (seed 0x"),
            "{message}"
        );
        assert!(
            message.contains("arguments: ") && message.contains("x was "),
            "{message}"
        );
    }

    #[test]
    fn rejections_skip_cases_up_to_a_limit() {
        let seen = std::cell::Cell::new(0);
        check(
            "half_rejected",
            8,
            |g| g.range(0u32..2),
            |&x| {
                seen.set(seen.get() + 1);
                assume(x == 0)
            },
        );
        assert!(seen.get() > 8, "rejected cases were counted");
        let caught = panic::catch_unwind(|| {
            check("always_rejected", 2, |g| g.below(2), |_| assume(false));
        })
        .expect_err("the property starves");
        let message = caught
            .downcast_ref::<String>()
            .expect("a formatted message");
        assert!(message.contains("too many rejected cases"), "{message}");
    }

    #[test]
    fn proptest_cases_overrides_only_when_positive() {
        assert_eq!(case_count(None, 32), 32);
        assert_eq!(case_count(Some("256"), 32), 256);
        assert_eq!(case_count(Some(" 8 "), 32), 8);
        assert_eq!(case_count(Some("0"), 32), 32);
        assert_eq!(case_count(Some("lots"), 32), 32);
    }
}
