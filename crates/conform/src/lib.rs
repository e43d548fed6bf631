//! # charfree-conform — differential conformance harness
//!
//! The paper's central claim (Eq. 4) is that the analytical ADD model
//! *is* the golden gate-level zero-delay model — and every layer grown
//! on top (collapsed models, compiled kernels, the cached pipeline, the
//! batching server) re-expresses that one function. This crate checks
//! the whole lattice generatively:
//!
//! * [`gen`] — seeded random DAGs over the cell library plus structured
//!   families (adders, mux trees, parity trees), emitted as real BLIF so
//!   the parsers stay in the loop;
//! * [`oracle`] — one circuit, one `(sp, st)` Markov trace, every layer:
//!   golden sim ≡ exact ADD ≡ kernel (scalar/1 job/N jobs) ≡ pipeline
//!   cold ≡ pipeline warm reload ≡ live `charfree-serve` round trip,
//!   bit for bit; unit-delay dominates; collapsed models bracket;
//! * [`shrink`] — greedy gate/input/vector deletion while a mismatch
//!   reproduces;
//! * [`corpus`] — minimized repros persisted as text and replayed as
//!   regression tests;
//! * [`campaign`] — fault injection: budget trips, deadlines and
//!   poisoned cache entries must degrade gracefully, never corrupt
//!   answers, and never cache.
//!
//! Drive it via [`run`] (what `charfree conform` calls) or compose the
//! pieces directly in tests.

#![warn(missing_docs)]
#![deny(clippy::unwrap_used)]

pub mod campaign;
pub mod chaos;
pub mod corpus;
pub mod gen;
pub mod oracle;
pub mod shrink;

use std::fmt::Write as _;
use std::path::PathBuf;

use gen::{CircuitSpec, GenConfig, SplitMix64};
use oracle::{CaseParams, Oracle};

/// Configuration for one [`run`] (the `charfree conform` flags).
#[derive(Debug, Clone)]
pub struct ConformConfig {
    /// Generated cases to check.
    pub cases: usize,
    /// Generated *sequential* cases to check (register-bounded
    /// multi-macro designs through the sequential lattice).
    pub seq_cases: usize,
    /// Master seed; every case derives its own sub-seed from it.
    pub seed: u64,
    /// Trace length per case.
    pub vectors: usize,
    /// Corpus directory: replayed before generation, and (with
    /// [`ConformConfig::shrink`]) the destination for new minimized
    /// repros.
    pub corpus: Option<PathBuf>,
    /// Minimize failing cases before reporting (and persist them when a
    /// corpus directory is set).
    pub shrink: bool,
    /// Route every generated case through a live in-process server.
    pub serve: bool,
    /// Run the fault-injection campaigns after the differential sweep.
    pub campaigns: bool,
    /// Run the I/O chaos campaign (injected short writes, torn renames,
    /// stream faults; see [`chaos`]) after the standard campaigns.
    pub chaos: bool,
    /// Minimum injected I/O faults the chaos campaign must reach.
    pub chaos_faults: u64,
    /// Scratch directory (case files, artifact caches).
    pub workdir: PathBuf,
}

impl Default for ConformConfig {
    fn default() -> Self {
        ConformConfig {
            cases: 64,
            seq_cases: 8,
            seed: 0xC0FFEE,
            vectors: 48,
            corpus: None,
            shrink: true,
            serve: true,
            campaigns: true,
            chaos: false,
            chaos_faults: 200,
            workdir: std::env::temp_dir().join(format!("charfree-conform-{}", std::process::id())),
        }
    }
}

/// The sp/st operating points cases cycle through (all feasible for the
/// Markov source: `st ≤ 2·min(sp, 1−sp)`).
const OPERATING_POINTS: [(f64, f64); 4] = [(0.5, 0.4), (0.3, 0.2), (0.7, 0.5), (0.5, 0.05)];

/// Derives the `i`-th case circuit from the master seed, cycling through
/// the random-DAG and structured families.
pub fn case_spec(master_seed: u64, i: usize) -> CircuitSpec {
    let mut rng = SplitMix64::new(master_seed ^ (i as u64).wrapping_mul(0x9e37_79b9));
    let case_seed = rng.next_u64();
    match i % 6 {
        0..=2 => {
            let cfg = GenConfig {
                num_inputs: 4 + (case_seed as usize % 6),        // 4..=9
                num_gates: 6 + ((case_seed >> 8) as usize % 22), // 6..=27
                window: 5 + ((case_seed >> 16) as usize % 8),
            };
            CircuitSpec::random(format!("dag{i}"), case_seed, &cfg)
        }
        3 => CircuitSpec::adder(2 + i % 3),       // 2..=4 bits
        4 => CircuitSpec::mux_tree(2 + i % 2),    // depth 2..=3
        _ => CircuitSpec::parity_tree(4 + i % 6), // 4..=9 bits
    }
}

/// Derives the `i`-th sequential case as `(name, BLIF text)`, cycling
/// pipeline shapes: two-stage feedback pipelines, deeper three-stage
/// pipelines, and wider two-stage designs with more registers.
fn seq_case(master_seed: u64, i: usize) -> (String, String) {
    let mut rng = SplitMix64::new(master_seed ^ (i as u64).wrapping_mul(0x5EC5_EC5E));
    let case_seed = rng.next_u64();
    let cfg = match i % 3 {
        0 => gen::SeqGenConfig {
            num_inputs: 3 + (case_seed as usize % 3), // 3..=5
            stages: 2,
            gates_per_stage: 3 + ((case_seed >> 8) as usize % 4), // 3..=6
            latches_per_stage: 1,
        },
        1 => gen::SeqGenConfig {
            num_inputs: 2 + (case_seed as usize % 3),
            stages: 3,
            gates_per_stage: 2 + ((case_seed >> 8) as usize % 3),
            latches_per_stage: 1,
        },
        _ => gen::SeqGenConfig {
            num_inputs: 4 + (case_seed as usize % 2),
            stages: 2,
            gates_per_stage: 5,
            latches_per_stage: 2,
        },
    };
    let name = format!("seqcase{i}");
    let text = gen::seq_blif(&name, case_seed, &cfg);
    (name, text)
}

/// Runs the conformance sweep: corpus replay, then `cases` generated
/// circuits through every oracle layer, then the fault campaigns.
/// Returns a human-readable report on success.
///
/// # Errors
///
/// A diagnostic describing the first failure — including, when
/// shrinking is enabled, the minimized repro (persisted to the corpus
/// directory when one is configured).
pub fn run(config: &ConformConfig) -> Result<String, String> {
    let mut oracle = Oracle::new(&config.workdir, config.serve)?;

    // Phase 1: replay the committed corpus — past divergences stay dead.
    // A `.latch`-bearing repro replays through the sequential lattice.
    let mut replayed = 0usize;
    if let Some(dir) = &config.corpus {
        for repro in corpus::load_corpus(dir)? {
            let case_name = format!("corpus-{}", repro.name);
            let result = if repro.blif.contains(".latch") {
                oracle.check_seq_text(&case_name, &repro.blif, &repro.patterns)
            } else {
                oracle.check_text(&case_name, &repro.blif, &repro.patterns)
            };
            result.map_err(|m| format!("corpus replay `{}` failed: {m}", repro.name))?;
            replayed += 1;
        }
    }

    // Phase 2: the generative differential sweep.
    for i in 0..config.cases {
        let spec = case_spec(config.seed, i);
        let (sp, st) = OPERATING_POINTS[i % OPERATING_POINTS.len()];
        let params = CaseParams {
            sp,
            st,
            seed: config.seed ^ (0xA5A5 + i as u64),
            vectors: config.vectors,
        };
        let case_name = format!("case{i}");
        if let Err(m) = oracle.check_spec(&case_name, &spec, &params) {
            return Err(handle_failure(
                &mut oracle,
                config,
                &case_name,
                &spec,
                &params,
                m,
            ));
        }
    }

    // Phase 2b: the sequential sweep — register-bounded multi-macro
    // designs through the sequential lattice (golden cycle-stepped sim ≡
    // fused ≡ unfused ≡ warm reload ≡ served seqeval). Sequential
    // mismatches are not shrunk: the shrinker edits combinational
    // `CircuitSpec`s, which cannot express latches — the full diagnostic
    // plus the deterministic (seed, i) pair is the repro.
    let comb_transitions = oracle.transitions;
    for i in 0..config.seq_cases {
        let (_, text) = seq_case(config.seed, i);
        let (sp, st) = OPERATING_POINTS[i % OPERATING_POINTS.len()];
        let params = CaseParams {
            sp,
            st,
            seed: config.seed ^ (0x5EC5 + i as u64),
            vectors: config.vectors,
        };
        let case_name = format!("seq-case{i}");
        oracle
            .check_seq_case(&case_name, &text, &params)
            .map_err(|m| format!("{case_name}: sequential composition conformance failed: {m}"))?;
    }
    let seq_transitions = oracle.transitions - comb_transitions;

    // Phase 3: fault injection.
    let campaign_report = if config.campaigns {
        Some(campaign::run(
            config.seed,
            &config.workdir.join("campaign"),
        )?)
    } else {
        None
    };

    // Phase 4: I/O chaos (crash-safety and self-healing).
    let chaos_report = if config.chaos {
        let chaos_config = chaos::ChaosConfig {
            seed: config.seed,
            fault_target: config.chaos_faults,
        };
        Some(chaos::run(&chaos_config, &config.workdir.join("chaos"))?)
    } else {
        None
    };

    let mut report = String::new();
    if config.cases > 0 {
        let _ = writeln!(
            report,
            "conform: {} generated cases x {} layers agreed bit-for-bit ({} transitions checked)",
            config.cases,
            if config.serve { 6 } else { 5 },
            comb_transitions,
        );
    }
    if config.seq_cases > 0 {
        let _ = writeln!(
            report,
            "conform: {} sequential cases composed clean (golden sim = fused = unfused = warm reload{}, \
             {} macro-cycles bit-compared)",
            config.seq_cases,
            if config.serve { " = served seqeval" } else { "" },
            seq_transitions,
        );
    }
    if replayed > 0 {
        let _ = writeln!(report, "conform: {replayed} corpus repro(s) replayed clean");
    }
    if let Some(c) = campaign_report {
        let _ = writeln!(
            report,
            "conform: campaigns passed ({} budget trips, {} degraded, {} poisoned entries healed)",
            c.trips, c.degraded, c.healed
        );
    }
    if let Some(c) = chaos_report {
        let _ = writeln!(
            report,
            "conform: chaos campaign passed ({} faults injected, {} bit checks, \
             {} recoveries, {} quarantined, {} served under faults, {} typed failures, \
             {} panics supervised, {} breaker denials)",
            c.injected_faults,
            c.bit_checks,
            c.recoveries,
            c.quarantined,
            c.served_ok,
            c.typed_failures,
            c.worker_panics,
            c.breaker_denials
        );
    }
    oracle.finish();
    Ok(report)
}

/// On a mismatch: optionally shrink, optionally persist, and render the
/// final error message.
fn handle_failure(
    oracle: &mut Oracle,
    config: &ConformConfig,
    case_name: &str,
    spec: &CircuitSpec,
    params: &CaseParams,
    original: oracle::Mismatch,
) -> String {
    let mut msg = format!("{case_name}: {original}");
    if !config.shrink {
        return msg;
    }
    let patterns = match oracle.patterns_for(spec, params) {
        Ok(p) => p,
        Err(_) => return msg,
    };
    let library = oracle.library().clone();
    // Shrink against the local layers only (the server generates its own
    // patterns from a seed, so arbitrary reduced traces cannot be
    // replayed through it).
    let shrunk = shrink::shrink(spec, &patterns, |s, p| {
        let Ok(netlist) = s.build(&library) else {
            return false;
        };
        let text = charfree_netlist::blif::write(&netlist);
        oracle.check_text("shrinking", &text, p).is_err()
    });
    let _ = write!(
        msg,
        "\nshrunk to {} gates / {} inputs / {} patterns in {} steps",
        shrunk.spec.gates.len(),
        shrunk.spec.num_inputs,
        shrunk.patterns.len(),
        shrunk.steps
    );
    if let Ok(netlist) = shrunk.spec.build(&library) {
        let repro = corpus::Repro {
            name: case_name.to_owned(),
            seed: params.seed,
            sp: params.sp,
            st: params.st,
            blif: charfree_netlist::blif::write(&netlist),
            patterns: shrunk.patterns.clone(),
        };
        if let Some(dir) = &config.corpus {
            match repro.write_to(dir) {
                Ok(path) => {
                    let _ = write!(msg, "\nrepro written to {}", path.display());
                }
                Err(e) => {
                    let _ = write!(msg, "\nrepro could not be written: {e}");
                }
            }
        } else {
            let _ = write!(msg, "\nminimized repro:\n{}", repro.to_text());
        }
    }
    msg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_specs_are_deterministic_and_diverse() {
        let a = case_spec(0xC0FFEE, 7);
        let b = case_spec(0xC0FFEE, 7);
        assert_eq!(a, b, "same seed, same case");
        let families: std::collections::HashSet<String> = (0..12)
            .map(|i| {
                case_spec(1, i)
                    .name
                    .trim_end_matches(char::is_numeric)
                    .to_owned()
            })
            .collect();
        assert!(
            families.len() >= 4,
            "dag + adder + muxtree + parity: {families:?}"
        );
    }
}
