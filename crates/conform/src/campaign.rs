//! Fault-injection campaigns: the oracle's invariants under resource
//! pressure and storage corruption.
//!
//! Three attacks, all driven through the same generated circuits:
//!
//! 1. **Budget trips** (`trip_after`): a build that degrades at an
//!    arbitrary apply step must still produce a model the kernel
//!    reproduces bit for bit, and a degraded *upper-bound* model must
//!    stay pointwise conservative against the golden simulation.
//! 2. **Deadlines / non-determinism**: wall-clock-bounded builds are
//!    not pure functions of their inputs, so they must never enter the
//!    artifact cache; degraded builds must not either.
//! 3. **Poisoned cache entries**: corrupted artifact files must be
//!    detected (typed [`Event::CachePoisoned`]), transparently rebuilt,
//!    and the healed answers must remain bit-identical to a storeless
//!    build.

use std::fs;
use std::path::{Path, PathBuf};

use charfree_core::{ApproxStrategy, ModelBuilder, PowerModel};
use charfree_engine::{Kernel, TraceEngine};
use charfree_netlist::{blif, Library};
use charfree_pipeline::{ArtifactStore, BuildOptions, Event, PipelineCtx, Source};
use charfree_sim::{MarkovSource, ZeroDelaySim};

use crate::gen::{CircuitSpec, GenConfig};

/// Summary of one campaign run (all counts are assertions that passed).
#[derive(Debug, Default)]
pub struct CampaignReport {
    /// Budget-trip points exercised.
    pub trips: usize,
    /// How many of those actually degraded the build.
    pub degraded: usize,
    /// Poisoned artifacts detected and healed.
    pub healed: usize,
}

/// Runs all three campaigns on circuits derived from `seed`, using
/// `workdir` for cache scratch space.
///
/// # Errors
///
/// The first violated invariant, as a diagnostic string.
pub fn run(seed: u64, workdir: &Path) -> Result<CampaignReport, String> {
    let library = Library::test_library();
    let cfg = GenConfig {
        num_inputs: 6,
        num_gates: 18,
        window: 8,
    };
    let spec = CircuitSpec::random("campaign", seed, &cfg);
    let netlist = spec.build(&library)?;
    let sim = ZeroDelaySim::new(&netlist);
    let mut source = MarkovSource::new(netlist.num_inputs(), 0.5, 0.4, seed ^ 0x5eed)
        .map_err(|e| e.to_string())?;
    let patterns = source.sequence(32);
    let mut report = CampaignReport::default();

    // Campaign 1: trip the budget at a ladder of apply steps.
    for k in [1u64, 3, 9, 27, 81, 243, 2000] {
        report.trips += 1;
        let model = ModelBuilder::new(&netlist)
            .trip_after(k)
            .try_build()
            .map_err(|e| format!("trip_after({k}) must degrade, not fail: {e}"))?;
        if model.degradation().is_some() {
            report.degraded += 1;
        }
        // The kernel must follow the degraded arena bit for bit.
        let kernel = Kernel::compile(&model);
        let trace = TraceEngine::new(&kernel).jobs(1).trace(&patterns);
        for (t, &got) in trace.iter().enumerate() {
            let want = model
                .capacitance(&patterns[t], &patterns[t + 1])
                .femtofarads();
            if got.to_bits() != want.to_bits() {
                return Err(format!(
                    "trip_after({k}): kernel {got} != degraded arena {want} at transition {t}"
                ));
            }
        }
        // A degraded upper-bound model keeps its one-sided contract.
        let upper = ModelBuilder::new(&netlist)
            .strategy(ApproxStrategy::UpperBound)
            .max_nodes((ModelBuilder::new(&netlist).build().size() / 2).max(4))
            .trip_after(k)
            .try_build()
            .map_err(|e| format!("upper-bound trip_after({k}) must degrade: {e}"))?;
        for t in 0..patterns.len() - 1 {
            let b = upper
                .capacitance(&patterns[t], &patterns[t + 1])
                .femtofarads();
            let truth = sim
                .switching_capacitance(&patterns[t], &patterns[t + 1])
                .femtofarads();
            if b < truth - 1e-9 {
                return Err(format!(
                    "trip_after({k}): degraded upper bound {b} < truth {truth} at transition {t}"
                ));
            }
        }
    }

    // Campaign 2: timing-dependent and degraded builds never cache.
    let blif_path = workdir.join("campaign.blif");
    fs::create_dir_all(workdir).map_err(|e| format!("creating {}: {e}", workdir.display()))?;
    fs::write(&blif_path, blif::write(&netlist)).map_err(|e| e.to_string())?;
    let source_ref = Source::infer(&blif_path.display().to_string());

    let deadline_options = BuildOptions {
        time_budget: Some(std::time::Duration::from_secs(3600)),
        ..BuildOptions::default()
    };
    if deadline_options.cacheable() {
        return Err("deadline-bounded options must not be cacheable".to_owned());
    }
    let deadline_cache = fresh_dir(workdir, "cache-deadline")?;
    {
        let mut ctx = PipelineCtx::new(library.clone())
            .with_options(deadline_options)
            .with_store(ArtifactStore::new(&deadline_cache));
        ctx.kernel_for(&source_ref).map_err(|e| e.to_string())?;
    }
    if count_artifacts(&deadline_cache) != 0 {
        return Err("deadline-bounded build left artifacts in the store".to_owned());
    }

    // node_budget=1 is guaranteed to trip: the degraded result must not
    // be persisted, so a second context builds cold again.
    let degraded_cache = fresh_dir(workdir, "cache-degraded")?;
    let degraded_options = BuildOptions {
        node_budget: Some(1),
        ..BuildOptions::default()
    };
    {
        let mut ctx = PipelineCtx::new(library.clone())
            .with_options(degraded_options.clone())
            .with_store(ArtifactStore::new(&degraded_cache));
        ctx.kernel_for(&source_ref).map_err(|e| e.to_string())?;
    }
    if count_artifacts(&degraded_cache) != 0 {
        return Err("degraded build left artifacts in the store".to_owned());
    }
    {
        let mut ctx = PipelineCtx::new(library.clone())
            .with_options(degraded_options)
            .with_store(ArtifactStore::new(&degraded_cache));
        ctx.kernel_for(&source_ref).map_err(|e| e.to_string())?;
        if ctx.apply_steps() == 0 {
            return Err("second degraded build was served warm; degraded \
                 results must never cache"
                .to_owned());
        }
    }

    // Campaign 3: poison every stored artifact byte pattern we can and
    // verify detection + bit-identical healing.
    let reference = {
        let mut ctx = PipelineCtx::new(library.clone());
        let kernel = ctx.kernel_for(&source_ref).map_err(|e| e.to_string())?;
        ctx.trace(&kernel, &patterns, 1)
    };
    for corruption in ["truncate", "garbage"] {
        let cache = fresh_dir(workdir, &format!("cache-poison-{corruption}"))?;
        {
            let mut ctx = PipelineCtx::new(library.clone()).with_store(ArtifactStore::new(&cache));
            ctx.kernel_for(&source_ref).map_err(|e| e.to_string())?;
        }
        let mut poisoned_files = 0usize;
        for entry in fs::read_dir(&cache).map_err(|e| e.to_string())? {
            let path = entry.map_err(|e| e.to_string())?.path();
            if !path.is_file() {
                continue;
            }
            match corruption {
                "truncate" => {
                    let bytes = fs::read(&path).map_err(|e| e.to_string())?;
                    fs::write(&path, &bytes[..bytes.len() / 2]).map_err(|e| e.to_string())?;
                }
                _ => {
                    fs::write(&path, b"not an artifact at all").map_err(|e| e.to_string())?;
                }
            }
            poisoned_files += 1;
        }
        if poisoned_files == 0 {
            return Err("warm build stored no artifacts to poison".to_owned());
        }
        let mut ctx = PipelineCtx::new(library.clone()).with_store(ArtifactStore::new(&cache));
        let kernel = ctx.kernel_for(&source_ref).map_err(|e| e.to_string())?;
        let healed = ctx.trace(&kernel, &patterns, 1);
        let saw_poison = ctx
            .telemetry
            .events()
            .iter()
            .any(|e| matches!(e, Event::CachePoisoned { .. }));
        if !saw_poison {
            return Err(format!(
                "{corruption}: corrupted artifact was not reported as poisoned"
            ));
        }
        for (t, (&got, &want)) in healed.iter().zip(&reference).enumerate() {
            if got.to_bits() != want.to_bits() {
                return Err(format!(
                    "{corruption}: healed trace {got} != reference {want} at transition {t}"
                ));
            }
        }
        report.healed += 1;
    }

    Ok(report)
}

fn fresh_dir(workdir: &Path, tag: &str) -> Result<PathBuf, String> {
    let dir = workdir.join(tag);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

fn count_artifacts(dir: &Path) -> usize {
    fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter(|e| e.path().is_file())
                .count()
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_passes_on_a_reference_seed() {
        let dir =
            std::env::temp_dir().join(format!("charfree-conform-campaign-{}", std::process::id()));
        let report = run(5, &dir).expect("invariants hold under faults");
        assert!(report.trips >= 7);
        assert!(report.degraded >= 1, "small trip points must degrade");
        assert_eq!(report.healed, 2);
        let _ = fs::remove_dir_all(&dir);
    }
}
