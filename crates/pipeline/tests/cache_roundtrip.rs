//! The artifact-store contract, end to end: a warm run performs **zero**
//! ADD apply steps (telemetry-verified) and produces bit-identical
//! evaluation results; poisoned cache entries degrade to rebuilds, never
//! panics.

use charfree_netlist::Library;
use charfree_pipeline::{ArtifactStore, Event, PipelineCtx, Source, Stage};
use std::fs;
use std::path::{Path, PathBuf};

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("charfree-cache-rt-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Deterministic pattern sequence (no RNG dependency): bits of a 64-bit
/// LCG stream.
fn patterns(n_inputs: usize, count: usize) -> Vec<Vec<bool>> {
    let mut x: u64 = 0x243f_6a88_85a3_08d3;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        out.push((0..n_inputs).map(|b| x >> (b + 13) & 1 == 1).collect());
    }
    out
}

fn ctx_with_store(dir: &Path) -> PipelineCtx {
    PipelineCtx::new(Library::test_library()).with_store(ArtifactStore::new(dir))
}

fn artifact_paths(dir: &Path, ext: &str) -> Vec<PathBuf> {
    let Ok(entries) = fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut paths: Vec<PathBuf> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == ext))
        .collect();
    paths.sort();
    paths
}

#[test]
fn warm_run_does_zero_symbolic_work_and_is_bit_identical() {
    let dir = fresh_dir("warm");
    let source = Source::Bench("decod".to_owned());
    let pats = patterns(5, 64);

    // Cold run: builds, evaluates, populates the store.
    let mut cold = ctx_with_store(&dir);
    let kernel = cold.kernel_for(&source).expect("cold build");
    let cold_trace = cold.trace(&kernel, &pats, 1);
    assert!(cold.apply_steps() > 0, "a cold build does symbolic work");
    assert!(cold.telemetry.stage_ran(Stage::BuildAdd));
    assert!(cold.telemetry.cache_misses() >= 1);
    let stored = cold
        .telemetry
        .events()
        .iter()
        .filter(|e| matches!(e, Event::CacheStored { .. }))
        .count();
    assert_eq!(stored, 1, "one artifact stored");
    assert_eq!(artifact_paths(&dir, "cfm").len(), 1);
    assert_eq!(fs::read_dir(&dir).expect("store dir").count(), 1);

    // Warm run in a fresh context: the `.cfm`, read straight into a
    // kernel, short-circuits the entire symbolic path.
    let mut warm = ctx_with_store(&dir);
    let warm_kernel = warm.kernel_for(&source).expect("warm load");
    let warm_trace = warm.trace(&warm_kernel, &pats, 2);
    assert_eq!(
        warm.apply_steps(),
        0,
        "a warm run performs zero ADD apply steps"
    );
    assert!(!warm.telemetry.stage_ran(Stage::BuildAdd));
    assert!(!warm.telemetry.stage_ran(Stage::Collapse));
    assert!(!warm.telemetry.stage_ran(Stage::CompileKernel));
    assert_eq!(warm.telemetry.cache_hits(), 1);
    assert_eq!(cold_trace.len(), warm_trace.len());
    for (c, w) in cold_trace.iter().zip(&warm_trace) {
        assert_eq!(c.to_bits(), w.to_bits(), "bit-identical evaluation");
    }

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn poisoned_model_is_rebuilt_and_stored_back() {
    let dir = fresh_dir("fallback");
    let source = Source::Bench("decod".to_owned());

    let mut cold = ctx_with_store(&dir);
    let _ = cold.kernel_for(&source).expect("cold build");

    let files = artifact_paths(&dir, "cfm");
    assert_eq!(files.len(), 1);
    fs::write(&files[0], b"charfree-model v1\ngarbage\n").expect("poison model");

    let mut warm = ctx_with_store(&dir);
    let _ = warm.kernel_for(&source).expect("rebuild succeeds");
    assert!(
        warm.telemetry
            .events()
            .iter()
            .any(|e| matches!(e, Event::CachePoisoned { .. })),
        "the bad entry is reported, not fatal"
    );
    assert!(warm.telemetry.stage_ran(Stage::BuildAdd));
    assert!(warm.telemetry.stage_ran(Stage::CompileKernel));
    // The rebuilt model was stored back over the poisoned entry.
    let mut again = ctx_with_store(&dir);
    let _ = again.kernel_for(&source).expect("healed");
    assert_eq!(again.telemetry.cache_hits(), 1);
    assert_eq!(again.apply_steps(), 0);

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn fully_poisoned_store_rebuilds_identically() {
    use charfree_pipeline::BuildOptions;

    let dir = fresh_dir("rebuild");
    let source = Source::Bench("cm85".to_owned());
    let pats = patterns(11, 32);
    let options = BuildOptions {
        max_nodes: Some(200),
        ..BuildOptions::default()
    };

    let mut cold = ctx_with_store(&dir).with_options(options.clone());
    let kernel = cold.kernel_for(&source).expect("cold build");
    let cold_trace = cold.trace(&kernel, &pats, 1);

    for path in artifact_paths(&dir, "cfm") {
        fs::write(&path, b"\x00\xff half-written junk").expect("poison");
    }

    let mut rebuilt = ctx_with_store(&dir).with_options(options);
    let rb_kernel = rebuilt.kernel_for(&source).expect("rebuild succeeds");
    let rb_trace = rebuilt.trace(&rb_kernel, &pats, 1);
    assert!(rebuilt.apply_steps() > 0, "everything was rebuilt");
    assert!(rebuilt.telemetry.stage_ran(Stage::BuildAdd));
    assert_eq!(
        rebuilt
            .telemetry
            .events()
            .iter()
            .filter(|e| matches!(e, Event::CachePoisoned { .. }))
            .count(),
        1,
        "the bad entry reported"
    );
    for (c, r) in cold_trace.iter().zip(&rb_trace) {
        assert_eq!(c.to_bits(), r.to_bits(), "rebuild is bit-identical");
    }

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn uncacheable_options_bypass_the_store_entirely() {
    use charfree_pipeline::BuildOptions;
    use std::time::Duration;

    let dir = fresh_dir("bypass");
    let source = Source::Bench("decod".to_owned());
    let mut ctx = ctx_with_store(&dir).with_options(BuildOptions {
        time_budget: Some(Duration::from_secs(3600)),
        ..BuildOptions::default()
    });
    let _ = ctx.kernel_for(&source).expect("build succeeds");
    assert!(!dir.exists(), "nondeterministic builds are never cached");
    assert_eq!(ctx.telemetry.cache_hits() + ctx.telemetry.cache_misses(), 0);

    let _ = fs::remove_dir_all(&dir);
}
