//! `perf compare PARENT_DIR CHANGE_DIR`: the verdict on a change, per
//! workload and end-to-end metric, from run records of the parent commit
//! and of the change.
//!
//! Measure both sides with the same benchmark and settings, in at least
//! ten pairs that alternate which side runs first, each side writing its
//! records to its own directory (`--out`). Runs pair up in the order
//! they started. A change *improved* a metric when it wins at least nine
//! tenths of the pairs and the medians differ by more than the parent's
//! interquartile range; it *regressed* when its median is worse than the
//! parent's by more than the metric's bound in `BENCHMARK.json`. When the
//! parent's own spread exceeds the bound the metric is *unresolved*,
//! unless every change run reads better than every parent run.

use std::collections::BTreeSet;
use std::path::Path;

use charfree_serve::json::{parse, Json};

use crate::stats::{median, quartiles};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    NoWorse,
    Regressed,
    Unresolved,
}

/// One side's runs of one workload and metric.
struct Side {
    median: f64,
    quartiles: [f64; 3],
}

impl Side {
    fn of(values: &[f64]) -> Side {
        Side {
            median: median(values),
            quartiles: quartiles(values),
        }
    }
}

/// Pairs that the change wins, the pair count, and the verdict. `parent`
/// and `change` are in run order.
pub fn judge(
    parent: &[f64],
    change: &[f64],
    lower_is_better: bool,
    bound: f64,
) -> (usize, usize, Verdict) {
    let better = |a: f64, b: f64| if lower_is_better { a < b } else { a > b };
    let (p, c) = (Side::of(parent), Side::of(change));
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| better(**c, **p))
        .count();
    let parent_iqr = p.quartiles[2] - p.quartiles[0];
    let worse_by = if lower_is_better {
        c.median - p.median
    } else {
        p.median - c.median
    } / p.median.abs();
    let every_run_better = change.iter().all(|c| parent.iter().all(|p| better(*c, *p)));
    let verdict = if parent_iqr / p.median.abs() > bound && !every_run_better {
        Verdict::Unresolved
    } else if pairs >= 10
        && wins * 10 >= pairs * 9
        && better(c.median, p.median)
        && (c.median - p.median).abs() > parent_iqr
    {
        Verdict::Improved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::NoWorse
    };
    (wins, pairs, verdict)
}

/// `(workload, started_unix_ms, metrics json)` of every untraced record.
fn records(dir: &Path) -> Result<Vec<(String, f64, Json)>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
    let mut out = Vec::new();
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if !name.ends_with(".json") || name.starts_with("trace-") {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let record = parse(text.trim()).map_err(|e| format!("{}: {e}", path.display()))?;
        if record.get("trace").and_then(Json::as_bool) != Some(false) {
            continue;
        }
        let workload = record
            .get("workload")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_owned();
        let started = record
            .get("started_unix_ms")
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        let metrics = record.get("metrics").cloned().unwrap_or(Json::Null);
        out.push((workload, started, metrics));
    }
    out.sort_by(|a, b| a.1.total_cmp(&b.1));
    Ok(out)
}

fn values(records: &[(String, f64, Json)], workload: &str, metric: &str) -> Vec<f64> {
    records
        .iter()
        .filter(|(w, _, _)| w == workload)
        .filter_map(|(_, _, m)| m.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// Prints one verdict per workload and end-to-end metric; `Ok(false)`
/// when any metric regressed.
pub fn run(parent_dir: &Path, change_dir: &Path, benchmark: &Path) -> Result<bool, String> {
    let text = std::fs::read_to_string(benchmark)
        .map_err(|e| format!("reading {}: {e}", benchmark.display()))?;
    let spec = parse(&text).map_err(|e| format!("{}: {e}", benchmark.display()))?;
    let metrics = spec
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let (parent, change) = (records(parent_dir)?, records(change_dir)?);
    let workloads: BTreeSet<&str> = parent.iter().map(|(w, _, _)| w.as_str()).collect();
    let mut regressed = false;
    for workload in workloads {
        for metric in metrics {
            let name = metric.get("name").and_then(Json::as_str).unwrap_or("");
            let lower = metric.get("better").and_then(Json::as_str) == Some("lower");
            let bound = metric.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let (p, c) = (
                values(&parent, workload, name),
                values(&change, workload, name),
            );
            if p.is_empty() || c.is_empty() {
                continue;
            }
            let (wins, pairs, verdict) = judge(&p, &c, lower, bound);
            regressed |= verdict == Verdict::Regressed;
            let (ps, cs) = (Side::of(&p), Side::of(&c));
            println!(
                "{workload} {name}: parent {:.6} [{:.6}, {:.6}] (n={}), change {:.6} [{:.6}, {:.6}] (n={}), change wins {wins}/{pairs}, {verdict:?}",
                ps.median,
                ps.quartiles[0],
                ps.quartiles[2],
                p.len(),
                cs.median,
                cs.quartiles[0],
                cs.quartiles[2],
                c.len(),
            );
        }
    }
    Ok(!regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ten runs around `center`, spread ±`jitter` in a fixed pattern.
    fn runs(center: f64, jitter: f64) -> Vec<f64> {
        [0.0, 1.0, -1.0, 0.5, -0.5, 0.8, -0.8, 0.2, -0.2, 0.0]
            .iter()
            .map(|k| center + k * jitter)
            .collect()
    }

    #[test]
    fn a_clear_speedup_is_improved() {
        let (wins, pairs, verdict) = judge(&runs(100.0, 1.0), &runs(80.0, 1.0), true, 0.1);
        assert_eq!((wins, pairs, verdict), (10, 10, Verdict::Improved));
    }

    #[test]
    fn a_slowdown_past_the_bound_regresses() {
        let (_, _, verdict) = judge(&runs(100.0, 1.0), &runs(115.0, 1.0), true, 0.1);
        assert_eq!(verdict, Verdict::Regressed);
        // Higher-is-better metrics regress downwards.
        let (_, _, verdict) = judge(&runs(100.0, 1.0), &runs(85.0, 1.0), false, 0.1);
        assert_eq!(verdict, Verdict::Regressed);
    }

    #[test]
    fn a_slowdown_within_the_bound_is_no_worse() {
        let (_, _, verdict) = judge(&runs(100.0, 1.0), &runs(105.0, 1.0), true, 0.1);
        assert_eq!(verdict, Verdict::NoWorse);
    }

    #[test]
    fn a_gain_short_of_nine_tenths_is_not_improved() {
        let mut change = runs(95.0, 1.0);
        change[0] = 120.0;
        change[1] = 130.0;
        let (wins, _, verdict) = judge(&runs(100.0, 1.0), &change, true, 0.1);
        assert_eq!((wins, verdict), (8, Verdict::NoWorse));
    }

    #[test]
    fn a_noisy_parent_leaves_the_metric_unresolved() {
        let (_, _, verdict) = judge(&runs(100.0, 30.0), &runs(150.0, 1.0), true, 0.1);
        assert_eq!(verdict, Verdict::Unresolved);
        // Unless every change run beats every parent run.
        let (_, _, verdict) = judge(&runs(100.0, 30.0), &runs(50.0, 1.0), true, 0.1);
        assert_eq!(verdict, Verdict::Improved);
    }
}
