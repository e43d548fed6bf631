//! Smoke run: every workload at reduced size with every check on, once
//! untraced and once traced. Each run must pass its checks and print
//! every metric `BENCHMARK.json` names for that mode, and no other.

use std::path::Path;
use std::process::Command;

use charfree_serve::json::{parse, Json};

/// `(name, unit)` of every metric in `BENCHMARK.json`'s `key` list.
fn metrics_of(spec: &Json, key: &str) -> Vec<(String, String)> {
    let field = |m: &Json, f: &str| m.get(f).and_then(Json::as_str).expect(f).to_owned();
    spec.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

#[test]
fn every_workload_prints_every_metric() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../../../..");
    let text = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
    let spec = parse(&text).expect("BENCHMARK.json parses");
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("perf-smoke");
    for workload in ["build", "eval_offline", "serve_eval", "serve_mixed"] {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let run = Command::new(env!("CARGO_BIN_EXE_perf"))
                .args(["--workload", workload, "--seed", "7", "--seconds", "0.5"])
                .args(["--trace", trace, "--quick"])
                .arg("--out")
                .arg(&out)
                .output()
                .expect("perf runs");
            let stdout = String::from_utf8_lossy(&run.stdout);
            assert!(
                run.status.success(),
                "{workload} --trace {trace} failed:\n{stdout}\n{}",
                String::from_utf8_lossy(&run.stderr)
            );
            let result = parse(stdout.lines().last().expect("a result line")).expect("JSON");
            assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
            assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
            assert!(result.get("attempted").and_then(Json::as_u64) >= Some(1));
            let Some(Json::Obj(metrics)) = result.get("metrics") else {
                panic!("{workload}: no metrics object");
            };
            let expected = metrics_of(&spec, key);
            assert_eq!(metrics.len(), expected.len(), "{workload} --trace {trace}");
            for (name, unit) in &expected {
                let entry = result.get("metrics").and_then(|m| m.get(name));
                let value = entry.and_then(|e| e.get("value")).and_then(Json::as_f64);
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{workload}: {name} missing"
                );
                let printed = entry.and_then(|e| e.get("unit")).and_then(Json::as_str);
                assert_eq!(printed, Some(unit.as_str()), "{workload}: unit of {name}");
                let line = format!("{workload} {name} ");
                assert!(
                    stdout.lines().any(|l| l.starts_with(&line)),
                    "{workload}: no `{name}` line"
                );
            }
        }
    }
}
