//! Self-test: every workload, untraced and traced, prints exactly the
//! metrics `BENCHMARK.json` names, each finite and with its declared unit,
//! and passes its output checks.
//!
//! ```text
//! cargo test --release --offline --manifest-path perfbench/Cargo.toml
//! ```

use std::path::Path;
use std::process::Command;

use serde_json::Value;

fn spec() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn declared(spec: &Value, section: &str) -> Vec<(String, String)> {
    spec.get(section)
        .and_then(Value::as_array)
        .expect("metric section")
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Value::as_str)
                    .expect("name/unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Run one workload briefly and return its final JSON line.
fn run(workload: &str, trace: u8) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_amped-perfbench"))
        .current_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join(".."))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.5"])
        .args(["--trace", &trace.to_string()])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("output has a last line");
    serde_json::from_str(last).expect("last line is JSON")
}

fn check(workload: &str, trace: u8, expected: &[(String, String)], nonzero: bool) {
    let result = run(workload, trace);
    assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
    assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
    assert!(result.get("attempted").and_then(Value::as_u64).unwrap_or(0) >= 1);
    let metrics = result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics object");
    let printed: Vec<&str> = metrics.iter().map(|(name, _)| name.as_str()).collect();
    let names: Vec<&str> = expected.iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(printed, names, "{workload} trace {trace}: metric names");
    for ((name, unit), (_, m)) in expected.iter().zip(metrics) {
        let value = m
            .get("value")
            .and_then(Value::as_f64)
            .expect("numeric value");
        assert!(value.is_finite(), "{workload}: {name} = {value}");
        assert!(!nonzero || value > 0.0, "{workload}: {name} is 0");
        assert_eq!(
            m.get("unit").and_then(Value::as_str),
            Some(unit.as_str()),
            "{workload}: unit of {name}"
        );
    }
}

#[test]
fn every_workload_prints_every_declared_metric() {
    let spec = spec();
    let end_to_end = declared(&spec, "end_to_end");
    let per_layer = declared(&spec, "per_layer");
    let workloads = spec
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads");
    assert!(workloads.len() >= 2);
    for w in workloads {
        let name = w
            .get("name")
            .and_then(Value::as_str)
            .expect("workload name");
        check(name, 0, &end_to_end, true);
        check(name, 1, &per_layer, false);
    }
}
