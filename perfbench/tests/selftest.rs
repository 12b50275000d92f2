//! Tiny-size self-test: every workload, untraced and traced, emits exactly
//! the metrics `BENCHMARK.json` declares, each with its declared unit, in a
//! well-formed result line, and a repeat with the same seed reproduces the
//! model digest and the attempted and failed counts.

use serde_json::Value;
use std::process::Command;

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.as_object()
        .and_then(|o| o.iter().find(|(k, _)| k == key))
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("missing key {key:?}"))
}

/// (name, unit) pairs of one metric list of `BENCHMARK.json`.
fn declared(spec: &Value, list: &str) -> Vec<(String, String)> {
    field(spec, list)
        .as_array()
        .expect("metric list")
        .iter()
        .map(|m| {
            let name = field(m, "name").as_str().expect("name").to_string();
            let unit = field(m, "unit").as_str().expect("unit").to_string();
            (name, unit)
        })
        .collect()
}

/// Runs the benchmark at tiny size; returns (stdout lines, parsed result).
fn run(workload: &str, trace: u8) -> (Vec<String>, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "0.2",
            "--size",
            "tiny",
        ])
        .args(["--trace", &trace.to_string()])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run perfbench");
    assert!(out.status.success(), "{workload}: exit {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let lines: Vec<String> = stdout.lines().map(str::to_string).collect();
    let result =
        serde_json::from_str(lines.last().expect("a result line")).expect("JSON result line");
    (lines, result)
}

fn check_result(workload: &str, result: &Value, want: &[(String, String)]) {
    let keys: Vec<&str> = result
        .as_object()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{workload}"
    );
    assert!(
        field(result, "attempted").as_u64().expect("attempted") >= 1,
        "{workload}"
    );
    field(result, "failed")
        .as_u64()
        .expect("failed is a whole number");
    let metrics = field(result, "metrics")
        .as_object()
        .expect("metrics object");
    let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let names: Vec<&str> = want.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(got, names, "{workload}: emitted metric names");
    for (name, unit) in want {
        let m = field(field(result, "metrics"), name);
        assert_eq!(
            field(m, "unit").as_str(),
            Some(unit.as_str()),
            "{workload}: unit of {name}"
        );
        let v = field(m, "value")
            .as_f64()
            .unwrap_or_else(|| panic!("{workload}: {name} is not a number"));
        assert!(v.is_finite(), "{workload}: {name} = {v}");
    }
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json");
    let spec: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let end_to_end = declared(&spec, "end_to_end");
    let per_layer = declared(&spec, "per_layer");
    for w in field(&spec, "workloads").as_array().expect("workloads") {
        let name = field(w, "name").as_str().expect("workload name");
        let (lines, result) = run(name, 0);
        check_result(name, &result, &end_to_end);
        assert!(
            matches!(field(&result, "correct"), Value::Bool(true)),
            "{name}: not correct"
        );
        let digest = lines
            .iter()
            .find(|l| l.starts_with("# model digest"))
            .expect("digest line")
            .clone();
        let (again, repeat) = run(name, 0);
        assert!(
            again.contains(&digest),
            "{name}: same seed, different model digest"
        );
        for key in ["attempted", "failed"] {
            assert_eq!(
                field(&result, key),
                field(&repeat, key),
                "{name}: same seed, different {key}"
            );
        }
        let (_, traced) = run(name, 1);
        check_result(name, &traced, &per_layer);
        assert!(
            matches!(field(&traced, "correct"), Value::Bool(true)),
            "{name}: traced run not correct"
        );
    }
}
