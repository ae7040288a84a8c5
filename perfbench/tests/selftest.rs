//! Self-test of the benchmark: every workload runs at a tiny size, every
//! metric `BENCHMARK.json` names is emitted with its unit, and the
//! correctness gate counts a non-chordal edge set as a failure.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use chordal_graph::{CsrGraph, GraphRef};
use chordal_serve::JsonValue;
use perfbench::gate::Gate;
use perfbench::workloads::Workload;
use std::process::Command;

fn benchmark_json() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("reading BENCHMARK.json");
    JsonValue::parse(&text).expect("BENCHMARK.json parses")
}

fn array<'a>(json: &'a JsonValue, key: &str) -> &'a [JsonValue] {
    match json.get(key) {
        Some(JsonValue::Arr(items)) => items,
        other => panic!("`{key}` is not an array: {other:?}"),
    }
}

fn str_of<'a>(json: &'a JsonValue, key: &str) -> &'a str {
    json.get(key)
        .and_then(JsonValue::as_str)
        .unwrap_or_else(|| panic!("missing `{key}`"))
}

/// Runs one tiny workload and returns its parsed result line.
fn run_tiny(workload: &str, trace: bool) -> JsonValue {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
        ])
        .arg(if trace { "1" } else { "0" })
        .arg("--tiny")
        .output()
        .expect("running perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload}: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    JsonValue::parse(last).expect("the result line is JSON")
}

/// Asserts `result` carries exactly the `expected` metrics, each with the
/// unit `BENCHMARK.json` gives it.
fn assert_metrics(workload: &str, result: &JsonValue, expected: &[JsonValue]) {
    let JsonValue::Obj(metrics) = result.get("metrics").expect("metrics") else {
        panic!("metrics is not an object");
    };
    assert_eq!(metrics.len(), expected.len(), "{workload}: metric count");
    for metric in expected {
        let name = str_of(metric, "name");
        let emitted = result
            .path(&["metrics", name])
            .unwrap_or_else(|| panic!("{workload}: `{name}` not emitted"));
        assert_eq!(
            str_of(emitted, "unit"),
            str_of(metric, "unit"),
            "{workload}: unit of `{name}`"
        );
        let value = emitted.get("value").and_then(JsonValue::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{workload}: `{name}` value"
        );
    }
}

#[test]
fn every_workload_emits_every_named_metric_with_its_unit() {
    let bench = benchmark_json();
    let workloads = array(&bench, "workloads");
    assert_eq!(workloads.len(), Workload::ALL.len());
    for workload in workloads {
        let name = str_of(workload, "name");
        assert!(Workload::parse(name).is_some(), "unknown workload `{name}`");
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let result = run_tiny(name, trace);
            assert_eq!(
                result.get("correct").and_then(JsonValue::as_bool),
                Some(true),
                "{name}"
            );
            assert_eq!(
                result.get("failed").and_then(JsonValue::as_u64),
                Some(0),
                "{name}"
            );
            assert!(
                result
                    .get("attempted")
                    .and_then(JsonValue::as_u64)
                    .unwrap_or(0)
                    >= 1
            );
            assert_metrics(name, &result, array(&bench, key));
        }
    }
}

#[test]
fn gate_counts_a_four_cycle_as_a_failure() {
    let cycle = [(0, 1), (1, 2), (2, 3), (0, 3)];
    let graph = CsrGraph::from_canonical_edges(4, &cycle);
    let mut gate = Gate::new();
    assert!(!gate.check_edges(0, GraphRef::from(&graph), &cycle));
    assert_eq!(gate.failed(), 1);
    // A chordal subset (a path) passes; an edge outside the input fails.
    assert!(gate.check_edges(0, GraphRef::from(&graph), &cycle[..3]));
    assert!(!gate.check_edges(0, GraphRef::from(&graph), &[(0, 2)]));
    assert_eq!(gate.failed(), 2);
    assert_eq!(gate.checked, 3);
}
