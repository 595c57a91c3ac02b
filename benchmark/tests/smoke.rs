//! Runs every workload at 1/50 size, untraced and traced, and holds the
//! emitted workload and metric names equal to `BENCHMARK.json`'s.

use std::path::PathBuf;
use std::process::Command;

use atlas_benchmark::json::Json;
use atlas_benchmark::spec;

fn benchmark_json() -> (String, Json) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json sits at the repository root");
    let json = Json::parse(&text).expect("BENCHMARK.json parses");
    (text, json)
}

fn names(document: &Json, key: &str) -> Vec<String> {
    document
        .get(key)
        .expect("key present")
        .as_array()
        .iter()
        .map(|entry| {
            entry
                .get("name")
                .and_then(Json::as_str)
                .expect("named")
                .to_string()
        })
        .collect()
}

fn is_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(ok)
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
}

/// One smoke run; the metric names of its result line, in order.
fn smoke_run(workload: &str, trace: bool) -> Vec<String> {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke-results");
    let output = Command::new(env!("CARGO_BIN_EXE_atlas-benchmark"))
        .args(["--workload", workload, "--seed", "11", "--seconds", "20"])
        .args(["--trace", if trace { "1" } else { "0" }, "--smoke", "--out"])
        .arg(&out)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} trace={trace} exited {:?}\n{stdout}\n{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stderr)
    );
    let result = Json::parse(stdout.lines().last().expect("a result line")).expect("JSON result");
    let keys: Vec<&str> = result.as_object().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
    assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
    assert!(
        result
            .get("attempted")
            .and_then(Json::as_f64)
            .expect("attempted")
            >= 1.0
    );
    let metrics = result.get("metrics").expect("metrics").as_object();
    for (name, metric) in metrics {
        let value = metric.get("value").and_then(Json::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{workload} {name}: {value:?}"
        );
        // Every metric is also printed as `workload metric value unit`.
        let unit = metric.get("unit").and_then(Json::as_str).expect("unit");
        let prefix = format!("{workload} {name} ");
        assert!(
            stdout
                .lines()
                .any(|l| l.starts_with(&prefix) && l.ends_with(&format!(" {unit}"))),
            "{workload} {name} is not printed by name with its unit"
        );
        if !trace {
            assert!(
                value != Some(0.0),
                "{workload} {name}: an end-to-end metric read 0"
            );
        }
    }
    if trace {
        assert!(out.join(format!("trace-{workload}.json")).is_file());
    }
    metrics.iter().map(|(name, _)| name.clone()).collect()
}

#[test]
fn benchmark_json_is_printed_from_the_spec_tables() {
    let (text, _) = benchmark_json();
    assert_eq!(text, spec::benchmark_json());
}

#[test]
fn benchmark_json_stays_within_the_contract() {
    let (text, document) = benchmark_json();
    assert!(text.len() <= 64 * 1024);
    let keys: Vec<&str> = document
        .as_object()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let (workloads, end_to_end, per_layer) = (
        names(&document, "workloads"),
        names(&document, "end_to_end"),
        names(&document, "per_layer"),
    );
    assert!((2..=8).contains(&workloads.len()));
    assert!((1..=16).contains(&end_to_end.len()));
    assert!((1..=128).contains(&per_layer.len()));
    let mut all: Vec<&String> = workloads
        .iter()
        .chain(&end_to_end)
        .chain(&per_layer)
        .collect();
    assert!(
        all.iter().all(|name| is_name(name)),
        "a name breaks the charset"
    );
    all.sort();
    let before = all.len();
    all.dedup();
    assert_eq!(all.len(), before, "a name is used twice");
    for workload in document.get("workloads").expect("workloads").as_array() {
        let why = workload.get("why").and_then(Json::as_str).expect("why");
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "why too long: {why}"
        );
    }
    for metric in document.get("end_to_end").expect("end_to_end").as_array() {
        let bound = metric.get("bound").and_then(Json::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25);
    }
    assert!(end_to_end.iter().any(|name| name == "setup_s"));
    let command = document.get("command").expect("command").as_array();
    assert!(command.len() <= 32);
}

#[test]
fn every_workload_emits_exactly_the_declared_metrics() {
    let (_, document) = benchmark_json();
    let (end_to_end, per_layer) = (
        names(&document, "end_to_end"),
        names(&document, "per_layer"),
    );
    for workload in names(&document, "workloads") {
        assert_eq!(
            smoke_run(&workload, false),
            end_to_end,
            "{workload} untraced"
        );
        assert_eq!(smoke_run(&workload, true), per_layer, "{workload} traced");
    }
}
