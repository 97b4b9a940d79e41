//! The benchmark's own contract: metric names are well formed, what it
//! prints is exactly what `BENCHMARK.json` declares, and a short run of
//! every workload passes its correctness checks.

use std::collections::BTreeSet;
use std::process::Command;

use xt_perfbench::catalog::{valid_name, END_TO_END, PER_LAYER, WORKLOADS};
use xt_perfbench::json::Json;

fn declared() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(list: &Json) -> Vec<(String, String)> {
    list.as_array()
        .expect("a list")
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string();
            let unit = m
                .get("unit")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string();
            (name, unit)
        })
        .collect()
}

fn catalog(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn metric_names_are_well_formed_and_unique() {
    let mut seen = BTreeSet::new();
    for &(name, _) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(name), "bad metric name {name}");
        assert!(seen.insert(name), "metric {name} declared twice");
    }
    assert!(!valid_name("a b") && !valid_name(".x") && !valid_name("µs"));
}

#[test]
fn benchmark_json_declares_the_catalog() {
    let d = declared();
    assert_eq!(names(d.get("end_to_end").unwrap()), catalog(END_TO_END));
    assert_eq!(names(d.get("per_layer").unwrap()), catalog(PER_LAYER));
    let workloads: Vec<String> = names(d.get("workloads").unwrap())
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert_eq!(workloads, WORKLOADS);
    for m in d.get("end_to_end").unwrap().as_array().unwrap() {
        let bound = m.get("bound").and_then(Json::as_f64).expect("a bound");
        assert!(
            bound > 0.0 && bound <= 0.25,
            "bound {bound} out of (0, 0.25]"
        );
    }
}

/// Runs the benchmark binary and returns its parsed result line.
fn smoke(workload: &str, trace: bool) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "6",
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("some output");
    let line = Json::parse(last).expect("last line is JSON");
    assert_eq!(line.keys(), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(line.get("correct"), Some(&Json::Bool(true)), "{stdout}");
    assert!(line.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));
    let expected = if trace { PER_LAYER } else { END_TO_END };
    let metrics = line.get("metrics").unwrap();
    let printed: Vec<&str> = metrics.keys();
    let declared: Vec<&str> = expected.iter().map(|&(n, _)| n).collect();
    assert_eq!(
        printed, declared,
        "{workload} prints exactly the declared metrics"
    );
    for &(name, unit) in expected {
        let m = metrics.get(name).unwrap();
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit), "{name}");
        assert!(
            m.get("value").and_then(Json::as_f64).is_some(),
            "{name} has a numeric value"
        );
    }
    if !trace {
        for &(name, _) in END_TO_END {
            let v = metrics
                .get(name)
                .unwrap()
                .get("value")
                .and_then(Json::as_f64)
                .unwrap();
            assert!(v > 0.0, "{workload}: end-to-end {name} reads {v}");
        }
    }
    line
}

#[test]
fn impala_2m_smoke_run_passes_its_checks() {
    smoke("impala-2m", false);
    smoke("impala-2m", true);
}

#[test]
fn dqn_replay_smoke_run_passes_its_checks() {
    smoke("dqn-replay", false);
    smoke("dqn-replay", true);
}

#[test]
fn serve_swap_smoke_run_passes_its_checks() {
    smoke("serve-swap", false);
    smoke("serve-swap", true);
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        vec!["--workload", "nope"],
        vec!["--seed", "1"],
        vec!["--workload", "serve-swap", "--trace", "2"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(&args)
            .output()
            .unwrap();
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
