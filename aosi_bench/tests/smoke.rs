//! Smoke test of the benchmark itself: every workload, at a scale of a
//! second or two, passes its own correctness check and prints exactly
//! the metrics `BENCHMARK.json` lists; the same seed drives the same
//! operations and another seed does not; and `BENCHMARK.json` is the
//! file the metric lists in `report.rs` generate.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;

use server::json::{self, Json};

const BIN: &str = env!("CARGO_BIN_EXE_aosi_bench");

fn manifest_file() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json is JSON")
}

fn names(manifest: &Json, list: &str) -> BTreeSet<String> {
    manifest
        .get(list)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"))
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_owned()
        })
        .collect()
}

/// One smoke-scale run; returns the parsed result line.
fn run(workload: &str, seed: u64, trace: bool) -> Json {
    let results = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}"));
    let output = Command::new(BIN)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            "1",
            "--trace",
            if trace { "1" } else { "0" },
            "--smoke",
        ])
        .arg("--results-dir")
        .arg(&results)
        .output()
        .expect("run aosi_bench");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} seed {seed} trace {trace} failed: {stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    if trace {
        let spans = results.join(format!("trace-{workload}.jsonl"));
        let text = std::fs::read_to_string(&spans).expect("the traced run writes its span file");
        let first =
            json::parse(text.lines().next().expect("at least one span")).expect("JSON line");
        for key in ["id", "name", "start_ns", "end_ns", "parent", "op_id"] {
            assert!(first.get(key).is_some(), "span without {key}: {first:?}");
        }
    }
    json::parse(stdout.lines().last().expect("a result line")).expect("the result line is JSON")
}

fn metric(result: &Json, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("no metric {name}"))
}

fn check_workload(workload: &str) {
    let manifest = manifest_file();
    let printed = |result: &Json| -> BTreeSet<String> {
        match result.get("metrics") {
            Some(Json::Obj(members)) => members.keys().cloned().collect(),
            _ => panic!("no metrics object"),
        }
    };
    let end_to_end = run(workload, 1, false);
    assert_eq!(end_to_end.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(end_to_end.get("failed"), Some(&Json::Num(0.0)));
    assert_eq!(printed(&end_to_end), names(&manifest, "end_to_end"));
    for name in names(&manifest, "end_to_end") {
        assert!(metric(&end_to_end, &name) > 0.0, "{workload} {name} is 0");
    }

    let traced = run(workload, 1, true);
    assert_eq!(traced.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(printed(&traced), names(&manifest, "per_layer"));

    let fingerprint = metric(&traced, "bench.workload_fingerprint");
    assert_eq!(
        metric(&run(workload, 1, true), "bench.workload_fingerprint"),
        fingerprint
    );
    assert_ne!(
        metric(&run(workload, 2, true), "bench.workload_fingerprint"),
        fingerprint
    );
}

#[test]
fn dash_scan_smoke() {
    check_workload("dash_scan");
}

#[test]
fn realtime_mixed_smoke() {
    check_workload("realtime_mixed");
}

#[test]
fn pinned_replay_smoke() {
    check_workload("pinned_replay");
}

#[test]
fn bulk_load_durable_smoke() {
    check_workload("bulk_load_durable");
}

#[test]
fn benchmark_json_is_generated_from_the_metric_lists() {
    let output = Command::new(BIN)
        .arg("manifest")
        .output()
        .expect("run aosi_bench");
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    assert_eq!(
        String::from_utf8_lossy(&output.stdout),
        std::fs::read_to_string(path).expect("BENCHMARK.json"),
        "regenerate with `aosi_bench manifest > BENCHMARK.json`"
    );
}

/// The limits the benchmark contract puts on `BENCHMARK.json`.
#[test]
fn benchmark_json_is_within_the_contract_limits() {
    let manifest = manifest_file();
    let name_ok = |name: &str| {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let unit_ok = |unit: &str| {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    let list = |key: &str| {
        manifest
            .get(key)
            .and_then(Json::as_arr)
            .expect("a list")
            .to_vec()
    };
    let text = |m: &Json, key: &str| {
        m.get(key)
            .and_then(Json::as_str)
            .expect("a string")
            .to_owned()
    };
    let mut seen = BTreeSet::new();
    let workloads = list("workloads");
    assert!((2..=8).contains(&workloads.len()));
    for w in &workloads {
        assert!(name_ok(&text(w, "name")) && seen.insert(text(w, "name")));
        let why = text(w, "why");
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "why too long: {why}"
        );
    }
    let end_to_end = list("end_to_end");
    assert!((1..=16).contains(&end_to_end.len()));
    for m in &end_to_end {
        assert!(name_ok(&text(m, "name")) && seen.insert(text(m, "name")));
        assert!(unit_ok(&text(m, "unit")), "unit {}", text(m, "unit"));
        assert!(["lower", "higher"].contains(&text(m, "better").as_str()));
        let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25);
    }
    assert!(end_to_end.iter().any(|m| text(m, "name") == "setup_s"
        && text(m, "unit") == "s"
        && text(m, "better") == "lower"));
    let per_layer = list("per_layer");
    assert!((1..=128).contains(&per_layer.len()));
    for m in &per_layer {
        assert!(
            name_ok(&text(m, "name")) && seen.insert(text(m, "name")),
            "{}",
            text(m, "name")
        );
        assert!(unit_ok(&text(m, "unit")), "unit {}", text(m, "unit"));
    }
    let seconds = manifest
        .get("run_seconds")
        .and_then(Json::as_f64)
        .expect("run_seconds");
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
}
