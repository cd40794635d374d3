//! Integration: the built `lifeguard-sim` binary, its three artifact flags,
//! and its exit code on hostile input.
//!
//! A calibrated scenario run must export a well-formed Chrome/Perfetto
//! trace containing at least one complete repair causal chain (monitor open
//! through unpoison under a single trace id, spans properly nested per
//! thread) plus parseable Prometheus text stamped with run provenance.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::process::Command;

use lifeguard_repro::json::{self, Value};

fn scratch(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

#[test]
fn scenario_run_writes_well_formed_artifacts() {
    let (trace, prom, telemetry) = (
        scratch("cli-trace.json"),
        scratch("cli-metrics.prom"),
        scratch("cli-telemetry.json"),
    );
    let scenario = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/reverse_outage.json");
    let run = Command::new(env!("CARGO_BIN_EXE_lifeguard-sim"))
        .arg(scenario)
        .arg("--trace")
        .arg(&trace)
        .arg("--timeseries")
        .arg(&prom)
        .arg("--telemetry")
        .arg(&telemetry)
        .output()
        .expect("lifeguard-sim runs");
    assert!(run.status.success(), "{run:?}");
    let read = |p: &PathBuf| std::fs::read_to_string(p).expect("artifact was written");

    let doc = json::parse(&read(&trace)).expect("trace.json parses");
    let events = doc.get("traceEvents").and_then(Value::as_arr).unwrap();
    assert!(!events.is_empty(), "trace.json has no events");
    let num = |e: &Value, key: &str| e.get(key).and_then(Value::as_f64).unwrap();
    let name = |e: &Value| e.get("name").and_then(Value::as_str).unwrap().to_string();

    // Span nesting: on each thread, "X" (complete) events must nest — sort
    // by start time (longest first on ties) and check ends via a stack.
    let mut by_thread: BTreeMap<u64, Vec<(f64, f64, String)>> = BTreeMap::new();
    for e in events {
        if e.get("ph").and_then(Value::as_str) == Some("X") {
            let tid = e.get("tid").and_then(Value::as_u64).unwrap();
            let span = (num(e, "ts"), num(e, "dur"), name(e));
            by_thread.entry(tid).or_default().push(span);
        }
    }
    assert!(!by_thread.is_empty(), "no complete spans recorded");
    for (tid, spans) in &mut by_thread {
        spans.sort_by(|a, b| a.0.total_cmp(&b.0).then(b.1.total_cmp(&a.1)));
        let mut open_ends: Vec<f64> = Vec::new();
        for (ts, dur, name) in spans.iter() {
            while open_ends.last().is_some_and(|end| ts >= end) {
                open_ends.pop();
            }
            let end = ts + dur;
            assert!(
                open_ends.last().is_none_or(|outer| end <= outer + 1e-3),
                "overlapping spans on tid {tid}: {name}"
            );
            open_ends.push(end);
        }
    }

    // Causal chain: some single trace id must carry the whole repair
    // lifecycle.
    let mut chains: BTreeMap<u64, BTreeSet<String>> = BTreeMap::new();
    for e in events {
        let id = e.get("args").and_then(|a| a.get("trace"));
        if let Some(id) = id.and_then(Value::as_u64).filter(|id| *id != 0) {
            chains.entry(id).or_default().insert(name(e));
        }
    }
    let lifecycle = [
        "monitor.open",
        "repair.outage_detected",
        "repair.isolation_completed",
        "repair.poisoned",
        "repair.repaired",
        "repair.healed",
        "repair.unpoisoned",
    ];
    assert!(
        chains
            .values()
            .any(|names| lifecycle.iter().all(|n| names.contains(*n))),
        "no complete causal chain; per-trace events: {chains:?}"
    );

    // Prometheus surface: every line parses, a repair was counted, and run
    // provenance is stamped.
    let mut repairs = 0.0;
    let mut saw_info = false;
    for line in read(&prom).lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (metric, value) = line.rsplit_once(' ').unwrap_or(("", line));
        assert!(!metric.is_empty(), "malformed exposition line: {line:?}");
        let value: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("malformed exposition value: {line:?}"));
        if metric.starts_with("lg_core_repairs_total") {
            repairs = value;
        }
        saw_info |= metric.starts_with("lg_run_info{");
    }
    assert!(repairs >= 1.0, "metrics.prom: lg_core_repairs_total < 1");
    assert!(saw_info, "metrics.prom: lg_run_info missing");

    // The snapshot is one JSON object with the repair counted in it.
    let snap = json::parse(&read(&telemetry)).expect("telemetry.json parses");
    let counted = snap.get("telemetry").and_then(|t| t.get("core.repairs"));
    assert!(counted.and_then(Value::as_u64) >= Some(1), "{counted:?}");
}

#[test]
fn hostile_input_is_an_exit_code_not_a_crash() {
    let path = scratch("cli-deep.json");
    std::fs::write(&path, "[".repeat(2_000_000)).unwrap();
    let run = Command::new(env!("CARGO_BIN_EXE_lifeguard-sim"))
        .arg(&path)
        .output()
        .expect("lifeguard-sim runs");
    assert_eq!(run.status.code(), Some(1), "{run:?}");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(stderr.contains("nesting deeper than 128"), "{stderr}");

    // An artifact flag without its PATH is a usage error.
    let run = Command::new(env!("CARGO_BIN_EXE_lifeguard-sim"))
        .args([path.to_str().unwrap(), "--trace"])
        .output()
        .expect("lifeguard-sim runs");
    assert_eq!(run.status.code(), Some(2), "{run:?}");
}
