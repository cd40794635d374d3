//! The ledger around `bench`: the A/A receipt (`aa`), the comparison of
//! two receipts against the declared bounds (`diff`), and `check`, which
//! fails when `BENCHMARK.json`, the declaration in `spec.rs` and the names
//! a run emits drift apart.

use crate::host;
use crate::json::{self, Value};
use crate::run::{self, RunConfig};
use crate::spec::{self, Better, MetricDecl};
use crate::stats::Summary;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

pub struct AaConfig {
    pub sets: usize,
    pub runs: usize,
    pub seconds: u32,
    /// Run `r` of every set uses seed `seed + r`: the sets see the same
    /// inputs, the runs of a set do not — as the driver measures.
    pub seed: u64,
    pub out: PathBuf,
}

const RECEIPT_SCHEMA: &str = "lg-ledger/receipt/1";

/// By how much `b` is worse than `a`, as a share of `a`; negative when it
/// is better.
fn worse_by(m: &MetricDecl, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match m.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

fn git(args: &[&str]) -> Option<String> {
    let out = Command::new("git").args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The commit the working tree is at, marked when it has uncommitted
/// changes; "unknown" outside a git checkout.
fn commit() -> String {
    match git(&["rev-parse", "HEAD"]) {
        Some(head) if git(&["status", "--porcelain"]).is_some_and(|s| !s.is_empty()) => {
            format!("{head}-dirty")
        }
        Some(head) => head,
        None => "unknown".into(),
    }
}

/// One untraced `bench` run in a child process: its result line plus the
/// digests it printed.
fn bench_child(workload: &str, set: usize, seed: u64, seconds: u32) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["bench", "--workload", workload, "--trace", "0"])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .output()
        .map_err(|e| format!("spawning bench: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "bench {workload} seed {seed} failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().ok_or("bench printed nothing")?;
    let result = json::parse(last)?;
    let noted = |key: &str| {
        stdout
            .lines()
            .find_map(|l| {
                l.strip_prefix("# ")?
                    .strip_prefix(key)?
                    .split_whitespace()
                    .next()
            })
            .unwrap_or("")
            .to_string()
    };
    let metrics: Vec<(String, Value)> = result
        .get("metrics")
        .map(Value::as_obj)
        .unwrap_or(&[])
        .iter()
        .map(|(k, v)| (k.clone(), v.get("value").cloned().unwrap_or(Value::Null)))
        .collect();
    Ok(Value::obj(vec![
        ("workload", Value::str(workload)),
        ("set", Value::Num(set as f64)),
        ("seed", Value::Num(seed as f64)),
        (
            "correct",
            result.get("correct").cloned().unwrap_or(Value::Null),
        ),
        (
            "attempted",
            result.get("attempted").cloned().unwrap_or(Value::Null),
        ),
        (
            "failed",
            result.get("failed").cloned().unwrap_or(Value::Null),
        ),
        ("input_digest", Value::str(noted("input_digest "))),
        ("sim_digest", Value::str(noted("sim_digest "))),
        ("metrics", Value::Obj(metrics)),
    ]))
}

/// Values of `metric` on `workload` in `rows`, optionally of one set only.
fn values_of(rows: &[Value], workload: &str, metric: &str, set: Option<usize>) -> Vec<f64> {
    rows.iter()
        .filter(|r| r.get("workload").and_then(Value::as_str) == Some(workload))
        .filter(|r| set.is_none_or(|s| r.get("set").and_then(Value::as_f64) == Some(s as f64)))
        .filter_map(|r| r.get("metrics")?.get(metric)?.as_f64())
        .collect()
}

pub fn aa(cfg: &AaConfig) -> Result<(), String> {
    if cfg.sets < 2 || cfg.runs < 2 {
        return Err("aa needs at least two sets of two runs".into());
    }
    let mut rows: Vec<Value> = Vec::new();
    let mut broken: Vec<String> = Vec::new();
    // Interleaved: run r of every set, on every workload, before run r+1.
    for r in 0..cfg.runs {
        for set in 0..cfg.sets {
            for w in &spec::WORKLOADS {
                let seed = cfg.seed + r as u64;
                let row = bench_child(w.name, set, seed, cfg.seconds)?;
                eprintln!(
                    "aa: run {r} set {set} {} seed {seed}: op_ms_p50 {:?} setup_s {:?}",
                    w.name,
                    row.get("metrics")
                        .and_then(|m| m.get("op_ms_p50")?.as_f64()),
                    row.get("metrics").and_then(|m| m.get("setup_s")?.as_f64()),
                );
                if row.get("correct").and_then(Value::as_bool) != Some(true)
                    || row.get("failed").and_then(Value::as_f64) != Some(0.0)
                {
                    broken.push(format!("{} seed {seed} set {set}: not correct", w.name));
                }
                rows.push(row);
            }
        }
    }
    // Simulated statistics are exact: one seed, one digest, whatever the set.
    let mut digests: BTreeMap<(String, u64), String> = BTreeMap::new();
    for row in &rows {
        let key = (
            row.get("workload")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string(),
            row.get("seed").and_then(Value::as_f64).unwrap_or(0.0) as u64,
        );
        let d = format!(
            "{}/{}",
            row.get("input_digest")
                .and_then(Value::as_str)
                .unwrap_or(""),
            row.get("sim_digest").and_then(Value::as_str).unwrap_or("")
        );
        if *digests.entry(key.clone()).or_insert_with(|| d.clone()) != d {
            broken.push(format!(
                "{} seed {}: digests differ between runs",
                key.0, key.1
            ));
        }
    }

    println!(
        "{:<20} {:<12} {:>5}  per set: p50 [p25 p75] spread | worst set-to-set difference",
        "workload", "metric", "bound"
    );
    let mut summary: Vec<Value> = Vec::new();
    for w in &spec::WORKLOADS {
        for m in &spec::END_TO_END {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let sets: Vec<Summary> = (0..cfg.sets)
                .map(|s| Summary::of(&values_of(&rows, w.name, m.name, Some(s))))
                .collect();
            let worst = sets
                .iter()
                .flat_map(|a| sets.iter().map(move |b| worse_by(m, a.p50, b.p50)))
                .fold(0.0, f64::max);
            let within = worst <= bound / 2.0;
            if !within {
                broken.push(format!(
                    "{}/{}: set medians differ by {:.2} % (limit {:.2} %)",
                    w.name,
                    m.name,
                    100.0 * worst,
                    50.0 * bound
                ));
            }
            let per_set: Vec<String> = sets
                .iter()
                .map(|s| {
                    format!(
                        "{:.4} [{:.4} {:.4}] {:.1}%",
                        s.p50,
                        s.p25,
                        s.p75,
                        100.0 * s.spread()
                    )
                })
                .collect();
            println!(
                "{:<20} {:<12} {:>4.0}%  {} | {:.2}% {}",
                w.name,
                m.name,
                100.0 * bound,
                per_set.join("  "),
                100.0 * worst,
                if within {
                    "ok"
                } else {
                    "EXCEEDS HALF THE BOUND"
                }
            );
            summary.push(Value::obj(vec![
                ("workload", Value::str(w.name)),
                ("metric", Value::str(m.name)),
                ("bound", Value::Num(bound)),
                (
                    "sets",
                    Value::Arr(
                        sets.iter()
                            .map(|s| {
                                Value::obj(vec![
                                    ("p25", Value::Num(s.p25)),
                                    ("p50", Value::Num(s.p50)),
                                    ("p75", Value::Num(s.p75)),
                                    ("spread", Value::Num(s.spread())),
                                ])
                            })
                            .collect(),
                    ),
                ),
                ("worst_set_difference", Value::Num(worst)),
                ("within_half_bound", Value::Bool(within)),
            ]));
        }
    }

    let receipt = Value::obj(vec![
        ("schema", Value::str(RECEIPT_SCHEMA)),
        ("kind", Value::str("aa")),
        ("commit", Value::str(commit())),
        ("nproc", Value::Num(host::nproc() as f64)),
        (
            "args",
            Value::obj(vec![
                ("sets", Value::Num(cfg.sets as f64)),
                ("runs", Value::Num(cfg.runs as f64)),
                ("seconds", Value::Num(cfg.seconds as f64)),
                ("trace", Value::Num(0.0)),
            ]),
        ),
        (
            "seeds",
            Value::Arr(
                (0..cfg.runs)
                    .map(|r| Value::Num((cfg.seed + r as u64) as f64))
                    .collect(),
            ),
        ),
        ("rows", Value::Arr(rows)),
        ("summary", Value::Arr(summary)),
    ]);
    if let Some(dir) = cfg.out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    lg_telemetry::atomic_write(&cfg.out, &receipt.to_pretty())
        .map_err(|e| format!("writing {}: {e}", cfg.out.display()))?;
    println!("receipt written to {}", cfg.out.display());
    if broken.is_empty() {
        Ok(())
    } else {
        Err(format!("A/A failed:\n  {}", broken.join("\n  ")))
    }
}

fn read_receipt(path: &Path) -> Result<Vec<Value>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if doc.get("schema").and_then(Value::as_str) != Some(RECEIPT_SCHEMA) {
        return Err(format!(
            "{} is not a {RECEIPT_SCHEMA} receipt",
            path.display()
        ));
    }
    Ok(doc.get("rows").map(Value::as_arr).unwrap_or(&[]).to_vec())
}

/// How one (workload, metric) pair of receipt B stands against receipt A.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Unchanged,
    Improved,
    Regressed,
    /// A run-to-run spread wider than the bound: the receipts cannot tell.
    Unresolved,
}

pub fn verdict(m: &MetricDecl, a: &Summary, b: &Summary) -> Verdict {
    let bound = m.bound.expect("end-to-end metrics carry a bound");
    if a.spread() > bound || b.spread() > bound {
        return Verdict::Unresolved;
    }
    let worse = worse_by(m, a.p50, b.p50);
    if worse > bound {
        Verdict::Regressed
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

pub fn diff(a: &Path, b: &Path) -> Result<(), String> {
    let (rows_a, rows_b) = (read_receipt(a)?, read_receipt(b)?);
    println!(
        "{:<20} {:<12} {:>5} {:>12} {:>7} {:>12} {:>7} {:>8}  verdict",
        "workload", "metric", "bound", "A p50", "spread", "B p50", "spread", "B worse"
    );
    let mut regressed = Vec::new();
    for w in &spec::WORKLOADS {
        for m in &spec::END_TO_END {
            let sa = Summary::of(&values_of(&rows_a, w.name, m.name, None));
            let sb = Summary::of(&values_of(&rows_b, w.name, m.name, None));
            if sa.n == 0 || sb.n == 0 {
                return Err(format!("{}/{} is missing from a receipt", w.name, m.name));
            }
            let v = verdict(m, &sa, &sb);
            println!(
                "{:<20} {:<12} {:>4.0}% {:>12.4} {:>6.1}% {:>12.4} {:>6.1}% {:>7.2}%  {v:?}",
                w.name,
                m.name,
                100.0 * m.bound.unwrap_or(0.0),
                sa.p50,
                100.0 * sa.spread(),
                sb.p50,
                100.0 * sb.spread(),
                100.0 * worse_by(m, sa.p50, sb.p50),
            );
            if v == Verdict::Regressed {
                regressed.push(format!("{}/{}", w.name, m.name));
            }
        }
    }
    if regressed.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "regressed beyond the bound: {}",
            regressed.join(", ")
        ))
    }
}

pub fn check(benchmark_json: &Path) -> Result<(), String> {
    let bad = spec::grammar_violations();
    if !bad.is_empty() {
        return Err(format!(
            "declaration breaks the contract:\n  {}",
            bad.join("\n  ")
        ));
    }
    let on_disk = std::fs::read_to_string(benchmark_json)
        .map_err(|e| format!("reading {}: {e}", benchmark_json.display()))?;
    if on_disk != spec::benchmark_json() {
        return Err(format!(
            "{} differs from what `lg-ledger benchmark-json` prints; regenerate it",
            benchmark_json.display()
        ));
    }
    // What a run emits, on every workload, traced and untraced. `run`
    // itself refuses an undeclared name and fills in every declared one;
    // a few ops on a small topology are enough to reach every emitter.
    for w in &spec::WORKLOADS {
        for trace in [false, true] {
            let cfg = RunConfig::reduced(w.name, spec::DEFAULT_SEED, trace);
            let result =
                run::run(&cfg).map_err(|e| format!("{} trace={}: {e}", w.name, trace as u8))?;
            let declared: &[MetricDecl] = if trace {
                &spec::PER_LAYER
            } else {
                &spec::END_TO_END
            };
            let emitted: Vec<&str> = result.metrics.iter().map(|m| m.name).collect();
            let wanted: Vec<&str> = declared.iter().map(|m| m.name).collect();
            if emitted != wanted {
                return Err(format!(
                    "{} trace={}: emitted names differ from the declaration",
                    w.name, trace as u8
                ));
            }
            if !result.correct || result.failed != 0 {
                return Err(format!(
                    "{} trace={}: run was not correct",
                    w.name, trace as u8
                ));
            }
        }
    }
    println!(
        "check: {} matches the declaration; {} workloads emit {} end-to-end and {} per-layer metrics",
        benchmark_json.display(),
        spec::WORKLOADS.len(),
        spec::END_TO_END.len(),
        spec::PER_LAYER.len()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(p50: f64, spread: f64) -> Summary {
        Summary {
            n: 10,
            p25: p50 * (1.0 - spread / 2.0),
            p50,
            p75: p50 * (1.0 + spread / 2.0),
            ..Summary::default()
        }
    }

    #[test]
    fn a_pair_wider_than_its_bound_is_unresolved_not_unchanged() {
        let lower = spec::end_to_end("op_ms_p50").unwrap();
        let higher = spec::end_to_end("ops_per_s").unwrap();
        let bound = lower.bound.unwrap();
        assert_eq!(higher.bound, Some(bound));
        let (tight, wide) = (bound / 5.0, bound * 1.2);
        let a = summary(10.0, tight);
        let within = summary(10.0 * (1.0 + bound / 2.0), tight);
        let slower = summary(10.0 * (1.0 + bound * 1.5), tight);
        let faster = summary(10.0 * (1.0 - bound * 1.5), tight);
        assert_eq!(verdict(lower, &a, &within), Verdict::Unchanged);
        assert_eq!(verdict(lower, &a, &slower), Verdict::Regressed);
        assert_eq!(verdict(lower, &a, &faster), Verdict::Improved);
        // More is better: the same numbers read the other way round.
        assert_eq!(verdict(higher, &a, &faster), Verdict::Regressed);
        assert_eq!(verdict(higher, &a, &slower), Verdict::Improved);
        // Same medians, but one side's quartiles are wider apart than the
        // bound: the receipts cannot tell, whatever the medians say.
        assert_eq!(
            verdict(lower, &summary(10.0, wide), &a),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(lower, &a, &summary(slower.p50, wide)),
            Verdict::Unresolved
        );
    }

    #[test]
    fn worse_by_follows_the_metric_direction() {
        let lower = spec::end_to_end("setup_s").unwrap();
        let higher = spec::end_to_end("ops_per_s").unwrap();
        assert!((worse_by(lower, 2.0, 2.2) - 0.1).abs() < 1e-12);
        assert!((worse_by(higher, 200.0, 180.0) - 0.1).abs() < 1e-12);
        assert!(worse_by(lower, 2.0, 1.8) < 0.0);
    }
}
