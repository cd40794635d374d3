//! Frozen registry state: JSON run reports, tables, and diffing.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::OnceLock;

use crate::metrics::HistogramSnapshot;
use crate::registry::global;

/// One frozen metric value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MetricValue {
    /// Monotone counter value.
    Counter(u64),
    /// Last-written gauge value.
    Gauge(u64),
    /// Frozen distribution.
    Histogram(HistogramSnapshot),
    /// Run-provenance fact (git commit, seeds in effect).
    Fact(String),
}

/// A point-in-time freeze of a [`crate::Registry`]: sorted
/// `(name, value)` pairs that serialize to JSON, render as a table, and
/// diff against an earlier snapshot of the same registry.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    /// Metrics sorted by name.
    pub metrics: Vec<(String, MetricValue)>,
}

impl TelemetrySnapshot {
    /// Look up a metric by exact name.
    pub fn value(&self, name: &str) -> Option<&MetricValue> {
        self.metrics
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| &self.metrics[i].1)
    }

    /// Counter value by name (`None` if absent or not a counter).
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.value(name)? {
            MetricValue::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// Gauge value by name (`None` if absent or not a gauge).
    pub fn gauge(&self, name: &str) -> Option<u64> {
        match self.value(name)? {
            MetricValue::Gauge(v) => Some(*v),
            _ => None,
        }
    }

    /// Histogram by name (`None` if absent or not a histogram).
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.value(name)? {
            MetricValue::Histogram(h) => Some(h),
            _ => None,
        }
    }

    /// Fact value by name (`None` if absent or not a fact).
    pub fn fact(&self, name: &str) -> Option<&str> {
        match self.value(name)? {
            MetricValue::Fact(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Difference `self - earlier`, metric by metric. Counters and
    /// histogram counts subtract saturating (a metric reset between
    /// snapshots yields 0, never a panic); gauges keep their latest
    /// value. Metrics absent from `earlier` pass through unchanged;
    /// metrics absent from `self` are dropped.
    pub fn since(&self, earlier: &TelemetrySnapshot) -> TelemetrySnapshot {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, v)| {
                let diffed = match (v, earlier.value(name)) {
                    (MetricValue::Counter(now), Some(MetricValue::Counter(then))) => {
                        MetricValue::Counter(now.saturating_sub(*then))
                    }
                    (MetricValue::Histogram(now), Some(MetricValue::Histogram(then))) => {
                        MetricValue::Histogram(now.since(then))
                    }
                    // Gauges are instantaneous; kind changes fall back to latest.
                    (v, _) => v.clone(),
                };
                (name.clone(), diffed)
            })
            .collect();
        TelemetrySnapshot { metrics }
    }

    /// Serialize as a JSON object: counters and gauges as numbers,
    /// histograms as `{count, sum, mean, p50, p99, max, buckets}` with
    /// `buckets` a list of `[inclusive_upper_bound, count]` pairs.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"telemetry\": {");
        for (i, (name, v)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            json_string(&mut out, name);
            out.push_str(": ");
            match v {
                MetricValue::Counter(n) | MetricValue::Gauge(n) => {
                    let _ = write!(out, "{n}");
                }
                MetricValue::Histogram(h) => {
                    let max = h.buckets.last().map_or(0, |&(upper, _)| upper);
                    let _ = write!(
                        out,
                        "{{\"count\": {}, \"sum\": {}, \"mean\": {}, \"p50\": {}, \"p99\": {}, \"max_bucket\": {}, \"buckets\": [",
                        h.count,
                        h.sum,
                        h.mean(),
                        h.quantile_upper(0.50),
                        h.quantile_upper(0.99),
                        max,
                    );
                    for (j, (upper, n)) in h.buckets.iter().enumerate() {
                        if j > 0 {
                            out.push_str(", ");
                        }
                        let _ = write!(out, "[{upper}, {n}]");
                    }
                    out.push_str("]}");
                }
                MetricValue::Fact(s) => {
                    json_string(&mut out, s);
                }
            }
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// Render as an aligned human-readable table, one metric per line.
    pub fn render_table(&self) -> String {
        let width = self.metrics.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        let mut out = String::new();
        for (name, v) in &self.metrics {
            let _ = write!(out, "{name:width$}  ");
            match v {
                MetricValue::Counter(n) => {
                    let _ = writeln!(out, "{n}");
                }
                MetricValue::Gauge(n) => {
                    let _ = writeln!(out, "{n} (gauge)");
                }
                MetricValue::Histogram(h) => {
                    let _ = writeln!(
                        out,
                        "count {} mean {} p50 <={} p99 <={}",
                        h.count,
                        h.mean(),
                        h.quantile_upper(0.50),
                        h.quantile_upper(0.99),
                    );
                }
                MetricValue::Fact(s) => {
                    let _ = writeln!(out, "{s} (fact)");
                }
            }
        }
        out
    }
}

fn json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Record host and run-provenance facts into the global registry:
/// `host.available_parallelism` (gauge), plus facts for the git commit
/// (best effort — absent outside a checkout) and the seed environment
/// variables in effect (`LG_CHURN_SEED`, `LG_FUZZ_SEEDS`,
/// `LG_FILTER_MATRIX`), so every report and trace is replayable from its
/// own header. Concurrency numbers are meaningless without the core
/// count — a 1-core container runs every multi-thread bench serially, so
/// contention and scaling claims cannot be checked there; stamping it
/// makes that machine-checkable by consumers of the JSON.
///
/// Called by [`crate::Artifacts::begin`], so every artifact a binary
/// writes carries them.
pub fn record_host_facts() {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    global().gauge("host.available_parallelism").set(cores);
    // Always stamp at least one fact so the `lg_run_info` provenance
    // metric exists even outside a git checkout with no seeds set.
    global().set_fact("run.telemetry_version", env!("CARGO_PKG_VERSION"));
    if let Some(commit) = git_commit() {
        global().set_fact("run.git_commit", commit);
    }
    for (env, fact) in [
        ("LG_CHURN_SEED", "run.churn_seed"),
        ("LG_FUZZ_SEEDS", "run.fuzz_seeds"),
        ("LG_FILTER_MATRIX", "run.filter_matrix"),
    ] {
        if let Ok(v) = std::env::var(env) {
            global().set_fact(fact, &v);
        }
    }
}

/// The current git commit, resolved once per process (best effort:
/// `None` when `git` or the repository is unavailable).
fn git_commit() -> Option<&'static str> {
    static COMMIT: OnceLock<Option<String>> = OnceLock::new();
    COMMIT
        .get_or_init(|| {
            let out = std::process::Command::new("git")
                .args(["rev-parse", "HEAD"])
                .output()
                .ok()
                .filter(|o| o.status.success())?;
            let commit = String::from_utf8_lossy(&out.stdout).trim().to_string();
            (!commit.is_empty()).then_some(commit)
        })
        .as_deref()
}

/// Write `contents` to `path` atomically: write a sibling temp file, then
/// rename over the target. A killed run can leave a stray temp file but
/// never a truncated artifact at `path`. Used by every telemetry, trace,
/// and time-series emitter.
pub fn atomic_write(path: &Path, contents: &str) -> std::io::Result<()> {
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    let base = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("telemetry-out");
    let tmp = dir.join(format!(".{base}.tmp.{}", std::process::id()));
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}
