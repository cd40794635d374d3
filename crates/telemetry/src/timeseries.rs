//! Periodic time-series sampling of a [`Registry`] and Prometheus text
//! exposition — the /metrics surface for the Lifeguard-as-a-service
//! daemon, exercised today by the `--timeseries` flag of `lifeguard-sim` and
//! `paper`.
//!
//! A [`TimeSeries`] keeps, per metric, a fixed-capacity ring of
//! `(at_ms, value, delta)` samples produced by diffing successive
//! [`TelemetrySnapshot`]s: counters and histogram counts report their
//! cumulative value plus the delta since the previous sample, gauges
//! report their instantaneous value. [`TimeSeries::render_prometheus`]
//! renders the latest cumulative state in Prometheus text exposition
//! format (`lg_`-prefixed, counters as `_total`, histograms as
//! cumulative `_bucket{le=...}`/`_sum`/`_count`, facts folded into one
//! `lg_run_info` label set).

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::{Mutex, OnceLock};

use crate::registry::{global, Registry};
use crate::snapshot::{MetricValue, TelemetrySnapshot};

/// Default per-metric sample-ring capacity for [`global_timeseries`].
pub const DEFAULT_SAMPLES: usize = 1024;

/// One sampled point of one metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sample {
    /// Caller-supplied timestamp (sim-time millis in the simulator,
    /// wall millis in a daemon).
    pub at_ms: u64,
    /// Cumulative value at the sample (counter total, gauge reading,
    /// histogram count).
    pub value: u64,
    /// Increase since the previous sample (saturating; gauges report
    /// their absolute change).
    pub delta: u64,
}

/// Fixed-capacity ring of [`Sample`]s for one metric, oldest dropped
/// first.
#[derive(Clone, Debug, Default)]
pub struct SeriesRing {
    capacity: usize,
    samples: VecDeque<Sample>,
}

impl SeriesRing {
    fn new(capacity: usize) -> SeriesRing {
        SeriesRing {
            capacity: capacity.max(1),
            samples: VecDeque::new(),
        }
    }

    fn push(&mut self, s: Sample) {
        if self.samples.len() == self.capacity {
            self.samples.pop_front();
        }
        self.samples.push_back(s);
    }

    /// Samples oldest-first.
    pub fn samples(&self) -> impl Iterator<Item = &Sample> {
        self.samples.iter()
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples have been retained.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Most recent sample.
    pub fn latest(&self) -> Option<&Sample> {
        self.samples.back()
    }
}

/// Snapshot-diffing sampler: call [`TimeSeries::sample`] periodically and
/// it accumulates per-metric rings plus the latest cumulative snapshot
/// for exposition.
#[derive(Default)]
pub struct TimeSeries {
    capacity: usize,
    last: Option<TelemetrySnapshot>,
    series: BTreeMap<String, SeriesRing>,
}

impl TimeSeries {
    /// Sampler retaining up to `capacity` samples per metric.
    pub fn new(capacity: usize) -> TimeSeries {
        TimeSeries {
            capacity: capacity.max(1),
            last: None,
            series: BTreeMap::new(),
        }
    }

    /// Ingest one snapshot taken at `at_ms`, appending a [`Sample`] per
    /// numeric metric (facts carry no time series).
    pub fn sample(&mut self, snap: TelemetrySnapshot, at_ms: u64) {
        for (name, v) in &snap.metrics {
            let value = match v {
                MetricValue::Counter(n) | MetricValue::Gauge(n) => *n,
                MetricValue::Histogram(h) => h.count,
                MetricValue::Fact(_) => continue,
            };
            let prev = self.last.as_ref().and_then(|l| match l.value(name) {
                Some(MetricValue::Counter(n) | MetricValue::Gauge(n)) => Some(*n),
                Some(MetricValue::Histogram(h)) => Some(h.count),
                _ => None,
            });
            let delta = match prev {
                // Gauges move both ways; report the magnitude of the move.
                Some(p) if matches!(v, MetricValue::Gauge(_)) => value.abs_diff(p),
                Some(p) => value.saturating_sub(p),
                None => value,
            };
            self.series
                .entry(name.clone())
                .or_insert_with(|| SeriesRing::new(self.capacity))
                .push(Sample {
                    at_ms,
                    value,
                    delta,
                });
        }
        self.last = Some(snap);
    }

    /// Convenience: sample `registry` now.
    pub fn sample_registry(&mut self, registry: &Registry, at_ms: u64) {
        self.sample(registry.snapshot(), at_ms);
    }

    /// The ring for `name`, if it has ever been sampled.
    pub fn series(&self, name: &str) -> Option<&SeriesRing> {
        self.series.get(name)
    }

    /// Number of metrics with at least one sample.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// Whether nothing has been sampled yet.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// Latest cumulative snapshot ingested, if any.
    pub fn latest_snapshot(&self) -> Option<&TelemetrySnapshot> {
        self.last.as_ref()
    }

    /// Timestamp of the most recent sample across all metrics, if any.
    pub fn latest_at_ms(&self) -> Option<u64> {
        self.series
            .values()
            .filter_map(|r| r.latest().map(|s| s.at_ms))
            .max()
    }

    /// Render the latest cumulative snapshot in Prometheus text
    /// exposition format. Metric names are `lg_`-prefixed with dots
    /// mapped to underscores; counters gain `_total`; histograms render
    /// cumulative `_bucket{le="..."}` plus `_sum`/`_count`; facts fold
    /// into a single `lg_run_info{...} 1` info metric.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let Some(snap) = &self.last else {
            return out;
        };
        let mut facts: Vec<(&str, &str)> = Vec::new();
        for (name, v) in &snap.metrics {
            let prom = prom_name(name);
            match v {
                MetricValue::Counter(n) => {
                    let _ = writeln!(out, "# TYPE lg_{prom}_total counter");
                    let _ = writeln!(out, "lg_{prom}_total {n}");
                }
                MetricValue::Gauge(n) => {
                    let _ = writeln!(out, "# TYPE lg_{prom} gauge");
                    let _ = writeln!(out, "lg_{prom} {n}");
                }
                MetricValue::Histogram(h) => {
                    let _ = writeln!(out, "# TYPE lg_{prom} histogram");
                    let mut cumulative = 0u64;
                    for &(upper, count) in &h.buckets {
                        cumulative += count;
                        if upper == u64::MAX {
                            let _ = writeln!(out, "lg_{prom}_bucket{{le=\"+Inf\"}} {cumulative}");
                        } else {
                            let _ =
                                writeln!(out, "lg_{prom}_bucket{{le=\"{upper}\"}} {cumulative}");
                        }
                    }
                    if h.buckets.last().map(|&(u, _)| u) != Some(u64::MAX) {
                        let _ = writeln!(out, "lg_{prom}_bucket{{le=\"+Inf\"}} {cumulative}");
                    }
                    let _ = writeln!(out, "lg_{prom}_sum {}", h.sum);
                    let _ = writeln!(out, "lg_{prom}_count {}", h.count);
                }
                MetricValue::Fact(s) => facts.push((name, s)),
            }
        }
        if !facts.is_empty() {
            let _ = writeln!(out, "# TYPE lg_run_info gauge");
            out.push_str("lg_run_info{");
            for (i, (name, value)) in facts.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{}=\"{}\"", prom_name(name), escape_label(value));
            }
            out.push_str("} 1\n");
        }
        out
    }

    /// Serialize the retained rings as JSON:
    /// `{"timeseries": {name: [[at_ms, value, delta], ...]}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"timeseries\": {");
        for (i, (name, ring)) in self.series.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    \"{}\": [", name.replace('"', ""));
            for (j, s) in ring.samples().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "[{}, {}, {}]", s.at_ms, s.value, s.delta);
            }
            out.push(']');
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

/// Map a dotted metric name to a Prometheus-legal name fragment.
fn prom_name(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

fn escape_label(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// The process-wide sampler fed by [`sample_global_timeseries`] and
/// drained by [`crate::Artifacts::finish`].
pub fn global_timeseries() -> &'static Mutex<TimeSeries> {
    static GLOBAL: OnceLock<Mutex<TimeSeries>> = OnceLock::new();
    GLOBAL.get_or_init(|| Mutex::new(TimeSeries::new(DEFAULT_SAMPLES)))
}

/// Sample the global registry into the global time series at `at_ms`.
pub fn sample_global_timeseries(at_ms: u64) {
    global_timeseries()
        .lock()
        .unwrap()
        .sample(global().snapshot(), at_ms);
}
