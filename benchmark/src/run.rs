//! One run: one workload, one seed, one process.
//!
//! A closed loop with one client — each op starts when the previous one
//! returns — on one thread. The measurement budget (`--seconds`) covers
//! the timed set-up repeats, which are what `setup_s` is, and then the op
//! loop. End-to-end metrics come from untraced runs only; a traced run
//! spends the same budget recording spans and reports the layers.

use crate::host;
use crate::json::Value;
use crate::spans::{self, NameStats, Tracer, NO_OP};
use crate::spec::{self, MetricDecl};
use crate::stats::{self, Summary};
use crate::workloads::{self, Digest, Metrics, OpReport, Ops, Scale};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Timed from-scratch set-ups per run, after one untimed one that faults
/// the heap in. The last of them is the state the ops run on.
pub const SETUP_REPEATS: usize = 5;
/// Ops whose simulated statistics make up `sim_digest`.
pub const DIGEST_OPS: u64 = 32;
/// Ops a run executes whatever its time budget, so even a two-second
/// smoke run exercises every op shape (overlap, both oracle phases).
const MIN_OPS: u64 = 8;
/// In a traced run spans are recorded in alternating blocks of this many
/// ops; the blocks without spans are the overhead baseline. Coprime with
/// every schedule length, so both kinds of block see every kind of op.
const TRACE_BLOCK: u64 = 7;
/// Share of a traced run's op loop that runs before the workspace's own
/// flight recorder is switched on (it cannot be switched off again).
const RECORDER_OFF_SHARE: f64 = 0.7;
/// Ops of a traced run written to the Chrome trace file.
const TRACE_FILE_OPS: u64 = 64;

pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Stop after this many ops instead of when the budget runs out.
    pub max_ops: Option<u64>,
    /// Timed set-ups after the untimed one; at least 1.
    pub setup_repeats: usize,
    /// Where a traced run writes `<workload>.trace.json`; `None` skips it.
    pub out_dir: Option<PathBuf>,
}

impl RunConfig {
    pub fn new(workload: &str, seed: u64, seconds: f64, trace: bool) -> RunConfig {
        RunConfig {
            workload: workload.to_string(),
            seed,
            seconds,
            trace,
            scale: Scale::Full,
            max_ops: None,
            setup_repeats: SETUP_REPEATS,
            out_dir: Some(PathBuf::from("benchmark/out")),
        }
    }

    /// A small, fast configuration — a few hundred ASes, a dozen ops, one
    /// timed set-up, no trace file — that reaches every code path and
    /// none of the numbers: for `check` and the package's tests.
    pub fn reduced(workload: &str, seed: u64, trace: bool) -> RunConfig {
        RunConfig {
            scale: Scale::Reduced,
            max_ops: Some(12),
            setup_repeats: 1,
            out_dir: None,
            ..RunConfig::new(workload, seed, 1.0, trace)
        }
    }
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub input_digest: u64,
    /// Over the first `sim_digest_ops` ops.
    pub sim_digest: u64,
    pub sim_digest_ops: u64,
    /// Human-readable account of the run, one `# `-prefixed line each.
    pub notes: Vec<String>,
}

impl RunResult {
    /// The result line the driver reads: the last line of standard output.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let v = Value::obj(vec![
                    ("value", Value::Num(m.value)),
                    ("unit", Value::str(m.unit)),
                ]);
                (m.name.to_string(), v)
            })
            .collect();
        Value::obj(vec![
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", Value::Obj(metrics)),
        ])
        .to_line()
    }

    #[cfg(test)]
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// What the op loop measured.
struct Loop {
    /// Every op, in order: its report and whether bench spans were on.
    ops: Vec<(OpReport, bool)>,
    /// Ops run before the flight recorder was switched on.
    recorder_off_ops: usize,
    cpu_util: f64,
    layers: Metrics,
    input_digest: u64,
}

pub fn run(cfg: &RunConfig) -> Result<RunResult, String> {
    let started = Instant::now();
    let workload = workloads::build(&cfg.workload, cfg.seed, cfg.scale).ok_or_else(|| {
        format!(
            "unknown workload {:?}; one of {:?}",
            cfg.workload,
            spec::workload_names()
        )
    })?;
    let tracer = Tracer::new(cfg.trace);
    let span_ns = if cfg.trace { span_cost_ns() } else { 0.0 };

    let mut setup_s: Vec<f64> = Vec::new();
    let mut measured: Option<Loop> = None;
    for rep in 0..=cfg.setup_repeats {
        let t0 = Instant::now();
        workload.with_state(&tracer, &mut |ops| {
            if rep > 0 {
                setup_s.push(t0.elapsed().as_secs_f64());
            }
            if rep == cfg.setup_repeats {
                let spent = started.elapsed().as_secs_f64();
                let budget = (cfg.seconds - spent).max(cfg.seconds / 2.0);
                measured = Some(op_loop(ops, &tracer, cfg, Duration::from_secs_f64(budget)));
            }
        });
    }
    let mut lp = measured.expect("the last set-up hands over its state");

    let wall_ms: Vec<f64> = lp.ops.iter().map(|(r, _)| r.wall_ns as f64 / 1e6).collect();
    let all = Summary::of(&wall_ms);
    let attempted = lp.ops.len() as u64;
    let failed = lp.ops.iter().filter(|(r, _)| !r.ok).count() as u64;
    let correct = failed == 0 && lp.ops.iter().all(|(r, _)| r.oracle_ok);
    let sim_digest_ops = attempted.min(DIGEST_OPS);
    let mut sim_digest = Digest::default();
    for (r, _) in lp.ops.iter().take(sim_digest_ops as usize) {
        sim_digest.add(r.sim);
    }
    let setup = Summary::of(&setup_s);
    // Drift is read off the ops nothing was layered onto: no bench spans,
    // no flight recorder (every op of an untraced run).
    let plain_ms: Vec<f64> = lp
        .ops
        .iter()
        .take(lp.recorder_off_ops)
        .filter(|(_, spans_on)| !spans_on)
        .map(|(r, _)| r.wall_ns as f64 / 1e6)
        .collect();
    let drift_pct = drift_pct(&plain_ms);

    let mut notes = vec![
        format!(
            "lg-ledger bench workload={} seed={} seconds={} trace={} nproc={}",
            cfg.workload,
            cfg.seed,
            cfg.seconds,
            cfg.trace as u8,
            host::nproc()
        ),
        format!(
            "setup_s n={} p25={:.4} p50={:.4} p75={:.4}",
            setup.n, setup.p25, setup.p50, setup.p75
        ),
        format!(
            "op_ms n={} p25={:.4} p50={:.4} p75={:.4} tail(p{})={:.4} mean={:.4} drift_pct={:.2} cpu_util={:.3}",
            all.n, all.p25, all.p50, all.p75, all.tail_pct, all.tail, all.mean, drift_pct, lp.cpu_util
        ),
    ];

    let mut values = std::mem::take(&mut lp.layers);
    let declared: &[MetricDecl] = if cfg.trace {
        let spans = tracer.take();
        let names = spans::by_name(&spans);
        span_metrics(&names, &mut values);
        bench_metrics(&lp, &names, &all, drift_pct, span_ns, &mut values);
        if let Some(dir) = &cfg.out_dir {
            let path = dir.join(format!("{}.trace.json", cfg.workload));
            std::fs::create_dir_all(dir)
                .and_then(|_| {
                    lg_telemetry::atomic_write(&path, &spans::chrome_json(&spans, TRACE_FILE_OPS))
                })
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            notes.push(format!(
                "trace {} ({} spans recorded)",
                path.display(),
                spans.len()
            ));
        }
        for (name, s) in &names {
            notes.push(format!(
                "span {name} n={} total_ms={:.3} self_ms={:.3}",
                s.count,
                s.total_ns as f64 / 1e6,
                s.self_ns as f64 / 1e6
            ));
        }
        &spec::PER_LAYER
    } else {
        values.insert("setup_s", setup.p50);
        values.insert("op_ms_p50", all.p50);
        values.insert("ops_per_s", 1e3 / all.mean);
        values.insert("peak_rss_mb", host::peak_rss_mb());
        &spec::END_TO_END
    };

    if let Some(stray) = values
        .keys()
        .find(|k| !declared.iter().any(|m| m.name == **k))
    {
        return Err(format!(
            "metric {stray:?} is emitted but not declared in spec.rs"
        ));
    }
    let metrics: Vec<Metric> = declared
        .iter()
        .map(|m| Metric {
            name: m.name,
            // A layer the workload leaves idle reports 0.
            value: values.get(m.name).copied().unwrap_or(0.0),
            unit: m.unit,
        })
        .collect();
    if let Some(bad) = metrics
        .iter()
        .find(|m| !m.value.is_finite() || (!cfg.trace && m.value <= 0.0))
    {
        return Err(format!("metric {} measured {}", bad.name, bad.value));
    }
    Ok(RunResult {
        correct,
        attempted,
        failed,
        metrics,
        input_digest: lp.input_digest,
        sim_digest: sim_digest.0,
        sim_digest_ops,
        notes,
    })
}

fn op_loop(ops: &mut dyn Ops, tracer: &Tracer, cfg: &RunConfig, budget: Duration) -> Loop {
    let begun = Instant::now();
    let cpu0 = host::cpu_seconds();
    let recorder_at = begun + budget.mul_f64(RECORDER_OFF_SHARE);
    let mut out: Vec<(OpReport, bool)> = Vec::new();
    let mut recorder_off_ops = None;
    let mut i = 0u64;
    loop {
        let done = match cfg.max_ops {
            Some(n) => i >= n,
            None => i >= MIN_OPS && begun.elapsed() >= budget,
        };
        if done {
            break;
        }
        // Traced runs: bench spans in alternating blocks, then — for the
        // last stretch — the flight recorder instead.
        let recorder_due = match cfg.max_ops {
            Some(n) => i >= n.div_ceil(2),
            None => Instant::now() >= recorder_at,
        };
        if cfg.trace && recorder_off_ops.is_none() && recorder_due {
            recorder_off_ops = Some(out.len());
            lg_telemetry::trace::enable(lg_telemetry::trace::DEFAULT_CAPACITY);
        }
        let spans_on =
            cfg.trace && recorder_off_ops.is_none() && (i / TRACE_BLOCK).is_multiple_of(2);
        tracer.set_on(spans_on);
        tracer.set_op(i);
        let report = tracer.span("bench.op", || ops.op(i, tracer));
        out.push((report, spans_on));
        i += 1;
    }
    let wall = begun.elapsed().as_secs_f64();
    let cpu_util = if wall > 0.0 {
        (host::cpu_seconds() - cpu0) / wall
    } else {
        0.0
    };

    let mut layers = Metrics::new();
    if cfg.trace {
        tracer.set_on(true);
        tracer.set_op(NO_OP);
        ops.layers(tracer, &mut layers);
    }
    Loop {
        recorder_off_ops: recorder_off_ops.unwrap_or(out.len()),
        ops: out,
        cpu_util,
        layers,
        input_digest: ops.input_digest(),
    }
}

/// Median op time of the last third of a run against the first third, as
/// an unsigned percentage: how far the run wandered while it measured.
fn drift_pct(wall_ms: &[f64]) -> f64 {
    let third = wall_ms.len() / 3;
    if third == 0 {
        return 0.0;
    }
    let first = stats::median_of(&wall_ms[..third]);
    let last = stats::median_of(&wall_ms[wall_ms.len() - third..]);
    if first > 0.0 {
        100.0 * (last - first).abs() / first
    } else {
        0.0
    }
}

/// Cost of recording one empty span, ns.
fn span_cost_ns() -> f64 {
    const N: u32 = 100_000;
    let t = Tracer::new(true);
    let t0 = Instant::now();
    for _ in 0..N {
        t.span("bench.empty", || std::hint::black_box(()));
    }
    t0.elapsed().as_nanos() as f64 / N as f64
}

/// Per-layer metrics that are the median duration of one span name:
/// `(metric, span, ns per unit)`.
const SPAN_METRICS: [(&str, &str, f64); 21] = [
    ("asmap.generate_ms", "asmap.generate", 1e6),
    (
        "static.fixed_point_us_p50",
        "sim.static.compute_routes",
        1e3,
    ),
    ("cache.miss_fill_us_p50", "sim.compute.fill", 1e3),
    ("cache.hit_ns_p50", "sim.compute.hit", 1.0),
    ("cache.revalidate_us_p50", "sim.compute.revalidate", 1e3),
    ("dataplane.infra_all_s", "core.world_new", 1e9),
    ("dataplane.announce_ms_p50", "sim.dataplane.announce", 1e6),
    ("dataplane.walk_us_p50", "sim.dataplane.walk", 1e3),
    ("probe.ping_us_p50", "probe.ping", 1e3),
    ("probe.traceroute_us_p50", "probe.traceroute", 1e3),
    (
        "probe.reverse_traceroute_us_p50",
        "probe.reverse_traceroute",
        1e3,
    ),
    ("atlas.warm_s", "atlas.warm", 1e9),
    ("locate.isolate_ms_p50", "locate.isolate", 1e6),
    ("core.tick_healthy_us_p50", "core.tick_healthy", 1e3),
    ("core.tick_decision_ms_p50", "core.tick_decision", 1e6),
    ("core.plan_ms_p50", "core.plan", 1e6),
    ("dynamic.announce_us_p50", "sim.dynamic.announce", 1e3),
    ("dynamic.quiesce_ms_p50", "sim.dynamic.quiesce", 1e6),
    ("telemetry.snapshot_ms", "telemetry.snapshot", 1e6),
    ("dynamic.fail_link_ms_p50", "sim.dynamic.fail_link", 1e6),
    (
        "dynamic.restore_link_ms_p50",
        "sim.dynamic.restore_link",
        1e6,
    ),
];

fn span_metrics(names: &BTreeMap<&'static str, NameStats>, out: &mut Metrics) {
    for (metric, span, per_unit) in &SPAN_METRICS {
        if let Some(s) = names.get(span) {
            out.insert(metric, stats::median_of(&s.durs_ns) / per_unit);
        }
    }
}

/// The health of the measurement itself.
fn bench_metrics(
    lp: &Loop,
    names: &BTreeMap<&'static str, NameStats>,
    all: &Summary,
    drift_pct: f64,
    span_ns: f64,
    out: &mut Metrics,
) {
    let ms = |pick: &dyn Fn(usize, bool) -> bool| -> f64 {
        let v: Vec<f64> = lp
            .ops
            .iter()
            .enumerate()
            .filter(|(i, (_, spans_on))| pick(*i, *spans_on))
            .map(|(_, (r, _))| r.wall_ns as f64 / 1e6)
            .collect();
        stats::median_of(&v)
    };
    let plain = ms(&|i, on| i < lp.recorder_off_ops && !on);
    let traced = ms(&|i, on| i < lp.recorder_off_ops && on);
    let recorded = ms(&|i, _| i >= lp.recorder_off_ops);
    let ratio = |a: f64, b: f64| if a > 0.0 && b > 0.0 { a / b } else { 0.0 };
    out.insert("bench.ops", all.n as f64);
    out.insert("bench.op_ms_tail", all.tail);
    out.insert("bench.op_tail_pct", all.tail_pct);
    out.insert("bench.cpu_util", lp.cpu_util);
    out.insert("bench.drift_pct", drift_pct);
    out.insert("bench.trace_overhead_ratio", ratio(traced, plain));
    out.insert("bench.span_ns", span_ns);
    out.insert("telemetry.recorder_overhead_ratio", ratio(recorded, plain));
    if let Some(op) = names.get("bench.op") {
        out.insert(
            "bench.span_coverage",
            1.0 - op.self_ns as f64 / op.total_ns.max(1) as f64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reduced(workload: &str, seed: u64, trace: bool) -> RunConfig {
        RunConfig::reduced(workload, seed, trace)
    }

    #[test]
    fn digests_repeat_in_process_and_follow_the_seed() {
        for w in spec::workload_names() {
            let a = run(&reduced(w, spec::DEFAULT_SEED, false)).unwrap();
            let b = run(&reduced(w, spec::DEFAULT_SEED, false)).unwrap();
            let held_out = run(&reduced(w, spec::HOLDOUT_SEED, false)).unwrap();
            assert!(a.correct && b.correct && held_out.correct, "{w}");
            assert_eq!(a.sim_digest_ops, 12, "{w}");
            assert_eq!(
                a.input_digest, b.input_digest,
                "{w}: inputs differ between runs"
            );
            assert_eq!(
                a.sim_digest, b.sim_digest,
                "{w}: simulated statistics differ between runs"
            );
            assert_ne!(
                a.input_digest, held_out.input_digest,
                "{w}: seed does not reach the inputs"
            );
            // Every op of `table_reset_storm` is the same flap: the seed
            // draws the table's prefixes, which the simulated statistics
            // (update counts, quiescence ticks) do not depend on.
            if w != "table_reset_storm" {
                assert_ne!(
                    a.sim_digest, held_out.sim_digest,
                    "{w}: seed does not reach the schedule"
                );
            }
        }
    }

    #[test]
    fn two_second_smoke_run_of_every_workload_is_correct() {
        for w in spec::workload_names() {
            let cfg = RunConfig {
                max_ops: None,
                ..reduced(w, spec::DEFAULT_SEED, false)
            };
            let cfg = RunConfig {
                seconds: 2.0,
                ..cfg
            };
            let r = run(&cfg).unwrap();
            assert!(r.correct, "{w}");
            assert_eq!(r.failed, 0, "{w}");
            assert!(r.attempted >= MIN_OPS, "{w}");
            let names: Vec<&str> = r.metrics.iter().map(|m| m.name).collect();
            assert_eq!(names, ["setup_s", "op_ms_p50", "ops_per_s", "peak_rss_mb"]);
            assert!(r.metrics.iter().all(|m| m.value > 0.0), "{w}");
            let line = crate::json::parse(&r.result_line()).unwrap();
            let keys: Vec<&str> = line.as_obj().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        }
    }

    #[test]
    fn traced_run_reports_every_declared_layer_metric() {
        for w in spec::workload_names() {
            let r = run(&reduced(w, spec::DEFAULT_SEED, true)).unwrap();
            assert!(r.correct, "{w}");
            assert_eq!(r.metrics.len(), spec::PER_LAYER.len());
            assert_eq!(r.metric("bench.ops"), Some(12.0));
            assert!(r.metric("bench.span_coverage").unwrap() > 0.5, "{w}");
            assert!(r.metric("asmap.ases").unwrap() > 0.0, "{w}");
            assert!(r.metric("static.fixed_point_us_p50").unwrap() > 0.0, "{w}");
        }
        // The layers a workload leaves idle report 0; the ones it drives do not.
        let storm = run(&reduced("table_reset_storm", spec::DEFAULT_SEED, true)).unwrap();
        assert!(storm.metric("packing.updates_packed_per_op").unwrap() > 0.0);
        assert!(storm.metric("dynamic.fail_link_ms_p50").unwrap() > 0.0);
        assert_eq!(storm.metric("core.tick_healthy_us_p50"), Some(0.0));
        let repair = run(&reduced("repair_loop", spec::DEFAULT_SEED, true)).unwrap();
        assert!(repair.metric("core.tick_decision_ms_p50").unwrap() > 0.0);
        assert!(repair.metric("locate.isolate_ms_p50").unwrap() > 0.0);
        assert_eq!(repair.metric("dynamic.updates_per_op"), Some(0.0));
    }

    #[test]
    fn unknown_workload_is_an_error() {
        assert!(run(&reduced("no_such_workload", 1, false)).is_err());
    }

    #[test]
    fn drift_compares_the_last_third_with_the_first() {
        let mut v = vec![10.0; 30];
        assert_eq!(drift_pct(&v), 0.0);
        v[20..].fill(11.0);
        assert!((drift_pct(&v) - 10.0).abs() < 1e-9);
        v[20..].fill(9.0);
        assert!((drift_pct(&v) - 10.0).abs() < 1e-9);
        assert_eq!(drift_pct(&[1.0, 2.0]), 0.0);
    }
}
