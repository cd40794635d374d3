//! The benchmark's declaration: workloads, metrics, bounds. This table is
//! the one source of `BENCHMARK.json` (`lg-ledger benchmark-json` prints
//! it, `lg-ledger check` compares the file against it) and of the names a
//! run emits: every name declared here, in this order (a layer a workload
//! leaves idle reports 0), and a run that measures a name missing here
//! fails.

use crate::json::Value;

/// How long one run measures, in seconds. Set-up repeats are part of the
/// measurement (they are what `setup_s` is), so they come out of this
/// budget and the op loop gets the rest.
pub const RUN_SECONDS: u32 = 30;

/// The default seed.
pub const DEFAULT_SEED: u64 = 20120813;
/// The seed held out: never tune the benchmark or a change against it.
#[cfg(test)]
pub const HOLDOUT_SEED: u64 = 7;

pub struct WorkloadDecl {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDecl; 4] = [
    WorkloadDecl {
        name: "repair_loop",
        why: "Outage lifecycles through Lifeguard::tick on calibrated-2000: detect, isolate, plan, poison, heal, unpoison. The paper's headline loop; probe, atlas, locate, core and sim.dataplane do the work.",
    },
    WorkloadDecl {
        name: "whatif_sweep",
        why: "Planner-shaped what-if rounds on calibrated-10k against one SharedRouteCache: cold fills, hits, a scoped link-down invalidation and a link-up flush. Only sim.static_routes and sim.compute run.",
    },
    WorkloadDecl {
        name: "poison_convergence",
        why: "Poison then unpoison one prefix on calibrated-10k in the dynamic engine (Fig 6, sec 5.2): its latency use, small MRAI-paced bursts; packer and static engine idle.",
    },
    WorkloadDecl {
        name: "table_reset_storm",
        why: "Flap the origin's session so 24 prefixes re-converge at once on calibrated-2000: the dynamic engine's throughput use, where MRAI deferral, the timer wheel and UPDATE packing peak.",
    },
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct MetricDecl {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median a metric may worsen by; end-to-end
    /// metrics only.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDecl {
    MetricDecl {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDecl {
    MetricDecl {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees; the same four on every workload, from
/// untraced runs only.
///
/// The timing bounds are what this host's run-to-run spread supports, not
/// what one would wish for: ten 30-s runs of unchanged code put the
/// quartiles of `op_ms_p50` 2-8 % apart and those of the mean-based
/// `ops_per_s` 2-12 % apart, depending on the quarter of an hour, because
/// the shared 2-core VM speeds up and slows down over tens of seconds to
/// minutes and the dynamic engine's pointer-chasing feels it most. A bound
/// tighter than the spread would reject unchanged code. Memory repeats to
/// half a per cent and keeps the bound the issue asked for.
pub const END_TO_END: [MetricDecl; 4] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("op_ms_p50", "ms", Lower, 0.25),
    e2e("ops_per_s", "ops/s", Higher, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.05),
];

/// Single-layer metrics, from traced runs only. A layer a workload leaves
/// idle reports 0 there.
pub const PER_LAYER: [MetricDecl; 59] = [
    // bench: the health of the measurement itself.
    layer("bench.ops", "count", Higher),
    layer("bench.op_ms_tail", "ms", Lower),
    layer("bench.op_tail_pct", "%", Higher),
    layer("bench.cpu_util", "ratio", Higher),
    layer("bench.drift_pct", "%", Lower),
    layer("bench.span_coverage", "ratio", Higher),
    layer("bench.trace_overhead_ratio", "ratio", Lower),
    layer("bench.span_ns", "ns", Lower),
    // asmap
    layer("asmap.generate_ms", "ms", Lower),
    layer("asmap.ases", "count", Lower),
    layer("asmap.links", "count", Lower),
    // sim.static_routes
    layer("static.fixed_point_us_p50", "us", Lower),
    layer("static.frontier_popped_per_table", "count", Lower),
    // sim.compute (the cache)
    layer("cache.miss_fill_us_p50", "us", Lower),
    layer("cache.hit_ns_p50", "ns", Lower),
    layer("cache.revalidate_us_p50", "us", Lower),
    layer("cache.hits", "count", Higher),
    layer("cache.misses", "count", Lower),
    layer("cache.evictions", "count", Lower),
    layer("cache.retention_pct", "%", Higher),
    // sim.dataplane
    layer("dataplane.infra_all_s", "s", Lower),
    layer("dataplane.announce_ms_p50", "ms", Lower),
    layer("dataplane.walk_us_p50", "us", Lower),
    layer("dataplane.tables", "count", Lower),
    // probe
    layer("probe.ping_us_p50", "us", Lower),
    layer("probe.traceroute_us_p50", "us", Lower),
    layer("probe.reverse_traceroute_us_p50", "us", Lower),
    layer("probe.probes_per_incident", "count", Lower),
    // atlas
    layer("atlas.warm_s", "s", Lower),
    layer("atlas.entries", "count", Lower),
    // locate
    layer("locate.isolate_ms_p50", "ms", Lower),
    layer("locate.blame_correct_share", "ratio", Higher),
    // core
    layer("core.tick_healthy_us_p50", "us", Lower),
    layer("core.tick_decision_ms_p50", "ms", Lower),
    layer("core.plan_ms_p50", "ms", Lower),
    layer("core.ticks_per_incident", "count", Lower),
    layer("core.repaired_share", "ratio", Higher),
    layer("core.skipped_share", "ratio", Lower),
    layer("core.sim_downtime_s_p50", "s", Lower),
    // bgp
    layer("bgp.interned_paths", "count", Lower),
    layer("bgp.interned_prefixes", "count", Lower),
    // sim.dynamic
    layer("dynamic.announce_us_p50", "us", Lower),
    layer("dynamic.quiesce_ms_p50", "ms", Lower),
    layer("dynamic.fail_link_ms_p50", "ms", Lower),
    layer("dynamic.restore_link_ms_p50", "ms", Lower),
    layer("dynamic.us_per_update", "us", Lower),
    layer("dynamic.updates_per_op", "count", Lower),
    layer("dynamic.mrai_deferrals_per_op", "count", Lower),
    layer("dynamic.loc_rib_changes_per_op", "count", Lower),
    layer("dynamic.sim_convergence_ms_p50", "ms", Lower),
    layer("dynamic.loc_entries", "count", Lower),
    layer("dynamic.adj_entries", "count", Lower),
    layer("dynamic.out_state_entries", "count", Lower),
    // sim.packing
    layer("packing.updates_packed_per_op", "count", Higher),
    layer("packing.wire_bytes_per_op", "bytes", Lower),
    layer("packing.pack_ratio", "ratio", Lower),
    // sim.time
    layer("time.wheel_insert_pop_ns", "ns", Lower),
    // telemetry
    layer("telemetry.snapshot_ms", "ms", Lower),
    layer("telemetry.recorder_overhead_ratio", "ratio", Lower),
];

/// The command the driver runs, from the root of a checkout.
pub const COMMAND: [&str; 9] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
    "bench",
];

pub const PATHS: [&str; 1] = ["benchmark"];

pub fn workload_names() -> Vec<&'static str> {
    WORKLOADS.iter().map(|w| w.name).collect()
}

pub fn end_to_end(name: &str) -> Option<&'static MetricDecl> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// `BENCHMARK.json`, exactly as committed at the root of the repository.
pub fn benchmark_json() -> String {
    let strs = |items: &[&str]| Value::Arr(items.iter().map(|s| Value::str(*s)).collect());
    let metric = |m: &MetricDecl| {
        let mut pairs = vec![
            ("name", Value::str(m.name)),
            ("unit", Value::str(m.unit)),
            ("better", Value::str(m.better.as_str())),
        ];
        if let Some(b) = m.bound {
            pairs.push(("bound", Value::Num(b)));
        }
        Value::obj(pairs)
    };
    Value::obj(vec![
        ("command", strs(&COMMAND)),
        ("paths", strs(&PATHS)),
        ("run_seconds", Value::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Value::obj(vec![
                            ("name", Value::str(w.name)),
                            ("why", Value::str(w.why)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(END_TO_END.iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Value::Arr(PER_LAYER.iter().map(metric).collect()),
        ),
    ])
    .to_pretty()
}

/// Every way the declaration can break the contract it is written to;
/// empty when it holds.
pub fn grammar_violations() -> Vec<String> {
    let name_ok = |s: &str| {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let unit_ok = |s: &str| {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    let mut bad = Vec::new();
    let mut seen = std::collections::BTreeSet::new();
    let mut check_name = |kind: &str, name: &str, bad: &mut Vec<String>| {
        if !name_ok(name) {
            bad.push(format!("{kind} name {name:?} breaks the name grammar"));
        }
        if !seen.insert(name.to_string()) {
            bad.push(format!("name {name:?} is used twice"));
        }
    };
    for w in &WORKLOADS {
        check_name("workload", w.name, &mut bad);
        if w.why.is_empty() || w.why.len() > 200 || w.why.contains('\n') {
            bad.push(format!(
                "workload {} needs a one-line why of at most 200 characters",
                w.name
            ));
        }
    }
    for m in END_TO_END.iter().chain(&PER_LAYER) {
        check_name("metric", m.name, &mut bad);
        if !unit_ok(m.unit) {
            bad.push(format!(
                "metric {} has a malformed unit {:?}",
                m.name, m.unit
            ));
        }
    }
    for m in &END_TO_END {
        match m.bound {
            Some(b) if b > 0.0 && b <= 0.25 => {}
            _ => bad.push(format!(
                "end-to-end metric {} needs a bound in (0, 0.25]",
                m.name
            )),
        }
    }
    if !(2..=8).contains(&WORKLOADS.len()) {
        bad.push("2 to 8 workloads".into());
    }
    if !(1..=16).contains(&END_TO_END.len()) {
        bad.push("1 to 16 end-to-end metrics".into());
    }
    if !(1..=128).contains(&PER_LAYER.len()) {
        bad.push("1 to 128 per-layer metrics".into());
    }
    match end_to_end("setup_s") {
        Some(m) if m.unit == "s" && m.better == Better::Lower => {
            if END_TO_END.iter().any(|o| o.bound > m.bound) {
                bad.push("setup_s must carry the largest bound".into());
            }
        }
        _ => bad.push("setup_s (unit s, lower is better) must be an end-to-end metric".into()),
    }
    if !(1..=60).contains(&RUN_SECONDS) {
        bad.push("run_seconds must be 1 to 60".into());
    }
    if COMMAND.len() > 32
        || COMMAND
            .iter()
            .any(|c| c.len() > 200 || c.starts_with('/') || c.contains(".."))
    {
        bad.push("command breaks the contract".into());
    }
    if benchmark_json().len() > 64 * 1024 {
        bad.push("BENCHMARK.json exceeds 64 KiB".into());
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declaration_meets_the_contract() {
        assert_eq!(grammar_violations(), Vec::<String>::new());
    }

    #[test]
    fn benchmark_json_has_exactly_the_contract_keys() {
        let doc = crate::json::parse(&benchmark_json()).unwrap();
        let keys: Vec<&str> = doc.as_obj().iter().map(|(k, _)| k.as_str()).collect();
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
        for m in doc.get("end_to_end").unwrap().as_arr() {
            let keys: Vec<&str> = m.as_obj().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["name", "unit", "better", "bound"]);
        }
        for m in doc.get("per_layer").unwrap().as_arr() {
            assert_eq!(m.as_obj().len(), 3);
        }
        assert_eq!(doc.get("workloads").unwrap().as_arr().len(), 4);
    }
}
