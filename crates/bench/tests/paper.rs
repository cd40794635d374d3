//! The `paper` registry, exercised: every item runs at test size with all
//! its checks passing and exactly the expected numbers; every curve check
//! can fail; and the binary's exit codes and receipt are what the docs say.

use std::process::Command;

use lg_bench::degradation::{degradation_checks, DegradationPoint};
use lg_bench::paper::{Scale, ITEMS};
use lg_bench::report::Report;
use lg_bench::scalability::{scale_checks, ScalePoint};
use lg_bench::tableload::{table_load_checks, TableLoadPoint};
use lg_telemetry::json::{self, Value};

/// Every number the registry reports, in registry order: the written-out
/// scalars, and `prefix.<i>.<field>` for every point of the three curves.
/// An item that silently stops reporting one turns this red.
fn expected_keys() -> Vec<String> {
    let words = |text: &str| {
        text.split_whitespace()
            .map(String::from)
            .collect::<Vec<_>>()
    };
    let curve = |prefix: &str, points: usize, fields: &str| {
        let fields = words(fields);
        let point = |i| fields.iter().map(move |f| format!("{prefix}.{i}.{f}"));
        (0..points).flat_map(point).collect::<Vec<_>>()
    };
    let mut keys = words(
        "fig1.outages_le_10min fig1.unavailability_from_gt_10min fig5.p_5_more_after_5min \
         fig5.p_5_more_after_10min fig5.avoidable_unavailability \
         fig6.prepend_nochange.instant fig6.prepend_nochange.within_50s \
         fig6.prepend_nochange.within_200s fig6.prepend_nochange.samples \
         fig6.plain_nochange.instant fig6.plain_nochange.within_50s \
         fig6.plain_nochange.within_200s fig6.plain_nochange.samples \
         fig6.prepend_change.instant fig6.prepend_change.within_50s \
         fig6.prepend_change.within_200s fig6.prepend_change.samples \
         fig6.plain_change.instant fig6.plain_change.within_50s fig6.plain_change.within_200s \
         fig6.plain_change.samples table1.mux_success table1.largescale_success \
         table1.unaffected_instant table1.loss_under_2pct table1.selective_avoids_links \
         table1.consistent_with_target_side table1.differs_from_traceroute \
         table1.isolation_secs table1.probes_per_isolation table1.captives \
         table1.captives_covered table2.u_affected table2.u_unaffected table2.I0.01_T0.5_d5 \
         table2.I0.01_T0.5_d15 table2.I0.01_T0.5_d60 table2.I0.01_T1_d5 table2.I0.01_T1_d15 \
         table2.I0.01_T1_d60 table2.I0.1_T0.5_d5 table2.I0.1_T0.5_d15 table2.I0.1_T0.5_d60 \
         table2.I0.1_T1_d5 table2.I0.1_T1_d15 table2.I0.1_T1_d60 table2.I0.5_T0.5_d5 \
         table2.I0.5_T0.5_d15 table2.I0.5_T0.5_d60 table2.I0.5_T1_d5 table2.I0.5_T1_d15 \
         table2.I0.5_T1_d60 sec22.outages sec22.with_alternate sec22.rate sec22.core_outages \
         sec22.core_rate sec22.persistence_checked sec22.persistence_rate \
         sec22.culprit_avoidance_rate sec51.mux_cases sec51.mux_success \
         sec51.mux_sole_provider_cutoffs sec51.largescale_cases sec51.largescale_success \
         sec52.global_median_prepend_ms sec52.global_median_plain_ms sec52.loss_under_1pct \
         sec52.loss_under_2pct sec52.single_update_unaffected sec52.u_affected \
         sec52.u_unaffected sec52.fwd_cases sec52.fwd_rate sec52.rev_cases sec52.rev_rate \
         sec52.via_tier1 sec52.via_tier1_with_community sec52.avoiding_tier1 \
         sec52.avoiding_tier1_with_community sec52.footprint.selective_advertising.success \
         sec52.footprint.selective_advertising.mean_disturbed \
         sec52.footprint.selective_advertising.cases sec52.footprint.prepending.success \
         sec52.footprint.prepending.mean_disturbed sec52.footprint.prepending.cases \
         sec52.footprint.global_poison.success sec52.footprint.global_poison.mean_disturbed \
         sec52.footprint.global_poison.cases sec52.footprint.selective_poison.success \
         sec52.footprint.selective_poison.mean_disturbed \
         sec52.footprint.selective_poison.cases sec53.cases sec53.correct \
         sec53.direction_correct sec53.consistent sec53.differs_from_traceroute \
         sec53.traceroute_correct sec53.mean_isolation_secs sec53.mean_probes \
         sec54.refresh_pairs sec54.paths_refreshed sec54.steady_probes_per_path \
         sec54.cold_probes_per_path sec54.cache_splices sec54.isolation_secs \
         sec54.probes_per_isolation",
    );
    keys.extend(curve(
        "sec54.scale",
        2,
        "n edges graph_bytes arena_nodes peak_pending est_peak_rss_bytes",
    ));
    keys.extend(words(
        "impact.outages_injected impact.baseline_downtime_ms impact.lifeguard_downtime_ms \
         impact.avoided_fraction impact.repairs impact.skipped degradation.filtered_total",
    ));
    keys.extend(curve(
        "degradation",
        3,
        "rate filtering_ases baseline_delivery attempted repaired success_rate \
         filtered_everywhere no_alternate default_leak other_refusals mean_disturbed",
    ));
    keys.extend(curve(
        "tableload",
        2,
        "prefixes cohort loc_entries adj_entries out_state_entries pending_events \
         interned_paths interned_prefixes updates_sent updates_packed wire_updates wire_bytes \
         wire_bytes_unpacked",
    ));
    keys
}

#[test]
fn every_item_passes_its_checks_and_reports_its_numbers() {
    let mut numbers = Vec::new();
    for (name, run) in ITEMS {
        let mut report = Report::default();
        run(Scale::Tiny, &mut report);
        assert!(!report.checks.is_empty(), "{name} checks nothing");
        assert_eq!(report.failed(), Vec::<&str>::new(), "{name}: {report:#?}");
        for (key, value) in &report.numbers {
            assert!(key.starts_with(name), "{key} reported by {name}");
            assert!(value.is_finite(), "{key} = {value}");
        }
        numbers.extend(report.numbers);
    }
    // Table 2's U is read from §5.2's convergence run, not measured apart.
    let value = |key: String| numbers.iter().find(|(k, _)| *k == key).map(|(_, v)| *v);
    for u in ["u_affected", "u_unaffected"] {
        let (table2, sec52) = (value(format!("table2.{u}")), value(format!("sec52.{u}")));
        assert!(
            table2.is_some() && table2 == sec52,
            "{u}: {table2:?} vs {sec52:?}"
        );
    }
    let keys: Vec<String> = numbers.into_iter().map(|(key, _)| key).collect();
    let mut unique = keys.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), keys.len(), "a number is reported twice");
    assert_eq!(keys, expected_keys());
}

fn scale_curve() -> Vec<ScalePoint> {
    let point = |(n, fixed_point_ms, reference_ms)| ScalePoint {
        n,
        fixed_point_ms,
        reference_ms,
        arena_nodes: n + 3,
        ..ScalePoint::default()
    };
    [(1_000, 0.1, 0.3), (10_000, 1.3, 5.8), (25_000, 5.0, 0.0)]
        .map(point)
        .to_vec()
}

fn load_curve() -> Vec<TableLoadPoint> {
    let point = |(prefixes, bulk_announce_ms)| TableLoadPoint {
        prefixes,
        cohort: 32,
        bulk_announce_ms,
        out_state_entries: 1_400_000 + prefixes,
        interned_paths: 2_413,
        updates_packed: 9 * prefixes as u64,
        wire_updates: 979_000,
        wire_bytes: 55_000_000,
        wire_bytes_unpacked: 59_000_000,
        ..TableLoadPoint::default()
    };
    [(1_000, 4.0), (5_000, 20.0), (10_000, 42.0)]
        .map(point)
        .to_vec()
}

fn degradation_curve() -> Vec<DegradationPoint> {
    let point = |(rate, filtering_ases, repaired)| DegradationPoint {
        rate,
        filtering_ases,
        attempted: 53,
        repaired,
        ..DegradationPoint::default()
    };
    [
        (0.0, 0, 47),
        (0.25, 64, 46),
        (0.5, 116, 43),
        (0.75, 156, 20),
        (1.0, 198, 0),
    ]
    .map(point)
    .to_vec()
}

/// A check's name and the edit that must make it — and only it — fail.
type Doctor<'a, P> = (&'a str, &'a dyn Fn(&mut Vec<P>));

/// The undoctored curve passes every check; each doctored one fails exactly
/// the named check.
fn assert_sole_failures<P>(good: Vec<P>, checks: impl Fn(&[P], &mut Report), cases: &[Doctor<P>])
where
    P: Clone,
{
    let failed = |curve: &[P]| {
        let mut report = Report::default();
        checks(curve, &mut report);
        report
            .failed()
            .into_iter()
            .map(String::from)
            .collect::<Vec<_>>()
    };
    assert_eq!(failed(&good), Vec::<String>::new());
    for (check, doctor) in cases {
        let mut curve = good.clone();
        doctor(&mut curve);
        assert_eq!(failed(&curve), [*check]);
    }
}

#[test]
fn each_curve_check_fails_on_its_doctored_curve() {
    assert_sole_failures(
        scale_curve(),
        |c, r| scale_checks(c, (1_000, 25_000), r),
        &[
            ("scale_sizes_increasing", &|c| c[1].n = 30_000),
            ("scale_spans_sizes", &|c| c[0].n = 2_000),
            ("scale_fixed_point_subquadratic", &|c| {
                c[2].fixed_point_ms = 700.0 * c[0].fixed_point_ms
            }),
            ("scale_arena_one_node_per_as", &|c| {
                c[1].arena_nodes = c[1].n + 17
            }),
            ("scale_frontier_within_2x_reference", &|c| {
                c[0].fixed_point_ms = 2.5 * c[0].reference_ms
            }),
        ],
    );
    assert_sole_failures(
        load_curve(),
        |c, r| table_load_checks(c, (1_000, 10_000), r),
        &[
            ("tableload_sizes_increasing", &|c| c[1].prefixes = 20_000),
            ("tableload_spans_sizes", &|c| c[2].prefixes = 9_000),
            ("tableload_bulk_subquadratic", &|c| {
                c[2].bulk_announce_ms = 100.0 * c[0].bulk_ms()
            }),
            ("tableload_arena_flat", &|c| {
                c[2].interned_paths = 3 * c[0].interned_paths
            }),
            ("tableload_out_state_covers_table", &|c| {
                c[1].out_state_entries = c[1].prefixes - c[1].cohort - 1
            }),
            ("tableload_packing_engaged", &|c| c[0].updates_packed = 0),
            ("tableload_packing_saves_bytes", &|c| {
                c[1].wire_bytes = c[1].wire_bytes_unpacked
            }),
        ],
    );
    assert_sole_failures(
        degradation_curve(),
        |c, r| degradation_checks(c, 4_432, r),
        &[
            ("at_least_three_rates", &|c| *c = vec![c[0], c[2]]),
            ("first_point_is_unfiltered_baseline", &|c| {
                c[0].filtering_ases = 5
            }),
            ("full_deployment_degrades_success", &|c| {
                c[4].repaired = c[0].repaired
            }),
            ("repair_survives_some_filtered_rate", &|c| {
                c[1..].iter_mut().for_each(|p| p.repaired = 0)
            }),
            ("partial_deployment_costs_success", &|c| {
                c[2].repaired = c[0].repaired
            }),
        ],
    );
    // `policy.filtered_*` total 0: the curve is fine, the wiring is dead.
    let mut report = Report::default();
    degradation_checks(&degradation_curve(), 0, &mut report);
    assert_eq!(report.failed(), ["filters_fired"]);
}

#[test]
fn binary_exit_codes_and_receipt() {
    let paper = |args: &[&str]| {
        let run = Command::new(env!("CARGO_BIN_EXE_paper"))
            .args(args)
            .output();
        run.expect("paper runs")
    };
    let unknown = paper(&["fig7"]);
    assert_eq!(unknown.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&unknown.stderr);
    assert!(
        ITEMS.iter().all(|(name, _)| stderr.contains(name)),
        "{stderr}"
    );

    let out = concat!(env!("CARGO_TARGET_TMPDIR"), "/paper-receipt.json");
    let run = paper(&["fig1", "--out", out]);
    assert!(run.status.success(), "{run:?}");
    assert!(String::from_utf8_lossy(&run.stdout).contains("== Fig 1:"));
    let receipt = json::parse(&std::fs::read_to_string(out).unwrap()).unwrap();
    assert_eq!(receipt.get("version").and_then(Value::as_u64), Some(1));
    assert!(receipt.get("cores").and_then(Value::as_u64) >= Some(1));
    let fig1 = receipt.get("items").and_then(|i| i.get("fig1")).unwrap();
    let short = fig1
        .get("numbers")
        .and_then(|n| n.get("fig1.outages_le_10min"));
    assert!(short.and_then(Value::as_f64) > Some(0.9), "{receipt:#}");
    let wall = fig1.get("timings").and_then(|t| t.get("fig1.wall_s"));
    assert!(wall.is_some(), "{receipt:#}");
    let checks = fig1.get("checks").and_then(Value::as_arr).unwrap();
    assert!(!checks.is_empty());
    for check in checks {
        assert_eq!(check.get("ok"), Some(&Value::Bool(true)), "{check}");
        assert!(check.get("detail").and_then(Value::as_str).is_some());
    }
}

#[test]
fn against_names_every_differing_number() {
    let paper = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_paper"))
            .args(args)
            .output()
            .expect("paper runs")
    };
    let dir = env!("CARGO_TARGET_TMPDIR");
    let (same, edited) = (
        format!("{dir}/paper-against-same.json"),
        format!("{dir}/paper-against-edited.json"),
    );
    assert!(paper(&["fig1", "--out", &same]).status.success());
    let run = paper(&["fig1", "--against", &same]);
    assert!(run.status.success(), "{run:?}");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(stderr.contains("all 2 numbers equal"), "{stderr}");

    // One value changed and one renamed: exit 1, each named.
    let text = std::fs::read_to_string(&same).unwrap();
    let receipt = json::parse(&text).unwrap();
    let short = receipt
        .get("items")
        .and_then(|i| i.get("fig1"))
        .and_then(|f| f.get("numbers"))
        .and_then(|n| n.get("fig1.outages_le_10min"))
        .unwrap();
    let changed = text
        .replace(
            &format!("\"fig1.outages_le_10min\": {short}"),
            "\"fig1.outages_le_10min\": 0.5",
        )
        .replace("\"fig1.unavailability_from_gt_10min\"", "\"fig1.renamed\"");
    std::fs::write(&edited, changed).unwrap();
    let run = paper(&["fig1", "--against", &edited]);
    assert_eq!(run.status.code(), Some(1), "{run:?}");
    let stderr = String::from_utf8_lossy(&run.stderr);
    for name in [
        "fig1.outages_le_10min: 0.5 ->",
        "fig1.unavailability_from_gt_10min: not in the receipt",
        "fig1.renamed: not in this run",
    ] {
        assert!(stderr.contains(name), "{name} not named: {stderr}");
    }

    let missing = paper(&["fig1", "--against", &format!("{dir}/no-such-receipt.json")]);
    assert_eq!(missing.status.code(), Some(2));
}
