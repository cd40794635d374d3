//! Repair-success degradation under adversarial filter deployment.
//!
//! Smith et al.'s poisoning-feasibility mechanisms — max-AS-path-length
//! caps, poisoned-announcement drops at large transit networks, and stub
//! default routes — all cut into LIFEGUARD-style repair. This module
//! reruns the §5.1 efficacy sweep (and the §5.2 collateral-disruption
//! count for the repairs that survive) at a range of *calibrated filter
//! deployment rates*, producing the degradation curve: filtering degrades
//! repair success but does not eliminate it.
//!
//! Rate 0.0 is the unfiltered world of the original benches; each higher
//! rate flips more ASes (tier-aware, deterministic per `(seed, AS,
//! mechanism)`) into the filter deployment. Reserved-ASN drops also
//! suppress paths through AS 0 — generated topologies use `AsId(0)` as a
//! real tier-1 while IANA reserves ASN 0, so the *baseline* delivery rate
//! is reported next to repair success to keep that artifact visible
//! instead of folding it into "repairs failed".

use crate::report::{pct, Report, Table};
use crate::worlds::production_prefix;
use lg_asmap::{assign_filters, AsId, FilterDeployment, TopologyConfig};
use lg_bgp::Prefix;
use lg_locate::Blame;
use lg_sim::{compute_routes, effective_path, AnnouncementSpec, Network, SharedRouteCache};
use lifeguard_core::decide::plan_repair_cached;
use lifeguard_core::LifeguardConfig;

/// One point of the degradation curve: the repair sweep's outcome at a
/// single filter deployment rate.
#[derive(Clone, Copy, Debug, Default)]
pub struct DegradationPoint {
    /// Calibrated deployment rate the filters were drawn at.
    pub rate: f64,
    /// ASes that ended up with at least one filter mechanism enabled.
    pub filtering_ases: usize,
    /// ASes (over all sampled origins, baseline announcement) whose
    /// data-plane chain reaches the origin *before* any failure/repair.
    pub delivered_baseline: usize,
    /// ASes evaluated for baseline delivery.
    pub baseline_total: usize,
    /// Repair cases attempted (culprit AS × affected source).
    pub attempted: usize,
    /// Cases where the planner produced a repair and the predicted fixed
    /// point confirms the source's forwarding chain avoids the culprit.
    pub repaired: usize,
    /// Planner refusals: the repair announcement was rejected by every
    /// provider's import filters (it never enters the routing system).
    pub filtered_everywhere: usize,
    /// Planner refusals: no alternate policy-compliant path exists.
    pub no_alternate: usize,
    /// Planner refusals: the source still forwards into the culprit over
    /// a default route (Smith et al.'s default-route throttling).
    pub default_leak: usize,
    /// Remaining refusals (sole provider, poison cannot stick, ...).
    pub other_refusals: usize,
    /// §5.2 collateral: next-hop changes at ASes other than the repaired
    /// source, summed over successful repairs.
    pub disturbed: usize,
}

impl DegradationPoint {
    /// Fraction of attempted repairs that succeeded.
    pub fn success_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.repaired as f64 / self.attempted as f64
        }
    }

    /// Fraction of ASes the baseline announcement reaches at all.
    pub fn baseline_delivery(&self) -> f64 {
        if self.baseline_total == 0 {
            0.0
        } else {
            self.delivered_baseline as f64 / self.baseline_total as f64
        }
    }

    /// Mean collateral route changes per successful repair.
    pub fn mean_disturbed(&self) -> f64 {
        if self.repaired == 0 {
            0.0
        } else {
            self.disturbed as f64 / self.repaired as f64
        }
    }
}

fn sentinel_prefix() -> Prefix {
    Prefix::from_octets(184, 164, 224, 0, 19)
}

/// Sweep one deployment rate: build the filtered network, replay the
/// §5.1-style poison sweep through the *repair planner* (not a bare
/// what-if), and classify every outcome.
fn run_point(
    cfg: &TopologyConfig,
    rate: f64,
    n_origins: usize,
    n_sources: usize,
) -> DegradationPoint {
    let mut net = Network::new(cfg.generate());
    let deployment = FilterDeployment::calibrated(rate, cfg.seed ^ 0xF117E55);
    let fa = assign_filters(net.graph(), &deployment);
    net.apply_filter_assignment(&fa);
    let net = net;

    let mut point = DegradationPoint {
        rate,
        filtering_ases: fa.filtering_ases(),
        ..DegradationPoint::default()
    };

    let prefix = production_prefix();
    let origins: Vec<AsId> = net
        .graph()
        .ases()
        .filter(|a| net.graph().is_stub(*a) && net.graph().providers(*a).len() >= 2)
        .take(n_origins)
        .collect();
    let cache = SharedRouteCache::new();

    for origin in origins {
        // Paper baseline O-O-O, so the repair poison swaps in at equal
        // path length (§5.2).
        let base_spec = AnnouncementSpec::prepended(&net, prefix, origin, 3);
        let base = compute_routes(&net, &base_spec);
        for a in net.graph().ases() {
            if a == origin {
                continue;
            }
            point.baseline_total += 1;
            if effective_path(&net, &base, a).is_some() {
                point.delivered_baseline += 1;
            }
        }

        let mut lcfg = LifeguardConfig::paper_defaults(origin, prefix, sentinel_prefix());
        lcfg.providers = Vec::new(); // all neighbors

        let sources: Vec<AsId> = net
            .graph()
            .ases()
            .filter(|s| *s != origin && net.graph().is_stub(*s) && base.has_route(*s))
            .take(n_sources)
            .collect();
        for source in sources {
            let path = base.as_path(source).expect("source has a baseline route");
            if path.len() <= 3 {
                continue; // too short to host a transit culprit
            }
            // Transit culprits: everything between the source and the
            // origin's immediate provider (the Cogent rule: never poison
            // our own providers).
            for &culprit in &path[..path.len() - 2] {
                if culprit == source {
                    continue;
                }
                point.attempted += 1;
                match plan_repair_cached(&net, &lcfg, Blame::As(culprit), source, &cache) {
                    Ok(plan) => {
                        let table = cache.compute(&net, &plan.spec);
                        let repaired = effective_path(&net, &table, source)
                            .is_some_and(|p| !p.contains(&culprit));
                        assert!(repaired, "planner accepted an unrepaired case");
                        point.repaired += 1;
                        point.disturbed += net
                            .graph()
                            .ases()
                            .filter(|a| {
                                *a != source
                                    && *a != origin
                                    && base.next_hop(*a) != table.next_hop(*a)
                            })
                            .count();
                    }
                    Err(e) if e.contains("filtered at every provider") => {
                        point.filtered_everywhere += 1;
                    }
                    Err(e) if e.contains("no alternate") => point.no_alternate += 1,
                    Err(e) if e.contains("still forwards through") => point.default_leak += 1,
                    Err(_) => point.other_refusals += 1,
                }
            }
        }
    }
    point
}

/// The degradation curve: one [`DegradationPoint`] per deployment rate,
/// same topology seed throughout so only the filters vary.
pub fn run_degradation(
    cfg: &TopologyConfig,
    rates: &[f64],
    n_origins: usize,
    n_sources: usize,
) -> Vec<DegradationPoint> {
    rates
        .iter()
        .map(|&rate| run_point(cfg, rate, n_origins, n_sources))
        .collect()
}

/// The curve as a report table.
pub fn degradation_table(points: &[DegradationPoint]) -> Table {
    let mut t = Table::new(
        "Repair success vs filter deployment rate (Smith et al. feasibility filters)",
        &[
            "deploy rate",
            "filtering ASes",
            "baseline delivery",
            "repair success",
            "filtered@providers",
            "no alternate",
            "default leak",
            "mean disturbed",
            "cases",
        ],
    );
    for p in points {
        t.row(&[
            format!("{:.2}", p.rate),
            p.filtering_ases.to_string(),
            pct(p.baseline_delivery()),
            pct(p.success_rate()),
            p.filtered_everywhere.to_string(),
            p.no_alternate.to_string(),
            p.default_leak.to_string(),
            format!("{:.1}", p.mean_disturbed()),
            p.attempted.to_string(),
        ]);
    }
    t
}

/// The filter telemetry counters whose movement proves the deployment
/// wiring is live.
pub const FILTER_COUNTERS: [&str; 3] = [
    "policy.filtered_path_len",
    "policy.filtered_poisoned",
    "policy.filtered_reserved",
];

/// Record the curve under `degradation.<i>.<field>`.
pub fn degradation_numbers(points: &[DegradationPoint], r: &mut Report) {
    for (i, p) in points.iter().enumerate() {
        let fields = [
            ("rate", p.rate),
            ("filtering_ases", p.filtering_ases as f64),
            ("baseline_delivery", p.baseline_delivery()),
            ("attempted", p.attempted as f64),
            ("repaired", p.repaired as f64),
            ("success_rate", p.success_rate()),
            ("filtered_everywhere", p.filtered_everywhere as f64),
            ("no_alternate", p.no_alternate as f64),
            ("default_leak", p.default_leak as f64),
            ("other_refusals", p.other_refusals as f64),
            ("mean_disturbed", p.mean_disturbed()),
        ];
        r.numbers(&format!("degradation.{i}"), &fields);
    }
}

/// The degradation curve's shape: filtering degrades repair but does not
/// eliminate it. `fired` is how far the [`FILTER_COUNTERS`] moved during
/// the sweep — a filtered rerun in which no filter ever fired means the
/// deployment wiring regressed.
pub fn degradation_checks(points: &[DegradationPoint], fired: u64, r: &mut Report) {
    let n = points.len();
    r.check("at_least_three_rates", n >= 3, format!("{n} rates"));
    // The unfiltered baseline, the middle (partial-deployment) rate, and
    // the highest rate.
    let (clean, half, full) = (&points[0], &points[n / 2], &points[n - 1]);
    let baseline = clean.rate == 0.0 && clean.filtering_ases == 0;
    let detail = format!("rate {}, {} ASes", clean.rate, clean.filtering_ases);
    r.check("first_point_is_unfiltered_baseline", baseline, detail);
    let detail = format!("policy.filtered_* moved by {fired}");
    r.check("filters_fired", fired > 0, detail);
    let success = [clean, half, full].map(|p| p.success_rate());
    let detail = format!("success {success:.2?} at clean / middle / full rate");
    r.check(
        "full_deployment_degrades_success",
        success[2] < success[0],
        detail.clone(),
    );
    r.check(
        "partial_deployment_costs_success",
        success[1] < success[0],
        detail,
    );
    // Degraded, not eliminated: some *partial* deployment rate must leave
    // repair alive. (Total core deployment legitimately kills it — every
    // tier-1/2 drops the poisoned announcement.)
    let alive = points
        .iter()
        .any(|p| p.rate > 0.0 && p.success_rate() > 0.0);
    let detail = "paper: degrades, not kills".to_string();
    r.check("repair_survives_some_filtered_rate", alive, detail);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rate_matches_unfiltered_efficacy_shape() {
        let points = run_degradation(&TopologyConfig::medium(9), &[0.0], 4, 8);
        let p = &points[0];
        assert_eq!(p.filtering_ases, 0, "rate 0 must deploy nothing");
        assert!(p.attempted > 30, "cases {}", p.attempted);
        assert!(
            (0.6..=1.0).contains(&p.success_rate()),
            "unfiltered success {}",
            p.success_rate()
        );
        assert!(p.baseline_delivery() > 0.95, "{}", p.baseline_delivery());
    }

    #[test]
    fn success_degrades_but_survives_under_partial_deployment() {
        // At partial deployment (the realistic regime Smith et al.
        // measure) repair is degraded but alive; at total deployment the
        // core drops every poisoned announcement and repair dies — both
        // ends of the curve are meaningful.
        let points = run_degradation(&TopologyConfig::medium(9), &[0.0, 0.5, 1.0], 4, 8);
        let (clean, half, full) = (&points[0], &points[1], &points[2]);
        assert!(half.filtering_ases > 0 && full.filtering_ases > half.filtering_ases);
        assert!(
            half.success_rate() < clean.success_rate(),
            "filters must cost something: {} vs {}",
            half.success_rate(),
            clean.success_rate()
        );
        assert!(
            half.success_rate() > 0.0,
            "the paper's point: degraded, not eliminated"
        );
        assert!(
            full.success_rate() < half.success_rate(),
            "more deployment, less repair: {} vs {}",
            full.success_rate(),
            half.success_rate()
        );
        // The planner must attribute failures, not just fail.
        assert!(
            full.filtered_everywhere > 0,
            "total core deployment must reject seeds at the providers: {full:?}"
        );
    }

    #[test]
    fn json_artifact_is_well_formed_enough() {
        let points = run_degradation(&TopologyConfig::small(5), &[0.0, 0.5], 2, 4);
        let mut report = Report::default();
        degradation_numbers(&points, &mut report);
        let json = crate::paper::receipt(&[], &[("degradation", report)]).to_string();
        assert_eq!(json.matches(".rate\"").count(), 2);
        assert_eq!(json.matches("success_rate\"").count(), 2);
        assert!(json.contains("\"degradation.1.rate\":0.5"), "{json}");
    }
}
