//! §2.2: do policy-compliant alternate paths exist during failures?
//!
//! The paper's methodology over a PlanetLab mesh: during each outage round,
//! try to splice a working path *from the source* with a working path *to
//! the destination* at a shared IP (router), accept the splice only if the
//! three-tuple export test passes, and require it to avoid the AS where the
//! failing traceroute terminated. We reproduce it over a generated mesh
//! with injected transit failures.

use crate::report::{pct, Table};
use crate::worlds::{mesh_world, MeshWorld};
use lg_asmap::splice::MeasuredPath;
use lg_asmap::{splice_alternate_path, AsId, SpliceInput, TopologyConfig, TripleSet};
use lg_probe::Prober;
use lg_sim::dataplane::{infra_addr, infra_prefix, DataPlane};
use lg_sim::Time;
use lg_workloads::ScenarioGen;

/// Study outcome.
#[derive(Clone, Copy, Debug, Default)]
pub struct AlternatesResult {
    /// Outage rounds evaluated.
    pub outages: usize,
    /// Rounds with a valid spliced alternate path.
    pub with_alternate: usize,
    /// Rounds whose culprit AS is core transit (tier <= 2), where paths are
    /// most diverse.
    pub transit_core_outages: usize,
    /// ... of which had alternates.
    pub transit_core_with_alternate: usize,
    /// Alternates found in a first round that remained valid in a later
    /// round of the same outage.
    pub persisted: usize,
    /// First-round alternates checked for persistence.
    pub persistence_checked: usize,
    /// Spliced paths that avoid the ground-truth culprit (the methodology
    /// only guarantees avoiding where the failing traceroute pointed).
    pub avoids_true_culprit: usize,
}

impl AlternatesResult {
    /// Overall fraction with alternates.
    pub fn rate(&self) -> f64 {
        if self.outages == 0 {
            0.0
        } else {
            self.with_alternate as f64 / self.outages as f64
        }
    }

    /// Fraction with alternates among failures in well-connected transit.
    pub fn core_rate(&self) -> f64 {
        if self.transit_core_outages == 0 {
            0.0
        } else {
            self.transit_core_with_alternate as f64 / self.transit_core_outages as f64
        }
    }

    /// Persistence rate of first-round alternates.
    pub fn persistence_rate(&self) -> f64 {
        if self.persistence_checked == 0 {
            0.0
        } else {
            self.persisted as f64 / self.persistence_checked as f64
        }
    }

    /// Ground-truth validity of splices.
    pub fn culprit_avoidance_rate(&self) -> f64 {
        if self.with_alternate == 0 {
            0.0
        } else {
            self.avoids_true_culprit as f64 / self.with_alternate as f64
        }
    }
}

/// Configuration.
#[derive(Clone, Debug)]
pub struct AlternatesConfig {
    /// Topology.
    pub topo: TopologyConfig,
    /// Mesh sites.
    pub sites: usize,
    /// Outages to draw.
    pub outages: usize,
}

impl AlternatesConfig {
    /// Bench-sized.
    pub fn standard(seed: u64) -> Self {
        AlternatesConfig {
            topo: TopologyConfig::medium(seed),
            sites: 20,
            outages: 200,
        }
    }

    /// Test-sized.
    pub fn tiny(seed: u64) -> Self {
        AlternatesConfig {
            topo: TopologyConfig::small(seed),
            sites: 14,
            outages: 40,
        }
    }
}

/// Collect measured paths of the mesh at `now`: traceroutes from every
/// site to every other site. Completed traceroutes witness a working path
/// *to* their destination; incomplete ones still witness the working
/// source-side segment up to their last responsive hop (usable on the
/// `from_source` side of a splice). `complete` flags the former.
fn mesh_traceroutes(
    dp: &DataPlane<'_>,
    prober: &mut Prober,
    now: Time,
    sites: &[AsId],
) -> Vec<(AsId, AsId, bool, MeasuredPath)> {
    let mut out = Vec::new();
    for &s in sites {
        for &d in sites {
            if s == d {
                continue;
            }
            let tr = prober.traceroute(dp, now, s, infra_addr(d));
            let routers = tr.responsive_routers();
            if !routers.is_empty() {
                out.push((s, d, tr.reached_destination, MeasuredPath { routers }));
            }
        }
    }
    out
}

/// Run the study.
pub fn run_alternates(cfg: &AlternatesConfig) -> AlternatesResult {
    let MeshWorld { net, sites } = mesh_world(&cfg.topo, cfg.sites);
    let mut dp = DataPlane::new(&net);
    let mut prober = Prober::with_defaults();
    let mut gen = ScenarioGen::new(cfg.topo.seed ^ 0x2222);

    // Healthy week: observe all mesh paths to build the three-tuple set.
    let healthy = mesh_traceroutes(&dp, &mut prober, Time::ZERO, &sites);
    let mut triples = TripleSet::new();
    for (_, _, _, p) in &healthy {
        triples.observe_path(&p.as_path());
    }

    let mut out = AlternatesResult::default();
    let mut attempt = 0;
    while out.outages < cfg.outages && attempt < cfg.outages * 4 {
        attempt += 1;
        let src = sites[attempt % sites.len()];
        let dst = sites[(attempt * 5 + 2) % sites.len()];
        if src == dst {
            continue;
        }
        let fwd_table = dp.table(infra_prefix(dst)).unwrap().clone();
        let Some(scenario) = gen.draw(&net, &fwd_table, src, infra_prefix(src), infra_prefix(dst))
        else {
            continue;
        };
        if sites.contains(&scenario.culprit()) {
            continue;
        }
        // The path between src and dst must actually fail (both directions
        // failing is the paper's outage definition; we accept any failing
        // round trip). Each outage gets its own time window so probe rate
        // limits do not bleed across rounds.
        let t = Time::from_mins(30 + 10 * attempt as u64);
        let n_failures = scenario.failures.len();
        for f in &scenario.failures {
            dp.failures_mut().add(f.clone().window(t, None));
        }
        let now = t + 60_000;
        let ping = prober.ping(&dp, now, src, infra_addr(dst));
        if ping.responded {
            for _ in 0..n_failures {
                let last = dp.failures().len() - 1;
                dp.failures_mut().remove(last);
            }
            continue;
        }
        out.outages += 1;
        let core = net.graph().tier(scenario.culprit()) <= 2;
        if core {
            out.transit_core_outages += 1;
        }

        // The AS where the failing traceroute terminates is what the splice
        // must avoid (the paper's rule); fall back to the culprit if
        // the traceroute shows nothing.
        let failing_tr = prober.traceroute(&dp, now, src, infra_addr(dst));
        let avoid = failing_tr
            .last_responsive_as()
            .filter(|_| !failing_tr.reached_destination)
            .map(|last| {
                // Avoid the AS *after* the last responsive hop when known.
                fwd_table
                    .as_path(src)
                    .and_then(|p| {
                        p.iter()
                            .position(|h| *h == last)
                            .and_then(|i| p.get(i + 1).copied())
                    })
                    .unwrap_or(last)
            })
            .unwrap_or_else(|| scenario.culprit());

        // Current working measurements during the outage.
        let current = mesh_traceroutes(&dp, &mut prober, now, &sites);
        // From the source: every working segment (even from incomplete
        // traceroutes) is a candidate left half. To the destination: only
        // completed traceroutes witness a working right half.
        let from_source: Vec<MeasuredPath> = current
            .iter()
            .filter(|(s, _, _, _)| *s == src)
            .map(|(_, _, _, p)| p.clone())
            .collect();
        let to_destination: Vec<MeasuredPath> = current
            .iter()
            .filter(|(_, d, complete, _)| *d == dst && *complete)
            .map(|(_, _, _, p)| p.clone())
            .collect();
        let spliced = splice_alternate_path(&SpliceInput {
            from_source: &from_source,
            to_destination: &to_destination,
            avoid,
            triples: &triples,
        });
        if let Some(sp) = spliced {
            out.with_alternate += 1;
            if core {
                out.transit_core_with_alternate += 1;
            }
            if !sp.as_path.contains(&scenario.culprit()) {
                out.avoids_true_culprit += 1;
            }
            // Persistence: re-run the splice search from fresh measurements
            // later in the outage (the paper checks each round).
            out.persistence_checked += 1;
            let later = now + 1_800_000;
            let again = mesh_traceroutes(&dp, &mut prober, later, &sites);
            let from2: Vec<MeasuredPath> = again
                .iter()
                .filter(|(s, _, _, _)| *s == src)
                .map(|(_, _, _, p)| p.clone())
                .collect();
            let to2: Vec<MeasuredPath> = again
                .iter()
                .filter(|(_, d, complete, _)| *d == dst && *complete)
                .map(|(_, _, _, p)| p.clone())
                .collect();
            if splice_alternate_path(&SpliceInput {
                from_source: &from2,
                to_destination: &to2,
                avoid,
                triples: &triples,
            })
            .is_some()
            {
                out.persisted += 1;
            }
        }

        for _ in 0..n_failures {
            let last = dp.failures().len() - 1;
            dp.failures_mut().remove(last);
        }
    }
    out
}

/// The §2.2 table.
pub fn alternates_table(r: &AlternatesResult) -> Table {
    let mut t = Table::new(
        "§2.2 Policy-compliant alternate paths during outages (spliced)",
        &["metric", "paper", "measured", "n"],
    );
    t.row(&[
        "outages with spliced alternate path".into(),
        "49%".into(),
        pct(r.rate()),
        r.outages.to_string(),
    ]);
    t.row(&[
        "  ... failures in core (tier<=2) transit".into(),
        "83% (>=1h outages)".into(),
        pct(r.core_rate()),
        r.transit_core_outages.to_string(),
    ]);
    t.row(&[
        "first-round alternates persisting".into(),
        "98%".into(),
        pct(r.persistence_rate()),
        r.persistence_checked.to_string(),
    ]);
    t.row(&[
        "splices avoiding the true culprit (ground truth)".into(),
        "n/a".into(),
        pct(r.culprit_avoidance_rate()),
        r.with_alternate.to_string(),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_alternates_study() {
        let r = run_alternates(&AlternatesConfig::tiny(7));
        assert!(r.outages >= 10, "outages {}", r.outages);
        // Small meshes only witness a fraction of the alternates that a
        // 300-site PlanetLab view would; just require that some exist and
        // that the rate is a valid fraction.
        let rate = r.rate();
        assert!(r.with_alternate >= 1, "no alternates found at all");
        assert!((0.0..=1.0).contains(&rate));
        if r.persistence_checked > 0 {
            assert!(r.persistence_rate() >= 0.9);
        }
    }
}
