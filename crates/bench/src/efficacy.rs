//! §5.1 Efficacy: do ASes find routes around poisoned ASes?

use crate::report::{pct, Table};
use crate::worlds::{production_prefix, MuxWorld};
use lg_asmap::{AsId, TopologyConfig};
use lg_bgp::Prefix;
use lg_sim::{compute_routes, AnnouncementSpec, SharedRouteCache};
use lg_workloads::harvest_poison_targets;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Outcome of the BGP-Mux-style poisoning sweep.
#[derive(Clone, Copy, Debug, Default)]
pub struct MuxEfficacy {
    /// (collector peer, poisoned AS) cases where the peer had routed via
    /// the poisoned AS.
    pub cases: usize,
    /// Cases where the peer found an alternate route post-poison.
    pub found_alternate: usize,
    /// Failed cases where the poisoned AS was the peer's only provider
    /// (the paper: two-thirds of its failures).
    pub sole_provider_cutoffs: usize,
}

impl MuxEfficacy {
    /// Fraction of cases with an alternate route.
    pub fn success_rate(&self) -> f64 {
        if self.cases == 0 {
            0.0
        } else {
            self.found_alternate as f64 / self.cases as f64
        }
    }
}

/// Replay the §5.1 BGP-Mux experiment: harvest the transit ASes on
/// collector-peer paths toward the origin's prefix, poison each (up to
/// `max_targets`), and count which peers that had routed through the
/// poisoned AS still hold a route afterwards.
pub fn run_mux_efficacy(world: &MuxWorld, max_targets: usize) -> MuxEfficacy {
    let prefix = production_prefix();
    let baseline = AnnouncementSpec::prepended(&world.net, prefix, world.origin, 3);
    let base_table = compute_routes(&world.net, &baseline);
    // The Cogent rule: never poison the origin's own providers.
    let targets = harvest_poison_targets(
        world.net.graph(),
        &base_table,
        &world.collector_peers,
        &world.providers,
    );
    // One poisoned what-if table per target, all of one origin: the cache
    // fills the prepended parent once and derives every poison from it.
    let cases: Vec<(AsId, Vec<AsId>)> = targets
        .into_iter()
        .take(max_targets)
        .filter_map(|a| {
            let affected: Vec<AsId> = world
                .collector_peers
                .iter()
                .copied()
                .filter(|p| {
                    base_table
                        .route(*p)
                        .is_some_and(|r| r.traverses(a) && *p != a)
                })
                .collect();
            (!affected.is_empty()).then_some((a, affected))
        })
        .collect();
    let cache = SharedRouteCache::new();
    let mut out = MuxEfficacy::default();
    for (a, affected) in cases {
        let spec = AnnouncementSpec::poisoned(&world.net, prefix, world.origin, &[a]);
        let table = cache.compute(&world.net, &spec);
        for p in affected {
            out.cases += 1;
            if table.has_route(p) {
                out.found_alternate += 1;
            } else if world.net.graph().providers(p) == vec![a] {
                out.sole_provider_cutoffs += 1;
            }
        }
    }
    out
}

/// Outcome of the large-scale simulation sweep.
#[derive(Clone, Copy, Debug, Default)]
pub struct SimEfficacy {
    /// Simulated (source, origin, poisoned transit AS) cases.
    pub cases: usize,
    /// Cases where an alternate policy-compliant path existed.
    pub with_alternate: usize,
}

impl SimEfficacy {
    /// Fraction with alternates.
    pub fn success_rate(&self) -> f64 {
        if self.cases == 0 {
            0.0
        } else {
            self.with_alternate as f64 / self.cases as f64
        }
    }
}

/// The §5.1 large-scale study: over a generated topology, for sampled
/// (source, origin) AS paths longer than 3 hops, poison each transit AS on
/// the path except the origin's immediate provider and test whether the
/// source retains a route.
pub fn run_largescale(cfg: &TopologyConfig, n_origins: usize, n_sources: usize) -> SimEfficacy {
    let graph = cfg.generate();
    let net = lg_sim::Network::new(graph);
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0xE551CACE);
    let mut stubs: Vec<AsId> = net
        .graph()
        .ases()
        .filter(|a| net.graph().is_stub(*a))
        .collect();
    stubs.shuffle(&mut rng);
    let origins: Vec<AsId> = stubs.iter().copied().take(n_origins).collect();
    let prefix = Prefix::from_octets(184, 164, 224, 0, 20);

    let cache = SharedRouteCache::new();
    let mut out = SimEfficacy::default();
    for origin in origins {
        let base = compute_routes(&net, &AnnouncementSpec::plain(&net, prefix, origin));
        let sources: Vec<AsId> = stubs
            .iter()
            .copied()
            .filter(|s| *s != origin && base.has_route(*s))
            .take(n_sources)
            .collect();
        // Collect every poison candidate with its affected sources.
        let mut candidates: Vec<(AsId, Vec<AsId>)> = Vec::new();
        for s in &sources {
            let path = base.as_path(*s).unwrap();
            // path is [next hop, ..., origin]; "transit ASes except the
            // destination's immediate provider" = all but the last two
            // entries (origin, its provider) and the source itself.
            if path.len() <= 3 {
                continue;
            }
            for a in &path[..path.len() - 2] {
                if *a == *s {
                    continue;
                }
                match candidates.iter_mut().find(|(c, _)| c == a) {
                    Some((_, v)) => v.push(*s),
                    None => candidates.push((*a, vec![*s])),
                }
            }
        }
        // This origin's poisoned what-ifs share one prepended parent, which
        // the cache fills on the first and derives the rest from.
        for (a, srcs) in candidates {
            let spec = AnnouncementSpec::poisoned(&net, prefix, origin, &[a]);
            let table = cache.compute(&net, &spec);
            for s in srcs {
                out.cases += 1;
                if table.has_route(s) {
                    out.with_alternate += 1;
                }
            }
        }
    }
    out
}

/// The section's summary table.
pub fn efficacy_table(mux: &MuxEfficacy, sim: &SimEfficacy) -> Table {
    let mut t = Table::new(
        "§5.1 Efficacy: alternate routes around poisoned ASes",
        &["experiment", "paper", "measured", "cases"],
    );
    t.row(&[
        "collector peers re-routed after poison".into(),
        "77%".into(),
        pct(mux.success_rate()),
        mux.cases.to_string(),
    ]);
    t.row(&[
        "  ...failures: poisoned sole provider".into(),
        "2/3 of failures".into(),
        format!(
            "{}/{}",
            mux.sole_provider_cutoffs,
            mux.cases - mux.found_alternate
        ),
        (mux.cases - mux.found_alternate).to_string(),
    ]);
    t.row(&[
        "large-scale simulated poisonings".into(),
        "90%".into(),
        pct(sim.success_rate()),
        sim.cases.to_string(),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worlds::mux_world;

    #[test]
    fn mux_efficacy_in_paper_band() {
        let world = mux_world(&TopologyConfig::medium(42), 3, 120);
        let r = run_mux_efficacy(&world, 40);
        assert!(r.cases >= 50, "cases = {}", r.cases);
        let rate = r.success_rate();
        assert!((0.55..=0.98).contains(&rate), "success rate {rate}");
    }

    #[test]
    fn largescale_matches_paper_shape() {
        // The enriched small topology has mostly <=3-hop paths (too short
        // to host a transit poison beyond the destination's provider), so
        // this runs on a medium topology with reduced samples.
        let r = run_largescale(&TopologyConfig::medium(9), 6, 12);
        assert!(r.cases > 50, "cases {}", r.cases);
        let rate = r.success_rate();
        assert!((0.6..=1.0).contains(&rate), "rate {rate}");
    }
}
