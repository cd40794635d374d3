//! Shared experiment environments.

use lg_asmap::{AsGraph, AsId, GraphBuilder, TopologyConfig};
use lg_bgp::Prefix;
use lg_sim::Network;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// The standard production prefix used across experiments (the deployment's
/// 184.164.224.0/19 sliced into a /20 production + /19 sentinel).
pub fn production_prefix() -> Prefix {
    Prefix::from_octets(184, 164, 224, 0, 20)
}

/// The covering sentinel prefix.
pub fn sentinel_prefix() -> Prefix {
    Prefix::from_octets(184, 164, 224, 0, 19)
}

/// A BGP-Mux-style deployment: a generated Internet with a fresh origin AS
/// attached to `n_providers` transit providers in different regions of the
/// hierarchy, plus a population of collector-peer ASes whose routes the
/// experiments observe.
pub struct MuxWorld {
    /// The network (generated topology + the origin AS).
    pub net: Network,
    /// The origin (LIFEGUARD) AS.
    pub origin: AsId,
    /// Its providers (the "mux" attachment points).
    pub providers: Vec<AsId>,
    /// Route-collector peer ASes (observers).
    pub collector_peers: Vec<AsId>,
}

/// Attach a new origin with `n_providers` providers drawn from distinct
/// transit ASes of the generated graph, spreading attachments across the
/// provider pool for path disjointness (as the five university muxes were).
pub fn mux_world(cfg: &TopologyConfig, n_providers: usize, observers: usize) -> MuxWorld {
    let graph = cfg.generate();
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x9E37_79B9);
    // Provider candidates: tier-2/3 transit ASes, highest degree first so
    // attachments resemble real university upstreams.
    let mut transit: Vec<AsId> = graph
        .transit_ases()
        .into_iter()
        .filter(|a| graph.tier(*a) >= 2)
        .collect();
    transit.sort_by_key(|a| std::cmp::Reverse(graph.degree(*a)));
    assert!(transit.len() >= n_providers, "not enough transit ASes");
    // Spread picks across the ranked list.
    let stride = (transit.len() / n_providers).max(1);
    let providers: Vec<AsId> = (0..n_providers)
        .map(|i| transit[(i * stride) % transit.len()])
        .collect();

    let mut b = GraphBuilder::from_graph(&graph);
    let origin = b.add_as();
    b.set_tier(origin, 4);
    for p in &providers {
        b.provider_customer(*p, origin);
    }
    let graph = b.build();

    // Route-collector peers on the real Internet are mostly transit ISPs
    // with a sprinkling of edge networks; mirror that mix.
    let mut transit_peers: Vec<AsId> = graph
        .transit_ases()
        .into_iter()
        .filter(|a| graph.tier(*a) >= 2 && !providers.contains(a))
        .collect();
    transit_peers.shuffle(&mut rng);
    let mut stubs: Vec<AsId> = graph
        .ases()
        .filter(|a| graph.is_stub(*a) && *a != origin)
        .collect();
    stubs.shuffle(&mut rng);
    let mut collector_peers: Vec<AsId> = Vec::with_capacity(observers);
    collector_peers.extend(transit_peers.into_iter().take(observers * 2 / 3));
    collector_peers.extend(stubs.into_iter().take(observers - collector_peers.len()));

    MuxWorld {
        net: Network::new(graph),
        origin,
        providers,
        collector_peers,
    }
}

/// A PlanetLab-like measurement mesh: a generated Internet plus a set of
/// edge "sites" used as vantage points and targets.
pub struct MeshWorld {
    /// The network.
    pub net: Network,
    /// Site ASes (multihomed stubs, shuffled deterministically).
    pub sites: Vec<AsId>,
}

/// Build a mesh world with up to `n_sites` sites.
pub fn mesh_world(cfg: &TopologyConfig, n_sites: usize) -> MeshWorld {
    let graph: AsGraph = cfg.generate();
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x51F3_11AA);
    let mut sites: Vec<AsId> = graph
        .ases()
        .filter(|a| graph.is_stub(*a) && graph.providers(*a).len() >= 2)
        .collect();
    sites.shuffle(&mut rng);
    sites.truncate(n_sites);
    MeshWorld {
        net: Network::new(graph),
        sites,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mux_world_attaches_origin() {
        let w = mux_world(&TopologyConfig::calibrated(64, 5), 3, 10);
        assert_eq!(w.providers.len(), 3);
        assert_eq!(w.net.graph().providers(w.origin).len(), 3);
        assert!(w.net.graph().is_stub(w.origin));
        assert_eq!(w.collector_peers.len(), 10);
        assert!(!w.collector_peers.contains(&w.origin));
        // Providers are distinct transit ASes.
        let mut p = w.providers.clone();
        p.dedup();
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn mesh_world_sites_are_multihomed_stubs() {
        let w = mesh_world(&TopologyConfig::calibrated(64, 6), 8);
        assert_eq!(w.sites.len(), 8);
        for s in &w.sites {
            assert!(w.net.graph().is_stub(*s));
            assert!(w.net.graph().providers(*s).len() >= 2);
        }
    }

    #[test]
    fn worlds_are_deterministic() {
        let a = mux_world(&TopologyConfig::calibrated(64, 5), 3, 10);
        let b = mux_world(&TopologyConfig::calibrated(64, 5), 3, 10);
        assert_eq!(a.providers, b.providers);
        assert_eq!(a.collector_peers, b.collector_peers);
    }
}
