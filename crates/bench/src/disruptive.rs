//! §2.3 / §5.2: path diversity for failure avoidance.
//!
//! Forward paths: with five providers (the university BGP-Muxes), how often
//! can the origin dodge a failed last-hop AS link toward a destination by
//! egressing through a different provider? (Paper: 90%.)
//!
//! Reverse paths: how often can *selective poisoning* — poisoning an AS via
//! all providers but one — steer a remote AS off its first-hop link toward
//! our prefix while leaving it a route? (Paper: 73%.)

use crate::report::{pct, Table};
use crate::worlds::{production_prefix, MuxWorld};
use lg_asmap::AsId;
use lg_sim::dataplane::infra_prefix;
use lg_sim::{compute_routes, AnnouncementSpec};

/// Outcome of both diversity studies.
#[derive(Clone, Copy, Debug, Default)]
pub struct DiversityResult {
    /// Forward cases (destination ASes with a usable last-hop link).
    pub fwd_cases: usize,
    /// Forward cases where another provider avoids the failed link.
    pub fwd_avoidable: usize,
    /// Reverse cases (peer ASes with an identifiable first-hop link).
    pub rev_cases: usize,
    /// Reverse cases where selective poisoning shifts the peer off the
    /// link while keeping it routed.
    pub rev_avoidable: usize,
}

impl DiversityResult {
    /// Forward avoidance rate.
    pub fn fwd_rate(&self) -> f64 {
        if self.fwd_cases == 0 {
            0.0
        } else {
            self.fwd_avoidable as f64 / self.fwd_cases as f64
        }
    }

    /// Reverse (selective poisoning) avoidance rate.
    pub fn rev_rate(&self) -> f64 {
        if self.rev_cases == 0 {
            0.0
        } else {
            self.rev_avoidable as f64 / self.rev_cases as f64
        }
    }
}

/// Run both studies over a `n_providers`-homed origin against
/// `world.collector_peers`.
pub fn run_diversity(world: &MuxWorld) -> DiversityResult {
    let net = &world.net;
    let mut out = DiversityResult::default();

    // --- Forward study (§2.3): last-AS-link avoidance via provider choice.
    // One infra table per collector peer.
    for &peer in &world.collector_peers {
        let table = compute_routes(net, &AnnouncementSpec::plain(net, infra_prefix(peer), peer));
        // The origin's current route is the best among its providers'.
        let Some(cur) = table.as_path(world.origin) else {
            continue;
        };
        // cur = [provider, ..., X, peer]; the last link is (X, peer).
        if cur.len() < 2 {
            continue; // peer adjacent to a provider: no transit link to fail
        }
        let x = cur[cur.len() - 2];
        out.fwd_cases += 1;
        // Another provider's route avoids the link when it does not end
        // ... X, peer.
        let avoidable = world.providers.iter().any(|p| {
            if Some(*p) == cur.first().copied() {
                return false; // the current egress
            }
            match table.as_path(*p) {
                Some(path) => {
                    let n = path.len();
                    !(n >= 2 && path[n - 2] == x) && table.has_route(*p)
                }
                None => false,
            }
        });
        if avoidable {
            out.fwd_avoidable += 1;
        }
    }

    // --- Reverse study (§5.2): selective poisoning of each peer AS.
    let prefix = production_prefix();
    let baseline = compute_routes(
        net,
        &AnnouncementSpec::prepended(net, prefix, world.origin, 3),
    );
    for &peer in &world.collector_peers {
        let Some(first_hop) = baseline.next_hop(peer) else {
            continue;
        };
        if first_hop == world.origin {
            continue; // directly attached: no transit first hop to avoid
        }
        out.rev_cases += 1;
        // Poison `peer` via all providers except M, for each M in turn, and
        // succeed when any of them steers the peer.
        let ok = world.providers.iter().any(|keep_clean| {
            let poison_via: Vec<AsId> = world
                .providers
                .iter()
                .copied()
                .filter(|p| p != keep_clean)
                .collect();
            let spec =
                AnnouncementSpec::selective_poison(net, prefix, world.origin, &[peer], &poison_via);
            matches!(compute_routes(net, &spec).next_hop(peer), Some(nh) if nh != first_hop)
        });
        if ok {
            out.rev_avoidable += 1;
        }
    }
    out
}

/// §2.3's community experiment: announce with communities attached while
/// tier-1s strip them; count collector peers that still see the community,
/// split by whether their path crosses a tier-1. The paper found that every
/// AS reaching the prefix through a Tier-1 had lost the communities.
#[derive(Clone, Copy, Debug, Default)]
pub struct CommunityReach {
    /// Peers whose path crosses a tier-1.
    pub via_tier1: usize,
    /// ...that still carry the community (paper: 0).
    pub via_tier1_with_community: usize,
    /// Peers avoiding tier-1s entirely.
    pub other: usize,
    /// ...that still carry the community.
    pub other_with_community: usize,
}

/// Run the community-propagation probe over a mux world.
pub fn run_communities(world: &MuxWorld) -> CommunityReach {
    let mut net = world.net.clone();
    let tier1s: Vec<_> = net
        .graph()
        .ases()
        .filter(|a| net.graph().tier(*a) == 1)
        .collect();
    for a in tier1s {
        net.set_strips_communities(a, true);
    }
    let community = (65_000u32 << 16) | 1;
    let spec = AnnouncementSpec::prepended(&net, production_prefix(), world.origin, 3)
        .with_communities(vec![community]);
    let table = compute_routes(&net, &spec);
    let mut out = CommunityReach::default();
    for &p in &world.collector_peers {
        let Some(route) = table.route(p) else {
            continue;
        };
        let via_t1 = route.path.hops().iter().any(|h| net.graph().tier(*h) == 1);
        let has = route.communities.contains(&community);
        if via_t1 {
            out.via_tier1 += 1;
            if has {
                out.via_tier1_with_community += 1;
            }
        } else {
            out.other += 1;
            if has {
                out.other_with_community += 1;
            }
        }
    }
    out
}

/// One strategy's aggregate outcome in the footprint ablation.
#[derive(Clone, Copy, Debug, Default)]
pub struct FootprintStats {
    /// Cases where the target AS ended up avoiding the failing link while
    /// keeping a route.
    pub avoided: usize,
    /// Total ASes (excluding the steered target) whose next hop changed.
    pub disturbed: usize,
    /// Cases evaluated.
    pub cases: usize,
}

impl FootprintStats {
    /// Success rate.
    pub fn success(&self) -> f64 {
        if self.cases == 0 {
            0.0
        } else {
            self.avoided as f64 / self.cases as f64
        }
    }

    /// Mean collateral route changes per case.
    pub fn mean_disturbed(&self) -> f64 {
        if self.cases == 0 {
            0.0
        } else {
            self.disturbed as f64 / self.cases as f64
        }
    }
}

/// The Fig 3 ablation: to steer a remote AS `A` off its first-hop link
/// toward our prefix, compare the §2.3 traffic-engineering alternatives —
/// selective advertising and prepending — against selective poisoning, by
/// success rate and by how many *other* ASes get their routes disturbed.
#[derive(Clone, Copy, Debug, Default)]
pub struct FootprintComparison {
    /// Withdraw the announcement from the failing-side provider entirely.
    pub selective_advertising: FootprintStats,
    /// Prepend heavily via the failing-side provider (path length 6 vs 3).
    pub prepending: FootprintStats,
    /// Poison `A` everywhere.
    pub global_poison: FootprintStats,
    /// Poison `A` only via the failing side (the paper's technique).
    pub selective_poison: FootprintStats,
}

fn count_disturbed(
    net: &lg_sim::Network,
    base: &lg_sim::RouteTable,
    new: &lg_sim::RouteTable,
    steered: AsId,
) -> usize {
    net.graph()
        .ases()
        .filter(|a| *a != steered && *a != base.origin && base.next_hop(*a) != new.next_hop(*a))
        .count()
}

/// Run the footprint ablation over the collector peers of a multi-provider
/// world (each peer plays the role of the AS whose first-hop link fails).
pub fn run_footprint(world: &MuxWorld, max_cases: usize) -> FootprintComparison {
    let net = &world.net;
    let prefix = production_prefix();
    let baseline_spec = AnnouncementSpec::prepended(net, prefix, world.origin, 3);
    let base = compute_routes(net, &baseline_spec);
    let mut out = FootprintComparison::default();

    let mut evaluated = 0;
    for &peer in &world.collector_peers {
        if evaluated >= max_cases {
            break;
        }
        let Some(first_hop) = base.next_hop(peer) else {
            continue;
        };
        if first_hop == world.origin {
            continue;
        }
        // Which of our providers carries the peer's current route? That is
        // the "failing side" to steer away from.
        let Some(path) = base.as_path(peer) else {
            continue;
        };
        let Some(&via_provider) = path.iter().rev().find(|h| world.providers.contains(h)) else {
            continue;
        };
        evaluated += 1;

        let others: Vec<AsId> = world
            .providers
            .iter()
            .copied()
            .filter(|p| *p != via_provider)
            .collect();

        // The four strategies' what-ifs:
        // (a) selective advertising: drop the failing-side provider;
        // (b) prepend via the failing side (6 copies) vs 3 elsewhere;
        // (c) global poison of the peer;
        // (d) selective poison via the failing side only (the paper's).
        let mut seeds = Vec::new();
        for p in &world.providers {
            let copies = if *p == via_provider { 6 } else { 3 };
            seeds.push((*p, lg_bgp::AsPath::prepended_baseline(world.origin, copies)));
        }
        let specs = [
            AnnouncementSpec::via(
                prefix,
                world.origin,
                lg_bgp::AsPath::prepended_baseline(world.origin, 3),
                &others,
            ),
            AnnouncementSpec {
                prefix,
                origin: world.origin,
                seeds,
                communities: Vec::new(),
            },
            AnnouncementSpec::poisoned(net, prefix, world.origin, &[peer]),
            AnnouncementSpec::selective_poison(net, prefix, world.origin, &[peer], &[via_provider]),
        ];
        for (spec, stats) in specs.iter().zip([
            &mut out.selective_advertising,
            &mut out.prepending,
            &mut out.global_poison,
            &mut out.selective_poison,
        ]) {
            let t = compute_routes(net, spec);
            stats.cases += 1;
            let ok = match t.next_hop(peer) {
                Some(nh) => nh != first_hop,
                None => false,
            };
            if ok {
                stats.avoided += 1;
            }
            stats.disturbed += count_disturbed(net, &base, &t, peer);
        }
    }
    out
}

/// The footprint ablation table.
pub fn footprint_table(c: &FootprintComparison) -> Table {
    let mut t = Table::new(
        "Fig 3 ablation: steering one AS off a link — success vs collateral disruption",
        &[
            "strategy",
            "link avoided",
            "mean other ASes disturbed",
            "cases",
        ],
    );
    for (label, s) in [
        ("selective advertising", &c.selective_advertising),
        ("prepending (6 vs 3)", &c.prepending),
        ("global poisoning (cuts the target off)", &c.global_poison),
        ("selective poisoning (paper)", &c.selective_poison),
    ] {
        t.row(&[
            label.into(),
            pct(s.success()),
            format!("{:.1}", s.mean_disturbed()),
            s.cases.to_string(),
        ]);
    }
    t
}

/// The diversity table.
pub fn diversity_table(r: &DiversityResult) -> Table {
    let mut t = Table::new(
        "§2.3/§5.2 Path diversity: avoiding links via egress choice and selective poisoning",
        &["metric", "paper", "measured", "cases"],
    );
    t.row(&[
        "forward: last-hop link avoidable via other provider".into(),
        "90%".into(),
        pct(r.fwd_rate()),
        r.fwd_cases.to_string(),
    ]);
    t.row(&[
        "reverse: first-hop link avoided by selective poisoning".into(),
        "73%".into(),
        pct(r.rev_rate()),
        r.rev_cases.to_string(),
    ]);
    t
}

/// The §2.3 community-propagation table.
pub fn communities_table(c: &CommunityReach) -> Table {
    let mut t = Table::new(
        "§2.3 BGP communities as a notification channel (tier-1s strip them)",
        &["peer population", "paper", "still sees community", "peers"],
    );
    t.row(&[
        "route crosses a tier-1".into(),
        "0%".into(),
        format!("{}/{}", c.via_tier1_with_community, c.via_tier1),
        c.via_tier1.to_string(),
    ]);
    t.row(&[
        "route avoids tier-1s".into(),
        "n/a".into(),
        format!("{}/{}", c.other_with_community, c.other),
        c.other.to_string(),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worlds::mux_world;
    use lg_asmap::TopologyConfig;

    #[test]
    fn selective_poisoning_has_smallest_footprint() {
        let world = mux_world(&TopologyConfig::calibrated(64, 19), 3, 40);
        let c = run_footprint(&world, 25);
        assert!(c.selective_poison.cases >= 10, "{c:?}");
        // The paper's point: when selective poisoning works, it disturbs
        // (almost) nobody else, while selective advertising and global
        // poisoning shuffle many working routes.
        assert!(
            c.selective_poison.mean_disturbed() < c.selective_advertising.mean_disturbed(),
            "{c:?}"
        );
        assert!(
            c.selective_poison.mean_disturbed() <= c.global_poison.mean_disturbed(),
            "{c:?}"
        );
        // Global poisoning never counts as success here: poisoning A
        // everywhere makes A reject its own route entirely ("A will lack a
        // route entirely", §3.1.2) rather than steering it.
        assert_eq!(c.global_poison.success(), 0.0, "{c:?}");
        assert!(c.selective_poison.success() > 0.5, "{c:?}");
    }

    #[test]
    fn communities_never_survive_tier1_transit() {
        let world = mux_world(&TopologyConfig::calibrated(64, 17), 2, 30);
        let c = run_communities(&world);
        assert!(c.via_tier1 > 0, "need peers routing via tier-1");
        assert_eq!(c.via_tier1_with_community, 0, "paper: 0% through tier-1s");
        assert!(c.other_with_community == c.other, "clean paths keep them");
    }

    #[test]
    fn diversity_rates_in_band() {
        let world = mux_world(&TopologyConfig::calibrated(64, 13), 5, 30);
        let r = run_diversity(&world);
        assert!(r.fwd_cases >= 15, "fwd cases {}", r.fwd_cases);
        assert!(r.rev_cases >= 15, "rev cases {}", r.rev_cases);
        assert!(
            (0.4..=1.0).contains(&r.fwd_rate()),
            "fwd rate {}",
            r.fwd_rate()
        );
        assert!(
            (0.3..=1.0).contains(&r.rev_rate()),
            "rev rate {}",
            r.rev_rate()
        );
        // Forward diversity (choose your own egress) should be at least as
        // effective as steering remote ASes.
        assert!(r.fwd_rate() >= r.rev_rate() - 0.1);
    }
}
