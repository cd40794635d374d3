//! Synthetic Internet-like topology generation.
//!
//! The paper's large-scale experiments run over a measured AS graph (public
//! BGP feeds extended with 5M BitTorrent traceroute paths). We substitute one
//! calibrated generator, [`TopologyConfig`], whose tier sizes and edge mix
//! follow measured AS-graph ratios and which produces the structural
//! properties those experiments rely on:
//!
//! * a fully meshed tier-1 clique at the top (no providers),
//! * large (tier-2) and regional (tier-3) transit ASes multi-homed to higher
//!   tiers with preferential attachment (a heavy-tailed degree
//!   distribution),
//! * IXP-style peering links between same-tier transit ASes,
//! * stub/edge ASes, most of them multi-homed, some single-homed (the paper
//!   notes that poisoning the only provider of a stub cuts it off).
//!
//! Every paper item, scenario, test fixture and benchmark workload runs on
//! it. Generation is fully deterministic given `n` and the seed.

use crate::graph::{AsGraph, GraphBuilder};
use crate::ids::AsId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The one topology model: an Internet-calibrated hierarchy of `n` ASes.
///
/// Tier sizes are derived from `n` to match the ratios of measured AS
/// graphs (CAIDA serial-1 style relationship dumps): a tier-1 clique of
/// `n^0.27` ASes (12 at 10k, ~20 at 75k), ~1.5% large transit, ~12%
/// regional transit, ~86% stubs with 65% multihoming, and a valley-free
/// provider/peer edge mix with 20-30% peering edges. Preferential
/// attachment yields the heavy-tailed transit degree distribution;
/// generation is O(V + E).
#[derive(Clone, Debug)]
pub struct TopologyConfig {
    /// Number of ASes; at least 64.
    pub n: usize,
    /// RNG seed; same seed, same graph.
    pub seed: u64,
}

impl TopologyConfig {
    /// A calibrated topology of exactly `n` ASes.
    pub fn calibrated(n: usize, seed: u64) -> Self {
        TopologyConfig { n, seed }
    }

    /// Calibrated 10k-AS preset (CI-scale full-Internet dry run).
    pub fn calibrated_10k(seed: u64) -> Self {
        Self::calibrated(10_000, seed)
    }

    /// Calibrated 25k-AS preset.
    pub fn calibrated_25k(seed: u64) -> Self {
        Self::calibrated(25_000, seed)
    }

    /// Calibrated 75k-AS preset (full current-Internet scale; opt-in for
    /// local runs via `LG_SCALE_MAX`).
    pub fn calibrated_75k(seed: u64) -> Self {
        Self::calibrated(75_000, seed)
    }

    /// Generate the topology.
    ///
    /// # Panics
    ///
    /// If `n` is below 64.
    pub fn generate(&self) -> AsGraph {
        generate_calibrated(&Tiers::of(self.n), self.seed)
    }
}

/// Tier sizes derived from the AS count; they sum to `n`. From 64 ASes up,
/// every transit tier has at least five members.
struct Tiers {
    tier1: usize,
    tier2: usize,
    tier3: usize,
    stubs: usize,
}

impl Tiers {
    fn of(n: usize) -> Self {
        assert!(n >= 64, "calibrated topologies start at 64 ASes");
        let tier1 = ((n as f64).powf(0.27)).round().clamp(5.0, 24.0) as usize;
        let tier2 = ((n as f64 * 0.015).round() as usize).max(8);
        let tier3 = (n as f64 * 0.12).round() as usize;
        let stubs = n - tier1 - tier2 - tier3;
        Tiers {
            tier1,
            tier2,
            tier3,
            stubs,
        }
    }
}

/// Share of stubs with two or more providers.
const STUB_MULTIHOMING: f64 = 0.65;

/// Degree-preferential provider pools for the calibrated generator.
///
/// Classic Barabási-Albert repeated-endpoint trick: every pool member starts
/// with one entry in `ball`; each time a member gains an edge it is pushed
/// again, so sampling a uniformly random ball index is degree+1-weighted.
/// A pick is O(1) amortized (rejection-sample on adjacency) instead of the
/// O(pool) filter-and-scan of a weighted draw, which is what makes 75k-AS
/// generation with ~65k stub attachments tractable.
struct PrefPool {
    members: Vec<AsId>,
    ball: Vec<AsId>,
}

impl PrefPool {
    fn new(members: Vec<AsId>) -> Self {
        let ball = members.clone();
        PrefPool { members, ball }
    }

    /// Record that `p` gained an edge, increasing its future weight.
    fn bump(&mut self, p: AsId) {
        self.ball.push(p);
    }

    /// Pick a member not equal to and not already adjacent to `child`.
    ///
    /// Falls back to a deterministic linear scan after a bounded number of
    /// rejections, so a pick never fails while a valid candidate exists. One
    /// always does: every pool has at least five members (see `Tiers::of`)
    /// and no AS takes more than three providers.
    fn pick(&self, b: &GraphBuilder, child: AsId, rng: &mut SmallRng) -> AsId {
        // are_adjacent scans the first argument's adjacency: test from the
        // child side, whose list is a handful of providers, not the
        // provider side, which can be thousands of customers at 75k.
        for _ in 0..16 {
            let p = self.ball[rng.gen_range(0..self.ball.len())];
            if p != child && !b.are_adjacent(child, p) {
                return p;
            }
        }
        self.members
            .iter()
            .copied()
            .find(|p| *p != child && !b.are_adjacent(child, *p))
            .expect("a pool has more members than any AS has providers")
    }
}

/// Peer `count` sampled same-pool pairs, degree-biasing one endpoint.
fn sample_peering(
    b: &mut GraphBuilder,
    pool: &mut PrefPool,
    count: usize,
    rng: &mut SmallRng,
) -> usize {
    if pool.members.len() < 2 {
        return 0;
    }
    let mut made = 0;
    let mut tries = 0;
    while made < count && tries < count * 4 {
        tries += 1;
        let i = pool.ball[rng.gen_range(0..pool.ball.len())];
        let j = pool.members[rng.gen_range(0..pool.members.len())];
        if i != j && !b.are_adjacent(i, j) {
            b.peer(i, j);
            pool.bump(i);
            pool.bump(j);
            made += 1;
        }
    }
    made
}

fn generate_calibrated(tiers: &Tiers, seed: u64) -> AsGraph {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xca11b8a7ed);
    let total = tiers.tier1 + tiers.tier2 + tiers.tier3 + tiers.stubs;
    let mut b = GraphBuilder::with_ases(total);

    let tier1: Vec<AsId> = (0..tiers.tier1 as u32).map(AsId).collect();
    let tier2: Vec<AsId> = (tiers.tier1 as u32..(tiers.tier1 + tiers.tier2) as u32)
        .map(AsId)
        .collect();
    let t3_start = (tiers.tier1 + tiers.tier2) as u32;
    let tier3: Vec<AsId> = (t3_start..t3_start + tiers.tier3 as u32)
        .map(AsId)
        .collect();
    let stub_start = t3_start + tiers.tier3 as u32;
    let stubs: Vec<AsId> = (stub_start..stub_start + tiers.stubs as u32)
        .map(AsId)
        .collect();

    for a in &tier1 {
        b.set_tier(*a, 1);
    }
    for a in &tier2 {
        b.set_tier(*a, 2);
    }
    for a in &tier3 {
        b.set_tier(*a, 3);
    }
    for a in &stubs {
        b.set_tier(*a, 4);
    }

    // Tier-1 clique.
    for i in 0..tier1.len() {
        for j in i + 1..tier1.len() {
            b.peer(tier1[i], tier1[j]);
        }
    }

    let mut p1 = PrefPool::new(tier1.clone());
    // The clique gives every tier-1 equal head-start weight; skip per-edge
    // bumps there (uniform weight is the same distribution, fewer entries).

    // Tier-2: 2-3 tier-1 providers.
    for &t2 in &tier2 {
        let n = 2 + rng.gen_range(0..2usize);
        for _ in 0..n {
            let p = p1.pick(&b, t2, &mut rng);
            b.provider_customer(p, t2);
            p1.bump(p);
        }
    }

    // Tier-2 peering: ~6 peers per large transit AS on average, IXP-style
    // degree-biased.
    let mut p2 = PrefPool::new(tier2.clone());
    sample_peering(&mut b, &mut p2, tier2.len() * 3, &mut rng);

    // Tier-3: 2-3 providers, mostly tier-2, occasionally tier-1.
    for &t3 in &tier3 {
        let n = 2 + usize::from(rng.gen_bool(0.3));
        for _ in 0..n {
            let pool = if rng.gen_bool(0.15) { &mut p1 } else { &mut p2 };
            let p = pool.pick(&b, t3, &mut rng);
            b.provider_customer(p, t3);
            pool.bump(p);
        }
    }

    // Tier-3 peering: ~6 peers per regional transit AS on average — the
    // serial-1 dumps put the bulk of visible p2p links at regional IXPs,
    // which is what lifts the p2p share of the edge mix toward ~20%.
    let mut p3 = PrefPool::new(tier3.clone());
    sample_peering(&mut b, &mut p3, tier3.len() * 3, &mut rng);

    // Stubs: 65% multihomed (2-3 providers), drawn 70/25/5 from
    // tier-3/tier-2/tier-1, preferential within each pool. The tier-1
    // sliver models enterprise networks buying transit straight from the
    // majors.
    for &s in &stubs {
        let n = if rng.gen_bool(STUB_MULTIHOMING) {
            2 + usize::from(rng.gen_bool(0.25))
        } else {
            1
        };
        for _ in 0..n {
            let roll: f64 = rng.gen_range(0.0..1.0);
            let pool = if roll < 0.70 {
                &mut p3
            } else if roll < 0.95 {
                &mut p2
            } else {
                &mut p1
            };
            let p = pool.pick(&b, s, &mut rng);
            b.provider_customer(p, s);
            pool.bump(p);
        }
    }

    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relationship::Relationship;

    #[test]
    fn tier1_is_clique_without_providers() {
        let g = TopologyConfig::calibrated(64, 7).generate();
        let tier1 = Tiers::of(64).tier1 as u32;
        for i in 0..tier1 {
            assert!(g.providers(AsId(i)).is_empty(), "tier-1 {i} has a provider");
            for j in 0..tier1 {
                if i != j {
                    assert_eq!(g.relationship(AsId(i), AsId(j)), Some(Relationship::Peer));
                }
            }
        }
    }

    #[test]
    fn every_non_tier1_has_a_provider() {
        let g = TopologyConfig::calibrated(64, 3).generate();
        for a in g.ases() {
            if g.tier(a) > 1 {
                assert!(
                    !g.providers(a).is_empty(),
                    "{a} (tier {}) lacks a provider",
                    g.tier(a)
                );
            }
        }
    }

    #[test]
    fn stubs_have_no_customers() {
        let g = TopologyConfig::calibrated(64, 11).generate();
        for a in g.ases() {
            if g.tier(a) == 4 {
                assert!(g.customers(a).is_empty());
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = TopologyConfig::calibrated(64, 42).generate();
        let b = TopologyConfig::calibrated(64, 42).generate();
        assert_eq!(a.len(), b.len());
        assert_eq!(a.edge_count(), b.edge_count());
        for x in a.ases() {
            assert_eq!(a.neighbors(x), b.neighbors(x));
        }
    }

    #[test]
    fn different_seed_different_graph() {
        let a = TopologyConfig::calibrated(64, 1).generate();
        let b = TopologyConfig::calibrated(64, 2).generate();
        let differs =
            a.edge_count() != b.edge_count() || a.ases().any(|x| a.neighbors(x) != b.neighbors(x));
        assert!(differs);
    }

    #[test]
    fn medium_size_matches_config() {
        let g = TopologyConfig::calibrated(1_000, 5).generate();
        assert_eq!(g.len(), 1_000);
        // Sanity: average degree in a plausible Internet-like band.
        let avg = 2.0 * g.edge_count() as f64 / g.len() as f64;
        assert!(avg > 1.5 && avg < 10.0, "avg degree {avg}");
    }

    #[test]
    #[should_panic(expected = "start at 64 ASes")]
    fn fewer_than_64_ases_is_refused() {
        TopologyConfig::calibrated(63, 1).generate();
    }

    #[test]
    fn calibrated_matches_internet_statistics() {
        let g = TopologyConfig::calibrated_10k(3).generate();
        assert_eq!(g.len(), 10_000);

        // Stub fraction ~86%, the measured Internet's edge-network share.
        let stubs = g.ases().filter(|a| g.is_stub(*a)).count();
        let frac = stubs as f64 / g.len() as f64;
        assert!((0.80..0.92).contains(&frac), "stub fraction {frac}");

        // Average degree in the measured 3.5-6 band.
        let avg = 2.0 * g.edge_count() as f64 / g.len() as f64;
        assert!((3.0..6.5).contains(&avg), "avg degree {avg}");

        // Peer edges (tier-1 clique + IXP-style lateral links) are a
        // 10-45% minority of the valley-free edge mix.
        let peer_entries: usize = g
            .ases()
            .map(|a| {
                g.neighbors(a)
                    .iter()
                    .filter(|(_, r)| *r == Relationship::Peer)
                    .count()
            })
            .sum();
        let peer_frac = peer_entries as f64 / (2.0 * g.edge_count() as f64);
        assert!(
            (0.10..0.45).contains(&peer_frac),
            "peer fraction {peer_frac}"
        );

        // Preferential attachment must give a heavy tail: the busiest
        // transit AS carries well over an order of magnitude more links
        // than the average AS.
        let max_deg = g.ases().map(|a| g.degree(a)).max().unwrap();
        assert!(
            max_deg as f64 > 20.0 * avg,
            "max degree {max_deg} too flat for a power-law tail (avg {avg})"
        );

        // Multihomed stubs dominate single-homed ones (0.65 setting).
        let multi = g
            .ases()
            .filter(|a| g.tier(*a) == 4 && g.providers(*a).len() >= 2)
            .count();
        let mh = multi as f64 / Tiers::of(10_000).stubs as f64;
        assert!((0.55..0.75).contains(&mh), "multihoming fraction {mh}");
    }

    #[test]
    fn calibrated_is_deterministic_and_seed_sensitive() {
        let a = TopologyConfig::calibrated(2_000, 7).generate();
        let b = TopologyConfig::calibrated(2_000, 7).generate();
        assert_eq!(a.edge_count(), b.edge_count());
        for x in a.ases() {
            assert_eq!(a.neighbors(x), b.neighbors(x));
        }
        let c = TopologyConfig::calibrated(2_000, 8).generate();
        let differs =
            a.edge_count() != c.edge_count() || a.ases().any(|x| a.neighbors(x) != c.neighbors(x));
        assert!(differs);
    }

    #[test]
    fn calibrated_presets_hit_requested_sizes() {
        for n in [64, 65, 10_000] {
            assert_eq!(TopologyConfig::calibrated(n, 1).generate().len(), n);
        }
        assert_eq!(TopologyConfig::calibrated_10k(1).n, 10_000);
        assert_eq!(TopologyConfig::calibrated_25k(1).n, 25_000);
        assert_eq!(TopologyConfig::calibrated_75k(1).n, 75_000);
    }

    #[test]
    fn some_stubs_single_homed_some_multi() {
        let g = TopologyConfig::calibrated(1_000, 9).generate();
        let mut single = 0;
        let mut multi = 0;
        for a in g.ases() {
            if g.tier(a) == 4 {
                match g.providers(a).len() {
                    0 | 1 => single += 1,
                    _ => multi += 1,
                }
            }
        }
        assert!(single > 0, "expected some single-homed stubs");
        assert!(multi > single, "expected mostly multi-homed stubs");
    }
}
