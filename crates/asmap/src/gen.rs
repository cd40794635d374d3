//! Synthetic Internet-like topology generation.
//!
//! The paper's large-scale experiments run over a measured AS graph (public
//! BGP feeds extended with 5M BitTorrent traceroute paths). We substitute a
//! hierarchical generator producing the structural properties those
//! experiments rely on:
//!
//! * a fully meshed tier-1 clique at the top (no providers),
//! * mid-tier transit ASes multi-homed to higher tiers with preferential
//!   attachment (yielding a heavy-tailed degree distribution),
//! * peering links between same-tier transit ASes,
//! * stub/edge ASes, most of them multi-homed, some single-homed (the paper
//!   notes that poisoning the only provider of a stub cuts it off).
//!
//! Generation is fully deterministic given the seed.

use crate::graph::{AsGraph, GraphBuilder};
use crate::ids::AsId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Which canned shape to generate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TopologyKind {
    /// Tiered Internet-like hierarchy (the default for experiments).
    Hierarchical,
    /// A simple provider chain `0 -> 1 -> ... -> n-1` (0 at the top); useful
    /// in unit tests.
    Chain,
    /// Internet-calibrated hierarchy for 10k-75k AS runs: same tiering as
    /// `Hierarchical` but with repeated-endpoint preferential attachment
    /// (O(1) amortized per provider pick instead of an O(pool) scan) and
    /// edge mixes tuned to measured AS-graph statistics. See
    /// [`TopologyConfig::calibrated`].
    Calibrated,
}

/// Parameters for the hierarchical generator.
#[derive(Clone, Debug)]
pub struct TopologyConfig {
    /// Shape to generate.
    pub kind: TopologyKind,
    /// Number of tier-1 ASes (fully meshed by peering).
    pub tier1: usize,
    /// Number of large transit ASes (tier 2).
    pub tier2: usize,
    /// Number of regional transit ASes (tier 3).
    pub tier3: usize,
    /// Number of stub / edge ASes.
    pub stubs: usize,
    /// Fraction of stubs that are multi-homed (two or more providers).
    pub stub_multihoming: f64,
    /// Probability that two same-tier transit ASes peer.
    pub transit_peering: f64,
    /// RNG seed; same seed, same graph.
    pub seed: u64,
}

impl Default for TopologyConfig {
    fn default() -> Self {
        TopologyConfig {
            kind: TopologyKind::Hierarchical,
            tier1: 8,
            tier2: 40,
            tier3: 150,
            stubs: 800,
            stub_multihoming: 0.75,
            transit_peering: 0.15,
            seed: 0x11f36a4d,
        }
    }
}

impl TopologyConfig {
    /// A small topology (a few dozen ASes) for fast tests.
    pub fn small(seed: u64) -> Self {
        TopologyConfig {
            kind: TopologyKind::Hierarchical,
            tier1: 3,
            tier2: 6,
            tier3: 12,
            stubs: 30,
            stub_multihoming: 0.75,
            transit_peering: 0.25,
            seed,
        }
    }

    /// A mid-sized topology (~1000 ASes) matching the defaults.
    pub fn medium(seed: u64) -> Self {
        TopologyConfig {
            seed,
            ..TopologyConfig::default()
        }
    }

    /// A large topology (~10k ASes) for the §5.1 style simulation sweeps.
    pub fn large(seed: u64) -> Self {
        TopologyConfig {
            kind: TopologyKind::Hierarchical,
            tier1: 12,
            tier2: 120,
            tier3: 900,
            stubs: 9000,
            stub_multihoming: 0.7,
            transit_peering: 0.06,
            seed,
        }
    }

    /// An Internet-calibrated topology of (almost exactly) `n` ASes.
    ///
    /// Tier sizes are derived from `n` to match the ratios of measured AS
    /// graphs (CAIDA serial-1 style relationship dumps): a tier-1 clique of
    /// `n^0.27` ASes (12 at 10k, ~20 at 75k), ~1.5% large transit, ~12%
    /// regional transit, ~86% stubs with 65% multihoming, and a valley-free
    /// provider/peer edge mix with 20-30% peering edges. Preferential
    /// attachment yields the heavy-tailed transit degree distribution;
    /// generation is O(V + E).
    pub fn calibrated(n: usize, seed: u64) -> Self {
        assert!(n >= 64, "calibrated topologies start at 64 ASes");
        let tier1 = ((n as f64).powf(0.27)).round().clamp(5.0, 24.0) as usize;
        let tier2 = ((n as f64 * 0.015).round() as usize).max(8);
        let tier3 = (n as f64 * 0.12).round() as usize;
        let stubs = n - tier1 - tier2 - tier3;
        TopologyConfig {
            kind: TopologyKind::Calibrated,
            tier1,
            tier2,
            tier3,
            stubs,
            stub_multihoming: 0.65,
            transit_peering: 0.10,
            seed,
        }
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

    /// Total AS count the config will produce.
    pub fn total(&self) -> usize {
        match self.kind {
            TopologyKind::Hierarchical | TopologyKind::Calibrated => {
                self.tier1 + self.tier2 + self.tier3 + self.stubs
            }
            TopologyKind::Chain => self.stubs.max(2),
        }
    }

    /// Generate the topology.
    pub fn generate(&self) -> AsGraph {
        match self.kind {
            TopologyKind::Hierarchical => generate_hierarchical(self),
            TopologyKind::Chain => generate_chain(self.total()),
            TopologyKind::Calibrated => generate_calibrated(self),
        }
    }
}

fn generate_chain(n: usize) -> AsGraph {
    let mut b = GraphBuilder::with_ases(n);
    for i in 1..n {
        b.provider_customer(AsId(i as u32 - 1), AsId(i as u32));
    }
    for i in 0..n {
        b.set_tier(AsId(i as u32), if i == 0 { 1 } else { 2 });
    }
    b.build()
}

/// Pick a provider from `pool` with degree-preferential attachment.
fn pick_preferential(
    b: &GraphBuilder,
    pool: &[AsId],
    degrees: &[usize],
    target: AsId,
    rng: &mut SmallRng,
) -> Option<AsId> {
    // Weight = degree + 1 so zero-degree candidates remain reachable.
    // are_adjacent scans the first argument's list; the target's is the
    // short one (its providers so far), so test from that side.
    let candidates: Vec<AsId> = pool
        .iter()
        .copied()
        .filter(|p| *p != target && !b.are_adjacent(target, *p))
        .collect();
    if candidates.is_empty() {
        return None;
    }
    let total: usize = candidates.iter().map(|c| degrees[c.index()] + 1).sum();
    let mut pick = rng.gen_range(0..total);
    for c in &candidates {
        let w = degrees[c.index()] + 1;
        if pick < w {
            return Some(*c);
        }
        pick -= w;
    }
    candidates.last().copied()
}

fn generate_hierarchical(cfg: &TopologyConfig) -> AsGraph {
    assert!(cfg.tier1 >= 1, "need at least one tier-1 AS");
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let total = cfg.total();
    let mut b = GraphBuilder::with_ases(total);
    let mut degrees = vec![0usize; total];

    let tier1: Vec<AsId> = (0..cfg.tier1 as u32).map(AsId).collect();
    let tier2: Vec<AsId> = (cfg.tier1 as u32..(cfg.tier1 + cfg.tier2) as u32)
        .map(AsId)
        .collect();
    let t3_start = (cfg.tier1 + cfg.tier2) as u32;
    let tier3: Vec<AsId> = (t3_start..t3_start + cfg.tier3 as u32).map(AsId).collect();
    let stub_start = t3_start + cfg.tier3 as u32;
    let stubs: Vec<AsId> = (stub_start..stub_start + cfg.stubs as u32)
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
            degrees[tier1[i].index()] += 1;
            degrees[tier1[j].index()] += 1;
        }
    }

    // Draw providers from `pools[0]`, falling back to later pools when the
    // preferred one is exhausted (empty, or the child is already adjacent to
    // every member). Without the fallback a degenerate config — e.g. zero
    // tier-3 ASes with stubs that roll a tier-3 draw — silently produced
    // provider-less, disconnected stubs. The fallback consumes no RNG when
    // a pool fails (pick_preferential bails before sampling), so graphs for
    // the existing presets, where pools never run dry, are unchanged.
    let attach = |b: &mut GraphBuilder,
                  degrees: &mut Vec<usize>,
                  rng: &mut SmallRng,
                  child: AsId,
                  pools: &[&[AsId]],
                  n_providers: usize| {
        for _ in 0..n_providers {
            for pool in pools {
                if let Some(p) = pick_preferential(b, pool, degrees, child, rng) {
                    b.provider_customer(p, child);
                    degrees[p.index()] += 1;
                    degrees[child.index()] += 1;
                    break;
                }
            }
        }
    };

    // Tier-2: 2-3 tier-1 providers each (large transit networks are richly
    // connected upward).
    for &t2 in &tier2 {
        let n = (2 + rng.gen_range(0..2usize)).min(tier1.len());
        attach(&mut b, &mut degrees, &mut rng, t2, &[&tier1], n);
    }
    // Tier-2 peering.
    for i in 0..tier2.len() {
        for j in i + 1..tier2.len() {
            if rng.gen_bool(cfg.transit_peering) && !b.are_adjacent(tier2[i], tier2[j]) {
                b.peer(tier2[i], tier2[j]);
                degrees[tier2[i].index()] += 1;
                degrees[tier2[j].index()] += 1;
            }
        }
    }

    // Tier-3: 2-3 providers drawn mostly from tier-2, occasionally tier-1
    // (regional transit is effectively always multihomed).
    for &t3 in &tier3 {
        let n = 2 + rng.gen_range(0..2usize);
        let pools: [&[AsId]; 2] = if rng.gen_bool(0.15) {
            [&tier1, &tier2]
        } else {
            [&tier2, &tier1]
        };
        attach(&mut b, &mut degrees, &mut rng, t3, &pools, n);
    }
    // Tier-3 peering (regional IXP-style).
    let t3_peering = (cfg.transit_peering * 0.8).min(1.0);
    if tier3.len() > 1 {
        let tries = tier3.len() * 4;
        for _ in 0..tries {
            let i = rng.gen_range(0..tier3.len());
            let j = rng.gen_range(0..tier3.len());
            if i != j && rng.gen_bool(t3_peering) && !b.are_adjacent(tier3[i], tier3[j]) {
                b.peer(tier3[i], tier3[j]);
                degrees[tier3[i].index()] += 1;
                degrees[tier3[j].index()] += 1;
            }
        }
    }

    // Stubs: multi-homed with probability `stub_multihoming`, providers from
    // tier-3 (mostly) or tier-2.
    for &s in &stubs {
        let multi = rng.gen_bool(cfg.stub_multihoming);
        let n = if multi {
            2 + rng.gen_range(0..2usize)
        } else {
            1
        };
        for _ in 0..n {
            let pools: [&[AsId]; 3] = if rng.gen_bool(0.25) {
                [&tier2, &tier3, &tier1]
            } else {
                [&tier3, &tier2, &tier1]
            };
            attach(&mut b, &mut degrees, &mut rng, s, &pools, 1);
        }
    }

    b.build()
}

/// Degree-preferential provider pools for the calibrated generator.
///
/// Classic Barabási-Albert repeated-endpoint trick: every pool member starts
/// with one entry in `ball`; each time a member gains an edge it is pushed
/// again, so sampling a uniformly random ball index is degree+1-weighted.
/// A pick is O(1) amortized (rejection-sample on adjacency) instead of the
/// O(pool) filter-and-scan of `pick_preferential`, which is what makes 75k-AS
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
    /// rejections so a pick never fails while a valid candidate exists
    /// (the connectivity guarantee the invariant proptest checks).
    fn pick(&self, b: &GraphBuilder, child: AsId, rng: &mut SmallRng) -> Option<AsId> {
        if self.members.is_empty() {
            return None;
        }
        // are_adjacent scans the first argument's adjacency: test from the
        // child side, whose list is a handful of providers, not the
        // provider side, which can be thousands of customers at 75k.
        for _ in 0..16 {
            let p = self.ball[rng.gen_range(0..self.ball.len())];
            if p != child && !b.are_adjacent(child, p) {
                return Some(p);
            }
        }
        self.members
            .iter()
            .copied()
            .find(|p| *p != child && !b.are_adjacent(child, *p))
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

fn generate_calibrated(cfg: &TopologyConfig) -> AsGraph {
    assert!(cfg.tier1 >= 2, "calibrated graphs need a tier-1 clique");
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0xca11b8a7ed);
    let total = cfg.total();
    let mut b = GraphBuilder::with_ases(total);

    let tier1: Vec<AsId> = (0..cfg.tier1 as u32).map(AsId).collect();
    let tier2: Vec<AsId> = (cfg.tier1 as u32..(cfg.tier1 + cfg.tier2) as u32)
        .map(AsId)
        .collect();
    let t3_start = (cfg.tier1 + cfg.tier2) as u32;
    let tier3: Vec<AsId> = (t3_start..t3_start + cfg.tier3 as u32).map(AsId).collect();
    let stub_start = t3_start + cfg.tier3 as u32;
    let stubs: Vec<AsId> = (stub_start..stub_start + cfg.stubs as u32)
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
        let n = (2 + rng.gen_range(0..2usize)).min(tier1.len());
        for _ in 0..n {
            if let Some(p) = p1.pick(&b, t2, &mut rng) {
                b.provider_customer(p, t2);
                p1.bump(p);
            }
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
            let from_t1 = rng.gen_bool(0.15);
            let picked = if from_t1 {
                p1.pick(&b, t3, &mut rng)
                    .or_else(|| p2.pick(&b, t3, &mut rng))
            } else {
                p2.pick(&b, t3, &mut rng)
                    .or_else(|| p1.pick(&b, t3, &mut rng))
            };
            if let Some(p) = picked {
                b.provider_customer(p, t3);
                // Tiers occupy contiguous id ranges, so membership is an
                // index comparison.
                if p.index() < cfg.tier1 {
                    p1.bump(p);
                } else {
                    p2.bump(p);
                }
            }
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
    // majors; the fallback chain keeps every stub connected even if a draw
    // lands on an exhausted pool.
    for &s in &stubs {
        let n = if rng.gen_bool(cfg.stub_multihoming) {
            2 + usize::from(rng.gen_bool(0.25))
        } else {
            1
        };
        for _ in 0..n {
            let roll: f64 = rng.gen_range(0.0..1.0);
            let picked = if roll < 0.70 {
                p3.pick(&b, s, &mut rng)
                    .or_else(|| p2.pick(&b, s, &mut rng))
                    .or_else(|| p1.pick(&b, s, &mut rng))
            } else if roll < 0.95 {
                p2.pick(&b, s, &mut rng)
                    .or_else(|| p3.pick(&b, s, &mut rng))
                    .or_else(|| p1.pick(&b, s, &mut rng))
            } else {
                p1.pick(&b, s, &mut rng)
                    .or_else(|| p2.pick(&b, s, &mut rng))
                    .or_else(|| p3.pick(&b, s, &mut rng))
            };
            if let Some(p) = picked {
                b.provider_customer(p, s);
                if p.index() < cfg.tier1 {
                    p1.bump(p);
                } else if p.index() < cfg.tier1 + cfg.tier2 {
                    p2.bump(p);
                } else {
                    p3.bump(p);
                }
            }
        }
    }

    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relationship::Relationship;

    #[test]
    fn chain_topology_shape() {
        let g = TopologyConfig {
            kind: TopologyKind::Chain,
            stubs: 4,
            ..TopologyConfig::small(1)
        }
        .generate();
        assert_eq!(g.len(), 4);
        assert_eq!(
            g.relationship(AsId(0), AsId(1)),
            Some(Relationship::Customer)
        );
        assert_eq!(
            g.relationship(AsId(3), AsId(2)),
            Some(Relationship::Provider)
        );
        assert!(g.is_stub(AsId(3)));
    }

    #[test]
    fn deterministic_given_seed() {
        let a = TopologyConfig::small(42).generate();
        let b = TopologyConfig::small(42).generate();
        assert_eq!(a.len(), b.len());
        assert_eq!(a.edge_count(), b.edge_count());
        for x in a.ases() {
            assert_eq!(a.neighbors(x), b.neighbors(x));
        }
    }

    #[test]
    fn different_seed_different_graph() {
        let a = TopologyConfig::small(1).generate();
        let b = TopologyConfig::small(2).generate();
        let differs =
            a.edge_count() != b.edge_count() || a.ases().any(|x| a.neighbors(x) != b.neighbors(x));
        assert!(differs);
    }

    #[test]
    fn tier1_is_clique_without_providers() {
        let cfg = TopologyConfig::small(7);
        let g = cfg.generate();
        for i in 0..cfg.tier1 as u32 {
            assert!(g.providers(AsId(i)).is_empty(), "tier-1 {i} has a provider");
            for j in 0..cfg.tier1 as u32 {
                if i != j {
                    assert_eq!(g.relationship(AsId(i), AsId(j)), Some(Relationship::Peer));
                }
            }
        }
    }

    #[test]
    fn every_non_tier1_has_a_provider() {
        let cfg = TopologyConfig::small(3);
        let g = cfg.generate();
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
        let cfg = TopologyConfig::small(11);
        let g = cfg.generate();
        for a in g.ases() {
            if g.tier(a) == 4 {
                assert!(g.customers(a).is_empty());
            }
        }
    }

    #[test]
    fn medium_size_matches_config() {
        let cfg = TopologyConfig::medium(5);
        let g = cfg.generate();
        assert_eq!(g.len(), cfg.total());
        // Sanity: average degree in a plausible Internet-like band.
        let avg = 2.0 * g.edge_count() as f64 / g.len() as f64;
        assert!(avg > 1.5 && avg < 10.0, "avg degree {avg}");
    }

    #[test]
    fn calibrated_matches_internet_statistics() {
        let cfg = TopologyConfig::calibrated_10k(3);
        let g = cfg.generate();
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
        let mh = multi as f64 / cfg.stubs as f64;
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
        assert_eq!(TopologyConfig::calibrated_10k(1).total(), 10_000);
        assert_eq!(TopologyConfig::calibrated_25k(1).total(), 25_000);
        assert_eq!(TopologyConfig::calibrated_75k(1).total(), 75_000);
    }

    #[test]
    fn exhausted_pool_falls_back_instead_of_isolating() {
        // Degenerate config: no tier-3 at all. Before the fallback chain,
        // stub draws that rolled the tier-3 pool silently attached nothing,
        // leaving provider-less stubs (the satellite-2 generator bug).
        let cfg = TopologyConfig {
            kind: TopologyKind::Hierarchical,
            tier1: 3,
            tier2: 4,
            tier3: 0,
            stubs: 40,
            stub_multihoming: 0.5,
            transit_peering: 0.2,
            seed: 99,
        };
        let g = cfg.generate();
        for a in g.ases() {
            if g.tier(a) > 1 {
                assert!(!g.providers(a).is_empty(), "{a} left provider-less");
            }
        }
    }

    #[test]
    fn some_stubs_single_homed_some_multi() {
        let cfg = TopologyConfig::medium(9);
        let g = cfg.generate();
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
