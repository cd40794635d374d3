//! Tier-aware filter-policy deployment over a generated topology.
//!
//! Smith et al.'s Internet-scale poisoning study found three deployed
//! mechanisms that throttle BGP poisoning in the wild: max-AS-path-length
//! caps, poisoned-announcement filters at large transit networks, and
//! default routes at the edge. This module assigns those behaviors to the
//! ASes of a graph the way they are deployed on the real Internet — path
//! filters at transit tiers, poison/reserved-ASN drops concentrated at the
//! tier-1/tier-2 core, defaults at stubs — deterministically from a seed so
//! every experiment is replayable.
//!
//! `lg-asmap` knows nothing about BGP import machinery; this module only
//! *describes* the deployment ([`FilterAssignment`]). `lg-sim::Network`
//! translates the description into per-AS `ImportPolicy` values.

use crate::graph::AsGraph;
use crate::ids::AsId;

/// Deployment rates for the Smith et al. filter mechanisms. Each rate is
/// the fraction of *eligible* ASes (by tier) applying the mechanism.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FilterDeployment {
    /// Fraction of transit ASes (tiers 1–3) enforcing a path-length cap.
    pub path_len_rate: f64,
    /// The cap those ASes enforce (hops, prepends included).
    pub max_path_len: u8,
    /// Fraction of core ASes (tiers 1–2) dropping poisoned announcements
    /// (non-adjacent repeated ASNs).
    pub poison_drop_rate: f64,
    /// Fraction of core ASes (tiers 1–2) dropping paths with reserved ASNs.
    pub reserved_drop_rate: f64,
    /// Fraction of stub ASes pointing a default route at a provider.
    pub default_route_rate: f64,
    /// Seed for the per-AS deployment draw.
    pub seed: u64,
}

impl FilterDeployment {
    /// No filters anywhere — must be indistinguishable from a network that
    /// never had a filter layer.
    pub fn none() -> Self {
        FilterDeployment {
            path_len_rate: 0.0,
            max_path_len: u8::MAX,
            poison_drop_rate: 0.0,
            reserved_drop_rate: 0.0,
            default_route_rate: 0.0,
            seed: 0,
        }
    }

    /// Uniform deployment of every mechanism at `rate`, with the cap set
    /// low enough that poison+prepend announcements (but few organic paths)
    /// exceed it on the generated topologies.
    pub fn calibrated(rate: f64, seed: u64) -> Self {
        FilterDeployment {
            path_len_rate: rate,
            max_path_len: 6,
            poison_drop_rate: rate,
            reserved_drop_rate: rate,
            default_route_rate: rate,
            seed,
        }
    }

    /// Path-length caps only.
    pub fn path_len_only(rate: f64, cap: u8, seed: u64) -> Self {
        FilterDeployment {
            path_len_rate: rate,
            max_path_len: cap,
            ..Self::none_with_seed(seed)
        }
    }

    /// Poison drops at the core only.
    pub fn poison_drop_only(rate: f64, seed: u64) -> Self {
        FilterDeployment {
            poison_drop_rate: rate,
            ..Self::none_with_seed(seed)
        }
    }

    fn none_with_seed(seed: u64) -> Self {
        FilterDeployment {
            seed,
            ..Self::none()
        }
    }
}

/// The concrete per-AS outcome of a deployment draw, indexed by `AsId`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FilterAssignment {
    /// Per-AS path-length cap (`None` = no cap).
    pub max_path_len: Vec<Option<u8>>,
    /// Per-AS poisoned-announcement drop.
    pub drop_poisoned: Vec<bool>,
    /// Per-AS reserved-ASN drop.
    pub drop_reserved_asn: Vec<bool>,
    /// Per-AS default-route flag.
    pub default_route: Vec<bool>,
}

impl FilterAssignment {
    /// An assignment with every filter off (identity deployment).
    pub fn none(n: usize) -> Self {
        FilterAssignment {
            max_path_len: vec![None; n],
            drop_poisoned: vec![false; n],
            drop_reserved_asn: vec![false; n],
            default_route: vec![false; n],
        }
    }

    /// Does this assignment enable any filter anywhere?
    pub fn is_zero(&self) -> bool {
        self.max_path_len.iter().all(Option::is_none)
            && !self.drop_poisoned.iter().any(|b| *b)
            && !self.drop_reserved_asn.iter().any(|b| *b)
            && !self.default_route.iter().any(|b| *b)
    }

    /// Number of ASes with at least one import filter enabled.
    pub fn filtering_ases(&self) -> usize {
        (0..self.max_path_len.len())
            .filter(|&i| {
                self.max_path_len[i].is_some() || self.drop_poisoned[i] || self.drop_reserved_asn[i]
            })
            .count()
    }
}

/// splitmix64 — the deterministic per-AS coin.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One coin flip with probability `rate`, keyed by (seed, AS, mechanism).
fn flip(seed: u64, a: AsId, mechanism: u64, rate: f64) -> bool {
    if rate <= 0.0 {
        return false;
    }
    if rate >= 1.0 {
        return true;
    }
    let x = mix(seed ^ mechanism.wrapping_mul(0xA076_1D64_78BD_642F) ^ (a.0 as u64) << 1);
    ((x >> 11) as f64 / (1u64 << 53) as f64) < rate
}

/// Draw a tier-aware deployment over `graph`:
///
/// * path-length caps at transit ASes (tiers 1–3),
/// * poison / reserved-ASN drops at the core (tiers 1–2),
/// * default routes at stubs that have a provider.
///
/// The draw is a pure function of `(graph tiers, deployment)` — the same
/// seed always deploys the same filters at the same ASes.
pub fn assign_filters(graph: &AsGraph, d: &FilterDeployment) -> FilterAssignment {
    let n = graph.len();
    let mut fa = FilterAssignment::none(n);
    for a in graph.ases() {
        let i = a.0 as usize;
        let tier = graph.tier(a);
        if (1..=3).contains(&tier) && flip(d.seed, a, 1, d.path_len_rate) {
            fa.max_path_len[i] = Some(d.max_path_len);
        }
        if (1..=2).contains(&tier) {
            fa.drop_poisoned[i] = flip(d.seed, a, 2, d.poison_drop_rate);
            fa.drop_reserved_asn[i] = flip(d.seed, a, 3, d.reserved_drop_rate);
        }
        if graph.is_stub(a)
            && !graph.providers(a).is_empty()
            && flip(d.seed, a, 4, d.default_route_rate)
        {
            fa.default_route[i] = true;
        }
    }
    fa
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::TopologyConfig;

    #[test]
    fn zero_deployment_is_identity() {
        let g = TopologyConfig::calibrated(64, 3).generate();
        let fa = assign_filters(&g, &FilterDeployment::none());
        assert!(fa.is_zero());
        assert_eq!(fa, FilterAssignment::none(g.len()));
    }

    #[test]
    fn assignment_is_deterministic() {
        let g = TopologyConfig::calibrated(64, 3).generate();
        let d = FilterDeployment::calibrated(0.5, 99);
        assert_eq!(assign_filters(&g, &d), assign_filters(&g, &d));
        let d2 = FilterDeployment::calibrated(0.5, 100);
        assert_ne!(assign_filters(&g, &d), assign_filters(&g, &d2));
    }

    #[test]
    fn assignment_respects_tiers() {
        let g = TopologyConfig::calibrated(64, 5).generate();
        let fa = assign_filters(&g, &FilterDeployment::calibrated(1.0, 7));
        for a in g.ases() {
            let i = a.0 as usize;
            let tier = g.tier(a);
            // Poison/reserved drops only at the core.
            if tier > 2 {
                assert!(!fa.drop_poisoned[i] && !fa.drop_reserved_asn[i]);
            } else {
                assert!(fa.drop_poisoned[i] && fa.drop_reserved_asn[i]);
            }
            // Caps only at transit tiers.
            assert_eq!(fa.max_path_len[i].is_some(), (1..=3).contains(&tier));
            // Defaults only at stubs with a provider.
            if fa.default_route[i] {
                assert!(g.is_stub(a) && !g.providers(a).is_empty());
            }
        }
        assert!(fa.filtering_ases() > 0);
    }

    #[test]
    fn rates_scale_the_deployment() {
        let g = TopologyConfig::calibrated(1_000, 11).generate();
        let low = assign_filters(&g, &FilterDeployment::calibrated(0.1, 5));
        let high = assign_filters(&g, &FilterDeployment::calibrated(0.9, 5));
        assert!(low.filtering_ases() < high.filtering_ases());
        let full = assign_filters(&g, &FilterDeployment::calibrated(1.0, 5));
        let eligible = g.ases().filter(|a| (1..=3).contains(&g.tier(*a))).count();
        assert_eq!(full.filtering_ases(), eligible);
    }
}
