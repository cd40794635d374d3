//! Filter-policy matrices for the churn and differential harnesses.
//!
//! The churn invariants, the engine-equivalence check, and the dynamic
//! fuzz sweep all drive the engines under filtering; this module gives
//! them one shared vocabulary of adversarial filter
//! deployments to sweep, selectable from the environment so CI can run
//! the same harness once per matrix point.

use crate::network::Network;
use lg_asmap::{assign_filters, FilterAssignment, FilterDeployment};

/// A named point in the filter-deployment matrix the differential
/// harnesses sweep. Ordered from "no adversary" to "everything Smith et
/// al. observed deployed at once".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FilterMatrix {
    /// No filters anywhere — must be byte-identical to the pre-filter
    /// engines (pinned by `tests/filter_policies.rs`).
    None,
    /// Max-AS-path-length caps at transit tiers only.
    PathLenOnly,
    /// Poisoned-announcement drops at the tier-1/tier-2 core only.
    Tier1PoisonDrop,
    /// Tier-aware defaults: caps, poison and reserved-ASN drops, and
    /// stub default routes, all at a calibrated deployment rate.
    DefaultsAll,
}

impl FilterMatrix {
    /// Every matrix point, in sweep order.
    pub const ALL: [FilterMatrix; 4] = [
        FilterMatrix::None,
        FilterMatrix::PathLenOnly,
        FilterMatrix::Tier1PoisonDrop,
        FilterMatrix::DefaultsAll,
    ];

    /// The matrix point selected by `LG_FILTER_MATRIX`
    /// (`none | path-len | poison-drop | all`), or `None` when unset —
    /// callers sweeping [`Self::ALL`] usually want the unset default.
    pub fn from_env() -> Option<FilterMatrix> {
        let v = std::env::var("LG_FILTER_MATRIX").ok()?;
        match v.as_str() {
            "none" => Some(FilterMatrix::None),
            "path-len" => Some(FilterMatrix::PathLenOnly),
            "poison-drop" => Some(FilterMatrix::Tier1PoisonDrop),
            "all" => Some(FilterMatrix::DefaultsAll),
            other => panic!("LG_FILTER_MATRIX={other:?} — expected none|path-len|poison-drop|all"),
        }
    }

    /// Stable label for replay lines and CI job names.
    pub fn label(&self) -> &'static str {
        match self {
            FilterMatrix::None => "none",
            FilterMatrix::PathLenOnly => "path-len",
            FilterMatrix::Tier1PoisonDrop => "poison-drop",
            FilterMatrix::DefaultsAll => "all",
        }
    }

    /// The deployment this matrix point draws from, replayable from
    /// `seed`. Rates are fixed per point so a `(matrix, seed)` pair
    /// fully determines the per-AS assignment.
    pub fn deployment(&self, seed: u64) -> FilterDeployment {
        match self {
            FilterMatrix::None => FilterDeployment::none(),
            FilterMatrix::PathLenOnly => FilterDeployment::path_len_only(0.8, 6, seed),
            FilterMatrix::Tier1PoisonDrop => FilterDeployment::poison_drop_only(0.8, seed),
            FilterMatrix::DefaultsAll => FilterDeployment::calibrated(0.6, seed),
        }
    }

    /// Draw the assignment for `net`'s graph and install it. Returns the
    /// assignment so harnesses can re-apply the *identical* deployment to
    /// a rebuilt network (the dynamic fuzz oracle reconstructs the cut
    /// graph through `Network::new`, which starts with clean policies).
    pub fn apply(&self, net: &mut Network, seed: u64) -> FilterAssignment {
        let fa = assign_filters(net.graph(), &self.deployment(seed));
        net.apply_filter_assignment(&fa);
        fa
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lg_asmap::TopologyConfig;

    #[test]
    fn none_matrix_is_identity() {
        let mut net = Network::new(TopologyConfig::small(3).generate());
        let fa = FilterMatrix::None.apply(&mut net, 17);
        assert!(fa.is_zero());
        for a in net.graph().ases() {
            let p = net.policy(a);
            assert_eq!(p.max_path_len, None);
            assert!(!p.drop_poisoned && !p.drop_reserved_asn && !p.default_route);
        }
    }

    #[test]
    fn matrix_points_deploy_their_mechanism() {
        let g = TopologyConfig::small(9).generate();
        let mut caps = Network::new(g.clone());
        FilterMatrix::PathLenOnly.apply(&mut caps, 5);
        assert!(caps
            .graph()
            .ases()
            .any(|a| caps.policy(a).max_path_len.is_some()));
        assert!(!caps.graph().ases().any(|a| caps.policy(a).drop_poisoned));

        let mut drops = Network::new(g.clone());
        FilterMatrix::Tier1PoisonDrop.apply(&mut drops, 5);
        assert!(drops.graph().ases().any(|a| drops.policy(a).drop_poisoned));
        assert!(!drops
            .graph()
            .ases()
            .any(|a| drops.policy(a).max_path_len.is_some()));

        let mut all = Network::new(g);
        let fa = FilterMatrix::DefaultsAll.apply(&mut all, 5);
        assert!(fa.filtering_ases() > 0);
    }

    #[test]
    fn apply_is_replayable() {
        let g = TopologyConfig::small(4).generate();
        let mut a = Network::new(g.clone());
        let mut b = Network::new(g);
        let fa = FilterMatrix::DefaultsAll.apply(&mut a, 99);
        let fb = FilterMatrix::DefaultsAll.apply(&mut b, 99);
        assert_eq!(fa, fb);
    }
}
