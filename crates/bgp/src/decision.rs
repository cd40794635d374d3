//! The BGP decision process.
//!
//! Route preference, most important first:
//!
//! 1. highest local preference — encoded as the relationship class
//!    (customer-learned > peer-learned > provider-learned), the standard
//!    Gao-Rexford economic ordering;
//! 2. shortest AS path (prepended copies count — this is why the paper's
//!    `O-O-O` baseline neutralizes the length increase of `O-A-O`);
//! 3. lowest neighbor (next-hop) AS id — a deterministic stand-in for the
//!    IGP/tie-break steps of real routers;
//! 4. lexicographically smallest path (final total-order tiebreak so
//!    selection is a pure function of the candidate set).
//!
//! Each engine implements this order over its own route store: the static
//! engine as a packed preference key, the dynamic engine as a scan over a
//! node's per-neighbor candidate slots, where level 4 never decides (two
//! candidates never share a neighbor). The tests below keep the order over
//! owned routes, `compare_routes`, as the reference.

#[cfg(test)]
mod tests {
    use crate::path::AsPath;
    use crate::prefix::Prefix;
    use crate::route::Route;
    use lg_asmap::{AsId, Relationship};
    use std::cmp::Ordering;

    /// Compare two routes for the same prefix; `Less` means `a` is preferred.
    fn compare_routes(a: &Route, b: &Route) -> Ordering {
        a.pref_class()
            .cmp(&b.pref_class())
            .then_with(|| a.path_len().cmp(&b.path_len()))
            .then_with(|| a.learned_from.cmp(&b.learned_from))
            .then_with(|| a.path.cmp(&b.path))
    }

    /// The best of `candidates` (already policy-filtered) under
    /// [`compare_routes`].
    fn select_best<'a, I: IntoIterator<Item = &'a Route>>(candidates: I) -> Option<&'a Route> {
        candidates.into_iter().min_by(|a, b| compare_routes(a, b))
    }

    fn route(rel: Relationship, hops: Vec<u32>, from: u32) -> Route {
        Route {
            prefix: Prefix::from_octets(10, 0, 0, 0, 16),
            path: AsPath::from_hops(hops.into_iter().map(AsId).collect()),
            learned_from: AsId(from),
            rel,
            communities: vec![],
        }
    }

    #[test]
    fn customer_beats_shorter_provider_path() {
        let customer = route(Relationship::Customer, vec![1, 2, 3, 4], 1);
        let provider = route(Relationship::Provider, vec![5, 6], 5);
        assert_eq!(compare_routes(&customer, &provider), Ordering::Less);
        assert_eq!(select_best([&customer, &provider]).unwrap(), &customer);
    }

    #[test]
    fn peer_beats_provider() {
        let peer = route(Relationship::Peer, vec![1, 2, 3], 1);
        let provider = route(Relationship::Provider, vec![5, 2, 3], 5);
        assert_eq!(select_best([&peer, &provider]).unwrap(), &peer);
    }

    #[test]
    fn shorter_path_wins_within_class() {
        let short = route(Relationship::Peer, vec![9, 3], 9);
        let long = route(Relationship::Peer, vec![1, 2, 3], 1);
        assert_eq!(select_best([&long, &short]).unwrap(), &short);
    }

    #[test]
    fn prepending_counts_toward_length() {
        let prepended = route(Relationship::Peer, vec![7, 100, 100, 100], 7);
        let plain = route(Relationship::Peer, vec![8, 100], 8);
        assert_eq!(select_best([&prepended, &plain]).unwrap(), &plain);
    }

    #[test]
    fn next_hop_id_breaks_ties() {
        let a = route(Relationship::Peer, vec![3, 100], 3);
        let b = route(Relationship::Peer, vec![5, 100], 5);
        assert_eq!(select_best([&b, &a]).unwrap(), &a);
    }

    #[test]
    fn selection_is_order_independent() {
        let a = route(Relationship::Provider, vec![3, 100], 3);
        let b = route(Relationship::Customer, vec![5, 2, 100], 5);
        let c = route(Relationship::Peer, vec![4, 100], 4);
        let fwd = select_best([&a, &b, &c]).unwrap().clone();
        let rev = select_best([&c, &b, &a]).unwrap().clone();
        assert_eq!(fwd, rev);
        assert_eq!(fwd, b);
    }

    #[test]
    fn empty_candidate_set_yields_none() {
        assert!(select_best(std::iter::empty()).is_none());
    }
}
