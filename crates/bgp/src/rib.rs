//! Adjacency RIB-In: per-neighbor route storage with best-path selection.
//!
//! One representation, [`IdRibIn`]: candidates are [`IdRoute`]s — three
//! words, `Copy` — whose paths live in a shared [`PathInterner`] arena
//! (the message-level engine processes one UPDATE per neighbor per churn
//! step, and interning turns each of those from an O(path) clone into an
//! O(1) id copy) and whose prefix is a dense [`PrefixId`] key, so no
//! candidate carries a copy of the prefix. Selection replicates
//! [`crate::compare_routes`] over owned [`crate::Route`]s level for level,
//! which the tests below pin.

use crate::path::{PathId, PathInterner};
use crate::prefix_id::PrefixId;
use lg_asmap::{AsId, Relationship};

/// A received route in an [`IdRibIn`]. The RIB keys by [`PrefixId`], so the
/// prefix is not stored per candidate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IdRoute {
    /// Interned AS path (resolve through the owning [`PathInterner`]).
    pub path: PathId,
    /// Neighbor that announced it.
    pub learned_from: AsId,
    /// Business relationship to that neighbor.
    pub rel: Relationship,
}

/// Routes received from each neighbor, per prefix, plus best-path
/// selection: the state a single BGP speaker keeps for its neighbors.
/// Import filtering happens *before* insertion (the caller applies
/// [`crate::ImportPolicy`]); the RIB stores accepted routes only, mirroring
/// a router's post-policy Adj-RIB-In.
///
/// Layout: a table sorted by dense [`PrefixId`], probed by binary search,
/// each entry holding that prefix's candidates sorted by neighbor — the
/// dynamic engine probes this once or twice per received UPDATE, and two
/// levels of SipHash were most of that cost. A prefix's entry is never
/// removed: the last withdrawal leaves an empty candidate list behind, so
/// a full-table announce/withdraw cycle does not memmove the table once
/// per prefix (candidate lists are degree-sized; those do shift).
///
/// The table is probed only. The one walk that produces output,
/// [`Self::withdraw_neighbor`], sorts what it returns by resolved
/// [`Prefix`](crate::Prefix): id order is process-global interning order
/// and must never steer a reselection cascade or a log.
///
/// Selection ([`Self::best`]) is [`crate::compare_routes`] — relationship
/// class, then hop count, then neighbor id, then path content.
#[derive(Default, Debug, Clone)]
pub struct IdRibIn {
    routes: Vec<(PrefixId, Vec<IdRoute>)>,
}

impl IdRibIn {
    /// Empty RIB.
    pub fn new() -> Self {
        Self::default()
    }

    fn candidates_of(&self, prefix: PrefixId) -> &[IdRoute] {
        match self.routes.binary_search_by_key(&prefix, |&(p, _)| p) {
            Ok(i) => &self.routes[i].1,
            Err(_) => &[],
        }
    }

    /// Insert or replace the route from `route.learned_from` for `prefix`.
    /// Returns the replaced route, if any.
    pub fn insert(&mut self, prefix: PrefixId, route: IdRoute) -> Option<IdRoute> {
        let i = match self.routes.binary_search_by_key(&prefix, |&(p, _)| p) {
            Ok(i) => i,
            Err(i) => {
                self.routes.insert(i, (prefix, Vec::new()));
                i
            }
        };
        let per = &mut self.routes[i].1;
        match per.binary_search_by_key(&route.learned_from, |r| r.learned_from) {
            Ok(j) => Some(std::mem::replace(&mut per[j], route)),
            Err(j) => {
                per.insert(j, route);
                None
            }
        }
    }

    /// Withdraw the route from `neighbor` for `prefix`. Returns it if present.
    pub fn withdraw(&mut self, neighbor: AsId, prefix: PrefixId) -> Option<IdRoute> {
        let i = self
            .routes
            .binary_search_by_key(&prefix, |&(p, _)| p)
            .ok()?;
        let per = &mut self.routes[i].1;
        let j = per
            .binary_search_by_key(&neighbor, |r| r.learned_from)
            .ok()?;
        Some(per.remove(j))
    }

    /// Drop every route learned from `neighbor` (session reset / link down).
    /// Returns the affected prefix ids, sorted by the prefixes they resolve
    /// to (see the type docs).
    pub fn withdraw_neighbor(&mut self, neighbor: AsId) -> Vec<PrefixId> {
        let mut affected = Vec::new();
        for (prefix, per) in &mut self.routes {
            if let Ok(j) = per.binary_search_by_key(&neighbor, |r| r.learned_from) {
                per.remove(j);
                affected.push(*prefix);
            }
        }
        affected.sort_by_cached_key(|id| id.resolve());
        affected
    }

    /// The best route for `prefix` under the decision process.
    pub fn best(&self, prefix: PrefixId, paths: &PathInterner) -> Option<IdRoute> {
        self.candidates_of(prefix).iter().copied().min_by(|a, b| {
            a.rel
                .pref_class()
                .cmp(&b.rel.pref_class())
                .then_with(|| paths.len(a.path).cmp(&paths.len(b.path)))
                .then_with(|| a.learned_from.cmp(&b.learned_from))
                .then_with(|| paths.cmp_content(a.path, b.path))
        })
    }

    /// The route learned from a specific neighbor.
    pub fn from_neighbor(&self, neighbor: AsId, prefix: PrefixId) -> Option<&IdRoute> {
        let per = self.candidates_of(prefix);
        let j = per
            .binary_search_by_key(&neighbor, |r| r.learned_from)
            .ok()?;
        Some(&per[j])
    }

    /// All candidate routes for `prefix`, by neighbor id.
    pub fn candidates(&self, prefix: PrefixId) -> impl Iterator<Item = &IdRoute> {
        self.candidates_of(prefix).iter()
    }

    /// Number of (prefix, neighbor) entries.
    pub fn entry_count(&self) -> usize {
        self.routes.iter().map(|(_, per)| per.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decision::compare_routes;
    use crate::path::AsPath;
    use crate::prefix::Prefix;
    use crate::route::Route;
    use lg_asmap::Relationship;

    fn pfx() -> Prefix {
        Prefix::from_octets(10, 0, 0, 0, 16)
    }

    fn pid() -> PrefixId {
        PrefixId::of(pfx())
    }

    fn route(paths: &mut PathInterner, from: u32, rel: Relationship, hops: Vec<u32>) -> IdRoute {
        IdRoute {
            path: paths.intern(&AsPath::from_hops(hops.into_iter().map(AsId).collect())),
            learned_from: AsId(from),
            rel,
        }
    }

    /// The owned route an [`IdRoute`] stands for: what the decision
    /// process's reference comparator reads.
    fn owned(r: IdRoute, paths: &PathInterner) -> Route {
        Route {
            prefix: pfx(),
            path: paths.materialize(r.path),
            learned_from: r.learned_from,
            rel: r.rel,
            communities: vec![],
        }
    }

    #[test]
    fn insert_select_withdraw_cycle() {
        let mut paths = PathInterner::new();
        let mut rib = IdRibIn::new();
        rib.insert(
            pid(),
            route(&mut paths, 1, Relationship::Provider, vec![1, 100]),
        );
        rib.insert(
            pid(),
            route(&mut paths, 2, Relationship::Customer, vec![2, 3, 100]),
        );
        assert_eq!(rib.best(pid(), &paths).unwrap().learned_from, AsId(2));
        rib.withdraw(AsId(2), pid());
        assert_eq!(rib.best(pid(), &paths).unwrap().learned_from, AsId(1));
        rib.withdraw(AsId(1), pid());
        assert!(rib.best(pid(), &paths).is_none());
        assert_eq!(rib.entry_count(), 0);
    }

    #[test]
    fn reinsert_replaces_previous_route() {
        let mut paths = PathInterner::new();
        let mut rib = IdRibIn::new();
        rib.insert(
            pid(),
            route(&mut paths, 1, Relationship::Peer, vec![1, 2, 100]),
        );
        let old = rib.insert(
            pid(),
            route(&mut paths, 1, Relationship::Peer, vec![1, 100]),
        );
        assert!(old.is_some());
        assert_eq!(rib.entry_count(), 1);
        assert_eq!(paths.len(rib.best(pid(), &paths).unwrap().path), 2);
    }

    #[test]
    fn withdraw_neighbor_clears_all_its_routes() {
        let mut paths = PathInterner::new();
        let mut rib = IdRibIn::new();
        let other = Prefix::from_octets(20, 0, 0, 0, 16);
        let low = Prefix::from_octets(9, 9, 0, 0, 16);
        let (other_id, low_id) = (PrefixId::of(other), PrefixId::of(low));
        let r1 = route(&mut paths, 1, Relationship::Peer, vec![1, 100]);
        for id in [other_id, pid(), low_id] {
            rib.insert(id, r1);
        }
        rib.insert(
            pid(),
            route(&mut paths, 2, Relationship::Peer, vec![2, 100]),
        );
        let affected = rib.withdraw_neighbor(AsId(1));
        // Sorted by the prefixes themselves, whatever ids they drew.
        assert_eq!(affected, vec![low_id, pid(), other_id]);
        assert_eq!(rib.best(pid(), &paths).unwrap().learned_from, AsId(2));
        assert!(rib.best(other_id, &paths).is_none());
        assert!(rib.withdraw_neighbor(AsId(1)).is_empty());
    }

    #[test]
    fn from_neighbor_lookup() {
        let mut paths = PathInterner::new();
        let mut rib = IdRibIn::new();
        rib.insert(
            pid(),
            route(&mut paths, 1, Relationship::Peer, vec![1, 100]),
        );
        assert!(rib.from_neighbor(AsId(1), pid()).is_some());
        assert!(rib.from_neighbor(AsId(2), pid()).is_none());
        assert_eq!(rib.candidates(pid()).count(), 1);
    }

    #[test]
    fn arena_rib_selects_exactly_like_owned_rib() {
        // The same candidate set as interned routes in the RIB and as owned
        // `Route`s under `compare_routes`: identical pick at every tiebreak
        // level of the decision process.
        let cases: Vec<Vec<(u32, Relationship, Vec<u32>)>> = vec![
            // Class beats length.
            vec![
                (1, Relationship::Provider, vec![1, 100]),
                (2, Relationship::Customer, vec![2, 3, 4, 100]),
            ],
            // Length within class.
            vec![
                (9, Relationship::Peer, vec![9, 3]),
                (1, Relationship::Peer, vec![1, 2, 3]),
            ],
            // Neighbor id tiebreak.
            vec![
                (5, Relationship::Peer, vec![5, 100]),
                (3, Relationship::Peer, vec![3, 100]),
            ],
            // Same class and length again, paths differing mid-way.
            vec![
                (4, Relationship::Peer, vec![4, 2, 100]),
                (104, Relationship::Peer, vec![4, 1, 100]),
            ],
        ];
        for case in cases {
            let mut paths = PathInterner::new();
            let mut rib = IdRibIn::new();
            let mut reference: Vec<Route> = Vec::new();
            for (from, rel, hops) in &case {
                let r = route(&mut paths, *from, *rel, hops.clone());
                rib.insert(pid(), r);
                reference.push(owned(r, &paths));
            }
            let want = reference
                .iter()
                .min_by(|a, b| compare_routes(a, b))
                .unwrap();
            let got = rib.best(pid(), &paths).unwrap();
            assert_eq!(owned(got, &paths), *want);
        }
    }

    #[test]
    fn id_rib_selects_exactly_like_compare_routes() {
        // Drain one candidate set best-first through the RIB and through
        // the reference comparator over owned routes: same order all the
        // way down, so selection is level-for-level the decision process.
        let candidates: Vec<(u32, Relationship, Vec<u32>)> = vec![
            (1, Relationship::Provider, vec![1, 100]),
            (2, Relationship::Customer, vec![2, 3, 4, 100]),
            (9, Relationship::Peer, vec![9, 3]),
            (5, Relationship::Peer, vec![5, 100]),
            (3, Relationship::Peer, vec![3, 100]),
        ];
        let mut paths = PathInterner::new();
        let mut rib = IdRibIn::new();
        let mut reference: Vec<Route> = Vec::new();
        for (from, rel, hops) in &candidates {
            let r = route(&mut paths, *from, *rel, hops.clone());
            rib.insert(pid(), r);
            reference.push(owned(r, &paths));
        }
        assert_eq!(rib.entry_count(), reference.len());
        reference.sort_by(compare_routes);
        for want in &reference {
            let got = rib.best(pid(), &paths).expect("id RIB ran dry early");
            assert_eq!(owned(got, &paths), *want);
            rib.withdraw(want.learned_from, pid());
        }
        assert!(rib.best(pid(), &paths).is_none());
    }

    #[test]
    fn arena_rib_withdraw_of_never_announced_is_inert() {
        // Withdrawing a (neighbor, prefix) that was never announced must
        // return None and leave no residue, nor any effect on unrelated
        // entries.
        let mut paths = PathInterner::new();
        let mut rib = IdRibIn::new();
        assert!(rib.withdraw(AsId(1), pid()).is_none());
        assert_eq!(rib.entry_count(), 0);
        assert!(rib.withdraw_neighbor(AsId(1)).is_empty());

        rib.insert(
            pid(),
            route(&mut paths, 2, Relationship::Peer, vec![2, 100]),
        );
        // Wrong neighbor, right prefix; right neighbor, wrong prefix.
        assert!(rib.withdraw(AsId(1), pid()).is_none());
        let other = PrefixId::of(Prefix::from_octets(20, 0, 0, 0, 16));
        assert!(rib.withdraw(AsId(2), other).is_none());
        assert_eq!(rib.entry_count(), 1);
        assert_eq!(rib.best(pid(), &paths).unwrap().learned_from, AsId(2));
        // Double-withdraw: first succeeds, second is a no-op.
        assert!(rib.withdraw(AsId(2), pid()).is_some());
        assert!(rib.withdraw(AsId(2), pid()).is_none());
        assert_eq!(rib.entry_count(), 0);
    }

    #[test]
    fn arena_rib_reannounce_after_withdraw_reuses_interned_tail() {
        // A withdraw/re-announce cycle (the dominant pattern under link
        // flaps) must not grow the interner: the re-announced path
        // hash-conses back to the original id, and selection sees the
        // restored route as if it never left.
        let mut paths = PathInterner::new();
        let mut rib = IdRibIn::new();
        let r = route(&mut paths, 1, Relationship::Peer, vec![1, 100]);
        assert!(rib.insert(pid(), r).is_none());
        let id0 = rib.from_neighbor(AsId(1), pid()).unwrap().path;
        let nodes = paths.node_count();

        let gone = rib.withdraw(AsId(1), pid()).unwrap();
        assert_eq!(gone.path, id0);
        assert!(rib.best(pid(), &paths).is_none());

        let r = route(&mut paths, 1, Relationship::Peer, vec![1, 100]);
        assert_eq!(r.path, id0, "re-interned path must reuse the old id");
        assert_eq!(paths.node_count(), nodes, "interner grew on re-announce");
        rib.insert(pid(), r);
        let best = rib.best(pid(), &paths).unwrap();
        assert_eq!(best.learned_from, AsId(1));
        assert_eq!(best.path, id0);

        // A longer path sharing the tail only adds the new head node.
        let r2 = route(&mut paths, 3, Relationship::Peer, vec![3, 1, 100]);
        assert_eq!(paths.node_count(), nodes + 1);
        rib.insert(pid(), r2);
        assert_eq!(rib.best(pid(), &paths).unwrap().learned_from, AsId(1));
    }

    #[test]
    fn id_rib_withdraw_neighbor_returns_all_affected_ids() {
        let mut paths = PathInterner::new();
        let mut rib = IdRibIn::new();
        let a = pid();
        let b = PrefixId::of(Prefix::from_octets(20, 0, 0, 0, 16));
        let route = route(&mut paths, 1, Relationship::Peer, vec![1, 100]);
        rib.insert(a, route);
        rib.insert(b, route);
        rib.insert(
            a,
            IdRoute {
                learned_from: AsId(2),
                ..route
            },
        );
        assert_eq!(rib.withdraw_neighbor(AsId(1)), vec![a, b]);
        assert_eq!(rib.best(a, &paths).unwrap().learned_from, AsId(2));
        assert!(rib.best(b, &paths).is_none());
        assert_eq!(rib.entry_count(), 1);
    }

    #[test]
    fn full_table_announce_withdraw_cycles_keep_the_table() {
        // Withdrawing the last candidate of a prefix resets its entry in
        // place: re-announcing finds the slot again instead of shifting
        // the id-sorted table, which is what keeps a full-table
        // announce/withdraw cycle linear in the prefix count.
        let mut paths = PathInterner::new();
        let mut rib = IdRibIn::new();
        let r = route(&mut paths, 1, Relationship::Peer, vec![1, 100]);
        let ids: Vec<PrefixId> = (0..64u32)
            .map(|i| PrefixId::of(Prefix::new(0x3000_0000 + (i << 8), 24)))
            .collect();
        for _ in 0..3 {
            for id in &ids {
                assert!(rib.insert(*id, r).is_none());
            }
            assert_eq!(rib.entry_count(), ids.len());
            for id in &ids {
                assert_eq!(rib.withdraw(AsId(1), *id), Some(r));
            }
            assert_eq!(rib.entry_count(), 0);
            assert_eq!(rib.routes.len(), ids.len(), "slots are kept, not removed");
        }
    }
}
