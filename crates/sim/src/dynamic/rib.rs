//! The dynamic engine's per-(node, prefix) state.
//!
//! A node keeps one [`Rec`] per prefix it holds any state for, in a vec
//! sorted by [`PrefixId`]. A record's neighbor-indexed arrays are
//! addressed by *slot*: a neighbor's index in the node's CSR adjacency
//! row, which is also the order of neighbor ids. An UPDATE arrives
//! carrying its sender's slot at the receiver, so the Adj-RIB-In write is
//! an array store, and [`best`] is a scan over one contiguous slice.

use crate::time::Time;
use lg_asmap::{AsId, Relationship};
use lg_bgp::{PathId, PrefixId};

/// A route as the engine holds it: three words, `Copy`, its path interned
/// in the simulation's [`lg_bgp::PathInterner`] arena. The Loc-RIB entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) struct IdRoute {
    /// Interned AS path (empty for the origin's self-route).
    pub path: PathId,
    /// Neighbor the route was learned from (the origin itself for its
    /// self-route).
    pub learned_from: AsId,
    /// Business relationship to that neighbor.
    pub rel: Relationship,
}

/// One Adj-RIB-In slot: the path the neighbor at this row position last
/// advertised and the engine accepted, with its hop count cached so
/// selection never visits the arena. An advertised path always holds at
/// least its sender's hop, so the empty path marks "no route".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) struct Cand {
    path: PathId,
    len: u32,
}

impl Cand {
    /// No route from this neighbor.
    pub const NONE: Cand = Cand {
        path: PathId::EMPTY,
        len: 0,
    };

    /// A received route of `len` hops.
    pub fn new(path: PathId, len: usize) -> Cand {
        debug_assert!(!path.is_empty(), "an advertised path is never empty");
        Cand {
            path,
            len: len as u32,
        }
    }

    /// True when the neighbor has a route here.
    pub fn is_some(self) -> bool {
        !self.path.is_empty()
    }
}

/// The decision process over one record's candidates: relationship class,
/// then hop count, then neighbor id. `row` is the node's adjacency row,
/// whose order the slots share, so a strict `<` keeps the lowest neighbor
/// id among equals. Two candidates never come from one neighbor, so the
/// owned decision process's last level (path content) never decides.
pub(super) fn best(cands: &[Cand], row: &[(AsId, Relationship)]) -> Option<IdRoute> {
    let mut pick: Option<(u8, u32, usize)> = None;
    for (i, c) in cands.iter().enumerate() {
        if !c.is_some() {
            continue;
        }
        let key = (row[i].1.pref_class(), c.len);
        if pick.is_none_or(|(class, len, _)| key < (class, len)) {
            pick = Some((key.0, key.1, i));
        }
    }
    pick.map(|(_, _, i)| IdRoute {
        path: cands[i].path,
        learned_from: row[i].0,
        rel: row[i].1,
    })
}

/// A node's sending state toward one neighbor for one prefix: duplicate
/// suppression, the MRAI deadline, and whether a fire is pending.
#[derive(Clone, Copy, Default)]
pub(super) struct OutSlot {
    /// Earliest time the next *announcement* may be sent.
    pub mrai_ready_at: Time,
    /// An MRAI fire for this (peer, prefix) is queued, and changes wait
    /// for it. Only the withdraw reset clears the flag under a live timer,
    /// which then fires harmlessly against the reset state.
    pub fire_pending: bool,
    /// Content of the last update actually sent (None = withdrawn / nothing
    /// ever sent). Outer Option: have we ever sent anything? Interned ids
    /// are hash-consed, so id equality here is content equality and
    /// duplicate suppression stays exact.
    pub last_sent: Option<Option<PathId>>,
}

impl OutSlot {
    /// Would sending `desired` repeat what the peer already holds?
    pub fn already_sent(&self, desired: Option<PathId>) -> bool {
        self.last_sent == Some(desired) || (self.last_sent.is_none() && desired.is_none())
    }

    /// Record that `content` goes out at `now`. MRAI paces announcements
    /// only; a withdrawal leaves the timer where it was.
    pub fn mark_sent(&mut self, content: Option<PathId>, now: Time, mrai_interval: u64) {
        self.last_sent = Some(content);
        if content.is_some() {
            self.mrai_ready_at = now + mrai_interval;
        }
    }
}

/// One AS's share of a prefix's measurement epoch: what
/// [`super::PrefixMetrics`] spreads over six maps, in one entry, so a send
/// or a Loc-RIB change is one write. The timestamps mean something only
/// beside a nonzero count.
#[derive(Clone, Copy, Default)]
pub(super) struct AsMetrics {
    pub updates_sent: u64,
    pub first_sent: Time,
    pub last_sent: Time,
    pub loc_changes: u64,
    pub first_loc_change: Time,
    pub last_loc_change: Time,
}

/// Everything one node holds for one prefix.
pub(super) struct Rec {
    /// The selected route (Loc-RIB). A lost route resets it to `None` in
    /// place; records are never removed.
    pub loc: Option<IdRoute>,
    /// Adj-RIB-In, one slot per neighbor in row order.
    pub cands: Box<[Cand]>,
    /// Sending state, one slot per neighbor in row order.
    pub out: Box<[OutSlot]>,
    /// This node's metrics for the epoch whose generation is `gen`.
    metrics: AsMetrics,
    gen: u32,
}

impl Rec {
    fn new(degree: usize) -> Rec {
        Rec {
            loc: None,
            cands: vec![Cand::NONE; degree].into_boxed_slice(),
            out: vec![OutSlot::default(); degree].into_boxed_slice(),
            metrics: AsMetrics::default(),
            gen: 0,
        }
    }

    /// The metrics of epoch generation `gen`, if this record has any.
    pub fn metrics(&self, gen: u32) -> Option<&AsMetrics> {
        (self.gen == gen).then_some(&self.metrics)
    }

    /// The metrics of epoch generation `gen`, started from zero when the
    /// record last booked an earlier epoch.
    pub fn metrics_mut(&mut self, gen: u32) -> &mut AsMetrics {
        if self.gen != gen {
            self.gen = gen;
            self.metrics = AsMetrics::default();
        }
        &mut self.metrics
    }
}

/// One node's records, sorted by id and probed only: nothing that feeds
/// output or event order iterates them in id order without sorting by
/// resolved prefix first. The ids sit apart from the records so a probe's
/// binary search reads one short array, not a stride of records.
#[derive(Default)]
pub(super) struct Node {
    pub ids: Vec<PrefixId>,
    pub recs: Vec<Rec>,
}

impl Node {
    pub fn index_of(&self, prefix: PrefixId) -> Option<usize> {
        self.ids.binary_search(&prefix).ok()
    }

    pub fn rec(&self, prefix: PrefixId) -> Option<&Rec> {
        self.index_of(prefix).map(|i| &self.recs[i])
    }

    /// Index of `prefix`'s record, made with `degree` slots on first use.
    /// Inserts memmove, but each (node, prefix) inserts once, and bulk
    /// announcements intern prefixes in ascending id order, making those
    /// inserts appends.
    pub fn index_or_insert(&mut self, prefix: PrefixId, degree: usize) -> usize {
        match self.ids.binary_search(&prefix) {
            Ok(i) => i,
            Err(i) => {
                self.ids.insert(i, prefix);
                self.recs.insert(i, Rec::new(degree));
                i
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lg_bgp::{AsPath, PathInterner, Prefix, Route};
    use std::cmp::Ordering;

    /// The decision process over owned routes, level for level as
    /// `lg_bgp::decision` documents it (and as the static engine's
    /// preference key orders): relationship class, path length, neighbor
    /// id, path content.
    fn reference(a: &Route, b: &Route) -> Ordering {
        a.pref_class()
            .cmp(&b.pref_class())
            .then_with(|| a.path_len().cmp(&b.path_len()))
            .then_with(|| a.learned_from.cmp(&b.learned_from))
            .then_with(|| a.path.cmp(&b.path))
    }

    /// One node's view of a candidate set: its row (sorted by neighbor id,
    /// as the CSR graph keeps it), the slot array the engine fills, and
    /// the same routes owned.
    fn load(
        paths: &mut PathInterner,
        case: &[(u32, Relationship, Vec<u32>)],
    ) -> (Vec<(AsId, Relationship)>, Vec<Cand>, Vec<Route>) {
        let mut row: Vec<(AsId, Relationship)> = case
            .iter()
            .map(|(from, rel, _)| (AsId(*from), *rel))
            .collect();
        row.sort_by_key(|(a, _)| *a);
        let mut cands = vec![Cand::NONE; row.len()];
        let mut owned = Vec::new();
        for (from, rel, hops) in case {
            let path = AsPath::from_hops(hops.iter().copied().map(AsId).collect());
            let slot = row.binary_search_by_key(&AsId(*from), |(a, _)| *a).unwrap();
            cands[slot] = Cand::new(paths.intern(&path), path.len());
            owned.push(Route {
                prefix: Prefix::from_octets(10, 0, 0, 0, 16),
                path,
                learned_from: AsId(*from),
                rel: *rel,
                communities: vec![],
            });
        }
        (row, cands, owned)
    }

    fn as_owned(r: IdRoute, paths: &PathInterner) -> (AsId, Relationship, AsPath) {
        (r.learned_from, r.rel, paths.materialize(r.path))
    }

    fn key(r: &Route) -> (AsId, Relationship, AsPath) {
        (r.learned_from, r.rel, r.path.clone())
    }

    #[test]
    fn arena_rib_selects_exactly_like_owned_rib() {
        // The same candidate set in a record's slots and as owned routes
        // under the reference decision process: identical pick at every
        // tiebreak level.
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
            // Neighbor id tiebreak, the lower id listed second.
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
            let (row, cands, owned) = load(&mut paths, &case);
            let want = owned.iter().min_by(|a, b| reference(a, b)).unwrap();
            let got = best(&cands, &row).unwrap();
            assert_eq!(as_owned(got, &paths), key(want));
        }
    }

    #[test]
    fn id_rib_selects_exactly_like_compare_routes() {
        // Drain one candidate set best-first through the slot scan and
        // through the reference order: the same order all the way down.
        let case: Vec<(u32, Relationship, Vec<u32>)> = vec![
            (1, Relationship::Provider, vec![1, 100]),
            (2, Relationship::Customer, vec![2, 3, 4, 100]),
            (9, Relationship::Peer, vec![9, 3]),
            (5, Relationship::Peer, vec![5, 100]),
            (3, Relationship::Peer, vec![3, 100]),
        ];
        let mut paths = PathInterner::new();
        let (row, mut cands, mut owned) = load(&mut paths, &case);
        owned.sort_by(reference);
        for want in &owned {
            let got = best(&cands, &row).expect("slots ran dry early");
            assert_eq!(as_owned(got, &paths), key(want));
            let slot = row
                .binary_search_by_key(&got.learned_from, |(a, _)| *a)
                .unwrap();
            cands[slot] = Cand::NONE;
        }
        assert!(best(&cands, &row).is_none());
    }
}
