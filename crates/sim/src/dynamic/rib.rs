//! The dynamic engine's per-(node, prefix) state.
//!
//! A node keeps one [`Rec`] per prefix it holds any state for, in arrival
//! order behind a probe sorted by [`PrefixId`], and two arrays for all of
//! its records' per-neighbor state: the Adj-RIB-In candidates and the
//! sending state, `degree` entries per record. Those are addressed by
//! *slot*: a neighbor's index in the node's CSR adjacency row, which is
//! also the order of neighbor ids. An UPDATE arrives carrying its sender's
//! slot at the receiver, so the Adj-RIB-In write is an array store, and
//! [`best`] is a scan over one contiguous slice.

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
/// suppression, the MRAI deadline, and whether a fire is pending. Sixteen
/// bytes.
#[derive(Clone, Copy)]
pub(super) struct OutSlot {
    /// Earliest time the next *announcement* may be sent.
    pub mrai_ready_at: Time,
    /// The path last advertised, or the empty path when the last UPDATE
    /// withdrew or nothing was ever sent: the two suppress the same
    /// UPDATEs (a withdrawal), so one value stands for both. Interned ids
    /// are hash-consed, so id equality here is content equality and
    /// duplicate suppression stays exact.
    pub last_sent: PathId,
    /// An MRAI fire for this (peer, prefix) is queued, and changes wait
    /// for it. Only the withdraw reset clears the flag under a live timer,
    /// which then fires harmlessly against the reset state.
    pub fire_pending: bool,
}

impl Default for OutSlot {
    fn default() -> Self {
        OutSlot {
            mrai_ready_at: Time::ZERO,
            last_sent: PathId::EMPTY,
            fire_pending: false,
        }
    }
}

impl OutSlot {
    /// Would sending `desired` repeat what the peer already holds?
    pub fn already_sent(&self, desired: Option<PathId>) -> bool {
        self.last_sent == desired.unwrap_or(PathId::EMPTY)
    }

    /// Record that `content` goes out at `now`. MRAI paces announcements
    /// only; a withdrawal leaves the timer where it was.
    pub fn mark_sent(&mut self, content: Option<PathId>, now: Time, mrai_interval: u64) {
        self.last_sent = content.unwrap_or(PathId::EMPTY);
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

/// One node's per-prefix scalars: the Loc-RIB entry and the metrics of
/// one epoch. The record's per-slot state lives in its [`Node`]'s arrays.
pub(super) struct Rec {
    /// The selected route (Loc-RIB). A lost route resets it to `None` in
    /// place; records are never removed.
    pub loc: Option<IdRoute>,
    /// This node's metrics for the epoch whose generation is `gen`.
    metrics: AsMetrics,
    gen: u32,
}

impl Rec {
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

/// One node's records and their slots. Records sit in arrival order and
/// are found through `ids`, `(prefix, record index)` pairs sorted by
/// prefix, probed only: nothing that feeds output or event order iterates
/// them in id order without sorting by resolved prefix first. Record `r`'s
/// slots are `degree` consecutive entries from `r * degree` in `cands` (the
/// Adj-RIB-In) and in `out` (the sending state), in row order. A new record
/// appends its slots, so no insert moves another record's.
pub(super) struct Node {
    degree: usize,
    ids: Vec<(PrefixId, u32)>,
    pub recs: Vec<Rec>,
    pub cands: Vec<Cand>,
    pub out: Vec<OutSlot>,
}

impl Node {
    /// A node with `degree` neighbors and no records.
    pub fn new(degree: usize) -> Node {
        Node {
            degree,
            ids: Vec::new(),
            recs: Vec::new(),
            cands: Vec::new(),
            out: Vec::new(),
        }
    }

    pub fn index_of(&self, prefix: PrefixId) -> Option<usize> {
        let i = self.ids.binary_search_by_key(&prefix, |&(p, _)| p).ok()?;
        Some(self.ids[i].1 as usize)
    }

    pub fn rec(&self, prefix: PrefixId) -> Option<&Rec> {
        self.index_of(prefix).map(|r| &self.recs[r])
    }

    /// Index of `prefix`'s record, made with fresh slots on first use.
    pub fn index_or_insert(&mut self, prefix: PrefixId) -> usize {
        match self.ids.binary_search_by_key(&prefix, |&(p, _)| p) {
            Ok(i) => self.ids[i].1 as usize,
            Err(i) => {
                let r = self.recs.len();
                self.ids.insert(i, (prefix, r as u32));
                self.recs.push(Rec {
                    loc: None,
                    metrics: AsMetrics::default(),
                    gen: 0,
                });
                self.cands
                    .resize(self.cands.len() + self.degree, Cand::NONE);
                self.out
                    .resize(self.out.len() + self.degree, OutSlot::default());
                r
            }
        }
    }

    /// `(prefix, record index)` of every record, in prefix-id order.
    pub fn records(&self) -> impl Iterator<Item = (PrefixId, usize)> + '_ {
        self.ids.iter().map(|&(p, r)| (p, r as usize))
    }

    /// Record `r`'s candidates, one per slot.
    pub fn cands_of(&self, r: usize) -> &[Cand] {
        &self.cands[r * self.degree..(r + 1) * self.degree]
    }

    /// Record `r`'s candidate from the neighbor at `slot`.
    pub fn cand_mut(&mut self, r: usize, slot: usize) -> &mut Cand {
        &mut self.cands[r * self.degree + slot]
    }

    /// Record `r`'s sending state toward the neighbor at `slot`.
    pub fn out_mut(&mut self, r: usize, slot: usize) -> &mut OutSlot {
        &mut self.out[r * self.degree + slot]
    }

    /// Record `r`'s sending state, one per slot.
    pub fn out_of(&mut self, r: usize) -> &mut [OutSlot] {
        &mut self.out[r * self.degree..(r + 1) * self.degree]
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
