//! The AS-level graph: adjacency with business relationships.
//!
//! Adjacency is stored in CSR (compressed sparse row) form: one flat
//! `(neighbor, relationship)` array plus per-AS offsets. Neighbor lookups
//! return contiguous slices, so a 75k-AS graph costs two cache-friendly
//! allocations instead of 75k small `Vec`s, and `relationship` is a binary
//! search instead of a linear scan.

use crate::ids::AsId;
use crate::relationship::Relationship;
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide topology generation counter; see [`next_generation`].
static GENERATION: AtomicU64 = AtomicU64::new(1);

/// Allocate a fresh, process-unique generation number.
///
/// Generations order "versions" of network state: every [`GraphBuilder::build`],
/// link surgery ([`AsGraph::remove_link`], [`AsGraph::add_link`] and their
/// copying forms) and [`AsGraph::without_as`] stamps its result with a fresh
/// generation, and higher layers (e.g. `lg-sim`'s `Network`)
/// re-stamp on their own mutations. Caches key on the generation to know
/// when memoized results are stale.
pub fn next_generation() -> u64 {
    GENERATION.fetch_add(1, Ordering::Relaxed)
}

/// An immutable AS-level topology with per-edge business relationships.
///
/// Adjacency is exposed per AS as `(neighbor, relationship-from-this-AS's-
/// viewpoint)` slices, sorted by neighbor id. The graph is always
/// relationship-consistent: if `a` lists `b` as a customer then `b` lists `a`
/// as a provider. Use [`GraphBuilder`] to construct one.
#[derive(Clone, Debug)]
pub struct AsGraph {
    /// CSR row offsets: neighbors of AS `i` live at
    /// `flat[offsets[i] as usize..offsets[i + 1] as usize]`. Always has
    /// `len() + 1` entries; `u32` suffices because the flat array holds
    /// `2 * edge_count` entries and the whole Internet is ~500k edges.
    offsets: Vec<u32>,
    /// Flat adjacency, sorted by neighbor id within each AS's row.
    flat: Vec<(AsId, Relationship)>,
    /// Tier annotation from the generator (1 = tier-1 clique); 0 when unknown.
    tiers: Vec<u8>,
    edge_count: usize,
    /// Topology version stamp; see [`next_generation`]. Clones share the
    /// stamp (same topology); derived graphs get a fresh one.
    generation: u64,
}

impl AsGraph {
    /// Number of ASes.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when the graph has no ASes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of undirected AS-level links.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// This graph's generation stamp (see [`next_generation`]).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Approximate heap footprint of the adjacency structure in bytes.
    /// Used by the scalability bench to report per-size memory budgets.
    pub fn memory_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<u32>()
            + self.flat.len() * std::mem::size_of::<(AsId, Relationship)>()
            + self.tiers.len()
    }

    /// All AS ids, in index order.
    pub fn ases(&self) -> impl Iterator<Item = AsId> + '_ {
        (0..self.len() as u32).map(AsId)
    }

    /// Neighbors of `a` with the relationship from `a`'s point of view,
    /// sorted by neighbor id.
    pub fn neighbors(&self, a: AsId) -> &[(AsId, Relationship)] {
        let i = a.index();
        &self.flat[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// The relationship of `a` toward `b`, if they are adjacent.
    pub fn relationship(&self, a: AsId, b: AsId) -> Option<Relationship> {
        let row = self.neighbors(a);
        row.binary_search_by_key(&b, |(n, _)| *n)
            .ok()
            .map(|i| row[i].1)
    }

    /// True when `a` and `b` share a link.
    pub fn are_adjacent(&self, a: AsId, b: AsId) -> bool {
        self.relationship(a, b).is_some()
    }

    /// Neighbors of `a` filtered by relationship.
    pub fn neighbors_with(&self, a: AsId, rel: Relationship) -> impl Iterator<Item = AsId> + '_ {
        self.neighbors(a)
            .iter()
            .filter(move |(_, r)| *r == rel)
            .map(|(n, _)| *n)
    }

    /// Providers of `a`.
    pub fn providers(&self, a: AsId) -> Vec<AsId> {
        self.neighbors_with(a, Relationship::Provider).collect()
    }

    /// Customers of `a`.
    pub fn customers(&self, a: AsId) -> Vec<AsId> {
        self.neighbors_with(a, Relationship::Customer).collect()
    }

    /// Peers of `a`.
    pub fn peers(&self, a: AsId) -> Vec<AsId> {
        self.neighbors_with(a, Relationship::Peer).collect()
    }

    /// True when `a` has no customers (it is an edge/stub network).
    pub fn is_stub(&self, a: AsId) -> bool {
        !self
            .neighbors(a)
            .iter()
            .any(|(_, r)| *r == Relationship::Customer)
    }

    /// Generator-provided tier of `a` (1 = tier-1), or 0 if unannotated.
    pub fn tier(&self, a: AsId) -> u8 {
        self.tiers[a.index()]
    }

    /// Total degree of `a`.
    pub fn degree(&self, a: AsId) -> usize {
        (self.offsets[a.index() + 1] - self.offsets[a.index()]) as usize
    }

    /// All transit ASes (those with at least one customer).
    pub fn transit_ases(&self) -> Vec<AsId> {
        self.ases().filter(|a| !self.is_stub(*a)).collect()
    }

    /// Rebuild the CSR arrays keeping only entries for which
    /// `keep(owner, neighbor)` holds. Relationship consistency is preserved
    /// when `keep` is symmetric. O(V + E), same cost as the old deep clone.
    fn filtered(&self, keep: impl Fn(AsId, AsId) -> bool) -> AsGraph {
        let mut offsets = Vec::with_capacity(self.offsets.len());
        let mut flat = Vec::with_capacity(self.flat.len());
        offsets.push(0u32);
        for a in self.ases() {
            flat.extend(
                self.neighbors(a)
                    .iter()
                    .filter(|(n, _)| keep(a, *n))
                    .copied(),
            );
            offsets.push(flat.len() as u32);
        }
        let edge_count = flat.len() / 2;
        AsGraph {
            offsets,
            flat,
            tiers: self.tiers.clone(),
            edge_count,
            generation: next_generation(),
        }
    }

    /// Remove the link `a`-`b` in place (no-op when absent), stamping a
    /// fresh generation either way. Returns whether the link was there.
    ///
    /// The two entries leave the flat array and every later row offset
    /// drops: an `O(V + E)` shift in place, no second copy of the graph.
    pub fn remove_link(&mut self, a: AsId, b: AsId) -> bool {
        self.generation = next_generation();
        let (Some(i), Some(j)) = (self.position(a, b), self.position(b, a)) else {
            return false;
        };
        // The later entry first, so the earlier one's index still holds.
        self.flat.remove(i.max(j));
        self.flat.remove(i.min(j));
        for x in [a, b] {
            for off in &mut self.offsets[x.index() + 1..] {
                *off -= 1;
            }
        }
        self.edge_count -= 1;
        true
    }

    /// Add the link `a`-`b` in place, `rel` being `a`'s view of `b` (no-op
    /// when already adjacent, whatever the existing relationship), stamping
    /// a fresh generation either way. Returns whether the link is new.
    /// Rows stay sorted by neighbor id.
    pub fn add_link(&mut self, a: AsId, b: AsId, rel: Relationship) -> bool {
        self.generation = next_generation();
        if self.are_adjacent(a, b) {
            return false;
        }
        assert_ne!(a, b, "self-link on {a}");
        // Exactly two more: a doubled allocation would outweigh the copy
        // this saves.
        self.flat.reserve_exact(2);
        for (x, y, r) in [(a, b, rel), (b, a, rel.reverse())] {
            let at = self.offsets[x.index()] as usize
                + self.neighbors(x).partition_point(|(n, _)| *n < y);
            self.flat.insert(at, (y, r));
            for off in &mut self.offsets[x.index() + 1..] {
                *off += 1;
            }
        }
        self.edge_count += 1;
        true
    }

    /// Index into the flat array of `b`'s entry in `a`'s row.
    fn position(&self, a: AsId, b: AsId) -> Option<usize> {
        let row = self.neighbors(a);
        let i = row.binary_search_by_key(&b, |(n, _)| *n).ok()?;
        Some(self.offsets[a.index()] as usize + i)
    }

    /// A copy of the graph without the link `a`-`b` (no-op when absent).
    /// Used by the paper's §5.1 simulation methodology of removing links
    /// and re-checking reachability.
    pub fn without_link(&self, a: AsId, b: AsId) -> AsGraph {
        let mut g = self.clone();
        g.remove_link(a, b);
        g
    }

    /// A copy of the graph with the link `a`-`b` added, `rel` being `a`'s
    /// view of `b` (no-op when already adjacent). The repair studies re-add
    /// links that earlier surgery removed.
    pub fn with_link(&self, a: AsId, b: AsId, rel: Relationship) -> AsGraph {
        let mut g = self.clone();
        g.add_link(a, b, rel);
        g
    }

    /// A copy of the graph with every link of `a` removed ("remove all of
    /// A's links from the topology", §5.1).
    pub fn without_as(&self, a: AsId) -> AsGraph {
        self.filtered(|x, n| x != a && n != a)
    }
}

/// Mutable builder for [`AsGraph`]; enforces relationship consistency.
///
/// The builder keeps per-AS `Vec`s for cheap appends; [`GraphBuilder::build`]
/// flattens them into the CSR layout.
#[derive(Default, Debug)]
pub struct GraphBuilder {
    adj: Vec<Vec<(AsId, Relationship)>>,
    tiers: Vec<u8>,
    edge_count: usize,
}

impl GraphBuilder {
    /// Resume building from an existing graph (e.g. to attach a new origin
    /// AS to a generated topology).
    pub fn from_graph(g: &AsGraph) -> Self {
        GraphBuilder {
            adj: g.ases().map(|a| g.neighbors(a).to_vec()).collect(),
            tiers: g.tiers.clone(),
            edge_count: g.edge_count,
        }
    }

    /// Create a builder with `n` ASes and no links.
    pub fn with_ases(n: usize) -> Self {
        GraphBuilder {
            adj: vec![Vec::new(); n],
            tiers: vec![0; n],
            edge_count: 0,
        }
    }

    /// Add one AS, returning its id.
    pub fn add_as(&mut self) -> AsId {
        let id = AsId(self.adj.len() as u32);
        self.adj.push(Vec::new());
        self.tiers.push(0);
        id
    }

    /// Number of ASes added so far.
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// True when no ASes have been added.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Annotate the tier of an AS.
    pub fn set_tier(&mut self, a: AsId, tier: u8) {
        self.tiers[a.index()] = tier;
    }

    /// Link `a` and `b` with `rel` being `a`'s view of `b`.
    ///
    /// `provider_customer(a, b)` is spelled `link(a, b, Customer)`: b is a's
    /// customer. Duplicate links and self-links are rejected.
    pub fn link(&mut self, a: AsId, b: AsId, rel: Relationship) {
        assert_ne!(a, b, "self-link on {a}");
        assert!(
            !self.adj[a.index()].iter().any(|(n, _)| *n == b),
            "duplicate link {a}-{b}"
        );
        self.adj[a.index()].push((b, rel));
        self.adj[b.index()].push((a, rel.reverse()));
        self.edge_count += 1;
    }

    /// Convenience: make `customer` a customer of `provider`.
    pub fn provider_customer(&mut self, provider: AsId, customer: AsId) {
        self.link(provider, customer, Relationship::Customer);
    }

    /// Convenience: peer `a` and `b`.
    pub fn peer(&mut self, a: AsId, b: AsId) {
        self.link(a, b, Relationship::Peer);
    }

    /// True when `a` and `b` are already linked.
    pub fn are_adjacent(&self, a: AsId, b: AsId) -> bool {
        self.adj[a.index()].iter().any(|(n, _)| *n == b)
    }

    /// Degree of `a` so far (used by generators for preferential attachment).
    pub fn degree(&self, a: AsId) -> usize {
        self.adj[a.index()].len()
    }

    /// Finish building; flattens into CSR with each row sorted by neighbor
    /// id for deterministic iteration.
    pub fn build(mut self) -> AsGraph {
        for nbrs in &mut self.adj {
            nbrs.sort_unstable_by_key(|(n, _)| *n);
        }
        let mut offsets = Vec::with_capacity(self.adj.len() + 1);
        let mut flat = Vec::with_capacity(self.edge_count * 2);
        offsets.push(0u32);
        for nbrs in &self.adj {
            flat.extend_from_slice(nbrs);
            offsets.push(flat.len() as u32);
        }
        AsGraph {
            offsets,
            flat,
            tiers: self.tiers,
            edge_count: self.edge_count,
            generation: next_generation(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relationship::Relationship::*;

    fn triangle() -> AsGraph {
        // 0 provides to 1; 1 provides to 2; 0 peers with 2.
        let mut b = GraphBuilder::with_ases(3);
        b.provider_customer(AsId(0), AsId(1));
        b.provider_customer(AsId(1), AsId(2));
        b.peer(AsId(0), AsId(2));
        b.build()
    }

    #[test]
    fn relationship_views_are_consistent() {
        let g = triangle();
        assert_eq!(g.relationship(AsId(0), AsId(1)), Some(Customer));
        assert_eq!(g.relationship(AsId(1), AsId(0)), Some(Provider));
        assert_eq!(g.relationship(AsId(0), AsId(2)), Some(Peer));
        assert_eq!(g.relationship(AsId(2), AsId(0)), Some(Peer));
        assert_eq!(g.relationship(AsId(1), AsId(2)), Some(Customer));
    }

    #[test]
    fn stub_detection() {
        let g = triangle();
        assert!(!g.is_stub(AsId(0)));
        assert!(!g.is_stub(AsId(1)));
        assert!(g.is_stub(AsId(2)));
        assert_eq!(g.transit_ases(), vec![AsId(0), AsId(1)]);
    }

    #[test]
    fn degree_and_edge_count() {
        let g = triangle();
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.degree(AsId(0)), 2);
        assert_eq!(g.providers(AsId(2)), vec![AsId(1)]);
        assert_eq!(g.customers(AsId(0)), vec![AsId(1)]);
        assert_eq!(g.peers(AsId(2)), vec![AsId(0)]);
    }

    #[test]
    #[should_panic(expected = "duplicate link")]
    fn duplicate_links_rejected() {
        let mut b = GraphBuilder::with_ases(2);
        b.peer(AsId(0), AsId(1));
        b.peer(AsId(1), AsId(0));
    }

    #[test]
    #[should_panic(expected = "self-link")]
    fn self_links_rejected() {
        let mut b = GraphBuilder::with_ases(1);
        b.peer(AsId(0), AsId(0));
    }

    #[test]
    fn without_link_and_without_as() {
        let g = triangle();
        let cut = g.without_link(AsId(0), AsId(1));
        assert_eq!(cut.edge_count(), 2);
        assert!(!cut.are_adjacent(AsId(0), AsId(1)));
        assert!(cut.are_adjacent(AsId(0), AsId(2)));
        // Removing a missing link is a no-op.
        let same = cut.without_link(AsId(0), AsId(1));
        assert_eq!(same.edge_count(), 2);
        // Removing an AS drops all its links, both directions.
        let gone = g.without_as(AsId(0));
        assert_eq!(gone.edge_count(), 1);
        assert!(gone.neighbors(AsId(0)).is_empty());
        assert!(!gone.are_adjacent(AsId(1), AsId(0)));
        assert!(gone.are_adjacent(AsId(1), AsId(2)));
    }

    #[test]
    fn with_link_restores_and_sorts() {
        let g = triangle();
        let cut = g.without_link(AsId(0), AsId(1));
        let back = cut.with_link(AsId(0), AsId(1), Customer);
        assert_eq!(back.edge_count(), 3);
        assert_eq!(back.relationship(AsId(0), AsId(1)), Some(Customer));
        assert_eq!(back.relationship(AsId(1), AsId(0)), Some(Provider));
        // Adjacency stays sorted for deterministic iteration.
        for a in back.ases() {
            let nbrs: Vec<AsId> = back.neighbors(a).iter().map(|(n, _)| *n).collect();
            let mut sorted = nbrs.clone();
            sorted.sort_unstable();
            assert_eq!(nbrs, sorted);
        }
        // Adding an existing link is a no-op on structure...
        let same = back.with_link(AsId(0), AsId(1), Peer);
        assert_eq!(same.edge_count(), 3);
        assert_eq!(same.relationship(AsId(0), AsId(1)), Some(Customer));
        // ...but every surgery stamps a fresh generation.
        assert_ne!(same.generation(), back.generation());
        assert_ne!(back.generation(), cut.generation());
    }

    #[test]
    fn from_graph_resumes_building() {
        let g = triangle();
        let mut b = GraphBuilder::from_graph(&g);
        let new = b.add_as();
        b.provider_customer(AsId(0), new);
        let g2 = b.build();
        assert_eq!(g2.len(), 4);
        assert_eq!(g2.edge_count(), 4);
        // Old structure preserved.
        assert_eq!(g2.relationship(AsId(0), AsId(1)), Some(Customer));
        assert_eq!(g2.relationship(new, AsId(0)), Some(Provider));
    }

    #[test]
    fn builder_add_as_assigns_sequential_ids() {
        let mut b = GraphBuilder::default();
        assert_eq!(b.add_as(), AsId(0));
        assert_eq!(b.add_as(), AsId(1));
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn csr_surgery_keeps_rows_sorted_and_consistent() {
        // A denser graph exercises the filtered-rebuild paths.
        let mut b = GraphBuilder::with_ases(6);
        b.provider_customer(AsId(0), AsId(2));
        b.provider_customer(AsId(0), AsId(3));
        b.provider_customer(AsId(1), AsId(3));
        b.provider_customer(AsId(1), AsId(4));
        b.peer(AsId(0), AsId(1));
        b.peer(AsId(2), AsId(3));
        b.provider_customer(AsId(3), AsId(5));
        let g = b.build();
        for derived in [
            g.without_link(AsId(0), AsId(3)),
            g.without_as(AsId(3)),
            g.with_link(AsId(4), AsId(5), Peer),
        ] {
            let mut seen = 0;
            for a in derived.ases() {
                let row = derived.neighbors(a);
                assert!(
                    row.windows(2).all(|w| w[0].0 < w[1].0),
                    "row sorted, no dups"
                );
                for (n, r) in row {
                    assert_eq!(derived.relationship(*n, a), Some(r.reverse()));
                    seen += 1;
                }
            }
            assert_eq!(seen, derived.edge_count() * 2);
        }
    }

    #[test]
    fn in_place_surgery_matches_a_rebuild() {
        // Alternating removals and additions (of every relationship) on a
        // 12-AS graph: after each, the CSR arrays are exactly what the
        // builder makes of the surviving link set, and the stamp is fresh.
        let n = 12u32;
        let mut links: Vec<(AsId, AsId, Relationship)> = Vec::new();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let rebuild = |links: &[(AsId, AsId, Relationship)]| {
            let mut b = GraphBuilder::with_ases(n as usize);
            for &(a, c, rel) in links {
                b.link(a, c, rel);
            }
            b.build()
        };
        let mut g = rebuild(&links);
        for step in 0..400 {
            let stamp = g.generation();
            if step % 3 == 0 && !links.is_empty() {
                let (a, c, _) = links.remove((next() % links.len() as u64) as usize);
                assert!(g.remove_link(c, a), "link {a}-{c} was there");
            } else {
                let (a, c) = (
                    AsId((next() % n as u64) as u32),
                    AsId((next() % n as u64) as u32),
                );
                if a == c || g.are_adjacent(a, c) {
                    assert!(a == c || !g.add_link(a, c, Peer));
                    continue;
                }
                let rel = [Customer, Peer, Provider][(next() % 3) as usize];
                assert!(g.add_link(a, c, rel));
                links.push((a, c, rel));
            }
            assert_ne!(g.generation(), stamp, "surgery stamps a fresh generation");
            let want = rebuild(&links);
            assert_eq!(g.offsets, want.offsets, "offsets after step {step}");
            assert_eq!(g.flat, want.flat, "rows after step {step}");
            assert_eq!(g.edge_count(), want.edge_count());
        }
        // A no-op still stamps, and says it did nothing.
        let stamp = g.generation();
        assert!(!g.remove_link(AsId(0), AsId(0)));
        assert_ne!(g.generation(), stamp);
    }

    #[test]
    fn memory_bytes_tracks_csr_arrays() {
        let g = triangle();
        // 4 offsets * 4B + 6 flat entries * 8B + 3 tier bytes.
        assert_eq!(g.memory_bytes(), 4 * 4 + 6 * 8 + 3);
    }
}
