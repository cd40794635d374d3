//! The network model shared by both engines: topology plus per-AS
//! configuration and link characteristics.

use lg_asmap::{AsGraph, AsId, Relationship};
use lg_bgp::ImportPolicy;
use std::collections::VecDeque;

/// What a routing-relevant mutation can possibly change, recorded so route
/// caches can invalidate incrementally instead of flushing wholesale.
///
/// Soundness notes per variant live on the constructors in
/// [`Network::set_policy`] / [`Network::set_strips_communities`]; the cache
/// side (`lg-sim`'s compute module) unions the scopes between its last-seen
/// generation and the current one and drops only the entries a scope can
/// reach.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DirtyScope {
    /// The mutation provably cannot change any fixed point (e.g. a policy
    /// replaced by an identical one). Bumps the generation, dirties nothing.
    Unchanged,
    /// Only announcements whose seed-path footprint (origin plus every hop
    /// of every seed path) contains this AS can change. Emitted for
    /// loop-detection-only policy edits: loop detection at X counts
    /// occurrences of X, and in the static fixed point a candidate offered
    /// to a not-yet-finalized X contains X only if a seed path does.
    Footprint(AsId),
    /// Only announcements carrying community attributes can change
    /// (community-stripping toggles).
    Communities,
    /// A link was removed: only tables in which some selected route
    /// traverses this link (as a consecutive hop pair, including the
    /// holder-to-first-hop edge) can change — an offer over the link that
    /// never won a selection cannot have shaped the fixed point.
    LinkDown(AsId, AsId),
    /// A link was added: only tables in which either endpoint has a route
    /// can change — a link between two route-less ASes carries no
    /// announcements in either direction.
    ///
    /// This predicate stays sufficient even when an endpoint runs the
    /// Cogent-style peer filter: in the static fixed point an AS finalizes
    /// on the *first* candidate its import filter accepts, so the new peer
    /// entry in `a`'s list can only flip `a`'s selection if `a`'s cached
    /// selection itself contains `b` — and then `a` has a route and the
    /// predicate already evicts. New offers over the link require a route
    /// at an endpoint as usual.
    LinkUp(AsId, AsId),
    /// A *peer* link was removed while an endpoint runs the Cogent-style
    /// `reject_peers_in_customer_path` filter, so `b` leaving `a`'s peer
    /// list (or vice versa) can newly *admit* paths that contain the
    /// departed peer as a hop. Candidates evaluated at any AS are only
    /// seed paths and neighbors' selected paths, so a table can change
    /// only if it routes through the removed link (the `LinkDown`
    /// predicate) **or** the departed peer appears in the spec footprint
    /// or on some selected path of the cached table.
    PeerLinkDown(AsId, AsId),
    /// Anything can change (path-content filter edits such as
    /// `reject_peers_in_customer_path`, `deny_transit`, `max_path_len`,
    /// `drop_poisoned`, `drop_reserved_asn`).
    Global,
}

/// One entry of the bounded mutation log: the generation transition and the
/// scope of what it may have changed.
#[derive(Clone, Debug)]
pub struct MutationRecord {
    /// Generation immediately before the mutation.
    pub prev: u64,
    /// Generation stamped by the mutation.
    pub next: u64,
    /// What the mutation can affect.
    pub scope: DirtyScope,
}

impl MutationRecord {
    /// Does a table stamped `since` pick up this record's scope as its
    /// first pending change? Exact `prev` matches are record boundaries;
    /// interior stamps (`prev < since < next`) exist only on coalesced
    /// records, whose consecutive-generation merge rule guarantees the
    /// stamp was one of this network's own intermediate states — and the
    /// remaining suffix of the run shares the record's scope.
    fn covers(&self, since: u64) -> bool {
        self.prev == since || (self.prev < since && since < self.next)
    }
}

/// How many mutation records a network retains. A cache that fell further
/// behind than this treats everything as dirty (same behavior as before
/// incremental invalidation existed).
///
/// Same-scope runs coalesce into one record (see [`Network::record_mutation`]),
/// so the cap counts *distinct-scope transitions*, not raw mutations. The
/// old cap of 64 raw records meant a dense mutation batch — 75k-AS churn
/// replays hundreds of per-AS edits between cache syncs — silently pushed
/// every older stamp off the log and degraded incremental eviction to a
/// global flush; 1024 transitions is ~32 KiB and far past any workload's
/// scope diversity between syncs.
const MUTATION_HISTORY_CAP: usize = 1024;

/// A configured network: the AS graph, each AS's import policy, and
/// deterministic per-link propagation delays.
#[derive(Clone, Debug)]
pub struct Network {
    graph: AsGraph,
    policies: Vec<ImportPolicy>,
    /// `policies[a].filters_paths()`, kept beside the policies so the
    /// static engine seeds its may-reject set with one copy instead of
    /// walking every policy per fixed point.
    path_filtered: Vec<bool>,
    /// The ASes `path_filtered` marks, ascending: what a derivation checks
    /// without scanning every AS.
    path_filtered_ases: Vec<AsId>,
    /// Cached peer lists (import filters need them on the hot path), one
    /// CSR: the peers of `a` are `peers[peer_offsets[a]..peer_offsets[a +
    /// 1]]`, ascending.
    peer_offsets: Vec<u32>,
    peers: Vec<AsId>,
    /// ASes that strip community attributes on export (§2.3: "many ASes do
    /// not propagate community values they receive" — notably Tier-1s).
    strips_communities: Vec<bool>,
    /// Configuration version: starts at the graph's generation and is
    /// re-stamped by every routing-relevant mutation ([`Self::set_policy`],
    /// [`Self::set_strips_communities`]). Route caches key on this to
    /// detect staleness.
    generation: u64,
    /// Recent mutations, oldest first, contiguous: `history[i].next ==
    /// history[i+1].prev` and the last record's `next` is `generation`.
    history: VecDeque<MutationRecord>,
}

impl Network {
    /// Wrap a graph with standard import policies everywhere.
    pub fn new(graph: AsGraph) -> Self {
        let n = graph.len();
        let mut peer_offsets = Vec::with_capacity(n + 1);
        let mut peers = Vec::new();
        peer_offsets.push(0);
        for a in graph.ases() {
            peers.extend(graph.neighbors_with(a, Relationship::Peer));
            peer_offsets.push(peers.len() as u32);
        }
        peers.shrink_to_fit();
        let generation = graph.generation();
        Network {
            graph,
            policies: vec![ImportPolicy::standard(); n],
            path_filtered: vec![false; n],
            path_filtered_ases: Vec::new(),
            peer_offsets,
            peers,
            strips_communities: vec![false; n],
            generation,
            history: VecDeque::new(),
        }
    }

    /// The configuration generation; changes whenever a mutation could
    /// change computed routes. See [`lg_asmap::next_generation`].
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Stamp a fresh generation and log what the mutation can affect.
    ///
    /// Runs of identical-scope mutations whose generation numbers are
    /// *consecutive* coalesce into one widened record. Consecutiveness is
    /// the soundness condition: the generation counter is process-global,
    /// so `next == last.next + 1` proves no other network stamped anything
    /// inside the widened range — every interior generation is a state this
    /// network actually had, and [`Self::changes_since`] may legally match
    /// stamps inside the range. (Under concurrent generation traffic a run
    /// may not coalesce; that only costs log entries, never correctness.)
    fn record_mutation(&mut self, scope: DirtyScope) {
        let prev = self.generation;
        self.generation = lg_asmap::next_generation();
        if let Some(last) = self.history.back_mut() {
            if last.scope == scope && self.generation == last.next + 1 {
                last.next = self.generation;
                return;
            }
        }
        self.history.push_back(MutationRecord {
            prev,
            next: self.generation,
            scope,
        });
        if self.history.len() > MUTATION_HISTORY_CAP {
            self.history.pop_front();
        }
    }

    /// The scopes of every mutation between generation `since` and now,
    /// oldest first (empty when `since` is current). `None` when the log no
    /// longer reaches back to `since` — including when `since` belongs to a
    /// different network or a diverged clone — in which case callers must
    /// treat everything as dirty.
    pub fn changes_since(&self, since: u64) -> Option<Vec<DirtyScope>> {
        if since == self.generation {
            return Some(Vec::new());
        }
        let start = self.history.iter().position(|r| r.covers(since))?;
        Some(
            self.history
                .iter()
                .skip(start)
                .map(|r| r.scope.clone())
                .collect(),
        )
    }

    /// True when every mutation between generation `since` and now is
    /// provably routing-irrelevant ([`DirtyScope::Unchanged`]), so tables
    /// stamped `since` are still exact fixed points of the current
    /// configuration. False when any logged scope could dirty a table *or*
    /// the log no longer reaches `since` (a different network, a diverged
    /// clone, deep staleness).
    ///
    /// This is the allocation-free stamp check the shared cache's lock-free
    /// hit path runs on a trailing snapshot: a stamp that lags only by
    /// no-op mutations (e.g. a policy overwritten with an identical one)
    /// keeps serving hits without waking the shard writer.
    pub fn unchanged_since(&self, since: u64) -> bool {
        if since == self.generation {
            return true;
        }
        let Some(start) = self.history.iter().position(|r| r.covers(since)) else {
            return false;
        };
        self.history
            .iter()
            .skip(start)
            .all(|r| matches!(r.scope, DirtyScope::Unchanged))
    }

    /// Mark `a` as stripping community attributes on export.
    ///
    /// Scope: community stripping only matters to announcements that carry
    /// communities, so an actual toggle dirties [`DirtyScope::Communities`];
    /// a no-op write dirties nothing.
    pub fn set_strips_communities(&mut self, a: AsId, strips: bool) {
        let scope = if self.strips_communities[a.index()] == strips {
            DirtyScope::Unchanged
        } else {
            DirtyScope::Communities
        };
        self.strips_communities[a.index()] = strips;
        self.record_mutation(scope);
    }

    /// Does `a` strip communities on export?
    pub fn strips_communities(&self, a: AsId) -> bool {
        self.strips_communities[a.index()]
    }

    /// The underlying AS graph.
    pub fn graph(&self) -> &AsGraph {
        &self.graph
    }

    /// Number of ASes.
    pub fn len(&self) -> usize {
        self.graph.len()
    }

    /// True when the network has no ASes.
    pub fn is_empty(&self) -> bool {
        self.graph.is_empty()
    }

    /// Import policy of `a`.
    pub fn policy(&self, a: AsId) -> &ImportPolicy {
        &self.policies[a.index()]
    }

    /// Per AS: does its policy configure a path-content filter
    /// ([`ImportPolicy::filters_paths`])?
    pub fn path_filtered(&self) -> &[bool] {
        &self.path_filtered
    }

    /// The ASes [`Self::path_filtered`] marks, ascending.
    pub fn path_filtered_ases(&self) -> &[AsId] {
        &self.path_filtered_ases
    }

    /// Record whether `a`'s policy filters paths, in both views.
    fn set_path_filtered(&mut self, a: AsId, filters: bool) {
        if std::mem::replace(&mut self.path_filtered[a.index()], filters) == filters {
            return;
        }
        match self.path_filtered_ases.binary_search(&a) {
            Ok(i) => {
                self.path_filtered_ases.remove(i);
            }
            Err(i) => self.path_filtered_ases.insert(i, a),
        }
    }

    /// Replace the import policy of `a` (loop-detection quirks, Cogent-style
    /// filters — §7.1).
    ///
    /// Scope: an identical policy dirties nothing, and neither does a
    /// change confined to `default_route` (defaults affect data-plane
    /// reachability queries, never the computed fixed point); a change
    /// confined to `loop_detection` dirties only announcements whose seed
    /// footprint contains `a` (loop detection at `a` counts occurrences of
    /// `a`, and a candidate evaluated by a not-yet-finalized `a` contains
    /// `a` only if a seed path does); any path-content filter change is
    /// global.
    pub fn set_policy(&mut self, a: AsId, policy: ImportPolicy) {
        let scope = Self::policy_scope(a, &self.policies[a.index()], &policy);
        self.set_path_filtered(a, policy.filters_paths());
        self.policies[a.index()] = policy;
        self.record_mutation(scope);
    }

    /// Classify a policy replacement at `a` (see [`Self::set_policy`]).
    fn policy_scope(a: AsId, old: &ImportPolicy, new: &ImportPolicy) -> DirtyScope {
        let path_content_equal = old.reject_peers_in_customer_path
            == new.reject_peers_in_customer_path
            && old.deny_transit == new.deny_transit
            && old.max_path_len == new.max_path_len
            && old.drop_poisoned == new.drop_poisoned
            && old.drop_reserved_asn == new.drop_reserved_asn;
        if path_content_equal && old.loop_detection == new.loop_detection {
            // Identical, or differing only in `default_route`.
            DirtyScope::Unchanged
        } else if path_content_equal {
            DirtyScope::Footprint(a)
        } else {
            DirtyScope::Global
        }
    }

    /// Apply a tier-aware filter deployment drawn by
    /// [`lg_asmap::assign_filters`]: merge each AS's assigned filters into
    /// its import policy, preserving unrelated fields (loop-detection
    /// quirks, deny lists).
    ///
    /// Recorded as a *single* mutation — [`DirtyScope::Unchanged`] when no
    /// routing-relevant field actually changed (in particular for a
    /// zero-filter assignment), [`DirtyScope::Global`] otherwise.
    pub fn apply_filter_assignment(&mut self, fa: &lg_asmap::FilterAssignment) {
        assert_eq!(
            fa.max_path_len.len(),
            self.policies.len(),
            "assignment drawn over a different graph"
        );
        let mut scope = DirtyScope::Unchanged;
        for i in 0..self.policies.len() {
            let old = &self.policies[i];
            let new = ImportPolicy {
                max_path_len: fa.max_path_len[i],
                drop_poisoned: fa.drop_poisoned[i],
                drop_reserved_asn: fa.drop_reserved_asn[i],
                default_route: fa.default_route[i],
                ..old.clone()
            };
            if *old != new {
                if Self::policy_scope(AsId(i as u32), old, &new) != DirtyScope::Unchanged {
                    scope = DirtyScope::Global;
                }
                self.set_path_filtered(AsId(i as u32), new.filters_paths());
                self.policies[i] = new;
            }
        }
        self.record_mutation(scope);
    }

    /// Cached peer list of `a`.
    pub fn peers_of(&self, a: AsId) -> &[AsId] {
        let i = a.index();
        &self.peers[self.peer_offsets[i] as usize..self.peer_offsets[i + 1] as usize]
    }

    /// Remove the link `a`-`b` from the topology (no-op when absent).
    ///
    /// Scope: removal only deletes the candidate offers exchanged over the
    /// link, and an offer that never won a selection cannot have shaped a
    /// fixed point — so only tables in which some selected route traverses
    /// `a`-`b` can change ([`DirtyScope::LinkDown`]). When the link is a
    /// *peer* link and either endpoint runs the Cogent-style
    /// `reject_peers_in_customer_path` filter, the peer-list change can
    /// also newly admit paths containing the departed peer, so the scope
    /// widens to [`DirtyScope::PeerLinkDown`] — still link-precise, no
    /// longer a global flush.
    pub fn remove_link(&mut self, a: AsId, b: AsId) {
        let Some(rel) = self.graph.relationship(a, b) else {
            self.record_mutation(DirtyScope::Unchanged);
            return;
        };
        let peer_sensitive = rel == Relationship::Peer
            && (self.policies[a.index()].reject_peers_in_customer_path
                || self.policies[b.index()].reject_peers_in_customer_path);
        self.graph.remove_link(a, b);
        if rel == Relationship::Peer {
            self.edit_peers(a, b, false);
        }
        let scope = if peer_sensitive {
            DirtyScope::PeerLinkDown(a, b)
        } else {
            DirtyScope::LinkDown(a, b)
        };
        self.record_mutation(scope);
    }

    /// Add the link `a`-`b` with `rel` being `a`'s view of `b` (no-op when
    /// already adjacent, whatever the existing relationship).
    ///
    /// Scope: the new link carries announcements only once an endpoint has
    /// a route to offer over it, so only tables in which `a` or `b` has a
    /// route can change ([`DirtyScope::LinkUp`]); a table where the prefix
    /// reaches neither endpoint is reusable as-is. This holds even under
    /// peer filters at the endpoints — see the [`DirtyScope::LinkUp`]
    /// soundness note — so peer-link additions no longer degrade to a
    /// global flush.
    pub fn add_link(&mut self, a: AsId, b: AsId, rel: Relationship) {
        if self.graph.relationship(a, b).is_some() {
            self.record_mutation(DirtyScope::Unchanged);
            return;
        }
        self.graph.add_link(a, b, rel);
        if rel == Relationship::Peer {
            self.peers.reserve_exact(2);
            self.edit_peers(a, b, true);
        }
        self.record_mutation(DirtyScope::LinkUp(a, b));
    }

    /// Insert (`add`) or remove the peer entries of link `a`-`b` in both
    /// rows of the peer CSR, keeping each row sorted.
    fn edit_peers(&mut self, a: AsId, b: AsId, add: bool) {
        for (x, y) in [(a, b), (b, a)] {
            let at = self.peer_offsets[x.index()] as usize
                + self.peers_of(x).partition_point(|p| *p < y);
            if add {
                self.peers.insert(at, y);
            } else {
                self.peers.remove(at);
            }
            for off in &mut self.peer_offsets[x.index() + 1..] {
                if add {
                    *off += 1;
                } else {
                    *off -= 1;
                }
            }
        }
    }

    /// Deterministic one-way propagation delay for link `a`-`b`, in
    /// milliseconds (symmetric; 10..=49 ms, keyed on the unordered pair).
    pub fn link_delay_ms(&self, a: AsId, b: AsId) -> u64 {
        let (lo, hi) = if a.0 <= b.0 { (a.0, b.0) } else { (b.0, a.0) };
        // SplitMix64-style scramble for a stable, well-spread value.
        let mut x = ((lo as u64) << 32 | hi as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        10 + x % 40
    }

    /// The provider `a` points its default route at, when `a`'s policy has
    /// `default_route` set: deterministically the lowest-numbered provider.
    /// `None` when `a` has no default or no provider survives in the graph.
    pub fn default_provider(&self, a: AsId) -> Option<AsId> {
        if !self.policies[a.index()].default_route {
            return None;
        }
        self.graph.providers(a).into_iter().min_by_key(|p| p.0)
    }

    /// Would `holder` export a route learned over `learned_rel` to `to`?
    ///
    /// Self-originated routes pass `None` as `learned_rel` and export
    /// everywhere.
    pub fn exports(&self, holder: AsId, learned_rel: Option<Relationship>, to: AsId) -> bool {
        let Some(rel_to) = self.graph.relationship(holder, to) else {
            return false;
        };
        match learned_rel {
            None => true,
            Some(r) => r.exportable_to(rel_to),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lg_asmap::GraphBuilder;
    use lg_bgp::LoopDetection;

    fn net() -> Network {
        let mut b = GraphBuilder::with_ases(3);
        b.provider_customer(AsId(0), AsId(1));
        b.peer(AsId(1), AsId(2));
        Network::new(b.build())
    }

    #[test]
    fn default_policies_standard() {
        let n = net();
        assert_eq!(n.policy(AsId(0)).loop_detection, LoopDetection::standard());
    }

    #[test]
    fn peer_lists_cached() {
        let n = net();
        assert_eq!(n.peers_of(AsId(1)), &[AsId(2)]);
        assert!(n.peers_of(AsId(0)).is_empty());
    }

    #[test]
    fn link_delay_symmetric_and_bounded() {
        let n = net();
        let d = n.link_delay_ms(AsId(0), AsId(1));
        assert_eq!(d, n.link_delay_ms(AsId(1), AsId(0)));
        assert!((10..50).contains(&d));
        // Different links get (generally) different delays.
        let d2 = n.link_delay_ms(AsId(1), AsId(2));
        assert!((10..50).contains(&d2));
    }

    #[test]
    fn export_rules() {
        let n = net();
        // AS1 with a route learned from provider AS0 exports to... nobody
        // here (AS2 is a peer), unless self-originated.
        assert!(!n.exports(AsId(1), Some(Relationship::Provider), AsId(2)));
        assert!(n.exports(AsId(1), None, AsId(2)));
        // Customer-learned exports everywhere.
        assert!(n.exports(AsId(0), Some(Relationship::Customer), AsId(1)));
        // No adjacency, no export.
        assert!(!n.exports(AsId(0), None, AsId(2)));
    }

    #[test]
    fn generation_bumps_on_mutation() {
        let mut n = net();
        let g0 = n.generation();
        n.set_strips_communities(AsId(1), true);
        let g1 = n.generation();
        assert!(g1 > g0, "strips_communities must bump the generation");
        n.set_policy(AsId(0), ImportPolicy::standard());
        assert!(n.generation() > g1, "set_policy must bump the generation");
        // An untouched clone keeps its stamp; distinct networks differ.
        let other = net();
        assert_ne!(other.generation(), n.generation());
        let clone = n.clone();
        assert_eq!(clone.generation(), n.generation());
    }

    #[test]
    fn changes_since_reports_typed_scopes() {
        let mut n = net();
        let g0 = n.generation();
        assert_eq!(n.changes_since(g0), Some(vec![]));

        // Identical policy: generation bumps, but scope is Unchanged.
        n.set_policy(AsId(0), ImportPolicy::standard());
        assert_eq!(n.changes_since(g0), Some(vec![DirtyScope::Unchanged]));

        // Loop-detection-only edit: footprint-scoped to the edited AS.
        n.set_policy(
            AsId(1),
            ImportPolicy {
                loop_detection: LoopDetection::disabled(),
                ..ImportPolicy::standard()
            },
        );
        // Community stripping toggle and a no-op re-set of the same value.
        n.set_strips_communities(AsId(2), true);
        n.set_strips_communities(AsId(2), true);
        // Path-content filter: global.
        n.set_policy(
            AsId(2),
            ImportPolicy {
                deny_transit: vec![AsId(0)],
                ..ImportPolicy::standard()
            },
        );
        assert_eq!(
            n.changes_since(g0),
            Some(vec![
                DirtyScope::Unchanged,
                DirtyScope::Footprint(AsId(1)),
                DirtyScope::Communities,
                DirtyScope::Unchanged,
                DirtyScope::Global,
            ])
        );
        // A suffix of the log is reachable from an intermediate generation.
        let mid = n.generation();
        n.set_policy(AsId(0), ImportPolicy::standard());
        assert_eq!(n.changes_since(mid), Some(vec![DirtyScope::Unchanged]));
        // A generation the network never had: unknown.
        assert_eq!(n.changes_since(u64::MAX), None);
        // A foreign network's generation: unknown.
        let other = net();
        assert_eq!(n.changes_since(other.generation()), None);
    }

    #[test]
    fn unchanged_since_accepts_only_noop_suffixes() {
        let mut n = net();
        let g0 = n.generation();
        assert!(n.unchanged_since(g0), "current stamp is trivially clean");

        // No-op mutations bump the generation but keep the stamp clean.
        n.set_policy(AsId(0), ImportPolicy::standard());
        n.set_strips_communities(AsId(1), false);
        assert!(n.unchanged_since(g0), "Unchanged-only suffix stays clean");

        // One dirtying mutation poisons every stamp before it...
        let mid = n.generation();
        n.set_policy(
            AsId(1),
            ImportPolicy {
                loop_detection: LoopDetection::disabled(),
                ..ImportPolicy::standard()
            },
        );
        assert!(!n.unchanged_since(g0));
        assert!(!n.unchanged_since(mid));
        // ...but not stamps taken after it.
        let late = n.generation();
        n.set_policy(AsId(0), ImportPolicy::standard());
        assert!(n.unchanged_since(late));

        // Unknown generations are never clean.
        assert!(!n.unchanged_since(u64::MAX));
        assert!(!n.unchanged_since(net().generation()));
    }

    #[test]
    fn link_mutations_record_scoped_dirt() {
        let mut n = net();
        let g0 = n.generation();

        // Removing a present link: LinkDown, adjacency and peer caches
        // updated in place.
        n.remove_link(AsId(1), AsId(2));
        assert!(!n.graph().are_adjacent(AsId(1), AsId(2)));
        assert!(n.peers_of(AsId(1)).is_empty());
        // Removing it again: structurally a no-op, scope Unchanged.
        n.remove_link(AsId(1), AsId(2));
        // Re-adding it: LinkUp, caches refreshed.
        n.add_link(AsId(1), AsId(2), Relationship::Peer);
        assert_eq!(
            n.graph().relationship(AsId(1), AsId(2)),
            Some(Relationship::Peer)
        );
        assert_eq!(n.peers_of(AsId(1)), &[AsId(2)]);
        // Adding over an existing link: Unchanged.
        n.add_link(AsId(2), AsId(1), Relationship::Peer);
        assert_eq!(
            n.changes_since(g0),
            Some(vec![
                DirtyScope::LinkDown(AsId(1), AsId(2)),
                DirtyScope::Unchanged,
                DirtyScope::LinkUp(AsId(1), AsId(2)),
                DirtyScope::Unchanged,
            ])
        );
    }

    #[test]
    fn peer_link_mutations_stay_scoped_under_peer_filters() {
        // An endpoint running the Cogent-style filter consults its peer
        // list for unrelated paths. Peer-link *removal* there widens to
        // the link-precise PeerLinkDown scope (the departed peer can newly
        // pass the filter); *addition* keeps the plain LinkUp predicate —
        // neither degrades to a global flush anymore.
        let mut n = net();
        n.set_policy(
            AsId(2),
            ImportPolicy {
                reject_peers_in_customer_path: true,
                ..ImportPolicy::standard()
            },
        );
        let g0 = n.generation();
        n.remove_link(AsId(1), AsId(2));
        n.add_link(AsId(1), AsId(2), Relationship::Peer);
        // A provider-customer link at the same endpoint stays scoped: the
        // filter only reads *peer* lists.
        n.remove_link(AsId(0), AsId(1));
        assert_eq!(
            n.changes_since(g0),
            Some(vec![
                DirtyScope::PeerLinkDown(AsId(1), AsId(2)),
                DirtyScope::LinkUp(AsId(1), AsId(2)),
                DirtyScope::LinkDown(AsId(0), AsId(1)),
            ])
        );
    }

    #[test]
    fn filter_policy_edits_classify_scopes() {
        let mut n = net();
        let g0 = n.generation();
        // default_route-only change: fixed point untouched.
        n.set_policy(
            AsId(1),
            ImportPolicy {
                default_route: true,
                ..ImportPolicy::standard()
            },
        );
        // Path-content filters: global.
        n.set_policy(
            AsId(1),
            ImportPolicy {
                default_route: true,
                max_path_len: Some(4),
                ..ImportPolicy::standard()
            },
        );
        n.set_policy(
            AsId(2),
            ImportPolicy {
                drop_poisoned: true,
                ..ImportPolicy::standard()
            },
        );
        // The two Global records coalesce when their generations come out
        // consecutive (concurrent tests share the generation counter, so
        // merging is best-effort): compare the adjacent-deduped form.
        let mut changes = n.changes_since(g0).unwrap();
        changes.dedup();
        assert_eq!(changes, vec![DirtyScope::Unchanged, DirtyScope::Global]);
    }

    #[test]
    fn filter_assignment_applies_and_scopes() {
        use lg_asmap::FilterAssignment;
        let mut n = net();
        let g0 = n.generation();
        // Zero assignment: one Unchanged record, policies untouched.
        n.apply_filter_assignment(&FilterAssignment::none(3));
        assert_eq!(n.changes_since(g0), Some(vec![DirtyScope::Unchanged]));
        // A real deployment: single Global record, fields merged in.
        let mut fa = FilterAssignment::none(3);
        fa.max_path_len[1] = Some(5);
        fa.default_route[2] = true;
        n.apply_filter_assignment(&fa);
        assert_eq!(n.policy(AsId(1)).max_path_len, Some(5));
        assert!(n.policy(AsId(2)).default_route);
        assert_eq!(
            n.changes_since(g0),
            Some(vec![DirtyScope::Unchanged, DirtyScope::Global])
        );
        // Re-applying the same assignment: nothing changes.
        let g1 = n.generation();
        n.apply_filter_assignment(&fa);
        assert_eq!(n.changes_since(g1), Some(vec![DirtyScope::Unchanged]));
    }

    #[test]
    fn default_provider_is_deterministic() {
        let mut n = net();
        assert_eq!(n.default_provider(AsId(1)), None, "no default configured");
        n.set_policy(
            AsId(1),
            ImportPolicy {
                default_route: true,
                ..ImportPolicy::standard()
            },
        );
        assert_eq!(n.default_provider(AsId(1)), Some(AsId(0)));
        n.remove_link(AsId(0), AsId(1));
        assert_eq!(n.default_provider(AsId(1)), None, "provider gone");
    }

    #[test]
    fn history_is_bounded() {
        let mut n = net();
        let g0 = n.generation();
        // Alternating scopes never coalesce, so each iteration adds two
        // records and the cap must eventually trip.
        for i in 0..(super::MUTATION_HISTORY_CAP / 2 + 64) {
            n.set_strips_communities(AsId(0), i % 2 == 0); // toggle: Communities
            n.set_policy(AsId(0), ImportPolicy::standard()); // no-op: Unchanged
        }
        // Far older than the cap: the log no longer reaches back.
        assert_eq!(n.changes_since(g0), None);
        // Recent generations still resolve.
        let recent = n.generation();
        n.set_strips_communities(AsId(0), true);
        assert_eq!(n.changes_since(recent), Some(vec![DirtyScope::Communities]));
    }

    #[test]
    fn dense_same_scope_batches_stay_reachable() {
        // Regression for the scale-exposed 64-record bound: a dense batch
        // of same-scope mutations (hundreds of no-op policy rewrites
        // between cache syncs, routine during 10k+ AS churn replays) used
        // to push every older stamp off the log, silently degrading
        // incremental cache eviction to a global flush. Coalescing keeps
        // the whole run as one record, so a stamp from before the batch
        // still resolves — the old code returned `None` here.
        let mut n = net();
        let g0 = n.generation();
        for _ in 0..200 {
            n.set_strips_communities(AsId(0), true);
        }
        let changes = n.changes_since(g0).expect("batch must stay reachable");
        // First toggle dirties Communities; the 199 no-ops coalesce (under
        // concurrent generation traffic a run may split, so bound it
        // rather than pin it).
        assert_eq!(changes.first(), Some(&DirtyScope::Communities));
        assert!(changes.len() <= 200);
        assert!(changes[1..]
            .iter()
            .all(|s| matches!(s, DirtyScope::Unchanged)));
        // Interior stamps of a coalesced run resolve too.
        let mid = n.generation();
        for _ in 0..50 {
            n.set_strips_communities(AsId(0), true);
        }
        assert!(n.unchanged_since(mid));
        assert_eq!(n.changes_since(mid), Some(vec![DirtyScope::Unchanged]));
    }

    #[test]
    fn set_policy_takes_effect() {
        let mut n = net();
        n.set_policy(
            AsId(2),
            ImportPolicy {
                loop_detection: LoopDetection::disabled(),
                ..ImportPolicy::standard()
            },
        );
        assert_eq!(n.policy(AsId(2)).loop_detection, LoopDetection::disabled());
    }
}
