//! Static policy-routing fixed point.
//!
//! Computes, for one [`AnnouncementSpec`], the route every AS selects once
//! BGP has converged: highest local preference (customer > peer > provider),
//! then shortest AS path, then deterministic tiebreaks; Gao-Rexford export
//! filtering; per-AS import policies including loop detection (which is what
//! makes poisoning work).
//!
//! The algorithm is a policy-aware Dijkstra: candidates are popped in global
//! preference order `(class, length, tiebreaks)`. Every export strictly
//! worsens that key (customer-learned routes re-export at +1 length;
//! peer/provider-learned routes only descend, arriving as provider routes),
//! so the first candidate an AS *accepts* is its converged selection. An AS
//! that rejects a candidate (loop detection saw the poison, a filter fired)
//! simply waits for the next-best candidate, exactly like a router that
//! never installed the rejected path.
//!
//! Every AS exports exactly the route it selected, so the converged state is
//! a tree: `path(a) = [learned_from(a)] ++ path(learned_from(a))`, ending in
//! the seed path an origin neighbor accepted. A [`RouteTable`] stores that
//! tree and nothing else, and the engine reads candidate paths straight off
//! the tree it is building. [`derive_routes`] starts from the converged tree
//! of a spec's prepended parent and re-decides only the ASes the poison can
//! reach.

use crate::announce::AnnouncementSpec;
use crate::network::Network;
use lg_asmap::{AsId, Relationship};
use lg_bgp::{AsPath, Prefix, RejectReason, Route};
use lg_telemetry::{Counter, Histogram};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Global-registry handles for the static engine, resolved once. A fixed
/// point tallies locally and flushes at return, so the hot loop sees no
/// atomics at all — the per-call cost is one `Instant` pair plus a handful
/// of relaxed adds, well under the ≤5% overhead budget on a medium spec.
struct ComputeMetrics {
    /// From-scratch fixed points computed.
    runs: Counter,
    /// Candidates popped by from-scratch fixed points.
    candidates: Counter,
    /// Path-tree nodes written (one per routed AS plus the seed hops).
    arena_nodes: Counter,
    /// Per-spec wall time of a from-scratch fixed point, microseconds.
    wall_us: Histogram,
    /// Candidates rejected by a max-path-length cap (`policy.filtered_*`
    /// counters are shared by name with the dynamic engine, so they
    /// aggregate filter activity across both engines).
    filtered_path_len: Counter,
    /// Candidates rejected by a poisoned-announcement filter.
    filtered_poisoned: Counter,
    /// Candidates rejected by a reserved-ASN filter.
    filtered_reserved: Counter,
    /// Tables re-derived from a cached one ([`derive_routes`],
    /// [`repair_link`]).
    delta_runs: Counter,
    /// Candidates popped by re-derivations.
    delta_candidates: Counter,
    /// ASes a re-derivation invalidated and re-decided.
    delta_region: Histogram,
    /// Re-derivations abandoned (a derivation for a from-scratch fixed
    /// point, a repair for an eviction).
    delta_fallbacks: Counter,
}

fn compute_metrics() -> &'static ComputeMetrics {
    static METRICS: OnceLock<ComputeMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = lg_telemetry::global();
        ComputeMetrics {
            runs: r.counter("compute.runs"),
            candidates: r.counter("compute.candidates"),
            arena_nodes: r.counter("compute.arena_nodes"),
            wall_us: r.histogram("compute.wall_us"),
            filtered_path_len: r.counter("policy.filtered_path_len"),
            filtered_poisoned: r.counter("policy.filtered_poisoned"),
            filtered_reserved: r.counter("policy.filtered_reserved"),
            delta_runs: r.counter("compute.delta_runs"),
            delta_candidates: r.counter("compute.delta_candidates"),
            delta_region: r.histogram("compute.delta_region"),
            delta_fallbacks: r.counter("compute.delta_fallbacks"),
        }
    })
}

/// Bits of a [`Hop`] holding `learned_from`.
const LEARNED_FROM_BITS: u32 = 18;
/// Bits of a [`Hop`] holding the path length.
const LEN_BITS: u32 = 11;
/// [`Hop::learned_from`] of an AS without a route: the field's all-ones
/// value, so a table holds at most `NO_ROUTE - 1` ASes.
const NO_ROUTE: u32 = (1 << LEARNED_FROM_BITS) - 1;
/// The longest path a [`Hop`] stores. A BGP UPDATE's 4096 bytes hold
/// about a thousand 4-byte ASNs.
const MAX_PATH_LEN: usize = (1 << LEN_BITS) - 1;

/// One AS's node in the next-hop tree: what it selected, minus the path,
/// which is the walk to the root. Four bytes, low bits first:
///
/// * bits 0–17, `learned_from`: the neighbor the selected route was
///   learned from ([`NO_ROUTE`] when the AS has none; the origin points at
///   itself);
/// * bits 18–28, `len`: hops on the selected path, prepends included;
/// * bits 29–30, `rel`: the AS's relationship toward `learned_from`;
/// * bit 31, `communities`: whether the announcement's communities were
///   still attached.
#[derive(Clone, Copy, Debug)]
struct Hop(u32);

const _: () = assert!(std::mem::size_of::<Hop>() == 4);

impl Hop {
    const NONE: Hop = Hop(NO_ROUTE);

    fn new(learned_from: u32, len: usize, rel: Relationship, communities: bool) -> Hop {
        debug_assert!(
            learned_from < NO_ROUTE,
            "AS index {learned_from} overflows a Hop"
        );
        let rel = match rel {
            Relationship::Customer => 0,
            Relationship::Peer => 1,
            Relationship::Provider => 2,
        };
        Hop(learned_from
            | path_len(len) << LEARNED_FROM_BITS
            | rel << (LEARNED_FROM_BITS + LEN_BITS)
            | (communities as u32) << 31)
    }

    fn learned_from(self) -> u32 {
        self.0 & NO_ROUTE
    }

    fn len(self) -> u32 {
        (self.0 >> LEARNED_FROM_BITS) & MAX_PATH_LEN as u32
    }

    fn rel(self) -> Relationship {
        match (self.0 >> (LEARNED_FROM_BITS + LEN_BITS)) & 0b11 {
            0 => Relationship::Customer,
            1 => Relationship::Peer,
            _ => Relationship::Provider,
        }
    }

    fn communities(self) -> bool {
        self.0 >> 31 == 1
    }

    fn routed(self) -> bool {
        self.learned_from() != NO_ROUTE
    }

    /// Was the selected route learned from `a`? (Never for an AS without
    /// a route, whatever `a` is: poison hops may name any ASN.)
    fn learned_from_as(self, a: AsId) -> bool {
        self.routed() && self.learned_from() == a.0
    }
}

/// One `(neighbor, path)` pair of the announcement, and whether the
/// neighbor selected it — the root end of every path that runs through it.
#[derive(Clone, Debug)]
struct Seed {
    neighbor: AsId,
    path: AsPath,
    accepted: bool,
}

/// A path length as a [`Hop`] stores it.
fn path_len(len: usize) -> u32 {
    assert!(
        len <= MAX_PATH_LEN,
        "an AS path of {len} hops is no BGP path (a RouteTable stores at most {MAX_PATH_LEN})"
    );
    len as u32
}

/// A spec's seeds in canonical `(neighbor, path)` order: the order the cache
/// keys on, and the order whose index breaks the tie between two seeds of
/// one length to one neighbor exactly as path content would.
fn canonical_seeds(spec: &AnnouncementSpec) -> Vec<Seed> {
    let mut seeds = spec.seeds.clone();
    seeds.sort_unstable();
    seeds
        .into_iter()
        .map(|(neighbor, path)| Seed {
            neighbor,
            path,
            accepted: false,
        })
        .collect()
}

/// The converged routing table for one prefix: each AS's selected route,
/// stored as the next-hop tree those routes form (four bytes per AS plus
/// the announcement's seed paths and communities, once).
#[derive(Clone, Debug)]
pub struct RouteTable {
    /// The prefix this table is for.
    pub prefix: Prefix,
    /// The originating AS.
    pub origin: AsId,
    hops: Vec<Hop>,
    /// See [`canonical_seeds`].
    seeds: Vec<Seed>,
    communities: Vec<u32>,
    /// ASes with a route, origin excluded.
    routed: usize,
}

impl RouteTable {
    /// The table before anything propagated: only the origin's self-route.
    fn unrouted(spec: &AnnouncementSpec, n: usize) -> Self {
        assert!(
            n < NO_ROUTE as usize,
            "a RouteTable holds at most {} ASes (18-bit next hops), not {n}",
            NO_ROUTE - 1
        );
        let mut hops = vec![Hop::NONE; n];
        hops[spec.origin.index()] = Hop::new(spec.origin.0, 0, Relationship::Customer, true);
        RouteTable {
            prefix: spec.prefix,
            origin: spec.origin,
            hops,
            seeds: canonical_seeds(spec),
            communities: spec.communities.clone(),
            routed: 0,
        }
    }

    /// Fold per-AS owned routes (the reference engine's output) into a
    /// table. Asserts the one thing the tree takes for granted — every
    /// selected path is its first hop followed by that hop's own selected
    /// path, or a seed — on paths built by an engine that does not share
    /// the representation.
    fn from_owned_routes(spec: &AnnouncementSpec, routes: &[Option<Route>]) -> Self {
        let mut table = RouteTable::unrouted(spec, routes.len());
        for (i, route) in routes.iter().enumerate() {
            let (a, Some(route)) = (AsId(i as u32), route) else {
                continue;
            };
            if a == spec.origin {
                continue;
            }
            if route.learned_from == spec.origin {
                table
                    .seeds
                    .iter_mut()
                    .find(|s| s.neighbor == a && s.path == route.path)
                    .expect("an origin neighbor selects one of its seeds")
                    .accepted = true;
            } else {
                let upstream = routes[route.learned_from.index()]
                    .as_ref()
                    .expect("a route is learned from an AS that holds one");
                assert_eq!(
                    route.path.hops().split_first(),
                    Some((&route.learned_from, upstream.path.hops())),
                    "path({a}) != [learned_from] ++ path(learned_from)"
                );
            }
            table.hops[i] = Hop::new(
                route.learned_from.0,
                route.path.len(),
                route.rel,
                !route.communities.is_empty(),
            );
            table.routed += 1;
        }
        table
    }

    /// The route `a` selected, or `None` when `a` has no route (captive
    /// behind a poisoned AS, disconnected, or filtered everywhere). The
    /// path is rebuilt by walking the tree.
    ///
    /// The origin itself reports a self-route with an empty path.
    pub fn route(&self, a: AsId) -> Option<Route> {
        let hop = self.hops[a.index()];
        hop.routed().then(|| {
            let mut path = Vec::with_capacity(hop.len() as usize);
            path.extend(self.path_hops(a));
            Route {
                prefix: self.prefix,
                path: AsPath::from_hops(path),
                learned_from: AsId(hop.learned_from()),
                rel: hop.rel(),
                communities: if hop.communities() {
                    self.communities.clone()
                } else {
                    Vec::new()
                },
            }
        })
    }

    /// Whether `a` has any route to the prefix.
    pub fn has_route(&self, a: AsId) -> bool {
        self.hops[a.index()].routed()
    }

    /// Next hop of `a` toward the origin, or `None` (origin or no route).
    pub fn next_hop(&self, a: AsId) -> Option<AsId> {
        let hop = self.hops[a.index()];
        (hop.routed() && a != self.origin).then_some(AsId(hop.learned_from()))
    }

    /// AS-level path `a` uses (selected AS path), prepends collapsed.
    pub fn as_path(&self, a: AsId) -> Option<Vec<AsId>> {
        self.has_route(a).then(|| {
            let mut distinct: Vec<AsId> = Vec::new();
            for h in self.path_hops(a) {
                if !distinct.contains(&h) {
                    distinct.push(h);
                }
            }
            distinct
        })
    }

    /// Number of ASes with a route (origin excluded).
    pub fn routed_count(&self) -> usize {
        self.routed
    }

    /// Heap bytes the table holds: the tree, the seed paths, the
    /// communities. For the memory-budget tests.
    #[doc(hidden)]
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let seed_hops: usize = self.seeds.iter().map(|s| s.path.len()).sum();
        self.hops.capacity() * size_of::<Hop>()
            + self.seeds.capacity() * size_of::<Seed>()
            + seed_hops * size_of::<AsId>()
            + self.communities.capacity() * size_of::<u32>()
    }

    /// The hops of `a`'s selected path, nearest first; nothing for the
    /// origin or an AS without a route.
    fn path_hops(&self, a: AsId) -> TreeHops<'_> {
        TreeHops {
            table: self,
            at: if a == self.origin { NO_ROUTE } else { a.0 },
            tail: [].iter(),
        }
    }

    /// Why `to`'s import policy on `net` refuses the route `learned_from`
    /// offers it (`learned_from`'s selected path behind `learned_from`
    /// itself, or seed path `seed` when that is the origin); `None` when it
    /// accepts.
    fn rejects(
        &self,
        net: &Network,
        to: AsId,
        rel: Relationship,
        learned_from: AsId,
        seed: u32,
        len: u32,
    ) -> Option<RejectReason> {
        let (policy, peers) = (net.policy(to), net.peers_of(to));
        if learned_from == self.origin {
            let hops = self.seeds[seed as usize].path.hops().iter().copied();
            policy.evaluate_hops(to, peers, rel, hops, len as usize)
        } else {
            let hops = std::iter::once(learned_from).chain(self.path_hops(learned_from));
            policy.evaluate_hops(to, peers, rel, hops, len as usize)
        }
    }

    /// Would routed `a` refuse the route it holds if it were offered on
    /// `net` today? (A derivation asks because the seed behind the path is
    /// not the one `a` accepted it with; a link repair, because the link
    /// changed a peer list.)
    fn rejects_selected(&self, net: &Network, a: AsId) -> bool {
        let hop = self.hops[a.index()];
        let upstream = AsId(hop.learned_from());
        let seed = if upstream == self.origin {
            self.accepted_seed(a)
        } else {
            0
        };
        self.rejects(net, a, hop.rel(), upstream, seed as u32, hop.len())
            .is_some()
    }

    /// Seed paths some origin neighbor selected.
    fn accepted_seeds(&self) -> impl Iterator<Item = &Seed> {
        self.seeds.iter().filter(|s| s.accepted)
    }

    /// Index of the seed origin neighbor `a` selected.
    fn accepted_seed(&self, a: AsId) -> usize {
        let first = self.seeds.partition_point(|s| s.neighbor < a);
        let among_its_own = self.seeds[first..]
            .iter()
            .take_while(|s| s.neighbor == a)
            .position(|s| s.accepted);
        first + among_its_own.expect("an AS routed via the origin accepted one of its seeds")
    }

    /// Does `child` hold a route learned from `parent` over a tree edge
    /// above the origin's neighbors? (An origin neighbor's first hop is
    /// whatever its seed path says, so those edges are read off the seeds.)
    fn tree_edge(&self, child: AsId, parent: AsId) -> bool {
        parent != self.origin
            && self
                .hops
                .get(child.index())
                .is_some_and(|h| h.learned_from_as(parent))
    }

    /// Does any selected route traverse the link `a`-`b` (either
    /// direction)? Edges are consecutive hop pairs of a selected path,
    /// including the holder-to-first-hop edge. Poisoned paths can name hop
    /// pairs that are not physical adjacencies; counting those keeps the
    /// check conservative for cache invalidation (never misses a user of
    /// the link).
    pub fn uses_link(&self, a: AsId, b: AsId) -> bool {
        let hit = |x: AsId, y: AsId| (x == a && y == b) || (x == b && y == a);
        self.tree_edge(a, b)
            || self.tree_edge(b, a)
            || self.accepted_seeds().any(|seed| {
                let mut prev = seed.neighbor;
                seed.path.hops().iter().any(|&h| {
                    let found = hit(prev, h);
                    prev = h;
                    found
                })
            })
    }

    /// Does `x` appear as a hop on any selected path? Holding a route is
    /// *not* enough: a peer-in-customer-path filter only ever sees hop
    /// sequences, so an AS that routes but sits on nobody's path cannot
    /// flip an acceptance decision. The cheap boolean the cache's
    /// peer-link eviction predicate runs per entry — [`Self::ases_via`]
    /// allocates, this doesn't.
    pub fn routes_via(&self, x: AsId) -> bool {
        (x != self.origin && self.hops.iter().any(|h| h.learned_from_as(x)))
            || self.accepted_seeds().any(|seed| seed.path.contains(x))
    }

    /// ASes whose selected path traverses `x` (origin excluded).
    pub fn ases_via(&self, x: AsId) -> Vec<AsId> {
        (0..self.hops.len() as u32)
            .map(AsId)
            .filter(|&a| a != self.origin && a != x && self.path_hops(a).any(|h| h == x))
            .collect()
    }
}

/// A selected path read off a [`RouteTable`]'s tree: the chain of
/// `learned_from` links up to an origin neighbor, then the seed path that
/// neighbor accepted.
#[derive(Clone)]
struct TreeHops<'a> {
    table: &'a RouteTable,
    /// The AS whose `learned_from` is the next hop; [`NO_ROUTE`] once the
    /// walk is inside (or past) the seed path.
    at: u32,
    tail: std::slice::Iter<'a, AsId>,
}

impl Iterator for TreeHops<'_> {
    type Item = AsId;

    fn next(&mut self) -> Option<AsId> {
        if self.at == NO_ROUTE {
            return self.tail.next().copied();
        }
        let hop = self.table.hops[self.at as usize];
        if hop.learned_from_as(self.table.origin) {
            let seed = self.table.accepted_seed(AsId(self.at));
            self.at = NO_ROUTE;
            self.tail = self.table.seeds[seed].path.hops().iter();
            return self.tail.next().copied();
        }
        self.at = hop.learned_from();
        hop.routed().then_some(AsId(self.at))
    }
}

/// A pending candidate inside one [`DeltaQueue`] bucket; its `(class, len)`
/// prefix is the bucket coordinate, so only the tiebreak tail is stored.
///
/// The global pop order must reproduce [`compute_routes_reference`]'s key
/// `(class, len, to, learned_from, path-content)`. The seed index stands in
/// for the content tiebreak: two distinct candidates can tie on `(class,
/// len, to, learned_from)` only when both are seeds to one neighbor —
/// every other AS exports at most once, and the origin never re-exports —
/// and [`canonical_seeds`] orders those by content.
#[derive(PartialEq, Eq)]
struct Pending {
    to: AsId,
    learned_from: AsId,
    /// Index into the table's seeds when `learned_from` is the origin.
    seed: u32,
    rel: Relationship,
    /// Whether the spec's communities are still attached (they are only
    /// ever the spec's full list or stripped to nothing).
    with_communities: bool,
}

impl Ord for Pending {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.to
            .cmp(&other.to)
            .then_with(|| self.learned_from.cmp(&other.learned_from))
            .then_with(|| self.seed.cmp(&other.seed))
    }
}

impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Frontier delta-queue: candidates bucketed by `(class, len)`, a min-heap
/// of tiebreak tails per bucket.
///
/// The old engine kept every candidate in one global `BinaryHeap`, paying
/// `O(log total)` per operation on a key whose first two fields are tiny
/// integers. Gao-Rexford export monotonicity (a candidate popped at
/// `(class, len)` only ever produces exports at `(class, len + 1)` or a
/// higher class) means the bucket coordinate advances almost monotonically,
/// so a per-class cursor plus per-bucket heaps gives `O(log bucket)` pops
/// — and the bucket holds only same-preference ties, not the whole
/// frontier. Pop order is exactly the reference key order.
struct DeltaQueue {
    /// `buckets[class][len]` — `pref_class()` is 0..=2.
    buckets: [Vec<BinaryHeap<Reverse<Pending>>>; 3],
    /// Lowest possibly non-empty bucket per class; pushes `min()` it down,
    /// pops advance it past drained buckets.
    cursor: [usize; 3],
    counts: [usize; 3],
    pending: usize,
    peak: usize,
    pushed: u64,
}

impl DeltaQueue {
    fn new() -> Self {
        DeltaQueue {
            buckets: [Vec::new(), Vec::new(), Vec::new()],
            cursor: [0; 3],
            counts: [0; 3],
            pending: 0,
            peak: 0,
            pushed: 0,
        }
    }

    fn push(&mut self, class: u8, len: u32, p: Pending) {
        let (c, l) = (class as usize, len as usize);
        if self.buckets[c].len() <= l {
            self.buckets[c].resize_with(l + 1, BinaryHeap::new);
        }
        self.buckets[c][l].push(Reverse(p));
        self.cursor[c] = self.cursor[c].min(l);
        self.counts[c] += 1;
        self.pending += 1;
        self.peak = self.peak.max(self.pending);
        self.pushed += 1;
    }

    /// Pop the globally least candidate by `(class, len, to, learned_from,
    /// seed)`. Lower classes win regardless of length, so the scan is
    /// class-major.
    fn pop(&mut self) -> Option<(u8, u32, Pending)> {
        for c in 0..3 {
            if self.counts[c] == 0 {
                continue;
            }
            let mut l = self.cursor[c];
            // counts[c] > 0 guarantees a non-empty bucket at or after the
            // cursor (pushes pull the cursor down to their bucket).
            while self.buckets[c][l].is_empty() {
                l += 1;
            }
            self.cursor[c] = l;
            let Reverse(p) = self.buckets[c][l].pop().expect("bucket non-empty");
            self.counts[c] -= 1;
            self.pending -= 1;
            return Some((c as u8, l as u32, p));
        }
        None
    }
}

/// Counters from one frontier fixed point; exposed (doc-hidden) so the
/// scalability bench and the memory-budget tests can assert that pruning
/// keeps queue growth linear in AS count.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, Default)]
pub struct FrontierStats {
    /// Candidates enqueued.
    pub pushed: u64,
    /// Candidates popped (fixed-point iterations).
    pub popped: u64,
    /// Candidates dropped at push time by never-reject dominance pruning.
    pub pruned: u64,
    /// Import-policy evaluations actually run (pops minus never-reject
    /// skips and already-routed skips).
    pub policy_checks: u64,
    /// High-water mark of simultaneously pending candidates.
    pub peak_pending: usize,
    /// Path-tree nodes written: one per AS that accepted a route plus the
    /// hops of the offered seed paths (the tree is what used to be a
    /// separate path arena, hence the name).
    pub arena_nodes: usize,
}

/// Bits of a dominance key holding the path length.
const KEY_LEN_BITS: u32 = 16;
/// Bits of a dominance key holding the seed index.
const KEY_SEED_BITS: u32 = 28;

/// Dominance key for never-reject pruning: `(class, len, learned_from,
/// seed)` packed into 2 + 16 + 18 + 28 bits so a single integer compare
/// decides. `to` is omitted — the key is only ever compared within one
/// AS's slot. `learned_from` fits because a table caps its AS count
/// ([`RouteTable::unrouted`]); a candidate's length is a settled length
/// plus one or a seed path's, and [`Frontier::new`] and
/// [`Frontier::offer_seed`] assert the seed count and seed lengths.
#[inline]
fn pack_key(class: u8, len: u32, learned_from: AsId, seed: u32) -> u64 {
    debug_assert!(class < 3 && len < 1 << KEY_LEN_BITS && seed < 1 << KEY_SEED_BITS);
    (class as u64) << (KEY_LEN_BITS + LEARNED_FROM_BITS + KEY_SEED_BITS)
        | (len as u64) << (LEARNED_FROM_BITS + KEY_SEED_BITS)
        | (learned_from.0 as u64) << KEY_SEED_BITS
        | seed as u64
}

const _: () = assert!(2 + KEY_LEN_BITS + LEARNED_FROM_BITS + KEY_SEED_BITS == 64);
const _: () = assert!(MAX_PATH_LEN < 1 << KEY_LEN_BITS);

/// Compute the converged table for `spec` over `net`.
///
/// `spec` should pass [`AnnouncementSpec::validate`]; seeds pointing at
/// non-neighbors are ignored defensively.
///
/// This is the frontier engine: candidates live in a [`DeltaQueue`]
/// bucketed by preference, paths in the tree being built, and ASes whose
/// import policy can never reject (no filters configured and not on the
/// announcement's footprint, i.e. loop detection cannot fire) are pruned
/// down to their single best pending candidate — only ASes whose best
/// route can still change are revisited. It is differentially tested
/// against [`compute_routes_reference`] (tests/compute_equivalence.rs) and
/// produces byte-identical tables. It never consults a cache: it is the
/// oracle [`derive_routes`] is tested against and how parents are built.
pub fn compute_routes(net: &Network, spec: &AnnouncementSpec) -> RouteTable {
    frontier_fixed_point(net, spec).0
}

/// [`compute_routes`] exposing [`FrontierStats`] for memory-budget tests
/// and the scalability bench. Not part of the public API.
#[doc(hidden)]
pub fn compute_routes_with_stats(
    net: &Network,
    spec: &AnnouncementSpec,
) -> (RouteTable, FrontierStats) {
    frontier_fixed_point(net, spec)
}

/// One run of the frontier: the tree being built, the pending candidates,
/// and what the run may skip. [`compute_routes`] starts it from the origin
/// alone, [`derive_routes`] from a converged parent with a hole in it.
struct Frontier<'a> {
    net: &'a Network,
    table: RouteTable,
    /// Whether ASes were routed before the run began (a parent's kept
    /// routes) — see [`Self::drain`].
    derived: bool,
    /// `can_reject[a]`: may `a`'s import policy ever reject a candidate of
    /// this announcement? Loop detection only fires when `a` itself appears
    /// in the offered path; exporters on a candidate's path are ASes that
    /// accepted before the push (an AS with a selected route is never
    /// offered more), so `a` can only appear via the seed paths — the
    /// announcement's footprint. Everything else needs a configured filter.
    /// `default_route` never affects import (data-plane only).
    can_reject: Vec<bool>,
    /// Best pending dominance key per never-reject AS; `u64::MAX` = none.
    /// Empty in a derived run, whose queue its region already bounds: an
    /// n-sized array would cost more than the run.
    best: Vec<u64>,
    queue: DeltaQueue,
    stats: FrontierStats,
    /// Popped candidates a filter rejected [path-len, poisoned,
    /// reserved-ASN], flushed to the `policy.filtered_*` counters by
    /// [`Self::finish`] so the hot loop stays atomics-free.
    filtered: [u64; 3],
}

impl<'a> Frontier<'a> {
    fn new(net: &'a Network, table: RouteTable, derived: bool) -> Self {
        let n = net.len();
        let mut can_reject = net.path_filtered().to_vec();
        for seed in &table.seeds {
            for h in seed.path.hops() {
                // Poison hops can name reserved ASNs outside the graph; those
                // are never candidate targets, so only in-graph hops matter.
                if h.index() < n {
                    can_reject[h.index()] = true;
                }
            }
        }
        assert!(
            table.seeds.len() < 1 << KEY_SEED_BITS,
            "{} seeds overflow a dominance key",
            table.seeds.len()
        );
        Frontier {
            net,
            table,
            derived,
            can_reject,
            best: if derived {
                Vec::new()
            } else {
                vec![u64::MAX; n]
            },
            queue: DeltaQueue::new(),
            stats: FrontierStats::default(),
            filtered: [0; 3],
        }
    }

    /// Offer a candidate to the queue, applying never-reject dominance
    /// pruning.
    ///
    /// For an AS that cannot reject, the first candidate popped for it is
    /// guaranteed to be accepted; any candidate whose full key is worse
    /// than the best already pending for that AS would pop later, find the
    /// AS routed, and be skipped — so dropping it here cannot change the
    /// fixed point. This is what bounds queue memory to O(V) on filter-free
    /// regions of the graph.
    #[inline]
    fn offer(&mut self, class: u8, len: u32, p: Pending) {
        let slot = p.to.index();
        if !self.derived && !self.can_reject[slot] {
            let key = pack_key(class, len, p.learned_from, p.seed);
            if key >= self.best[slot] {
                self.stats.pruned += 1;
                return;
            }
            self.best[slot] = key;
        }
        self.queue.push(class, len, p);
    }

    /// Offer seed `i` to its neighbor (nothing when they are not adjacent).
    fn offer_seed(&mut self, i: usize) {
        let origin = self.table.origin;
        let (nbr, len) = (self.table.seeds[i].neighbor, self.table.seeds[i].path.len());
        let Some(rel) = self.net.graph().relationship(nbr, origin) else {
            return;
        };
        assert!(
            len < 1 << KEY_LEN_BITS,
            "a seed path of {len} hops overflows a dominance key"
        );
        self.stats.arena_nodes += len;
        self.offer(
            rel.pref_class(),
            len as u32,
            Pending {
                to: nbr,
                learned_from: origin,
                seed: i as u32,
                rel,
                with_communities: true,
            },
        );
    }

    /// Pop candidates in preference order until none is pending, settling
    /// every AS without a route on the first one it accepts.
    ///
    /// A from-scratch run only ever meets routed neighbors that settled on
    /// an earlier, better key; a derived run can also meet a kept neighbor
    /// that would now *prefer* the export it is being skipped for, which
    /// the kept tree cannot express. Returns `false` at the first such
    /// export, with the table unusable.
    fn drain(&mut self) -> bool {
        let net = self.net;
        while let Some((_, len, cand)) = self.queue.pop() {
            self.stats.popped += 1;
            let to = cand.to;
            if self.table.hops[to.index()].routed() {
                continue; // already selected a better (or equal-popped-first) route
            }
            // Import policy: loop detection and filters, straight off the
            // tree. Never-reject ASes skip the walk entirely — their first
            // popped candidate is their converged selection by construction.
            if self.can_reject[to.index()] {
                self.stats.policy_checks += 1;
                let rejected =
                    self.table
                        .rejects(net, to, cand.rel, cand.learned_from, cand.seed, len);
                if let Some(reason) = rejected {
                    match reason {
                        RejectReason::PathLenCap => self.filtered[0] += 1,
                        RejectReason::Poisoned => self.filtered[1] += 1,
                        RejectReason::ReservedAsn => self.filtered[2] += 1,
                        _ => {}
                    }
                    continue;
                }
            }
            self.table.hops[to.index()] = Hop::new(
                cand.learned_from.0,
                len as usize,
                cand.rel,
                cand.with_communities,
            );
            if cand.learned_from == self.table.origin {
                self.table.seeds[cand.seed as usize].accepted = true;
            }
            self.table.routed += 1;
            self.stats.arena_nodes += 1;

            // Export the newly selected route. Communities survive unless
            // this AS strips them.
            let exported_len = len + 1;
            let exported_communities = cand.with_communities && !net.strips_communities(to);
            for (m, rel_to_m) in net.graph().neighbors(to) {
                if *m == cand.learned_from || !cand.rel.exportable_to(*rel_to_m) {
                    continue;
                }
                let m_rel = rel_to_m.reverse(); // m's view of `to`
                let held = self.table.hops[m.index()];
                if held.routed() {
                    // m already finalized; the candidate loses — unless m
                    // is a kept AS that never saw an offer this good.
                    if self.derived
                        && (m_rel.pref_class(), exported_len, to.0)
                            < (held.rel().pref_class(), held.len(), held.learned_from())
                        && !(self.can_reject[m.index()]
                            && self
                                .table
                                .rejects(net, *m, m_rel, to, 0, exported_len)
                                .is_some())
                    {
                        return false;
                    }
                    continue;
                }
                self.offer(
                    m_rel.pref_class(),
                    exported_len,
                    Pending {
                        to: *m,
                        learned_from: to,
                        seed: 0,
                        rel: m_rel,
                        with_communities: exported_communities,
                    },
                );
            }
        }
        true
    }

    /// Close the run: flush the filter counters, hand back the table.
    fn finish(mut self) -> (RouteTable, FrontierStats) {
        self.stats.pushed = self.queue.pushed;
        self.stats.peak_pending = self.queue.peak;
        let m = compute_metrics();
        m.filtered_path_len.add(self.filtered[0]);
        m.filtered_poisoned.add(self.filtered[1]);
        m.filtered_reserved.add(self.filtered[2]);
        (self.table, self.stats)
    }
}

fn frontier_fixed_point(net: &Network, spec: &AnnouncementSpec) -> (RouteTable, FrontierStats) {
    let started = Instant::now();
    let seed_span = lg_telemetry::trace::span("compute.seed");
    let mut frontier = Frontier::new(net, RouteTable::unrouted(spec, net.len()), false);
    for i in 0..frontier.table.seeds.len() {
        frontier.offer_seed(i);
    }
    drop(seed_span);
    {
        let _drain_span = lg_telemetry::trace::span("compute.drain");
        let settled = frontier.drain();
        debug_assert!(settled, "only a derived run can be abandoned");
    }
    let (table, stats) = frontier.finish();

    let m = compute_metrics();
    m.runs.inc();
    m.candidates.add(stats.popped);
    m.arena_nodes.add(stats.arena_nodes as u64);
    m.wall_us.record_elapsed_us(started);
    (table, stats)
}

/// The spec `spec`'s table can be derived from: the same prefix, origin,
/// seeded neighbors and communities with every seed path replaced by the
/// prepended baseline of its own length (`O-A-O` → `O-O-O`).
///
/// `None` when `spec` *is* such a baseline, and for the shapes the
/// derivation's lemma does not cover: a seed path that does not start and
/// end with the origin (origin copies elsewhere in the tail are what
/// [`lg_bgp::ImportPolicy`]'s filters saw in the parent), or a neighbor
/// seeded twice (the parent cannot say which of its two identical
/// baselines stands for which path).
pub(crate) fn prepended_parent(spec: &AnnouncementSpec) -> Option<AnnouncementSpec> {
    let origin = spec.origin;
    let shaped = |p: &AsPath| p.first() == Some(origin) && p.origin() == Some(origin);
    let poisoned = |p: &AsPath| p.hops().iter().any(|h| *h != origin);
    if !spec.seeds.iter().all(|(_, p)| shaped(p)) || !spec.seeds.iter().any(|(_, p)| poisoned(p)) {
        return None;
    }
    let mut neighbors: Vec<AsId> = spec.seeds.iter().map(|(n, _)| *n).collect();
    neighbors.sort_unstable();
    if neighbors.windows(2).any(|w| w[0] == w[1]) {
        return None;
    }
    Some(AnnouncementSpec {
        seeds: spec
            .seeds
            .iter()
            .map(|(n, p)| (*n, AsPath::prepended_baseline(origin, p.len())))
            .collect(),
        ..spec.clone()
    })
}

/// A [`RouteTable`]'s tree read downward: the ASes that learned their route
/// from each AS, and the ASes without one. Every AS but the origin sits in
/// exactly one row, so the index costs at most 8 bytes per AS. The shared
/// cache keeps one beside each table it re-derives from (never inside the
/// table), so a re-derivation finds the subtrees it must re-decide without
/// a pass over every AS.
#[derive(Debug)]
pub(crate) struct ChildIndex {
    /// Row `a < n` holds `a`'s children and row `n` the unrouted ASes; row
    /// `r` is `members[offsets[r]..offsets[r + 1]]`, ascending.
    offsets: Vec<u32>,
    members: Vec<u32>,
}

impl ChildIndex {
    /// Index `table`'s tree: a counting sort of every AS but the origin by
    /// its `learned_from` (or by "unrouted").
    pub(crate) fn of(table: &RouteTable) -> Self {
        let n = table.hops.len();
        let origin = table.origin.index();
        let row = |i: usize| {
            let hop = table.hops[i];
            if hop.routed() {
                hop.learned_from() as usize
            } else {
                n
            }
        };
        let mut offsets = vec![0u32; n + 2];
        for i in (0..n).filter(|&i| i != origin) {
            offsets[row(i) + 1] += 1;
        }
        for r in 1..offsets.len() {
            offsets[r] += offsets[r - 1];
        }
        // Filling each row at its running start leaves every start at its
        // row's end, one slot right of where the next row's start belongs.
        let mut members = vec![0u32; offsets[n + 1] as usize];
        for i in (0..n).filter(|&i| i != origin) {
            let r = row(i);
            members[offsets[r] as usize] = i as u32;
            offsets[r] += 1;
        }
        offsets.copy_within(0..n + 1, 1);
        offsets[0] = 0;
        ChildIndex { offsets, members }
    }

    fn row(&self, r: usize) -> &[u32] {
        &self.members[self.offsets[r] as usize..self.offsets[r + 1] as usize]
    }

    /// The ASes that learned their route from `a`.
    fn children(&self, a: u32) -> &[u32] {
        self.row(a as usize)
    }

    /// The ASes without a route.
    fn unrouted(&self) -> &[u32] {
        self.row(self.offsets.len() - 2)
    }

    /// Heap bytes the index holds. For the memory-budget tests.
    #[cfg(test)]
    fn heap_bytes(&self) -> usize {
        (self.offsets.capacity() + self.members.capacity()) * std::mem::size_of::<u32>()
    }
}

/// Re-decide the part of `table` that a change can reach: a derivation's
/// new seed tails, or one link's surgery on `net`. `table` is the converged
/// table from before the change (carrying the new seeds, if any) and
/// `index` is its [`ChildIndex`].
///
/// The *region* is the union of the subtrees of `roots`, of the ASes
/// `table` leaves without a route (each may accept an offer that only
/// exists now), and of every AS whose import policy now refuses its own
/// selection — which only the announcement's footprint and the ASes that
/// filter paths can do, so only those are asked. Everything outside the
/// region keeps its route, whose path avoids every root. The region is
/// emptied, offered the exports of its kept neighbors and the spec's own
/// seeds, and drained in the engine's order: the cost is the region's, not
/// the network's.
///
/// One thing a kept route cannot survive: a re-decided AS that now exports
/// a *better* candidate to a kept AS than the kept AS holds.
/// [`Frontier::drain`] sees that at export time and gives up; `None` tells
/// the caller to fall back (counted in `compute.delta_fallbacks`).
fn rederive(
    net: &Network,
    table: RouteTable,
    roots: &[AsId],
    index: &ChildIndex,
) -> Option<RouteTable> {
    let n = net.len();
    let origin = table.origin;
    assert_eq!(table.hops.len(), n, "table computed over another network");
    assert!(!roots.contains(&origin), "the origin is never re-decided");
    let mut frontier = Frontier::new(net, table, true);

    let mut starts = roots.to_vec();
    let table = &frontier.table;
    let footprint = table.seeds.iter().flat_map(|s| s.path.hops());
    for &a in footprint.chain(net.path_filtered_ases()) {
        // Poison hops can name ASNs outside the graph; they hold no route.
        if a.index() < n && a != origin && table.has_route(a) && table.rejects_selected(net, a) {
            starts.push(a);
        }
    }
    #[cfg(test)]
    let walked = walk_up_region(&frontier, roots);

    // Empty the region subtree by subtree, off the index. An AS found
    // already empty was collected before: the unrouted ones up front (no
    // AS learns from them), the rest by an earlier subtree.
    let mut region: Vec<u32> = index.unrouted().to_vec();
    let mut stack: Vec<u32> = Vec::new();
    for a in starts {
        stack.push(a.0);
        while let Some(i) = stack.pop() {
            let table = &mut frontier.table;
            let hop = table.hops[i as usize];
            if !hop.routed() {
                continue;
            }
            if hop.learned_from_as(origin) {
                // Still marked accepted, so still findable.
                let seed = table.accepted_seed(AsId(i));
                table.seeds[seed].accepted = false;
            }
            table.hops[i as usize] = Hop::NONE;
            table.routed -= 1;
            region.push(i);
            stack.extend_from_slice(index.children(i));
        }
    }
    #[cfg(test)]
    {
        let mut got = region.clone();
        got.sort_unstable();
        assert_eq!(got, walked, "index region differs from the walk-up region");
    }

    // What the kept ASes export into the region, and the origin's seeds.
    for &i in &region {
        let a = AsId(i);
        for (m, rel_to_m) in net.graph().neighbors(a) {
            let held = frontier.table.hops[m.index()];
            if *m == origin || !held.routed() || !held.rel().exportable_to(rel_to_m.reverse()) {
                continue;
            }
            frontier.offer(
                rel_to_m.pref_class(),
                held.len() + 1,
                Pending {
                    to: a,
                    learned_from: *m,
                    seed: 0,
                    rel: *rel_to_m,
                    with_communities: held.communities() && !net.strips_communities(*m),
                },
            );
        }
    }
    for i in 0..frontier.table.seeds.len() {
        let nbr = frontier.table.seeds[i].neighbor;
        if frontier
            .table
            .hops
            .get(nbr.index())
            .is_some_and(|h| !h.routed())
        {
            frontier.offer_seed(i);
        }
    }

    let settled = frontier.drain();
    let (table, stats) = frontier.finish();
    let m = compute_metrics();
    if !settled {
        m.delta_fallbacks.inc();
        return None;
    }
    m.delta_runs.inc();
    m.delta_candidates.add(stats.popped);
    m.delta_region.record(region.len() as u64);
    Some(table)
}

/// The region [`rederive`] must find, found the slow way: walk up from
/// every AS to the first decided ancestor, deciding the walked ones that
/// are roots (explicit, unrouted, or refusing their own selection — asked
/// of every AS that may reject), then stamp the chain with its verdict.
/// The O(n) pass the child index replaced, kept as its oracle.
#[cfg(test)]
fn walk_up_region(frontier: &Frontier, roots: &[AsId]) -> Vec<u32> {
    const UNKNOWN: u8 = 0;
    const KEPT: u8 = 1;
    const REGION: u8 = 2;
    let table = &frontier.table;
    let n = table.hops.len();
    let mut mark = vec![UNKNOWN; n];
    mark[table.origin.index()] = KEPT;
    let mut region: Vec<u32> = Vec::new();
    let mut chain: Vec<usize> = Vec::new();
    for i in 0..n {
        let mut at = i;
        while mark[at] == UNKNOWN {
            let (a, hop) = (AsId(at as u32), table.hops[at]);
            if !hop.routed()
                || roots.contains(&a)
                || (frontier.can_reject[at] && table.rejects_selected(frontier.net, a))
            {
                mark[at] = REGION;
            } else {
                chain.push(at);
                at = hop.learned_from() as usize;
            }
        }
        let verdict = mark[at];
        for c in chain.drain(..) {
            mark[c] = verdict;
        }
        if mark[i] == REGION {
            region.push(i as u32);
        }
    }
    region
}

/// Derive `spec`'s converged table from `parent`, the converged table of
/// [`prepended_parent`]`(spec)` over the same `net`, and `index`, the
/// parent's [`ChildIndex`] — byte-identical to [`compute_routes`]`(net,
/// spec)`, at the cost of the ASes the poison reaches instead of all of
/// them.
///
/// Soundness rests on one lemma (`lg-bgp`'s
/// `poison_hops_only_add_rejections` property test): swapping origin
/// copies in a seed tail for other hops, length kept, can only make an
/// import policy reject *more*. So an AS whose own selected path — same
/// chain, new tail — is still accepted, all the way up, keeps that route:
/// nothing better that it refused before became acceptable. The parent's
/// tree with the new tails is re-decided by [`rederive`] with no roots of
/// its own: its region is every AS that now refuses its selection, the ASes
/// the parent left without a route, and everything below one in the tree.
/// `None` when that gives up; the caller runs [`compute_routes`].
pub(crate) fn derive_routes(
    net: &Network,
    spec: &AnnouncementSpec,
    parent: &RouteTable,
    index: &ChildIndex,
) -> Option<RouteTable> {
    assert_eq!(
        parent.hops.len(),
        net.len(),
        "parent computed over another network"
    );
    // One seed per neighbor on both sides, so canonical order lines seed i
    // of the parent up with seed i here: same neighbor, new path.
    let mut seeds = canonical_seeds(spec);
    assert!(
        seeds
            .iter()
            .map(|s| s.neighbor)
            .eq(parent.seeds.iter().map(|s| s.neighbor)),
        "parent is not the spec's prepended parent"
    );
    for (seed, baseline) in seeds.iter_mut().zip(&parent.seeds) {
        seed.accepted = baseline.accepted;
    }
    let table = RouteTable {
        prefix: spec.prefix,
        origin: spec.origin,
        hops: parent.hops.clone(),
        seeds,
        communities: spec.communities.clone(),
        routed: parent.routed,
    };
    rederive(net, table, &[], index)
}

/// Repair `table`, converged over `net` as it was one link surgery ago —
/// link `a`-`b` added when `up`, removed otherwise — into the table of
/// `net` as it stands, byte-identical to [`compute_routes`]. `index` is
/// `table`'s [`ChildIndex`].
///
/// Removal only removes candidates, so only the AS whose selection crossed
/// the link — the child end of the removed tree edge — and its subtree are
/// re-decided. Addition only adds candidates, and only at the endpoints: an
/// endpoint is re-decided when it would accept, and strictly prefer by
/// `(class, len, learned_from)`, the offer the other end now makes over
/// the link, or when the link joined its peer list and its filter now
/// refuses its own selection. An extra root only costs time; a missing one
/// would keep a stale route. With no root the table is unchanged, and the
/// same `Arc` comes back.
///
/// `None` when an endpoint is the origin (which neighbors the seeds reach
/// is the announcement's business, not the tree's) and when [`rederive`]
/// gives up.
pub(crate) fn repair_link(
    net: &Network,
    table: &Arc<RouteTable>,
    index: &ChildIndex,
    a: AsId,
    b: AsId,
    up: bool,
) -> Option<Arc<RouteTable>> {
    if a == table.origin || b == table.origin {
        return None;
    }
    let mut roots = Vec::new();
    for (x, y) in [(a, b), (b, a)] {
        if !up {
            if table.tree_edge(x, y) {
                roots.push(x);
            }
            continue;
        }
        let held = table.hops[x.index()];
        if held.routed() && net.path_filtered()[x.index()] && table.rejects_selected(net, x) {
            roots.push(x);
            continue;
        }
        let offer = table.hops[y.index()];
        let Some(rel_to_x) = net.graph().relationship(y, x) else {
            continue;
        };
        if !offer.routed() || !offer.rel().exportable_to(rel_to_x) {
            continue;
        }
        let (rel, len) = (rel_to_x.reverse(), offer.len() + 1);
        let prefers = !held.routed()
            || (rel.pref_class(), len, y.0)
                < (held.rel().pref_class(), held.len(), held.learned_from());
        if prefers && table.rejects(net, x, rel, y, 0, len).is_none() {
            roots.push(x);
        }
    }
    if roots.is_empty() {
        return Some(Arc::clone(table));
    }
    rederive(net, RouteTable::clone(table), &roots, index).map(Arc::new)
}

/// The effective data-plane path of `a` toward the table's origin, default
/// routes included: an AS holding no BGP route still forwards toward its
/// default provider (Smith et al. — defaults are one of the mechanisms
/// that throttle poisoning, because traffic keeps flowing along a chain
/// the poison never touched). Returns the AS-level hop sequence from `a`
/// (inclusive) to the origin (inclusive), or `None` when `a` cannot reach
/// the prefix at all.
///
/// The chain follows deterministic default providers
/// ([`Network::default_provider`]) until some AS holds a route, then walks
/// that AS's selected next hops. The repair planner runs this instead of
/// [`RouteTable::has_route`] so a "repaired" target that still reaches the
/// culprit through a default route is reported as unrepaired.
pub fn effective_path(net: &Network, table: &RouteTable, a: AsId) -> Option<Vec<AsId>> {
    let mut hops = vec![a];
    let mut cur = a;
    while !table.has_route(cur) {
        let next = net.default_provider(cur)?;
        if hops.contains(&next) {
            return None; // defensive: a default-route loop goes nowhere
        }
        hops.push(next);
        cur = next;
    }
    while let Some(nh) = table.next_hop(cur) {
        if hops.contains(&nh) {
            return None;
        }
        hops.push(nh);
        cur = nh;
    }
    (cur == table.origin).then_some(hops)
}

/// Reference candidate for [`compute_routes_reference`]: owns its path and
/// communities, ordering key identical to the original engine.
#[derive(PartialEq, Eq)]
struct RefCandidate {
    class: u8,
    len: usize,
    to: AsId,
    learned_from: AsId,
    path: AsPath,
    rel: Relationship,
    communities: Vec<u32>,
}

impl Ord for RefCandidate {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.class
            .cmp(&other.class)
            .then_with(|| self.len.cmp(&other.len))
            .then_with(|| self.to.cmp(&other.to))
            .then_with(|| self.learned_from.cmp(&other.learned_from))
            .then_with(|| self.path.cmp(&other.path))
    }
}

impl PartialOrd for RefCandidate {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The original clone-heavy fixed point, kept verbatim as a differential
/// oracle for [`compute_routes`]: it owns a full `AsPath` per candidate and
/// per selected route, and only folds them into a [`RouteTable`] at the end
/// ([`RouteTable::from_owned_routes`], which asserts the tree invariant on
/// those owned paths). Not part of the public API.
#[doc(hidden)]
pub fn compute_routes_reference(net: &Network, spec: &AnnouncementSpec) -> RouteTable {
    let n = net.len();
    let mut routes: Vec<Option<Route>> = vec![None; n];
    let mut heap: BinaryHeap<Reverse<RefCandidate>> = BinaryHeap::new();

    routes[spec.origin.index()] = Some(Route {
        prefix: spec.prefix,
        path: AsPath::empty(),
        learned_from: spec.origin,
        rel: Relationship::Customer,
        communities: spec.communities.clone(),
    });

    for (nbr, path) in &spec.seeds {
        let Some(rel) = net.graph().relationship(*nbr, spec.origin) else {
            continue;
        };
        heap.push(Reverse(RefCandidate {
            class: rel.pref_class(),
            len: path.len(),
            to: *nbr,
            learned_from: spec.origin,
            path: path.clone(),
            rel,
            communities: spec.communities.clone(),
        }));
    }

    while let Some(Reverse(cand)) = heap.pop() {
        let to = cand.to;
        if routes[to.index()].is_some() {
            continue;
        }
        let accepted = net
            .policy(to)
            .accepts(to, net.peers_of(to), cand.rel, &cand.path);
        if !accepted {
            continue;
        }
        let route = Route {
            prefix: spec.prefix,
            path: cand.path,
            learned_from: cand.learned_from,
            rel: cand.rel,
            communities: cand.communities,
        };

        let exported = route.path.announced_by(to);
        let exported_communities = if net.strips_communities(to) {
            Vec::new()
        } else {
            route.communities.clone()
        };
        for (m, rel_to_m) in net.graph().neighbors(to) {
            if *m == route.learned_from {
                continue;
            }
            if !route.rel.exportable_to(*rel_to_m) {
                continue;
            }
            if routes[m.index()].is_some() {
                continue;
            }
            let m_rel = rel_to_m.reverse();
            heap.push(Reverse(RefCandidate {
                class: m_rel.pref_class(),
                len: exported.len(),
                to: *m,
                learned_from: to,
                path: exported.clone(),
                rel: m_rel,
                communities: exported_communities.clone(),
            }));
        }

        routes[to.index()] = Some(route);
    }

    RouteTable::from_owned_routes(spec, &routes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lg_asmap::GraphBuilder;
    use lg_bgp::{ImportPolicy, LoopDetection};

    fn pfx() -> Prefix {
        Prefix::from_octets(10, 0, 0, 0, 16)
    }

    /// The paper's Fig 2 topology:
    ///
    /// ```text
    ///   D --- C --- B --- O     (C,D reach O via B)
    ///   E --- A ----/           (A is B's peer? no:)
    /// ```
    ///
    /// Concretely: O's provider is B; B's providers are C and A... We build
    /// the figure faithfully: O customer of B and A? In Fig 2, O announces to
    /// B; B exports to C and A; C exports to D; A exports to E and F.
    /// Relationships: B provider of O; C provider of B; A provider of B? The
    /// figure shows E and F behind A. We use: O -> B (provider B), B -> C
    /// (provider C), B -> A (provider A), C -> D (provider D), A -> E
    /// (provider E), A -> F (provider F) — i.e. a pure provider chain
    /// upward, so everything propagates.
    fn fig2() -> (Network, AsId, Vec<AsId>) {
        // ids: O=0, A=1, B=2, C=3, D=4, E=5, F=6
        let mut g = GraphBuilder::with_ases(7);
        let (o, a, b, c, d, e, f) = (
            AsId(0),
            AsId(1),
            AsId(2),
            AsId(3),
            AsId(4),
            AsId(5),
            AsId(6),
        );
        g.provider_customer(b, o); // B provides O
        g.provider_customer(c, b); // C provides B
        g.provider_customer(a, b); // A provides B
        g.provider_customer(d, c); // D provides C
        g.provider_customer(e, a); // E provides A
        g.provider_customer(e, d); // E also provides D (E's alternate)
        g.provider_customer(f, a); // F provides A: F is captive behind A
        let net = Network::new(g.build());
        (net, o, vec![a, b, c, d, e, f])
    }

    #[test]
    fn baseline_routes_match_fig2a() {
        let (net, o, ids) = fig2();
        let (a, b, c, d, e, f) = (ids[0], ids[1], ids[2], ids[3], ids[4], ids[5]);
        let spec = AnnouncementSpec::prepended(&net, pfx(), o, 3);
        let t = compute_routes(&net, &spec);
        // Everyone has a route.
        for x in [a, b, c, d, e, f] {
            assert!(t.has_route(x), "{x} should have a route");
        }
        assert_eq!(t.next_hop(b), Some(o));
        assert_eq!(t.next_hop(a), Some(b));
        assert_eq!(t.next_hop(c), Some(b));
        assert_eq!(t.next_hop(d), Some(c));
        // E prefers A (shorter: E-A-B-O vs E-D-C-B-O).
        assert_eq!(t.next_hop(e), Some(a));
        assert_eq!(t.next_hop(f), Some(a));
        // Paths carry the prepending.
        assert_eq!(t.route(b).unwrap().path.to_string(), "0-0-0");
        assert_eq!(t.route(a).unwrap().path.to_string(), "2-0-0-0");
    }

    #[test]
    fn poisoning_a_matches_fig2b() {
        let (net, o, ids) = fig2();
        let (a, b, c, d, e, f) = (ids[0], ids[1], ids[2], ids[3], ids[4], ids[5]);
        let spec = AnnouncementSpec::poisoned(&net, pfx(), o, &[a]);
        let t = compute_routes(&net, &spec);
        // A rejects the poisoned path: no route.
        assert!(!t.has_route(a), "poisoned AS must drop the route");
        // E falls back to its route via D.
        assert_eq!(t.next_hop(e), Some(d));
        // D-C-B-O-A-O collapsed: the poison is part of the path content.
        assert_eq!(t.as_path(e).unwrap(), vec![d, c, b, o, a]);
        // F is captive behind A: no route at all to the production prefix.
        assert!(!t.has_route(f), "captive AS should lose the route");
        // Working routes that avoided A keep their next hops.
        assert_eq!(t.next_hop(b), Some(o));
        assert_eq!(t.next_hop(c), Some(b));
        assert_eq!(t.next_hop(d), Some(c));
    }

    #[test]
    fn sentinel_prefix_keeps_captives_reachable() {
        let (net, o, ids) = fig2();
        let (a, f) = (ids[0], ids[5]);
        // Sentinel: unpoisoned less-specific.
        let sentinel = Prefix::from_octets(10, 0, 0, 0, 15);
        let spec = AnnouncementSpec::prepended(&net, sentinel, o, 3);
        let t = compute_routes(&net, &spec);
        assert!(t.has_route(a));
        assert!(t.has_route(f));
    }

    #[test]
    fn customer_route_preferred_over_shorter_peer() {
        // dst 0; AS3 is a provider of 0 (customer route 3->0, len 1 from
        // seed), and also peers with 0? Build: 3 provides 0; 4 peers with 3
        // and provides nothing... simpler: AS2 can reach 0 via customer 1
        // (2 hops) or via peer 3 (1 hop); customer must win.
        let mut g = GraphBuilder::with_ases(4);
        // 2 provides 1, 1 provides 0  => 2 has customer route via 1
        g.provider_customer(AsId(2), AsId(1));
        g.provider_customer(AsId(1), AsId(0));
        // 3 provides 0, 2 peers 3 => 2 could reach via peer 3 (shorter).
        g.provider_customer(AsId(3), AsId(0));
        g.peer(AsId(2), AsId(3));
        let net = Network::new(g.build());
        let spec = AnnouncementSpec::plain(&net, pfx(), AsId(0));
        let t = compute_routes(&net, &spec);
        assert_eq!(t.next_hop(AsId(2)), Some(AsId(1)), "customer beats peer");
    }

    #[test]
    fn valley_free_export_blocks_peer_to_peer_transit() {
        // 0 -- peer -- 1 -- peer -- 2: 2 must NOT reach 0 through 1.
        let mut g = GraphBuilder::with_ases(3);
        g.peer(AsId(0), AsId(1));
        g.peer(AsId(1), AsId(2));
        let net = Network::new(g.build());
        let spec = AnnouncementSpec::plain(&net, pfx(), AsId(0));
        let t = compute_routes(&net, &spec);
        assert!(t.has_route(AsId(1)));
        assert!(
            !t.has_route(AsId(2)),
            "peer route must not re-export to a peer"
        );
    }

    #[test]
    fn provider_route_propagates_down_only() {
        // chain: 0 provides 1 provides 2. Origin 0: routes flow down.
        let mut g = GraphBuilder::with_ases(3);
        g.provider_customer(AsId(0), AsId(1));
        g.provider_customer(AsId(1), AsId(2));
        let net = Network::new(g.build());
        let spec = AnnouncementSpec::plain(&net, pfx(), AsId(0));
        let t = compute_routes(&net, &spec);
        assert_eq!(t.next_hop(AsId(1)), Some(AsId(0)));
        assert_eq!(t.next_hop(AsId(2)), Some(AsId(1)));
    }

    #[test]
    fn selective_poisoning_steers_target_only() {
        // Fig 3 shape: origin O has providers D1 and D2; both reach A via
        // disjoint paths (D1-B1-A, D2-B2-A). Poisoning A via D2 only leaves A
        // routing via B1/D1; B2 keeps its own (clean) route via D2.
        let mut g = GraphBuilder::with_ases(6);
        let (o, d1, d2, b1, b2, a) = (AsId(0), AsId(1), AsId(2), AsId(3), AsId(4), AsId(5));
        g.provider_customer(d1, o);
        g.provider_customer(d2, o);
        g.provider_customer(b1, d1);
        g.provider_customer(b2, d2);
        g.provider_customer(a, b1);
        g.provider_customer(a, b2);
        let net = Network::new(g.build());

        let spec = AnnouncementSpec::selective_poison(&net, pfx(), o, &[a], &[d2]);
        let t = compute_routes(&net, &spec);
        // A only accepts the clean variant, which lives on the D1 side.
        assert!(t.has_route(a));
        assert_eq!(t.as_path(a).unwrap().first(), Some(&b1));
        // B2 still routes via D2 (its clean customer-side path).
        assert_eq!(t.next_hop(b2), Some(d2));
        // B1 unaffected.
        assert_eq!(t.next_hop(b1), Some(d1));
    }

    #[test]
    fn poisoned_as_with_lenient_loop_detection_keeps_route() {
        // §7.1: AS with max-occurrences=1 ignores a single poison; the origin
        // must poison it twice.
        let mut g = GraphBuilder::with_ases(3);
        let (o, mid, top) = (AsId(0), AsId(1), AsId(2));
        g.provider_customer(mid, o);
        g.provider_customer(top, mid);
        let mut net = Network::new(g.build());
        net.set_policy(
            mid,
            ImportPolicy {
                loop_detection: LoopDetection::max_occurrences(1),
                ..ImportPolicy::standard()
            },
        );

        let single = AnnouncementSpec::poisoned(&net, pfx(), o, &[mid]);
        let t1 = compute_routes(&net, &single);
        assert!(t1.has_route(mid), "single poison ignored by lenient AS");
        assert!(t1.has_route(top));

        let double = AnnouncementSpec::poisoned(&net, pfx(), o, &[mid, mid]);
        let t2 = compute_routes(&net, &double);
        assert!(!t2.has_route(mid), "double poison sticks");
        assert!(!t2.has_route(top), "top is captive behind mid");
    }

    #[test]
    fn cogent_style_filter_blocks_poison_propagation() {
        // Provider chain top(2) -> cogent(1) -> origin(0); cogent peers with
        // tier1(3). Poisoning 3 via cogent: cogent rejects customer updates
        // containing its peer, so not even cogent gets the route.
        let mut g = GraphBuilder::with_ases(4);
        let (o, cogent, top, tier1) = (AsId(0), AsId(1), AsId(2), AsId(3));
        g.provider_customer(cogent, o);
        g.provider_customer(top, cogent);
        g.peer(cogent, tier1);
        let mut net = Network::new(g.build());
        net.set_policy(
            cogent,
            ImportPolicy {
                reject_peers_in_customer_path: true,
                ..ImportPolicy::standard()
            },
        );
        let spec = AnnouncementSpec::poisoned(&net, pfx(), o, &[tier1]);
        let t = compute_routes(&net, &spec);
        assert!(!t.has_route(cogent), "Cogent-style filter drops the update");
        assert!(!t.has_route(top));
        // An unpoisoned announcement is fine.
        let clean = AnnouncementSpec::prepended(&net, pfx(), o, 3);
        let t2 = compute_routes(&net, &clean);
        assert!(t2.has_route(cogent));
        assert!(t2.has_route(top));
    }

    #[test]
    fn communities_ride_along_until_stripped() {
        // §2.3: "We announced experimental prefixes with communities
        // attached and found that any AS that used a Tier-1 to reach our
        // prefixes did not have the communities on our announcements."
        // Chain: origin 0 <- 1 <- tier1 2 <- 3; parallel: 0 <- 4 <- 5.
        let mut g = GraphBuilder::with_ases(6);
        g.provider_customer(AsId(1), AsId(0));
        g.provider_customer(AsId(2), AsId(1)); // "tier-1" that strips
        g.provider_customer(AsId(3), AsId(2));
        g.provider_customer(AsId(4), AsId(0));
        g.provider_customer(AsId(5), AsId(4));
        let mut net = Network::new(g.build());
        net.set_strips_communities(AsId(2), true);

        let community = (65_000u32 << 16) | 666;
        let spec =
            AnnouncementSpec::prepended(&net, pfx(), AsId(0), 3).with_communities(vec![community]);
        let t = compute_routes(&net, &spec);

        // Directly-attached and pre-tier-1 ASes see the community.
        assert_eq!(t.route(AsId(1)).unwrap().communities, vec![community]);
        assert_eq!(t.route(AsId(2)).unwrap().communities, vec![community]);
        // Beyond the stripping tier-1: gone.
        assert!(t.route(AsId(3)).unwrap().communities.is_empty());
        // The parallel path without a stripper keeps it end to end.
        assert_eq!(t.route(AsId(5)).unwrap().communities, vec![community]);
    }

    #[test]
    fn communities_absent_by_default() {
        let (net, o, ids) = fig2();
        let spec = AnnouncementSpec::prepended(&net, pfx(), o, 3);
        let t = compute_routes(&net, &spec);
        for a in ids {
            if let Some(r) = t.route(a) {
                assert!(r.communities.is_empty());
            }
        }
    }

    #[test]
    fn ases_via_reports_traversers() {
        let (net, o, ids) = fig2();
        let a = ids[0];
        let spec = AnnouncementSpec::prepended(&net, pfx(), o, 3);
        let t = compute_routes(&net, &spec);
        let via_a = t.ases_via(a);
        // E and F route via A in the baseline.
        assert!(via_a.contains(&ids[4]));
        assert!(via_a.contains(&ids[5]));
        assert!(!via_a.contains(&ids[1]));
    }

    #[test]
    fn routed_count_excludes_origin() {
        let (net, o, _) = fig2();
        let spec = AnnouncementSpec::prepended(&net, pfx(), o, 3);
        let t = compute_routes(&net, &spec);
        assert_eq!(t.routed_count(), 6);
    }

    #[test]
    fn frontier_prunes_yet_matches_reference() {
        use lg_asmap::gen::TopologyConfig;
        let net = Network::new(TopologyConfig::medium(17).generate());
        let origin = net
            .graph()
            .ases()
            .find(|a| net.graph().tier(*a) == 4 && net.graph().providers(*a).len() >= 2)
            .expect("multihomed stub");
        let victim = net.graph().providers(origin)[0];
        for spec in [
            AnnouncementSpec::prepended(&net, pfx(), origin, 3),
            AnnouncementSpec::poisoned(&net, pfx(), origin, &[victim]),
        ] {
            let (table, stats) = compute_routes_with_stats(&net, &spec);
            let oracle = compute_routes_reference(&net, &spec);
            for a in net.graph().ases() {
                assert_eq!(table.route(a), oracle.route(a));
            }
            // The whole point of the frontier: dominated candidates die at
            // push time, so the pending set stays far below total pushes.
            assert!(stats.pruned > 0, "no pruning on a 1k-AS run");
            assert!(
                stats.peak_pending < net.len() * 2,
                "peak pending {} vs {} ASes",
                stats.peak_pending,
                net.len()
            );
            // One tree node per accepted AS plus the offered seed paths.
            let seed_hops: usize = spec.seeds.iter().map(|(_, p)| p.len()).sum();
            assert!(stats.arena_nodes <= net.len() + seed_hops);
        }
    }

    #[test]
    fn never_reject_skips_policy_walks_but_filters_still_run() {
        use lg_asmap::gen::TopologyConfig;
        let mut net = Network::new(TopologyConfig::small(23).generate());
        let origin = net
            .graph()
            .ases()
            .find(|a| net.graph().tier(*a) == 4)
            .unwrap();
        let spec = AnnouncementSpec::prepended(&net, pfx(), origin, 2);
        let (_, stats) = compute_routes_with_stats(&net, &spec);
        // Filter-free network, footprint = origin only: almost every pop
        // skips the policy walk.
        assert!(
            stats.policy_checks
                <= spec.seeds.iter().map(|(_, p)| p.len()).sum::<usize>() as u64 + 2,
            "expected near-zero policy walks, got {}",
            stats.policy_checks
        );
        // With a filter deployed everywhere, every accepted pop pays the
        // walk again — and the result still matches the oracle.
        for a in net.graph().ases().collect::<Vec<_>>() {
            net.set_policy(
                a,
                ImportPolicy {
                    max_path_len: Some(32),
                    ..ImportPolicy::standard()
                },
            );
        }
        let (table, stats) = compute_routes_with_stats(&net, &spec);
        assert!(stats.policy_checks > 0);
        let oracle = compute_routes_reference(&net, &spec);
        for a in net.graph().ases() {
            assert_eq!(table.route(a), oracle.route(a));
        }
    }

    /// Derive `spec` from its freshly computed prepended parent.
    fn derive(net: &Network, spec: &AnnouncementSpec) -> Option<RouteTable> {
        let parent = compute_routes(net, &prepended_parent(spec).expect("spec has a parent"));
        derive_routes(net, spec, &parent, &ChildIndex::of(&parent))
    }

    fn assert_same_routes(got: &RouteTable, want: &RouteTable, net: &Network) {
        for a in net.graph().ases() {
            assert_eq!(got.route(a), want.route(a), "route at {a}");
        }
        assert_eq!(got.routed_count(), want.routed_count());
    }

    #[test]
    fn only_poisoned_specs_with_one_seed_per_neighbor_have_a_parent() {
        let (net, o, ids) = fig2();
        let (a, b) = (ids[0], ids[1]);
        assert!(prepended_parent(&AnnouncementSpec::plain(&net, pfx(), o)).is_none());
        assert!(prepended_parent(&AnnouncementSpec::prepended(&net, pfx(), o, 3)).is_none());

        let poisoned = AnnouncementSpec::poisoned(&net, pfx(), o, &[a]);
        let parent = prepended_parent(&poisoned).expect("O-A-O has the parent O-O-O");
        assert_eq!(parent, AnnouncementSpec::prepended(&net, pfx(), o, 3));
        let double = AnnouncementSpec::poisoned(&net, pfx(), o, &[a, a]);
        assert_eq!(
            prepended_parent(&double),
            Some(AnnouncementSpec::prepended(&net, pfx(), o, 4))
        );

        // A tail that does not start and end with the origin, or two seeds
        // to one neighbor: computed from scratch.
        let forged = AnnouncementSpec::via(pfx(), o, AsPath::from_hops(vec![o, a]), &[b]);
        assert!(prepended_parent(&forged).is_none());
        let mut twice = poisoned.clone();
        twice.seeds.push((b, AsPath::prepended_baseline(o, 3)));
        assert!(prepended_parent(&twice).is_none());
    }

    #[test]
    fn derived_table_matches_scratch_on_fig2() {
        let (net, o, ids) = fig2();
        for poisons in [&ids[..1], &ids[2..3], &ids[..2], &[ids[0], ids[0]]] {
            let spec = AnnouncementSpec::poisoned(&net, pfx(), o, poisons);
            let derived = derive(&net, &spec).expect("no kept AS is offered better");
            assert_same_routes(&derived, &compute_routes(&net, &spec), &net);
        }
    }

    #[test]
    fn kept_customer_offered_a_better_route_falls_back_to_scratch() {
        // The one thing a kept route cannot survive. Y(1) reaches origin
        // O(0) over a long customer chain 2-3-4-5 and peers with P(6), a
        // provider of O. X(10) buys from Y and from V(7), whose chain 8-9 is
        // shorter than Y's, so X routes via V. Poisoning 3 cuts Y's
        // customer route; Y settles on the short *peer* route via P and now
        // offers X a provider route two hops shorter than V's — but X sits
        // outside everything the poison invalidated.
        let id = AsId;
        let mut g = GraphBuilder::with_ases(11);
        for (provider, customer) in [(1, 2), (2, 3), (3, 4), (4, 5), (5, 0)] {
            g.provider_customer(id(provider), id(customer));
        }
        g.provider_customer(id(6), id(0));
        g.peer(id(1), id(6));
        for (provider, customer) in [(7, 8), (8, 9), (9, 0), (7, 10), (1, 10)] {
            g.provider_customer(id(provider), id(customer));
        }
        let net = Network::new(g.build());
        let baseline = compute_routes(&net, &AnnouncementSpec::prepended(&net, pfx(), id(0), 3));
        assert_eq!(
            baseline.next_hop(id(1)),
            Some(id(2)),
            "Y on its customer route"
        );
        assert_eq!(baseline.next_hop(id(10)), Some(id(7)), "X via V");

        let spec = AnnouncementSpec::poisoned(&net, pfx(), id(0), &[id(3)]);
        let scratch = compute_routes(&net, &spec);
        assert_eq!(scratch.next_hop(id(1)), Some(id(6)), "Y falls to its peer");
        assert_eq!(scratch.next_hop(id(10)), Some(id(1)), "X must switch to Y");
        assert!(derive(&net, &spec).is_none(), "derivation must give up");

        // Through the cache the fallback is invisible but counted.
        let fallbacks = || {
            let snapshot = lg_telemetry::global().snapshot();
            snapshot.counter("compute.delta_fallbacks").unwrap_or(0)
        };
        let before = fallbacks();
        let cached = crate::SharedRouteCache::new().compute(&net, &spec);
        assert_same_routes(&cached, &scratch, &net);
        assert!(fallbacks() > before);

        // A poison that spares Y's customer route is derived as usual.
        let spec = AnnouncementSpec::poisoned(&net, pfx(), id(0), &[id(8)]);
        let derived = derive(&net, &spec).expect("nothing is offered better");
        assert_same_routes(&derived, &compute_routes(&net, &spec), &net);
    }

    #[test]
    fn link_and_hop_queries_read_the_seed_tail() {
        let (net, o, ids) = fig2();
        let (a, b, c, e) = (ids[0], ids[1], ids[2], ids[4]);
        let t = compute_routes(&net, &AnnouncementSpec::poisoned(&net, pfx(), o, &[a]));
        // Tree edges, either direction; the holder-to-first-hop edge of an
        // origin neighbor; and the hop pairs inside the tail B accepted,
        // which are no adjacencies at all.
        assert!(t.uses_link(c, b) && t.uses_link(b, c));
        assert!(t.uses_link(b, o));
        assert!(t.uses_link(o, a) && t.uses_link(a, o));
        assert!(!t.uses_link(a, b), "A dropped the route it learned from B");
        assert!(!t.uses_link(e, a));
        // A holds no route yet is a hop on every selected path.
        assert!(t.routes_via(a) && t.routes_via(o) && t.routes_via(b));
        assert!(!t.routes_via(e), "E routes but carries nobody");
        assert_eq!(t.ases_via(a), vec![b, c, ids[3], e]);
    }

    #[test]
    fn tree_queries_match_a_scan_of_rebuilt_paths() {
        // The three path queries answer from the tree; what they must equal
        // is what a scan of every AS's rebuilt path says.
        use lg_asmap::gen::TopologyConfig;
        let net = Network::new(TopologyConfig::small(31).generate());
        let ases: Vec<AsId> = net.graph().ases().collect();
        let origin = *ases
            .iter()
            .find(|a| net.graph().tier(**a) == 4 && net.graph().providers(**a).len() >= 2)
            .expect("multihomed stub");
        let victim = net.graph().providers(net.graph().providers(origin)[0])[0];
        for spec in [
            AnnouncementSpec::plain(&net, pfx(), origin),
            AnnouncementSpec::poisoned(&net, pfx(), origin, &[victim, AsId(64_512)]),
        ] {
            let t = compute_routes(&net, &spec);
            let routes: Vec<(AsId, Route)> = ases
                .iter()
                .filter_map(|a| Some((*a, t.route(*a)?)))
                .collect();
            let mut probes = ases.clone();
            probes.push(AsId(64_512));
            for &x in &probes {
                let via = |(a, r): &(AsId, Route)| (r.traverses(x) && *a != x).then_some(*a);
                let want: Vec<AsId> = routes.iter().filter_map(via).collect();
                assert_eq!(t.ases_via(x), want, "ases_via({x})");
                let on_a_path = routes.iter().any(|(_, r)| r.traverses(x));
                assert_eq!(t.routes_via(x), on_a_path, "routes_via({x})");
                for &y in &probes {
                    let scan = routes.iter().any(|(a, r)| {
                        let holder_then_hops = std::iter::once(a).chain(r.path.hops());
                        let pairs = holder_then_hops.zip(r.path.hops());
                        pairs
                            .into_iter()
                            .any(|(p, h)| (*p, *h) == (x, y) || (*p, *h) == (y, x))
                    });
                    assert_eq!(t.uses_link(x, y), scan, "uses_link({x}, {y})");
                }
            }
        }
    }

    #[test]
    fn disconnected_as_has_no_route() {
        let mut g = GraphBuilder::with_ases(3);
        g.provider_customer(AsId(1), AsId(0));
        // AS2 is isolated.
        let net = Network::new(g.build());
        let spec = AnnouncementSpec::plain(&net, pfx(), AsId(0));
        let t = compute_routes(&net, &spec);
        assert!(!t.has_route(AsId(2)));
        assert!(t.next_hop(AsId(2)).is_none());
    }

    #[test]
    fn hop_round_trips_at_its_field_limits() {
        let widest = (1 << 18) - 2;
        for rel in [
            Relationship::Customer,
            Relationship::Peer,
            Relationship::Provider,
        ] {
            for communities in [false, true] {
                for (learned_from, len) in [(widest, 2047), (0, 0), (widest, 0), (0, 2047)] {
                    let hop = Hop::new(learned_from, len, rel, communities);
                    assert!(hop.routed());
                    assert_eq!(hop.learned_from(), learned_from);
                    assert_eq!(hop.len(), len as u32);
                    assert_eq!(hop.rel(), rel);
                    assert_eq!(hop.communities(), communities);
                }
            }
        }
        assert!(!Hop::NONE.routed());
        assert!(!Hop::NONE.learned_from_as(AsId(NO_ROUTE)));
    }

    #[test]
    #[should_panic(expected = "an AS path of 2048 hops is no BGP path")]
    fn hop_rejects_a_path_longer_than_2047() {
        Hop::new(0, 2048, Relationship::Customer, false);
    }

    #[test]
    #[should_panic(expected = "a RouteTable holds at most 262142 ASes")]
    fn table_rejects_more_ases_than_a_hop_can_name() {
        let net = Network::new(GraphBuilder::with_ases(1).build());
        let spec = AnnouncementSpec::plain(&net, pfx(), AsId(0));
        RouteTable::unrouted(&spec, (1 << 18) - 1);
    }

    #[test]
    fn child_index_rows_partition_the_tree_in_eight_bytes_per_as() {
        use lg_asmap::gen::TopologyConfig;
        let net = Network::new(TopologyConfig::small(31).generate());
        let origin = net
            .graph()
            .ases()
            .find(|a| net.graph().is_stub(*a))
            .unwrap();
        let poisoned = AnnouncementSpec::poisoned(&net, pfx(), origin, &[AsId(0)]);
        let t = compute_routes(&net, &poisoned);
        let index = ChildIndex::of(&t);
        let n = net.len();
        assert!(
            index.heap_bytes() <= 8 * n + 8,
            "{} bytes",
            index.heap_bytes()
        );
        let mut seen = vec![false; n];
        for a in net.graph().ases().filter(|a| *a != origin) {
            for &c in index.children(a.0) {
                assert_eq!(t.hops[c as usize].learned_from(), a.0);
                assert!(!std::mem::replace(&mut seen[c as usize], true));
            }
        }
        for &c in index.children(origin.0).iter().chain(index.unrouted()) {
            assert!(!std::mem::replace(&mut seen[c as usize], true));
        }
        assert!(
            !index.unrouted().is_empty(),
            "the poison leaves ASes unrouted"
        );
        assert_eq!(
            seen.iter().filter(|s| **s).count(),
            n - 1,
            "every AS but the origin"
        );
    }

    /// Case count of the link-repair differential: `LG_FUZZ_SEEDS` when set
    /// (CI's filter-matrix job runs 4000), else a quick default.
    fn fuzz_cases() -> u32 {
        std::env::var("LG_FUZZ_SEEDS")
            .ok()
            .map(|v| v.parse().expect("LG_FUZZ_SEEDS must be an integer"))
            .unwrap_or(256)
    }

    fn same_routes(
        what: &str,
        got: &RouteTable,
        want: &RouteTable,
        net: &Network,
    ) -> Result<(), String> {
        for a in net.graph().ases() {
            if got.route(a) != want.route(a) {
                return Err(format!(
                    "{what} at {a}: {:?} vs {:?}",
                    got.route(a),
                    want.route(a)
                ));
            }
        }
        if got.routed_count() != want.routed_count() {
            return Err(format!(
                "{what}: routed count {} vs {}",
                got.routed_count(),
                want.routed_count()
            ));
        }
        Ok(())
    }

    /// The link one case operates on: removed from the graph (`up` false)
    /// or added to it, drawn by `pick` — any link, one at the origin, a
    /// peer link, or a single-homed AS's only link (which an addition
    /// first removes, so that it re-attaches an AS without a route).
    fn pick_link(
        net: &mut Network,
        origin: AsId,
        up: bool,
        pick: u64,
        draw: u64,
    ) -> (AsId, AsId, Relationship) {
        if up && pick % 4 == 3 {
            let (a, b, rel) = pick_link(net, origin, false, pick, draw);
            net.remove_link(a, b);
            return (a, b, rel);
        }
        let g = net.graph();
        let n = g.len() as u64;
        let rels = [
            Relationship::Customer,
            Relationship::Peer,
            Relationship::Provider,
        ];
        if up {
            let rel = if pick % 4 == 2 {
                Relationship::Peer
            } else {
                rels[(pick / 4 % 3) as usize]
            };
            let a = if pick % 4 == 1 {
                origin
            } else {
                AsId((draw % n) as u32)
            };
            let b = (1..n)
                .map(|k| AsId(((draw / n + k) % n) as u32))
                .find(|b| *b != a && !g.are_adjacent(a, *b))
                .expect("small topologies are not complete graphs");
            return (a, b, rel);
        }
        let links: Vec<(AsId, AsId, Relationship)> = g
            .ases()
            .flat_map(|a| g.neighbors(a).iter().map(move |(b, rel)| (a, *b, *rel)))
            .filter(|(a, b, _)| a.0 < b.0)
            .collect();
        let wanted: Vec<_> = links
            .iter()
            .copied()
            .filter(|&(a, b, rel)| match pick % 4 {
                0 => true,
                1 => a == origin || b == origin,
                2 => rel == Relationship::Peer,
                _ => g.degree(a) == 1 || g.degree(b) == 1,
            })
            .collect();
        let pool = if wanted.is_empty() { &links } else { &wanted };
        pool[(draw % pool.len() as u64) as usize]
    }

    /// One link-repair case: a converged root table, one link surgery, and
    /// every way the table can be brought across it — `repair_link` on the
    /// old table, the cache, a derivation from the repaired table — against
    /// `compute_routes` and `compute_routes_reference` on the network as
    /// it stands. The in-place graph and peer-list surgery is checked
    /// against a rebuild on the way.
    fn link_repair_case(
        topo: u64,
        shape: u64,
        up: bool,
        pick: u64,
        draw: u64,
        cogent: bool,
    ) -> Result<(), String> {
        use crate::{DirtyScope, FilterMatrix};
        use lg_asmap::gen::TopologyConfig;
        let mut net = Network::new(TopologyConfig::small(topo).generate());
        let matrix = FilterMatrix::from_env().unwrap_or(FilterMatrix::ALL[(draw % 4) as usize]);
        matrix.apply(&mut net, topo);
        let stubs: Vec<AsId> = net
            .graph()
            .ases()
            .filter(|a| net.graph().is_stub(*a))
            .collect();
        let origin = stubs[(draw / 7 % stubs.len() as u64) as usize];
        let (a, b, rel) = pick_link(&mut net, origin, up, pick, draw);
        if cogent {
            for x in [a, b] {
                let policy = ImportPolicy {
                    reject_peers_in_customer_path: true,
                    ..net.policy(x).clone()
                };
                net.set_policy(x, policy);
            }
        }
        let spec = match shape % 3 {
            0 => AnnouncementSpec::plain(&net, pfx(), origin),
            1 => AnnouncementSpec::prepended(&net, pfx(), origin, 2),
            _ => AnnouncementSpec::prepended(&net, pfx(), origin, 3),
        };
        let replay = format!(
            "topo {topo} matrix {} origin {origin} link {a}-{b} {rel:?} up {up} cogent {cogent}",
            matrix.label()
        );
        let before = Arc::new(compute_routes(&net, &spec));
        let index = ChildIndex::of(&before);
        let cache = crate::SharedRouteCache::with_registry(&lg_telemetry::Registry::new());
        cache.compute(&net, &spec);

        let (graph_before, stamp) = (net.graph().clone(), net.generation());
        if up {
            net.add_link(a, b, rel);
        } else {
            net.remove_link(a, b);
        }
        // In-place surgery against a rebuild of the surgered link set.
        let g = net.graph();
        let mut rebuilt = GraphBuilder::with_ases(graph_before.len());
        for x in graph_before.ases() {
            for (y, r) in graph_before.neighbors(x) {
                if x.0 < y.0 && (up || (x, *y) != (a.min(b), a.max(b))) {
                    rebuilt.link(x, *y, *r);
                }
            }
        }
        if up {
            rebuilt.link(a, b, rel);
        }
        let rebuilt = rebuilt.build();
        if g.edge_count() != rebuilt.edge_count() || g.generation() == graph_before.generation() {
            return Err(format!("graph stamp or edge count: {replay}"));
        }
        for x in g.ases() {
            if g.neighbors(x) != rebuilt.neighbors(x) {
                return Err(format!("row {x} differs from the rebuild: {replay}"));
            }
            if net.peers_of(x) != g.peers(x).as_slice() {
                return Err(format!(
                    "peer list of {x} differs from the graph's: {replay}"
                ));
            }
        }

        let scratch = compute_routes(&net, &spec);
        same_routes(
            "scratch vs reference",
            &scratch,
            &compute_routes_reference(&net, &spec),
            &net,
        )
        .map_err(|e| format!("{e}: {replay}"))?;
        if let Some([DirtyScope::LinkDown(..) | DirtyScope::LinkUp(..)]) =
            net.changes_since(stamp).as_deref()
        {
            if let Some(repaired) = repair_link(&net, &before, &index, a, b, up) {
                same_routes("repair vs scratch", &repaired, &scratch, &net)
                    .map_err(|e| format!("{e}: {replay}"))?;
            }
        }
        let cached = cache.compute(&net, &spec);
        same_routes("cache vs scratch", &cached, &scratch, &net)
            .map_err(|e| format!("{e}: {replay}"))?;
        if shape % 3 == 2 {
            // A poison derived from the table the cache carried across.
            let victim = AsId((draw / 11 % net.len() as u64) as u32);
            let child = AnnouncementSpec::poisoned(&net, pfx(), origin, &[victim]);
            let derived = cache.compute(&net, &child);
            same_routes(
                "derived vs scratch",
                &derived,
                &compute_routes_reference(&net, &child),
                &net,
            )
            .map_err(|e| format!("{e} (poison {victim}): {replay}"))?;
        }
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(fuzz_cases()))]

        /// Over small topologies at every filter-matrix point, with peer
        /// filters at the link's ends now and then: one link removed or
        /// added under a converged root table, and the repair, the cache and
        /// a derivation from the repaired table all answer what both
        /// engines answer. Every re-derivation also checks its index region
        /// against the walk-up oracle.
        #[test]
        fn link_repair_matches_both_engines(
            topo in 1u64..10_000,
            shape in 0u64..3,
            up in proptest::any::<bool>(),
            pick in 0u64..12,
            draw in proptest::any::<u64>(),
            cogent in proptest::any::<bool>(),
        ) {
            let run = link_repair_case(topo, shape, up, pick, draw, cogent);
            proptest::prop_assert!(run.is_ok(), "{}", run.unwrap_err());
        }
    }
}
