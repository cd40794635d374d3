//! Batched, parallel, memoized route computation.
//!
//! Every evaluation artifact in this repo bottoms out in
//! [`compute_routes`], and most of them compute many tables over the same
//! network: per-peer infrastructure tables, per-target poisoned variants,
//! repeated baseline/poison what-ifs. This module adds the two layers those
//! workloads want:
//!
//! * [`RouteComputer`] — fans a batch of [`AnnouncementSpec`]s across OS
//!   threads (scoped, no runtime dependency) and returns tables in input
//!   order. Route computations are independent per spec, so this is
//!   embarrassingly parallel.
//! * [`SharedRouteCache`] — memoizes tables by canonical spec key behind
//!   one `RwLock`, shareable by `Arc` between `Lifeguard` instances working
//!   one topology, and invalidates *incrementally*: every routing-relevant
//!   mutation (`set_policy`, `set_strips_communities`, link surgery) logs a
//!   typed [`DirtyScope`] on the network, and
//!   on the next lookup the cache drops only the entries that scope can
//!   reach — a loop-detection edit at AS X evicts only tables whose
//!   seed-path footprint contains X; everything else survives. Generations
//!   the log no longer reaches (a different network, deep staleness) flush
//!   wholesale, so a stale entry can never be served. A miss on a poisoned
//!   spec is not recomputed but *derived* from the cached table of its
//!   prepended parent (`O-A-O` from `O-O-O`), which differs from it at a
//!   handful of ASes; and a parent that one link's surgery reaches is
//!   *repaired* in place rather than evicted.

use crate::announce::AnnouncementSpec;
use crate::network::{DirtyScope, Network};
use crate::static_routes::{
    compute_routes, derive_routes, prepended_parent, repair_link, ChildIndex, RouteTable,
};
use lg_asmap::AsId;
use lg_bgp::{AsPath, Prefix};
use lg_telemetry::{Counter, Gauge, Registry};
use std::collections::HashMap;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Fans route computations for a batch of specs across threads.
///
/// Holds no state besides the thread budget; cheap to construct and
/// freely shareable by reference.
#[derive(Clone, Debug)]
pub struct RouteComputer {
    threads: usize,
}

impl Default for RouteComputer {
    fn default() -> Self {
        Self::new()
    }
}

impl RouteComputer {
    /// A computer sized to the machine's available parallelism.
    pub fn new() -> Self {
        let threads = std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1);
        RouteComputer { threads }
    }

    /// A computer with an explicit thread budget (`threads >= 1`;
    /// `1` degrades to sequential computation on the caller's thread).
    pub fn with_threads(threads: usize) -> Self {
        assert!(threads >= 1, "RouteComputer needs at least one thread");
        RouteComputer { threads }
    }

    /// The thread budget.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Compute the converged table for every spec, returned in input order.
    ///
    /// Work is distributed dynamically (an atomic work index), so a batch
    /// mixing small sentinel computations with large poisoned ones stays
    /// balanced.
    pub fn compute_batch(&self, net: &Network, specs: &[AnnouncementSpec]) -> Vec<RouteTable> {
        let workers = self.threads.min(specs.len());
        if workers <= 1 {
            return specs.iter().map(|s| compute_routes(net, s)).collect();
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<RouteTable>>> =
            specs.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= specs.len() {
                        break;
                    }
                    let table = compute_routes(net, &specs[i]);
                    *slots[i].lock().expect("result slot poisoned") = Some(table);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot poisoned")
                    .expect("every slot filled by a worker")
            })
            .collect()
    }
}

/// Canonical identity of an announcement: what the fixed point actually
/// depends on. Seeds are sorted so two specs differing only in seed order
/// share a cache entry (seed order cannot affect the converged table — the
/// candidate heap orders by content, not arrival).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct SpecKey {
    prefix: Prefix,
    origin: AsId,
    seeds: Vec<(AsId, AsPath)>,
    communities: Vec<u32>,
}

impl SpecKey {
    fn of(spec: &AnnouncementSpec) -> Self {
        let mut seeds = spec.seeds.clone();
        seeds.sort_unstable();
        SpecKey {
            prefix: spec.prefix,
            origin: spec.origin,
            seeds,
            communities: spec.communities.clone(),
        }
    }

    /// Every AS whose configuration the announcement's fixed point can
    /// depend on through loop detection: the origin plus every hop of every
    /// seed path (poisons, prepends). A seeded neighbor that never appears
    /// in a path is *not* in the footprint — its loop detection counts its
    /// own occurrences, of which the candidate has none. Sorted and
    /// deduplicated for binary search during invalidation.
    fn footprint(&self) -> Vec<AsId> {
        let mut ases: Vec<AsId> = vec![self.origin];
        for (_, path) in &self.seeds {
            ases.extend_from_slice(path.hops());
        }
        ases.sort_unstable();
        ases.dedup();
        ases
    }
}

/// Eviction counts split by the [`DirtyScope`] kind that caused them
/// (plus `generation_lost` for wholesale flushes when the mutation log no
/// longer reaches the cache's generation).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Evictions {
    /// Entries dropped by `DirtyScope::Footprint` mutations.
    pub footprint: u64,
    /// Entries dropped by `DirtyScope::Communities` mutations.
    pub communities: u64,
    /// Entries dropped by `DirtyScope::LinkDown` / `DirtyScope::LinkUp`
    /// mutations (link surgery that no longer flushes wholesale).
    pub link: u64,
    /// Entries dropped by `DirtyScope::Global` mutations.
    pub global: u64,
    /// Entries dropped because the log rolled past the cache's generation
    /// (graph surgery, a different network, deep staleness).
    pub generation_lost: u64,
}

impl Evictions {
    /// Total entries evicted across all scopes.
    pub fn total(&self) -> u64 {
        self.footprint + self.communities + self.link + self.global + self.generation_lost
    }

    fn accumulate(&mut self, other: &Evictions) {
        self.footprint += other.footprint;
        self.communities += other.communities;
        self.link += other.link;
        self.global += other.global;
        self.generation_lost += other.generation_lost;
    }
}

/// Point-in-time counter summary of a cache (see
/// [`SharedRouteCache::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CacheStats {
    /// Lookups served from cache since construction.
    pub hits: u64,
    /// Lookups that had to compute since construction (the internal fill
    /// of a missing parent is part of its child's miss, not one more).
    pub misses: u64,
    /// Evictions since construction, by cause.
    pub evictions: Evictions,
    /// Entries a link's surgery reached that were repaired in place
    /// instead of evicted (no eviction, so not in `evictions`).
    pub repairs: u64,
    /// Tables currently cached, parents included.
    pub entries: usize,
}

impl CacheStats {
    /// Fraction of entries ever inserted that are still cached:
    /// `entries / (entries + evicted)`. 1.0 for an empty history.
    pub fn retention_ratio(&self) -> f64 {
        let before = self.entries as u64 + self.evictions.total();
        if before == 0 {
            1.0
        } else {
            self.entries as f64 / before as f64
        }
    }
}

/// Registry handles the cache reports into, resolved once at construction
/// so the hot path is pure atomic bumps. Every cache in the process shares
/// the metric names: reports aggregate them (per-instance counts stay exact
/// on the instance itself).
#[derive(Clone, Debug)]
struct CacheTelemetry {
    hits: Counter,
    misses: Counter,
    /// Prepended parents computed from scratch on behalf of a child's miss.
    parent_fills: Counter,
    evict_footprint: Counter,
    evict_communities: Counter,
    evict_link: Counter,
    evict_global: Counter,
    evict_generation_lost: Counter,
    repairs: Counter,
    entries: Gauge,
    retention_pct: Gauge,
}

impl CacheTelemetry {
    fn from_registry(r: &Registry) -> Self {
        CacheTelemetry {
            hits: r.counter("cache.hits"),
            misses: r.counter("cache.misses"),
            parent_fills: r.counter("cache.parent_fills"),
            evict_footprint: r.counter("cache.evictions.footprint"),
            evict_communities: r.counter("cache.evictions.communities"),
            evict_link: r.counter("cache.evictions.link"),
            evict_global: r.counter("cache.evictions.global"),
            evict_generation_lost: r.counter("cache.evictions.generation_lost"),
            repairs: r.counter("cache.repairs"),
            entries: r.gauge("cache.entries"),
            retention_pct: r.gauge("cache.retention_pct"),
        }
    }

    /// Report an evicting or repairing sync: per-scope counters, repairs,
    /// the entries that survived it, and the share of the pre-sync cache
    /// they are.
    fn record_sync(&self, ev: &Evictions, repairs: u64, remaining: usize) {
        self.repairs.add(repairs);
        self.evict_footprint.add(ev.footprint);
        self.evict_communities.add(ev.communities);
        self.evict_link.add(ev.link);
        self.evict_global.add(ev.global);
        self.evict_generation_lost.add(ev.generation_lost);
        self.entries.set(remaining as u64);
        let before = remaining as u64 + ev.total();
        self.retention_pct.set(remaining as u64 * 100 / before);
    }
}

/// A cached fixed point plus the dependency summary invalidation needs.
#[derive(Debug)]
struct CachedTable {
    table: Arc<RouteTable>,
    /// See [`SpecKey::footprint`].
    footprint: Vec<AsId>,
    has_communities: bool,
    /// The spec has no [`prepended_parent`]: the table came from scratch,
    /// so one link's surgery can repair it.
    root: bool,
    /// `table`'s tree read downward, built on the entry's first use as a
    /// parent or a repair and dropped with the table it indexes.
    index: Option<ChildIndex>,
}

impl CachedTable {
    /// Carry a root table across the one link surgery a sync replays
    /// ([`repair_link`]). False when the entry must be evicted instead.
    fn repair(&mut self, net: &Network, a: AsId, b: AsId, up: bool) -> bool {
        if !self.root {
            return false;
        }
        let _span = lg_telemetry::trace::span("cache.repair");
        let index = self
            .index
            .get_or_insert_with(|| ChildIndex::of(&self.table));
        let Some(table) = repair_link(net, &self.table, index, a, b, up) else {
            return false;
        };
        if !Arc::ptr_eq(&table, &self.table) {
            self.table = table;
            self.index = None;
        }
        true
    }
}

/// The cache's state, guarded by [`SharedRouteCache`]'s one lock: the
/// cached tables, the generation they were last synced to, and what the
/// syncs evicted.
#[derive(Debug, Default)]
struct CacheShard {
    /// Generation of the network the cached tables were computed over.
    generation: Option<u64>,
    tables: HashMap<SpecKey, CachedTable>,
    /// Evictions since construction, by cause.
    evictions: Evictions,
    /// Repairs since construction.
    repairs: u64,
}

impl CacheShard {
    /// Bring the shard up to `net`'s generation, dropping exactly the
    /// entries the mutation log says could have changed — except that when
    /// the log holds one link's surgery and nothing else, a root table it
    /// reaches is repaired in place instead ([`CachedTable::repair`]).
    /// Returns the evicted-entry counts split by the scope kind that caused
    /// them, and the number of repairs.
    fn sync(&mut self, net: &Network) -> (Evictions, u64) {
        let mut ev = Evictions::default();
        let mut repairs = 0;
        let current = net.generation();
        let Some(prev) = self.generation else {
            self.generation = Some(current);
            return (ev, repairs);
        };
        if prev == current {
            return (ev, repairs);
        }
        match net.changes_since(prev) {
            // The log no longer reaches our generation (graph surgery, a
            // different network, deep staleness): everything is suspect.
            None => {
                ev.generation_lost = self.tables.len() as u64;
                self.tables.clear();
            }
            Some(scopes) => {
                let one = scopes.len() == 1;
                let mut repaired = |e: &mut CachedTable, a, b, up| {
                    let kept = one && e.repair(net, a, b, up);
                    repairs += kept as u64;
                    kept
                };
                for scope in scopes {
                    let before = self.tables.len();
                    match scope {
                        DirtyScope::Unchanged => {}
                        DirtyScope::Global => {
                            ev.global += before as u64;
                            self.tables.clear();
                            break;
                        }
                        DirtyScope::Communities => {
                            self.tables.retain(|_, e| !e.has_communities);
                            ev.communities += (before - self.tables.len()) as u64;
                        }
                        DirtyScope::LinkDown(a, b) => {
                            self.tables.retain(|_, e| {
                                !e.table.uses_link(a, b) || repaired(e, a, b, false)
                            });
                            ev.link += (before - self.tables.len()) as u64;
                        }
                        DirtyScope::PeerLinkDown(a, b) => {
                            // A peer link disappeared under a Cogent-style
                            // filter at an endpoint: besides routes over the
                            // link, the departed peer leaving the filter's
                            // peer list can newly admit paths that *contain*
                            // it — which only matters to specs whose seed
                            // footprint names the peer or whose tables route
                            // through it. Consult the *current* policies:
                            // any later filter edit logs its own (Global)
                            // scope, so this cannot under-evict.
                            let a_filters = net.policy(a).reject_peers_in_customer_path;
                            let b_filters = net.policy(b).reject_peers_in_customer_path;
                            self.tables.retain(|_, e| {
                                if e.table.uses_link(a, b) {
                                    return false;
                                }
                                let hits = |peer: AsId| {
                                    e.footprint.binary_search(&peer).is_ok()
                                        || e.table.routes_via(peer)
                                };
                                !(a_filters && hits(b) || b_filters && hits(a))
                            });
                            ev.link += (before - self.tables.len()) as u64;
                        }
                        DirtyScope::LinkUp(a, b) => {
                            self.tables.retain(|_, e| {
                                !e.table.has_route(a) && !e.table.has_route(b)
                                    || repaired(e, a, b, true)
                            });
                            ev.link += (before - self.tables.len()) as u64;
                        }
                        DirtyScope::Footprint(a) => {
                            self.tables
                                .retain(|_, e| e.footprint.binary_search(&a).is_err());
                            ev.footprint += (before - self.tables.len()) as u64;
                        }
                    }
                }
            }
        }
        // Stamped last: a repair that panics leaves the log to be replayed
        // in full by the next sync, never a half-synced shard marked
        // current.
        self.generation = Some(current);
        (ev, repairs)
    }

    fn lookup(&self, key: &SpecKey) -> Option<Arc<RouteTable>> {
        self.tables.get(key).map(|e| Arc::clone(&e.table))
    }

    /// Cache `table` under `key`; `root` says whether its spec lacks a
    /// [`prepended_parent`].
    fn insert(&mut self, key: SpecKey, table: Arc<RouteTable>, root: bool) {
        let footprint = key.footprint();
        let has_communities = !key.communities.is_empty();
        self.tables.insert(
            key,
            CachedTable {
                table,
                footprint,
                has_communities,
                root,
                index: None,
            },
        );
    }
}

/// Memoizes converged route tables with incremental invalidation, shareable
/// by `Arc` between `Lifeguard` instances working one topology.
///
/// Tables are handed out as `Arc<RouteTable>`, so a hit is a clone of a
/// pointer, not of a table. The whole cache sits behind one `RwLock`:
///
/// * A **hit** takes the read lock, checks the cache's generation stamp
///   against the network ([`Network::unchanged_since`]) and probes the map.
/// * Anything else — cold, stale or absent — takes the write lock, replays
///   the network's mutation log (evicting only the entries whose footprint
///   the logged [`DirtyScope`]s touch; a generation the log no longer
///   reaches flushes wholesale), probes again, and on a true miss fills
///   *under the write lock* and inserts. A spec is therefore computed at
///   most once per generation across all sharers, by construction; a miss
///   blocks concurrent readers for one fill.
///
/// How a miss is filled follows from the spec alone. A spec whose seed
/// paths carry poison hops has a *parent* (`prepended_parent`: the same
/// announcement with every seed path prepended instead, `O-A-O` →
/// `O-O-O`), and its table differs from the parent's at a handful of ASes:
/// the fill makes sure the parent is cached — an entry like any other,
/// evicted by the same rules — and derives the child from it
/// (`derive_routes`), reading the parent's subtrees off a child index the
/// cache keeps beside the parent entry. Everything else, parents included,
/// is a from-scratch [`compute_routes`].
///
/// A parent — any spec without a parent of its own — that a single
/// `LinkDown` or `LinkUp` reaches is *repaired* across the surgery
/// (`repair_link`) rather than evicted, and counted in
/// [`CacheStats::repairs`]. Every other eviction rule stands: children,
/// `PeerLinkDown`, links at the origin, syncs that replay more than one
/// mutation, and repairs that give up all evict.
#[derive(Debug)]
pub struct SharedRouteCache {
    shard: RwLock<CacheShard>,
    hits: AtomicU64,
    misses: AtomicU64,
    tele: CacheTelemetry,
}

impl Default for SharedRouteCache {
    fn default() -> Self {
        Self::new()
    }
}

impl SharedRouteCache {
    /// An empty cache bound to no generation yet, reporting into the
    /// global telemetry registry.
    pub fn new() -> Self {
        Self::with_registry(lg_telemetry::global())
    }

    /// An empty cache reporting into `registry` instead of the global
    /// one (isolated observation in tests).
    pub fn with_registry(registry: &Registry) -> Self {
        SharedRouteCache {
            shard: RwLock::default(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            tele: CacheTelemetry::from_registry(registry),
        }
    }

    // Both lock modes recover from poisoning: a fill or a sync's link
    // repair is what can panic under the write lock, a sync stamps its
    // generation only once it has finished, and each insert happens only
    // after its table is built, so a poisoned shard is always consistent.
    fn read(&self) -> RwLockReadGuard<'_, CacheShard> {
        self.shard.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, CacheShard> {
        self.shard.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Lookups served from cache since construction.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to compute since construction.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Cached tables evicted by generation syncs since construction
    /// (all scopes; see [`SharedRouteCache::stats`] for the split).
    pub fn invalidations(&self) -> u64 {
        self.evictions().total()
    }

    /// Evictions since construction, by cause.
    pub fn evictions(&self) -> Evictions {
        self.read().evictions
    }

    /// Counter summary: hits, misses, evictions by scope, live entries.
    pub fn stats(&self) -> CacheStats {
        let shard = self.read();
        CacheStats {
            hits: self.hits(),
            misses: self.misses(),
            evictions: shard.evictions,
            repairs: shard.repairs,
            entries: shard.tables.len(),
        }
    }

    /// Number of cached tables.
    pub fn len(&self) -> usize {
        self.read().tables.len()
    }

    /// True when no tables are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop all cached tables (counters survive).
    pub fn clear(&self) {
        let mut shard = self.write();
        shard.tables.clear();
        shard.generation = None;
        self.tele.entries.set(0);
    }

    fn record_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        self.tele.hits.inc();
    }

    /// The converged table for `spec`, computed at most once per
    /// generation across all sharers.
    pub fn compute(&self, net: &Network, spec: &AnnouncementSpec) -> Arc<RouteTable> {
        let key = SpecKey::of(spec);
        {
            let shard = self.read();
            // Servable when the stamp is current or trails only by
            // provably routing-irrelevant mutations.
            if shard.generation.is_some_and(|g| net.unchanged_since(g)) {
                if let Some(table) = shard.lookup(&key) {
                    self.record_hit();
                    return table;
                }
            }
        }
        let mut shard = self.write();
        let (ev, repairs) = shard.sync(net);
        if ev.total() > 0 || repairs > 0 {
            shard.evictions.accumulate(&ev);
            shard.repairs += repairs;
            self.tele.record_sync(&ev, repairs, shard.tables.len());
        }
        if let Some(table) = shard.lookup(&key) {
            self.record_hit();
            return table;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.tele.misses.inc();
        let parent = prepended_parent(spec);
        let root = parent.is_none();
        let table = Arc::new(self.fill(&mut shard, net, spec, parent));
        shard.insert(key, Arc::clone(&table), root);
        self.tele.entries.set(shard.tables.len() as u64);
        table
    }

    /// Build the table of a spec the cache does not hold: derived from its
    /// prepended parent `parent_spec` when it has one (caching the parent
    /// first if that is missing too), from scratch otherwise.
    fn fill(
        &self,
        shard: &mut CacheShard,
        net: &Network,
        spec: &AnnouncementSpec,
        parent_spec: Option<AnnouncementSpec>,
    ) -> RouteTable {
        let scratch = |spec| {
            let _span = lg_telemetry::trace::span("cache.miss_fill");
            compute_routes(net, spec)
        };
        let Some(parent_spec) = parent_spec else {
            return scratch(spec);
        };
        let parent_key = SpecKey::of(&parent_spec);
        if !shard.tables.contains_key(&parent_key) {
            self.tele.parent_fills.inc();
            let parent = Arc::new(scratch(&parent_spec));
            shard.insert(parent_key.clone(), parent, true);
        }
        let parent = shard
            .tables
            .get_mut(&parent_key)
            .expect("the parent was just cached");
        let derived = {
            let _span = lg_telemetry::trace::span("cache.delta_fill");
            let index = parent
                .index
                .get_or_insert_with(|| ChildIndex::of(&parent.table));
            derive_routes(net, spec, &parent.table, index)
        };
        derived.unwrap_or_else(|| scratch(spec))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::static_routes::compute_routes_reference;
    use lg_asmap::GraphBuilder;
    use lg_bgp::ImportPolicy;

    fn pfx() -> Prefix {
        Prefix::from_octets(10, 0, 0, 0, 16)
    }

    /// Provider chain with a side branch; enough shape for distinct tables.
    fn net() -> Network {
        let mut g = GraphBuilder::with_ases(6);
        g.provider_customer(AsId(1), AsId(0));
        g.provider_customer(AsId(2), AsId(1));
        g.provider_customer(AsId(3), AsId(2));
        g.provider_customer(AsId(4), AsId(0));
        g.provider_customer(AsId(5), AsId(4));
        Network::new(g.build())
    }

    fn specs(net: &Network) -> Vec<AnnouncementSpec> {
        vec![
            AnnouncementSpec::plain(net, pfx(), AsId(0)),
            AnnouncementSpec::prepended(net, pfx(), AsId(0), 3),
            AnnouncementSpec::poisoned(net, pfx(), AsId(0), &[AsId(2)]),
            AnnouncementSpec::poisoned(net, pfx(), AsId(0), &[AsId(4)]),
        ]
    }

    fn same_table(a: &RouteTable, b: &RouteTable, n: usize) -> bool {
        (0..n).all(|i| a.route(AsId(i as u32)) == b.route(AsId(i as u32)))
    }

    #[test]
    fn batch_matches_scratch_in_input_order() {
        let net = net();
        let batch = specs(&net);
        for threads in [1, 2, 8] {
            let computer = RouteComputer::with_threads(threads);
            let tables = computer.compute_batch(&net, &batch);
            assert_eq!(tables.len(), batch.len());
            for (spec, table) in batch.iter().zip(&tables) {
                let scratch = compute_routes(&net, spec);
                assert!(same_table(table, &scratch, net.len()));
                let reference = compute_routes_reference(&net, spec);
                assert!(same_table(table, &reference, net.len()));
            }
        }
    }

    #[test]
    fn batch_of_empty_and_single() {
        let net = net();
        let computer = RouteComputer::new();
        assert!(computer.compute_batch(&net, &[]).is_empty());
        let one = [AnnouncementSpec::plain(&net, pfx(), AsId(0))];
        assert_eq!(computer.compute_batch(&net, &one).len(), 1);
    }

    #[test]
    fn cache_hits_on_repeat_and_on_seed_order() {
        let net = net();
        let cache = SharedRouteCache::new();
        let spec = AnnouncementSpec::prepended(&net, pfx(), AsId(0), 3);
        let t1 = cache.compute(&net, &spec);
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        let t2 = cache.compute(&net, &spec);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert!(Arc::ptr_eq(&t1, &t2));

        // Same announcement, seeds listed in reverse: still one entry.
        let mut reordered = spec.clone();
        reordered.seeds.reverse();
        cache.compute(&net, &reordered);
        assert_eq!((cache.hits(), cache.misses()), (2, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn footprint_mutation_evicts_only_touched_entries() {
        let mut net = net();
        let cache = SharedRouteCache::new();
        let batch = specs(&net);
        for spec in &batch {
            cache.compute(&net, spec);
        }
        assert_eq!(cache.len(), 4);

        // Loop-detection change at AS2: only the spec poisoning AS2 has it
        // in its footprint (plain/prepended footprints are {0}, the other
        // poison's is {0, 4}).
        net.set_policy(
            AsId(2),
            ImportPolicy {
                loop_detection: lg_bgp::LoopDetection::max_occurrences(1),
                ..ImportPolicy::standard()
            },
        );
        let t = cache.compute(&net, &batch[2]);
        assert_eq!(cache.invalidations(), 1, "exactly one entry evicted");
        assert_eq!(cache.len(), 4, "evicted entry recomputed, rest retained");
        assert!(same_table(&t, &compute_routes(&net, &batch[2]), net.len()));
        // The retained entries are hits, not recomputations.
        let misses = cache.misses();
        for spec in [&batch[0], &batch[1], &batch[3]] {
            let t = cache.compute(&net, spec);
            assert!(same_table(&t, &compute_routes(&net, spec), net.len()));
        }
        assert_eq!(cache.misses(), misses, "retained entries recomputed");
    }

    #[test]
    fn identical_policy_write_evicts_nothing() {
        let mut net = net();
        let cache = SharedRouteCache::new();
        let spec = AnnouncementSpec::prepended(&net, pfx(), AsId(0), 3);
        cache.compute(&net, &spec);

        net.set_policy(AsId(1), ImportPolicy::standard());
        cache.compute(&net, &spec);
        assert_eq!(cache.invalidations(), 0);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn global_scope_mutation_flushes_everything() {
        let mut net = net();
        let cache = SharedRouteCache::new();
        for spec in &specs(&net) {
            cache.compute(&net, spec);
        }
        net.set_policy(
            AsId(3),
            ImportPolicy {
                deny_transit: vec![AsId(1)],
                ..ImportPolicy::standard()
            },
        );
        let spec = AnnouncementSpec::plain(&net, pfx(), AsId(0));
        let t = cache.compute(&net, &spec);
        assert_eq!(cache.invalidations(), 4, "path-content filters flush all");
        assert!(same_table(&t, &compute_routes(&net, &spec), net.len()));
    }

    #[test]
    fn communities_mutation_evicts_only_community_carriers() {
        let mut net = net();
        let cache = SharedRouteCache::new();
        let plain = AnnouncementSpec::plain(&net, pfx(), AsId(0));
        let tagged =
            AnnouncementSpec::prepended(&net, pfx(), AsId(0), 3).with_communities(vec![666]);
        cache.compute(&net, &plain);
        cache.compute(&net, &tagged);

        net.set_strips_communities(AsId(1), true);
        let t = cache.compute(&net, &tagged);
        assert_eq!(cache.invalidations(), 1, "only the tagged entry evicted");
        assert!(same_table(&t, &compute_routes(&net, &tagged), net.len()));
        cache.compute(&net, &plain);
        assert_eq!(cache.hits(), 1, "community-free entry survived");
    }

    #[test]
    fn dirty_invalidation_retains_majority_after_single_as_mutation() {
        // The bar incremental invalidation was accepted at: after a
        // single-AS mutation, >= 50% of a poison-sweep cache survives
        // (pre-incremental behavior: 0%).
        let mut g = GraphBuilder::with_ases(18);
        for i in 1..=16u32 {
            g.provider_customer(AsId(i), AsId(0));
            g.provider_customer(AsId(17), AsId(i));
        }
        let mut net = Network::new(g.build());
        let cache = SharedRouteCache::new();
        let sweep: Vec<AnnouncementSpec> = (1..=16u32)
            .map(|t| AnnouncementSpec::poisoned(&net, pfx(), AsId(0), &[AsId(t)]))
            .collect();
        for spec in &sweep {
            cache.compute(&net, spec);
        }
        assert_eq!(cache.len(), 17, "16 poisons and their prepended parent");

        net.set_policy(
            AsId(3),
            ImportPolicy {
                loop_detection: lg_bgp::LoopDetection::disabled(),
                ..ImportPolicy::standard()
            },
        );
        cache.compute(&net, &sweep[0]);
        let retained = cache.len() as f64 / 17.0;
        assert!(
            retained >= 0.5,
            "retention {retained} below the 50% acceptance floor"
        );
        assert_eq!(cache.invalidations(), 1, "only the AS3 poison evicted");
        for spec in &sweep {
            let t = cache.compute(&net, spec);
            assert!(same_table(&t, &compute_routes(&net, spec), net.len()));
        }
    }

    #[test]
    fn shared_cache_concurrent_computes_agree_with_scratch() {
        let net = net();
        let shared = Arc::new(SharedRouteCache::new());
        let batch = specs(&net);
        std::thread::scope(|scope| {
            for start in 0..4usize {
                let shared = Arc::clone(&shared);
                let net = &net;
                let batch = &batch;
                scope.spawn(move || {
                    for k in 0..batch.len() {
                        let spec = &batch[(start + k) % batch.len()];
                        let t = shared.compute(net, spec);
                        assert!(same_table(&t, &compute_routes(net, spec), net.len()));
                    }
                });
            }
        });
        // Compute-under-lock: each unique spec computed exactly once. The
        // prepended spec is the parent both poisons derive from, and a
        // parent filled on a poison's behalf is no miss — so when a poison
        // is asked for before its parent, the parent's own request hits.
        let (misses, hits) = (shared.misses(), shared.hits());
        assert_eq!(misses + hits, 16);
        assert!(misses == 3 || misses == 4, "{misses} misses");
    }

    #[test]
    fn stats_pin_fifteen_of_sixteen_retained() {
        // The PR 2 bench claim (`dirty_invalidation_single_as`: one
        // recompute, 15/16 retained), pinned deterministically on the
        // stats API: a 16-poison sweep (17 entries with the prepended
        // parent they are derived from, whose fill is no miss), one
        // single-AS loop-detection mutation, exactly one footprint eviction.
        let mut g = GraphBuilder::with_ases(18);
        for i in 1..=16u32 {
            g.provider_customer(AsId(i), AsId(0));
            g.provider_customer(AsId(17), AsId(i));
        }
        let mut net = Network::new(g.build());
        let cache = SharedRouteCache::new();
        let sweep: Vec<AnnouncementSpec> = (1..=16u32)
            .map(|t| AnnouncementSpec::poisoned(&net, pfx(), AsId(0), &[AsId(t)]))
            .collect();
        for spec in &sweep {
            cache.compute(&net, spec);
        }
        assert_eq!(cache.stats().entries, 17);

        net.set_policy(
            AsId(3),
            ImportPolicy {
                loop_detection: lg_bgp::LoopDetection::disabled(),
                ..ImportPolicy::standard()
            },
        );
        cache.compute(&net, &sweep[0]); // triggers the sync; AS1 poison hits
        let s = cache.stats();
        assert_eq!(s.entries, 16, "15/16 poisons and the parent retained");
        assert_eq!(
            s.evictions,
            Evictions {
                footprint: 1,
                ..Evictions::default()
            },
            "the one eviction is footprint-scoped"
        );
        assert_eq!((s.hits, s.misses), (1, 16));
        assert!((s.retention_ratio() - 16.0 / 17.0).abs() < 1e-9);
    }

    /// Origin 0 below middles 1..=16, all under top AS 17; AS 18 starts
    /// isolated (no links) for the link-addition test.
    fn star_net() -> Network {
        let mut g = GraphBuilder::with_ases(19);
        for i in 1..=16u32 {
            g.provider_customer(AsId(i), AsId(0));
            g.provider_customer(AsId(17), AsId(i));
        }
        Network::new(g.build())
    }

    fn poison_sweep(net: &Network) -> Vec<AnnouncementSpec> {
        (1..=16u32)
            .map(|t| AnnouncementSpec::poisoned(net, pfx(), AsId(0), &[AsId(t)]))
            .collect()
    }

    #[test]
    fn link_removal_evicts_only_tables_routing_over_it() {
        let mut net = net();
        let cache = SharedRouteCache::new();
        let batch = specs(&net);
        for spec in &batch {
            cache.compute(&net, spec);
        }

        // Link 4-5 carries AS5's route in every table except the AS4
        // poison, where both endpoints are captive (AS4 rejects the
        // poisoned seed, AS5 sits behind it). Of the three tables that use
        // it, the plain and the prepended one have no parent: they are
        // repaired (AS5, the child end, loses its only link), and only the
        // AS2 poison, derived from the prepended one, is evicted.
        net.remove_link(AsId(4), AsId(5));
        let t = cache.compute(&net, &batch[3]);
        let s = cache.stats();
        assert_eq!(
            (s.evictions.link, s.repairs),
            (1, 2),
            "three tables used 4-5"
        );
        assert_eq!(cache.len(), 3, "the AS4 poison and both roots survived");
        assert_eq!(cache.hits(), 1, "the retained table is served as a hit");
        for spec in &batch[..2] {
            let t = cache.compute(&net, spec);
            assert!(!t.has_route(AsId(5)), "repaired: AS5 is cut off");
            assert!(same_table(&t, &compute_routes(&net, spec), net.len()));
        }
        assert_eq!(cache.hits(), 3, "the repaired tables are served as hits");
        assert!(same_table(&t, &compute_routes(&net, &batch[3]), net.len()));
        for spec in &batch {
            let t = cache.compute(&net, spec);
            assert!(same_table(&t, &compute_routes(&net, spec), net.len()));
        }
        assert_eq!(cache.len(), 4, "evicted tables recomputed on demand");
    }

    #[test]
    fn link_removal_of_cold_backup_retains_fifteen_of_sixteen() {
        // The ROADMAP open item, pinned like the 15/16 policy test: link
        // surgery used to be invisible to the mutation log (a fresh
        // Network around graph surgery), flushing every table wholesale.
        // Scoped LinkDown keeps every table whose routes avoid the link:
        // AS17 uplinks through middle 1 except in the middle-1 poison,
        // where it falls back to middle 2 — so removing link 17-2 evicts
        // exactly that one table (the prepended parent the sweep is derived
        // from, the 17th entry, uplinks through middle 1 like the rest).
        let mut net = star_net();
        let cache = SharedRouteCache::new();
        let sweep = poison_sweep(&net);
        for spec in &sweep {
            cache.compute(&net, spec);
        }
        assert_eq!(cache.stats().entries, 17);

        net.remove_link(AsId(17), AsId(2));
        cache.compute(&net, &sweep[2]);
        let s = cache.stats();
        assert_eq!(s.entries, 16, "15/16 poisons and the parent retained");
        assert_eq!(
            s.evictions,
            Evictions {
                link: 1,
                ..Evictions::default()
            },
            "only the middle-1 poison routed over 17-2"
        );
        assert_eq!((s.hits, s.misses), (1, 16));
        for spec in &sweep {
            let t = cache.compute(&net, spec);
            assert!(same_table(&t, &compute_routes(&net, spec), net.len()));
        }
        assert_eq!(cache.misses(), 17, "no retained table was recomputed");
    }

    #[test]
    fn link_addition_evicts_only_tables_reaching_an_endpoint() {
        let mut net = star_net();
        let cache = SharedRouteCache::new();
        let sweep = poison_sweep(&net);
        for spec in &sweep {
            cache.compute(&net, spec);
        }

        // Attach the isolated AS 18 below middle 3. Every table where
        // middle 3 holds a route can now propagate over the new link; the
        // middle-3 poison reaches neither endpoint and survives. The
        // sweep's prepended parent routes at middle 3 too, but it has no
        // parent of its own: it is repaired (AS18 prefers any route to
        // none), not evicted.
        net.add_link(AsId(3), AsId(18), lg_asmap::Relationship::Customer);
        let t = cache.compute(&net, &sweep[2]);
        let s = cache.stats();
        assert_eq!(
            (s.evictions.link, s.repairs),
            (15, 1),
            "only the AS3 poison retained as it was"
        );
        assert_eq!(s.entries, 2, "the AS3 poison and the repaired parent");
        assert_eq!((s.hits, s.misses), (1, 16), "retained table is a hit");
        assert!(same_table(&t, &compute_routes(&net, &sweep[2]), net.len()));
        for spec in &sweep {
            let t = cache.compute(&net, spec);
            assert!(same_table(&t, &compute_routes(&net, spec), net.len()));
        }
        // AS18 is actually routed now (the link mattered).
        let t = cache.compute(&net, &sweep[0]);
        assert!(t.has_route(AsId(18)), "new leaf routes via middle 3");
    }

    #[test]
    fn peer_filter_link_addition_stays_link_scoped() {
        // Peer-link addition at an AS running
        // reject_peers_in_customer_path used to degrade to a Global flush
        // (the AS's peer list feeds unrelated acceptance decisions). The
        // LinkUp endpoint predicate already covers that: a flipped
        // rejection at the filtering AS requires it to hold a route, and
        // every hop on a selected path holds the suffix route itself — so
        // no entry escapes the has_route check.
        let mut net = net();
        net.set_policy(
            AsId(4),
            ImportPolicy {
                reject_peers_in_customer_path: true,
                ..ImportPolicy::standard()
            },
        );
        let cache = SharedRouteCache::new();
        let batch = specs(&net);
        for spec in &batch {
            cache.compute(&net, spec);
        }
        let evicted_before = cache.invalidations();
        net.add_link(AsId(4), AsId(1), lg_asmap::Relationship::Peer);
        cache.compute(&net, &batch[0]);
        let s = cache.stats();
        assert_eq!(s.evictions.global, 0, "no full flush under the filter");
        // AS1 routes in every cached table. The two without a parent (plain
        // and prepended) are repaired: neither endpoint prefers a peer
        // route to its customer route, and AS4's filter still accepts its
        // own, so both come through unchanged. The two poisons are evicted.
        assert_eq!((s.evictions.link, s.repairs), (2, 2));
        assert_eq!(cache.invalidations(), evicted_before + 2);
        assert_eq!(s.hits, 1, "the repaired plain table is served as a hit");
        for spec in &batch {
            let t = cache.compute(&net, spec);
            assert!(same_table(&t, &compute_routes(&net, spec), net.len()));
        }
    }

    #[test]
    fn peer_link_removal_under_filter_retains_fifteen_of_sixteen() {
        // Satellite of the PR 4 caveat: removing a *peer* link whose
        // endpoint runs reject_peers_in_customer_path used to flush the
        // whole cache (Global). PeerLinkDown keeps it link-precise: only
        // tables that route over the link, route through the departed
        // peer, or poison it in the seed can change. Middle 15 filters
        // and peers with middle 16; nothing ever selects the peer link
        // (both middles reach the origin directly) and nothing routes
        // through middle 16, so only the middle-16 poison — whose seed
        // footprint names the departed peer — is evicted.
        let mut net = star_net();
        net.set_policy(
            AsId(15),
            ImportPolicy {
                reject_peers_in_customer_path: true,
                ..ImportPolicy::standard()
            },
        );
        net.add_link(AsId(15), AsId(16), lg_asmap::Relationship::Peer);
        let cache = SharedRouteCache::new();
        let sweep = poison_sweep(&net);
        for spec in &sweep {
            cache.compute(&net, spec);
        }
        assert_eq!(cache.stats().entries, 17, "16 poisons and their parent");

        net.remove_link(AsId(15), AsId(16));
        cache.compute(&net, &sweep[15]);
        let s = cache.stats();
        assert_eq!(s.entries, 17, "16 retained + the recomputed miss");
        assert_eq!(
            s.evictions,
            Evictions {
                link: 1,
                ..Evictions::default()
            },
            "only the middle-16 poison names the departed peer"
        );
        assert_eq!((s.hits, s.misses), (0, 17));
        // The evicted entry really did change: with 16 off 15's peer
        // list, middle 15 accepts the poisoned seed again.
        let t = cache.compute(&net, &sweep[15]);
        assert!(t.has_route(AsId(15)), "filter no longer rejects the seed");
        for spec in &sweep {
            let t = cache.compute(&net, spec);
            assert!(same_table(&t, &compute_routes(&net, spec), net.len()));
        }
        assert_eq!(cache.misses(), 17, "no retained table was recomputed");
    }

    #[test]
    fn stats_split_evictions_by_scope() {
        let mut net = net();
        let cache = SharedRouteCache::new();
        let plain = AnnouncementSpec::plain(&net, pfx(), AsId(0));
        let tagged =
            AnnouncementSpec::prepended(&net, pfx(), AsId(0), 3).with_communities(vec![666]);
        let poison = AnnouncementSpec::poisoned(&net, pfx(), AsId(0), &[AsId(2)]);
        for spec in [&plain, &tagged, &poison] {
            cache.compute(&net, spec);
        }

        // Communities mutation: evicts only the tagged entry.
        net.set_strips_communities(AsId(1), true);
        cache.compute(&net, &plain);
        assert_eq!(cache.stats().evictions.communities, 1);

        // Footprint mutation at AS2: evicts only the AS2 poison.
        net.set_policy(
            AsId(2),
            ImportPolicy {
                loop_detection: lg_bgp::LoopDetection::disabled(),
                ..ImportPolicy::standard()
            },
        );
        cache.compute(&net, &plain);
        assert_eq!(cache.stats().evictions.footprint, 1);

        // Global mutation: flushes whatever is left (the plain entry and
        // the untagged prepended parent the poison was derived from).
        net.set_policy(
            AsId(3),
            ImportPolicy {
                deny_transit: vec![AsId(1)],
                ..ImportPolicy::standard()
            },
        );
        cache.compute(&net, &plain);
        let s = cache.stats();
        assert_eq!(s.evictions.global, 2);
        assert_eq!(s.evictions.generation_lost, 0);
        assert_eq!(s.evictions.total(), 4);
        assert_eq!(cache.invalidations(), 4);
    }

    #[test]
    fn caches_report_into_scoped_registry() {
        let reg = lg_telemetry::Registry::new();
        let mut net = net();
        let batch = specs(&net);
        let cache = SharedRouteCache::with_registry(&reg);
        for spec in &batch {
            cache.compute(&net, spec);
        }
        cache.compute(&net, &batch[0]);
        assert_eq!(reg.snapshot().gauge("cache.entries"), Some(4));

        // Footprint mutation at AS4 evicts only the AS4 poison; the gauges
        // describe the whole cache after the evicting sync, then the refill.
        net.set_policy(
            AsId(4),
            ImportPolicy {
                loop_detection: lg_bgp::LoopDetection::disabled(),
                ..ImportPolicy::standard()
            },
        );
        cache.compute(&net, &batch[0]);
        let snap = reg.snapshot();
        assert_eq!(snap.gauge("cache.entries"), Some(3));
        assert_eq!(snap.gauge("cache.retention_pct"), Some(75));
        cache.compute(&net, &batch[3]);

        let snap = reg.snapshot();
        assert_eq!(snap.gauge("cache.entries"), Some(4));
        assert_eq!(snap.counter("cache.hits"), Some(2));
        assert_eq!(snap.counter("cache.misses"), Some(5));
        assert_eq!(snap.counter("cache.evictions.footprint"), Some(1));
    }

    #[test]
    fn shared_cache_stats_track_scoped_evictions() {
        let mut net = net();
        let reg = lg_telemetry::Registry::new();
        let shared = SharedRouteCache::with_registry(&reg);
        let batch = specs(&net);
        for spec in &batch {
            shared.compute(&net, spec);
        }
        net.set_policy(
            AsId(4),
            ImportPolicy {
                loop_detection: lg_bgp::LoopDetection::disabled(),
                ..ImportPolicy::standard()
            },
        );
        for spec in &batch {
            shared.compute(&net, spec);
        }
        let s = shared.stats();
        assert_eq!(s.evictions.footprint, 1);
        assert_eq!(s.evictions.total(), 1);
        assert_eq!(s.entries, 4);
        assert_eq!((s.hits, s.misses), (3, 5));
        assert_eq!(reg.snapshot().counter("cache.evictions.footprint"), Some(1));
    }

    #[test]
    fn clear_empties_but_keeps_counters() {
        let net = net();
        let reg = lg_telemetry::Registry::new();
        let cache = SharedRouteCache::with_registry(&reg);
        let spec = AnnouncementSpec::plain(&net, pfx(), AsId(0));
        cache.compute(&net, &spec);
        assert_eq!(reg.snapshot().gauge("cache.entries"), Some(1));
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(reg.snapshot().gauge("cache.entries"), Some(0));
        assert_eq!(cache.misses(), 1);
        cache.compute(&net, &spec);
        assert_eq!(cache.misses(), 2);
        assert_eq!(reg.snapshot().gauge("cache.entries"), Some(1));
    }

    #[test]
    fn panicking_fill_does_not_wedge_the_cache() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let net = net();
        // A spec for another, larger network: its origin does not exist
        // here, so the fixed point indexes out of bounds.
        let mut g = GraphBuilder::with_ases(40);
        g.provider_customer(AsId(31), AsId(30));
        let bad = AnnouncementSpec::plain(&Network::new(g.build()), pfx(), AsId(30));
        let cache = SharedRouteCache::new();
        let fill_panics = || catch_unwind(AssertUnwindSafe(|| cache.compute(&net, &bad)));
        assert!(fill_panics().is_err());

        let good = AnnouncementSpec::prepended(&net, pfx(), AsId(0), 3);
        let (hits, misses) = (cache.hits(), cache.misses());
        let t1 = cache.compute(&net, &good);
        let t2 = cache.compute(&net, &good);
        assert_eq!((cache.hits(), cache.misses()), (hits + 1, misses + 1));
        assert!(Arc::ptr_eq(&t1, &t2));
        assert!(same_table(&t1, &compute_routes(&net, &good), net.len()));
        // The bad spec was never cached: it panics again instead of being
        // served or hanging on the poisoned lock.
        assert!(fill_panics().is_err());
        assert_eq!(cache.len(), 1);
    }
}
