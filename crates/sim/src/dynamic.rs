//! Event-driven message-level BGP engine.
//!
//! The static engine answers "where does routing converge"; this engine
//! answers "what happens on the way there": per-AS update counts, per-AS and
//! global convergence times, and transient data-plane behavior (loops, loss)
//! while announcements propagate. It implements per-neighbor Adj-RIB-In
//! maintenance, best-path selection, Gao-Rexford export filtering,
//! per-(peer, prefix) MRAI timers with deterministic jitter, immediate
//! withdrawals (MRAI applies to announcements only, matching common router
//! behavior), and duplicate suppression (a router only sends when the
//! advertised content actually changes).
//!
//! Everything is deterministic: events are ordered by `(time, sequence)` and
//! all "randomness" (MRAI jitter, link delays) is hashed from stable ids.
//!
//! Paths are interned in a per-simulation [`PathInterner`]: every UPDATE
//! carries a [`PathId`] (two words, `Copy`) instead of an owned `AsPath`,
//! the Adj-RIB-In stores interned routes ([`lg_bgp::IdRibIn`]), and the
//! announced-by prepend on propagation is an O(1) arena node instead of a
//! Vec clone. Owned paths are materialized only on demand (the public
//! [`DynamicSim::loc_route`] view builds its [`Route`] per call).
//!
//! Prefix count is a first-class scaling axis: prefixes are interned
//! process-wide into dense [`PrefixId`]s ([`lg_bgp::PrefixInterner`],
//! mirroring the path interner), all engine-internal state — events,
//! Adj-RIB-Ins, Loc-RIBs, per-(peer, prefix) out-queues, metrics — keys by
//! id, and every table an event probes is an id-sorted vec (O(log p)
//! probes, where the pre-full-table layout scanned O(p) pairs per event).
//! All prefixes share the one path arena, so memory scales with *distinct
//! paths*, not prefixes. Id values come from process-global interning
//! order and never influence observable order: everything that feeds the
//! update log or event order sorts by resolved [`Prefix`] (see
//! `tests/multi_prefix.rs`).
//!
//! The per-UPDATE path hashes nothing with SipHash and allocates nothing.
//! The rule that keeps that safe: a container the event path *probes*
//! (per-prefix slots, Loc-RIBs, Adj-RIB-Ins, link epochs, per-AS metrics)
//! is an id-sorted vec or an [`IdHashMap`] and is never iterated for
//! output; a container that *is* iterated for output (`specs`,
//! `seed_ids`) keeps std's per-instance-random hasher — so a missing sort
//! shows up as run-to-run divergence in `tests/multi_prefix.rs` — and is
//! not probed per event. DESIGN.md, "Dynamic engine hot path".
//!
//! Out-queue and MRAI: each node holds one dense slot per neighbor
//! (prefilled in adjacency order), each slot the per-prefix sending state
//! — duplicate suppression, MRAI deadline, whether a fire is pending. A
//! deferred announcement arms one timer on a hierarchical [`TimerWheel`]
//! whose payload names the `(node, slot, prefix)`; the fire re-derives
//! what to send from the Loc-RIB, so nothing about the deferred content is
//! stored. Wheel fires draw their sequence numbers from the same counter
//! as heap events, so the two sources pop in one global `(time, seq)`
//! order. `tests/dynamic_churn_invariants.rs` pins the MRAI lower bound,
//! quiescence and run-to-run identity over randomized churn; the wheel's
//! agreement with a binary heap is tested at its own interface
//! (`time.rs`).
//!
//! The engine also accounts batched wire UPDATEs — same-tick, same-peer,
//! same-attribute emissions coalesced into multi-prefix messages (see
//! `packing.rs`). Packing only observes the emission stream: it sees no
//! engine state mutably and never feeds back into event processing.

use crate::announce::AnnouncementSpec;
use crate::dataplane::{walk_fib, Fib, FibEntry, Walk};
use crate::failures::FailureSet;
use crate::network::Network;
use crate::packing::UpdatePacker;
use crate::time::{Time, TimerWheel};
use lg_asmap::{AsId, Relationship};
use lg_bgp::{
    IdHashMap, IdRibIn, IdRoute, PathId, PathInterner, Prefix, PrefixId, PrefixTrie, Route,
};
use lg_telemetry::{Counter, Histogram, Registry};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Registry handles the engine reports into, resolved once at
/// construction. These aggregate across every `DynamicSim` in the
/// process; the per-prefix [`PrefixMetrics`] remain the exact per-run
/// measurement the paper's tables are built from.
#[derive(Clone, Debug)]
pub(crate) struct DynamicTelemetry {
    /// UPDATE messages put on the wire (announcements + withdrawals).
    updates_sent: Counter,
    /// UPDATE messages delivered and processed (dead-session and
    /// down-link drops excluded).
    updates_received: Counter,
    /// Withdrawals among the messages sent.
    withdrawals_sent: Counter,
    /// Announcements that could not be sent immediately because the
    /// per-(peer, prefix) MRAI timer was still running or its fire was
    /// pending.
    mrai_deferrals: Counter,
    /// Best-route (Loc-RIB) changes across all nodes.
    loc_rib_changes: Counter,
    /// Simulated milliseconds from entering `run_until_quiescent` to its
    /// last processed event, per call that processed anything.
    quiescence_ms: Histogram,
    /// Updates rejected by a max-path-length cap. Shares its name (and so
    /// its global-registry handle) with the static engine's counter: the
    /// `policy.filtered_*` family aggregates across both engines.
    filtered_path_len: Counter,
    /// Updates rejected by a poisoned-announcement filter.
    filtered_poisoned: Counter,
    /// Updates rejected by a reserved-ASN filter.
    filtered_reserved: Counter,
    /// Emissions coalesced into an already-open packing group (logical
    /// updates saved by multi-prefix UPDATE packing; see `packing.rs`).
    pub(crate) updates_packed: Counter,
    /// Wire UPDATE messages actually encoded after packing and chunking.
    pub(crate) wire_updates: Counter,
    /// Encoded bytes of those packed messages.
    pub(crate) wire_bytes: Counter,
    /// Bytes the same emission stream would cost unpacked (one prefix per
    /// message) — the baseline packing savings are measured against.
    pub(crate) wire_bytes_unpacked: Counter,
    /// The event loop's own tallies ([`LoopTally`]), added once per
    /// `run_until*` call.
    events_recv: Counter,
    events_mrai_fire: Counter,
    stale_drops: Counter,
    decision_runs: Counter,
    interner_hits: Counter,
    interner_misses: Counter,
    packing_groups: Counter,
    packing_encodes: Counter,
}

impl DynamicTelemetry {
    pub(crate) fn from_registry(r: &Registry) -> Self {
        DynamicTelemetry {
            updates_sent: r.counter("dynamic.updates_sent"),
            updates_received: r.counter("dynamic.updates_received"),
            withdrawals_sent: r.counter("dynamic.withdrawals_sent"),
            mrai_deferrals: r.counter("dynamic.mrai_deferrals"),
            loc_rib_changes: r.counter("dynamic.loc_rib_changes"),
            quiescence_ms: r.histogram("dynamic.quiescence_ms"),
            filtered_path_len: r.counter("policy.filtered_path_len"),
            filtered_poisoned: r.counter("policy.filtered_poisoned"),
            filtered_reserved: r.counter("policy.filtered_reserved"),
            updates_packed: r.counter("dynamic.updates_packed"),
            wire_updates: r.counter("dynamic.wire_updates"),
            wire_bytes: r.counter("dynamic.wire_bytes"),
            wire_bytes_unpacked: r.counter("dynamic.wire_bytes_unpacked"),
            events_recv: r.counter("dynamic.events_recv"),
            events_mrai_fire: r.counter("dynamic.events_mrai_fire"),
            stale_drops: r.counter("dynamic.stale_drops"),
            decision_runs: r.counter("dynamic.decision_runs"),
            interner_hits: r.counter("dynamic.interner_hits"),
            interner_misses: r.counter("dynamic.interner_misses"),
            packing_groups: r.counter("packing.groups"),
            packing_encodes: r.counter("packing.encodes"),
        }
    }
}

/// What the event loop did, kept as plain integers (an atomic add per
/// event per tally would cost more than the tallies are worth) and added
/// to the registry at the end of each `run_until*` call. Together they
/// open the one span a run is from outside: how many events of each kind,
/// how many of them died at delivery, how many decision-process runs they
/// caused, and how often a prepend found its path already interned.
#[derive(Default)]
struct LoopTally {
    /// `Recv` events popped, delivered or not.
    events_recv: u64,
    /// MRAI timers fired.
    events_mrai_fire: u64,
    /// `Recv` events dropped at delivery: removed adjacency, session
    /// down, or sent by a dead session incarnation.
    stale_drops: u64,
    /// Best-path selections run (one per delivered UPDATE or session
    /// reset at a non-origin AS).
    decision_runs: u64,
    /// How much of each running total — these four, then the interner's
    /// hits and nodes and the packer's groups and encodes — the registry
    /// has been given so far.
    reported: [u64; 8],
}

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct DynamicSimConfig {
    /// Base MRAI interval in ms (RFC 4271 suggests 30 s for eBGP).
    pub mrai_ms: u64,
    /// Apply deterministic per-(node, peer) jitter of 75-100% of the base
    /// interval, as routers do to avoid synchronization.
    pub mrai_jitter: bool,
    /// Per-message processing delay in ms, added to link propagation.
    pub proc_delay_ms: u64,
}

impl Default for DynamicSimConfig {
    fn default() -> Self {
        DynamicSimConfig {
            mrai_ms: 30_000,
            mrai_jitter: true,
            proc_delay_ms: 1,
        }
    }
}

/// A BGP UPDATE in flight, arriving at `to` from `from`; `path = None`
/// withdraws. The path is interned in the simulation's [`PathInterner`].
/// `epoch` is the sending session's epoch (see [`DynamicSim::link_epoch`]):
/// a message from a session incarnation that has since died is dropped at
/// delivery, even if a *new* session over the same link is up by then.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Update {
    from: AsId,
    to: AsId,
    prefix: PrefixId,
    path: Option<PathId>,
    epoch: u64,
}

/// An update on the event heap, due at `at`.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Queued {
    at: Time,
    seq: u64,
    msg: Update,
}

impl Ord for Queued {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.at
            .cmp(&other.at)
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[derive(Default)]
struct PeerPrefixState {
    /// Earliest time the next *announcement* may be sent.
    mrai_ready_at: Time,
    /// A wheel timer for this (peer, prefix) is armed, and changes wait
    /// for it. Only the withdraw reset clears the flag under a live timer,
    /// which then fires harmlessly against the reset state.
    fire_pending: bool,
    /// Content of the last update actually sent (None = withdrawn / nothing
    /// ever sent). Outer Option: have we ever sent anything? Interned ids
    /// are hash-consed, so id equality here is content equality and
    /// duplicate suppression stays exact.
    last_sent: Option<Option<PathId>>,
}

impl PeerPrefixState {
    /// Would sending `desired` repeat what the peer already holds?
    fn already_sent(&self, desired: Option<PathId>) -> bool {
        self.last_sent == Some(desired) || (self.last_sent.is_none() && desired.is_none())
    }

    /// Record that `content` goes out at `now`. MRAI paces announcements
    /// only; a withdrawal leaves the timer where it was.
    fn mark_sent(&mut self, content: Option<PathId>, now: Time, mrai_interval: u64) {
        self.last_sent = Some(content);
        if content.is_some() {
            self.mrai_ready_at = now + mrai_interval;
        }
    }
}

/// One neighbor's sending machinery at a node: dense per-prefix state.
///
/// Per-prefix state is a vec sorted by dense [`PrefixId`], probed by
/// binary search: O(log p) per event at full-table prefix counts, where
/// the pre-full-table layout ("a node announces a handful of prefixes")
/// linearly scanned O(p) inline pairs per sent update. Inserts memmove,
/// but each (peer, prefix) inserts exactly once — and bulk announcements
/// intern prefixes in ascending id order, making those inserts appends.
struct OutPeer {
    peer: AsId,
    state: Vec<(PrefixId, PeerPrefixState)>,
}

/// One node's out-queue: maps neighbor ASes to dense peer slots via a
/// sorted vec + binary search (degree-sized, cheaper than hashing on the
/// per-update hot path).
#[derive(Default)]
struct OutNode {
    peer_idx: Vec<(AsId, u32)>,
    peers: Vec<OutPeer>,
}

/// A neighbor as the out-queue addresses it: the AS and its dense slot at
/// the sending node. Propagation reads the slot straight off the adjacency
/// row it is walking — slots are prefilled in adjacency order — and a
/// wheel fire carries it, so neither searches for the peer; everything
/// else asks [`OutStore::peer_ref`].
#[derive(Clone, Copy)]
struct PeerRef {
    peer: AsId,
    slot: u32,
}

/// Wheel payload: the `(node, peer slot, prefix)` whose MRAI timer fired.
/// The fire re-derives what to send, so nothing else is needed.
#[derive(Clone, Copy, Debug)]
struct FireKey {
    node: u32,
    slot: u32,
    prefix: PrefixId,
}

/// The engine's out-queue: per-node peer slots plus the wheel their MRAI
/// fires wait on.
struct OutStore {
    nodes: Vec<OutNode>,
    wheel: TimerWheel<FireKey>,
}

impl OutStore {
    /// Peer slots are pre-populated from the (sorted) adjacency instead of
    /// allocated on first contact: lazily inserting into the sorted
    /// `peer_idx` vec was O(degree²) memmove per node, which a 75k-AS
    /// graph with thousand-customer transit hubs turns into a real setup
    /// cost. Prefill is one pass, and slots are adjacency order. Slot
    /// numbering is internal: event order comes from the global `seq`
    /// counter.
    fn new(net: &Network) -> Self {
        let nodes = net
            .graph()
            .ases()
            .map(|a| {
                let nbrs = net.graph().neighbors(a);
                OutNode {
                    peer_idx: nbrs
                        .iter()
                        .enumerate()
                        .map(|(i, (p, _))| (*p, i as u32))
                        .collect(),
                    peers: nbrs
                        .iter()
                        .map(|(p, _)| OutPeer {
                            peer: *p,
                            state: Vec::new(),
                        })
                        .collect(),
                }
            })
            .collect();
        OutStore {
            nodes,
            wheel: TimerWheel::new(),
        }
    }

    /// Slot lookup with a lazy-insert fallback for peers that were not in
    /// the adjacency at construction (a session operation naming a
    /// non-neighbor).
    fn peer_slot(node: &mut OutNode, peer: AsId) -> u32 {
        match node.peer_idx.binary_search_by_key(&peer, |&(p, _)| p) {
            Ok(pos) => node.peer_idx[pos].1,
            Err(pos) => {
                let i = u32::try_from(node.peers.len()).expect("peer slot overflow");
                node.peer_idx.insert(pos, (peer, i));
                node.peers.push(OutPeer {
                    peer,
                    state: Vec::new(),
                });
                i
            }
        }
    }

    /// How this store addresses `peer` at `node`.
    fn peer_ref(&mut self, node: AsId, peer: AsId) -> PeerRef {
        let slot = Self::peer_slot(&mut self.nodes[node.index()], peer);
        PeerRef { peer, slot }
    }

    /// Get-or-create the sending state for `(node, peer, prefix)`.
    fn state_entry(&mut self, node: AsId, pr: PeerRef, prefix: PrefixId) -> &mut PeerPrefixState {
        let op = &mut self.nodes[node.index()].peers[pr.slot as usize];
        debug_assert_eq!(op.peer, pr.peer, "stale peer slot at {node}");
        let i = match op.state.binary_search_by_key(&prefix, |&(p, _)| p) {
            Ok(i) => i,
            Err(i) => {
                op.state.insert(i, (prefix, PeerPrefixState::default()));
                i
            }
        };
        &mut op.state[i].1
    }

    /// The sending state if it exists (no creation).
    fn state_get_mut(
        &mut self,
        node: AsId,
        pr: PeerRef,
        prefix: PrefixId,
    ) -> Option<&mut PeerPrefixState> {
        let state = &mut self.nodes[node.index()].peers[pr.slot as usize].state;
        let i = state.binary_search_by_key(&prefix, |&(p, _)| p).ok()?;
        Some(&mut state[i].1)
    }

    /// Reset all of `node`'s per-(peer, prefix) state for `prefix` to the
    /// default, in place (origin-side cleanup on withdraw). A default entry
    /// is what `state_entry` would recreate, and resetting avoids the
    /// O(prefixes) retain-scan per peer that made withdraw quadratic over
    /// full-table announce/withdraw cycles. Armed timers stay on the wheel
    /// and fire harmlessly against the reset state.
    fn remove_prefix(&mut self, node: AsId, prefix: PrefixId) {
        for op in &mut self.nodes[node.index()].peers {
            if let Ok(i) = op.state.binary_search_by_key(&prefix, |&(p, _)| p) {
                op.state[i].1 = PeerPrefixState::default();
            }
        }
    }

    /// Pop the earliest pending fire, resolved to `(node, peer, prefix)`.
    fn pop_fire(&mut self) -> (AsId, PeerRef, PrefixId) {
        let (_, _, key) = self.wheel.pop().expect("pop_fire on empty wheel");
        let pr = PeerRef {
            peer: self.nodes[key.node as usize].peers[key.slot as usize].peer,
            slot: key.slot,
        };
        (AsId(key.node), pr, key.prefix)
    }
}

/// May the holder of `route` advertise it to `peer`, to whom it relates as
/// `rel_to_peer`? Split horizon (never echo a route back to the neighbor
/// it came from) and Gao-Rexford export.
fn exports_to(route: &IdRoute, peer: AsId, rel_to_peer: Relationship) -> bool {
    route.learned_from != peer && route.rel.exportable_to(rel_to_peer)
}

#[derive(Default)]
struct Node {
    /// Routes accepted from each neighbor, per prefix (interned paths,
    /// dense prefix ids).
    adj_in: IdRibIn,
    /// Selected route per prefix, the Adj-RIB-In candidate as selected:
    /// three words per entry, so a full-table Loc-RIB costs O(prefixes)
    /// words and all path memory stays in the shared arena (the public
    /// [`DynamicSim::loc_route`] view materializes an owned [`Route`] per
    /// call). Sorted by id, probed only. A lost route resets its entry to
    /// `None` in place (as `remove_prefix` does), so full-table
    /// announce/withdraw cycles never memmove the table.
    loc: Vec<(PrefixId, Option<IdRoute>)>,
}

impl Node {
    fn loc_get(&self, prefix: PrefixId) -> Option<IdRoute> {
        let i = self.loc.binary_search_by_key(&prefix, |&(p, _)| p).ok()?;
        self.loc[i].1
    }

    /// Install `entry` as the selected route (`None`: no route). False
    /// when that is what the Loc-RIB already held.
    fn loc_replace(&mut self, prefix: PrefixId, entry: Option<IdRoute>) -> bool {
        match self.loc.binary_search_by_key(&prefix, |&(p, _)| p) {
            Ok(i) if self.loc[i].1 == entry => false,
            Ok(i) => {
                self.loc[i].1 = entry;
                true
            }
            Err(_) if entry.is_none() => false,
            Err(i) => {
                self.loc.insert(i, (prefix, entry));
                true
            }
        }
    }
}

/// One UPDATE put on the wire, as recorded by the (test-only) update log
/// — see [`DynamicSim::record_updates`]. The path is materialized so
/// records compare byte-for-byte across simulations with independent
/// interners.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UpdateRecord {
    /// Send time.
    pub at: Time,
    /// Sending AS.
    pub from: AsId,
    /// Receiving AS.
    pub to: AsId,
    /// Subject prefix.
    pub prefix: Prefix,
    /// Advertised path hops (nearest first); `None` withdraws.
    pub path: Option<Vec<AsId>>,
    /// True for origin-driven seed traffic (announce/withdraw/re-seed),
    /// which bypasses the MRAI machinery; false for updates emitted by
    /// the out-queue (`emit`). Seeded sends are exempt from the
    /// harness's MRAI lower-bound check.
    pub seeded: bool,
}

/// Per-prefix measurement of one convergence epoch.
#[derive(Clone, Debug, Default)]
pub struct PrefixMetrics {
    /// Epoch start (set by [`DynamicSim::begin_epoch`]).
    pub epoch_start: Time,
    /// Updates sent per AS since the epoch started. `u64`: long-running
    /// churn studies over large topologies can push a busy AS past
    /// `u32::MAX`, and a silent wrap would corrupt Table-2-style means.
    pub updates_sent: HashMap<AsId, u64>,
    /// First and last send time per AS.
    pub first_sent: HashMap<AsId, Time>,
    /// Last send time per AS.
    pub last_sent: HashMap<AsId, Time>,
    /// Loc-RIB changes per AS.
    pub loc_changes: HashMap<AsId, u64>,
    /// Time of the first Loc-RIB change per AS.
    pub first_loc_change: HashMap<AsId, Time>,
    /// Time of the last Loc-RIB change per AS.
    pub last_loc_change: HashMap<AsId, Time>,
}

impl PrefixMetrics {
    /// The paper's Fig 6 per-peer metric: a route collector measures, per
    /// peer AS, the time from the AS's first update to its stable
    /// post-poisoning route. On a single collector session, updates are the
    /// AS's best-route changes, so we measure first-to-last Loc-RIB change.
    /// `Some(0)` means a single route change — "instant" convergence.
    /// `None` means the AS's selection never changed this epoch.
    pub fn convergence_ms(&self, a: AsId) -> Option<u64> {
        let first = self.first_loc_change.get(&a)?;
        let last = self.last_loc_change.get(&a)?;
        Some(*last - *first)
    }

    /// Number of updates `a` sent this epoch.
    pub fn updates_of(&self, a: AsId) -> u64 {
        self.updates_sent.get(&a).copied().unwrap_or(0)
    }

    /// Global convergence time: from epoch start to the last Loc-RIB change
    /// anywhere. `None` when nothing changed.
    pub fn global_convergence_ms(&self) -> Option<u64> {
        self.last_loc_change
            .values()
            .max()
            .map(|t| *t - self.epoch_start)
    }

    /// Mean updates per AS over `population` ASes (for Table 2's U).
    pub fn mean_updates(&self, population: &[AsId]) -> f64 {
        if population.is_empty() {
            return 0.0;
        }
        let total: u64 = population.iter().map(|a| self.updates_of(*a)).sum();
        total as f64 / population.len() as f64
    }
}

/// One AS's share of a prefix's measurement epoch: what
/// [`PrefixMetrics`] spreads over six maps, in one entry, so a send or a
/// Loc-RIB change is one probe. The timestamps mean something only beside
/// a nonzero count.
#[derive(Clone, Copy, Default)]
struct AsMetrics {
    updates_sent: u64,
    first_sent: Time,
    last_sent: Time,
    loc_changes: u64,
    first_loc_change: Time,
    last_loc_change: Time,
}

/// A prefix's current measurement epoch as the engine keeps it;
/// [`DynamicSim::metrics`] builds the public [`PrefixMetrics`] from it.
struct EpochMetrics {
    epoch_start: Time,
    /// Probed per send and per Loc-RIB change. The one walk, in
    /// [`Self::materialize`], fills maps that are themselves unordered.
    per_as: IdHashMap<AsId, AsMetrics>,
}

impl EpochMetrics {
    fn starting(at: Time) -> Self {
        EpochMetrics {
            epoch_start: at,
            per_as: IdHashMap::default(),
        }
    }

    fn materialize(&self) -> PrefixMetrics {
        let mut m = PrefixMetrics {
            epoch_start: self.epoch_start,
            ..PrefixMetrics::default()
        };
        for (&a, am) in &self.per_as {
            if am.updates_sent > 0 {
                m.updates_sent.insert(a, am.updates_sent);
                m.first_sent.insert(a, am.first_sent);
                m.last_sent.insert(a, am.last_sent);
            }
            if am.loc_changes > 0 {
                m.loc_changes.insert(a, am.loc_changes);
                m.first_loc_change.insert(a, am.first_loc_change);
                m.last_loc_change.insert(a, am.last_loc_change);
            }
        }
        m
    }
}

/// What the event path asks about a prefix, behind one probe of the
/// id-sorted [`DynamicSim::prefixes`] table: who announces it (the
/// pinned-self-route check every reselection makes), its wire form (for
/// the packer and the update log, without a trip to the process-wide
/// interner's lock), and its metrics epoch. A slot is made by the first
/// `announce` or `begin_epoch` naming the prefix and never removed, so
/// every prefix an event can carry has one.
struct PrefixSlot {
    prefix: Prefix,
    /// The announcing AS while the prefix is announced — `specs[..].origin`
    /// kept where a probe finds it; `specs` itself is only iterated.
    origin: Option<AsId>,
    metrics: EpochMetrics,
}

/// The event-driven simulator.
pub struct DynamicSim<'n> {
    net: &'n Network,
    cfg: DynamicSimConfig,
    now: Time,
    seq: u64,
    queue: BinaryHeap<Reverse<Queued>>,
    nodes: Vec<Node>,
    /// All AS paths this run has seen, hash-consed; lives as long as the
    /// simulation and is bounded by distinct paths, not messages processed.
    paths: PathInterner,
    /// Current announcement per prefix (origin + seeds), to diff on change.
    /// Iterated by `restore_link`, so it keeps std's hasher (module docs).
    specs: HashMap<PrefixId, AnnouncementSpec>,
    /// Interned seed paths per announced prefix, aligned with the spec's
    /// seed list; what the origin (re-)advertises to each seeded neighbor.
    seed_ids: HashMap<PrefixId, Vec<(AsId, PathId)>>,
    /// Per-prefix state the event path probes ([`PrefixSlot`]), sorted by
    /// id. Probed only — never iterated for output.
    prefixes: Vec<(PrefixId, PrefixSlot)>,
    /// LPM trie over every prefix this simulation has ever announced,
    /// for [`Fib`] lookups: O(32) most-specific-first candidate walk
    /// instead of a scan over the whole Loc-RIB. Entries persist across
    /// withdraw (a stale id simply has no Loc-RIB entry), matching the
    /// old scan's behavior exactly.
    prefix_lpm: PrefixTrie<PrefixId>,
    /// Session incarnation per unordered link pair that ever failed,
    /// sorted by pair; bumped on both [`Self::fail_link`] and
    /// [`Self::restore_link`] so updates in flight across a fail/restore
    /// cycle cannot install stale pre-failure routes. Its parity is also
    /// the session's state ([`Self::session_down`]): the one record of
    /// control-plane-visible link failures. Probed only.
    link_epochs: Vec<((AsId, AsId), u64)>,
    /// Failures consulted by [`DynamicSim::walk`].
    pub failures: FailureSet,
    /// Per-(peer, prefix) sending state and the MRAI timer wheel.
    out: OutStore,
    /// Update log for run-to-run comparison in tests; `None` (the
    /// default) records nothing.
    log: Option<Vec<UpdateRecord>>,
    /// Wire-level UPDATE packing accountant (see `packing.rs`).
    packer: UpdatePacker,
    tally: LoopTally,
    tele: DynamicTelemetry,
}

impl<'n> DynamicSim<'n> {
    /// Fresh simulator over `net`, reporting into the global telemetry
    /// registry.
    pub fn new(net: &'n Network, cfg: DynamicSimConfig) -> Self {
        Self::with_registry(net, cfg, lg_telemetry::global())
    }

    /// Fresh simulator reporting into `registry` instead of the global
    /// one (isolated observation in tests).
    pub fn with_registry(net: &'n Network, cfg: DynamicSimConfig, registry: &Registry) -> Self {
        DynamicSim {
            net,
            cfg,
            now: Time::ZERO,
            seq: 0,
            queue: BinaryHeap::new(),
            nodes: (0..net.len()).map(|_| Node::default()).collect(),
            paths: PathInterner::new(),
            specs: HashMap::new(),
            seed_ids: HashMap::new(),
            prefixes: Vec::new(),
            prefix_lpm: PrefixTrie::new(),
            link_epochs: Vec::new(),
            failures: FailureSet::none(),
            out: OutStore::new(net),
            log: None,
            packer: UpdatePacker::new(),
            tally: LoopTally::default(),
            tele: DynamicTelemetry::from_registry(registry),
        }
    }

    /// Toggle the update log (off by default). The log records every
    /// UPDATE put on the wire in emission order; two simulations driven by
    /// the same schedule must produce byte-identical logs — the churn
    /// harness's run-twice check.
    pub fn record_updates(&mut self, on: bool) {
        self.log = if on { Some(Vec::new()) } else { None };
    }

    /// The recorded update log (empty unless [`Self::record_updates`] was
    /// enabled).
    pub fn update_log(&self) -> &[UpdateRecord] {
        self.log.as_deref().unwrap_or(&[])
    }

    /// Sessions start up at epoch 0 and every fail or restore bumps the
    /// epoch, so a session is down exactly while its epoch is odd.
    fn session_down(epoch: u64) -> bool {
        epoch % 2 == 1
    }

    fn link_key(a: AsId, b: AsId) -> (AsId, AsId) {
        if a.0 <= b.0 {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// Current session epoch of link `a`-`b` (unordered).
    fn link_epoch(&self, a: AsId, b: AsId) -> u64 {
        if self.link_epochs.is_empty() {
            return 0; // no session has ever failed: the common case
        }
        let key = Self::link_key(a, b);
        match self.link_epochs.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(i) => self.link_epochs[i].1,
            Err(_) => 0,
        }
    }

    fn bump_link_epoch(&mut self, a: AsId, b: AsId) {
        let key = Self::link_key(a, b);
        match self.link_epochs.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(i) => self.link_epochs[i].1 += 1,
            Err(i) => self.link_epochs.insert(i, (key, 1)),
        }
    }

    /// Index of `prefix`'s slot in [`Self::prefixes`].
    fn slot_of(&self, prefix: PrefixId) -> usize {
        self.prefixes
            .binary_search_by_key(&prefix, |&(p, _)| p)
            .expect("a prefix in flight was announced, which made its slot")
    }

    /// Index of `prefix`'s slot, made on first sight with its metrics
    /// epoch starting now.
    fn slot_or_insert(&mut self, id: PrefixId, prefix: Prefix) -> usize {
        match self.prefixes.binary_search_by_key(&id, |&(p, _)| p) {
            Ok(i) => i,
            Err(i) => {
                let slot = PrefixSlot {
                    prefix,
                    origin: None,
                    metrics: EpochMetrics::starting(self.now),
                };
                self.prefixes.insert(i, (id, slot));
                i
            }
        }
    }

    /// Tear down the BGP session over link `a`-`b` (a *control-plane
    /// visible* failure, unlike the silent ones in [`Self::failures`]):
    /// both ends drop everything learned from the other and propagate
    /// withdrawals/alternatives.
    pub fn fail_link(&mut self, a: AsId, b: AsId) {
        if Self::session_down(self.link_epoch(a, b)) {
            return;
        }
        self.bump_link_epoch(a, b);
        for (node, peer) in [(a, b), (b, a)] {
            // The RIB hands the prefixes back sorted by value: id order is
            // process-global allocation order and must not steer the
            // reselection cascade (it feeds the update log).
            for prefix in self.nodes[node.index()].adj_in.withdraw_neighbor(peer) {
                self.reselect(node, prefix);
            }
        }
    }

    /// Restore the session over link `a`-`b`; both ends re-advertise their
    /// current best routes (and the origin re-seeds if it sits on the
    /// link). A no-op on a session that is up, as [`Self::fail_link`] is
    /// on one that is down.
    pub fn restore_link(&mut self, a: AsId, b: AsId) {
        if !Self::session_down(self.link_epoch(a, b)) {
            return;
        }
        // A fresh session incarnation: anything still in flight from before
        // the failure must not be delivered into the revived session.
        self.bump_link_epoch(a, b);
        let epoch = self.link_epoch(a, b);
        // Clear duplicate-suppression state for the revived sessions so the
        // current routes get re-sent, then push them out. `specs` is a
        // HashMap, and with many prefixes in play its iteration order is
        // per-instance random — sort by prefix value so the re-send order
        // (which feeds the update log) is a function of the schedule, not
        // of hasher seeds or id allocation order.
        let mut prefixes: Vec<PrefixId> = self.specs.keys().copied().collect();
        prefixes.sort_by_cached_key(|id| id.resolve());
        for (node, peer) in [(a, b), (b, a)] {
            let pr = self.out.peer_ref(node, peer);
            for &prefix in &prefixes {
                if let Some(st) = self.out.state_get_mut(node, pr, prefix) {
                    st.last_sent = None;
                }
                let slot = self.slot_of(prefix);
                let desired = self.desired_content(node, peer, prefix, slot);
                self.schedule_update(node, pr, prefix, slot, desired, epoch);
            }
        }
        // Re-seed origin announcements that ride this link, again in
        // prefix order (seed_ids iteration is map order).
        let mut reseeds: Vec<(Prefix, PrefixId, AsId, AsId, PathId)> = self
            .seed_ids
            .iter()
            .flat_map(|(prefix, seeds)| {
                let origin = self.specs[prefix].origin;
                seeds
                    .iter()
                    .filter(move |(nbr, _)| {
                        (origin == a && *nbr == b) || (origin == b && *nbr == a)
                    })
                    .map(move |(nbr, id)| (prefix.resolve(), *prefix, origin, *nbr, *id))
            })
            .collect();
        reseeds.sort_by_key(|&(p, _, _, nbr, _)| (p, nbr));
        for (pfx, prefix, origin, nbr, id) in reseeds {
            let at = self.now + self.link_latency(origin, nbr);
            self.push_recv(at, origin, nbr, prefix, pfx, Some(id), epoch, true);
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Metrics for `prefix` (empty if never announced).
    pub fn metrics(&self, prefix: Prefix) -> PrefixMetrics {
        // `lookup`, not `of`: a metrics query for a never-seen prefix must
        // not grow the process-wide prefix table.
        PrefixId::lookup(prefix)
            .and_then(|id| self.prefixes.binary_search_by_key(&id, |&(p, _)| p).ok())
            .map(|i| self.prefixes[i].1.metrics.materialize())
            .unwrap_or_default()
    }

    /// Start a fresh measurement epoch for `prefix` at the current time.
    pub fn begin_epoch(&mut self, prefix: Prefix) {
        let slot = self.slot_or_insert(PrefixId::of(prefix), prefix);
        self.prefixes[slot].1.metrics = EpochMetrics::starting(self.now);
    }

    /// The route `a` currently selects for `prefix`, materialized from the
    /// interned Loc-RIB entry (built per call; the engine keeps no owned
    /// routes).
    pub fn loc_route(&self, a: AsId, prefix: Prefix) -> Option<Route> {
        let id = PrefixId::lookup(prefix)?;
        let e = self.nodes[a.index()].loc_get(id)?;
        Some(Route {
            prefix,
            path: self.paths.materialize(e.path),
            learned_from: e.learned_from,
            rel: e.rel,
            communities: Vec::new(),
        })
    }

    /// Number of distinct path shapes interned so far (diagnostic; growth
    /// stalls once convergence stops producing new paths). This is the
    /// "memory scales with distinct paths, not prefixes" gauge the
    /// full-table bench gates on.
    pub fn interned_paths(&self) -> usize {
        self.paths.node_count()
    }

    /// Total Loc-RIB entries across all nodes (full-table memory
    /// diagnostic; each entry is three words).
    pub fn loc_entries(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| n.loc.iter().filter(|(_, e)| e.is_some()).count())
            .sum()
    }

    /// Total Adj-RIB-In (prefix, neighbor) entries across all nodes.
    pub fn adj_entries(&self) -> usize {
        self.nodes.iter().map(|n| n.adj_in.entry_count()).sum()
    }

    /// Total per-(peer, prefix) out-queue state entries across all nodes.
    pub fn out_state_entries(&self) -> usize {
        self.out
            .nodes
            .iter()
            .flat_map(|n| n.peers.iter())
            .map(|p| p.state.len())
            .sum()
    }

    /// Updates currently queued on the heap (diagnostic; armed MRAI
    /// timers are not included).
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    fn push(&mut self, at: Time, msg: Update) {
        // Every enqueued update is on the wire (whether it will be
        // delivered or die with its session), so this is the one spot that
        // sees them all — origin seeds, propagation, and withdrawals.
        self.tele.updates_sent.inc();
        if msg.path.is_none() {
            self.tele.withdrawals_sent.inc();
        }
        self.seq += 1;
        self.queue.push(Reverse(Queued {
            at,
            seq: self.seq,
            msg,
        }));
    }

    /// Put an UPDATE on the wire: enqueue its delivery, record it when the
    /// update log is on, and feed the packing accountant. `pfx` is what
    /// `prefix` resolves to (the caller has it at hand).
    /// `seeded` marks origin-driven traffic that bypasses the MRAI
    /// machinery.
    #[allow(clippy::too_many_arguments)]
    fn push_recv(
        &mut self,
        at: Time,
        from: AsId,
        to: AsId,
        prefix: PrefixId,
        pfx: Prefix,
        path: Option<PathId>,
        epoch: u64,
        seeded: bool,
    ) {
        if let Some(log) = &mut self.log {
            log.push(UpdateRecord {
                at: self.now,
                from,
                to,
                prefix: pfx,
                path: path.map(|p| self.paths.hops(p).collect()),
                seeded,
            });
        }
        self.packer
            .observe(self.now, from, to, pfx, path, &self.paths, &self.tele);
        self.push(
            at,
            Update {
                from,
                to,
                prefix,
                path,
                epoch,
            },
        );
    }

    /// What every `run_until*` call does last: close the open packing
    /// groups (a later send, even in this tick, starts a new message) and
    /// add the loop's tallies to the registry.
    fn finish_run(&mut self) {
        self.packer.flush();
        let (groups, encodes) = (self.packer.groups, self.packer.encodes);
        let (t, tele) = (&mut self.tally, &self.tele);
        let totals = [
            (t.events_recv, &tele.events_recv),
            (t.events_mrai_fire, &tele.events_mrai_fire),
            (t.stale_drops, &tele.stale_drops),
            (t.decision_runs, &tele.decision_runs),
            (self.paths.hits(), &tele.interner_hits),
            // A miss is what allocates an arena node.
            (self.paths.node_count() as u64, &tele.interner_misses),
            (groups, &tele.packing_groups),
            (encodes, &tele.packing_encodes),
        ];
        for ((total, counter), reported) in totals.into_iter().zip(&mut t.reported) {
            counter.add(total - *reported);
            *reported = total;
        }
    }

    fn mrai_interval_under(cfg: &DynamicSimConfig, node: AsId, peer: AsId) -> u64 {
        if !cfg.mrai_jitter {
            return cfg.mrai_ms;
        }
        let mut x = ((node.0 as u64) << 32 | peer.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 29;
        // 75%..100% of the base interval.
        cfg.mrai_ms * (75 + x % 26) / 100
    }

    /// The (deterministically jittered) MRAI interval `node` applies to
    /// announcements toward `peer`. Public so the churn harnesses can
    /// assert the MRAI lower bound on observed update spacing.
    pub fn mrai_interval(&self, node: AsId, peer: AsId) -> u64 {
        Self::mrai_interval_under(&self.cfg, node, peer)
    }

    fn link_latency(&self, a: AsId, b: AsId) -> u64 {
        self.net.link_delay_ms(a, b) + self.cfg.proc_delay_ms
    }

    /// Announce (or change) the origin's advertisement for a prefix. Seeds
    /// receive the new paths; neighbors dropped from the seed list receive
    /// withdrawals. The origin installs a local self-route.
    pub fn announce(&mut self, spec: &AnnouncementSpec) {
        let _tspan = lg_telemetry::trace::span("dynamic.announce");
        spec.validate(self.net).expect("invalid announcement spec");
        let pid = PrefixId::of(spec.prefix);
        self.prefix_lpm.insert(spec.prefix, pid);
        let old = self.specs.insert(pid, spec.clone());
        // First sight of this prefix starts its measurement epoch *now* —
        // an epoch left at `Time::ZERO` would silently inflate
        // `global_convergence_ms` for t>0 announces.
        let slot = self.slot_or_insert(pid, spec.prefix);
        self.prefixes[slot].1.origin = Some(spec.origin);

        // Origin's own loc entry so the data plane delivers at the origin.
        // While the prefix is announced this entry is pinned: `reselect`
        // never replaces or removes it (a neighbor echoing the prefix back
        // gets rejected by loop detection, and that rejection must not
        // evict the self-route).
        self.nodes[spec.origin.index()].loc_replace(
            pid,
            Some(IdRoute {
                path: PathId::EMPTY,
                learned_from: spec.origin,
                rel: Relationship::Customer,
            }),
        );

        let seeds: Vec<(AsId, PathId)> = spec
            .seeds
            .iter()
            .map(|(nbr, path)| (*nbr, self.paths.intern(path)))
            .collect();
        self.seed_ids.insert(pid, seeds.clone());
        let mut sent_to: Vec<AsId> = Vec::new();
        for (nbr, id) in &seeds {
            let at = self.now + self.link_latency(spec.origin, *nbr);
            let epoch = self.link_epoch(spec.origin, *nbr);
            self.push_recv(
                at,
                spec.origin,
                *nbr,
                pid,
                spec.prefix,
                Some(*id),
                epoch,
                true,
            );
            // Record the send in the origin's machinery state so duplicate
            // suppression and later MRAI flushes see what was actually
            // advertised.
            let pr = self.out.peer_ref(spec.origin, *nbr);
            let st = self.out.state_entry(spec.origin, pr, pid);
            st.last_sent = Some(Some(*id));
            sent_to.push(*nbr);
        }
        // Withdraw from neighbors no longer seeded.
        if let Some(old_spec) = old {
            for (nbr, _) in &old_spec.seeds {
                if !sent_to.contains(nbr) {
                    let at = self.now + self.link_latency(spec.origin, *nbr);
                    let epoch = self.link_epoch(spec.origin, *nbr);
                    self.push_recv(at, spec.origin, *nbr, pid, spec.prefix, None, epoch, true);
                    let pr = self.out.peer_ref(spec.origin, *nbr);
                    let st = self.out.state_entry(spec.origin, pr, pid);
                    st.last_sent = Some(None);
                }
            }
        }
    }

    /// Withdraw the prefix from all seeded neighbors.
    pub fn withdraw(&mut self, prefix: Prefix) {
        let _tspan = lg_telemetry::trace::span("dynamic.withdraw");
        let Some(pid) = PrefixId::lookup(prefix) else {
            return; // never interned anywhere, so certainly never announced
        };
        let Some(spec) = self.specs.remove(&pid) else {
            return;
        };
        self.seed_ids.remove(&pid);
        let slot = self.slot_of(pid);
        self.prefixes[slot].1.origin = None;
        self.nodes[spec.origin.index()].loc_replace(pid, None);
        // Drop the origin's per-(peer, prefix) machinery state: stale
        // `last_sent` would suppress the first update of a later
        // re-announcement, and a stale `mrai_ready_at` / pending fire would
        // mis-time it. (Timers still armed for the dropped state are
        // harmless: they fire against a default entry whose desired content
        // is already None.)
        self.out.remove_prefix(spec.origin, pid);
        for (nbr, _) in &spec.seeds {
            let at = self.now + self.link_latency(spec.origin, *nbr);
            let epoch = self.link_epoch(spec.origin, *nbr);
            self.push_recv(at, spec.origin, *nbr, pid, prefix, None, epoch, true);
        }
    }

    /// The `(time, seq)` of the next pending event across both sources
    /// (heap and timer wheel), and whether it is a wheel fire. Seqs come
    /// from one global counter, so the total order is exact.
    fn next_pending(&self) -> Option<(Time, u64, bool)> {
        let heap = self.queue.peek().map(|Reverse(q)| (q.at, q.seq));
        let fire = self.out.wheel.peek();
        match (heap, fire) {
            (None, None) => None,
            (Some((t, s)), None) => Some((t, s, false)),
            (None, Some((t, s))) => Some((t, s, true)),
            (Some(h), Some(f)) => {
                if f < h {
                    Some((f.0, f.1, true))
                } else {
                    Some((h.0, h.1, false))
                }
            }
        }
    }

    /// Process the next pending event (caller has set `self.now`).
    fn step(&mut self, is_fire: bool) {
        if is_fire {
            let (node, pr, prefix) = self.out.pop_fire();
            self.handle_mrai_fire(node, pr, prefix);
        } else {
            let Reverse(q) = self.queue.pop().expect("peeked event vanished");
            self.handle_recv(q.msg);
        }
    }

    /// Process events until the queue drains or `deadline` passes. Returns
    /// the time of the last processed event.
    pub fn run_until_quiescent(&mut self, deadline: Time) -> Time {
        let _tspan = lg_telemetry::trace::span("dynamic.quiescence");
        let start = self.now;
        let mut last = self.now;
        let mut processed = false;
        while let Some((at, _, is_fire)) = self.next_pending() {
            if at > deadline {
                break;
            }
            self.now = at;
            last = at;
            processed = true;
            self.step(is_fire);
        }
        self.finish_run();
        if processed {
            // Simulated time from entering the call to its last event: the
            // time-to-quiescence of this convergence burst.
            self.tele.quiescence_ms.record(last - start);
            lg_telemetry::trace::annot_u64("dynamic.quiescence_ms", last - start);
        }
        last
    }

    /// Advance the clock to `t`, processing due events (later events stay
    /// queued). Useful for interleaving data-plane probes with convergence.
    /// A `t` in the past is a no-op: the clock never rewinds (MRAI
    /// bookkeeping and metrics timestamps rely on monotonic time).
    pub fn run_until(&mut self, t: Time) {
        while let Some((at, _, is_fire)) = self.next_pending() {
            if at > t {
                break;
            }
            self.now = at;
            self.step(is_fire);
        }
        self.finish_run();
        self.now = self.now.max(t);
    }

    /// True when no events are pending.
    pub fn quiescent(&self) -> bool {
        self.queue.is_empty() && self.out.wheel.is_empty()
    }

    /// An MRAI timer expired: clear the pending flag and send whatever the
    /// deferred update's content is *now* — the route may have changed (or
    /// become a duplicate) since the deferral.
    fn handle_mrai_fire(&mut self, node: AsId, pr: PeerRef, prefix: PrefixId) {
        self.tally.events_mrai_fire += 1;
        lg_telemetry::trace::instant_value("dynamic.mrai_fire", self.now.millis());
        let slot = self.slot_of(prefix);
        let desired = self.desired_content(node, pr.peer, prefix, slot);
        let st = self.out.state_entry(node, pr, prefix);
        st.fire_pending = false;
        if st.already_sent(desired) {
            return;
        }
        let interval = Self::mrai_interval_under(&self.cfg, node, pr.peer);
        st.mark_sent(desired, self.now, interval);
        let epoch = self.link_epoch(node, pr.peer);
        self.emit(node, pr.peer, prefix, slot, desired, epoch);
    }

    fn handle_recv(&mut self, msg: Update) {
        let Update {
            from,
            to,
            prefix,
            path,
            epoch,
        } = msg;
        self.tally.events_recv += 1;
        let net = self.net;
        let Some(rel) = net.graph().relationship(to, from) else {
            self.tally.stale_drops += 1;
            return; // stale event across a removed adjacency
        };
        let live = self.link_epoch(from, to);
        if Self::session_down(live) || epoch != live {
            // The session is down, or this was sent by a dead session
            // incarnation: the link failed (and possibly revived) while
            // the update was in flight. A real TCP session would have
            // lost it with the connection.
            self.tally.stale_drops += 1;
            return;
        }
        self.tele.updates_received.inc();
        let adj_in = &mut self.nodes[to.index()].adj_in;
        match path {
            Some(p) => {
                let rejected = net.policy(to).evaluate_hops(
                    to,
                    net.peers_of(to),
                    rel,
                    self.paths.hops(p),
                    self.paths.len(p),
                );
                match rejected {
                    Some(lg_bgp::RejectReason::PathLenCap) => self.tele.filtered_path_len.inc(),
                    Some(lg_bgp::RejectReason::Poisoned) => self.tele.filtered_poisoned.inc(),
                    Some(lg_bgp::RejectReason::ReservedAsn) => self.tele.filtered_reserved.inc(),
                    _ => {}
                }
                if rejected.is_none() {
                    adj_in.insert(
                        prefix,
                        IdRoute {
                            path: p,
                            learned_from: from,
                            rel,
                        },
                    );
                } else {
                    // Implicit withdrawal: the rejected update replaced
                    // whatever the neighbor previously advertised.
                    adj_in.withdraw(from, prefix);
                }
            }
            None => {
                adj_in.withdraw(from, prefix);
            }
        }
        self.reselect(to, prefix);
    }

    /// Re-run the decision process at `at` for `prefix` and, when the
    /// selection changed, offer the new route (or its loss) to every
    /// neighbor. The adjacency row is walked in place: it hands over each
    /// neighbor's relationship and — rows and peer slots share an order —
    /// its out-queue slot, and `at` prepended to the new path is interned
    /// once, at the first neighbor the route may be exported to, instead
    /// of being looked up again for each.
    fn reselect(&mut self, at: AsId, prefix: PrefixId) {
        let slot = self.slot_of(prefix);
        // The origin's self-route is pinned while the prefix is announced:
        // a neighbor's echoed-back announcement (rejected by loop
        // detection, becoming an implicit withdrawal) must not evict it.
        if self.prefixes[slot].1.origin == Some(at) {
            return;
        }
        self.tally.decision_runs += 1;
        let node = &mut self.nodes[at.index()];
        let best = node.adj_in.best(prefix, &self.paths);
        if !node.loc_replace(prefix, best) {
            return;
        }
        self.tele.loc_rib_changes.inc();
        let m = self.prefixes[slot].1.metrics.per_as.entry(at).or_default();
        if m.loc_changes == 0 {
            m.first_loc_change = self.now;
        }
        m.loc_changes += 1;
        m.last_loc_change = self.now;

        let net = self.net;
        let mut announced: Option<PathId> = None;
        for (i, &(peer, rel_to_peer)) in net.graph().neighbors(at).iter().enumerate() {
            let epoch = self.link_epoch(at, peer);
            if Self::session_down(epoch) {
                continue;
            }
            let desired = match best {
                Some(e) if exports_to(&e, peer, rel_to_peer) => {
                    Some(*announced.get_or_insert_with(|| self.paths.prepend(e.path, at)))
                }
                _ => None,
            };
            let pr = PeerRef {
                peer,
                slot: i as u32,
            };
            self.schedule_update(at, pr, prefix, slot, desired, epoch);
        }
    }

    /// What `node` would advertise to `peer` for `prefix` right now. At the
    /// announced origin this is the spec's seed path for that neighbor (or
    /// nothing for unseeded neighbors — selective advertising), not a
    /// derivation from the self-route.
    fn desired_content(
        &mut self,
        node: AsId,
        peer: AsId,
        prefix: PrefixId,
        slot: usize,
    ) -> Option<PathId> {
        if self.prefixes[slot].1.origin == Some(node) {
            return self
                .seed_ids
                .get(&prefix)
                .and_then(|seeds| seeds.iter().find(|(n, _)| *n == peer))
                .map(|(_, id)| *id);
        }
        let e = self.nodes[node.index()].loc_get(prefix)?;
        let rel_to_peer = self.net.graph().relationship(node, peer)?;
        exports_to(&e, peer, rel_to_peer).then(|| self.paths.prepend(e.path, node))
    }

    /// Advertise `desired` to `pr`, over a live session whose epoch is
    /// `epoch`, unless that is what the peer already holds: at once when
    /// it is a withdrawal or the MRAI timer has run out, otherwise when
    /// the timer fires.
    fn schedule_update(
        &mut self,
        node: AsId,
        pr: PeerRef,
        prefix: PrefixId,
        slot: usize,
        desired: Option<PathId>,
        epoch: u64,
    ) {
        let st = self.out.state_entry(node, pr, prefix);
        if st.already_sent(desired) {
            return; // no change to advertise
        }
        let ready = st.mrai_ready_at;
        // Withdrawals bypass MRAI. An announcement whose timer has run out
        // still waits when its fire is pending: that fire is due this very
        // tick and sends the latest content, so sending here as well would
        // put two announcements in one MRAI window.
        if desired.is_none() || (self.now >= ready && !st.fire_pending) {
            let interval = Self::mrai_interval_under(&self.cfg, node, pr.peer);
            st.mark_sent(desired, self.now, interval);
            self.emit(node, pr.peer, prefix, slot, desired, epoch);
            return;
        }
        // MRAI still running, or its fire pending: the change waits for
        // the timer (whether this call queues the fire or an earlier one
        // already did), which will pick up the latest content.
        let need_fire = !st.fire_pending;
        st.fire_pending = true;
        self.tele.mrai_deferrals.inc();
        if need_fire {
            // The fire's seq comes from the counter heap events draw from,
            // so fires and deliveries pop in one (time, seq) order.
            self.seq += 1;
            let key = FireKey {
                node: node.0,
                slot: pr.slot,
                prefix,
            };
            self.out.wheel.insert(ready, self.seq, key);
        }
    }

    /// Put `node`'s UPDATE for `prefix` on the wire toward `peer` (the
    /// out-state already says so) and book it in the prefix's metrics.
    fn emit(
        &mut self,
        node: AsId,
        peer: AsId,
        prefix: PrefixId,
        slot: usize,
        content: Option<PathId>,
        epoch: u64,
    ) {
        let s = &mut self.prefixes[slot].1;
        let pfx = s.prefix;
        let m = s.metrics.per_as.entry(node).or_default();
        if m.updates_sent == 0 {
            m.first_sent = self.now;
        }
        // Send timestamps are monotone per AS within an epoch: the clock
        // never rewinds, so a recorded time can't exceed `now`.
        debug_assert!(m.first_sent <= self.now, "first_sent after now at {node}");
        debug_assert!(m.last_sent <= self.now, "last_sent after now at {node}");
        m.updates_sent += 1;
        m.last_sent = self.now;
        let at = self.now + self.link_latency(node, peer);
        self.push_recv(at, node, peer, prefix, pfx, content, epoch, false);
    }

    /// Data-plane walk over the *current* (possibly mid-convergence) tables.
    pub fn walk(&self, src: AsId, dst_addr: u32) -> Walk {
        walk_fib(self.net, self, &self.failures, self.now, src, dst_addr)
    }
}

impl Fib for DynamicSim<'_> {
    fn lookup(&self, at: AsId, dst_addr: u32) -> Option<FibEntry> {
        // Longest prefix match over the Loc-RIB, resolved through the
        // prefix trie rather than a scan of every installed prefix: the
        // trie yields the covering prefixes most-specific-first, and the
        // first one with a Loc-RIB entry at this node wins. Equal-length
        // covers cannot collide — a trie node holds one value per exact
        // (addr, len) — so the winner (and thus the route) is unique.
        let node = &self.nodes[at.index()];
        let e = self
            .prefix_lpm
            .matches(dst_addr)
            .into_iter()
            .find_map(|(_, id)| node.loc_get(*id))?;
        // The origin's self-route has an empty path.
        if e.path.is_empty() {
            Some(FibEntry::Deliver)
        } else {
            Some(FibEntry::Forward(e.learned_from))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::static_routes::compute_routes;
    use lg_asmap::GraphBuilder;
    use lg_bgp::AsPath;

    fn pfx() -> Prefix {
        Prefix::from_octets(10, 0, 0, 0, 16)
    }

    /// Fig 2 shape (same as the static tests).
    fn fig2() -> Network {
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
        g.provider_customer(b, o);
        g.provider_customer(c, b);
        g.provider_customer(a, b);
        g.provider_customer(d, c);
        g.provider_customer(e, a);
        g.provider_customer(e, d);
        g.provider_customer(f, a);
        Network::new(g.build())
    }

    fn cfg() -> DynamicSimConfig {
        DynamicSimConfig::default()
    }

    #[test]
    fn dynamic_converges_to_static_fixed_point() {
        let net = fig2();
        let spec = AnnouncementSpec::prepended(&net, pfx(), AsId(0), 3);
        let mut sim = DynamicSim::new(&net, cfg());
        sim.announce(&spec);
        sim.run_until_quiescent(Time::from_mins(30));
        assert!(sim.quiescent());
        let static_table = compute_routes(&net, &spec);
        for a in net.graph().ases() {
            if a == AsId(0) {
                continue;
            }
            let dynamic_nh = sim.loc_route(a, pfx()).map(|r| r.learned_from);
            assert_eq!(
                dynamic_nh,
                static_table.next_hop(a),
                "next-hop mismatch at {a}"
            );
        }
    }

    #[test]
    fn dynamic_poisoning_converges_to_static_fixed_point() {
        let net = fig2();
        let mut sim = DynamicSim::new(&net, cfg());
        sim.announce(&AnnouncementSpec::prepended(&net, pfx(), AsId(0), 3));
        sim.run_until_quiescent(Time::from_mins(30));
        // Poison A (=AsId(1)).
        let poisoned = AnnouncementSpec::poisoned(&net, pfx(), AsId(0), &[AsId(1)]);
        sim.announce(&poisoned);
        sim.run_until_quiescent(Time::from_mins(60));
        assert!(sim.quiescent());
        let static_table = compute_routes(&net, &poisoned);
        for a in net.graph().ases() {
            if a == AsId(0) {
                continue;
            }
            assert_eq!(
                sim.loc_route(a, pfx()).map(|r| r.learned_from),
                static_table.next_hop(a),
                "next-hop mismatch at {a}"
            );
        }
        // A itself and captive F lost the route.
        assert!(sim.loc_route(AsId(1), pfx()).is_none());
        assert!(sim.loc_route(AsId(6), pfx()).is_none());
    }

    #[test]
    fn prepended_baseline_gives_instant_reconvergence_for_unaffected() {
        let net = fig2();
        let mut sim = DynamicSim::new(&net, cfg());
        sim.announce(&AnnouncementSpec::prepended(&net, pfx(), AsId(0), 3));
        sim.run_until_quiescent(Time::from_mins(30));
        sim.begin_epoch(pfx());
        sim.announce(&AnnouncementSpec::poisoned(
            &net,
            pfx(),
            AsId(0),
            &[AsId(1)],
        ));
        sim.run_until_quiescent(Time::from_mins(60));
        let m = sim.metrics(pfx());
        // B, C, D were not routing via A: each should pass on exactly one
        // update per neighbor relationship and converge instantly.
        for unaffected in [AsId(2), AsId(3), AsId(4)] {
            assert_eq!(
                m.convergence_ms(unaffected),
                Some(0),
                "{unaffected} should converge instantly"
            );
        }
        // E had to move to its D route; F ends with nothing.
        assert!(m.loc_changes.get(&AsId(5)).copied().unwrap_or(0) >= 1);
    }

    #[test]
    fn metrics_keep_first_and_last_apart_per_as() {
        // The engine books an epoch as one entry per AS and `metrics()`
        // spreads it over the public maps. Pinned on ASes whose first and
        // last differ — a build that let a later send or change overwrite
        // `first_*`, or dropped an AS that only changed routes, fails.
        let net = fig2();
        let mut sim = DynamicSim::new(&net, cfg());
        sim.announce(&AnnouncementSpec::prepended(&net, pfx(), AsId(0), 3));
        sim.run_until_quiescent(Time::from_mins(30));
        let m = sim.metrics(pfx());
        assert_eq!(m.epoch_start, Time::ZERO);
        // E hears the route from A, then the customer route from D, and
        // passes each on: three sends over two ticks, two route changes.
        let e = AsId(5);
        assert_eq!(m.updates_of(e), 3);
        assert_eq!((m.first_sent[&e], m.last_sent[&e]), (Time(98), Time(115)));
        assert_eq!(m.loc_changes[&e], 2);
        assert_eq!(
            (m.first_loc_change[&e], m.last_loc_change[&e]),
            (Time(98), Time(115))
        );
        assert_eq!(m.convergence_ms(e), Some(17));
        // F, a stub behind A, installs the route and has no one to tell.
        let f = AsId(6);
        assert_eq!(m.loc_changes[&f], 1);
        assert_eq!(m.first_loc_change[&f], Time(128));
        assert_eq!(m.updates_of(f), 0);
        assert!(!m.first_sent.contains_key(&f) && !m.last_sent.contains_key(&f));
        // The origin neither sends through the out-queue nor reselects.
        assert!(!m.updates_sent.contains_key(&AsId(0)));
        assert!(!m.loc_changes.contains_key(&AsId(0)));

        // A fresh epoch forgets all of it. B's one route change (the
        // poisoned path replaces the prepended one) comes long before its
        // two MRAI-deferred sends, which go out 600 ms apart.
        sim.begin_epoch(pfx());
        sim.announce(&AnnouncementSpec::poisoned(
            &net,
            pfx(),
            AsId(0),
            &[AsId(1)],
        ));
        sim.run_until_quiescent(Time::from_mins(60));
        let m = sim.metrics(pfx());
        assert_eq!(m.epoch_start, Time(144));
        let b = AsId(2);
        assert_eq!(m.updates_of(b), 2);
        assert_eq!(
            (m.first_sent[&b], m.last_sent[&b]),
            (Time(26_741), Time(27_341))
        );
        assert_eq!(m.loc_changes[&b], 1);
        assert_eq!(m.first_loc_change[&b], Time(185));
        assert_eq!(m.last_loc_change[&b], Time(185));
        assert_eq!(m.updates_of(e), 2);
        assert_eq!(m.global_convergence_ms(), Some(27_428 - 144));
    }

    #[test]
    fn plain_baseline_causes_more_churn_than_prepended() {
        // Compare total updates for the poison transition under the two
        // baselines; the prepended baseline must not be worse.
        let net = fig2();
        let mut total = HashMap::new();
        for (label, baseline) in [
            ("plain", AnnouncementSpec::plain(&net, pfx(), AsId(0))),
            (
                "prepended",
                AnnouncementSpec::prepended(&net, pfx(), AsId(0), 3),
            ),
        ] {
            let mut sim = DynamicSim::new(&net, cfg());
            sim.announce(&baseline);
            sim.run_until_quiescent(Time::from_mins(30));
            sim.begin_epoch(pfx());
            sim.announce(&AnnouncementSpec::poisoned(
                &net,
                pfx(),
                AsId(0),
                &[AsId(1)],
            ));
            sim.run_until_quiescent(Time::from_mins(60));
            let m = sim.metrics(pfx());
            let sum: u64 = m.updates_sent.values().sum();
            total.insert(label, sum);
        }
        assert!(
            total["prepended"] <= total["plain"],
            "prepending should not increase churn: {total:?}"
        );
    }

    #[test]
    fn withdrawal_propagates_and_clears_routes() {
        let net = fig2();
        let mut sim = DynamicSim::new(&net, cfg());
        sim.announce(&AnnouncementSpec::prepended(&net, pfx(), AsId(0), 3));
        sim.run_until_quiescent(Time::from_mins(30));
        assert!(sim.loc_route(AsId(4), pfx()).is_some());
        sim.withdraw(pfx());
        sim.run_until_quiescent(Time::from_mins(60));
        for a in net.graph().ases() {
            assert!(sim.loc_route(a, pfx()).is_none(), "{a} kept a route");
        }
    }

    #[test]
    fn selective_advertising_change_sends_withdrawal_to_dropped_seed() {
        // Origin 3 multihomed to 1 and 2 (like the announce tests).
        let mut g = GraphBuilder::with_ases(4);
        g.provider_customer(AsId(0), AsId(1));
        g.provider_customer(AsId(0), AsId(2));
        g.provider_customer(AsId(1), AsId(3));
        g.provider_customer(AsId(2), AsId(3));
        let net = Network::new(g.build());
        let mut sim = DynamicSim::new(&net, cfg());
        sim.announce(&AnnouncementSpec::plain(&net, pfx(), AsId(3)));
        sim.run_until_quiescent(Time::from_mins(30));
        assert!(sim.loc_route(AsId(2), pfx()).is_some());
        // Now advertise only via AS1: AS2 must lose its direct route and
        // fall back via AS0.
        sim.announce(&AnnouncementSpec::via(
            pfx(),
            AsId(3),
            AsPath::origin_only(AsId(3)),
            &[AsId(1)],
        ));
        sim.run_until_quiescent(Time::from_mins(60));
        let r = sim.loc_route(AsId(2), pfx()).expect("fallback route");
        assert_eq!(r.learned_from, AsId(0));
    }

    #[test]
    fn data_plane_walk_over_dynamic_tables() {
        let net = fig2();
        let mut sim = DynamicSim::new(&net, cfg());
        sim.announce(&AnnouncementSpec::prepended(&net, pfx(), AsId(0), 3));
        sim.run_until_quiescent(Time::from_mins(30));
        let w = sim.walk(AsId(4), pfx().an_addr());
        assert!(w.outcome.delivered());
        assert_eq!(w.as_hops(), vec![AsId(4), AsId(3), AsId(2), AsId(0)]);
    }

    #[test]
    fn mid_convergence_probing_is_possible() {
        let net = fig2();
        let mut sim = DynamicSim::new(&net, cfg());
        sim.announce(&AnnouncementSpec::prepended(&net, pfx(), AsId(0), 3));
        // Step in small increments and probe; packets may be lost before
        // routes settle — that is the measured phenomenon, not an error.
        let mut delivered_at_some_point = false;
        for step in 1..200u64 {
            sim.run_until(Time(step * 100));
            let w = sim.walk(AsId(5), pfx().an_addr());
            if w.outcome.delivered() {
                delivered_at_some_point = true;
                break;
            }
        }
        assert!(delivered_at_some_point);
    }

    #[test]
    fn update_counts_are_modest_for_single_poison() {
        // Table 2 anchors U near 1-2 updates per router per poison.
        let net = fig2();
        let mut sim = DynamicSim::new(&net, cfg());
        sim.announce(&AnnouncementSpec::prepended(&net, pfx(), AsId(0), 3));
        sim.run_until_quiescent(Time::from_mins(30));
        sim.begin_epoch(pfx());
        sim.announce(&AnnouncementSpec::poisoned(
            &net,
            pfx(),
            AsId(0),
            &[AsId(1)],
        ));
        sim.run_until_quiescent(Time::from_mins(60));
        let m = sim.metrics(pfx());
        let all: Vec<AsId> = net.graph().ases().filter(|a| *a != AsId(0)).collect();
        let mean = m.mean_updates(&all);
        assert!(mean > 0.0 && mean < 6.0, "mean updates per AS = {mean}");
    }

    #[test]
    fn control_plane_link_failure_reroutes_and_restores() {
        // Fig 2 world: E (AS5) reaches the prefix via A (AS1); failing the
        // E-A session makes E fall back to D (AS4); restoring brings it
        // back. This is the *visible* failure BGP handles on its own —
        // unlike the silent failures LIFEGUARD exists for.
        let net = fig2();
        let mut sim = DynamicSim::new(&net, cfg());
        sim.announce(&AnnouncementSpec::prepended(&net, pfx(), AsId(0), 3));
        sim.run_until_quiescent(Time::from_mins(30));
        assert_eq!(sim.loc_route(AsId(5), pfx()).unwrap().learned_from, AsId(1));

        sim.fail_link(AsId(5), AsId(1));
        sim.run_until_quiescent(Time::from_mins(90));
        assert!(sim.quiescent());
        assert_eq!(
            sim.loc_route(AsId(5), pfx()).unwrap().learned_from,
            AsId(4),
            "E must fail over to its D route"
        );
        // F (captive of A) is unaffected by the E-A session loss.
        assert_eq!(sim.loc_route(AsId(6), pfx()).unwrap().learned_from, AsId(1));

        sim.restore_link(AsId(5), AsId(1));
        sim.run_until_quiescent(Time::from_mins(180));
        assert_eq!(
            sim.loc_route(AsId(5), pfx()).unwrap().learned_from,
            AsId(1),
            "E returns to its preferred route after restore"
        );
    }

    #[test]
    fn origin_link_failure_withdraws_and_reseeds() {
        // Failing the origin's only provider link withdraws the prefix
        // everywhere; restoring re-seeds it.
        let net = fig2();
        let mut sim = DynamicSim::new(&net, cfg());
        sim.announce(&AnnouncementSpec::prepended(&net, pfx(), AsId(0), 3));
        sim.run_until_quiescent(Time::from_mins(30));
        sim.fail_link(AsId(0), AsId(2)); // O-B, the only egress
        sim.run_until_quiescent(Time::from_mins(90));
        for a in net.graph().ases() {
            if a == AsId(0) {
                continue;
            }
            assert!(sim.loc_route(a, pfx()).is_none(), "{a} kept a route");
        }
        sim.restore_link(AsId(0), AsId(2));
        sim.run_until_quiescent(Time::from_mins(240));
        for a in [AsId(2), AsId(3), AsId(5)] {
            assert!(sim.loc_route(a, pfx()).is_some(), "{a} missing a route");
        }
    }

    #[test]
    fn failed_link_blocks_inflight_and_future_updates() {
        let net = fig2();
        let mut sim = DynamicSim::new(&net, cfg());
        // Fail B-C before announcing: C cannot learn the route from B and
        // instead picks the long way around through its provider D
        // (D-E-A-B-O) — BGP routing around a *visible* failure on its own.
        sim.fail_link(AsId(2), AsId(3));
        sim.announce(&AnnouncementSpec::prepended(&net, pfx(), AsId(0), 3));
        sim.run_until_quiescent(Time::from_mins(60));
        let c_route = sim.loc_route(AsId(3), pfx()).expect("C reroutes via D");
        assert_eq!(c_route.learned_from, AsId(4));
        assert_eq!(sim.loc_route(AsId(4), pfx()).unwrap().learned_from, AsId(5));
        // And the dynamic outcome matches the static fixed point over the
        // graph with that link removed.
        let cut = net.graph().without_link(AsId(2), AsId(3));
        let cut_net = Network::new(cut);
        let static_table = compute_routes(
            &cut_net,
            &AnnouncementSpec::prepended(&cut_net, pfx(), AsId(0), 3),
        );
        for a in net.graph().ases() {
            if a == AsId(0) {
                continue;
            }
            assert_eq!(
                sim.loc_route(a, pfx()).map(|r| r.learned_from),
                static_table.next_hop(a),
                "{a} disagrees with static post-cut table"
            );
        }
    }

    #[test]
    fn announce_at_nonzero_time_stamps_epoch_start() {
        let net = fig2();
        let mut sim = DynamicSim::new(&net, cfg());
        sim.run_until(Time(5_000));
        sim.announce(&AnnouncementSpec::prepended(&net, pfx(), AsId(0), 3));
        assert_eq!(sim.metrics(pfx()).epoch_start, Time(5_000));
        sim.run_until_quiescent(Time::from_mins(30));
        let g = sim.metrics(pfx()).global_convergence_ms().unwrap();
        assert!(
            g < 5_000,
            "convergence must be measured from the announce, not t=0: {g}ms"
        );
    }

    #[test]
    fn stale_inflight_update_dropped_across_fail_restore_cycle() {
        // Chain O(0) -> B(1) -> C(2): B's first update to C is in flight
        // when the B-C session dies and revives. The pre-failure update
        // must not install into the revived session; C converges later via
        // the session's own (MRAI-paced) re-advertisement.
        let mut g = GraphBuilder::with_ases(3);
        g.provider_customer(AsId(1), AsId(0));
        g.provider_customer(AsId(2), AsId(1));
        let net = Network::new(g.build());
        let mut sim = DynamicSim::new(&net, cfg());
        sim.announce(&AnnouncementSpec::prepended(&net, pfx(), AsId(0), 3));
        let t1 = sim.link_latency(AsId(0), AsId(1));
        let t2 = t1 + sim.link_latency(AsId(1), AsId(2));
        // Process O->B; B selects and its update to C departs (arrives t2).
        sim.run_until(Time(t1));
        assert!(sim.loc_route(AsId(1), pfx()).is_some());
        assert!(sim.loc_route(AsId(2), pfx()).is_none());

        sim.fail_link(AsId(1), AsId(2));
        sim.restore_link(AsId(1), AsId(2));

        sim.run_until(Time(t2 + 1));
        assert!(
            sim.loc_route(AsId(2), pfx()).is_none(),
            "update from the dead session incarnation leaked through"
        );
        // Liveness: the revived session re-advertises and C converges.
        sim.run_until_quiescent(Time::from_mins(30));
        assert!(sim.quiescent());
        assert_eq!(sim.loc_route(AsId(2), pfx()).unwrap().learned_from, AsId(1));
    }

    #[test]
    fn restore_link_on_live_session_is_a_noop() {
        // Regression: `restore_link` had no "already up" guard, so on a
        // live session it bumped the session epoch and every UPDATE in
        // flight was dropped at delivery as "from a dead incarnation".
        // Here that is the origin's withdrawal, which the restore's own
        // re-sync does not re-send (the prefix is no longer announced), so
        // B and C kept routing a withdrawn prefix forever.
        let mut g = GraphBuilder::with_ases(3);
        g.provider_customer(AsId(1), AsId(0));
        g.provider_customer(AsId(2), AsId(1));
        let net = Network::new(g.build());
        let mut sim = DynamicSim::new(&net, cfg());
        sim.announce(&AnnouncementSpec::plain(&net, pfx(), AsId(0)));
        sim.run_until_quiescent(Time::from_mins(30));
        assert!(sim.loc_route(AsId(2), pfx()).is_some());

        sim.withdraw(pfx());
        sim.restore_link(AsId(0), AsId(1));
        sim.run_until_quiescent(Time::from_mins(60));
        assert!(sim.quiescent());
        for a in net.graph().ases() {
            assert!(sim.loc_route(a, pfx()).is_none(), "{a} kept a route");
        }
    }

    #[test]
    fn fib_lookup_deterministic_across_rebuilds() {
        // Three nested prefixes covering one address live in each node's
        // Loc-RIB; every lookup must resolve identically (to the most
        // specific prefix) on every rebuild — the trie orders the
        // candidates, the Loc-RIB is only probed.
        let net = fig2();
        let sentinel = Prefix::from_octets(10, 0, 0, 0, 15);
        let production = pfx(); // /16
        let specific = Prefix::from_octets(10, 0, 0, 0, 18);
        let addr = specific.an_addr();
        let mut decisions: HashMap<AsId, Option<FibEntry>> = HashMap::new();
        for round in 0..10 {
            let mut sim = DynamicSim::new(&net, cfg());
            for p in [sentinel, production, specific] {
                sim.announce(&AnnouncementSpec::prepended(&net, p, AsId(0), 3));
            }
            sim.run_until_quiescent(Time::from_mins(60));
            for a in net.graph().ases() {
                let d = sim.lookup(a, addr);
                match decisions.get(&a) {
                    None => {
                        decisions.insert(a, d);
                    }
                    Some(prev) => assert_eq!(*prev, d, "round {round}, AS {a}"),
                }
            }
        }
    }

    #[test]
    fn run_until_never_rewinds_clock() {
        // Regression: `run_until` used to execute `self.now = t`
        // unconditionally, so an interleaved driver asking for an earlier
        // time rewound the clock and corrupted MRAI/metrics bookkeeping.
        let net = fig2();
        let mut sim = DynamicSim::new(&net, cfg());
        sim.run_until(Time(5_000));
        assert_eq!(sim.now(), Time(5_000));
        sim.run_until(Time(1_000));
        assert_eq!(sim.now(), Time(5_000), "clock went backwards");
        sim.run_until(Time(6_000));
        assert_eq!(sim.now(), Time(6_000));
    }

    #[test]
    fn withdraw_reannounce_cycle_converges_under_mrai() {
        // Regression: `withdraw` left the origin's per-(peer, prefix) out
        // state (duplicate suppression + MRAI pacing) behind, which could
        // suppress or mis-time the first update of a re-announcement.
        let net = fig2();
        let mut sim = DynamicSim::new(&net, cfg());
        let baseline = AnnouncementSpec::prepended(&net, pfx(), AsId(0), 3);
        sim.announce(&baseline);
        sim.run_until_quiescent(Time::from_mins(30));
        sim.withdraw(pfx());
        sim.run_until_quiescent(Time::from_mins(60));
        for a in net.graph().ases() {
            assert!(sim.loc_route(a, pfx()).is_none(), "{a} kept a route");
        }
        // Re-announce a *different* shape mid-MRAI-shadow; the fixed point
        // must match static, not be suppressed by stale origin state.
        let poisoned = AnnouncementSpec::poisoned(&net, pfx(), AsId(0), &[AsId(1)]);
        sim.announce(&poisoned);
        sim.run_until_quiescent(Time::from_mins(120));
        assert!(sim.quiescent());
        let static_table = compute_routes(&net, &poisoned);
        for a in net.graph().ases() {
            if a == AsId(0) {
                continue;
            }
            assert_eq!(
                sim.loc_route(a, pfx()).map(|r| r.learned_from),
                static_table.next_hop(a),
                "{a} disagrees after withdraw/re-announce"
            );
        }
        assert!(sim.loc_route(AsId(0), pfx()).is_some(), "origin self-route");
    }

    #[test]
    fn rapid_withdraw_reannounce_does_not_suppress_first_update() {
        // Tighter variant: withdraw and immediately re-announce (no
        // quiescence between), so the origin's stale `last_sent` from the
        // first announcement is the exact path being re-announced.
        let net = fig2();
        let mut sim = DynamicSim::new(&net, cfg());
        let spec = AnnouncementSpec::prepended(&net, pfx(), AsId(0), 3);
        sim.announce(&spec);
        sim.run_until_quiescent(Time::from_mins(30));
        sim.withdraw(pfx());
        sim.announce(&spec);
        sim.run_until_quiescent(Time::from_mins(120));
        assert!(sim.quiescent());
        let static_table = compute_routes(&net, &spec);
        for a in net.graph().ases() {
            if a == AsId(0) {
                continue;
            }
            assert_eq!(
                sim.loc_route(a, pfx()).map(|r| r.learned_from),
                static_table.next_hop(a),
                "{a} disagrees after rapid withdraw/re-announce"
            );
        }
    }

    #[test]
    fn origin_self_route_survives_echoed_announcement() {
        // Origin 3 customer of 1 and 2; 0 above both. Announcing via AS1
        // only makes AS2 learn the route through AS0 and export it back
        // down to its customer 3. The origin rejects the echo (its own ASN
        // is in the path) — and that rejection must not evict the pinned
        // self-route, or the data plane stops delivering at the origin.
        let mut g = GraphBuilder::with_ases(4);
        g.provider_customer(AsId(0), AsId(1));
        g.provider_customer(AsId(0), AsId(2));
        g.provider_customer(AsId(1), AsId(3));
        g.provider_customer(AsId(2), AsId(3));
        let net = Network::new(g.build());
        let mut sim = DynamicSim::new(&net, cfg());
        sim.announce(&AnnouncementSpec::via(
            pfx(),
            AsId(3),
            AsPath::origin_only(AsId(3)),
            &[AsId(1)],
        ));
        sim.run_until_quiescent(Time::from_mins(60));
        assert!(sim.quiescent());
        // AS2 really did learn the long way around (so the echo happened).
        assert_eq!(sim.loc_route(AsId(2), pfx()).unwrap().learned_from, AsId(0));
        let origin_route = sim.loc_route(AsId(3), pfx());
        assert!(
            origin_route.as_ref().is_some_and(|r| r.path.is_empty()),
            "origin self-route evicted by echoed announcement: {origin_route:?}"
        );
        let w = sim.walk(AsId(3), pfx().an_addr());
        assert!(w.outcome.delivered(), "origin cannot deliver to itself");
    }

    #[test]
    fn interning_reuses_paths_across_churn() {
        // Announce/withdraw the same shape repeatedly: the arena must not
        // grow after the first cycle (hash-consing reuses every path).
        let net = fig2();
        let mut sim = DynamicSim::new(&net, cfg());
        let spec = AnnouncementSpec::prepended(&net, pfx(), AsId(0), 3);
        sim.announce(&spec);
        sim.run_until_quiescent(Time::from_mins(30));
        sim.withdraw(pfx());
        sim.run_until_quiescent(Time::from_mins(60));
        // MRAI phase differs between cycles, so early cycles may surface a
        // few new transient paths — but the reachable path set is finite,
        // so growth must saturate rather than track message count.
        let mut counts = Vec::new();
        for _ in 0..4 {
            sim.announce(&spec);
            sim.run_until_quiescent(Time::from_mins(500));
            sim.withdraw(pfx());
            sim.run_until_quiescent(Time::from_mins(560));
            counts.push(sim.interned_paths());
        }
        assert_eq!(
            counts[counts.len() - 2],
            counts[counts.len() - 1],
            "arena still growing after repeated identical churn: {counts:?}"
        );
    }

    #[test]
    fn telemetry_counts_updates_deferrals_and_quiescence() {
        let reg = lg_telemetry::Registry::new();
        let net = fig2();
        let mut sim = DynamicSim::with_registry(&net, cfg(), &reg);
        sim.announce(&AnnouncementSpec::prepended(&net, pfx(), AsId(0), 3));
        sim.run_until_quiescent(Time::from_mins(30));
        // Poison transition: route changes land inside the MRAI shadow of
        // the baseline convergence, so deferrals must occur; A withdraws
        // from its captives.
        sim.announce(&AnnouncementSpec::poisoned(
            &net,
            pfx(),
            AsId(0),
            &[AsId(1)],
        ));
        sim.run_until_quiescent(Time::from_mins(60));
        assert!(sim.quiescent());

        let snap = reg.snapshot();
        let sent = snap.counter("dynamic.updates_sent").unwrap();
        let received = snap.counter("dynamic.updates_received").unwrap();
        assert!(sent > 0);
        assert!(
            received > 0 && received <= sent,
            "sent {sent} recv {received}"
        );
        assert!(snap.counter("dynamic.withdrawals_sent").unwrap() > 0);
        assert!(snap.counter("dynamic.mrai_deferrals").unwrap() > 0);
        assert!(snap.counter("dynamic.loc_rib_changes").unwrap() > 0);
        let q = snap.histogram("dynamic.quiescence_ms").unwrap();
        assert_eq!(q.count, 2, "one quiescence burst per run_until_quiescent");
        assert!(q.sum > 0);

        // The loop's own tallies, published when each run returned. No
        // session failed, so every UPDATE sent was delivered and ran the
        // decision process unless it reached the pinned origin.
        let c = |name: &str| snap.counter(name).unwrap();
        assert_eq!(c("dynamic.events_recv"), sent);
        assert_eq!(c("dynamic.stale_drops"), 0);
        assert!(c("dynamic.decision_runs") > 0 && c("dynamic.decision_runs") <= received);
        assert!(c("dynamic.events_mrai_fire") > 0);
        assert_eq!(c("dynamic.interner_misses"), sim.interned_paths() as u64);
        assert!(c("dynamic.interner_hits") > 0);
        // One message per emission here (a single prefix never packs), yet
        // the codec ran once per attribute-block shape, not per message.
        assert_eq!(c("packing.groups"), sent);
        assert!((1..=8).contains(&c("packing.encodes")));
    }

    #[test]
    fn change_on_the_tick_its_fire_is_due_waits_for_the_fire() {
        // Regression for the same-tick MRAI double send. X (AS1) announces
        // to its provider P (AS2) at t=10, so its timer runs to t=1010;
        // a change at t=500 defers behind a fire due at 1010. Two more
        // UPDATEs, from customers C1 (AS3) and C2 (AS4), arrive at 1010
        // and pop before that fire (lower seq): C2's route wins, then C2
        // withdraws it. The first found the timer expired and sent at once,
        // the second deferred, and the fire then sent again: two
        // announcements to P at 1010. Now both wait, and the fire sends the
        // latest route once.
        let (o, x, p, c1, c2) = (AsId(0), AsId(1), AsId(2), AsId(3), AsId(4));
        let mut g = GraphBuilder::with_ases(6);
        g.provider_customer(p, x);
        g.provider_customer(x, c1);
        g.provider_customer(x, c2);
        let net = Network::new(g.build());
        let mut sim = DynamicSim::new(
            &net,
            DynamicSimConfig {
                mrai_ms: 1_000,
                mrai_jitter: false,
                ..cfg()
            },
        );
        sim.record_updates(true);
        sim.begin_epoch(pfx());
        let prefix = PrefixId::of(pfx());
        for (at, from, hops) in [
            (10, c1, Some(vec![c1, o])),
            (500, c1, Some(vec![c1, AsId(5), o])),
            (1_010, c2, Some(vec![c2, o])),
            (1_010, c2, None),
        ] {
            let path = hops.map(|h| sim.paths.intern(&AsPath::from_hops(h)));
            let msg = Update {
                from,
                to: x,
                prefix,
                path,
                epoch: 0,
            };
            sim.push(Time(at), msg);
        }
        sim.run_until_quiescent(Time::from_mins(1));
        let to_p: Vec<(Time, Vec<AsId>)> = sim
            .update_log()
            .iter()
            .filter(|r| (r.from, r.to) == (x, p))
            .map(|r| (r.at, r.path.clone().expect("no withdrawals here")))
            .collect();
        assert_eq!(
            to_p,
            vec![
                (Time(10), vec![x, c1, o]),
                (Time(1_010), vec![x, c1, AsId(5), o])
            ],
            "one announcement per MRAI window, carrying the latest route"
        );
    }

    #[test]
    fn mrai_jitter_is_deterministic() {
        let net = fig2();
        let sim = DynamicSim::new(&net, cfg());
        let a = sim.mrai_interval(AsId(1), AsId(2));
        let b = sim.mrai_interval(AsId(1), AsId(2));
        assert_eq!(a, b);
        assert!((22_500..=30_000).contains(&a));
    }

    #[test]
    fn ring_peer_slots_are_prepopulated_from_adjacency() {
        // Regression for the O(degree²) lazy-slot setup: slots used to be
        // allocated on first contact via sorted-vec insert, so a
        // thousand-customer hub paid a quadratic memmove bill during
        // warm-up. Slots now exist (in adjacency order) before any traffic
        // — on the old code `peer_idx` starts empty and this fails.
        let net = Network::new(lg_asmap::gen::TopologyConfig::medium(13).generate());
        let mut out = OutStore::new(&net);
        for a in net.graph().ases() {
            let node = &out.nodes[a.index()];
            assert_eq!(node.peer_idx.len(), net.graph().degree(a), "slots for {a}");
            assert!(
                node.peer_idx.windows(2).all(|w| w[0].0 < w[1].0),
                "peer_idx must stay sorted for binary search"
            );
        }
        // Looking up every neighbor of the busiest node allocates nothing.
        let hub = net
            .graph()
            .ases()
            .max_by_key(|a| net.graph().degree(*a))
            .unwrap();
        let before = out.nodes[hub.index()].peers.len();
        for &(p, _) in net.graph().neighbors(hub) {
            OutStore::peer_slot(&mut out.nodes[hub.index()], p);
        }
        assert_eq!(out.nodes[hub.index()].peers.len(), before);
    }
}
