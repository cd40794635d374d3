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
//! carries a [`PathId`] (one word, `Copy`) instead of an owned `AsPath`,
//! and the announced-by prepend on propagation is an O(1) arena node
//! instead of a Vec clone. Owned paths are materialized only on demand
//! (the public [`DynamicSim::loc_route`] view builds its [`Route`] per
//! call).
//!
//! State is laid out on the CSR adjacency row. A node's neighbors are
//! addressed by *slot*, their index in its row (which is neighbor-id
//! order), and [`DynamicSim::new`] builds the map from a sender's slot to
//! the receiver-side slot once, for every directed adjacency. An UPDATE
//! carries the receiver and the sender's slot there, so delivery reads the
//! relationship and the session epoch by index. Each node keeps one record
//! per prefix it holds state for (`rib.rs`): the Loc-RIB entry and the
//! node's metrics for the prefix's current epoch. The record's per-slot
//! state, the Adj-RIB-In (one candidate per slot) and the sending state
//! (one per slot), sits in two arrays the node owns, `degree` entries per
//! record, so a record costs no allocation of its own. A received UPDATE
//! is an array store and a scan of the candidate slice; a changed
//! selection walks the row and the record's out slots side by side.
//!
//! Prefix count is a first-class scaling axis: prefixes are interned
//! process-wide into dense [`PrefixId`]s ([`lg_bgp::PrefixInterner`],
//! mirroring the path interner), and a node finds a record through an
//! id-sorted `(prefix, index)` vec (O(log p) per probe) while the records
//! and their slots stay in arrival order, so an insert moves no other
//! record's slots. Records exist only for the (node, prefix) pairs
//! that hold state, so memory scales with routes held, not with nodes ×
//! prefixes, and all prefixes share the one path arena. Id values come
//! from process-global interning order and never influence observable
//! order: everything that feeds the update log or event order sorts by
//! resolved [`Prefix`] (see `tests/multi_prefix.rs`).
//!
//! The per-UPDATE path hashes nothing with SipHash and allocates nothing
//! once a record exists. The rule that keeps that safe: a container the
//! event path *probes* (records, per-prefix slots) is an id-sorted vec and
//! is never iterated for output; a container that *is* iterated for output
//! (`specs`, `seed_ids`) keeps std's per-instance-random hasher — so a
//! missing sort shows up as run-to-run divergence in
//! `tests/multi_prefix.rs` — and is not probed per event. DESIGN.md,
//! "Dynamic engine hot path".
//!
//! Every pending event waits on one queue, a single-level [`TimerWheel`]
//! with one FIFO bucket per millisecond: UPDATEs in flight, and MRAI fires
//! whose payload names the `(node, slot, prefix)` (the fire re-derives what
//! to send from the Loc-RIB, so nothing about the deferred content is
//! stored). Both draw their sequence numbers from one counter as they are
//! queued, so each bucket's FIFO order is its `seq` order and the queue
//! pops in exactly a binary heap's `(time, seq)` order.
//! `tests/dynamic_churn_invariants.rs` pins the MRAI lower bound,
//! quiescence and run-to-run identity over randomized churn, and
//! `tests/dynamic_golden.rs` the exact update stream across commits; the
//! wheel's agreement with a binary heap is tested at its own interface
//! (`time.rs`).
//!
//! The engine also accounts batched wire UPDATEs — same-tick, same-peer,
//! same-attribute emissions coalesced into multi-prefix messages (see
//! `packing.rs`). Packing only observes the emission stream: it sees no
//! engine state mutably and never feeds back into event processing.
//!
//! What the engine counts per event — UPDATEs sent and received,
//! withdrawals, MRAI deferrals, Loc-RIB changes, the packer's wire
//! counters, the event loop's own tallies — it counts in plain integers
//! (`LoopTally`) and adds to the registry at the end of every public call
//! that can move them: `announce`, `withdraw`, `fail_link`,
//! `restore_link` and `run_until*`. Between those calls the registry reads
//! exactly what one atomic increment per event would have given, without
//! an atomic on the event path.

mod rib;

use crate::announce::AnnouncementSpec;
use crate::dataplane::{walk_fib, Fib, FibEntry, Walk};
use crate::failures::FailureSet;
use crate::network::Network;
use crate::packing::UpdatePacker;
use crate::time::{Time, TimerWheel};
use lg_asmap::{AsId, Relationship};
use lg_bgp::{PathId, PathInterner, Prefix, PrefixId, PrefixTrie, Route};
use lg_telemetry::{Counter, Gauge, Histogram, Registry};
use rib::{best, Cand, IdRoute, Node};
use std::collections::HashMap;

/// Registry handles the engine reports into, resolved once at
/// construction. These aggregate across every `DynamicSim` in the
/// process; the per-prefix [`PrefixMetrics`] remain the exact per-run
/// measurement the paper's tables are built from.
#[derive(Clone, Debug)]
struct DynamicTelemetry {
    /// The [`LoopTally`] counters, by the same names.
    updates_sent: Counter,
    updates_received: Counter,
    withdrawals_sent: Counter,
    mrai_deferrals: Counter,
    loc_rib_changes: Counter,
    events_recv: Counter,
    events_mrai_fire: Counter,
    stale_drops: Counter,
    decision_runs: Counter,
    updates_packed: Counter,
    wire_updates: Counter,
    wire_bytes: Counter,
    wire_bytes_unpacked: Counter,
    packing_groups: Counter,
    packing_encodes: Counter,
    /// Path-interner lookups that found the path already interned, and
    /// those that allocated an arena node.
    interner_hits: Counter,
    interner_misses: Counter,
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
    /// The most events any one engine has had pending at once: UPDATEs in
    /// flight and armed MRAI timers.
    queue_peak: Gauge,
}

impl DynamicTelemetry {
    fn from_registry(r: &Registry) -> Self {
        DynamicTelemetry {
            updates_sent: r.counter("dynamic.updates_sent"),
            updates_received: r.counter("dynamic.updates_received"),
            withdrawals_sent: r.counter("dynamic.withdrawals_sent"),
            mrai_deferrals: r.counter("dynamic.mrai_deferrals"),
            loc_rib_changes: r.counter("dynamic.loc_rib_changes"),
            events_recv: r.counter("dynamic.events_recv"),
            events_mrai_fire: r.counter("dynamic.events_mrai_fire"),
            stale_drops: r.counter("dynamic.stale_drops"),
            decision_runs: r.counter("dynamic.decision_runs"),
            updates_packed: r.counter("dynamic.updates_packed"),
            wire_updates: r.counter("dynamic.wire_updates"),
            wire_bytes: r.counter("dynamic.wire_bytes"),
            wire_bytes_unpacked: r.counter("dynamic.wire_bytes_unpacked"),
            packing_groups: r.counter("packing.groups"),
            packing_encodes: r.counter("packing.encodes"),
            interner_hits: r.counter("dynamic.interner_hits"),
            interner_misses: r.counter("dynamic.interner_misses"),
            quiescence_ms: r.histogram("dynamic.quiescence_ms"),
            filtered_path_len: r.counter("policy.filtered_path_len"),
            filtered_poisoned: r.counter("policy.filtered_poisoned"),
            filtered_reserved: r.counter("policy.filtered_reserved"),
            queue_peak: r.gauge("dynamic.queue_peak"),
        }
    }
}

/// What the engine and its packer did since they last reported, kept as
/// plain integers (an atomic add per UPDATE per counter would cost more
/// than the counts are worth) and added to the registry at the end of every
/// public call that can move them (`DynamicSim::publish`).
#[derive(Clone, Default)]
pub(crate) struct LoopTally {
    /// UPDATE messages put on the wire (announcements + withdrawals).
    updates_sent: u64,
    /// UPDATE messages delivered and processed (dead-session drops
    /// excluded).
    updates_received: u64,
    /// Withdrawals among the messages sent.
    withdrawals_sent: u64,
    /// Announcements that could not be sent immediately because the
    /// per-(peer, prefix) MRAI timer was still running or its fire was
    /// pending.
    mrai_deferrals: u64,
    /// Best-route (Loc-RIB) changes across all nodes.
    loc_rib_changes: u64,
    /// `Recv` events popped, delivered or not.
    events_recv: u64,
    /// MRAI timers fired.
    events_mrai_fire: u64,
    /// `Recv` events dropped at delivery: session down, or sent by a dead
    /// session incarnation.
    stale_drops: u64,
    /// Best-path selections run (one per delivered UPDATE or session
    /// reset at a non-origin AS).
    decision_runs: u64,
    /// Emissions coalesced into an already-open packing group (logical
    /// updates saved by multi-prefix UPDATE packing; see `packing.rs`).
    pub(crate) updates_packed: u64,
    /// Wire UPDATE messages, after packing and chunking.
    pub(crate) wire_updates: u64,
    /// Encoded bytes of those packed messages.
    pub(crate) wire_bytes: u64,
    /// Bytes the same emission stream would cost unpacked (one prefix per
    /// message) — the baseline packing savings are measured against.
    pub(crate) wire_bytes_unpacked: u64,
    /// Packing groups opened.
    pub(crate) groups: u64,
    /// Real codec runs: one per attribute-block shape.
    pub(crate) encodes: u64,
    /// The path interner's running hit and node counts as last reported.
    interner_reported: [u64; 2],
}

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct DynamicSimConfig {
    /// Base MRAI interval in ms (RFC 4271 suggests 30 s for eBGP). The
    /// event queue keeps one bucket (8 bytes) per millisecond of the longer
    /// of this and the longest delivery delay, so this also sizes that
    /// queue: 256 KB at the default 30 s.
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

/// A BGP UPDATE in flight to `to`, from the neighbor at `slot` in `to`'s
/// adjacency row; `path = None` withdraws. The path is interned in the
/// simulation's [`PathInterner`]. `epoch` is the sending session's epoch
/// (see [`DynamicSim::fail_link`]): a message from a session incarnation
/// that has since died is dropped at delivery, even if a *new* session
/// over the same link is up by then.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Update {
    to: AsId,
    slot: u32,
    prefix: PrefixId,
    epoch: u32,
    path: Option<PathId>,
}

/// The `(node, slot, prefix)` whose MRAI timer fired. The fire re-derives
/// what to send, so nothing else is needed.
#[derive(Clone, Copy, Debug)]
struct FireKey {
    node: u32,
    slot: u32,
    prefix: PrefixId,
}

/// What the event queue holds: an UPDATE to deliver, or an MRAI timer to
/// fire.
#[derive(Clone, Copy, Debug)]
enum Event {
    Recv(Update),
    Fire(FireKey),
}

/// May the holder of `route` advertise it to `peer`, to whom it relates as
/// `rel_to_peer`? Split horizon (never echo a route back to the neighbor
/// it came from) and Gao-Rexford export.
fn exports_to(route: &IdRoute, peer: AsId, rel_to_peer: Relationship) -> bool {
    route.learned_from != peer && route.rel.exportable_to(rel_to_peer)
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
    /// When the current measurement epoch started.
    epoch_start: Time,
    /// The current epoch's generation. A record's metrics count toward
    /// the prefix only while they carry this stamp, so starting an epoch
    /// is one increment, not a walk over every node.
    gen: u32,
}

/// The event-driven simulator.
pub struct DynamicSim<'n> {
    net: &'n Network,
    cfg: DynamicSimConfig,
    now: Time,
    seq: u64,
    /// Everything pending, in `(time, seq)` order: UPDATEs in flight and
    /// armed MRAI timers.
    queue: TimerWheel<Event>,
    nodes: Vec<Node>,
    /// Where each node's row starts in the flat per-adjacency arrays: the
    /// adjacency from `a` to its neighbor at slot `i` is index
    /// `row_start[a] + i`.
    row_start: Vec<u32>,
    /// Per directed adjacency, the sender's slot in the receiver's row.
    /// The network is borrowed for the engine's lifetime, so rows cannot
    /// change under it.
    rev_slot: Vec<u32>,
    /// Session incarnation per directed adjacency, kept equal in both
    /// directions and bumped on both [`Self::fail_link`] and
    /// [`Self::restore_link`], so updates in flight across a fail/restore
    /// cycle cannot install stale pre-failure routes. Its parity is also
    /// the session's state ([`Self::session_down`]): the one record of
    /// control-plane-visible link failures.
    epochs: Vec<u32>,
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
    /// Failures consulted by [`DynamicSim::walk`].
    pub failures: FailureSet,
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
        let g = net.graph();
        let mut row_start = Vec::with_capacity(net.len() + 1);
        let mut edges = 0u32;
        for a in g.ases() {
            row_start.push(edges);
            edges += g.degree(a) as u32;
        }
        row_start.push(edges);
        let mut rev_slot = Vec::with_capacity(edges as usize);
        for a in g.ases() {
            for &(b, _) in g.neighbors(a) {
                let back = g
                    .neighbors(b)
                    .binary_search_by_key(&a, |&(n, _)| n)
                    .expect("adjacency is symmetric");
                rev_slot.push(back as u32);
            }
        }
        DynamicSim {
            net,
            cfg,
            now: Time::ZERO,
            seq: 0,
            queue: TimerWheel::new(),
            nodes: g.ases().map(|a| Node::new(g.degree(a))).collect(),
            row_start,
            rev_slot,
            epochs: vec![0; edges as usize],
            paths: PathInterner::new(),
            specs: HashMap::new(),
            seed_ids: HashMap::new(),
            prefixes: Vec::new(),
            prefix_lpm: PrefixTrie::new(),
            failures: FailureSet::none(),
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
    fn session_down(epoch: u32) -> bool {
        epoch % 2 == 1
    }

    /// Flat index of the adjacency from `node` to its neighbor at `slot`.
    fn edge(&self, node: AsId, slot: usize) -> usize {
        self.row_start[node.index()] as usize + slot
    }

    /// `peer`'s slot in `node`'s row, if they are adjacent.
    fn slot_of_peer(&self, node: AsId, peer: AsId) -> Option<usize> {
        self.net
            .graph()
            .neighbors(node)
            .binary_search_by_key(&peer, |&(n, _)| n)
            .ok()
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
                    epoch_start: self.now,
                    gen: 0,
                };
                self.prefixes.insert(i, (id, slot));
                i
            }
        }
    }

    /// Index of `node`'s record for `prefix`, made on first use.
    fn rec_index(&mut self, node: AsId, prefix: PrefixId) -> usize {
        self.nodes[node.index()].index_or_insert(prefix)
    }

    /// Tear down the BGP session over link `a`-`b` (a *control-plane
    /// visible* failure, unlike the silent ones in [`Self::failures`]):
    /// both ends drop everything learned from the other and propagate
    /// withdrawals/alternatives. A no-op when `a` and `b` are not adjacent
    /// or the session is already down.
    pub fn fail_link(&mut self, a: AsId, b: AsId) {
        let Some(i) = self.slot_of_peer(a, b) else {
            return;
        };
        let ab = self.edge(a, i);
        let j = self.rev_slot[ab] as usize;
        let ba = self.edge(b, j);
        if Self::session_down(self.epochs[ab]) {
            return;
        }
        self.epochs[ab] += 1;
        self.epochs[ba] += 1;
        for (node, slot) in [(a, i), (b, j)] {
            let n = &mut self.nodes[node.index()];
            // Drop what the peer advertised, keeping the records it held
            // a route in.
            let mut affected: Vec<(PrefixId, usize)> = n.records().collect();
            affected
                .retain(|&(_, ri)| std::mem::replace(n.cand_mut(ri, slot), Cand::NONE).is_some());
            // Id order is process-global allocation order and must not
            // steer the reselection cascade (it feeds the update log).
            affected.sort_by_cached_key(|(id, _)| id.resolve());
            for (prefix, ri) in affected {
                self.reselect(node, ri, prefix);
            }
        }
        self.publish();
    }

    /// Restore the session over link `a`-`b`; both ends re-advertise their
    /// current best routes (and the origin re-seeds if it sits on the
    /// link). A no-op when `a` and `b` are not adjacent or the session is
    /// up, as [`Self::fail_link`] is on one that is down.
    pub fn restore_link(&mut self, a: AsId, b: AsId) {
        let Some(i) = self.slot_of_peer(a, b) else {
            return;
        };
        let ab = self.edge(a, i);
        let j = self.rev_slot[ab] as usize;
        let ba = self.edge(b, j);
        if !Self::session_down(self.epochs[ab]) {
            return;
        }
        // A fresh session incarnation: anything still in flight from before
        // the failure must not be delivered into the revived session.
        self.epochs[ab] += 1;
        self.epochs[ba] += 1;
        let epoch = self.epochs[ab];
        // Clear duplicate-suppression state for the revived sessions so the
        // current routes get re-sent, then push them out. `specs` is a
        // HashMap, and with many prefixes in play its iteration order is
        // per-instance random — sort by prefix value so the re-send order
        // (which feeds the update log) is a function of the schedule, not
        // of hasher seeds or id allocation order.
        let mut prefixes: Vec<PrefixId> = self.specs.keys().copied().collect();
        prefixes.sort_by_cached_key(|id| id.resolve());
        for (node, slot) in [(a, i), (b, j)] {
            for &prefix in &prefixes {
                let ri = self.rec_index(node, prefix);
                self.nodes[node.index()].out_mut(ri, slot).last_sent = PathId::EMPTY;
                let pslot = self.slot_of(prefix);
                let desired = self.desired_content(node, slot, prefix, pslot);
                self.schedule_update(node, ri, slot, prefix, pslot, desired, epoch);
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
            let slot = if origin == a { i } else { j };
            let at = self.now + self.link_latency(origin, nbr);
            self.push_recv(at, origin, slot, prefix, pfx, Some(id), epoch, true);
        }
        self.publish();
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Metrics for `prefix` (empty if never announced).
    pub fn metrics(&self, prefix: Prefix) -> PrefixMetrics {
        // `lookup`, not `of`: a metrics query for a never-seen prefix must
        // not grow the process-wide prefix table.
        let Some((id, slot)) = PrefixId::lookup(prefix).and_then(|id| {
            let i = self.prefixes.binary_search_by_key(&id, |&(p, _)| p).ok()?;
            Some((id, &self.prefixes[i].1))
        }) else {
            return PrefixMetrics::default();
        };
        let mut m = PrefixMetrics {
            epoch_start: slot.epoch_start,
            ..PrefixMetrics::default()
        };
        for (a, node) in self.nodes.iter().enumerate() {
            let Some(am) = node.rec(id).and_then(|r| r.metrics(slot.gen)) else {
                continue;
            };
            let a = AsId(a as u32);
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

    /// Start a fresh measurement epoch for `prefix` at the current time.
    pub fn begin_epoch(&mut self, prefix: Prefix) {
        let i = self.slot_or_insert(PrefixId::of(prefix), prefix);
        let slot = &mut self.prefixes[i].1;
        slot.epoch_start = self.now;
        slot.gen += 1;
    }

    /// The route `a` currently selects for `prefix`, materialized from the
    /// interned Loc-RIB entry (built per call; the engine keeps no owned
    /// routes).
    pub fn loc_route(&self, a: AsId, prefix: Prefix) -> Option<Route> {
        let id = PrefixId::lookup(prefix)?;
        let e = self.nodes[a.index()].rec(id)?.loc?;
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
        let held = |n: &Node| n.recs.iter().filter(|r| r.loc.is_some()).count();
        self.nodes.iter().map(held).sum()
    }

    /// Total Adj-RIB-In (prefix, neighbor) routes held across all nodes.
    pub fn adj_entries(&self) -> usize {
        let held = |n: &Node| n.cands.iter().filter(|c| c.is_some()).count();
        self.nodes.iter().map(held).sum()
    }

    /// Total per-(peer, prefix) sending-state slots allocated across all
    /// nodes: one per neighbor for every (node, prefix) record.
    pub fn out_state_entries(&self) -> usize {
        self.nodes.iter().map(|n| n.out.len()).sum()
    }

    /// Events currently pending (diagnostic): UPDATEs in flight and armed
    /// MRAI timers.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    fn push(&mut self, at: Time, msg: Update) {
        // Every enqueued update is on the wire (whether it will be
        // delivered or die with its session), so this is the one spot that
        // sees them all — origin seeds, propagation, and withdrawals.
        self.tally.updates_sent += 1;
        if msg.path.is_none() {
            self.tally.withdrawals_sent += 1;
        }
        self.seq += 1;
        self.queue.insert(at, self.seq, Event::Recv(msg));
    }

    /// Put an UPDATE from `from` to its neighbor at `slot` on the wire:
    /// enqueue its delivery, record it when the update log is on, and
    /// feed the packing accountant. `pfx` is what `prefix` resolves to
    /// (the caller has it at hand). `seeded` marks origin-driven traffic
    /// that bypasses the MRAI machinery.
    #[allow(clippy::too_many_arguments)]
    fn push_recv(
        &mut self,
        at: Time,
        from: AsId,
        slot: usize,
        prefix: PrefixId,
        pfx: Prefix,
        path: Option<PathId>,
        epoch: u32,
        seeded: bool,
    ) {
        let to = self.net.graph().neighbors(from)[slot].0;
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
        let edge = self.edge(from, slot);
        let content = path.unwrap_or(PathId::EMPTY);
        let (now, paths) = (self.now, &self.paths);
        let tally = &mut self.tally;
        self.packer
            .observe(now, edge as u32, from, pfx, content, paths, tally);
        let slot = self.rev_slot[edge];
        self.push(
            at,
            Update {
                to,
                slot,
                prefix,
                epoch,
                path,
            },
        );
    }

    /// What every `run_until*` call does last: close the open packing
    /// groups (a later send, even in this tick, starts a new message) and
    /// publish.
    fn finish_run(&mut self) {
        self.packer.flush();
        self.publish();
    }

    /// Add the tallies to the registry and zero them. Every public call
    /// that can move a tally ends here, so the registry is exact whenever
    /// the engine is not inside one.
    fn publish(&mut self) {
        let (t, tele) = (&mut self.tally, &self.tele);
        let counts = [
            (&mut t.updates_sent, &tele.updates_sent),
            (&mut t.updates_received, &tele.updates_received),
            (&mut t.withdrawals_sent, &tele.withdrawals_sent),
            (&mut t.mrai_deferrals, &tele.mrai_deferrals),
            (&mut t.loc_rib_changes, &tele.loc_rib_changes),
            (&mut t.events_recv, &tele.events_recv),
            (&mut t.events_mrai_fire, &tele.events_mrai_fire),
            (&mut t.stale_drops, &tele.stale_drops),
            (&mut t.decision_runs, &tele.decision_runs),
            (&mut t.updates_packed, &tele.updates_packed),
            (&mut t.wire_updates, &tele.wire_updates),
            (&mut t.wire_bytes, &tele.wire_bytes),
            (&mut t.wire_bytes_unpacked, &tele.wire_bytes_unpacked),
            (&mut t.groups, &tele.packing_groups),
            (&mut t.encodes, &tele.packing_encodes),
        ];
        for (n, counter) in counts {
            counter.add(std::mem::take(n));
        }
        // The interner keeps running totals; a miss is what allocates an
        // arena node.
        let totals = [self.paths.hits(), self.paths.node_count() as u64];
        let counters = [&tele.interner_hits, &tele.interner_misses];
        for ((total, reported), counter) in totals
            .into_iter()
            .zip(&mut t.interner_reported)
            .zip(counters)
        {
            counter.add(total - *reported);
            *reported = total;
        }
        tele.queue_peak.raise_to(self.queue.peak() as u64);
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
        let (origin, pid) = (spec.origin, PrefixId::of(spec.prefix));
        self.prefix_lpm.insert(spec.prefix, pid);
        let old = self.specs.insert(pid, spec.clone());
        // First sight of this prefix starts its measurement epoch *now* —
        // an epoch left at `Time::ZERO` would silently inflate
        // `global_convergence_ms` for t>0 announces.
        let slot = self.slot_or_insert(pid, spec.prefix);
        self.prefixes[slot].1.origin = Some(origin);

        // Origin's own loc entry so the data plane delivers at the origin.
        // While the prefix is announced this entry is pinned: `reselect`
        // never replaces or removes it (a neighbor echoing the prefix back
        // gets rejected by loop detection, and that rejection must not
        // evict the self-route).
        let ri = self.rec_index(origin, pid);
        self.nodes[origin.index()].recs[ri].loc = Some(IdRoute {
            path: PathId::EMPTY,
            learned_from: origin,
            rel: Relationship::Customer,
        });

        let seeds: Vec<(AsId, PathId)> = spec
            .seeds
            .iter()
            .map(|(nbr, path)| (*nbr, self.paths.intern(path)))
            .collect();
        self.seed_ids.insert(pid, seeds.clone());
        // Validation put every seed at a neighbor; `dropped` is what the
        // old spec seeded and this one does not.
        let dropped: Vec<AsId> = old
            .iter()
            .flat_map(|o| &o.seeds)
            .map(|(nbr, _)| *nbr)
            .filter(|nbr| !seeds.iter().any(|(n, _)| n == nbr))
            .collect();
        let sends = seeds
            .iter()
            .map(|(nbr, id)| (*nbr, Some(*id)))
            .chain(dropped.into_iter().map(|nbr| (nbr, None)));
        for (nbr, content) in sends {
            let s = self.slot_of_peer(origin, nbr).expect("validated seed");
            let at = self.now + self.link_latency(origin, nbr);
            let epoch = self.epochs[self.edge(origin, s)];
            self.push_recv(at, origin, s, pid, spec.prefix, content, epoch, true);
            // Record the send in the origin's machinery state so duplicate
            // suppression and later MRAI flushes see what was actually
            // advertised.
            self.nodes[origin.index()].out_mut(ri, s).last_sent = content.unwrap_or(PathId::EMPTY);
        }
        self.publish();
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
        // Drop the origin's self-route and reset its sending state: stale
        // `last_sent` would suppress the first update of a later
        // re-announcement, and a stale `mrai_ready_at` / pending fire would
        // mis-time it. Resetting in place is what a fresh record would hold.
        // (Timers still armed for the reset state are harmless: they fire
        // against a default slot whose desired content is already None.)
        let origin = spec.origin;
        let ri = self.rec_index(origin, pid);
        let n = &mut self.nodes[origin.index()];
        n.recs[ri].loc = None;
        n.out_of(ri).fill(rib::OutSlot::default());
        for (nbr, _) in &spec.seeds {
            let s = self.slot_of_peer(origin, *nbr).expect("validated seed");
            let at = self.now + self.link_latency(origin, *nbr);
            let epoch = self.epochs[self.edge(origin, s)];
            self.push_recv(at, origin, s, pid, prefix, None, epoch, true);
        }
        self.publish();
    }

    /// Process a popped event (caller has set `self.now`).
    fn step(&mut self, ev: Event) {
        match ev {
            Event::Recv(msg) => self.handle_recv(msg),
            Event::Fire(key) => self.handle_mrai_fire(key),
        }
    }

    /// Process events until the queue drains or `deadline` passes. Returns
    /// the time of the last processed event.
    pub fn run_until_quiescent(&mut self, deadline: Time) -> Time {
        let _tspan = lg_telemetry::trace::span("dynamic.quiescence");
        let start = self.now;
        let mut last = self.now;
        let mut processed = false;
        while let Some((at, _, ev)) = self.queue.pop_due(deadline) {
            self.now = at;
            last = at;
            processed = true;
            self.step(ev);
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
        while let Some((at, _, ev)) = self.queue.pop_due(t) {
            self.now = at;
            self.step(ev);
        }
        self.finish_run();
        self.now = self.now.max(t);
    }

    /// True when no events are pending.
    pub fn quiescent(&self) -> bool {
        self.queue.is_empty()
    }

    /// An MRAI timer expired: clear the pending flag and send whatever the
    /// deferred update's content is *now* — the route may have changed (or
    /// become a duplicate) since the deferral.
    fn handle_mrai_fire(&mut self, key: FireKey) {
        self.tally.events_mrai_fire += 1;
        lg_telemetry::trace::instant_value("dynamic.mrai_fire", self.now.millis());
        let (node, slot, prefix) = (AsId(key.node), key.slot as usize, key.prefix);
        let pslot = self.slot_of(prefix);
        let desired = self.desired_content(node, slot, prefix, pslot);
        let ri = self.rec_index(node, prefix);
        let peer = self.net.graph().neighbors(node)[slot].0;
        let st = self.nodes[node.index()].out_mut(ri, slot);
        st.fire_pending = false;
        if st.already_sent(desired) {
            return;
        }
        let interval = Self::mrai_interval_under(&self.cfg, node, peer);
        st.mark_sent(desired, self.now, interval);
        let epoch = self.epochs[self.edge(node, slot)];
        self.emit(node, ri, slot, prefix, pslot, desired, epoch);
    }

    fn handle_recv(&mut self, msg: Update) {
        let Update {
            to,
            slot,
            prefix,
            epoch,
            path,
        } = msg;
        let slot = slot as usize;
        self.tally.events_recv += 1;
        let live = self.epochs[self.edge(to, slot)];
        if Self::session_down(live) || epoch != live {
            // The session is down, or this was sent by a dead session
            // incarnation: the link failed (and possibly revived) while
            // the update was in flight. A real TCP session would have
            // lost it with the connection.
            self.tally.stale_drops += 1;
            return;
        }
        self.tally.updates_received += 1;
        let net = self.net;
        let rel = net.graph().neighbors(to)[slot].1;
        let cand = match path {
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
                // A rejected update is an implicit withdrawal: it replaced
                // whatever the neighbor previously advertised.
                match rejected {
                    None => Cand::new(p, self.paths.len(p)),
                    Some(_) => Cand::NONE,
                }
            }
            None => Cand::NONE,
        };
        let ri = self.rec_index(to, prefix);
        *self.nodes[to.index()].cand_mut(ri, slot) = cand;
        self.reselect(to, ri, prefix);
    }

    /// Re-run the decision process at `at` (whose record for `prefix` is
    /// at index `ri`) and, when the selection changed, offer the new route
    /// (or its loss) to every neighbor. The adjacency row is walked in
    /// place beside the record's out slots: it hands over each neighbor's
    /// relationship and session epoch, and `at` prepended to the new path
    /// is interned once, at the first neighbor the route may be exported
    /// to, instead of being looked up again for each.
    fn reselect(&mut self, at: AsId, ri: usize, prefix: PrefixId) {
        let pslot = self.slot_of(prefix);
        // The origin's self-route is pinned while the prefix is announced:
        // a neighbor's echoed-back announcement (rejected by loop
        // detection, becoming an implicit withdrawal) must not evict it.
        if self.prefixes[pslot].1.origin == Some(at) {
            return;
        }
        self.tally.decision_runs += 1;
        let net = self.net;
        let row = net.graph().neighbors(at);
        let gen = self.prefixes[pslot].1.gen;
        let n = &mut self.nodes[at.index()];
        let picked = best(n.cands_of(ri), row);
        let rec = &mut n.recs[ri];
        if rec.loc == picked {
            return;
        }
        rec.loc = picked;
        self.tally.loc_rib_changes += 1;
        let m = rec.metrics_mut(gen);
        if m.loc_changes == 0 {
            m.first_loc_change = self.now;
        }
        m.loc_changes += 1;
        m.last_loc_change = self.now;

        let base = self.row_start[at.index()] as usize;
        let mut announced: Option<PathId> = None;
        for (i, &(peer, rel_to_peer)) in row.iter().enumerate() {
            let epoch = self.epochs[base + i];
            if Self::session_down(epoch) {
                continue;
            }
            let desired = match picked {
                Some(e) if exports_to(&e, peer, rel_to_peer) => {
                    Some(*announced.get_or_insert_with(|| self.paths.prepend(e.path, at)))
                }
                _ => None,
            };
            self.schedule_update(at, ri, i, prefix, pslot, desired, epoch);
        }
    }

    /// What `node` would advertise to its neighbor at `slot` for `prefix`
    /// right now. At the announced origin this is the spec's seed path for
    /// that neighbor (or nothing for unseeded neighbors — selective
    /// advertising), not a derivation from the self-route.
    fn desired_content(
        &mut self,
        node: AsId,
        slot: usize,
        prefix: PrefixId,
        pslot: usize,
    ) -> Option<PathId> {
        let (peer, rel_to_peer) = self.net.graph().neighbors(node)[slot];
        if self.prefixes[pslot].1.origin == Some(node) {
            return self
                .seed_ids
                .get(&prefix)
                .and_then(|seeds| seeds.iter().find(|(n, _)| *n == peer))
                .map(|(_, id)| *id);
        }
        let e = self.nodes[node.index()].rec(prefix)?.loc?;
        exports_to(&e, peer, rel_to_peer).then(|| self.paths.prepend(e.path, node))
    }

    /// Advertise `desired` to `node`'s neighbor at `slot` (through the
    /// record at index `ri`), over a live session whose epoch is `epoch`,
    /// unless that is what the peer already holds: at once when it is a
    /// withdrawal or the MRAI timer has run out, otherwise when the timer
    /// fires.
    #[allow(clippy::too_many_arguments)]
    fn schedule_update(
        &mut self,
        node: AsId,
        ri: usize,
        slot: usize,
        prefix: PrefixId,
        pslot: usize,
        desired: Option<PathId>,
        epoch: u32,
    ) {
        let st = self.nodes[node.index()].out_mut(ri, slot);
        if st.already_sent(desired) {
            return; // no change to advertise
        }
        let ready = st.mrai_ready_at;
        // Withdrawals bypass MRAI. An announcement whose timer has run out
        // still waits when its fire is pending: that fire is due this very
        // tick and sends the latest content, so sending here as well would
        // put two announcements in one MRAI window.
        if desired.is_none() || (self.now >= ready && !st.fire_pending) {
            let peer = self.net.graph().neighbors(node)[slot].0;
            let interval = Self::mrai_interval_under(&self.cfg, node, peer);
            st.mark_sent(desired, self.now, interval);
            self.emit(node, ri, slot, prefix, pslot, desired, epoch);
            return;
        }
        // MRAI still running, or its fire pending: the change waits for
        // the timer (whether this call queues the fire or an earlier one
        // already did), which will pick up the latest content.
        let need_fire = !st.fire_pending;
        st.fire_pending = true;
        self.tally.mrai_deferrals += 1;
        if need_fire {
            // The fire's seq comes from the counter deliveries draw from,
            // so fires and deliveries pop in one (time, seq) order.
            self.seq += 1;
            let key = FireKey {
                node: node.0,
                slot: slot as u32,
                prefix,
            };
            self.queue.insert(ready, self.seq, Event::Fire(key));
        }
    }

    /// Put `node`'s UPDATE for `prefix` on the wire toward its neighbor at
    /// `slot` (the out-state already says so) and book it in the node's
    /// metrics for the prefix's epoch.
    #[allow(clippy::too_many_arguments)]
    fn emit(
        &mut self,
        node: AsId,
        ri: usize,
        slot: usize,
        prefix: PrefixId,
        pslot: usize,
        content: Option<PathId>,
        epoch: u32,
    ) {
        let s = &self.prefixes[pslot].1;
        let (pfx, gen) = (s.prefix, s.gen);
        let now = self.now;
        let m = self.nodes[node.index()].recs[ri].metrics_mut(gen);
        if m.updates_sent == 0 {
            m.first_sent = now;
        }
        // Send timestamps are monotone per AS within an epoch: the clock
        // never rewinds, so a recorded time can't exceed `now`.
        debug_assert!(m.first_sent <= now, "first_sent after now at {node}");
        debug_assert!(m.last_sent <= now, "last_sent after now at {node}");
        m.updates_sent += 1;
        m.last_sent = now;
        let peer = self.net.graph().neighbors(node)[slot].0;
        let at = now + self.link_latency(node, peer);
        self.push_recv(at, node, slot, prefix, pfx, content, epoch, false);
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
            .covering(dst_addr)
            .find_map(|id| node.rec(*id)?.loc)?;
        // The origin's self-route has an empty path.
        if e.path.is_empty() {
            Some(FibEntry::Deliver)
        } else {
            Some(FibEntry::Forward(e.learned_from))
        }
    }
}

#[cfg(test)]
mod tests;
