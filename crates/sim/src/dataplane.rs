//! The data plane: hop-by-hop forwarding with longest-prefix match and
//! failure injection.
//!
//! Forwarding consults each AS's *own* table per hop. This per-hop lookup is
//! load-bearing for LIFEGUARD's sentinel mechanism: during a poison, an AS
//! captive behind the poisoned AS has only the sentinel less-specific, while
//! ASes further along may hold the production more-specific — a packet can
//! legitimately transition between the two tables mid-path.

use crate::announce::AnnouncementSpec;
use crate::failures::FailureSet;
use crate::network::Network;
use crate::static_routes::{compute_routes, RouteTable};
use crate::time::Time;
use lg_asmap::{AsId, RouterId};
use lg_bgp::{Prefix, PrefixTrie};
use std::sync::OnceLock;

/// Preference key for deterministic longest-prefix match: longer masks win;
/// equal-length covering prefixes break toward the numerically smallest
/// prefix rather than map-iteration order. ([`Prefix::new`] masks host
/// bits, so two *distinct* equal-length prefixes cannot both cover one
/// address — the tiebreak is a guard against that invariant ever loosening,
/// keeping every FIB lookup reproducible across runs.)
#[cfg(test)]
pub(crate) fn lpm_preference(p: Prefix) -> (u8, std::cmp::Reverse<Prefix>) {
    (p.len(), std::cmp::Reverse(p))
}

/// Forwarding decision of one AS for one destination address.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FibEntry {
    /// The AS originates the matched prefix: deliver locally.
    Deliver,
    /// Forward to this neighbor.
    Forward(AsId),
}

/// Anything that can answer per-AS forwarding lookups (static tables, or the
/// dynamic engine's instantaneous RIBs mid-convergence).
pub trait Fib {
    /// Longest-prefix-match decision of `at` for `dst_addr`; `None` when the
    /// AS has no covering route.
    fn lookup(&self, at: AsId, dst_addr: u32) -> Option<FibEntry>;
}

/// Why a walk ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WalkOutcome {
    /// Packet reached the AS originating the destination prefix.
    Delivered,
    /// A silent failure inside this AS ate the packet.
    DroppedInAs(AsId),
    /// A silent failure on this link ate the packet.
    DroppedOnLink(AsId, AsId),
    /// This AS had no route for the destination.
    NoRoute(AsId),
    /// Forwarding looped (possible mid-convergence).
    ForwardingLoop(AsId),
}

impl WalkOutcome {
    /// Did the packet arrive?
    pub fn delivered(self) -> bool {
        self == WalkOutcome::Delivered
    }
}

/// The trace of one packet.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Walk {
    /// Router-level hops, starting with the source's internal router. Each
    /// AS boundary crossing appends the ingress border router.
    pub hops: Vec<RouterId>,
    /// How the walk ended.
    pub outcome: WalkOutcome,
    /// Accumulated one-way propagation delay in ms up to the end point.
    pub delay_ms: u64,
}

impl Walk {
    /// AS-level hop sequence (owners of the router hops, deduplicated by
    /// construction).
    pub fn as_hops(&self) -> Vec<AsId> {
        self.hops.iter().map(|r| r.owner).collect()
    }

    /// The last AS the packet was seen in.
    pub fn last_as(&self) -> Option<AsId> {
        self.hops.last().map(|r| r.owner)
    }
}

/// Walk a packet from `src` toward `dst_addr` over `fib`, honoring
/// `failures` at time `now`.
pub fn walk_fib(
    net: &Network,
    fib: &dyn Fib,
    failures: &FailureSet,
    now: Time,
    src: AsId,
    dst_addr: u32,
) -> Walk {
    const MAX_HOPS: usize = 64;
    let mut hops = vec![RouterId::internal(src)];
    let mut delay_ms = 0u64;
    let mut cur = src;
    let mut entered_from: Option<AsId> = None;
    let mut visited = vec![src];

    loop {
        // Silent failure inside the current AS?
        if failures.drops_in_as(now, cur, entered_from, dst_addr) {
            return Walk {
                hops,
                outcome: WalkOutcome::DroppedInAs(cur),
                delay_ms,
            };
        }
        let next = match fib.lookup(cur, dst_addr) {
            None => {
                return Walk {
                    hops,
                    outcome: WalkOutcome::NoRoute(cur),
                    delay_ms,
                }
            }
            Some(FibEntry::Deliver) => {
                return Walk {
                    hops,
                    outcome: WalkOutcome::Delivered,
                    delay_ms,
                }
            }
            Some(FibEntry::Forward(n)) => n,
        };
        // Silent failure on the link?
        if failures.drops_on_link(now, cur, next, dst_addr) {
            return Walk {
                hops,
                outcome: WalkOutcome::DroppedOnLink(cur, next),
                delay_ms,
            };
        }
        delay_ms += net.link_delay_ms(cur, next);
        hops.push(RouterId::border(next, cur));
        if visited.contains(&next) || hops.len() > MAX_HOPS {
            return Walk {
                hops,
                outcome: WalkOutcome::ForwardingLoop(next),
                delay_ms,
            };
        }
        visited.push(next);
        entered_from = Some(cur);
        cur = next;
    }
}

/// The deterministic infrastructure prefix of an AS: a `/24` out of
/// `10.0.0.0/8` keyed by the AS id. Router interfaces and probe sources
/// live inside it, so pinging "a router in AS X" is a walk toward X's infra
/// prefix. Every [`DataPlane`] routes it from the start (see there).
/// Supports up to 65 536 ASes.
pub fn infra_prefix(a: AsId) -> Prefix {
    assert!(a.0 < 65_536, "infra addressing supports 65536 ASes");
    Prefix::new((10 << 24) | (a.0 << 8), 24)
}

/// An address inside [`infra_prefix`] of `a`.
pub fn infra_addr(a: AsId) -> u32 {
    infra_prefix(a).nth_addr(1)
}

/// The static data plane: converged route tables for a set of announced
/// prefixes, plus the failure set.
///
/// Every AS's [`infra_prefix`] is announced from the start, plainly by that
/// AS. Its table is computed on the first lookup that needs it and kept in
/// that AS's slot; an explicit [`Self::announce`] of the same prefix
/// overrides the slot for as long as it is installed. A fill changes no
/// walk's answer, so it does not re-stamp [`Self::generation`].
pub struct DataPlane<'n> {
    net: &'n Network,
    /// Explicitly announced tables.
    tables: Vec<RouteTable>,
    /// Longest-prefix-match index: prefix → index into `tables`.
    lpm: PrefixTrie<usize>,
    /// Per AS, the plain announcement of its infra prefix, once needed.
    infra: Vec<OnceLock<RouteTable>>,
    failures: FailureSet,
    /// See [`Self::generation`].
    generation: u64,
}

impl<'n> DataPlane<'n> {
    /// Data plane over `net` routing only the infra prefixes.
    pub fn new(net: &'n Network) -> Self {
        DataPlane {
            net,
            tables: Vec::new(),
            lpm: PrefixTrie::new(),
            infra: (0..net.len()).map(|_| OnceLock::new()).collect(),
            failures: FailureSet::none(),
            generation: lg_asmap::next_generation(),
        }
    }

    /// Version stamp of everything a walk reads besides `now`: the announced
    /// tables and the failure set (the network is borrowed immutably).
    /// Drawn from [`lg_asmap::next_generation`], so it is unique across
    /// planes, and re-stamped by every install, withdrawal and
    /// [`Self::failures_mut`] — equal stamps mean equal walks at any one
    /// `now`. Filling an infra slot is none of these.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The network this plane forwards over.
    pub fn network(&self) -> &'n Network {
        self.net
    }

    /// Announce (or re-announce) a prefix: computes and installs the
    /// converged table, replacing any previous table for the same prefix.
    pub fn announce(&mut self, spec: &AnnouncementSpec) -> &RouteTable {
        let table = compute_routes(self.net, spec);
        let idx = self.install(table);
        &self.tables[idx]
    }

    fn install(&mut self, table: RouteTable) -> usize {
        self.generation = lg_asmap::next_generation();
        match self.lpm.get(table.prefix) {
            Some(&i) => {
                self.tables[i] = table;
                i
            }
            None => {
                let prefix = table.prefix;
                self.tables.push(table);
                let i = self.tables.len() - 1;
                self.lpm.insert(prefix, i);
                i
            }
        }
    }

    /// The AS whose infra prefix covers `addr`, if any.
    fn infra_owner(&self, addr: u32) -> Option<AsId> {
        let id = (addr >> 8) & 0xffff;
        (addr >> 24 == 10 && (id as usize) < self.infra.len()).then_some(AsId(id))
    }

    /// The infra table of `a`, computed on first use.
    fn infra_table(&self, a: AsId) -> &RouteTable {
        self.infra[a.index()].get_or_init(|| {
            compute_routes(
                self.net,
                &AnnouncementSpec::plain(self.net, infra_prefix(a), a),
            )
        })
    }

    /// The prefix originated by `a`, preferring a production (non-infra)
    /// prefix when several exist; the infra prefix when `a` announces
    /// nothing else.
    pub fn prefix_of(&self, a: AsId) -> Option<Prefix> {
        let infra = infra_prefix(a);
        self.tables
            .iter()
            .filter(|t| t.origin == a)
            .map(|t| t.prefix)
            .max_by_key(|p| if *p == infra { 0 } else { 1 })
            .or_else(|| (a.index() < self.infra.len()).then_some(infra))
    }

    /// Withdraw an announced prefix entirely. Withdrawing an explicit
    /// announcement of an infra prefix restores the plain one.
    pub fn withdraw(&mut self, prefix: Prefix) {
        let Some(idx) = self.lpm.remove(prefix) else {
            return;
        };
        self.generation = lg_asmap::next_generation();
        self.tables.swap_remove(idx);
        // The swapped-in table (if any) moved to `idx`; re-point its index.
        if idx < self.tables.len() {
            let moved = self.tables[idx].prefix;
            self.lpm.insert(moved, idx);
        }
    }

    /// The table routing `prefix`: an announced one, or an infra prefix's.
    pub fn table(&self, prefix: Prefix) -> Option<&RouteTable> {
        match self.lpm.get(prefix) {
            Some(&i) => Some(&self.tables[i]),
            None => self
                .infra_owner(prefix.addr())
                .filter(|a| infra_prefix(*a) == prefix)
                .map(|a| self.infra_table(a)),
        }
    }

    /// All explicitly announced tables (infra slots not included).
    pub fn tables(&self) -> &[RouteTable] {
        &self.tables
    }

    /// Mutable failure set (re-stamps [`Self::generation`]).
    pub fn failures_mut(&mut self) -> &mut FailureSet {
        self.generation = lg_asmap::next_generation();
        &mut self.failures
    }

    /// Failure set.
    pub fn failures(&self) -> &FailureSet {
        &self.failures
    }

    /// Walk a packet from `src` to `dst_addr` at time `now`.
    pub fn walk(&self, now: Time, src: AsId, dst_addr: u32) -> Walk {
        walk_fib(self.net, self, &self.failures, now, src, dst_addr)
    }

    /// Round trip: forward walk from `src` to `dst_addr`, then (if
    /// delivered) a reverse walk from the destination AS back to
    /// `src_addr`. Returns both walks; the round trip succeeded when both
    /// delivered.
    pub fn round_trip(
        &self,
        now: Time,
        src: AsId,
        src_addr: u32,
        dst_addr: u32,
    ) -> (Walk, Option<Walk>) {
        let fwd = self.walk(now, src, dst_addr);
        if !fwd.outcome.delivered() {
            return (fwd, None);
        }
        let dst_as = fwd.last_as().expect("delivered walk has hops");
        let rev = self.walk(now, dst_as, src_addr);
        (fwd, Some(rev))
    }

    /// Is the infra slot of `a` filled? (What the laziness tests watch.)
    #[cfg(test)]
    pub(crate) fn infra_filled(&self, a: AsId) -> bool {
        self.infra[a.index()].get().is_some()
    }
}

impl Fib for DataPlane<'_> {
    fn lookup(&self, at: AsId, dst_addr: u32) -> Option<FibEntry> {
        // Most specific prefix covering dst_addr for which `at` has a
        // route, resolved through the trie rather than a scan of every
        // installed table. `covering` yields covering prefixes
        // most-specific-first without allocating, and a trie node holds
        // one value per exact (addr, len), so the first hit is the unique
        // winner — the same route the lpm_preference scan selected. The
        // infra /24 covering dst_addr, if any, takes its place in that
        // order unless an announced table holds the same prefix.
        let mut infra = self.infra_owner(dst_addr);
        let mut hit = None;
        for &i in self.lpm.covering(dst_addr) {
            let t = &self.tables[i];
            if t.prefix.len() <= 24 {
                if let Some(a) = infra.take().filter(|a| infra_prefix(*a) != t.prefix) {
                    let slot = self.infra_table(a);
                    if slot.has_route(at) {
                        hit = Some(slot);
                        break;
                    }
                }
            }
            if t.has_route(at) {
                hit = Some(t);
                break;
            }
        }
        let t = match hit {
            Some(t) => t,
            None => Some(self.infra_table(infra?)).filter(|t| t.has_route(at))?,
        };
        Some(match t.next_hop(at) {
            None => FibEntry::Deliver,
            Some(n) => FibEntry::Forward(n),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failures::{Direction, Failure};
    use lg_asmap::GraphBuilder;

    /// Chain: 0 (origin) <- 1 <- 2 <- 3, provider links downward.
    fn chain_net() -> Network {
        let mut b = GraphBuilder::with_ases(4);
        b.provider_customer(AsId(1), AsId(0));
        b.provider_customer(AsId(2), AsId(1));
        b.provider_customer(AsId(3), AsId(2));
        Network::new(b.build())
    }

    /// A production prefix outside the infra block `10.0.0.0/8`.
    fn pfx() -> Prefix {
        Prefix::from_octets(184, 164, 224, 0, 20)
    }

    /// Its covering sentinel.
    fn sentinel() -> Prefix {
        Prefix::from_octets(184, 164, 224, 0, 19)
    }

    fn announce_chain<'a>(net: &'a Network) -> DataPlane<'a> {
        let mut dp = DataPlane::new(net);
        dp.announce(&AnnouncementSpec::plain(net, pfx(), AsId(0)));
        dp
    }

    #[test]
    fn delivery_along_chain() {
        let net = chain_net();
        let dp = announce_chain(&net);
        let w = dp.walk(Time::ZERO, AsId(3), pfx().an_addr());
        assert!(w.outcome.delivered());
        assert_eq!(w.as_hops(), vec![AsId(3), AsId(2), AsId(1), AsId(0)]);
        assert_eq!(w.hops[0], RouterId::internal(AsId(3)));
        assert_eq!(w.hops[1], RouterId::border(AsId(2), AsId(3)));
        assert!(w.delay_ms >= 30, "three links at >=10ms each");
    }

    #[test]
    fn origin_delivers_to_itself() {
        let net = chain_net();
        let dp = announce_chain(&net);
        let w = dp.walk(Time::ZERO, AsId(0), pfx().an_addr());
        assert!(w.outcome.delivered());
        assert_eq!(w.hops.len(), 1);
        assert_eq!(w.delay_ms, 0);
    }

    #[test]
    fn no_route_for_unannounced_destination() {
        let net = chain_net();
        let dp = announce_chain(&net);
        let w = dp.walk(Time::ZERO, AsId(3), u32::from_be_bytes([99, 0, 0, 1]));
        assert_eq!(w.outcome, WalkOutcome::NoRoute(AsId(3)));
    }

    #[test]
    fn silent_as_failure_drops_mid_path() {
        let net = chain_net();
        let mut dp = announce_chain(&net);
        dp.failures_mut().add(Failure::silent_as(AsId(1)));
        let w = dp.walk(Time::ZERO, AsId(3), pfx().an_addr());
        assert_eq!(w.outcome, WalkOutcome::DroppedInAs(AsId(1)));
        // The trace shows the packet entered AS1 before dying.
        assert_eq!(w.last_as(), Some(AsId(1)));
    }

    #[test]
    fn unidirectional_failure_affects_one_prefix_only() {
        // Announce a second prefix from AS3's side? Simpler: fail AS1 only
        // toward pfx(); the reverse prefix is a different table.
        let net = chain_net();
        let mut dp = DataPlane::new(&net);
        dp.announce(&AnnouncementSpec::plain(&net, pfx(), AsId(0)));
        let rev_pfx = Prefix::from_octets(20, 0, 0, 0, 16);
        dp.announce(&AnnouncementSpec::plain(&net, rev_pfx, AsId(3)));
        dp.failures_mut()
            .add(Failure::silent_as_toward(AsId(1), rev_pfx));
        // Forward direction (3 -> 0) fine.
        assert!(dp
            .walk(Time::ZERO, AsId(3), pfx().an_addr())
            .outcome
            .delivered());
        // Reverse direction (0 -> 3) dies in AS1.
        assert_eq!(
            dp.walk(Time::ZERO, AsId(0), rev_pfx.an_addr()).outcome,
            WalkOutcome::DroppedInAs(AsId(1))
        );
        // Round trip reports the asymmetry.
        let (fwd, rev) = dp.round_trip(Time::ZERO, AsId(3), rev_pfx.an_addr(), pfx().an_addr());
        assert!(fwd.outcome.delivered());
        assert!(!rev.unwrap().outcome.delivered());
    }

    #[test]
    fn link_failure_directional() {
        let net = chain_net();
        let mut dp = announce_chain(&net);
        let rev_pfx = Prefix::from_octets(20, 0, 0, 0, 16);
        dp.announce(&AnnouncementSpec::plain(&net, rev_pfx, AsId(3)));
        // Fail link 2-1 only in the direction 2 -> 1.
        dp.failures_mut()
            .add(Failure::silent_link(AsId(2), AsId(1)).direction(Direction::AToB));
        assert_eq!(
            dp.walk(Time::ZERO, AsId(3), pfx().an_addr()).outcome,
            WalkOutcome::DroppedOnLink(AsId(2), AsId(1))
        );
        // Opposite direction unaffected.
        assert!(dp
            .walk(Time::ZERO, AsId(0), rev_pfx.an_addr())
            .outcome
            .delivered());
    }

    #[test]
    fn ingress_scoped_failure() {
        // Diamond: 0 origin; 1 and 2 both provide 0... build: 1,2 providers
        // of 0; 3 provides 1 and 2. AS3 reaches 0 via 1 (tiebreak: lower id).
        let mut b = GraphBuilder::with_ases(4);
        b.provider_customer(AsId(1), AsId(0));
        b.provider_customer(AsId(2), AsId(0));
        b.provider_customer(AsId(3), AsId(1));
        b.provider_customer(AsId(3), AsId(2));
        let net = Network::new(b.build());
        let mut dp = DataPlane::new(&net);
        dp.announce(&AnnouncementSpec::plain(&net, pfx(), AsId(0)));
        // AS0 drops packets entering from AS1 only.
        dp.failures_mut()
            .add(Failure::silent_as(AsId(0)).ingress_from(AsId(1)));
        let w = dp.walk(Time::ZERO, AsId(3), pfx().an_addr());
        assert_eq!(w.outcome, WalkOutcome::DroppedInAs(AsId(0)));
        // Traffic via AS2 works: walk from AS2 enters 0 from 2.
        assert!(dp
            .walk(Time::ZERO, AsId(2), pfx().an_addr())
            .outcome
            .delivered());
    }

    #[test]
    fn lpm_prefers_production_over_sentinel() {
        let net = chain_net();
        let mut dp = DataPlane::new(&net);
        let sentinel = sentinel();
        let production = pfx(); // /20 inside the /19
        dp.announce(&AnnouncementSpec::plain(&net, sentinel, AsId(0)));
        dp.announce(&AnnouncementSpec::plain(&net, production, AsId(0)));
        // Address inside production: uses the /16 (both routes exist so the
        // walk is the same; check the FIB choice directly).
        assert_eq!(
            dp.lookup(AsId(3), production.an_addr()),
            Some(FibEntry::Forward(AsId(2)))
        );
        // Address inside the sentinel but outside production still routes.
        let sentinel_only = u32::from_be_bytes([184, 164, 240, 1]);
        assert!(sentinel.contains(sentinel_only) && !production.contains(sentinel_only));
        let w = dp.walk(Time::ZERO, AsId(3), sentinel_only);
        assert!(w.outcome.delivered());
    }

    #[test]
    fn captive_as_falls_back_to_sentinel_route() {
        // Fig 2(b): poisoned production + unpoisoned sentinel; captive F
        // reaches the production address via the sentinel table.
        let mut g = GraphBuilder::with_ases(4);
        let (o, a, f, e) = (AsId(0), AsId(1), AsId(2), AsId(3));
        g.provider_customer(a, o); // A provides O
        g.provider_customer(f, a); // F behind A
        g.provider_customer(e, o); // E: alternate provider of O
        let net = Network::new(g.build());
        let mut dp = DataPlane::new(&net);
        let sentinel = sentinel();
        let production = pfx();
        dp.announce(&AnnouncementSpec::prepended(&net, sentinel, o, 3));
        dp.announce(&AnnouncementSpec::poisoned(&net, production, o, &[a]));
        // F has no production route (A rejected the poison)...
        assert!(!dp.table(production).unwrap().has_route(f));
        // ...but the walk still delivers via the sentinel.
        let w = dp.walk(Time::ZERO, f, production.an_addr());
        assert!(
            w.outcome.delivered(),
            "sentinel must keep captives reachable"
        );
        assert_eq!(w.as_hops(), vec![f, a, o]);
    }

    #[test]
    fn reannounce_replaces_table() {
        let net = chain_net();
        let mut dp = announce_chain(&net);
        assert_eq!(dp.tables().len(), 1);
        // Re-announce poisoned; table count unchanged, content changed.
        dp.announce(&AnnouncementSpec::poisoned(
            &net,
            pfx(),
            AsId(0),
            &[AsId(2)],
        ));
        assert_eq!(dp.tables().len(), 1);
        assert!(!dp.table(pfx()).unwrap().has_route(AsId(2)));
        // Withdraw removes it.
        dp.withdraw(pfx());
        assert!(dp.table(pfx()).is_none());
    }

    #[test]
    fn infra_prefixes_are_disjoint_and_deterministic() {
        let a = infra_prefix(AsId(3));
        let b = infra_prefix(AsId(4));
        assert_ne!(a, b);
        assert_eq!(a, infra_prefix(AsId(3)));
        assert!(a.contains(infra_addr(AsId(3))));
        assert!(!a.contains(infra_addr(AsId(4))));
    }

    #[test]
    fn infra_prefixes_route_without_an_announcement() {
        let net = chain_net();
        let dp = DataPlane::new(&net);
        let w = dp.walk(Time::ZERO, AsId(0), infra_addr(AsId(2)));
        assert_eq!(
            (w.outcome, w.last_as()),
            (WalkOutcome::Delivered, Some(AsId(2)))
        );
        assert!(dp.tables().is_empty(), "infra slots are not announcements");
        let t = dp.table(infra_prefix(AsId(2))).expect("infra table");
        assert_eq!((t.prefix, t.origin), (infra_prefix(AsId(2)), AsId(2)));
        // Beyond the network's ASes, and outside the /24s, nothing routes.
        assert!(dp.table(infra_prefix(AsId(4))).is_none());
        assert!(dp.table(Prefix::from_octets(10, 0, 2, 0, 23)).is_none());
        let w = dp.walk(Time::ZERO, AsId(0), infra_addr(AsId(4)));
        assert_eq!(w.outcome, WalkOutcome::NoRoute(AsId(0)));
    }

    #[test]
    fn announced_infra_prefix_overrides_its_slot_until_withdrawn() {
        let net = chain_net();
        let mut dp = DataPlane::new(&net);
        let p = infra_prefix(AsId(0));
        dp.announce(&AnnouncementSpec::poisoned(&net, p, AsId(0), &[AsId(2)]));
        let w = dp.walk(Time::ZERO, AsId(3), infra_addr(AsId(0)));
        assert_eq!(w.outcome, WalkOutcome::NoRoute(AsId(3)));
        assert!(!dp.infra_filled(AsId(0)), "an overridden slot stays empty");
        dp.withdraw(p);
        assert!(dp
            .walk(Time::ZERO, AsId(3), infra_addr(AsId(0)))
            .outcome
            .delivered());
    }

    #[test]
    fn prefix_of_prefers_production() {
        let net = chain_net();
        let mut dp = DataPlane::new(&net);
        dp.announce(&AnnouncementSpec::plain(
            &net,
            infra_prefix(AsId(0)),
            AsId(0),
        ));
        dp.announce(&AnnouncementSpec::plain(&net, pfx(), AsId(0)));
        assert_eq!(dp.prefix_of(AsId(0)), Some(pfx()));
        assert_eq!(dp.prefix_of(AsId(3)), Some(infra_prefix(AsId(3))));
        assert_eq!(dp.prefix_of(AsId(4)), None, "not an AS of the network");
    }

    #[test]
    fn lpm_preference_breaks_equal_length_ties_by_prefix_value() {
        // Two equal-length prefixes: the numerically smaller one wins
        // (max_by_key picks the larger key; Reverse flips the value order).
        let a = Prefix::from_octets(10, 0, 0, 0, 24);
        let b = Prefix::from_octets(10, 0, 1, 0, 24);
        assert!(lpm_preference(a) > lpm_preference(b));
        // A longer mask always beats, regardless of prefix value.
        let shorter = Prefix::from_octets(10, 0, 0, 0, 16);
        assert!(lpm_preference(a) > lpm_preference(shorter));
        assert!(lpm_preference(b) > lpm_preference(shorter));
        // Total: equal keys only for equal prefixes.
        assert_eq!(lpm_preference(a), lpm_preference(a));
    }

    #[test]
    fn every_mutation_restamps_the_generation() {
        let net = chain_net();
        let other = DataPlane::new(&net);
        let mut dp = DataPlane::new(&net);
        assert_ne!(dp.generation(), other.generation());
        let mut last = dp.generation();
        let mut bumped = |dp: &DataPlane<'_>| {
            let fresh = dp.generation() > last;
            last = dp.generation();
            fresh
        };
        dp.announce(&AnnouncementSpec::plain(&net, pfx(), AsId(0)));
        assert!(bumped(&dp), "announce");
        dp.announce(&AnnouncementSpec::plain(&net, pfx(), AsId(0)));
        assert!(bumped(&dp), "re-announce replacing the table");
        dp.walk(Time::ZERO, AsId(3), infra_addr(AsId(1)));
        assert!(dp.infra_filled(AsId(1)));
        assert!(!bumped(&dp), "filling an infra slot");
        dp.announce(&AnnouncementSpec::plain(
            &net,
            infra_prefix(AsId(1)),
            AsId(1),
        ));
        assert!(bumped(&dp), "announcing an infra prefix");
        dp.withdraw(pfx());
        assert!(bumped(&dp), "withdraw");
        dp.withdraw(pfx());
        assert!(!bumped(&dp), "withdrawing nothing changes nothing");
        dp.failures_mut().add(Failure::silent_as(AsId(1)));
        assert!(bumped(&dp), "failures_mut");
        dp.walk(Time::ZERO, AsId(3), infra_addr(AsId(1)));
        assert!(!bumped(&dp), "walks read only");
    }

    /// Over a calibrated topology, a lazy plane and one with every infra
    /// prefix announced up front (the plane as it was before infra slots)
    /// take the same announcements — a production prefix, a poisoned
    /// less-specific over the infra block, an overridden infra prefix and a
    /// more-specific inside another — and failure windows. Every sampled
    /// walk and every infra table agree, no fill re-stamps the generation,
    /// and a fresh plane fills only the slots a walk asks for.
    fn lazy_matches_eager(n: usize, seed: u64, mut draw: u64) -> Result<(), String> {
        let net = Network::new(lg_asmap::TopologyConfig::calibrated(n, seed).generate());
        let g = net.graph();
        let mut pick = |m: usize| {
            draw = draw
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((draw >> 33) % m as u64) as u32
        };
        let first_provider = |a| g.providers(a).into_iter().take(1).collect::<Vec<_>>();
        let stub = g
            .ases()
            .filter(|a| g.is_stub(*a))
            .nth(pick(8) as usize)
            .unwrap();
        let over = AsId(pick(n));
        let inner = Prefix::new(infra_prefix(AsId(pick(n))).addr() | 0x80, 25);
        let block = Prefix::from_octets(10, 0, 0, 0, 8);
        let (mut lazy, mut eager) = (DataPlane::new(&net), DataPlane::new(&net));
        for a in g.ases() {
            eager.announce(&AnnouncementSpec::plain(&net, infra_prefix(a), a));
        }
        for spec in [
            AnnouncementSpec::prepended(&net, pfx(), stub, 3),
            AnnouncementSpec::poisoned(&net, block, stub, &first_provider(stub)),
            AnnouncementSpec::poisoned(&net, infra_prefix(over), over, &first_provider(over)),
            AnnouncementSpec::plain(&net, inner, stub),
        ] {
            lazy.announce(&spec);
            eager.announce(&spec);
        }
        for k in 0..3 {
            let a = AsId(pick(n));
            let f = match first_provider(a)[..] {
                [p] if k == 1 => Failure::silent_link(a, p),
                _ => Failure::silent_as(a),
            };
            let f = f.window(Time::from_secs(10 * k), Some(Time::from_secs(10 * k + 15)));
            lazy.failures_mut().add(f.clone());
            eager.failures_mut().add(f);
        }
        let generation = lazy.generation();
        for _ in 0..64 {
            let (src, now) = (AsId(pick(n)), Time::from_secs(pick(40) as u64));
            let dst = match pick(4) {
                0 => pfx().nth_addr(pick(1 << 12)),
                1 => inner.nth_addr(pick(128)),
                2 => block.nth_addr(pick(1 << 24)),
                _ => infra_addr(AsId(pick(n))),
            };
            let (l, e) = (lazy.walk(now, src, dst), eager.walk(now, src, dst));
            if l != e {
                return Err(format!("{src} -> {dst:#x} at {now:?}: {l:?} vs {e:?}"));
            }
        }
        for a in g.ases() {
            let (l, e) = (lazy.table(infra_prefix(a)), eager.table(infra_prefix(a)));
            let (l, e) = (l.expect("lazy table"), e.expect("eager table"));
            if l.origin != e.origin || g.ases().any(|x| l.route(x) != e.route(x)) {
                return Err(format!("infra table of {a} differs"));
            }
        }
        if lazy.generation() != generation {
            return Err("a fill re-stamped the generation".into());
        }
        let fresh = DataPlane::new(&net);
        let (src, dst) = (AsId(pick(n)), AsId(pick(n)));
        let filled = || {
            g.ases()
                .filter(|a| fresh.infra_filled(*a))
                .collect::<Vec<_>>()
        };
        fresh.walk(Time::ZERO, src, infra_addr(dst));
        if filled() != [dst] {
            return Err(format!("walk {src} -> {dst} filled {:?}", filled()));
        }
        let (fwd, _) = fresh.round_trip(Time::ZERO, src, infra_addr(src), infra_addr(dst));
        let want: std::collections::BTreeSet<AsId> = [src, dst].into();
        if fwd.outcome.delivered() && filled() != want.into_iter().collect::<Vec<_>>() {
            return Err(format!("round trip {src} -> {dst} filled {:?}", filled()));
        }
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(24))]

        #[test]
        fn lazy_infra_matches_eager_tables(
            n in 64usize..160,
            seed in 0u64..10_000,
            draw in proptest::any::<u64>(),
        ) {
            let run = lazy_matches_eager(n, seed, draw);
            proptest::prop_assert!(run.is_ok(), "{}", run.unwrap_err());
        }
    }

    #[test]
    fn walk_detects_forwarding_loop() {
        // Hand-build an inconsistent FIB (possible mid-convergence).
        struct LoopFib;
        impl Fib for LoopFib {
            fn lookup(&self, at: AsId, _dst: u32) -> Option<FibEntry> {
                Some(FibEntry::Forward(AsId(1 - at.0.min(1))))
            }
        }
        let mut b = GraphBuilder::with_ases(2);
        b.peer(AsId(0), AsId(1));
        let net = Network::new(b.build());
        let w = walk_fib(&net, &LoopFib, &FailureSet::none(), Time::ZERO, AsId(0), 5);
        assert!(matches!(w.outcome, WalkOutcome::ForwardingLoop(_)));
    }
}
