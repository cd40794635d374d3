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
#[derive(Clone, Debug)]
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
/// prefix. Supports up to 65 536 ASes.
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
pub struct DataPlane<'n> {
    net: &'n Network,
    tables: Vec<RouteTable>,
    /// Longest-prefix-match index: prefix → index into `tables`.
    lpm: PrefixTrie<usize>,
    failures: FailureSet,
    /// See [`Self::generation`].
    generation: u64,
}

impl<'n> DataPlane<'n> {
    /// Empty data plane over `net`.
    pub fn new(net: &'n Network) -> Self {
        DataPlane {
            net,
            tables: Vec::new(),
            lpm: PrefixTrie::new(),
            failures: FailureSet::none(),
            generation: lg_asmap::next_generation(),
        }
    }

    /// Version stamp of everything a walk reads besides `now`: the installed
    /// tables and the failure set (the network is borrowed immutably).
    /// Drawn from [`lg_asmap::next_generation`], so it is unique across
    /// planes, and re-stamped by every install, withdrawal and
    /// [`Self::failures_mut`] — equal stamps mean equal walks at any one
    /// `now`.
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

    /// Announce the infra prefix of `a` (plain, unprepended) unless already
    /// announced; returns it. Scenario setups call this for every AS that
    /// sources or answers probes.
    pub fn ensure_infra(&mut self, a: AsId) -> Prefix {
        let p = infra_prefix(a);
        if self.table(p).is_none() {
            self.announce(&AnnouncementSpec::plain(self.net, p, a));
        }
        p
    }

    /// Announce infra prefixes for every AS in the network.
    ///
    /// The tables are independent, so they are computed as one parallel
    /// batch — this is the single hottest setup step of the large-scale
    /// scenarios (one fixed point per AS).
    pub fn ensure_infra_all(&mut self) {
        let specs: Vec<AnnouncementSpec> = self
            .net
            .graph()
            .ases()
            .filter(|a| self.table(infra_prefix(*a)).is_none())
            .map(|a| AnnouncementSpec::plain(self.net, infra_prefix(a), a))
            .collect();
        for table in crate::RouteComputer::new().compute_batch(self.net, &specs) {
            self.install(table);
        }
    }

    /// The prefix originated by `a`, preferring a production (non-infra)
    /// prefix when several exist.
    pub fn prefix_of(&self, a: AsId) -> Option<Prefix> {
        let infra = infra_prefix(a);
        self.tables
            .iter()
            .filter(|t| t.origin == a)
            .map(|t| t.prefix)
            .max_by_key(|p| if *p == infra { 0 } else { 1 })
    }

    /// Withdraw a prefix entirely.
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

    /// The installed table for `prefix`.
    pub fn table(&self, prefix: Prefix) -> Option<&RouteTable> {
        self.lpm.get(prefix).map(|&i| &self.tables[i])
    }

    /// All installed tables.
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
}

impl Fib for DataPlane<'_> {
    fn lookup(&self, at: AsId, dst_addr: u32) -> Option<FibEntry> {
        // Most specific prefix covering dst_addr for which `at` has a
        // route, resolved through the trie rather than a scan of every
        // installed table — with a full-table announcement set the scan
        // is O(prefixes) per hop of every walk. `matches` yields covering
        // prefixes most-specific-first, and a trie node holds one value
        // per exact (addr, len), so the first hit is the unique winner —
        // the same route the lpm_preference scan selected.
        let t = self
            .lpm
            .matches(dst_addr)
            .into_iter()
            .map(|(_, &i)| &self.tables[i])
            .find(|t| t.has_route(at))?;
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

    fn pfx() -> Prefix {
        Prefix::from_octets(10, 0, 0, 0, 16)
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
        let sentinel = Prefix::from_octets(10, 0, 0, 0, 15);
        let production = pfx(); // /16 inside the /15
        dp.announce(&AnnouncementSpec::plain(&net, sentinel, AsId(0)));
        dp.announce(&AnnouncementSpec::plain(&net, production, AsId(0)));
        // Address inside production: uses the /16 (both routes exist so the
        // walk is the same; check the FIB choice directly).
        assert_eq!(
            dp.lookup(AsId(3), production.an_addr()),
            Some(FibEntry::Forward(AsId(2)))
        );
        // Address inside the sentinel but outside production still routes.
        let sentinel_only = u32::from_be_bytes([10, 1, 0, 1]);
        assert!(production.len() == 16 && !production.contains(sentinel_only));
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
        let sentinel = Prefix::from_octets(10, 0, 0, 0, 15);
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
    fn ensure_infra_announces_once() {
        let net = chain_net();
        let mut dp = DataPlane::new(&net);
        let p = dp.ensure_infra(AsId(2));
        dp.ensure_infra(AsId(2));
        assert_eq!(dp.tables().len(), 1);
        let w = dp.walk(Time::ZERO, AsId(0), infra_addr(AsId(2)));
        assert!(w.outcome.delivered());
        assert_eq!(w.last_as(), Some(AsId(2)));
        assert_eq!(dp.prefix_of(AsId(2)), Some(p));
    }

    #[test]
    fn prefix_of_prefers_production() {
        let net = chain_net();
        let mut dp = DataPlane::new(&net);
        dp.ensure_infra(AsId(0));
        dp.announce(&AnnouncementSpec::plain(&net, pfx(), AsId(0)));
        assert_eq!(dp.prefix_of(AsId(0)), Some(pfx()));
        assert_eq!(dp.prefix_of(AsId(3)), None);
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
        dp.ensure_infra(AsId(1));
        assert!(bumped(&dp), "ensure_infra");
        dp.ensure_infra(AsId(1));
        assert!(
            !bumped(&dp),
            "an infra prefix already announced installs nothing"
        );
        dp.withdraw(pfx());
        assert!(bumped(&dp), "withdraw");
        dp.withdraw(pfx());
        assert!(!bumped(&dp), "withdrawing nothing changes nothing");
        dp.failures_mut().add(Failure::silent_as(AsId(1)));
        assert!(bumped(&dp), "failures_mut");
        dp.walk(Time::ZERO, AsId(3), infra_addr(AsId(1)));
        assert!(!bumped(&dp), "walks read only");
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
