//! The prober: issues measurements against a [`DataPlane`].

use crate::counters::ProbeCounters;
use crate::ping::{PingDiagnosis, PingResult};
use crate::traceroute::{Traceroute, TrbHop};
use lg_asmap::{AsId, RouterId};
use lg_sim::dataplane::{infra_addr, DataPlane};
use lg_sim::Time;
use lg_telemetry::{Counter, Registry};
use std::collections::{HashMap, HashSet};

/// Registry handles for probe budgets, resolved once at construction.
/// Aggregates across all probers in the process; the per-instance
/// [`ProbeCounters`] stay the exact per-run accounting (§5.4 budgets).
#[derive(Clone, Debug)]
struct ProbeTelemetry {
    pings: Counter,
    spoofed_pings: Counter,
    traceroute_probes: Counter,
    option_probes: Counter,
}

impl ProbeTelemetry {
    fn from_registry(r: &Registry) -> Self {
        ProbeTelemetry {
            pings: r.counter("probe.pings"),
            spoofed_pings: r.counter("probe.spoofed_pings"),
            traceroute_probes: r.counter("probe.traceroute_probes"),
            option_probes: r.counter("probe.option_probes"),
        }
    }
}

impl Default for ProbeTelemetry {
    fn default() -> Self {
        Self::from_registry(lg_telemetry::global())
    }
}

/// Prober configuration.
#[derive(Clone, Copy, Debug)]
pub struct ProberConfig {
    /// Maximum ICMP responses a router generates per second (0 = unlimited).
    pub rate_limit_per_sec: u32,
    /// IP-option probes consumed by a reverse traceroute measured from
    /// scratch (the paper reports 35).
    pub rt_fresh_option_probes: u32,
    /// Amortized option probes when refreshing against a warm atlas (the
    /// paper's optimized system averages 10).
    pub rt_cached_option_probes: u32,
}

impl Default for ProberConfig {
    fn default() -> Self {
        ProberConfig {
            rate_limit_per_sec: 100,
            rt_fresh_option_probes: 35,
            rt_cached_option_probes: 10,
        }
    }
}

/// The walks behind one [`Prober::ping_from_addr`] key, as far as a ping
/// has taken them.
#[derive(Clone, Copy, Debug)]
struct PingWalks {
    /// Forward walk: the destination AS and one-way delay when delivered,
    /// else the last AS the packet was seen in.
    fwd: Result<(AsId, u64), AsId>,
    /// Reverse walk from the destination AS back to the source address:
    /// its delay, or the last AS seen. `None` until some ping got past the
    /// responsiveness and rate checks.
    rev: Option<Result<u64, AsId>>,
}

/// Exact memo of ping walks. A walk reads the data plane's tables, its
/// failure set, and `now` only through which failures are active, so its
/// result holds for as long as [`DataPlane::generation`] is unchanged and
/// `now` stays inside the failure set's [`stable_window`]. Anything else
/// empties the memo. Only walks are kept: every per-ping side effect still
/// runs per ping.
///
/// [`stable_window`]: lg_sim::failures::FailureSet::stable_window
#[derive(Debug, Default)]
struct PingMemo {
    /// Generation the entries were walked at (0 = none: generations start
    /// at 1).
    generation: u64,
    /// Stable window `[lo, hi)` the entries were walked in.
    lo: Time,
    hi: Option<Time>,
    /// Keyed by `(src, src_addr, dst_addr)`.
    walks: HashMap<(AsId, u32, u32), PingWalks>,
}

impl PingMemo {
    /// Empty the memo unless its entries are valid for `dp` at `now`.
    fn sync(&mut self, dp: &DataPlane<'_>, now: Time) {
        let in_window = self.lo <= now && self.hi.is_none_or(|hi| now < hi);
        if self.generation != dp.generation() || !in_window {
            self.walks.clear();
            self.generation = dp.generation();
            (self.lo, self.hi) = dp.failures().stable_window(now);
        }
    }
}

/// Issues pings, traceroutes, spoofed probes, and reverse traceroutes, with
/// per-router responsiveness, rate limiting, and probe accounting.
#[derive(Debug, Default)]
pub struct Prober {
    cfg: ProberConfig,
    /// ASes whose routers are configured to ignore ICMP echo requests.
    unresponsive: HashSet<AsId>,
    counters: ProbeCounters,
    /// Per-AS response budget for the current second.
    rate: HashMap<AsId, (u64, u32)>,
    tele: ProbeTelemetry,
    memo: PingMemo,
}

impl Prober {
    /// Prober with the given configuration, reporting into the global
    /// telemetry registry.
    pub fn new(cfg: ProberConfig) -> Self {
        Prober {
            cfg,
            unresponsive: HashSet::new(),
            counters: ProbeCounters::new(),
            rate: HashMap::new(),
            tele: ProbeTelemetry::default(),
            memo: PingMemo::default(),
        }
    }

    /// Prober with default configuration.
    pub fn with_defaults() -> Self {
        Self::new(ProberConfig::default())
    }

    /// Prober reporting into `registry` instead of the global one
    /// (isolated observation in tests).
    pub fn with_registry(cfg: ProberConfig, registry: &Registry) -> Self {
        Prober {
            tele: ProbeTelemetry::from_registry(registry),
            ..Self::new(cfg)
        }
    }

    /// Mark an AS's routers as never answering ICMP.
    pub fn set_unresponsive(&mut self, a: AsId) {
        self.unresponsive.insert(a);
    }

    /// Clear the unresponsive mark.
    pub fn set_responsive(&mut self, a: AsId) {
        self.unresponsive.remove(&a);
    }

    /// Is `a` configured to ignore pings? (Ground truth; the atlas keeps its
    /// own *learned* responsiveness history.)
    pub fn is_unresponsive(&self, a: AsId) -> bool {
        self.unresponsive.contains(&a)
    }

    /// Probe accounting so far.
    pub fn counters(&self) -> ProbeCounters {
        self.counters
    }

    /// Charge `n` IP-option probes to the budget. Higher layers (the atlas's
    /// incremental reverse-path measurement) account their option-probe
    /// usage through this.
    pub fn charge_option_probes(&mut self, n: u64) {
        self.counters.option_probes += n;
        self.tele.option_probes.add(n);
    }

    /// Charge `n` plain pings to the budget (batched keep-alive probing).
    pub fn charge_pings(&mut self, n: u64) {
        self.counters.pings += n;
        self.tele.pings.add(n);
    }

    /// Check and consume one response slot for `a` in the second of `now`.
    fn allow_response(&mut self, a: AsId, now: Time) -> bool {
        if self.cfg.rate_limit_per_sec == 0 {
            return true;
        }
        let sec = now.as_secs();
        let slot = self.rate.entry(a).or_insert((sec, 0));
        if slot.0 != sec {
            *slot = (sec, 0);
        }
        if slot.1 >= self.cfg.rate_limit_per_sec {
            return false;
        }
        slot.1 += 1;
        true
    }

    /// Would `a` answer an ICMP probe whose response must travel to
    /// `receiver_addr`? Consumes a rate slot when it answers.
    fn responds(
        &mut self,
        dp: &DataPlane<'_>,
        now: Time,
        a: AsId,
        receiver_addr: u32,
    ) -> Option<u64> {
        if self.unresponsive.contains(&a) {
            return None;
        }
        if !self.allow_response(a, now) {
            return None;
        }
        let rev = dp.walk(now, a, receiver_addr);
        rev.outcome.delivered().then_some(rev.delay_ms)
    }

    /// Ping `dst_addr` from `src`, replies returning to `src`'s infra
    /// address.
    pub fn ping(&mut self, dp: &DataPlane<'_>, now: Time, src: AsId, dst_addr: u32) -> PingResult {
        self.ping_from_addr(dp, now, src, infra_addr(src), dst_addr)
    }

    /// Ping with an explicit source address (LIFEGUARD pings from the unused
    /// portion of its sentinel prefix to test for repair, §4.2).
    ///
    /// The walks come from the prober's ping memo whenever they are still
    /// valid (see `PingMemo`), which makes re-pinging an unchanged network
    /// cheap; the accounting, tracing, responsiveness and rate-limit steps
    /// run on every call, in the same order as a fresh walk would.
    pub fn ping_from_addr(
        &mut self,
        dp: &DataPlane<'_>,
        now: Time,
        src: AsId,
        src_addr: u32,
        dst_addr: u32,
    ) -> PingResult {
        self.counters.pings += 1;
        self.tele.pings.inc();
        // Only pings inside a repair incident (ambient trace set) are
        // recorded; healthy-path monitoring stays out of the ring.
        if !lg_telemetry::trace::current().is_none() {
            lg_telemetry::trace::instant_value("probe.ping", now.millis());
        }
        self.memo.sync(dp, now);
        let key = (src, src_addr, dst_addr);
        let PingWalks { fwd, rev } = *self.memo.walks.entry(key).or_insert_with(|| {
            let fwd = dp.walk(now, src, dst_addr);
            PingWalks {
                fwd: if fwd.outcome.delivered() {
                    Ok((
                        fwd.last_as().expect("delivered walk has hops"),
                        fwd.delay_ms,
                    ))
                } else {
                    Err(fwd.last_as().unwrap_or(src))
                },
                rev: None,
            }
        });
        let (dst_as, fwd_ms) = match fwd {
            Ok(delivered) => delivered,
            Err(last) => return PingResult::lost(PingDiagnosis::ForwardLoss(last)),
        };
        if self.unresponsive.contains(&dst_as) {
            return PingResult::lost(PingDiagnosis::DestIgnoresPings);
        }
        if !self.allow_response(dst_as, now) {
            return PingResult::lost(PingDiagnosis::RateLimited);
        }
        let rev = rev.unwrap_or_else(|| {
            let rev = dp.walk(now, dst_as, src_addr);
            let rev = if rev.outcome.delivered() {
                Ok(rev.delay_ms)
            } else {
                Err(rev.last_as().unwrap_or(dst_as))
            };
            let walks = self.memo.walks.get_mut(&key).expect("entered above");
            walks.rev = Some(rev);
            rev
        });
        match rev {
            Ok(rev_ms) => PingResult::reply(fwd_ms + rev_ms),
            Err(last) => PingResult::lost(PingDiagnosis::ReverseLoss(last)),
        }
    }

    /// [`Self::ping_from_addr`] without the memo: both walks taken fresh.
    /// The oracle the memo is differentially tested against.
    #[cfg(test)]
    fn ping_from_addr_reference(
        &mut self,
        dp: &DataPlane<'_>,
        now: Time,
        src: AsId,
        src_addr: u32,
        dst_addr: u32,
    ) -> PingResult {
        self.counters.pings += 1;
        self.tele.pings.inc();
        if !lg_telemetry::trace::current().is_none() {
            lg_telemetry::trace::instant_value("probe.ping", now.millis());
        }
        let fwd = dp.walk(now, src, dst_addr);
        if !fwd.outcome.delivered() {
            return PingResult::lost(PingDiagnosis::ForwardLoss(fwd.last_as().unwrap_or(src)));
        }
        let dst_as = fwd.last_as().expect("delivered walk has hops");
        if self.unresponsive.contains(&dst_as) {
            return PingResult::lost(PingDiagnosis::DestIgnoresPings);
        }
        if !self.allow_response(dst_as, now) {
            return PingResult::lost(PingDiagnosis::RateLimited);
        }
        let rev = dp.walk(now, dst_as, src_addr);
        if rev.outcome.delivered() {
            PingResult::reply(fwd.delay_ms + rev.delay_ms)
        } else {
            PingResult::lost(PingDiagnosis::ReverseLoss(rev.last_as().unwrap_or(dst_as)))
        }
    }

    /// Spoofed ping (§4.1): `sender` probes `dst_addr` with the source
    /// address of `spoof_as`; the echo reply travels to `spoof_as`.
    /// `responded` means the reply arrived *at the spoofed receiver* —
    /// combining senders and receivers isolates the failing direction.
    pub fn spoofed_ping(
        &mut self,
        dp: &DataPlane<'_>,
        now: Time,
        sender: AsId,
        dst_addr: u32,
        spoof_as: AsId,
    ) -> PingResult {
        self.counters.spoofed_pings += 1;
        self.tele.spoofed_pings.inc();
        let fwd = dp.walk(now, sender, dst_addr);
        if !fwd.outcome.delivered() {
            return PingResult::lost(PingDiagnosis::ForwardLoss(fwd.last_as().unwrap_or(sender)));
        }
        let dst_as = fwd.last_as().expect("delivered walk has hops");
        if self.unresponsive.contains(&dst_as) {
            return PingResult::lost(PingDiagnosis::DestIgnoresPings);
        }
        if !self.allow_response(dst_as, now) {
            return PingResult::lost(PingDiagnosis::RateLimited);
        }
        let rev = dp.walk(now, dst_as, infra_addr(spoof_as));
        if rev.outcome.delivered() {
            PingResult::reply(fwd.delay_ms + rev.delay_ms)
        } else {
            PingResult::lost(PingDiagnosis::ReverseLoss(rev.last_as().unwrap_or(dst_as)))
        }
    }

    /// Traceroute from `src` toward `dst_addr`; TTL-exceeded responses
    /// return to `src`.
    pub fn traceroute(
        &mut self,
        dp: &DataPlane<'_>,
        now: Time,
        src: AsId,
        dst_addr: u32,
    ) -> Traceroute {
        self.traceroute_to(dp, now, src, dst_addr, src)
    }

    /// Spoofed traceroute (§4.1): `src` probes with `receiver`'s source
    /// address, so per-hop responses travel to `receiver`. Used to measure
    /// the working forward direction during a reverse failure without the
    /// responses dying on the broken reverse path.
    pub fn traceroute_to(
        &mut self,
        dp: &DataPlane<'_>,
        now: Time,
        src: AsId,
        dst_addr: u32,
        receiver: AsId,
    ) -> Traceroute {
        let _tspan = lg_telemetry::trace::span("probe.traceroute");
        let receiver_addr = infra_addr(receiver);
        let fwd = dp.walk(now, src, dst_addr);
        let mut hops = Vec::with_capacity(fwd.hops.len().saturating_sub(1));
        // Skip the source's own internal router.
        for hop in fwd.hops.iter().skip(1) {
            self.counters.traceroute_probes += 1;
            self.tele.traceroute_probes.inc();
            let responded = self.responds(dp, now, hop.owner, receiver_addr).is_some();
            hops.push(TrbHop {
                router: *hop,
                responded,
            });
        }
        let reached = fwd.outcome.delivered()
            && hops
                .last()
                .map_or(src == fwd.last_as().unwrap_or(src), |h| h.responded);
        Traceroute {
            hops,
            reached_destination: reached,
        }
    }

    /// Reverse traceroute (§4.1, building on the reverse traceroute system):
    /// measure the path *from* `target` *back to* `observer`.
    ///
    /// The technique needs bidirectional connectivity between observer and
    /// target (it stitches IP-option measurements hop by hop); when the
    /// round trip fails this returns `None` — which is precisely why
    /// LIFEGUARD measures reverse paths from still-reachable intermediate
    /// hops during an outage rather than from the unreachable destination.
    /// `cached` prices the probe cost against a warm atlas.
    pub fn reverse_traceroute(
        &mut self,
        dp: &DataPlane<'_>,
        now: Time,
        observer: AsId,
        target: AsId,
        cached: bool,
    ) -> Option<Vec<RouterId>> {
        let rt = self.ping(dp, now, observer, infra_addr(target));
        let cost = if cached {
            self.cfg.rt_cached_option_probes
        } else {
            self.cfg.rt_fresh_option_probes
        };
        self.counters.option_probes += cost as u64;
        self.tele.option_probes.add(cost as u64);
        if !rt.responded {
            return None;
        }
        let walk = dp.walk(now, target, infra_addr(observer));
        walk.outcome.delivered().then_some(walk.hops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lg_asmap::GraphBuilder;
    use lg_sim::failures::Failure;
    use lg_sim::Network;

    /// Fig 4-like line: GMU(0) - Level3(1) - TransTelecom(2) - ZSTTK(3) -
    /// Smartkom(4), with Rostelecom(5) on the reverse path only.
    ///
    /// Forward 0→4 goes 0-1-2-3-4; reverse 4→0 goes 4-3-5-1-0 when we make
    /// the reverse prefix selective. We model asymmetry by failing AS5
    /// silently for traffic toward AS0's infra prefix and pinning the
    /// reverse route through it.
    fn fig4_world() -> (Network, AsId, AsId) {
        // Simpler asymmetric construction: line 0-1-2-3-4 as providers
        // downward from 0; reverse traffic from 3 and 4 toward 0 must pass
        // AS5? True path asymmetry needs prefix-specific seeds; we instead
        // announce AS0's infra prefix selectively so the reverse path
        // differs from the forward path.
        let mut g = GraphBuilder::with_ases(6);
        // Forward chain: 0 is reachable via 1 via 2 via 3 via 4 (providers
        // upward from 4's perspective).
        g.provider_customer(AsId(1), AsId(0));
        g.provider_customer(AsId(2), AsId(1));
        g.provider_customer(AsId(3), AsId(2));
        g.provider_customer(AsId(4), AsId(3));
        // AS5: an alternative transit above 1 and below 3 (3's provider
        // path to 1 via 5): 5 is a provider of 1, and 3's provider... keep:
        // 5 provides 1? We want reverse 4→0 to go 4-3-5-...-0.
        g.provider_customer(AsId(5), AsId(1)); // 5 provides 1
        g.provider_customer(AsId(3), AsId(5)); // 3 provides 5 (so 5's route to 0 via 1 exports to 3)
        (Network::new(g.build()), AsId(0), AsId(4))
    }

    #[test]
    fn ping_round_trip_success() {
        let (net, gmu, smart) = fig4_world();
        let dp = DataPlane::new(&net);
        let mut pr = Prober::with_defaults();
        let r = pr.ping(&dp, Time::ZERO, gmu, infra_addr(smart));
        assert!(r.responded, "diagnosis: {:?}", r.diagnosis);
        assert!(r.rtt_ms.unwrap() > 0);
        assert_eq!(pr.counters().pings, 1);
    }

    #[test]
    fn ping_detects_forward_loss() {
        let (net, gmu, smart) = fig4_world();
        let mut dp = DataPlane::new(&net);
        dp.failures_mut().add(Failure::silent_as_toward(
            AsId(2),
            lg_sim::dataplane::infra_prefix(smart),
        ));
        let mut pr = Prober::with_defaults();
        let r = pr.ping(&dp, Time::ZERO, gmu, infra_addr(smart));
        assert!(!r.responded);
        assert_eq!(r.diagnosis, PingDiagnosis::ForwardLoss(AsId(2)));
    }

    #[test]
    fn ping_detects_reverse_loss() {
        let (net, gmu, smart) = fig4_world();
        let mut dp = DataPlane::new(&net);
        dp.failures_mut().add(Failure::silent_as_toward(
            AsId(2),
            lg_sim::dataplane::infra_prefix(gmu),
        ));
        let mut pr = Prober::with_defaults();
        let r = pr.ping(&dp, Time::ZERO, gmu, infra_addr(smart));
        assert!(!r.responded);
        assert_eq!(r.diagnosis, PingDiagnosis::ReverseLoss(AsId(2)));
    }

    #[test]
    fn spoofed_ping_isolates_direction() {
        // Reverse failure toward GMU: spoofed probes *from* GMU (replies to
        // a healthy vantage V) succeed; probes from V spoofed as GMU fail.
        let (net, gmu, smart) = fig4_world();
        let vantage = AsId(5);
        let mut dp = DataPlane::new(&net);
        dp.failures_mut().add(Failure::silent_as_toward(
            AsId(2),
            lg_sim::dataplane::infra_prefix(gmu),
        ));
        let mut pr = Prober::with_defaults();
        // Sanity: plain ping fails.
        assert!(!pr.ping(&dp, Time::ZERO, gmu, infra_addr(smart)).responded);
        // GMU sends, vantage receives: exercises forward path only.
        let fwd_test = pr.spoofed_ping(&dp, Time::ZERO, gmu, infra_addr(smart), vantage);
        assert!(
            fwd_test.responded,
            "forward path should work: {:?}",
            fwd_test.diagnosis
        );
        // Vantage sends spoofed as GMU: exercises reverse path to GMU.
        let rev_test = pr.spoofed_ping(&dp, Time::ZERO, vantage, infra_addr(smart), gmu);
        assert!(!rev_test.responded, "reverse path is broken");
        assert_eq!(pr.counters().spoofed_pings, 2);
    }

    #[test]
    fn traceroute_full_path_when_healthy() {
        let (net, gmu, smart) = fig4_world();
        let dp = DataPlane::new(&net);
        let mut pr = Prober::with_defaults();
        let tr = pr.traceroute(&dp, Time::ZERO, gmu, infra_addr(smart));
        assert!(tr.reached_destination);
        assert_eq!(
            tr.responsive_as_path(),
            vec![AsId(1), AsId(2), AsId(3), AsId(4)]
        );
        assert_eq!(pr.counters().traceroute_probes, 4);
    }

    #[test]
    fn traceroute_truncates_at_forward_failure() {
        let (net, gmu, smart) = fig4_world();
        let mut dp = DataPlane::new(&net);
        dp.failures_mut().add(Failure::silent_as_toward(
            AsId(3),
            lg_sim::dataplane::infra_prefix(smart),
        ));
        let mut pr = Prober::with_defaults();
        let tr = pr.traceroute(&dp, Time::ZERO, gmu, infra_addr(smart));
        assert!(!tr.reached_destination);
        // Walk dies inside AS3; its ingress responded, nothing beyond.
        assert_eq!(tr.last_responsive_as(), Some(AsId(3)));
    }

    #[test]
    fn traceroute_misleads_under_reverse_failure() {
        // The Fig 4 lesson: a reverse failure in AS2 makes hops beyond AS2
        // look dead even though the forward path is fine.
        let (net, gmu, smart) = fig4_world();
        let mut dp = DataPlane::new(&net);
        dp.failures_mut().add(Failure::silent_as_toward(
            AsId(2),
            lg_sim::dataplane::infra_prefix(gmu),
        ));
        let mut pr = Prober::with_defaults();
        let tr = pr.traceroute(&dp, Time::ZERO, gmu, infra_addr(smart));
        assert!(!tr.reached_destination);
        // Responses from AS1 get home; responses from ASes whose reverse
        // path crosses AS2 die.
        assert_eq!(tr.last_responsive_as(), Some(AsId(1)));
        // But the forward packet really did reach the destination: a
        // spoofed traceroute via a healthy receiver proves it.
        let spoofed = pr.traceroute_to(&dp, Time::ZERO, gmu, infra_addr(smart), AsId(5));
        assert!(spoofed.reached_destination);
        assert_eq!(
            spoofed.responsive_as_path(),
            vec![AsId(1), AsId(2), AsId(3), AsId(4)]
        );
    }

    #[test]
    fn unresponsive_routers_stay_silent() {
        let (net, gmu, smart) = fig4_world();
        let dp = DataPlane::new(&net);
        let mut pr = Prober::with_defaults();
        pr.set_unresponsive(AsId(2));
        let tr = pr.traceroute(&dp, Time::ZERO, gmu, infra_addr(smart));
        let path = tr.responsive_as_path();
        assert!(!path.contains(&AsId(2)), "{path:?}");
        assert!(tr.reached_destination, "gap does not break the traceroute");
        // Pinging the unresponsive AS directly fails...
        let r = pr.ping(&dp, Time::ZERO, gmu, infra_addr(AsId(2)));
        assert_eq!(r.diagnosis, PingDiagnosis::DestIgnoresPings);
        // ...until the config clears.
        pr.set_responsive(AsId(2));
        assert!(pr.ping(&dp, Time::ZERO, gmu, infra_addr(AsId(2))).responded);
    }

    #[test]
    fn rate_limiting_kicks_in_and_resets() {
        let (net, gmu, smart) = fig4_world();
        let dp = DataPlane::new(&net);
        let mut pr = Prober::new(ProberConfig {
            rate_limit_per_sec: 2,
            ..ProberConfig::default()
        });
        let t = Time::ZERO;
        assert!(pr.ping(&dp, t, gmu, infra_addr(smart)).responded);
        assert!(pr.ping(&dp, t, gmu, infra_addr(smart)).responded);
        let third = pr.ping(&dp, t, gmu, infra_addr(smart));
        assert!(!third.responded);
        assert_eq!(third.diagnosis, PingDiagnosis::RateLimited);
        // Next second: budget restored.
        assert!(
            pr.ping(&dp, Time::from_secs(1), gmu, infra_addr(smart))
                .responded
        );
    }

    #[test]
    fn probe_budgets_report_into_scoped_registry() {
        let (net, gmu, smart) = fig4_world();
        let dp = DataPlane::new(&net);
        let reg = lg_telemetry::Registry::new();
        let mut pr = Prober::with_registry(ProberConfig::default(), &reg);
        pr.ping(&dp, Time::ZERO, gmu, infra_addr(smart));
        pr.spoofed_ping(&dp, Time::ZERO, gmu, infra_addr(smart), AsId(5));
        pr.traceroute(&dp, Time::ZERO, gmu, infra_addr(smart));
        pr.reverse_traceroute(&dp, Time::ZERO, gmu, smart, false);
        pr.charge_pings(5);
        pr.charge_option_probes(2);

        // The registry mirrors the per-instance accounting exactly.
        let c = pr.counters();
        let snap = reg.snapshot();
        assert_eq!(snap.counter("probe.pings"), Some(c.pings));
        assert_eq!(snap.counter("probe.spoofed_pings"), Some(c.spoofed_pings));
        assert_eq!(
            snap.counter("probe.traceroute_probes"),
            Some(c.traceroute_probes)
        );
        assert_eq!(snap.counter("probe.option_probes"), Some(c.option_probes));
        assert!(c.pings >= 7 && c.option_probes >= 37, "{c:?}");
    }

    #[test]
    fn reverse_traceroute_requires_bidirectional_connectivity() {
        let (net, gmu, smart) = fig4_world();
        let mut dp = DataPlane::new(&net);
        let mut pr = Prober::with_defaults();
        // Healthy: get the reverse path, pay the fresh cost.
        let hops = pr
            .reverse_traceroute(&dp, Time::ZERO, gmu, smart, false)
            .expect("healthy reverse traceroute");
        assert_eq!(hops.first().unwrap().owner, smart);
        assert_eq!(hops.last().unwrap().owner, gmu);
        assert_eq!(pr.counters().option_probes, 35);
        // Cached refresh is cheaper.
        pr.reverse_traceroute(&dp, Time::ZERO, gmu, smart, true);
        assert_eq!(pr.counters().option_probes, 45);
        // Under a reverse failure, it cannot complete.
        dp.failures_mut().add(Failure::silent_as_toward(
            AsId(2),
            lg_sim::dataplane::infra_prefix(gmu),
        ));
        assert!(pr
            .reverse_traceroute(&dp, Time::ZERO, gmu, smart, false)
            .is_none());
    }

    /// Case count of the memo differential: `LG_FUZZ_SEEDS` when set (CI's
    /// filter-matrix job runs 4000), else a quick default.
    fn fuzz_cases() -> u32 {
        std::env::var("LG_FUZZ_SEEDS")
            .ok()
            .map(|v| v.parse().expect("LG_FUZZ_SEEDS must be an integer"))
            .unwrap_or(256)
    }

    /// A less-specific over every infra /24 (a sentinel's role), and an
    /// address only it covers.
    fn covering() -> lg_bgp::Prefix {
        lg_bgp::Prefix::from_octets(10, 0, 0, 0, 8)
    }
    const COVERED_ONLY: u32 = u32::from_be_bytes([10, 200, 0, 1]);
    const UNROUTED: u32 = u32::from_be_bytes([99, 0, 0, 1]);

    /// One memoized and one reference prober, each reporting into its own
    /// registry, driven through identical calls.
    struct Twin {
        memo: Prober,
        reference: Prober,
        memo_reg: Registry,
        reference_reg: Registry,
    }

    impl Twin {
        fn new(rate_limit_per_sec: u32) -> Self {
            let cfg = ProberConfig {
                rate_limit_per_sec,
                ..ProberConfig::default()
            };
            let (memo_reg, reference_reg) = (Registry::new(), Registry::new());
            Twin {
                memo: Prober::with_registry(cfg, &memo_reg),
                reference: Prober::with_registry(cfg, &reference_reg),
                memo_reg,
                reference_reg,
            }
        }

        fn ping(
            &mut self,
            dp: &DataPlane<'_>,
            now: Time,
            src: AsId,
            src_addr: u32,
            dst_addr: u32,
        ) -> Result<(), String> {
            let got = self.memo.ping_from_addr(dp, now, src, src_addr, dst_addr);
            let want = self
                .reference
                .ping_from_addr_reference(dp, now, src, src_addr, dst_addr);
            if got == want {
                return Ok(());
            }
            Err(format!(
                "ping {src} {src_addr:#x} -> {dst_addr:#x} at {now:?}: memo {got:?}, reference {want:?}"
            ))
        }

        fn agree(&self) -> Result<(), String> {
            if self.memo.counters() != self.reference.counters() {
                return Err(format!(
                    "counters: memo {:?}, reference {:?}",
                    self.memo.counters(),
                    self.reference.counters()
                ));
            }
            let (m, r) = (self.memo_reg.snapshot(), self.reference_reg.snapshot());
            for name in [
                "probe.pings",
                "probe.spoofed_pings",
                "probe.traceroute_probes",
                "probe.option_probes",
            ] {
                if m.counter(name) != r.counter(name) {
                    return Err(format!(
                        "{name}: memo {:?}, reference {:?}",
                        m.counter(name),
                        r.counter(name)
                    ));
                }
            }
            Ok(())
        }
    }

    /// Drive one memoized and one reference prober through `steps` on two
    /// small-topology planes. Each step is `(op, x, y)`: `op` picks what
    /// happens, `x` and `y` pick where. Pings run between the ASes of a
    /// three-AS pool, so memo entries are read again, and failures land on
    /// the path the step's ping would take, so they hit what the memo holds.
    fn memo_case(topo: u64, rate: u32, steps: &[(u8, u32, u32)]) -> Result<(), String> {
        use lg_asmap::TopologyConfig;
        use lg_sim::dataplane::infra_prefix;
        use lg_sim::AnnouncementSpec;

        let nets = [
            Network::new(TopologyConfig::small(topo).generate()),
            Network::new(TopologyConfig::small(topo + 1).generate()),
        ];
        let mut planes = [DataPlane::new(&nets[0]), DataPlane::new(&nets[1])];
        let n = nets[0].len().min(nets[1].len()) as u32;
        let pool = [0, 1, 2].map(|i| AsId((topo as u32 * 7 + i * 17) % n));
        let mut twin = Twin::new(rate);
        let (mut now, mut cur) = (Time::from_secs(60), 0);
        for (step, &(op, x, y)) in steps.iter().enumerate() {
            let (net, dp) = (&nets[cur], &mut planes[cur]);
            let src = pool[x as usize % 3];
            let src_addr = if x / 3 % 2 == 0 {
                infra_addr(src)
            } else {
                COVERED_ONLY
            };
            let dst_addr = match y % 5 {
                k @ 0..=2 => infra_addr(pool[k as usize]),
                3 => COVERED_ONLY,
                _ => UNROUTED,
            };
            // An AS on the path this step's ping takes, and its next hop.
            let hops = dp.walk(now, src, dst_addr).as_hops();
            let i = (y / 5) as usize % hops.len();
            let (on_path, next) = (hops[i], hops.get(i + 1).copied());
            let at_step = |e: String| format!("topology {topo} step {step} op {op}: {e}");
            match op {
                0..=3 => twin
                    .ping(dp, now, src, src_addr, dst_addr)
                    .map_err(at_step)?,
                // A burst within one second, past the rate limit.
                4 => {
                    for _ in 0..rate + 2 + y % 3 {
                        twin.ping(dp, now, src, src_addr, dst_addr)
                            .map_err(at_step)?;
                    }
                }
                // Time moves a little, to the next second, a round ahead,
                // or exactly onto a failure window's edge (maybe backwards).
                5 => {
                    let edges: Vec<Time> = dp
                        .failures()
                        .iter()
                        .flat_map(|f| std::iter::once(f.from).chain(f.until))
                        .collect();
                    now = match x % 4 {
                        0 => now + 1,
                        1 => Time::from_secs(now.as_secs() + 1),
                        2 => now + 30_000,
                        _ if edges.is_empty() => now + 999,
                        _ => edges[y as usize % edges.len()],
                    };
                }
                // A failure on the path whose window starts or ends exactly
                // at now, or opens a second later.
                6 | 7 => {
                    let failure = match x / 6 % 4 {
                        0 => Failure::silent_as(on_path),
                        1 => Failure::silent_as_toward(on_path, infra_prefix(src)),
                        2 => Failure::silent_as_toward(on_path, covering()),
                        _ => match next {
                            Some(m) => Failure::silent_link(on_path, m),
                            None => Failure::silent_as(on_path),
                        },
                    };
                    let (from, until) = match x / 24 % 4 {
                        0 => (now, None),
                        1 => (Time::ZERO, Some(now)),
                        2 => (now + 1_000, Some(now + 60_000)),
                        _ => (now, Some(now + 1)),
                    };
                    dp.failures_mut().add(failure.window(from, until));
                }
                8 => dp.failures_mut().clear(),
                // The covering prefix comes and goes.
                9 => {
                    dp.announce(&AnnouncementSpec::plain(net, covering(), src));
                }
                10 => dp.withdraw(covering()),
                // A pool AS's infra prefix re-announced poisoned, or plain.
                11 => {
                    let (origin, p) = (pool[y as usize % 3], infra_prefix(pool[y as usize % 3]));
                    let spec = if x % 2 == 0 {
                        AnnouncementSpec::poisoned(net, p, origin, &[on_path])
                    } else {
                        AnnouncementSpec::plain(net, p, origin)
                    };
                    dp.announce(&spec);
                }
                12 => {
                    if x % 2 == 0 {
                        twin.memo.set_unresponsive(on_path);
                        twin.reference.set_unresponsive(on_path);
                    } else {
                        twin.memo.set_responsive(on_path);
                        twin.reference.set_responsive(on_path);
                    }
                }
                // Infra slots fill between memoized pings, without
                // re-stamping the plane.
                13 => {
                    let generation = dp.generation();
                    dp.walk(now, on_path, infra_addr(AsId(y % n)));
                    dp.table(infra_prefix(AsId(x % n)));
                    if dp.generation() != generation {
                        return Err(at_step("a fill re-stamped the plane".into()));
                    }
                }
                // A re-announced pool infra prefix falls back to its slot.
                14 => dp.withdraw(infra_prefix(pool[y as usize % 3])),
                // The other plane takes over.
                _ => cur = 1 - cur,
            }
            twin.agree().map_err(at_step)?;
        }
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(fuzz_cases()))]

        /// The memo is exact. Over random pings, bursts past the rate limit,
        /// failures whose windows open or close exactly at `now`, cleared
        /// failure sets, a covering prefix announced and withdrawn, infra
        /// prefixes re-announced poisoned and withdrawn, infra slots filled
        /// between pings, responsiveness flips and two data planes
        /// alternating under one prober, every ping answers what
        /// fresh walks answer and the accounting never drifts.
        #[test]
        fn ping_memo_matches_fresh_walks(
            topo in 0u64..1_000,
            rate in 0u32..4,
            steps in proptest::collection::vec((0u8..16, proptest::any::<u32>(), proptest::any::<u32>()), 1..64),
        ) {
            let run = memo_case(topo, rate, &steps);
            proptest::prop_assert!(run.is_ok(), "{}", run.unwrap_err());
        }
    }
}
