use super::*;
use crate::packing::tests::ReferencePacker;
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
            to: x,
            slot: sim.slot_of_peer(x, from).unwrap() as u32,
            prefix,
            epoch: 0,
            path,
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
fn record_slots_follow_the_adjacency_row() {
    // A node's candidate and out-state arrays hold `degree` slots per
    // record, in adjacency order, so a neighbor's slot is its index in the
    // row: an UPDATE arrives carrying it, and nothing searches or
    // allocates per neighbor. Checked on every record a converged medium
    // topology holds.
    let net = Network::new(lg_asmap::gen::TopologyConfig::medium(13).generate());
    let g = net.graph();
    let origin = g.ases().find(|a| g.is_stub(*a)).unwrap();
    let mut sim = DynamicSim::new(&net, cfg());
    sim.announce(&AnnouncementSpec::plain(&net, pfx(), origin));
    sim.run_until_quiescent(Time::from_mins(60));
    let id = PrefixId::of(pfx());
    let (mut held, mut filled) = (0, 0);
    for a in g.ases() {
        let node = &sim.nodes[a.index()];
        let Some(ri) = node.index_of(id) else {
            continue;
        };
        assert_eq!(node.recs.len(), 1, "one prefix, one record at {a}");
        assert_eq!(node.cands.len(), g.degree(a), "candidate slots at {a}");
        assert_eq!(node.out.len(), g.degree(a), "out slots at {a}");
        let cands = node.cands_of(ri);
        held += 1;
        filled += cands.iter().filter(|c| c.is_some()).count();
        // A selected route learned from a neighbor sits in that
        // neighbor's row slot.
        if let Some(loc) = node.recs[ri].loc.filter(|_| a != origin) {
            let slot = sim.slot_of_peer(a, loc.learned_from).unwrap();
            assert!(cands[slot].is_some(), "{a}'s selection has no slot");
            assert_eq!(g.neighbors(a)[slot], (loc.learned_from, loc.rel));
        }
    }
    assert_eq!(held, g.len(), "every AS hears the announcement");
    assert_eq!(
        sim.out_state_entries(),
        g.ases().map(|a| g.degree(a)).sum::<usize>()
    );
    assert_eq!(sim.adj_entries(), filled);
    // The receiver-side slot map inverts every row.
    for a in g.ases() {
        for (i, &(b, _)) in g.neighbors(a).iter().enumerate() {
            let back = sim.rev_slot[sim.edge(a, i)] as usize;
            assert_eq!(g.neighbors(b)[back].0, a);
        }
    }
    // Looking up every neighbor of the busiest node allocates nothing:
    // the hub keeps its slot arrays and its record count.
    let hub = g.ases().max_by_key(|a| g.degree(*a)).unwrap();
    let before = sim.nodes[hub.index()].recs.len();
    for &(p, _) in g.neighbors(hub) {
        let slot = sim.slot_of_peer(hub, p).unwrap();
        assert_eq!(g.neighbors(hub)[slot].0, p);
    }
    assert_eq!(sim.nodes[hub.index()].recs.len(), before);
    assert_eq!(sim.nodes[hub.index()].cands.len(), g.degree(hub));
    // A second prefix appends the hub's slots after the first record's,
    // which stay where they were.
    let first: Vec<Cand> = sim.nodes[hub.index()].cands.clone();
    let other = Prefix::from_octets(10, 1, 0, 0, 16);
    sim.announce(&AnnouncementSpec::plain(&net, other, origin));
    sim.run_until_quiescent(Time::from_mins(120));
    let node = &sim.nodes[hub.index()];
    let (r0, r1) = (
        node.index_of(id).unwrap(),
        node.index_of(PrefixId::of(other)).unwrap(),
    );
    assert_eq!((r0, r1), (0, 1), "records in arrival order");
    assert_eq!(node.cands_of(r0), &first[..]);
    assert_eq!(node.cands.len(), 2 * g.degree(hub));
    assert_eq!(
        sim.out_state_entries(),
        2 * g.ases().map(|a| g.degree(a)).sum::<usize>()
    );
}

#[test]
fn hot_structures_keep_their_sizes() {
    // An Adj-RIB-In slot is a path id and its hop count, an out slot a
    // deadline, a path id and a flag; a queued event with its seq is 32
    // bytes, its list link kept apart.
    assert_eq!(std::mem::size_of::<Cand>(), 8);
    assert_eq!(std::mem::size_of::<rib::OutSlot>(), 16);
    assert_eq!(std::mem::size_of::<Event>(), 24);
    assert_eq!(std::mem::size_of::<crate::time::WheelEntry<Event>>(), 32);
}

#[test]
fn loop_tally_reports_queue_peak() {
    // Chain O(0) <- B(1) <- C(2), MRAI 100 ms without jitter. The
    // announcement reaches C at once; re-announcing a longer path at
    // t=5 makes B defer its change to C behind a timer due at B's first
    // send + 100, which fires once.
    let mut g = GraphBuilder::with_ases(3);
    g.provider_customer(AsId(1), AsId(0));
    g.provider_customer(AsId(2), AsId(1));
    let net = Network::new(g.build());
    let reg = lg_telemetry::Registry::new();
    let mut sim = DynamicSim::with_registry(
        &net,
        DynamicSimConfig {
            mrai_ms: 100,
            mrai_jitter: false,
            ..cfg()
        },
        &reg,
    );
    sim.announce(&AnnouncementSpec::plain(&net, pfx(), AsId(0)));
    sim.run_until(Time(5));
    assert_eq!(sim.pending_events(), 1);
    sim.announce(&AnnouncementSpec::prepended(&net, pfx(), AsId(0), 3));
    // Two seeds in flight now: the plain path and its replacement.
    assert_eq!(sim.pending_events(), 2);
    sim.run_until_quiescent(Time::from_mins(1));
    assert_eq!(
        sim.loc_route(AsId(2), pfx()).unwrap().path.len(),
        4,
        "C ends on the prepended path"
    );
    let snap = reg.snapshot();
    assert_eq!(snap.counter("dynamic.events_mrai_fire"), Some(1));
    assert_eq!(snap.gauge("dynamic.queue_peak"), Some(2));
}

/// Every `dynamic.*` and `packing.*` counter the engine reports.
const COUNTERS: [&str; 17] = [
    "dynamic.updates_sent",
    "dynamic.updates_received",
    "dynamic.withdrawals_sent",
    "dynamic.mrai_deferrals",
    "dynamic.loc_rib_changes",
    "dynamic.updates_packed",
    "dynamic.wire_updates",
    "dynamic.wire_bytes",
    "dynamic.wire_bytes_unpacked",
    "dynamic.events_recv",
    "dynamic.events_mrai_fire",
    "dynamic.stale_drops",
    "dynamic.decision_runs",
    "dynamic.interner_hits",
    "dynamic.interner_misses",
    "packing.groups",
    "packing.encodes",
];

/// How many of [`COUNTERS`], from the front, count single UPDATE-path
/// events; the rest are the event loop's, the interner's and the
/// packer's own tallies.
const PER_EVENT: usize = 9;

/// Drive two prefixes on Fig 2 through every public call that can move a
/// counter, calling `check` after each with the call's name and whether it
/// ran events: two announcements in one tick (which pack), a partial run,
/// a withdrawal, a session failure with UPDATEs in flight and its restore,
/// and a poisoning.
fn drive_every_public_call(
    reg: &lg_telemetry::Registry,
    check: &mut dyn FnMut(&str, bool, &DynamicSim),
) {
    let net = fig2();
    let (o, b, c) = (AsId(0), AsId(2), AsId(3));
    let other = Prefix::from_octets(10, 1, 0, 0, 16);
    let mut sim = DynamicSim::with_registry(&net, cfg(), reg);
    sim.record_updates(true);
    sim.announce(&AnnouncementSpec::plain(&net, pfx(), o));
    sim.announce(&AnnouncementSpec::plain(&net, other, o));
    check("announce", false, &sim);
    sim.run_until(Time(50));
    check("run_until", true, &sim);
    sim.run_until_quiescent(Time::from_mins(30));
    check("run_until_quiescent", true, &sim);
    // O's withdrawal reaches B 41 ms on, and B's, sent at once, reaches C
    // 26 ms later: 50 ms on, it is in flight and dies with the session.
    let t = sim.now();
    sim.withdraw(other);
    check("withdraw", false, &sim);
    sim.run_until(t + 50);
    check("run_until", true, &sim);
    sim.fail_link(c, b);
    check("fail_link", false, &sim);
    sim.run_until_quiescent(Time::from_mins(60));
    check("run_until_quiescent", true, &sim);
    sim.restore_link(c, b);
    check("restore_link", false, &sim);
    sim.announce(&AnnouncementSpec::poisoned(&net, pfx(), o, &[AsId(1)]));
    check("announce", false, &sim);
    sim.run_until_quiescent(Time::from_mins(90));
    check("run_until_quiescent", true, &sim);
}

#[test]
fn registry_counters_are_exact_after_every_public_call() {
    // The registry after each call of `drive_every_public_call` under an
    // atomic increment per event, with the other tallies added at the end
    // of each run only. The plain tallies must read the same: the
    // per-event counters after every call, the rest after every run
    // (between runs they lead these values, since every call reports).
    #[rustfmt::skip]
    const WANT: [[u64; 17]; 10] = [
        [2, 0, 0, 0, 0, 1, 1, 49, 92, 0, 0, 0, 0, 0, 0, 0, 0], // announce
        [6, 2, 0, 0, 2, 3, 3, 155, 292, 2, 0, 0, 2, 2, 2, 3, 2], // run_until
        [20, 20, 2, 0, 14, 10, 10, 542, 1024, 20, 0, 0, 20, 7, 7, 10, 6], // run_until_quiescent
        [21, 20, 3, 0, 14, 10, 11, 568, 1050, 20, 0, 0, 20, 7, 7, 10, 6], // withdraw
        [23, 21, 5, 0, 15, 10, 13, 620, 1102, 21, 0, 0, 21, 7, 7, 13, 6], // run_until
        [25, 21, 7, 0, 17, 11, 14, 649, 1154, 21, 0, 0, 21, 7, 7, 13, 6], // fail_link
        [33, 32, 13, 0, 26, 13, 20, 847, 1434, 33, 0, 1, 34, 8, 8, 20, 6], // run_until_quiescent
        [34, 32, 13, 1, 26, 13, 21, 913, 1500, 33, 0, 1, 34, 8, 8, 20, 6], // restore_link
        [35, 32, 13, 1, 26, 13, 22, 967, 1554, 33, 0, 1, 34, 8, 8, 20, 6], // announce
        [45, 44, 18, 3, 32, 13, 32, 1411, 1998, 45, 2, 1, 46, 12, 15, 32, 8], // run_until_quiescent
    ];
    let reg = lg_telemetry::Registry::new();
    let mut reference = ReferencePacker::new();
    let (mut ref_paths, mut ref_tally) = (lg_bgp::PathInterner::new(), LoopTally::default());
    let mut logged = 0;
    let mut step = 0;
    drive_every_public_call(&reg, &mut |call, ran, sim| {
        let snap = reg.snapshot();
        let got: Vec<u64> = COUNTERS
            .iter()
            .map(|n| snap.counter(n).unwrap_or(0))
            .collect();
        let exact = if ran { COUNTERS.len() } else { PER_EVENT };
        assert_eq!(
            got[..exact],
            WANT[step][..exact],
            "after {call} (step {step})"
        );

        // The same counts, recovered from what the engine exposes.
        let log = sim.update_log();
        let c = |name: &str| got[COUNTERS.iter().position(|n| *n == name).unwrap()];
        assert_eq!(c("dynamic.updates_sent"), log.len() as u64);
        let withdrawals = log.iter().filter(|r| r.path.is_none()).count();
        assert_eq!(c("dynamic.withdrawals_sent"), withdrawals as u64);
        let loc_changes: u64 = [pfx(), Prefix::from_octets(10, 1, 0, 0, 16)]
            .iter()
            .map(|p| sim.metrics(*p).loc_changes.values().sum::<u64>())
            .sum();
        assert_eq!(c("dynamic.loc_rib_changes"), loc_changes);
        assert_eq!(c("dynamic.interner_misses"), sim.interned_paths() as u64);
        assert_eq!(
            c("dynamic.updates_received") + c("dynamic.stale_drops"),
            c("dynamic.events_recv")
        );

        // The packer against the encode-every-chunk reference, fed the
        // logged stream. The engine closes its groups at the end of each
        // run; between runs, the reference is read through a flushed copy.
        for r in &log[logged..] {
            let slot = sim.slot_of_peer(r.from, r.to).unwrap();
            let path = match &r.path {
                Some(hops) => ref_paths.intern(&AsPath::from_hops(hops.clone())),
                None => PathId::EMPTY,
            };
            let edge = sim.edge(r.from, slot) as u32;
            reference.observe(
                r.at,
                edge,
                r.from,
                r.prefix,
                path,
                &ref_paths,
                &mut ref_tally,
            );
        }
        logged = log.len();
        let want = if ran {
            reference.flush(&ref_paths, &mut ref_tally);
            ref_tally.clone()
        } else {
            let mut tally = ref_tally.clone();
            reference.clone().flush(&ref_paths, &mut tally);
            tally
        };
        let wire = [
            ("dynamic.updates_packed", want.updates_packed),
            ("dynamic.wire_updates", want.wire_updates),
            ("dynamic.wire_bytes", want.wire_bytes),
            ("dynamic.wire_bytes_unpacked", want.wire_bytes_unpacked),
        ];
        for (name, value) in wire {
            assert_eq!(c(name), value, "{name} after {call} (step {step})");
        }
        step += 1;
    });
    assert_eq!(step, WANT.len());
    assert!(
        WANT[WANT.len() - 1].iter().all(|&v| v > 0),
        "a counter never moved"
    );
}
