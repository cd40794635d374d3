//! Telemetry smoke gate: exercises every instrumented subsystem against
//! the process-global registry and asserts that the key counters actually
//! moved, that the flight recorder captured the subsystems' spans, and that
//! the time-series sampler renders Prometheus text. If any subsystem stops
//! reporting, tier-1 turns red.
//!
//! One `#[test]` in its own integration-test binary: the global registry
//! and the install-once recorder are process-wide, so nothing else may
//! share the process.

use lg_asmap::{AsId, GraphBuilder};
use lg_bgp::{ImportPolicy, Prefix};
use lg_probe::{Prober, ProberConfig};
use lg_sim::dataplane::{infra_addr, infra_prefix, DataPlane};
use lg_sim::failures::Failure;
use lg_sim::{AnnouncementSpec, DynamicSim, DynamicSimConfig, Network, SharedRouteCache, Time};
use lifeguard_core::{Lifeguard, LifeguardConfig, World};

/// The recurring Fig-2 evaluation world: O(0) under B(2); B under C(3) and
/// A(1); C under D(4); A and D under E(5); F(6) behind A; vantage points
/// under C and E.
fn fig2_world() -> Network {
    let mut g = GraphBuilder::with_ases(9);
    g.provider_customer(AsId(2), AsId(0));
    g.provider_customer(AsId(3), AsId(2));
    g.provider_customer(AsId(1), AsId(2));
    g.provider_customer(AsId(4), AsId(3));
    g.provider_customer(AsId(5), AsId(1));
    g.provider_customer(AsId(5), AsId(4));
    g.provider_customer(AsId(6), AsId(1));
    g.provider_customer(AsId(3), AsId(7));
    g.provider_customer(AsId(5), AsId(8));
    Network::new(g.build())
}

fn pfx() -> Prefix {
    Prefix::from_octets(184, 164, 224, 0, 20)
}

/// Route-cache traffic: a poison sweep (misses: one parent fill, then
/// derivations), a re-query (hits), and a footprint-scoped invalidation
/// (evictions by scope).
fn exercise_cache() {
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
        cache.compute(&net, spec); // misses
    }
    for spec in &sweep {
        cache.compute(&net, spec); // hits
    }
    net.set_policy(
        AsId(3),
        ImportPolicy {
            loop_detection: lg_bgp::LoopDetection::disabled(),
            ..ImportPolicy::standard()
        },
    );
    cache.compute(&net, &sweep[0]); // footprint eviction + recompute
}

/// Dynamic-engine traffic: baseline convergence, a poison transition
/// landing inside the MRAI shadow (deferrals, withdrawals), then a session
/// reset while an UPDATE is in flight over it (a stale drop).
fn exercise_dynamic() {
    let net = fig2_world();
    let mut sim = DynamicSim::new(&net, DynamicSimConfig::default());
    sim.announce(&AnnouncementSpec::prepended(&net, pfx(), AsId(0), 3));
    sim.run_until_quiescent(Time::from_mins(30));
    sim.announce(&AnnouncementSpec::poisoned(
        &net,
        pfx(),
        AsId(0),
        &[AsId(1)],
    ));
    sim.run_until_quiescent(Time::from_mins(60));
    assert!(sim.quiescent(), "dynamic engine must reach quiescence");
    // Past every MRAI timer, un-poison; 60 ms on, B (41 ms from the origin)
    // has passed the route to A (45 ms further) and the B-A session flaps.
    sim.run_until(sim.now() + 120_000);
    sim.announce(&AnnouncementSpec::prepended(&net, pfx(), AsId(0), 3));
    sim.run_until(sim.now() + 60);
    sim.fail_link(AsId(2), AsId(1));
    sim.restore_link(AsId(2), AsId(1));
    sim.run_until_quiescent(sim.now() + 30 * 60_000);
    assert!(sim.quiescent(), "dynamic engine must settle after the flap");
}

/// Probe-budget traffic: plain pings against a healthy world.
fn exercise_prober() {
    let net = fig2_world();
    let spec = AnnouncementSpec::prepended(&net, pfx(), AsId(0), 3);
    let mut dp = DataPlane::new(&net);
    dp.announce(&spec);
    let mut pr = Prober::new(ProberConfig::default());
    for target in [AsId(3), AsId(5)] {
        pr.ping(&dp, Time::from_secs(60), AsId(0), infra_addr(target));
    }
}

/// Repair-loop traffic: outage -> isolation -> poison -> repair.
fn exercise_core() {
    let net = fig2_world();
    let mut world = World::new(&net);
    let sentinel = Prefix::from_octets(184, 164, 224, 0, 19);
    let mut cfg = LifeguardConfig::paper_defaults(AsId(0), pfx(), sentinel);
    cfg.targets = vec![AsId(5)];
    cfg.vantage_points = vec![AsId(7), AsId(8)];
    let mut lg = Lifeguard::new(cfg);
    lg.install(&mut world, Time::ZERO);

    let mut t = Time::from_secs(60);
    let tick_minutes = |lg: &mut Lifeguard, world: &mut World<'_>, from: Time, minutes: u64| {
        let mut t = from;
        let end = from + minutes * 60_000;
        while t <= end {
            lg.tick(world, t);
            t += lg.config().ping_interval_ms;
        }
        t
    };
    t = tick_minutes(&mut lg, &mut world, t, 5);
    for covered in [pfx(), sentinel, infra_prefix(AsId(0))] {
        world
            .dp
            .failures_mut()
            .add(Failure::silent_as_toward(AsId(1), covered).window(t, None));
    }
    tick_minutes(&mut lg, &mut world, t, 10);
    assert!(lg.poisoning_active(), "the repair loop must apply a poison");
}

#[test]
fn every_instrumented_subsystem_reports() {
    // The flight recorder and the time-series sampler are part of the
    // observability surface under test, not opt-in extras here.
    let rec = lg_telemetry::trace::enable(lg_telemetry::trace::DEFAULT_CAPACITY);
    lg_telemetry::sample_global_timeseries(0);

    exercise_cache();
    exercise_dynamic();
    exercise_prober();
    exercise_core();

    lg_telemetry::sample_global_timeseries(1);
    let snap = lg_telemetry::global().snapshot();
    let mut failed = Vec::new();

    // Every instrumented subsystem must have reported. A zero here means
    // an instrumentation point regressed.
    for name in [
        "cache.hits",
        "cache.misses",
        "cache.evictions.footprint",
        "cache.parent_fills",
        "compute.runs",
        "compute.arena_nodes",
        "compute.delta_runs",
        "compute.delta_candidates",
        "dynamic.updates_sent",
        "dynamic.updates_received",
        "dynamic.withdrawals_sent",
        "dynamic.mrai_deferrals",
        "dynamic.loc_rib_changes",
        "dynamic.events_recv",
        "dynamic.events_mrai_fire",
        "dynamic.stale_drops",
        "dynamic.decision_runs",
        "dynamic.interner_hits",
        "dynamic.interner_misses",
        "packing.groups",
        "packing.encodes",
        "probe.pings",
        "core.outages_detected",
        "core.poisons_applied",
    ] {
        match snap.counter(name) {
            Some(v) if v > 0 => {}
            Some(_) => failed.push(format!("counter {name} is zero")),
            None => failed.push(format!("counter {name} missing from the registry")),
        }
    }
    for name in [
        "compute.wall_us",
        "compute.delta_region",
        "dynamic.quiescence_ms",
        "core.isolation_ms",
    ] {
        if snap.histogram(name).is_none_or(|h| h.count == 0) {
            failed.push(format!("histogram {name} missing or empty"));
        }
    }

    // Flight recorder: the exercised subsystems must have left spans and
    // lifecycle instants in the ring, and the Chrome export must carry
    // them. The two `compute.*` kernel spans are what `trace_gate` times:
    // if they stopped recording, its overhead bound would pass trivially.
    let trace = rec.snapshot();
    if trace.iter().map(|t| t.events.len()).sum::<usize>() == 0 {
        failed.push("flight recorder captured no events".into());
    }
    let trace_json = lg_telemetry::trace::export_chrome(&trace);
    for marker in [
        "compute.seed",
        "compute.drain",
        "cache.miss_fill",
        "cache.delta_fill",
        "dynamic.quiescence",
        "repair.outage_detected",
        "repair.poisoned",
    ] {
        if !trace_json.contains(marker) {
            failed.push(format!("flight recorder missing event {marker}"));
        }
    }

    // Time series: two samples must yield a Prometheus rendering with the
    // cache counter present.
    let prom = lg_telemetry::global_timeseries()
        .lock()
        .unwrap()
        .render_prometheus();
    if !prom.contains("lg_cache_hits_total") {
        failed.push("prometheus rendering missing lg_cache_hits_total".into());
    }

    assert!(failed.is_empty(), "{failed:#?}\n{}", snap.render_table());
}
