//! Multi-prefix workload regressions: the properties that break first
//! when single-prefix assumptions creep back into the engine.
//!
//! Three pins, one per historical failure mode:
//!
//! * **Determinism** — with many prefixes in flight, any `HashMap<Prefix,
//!   _>` iteration feeding event order would make two identical runs
//!   diverge (per-instance SipHash keys randomize iteration order even
//!   within one process). Two runs of a fail/restore-heavy multi-prefix
//!   schedule must be byte-identical.
//! * **Longest-prefix match** — a covering prefix must keep carrying
//!   traffic when its more-specific is withdrawn, in both the static
//!   data plane and the dynamic engine's FIB (which now resolve through
//!   the prefix trie rather than scanning every installed prefix).
//! * **Per-event cost** — out-queue state must stay O(log p) or better
//!   in the installed-prefix count. Announcing the last block of a large
//!   prefix table must cost close to what the first block cost; the
//!   pre-fix linear scans made it ~p× worse.

use lifeguard_repro::asmap::{AsId, GraphBuilder};
use lifeguard_repro::bgp::Prefix;
use lifeguard_repro::sim::{
    AnnouncementSpec, DataPlane, DynamicSim, DynamicSimConfig, Network, Time,
};
use lifeguard_repro::workloads::churn::{
    churn_network, generate_ops, ChurnConfig, ChurnRunner, ChurnWorld,
};

/// Fig 2's seven-AS shape — small enough that per-prefix propagation is a
/// handful of events, which is what the cost regression needs.
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

/// A dense, disjoint prefix table: /22s strided so no entry covers
/// another (the LPM test covers the covering case explicitly).
fn table_prefix(i: u32) -> Prefix {
    Prefix::new(0x2000_0000 + (i << 10), 22)
}

/// Byte-identical reruns under a prefix pool with covering pairs and
/// fail/restore churn. Catches map-iteration order leaking into event
/// order anywhere between announce and the update log.
#[test]
fn multi_prefix_churn_is_deterministic_across_runs() {
    let net = churn_network(64, 0x5EED);
    let world = ChurnWorld::with_prefix_count(&net, 6);
    // Fail/restore-heavy: double the default op count at dense advances
    // so link flaps interleave with per-prefix announce/withdraw cycles.
    let ops = generate_ops(&ChurnConfig {
        seed: 0x5EED,
        ops: 48,
        advance_max_ms: 20_000,
    });

    let run = || {
        let mut sim = DynamicSim::new(&net, DynamicSimConfig::default());
        sim.record_updates(true);
        for p in &world.prefixes {
            sim.begin_epoch(*p);
        }
        let mut runner = ChurnRunner::new(&world);
        for op in &ops {
            runner.apply(&mut sim, &net, op);
        }
        let tick = sim.run_until_quiescent(sim.now() + Time::from_mins(600).millis());
        assert!(sim.quiescent(), "schedule did not quiesce");
        let locs: Vec<_> = world
            .prefixes
            .iter()
            .flat_map(|p| {
                net.graph().ases().map(|a| {
                    (
                        *p,
                        a,
                        sim.loc_route(a, *p)
                            .map(|r| (r.learned_from, r.path.hops().to_vec())),
                    )
                })
            })
            .collect();
        (tick, sim.now(), sim.update_log().to_vec(), locs)
    };

    let first = run();
    let second = run();
    assert_eq!(first.0, second.0, "quiescence ticks diverge between runs");
    assert_eq!(first.1, second.1, "final clocks diverge between runs");
    let n = first.2.len().min(second.2.len());
    for i in 0..n {
        assert_eq!(
            first.2[i], second.2[i],
            "update logs diverge at record #{i} — map iteration order is \
             leaking into event order"
        );
    }
    assert_eq!(first.2.len(), second.2.len(), "update log lengths diverge");
    assert_eq!(first.3, second.3, "Loc-RIBs diverge between runs");
    // The schedule must actually exercise multiple prefixes.
    let distinct: std::collections::BTreeSet<Prefix> = first.2.iter().map(|r| r.prefix).collect();
    assert!(
        distinct.len() >= 2,
        "schedule only touched {distinct:?} — not a multi-prefix workload"
    );
}

/// Static data plane: withdrawing a more-specific falls back to the
/// covering prefix, through the trie-backed FIB.
#[test]
fn static_lookup_falls_back_to_covering_prefix_on_withdraw() {
    let net = fig2();
    let covered = Prefix::from_octets(184, 164, 224, 0, 20);
    let covering = Prefix::from_octets(184, 164, 224, 0, 19);
    let addr = covered.an_addr();
    assert!(covering.covers(covered), "test prefixes must nest");

    let mut dp = DataPlane::new(&net);
    // Covering /19 from AS5, more-specific /20 from AS0: traffic to the
    // /20 must follow the more-specific while it exists.
    dp.announce(&AnnouncementSpec::plain(&net, covering, AsId(5)));
    dp.announce(&AnnouncementSpec::plain(&net, covered, AsId(0)));
    let w = dp.walk(Time::ZERO, AsId(4), addr);
    assert!(w.outcome.delivered());
    assert_eq!(w.as_hops().last(), Some(&AsId(0)), "more-specific ignored");

    // Withdraw the /20: the same address must now ride the covering /19.
    dp.withdraw(covered);
    let w = dp.walk(Time::ZERO, AsId(4), addr);
    assert!(w.outcome.delivered(), "covering prefix not matched");
    assert_eq!(w.as_hops().last(), Some(&AsId(5)), "wrong covering owner");
}

/// Dynamic engine: same covered/covering fallback over live Loc-RIBs.
#[test]
fn dynamic_lookup_falls_back_to_covering_prefix_on_withdraw() {
    let net = fig2();
    let covered = Prefix::from_octets(184, 164, 224, 0, 20);
    let covering = Prefix::from_octets(184, 164, 224, 0, 19);
    let addr = covered.an_addr();

    let mut sim = DynamicSim::new(&net, DynamicSimConfig::default());
    sim.announce(&AnnouncementSpec::plain(&net, covering, AsId(5)));
    sim.announce(&AnnouncementSpec::plain(&net, covered, AsId(0)));
    sim.run_until_quiescent(Time::from_mins(30));
    assert!(sim.quiescent());
    let w = sim.walk(AsId(4), addr);
    assert!(w.outcome.delivered());
    assert_eq!(w.as_hops().last(), Some(&AsId(0)), "more-specific ignored");

    sim.withdraw(covered);
    sim.run_until_quiescent(Time::from_mins(60));
    assert!(sim.quiescent());
    let w = sim.walk(AsId(4), addr);
    assert!(w.outcome.delivered(), "covering prefix not matched");
    assert_eq!(w.as_hops().last(), Some(&AsId(5)), "wrong covering owner");
}

/// Per-event cost stays flat as the installed table grows: announcing the
/// last block of a 12k-prefix table must cost comparably to the first
/// block. With the pre-fix O(p) linear probes this ratio was ~p/block,
/// two orders of magnitude over the gate.
#[test]
fn per_event_cost_does_not_scale_with_installed_prefixes() {
    const BLOCK: u32 = 1_024;
    const BLOCKS: u32 = 12;
    let net = fig2();
    let mut sim = DynamicSim::new(&net, DynamicSimConfig::default());

    let mut block_walls = Vec::new();
    for b in 0..BLOCKS {
        let start = std::time::Instant::now();
        for i in (b * BLOCK)..((b + 1) * BLOCK) {
            sim.announce(&AnnouncementSpec::plain(&net, table_prefix(i), AsId(0)));
            sim.run_until_quiescent(sim.now() + Time::from_mins(30).millis());
        }
        assert!(sim.quiescent(), "block {b} did not quiesce");
        block_walls.push(start.elapsed());
    }
    std::hint::black_box(&sim);

    // Compare the medians of the first and last thirds so one-off noise
    // (allocator growth, scheduler hiccups) can't flip the verdict.
    let third = (BLOCKS / 3) as usize;
    let mut early: Vec<_> = block_walls[..third].to_vec();
    let mut late: Vec<_> = block_walls[BLOCKS as usize - third..].to_vec();
    early.sort();
    late.sort();
    let (early_med, late_med) = (early[third / 2], late[third / 2]);
    let ratio = late_med.as_secs_f64() / early_med.as_secs_f64().max(1e-9);
    assert!(
        ratio <= 4.0,
        "per-event cost grows with installed prefixes: first-third median \
         {early_med:?}, last-third median {late_med:?} (ratio {ratio:.2}, gate 4.0) — \
         out-queue state is scanning linearly again"
    );
}
