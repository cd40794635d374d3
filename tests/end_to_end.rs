//! Integration: the full LIFEGUARD pipeline on generated Internet-like
//! topologies.

use lifeguard_repro::asmap::{AsId, TopologyConfig};
use lifeguard_repro::bgp::Prefix;
use lifeguard_repro::lifeguard::{EventKind, Lifeguard, LifeguardConfig, World};
use lifeguard_repro::sim::dataplane::infra_prefix;
use lifeguard_repro::sim::failures::Failure;
use lifeguard_repro::sim::{Network, Time};

fn production() -> Prefix {
    Prefix::from_octets(184, 164, 224, 0, 20)
}

fn sentinel() -> Prefix {
    Prefix::from_octets(184, 164, 224, 0, 19)
}

struct Scenario {
    net: Network,
    origin: AsId,
    target: AsId,
    vps: Vec<AsId>,
}

fn scenario(seed: u64) -> Scenario {
    let graph = TopologyConfig::calibrated(64, seed).generate();
    let net = Network::new(graph);
    let stubs: Vec<AsId> = net
        .graph()
        .ases()
        .filter(|a| net.graph().is_stub(*a) && net.graph().providers(*a).len() >= 2)
        .collect();
    assert!(stubs.len() >= 4, "need enough multihomed stubs");
    Scenario {
        origin: stubs[0],
        target: *stubs.last().unwrap(),
        vps: vec![stubs[1], stubs[2]],
        net,
    }
}

fn run_minutes(lg: &mut Lifeguard, world: &mut World<'_>, from: Time, minutes: u64) -> Time {
    let mut t = from;
    let end = Time(from.millis() + minutes * 60_000);
    while t <= end {
        lg.tick(world, t);
        t += 30_000;
    }
    t
}

#[test]
fn repair_loop_on_generated_topologies() {
    let mut repaired_somewhere = false;
    for seed in [3u64, 5, 9] {
        let sc = scenario(seed);
        let mut cfg = LifeguardConfig::paper_defaults(sc.origin, production(), sentinel());
        cfg.targets = vec![sc.target];
        cfg.vantage_points = sc.vps.clone();
        let mut world = World::new(&sc.net);
        let mut lg = Lifeguard::new(cfg);
        lg.install(&mut world, Time::ZERO);

        let t = run_minutes(&mut lg, &mut world, Time::from_secs(60), 5);

        // Fail the first transit AS on the reverse path from the target.
        let rev = world.dp.walk(t, sc.target, production().nth_addr(1));
        assert!(rev.outcome.delivered());
        let transit = rev.as_hops()[1];
        let heal = Time(t.millis() + 3_600_000);
        for p in [production(), sentinel(), infra_prefix(sc.origin)] {
            world
                .dp
                .failures_mut()
                .add(Failure::silent_as_toward(transit, p).window(t, Some(heal)));
        }

        let t = run_minutes(&mut lg, &mut world, t, 15);
        let detected = lg
            .events()
            .iter()
            .any(|e| matches!(e.kind, EventKind::OutageDetected { .. }));
        assert!(detected, "seed {seed}: outage must be detected");

        let poisoned = lg
            .events()
            .iter()
            .any(|e| matches!(e.kind, EventKind::Poisoned { .. }));
        let skipped = lg
            .events()
            .iter()
            .any(|e| matches!(e.kind, EventKind::PoisonSkipped { .. }));
        assert!(
            poisoned || skipped,
            "seed {seed}: isolation must lead to a decision"
        );
        if poisoned {
            let repaired = lg
                .events()
                .iter()
                .any(|e| matches!(e.kind, EventKind::Repaired { .. }));
            // A repair only follows when an alternate path exists; when it
            // does, traffic must actually flow again.
            if repaired {
                repaired_somewhere = true;
                let w = world.dp.walk(t, sc.target, production().nth_addr(1));
                assert!(
                    w.outcome.delivered(),
                    "seed {seed}: repaired target must be reachable"
                );
            }
            // After the heal the poison must clear.
            run_minutes(&mut lg, &mut world, Time(heal.millis() + 60_000), 10);
            assert!(
                lg.events()
                    .iter()
                    .any(|e| matches!(e.kind, EventKind::Unpoisoned { .. })),
                "seed {seed}: poison must be withdrawn after heal"
            );
        }
    }
    assert!(
        repaired_somewhere,
        "at least one scenario should repair successfully"
    );
}

#[test]
fn monitoring_does_not_misfire_on_healthy_networks() {
    for seed in [11u64, 13] {
        let sc = scenario(seed);
        let mut cfg = LifeguardConfig::paper_defaults(sc.origin, production(), sentinel());
        cfg.targets = vec![sc.target];
        cfg.vantage_points = sc.vps.clone();
        let mut world = World::new(&sc.net);
        let mut lg = Lifeguard::new(cfg);
        lg.install(&mut world, Time::ZERO);
        run_minutes(&mut lg, &mut world, Time::from_secs(60), 30);
        assert!(lg.events().is_empty(), "seed {seed}: {:?}", lg.events());
    }
}

#[test]
fn forward_failures_are_not_poisoned_blindly() {
    // A forward failure scoped to our flow: LIFEGUARD isolates it as
    // Forward; poisoning controls reverse paths, and the planner must still
    // produce a sane outcome (either a justified poison of the culprit or a
    // skip) — never a poison of an exonerated AS.
    let sc = scenario(21);
    let mut cfg = LifeguardConfig::paper_defaults(sc.origin, production(), sentinel());
    cfg.targets = vec![sc.target];
    cfg.vantage_points = sc.vps.clone();
    let mut world = World::new(&sc.net);
    let mut lg = Lifeguard::new(cfg);
    lg.install(&mut world, Time::ZERO);
    let t = run_minutes(&mut lg, &mut world, Time::from_secs(60), 5);

    let fwd = world
        .dp
        .walk(t, sc.origin, infra_prefix(sc.target).an_addr());
    let hops = fwd.as_hops();
    assert!(hops.len() >= 3);
    let transit = hops[1];
    world
        .dp
        .failures_mut()
        .add(Failure::silent_as_toward(transit, infra_prefix(sc.target)).window(t, None));

    run_minutes(&mut lg, &mut world, t, 15);
    // Whatever the decision, any poisoned AS must be the blamed culprit.
    for e in lg.events() {
        if let EventKind::Poisoned { poisoned, .. } = e.kind {
            let blamed = lg.events().iter().find_map(|e| match &e.kind {
                EventKind::IsolationCompleted { blame: Some(b), .. } => Some(b.poison_target()),
                _ => None,
            });
            assert_eq!(Some(poisoned), blamed);
        }
    }
}
