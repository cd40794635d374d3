//! Quickstart: run LIFEGUARD end-to-end on a small synthetic Internet.
//!
//! Builds an Internet-like topology, deploys a LIFEGUARD instance at an
//! edge AS, injects a silent reverse-path failure in a transit AS, and
//! watches the system detect, locate, poison, and eventually unpoison.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use lifeguard_repro::asmap::{AsId, TopologyConfig};
use lifeguard_repro::bgp::Prefix;
use lifeguard_repro::lifeguard::{Lifeguard, LifeguardConfig, World};
use lifeguard_repro::sim::dataplane::infra_prefix;
use lifeguard_repro::sim::failures::Failure;
use lifeguard_repro::sim::{Network, Time};

fn main() {
    // A 64-AS Internet: tier-1 clique, transit tiers, multihomed stubs.
    let graph = TopologyConfig::calibrated(64, 7).generate();
    let net = Network::new(graph);

    // Pick an edge AS as our origin and a far-away stub as the monitored
    // destination; use two other stubs as vantage points.
    let stubs: Vec<AsId> = net
        .graph()
        .ases()
        .filter(|a| net.graph().is_stub(*a) && net.graph().providers(*a).len() >= 2)
        .collect();
    let origin = stubs[0];
    let target = *stubs.last().unwrap();
    let vantage_points = vec![stubs[1], stubs[2]];
    println!("origin {origin}, monitored target {target}, vantage points {vantage_points:?}");

    let production = Prefix::from_octets(184, 164, 224, 0, 20);
    let sentinel = Prefix::from_octets(184, 164, 224, 0, 19);
    let mut cfg = LifeguardConfig::paper_defaults(origin, production, sentinel);
    cfg.targets = vec![target];
    cfg.vantage_points = vantage_points;

    let mut world = World::new(&net);
    let mut lifeguard = Lifeguard::new(cfg);
    lifeguard.install(&mut world, Time::ZERO);

    // Ten healthy minutes.
    let mut now = Time::from_secs(60);
    while now < Time::from_mins(10) {
        lifeguard.tick(&mut world, now);
        now += 30_000;
    }

    // Inject a silent reverse-path failure in the first transit AS on the
    // reverse path from the target back to us.
    let reverse_walk = world.dp.walk(now, target, production.nth_addr(1));
    let transit = reverse_walk.as_hops()[1];
    println!("\ninjecting silent reverse-path failure in {transit} at {now}");
    let heal_at = now + 3_600_000;
    for p in [production, sentinel, infra_prefix(origin)] {
        world
            .dp
            .failures_mut()
            .add(Failure::silent_as_toward(transit, p).window(now, Some(heal_at)));
    }

    // Run through the outage and an hour past the heal time.
    while now < heal_at + 1_200_000 {
        lifeguard.tick(&mut world, now);
        now += 30_000;
    }

    println!("\nLIFEGUARD event log:");
    for e in lifeguard.events() {
        println!("  {e}");
    }

    let repaired = lifeguard.events().iter().any(|e| {
        matches!(
            e.kind,
            lifeguard_repro::lifeguard::EventKind::Repaired { .. }
        )
    });
    let unpoisoned = lifeguard.events().iter().any(|e| {
        matches!(
            e.kind,
            lifeguard_repro::lifeguard::EventKind::Unpoisoned { .. }
        )
    });
    println!("\nrepaired: {repaired}, unpoisoned after heal: {unpoisoned}");
}
