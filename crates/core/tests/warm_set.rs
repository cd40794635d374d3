//! The atlas warm-up measures only what a deployment can observe: the
//! monitored targets and the ASes on the paths between them and the origin.
//! On a `repair_loop`-shaped world (an origin and 16 multihomed-stub
//! targets on a calibrated topology) that set must leave isolation's inputs
//! exactly as a warm-up of every AS leaves them.

use lg_asmap::{AsId, TopologyConfig};
use lg_atlas::RefreshScheduler;
use lg_bgp::Prefix;
use lg_sim::{Network, Time};
use lifeguard_core::{Lifeguard, LifeguardConfig, World};
use std::time::Instant;

/// A world with LIFEGUARD installed (which warms the atlas) for an origin
/// and 16 targets, all multihomed stubs, in id order.
fn installed(net: &Network) -> (World<'_>, AsId, Vec<AsId>) {
    let g = net.graph();
    let mut stubs = g
        .ases()
        .filter(|a| g.is_stub(*a) && g.providers(*a).len() >= 2);
    let origin = stubs.next().expect("a multihomed stub");
    let mut cfg = LifeguardConfig::paper_defaults(
        origin,
        Prefix::from_octets(184, 164, 224, 0, 20),
        Prefix::from_octets(184, 164, 224, 0, 19),
    );
    cfg.targets = stubs.take(16).collect();
    let mut world = World::new(net);
    Lifeguard::new(cfg.clone()).install(&mut world, Time::ZERO);
    (world, origin, cfg.targets)
}

#[test]
fn narrowed_warm_up_leaves_isolation_inputs_unchanged() {
    let net = Network::new(TopologyConfig::calibrated(2_000, 20_120_813).generate());
    let (narrow, origin, targets) = installed(&net);
    let warm = narrow.warm_set(origin, &targets);
    assert_eq!(warm[..targets.len()], targets[..], "targets come first");
    assert!(warm.len() < net.len() / 4, "{} ASes warmed", warm.len());
    // One forward and one reverse path per warmed AS.
    assert_eq!(narrow.atlas.entry_count(), 2 * warm.len());

    // The warm-up as it was: every AS but the origin, targets first.
    let mut full = World::new(&net);
    let rest = net
        .graph()
        .ases()
        .filter(|a| *a != origin && !targets.contains(a));
    let pairs = targets
        .iter()
        .copied()
        .chain(rest)
        .map(|a| (origin, a))
        .collect();
    let (dp, prober, atlas, resp) = (&full.dp, &mut full.prober, &mut full.atlas, &mut full.resp);
    RefreshScheduler::new(pairs, 60_000).refresh_due(dp, prober, atlas, resp, Time::ZERO);

    // Isolation tests the atlas's candidates, the traceroute's hops (on the
    // recorded forward path) and the target: all inside the warm set, and
    // each judged by the same responsiveness history as before.
    for t in &targets {
        let candidates = narrow.atlas.candidate_ases(origin, *t);
        assert_eq!(candidates, full.atlas.candidate_ases(origin, *t), "{t}");
        for a in candidates.iter().filter(|a| **a != origin) {
            assert!(warm.contains(a), "candidate {a} of {t} was not warmed");
        }
    }
    for a in &warm {
        let learned = |w: &World<'_>| (w.resp.silence_is_meaningful(*a), w.resp.ever_responded(*a));
        assert_eq!(learned(&narrow), learned(&full), "responsiveness of {a}");
    }
}

/// The `repair_loop` world at calibrated-10k: `World::new` computes nothing
/// and `install` fills only the warm set's infra tables. Prints the wall
/// time of both; CI runs it in release mode.
#[test]
fn calibrated_10k_world_installs_on_its_warm_set() {
    let net = Network::new(TopologyConfig::calibrated_10k(20_120_813).generate());
    let started = Instant::now();
    let (world, origin, targets) = installed(&net);
    let wall = started.elapsed().as_secs_f64();
    let warm = world.warm_set(origin, &targets);
    println!(
        "calibrated-10k: World::new + install in {wall:.3} s, {} ASes warmed",
        warm.len()
    );
    assert!(warm.len() < 200, "{} ASes warmed", warm.len());
    assert_eq!(world.atlas.entry_count(), 2 * warm.len());
}
