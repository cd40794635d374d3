//! Integration: the event-driven engine must converge to the static fixed
//! point for arbitrary generated topologies and announcement shapes — the
//! property that justifies using the static engine for the large-scale
//! studies.

use lifeguard_repro::asmap::{AsId, TopologyConfig};
use lifeguard_repro::bgp::Prefix;
use lifeguard_repro::sim::{
    compute_routes, AnnouncementSpec, DynamicSim, DynamicSimConfig, Network, Time,
};

fn check_equivalence(net: &Network, specs: &[AnnouncementSpec]) {
    let mut sim = DynamicSim::new(net, DynamicSimConfig::default());
    for spec in specs {
        sim.announce(spec);
        sim.run_until_quiescent(Time::from_mins(120));
        assert!(sim.quiescent(), "must quiesce");
        let table = compute_routes(net, spec);
        for a in net.graph().ases() {
            if a == spec.origin {
                continue;
            }
            let dynamic = sim.loc_route(a, spec.prefix).map(|r| r.learned_from);
            assert_eq!(
                dynamic,
                table.next_hop(a),
                "{a} disagrees for {} (origin {})",
                spec.prefix,
                spec.origin
            );
        }
    }
}

#[test]
fn dynamic_matches_static_across_topologies_and_announcements() {
    for seed in [1u64, 2, 3] {
        let graph = TopologyConfig::calibrated(64, seed).generate();
        let net = Network::new(graph);
        let stubs: Vec<AsId> = net
            .graph()
            .ases()
            .filter(|a| net.graph().is_stub(*a) && net.graph().providers(*a).len() >= 2)
            .collect();
        let origin = stubs[0];
        let prefix = Prefix::from_octets(184, 164, 224, 0, 20);
        let transit = net.graph().providers(origin)[0];
        let above: Vec<AsId> = net.graph().providers(transit);
        let poison_target = if above.is_empty() { transit } else { above[0] };

        let specs = vec![
            AnnouncementSpec::plain(&net, prefix, origin),
            AnnouncementSpec::prepended(&net, prefix, origin, 3),
            AnnouncementSpec::poisoned(&net, prefix, origin, &[poison_target]),
            // Back to baseline (unpoison transition).
            AnnouncementSpec::prepended(&net, prefix, origin, 3),
        ];
        check_equivalence(&net, &specs);
    }
}

#[test]
fn dynamic_matches_static_for_selective_poisoning() {
    let graph = TopologyConfig::calibrated(64, 17).generate();
    let net = Network::new(graph);
    let origin = net
        .graph()
        .ases()
        .find(|a| net.graph().is_stub(*a) && net.graph().providers(*a).len() >= 2)
        .unwrap();
    let providers = net.graph().providers(origin);
    let prefix = Prefix::from_octets(184, 164, 224, 0, 20);
    // Poison some AS two levels up, via the first provider only.
    let above = net.graph().providers(providers[0]);
    let target = if above.is_empty() {
        providers[1]
    } else {
        above[0]
    };
    let spec = AnnouncementSpec::selective_poison(&net, prefix, origin, &[target], &[providers[0]]);
    check_equivalence(&net, &[spec]);
}

#[test]
fn policy_quirks_agree_across_engines() {
    use lifeguard_repro::bgp::{ImportPolicy, LoopDetection};
    // Lenient loop detection (§7.1) and the Cogent-style peer filter must
    // behave identically in both engines.
    let graph = TopologyConfig::calibrated(64, 31).generate();
    let mut net = Network::new(graph);
    let origin = net
        .graph()
        .ases()
        .find(|a| net.graph().is_stub(*a) && net.graph().providers(*a).len() >= 2)
        .unwrap();
    let provider = net.graph().providers(origin)[0];
    let above = net.graph().providers(provider);
    if above.is_empty() {
        return;
    }
    let lenient = above[0];
    net.set_policy(
        lenient,
        ImportPolicy {
            loop_detection: LoopDetection::max_occurrences(1),
            ..ImportPolicy::standard()
        },
    );
    let prefix = Prefix::from_octets(184, 164, 224, 0, 20);
    for poisons in [vec![lenient], vec![lenient, lenient]] {
        let spec = AnnouncementSpec::uniform(
            &net,
            prefix,
            origin,
            lifeguard_repro::bgp::AsPath::poisoned(origin, &poisons),
        );
        check_equivalence(&net, std::slice::from_ref(&spec));
        let table = compute_routes(&net, &spec);
        if poisons.len() == 1 {
            assert!(table.has_route(lenient), "single poison ignored");
        } else {
            assert!(!table.has_route(lenient), "double poison sticks");
        }
    }
}

#[test]
fn filtered_policies_agree_across_engines() {
    use lifeguard_repro::workloads::FilterMatrix;
    // Every filter-matrix point: import-time filtering (path-length caps,
    // poison drops, reserved-ASN drops) must produce the same fixed point
    // in both engines, for plain, prepended, and poisoned announcements.
    for matrix in FilterMatrix::ALL {
        for seed in [5u64, 29] {
            let graph = TopologyConfig::calibrated(64, seed).generate();
            let mut net = Network::new(graph);
            matrix.apply(&mut net, seed);
            let origin = net
                .graph()
                .ases()
                .find(|a| net.graph().is_stub(*a) && net.graph().providers(*a).len() >= 2)
                .unwrap();
            let prefix = Prefix::from_octets(184, 164, 224, 0, 20);
            let transit = net.graph().providers(origin)[0];
            let above = net.graph().providers(transit);
            let poison_target = if above.is_empty() { transit } else { above[0] };
            let specs = vec![
                AnnouncementSpec::plain(&net, prefix, origin),
                AnnouncementSpec::prepended(&net, prefix, origin, 4),
                AnnouncementSpec::poisoned(&net, prefix, origin, &[poison_target]),
                AnnouncementSpec::prepended(&net, prefix, origin, 8),
            ];
            println!(
                "engine equivalence: matrix {} seed {seed} origin {origin}",
                matrix.label()
            );
            check_equivalence(&net, &specs);
        }
    }
}

#[test]
fn dynamic_matches_static_on_calibrated_topology() {
    // The Internet-calibrated generator produces a very different shape from
    // the presets (power-law degrees, deep stub fan-out); both engines must
    // still agree. Debug builds use a smaller instance so `cargo test` stays
    // fast; release CI runs the full 10k. The topology seed is replayable
    // via `LG_CHURN_SEED`.
    let n = if cfg!(debug_assertions) {
        2_000
    } else {
        10_000
    };
    let seed = match std::env::var("LG_CHURN_SEED") {
        Ok(s) => s
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("LG_CHURN_SEED must be a u64, got {s:?}")),
        Err(_) => 11,
    };
    let graph = TopologyConfig::calibrated(n, seed).generate();
    let net = Network::new(graph);
    let origin = net
        .graph()
        .ases()
        .find(|a| net.graph().is_stub(*a) && net.graph().providers(*a).len() >= 2)
        .unwrap();
    let prefix = Prefix::from_octets(184, 164, 224, 0, 20);
    let transit = net.graph().providers(origin)[0];
    let above = net.graph().providers(transit);
    let poison_target = if above.is_empty() { transit } else { above[0] };
    let specs = vec![
        AnnouncementSpec::plain(&net, prefix, origin),
        AnnouncementSpec::poisoned(&net, prefix, origin, &[poison_target]),
    ];
    check_equivalence(&net, &specs);
}

#[test]
fn withdrawals_clear_state_in_both_engines() {
    let graph = TopologyConfig::calibrated(64, 23).generate();
    let net = Network::new(graph);
    let origin = net
        .graph()
        .ases()
        .find(|a| net.graph().is_stub(*a))
        .unwrap();
    let prefix = Prefix::from_octets(184, 164, 224, 0, 20);
    let spec = AnnouncementSpec::plain(&net, prefix, origin);
    let mut sim = DynamicSim::new(&net, DynamicSimConfig::default());
    sim.announce(&spec);
    sim.run_until_quiescent(Time::from_mins(60));
    sim.withdraw(prefix);
    sim.run_until_quiescent(Time::from_mins(120));
    for a in net.graph().ases() {
        assert!(sim.loc_route(a, prefix).is_none(), "{a} kept a route");
    }
}
