//! Property-based invariants of the routing engines, checked over randomly
//! generated Internet-like topologies and announcement shapes.

use lifeguard_repro::asmap::{is_valley_free, AsId, TopologyConfig};
use lifeguard_repro::bgp::Prefix;
use lifeguard_repro::sim::dataplane::DataPlane;
use lifeguard_repro::sim::{compute_routes, AnnouncementSpec, Network, RouteTable, Time};
use proptest::prelude::*;

fn prefix() -> Prefix {
    Prefix::from_octets(184, 164, 224, 0, 20)
}

/// The forwarding chain of `a` toward the table's origin.
fn forwarding_chain(table: &RouteTable, a: AsId) -> Vec<AsId> {
    let mut chain = vec![a];
    let mut cur = a;
    while let Some(nh) = table.next_hop(cur) {
        chain.push(nh);
        cur = nh;
        assert!(chain.len() <= 64, "forwarding chain too long: {chain:?}");
    }
    chain
}

/// Build a world and one announcement variant selected by `variant`.
fn build(seed: u64, variant: u8) -> (Network, AnnouncementSpec, Option<AsId>) {
    let net = Network::new(TopologyConfig::calibrated(64, seed).generate());
    let origin = net
        .graph()
        .ases()
        .find(|a| net.graph().is_stub(*a) && net.graph().providers(*a).len() >= 2)
        .expect("generated topology has multihomed stubs");
    // A poison target two levels up, when one exists.
    let provider = net.graph().providers(origin)[0];
    let poison = net.graph().providers(provider).first().copied();
    let spec = match variant % 4 {
        0 => AnnouncementSpec::plain(&net, prefix(), origin),
        1 => AnnouncementSpec::prepended(&net, prefix(), origin, 3),
        2 => match poison {
            Some(p) => AnnouncementSpec::poisoned(&net, prefix(), origin, &[p]),
            None => AnnouncementSpec::plain(&net, prefix(), origin),
        },
        _ => {
            let providers = net.graph().providers(origin);
            match poison {
                Some(p) => AnnouncementSpec::selective_poison(
                    &net,
                    prefix(),
                    origin,
                    &[p],
                    &providers[..1],
                ),
                None => AnnouncementSpec::prepended(&net, prefix(), origin, 3),
            }
        }
    };
    let poisoned = matches!(variant % 4, 2).then_some(poison).flatten();
    (net, spec, poisoned)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Forwarding chains always terminate at the origin without loops, and
    /// the chain is valley-free (Gao-Rexford export discipline holds end to
    /// end).
    #[test]
    fn chains_terminate_and_are_valley_free(seed in 0u64..5000, variant in 0u8..4) {
        let (net, spec, _) = build(seed, variant);
        let table = compute_routes(&net, &spec);
        for a in net.graph().ases() {
            if a == spec.origin || !table.has_route(a) {
                continue;
            }
            let chain = forwarding_chain(&table, a);
            prop_assert_eq!(*chain.last().unwrap(), spec.origin);
            // No AS repeats on the chain.
            let mut seen = chain.clone();
            seen.sort_unstable();
            seen.dedup();
            prop_assert_eq!(seen.len(), chain.len(), "loop in {:?}", chain);
            prop_assert!(
                is_valley_free(net.graph(), &chain),
                "valley in {:?}", chain
            );
        }
    }

    /// Under standard loop detection, no AS holds a route whose received
    /// path contains its own ASN, and a globally poisoned AS never keeps a
    /// route nor appears on anyone's forwarding chain.
    #[test]
    fn poison_semantics(seed in 0u64..5000) {
        let (net, spec, poisoned) = build(seed, 2);
        let table = compute_routes(&net, &spec);
        for a in net.graph().ases() {
            if a == spec.origin {
                continue;
            }
            if let Some(r) = table.route(a) {
                prop_assert!(!r.path.contains(a), "{a} accepted a looped path");
            }
        }
        if let Some(p) = poisoned {
            prop_assert!(!table.has_route(p), "poisoned {p} kept a route");
            for a in net.graph().ases() {
                if a == spec.origin || a == p || !table.has_route(a) {
                    continue;
                }
                let chain = forwarding_chain(&table, a);
                prop_assert!(
                    !chain.contains(&p),
                    "{a} still forwards through poisoned {p}: {chain:?}"
                );
            }
        }
    }

    /// The data plane delivers for exactly the ASes that have a route (no
    /// failures installed), and longest-prefix match keeps sentinel and
    /// production tables consistent.
    #[test]
    fn dataplane_matches_control_plane(seed in 0u64..5000, variant in 0u8..4) {
        let (net, spec, _) = build(seed, variant);
        let mut dp = DataPlane::new(&net);
        dp.announce(&spec);
        let table = dp.table(spec.prefix).unwrap().clone();
        for a in net.graph().ases() {
            let w = dp.walk(Time::ZERO, a, spec.prefix.nth_addr(1));
            if table.has_route(a) || a == spec.origin {
                prop_assert!(
                    w.outcome.delivered(),
                    "{a} has a route but walk failed: {:?}", w.outcome
                );
                prop_assert_eq!(w.last_as(), Some(spec.origin));
            } else {
                prop_assert!(!w.outcome.delivered(), "{a} has no route but delivered");
            }
        }
    }

    /// A sentinel less-specific never *reduces* reachability: any AS that
    /// can reach the production address with only the production prefix
    /// announced can still reach it when the sentinel is added, and ASes
    /// without a production route gain the sentinel fallback whenever they
    /// have a sentinel route.
    #[test]
    fn sentinel_only_adds_reachability(seed in 0u64..5000) {
        let (net, spec, poisoned) = build(seed, 2);
        let sentinel = Prefix::from_octets(184, 164, 224, 0, 19);
        let mut dp = DataPlane::new(&net);
        dp.announce(&spec);
        let before: Vec<bool> = net
            .graph()
            .ases()
            .map(|a| dp.walk(Time::ZERO, a, spec.prefix.nth_addr(1)).outcome.delivered())
            .collect();
        dp.announce(&AnnouncementSpec::prepended(&net, sentinel, spec.origin, 3));
        let sentinel_table = dp.table(sentinel).unwrap().clone();
        for (i, a) in net.graph().ases().enumerate() {
            let after = dp.walk(Time::ZERO, a, spec.prefix.nth_addr(1)).outcome.delivered();
            prop_assert!(
                after >= before[i],
                "{a} lost reachability when the sentinel was added"
            );
            if !before[i] && sentinel_table.has_route(a) {
                prop_assert!(after, "{a} has a sentinel route but no delivery");
            }
        }
        let _ = poisoned;
    }
}
