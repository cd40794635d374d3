//! Structural invariants of the topology generator, across sizes and seeds.
//!
//! LIFEGUARD's simulation methodology assumes every AS can reach every
//! other over at least one valley-free path in the intact topology; a
//! generator that silently emits a disconnected stub invalidates
//! reachability results without failing any test. These properties pin down
//! what every generated graph must satisfy:
//!
//! * connected (single component),
//! * no self-loops, no duplicate links, relationship-consistent,
//! * tier-monotone: providers sit in a strictly lower-numbered tier than
//!   their customers, peers sit in the same tier (valley-free policy
//!   consistency at the structural level).

use lg_asmap::gen::TopologyConfig;
use lg_asmap::graph::AsGraph;
use lg_asmap::ids::AsId;
use lg_asmap::relationship::Relationship;
use proptest::prelude::*;

/// BFS from AS 0; returns the number of reachable ASes.
fn component_size(g: &AsGraph) -> usize {
    if g.is_empty() {
        return 0;
    }
    let mut seen = vec![false; g.len()];
    let mut queue = std::collections::VecDeque::from([AsId(0)]);
    seen[0] = true;
    let mut count = 1;
    while let Some(a) = queue.pop_front() {
        for (n, _) in g.neighbors(a) {
            if !seen[n.index()] {
                seen[n.index()] = true;
                count += 1;
                queue.push_back(*n);
            }
        }
    }
    count
}

fn assert_invariants(g: &AsGraph) {
    assert_eq!(
        component_size(g),
        g.len(),
        "graph is disconnected ({} of {} reachable from AS 0)",
        component_size(g),
        g.len()
    );
    let mut entries = 0;
    for a in g.ases() {
        let row = g.neighbors(a);
        // Rows are sorted and strictly increasing: no self-loops or
        // duplicate links can hide in the CSR layout.
        assert!(
            row.windows(2).all(|w| w[0].0 < w[1].0),
            "unsorted or duplicate adjacency at {a}"
        );
        for (n, r) in row {
            entries += 1;
            assert_ne!(*n, a, "self-loop at {a}");
            assert_eq!(
                g.relationship(*n, a),
                Some(r.reverse()),
                "asymmetric relationship {a}-{n}"
            );
            match r {
                // `a` sees `n` as its customer: `a` is the provider.
                Relationship::Customer => assert!(
                    g.tier(a) < g.tier(*n),
                    "provider {a} (tier {}) not above customer {n} (tier {})",
                    g.tier(a),
                    g.tier(*n)
                ),
                Relationship::Provider => assert!(
                    g.tier(a) > g.tier(*n),
                    "customer {a} (tier {}) not below provider {n} (tier {})",
                    g.tier(a),
                    g.tier(*n)
                ),
                Relationship::Peer => {
                    assert_eq!(g.tier(a), g.tier(*n), "cross-tier peering {a}-{n}")
                }
            }
        }
    }
    assert_eq!(entries, 2 * g.edge_count(), "edge count out of sync");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn calibrated_is_connected_and_tier_monotone(
        seed in any::<u64>(),
        n in 64usize..4_000,
    ) {
        let g = TopologyConfig::calibrated(n, seed).generate();
        assert_invariants(&g);
        // Fixtures at every size pick a multihomed stub as the origin and
        // a tier-2 AS as a transit to fail.
        assert!(
            g.ases().any(|a| g.is_stub(a) && g.providers(a).len() >= 2),
            "no multihomed stub at n = {n}"
        );
        assert!(g.ases().any(|a| g.tier(a) == 2), "no tier-2 AS at n = {n}");
    }
}

/// The CI-facing sizes, one seed each — a cheap smoke that the presets the
/// scalability bench uses satisfy the same invariants at full size.
#[test]
fn calibrated_presets_hold_invariants_at_scale() {
    assert_invariants(&TopologyConfig::calibrated_10k(1).generate());
    if std::env::var("LG_SCALE_MAX").is_ok() {
        assert_invariants(&TopologyConfig::calibrated_25k(1).generate());
        assert_invariants(&TopologyConfig::calibrated_75k(1).generate());
    }
}
