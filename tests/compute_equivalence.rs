//! Integration: the memoized compute layer must be observationally
//! identical to a scratch `compute_routes` call — for every announcement
//! shape the system issues (plain, prepended, globally poisoned, selectively
//! poisoned), across cache hits, and across
//! generation-bump invalidations. `compute_routes` itself is additionally
//! pinned against the retained owned-path reference engine, and so is every
//! table the cache *derives* from a prepended parent instead of computing.

use std::sync::Arc;

use lifeguard_repro::asmap::{AsId, TopologyConfig};
use lifeguard_repro::bgp::{ImportPolicy, LoopDetection, Prefix};
use lifeguard_repro::sim::static_routes::{compute_routes_reference, RouteTable};
use lifeguard_repro::sim::{compute_routes, AnnouncementSpec, Network, SharedRouteCache};
use lifeguard_repro::workloads::FilterMatrix;
use proptest::prelude::*;

fn pfx() -> Prefix {
    Prefix::from_octets(184, 164, 224, 0, 20)
}

/// A multi-homed stub to originate from (the LIFEGUARD deployment shape).
/// Falls back to any stub when the generated topology has no multi-homed
/// one.
fn pick_origin(net: &Network) -> AsId {
    net.graph()
        .ases()
        .find(|a| net.graph().is_stub(*a) && net.graph().providers(*a).len() >= 2)
        .or_else(|| net.graph().ases().find(|a| net.graph().is_stub(*a)))
        .expect("generated topology has stubs")
}

/// Every announcement shape the repair planner and benches issue. The
/// poison target sits two levels above the origin when the topology is deep
/// enough (the interesting case: reroutes rather than disconnects). The
/// poisoned, double-poisoned and selective entries are the ones the cache
/// derives from the prepended entry of their own length.
fn spec_menu(net: &Network, origin: AsId) -> Vec<AnnouncementSpec> {
    let providers = net.graph().providers(origin);
    let above = net.graph().providers(providers[0]);
    let target = if above.is_empty() {
        providers[0]
    } else {
        above[0]
    };
    let mut specs = vec![
        AnnouncementSpec::plain(net, pfx(), origin),
        AnnouncementSpec::prepended(net, pfx(), origin, 3),
        AnnouncementSpec::poisoned(net, pfx(), origin, &[target]),
        AnnouncementSpec::poisoned(net, pfx(), origin, &[target, target]),
    ];
    if providers.len() >= 2 {
        specs.push(AnnouncementSpec::selective_poison(
            net,
            pfx(),
            origin,
            &[target],
            &providers[..1],
        ));
    }
    specs
}

/// Full observational equality: same prefix, origin, and per-AS selected
/// route (path, neighbor, relationship, communities).
fn assert_same_table(
    label: &str,
    got: &RouteTable,
    want: &RouteTable,
    net: &Network,
) -> Result<(), proptest::TestCaseError> {
    prop_assert_eq!(got.prefix, want.prefix, "{}: prefix", label);
    prop_assert_eq!(got.origin, want.origin, "{}: origin", label);
    for a in net.graph().ases() {
        prop_assert_eq!(got.route(a), want.route(a), "{}: route at {}", label, a);
    }
    Ok(())
}

/// Internet-scale pin: on a calibrated 10k-AS topology the frontier engine
/// must produce a byte-identical fixed point to the retained reference
/// engine — same route at every AS for every announcement shape — while
/// staying inside the memory budget the §5.4 scalability study assumes.
#[test]
fn calibrated_10k_frontier_matches_reference_within_budget() {
    use lifeguard_repro::sim::static_routes::compute_routes_with_stats;

    let net = Network::new(TopologyConfig::calibrated_10k(7).generate());
    let n = net.graph().len();
    assert_eq!(n, 10_000);
    // CSR budget: offsets + flat adjacency + tiers. Calibrated graphs
    // average ~4-5 links per AS, so the whole topology must fit in well
    // under 128 bytes per AS.
    assert!(
        net.graph().memory_bytes() < 128 * n,
        "CSR layout too fat: {} bytes for {} ASes",
        net.graph().memory_bytes(),
        n
    );

    let origin = pick_origin(&net);
    let cache = SharedRouteCache::new();
    for spec in spec_menu(&net, origin) {
        let (got, stats) = compute_routes_with_stats(&net, &spec);
        let want = compute_routes_reference(&net, &spec);
        // Derived from its prepended parent when the spec has one.
        let cached = cache.compute(&net, &spec);
        assert_eq!(got.prefix, want.prefix);
        assert_eq!(got.origin, want.origin);
        for a in net.graph().ases() {
            let route = want.route(a);
            assert_eq!(got.route(a), route, "route at {a} diverged");
            assert_eq!(cached.route(a), route, "cached route at {a} diverged");
        }
        // Table budget: the next-hop tree is four bytes per AS, and the
        // seed paths are stored once, not once per AS that routes via them.
        let seed_bytes: usize = spec.seeds.iter().map(|(_, p)| 64 + 4 * p.len()).sum();
        for table in [&got, &*cached] {
            assert!(
                table.heap_bytes() <= 4 * n + seed_bytes,
                "table holds {} bytes for {} ASes",
                table.heap_bytes(),
                n
            );
        }
        // Frontier budget: the tree gains one node per AS that accepted a
        // route plus the offered seed paths, and the delta queue never
        // buffers more than a small multiple of the AS count.
        let seed_hops: usize = spec.seeds.iter().map(|(_, p)| p.len()).sum();
        assert!(
            stats.arena_nodes <= n + seed_hops,
            "tree grew past one node per AS: {} > {} + {}",
            stats.arena_nodes,
            n,
            seed_hops
        );
        assert!(
            stats.peak_pending <= 4 * n,
            "delta queue ballooned: {} pending for {} ASes",
            stats.peak_pending,
            n
        );
        assert!(stats.pruned > 0, "dominance pruning never fired at 10k");
    }
}

/// The delta differential: every spec the cache derives from a prepended
/// parent — the poisoned, double-poisoned and selective entries of the menu
/// plus a poison at each of a spread of ASes, stubs and the origin's own
/// providers included — must equal the scratch engine and the reference
/// engine route for route, under every filter kind of the CI matrix (where
/// "unaffected" stops being obvious: a cap or a poison filter fires on the
/// *new* tail at ASes the poison never names). Topologies are seeded from
/// `LG_CHURN_SEED` (CI pins two bases and draws a third); failures print
/// the replay line.
#[test]
fn derived_tables_match_both_engines_under_every_filter_kind() {
    let base: u64 = match std::env::var("LG_CHURN_SEED") {
        Ok(s) => s
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("LG_CHURN_SEED must be a u64, got {s:?}")),
        Err(_) => 20_120_813,
    };
    let matrices = FilterMatrix::from_env().map_or(FilterMatrix::ALL.to_vec(), |m| vec![m]);
    let derived_before = derived_so_far();
    for k in 0..24u64 {
        let topo_seed = base.wrapping_add(k) % 1_000_000 + 1;
        for matrix in &matrices {
            let mut net = Network::new(TopologyConfig::calibrated(64, topo_seed).generate());
            matrix.apply(&mut net, topo_seed);
            let origin = pick_origin(&net);
            let mut specs = spec_menu(&net, origin);
            let n = net.len() as u64;
            specs.extend((0..12).map(|j| {
                let target = AsId(((topo_seed + j * 7919) % n) as u32);
                AnnouncementSpec::poisoned(&net, pfx(), origin, &[target])
            }));

            let cache = SharedRouteCache::new();
            for (i, spec) in specs.iter().enumerate() {
                let cached = cache.compute(&net, spec);
                let scratch = compute_routes(&net, spec);
                let reference = compute_routes_reference(&net, spec);
                let replay = format!(
                    "spec {i} ({:?}), topology calibrated(64, {topo_seed}), matrix {} \
                     (replay LG_CHURN_SEED={base})",
                    spec.seeds.first().map(|(_, p)| p),
                    matrix.label()
                );
                for a in net.graph().ases() {
                    let want = reference.route(a);
                    assert_eq!(scratch.route(a), want, "scratch at {a}: {replay}");
                    assert_eq!(cached.route(a), want, "cache at {a}: {replay}");
                }
            }
        }
    }
    assert!(
        derived_so_far() > derived_before,
        "the sweep derived nothing: every fill went to the scratch engine"
    );
}

/// Tables derived so far in this process (`compute.delta_runs`).
fn derived_so_far() -> u64 {
    lg_telemetry::global()
        .snapshot()
        .counter("compute.delta_runs")
        .unwrap_or(0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For arbitrary small topologies, the cache (miss and hit paths), the
    /// scratch engine, and the reference engine all agree route-for-route.
    #[test]
    fn compute_layer_matches_scratch_engine(seed in 1u64..10_000) {
        let net = Network::new(TopologyConfig::calibrated(64, seed).generate());
        let origin = pick_origin(&net);
        let specs = spec_menu(&net, origin);

        let cache = SharedRouteCache::new();
        let tables: Vec<_> = specs.iter().map(|s| cache.compute(&net, s)).collect();

        for (spec, cached) in specs.iter().zip(&tables) {
            let scratch = compute_routes(&net, spec);
            let reference = compute_routes_reference(&net, spec);
            assert_same_table("cache vs scratch", cached, &scratch, &net)?;
            assert_same_table("scratch vs reference", &scratch, &reference, &net)?;
        }

        // A second pass over the same specs must be pure cache hits: the
        // very same tables, not recomputations.
        let misses_after_first = cache.misses();
        for (spec, first) in specs.iter().zip(&tables) {
            let second = cache.compute(&net, spec);
            prop_assert!(Arc::ptr_eq(first, &second), "hit returned a different table");
        }
        prop_assert_eq!(cache.misses(), misses_after_first, "second pass recomputed");
    }

    /// Mutating the network bumps its generation; the cache must drop its
    /// tables and recompute against the new policies, never serving a
    /// stale fixed point.
    #[test]
    fn cache_recomputes_after_network_mutation(seed in 1u64..10_000) {
        let mut net = Network::new(TopologyConfig::calibrated(64, seed).generate());
        let origin = pick_origin(&net);
        let providers = net.graph().providers(origin);
        let above = net.graph().providers(providers[0]);
        let target = if above.is_empty() { providers[0] } else { above[0] };
        let spec = AnnouncementSpec::poisoned(&net, pfx(), origin, &[target]);

        let cache = SharedRouteCache::new();
        let before = cache.compute(&net, &spec);
        assert_same_table("pre-mutation", &before, &compute_routes(&net, &spec), &net)?;

        // Lenient loop detection at the poison target (§7.1): the single
        // poison no longer sticks, so the fixed point genuinely changes.
        net.set_policy(
            target,
            ImportPolicy {
                loop_detection: LoopDetection::max_occurrences(1),
                ..ImportPolicy::standard()
            },
        );
        let after = cache.compute(&net, &spec);
        prop_assert!(cache.invalidations() >= 1, "mutation did not invalidate");
        assert_same_table("post-mutation", &after, &compute_routes(&net, &spec), &net)?;
        prop_assert!(after.has_route(target), "lenient target must ignore one poison");
        prop_assert!(!before.has_route(target), "strict target must drop the poison");
    }

    /// Incremental invalidation: a loop-detection change at one AS evicts
    /// only entries whose announcement footprint names that AS, and *every*
    /// post-mutation lookup — retained or recomputed — still matches a
    /// scratch computation. Stale service is the bug this pins against.
    #[test]
    fn incremental_invalidation_never_serves_stale(seed in 1u64..10_000, victim_ix in 0usize..64) {
        let mut net = Network::new(TopologyConfig::calibrated(64, seed).generate());
        let origin = pick_origin(&net);
        let specs = spec_menu(&net, origin);

        let cache = SharedRouteCache::new();
        for spec in &specs {
            cache.compute(&net, spec);
        }
        // One entry per spec, and the length-4 prepended parent of the
        // double poison (the other parents are on the menu themselves).
        prop_assert_eq!(cache.len(), specs.len() + 1);

        // Flip loop detection at an arbitrary AS (possibly one no footprint
        // names — then nothing may be evicted).
        let ases: Vec<AsId> = net.graph().ases().collect();
        let victim = ases[victim_ix % ases.len()];
        net.set_policy(
            victim,
            ImportPolicy {
                loop_detection: LoopDetection::max_occurrences(1),
                ..ImportPolicy::standard()
            },
        );

        let misses_before = cache.misses();
        for spec in &specs {
            let got = cache.compute(&net, spec);
            assert_same_table("post-mutation lookup", &got, &compute_routes(&net, spec), &net)?;
        }
        let recomputed = cache.misses() - misses_before;
        // Soundness bound: entries for specs that never route through the
        // victim must have been retained, so at most every entry recomputes
        // and specs not naming the victim anywhere stay cached.
        prop_assert!(recomputed <= specs.len() as u64);
        if !specs.iter().any(|s| s.origin == victim) && victim != origin {
            // Plain/prepend footprints are just {origin}: they always survive
            // a non-origin loop-detection mutation.
            prop_assert!(
                (recomputed as usize) < specs.len(),
                "mutation at {} flushed everything",
                victim
            );
        }
    }

    /// The shared cache is observationally identical to the scratch engine
    /// from 1, 2, and 8 concurrent threads, and reports the work as
    /// hits/misses coherently (each unique spec computed exactly once).
    #[test]
    fn shared_cache_matches_scratch_across_threads(seed in 1u64..10_000) {
        let net = Network::new(TopologyConfig::calibrated(64, seed).generate());
        let origin = pick_origin(&net);
        let specs = spec_menu(&net, origin);

        for threads in [1usize, 2, 8] {
            let cache = Arc::new(SharedRouteCache::new());
            std::thread::scope(|s| {
                for _ in 0..threads {
                    let cache = Arc::clone(&cache);
                    let net = &net;
                    let specs = &specs;
                    s.spawn(move || {
                        for spec in specs {
                            let got = cache.compute(net, spec);
                            let want = compute_routes(net, spec);
                            assert_eq!(got.prefix, want.prefix);
                            for a in net.graph().ases() {
                                assert_eq!(got.route(a), want.route(a), "thread view at {a}");
                            }
                        }
                    });
                }
            });
            prop_assert_eq!(
                cache.misses(),
                specs.len() as u64,
                "each unique spec computes once ({} threads)",
                threads
            );
            prop_assert_eq!(
                cache.hits(),
                ((threads - 1) * specs.len()) as u64,
                "every other lookup is a hit ({} threads)",
                threads
            );
        }
    }

    /// Concurrent readers over a shared cache never observe a fixed point
    /// from before a mutation: after the network changes, every thread's
    /// lookup matches a fresh scratch computation.
    #[test]
    fn shared_cache_mutation_is_visible_to_all_threads(seed in 1u64..10_000) {
        let mut net = Network::new(TopologyConfig::calibrated(64, seed).generate());
        let origin = pick_origin(&net);
        let providers = net.graph().providers(origin);
        let above = net.graph().providers(providers[0]);
        let target = if above.is_empty() { providers[0] } else { above[0] };
        let specs = spec_menu(&net, origin);

        let cache = Arc::new(SharedRouteCache::new());
        for spec in &specs {
            cache.compute(&net, spec);
        }
        net.set_policy(
            target,
            ImportPolicy {
                loop_detection: LoopDetection::max_occurrences(1),
                ..ImportPolicy::standard()
            },
        );

        std::thread::scope(|s| {
            for _ in 0..8 {
                let cache = Arc::clone(&cache);
                let net = &net;
                let specs = &specs;
                s.spawn(move || {
                    for spec in specs {
                        let got = cache.compute(net, spec);
                        let want = compute_routes(net, spec);
                        for a in net.graph().ases() {
                            assert_eq!(got.route(a), want.route(a), "stale route at {a}");
                        }
                    }
                });
            }
        });
    }
}
