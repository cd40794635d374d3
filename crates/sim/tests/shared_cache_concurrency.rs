//! Concurrency smoke for the shared route cache: many threads hammer one
//! `SharedRouteCache` across repeated mutation generations and every lookup
//! must match a scratch computation — no stale fixed points, no torn
//! counters, no deadlocks. CI runs this with a high `LG_SMOKE_ITERS` as a
//! sanitizer-style gate; locally it defaults to a quick pass.
//!
//! (The toolchain here has no miri/loom; this test is the nightly-free
//! stand-in: real OS threads, real contention, exact oracles.)

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use lg_asmap::{AsId, GraphBuilder, TopologyConfig};
use lg_bgp::{ImportPolicy, LoopDetection, Prefix};
use lg_sim::{compute_routes, AnnouncementSpec, Network, SharedRouteCache};

fn pfx() -> Prefix {
    Prefix::from_octets(184, 164, 224, 0, 20)
}

fn iterations() -> u64 {
    std::env::var("LG_SMOKE_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8)
}

#[test]
fn concurrent_lookups_survive_mutation_generations() {
    const THREADS: usize = 8;

    let mut net = Network::new(TopologyConfig::small(97).generate());
    let origin = net
        .graph()
        .ases()
        .find(|a| net.graph().is_stub(*a) && net.graph().providers(*a).len() >= 2)
        .or_else(|| net.graph().ases().find(|a| net.graph().is_stub(*a)))
        .expect("topology has stubs");
    let transits = net.graph().transit_ases();

    let specs: Vec<AnnouncementSpec> = {
        let providers = net.graph().providers(origin);
        let above = net.graph().providers(providers[0]);
        let target = if above.is_empty() {
            providers[0]
        } else {
            above[0]
        };
        vec![
            AnnouncementSpec::plain(&net, pfx(), origin),
            AnnouncementSpec::prepended(&net, pfx(), origin, 3),
            AnnouncementSpec::poisoned(&net, pfx(), origin, &[target]),
        ]
    };

    let registry = lg_telemetry::Registry::new();
    let cache = Arc::new(SharedRouteCache::with_registry(&registry));
    let lookups = AtomicU64::new(0);

    // Alternate phases: 8 threads race lookups against a warm/cold cache,
    // then the network mutates (a loop-detection toggle at a rotating
    // transit AS) and the next phase must see only post-mutation tables.
    for phase in 0..iterations() {
        let victim = transits[(phase as usize) % transits.len()];
        let lenient = phase % 2 == 0;
        net.set_policy(
            victim,
            ImportPolicy {
                loop_detection: if lenient {
                    LoopDetection::max_occurrences(1)
                } else {
                    LoopDetection::standard()
                },
                ..ImportPolicy::standard()
            },
        );

        std::thread::scope(|s| {
            for t in 0..THREADS {
                let cache = Arc::clone(&cache);
                let net = &net;
                let specs = &specs;
                let lookups = &lookups;
                s.spawn(move || {
                    // Stagger start order so lock contention varies.
                    for spec in specs.iter().cycle().skip(t % specs.len()).take(specs.len()) {
                        let got = cache.compute(net, spec);
                        let want = compute_routes(net, spec);
                        for a in net.graph().ases() {
                            assert_eq!(
                                got.route(a),
                                want.route(a),
                                "phase {phase}: stale route at {a}"
                            );
                        }
                        lookups.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
    }

    let total = lookups.load(Ordering::Relaxed);
    assert_eq!(total, iterations() * (THREADS * specs.len()) as u64);
    // Counter coherence: every lookup is accounted as exactly one hit or
    // one miss.
    assert_eq!(cache.hits() + cache.misses(), total);
    // Every spec's table was filled at least once: as a miss, or — for the
    // prepended spec, which is the poisoned spec's parent — as the parent
    // fill of a poisoned miss that won the first phase's race, after which
    // the prepended lookups hit.
    let parent_fills = registry.snapshot().counter("cache.parent_fills");
    assert!(cache.misses() + parent_fills.unwrap_or(0) >= specs.len() as u64);
    assert!(cache.hits() > 0);
}

/// Stress with *exact* accounting: after every mutation, 8 threads race
/// all 16 poison specs — the first access replays the invalidation under
/// the write lock while the other threads queue on the read lock. Two
/// properties are pinned:
///
/// * **no torn reads** — every returned table equals a scratch fixed
///   point of the current configuration, route for route;
/// * **compute-once per generation** — each phase evicts exactly one entry
///   (the poison whose footprint names the victim) and recomputes exactly
///   once, no matter how many threads race the miss: the fill runs under
///   the write lock, so the losers of the race re-probe and hit. The
///   prepended parent every poison is derived from is filled once, by the
///   first cold miss, and is no miss of its own.
#[test]
fn readers_see_no_torn_state_and_compute_once() {
    const THREADS: usize = 8;
    const MIDDLES: u32 = 16;

    // Star: origin 0 below middles 1..=16, all under top AS 17. The poison
    // naming middle M is the only entry whose footprint contains M.
    let mut g = GraphBuilder::with_ases(18);
    for i in 1..=MIDDLES {
        g.provider_customer(AsId(i), AsId(0));
        g.provider_customer(AsId(17), AsId(i));
    }
    let mut net = Network::new(g.build());
    let specs: Vec<AnnouncementSpec> = (1..=MIDDLES)
        .map(|t| AnnouncementSpec::poisoned(&net, pfx(), AsId(0), &[AsId(t)]))
        .collect();

    let registry = lg_telemetry::Registry::new();
    let cache = Arc::new(SharedRouteCache::with_registry(&registry));
    for spec in &specs {
        cache.compute(&net, spec);
    }
    assert_eq!(cache.misses(), MIDDLES as u64, "cold fill is all misses");

    let phases = iterations().max(4);
    for phase in 0..phases {
        let victim = AsId((phase % MIDDLES as u64) as u32 + 1);
        // Alternate per full sweep, not per phase: each touch of an AS
        // must differ from its previous policy or the write records
        // `DirtyScope::Unchanged` and evicts nothing.
        let lenient = (phase / MIDDLES as u64).is_multiple_of(2);
        net.set_policy(
            victim,
            ImportPolicy {
                loop_detection: if lenient {
                    LoopDetection::max_occurrences(1)
                } else {
                    LoopDetection::standard()
                },
                ..ImportPolicy::standard()
            },
        );

        std::thread::scope(|s| {
            for t in 0..THREADS {
                let cache = Arc::clone(&cache);
                let net = &net;
                let specs = &specs;
                s.spawn(move || {
                    for spec in specs.iter().cycle().skip(t).take(specs.len()) {
                        let got = cache.compute(net, spec);
                        let want = compute_routes(net, spec);
                        for a in net.graph().ases() {
                            assert_eq!(
                                got.route(a),
                                want.route(a),
                                "phase {phase}: torn/stale route at {a}"
                            );
                        }
                    }
                });
            }
        });

        // The loop-detection toggle at middle M is footprint-scoped: it
        // evicts exactly the M-poison, and exactly one of the 8 racing
        // threads recomputes it.
        assert_eq!(
            cache.misses(),
            MIDDLES as u64 + phase + 1,
            "phase {phase}: compute-once violated"
        );
    }

    let stats = cache.stats();
    assert_eq!(stats.evictions.footprint, phases, "one eviction per phase");
    assert_eq!(stats.evictions.total(), phases, "no other scope fired");
    assert_eq!(
        stats.entries,
        MIDDLES as usize + 1,
        "every eviction refilled, beside the parent"
    );
    assert_eq!(
        registry.snapshot().counter("cache.parent_fills"),
        Some(1),
        "the parent's footprint is the origin alone: filled once, never evicted"
    );
    assert_eq!(
        stats.hits + stats.misses,
        MIDDLES as u64 + phases * (THREADS as u64 * MIDDLES as u64),
        "every lookup accounted exactly once"
    );
}
