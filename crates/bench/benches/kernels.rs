//! Criterion micro-benchmarks for the performance-critical primitives:
//! static route computation, data-plane walks, the wire codec, and the
//! isolation pipeline.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use lg_asmap::{AsId, TopologyConfig};
use lg_atlas::{Atlas, RefreshScheduler, ResponsivenessDb};
use lg_bgp::wire::{Codec, Message, Origin, UpdateMsg};
use lg_bgp::{AsPath, Prefix};
use lg_locate::Isolator;
use lg_probe::Prober;
use lg_sim::dataplane::{infra_addr, infra_prefix, DataPlane};
use lg_sim::failures::Failure;
use lg_sim::{compute_routes, AnnouncementSpec, Network, RouteComputer, SharedRouteCache, Time};

fn bench_route_computation(c: &mut Criterion) {
    let mut group = c.benchmark_group("static_route_computation");
    for (label, cfg) in [
        ("small_~50as", TopologyConfig::small(1)),
        ("medium_~1000as", TopologyConfig::medium(1)),
        ("large_~10000as", TopologyConfig::large(1)),
        // The Internet-calibrated shape: same AS count as `large` but
        // power-law degrees and a deep stub fringe — the frontier
        // engine's target workload.
        ("calibrated_10000as", TopologyConfig::calibrated_10k(1)),
    ] {
        let net = Network::new(cfg.generate());
        let origin = net
            .graph()
            .ases()
            .find(|a| net.graph().is_stub(*a))
            .unwrap();
        let prefix = Prefix::from_octets(184, 164, 224, 0, 20);
        let spec = AnnouncementSpec::prepended(&net, prefix, origin, 3);
        group.bench_function(label, |b| {
            b.iter(|| compute_routes(&net, &spec));
        });
    }
    group.finish();
}

fn bench_compute_layer(c: &mut Criterion) {
    let net = Network::new(TopologyConfig::medium(1).generate());
    let origin = net
        .graph()
        .ases()
        .find(|a| net.graph().is_stub(*a))
        .unwrap();
    let prefix = Prefix::from_octets(184, 164, 224, 0, 20);
    let spec = AnnouncementSpec::prepended(&net, prefix, origin, 3);

    let mut group = c.benchmark_group("compute_layer");
    // The retained pre-arena engine: the baseline the allocation-lean inner
    // loop is measured against.
    group.bench_function("reference_engine_medium", |b| {
        b.iter(|| lg_sim::static_routes::compute_routes_reference(&net, &spec));
    });
    group.bench_function("scratch_medium", |b| {
        b.iter(|| compute_routes(&net, &spec));
    });
    group.bench_function("shared_cache_hit_medium", |b| {
        let cache = SharedRouteCache::new();
        let _ = cache.compute(&net, &spec);
        b.iter(|| cache.compute(&net, &spec));
    });

    // A repair-planner-shaped batch: one poisoned what-if per transit AS.
    let base = compute_routes(&net, &spec);
    let targets: Vec<AsId> = net
        .graph()
        .ases()
        .filter(|a| !net.graph().is_stub(*a) && base.has_route(*a))
        .take(16)
        .collect();
    let specs: Vec<AnnouncementSpec> = targets
        .iter()
        .map(|t| AnnouncementSpec::poisoned(&net, prefix, origin, &[*t]))
        .collect();
    group.bench_function("batch16_poisoned_1thread", |b| {
        let computer = RouteComputer::with_threads(1);
        b.iter(|| computer.compute_batch(&net, &specs));
    });
    group.bench_function("batch16_poisoned_parallel", |b| {
        let computer = RouteComputer::new();
        b.iter(|| computer.compute_batch(&net, &specs));
    });

    // Incremental invalidation: warm the poisoned what-if batch, then each
    // iteration toggles loop detection at one transit AS and recomputes a
    // spec whose footprint names it. Only footprint-hitting entries may be
    // evicted, so the rest of the batch stays warm across iterations.
    group.bench_function("dirty_invalidation_single_as", |b| {
        let mut dirty_net = Network::new(TopologyConfig::medium(1).generate());
        let cache = SharedRouteCache::new();
        for s in &specs {
            let _ = cache.compute(&dirty_net, s);
        }
        let victim = targets[0];
        let mut lenient = false;
        b.iter(|| {
            lenient = !lenient;
            dirty_net.set_policy(
                victim,
                lg_bgp::ImportPolicy {
                    loop_detection: if lenient {
                        lg_bgp::LoopDetection::max_occurrences(1)
                    } else {
                        lg_bgp::LoopDetection::standard()
                    },
                    ..lg_bgp::ImportPolicy::standard()
                },
            );
            cache.compute(&dirty_net, &specs[0])
        });
    });
    group.finish();
}

fn bench_dataplane_walk(c: &mut Criterion) {
    let net = Network::new(TopologyConfig::medium(2).generate());
    let mut dp = DataPlane::new(&net);
    dp.ensure_infra_all();
    let src = net
        .graph()
        .ases()
        .find(|a| net.graph().is_stub(*a))
        .unwrap();
    let dst = net
        .graph()
        .ases()
        .filter(|a| net.graph().is_stub(*a))
        .last()
        .unwrap();
    c.bench_function("dataplane_walk_medium", |b| {
        b.iter(|| dp.walk(Time::ZERO, src, infra_addr(dst)));
    });
}

fn bench_wire_codec(c: &mut Criterion) {
    let codec = Codec::default();
    let update = Message::Update(UpdateMsg {
        withdrawn: vec![],
        origin: Some(Origin::Igp),
        as_path: Some(AsPath::poisoned(AsId(100), &[AsId(3356)])),
        next_hop: Some(0x0A000001),
        med: None,
        local_pref: Some(100),
        communities: vec![(65000 << 16) | 666],
        nlri: vec![Prefix::from_octets(184, 164, 224, 0, 19)],
    });
    let bytes = codec.encode(&update).unwrap();
    c.bench_function("wire_encode_update", |b| b.iter(|| codec.encode(&update)));
    c.bench_function("wire_decode_update", |b| b.iter(|| codec.decode(&bytes)));
}

fn bench_isolation(c: &mut Criterion) {
    let net = Network::new(TopologyConfig::small(3).generate());
    let stubs: Vec<AsId> = net
        .graph()
        .ases()
        .filter(|a| net.graph().is_stub(*a) && net.graph().providers(*a).len() >= 2)
        .collect();
    let (src, dst) = (stubs[0], *stubs.last().unwrap());
    let vps = vec![stubs[1], stubs[2]];
    let mut dp = DataPlane::new(&net);
    dp.ensure_infra_all();
    let mut prober = Prober::with_defaults();
    let mut atlas = Atlas::default();
    let mut resp = ResponsivenessDb::new();
    let mut pairs = vec![(src, dst)];
    for a in net.graph().ases() {
        if a != src {
            pairs.push((src, a));
        }
    }
    let mut sched = RefreshScheduler::new(pairs, 60_000);
    sched.refresh_due(&dp, &mut prober, &mut atlas, &mut resp, Time::ZERO);
    // Reverse failure on the first transit of the reverse path.
    let rev = dp.walk(Time::ZERO, dst, infra_addr(src));
    let culprit = rev.as_hops()[1];
    dp.failures_mut()
        .add(Failure::silent_as_toward(culprit, infra_prefix(src)));

    let isolator = Isolator::new(vps);
    let mut second = 100u64;
    c.bench_function("isolate_reverse_failure", |b| {
        b.iter_batched(
            || {
                // A fresh time window per run keeps rate limits quiet.
                second += 100;
                Time::from_secs(second)
            },
            |t| isolator.isolate(&dp, &mut prober, &atlas, &resp, t, src, dst),
            BatchSize::SmallInput,
        );
    });
}

criterion_group!(
    benches,
    bench_route_computation,
    bench_compute_layer,
    bench_dataplane_walk,
    bench_wire_codec,
    bench_isolation
);
criterion_main!(benches);
