//! `whatif_sweep`: planner-shaped what-if rounds against one cache.
//!
//! One op is one round on calibrated-10k against one `SharedRouteCache`:
//! 24 poisoned what-if announcements (the next 24 of a fixed pool of 256)
//! are filled cold and read 20 times each; one stub–provider link is
//! removed (`LinkDown`, a scoped invalidation: only tables routing over
//! the link drop) and 8 of the specs are read again; the link is added
//! back (`LinkUp` with both endpoints routed: everything drops) and the 8
//! are read once more. The cache is used four ways — fill, hit, scoped
//! invalidation, flush — so a gain for reads that costs writes shows.
//! Every round ends flushed: rounds are stationary and memory stays small.
//! Without the mutation the cache would grow past a gigabyte and the
//! round cost would halve mid-run. Nothing but `sim.static_routes` and
//! `sim.compute` runs.

use super::{
    common_layers, multihomed_stubs, ns_since, poisonable_transit, topology, Digest, Metrics,
    OpReport, Ops, Rng, Scale, Workload, WORLD_SEED,
};
use crate::spans::Tracer;
use lg_asmap::{AsId, Relationship};
use lg_bgp::Prefix;
use lg_sim::{compute_routes, AnnouncementSpec, Network, RouteTable, SharedRouteCache};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const FULL_ASES: usize = 10_000;
const POOL: usize = 256;
const FILLS_PER_ROUND: usize = 24;
const READS_PER_FILL: usize = 20;
const REREADS: usize = 8;
/// Stub–provider links the rounds take turns removing.
const LINKS: usize = 16;
const WARMUP_ROUNDS: u64 = 5;

pub struct WhatifSweep {
    pub seed: u64,
    pub scale: Scale,
}

struct State {
    net: Network,
    cache: SharedRouteCache,
    baseline: AnnouncementSpec,
    pool: Vec<AnnouncementSpec>,
    links: Vec<(AsId, AsId, Relationship)>,
    inputs: Digest,
    /// Re-reads after a link-down, and how many of them the cache still held.
    reread: u64,
    retained: u64,
}

impl Workload for WhatifSweep {
    fn with_state(&self, tr: &Tracer, ready: &mut dyn FnMut(&mut dyn Ops)) {
        let graph = topology(tr, self.scale.ases(FULL_ASES));
        let mut inputs = Digest::default();
        inputs.add_graph(&graph);

        let mut rng = Rng::new(WORLD_SEED, 0x3a7f);
        let mut stubs = multihomed_stubs(&graph, &mut rng);
        let origin = stubs.pop().expect("topology has multihomed stubs");
        inputs.add_as(origin);
        let providers = graph.providers(origin);
        let mut poisons = poisonable_transit(&graph, &providers, &mut rng);
        assert!(poisons.len() >= FILLS_PER_ROUND, "topology too small");
        poisons.truncate(POOL);
        let mut links: Vec<(AsId, AsId, Relationship)> = stubs
            .iter()
            .take(LINKS)
            .map(|s| {
                let p = graph.providers(*s)[0];
                let rel = graph.relationship(*s, p).expect("provider is adjacent");
                (*s, p, rel)
            })
            .collect();
        // `--seed` orders the schedule: which specs meet in a round, and
        // which link each round removes.
        let mut order = Rng::new(self.seed, 0x3a80);
        order.shuffle(&mut poisons);
        order.shuffle(&mut links);
        for (s, p, _) in &links {
            inputs.add_as(*s);
            inputs.add_as(*p);
        }

        let net = tr.span("sim.network_new", || Network::new(graph));
        let prefix = Prefix::from_octets(184, 164, 224, 0, 20);
        let pool: Vec<AnnouncementSpec> = poisons
            .iter()
            .map(|a| {
                inputs.add_as(*a);
                AnnouncementSpec::poisoned(&net, prefix, origin, &[*a])
            })
            .collect();
        let mut st = State {
            baseline: AnnouncementSpec::prepended(&net, prefix, origin, 3),
            net,
            cache: SharedRouteCache::new(),
            pool,
            links,
            inputs,
            reread: 0,
            retained: 0,
        };
        let quiet = Tracer::new(false);
        for i in 0..WARMUP_ROUNDS {
            let r = st.op(i, &quiet);
            assert!(r.ok && r.oracle_ok, "warm-up round {i} failed its oracle");
        }
        ready(&mut st);
    }
}

impl State {
    /// One cache lookup inside a span named after what the cache did.
    fn lookup(
        &self,
        tr: &Tracer,
        spec: &AnnouncementSpec,
        after_mutation: bool,
    ) -> Arc<RouteTable> {
        tr.span_as(|| {
            let misses = self.cache.misses();
            let table = self.cache.compute(&self.net, spec);
            let name = if self.cache.misses() > misses {
                "sim.compute.fill"
            } else if after_mutation {
                "sim.compute.revalidate"
            } else {
                "sim.compute.hit"
            };
            (table, name)
        })
    }
}

fn same_table(a: &RouteTable, b: &RouteTable, n: usize) -> bool {
    (0..n as u32).all(|i| a.next_hop(AsId(i)) == b.next_hop(AsId(i)))
}

impl Ops for State {
    fn input_digest(&self) -> u64 {
        self.inputs.0
    }

    fn op(&mut self, i: u64, tr: &Tracer) -> OpReport {
        let first = i as usize * FILLS_PER_ROUND;
        let spec_at = |j: usize| (first + j) % self.pool.len();
        let (stub, provider, rel) = self.links[i as usize % self.links.len()];
        let mut digest = Digest::default();
        // The oracle — a cached table against a direct fixed point on the
        // network as it stands — runs once per round, untimed, after the
        // scoped invalidation on even rounds and after the flush on odd.
        let probe = &self.pool[spec_at(i as usize / 2 % REREADS)];
        let oracle = |st: &State| {
            tr.span("bench.oracle", || {
                let cached = st.cache.compute(&st.net, probe);
                same_table(&cached, &compute_routes(&st.net, probe), st.net.len())
            })
        };

        let started = Instant::now();
        for j in 0..FILLS_PER_ROUND {
            let t = self.lookup(tr, &self.pool[spec_at(j)], false);
            digest.add(t.routed_count() as u64);
        }
        for _ in 0..READS_PER_FILL {
            for j in 0..FILLS_PER_ROUND {
                black_box(self.lookup(tr, &self.pool[spec_at(j)], false));
            }
        }
        let filled = self.cache.misses();
        tr.span("sim.network.remove_link", || {
            self.net.remove_link(stub, provider)
        });
        for j in 0..REREADS {
            let t = self.lookup(tr, &self.pool[spec_at(j)], true);
            digest.add(t.routed_count() as u64);
        }
        let mut wall_ns = ns_since(started);
        // What the scoped invalidation kept: re-reads it did not refill.
        let refilled = self.cache.misses() - filled;
        self.retained += REREADS as u64 - refilled;
        self.reread += REREADS as u64;
        digest.add(refilled);
        let mut oracle_ok = !i.is_multiple_of(2) || oracle(self);

        let started = Instant::now();
        tr.span("sim.network.add_link", || {
            self.net.add_link(stub, provider, rel)
        });
        for j in 0..REREADS {
            black_box(self.lookup(tr, &self.pool[spec_at(j)], true));
        }
        wall_ns += ns_since(started);
        oracle_ok &= i.is_multiple_of(2) || oracle(self);

        OpReport {
            wall_ns,
            ok: oracle_ok,
            oracle_ok,
            sim: digest.0,
        }
    }

    fn layers(&mut self, tr: &Tracer, out: &mut Metrics) {
        common_layers(tr, &self.net, &self.baseline, out);
        let s = self.cache.stats();
        out.insert("cache.hits", s.hits as f64);
        out.insert("cache.misses", s.misses as f64);
        out.insert("cache.evictions", s.evictions.total() as f64);
        // Not `CacheStats::retention_ratio`: every round ends flushed, so
        // over a run that ratio is 0. What a change to the invalidation can
        // move is how much a scoped link-down keeps.
        out.insert(
            "cache.retention_pct",
            100.0 * self.retained as f64 / self.reread.max(1) as f64,
        );
    }
}
