//! The four workloads and what they share: the contract with the runner,
//! seeded input generation, digests and the layer probes every workload
//! runs on its own network.

pub mod poison_convergence;
pub mod repair_loop;
pub mod table_reset_storm;
pub mod whatif_sweep;

use crate::spans::Tracer;
use lg_asmap::{AsGraph, AsId, TopologyConfig};
use lg_sim::{compute_routes, AnnouncementSpec, Network, Time, TimerWheel};
use std::collections::BTreeMap;
use std::hint::black_box;

/// Topology sizes. `Full` is what `BENCHMARK.json` measures; `Reduced` is
/// for the package's own tests, which need every code path and not the
/// numbers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Reduced,
}

impl Scale {
    /// `full` ASes at full scale, a few hundred for tests.
    fn ases(self, full: usize) -> usize {
        match self {
            Scale::Full => full,
            Scale::Reduced => 400,
        }
    }
}

/// What one op reports to the runner.
#[derive(Clone, Copy, Debug)]
pub struct OpReport {
    /// Wall time of the op's timed parts (oracle checks excluded), ns.
    pub wall_ns: u64,
    /// The op's own failure rule held.
    pub ok: bool,
    /// An in-run oracle was consulted and agreed (or none was due).
    pub oracle_ok: bool,
    /// Digest of the op's simulated statistics: identical on any host for
    /// one seed and commit.
    pub sim: u64,
}

/// Layer metrics by declared name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// A built, warmed-up workload, ready for its first timed op.
pub trait Ops {
    /// Digest of the inputs generated from the seed.
    fn input_digest(&self) -> u64;

    /// Run op `i` of the fixed schedule and return state to baseline.
    fn op(&mut self, i: u64, tr: &Tracer) -> OpReport;

    /// Traced runs, after the op loop: direct timed calls into the layers
    /// the ops reach only indirectly, and the run's counts, by declared
    /// metric name.
    fn layers(&mut self, tr: &Tracer, out: &mut Metrics);
}

/// One workload for one seed.
pub trait Workload {
    /// Build everything that precedes the first timed op — topology,
    /// engines, baseline convergence, warm-up ops — and hand the result to
    /// `ready`. The runner times from this call to `ready`'s entry: that
    /// interval is one `setup_s` sample. State lives on this call's stack,
    /// so each repeat starts from scratch and frees what it built.
    fn with_state(&self, tr: &Tracer, ready: &mut dyn FnMut(&mut dyn Ops));
}

pub fn build(name: &str, seed: u64, scale: Scale) -> Option<Box<dyn Workload>> {
    Some(match name {
        "repair_loop" => Box::new(repair_loop::RepairLoop { seed, scale }),
        "whatif_sweep" => Box::new(whatif_sweep::WhatifSweep { seed, scale }),
        "poison_convergence" => Box::new(poison_convergence::PoisonConvergence { seed, scale }),
        "table_reset_storm" => Box::new(table_reset_storm::TableResetStorm { seed, scale }),
        _ => return None,
    })
}

/// SplitMix64: the benchmark's own generator, so the inputs a seed gives
/// depend on nothing outside this package.
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, separated from other streams by `salt`.
    pub fn new(seed: u64, salt: u64) -> Rng {
        Rng(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// FNV-1a over 64-bit words.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn add(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn add_as(&mut self, a: AsId) {
        self.add(a.0 as u64);
    }

    /// Every adjacency of `g` with its relationship.
    pub fn add_graph(&mut self, g: &AsGraph) {
        self.add(g.len() as u64);
        for a in g.ases() {
            for (n, rel) in g.neighbors(a) {
                self.add((a.0 as u64) << 32 | n.0 as u64);
                self.add(*rel as u64);
            }
        }
    }
}

/// Seed of every workload's topology and of the ASes that play its fixed
/// parts (origin, targets, the pools schedules draw from). The world is a
/// fixed data set, like one CAIDA snapshot; `--seed` orders and draws the
/// schedule of ops over it. Measured on this host, letting `--seed` pick
/// the world moved `op_ms_p50` by 8 % (`repair_loop`) to 2x
/// (`table_reset_storm`, by which provider link flaps) between seeds — far
/// outside any bound a later change could be judged against.
pub const WORLD_SEED: u64 = 20120813;

/// The calibrated topology of `n` ASes, inside an `asmap.generate` span.
pub fn topology(tr: &Tracer, n: usize) -> AsGraph {
    tr.span("asmap.generate", || {
        TopologyConfig::calibrated(n, WORLD_SEED).generate()
    })
}

/// Stub ASes with at least two providers, shuffled by `rng`.
pub fn multihomed_stubs(g: &AsGraph, rng: &mut Rng) -> Vec<AsId> {
    let mut v: Vec<AsId> = g
        .ases()
        .filter(|a| g.is_stub(*a) && g.providers(*a).len() >= 2)
        .collect();
    rng.shuffle(&mut v);
    v
}

/// Transit ASes below the tier-1 clique, none of them in `exclude`,
/// shuffled by `rng`: the ASes a repair may have to poison.
pub fn poisonable_transit(g: &AsGraph, exclude: &[AsId], rng: &mut Rng) -> Vec<AsId> {
    let mut v: Vec<AsId> = g
        .transit_ases()
        .into_iter()
        .filter(|a| g.tier(*a) >= 2 && !exclude.contains(a))
        .collect();
    rng.shuffle(&mut v);
    v
}

pub fn ns_since(t: std::time::Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Probes every workload runs on its own network in a traced run: the
/// static fixed point of its own baseline announcement, the timer wheel,
/// a telemetry snapshot and the process-wide prefix table.
pub fn common_layers(tr: &Tracer, net: &Network, baseline: &AnnouncementSpec, out: &mut Metrics) {
    const FIXED_POINTS: u64 = 8;
    // The static engine reports to the process-wide registry only.
    let before = lg_telemetry::global().snapshot();
    for _ in 0..FIXED_POINTS {
        tr.span("sim.static.compute_routes", || {
            black_box(compute_routes(net, black_box(baseline)))
        });
    }
    let delta = lg_telemetry::global().snapshot().since(&before);
    let runs = delta.counter("compute.runs").unwrap_or(0).max(1);
    out.insert(
        "static.frontier_popped_per_table",
        delta.counter("compute.candidates").unwrap_or(0) as f64 / runs as f64,
    );

    // One engine's worth of MRAI fires: deadlines spread over a jittered
    // 30-s interval, popped in order.
    const TIMERS: u64 = 1 << 14;
    let mut rng = Rng::new(TIMERS, 0x71de);
    let deadlines: Vec<u64> = (0..TIMERS)
        .map(|_| 22_500 + rng.next_u64() % 7_500)
        .collect();
    let t0 = std::time::Instant::now();
    tr.span("sim.time.wheel", || {
        let mut wheel: TimerWheel<u32> = TimerWheel::new();
        for (seq, at) in deadlines.iter().enumerate() {
            wheel.insert(Time(*at), seq as u64, seq as u32);
        }
        while let Some(e) = wheel.pop() {
            black_box(e);
        }
    });
    out.insert(
        "time.wheel_insert_pop_ns",
        ns_since(t0) as f64 / TIMERS as f64,
    );

    for _ in 0..FIXED_POINTS {
        tr.span("telemetry.snapshot", || {
            black_box(lg_telemetry::global().snapshot())
        });
    }
    out.insert(
        "bgp.interned_prefixes",
        lg_bgp::interned_prefix_count() as f64,
    );
    out.insert("asmap.ases", net.graph().len() as f64);
    out.insert("asmap.links", net.graph().edge_count() as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_and_digest_are_functions_of_their_inputs() {
        let draw = |seed, salt| {
            let mut r = Rng::new(seed, salt);
            (0..4).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 1), draw(7, 1));
        assert_ne!(draw(7, 1), draw(7, 2));
        assert_ne!(draw(7, 1), draw(8, 1));
        let mut v: Vec<u32> = (0..100).collect();
        Rng::new(7, 0).shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted);

        let (mut a, mut b) = (Digest::default(), Digest::default());
        a.add(1);
        a.add(2);
        b.add(2);
        b.add(1);
        assert_ne!(a, b);
    }
}
