//! `table_reset_storm`: a session flap that re-converges a whole table.
//!
//! Calibrated-2000, 24 disjoint /22s announced by one multihomed stub and
//! converged in set-up. One op fails the origin's link to its first
//! provider, runs to quiescence, restores it and runs to quiescence again.
//! This is `sim.dynamic`'s throughput use of the handlers
//! `poison_convergence` uses for latency: every prefix re-converges at
//! once, so MRAI deferral, `sim.time`'s wheel and `sim.packing` peak
//! (24 NLRI per packed UPDATE). A change that helps bursts of one prefix
//! and hurts bulk, or the reverse, splits the two workloads. It is sized
//! to hold sixty ops in a run: one flap of a 10k × 256-prefix table takes
//! half a minute on the measuring host, of 2,000 ASes × 32 prefixes 0.39 s
//! (58-68 ops a run), of 2,000 × 24 about 0.3 s.

use super::{
    common_layers, multihomed_stubs, ns_since, topology, Digest, Metrics, OpReport, Ops, Rng,
    Scale, Workload, WORLD_SEED,
};
use crate::dynamic::Engine;
use crate::spans::Tracer;
use lg_asmap::AsId;
use lg_bgp::Prefix;
use lg_sim::{AnnouncementSpec, Network};
use std::time::Instant;

const FULL_ASES: usize = 2_000;
const PREFIXES: u32 = 24;
const WARMUP_OPS: u64 = 1;
/// Announcements the oracle checks per network state, rotating per op.
const ORACLE_PREFIXES: usize = 2;

pub struct TableResetStorm {
    pub seed: u64,
    pub scale: Scale,
}

/// The table: 24 disjoint /22s inside 32.`block`.0.0/16, clear of the
/// infra /8, in the order `rng` announces them.
fn table(block: u32, rng: &mut Rng) -> Vec<Prefix> {
    let mut v: Vec<Prefix> = (0..PREFIXES)
        .map(|i| Prefix::new(0x2000_0000 + (block << 16) + (i << 10), 22))
        .collect();
    rng.shuffle(&mut v);
    v
}

struct State<'n> {
    engine: Engine<'n>,
    /// The engine's network with the flapped link removed: what the static
    /// oracle converges over while the session is down.
    net_down: Network,
    origin: AsId,
    provider: AsId,
    specs: Vec<AnnouncementSpec>,
    inputs: Digest,
}

impl Workload for TableResetStorm {
    fn with_state(&self, tr: &Tracer, ready: &mut dyn FnMut(&mut dyn Ops)) {
        let graph = topology(tr, self.scale.ases(FULL_ASES));
        let mut inputs = Digest::default();
        inputs.add_graph(&graph);

        let mut rng = Rng::new(WORLD_SEED, 0x7ab1);
        let origin = multihomed_stubs(&graph, &mut rng)
            .pop()
            .expect("topology has multihomed stubs");
        let provider = graph.providers(origin)[0];
        inputs.add_as(origin);
        inputs.add_as(provider);

        let net = tr.span("sim.network_new", || Network::new(graph));
        let mut net_down = net.clone();
        net_down.remove_link(origin, provider);
        // Every op is the same flap; what `--seed` draws is the table.
        let mut draw = Rng::new(self.seed, 0x7ab2);
        let specs: Vec<AnnouncementSpec> = table(draw.below(256) as u32, &mut draw)
            .into_iter()
            .map(|p| {
                inputs.add((p.addr() as u64) << 8 | p.len() as u64);
                AnnouncementSpec::plain(&net, p, origin)
            })
            .collect();

        let mut engine = Engine::new(tr, &net);
        for spec in &specs {
            engine.announce(tr, spec);
        }
        assert!(engine.quiesce(tr), "table did not converge");
        let mut st = State {
            engine,
            net_down,
            origin,
            provider,
            specs,
            inputs,
        };
        let quiet = Tracer::new(false);
        for i in 0..WARMUP_OPS {
            let r = st.op(i, &quiet);
            assert!(r.ok && r.oracle_ok, "warm-up op {i} failed");
        }
        st.engine.reset_ops();
        ready(&mut st);
    }
}

/// The announcements op `i` checks against the static engine. While the
/// link is down the origin cannot seed the failed provider, which the
/// static engine already ignores (seeds at non-neighbors are dropped).
fn oracle_specs(specs: &[AnnouncementSpec], i: u64) -> Vec<&AnnouncementSpec> {
    (0..ORACLE_PREFIXES)
        .map(|k| &specs[(i as usize * ORACLE_PREFIXES + k) % specs.len()])
        .collect()
}

impl Ops for State<'_> {
    fn input_digest(&self) -> u64 {
        self.inputs.0
    }

    fn op(&mut self, i: u64, tr: &Tracer) -> OpReport {
        let before = self.engine.counters();
        let t0 = self.engine.sim.now();
        let mut digest = Digest::default();
        let checked = oracle_specs(&self.specs, i);

        let started = Instant::now();
        self.engine.fail_link(tr, self.origin, self.provider);
        let mut ok = self.engine.quiesce(tr);
        let mut wall_ns = ns_since(started);
        digest.add(self.engine.sim.now() - t0);
        let mut oracle_ok = self.engine.matches_static(tr, &self.net_down, i, &checked);

        let started = Instant::now();
        self.engine.restore_link(tr, self.origin, self.provider);
        ok &= self.engine.quiesce(tr);
        wall_ns += ns_since(started);
        oracle_ok &= self.engine.matches_static(tr, self.engine.net, i, &checked);

        let delta = self.engine.counters().since(&before);
        let sim_ms = self.engine.sim.now() - t0;
        self.engine.finish_op(&mut digest, delta, sim_ms, wall_ns);
        OpReport {
            wall_ns,
            ok: ok && oracle_ok,
            oracle_ok,
            sim: digest.0,
        }
    }

    fn layers(&mut self, tr: &Tracer, out: &mut Metrics) {
        common_layers(tr, self.engine.net, &self.specs[0], out);
        self.engine.layers(out);
    }
}
