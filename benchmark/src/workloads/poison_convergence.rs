//! `poison_convergence`: poison and unpoison one prefix in the dynamic
//! engine (Fig 6, §5.2).
//!
//! Calibrated-10k, the production /20 and the sentinel /19 converged in
//! set-up. One op announces the production prefix poisoned with the next
//! of 64 transit ASes, runs to quiescence, re-announces the prepended
//! baseline and runs to quiescence again. This is `sim.dynamic`'s latency
//! use: one prefix, small MRAI-paced bursts; the `bgp` decision process
//! and path interner are hot, the packer and the static engine idle.

use super::{
    common_layers, multihomed_stubs, ns_since, poisonable_transit, topology, Digest, Metrics,
    OpReport, Ops, Rng, Scale, Workload, WORLD_SEED,
};
use crate::dynamic::Engine;
use crate::spans::Tracer;
use lg_bgp::Prefix;
use lg_sim::{AnnouncementSpec, Network};
use std::time::Instant;

const FULL_ASES: usize = 10_000;
const POISONS: usize = 64;
const WARMUP_OPS: u64 = 2;

pub struct PoisonConvergence {
    pub seed: u64,
    pub scale: Scale,
}

struct State<'n> {
    engine: Engine<'n>,
    baseline: AnnouncementSpec,
    poisoned: Vec<AnnouncementSpec>,
    inputs: Digest,
}

impl Workload for PoisonConvergence {
    fn with_state(&self, tr: &Tracer, ready: &mut dyn FnMut(&mut dyn Ops)) {
        let graph = topology(tr, self.scale.ases(FULL_ASES));
        let mut inputs = Digest::default();
        inputs.add_graph(&graph);

        let mut rng = Rng::new(WORLD_SEED, 0x90c1);
        let origin = multihomed_stubs(&graph, &mut rng)
            .pop()
            .expect("topology has multihomed stubs");
        inputs.add_as(origin);
        // Never poison the origin's own providers (the paper's Cogent rule).
        let mut poisons = poisonable_transit(&graph, &graph.providers(origin), &mut rng);
        poisons.truncate(POISONS);
        // `--seed` orders the schedule of poisons.
        Rng::new(self.seed, 0x90c2).shuffle(&mut poisons);
        assert!(!poisons.is_empty(), "topology too small");

        let net: Network = tr.span("sim.network_new", || Network::new(graph));
        let production = Prefix::from_octets(184, 164, 224, 0, 20);
        let sentinel = Prefix::from_octets(184, 164, 224, 0, 19);
        let baseline = AnnouncementSpec::prepended(&net, production, origin, 3);
        let poisoned = poisons
            .iter()
            .map(|a| {
                inputs.add_as(*a);
                AnnouncementSpec::poisoned(&net, production, origin, &[*a])
            })
            .collect();

        let mut engine = Engine::new(tr, &net);
        for spec in [
            &baseline,
            &AnnouncementSpec::prepended(&net, sentinel, origin, 3),
        ] {
            engine.announce(tr, spec);
            assert!(engine.quiesce(tr), "baseline did not converge");
        }
        let mut st = State {
            engine,
            baseline,
            poisoned,
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

impl Ops for State<'_> {
    fn input_digest(&self) -> u64 {
        self.inputs.0
    }

    fn op(&mut self, i: u64, tr: &Tracer) -> OpReport {
        let poisoned = &self.poisoned[i as usize % self.poisoned.len()];
        let before = self.engine.counters();
        let t0 = self.engine.sim.now();
        let mut digest = Digest::default();

        let started = Instant::now();
        self.engine.announce(tr, poisoned);
        let mut ok = self.engine.quiesce(tr);
        let mut wall_ns = ns_since(started);
        digest.add(self.engine.sim.now() - t0);
        // Oracle, untimed: the engine's Loc-RIBs against the static fixed
        // point of the same announcement.
        let oracle_ok = self
            .engine
            .matches_static(tr, self.engine.net, i, &[poisoned]);

        let started = Instant::now();
        self.engine.announce(tr, &self.baseline);
        ok &= self.engine.quiesce(tr);
        wall_ns += ns_since(started);

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
        common_layers(tr, self.engine.net, &self.baseline, out);
        self.engine.layers(out);
    }
}
