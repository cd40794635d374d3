//! The dynamic engine's exact update stream, pinned across commits.
//!
//! `tests/dynamic_churn_invariants.rs` and `tests/multi_prefix.rs` check
//! that two runs of one build agree; nothing else in the tier-1 suite
//! notices when a change to the engine's internals (its RIB layout, its
//! event queue, its timer wheel) moves the `(time, seq)` order events
//! pop in. This test does: it drives a fixed schedule over a calibrated
//! 2,000-AS topology with the update log on, folds every UPDATE put on
//! the wire and the end state into one FNV-1a hash, and compares that
//! with a constant. A layout change that keeps the engine's semantics
//! keeps the constant; one that reorders a single event does not.
//!
//! The schedule: four prefixes announced by one multihomed stub and
//! converged, then two poison → quiesce → unpoison → quiesce cycles on
//! the production prefix, then a fail/restore of the origin's session to
//! its first provider, which re-converges all four at once.

use lifeguard_repro::asmap::gen::TopologyConfig;
use lifeguard_repro::asmap::AsId;
use lifeguard_repro::bgp::Prefix;
use lifeguard_repro::sim::{
    AnnouncementSpec, DynamicSim, DynamicSimConfig, Network, PrefixMetrics, Time,
};

/// The hash the schedule produced when it was pinned. Change it only
/// with a change that means to move the engine's event order, and say so.
const GOLDEN: u64 = 0xf88a_51eb_af75_b0eb;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn add(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

fn add_metrics(h: &mut Fnv, m: &PrefixMetrics) {
    h.add(m.epoch_start.millis());
    h.add(m.updates_sent.len() as u64);
    h.add(m.updates_sent.values().sum());
    h.add(m.loc_changes.len() as u64);
    h.add(m.loc_changes.values().sum());
    h.add(m.last_sent.values().map(|t| t.millis()).max().unwrap_or(0));
    h.add(m.global_convergence_ms().unwrap_or(u64::MAX));
}

#[test]
fn dynamic_engine_update_stream_is_pinned() {
    let graph = TopologyConfig::calibrated(2_000, 20120813).generate();
    let origin = graph
        .ases()
        .find(|a| graph.is_stub(*a) && graph.providers(*a).len() >= 2)
        .expect("a multihomed stub");
    let providers = graph.providers(origin);
    let poisons: Vec<AsId> = graph
        .transit_ases()
        .into_iter()
        .filter(|a| graph.tier(*a) >= 2 && !providers.contains(a))
        .take(2)
        .collect();
    assert_eq!(poisons.len(), 2, "topology has too few transit ASes");
    let net = Network::new(graph);

    let production = Prefix::from_octets(184, 164, 224, 0, 20);
    let prefixes = [
        production,
        Prefix::from_octets(184, 164, 224, 0, 19),
        Prefix::from_octets(32, 1, 0, 0, 22),
        Prefix::from_octets(32, 1, 4, 0, 22),
    ];
    let baseline = AnnouncementSpec::prepended(&net, production, origin, 3);

    let mut sim = DynamicSim::new(&net, DynamicSimConfig::default());
    sim.record_updates(true);
    let quiesce = |sim: &mut DynamicSim| {
        sim.run_until_quiescent(sim.now() + Time::from_mins(60).millis());
        assert!(sim.quiescent(), "schedule did not quiesce");
    };

    sim.announce(&baseline);
    for p in &prefixes[1..] {
        sim.announce(&AnnouncementSpec::plain(&net, *p, origin));
    }
    quiesce(&mut sim);
    for poison in &poisons {
        sim.begin_epoch(production);
        sim.announce(&AnnouncementSpec::poisoned(
            &net,
            production,
            origin,
            &[*poison],
        ));
        quiesce(&mut sim);
        sim.announce(&baseline);
        quiesce(&mut sim);
    }
    for p in &prefixes {
        sim.begin_epoch(*p);
    }
    sim.fail_link(origin, providers[0]);
    quiesce(&mut sim);
    let mid = (sim.loc_entries(), sim.adj_entries());
    sim.restore_link(origin, providers[0]);
    quiesce(&mut sim);

    let mut h = Fnv::new();
    for r in sim.update_log() {
        h.add(r.at.millis());
        h.add(r.from.0 as u64);
        h.add(r.to.0 as u64);
        h.add((r.prefix.addr() as u64) << 8 | r.prefix.len() as u64);
        match &r.path {
            Some(hops) => {
                h.add(hops.len() as u64);
                for a in hops {
                    h.add(a.0 as u64);
                }
            }
            None => h.add(u64::MAX),
        }
        h.add(r.seeded as u64);
    }
    h.add(sim.now().millis());
    for n in [mid.0, mid.1, sim.loc_entries(), sim.adj_entries()] {
        h.add(n as u64);
    }
    for p in &prefixes {
        add_metrics(&mut h, &sim.metrics(*p));
    }
    assert!(
        sim.update_log().len() > 10_000,
        "schedule too small to pin anything: {} updates",
        sim.update_log().len()
    );
    assert_eq!(
        h.0,
        GOLDEN,
        "the engine's update stream moved ({} updates)",
        sim.update_log().len()
    );
}
