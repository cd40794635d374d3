//! Randomized BGP churn schedules.
//!
//! A churn schedule is a deterministic (seeded) interleaving of the
//! control-plane operations LIFEGUARD's repair loop can issue — announce
//! (plain / prepended / poisoned), withdraw, session failure, session
//! restoration — plus clock advances that land the operations inside or
//! outside MRAI shadows. The same schedule applied to two simulators must
//! drive them identically, which is what `tests/dynamic_churn_invariants.rs`
//! exploits to pin run-to-run identity, and
//! [`assert_update_log_invariants`] is what every run of a schedule must
//! satisfy.
//!
//! Schedules select from a *pool* of prefixes ([`churn_prefixes`], sized
//! by `LG_PREFIX_COUNT`, default 2), so announce/withdraw cycles on
//! several prefixes — including a covering/covered pair — interleave over
//! one topology. A pool of 1 degenerates to the original single-prefix
//! workload.

use lg_asmap::{AsId, TopologyConfig};
use lg_bgp::Prefix;
use lg_sim::{AnnouncementSpec, DynamicSim, Network, Time, UpdateRecord};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// The first (and historically only) prefix churn schedules operate on.
pub fn churn_prefix() -> Prefix {
    Prefix::from_octets(184, 164, 224, 0, 20)
}

/// A deterministic pool of `n` churn prefixes. The pool is built to
/// exercise longest-prefix-match interplay, not just disjoint slots:
///
/// * index 0 is [`churn_prefix`] (the paper's 184.164.224.0/20);
/// * index 1 is the *covering* /19 at the same base, so announcing both
///   creates a covered/covering pair (the sentinel less-specific shape);
/// * index 2 is the sibling /20 inside that /19;
/// * indexes ≥ 3 stride disjoint /20s upward from the base.
///
/// Prefixes are announced, withdrawn, and failed over independently, so a
/// multi-prefix schedule interleaves per-prefix state machines over the
/// shared topology.
pub fn churn_prefixes(n: usize) -> Vec<Prefix> {
    let base = churn_prefix();
    (0..n)
        .map(|i| match i {
            0 => base,
            1 => Prefix::new(base.addr(), 19),
            _ => Prefix::new(base.addr() + ((i as u32 - 1) << 12), 20),
        })
        .collect()
}

/// Pool size for multi-prefix harnesses: `LG_PREFIX_COUNT`, default 2.
pub fn prefix_count_from_env() -> usize {
    match std::env::var("LG_PREFIX_COUNT") {
        Ok(s) => s
            .trim()
            .parse()
            .ok()
            .filter(|n| *n >= 1)
            .unwrap_or_else(|| panic!("LG_PREFIX_COUNT must be a positive integer, got {s:?}")),
        Err(_) => 2,
    }
}

/// A calibrated network of `n` ASes for churn runs; same seed, same graph.
/// The schedule machinery is size-agnostic (link indexes resolve modulo
/// the live link list), so the same ops drive a 64-AS or a 10k-AS world.
pub fn churn_network(n: usize, topology_seed: u64) -> Network {
    Network::new(TopologyConfig::calibrated(n, topology_seed).generate())
}

/// One operation of a churn schedule. Link indexes are resolved modulo
/// the live/down link lists at application time, so any index is valid
/// against any topology.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChurnOp {
    /// (Re-)announce a prefix: `(prefix selector, shape selector)`. The
    /// prefix selector resolves modulo the world's pool, the shape
    /// selector picks plain, prepended, or poisoned.
    Announce(u8, u8),
    /// Withdraw the selected (mod pool) prefix (no-op when that prefix is
    /// not announced).
    Withdraw(u8),
    /// Fail the i-th (mod live) link.
    Fail(usize),
    /// Restore the i-th (mod down) currently-down link.
    Restore(usize),
    /// Advance the clock by this many milliseconds.
    Advance(u64),
}

/// Schedule-generation knobs.
#[derive(Clone, Debug)]
pub struct ChurnConfig {
    /// RNG seed; same seed, same schedule.
    pub seed: u64,
    /// Number of operations to generate.
    pub ops: usize,
    /// Upper bound on a single clock advance, in ms. Keep this below the
    /// MRAI interval to land most operations inside MRAI shadows (the
    /// dense-churn regime); raise it to let convergence complete between
    /// operations.
    pub advance_max_ms: u64,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            seed: 1,
            ops: 24,
            advance_max_ms: 45_000,
        }
    }
}

/// Generate a churn schedule. Operation classes are weighted toward the
/// interesting interleavings: announcements and link flaps dominate, with
/// enough advances to spread them across MRAI phases.
pub fn generate_ops(cfg: &ChurnConfig) -> Vec<ChurnOp> {
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    (0..cfg.ops)
        .map(|_| match rng.gen_range(0..100u32) {
            0..=29 => ChurnOp::Announce(rng.gen_range(0..64) as u8, rng.gen_range(0..3) as u8),
            30..=39 => ChurnOp::Withdraw(rng.gen_range(0..64) as u8),
            40..=59 => ChurnOp::Fail(rng.gen_range(0..1024usize)),
            60..=74 => ChurnOp::Restore(rng.gen_range(0..1024usize)),
            _ => ChurnOp::Advance(rng.gen_range(1..cfg.advance_max_ms)),
        })
        .collect()
}

/// The deterministic cast of one churn world: which AS originates, which
/// AS gets poisoned, and the link list indexes name.
pub struct ChurnWorld {
    /// Originating (stub) AS.
    pub origin: AsId,
    /// Poison target for the poisoned announcement shape.
    pub target: AsId,
    /// All links as unordered pairs (a < b), in deterministic order.
    pub links: Vec<(AsId, AsId)>,
    /// The prefix pool schedules select from ([`churn_prefixes`]).
    pub prefixes: Vec<Prefix>,
}

impl ChurnWorld {
    /// [`ChurnWorld::with_prefix_count`] at the `LG_PREFIX_COUNT` pool
    /// size (default 2), so every harness picks up the env knob.
    pub fn new(net: &Network) -> Self {
        Self::with_prefix_count(net, prefix_count_from_env())
    }

    /// Derive the cast from a network: a multihomed stub origin when one
    /// exists, a transit AS above its first provider as the poison target,
    /// and a pool of `prefix_count` prefixes all originated there.
    pub fn with_prefix_count(net: &Network, prefix_count: usize) -> Self {
        let origin = net
            .graph()
            .ases()
            .find(|a| net.graph().is_stub(*a) && net.graph().providers(*a).len() >= 2)
            .or_else(|| net.graph().ases().find(|a| net.graph().is_stub(*a)))
            .expect("topology has stubs");
        let providers = net.graph().providers(origin);
        let above = net.graph().providers(providers[0]);
        let target = if above.is_empty() {
            providers[0]
        } else {
            above[0]
        };
        let mut links = Vec::new();
        for a in net.graph().ases() {
            for (b, _) in net.graph().neighbors(a) {
                if a.0 < b.0 {
                    links.push((a, *b));
                }
            }
        }
        ChurnWorld {
            origin,
            target,
            links,
            prefixes: churn_prefixes(prefix_count),
        }
    }

    /// The announcement spec a `(prefix, shape)` selector pair denotes in
    /// this world. Both selectors resolve modulo their pools, so any byte
    /// is valid against any world.
    pub fn spec(&self, net: &Network, prefix_sel: u8, shape: u8) -> AnnouncementSpec {
        let prefix = self.prefix(prefix_sel);
        match shape % 3 {
            0 => AnnouncementSpec::plain(net, prefix, self.origin),
            1 => AnnouncementSpec::prepended(net, prefix, self.origin, 3),
            _ => AnnouncementSpec::poisoned(net, prefix, self.origin, &[self.target]),
        }
    }

    /// Resolve a prefix selector against the pool.
    pub fn prefix(&self, prefix_sel: u8) -> Prefix {
        self.prefixes[prefix_sel as usize % self.prefixes.len()]
    }
}

/// Applies a schedule to one simulator, tracking the evolving link state
/// so `Fail`/`Restore` indexes resolve deterministically. Two runners fed
/// the same ops issue bit-identical call sequences to their sims.
pub struct ChurnRunner<'w> {
    world: &'w ChurnWorld,
    down: Vec<(AsId, AsId)>,
    /// Per-pool-slot announced shape, `None` while withdrawn.
    announced: Vec<Option<u8>>,
}

impl<'w> ChurnRunner<'w> {
    /// A runner over `world` with all links up and nothing announced.
    pub fn new(world: &'w ChurnWorld) -> Self {
        ChurnRunner {
            world,
            down: Vec::new(),
            announced: vec![None; world.prefixes.len()],
        }
    }

    /// The last announced shape per pool slot (`None` while withdrawn).
    pub fn announced(&self) -> &[Option<u8>] {
        &self.announced
    }

    /// Links currently failed, in failure order.
    pub fn down(&self) -> &[(AsId, AsId)] {
        &self.down
    }

    /// Apply one operation to `sim`.
    pub fn apply(&mut self, sim: &mut DynamicSim<'_>, net: &Network, op: &ChurnOp) {
        match *op {
            ChurnOp::Announce(prefix_sel, shape) => {
                sim.announce(&self.world.spec(net, prefix_sel, shape));
                let slot = prefix_sel as usize % self.announced.len();
                self.announced[slot] = Some(shape);
            }
            ChurnOp::Withdraw(prefix_sel) => {
                let slot = prefix_sel as usize % self.announced.len();
                if self.announced[slot].take().is_some() {
                    sim.withdraw(self.world.prefix(prefix_sel));
                }
            }
            ChurnOp::Fail(i) => {
                let link = self.world.links[i % self.world.links.len()];
                if !self.down.contains(&link) {
                    self.down.push(link);
                    sim.fail_link(link.0, link.1);
                }
            }
            ChurnOp::Restore(i) => {
                if !self.down.is_empty() {
                    let link = self.down.remove(i % self.down.len());
                    sim.restore_link(link.0, link.1);
                }
            }
            ChurnOp::Advance(ms) => {
                let t = sim.now() + ms;
                sim.run_until(t);
            }
        }
    }
}

/// Assert the single-run invariants of an update log `sim` recorded
/// ([`DynamicSim::record_updates`]); `tag` leads every failure message.
///
/// The log as a whole never goes backwards in time — emissions are
/// recorded in global `(time, seq)` processing order, so per-peer order
/// holds too.
///
/// MRAI lower bound: between two consecutive *machinery* announcements on
/// one (from, to, prefix) stream, at least `sim.mrai_interval(from, to)` ms
/// must elapse. The tracker resets when the origin withdraws the prefix
/// (its out-state is dropped wholesale, observable as a seeded
/// withdrawal), matching the engine's documented semantics. Withdrawals
/// themselves bypass MRAI by design and are exempt.
pub fn assert_update_log_invariants(tag: &str, sim: &DynamicSim<'_>) {
    let log = sim.update_log();
    let mut ready: HashMap<(AsId, AsId, Prefix), Time> = HashMap::new();
    for (i, rec) in log.iter().enumerate() {
        if i > 0 {
            assert!(
                log[i - 1].at <= rec.at,
                "{tag}: log times regress at send #{i}: {:?} then {rec:?}",
                log[i - 1]
            );
        }
        let UpdateRecord {
            at,
            from,
            to,
            prefix,
            ..
        } = *rec;
        if rec.seeded {
            if rec.path.is_none() {
                // Origin withdrew: its whole out-state for the prefix is
                // dropped, so MRAI phase restarts for these streams.
                ready.retain(|(f, _, p), _| !(*f == from && *p == prefix));
            }
            continue;
        }
        if rec.path.is_some() {
            let interval = sim.mrai_interval(from, to);
            if let Some(r) = ready.get(&(from, to, prefix)) {
                assert!(
                    at >= *r,
                    "{tag}: MRAI violated at send #{i}: ({from:?} -> {to:?}, {prefix:?}) \
                     announced at {at:?}, not ready before {r:?} (interval {interval} ms)"
                );
            }
            ready.insert((from, to, prefix), at + interval);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_deterministic_per_seed() {
        let cfg = ChurnConfig {
            seed: 42,
            ..ChurnConfig::default()
        };
        assert_eq!(generate_ops(&cfg), generate_ops(&cfg));
        let other = generate_ops(&ChurnConfig {
            seed: 43,
            ..cfg.clone()
        });
        assert_ne!(generate_ops(&cfg), other, "different seeds, same ops");
    }

    #[test]
    fn schedule_mixes_operation_classes() {
        let ops = generate_ops(&ChurnConfig {
            seed: 7,
            ops: 200,
            advance_max_ms: 10_000,
        });
        let announces = ops
            .iter()
            .filter(|o| matches!(o, ChurnOp::Announce(..)))
            .count();
        let fails = ops.iter().filter(|o| matches!(o, ChurnOp::Fail(_))).count();
        let advances = ops
            .iter()
            .filter(|o| matches!(o, ChurnOp::Advance(_)))
            .count();
        assert!(announces > 20, "too few announcements: {announces}");
        assert!(fails > 10, "too few failures: {fails}");
        assert!(advances > 10, "too few advances: {advances}");
    }

    #[test]
    fn runner_drives_a_sim_to_quiescence() {
        use lg_sim::{DynamicSimConfig, Time};
        let net = churn_network(64, 3);
        let world = ChurnWorld::new(&net);
        let mut sim = DynamicSim::new(&net, DynamicSimConfig::default());
        let mut runner = ChurnRunner::new(&world);
        for op in &generate_ops(&ChurnConfig {
            seed: 3,
            ..ChurnConfig::default()
        }) {
            runner.apply(&mut sim, &net, op);
        }
        sim.run_until_quiescent(sim.now() + Time::from_mins(600).millis());
        assert!(sim.quiescent());
    }
}
