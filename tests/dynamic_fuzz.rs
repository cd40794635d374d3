//! BGPFuzz-style randomized stress: arbitrary interleavings of announce
//! (plain / prepended / poisoned), withdraw, link failure, link restoration,
//! and clock advancement must always drive the event-driven engine to a
//! quiescent state whose per-AS selections match the static fixed point over
//! the surviving topology. This is the generalization of the hand-written
//! fail/restore scenarios: any sequence the repair machinery could issue,
//! in any order, against any generated topology.
//!
//! Sequences operate over a *pool* of prefixes (fuzzed 1..=4 here; the
//! calibrated matrix uses `LG_PREFIX_COUNT`, default 2, with a
//! covering/covered pair), each with its own announce/withdraw lifecycle,
//! and each checked against its own static fixed point at quiescence, and
//! every run's update log keeps the MRAI lower bound. The calibrated-size
//! run takes churn schedules to 2k/10k ASes, where it must reproduce
//! exactly when run twice.

use lifeguard_repro::asmap::{AsId, TopologyConfig};
use lifeguard_repro::bgp::Prefix;
use lifeguard_repro::sim::Time;
use lifeguard_repro::sim::{
    compute_routes, AnnouncementSpec, DynamicSim, DynamicSimConfig, Network,
};
use lifeguard_repro::workloads::churn::{
    assert_update_log_invariants, churn_network_sized, churn_prefixes, generate_ops, ChurnConfig,
    ChurnRunner, ChurnWorld,
};
use lifeguard_repro::workloads::FilterMatrix;
use proptest::prelude::*;

fn pick_origin(net: &Network) -> AsId {
    net.graph()
        .ases()
        .find(|a| net.graph().is_stub(*a) && net.graph().providers(*a).len() >= 2)
        .or_else(|| net.graph().ases().find(|a| net.graph().is_stub(*a)))
        .expect("generated topology has stubs")
}

fn pick_poison_target(net: &Network, origin: AsId) -> AsId {
    let providers = net.graph().providers(origin);
    let above = net.graph().providers(providers[0]);
    if above.is_empty() {
        providers[0]
    } else {
        above[0]
    }
}

/// All links of the graph as unordered pairs (a < b), in a deterministic
/// order so a fuzz index always names the same link for a given seed.
fn all_links(net: &Network) -> Vec<(AsId, AsId)> {
    let mut links = Vec::new();
    for a in net.graph().ases() {
        for (b, _) in net.graph().neighbors(a) {
            if a.0 < b.0 {
                links.push((a, *b));
            }
        }
    }
    links
}

fn make_spec(
    net: &Network,
    prefix: Prefix,
    shape: u8,
    origin: AsId,
    target: AsId,
) -> AnnouncementSpec {
    match shape % 3 {
        0 => AnnouncementSpec::plain(net, prefix, origin),
        1 => AnnouncementSpec::prepended(net, prefix, origin, 3),
        _ => AnnouncementSpec::poisoned(net, prefix, origin, &[target]),
    }
}

#[derive(Clone, Debug)]
enum Op {
    /// (Re-)announce one of the three spec shapes for the i-th (mod pool)
    /// prefix.
    Announce(usize, u8),
    /// Withdraw the i-th (mod pool) prefix (no-op when not announced).
    Withdraw(usize),
    /// Fail the i-th link mod live links (no-op when already down).
    Fail(usize),
    /// Restore the i-th currently-down link (no-op when none are down).
    Restore(usize),
    /// Let the simulator run for this many milliseconds.
    Advance(u64),
}

/// Decode one raw generated tuple into an operation. `kind` picks the op
/// class with announce/fail/restore/advance weighted over withdraw;
/// `index` names a link or a pool slot; `ms` a clock advance.
fn decode(kind: u8, index: usize, ms: u64) -> Op {
    match kind {
        0..=2 => Op::Announce(index, kind),
        3 => Op::Withdraw(index),
        4 | 5 => Op::Fail(index),
        6 | 7 => Op::Restore(index),
        _ => Op::Advance(ms),
    }
}

/// What [`drive`] hands back: the simulator plus the state the
/// assertions need — links left down, the last announced shape per pool
/// slot, and the quiescence tick.
type Driven<'n> = (DynamicSim<'n>, Vec<(AsId, AsId)>, Vec<Option<u8>>, Time);

/// Drive one op sequence through a fresh simulator to quiescence, with
/// the update log recording on.
fn drive<'n>(
    net: &'n Network,
    links: &[(AsId, AsId)],
    pool: &[Prefix],
    ops: &[Op],
    origin: AsId,
    target: AsId,
    cfg: DynamicSimConfig,
) -> Driven<'n> {
    let mut sim = DynamicSim::new(net, cfg);
    sim.record_updates(true);
    let mut down: Vec<(AsId, AsId)> = Vec::new();
    let mut announced: Vec<Option<u8>> = vec![None; pool.len()];
    for op in ops {
        match *op {
            Op::Announce(slot, shape) => {
                let prefix = pool[slot % pool.len()];
                sim.announce(&make_spec(net, prefix, shape, origin, target));
                announced[slot % pool.len()] = Some(shape);
            }
            Op::Withdraw(slot) => {
                if announced[slot % pool.len()].take().is_some() {
                    sim.withdraw(pool[slot % pool.len()]);
                }
            }
            Op::Fail(i) => {
                let link = links[i % links.len()];
                if !down.contains(&link) {
                    down.push(link);
                    sim.fail_link(link.0, link.1);
                }
            }
            Op::Restore(i) => {
                if !down.is_empty() {
                    let link = down.remove(i % down.len());
                    sim.restore_link(link.0, link.1);
                }
            }
            Op::Advance(ms) => {
                let t = sim.now() + ms;
                sim.run_until(t);
            }
        }
    }
    let end = sim.run_until_quiescent(sim.now() + 36_000_000);
    (sim, down, announced, end)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn random_update_sequences_converge_to_static_fixed_point(
        seed in 1u64..10_000,
        raw_ops in proptest::collection::vec((0u8..11, 0usize..1024, 1u64..120_000), 1..24),
        // Fuzz across the MRAI configuration space: the fail/restore × MRAI
        // interaction must reach the same fixed point regardless of shadow
        // length or jitter.
        mrai_sel in 0usize..3,
        mrai_jitter in any::<bool>(),
        // Sweep the adversarial filter deployments too: import-time
        // filtering must not break dynamic/static agreement.
        filter_sel in 0usize..4,
        // Prefix pool size: 1 is the historical single-prefix workload,
        // 2+ adds the covering /19 and disjoint siblings, each with an
        // independent announce/withdraw lifecycle.
        pool_size in 1usize..=4,
    ) {
        let mrai_ms = [2_000u64, 10_000, 30_000][mrai_sel];
        let matrix = FilterMatrix::ALL[filter_sel];
        let ops: Vec<Op> = raw_ops
            .iter()
            .map(|&(kind, index, ms)| decode(kind, index, ms))
            .collect();
        let mut net = Network::new(TopologyConfig::small(seed).generate());
        let filter_assignment = matrix.apply(&mut net, seed);
        let net = net;
        let origin = pick_origin(&net);
        let target = pick_poison_target(&net, origin);
        let links = all_links(&net);
        let pool = churn_prefixes(pool_size);

        let cfg = DynamicSimConfig {
            mrai_ms,
            mrai_jitter,
            ..DynamicSimConfig::default()
        };
        let (sim, down, announced, end) = drive(&net, &links, &pool, &ops, origin, target, cfg);

        // Whatever the sequence did, the network must settle, and never by
        // announcing inside an MRAI shadow.
        prop_assert!(sim.quiescent(), "not quiescent by {:?} after {:?}", end, ops);
        assert_update_log_invariants(&format!("seed {seed} ops {ops:?}"), &sim);

        // Each pool slot converges to its own static fixed point over the
        // surviving topology, independent of the other prefixes' churn.
        let cut_net;
        let static_net = if down.is_empty() {
            &net
        } else {
            let mut g = net.graph().without_link(down[0].0, down[0].1);
            for (a, b) in &down[1..] {
                g = g.without_link(*a, *b);
            }
            // `Network::new` starts with clean policies, so the oracle
            // must re-apply the *identical* filter assignment the dynamic
            // run used.
            let mut cut = Network::new(g);
            cut.apply_filter_assignment(&filter_assignment);
            cut_net = cut;
            &cut_net
        };
        for (slot, prefix) in pool.iter().enumerate() {
            match announced[slot] {
                None => {
                    // Withdrawn (or never announced): no residual state.
                    for a in net.graph().ases() {
                        prop_assert!(
                            sim.loc_route(a, *prefix).is_none(),
                            "{} kept a route to {:?} after withdrawal",
                            a,
                            prefix
                        );
                    }
                }
                Some(shape) => {
                    let table = compute_routes(
                        static_net,
                        &make_spec(static_net, *prefix, shape, origin, target),
                    );
                    for a in net.graph().ases() {
                        if a == origin {
                            continue;
                        }
                        prop_assert_eq!(
                            sim.loc_route(a, *prefix).map(|r| r.learned_from),
                            table.next_hop(a),
                            "{} disagrees with the static fixed point \
                             (prefix {:?}, shape {}, matrix {}, down {:?})",
                            a,
                            prefix,
                            shape,
                            matrix.label(),
                            &down
                        );
                    }
                }
            }
        }
    }
}

/// Splitmix-style per-round seed derivation from the replayable base.
fn round_seed(base: u64, i: u64) -> u64 {
    let mut x = base ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x.max(1)
}

/// The calibrated topology sizes flow through the dynamic fuzz matrix
/// too: calibrated-2k in debug, calibrated-10k in release, driven by the
/// shared churn schedule machinery. Each schedule runs twice on the
/// default engine, and the whole observable run — update log, Loc-RIBs,
/// quiescence tick — must be byte-identical, with the update log keeping
/// the MRAI lower bound. Replay a failure with `LG_CHURN_SEED=<base>`.
#[test]
fn calibrated_topology_churn_reproduces_and_keeps_invariants() {
    let n = if cfg!(debug_assertions) {
        2_000
    } else {
        10_000
    };
    let base = match std::env::var("LG_CHURN_SEED") {
        Ok(s) => s
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("LG_CHURN_SEED must be a u64, got {s:?}")),
        Err(_) => 0xD1CE,
    };

    for round in 0..2u64 {
        let seed = round_seed(base, round);
        let net = churn_network_sized(n, seed);
        let world = ChurnWorld::new(&net);
        let ops = generate_ops(&ChurnConfig {
            seed,
            ops: 24,
            advance_max_ms: 45_000,
        });
        let tag = format!("calibrated-{n} seed {seed:#x} (replay LG_CHURN_SEED={base})");

        let run = || {
            let mut sim = DynamicSim::new(&net, DynamicSimConfig::default());
            sim.record_updates(true);
            for p in &world.prefixes {
                sim.begin_epoch(*p);
            }
            let mut runner = ChurnRunner::new(&world);
            for op in &ops {
                runner.apply(&mut sim, &net, op);
            }
            let tick = sim.run_until_quiescent(sim.now() + Time::from_mins(600).millis());
            assert_update_log_invariants(&tag, &sim);
            let locs: Vec<_> = world
                .prefixes
                .iter()
                .flat_map(|p| {
                    net.graph().ases().map(|a| {
                        (
                            *p,
                            a,
                            sim.loc_route(a, *p)
                                .map(|r| (r.learned_from, r.path.hops().to_vec())),
                        )
                    })
                })
                .collect();
            (
                tick,
                sim.now(),
                sim.quiescent(),
                sim.update_log().to_vec(),
                locs,
            )
        };

        let first = run();
        let again = run();
        assert!(first.2, "{tag}: not quiescent");
        assert_eq!(
            (first.0, first.1),
            (again.0, again.1),
            "{tag}: quiescence diverges"
        );
        assert_eq!(first.3.len(), again.3.len(), "{tag}: log length diverges");
        for (i, (a, b)) in first.3.iter().zip(again.3.iter()).enumerate() {
            assert_eq!(a, b, "{tag}: log diverges at record {i}");
        }
        assert_eq!(first.4, again.4, "{tag}: Loc-RIBs diverge");
    }
}
