//! Differential churn harness for the dynamic engine's out-queue.
//!
//! The ring-buffer/timer-wheel out-queue (`OutQueue::Ring`, the default)
//! and the original flat-map implementation (`OutQueue::Reference`, the
//! oracle) must be *event-for-event* identical: the same randomized
//! announce/withdraw/fail/restore schedule driven through both must
//! produce byte-identical update logs, identical Loc-RIBs, and identical
//! quiescence ticks. On top of the pairwise comparison, every emission is
//! checked against two single-sim invariants: per-peer sends never go
//! backwards in time, and MRAI-governed announcements respect the
//! per-(node, peer) lower bound on spacing.
//!
//! Seeds: the schedule space is swept from a base seed, overridable with
//! `LG_CHURN_SEED=<u64>` (CI runs two fixed bases plus one random one).
//! Every failure message carries the offending schedule seed for replay.
//!
//! Filter matrices: the sweep also runs under the adversarial filter
//! deployments of [`FilterMatrix`] — `LG_FILTER_MATRIX` selects the point
//! for the big sweep, and a dedicated test covers all four points at a
//! reduced schedule count. Replay = same seed + same `LG_FILTER_MATRIX`.
//!
//! Prefix pool: schedules select from `LG_PREFIX_COUNT` prefixes
//! (default 2, including a covering/covered pair), and every dump spans
//! the whole pool. The subject side additionally runs with multi-prefix
//! UPDATE packing enabled while the oracle runs unpacked — packing is
//! observational (wire accounting only), and this sweep is what pins
//! that: logs, Loc-RIBs, and metrics must stay byte-identical anyway.
//! Replay also needs the same `LG_PREFIX_COUNT`.

use std::collections::HashMap;

use lifeguard_repro::asmap::{AsId, GraphBuilder};
use lifeguard_repro::bgp::Prefix;
use lifeguard_repro::sim::{
    AnnouncementSpec, DynamicSim, DynamicSimConfig, Network, OutQueue, Time, UpdateRecord,
};
use lifeguard_repro::workloads::churn::{
    churn_network, generate_ops, ChurnConfig, ChurnRunner, ChurnWorld,
};
use lifeguard_repro::workloads::FilterMatrix;

/// Schedules per sweep. CI runs the sweep three times (two fixed bases,
/// one random), so the per-run count stays modest while total coverage
/// exceeds the 500-schedule bar; a single default run alone also clears
/// it.
const SCHEDULES: u64 = 500;

fn base_seed() -> u64 {
    match std::env::var("LG_CHURN_SEED") {
        Ok(s) => s
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("LG_CHURN_SEED must be a u64, got {s:?}")),
        Err(_) => 0xC0FFEE,
    }
}

/// Distinct per-schedule seed derived from the base (splitmix-style).
fn schedule_seed(base: u64, i: u64) -> u64 {
    let mut x = base ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x.max(1)
}

/// Engine config derived from the seed: sweep MRAI base and jitter so the
/// differential covers short and long shadows, with and without jitter.
fn config_for(seed: u64, out_queue: OutQueue, pack: bool) -> DynamicSimConfig {
    DynamicSimConfig {
        mrai_ms: [5_000, 15_000, 30_000][(seed % 3) as usize],
        mrai_jitter: seed.is_multiple_of(2),
        proc_delay_ms: 1,
        out_queue,
        pack_updates: pack,
    }
}

/// Deterministic, ordered dump of one prefix's metrics — both out-queue
/// shapes must produce the same per-AS measurement, not just the same
/// logs and RIBs.
type MetricsDump = Vec<(AsId, u64, Time, Time, u64, Time, Time)>;

/// Per-AS Loc-RIB selection: `(holder, Some((neighbor, path)))`.
type LocRibDump = Vec<(AsId, Option<(AsId, Vec<AsId>)>)>;

/// A per-prefix dump over the whole pool, in pool order.
type PoolDump<T> = Vec<(Prefix, T)>;

/// The observable end state of one simulation run.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    quiesce_at: Time,
    now: Time,
    quiescent: bool,
    loc_ribs: PoolDump<LocRibDump>,
    log: Vec<UpdateRecord>,
    metrics: PoolDump<MetricsDump>,
}

fn dump_metrics(sim: &DynamicSim, prefix: Prefix) -> MetricsDump {
    let m = sim.metrics(prefix);
    let mut ids: Vec<AsId> = m
        .updates_sent
        .keys()
        .chain(m.loc_changes.keys())
        .copied()
        .collect();
    ids.sort();
    ids.dedup();
    ids.into_iter()
        .map(|a| {
            (
                a,
                m.updates_of(a),
                m.first_sent.get(&a).copied().unwrap_or(Time::ZERO),
                m.last_sent.get(&a).copied().unwrap_or(Time::ZERO),
                m.loc_changes.get(&a).copied().unwrap_or(0),
                m.first_loc_change.get(&a).copied().unwrap_or(Time::ZERO),
                m.last_loc_change.get(&a).copied().unwrap_or(Time::ZERO),
            )
        })
        .collect()
}

fn run_one(seed: u64, out_queue: OutQueue, matrix: FilterMatrix, pack: bool) -> Outcome {
    let mut net = churn_network(seed ^ 0xA5A5);
    matrix.apply(&mut net, seed);
    let world = ChurnWorld::new(&net);
    let ops = generate_ops(&ChurnConfig {
        seed,
        ops: 24,
        advance_max_ms: 45_000,
    });

    let mut sim = DynamicSim::new(&net, config_for(seed, out_queue, pack));
    sim.record_updates(true);
    for p in &world.prefixes {
        sim.begin_epoch(*p);
    }
    let mut runner = ChurnRunner::new(&world);
    for op in &ops {
        runner.apply(&mut sim, &net, op);
    }
    let quiesce_at = sim.run_until_quiescent(sim.now() + Time::from_mins(600).millis());
    observe(&sim, &net, &world.prefixes, quiesce_at)
}

/// Snapshot everything the differential compares, over `prefixes`.
fn observe(sim: &DynamicSim, net: &Network, prefixes: &[Prefix], quiesce_at: Time) -> Outcome {
    let loc_ribs = prefixes
        .iter()
        .map(|p| {
            (
                *p,
                net.graph()
                    .ases()
                    .map(|a| {
                        (
                            a,
                            sim.loc_route(a, *p)
                                .map(|r| (r.learned_from, r.path.hops().to_vec())),
                        )
                    })
                    .collect(),
            )
        })
        .collect();
    let metrics = prefixes
        .iter()
        .map(|p| (*p, dump_metrics(sim, *p)))
        .collect();
    Outcome {
        quiesce_at,
        now: sim.now(),
        quiescent: sim.quiescent(),
        loc_ribs,
        log: sim.update_log().to_vec(),
        metrics,
    }
}

/// Single-sim invariants over an update log.
///
/// The log as a whole never goes backwards in time — emissions are
/// recorded in global `(time, seq)` processing order.
///
/// MRAI lower bound: between two consecutive *machinery* announcements on
/// one (from, to, prefix) stream, at least `mrai_interval(from, to)` ms
/// must elapse. The tracker resets when the origin withdraws the prefix
/// (its out-state is dropped wholesale, observable as a seeded
/// withdrawal), matching the engine's documented semantics. Withdrawals
/// themselves bypass MRAI by design and are exempt.
fn check_invariants(tag: &str, sim_cfg: &DynamicSimConfig, net: &Network, log: &[UpdateRecord]) {
    let sim = DynamicSim::new(net, sim_cfg.clone());
    let mut ready: HashMap<(AsId, AsId, Prefix), Time> = HashMap::new();
    for (i, rec) in log.iter().enumerate() {
        if i > 0 {
            assert!(
                log[i - 1].at <= rec.at,
                "{tag}: log times regress at send #{i}: {:?} then {rec:?}",
                log[i - 1]
            );
        }
        let key = (rec.from, rec.to, rec.prefix);
        if rec.seeded {
            if rec.path.is_none() {
                // Origin withdrew: its whole out-state for the prefix is
                // dropped, so MRAI phase restarts for these streams.
                ready.retain(|(f, _, p), _| !(*f == rec.from && *p == rec.prefix));
            }
            continue;
        }
        if rec.path.is_some() {
            if let Some(r) = ready.get(&key) {
                assert!(
                    rec.at >= *r,
                    "{tag}: MRAI violated at send #{i}: ({:?} -> {:?}, {:?}) \
                     announced at {:?}, not ready before {:?} (interval {} ms)",
                    rec.from,
                    rec.to,
                    rec.prefix,
                    rec.at,
                    r,
                    sim.mrai_interval(rec.from, rec.to)
                );
            }
            ready.insert(key, rec.at + sim.mrai_interval(rec.from, rec.to));
        }
    }
}

/// Assert two outcomes byte-identical, locating the first log divergence
/// for a usable failure message.
fn assert_identical(tag: &str, got: &Outcome, oracle: &Outcome) {
    assert!(
        got.quiescent && oracle.quiescent,
        "{tag}: run did not quiesce (got {}, oracle {})",
        got.quiescent,
        oracle.quiescent
    );
    let n = got.log.len().min(oracle.log.len());
    for i in 0..n {
        assert_eq!(
            got.log[i], oracle.log[i],
            "{tag}: update logs diverge at record #{i}"
        );
    }
    assert_eq!(
        got.log.len(),
        oracle.log.len(),
        "{tag}: update logs differ in length after agreeing on {n} records"
    );
    assert_eq!(got.loc_ribs, oracle.loc_ribs, "{tag}: Loc-RIBs diverge");
    assert_eq!(
        (got.quiesce_at, got.now),
        (oracle.quiesce_at, oracle.now),
        "{tag}: quiescence ticks diverge"
    );
    assert_eq!(got.metrics, oracle.metrics, "{tag}: per-AS metrics diverge");
}

/// Diff one schedule, returning the ring side's update count.
fn diff_one(seed: u64, matrix: FilterMatrix) -> usize {
    let tag = format!("seed {seed} matrix {}", matrix.label());
    // The subject side runs with UPDATE packing on; the oracle runs
    // unpacked. Packing is wire accounting only, so the comparison must
    // still be byte-identical — this sweep is the packed-vs-unpacked pin.
    let ring = run_one(seed, OutQueue::Ring, matrix, true);
    let reference = run_one(seed, OutQueue::Reference, matrix, false);
    assert_identical(&format!("{tag} [ring vs reference]"), &ring, &reference);
    check_invariants(
        &tag,
        &config_for(seed, OutQueue::Ring, true),
        &churn_network(seed ^ 0xA5A5),
        &ring.log,
    );
    ring.log.len()
}

#[test]
fn ring_out_queue_matches_reference_across_randomized_churn() {
    let base = base_seed();
    let matrix = FilterMatrix::from_env().unwrap_or(FilterMatrix::None);
    println!(
        "outqueue differential sweep: base seed {base} matrix {} \
         (override with LG_CHURN_SEED / LG_FILTER_MATRIX)",
        matrix.label()
    );
    let mut total_updates = 0usize;
    for i in 0..SCHEDULES {
        total_updates += diff_one(schedule_seed(base, i), matrix);
    }
    // The sweep must actually exercise the machinery, not no-op through.
    assert!(
        total_updates > 10_000,
        "sweep produced suspiciously little churn: {total_updates} updates"
    );
}

#[test]
fn ring_out_queue_matches_reference_across_filter_matrix() {
    // All four filter-deployment points at a reduced schedule count: the
    // big sweep covers one point exhaustively (selected by
    // LG_FILTER_MATRIX); this one guarantees every point is exercised on
    // every run.
    let base = base_seed() ^ 0xF1173;
    for matrix in FilterMatrix::ALL {
        println!(
            "filter-matrix differential: matrix {} base seed {base}",
            matrix.label()
        );
        for i in 0..40 {
            diff_one(schedule_seed(base, i), matrix);
        }
    }
}

/// Drive `schedule` through both out-queue shapes (ring packed, reference
/// unpacked, as in [`diff_one`]) on a hand-built network and diff them.
fn diff_schedule(
    tag: &str,
    net: &Network,
    prefix: Prefix,
    mrai_ms: u64,
    schedule: impl Fn(&mut DynamicSim),
) {
    let cfg = |out_queue, pack_updates| DynamicSimConfig {
        mrai_ms,
        out_queue,
        pack_updates,
        ..DynamicSimConfig::default()
    };
    let run = |cfg: DynamicSimConfig| {
        let mut sim = DynamicSim::new(net, cfg);
        sim.record_updates(true);
        schedule(&mut sim);
        let q = sim.run_until_quiescent(sim.now() + Time::from_mins(60).millis());
        observe(&sim, net, &[prefix], q)
    };
    let ring = run(cfg(OutQueue::Ring, true));
    let reference = run(cfg(OutQueue::Reference, false));
    assert!(!ring.log.is_empty(), "{tag}: schedule produced no updates");
    assert_identical(tag, &ring, &reference);
    check_invariants(tag, &cfg(OutQueue::Ring, true), net, &ring.log);
}

#[test]
fn ring_out_queue_matches_reference_on_hand_built_schedules() {
    let prefix = Prefix::from_octets(184, 164, 224, 0, 20);

    // Hub star: AsId(0) provides for stubs 1..14 and AsId(1) originates.
    // When the hub's selection changes it floods one UPDATE per spoke at
    // the same instant, arming one jittered MRAI deadline per (hub, spoke)
    // pair — twelve deadlines inside the 25 ms that jitter spans on a
    // 100 ms base. The re-announcement lands inside every one of those
    // shadows, so the hub defers a flush per spoke and the fires come due
    // a few ms apart, interleaved with deliveries still in flight.
    let mut g = GraphBuilder::with_ases(14);
    for i in 1..14 {
        g.provider_customer(AsId(0), AsId(i));
    }
    let star = Network::new(g.build());
    diff_schedule("hub star", &star, prefix, 100, |sim| {
        sim.announce(&AnnouncementSpec::plain(&star, prefix, AsId(1)));
        // The second announcement reaches the hub 30 ms after the first:
        // inside every spoke shadow (the earliest ends 75 ms after the
        // flood).
        sim.run_until(sim.now() + 30);
        sim.announce(&AnnouncementSpec::prepended(&star, prefix, AsId(1), 3));
    });

    // Provider chain 0 <- 1 <- ... <- 15, origin at the bottom: stop with
    // the first wave part-way up, fail the link its front is crossing
    // (that UPDATE dies with the session), let the rest settle, restore.
    let mut g = GraphBuilder::with_ases(16);
    for i in 0..15 {
        g.provider_customer(AsId(i + 1), AsId(i));
    }
    let chain = Network::new(g.build());
    diff_schedule("chain flap", &chain, prefix, 15_000, |sim| {
        sim.announce(&AnnouncementSpec::plain(&chain, prefix, AsId(0)));
        sim.run_until(sim.now() + 40);
        let front = (0..16)
            .rev()
            .find(|a| sim.loc_route(AsId(*a), prefix).is_some())
            .expect("origin holds its self-route");
        assert!(front < 15, "wave finished before the link flap");
        sim.fail_link(AsId(front), AsId(front + 1));
        sim.run_until(sim.now() + 500);
        sim.restore_link(AsId(front), AsId(front + 1));
    });
}

#[test]
fn mrai_deferral_paths_agree_under_short_advances() {
    // Dense regime: advances far below the MRAI interval, so nearly every
    // route change lands in a shadow and flows through the deferral
    // machinery (wheel fires vs MraiFire heap events).
    for i in 0..40u64 {
        let seed = schedule_seed(0xDEADBEEF, i);
        let net = churn_network(seed);
        let world = ChurnWorld::new(&net);
        let ops = generate_ops(&ChurnConfig {
            seed,
            ops: 40,
            advance_max_ms: 2_000,
        });
        let mut outcomes = Vec::new();
        for out_queue in [OutQueue::Ring, OutQueue::Reference] {
            let mut sim = DynamicSim::new(
                &net,
                DynamicSimConfig {
                    mrai_ms: 30_000,
                    out_queue,
                    ..DynamicSimConfig::default()
                },
            );
            sim.record_updates(true);
            let mut runner = ChurnRunner::new(&world);
            for op in &ops {
                runner.apply(&mut sim, &net, op);
            }
            let q = sim.run_until_quiescent(sim.now() + Time::from_mins(600).millis());
            assert!(sim.quiescent(), "seed {seed}: not quiescent");
            outcomes.push((q, sim.update_log().to_vec()));
        }
        assert_eq!(
            outcomes[0], outcomes[1],
            "seed {seed}: dense-churn runs diverge"
        );
    }
}
