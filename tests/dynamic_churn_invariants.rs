//! Churn invariants for the dynamic engine.
//!
//! Randomized announce/withdraw/fail/restore schedules, plus hand-built and
//! dense ones, are driven through [`DynamicSim`], and every run must:
//!
//! * quiesce;
//! * keep its update log time-monotone (so per-peer sends never go
//!   backwards), with every MRAI-governed announcement at least
//!   `mrai_interval(from, to)` after the previous one on its
//!   `(from, to, prefix)` stream ([`assert_update_log_invariants`]);
//! * reproduce: the same schedule run twice gives byte-identical update
//!   logs, Loc-RIBs, quiescence ticks, per-AS metrics and packing counters.
//!   The two runs' std maps get different SipHash seeds, so an output that
//!   leaks hash iteration order diverges here;
//! * account packing consistently, in a registry of its own: packed wire
//!   bytes never exceed the one-prefix-per-message baseline, and fewer
//!   emissions are packed into open groups than are sent.
//!
//! Dense schedules, with clock advances far below the MRAI interval, must
//! also defer announcements.
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
//! the whole pool. Replay also needs the same `LG_PREFIX_COUNT`.

use lg_telemetry::Registry;
use lifeguard_repro::asmap::{AsId, GraphBuilder};
use lifeguard_repro::bgp::Prefix;
use lifeguard_repro::sim::{
    AnnouncementSpec, DynamicSim, DynamicSimConfig, Network, Time, UpdateRecord,
};
use lifeguard_repro::workloads::churn::{
    assert_update_log_invariants, churn_network, generate_ops, ChurnConfig, ChurnRunner, ChurnWorld,
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
/// invariants cover short and long shadows, with and without jitter.
fn config_for(seed: u64) -> DynamicSimConfig {
    DynamicSimConfig {
        mrai_ms: [5_000, 15_000, 30_000][(seed % 3) as usize],
        mrai_jitter: seed.is_multiple_of(2),
        proc_delay_ms: 1,
    }
}

/// Deterministic, ordered dump of one prefix's metrics: runs must agree on
/// the per-AS measurement, not just the logs and RIBs.
type MetricsDump = Vec<(AsId, u64, Time, Time, u64, Time, Time)>;

/// Per-AS Loc-RIB selection: `(holder, Some((neighbor, path)))`.
type LocRibDump = Vec<(AsId, Option<(AsId, Vec<AsId>)>)>;

/// A per-prefix dump over the whole pool, in pool order.
type PoolDump<T> = Vec<(Prefix, T)>;

/// The run's counters, read from its own registry.
#[derive(Debug, PartialEq, Eq)]
struct Counters {
    updates_sent: u64,
    mrai_deferrals: u64,
    updates_packed: u64,
    wire_bytes: u64,
    wire_bytes_unpacked: u64,
}

/// The observable end state of one simulation run.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    quiesce_at: Time,
    now: Time,
    quiescent: bool,
    loc_ribs: PoolDump<LocRibDump>,
    log: Vec<UpdateRecord>,
    metrics: PoolDump<MetricsDump>,
    counters: Counters,
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

/// Snapshot everything a run is compared on, over `prefixes`.
fn observe(
    sim: &DynamicSim,
    net: &Network,
    prefixes: &[Prefix],
    quiesce_at: Time,
    registry: &Registry,
) -> Outcome {
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
    let snap = registry.snapshot();
    let c = |name: &str| snap.counter(name).unwrap_or(0);
    Outcome {
        quiesce_at,
        now: sim.now(),
        quiescent: sim.quiescent(),
        loc_ribs,
        log: sim.update_log().to_vec(),
        metrics,
        counters: Counters {
            updates_sent: c("dynamic.updates_sent"),
            mrai_deferrals: c("dynamic.mrai_deferrals"),
            updates_packed: c("dynamic.updates_packed"),
            wire_bytes: c("dynamic.wire_bytes"),
            wire_bytes_unpacked: c("dynamic.wire_bytes_unpacked"),
        },
    }
}

/// Assert two runs of one schedule byte-identical, locating the first log
/// divergence for a usable failure message.
fn assert_identical(tag: &str, got: &Outcome, again: &Outcome) {
    let n = got.log.len().min(again.log.len());
    for i in 0..n {
        assert_eq!(
            got.log[i], again.log[i],
            "{tag}: update logs diverge at record #{i}"
        );
    }
    assert_eq!(
        got.log.len(),
        again.log.len(),
        "{tag}: update logs differ in length after agreeing on {n} records"
    );
    assert_eq!(got.loc_ribs, again.loc_ribs, "{tag}: Loc-RIBs diverge");
    assert_eq!(
        (got.quiesce_at, got.now),
        (again.quiesce_at, again.now),
        "{tag}: quiescence ticks diverge"
    );
    assert_eq!(got.metrics, again.metrics, "{tag}: per-AS metrics diverge");
    assert_eq!(got.counters, again.counters, "{tag}: counters diverge");
}

/// Drive `schedule` over `net` twice, each run in a registry of its own,
/// and assert every invariant of the module docs on the result.
fn check_schedule(
    tag: &str,
    net: &Network,
    cfg: &DynamicSimConfig,
    prefixes: &[Prefix],
    horizon: Time,
    schedule: impl Fn(&mut DynamicSim),
) -> Outcome {
    let run = || {
        let registry = Registry::new();
        let mut sim = DynamicSim::with_registry(net, cfg.clone(), &registry);
        sim.record_updates(true);
        for p in prefixes {
            sim.begin_epoch(*p);
        }
        schedule(&mut sim);
        let q = sim.run_until_quiescent(sim.now() + horizon.millis());
        assert_update_log_invariants(tag, &sim);
        observe(&sim, net, prefixes, q, &registry)
    };
    let first = run();
    assert!(first.quiescent, "{tag}: run did not quiesce");
    assert_identical(&format!("{tag} [run twice]"), &first, &run());
    let c = &first.counters;
    assert!(
        c.wire_bytes <= c.wire_bytes_unpacked,
        "{tag}: packing cost bytes: {c:?}"
    );
    assert!(
        c.updates_sent == 0 || c.updates_packed < c.updates_sent,
        "{tag}: more emissions packed than sent: {c:?}"
    );
    first
}

/// Check one randomized schedule, returning its update count.
fn check_one(seed: u64, matrix: FilterMatrix) -> usize {
    let tag = format!("seed {seed} matrix {}", matrix.label());
    let mut net = churn_network(seed ^ 0xA5A5);
    matrix.apply(&mut net, seed);
    let world = ChurnWorld::new(&net);
    let ops = generate_ops(&ChurnConfig {
        seed,
        ops: 24,
        advance_max_ms: 45_000,
    });
    let outcome = check_schedule(
        &tag,
        &net,
        &config_for(seed),
        &world.prefixes,
        Time::from_mins(600),
        |sim| {
            let mut runner = ChurnRunner::new(&world);
            for op in &ops {
                runner.apply(sim, &net, op);
            }
        },
    );
    outcome.log.len()
}

#[test]
fn randomized_churn_keeps_invariants() {
    let base = base_seed();
    let matrix = FilterMatrix::from_env().unwrap_or(FilterMatrix::None);
    println!(
        "churn invariant sweep: base seed {base} matrix {} \
         (override with LG_CHURN_SEED / LG_FILTER_MATRIX)",
        matrix.label()
    );
    let mut total_updates = 0usize;
    for i in 0..SCHEDULES {
        total_updates += check_one(schedule_seed(base, i), matrix);
    }
    // The sweep must actually exercise the machinery, not no-op through.
    assert!(
        total_updates > 10_000,
        "sweep produced suspiciously little churn: {total_updates} updates"
    );
}

#[test]
fn filter_matrix_churn_keeps_invariants() {
    // All four filter-deployment points at a reduced schedule count: the
    // big sweep covers one point exhaustively (selected by
    // LG_FILTER_MATRIX); this one guarantees every point is exercised on
    // every run.
    let base = base_seed() ^ 0xF1173;
    for matrix in FilterMatrix::ALL {
        println!(
            "filter-matrix invariants: matrix {} base seed {base}",
            matrix.label()
        );
        for i in 0..40 {
            check_one(schedule_seed(base, i), matrix);
        }
    }
}

#[test]
fn hand_built_schedules_keep_invariants() {
    let prefix = Prefix::from_octets(184, 164, 224, 0, 20);
    let cfg = |mrai_ms| DynamicSimConfig {
        mrai_ms,
        ..DynamicSimConfig::default()
    };

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
    let out = check_schedule(
        "hub star",
        &star,
        &cfg(100),
        &[prefix],
        Time::from_mins(60),
        |sim| {
            sim.announce(&AnnouncementSpec::plain(&star, prefix, AsId(1)));
            // The second announcement reaches the hub 30 ms after the
            // first: inside every spoke shadow (the earliest ends 75 ms
            // after the flood).
            sim.run_until(sim.now() + 30);
            sim.announce(&AnnouncementSpec::prepended(&star, prefix, AsId(1), 3));
        },
    );
    assert!(
        out.counters.mrai_deferrals > 0,
        "hub star: nothing deferred"
    );

    // Provider chain 0 <- 1 <- ... <- 15, origin at the bottom: stop with
    // the first wave part-way up, fail the link its front is crossing
    // (that UPDATE dies with the session), let the rest settle, restore.
    let mut g = GraphBuilder::with_ases(16);
    for i in 0..15 {
        g.provider_customer(AsId(i + 1), AsId(i));
    }
    let chain = Network::new(g.build());
    let out = check_schedule(
        "chain flap",
        &chain,
        &cfg(15_000),
        &[prefix],
        Time::from_mins(60),
        |sim| {
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
        },
    );
    assert!(
        !out.log.is_empty(),
        "chain flap: schedule produced no updates"
    );
}

#[test]
fn short_advances_defer_and_keep_invariants() {
    // Dense regime: advances far below the MRAI interval, so nearly every
    // route change lands in a shadow and flows through the deferral
    // machinery (wheel fires interleaved with deliveries).
    let cfg = DynamicSimConfig {
        mrai_ms: 30_000,
        ..DynamicSimConfig::default()
    };
    for i in 0..40u64 {
        let seed = schedule_seed(0xDEADBEEF, i);
        let net = churn_network(seed);
        let world = ChurnWorld::new(&net);
        let ops = generate_ops(&ChurnConfig {
            seed,
            ops: 40,
            advance_max_ms: 2_000,
        });
        let out = check_schedule(
            &format!("dense seed {seed}"),
            &net,
            &cfg,
            &world.prefixes,
            Time::from_mins(600),
            |sim| {
                let mut runner = ChurnRunner::new(&world);
                for op in &ops {
                    runner.apply(sim, &net, op);
                }
            },
        );
        assert!(
            out.counters.mrai_deferrals > 0,
            "dense seed {seed}: nothing deferred"
        );
    }
}
