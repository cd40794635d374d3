//! `repair_loop`: outage lifecycles through `Lifeguard::tick`.
//!
//! One op is one incident on the next of sixteen monitored targets: a
//! `ScenarioGen` failure (the paper's mix: 38 % links, 70 %
//! unidirectional) appears on the target's path, the loop detects it,
//! isolates it, plans and poisons (or decides not to), the failure window
//! ends, the sentinel notices and the baseline announcement returns. Every
//! op runs the same 61 ticks of simulated time; every fourth op carries a
//! second, overlapping incident on another target so the union-of-poisons
//! check runs. `probe`, `atlas`, `locate`, `core` and `sim.dataplane` do
//! the work; `sim.dynamic` is idle. Set-up is `World::new` — one fixed
//! point per AS, n² routes — which is where a lazy-infra change would show.

use super::{
    common_layers, multihomed_stubs, ns_since, topology, Digest, Metrics, OpReport, Ops, Rng,
    Scale, Workload, WORLD_SEED,
};
use crate::spans::Tracer;
use crate::stats;
use lg_asmap::AsId;
use lg_bgp::Prefix;
use lg_locate::Isolator;
use lg_sim::dataplane::{infra_addr, infra_prefix};
use lg_sim::failures::Failure;
use lg_sim::{Network, Time};
use lg_workloads::ScenarioGen;
use lifeguard_core::decide::plan_repair_cached;
use lifeguard_core::{EventKind, Lifeguard, LifeguardConfig, TargetState, World};
use std::hint::black_box;
use std::time::Instant;

const FULL_ASES: usize = 2_000;
const TARGETS: usize = 16;
const VANTAGE_POINTS: usize = 5;
/// Incidents in the fixed schedule the ops cycle through.
const SCHEDULE: usize = 128;
const TICK_MS: u64 = 30_000;
const TICKS_PER_OP: u64 = 61;
/// The failure appears between the first and second tick of the op and
/// lasts a quarter of an hour: long enough to be detected, isolated and
/// poisoned around, short enough that a target the planner declared
/// unfixable (retried after 10 min) is healthy again well before the op
/// ends.
const FAIL_FROM_MS: u64 = 15_000;
const FAIL_UNTIL_MS: u64 = 15 * 60_000;
/// Every fourth op adds a second incident, four ticks behind the first.
const OVERLAP_EVERY: u64 = 4;
const OVERLAP_LAG_MS: u64 = 4 * TICK_MS;
/// Offset into the schedule of an overlapping incident; not a multiple of
/// `TARGETS`, so it never lands on the primary's target.
const OVERLAP_OFFSET: usize = 7;

pub struct RepairLoop {
    pub seed: u64,
    pub scale: Scale,
}

fn production() -> Prefix {
    Prefix::from_octets(184, 164, 224, 0, 20)
}

fn sentinel() -> Prefix {
    Prefix::from_octets(184, 164, 224, 0, 19)
}

/// One scheduled failure with its ground truth.
struct Incident {
    target: AsId,
    culprit: AsId,
    failures: Vec<Failure>,
}

/// What one op did, in simulated terms.
#[derive(Clone, Default)]
struct OpSim {
    incidents: u32,
    detected: u32,
    skipped: u32,
    blamed: u32,
    blamed_right: u32,
    probes: u64,
    /// One entry per `Repaired` event.
    downtime_ms: Vec<u64>,
}

struct State<'n> {
    net: &'n Network,
    world: World<'n>,
    lifeguard: Lifeguard,
    origin: AsId,
    targets: Vec<AsId>,
    vantage_points: Vec<AsId>,
    schedule: Vec<Incident>,
    now: Time,
    inputs: Digest,
    sims: Vec<OpSim>,
}

impl Workload for RepairLoop {
    fn with_state(&self, tr: &Tracer, ready: &mut dyn FnMut(&mut dyn Ops)) {
        let graph = topology(tr, self.scale.ases(FULL_ASES));
        let mut inputs = Digest::default();
        inputs.add_graph(&graph);

        let mut rng = Rng::new(WORLD_SEED, 0x4e9a);
        let mut sites = multihomed_stubs(&graph, &mut rng);
        assert!(sites.len() > TARGETS + VANTAGE_POINTS, "topology too small");
        let origin = sites.pop().expect("checked above");
        let targets = sites.split_off(sites.len() - TARGETS);
        let vantage_points = sites.split_off(sites.len() - VANTAGE_POINTS);
        for a in [origin].iter().chain(&targets).chain(&vantage_points) {
            inputs.add_as(*a);
        }

        let net = tr.span("sim.network_new", || Network::new(graph));
        let mut world = tr.span("core.world_new", || World::new(&net));
        let mut cfg = LifeguardConfig::paper_defaults(origin, production(), sentinel());
        cfg.targets = targets.clone();
        cfg.vantage_points = vantage_points.clone();
        let mut lifeguard = Lifeguard::new(cfg);
        tr.span("core.install", || lifeguard.install(&mut world, Time::ZERO));

        // The schedule, drawn from `--seed`: failures along each target's
        // converged path, scoped the way the paper's outages are — a reverse failure drops
        // what flows back to the origin's prefixes, probes included.
        let mut gen = ScenarioGen::new(self.seed ^ 0x5ce9);
        let schedule: Vec<Incident> = (0..SCHEDULE)
            .map(|k| {
                let target = targets[k % TARGETS];
                let table = world
                    .dp
                    .table(infra_prefix(target))
                    .expect("World::new announces every infra prefix");
                let sc = gen
                    .draw(&net, table, origin, sentinel(), infra_prefix(target))
                    .expect("stub-to-stub paths cross transit");
                let mut failures = sc.failures.clone();
                for f in &sc.failures {
                    if f.toward == Some(sentinel()) {
                        let mut g = f.clone();
                        g.toward = Some(infra_prefix(origin));
                        failures.push(g);
                    }
                }
                inputs.add_as(target);
                inputs.add_as(sc.culprit());
                inputs.add(sc.kind as u64);
                inputs.add(failures.len() as u64);
                Incident {
                    target,
                    culprit: sc.culprit(),
                    failures,
                }
            })
            .collect();

        let mut st = State {
            net: &net,
            world,
            lifeguard,
            origin,
            targets,
            vantage_points,
            schedule,
            now: Time::from_mins(1),
            inputs,
            sims: Vec::new(),
        };
        // Warm-up: one incident per target, untimed, through the same path.
        let quiet = Tracer::new(false);
        for k in 0..TARGETS as u64 {
            let r = st.incident(k, false, &quiet);
            assert!(r.ok, "warm-up incident {k} did not return to baseline");
        }
        st.sims.clear();
        ready(&mut st);
    }
}

impl State<'_> {
    /// Run schedule entry `k` (and, when `overlap`, a second incident
    /// behind it) through 61 ticks and check the world is back to baseline.
    fn incident(&mut self, k: u64, overlap: bool, tr: &Tracer) -> OpReport {
        let t0 = self.now;
        let primary = k as usize % SCHEDULE;
        let mut running = vec![(primary, 0u64)];
        if overlap {
            running.push(((primary + OVERLAP_OFFSET) % SCHEDULE, OVERLAP_LAG_MS));
        }
        let events_before = self.lifeguard.events().len();
        let probes_before = self.world.prober.counters().total();

        let started = Instant::now();
        for (idx, lag) in &running {
            for f in &self.schedule[*idx].failures {
                let from = t0 + FAIL_FROM_MS + *lag;
                self.world
                    .dp
                    .failures_mut()
                    .add(f.clone().window(from, Some(t0 + FAIL_UNTIL_MS)));
            }
        }
        for tick in 0..TICKS_PER_OP {
            let now = t0 + tick * TICK_MS;
            let (lifeguard, world) = (&mut self.lifeguard, &mut self.world);
            tr.span_as(|| {
                let seen = lifeguard.events().len();
                lifeguard.tick(world, now);
                let decided = lifeguard.events()[seen..]
                    .iter()
                    .any(|e| matches!(e.kind, EventKind::OutageDetected { .. }));
                let name = if decided {
                    "core.tick_decision"
                } else {
                    "core.tick_healthy"
                };
                ((), name)
            });
        }
        let wall_ns = ns_since(started);
        let end = t0 + TICKS_PER_OP * TICK_MS;
        self.now = end;

        // The failure rule, against ground truth.
        let healthy = TargetState::Monitoring {
            consecutive_failures: 0,
        };
        let mut ok = !self.lifeguard.poisoning_active();
        for (idx, _) in &running {
            let target = self.schedule[*idx].target;
            ok &= self.lifeguard.state(target) == Some(&healthy);
            let (fwd, rev) = self.world.dp.round_trip(
                end,
                self.origin,
                production().nth_addr(1),
                infra_addr(target),
            );
            ok &= fwd.outcome.delivered() && rev.is_some_and(|w| w.outcome.delivered());
        }
        // Expired windows would otherwise pile up in the failure set.
        self.world.dp.failures_mut().clear();

        // Simulated statistics of the op, from the event log.
        let mut sim = OpSim {
            incidents: running.len() as u32,
            probes: self.world.prober.counters().total() - probes_before,
            ..OpSim::default()
        };
        let mut digest = Digest::default();
        for e in &self.lifeguard.events()[events_before..] {
            digest.add(e.at - t0);
            digest.add_as(e.kind.target());
            match &e.kind {
                EventKind::OutageDetected { .. } => {
                    sim.detected += 1;
                    digest.add(1);
                }
                EventKind::IsolationCompleted {
                    target,
                    blame,
                    elapsed_ms,
                    ..
                } => {
                    digest.add(2);
                    digest.add(*elapsed_ms);
                    if let Some(b) = blame {
                        sim.blamed += 1;
                        digest.add_as(b.poison_target());
                        let truth = running
                            .iter()
                            .map(|(idx, _)| &self.schedule[*idx])
                            .find(|inc| inc.target == *target);
                        if truth.is_some_and(|inc| inc.culprit == b.poison_target()) {
                            sim.blamed_right += 1;
                        }
                    }
                }
                EventKind::Poisoned {
                    poisoned,
                    selective,
                    ..
                } => {
                    digest.add(3);
                    digest.add_as(*poisoned);
                    digest.add(*selective as u64);
                }
                EventKind::PoisonSkipped { .. } => {
                    sim.skipped += 1;
                    digest.add(4);
                }
                EventKind::Repaired { downtime_ms, .. } => {
                    sim.downtime_ms.push(*downtime_ms);
                    digest.add(5);
                    digest.add(*downtime_ms);
                }
                EventKind::FailureHealed { .. } => digest.add(6),
                EventKind::Unpoisoned { .. } => digest.add(7),
            }
        }
        digest.add(sim.probes);
        self.sims.push(sim);
        OpReport {
            wall_ns,
            ok,
            oracle_ok: true,
            sim: digest.0,
        }
    }
}

impl Ops for State<'_> {
    fn input_digest(&self) -> u64 {
        self.inputs.0
    }

    fn op(&mut self, i: u64, tr: &Tracer) -> OpReport {
        self.incident(i, i % OVERLAP_EVERY == OVERLAP_EVERY - 1, tr)
    }

    fn layers(&mut self, tr: &Tracer, out: &mut Metrics) {
        let baseline = self.lifeguard.baseline_spec(&self.world);
        common_layers(tr, self.net, &baseline, out);

        // Counts over the first schedule cycle: the same ops on any host.
        let cycle = &self.sims[..self.sims.len().min(SCHEDULE)];
        let sum = |f: fn(&OpSim) -> u64| cycle.iter().map(f).sum::<u64>() as f64;
        let incidents = sum(|s| s.incidents as u64).max(1.0);
        let detected = sum(|s| s.detected as u64).max(1.0);
        out.insert("probe.probes_per_incident", sum(|s| s.probes) / incidents);
        out.insert(
            "core.ticks_per_incident",
            cycle.len() as f64 * TICKS_PER_OP as f64 / incidents,
        );
        out.insert(
            "core.repaired_share",
            sum(|s| s.downtime_ms.len() as u64) / detected,
        );
        out.insert("core.skipped_share", sum(|s| s.skipped as u64) / detected);
        out.insert(
            "locate.blame_correct_share",
            sum(|s| s.blamed_right as u64) / sum(|s| s.blamed as u64).max(1.0),
        );
        let downtimes: Vec<f64> = cycle
            .iter()
            .flat_map(|s| &s.downtime_ms)
            .map(|ms| *ms as f64 / 1e3)
            .collect();
        out.insert("core.sim_downtime_s_p50", stats::median_of(&downtimes));

        // Direct calls into the layers the ops reach only through `tick`,
        // on this world, one failure at a time.
        let isolator = Isolator::new(self.vantage_points.clone());
        for inc in self.schedule.iter().take(2 * TARGETS) {
            let now = self.now + 120_000;
            for f in &inc.failures {
                self.world
                    .dp
                    .failures_mut()
                    .add(f.clone().window(self.now, None));
            }
            let w = &mut self.world;
            let report = tr.span("locate.isolate", || {
                isolator.isolate(
                    &w.dp,
                    &mut w.prober,
                    &w.atlas,
                    &w.resp,
                    now,
                    self.origin,
                    inc.target,
                )
            });
            if let Some(blame) = report.blame {
                let (cfg, cache) = (self.lifeguard.config(), self.lifeguard.route_cache());
                let _ = black_box(tr.span("core.plan", || {
                    plan_repair_cached(self.net, cfg, blame, inc.target, cache)
                }));
            }
            self.world.dp.failures_mut().clear();
            self.now += 10 * 60_000;
        }
        for round in 0..4u64 {
            // A fresh second per round keeps the per-AS ICMP rate limit out
            // of the measurement.
            let now = self.now + round * 1_000;
            for t in &self.targets {
                let (dp, prober) = (&self.world.dp, &mut self.world.prober);
                black_box(tr.span("probe.ping", || {
                    prober.ping(dp, now, self.origin, infra_addr(*t))
                }));
                black_box(tr.span("probe.traceroute", || {
                    prober.traceroute(dp, now, self.origin, infra_addr(*t))
                }));
                black_box(tr.span("probe.reverse_traceroute", || {
                    prober.reverse_traceroute(dp, now, self.origin, *t, true)
                }));
                black_box(tr.span("sim.dataplane.walk", || {
                    dp.walk(now, self.origin, infra_addr(*t))
                }));
            }
        }
        for _ in 0..8 {
            tr.span("sim.dataplane.announce", || {
                black_box(self.world.dp.announce(&baseline));
            });
        }
        self.now += 60 * 60_000;
        let (origin, now) = (self.origin, self.now);
        tr.span("atlas.warm", || {
            self.world.warm_atlas(origin, &self.targets, now)
        });

        out.insert("dataplane.tables", self.world.dp.tables().len() as f64);
        out.insert("atlas.entries", self.world.atlas.entry_count() as f64);
        let cache = self.lifeguard.route_cache().stats();
        out.insert("cache.hits", cache.hits as f64);
        out.insert("cache.misses", cache.misses as f64);
        out.insert("cache.evictions", cache.evictions.total() as f64);
        out.insert("cache.retention_pct", 100.0 * cache.retention_ratio());
    }
}
