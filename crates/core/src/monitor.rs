//! Hubble-style mesh monitoring (the trigger system LIFEGUARD builds on).
//!
//! The deployment watches many destinations from many vantage points and
//! feeds isolation only with outages worth acting on. This module
//! implements that front end: per-(vantage, target) ping-pair streaks, an
//! outage ledger, and the §5.3 candidacy criteria —
//!
//! 1. multiple sources must be unable to reach the destination, and those
//!    sources must still reach at least 10% of all destinations (ruling out
//!    source-local problems);
//! 2. the outage must be *partial*: some vantage point still reaches the
//!    destination (suggesting alternate AS paths exist);
//! 3. the problem must persist through the isolation stage (transients are
//!    excluded by the streak threshold and re-checks).

use crate::world::World;
use lg_asmap::AsId;
use lg_sim::dataplane::infra_addr;
use lg_sim::Time;
use lg_telemetry::{Counter, Registry};
use std::collections::HashMap;

/// Registry handles for the outage ledger (`monitor.*` metrics), one bump
/// per ledger transition in [`MeshMonitor::tick`].
struct MonitorTelemetry {
    /// New outage record opened (first vantage streak crossed the
    /// threshold).
    outages_opened: Counter,
    /// An open record's affected-vantage set changed (e.g. became partial
    /// or spread to more vantage points).
    outages_transitioned: Counter,
    /// Record closed into history (connectivity returned everywhere).
    outages_closed: Counter,
}

impl MonitorTelemetry {
    fn from_registry(r: &Registry) -> Self {
        MonitorTelemetry {
            outages_opened: r.counter("monitor.outages_opened"),
            outages_transitioned: r.counter("monitor.outages_transitioned"),
            outages_closed: r.counter("monitor.outages_closed"),
        }
    }
}

impl Default for MonitorTelemetry {
    fn default() -> Self {
        Self::from_registry(lg_telemetry::global())
    }
}

/// One entry in the outage ledger.
#[derive(Clone, Debug)]
pub struct OutageRecord {
    /// The unreachable destination.
    pub target: AsId,
    /// When the first vantage point's streak crossed the threshold.
    pub started: Time,
    /// When connectivity returned everywhere (None while ongoing).
    pub ended: Option<Time>,
    /// Vantage points currently unable to reach the target.
    pub affected_vps: Vec<AsId>,
    /// Vantage points that still reach the target (partial-outage
    /// witnesses).
    pub reachable_vps: Vec<AsId>,
}

impl OutageRecord {
    /// Is the outage partial (the second §5.3 candidacy condition)?
    pub fn is_partial(&self) -> bool {
        !self.reachable_vps.is_empty()
    }

    /// Duration so far (or total when ended), given `now`.
    pub fn duration_ms(&self, now: Time) -> u64 {
        self.ended.unwrap_or(now) - self.started
    }
}

/// Multi-vantage monitoring mesh.
pub struct MeshMonitor {
    /// Vantage points issuing ping pairs.
    pub vantage_points: Vec<AsId>,
    /// Monitored destinations.
    pub targets: Vec<AsId>,
    /// Consecutive failed pairs before a (vp, target) is "down" (paper: 4).
    pub streak_threshold: u32,
    streaks: HashMap<(AsId, AsId), u32>,
    down: HashMap<(AsId, AsId), Time>,
    /// Ongoing outages by target.
    active: HashMap<AsId, OutageRecord>,
    /// Finished outages.
    pub history: Vec<OutageRecord>,
    tele: MonitorTelemetry,
}

impl MeshMonitor {
    /// New mesh with the paper's 4-pair threshold.
    pub fn new(vantage_points: Vec<AsId>, targets: Vec<AsId>) -> Self {
        MeshMonitor {
            vantage_points,
            targets,
            streak_threshold: 4,
            streaks: HashMap::new(),
            down: HashMap::new(),
            active: HashMap::new(),
            history: Vec::new(),
            tele: MonitorTelemetry::default(),
        }
    }

    /// Like [`MeshMonitor::new`], but reporting `monitor.*` metrics into
    /// `registry` instead of the process-global one.
    pub fn with_registry(
        vantage_points: Vec<AsId>,
        targets: Vec<AsId>,
        registry: &Registry,
    ) -> Self {
        let mut m = Self::new(vantage_points, targets);
        m.tele = MonitorTelemetry::from_registry(registry);
        m
    }

    /// One monitoring round: ping pairs from every vantage point to every
    /// target; update the ledger. Returns targets whose outage records
    /// changed state this round (started, became partial, or ended).
    pub fn tick(&mut self, world: &mut World<'_>, now: Time) -> Vec<AsId> {
        let mut changed = Vec::new();
        // Refresh per-pair state.
        for &vp in &self.vantage_points.clone() {
            for &t in &self.targets.clone() {
                let ok = {
                    let a = world.prober.ping(&world.dp, now, vp, infra_addr(t));
                    let b = world.prober.ping(&world.dp, now, vp, infra_addr(t));
                    a.responded || b.responded
                };
                let key = (vp, t);
                if ok {
                    self.streaks.insert(key, 0);
                    self.down.remove(&key);
                } else {
                    let s = self.streaks.entry(key).or_insert(0);
                    *s += 1;
                    if *s >= self.streak_threshold {
                        self.down.entry(key).or_insert(now);
                    }
                }
            }
        }
        // Roll per-pair state into per-target outage records.
        for &t in &self.targets.clone() {
            let affected: Vec<AsId> = self
                .vantage_points
                .iter()
                .copied()
                .filter(|vp| self.down.contains_key(&(*vp, t)))
                .collect();
            let reachable: Vec<AsId> = self
                .vantage_points
                .iter()
                .copied()
                .filter(|vp| !affected.contains(vp))
                .collect();
            match (self.active.get_mut(&t), affected.is_empty()) {
                (None, false) => {
                    let started = affected
                        .iter()
                        .filter_map(|vp| self.down.get(&(*vp, t)).copied())
                        .min()
                        .unwrap_or(now);
                    self.active.insert(
                        t,
                        OutageRecord {
                            target: t,
                            started,
                            ended: None,
                            affected_vps: affected,
                            reachable_vps: reachable,
                        },
                    );
                    self.tele.outages_opened.inc();
                    lg_telemetry::trace::instant_value("monitor.outage_opened", now.millis());
                    changed.push(t);
                }
                (Some(rec), false) => {
                    if rec.affected_vps != affected {
                        rec.affected_vps = affected;
                        rec.reachable_vps = reachable;
                        self.tele.outages_transitioned.inc();
                        lg_telemetry::trace::instant_value(
                            "monitor.outage_transitioned",
                            now.millis(),
                        );
                        changed.push(t);
                    }
                }
                (Some(_), true) => {
                    let mut rec = self.active.remove(&t).unwrap();
                    rec.ended = Some(now);
                    self.history.push(rec);
                    self.tele.outages_closed.inc();
                    lg_telemetry::trace::instant_value("monitor.outage_closed", now.millis());
                    changed.push(t);
                }
                (None, true) => {}
            }
        }
        changed
    }

    /// The ongoing outage for `target`, if any.
    pub fn active_outage(&self, target: AsId) -> Option<&OutageRecord> {
        self.active.get(&target)
    }

    /// §5.3 candidacy: the outage to `target` qualifies for isolation and
    /// repair. `now` is used to validate that affected vantage points still
    /// reach a healthy share of the other targets.
    pub fn is_repair_candidate(&self, world: &mut World<'_>, now: Time, target: AsId) -> bool {
        let Some(rec) = self.active.get(&target) else {
            return false;
        };
        // (1) multiple sources affected...
        if rec.affected_vps.len() < 2 {
            return false;
        }
        // ...that still reach >= 10% of all destinations.
        let healthy_sources = rec.affected_vps.iter().all(|vp| {
            let reached = self
                .targets
                .iter()
                .filter(|t| {
                    **t != target
                        && world
                            .prober
                            .ping(&world.dp, now, *vp, infra_addr(**t))
                            .responded
                })
                .count();
            reached * 10 >= self.targets.len().saturating_sub(1)
        });
        if !healthy_sources {
            return false;
        }
        // (2) partial outage.
        rec.is_partial()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lg_asmap::GraphBuilder;

    use lg_sim::dataplane::infra_prefix;
    use lg_sim::failures::Failure;
    use lg_sim::Network;

    /// Two vantage stubs (5, 6) under distinct transits (1, 2); targets
    /// (7, 8) under transits (3, 4); core 0 connects all transits.
    fn net() -> Network {
        let mut g = GraphBuilder::with_ases(9);
        for transit in 1..=4u32 {
            g.provider_customer(AsId(0), AsId(transit));
        }
        g.provider_customer(AsId(1), AsId(5));
        g.provider_customer(AsId(2), AsId(6));
        g.provider_customer(AsId(3), AsId(7));
        g.provider_customer(AsId(4), AsId(8));
        // Extra path: vantage 6 also buys from transit 3 (so a failure in
        // core 0 leaves 6 -> 3 -> 7 working: partial outages possible).
        g.provider_customer(AsId(3), AsId(6));
        Network::new(g.build())
    }

    fn mesh() -> MeshMonitor {
        MeshMonitor::new(vec![AsId(5), AsId(6)], vec![AsId(7), AsId(8)])
    }

    fn run_rounds(m: &mut MeshMonitor, world: &mut World<'_>, from_min: u64, rounds: u64) -> Time {
        let mut now = Time::from_mins(from_min);
        for _ in 0..rounds {
            m.tick(world, now);
            now += 30_000;
        }
        now
    }

    #[test]
    fn healthy_mesh_records_nothing() {
        let n = net();
        let mut world = World::new(&n);
        let mut m = mesh();
        run_rounds(&mut m, &mut world, 1, 10);
        assert!(m.active_outage(AsId(7)).is_none());
        assert!(m.history.is_empty());
    }

    #[test]
    fn partial_outage_detected_and_closed() {
        let n = net();
        let mut world = World::new(&n);
        let mut m = mesh();
        run_rounds(&mut m, &mut world, 1, 4);
        // Fail transit 1 toward target 7's prefix, scoped to vantage 5's
        // ingress so only 5's flow dies: vantage 6 keeps reaching 7 (via
        // transit 3) -> a partial outage.
        let start = Time::from_mins(10);
        let end = Time::from_mins(30);
        world.dp.failures_mut().add(
            Failure::silent_as_toward(AsId(1), infra_prefix(AsId(7)))
                .ingress_from(AsId(5))
                .window(start, Some(end)),
        );
        run_rounds(&mut m, &mut world, 10, 8);
        let rec = m.active_outage(AsId(7)).expect("outage recorded");
        assert_eq!(rec.affected_vps, vec![AsId(5)]);
        assert_eq!(rec.reachable_vps, vec![AsId(6)]);
        assert!(rec.is_partial());
        // After the heal the record closes into history.
        run_rounds(&mut m, &mut world, 31, 4);
        assert!(m.active_outage(AsId(7)).is_none());
        assert_eq!(m.history.len(), 1);
        let closed = &m.history[0];
        assert!(closed.ended.is_some());
        assert!(closed.duration_ms(Time::from_mins(40)) >= 10 * 60_000);
    }

    #[test]
    fn repair_candidacy_requires_multiple_healthy_sources_and_partiality() {
        let n = net();
        let mut world = World::new(&n);
        let mut m = mesh();
        run_rounds(&mut m, &mut world, 1, 4);
        // Single affected VP: not a candidate.
        world.dp.failures_mut().add(
            Failure::silent_as_toward(AsId(1), infra_prefix(AsId(7)))
                .window(Time::from_mins(10), None),
        );
        let now = run_rounds(&mut m, &mut world, 10, 6);
        assert!(m.active_outage(AsId(7)).is_some());
        assert!(!m.is_repair_candidate(&mut world, now, AsId(7)));

        // Both VPs affected but outage partial? Fail transit 3's ingress
        // path too so VP6 also loses 7... that would make it total. Use a
        // second scoped failure that hits 6's flow only via transit 3.
        world.dp.failures_mut().add(
            Failure::silent_as_toward(AsId(3), infra_prefix(AsId(7)))
                .ingress_from(AsId(6))
                .window(Time::from_mins(15), None),
        );
        let now = run_rounds(&mut m, &mut world, 15, 6);
        let rec = m.active_outage(AsId(7)).unwrap();
        assert_eq!(rec.affected_vps.len(), 2);
        // Not partial anymore (no VP reaches 7): still not a candidate.
        assert!(!m.is_repair_candidate(&mut world, now, AsId(7)));
    }

    #[test]
    fn ledger_transitions_report_into_scoped_registry() {
        // The partial-outage arc (open -> close) bumps the monitor.*
        // transition counters exactly once each.
        let n = net();
        let mut world = World::new(&n);
        let reg = lg_telemetry::Registry::new();
        let mut m =
            MeshMonitor::with_registry(vec![AsId(5), AsId(6)], vec![AsId(7), AsId(8)], &reg);
        run_rounds(&mut m, &mut world, 1, 4);
        let start = Time::from_mins(10);
        let end = Time::from_mins(30);
        world.dp.failures_mut().add(
            Failure::silent_as_toward(AsId(1), infra_prefix(AsId(7)))
                .ingress_from(AsId(5))
                .window(start, Some(end)),
        );
        run_rounds(&mut m, &mut world, 10, 8);
        run_rounds(&mut m, &mut world, 31, 4);
        assert_eq!(m.history.len(), 1);

        let snap = reg.snapshot();
        assert_eq!(snap.counter("monitor.outages_opened"), Some(1));
        assert_eq!(snap.counter("monitor.outages_closed"), Some(1));
        assert_eq!(snap.counter("monitor.outages_transitioned"), Some(0));
    }

    #[test]
    fn candidate_when_two_affected_and_third_reaches() {
        // Add a third vantage with an unaffected path to make the outage
        // partial while two VPs are down.
        let mut g = GraphBuilder::with_ases(10);
        for transit in 1..=4u32 {
            g.provider_customer(AsId(0), AsId(transit));
        }
        g.provider_customer(AsId(1), AsId(5));
        g.provider_customer(AsId(2), AsId(6));
        g.provider_customer(AsId(3), AsId(7));
        g.provider_customer(AsId(4), AsId(8));
        g.provider_customer(AsId(3), AsId(9)); // third VP, directly under 3
        let n = Network::new(g.build());
        let mut world = World::new(&n);
        let mut m = MeshMonitor::new(vec![AsId(5), AsId(6), AsId(9)], vec![AsId(7), AsId(8)]);
        run_rounds(&mut m, &mut world, 1, 4);
        // Core 0 fails toward 7: VPs 5 and 6 (both route via core) lose 7;
        // VP 9 (under transit 3 directly) keeps it.
        world.dp.failures_mut().add(
            Failure::silent_as_toward(AsId(0), infra_prefix(AsId(7)))
                .window(Time::from_mins(10), None),
        );
        let now = run_rounds(&mut m, &mut world, 10, 6);
        let rec = m.active_outage(AsId(7)).expect("outage");
        assert!(rec.affected_vps.len() >= 2, "{rec:?}");
        assert!(rec.is_partial(), "{rec:?}");
        assert!(m.is_repair_candidate(&mut world, now, AsId(7)));
    }
}
