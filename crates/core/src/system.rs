//! The LIFEGUARD control loop.

use crate::config::{
    LifeguardConfig, CONVERGENCE_MS, OUTAGE_THRESHOLD, PREPEND_COPIES, SENTINEL_CHECK_INTERVAL_MS,
    UNFIXABLE_RETRY_MS,
};
use crate::decide::{announcement, plan_repair_cached};
use crate::events::{Event, EventKind};
use crate::world::World;
use lg_asmap::AsId;
use lg_bgp::AsPath;
use lg_locate::{FailureDirection, Isolator};
use lg_sim::dataplane::infra_addr;
use lg_sim::{AnnouncementSpec, Time};
use lg_telemetry::{trace, Counter, Histogram, Registry, TraceId};
use std::collections::HashMap;

/// Registry handles for the repair loop (`core.*` metrics). Every event
/// appended to the log is also tallied here, so process-wide dashboards see
/// outage/repair activity without walking per-instance event logs.
struct CoreTelemetry {
    outages_detected: Counter,
    isolations: Counter,
    poisons_applied: Counter,
    poisons_skipped: Counter,
    repairs: Counter,
    failures_healed: Counter,
    unpoisons: Counter,
    /// Modeled isolation latency, from `IsolationCompleted::elapsed_ms`.
    isolation_ms: Histogram,
    /// Failure-to-repair latency, from `Repaired::downtime_ms`.
    repair_downtime_ms: Histogram,
}

impl CoreTelemetry {
    fn from_registry(r: &Registry) -> Self {
        CoreTelemetry {
            outages_detected: r.counter("core.outages_detected"),
            isolations: r.counter("core.isolations"),
            poisons_applied: r.counter("core.poisons_applied"),
            poisons_skipped: r.counter("core.poisons_skipped"),
            repairs: r.counter("core.repairs"),
            failures_healed: r.counter("core.failures_healed"),
            unpoisons: r.counter("core.unpoisons"),
            isolation_ms: r.histogram("core.isolation_ms"),
            repair_downtime_ms: r.histogram("core.repair_downtime_ms"),
        }
    }

    fn observe(&self, kind: &EventKind) {
        match kind {
            EventKind::OutageDetected { .. } => self.outages_detected.inc(),
            EventKind::IsolationCompleted { elapsed_ms, .. } => {
                self.isolations.inc();
                self.isolation_ms.record(*elapsed_ms);
            }
            EventKind::Poisoned { .. } => self.poisons_applied.inc(),
            EventKind::PoisonSkipped { .. } => self.poisons_skipped.inc(),
            EventKind::Repaired { downtime_ms, .. } => {
                self.repairs.inc();
                self.repair_downtime_ms.record(*downtime_ms);
            }
            EventKind::FailureHealed { .. } => self.failures_healed.inc(),
            EventKind::Unpoisoned { .. } => self.unpoisons.inc(),
        }
    }
}

impl Default for CoreTelemetry {
    fn default() -> Self {
        Self::from_registry(lg_telemetry::global())
    }
}

/// Per-target state of the repair loop.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TargetState {
    /// Healthy-path monitoring; counts consecutive failed ping pairs.
    Monitoring {
        /// Failed ping pairs in a row.
        consecutive_failures: u32,
    },
    /// A poison is in place; the sentinel watches for the failure to heal.
    Poisoned {
        /// The poisoned AS.
        poisoned: AsId,
        /// Selective or global.
        selective: bool,
        /// Copies of the poisoned AS in the path (2 for lenient loop
        /// detection, §7.1).
        copies: u8,
        /// When the outage began (first failed pair).
        outage_started: Time,
        /// Last sentinel repair check.
        last_sentinel_check: Time,
        /// The announcement this repair wants (used verbatim while it is
        /// the only active repair; folded into a union poison otherwise).
        spec: AnnouncementSpec,
    },
    /// Poisoning was not applicable; retried after a back-off.
    Unfixable {
        /// When the decision was made.
        since: Time,
        /// Why.
        reason: String,
    },
}

/// One LIFEGUARD instance: configuration, per-target state, event log.
pub struct Lifeguard {
    cfg: LifeguardConfig,
    states: HashMap<AsId, TargetState>,
    events: Vec<Event>,
    outage_started: HashMap<AsId, Time>,
    /// Predicted-fixed-point tables memoized across repair planning and
    /// union-conflict checks; invalidates itself (incrementally) on network
    /// mutations. Shareable: several instances monitoring different targets
    /// over one topology can hand the same `Arc` to
    /// [`Lifeguard::with_shared_cache`] and reuse each other's fixed
    /// points, including from concurrent threads.
    route_cache: std::sync::Arc<lg_sim::SharedRouteCache>,
    /// Live causal-chain ids, one per target currently in an incident
    /// (minted at the first failed ping pair, retired when the target
    /// returns to healthy monitoring). Every logged event and every
    /// flight-recorder span of the repair lifecycle carries this id.
    traces: HashMap<AsId, TraceId>,
    tele: CoreTelemetry,
}

impl Lifeguard {
    /// Build a system for `cfg` with a private route cache.
    ///
    /// # Panics
    /// Panics when the configuration fails [`LifeguardConfig::validate`].
    pub fn new(cfg: LifeguardConfig) -> Self {
        Self::with_shared_cache(cfg, std::sync::Arc::new(lg_sim::SharedRouteCache::new()))
    }

    /// Like [`Lifeguard::new`], but reporting `core.*` metrics into
    /// `registry` instead of the process-global one.
    ///
    /// # Panics
    /// Panics when the configuration fails [`LifeguardConfig::validate`].
    pub fn with_registry(cfg: LifeguardConfig, registry: &Registry) -> Self {
        let mut lg = Self::new(cfg);
        lg.tele = CoreTelemetry::from_registry(registry);
        lg
    }

    /// Build a system that shares `cache` with other instances working the
    /// same topology.
    ///
    /// # Panics
    /// Panics when the configuration fails [`LifeguardConfig::validate`].
    pub fn with_shared_cache(
        cfg: LifeguardConfig,
        cache: std::sync::Arc<lg_sim::SharedRouteCache>,
    ) -> Self {
        cfg.validate().expect("invalid LIFEGUARD configuration");
        let states = cfg
            .targets
            .iter()
            .map(|t| {
                (
                    *t,
                    TargetState::Monitoring {
                        consecutive_failures: 0,
                    },
                )
            })
            .collect();
        Lifeguard {
            cfg,
            states,
            events: Vec::new(),
            outage_started: HashMap::new(),
            route_cache: cache,
            traces: HashMap::new(),
            tele: CoreTelemetry::default(),
        }
    }

    /// The predicted-fixed-point cache (hand a clone of this to
    /// [`Lifeguard::with_shared_cache`] to share it).
    pub fn route_cache(&self) -> &std::sync::Arc<lg_sim::SharedRouteCache> {
        &self.route_cache
    }

    /// Configuration.
    pub fn config(&self) -> &LifeguardConfig {
        &self.cfg
    }

    /// Event log so far.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Current state for a target.
    pub fn state(&self, target: AsId) -> Option<&TargetState> {
        self.states.get(&target)
    }

    /// Is any poison currently in place?
    pub fn poisoning_active(&self) -> bool {
        self.states
            .values()
            .any(|s| matches!(s, TargetState::Poisoned { .. }))
    }

    /// Trace id of the incident `target` is currently in, if any.
    fn trace_of(&self, target: AsId) -> Option<TraceId> {
        self.traces.get(&target).copied()
    }

    fn log(&mut self, at: Time, kind: EventKind) {
        let trace_id = self
            .traces
            .get(&kind.target())
            .copied()
            .unwrap_or(TraceId::NONE);
        self.tele.observe(&kind);
        trace_event(trace_id, at, &kind);
        self.events.push(Event {
            at,
            trace: trace_id,
            kind,
        });
    }

    /// The steady-state baseline announcement for the production prefix.
    pub fn baseline_spec(&self, world: &World<'_>) -> AnnouncementSpec {
        let path = AsPath::prepended_baseline(self.cfg.origin, PREPEND_COPIES);
        announcement(world.dp.network(), &self.cfg, self.cfg.production, path)
    }

    /// Re-announce the production prefix so it reflects every currently
    /// active repair. One prefix carries all targets, so concurrent repairs
    /// must share the announcement: zero active poisons → the baseline; a
    /// single one → its (possibly selective) plan; several → a global
    /// union poison `O-A1-..-Ak-O` (per-provider selectivity cannot be
    /// combined across plans, so the union falls back to global poisoning).
    fn reannounce_production(&mut self, world: &mut World<'_>) {
        let active: Vec<(AsId, u8, AnnouncementSpec)> = self
            .states
            .values()
            .filter_map(|s| match s {
                TargetState::Poisoned {
                    poisoned,
                    copies,
                    spec,
                    ..
                } => Some((*poisoned, *copies, spec.clone())),
                _ => None,
            })
            .collect();
        match active.len() {
            0 => {
                let spec = self.baseline_spec(world);
                world.dp.announce(&spec);
            }
            1 => {
                world.dp.announce(&active[0].2);
            }
            _ => {
                // Union poison: every distinct culprit, at its maximum
                // required multiplicity.
                let mut by_culprit: HashMap<AsId, u8> = HashMap::new();
                for (a, copies, _) in &active {
                    let e = by_culprit.entry(*a).or_insert(0);
                    *e = (*e).max(*copies);
                }
                let path = union_poison(self.cfg.origin, by_culprit);
                let spec = announcement(world.dp.network(), &self.cfg, self.cfg.production, path);
                world.dp.announce(&spec);
            }
        }
    }

    /// Announce the baseline production prefix and the sentinel, and warm
    /// the atlas. Call once before ticking.
    pub fn install(&mut self, world: &mut World<'_>, now: Time) {
        world.dp.announce(&self.baseline_spec(world));
        let path = AsPath::prepended_baseline(self.cfg.origin, PREPEND_COPIES);
        world.dp.announce(&announcement(
            world.dp.network(),
            &self.cfg,
            self.cfg.sentinel,
            path,
        ));
        let targets = self.cfg.targets.clone();
        world.warm_atlas(self.cfg.origin, &targets, now);
    }

    /// Monitoring ping pair from the production prefix to `target`; true
    /// when at least one ping of the pair gets a response.
    fn ping_pair_ok(&mut self, world: &mut World<'_>, now: Time, target: AsId) -> bool {
        let src_addr = self.cfg.production.nth_addr(1);
        let dst = infra_addr(target);
        let a = world
            .prober
            .ping_from_addr(&world.dp, now, self.cfg.origin, src_addr, dst);
        let b = world
            .prober
            .ping_from_addr(&world.dp, now, self.cfg.origin, src_addr, dst);
        a.responded || b.responded
    }

    /// One monitoring round at `now`. Call every
    /// [`PING_INTERVAL_MS`](crate::config::PING_INTERVAL_MS).
    pub fn tick(&mut self, world: &mut World<'_>, now: Time) {
        let targets = self.cfg.targets.clone();
        for target in targets {
            let state = self
                .states
                .get(&target)
                .cloned()
                .unwrap_or(TargetState::Monitoring {
                    consecutive_failures: 0,
                });
            // Probes and nested work for a target mid-incident inherit
            // its causal chain through the ambient trace scope.
            let _tscope = trace::scope(self.trace_of(target).unwrap_or(TraceId::NONE));
            match state {
                TargetState::Monitoring {
                    consecutive_failures,
                } => {
                    if self.ping_pair_ok(world, now, target) {
                        self.outage_started.remove(&target);
                        self.traces.remove(&target);
                        self.states.insert(
                            target,
                            TargetState::Monitoring {
                                consecutive_failures: 0,
                            },
                        );
                        continue;
                    }
                    let streak = consecutive_failures + 1;
                    if streak == 1 {
                        // First failed pair: the incident opens here. Mint
                        // its causal chain so detection lag is part of the
                        // traced downtime breakdown.
                        let id = *self.traces.entry(target).or_insert_with(TraceId::mint);
                        trace::instant_for(id, "monitor.open", now.millis());
                    }
                    self.outage_started.entry(target).or_insert(now);
                    if streak < OUTAGE_THRESHOLD {
                        self.states.insert(
                            target,
                            TargetState::Monitoring {
                                consecutive_failures: streak,
                            },
                        );
                        continue;
                    }
                    self.log(now, EventKind::OutageDetected { target });
                    self.handle_outage(world, now, target);
                }
                TargetState::Poisoned {
                    poisoned,
                    selective,
                    copies,
                    outage_started,
                    last_sentinel_check,
                    spec,
                } => {
                    if now - last_sentinel_check < SENTINEL_CHECK_INTERVAL_MS {
                        continue;
                    }
                    if self.sentinel_detects_repair(world, now, target) {
                        self.log(now, EventKind::FailureHealed { target });
                        self.states.insert(
                            target,
                            TargetState::Monitoring {
                                consecutive_failures: 0,
                            },
                        );
                        // Drop this repair from the shared announcement
                        // (back to baseline only when it was the last one).
                        self.reannounce_production(world);
                        self.log(now, EventKind::Unpoisoned { target });
                        // The causal chain ends at unpoison.
                        self.traces.remove(&target);
                    } else {
                        self.states.insert(
                            target,
                            TargetState::Poisoned {
                                poisoned,
                                selective,
                                copies,
                                outage_started,
                                last_sentinel_check: now,
                                spec,
                            },
                        );
                    }
                }
                TargetState::Unfixable { since, .. } => {
                    if now - since >= UNFIXABLE_RETRY_MS {
                        self.outage_started.remove(&target);
                        // Retry opens a fresh incident (and chain) if the
                        // target is still dark.
                        self.traces.remove(&target);
                        self.states.insert(
                            target,
                            TargetState::Monitoring {
                                consecutive_failures: 0,
                            },
                        );
                    }
                }
            }
        }
    }

    fn handle_outage(&mut self, world: &mut World<'_>, now: Time, target: AsId) {
        let trace_id = self.trace_of(target).unwrap_or(TraceId::NONE);
        let _tscope = trace::scope(trace_id);
        let isolation_span = trace::span("repair.isolation");
        let isolator = Isolator::new(self.cfg.vantage_points.clone());
        let report = isolator.isolate(
            &world.dp,
            &mut world.prober,
            &world.atlas,
            &world.resp,
            now,
            self.cfg.origin,
            target,
        );
        drop(isolation_span);
        let after_isolation = now + report.elapsed_ms;
        self.log(
            after_isolation,
            EventKind::IsolationCompleted {
                target,
                direction: report.direction,
                blame: report.blame,
                elapsed_ms: report.elapsed_ms,
            },
        );

        if report.direction == FailureDirection::NoFailure {
            self.states.insert(
                target,
                TargetState::Monitoring {
                    consecutive_failures: 0,
                },
            );
            return;
        }
        let Some(blame) = report.blame else {
            let reason = "could not isolate a culprit".to_string();
            self.log(
                after_isolation,
                EventKind::PoisonSkipped {
                    target,
                    reason: reason.clone(),
                },
            );
            self.states.insert(
                target,
                TargetState::Unfixable {
                    since: after_isolation,
                    reason,
                },
            );
            return;
        };

        let plan_span = trace::span("repair.plan");
        let plan_result = plan_repair_cached(
            world.dp.network(),
            &self.cfg,
            blame,
            target,
            &self.route_cache,
        )
        .and_then(|plan| {
            // The production prefix is shared: verify the new poison is
            // compatible with every repair already in place (the union
            // announcement must keep all poisoned targets routable).
            self.union_conflict(world, &plan, target)
                .map_or(Ok(plan), Err)
        });
        drop(plan_span);
        match plan_result {
            Ok(plan) => {
                let outage_started = *self.outage_started.get(&target).unwrap_or(&now);
                self.states.insert(
                    target,
                    TargetState::Poisoned {
                        poisoned: plan.poisoned,
                        selective: plan.selective,
                        copies: plan.poison_copies as u8,
                        outage_started,
                        last_sentinel_check: after_isolation + CONVERGENCE_MS,
                        spec: plan.spec.clone(),
                    },
                );
                // Fold into the shared production announcement (unions with
                // any other active repairs).
                self.reannounce_production(world);
                self.log(
                    after_isolation,
                    EventKind::Poisoned {
                        target,
                        poisoned: plan.poisoned,
                        selective: plan.selective,
                    },
                );
                // Verify restoration once routes converge. The modeled
                // convergence wait is the "quiescence" leg of the traced
                // downtime breakdown (§6: wait out convergence).
                let converged = after_isolation + CONVERGENCE_MS;
                trace::instant_for(trace_id, "repair.quiescence", converged.millis());
                trace::annot_u64_for(trace_id, "repair.convergence_ms", CONVERGENCE_MS);
                if self.ping_pair_ok(world, converged, target) {
                    self.log(
                        converged,
                        EventKind::Repaired {
                            target,
                            downtime_ms: converged - outage_started,
                        },
                    );
                }
            }
            Err(reason) => {
                self.log(
                    after_isolation,
                    EventKind::PoisonSkipped {
                        target,
                        reason: reason.clone(),
                    },
                );
                self.states.insert(
                    target,
                    TargetState::Unfixable {
                        since: after_isolation,
                        reason,
                    },
                );
            }
        }
    }

    /// Would adding `plan` to the active repairs strand any poisoned
    /// target (including the new one)? Returns the reason when it would.
    fn union_conflict(
        &mut self,
        world: &World<'_>,
        plan: &crate::decide::RepairPlan,
        new_target: AsId,
    ) -> Option<String> {
        let mut by_culprit: HashMap<AsId, u8> = HashMap::new();
        let mut watched: Vec<AsId> = vec![new_target];
        for (t, s) in &self.states {
            if let TargetState::Poisoned {
                poisoned, copies, ..
            } = s
            {
                let e = by_culprit.entry(*poisoned).or_insert(0);
                *e = (*e).max(*copies);
                watched.push(*t);
            }
        }
        if by_culprit.is_empty() {
            return None; // nothing active: the plan stands alone
        }
        let e = by_culprit.entry(plan.poisoned).or_insert(0);
        *e = (*e).max(plan.poison_copies as u8);
        let path = union_poison(self.cfg.origin, by_culprit);
        let spec = announcement(world.dp.network(), &self.cfg, self.cfg.production, path);
        let table = self.route_cache.compute(world.dp.network(), &spec);
        for t in watched {
            if !table.has_route(t) {
                return Some(format!(
                    "poisoning {} would strand {t} given the active repairs",
                    plan.poisoned
                ));
            }
        }
        None
    }

    /// Sentinel repair check (§4.2): ping the target sourced from the
    /// sentinel's unused space so the response routes over the *unpoisoned*
    /// sentinel prefix — i.e. back through the poisoned AS — revealing
    /// whether the underlying failure has healed.
    fn sentinel_detects_repair(&mut self, world: &mut World<'_>, now: Time, target: AsId) -> bool {
        let src_addr = self
            .cfg
            .sentinel_unused_addr()
            .expect("validated configuration has unused sentinel space");
        world
            .prober
            .ping_from_addr(
                &world.dp,
                now,
                self.cfg.origin,
                src_addr,
                infra_addr(target),
            )
            .responded
    }
}

/// The global union poison `O-A1-..-Ak-O`: every culprit in `by_culprit`,
/// in AS order, repeated its required number of times.
fn union_poison(origin: AsId, by_culprit: HashMap<AsId, u8>) -> AsPath {
    let mut culprits: Vec<(AsId, u8)> = by_culprit.into_iter().collect();
    culprits.sort_unstable();
    let poisons: Vec<AsId> = culprits
        .into_iter()
        .flat_map(|(a, copies)| std::iter::repeat_n(a, copies.into()))
        .collect();
    AsPath::poisoned(origin, &poisons)
}

/// Mirror a ledger event into the flight recorder: an instant named after
/// the lifecycle step, stamped with the event's *simulated* time in
/// millis as its value (recorder ticks are wall-clock; carrying sim-time
/// in the payload lets consumers reconstruct the §4/§6 downtime
/// breakdown), plus annotations for the breakdown legs.
fn trace_event(trace_id: TraceId, at: Time, kind: &EventKind) {
    if !trace::enabled() {
        return;
    }
    let name = match kind {
        EventKind::OutageDetected { .. } => "repair.outage_detected",
        EventKind::IsolationCompleted { .. } => "repair.isolation_completed",
        EventKind::Poisoned { .. } => "repair.poisoned",
        EventKind::PoisonSkipped { .. } => "repair.poison_skipped",
        EventKind::Repaired { .. } => "repair.repaired",
        EventKind::FailureHealed { .. } => "repair.healed",
        EventKind::Unpoisoned { .. } => "repair.unpoisoned",
    };
    trace::instant_for(trace_id, name, at.millis());
    match kind {
        EventKind::IsolationCompleted { elapsed_ms, .. } => {
            trace::annot_u64_for(trace_id, "repair.isolation_ms", *elapsed_ms);
        }
        EventKind::Repaired { downtime_ms, .. } => {
            trace::annot_u64_for(trace_id, "repair.downtime_ms", *downtime_ms);
        }
        EventKind::PoisonSkipped { reason, .. } => {
            trace::annot_str_for(trace_id, "repair.skip_reason", reason);
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PING_INTERVAL_MS;
    use lg_asmap::GraphBuilder;
    use lg_bgp::Prefix;
    use lg_sim::dataplane::infra_prefix;
    use lg_sim::failures::Failure;
    use lg_sim::Network;

    /// The recurring evaluation world: O(0) under B(2); B under C(3) and
    /// A(1); C under D(4); A and D under E(5); F(6) behind A; vantage
    /// points V1(7) under C and V2(8) under E.
    fn world_net() -> Network {
        let mut g = GraphBuilder::with_ases(9);
        g.provider_customer(AsId(2), AsId(0));
        g.provider_customer(AsId(3), AsId(2));
        g.provider_customer(AsId(1), AsId(2));
        g.provider_customer(AsId(4), AsId(3));
        g.provider_customer(AsId(5), AsId(1));
        g.provider_customer(AsId(5), AsId(4));
        g.provider_customer(AsId(6), AsId(1));
        g.provider_customer(AsId(3), AsId(7));
        g.provider_customer(AsId(5), AsId(8));
        Network::new(g.build())
    }

    fn production() -> Prefix {
        Prefix::from_octets(184, 164, 224, 0, 20)
    }

    fn sentinel() -> Prefix {
        Prefix::from_octets(184, 164, 224, 0, 19)
    }

    fn make_system(targets: Vec<AsId>) -> Lifeguard {
        let mut cfg = LifeguardConfig::paper_defaults(AsId(0), production(), sentinel());
        cfg.targets = targets;
        cfg.vantage_points = vec![AsId(7), AsId(8)];
        Lifeguard::new(cfg)
    }

    fn tick_minutes(lg: &mut Lifeguard, world: &mut World<'_>, from: Time, minutes: u64) -> Time {
        let mut t = from;
        let end = from + minutes * 60_000;
        while t <= end {
            lg.tick(world, t);
            t += PING_INTERVAL_MS;
        }
        t
    }

    #[test]
    fn install_announces_production_and_sentinel() {
        let net = world_net();
        let mut world = World::new(&net);
        let mut lg = make_system(vec![AsId(5)]);
        lg.install(&mut world, Time::ZERO);
        assert!(world.dp.table(production()).is_some());
        assert!(world.dp.table(sentinel()).is_some());
        // Baseline is prepended.
        let t = world.dp.table(production()).unwrap();
        assert_eq!(t.route(AsId(2)).unwrap().path.to_string(), "0-0-0");
    }

    #[test]
    fn provider_scoped_deployment_announces_via_listed_providers_only() {
        // Diamond: origin O(3) under providers P1(1) and P2(2), both under
        // core 0. Configured to announce only via P1, P2 must learn the
        // prefix the long way (down from the core), mirroring a BGP-Mux
        // deployment with a single upstream.
        let mut g = GraphBuilder::with_ases(4);
        g.provider_customer(AsId(0), AsId(1));
        g.provider_customer(AsId(0), AsId(2));
        g.provider_customer(AsId(1), AsId(3));
        g.provider_customer(AsId(2), AsId(3));
        let net = Network::new(g.build());
        let mut world = World::new(&net);
        let mut cfg = LifeguardConfig::paper_defaults(AsId(3), production(), sentinel());
        cfg.providers = vec![AsId(1)];
        let mut lg = Lifeguard::new(cfg);
        lg.install(&mut world, Time::ZERO);
        let table = world.dp.table(production()).unwrap();
        // P1 got the seed directly; P2 learned it via the core.
        assert_eq!(table.route(AsId(1)).unwrap().learned_from, AsId(3));
        let p2 = table.route(AsId(2)).expect("P2 reachable via the core");
        assert_eq!(p2.learned_from, AsId(0));
    }

    #[test]
    fn healthy_targets_stay_monitoring() {
        let net = world_net();
        let mut world = World::new(&net);
        let mut lg = make_system(vec![AsId(5)]);
        lg.install(&mut world, Time::ZERO);
        tick_minutes(&mut lg, &mut world, Time::from_secs(60), 10);
        assert_eq!(
            lg.state(AsId(5)),
            Some(&TargetState::Monitoring {
                consecutive_failures: 0
            })
        );
        assert!(lg.events().is_empty());
    }

    #[test]
    fn end_to_end_outage_poison_heal_unpoison() {
        let net = world_net();
        let mut world = World::new(&net);
        let mut lg = make_system(vec![AsId(5)]);
        lg.install(&mut world, Time::ZERO);

        // Healthy period.
        let t = tick_minutes(&mut lg, &mut world, Time::from_secs(60), 5);

        // A reverse-path silent failure in A (AS1) toward our prefixes: E's
        // replies to the production prefix die in A.
        let heal_at = t + 3_600_000; // heals after an hour
        for covered in [production(), sentinel(), infra_prefix(AsId(0))] {
            world
                .dp
                .failures_mut()
                .add(Failure::silent_as_toward(AsId(1), covered).window(t, Some(heal_at)));
        }

        // Detection takes 4 failed pairs (2 minutes), then isolation and
        // poisoning.
        let t = tick_minutes(&mut lg, &mut world, t, 10);
        let kinds: Vec<_> = lg.events().iter().map(|e| &e.kind).collect();
        assert!(
            kinds
                .iter()
                .any(|k| matches!(k, EventKind::OutageDetected { target } if *target == AsId(5))),
            "events: {kinds:?}"
        );
        assert!(
            kinds
                .iter()
                .any(|k| matches!(k, EventKind::Poisoned { poisoned, .. } if *poisoned == AsId(1))),
            "events: {kinds:?}"
        );
        assert!(
            kinds
                .iter()
                .any(|k| matches!(k, EventKind::Repaired { .. })),
            "traffic must be restored: {kinds:?}"
        );
        assert!(matches!(
            lg.state(AsId(5)),
            Some(TargetState::Poisoned { poisoned, .. }) if *poisoned == AsId(1)
        ));
        // While poisoned, E routes to production via D; A itself dropped
        // the (poisoned) route. Note the announced path *content* contains
        // A by construction (O-A-O), so we check actual forwarding.
        let table = world.dp.table(production()).unwrap();
        assert_eq!(table.next_hop(AsId(5)), Some(AsId(4)));
        assert!(!table.has_route(AsId(1)));
        // The sentinel stays unpoisoned: F (captive) lost the production
        // route but keeps a backup route via the sentinel — the Backup
        // Property. Data through A still dies while A's failure is active
        // (the sentinel lets F *try*), and flows again once A heals.
        assert!(!world.dp.table(production()).unwrap().has_route(AsId(6)));
        assert!(world.dp.table(sentinel()).unwrap().has_route(AsId(6)));
        let during = world.dp.walk(t, AsId(6), production().nth_addr(1));
        assert!(!during.outcome.delivered());
        let after = world
            .dp
            .walk(heal_at + 1, AsId(6), production().nth_addr(1));
        assert!(after.outcome.delivered());

        // Keep running past the heal time: sentinel pings detect the
        // repair and the poison is withdrawn.
        tick_minutes(&mut lg, &mut world, heal_at + 60_000, 10);
        let kinds: Vec<_> = lg.events().iter().map(|e| &e.kind).collect();
        assert!(
            kinds
                .iter()
                .any(|k| matches!(k, EventKind::FailureHealed { .. })),
            "events: {kinds:?}"
        );
        assert!(
            kinds
                .iter()
                .any(|k| matches!(k, EventKind::Unpoisoned { .. })),
            "events: {kinds:?}"
        );
        // Baseline restored: E routes via A again.
        let table = world.dp.table(production()).unwrap();
        assert_eq!(table.next_hop(AsId(5)), Some(AsId(1)));
        assert!(matches!(
            lg.state(AsId(5)),
            Some(TargetState::Monitoring { .. })
        ));
    }

    #[test]
    fn sentinel_does_not_heal_while_failure_active() {
        let net = world_net();
        let mut world = World::new(&net);
        let mut lg = make_system(vec![AsId(5)]);
        lg.install(&mut world, Time::ZERO);
        let t = tick_minutes(&mut lg, &mut world, Time::from_secs(60), 5);
        for covered in [production(), sentinel(), infra_prefix(AsId(0))] {
            world
                .dp
                .failures_mut()
                .add(Failure::silent_as_toward(AsId(1), covered).window(t, None));
        }
        tick_minutes(&mut lg, &mut world, t, 30);
        // Still poisoned; never unpoisoned.
        assert!(lg.poisoning_active());
        assert!(!lg
            .events()
            .iter()
            .any(|e| matches!(e.kind, EventKind::Unpoisoned { .. })));
    }

    #[test]
    fn shared_cache_reuses_fixed_points_across_instances() {
        // Two independent Lifeguard instances over the same topology share
        // one route cache; the second instance plans the same repair without
        // recomputing a single fixed point.
        let net = world_net();
        let cache = std::sync::Arc::new(lg_sim::SharedRouteCache::new());
        let run_to_poisoned = |cache: &std::sync::Arc<lg_sim::SharedRouteCache>| {
            let mut world = World::new(&net);
            let mut cfg = LifeguardConfig::paper_defaults(AsId(0), production(), sentinel());
            cfg.targets = vec![AsId(5)];
            cfg.vantage_points = vec![AsId(7), AsId(8)];
            let mut lg = Lifeguard::with_shared_cache(cfg, std::sync::Arc::clone(cache));
            lg.install(&mut world, Time::ZERO);
            let t = tick_minutes(&mut lg, &mut world, Time::from_secs(60), 5);
            for covered in [production(), sentinel(), infra_prefix(AsId(0))] {
                world
                    .dp
                    .failures_mut()
                    .add(Failure::silent_as_toward(AsId(1), covered).window(t, None));
            }
            tick_minutes(&mut lg, &mut world, t, 10);
            assert!(matches!(
                lg.state(AsId(5)),
                Some(TargetState::Poisoned { poisoned, .. }) if *poisoned == AsId(1)
            ));
        };

        run_to_poisoned(&cache);
        let (m1, h1) = (cache.misses(), cache.hits());
        assert!(m1 > 0, "first instance must populate the cache");

        run_to_poisoned(&cache);
        assert_eq!(
            cache.misses(),
            m1,
            "second instance should find every fixed point already cached"
        );
        assert!(cache.hits() > h1);
    }

    #[test]
    fn captive_target_is_unfixable() {
        // F (AS6) is captive behind A: a failure in A cannot be routed
        // around for F, so LIFEGUARD must refuse to poison.
        let net = world_net();
        let mut world = World::new(&net);
        let mut lg = make_system(vec![AsId(6)]);
        lg.install(&mut world, Time::ZERO);
        let t = tick_minutes(&mut lg, &mut world, Time::from_secs(60), 5);
        for covered in [production(), sentinel(), infra_prefix(AsId(0))] {
            world
                .dp
                .failures_mut()
                .add(Failure::silent_as_toward(AsId(1), covered).window(t, None));
        }
        tick_minutes(&mut lg, &mut world, t, 10);
        assert!(
            lg.events()
                .iter()
                .any(|e| matches!(e.kind, EventKind::PoisonSkipped { .. })),
            "events: {:?}",
            lg.events()
        );
        assert!(matches!(
            lg.state(AsId(6)),
            Some(TargetState::Unfixable { .. })
        ));
        // Production announcement still the baseline (never poisoned).
        let table = world.dp.table(production()).unwrap();
        assert!(table.has_route(AsId(1)));
    }

    #[test]
    fn multiple_targets_are_handled_independently() {
        let net = world_net();
        let mut world = World::new(&net);
        // Monitor both E (repairable via D) and F (captive behind A).
        let mut lg = make_system(vec![AsId(5), AsId(6)]);
        lg.install(&mut world, Time::ZERO);
        let t = tick_minutes(&mut lg, &mut world, Time::from_secs(60), 5);
        for covered in [production(), sentinel(), infra_prefix(AsId(0))] {
            world
                .dp
                .failures_mut()
                .add(Failure::silent_as_toward(AsId(1), covered).window(t, None));
        }
        tick_minutes(&mut lg, &mut world, t, 10);
        // E gets repaired; F is unfixable; the poison for E stays up.
        assert!(matches!(
            lg.state(AsId(5)),
            Some(TargetState::Poisoned { .. })
        ));
        assert!(matches!(
            lg.state(AsId(6)),
            Some(TargetState::Unfixable { .. })
        ));
        let repaired: Vec<_> = lg
            .events()
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Repaired { target, .. } => Some(*target),
                _ => None,
            })
            .collect();
        assert_eq!(repaired, vec![AsId(5)]);
    }

    #[test]
    fn unfixable_target_retries_and_recovers_after_heal() {
        let net = world_net();
        let mut world = World::new(&net);
        let mut lg = make_system(vec![AsId(6)]); // captive F
        lg.install(&mut world, Time::ZERO);
        let t = tick_minutes(&mut lg, &mut world, Time::from_secs(60), 5);
        let heal = t + 1_200_000; // heals after 20 minutes
        for covered in [production(), sentinel(), infra_prefix(AsId(0))] {
            world
                .dp
                .failures_mut()
                .add(Failure::silent_as_toward(AsId(1), covered).window(t, Some(heal)));
        }
        let t = tick_minutes(&mut lg, &mut world, t, 10);
        assert!(matches!(
            lg.state(AsId(6)),
            Some(TargetState::Unfixable { .. })
        ));
        // Past the retry back-off and the heal: monitoring resumes and the
        // target is healthy again, with no poison ever applied.
        tick_minutes(&mut lg, &mut world, Time(heal.millis() + 60_000), 15);
        assert_eq!(
            lg.state(AsId(6)),
            Some(&TargetState::Monitoring {
                consecutive_failures: 0
            })
        );
        assert!(!lg.poisoning_active());
        let _ = t;
    }

    /// Two independent branches: O(0) dual-homed to B1(1) and B2(2); each
    /// branch forks into two transits so poisons are avoidable per branch:
    /// branch 1: A1(3) and X1(4) above B1, target T1(7) above both;
    /// branch 2: A2(5) and X2(6) above B2, target T2(8) above both.
    /// VPs 9 (above X1) and 10 (above X2).
    fn twin_branch_net() -> Network {
        let mut g = GraphBuilder::with_ases(11);
        g.provider_customer(AsId(1), AsId(0));
        g.provider_customer(AsId(2), AsId(0));
        g.provider_customer(AsId(3), AsId(1));
        g.provider_customer(AsId(4), AsId(1));
        g.provider_customer(AsId(5), AsId(2));
        g.provider_customer(AsId(6), AsId(2));
        g.provider_customer(AsId(7), AsId(3));
        g.provider_customer(AsId(7), AsId(4));
        g.provider_customer(AsId(8), AsId(5));
        g.provider_customer(AsId(8), AsId(6));
        g.provider_customer(AsId(9), AsId(4));
        g.provider_customer(AsId(10), AsId(6));
        Network::new(g.build())
    }

    #[test]
    fn concurrent_repairs_share_one_announcement() {
        // Two targets fail behind two different culprits with overlapping
        // windows. The single production prefix must carry BOTH poisons
        // while both repairs are active, keep the longer-lived poison when
        // the first heals, and only then return to the baseline.
        let net = twin_branch_net();
        let mut world = World::new(&net);
        let (t1, t2, a1, a2) = (AsId(7), AsId(8), AsId(3), AsId(5));
        let mut cfg = LifeguardConfig::paper_defaults(AsId(0), production(), sentinel());
        cfg.targets = vec![t1, t2];
        cfg.vantage_points = vec![AsId(9), AsId(10)];
        let mut lg = Lifeguard::new(cfg);
        lg.install(&mut world, Time::ZERO);
        let t = tick_minutes(&mut lg, &mut world, Time::from_secs(60), 5);

        // Culprit A1 fails late-healing; culprit A2 heals early.
        let heal_a1 = t + 3 * 3_600_000;
        let heal_a2 = t + 3_600_000;
        for covered in [production(), sentinel(), infra_prefix(AsId(0))] {
            world
                .dp
                .failures_mut()
                .add(Failure::silent_as_toward(a1, covered).window(t, Some(heal_a1)));
            world
                .dp
                .failures_mut()
                .add(Failure::silent_as_toward(a2, covered).window(t, Some(heal_a2)));
        }

        let t = tick_minutes(&mut lg, &mut world, t, 15);
        assert!(matches!(
            lg.state(t1),
            Some(TargetState::Poisoned { poisoned, .. }) if *poisoned == a1
        ));
        assert!(matches!(
            lg.state(t2),
            Some(TargetState::Poisoned { poisoned, .. }) if *poisoned == a2
        ));
        // The shared production table excludes BOTH culprits...
        let table = world.dp.table(production()).unwrap();
        assert!(!table.has_route(a1), "A1 must be poisoned");
        assert!(!table.has_route(a2), "A2 must be poisoned");
        // ...and both targets' traffic flows around them.
        for target in [t1, t2] {
            let (fwd, rev) = world.dp.round_trip(
                t,
                AsId(0),
                production().nth_addr(1),
                infra_prefix(target).nth_addr(1),
            );
            assert!(
                fwd.outcome.delivered() && rev.unwrap().outcome.delivered(),
                "{target} must be reachable under the union poison"
            );
        }

        // After A2 heals: T2 unpoisons, T1 stays poisoned; A1 stays out.
        tick_minutes(&mut lg, &mut world, heal_a2 + 60_000, 10);
        assert!(matches!(lg.state(t2), Some(TargetState::Monitoring { .. })));
        assert!(matches!(lg.state(t1), Some(TargetState::Poisoned { .. })));
        let table = world.dp.table(production()).unwrap();
        assert!(!table.has_route(a1), "A1 stays poisoned");
        assert!(table.has_route(a2), "A2's poison lifted");

        // After A1 heals too: full baseline restored.
        tick_minutes(&mut lg, &mut world, heal_a1 + 60_000, 10);
        assert!(!lg.poisoning_active());
        let table = world.dp.table(production()).unwrap();
        assert!(table.has_route(a1));
        assert!(table.has_route(a2));
    }

    #[test]
    fn conflicting_second_poison_is_skipped() {
        // In the small Fig-2-like world, poisoning E's culprit A leaves a
        // single remaining artery (via C/D). A second failure blaming C
        // would, combined with the active poison of A, strand everything —
        // the planner must refuse it rather than break the first repair.
        let net = world_net();
        let mut world = World::new(&net);
        let mut lg = make_system(vec![AsId(5), AsId(4)]); // E and D
        lg.install(&mut world, Time::ZERO);
        let t = tick_minutes(&mut lg, &mut world, Time::from_secs(60), 5);

        // First: A (AS1) fails; E gets repaired by poisoning A.
        for covered in [production(), sentinel(), infra_prefix(AsId(0))] {
            world
                .dp
                .failures_mut()
                .add(Failure::silent_as_toward(AsId(1), covered).window(t, None));
        }
        let t = tick_minutes(&mut lg, &mut world, t, 10);
        assert!(matches!(
            lg.state(AsId(5)),
            Some(TargetState::Poisoned { poisoned, .. }) if *poisoned == AsId(1)
        ));

        // Second: C (AS3) fails, hitting D. Poisoning C alongside A would
        // strand both targets; the plan must be skipped.
        for covered in [production(), sentinel(), infra_prefix(AsId(0))] {
            world
                .dp
                .failures_mut()
                .add(Failure::silent_as_toward(AsId(3), covered).window(t, None));
        }
        tick_minutes(&mut lg, &mut world, t, 10);
        let skipped = lg.events().iter().any(|e| {
            matches!(
                &e.kind,
                EventKind::PoisonSkipped { target, reason }
                    if *target == AsId(4) && reason.contains("strand")
            )
        });
        assert!(skipped, "events: {:#?}", lg.events());
        // The first repair is intact: A still poisoned, E still flowing.
        let table = world.dp.table(production()).unwrap();
        assert!(!table.has_route(AsId(1)));
        assert!(matches!(
            lg.state(AsId(5)),
            Some(TargetState::Poisoned { .. })
        ));
    }

    #[test]
    fn transient_blips_do_not_trigger_isolation() {
        let net = world_net();
        let mut world = World::new(&net);
        let mut lg = make_system(vec![AsId(5)]);
        lg.install(&mut world, Time::ZERO);
        let t0 = Time::from_secs(60);
        tick_minutes(&mut lg, &mut world, t0, 2);
        // 60-second blip (2 ticks' worth), under the 4-pair threshold.
        let blip_start = t0 + 3 * 60_000;
        world.dp.failures_mut().add(
            Failure::silent_as_toward(AsId(1), production())
                .window(blip_start, Some(blip_start + 60_000)),
        );
        tick_minutes(&mut lg, &mut world, blip_start, 5);
        assert!(
            lg.events().is_empty(),
            "no outage events for a transient blip: {:?}",
            lg.events()
        );
    }

    #[test]
    fn outage_detected_at_exactly_the_threshold() {
        // A failure lasting exactly `failed_pairs` ticks; returns when
        // OutageDetected was logged, relative to the first failed pair.
        let detected_after = |failed_pairs: u64| -> Option<u64> {
            let net = world_net();
            let mut world = World::new(&net);
            let mut lg = make_system(vec![AsId(5)]);
            lg.install(&mut world, Time::ZERO);
            let start = tick_minutes(&mut lg, &mut world, Time::from_secs(60), 2);
            world.dp.failures_mut().add(
                Failure::silent_as_toward(AsId(1), production())
                    .window(start, Some(start + failed_pairs * PING_INTERVAL_MS)),
            );
            tick_minutes(&mut lg, &mut world, start, 5);
            lg.events().iter().find_map(|e| match e.kind {
                EventKind::OutageDetected { .. } => Some(e.at - start),
                _ => None,
            })
        };
        let threshold = u64::from(OUTAGE_THRESHOLD);
        assert_eq!(detected_after(threshold - 1), None);
        // The paper's 90-s minimum detectable outage.
        assert_eq!(
            detected_after(threshold),
            Some((threshold - 1) * PING_INTERVAL_MS)
        );
        assert_eq!((threshold - 1) * PING_INTERVAL_MS, 90_000);
    }

    #[test]
    fn repair_lifecycle_reports_into_scoped_registry() {
        // The full outage -> isolate -> poison -> repair -> heal -> unpoison
        // arc, observed through a scoped registry; the sentinel-detection
        // events must also round-trip through the ledger with informative
        // renderings.
        let net = world_net();
        let mut world = World::new(&net);
        let reg = Registry::new();
        let mut cfg = LifeguardConfig::paper_defaults(AsId(0), production(), sentinel());
        cfg.targets = vec![AsId(5)];
        cfg.vantage_points = vec![AsId(7), AsId(8)];
        let mut lg = Lifeguard::with_registry(cfg, &reg);
        lg.install(&mut world, Time::ZERO);
        let t = tick_minutes(&mut lg, &mut world, Time::from_secs(60), 5);
        let heal_at = t + 3_600_000;
        for covered in [production(), sentinel(), infra_prefix(AsId(0))] {
            world
                .dp
                .failures_mut()
                .add(Failure::silent_as_toward(AsId(1), covered).window(t, Some(heal_at)));
        }
        tick_minutes(&mut lg, &mut world, t, 10);
        tick_minutes(&mut lg, &mut world, heal_at + 60_000, 10);

        let snap = reg.snapshot();
        assert_eq!(snap.counter("core.outages_detected"), Some(1));
        assert_eq!(snap.counter("core.poisons_applied"), Some(1));
        assert_eq!(snap.counter("core.repairs"), Some(1));
        assert_eq!(snap.counter("core.failures_healed"), Some(1));
        assert_eq!(snap.counter("core.unpoisons"), Some(1));
        assert_eq!(snap.counter("core.poisons_skipped"), Some(0));
        let iso = snap
            .histogram("core.isolation_ms")
            .expect("isolation histogram");
        assert_eq!(iso.count, 1);
        assert!(iso.sum > 0, "modeled isolation latency must be positive");
        let down = snap
            .histogram("core.repair_downtime_ms")
            .expect("downtime histogram");
        assert_eq!(down.count, 1);

        let healed = lg
            .events()
            .iter()
            .find(|e| matches!(e.kind, EventKind::FailureHealed { .. }))
            .expect("FailureHealed in the ledger");
        assert!(healed.to_string().contains("sentinel"), "{healed}");
        let un = lg
            .events()
            .iter()
            .find(|e| matches!(e.kind, EventKind::Unpoisoned { .. }))
            .expect("Unpoisoned in the ledger");
        assert!(un.to_string().contains("restored"), "{un}");
    }

    #[test]
    fn poison_skip_round_trips_through_ledger_and_registry() {
        // Captive F cannot be repaired: the skip shows up both as a
        // formatted ledger event carrying the reason and as a counter.
        let net = world_net();
        let mut world = World::new(&net);
        let reg = Registry::new();
        let mut cfg = LifeguardConfig::paper_defaults(AsId(0), production(), sentinel());
        cfg.targets = vec![AsId(6)];
        cfg.vantage_points = vec![AsId(7), AsId(8)];
        let mut lg = Lifeguard::with_registry(cfg, &reg);
        lg.install(&mut world, Time::ZERO);
        let t = tick_minutes(&mut lg, &mut world, Time::from_secs(60), 5);
        for covered in [production(), sentinel(), infra_prefix(AsId(0))] {
            world
                .dp
                .failures_mut()
                .add(Failure::silent_as_toward(AsId(1), covered).window(t, None));
        }
        tick_minutes(&mut lg, &mut world, t, 10);

        let skipped = lg
            .events()
            .iter()
            .find(|e| matches!(e.kind, EventKind::PoisonSkipped { .. }))
            .expect("PoisonSkipped in the ledger");
        let s = skipped.to_string();
        assert!(s.contains("did not poison"), "{s}");
        assert!(s.contains("AS6"), "{s}");

        let snap = reg.snapshot();
        assert!(snap.counter("core.poisons_skipped").unwrap() >= 1);
        assert_eq!(snap.counter("core.poisons_applied"), Some(0));
        assert_eq!(snap.counter("core.repairs"), Some(0));
    }
}
