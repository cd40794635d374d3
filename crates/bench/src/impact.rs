//! End-to-end availability impact: a day of realistic outages with and
//! without LIFEGUARD.
//!
//! The paper argues (§1, §4.2) that because most unavailability comes from
//! long outages, a system that takes ~5 minutes to detect, isolate, and
//! reroute can still avoid up to ~80% of it. This experiment tests that
//! claim end to end rather than analytically: identical Poisson timelines
//! of silent reverse-path failures (durations from the EC2-calibrated
//! mixture) are replayed against a monitored target set twice — once with
//! LIFEGUARD repairing, once without — and ground-truth downtime is
//! accounted at 30 s resolution.

use crate::report::{pct, Table};
use crate::worlds::{mesh_world, production_prefix, sentinel_prefix, MeshWorld};
use lg_asmap::{AsId, TopologyConfig};
use lg_sim::dataplane::infra_prefix;
use lg_sim::failures::Failure;
use lg_sim::Time;
use lg_workloads::ArrivalsConfig;
use lifeguard_core::config::PING_INTERVAL_MS;
use lifeguard_core::{EventKind, Lifeguard, LifeguardConfig, World};

/// Experiment configuration.
#[derive(Clone, Debug)]
pub struct ImpactConfig {
    /// Topology.
    pub topo: TopologyConfig,
    /// Monitored targets (plus one origin and two vantage sites).
    pub n_targets: usize,
    /// Mean outage arrivals per day across the monitored set.
    pub outages_per_day: f64,
    /// Simulated horizon in minutes.
    pub horizon_mins: u64,
    /// Seed.
    pub seed: u64,
}

impl ImpactConfig {
    /// Bench-sized: three days, enough arrivals for the heavy tail (which
    /// carries most unavailability) to be represented.
    pub fn standard(seed: u64) -> Self {
        ImpactConfig {
            topo: TopologyConfig::calibrated(1_000, seed),
            n_targets: 8,
            outages_per_day: 40.0,
            horizon_mins: 3 * 24 * 60,
            seed,
        }
    }

    /// Test-sized: four hours.
    pub fn tiny(seed: u64) -> Self {
        ImpactConfig {
            topo: TopologyConfig::calibrated(64, seed),
            n_targets: 3,
            outages_per_day: 60.0,
            horizon_mins: 4 * 60,
            seed,
        }
    }
}

/// Outcome of the comparison.
#[derive(Clone, Copy, Debug, Default)]
pub struct ImpactResult {
    /// Failure events injected.
    pub outages_injected: usize,
    /// Ground-truth downtime without LIFEGUARD (ms, summed over targets).
    pub baseline_downtime_ms: u64,
    /// Ground-truth downtime with LIFEGUARD repairing (ms).
    pub lifeguard_downtime_ms: u64,
    /// Poisonings applied.
    pub repairs: usize,
    /// Poison decisions skipped (unfixable / no alternate).
    pub skipped: usize,
}

impl ImpactResult {
    /// Fraction of baseline unavailability avoided.
    pub fn avoided_fraction(&self) -> f64 {
        if self.baseline_downtime_ms == 0 {
            return 0.0;
        }
        1.0 - self.lifeguard_downtime_ms as f64 / self.baseline_downtime_ms as f64
    }
}

/// Run the experiment.
pub fn run_impact(cfg: &ImpactConfig) -> ImpactResult {
    let MeshWorld { net, sites } = mesh_world(&cfg.topo, cfg.n_targets + 3);
    let origin = sites[0];
    let vps = vec![sites[1], sites[2]];
    let targets: Vec<AsId> = sites[3..3 + cfg.n_targets].to_vec();

    // Shared failure timeline: each arrival hits the first transit AS on a
    // (round-robin) target's reverse path, dropping traffic toward the
    // origin's prefixes — the canonical silent reverse-path failure.
    let production = production_prefix();
    let sentinel = sentinel_prefix();
    let arrivals = ArrivalsConfig {
        per_day: cfg.outages_per_day,
        horizon_secs: cfg.horizon_mins as f64 * 60.0,
        durations: lg_workloads::OutageTraceConfig {
            seed: cfg.seed ^ 0xD0D0,
            ..lg_workloads::OutageTraceConfig::default()
        },
        seed: cfg.seed,
    }
    .generate();

    let mut result = ImpactResult {
        outages_injected: arrivals.len(),
        ..ImpactResult::default()
    };

    for with_lifeguard in [false, true] {
        let mut world = World::new(&net);
        let mut lg_cfg = LifeguardConfig::paper_defaults(origin, production, sentinel);
        lg_cfg.targets = targets.clone();
        lg_cfg.vantage_points = vps.clone();
        let mut lifeguard = Lifeguard::new(lg_cfg);
        lifeguard.install(&mut world, Time::ZERO);

        // Install the timeline against this world's (identical) routes.
        for (i, a) in arrivals.iter().enumerate() {
            let target = targets[i % targets.len()];
            let rev = world.dp.walk(Time::ZERO, target, production.nth_addr(1));
            let hops = rev.as_hops();
            if hops.len() < 2 {
                continue;
            }
            let culprit = hops[1];
            let from = Time((a.start_secs * 1000.0) as u64);
            let until = Time((a.end_secs() * 1000.0) as u64);
            for p in [production, sentinel, infra_prefix(origin)] {
                world
                    .dp
                    .failures_mut()
                    .add(Failure::silent_as_toward(culprit, p).window(from, Some(until)));
            }
        }

        // Run the horizon; account ground-truth downtime each interval.
        let mut downtime: u64 = 0;
        let mut now = Time::from_secs(60);
        let end = Time::from_mins(cfg.horizon_mins);
        while now <= end {
            if with_lifeguard {
                lifeguard.tick(&mut world, now);
            }
            for &t in &targets {
                let (fwd, rev) = world.dp.round_trip(
                    now,
                    origin,
                    production.nth_addr(1),
                    infra_prefix(t).nth_addr(1),
                );
                let up = fwd.outcome.delivered() && rev.is_some_and(|r| r.outcome.delivered());
                if !up {
                    downtime += PING_INTERVAL_MS;
                }
            }
            now += PING_INTERVAL_MS;
        }

        if with_lifeguard {
            result.lifeguard_downtime_ms = downtime;
            result.repairs = lifeguard
                .events()
                .iter()
                .filter(|e| matches!(e.kind, EventKind::Poisoned { .. }))
                .count();
            result.skipped = lifeguard
                .events()
                .iter()
                .filter(|e| matches!(e.kind, EventKind::PoisonSkipped { .. }))
                .count();
        } else {
            result.baseline_downtime_ms = downtime;
        }
    }
    result
}

/// The impact table.
pub fn impact_table(r: &ImpactResult) -> Table {
    let mut t = Table::new(
        "End-to-end availability impact (day-in-the-life replay)",
        &["metric", "paper", "measured"],
    );
    t.row(&[
        "failure events injected".into(),
        "-".into(),
        r.outages_injected.to_string(),
    ]);
    t.row(&[
        "downtime without LIFEGUARD".into(),
        "-".into(),
        format!("{:.1} min", r.baseline_downtime_ms as f64 / 60_000.0),
    ]);
    t.row(&[
        "downtime with LIFEGUARD".into(),
        "-".into(),
        format!("{:.1} min", r.lifeguard_downtime_ms as f64 / 60_000.0),
    ]);
    t.row(&[
        "unavailability avoided".into(),
        "up to ~80% (§4.2)".into(),
        pct(r.avoided_fraction()),
    ]);
    t.row(&[
        "poisonings applied / skipped".into(),
        "-".into(),
        format!("{} / {}", r.repairs, r.skipped),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifeguard_reduces_downtime_substantially() {
        let r = run_impact(&ImpactConfig::tiny(11));
        assert!(r.outages_injected >= 3, "{r:?}");
        assert!(r.baseline_downtime_ms > 0, "{r:?}");
        let avoided = r.avoided_fraction();
        assert!(
            avoided > 0.3,
            "LIFEGUARD should avoid a large share: {avoided} ({r:?})"
        );
        assert!(r.repairs >= 1, "{r:?}");
        assert!(r.lifeguard_downtime_ms < r.baseline_downtime_ms, "{r:?}");
    }
}
