//! Fig 6 and §5.2: convergence behavior after poisoned announcements, and
//! packet loss during convergence.
//!
//! For each harvested poison target the event-driven engine replays the
//! paper's procedure: announce a baseline (`O` or the prepended `O-O-O`),
//! let routing settle, flip to the poisoned announcement `O-A-O`, and watch
//! every collector peer's route changes. Peers are classified by whether
//! their pre-poison route traversed the poisoned AS ("change" vs "no
//! change"); the prepended baseline keeps announcement length constant so
//! unaffected peers should reconverge instantly. The data plane is probed
//! every 10 s of simulated time during convergence to measure transient
//! loss.

use crate::report::{pct, Table};
use crate::worlds::{mux_world, production_prefix, MuxWorld};
use lg_asmap::{AsId, TopologyConfig};
use lg_sim::{AnnouncementSpec, DynamicSim, DynamicSimConfig, Time};
use lg_workloads::harvest_poison_targets;

/// Per-arm convergence samples (one sample per (peer, poisoning)).
#[derive(Clone, Debug, Default)]
pub struct ArmStats {
    /// Convergence times in ms (0 = instant, a single route change).
    pub samples: Vec<u64>,
}

impl ArmStats {
    /// Fraction converging instantly.
    pub fn frac_instant(&self) -> f64 {
        self.frac_within(0)
    }

    /// Fraction converging within `ms`.
    pub fn frac_within(&self, ms: u64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let n = self.samples.iter().filter(|s| **s <= ms).count();
        n as f64 / self.samples.len() as f64
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx]
}

/// Full result of the convergence study.
#[derive(Clone, Debug, Default)]
pub struct ConvergenceResult {
    /// Prepend baseline, peer had been routing via the poisoned AS.
    pub prepend_change: ArmStats,
    /// Prepend baseline, peer not routing via the poisoned AS.
    pub prepend_nochange: ArmStats,
    /// Plain baseline, peer changed.
    pub plain_change: ArmStats,
    /// Plain baseline, peer unchanged.
    pub plain_nochange: ArmStats,
    /// Global convergence times (ms) per poisoning, prepended baseline.
    pub global_prepend: Vec<u64>,
    /// Global convergence times (ms) per poisoning, plain baseline.
    pub global_plain: Vec<u64>,
    /// Per-poisoning loss rate during convergence (prepended baseline).
    pub loss_rates: Vec<f64>,
    /// Mean route changes per AS that had been routing via the poisoned AS
    /// (Table 2's U for affected routers).
    pub u_affected: f64,
    /// Mean route changes per unaffected AS.
    pub u_unaffected: f64,
    /// Fraction of unaffected peers that made at most one route change
    /// (prepended baseline; paper: 97% single-update).
    pub single_update_unaffected: f64,
}

impl ConvergenceResult {
    /// Median global convergence (ms) for the given baseline.
    pub fn global_median(&self, prepend: bool) -> u64 {
        let mut v = if prepend {
            self.global_prepend.clone()
        } else {
            self.global_plain.clone()
        };
        v.sort_unstable();
        percentile(&v, 0.5)
    }

    /// Fraction of poisonings with loss rate under `cap`.
    pub fn loss_under(&self, cap: f64) -> f64 {
        if self.loss_rates.is_empty() {
            return 0.0;
        }
        let n = self.loss_rates.iter().filter(|l| **l < cap).count();
        n as f64 / self.loss_rates.len() as f64
    }
}

/// Configuration of the study.
#[derive(Clone, Debug)]
pub struct ConvergenceConfig {
    /// Topology to generate.
    pub topo: TopologyConfig,
    /// Collector-peer population.
    pub observers: usize,
    /// Poison targets to try.
    pub max_poisons: usize,
    /// Vantage ASes probing the data plane for loss.
    pub loss_probers: usize,
    /// Loss probing interval (simulated ms); the paper probes every 10 s.
    pub probe_interval_ms: u64,
}

impl ConvergenceConfig {
    /// A configuration sized for `cargo bench`.
    pub fn standard(seed: u64) -> Self {
        ConvergenceConfig {
            topo: TopologyConfig::calibrated(1_000, seed),
            observers: 150,
            max_poisons: 25,
            loss_probers: 60,
            probe_interval_ms: 10_000,
        }
    }

    /// A tiny configuration for unit tests.
    pub fn tiny(seed: u64) -> Self {
        ConvergenceConfig {
            topo: TopologyConfig::calibrated(64, seed),
            observers: 20,
            max_poisons: 5,
            loss_probers: 10,
            probe_interval_ms: 10_000,
        }
    }
}

/// Run the convergence study.
pub fn run_convergence(cfg: &ConvergenceConfig) -> ConvergenceResult {
    // Single-provider origin, like the Georgia Tech deployment.
    let world: MuxWorld = mux_world(&cfg.topo, 1, cfg.observers);
    let prefix = production_prefix();
    let net = &world.net;

    // Static what-if tables are memoized: each poison target's table is
    // needed for both the prepended and plain baseline passes below.
    let cache = lg_sim::SharedRouteCache::new();

    // Harvest poison targets from the static baseline.
    let base_table = cache.compute(
        net,
        &AnnouncementSpec::prepended(net, prefix, world.origin, 3),
    );
    // The Cogent rule: never poison the origin's own providers.
    let targets = harvest_poison_targets(
        net.graph(),
        &base_table,
        &world.collector_peers,
        &world.providers,
    );

    let mut out = ConvergenceResult::default();
    let mut affected_changes: Vec<u64> = Vec::new();
    let mut unaffected_changes: Vec<u64> = Vec::new();
    let mut unaffected_single = (0usize, 0usize);

    for a in targets.into_iter().take(cfg.max_poisons) {
        for prepend in [true, false] {
            let baseline = if prepend {
                AnnouncementSpec::prepended(net, prefix, world.origin, 3)
            } else {
                AnnouncementSpec::plain(net, prefix, world.origin)
            };
            let poisoned = AnnouncementSpec::poisoned(net, prefix, world.origin, &[a]);

            let mut sim = DynamicSim::new(net, DynamicSimConfig::default());
            sim.announce(&baseline);
            sim.run_until_quiescent(Time::from_mins(60));
            debug_assert!(sim.quiescent());

            // Record pre-poison routes of the observers.
            let pre_routes: Vec<(AsId, bool)> = world
                .collector_peers
                .iter()
                .filter_map(|p| sim.loc_route(*p, prefix).map(|r| (*p, r.traverses(a))))
                .collect();
            // Loss probers: peers with pre-poison routes that survive the
            // poison (the paper excludes completely cut-off sites).
            let post_static = cache.compute(net, &poisoned);
            let probers: Vec<AsId> = pre_routes
                .iter()
                .map(|(p, _)| *p)
                .filter(|p| post_static.has_route(*p))
                .take(cfg.loss_probers)
                .collect();

            let t_poison = sim.now();
            sim.begin_epoch(prefix);
            sim.announce(&poisoned);

            // Interleave convergence with data-plane probing.
            let mut sent = 0u64;
            let mut lost = 0u64;
            let deadline = t_poison + 600_000;
            let mut t = t_poison;
            while !sim.quiescent() && t < deadline {
                t += cfg.probe_interval_ms;
                sim.run_until(t);
                if prepend {
                    for p in &probers {
                        sent += 1;
                        let w = sim.walk(*p, prefix.nth_addr(1));
                        if !w.outcome.delivered() {
                            lost += 1;
                        }
                    }
                }
            }
            sim.run_until_quiescent(Time(deadline.millis() + 3_600_000));

            let metrics = sim.metrics(prefix);
            for (p, was_via_a) in &pre_routes {
                let conv = metrics.convergence_ms(*p).unwrap_or(0);
                let arm = match (prepend, was_via_a) {
                    (true, true) => &mut out.prepend_change,
                    (true, false) => &mut out.prepend_nochange,
                    (false, true) => &mut out.plain_change,
                    (false, false) => &mut out.plain_nochange,
                };
                arm.samples.push(conv);
                if prepend {
                    let changes = metrics.loc_changes.get(p).copied().unwrap_or(0);
                    if *was_via_a {
                        affected_changes.push(changes);
                    } else {
                        unaffected_changes.push(changes);
                        unaffected_single.1 += 1;
                        if changes <= 1 {
                            unaffected_single.0 += 1;
                        }
                    }
                }
            }
            let global = metrics.global_convergence_ms().unwrap_or(0);
            if prepend {
                out.global_prepend.push(global);
                if sent > 0 {
                    out.loss_rates.push(lost as f64 / sent as f64);
                }
            } else {
                out.global_plain.push(global);
            }
        }
    }

    let mean = |v: &[u64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<u64>() as f64 / v.len() as f64
        }
    };
    out.u_affected = mean(&affected_changes);
    out.u_unaffected = mean(&unaffected_changes);
    out.single_update_unaffected = if unaffected_single.1 == 0 {
        0.0
    } else {
        unaffected_single.0 as f64 / unaffected_single.1 as f64
    };
    out
}

/// The Fig 6 table.
pub fn fig6_table(r: &ConvergenceResult) -> Table {
    let mut t = Table::new(
        "Fig 6: peer convergence after poisoned announcements",
        &[
            "arm",
            "instant",
            "<=50s",
            "<=200s",
            "samples",
            "paper anchor",
        ],
    );
    let rows: [(&str, &ArmStats, &str); 4] = [
        (
            "prepend, no change",
            &r.prepend_nochange,
            ">95% instant, 99% <=50s",
        ),
        (
            "no prepend, no change",
            &r.plain_nochange,
            "<70% instant, 94% <=50s",
        ),
        ("prepend, change", &r.prepend_change, "96% <=50s"),
        ("no prepend, change", &r.plain_change, "86% <=50s"),
    ];
    for (label, arm, anchor) in rows {
        t.row(&[
            label.into(),
            pct(arm.frac_instant()),
            pct(arm.frac_within(50_000)),
            pct(arm.frac_within(200_000)),
            arm.len().to_string(),
            anchor.into(),
        ]);
    }
    t
}

/// The §5.2 disruption table (global convergence + loss).
pub fn disruption_table(r: &ConvergenceResult) -> Table {
    let mut t = Table::new(
        "§5.2 Disruptiveness: global convergence and loss during convergence",
        &["metric", "paper", "measured"],
    );
    t.row(&[
        "median global convergence (prepend)".into(),
        "<=91s".into(),
        format!("{:.0}s", r.global_median(true) as f64 / 1000.0),
    ]);
    t.row(&[
        "median global convergence (no prepend)".into(),
        "133s".into(),
        format!("{:.0}s", r.global_median(false) as f64 / 1000.0),
    ]);
    t.row(&[
        "poisonings with <1% loss".into(),
        "60%".into(),
        pct(r.loss_under(0.01)),
    ]);
    t.row(&[
        "poisonings with <2% loss".into(),
        "98%".into(),
        pct(r.loss_under(0.02)),
    ]);
    t.row(&[
        "unaffected peers with single update".into(),
        "97%".into(),
        pct(r.single_update_unaffected),
    ]);
    t.row(&[
        "U (route changes/router, affected)".into(),
        "2.03".into(),
        format!("{:.2}", r.u_affected),
    ]);
    t.row(&[
        "U (route changes/router, unaffected)".into(),
        "1.07".into(),
        format!("{:.2}", r.u_unaffected),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_convergence_study_has_paper_shape() {
        let r = run_convergence(&ConvergenceConfig::tiny(3));
        assert!(!r.prepend_nochange.is_empty());
        assert!(!r.plain_nochange.is_empty());
        // The core claim: prepending beats the plain baseline for
        // unaffected peers.
        assert!(
            r.prepend_nochange.frac_instant() >= r.plain_nochange.frac_instant(),
            "prepend {} vs plain {}",
            r.prepend_nochange.frac_instant(),
            r.plain_nochange.frac_instant()
        );
        assert!(
            r.prepend_nochange.frac_instant() > 0.8,
            "instant fraction {}",
            r.prepend_nochange.frac_instant()
        );
        // Everyone converges within the run window.
        assert!(r.prepend_change.is_empty() || r.prepend_change.frac_within(600_000) == 1.0);
        // Loss rates are valid fractions.
        assert!(r.loss_under(1.01) == 1.0);
    }

    #[test]
    fn arm_stats_fractions() {
        let arm = ArmStats {
            samples: vec![0, 0, 40_000, 100_000],
        };
        assert_eq!(arm.frac_instant(), 0.5);
        assert_eq!(arm.frac_within(50_000), 0.75);
        assert_eq!(arm.frac_within(100_000), 1.0);
        assert_eq!(arm.len(), 4);
    }
}
