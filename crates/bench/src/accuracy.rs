//! §5.3 Accuracy: does isolation blame the right AS?
//!
//! Scenarios with known ground truth are injected between mesh sites; the
//! isolator (restricted to source-side vantage points, as deployed) is
//! scored three ways:
//!
//! * **ground truth** — did it blame the failed element's AS? (Only the
//!   simulator can know this; the paper cannot measure it directly.)
//! * **consistency** — the paper's §5.3 metric: is the conclusion
//!   consistent with a traceroute from the *target* side ("behind" the
//!   failure)?
//! * **traceroute disagreement** — how often the conclusion differs from
//!   the traceroute-only baseline (paper: 40%), and how often the baseline
//!   is wrong against ground truth.

use crate::report::{pct, Table};
use crate::worlds::{mesh_world, MeshWorld};
use lg_asmap::TopologyConfig;
use lg_atlas::{Atlas, RefreshScheduler, ResponsivenessDb};
use lg_locate::{FailureDirection, Isolator};
use lg_probe::Prober;
use lg_sim::dataplane::{infra_addr, infra_prefix, DataPlane};
use lg_sim::Time;
use lg_workloads::{ScenarioGen, ScenarioKind};

/// Aggregate scores.
#[derive(Clone, Copy, Debug, Default)]
pub struct AccuracyResult {
    /// Scenarios evaluated.
    pub cases: usize,
    /// Isolation blamed the ground-truth culprit AS.
    pub correct: usize,
    /// Direction classified correctly.
    pub direction_correct: usize,
    /// Conclusion consistent with a target-side traceroute (§5.3 metric).
    pub consistent: usize,
    /// Conclusion differed from the traceroute-only baseline.
    pub differs_from_traceroute: usize,
    /// Traceroute-only baseline blamed the true culprit.
    pub traceroute_correct: usize,
    /// Total modeled isolation time (ms), reverse/bidirectional cases.
    pub total_isolation_ms: u64,
    /// Reverse/bidirectional isolations (denominator for the time mean).
    pub poisonable_cases: usize,
    /// Total probes across all isolations.
    pub total_probes: u64,
}

impl AccuracyResult {
    /// n/d with a zero-denominator guard.
    pub fn frac(n: usize, d: usize) -> f64 {
        if d == 0 {
            0.0
        } else {
            n as f64 / d as f64
        }
    }

    /// Mean isolation latency for poisonable (reverse/bidirectional) cases.
    pub fn mean_isolation_secs(&self) -> f64 {
        if self.poisonable_cases == 0 {
            0.0
        } else {
            self.total_isolation_ms as f64 / 1000.0 / self.poisonable_cases as f64
        }
    }

    /// Mean probes per isolation.
    pub fn mean_probes(&self) -> f64 {
        Self::frac(self.total_probes as usize, self.cases)
    }
}

/// Study configuration.
#[derive(Clone, Debug)]
pub struct AccuracyConfig {
    /// Topology.
    pub topo: TopologyConfig,
    /// Number of mesh sites.
    pub sites: usize,
    /// Scenarios to draw.
    pub scenarios: usize,
}

impl AccuracyConfig {
    /// Bench-sized configuration.
    pub fn standard(seed: u64) -> Self {
        AccuracyConfig {
            topo: TopologyConfig::calibrated(1_000, seed),
            sites: 12,
            scenarios: 150,
        }
    }

    /// Test-sized configuration.
    pub fn tiny(seed: u64) -> Self {
        AccuracyConfig {
            topo: TopologyConfig::calibrated(64, seed),
            sites: 6,
            scenarios: 25,
        }
    }
}

/// Run the accuracy study.
pub fn run_accuracy(cfg: &AccuracyConfig) -> AccuracyResult {
    let MeshWorld { net, sites } = mesh_world(&cfg.topo, cfg.sites);
    let mut dp = DataPlane::new(&net);
    let mut prober = Prober::with_defaults();
    let mut gen = ScenarioGen::new(cfg.topo.seed ^ 0xACC);

    // Warm atlases for each site against everything (healthy period).
    let mut atlas = Atlas::default();
    let mut resp = ResponsivenessDb::new();
    let mut pairs = Vec::new();
    for &s in &sites {
        for a in net.graph().ases() {
            if a != s {
                pairs.push((s, a));
            }
        }
    }
    let mut sched = RefreshScheduler::new(pairs, 60_000);
    sched.refresh_due(&dp, &mut prober, &mut atlas, &mut resp, Time::ZERO);

    let mut out = AccuracyResult::default();
    let mut drawn = 0usize;
    let mut attempt = 0usize;
    while drawn < cfg.scenarios && attempt < cfg.scenarios * 4 {
        attempt += 1;
        let src = sites[attempt % sites.len()];
        let dst = sites[(attempt * 7 + 3) % sites.len()];
        if src == dst {
            continue;
        }
        let fwd_table = dp.table(infra_prefix(dst)).unwrap().clone();
        let Some(scenario) = gen.draw(&net, &fwd_table, src, infra_prefix(src), infra_prefix(dst))
        else {
            continue;
        };
        // Skip scenarios whose culprit is a site edge (the studies focus on
        // transit failures).
        if sites.contains(&scenario.culprit()) {
            continue;
        }
        // A fresh time window per scenario keeps per-second probe rate
        // limits from bleeding between isolations.
        let t = Time::from_mins(30 + 10 * attempt as u64);
        let n_failures = scenario.failures.len();
        for f in &scenario.failures {
            dp.failures_mut().add(f.clone().window(t, None));
        }
        let clear_failures = |dp: &mut DataPlane<'_>| {
            for _ in 0..n_failures {
                let last = dp.failures().len() - 1;
                dp.failures_mut().remove(last);
            }
        };

        let vps: Vec<_> = sites
            .iter()
            .copied()
            .filter(|v| *v != src && *v != dst)
            .collect();
        let now = t + 120_000;
        // The paper's selection criteria: the outage must be *partial* —
        // some vantage point still has connectivity to the target — and the
        // monitored path must actually fail.
        let partial = vps
            .iter()
            .any(|v| prober.ping(&dp, now, *v, infra_addr(dst)).responded);
        let failing = !prober.ping(&dp, now, src, infra_addr(dst)).responded;
        if !partial || !failing {
            clear_failures(&mut dp);
            continue;
        }
        drawn += 1;
        let isolator = Isolator::new(vps);
        let report = isolator.isolate(&dp, &mut prober, &atlas, &resp, now, src, dst);

        out.cases += 1;
        out.total_probes += report.probes_used.total();
        let expected_dir = match scenario.kind {
            ScenarioKind::Forward => FailureDirection::Forward,
            ScenarioKind::Reverse => FailureDirection::Reverse,
            ScenarioKind::Bidirectional => FailureDirection::Bidirectional,
        };
        if report.direction == expected_dir {
            out.direction_correct += 1;
        }
        if matches!(
            report.direction,
            FailureDirection::Reverse | FailureDirection::Bidirectional
        ) {
            out.poisonable_cases += 1;
            out.total_isolation_ms += report.elapsed_ms;
        }
        if report.blamed_as() == Some(scenario.culprit()) {
            out.correct += 1;
        }
        if report.differs_from_traceroute() {
            out.differs_from_traceroute += 1;
        }
        if report.traceroute_blame == Some(scenario.culprit()) {
            out.traceroute_correct += 1;
        }

        // Consistency against a target-side traceroute (the §5.3 check):
        // the failing-direction traceroute should terminate in (or just
        // before) the blamed AS, and the opposite-direction one should not
        // show the blamed AS forwarding onward past it.
        let tr_from_target = prober.traceroute(&dp, now, dst, infra_addr(src));
        let tr_from_src = prober.traceroute(&dp, now, src, infra_addr(dst));
        let failing_dir_tr = match report.direction {
            FailureDirection::Forward => &tr_from_src,
            _ => &tr_from_target,
        };
        let consistent = match report.blamed_as() {
            Some(blamed) => {
                let failing_path = failing_dir_tr.responsive_as_path();
                // The failing-direction traceroute must die at or adjacent
                // to the blamed AS (it cannot pass through and beyond it).
                let terminal_ok = !failing_dir_tr.reached_destination
                    && match failing_dir_tr.last_responsive_as() {
                        None => true,
                        Some(l) => l == blamed || !failing_path.contains(&blamed),
                    };
                let other_tr = match report.direction {
                    FailureDirection::Forward => &tr_from_target,
                    _ => &tr_from_src,
                };
                // Contradiction: the other direction shows responses from
                // the blamed AS yet dies in a *different* AS beyond it.
                let contradicted = other_tr.responsive_as_path().contains(&blamed)
                    && !other_tr.reached_destination
                    && other_tr.last_responsive_as() != Some(blamed);
                terminal_ok && !contradicted
            }
            None => false,
        };
        if consistent {
            out.consistent += 1;
        }

        // Clear this scenario's failures (they were appended last).
        clear_failures(&mut dp);
    }
    out
}

/// The §5.3 table.
pub fn accuracy_table(r: &AccuracyResult) -> Table {
    let mut t = Table::new(
        "§5.3 Accuracy: failure isolation vs ground truth and traceroute",
        &["metric", "paper", "measured"],
    );
    t.row(&[
        "consistent with target-side traceroute".into(),
        "93% (169/182)".into(),
        pct(AccuracyResult::frac(r.consistent, r.cases)),
    ]);
    t.row(&[
        "differs from traceroute-only diagnosis".into(),
        "40%".into(),
        pct(AccuracyResult::frac(r.differs_from_traceroute, r.cases)),
    ]);
    t.row(&[
        "blames ground-truth culprit (sim only)".into(),
        "n/a".into(),
        pct(AccuracyResult::frac(r.correct, r.cases)),
    ]);
    t.row(&[
        "traceroute-only blames culprit (sim only)".into(),
        "n/a".into(),
        pct(AccuracyResult::frac(r.traceroute_correct, r.cases)),
    ]);
    t.row(&[
        "direction classified correctly".into(),
        "n/a".into(),
        pct(AccuracyResult::frac(r.direction_correct, r.cases)),
    ]);
    t.row(&[
        "mean isolation time (poisonable)".into(),
        "140s".into(),
        format!("{:.0}s", r.mean_isolation_secs()),
    ]);
    t.row(&[
        "mean probes per isolation".into(),
        "~280".into(),
        format!("{:.0}", r.mean_probes()),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_accuracy_study() {
        let r = run_accuracy(&AccuracyConfig::tiny(5));
        assert!(r.cases >= 10, "cases {}", r.cases);
        let acc = AccuracyResult::frac(r.correct, r.cases);
        assert!(acc >= 0.6, "ground-truth accuracy {acc}");
        // LIFEGUARD must beat the traceroute-only baseline.
        assert!(
            r.correct > r.traceroute_correct,
            "lifeguard {} vs traceroute {}",
            r.correct,
            r.traceroute_correct
        );
        // A healthy share of conclusions differ from traceroute.
        let differs = AccuracyResult::frac(r.differs_from_traceroute, r.cases);
        assert!(differs > 0.15, "differs {differs}");
    }
}
