//! Atlas refresh with convergence caching (§5.4).
//!
//! A reverse path from `dst` back to a vantage point `vp` is measured
//! incrementally, a few IP-option probes per hop. Reverse paths to the same
//! vantage point converge as they approach it, so the scheduler caches, per
//! `(AS, vp)`, the already-measured tail segment; a refresh that reaches a
//! cached AS splices the tail at no probe cost. A path that has not changed
//! since the last round is confirmed cheaply. These two effects produce the
//! paper's amortized ~10 option probes per refreshed path versus ~35 from
//! scratch.

use crate::resp::ResponsivenessDb;
use crate::store::{Atlas, PathKind, PathRecord};
use lg_asmap::{AsId, RouterId};
use lg_probe::Prober;
use lg_sim::dataplane::{infra_addr, DataPlane};
use lg_sim::Time;
use std::collections::HashMap;

/// Option probes to measure one new hop of a reverse path.
const PROBES_PER_HOP: u64 = 3;
/// Option probes to confirm an unchanged cached path.
const PROBES_CONFIRM: u64 = 2;

/// Statistics from refresh rounds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RefreshStats {
    /// Reverse paths refreshed.
    pub reverse_paths: u64,
    /// Forward paths refreshed.
    pub forward_paths: u64,
    /// Option probes spent on reverse paths.
    pub option_probes: u64,
    /// Traceroute probe packets spent on forward paths.
    pub traceroute_probes: u64,
    /// Cache splices that saved measurement work.
    pub cache_hits: u64,
}

impl RefreshStats {
    /// Amortized option probes per refreshed reverse path.
    pub fn option_probes_per_path(&self) -> f64 {
        if self.reverse_paths == 0 {
            0.0
        } else {
            self.option_probes as f64 / self.reverse_paths as f64
        }
    }
}

/// Keeps the atlas fresh for a set of monitored (vantage, destination)
/// pairs.
pub struct RefreshScheduler {
    pairs: Vec<(AsId, AsId)>,
    /// Refresh a path once its latest record is older than this (ms).
    pub staleness_ms: u64,
    /// Cached tail segments: (AS on some reverse path, vp) → (measured_at,
    /// tail hops from that AS to the vp).
    segment_cache: HashMap<(AsId, AsId), (Time, Vec<RouterId>)>,
    /// Cache entries older than this are ignored (ms).
    pub cache_ttl_ms: u64,
    stats: RefreshStats,
}

impl RefreshScheduler {
    /// Scheduler for `pairs`, refreshing paths older than `staleness_ms`.
    pub fn new(pairs: Vec<(AsId, AsId)>, staleness_ms: u64) -> Self {
        RefreshScheduler {
            pairs,
            staleness_ms,
            segment_cache: HashMap::new(),
            cache_ttl_ms: staleness_ms,
            stats: RefreshStats::default(),
        }
    }

    /// Monitored pairs.
    pub fn pairs(&self) -> &[(AsId, AsId)] {
        &self.pairs
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> RefreshStats {
        self.stats
    }

    /// Measure the reverse path `dst → vp` incrementally, using and filling
    /// the segment cache. Returns the measured hops, or `None` when the
    /// round trip required by reverse traceroute is broken.
    pub fn measure_reverse(
        &mut self,
        dp: &DataPlane<'_>,
        prober: &mut Prober,
        resp: &mut ResponsivenessDb,
        now: Time,
        vp: AsId,
        dst: AsId,
    ) -> Option<Vec<RouterId>> {
        // Reverse traceroute needs the destination to answer probes.
        let rt = prober.ping(dp, now, vp, infra_addr(dst));
        resp.observe(dst, now, rt.responded);
        if !rt.responded {
            return None;
        }

        let walk = dp.walk(now, dst, infra_addr(vp));
        if !walk.outcome.delivered() {
            return None;
        }
        let hops = walk.hops;

        // Walk the true path from the destination side; each hop costs
        // option probes until we reach an AS with a fresh cached tail that
        // matches the remainder.
        let mut measured = 0u64;
        let mut spliced = false;
        for (i, hop) in hops.iter().enumerate() {
            if i > 0 {
                if let Some((t, tail)) = self.segment_cache.get(&(hop.owner, vp)) {
                    if now - *t <= self.cache_ttl_ms && tail == &hops[i..] {
                        self.stats.cache_hits += 1;
                        spliced = true;
                        break;
                    }
                }
            }
            measured += 1;
        }
        let cost = if measured <= 1 && spliced {
            PROBES_CONFIRM
        } else {
            measured * PROBES_PER_HOP
        };
        prober.charge_option_probes(cost);
        self.stats.option_probes += cost;
        self.stats.reverse_paths += 1;

        // Refresh the cache with every suffix of the measured path.
        for (i, hop) in hops.iter().enumerate() {
            self.segment_cache
                .insert((hop.owner, vp), (now, hops[i..].to_vec()));
        }
        Some(hops)
    }

    /// Refresh all stale pairs. Returns the number of paths refreshed this
    /// round.
    pub fn refresh_due(
        &mut self,
        dp: &DataPlane<'_>,
        prober: &mut Prober,
        atlas: &mut Atlas,
        resp: &mut ResponsivenessDb,
        now: Time,
    ) -> u64 {
        let mut refreshed = 0;
        let pairs = self.pairs.clone();
        for (vp, dst) in pairs {
            let stale_f = atlas
                .staleness(PathKind::Forward, vp, dst, now)
                .is_none_or(|a| a >= self.staleness_ms);
            let stale_r = atlas
                .staleness(PathKind::Reverse, vp, dst, now)
                .is_none_or(|a| a >= self.staleness_ms);
            if !stale_f && !stale_r {
                continue;
            }
            if stale_f {
                let before = prober.counters().traceroute_probes;
                let tr = prober.traceroute(dp, now, vp, infra_addr(dst));
                self.stats.traceroute_probes += prober.counters().traceroute_probes - before;
                for h in &tr.hops {
                    resp.observe(h.router.owner, now, h.responded);
                }
                if tr.reached_destination {
                    let hops: Vec<RouterId> = std::iter::once(RouterId::internal(vp))
                        .chain(tr.hops.iter().map(|h| h.router))
                        .collect();
                    atlas.record(
                        PathKind::Forward,
                        vp,
                        dst,
                        PathRecord {
                            measured_at: now,
                            hops,
                        },
                    );
                    self.stats.forward_paths += 1;
                    refreshed += 1;
                }
            }
            if stale_r {
                if let Some(hops) = self.measure_reverse(dp, prober, resp, now, vp, dst) {
                    atlas.record(
                        PathKind::Reverse,
                        vp,
                        dst,
                        PathRecord {
                            measured_at: now,
                            hops,
                        },
                    );
                    refreshed += 1;
                }
            }
        }
        refreshed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lg_asmap::GraphBuilder;
    use lg_sim::Network;

    /// Star of stubs under a shared transit core: vp(0) under core 1; dsts
    /// 3..=6 under core 2; cores peer. Reverse paths from all dsts converge
    /// at core 2 → core 1 → vp.
    fn world() -> Network {
        let mut g = GraphBuilder::with_ases(7);
        g.peer(AsId(1), AsId(2));
        g.provider_customer(AsId(1), AsId(0));
        for d in 3..=6u32 {
            g.provider_customer(AsId(2), AsId(d));
        }
        Network::new(g.build())
    }

    #[test]
    fn reverse_measurement_fills_atlas_and_cache() {
        let net = world();
        let dp = DataPlane::new(&net);
        let mut prober = Prober::with_defaults();
        let mut atlas = Atlas::default();
        let mut resp = ResponsivenessDb::new();
        let pairs: Vec<_> = (3..=6u32).map(|d| (AsId(0), AsId(d))).collect();
        let mut sched = RefreshScheduler::new(pairs, 60_000);

        let n = sched.refresh_due(&dp, &mut prober, &mut atlas, &mut resp, Time::ZERO);
        assert_eq!(n, 8, "4 forward + 4 reverse paths");
        let s = sched.stats();
        assert_eq!(s.reverse_paths, 4);
        // Converging tails: later paths splice at core 2 → cache hits.
        assert!(s.cache_hits >= 3, "cache hits: {}", s.cache_hits);
        let rec = atlas.latest(PathKind::Reverse, AsId(0), AsId(4)).unwrap();
        assert_eq!(rec.as_path(), vec![AsId(4), AsId(2), AsId(1), AsId(0)]);
    }

    #[test]
    fn amortized_cost_beats_fresh_cost() {
        let net = world();
        let dp = DataPlane::new(&net);
        let mut prober = Prober::with_defaults();
        let mut atlas = Atlas::default();
        let mut resp = ResponsivenessDb::new();
        let pairs: Vec<_> = (3..=6u32).map(|d| (AsId(0), AsId(d))).collect();
        let mut sched = RefreshScheduler::new(pairs, 60_000);

        // Several rounds: steady-state cost per path must drop well below
        // the fresh cost of ~3 probes x path length.
        for round in 0..10u64 {
            sched.refresh_due(
                &dp,
                &mut prober,
                &mut atlas,
                &mut resp,
                Time(round * 60_000),
            );
        }
        let per_path = sched.stats().option_probes_per_path();
        assert!(per_path < 9.0, "amortized cost {per_path} too high");
        assert!(per_path > 0.0);
    }

    #[test]
    fn fresh_pairs_not_stale_are_skipped() {
        let net = world();
        let dp = DataPlane::new(&net);
        let mut prober = Prober::with_defaults();
        let mut atlas = Atlas::default();
        let mut resp = ResponsivenessDb::new();
        let mut sched = RefreshScheduler::new(vec![(AsId(0), AsId(3))], 60_000);
        assert_eq!(
            sched.refresh_due(&dp, &mut prober, &mut atlas, &mut resp, Time::ZERO),
            2
        );
        // 10s later: nothing stale.
        assert_eq!(
            sched.refresh_due(&dp, &mut prober, &mut atlas, &mut resp, Time::from_secs(10)),
            0
        );
        // After the staleness window: refreshed again.
        assert_eq!(
            sched.refresh_due(&dp, &mut prober, &mut atlas, &mut resp, Time::from_secs(61)),
            2
        );
    }

    #[test]
    fn reverse_measurement_fails_during_reverse_outage() {
        use lg_sim::failures::Failure;
        let net = world();
        let mut dp = DataPlane::new(&net);
        dp.failures_mut().add(Failure::silent_as_toward(
            AsId(1),
            lg_sim::dataplane::infra_prefix(AsId(0)),
        ));
        let mut prober = Prober::with_defaults();
        let mut resp = ResponsivenessDb::new();
        let mut sched = RefreshScheduler::new(vec![(AsId(0), AsId(3))], 60_000);
        assert!(sched
            .measure_reverse(&dp, &mut prober, &mut resp, Time::ZERO, AsId(0), AsId(3))
            .is_none());
        // The responsiveness DB recorded the failed observation.
        assert_eq!(resp.observations(AsId(3)), 1);
        assert!(!resp.ever_responded(AsId(3)));
    }
}
