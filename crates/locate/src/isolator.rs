//! The isolation pipeline.

use crate::baseline::traceroute_only_blame;
use crate::report::{Blame, FailureDirection, IsolationReport};
use lg_asmap::{AsId, RouterId};
use lg_atlas::{Atlas, PathKind, ResponsivenessDb};
use lg_probe::Prober;
use lg_sim::dataplane::{infra_addr, DataPlane};
use lg_sim::Time;

/// Modeled stage durations. The simulator executes probes instantaneously;
/// these constants model the wall-clock cost of each stage in deployment
/// (probe rounds, retries, rate-limit pacing), calibrated so a reverse-path
/// isolation lands near the paper's reported 140 s average.
#[derive(Clone, Copy, Debug)]
pub struct IsolatorConfig {
    /// Initial confirmation traceroute stage (ms).
    pub traceroute_stage_ms: u64,
    /// Spoofed-ping direction isolation stage (ms).
    pub direction_stage_ms: u64,
    /// Working-direction path measurement stage (ms).
    pub working_path_stage_ms: u64,
    /// Per candidate-AS reachability test (ms, includes retries).
    pub per_candidate_ms: u64,
    /// Per reverse traceroute issued from a reachable hop (ms).
    pub per_revtr_ms: u64,
    /// Final pruning/analysis stage (ms).
    pub prune_stage_ms: u64,
    /// Ping retries before declaring a hop unreachable.
    pub ping_retries: u32,
    /// Max vantage points consulted per stage.
    pub max_vantage_points: usize,
    /// Max reverse traceroutes issued from reachable hops.
    pub max_revtrs: usize,
}

impl Default for IsolatorConfig {
    fn default() -> Self {
        IsolatorConfig {
            traceroute_stage_ms: 10_000,
            direction_stage_ms: 15_000,
            working_path_stage_ms: 25_000,
            per_candidate_ms: 4_000,
            per_revtr_ms: 10_000,
            prune_stage_ms: 5_000,
            ping_retries: 3,
            max_vantage_points: 5,
            max_revtrs: 3,
        }
    }
}

/// Runs the §4.1 isolation pipeline from one source vantage point, assisted
/// by others.
pub struct Isolator {
    /// Other vantage points that send/receive on the source's behalf.
    pub vantage_points: Vec<AsId>,
    /// Stage cost model and limits.
    pub cfg: IsolatorConfig,
}

impl Isolator {
    /// Isolator with default configuration.
    pub fn new(vantage_points: Vec<AsId>) -> Self {
        Isolator {
            vantage_points,
            cfg: IsolatorConfig::default(),
        }
    }

    /// Destination address used for probing `dst`.
    fn dst_addr(dp: &DataPlane<'_>, dst: AsId) -> u32 {
        dp.prefix_of(dst)
            .map(|p| p.nth_addr(1))
            .unwrap_or_else(|| infra_addr(dst))
    }

    /// Reachability test with retries: does `target` answer pings from
    /// `from`?
    fn reachable(
        &self,
        dp: &DataPlane<'_>,
        prober: &mut Prober,
        now: Time,
        from: AsId,
        target: AsId,
    ) -> bool {
        for _ in 0..self.cfg.ping_retries.max(1) {
            if prober.ping(dp, now, from, infra_addr(target)).responded {
                return true;
            }
        }
        false
    }

    /// Isolate an outage between `src` (a vantage point we control) and
    /// `dst`.
    #[allow(clippy::too_many_arguments)]
    pub fn isolate(
        &self,
        dp: &DataPlane<'_>,
        prober: &mut Prober,
        atlas: &Atlas,
        resp: &ResponsivenessDb,
        now: Time,
        src: AsId,
        dst: AsId,
    ) -> IsolationReport {
        let before = prober.counters();
        let mut elapsed = 0u64;
        let dst_addr = Self::dst_addr(dp, dst);

        // Stage 0: plain traceroute — confirms the failure and feeds the
        // traceroute-only baseline for comparison.
        let tr = prober.traceroute(dp, now, src, dst_addr);
        let traceroute_blame = traceroute_only_blame(&tr);
        elapsed += self.cfg.traceroute_stage_ms;

        // Stage 1: direction isolation via spoofed pings.
        let vps: Vec<AsId> = self
            .vantage_points
            .iter()
            .copied()
            .filter(|v| *v != src && *v != dst)
            .take(self.cfg.max_vantage_points)
            .collect();
        let mut fwd_ok = false;
        let mut fwd_receiver: Option<AsId> = None;
        let mut rev_ok = false;
        for &v in &vps {
            if !fwd_ok && prober.spoofed_ping(dp, now, src, dst_addr, v).responded {
                fwd_ok = true;
                fwd_receiver = Some(v);
            }
            if !rev_ok && prober.spoofed_ping(dp, now, v, dst_addr, src).responded {
                rev_ok = true;
            }
            if fwd_ok && rev_ok {
                break;
            }
        }
        elapsed += self.cfg.direction_stage_ms;
        let direction = match (fwd_ok, rev_ok) {
            (true, true) => FailureDirection::NoFailure,
            (true, false) => FailureDirection::Reverse,
            (false, true) => FailureDirection::Forward,
            (false, false) => FailureDirection::Bidirectional,
        };
        if direction == FailureDirection::NoFailure {
            return IsolationReport {
                direction,
                blame: None,
                horizon: None,
                suspects: Vec::new(),
                working_path: None,
                traceroute_blame,
                probes_used: prober.counters().since(&before),
                elapsed_ms: elapsed,
            };
        }

        // Stage 2: measure the path in the working direction.
        let working_path: Option<Vec<RouterId>> = match direction {
            FailureDirection::Reverse => {
                // Spoofed traceroute: probes from src, responses to the
                // vantage point that proved the forward path works.
                fwd_receiver.map(|recv| {
                    let sp = prober.traceroute_to(dp, now, src, dst_addr, recv);
                    std::iter::once(RouterId::internal(src))
                        .chain(sp.hops.iter().filter(|h| h.responded).map(|h| h.router))
                        .collect()
                })
            }
            FailureDirection::Forward => {
                // Vantage-assisted reverse traceroute of the working reverse
                // direction (D back to S).
                vps.iter()
                    .find(|v| prober.ping(dp, now, **v, dst_addr).responded)
                    .and_then(|_| {
                        prober.charge_option_probes(35);
                        let w = dp.walk(now, dst, infra_addr(src));
                        w.outcome.delivered().then_some(w.hops)
                    })
            }
            _ => None,
        };
        elapsed += self.cfg.working_path_stage_ms;

        // Stage 3: test candidate hops in the failing direction.
        let mut candidates = atlas.candidate_ases(src, dst);
        for h in tr.responsive_as_path() {
            if !candidates.contains(&h) {
                candidates.push(h);
            }
        }
        if !candidates.contains(&dst) {
            candidates.push(dst);
        }
        candidates.retain(|c| *c != src);

        let mut reachable_set = Vec::new();
        let mut unreachable_meaningful = Vec::new();
        let mut excluded_silent = Vec::new();
        for &c in &candidates {
            if self.reachable(dp, prober, now, src, c) {
                reachable_set.push(c);
            } else if resp.silence_is_meaningful(c) {
                unreachable_meaningful.push(c);
                // Extra evidence: is the hop alive from elsewhere?
                for &v in vps.iter().take(2) {
                    if self.reachable(dp, prober, now, v, c) {
                        break;
                    }
                }
            } else {
                excluded_silent.push(c);
            }
        }
        elapsed += self.cfg.per_candidate_ms * candidates.len() as u64;

        // Reverse traceroutes from a few reachable hops refine the picture
        // (e.g. "NTT still used the same path towards GMU").
        for &h in reachable_set.iter().take(self.cfg.max_revtrs) {
            prober.reverse_traceroute(dp, now, src, h, true);
            elapsed += self.cfg.per_revtr_ms;
        }

        // Stage 4: prune and blame along historical paths.
        let (blame, horizon) = match direction {
            FailureDirection::Forward => {
                self.blame_forward(dp, prober, now, atlas, &tr, src, dst, &vps)
            }
            _ => self.blame_reverse(atlas, src, dst, &reachable_set, &unreachable_meaningful),
        };
        elapsed += self.cfg.prune_stage_ms;

        IsolationReport {
            direction,
            blame,
            horizon,
            suspects: unreachable_meaningful,
            working_path,
            traceroute_blame,
            probes_used: prober.counters().since(&before),
            elapsed_ms: elapsed,
        }
    }

    /// Reverse / bidirectional blame: the reachability-horizon scan.
    ///
    /// Walk historical reverse paths (newest first). Each records hops from
    /// `dst` toward `src`; scanning from the `src` end toward `dst`, the
    /// first hop that cannot reach `src` (and whose silence is meaningful)
    /// is the far side of the horizon and takes the blame.
    fn blame_reverse(
        &self,
        atlas: &Atlas,
        src: AsId,
        dst: AsId,
        reachable: &[AsId],
        unreachable: &[AsId],
    ) -> (Option<Blame>, Option<(AsId, AsId)>) {
        // When the newest path is fully healthy up to the destination
        // itself, the destination likely switched to another (broken) path
        // after the atlas was last refreshed — the §4.1.2 / §6 situation.
        // Remember such a "blame the destination" outcome but keep
        // analyzing older historical paths for a transit culprit first.
        type BlameAndHorizon = (Option<Blame>, Option<(AsId, AsId)>);
        let mut dst_fallback: Option<BlameAndHorizon> = None;
        for rec in atlas.history_newest_first(PathKind::Reverse, src, dst) {
            let path = rec.as_path(); // [dst, ..., src]
                                      // Scan from the src side toward dst.
            let mut last_reachable = src;
            for h in path.iter().rev() {
                if *h == src {
                    continue;
                }
                if reachable.contains(h) {
                    last_reachable = *h;
                    continue;
                }
                if unreachable.contains(h) {
                    if *h == dst {
                        dst_fallback
                            .get_or_insert((Some(Blame::As(dst)), Some((dst, last_reachable))));
                        break; // consult an older path for a transit culprit
                    }
                    return (Some(Blame::As(*h)), Some((*h, last_reachable)));
                }
                // Hop we could not classify (never answers probes): skip it
                // and keep scanning; if nothing conclusive, fall through to
                // an older path.
            }
        }
        if let Some(fb) = dst_fallback {
            return fb;
        }
        // No historical path was conclusive. If the destination itself is
        // among the meaningful unreachables, blame it; else give up.
        if unreachable.contains(&dst) {
            (Some(Blame::As(dst)), None)
        } else {
            (None, None)
        }
    }

    /// Forward blame: the failure lies just past the last responsive
    /// traceroute hop. The historical forward path names the next AS N; how
    /// the blame is pinned depends on what still works:
    ///
    /// * N answers pings from the source → N's own connectivity is fine, so
    ///   the failure is the boundary (the last hop's forwarding toward N —
    ///   possibly inside the last hop itself, scoped to this flow);
    /// * N is silent to the source but alive from other vantage points →
    ///   the boundary between the last hop and N has failed;
    /// * N is dead from everywhere → blame N outright.
    #[allow(clippy::too_many_arguments)]
    fn blame_forward(
        &self,
        dp: &DataPlane<'_>,
        prober: &mut Prober,
        now: Time,
        atlas: &Atlas,
        tr: &lg_probe::Traceroute,
        src: AsId,
        dst: AsId,
        vps: &[AsId],
    ) -> (Option<Blame>, Option<(AsId, AsId)>) {
        let last = match tr.last_responsive_as() {
            Some(l) => l,
            None => return (Some(Blame::As(dst)), None),
        };
        // Find the next AS after `last` on the latest historical forward
        // path.
        let next = atlas
            .latest(PathKind::Forward, src, dst)
            .map(|rec| rec.as_path())
            .and_then(|p| {
                p.iter()
                    .position(|h| *h == last)
                    .and_then(|i| p.get(i + 1).copied())
            });
        match next {
            Some(n) => {
                let from_src = self.reachable(dp, prober, now, src, n);
                let alive_elsewhere =
                    from_src || vps.iter().any(|v| self.reachable(dp, prober, now, *v, n));
                if from_src {
                    (Some(Blame::Link(last, n)), Some((last, n)))
                } else if alive_elsewhere {
                    (Some(Blame::Link(last, n)), Some((n, last)))
                } else {
                    (Some(Blame::As(n)), Some((n, last)))
                }
            }
            None => (Some(Blame::As(last)), None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lg_asmap::GraphBuilder;
    use lg_atlas::RefreshScheduler;
    use lg_sim::dataplane::infra_prefix;
    use lg_sim::failures::{Direction, Failure};
    use lg_sim::Network;

    /// A mesh rich enough for isolation: src stub S(0) under transit T1(1)
    /// under core C1(2); dst stub D(6) under transit T2(5) under core C2(4);
    /// cores peer; an extra transit path C1-M(3)-C2 gives alternates; VPs
    /// V1(7) under C1, V2(8) under C2.
    fn world() -> (Network, AsId, AsId, Vec<AsId>) {
        let mut g = GraphBuilder::with_ases(9);
        let (s, t1, c1, m, c2, t2, d, v1, v2) = (
            AsId(0),
            AsId(1),
            AsId(2),
            AsId(3),
            AsId(4),
            AsId(5),
            AsId(6),
            AsId(7),
            AsId(8),
        );
        g.provider_customer(t1, s);
        g.provider_customer(c1, t1);
        g.peer(c1, c2);
        g.provider_customer(c1, m);
        g.provider_customer(c2, m);
        g.provider_customer(c2, t2);
        g.provider_customer(t2, d);
        g.provider_customer(c1, v1);
        g.provider_customer(c2, v2);
        (Network::new(g.build()), s, d, vec![v1, v2])
    }

    struct Setup<'n> {
        dp: DataPlane<'n>,
        prober: Prober,
        atlas: Atlas,
        resp: ResponsivenessDb,
    }

    fn setup<'n>(net: &'n Network, src: AsId, dst: AsId) -> Setup<'n> {
        let dp = DataPlane::new(net);
        let mut prober = Prober::with_defaults();
        let mut atlas = Atlas::default();
        let mut resp = ResponsivenessDb::new();
        // Healthy-period atlas: monitor src<->dst plus every AS so the
        // responsiveness DB knows everyone answers.
        let mut pairs = vec![(src, dst)];
        for a in net.graph().ases() {
            if a != src {
                pairs.push((src, a));
            }
        }
        let mut sched = RefreshScheduler::new(pairs, 60_000);
        sched.refresh_due(&dp, &mut prober, &mut atlas, &mut resp, Time::ZERO);
        Setup {
            dp,
            prober,
            atlas,
            resp,
        }
    }

    #[test]
    fn reverse_failure_blamed_correctly() {
        let (net, s, d, vps) = world();
        let mut env = setup(&net, s, d);
        // Silent reverse failure: core C2 (AS4) drops traffic toward S's
        // prefix. Forward S->D is fine; reverse dies in C2.
        env.dp
            .failures_mut()
            .add(Failure::silent_as_toward(AsId(4), infra_prefix(s)));
        let iso = Isolator::new(vps);
        let report = iso.isolate(
            &env.dp,
            &mut env.prober,
            &env.atlas,
            &env.resp,
            Time::from_secs(100),
            s,
            d,
        );
        assert_eq!(report.direction, FailureDirection::Reverse);
        assert_eq!(report.blamed_as(), Some(AsId(4)), "report: {report:?}");
        // Traceroute alone would blame something else entirely.
        assert!(report.differs_from_traceroute(), "{report:?}");
        // The working (forward) path was measured.
        let wp = report.working_path.expect("working path measured");
        assert_eq!(wp.last().unwrap().owner, d);
        // Horizon identifies the boundary.
        let (far, near) = report.horizon.unwrap();
        assert_eq!(far, AsId(4));
        assert_ne!(near, far);
    }

    #[test]
    fn forward_failure_blamed_correctly() {
        let (net, s, d, vps) = world();
        let mut env = setup(&net, s, d);
        // Forward failure: C2 drops S's flow toward D's prefix (scoped to
        // the ingress from C1, so the outage is partial and other vantage
        // points still reach D).
        env.dp
            .failures_mut()
            .add(Failure::silent_as_toward(AsId(4), infra_prefix(d)).ingress_from(AsId(2)));
        let iso = Isolator::new(vps);
        let report = iso.isolate(
            &env.dp,
            &mut env.prober,
            &env.atlas,
            &env.resp,
            Time::from_secs(100),
            s,
            d,
        );
        assert_eq!(report.direction, FailureDirection::Forward);
        // The walk dies inside C2 after its ingress responded, so the blame
        // is C2 (at AS granularity, via the boundary toward its next hop).
        assert_eq!(report.blamed_as(), Some(AsId(4)), "report: {report:?}");
    }

    #[test]
    fn link_failure_blamed_at_boundary() {
        let (net, s, d, vps) = world();
        let mut env = setup(&net, s, d);
        // The C1->C2 link silently drops traffic toward D (forward
        // direction for S).
        env.dp.failures_mut().add(
            Failure::silent_link(AsId(2), AsId(4))
                .direction(Direction::AToB)
                .window(Time::ZERO, None),
        );
        let iso = Isolator::new(vps);
        let report = iso.isolate(
            &env.dp,
            &mut env.prober,
            &env.atlas,
            &env.resp,
            Time::from_secs(100),
            s,
            d,
        );
        assert_eq!(report.direction, FailureDirection::Forward);
        assert_eq!(report.blame, Some(Blame::Link(AsId(2), AsId(4))));
    }

    #[test]
    fn bidirectional_failure_detected() {
        let (net, s, d, vps) = world();
        let mut env = setup(&net, s, d);
        env.dp.failures_mut().add(Failure::silent_as(AsId(5)));
        let iso = Isolator::new(vps);
        let report = iso.isolate(
            &env.dp,
            &mut env.prober,
            &env.atlas,
            &env.resp,
            Time::from_secs(100),
            s,
            d,
        );
        assert_eq!(report.direction, FailureDirection::Bidirectional);
        assert_eq!(report.blamed_as(), Some(AsId(5)), "report: {report:?}");
    }

    #[test]
    fn no_failure_short_circuits() {
        let (net, s, d, vps) = world();
        let mut env = setup(&net, s, d);
        let iso = Isolator::new(vps);
        let report = iso.isolate(
            &env.dp,
            &mut env.prober,
            &env.atlas,
            &env.resp,
            Time::from_secs(100),
            s,
            d,
        );
        assert_eq!(report.direction, FailureDirection::NoFailure);
        assert!(report.blame.is_none());
    }

    #[test]
    fn elapsed_time_matches_paper_scale() {
        // Reverse isolations should land in the low hundreds of seconds
        // (the paper reports a 140 s average).
        let (net, s, d, vps) = world();
        let mut env = setup(&net, s, d);
        env.dp
            .failures_mut()
            .add(Failure::silent_as_toward(AsId(4), infra_prefix(s)));
        let iso = Isolator::new(vps);
        let report = iso.isolate(
            &env.dp,
            &mut env.prober,
            &env.atlas,
            &env.resp,
            Time::from_secs(100),
            s,
            d,
        );
        let secs = report.elapsed_ms / 1000;
        assert!((60..=300).contains(&secs), "elapsed {secs}s");
        // Probe budget should be on the order of a few hundred packets.
        assert!(report.probes_used.total() < 1000);
        assert!(report.probes_used.total() > 10);
    }

    /// Direct tests of the reachability-horizon scan over handcrafted
    /// atlas histories (the §4.1.2 pruning rules, including the §6-style
    /// case where the destination switched to an older, broken path after
    /// the last atlas refresh).
    mod blame_reverse_scan {
        use super::*;
        use lg_asmap::RouterId;
        use lg_atlas::{PathKind, PathRecord};

        const SRC: AsId = AsId(0);
        const DST: AsId = AsId(9);

        fn record(atlas: &mut Atlas, at_secs: u64, hops: &[u32]) {
            // Router-level reverse path [dst, ..., src].
            let routers: Vec<RouterId> = hops
                .windows(2)
                .map(|w| RouterId::border(AsId(w[1]), AsId(w[0])))
                .collect();
            let mut full = vec![RouterId::internal(AsId(hops[0]))];
            full.extend(routers);
            atlas.record(
                PathKind::Reverse,
                SRC,
                DST,
                PathRecord {
                    measured_at: lg_sim::Time::from_secs(at_secs),
                    hops: full,
                },
            );
        }

        fn iso() -> Isolator {
            Isolator::new(vec![])
        }

        #[test]
        fn horizon_on_newest_path() {
            let mut atlas = Atlas::default();
            // Reverse path 9 -> 5 -> 3 -> 0.
            record(&mut atlas, 10, &[9, 5, 3, 0]);
            let (blame, horizon) =
                iso().blame_reverse(&atlas, SRC, DST, &[AsId(3)], &[AsId(5), AsId(9)]);
            assert_eq!(blame, Some(Blame::As(AsId(5))));
            assert_eq!(horizon, Some((AsId(5), AsId(3))));
        }

        #[test]
        fn healthy_newest_path_falls_back_to_older_one() {
            // The §6 shape: the newest recorded path (via 5) is entirely
            // healthy, but the destination silently switched to the older
            // path via 7, which is broken.
            let mut atlas = Atlas::default();
            record(&mut atlas, 10, &[9, 7, 3, 0]); // older, via AS7
            record(&mut atlas, 20, &[9, 5, 3, 0]); // newest, via AS5
            let reachable = [AsId(3), AsId(5)];
            let unreachable = [AsId(7), AsId(9)];
            let (blame, horizon) = iso().blame_reverse(&atlas, SRC, DST, &reachable, &unreachable);
            assert_eq!(
                blame,
                Some(Blame::As(AsId(7))),
                "older path names the culprit"
            );
            assert_eq!(horizon, Some((AsId(7), AsId(3))));
        }

        #[test]
        fn destination_blamed_only_as_last_resort() {
            let mut atlas = Atlas::default();
            record(&mut atlas, 20, &[9, 5, 3, 0]);
            // Everything reachable except the destination itself.
            let (blame, horizon) =
                iso().blame_reverse(&atlas, SRC, DST, &[AsId(3), AsId(5)], &[AsId(9)]);
            assert_eq!(blame, Some(Blame::As(DST)));
            assert_eq!(horizon, Some((DST, AsId(5))));
        }

        #[test]
        fn never_responsive_hops_are_skipped() {
            let mut atlas = Atlas::default();
            record(&mut atlas, 20, &[9, 7, 5, 3, 0]);
            // AS5 is unclassifiable (in neither set); AS7 is the horizon.
            let (blame, _) = iso().blame_reverse(&atlas, SRC, DST, &[AsId(3)], &[AsId(7), AsId(9)]);
            assert_eq!(blame, Some(Blame::As(AsId(7))));
        }

        #[test]
        fn no_history_no_blame() {
            let atlas = Atlas::default();
            let (blame, horizon) = iso().blame_reverse(&atlas, SRC, DST, &[], &[AsId(5)]);
            assert_eq!(blame, None);
            assert_eq!(horizon, None);
        }
    }

    #[test]
    fn unresponsive_hop_is_not_blamed() {
        let (net, s, d, vps) = world();
        // C2 never answers probes (configured silent): with a reverse
        // failure *beyond* it (in T2), blame must skip C2 and land on T2.
        let mut dp = DataPlane::new(&net);
        let mut prober = Prober::with_defaults();
        prober.set_unresponsive(AsId(4));
        let mut atlas = Atlas::default();
        let mut resp = ResponsivenessDb::new();
        let mut pairs = vec![(s, d)];
        for a in net.graph().ases() {
            if a != s {
                pairs.push((s, a));
            }
        }
        let mut sched = RefreshScheduler::new(pairs, 60_000);
        sched.refresh_due(&dp, &mut prober, &mut atlas, &mut resp, Time::ZERO);
        // Now the reverse failure in T2 (AS5) toward S.
        dp.failures_mut()
            .add(Failure::silent_as_toward(AsId(5), infra_prefix(s)));
        let iso = Isolator::new(vps);
        let report = iso.isolate(&dp, &mut prober, &atlas, &resp, Time::from_secs(100), s, d);
        assert_eq!(report.direction, FailureDirection::Reverse);
        assert_eq!(report.blamed_as(), Some(AsId(5)), "report: {report:?}");
        assert!(
            !report.suspects.contains(&AsId(4)),
            "silent C2 must not be a suspect"
        );
    }
}
