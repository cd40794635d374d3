//! Repair planning: whether and how to poison (§4.2, §3.1).
//!
//! Given an isolation blame, the planner produces the announcement that
//! implements `AVOID_PROBLEM(X, P)`:
//!
//! * it predicts *a priori* — by computing the post-poison routing fixed
//!   point over the known topology, the same simulation methodology the
//!   paper validates at 92.5% agreement against live poisonings — whether
//!   the monitored target would retain a route, and refuses to poison when
//!   no alternate policy-compliant path exists;
//! * it discovers leniently configured ASes (§7.1: accept one occurrence of
//!   their own ASN) by checking whether a single poison actually removes
//!   the AS's route in the predicted fixed point, and doubles the poison
//!   when needed;
//! * for link blames it searches for a *selective* poisoning (§3.1.2):
//!   poison via a subset of providers so the blamed AS sheds only the
//!   failing link while keeping a working route.

use crate::config::LifeguardConfig;
use lg_asmap::AsId;
use lg_locate::Blame;
use lg_sim::{effective_path, AnnouncementSpec, Network, SharedRouteCache};
use lg_telemetry::trace;

/// A concrete repair: the announcement to make and what it should achieve.
#[derive(Clone, Debug)]
pub struct RepairPlan {
    /// The new production announcement.
    pub spec: AnnouncementSpec,
    /// The AS inserted into the path.
    pub poisoned: AsId,
    /// Number of copies of the poisoned AS (2 for lenient loop detection).
    pub poison_copies: usize,
    /// Whether the poison is selective (differs per provider).
    pub selective: bool,
}

fn providers_of(net: &Network, cfg: &LifeguardConfig) -> Vec<AsId> {
    if cfg.providers.is_empty() {
        net.graph()
            .neighbors(cfg.origin)
            .iter()
            .map(|(n, _)| *n)
            .collect()
    } else {
        cfg.providers.clone()
    }
}

/// Does the repair announcement survive import at at least one provider?
///
/// A poisoned path can trip the *providers' own* filters before it ever
/// propagates: the split origin `O-A-O` is exactly the signature a
/// poisoned-announcement drop matches, a doubled poison (`O-A-A-O`, for
/// lenient loop detection) can exceed a provider's max-path-length cap,
/// and an unlucky culprit ASN can hit a reserved-ASN drop. When *every*
/// provider rejects the seed the repair never enters the routing system
/// at all; that is a different failure from "no alternate path exists"
/// and the operator needs to know which one happened.
fn providers_accept(net: &Network, spec: &AnnouncementSpec) -> Result<(), String> {
    let mut rejections = Vec::new();
    for (nbr, path) in &spec.seeds {
        let Some(rel) = net.graph().relationship(*nbr, spec.origin) else {
            continue;
        };
        match net
            .policy(*nbr)
            .evaluate(*nbr, net.peers_of(*nbr), rel, path)
        {
            None => return Ok(()),
            Some(reason) => rejections.push(format!("{nbr} ({reason:?})")),
        }
    }
    Err(format!(
        "repair announcement filtered at every provider: {}",
        rejections.join(", ")
    ))
}

/// Can `target` actually deliver traffic to the origin while avoiding
/// `culprit`, in the predicted post-repair fixed point? Checks the
/// data-plane chain ([`effective_path`]), not mere route presence: a
/// target whose BGP route vanished may still forward over default routes
/// (and then the repair works), or may forward *into the culprit* over a
/// default route (and then the repair silently fails — Smith et al.'s
/// default-route throttling of poisoning).
fn target_repaired(
    net: &Network,
    table: &lg_sim::RouteTable,
    target: AsId,
    culprit: AsId,
) -> Result<(), String> {
    match effective_path(net, table, target) {
        None => Err(format!(
            "no alternate policy-compliant path for {target} avoiding {culprit}"
        )),
        Some(path) if path.contains(&culprit) => Err(format!(
            "{target} still forwards through {culprit} over a default route; \
             poisoning cannot repair it"
        )),
        Some(_) => Ok(()),
    }
}

/// Plan a repair for `target` given `blame`. Returns `Err(reason)` when
/// poisoning should not be attempted.
pub fn plan_repair(
    net: &Network,
    cfg: &LifeguardConfig,
    blame: Blame,
    target: AsId,
) -> Result<RepairPlan, String> {
    plan_repair_cached(net, cfg, blame, target, &SharedRouteCache::new())
}

/// [`plan_repair`] against a shared table cache: the running system plans
/// repeatedly over one (unchanging) network, so the predicted fixed points
/// — often the same specs across outages and ticks — memoize well, and the
/// cache lets concurrent systems on one topology share them.
pub fn plan_repair_cached(
    net: &Network,
    cfg: &LifeguardConfig,
    blame: Blame,
    target: AsId,
    cache: &SharedRouteCache,
) -> Result<RepairPlan, String> {
    let culprit = blame.poison_target();
    if culprit == cfg.origin {
        return Err("failure is in our own network; fix locally".into());
    }
    if culprit == target {
        return Err("failure is inside the destination AS; poisoning cannot help".into());
    }
    let providers = providers_of(net, cfg);
    if providers.contains(&culprit) && providers.len() == 1 {
        return Err("culprit is our only provider; poisoning would cut us off".into());
    }

    // Selective poisoning first when the blame is a link and we have the
    // provider diversity for it.
    if let Blame::Link(a, b) = blame {
        if providers.len() >= 2 {
            if let Some(plan) = try_selective(net, cfg, &providers, a, b, target, cache) {
                return Ok(plan);
            }
        }
    }

    // Global poison; discover the needed poison count (1, or 2 for lenient
    // loop detection) from the predicted fixed point.
    for copies in 1..=2usize {
        let poisons = vec![culprit; copies];
        let spec = AnnouncementSpec::via(
            cfg.production,
            cfg.origin,
            lg_bgp::AsPath::poisoned(cfg.origin, &poisons),
            &providers,
        );
        let table = cache.compute(net, &spec);
        if table.has_route(culprit) {
            // Poison did not stick (lenient loop detection): double it.
            if trace::enabled() {
                trace::annot_str(
                    "plan.candidate_rejected",
                    &format!("global x{copies}: poison did not stick at {culprit}"),
                );
            }
            continue;
        }
        if let Err(e) = providers_accept(net, &spec) {
            trace::annot_str("plan.candidate_rejected", &e);
            return Err(e);
        }
        if let Err(e) = target_repaired(net, &table, target, culprit) {
            trace::annot_str("plan.candidate_rejected", &e);
            return Err(e);
        }
        if trace::enabled() {
            trace::annot_str(
                "plan.accepted",
                &format!("global x{copies} poison of {culprit}"),
            );
        }
        return Ok(RepairPlan {
            spec,
            poisoned: culprit,
            poison_copies: copies,
            selective: false,
        });
    }
    let reason = format!("{culprit} accepts paths containing itself; poison cannot stick");
    trace::annot_str("plan.candidate_rejected", &reason);
    Err(reason)
}

/// Search for a selective poisoning that steers `a` off the link `a`-`b`
/// without cutting `a` (or the target) off: poison `a` on announcements via
/// some providers, announce clean via the rest, and accept the first
/// configuration whose predicted fixed point has `a` routed around `b`.
fn try_selective(
    net: &Network,
    cfg: &LifeguardConfig,
    providers: &[AsId],
    a: AsId,
    b: AsId,
    target: AsId,
    cache: &SharedRouteCache,
) -> Option<RepairPlan> {
    // Candidate poison_via sets: each single provider, then each
    // complement-of-one (poison everywhere except one provider).
    let mut candidates: Vec<Vec<AsId>> = providers.iter().map(|p| vec![*p]).collect();
    if providers.len() > 2 {
        for keep_clean in providers {
            candidates.push(
                providers
                    .iter()
                    .copied()
                    .filter(|p| p != keep_clean)
                    .collect(),
            );
        }
    }
    for poison_via in candidates {
        // Per-candidate reject reasons go to the flight recorder so a
        // trace answers "why was selective poisoning skipped here?".
        let reject = |why: &str| {
            if trace::enabled() {
                trace::annot_str(
                    "plan.selective_rejected",
                    &format!("via {poison_via:?}: {why}"),
                );
            }
        };
        let spec =
            AnnouncementSpec::selective_poison(net, cfg.production, cfg.origin, &[a], &poison_via);
        let table = cache.compute(net, &spec);
        let Some(a_path) = table.as_path(a) else {
            reject("culprit lost its route entirely");
            continue; // a lost its route entirely: not selective enough
        };
        // a must now route around the failing link: its path no longer
        // crosses b.
        if a_path.contains(&b) {
            reject("culprit still routes across the failed link");
            continue;
        }
        // The *target's* forwarding chain must avoid the failed link too.
        // Steering `a` off `a`-`b` does not stop the target from reaching
        // the origin over the dead adjacency from the other side (e.g. via
        // `b`'s customer-cone route through `a`), and route presence alone
        // cannot see that: the selective plan would predict success while
        // the target's traffic dies on the failed link.
        let Some(t_path) = effective_path(net, &table, target) else {
            reject("no effective path for the target");
            continue;
        };
        if t_path
            .windows(2)
            .any(|w| (w[0] == a && w[1] == b) || (w[0] == b && w[1] == a))
        {
            reject("target still forwards over the failed link");
            continue;
        }
        if trace::enabled() {
            trace::annot_str(
                "plan.accepted",
                &format!("selective poison of {a} via {poison_via:?}"),
            );
        }
        return Some(RepairPlan {
            spec,
            poisoned: a,
            poison_copies: 1,
            selective: true,
        });
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SentinelStrategy;
    use lg_asmap::GraphBuilder;
    use lg_bgp::{ImportPolicy, LoopDetection, Prefix};
    use lg_sim::compute_routes;

    fn pfx() -> Prefix {
        Prefix::from_octets(184, 164, 224, 0, 20)
    }

    fn cfg(origin: AsId, providers: Vec<AsId>) -> LifeguardConfig {
        let mut c = LifeguardConfig::paper_defaults(
            origin,
            pfx(),
            Prefix::from_octets(184, 164, 224, 0, 19),
        );
        c.providers = providers;
        c
    }

    /// Fig 2-like: O(0) under B(2); B under C(3) and A(1); C under D(4); A
    /// and D under E(5); F(6) under A.
    fn fig2() -> Network {
        let mut g = GraphBuilder::with_ases(7);
        g.provider_customer(AsId(2), AsId(0));
        g.provider_customer(AsId(3), AsId(2));
        g.provider_customer(AsId(1), AsId(2));
        g.provider_customer(AsId(4), AsId(3));
        g.provider_customer(AsId(5), AsId(1));
        g.provider_customer(AsId(5), AsId(4));
        g.provider_customer(AsId(6), AsId(1));
        Network::new(g.build())
    }

    #[test]
    fn global_poison_with_alternate_path() {
        let net = fig2();
        let c = cfg(AsId(0), vec![]);
        let plan = plan_repair(&net, &c, Blame::As(AsId(1)), AsId(5)).unwrap();
        assert_eq!(plan.poisoned, AsId(1));
        assert_eq!(plan.poison_copies, 1);
        assert!(!plan.selective);
        let table = compute_routes(&net, &plan.spec);
        assert!(!table.has_route(AsId(1)));
        assert!(table.has_route(AsId(5)), "E rerouted via D");
    }

    #[test]
    fn refuses_when_target_captive() {
        // F(6) is captive behind A(1): no poison can restore it.
        let net = fig2();
        let c = cfg(AsId(0), vec![]);
        let err = plan_repair(&net, &c, Blame::As(AsId(1)), AsId(6)).unwrap_err();
        assert!(err.contains("no alternate"), "{err}");
    }

    #[test]
    fn refuses_culprit_in_destination() {
        let net = fig2();
        let c = cfg(AsId(0), vec![]);
        assert!(plan_repair(&net, &c, Blame::As(AsId(5)), AsId(5)).is_err());
    }

    #[test]
    fn refuses_sole_provider() {
        let net = fig2();
        let c = cfg(AsId(0), vec![AsId(2)]);
        let err = plan_repair(&net, &c, Blame::As(AsId(2)), AsId(5)).unwrap_err();
        assert!(err.contains("only provider"), "{err}");
    }

    #[test]
    fn doubles_poison_for_lenient_loop_detection() {
        let mut net = fig2();
        net.set_policy(
            AsId(1),
            ImportPolicy {
                loop_detection: LoopDetection::max_occurrences(1),
                ..ImportPolicy::standard()
            },
        );
        let c = cfg(AsId(0), vec![]);
        let plan = plan_repair(&net, &c, Blame::As(AsId(1)), AsId(5)).unwrap();
        assert_eq!(plan.poison_copies, 2);
        let table = compute_routes(&net, &plan.spec);
        assert!(!table.has_route(AsId(1)));
    }

    #[test]
    fn gives_up_when_loop_detection_disabled() {
        let mut net = fig2();
        net.set_policy(
            AsId(1),
            ImportPolicy {
                loop_detection: LoopDetection::disabled(),
                ..ImportPolicy::standard()
            },
        );
        let c = cfg(AsId(0), vec![]);
        let err = plan_repair(&net, &c, Blame::As(AsId(1)), AsId(5)).unwrap_err();
        assert!(err.contains("cannot stick"), "{err}");
    }

    /// Fig 3 world: O(0) with providers D1(1), D2(2); B1(3) over D1, B2(4)
    /// over D2; A(5) over both B1 and B2; C3(6) behind A.
    fn fig3() -> Network {
        let mut g = GraphBuilder::with_ases(7);
        g.provider_customer(AsId(1), AsId(0));
        g.provider_customer(AsId(2), AsId(0));
        g.provider_customer(AsId(3), AsId(1));
        g.provider_customer(AsId(4), AsId(2));
        g.provider_customer(AsId(5), AsId(3));
        g.provider_customer(AsId(5), AsId(4));
        g.provider_customer(AsId(6), AsId(5));
        Network::new(g.build())
    }

    #[test]
    fn selective_poison_avoids_link_keeping_a_routed() {
        let net = fig3();
        let c = cfg(AsId(0), vec![AsId(1), AsId(2)]);
        // Blame the link A(5)-B2(4).
        let plan = plan_repair(&net, &c, Blame::Link(AsId(5), AsId(4)), AsId(6)).unwrap();
        assert!(plan.selective);
        let table = compute_routes(&net, &plan.spec);
        // A keeps a route, now via B1, and so does its captive C3.
        let a_path = table.as_path(AsId(5)).unwrap();
        assert!(!a_path.contains(&AsId(4)), "A must avoid B2: {a_path:?}");
        assert!(a_path.contains(&AsId(3)), "A now routes via B1: {a_path:?}");
        assert!(table.has_route(AsId(6)));
        // B2 itself keeps its (clean) route via D2.
        assert_eq!(table.next_hop(AsId(4)), Some(AsId(2)));
    }

    #[test]
    fn selective_falls_back_to_global_without_disjoint_paths() {
        // Single-provider topology: selective impossible; link blame should
        // fall back to a global poison of A if alternates exist, or error.
        let net = fig2();
        let c = cfg(AsId(0), vec![AsId(2)]);
        // Culprit A(1)-E(5) link; only provider is B(2): global poison of A.
        let plan = plan_repair(&net, &c, Blame::Link(AsId(1), AsId(5)), AsId(5));
        // Global poison of A restores E via D.
        let plan = plan.unwrap();
        assert!(!plan.selective);
        assert_eq!(plan.poisoned, AsId(1));
    }

    #[test]
    fn surfaces_repair_filtered_at_every_provider() {
        // Poison-drop filters at both providers: the split-origin repair
        // announcement never enters the routing system. The planner must
        // say *that*, not the misleading "no alternate path".
        let mut net = fig3();
        for p in [AsId(1), AsId(2)] {
            net.set_policy(
                p,
                ImportPolicy {
                    drop_poisoned: true,
                    ..ImportPolicy::standard()
                },
            );
        }
        let c = cfg(AsId(0), vec![AsId(1), AsId(2)]);
        let err = plan_repair(&net, &c, Blame::As(AsId(3)), AsId(5)).unwrap_err();
        assert!(err.contains("filtered at every provider"), "{err}");
        assert!(err.contains("Poisoned"), "{err}");
    }

    #[test]
    fn cap_blocks_doubled_poison_and_is_reported() {
        // A lenient culprit (§7.1) needs the doubled poison O-A-A-O, but
        // that path is one hop longer than the single poison — and here it
        // exceeds the sole provider's max-path-length cap. The cap must not
        // pass unnoticed: the planner reports the repair as filtered.
        let mut net = fig2();
        net.set_policy(
            AsId(1),
            ImportPolicy {
                loop_detection: LoopDetection::max_occurrences(1),
                ..ImportPolicy::standard()
            },
        );
        net.set_policy(
            AsId(2),
            ImportPolicy {
                max_path_len: Some(3),
                ..ImportPolicy::standard()
            },
        );
        let c = cfg(AsId(0), vec![]);
        let err = plan_repair(&net, &c, Blame::As(AsId(1)), AsId(5)).unwrap_err();
        assert!(err.contains("filtered at every provider"), "{err}");
        assert!(err.contains("PathLenCap"), "{err}");
    }

    #[test]
    fn selective_plan_must_keep_target_off_the_failed_link() {
        // O(0) multihomed under X(1) and A(2); B(3) above A; T(4) behind B;
        // Top(5) above X and B. The A-B link fails, target is T.
        //
        // Poisoning A via X only looks selective-perfect: A keeps its
        // direct customer route to O (avoiding B), and T still *has* a
        // route — but that route is B's customer-cone path through A, so
        // T's traffic crosses the dead A-B link. The planner must reject
        // that candidate and fall back to the global poison, which reroutes
        // T via Top - X.
        let mut g = GraphBuilder::with_ases(6);
        g.provider_customer(AsId(1), AsId(0));
        g.provider_customer(AsId(2), AsId(0));
        g.provider_customer(AsId(3), AsId(2));
        g.provider_customer(AsId(3), AsId(4));
        g.provider_customer(AsId(5), AsId(1));
        g.provider_customer(AsId(5), AsId(3));
        let net = Network::new(g.build());
        let c = cfg(AsId(0), vec![AsId(1), AsId(2)]);
        let plan = plan_repair(&net, &c, Blame::Link(AsId(2), AsId(3)), AsId(4)).unwrap();
        assert!(
            !plan.selective,
            "selective plan would leave T forwarding over the dead link"
        );
        assert_eq!(plan.poisoned, AsId(2));
        let table = compute_routes(&net, &plan.spec);
        assert!(!table.has_route(AsId(2)));
        let t_path = effective_path(&net, &table, AsId(4)).unwrap();
        assert_eq!(
            t_path,
            vec![AsId(4), AsId(3), AsId(5), AsId(1), AsId(0)],
            "T reroutes around the failure via Top and X"
        );
    }

    #[test]
    fn default_route_into_culprit_is_a_failed_repair() {
        // O(0) under P1(1) and P2(2); culprit C(3) above P1; stub T(4)
        // under C; Top(5) above C and P2. T defaults at C and C defaults
        // up to Top. Poisoning C removes every BGP route through it, but
        // T's *traffic* still enters C on the default chain — the repair
        // does not restore T and must not be reported as a success.
        let mut g = GraphBuilder::with_ases(6);
        g.provider_customer(AsId(1), AsId(0));
        g.provider_customer(AsId(2), AsId(0));
        g.provider_customer(AsId(3), AsId(1));
        g.provider_customer(AsId(3), AsId(4));
        g.provider_customer(AsId(5), AsId(3));
        g.provider_customer(AsId(5), AsId(2));
        let mut net = Network::new(g.build());
        for a in [AsId(3), AsId(4)] {
            net.set_policy(
                a,
                ImportPolicy {
                    default_route: true,
                    ..ImportPolicy::standard()
                },
            );
        }
        let c = cfg(AsId(0), vec![AsId(1), AsId(2)]);
        let err = plan_repair(&net, &c, Blame::As(AsId(3)), AsId(4)).unwrap_err();
        assert!(err.contains("still forwards through"), "{err}");
        assert!(err.contains("default route"), "{err}");
    }

    #[test]
    fn default_route_chain_can_rescue_a_repair() {
        // G(7) under D(4) drops poisoned announcements, so it (and its stub
        // T(8)) holds no BGP route for the repaired prefix. But both point
        // defaults upward, and the default chain reaches D's repaired route
        // without touching the culprit C(3): the repair *works* on the data
        // plane. Requiring `has_route` would wrongly refuse it.
        let mut g = GraphBuilder::with_ases(9);
        g.provider_customer(AsId(2), AsId(0));
        g.provider_customer(AsId(3), AsId(2));
        g.provider_customer(AsId(1), AsId(2));
        g.provider_customer(AsId(4), AsId(3));
        g.provider_customer(AsId(5), AsId(1));
        g.provider_customer(AsId(5), AsId(4));
        g.provider_customer(AsId(6), AsId(1));
        g.provider_customer(AsId(4), AsId(7));
        g.provider_customer(AsId(7), AsId(8));
        let mut net = Network::new(g.build());
        net.set_policy(
            AsId(7),
            ImportPolicy {
                drop_poisoned: true,
                default_route: true,
                ..ImportPolicy::standard()
            },
        );
        net.set_policy(
            AsId(8),
            ImportPolicy {
                default_route: true,
                ..ImportPolicy::standard()
            },
        );
        let c = cfg(AsId(0), vec![]);
        let plan = plan_repair(&net, &c, Blame::As(AsId(3)), AsId(8)).unwrap();
        assert!(!plan.selective);
        assert_eq!(plan.poisoned, AsId(3));
        let table = compute_routes(&net, &plan.spec);
        assert!(!table.has_route(AsId(8)), "T holds no BGP route");
        let t_path = effective_path(&net, &table, AsId(8)).unwrap();
        assert!(
            !t_path.contains(&AsId(3)),
            "default chain avoids the culprit: {t_path:?}"
        );
    }

    #[test]
    fn sentinel_strategy_is_not_part_of_repair_spec() {
        // The production spec must target only the production prefix.
        let net = fig2();
        let c = cfg(AsId(0), vec![]);
        let plan = plan_repair(&net, &c, Blame::As(AsId(1)), AsId(5)).unwrap();
        assert_eq!(plan.spec.prefix, c.production);
        assert!(matches!(c.sentinel, SentinelStrategy::LessSpecific { .. }));
    }
}
