//! Traceroute-only localization baseline (§5.3).
//!
//! What an operator without LIFEGUARD does: run a traceroute, blame the
//! network where it dies. Under forward failures this is often right; under
//! reverse-path failures the traceroute terminates wherever responses stop
//! coming *home*, implicating an innocent forward-path AS (Fig 4).

use lg_asmap::AsId;
use lg_probe::Traceroute;

/// The AS a traceroute-only diagnosis blames: the last responsive hop's AS
/// (operators usually read the failure as "just past the last hop I can
/// see", but without the atlas they cannot name the next AS, so the
/// terminating AS is what gets reported — as in the Fig 4 example, where
/// the traceroute "suggests the problem is between TransTelecom and
/// ZSTTK").
pub fn traceroute_only_blame(tr: &Traceroute) -> Option<AsId> {
    if tr.reached_destination {
        return None;
    }
    tr.last_responsive_as()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lg_asmap::{GraphBuilder, RouterId};
    use lg_probe::{Prober, TrbHop};
    use lg_sim::dataplane::DataPlane;
    use lg_sim::Time;

    #[test]
    fn blames_last_responsive_hop() {
        let tr = Traceroute {
            hops: vec![
                TrbHop {
                    router: RouterId::border(AsId(1), AsId(0)),
                    responded: true,
                },
                TrbHop {
                    router: RouterId::border(AsId(2), AsId(1)),
                    responded: false,
                },
            ],
            reached_destination: false,
        };
        assert_eq!(traceroute_only_blame(&tr), Some(AsId(1)));
    }

    #[test]
    fn no_blame_when_destination_reached() {
        let tr = Traceroute {
            hops: vec![TrbHop {
                router: RouterId::border(AsId(1), AsId(0)),
                responded: true,
            }],
            reached_destination: true,
        };
        assert_eq!(traceroute_only_blame(&tr), None);
    }

    #[test]
    fn baseline_misblames_reverse_failure() {
        use lg_sim::dataplane::{infra_addr, infra_prefix};
        use lg_sim::failures::Failure;
        use lg_sim::Network;
        // Line 0-1-2-3; reverse failure in AS2 toward AS0's prefix. The
        // true culprit is AS2 but traceroute stops at AS1.
        let mut g = GraphBuilder::with_ases(4);
        g.provider_customer(AsId(1), AsId(0));
        g.provider_customer(AsId(2), AsId(1));
        g.provider_customer(AsId(3), AsId(2));
        let net = Network::new(g.build());
        let mut dp = DataPlane::new(&net);
        dp.failures_mut()
            .add(Failure::silent_as_toward(AsId(2), infra_prefix(AsId(0))));
        let mut prober = Prober::with_defaults();
        let tr = prober.traceroute(&dp, Time::ZERO, AsId(0), infra_addr(AsId(3)));
        let blame = traceroute_only_blame(&tr);
        assert_eq!(blame, Some(AsId(1)), "baseline blames the wrong AS");
    }
}
