//! The scenario world: everything LIFEGUARD interacts with, bundled.

use lg_asmap::AsId;
use lg_atlas::{Atlas, RefreshScheduler, ResponsivenessDb};
use lg_probe::Prober;
use lg_sim::dataplane::{infra_addr, walk_fib, DataPlane};
use lg_sim::failures::FailureSet;
use lg_sim::{Network, Time};

/// A simulated deployment environment: the data plane (control +
/// forwarding), the prober, and the measurement state LIFEGUARD maintains.
pub struct World<'n> {
    /// Control and data plane.
    pub dp: DataPlane<'n>,
    /// Measurement issuer.
    pub prober: Prober,
    /// Background path atlas.
    pub atlas: Atlas,
    /// Learned responsiveness.
    pub resp: ResponsivenessDb,
}

impl<'n> World<'n> {
    /// Fresh world over `net`. Computes nothing: every AS's infra prefix is
    /// routed by the data plane on first use.
    pub fn new(net: &'n Network) -> Self {
        World {
            dp: DataPlane::new(net),
            prober: Prober::with_defaults(),
            atlas: Atlas::default(),
            resp: ResponsivenessDb::new(),
        }
    }

    /// The ASes [`Self::warm_atlas`] measures for vantage `src`: `dsts`,
    /// then, in id order, every other AS on the failure-free forward path
    /// from `src` to a dst or the reverse path back. These are all the ASes
    /// isolation can test for a monitored dst — the atlas's recorded paths,
    /// the traceroute's hops and the dst itself.
    pub fn warm_set(&self, src: AsId, dsts: &[AsId]) -> Vec<AsId> {
        let (net, none) = (self.dp.network(), FailureSet::none());
        let walk = |from, to| walk_fib(net, &self.dp, &none, Time::ZERO, from, infra_addr(to));
        let mut hops: Vec<AsId> = dsts
            .iter()
            .flat_map(|d| {
                let (fwd, rev) = (walk(src, *d), walk(*d, src));
                fwd.as_hops().into_iter().chain(rev.as_hops())
            })
            .filter(|a| *a != src && !dsts.contains(a))
            .collect();
        hops.sort_unstable();
        hops.dedup();
        dsts.iter().copied().chain(hops).collect()
    }

    /// Warm the atlas for vantage `src` against `dsts`, and responsiveness
    /// history for every AS on their paths (see [`Self::warm_set`]), as a
    /// healthy monitoring period would.
    pub fn warm_atlas(&mut self, src: AsId, dsts: &[AsId], now: Time) {
        let pairs = self
            .warm_set(src, dsts)
            .into_iter()
            .map(|d| (src, d))
            .collect();
        let mut sched = RefreshScheduler::new(pairs, 60_000);
        sched.refresh_due(
            &self.dp,
            &mut self.prober,
            &mut self.atlas,
            &mut self.resp,
            now,
        );
    }
}
