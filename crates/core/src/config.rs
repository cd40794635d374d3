//! System configuration.
//!
//! The paper's operating points are constants: every deployment and every
//! experiment runs them unchanged. [`LifeguardConfig`] holds only what
//! differs between deployments.

use lg_asmap::AsId;
use lg_bgp::Prefix;

/// Monitoring ping-pair interval (ms); the paper uses 30 s.
pub const PING_INTERVAL_MS: u64 = 30_000;

/// Consecutive failed ping pairs that declare an outage (paper: 4, so the
/// minimum detectable outage is 90 s).
pub const OUTAGE_THRESHOLD: u32 = 4;

/// Copies of the origin in the steady-state baseline (paper: 3 → `O-O-O`).
pub const PREPEND_COPIES: usize = 3;

/// Modeled BGP convergence delay after a poisoned announcement (ms); §5.2
/// measures ~91 s median global convergence with prepending.
pub const CONVERGENCE_MS: u64 = 91_000;

/// Interval between sentinel repair checks while poisoned (ms).
pub const SENTINEL_CHECK_INTERVAL_MS: u64 = 120_000;

/// How long to wait before re-examining a target declared unfixable (ms).
pub const UNFIXABLE_RETRY_MS: u64 = 600_000;

/// Configuration of one LIFEGUARD instance.
#[derive(Clone, Debug)]
pub struct LifeguardConfig {
    /// The edge AS running the system.
    pub origin: AsId,
    /// The production prefix carrying real traffic.
    pub production: Prefix,
    /// The sentinel (§4.2): a less-specific prefix covering production plus
    /// unused space. Captive ASes keep a backup route through it, and repair
    /// pings are sourced from its unused portion.
    pub sentinel: Prefix,
    /// Provider attachment points used for announcements (the BGP-Mux
    /// sites in the deployment). Empty = all neighbors.
    pub providers: Vec<AsId>,
    /// Monitored destination ASes.
    pub targets: Vec<AsId>,
    /// Vantage points assisting isolation (PlanetLab hosts in the paper).
    pub vantage_points: Vec<AsId>,
}

impl LifeguardConfig {
    /// A configuration for `origin` announcing `production` inside sentinel
    /// `sentinel`, with no targets or vantage points yet.
    pub fn paper_defaults(origin: AsId, production: Prefix, sentinel: Prefix) -> Self {
        LifeguardConfig {
            origin,
            production,
            sentinel,
            providers: Vec::new(),
            targets: Vec::new(),
            vantage_points: Vec::new(),
        }
    }

    /// The first address in the *unused* portion of the sentinel — inside
    /// the sentinel but outside production — used to source repair pings so
    /// responses route via the (unpoisoned) sentinel prefix. That is the
    /// sentinel's base unless production starts there, and otherwise the
    /// first address past production. `None` when that address is not
    /// unused sentinel space, which happens only when the sentinel does not
    /// strictly cover production.
    pub fn sentinel_unused_addr(&self) -> Option<u32> {
        let addr = if self.production.addr() == self.sentinel.addr() {
            let past = u64::from(self.production.addr()) + (1u64 << (32 - self.production.len()));
            u32::try_from(past).ok()?
        } else {
            self.sentinel.addr()
        };
        (self.sentinel.contains(addr) && !self.production.contains(addr)).then_some(addr)
    }

    /// Validate structural requirements.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.sentinel.covers(self.production) && self.sentinel != self.production) {
            return Err(format!(
                "sentinel {} must strictly cover production {}",
                self.sentinel, self.production
            ));
        }
        if self.sentinel_unused_addr().is_none() {
            return Err("sentinel has no unused address space".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> LifeguardConfig {
        LifeguardConfig::paper_defaults(
            AsId(0),
            Prefix::from_octets(184, 164, 224, 0, 20),
            Prefix::from_octets(184, 164, 224, 0, 19),
        )
    }

    #[test]
    fn paper_defaults_validate() {
        let c = cfg();
        assert!(c.validate().is_ok());
        assert_eq!(PING_INTERVAL_MS * OUTAGE_THRESHOLD as u64, 120_000);
    }

    #[test]
    fn sentinel_unused_addr_outside_production() {
        let c = cfg();
        let addr = c.sentinel_unused_addr().unwrap();
        assert!(c.sentinel.contains(addr));
        assert!(!c.production.contains(addr));
        // The first address past the /20, as the golden logs record it.
        assert_eq!(addr, Prefix::from_octets(184, 164, 240, 0, 32).addr());
    }

    #[test]
    fn large_production_prefix_leaves_unused_sentinel_space() {
        // A /16 at the base of a /15 leaves the upper 65,536 addresses
        // unused, all of them past the first 65,536 of the sentinel.
        let c = LifeguardConfig::paper_defaults(
            AsId(0),
            Prefix::from_octets(10, 0, 0, 0, 16),
            Prefix::from_octets(10, 0, 0, 0, 15),
        );
        assert_eq!(c.validate(), Ok(()));
        assert_eq!(
            c.sentinel_unused_addr(),
            Some(Prefix::from_octets(10, 1, 0, 0, 32).addr())
        );
        // Production in the sentinel's upper half: the base is unused.
        let upper = LifeguardConfig::paper_defaults(
            AsId(0),
            Prefix::from_octets(10, 1, 0, 0, 16),
            Prefix::from_octets(10, 0, 0, 0, 15),
        );
        assert_eq!(upper.validate(), Ok(()));
        assert_eq!(upper.sentinel_unused_addr(), Some(upper.sentinel.addr()));
    }

    #[test]
    fn sentinel_must_cover_production() {
        let mut c = cfg();
        c.sentinel = Prefix::from_octets(10, 0, 0, 0, 19);
        assert!(c.validate().is_err());
        // Equal prefix is not a cover either.
        c.sentinel = c.production;
        assert!(c.validate().is_err());
        assert_eq!(c.sentinel_unused_addr(), None);
    }
}
