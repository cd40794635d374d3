//! Failure injection.
//!
//! The outages LIFEGUARD targets are *silent*: a router keeps advertising a
//! route but drops the packets (corrupted line card, broken MPLS tunnel —
//! §2.1). The control plane never reacts, so the static tables stay as they
//! are and only the data plane sees the damage. Failures can be scoped:
//!
//! * to an AS or to a specific AS-AS link,
//! * to one direction of traffic (unidirectional failures are common — §4.1),
//! * to destinations inside one prefix (the paper's partial outages are
//!   prefix-specific),
//! * to packets entering the AS over a specific adjacency (some paths
//!   through the AS work while others fail — the §3.1.2 goal (2)),
//! * to a time window, for scripted scenarios like the §6 case study.

use crate::time::Time;
use lg_asmap::AsId;
use lg_bgp::Prefix;

/// Which packet directions a failure affects.
///
/// For links, direction is expressed relative to the `(a, b)` order of the
/// element: `AToB` drops traffic flowing from `a` into `b`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Both directions.
    Both,
    /// Only packets traversing `a → b` (for links), meaningless for ASes.
    AToB,
    /// Only packets traversing `b → a` (for links).
    BToA,
}

/// The failed element.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetElement {
    /// A whole AS drops matching traffic.
    As(AsId),
    /// The link between two ASes drops matching traffic.
    Link(AsId, AsId),
}

/// One injected failure.
#[derive(Clone, Debug)]
pub struct Failure {
    /// What fails.
    pub element: NetElement,
    /// Directionality (for links).
    pub direction: Direction,
    /// Only drop packets destined to an address inside this prefix
    /// (`None` = all destinations). This is how a *reverse-path* failure is
    /// expressed: traffic toward the source's prefix fails, traffic toward
    /// the destination's prefix flows.
    pub toward: Option<Prefix>,
    /// Only drop packets that entered the AS from this neighbor (`None` =
    /// any ingress). Models partial intra-AS failures where other paths
    /// through the AS still work.
    pub ingress: Option<AsId>,
    /// Active window `[start, end)`; `end = None` means "until further
    /// notice".
    pub from: Time,
    /// End of the window (exclusive), if any.
    pub until: Option<Time>,
}

impl Failure {
    /// A silent blackhole inside `a` for all traffic, effective immediately
    /// and indefinitely.
    pub fn silent_as(a: AsId) -> Self {
        Failure {
            element: NetElement::As(a),
            direction: Direction::Both,
            toward: None,
            ingress: None,
            from: Time::ZERO,
            until: None,
        }
    }

    /// A silent blackhole inside `a` only for traffic toward `prefix` —
    /// the canonical unidirectional failure.
    pub fn silent_as_toward(a: AsId, prefix: Prefix) -> Self {
        Failure {
            toward: Some(prefix),
            ..Self::silent_as(a)
        }
    }

    /// A silent drop on the link `a`-`b`, both directions.
    pub fn silent_link(a: AsId, b: AsId) -> Self {
        Failure {
            element: NetElement::Link(a, b),
            direction: Direction::Both,
            toward: None,
            ingress: None,
            from: Time::ZERO,
            until: None,
        }
    }

    /// Restrict to a time window.
    pub fn window(mut self, from: Time, until: Option<Time>) -> Self {
        self.from = from;
        self.until = until;
        self
    }

    /// Restrict to one direction.
    pub fn direction(mut self, d: Direction) -> Self {
        self.direction = d;
        self
    }

    /// Restrict to packets that entered via `neighbor`.
    pub fn ingress_from(mut self, neighbor: AsId) -> Self {
        self.ingress = Some(neighbor);
        self
    }

    /// Is the failure active at `now`?
    pub fn active_at(&self, now: Time) -> bool {
        now >= self.from && self.until.is_none_or(|u| now < u)
    }

    fn matches_scope(&self, dst_addr: u32, entered_from: Option<AsId>) -> bool {
        if let Some(p) = self.toward {
            if !p.contains(dst_addr) {
                return false;
            }
        }
        if let Some(ing) = self.ingress {
            if entered_from != Some(ing) {
                return false;
            }
        }
        true
    }

    /// Does this failure drop a packet being processed *inside* AS `at`,
    /// which entered from `entered_from` (None = originated locally) and is
    /// destined to `dst_addr`?
    pub fn drops_in_as(
        &self,
        now: Time,
        at: AsId,
        entered_from: Option<AsId>,
        dst_addr: u32,
    ) -> bool {
        if !self.active_at(now) {
            return false;
        }
        match self.element {
            NetElement::As(x) if x == at => self.matches_scope(dst_addr, entered_from),
            _ => false,
        }
    }

    /// Does this failure drop a packet traversing the link `from → to`?
    pub fn drops_on_link(&self, now: Time, from: AsId, to: AsId, dst_addr: u32) -> bool {
        if !self.active_at(now) {
            return false;
        }
        let NetElement::Link(a, b) = self.element else {
            return false;
        };
        let dir_ok = match self.direction {
            Direction::Both => (from == a && to == b) || (from == b && to == a),
            Direction::AToB => from == a && to == b,
            Direction::BToA => from == b && to == a,
        };
        dir_ok && self.matches_scope(dst_addr, None)
    }
}

/// A collection of failures consulted by the data plane.
#[derive(Clone, Debug, Default)]
pub struct FailureSet {
    failures: Vec<Failure>,
}

impl FailureSet {
    /// No failures.
    pub fn none() -> Self {
        Self::default()
    }

    /// Add a failure; returns its index for later removal.
    pub fn add(&mut self, f: Failure) -> usize {
        self.failures.push(f);
        self.failures.len() - 1
    }

    /// Remove all failures.
    pub fn clear(&mut self) {
        self.failures.clear();
    }

    /// Remove one failure by index (swap-remove; indices shift).
    pub fn remove(&mut self, idx: usize) {
        self.failures.swap_remove(idx);
    }

    /// Iterate over failures.
    pub fn iter(&self) -> impl Iterator<Item = &Failure> {
        self.failures.iter()
    }

    /// Number of failures (active or not).
    pub fn len(&self) -> usize {
        self.failures.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.failures.is_empty()
    }

    /// The interval `[lo, hi)` around `now` over which the set of active
    /// failures stays what it is at `now` (`hi = None`: forever). Every
    /// window edge at or before `now` bounds it below, every edge after
    /// `now` above, so no failure starts or ends strictly inside it — and a
    /// walk, which reads `now` only through [`Failure::active_at`], gives
    /// the same answer anywhere in it.
    pub fn stable_window(&self, now: Time) -> (Time, Option<Time>) {
        let mut lo = Time::ZERO;
        let mut hi: Option<Time> = None;
        let edges = self
            .failures
            .iter()
            .flat_map(|f| std::iter::once(f.from).chain(f.until));
        for edge in edges {
            if edge <= now {
                lo = lo.max(edge);
            } else {
                hi = Some(hi.map_or(edge, |h| h.min(edge)));
            }
        }
        (lo, hi)
    }

    /// Should a packet inside `at` (entered from `entered_from`, toward
    /// `dst_addr`) be dropped at `now`?
    pub fn drops_in_as(
        &self,
        now: Time,
        at: AsId,
        entered_from: Option<AsId>,
        dst_addr: u32,
    ) -> bool {
        self.failures
            .iter()
            .any(|f| f.drops_in_as(now, at, entered_from, dst_addr))
    }

    /// Should a packet traversing `from → to` toward `dst_addr` be dropped?
    pub fn drops_on_link(&self, now: Time, from: AsId, to: AsId, dst_addr: u32) -> bool {
        self.failures
            .iter()
            .any(|f| f.drops_on_link(now, from, to, dst_addr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: AsId = AsId(1);
    const B: AsId = AsId(2);

    #[test]
    fn silent_as_drops_everything_inside() {
        let f = Failure::silent_as(A);
        assert!(f.drops_in_as(Time::ZERO, A, None, 42));
        assert!(f.drops_in_as(Time::ZERO, A, Some(B), 42));
        assert!(!f.drops_in_as(Time::ZERO, B, None, 42));
        assert!(!f.drops_on_link(Time::ZERO, A, B, 42));
    }

    #[test]
    fn toward_prefix_scopes_direction() {
        let p = Prefix::from_octets(10, 0, 0, 0, 8);
        let f = Failure::silent_as_toward(A, p);
        let inside = u32::from_be_bytes([10, 1, 2, 3]);
        let outside = u32::from_be_bytes([11, 1, 2, 3]);
        assert!(f.drops_in_as(Time::ZERO, A, None, inside));
        assert!(!f.drops_in_as(Time::ZERO, A, None, outside));
    }

    #[test]
    fn ingress_scoping() {
        let f = Failure::silent_as(A).ingress_from(B);
        assert!(f.drops_in_as(Time::ZERO, A, Some(B), 1));
        assert!(!f.drops_in_as(Time::ZERO, A, Some(AsId(9)), 1));
        assert!(!f.drops_in_as(Time::ZERO, A, None, 1));
    }

    #[test]
    fn link_direction() {
        let f = Failure::silent_link(A, B).direction(Direction::AToB);
        assert!(f.drops_on_link(Time::ZERO, A, B, 1));
        assert!(!f.drops_on_link(Time::ZERO, B, A, 1));
        let both = Failure::silent_link(A, B);
        assert!(both.drops_on_link(Time::ZERO, B, A, 1));
    }

    #[test]
    fn time_window() {
        let f = Failure::silent_as(A).window(Time::from_secs(100), Some(Time::from_secs(200)));
        assert!(!f.active_at(Time::from_secs(99)));
        assert!(f.active_at(Time::from_secs(100)));
        assert!(f.active_at(Time::from_secs(199)));
        assert!(!f.active_at(Time::from_secs(200)));
        // Open-ended window.
        let open = Failure::silent_as(A).window(Time::from_secs(100), None);
        assert!(open.active_at(Time::from_secs(1_000_000)));
    }

    #[test]
    fn failure_set_aggregates() {
        let mut set = FailureSet::none();
        assert!(set.is_empty());
        set.add(Failure::silent_as(A));
        set.add(Failure::silent_link(A, B));
        assert_eq!(set.len(), 2);
        assert!(set.drops_in_as(Time::ZERO, A, None, 1));
        assert!(set.drops_on_link(Time::ZERO, B, A, 1));
        set.clear();
        assert!(!set.drops_in_as(Time::ZERO, A, None, 1));
    }

    #[test]
    fn stable_window_of_the_empty_set_is_forever() {
        let set = FailureSet::none();
        assert_eq!(set.stable_window(Time::ZERO), (Time::ZERO, None));
        assert_eq!(set.stable_window(Time::from_secs(9)), (Time::ZERO, None));
    }

    #[test]
    fn stable_window_opens_at_a_start_and_closes_at_an_end() {
        let (t100, t200) = (Time::from_secs(100), Time::from_secs(200));
        let mut set = FailureSet::none();
        set.add(Failure::silent_as(A).window(t100, Some(t200)));
        // `from == now`: the failure is active, and the window starts there.
        assert!(set.drops_in_as(t100, A, None, 1));
        assert_eq!(set.stable_window(t100), (t100, Some(t200)));
        // `until == now`: inactive, and the window starts at the end.
        assert!(!set.drops_in_as(t200, A, None, 1));
        assert_eq!(set.stable_window(t200), (t200, None));
        // Before the start: bounded above by it.
        assert_eq!(
            set.stable_window(Time::from_secs(99)),
            (Time::ZERO, Some(t100))
        );
    }

    #[test]
    fn stable_window_spans_open_ended_failures() {
        let (t50, t100, t300) = (
            Time::from_secs(50),
            Time::from_secs(100),
            Time::from_secs(300),
        );
        let mut set = FailureSet::none();
        set.add(Failure::silent_as(A).window(t100, None));
        set.add(Failure::silent_link(A, B).window(t50, Some(t300)));
        assert_eq!(set.stable_window(Time::from_secs(60)), (t50, Some(t100)));
        assert_eq!(set.stable_window(Time::from_secs(150)), (t100, Some(t300)));
        assert_eq!(set.stable_window(Time::from_secs(400)), (t300, None));
        // Every instant of a window sees the same active set.
        let (lo, hi) = set.stable_window(Time::from_secs(150));
        let active = |t: Time| set.iter().map(|f| f.active_at(t)).collect::<Vec<_>>();
        for t in [lo, Time::from_secs(299), Time(hi.unwrap().0 - 1)] {
            assert_eq!(active(t), active(Time::from_secs(150)));
        }
    }
}
