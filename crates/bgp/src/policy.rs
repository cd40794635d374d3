//! Import policies: loop detection and path filters.

use crate::path::AsPath;
use lg_asmap::{AsId, Relationship};

/// BGP loop-detection configuration for one AS.
///
/// Standard BGP drops any received path containing the receiver's own ASN.
/// §7.1 documents two deviations LIFEGUARD must handle: networks that raise
/// the threshold (e.g. AS286 accepts a path containing itself once, so a
/// single poison does not stick and the origin must insert the AS twice), and
/// networks that disable loop detection entirely.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LoopDetection {
    /// Reject a path when the receiver's ASN occurs at least this many times.
    /// `1` is standard BGP; `2` models the AS286-style max-occurrences
    /// configuration; `u8::MAX` effectively disables loop detection.
    pub reject_at: u8,
}

impl Default for LoopDetection {
    fn default() -> Self {
        LoopDetection { reject_at: 1 }
    }
}

impl LoopDetection {
    /// Standard single-occurrence rejection.
    pub fn standard() -> Self {
        Self::default()
    }

    /// Accept one occurrence of the own ASN, reject at two (AS286-style).
    pub fn max_occurrences(n: u8) -> Self {
        LoopDetection {
            reject_at: n.saturating_add(1),
        }
    }

    /// Loop detection disabled.
    pub fn disabled() -> Self {
        LoopDetection { reject_at: u8::MAX }
    }

    /// Does `own` accept a received `path` under this configuration?
    pub fn accepts(&self, own: AsId, path: &AsPath) -> bool {
        (path.count(own) as u64) < self.reject_at as u64
    }
}

/// Why an import filter rejected a path. The variants map one-to-one onto
/// the `policy.filtered_*` telemetry counters so the engines can attribute
/// every rejection without re-deriving it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// Loop detection: the receiver's own ASN occurred too often.
    Loop,
    /// Cogent-style peer-in-customer-path filter.
    PeerInCustomerPath,
    /// A deny-listed AS appeared as a transit hop.
    DenyTransit,
    /// The path exceeded the receiver's max-AS-path-length cap.
    PathLenCap,
    /// The path carried a poisoning signature (non-adjacent repeated ASN).
    Poisoned,
    /// The path contained a reserved/private ASN.
    ReservedAsn,
}

/// Is `asn` reserved or private (RFC 6996, RFC 7300, AS_TRANS, AS 0)?
/// Smith et al. observe large transit networks dropping announcements whose
/// paths carry such ASNs — which catches poisons minted from private space.
pub fn is_reserved_asn(asn: AsId) -> bool {
    matches!(asn.0, 0 | 23_456 | 64_512..=65_535 | 4_200_000_000..)
}

/// Full import policy of one AS.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ImportPolicy {
    /// Loop-detection configuration.
    pub loop_detection: LoopDetection,
    /// Cogent-style filter (§7.1): reject an update *from a customer* when
    /// the path contains one of this AS's peers. Poisoning a Tier-1 through
    /// such a provider fails to propagate.
    pub reject_peers_in_customer_path: bool,
    /// Transit deny list (models commercial/academic route filters, §5.1's
    /// validation cases): reject any path in which one of these ASes
    /// appears as a *transit* hop. Routes originated by the listed AS are
    /// still accepted — the filter refuses to route *through* it, not *to*
    /// it.
    pub deny_transit: Vec<AsId>,
    /// Max-AS-path-length cap (Smith et al.): reject any path longer than
    /// this many hops, prepends included. `None` disables the cap. Long
    /// poison+prepend announcements are the first casualty.
    pub max_path_len: Option<u8>,
    /// Drop announcements carrying a poisoning signature: an ASN repeated
    /// *non-adjacently* in the path. Legitimate prepending repeats an ASN
    /// in adjacent positions only; LIFEGUARD's `O-A-O` splits the origin
    /// around the poison, which this filter detects at large transit ASes.
    pub drop_poisoned: bool,
    /// Drop announcements whose path contains a reserved/private ASN
    /// (see [`is_reserved_asn`]).
    pub drop_reserved_asn: bool,
    /// This AS points a default route at a provider. Defaults do not affect
    /// import filtering or route selection — they matter to *reachability*:
    /// an AS with a default still forwards toward its provider when it holds
    /// no route, which throttles poisoning (traffic keeps flowing along the
    /// old path). Consumed by the data-plane reachability helpers.
    pub default_route: bool,
}

impl ImportPolicy {
    /// Standard policy: plain loop detection, no extra filters.
    pub fn standard() -> Self {
        Self::default()
    }

    /// Is any path-content filter configured — anything beyond loop
    /// detection that can reject a path the AS itself does not appear in?
    /// (`default_route` never affects import.)
    pub fn filters_paths(&self) -> bool {
        self.max_path_len.is_some()
            || self.reject_peers_in_customer_path
            || !self.deny_transit.is_empty()
            || self.drop_poisoned
            || self.drop_reserved_asn
    }

    /// Does this AS accept `path` announced by a neighbor related by
    /// `rel_to_sender`, given the AS's peer list?
    pub fn accepts(
        &self,
        own: AsId,
        peers: &[AsId],
        rel_to_sender: Relationship,
        path: &AsPath,
    ) -> bool {
        let hops = path.hops();
        self.accepts_hops(own, peers, rel_to_sender, hops.iter().copied(), hops.len())
    }

    /// [`Self::accepts_hops`], reporting *why* a path was rejected.
    pub fn evaluate(
        &self,
        own: AsId,
        peers: &[AsId],
        rel_to_sender: Relationship,
        path: &AsPath,
    ) -> Option<RejectReason> {
        let hops = path.hops();
        self.evaluate_hops(own, peers, rel_to_sender, hops.iter().copied(), hops.len())
    }

    /// [`Self::accepts`] over a hop iterator (nearest-first, `hops_len`
    /// total hops), for callers that represent paths without materializing
    /// a `Vec` — the static route engine's hot loop checks candidates
    /// straight out of its path arena through this.
    pub fn accepts_hops<I>(
        &self,
        own: AsId,
        peers: &[AsId],
        rel_to_sender: Relationship,
        hops: I,
        hops_len: usize,
    ) -> bool
    where
        I: IntoIterator<Item = AsId>,
        I::IntoIter: Clone,
    {
        self.evaluate_hops(own, peers, rel_to_sender, hops, hops_len)
            .is_none()
    }

    /// The filter core: every predicate runs in a single pass over the hop
    /// iterator. Loop detection counts occurrences of `own`, the
    /// Cogent-style filter scans for peers on customer-learned paths, the
    /// transit deny list checks every hop except the last (the origin — we
    /// refuse to route *through* a denied AS, not *to* it), the length cap
    /// short-circuits before the scan, the reserved-ASN filter checks each
    /// hop, and the poison filter tracks the previous hop and, where a hop
    /// starts a new run, re-walks a clone of the iterator over the hops
    /// before it to catch non-adjacent repeats while letting adjacent
    /// prepending through (no allocation: the dynamic engine calls this
    /// once per received UPDATE). Returns the first reason to fire, or
    /// `None` when the path is accepted.
    pub fn evaluate_hops<I>(
        &self,
        own: AsId,
        peers: &[AsId],
        rel_to_sender: Relationship,
        hops: I,
        hops_len: usize,
    ) -> Option<RejectReason>
    where
        I: IntoIterator<Item = AsId>,
        I::IntoIter: Clone,
    {
        // Two copies of the pass, so the one without the poison filter —
        // the static engine's per-candidate check on nearly every AS —
        // carries nothing of the re-walk.
        let hops = hops.into_iter();
        if self.drop_poisoned {
            self.walk_hops::<_, true>(own, peers, rel_to_sender, hops, hops_len)
        } else {
            self.walk_hops::<_, false>(own, peers, rel_to_sender, hops, hops_len)
        }
    }

    #[inline(always)]
    fn walk_hops<I, const DROP_POISONED: bool>(
        &self,
        own: AsId,
        peers: &[AsId],
        rel_to_sender: Relationship,
        hops: I,
        hops_len: usize,
    ) -> Option<RejectReason>
    where
        I: Iterator<Item = AsId> + Clone,
    {
        if let Some(cap) = self.max_path_len {
            if hops_len > cap as usize {
                return Some(RejectReason::PathLenCap);
            }
        }
        let check_peers =
            self.reject_peers_in_customer_path && rel_to_sender == Relationship::Customer;
        let reject_at = self.loop_detection.reject_at as u64;
        let mut own_count: u64 = 0;
        let mut prev: Option<AsId> = None;
        let from_start = hops.clone();
        for (idx, h) in hops.enumerate() {
            if h == own {
                own_count += 1;
                if own_count >= reject_at {
                    return Some(RejectReason::Loop);
                }
            }
            if check_peers && peers.contains(&h) {
                return Some(RejectReason::PeerInCustomerPath);
            }
            if idx + 1 < hops_len && self.deny_transit.contains(&h) {
                return Some(RejectReason::DenyTransit);
            }
            if self.drop_reserved_asn && is_reserved_asn(h) {
                return Some(RejectReason::ReservedAsn);
            }
            if DROP_POISONED {
                if prev != Some(h) && from_start.clone().take(idx).any(|e| e == h) {
                    return Some(RejectReason::Poisoned);
                }
                prev = Some(h);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ME: AsId = AsId(50);

    #[test]
    fn standard_loop_detection_rejects_own_asn() {
        let ld = LoopDetection::standard();
        assert!(ld.accepts(ME, &AsPath::from_hops(vec![AsId(1), AsId(2)])));
        assert!(!ld.accepts(ME, &AsPath::from_hops(vec![AsId(1), ME])));
    }

    #[test]
    fn max_occurrences_needs_double_poison() {
        // AS286-style: one occurrence tolerated, two rejected.
        let ld = LoopDetection::max_occurrences(1);
        let single = AsPath::poisoned(AsId(100), &[ME]);
        let double = AsPath::poisoned(AsId(100), &[ME, ME]);
        assert!(ld.accepts(ME, &single), "single poison should NOT stick");
        assert!(!ld.accepts(ME, &double), "double poison should stick");
    }

    #[test]
    fn disabled_loop_detection_accepts_everything() {
        let ld = LoopDetection::disabled();
        let p = AsPath::from_hops(vec![ME; 20]);
        assert!(ld.accepts(ME, &p));
    }

    #[test]
    fn cogent_filter_rejects_customer_updates_naming_peers() {
        let policy = ImportPolicy {
            reject_peers_in_customer_path: true,
            ..ImportPolicy::default()
        };
        let peers = [AsId(701), AsId(1299)];
        let poisoned = AsPath::poisoned(AsId(100), &[AsId(701)]);
        // From a customer: rejected.
        assert!(!policy.accepts(ME, &peers, Relationship::Customer, &poisoned));
        // The same path from a peer: accepted (filter is customer-specific).
        assert!(policy.accepts(ME, &peers, Relationship::Peer, &poisoned));
        // A clean path from a customer: accepted.
        let clean = AsPath::origin_only(AsId(100));
        assert!(policy.accepts(ME, &peers, Relationship::Customer, &clean));
    }

    #[test]
    fn deny_transit_rejects_any_direction() {
        let policy = ImportPolicy {
            deny_transit: vec![AsId(9)],
            ..ImportPolicy::default()
        };
        let p = AsPath::from_hops(vec![AsId(1), AsId(9), AsId(2)]);
        assert!(!policy.accepts(ME, &[], Relationship::Provider, &p));
        assert!(!policy.accepts(ME, &[], Relationship::Customer, &p));
        let q = AsPath::from_hops(vec![AsId(1), AsId(2)]);
        assert!(policy.accepts(ME, &[], Relationship::Provider, &q));
    }

    #[test]
    fn deny_transit_still_accepts_routes_originated_by_denied_as() {
        let policy = ImportPolicy {
            deny_transit: vec![AsId(9)],
            ..ImportPolicy::default()
        };
        // AS9 as the origin: acceptable (we refuse to route through it,
        // not to it).
        let own = AsPath::from_hops(vec![AsId(1), AsId(9)]);
        assert!(policy.accepts(ME, &[], Relationship::Provider, &own));
        // AS9 as origin but also mid-path: rejected.
        let through = AsPath::from_hops(vec![AsId(9), AsId(1), AsId(9)]);
        assert!(!policy.accepts(ME, &[], Relationship::Provider, &through));
    }

    #[test]
    fn loop_detection_composes_with_filters() {
        let policy = ImportPolicy {
            reject_peers_in_customer_path: true,
            ..ImportPolicy::default()
        };
        let p = AsPath::from_hops(vec![AsId(1), ME]);
        assert!(!policy.accepts(ME, &[], Relationship::Customer, &p));
    }

    #[test]
    fn path_len_cap_rejects_long_paths_only() {
        let policy = ImportPolicy {
            max_path_len: Some(3),
            ..ImportPolicy::default()
        };
        let short = AsPath::from_hops(vec![AsId(1), AsId(2), AsId(3)]);
        let long = AsPath::from_hops(vec![AsId(1), AsId(2), AsId(3), AsId(4)]);
        assert!(policy.accepts(ME, &[], Relationship::Provider, &short));
        assert!(!policy.accepts(ME, &[], Relationship::Provider, &long));
        assert_eq!(
            policy.evaluate(ME, &[], Relationship::Provider, &long),
            Some(RejectReason::PathLenCap)
        );
        // Prepends count toward the cap — the Smith et al. failure mode:
        // a poison plus prepending silently exceeds a neighbor's cap.
        let prepended = AsPath::prepended_baseline(AsId(9), 4);
        assert!(!policy.accepts(ME, &[], Relationship::Customer, &prepended));
    }

    #[test]
    fn poison_filter_drops_split_origins_but_not_prepends() {
        let policy = ImportPolicy {
            drop_poisoned: true,
            ..ImportPolicy::default()
        };
        // O-A-O: the poisoning signature — origin repeated non-adjacently.
        let poisoned = AsPath::poisoned(AsId(100), &[AsId(7)]);
        assert_eq!(
            policy.evaluate(ME, &[], Relationship::Customer, &poisoned),
            Some(RejectReason::Poisoned)
        );
        // O-O-O prepending repeats adjacently: legitimate, accepted.
        let prepended = AsPath::prepended_baseline(AsId(100), 3);
        assert!(policy.accepts(ME, &[], Relationship::Customer, &prepended));
        // Prepending by a transit hop mid-path is also adjacent: accepted.
        let transit_prepend = AsPath::from_hops(vec![AsId(3), AsId(3), AsId(2), AsId(1)]);
        assert!(policy.accepts(ME, &[], Relationship::Customer, &transit_prepend));
        // Double poison O-A-A-O still has the non-adjacent origin repeat.
        let double = AsPath::poisoned(AsId(100), &[AsId(7), AsId(7)]);
        assert!(!policy.accepts(ME, &[], Relationship::Customer, &double));
    }

    #[test]
    fn reserved_asn_filter() {
        let policy = ImportPolicy {
            drop_reserved_asn: true,
            ..ImportPolicy::default()
        };
        for bad in [0u32, 23_456, 64_512, 65_534, 65_535, 4_200_000_000] {
            let p = AsPath::from_hops(vec![AsId(1), AsId(bad), AsId(2)]);
            assert_eq!(
                policy.evaluate(ME, &[], Relationship::Provider, &p),
                Some(RejectReason::ReservedAsn),
                "ASN {bad} should be reserved"
            );
        }
        let clean = AsPath::from_hops(vec![AsId(1), AsId(64_511), AsId(2)]);
        assert!(policy.accepts(ME, &[], Relationship::Provider, &clean));
    }

    #[test]
    fn default_route_flag_does_not_affect_import() {
        let policy = ImportPolicy {
            default_route: true,
            ..ImportPolicy::default()
        };
        let p = AsPath::poisoned(AsId(100), &[AsId(7)]);
        assert_eq!(
            policy.evaluate(ME, &[], Relationship::Customer, &p),
            ImportPolicy::default().evaluate(ME, &[], Relationship::Customer, &p)
        );
    }

    /// ASNs the lemma's property test draws from: few enough to collide
    /// (loops, peers, deny lists), with reserved ones among them.
    const POOL: [u32; 10] = [0, 1, 2, 3, 4, 5, 6, 7, 23_456, 64_512];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4096))]

        /// The lemma `lg-sim`'s delta what-if stands on: take any path
        /// `chain ++ O^k`, replace origin copies strictly inside the tail
        /// by other hops (`O-O-O` → `O-A-O`: length, first and last hop of
        /// the tail kept), and no import policy at any AS but the origin
        /// turns a rejection into an acceptance — whatever the chain, the
        /// relationship, the peer list. A filter that breaks this (one
        /// that *rewards* a hop, or counts origin copies) fails here, not
        /// in a fuzzer three layers up.
        #[test]
        fn poison_hops_only_add_rejections(
            flags: u8,
            reject_at in 1u8..=4,
            cap in proptest::option::of(0u8..10),
            lists in (
                proptest::collection::vec(0usize..POOL.len(), 0..3),
                proptest::collection::vec(0usize..POOL.len(), 0..3),
            ),
            ends in (0usize..POOL.len(), 1usize..POOL.len(), 0u8..3),
            chain in proptest::collection::vec(0usize..POOL.len(), 0..5),
            inside in proptest::collection::vec(0usize..POOL.len(), 0..4),
        ) {
            let asn = |i: usize| AsId(POOL[i]);
            let (deny, peers) = lists;
            let (origin_ix, own_offset, rel) = ends;
            let origin = asn(origin_ix);
            // Any pool member but the origin: the origin never imports.
            let own = asn((origin_ix + own_offset) % POOL.len());
            let policy = ImportPolicy {
                loop_detection: LoopDetection {
                    reject_at: if reject_at == 4 { u8::MAX } else { reject_at },
                },
                reject_peers_in_customer_path: flags & 1 != 0,
                deny_transit: deny.into_iter().map(asn).collect(),
                max_path_len: cap,
                drop_poisoned: flags & 2 != 0,
                drop_reserved_asn: flags & 4 != 0,
                default_route: flags & 8 != 0,
            };
            let peers: Vec<AsId> = peers.into_iter().map(asn).collect();
            let rel = [Relationship::Customer, Relationship::Peer, Relationship::Provider]
                [rel as usize];

            let chain: Vec<AsId> = chain.into_iter().map(asn).collect();
            let poisons: Vec<AsId> = inside.into_iter().map(asn).collect();
            let with_tail = |tail: &AsPath| {
                AsPath::from_hops(chain.iter().chain(tail.hops()).copied().collect())
            };
            let poisoned = AsPath::poisoned(origin, &poisons);
            let prepended = AsPath::prepended_baseline(origin, poisoned.len());

            let before = policy.evaluate(own, &peers, rel, &with_tail(&prepended));
            let after = policy.evaluate(own, &peers, rel, &with_tail(&poisoned));
            proptest::prop_assert!(
                before.is_none() || after.is_some(),
                "{:?} rejected {} ({:?}) yet accepts {}",
                policy, with_tail(&prepended), before, with_tail(&poisoned)
            );
        }
    }

    #[test]
    fn zero_filter_policy_is_the_default_policy() {
        // The byte-identity guarantee hinges on the new fields defaulting
        // to "off": a freshly constructed policy must equal `standard()`.
        let p = ImportPolicy::default();
        assert_eq!(p.max_path_len, None);
        assert!(!p.drop_poisoned);
        assert!(!p.drop_reserved_asn);
        assert!(!p.default_route);
    }
}
