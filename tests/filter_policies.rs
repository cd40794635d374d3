//! Filter-policy invariants.
//!
//! Two pins guard the `FilterPolicy` layer (Smith et al.'s poisoning
//! feasibility filters): (1) a zero-filter policy matrix is *byte-identical*
//! to the pre-filter engines — the golden digest below was captured from the
//! engine output before the filter layer existed, so any accidental behavior
//! change with filters off fails loudly; (2) import filtering can only
//! *remove* routes, and every route that survives still satisfies the
//! Gao-Rexford valley-free export invariant.

use lifeguard_repro::asmap::{AsId, TopologyConfig};
use lifeguard_repro::bgp::Prefix;
use lifeguard_repro::sim::{
    compute_routes, AnnouncementSpec, DynamicSim, DynamicSimConfig, Network, Time,
};
use lifeguard_repro::workloads::FilterMatrix;
use proptest::prelude::*;

fn pfx() -> Prefix {
    Prefix::from_octets(184, 164, 224, 0, 20)
}

fn pick_origin(net: &Network) -> AsId {
    net.graph()
        .ases()
        .find(|a| net.graph().is_stub(*a) && net.graph().providers(*a).len() >= 2)
        .or_else(|| net.graph().ases().find(|a| net.graph().is_stub(*a)))
        .expect("topology has stubs")
}

fn pick_target(net: &Network, origin: AsId) -> AsId {
    let providers = net.graph().providers(origin);
    let above = net.graph().providers(providers[0]);
    if above.is_empty() {
        providers[0]
    } else {
        above[0]
    }
}

fn specs_for(net: &Network, origin: AsId, target: AsId) -> Vec<AnnouncementSpec> {
    vec![
        AnnouncementSpec::plain(net, pfx(), origin),
        AnnouncementSpec::prepended(net, pfx(), origin, 3),
        AnnouncementSpec::poisoned(net, pfx(), origin, &[target]),
    ]
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn u32(&mut self, v: u32) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// Fold every observable of the static fixed point into the digest: holder,
/// next hop, and the full selected AS path, in deterministic AS order.
fn fold_static(h: &mut Fnv, net: &Network, spec: &AnnouncementSpec) {
    let table = compute_routes(net, spec);
    for a in net.graph().ases() {
        h.u32(a.0);
        match (table.next_hop(a), table.as_path(a)) {
            (nh, Some(path)) => {
                h.u32(nh.map_or(u32::MAX - 1, |n| n.0));
                for hop in path {
                    h.u32(hop.0);
                }
            }
            _ => h.u32(u32::MAX),
        }
    }
}

/// Fold the dynamic engine's quiescent Loc-RIBs into the digest.
fn fold_dynamic(h: &mut Fnv, net: &Network, spec: &AnnouncementSpec) {
    let mut sim = DynamicSim::new(net, DynamicSimConfig::default());
    sim.announce(spec);
    sim.run_until_quiescent(Time::from_mins(240));
    assert!(sim.quiescent());
    for a in net.graph().ases() {
        h.u32(a.0);
        match sim.loc_route(a, spec.prefix) {
            Some(r) => {
                h.u32(r.learned_from.0);
                for hop in r.path.hops() {
                    h.u32(hop.0);
                }
            }
            None => h.u32(u32::MAX),
        }
    }
}

fn engine_digest(net: &Network) -> u64 {
    let origin = pick_origin(net);
    let target = pick_target(net, origin);
    let mut h = Fnv::new();
    for spec in specs_for(net, origin, target) {
        fold_static(&mut h, net, &spec);
    }
    h.0
}

fn dynamic_digest(net: &Network) -> u64 {
    let origin = pick_origin(net);
    let target = pick_target(net, origin);
    let mut h = Fnv::new();
    for spec in specs_for(net, origin, target) {
        fold_dynamic(&mut h, net, &spec);
    }
    h.0
}

/// Golden digests of the zero-filter engines on `calibrated(64, 7)`
/// (small) and `calibrated(1_000, 42)` (medium). A zero-filter network
/// must keep reproducing them bit-for-bit.
const GOLDEN_STATIC_SMALL: u64 = 0xbffe_0303_eca8_ef9a;
const GOLDEN_STATIC_MEDIUM: u64 = 0xb7c7_711f_3f7b_dac4;
const GOLDEN_DYNAMIC_SMALL: u64 = 0x37b6_fb10_4cd5_dbe2;

#[test]
fn zero_filter_engines_match_prefilter_golden_digests() {
    let small = Network::new(TopologyConfig::calibrated(64, 7).generate());
    let medium = Network::new(TopologyConfig::calibrated(1_000, 42).generate());
    let ds = engine_digest(&small);
    let dm = engine_digest(&medium);
    let dd = dynamic_digest(&small);
    println!("static small  digest: {ds:#018x}");
    println!("static medium digest: {dm:#018x}");
    println!("dynamic small digest: {dd:#018x}");
    assert_eq!(
        ds, GOLDEN_STATIC_SMALL,
        "static engine output changed (small)"
    );
    assert_eq!(
        dm, GOLDEN_STATIC_MEDIUM,
        "static engine output changed (medium)"
    );
    assert_eq!(
        dd, GOLDEN_DYNAMIC_SMALL,
        "dynamic engine output changed (small)"
    );
}

#[test]
fn zero_filter_assignment_is_byte_identical_to_untouched_network() {
    // Applying the None matrix point must be a true no-op: the assignment
    // is all-zero and the full engine digest (holder + next hop + selected
    // path, every AS, three announcement shapes) matches a network the
    // filter layer never touched.
    for (seed, medium) in [(7u64, false), (42u64, true)] {
        let gen = || {
            let cfg = if medium {
                TopologyConfig::calibrated(1_000, seed)
            } else {
                TopologyConfig::calibrated(64, seed)
            };
            Network::new(cfg.generate())
        };
        let clean = gen();
        let mut zeroed = gen();
        let fa = FilterMatrix::None.apply(&mut zeroed, seed);
        assert!(fa.is_zero(), "None matrix deployed a filter somewhere");
        assert_eq!(
            engine_digest(&clean),
            engine_digest(&zeroed),
            "zero-filter assignment changed engine output (seed {seed})"
        );
    }
}

/// Every selected route in `spec`'s fixed point must still satisfy the
/// Gao-Rexford export rule: the AS it was learned from either learned it
/// from a customer, or is exporting to its own customer. Checked hop by
/// hop over the *forwarding* chain (learned_from links), not the AS-path
/// hops — poisoned paths carry forged ASNs that are not real adjacencies.
fn assert_valley_free(net: &Network, spec: &AnnouncementSpec, tag: &str) {
    let table = compute_routes(net, spec);
    for u in net.graph().ases() {
        if u == spec.origin {
            continue;
        }
        let Some(h) = table.next_hop(u) else { continue };
        let learned_rel = if h == spec.origin {
            None // self-originated: exports everywhere
        } else {
            let h2 = table
                .next_hop(h)
                .expect("every hop on a selected path holds the suffix route");
            Some(
                net.graph()
                    .relationship(h, h2)
                    .expect("selected hops are adjacent"),
            )
        };
        assert!(
            net.exports(h, learned_rel, u),
            "{tag}: {h} -> {u} violates valley-free export (learned over {learned_rel:?})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Import filtering prunes the candidate set but must never let a
    /// valley route through, and — because filters only reject imports —
    /// can only shrink the set of routed ASes, never grow it.
    #[test]
    fn filtered_fixed_points_stay_valley_free_and_only_shrink(seed in 1u64..500) {
        let base = Network::new(TopologyConfig::calibrated(64, seed).generate());
        let origin = pick_origin(&base);
        let target = pick_target(&base, origin);
        for matrix in FilterMatrix::ALL {
            let mut net = Network::new(TopologyConfig::calibrated(64, seed).generate());
            matrix.apply(&mut net, seed);
            let tag = format!("seed {seed} matrix {}", matrix.label());
            for spec in specs_for(&net, origin, target) {
                assert_valley_free(&net, &spec, &tag);
                let filtered = compute_routes(&net, &spec);
                let unfiltered = compute_routes(&base, &spec);
                for a in net.graph().ases() {
                    prop_assert!(
                        !filtered.has_route(a) || unfiltered.has_route(a),
                        "{}: {} routed only WITH filters enabled",
                        tag,
                        a
                    );
                }
            }
        }
    }
}
