//! Mutation fuzz for the route-table cache under filter-policy churn.
//!
//! The scoped invalidation machinery (`DirtyScope`) decides, per mutation,
//! which cached fixed points can still be trusted. The filter layer raised
//! the stakes: policy edits classify as Unchanged / Footprint / Global,
//! peer-link surgery under `reject_peers_in_customer_path` uses the
//! link-precise `PeerLinkDown` / `LinkUp` predicates, and
//! `apply_filter_assignment` batches a whole deployment into one record.
//! Any under-eviction is silent route corruption, so this harness drives
//! randomized interleavings of filter edits, deployment draws, link
//! surgery, and cache lookups, and checks every cache answer against a
//! fresh `compute_routes` *and* the verbatim `compute_routes_reference`
//! oracle. Failures print the offending `(seed, op index)` for replay.
//!
//! Poisoned specs are not computed but *derived* from their cached
//! prepended parent, so the churn also has to reach the three states a
//! derivation can start from: the parent cached, the parent evicted (or
//! never filled), and the parent retained while the child was evicted.
//! A parent (any spec without one of its own) that a single link surgery
//! reaches is repaired in place rather than evicted, which is a fourth
//! state. Poison targets come from a small per-seed pool so specs recur,
//! and the sweep asserts at the end that every state occurred.

use lifeguard_repro::asmap::{AsId, Relationship, TopologyConfig};
use lifeguard_repro::bgp::{LoopDetection, Prefix};
use lifeguard_repro::sim::static_routes::{compute_routes_reference, RouteTable};
use lifeguard_repro::sim::{compute_routes, AnnouncementSpec, Network, SharedRouteCache};
use lifeguard_repro::workloads::FilterMatrix;

fn pfx() -> Prefix {
    Prefix::from_octets(184, 164, 224, 0, 20)
}

/// splitmix64 — deterministic op stream per seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn pick_origin(net: &Network) -> AsId {
    net.graph()
        .ases()
        .find(|a| net.graph().is_stub(*a) && net.graph().providers(*a).len() >= 2)
        .or_else(|| net.graph().ases().find(|a| net.graph().is_stub(*a)))
        .expect("generated topology has stubs")
}

fn all_links(net: &Network) -> Vec<(AsId, AsId, Relationship)> {
    let mut links = Vec::new();
    for a in net.graph().ases() {
        for (b, rel) in net.graph().neighbors(a) {
            if a.0 < b.0 {
                links.push((a, *b, *rel));
            }
        }
    }
    links
}

/// Poison targets one seed's specs draw from: few, so a spec recurs.
const POOL: u64 = 5;

fn spec_for(net: &Network, rng: &mut Rng, origin: AsId, pool: &[AsId]) -> AnnouncementSpec {
    let shape = rng.below(4);
    let copies = 1 + rng.below(6) as usize;
    let targets = [(); 2].map(|()| pool[rng.below(POOL) as usize]);
    match shape {
        0 => AnnouncementSpec::plain(net, pfx(), origin),
        1 => AnnouncementSpec::prepended(net, pfx(), origin, copies),
        2 => AnnouncementSpec::poisoned(net, pfx(), origin, &targets[..1]),
        _ => AnnouncementSpec::poisoned(net, pfx(), origin, &targets),
    }
}

/// One random filter-field edit at one AS, preserving the rest of its
/// policy (the way the planner and the scenario knobs edit policies).
fn edit_policy(net: &mut Network, rng: &mut Rng, pool: &[AsId]) {
    let field = rng.below(6);
    // A loop-detection edit is footprint-scoped — it evicts the poisons
    // naming the AS and leaves their prepended parent cached — so it aims
    // at an AS the specs poison.
    let a = if field == 5 {
        pool[rng.below(POOL) as usize]
    } else {
        AsId(rng.below(net.len() as u64) as u32)
    };
    let mut p = net.policy(a).clone();
    match field {
        0 => {
            p.max_path_len = match p.max_path_len {
                Some(_) => None,
                None => Some(3 + rng.below(6) as u8),
            }
        }
        1 => p.drop_poisoned = !p.drop_poisoned,
        2 => p.drop_reserved_asn = !p.drop_reserved_asn,
        3 => p.reject_peers_in_customer_path = !p.reject_peers_in_customer_path,
        4 => p.default_route = !p.default_route,
        _ => {
            p.loop_detection = if p.loop_detection == LoopDetection::standard() {
                LoopDetection::max_occurrences(1)
            } else {
                LoopDetection::standard()
            }
        }
    }
    net.set_policy(a, p);
}

/// Where the sweep's poisoned lookups found the cache.
#[derive(Default)]
struct DerivationStates {
    /// A poisoned spec missed and its parent was cached.
    parent_present: u64,
    /// A poisoned spec missed and its parent had to be filled first.
    parent_absent: u64,
    /// A poisoned spec that had been cached before missed, parent cached.
    child_evicted_parent_retained: u64,
    /// A cached root table was repaired across link surgery.
    root_repaired: u64,
}

/// One seed's cache, and what it has been asked.
struct Harness<'s> {
    cache: SharedRouteCache,
    registry: lg_telemetry::Registry,
    /// Specs this seed's cache has been asked for.
    asked: Vec<AnnouncementSpec>,
    /// The sweep's tally.
    states: &'s mut DerivationStates,
}

impl Harness<'_> {
    fn parent_fills(&self) -> u64 {
        let fills = self.registry.snapshot().counter("cache.parent_fills");
        fills.unwrap_or(0)
    }

    /// One cache lookup, classified by what a derivation found.
    fn lookup(&mut self, net: &Network, spec: &AnnouncementSpec) -> std::sync::Arc<RouteTable> {
        let (misses, fills) = (self.cache.misses(), self.parent_fills());
        let repairs = self.cache.stats().repairs;
        let table = self.cache.compute(net, spec);
        self.states.root_repaired += self.cache.stats().repairs - repairs;
        let poisoned = spec
            .seeds
            .iter()
            .any(|(_, p)| p.count(spec.origin) < p.len());
        if poisoned && self.cache.misses() > misses {
            if self.parent_fills() > fills {
                self.states.parent_absent += 1;
            } else {
                self.states.parent_present += 1;
                if self.asked.contains(spec) {
                    self.states.child_evicted_parent_retained += 1;
                }
            }
        }
        if !self.asked.contains(spec) {
            self.asked.push(spec.clone());
        }
        table
    }
}

fn check(seed: u64, op: usize, net: &Network, h: &mut Harness, spec: &AnnouncementSpec) {
    let origin = spec.origin;
    let cached = h.lookup(net, spec);
    let scratch = compute_routes(net, spec);
    let reference = compute_routes_reference(net, spec);
    for a in net.graph().ases() {
        assert_eq!(
            cached.route(a),
            scratch.route(a),
            "seed {seed} op {op}: cache diverges from scratch at {a} \
             (spec origin {origin}, path {:?})",
            spec.seeds.first().map(|(_, p)| p),
        );
        assert_eq!(
            scratch.route(a),
            reference.route(a),
            "seed {seed} op {op}: static engine diverges from reference at {a}",
        );
    }
}

#[test]
fn cache_survives_randomized_filter_and_link_churn() {
    // ~1k seeds keep the default suite fast; CI's filter-matrix job (and
    // local hunting) cranks the sweep via LG_FUZZ_SEEDS.
    let seeds: u64 = std::env::var("LG_FUZZ_SEEDS")
        .ok()
        .map(|v| v.parse().expect("LG_FUZZ_SEEDS must be an integer"))
        .unwrap_or(1000);
    let mut divergence_free_checks = 0u64;
    let mut states = DerivationStates::default();
    for seed in 0..seeds {
        let mut rng = Rng(seed.wrapping_mul(0x5851_F42D_4C95_7F2D) ^ 0xFEED);
        let mut net = Network::new(TopologyConfig::small(1 + seed % 16).generate());
        FilterMatrix::ALL[(seed % 4) as usize].apply(&mut net, seed);
        let origin = pick_origin(&net);
        let live = all_links(&net);
        let mut down: Vec<(AsId, AsId, Relationship)> = Vec::new();
        let pool: Vec<AsId> = (0..POOL)
            .map(|_| AsId(rng.below(net.len() as u64) as u32))
            .collect();
        let registry = lg_telemetry::Registry::new();
        let mut harness = Harness {
            cache: SharedRouteCache::with_registry(&registry),
            registry,
            asked: Vec::new(),
            states: &mut states,
        };

        for op in 0..40 {
            match rng.below(8) {
                0 | 1 => edit_policy(&mut net, &mut rng, &pool),
                2 => {
                    let matrix = FilterMatrix::ALL[rng.below(4) as usize];
                    matrix.apply(&mut net, rng.next());
                }
                3 => {
                    let (a, b, rel) = live[rng.below(live.len() as u64) as usize];
                    if !down.iter().any(|&(x, y, _)| (x, y) == (a, b)) {
                        net.remove_link(a, b);
                        down.push((a, b, rel));
                    }
                }
                4 => {
                    if !down.is_empty() {
                        let (a, b, rel) = down.remove(rng.below(down.len() as u64) as usize);
                        net.add_link(a, b, rel);
                    }
                }
                _ => {
                    let spec = spec_for(&net, &mut rng, origin, &pool);
                    check(seed, op, &net, &mut harness, &spec);
                    divergence_free_checks += 1;
                }
            }
        }
    }
    // The sweep must actually exercise cache reuse, not recompute always.
    assert!(
        divergence_free_checks > 500,
        "sweep ran suspiciously few checks: {divergence_free_checks}"
    );
    // ... and every state a derivation can start from.
    eprintln!(
        "derivations over {seeds} seeds: parent present {}, parent absent {}, \
         child evicted with parent retained {}, root repaired across link surgery {}",
        states.parent_present,
        states.parent_absent,
        states.child_evicted_parent_retained,
        states.root_repaired
    );
    let floor = seeds / 20;
    assert!(
        states.parent_present > floor
            && states.parent_absent > floor
            && states.child_evicted_parent_retained > floor
            && states.root_repaired > floor,
        "derivation states under-exercised over {seeds} seeds: parent present {}, \
         parent absent {}, child evicted with parent retained {}, root repaired {}",
        states.parent_present,
        states.parent_absent,
        states.child_evicted_parent_retained,
        states.root_repaired
    );
}
