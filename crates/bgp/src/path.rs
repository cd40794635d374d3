//! AS paths, prepending, and poison insertion, plus a hash-consed
//! parent-pointer interner for engines that handle many overlapping paths.

use crate::hash::IdHashMap;
use lg_asmap::AsId;
use std::fmt;

/// A BGP AS path, stored nearest-AS first (the AS that announced the route to
/// us is element 0, the origin is last).
///
/// LIFEGUARD manipulates origin announcements in two ways:
///
/// * **Prepending** the origin (`O-O-O`) as the steady-state baseline, so a
///   later poisoned announcement has the same length and next hop and working
///   routes reconverge instantly (§3.1.1).
/// * **Poisoning**: inserting the problem AS between two copies of the origin
///   (`O-A-O`) so `A`'s loop prevention drops the route (§3.1). The path must
///   start with `O` (neighbors route to `O` next) and must end with `O`
///   (registries list `O` as the origin).
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct AsPath(Vec<AsId>);

impl AsPath {
    /// Empty path (used for locally originated routes before announcement).
    pub fn empty() -> Self {
        AsPath(Vec::new())
    }

    /// Path from a raw hop list, nearest first.
    pub fn from_hops(hops: Vec<AsId>) -> Self {
        AsPath(hops)
    }

    /// The plain origin-only announcement `O`.
    pub fn origin_only(origin: AsId) -> Self {
        AsPath(vec![origin])
    }

    /// The prepended baseline `O-O-...-O` with `copies` total copies.
    ///
    /// `copies` is typically 3, matching the paper's `O-O-O` baseline.
    pub fn prepended_baseline(origin: AsId, copies: usize) -> Self {
        assert!(copies >= 1);
        AsPath(vec![origin; copies])
    }

    /// A poisoned announcement: `O-A1-..-Ak-O` (origin, poisons, origin).
    ///
    /// With one poison this is the paper's `O-A-O`. Poisoning an AS twice
    /// (for §7.1 networks that allow one occurrence of their own ASN) is
    /// expressed by repeating it in `poisons`.
    pub fn poisoned(origin: AsId, poisons: &[AsId]) -> Self {
        let mut v = Vec::with_capacity(poisons.len() + 2);
        v.push(origin);
        v.extend_from_slice(poisons);
        v.push(origin);
        AsPath(v)
    }

    /// Hops nearest-first.
    pub fn hops(&self) -> &[AsId] {
        &self.0
    }

    /// Number of hops (prepended copies count, as in BGP path-length
    /// comparison).
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when the path has no hops.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The AS that announced this path to us.
    pub fn first(&self) -> Option<AsId> {
        self.0.first().copied()
    }

    /// The origin AS.
    pub fn origin(&self) -> Option<AsId> {
        self.0.last().copied()
    }

    /// Number of times `a` occurs in the path.
    pub fn count(&self, a: AsId) -> usize {
        self.0.iter().filter(|x| **x == a).count()
    }

    /// True when `a` occurs anywhere in the path.
    pub fn contains(&self, a: AsId) -> bool {
        self.0.contains(&a)
    }

    /// The path as announced onward by `sender`: `sender` prepended.
    pub fn announced_by(&self, sender: AsId) -> AsPath {
        let mut v = Vec::with_capacity(self.0.len() + 1);
        v.push(sender);
        v.extend_from_slice(&self.0);
        AsPath(v)
    }

    /// Distinct ASes in order of first appearance (prepending collapsed).
    pub fn distinct(&self) -> Vec<AsId> {
        let mut out: Vec<AsId> = Vec::new();
        for a in &self.0 {
            if !out.contains(a) {
                out.push(*a);
            }
        }
        out
    }
}

impl fmt::Debug for AsPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for AsPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_empty() {
            return write!(f, "<empty>");
        }
        let parts: Vec<String> = self.0.iter().map(|a| a.0.to_string()).collect();
        write!(f, "{}", parts.join("-"))
    }
}

impl From<Vec<AsId>> for AsPath {
    fn from(v: Vec<AsId>) -> Self {
        AsPath(v)
    }
}

/// Sentinel parent marking the empty path in a [`PathInterner`].
const NO_NODE: u32 = u32::MAX;

/// Handle to a path interned in a [`PathInterner`].
///
/// The interner hash-conses: two interned paths with equal hop sequences
/// always get the same id, so `PathId` equality *is* content equality —
/// provided both ids come from the same interner. Ids are meaningless
/// across interners.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct PathId(u32);

impl PathId {
    /// The empty path (every interner resolves this to zero hops).
    pub const EMPTY: PathId = PathId(NO_NODE);

    /// True for the empty path.
    pub fn is_empty(self) -> bool {
        self.0 == NO_NODE
    }
}

/// A parent-pointer arena of AS paths with hash-consing.
///
/// BGP workloads hold huge families of paths that differ only in their
/// first hop: every neighbor's announcement of a route is `neighbor` glued
/// onto a shared tail. Storing each node as `(hop, parent)` makes
/// prepending O(1) and deduplicates all shared tails; hash-consing the
/// `(hop, parent)` pairs means re-announcements and re-convergence loops
/// re-use nodes instead of growing the arena, and path comparison for
/// equality is a single id compare.
///
/// Lifetime rule: nodes are never freed — an interner lives as long as the
/// engine run that owns it (a `DynamicSim`, one static computation) and its
/// memory is bounded by the number of *distinct* paths ever seen, which
/// convergence bounds far below the number of UPDATE messages processed.
#[derive(Default, Debug, Clone)]
pub struct PathInterner {
    /// `(hop, parent, hop count)` per node; a path is a node id, read
    /// nearest-hop-first by following parents.
    nodes: Vec<(AsId, u32, u32)>,
    /// Hash-consing table: `(hop, parent)` → existing node. Keys are
    /// arena-internal and the table is probed only, never iterated (the
    /// [`crate::hash`] rules).
    dedup: IdHashMap<(AsId, u32), u32>,
    /// [`Self::prepend`] calls answered by an existing node.
    hits: u64,
}

impl PathInterner {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of arena nodes (distinct non-empty path prefixes seen).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// [`Self::prepend`] calls that re-used an existing node (a miss
    /// allocates exactly one node, so misses are [`Self::node_count`]).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// The path `hop` prepended to `tail` (the announced-by operation),
    /// re-using an existing node when this exact path was seen before.
    pub fn prepend(&mut self, tail: PathId, hop: AsId) -> PathId {
        if let Some(&node) = self.dedup.get(&(hop, tail.0)) {
            self.hits += 1;
            return PathId(node);
        }
        let len = self.len(tail) as u32 + 1;
        let node = u32::try_from(self.nodes.len()).expect("path interner overflow");
        assert!(node != NO_NODE, "path interner exhausted");
        self.nodes.push((hop, tail.0, len));
        self.dedup.insert((hop, tail.0), node);
        PathId(node)
    }

    /// Intern an owned path.
    pub fn intern(&mut self, path: &AsPath) -> PathId {
        let mut id = PathId::EMPTY;
        for &hop in path.hops().iter().rev() {
            id = self.prepend(id, hop);
        }
        id
    }

    /// Number of hops (prepended copies count, as in BGP path-length
    /// comparison).
    pub fn len(&self, id: PathId) -> usize {
        if id.is_empty() {
            0
        } else {
            self.nodes[id.0 as usize].2 as usize
        }
    }

    /// Hops nearest-first.
    pub fn hops(&self, id: PathId) -> PathHops<'_> {
        PathHops {
            interner: self,
            node: id.0,
        }
    }

    /// The AS that announced this path (the first hop).
    pub fn first(&self, id: PathId) -> Option<AsId> {
        if id.is_empty() {
            None
        } else {
            Some(self.nodes[id.0 as usize].0)
        }
    }

    /// Number of times `a` occurs in the path.
    pub fn count(&self, id: PathId, a: AsId) -> usize {
        self.hops(id).filter(|&h| h == a).count()
    }

    /// Copy the interned path out as an owned [`AsPath`].
    pub fn materialize(&self, id: PathId) -> AsPath {
        AsPath::from_hops(self.hops(id).collect())
    }

    /// Content ordering of two interned paths, identical to the derived
    /// lexicographic `Ord` on [`AsPath`] (so engines tie-breaking on path
    /// content agree whether paths are owned or interned).
    pub fn cmp_content(&self, a: PathId, b: PathId) -> std::cmp::Ordering {
        self.hops(a).cmp(self.hops(b))
    }
}

/// Iterator over an interned path's hops, nearest-first.
#[derive(Clone)]
pub struct PathHops<'a> {
    interner: &'a PathInterner,
    node: u32,
}

impl Iterator for PathHops<'_> {
    type Item = AsId;

    fn next(&mut self) -> Option<AsId> {
        if self.node == NO_NODE {
            return None;
        }
        let (hop, parent, _) = self.interner.nodes[self.node as usize];
        self.node = parent;
        Some(hop)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let len = if self.node == NO_NODE {
            0
        } else {
            self.interner.nodes[self.node as usize].2 as usize
        };
        (len, Some(len))
    }
}

impl ExactSizeIterator for PathHops<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    const O: AsId = AsId(100);
    const A: AsId = AsId(7);

    #[test]
    fn baseline_matches_paper_shape() {
        let p = AsPath::prepended_baseline(O, 3);
        assert_eq!(p.to_string(), "100-100-100");
        assert_eq!(p.len(), 3);
        assert_eq!(p.origin(), Some(O));
        assert_eq!(p.first(), Some(O));
    }

    #[test]
    fn poisoned_path_same_length_as_baseline() {
        // The crux of §3.1.1: O-A-O and O-O-O are equally long and share a
        // next hop, so unaffected ASes reconverge instantly.
        let baseline = AsPath::prepended_baseline(O, 3);
        let poisoned = AsPath::poisoned(O, &[A]);
        assert_eq!(baseline.len(), poisoned.len());
        assert_eq!(baseline.first(), poisoned.first());
        assert_eq!(baseline.origin(), poisoned.origin());
        assert_eq!(poisoned.to_string(), "100-7-100");
        assert!(poisoned.contains(A));
    }

    #[test]
    fn double_poison_for_lenient_loop_detection() {
        let p = AsPath::poisoned(O, &[A, A]);
        assert_eq!(p.count(A), 2);
        assert_eq!(p.to_string(), "100-7-7-100");
    }

    #[test]
    fn announced_by_prepends_sender() {
        let p = AsPath::poisoned(O, &[A]);
        let q = p.announced_by(AsId(55));
        assert_eq!(q.to_string(), "55-100-7-100");
        assert_eq!(q.origin(), Some(O));
        assert_eq!(q.first(), Some(AsId(55)));
        assert_eq!(q.len(), 4);
    }

    #[test]
    fn distinct_collapses_prepends() {
        let p = AsPath::from_hops(vec![AsId(1), AsId(1), AsId(2), AsId(1), AsId(3)]);
        assert_eq!(p.distinct(), vec![AsId(1), AsId(2), AsId(3)]);
    }

    #[test]
    fn empty_path_behaviour() {
        let p = AsPath::empty();
        assert!(p.is_empty());
        assert_eq!(p.origin(), None);
        assert_eq!(p.to_string(), "<empty>");
        assert_eq!(p.count(O), 0);
    }

    #[test]
    fn interner_round_trips_and_hash_conses() {
        let mut it = PathInterner::new();
        let poisoned = AsPath::poisoned(O, &[A]);
        let id = it.intern(&poisoned);
        assert_eq!(it.materialize(id), poisoned);
        assert_eq!(it.len(id), 3);
        assert_eq!(it.first(id), Some(O));
        assert_eq!(it.count(id, O), 2);
        assert_eq!(it.count(id, A), 1);

        // Re-interning the same content returns the same id; arena doesn't
        // grow.
        let nodes = it.node_count();
        assert_eq!(it.intern(&AsPath::poisoned(O, &[A])), id);
        assert_eq!(it.node_count(), nodes);

        // announced_by == prepend, and shares the tail.
        let announced = it.prepend(id, AsId(55));
        assert_eq!(it.materialize(announced), poisoned.announced_by(AsId(55)));
        assert_eq!(it.node_count(), nodes + 1);
        assert_eq!(it.intern(&poisoned.announced_by(AsId(55))), announced);
    }

    #[test]
    fn interner_empty_path() {
        let mut it = PathInterner::new();
        assert!(PathId::EMPTY.is_empty());
        assert_eq!(it.len(PathId::EMPTY), 0);
        assert_eq!(it.first(PathId::EMPTY), None);
        assert_eq!(it.materialize(PathId::EMPTY), AsPath::empty());
        assert_eq!(it.intern(&AsPath::empty()), PathId::EMPTY);
        assert_eq!(it.hops(PathId::EMPTY).len(), 0);
    }

    #[test]
    fn interner_long_prepend_chain_shares_every_tail() {
        // Heavy prepending (the paper's baseline-prepending announcements,
        // taken to an extreme) must stay O(1) per hop: a chain of N
        // prepends allocates exactly N nodes, every intermediate id is a
        // live shared tail, and re-interning the materialized chain reuses
        // all of them.
        let mut it = PathInterner::new();
        const N: usize = 10_000;
        let mut id = PathId::EMPTY;
        let mut stages = Vec::with_capacity(N);
        for i in 0..N {
            // Alternate two hops so parents differ and dedup keys collide
            // only on true repetition.
            id = it.prepend(id, if i % 2 == 0 { O } else { A });
            stages.push(id);
        }
        assert_eq!(it.node_count(), N);
        assert_eq!(it.len(id), N);
        assert_eq!(it.hops(id).len(), N);
        assert_eq!(it.count(id, O), N / 2);
        // Rebuilding the full chain from owned hops allocates nothing new
        // and lands on the same id...
        let owned = it.materialize(id);
        assert_eq!(it.intern(&owned), id);
        assert_eq!(it.node_count(), N);
        // ...and every prefix stage round-trips to its own id.
        for (i, &stage) in stages.iter().enumerate().step_by(997) {
            assert_eq!(it.len(stage), i + 1);
            let m = it.materialize(stage);
            assert_eq!(it.intern(&m), stage);
        }
        assert_eq!(it.node_count(), N);
    }

    #[test]
    fn interner_self_prepend_duplicates_are_distinct_nodes() {
        // AS-prepending repeats one hop: each extra copy is a *different*
        // path (longer), so it must get a fresh node, while re-running the
        // same prepend sequence reuses them all.
        let mut it = PathInterner::new();
        let mut id = it.prepend(PathId::EMPTY, O);
        let mut ids = vec![id];
        for _ in 0..5 {
            id = it.prepend(id, O);
            ids.push(id);
        }
        assert_eq!(it.node_count(), 6);
        for (i, &pid) in ids.iter().enumerate() {
            assert_eq!(it.len(pid), i + 1);
            assert_eq!(it.count(pid, O), i + 1);
        }
        // Same sequence again: zero growth, identical ids.
        let mut again = PathId::EMPTY;
        for &want in &ids {
            again = it.prepend(again, O);
            assert_eq!(again, want);
        }
        assert_eq!(it.node_count(), 6);
    }

    #[test]
    fn deep_parent_chains_never_recurse() {
        // Scale-audit regression: every parent-chain walk (hops, len,
        // count, materialize, cmp_content) must be iterative. A 200k-hop
        // chain — deeper than any thread stack could take recursively at
        // ~75k ASes with prepending — proves none of them overflow.
        let mut it = PathInterner::new();
        let mut id = it.intern(&AsPath::origin_only(AsId(0)));
        for i in 1..200_000u32 {
            id = it.prepend(id, AsId(i % 70_000));
        }
        assert_eq!(it.len(id), 200_000);
        assert_eq!(it.hops(id).count(), 200_000);
        assert_eq!(it.first(id), Some(AsId(199_999 % 70_000)));
        assert!(it.count(id, AsId(0)) >= 1);
        let owned = it.materialize(id);
        assert_eq!(owned.len(), 200_000);
        // Content self-comparison walks both chains to the end.
        assert_eq!(it.cmp_content(id, id), std::cmp::Ordering::Equal);
    }

    #[test]
    fn interner_content_ordering_matches_owned_ord() {
        let mut it = PathInterner::new();
        let paths = [
            AsPath::empty(),
            AsPath::origin_only(O),
            AsPath::prepended_baseline(O, 3),
            AsPath::poisoned(O, &[A]),
            AsPath::from_hops(vec![A, O]),
            AsPath::from_hops(vec![AsId(1), AsId(2), AsId(3)]),
        ];
        let ids: Vec<PathId> = paths.iter().map(|p| it.intern(p)).collect();
        for (p, &pid) in paths.iter().zip(&ids) {
            for (q, &qid) in paths.iter().zip(&ids) {
                assert_eq!(it.cmp_content(pid, qid), p.cmp(q), "{p} vs {q}");
                assert_eq!(pid == qid, p == q, "id equality is content equality");
            }
        }
    }
}
