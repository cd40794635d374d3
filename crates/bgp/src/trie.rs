//! A binary prefix trie for longest-prefix-match lookups.
//!
//! The data plane consults an AS's table for every hop of every walk; with
//! hundreds of announced prefixes (one infra prefix per AS in the larger
//! experiments) a linear scan per lookup dominates. This trie stores values
//! keyed by [`Prefix`] and yields the prefixes covering an address in
//! longest-first order, so callers can pick the most specific entry that
//! satisfies extra conditions (e.g. "this AS actually has a route in that
//! table") without scanning everything.

use crate::prefix::Prefix;

#[derive(Debug, Clone)]
struct Node<T> {
    children: [Option<usize>; 2],
    /// Value stored at this exact prefix, if any.
    value: Option<T>,
}

impl<T> Default for Node<T> {
    fn default() -> Self {
        Node {
            children: [None, None],
            value: None,
        }
    }
}

/// Map from [`Prefix`] to `T` with longest-prefix-match queries.
#[derive(Debug, Clone)]
pub struct PrefixTrie<T> {
    nodes: Vec<Node<T>>,
    len: usize,
}

impl<T> Default for PrefixTrie<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> PrefixTrie<T> {
    /// Empty trie.
    pub fn new() -> Self {
        PrefixTrie {
            nodes: vec![Node::default()],
            len: 0,
        }
    }

    /// Number of stored prefixes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn bit(addr: u32, depth: u8) -> usize {
        ((addr >> (31 - depth)) & 1) as usize
    }

    /// Insert `value` at `prefix`, returning the previous value if any.
    pub fn insert(&mut self, prefix: Prefix, value: T) -> Option<T> {
        let mut idx = 0;
        for depth in 0..prefix.len() {
            let b = Self::bit(prefix.addr(), depth);
            idx = match self.nodes[idx].children[b] {
                Some(next) => next,
                None => {
                    self.nodes.push(Node::default());
                    let next = self.nodes.len() - 1;
                    self.nodes[idx].children[b] = Some(next);
                    next
                }
            };
        }
        let old = self.nodes[idx].value.replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    fn node_of(&self, prefix: Prefix) -> Option<usize> {
        let mut idx = 0;
        for depth in 0..prefix.len() {
            let b = Self::bit(prefix.addr(), depth);
            idx = self.nodes[idx].children[b]?;
        }
        Some(idx)
    }

    /// The value stored at exactly `prefix`.
    pub fn get(&self, prefix: Prefix) -> Option<&T> {
        self.nodes[self.node_of(prefix)?].value.as_ref()
    }

    /// Mutable access to the value at exactly `prefix`.
    pub fn get_mut(&mut self, prefix: Prefix) -> Option<&mut T> {
        let idx = self.node_of(prefix)?;
        self.nodes[idx].value.as_mut()
    }

    /// Remove and return the value at exactly `prefix` (nodes are left in
    /// place; the trie is optimized for lookup churn, not shrinkage).
    pub fn remove(&mut self, prefix: Prefix) -> Option<T> {
        let idx = self.node_of(prefix)?;
        let old = self.nodes[idx].value.take();
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    /// The values stored at prefixes covering `addr`, most specific
    /// first, without allocating: one walk down records the (at most 33)
    /// nodes that hold a value, and the iterator hands them back deepest
    /// first.
    pub fn covering(&self, addr: u32) -> Covering<'_, T> {
        let mut hits = [0u32; 33];
        let mut n = 0;
        let mut idx = 0;
        if self.nodes[0].value.is_some() {
            n = 1;
        }
        for depth in 0..32u8 {
            match self.nodes[idx].children[Self::bit(addr, depth)] {
                Some(next) => {
                    idx = next;
                    if self.nodes[idx].value.is_some() {
                        hits[n] = idx as u32;
                        n += 1;
                    }
                }
                None => break,
            }
        }
        Covering {
            trie: self,
            hits,
            n,
        }
    }
}

/// Iterator over the values covering an address, most specific first
/// (see [`PrefixTrie::covering`]).
pub struct Covering<'a, T> {
    trie: &'a PrefixTrie<T>,
    /// Trie nodes holding a value on the address's path, shallowest
    /// first; `hits[..n]` are still to be yielded.
    hits: [u32; 33],
    n: usize,
}

impl<'a, T> Iterator for Covering<'a, T> {
    type Item = &'a T;

    fn next(&mut self) -> Option<&'a T> {
        self.n = self.n.checked_sub(1)?;
        self.trie.nodes[self.hits[self.n] as usize].value.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn p(a: u8, b: u8, c: u8, d: u8, len: u8) -> Prefix {
        Prefix::from_octets(a, b, c, d, len)
    }

    #[test]
    fn insert_get_remove() {
        let mut t = PrefixTrie::new();
        assert!(t.is_empty());
        assert_eq!(t.insert(p(10, 0, 0, 0, 8), "a"), None);
        assert_eq!(t.insert(p(10, 1, 0, 0, 16), "b"), None);
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(p(10, 0, 0, 0, 8)), Some(&"a"));
        assert_eq!(t.get(p(10, 0, 0, 0, 9)), None);
        assert_eq!(t.insert(p(10, 0, 0, 0, 8), "a2"), Some("a"));
        assert_eq!(t.len(), 2);
        assert_eq!(t.remove(p(10, 0, 0, 0, 8)), Some("a2"));
        assert_eq!(t.remove(p(10, 0, 0, 0, 8)), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn lookup_prefers_most_specific() {
        let mut t = PrefixTrie::new();
        t.insert(p(10, 0, 0, 0, 8), 8u8);
        t.insert(p(10, 1, 0, 0, 16), 16u8);
        t.insert(p(10, 1, 2, 0, 24), 24u8);
        let addr = u32::from_be_bytes([10, 1, 2, 3]);
        let m: Vec<u8> = t.covering(addr).copied().collect();
        assert_eq!(m, vec![24, 16, 8]);
        // Outside the /24 but inside the /16.
        let lpm = |a: [u8; 4]| t.covering(u32::from_be_bytes(a)).next().copied();
        assert_eq!(lpm([10, 1, 9, 9]), Some(16));
        // Outside everything.
        assert_eq!(lpm([11, 0, 0, 1]), None);
    }

    #[test]
    fn default_route_matches_everything() {
        let mut t = PrefixTrie::new();
        t.insert(Prefix::new(0, 0), "default");
        assert_eq!(t.covering(0).next(), Some(&"default"));
        assert_eq!(t.covering(u32::MAX).next(), Some(&"default"));
        let m: Vec<&str> = t.covering(12345).copied().collect();
        assert_eq!(m, vec!["default"]);
    }

    #[test]
    fn host_routes_work() {
        let mut t = PrefixTrie::new();
        t.insert(p(192, 0, 2, 7, 32), ());
        assert!(t
            .covering(u32::from_be_bytes([192, 0, 2, 7]))
            .next()
            .is_some());
        assert!(t
            .covering(u32::from_be_bytes([192, 0, 2, 8]))
            .next()
            .is_none());
    }

    proptest! {
        /// The trie agrees with the linear reference implementation on
        /// arbitrary prefix sets and query addresses: the first value
        /// `covering` yields is the longest-prefix match.
        #[test]
        fn prop_matches_linear_lpm(
            entries in proptest::collection::vec((any::<u32>(), 0u8..=32), 1..40),
            queries in proptest::collection::vec(any::<u32>(), 1..20),
        ) {
            let mut trie = PrefixTrie::new();
            let mut linear: Vec<Prefix> = Vec::new();
            for (addr, len) in entries {
                let pfx = Prefix::new(addr, len);
                trie.insert(pfx, pfx);
                if !linear.contains(&pfx) {
                    linear.push(pfx);
                }
            }
            prop_assert_eq!(trie.len(), linear.len());
            for q in queries {
                let expect = Prefix::lpm(q, linear.iter());
                let got = trie.covering(q).next().copied();
                prop_assert_eq!(got, expect, "query {}", q);
            }
        }

        /// The longest-prefix match is the first value of the `covering`
        /// walk, and the walk yields exactly the stored prefixes that
        /// cover the address, longest first — including addresses under
        /// no stored prefix.
        #[test]
        fn prop_lookup_matches_matches_first(
            entries in proptest::collection::vec((any::<u32>(), 0u8..=32), 0..40),
            queries in proptest::collection::vec(any::<u32>(), 1..30),
        ) {
            let mut trie = PrefixTrie::new();
            let mut linear: Vec<Prefix> = Vec::new();
            for (addr, len) in entries {
                let pfx = Prefix::new(addr, len);
                trie.insert(pfx, pfx);
                if !linear.contains(&pfx) {
                    linear.push(pfx);
                }
            }
            for q in queries {
                let walk: Vec<Prefix> = trie.covering(q).copied().collect();
                prop_assert_eq!(walk.first().copied(), Prefix::lpm(q, linear.iter()), "query {}", q);
                let mut want: Vec<Prefix> =
                    linear.iter().copied().filter(|p| p.contains(q)).collect();
                want.sort_by_key(|p| std::cmp::Reverse(p.len()));
                prop_assert_eq!(walk, want, "query {}", q);
            }
        }

        /// Remove really removes, and only the targeted entry.
        #[test]
        fn prop_remove_is_precise(
            entries in proptest::collection::vec((any::<u32>(), 0u8..=32), 2..30),
        ) {
            let mut trie = PrefixTrie::new();
            let mut linear: Vec<Prefix> = Vec::new();
            for (addr, len) in &entries {
                let pfx = Prefix::new(*addr, *len);
                trie.insert(pfx, pfx);
                if !linear.contains(&pfx) {
                    linear.push(pfx);
                }
            }
            let victim = linear[0];
            trie.remove(victim);
            linear.retain(|p| *p != victim);
            prop_assert_eq!(trie.len(), linear.len());
            for p in &linear {
                prop_assert_eq!(trie.get(*p), Some(p));
            }
            prop_assert_eq!(trie.get(victim), None);
        }
    }
}
