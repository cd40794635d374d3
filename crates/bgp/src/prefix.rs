//! IPv4 CIDR prefixes with longest-prefix-match semantics.

use std::fmt;
use std::str::FromStr;

/// An IPv4 CIDR prefix.
///
/// The host bits of `addr` are always zero (enforced at construction), so
/// prefixes compare by value. LIFEGUARD's sentinel mechanism relies on
/// longest-prefix match: the production prefix is a more-specific inside the
/// sentinel less-specific, and ASes that lose the poisoned more-specific fall
/// back to the covering sentinel.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Prefix {
    addr: u32,
    len: u8,
}

impl Prefix {
    /// Build a prefix; host bits of `addr` below `len` are masked off.
    ///
    /// # Panics
    /// Panics when `len > 32`.
    pub fn new(addr: u32, len: u8) -> Self {
        assert!(len <= 32, "prefix length {len} > 32");
        Prefix {
            addr: addr & Self::mask(len),
            len,
        }
    }

    /// Build from dotted-quad octets.
    pub fn from_octets(a: u8, b: u8, c: u8, d: u8, len: u8) -> Self {
        Self::new(u32::from_be_bytes([a, b, c, d]), len)
    }

    fn mask(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - len)
        }
    }

    /// Network address.
    pub fn addr(self) -> u32 {
        self.addr
    }

    /// Prefix length in bits.
    ///
    /// (`is_empty` intentionally does not exist: a prefix length of zero is
    /// the default route, not an "empty" prefix.)
    #[allow(clippy::len_without_is_empty)]
    pub fn len(self) -> u8 {
        self.len
    }

    /// True for the default route `0.0.0.0/0`.
    pub fn is_default(self) -> bool {
        self.len == 0
    }

    /// True when `addr` falls inside this prefix.
    pub fn contains(self, addr: u32) -> bool {
        addr & Self::mask(self.len) == self.addr
    }

    /// True when `other` is equal to or more specific than this prefix.
    pub fn covers(self, other: Prefix) -> bool {
        other.len >= self.len && self.contains(other.addr)
    }

    /// An address guaranteed to lie inside the prefix (the network address).
    pub fn an_addr(self) -> u32 {
        self.addr
    }

    /// The `i`-th address inside the prefix, wrapping within its size.
    pub fn nth_addr(self, i: u32) -> u32 {
        if self.len == 32 {
            return self.addr;
        }
        let size = 1u64 << (32 - self.len);
        self.addr + (i as u64 % size) as u32
    }

    /// Longest-prefix match: the most specific prefix in `candidates` that
    /// contains `addr`. A linear scan, kept for tests as the reference the
    /// LPM trie is checked against.
    #[cfg(test)]
    pub(crate) fn lpm<'a, I>(addr: u32, candidates: I) -> Option<Prefix>
    where
        I: IntoIterator<Item = &'a Prefix>,
    {
        candidates
            .into_iter()
            .filter(|p| p.contains(addr))
            .max_by_key(|p| p.len)
            .copied()
    }
}

impl fmt::Debug for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [a, b, c, d] = self.addr.to_be_bytes();
        write!(f, "{a}.{b}.{c}.{d}/{}", self.len)
    }
}

/// Error from parsing a prefix string.
#[derive(Debug, PartialEq, Eq)]
pub struct ParsePrefixError(pub String);

impl fmt::Display for ParsePrefixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid prefix: {}", self.0)
    }
}

impl std::error::Error for ParsePrefixError {}

impl FromStr for Prefix {
    type Err = ParsePrefixError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParsePrefixError(s.to_string());
        let (ip, len) = s.split_once('/').ok_or_else(err)?;
        let len: u8 = len.parse().map_err(|_| err())?;
        if len > 32 {
            return Err(err());
        }
        let mut octets = [0u8; 4];
        let mut n = 0;
        for part in ip.split('.') {
            if n == 4 {
                return Err(err());
            }
            octets[n] = part.parse().map_err(|_| err())?;
            n += 1;
        }
        if n != 4 {
            return Err(err());
        }
        Ok(Prefix::new(u32::from_be_bytes(octets), len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn host_bits_masked() {
        let p = Prefix::from_octets(10, 0, 0, 255, 24);
        assert_eq!(p, Prefix::from_octets(10, 0, 0, 0, 24));
        assert_eq!(p.to_string(), "10.0.0.0/24");
    }

    #[test]
    fn containment() {
        let p = Prefix::from_octets(10, 1, 0, 0, 16);
        assert!(p.contains(u32::from_be_bytes([10, 1, 200, 3])));
        assert!(!p.contains(u32::from_be_bytes([10, 2, 0, 0])));
    }

    #[test]
    fn covers_requires_more_specific() {
        let sentinel = Prefix::from_octets(10, 1, 0, 0, 16);
        let production = Prefix::from_octets(10, 1, 0, 0, 17);
        assert!(sentinel.covers(production));
        assert!(!production.covers(sentinel));
        assert!(sentinel.covers(sentinel));
    }

    #[test]
    fn default_route() {
        let d = Prefix::new(0, 0);
        assert!(d.is_default());
        assert!(d.contains(u32::MAX));
        assert!(d.covers(Prefix::from_octets(1, 2, 3, 4, 32)));
    }

    #[test]
    fn lpm_picks_most_specific() {
        let sentinel = Prefix::from_octets(10, 1, 0, 0, 16);
        let production = Prefix::from_octets(10, 1, 0, 0, 17);
        let other = Prefix::from_octets(192, 168, 0, 0, 16);
        let addr = u32::from_be_bytes([10, 1, 1, 1]);
        assert_eq!(
            Prefix::lpm(addr, [&sentinel, &production, &other]),
            Some(production)
        );
        // Address in the sentinel but outside the production /17.
        let high = u32::from_be_bytes([10, 1, 200, 1]);
        assert_eq!(Prefix::lpm(high, [&sentinel, &production]), Some(sentinel));
        assert_eq!(
            Prefix::lpm(u32::from_be_bytes([1, 1, 1, 1]), [&sentinel]),
            None
        );
    }

    #[test]
    fn parse_roundtrip() {
        let p: Prefix = "192.168.4.0/22".parse().unwrap();
        assert_eq!(p, Prefix::from_octets(192, 168, 4, 0, 22));
        assert!("192.168.4.0".parse::<Prefix>().is_err());
        assert!("192.168.4.0/33".parse::<Prefix>().is_err());
        assert!("a.b.c.d/8".parse::<Prefix>().is_err());
        assert!("1.2.3/8".parse::<Prefix>().is_err());
        assert!("1.2.3.4.5/8".parse::<Prefix>().is_err());
    }

    #[test]
    fn nth_addr_stays_inside() {
        let p = Prefix::from_octets(10, 0, 0, 0, 30);
        for i in 0..10 {
            assert!(p.contains(p.nth_addr(i)));
        }
        let host = Prefix::from_octets(10, 0, 0, 7, 32);
        assert_eq!(host.nth_addr(5), host.addr());
    }

    proptest! {
        #[test]
        fn prop_display_parse_roundtrip(addr: u32, len in 0u8..=32) {
            let p = Prefix::new(addr, len);
            let back: Prefix = p.to_string().parse().unwrap();
            prop_assert_eq!(p, back);
        }

        #[test]
        fn prop_contains_own_network(addr: u32, len in 0u8..=32) {
            let p = Prefix::new(addr, len);
            prop_assert!(p.contains(p.addr()));
            prop_assert!(p.covers(p));
        }

        #[test]
        fn prop_cover_is_transitive(addr: u32, l1 in 0u8..=30) {
            let outer = Prefix::new(addr, l1);
            let mid = Prefix::new(addr, l1 + 1);
            let inner = Prefix::new(addr, l1 + 2);
            prop_assert!(outer.covers(mid));
            prop_assert!(mid.covers(inner));
            prop_assert!(outer.covers(inner));
        }
    }
}
